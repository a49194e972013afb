//! The analysis engine: the estimator's stage chain behind one entry
//! point.
//!
//! The paper's pipeline is a fixed sequence — sanitize → lossmodel →
//! α → biased/unbiased PDFs → smoothing → normalization, with optional
//! CI-bootstrap and windowed-curve stages ([`op`] names them all).
//! [`AnalysisPlan`] runs it through a single entry point,
//! [`AnalysisPlan::run`]: what varies between calls is *which input
//! shape* ([`PlanInput`]) and *which optional stages* ([`RunOptions`]).
//! The same type carries the per-slice analyses of the paper's evaluation
//! sections (`by_action_type`, `full_report`, …, in [`crate::pipeline`]).
//!
//! Incremental callers cache the pre-RNG per-shard states
//! ([`PlanPartials`]) and enter via [`PlanInput::prepared`]; the output is
//! bit-identical to a batch run over the same records at every thread
//! count — see the [`op`] module docs for why the RNG frontier is exactly
//! the cacheability frontier.
//!
//! ```
//! use autosens_core::plan::{AnalysisPlan, PlanInput, RunOptions};
//! use autosens_core::AutoSensConfig;
//! use autosens_sim::{generate, Scenario, SimConfig};
//!
//! let (log, _) = generate(&SimConfig::scenario(Scenario::Smoke)).unwrap();
//! let plan = AnalysisPlan::new(AutoSensConfig::default());
//! let out = plan.run(PlanInput::log(&log), RunOptions::default()).unwrap();
//! assert!(out.report.n_actions > 0);
//! assert!(out.ci.is_none()); // CI bootstrap runs only on request
//! ```

pub mod op;
mod partials;

pub use partials::PlanPartials;

use autosens_obs::Recorder;
use autosens_telemetry::log::{LogView, TelemetryLog};
use autosens_telemetry::query::Slice;

use crate::ci::PreferenceCi;
use crate::config::AutoSensConfig;
use crate::error::AutoSensError;
use crate::pipeline::{AnalysisReport, DecaySpec, Degradation};

/// What the plan runs over. All shapes converge on the same stage chain
/// and the same RNG streams, so for the same underlying records every
/// shape produces a bit-identical [`AnalysisReport`].
#[derive(Debug)]
pub enum PlanInput<'a> {
    /// A full log: sanitize selects all successful actions.
    Log(&'a TelemetryLog),
    /// One slice of a log.
    Slice {
        /// The log to analyze.
        log: &'a TelemetryLog,
        /// The slice filter to apply during sanitize.
        slice: &'a Slice,
    },
    /// One slice of a borrowed [`LogView`] — the zero-copy ingest shape;
    /// a memory-mapped container's columns flow to the kernels without
    /// materializing a row.
    View {
        /// The borrowed columns to analyze.
        view: &'a LogView<'a>,
        /// The slice filter to apply during sanitize.
        slice: &'a Slice,
    },
    /// An externally sanitized view plus cached pre-RNG operator state —
    /// the incremental shape the streaming engine uses, over a view it
    /// borrows from its own row store. `view` must equal what batch
    /// sanitize would produce for the same input: filtered to the slice's
    /// successes, stably time-sorted, exact duplicates removed keep-first.
    Prepared {
        /// The sanitized (sorted, deduplicated) rows of successes.
        view: &'a LogView<'a>,
        /// The caller's sanitize bookkeeping and cached partials.
        meta: PreparedMeta,
    },
}

impl<'a> PlanInput<'a> {
    /// Analyze a full log (successful actions only, as in the paper).
    pub fn log(log: &'a TelemetryLog) -> PlanInput<'a> {
        PlanInput::Log(log)
    }

    /// Analyze one slice of a log.
    pub fn slice(log: &'a TelemetryLog, slice: &'a Slice) -> PlanInput<'a> {
        PlanInput::Slice { log, slice }
    }

    /// Analyze one slice of a borrowed view.
    pub fn view(view: &'a LogView<'a>, slice: &'a Slice) -> PlanInput<'a> {
        PlanInput::View { view, slice }
    }

    /// Analyze an externally sanitized view (see [`PlanInput::Prepared`]).
    pub fn prepared(view: &'a LogView<'a>, meta: PreparedMeta) -> PlanInput<'a> {
        PlanInput::Prepared { view, meta }
    }
}

/// Sanitize bookkeeping and cached operator state accompanying a
/// [`PlanInput::Prepared`] input. [`Default`] is a clean, cacheless
/// prepared run: no degradations, no partials, no windowed curve.
#[derive(Debug, Clone, Default)]
pub struct PreparedMeta {
    /// Degradations observed while preparing (out-of-order arrival,
    /// duplicates removed, …), in the order batch sanitize would report
    /// them: re-sort first, then duplicate removal.
    pub degradations: Vec<Degradation>,
    /// Records that entered sanitize after filtering (pre-dedup count).
    pub records_in: usize,
    /// Records dropped by deduplication.
    pub records_dropped: usize,
    /// Cached pre-RNG operator partials matching the log exactly; when
    /// present the lossmodel and α folds skip their rescans.
    pub partials: Option<PlanPartials>,
    /// Optional windowed-decay request: when present the report also
    /// carries an exponentially-decayed windowed curve. The lifetime
    /// curve is unaffected either way.
    pub decay: Option<DecaySpec>,
}

/// A CI-bootstrap request (see [`crate::ci`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CiSpec {
    /// Bootstrap replicate count.
    pub replicates: usize,
    /// Two-sided confidence level (e.g. `0.95`).
    pub level: f64,
}

/// Which optional stages a [`AnalysisPlan::run`] executes on top of
/// the always-run chain.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunOptions {
    /// Run the [`op::CI_BOOTSTRAP`] stage and return a confidence band in
    /// [`RunOutput::ci`].
    pub ci: Option<CiSpec>,
}

impl RunOptions {
    /// Request a bootstrap confidence band.
    pub fn with_ci(replicates: usize, level: f64) -> RunOptions {
        RunOptions {
            ci: Some(CiSpec { replicates, level }),
        }
    }
}

/// What a [`AnalysisPlan::run`] produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The completed analysis (including the CI stage's timing when one
    /// was requested).
    pub report: AnalysisReport,
    /// The bootstrap confidence band, when [`RunOptions::ci`] asked for
    /// one.
    pub ci: Option<PreferenceCi>,
}

/// The analysis engine: one configuration and recorder, the single
/// entry point [`AnalysisPlan::run`], and the per-slice analyses of the
/// paper's evaluation sections (see [`crate::pipeline`]).
///
/// Construct one per configuration and call [`AnalysisPlan::run`] with the
/// input shape at hand. Cloning shares the recorder (it is `Arc`-backed),
/// so spans and metrics keep landing in the same place.
#[derive(Debug, Clone)]
pub struct AnalysisPlan {
    pub(crate) config: AutoSensConfig,
    pub(crate) recorder: Recorder,
}

impl AnalysisPlan {
    /// A plan with a configuration (validated at run time) and no span
    /// buffering — reports still carry stage timings. Use
    /// [`AnalysisPlan::with_recorder`] to collect a full span tree and
    /// per-analysis metrics.
    pub fn new(config: AutoSensConfig) -> AnalysisPlan {
        AnalysisPlan::with_recorder(config, Recorder::disabled())
    }

    /// A plan that records spans and metrics into `recorder`.
    pub fn with_recorder(config: AutoSensConfig, recorder: Recorder) -> AnalysisPlan {
        AnalysisPlan { config, recorder }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &AutoSensConfig {
        &self.config
    }

    /// The plan's recorder (drain it with [`Recorder::finish`] after a run
    /// to obtain the span tree; its metrics registry holds the pipeline
    /// counters).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Run the plan over an input. One span per always-run stage
    /// ([`op::STAGES`]), plus one per requested optional stage; stage
    /// timings in the report follow the same order.
    pub fn run(&self, input: PlanInput<'_>, opts: RunOptions) -> Result<RunOutput, AutoSensError> {
        let mut report = match input {
            PlanInput::Log(log) => self.run_view(&log.view(), &Slice::all())?,
            PlanInput::Slice { log, slice } => self.run_view(&log.view(), slice)?,
            PlanInput::View { view, slice } => self.run_view(view, slice)?,
            PlanInput::Prepared { view, meta } => self.run_prepared(view, meta)?,
        };
        let ci = opts
            .ci
            .map(|spec| self.run_ci(&mut report, spec))
            .transpose()?;
        Ok(RunOutput { report, ci })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosens_sim::{generate, Scenario, SimConfig};

    fn smoke_log() -> TelemetryLog {
        let (log, _) = generate(&SimConfig::scenario(Scenario::Smoke)).unwrap();
        log
    }

    fn fast_config() -> AutoSensConfig {
        AutoSensConfig {
            unbiased_draws: 48_000,
            min_supported_bins: 15,
            ..AutoSensConfig::default()
        }
    }

    #[test]
    fn every_input_shape_matches_the_log_shape() {
        let log = smoke_log();
        let plan = AnalysisPlan::new(fast_config());
        let base = plan
            .run(PlanInput::log(&log), RunOptions::default())
            .unwrap()
            .report;
        let all = Slice::all();
        let by_slice = plan
            .run(PlanInput::slice(&log, &all), RunOptions::default())
            .unwrap()
            .report;
        let view = log.view();
        let by_view = plan
            .run(PlanInput::view(&view, &all), RunOptions::default())
            .unwrap()
            .report;
        assert_eq!(base.preference.series(), by_slice.preference.series());
        assert_eq!(base.preference.series(), by_view.preference.series());
        assert_eq!(base.n_actions, by_view.n_actions);
    }

    #[test]
    fn ci_request_appends_the_bootstrap_stage() {
        let log = smoke_log();
        let plan = AnalysisPlan::new(fast_config());
        let out = plan
            .run(PlanInput::log(&log), RunOptions::with_ci(25, 0.95))
            .unwrap();
        let ci = out.ci.expect("ci requested");
        assert!(ci.replicates > 0);
        let timings = out.report.stage_timings.unwrap();
        assert_eq!(
            timings.last().unwrap().stage,
            op::CI_BOOTSTRAP,
            "CI stage timing must come last"
        );
    }

    #[test]
    fn prepared_shape_with_partials_is_bit_identical_to_batch() {
        let log = smoke_log();
        let plan = AnalysisPlan::new(fast_config());
        let batch = plan
            .run(PlanInput::log(&log), RunOptions::default())
            .unwrap()
            .report;

        // Sanitize externally: the smoke log is clean, so select + sort
        // is the identity and partials can be folded record by record.
        let selected = Slice::all().successes().select(&log);
        let sanitized = selected.materialize();
        let binner = plan.config().binner().unwrap();
        let mut partials = PlanPartials::empty(&binner);
        for r in &sanitized.to_records() {
            partials.record(r);
        }
        let records_in = sanitized.view().len();
        let meta = PreparedMeta {
            records_in,
            partials: Some(partials),
            ..PreparedMeta::default()
        };
        let prepared = plan
            .run(
                PlanInput::prepared(&sanitized.view(), meta),
                RunOptions::default(),
            )
            .unwrap()
            .report;
        assert_eq!(batch.preference.series(), prepared.preference.series());
        assert_eq!(batch.biased.counts(), prepared.biased.counts());
        assert_eq!(batch.unbiased.counts(), prepared.unbiased.counts());
        assert_eq!(batch.n_actions, prepared.n_actions);
    }
}
