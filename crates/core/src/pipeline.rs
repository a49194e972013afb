//! The stage bodies behind [`AnalysisPlan::run`], the report types, and the
//! per-slice drivers behind each of the paper's evaluation sections.

use rand::rngs::StdRng;
use rand::SeedableRng;

use autosens_exec::ExecReport;
use autosens_obs::{Span, StageTiming};
use autosens_stats::histogram::Histogram;
use autosens_telemetry::log::{LogView, TelemetryLog};
use autosens_telemetry::loss::{estimate_cell_loss_par, LossCounts};
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionType, UserClass};
use autosens_telemetry::time::{DayPeriod, Month};
use autosens_telemetry::users::{latency_quartiles, LatencyQuartiles};

use crate::alpha::{estimate_alpha, partition_by_group, AlphaEstimate, Grouping};
use crate::biased::biased_histogram;
use crate::error::AutoSensError;
use crate::lossmodel::{CellCorrection, LossModel};
use crate::plan::{op, AnalysisPlan, CiSpec, PreparedMeta};
use crate::preference::NormalizedPreference;
use crate::unbiased::{decay_weight, unbiased_histogram_decayed_par, unbiased_histogram_par};

/// The per-quartile analyses of [`AnalysisPlan::by_latency_quartile`]:
/// quartile index (0 = Q1, fastest users) paired with that slice's result.
pub type QuartileAnalyses = Vec<(usize, Result<AnalysisReport, AutoSensError>)>;

/// A recoverable data-quality problem the pipeline worked around instead of
/// aborting. An [`AnalysisReport`] carrying degradations is still a valid
/// result; the warnings tell the operator how much the input was repaired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The pipeline stage that recovered (e.g. `"sanitize"`, `"alpha"`).
    pub stage: String,
    /// What was wrong and what was done about it.
    pub detail: String,
}

impl Degradation {
    /// Sanitize's report that the input arrived out of time order.
    pub fn resorted() -> Degradation {
        Degradation {
            stage: op::SANITIZE.into(),
            detail: "records arrived out of time order; re-sorted".into(),
        }
    }

    /// Sanitize's report that it dropped `removed` exact duplicates.
    pub fn duplicates_removed(removed: u64) -> Degradation {
        Degradation {
            stage: op::SANITIZE.into(),
            detail: format!("removed {removed} exact duplicate records"),
        }
    }
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.stage, self.detail)
    }
}

/// How to decay the windowed preference curve: each record (and each
/// unbiased draw instant) `t` is weighted `0.5^((frontier_ms - t) /
/// half_life_ms)`, so mass one half-life older than the frontier counts
/// half as much and old regimes fade geometrically instead of being
/// averaged in forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecaySpec {
    /// Decay half-life, in event-time milliseconds (> 0).
    pub half_life_ms: i64,
    /// The freshest instant of the window (normally the stream watermark
    /// or the end of the log); weights are 1 at the frontier and clamp to
    /// 1 beyond it.
    pub frontier_ms: i64,
}

/// The exponentially-decayed windowed preference curve, computed alongside
/// the lifetime curve when the caller supplies a [`DecaySpec`]. Where the
/// lifetime curve averages every regime the log ever saw, the windowed
/// curve tracks the *current* one: an incident that shifts latency shows up
/// here within a couple of half-lives and fades out as fast once it clears.
#[derive(Debug, Clone)]
pub struct WindowedCurve {
    /// The decay spec that produced this curve.
    pub spec: DecaySpec,
    /// The decayed-weight biased histogram `B_w`.
    pub biased: Histogram,
    /// The decayed-weight unbiased histogram `U_w`.
    pub unbiased: Histogram,
    /// Total decayed mass in `B_w` — an effective-sample-size proxy; a
    /// stream idle for many half-lives decays toward zero mass.
    pub effective_mass: f64,
    /// The fitted windowed preference. `None` when the decayed mass no
    /// longer supports a fit (too few supported bins) — the lifetime curve
    /// remains the authoritative answer in that case.
    pub preference: Option<NormalizedPreference>,
}

/// What the lossmodel stage estimated and what the uncorrected analysis
/// would have said, carried alongside a corrected [`AnalysisReport`] so
/// corrected and naive curves can be compared side by side.
#[derive(Debug, Clone)]
pub struct LossReport {
    /// Volume-weighted overall estimated telemetry-loss rate.
    pub overall_rate: f64,
    /// The per-cell corrections applied (inverse-observation-probability
    /// weights).
    pub cells: Vec<CellCorrection>,
    /// The naive preference curve (same config, unit weights); `None` when
    /// the uncorrected histograms no longer support a fit.
    pub naive_preference: Option<NormalizedPreference>,
    /// The naive pooled biased histogram.
    pub naive_biased: Histogram,
    /// The naive pooled unbiased histogram.
    pub naive_unbiased: Histogram,
}

/// A completed analysis of one slice.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// The fitted normalized latency preference.
    pub preference: NormalizedPreference,
    /// The α estimate (present when the correction was enabled).
    pub alpha: Option<AlphaEstimate>,
    /// Number of (successful) actions analyzed.
    pub n_actions: u64,
    /// The pooled biased histogram that produced the curve (α-normalized
    /// when the correction is enabled).
    pub biased: Histogram,
    /// The pooled unbiased histogram.
    pub unbiased: Histogram,
    /// When the loss-aware correction actually changed the estimate
    /// (`loss_correct` on and at least one cell flagged): the applied
    /// corrections plus the naive curves for comparison. `None` when the
    /// correction is off or was a no-op — in which case the report is
    /// bit-identical to a `loss_correct: false` run.
    pub loss: Option<LossReport>,
    /// The windowed decayed curve (present only when the caller asked for
    /// one via [`PreparedMeta::decay`]; never part of the batch output).
    pub windowed: Option<WindowedCurve>,
    /// Data-quality problems survived along the way (empty on clean input).
    pub degradations: Vec<Degradation>,
    /// Wall-clock time per pipeline stage (see [`op::STAGES`]), in execution
    /// order. Every report [`AnalysisPlan::run`] returns carries `Some`.
    pub stage_timings: Option<Vec<StageTiming>>,
}

impl AnalysisPlan {
    /// Feed one data-parallel job's scheduling report into the obs layer:
    /// a chunk counter plus one child span per worker (timing carried in
    /// the `wall_ms` field — the work already happened).
    fn record_exec(&self, parent: &Span, exec: &ExecReport) {
        self.recorder
            .metrics()
            .counter("autosens_exec_chunks_total")
            .add(exec.n_chunks as u64);
        for w in &exec.workers {
            let mut span = parent.child("exec_worker");
            span.field("job", exec.label.clone());
            span.field("worker", w.worker);
            span.field("chunks", w.chunks);
            span.field("wall_ms", w.wall_ms);
            span.finish();
        }
    }

    /// The batch pipeline over a borrowed view — the zero-copy ingest
    /// path. A memory-mapped container's columns flow from disk to the
    /// analysis kernels through this without materializing a row; the
    /// log/slice input shapes are exactly this over `log.view()`, so all
    /// shapes produce bit-identical reports for the same rows.
    pub(crate) fn run_view(
        &self,
        view: &LogView<'_>,
        slice: &Slice,
    ) -> Result<AnalysisReport, AutoSensError> {
        // Validate the configuration before doing any work.
        self.config.binner()?;
        let mut degradations = Vec::new();
        let mut timings: Vec<StageTiming> = Vec::new();
        let root = self.recorder.root("analyze");

        // Sanitize: real telemetry arrives out of order (shard merges, clock
        // skew) and duplicated (re-delivered upload batches). Repair what is
        // repairable and record the repair instead of failing. Slicing
        // re-sorts as a side effect, so the order check looks at the input.
        let mut span = root.child(op::SANITIZE);
        if !view.is_sorted() {
            degradations.push(Degradation::resorted());
        }
        let (selected, filter_report) = slice
            .clone()
            .successes()
            .select_par(view, self.config.threads)?;
        self.record_exec(&span, &filter_report);
        let records_in = selected.len();
        // A selection over a sorted log is already in time order, so the
        // whole sanitize stage runs over the borrowed view without copying
        // a single row. Degraded (out-of-order) input falls back to one
        // materialized, sorted copy, deduplicated through its view.
        let owned;
        let (sub, removed, copied) = if selected.is_sorted() {
            let (clean, removed) = selected.dedup_exact_par(self.config.threads);
            (clean, removed, 0)
        } else {
            owned = selected.materialize();
            let (clean, removed) = owned.view().dedup_exact_par(self.config.threads);
            (clean, removed, records_in)
        };
        if removed > 0 {
            degradations.push(Degradation::duplicates_removed(removed as u64));
        }
        span.field("records_in", records_in);
        span.field("records_dropped", removed);
        timings.push(StageTiming {
            stage: op::SANITIZE.into(),
            wall_ms: span.finish(),
        });
        let meta = PreparedMeta {
            degradations,
            records_in,
            records_dropped: removed,
            ..PreparedMeta::default()
        };
        self.finish_analysis(&sub, meta, copied, root, timings)
    }

    /// The prepared-input path (see
    /// [`PlanInput::Prepared`](crate::plan::PlanInput::Prepared)): a
    /// bookkeeping sanitize span, then everything downstream.
    ///
    /// This is the incremental entry: the streaming engine passes the view
    /// it borrows from its row store plus its sanitize bookkeeping, and
    /// obtains an [`AnalysisReport`] bit-identical to what the batch path
    /// would produce over the same records — every stage after sanitize
    /// runs over the same sanitized record sequence, from the same
    /// `StdRng::seed_from_u64(config.seed)`. The run still traces one span
    /// per documented stage (the `"sanitize"` span carries the caller's
    /// counts; its wall time reflects only bookkeeping).
    pub(crate) fn run_prepared(
        &self,
        view: &LogView<'_>,
        meta: PreparedMeta,
    ) -> Result<AnalysisReport, AutoSensError> {
        view.require_sorted()?;
        let root = self.recorder.root("analyze");
        let mut span = root.child(op::SANITIZE);
        span.field("records_in", meta.records_in);
        span.field("records_dropped", meta.records_dropped);
        let timings = vec![StageTiming {
            stage: op::SANITIZE.into(),
            wall_ms: span.finish(),
        }];
        self.finish_analysis(view, meta, 0, root, timings)
    }

    /// Everything downstream of sanitize: grouping, α estimation, the
    /// biased/unbiased PDFs, smoothing and normalization, metrics, and
    /// report assembly. Shared verbatim by the batch and prepared paths —
    /// this is what makes streaming snapshots bit-identical to batch
    /// analyses. `meta` carries sanitize's bookkeeping (the batch path
    /// fills it without decay); `copied` counts rows sanitize
    /// materialized to repair out-of-order input.
    fn finish_analysis(
        &self,
        sub: &LogView<'_>,
        meta: PreparedMeta,
        copied: usize,
        mut root: Span,
        mut timings: Vec<StageTiming>,
    ) -> Result<AnalysisReport, AutoSensError> {
        let PreparedMeta {
            mut degradations,
            records_in,
            records_dropped,
            decay,
        } = meta;
        let binner = self.config.binner()?;
        if sub.is_empty() {
            return Err(AutoSensError::EmptySlice(
                "slice selected no successful actions".into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // Loss model: estimate per-cell telemetry loss from in-band
        // evidence (duplicate/sequence-gap + volume-shortfall signals on
        // the sanitized view). The stage always runs — the loss-rate
        // gauges report even when the correction is disabled — but it
        // consumes no randomness, so an inactive correction leaves every
        // downstream bit unchanged.
        let mut span = root.child(op::LOSSMODEL);
        let counts = LossCounts::from_view_par(sub, self.config.threads);
        let evidence = estimate_cell_loss_par(sub, &counts, self.config.threads);
        let model = LossModel::from_evidence(&evidence);
        let correct = self.config.loss_correct && !model.is_noop();
        span.field("cells_flagged", model.cells.len());
        span.field("active", usize::from(correct));
        {
            let metrics = self.recorder.metrics();
            metrics.gauge("autosens_loss_rate").set(model.overall_rate);
            for c in &model.cells {
                metrics
                    .gauge(&format!("autosens_loss_rate_{}", c.label))
                    .set(c.rate);
            }
        }
        timings.push(StageTiming {
            stage: op::LOSSMODEL.into(),
            wall_ms: span.finish(),
        });

        let grouping = if self.config.weekday_weekend_slots {
            Grouping::HourSlotsByDayKind
        } else {
            Grouping::HourSlots
        };
        let (biased, unbiased, alpha, naive) = if self.config.alpha_correction {
            let mut span = root.child(op::ALPHA);
            span.field("groups", grouping.n_groups());
            // With an active correction the α system is solved twice from
            // one set of inputs (one RNG-bearing draw stage): once naive,
            // once with the loss weights applied to the biased masses.
            let (est, pools) = estimate_alpha(
                sub,
                &binner,
                grouping,
                &self.config,
                &mut rng,
                correct.then_some(&model),
            )?;
            for r in &pools.exec_reports {
                self.record_exec(&span, r);
            }
            // Groups with data but no usable α are dropped from the pooled
            // histograms; surface each exclusion as a degradation so the
            // operator knows which time windows the curve no longer covers.
            for g in &est.groups {
                if g.n_actions > 0 && g.alpha.is_none() {
                    degradations.push(Degradation {
                        stage: op::ALPHA.into(),
                        detail: format!(
                            "group {} ({} actions) excluded: no usable alpha",
                            g.label, g.n_actions
                        ),
                    });
                }
            }
            timings.push(StageTiming {
                stage: op::ALPHA.into(),
                wall_ms: span.finish(),
            });
            // Pool the per-group histograms into one B and one U; the report
            // keeps only the estimate, and the pools are dropped here.
            let span = root.child(op::BIASED_PDF);
            let b = pools.normalized_biased(&est, &binner)?;
            timings.push(StageTiming {
                stage: op::BIASED_PDF.into(),
                wall_ms: span.finish(),
            });
            let span = root.child(op::UNBIASED_PDF);
            let u = pools.pooled_unbiased(&est, &binner)?;
            timings.push(StageTiming {
                stage: op::UNBIASED_PDF.into(),
                wall_ms: span.finish(),
            });
            (b, u, Some(est), pools.naive)
        } else {
            let span = root.child(op::BIASED_PDF);
            let naive_b = biased_histogram(sub, &binner);
            let b = if correct {
                // Reweight without α: the pooled biased histogram is the
                // per-record weighted sum (cell × day factor). The weights
                // depend on each record's calendar day, so a precomputed
                // unit-weight partition cannot be reused here — the
                // weighted rescan is the only loss-correct path over the
                // view.
                let (wpart, report) =
                    partition_by_group(sub, &binner, Some(&model), self.config.threads)?;
                self.record_exec(&span, &report);
                if wpart.n_records() != sub.len() as u64 {
                    return Err(AutoSensError::Internal(format!(
                        "group partition covers {} actions, log has {}",
                        wpart.n_records(),
                        sub.len()
                    )));
                }
                wpart.pooled_biased()?
            } else {
                naive_b.clone()
            };
            timings.push(StageTiming {
                stage: op::BIASED_PDF.into(),
                wall_ms: span.finish(),
            });
            let mut span = root.child(op::UNBIASED_PDF);
            span.field("draws", self.config.unbiased_draws);
            let (u, draw_report) = unbiased_histogram_par(
                sub,
                &binner,
                self.config.unbiased_draws,
                self.config.threads,
                &mut rng,
            )?;
            self.record_exec(&span, &draw_report);
            timings.push(StageTiming {
                stage: op::UNBIASED_PDF.into(),
                wall_ms: span.finish(),
            });
            let naive = correct.then(|| (naive_b, u.clone()));
            (b, u, None, naive)
        };

        let preference = NormalizedPreference::fit_traced(
            &biased,
            &unbiased,
            &self.config,
            &root,
            &mut timings,
        )?;

        // The naive side-channel curve re-fits with the same config but no
        // tracing (the smoothing/normalization stage spans describe the
        // corrected curve, which is the report's primary output).
        let loss = naive.map(|(naive_biased, naive_unbiased)| LossReport {
            overall_rate: model.overall_rate,
            cells: model.cells.clone(),
            naive_preference: NormalizedPreference::fit(
                &naive_biased,
                &naive_unbiased,
                &self.config,
            )
            .ok(),
            naive_biased,
            naive_unbiased,
        });

        // Windowed decayed curve: an incident-tracking view of the same
        // records, computed last on its own RNG stream so that — present or
        // absent — every lifetime stage above keeps its exact byte output.
        let windowed = decay
            .map(|spec| self.windowed_curve(sub, spec, &root, &mut timings))
            .transpose()?;

        let metrics = self.recorder.metrics();
        metrics.counter("autosens_core_analyses_total").inc();
        metrics
            .counter("autosens_core_records_read_total")
            .add(records_in as u64);
        metrics
            .counter("autosens_core_records_dropped_total")
            .add(records_dropped as u64);
        metrics
            .counter("autosens_core_degradations_total")
            .add(degradations.len() as u64);
        // Zero-copy accounting: rows analyzed through borrowed views vs
        // rows physically copied to repair degraded input. Both register
        // (even at zero) so batch and streaming runs expose the same set.
        metrics
            .counter("autosens_core_view_rows_total")
            .add(sub.len() as u64);
        metrics
            .counter("autosens_core_rows_copied_total")
            .add(copied as u64);
        for d in &degradations {
            metrics
                .counter(&format!("autosens_core_degradations_{}_total", d.stage))
                .inc();
        }
        root.field("n_actions", sub.len());
        root.field("degradations", degradations.len());

        Ok(AnalysisReport {
            preference,
            alpha,
            n_actions: sub.len() as u64,
            biased,
            unbiased,
            loss,
            windowed,
            degradations,
            stage_timings: Some(timings),
        })
    }

    /// Compute the exponentially-decayed windowed curve (see
    /// [`WindowedCurve`]): a decayed-weight sweep for `B_w`, the decayed
    /// draw estimator for `U_w`, and a fit with the same smoothing /
    /// normalization config as the lifetime curve but no α correction —
    /// the decayed horizon covers too few occurrences of each hour slot
    /// for stable per-slot activity factors.
    fn windowed_curve(
        &self,
        sub: &LogView<'_>,
        spec: DecaySpec,
        root: &Span,
        timings: &mut Vec<StageTiming>,
    ) -> Result<WindowedCurve, AutoSensError> {
        if spec.half_life_ms <= 0 {
            return Err(AutoSensError::BadConfig(
                "decay half-life must be > 0 ms".into(),
            ));
        }
        let binner = self.config.binner()?;
        let mut span = root.child(op::WINDOWED_CURVE);
        span.field("half_life_ms", spec.half_life_ms as u64);
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xDECA);
        let mut biased = Histogram::new(binner.clone());
        for i in 0..sub.len() {
            biased.record_weighted(
                sub.latency_at(i),
                decay_weight(sub.time_at(i), spec.frontier_ms, spec.half_life_ms),
            );
        }
        let (unbiased, draw_report) = unbiased_histogram_decayed_par(
            sub,
            &binner,
            spec.half_life_ms,
            spec.frontier_ms,
            self.config.unbiased_draws,
            self.config.threads,
            &mut rng,
        )?;
        self.record_exec(&span, &draw_report);
        let effective_mass = biased.total();
        let preference = NormalizedPreference::fit(&biased, &unbiased, &self.config).ok();
        span.field("effective_mass", effective_mass);
        span.field("fit", u64::from(preference.is_some()));
        timings.push(StageTiming {
            stage: op::WINDOWED_CURVE.into(),
            wall_ms: span.finish(),
        });
        Ok(WindowedCurve {
            spec,
            biased,
            unbiased,
            effective_mass,
            preference,
        })
    }

    /// §3.2 (Figure 4): one analysis per action type, on a base slice.
    ///
    /// Slices are analyzed in parallel; per-slice failures are returned
    /// alongside the successes so a sparse slice does not sink the batch.
    pub fn by_action_type(
        &self,
        log: &TelemetryLog,
        base: &Slice,
    ) -> Vec<(ActionType, Result<AnalysisReport, AutoSensError>)> {
        let slices: Vec<(ActionType, Slice)> = ActionType::analyzed()
            .into_iter()
            .map(|a| (a, base.clone().action(a)))
            .collect();
        self.parallel_analyses(log, slices)
    }

    /// §3.3 (Figure 5): one analysis per user class.
    pub fn by_user_class(
        &self,
        log: &TelemetryLog,
        base: &Slice,
    ) -> Vec<(UserClass, Result<AnalysisReport, AutoSensError>)> {
        let slices: Vec<(UserClass, Slice)> = UserClass::all()
            .into_iter()
            .map(|c| (c, base.clone().class(c)))
            .collect();
        self.parallel_analyses(log, slices)
    }

    /// §3.4 (Figure 6): quartile users by per-user median latency over the
    /// base slice, then analyze each quartile. Returns the quartile
    /// assignment alongside the four analyses (Q1 = fastest first).
    pub fn by_latency_quartile(
        &self,
        log: &TelemetryLog,
        base: &Slice,
        min_actions_per_user: usize,
    ) -> Result<(LatencyQuartiles, QuartileAnalyses), AutoSensError> {
        let quartiles = sorted_successes(log, base, |sub| {
            latency_quartiles(sub, min_actions_per_user)
        })
        .ok_or_else(|| AutoSensError::EmptySlice("too few eligible users for quartiles".into()))?;
        let slices: Vec<(usize, Slice)> = (0..4)
            .map(|q| (q, base.clone().users(quartiles.groups[q].clone())))
            .collect();
        let results = self.parallel_analyses(log, slices);
        Ok((quartiles, results))
    }

    /// §3.6 (Figure 7): one analysis per 6-hour day period.
    pub fn by_day_period(
        &self,
        log: &TelemetryLog,
        base: &Slice,
    ) -> Vec<(DayPeriod, Result<AnalysisReport, AutoSensError>)> {
        let slices: Vec<(DayPeriod, Slice)> = DayPeriod::all()
            .into_iter()
            .map(|p| (p, base.clone().period(p)))
            .collect();
        self.parallel_analyses(log, slices)
    }

    /// §3.7 (Figure 9): one analysis per calendar month.
    pub fn by_month(
        &self,
        log: &TelemetryLog,
        base: &Slice,
        months: &[Month],
    ) -> Vec<(Month, Result<AnalysisReport, AutoSensError>)> {
        let slices: Vec<(Month, Slice)> =
            months.iter().map(|&m| (m, base.clone().month(m))).collect();
        self.parallel_analyses(log, slices)
    }

    /// The optional `ci_bootstrap` stage: fit a bootstrap confidence band
    /// (see [`crate::ci`]) over a completed report's pooled histograms and
    /// append its stage timing. Runs on its own RNG stream
    /// (`seed ^ 0xC1`), so mapped and owned inputs produce bit-identical
    /// bands.
    pub(crate) fn run_ci(
        &self,
        report: &mut AnalysisReport,
        spec: CiSpec,
    ) -> Result<crate::ci::PreferenceCi, AutoSensError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xC1);
        let mut span = self.recorder.root(op::CI_BOOTSTRAP);
        span.field("replicates_requested", spec.replicates);
        let (ci, exec_report) = crate::ci::preference_ci_traced(
            &report.biased,
            &report.unbiased,
            &self.config,
            spec.replicates,
            spec.level,
            &mut rng,
        )?;
        self.record_exec(&span, &exec_report);
        span.field("replicates_ok", ci.replicates);
        self.recorder
            .metrics()
            .counter("autosens_core_bootstrap_replicates_total")
            .add(ci.replicates as u64);
        let wall_ms = span.finish();
        if let Some(timings) = report.stage_timings.as_mut() {
            timings.push(StageTiming {
                stage: op::CI_BOOTSTRAP.into(),
                wall_ms,
            });
        }
        Ok(ci)
    }

    /// Build the complete serializable analysis bundle for a slice: the
    /// preference curve, per-period activity factors, the natural-
    /// experiment precondition diagnostics, and the bottleneck comparison.
    pub fn full_report(
        &self,
        log: &TelemetryLog,
        slice: &Slice,
        label: impl Into<String>,
    ) -> Result<crate::report::FullReport, AutoSensError> {
        use crate::report::{AlphaRow, FullReport, PreferenceSummary};
        let label = label.into();
        let analysis = self.run_view(&log.view(), slice)?;
        let alpha_est = self.alpha_by_period(log, slice)?;
        let (locality, density, decorrelation) = sorted_successes(log, slice, |sub| {
            let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xF0);
            Ok::<_, AutoSensError>((
                crate::locality::locality_report(sub, &mut rng)?,
                crate::locality::density_latency_correlation(sub, 60_000)?,
                crate::locality::decorrelation_report(sub, 60_000, 24 * 60).ok(),
            ))
        })?;
        let bottleneck = crate::bottleneck::bottleneck_report(&analysis.preference, 500.0);
        Ok(FullReport {
            label: label.clone(),
            n_actions: analysis.n_actions,
            preference: PreferenceSummary::from_report(
                label,
                &analysis,
                &crate::report::default_grid(),
            ),
            alpha_by_period: alpha_est
                .groups
                .iter()
                .map(|g| AlphaRow {
                    label: g.label.clone(),
                    alpha: g.alpha,
                    n_actions: g.n_actions,
                })
                .collect(),
            locality,
            density,
            decorrelation,
            bottleneck,
        })
    }

    /// §3.6 (Figure 8): the activity factor per day period, with its
    /// per-latency-bin series, using the paper's 8am–2pm reference.
    pub fn alpha_by_period(
        &self,
        log: &TelemetryLog,
        base: &Slice,
    ) -> Result<AlphaEstimate, AutoSensError> {
        let binner = self.config.binner()?;
        // Force the morning period as primary reference by reordering:
        // estimate normally, then rescale every alpha by the morning value.
        let mut est = sorted_successes(log, base, |sub| {
            if sub.is_empty() {
                return Err(AutoSensError::EmptySlice("alpha_by_period".into()));
            }
            let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xA1FA);
            estimate_alpha(
                sub,
                &binner,
                Grouping::DayPeriods,
                &self.config,
                &mut rng,
                None,
            )
            .map(|(est, _)| est)
        })?;
        let morning = 0usize; // group 0 = Morning8to14 by Grouping order
        if let Some(m_alpha) = est.groups[morning].alpha {
            for g in &mut est.groups {
                if let Some(a) = g.alpha.as_mut() {
                    *a /= m_alpha;
                }
            }
            // Rescale the per-bin series to the same convention. The series
            // is relative to the primary (largest) group; dividing by the
            // morning mean re-expresses it against the morning period.
            for g in &mut est.groups {
                for (_, a) in &mut g.per_bin {
                    *a /= m_alpha;
                }
            }
        }
        Ok(est)
    }

    /// Run labeled slice analyses through the chunk scheduler, one slice
    /// per chunk. Results come back in input order regardless of the
    /// worker count, and a slice whose analysis panics yields a per-slice
    /// [`AutoSensError::Internal`] instead of sinking the whole batch.
    fn parallel_analyses<K: Send + Sync + Copy>(
        &self,
        log: &TelemetryLog,
        slices: Vec<(K, Slice)>,
    ) -> Vec<(K, Result<AnalysisReport, AutoSensError>)> {
        let (out, report) = autosens_exec::run_chunks(
            "parallel_analyses",
            slices.len(),
            1,
            self.config.threads,
            |chunk, _| {
                let (key, slice) = &slices[chunk];
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.run_view(&log.view(), slice)
                }))
                .unwrap_or_else(|payload| {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "unknown panic".into());
                    Err(AutoSensError::Internal(format!(
                        "analysis worker panicked: {msg}"
                    )))
                });
                (*key, result)
            },
        )
        // Invariant: the per-chunk closure catches its own unwinds, so the
        // job itself cannot fail.
        .expect("slice analyses catch their own panics");
        self.recorder
            .metrics()
            .counter("autosens_exec_chunks_total")
            .add(report.n_chunks as u64);
        out
    }
}

/// Run `f` over the successes of `slice` in `log`, in time order: the
/// zero-copy selection when the log is sorted, otherwise one materialized,
/// re-sorted copy of it.
fn sorted_successes<R>(log: &TelemetryLog, slice: &Slice, f: impl FnOnce(&LogView<'_>) -> R) -> R {
    let selected = slice.clone().successes().select(&log.view());
    if selected.is_sorted() {
        f(&selected)
    } else {
        f(&selected.materialize().view())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AutoSensConfig;
    use crate::plan::{PlanInput, RunOptions};
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

    fn run(plan: &AnalysisPlan, log: &TelemetryLog) -> Result<AnalysisReport, AutoSensError> {
        plan.run(PlanInput::log(log), RunOptions::default())
            .map(|o| o.report)
    }

    fn run_prepared(
        plan: &AnalysisPlan,
        log: &TelemetryLog,
        meta: PreparedMeta,
    ) -> Result<AnalysisReport, AutoSensError> {
        plan.run(
            PlanInput::prepared(&log.view(), meta),
            RunOptions::default(),
        )
        .map(|o| o.report)
    }

    #[test]
    fn analyze_produces_a_normalized_curve() {
        let log = smoke_log();
        let engine = AnalysisPlan::new(fast_config());
        let report = run(&engine, &log).unwrap();
        assert!(report.n_actions > 1000);
        let pref = &report.preference;
        assert!((pref.at(300.0).unwrap() - 1.0).abs() < 1e-9);
        // The planted preference decreases with latency.
        let hi = pref.at(1200.0);
        if let Some(hi) = hi {
            assert!(hi < 1.0, "pref(1200) = {hi}");
        }
        assert!(report.alpha.is_some());
    }

    #[test]
    fn analyze_is_deterministic() {
        let log = smoke_log();
        let engine = AnalysisPlan::new(fast_config());
        let a = run(&engine, &log).unwrap();
        let b = run(&engine, &log).unwrap();
        assert_eq!(a.preference.series(), b.preference.series());
    }

    #[test]
    fn empty_slice_is_an_error() {
        let log = TelemetryLog::new();
        let engine = AnalysisPlan::new(fast_config());
        assert!(matches!(
            run(&engine, &log),
            Err(AutoSensError::EmptySlice(_))
        ));
    }

    #[test]
    fn alpha_correction_can_be_disabled() {
        let log = smoke_log();
        let mut cfg = fast_config();
        cfg.alpha_correction = false;
        let engine = AnalysisPlan::new(cfg);
        let report = run(&engine, &log).unwrap();
        assert!(report.alpha.is_none());
        assert!(report.preference.at(300.0).is_some());
    }

    #[test]
    fn by_action_type_returns_all_four() {
        let log = smoke_log();
        let engine = AnalysisPlan::new(fast_config());
        let results = engine.by_action_type(&log, &Slice::all());
        assert_eq!(results.len(), 4);
        let ok = results.iter().filter(|(_, r)| r.is_ok()).count();
        assert!(ok >= 3, "expected most action slices to fit, got {ok}");
    }

    #[test]
    fn by_user_class_returns_both() {
        let log = smoke_log();
        let engine = AnalysisPlan::new(fast_config());
        let results = engine.by_user_class(&log, &Slice::all());
        assert_eq!(results.len(), 2);
        for (_, r) in &results {
            assert!(r.is_ok());
        }
    }

    #[test]
    fn by_quartile_partitions_users() {
        let log = smoke_log();
        let engine = AnalysisPlan::new(fast_config());
        let (quartiles, results) = engine.by_latency_quartile(&log, &Slice::all(), 10).unwrap();
        assert_eq!(results.len(), 4);
        let total: usize = quartiles.groups.iter().map(|g| g.len()).sum();
        assert!(total > 100, "users partitioned: {total}");
    }

    #[test]
    fn batch_analyses_return_slices_in_input_order() {
        // The scheduler reassembles per-slice results by chunk index, so
        // batch outputs follow the input slice order for any worker count.
        let log = smoke_log();
        for threads in [1, 4] {
            let cfg = AutoSensConfig {
                threads,
                ..fast_config()
            };
            let engine = AnalysisPlan::new(cfg);
            let actions: Vec<ActionType> = engine
                .by_action_type(&log, &Slice::all())
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            assert_eq!(actions, ActionType::analyzed(), "threads={threads}");
            let periods: Vec<DayPeriod> = engine
                .by_day_period(&log, &Slice::all())
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            assert_eq!(periods, DayPeriod::all().to_vec(), "threads={threads}");
        }
    }

    #[test]
    fn clean_input_reports_no_degradations() {
        let log = smoke_log();
        let engine = AnalysisPlan::new(fast_config());
        let report = run(&engine, &log).unwrap();
        assert!(
            report.degradations.is_empty(),
            "unexpected: {:?}",
            report.degradations
        );
    }

    #[test]
    fn corrupted_input_completes_with_degradations() {
        use autosens_faults::{FaultOp, FaultPlan};
        let log = smoke_log();
        let plan = FaultPlan {
            seed: 0xBAD,
            ops: vec![
                FaultOp::DropBursty {
                    rate: 0.3,
                    mean_burst: 25,
                },
                FaultOp::Duplicate { rate: 0.05 },
                FaultOp::Reorder {
                    rate: 0.05,
                    max_shift_ms: 60_000,
                },
            ],
        };
        let corrupted = plan.apply(&log).unwrap();
        assert!(!corrupted.is_sorted());
        let engine = AnalysisPlan::new(fast_config());
        let report = run(&engine, &corrupted).unwrap();
        // The analysis completes with a curve and structured warnings.
        assert!((report.preference.at(300.0).unwrap() - 1.0).abs() < 1e-9);
        let stages: Vec<&str> = report
            .degradations
            .iter()
            .map(|d| d.stage.as_str())
            .collect();
        assert!(stages.contains(&"sanitize"), "stages: {stages:?}");
        let text = report.degradations[0].to_string();
        assert!(text.starts_with("[sanitize]"), "{text}");
        // Re-sorting and dedup were both reported.
        assert!(report
            .degradations
            .iter()
            .any(|d| d.detail.contains("re-sorted")));
        assert!(report
            .degradations
            .iter()
            .any(|d| d.detail.contains("duplicate")));
    }

    #[test]
    fn analyze_produces_one_span_per_documented_stage() {
        let log = smoke_log();
        let recorder = autosens_obs::Recorder::new();
        let engine = AnalysisPlan::with_recorder(fast_config(), recorder.clone());
        let report = run(&engine, &log).unwrap();
        let tree = recorder.finish();
        assert_eq!(tree.count_named("analyze"), 1, "{}", tree.render());
        for stage in op::STAGES {
            assert_eq!(
                tree.count_named(stage),
                1,
                "stage {stage} missing or duplicated:\n{}",
                tree.render()
            );
        }
        // Stage timings mirror the span tree (same stages, same order).
        let timings = report.stage_timings.as_ref().unwrap();
        let stages: Vec<&str> = timings.iter().map(|t| t.stage.as_str()).collect();
        assert_eq!(stages, op::STAGES.to_vec());
        assert!(timings.iter().all(|t| t.wall_ms >= 0.0));
        // Every stage span nests under the analyze root.
        let root_id = tree
            .spans()
            .iter()
            .find(|s| s.name == "analyze")
            .unwrap()
            .id;
        for stage in ["sanitize", "alpha", "biased_pdf", "unbiased_pdf"] {
            let span = tree.spans().iter().find(|s| s.name == stage).unwrap();
            assert_eq!(span.parent, Some(root_id), "{stage} not under analyze");
        }
    }

    #[test]
    fn ci_analysis_adds_the_bootstrap_stage() {
        let log = smoke_log();
        let recorder = autosens_obs::Recorder::new();
        let engine = AnalysisPlan::with_recorder(fast_config(), recorder.clone());
        let out = engine
            .run(PlanInput::log(&log), RunOptions::with_ci(25, 0.95))
            .unwrap();
        let (report, ci) = (out.report, out.ci.unwrap());
        let timings = report.stage_timings.unwrap();
        assert_eq!(timings.last().unwrap().stage, op::CI_BOOTSTRAP);
        assert_eq!(recorder.finish().count_named(op::CI_BOOTSTRAP), 1);
        assert_eq!(
            recorder
                .metrics()
                .snapshot()
                .counter("autosens_core_bootstrap_replicates_total"),
            Some(ci.replicates as u64)
        );
    }

    #[test]
    fn degradation_counters_match_the_report() {
        use autosens_faults::{FaultOp, FaultPlan};
        let log = smoke_log();
        let plan = FaultPlan {
            seed: 0xBAD2,
            ops: vec![
                FaultOp::Duplicate { rate: 0.05 },
                FaultOp::Reorder {
                    rate: 0.05,
                    max_shift_ms: 60_000,
                },
            ],
        };
        let corrupted = plan.apply(&log).unwrap();
        let recorder = autosens_obs::Recorder::new();
        let engine = AnalysisPlan::with_recorder(fast_config(), recorder.clone());
        let report = run(&engine, &corrupted).unwrap();
        assert!(!report.degradations.is_empty());
        let snap = recorder.metrics().snapshot();
        assert_eq!(
            snap.counter("autosens_core_degradations_total"),
            Some(report.degradations.len() as u64)
        );
        // Per-kind counters partition the total exactly.
        for stage in ["sanitize", "alpha"] {
            let want = report
                .degradations
                .iter()
                .filter(|d| d.stage == stage)
                .count() as u64;
            let got = snap
                .counter(&format!("autosens_core_degradations_{stage}_total"))
                .unwrap_or(0);
            assert_eq!(got, want, "stage {stage}");
        }
        assert_eq!(
            snap.counter("autosens_core_records_dropped_total")
                .unwrap_or(0)
                > 0,
            report
                .degradations
                .iter()
                .any(|d| d.detail.contains("duplicate"))
        );
    }

    #[test]
    fn loss_correction_is_a_noop_on_clean_input() {
        let log = smoke_log();
        let on = run(&AnalysisPlan::new(fast_config()), &log).unwrap();
        assert!(
            on.loss.is_none(),
            "clean input flagged cells: {:?}",
            on.loss.map(|l| l.cells)
        );
        let mut cfg = fast_config();
        cfg.loss_correct = false;
        let off = run(&AnalysisPlan::new(cfg), &log).unwrap();
        // Bit-identical curves and histograms: the inactive correction
        // changes nothing downstream.
        assert_eq!(on.preference.series(), off.preference.series());
        assert_eq!(on.biased.counts(), off.biased.counts());
        assert_eq!(on.unbiased.counts(), off.unbiased.counts());
    }

    #[test]
    fn loss_correction_carries_naive_curves_on_lossy_input() {
        use autosens_faults::{FaultOp, FaultPlan};
        let log = smoke_log();
        let plan = FaultPlan {
            seed: 0x10_55,
            ops: vec![FaultOp::DropBursty {
                rate: 0.3,
                mean_burst: 40,
            }],
        };
        let corrupted = plan.apply(&log).unwrap();
        let report = run(&AnalysisPlan::new(fast_config()), &corrupted).unwrap();
        let loss = report.loss.as_ref().expect("bursty loss goes undetected");
        assert!(loss.overall_rate > 0.0);
        assert!(!loss.cells.is_empty());
        assert!(loss.cells.iter().all(|c| c.weight > 1.0));
        // The naive side channel differs from the corrected primary.
        assert_ne!(report.biased.counts(), loss.naive_biased.counts());
        let naive = loss.naive_preference.as_ref().unwrap();
        assert!((naive.at(300.0).unwrap() - 1.0).abs() < 1e-9);

        // An explicit off-run reproduces the naive curve bit for bit.
        let mut cfg = fast_config();
        cfg.loss_correct = false;
        let off = run(&AnalysisPlan::new(cfg), &corrupted).unwrap();
        assert!(off.loss.is_none());
        assert_eq!(off.biased.counts(), loss.naive_biased.counts());
        assert_eq!(
            off.preference.series(),
            loss.naive_preference.as_ref().unwrap().series()
        );
    }

    #[test]
    fn loss_correction_is_thread_invariant() {
        use autosens_faults::{FaultOp, FaultPlan};
        let log = smoke_log();
        let plan = FaultPlan {
            seed: 0x10_55,
            ops: vec![FaultOp::DropBursty {
                rate: 0.3,
                mean_burst: 40,
            }],
        };
        let corrupted = plan.apply(&log).unwrap();
        let baseline = run(
            &AnalysisPlan::new(AutoSensConfig {
                threads: 1,
                ..fast_config()
            }),
            &corrupted,
        )
        .unwrap();
        assert!(baseline.loss.is_some());
        for threads in [2, 4, 8] {
            let report = run(
                &AnalysisPlan::new(AutoSensConfig {
                    threads,
                    ..fast_config()
                }),
                &corrupted,
            )
            .unwrap();
            assert_eq!(
                baseline.preference.series(),
                report.preference.series(),
                "threads={threads}"
            );
            assert_eq!(
                baseline.biased.counts(),
                report.biased.counts(),
                "threads={threads}"
            );
            let (a, b) = (
                baseline.loss.as_ref().unwrap(),
                report.loss.as_ref().unwrap(),
            );
            assert_eq!(a.naive_biased.counts(), b.naive_biased.counts());
            assert_eq!(
                a.naive_preference.as_ref().unwrap().series(),
                b.naive_preference.as_ref().unwrap().series(),
                "threads={threads}"
            );
        }
    }

    /// A sanitized log plus [`PreparedMeta`] equivalent to what batch
    /// sanitize would produce for the whole log, optionally requesting
    /// the windowed decayed curve.
    fn prepared_from(log: &TelemetryLog, decay: Option<DecaySpec>) -> (TelemetryLog, PreparedMeta) {
        let (selected, _) = Slice::all().successes().select_par(&log.view(), 1).unwrap();
        let records_in = selected.len();
        let (clean, removed) = selected.dedup_exact_par(1);
        (
            clean.materialize(),
            PreparedMeta {
                records_in,
                records_dropped: removed,
                decay,
                ..PreparedMeta::default()
            },
        )
    }

    #[test]
    fn prepared_decay_adds_windowed_curve_and_leaves_lifetime_untouched() {
        let log = smoke_log();
        let engine = AnalysisPlan::new(fast_config());
        let (clean, meta) = prepared_from(&log, None);
        let base = run_prepared(&engine, &clean, meta).unwrap();
        assert!(base.windowed.is_none());

        let frontier = clean.view().time_at(clean.view().len() - 1);
        let spec = DecaySpec {
            half_life_ms: 2 * 86_400_000,
            frontier_ms: frontier,
        };
        let (clean, meta) = prepared_from(&log, Some(spec));
        let with = run_prepared(&engine, &clean, meta).unwrap();
        let w = with.windowed.as_ref().expect("windowed curve requested");
        assert_eq!(w.spec, spec);
        assert!(w.effective_mass > 0.0);
        assert!(w.preference.is_some(), "decayed mass should support a fit");

        // The lifetime output is bit-identical whether or not the windowed
        // stage ran: it consumes its own RNG stream after every lifetime
        // stage finished.
        assert_eq!(base.preference.series(), with.preference.series());
        assert_eq!(base.biased.counts(), with.biased.counts());
        assert_eq!(base.unbiased.counts(), with.unbiased.counts());
        assert_eq!(base.n_actions, with.n_actions);

        // The extra stage shows up in the timings only when requested, so
        // batch runs keep exactly the documented stage list.
        let stages = |r: &AnalysisReport| -> Vec<String> {
            r.stage_timings
                .as_ref()
                .unwrap()
                .iter()
                .map(|t| t.stage.clone())
                .collect()
        };
        assert!(!stages(&base).contains(&"windowed_curve".to_string()));
        assert!(stages(&with).contains(&"windowed_curve".to_string()));
    }

    #[test]
    fn windowed_mass_shrinks_with_shorter_half_life() {
        let log = smoke_log();
        let engine = AnalysisPlan::new(fast_config());
        let (clean, _) = prepared_from(&log, None);
        let frontier = clean.view().time_at(clean.view().len() - 1);
        let mass = |hl: i64| {
            let (clean, meta) = prepared_from(
                &log,
                Some(DecaySpec {
                    half_life_ms: hl,
                    frontier_ms: frontier,
                }),
            );
            run_prepared(&engine, &clean, meta)
                .unwrap()
                .windowed
                .unwrap()
                .effective_mass
        };
        let short = mass(6 * 3_600_000);
        let long = mass(4 * 86_400_000);
        assert!(
            short < long,
            "6h mass {short} should be below 4d mass {long}"
        );
    }

    #[test]
    fn nonpositive_half_life_is_rejected() {
        let log = smoke_log();
        let engine = AnalysisPlan::new(fast_config());
        let (clean, meta) = prepared_from(
            &log,
            Some(DecaySpec {
                half_life_ms: 0,
                frontier_ms: 1,
            }),
        );
        assert!(matches!(
            run_prepared(&engine, &clean, meta),
            Err(AutoSensError::BadConfig(_))
        ));
    }

    #[test]
    fn alpha_by_period_has_morning_reference_one() {
        let log = smoke_log();
        let engine = AnalysisPlan::new(fast_config());
        let est = engine.alpha_by_period(&log, &Slice::all()).unwrap();
        assert_eq!(est.groups.len(), 4);
        let morning = est.groups[0].alpha.unwrap();
        assert!((morning - 1.0).abs() < 1e-9, "morning alpha = {morning}");
        // Night activity factor is well below daytime.
        let night = est.groups[3].alpha.unwrap();
        assert!(night < 0.7, "night alpha = {night}");
    }
}
