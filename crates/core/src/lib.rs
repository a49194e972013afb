//! # AutoSens — latency sensitivity from natural experiments
//!
//! A Rust implementation of the AutoSens methodology (Thakkar, Saxena,
//! Padmanabhan — *AutoSens: Inferring Latency Sensitivity of User Activity
//! through Natural Experiments*, ACM IMC 2021).
//!
//! AutoSens estimates how sensitive users are to service latency **without
//! any A/B test or latency injection**, purely from passive telemetry. The
//! key comparison is between two latency distributions:
//!
//! * the **biased** distribution `B` — latencies of the actions users
//!   actually performed, which reflects any avoidance of slow periods; and
//! * the **unbiased** distribution `U` — the latency the service would have
//!   delivered at times unrelated to user behaviour, approximated by
//!   sampling uniformly random instants and taking the temporally-nearest
//!   observed latency.
//!
//! Their ratio `B/U`, smoothed (Savitzky–Golay, window 101, degree 3) and
//! normalized at a reference latency (300 ms), is the **normalized latency
//! preference**: the relative likelihood that users act at each latency
//! level, all else equal.
//!
//! Because both user activity and latency follow the clock, time is a
//! confounder; the pipeline removes it with per-hour-slot **activity
//! factors** `α` (ratios of temporal action rates at matched latency,
//! averaged over latency bins and over multiple reference slots). Content
//! and user-conditioning confounders are handled by slicing (per action
//! type, user class, per-user median-latency quartile).
//!
//! ## Quick start
//!
//! ```no_run
//! use autosens_core::plan::{AnalysisPlan, PlanInput, RunOptions};
//! use autosens_core::AutoSensConfig;
//! use autosens_sim::{generate, Scenario, SimConfig};
//!
//! // Synthesize an OWA-like two-month log (any TelemetryLog works).
//! let (log, _truth) = generate(&SimConfig::scenario(Scenario::Default)).unwrap();
//!
//! let plan = AnalysisPlan::new(AutoSensConfig::default());
//! let out = plan.run(PlanInput::log(&log), RunOptions::default()).unwrap();
//! let pref = &out.report.preference;
//! // Preference is 1.0 at the 300 ms reference and drops as latency grows.
//! assert!((pref.at(300.0).unwrap() - 1.0).abs() < 1e-9);
//! assert!(pref.at(1500.0).unwrap() < 1.0);
//! ```
//!
//! Modules:
//!
//! * [`config`] — [`AutoSensConfig`] with the paper's defaults.
//! * [`biased`] — the `B` histogram.
//! * [`unbiased`] — the `U` estimator (random instants, nearest sample).
//! * [`alpha`] — time-confounder activity factors (§2.4.1, Table 1, Fig 8).
//! * [`preference`] — ratio, smoothing, normalization (§2.3).
//! * [`plan`] — [`AnalysisPlan`], the analysis engine and its single entry
//!   point, plus the stage names.
//! * [`pipeline`] — the stage bodies, report types and per-slice analyses.
//! * [`lossmodel`] — loss-aware inverse-observation-probability weights.
//! * [`locality`] — the §2.1 diagnostics (Figures 1 and 2).
//! * [`bottleneck`] — the §3.5 preference-vs-bottleneck analysis.
//! * [`report`] — serializable reports and text rendering.

pub mod abandonment;
pub mod alpha;
pub mod biased;
pub mod bottleneck;
pub mod ci;
pub mod compare;
pub mod config;
pub mod error;
pub mod locality;
pub mod lossmodel;
pub mod pipeline;
pub mod plan;
pub mod preference;
pub mod report;
pub mod unbiased;

pub use alpha::Grouping;
pub use config::AutoSensConfig;
pub use error::AutoSensError;
pub use lossmodel::LossModel;
pub use pipeline::{DecaySpec, LossReport, WindowedCurve};
pub use plan::{AnalysisPlan, PlanInput, PreparedMeta, RunOptions};
pub use preference::NormalizedPreference;
