//! Shared setup for the workspace integration tests: a 59-day,
//! reduced-population scenario. Two full months are needed so the
//! month-stability and confounder analyses have their real structure; the
//! population is trimmed to keep debug-mode test time reasonable.

use std::sync::OnceLock;

use autosens_core::ci::PreferenceCi;
use autosens_core::pipeline::AnalysisReport;
use autosens_core::{AnalysisPlan, AutoSensConfig, AutoSensError, PlanInput, RunOptions};
use autosens_sim::{generate, GroundTruth, Scenario, SimConfig};
use autosens_telemetry::query::Slice;
use autosens_telemetry::TelemetryLog;

/// The validation scenario: both months, 600 users.
pub fn validation_config() -> SimConfig {
    let mut cfg = SimConfig::scenario(Scenario::Default);
    cfg.n_business = 300;
    cfg.n_consumer = 300;
    cfg
}

static DATA: OnceLock<(TelemetryLog, GroundTruth)> = OnceLock::new();

/// The shared validation dataset (generated once per test binary).
pub fn data() -> &'static (TelemetryLog, GroundTruth) {
    DATA.get_or_init(|| generate(&validation_config()).expect("valid config"))
}

/// An engine with the paper's default configuration.
#[allow(dead_code)]
pub fn engine() -> AnalysisPlan {
    AnalysisPlan::new(AutoSensConfig::default())
}

/// Run the single plan entry point over one slice under the paper's
/// default configuration.
#[allow(dead_code)]
pub fn run_slice(log: &TelemetryLog, slice: &Slice) -> Result<AnalysisReport, AutoSensError> {
    engine()
        .run(PlanInput::slice(log, slice), RunOptions::default())
        .map(|out| out.report)
}

/// Same run with a bootstrap confidence band.
#[allow(dead_code)]
pub fn run_slice_with_ci(
    log: &TelemetryLog,
    slice: &Slice,
    replicates: usize,
    level: f64,
) -> Result<(AnalysisReport, PreferenceCi), AutoSensError> {
    engine()
        .run(
            PlanInput::slice(log, slice),
            RunOptions::with_ci(replicates, level),
        )
        .map(|out| (out.report, out.ci.expect("ci requested")))
}
