//! Fleet snapshot fan-out: [`Registry::snapshot_all`] gives every tenant
//! its own scheduler chunk, so `threads` workers snapshot that many
//! tenants at once. This is its own test binary because it arms the exec
//! fault hook, which is process-global.

use autosens_core::pipeline::AnalysisReport;
use autosens_core::report::{default_grid, PreferenceSummary};
use autosens_core::{AnalysisPlan, PlanInput, RunOptions};
use autosens_exec::faults::{arm_chunk_panic, disarm_chunk_panic};
use autosens_obs::Recorder;
use autosens_serve::{Registry, TenantKey};
use autosens_sim::config::{Scenario, SimConfig};
use autosens_stream::StreamConfig;
use autosens_telemetry::log::TelemetryLog;

/// The `/curve` body of a report, as batch `analyze --json` prints it.
fn curve_json(report: &AnalysisReport) -> String {
    let summary = PreferenceSummary::from_report("all", report, &default_grid());
    serde_json::to_string_pretty(&summary).unwrap()
}

#[test]
fn each_tenant_snapshots_in_its_own_chunk() {
    let mut sim = SimConfig::scenario(Scenario::Smoke);
    sim.seed = 42;
    let records = autosens_sim::generate(&sim).unwrap().0.to_records();
    let config = StreamConfig::default();
    let registry = Registry::new(config.clone(), 65_536, Recorder::disabled());
    // Eight tenants, each holding a different prefix of one log, and the
    // batch answer for each.
    let mut expected = Vec::new();
    for i in 0..8 {
        let key = TenantKey::new("svc", format!("r{i}")).unwrap();
        let held = &records[..1200 + 150 * i];
        registry.ingest(&key, held).unwrap();
        let log = TelemetryLog::from_records(held.to_vec()).unwrap();
        let batch = AnalysisPlan::new(config.analysis.clone())
            .run(PlanInput::log(&log), RunOptions::default())
            .unwrap()
            .report;
        expected.push((key, curve_json(&batch)));
    }

    // One chunk per tenant: the fourth tenant is chunk 3.
    arm_chunk_panic("serve_snapshot_all", 3);
    let armed = registry.snapshot_all(2);
    disarm_chunk_panic();
    let err = armed.expect_err("the armed chunk did not fail the pass");
    assert!(
        err.to_string()
            .contains("chunk 3 of job 'serve_snapshot_all'"),
        "{err}"
    );

    // The failed pass broke no tenant: the next one serves each tenant
    // its batch bytes, in key order.
    let all = registry.snapshot_all(2).unwrap();
    assert_eq!(all.len(), expected.len());
    for ((key, report), (want_key, want)) in all.iter().zip(&expected) {
        assert_eq!(key, want_key);
        assert_eq!(&curve_json(report), want, "{} differs", key.label());
    }
    let stats = registry.last_fleet_snapshot().unwrap();
    assert_eq!((stats.tenants, stats.reused + stats.computed), (8, 8));
}
