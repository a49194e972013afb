//! Failure injection: malformed inputs, degenerate logs, and empty slices
//! must produce typed errors, never panics or silent garbage.

use autosens_core::{AnalysisPlan, AutoSensConfig, AutoSensError, PlanInput, RunOptions};
use autosens_sim::{generate, Scenario, SimConfig};
use autosens_telemetry::codec;
use autosens_telemetry::codec::CSV_HEADER;
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
use autosens_telemetry::time::SimTime;
use autosens_telemetry::TelemetryLog;

fn rec(t: i64, latency: f64) -> ActionRecord {
    ActionRecord {
        time: SimTime(t),
        action: ActionType::SelectMail,
        latency_ms: latency,
        user: UserId(0),
        class: UserClass::Business,
        tz_offset_ms: 0,
        outcome: Outcome::Success,
    }
}

#[test]
fn empty_log_is_a_typed_error() {
    let plan = AnalysisPlan::new(AutoSensConfig::default());
    match plan.run(PlanInput::log(&TelemetryLog::new()), RunOptions::default()) {
        Err(AutoSensError::EmptySlice(_)) => {}
        other => panic!("expected EmptySlice, got {other:?}"),
    }
}

#[test]
fn slice_with_no_matches_is_a_typed_error() {
    let log = TelemetryLog::from_records(vec![rec(0, 100.0), rec(1000, 200.0)]).unwrap();
    let plan = AnalysisPlan::new(AutoSensConfig::default());
    let slice = Slice::all().action(ActionType::ComposeSend);
    assert!(matches!(
        plan.run(PlanInput::slice(&log, &slice), RunOptions::default()),
        Err(AutoSensError::EmptySlice(_))
    ));
}

#[test]
fn tiny_log_fails_with_insufficient_support() {
    let log = TelemetryLog::from_records((0..50).map(|i| rec(i * 1000, 300.0)).collect()).unwrap();
    let plan = AnalysisPlan::new(AutoSensConfig::default());
    match plan.run(PlanInput::log(&log), RunOptions::default()) {
        Err(AutoSensError::InsufficientSupport { .. }) => {}
        other => panic!("expected InsufficientSupport, got {other:?}"),
    }
}

#[test]
fn constant_latency_log_cannot_support_a_curve() {
    // Plenty of records, but all in one bin: no curve can be fitted.
    let log = TelemetryLog::from_records((0..5000).map(|i| rec(i * 100, 305.0)).collect()).unwrap();
    let plan = AnalysisPlan::new(AutoSensConfig::default());
    assert!(matches!(
        plan.run(PlanInput::log(&log), RunOptions::default()),
        Err(AutoSensError::InsufficientSupport { .. })
    ));
}

#[test]
fn reference_outside_observed_range_is_reported() {
    // All latencies far above the 300 ms reference.
    let records: Vec<ActionRecord> = (0..20_000)
        .map(|i| rec(i * 100, 1500.0 + (i % 800) as f64))
        .collect();
    let log = TelemetryLog::from_records(records).unwrap();
    let plan = AnalysisPlan::new(AutoSensConfig::default());
    match plan.run(PlanInput::log(&log), RunOptions::default()) {
        Err(AutoSensError::ReferenceUnsupported { reference_ms }) => {
            assert_eq!(reference_ms, 300.0)
        }
        other => panic!("expected ReferenceUnsupported, got {other:?}"),
    }
}

#[test]
fn invalid_config_is_rejected_before_analysis() {
    let cfg = AutoSensConfig {
        savgol_window: 4, // must be odd
        ..AutoSensConfig::default()
    };
    let plan = AnalysisPlan::new(cfg);
    let log = TelemetryLog::from_records(vec![rec(0, 100.0)]).unwrap();
    assert!(matches!(
        plan.run(PlanInput::log(&log), RunOptions::default()),
        Err(AutoSensError::BadConfig(_))
    ));
}

#[test]
fn malformed_csv_rows_are_rejected_with_line_numbers() {
    let data = format!(
        "{CSV_HEADER}\n\
         1000,SelectMail,100.0,1,Business,0,Success\n\
         2000,SelectMail,not-a-number,1,Business,0,Success\n"
    );
    match codec::read_csv(data.as_bytes()) {
        Err(autosens_telemetry::TelemetryError::Malformed { line, .. }) => assert_eq!(line, 3),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn lenient_csv_parsing_salvages_good_rows() {
    let data = format!(
        "{CSV_HEADER}\n\
         1000,SelectMail,100.0,1,Business,0,Success\n\
         garbage line\n\
         2000,Search,200.0,2,Consumer,0,Success\n\
         3000,SelectMail,NaN,3,Business,0,Success\n\
         4000,SelectMail,-5.0,3,Business,0,Success\n"
    );
    let (log, errors) = codec::read_csv_lenient(data.as_bytes()).expect("io ok");
    assert_eq!(log.len(), 2);
    assert_eq!(errors.len(), 3);
}

#[test]
fn simulator_rejects_invalid_configs_without_panicking() {
    let mut cfg = SimConfig::scenario(Scenario::Smoke);
    cfg.congestion.rho = 1.5;
    assert!(generate(&cfg).is_err());
    let mut cfg = SimConfig::scenario(Scenario::Smoke);
    cfg.error_rate = -0.1;
    assert!(generate(&cfg).is_err());
}

#[test]
fn unsorted_log_errors_surface_through_the_pipeline() {
    let mut log = TelemetryLog::new();
    log.push(rec(1000, 100.0)).unwrap();
    log.push(rec(0, 100.0)).unwrap();
    // The raw store is unsorted; direct range queries must fail loudly...
    assert!(log.view().range(SimTime(0), SimTime(10_000)).is_err());
    // ...while the engine sorts slices internally: the analysis proceeds
    // past sortedness and fails only for lack of data (either the support
    // check or, when the alpha gate excludes the lone slot first, an empty
    // pooled histogram).
    let plan = AnalysisPlan::new(AutoSensConfig::default());
    assert!(matches!(
        plan.run(PlanInput::log(&log), RunOptions::default()),
        Err(AutoSensError::InsufficientSupport { .. } | AutoSensError::EmptySlice(_))
    ));
}

#[test]
fn injected_chunk_panic_surfaces_as_typed_error() {
    // A worker panic inside a scheduler chunk must come back as a typed
    // `AutoSensError`, never a hang or a partially merged result.
    let records: Vec<ActionRecord> = (0..30_000)
        .map(|i| rec(i * 100, 100.0 + (i % 900) as f64))
        .collect();
    let log = TelemetryLog::from_records(records).unwrap();
    let cfg = AutoSensConfig {
        alpha_correction: false,
        threads: 2,
        ..AutoSensConfig::default()
    };
    let plan = AnalysisPlan::new(cfg);
    let ci_run = || {
        plan.run(
            PlanInput::slice(&log, &Slice::all()),
            RunOptions::with_ci(20, 0.95),
        )
    };
    // Sanity: the same analysis succeeds while no fault is armed.
    ci_run().expect("clean run succeeds");

    autosens_exec::faults::arm_chunk_panic(autosens_core::ci::CI_CHUNK_LABEL, 0);
    let result = ci_run();
    autosens_exec::faults::disarm_chunk_panic();
    match result {
        Err(AutoSensError::Internal(msg)) => {
            assert!(msg.contains(autosens_core::ci::CI_CHUNK_LABEL), "{msg}");
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    // The hook is disarmed: the pipeline is healthy again.
    ci_run().expect("post-fault run succeeds");
}

#[test]
fn nan_and_negative_latencies_never_enter_a_log() {
    let mut log = TelemetryLog::new();
    assert!(log.push(rec(0, f64::NAN)).is_err());
    assert!(log.push(rec(0, -1.0)).is_err());
    assert!(log.push(rec(0, f64::INFINITY)).is_err());
    assert!(log.is_empty());
}
