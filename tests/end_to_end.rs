//! Cross-crate end-to-end behaviour: determinism, codec round-trips through
//! the full pipeline, month-over-month stability, the locality
//! preconditions, and the §3.5 bottleneck analysis.

mod common;

use autosens_core::bottleneck::bottleneck_report;
use autosens_core::locality::{density_latency_correlation, locality_report};
use autosens_telemetry::codec;
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionType, UserClass};
use autosens_telemetry::time::Month;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn slice() -> Slice {
    Slice::all()
        .action(ActionType::SelectMail)
        .class(UserClass::Business)
}

#[test]
fn full_pipeline_is_deterministic() {
    let (log, _) = common::data();
    let a = common::run_slice(log, &slice()).expect("fits");
    let b = common::run_slice(log, &slice()).expect("fits");
    assert_eq!(a.preference.series(), b.preference.series());
    assert_eq!(a.n_actions, b.n_actions);
}

#[test]
fn csv_roundtrip_preserves_the_analysis() {
    let (log, _) = common::data();
    let direct = common::run_slice(log, &slice()).expect("fits");

    let mut buf = Vec::new();
    codec::write_csv(log, &mut buf).expect("serialize");
    let back = codec::read_csv(buf.as_slice()).expect("parse");
    assert_eq!(back.len(), log.len());
    let roundtrip = common::run_slice(&back, &slice()).expect("fits");
    assert_eq!(direct.preference.series(), roundtrip.preference.series());
}

#[test]
fn preference_is_stable_across_months() {
    let (log, _) = common::data();
    let results = common::engine().by_month(log, &slice(), &[Month::Jan, Month::Feb]);
    let jan = results[0].1.as_ref().expect("Jan fits");
    let feb = results[1].1.as_ref().expect("Feb fits");
    let mut gap = 0.0;
    let mut n = 0;
    for l in (400..=1100).step_by(100) {
        if let (Some(a), Some(b)) = (jan.preference.at(l as f64), feb.preference.at(l as f64)) {
            gap += (a - b).abs();
            n += 1;
        }
    }
    assert!(n >= 6, "too few shared probes: {n}");
    let mae = gap / n as f64;
    assert!(mae < 0.10, "Jan/Feb MAE = {mae:.4}");
}

#[test]
fn locality_preconditions_hold_on_simulated_telemetry() {
    let (log, _) = common::data();
    let mut rng = StdRng::seed_from_u64(42);
    let loc = locality_report(&log.view(), &mut rng).expect("fits");
    assert!(loc.has_locality(), "{loc:?}");
    assert!(loc.msd_mad_actual < 0.6, "actual = {}", loc.msd_mad_actual);
    assert!((loc.msd_mad_shuffled - 1.0).abs() < 0.05);
    assert!(loc.msd_mad_sorted < 0.01);
    assert!(loc.von_neumann < 1.5, "von Neumann = {}", loc.von_neumann);

    let corr = density_latency_correlation(&log.view(), 60_000).expect("fits");
    assert!(corr.n_windows > 10_000);
    assert!(corr.correlation.abs() <= 1.0);
}

#[test]
fn drop_factors_stay_below_the_bottleneck_prediction() {
    let (log, _) = common::data();
    let report = common::run_slice(log, &slice()).expect("fits");
    let bn = bottleneck_report(&report.preference, 500.0);
    assert!(!bn.doublings.is_empty());
    let (_, _, first) = bn.doublings[0];
    assert!(
        first > 1.05 && first < 1.6,
        "500->1000 ms drop factor {first:.3} (paper ~1.3, bottleneck 2.0)"
    );
    assert!(bn.preference_dominates(), "{bn:?}");
}

#[test]
fn error_records_are_excluded_from_analysis() {
    let (log, _) = common::data();
    // The engine analyzes successes only; a log stripped of errors must
    // give the identical curve.
    let stripped = Slice::all().successes().apply(log);
    let a = common::run_slice(log, &slice()).expect("fits");
    let b = common::run_slice(&stripped, &slice()).expect("fits");
    assert_eq!(a.n_actions, b.n_actions);
    assert_eq!(a.preference.series(), b.preference.series());
}
