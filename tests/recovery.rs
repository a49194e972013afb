//! End-to-end recovery of the planted ground truth: the headline claim of
//! this reproduction. The simulator plants known preference curves; the
//! AutoSens pipeline, seeing only the telemetry, must recover their shapes
//! and the orderings the paper reports in Figures 4–7.

mod common;

use autosens_faults::{FaultOp, FaultPlan};
use autosens_telemetry::loss::{estimate_cell_loss, LossCounts, LossEvidence};
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
use autosens_telemetry::time::{DayPeriod, SimTime, MS_PER_DAY, MS_PER_HOUR};
use autosens_telemetry::TelemetryLog;
use proptest::prelude::*;

#[test]
fn selectmail_business_tracks_planted_truth() {
    let (log, truth) = common::data();
    let slice = Slice::all()
        .action(ActionType::SelectMail)
        .class(UserClass::Business);
    let report = common::run_slice(log, &slice).expect("fits");

    let mut err = 0.0;
    let mut n = 0;
    for l in (400..=1200).step_by(100) {
        let l = l as f64;
        let measured = report.preference.at(l).expect("within span");
        let planted =
            truth.normalized_preference(ActionType::SelectMail, UserClass::Business, l, 300.0);
        err += (measured - planted).abs();
        n += 1;
    }
    let mae = err / n as f64;
    assert!(mae < 0.10, "MAE vs planted truth = {mae:.4}");
}

#[test]
fn recovered_curves_decrease_with_latency() {
    let (log, _) = common::data();
    let slice = Slice::all()
        .action(ActionType::SelectMail)
        .class(UserClass::Business);
    let report = common::run_slice(log, &slice).expect("fits");
    let p = &report.preference;
    assert!((p.at(300.0).unwrap() - 1.0).abs() < 1e-9);
    // Decreasing through the well-supported range (allow small noise).
    let probes = [400.0, 600.0, 800.0, 1000.0, 1200.0];
    for w in probes.windows(2) {
        let a = p.at(w[0]).expect("supported");
        let b = p.at(w[1]).expect("supported");
        assert!(
            b < a + 0.05,
            "pref({}) = {a:.3} -> pref({}) = {b:.3}",
            w[0],
            w[1]
        );
    }
    // Overall drop is substantial.
    assert!(p.at(1200.0).unwrap() < 0.8);
}

#[test]
fn action_type_ordering_matches_figure4() {
    let (log, _) = common::data();
    let base = Slice::all().class(UserClass::Business);
    let results = common::engine().by_action_type(log, &base);
    let at = |a: ActionType, l: f64| -> f64 {
        results
            .iter()
            .find(|(x, _)| *x == a)
            .and_then(|(_, r)| r.as_ref().ok())
            .and_then(|r| r.preference.at(l))
            .unwrap_or(f64::NAN)
    };
    let probe = 1000.0;
    let sm = at(ActionType::SelectMail, probe);
    let sf = at(ActionType::SwitchFolder, probe);
    let se = at(ActionType::Search, probe);
    let cs = at(ActionType::ComposeSend, probe);
    assert!(sm < se, "SelectMail {sm:.3} vs Search {se:.3}");
    assert!(sf < se, "SwitchFolder {sf:.3} vs Search {se:.3}");
    assert!(se < cs + 0.05, "Search {se:.3} vs ComposeSend {cs:.3}");
    assert!(cs > 0.8, "ComposeSend should stay nearly flat, got {cs:.3}");
}

#[test]
fn business_users_are_more_sensitive_than_consumers() {
    let (log, _) = common::data();
    let base = Slice::all().action(ActionType::SelectMail);
    let results = common::engine().by_user_class(log, &base);
    let at = |c: UserClass, l: f64| -> f64 {
        results
            .iter()
            .find(|(x, _)| *x == c)
            .and_then(|(_, r)| r.as_ref().ok())
            .and_then(|r| r.preference.at(l))
            .unwrap_or(f64::NAN)
    };
    for probe in [800.0, 1000.0] {
        let b = at(UserClass::Business, probe);
        let c = at(UserClass::Consumer, probe);
        assert!(b < c, "@{probe}: business {b:.3} vs consumer {c:.3}");
    }
}

#[test]
fn latency_quartiles_order_by_conditioning() {
    let (log, _) = common::data();
    let base = Slice::all()
        .action(ActionType::SelectMail)
        .class(UserClass::Consumer);
    let (quartiles, results) = common::engine()
        .by_latency_quartile(log, &base, 20)
        .expect("enough users");
    assert!(quartiles.cuts[0] < quartiles.cuts[2]);
    let at = |q: usize| -> Option<f64> {
        results
            .iter()
            .find(|(x, _)| *x == q)
            .and_then(|(_, r)| r.as_ref().ok())
            .and_then(|r| r.preference.at(900.0))
    };
    let q1 = at(0).expect("Q1 fits");
    let q4 = at(3).expect("Q4 fits");
    assert!(
        q1 < q4,
        "Q1 (fastest) should be more sensitive: Q1 {q1:.3} vs Q4 {q4:.3}"
    );
}

#[test]
fn daytime_is_more_sensitive_than_nighttime() {
    let (log, _) = common::data();
    let base = Slice::all()
        .action(ActionType::SelectMail)
        .class(UserClass::Business);
    let results = common::engine().by_day_period(log, &base);
    // Nighttime slices are sparse (business activity collapses after 8pm),
    // so their fitted spans end earlier; probe at the highest latency all
    // available curves support, at least 600 ms.
    let pref = |p: DayPeriod| {
        results
            .iter()
            .find(|(x, _)| *x == p)
            .and_then(|(_, r)| r.as_ref().ok())
            .map(|r| &r.preference)
    };
    let morning_pref = pref(DayPeriod::Morning8to14).expect("morning fits");
    let night_prefs: Vec<_> = [DayPeriod::Evening20to2, DayPeriod::Night2to8]
        .into_iter()
        .filter_map(pref)
        .collect();
    assert!(!night_prefs.is_empty(), "no nighttime curve fit");
    let probe = night_prefs
        .iter()
        .chain(std::iter::once(&morning_pref))
        .map(|p| p.span_ms().1 - 55.0)
        .fold(900.0f64, f64::min);
    assert!(
        probe >= 600.0,
        "shared span too narrow: probe {probe:.0} ms"
    );
    let morning = morning_pref.at(probe).expect("within span");
    for np in &night_prefs {
        let nv = np.at(probe).expect("within span");
        assert!(
            morning < nv,
            "@{probe:.0}ms: morning {morning:.3} should be steeper than night {nv:.3}"
        );
    }
}

/// 14 days of heartbeat-regular telemetry, `per_hour` records per hour,
/// both classes interleaved — dense enough that injected drops leave
/// volume and sequence-gap evidence the loss estimator can read.
fn steady_log(per_hour: i64) -> TelemetryLog {
    let step = MS_PER_HOUR / per_hour;
    let mut records = Vec::new();
    for day in 0..14i64 {
        for hour in 0..24i64 {
            for k in 0..per_hour {
                records.push(ActionRecord {
                    time: SimTime(day * MS_PER_DAY + hour * MS_PER_HOUR + k * step),
                    action: ActionType::SelectMail,
                    latency_ms: 101.5,
                    user: UserId((k + hour) as u64),
                    class: if k % 2 == 0 {
                        UserClass::Business
                    } else {
                        UserClass::Consumer
                    },
                    tz_offset_ms: 0,
                    outcome: Outcome::Success,
                });
            }
        }
    }
    TelemetryLog::from_records(records).expect("valid records")
}

/// Loss evidence of a log, with the serial/parallel equivalence asserted
/// on the way: the batch `LossCounts` scan must equal chunked partials
/// merged out of order, bit for bit (the counts are unit `u64` additions,
/// which is what lets stream shards maintain them independently).
fn evidence_with_merge_check(log: &TelemetryLog) -> LossEvidence {
    let view = log.view();
    let serial = LossCounts::from_view(&view);
    let n = view.len();
    let bounds = [0, n / 4, n / 2, 3 * n / 4, n];
    let mut chunks: Vec<LossCounts> = bounds
        .windows(2)
        .map(|w| {
            let mut part = LossCounts::new();
            for i in w[0]..w[1] {
                part.record(
                    SimTime(view.time_at(i)),
                    view.tz_offset_at(i),
                    view.class_at(i),
                );
            }
            part
        })
        .collect();
    let mut merged = LossCounts::new();
    for i in [2usize, 0, 3, 1] {
        merged.merge(&std::mem::take(&mut chunks[i]));
    }
    assert_eq!(merged, serial, "chunk-merged counts diverged from batch");
    let ev = estimate_cell_loss(&view, &serial);
    assert_eq!(
        ev,
        estimate_cell_loss(&view, &merged),
        "evidence diverged between serial and merged counts"
    );
    ev
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Uniform (MCAR) thinning of heartbeat-regular telemetry: the
    /// sequence-gap estimator counts the missing beats, so the overall
    /// estimated rate recovers the planted drop probability.
    #[test]
    fn loss_estimator_recovers_uniform_drop_rate(
        seed in 0u64..1u64 << 48,
        rate in 0.10f64..0.35,
    ) {
        let log = steady_log(30);
        let plan = FaultPlan {
            seed,
            ops: vec![FaultOp::DropUniform { rate }],
        };
        let dropped = plan.apply(&log).expect("inject");
        let est = evidence_with_merge_check(&dropped).overall_rate;
        prop_assert!(
            (est - rate).abs() < 0.05,
            "planted {rate:.3}, estimated {est:.3}"
        );
    }

    /// Bursty (MNAR) run-dropping: gap and volume shortfalls against the
    /// median day recover most of the loss that actually lands (the
    /// injector's realized fraction saturates below the nominal rate, so
    /// the reference is measured, not nominal). The log is dense enough
    /// that a mean burst (40 records = 10 min) is interior to an hour —
    /// bursts that straddle a slot boundary hide their truncated edges
    /// from the gap estimator, and the volume baselines are themselves
    /// thinned when many days are hit, so the estimator is structurally
    /// conservative. The bound is one-sided-tight: never an
    /// overestimate, never less than half the truth.
    #[test]
    fn loss_estimator_recovers_bursty_drop_rate(
        seed in 0u64..1u64 << 48,
        rate in 0.15f64..0.45,
    ) {
        let log = steady_log(240);
        let plan = FaultPlan {
            seed,
            ops: vec![FaultOp::DropBursty { rate, mean_burst: 40 }],
        };
        let dropped = plan.apply(&log).expect("inject");
        let actual = 1.0 - dropped.len() as f64 / log.len() as f64;
        let est = evidence_with_merge_check(&dropped).overall_rate;
        prop_assert!(
            est >= 0.5 * actual && est <= actual + 0.02,
            "realized {actual:.3}, estimated {est:.3}"
        );
    }
}

#[test]
fn truth_orderings_are_planted_correctly() {
    // Sanity on the ground truth itself (guards against simulator
    // regressions that would make the recovery tests vacuous).
    let (_, truth) = common::data();
    let l = 1200.0;
    let n = |a, c| truth.normalized_preference(a, c, l, 300.0);
    assert!(
        n(ActionType::SelectMail, UserClass::Business) < n(ActionType::Search, UserClass::Business)
    );
    assert!(
        n(ActionType::SelectMail, UserClass::Business)
            < n(ActionType::SelectMail, UserClass::Consumer)
    );
    assert!(n(ActionType::ComposeSend, UserClass::Business) > 0.9);
}
