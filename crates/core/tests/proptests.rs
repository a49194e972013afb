//! Property-based tests for the AutoSens core: invariants of the
//! preference fit, the α arithmetic, and the unbiased estimator that must
//! hold for *any* data, not just the simulated scenarios.

use autosens_core::alpha::alpha_vs_reference;
use autosens_core::config::AutoSensConfig;
use autosens_core::plan::{AnalysisPlan, PlanInput, RunOptions};
use autosens_core::preference::NormalizedPreference;
use autosens_core::unbiased::unbiased_histogram;
use autosens_faults::{FaultOp, FaultPlan};
use autosens_stats::binning::{Binner, OutOfRange};
use autosens_stats::histogram::Histogram;
use autosens_telemetry::log::TelemetryLog;
use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
use autosens_telemetry::time::SimTime;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn binner() -> Binner {
    Binner::new(0.0, 1000.0, 10.0, OutOfRange::Discard).unwrap()
}

fn fit_config() -> AutoSensConfig {
    AutoSensConfig {
        latency_hi_ms: 1000.0,
        savgol_window: 11,
        savgol_degree: 3,
        min_biased_count: 1.0,
        min_unbiased_count: 1.0,
        min_supported_bins: 10,
        ..AutoSensConfig::default()
    }
}

/// Histograms whose per-bin masses are the given positive weights.
fn histogram_from_weights(weights: &[f64]) -> Histogram {
    let b = binner();
    let mut h = Histogram::new(b.clone());
    for (i, &w) in weights.iter().enumerate() {
        h.record_weighted(b.center(i), w);
    }
    h
}

proptest! {
    // ---------- preference fit ----------

    #[test]
    fn preference_is_one_at_reference_for_any_data(
        weights in prop::collection::vec(1.0f64..1000.0, 100)
    ) {
        let biased = histogram_from_weights(&weights);
        let unbiased = histogram_from_weights(&vec![500.0; 100]);
        let p = NormalizedPreference::fit(&biased, &unbiased, &fit_config()).unwrap();
        let v = p.at(300.0).unwrap();
        prop_assert!((v - 1.0).abs() < 1e-9, "pref(ref) = {}", v);
    }

    #[test]
    fn preference_is_invariant_to_histogram_scaling(
        weights in prop::collection::vec(1.0f64..1000.0, 100),
        scale_b in 0.1f64..10.0,
        scale_u in 0.1f64..10.0,
    ) {
        // The curve depends only on the *shapes* of B and U, not their
        // totals: scaling either histogram must not change the result.
        // (This invariant holds modulo the min-count support gates, which
        // are count-denominated by design — so disable them here.)
        let cfg = AutoSensConfig {
            min_biased_count: 0.0,
            min_unbiased_count: 0.0,
            ..fit_config()
        };
        let biased = histogram_from_weights(&weights);
        let unbiased = histogram_from_weights(&vec![500.0; 100]);
        let p1 = NormalizedPreference::fit(&biased, &unbiased, &cfg).unwrap();

        let mut b2 = biased.clone();
        b2.scale(scale_b).unwrap();
        let mut u2 = unbiased.clone();
        u2.scale(scale_u).unwrap();
        let p2 = NormalizedPreference::fit(&b2, &u2, &cfg).unwrap();

        for (a, b) in p1.series().iter().zip(p2.series().iter()) {
            prop_assert!((a.1 - b.1).abs() < 1e-6, "{:?} vs {:?}", a, b);
        }
    }

    #[test]
    fn preference_output_is_finite_and_nonnegative(
        weights_b in prop::collection::vec(0.0f64..1000.0, 100),
        weights_u in prop::collection::vec(0.5f64..1000.0, 100),
    ) {
        let biased = histogram_from_weights(&weights_b);
        let unbiased = histogram_from_weights(&weights_u);
        // Fit may legitimately fail (insufficient support); if it succeeds,
        // every emitted value must be finite and >= 0.
        if let Ok(p) = NormalizedPreference::fit(&biased, &unbiased, &fit_config()) {
            for (x, v) in p.series() {
                prop_assert!(v.is_finite() && v >= 0.0, "pref({x}) = {v}");
            }
            let (lo, hi) = p.span_ms();
            prop_assert!(lo <= hi);
        }
    }

    #[test]
    fn drop_factor_is_multiplicative(
        weights in prop::collection::vec(10.0f64..1000.0, 100),
    ) {
        let biased = histogram_from_weights(&weights);
        let unbiased = histogram_from_weights(&vec![500.0; 100]);
        let p = NormalizedPreference::fit(&biased, &unbiased, &fit_config()).unwrap();
        // drop(a,c) == drop(a,b) * drop(b,c) wherever defined and nonzero.
        if let (Some(ab), Some(bc), Some(ac)) = (
            p.drop_factor(200.0, 500.0),
            p.drop_factor(500.0, 800.0),
            p.drop_factor(200.0, 800.0),
        ) {
            prop_assert!((ab * bc - ac).abs() < 1e-9 * ac.abs().max(1.0));
        }
    }

    // ---------- alpha arithmetic ----------

    #[test]
    fn alpha_of_group_against_itself_is_one(
        c in prop::collection::vec(1.0f64..1000.0, 2..50),
        u in prop::collection::vec(0.1f64..1000.0, 2..50),
    ) {
        let n = c.len().min(u.len());
        let (per_bin, mean) =
            alpha_vs_reference(&c[..n], &u[..n], &c[..n], &u[..n], 0.5, 0.0);
        for b in per_bin.iter().flatten() {
            prop_assert!((b - 1.0).abs() < 1e-9);
        }
        prop_assert!((mean.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_scales_linearly_with_group_counts(
        c in prop::collection::vec(1.0f64..1000.0, 2..50),
        u in prop::collection::vec(0.1f64..1000.0, 2..50),
        k in 0.1f64..10.0,
    ) {
        // Multiplying a group's counts by k multiplies its alpha by k:
        // alpha is a pure rate ratio.
        let n = c.len().min(u.len());
        let scaled: Vec<f64> = c[..n].iter().map(|x| x * k).collect();
        let (_, mean) = alpha_vs_reference(&scaled, &u[..n], &c[..n], &u[..n], 0.0, 0.0);
        prop_assert!((mean.unwrap() - k).abs() < 1e-6 * k.max(1.0));
    }

    #[test]
    fn alpha_is_invariant_to_unbiased_mass_scale(
        c in prop::collection::vec(1.0f64..1000.0, 2..50),
        u in prop::collection::vec(0.1f64..1000.0, 2..50),
        k in 0.1f64..10.0,
    ) {
        // Only the *shape* of U_T matters (f_T^L are fractions).
        let n = c.len().min(u.len());
        let scaled: Vec<f64> = u[..n].iter().map(|x| x * k).collect();
        let (_, a) = alpha_vs_reference(&c[..n], &u[..n], &c[..n], &u[..n], 0.0, 0.0);
        let (_, b) = alpha_vs_reference(&c[..n], &scaled, &c[..n], &u[..n], 0.0, 0.0);
        prop_assert!((a.unwrap() - b.unwrap()).abs() < 1e-9);
    }

    // ---------- unbiased estimator ----------

    #[test]
    fn unbiased_histogram_mass_equals_draws(
        latencies in prop::collection::vec(0.0f64..999.0, 1..100),
        draws in 100usize..2000,
        seed in any::<u64>(),
    ) {
        let records: Vec<ActionRecord> = latencies
            .iter()
            .enumerate()
            .map(|(i, &l)| ActionRecord {
                time: SimTime(i as i64 * 1000),
                action: ActionType::SelectMail,
                latency_ms: l,
                user: UserId(0),
                class: UserClass::Business,
                tz_offset_ms: 0,
                outcome: Outcome::Success,
            })
            .collect();
        let log = TelemetryLog::from_records(records).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let h = unbiased_histogram(&log.view(), &binner(), draws, &mut rng).unwrap();
        // Every draw resolves to exactly one in-range sample.
        prop_assert_eq!(h.n_recorded() as usize, draws);
        prop_assert!((h.total() - draws as f64).abs() < 1e-9);
    }

    // ---------- end-to-end robustness ----------

    #[test]
    fn analyze_never_panics_on_fault_injected_logs(
        latencies in prop::collection::vec(0.0f64..2000.0, 20..150),
        step_ms in 1_000i64..600_000,
        seed in any::<u64>(),
        drop_rate in 0.0f64..0.9,
        dup_rate in 0.0f64..0.5,
        reorder_rate in 0.0f64..0.5,
        grain in 1.0f64..200.0,
    ) {
        // Arbitrary logs pushed through the full corruption battery and the
        // full analysis: the pipeline must either produce a finite curve or
        // return a typed error — never panic, never emit NaN.
        let records: Vec<ActionRecord> = latencies
            .iter()
            .enumerate()
            .map(|(i, &l)| ActionRecord {
                time: SimTime(i as i64 * step_ms),
                action: ActionType::SelectMail,
                latency_ms: l,
                user: UserId(i as u64 % 7),
                class: UserClass::Business,
                tz_offset_ms: 0,
                outcome: Outcome::Success,
            })
            .collect();
        let log = TelemetryLog::from_records(records).unwrap();
        let plan = FaultPlan {
            seed,
            ops: vec![
                FaultOp::DropBursty { rate: drop_rate, mean_burst: 10 },
                FaultOp::Duplicate { rate: dup_rate },
                FaultOp::Reorder { rate: reorder_rate, max_shift_ms: 300_000 },
                FaultOp::ClockSkew { max_offset_ms: 3_600_000, drift_ms_per_day: 60_000 },
                FaultOp::QuantizeLatency { grain_ms: grain },
                FaultOp::NullMetadata { rate: 0.5 },
            ],
        };
        let corrupted = plan.apply(&log).unwrap();
        let cfg = AutoSensConfig {
            unbiased_draws: 4_000,
            savgol_window: 11,
            savgol_degree: 3,
            min_biased_count: 1.0,
            min_unbiased_count: 1.0,
            min_supported_bins: 5,
            ..AutoSensConfig::default()
        };
        let plan = AnalysisPlan::new(cfg);
        // Typed failure (empty slice, support collapse, …) is the
        // accepted graceful outcome for unanalyzable corruption.
        if let Ok(out) = plan.run(PlanInput::log(&corrupted), RunOptions::default()) {
            for (x, v) in out.report.preference.series() {
                prop_assert!(v.is_finite() && v >= 0.0, "pref({x}) = {v}");
            }
        }
    }

    #[test]
    fn unbiased_histogram_only_contains_observed_latencies(
        latencies in prop::collection::vec(0.0f64..999.0, 1..30),
        seed in any::<u64>(),
    ) {
        let records: Vec<ActionRecord> = latencies
            .iter()
            .enumerate()
            .map(|(i, &l)| ActionRecord {
                time: SimTime(i as i64 * 777),
                action: ActionType::Search,
                latency_ms: l,
                user: UserId(1),
                class: UserClass::Consumer,
                tz_offset_ms: 0,
                outcome: Outcome::Success,
            })
            .collect();
        let log = TelemetryLog::from_records(records).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let h = unbiased_histogram(&log.view(), &binner(), 500, &mut rng).unwrap();
        let b = binner();
        // Bins with mass must contain at least one observed latency.
        for i in 0..b.n_bins() {
            if h.count(i) > 0.0 {
                let hit = latencies.iter().any(|&l| b.index_of(l) == Some(i));
                prop_assert!(hit, "bin {i} has mass but no observed latency");
            }
        }
    }
}
