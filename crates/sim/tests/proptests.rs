//! Property-based tests for the simulator: configuration validation,
//! determinism under arbitrary (small) scenarios, and invariants of the
//! planted preference curves.

use autosens_sim::config::{CongestionConfig, Scenario, SimConfig};
use autosens_sim::congestion::CongestionSeries;
use autosens_sim::generate;
use autosens_sim::preference::{base_curve, conditioning_exponent, PrefCurve, SensingMode};
use autosens_telemetry::record::{ActionType, Outcome, UserClass};
use proptest::prelude::*;

/// An arbitrary tiny-but-valid scenario (fast enough for many cases).
fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        any::<u64>(),
        1u32..3,      // days
        1u32..30,     // business users
        0u32..30,     // consumer users
        0.5f64..4.0,  // rate
        0.0f64..0.6,  // activity sigma
        0.0f64..0.4,  // network sigma
        0.0f64..0.3,  // noise sigma
        0.0f64..0.05, // error rate
        prop_oneof![
            Just(SensingMode::Oracle),
            Just(SensingMode::Level),
            (0.5f64..0.99).prop_map(|beta| SensingMode::Ema { beta }),
        ],
    )
        .prop_map(
            |(seed, days, nb, nc, rate, act, net, noise, err, sensing)| SimConfig {
                seed,
                days,
                n_business: nb.max(1),
                n_consumer: nc,
                mean_actions_per_active_hour: rate,
                activity_sigma: act,
                network_sigma: net,
                latency_noise_sigma: noise,
                error_rate: err,
                sensing,
                ..SimConfig::scenario(Scenario::Smoke)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generation_is_deterministic_for_any_config(cfg in arb_config()) {
        let (a, _) = generate(&cfg).unwrap();
        let (b, _) = generate(&cfg).unwrap();
        prop_assert_eq!(a.to_records(), b.to_records());
    }

    #[test]
    fn generated_records_satisfy_all_invariants(cfg in arb_config()) {
        let (log, _) = generate(&cfg).unwrap();
        prop_assert!(log.is_sorted());
        let end_ms = cfg.days as i64 * 86_400_000;
        for r in log.view().iter() {
            prop_assert!(r.time.millis() >= 0 && r.time.millis() < end_ms);
            prop_assert!(r.latency_ms.is_finite() && r.latency_ms > 0.0);
            prop_assert!((r.user.0 as u32) < cfg.n_users());
            // Class is consistent with the id partition.
            let expect = if (r.user.0 as u32) < cfg.n_business {
                UserClass::Business
            } else {
                UserClass::Consumer
            };
            prop_assert_eq!(r.class, expect);
            prop_assert!(r.validate().is_ok());
        }
    }

    #[test]
    fn error_rate_zero_means_no_errors(mut cfg in arb_config()) {
        cfg.error_rate = 0.0;
        let (log, _) = generate(&cfg).unwrap();
        prop_assert!(log.view().iter().all(|r| r.outcome == Outcome::Success));
    }
}

proptest! {
    // ---------- preference curves (cheap, default case count) ----------

    #[test]
    fn pref_curves_are_valid_probabilities_and_decreasing(
        floor in 0.0f64..1.0,
        amp in 0.0f64..1.0,
        tau in 50.0f64..5000.0,
        l1 in 0.0f64..5000.0,
        l2 in 0.0f64..5000.0,
    ) {
        let c = PrefCurve { floor, amp, tau_ms: tau };
        let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        let p_lo = c.eval(lo);
        let p_hi = c.eval(hi);
        prop_assert!(p_lo > 0.0 && p_lo <= 1.0);
        prop_assert!(p_hi > 0.0 && p_hi <= 1.0);
        prop_assert!(p_hi <= p_lo + 1e-12, "curve must be non-increasing");
    }

    #[test]
    fn normalized_pref_is_one_at_reference(
        l_ref in 1.0f64..3000.0,
        gamma in 0.1f64..3.0,
    ) {
        for action in ActionType::analyzed() {
            for class in UserClass::all() {
                let c = base_curve(action, class);
                let v = c.normalized(l_ref, l_ref, gamma);
                prop_assert!((v - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn conditioning_exponent_is_clamped_and_monotone(
        net1 in 0.01f64..100.0,
        net2 in 0.01f64..100.0,
        strength in 0.0f64..5.0,
    ) {
        let g1 = conditioning_exponent(net1, strength);
        let g2 = conditioning_exponent(net2, strength);
        prop_assert!((0.5..=2.0).contains(&g1));
        prop_assert!((0.5..=2.0).contains(&g2));
        // Faster users (smaller factor) never get a smaller exponent.
        if net1 < net2 {
            prop_assert!(g1 >= g2 - 1e-12);
        }
    }

    #[test]
    fn congestion_series_is_positive_and_deterministic(
        seed in any::<u64>(),
        minutes in 10usize..2000,
        sigma in 0.0f64..1.0,
        rho in 0.0f64..0.999,
    ) {
        let cfg = CongestionConfig { sigma, rho, ..CongestionConfig::default() };
        let a = CongestionSeries::generate(&cfg, minutes, seed);
        let b = CongestionSeries::generate(&cfg, minutes, seed);
        prop_assert_eq!(a.multipliers(), b.multipliers());
        prop_assert_eq!(a.len(), minutes);
        for &m in a.multipliers() {
            prop_assert!(m.is_finite() && m > 0.0);
        }
    }
}
