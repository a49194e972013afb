//! Quality ablations for the design choices in DESIGN.md §6:
//!
//! * the user *sensing model* — recovery must survive the behaviourally
//!   realistic EMA model, not just the oracle;
//! * the *unbiased draw budget* — more draws must not change the answer,
//!   only its noise;
//! * the *smoothing operator* — Savitzky–Golay vs. simple alternatives.

mod common;

use autosens_core::{AnalysisPlan, AutoSensConfig, PlanInput, RunOptions};
use autosens_sim::generate;
use autosens_sim::preference::SensingMode;
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionType, UserClass};

fn slice() -> Slice {
    Slice::all()
        .action(ActionType::SelectMail)
        .class(UserClass::Business)
}

#[test]
fn recovery_survives_realistic_sensing_models() {
    // Regenerate the validation scenario under each sensing model. The
    // oracle plants the exact curve; Level removes per-action noise from
    // the user's decision; EMA delays sensing through experienced latency.
    // All three must yield a decreasing preference; the EMA curve may be
    // diluted but must still show clear sensitivity.
    for (name, mode, max_at_1000) in [
        ("oracle", SensingMode::Oracle, 0.85),
        ("level", SensingMode::Level, 0.85),
        ("ema", SensingMode::Ema { beta: 0.9 }, 0.97),
    ] {
        let mut cfg = common::validation_config();
        cfg.sensing = mode;
        let (log, _) = generate(&cfg).expect("valid");
        let report = common::run_slice(&log, &slice()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let v500 = report.preference.at(500.0).expect("supported");
        let v1000 = report.preference.at(1000.0).expect("supported");
        assert!(
            v1000 < v500,
            "{name}: curve should decrease ({v500:.3} -> {v1000:.3})"
        );
        assert!(
            v1000 < max_at_1000,
            "{name}: expected sensitivity at 1000 ms, got {v1000:.3}"
        );
    }
}

#[test]
fn draw_budget_changes_noise_not_signal() {
    let (log, _) = common::data();
    let run = |draws: usize| {
        AnalysisPlan::new(AutoSensConfig {
            unbiased_draws: draws,
            ..AutoSensConfig::default()
        })
        .run(PlanInput::slice(log, &slice()), RunOptions::default())
        .expect("fits")
        .report
    };
    let small = run(96_000);
    let large = run(480_000);
    for probe in [500.0, 800.0, 1100.0] {
        let a = small.preference.at(probe).expect("supported");
        let b = large.preference.at(probe).expect("supported");
        assert!(
            (a - b).abs() < 0.08,
            "@{probe}: {a:.3} (96k draws) vs {b:.3} (480k draws)"
        );
    }
}

#[test]
fn savgol_beats_simple_smoothers_on_curve_fidelity() {
    // Fit the same raw ratio with SavGol, a moving average, and a median
    // filter, and compare against the planted truth. SavGol must be at
    // least as faithful as the alternatives (it preserves curvature that a
    // boxcar flattens).
    use autosens_stats::{savgol::SavGol, smoothing};
    let (log, truth) = common::data();
    let report = common::run_slice(log, &slice()).expect("fits");
    let raw = report.preference.raw_series();
    assert!(raw.len() > 60);
    let xs: Vec<f64> = raw.iter().map(|(x, _)| *x).collect();
    let ys: Vec<f64> = raw.iter().map(|(_, y)| *y).collect();

    let savgol = SavGol::new(101, 3).expect("valid").smooth(&ys).expect("ok");
    let boxcar = smoothing::moving_average(&ys, 101).expect("ok");
    let median = smoothing::median_filter(&ys, 101).expect("ok");

    // Normalize each smoothed series at its ~300 ms point and compute the
    // error against the planted truth over 400..1200 ms.
    let idx300 = xs.iter().position(|&x| x >= 300.0).expect("covers 300ms");
    let mae = |s: &[f64]| -> f64 {
        let refv = s[idx300];
        let mut err = 0.0;
        let mut n = 0;
        for (i, &x) in xs.iter().enumerate() {
            if (400.0..=1200.0).contains(&x) {
                let planted = truth.normalized_preference(
                    ActionType::SelectMail,
                    UserClass::Business,
                    x,
                    300.0,
                );
                err += (s[i] / refv - planted).abs();
                n += 1;
            }
        }
        err / n as f64
    };
    let e_savgol = mae(&savgol);
    let e_boxcar = mae(&boxcar);
    let e_median = mae(&median);
    assert!(
        e_savgol <= e_boxcar + 0.01,
        "savgol {e_savgol:.4} vs boxcar {e_boxcar:.4}"
    );
    assert!(
        e_savgol <= e_median + 0.01,
        "savgol {e_savgol:.4} vs median {e_median:.4}"
    );
    // And it must actually be a good fit in absolute terms.
    assert!(
        e_savgol < 0.12,
        "savgol MAE vs planted truth = {e_savgol:.4}"
    );
}
