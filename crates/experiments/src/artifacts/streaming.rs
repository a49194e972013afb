//! Beyond the paper: streaming-vs-batch fidelity under a lateness budget.
//!
//! The streaming engine admits out-of-order arrivals up to an allowed
//! lateness behind the event-time frontier; anything older is
//! counted-and-dropped at the watermark. This artifact sweeps that budget
//! against a fixed reorder fault (timestamp jitter up to ±30 min injected
//! at the ingest boundary) and reports, per budget: how many events fell
//! past the watermark, the curve's mean absolute deviation from the batch
//! analysis of the same corrupted log, and whether the streamed snapshot
//! is *bit-identical* to batch. The headline claim: once the budget
//! covers the worst-case lag — **twice** the maximum shift, since jitter
//! both advances the frontier (a +30 min outlier) and delays records (a
//! −30 min outlier arriving after it) — drops hit zero and equality is
//! exact, not approximate.

use autosens_core::report::text_table;
use autosens_core::{AnalysisPlan, AutoSensConfig, PlanInput, RunOptions};
use autosens_faults::{FaultOp, FaultPlan};
use autosens_sim::config::{Scenario, SimConfig};
use autosens_sim::generate;
use autosens_stream::{StreamConfig, StreamEngine};
use autosens_telemetry::log::TelemetryLog;
use autosens_telemetry::query::Slice;

use super::{Artifact, ShapeCheck};

/// Seed for the reorder plan.
const PLAN_SEED: u64 = 0x57E4;

/// Maximum injected timestamp shift, ms (±30 min).
const MAX_SHIFT_MS: i64 = 30 * 60_000;

/// Fraction of records jittered.
const REORDER_RATE: f64 = 0.3;

/// Allowed-lateness budgets swept, in minutes.
const BUDGETS_MIN: [i64; 6] = [1, 5, 10, 20, 30, 60];

/// Probe grid for the curve comparison, ms.
fn probes() -> Vec<f64> {
    (200..=1400).step_by(100).map(|l| l as f64).collect()
}

fn curve_at_probes(report: &autosens_core::pipeline::AnalysisReport) -> Vec<(f64, f64)> {
    probes()
        .into_iter()
        .filter_map(|l| report.preference.at(l).map(|v| (l, v)))
        .collect()
}

fn mae(a: &[(f64, f64)], b: &[(f64, f64)]) -> Option<f64> {
    let mut err = 0.0;
    let mut n = 0;
    for (x, v) in a {
        if let Some((_, w)) = b.iter().find(|(bx, _)| bx == x) {
            err += (v - w).abs();
            n += 1;
        }
    }
    (n >= 6).then(|| err / n as f64)
}

fn bit_identical(
    a: &autosens_core::pipeline::AnalysisReport,
    b: &autosens_core::pipeline::AnalysisReport,
) -> bool {
    a.n_actions == b.n_actions
        && a.degradations == b.degradations
        && a.preference
            .series()
            .iter()
            .map(|(x, y)| (x.to_bits(), y.to_bits()))
            .eq(b
                .preference
                .series()
                .iter()
                .map(|(x, y)| (x.to_bits(), y.to_bits())))
}

fn fail(reason: String) -> Artifact {
    Artifact {
        id: "streaming",
        title: "Streaming fidelity vs lateness budget (beyond the paper)",
        rendered: format!("{reason}\n"),
        csv: vec![],
        checks: vec![ShapeCheck::new("sweep completed", false, reason)],
    }
}

/// Run the lateness sweep (regenerates a smoke-scale dataset).
pub fn generate_streaming() -> Artifact {
    let cfg = SimConfig::scenario(Scenario::Smoke);
    let log: TelemetryLog = match generate(&cfg) {
        Ok((log, _)) => log,
        Err(e) => return fail(format!("dataset generation failed: {e}")),
    };
    let plan = FaultPlan {
        seed: PLAN_SEED,
        ops: vec![FaultOp::Reorder {
            rate: REORDER_RATE,
            max_shift_ms: MAX_SHIFT_MS,
        }],
    };
    let corrupted = match plan.apply(&log) {
        Ok(l) => l,
        Err(e) => return fail(format!("fault injection failed: {e}")),
    };
    let batch = match AnalysisPlan::new(AutoSensConfig::default())
        .run(PlanInput::log(&corrupted), RunOptions::default())
    {
        Ok(out) => out.report,
        Err(e) => return fail(format!("batch analysis failed: {e}")),
    };
    let batch_curve = curve_at_probes(&batch);

    let mut rows = Vec::new();
    let mut points: Vec<(i64, u64, Option<f64>, bool)> = Vec::new();
    for &minutes in &BUDGETS_MIN {
        let stream_cfg = StreamConfig {
            analysis: AutoSensConfig::default(),
            shard_ms: 6 * 3_600_000,
            allowed_lateness_ms: minutes * 60_000,
            retain_ms: None,
            detector: None,
            decay_half_life_ms: None,
        };
        let mut engine = match StreamEngine::new(stream_cfg, Slice::all()) {
            Ok(e) => e,
            Err(e) => return fail(format!("engine construction failed: {e}")),
        };
        for r in corrupted.view().iter() {
            engine.push(r);
        }
        let status = engine.status();
        let (m, exact) = match engine.snapshot() {
            Ok(snap) => (
                mae(&batch_curve, &curve_at_probes(&snap)),
                bit_identical(&snap, &batch),
            ),
            Err(_) => (None, false),
        };
        points.push((minutes, status.late, m, exact));
        rows.push(vec![
            format!("{minutes} min"),
            status.late.to_string(),
            m.map(|m| format!("{m:.6}")).unwrap_or_else(|| "-".into()),
            if exact {
                "yes".into()
            } else {
                "no".to_string()
            },
        ]);
    }

    let mut rendered = String::from(
        "Streaming fidelity — lateness budget vs ±30 min reorder injection\n\
         (streamed snapshot compared against batch analysis of the same\n\
         corrupted log; \"exact\" = bit-identical curves and degradations)\n\n",
    );
    rendered.push_str(&text_table(
        &[
            "lateness budget",
            "late-dropped",
            "curve MAE vs batch",
            "exact",
        ],
        &rows,
    ));

    let csv = vec![("streaming_lateness".to_string(), {
        let mut s = String::from("lateness_min,late_dropped,curve_mae,bit_identical\n");
        for (minutes, late, m, exact) in &points {
            s.push_str(&format!(
                "{minutes},{late},{},{exact}\n",
                m.map(|m| m.to_string()).unwrap_or_default()
            ));
        }
        s
    })];

    // Worst-case lag behind the frontier is 2x the shift: a +shift outlier
    // advances the frontier, then a -shift outlier arrives behind it.
    let covered: Vec<&(i64, u64, Option<f64>, bool)> = points
        .iter()
        .filter(|(minutes, _, _, _)| minutes * 60_000 >= 2 * MAX_SHIFT_MS)
        .collect();
    let exact_when_covered = !covered.is_empty()
        && covered
            .iter()
            .all(|(_, late, _, exact)| *late == 0 && *exact);
    let drops_monotone = points.windows(2).all(|w| w[1].1 <= w[0].1);
    let tight_budget_drops = points
        .first()
        .map(|(_, late, _, _)| *late > 0)
        .unwrap_or(false);
    let checks = vec![
        ShapeCheck::new(
            "budget >= 2x max jitter gives zero drops and bit-exact equality",
            exact_when_covered,
            format!(
                "covered budgets: {:?}",
                covered
                    .iter()
                    .map(|(m, late, _, exact)| (*m, *late, *exact))
                    .collect::<Vec<_>>()
            ),
        ),
        ShapeCheck::new(
            "late drops decrease monotonically with the budget",
            drops_monotone,
            format!(
                "drops: {:?}",
                points
                    .iter()
                    .map(|(_, late, _, _)| *late)
                    .collect::<Vec<_>>()
            ),
        ),
        ShapeCheck::new(
            "an under-provisioned budget visibly drops events",
            tight_budget_drops,
            format!(
                "drops at 1 min: {:?}",
                points.first().map(|(_, l, _, _)| *l)
            ),
        ),
    ];

    Artifact {
        id: "streaming",
        title: "Streaming fidelity vs lateness budget (beyond the paper)",
        rendered,
        csv,
        checks,
    }
}
