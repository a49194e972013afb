//! Beyond the paper: detection latency of the online regime-shift
//! detector against planted ground truth.
//!
//! The simulator can plant congestion regimes with *known* boundaries
//! ([`autosens_sim::RegimeWindow`]): between two instants the global
//! latency multiplier shifts by a fixed log factor, on top of the usual
//! diurnal cycle and AR(1) drift. This artifact runs the streaming
//! engine's detector over two such datasets:
//!
//! * **clean** — identical config, no planted windows. The detector must
//!   stay silent: zero alarms across every stream and signal. This is the
//!   false-positive gate.
//! * **planted** — two regime windows (each a sharp up-shift followed by
//!   a recovery), four labeled boundaries total. Every boundary must be
//!   reported by the pooled level detector, in the right direction,
//!   within the documented lateness bound of [`BOUND_BUCKETS`] detector
//!   buckets (2 h at the default 15-minute bucket) — see DESIGN.md §6g.
//!
//! `results/regime_detection.csv` carries one row per planted boundary
//! with its detection latency; ci.sh runs this artifact at bench scale
//! and fails the build when a check regresses.

use autosens_core::report::text_table;
use autosens_sim::config::{Scenario, SimConfig};
use autosens_sim::{generate, RegimeWindow};
use autosens_stream::{DetectorConfig, RegimeShift, StreamConfig, StreamEngine};
use autosens_telemetry::query::Slice;

use super::{Artifact, ShapeCheck};

const DAY_MS: i64 = 86_400_000;

/// The documented detection-latency bound, in detector buckets. With the
/// default 15-minute bucket this is 2 hours of event time.
pub const BOUND_BUCKETS: i64 = 8;

/// Planted log-space shift: e^1.1 ≈ 3× latency while the regime holds —
/// the scale of a serious production incident, well clear of the AR(1)
/// congestion drift (stationary σ = 0.5).
const SHIFT_LOG: f64 = 1.1;

/// The planted schedule: two regimes, all four boundaries aligned to the
/// detector's bucket lattice and placed in *busy* hours (sparse night
/// buckets fail `min_bucket_n` and would stall detection), with ≥ 2 clean
/// warm-up days before the first boundary (the seasonal reference needs
/// `min_ref_days` days of history).
fn planted_windows() -> Vec<RegimeWindow> {
    let hour = DAY_MS / 24;
    vec![
        RegimeWindow {
            start_ms: 5 * DAY_MS + 10 * hour,
            end_ms: 6 * DAY_MS + 16 * hour,
            log_multiplier: SHIFT_LOG,
        },
        RegimeWindow {
            start_ms: 9 * DAY_MS + 9 * hour,
            end_ms: 9 * DAY_MS + 19 * hour,
            log_multiplier: SHIFT_LOG,
        },
    ]
}

/// The sim config both runs share: smoke scale with random incidents
/// disabled (so the only regime boundaries are the planted ones and the
/// clean twin is provably boundary-free) and with the AR(1) congestion
/// drift tamed. The default rho of 0.985/min keeps ~0.8 correlation
/// between adjacent 15-minute buckets — hours-long stochastic excursions
/// that *are* regime shifts to any online detector and would swamp the
/// planted ground truth. rho = 0.9/min (≈ 0.2 at bucket lag) makes the
/// bucket series near-white, matching the detector's calibrated null.
fn sim_config(windows: Vec<RegimeWindow>) -> SimConfig {
    let mut cfg = SimConfig::scenario(Scenario::Smoke);
    cfg.congestion.incident_rate_per_min = 0.0;
    cfg.congestion.rho = 0.9;
    cfg.congestion.sigma = 0.15;
    cfg.congestion.regimes = windows;
    cfg
}

/// The default threshold scale (1.5× the calibrated white-noise null) is
/// tuned for operator alerting; for a pass/fail CI gate we trade a little
/// detection latency for a hard zero-false-positive requirement. Planted
/// e^1.1 shifts alarm at z ≈ 11+, so the margin is wide.
fn detector_config() -> DetectorConfig {
    DetectorConfig {
        threshold_scale: 2.5,
        ..DetectorConfig::default()
    }
}

/// Run the detector over a generated dataset, via the streaming engine.
fn detect(windows: Vec<RegimeWindow>) -> Result<Vec<RegimeShift>, String> {
    let (log, _) = generate(&sim_config(windows)).map_err(|e| e.to_string())?;
    let config = StreamConfig {
        detector: Some(detector_config()),
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::new(config, Slice::all()).map_err(|e| e.to_string())?;
    for r in log.view().iter() {
        engine.push(r);
    }
    engine.run_detection().map_err(|e| e.to_string())
}

fn fail(reason: String) -> Artifact {
    Artifact {
        id: "regime",
        title: "Regime-shift detection latency vs planted ground truth (beyond the paper)",
        rendered: format!("{reason}\n"),
        csv: vec![],
        checks: vec![ShapeCheck::new("runs completed", false, reason)],
    }
}

/// Score the detector against planted boundaries (regenerates two
/// smoke-scale datasets: one planted, one clean).
pub fn generate_regime() -> Artifact {
    let cfg = detector_config();
    let bound_ms = BOUND_BUCKETS * cfg.bucket_ms;

    let clean = match detect(Vec::new()) {
        Ok(s) => s,
        Err(e) => return fail(format!("clean run failed: {e}")),
    };
    let planted = match detect(planted_windows()) {
        Ok(s) => s,
        Err(e) => return fail(format!("planted run failed: {e}")),
    };

    // Labeled boundaries: each window opens with an up-shift and closes
    // with a down-shift.
    let mut boundaries: Vec<(i64, &'static str)> = Vec::new();
    for w in planted_windows() {
        boundaries.push((w.start_ms, "up"));
        boundaries.push((w.end_ms, "down"));
    }
    boundaries.sort_unstable();

    // Match each boundary to the first pooled level alarm of the right
    // direction inside [boundary, boundary + bound].
    let pooled_level: Vec<&RegimeShift> = planted
        .iter()
        .filter(|s| s.stream == "pooled" && s.signal == "level")
        .collect();
    let mut rows = Vec::new();
    let mut csv = String::from("boundary_ms,direction,detected_ms,latency_min,matched\n");
    let mut all_matched = true;
    let mut worst_latency_ms: i64 = 0;
    for &(boundary, direction) in &boundaries {
        let hit = pooled_level.iter().find(|s| {
            s.direction == direction && (boundary..=boundary + bound_ms).contains(&s.detected_at_ms)
        });
        let matched = hit.is_some();
        all_matched &= matched;
        let (detected, latency_min) = match hit {
            Some(s) => {
                worst_latency_ms = worst_latency_ms.max(s.detected_at_ms - boundary);
                (
                    s.detected_at_ms.to_string(),
                    format!("{:.0}", (s.detected_at_ms - boundary) as f64 / 60_000.0),
                )
            }
            None => ("-".into(), "-".into()),
        };
        rows.push(vec![
            boundary.to_string(),
            direction.to_string(),
            detected.clone(),
            latency_min.clone(),
            matched.to_string(),
        ]);
        csv.push_str(&format!(
            "{boundary},{direction},{},{},{matched}\n",
            if detected == "-" { "" } else { &detected },
            if latency_min == "-" { "" } else { &latency_min },
        ));
    }

    // Alarms that sit near no boundary are false positives even on the
    // planted run (the planted windows are the only real boundaries).
    let spurious: Vec<&&RegimeShift> = pooled_level
        .iter()
        .filter(|s| {
            !boundaries
                .iter()
                .any(|&(b, _)| (b..=b + bound_ms).contains(&s.detected_at_ms))
        })
        .collect();

    let checks = vec![
        ShapeCheck::new(
            "clean run produces zero alarms (all streams, all signals)",
            clean.is_empty(),
            format!("{} alarm(s): {clean:?}", clean.len()),
        ),
        ShapeCheck::new(
            format!(
                "every planted boundary detected within {} buckets ({} min)",
                BOUND_BUCKETS,
                bound_ms / 60_000
            ),
            all_matched,
            format!(
                "worst latency {} min of {} allowed",
                worst_latency_ms / 60_000,
                bound_ms / 60_000
            ),
        ),
        ShapeCheck::new(
            "no pooled level alarms away from planted boundaries",
            spurious.is_empty(),
            format!("{} spurious alarm(s): {spurious:?}", spurious.len()),
        ),
    ];

    let rendered = format!(
        "regime-shift detection vs planted ground truth\n\
         ({} planted boundaries, lateness bound {} buckets = {} min;\n\
         clean-twin alarms: {})\n\n{}",
        boundaries.len(),
        BOUND_BUCKETS,
        bound_ms / 60_000,
        clean.len(),
        text_table(
            &[
                "boundary (ms)",
                "direction",
                "detected (ms)",
                "latency (min)",
                "matched"
            ],
            &rows
        )
    );

    Artifact {
        id: "regime",
        title: "Regime-shift detection latency vs planted ground truth (beyond the paper)",
        rendered,
        csv: vec![("regime_detection".to_string(), csv)],
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regime_artifact_passes_its_own_gate() {
        let art = generate_regime();
        assert!(art.all_pass(), "{}", art.render_checks());
        let (stem, body) = &art.csv[0];
        assert_eq!(stem, "regime_detection");
        assert!(body.starts_with("boundary_ms,direction,detected_ms,latency_min,matched\n"));
        // One row per planted boundary, all matched.
        let rows: Vec<&str> = body.lines().skip(1).collect();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.ends_with(",true")), "{body}");
    }
}
