//! Online regime-shift detection over the streaming window.
//!
//! The paper's whole premise is that latency regimes shift naturally; this
//! module notices those shifts *as they happen* instead of averaging them
//! away. Per activity stream (the pooled slice plus one stream per
//! analyzed action type) it buckets event time, summarizes each bucket by
//! two robust statistics — the median log-latency **level** and the
//! MSD/MAD **locality** ratio — and runs a two-sided CUSUM on
//! seasonally-differenced robust z-scores of each statistic.
//!
//! ## Detector math (DESIGN.md §6g)
//!
//! The detector has one setting, [`DetectorConfig::threshold_scale`];
//! everything else is a constant of this module.
//!
//! * Bucket `b` of width [`BUCKET_MS`] (15 min) collects the latencies of
//!   its records; buckets with fewer than 8 samples are skipped.
//! * The seasonal reference of bucket `b` is the median of the same
//!   time-of-day bucket on the previous 2..=7 days, so the diurnal cycle
//!   cancels instead of alarming every rush hour. Residual
//!   `r_b = stat_b - reference_b`.
//! * Residuals are standardized by a single robust scale per stream and
//!   signal: `s = max(1.4826 · MAD(r), 0.02)`. `z_b = (r_b - offset) / s`,
//!   where `offset` re-anchors after each confirmed shift (median residual
//!   of the trailing 8 buckets), so a persistent level change alarms once
//!   per boundary, not once per bucket.
//! * Two-sided CUSUM: `S⁺ ← max(0, S⁺ + z - k)`, `S⁻ ← max(0, S⁻ - z -
//!   k)` with drift `k = 0.75`; an alarm fires when either side exceeds
//!   the threshold `h`.
//! * `h` is deterministic: it is calibrated by Monte Carlo — 64 null runs
//!   of i.i.d. standard normal z-series of the same length (Box–Muller
//!   over `StdRng::seed_from_u64(mix(rep))`), taking the largest null
//!   CUSUM excursion seen and scaling it by `threshold_scale` to absorb
//!   the residual autocorrelation a real stream carries.
//!
//! An alarm is classified **shared** when alarms from ≥ 2 distinct
//! per-action streams land in the same (or adjacent) calendar bucket —
//! the cross-slice correlation of *Less is More*: a shared anomaly points
//! at the service, a slice-local one at the slice.
//!
//! Detection is a pure function of the merged record sequence and the
//! config — no wall clock, no global RNG — so any thread count, restart,
//! or replay produces bit-identical shifts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use autosens_stats::succdiff::msd_mad_ratio;
use autosens_telemetry::record::ActionType;

use crate::error::StreamError;

const DAY_MS: i64 = 86_400_000;

/// Event-time bucket width, ms (15 minutes). Divides a day, so the
/// seasonal reference aligns buckets across days.
pub const BUCKET_MS: i64 = 15 * 60_000;
/// Minimum samples for a bucket to be scored.
const MIN_BUCKET_N: usize = 8;
/// Minimum prior same-time-of-day buckets required before a bucket is
/// scored (warm-up: the first `MIN_REF_DAYS` days never alarm).
const MIN_REF_DAYS: usize = 2;
/// How many prior days the seasonal reference may look back.
const MAX_REF_DAYS: usize = 7;
/// CUSUM drift `k`, in robust-z units; shifts smaller than `k·σ` per
/// bucket are ignored by design.
const DRIFT: f64 = 0.75;
/// Null Monte Carlo replicates calibrating the CUSUM threshold.
const CALIBRATION_REPS: usize = 64;
/// Post-alarm cooldown, in buckets: after an alarm the detector skips
/// this many buckets, then re-anchors the level to their median — so one
/// boundary alarms once instead of ringing while the statistics settle.
const REANCHOR: usize = 8;
/// Floor on the robust scale `s` (in the statistic's own units —
/// log-latency for `level`): shifts smaller than this are noise by
/// definition, and a near-constant stream cannot manufacture huge
/// z-scores out of a microscopic MAD.
const MIN_SCALE: f64 = 0.02;

fn default_threshold_scale() -> f64 {
    1.5
}

/// Configuration of the regime-shift detector: the one setting callers
/// vary. Everything else is a constant of this module. Defaults are tuned
/// so a clean simulated stream (diurnal cycle + AR(1) noise, no
/// incidents) produces zero alarms while a planted congestion regime is
/// caught within a few buckets — the `regime` experiment scores exactly
/// that, with its own `threshold_scale`.
///
/// Checkpoints written when the detector had eleven settings still
/// parse: members other than `threshold_scale` are ignored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Safety multiplier applied to the calibrated CUSUM threshold.
    #[serde(default = "default_threshold_scale")]
    pub threshold_scale: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            threshold_scale: default_threshold_scale(),
        }
    }
}

impl DetectorConfig {
    /// Structural validation.
    pub fn validate(&self) -> Result<(), StreamError> {
        // NaN-rejecting: a NaN fails every comparison, so it must be
        // checked explicitly rather than via a negated comparison.
        if self.threshold_scale.is_nan() || self.threshold_scale <= 0.0 {
            return Err(StreamError::Corrupt(
                "detector threshold_scale must be > 0".into(),
            ));
        }
        Ok(())
    }
}

/// One confirmed regime boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegimeShift {
    /// `"pooled"` or the action-type name of the stream that alarmed.
    pub stream: String,
    /// `"level"` (median log-latency) or `"locality"` (MSD/MAD ratio).
    pub signal: String,
    /// Start of the event-time bucket in which the alarm fired, ms.
    pub bucket_start_ms: i64,
    /// The event-time instant detection became possible (bucket end), ms.
    pub detected_at_ms: i64,
    /// `"up"` (statistic rose) or `"down"`.
    pub direction: String,
    /// The CUSUM excursion at alarm time, in robust-z units.
    pub magnitude_z: f64,
    /// `true` when ≥ 2 distinct per-action streams alarm in the same or an
    /// adjacent calendar bucket — a shared (service-wide) anomaly rather
    /// than a slice-local one.
    pub shared: bool,
}

/// Median of a non-empty slice (midpoint-averaged for even lengths).
fn median(values: &[f64]) -> f64 {
    debug_assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite statistic"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The largest null CUSUM excursion over `CALIBRATION_REPS` seeded
/// standard-normal series of length `len`, times `threshold_scale`.
fn calibrated_threshold(cfg: &DetectorConfig, len: usize) -> f64 {
    let mut worst = 0.0f64;
    for rep in 0..CALIBRATION_REPS {
        let mix = (rep as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
        let mut rng = StdRng::seed_from_u64(mix);
        let (mut sp, mut sm) = (0.0f64, 0.0f64);
        for _ in 0..len {
            // Box–Muller: one standard normal per pair of uniforms.
            let u1: f64 = 1.0 - rng.gen::<f64>();
            let u2: f64 = rng.gen::<f64>();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            sp = (sp + z - DRIFT).max(0.0);
            sm = (sm - z - DRIFT).max(0.0);
            worst = worst.max(sp).max(sm);
        }
    }
    worst * cfg.threshold_scale
}

/// Score one (stream, signal) statistic series: seasonal differencing,
/// robust standardization, then the re-anchoring two-sided CUSUM.
fn score_series(
    series: &[(i64, f64)],
    slots_per_day: i64,
    cfg: &DetectorConfig,
    stream: &str,
    signal: &str,
    out: &mut Vec<RegimeShift>,
) {
    use std::collections::BTreeMap;
    let by_bucket: BTreeMap<i64, f64> = series.iter().copied().collect();
    let mut residuals: Vec<(i64, f64)> = Vec::new();
    for &(b, v) in series {
        let refs: Vec<f64> = (1..=MAX_REF_DAYS as i64)
            .filter_map(|d| by_bucket.get(&(b - d * slots_per_day)).copied())
            .collect();
        if refs.len() >= MIN_REF_DAYS {
            residuals.push((b, v - median(&refs)));
        }
    }
    if residuals.len() < 2 {
        return;
    }
    let rs: Vec<f64> = residuals.iter().map(|&(_, r)| r).collect();
    let med = median(&rs);
    let devs: Vec<f64> = rs.iter().map(|r| (r - med).abs()).collect();
    let scale = (1.4826 * median(&devs)).max(MIN_SCALE);
    if scale.is_nan() || scale <= 1e-12 {
        return; // a constant statistic has no regimes to detect
    }
    let h = calibrated_threshold(cfg, residuals.len());
    let (mut sp, mut sm) = (0.0f64, 0.0f64);
    let mut offset = 0.0f64;
    let mut i = 0usize;
    while i < residuals.len() {
        let (b, r) = residuals[i];
        let z = (r - offset) / scale;
        sp = (sp + z - DRIFT).max(0.0);
        sm = (sm - z - DRIFT).max(0.0);
        if sp > h || sm > h {
            let up = sp >= sm;
            out.push(RegimeShift {
                stream: stream.to_string(),
                signal: signal.to_string(),
                bucket_start_ms: b * BUCKET_MS,
                detected_at_ms: (b + 1) * BUCKET_MS,
                direction: if up { "up" } else { "down" }.to_string(),
                magnitude_z: sp.max(sm),
                shared: false,
            });
            // Cooldown: skip the next `REANCHOR` buckets, then re-anchor
            // the level to their median, so one boundary alarms once
            // instead of ringing while the statistics settle.
            let end = (i + REANCHOR).min(residuals.len() - 1);
            let settled: Vec<f64> = residuals[i..=end].iter().map(|&(_, r)| r).collect();
            offset = median(&settled);
            sp = 0.0;
            sm = 0.0;
            i = end + 1;
            continue;
        }
        i += 1;
    }
}

/// Detect regime shifts over a merged, time-sorted record sequence given
/// as parallel columns. Pure and deterministic: the output is a function
/// of `(times, latencies, actions, cfg)` only.
pub fn detect_regimes(
    times: &[i64],
    latencies: &[f64],
    actions: &[u8],
    cfg: &DetectorConfig,
) -> Result<Vec<RegimeShift>, StreamError> {
    use std::collections::BTreeMap;
    cfg.validate()?;
    debug_assert_eq!(times.len(), latencies.len());
    debug_assert_eq!(times.len(), actions.len());
    let slots_per_day = DAY_MS / BUCKET_MS;

    // Streams: pooled plus one per analyzed action type present.
    let mut streams: Vec<(String, Option<u8>)> = vec![("pooled".into(), None)];
    for a in ActionType::analyzed() {
        if actions.contains(&a.code()) {
            streams.push((a.name().to_string(), Some(a.code())));
        }
    }

    let mut shifts: Vec<RegimeShift> = Vec::new();
    for (name, code) in &streams {
        // Bucket the stream's latencies by event time.
        let mut buckets: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
        for i in 0..times.len() {
            if code.is_none_or(|c| actions[i] == c) {
                buckets
                    .entry(times[i].div_euclid(BUCKET_MS))
                    .or_default()
                    .push(latencies[i]);
            }
        }
        let mut level: Vec<(i64, f64)> = Vec::new();
        let mut locality: Vec<(i64, f64)> = Vec::new();
        for (&b, lats) in &buckets {
            if lats.len() < MIN_BUCKET_N {
                continue;
            }
            let logs: Vec<f64> = lats.iter().map(|&l| l.max(1e-9).ln()).collect();
            level.push((b, median(&logs)));
            if let Ok(ratio) = msd_mad_ratio(lats) {
                locality.push((b, ratio));
            }
        }
        score_series(&level, slots_per_day, cfg, name, "level", &mut shifts);
        score_series(&locality, slots_per_day, cfg, name, "locality", &mut shifts);
    }

    // Cross-slice correlation: a shift is shared when distinct per-action
    // streams alarm in the same or an adjacent calendar bucket.
    let action_alarms: Vec<(String, i64)> = shifts
        .iter()
        .filter(|s| s.stream != "pooled")
        .map(|s| (s.stream.clone(), s.bucket_start_ms / BUCKET_MS))
        .collect();
    for s in &mut shifts {
        let b = s.bucket_start_ms / BUCKET_MS;
        let mut nearby: Vec<&str> = action_alarms
            .iter()
            .filter(|(_, ab)| (ab - b).abs() <= 1)
            .map(|(stream, _)| stream.as_str())
            .collect();
        nearby.sort_unstable();
        nearby.dedup();
        s.shared = nearby.len() >= 2;
    }
    shifts.sort_by(|a, b| {
        (a.detected_at_ms, &a.stream, &a.signal).cmp(&(b.detected_at_ms, &b.stream, &b.signal))
    });
    Ok(shifts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-noise in [-amp, amp] without an RNG.
    fn jitter(i: i64, amp: f64) -> f64 {
        let x = ((i.wrapping_mul(2654435761) >> 7) % 1000) as f64 / 1000.0;
        (x - 0.5) * 2.0 * amp
    }

    /// A synthetic stream: one record per 30 s around 200 ms latency with a
    /// diurnal swing, multiplied by `mult(t_ms)` — regimes are
    /// multiplicative in latency (additive in log space), matching how the
    /// simulator plants them.
    fn synth(days: i64, mult: impl Fn(i64) -> f64) -> (Vec<i64>, Vec<f64>, Vec<u8>) {
        let mut times = Vec::new();
        let mut lats = Vec::new();
        let mut actions = Vec::new();
        let mut i = 0i64;
        let mut t = 0i64;
        while t < days * DAY_MS {
            let phase = (t % DAY_MS) as f64 / DAY_MS as f64 * std::f64::consts::TAU;
            let diurnal = 40.0 * phase.sin();
            times.push(t);
            lats.push(((200.0 + diurnal + jitter(i, 12.0)) * mult(t)).max(1.0));
            actions.push(ActionType::SelectMail.code());
            t += 30_000;
            i += 1;
        }
        (times, lats, actions)
    }

    #[test]
    fn clean_stream_produces_zero_alarms() {
        let (times, lats, actions) = synth(8, |_| 1.0);
        let shifts = detect_regimes(&times, &lats, &actions, &DetectorConfig::default()).unwrap();
        assert!(shifts.is_empty(), "false positives: {shifts:?}");
    }

    #[test]
    fn planted_step_is_detected_up_then_down_within_bound() {
        // Step up 4 days in, back down at day 6: latency ×2.5 in between.
        let on = 4 * DAY_MS;
        let off = 6 * DAY_MS;
        let (times, lats, actions) = synth(8, |t| if (on..off).contains(&t) { 2.5 } else { 1.0 });
        let cfg = DetectorConfig::default();
        let shifts = detect_regimes(&times, &lats, &actions, &cfg).unwrap();
        let level: Vec<&RegimeShift> = shifts
            .iter()
            .filter(|s| s.stream == "pooled" && s.signal == "level")
            .collect();
        let up = level
            .iter()
            .find(|s| s.direction == "up")
            .expect("missing up alarm");
        let down = level
            .iter()
            .find(|s| s.direction == "down")
            .expect("missing down alarm");
        // Detection latency bound: 8 buckets (2 hours at the default
        // 15-minute bucket) — the bound DESIGN.md documents and ci.sh
        // enforces through the regime experiment.
        let bound = 8 * BUCKET_MS;
        assert!(
            up.detected_at_ms >= on && up.detected_at_ms - on <= bound,
            "up detected at {} for boundary {on}",
            up.detected_at_ms
        );
        assert!(
            down.detected_at_ms >= off && down.detected_at_ms - off <= bound,
            "down detected at {} for boundary {off}",
            down.detected_at_ms
        );
    }

    #[test]
    fn detection_is_deterministic() {
        let on = 4 * DAY_MS;
        let (times, lats, actions) = synth(6, |t| if t >= on { 2.2 } else { 1.0 });
        let cfg = DetectorConfig::default();
        let a = detect_regimes(&times, &lats, &actions, &cfg).unwrap();
        let b = detect_regimes(&times, &lats, &actions, &cfg).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn multi_stream_alarms_are_classified_shared() {
        // Two action streams shift at the same instant → shared anomaly.
        let on = 4 * DAY_MS;
        let (mut times, mut lats, mut actions) = synth(7, |t| if t >= on { 2.3 } else { 1.0 });
        let n = times.len();
        for i in 0..n {
            // Interleave a second action type with the same latency shape,
            // offset by 5 s so timestamps stay sorted after merge.
            times.push(times[i] + 5_000);
            lats.push(lats[i]);
            actions.push(ActionType::SwitchFolder.code());
        }
        // Re-sort the merged columns by time (stable on ties).
        let mut idx: Vec<usize> = (0..times.len()).collect();
        idx.sort_by_key(|&i| (times[i], i));
        let times: Vec<i64> = idx.iter().map(|&i| times[i]).collect();
        let lats: Vec<f64> = idx.iter().map(|&i| lats[i]).collect();
        let actions: Vec<u8> = idx.iter().map(|&i| actions[i]).collect();

        let shifts = detect_regimes(&times, &lats, &actions, &DetectorConfig::default()).unwrap();
        let up: Vec<&RegimeShift> = shifts
            .iter()
            .filter(|s| s.signal == "level" && s.direction == "up")
            .collect();
        assert!(up.len() >= 2, "expected alarms on both streams: {shifts:?}");
        assert!(
            up.iter().all(|s| s.shared),
            "coincident cross-stream alarms must be shared: {up:?}"
        );
    }

    #[test]
    fn bad_configs_are_rejected() {
        for threshold_scale in [0.0, -1.0, f64::NAN] {
            let cfg = DetectorConfig { threshold_scale };
            assert!(cfg.validate().is_err(), "{threshold_scale} accepted");
        }
        assert!(DetectorConfig::default().validate().is_ok());
    }

    #[test]
    fn calibrated_threshold_is_stable_and_scales() {
        let cfg = DetectorConfig::default();
        let a = calibrated_threshold(&cfg, 500);
        let b = calibrated_threshold(&cfg, 500);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!(a > DRIFT, "threshold {a} implausibly small");
        let doubled = DetectorConfig {
            threshold_scale: 2.0 * cfg.threshold_scale,
        };
        assert_eq!(calibrated_threshold(&doubled, 500), 2.0 * a);
    }
}
