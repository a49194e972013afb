//! The unbiased latency distribution `U` (§2.2).
//!
//! `U` approximates the latency the service would have delivered at times
//! *unrelated* to user behaviour. Direct measurements do not exist at such
//! times, so the paper's estimator draws instants uniformly at random over
//! the analysis span and, for each, takes the latency of the observed sample
//! nearest in time (breaking ties uniformly at random). Because instants are
//! drawn uniformly in *time* — not in proportion to action volume — slow
//! periods contribute according to their duration, undoing the activity
//! bias.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use autosens_exec::ExecReport;
use autosens_stats::binning::Binner;
use autosens_stats::histogram::Histogram;
use autosens_telemetry::log::LogView;
use autosens_telemetry::time::SimTime;

use crate::error::AutoSensError;

/// Estimate `U` over the whole span of a (sorted, non-empty) log.
///
/// Draws `n_draws` uniformly random instants in `[start, end]` and
/// histograms the latency of the nearest sample to each.
pub fn unbiased_histogram<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    n_draws: usize,
    rng: &mut R,
) -> Result<Histogram, AutoSensError> {
    let (start, end) = match (log.start_time(), log.end_time()) {
        (Some(s), Some(e)) => (s.millis(), e.millis()),
        _ => return Err(AutoSensError::EmptySlice("unbiased estimation".into())),
    };
    let windows = [(start, end)];
    unbiased_histogram_in_windows(log, binner, &windows, n_draws, rng)
}

/// Estimate `U` restricted to a set of time windows (each `[lo, hi]`,
/// inclusive), drawing instants uniformly over the union of the windows.
///
/// This is the slot-conditional variant used by the α machinery: the
/// windows are, e.g., every occurrence of the 14:00–15:00 hour across the
/// analysis span. Nearest-sample lookups still search the whole log — the
/// nearest observation to an instant inside a window may lie just outside
/// it, which is exactly the paper's estimator behaviour.
pub fn unbiased_histogram_in_windows<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    windows: &[(i64, i64)],
    n_draws: usize,
    rng: &mut R,
) -> Result<Histogram, AutoSensError> {
    if log.is_empty() {
        return Err(AutoSensError::EmptySlice("unbiased estimation".into()));
    }
    if n_draws == 0 {
        return Err(AutoSensError::BadConfig(
            "unbiased draws must be > 0".into(),
        ));
    }
    let lens: Vec<i64> = windows
        .iter()
        .map(|&(lo, hi)| if hi < lo { 0 } else { hi - lo + 1 })
        .collect();
    let total_len: i64 = lens.iter().sum();
    if total_len <= 0 {
        return Err(AutoSensError::BadConfig(
            "unbiased windows have zero total length".into(),
        ));
    }

    let mut h = Histogram::new(binner.clone());
    for _ in 0..n_draws {
        // Pick a window proportionally to its length, then an instant in it.
        let mut pick = rng.gen_range(0..total_len);
        let mut t = 0i64;
        for (i, &len) in lens.iter().enumerate() {
            if pick < len {
                t = windows[i].0 + pick;
                break;
            }
            pick -= len;
        }
        let (lo, hi) = log
            .nearest_in_time(SimTime(t))
            .map_err(AutoSensError::from)?;
        let idx = if hi - lo == 1 {
            lo
        } else {
            rng.gen_range(lo..hi)
        };
        h.record(log.latency_at(idx));
    }
    Ok(h)
}

/// Chunked [`unbiased_histogram`]: the draws run as a data-parallel job.
/// See [`unbiased_histogram_in_windows_par`] for the determinism contract.
pub fn unbiased_histogram_par<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    n_draws: usize,
    threads: usize,
    rng: &mut R,
) -> Result<(Histogram, ExecReport), AutoSensError> {
    let (start, end) = match (log.start_time(), log.end_time()) {
        (Some(s), Some(e)) => (s.millis(), e.millis()),
        _ => return Err(AutoSensError::EmptySlice("unbiased estimation".into())),
    };
    let windows = [(start, end)];
    unbiased_histogram_in_windows_par(log, binner, &windows, n_draws, threads, rng)
}

/// Chunked [`unbiased_histogram_in_windows`]: the draw budget is cut into
/// fixed-size chunks, each chunk draws from its own RNG stream (seeded
/// from one `u64` taken off the caller's `rng`, mixed with the chunk
/// index), and the per-chunk histograms merge in chunk order — so the
/// result is bit-identical for every thread count.
///
/// Each chunk pre-draws its `(pick, tie)` pairs, orders them by `pick`
/// (an offset into the union of the windows), and resolves them in one
/// forward sweep: a cursor over the window prefix sums maps each pick to
/// its instant, and a [`NearestCursor`] over the log's timestamps finds
/// the nearest samples, both moving forward only. Ordering by `pick` alone
/// is exact: every draw's bin depends only on its own `(pick, tie)`, and
/// draws that share a pick deposit the same weight, so swapping them
/// leaves every f64 sum — and the result's bits — unchanged.
///
/// [`NearestCursor`]: autosens_telemetry::log::NearestCursor
pub fn unbiased_histogram_in_windows_par<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    windows: &[(i64, i64)],
    n_draws: usize,
    threads: usize,
    rng: &mut R,
) -> Result<(Histogram, ExecReport), AutoSensError> {
    check_draw_inputs(log, n_draws)?;
    sweep_draws(
        "unbiased_draws",
        log,
        binner,
        windows,
        n_draws,
        threads,
        rng,
        |_| 1.0,
    )
}

/// The exponential-decay weight of an event-time instant `t_ms` relative to
/// a frontier (the freshest instant in the window): `0.5^(age / half_life)`
/// where `age = frontier_ms - t_ms`. Instants at the frontier weigh 1, one
/// half-life back weigh 0.5, and instants past the frontier are clamped to
/// weight 1 rather than amplified.
pub fn decay_weight(t_ms: i64, frontier_ms: i64, half_life_ms: i64) -> f64 {
    debug_assert!(half_life_ms > 0);
    let age = (frontier_ms - t_ms).max(0) as f64;
    0.5f64.powf(age / half_life_ms as f64)
}

/// Exponentially-decayed variant of [`unbiased_histogram_par`]: instants are
/// drawn uniformly over the whole span exactly as in the undecayed
/// estimator, but each draw deposits weight
/// `0.5^((frontier_ms - t) / half_life_ms)` instead of 1 — so the windowed
/// unbiased curve `U_w` tracks the *recent* latency environment while old
/// regimes fade geometrically. Drawing uniformly and decaying the weight
/// (rather than drawing from the decayed density) keeps the nearest-sample
/// sweep and the chunk/seed schedule identical to the lifetime estimator,
/// and the result bit-identical for every thread count.
#[allow(clippy::too_many_arguments)]
pub fn unbiased_histogram_decayed_par<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    half_life_ms: i64,
    frontier_ms: i64,
    n_draws: usize,
    threads: usize,
    rng: &mut R,
) -> Result<(Histogram, ExecReport), AutoSensError> {
    check_draw_inputs(log, n_draws)?;
    if half_life_ms <= 0 {
        return Err(AutoSensError::BadConfig(
            "decay half-life must be > 0 ms".into(),
        ));
    }
    let start = log.start_time().expect("non-empty").millis();
    let end = log.end_time().expect("non-empty").millis();
    sweep_draws(
        "unbiased_decayed_draws",
        log,
        binner,
        &[(start, end)],
        n_draws,
        threads,
        rng,
        |t| decay_weight(t, frontier_ms, half_life_ms),
    )
}

/// The input checks every chunked estimator makes before drawing.
fn check_draw_inputs(log: &LogView<'_>, n_draws: usize) -> Result<(), AutoSensError> {
    if log.is_empty() {
        return Err(AutoSensError::EmptySlice("unbiased estimation".into()));
    }
    if n_draws == 0 {
        return Err(AutoSensError::BadConfig(
            "unbiased draws must be > 0".into(),
        ));
    }
    Ok(())
}

/// The chunked draw job behind both public kernels: `n_draws` instants
/// uniform over the union of `windows`, each depositing `weight(instant)`
/// on the latency of its nearest sample (ties broken by the draw's own
/// random `tie`). See [`unbiased_histogram_in_windows_par`] for the sweep
/// and the determinism contract.
#[allow(clippy::too_many_arguments)]
fn sweep_draws<R: Rng>(
    job: &'static str,
    log: &LogView<'_>,
    binner: &Binner,
    windows: &[(i64, i64)],
    n_draws: usize,
    threads: usize,
    rng: &mut R,
    weight: impl Fn(i64) -> f64 + Sync,
) -> Result<(Histogram, ExecReport), AutoSensError> {
    // Cumulative window lengths: cum[i] = total length of windows[..i].
    let mut cum: Vec<i64> = Vec::with_capacity(windows.len() + 1);
    cum.push(0);
    for &(lo, hi) in windows {
        let len = if hi < lo { 0 } else { hi - lo + 1 };
        cum.push(cum.last().unwrap() + len);
    }
    let total_len = *cum.last().unwrap();
    if total_len <= 0 {
        return Err(AutoSensError::BadConfig(
            "unbiased windows have zero total length".into(),
        ));
    }
    // One sequential draw establishes the job's seed; every chunk then
    // derives its own stream, keeping the caller's RNG consumption (and
    // the draws themselves) independent of the worker count.
    let base_seed = rng.gen::<u64>();
    let (parts, report) = autosens_exec::run_chunks(
        job,
        n_draws,
        autosens_exec::chunk_size_for(n_draws),
        threads,
        |chunk, range| -> Result<Histogram, AutoSensError> {
            let mut nearest = log.nearest_cursor().map_err(AutoSensError::from)?;
            let mut rng = StdRng::seed_from_u64(autosens_exec::chunk_seed(base_seed, chunk as u64));
            let mut draws: Vec<(i64, u64)> = range
                .map(|_| (rng.gen_range(0..total_len), rng.gen::<u64>()))
                .collect();
            sort_by_pick(&mut draws, total_len);
            let mut h = Histogram::new(binner.clone());
            let mut w = 0usize;
            for (pick, tie) in draws {
                // Advance to the window owning this pick; zero-length
                // windows are skipped because their cum entry equals the
                // next window's.
                while cum[w + 1] <= pick {
                    w += 1;
                }
                let t = windows[w].0 + (pick - cum[w]);
                let (lo, hi) = nearest.nearest(SimTime(t));
                let idx = if hi - lo == 1 {
                    lo
                } else {
                    lo + (tie as usize) % (hi - lo)
                };
                h.record_weighted(log.latency_at(idx), weight(t));
            }
            Ok(h)
        },
    )?;
    let mut pooled = Histogram::new(binner.clone());
    for part in parts {
        pooled.merge(&part?).map_err(AutoSensError::from)?;
    }
    Ok((pooled, report))
}

/// Order draws by `pick` (every pick in `0..bound`) with an LSD radix sort
/// on 8-bit digits, one stable counting pass per digit that `bound - 1`
/// uses. Draws sharing a pick keep their drawing order, which is as good
/// as any order (see [`unbiased_histogram_in_windows_par`]).
fn sort_by_pick(draws: &mut Vec<(i64, u64)>, bound: i64) {
    debug_assert!(draws.iter().all(|&(p, _)| (0..bound).contains(&p)));
    let bits = u64::BITS - ((bound - 1) as u64).leading_zeros();
    let mut scratch: Vec<(i64, u64)> = vec![(0, 0); draws.len()];
    for shift in (0..bits).step_by(8) {
        let digit = |p: i64| ((p as u64 >> shift) & 0xFF) as usize;
        let mut start = [0usize; 256];
        for &(p, _) in draws.iter() {
            start[digit(p)] += 1;
        }
        let mut sum = 0;
        for slot in start.iter_mut() {
            (*slot, sum) = (sum, sum + *slot);
        }
        for &d in draws.iter() {
            let slot = &mut start[digit(d.0)];
            scratch[*slot] = d;
            *slot += 1;
        }
        std::mem::swap(draws, &mut scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosens_stats::binning::OutOfRange;
    use autosens_telemetry::log::TelemetryLog;
    use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    fn binner() -> Binner {
        Binner::new(0.0, 1000.0, 10.0, OutOfRange::Discard).unwrap()
    }

    #[test]
    fn time_weighted_not_count_weighted() {
        // 10 actions at latency 100 cluster in the first second; one action
        // at latency 500 sits alone at t = 100 s. By count, latency 100
        // dominates 10:1 (~91%). The nearest-sample estimator instead
        // weights each sample by the time it is nearest to: the cluster
        // owns [0, ~50.45 s] and the lone sample owns the other half, so
        // the unbiased split is ~50/50 — time-weighted, not count-weighted.
        let mut records: Vec<ActionRecord> = (0..10).map(|i| rec(i * 100, 100.0)).collect();
        records.push(rec(100_000, 500.0));
        let log = TelemetryLog::from_records(records).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let h = unbiased_histogram(&log.view(), &binner(), 20_000, &mut rng).unwrap();
        let frac_fast = h.count(10) / h.total();
        let frac_slow = h.count(50) / h.total();
        assert!(
            (frac_fast - 0.5045).abs() < 0.02,
            "fast {frac_fast} (count share would be 0.91)"
        );
        assert!((frac_slow - 0.4955).abs() < 0.02, "slow {frac_slow}");
    }

    #[test]
    fn uniform_coverage_of_homogeneous_log() {
        // Regularly spaced samples alternating between two latencies get
        // roughly equal unbiased mass.
        let records: Vec<ActionRecord> = (0..1000)
            .map(|i| rec(i * 1000, if i % 2 == 0 { 105.0 } else { 505.0 }))
            .collect();
        let log = TelemetryLog::from_records(records).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let h = unbiased_histogram(&log.view(), &binner(), 30_000, &mut rng).unwrap();
        let a = h.count(10) / h.total();
        let b = h.count(50) / h.total();
        assert!((a - 0.5).abs() < 0.02, "a = {a}");
        assert!((b - 0.5).abs() < 0.02, "b = {b}");
    }

    #[test]
    fn tie_breaking_samples_all_duplicates() {
        // Three simultaneous records; nearest lookup always returns all
        // three, so random tie-breaking must spread mass across them.
        let log =
            TelemetryLog::from_records(vec![rec(500, 105.0), rec(500, 405.0), rec(500, 705.0)])
                .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let h = unbiased_histogram(&log.view(), &binner(), 9_000, &mut rng).unwrap();
        for bin in [10, 40, 70] {
            let frac = h.count(bin) / h.total();
            assert!((frac - 1.0 / 3.0).abs() < 0.03, "bin {bin}: {frac}");
        }
    }

    #[test]
    fn windows_restrict_the_draws() {
        // Latency 100 in the first 10 s, latency 500 in the next 10 s.
        let mut records: Vec<ActionRecord> = (0..100).map(|i| rec(i * 100, 100.0)).collect();
        records.extend((0..100).map(|i| rec(10_000 + i * 100, 500.0)));
        let log = TelemetryLog::from_records(records).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        // Draw only from the second window.
        let h = unbiased_histogram_in_windows(
            &log.view(),
            &binner(),
            &[(10_000, 19_900)],
            5_000,
            &mut rng,
        )
        .unwrap();
        assert!(h.count(50) / h.total() > 0.97);
        // Draw from both windows: roughly 50/50.
        let h = unbiased_histogram_in_windows(
            &log.view(),
            &binner(),
            &[(0, 9_900), (10_000, 19_900)],
            20_000,
            &mut rng,
        )
        .unwrap();
        let frac = h.count(10) / h.total();
        assert!((frac - 0.5).abs() < 0.05, "frac = {frac}");
    }

    #[test]
    fn error_cases() {
        let mut rng = StdRng::seed_from_u64(5);
        let empty = TelemetryLog::new();
        assert!(unbiased_histogram(&empty.view(), &binner(), 100, &mut rng).is_err());
        let log = TelemetryLog::from_records(vec![rec(0, 100.0)]).unwrap();
        assert!(unbiased_histogram(&log.view(), &binner(), 0, &mut rng).is_err());
        assert!(
            unbiased_histogram_in_windows(&log.view(), &binner(), &[(10, 5)], 10, &mut rng)
                .is_err()
        );
        assert!(unbiased_histogram_in_windows(&log.view(), &binner(), &[], 10, &mut rng).is_err());
    }

    #[test]
    fn par_draws_are_bit_identical_across_thread_counts() {
        let records: Vec<ActionRecord> = (0..500)
            .map(|i| rec(i * 997, 50.0 + (i % 90) as f64 * 10.0))
            .collect();
        let log = TelemetryLog::from_records(records).unwrap();
        let windows = [(0, 150_000), (200_000, 400_000)];
        let reference = {
            let mut rng = StdRng::seed_from_u64(7);
            unbiased_histogram_in_windows_par(&log.view(), &binner(), &windows, 30_000, 1, &mut rng)
                .unwrap()
                .0
        };
        for threads in [2, 4, 8] {
            let mut rng = StdRng::seed_from_u64(7);
            let (h, report) = unbiased_histogram_in_windows_par(
                &log.view(),
                &binner(),
                &windows,
                30_000,
                threads,
                &mut rng,
            )
            .unwrap();
            let same = h
                .counts()
                .iter()
                .zip(reference.counts())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads={threads} diverged");
            assert_eq!(report.n_items, 30_000);
        }
        // The whole-span wrapper agrees with the serial estimator's
        // statistics (not bitwise — different RNG schedule — but close).
        let mut rng = StdRng::seed_from_u64(8);
        let (h, _) = unbiased_histogram_par(&log.view(), &binner(), 20_000, 2, &mut rng).unwrap();
        assert_eq!(h.total(), 20_000.0);
    }

    #[test]
    fn decay_weight_halves_per_half_life() {
        assert_eq!(decay_weight(1_000, 1_000, 500), 1.0);
        assert!((decay_weight(500, 1_000, 500) - 0.5).abs() < 1e-12);
        assert!((decay_weight(0, 1_000, 500) - 0.25).abs() < 1e-12);
        // Instants past the frontier clamp to 1, never amplify.
        assert_eq!(decay_weight(2_000, 1_000, 500), 1.0);
    }

    #[test]
    fn decayed_draws_weight_recent_regime_up() {
        // First half of the span is slow (500 ms), second half fast
        // (100 ms). Undecayed, the unbiased split is ~50/50; with a
        // half-life of a tenth of the span, the fast (recent) regime must
        // dominate the decayed mass.
        let mut records: Vec<ActionRecord> = (0..500).map(|i| rec(i * 100, 500.0)).collect();
        records.extend((0..500).map(|i| rec(50_000 + i * 100, 100.0)));
        let log = TelemetryLog::from_records(records).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let (h, _) = unbiased_histogram_decayed_par(
            &log.view(),
            &binner(),
            10_000,
            99_900,
            40_000,
            2,
            &mut rng,
        )
        .unwrap();
        let frac_fast = h.count(10) / h.total();
        assert!(frac_fast > 0.8, "fast share {frac_fast}");
        // Old mass fades but never to exactly zero.
        assert!(h.count(50) > 0.0);
    }

    #[test]
    fn decayed_draws_are_bit_identical_across_thread_counts() {
        let records: Vec<ActionRecord> = (0..500)
            .map(|i| rec(i * 997, 50.0 + (i % 90) as f64 * 10.0))
            .collect();
        let log = TelemetryLog::from_records(records).unwrap();
        let frontier = 499 * 997;
        let reference = {
            let mut rng = StdRng::seed_from_u64(9);
            unbiased_histogram_decayed_par(
                &log.view(),
                &binner(),
                60_000,
                frontier,
                30_000,
                1,
                &mut rng,
            )
            .unwrap()
            .0
        };
        for threads in [2, 4, 8] {
            let mut rng = StdRng::seed_from_u64(9);
            let (h, report) = unbiased_histogram_decayed_par(
                &log.view(),
                &binner(),
                60_000,
                frontier,
                30_000,
                threads,
                &mut rng,
            )
            .unwrap();
            let same = h
                .counts()
                .iter()
                .zip(reference.counts())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads={threads} diverged");
            assert_eq!(report.n_items, 30_000);
        }
    }

    #[test]
    fn decayed_rejects_bad_half_life() {
        let log = TelemetryLog::from_records(vec![rec(0, 100.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        assert!(
            unbiased_histogram_decayed_par(&log.view(), &binner(), 0, 0, 10, 1, &mut rng).is_err()
        );
        assert!(
            unbiased_histogram_decayed_par(&log.view(), &binner(), -5, 0, 10, 1, &mut rng).is_err()
        );
    }

    #[test]
    fn single_record_log_is_degenerate_but_works() {
        let log = TelemetryLog::from_records(vec![rec(1000, 250.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let h = unbiased_histogram(&log.view(), &binner(), 100, &mut rng).unwrap();
        assert_eq!(h.count(25), 100.0);
    }
}
