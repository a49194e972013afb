//! The chunked unbiased kernels against an oracle: a test-local copy of an
//! earlier chunk loop, which ordered each chunk's draws by `(pick, tie)`
//! with a comparison sort and resolved every draw with
//! `LogView::nearest_in_time`. The kernels (cell-table lookups; integer bin
//! counts for unit weights, pick-ordered sums for decayed ones) must
//! reproduce its histograms to the bit for any log, window set, binner,
//! draw count and thread count. The cell table itself is checked against
//! `nearest_in_time` at every instant of small window sets.

use autosens_core::unbiased::{
    decay_weight, unbiased_histogram_decayed_par, unbiased_histogram_in_windows_par, CellTable,
};
use autosens_core::AutoSensError;
use autosens_stats::binning::{Binner, OutOfRange};
use autosens_stats::histogram::Histogram;
use autosens_telemetry::error::TelemetryError;
use autosens_telemetry::log::{LogView, TelemetryLog};
use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
use autosens_telemetry::time::SimTime;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Latencies above 1000 ms fall outside the grid and count as discarded.
fn binner() -> Binner {
    Binner::new(0.0, 1000.0, 10.0, OutOfRange::Discard).unwrap()
}

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

/// The chunk loop before the sweep: the same seed schedule, chunking and
/// tie rule, with each chunk's draws sorted by `(pick, tie)` and looked up
/// by binary search one at a time. `weight` is 1 for the windowed kernel
/// (`record` is `record_weighted` with weight 1) and the decay weight of
/// the instant for the decayed one.
fn oracle(
    log: &LogView<'_>,
    windows: &[(i64, i64)],
    n_draws: usize,
    seed: u64,
    weight: impl Fn(i64) -> f64,
) -> Histogram {
    let mut cum = vec![0i64];
    for &(lo, hi) in windows {
        let len = if hi < lo { 0 } else { hi - lo + 1 };
        cum.push(cum.last().unwrap() + len);
    }
    let total_len = *cum.last().unwrap();
    let base_seed = StdRng::seed_from_u64(seed).gen::<u64>();
    let size = autosens_exec::chunk_size_for(n_draws);
    let mut pooled = Histogram::new(binner());
    for (chunk, start) in (0..n_draws).step_by(size).enumerate() {
        let mut rng = StdRng::seed_from_u64(autosens_exec::chunk_seed(base_seed, chunk as u64));
        let mut draws: Vec<(i64, u64)> = (start..(start + size).min(n_draws))
            .map(|_| (rng.gen_range(0..total_len), rng.gen::<u64>()))
            .collect();
        draws.sort_unstable();
        let mut h = Histogram::new(binner());
        let mut w = 0usize;
        for (pick, tie) in draws {
            while cum[w + 1] <= pick {
                w += 1;
            }
            let t = windows[w].0 + (pick - cum[w]);
            let (lo, hi) = log.nearest_in_time(SimTime(t)).unwrap();
            let idx = if hi - lo == 1 {
                lo
            } else {
                lo + (tie as usize) % (hi - lo)
            };
            h.record_weighted(log.latency_at(idx), weight(t));
        }
        pooled.merge(&h).unwrap();
    }
    pooled
}

fn assert_same_bits(got: &Histogram, want: &Histogram, what: &str) {
    let counts = |h: &Histogram| h.counts().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    assert_eq!(counts(got), counts(want), "{what}: counts");
    assert_eq!(
        got.total().to_bits(),
        want.total().to_bits(),
        "{what}: total"
    );
    assert_eq!(got.n_recorded(), want.n_recorded(), "{what}: n_recorded");
    assert_eq!(got.n_discarded(), want.n_discarded(), "{what}: n_discarded");
}

/// A sorted log with runs of equal timestamps: each row repeats the time
/// before it or steps forward by a small or a large gap. Some latencies
/// fall off the grid.
fn arb_log() -> impl Strategy<Value = Vec<(i64, f64)>> {
    prop::collection::vec(
        (
            prop_oneof![Just(0i64), 1i64..50, 50i64..5_000],
            0.0f64..1_200.0,
        ),
        1..300,
    )
    .prop_map(|rows| {
        let mut t = 0i64;
        rows.into_iter()
            .map(|(gap, latency)| {
                t += gap;
                (t, latency)
            })
            .collect()
    })
}

/// Windows as `(start offset, length)`, placed relative to the log span
/// from 20 s before it to 20 s after: some lie outside the span, some are
/// zero-length (`length` 0 makes `hi = lo - 1`), and their order is
/// random, so picks are not always time-ordered across windows.
fn arb_windows() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec(
        (
            0i64..1_000_000,
            prop_oneof![Just(0i64), Just(1i64), 1i64..30_000],
        ),
        1..8,
    )
}

/// From one chunk (at most 4,096 draws) to five or six.
fn arb_draws() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=4_096, 4_097usize..=8_192, 16_385usize..=24_000]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sweep_kernels_match_the_binary_search_oracle(
        rows in arb_log(),
        raw_windows in arb_windows(),
        n_draws in arb_draws(),
        seed in any::<u64>(),
        half_life_ms in 1i64..200_000,
        frontier_offset in -10_000i64..10_000,
    ) {
        let log = TelemetryLog::from_records(
            rows.iter().map(|&(t, latency)| rec(t, latency)).collect(),
        )
        .unwrap();
        let view = log.view();
        let (first, last) = (rows[0].0, rows[rows.len() - 1].0);
        let reach = last - first + 40_001;
        let mut windows: Vec<(i64, i64)> = raw_windows
            .iter()
            .map(|&(offset, len)| {
                let lo = first - 20_000 + offset % reach;
                (lo, lo + len - 1)
            })
            .collect();
        if windows.iter().all(|&(lo, hi)| hi < lo) {
            windows.push((first, last));
        }

        let want = oracle(&view, &windows, n_draws, seed, |_| 1.0);
        let frontier = last + frontier_offset;
        let decay = |t| decay_weight(t, frontier, half_life_ms);
        let want_decayed = oracle(&view, &[(first, last)], n_draws, seed, decay);
        for threads in [1, 2, 4] {
            let mut rng = StdRng::seed_from_u64(seed);
            let (got, _) = unbiased_histogram_in_windows_par(
                &view, &binner(), &windows, n_draws, threads, &mut rng,
            )
            .unwrap();
            assert_same_bits(&got, &want, &format!("windowed, threads={threads}"));

            let mut rng = StdRng::seed_from_u64(seed);
            let (got, _) = unbiased_histogram_decayed_par(
                &view, &binner(), half_life_ms, frontier, n_draws, threads, &mut rng,
            )
            .unwrap();
            assert_same_bits(&got, &want_decayed, &format!("decayed, threads={threads}"));
        }
    }
}

/// Small sorted logs where ties are the rule: each row repeats the time
/// before it or steps by 1–6 ms, so equal-time runs and exact integer
/// midpoints (even gaps) are everywhere.
fn arb_small_log() -> impl Strategy<Value = Vec<(i64, f64)>> {
    prop::collection::vec((prop_oneof![Just(0i64), 1i64..7], 0.0f64..1_200.0), 1..40).prop_map(
        |rows| {
            let mut t = -20i64;
            rows.into_iter()
                .map(|(gap, latency)| {
                    t += gap;
                    (t, latency)
                })
                .collect()
        },
    )
}

/// The instant of every pick of a window set, in pick order.
fn instants(windows: &[(i64, i64)]) -> Vec<i64> {
    windows.iter().flat_map(|&(lo, hi)| lo..=hi).collect()
}

/// Windows as `(start, length)` from 40 ms before the first row to 40 ms
/// past the last (the rows span under 240 ms): some lie wholly outside the
/// span, and length 0 makes an empty window.
fn arb_small_windows() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec(
        (-60i64..280, prop_oneof![Just(0i64), Just(1i64), 1i64..60]),
        1..6,
    )
    .prop_map(|ws| ws.into_iter().map(|(lo, len)| (lo, lo + len - 1)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cell_table_agrees_with_nearest_in_time_at_every_instant(
        rows in arb_small_log(),
        windows in arb_small_windows(),
        every in 1usize..4,
    ) {
        let log = TelemetryLog::from_records(
            rows.iter().map(|&(t, latency)| rec(t, latency)).collect(),
        )
        .unwrap();
        // One table serves both views, so a rebuild over a used table is
        // checked too.
        let mut table = CellTable::default();
        let sel: Vec<u32> = (0..log.len() as u32).step_by(every).collect();
        for view in [log.view(), log.view().with_selection(sel)] {
            let picks = instants(&windows);
            if picks.is_empty() {
                prop_assert!(matches!(
                    table.build(&view, &windows),
                    Err(AutoSensError::BadConfig(_))
                ));
                continue;
            }
            table.build(&view, &windows).unwrap();
            prop_assert_eq!(table.total_len(), picks.len() as i64);
            // Cells are maximal within a window and split at its edges:
            // one per window plus one per change of the answer inside it.
            let mut cells = 0usize;
            for &(lo, hi) in &windows {
                let mut last = None;
                for t in lo..=hi {
                    let here = view.nearest_in_time(SimTime(t)).unwrap();
                    cells += usize::from(last != Some(here));
                    last = Some(here);
                }
            }
            prop_assert_eq!(table.len(), cells);
            for (pick, &t) in picks.iter().enumerate() {
                prop_assert_eq!(
                    table.nearest(pick as i64),
                    view.nearest_in_time(SimTime(t)).unwrap(),
                    "pick {} (instant {}) over {:?}, windows {:?}",
                    pick,
                    t,
                    rows,
                    windows
                );
            }
        }
    }
}

/// The Clamp policy bins an out-of-grid latency into the last bin, which is
/// where the Discard policy bins the latency clamped onto the grid. So the
/// kernels under a Clamp binner must match the (Discard) oracle over the
/// same log with its latencies clamped below 1000 ms.
fn clamp_binner() -> Binner {
    Binner::new(0.0, 1000.0, 10.0, OutOfRange::Clamp).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kernels_match_the_oracle_with_more_rows_than_draws_and_a_clamp_binner(
        rows in prop::collection::vec(
            (prop_oneof![Just(0i64), 1i64..50, 50i64..2_000], 0.0f64..1_500.0),
            300..1_500,
        ),
        raw_windows in arb_windows(),
        n_draws in 1usize..=250,
        seed in any::<u64>(),
        half_life_ms in 1i64..200_000,
    ) {
        let mut t = 0i64;
        let rows: Vec<(i64, f64)> = rows
            .into_iter()
            .map(|(gap, latency)| {
                t += gap;
                (t, latency)
            })
            .collect();
        let log = TelemetryLog::from_records(
            rows.iter().map(|&(t, latency)| rec(t, latency)).collect(),
        )
        .unwrap();
        let clamped = TelemetryLog::from_records(
            rows.iter().map(|&(t, latency)| rec(t, latency.min(999.5))).collect(),
        )
        .unwrap();
        let (first, last) = (rows[0].0, rows[rows.len() - 1].0);
        let reach = last - first + 40_001;
        let mut windows: Vec<(i64, i64)> = raw_windows
            .iter()
            .map(|&(offset, len)| {
                let lo = first - 20_000 + offset % reach;
                (lo, lo + len - 1)
            })
            .collect();
        if windows.iter().all(|&(lo, hi)| hi < lo) {
            windows.push((first, last));
        }
        let decay = |t| decay_weight(t, last, half_life_ms);
        let cases = [
            (log.view(), binner(), log.view()),
            (log.view(), clamp_binner(), clamped.view()),
        ];
        for (view, binner, oracle_view) in &cases {
            let want = oracle(oracle_view, &windows, n_draws, seed, |_| 1.0);
            let want_decayed = oracle(oracle_view, &[(first, last)], n_draws, seed, decay);
            for threads in [1, 2, 4, 8] {
                let mut rng = StdRng::seed_from_u64(seed);
                let (got, _) = unbiased_histogram_in_windows_par(
                    view, binner, &windows, n_draws, threads, &mut rng,
                )
                .unwrap();
                assert_same_bits(&got, &want, &format!("windowed, threads={threads}"));

                let mut rng = StdRng::seed_from_u64(seed);
                let (got, _) = unbiased_histogram_decayed_par(
                    view, binner, half_life_ms, last, n_draws, threads, &mut rng,
                )
                .unwrap();
                assert_same_bits(&got, &want_decayed, &format!("decayed, threads={threads}"));
            }
        }
    }
}

#[test]
fn unsorted_view_is_a_typed_error() {
    let mut log = TelemetryLog::new();
    for (t, latency) in [(0, 100.0), (50, 200.0), (40, 300.0), (90, 400.0)] {
        log.push(rec(t, latency)).unwrap();
    }
    assert!(!log.is_sorted());
    let view = log.view();
    let unsorted = |r: Result<_, AutoSensError>| {
        matches!(
            r,
            Err(AutoSensError::Telemetry(TelemetryError::Unsorted {
                index: 2
            }))
        )
    };
    for threads in [1, 2] {
        let mut rng = StdRng::seed_from_u64(3);
        let windowed = unbiased_histogram_in_windows_par(
            &view,
            &binner(),
            &[(0, 90)],
            5_000,
            threads,
            &mut rng,
        );
        assert!(unsorted(windowed), "windowed, threads={threads}");
        let decayed =
            unbiased_histogram_decayed_par(&view, &binner(), 1_000, 90, 5_000, threads, &mut rng);
        assert!(unsorted(decayed), "decayed, threads={threads}");
    }
}
