//! Property test for the columnar view layer's core invariant: for every
//! log and every `Slice`, the zero-copy [`Slice::select`] view is
//! index-for-index identical to filtering the log's materialized rows with
//! the per-record [`Slice::matches`] — same rows, same order, same field
//! values at the bit level — and the data-parallel [`Slice::select_par`]
//! builds the exact same selection vector at every thread count.

use std::collections::HashSet;

use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
use autosens_telemetry::time::{DayPeriod, Month, SimTime, MS_PER_HOUR};
use autosens_telemetry::TelemetryLog;
use proptest::prelude::*;

const ACTIONS: [ActionType; 5] = [
    ActionType::SelectMail,
    ActionType::SwitchFolder,
    ActionType::Search,
    ActionType::ComposeSend,
    ActionType::Other,
];

fn arb_record() -> impl Strategy<Value = ActionRecord> {
    (
        0i64..120 * 24 * 3_600_000, // ~4 months of timestamps
        0usize..ACTIONS.len(),      // every action code
        prop_oneof![Just(0.0f64), 1.0..5_000.0f64],
        0u64..8, // few users => dense user slices
        any::<bool>(),
        -3i64..=3, // whole-hour timezone offsets
        0u32..10,  // ~10% errors
    )
        .prop_map(|(t, a, latency, user, business, tz_h, err)| ActionRecord {
            time: SimTime(t),
            action: ACTIONS[a],
            latency_ms: latency,
            user: UserId(user),
            class: if business {
                UserClass::Business
            } else {
                UserClass::Consumer
            },
            tz_offset_ms: tz_h * MS_PER_HOUR,
            outcome: if err == 0 {
                Outcome::Error
            } else {
                Outcome::Success
            },
        })
}

/// A random conjunction of every predicate the pipeline composes.
#[allow(clippy::type_complexity)]
fn arb_slice() -> impl Strategy<Value = Slice> {
    (
        proptest::option::of(0usize..ACTIONS.len()),
        proptest::option::of(any::<bool>()),
        proptest::option::of(0usize..4),
        proptest::option::of(0usize..4),
        proptest::option::of(proptest::collection::hash_set(0u64..8, 0..4)),
        proptest::option::of(-3i64..=3),
        any::<bool>(),
    )
        .prop_map(|(action, class, period, month, users, tz, succ)| {
            let periods = [
                DayPeriod::Night2to8,
                DayPeriod::Morning8to14,
                DayPeriod::Afternoon14to20,
                DayPeriod::Evening20to2,
            ];
            let months = [Month::Jan, Month::Feb, Month::Mar, Month::Apr];
            let mut s = Slice::all();
            if let Some(a) = action {
                s = s.action(ACTIONS[a]);
            }
            if let Some(b) = class {
                s = s.class(if b {
                    UserClass::Business
                } else {
                    UserClass::Consumer
                });
            }
            if let Some(p) = period {
                s = s.period(periods[p]);
            }
            if let Some(m) = month {
                s = s.month(months[m]);
            }
            if let Some(u) = users {
                s = s.users(u.into_iter().map(UserId).collect::<HashSet<_>>());
            }
            if let Some(h) = tz {
                s = s.tz_offset_hours(h);
            }
            if succ {
                s = s.successes();
            }
            s
        })
}

fn bits(r: &ActionRecord) -> (i64, u8, u64, u64, u8, i64, u8) {
    (
        r.time.millis(),
        r.action.code(),
        r.latency_ms.to_bits(),
        r.user.0,
        r.class.code(),
        r.tz_offset_ms,
        r.outcome.code(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn select_view_is_index_identical_to_legacy_iter(
        records in proptest::collection::vec(arb_record(), 0..200),
        slice in arb_slice(),
    ) {
        let log = TelemetryLog::from_records(records).expect("generated records are valid");

        // Record semantics: scan the rows in storage order, keep matches.
        let full = log.view();
        let expected: Vec<(usize, ActionRecord)> = (0..log.len())
            .map(|i| (i, full.get(i)))
            .filter(|(_, r)| slice.matches(r))
            .collect();
        let via_iter: Vec<ActionRecord> = full.iter().filter(|r| slice.matches(r)).collect();
        prop_assert_eq!(via_iter.len(), expected.len());

        // The zero-copy view: same length, and index-for-index the same
        // storage row, the same record, and the same per-column values.
        let view = slice.select(&full);
        prop_assert_eq!(view.len(), expected.len());
        for (k, (row, rec)) in expected.iter().enumerate() {
            prop_assert_eq!(view.row(k), *row, "selection index {} diverged", k);
            prop_assert_eq!(bits(&view.get(k)), bits(rec));
            prop_assert_eq!(bits(&via_iter[k]), bits(rec));
            prop_assert_eq!(view.time_at(k), rec.time.millis());
            prop_assert_eq!(view.latency_at(k).to_bits(), rec.latency_ms.to_bits());
            prop_assert_eq!(view.action_at(k), rec.action.code());
            prop_assert_eq!(view.user_at(k), rec.user.0);
            prop_assert_eq!(view.class_at(k), rec.class.code());
            prop_assert_eq!(view.tz_offset_at(k), rec.tz_offset_ms);
            prop_assert_eq!(view.outcome_at(k), rec.outcome.code());
        }

        // Materializing the view is the legacy `apply`.
        let materialized = view.materialize();
        prop_assert_eq!(
            materialized.to_records().iter().map(bits).collect::<Vec<_>>(),
            expected.iter().map(|(_, r)| bits(r)).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            slice.apply(&log).to_records().iter().map(bits).collect::<Vec<_>>(),
            materialized.to_records().iter().map(bits).collect::<Vec<_>>()
        );

        // The chunked selection builds the identical view at every thread
        // count — the determinism contract the whole pipeline leans on.
        for threads in [1usize, 2, 4, 8] {
            let (par, report) = slice.select_par(&full, threads).expect("select_par");
            prop_assert_eq!(report.n_items, log.len());
            prop_assert_eq!(par.len(), view.len(), "threads={}", threads);
            for k in 0..par.len() {
                prop_assert_eq!(par.row(k), view.row(k), "threads={} k={}", threads, k);
            }
        }
    }
}
