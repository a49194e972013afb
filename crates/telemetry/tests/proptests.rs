//! Property-based tests for the telemetry substrate.

use autosens_telemetry::codec;
use autosens_telemetry::log::TelemetryLog;
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
use autosens_telemetry::time::{DayPeriod, SimTime, MS_PER_HOUR};
use autosens_telemetry::users;
use proptest::prelude::*;

fn arb_action() -> impl Strategy<Value = ActionType> {
    prop_oneof![
        Just(ActionType::SelectMail),
        Just(ActionType::SwitchFolder),
        Just(ActionType::Search),
        Just(ActionType::ComposeSend),
        Just(ActionType::Other),
    ]
}

fn arb_record() -> impl Strategy<Value = ActionRecord> {
    (
        -1_000_000_000i64..1_000_000_000,
        arb_action(),
        0.0f64..10_000.0,
        0u64..50,
        prop::bool::ANY,
        -12i64..=12,
        prop::bool::ANY,
    )
        .prop_map(
            |(t, action, latency, user, business, tz_h, ok)| ActionRecord {
                time: SimTime(t),
                action,
                latency_ms: latency,
                user: UserId(user),
                class: if business {
                    UserClass::Business
                } else {
                    UserClass::Consumer
                },
                tz_offset_ms: tz_h * MS_PER_HOUR,
                outcome: if ok { Outcome::Success } else { Outcome::Error },
            },
        )
}

proptest! {
    #[test]
    fn log_sorting_preserves_multiset(records in prop::collection::vec(arb_record(), 0..100)) {
        let log = TelemetryLog::from_records(records.clone()).unwrap();
        prop_assert_eq!(log.len(), records.len());
        prop_assert!(log.is_sorted());
        let mut orig_times: Vec<i64> = records.iter().map(|r| r.time.millis()).collect();
        orig_times.sort();
        let log_times: Vec<i64> = log.view().iter().map(|r| r.time.millis()).collect();
        prop_assert_eq!(orig_times, log_times);
    }

    #[test]
    fn nearest_in_time_is_truly_nearest(
        records in prop::collection::vec(arb_record(), 1..60),
        query in -1_000_000_000i64..1_000_000_000,
    ) {
        let log = TelemetryLog::from_records(records).unwrap();
        let (lo, hi) = log.view().nearest_in_time(SimTime(query)).unwrap();
        prop_assert!(lo < hi);
        let best = (log.view().get(lo).time.millis() - query).abs();
        // Every record in [lo, hi) is at the same (minimal) distance...
        for i in lo..hi {
            prop_assert_eq!((log.view().get(i).time.millis() - query).abs(), best);
        }
        // ...and no record anywhere is closer.
        for r in log.view().iter() {
            prop_assert!((r.time.millis() - query).abs() >= best);
        }
        // And the range covers ALL records at the minimal distance.
        let count_at_best = log
            .view().iter()
            .filter(|r| (r.time.millis() - query).abs() == best)
            .count();
        prop_assert_eq!(hi - lo, count_at_best);
    }

    #[test]
    fn range_matches_linear_scan(
        records in prop::collection::vec(arb_record(), 0..80),
        a in -1_000_000_000i64..1_000_000_000,
        b in -1_000_000_000i64..1_000_000_000,
    ) {
        let (from, to) = if a <= b { (a, b) } else { (b, a) };
        let log = TelemetryLog::from_records(records).unwrap();
        let via_range = log.view().range(SimTime(from), SimTime(to)).unwrap().len();
        let via_scan = log
            .view().iter()
            .filter(|r| r.time.millis() >= from && r.time.millis() < to)
            .count();
        prop_assert_eq!(via_range, via_scan);
    }

    #[test]
    fn csv_roundtrip_is_identity(records in prop::collection::vec(arb_record(), 0..60)) {
        let log = TelemetryLog::from_records(records).unwrap();
        let mut buf = Vec::new();
        codec::write_csv(&log, &mut buf).unwrap();
        let back = codec::read_csv(buf.as_slice()).unwrap();
        prop_assert_eq!(back.len(), log.len());
        for (a, b) in back.view().iter().zip(log.view().iter()) {
            prop_assert_eq!(a.time, b.time);
            prop_assert_eq!(a.action, b.action);
            prop_assert!((a.latency_ms - b.latency_ms).abs() < 1e-9);
            prop_assert_eq!(a.user, b.user);
            prop_assert_eq!(a.class, b.class);
            prop_assert_eq!(a.tz_offset_ms, b.tz_offset_ms);
            prop_assert_eq!(a.outcome, b.outcome);
        }
    }

    #[test]
    fn jsonl_roundtrip_is_identity(records in prop::collection::vec(arb_record(), 0..60)) {
        let log = TelemetryLog::from_records(records).unwrap();
        let mut buf = Vec::new();
        codec::write_jsonl(&log, &mut buf).unwrap();
        let back = codec::read_jsonl(buf.as_slice()).unwrap();
        prop_assert_eq!(back.to_records(), log.to_records());
    }

    #[test]
    fn day_period_partition_is_total(hour in 0u8..24) {
        // of_hour never panics and every hour maps to a period whose label
        // is one of the four known labels.
        let p = DayPeriod::of_hour(hour);
        prop_assert!(DayPeriod::all().contains(&p));
    }

    #[test]
    fn quartiles_partition_eligible_users(
        records in prop::collection::vec(arb_record(), 20..200),
    ) {
        let log = TelemetryLog::from_records(records).unwrap();
        if let Some(q) = users::latency_quartiles(&log.view(), 1) {
            // Groups are disjoint and cover all eligible users.
            let stats = users::per_user_stats(&log.view(), 1);
            let total: usize = q.groups.iter().map(|g| g.len()).sum();
            prop_assert_eq!(total, stats.len());
            for (i, g1) in q.groups.iter().enumerate() {
                for g2 in q.groups.iter().skip(i + 1) {
                    prop_assert!(g1.is_disjoint(g2));
                }
            }
            // Group sizes differ by at most 1 from one another... actually by
            // construction floor(4i/n) gives sizes within 1 of n/4.
            let sizes: Vec<usize> = q.groups.iter().map(|g| g.len()).collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            prop_assert!(max - min <= 1, "sizes = {:?}", sizes);
        }
    }

    #[test]
    fn local_time_arithmetic_is_consistent(
        t in -2_000_000_000i64..2_000_000_000,
        tz_h in -14i64..=14,
    ) {
        use autosens_telemetry::time::{Month, MS_PER_DAY};
        let tz = tz_h * MS_PER_HOUR;
        let st = SimTime(t);
        let hour = st.hour_of_day_local(tz);
        prop_assert!(hour < 24);
        // Reconstructing the local instant from (day, hour) brackets t.
        let day = st.day_local(tz);
        let local_ms = t + tz;
        prop_assert!(local_ms >= day * MS_PER_DAY);
        prop_assert!(local_ms < (day + 1) * MS_PER_DAY);
        prop_assert_eq!(((local_ms - day * MS_PER_DAY) / MS_PER_HOUR) as u8, hour);
        // Period and slot derive from the same hour.
        prop_assert_eq!(st.day_period_local(tz), DayPeriod::of_hour(hour));
        prop_assert_eq!(st.hour_slot_local(tz).0, hour);
        // Weekday cycles with period 7 days.
        let next_week = st.plus_millis(7 * MS_PER_DAY);
        prop_assert_eq!(st.weekday_local(tz), next_week.weekday_local(tz));
        // Months are monotone within the simulated year.
        if (0..365).contains(&day) {
            let m1 = Month::of_day(day);
            let m2 = Month::of_day(day + 1);
            prop_assert!(m2 >= m1);
        }
    }

    #[test]
    fn shifting_by_whole_days_preserves_hour(
        t in -1_000_000_000i64..1_000_000_000,
        days in -100i64..100,
        tz_h in -14i64..=14,
    ) {
        use autosens_telemetry::time::MS_PER_DAY;
        let tz = tz_h * MS_PER_HOUR;
        let a = SimTime(t);
        let b = a.plus_millis(days * MS_PER_DAY);
        prop_assert_eq!(a.hour_of_day_local(tz), b.hour_of_day_local(tz));
        prop_assert_eq!(a.day_local(tz) + days, b.day_local(tz));
    }

    #[test]
    fn successes_slice_removes_exactly_errors(records in prop::collection::vec(arb_record(), 0..100)) {
        let log = TelemetryLog::from_records(records).unwrap();
        let view = log.view();
        let ok = Slice::all().successes().select(&view);
        let n_err = log.view().iter().filter(|r| r.outcome == Outcome::Error).count();
        prop_assert_eq!(ok.len() + n_err, log.len());
        prop_assert!(ok.iter().all(|r| r.outcome == Outcome::Success));
    }
}
