//! Round-trip properties of the `.asc` binary columnar container.
//!
//! The container is the zero-parse ingest path: whatever survives a write
//! must map back bit-identical, column for column, through both the mmap
//! backing and the read-to-`Vec` fallback — and the mapped view must
//! analyze exactly like the parsed text path, down to the serialized JSON.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use autosens_core::report::{default_grid, PreferenceSummary};
use autosens_core::{AnalysisPlan, AutoSensConfig, PlanInput, RunOptions};
use autosens_telemetry::container::{self, MappedLog};
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
use autosens_telemetry::time::{SimTime, MS_PER_HOUR};
use autosens_telemetry::TelemetryLog;
use proptest::prelude::*;

static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique temp path per call so parallel proptest cases never collide.
fn tmp_asc(tag: &str) -> PathBuf {
    let n = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "autosens-roundtrip-{}-{tag}-{n}.asc",
        std::process::id()
    ))
}

fn arb_record() -> impl Strategy<Value = ActionRecord> {
    (
        -1_000_000_000i64..1_000_000_000,
        prop_oneof![
            Just(ActionType::SelectMail),
            Just(ActionType::SwitchFolder),
            Just(ActionType::Search),
            Just(ActionType::ComposeSend),
            Just(ActionType::Other),
        ],
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

/// Columns of `mapped` must be bit-identical to those of `log`.
fn assert_columns_equal(mapped: &MappedLog, log: &TelemetryLog) {
    let back = mapped.to_log().expect("validated container materializes");
    let (a, b) = (back.columns(), log.columns());
    assert_eq!(a.times(), b.times());
    assert_eq!(
        a.latencies()
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>(),
        b.latencies()
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>()
    );
    assert_eq!(a.actions(), b.actions());
    assert_eq!(a.users(), b.users());
    assert_eq!(a.classes(), b.classes());
    assert_eq!(a.tz_offsets(), b.tz_offsets());
    assert_eq!(a.outcomes(), b.outcomes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn write_then_map_is_identity(records in prop::collection::vec(arb_record(), 0..150)) {
        let log = TelemetryLog::from_records(records).unwrap();
        let path = tmp_asc("identity");
        container::write_container_file(&log, &path, None).unwrap();

        let mapped = MappedLog::open(&path).unwrap();
        prop_assert_eq!(mapped.len(), log.len());
        prop_assert!(mapped.is_sorted());
        assert_columns_equal(&mapped, &log);

        // The fallback backing must agree with the mmap byte for byte.
        let copied = MappedLog::open_copied(&path).unwrap();
        prop_assert!(!copied.is_mapped());
        assert_columns_equal(&copied, &log);

        // Row access through the zero-copy view matches record access.
        let view = mapped.view();
        for i in 0..log.len() {
            prop_assert_eq!(view.get(i), log.view().get(i));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shard_blocks_partition_and_bound_rows(
        records in prop::collection::vec(arb_record(), 1..150),
        shard_hours in 1i64..100,
    ) {
        let shard_ms = shard_hours * MS_PER_HOUR;
        let log = TelemetryLog::from_records(records).unwrap();
        let path = tmp_asc("shards");
        container::write_container_file(&log, &path, Some(shard_ms)).unwrap();

        let mapped = MappedLog::open(&path).unwrap();
        let blocks = mapped.shard_blocks();
        prop_assert!(!blocks.is_empty());
        // Blocks partition [0, rows) contiguously and in order...
        prop_assert_eq!(blocks[0].row_lo, 0);
        prop_assert_eq!(blocks.last().unwrap().row_hi, log.len() as u64);
        for w in blocks.windows(2) {
            prop_assert_eq!(w[0].row_hi, w[1].row_lo);
        }
        // ...and each block's time envelope is tight for one shard bucket.
        let times = log.columns().times();
        for b in blocks {
            let rows = &times[b.row_lo as usize..b.row_hi as usize];
            prop_assert_eq!(rows.iter().min().copied(), Some(b.min_time_ms));
            prop_assert_eq!(rows.iter().max().copied(), Some(b.max_time_ms));
            let bucket = b.min_time_ms.div_euclid(shard_ms);
            for &t in rows {
                prop_assert_eq!(t.div_euclid(shard_ms), bucket);
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// The zero-parse view must produce the same analysis as the owned log —
/// down to the serialized JSON summary — serially and under threading.
#[test]
fn mapped_view_analysis_matches_owned_log() {
    use autosens_sim::{generate, Scenario, SimConfig};
    let (log, _) = generate(&SimConfig::scenario(Scenario::Smoke)).unwrap();
    let log = &log;
    let path = tmp_asc("analysis");
    container::write_container_file(log, &path, None).unwrap();
    let mapped = MappedLog::open(&path).unwrap();

    for threads in [1usize, 4] {
        let plan = AnalysisPlan::new(AutoSensConfig {
            threads,
            ..AutoSensConfig::default()
        });
        let from_log = plan
            .run(PlanInput::slice(log, &Slice::all()), RunOptions::default())
            .unwrap()
            .report;
        let from_map = plan
            .run(
                PlanInput::view(&mapped.view(), &Slice::all()),
                RunOptions::default(),
            )
            .unwrap()
            .report;
        let grid = default_grid();
        let a = PreferenceSummary::from_report("all", &from_log, &grid);
        let b = PreferenceSummary::from_report("all", &from_map, &grid);
        assert_eq!(
            serde_json::to_string_pretty(&a).unwrap(),
            serde_json::to_string_pretty(&b).unwrap(),
            "threads = {threads}"
        );
    }
    let _ = std::fs::remove_file(&path);
}
