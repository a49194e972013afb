//! Property test for the dirty-tracked incremental snapshot path: over
//! random insert/evict/late-drop interleavings and every supported
//! thread count, four ways of analyzing the live window must agree
//! **byte-for-byte** (compared as serialized `PreferenceSummary` JSON,
//! the same document the serve plane's `/curve` endpoint returns):
//!
//! 1. the incremental engine — snapshotted mid-stream, so every later
//!    snapshot replaces a cached report and reads a row store (and shard
//!    row counts) kept up to date across earlier snapshots — checkpointed
//!    at a drawn arrival;
//! 2. a cold engine fed the identical arrival sequence and snapshotted
//!    once at the end (full recompute);
//! 3. the batch plan entry point over the live window's records;
//! 4. an engine restored from that checkpoint, round-tripped through
//!    JSON, then fed the remaining arrivals — the restore path rebuilds
//!    the store and every shard's row count from its checkpointed
//!    records.
//!
//! A zero-dirty double snapshot (no events in between) must also return
//! the cached report verbatim.

use autosens_core::report::{default_grid, PreferenceSummary};
use autosens_core::{AnalysisPlan, AutoSensConfig, PlanInput, RunOptions};
use autosens_obs::Recorder;
use autosens_stream::{Checkpoint, StreamConfig, StreamEngine};
use autosens_telemetry::log::TelemetryLog;
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
use autosens_telemetry::time::SimTime;
use proptest::prelude::*;

const HOUR_MS: i64 = 3_600_000;

/// One synthetic arrival. `minute` jitters arrivals out of order (late
/// ones past the watermark get counted-and-dropped); the rest varies the
/// loss-cell and latency-bin coverage.
#[derive(Debug, Clone)]
struct Arrival {
    minute: i64,
    latency_ms: f64,
    user: u64,
    business: bool,
    success: bool,
}

fn arrival() -> impl Strategy<Value = Arrival> {
    // ~36 hours of event time so the 6-hour retention window evicts
    // whole shards mid-run.
    (
        0i64..(36 * 60),
        1.0f64..2_000.0,
        0u64..8,
        any::<bool>(),
        0u8..10,
    )
        .prop_map(|(minute, latency_ms, user, business, success)| Arrival {
            minute,
            latency_ms,
            user,
            business,
            success: success > 0,
        })
}

fn to_record(a: &Arrival) -> ActionRecord {
    ActionRecord {
        time: SimTime(a.minute * 60_000),
        action: ActionType::SelectMail,
        latency_ms: a.latency_ms,
        user: UserId(a.user),
        class: if a.business {
            UserClass::Business
        } else {
            UserClass::Consumer
        },
        tz_offset_ms: 0,
        outcome: if a.success {
            Outcome::Success
        } else {
            Outcome::Error
        },
    }
}

fn stream_config(threads: usize) -> StreamConfig {
    StreamConfig {
        analysis: AutoSensConfig {
            threads,
            ..AutoSensConfig::default()
        },
        shard_ms: HOUR_MS,
        allowed_lateness_ms: 2 * HOUR_MS,
        retain_ms: Some(6 * HOUR_MS),
        detector: None,
        decay_half_life_ms: None,
    }
}

/// The byte-level identity everything is compared under.
fn summary_json(report: &autosens_core::pipeline::AnalysisReport) -> String {
    serde_json::to_string_pretty(&PreferenceSummary::from_report(
        "all",
        report,
        &default_grid(),
    ))
    .expect("summary serialization")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn incremental_equals_full_recompute_equals_batch(
        arrivals in prop::collection::vec(arrival(), 40..220),
        snapshot_every in 7usize..40,
        cut in 0usize..220,
    ) {
        let cut = cut % arrivals.len();
        for threads in [1usize, 2, 4, 8] {
            // 1. Incremental: snapshot mid-stream, so the final snapshot
            //    follows cached reports over the same row store.
            let mut engine =
                StreamEngine::new(stream_config(threads), Slice::all()).expect("engine");
            let mut cut_json = String::new();
            for (i, a) in arrivals.iter().enumerate() {
                if i == cut {
                    cut_json = engine.checkpoint(0).to_json().expect("checkpoint serialization");
                }
                engine.push(to_record(a));
                if i % snapshot_every == snapshot_every - 1 {
                    let _ = engine.snapshot();
                }
            }
            let incremental = engine.snapshot();

            // 2. Full recompute: a cold engine, same arrival sequence,
            //    one snapshot at the end.
            let mut cold =
                StreamEngine::new(stream_config(threads), Slice::all()).expect("engine");
            for a in &arrivals {
                cold.push(to_record(a));
            }
            let full = cold.snapshot();

            // 3. Batch: the single plan entry point over the live
            //    window's records (flattened from the checkpoint, which
            //    lists shards in bucket order — the sanitized order).
            let live: Vec<ActionRecord> = engine
                .checkpoint(0)
                .shards
                .iter()
                .flat_map(|s| s.records.iter().copied())
                .collect();
            prop_assert!(!live.is_empty());
            let log = TelemetryLog::from_records(live).expect("live-window log");
            let batch = AnalysisPlan::new(stream_config(threads).analysis)
                .run(PlanInput::log(&log), RunOptions::default());

            // 4. Restored: the checkpoint cut before arrival `cut`, then
            //    the remaining arrivals.
            let ck = Checkpoint::from_json(&cut_json).expect("checkpoint parse");
            let mut resumed =
                StreamEngine::restore(ck, Slice::all(), Recorder::disabled()).expect("restore");
            for a in &arrivals[cut..] {
                resumed.push(to_record(a));
            }
            let restored = resumed.snapshot();

            match (incremental, full, batch, restored) {
                (Ok(inc), Ok(full), Ok(batch), Ok(restored)) => {
                    let inc_json = summary_json(&inc);
                    prop_assert_eq!(&inc_json, &summary_json(&full),
                        "incremental vs full recompute diverged (threads={})", threads);
                    prop_assert_eq!(&inc_json, &summary_json(&batch.report),
                        "incremental vs batch diverged (threads={})", threads);
                    prop_assert_eq!(&inc_json, &summary_json(&restored),
                        "incremental vs restored diverged (threads={}, cut={})", threads, cut);

                    // Zero dirty shards: a second snapshot with no new
                    // events must serve the cached report verbatim.
                    let again = engine.snapshot().expect("clean snapshot");
                    prop_assert!(engine.last_snapshot_reused());
                    prop_assert_eq!(&inc_json, &summary_json(&again),
                        "cached report diverged (threads={})", threads);
                }
                (inc, full, batch, restored) => {
                    // Degenerate windows (too little data) must fail the
                    // same way on every path, never succeed on one.
                    let msgs = [
                        inc.err().map(|e| e.to_string()),
                        full.err().map(|e| e.to_string()),
                        batch.err().map(|e| e.to_string()),
                        restored.err().map(|e| e.to_string()),
                    ];
                    prop_assert!(
                        msgs.iter().all(|m| m.is_some()),
                        "one path succeeded while another failed: {:?} (threads={})",
                        msgs,
                        threads
                    );
                    prop_assert_eq!(&msgs[0], &msgs[1]);
                    prop_assert_eq!(&msgs[0], &msgs[2]);
                    prop_assert_eq!(&msgs[0], &msgs[3]);
                }
            }
        }
    }
}
