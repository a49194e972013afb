//! Streaming telemetry ingestion with incremental preference-curve
//! maintenance.
//!
//! The batch pipeline in `autosens-core` answers "what is the latency
//! preference of this log?"; this crate answers the same question for a
//! log that is still growing. It has four pieces:
//!
//! * [`Ingestor`] — a bounded intake queue with explicit backpressure
//!   ([`OverflowPolicy::Block`]) or shed-and-count overflow
//!   ([`OverflowPolicy::Shed`]), plus an optional
//!   [`FaultStream`](autosens_faults::FaultStream) hook so corruption is
//!   injected at the ingest boundary rather than inside the engine.
//! * [`StreamEngine`] — a time-sharded sliding-window store tolerating
//!   out-of-order arrival up to a configurable lateness budget
//!   (low-watermark semantics: older arrivals are counted-and-dropped,
//!   never silently lost). Intake keeps the rows sorted and deduplicated
//!   as batch sanitize would, so [`StreamEngine::snapshot`] enters the
//!   shared pipeline post-sanitize over a borrowed view of them instead
//!   of re-running the batch pipeline from scratch.
//! * [`Checkpoint`] — serialize the engine's durable state to disk and
//!   resume a stream mid-flight, including the tailed file's byte offset.
//! * Observability — `autosens_stream_*` counters (events, late,
//!   duplicates, filtered, shed, evicted, flushes), queue-depth and
//!   watermark-lag gauges, and a `stream_flush` span per snapshot.
//!
//! The load-bearing property, enforced by tests here and by the CI
//! equivalence gate: **after draining a finite log, a snapshot is
//! bit-identical to batch `analyze` over the same log** —
//! curves, α estimates, degradation bookkeeping, and `autosens_core_*`
//! metrics all match. See the [`engine`] module docs for why.

pub mod checkpoint;
pub mod detector;
pub mod engine;
pub mod error;
pub mod ingest;
pub mod status;

pub use checkpoint::{Checkpoint, ShardCheckpoint, CHECKPOINT_VERSION};
pub use detector::{DetectorConfig, RegimeShift};
pub use engine::{Ingest, StreamConfig, StreamEngine, StreamStatus};
pub use error::StreamError;
pub use ingest::{DrainSummary, Ingestor, Offer, OverflowPolicy};
pub use status::StatusDocument;

#[cfg(test)]
mod tests {
    use super::*;
    use autosens_core::pipeline::AnalysisReport;
    use autosens_core::{AnalysisPlan, AutoSensConfig, PlanInput, RunOptions};
    use autosens_faults::{FaultOp, FaultPlan, FaultStream};
    use autosens_obs::Recorder;
    use autosens_sim::{self, Scenario, SimConfig};
    use autosens_telemetry::log::TelemetryLog;
    use autosens_telemetry::query::Slice;
    use autosens_telemetry::record::ActionRecord;

    fn smoke_log() -> TelemetryLog {
        let cfg = SimConfig::scenario(Scenario::Smoke);
        autosens_sim::generate(&cfg).expect("smoke generation").0
    }

    fn batch_analyze(log: &TelemetryLog) -> AnalysisReport {
        AnalysisPlan::new(AutoSensConfig::default())
            .run(PlanInput::log(log), RunOptions::default())
            .expect("batch analyze")
            .report
    }

    fn stream_config() -> StreamConfig {
        StreamConfig {
            analysis: AutoSensConfig::default(),
            shard_ms: 6 * 3_600_000,
            allowed_lateness_ms: 3_600_000,
            retain_ms: None,
            detector: None,
            decay_half_life_ms: None,
        }
    }

    /// Bit-level report equality: curve samples, histograms, α groups,
    /// degradations, and counts all identical.
    fn assert_reports_identical(stream: &AnalysisReport, batch: &AnalysisReport) {
        assert_eq!(stream.n_actions, batch.n_actions);
        assert_eq!(stream.degradations, batch.degradations);
        let sb: Vec<u64> = stream.biased.counts().iter().map(|c| c.to_bits()).collect();
        let bb: Vec<u64> = batch.biased.counts().iter().map(|c| c.to_bits()).collect();
        assert_eq!(sb, bb, "biased histograms diverged");
        let su: Vec<u64> = stream
            .unbiased
            .counts()
            .iter()
            .map(|c| c.to_bits())
            .collect();
        let bu: Vec<u64> = batch
            .unbiased
            .counts()
            .iter()
            .map(|c| c.to_bits())
            .collect();
        assert_eq!(su, bu, "unbiased histograms diverged");
        let ss: Vec<(u64, u64)> = stream
            .preference
            .series()
            .iter()
            .map(|(x, y)| (x.to_bits(), y.to_bits()))
            .collect();
        let bs: Vec<(u64, u64)> = batch
            .preference
            .series()
            .iter()
            .map(|(x, y)| (x.to_bits(), y.to_bits()))
            .collect();
        assert_eq!(ss, bs, "preference curves diverged");
        match (&stream.alpha, &batch.alpha) {
            (Some(sa), Some(ba)) => {
                assert_eq!(sa.grouping, ba.grouping);
                assert_eq!(sa.primary_reference, ba.primary_reference);
                assert_eq!(sa.references, ba.references);
                assert_eq!(sa.groups.len(), ba.groups.len());
                for (sg, bg) in sa.groups.iter().zip(&ba.groups) {
                    assert_eq!(sg.n_actions, bg.n_actions);
                    assert_eq!(
                        sg.alpha.map(f64::to_bits),
                        bg.alpha.map(f64::to_bits),
                        "per-group α diverged"
                    );
                }
            }
            (None, None) => {}
            _ => panic!("alpha presence diverged between stream and batch"),
        }
    }

    #[test]
    fn drained_snapshot_is_bit_identical_to_batch_analyze() {
        let log = smoke_log();
        let batch = batch_analyze(&log);

        let mut engine = StreamEngine::new(stream_config(), Slice::all()).expect("engine");
        for r in log.view().iter() {
            engine.push(r);
        }
        let snap = engine.snapshot().expect("snapshot");
        assert_reports_identical(&snap, &batch);

        let status = engine.status();
        assert_eq!(status.events, log.len() as u64);
        assert_eq!(status.late, 0);
        assert_eq!(status.duplicates, 0);
    }

    #[test]
    fn reorder_within_lateness_budget_preserves_bit_equality() {
        let log = smoke_log();
        // Inject timestamp jitter at the ingest boundary, bounded by half
        // the lateness budget so nothing lands past the watermark; the
        // stream sees the corrupted records in their original arrival
        // order, batch sees the same corrupted log.
        let plan = FaultPlan {
            seed: 0x0DD5,
            ops: vec![FaultOp::Reorder {
                rate: 0.2,
                max_shift_ms: 30 * 60_000,
            }],
        };
        let corrupted = plan.apply(&log).expect("fault injection");
        let batch = batch_analyze(&corrupted);

        let mut engine = StreamEngine::new(stream_config(), Slice::all()).expect("engine");
        for r in corrupted.view().iter() {
            assert_ne!(engine.push(r), Ingest::Late, "jitter exceeded lateness");
        }
        let snap = engine.snapshot().expect("snapshot");
        assert_reports_identical(&snap, &batch);
        // Both paths observed and repaired the same disorder.
        assert!(snap
            .degradations
            .iter()
            .any(|d| d.detail.contains("out of time order")));
    }

    #[test]
    fn duplicates_dedup_identically_to_batch_sanitize() {
        let log = smoke_log();
        let plan = FaultPlan {
            seed: 0xD0B,
            ops: vec![FaultOp::Duplicate { rate: 0.1 }],
        };
        let corrupted = plan.apply(&log).expect("fault injection");
        let batch = batch_analyze(&corrupted);

        let recorder = Recorder::new();
        let mut engine =
            StreamEngine::with_recorder(stream_config(), Slice::all(), recorder.clone())
                .expect("engine");
        let mut dups = 0u64;
        for r in corrupted.view().iter() {
            if engine.push(r) == Ingest::Duplicate {
                dups += 1;
            }
        }
        assert!(dups > 0, "the duplicate fault produced no duplicates");
        let snap = engine.snapshot().expect("snapshot");
        assert_reports_identical(&snap, &batch);
        assert!(snap
            .degradations
            .iter()
            .any(|d| d.detail.contains("exact duplicate")));
        assert_eq!(
            recorder
                .metrics()
                .snapshot()
                .counter("autosens_stream_duplicate_events_total"),
            Some(dups)
        );
    }

    #[test]
    fn late_arrivals_are_counted_and_dropped() {
        let log = smoke_log();
        let mut cfg = stream_config();
        cfg.allowed_lateness_ms = 60_000;
        let recorder = Recorder::new();
        let mut engine =
            StreamEngine::with_recorder(cfg, Slice::all(), recorder.clone()).expect("engine");
        for r in log.view().iter() {
            engine.push(r);
        }
        // Replay the very first record: it is now far behind the frontier.
        let first = log.view().iter().next().expect("non-empty log");
        assert_eq!(engine.push(first), Ingest::Late);
        assert_eq!(engine.status().late, 1);
        assert_eq!(
            recorder
                .metrics()
                .snapshot()
                .counter("autosens_stream_late_events_total"),
            Some(1)
        );
        let snap = engine.snapshot().expect("snapshot");
        assert!(snap
            .degradations
            .iter()
            .any(|d| d.stage == "stream" && d.detail.contains("watermark")));
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_identically() {
        let log = smoke_log();
        let records: Vec<ActionRecord> = log.view().iter().collect();
        let half = records.len() / 2;

        let mut original = StreamEngine::new(stream_config(), Slice::all()).expect("engine");
        for &r in &records[..half] {
            original.push(r);
        }
        let json = original.checkpoint(42).to_json().expect("serialize");
        let ck = Checkpoint::from_json(&json).expect("parse");
        assert_eq!(ck.source_offset, 42);
        let mut restored =
            StreamEngine::restore(ck, Slice::all(), Recorder::disabled()).expect("restore");

        for &r in &records[half..] {
            original.push(r);
            restored.push(r);
        }
        let a = original.snapshot().expect("original snapshot");
        let b = restored.snapshot().expect("restored snapshot");
        assert_reports_identical(&a, &b);
        assert_eq!(original.status(), restored.status());
    }

    #[test]
    fn clean_snapshot_is_served_from_cache_and_byte_identical() {
        let log = smoke_log();
        let recorder = Recorder::new();
        let mut engine =
            StreamEngine::with_recorder(stream_config(), Slice::all(), recorder.clone())
                .expect("engine");
        let records: Vec<ActionRecord> = log.view().iter().collect();
        let half = records.len() / 2;
        for &r in &records[..half] {
            engine.push(r);
        }
        let cold = engine.snapshot().expect("cold snapshot");
        assert!(!engine.last_snapshot_reused());
        let warm = engine.snapshot().expect("warm snapshot");
        assert!(engine.last_snapshot_reused());
        assert_reports_identical(&warm, &cold);
        assert_eq!(
            recorder
                .metrics()
                .snapshot()
                .counter("autosens_stream_snapshot_reuse_total"),
            Some(1)
        );

        // Any new event invalidates the cache; the incrementally rebuilt
        // store must match a cold engine fed the full sequence.
        for &r in &records[half..] {
            engine.push(r);
        }
        let dirty = engine.snapshot().expect("dirty snapshot");
        assert!(!engine.last_snapshot_reused());
        let mut fresh = StreamEngine::new(stream_config(), Slice::all()).expect("engine");
        for &r in &records {
            fresh.push(r);
        }
        let fresh_snap = fresh.snapshot().expect("fresh snapshot");
        assert_reports_identical(&dirty, &fresh_snap);
    }

    #[test]
    fn a_stale_partials_member_is_ignored_on_restore() {
        let log = smoke_log();
        let mut engine = StreamEngine::new(stream_config(), Slice::all()).expect("engine");
        for r in log.view().iter() {
            engine.push(r);
        }
        let json = engine.checkpoint(0).to_json().expect("serialize");
        // The shard member older builds wrote, disagreeing with the records.
        let stale = r#""partials": {"hour_counts": [1], "loss": {"days": []}, "cells": [
            {"cell": 7, "actions": 9, "recorded": 1, "discarded": 0, "total": 1.0, "bins": []}]},
          "records": ["#;
        let tampered = json.replacen(r#""records": ["#, stale, 1);
        assert_ne!(tampered, json, "the shard member was not planted");
        let ck = Checkpoint::from_json(&tampered).expect("parse");
        let restored =
            StreamEngine::restore(ck, Slice::all(), Recorder::disabled()).expect("restore");
        assert_eq!(restored.checkpoint(0).to_json().expect("serialize"), json);
        assert_eq!(engine.status(), restored.status());
        let a = engine.snapshot().expect("original snapshot");
        let b = restored.snapshot().expect("restored snapshot");
        assert_reports_identical(&a, &b);
    }

    #[test]
    fn a_checkpointed_record_that_fails_validation_is_rejected() {
        let mut engine = StreamEngine::new(stream_config(), Slice::all()).expect("engine");
        for r in smoke_log().view().iter().take(100) {
            engine.push(r);
        }
        let mut ck = engine.checkpoint(0);
        ck.shards[0].records[0].tz_offset_ms = i64::MAX / 2;
        let ck = Checkpoint::from_json(&ck.to_json().expect("serialize")).expect("parse");
        let err = StreamEngine::restore(ck, Slice::all(), Recorder::disabled()).err();
        assert!(
            matches!(&err, Some(StreamError::Corrupt(m)) if m.contains("timezone")),
            "{err:?}"
        );
    }

    #[test]
    fn flight_recorder_is_not_checkpointed() {
        use autosens_obs::FlightKind;
        let log = smoke_log();
        let mut original = StreamEngine::new(stream_config(), Slice::all()).expect("engine");
        for r in log.view().iter() {
            original.push(r);
        }
        let ck = original.checkpoint(7);
        // Saving is itself a flight event on the live engine…
        assert!(original
            .flight()
            .events()
            .iter()
            .any(|e| e.kind == FlightKind::CheckpointSaved));
        // …but none of that operational history crosses the checkpoint:
        // the restored process starts a fresh ring whose only event is the
        // restore marker (DESIGN.md §6g).
        let restored =
            StreamEngine::restore(ck, Slice::all(), Recorder::disabled()).expect("restore");
        let events = restored.flight().events();
        assert_eq!(events.len(), 1, "fresh ring expected: {events:?}");
        assert_eq!(events[0].kind, FlightKind::CheckpointRestored);
        assert_eq!(restored.flight().recorded(), 1);
    }

    #[test]
    fn detection_and_decay_do_not_perturb_the_batch_identical_snapshot() {
        // The observability plane must observe, not interfere: with the
        // detector and the windowed curve both enabled, the lifetime
        // report stays bit-identical to batch analyze.
        let log = smoke_log();
        let batch = batch_analyze(&log);
        let cfg = StreamConfig {
            detector: Some(DetectorConfig::default()),
            decay_half_life_ms: Some(2 * 86_400_000),
            ..stream_config()
        };
        let mut engine = StreamEngine::new(cfg, Slice::all()).expect("engine");
        for r in log.view().iter() {
            engine.push(r);
        }
        engine.run_detection().expect("detection");
        let snap = engine.snapshot().expect("snapshot");
        assert_reports_identical(&snap, &batch);
        assert!(snap.windowed.is_some(), "windowed curve requested");
    }

    #[test]
    fn detection_and_windowed_curve_are_thread_count_invariant() {
        let log = smoke_log();
        let mut reference: Option<(Vec<RegimeShift>, Vec<u64>, Vec<u64>)> = None;
        for threads in [1usize, 4] {
            let cfg = StreamConfig {
                analysis: AutoSensConfig {
                    threads,
                    ..AutoSensConfig::default()
                },
                detector: Some(DetectorConfig::default()),
                decay_half_life_ms: Some(2 * 86_400_000),
                ..stream_config()
            };
            let mut engine = StreamEngine::new(cfg, Slice::all()).expect("engine");
            for r in log.view().iter() {
                engine.push(r);
            }
            let shifts = engine.run_detection().expect("detection");
            let snap = engine.snapshot().expect("snapshot");
            let w = snap.windowed.as_ref().expect("windowed curve");
            let wb: Vec<u64> = w.biased.counts().iter().map(|c| c.to_bits()).collect();
            let wu: Vec<u64> = w.unbiased.counts().iter().map(|c| c.to_bits()).collect();
            match &reference {
                None => reference = Some((shifts, wb, wu)),
                Some((s0, b0, u0)) => {
                    assert_eq!(&shifts, s0, "shifts diverged at threads={threads}");
                    assert_eq!(&wb, b0, "windowed biased diverged at threads={threads}");
                    assert_eq!(&wu, u0, "windowed unbiased diverged at threads={threads}");
                }
            }
        }
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        let engine = StreamEngine::new(stream_config(), Slice::all()).expect("engine");
        let mut ck = engine.checkpoint(0);
        ck.version = 99;
        assert!(matches!(ck.validate(), Err(StreamError::Corrupt(_))));

        // A record filed under the wrong bucket must not restore.
        let log = smoke_log();
        let mut engine = StreamEngine::new(stream_config(), Slice::all()).expect("engine");
        for r in log.view().iter().take(100) {
            engine.push(r);
        }
        let mut ck = engine.checkpoint(0);
        assert!(!ck.shards.is_empty());
        ck.shards[0].bucket += 1_000_000;
        let err = StreamEngine::restore(ck, Slice::all(), Recorder::disabled());
        assert!(matches!(err, Err(StreamError::Corrupt(_))));
    }

    #[test]
    fn sliding_window_evicts_and_reports_partial_coverage() {
        let log = smoke_log();
        let mut cfg = stream_config();
        cfg.retain_ms = Some(3 * 24 * 3_600_000); // keep ~3 of 14 days
        let mut engine = StreamEngine::new(cfg, Slice::all()).expect("engine");
        for r in log.view().iter() {
            engine.push(r);
        }
        let status = engine.status();
        assert!(status.evicted > 0, "nothing was evicted");
        assert!(status.live_records < log.len() as u64);
        let snap = engine.snapshot().expect("snapshot");
        assert!(snap
            .degradations
            .iter()
            .any(|d| d.stage == "stream" && d.detail.contains("evicted")));
        assert!(snap.n_actions + status.evicted >= status.live_records);
    }

    #[test]
    fn ingestor_sheds_over_capacity_and_counts_it() {
        let recorder = Recorder::new();
        let ingestor = Ingestor::new(4, OverflowPolicy::Shed, recorder.clone());
        let log = smoke_log();
        let records: Vec<ActionRecord> = log.view().iter().take(10).collect();
        let mut shed = 0;
        for r in &records {
            if ingestor.offer(*r) == Offer::Shed {
                shed += 1;
            }
        }
        assert_eq!(ingestor.queue_depth(), 4);
        assert_eq!(shed, 6);
        assert_eq!(ingestor.shed(), 6);
        let snap = recorder.metrics().snapshot();
        assert_eq!(snap.counter("autosens_stream_shed_events_total"), Some(6));
        assert_eq!(snap.gauge("autosens_stream_queue_depth"), Some(4.0));

        let mut engine = StreamEngine::new(stream_config(), Slice::all()).expect("engine");
        let summary = ingestor.drain_into(&mut engine).expect("drain");
        assert_eq!(summary.pushed, 4);
        assert_eq!(ingestor.queue_depth(), 0);
        assert_eq!(
            recorder
                .metrics()
                .snapshot()
                .gauge("autosens_stream_queue_depth"),
            Some(0.0)
        );
    }

    #[test]
    fn intake_exports_the_same_stream_metrics() {
        // Offers, a drain, then late, duplicate and filtered records, and
        // a second round of offers past capacity: every autosens_stream_*
        // series must read what the per-record name lookups exported.
        use autosens_telemetry::record::{ActionType, Outcome, UserClass, UserId};
        use autosens_telemetry::time::SimTime;
        let rec = |t: i64, outcome: Outcome| ActionRecord {
            time: SimTime(t),
            action: ActionType::SelectMail,
            latency_ms: 120.0,
            user: UserId(7),
            class: UserClass::Business,
            tz_offset_ms: 0,
            outcome,
        };
        let recorder = Recorder::new();
        let ingestor = Ingestor::new(6, OverflowPolicy::Shed, recorder.clone());
        let mut engine =
            StreamEngine::with_recorder(stream_config(), Slice::all(), recorder.clone())
                .expect("engine");
        for r in [
            rec(10_000_000, Outcome::Success),
            rec(10_000_500, Outcome::Success),
            rec(10_000_500, Outcome::Success), // duplicate
            rec(10_001_000, Outcome::Error),   // filtered
            rec(5_000_000, Outcome::Success),  // past the watermark
            rec(9_000_000, Outcome::Success),  // lag 1,000,500 ms
        ] {
            assert_eq!(ingestor.offer(r), Offer::Accepted);
        }
        let summary = ingestor.drain_into(&mut engine).expect("drain");
        assert_eq!((summary.pushed, summary.admitted), (6, 3));
        for i in 0..8 {
            ingestor.offer(rec(10_002_000 + i, Outcome::Success));
        }
        let snap = recorder.metrics().snapshot();
        let stream = |name: &str| name.starts_with("autosens_stream_");
        let counters: Vec<(&str, u64)> = snap
            .counters
            .iter()
            .filter(|c| stream(&c.name))
            .map(|c| (c.name.as_str(), c.value))
            .collect();
        let gauges: Vec<(&str, f64)> = snap
            .gauges
            .iter()
            .filter(|g| stream(&g.name))
            .map(|g| (g.name.as_str(), g.value))
            .collect();
        assert_eq!(
            counters,
            [
                ("autosens_stream_duplicate_events_total", 1),
                ("autosens_stream_events_total", 6),
                ("autosens_stream_filtered_events_total", 1),
                ("autosens_stream_late_events_total", 1),
                ("autosens_stream_shed_events_total", 2),
            ]
        );
        assert_eq!(
            gauges,
            [
                ("autosens_stream_queue_depth", 6.0),
                ("autosens_stream_watermark_lag_ms", 1_000_500.0),
            ]
        );
    }

    #[test]
    fn ingestor_blocks_with_backpressure() {
        let ingestor = Ingestor::new(2, OverflowPolicy::Block, Recorder::disabled());
        let log = smoke_log();
        let view = log.view();
        let mut it = view.iter();
        assert_eq!(ingestor.offer(it.next().unwrap()), Offer::Accepted);
        assert_eq!(ingestor.offer(it.next().unwrap()), Offer::Accepted);
        assert_eq!(ingestor.offer(it.next().unwrap()), Offer::Full);
        assert_eq!(ingestor.queue_depth(), 2, "a Full offer must not enqueue");
        assert_eq!(ingestor.shed(), 0);
    }

    #[test]
    fn fault_stream_at_the_ingest_boundary_matches_batch_injection() {
        // Records offered through an Ingestor wearing a FaultStream come
        // out byte-identical to FaultPlan::apply over the same records.
        let log = smoke_log();
        let plan = FaultPlan {
            seed: 0x57AE,
            ops: vec![
                FaultOp::DropUniform { rate: 0.1 },
                FaultOp::Duplicate { rate: 0.1 },
            ],
        };
        let expected = plan.apply(&log).expect("batch injection");

        let ingestor = Ingestor::new(usize::MAX >> 1, OverflowPolicy::Shed, Recorder::disabled());
        ingestor.set_faults(Some(FaultStream::new(&plan).expect("fault stream")));
        for r in log.view().iter() {
            ingestor.offer(r);
        }
        let mut engine = StreamEngine::new(stream_config(), Slice::all()).expect("engine");
        let summary = ingestor.drain_into(&mut engine).expect("drain");
        assert_eq!(summary.pushed, expected.len());
        assert_eq!(engine.status().events, expected.len() as u64);
    }
}
