//! Streaming edge cases, end to end: the streaming engine against the
//! batch pipeline over the same (sometimes corrupted) telemetry.
//!
//! The two load-bearing properties under test:
//!
//! 1. **Equivalence** — after draining a finite log, `snapshot()` is
//!    bit-identical to batch `analyze`, including under reorder and
//!    duplicate fault injection at the ingest boundary.
//! 2. **Honest degradation** — what cannot be kept (late arrivals past
//!    the watermark) is counted and reported, never silently dropped.

use autosens_core::{AnalysisPlan, AutoSensConfig, PlanInput, RunOptions};
use autosens_faults::{FaultOp, FaultPlan};
use autosens_obs::Recorder;
use autosens_stream::{Ingest, StreamConfig, StreamEngine};
use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
use autosens_telemetry::time::SimTime;
use autosens_telemetry::TelemetryLog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic pseudo-random log dense enough for the default
/// pipeline's per-bin support thresholds (same shape as the golden
/// fixture: ~30k records across ~9 days).
fn small_log(seed: u64) -> TelemetryLog {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0i64;
    let actions = ActionType::analyzed();
    let records: Vec<ActionRecord> = (0..30_000)
        .map(|_| {
            t += rng.gen_range(1_000i64..50_000);
            ActionRecord {
                time: SimTime(t),
                action: actions[rng.gen_range(0..actions.len())],
                latency_ms: rng.gen_range(50.0..1500.0),
                user: UserId(rng.gen_range(0..400)),
                class: if rng.gen_range(0..2) == 0 {
                    UserClass::Business
                } else {
                    UserClass::Consumer
                },
                tz_offset_ms: rng.gen_range(-3i64..=3) * 3_600_000,
                outcome: if rng.gen_range(0..30) == 0 {
                    Outcome::Error
                } else {
                    Outcome::Success
                },
            }
        })
        .collect();
    TelemetryLog::from_records(records).expect("valid records")
}

fn stream_config(lateness_ms: i64) -> StreamConfig {
    StreamConfig {
        analysis: AutoSensConfig::default(),
        shard_ms: 3_600_000,
        allowed_lateness_ms: lateness_ms,
        retain_ms: None,
        detector: None,
        decay_half_life_ms: None,
    }
}

fn assert_bit_identical(
    stream: &autosens_core::pipeline::AnalysisReport,
    batch: &autosens_core::pipeline::AnalysisReport,
) {
    assert_eq!(stream.n_actions, batch.n_actions, "action counts diverged");
    assert_eq!(
        stream.degradations, batch.degradations,
        "degradations diverged"
    );
    let bits = |s: &[(f64, f64)]| -> Vec<(u64, u64)> {
        s.iter().map(|(x, y)| (x.to_bits(), y.to_bits())).collect()
    };
    assert_eq!(
        bits(&stream.preference.series()),
        bits(&batch.preference.series()),
        "preference curves diverged at the bit level"
    );
    let hist_bits = |h: &autosens_stats::histogram::Histogram| -> Vec<u64> {
        h.counts().iter().map(|c| c.to_bits()).collect()
    };
    assert_eq!(hist_bits(&stream.biased), hist_bits(&batch.biased));
    assert_eq!(hist_bits(&stream.unbiased), hist_bits(&batch.unbiased));
}

#[test]
fn streamed_snapshot_equals_batch_on_clean_input() {
    let log = small_log(0x5EED);
    let batch = AnalysisPlan::new(AutoSensConfig::default())
        .run(PlanInput::log(&log), RunOptions::default())
        .expect("batch")
        .report;
    let mut engine = StreamEngine::new(
        stream_config(3_600_000),
        autosens_telemetry::query::Slice::all(),
    )
    .expect("engine");
    for r in log.view().iter() {
        engine.push(r);
    }
    let snap = engine.snapshot().expect("snapshot");
    assert_bit_identical(&snap, &batch);
    assert!(snap.degradations.is_empty(), "clean input must not degrade");
}

#[test]
fn reorder_and_duplicate_injection_preserve_equivalence() {
    // Jitter + duplication at the ingest boundary: the stream admits
    // everything (lateness covers 2x the max shift — a +shift outlier
    // advances the frontier, a -shift outlier arrives behind it) and must
    // still match batch over the corrupted log bit for bit, with both
    // paths reporting the same reorder/duplicate degradations.
    let log = small_log(0xF417);
    let max_shift_ms = 10 * 60_000;
    let plan = FaultPlan {
        seed: 0xBAD5,
        ops: vec![
            FaultOp::Reorder {
                rate: 0.25,
                max_shift_ms,
            },
            FaultOp::Duplicate { rate: 0.05 },
        ],
    };
    let corrupted = plan.apply(&log).expect("inject");
    let batch = AnalysisPlan::new(AutoSensConfig::default())
        .run(PlanInput::log(&corrupted), RunOptions::default())
        .expect("batch")
        .report;

    let recorder = Recorder::new();
    let mut engine = StreamEngine::with_recorder(
        stream_config(2 * max_shift_ms),
        autosens_telemetry::query::Slice::all(),
        recorder.clone(),
    )
    .expect("engine");
    let mut late = 0u64;
    let mut dups = 0u64;
    for r in corrupted.view().iter() {
        match engine.push(r) {
            Ingest::Late => late += 1,
            Ingest::Duplicate => dups += 1,
            _ => {}
        }
    }
    assert_eq!(late, 0, "lateness budget must cover the injected jitter");
    assert!(dups > 0, "duplicate injection produced no duplicates");

    let snap = engine.snapshot().expect("snapshot");
    assert_bit_identical(&snap, &batch);
    assert!(
        snap.degradations
            .iter()
            .any(|d| d.detail.contains("out of time order")),
        "reorder must be reported"
    );
    assert!(
        snap.degradations
            .iter()
            .any(|d| d.detail.contains("exact duplicate")),
        "duplicate removal must be reported"
    );

    // The documented degradation counters incremented.
    let metrics = recorder.metrics().snapshot();
    assert_eq!(
        metrics.counter("autosens_stream_duplicate_events_total"),
        Some(dups)
    );
    assert_eq!(
        metrics.counter("autosens_stream_events_total"),
        Some(corrupted.len() as u64)
    );
}

#[test]
fn late_arrival_past_watermark_is_counted_and_dropped() {
    let log = small_log(0x1A7E);
    let recorder = Recorder::new();
    let mut engine = StreamEngine::with_recorder(
        stream_config(30_000),
        autosens_telemetry::query::Slice::all(),
        recorder.clone(),
    )
    .expect("engine");
    for r in log.view().iter() {
        engine.push(r);
    }
    let frontier = engine.status().max_event_time_ms.expect("frontier");

    // One success record exactly at the watermark is still admitted
    // (low-watermark is inclusive) ...
    let mut boundary = log.view().iter().next().unwrap();
    boundary.time = SimTime(frontier - 30_000);
    boundary.outcome = Outcome::Success;
    boundary.latency_ms = 123.0;
    assert_eq!(engine.push(boundary), Ingest::Admitted);

    // ... one millisecond older is late: counted, dropped, reported.
    let mut too_old = boundary;
    too_old.time = SimTime(frontier - 30_001);
    assert_eq!(engine.push(too_old), Ingest::Late);

    let status = engine.status();
    assert_eq!(status.late, 1);
    assert_eq!(
        recorder
            .metrics()
            .snapshot()
            .counter("autosens_stream_late_events_total"),
        Some(1)
    );
    let snap = engine.snapshot().expect("snapshot");
    let late_degr = snap
        .degradations
        .iter()
        .find(|d| d.stage == "stream")
        .expect("late drop must surface as a degradation");
    assert!(late_degr.detail.contains("1 events"));
    assert!(late_degr.detail.contains("watermark"));
}

#[test]
fn duplicate_event_ids_dedup_identically_to_batch_sanitize() {
    // Hand-build a log with exact duplicates (same every field) plus
    // near-duplicates (same time, different latency): streaming must keep
    // exactly what batch sanitize keeps.
    let base = small_log(0xD0D0);
    let mut records: Vec<ActionRecord> = base.view().iter().collect();
    let mut rng = StdRng::seed_from_u64(0xEC0);
    let mut with_dups = Vec::with_capacity(records.len() + 600);
    for r in records.drain(..) {
        with_dups.push(r);
        match rng.gen_range(0..20) {
            0 => with_dups.push(r), // exact duplicate, adjacent
            1 => {
                let mut near = r;
                near.latency_ms += 1.0; // same instant, different sample
                with_dups.push(near);
            }
            _ => {}
        }
    }
    let corrupted = TelemetryLog::from_trusted_records(with_dups);
    let batch = AnalysisPlan::new(AutoSensConfig::default())
        .run(PlanInput::log(&corrupted), RunOptions::default())
        .expect("batch")
        .report;

    let mut engine = StreamEngine::new(
        stream_config(3_600_000),
        autosens_telemetry::query::Slice::all(),
    )
    .expect("engine");
    let mut dups = 0u64;
    for r in corrupted.view().iter() {
        if engine.push(r) == Ingest::Duplicate {
            dups += 1;
        }
    }
    assert!(dups > 0);
    let snap = engine.snapshot().expect("snapshot");
    assert_bit_identical(&snap, &batch);
    let dup_degr = snap
        .degradations
        .iter()
        .find(|d| d.detail.contains("exact duplicate"))
        .expect("duplicate removal reported");
    assert_eq!(
        dup_degr.detail,
        format!("removed {dups} exact duplicate records"),
        "stream and batch must count duplicates identically"
    );
}

#[test]
fn resume_rejects_checkpoint_past_source_end() {
    // A checkpoint whose recorded source byte offset exceeds the current
    // file length means the source was truncated or replaced since the
    // checkpoint was written; seeking there would resume on unrelated
    // bytes. Resume must refuse with the typed error instead.
    let log = small_log(0x7A11);
    let mut engine = StreamEngine::new(
        stream_config(3_600_000),
        autosens_telemetry::query::Slice::all(),
    )
    .expect("engine");
    for r in log.view().iter() {
        engine.push(r);
    }
    let ck = engine.checkpoint(1_000_000);

    // In-memory guard: shorter source fails typed, exact length passes.
    match ck.check_source_length(999) {
        Err(autosens_stream::StreamError::TruncatedSource { offset, len }) => {
            assert_eq!(offset, 1_000_000);
            assert_eq!(len, 999);
        }
        other => panic!("expected TruncatedSource, got {other:?}"),
    }
    ck.check_source_length(1_000_000)
        .expect("offset == length is a fully-consumed source, not truncation");

    // Filesystem guard, as `watch --resume` uses it: a real file too
    // short to contain the offset. The message must tell the operator
    // what happened and how to recover.
    let dir = std::env::temp_dir().join(format!("autosens_trunc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let src = dir.join("source.csv");
    std::fs::write(&src, b"time,action\n").expect("write");
    let err = ck
        .check_source_file(&src)
        .expect_err("a 12-byte file cannot contain offset 1,000,000");
    let msg = err.to_string();
    assert!(msg.contains("truncated"), "{msg}");
    assert!(msg.contains("delete the checkpoint"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_restore_then_drain_matches_uninterrupted_run() {
    let log = small_log(0xC4EC);
    let records: Vec<ActionRecord> = log.view().iter().collect();
    let cut = 2 * records.len() / 3;

    let mut uninterrupted = StreamEngine::new(
        stream_config(3_600_000),
        autosens_telemetry::query::Slice::all(),
    )
    .expect("engine");
    let mut interrupted = StreamEngine::new(
        stream_config(3_600_000),
        autosens_telemetry::query::Slice::all(),
    )
    .expect("engine");
    for &r in &records[..cut] {
        uninterrupted.push(r);
        interrupted.push(r);
    }
    // Serialize through JSON (the on-disk format), then resume.
    let json = interrupted.checkpoint(7).to_json().expect("serialize");
    drop(interrupted);
    let ck = autosens_stream::Checkpoint::from_json(&json).expect("parse");
    let mut resumed = StreamEngine::restore(
        ck,
        autosens_telemetry::query::Slice::all(),
        Recorder::disabled(),
    )
    .expect("restore");

    for &r in &records[cut..] {
        uninterrupted.push(r);
        resumed.push(r);
    }
    let a = uninterrupted.snapshot().expect("snapshot");
    let b = resumed.snapshot().expect("snapshot");
    assert_bit_identical(&a, &b);
    assert_eq!(uninterrupted.status(), resumed.status());

    // And both equal the batch answer over the full log.
    let batch = AnalysisPlan::new(AutoSensConfig::default())
        .run(PlanInput::log(&log), RunOptions::default())
        .expect("batch")
        .report;
    assert_bit_identical(&a, &batch);
}
