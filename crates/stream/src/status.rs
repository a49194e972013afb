//! The `watch --status-out` health document: one JSON file, periodically
//! rewritten, answering "how is the stream doing *right now*?" — current
//! and windowed preference curves, intake counters, per-shard watermark
//! lag, queue depth, loss rate, detected regime shifts, and the flight
//! recorder's recent events.
//!
//! The document is rewritten atomically (write to a `.tmp` sibling, then
//! rename) so a reader polling the path never sees a torn file.

use std::path::Path;

use serde::{Deserialize, Serialize};

use autosens_core::pipeline::AnalysisReport;
use autosens_obs::FlightEvent;

use crate::detector::RegimeShift;
use crate::engine::{StreamEngine, StreamStatus};
use crate::error::StreamError;

/// How many flight-recorder events the document carries.
const RECENT_EVENTS: usize = 32;

/// One live shard's position relative to the event-time frontier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardLag {
    /// Start of the shard's event-time bucket, ms.
    pub bucket_start_ms: i64,
    /// Records held by the shard.
    pub records: u64,
    /// How far the shard's newest record trails the frontier, ms.
    pub lag_ms: i64,
}

/// The windowed decayed curve as exported (see
/// [`WindowedCurve`](autosens_core::WindowedCurve)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowedSummary {
    /// Decay half-life, event-time ms.
    pub half_life_ms: i64,
    /// The frontier the decay was anchored at.
    pub frontier_ms: i64,
    /// Total decayed biased mass (effective sample size proxy).
    pub effective_mass: f64,
    /// The fitted windowed preference samples; empty when the decayed
    /// mass no longer supports a fit.
    pub curve: Vec<(f64, f64)>,
}

/// The health document `watch --status-out` rewrites.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusDocument {
    /// Event-time frontier when the document was assembled, ms. Event
    /// time, not wall clock: the document is a pure function of the
    /// stream contents.
    pub generated_at_ms: i64,
    /// Intake counters and store shape.
    pub status: StreamStatus,
    /// Ingest queue depth at assembly time (0 when pushing directly).
    pub queue_depth: u64,
    /// Whether the embedded report was served from the engine's snapshot
    /// cache (no events arrived since the previous snapshot computed it).
    #[serde(default)]
    pub report_cached: bool,
    /// The intake event count the embedded report was computed at — the
    /// snapshot cache's dirty key. Equal to `status.events` whenever the
    /// document and report were assembled under one tenant lock.
    #[serde(default)]
    pub report_events: u64,
    /// Volume-weighted overall estimated telemetry-loss rate.
    pub loss_rate: f64,
    /// Whether the loss-aware correction is currently active.
    pub loss_correction_active: bool,
    /// The lifetime preference curve samples `(latency_ms, preference)`.
    pub curve: Vec<(f64, f64)>,
    /// The windowed decayed curve, when enabled.
    pub windowed: Option<WindowedSummary>,
    /// Per-shard watermark lag, bucket order.
    pub shard_lags: Vec<ShardLag>,
    /// Regime shifts found by the most recent detection pass.
    pub regime_shifts: Vec<RegimeShift>,
    /// The flight recorder's most recent events, oldest first.
    pub recent_events: Vec<FlightEvent>,
}

impl StatusDocument {
    /// Assemble a document from an engine and its latest snapshot report.
    pub fn collect(
        engine: &StreamEngine,
        report: &AnalysisReport,
        queue_depth: u64,
    ) -> StatusDocument {
        let status = engine.status();
        let windowed = report.windowed.as_ref().map(|w| WindowedSummary {
            half_life_ms: w.spec.half_life_ms,
            frontier_ms: w.spec.frontier_ms,
            effective_mass: w.effective_mass,
            curve: w
                .preference
                .as_ref()
                .map(|p| p.series().to_vec())
                .unwrap_or_default(),
        });
        StatusDocument {
            generated_at_ms: status.max_event_time_ms.unwrap_or(0),
            status,
            queue_depth,
            report_cached: engine.last_snapshot_reused(),
            report_events: engine.events(),
            loss_rate: report.loss.as_ref().map_or(0.0, |l| l.overall_rate),
            loss_correction_active: report.loss.is_some(),
            curve: report.preference.series().to_vec(),
            windowed,
            shard_lags: engine
                .shard_lags()
                .into_iter()
                .map(|(bucket_start_ms, records, lag_ms)| ShardLag {
                    bucket_start_ms,
                    records,
                    lag_ms,
                })
                .collect(),
            regime_shifts: engine.last_shifts().to_vec(),
            recent_events: engine.flight().recent(RECENT_EVENTS),
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> Result<String, StreamError> {
        serde_json::to_string_pretty(self)
            .map_err(|e| StreamError::Corrupt(format!("status serialization failed: {e}")))
    }

    /// Parse a document from JSON.
    pub fn from_json(json: &str) -> Result<StatusDocument, StreamError> {
        serde_json::from_str(json)
            .map_err(|e| StreamError::Corrupt(format!("status parse failed: {e}")))
    }

    /// Rewrite `path` atomically: a crash mid-write never leaves a torn
    /// document under the real name.
    pub fn save(&self, path: &Path) -> Result<(), StreamError> {
        let json = self.to_json()?;
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorConfig;
    use crate::engine::StreamConfig;
    use autosens_sim::{generate, Scenario, SimConfig};
    use autosens_telemetry::query::Slice;

    fn engine_with_data() -> (StreamEngine, std::sync::Arc<AnalysisReport>) {
        let cfg = StreamConfig {
            shard_ms: 6 * 3_600_000,
            decay_half_life_ms: Some(2 * 86_400_000),
            detector: Some(DetectorConfig::default()),
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::new(cfg, Slice::all()).unwrap();
        let (log, _) = generate(&SimConfig::scenario(Scenario::Smoke)).unwrap();
        for r in log.iter() {
            engine.push(r);
        }
        engine.run_detection().unwrap();
        let report = engine.snapshot().unwrap();
        (engine, report)
    }

    #[test]
    fn document_round_trips_and_carries_both_curves() {
        let (engine, report) = engine_with_data();
        let doc = StatusDocument::collect(&engine, &report, 3);
        assert!(doc.generated_at_ms > 0);
        assert_eq!(doc.queue_depth, 3);
        assert_eq!(doc.report_events, doc.status.events);
        assert!(
            !doc.report_cached,
            "first snapshot after ingest cannot be cache-served"
        );
        assert!(!doc.curve.is_empty());
        let windowed = doc.windowed.as_ref().expect("windowed curve enabled");
        assert_eq!(windowed.half_life_ms, 2 * 86_400_000);
        assert!(windowed.effective_mass > 0.0);
        assert!(!doc.shard_lags.is_empty());
        assert_eq!(
            doc.shard_lags.iter().map(|s| s.records).sum::<u64>(),
            doc.status.live_records
        );
        let json = doc.to_json().unwrap();
        let back = StatusDocument::from_json(&json).unwrap();
        assert_eq!(back, doc);
    }

    /// Serialization stability: deserialize → reserialize must reproduce
    /// the exact bytes. The serve query plane ships these documents to
    /// remote pollers and the gateway restart gate diffs them, so any
    /// field that doesn't survive a round trip byte-for-byte (map
    /// ordering, float formatting, skipped defaults) breaks consumers.
    #[test]
    fn serialization_is_byte_stable_across_round_trips() {
        let (engine, report) = engine_with_data();
        let doc = StatusDocument::collect(&engine, &report, 7);
        let first = doc.to_json().unwrap();
        let back = StatusDocument::from_json(&first).unwrap();
        let second = back.to_json().unwrap();
        assert_eq!(first, second, "re-serialized document differs");
        let third = StatusDocument::from_json(&second)
            .unwrap()
            .to_json()
            .unwrap();
        assert_eq!(second, third, "round trip is not idempotent");
    }

    #[test]
    fn save_is_atomic_and_replaces_prior_content() {
        let (engine, report) = engine_with_data();
        let doc = StatusDocument::collect(&engine, &report, 0);
        let dir = std::env::temp_dir().join(format!("autosens-status-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("status.json");
        std::fs::write(&path, "{\"stale\":true}").unwrap();
        doc.save(&path).unwrap();
        let back = StatusDocument::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, doc);
        assert!(!path.with_extension("tmp").exists(), "tmp file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }
}
