//! Durable engine state: serialize shard records + intake counters to
//! disk, resume a stream mid-flight.
//!
//! The shard **records** — each shard's run of the engine's row store —
//! and the intake counters are the whole durable state. The engine's
//! other bookkeeping (per-bucket row counts, the hour counters) is a
//! count over those records, so a checkpoint writes none of it: restore
//! validates every record, checks each shard's sortedness and bucket, and
//! counts the rows as it appends them. A member a file carries beyond
//! these fields (such as the `partials` section older builds wrote) is
//! ignored on parse, never trusted. The analysis
//! [`Slice`](autosens_telemetry::query::Slice)
//! is deliberately not serialized — callers re-derive it from their own
//! configuration and pass it to [`StreamEngine::restore`](crate::StreamEngine::restore).
//! `source_offset` carries the tailed source's position — a byte offset
//! for text files, a row count for binary `.asc` containers (which grow by
//! atomic whole-file replacement, so only row indices are stable) — so a
//! resumed `watch` continues reading exactly where the checkpoint was cut.

use std::path::Path;

use serde::{Deserialize, Serialize};

use autosens_telemetry::record::ActionRecord;

use crate::engine::StreamConfig;
use crate::error::StreamError;

/// Bump when the on-disk layout changes incompatibly.
pub const CHECKPOINT_VERSION: u32 = 1;

/// One shard's durable state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardCheckpoint {
    /// The shard's time bucket (`time_ms.div_euclid(shard_ms)`).
    pub bucket: i64,
    /// The shard's records, time-sorted and arrival-stable.
    pub records: Vec<ActionRecord>,
}

/// The full durable state of a [`StreamEngine`](crate::StreamEngine).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Layout version; restore rejects mismatches.
    pub version: u32,
    /// The streaming + analysis configuration the state was built under.
    pub config: StreamConfig,
    /// Event-time frontier at checkpoint time.
    pub max_event_time_ms: Option<i64>,
    /// Last raw arrival timestamp (for the out-of-order detector).
    pub last_arrival_ms: Option<i64>,
    /// Whether any record arrived out of time order so far.
    pub saw_out_of_order: bool,
    /// Records offered (pre-filter).
    pub events: u64,
    /// Records excluded by the slice filter.
    pub filtered: u64,
    /// Records dropped past the watermark.
    pub late: u64,
    /// Exact duplicates dropped at insert.
    pub duplicates: u64,
    /// Records dropped with evicted shards.
    pub evicted: u64,
    /// Post-filter intake (admitted + duplicates) — batch `records_in`.
    pub records_in: u64,
    /// Offset into the tailed source (0 when not tailing): bytes consumed
    /// for text files, rows consumed for binary containers.
    pub source_offset: u64,
    /// Live shards in bucket order.
    pub shards: Vec<ShardCheckpoint>,
}

impl Checkpoint {
    /// Structural validation independent of the record contents (record
    /// validity, membership and sortedness are checked during restore).
    pub fn validate(&self) -> Result<(), StreamError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(StreamError::Corrupt(format!(
                "checkpoint version {} is not the supported version {CHECKPOINT_VERSION}",
                self.version
            )));
        }
        for w in self.shards.windows(2) {
            if w[1].bucket <= w[0].bucket {
                return Err(StreamError::Corrupt(format!(
                    "shard buckets are not strictly increasing ({} then {})",
                    w[0].bucket, w[1].bucket
                )));
            }
        }
        Ok(())
    }

    /// Guard for resuming a tailed source: the checkpointed offset must
    /// not exceed the source's current length (`len` is bytes for text
    /// files, rows for binary containers). A shorter source means it was
    /// truncated or replaced since the checkpoint was cut, so seeking to
    /// `source_offset` would read from the middle of unrelated data (or
    /// past EOF) and silently corrupt the stream.
    pub fn check_source_length(&self, len: u64) -> Result<(), StreamError> {
        if self.source_offset > len {
            return Err(StreamError::TruncatedSource {
                offset: self.source_offset,
                len,
            });
        }
        Ok(())
    }

    /// [`Checkpoint::check_source_length`] against a file on disk.
    pub fn check_source_file(&self, path: &Path) -> Result<(), StreamError> {
        self.check_source_length(std::fs::metadata(path)?.len())
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> Result<String, StreamError> {
        serde_json::to_string_pretty(self)
            .map_err(|e| StreamError::Corrupt(format!("checkpoint serialization failed: {e}")))
    }

    /// Parse a checkpoint from JSON and validate its structure.
    pub fn from_json(json: &str) -> Result<Checkpoint, StreamError> {
        let ck: Checkpoint = serde_json::from_str(json)
            .map_err(|e| StreamError::Corrupt(format!("checkpoint parse failed: {e}")))?;
        ck.validate()?;
        Ok(ck)
    }

    /// Write the checkpoint atomically: to a `.tmp` sibling first,
    /// fsynced, then rename over the target, so a crash mid-write never
    /// leaves a truncated checkpoint under the real name. The parent
    /// directory is fsynced best-effort after the rename so the new
    /// entry also survives power loss where the platform supports it.
    pub fn save(&self, path: &Path) -> Result<(), StreamError> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut f, self.to_json()?.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(parent) = path.parent() {
            if let Ok(d) = std::fs::File::open(parent) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Read and validate a checkpoint file.
    pub fn load(path: &Path) -> Result<Checkpoint, StreamError> {
        let json = std::fs::read_to_string(path)?;
        Checkpoint::from_json(&json)
    }
}
