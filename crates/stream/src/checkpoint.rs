//! Durable engine state: serialize shard records + intake counters to
//! disk, resume a stream mid-flight.
//!
//! The shard **records** — each shard's run of the engine's row store —
//! are the state of record; restore appends them back in bucket order.
//! Each shard also carries its cached plan-layer partials
//! ([`ShardPartials`]: the sparse per-cell biased histograms, action
//! counts, loss-cell observation counts, and hour counters) so a restore
//! can skip the per-record refold — but the partials are *trusted only
//! after validation*: restore requires one entry per cell in increasing
//! cell order, checks each cell's action count against its recorded and
//! discarded latencies, cross-checks the totals against the record count,
//! and reports any mismatch as corruption rather than silently
//! recomputing, so a checkpoint can never smuggle in partials that
//! disagree with the records they summarize. Checkpoints written before
//! partials existed (`partials: null` or absent) rebuild the aggregates
//! from records exactly as before. The analysis
//! [`Slice`](autosens_telemetry::query::Slice)
//! is deliberately not serialized — callers re-derive it from their own
//! configuration and pass it to [`StreamEngine::restore`](crate::StreamEngine::restore).
//! `source_offset` carries the tailed source's position — a byte offset
//! for text files, a row count for binary `.asc` containers (which grow by
//! atomic whole-file replacement, so only row indices are stable) — so a
//! resumed `watch` continues reading exactly where the checkpoint was cut.

use std::path::Path;

use serde::{Deserialize, Serialize};

use autosens_core::{GroupPartition, PlanPartials};
use autosens_stats::binning::Binner;
use autosens_stats::histogram::Histogram;
use autosens_telemetry::loss::LossCounts;
use autosens_telemetry::record::ActionRecord;

use crate::engine::StreamConfig;
use crate::error::StreamError;
use crate::shard::Shard;

/// Bump when the on-disk layout changes incompatibly.
pub const CHECKPOINT_VERSION: u32 = 1;

/// One loss cell's cached fold state, sparse over bins: only cells that
/// saw a record are checkpointed, and only their nonzero bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellPartial {
    /// The loss-cell index this state belongs to.
    pub cell: u32,
    /// Actions folded into the cell (the `alpha` operator's count).
    pub actions: u64,
    /// The cell histogram's recorded-value count.
    pub recorded: u64,
    /// The cell histogram's out-of-range discard count.
    pub discarded: u64,
    /// The cell histogram's total recorded weight (equals `recorded` for
    /// the stream's unit-weight folds; kept explicit so the restored
    /// histogram is field-for-field identical, not re-derived).
    pub total: f64,
    /// `(bin index, count)` for every nonzero bin, in index order.
    pub bins: Vec<(u32, f64)>,
}

/// One shard's cached plan-layer partials (see the module docs for the
/// validation contract).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardPartials {
    /// Actions per local hour slot (always 24 entries).
    pub hour_counts: Vec<u64>,
    /// The `lossmodel` operator's per-day loss-cell observation counts.
    pub loss: LossCounts,
    /// Sparse per-cell `alpha`/`biased_pdf` fold state.
    pub cells: Vec<CellPartial>,
}

impl ShardPartials {
    /// Capture a live shard's partials in the sparse durable layout.
    pub(crate) fn capture(shard: &Shard) -> ShardPartials {
        let partition = &shard.partials.partition;
        let cells = (0..partition.n_cells())
            .filter_map(|i| Some((i, partition.cell(i)?, partition.cell_actions()[i])))
            .filter(|(_, h, actions)| *actions > 0 || h.n_recorded() > 0 || h.n_discarded() > 0)
            .map(|(i, h, actions)| CellPartial {
                cell: i as u32,
                actions,
                recorded: h.n_recorded(),
                discarded: h.n_discarded(),
                total: h.total(),
                bins: h
                    .counts()
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c != 0.0)
                    .map(|(b, &c)| (b as u32, c))
                    .collect(),
            })
            .collect();
        ShardPartials {
            hour_counts: shard.hour_counts.to_vec(),
            loss: shard.partials.loss.clone(),
            cells,
        }
    }

    /// Reconstruct a shard of `len` checkpointed records from these
    /// partials, validating every cached total against the record count
    /// so corrupt or hand-edited partials are rejected instead of
    /// silently skewing every later snapshot. Cells must be listed in
    /// strictly increasing index order, and each cell's action count must
    /// equal its recorded plus discarded latencies (every action lands in
    /// exactly one of the two under the unit-weight fold).
    pub(crate) fn restore(
        &self,
        bucket: i64,
        len: usize,
        binner: &Binner,
    ) -> Result<Shard, StreamError> {
        let corrupt = |detail: String| StreamError::Corrupt(format!("shard {bucket}: {detail}"));
        if self.hour_counts.len() != 24 {
            return Err(corrupt(format!(
                "expected 24 hour counters, found {}",
                self.hour_counts.len()
            )));
        }
        for w in self.cells.windows(2) {
            if w[1].cell <= w[0].cell {
                return Err(corrupt(format!(
                    "cell indices are not strictly increasing ({} then {})",
                    w[0].cell, w[1].cell
                )));
            }
        }
        let mut partition = GroupPartition::empty(binner);
        let n_bins = binner.n_bins();
        let mut recorded = 0u64;
        let mut discarded = 0u64;
        for cp in &self.cells {
            let cell = cp.cell as usize;
            if cell >= partition.n_cells() {
                return Err(corrupt(format!(
                    "cell index {cell} out of range ({} cells)",
                    partition.n_cells()
                )));
            }
            if cp.recorded.checked_add(cp.discarded) != Some(cp.actions) {
                return Err(corrupt(format!(
                    "cell {cell} counts {} actions but {} recorded + {} discarded latencies",
                    cp.actions, cp.recorded, cp.discarded
                )));
            }
            let mut counts = vec![0.0f64; n_bins];
            for &(bin, count) in &cp.bins {
                if bin as usize >= n_bins {
                    return Err(corrupt(format!(
                        "cell {cell} bin index {bin} out of range ({n_bins} bins)"
                    )));
                }
                counts[bin as usize] = count;
            }
            let histogram =
                Histogram::from_parts(binner.clone(), counts, cp.total, cp.recorded, cp.discarded)
                    .map_err(|e| corrupt(format!("cell {cell}: {e}")))?;
            partition
                .set_cell(cell, histogram, cp.actions)
                .map_err(|e| corrupt(e.to_string()))?;
            recorded += cp.recorded;
            discarded += cp.discarded;
        }
        let len = len as u64;
        if partition.n_records() != len {
            return Err(corrupt(format!(
                "partials cover {} actions but the shard holds {len} records",
                partition.n_records()
            )));
        }
        if recorded + discarded != len {
            return Err(corrupt(format!(
                "partials account for {recorded} recorded + {discarded} discarded \
                 latencies but the shard holds {len} records"
            )));
        }
        if self.loss.total() != len {
            return Err(corrupt(format!(
                "partials count {} loss-cell observations but the shard holds {len} records",
                self.loss.total()
            )));
        }
        if self.hour_counts.iter().sum::<u64>() != len {
            return Err(corrupt(format!(
                "hour counters sum to {} but the shard holds {len} records",
                self.hour_counts.iter().sum::<u64>()
            )));
        }
        let mut hour_counts = [0u64; 24];
        hour_counts.copy_from_slice(&self.hour_counts);
        Ok(Shard::from_parts(
            len as usize,
            PlanPartials {
                partition,
                loss: self.loss.clone(),
            },
            hour_counts,
        ))
    }
}

/// One shard's durable state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardCheckpoint {
    /// The shard's time bucket (`time_ms.div_euclid(shard_ms)`).
    pub bucket: i64,
    /// The shard's records, time-sorted and arrival-stable.
    pub records: Vec<ActionRecord>,
    /// Cached plan-layer partials; `None` (including in pre-partials
    /// checkpoints) rebuilds them from the records on restore.
    #[serde(default)]
    pub partials: Option<ShardPartials>,
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
    /// membership and sortedness are re-checked during restore).
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
