//! Time-bucketed shards: per-bucket aggregates over the engine's rows.
//!
//! Every shard covers one `[bucket * shard_ms, (bucket + 1) * shard_ms)`
//! interval of event time. It keeps no rows of its own: the engine holds
//! one time-sorted [`ColumnStore`](autosens_telemetry::log::ColumnStore)
//! in which each shard's rows form one contiguous run, in bucket order,
//! so a shard only records how many rows it owns.
//!
//! What a shard does keep is the plan layer's cacheable operator state
//! ([`PlanPartials`]: the sparse per-cell biased histograms and action
//! counts of [`GroupPartition`](autosens_core::GroupPartition), the
//! per-day loss-cell observation counts of
//! [`LossCounts`](autosens_telemetry::loss::LossCounts)) plus
//! per-local-hour counters — so a snapshot merges shard partials instead
//! of rescanning history, and eviction subtracts a whole shard at once.
//! Histogram counts are unit-weight (integer-valued) additions and loss
//! counts are `u64`s, so shard-merge order cannot perturb the result: the
//! merged partials are bit-identical to a batch rescan.
//!
//! The aggregates live in memory only. A checkpoint holds the rows, and
//! restore refolds each shard from them with [`Shard::rebuild`] — the
//! same per-record fold an insert runs.

use autosens_core::PlanPartials;
use autosens_exec::Mergeable;
use autosens_stats::binning::Binner;
use autosens_telemetry::record::ActionRecord;

/// One time bucket's row count and partial aggregates.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    /// The plan layer's cacheable per-shard operator state: the
    /// `alpha`/`biased_pdf` [`GroupPartition`](autosens_core::GroupPartition)
    /// fold and the `lossmodel`
    /// [`LossCounts`](autosens_telemetry::loss::LossCounts) fold, bundled.
    pub partials: PlanPartials,
    /// Actions per local hour slot (merged across shards via the
    /// fixed-size-array [`Mergeable`] impl).
    pub hour_counts: [u64; 24],
    /// Rows the shard owns in the engine's store.
    len: usize,
}

impl Shard {
    pub fn new(binner: &Binner) -> Shard {
        Shard {
            partials: PlanPartials::empty(binner),
            hour_counts: [0u64; 24],
            len: 0,
        }
    }

    /// Number of rows held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Fold one admitted record into the aggregates (partition, loss
    /// counts, hour counters) — shared by insert and rebuild.
    pub fn record(&mut self, r: &ActionRecord) {
        self.partials.record(r);
        self.hour_counts[r.hour_slot().0 as usize % 24] += 1;
        self.len += 1;
    }

    /// Refold a shard from its checkpointed records — the restore path
    /// (the records are the durable state; the partials are derived).
    pub fn rebuild(records: &[ActionRecord], binner: &Binner) -> Shard {
        let mut shard = Shard::new(binner);
        for r in records {
            shard.record(r);
        }
        shard
    }

    /// Fold this shard's hour counters into an accumulator.
    pub fn merge_hours_into(&self, acc: &mut [u64; 24]) {
        acc.merge(self.hour_counts);
    }
}
