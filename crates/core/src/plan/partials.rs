//! The bundled pre-RNG partial aggregates — one value per shard that an
//! incremental caller folds records into and merges at snapshot time.
//!
//! [`PlanPartials`] packages every cacheable stage state (see the
//! RNG-frontier notes in [`crate::plan::op`]): the `alpha`/`biased_pdf`
//! [`GroupPartition`] fold and the `lossmodel` [`LossCounts`] fold. (The
//! `sanitize` partial — the sorted, deduplicated shard columns — lives
//! in the caller's storage layer, not here.) Both folds are
//! order-insensitive sums of unit-weight integer counts, so merging
//! per-shard values in any order is bit-identical to a single batch
//! rescan; that is the invariant that lets a merged snapshot reproduce
//! batch `analyze` byte for byte.

use autosens_exec::Mergeable;
use autosens_stats::binning::Binner;
use autosens_telemetry::loss::LossCounts;
use autosens_telemetry::record::ActionRecord;

use crate::alpha::GroupPartition;
use crate::error::AutoSensError;

/// Every cacheable per-shard operator state, bundled.
#[derive(Debug, Clone)]
pub struct PlanPartials {
    /// The `alpha`/`biased_pdf` record→(group×period) cell fold.
    pub partition: GroupPartition,
    /// The `lossmodel` in-band evidence fold.
    pub loss: LossCounts,
}

impl PlanPartials {
    /// Empty partials on the given latency grid.
    pub fn empty(binner: &Binner) -> PlanPartials {
        PlanPartials {
            partition: GroupPartition::empty(binner),
            loss: LossCounts::new(),
        }
    }

    /// Fold one admitted record into every cacheable operator state.
    pub fn record(&mut self, r: &ActionRecord) {
        self.partition.record(r);
        self.loss.record(r.time, r.tz_offset_ms, r.class.code());
    }

    /// Merge another shard's partials in, failing on grid mismatch.
    pub fn try_merge(&mut self, other: &PlanPartials) -> Result<(), AutoSensError> {
        self.partition.merge(&other.partition)?;
        self.loss.merge(&other.loss);
        Ok(())
    }

    /// Records folded in so far (from the partition's action counts).
    pub fn n_records(&self) -> u64 {
        self.partition.n_records()
    }
}

impl Mergeable for PlanPartials {
    /// Panics on latency-grid mismatch, like the `Vec<T>` length-mismatch
    /// precedent: partials built under different grids are a programming
    /// error, not a runtime condition.
    fn merge(&mut self, other: Self) {
        self.try_merge(&other)
            .expect("PlanPartials::merge: latency grids differ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AutoSensConfig;
    use autosens_sim::{generate, Scenario, SimConfig};

    #[test]
    fn shardwise_merge_matches_batch_fold() {
        let (log, _) = generate(&SimConfig::scenario(Scenario::Smoke)).unwrap();
        let binner = AutoSensConfig::default().binner().unwrap();
        let mut batch = PlanPartials::empty(&binner);
        let records = log.to_records();
        for r in &records {
            batch.record(r);
        }
        let mut merged = PlanPartials::empty(&binner);
        for chunk in records.chunks(97) {
            let mut shard = PlanPartials::empty(&binner);
            for r in chunk {
                shard.record(r);
            }
            merged.merge(shard);
        }
        assert_eq!(merged.n_records(), batch.n_records());
        assert_eq!(merged.partition.cell_actions, batch.partition.cell_actions);
        assert_eq!(merged.loss.total(), batch.loss.total());
        assert_eq!(merged.loss.observed_cells(), batch.loss.observed_cells());
        for (a, b) in merged.partition.cells.iter().zip(&batch.partition.cells) {
            assert_eq!(a.counts(), b.counts());
        }
    }
}
