//! The time-based activity factor `α` (§2.4.1).
//!
//! User activity and latency both follow the clock, so time confounds any
//! naive pooling of data across hours. The paper's correction estimates, for
//! each time group `T` (1-hour slots by default) and latency bin `L`:
//!
//! * `c_T^L` — the count of actions with latency `L` in group `T`;
//! * `f_T^L` — the fraction of group `T`'s *time* during which the latency
//!   is `L`, estimated from the group-conditional unbiased distribution;
//! * the temporal action rate `c_T^L / f_T^L`;
//! * `α_{T,L}` — the rate relative to a reference group at the *same*
//!   latency bin, so the latency effect cancels and only the time effect
//!   remains;
//! * `α_T` — the average of `α_{T,L}` over latency bins (the paper verifies,
//!   and Figure 8 shows, that `α` is flat across bins).
//!
//! Counts are then divided by `α_T` before pooling, which replaces e.g. the
//! small night-time counts with counts commensurate with how *prevalent*
//! each latency is at night. Because noise makes the result depend on the
//! reference, several references are used in turn and the results averaged.

use rand::Rng;

use autosens_exec::{ExecReport, Mergeable};
use autosens_stats::binning::Binner;
use autosens_stats::histogram::Histogram;
use autosens_stats::StatsError;
use autosens_telemetry::log::LogView;
use autosens_telemetry::loss::{loss_cell_index, N_LOSS_CELLS, N_LOSS_CLASSES};
use autosens_telemetry::record::ActionRecord;
use autosens_telemetry::time::{DayPeriod, MS_PER_DAY, MS_PER_HOUR};

use crate::config::AutoSensConfig;
use crate::error::AutoSensError;
use crate::lossmodel::LossModel;
use crate::unbiased::unbiased_histogram_in_windows_par;

/// How records are grouped in time for the confounder correction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouping {
    /// 24 one-hour slots by local hour of day (the paper's §2.4.1 choice).
    HourSlots,
    /// The four 6-hour day periods (used for the Figure 8 analysis).
    DayPeriods,
    /// 48 groups: one-hour slots split by weekday vs weekend (groups
    /// 0..24 weekday, 24..48 weekend). §2.4.1 names the day of week as
    /// part of the time confounder; this grouping corrects it when
    /// weekend load (and hence latency) differs from weekdays.
    HourSlotsByDayKind,
}

impl Grouping {
    /// Number of groups.
    pub fn n_groups(self) -> usize {
        match self {
            Grouping::HourSlots => 24,
            Grouping::DayPeriods => 4,
            Grouping::HourSlotsByDayKind => 48,
        }
    }

    /// Group index of a (local hour of day, weekend flag) pair.
    pub fn group_of(self, hour: u8, weekend: bool) -> usize {
        match self {
            Grouping::HourSlots => hour as usize,
            Grouping::DayPeriods => match DayPeriod::of_hour(hour) {
                DayPeriod::Morning8to14 => 0,
                DayPeriod::Afternoon14to20 => 1,
                DayPeriod::Evening20to2 => 2,
                DayPeriod::Night2to8 => 3,
            },
            Grouping::HourSlotsByDayKind => hour as usize + if weekend { 24 } else { 0 },
        }
    }

    /// Group index of a local hour on a weekday (convenience for the
    /// groupings that ignore the day kind).
    pub fn group_of_hour(self, hour: u8) -> usize {
        self.group_of(hour, false)
    }

    /// Whether a (local hour, weekend) cell belongs to a group.
    pub fn contains(self, group: usize, hour: u8, weekend: bool) -> bool {
        self.group_of(hour, weekend) == group
    }

    /// The local hours belonging to a group index (either day kind).
    pub fn hours_of_group(self, group: usize) -> Vec<u8> {
        (0..24u8)
            .filter(|&h| self.contains(group, h, false) || self.contains(group, h, true))
            .collect()
    }

    /// Human-readable group label.
    pub fn label(self, group: usize) -> String {
        match self {
            Grouping::HourSlots => format!("{group:02}:00-{:02}:00", (group + 1) % 24),
            Grouping::DayPeriods => DayPeriod::all()[group].label().to_string(),
            Grouping::HourSlotsByDayKind => {
                let hour = group % 24;
                let kind = if group < 24 { "weekday" } else { "weekend" };
                format!("{kind} {hour:02}:00-{:02}:00", (hour + 1) % 24)
            }
        }
    }
}

/// The α estimate for one time group.
#[derive(Debug, Clone)]
pub struct GroupAlpha {
    /// Group index under the grouping.
    pub group: usize,
    /// Display label.
    pub label: String,
    /// The activity factor (1.0 for the primary reference group); `None`
    /// when the group had too little data to compare against any reference.
    pub alpha: Option<f64>,
    /// Per-latency-bin α against the primary reference (Figure 8's series):
    /// `(bin center ms, α)` for bins supported in both groups.
    pub per_bin: Vec<(f64, f64)>,
    /// Action count in the group.
    pub n_actions: u64,
    /// The group's biased (count) histogram.
    pub biased: Histogram,
    /// The group's unbiased (draw-count) histogram.
    pub unbiased: Histogram,
    /// The group's time-proportional share of the total unbiased draw
    /// budget. The pooled U rescales each group's histogram to this mass so
    /// pooling stays exactly time-weighted even though sparse groups
    /// receive a floor of extra draws for α stability.
    pub target_mass: f64,
}

/// The complete α estimate over a log.
#[derive(Debug, Clone)]
pub struct AlphaEstimate {
    /// The grouping used.
    pub grouping: Grouping,
    /// Per-group results, indexed by group id (groups with no records have
    /// `n_actions == 0` and `alpha == None`).
    pub groups: Vec<GroupAlpha>,
    /// The primary reference group (largest action count).
    pub primary_reference: usize,
    /// The reference groups used for averaging.
    pub references: Vec<usize>,
    /// Scheduling reports of the data-parallel jobs that built the
    /// estimate (the slot partition plus one draw job per populated
    /// group), for the pipeline's observability layer.
    pub exec_reports: Vec<ExecReport>,
}

impl AlphaEstimate {
    /// α for a record's group, if usable.
    pub fn alpha_for(&self, record: &ActionRecord) -> Option<f64> {
        let hour = record.hour_slot().0;
        let weekend = record.time.is_weekend_local(record.tz_offset_ms);
        let g = self.grouping.group_of(hour, weekend);
        self.groups[g].alpha
    }

    /// The α-normalized pooled biased histogram: each group's counts scaled
    /// by `1/α_T`. Groups without a usable α are excluded.
    pub fn normalized_biased(&self, binner: &Binner) -> Result<Histogram, AutoSensError> {
        let mut pooled = Histogram::new(binner.clone());
        for g in &self.groups {
            if let Some(alpha) = g.alpha {
                // estimate_alpha never stores such an α, but the fields are
                // public; fail typed rather than scaling by NaN/∞/0.
                if !(alpha.is_finite() && alpha > 0.0) {
                    return Err(AutoSensError::NonFinite {
                        what: format!("alpha for group {}", g.label),
                    });
                }
                let mut h = g.biased.clone();
                h.scale(1.0 / alpha).map_err(AutoSensError::from)?;
                pooled.merge(&h).map_err(AutoSensError::from)?;
            }
        }
        Ok(pooled)
    }

    /// The pooled unbiased histogram over the groups with a usable α.
    ///
    /// Each group's histogram is rescaled to its time-proportional target
    /// mass before merging, so the pooled distribution weights every group
    /// by the wall-clock time it covers — the defining property of `U`.
    pub fn pooled_unbiased(&self, binner: &Binner) -> Result<Histogram, AutoSensError> {
        let mut pooled = Histogram::new(binner.clone());
        for g in &self.groups {
            if g.alpha.is_some() && !g.unbiased.is_empty() && g.target_mass > 0.0 {
                let mut h = g.unbiased.clone();
                h.scale(g.target_mass / h.total())
                    .map_err(AutoSensError::from)?;
                pooled.merge(&h).map_err(AutoSensError::from)?;
            }
        }
        Ok(pooled)
    }
}

/// Per-bin and mean α of one group against one reference, from raw counts.
///
/// `c_*` are per-bin action counts; `u_*` are per-bin unbiased masses (draw
/// counts or fractions — only their relative sizes matter). A bin
/// participates when all four quantities meet their minimum. This is the
/// arithmetic of the paper's Table 1, exposed for direct testing:
///
/// ```
/// use autosens_core::alpha::alpha_vs_reference;
///
/// // The paper's Table 1: night vs day, "low"/"high" latency bins.
/// let (per_bin, mean) = alpha_vs_reference(
///     &[26.0, 4.0],  // night action counts
///     &[0.8, 0.2],   // night time fractions
///     &[90.0, 140.0],// day action counts (reference)
///     &[0.3, 0.7],   // day time fractions
///     0.0, 0.0,
/// );
/// assert!((per_bin[0].unwrap() - 0.108).abs() < 1e-3);
/// assert!((per_bin[1].unwrap() - 0.100).abs() < 1e-9);
/// assert!((mean.unwrap() - 0.104).abs() < 1e-3);
/// ```
pub fn alpha_vs_reference(
    c_g: &[f64],
    u_g: &[f64],
    c_r: &[f64],
    u_r: &[f64],
    min_c: f64,
    min_u: f64,
) -> (Vec<Option<f64>>, Option<f64>) {
    assert!(
        c_g.len() == u_g.len() && c_g.len() == c_r.len() && c_g.len() == u_r.len(),
        "bin count mismatch"
    );
    let ug_total: f64 = u_g.iter().sum();
    let ur_total: f64 = u_r.iter().sum();
    let mut per_bin = vec![None; c_g.len()];
    let mut sum = 0.0;
    let mut n = 0usize;
    if ug_total > 0.0 && ur_total > 0.0 {
        for i in 0..c_g.len() {
            let ok = c_g[i] >= min_c.max(1e-12)
                && c_r[i] >= min_c.max(1e-12)
                && u_g[i] >= min_u
                && u_r[i] >= min_u
                && u_g[i] > 0.0
                && u_r[i] > 0.0;
            if !ok {
                continue;
            }
            let f_g = u_g[i] / ug_total;
            let f_r = u_r[i] / ur_total;
            let rate_g = c_g[i] / f_g;
            let rate_r = c_r[i] / f_r;
            let a = rate_g / rate_r;
            per_bin[i] = Some(a);
            sum += a;
            n += 1;
        }
    }
    let mean = if n > 0 { Some(sum / n as f64) } else { None };
    (per_bin, mean)
}

/// Precision-weighted variant of [`alpha_vs_reference`]: each bin's α is
/// weighted by the inverse of its (delta-method) relative variance,
/// `1 / (1/c_g + 1/c_r + 1/u_g + 1/u_r)`, so sparsely populated bins no
/// longer dominate the average with their noise. An extension beyond the
/// paper (which averages uniformly); enabled by
/// [`crate::config::AutoSensConfig::alpha_precision_weighting`].
pub fn alpha_vs_reference_weighted(
    c_g: &[f64],
    u_g: &[f64],
    c_r: &[f64],
    u_r: &[f64],
    min_c: f64,
    min_u: f64,
) -> (Vec<Option<f64>>, Option<f64>) {
    let (per_bin, _) = alpha_vs_reference(c_g, u_g, c_r, u_r, min_c, min_u);
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, a) in per_bin.iter().enumerate() {
        if let Some(a) = a {
            let w = 1.0 / (1.0 / c_g[i] + 1.0 / c_r[i] + 1.0 / u_g[i] + 1.0 / u_r[i]);
            num += w * a;
            den += w;
        }
    }
    let mean = if den > 0.0 { Some(num / den) } else { None };
    (per_bin, mean)
}

/// The per-cell action partition behind α estimation: one biased (count)
/// histogram and one action counter per **loss cell** (local hour ×
/// day kind × user class — [`autosens_telemetry::loss::N_LOSS_CELLS`]
/// cells).
///
/// Cells are strictly finer than every [`Grouping`] (each group is a union
/// of cells), so one partition serves all groupings *and* the loss-aware
/// correction, which reweights per cell before regrouping. Group
/// histograms come out of [`GroupPartition::group_biased`]: an ordered sum
/// over the group's cells. With unit weights every bin count is a sum of
/// integer-valued `f64`s (exact in any order below 2^53), so the regrouped
/// histograms are bit-identical to accumulating per group directly; with
/// correction weights the fixed cell order makes the weighted sum
/// deterministic for every thread count.
///
/// Storage is sparse: a cell's histogram is allocated when the cell
/// receives its first record, so a partition over one hour of one class
/// holds one histogram, not [`N_LOSS_CELLS`]. An absent cell is an
/// all-zero histogram, and every operation skips it; since the dense
/// representation only ever added such zeros (`x + 0.0 == x` for the
/// non-negative counts held here), sparse results are bit-identical.
///
/// [`estimate_alpha`] builds this with a chunked map-reduce over the log;
/// an incremental caller (the streaming engine) maintains the same partials
/// per shard and merges them instead. Histogram counts are unit-weight
/// additions, so partial merges are exact in any order and the merged
/// partition is bit-identical to a batch rescan of the same records.
#[derive(Debug, Clone)]
pub struct GroupPartition {
    /// The latency grid every cell histogram uses.
    binner: Binner,
    /// Per-cell biased histograms, indexed by loss-cell id; `None` until
    /// the cell's first record.
    cells: Vec<Option<Box<Histogram>>>,
    /// Per-cell action counts, indexed by loss-cell id.
    cell_actions: Vec<u64>,
}

impl GroupPartition {
    /// An all-empty partition for a binner (no histogram allocated).
    pub fn empty(binner: &Binner) -> GroupPartition {
        GroupPartition {
            binner: binner.clone(),
            cells: vec![None; N_LOSS_CELLS],
            cell_actions: vec![0u64; N_LOSS_CELLS],
        }
    }

    /// The latency grid of the cell histograms.
    pub fn binner(&self) -> &Binner {
        &self.binner
    }

    /// Number of cells (always [`N_LOSS_CELLS`]).
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Cell `i`'s histogram, or `None` while the cell holds no record.
    pub fn cell(&self, i: usize) -> Option<&Histogram> {
        self.cells[i].as_deref()
    }

    /// Per-cell action counts, indexed by loss-cell id.
    pub fn cell_actions(&self) -> &[u64] {
        &self.cell_actions
    }

    /// Install cell `i`'s histogram and action count (checkpoint restore).
    /// Errors when `i` is out of range or the histogram's grid is not the
    /// partition's.
    pub fn set_cell(
        &mut self,
        i: usize,
        histogram: Histogram,
        actions: u64,
    ) -> Result<(), AutoSensError> {
        if i >= self.cells.len() {
            return Err(AutoSensError::Internal(format!(
                "cell index {i} out of range ({} cells)",
                self.cells.len()
            )));
        }
        if histogram.binner() != &self.binner {
            return Err(AutoSensError::Internal(format!(
                "cell {i} histogram binner does not match the partition's"
            )));
        }
        self.cells[i] = Some(Box::new(histogram));
        self.cell_actions[i] = actions;
        Ok(())
    }

    /// Loss-cell index of a record.
    pub fn cell_of(r: &ActionRecord) -> usize {
        let weekend = r.time.is_weekend_local(r.tz_offset_ms);
        loss_cell_index(r.hour_slot().0, weekend, r.class.code())
    }

    /// Cell `c`'s histogram, allocated empty on first use.
    fn cell_mut(&mut self, c: usize) -> &mut Histogram {
        let binner = &self.binner;
        self.cells[c].get_or_insert_with(|| Box::new(Histogram::new(binner.clone())))
    }

    /// Fold one record into the partition (the incremental counterpart of
    /// the batch map-reduce's per-chunk loop).
    pub fn record(&mut self, r: &ActionRecord) {
        self.record_weighted(r, 1.0);
    }

    /// Fold one record in with a loss-correction weight on its histogram
    /// contribution (the action counter stays a raw unit count).
    pub fn record_weighted(&mut self, r: &ActionRecord, weight: f64) {
        let c = GroupPartition::cell_of(r);
        self.cell_mut(c).record_weighted(r.latency_ms, weight);
        self.cell_actions[c] += 1;
    }

    /// Fold another partition into this one, cell by cell in cell order.
    /// Errors when the latency grids differ.
    pub fn merge(&mut self, other: &GroupPartition) -> Result<(), AutoSensError> {
        if !self.binner.same_grid(&other.binner) {
            return Err(AutoSensError::from(StatsError::BinnerMismatch));
        }
        for (c, theirs) in other.cells.iter().enumerate() {
            if let Some(theirs) = theirs {
                self.cell_mut(c)
                    .merge(theirs)
                    .map_err(AutoSensError::from)?;
            }
        }
        for (a, b) in self.cell_actions.iter_mut().zip(&other.cell_actions) {
            *a += b;
        }
        Ok(())
    }

    /// Total records partitioned.
    pub fn n_records(&self) -> u64 {
        self.cell_actions.iter().sum()
    }

    /// The group cell `cell` belongs to under `grouping`.
    fn group_of_cell(grouping: Grouping, cell: usize) -> usize {
        let slot = cell / N_LOSS_CLASSES;
        grouping.group_of((slot / 2) as u8, slot % 2 == 1)
    }

    /// The present cells, in cell order.
    fn present(&self) -> impl Iterator<Item = (usize, &Histogram)> {
        self.cells
            .iter()
            .enumerate()
            .filter_map(|(c, h)| h.as_deref().map(|h| (c, h)))
    }

    /// Per-group biased histograms under a grouping: each group is the sum
    /// of its cells, in cell order (bit-identical to direct per-group
    /// accumulation for a unit-weight partition — see the type docs).
    pub fn group_biased(&self, grouping: Grouping) -> Result<Vec<Histogram>, AutoSensError> {
        let mut out = vec![Histogram::new(self.binner.clone()); grouping.n_groups()];
        for (cell, ch) in self.present() {
            out[GroupPartition::group_of_cell(grouping, cell)]
                .merge(ch)
                .map_err(AutoSensError::from)?;
        }
        Ok(out)
    }

    /// The pooled biased histogram over *all* cells, in cell order. This is
    /// the no-α-correction counterpart of [`GroupPartition::group_biased`];
    /// for a unit-weight partition it is bit-identical to recording every
    /// row directly.
    pub fn pooled_biased(&self) -> Result<Histogram, AutoSensError> {
        let mut h = Histogram::new(self.binner.clone());
        for (_, ch) in self.present() {
            h.merge(ch).map_err(AutoSensError::from)?;
        }
        Ok(h)
    }

    /// Per-group action counts under a grouping (always the raw, unweighted
    /// counts — reference selection and draw skipping key off these).
    pub fn group_actions(&self, grouping: Grouping) -> Vec<u64> {
        let mut out = vec![0u64; grouping.n_groups()];
        for (cell, &n) in self.cell_actions.iter().enumerate() {
            out[GroupPartition::group_of_cell(grouping, cell)] += n;
        }
        out
    }
}

/// Chunk partials of the batch partition merge in chunk order. Partials of
/// one job share one binner by construction, so a grid mismatch is a
/// programming error and panics (the scheduler turns it into a typed
/// error), as for [`Histogram`]'s impl.
impl Mergeable for GroupPartition {
    fn merge(&mut self, other: Self) {
        GroupPartition::merge(self, &other).expect("chunk partials share one binner grid");
    }
}

/// Partition a view's actions by loss cell as a chunked map-reduce (each
/// chunk builds its own per-cell histograms and counters, merged in chunk
/// order). This is the batch producer of [`GroupPartition`]; rows are read
/// straight off the view's columns, no records are copied.
pub fn partition_by_group(
    log: &LogView<'_>,
    binner: &Binner,
    threads: usize,
) -> Result<(GroupPartition, ExecReport), AutoSensError> {
    partition_fold("alpha_partition", log, binner, threads, |_| 1.0)
}

/// [`partition_by_group`] with per-record loss-correction weights: each
/// record's histogram contribution is scaled by [`LossModel::weight_for`]
/// on its (local day, hour, day kind, class). Chunk boundaries and the
/// chunk-order merge are identical to the unit-weight build, so the
/// weighted partition is bit-identical for every thread count.
pub fn partition_by_group_weighted(
    log: &LogView<'_>,
    binner: &Binner,
    model: &LossModel,
    threads: usize,
) -> Result<(GroupPartition, ExecReport), AutoSensError> {
    partition_fold("alpha_partition_weighted", log, binner, threads, |r| {
        let day = r.time.day_local(r.tz_offset_ms);
        let weekend = r.time.is_weekend_local(r.tz_offset_ms);
        model.weight_for(day, r.hour_slot().0, weekend, r.class.code())
    })
}

/// The shared chunked fold of both partition builds: every row enters its
/// loss cell with histogram weight `weight(record)`.
fn partition_fold(
    label: &str,
    log: &LogView<'_>,
    binner: &Binner,
    threads: usize,
    weight: impl Fn(&ActionRecord) -> f64 + Sync,
) -> Result<(GroupPartition, ExecReport), AutoSensError> {
    let (partial, report) = autosens_exec::map_reduce(
        label,
        log.len(),
        autosens_exec::scan_chunk_size_for(log.len()),
        threads,
        |_, range| {
            let mut part = GroupPartition::empty(binner);
            for i in range {
                let r = log.get(i);
                part.record_weighted(&r, weight(&r));
            }
            part
        },
    )?;
    Ok((
        partial.unwrap_or_else(|| GroupPartition::empty(binner)),
        report,
    ))
}

/// Estimate α over a log, optionally from a precomputed
/// [`GroupPartition`].
///
/// The log must be sorted and non-empty. The day windows used for the
/// group-conditional unbiased draws are derived from the log's span.
///
/// When `partition` is `Some`, the per-group rescan of the log is skipped
/// and the supplied partials are used directly — this is how the streaming
/// engine turns its incrementally maintained shard state into an α
/// estimate without re-walking history. The partition must cover exactly
/// the records of `log` under the same `binner` and `grouping`; the RNG-
/// bearing stages (group-conditional unbiased draws) always run over the
/// full log, so the caller's RNG consumption is identical either way.
pub fn estimate_alpha<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    grouping: Grouping,
    cfg: &AutoSensConfig,
    rng: &mut R,
    partition: Option<GroupPartition>,
) -> Result<AlphaEstimate, AutoSensError> {
    let (part, mut inputs) = build_alpha_inputs(log, binner, grouping, cfg, rng, partition)?;
    let biased = part.group_biased(grouping)?;
    let exec_reports = std::mem::take(&mut inputs.exec_reports);
    Ok(solve_alpha(
        grouping,
        &inputs,
        binner,
        cfg,
        biased,
        exec_reports,
    ))
}

/// [`estimate_alpha`] solved twice from one set of inputs: once with the
/// raw per-group counts (the naive estimate — bit-identical to
/// [`estimate_alpha`] on the same log and RNG state) and
/// once with the loss `model`'s per-record weights (cell × day factor,
/// [`LossModel::weight_for`]) baked into the biased histograms of *both*
/// the group and the reference via a weighted rescan of the log
/// ([`partition_by_group_weighted`]). The RNG-bearing stage
/// (group-conditional unbiased draws) runs exactly once, so the caller's
/// RNG consumption matches the plain estimator's.
///
/// Reference selection, draw skipping, and the reported `n_actions` use
/// the raw counts in both solves; only the biased masses differ.
#[allow(clippy::too_many_arguments)]
pub fn estimate_alpha_corrected<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    grouping: Grouping,
    cfg: &AutoSensConfig,
    rng: &mut R,
    partition: Option<GroupPartition>,
    model: &LossModel,
) -> Result<(AlphaEstimate, AlphaEstimate), AutoSensError> {
    let (part, mut inputs) = build_alpha_inputs(log, binner, grouping, cfg, rng, partition)?;
    let naive_biased = part.group_biased(grouping)?;
    let (weighted, weighted_report) = partition_by_group_weighted(log, binner, model, cfg.threads)?;
    inputs.exec_reports.push(weighted_report);
    let corrected_biased = weighted.group_biased(grouping)?;
    let exec_reports = std::mem::take(&mut inputs.exec_reports);
    let naive = solve_alpha(grouping, &inputs, binner, cfg, naive_biased, exec_reports);
    let corrected = solve_alpha(grouping, &inputs, binner, cfg, corrected_biased, Vec::new());
    Ok((naive, corrected))
}

/// Everything α estimation derives from the log besides the per-group
/// biased histograms: raw group counts, group-conditional unbiased
/// histograms (the only RNG consumer), time-share target masses, and the
/// reference choice. Built once, then solved against one or more biased
/// regroupings.
struct AlphaInputs {
    n_actions: Vec<u64>,
    unbiased: Vec<Histogram>,
    target_mass: Vec<f64>,
    references: Vec<usize>,
    primary: usize,
    exec_reports: Vec<ExecReport>,
}

fn build_alpha_inputs<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    grouping: Grouping,
    cfg: &AutoSensConfig,
    rng: &mut R,
    partition: Option<GroupPartition>,
) -> Result<(GroupPartition, AlphaInputs), AutoSensError> {
    if log.is_empty() {
        return Err(AutoSensError::EmptySlice("alpha estimation".into()));
    }
    let n_groups = grouping.n_groups();
    let mut exec_reports: Vec<ExecReport> = Vec::new();

    // Partition counts by loss cell (records' own local hour, day kind and
    // class), either precomputed by an incremental caller or rebuilt here
    // as a chunked map-reduce.
    let part = match partition {
        Some(part) => {
            if part.n_cells() != N_LOSS_CELLS {
                return Err(AutoSensError::Internal(format!(
                    "group partition has {} cells, expected {N_LOSS_CELLS}",
                    part.n_cells()
                )));
            }
            if part.binner() != binner {
                return Err(AutoSensError::Internal(
                    "group partition binner does not match the analysis binner".into(),
                ));
            }
            let partitioned = part.n_records();
            if partitioned != log.len() as u64 {
                return Err(AutoSensError::Internal(format!(
                    "group partition covers {partitioned} actions, log has {}",
                    log.len()
                )));
            }
            part
        }
        None => {
            let (part, report) = partition_by_group(log, binner, cfg.threads)?;
            exec_reports.push(report);
            part
        }
    };
    let n_actions = part.group_actions(grouping);

    // Group-conditional unbiased histograms: draws restricted to each
    // group's hour windows across every day the log spans. Draws are
    // allocated in proportion to each group's total window time, so the
    // pooled U (a plain merge) stays time-weighted even for groupings
    // whose groups cover unequal time (weekday vs weekend slots).
    // Invariant: the is_empty() guard above makes these Some.
    let start = log.start_time().expect("non-empty").millis();
    let end = log.end_time().expect("non-empty").millis();
    // The timezone defining the slot windows: when the slice is
    // tz-homogeneous (the paper's per-region setting, and what the
    // pipeline should always feed in), the records' own offset is
    // authoritative; otherwise fall back to the configured offset.
    let tz = {
        let first = log.tz_offset_at(0);
        if (1..log.len()).all(|i| log.tz_offset_at(i) == first) {
            first
        } else {
            cfg.slot_tz_offset_ms
        }
    };
    // Local time = server time + tz, so local (day, hour) covers server
    // times [day*DAY + hour*HOUR - tz, ... + 1h).
    let first_day = (start + tz).div_euclid(MS_PER_DAY);
    let last_day = (end + tz).div_euclid(MS_PER_DAY);

    let mut group_windows: Vec<Vec<(i64, i64)>> = vec![Vec::new(); n_groups];
    for day in first_day..=last_day {
        // The day kind is evaluated in the slot timezone, consistently with
        // the simulated calendar (epoch Jan 1 = Friday).
        let weekend = ((day + 4).rem_euclid(7)) >= 5;
        for hour in 0..24u8 {
            let g = grouping.group_of(hour, weekend);
            let lo = day * MS_PER_DAY + hour as i64 * MS_PER_HOUR - tz;
            let hi = lo + MS_PER_HOUR - 1;
            // Clip to the log span so nearest-sample lookups stay local.
            let lo = lo.max(start);
            let hi = hi.min(end);
            if lo <= hi {
                group_windows[g].push((lo, hi));
            }
        }
    }
    let group_time: Vec<i64> = group_windows
        .iter()
        .map(|ws| ws.iter().map(|&(lo, hi)| hi - lo + 1).sum())
        .collect();
    let total_time: i64 = group_time.iter().sum::<i64>().max(1);

    let mut unbiased: Vec<Histogram> = Vec::with_capacity(n_groups);
    let mut target_mass = vec![0.0f64; n_groups];
    for g in 0..n_groups {
        let ideal = cfg.unbiased_draws as f64 * group_time[g] as f64 / total_time as f64;
        target_mass[g] = ideal;
        // Sparse groups get a floor of extra draws so their α is not pure
        // noise; the pooled U rescales back to `ideal` (see
        // [`AlphaEstimate::pooled_unbiased`]).
        let draws = (ideal.round() as usize).max(1_000);
        let h = if group_windows[g].is_empty() || n_actions[g] == 0 {
            Histogram::new(binner.clone())
        } else {
            let (h, report) = unbiased_histogram_in_windows_par(
                log,
                binner,
                &group_windows[g],
                draws,
                cfg.threads,
                rng,
            )?;
            exec_reports.push(report);
            h
        };
        unbiased.push(h);
    }

    // Reference groups: the highest-volume ones.
    let mut order: Vec<usize> = (0..n_groups).collect();
    order.sort_by_key(|&g| std::cmp::Reverse(n_actions[g]));
    let references: Vec<usize> = order
        .iter()
        .copied()
        .take(cfg.alpha_references)
        .filter(|&g| n_actions[g] > 0)
        .collect();
    if references.is_empty() {
        return Err(AutoSensError::EmptySlice(
            "alpha estimation found no populated reference group".into(),
        ));
    }
    let primary = references[0];

    Ok((
        part,
        AlphaInputs {
            n_actions,
            unbiased,
            target_mass,
            references,
            primary,
            exec_reports,
        },
    ))
}

/// Solve the α system for one set of per-group biased histograms.
fn solve_alpha(
    grouping: Grouping,
    inputs: &AlphaInputs,
    binner: &Binner,
    cfg: &AutoSensConfig,
    biased: Vec<Histogram>,
    exec_reports: Vec<ExecReport>,
) -> AlphaEstimate {
    let n_groups = grouping.n_groups();
    let AlphaInputs {
        n_actions,
        unbiased,
        target_mass,
        references,
        primary,
        ..
    } = inputs;
    let primary = *primary;

    // α of every group against every reference, rescaled so the primary
    // group is 1 under each reference, then averaged across references.
    let mut alpha_sum = vec![0.0f64; n_groups];
    let mut alpha_n = vec![0usize; n_groups];
    let mut per_bin_primary: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_groups];

    // Paper behavior: uniform average over bins; extension: precision
    // weighting (see `alpha_vs_reference_weighted`).
    let estimate = |g: usize, r: usize| {
        let f = if cfg.alpha_precision_weighting {
            alpha_vs_reference_weighted
        } else {
            alpha_vs_reference
        };
        f(
            biased[g].counts(),
            unbiased[g].counts(),
            biased[r].counts(),
            unbiased[r].counts(),
            cfg.min_biased_count,
            cfg.min_unbiased_count,
        )
    };
    for &r in references {
        // α of the primary group under this reference (for rescaling).
        let (_, primary_alpha) = estimate(primary, r);
        let Some(primary_alpha) = primary_alpha else {
            continue;
        };
        for g in 0..n_groups {
            if n_actions[g] == 0 {
                continue;
            }
            let (per_bin, mean) = estimate(g, r);
            if let Some(mean) = mean {
                alpha_sum[g] += mean / primary_alpha;
                alpha_n[g] += 1;
            }
            // The Figure 8 per-bin series uses the primary reference only.
            if r == primary {
                per_bin_primary[g] = per_bin
                    .iter()
                    .enumerate()
                    .filter_map(|(i, a)| a.map(|a| (binner.center(i), a)))
                    .collect();
            }
        }
    }

    let groups = (0..n_groups)
        .map(|g| GroupAlpha {
            group: g,
            label: grouping.label(g),
            alpha: if alpha_n[g] > 0 {
                let a = alpha_sum[g] / alpha_n[g] as f64;
                // A non-finite or non-positive α would poison the 1/α count
                // scaling downstream; treat the group as having no usable α
                // (it is then excluded from pooling, with a degradation
                // warning at the pipeline level).
                (a.is_finite() && a > 0.0).then_some(a)
            } else {
                None
            },
            per_bin: std::mem::take(&mut per_bin_primary[g]),
            n_actions: n_actions[g],
            biased: biased[g].clone(),
            unbiased: unbiased[g].clone(),
            target_mass: target_mass[g],
        })
        .collect();

    AlphaEstimate {
        grouping,
        groups,
        primary_reference: primary,
        references: references.clone(),
        exec_reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosens_telemetry::log::TelemetryLog;
    use autosens_telemetry::record::{ActionType, Outcome, UserClass, UserId};
    use autosens_telemetry::time::SimTime;

    #[test]
    fn grouping_maps_hours() {
        assert_eq!(Grouping::HourSlots.n_groups(), 24);
        assert_eq!(Grouping::HourSlots.group_of_hour(17), 17);
        assert_eq!(Grouping::HourSlots.hours_of_group(3), vec![3]);
        assert_eq!(Grouping::DayPeriods.n_groups(), 4);
        assert_eq!(Grouping::DayPeriods.group_of_hour(9), 0);
        assert_eq!(Grouping::DayPeriods.group_of_hour(15), 1);
        assert_eq!(Grouping::DayPeriods.group_of_hour(23), 2);
        assert_eq!(Grouping::DayPeriods.group_of_hour(0), 2);
        assert_eq!(Grouping::DayPeriods.group_of_hour(5), 3);
        let evening = Grouping::DayPeriods.hours_of_group(2);
        assert_eq!(evening, vec![0, 1, 20, 21, 22, 23]);
        assert!(Grouping::HourSlots.label(7).contains("07:00"));
        assert_eq!(Grouping::DayPeriods.label(0), "8am-2pm");
    }

    #[test]
    fn day_kind_grouping_separates_weekends() {
        let g = Grouping::HourSlotsByDayKind;
        assert_eq!(g.n_groups(), 48);
        assert_eq!(g.group_of(9, false), 9);
        assert_eq!(g.group_of(9, true), 33);
        assert!(g.contains(9, 9, false));
        assert!(!g.contains(9, 9, true));
        assert!(g.contains(33, 9, true));
        assert_eq!(g.hours_of_group(33), vec![9]);
        assert!(g.label(9).contains("weekday 09:00"));
        assert!(g.label(33).contains("weekend 09:00"));
        // Every (hour, kind) cell maps to exactly one group.
        let mut seen = std::collections::HashSet::new();
        for h in 0..24u8 {
            for wk in [false, true] {
                assert!(seen.insert(g.group_of(h, wk)));
            }
        }
        assert_eq!(seen.len(), 48);
    }

    /// The paper's Table 1, reproduced digit for digit.
    #[test]
    fn table1_worked_example() {
        // Day (reference): 90 low-latency actions over 30% of the time,
        // 140 high-latency actions over 70% of the time.
        let c_day = [90.0, 140.0];
        let f_day = [0.3, 0.7];
        // Night: 26 low over 80%, 4 high over 20%.
        let c_night = [26.0, 4.0];
        let f_night = [0.8, 0.2];

        let (per_bin, mean) = alpha_vs_reference(&c_night, &f_night, &c_day, &f_day, 0.0, 0.0);
        let a_low = per_bin[0].unwrap();
        let a_high = per_bin[1].unwrap();
        // alpha_night,low = (26/0.8)/(90/0.3) = 0.108333...
        assert!((a_low - 0.108_333_333).abs() < 1e-6, "low = {a_low}");
        // alpha_night,high = (4/0.2)/(140/0.7) = 0.1
        assert!((a_high - 0.1).abs() < 1e-9, "high = {a_high}");
        // alpha_night = (0.1083 + 0.100)/2 = 0.104166...
        let alpha = mean.unwrap();
        assert!((alpha - 0.104_166_666).abs() < 1e-6, "alpha = {alpha}");

        // Normalized night counts: 26/alpha ~ 250, 4/alpha ~ 38 (the paper
        // prints the rounded integers).
        let norm_low = (c_night[0] / alpha).round();
        let norm_high = (c_night[1] / alpha).round();
        assert_eq!(norm_low, 250.0);
        assert_eq!(norm_high, 38.0);

        // Combined activity: low = (90 + 250)/(30 + 80), high = (140+38)/(70+20)
        // in the paper's per-%-time units -> 3.09 vs 1.97: low > high.
        let low_rate = (c_day[0] + norm_low) / (30.0 + 80.0);
        let high_rate = (c_day[1] + norm_high) / (70.0 + 20.0);
        assert!((low_rate - 3.09).abs() < 0.01, "low rate = {low_rate}");
        assert!((high_rate - 1.97).abs() < 0.01, "high rate = {high_rate}");
        assert!(low_rate > high_rate);

        // Without the correction the conclusion inverts (the paper's point):
        let naive_low = (c_day[0] + c_night[0]) / (30.0 + 80.0);
        let naive_high = (c_day[1] + c_night[1]) / (70.0 + 20.0);
        assert!((naive_low - 1.05).abs() < 0.01);
        assert!((naive_high - 1.6).abs() < 0.01);
        assert!(naive_low < naive_high);
    }

    #[test]
    fn alpha_min_counts_exclude_sparse_bins() {
        let c_g = [5.0, 100.0];
        let u_g = [0.5, 0.5];
        let c_r = [50.0, 100.0];
        let u_r = [0.5, 0.5];
        let (per_bin, mean) = alpha_vs_reference(&c_g, &u_g, &c_r, &u_r, 10.0, 0.0);
        assert!(per_bin[0].is_none());
        assert_eq!(per_bin[1], Some(1.0));
        assert_eq!(mean, Some(1.0));
    }

    #[test]
    fn alpha_undefined_when_nothing_supported() {
        let (per_bin, mean) =
            alpha_vs_reference(&[0.0, 0.0], &[0.5, 0.5], &[1.0, 1.0], &[0.5, 0.5], 1.0, 0.0);
        assert!(per_bin.iter().all(|b| b.is_none()));
        assert_eq!(mean, None);
        // Zero unbiased mass in a group -> undefined everywhere.
        let (_, mean) = alpha_vs_reference(
            &[10.0, 10.0],
            &[0.0, 0.0],
            &[10.0, 10.0],
            &[0.5, 0.5],
            1.0,
            0.0,
        );
        assert_eq!(mean, None);
    }

    #[test]
    fn precision_weighting_discounts_sparse_bins() {
        // Bin 0 is sparse (tiny counts, alpha badly off); bin 1 is dense
        // (huge counts, alpha correct at 0.5). The uniform mean is pulled
        // toward the sparse bin's value; the weighted mean is not.
        let c_g = [6.0, 5_000.0];
        let u_g = [100.0, 10_000.0];
        let c_r = [2.0, 10_000.0];
        let u_r = [100.0, 10_000.0];
        let (_, uniform) = alpha_vs_reference(&c_g, &u_g, &c_r, &u_r, 1.0, 1.0);
        let (_, weighted) = alpha_vs_reference_weighted(&c_g, &u_g, &c_r, &u_r, 1.0, 1.0);
        // True dense-bin alpha is 0.5; sparse bin says 3.0.
        let uniform = uniform.unwrap();
        let weighted = weighted.unwrap();
        assert!((uniform - 1.75).abs() < 1e-9, "uniform = {uniform}");
        assert!((weighted - 0.5).abs() < 0.01, "weighted = {weighted}");
    }

    #[test]
    fn precision_weighting_matches_uniform_on_balanced_bins() {
        let c = [500.0, 500.0, 500.0];
        let u = [300.0, 300.0, 300.0];
        let (_, a) = alpha_vs_reference(&c, &u, &c, &u, 1.0, 1.0);
        let (_, b) = alpha_vs_reference_weighted(&c, &u, &c, &u, 1.0, 1.0);
        assert!((a.unwrap() - b.unwrap()).abs() < 1e-12);
    }

    #[test]
    fn identical_groups_have_alpha_one() {
        let c = [40.0, 60.0, 80.0];
        let u = [10.0, 20.0, 30.0];
        let (per_bin, mean) = alpha_vs_reference(&c, &u, &c, &u, 1.0, 1.0);
        for b in per_bin {
            assert!((b.unwrap() - 1.0).abs() < 1e-12);
        }
        assert!((mean.unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn mismatched_lengths_panic() {
        alpha_vs_reference(&[1.0], &[1.0, 2.0], &[1.0], &[1.0], 0.0, 0.0);
    }

    fn rec(time_ms: i64, latency_ms: f64, class: UserClass) -> ActionRecord {
        ActionRecord {
            time: SimTime(time_ms),
            action: ActionType::SelectMail,
            latency_ms,
            user: UserId(time_ms as u64 % 13),
            class,
            tz_offset_ms: 0,
            outcome: Outcome::Success,
        }
    }

    /// Every present cell's action count and histogram state, as bits.
    #[allow(clippy::type_complexity)]
    fn cell_bits(part: &GroupPartition) -> Vec<(usize, u64, Vec<u64>, u64, u64, u64)> {
        (0..part.n_cells())
            .filter_map(|c| {
                let h = part.cell(c)?;
                Some((
                    c,
                    part.cell_actions()[c],
                    h.counts().iter().map(|x| x.to_bits()).collect(),
                    h.total().to_bits(),
                    h.n_recorded(),
                    h.n_discarded(),
                ))
            })
            .collect()
    }

    #[test]
    fn one_hour_one_class_batch_allocates_only_its_cell() {
        let binner = AutoSensConfig::default().binner().unwrap();
        let empty = GroupPartition::empty(&binner);
        assert!((0..empty.n_cells()).all(|c| empty.cell(c).is_none()));

        let nine_am = 9 * MS_PER_HOUR;
        let records: Vec<ActionRecord> = (0..600)
            .map(|i| rec(nine_am + i * 5_000, 40.0 + i as f64, UserClass::Business))
            .collect();
        let log = TelemetryLog::from_records(records.clone()).unwrap();
        let (part, _) = partition_by_group(&log.view(), &binner, 1).unwrap();
        let present: Vec<usize> = (0..part.n_cells())
            .filter(|&c| part.cell(c).is_some())
            .collect();
        assert_eq!(present, vec![GroupPartition::cell_of(&records[0])]);
        assert_eq!(part.n_records(), 600);
    }

    #[test]
    fn chunked_builds_are_bit_identical_to_a_serial_fold() {
        // Enough rows for several scan chunks, spread over many hours,
        // days and both classes, with some latencies past the grid.
        let binner = AutoSensConfig::default().binner().unwrap();
        let records: Vec<ActionRecord> = (0..150_000i64)
            .map(|i| {
                let latency = if i % 97 == 0 {
                    1.0e6
                } else {
                    5.0 + (i * 7_919 % 1_900) as f64
                };
                let class = if i % 3 == 0 {
                    UserClass::Consumer
                } else {
                    UserClass::Business
                };
                rec(i * 37_000, latency, class)
            })
            .collect();
        let log = TelemetryLog::from_records(records.clone()).unwrap();
        let view = log.view();
        // Dyadic weights keep every partial sum exact, so the chunk-order
        // merge must reproduce the serial fold bit for bit.
        let mut model = LossModel::identity();
        for (c, w) in model.weights.iter_mut().enumerate() {
            *w = [1.0, 1.25, 2.0][c % 3];
        }
        let weight = |r: &ActionRecord| {
            let day = r.time.day_local(r.tz_offset_ms);
            let weekend = r.time.is_weekend_local(r.tz_offset_ms);
            model.weight_for(day, r.hour_slot().0, weekend, r.class.code())
        };
        let mut serial = GroupPartition::empty(&binner);
        let mut serial_weighted = GroupPartition::empty(&binner);
        for r in &records {
            serial.record(r);
            serial_weighted.record_weighted(r, weight(r));
        }
        assert!(cell_bits(&serial).iter().any(|cell| cell.5 > 0));
        for threads in [1usize, 2, 4] {
            let (plain, report) = partition_by_group(&view, &binner, threads).unwrap();
            assert!(report.n_chunks > 1, "one chunk cannot test the merge");
            assert_eq!(cell_bits(&plain), cell_bits(&serial), "threads={threads}");
            let (weighted, _) =
                partition_by_group_weighted(&view, &binner, &model, threads).unwrap();
            assert_eq!(
                cell_bits(&weighted),
                cell_bits(&serial_weighted),
                "weighted, threads={threads}"
            );
        }
    }
}
