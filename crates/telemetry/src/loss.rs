//! Per-slot / per-class telemetry-loss evidence.
//!
//! The quality audit's headline loss number ([`crate::quality`]) is global:
//! one rate for the whole log. Loss-aware inference needs to know *where*
//! records went missing — which local hour-of-day, day kind (weekday vs
//! weekend) and user class lost how much — because missing-not-at-random
//! loss concentrated in slow hours biases the pooled preference curve.
//! This module estimates an observation probability per **loss cell**
//! (local hour × day kind × user class, 96 cells) from two independent,
//! in-band natural experiments:
//!
//! * **Volume evidence** — per-cell daily counts across days of the same
//!   kind; the median count of unaffected days anchors a baseline, and a
//!   statistically significant shortfall of the observed total against
//!   `median × days` marks day-localized loss (outages, lossy uploads).
//! * **Sequence-gap evidence** — inter-arrival gaps within each (local
//!   day, hour) micro-cell, pooled across classes. A gap many times the
//!   cell's median step indicates a dropped run of records; for
//!   heartbeat-regular telemetry (gap dispersion ≲ 5%) every multi-step
//!   gap is counted, which makes even uniform (MCAR) thinning visible.
//!   Missing records detected at the slot level are allocated to classes
//!   in proportion to the classes' observed volume.
//!
//! Both estimators are deliberately conservative: every trigger is gated
//! by a significance test against its own noise floor, and rates below
//! [`MIN_CELL_RATE`] are rounded to zero, so clean telemetry yields an
//! all-zero [`LossEvidence`] and the downstream correction is a provable
//! no-op. Blind spots (documented, inherent to in-band estimation): purely
//! uniform thinning of *irregular* (Poisson-like) arrivals preserves both
//! the gap shape and the day-to-day volume profile and is invisible here —
//! but MCAR loss does not bias the preference curve, so the correction
//! being a no-op there is the right answer.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::log::LogView;
use crate::time::{SimTime, MS_PER_DAY, MS_PER_HOUR};

/// User classes tracked per loss cell (Business = 0, Consumer = 1).
pub const N_LOSS_CLASSES: usize = 2;
/// Time slots: 24 local hours × {weekday, weekend}.
pub const N_LOSS_SLOTS: usize = 48;
/// Loss cells: slot × class.
pub const N_LOSS_CELLS: usize = N_LOSS_SLOTS * N_LOSS_CLASSES;

/// Minimum days of one kind (weekday/weekend) for a volume baseline.
const MIN_DAYS_OF_KIND: usize = 3;
/// Minimum records in a (day, hour) micro-cell for gap evidence.
const MIN_GAP_RECORDS: usize = 8;
/// Gap MAD/median at or below this marks heartbeat-regular arrivals.
const REGULAR_MAD_RATIO: f64 = 0.05;
/// Irregular arrivals: a gap above `factor × median` flags a dropped run.
const GAP_FLAG_FACTOR: f64 = 16.0;
/// Irregular gap evidence needs at least this many flagged gaps per slot
/// (a single monster gap in thousands of exponential arrivals can be
/// chance; two independent ones in the same slot essentially cannot).
const MIN_IRREGULAR_FLAGS: usize = 2;
/// Significance multiple on the volume noise floor.
const VOL_SIGMA_FACTOR: f64 = 3.0;
/// Consistency constant of the median absolute deviation vs σ.
const MAD_TO_SIGMA: f64 = 1.4826;
/// Estimated per-cell rates below this are rounded to zero so noise never
/// activates the downstream correction.
pub const MIN_CELL_RATE: f64 = 0.05;
/// Minimum per-day shortfall fraction (vs the hour's median same-kind
/// day) for a day-localized rate. Single-day counts carry the full
/// session-level overdispersion of real arrivals — organic slow days run
/// 15–18% below the median with z-scores far past any Poisson bound — so
/// the day gate is a hard rate floor well above that band, much stricter
/// than [`MIN_CELL_RATE`].
pub const MIN_DAY_RATE: f64 = 0.25;
/// Corroboration gate for day-localized rates: a flagged (day, hour)'s
/// quiet time — the sum of its [`TOP_QUIET_GAPS`] largest contiguous
/// quiet intervals — must be at least this multiple of the median
/// same-kind day's quiet time at the same hour. Burst loss removes
/// contiguous runs of records, and a heavily damaged hour loses its
/// mass across *several* bursts, so the statistic sums the top few
/// holes rather than requiring any single hole to dominate. An
/// organically slow day (fewer sessions, the very behavioral signal the
/// pipeline measures) thins traffic without changing its gap scale
/// much: its top gaps stay near the same-kind median's, and measured
/// ratios on clean overdispersed data top out near 1.7. The reference
/// is relative, not a fraction of the claimed missing time, because
/// sessionful traffic has large inter-session holes on every day that
/// an absolute threshold would misread. The threshold sits just above
/// 2.0, the exact signature of diffuse thinning on regular traffic
/// (removing isolated records doubles each top gap from one step to
/// two), and just below the measured burst band (≥ 2.1 on injected
/// runs). Without this gate a hard rate floor alone still flags the
/// extreme tail of clean session-overdispersed days, and "correcting"
/// those cancels real activity dips.
const DAY_QUIET_RATIO: f64 = 2.1;
/// How many of the largest quiet intervals the day-gate statistic sums.
const TOP_QUIET_GAPS: usize = 3;

/// Whether a local day index falls on a weekend (epoch day 0 = Friday,
/// matching [`SimTime::is_weekend_local`] and the α slot windows).
pub fn is_weekend_day(day: i64) -> bool {
    ((day + 4).rem_euclid(7)) >= 5
}

/// Index of the loss cell for (local hour, weekend flag, class code).
/// Class codes ≥ [`N_LOSS_CLASSES`] clamp into the last class.
pub fn loss_cell_index(hour: u8, weekend: bool, class_code: u8) -> usize {
    let slot = hour as usize * 2 + usize::from(weekend);
    slot * N_LOSS_CLASSES + (class_code as usize).min(N_LOSS_CLASSES - 1)
}

/// Stable, metric-name-safe label of a loss cell
/// (`h{hour}_{wd|we}_{business|consumer}`).
pub fn loss_cell_label(cell: usize) -> String {
    let slot = cell / N_LOSS_CLASSES;
    let class = cell % N_LOSS_CLASSES;
    let hour = slot / 2;
    let kind = if slot.is_multiple_of(2) { "wd" } else { "we" };
    let class = if class == 0 { "business" } else { "consumer" };
    format!("h{hour:02}_{kind}_{class}")
}

/// Per-local-day record counts by (hour, class): the substrate of the
/// volume evidence.
///
/// Counts are unit `u64` additions, so chunk partials merge exactly in any
/// order and match one serial pass over the same records bit for bit. The
/// day kind is derived from the day index, so one 48-wide row per day
/// suffices for all 96 cells.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LossCounts {
    /// Per-local-day rows, kept sorted by day (ascending, unique).
    pub days: Vec<DayCounts>,
}

/// One local day's `[hour * N_LOSS_CLASSES + class]` record counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DayCounts {
    /// Local day index (milliseconds since epoch / [`MS_PER_DAY`]).
    pub day: i64,
    /// 48 counts: `hour * N_LOSS_CLASSES + class`.
    pub counts: Vec<u64>,
}

impl LossCounts {
    /// An empty counter.
    pub fn new() -> LossCounts {
        LossCounts::default()
    }

    fn row_mut(&mut self, day: i64) -> &mut Vec<u64> {
        let idx = match self.days.binary_search_by_key(&day, |d| d.day) {
            Ok(i) => i,
            Err(i) => {
                self.days.insert(
                    i,
                    DayCounts {
                        day,
                        counts: vec![0u64; 24 * N_LOSS_CLASSES],
                    },
                );
                i
            }
        };
        &mut self.days[idx].counts
    }

    fn row(&self, day: i64) -> Option<&[u64]> {
        self.days
            .binary_search_by_key(&day, |d| d.day)
            .ok()
            .map(|i| self.days[i].counts.as_slice())
    }

    /// Fold one record in (its own timezone defines the local day/hour).
    pub fn record(&mut self, time: SimTime, tz_offset_ms: i64, class_code: u8) {
        let local = time.millis() + tz_offset_ms;
        let day = local.div_euclid(MS_PER_DAY);
        let hour = local.div_euclid(MS_PER_HOUR).rem_euclid(24) as usize;
        self.row_mut(day)[hour * N_LOSS_CLASSES + (class_code as usize).min(N_LOSS_CLASSES - 1)] +=
            1;
    }

    /// Fold another counter into this one.
    pub fn merge(&mut self, other: &LossCounts) {
        for day in &other.days {
            let row = self.row_mut(day.day);
            for (a, b) in row.iter_mut().zip(&day.counts) {
                *a += b;
            }
        }
    }

    /// Build from a view in one serial pass.
    pub fn from_view(view: &LogView<'_>) -> LossCounts {
        let mut counts = LossCounts::new();
        for i in 0..view.len() {
            counts.record(
                SimTime(view.time_at(i)),
                view.tz_offset_at(i),
                view.class_at(i),
            );
        }
        counts
    }

    /// Chunked [`LossCounts::from_view`]: per-chunk counters merged in
    /// chunk order. Counts are unit `u64` additions, so the result is
    /// bit-identical to the serial pass for every thread count.
    pub fn from_view_par(view: &LogView<'_>, threads: usize) -> LossCounts {
        struct Part(LossCounts);
        impl autosens_exec::Mergeable for Part {
            fn merge(&mut self, other: Self) {
                self.0.merge(&other.0);
            }
        }
        let n = view.len();
        let v = view.borrowed();
        let (part, _) = autosens_exec::map_reduce(
            "loss_counts",
            n,
            autosens_exec::scan_chunk_size_for(n),
            threads,
            |_, range| {
                let mut c = LossCounts::new();
                for i in range {
                    c.record(SimTime(v.time_at(i)), v.tz_offset_at(i), v.class_at(i));
                }
                Part(c)
            },
        )
        .expect("loss-count scan does not panic");
        part.map(|p| p.0).unwrap_or_default()
    }

    /// Total records counted.
    pub fn total(&self) -> u64 {
        self.days.iter().flat_map(|d| &d.counts).sum()
    }

    /// Observed records per loss cell.
    pub fn observed_cells(&self) -> [u64; N_LOSS_CELLS] {
        let mut observed = [0u64; N_LOSS_CELLS];
        for day in &self.days {
            let weekend = is_weekend_day(day.day);
            for hour in 0..24u8 {
                for class in 0..N_LOSS_CLASSES {
                    observed[loss_cell_index(hour, weekend, class as u8)] +=
                        day.counts[hour as usize * N_LOSS_CLASSES + class];
                }
            }
        }
        observed
    }
}

/// Loss evidence for one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellLossEvidence {
    /// Cell index (see [`loss_cell_index`]).
    pub cell: usize,
    /// Local hour of day.
    pub hour: u8,
    /// Weekend flag.
    pub weekend: bool,
    /// User class code (0 = business, 1 = consumer).
    pub class_code: u8,
    /// Records observed in the cell.
    pub observed: u64,
    /// Estimated records the cell should have had (≥ `observed`).
    pub expected: f64,
    /// Estimated loss rate `1 - observed/expected` (0 when not flagged).
    pub rate: f64,
}

impl CellLossEvidence {
    /// Metric-name-safe label of the cell.
    pub fn label(&self) -> String {
        loss_cell_label(self.cell)
    }
}

/// Loss rates localized to one calendar day: per local hour, class-pooled
/// (loss inside a burst is class-blind, and pooling keeps the full
/// per-hour volume as signal).
///
/// Day-level evidence exists because cell-level rates are structurally
/// weak against the α correction: a constant reweighting of a whole cell
/// scales the group's biased histogram and its α estimate identically and
/// cancels out of the normalized pool. A rate tied to a *specific day*
/// reshapes the within-group mix across days — which is exactly where
/// bursty (MNAR) loss lives — and survives that cancellation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DayLossRates {
    /// Local day index (milliseconds since epoch / [`MS_PER_DAY`]).
    pub day: i64,
    /// 24 per-hour loss rates vs the hour's median same-kind day
    /// (`0.0` for hours that pass the significance gates).
    pub rates: Vec<f64>,
}

/// The complete per-cell loss estimate of a log view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LossEvidence {
    /// All [`N_LOSS_CELLS`] cells in index order.
    pub cells: Vec<CellLossEvidence>,
    /// Day-localized rates (sorted by day; only days with at least one
    /// flagged hour appear). Interior days only — the first and last day
    /// of the span are routinely partial and never flagged.
    #[serde(default)]
    pub day_rates: Vec<DayLossRates>,
    /// Volume-weighted overall loss rate across the cells.
    pub overall_rate: f64,
}

impl LossEvidence {
    /// The cells with a nonzero estimated loss rate.
    pub fn flagged(&self) -> impl Iterator<Item = &CellLossEvidence> {
        self.cells.iter().filter(|c| c.rate > 0.0)
    }

    /// True when no cell and no day was flagged (clean telemetry).
    pub fn is_zero(&self) -> bool {
        self.cells.iter().all(|c| c.rate == 0.0) && self.day_rates.is_empty()
    }
}

/// The median of `xs` (0 for none), by selection rather than a full
/// sort: the element at rank `n / 2` and, for even `n`, the largest of
/// the ranks below it, averaged. Both are the elements a sort by
/// `f64::total_cmp` would put there, so the result has the same bits.
fn median(xs: &[f64]) -> f64 {
    median_in_place(&mut xs.to_vec())
}

/// [`median`] of a buffer it may reorder.
fn median_in_place(xs: &mut [f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let (below, &mut mid, _) = xs.select_nth_unstable_by(n / 2, f64::total_cmp);
    if n % 2 == 1 {
        mid
    } else {
        let lower = below
            .iter()
            .copied()
            .max_by(f64::total_cmp)
            .expect("even n >= 2 leaves a lower half");
        (lower + mid) / 2.0
    }
}

/// The median absolute deviation of `xs` around `med`.
fn mad(xs: &[f64], med: f64) -> f64 {
    let mut devs: Vec<f64> = xs.iter().map(|&x| (x - med).abs()).collect();
    median_in_place(&mut devs)
}

/// The sum of the `K` largest values (all of them when there are fewer),
/// found without sorting. Integer sums are exact, so it equals summing the
/// head of a descending sort.
fn top_sum<const K: usize>(values: impl Iterator<Item = i64>) -> i64 {
    let mut top = [0i64; K];
    let mut len = 0;
    for v in values {
        if len < K {
            top[len] = v;
            len += 1;
        } else if let Some(min) = top.iter_mut().min() {
            if v > *min {
                *min = v;
            }
        }
    }
    top[..len].iter().sum()
}

/// Each (local day, hour) micro-cell's local record times, in view order
/// (unsorted). The scan runs as a chunked map whose per-chunk maps merge
/// in chunk order, so every sequence is the serial pass's for any thread
/// count.
fn micro_cells(view: &LogView<'_>, threads: usize) -> BTreeMap<(i64, u8), Vec<i64>> {
    struct MicroPart(BTreeMap<(i64, u8), Vec<i64>>);
    impl autosens_exec::Mergeable for MicroPart {
        fn merge(&mut self, other: Self) {
            for (k, mut v) in other.0 {
                self.0.entry(k).or_default().append(&mut v);
            }
        }
    }
    let n = view.len();
    let v = view.borrowed();
    let (part, _) = autosens_exec::map_reduce(
        "loss_micro_cells",
        n,
        autosens_exec::scan_chunk_size_for(n),
        threads,
        |_, range| {
            // One map lookup per run of rows in one local hour: a sorted
            // single-timezone view has one run per hour, and a mixed one
            // still appends each key's rows in view order.
            let mut micro: BTreeMap<(i64, u8), Vec<i64>> = BTreeMap::new();
            let local_at = |i: usize| v.time_at(i) + v.tz_offset_at(i);
            let mut i = range.start;
            while i < range.end {
                let local = local_at(i);
                let hour_start = local - local.rem_euclid(MS_PER_HOUR);
                let key = (
                    local.div_euclid(MS_PER_DAY),
                    local.div_euclid(MS_PER_HOUR).rem_euclid(24) as u8,
                );
                let ts = micro.entry(key).or_default();
                ts.push(local);
                i += 1;
                while i < range.end {
                    let local = local_at(i);
                    if local < hour_start || local >= hour_start + MS_PER_HOUR {
                        break;
                    }
                    ts.push(local);
                    i += 1;
                }
            }
            MicroPart(micro)
        },
    )
    .expect("micro-cell scan does not panic");
    part.map(|p| p.0).unwrap_or_default()
}

/// Estimate the per-cell loss of a view.
///
/// `counts` must tally exactly the view's records (use
/// [`LossCounts::from_view`] or [`LossCounts::from_view_par`]).
/// The estimator is deterministic and single-pass over the view; it never
/// reports a cell rate below [`MIN_CELL_RATE`].
pub fn estimate_cell_loss(view: &LogView<'_>, counts: &LossCounts) -> LossEvidence {
    estimate_cell_loss_par(view, counts, 1)
}

/// Chunked [`estimate_cell_loss`]: the micro-cell scan (the estimator's
/// only full pass over the view) runs as a chunked map whose per-chunk
/// maps merge in chunk order, so each micro-cell's pre-sort sequence is
/// exactly the serial pass's and the evidence is bit-identical for every
/// thread count.
pub fn estimate_cell_loss_par(
    view: &LogView<'_>,
    counts: &LossCounts,
    threads: usize,
) -> LossEvidence {
    let observed = counts.observed_cells();
    let mut expected: [f64; N_LOSS_CELLS] = [0.0; N_LOSS_CELLS];
    for (e, &o) in expected.iter_mut().zip(&observed) {
        *e = o as f64;
    }

    // --- Per-(local day, hour) record times, class-pooled. Shared by the
    // sequence-gap evidence below and, via the top-gap quiet statistic,
    // by the day-rate corroboration gate: burst loss leaves a few big
    // holes, organic slowness leaves evenly thinner traffic.
    let mut micro = micro_cells(view, threads);
    for ts in micro.values_mut() {
        ts.sort_unstable();
    }
    // Quiet time of each populated micro-cell: the sum of its
    // TOP_QUIET_GAPS largest quiet intervals, edges included (a burst
    // truncating the start or end of the hour is as real as an interior
    // one). Summing the top few gaps — not just the single largest —
    // keeps the statistic sensitive when an hour is hit by several
    // bursts. Unpopulated cells are simply absent — a day-rate candidate
    // with no records has the whole hour quiet.
    let quiet_ms = |day: i64, hour: u8| -> f64 {
        match micro.get(&(day, hour)) {
            None => MS_PER_HOUR as f64,
            Some(ts) => {
                let start = day * MS_PER_DAY + hour as i64 * MS_PER_HOUR;
                let edges = [ts[0] - start, start + MS_PER_HOUR - ts[ts.len() - 1]];
                let inner = ts.windows(2).map(|w| w[1] - w[0]);
                top_sum::<TOP_QUIET_GAPS>(edges.into_iter().chain(inner)) as f64
            }
        }
    };

    // --- Volume evidence: per-cell daily counts vs the median baseline of
    // interior days of the same kind. The first and last local day of the
    // span are excluded (they are routinely partial) so boundary
    // truncation never masquerades as loss.
    let mut day_rate_rows: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    if let (Some(first), Some(last)) = (
        counts.days.first().map(|d| d.day),
        counts.days.last().map(|d| d.day),
    ) {
        for weekend in [false, true] {
            let days: Vec<i64> = ((first + 1)..last)
                .filter(|&d| is_weekend_day(d) == weekend)
                .collect();
            if days.len() < MIN_DAYS_OF_KIND {
                continue;
            }
            for hour in 0..24u8 {
                for class in 0..N_LOSS_CLASSES {
                    let xs: Vec<f64> = days
                        .iter()
                        .map(|&d| {
                            counts
                                .row(d)
                                .map(|row| row[hour as usize * N_LOSS_CLASSES + class])
                                .unwrap_or(0) as f64
                        })
                        .collect();
                    let med = median(&xs);
                    let exp_vol = med * xs.len() as f64;
                    if exp_vol <= 0.0 {
                        continue;
                    }
                    let obs: f64 = xs.iter().sum();
                    let shortfall = exp_vol - obs;
                    // Noise floor: the larger of the empirical day-to-day
                    // spread (robust, MAD-based — the outage days
                    // themselves cannot inflate it) and the Poisson floor
                    // of the baselined total.
                    let sigma = (MAD_TO_SIGMA * mad(&xs, med) * (xs.len() as f64).sqrt())
                        .max(exp_vol.sqrt());
                    if shortfall > VOL_SIGMA_FACTOR * sigma && shortfall / exp_vol >= MIN_CELL_RATE
                    {
                        // The baseline covers interior days only, while the
                        // cell's observed total spans every day — so the
                        // evidence contributes the estimated *missing*
                        // count, not the interior-day expected volume.
                        let cell = loss_cell_index(hour, weekend, class as u8);
                        expected[cell] = expected[cell].max(observed[cell] as f64 + shortfall);
                    }
                }

                // Day-localized rates, class-pooled: how far each interior
                // day's count for this hour falls below the median day of
                // the same kind. The single-day gate combines the robust
                // day-to-day spread with the Poisson floor of one median
                // day, both at the same significance multiple as the cell
                // gate, plus a stricter minimum rate.
                let xs: Vec<f64> = days
                    .iter()
                    .map(|&d| {
                        counts
                            .row(d)
                            .map(|row| {
                                (0..N_LOSS_CLASSES)
                                    .map(|c| row[hour as usize * N_LOSS_CLASSES + c])
                                    .sum::<u64>()
                            })
                            .unwrap_or(0) as f64
                    })
                    .collect();
                let med = median(&xs);
                if med <= 0.0 {
                    continue;
                }
                let sigma = (MAD_TO_SIGMA * mad(&xs, med)).max(med.sqrt());
                // Contiguity reference: the median same-kind day's quiet
                // time (top-gap sum) at this hour. Sessionful traffic has
                // big inter-session holes on *every* day, so the median
                // absorbs whatever gap scale is organic here.
                let quiets: Vec<f64> = days.iter().map(|&d| quiet_ms(d, hour)).collect();
                let med_quiet = median(&quiets).max(1.0);
                for ((&d, &obs_d), &quiet_d) in days.iter().zip(&xs).zip(&quiets) {
                    let shortfall = med - obs_d;
                    let rate = shortfall / med;
                    if shortfall > VOL_SIGMA_FACTOR * sigma
                        && rate >= MIN_DAY_RATE
                        && quiet_d >= DAY_QUIET_RATIO * med_quiet
                    {
                        day_rate_rows.entry(d).or_insert_with(|| vec![0.0; 24])[hour as usize] =
                            rate;
                    }
                }
            }
        }
    }

    // --- Sequence-gap evidence, class-pooled per (local day, hour)
    // micro-cell. Pooling classes keeps the full arrival density, so a
    // dropped run of ~k records shows as one ~(k+1)-step gap instead of
    // two half-size (undetectable) per-class gaps.
    let mut slot_missing = [0.0f64; N_LOSS_SLOTS];
    let mut slot_flagged_missing = [0.0f64; N_LOSS_SLOTS];
    let mut slot_flags = [0usize; N_LOSS_SLOTS];
    for (&(day, hour), ts) in &micro {
        if ts.len() < MIN_GAP_RECORDS {
            continue;
        }
        // Zero gaps (duplicate or colliding timestamps) carry no loss
        // information and would only depress the step estimate.
        let gaps: Vec<f64> = ts
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64)
            .filter(|&g| g > 0.0)
            .collect();
        if gaps.len() < MIN_GAP_RECORDS - 1 {
            continue;
        }
        let med = median(&gaps);
        if med <= 0.0 {
            continue;
        }
        let slot = hour as usize * 2 + usize::from(is_weekend_day(day));
        if mad(&gaps, med) / med <= REGULAR_MAD_RATIO {
            // Heartbeat-regular arrivals: the step is unambiguous, so
            // every multi-step gap counts its missing beats — this is the
            // branch that sees even uniform thinning.
            for &g in &gaps {
                let steps = (g / med).round();
                if steps >= 2.0 {
                    slot_missing[slot] += steps - 1.0;
                }
            }
        } else {
            // Irregular (Poisson-like) arrivals: only extreme gaps are
            // evidence. Count missing records against the mean unflagged
            // gap (the robust stand-in for the true mean inter-arrival;
            // the median would overcount by ~1/ln 2 on exponential gaps).
            let threshold = GAP_FLAG_FACTOR * med;
            let (mut sum, mut n) = (0.0f64, 0usize);
            for &g in &gaps {
                if g <= threshold {
                    sum += g;
                    n += 1;
                }
            }
            if n == 0 {
                continue;
            }
            let step = sum / n as f64;
            if step <= 0.0 {
                continue;
            }
            for &g in &gaps {
                if g > threshold {
                    let missing = (g / step).round() - 1.0;
                    if missing >= 1.0 {
                        slot_flagged_missing[slot] += missing;
                        slot_flags[slot] += 1;
                    }
                }
            }
        }
    }
    for slot in 0..N_LOSS_SLOTS {
        let mut missing = slot_missing[slot];
        if slot_flags[slot] >= MIN_IRREGULAR_FLAGS {
            missing += slot_flagged_missing[slot];
        }
        if missing <= 0.0 {
            continue;
        }
        let obs_slot: u64 = (0..N_LOSS_CLASSES)
            .map(|c| observed[slot * N_LOSS_CLASSES + c])
            .sum();
        if obs_slot == 0 {
            continue;
        }
        // Allocate slot-level missing records to classes in proportion to
        // their observed share (loss inside a burst is class-blind).
        for class in 0..N_LOSS_CLASSES {
            let cell = slot * N_LOSS_CLASSES + class;
            let alloc = missing * observed[cell] as f64 / obs_slot as f64;
            expected[cell] = expected[cell].max(observed[cell] as f64 + alloc);
        }
    }

    // --- Combine, gating sub-threshold rates to exactly zero.
    let mut cells = Vec::with_capacity(N_LOSS_CELLS);
    let mut total_obs = 0.0f64;
    let mut total_exp = 0.0f64;
    for (cell, &obs_n) in observed.iter().enumerate() {
        let obs = obs_n as f64;
        let mut exp = expected[cell].max(obs);
        let mut rate = if exp > 0.0 {
            (1.0 - obs / exp).max(0.0)
        } else {
            0.0
        };
        if rate < MIN_CELL_RATE {
            rate = 0.0;
            exp = obs;
        }
        total_obs += obs;
        total_exp += exp;
        let slot = cell / N_LOSS_CLASSES;
        cells.push(CellLossEvidence {
            cell,
            hour: (slot / 2) as u8,
            weekend: slot % 2 == 1,
            class_code: (cell % N_LOSS_CLASSES) as u8,
            observed: obs_n,
            expected: exp,
            rate,
        });
    }
    let overall_rate = if total_exp > 0.0 {
        (1.0 - total_obs / total_exp).max(0.0)
    } else {
        0.0
    };
    let day_rates = day_rate_rows
        .into_iter()
        .map(|(day, rates)| DayLossRates { day, rates })
        .collect();
    LossEvidence {
        cells,
        day_rates,
        overall_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::TelemetryLog;
    use crate::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};

    fn rec(t: i64, class: UserClass, user: u64) -> ActionRecord {
        ActionRecord {
            time: SimTime(t),
            action: ActionType::SelectMail,
            latency_ms: 101.5,
            user: UserId(user),
            class,
            tz_offset_ms: 0,
            outcome: Outcome::Success,
        }
    }

    /// 14 days, `per_hour` evenly spaced records per hour, both classes.
    fn steady(per_hour: i64) -> Vec<ActionRecord> {
        let mut records = Vec::new();
        let step = MS_PER_HOUR / per_hour;
        for day in 0..14i64 {
            for hour in 0..24i64 {
                for k in 0..per_hour {
                    let t = day * MS_PER_DAY + hour * MS_PER_HOUR + k * step;
                    let class = if k % 2 == 0 {
                        UserClass::Business
                    } else {
                        UserClass::Consumer
                    };
                    records.push(rec(t, class, (k + hour) as u64));
                }
            }
        }
        records
    }

    fn evidence_of(records: Vec<ActionRecord>) -> LossEvidence {
        let log = TelemetryLog::from_records(records).unwrap();
        let view = log.view();
        let counts = LossCounts::from_view(&view);
        assert_eq!(counts.total(), view.len() as u64);
        estimate_cell_loss(&view, &counts)
    }

    #[test]
    fn cell_index_is_a_bijection() {
        let mut seen = std::collections::HashSet::new();
        for hour in 0..24u8 {
            for weekend in [false, true] {
                for class in 0..N_LOSS_CLASSES as u8 {
                    let cell = loss_cell_index(hour, weekend, class);
                    assert!(cell < N_LOSS_CELLS);
                    assert!(seen.insert(cell));
                    let label = loss_cell_label(cell);
                    assert!(label
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
                }
            }
        }
        assert_eq!(seen.len(), N_LOSS_CELLS);
        assert_eq!(
            loss_cell_label(loss_cell_index(9, false, 0)),
            "h09_wd_business"
        );
        assert_eq!(
            loss_cell_label(loss_cell_index(23, true, 1)),
            "h23_we_consumer"
        );
    }

    #[test]
    fn counts_merge_matches_batch() {
        let records = steady(10);
        let log = TelemetryLog::from_records(records).unwrap();
        let view = log.view();
        let whole = LossCounts::from_view(&view);
        // Split at arbitrary points; merged partials must equal the batch.
        for cut in [1usize, 57, 1234, view.len() - 1] {
            let mut a = LossCounts::new();
            let mut b = LossCounts::new();
            for i in 0..view.len() {
                let target = if i < cut { &mut a } else { &mut b };
                target.record(
                    SimTime(view.time_at(i)),
                    view.tz_offset_at(i),
                    view.class_at(i),
                );
            }
            let mut merged = LossCounts::new();
            merged.merge(&b);
            merged.merge(&a);
            assert_eq!(merged, whole, "cut at {cut}");
        }
    }

    #[test]
    fn clean_steady_log_has_zero_evidence() {
        let ev = evidence_of(steady(10));
        assert!(
            ev.is_zero(),
            "flagged: {:?}",
            ev.flagged().collect::<Vec<_>>()
        );
        assert_eq!(ev.overall_rate, 0.0);
        assert_eq!(ev.cells.len(), N_LOSS_CELLS);
    }

    #[test]
    fn day_localized_outage_is_flagged_in_the_right_cells() {
        // Drop two full weekdays (local days 3 = Monday, 4 = Tuesday)
        // between 08:00 and 20:00: volume evidence territory.
        let records: Vec<ActionRecord> = steady(60)
            .into_iter()
            .filter(|r| {
                let day = r.time.millis().div_euclid(MS_PER_DAY);
                let hour = r.time.millis().div_euclid(MS_PER_HOUR).rem_euclid(24);
                !((3..=4).contains(&day) && (8..20).contains(&hour))
            })
            .collect();
        let ev = evidence_of(records);
        assert!(!ev.is_zero());
        for c in &ev.cells {
            let in_outage = !c.weekend && (8..20).contains(&c.hour);
            if in_outage {
                // 2 of 10 weekdays dropped -> rate ~0.20.
                assert!(
                    (c.rate - 0.20).abs() < 0.05,
                    "cell {} rate {}",
                    c.label(),
                    c.rate
                );
            } else {
                assert_eq!(c.rate, 0.0, "cell {} falsely flagged", c.label());
            }
        }
        assert!(ev.overall_rate > 0.05 && ev.overall_rate < 0.20);
    }

    #[test]
    fn uniform_thinning_of_regular_telemetry_is_recovered_from_gaps() {
        // Drop every 5th record (20% deterministic thinning) of a
        // heartbeat-regular log: the regular-branch gap estimator counts
        // the missing beats even though daily volume drops uniformly.
        let records: Vec<ActionRecord> = steady(30)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % 5 != 0)
            .map(|(_, r)| r)
            .collect();
        let ev = evidence_of(records);
        assert!(
            (ev.overall_rate - 0.20).abs() < 0.04,
            "overall {}",
            ev.overall_rate
        );
    }

    #[test]
    fn bursty_runs_in_irregular_telemetry_are_flagged() {
        // Pseudo-irregular arrivals (deterministic low-discrepancy jitter),
        // then remove two long runs inside hour 9 of two weekdays. The
        // irregular-branch gap estimator must flag the slot.
        let mut records = Vec::new();
        let mut u = 0.5f64;
        for day in 0..10i64 {
            for hour in 0..24i64 {
                let mut t = day * MS_PER_DAY + hour * MS_PER_HOUR;
                let end = t + MS_PER_HOUR;
                let mut k = 0u64;
                while t < end {
                    // Golden-ratio jitter: gaps spread 10s..110s, far from
                    // regular (MAD/median ~ 0.4).
                    u = (u + 0.618_033_988_749_895) % 1.0;
                    t += 10_000 + (u * 100_000.0) as i64;
                    if t < end {
                        let class = if k.is_multiple_of(2) {
                            UserClass::Business
                        } else {
                            UserClass::Consumer
                        };
                        records.push(rec(t, class, k));
                        k += 1;
                    }
                }
            }
        }
        let clean_ev = evidence_of(records.clone());
        assert!(clean_ev.is_zero(), "clean irregular log must not flag");

        // Carve out two 18-minute runs (~60% of hour 9) on local days 3
        // and 4 — each run is ~18x the median gap, beyond the flag factor.
        let in_burst = |r: &ActionRecord| {
            let day = r.time.millis().div_euclid(MS_PER_DAY);
            let ms_in_day = r.time.millis().rem_euclid(MS_PER_DAY);
            let in_hour9 = (9 * MS_PER_HOUR..10 * MS_PER_HOUR).contains(&ms_in_day);
            let offset = ms_in_day - 9 * MS_PER_HOUR;
            (3..=4).contains(&day)
                && in_hour9
                && ((0..=(MS_PER_HOUR * 3 / 10)).contains(&offset)
                    || ((MS_PER_HOUR / 2)..=(MS_PER_HOUR * 8 / 10)).contains(&offset))
        };
        let damaged: Vec<ActionRecord> = records.into_iter().filter(|r| !in_burst(r)).collect();
        let ev = evidence_of(damaged);
        let flagged: Vec<&CellLossEvidence> = ev.flagged().collect();
        assert!(!flagged.is_empty(), "bursty loss not flagged");
        assert!(
            flagged.iter().all(|c| c.hour == 9 && !c.weekend),
            "wrong cells: {flagged:?}"
        );
        // ~40% of 2 of 8 interior weekdays -> ~10% of the slot.
        for c in &flagged {
            assert!(c.rate > 0.05 && c.rate < 0.25, "rate {}", c.rate);
        }
    }

    #[test]
    fn day_rates_need_contiguous_quiet_time() {
        // Remove the same 50% of one weekday hour (day 5, hour 10) two
        // ways. Contiguous (a 30-minute run): looks like a burst outage,
        // so the day gets a localized rate. Diffuse (every other record):
        // looks like an organically slow day — same volume shortfall,
        // same significance, but no quiet interval — and must NOT be
        // flagged, because reweighting real activity dips would cancel
        // the very signal the pipeline measures.
        let hit = |r: &ActionRecord| {
            r.time.millis().div_euclid(MS_PER_DAY) == 5
                && r.time.millis().div_euclid(MS_PER_HOUR).rem_euclid(24) == 10
        };
        let contiguous: Vec<ActionRecord> = steady(60)
            .into_iter()
            .filter(|r| !(hit(r) && r.time.millis().rem_euclid(MS_PER_HOUR) < MS_PER_HOUR / 2))
            .collect();
        let ev = evidence_of(contiguous);
        assert_eq!(ev.day_rates.len(), 1, "day rates: {:?}", ev.day_rates);
        assert_eq!(ev.day_rates[0].day, 5);
        assert!(
            (ev.day_rates[0].rates[10] - 0.5).abs() < 0.05,
            "rate {:?}",
            ev.day_rates[0].rates[10]
        );

        let mut parity = 0u64;
        let diffuse: Vec<ActionRecord> = steady(60)
            .into_iter()
            .filter(|r| {
                if hit(r) {
                    parity += 1;
                    parity.is_multiple_of(2)
                } else {
                    true
                }
            })
            .collect();
        let ev = evidence_of(diffuse);
        assert!(
            ev.day_rates.is_empty(),
            "diffusely slow day misread as burst loss: {:?}",
            ev.day_rates
        );
    }

    #[test]
    fn evidence_serializes() {
        let ev = evidence_of(steady(10));
        let json = serde_json::to_string(&ev).unwrap();
        let back: LossEvidence = serde_json::from_str(&json).unwrap();
        assert_eq!(ev, back);
    }

    #[test]
    fn empty_view_yields_zero_evidence() {
        let log = TelemetryLog::new();
        let view = log.view();
        let ev = estimate_cell_loss(&view, &LossCounts::from_view(&view));
        assert!(ev.is_zero());
        assert_eq!(ev.overall_rate, 0.0);
    }

    /// The sort-based statistics the selection-based ones replace.
    fn sorted_median(xs: &[f64]) -> f64 {
        let mut s = xs.to_vec();
        s.sort_unstable_by(f64::total_cmp);
        let n = s.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => s[n / 2],
            _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
        }
    }

    fn sorted_top_sum(xs: &[i64], k: usize) -> i64 {
        let mut s = xs.to_vec();
        s.sort_unstable_by(|a, b| b.cmp(a));
        s.iter().take(k).sum()
    }

    proptest::proptest! {
        #[test]
        fn selection_statistics_equal_the_sorted_ones(
            // Few distinct values, so repeats are common; lengths cover
            // empty, odd and even.
            raw in proptest::collection::vec((0u8..6, -3i64..3), 0..40),
        ) {
            let xs: Vec<f64> = raw.iter().map(|&(v, s)| v as f64 * 0.25 - s as f64).collect();
            let med = median(&xs);
            proptest::prop_assert_eq!(med.to_bits(), sorted_median(&xs).to_bits());
            let devs: Vec<f64> = xs.iter().map(|&x| (x - med).abs()).collect();
            proptest::prop_assert_eq!(mad(&xs, med).to_bits(), sorted_median(&devs).to_bits());
            let ints: Vec<i64> = raw.iter().map(|&(v, s)| v as i64 * 7 + s).collect();
            proptest::prop_assert_eq!(
                top_sum::<3>(ints.iter().copied()),
                sorted_top_sum(&ints, 3)
            );
            proptest::prop_assert_eq!(
                top_sum::<1>(ints.iter().copied()),
                sorted_top_sum(&ints, 1)
            );
        }
    }

    #[test]
    fn mixed_timezone_micro_cells_match_per_row_keys() {
        // Rows alternate between two timezones, so each local hour's rows
        // arrive in interleaved runs, over more rows than one scan chunk
        // holds. Every key's sequence must be the one a lookup per row
        // builds, in view order.
        let mut records = steady(200);
        for (i, r) in records.iter_mut().enumerate() {
            r.tz_offset_ms = if i % 3 == 0 { 0 } else { -5 * MS_PER_HOUR };
        }
        let log = TelemetryLog::from_records(records).unwrap();
        let view = log.view();
        assert!(view.len() > autosens_exec::scan_chunk_size_for(view.len()));
        let mut want: BTreeMap<(i64, u8), Vec<i64>> = BTreeMap::new();
        for i in 0..view.len() {
            let local = view.time_at(i) + view.tz_offset_at(i);
            let key = (
                local.div_euclid(MS_PER_DAY),
                local.div_euclid(MS_PER_HOUR).rem_euclid(24) as u8,
            );
            want.entry(key).or_default().push(local);
        }
        for threads in [1, 2, 4] {
            assert_eq!(micro_cells(&view, threads), want, "threads={threads}");
        }
    }
}
