//! The unbiased latency distribution `U` (§2.2).
//!
//! `U` approximates the latency the service would have delivered at times
//! *unrelated* to user behaviour. Direct measurements do not exist at such
//! times, so the paper's estimator draws instants uniformly at random over
//! the analysis span and, for each, takes the latency of the observed sample
//! nearest in time (breaking ties uniformly at random). Because instants are
//! drawn uniformly in *time* — not in proportion to action volume — slow
//! periods contribute according to their duration, undoing the activity
//! bias.
//!
//! The serial functions are the paper-faithful reference: one
//! [`LogView::nearest_in_time`] lookup per draw. The chunked kernels that
//! the pipeline runs draw the same kind of instants but resolve them
//! through a [`CellTable`], the partition of the drawn windows into the
//! intervals on which the nearest rows do not change.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use autosens_exec::ExecReport;
use autosens_stats::binning::Binner;
use autosens_stats::histogram::Histogram;
use autosens_telemetry::log::LogView;
use autosens_telemetry::time::SimTime;

use crate::error::AutoSensError;

/// Estimate `U` over the whole span of a (sorted, non-empty) log.
///
/// Draws `n_draws` uniformly random instants in `[start, end]` and
/// histograms the latency of the nearest sample to each.
pub fn unbiased_histogram<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    n_draws: usize,
    rng: &mut R,
) -> Result<Histogram, AutoSensError> {
    let (start, end) = match (log.start_time(), log.end_time()) {
        (Some(s), Some(e)) => (s.millis(), e.millis()),
        _ => return Err(AutoSensError::EmptySlice("unbiased estimation".into())),
    };
    let windows = [(start, end)];
    unbiased_histogram_in_windows(log, binner, &windows, n_draws, rng)
}

/// Estimate `U` restricted to a set of time windows (each `[lo, hi]`,
/// inclusive), drawing instants uniformly over the union of the windows.
///
/// This is the slot-conditional variant used by the α machinery: the
/// windows are, e.g., every occurrence of the 14:00–15:00 hour across the
/// analysis span. Nearest-sample lookups still search the whole log — the
/// nearest observation to an instant inside a window may lie just outside
/// it, which is exactly the paper's estimator behaviour.
pub fn unbiased_histogram_in_windows<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    windows: &[(i64, i64)],
    n_draws: usize,
    rng: &mut R,
) -> Result<Histogram, AutoSensError> {
    if log.is_empty() {
        return Err(AutoSensError::EmptySlice("unbiased estimation".into()));
    }
    if n_draws == 0 {
        return Err(AutoSensError::BadConfig(
            "unbiased draws must be > 0".into(),
        ));
    }
    let lens: Vec<i64> = windows
        .iter()
        .map(|&(lo, hi)| if hi < lo { 0 } else { hi - lo + 1 })
        .collect();
    let total_len: i64 = lens.iter().sum();
    if total_len <= 0 {
        return Err(AutoSensError::BadConfig(
            "unbiased windows have zero total length".into(),
        ));
    }

    let mut h = Histogram::new(binner.clone());
    for _ in 0..n_draws {
        // Pick a window proportionally to its length, then an instant in it.
        let mut pick = rng.gen_range(0..total_len);
        let mut t = 0i64;
        for (i, &len) in lens.iter().enumerate() {
            if pick < len {
                t = windows[i].0 + pick;
                break;
            }
            pick -= len;
        }
        let (lo, hi) = log
            .nearest_in_time(SimTime(t))
            .map_err(AutoSensError::from)?;
        let idx = if hi - lo == 1 {
            lo
        } else {
            rng.gen_range(lo..hi)
        };
        h.record(log.latency_at(idx));
    }
    Ok(h)
}

/// Chunked [`unbiased_histogram`]: the draws run as a data-parallel job.
/// See [`unbiased_histogram_in_windows_par`] for the determinism contract.
pub fn unbiased_histogram_par<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    n_draws: usize,
    threads: usize,
    rng: &mut R,
) -> Result<(Histogram, ExecReport), AutoSensError> {
    let (start, end) = match (log.start_time(), log.end_time()) {
        (Some(s), Some(e)) => (s.millis(), e.millis()),
        _ => return Err(AutoSensError::EmptySlice("unbiased estimation".into())),
    };
    let windows = [(start, end)];
    unbiased_histogram_in_windows_par(log, binner, &windows, n_draws, threads, rng)
}

/// Chunked [`unbiased_histogram_in_windows`]: the draw budget is cut into
/// fixed-size chunks, and each chunk draws from its own RNG stream (seeded
/// from one `u64` taken off the caller's `rng`, mixed with the chunk
/// index) — so the result is bit-identical for every thread count.
///
/// Each draw is a `(pick, tie)` pair: `pick` an offset into the union of
/// the windows, `tie` the tie-breaker. A [`CellTable`] built once for the
/// window set resolves a pick to its nearest rows in O(1), and the draw
/// adds one to its latency bin in an integer counter. Counting is exact in
/// any order: every bin, total and counter is an integer below 2^53, so
/// the histogram's bits do not depend on the order the draws land in, nor
/// on whether a cell's bin was looked up once or per draw.
pub fn unbiased_histogram_in_windows_par<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    windows: &[(i64, i64)],
    n_draws: usize,
    threads: usize,
    rng: &mut R,
) -> Result<(Histogram, ExecReport), AutoSensError> {
    check_draw_inputs(log, n_draws)?;
    let mut cells = CellTable::default();
    cells.build(log, windows)?;
    unbiased_histogram_in_cells_par(log, binner, &cells, n_draws, threads, rng)
}

/// [`unbiased_histogram_in_windows_par`] over a table already built for
/// `log` and the window set, so a caller drawing over many window sets
/// (α's groups) rebuilds one table's buffers instead of allocating one
/// per set.
pub fn unbiased_histogram_in_cells_par<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    cells: &CellTable,
    n_draws: usize,
    threads: usize,
    rng: &mut R,
) -> Result<(Histogram, ExecReport), AutoSensError> {
    check_draw_inputs(log, n_draws)?;
    if cells.rows != log.len() {
        return Err(AutoSensError::Internal(format!(
            "cell table built for {} rows, view has {}",
            cells.rows,
            log.len()
        )));
    }
    let total_len = cells.total_len();
    let n_bins = binner.n_bins();
    // Slot `n_bins` counts the draws the binner discards.
    let bin_of = |row: usize| binner.index_of(log.latency_at(row)).unwrap_or(n_bins);
    // With more draws than cells (a small view), bin each one-row cell
    // once, so a draw landing there skips its row's latency and binning.
    // With fewer (a paper-scale α group), binning per draw is cheaper.
    let cell_bins = if n_draws >= cells.len() {
        cells.one_row_bins(bin_of)
    } else {
        Vec::new()
    };
    // One sequential draw establishes the job's seed; every chunk then
    // derives its own stream, keeping the caller's RNG consumption (and
    // the draws themselves) independent of the worker count.
    let base_seed = rng.gen::<u64>();
    let (parts, report) = autosens_exec::run_chunks(
        "unbiased_draws",
        n_draws,
        autosens_exec::chunk_size_for(n_draws),
        threads,
        |chunk, range| {
            let mut rng = StdRng::seed_from_u64(autosens_exec::chunk_seed(base_seed, chunk as u64));
            let mut counts = vec![0u64; n_bins + 1];
            for _ in range {
                let (pick, tie) = (rng.gen_range(0..total_len), rng.gen::<u64>());
                let c = cells.cell_at(pick);
                let bin = match cell_bins.get(c) {
                    Some(&bin) if bin != SHARED_CELL => bin as usize,
                    _ => bin_of(cells.row_in(c, tie)),
                };
                counts[bin] += 1;
            }
            counts
        },
    )?;
    let mut counts = vec![0u64; n_bins + 1];
    for part in &parts {
        for (sum, n) in counts.iter_mut().zip(part) {
            *sum += n;
        }
    }
    let mut h = Histogram::new(binner.clone());
    h.add_counts(&counts[..n_bins], counts[n_bins])
        .map_err(AutoSensError::from)?;
    Ok((h, report))
}

/// The exponential-decay weight of an event-time instant `t_ms` relative to
/// a frontier (the freshest instant in the window): `0.5^(age / half_life)`
/// where `age = frontier_ms - t_ms`. Instants at the frontier weigh 1, one
/// half-life back weigh 0.5, and instants past the frontier are clamped to
/// weight 1 rather than amplified.
pub fn decay_weight(t_ms: i64, frontier_ms: i64, half_life_ms: i64) -> f64 {
    debug_assert!(half_life_ms > 0);
    let age = (frontier_ms - t_ms).max(0) as f64;
    0.5f64.powf(age / half_life_ms as f64)
}

/// Exponentially-decayed variant of [`unbiased_histogram_par`]: instants are
/// drawn uniformly over the whole span exactly as in the undecayed
/// estimator, but each draw deposits weight
/// `0.5^((frontier_ms - t) / half_life_ms)` instead of 1 — so the windowed
/// unbiased curve `U_w` tracks the *recent* latency environment while old
/// regimes fade geometrically. Drawing uniformly and decaying the weight
/// (rather than drawing from the decayed density) keeps the [`CellTable`]
/// lookup and the chunk/seed schedule identical to the lifetime estimator.
/// The weights are f64 sums, so each chunk radix-sorts its draws by pick
/// and adds them in that order, and the chunks merge in chunk order: the
/// result is bit-identical for every thread count.
#[allow(clippy::too_many_arguments)]
pub fn unbiased_histogram_decayed_par<R: Rng>(
    log: &LogView<'_>,
    binner: &Binner,
    half_life_ms: i64,
    frontier_ms: i64,
    n_draws: usize,
    threads: usize,
    rng: &mut R,
) -> Result<(Histogram, ExecReport), AutoSensError> {
    check_draw_inputs(log, n_draws)?;
    if half_life_ms <= 0 {
        return Err(AutoSensError::BadConfig(
            "decay half-life must be > 0 ms".into(),
        ));
    }
    let start = log.start_time().expect("non-empty").millis();
    let end = log.end_time().expect("non-empty").millis();
    let mut cells = CellTable::default();
    cells.build(log, &[(start, end)])?;
    let total_len = cells.total_len();
    let base_seed = rng.gen::<u64>();
    let (parts, report) = autosens_exec::run_chunks(
        "unbiased_decayed_draws",
        n_draws,
        autosens_exec::chunk_size_for(n_draws),
        threads,
        |chunk, range| {
            let mut rng = StdRng::seed_from_u64(autosens_exec::chunk_seed(base_seed, chunk as u64));
            let mut draws: Vec<(i64, u64)> = range
                .map(|_| (rng.gen_range(0..total_len), rng.gen::<u64>()))
                .collect();
            // Decayed weights are f64 sums, so their order matters: add
            // them in pick order. Draws sharing a pick deposit the same
            // weight, so their relative order cannot change a bit.
            sort_by_pick(&mut draws, total_len);
            let mut h = Histogram::new(binner.clone());
            for (pick, tie) in draws {
                let weight = decay_weight(start + pick, frontier_ms, half_life_ms);
                h.record_weighted(log.latency_at(cells.row_for(pick, tie)), weight);
            }
            h
        },
    )?;
    let mut pooled = Histogram::new(binner.clone());
    for part in &parts {
        pooled.merge(part).map_err(AutoSensError::from)?;
    }
    Ok((pooled, report))
}

/// The input checks every chunked estimator makes before drawing.
fn check_draw_inputs(log: &LogView<'_>, n_draws: usize) -> Result<(), AutoSensError> {
    if log.is_empty() {
        return Err(AutoSensError::EmptySlice("unbiased estimation".into()));
    }
    if n_draws == 0 {
        return Err(AutoSensError::BadConfig(
            "unbiased draws must be > 0".into(),
        ));
    }
    Ok(())
}

/// Buckets per cell in a [`CellTable`]'s pick-space index. Draws are
/// uniform in pick space, so a lookup steps past `1 / BUCKETS_PER_CELL`
/// cell starts on average, whatever the cells' sizes.
const BUCKETS_PER_CELL: usize = 2;

/// A small table's index gets up to eight buckets per cell, as long as it
/// stays within this many (64 KiB): a draw then rarely steps past a cell
/// start, whose branch mispredicts, while the index still sits in cache
/// next to the cells. A large table, where the index would not, keeps
/// [`BUCKETS_PER_CELL`].
const SMALL_INDEX_BUCKETS: usize = 16_384;

/// The partition of a window set's pick space into *cells*: maximal pick
/// intervals on which [`LogView::nearest_in_time`] returns one row range.
///
/// Pick space is the concatenation of the windows in their given order
/// (window `i`'s instant `lo_i + k` is pick `len_0 + … + len_{i-1} + k`).
/// A table holds one cell per equal-timestamp run the windows reach, one
/// per exact midpoint between two runs (where the nearest range is both
/// runs), and splits every cell at a window edge. Only the rows the
/// windows reach are visited, so a build costs `O(reached rows + windows
/// × log rows)`, not `O(log.len())`. A bucket index over pick space then
/// answers [`CellTable::nearest`] in O(1) expected time.
///
/// A cell's mass under uniform draws is its length, so the cells are also
/// the integration domain of an exact `U`. [`CellTable::build`] reuses the
/// table's buffers, so one table serves many window sets without fresh
/// allocations.
#[derive(Debug, Clone, Default)]
pub struct CellTable {
    /// The cells in pick order, then a sentinel starting at `total_len`.
    cells: Vec<Cell>,
    /// `buckets[b]` is the cell holding pick `b << shift`.
    buckets: Vec<u32>,
    shift: u32,
    /// Rows of the view the table was built for.
    rows: usize,
}

/// One cell: its first pick and its nearest rows.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    start: i64,
    row: u32,
    rows: u32,
}

impl CellTable {
    /// Rebuild the table for `log` and `windows` (each `[lo, hi]`
    /// inclusive; empty windows contribute nothing).
    ///
    /// Errors like [`unbiased_histogram_in_windows`]: on an empty view, on
    /// windows of zero total length, and on an unsorted view
    /// ([`TelemetryError::Unsorted`](autosens_telemetry::TelemetryError));
    /// and with [`AutoSensError::TooLarge`] when the view's rows or the
    /// cells do not fit a `u32` index.
    pub fn build(
        &mut self,
        log: &LogView<'_>,
        windows: &[(i64, i64)],
    ) -> Result<(), AutoSensError> {
        // Until the build succeeds the table matches no view, so a table
        // whose build failed is never drawn from.
        self.rows = 0;
        if log.is_empty() {
            return Err(AutoSensError::EmptySlice("unbiased estimation".into()));
        }
        let total_len: i64 = windows
            .iter()
            .map(|&(lo, hi)| if hi < lo { 0 } else { hi - lo + 1 })
            .sum();
        if total_len <= 0 {
            return Err(AutoSensError::BadConfig(
                "unbiased windows have zero total length".into(),
            ));
        }
        log.require_sorted().map_err(AutoSensError::from)?;
        let n = log.len();
        if u32::try_from(n).is_err() {
            return Err(AutoSensError::TooLarge(format!(
                "{n} rows exceed the cell table's u32 row index"
            )));
        }
        self.cells.clear();
        let mut base = 0i64;
        for &(lo, hi) in windows {
            if hi >= lo {
                self.add_window(log, lo, hi, base)?;
                base += hi - lo + 1;
            }
        }
        if u32::try_from(self.cells.len()).is_err() {
            return Err(AutoSensError::TooLarge(format!(
                "{} cells exceed the cell table's u32 cell index",
                self.cells.len()
            )));
        }
        self.cells.push(Cell {
            start: total_len,
            ..Cell::default()
        });
        self.index(total_len);
        self.rows = n;
        Ok(())
    }

    /// Append the cells of window `[lo, hi]`, whose instant `lo` is pick
    /// `base`: the nearest rows at `lo`, then one cell per change of the
    /// nearest rows in `(lo, hi]`. Between the runs of times `tp < tn`
    /// the change points are the midpoint `tp + (tn - tp) / 2` when it is
    /// an exact tie (nearest to both runs) and the instant after it
    /// (nearest to the later run).
    fn add_window(
        &mut self,
        log: &LogView<'_>,
        lo: i64,
        hi: i64,
        base: i64,
    ) -> Result<(), AutoSensError> {
        let n = log.len();
        let (row, end) = log
            .nearest_in_time(SimTime(lo))
            .map_err(AutoSensError::from)?;
        self.cells.push(Cell {
            start: base,
            row: row as u32,
            rows: (end - row) as u32,
        });
        // The gap walk starts between the run `p..a` (time `tp`) and the
        // first run after `lo`, which starts at row `a`.
        let mut a = first_after(log, 0, lo);
        if a == n {
            return Ok(());
        }
        let (mut p, mut tp) = if a == 0 {
            let tp = log.time_at(0);
            a = first_after(log, 1, tp);
            (0, tp)
        } else {
            let tp = log.time_at(a - 1);
            (first_after(log, 0, tp - 1), tp)
        };
        // Each gap adds at most two cells, and the walk ends at the first
        // gap past `hi`: room for every run of a row in `(lo, hi]` plus
        // the one after. The tie cell is written always and kept only on
        // a tie, since a branch on the midpoint's parity mispredicts half
        // the time.
        let mut k = self.cells.len();
        self.cells
            .resize(k + 2 * (first_after(log, a, hi) - a + 1), Cell::default());
        let offset = base - lo;
        while a < n && tp < hi {
            let tn = log.time_at(a);
            let e = if a + 1 == n || log.time_at(a + 1) > tn {
                a + 1
            } else {
                first_after(log, a + 2, tn)
            };
            let mid = tp + (tn - tp) / 2;
            let tie = (tn - tp) % 2 == 0;
            if mid > hi || (mid == hi && !tie) {
                break;
            }
            self.cells[k] = Cell {
                start: offset + mid,
                row: p as u32,
                rows: (e - p) as u32,
            };
            k += usize::from(tie && mid > lo);
            if mid == hi {
                break;
            }
            self.cells[k] = Cell {
                start: offset + mid + 1,
                row: a as u32,
                rows: (e - a) as u32,
            };
            k += usize::from(mid >= lo);
            (p, tp, a) = (a, tn, e);
        }
        self.cells.truncate(k);
        Ok(())
    }

    /// Build the bucket index: power-of-two-wide buckets, so a pick's
    /// bucket is one shift, at least [`BUCKETS_PER_CELL`] per cell (see
    /// [`SMALL_INDEX_BUCKETS`]). Bucket `b` holds
    /// the number of cells after the first that start at or before pick
    /// `b << shift`: a count by the first bucket each cell covers, then a
    /// prefix sum (no data-dependent branch, unlike a merge walk).
    fn index(&mut self, total_len: i64) {
        let n_cells = self.cells.len() - 1;
        let target = (n_cells * BUCKETS_PER_CELL).max((n_cells * 8).min(SMALL_INDEX_BUCKETS));
        let mut shift = 0u32;
        while (((total_len - 1) >> shift) as usize) >= target {
            shift += 1;
        }
        self.shift = shift;
        let n_buckets = ((total_len - 1) >> shift) as usize + 1;
        self.buckets.clear();
        self.buckets.resize(n_buckets + 1, 0);
        let round = (1i64 << shift) - 1;
        for cell in &self.cells[1..n_cells] {
            self.buckets[((cell.start + round) >> shift) as usize] += 1;
        }
        let mut sum = 0u32;
        for b in self.buckets.iter_mut() {
            sum += *b;
            *b = sum;
        }
    }

    /// Total length of the window set: picks run over `0..total_len()`.
    pub fn total_len(&self) -> i64 {
        self.cells.last().map_or(0, |c| c.start)
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len().saturating_sub(1)
    }

    /// Whether the table holds no cells (it was never built).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The index of the cell holding `pick` (in `0..total_len()`).
    #[inline]
    fn cell_at(&self, pick: i64) -> usize {
        let mut c = self.buckets[(pick >> self.shift) as usize] as usize;
        while self.cells[c + 1].start <= pick {
            c += 1;
        }
        c
    }

    /// The view-index range `[lo, hi)` of the rows nearest to `pick`'s
    /// instant: the range [`LogView::nearest_in_time`] returns for it.
    pub fn nearest(&self, pick: i64) -> (usize, usize) {
        let cell = self.cells[self.cell_at(pick)];
        (cell.row as usize, (cell.row + cell.rows) as usize)
    }

    /// The row a draw with tie-breaker `tie` lands on in cell `c`: its one
    /// row, or among several equally near, the one `tie` selects.
    #[inline]
    fn row_in(&self, c: usize, tie: u64) -> usize {
        let cell = self.cells[c];
        if cell.rows == 1 {
            cell.row as usize
        } else {
            cell.row as usize + (tie as usize) % cell.rows as usize
        }
    }

    /// The row a draw `(pick, tie)` lands on.
    #[inline]
    fn row_for(&self, pick: i64, tie: u64) -> usize {
        self.row_in(self.cell_at(pick), tie)
    }

    /// Each cell's `bin` if it has one row, else [`SHARED_CELL`].
    fn one_row_bins(&self, bin: impl Fn(usize) -> usize) -> Vec<u32> {
        self.cells[..self.len()]
            .iter()
            .map(|cell| {
                if cell.rows == 1 {
                    // A bin past `u32` (never in practice) is binned per
                    // draw, like a shared cell.
                    u32::try_from(bin(cell.row as usize)).unwrap_or(SHARED_CELL)
                } else {
                    SHARED_CELL
                }
            })
            .collect()
    }
}

/// A cell whose draws split over several rows, so its bin depends on the
/// draw (see [`CellTable::one_row_bins`]).
const SHARED_CELL: u32 = u32::MAX;

/// First view index at or after `from` whose time exceeds `t`, where
/// every row before `from` is at or before `t`: probe `from`, `from + 1`,
/// `from + 3`, … then bisect the last step, so a move of `d` rows costs
/// `O(log d)` reads.
#[inline]
fn first_after(log: &LogView<'_>, from: usize, t: i64) -> usize {
    let n = log.len();
    let (mut lo, mut probe, mut step) = (from, from, 1usize);
    while probe < n && log.time_at(probe) <= t {
        lo = probe + 1;
        probe += step;
        step *= 2;
    }
    let mut hi = probe.min(n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if log.time_at(mid) <= t {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Order draws by `pick` (every pick in `0..bound`) with an LSD radix sort
/// on 8-bit digits, one stable counting pass per digit that `bound - 1`
/// uses. Draws sharing a pick keep their drawing order, which is as good
/// as any order (see [`unbiased_histogram_decayed_par`]).
fn sort_by_pick(draws: &mut Vec<(i64, u64)>, bound: i64) {
    debug_assert!(draws.iter().all(|&(p, _)| (0..bound).contains(&p)));
    let bits = u64::BITS - ((bound - 1) as u64).leading_zeros();
    let mut scratch: Vec<(i64, u64)> = vec![(0, 0); draws.len()];
    for shift in (0..bits).step_by(8) {
        let digit = |p: i64| ((p as u64 >> shift) & 0xFF) as usize;
        let mut start = [0usize; 256];
        for &(p, _) in draws.iter() {
            start[digit(p)] += 1;
        }
        let mut sum = 0;
        for slot in start.iter_mut() {
            (*slot, sum) = (sum, sum + *slot);
        }
        for &d in draws.iter() {
            let slot = &mut start[digit(d.0)];
            scratch[*slot] = d;
            *slot += 1;
        }
        std::mem::swap(draws, &mut scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosens_stats::binning::OutOfRange;
    use autosens_telemetry::log::TelemetryLog;
    use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rec(t: i64, latency: f64) -> ActionRecord {
        ActionRecord {
            time: SimTime(t),
            action: ActionType::SelectMail,
            latency_ms: latency,
            user: UserId(0),
            class: UserClass::Business,
            tz_offset_ms: 0,
            outcome: Outcome::Success,
        }
    }

    fn binner() -> Binner {
        Binner::new(0.0, 1000.0, 10.0, OutOfRange::Discard).unwrap()
    }

    #[test]
    fn time_weighted_not_count_weighted() {
        // 10 actions at latency 100 cluster in the first second; one action
        // at latency 500 sits alone at t = 100 s. By count, latency 100
        // dominates 10:1 (~91%). The nearest-sample estimator instead
        // weights each sample by the time it is nearest to: the cluster
        // owns [0, ~50.45 s] and the lone sample owns the other half, so
        // the unbiased split is ~50/50 — time-weighted, not count-weighted.
        let mut records: Vec<ActionRecord> = (0..10).map(|i| rec(i * 100, 100.0)).collect();
        records.push(rec(100_000, 500.0));
        let log = TelemetryLog::from_records(records).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let h = unbiased_histogram(&log.view(), &binner(), 20_000, &mut rng).unwrap();
        let frac_fast = h.count(10) / h.total();
        let frac_slow = h.count(50) / h.total();
        assert!(
            (frac_fast - 0.5045).abs() < 0.02,
            "fast {frac_fast} (count share would be 0.91)"
        );
        assert!((frac_slow - 0.4955).abs() < 0.02, "slow {frac_slow}");
    }

    #[test]
    fn uniform_coverage_of_homogeneous_log() {
        // Regularly spaced samples alternating between two latencies get
        // roughly equal unbiased mass.
        let records: Vec<ActionRecord> = (0..1000)
            .map(|i| rec(i * 1000, if i % 2 == 0 { 105.0 } else { 505.0 }))
            .collect();
        let log = TelemetryLog::from_records(records).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let h = unbiased_histogram(&log.view(), &binner(), 30_000, &mut rng).unwrap();
        let a = h.count(10) / h.total();
        let b = h.count(50) / h.total();
        assert!((a - 0.5).abs() < 0.02, "a = {a}");
        assert!((b - 0.5).abs() < 0.02, "b = {b}");
    }

    #[test]
    fn tie_breaking_samples_all_duplicates() {
        // Three simultaneous records; nearest lookup always returns all
        // three, so random tie-breaking must spread mass across them.
        let log =
            TelemetryLog::from_records(vec![rec(500, 105.0), rec(500, 405.0), rec(500, 705.0)])
                .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let h = unbiased_histogram(&log.view(), &binner(), 9_000, &mut rng).unwrap();
        for bin in [10, 40, 70] {
            let frac = h.count(bin) / h.total();
            assert!((frac - 1.0 / 3.0).abs() < 0.03, "bin {bin}: {frac}");
        }
    }

    #[test]
    fn windows_restrict_the_draws() {
        // Latency 100 in the first 10 s, latency 500 in the next 10 s.
        let mut records: Vec<ActionRecord> = (0..100).map(|i| rec(i * 100, 100.0)).collect();
        records.extend((0..100).map(|i| rec(10_000 + i * 100, 500.0)));
        let log = TelemetryLog::from_records(records).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        // Draw only from the second window.
        let h = unbiased_histogram_in_windows(
            &log.view(),
            &binner(),
            &[(10_000, 19_900)],
            5_000,
            &mut rng,
        )
        .unwrap();
        assert!(h.count(50) / h.total() > 0.97);
        // Draw from both windows: roughly 50/50.
        let h = unbiased_histogram_in_windows(
            &log.view(),
            &binner(),
            &[(0, 9_900), (10_000, 19_900)],
            20_000,
            &mut rng,
        )
        .unwrap();
        let frac = h.count(10) / h.total();
        assert!((frac - 0.5).abs() < 0.05, "frac = {frac}");
    }

    #[test]
    fn error_cases() {
        let mut rng = StdRng::seed_from_u64(5);
        let empty = TelemetryLog::new();
        assert!(unbiased_histogram(&empty.view(), &binner(), 100, &mut rng).is_err());
        let log = TelemetryLog::from_records(vec![rec(0, 100.0)]).unwrap();
        assert!(unbiased_histogram(&log.view(), &binner(), 0, &mut rng).is_err());
        assert!(
            unbiased_histogram_in_windows(&log.view(), &binner(), &[(10, 5)], 10, &mut rng)
                .is_err()
        );
        assert!(unbiased_histogram_in_windows(&log.view(), &binner(), &[], 10, &mut rng).is_err());
    }

    #[test]
    fn par_draws_are_bit_identical_across_thread_counts() {
        let records: Vec<ActionRecord> = (0..500)
            .map(|i| rec(i * 997, 50.0 + (i % 90) as f64 * 10.0))
            .collect();
        let log = TelemetryLog::from_records(records).unwrap();
        let windows = [(0, 150_000), (200_000, 400_000)];
        let reference = {
            let mut rng = StdRng::seed_from_u64(7);
            unbiased_histogram_in_windows_par(&log.view(), &binner(), &windows, 30_000, 1, &mut rng)
                .unwrap()
                .0
        };
        for threads in [2, 4, 8] {
            let mut rng = StdRng::seed_from_u64(7);
            let (h, report) = unbiased_histogram_in_windows_par(
                &log.view(),
                &binner(),
                &windows,
                30_000,
                threads,
                &mut rng,
            )
            .unwrap();
            let same = h
                .counts()
                .iter()
                .zip(reference.counts())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads={threads} diverged");
            assert_eq!(report.n_items, 30_000);
        }
        // The whole-span wrapper agrees with the serial estimator's
        // statistics (not bitwise — different RNG schedule — but close).
        let mut rng = StdRng::seed_from_u64(8);
        let (h, _) = unbiased_histogram_par(&log.view(), &binner(), 20_000, 2, &mut rng).unwrap();
        assert_eq!(h.total(), 20_000.0);
    }

    #[test]
    fn a_failed_or_missing_build_leaves_nothing_to_draw_from() {
        let log = TelemetryLog::from_records(vec![rec(0, 105.0), rec(10, 205.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let mut draw = |cells: &CellTable| {
            unbiased_histogram_in_cells_par(&log.view(), &binner(), cells, 10, 1, &mut rng)
        };
        assert!(matches!(
            draw(&CellTable::default()),
            Err(AutoSensError::Internal(_))
        ));
        let mut cells = CellTable::default();
        cells.build(&log.view(), &[(0, 10)]).unwrap();
        assert_eq!(draw(&cells).unwrap().0.total(), 10.0);
        assert!(cells.build(&log.view(), &[(5, 4)]).is_err());
        assert!(matches!(draw(&cells), Err(AutoSensError::Internal(_))));
    }

    #[test]
    fn decay_weight_halves_per_half_life() {
        assert_eq!(decay_weight(1_000, 1_000, 500), 1.0);
        assert!((decay_weight(500, 1_000, 500) - 0.5).abs() < 1e-12);
        assert!((decay_weight(0, 1_000, 500) - 0.25).abs() < 1e-12);
        // Instants past the frontier clamp to 1, never amplify.
        assert_eq!(decay_weight(2_000, 1_000, 500), 1.0);
    }

    #[test]
    fn decayed_draws_weight_recent_regime_up() {
        // First half of the span is slow (500 ms), second half fast
        // (100 ms). Undecayed, the unbiased split is ~50/50; with a
        // half-life of a tenth of the span, the fast (recent) regime must
        // dominate the decayed mass.
        let mut records: Vec<ActionRecord> = (0..500).map(|i| rec(i * 100, 500.0)).collect();
        records.extend((0..500).map(|i| rec(50_000 + i * 100, 100.0)));
        let log = TelemetryLog::from_records(records).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let (h, _) = unbiased_histogram_decayed_par(
            &log.view(),
            &binner(),
            10_000,
            99_900,
            40_000,
            2,
            &mut rng,
        )
        .unwrap();
        let frac_fast = h.count(10) / h.total();
        assert!(frac_fast > 0.8, "fast share {frac_fast}");
        // Old mass fades but never to exactly zero.
        assert!(h.count(50) > 0.0);
    }

    #[test]
    fn decayed_draws_are_bit_identical_across_thread_counts() {
        let records: Vec<ActionRecord> = (0..500)
            .map(|i| rec(i * 997, 50.0 + (i % 90) as f64 * 10.0))
            .collect();
        let log = TelemetryLog::from_records(records).unwrap();
        let frontier = 499 * 997;
        let reference = {
            let mut rng = StdRng::seed_from_u64(9);
            unbiased_histogram_decayed_par(
                &log.view(),
                &binner(),
                60_000,
                frontier,
                30_000,
                1,
                &mut rng,
            )
            .unwrap()
            .0
        };
        for threads in [2, 4, 8] {
            let mut rng = StdRng::seed_from_u64(9);
            let (h, report) = unbiased_histogram_decayed_par(
                &log.view(),
                &binner(),
                60_000,
                frontier,
                30_000,
                threads,
                &mut rng,
            )
            .unwrap();
            let same = h
                .counts()
                .iter()
                .zip(reference.counts())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads={threads} diverged");
            assert_eq!(report.n_items, 30_000);
        }
    }

    #[test]
    fn decayed_rejects_bad_half_life() {
        let log = TelemetryLog::from_records(vec![rec(0, 100.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        assert!(
            unbiased_histogram_decayed_par(&log.view(), &binner(), 0, 0, 10, 1, &mut rng).is_err()
        );
        assert!(
            unbiased_histogram_decayed_par(&log.view(), &binner(), -5, 0, 10, 1, &mut rng).is_err()
        );
    }

    #[test]
    fn single_record_log_is_degenerate_but_works() {
        let log = TelemetryLog::from_records(vec![rec(1000, 250.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let h = unbiased_histogram(&log.view(), &binner(), 100, &mut rng).unwrap();
        assert_eq!(h.count(25), 100.0);
    }
}
