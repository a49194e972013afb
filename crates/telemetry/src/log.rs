//! [`TelemetryLog`]: a validated, time-sorted, *columnar* store of action
//! records, and [`LogView`]: the zero-copy selection the rest of the stack
//! computes over.
//!
//! The unbiased-distribution estimator needs fast nearest-in-time lookups,
//! so the log maintains a sorted-by-time invariant. Appends may arrive out
//! of order (e.g. merged shards); the log tracks sortedness and
//! `ensure_sorted` performs a stable sort on demand.
//!
//! Two lookups share one answer. [`LogView::nearest_in_time`] answers a
//! single query with three binary searches from scratch. [`NearestCursor`]
//! answers a non-decreasing *sequence* of queries — the estimator's
//! time-ordered draws — from the gap between the two rows that bracket the
//! query, moving forward only (by galloping) when a query leaves that gap,
//! so a sweep of `m` draws over `n` rows costs `O(m + n)` row reads instead
//! of `O(m log n)`. It returns the identical `(lo, hi)` for every query.
//!
//! Storage is struct-of-arrays ([`ColumnStore`]): seven parallel columns,
//! one per record field. The analysis hot loops (histogram fills, α
//! partitioning, slice filtering) each touch only a few fields per record,
//! so the columnar layout keeps them cache-linear instead of striding over
//! 48-byte rows. Row-level [`ActionRecord`]s survive only at the
//! codec/ingest boundary: readers materialize one record per input line and
//! `push` scatters it into the columns; writers gather one record per
//! output line.

use std::borrow::Cow;

use crate::error::TelemetryError;
use crate::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
use crate::time::SimTime;

/// Struct-of-arrays storage for action records: seven parallel columns of
/// equal length, one slot per record. The store is a dumb container — it
/// performs no validation and maintains no ordering; [`TelemetryLog`] owns
/// those invariants.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnStore {
    time_ms: Vec<i64>,
    latency_ms: Vec<f64>,
    action: Vec<u8>,
    user: Vec<u64>,
    class: Vec<u8>,
    tz_offset_ms: Vec<i64>,
    outcome: Vec<u8>,
}

impl ColumnStore {
    /// An empty store.
    pub fn new() -> Self {
        ColumnStore::default()
    }

    /// An empty store with room for `n` records per column.
    pub fn with_capacity(n: usize) -> Self {
        ColumnStore {
            time_ms: Vec::with_capacity(n),
            latency_ms: Vec::with_capacity(n),
            action: Vec::with_capacity(n),
            user: Vec::with_capacity(n),
            class: Vec::with_capacity(n),
            tz_offset_ms: Vec::with_capacity(n),
            outcome: Vec::with_capacity(n),
        }
    }

    /// Number of records (every column has this length).
    pub fn len(&self) -> usize {
        self.time_ms.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.time_ms.is_empty()
    }

    /// Scatter one record into the columns (append).
    pub fn push(&mut self, r: &ActionRecord) {
        self.time_ms.push(r.time.millis());
        self.latency_ms.push(r.latency_ms);
        self.action.push(r.action.code());
        self.user.push(r.user.0);
        self.class.push(r.class.code());
        self.tz_offset_ms.push(r.tz_offset_ms);
        self.outcome.push(r.outcome.code());
    }

    /// Scatter one record into storage position `idx`, shifting the tail.
    pub fn insert(&mut self, idx: usize, r: &ActionRecord) {
        self.time_ms.insert(idx, r.time.millis());
        self.latency_ms.insert(idx, r.latency_ms);
        self.action.insert(idx, r.action.code());
        self.user.insert(idx, r.user.0);
        self.class.insert(idx, r.class.code());
        self.tz_offset_ms.insert(idx, r.tz_offset_ms);
        self.outcome.insert(idx, r.outcome.code());
    }

    /// Gather one row back into a record.
    pub fn get(&self, i: usize) -> ActionRecord {
        ActionRecord {
            time: SimTime(self.time_ms[i]),
            action: ActionType::from_code(self.action[i]),
            latency_ms: self.latency_ms[i],
            user: UserId(self.user[i]),
            class: UserClass::from_code(self.class[i]),
            tz_offset_ms: self.tz_offset_ms[i],
            outcome: Outcome::from_code(self.outcome[i]),
        }
    }

    /// Drop the first `n` rows (every row when `n >= self.len()`),
    /// shifting the rest to the front. A time-sorted store evicts its
    /// oldest rows this way.
    pub fn drain_front(&mut self, n: usize) {
        let n = n.min(self.len());
        self.time_ms.drain(..n);
        self.latency_ms.drain(..n);
        self.action.drain(..n);
        self.user.drain(..n);
        self.class.drain(..n);
        self.tz_offset_ms.drain(..n);
        self.outcome.drain(..n);
    }

    /// Append every row of `other`, preserving its storage order.
    pub fn extend_from(&mut self, other: &ColumnStore) {
        self.time_ms.extend_from_slice(&other.time_ms);
        self.latency_ms.extend_from_slice(&other.latency_ms);
        self.action.extend_from_slice(&other.action);
        self.user.extend_from_slice(&other.user);
        self.class.extend_from_slice(&other.class);
        self.tz_offset_ms.extend_from_slice(&other.tz_offset_ms);
        self.outcome.extend_from_slice(&other.outcome);
    }

    /// The timestamp column, milliseconds.
    pub fn times(&self) -> &[i64] {
        &self.time_ms
    }

    /// The latency column, milliseconds.
    pub fn latencies(&self) -> &[f64] {
        &self.latency_ms
    }

    /// The action-type column ([`ActionType::code`] values).
    pub fn actions(&self) -> &[u8] {
        &self.action
    }

    /// The user-id column.
    pub fn users(&self) -> &[u64] {
        &self.user
    }

    /// The user-class column ([`UserClass::code`] values).
    pub fn classes(&self) -> &[u8] {
        &self.class
    }

    /// The timezone-offset column, milliseconds.
    pub fn tz_offsets(&self) -> &[i64] {
        &self.tz_offset_ms
    }

    /// The outcome column ([`Outcome::code`] values).
    pub fn outcomes(&self) -> &[u8] {
        &self.outcome
    }

    /// Field-for-field identity of rows `i` and `j` at the bit level
    /// (latency compared as bits), matching the dedup hash-set key.
    pub fn row_equals_row(&self, i: usize, j: usize) -> bool {
        self.time_ms[i] == self.time_ms[j]
            && self.action[i] == self.action[j]
            && self.latency_ms[i].to_bits() == self.latency_ms[j].to_bits()
            && self.user[i] == self.user[j]
            && self.class[i] == self.class[j]
            && self.tz_offset_ms[i] == self.tz_offset_ms[j]
            && self.outcome[i] == self.outcome[j]
    }

    /// Field-for-field identity of row `i` and a record, bit-exact latency.
    pub fn row_equals_record(&self, i: usize, r: &ActionRecord) -> bool {
        self.time_ms[i] == r.time.millis()
            && self.action[i] == r.action.code()
            && self.latency_ms[i].to_bits() == r.latency_ms.to_bits()
            && self.user[i] == r.user.0
            && self.class[i] == r.class.code()
            && self.tz_offset_ms[i] == r.tz_offset_ms
            && self.outcome[i] == r.outcome.code()
    }

    /// The hashable dedup identity of row `i` (latency as bits).
    fn row_key(&self, i: usize) -> (i64, u8, u64, u64, u8, i64, u8) {
        (
            self.time_ms[i],
            self.action[i],
            self.latency_ms[i].to_bits(),
            self.user[i],
            self.class[i],
            self.tz_offset_ms[i],
            self.outcome[i],
        )
    }

    /// A new store holding the rows at `idx`, in that order.
    pub fn gather(&self, idx: &[u32]) -> ColumnStore {
        ColumnStore {
            time_ms: idx.iter().map(|&i| self.time_ms[i as usize]).collect(),
            latency_ms: idx.iter().map(|&i| self.latency_ms[i as usize]).collect(),
            action: idx.iter().map(|&i| self.action[i as usize]).collect(),
            user: idx.iter().map(|&i| self.user[i as usize]).collect(),
            class: idx.iter().map(|&i| self.class[i as usize]).collect(),
            tz_offset_ms: idx.iter().map(|&i| self.tz_offset_ms[i as usize]).collect(),
            outcome: idx.iter().map(|&i| self.outcome[i as usize]).collect(),
        }
    }

    /// Whether the timestamp column is non-decreasing.
    pub fn is_time_sorted(&self) -> bool {
        self.time_ms.windows(2).all(|w| w[0] <= w[1])
    }

    /// Stable sort by timestamp: sorts a row-index permutation (stable on
    /// ties, preserving arrival order) and gathers every column through it.
    pub fn sort_by_time(&mut self) {
        let mut perm: Vec<u32> = (0..self.len() as u32).collect();
        perm.sort_by_key(|&i| self.time_ms[i as usize]);
        *self = self.gather(&perm);
    }

    /// Materialize every row (codec/checkpoint boundary only).
    pub fn to_records(&self) -> Vec<ActionRecord> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Assemble a store directly from its seven column vectors (the binary
    /// container reader's materialization path). Errors unless every column
    /// has the same length; performs no semantic validation — callers own
    /// that, exactly as with [`ColumnStore::push`].
    #[allow(clippy::too_many_arguments)]
    pub fn from_vecs(
        time_ms: Vec<i64>,
        latency_ms: Vec<f64>,
        action: Vec<u8>,
        user: Vec<u64>,
        class: Vec<u8>,
        tz_offset_ms: Vec<i64>,
        outcome: Vec<u8>,
    ) -> Result<ColumnStore, TelemetryError> {
        let n = time_ms.len();
        let lens = [
            latency_ms.len(),
            action.len(),
            user.len(),
            class.len(),
            tz_offset_ms.len(),
            outcome.len(),
        ];
        if lens.iter().any(|&l| l != n) {
            return Err(TelemetryError::Container {
                reason: format!("column lengths differ: time has {n} rows, others {lens:?}"),
            });
        }
        Ok(ColumnStore {
            time_ms,
            latency_ms,
            action,
            user,
            class,
            tz_offset_ms,
            outcome,
        })
    }
}

/// A borrowed, zero-copy selection of a [`TelemetryLog`]'s rows: references
/// to the seven columns plus an optional selection vector of row indices
/// (ascending, i.e. storage order). This is the currency the analysis stack
/// computes over — building one costs index construction only, never row
/// copies.
///
/// Ownership rules: a `LogView` borrows its columns from the log for `'a`;
/// the selection is a [`Cow`], so derived views (filters, dedup) can own
/// their index vector while still borrowing the columns. [`LogView::borrowed`]
/// reborrows any view at a shorter lifetime for passing down to kernels;
/// [`LogView::materialize`] is the one escape hatch back to an owned log
/// (and the only place rows are copied).
#[derive(Debug, Clone)]
pub struct LogView<'a> {
    time_ms: &'a [i64],
    latency_ms: &'a [f64],
    action: &'a [u8],
    user: &'a [u64],
    class: &'a [u8],
    tz_offset_ms: &'a [i64],
    outcome: &'a [u8],
    /// `None` = every row; `Some` = the selected storage indices, ascending.
    sel: Option<Cow<'a, [u32]>>,
    /// Whether the viewed rows are in time order.
    sorted: bool,
}

impl<'a> LogView<'a> {
    fn full(cols: &'a ColumnStore, sorted: bool) -> LogView<'a> {
        LogView::full_range(cols, 0, cols.len(), sorted)
    }

    fn full_range(cols: &'a ColumnStore, lo: usize, hi: usize, sorted: bool) -> LogView<'a> {
        LogView {
            time_ms: &cols.time_ms[lo..hi],
            latency_ms: &cols.latency_ms[lo..hi],
            action: &cols.action[lo..hi],
            user: &cols.user[lo..hi],
            class: &cols.class[lo..hi],
            tz_offset_ms: &cols.tz_offset_ms[lo..hi],
            outcome: &cols.outcome[lo..hi],
            sel: None,
            sorted,
        }
    }

    /// Build a full (unselected) view over seven raw column slices — the
    /// zero-copy entry point for memory-mapped container columns, which
    /// never pass through a [`ColumnStore`]. Errors unless every slice has
    /// the same length; `sorted` asserts that the time slice is already
    /// known non-decreasing (debug builds re-check).
    #[allow(clippy::too_many_arguments)]
    pub fn from_columns(
        time_ms: &'a [i64],
        latency_ms: &'a [f64],
        action: &'a [u8],
        user: &'a [u64],
        class: &'a [u8],
        tz_offset_ms: &'a [i64],
        outcome: &'a [u8],
        sorted: bool,
    ) -> Result<LogView<'a>, TelemetryError> {
        let n = time_ms.len();
        let lens = [
            latency_ms.len(),
            action.len(),
            user.len(),
            class.len(),
            tz_offset_ms.len(),
            outcome.len(),
        ];
        if lens.iter().any(|&l| l != n) {
            return Err(TelemetryError::Container {
                reason: format!("column lengths differ: time has {n} rows, others {lens:?}"),
            });
        }
        debug_assert!(
            !sorted || time_ms.windows(2).all(|w| w[0] <= w[1]),
            "from_columns claimed sorted over an unsorted time column"
        );
        Ok(LogView {
            time_ms,
            latency_ms,
            action,
            user,
            class,
            tz_offset_ms,
            outcome,
            sel: None,
            sorted,
        })
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(sel) => sel.len(),
            None => self.time_ms.len(),
        }
    }

    /// Whether the view selects no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage index of view row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> usize {
        match &self.sel {
            Some(sel) => sel[i] as usize,
            None => i,
        }
    }

    /// Timestamp of view row `i`, milliseconds.
    #[inline]
    pub fn time_at(&self, i: usize) -> i64 {
        self.time_ms[self.row(i)]
    }

    /// Latency of view row `i`, milliseconds.
    #[inline]
    pub fn latency_at(&self, i: usize) -> f64 {
        self.latency_ms[self.row(i)]
    }

    /// Action-type code of view row `i`.
    #[inline]
    pub fn action_at(&self, i: usize) -> u8 {
        self.action[self.row(i)]
    }

    /// User id of view row `i`.
    #[inline]
    pub fn user_at(&self, i: usize) -> u64 {
        self.user[self.row(i)]
    }

    /// User-class code of view row `i`.
    #[inline]
    pub fn class_at(&self, i: usize) -> u8 {
        self.class[self.row(i)]
    }

    /// Timezone offset of view row `i`, milliseconds.
    #[inline]
    pub fn tz_offset_at(&self, i: usize) -> i64 {
        self.tz_offset_ms[self.row(i)]
    }

    /// Outcome code of view row `i`.
    #[inline]
    pub fn outcome_at(&self, i: usize) -> u8 {
        self.outcome[self.row(i)]
    }

    /// Gather view row `i` into a record (boundary use only — kernels
    /// should read the column they need via the `*_at` accessors).
    pub fn get(&self, i: usize) -> ActionRecord {
        let r = self.row(i);
        ActionRecord {
            time: SimTime(self.time_ms[r]),
            action: ActionType::from_code(self.action[r]),
            latency_ms: self.latency_ms[r],
            user: UserId(self.user[r]),
            class: UserClass::from_code(self.class[r]),
            tz_offset_ms: self.tz_offset_ms[r],
            outcome: Outcome::from_code(self.outcome[r]),
        }
    }

    /// Iterate the selected rows as materialized records, in view order.
    pub fn iter(&self) -> impl Iterator<Item = ActionRecord> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Whether the viewed rows are in time order.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Error with the first violating view index unless the view is sorted.
    pub fn require_sorted(&self) -> Result<(), TelemetryError> {
        if !self.sorted {
            let index = (1..self.len())
                .find(|&i| self.time_at(i) < self.time_at(i - 1))
                .unwrap_or(0);
            return Err(TelemetryError::Unsorted { index });
        }
        Ok(())
    }

    /// Reborrow this view at a shorter lifetime (cheap: slices are copied,
    /// an owned selection is borrowed, never cloned).
    pub fn borrowed(&self) -> LogView<'_> {
        LogView {
            time_ms: self.time_ms,
            latency_ms: self.latency_ms,
            action: self.action,
            user: self.user,
            class: self.class,
            tz_offset_ms: self.tz_offset_ms,
            outcome: self.outcome,
            sel: self.sel.as_ref().map(|s| Cow::Borrowed(&**s)),
            sorted: self.sorted,
        }
    }

    /// Narrow this view to the given selection of *storage* indices (must
    /// be ascending and a subset of the current selection — filters and
    /// dedup produce exactly that).
    pub fn with_selection(&self, sel: Vec<u32>) -> LogView<'a> {
        debug_assert!(
            sel.windows(2).all(|w| w[0] < w[1]),
            "selection not ascending"
        );
        LogView {
            time_ms: self.time_ms,
            latency_ms: self.latency_ms,
            action: self.action,
            user: self.user,
            class: self.class,
            tz_offset_ms: self.tz_offset_ms,
            outcome: self.outcome,
            sel: Some(Cow::Owned(sel)),
            sorted: self.sorted,
        }
    }

    /// First view index for which `pred(time)` is false (times ascending).
    fn partition_point_time(&self, pred: impl Fn(i64) -> bool) -> usize {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.time_at(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// View-index range `[lo, hi)` of rows with time in `[from, to)`.
    /// Requires a sorted view.
    pub fn range_indices(
        &self,
        from: SimTime,
        to: SimTime,
    ) -> Result<(usize, usize), TelemetryError> {
        self.require_sorted()?;
        let lo = self.partition_point_time(|t| t < from.millis());
        let hi = self.partition_point_time(|t| t < to.millis());
        Ok((lo, hi))
    }

    /// The sub-view of rows with time in `[from, to)`. Requires a sorted
    /// view; costs two binary searches and zero copies.
    pub fn range(&self, from: SimTime, to: SimTime) -> Result<LogView<'_>, TelemetryError> {
        let (lo, hi) = self.range_indices(from, to)?;
        Ok(match &self.sel {
            Some(sel) => LogView {
                sel: Some(Cow::Borrowed(&sel[lo..hi])),
                ..self.borrowed()
            },
            None => LogView {
                time_ms: &self.time_ms[lo..hi],
                latency_ms: &self.latency_ms[lo..hi],
                action: &self.action[lo..hi],
                user: &self.user[lo..hi],
                class: &self.class[lo..hi],
                tz_offset_ms: &self.tz_offset_ms[lo..hi],
                outcome: &self.outcome[lo..hi],
                sel: None,
                sorted: self.sorted,
            },
        })
    }

    /// The row(s) nearest in time to `t`: the view-index range `[lo, hi)`
    /// of *all* rows sharing the minimal |time - t|, so the caller can
    /// break ties randomly as the paper's §2.2 prescribes.
    ///
    /// Errors on an empty or unsorted view.
    pub fn nearest_in_time(&self, t: SimTime) -> Result<(usize, usize), TelemetryError> {
        self.require_nearest_lookup()?;
        let n = self.len();
        let t = t.millis();
        // First row at or after t, then candidate distances on each side.
        let idx = self.partition_point_time(|x| x < t);
        let best = if idx == 0 {
            self.time_at(0) - t
        } else if idx == n {
            t - self.time_at(n - 1)
        } else {
            (self.time_at(idx) - t).min(t - self.time_at(idx - 1))
        };
        // All rows at distance `best` form two (possibly empty) runs of
        // equal timestamps: one at t-best, one at t+best. Locate them.
        let lo = self.partition_point_time(|x| x < t - best);
        let hi = self.partition_point_time(|x| x <= t + best);
        debug_assert!(lo < hi, "at least one row at the minimal distance");
        Ok((lo, hi))
    }

    /// A forward-only cursor answering [`LogView::nearest_in_time`] for a
    /// non-decreasing sequence of query times (see [`NearestCursor`]).
    ///
    /// Errors exactly as `nearest_in_time` does — on an empty or unsorted
    /// view — so the sortedness check runs once per sweep, not per query.
    pub fn nearest_cursor(&self) -> Result<NearestCursor<'_>, TelemetryError> {
        self.require_nearest_lookup()?;
        Ok(NearestCursor::start(self.borrowed()))
    }

    /// The errors both nearest-sample lookups share: an unsorted view (with
    /// its first violating index) or an empty one.
    fn require_nearest_lookup(&self) -> Result<(), TelemetryError> {
        self.require_sorted()?;
        if self.is_empty() {
            return Err(TelemetryError::InvalidRecord(
                "nearest_in_time on empty log".into(),
            ));
        }
        Ok(())
    }

    /// Earliest viewed time (min scan if unsorted).
    pub fn start_time(&self) -> Option<SimTime> {
        if self.is_empty() {
            None
        } else if self.sorted {
            Some(SimTime(self.time_at(0)))
        } else {
            (0..self.len()).map(|i| self.time_at(i)).min().map(SimTime)
        }
    }

    /// Latest viewed time.
    pub fn end_time(&self) -> Option<SimTime> {
        if self.is_empty() {
            None
        } else if self.sorted {
            Some(SimTime(self.time_at(self.len() - 1)))
        } else {
            (0..self.len()).map(|i| self.time_at(i)).max().map(SimTime)
        }
    }

    /// The `(timestamp ms, latency)` series of the view, in time order.
    /// Errors on an unsorted view.
    pub fn latency_series(&self) -> Result<Vec<(i64, f64)>, TelemetryError> {
        self.require_sorted()?;
        Ok((0..self.len())
            .map(|i| (self.time_at(i), self.latency_at(i)))
            .collect())
    }

    /// Length of the longest run of viewed rows sharing one timestamp.
    pub fn max_equal_time_run(&self) -> usize {
        let mut max = 0usize;
        let mut run = 0usize;
        let mut last: Option<i64> = None;
        for i in 0..self.len() {
            let t = self.time_at(i);
            if last == Some(t) {
                run += 1;
            } else {
                run = 1;
                last = Some(t);
            }
            max = max.max(run);
        }
        max
    }

    /// Drop exact field-for-field duplicate rows (keep-first within each
    /// equal-timestamp run), shrinking the selection — no rows are copied.
    /// Semantics are identical to [`TelemetryLog::dedup_exact_par`] on the
    /// materialized view, including the data-dependent (never
    /// thread-dependent) serial fallback. Returns the deduplicated view and
    /// how many rows were dropped.
    pub fn dedup_exact_par(&self, threads: usize) -> (LogView<'a>, usize) {
        const MAX_RUN: usize = 256;
        let n = self.len();
        if !self.sorted || self.max_equal_time_run() > MAX_RUN {
            // Serial hash-set pass, keep-first in view order.
            let mut seen = std::collections::HashSet::with_capacity(n);
            let mut keep: Vec<u32> = Vec::with_capacity(n);
            for i in 0..n {
                let r = self.row(i);
                let key = (
                    self.time_ms[r],
                    self.action[r],
                    self.latency_ms[r].to_bits(),
                    self.user[r],
                    self.class[r],
                    self.tz_offset_ms[r],
                    self.outcome[r],
                );
                if seen.insert(key) {
                    keep.push(r as u32);
                }
            }
            let removed = n - keep.len();
            if removed == 0 {
                return (self.clone(), 0);
            }
            return (self.with_selection(keep), removed);
        }
        // Sorted: duplicates necessarily share a timestamp, so a row is a
        // repeat iff an identical row occurs earlier within its run of
        // equal timestamps. Each chunk decides its rows independently
        // (backward scans may read across a chunk boundary, which is safe
        // on the shared columns) and duplicate indices concatenate in
        // chunk order — identical to the serial pass for any thread count.
        let view = self.borrowed();
        let (parts, _) = autosens_exec::run_chunks(
            "dedup_exact",
            n,
            autosens_exec::scan_chunk_size_for(n),
            threads,
            |_, range| {
                let mut dups: Vec<usize> = Vec::new();
                for i in range {
                    let t = view.time_at(i);
                    let mut j = i;
                    while j > 0 && view.time_at(j - 1) == t {
                        j -= 1;
                        if view_rows_equal(&view, j, i) {
                            dups.push(i);
                            break;
                        }
                    }
                }
                dups
            },
        )
        .expect("dedup scan does not panic");
        let removed: usize = parts.iter().map(Vec::len).sum();
        if removed == 0 {
            return (self.clone(), 0);
        }
        let mut dup_iter = parts.iter().flatten().copied();
        let mut next_dup = dup_iter.next();
        let mut keep: Vec<u32> = Vec::with_capacity(n - removed);
        for i in 0..n {
            if Some(i) == next_dup {
                next_dup = dup_iter.next();
            } else {
                keep.push(self.row(i) as u32);
            }
        }
        (self.with_selection(keep), removed)
    }

    /// Copy the selected rows into an owned, sorted log — the single
    /// escape hatch from view land, and the only place rows are copied.
    pub fn materialize(&self) -> TelemetryLog {
        let cols = match &self.sel {
            Some(sel) => ColumnStore {
                time_ms: sel.iter().map(|&i| self.time_ms[i as usize]).collect(),
                latency_ms: sel.iter().map(|&i| self.latency_ms[i as usize]).collect(),
                action: sel.iter().map(|&i| self.action[i as usize]).collect(),
                user: sel.iter().map(|&i| self.user[i as usize]).collect(),
                class: sel.iter().map(|&i| self.class[i as usize]).collect(),
                tz_offset_ms: sel.iter().map(|&i| self.tz_offset_ms[i as usize]).collect(),
                outcome: sel.iter().map(|&i| self.outcome[i as usize]).collect(),
            },
            None => ColumnStore {
                time_ms: self.time_ms.to_vec(),
                latency_ms: self.latency_ms.to_vec(),
                action: self.action.to_vec(),
                user: self.user.to_vec(),
                class: self.class.to_vec(),
                tz_offset_ms: self.tz_offset_ms.to_vec(),
                outcome: self.outcome.to_vec(),
            },
        };
        let mut log = TelemetryLog {
            sorted: self.sorted,
            cols,
        };
        log.ensure_sorted();
        log
    }
}

/// Free-function row comparison so the dedup chunk closure (which already
/// borrows the view) can compare without re-borrowing `self`.
fn view_rows_equal(v: &LogView<'_>, i: usize, j: usize) -> bool {
    let (a, b) = (v.row(i), v.row(j));
    v.time_ms[a] == v.time_ms[b]
        && v.action[a] == v.action[b]
        && v.latency_ms[a].to_bits() == v.latency_ms[b].to_bits()
        && v.user[a] == v.user[b]
        && v.class[a] == v.class[b]
        && v.tz_offset_ms[a] == v.tz_offset_ms[b]
        && v.outcome[a] == v.outcome[b]
}

/// Nearest-in-time lookups for a non-decreasing sequence of query times
/// over a sorted, non-empty view, built by [`LogView::nearest_cursor`].
///
/// The cursor stands in the gap between rows `at - 1` and `at`, where `at`
/// is the first row at or after the last query. Every query in that gap
/// has the same candidates — the run of equal timestamps ending at
/// `at - 1` and the run starting at `at` — so it is answered from the two
/// runs with one comparison: the nearer run, or both on an exact midpoint,
/// which is the range [`LogView::nearest_in_time`] returns. A query past
/// the gap moves `at` and the two run bounds forward by galloping (probe
/// 1, 2, 4, … rows ahead, then bisect the last step). None of them ever
/// moves back while queries do not decrease, so `m` queries over `n` rows
/// cost `O(m + n)` row reads. A query earlier than the one before restarts
/// the cursor at row 0: any sequence gets the right answer, a
/// non-decreasing one gets the linear cost.
#[derive(Debug, Clone)]
pub struct NearestCursor<'a> {
    view: LogView<'a>,
    /// First row at or after the last query.
    at: usize,
    /// First row of the run of equal timestamps that ends at `at - 1`.
    left: usize,
    /// One past the last row of the run that starts at `at`.
    right: usize,
    /// Time of row `at - 1` (unused while `at == 0`).
    prev_t: i64,
    /// Time of row `at`, or `i64::MAX` once `at` is past the last row.
    next_t: i64,
    /// The last query time.
    last: i64,
}

impl<'a> NearestCursor<'a> {
    fn start(view: LogView<'a>) -> NearestCursor<'a> {
        let mut cursor = NearestCursor {
            view,
            at: 0,
            left: 0,
            right: 0,
            prev_t: i64::MIN,
            next_t: i64::MIN,
            last: i64::MIN,
        };
        cursor.seek(i64::MIN);
        cursor
    }

    /// The view-index range `[lo, hi)` of *all* rows sharing the minimal
    /// |time - t| — the range [`LogView::nearest_in_time`] returns.
    pub fn nearest(&mut self, t: SimTime) -> (usize, usize) {
        let t = t.millis();
        if t < self.last {
            // An earlier query: sweep again from row 0.
            (self.at, self.left) = (0, 0);
            self.seek(t);
        } else if t > self.next_t {
            self.seek(t);
        }
        self.last = t;
        if self.at == 0 {
            return (0, self.right);
        }
        if self.at == self.view.len() {
            return (self.left, self.at);
        }
        match (t - self.prev_t).cmp(&(self.next_t - t)) {
            std::cmp::Ordering::Less => (self.left, self.at),
            std::cmp::Ordering::Equal => (self.left, self.right),
            std::cmp::Ordering::Greater => (self.at, self.right),
        }
    }

    /// Move to the gap holding `t`: `at` to the first row at or after `t`,
    /// and the two run bounds with it.
    fn seek(&mut self, t: i64) {
        let n = self.view.len();
        self.at = self.gallop(self.at, |x| x < t);
        if self.at > 0 {
            self.prev_t = self.view.time_at(self.at - 1);
            self.left = self.gallop(self.left, |x| x < self.prev_t);
        }
        if self.at < n {
            self.next_t = self.view.time_at(self.at);
            self.right = self.gallop(self.at, |x| x <= self.next_t);
        } else {
            self.next_t = i64::MAX;
            self.right = n;
        }
    }

    /// First view index at or after `from` whose time fails `pred`, where
    /// `pred` holds on a prefix of the view that covers every row before
    /// `from`. Probes `from`, `from + 1`, `from + 3`, `from + 7`, … until a
    /// probe fails, then bisects the last step: `O(log d)` reads for a move
    /// of `d` rows.
    fn gallop(&self, from: usize, pred: impl Fn(i64) -> bool) -> usize {
        let n = self.view.len();
        let (mut lo, mut probe, mut step) = (from, from, 1usize);
        while probe < n && pred(self.view.time_at(probe)) {
            lo = probe + 1;
            probe += step;
            step *= 2;
        }
        let mut hi = probe.min(n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.view.time_at(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// A collection of action records with a maintained time order, stored
/// columnar.
///
/// ```
/// use autosens_telemetry::log::TelemetryLog;
/// use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
/// use autosens_telemetry::time::SimTime;
///
/// let rec = |t: i64, latency: f64| ActionRecord {
///     time: SimTime(t),
///     action: ActionType::SelectMail,
///     latency_ms: latency,
///     user: UserId(1),
///     class: UserClass::Business,
///     tz_offset_ms: 0,
///     outcome: Outcome::Success,
/// };
/// // Out-of-order input is sorted on construction...
/// let log = TelemetryLog::from_records(vec![rec(2000, 5.0), rec(0, 1.0)]).unwrap();
/// assert!(log.is_sorted());
/// // ...enabling binary-searched range and nearest-in-time queries.
/// assert_eq!(log.range(SimTime(0), SimTime(1000)).unwrap().len(), 1);
/// let (lo, hi) = log.nearest_in_time(SimTime(1500)).unwrap();
/// assert_eq!((lo, hi), (1, 2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TelemetryLog {
    cols: ColumnStore,
    sorted: bool,
}

impl TelemetryLog {
    /// An empty log.
    pub fn new() -> Self {
        TelemetryLog {
            cols: ColumnStore::new(),
            sorted: true,
        }
    }

    /// Build from a vector of records, validating each. The result is sorted.
    pub fn from_records(records: Vec<ActionRecord>) -> Result<Self, TelemetryError> {
        for r in &records {
            r.validate()?;
        }
        Ok(TelemetryLog::from_trusted_records(records))
    }

    /// Build from records that are individually known-valid — e.g. records
    /// filtered out of an existing (validated) log, or emitted by the
    /// simulator, which constructs only valid records. Skips the per-record
    /// re-validation pass — the dominant cost of materializing large
    /// sub-logs — but still establishes the time-order invariant. Debug
    /// builds re-validate to catch misuse.
    pub fn from_trusted_records(records: Vec<ActionRecord>) -> Self {
        debug_assert!(
            records.iter().all(|r| r.validate().is_ok()),
            "from_trusted_records fed an invalid record"
        );
        let mut cols = ColumnStore::with_capacity(records.len());
        for r in &records {
            cols.push(r);
        }
        TelemetryLog::from_columns(cols)
    }

    /// Build directly from columns whose rows are individually known-valid
    /// (e.g. concatenated stream shards). Establishes the time-order
    /// invariant without materializing a single row.
    pub fn from_columns(cols: ColumnStore) -> Self {
        debug_assert!(
            (0..cols.len()).all(|i| cols.get(i).validate().is_ok()),
            "from_columns fed an invalid row"
        );
        let mut log = TelemetryLog {
            sorted: cols.is_time_sorted(),
            cols,
        };
        log.ensure_sorted();
        log
    }

    /// Append one validated record, tracking whether order is preserved.
    pub fn push(&mut self, record: ActionRecord) -> Result<(), TelemetryError> {
        record.validate()?;
        if let Some(&last) = self.cols.time_ms.last() {
            if record.time.millis() < last {
                self.sorted = false;
            }
        }
        self.cols.push(&record);
        Ok(())
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Whether the records are currently in time order.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Stable-sort the records by time if needed.
    pub fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.cols.sort_by_time();
            self.sorted = true;
        }
    }

    /// The columnar storage.
    pub fn columns(&self) -> &ColumnStore {
        &self.cols
    }

    /// Take the columnar storage back out of the log without copying a
    /// row — the inverse of [`TelemetryLog::from_columns`], for callers
    /// that lend their store to an analysis and want it back afterwards.
    pub fn into_columns(self) -> ColumnStore {
        self.cols
    }

    /// The zero-copy view of every row (storage order).
    pub fn view(&self) -> LogView<'_> {
        LogView::full(&self.cols, self.sorted)
    }

    /// Gather record `i` (boundary use — hot loops should go through
    /// [`TelemetryLog::view`] and read columns).
    pub fn get(&self, i: usize) -> ActionRecord {
        self.cols.get(i)
    }

    /// Materialize all records in storage order (codec/checkpoint boundary
    /// only — this copies every row). Time-ordered iff [`Self::is_sorted`].
    pub fn to_records(&self) -> Vec<ActionRecord> {
        self.cols.to_records()
    }

    /// Iterate records (materialized per row), in storage order.
    pub fn iter(&self) -> LogIter<'_> {
        LogIter { log: self, i: 0 }
    }

    /// The view of rows whose time lies in `[from, to)`.
    ///
    /// Requires a sorted log; errors otherwise (call
    /// [`Self::ensure_sorted`] first).
    pub fn range(&self, from: SimTime, to: SimTime) -> Result<LogView<'_>, TelemetryError> {
        let (lo, hi) = self.range_indices(from, to)?;
        Ok(LogView::full_range(&self.cols, lo, hi, true))
    }

    /// Index range `[lo, hi)` of records with time in `[from, to)`.
    pub fn range_indices(
        &self,
        from: SimTime,
        to: SimTime,
    ) -> Result<(usize, usize), TelemetryError> {
        self.require_sorted()?;
        let lo = self.cols.time_ms.partition_point(|&t| t < from.millis());
        let hi = self.cols.time_ms.partition_point(|&t| t < to.millis());
        Ok((lo, hi))
    }

    /// The record(s) nearest in time to `t`: returns the index range
    /// `[lo, hi)` of *all* records sharing the minimal |time - t|, so the
    /// caller can break ties randomly as the paper's §2.2 prescribes.
    ///
    /// Errors on an empty or unsorted log.
    pub fn nearest_in_time(&self, t: SimTime) -> Result<(usize, usize), TelemetryError> {
        self.require_sorted()?;
        self.view().nearest_in_time(t)
    }

    /// Merge another log's records into this one (e.g. shards produced by
    /// parallel exporters), restoring the time order afterwards.
    ///
    /// When both inputs are already sorted this is a single two-pointer
    /// merge pass (stable: on ties, `self`'s records keep preceding
    /// `other`'s, exactly as append-then-stable-sort ordered them); only
    /// unsorted inputs fall back to append + full re-sort.
    pub fn merge(&mut self, other: &TelemetryLog) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.cols = other.cols.clone();
            self.sorted = other.sorted;
            self.ensure_sorted();
            return;
        }
        if !(self.sorted && other.sorted) {
            // Unsorted fallback: append, then one stable re-sort.
            self.cols.extend_from(&other.cols);
            self.sorted = false;
            self.ensure_sorted();
            return;
        }
        if self.cols.time_ms.last() <= other.cols.time_ms.first() {
            // Common shard case: `other` entirely follows — pure append.
            self.cols.extend_from(&other.cols);
            return;
        }
        let (a, b) = (&self.cols, &other.cols);
        let (n, m) = (a.len(), b.len());
        let mut out = ColumnStore::with_capacity(n + m);
        let (mut i, mut j) = (0usize, 0usize);
        // Emit index runs instead of single rows so each column extends
        // from contiguous slices.
        while i < n && j < m {
            if a.time_ms[i] <= b.time_ms[j] {
                let start = i;
                while i < n && a.time_ms[i] <= b.time_ms[j] {
                    i += 1;
                }
                out.extend_range(a, start, i);
            } else {
                let start = j;
                while j < m && b.time_ms[j] < a.time_ms[i] {
                    j += 1;
                }
                out.extend_range(b, start, j);
            }
        }
        out.extend_range(a, i, n);
        out.extend_range(b, j, m);
        self.cols = out;
    }

    /// Remove exact field-for-field duplicate records (re-delivered upload
    /// batches), keeping the first occurrence of each. Storage order is
    /// preserved, so sortedness is unaffected. Returns how many records
    /// were removed.
    pub fn dedup_exact(&mut self) -> usize {
        let n = self.cols.len();
        let mut seen: std::collections::HashSet<(i64, u8, u64, u64, u8, i64, u8)> =
            std::collections::HashSet::with_capacity(n);
        let mut keep: Vec<u32> = Vec::with_capacity(n);
        for i in 0..n {
            if seen.insert(self.cols.row_key(i)) {
                keep.push(i as u32);
            }
        }
        let removed = n - keep.len();
        if removed > 0 {
            self.cols = self.cols.gather(&keep);
        }
        removed
    }

    /// Data-parallel variant of [`TelemetryLog::dedup_exact`] for sorted
    /// logs — see [`LogView::dedup_exact_par`] for the algorithm and the
    /// determinism argument. The result is identical to `dedup_exact` for
    /// any thread count; unsorted logs and pathological equal-timestamp
    /// runs fall back to the serial hash-set pass (a condition on the data,
    /// never on `threads`).
    pub fn dedup_exact_par(&mut self, threads: usize) -> usize {
        if !self.sorted {
            return self.dedup_exact();
        }
        let (deduped, removed) = self.view().dedup_exact_par(threads);
        if removed > 0 {
            let keep = deduped
                .sel
                .as_ref()
                .expect("a shrunk view carries a selection");
            self.cols = self.cols.gather(keep);
        }
        removed
    }

    /// Retain only successful actions (the paper analyzes successes only).
    pub fn successes_only(&self) -> TelemetryLog {
        let keep: Vec<u32> = (0..self.cols.len() as u32)
            .filter(|&i| self.cols.outcome[i as usize] == Outcome::Success.code())
            .collect();
        TelemetryLog {
            cols: self.cols.gather(&keep),
            sorted: self.sorted,
        }
    }

    /// Earliest record time (requires sorted, non-empty log).
    pub fn start_time(&self) -> Option<SimTime> {
        if self.sorted {
            self.cols.time_ms.first().copied().map(SimTime)
        } else {
            self.cols.time_ms.iter().min().copied().map(SimTime)
        }
    }

    /// Latest record time.
    pub fn end_time(&self) -> Option<SimTime> {
        if self.sorted {
            self.cols.time_ms.last().copied().map(SimTime)
        } else {
            self.cols.time_ms.iter().max().copied().map(SimTime)
        }
    }

    /// The `(timestamp ms, latency)` series of the log, in time order.
    /// Errors on an unsorted log.
    pub fn latency_series(&self) -> Result<Vec<(i64, f64)>, TelemetryError> {
        self.require_sorted()?;
        Ok(self
            .cols
            .time_ms
            .iter()
            .zip(&self.cols.latency_ms)
            .map(|(&t, &l)| (t, l))
            .collect())
    }

    /// Error with the first violating index unless the log is sorted.
    pub fn require_sorted(&self) -> Result<(), TelemetryError> {
        if !self.sorted {
            // Find the first violation for a useful message.
            let index = self
                .cols
                .time_ms
                .windows(2)
                .position(|w| w[1] < w[0])
                .map(|i| i + 1)
                .unwrap_or(0);
            return Err(TelemetryError::Unsorted { index });
        }
        Ok(())
    }
}

impl ColumnStore {
    /// Append rows `[lo, hi)` of `other` (contiguous per-column copies).
    fn extend_range(&mut self, other: &ColumnStore, lo: usize, hi: usize) {
        self.time_ms.extend_from_slice(&other.time_ms[lo..hi]);
        self.latency_ms.extend_from_slice(&other.latency_ms[lo..hi]);
        self.action.extend_from_slice(&other.action[lo..hi]);
        self.user.extend_from_slice(&other.user[lo..hi]);
        self.class.extend_from_slice(&other.class[lo..hi]);
        self.tz_offset_ms
            .extend_from_slice(&other.tz_offset_ms[lo..hi]);
        self.outcome.extend_from_slice(&other.outcome[lo..hi]);
    }
}

/// Iterator over a log's records, materializing one per step.
pub struct LogIter<'a> {
    log: &'a TelemetryLog,
    i: usize,
}

impl Iterator for LogIter<'_> {
    type Item = ActionRecord;

    fn next(&mut self) -> Option<ActionRecord> {
        if self.i < self.log.len() {
            let r = self.log.get(self.i);
            self.i += 1;
            Some(r)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.log.len() - self.i;
        (left, Some(left))
    }
}

impl ExactSizeIterator for LogIter<'_> {}

impl<'a> IntoIterator for &'a TelemetryLog {
    type Item = ActionRecord;
    type IntoIter = LogIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ActionType, UserClass, UserId};

    fn rec(t_ms: i64, latency: f64) -> ActionRecord {
        ActionRecord {
            time: SimTime(t_ms),
            action: ActionType::SelectMail,
            latency_ms: latency,
            user: UserId(1),
            class: UserClass::Business,
            tz_offset_ms: 0,
            outcome: Outcome::Success,
        }
    }

    #[test]
    fn push_tracks_sortedness() {
        let mut log = TelemetryLog::new();
        assert!(log.is_sorted());
        log.push(rec(10, 1.0)).unwrap();
        log.push(rec(20, 2.0)).unwrap();
        assert!(log.is_sorted());
        log.push(rec(15, 3.0)).unwrap();
        assert!(!log.is_sorted());
        log.ensure_sorted();
        assert!(log.is_sorted());
        let times: Vec<i64> = log.iter().map(|r| r.time.millis()).collect();
        assert_eq!(times, vec![10, 15, 20]);
    }

    #[test]
    fn push_validates() {
        let mut log = TelemetryLog::new();
        assert!(log.push(rec(0, -1.0)).is_err());
        assert!(log.is_empty());
    }

    #[test]
    fn from_records_sorts_and_validates() {
        let log =
            TelemetryLog::from_records(vec![rec(30, 1.0), rec(10, 2.0), rec(20, 3.0)]).unwrap();
        assert!(log.is_sorted());
        assert_eq!(log.len(), 3);
        assert_eq!(log.get(0).time.millis(), 10);
        assert!(TelemetryLog::from_records(vec![rec(0, f64::NAN)]).is_err());
    }

    #[test]
    fn columns_round_trip_records() {
        let records = vec![rec(10, 1.0), rec(20, 2.0), rec(30, 3.0)];
        let log = TelemetryLog::from_records(records.clone()).unwrap();
        assert_eq!(log.to_records(), records);
        assert_eq!(log.columns().times(), &[10, 20, 30]);
        assert_eq!(log.columns().latencies(), &[1.0, 2.0, 3.0]);
        let rebuilt = TelemetryLog::from_columns(log.columns().clone());
        assert_eq!(rebuilt.to_records(), records);
    }

    #[test]
    fn range_selects_half_open_interval() {
        let log =
            TelemetryLog::from_records((0..10).map(|i| rec(i * 10, i as f64)).collect()).unwrap();
        let r = log.range(SimTime(20), SimTime(50)).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.get(0).time.millis(), 20);
        assert_eq!(r.get(2).time.millis(), 40);
        assert_eq!(log.range(SimTime(95), SimTime(200)).unwrap().len(), 0);
        let (lo, hi) = log.range_indices(SimTime(20), SimTime(50)).unwrap();
        assert_eq!((lo, hi), (2, 5));
    }

    #[test]
    fn range_requires_sorted() {
        let mut log = TelemetryLog::new();
        log.push(rec(20, 1.0)).unwrap();
        log.push(rec(10, 1.0)).unwrap();
        assert!(matches!(
            log.range(SimTime(0), SimTime(100)),
            Err(TelemetryError::Unsorted { index: 1 })
        ));
    }

    #[test]
    fn nearest_in_time_basic() {
        let log =
            TelemetryLog::from_records(vec![rec(0, 0.0), rec(100, 1.0), rec(200, 2.0)]).unwrap();
        // Closest to 140 is the record at 100.
        let (lo, hi) = log.nearest_in_time(SimTime(140)).unwrap();
        assert_eq!((lo, hi), (1, 2));
        // Exactly between 100 and 200: both are at distance 50.
        let (lo, hi) = log.nearest_in_time(SimTime(150)).unwrap();
        assert_eq!((lo, hi), (1, 3));
        // Before the first record.
        let (lo, hi) = log.nearest_in_time(SimTime(-50)).unwrap();
        assert_eq!((lo, hi), (0, 1));
        // After the last record.
        let (lo, hi) = log.nearest_in_time(SimTime(10_000)).unwrap();
        assert_eq!((lo, hi), (2, 3));
    }

    #[test]
    fn nearest_in_time_with_duplicate_timestamps() {
        let log = TelemetryLog::from_records(vec![
            rec(100, 1.0),
            rec(100, 2.0),
            rec(100, 3.0),
            rec(300, 4.0),
        ])
        .unwrap();
        // All three records at t=100 tie for nearest.
        let (lo, hi) = log.nearest_in_time(SimTime(120)).unwrap();
        assert_eq!((lo, hi), (0, 3));
        // Exact hit on a timestamp includes only that run.
        let (lo, hi) = log.nearest_in_time(SimTime(100)).unwrap();
        assert_eq!((lo, hi), (0, 3));
        // Equidistant between the runs: both runs tie.
        let (lo, hi) = log.nearest_in_time(SimTime(200)).unwrap();
        assert_eq!((lo, hi), (0, 4));
    }

    #[test]
    fn nearest_in_time_errors() {
        let log = TelemetryLog::new();
        assert!(log.nearest_in_time(SimTime(0)).is_err());
        let mut log = TelemetryLog::new();
        log.push(rec(10, 1.0)).unwrap();
        log.push(rec(5, 1.0)).unwrap();
        assert!(log.nearest_in_time(SimTime(0)).is_err());
    }

    #[test]
    fn nearest_cursor_errors_like_nearest_in_time() {
        assert!(matches!(
            TelemetryLog::new().view().nearest_cursor(),
            Err(TelemetryError::InvalidRecord(_))
        ));
        let mut log = TelemetryLog::new();
        log.push(rec(10, 1.0)).unwrap();
        log.push(rec(5, 1.0)).unwrap();
        assert!(matches!(
            log.view().nearest_cursor(),
            Err(TelemetryError::Unsorted { index: 1 })
        ));
    }

    #[test]
    fn merge_combines_shards_in_time_order() {
        let mut a = TelemetryLog::from_records(vec![rec(0, 1.0), rec(100, 2.0)]).unwrap();
        let b = TelemetryLog::from_records(vec![rec(50, 3.0), rec(150, 4.0)]).unwrap();
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert!(a.is_sorted());
        let times: Vec<i64> = a.iter().map(|r| r.time.millis()).collect();
        assert_eq!(times, vec![0, 50, 100, 150]);
        // Merging an empty log is a no-op.
        a.merge(&TelemetryLog::new());
        assert_eq!(a.len(), 4);
        // Merging into an empty log copies.
        let mut empty = TelemetryLog::new();
        empty.merge(&a);
        assert_eq!(empty.to_records(), a.to_records());
    }

    #[test]
    fn merge_is_stable_on_ties_and_matches_resort() {
        // On equal timestamps, self's records must precede other's — the
        // order append-then-stable-sort produced before the single-pass
        // merge existed.
        let mut a =
            TelemetryLog::from_records(vec![rec(10, 1.0), rec(20, 2.0), rec(20, 3.0)]).unwrap();
        let b = TelemetryLog::from_records(vec![rec(5, 4.0), rec(20, 5.0), rec(30, 6.0)]).unwrap();
        let mut reference = TelemetryLog::new();
        for r in a.iter().chain(b.iter()) {
            reference.push(r).unwrap();
        }
        reference.ensure_sorted();
        a.merge(&b);
        assert_eq!(a.to_records(), reference.to_records());
        // Append fast path: other entirely after self.
        let mut c = TelemetryLog::from_records(vec![rec(0, 1.0), rec(1, 2.0)]).unwrap();
        let d = TelemetryLog::from_records(vec![rec(1, 3.0), rec(2, 4.0)]).unwrap();
        c.merge(&d);
        let lat: Vec<f64> = c.iter().map(|r| r.latency_ms).collect();
        assert_eq!(lat, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn merge_unsorted_fallback_still_sorts() {
        let mut a = TelemetryLog::new();
        a.push(rec(100, 1.0)).unwrap();
        a.push(rec(0, 2.0)).unwrap();
        assert!(!a.is_sorted());
        let b = TelemetryLog::from_records(vec![rec(50, 3.0)]).unwrap();
        a.merge(&b);
        assert!(a.is_sorted());
        let times: Vec<i64> = a.iter().map(|r| r.time.millis()).collect();
        assert_eq!(times, vec![0, 50, 100]);
    }

    #[test]
    fn successes_only_filters_errors() {
        let mut bad = rec(50, 1.0);
        bad.outcome = Outcome::Error;
        let log = TelemetryLog::from_records(vec![rec(0, 1.0), bad, rec(100, 2.0)]).unwrap();
        let ok = log.successes_only();
        assert_eq!(ok.len(), 2);
        assert!(ok.iter().all(|r| r.outcome == Outcome::Success));
    }

    #[test]
    fn start_end_and_series() {
        let log = TelemetryLog::from_records(vec![rec(5, 1.5), rec(15, 2.5)]).unwrap();
        assert_eq!(log.start_time(), Some(SimTime(5)));
        assert_eq!(log.end_time(), Some(SimTime(15)));
        assert_eq!(log.latency_series().unwrap(), vec![(5, 1.5), (15, 2.5)]);
        assert_eq!(TelemetryLog::new().start_time(), None);
    }

    #[test]
    fn unsorted_start_end_still_correct() {
        let mut log = TelemetryLog::new();
        log.push(rec(50, 1.0)).unwrap();
        log.push(rec(10, 1.0)).unwrap();
        assert_eq!(log.start_time(), Some(SimTime(10)));
        assert_eq!(log.end_time(), Some(SimTime(50)));
    }

    #[test]
    fn dedup_exact_removes_only_exact_copies() {
        // Two exact duplicates of the t=10 record, non-adjacent within the
        // equal-time run, plus a same-time record differing in latency.
        let log = TelemetryLog::from_records(vec![
            rec(10, 1.0),
            rec(10, 2.0),
            rec(10, 1.0),
            rec(20, 3.0),
            rec(10, 1.0),
        ])
        .unwrap();
        let mut log = log;
        let removed = log.dedup_exact();
        assert_eq!(removed, 2);
        assert_eq!(log.len(), 3);
        assert!(log.is_sorted());
        let latencies: Vec<f64> = log.iter().map(|r| r.latency_ms).collect();
        assert_eq!(latencies, vec![1.0, 2.0, 3.0]);
        // Unsorted logs dedup too, preserving storage order.
        let mut unsorted = TelemetryLog::new();
        unsorted.push(rec(30, 1.0)).unwrap();
        unsorted.push(rec(10, 1.0)).unwrap();
        unsorted.push(rec(30, 1.0)).unwrap();
        assert_eq!(unsorted.dedup_exact(), 1);
        assert!(!unsorted.is_sorted());
        assert_eq!(unsorted.get(0).time.millis(), 30);
        // A clean log is untouched.
        let mut clean = TelemetryLog::from_records(vec![rec(0, 1.0), rec(5, 2.0)]).unwrap();
        assert_eq!(clean.dedup_exact(), 0);
        assert_eq!(clean.len(), 2);
    }

    #[test]
    fn dedup_exact_par_matches_serial_for_any_thread_count() {
        // Duplicates scattered through equal-time runs across many chunks.
        let mut records: Vec<ActionRecord> = Vec::new();
        for i in 0..5_000i64 {
            records.push(rec(i / 3, (i % 7) as f64 + 1.0));
        }
        // Exact copies of every 10th record.
        for i in (0..5_000i64).step_by(10) {
            records.push(rec(i / 3, (i % 7) as f64 + 1.0));
        }
        let mut serial = TelemetryLog::from_records(records.clone()).unwrap();
        let removed_serial = serial.dedup_exact();
        assert!(removed_serial > 0);
        for threads in [1, 2, 4, 8] {
            let mut par = TelemetryLog::from_records(records.clone()).unwrap();
            let removed = par.dedup_exact_par(threads);
            assert_eq!(removed, removed_serial, "threads={threads}");
            assert_eq!(par.to_records(), serial.to_records(), "threads={threads}");
        }
    }

    #[test]
    fn dedup_exact_par_falls_back_on_unsorted_and_long_runs() {
        // Unsorted: falls back to the serial hash-set pass.
        let mut unsorted = TelemetryLog::new();
        unsorted.push(rec(30, 1.0)).unwrap();
        unsorted.push(rec(10, 1.0)).unwrap();
        unsorted.push(rec(30, 1.0)).unwrap();
        assert_eq!(unsorted.dedup_exact_par(4), 1);
        // One giant equal-timestamp run (beyond the run-scan cap): the
        // fallback still removes the exact duplicates.
        let mut records: Vec<ActionRecord> = (0..600).map(|i| rec(42, i as f64 + 1.0)).collect();
        records.push(rec(42, 1.0));
        let mut log = TelemetryLog::from_records(records).unwrap();
        assert_eq!(log.dedup_exact_par(4), 1);
        assert_eq!(log.len(), 600);
    }

    #[test]
    fn view_dedup_matches_owned_dedup() {
        let mut records: Vec<ActionRecord> = Vec::new();
        for i in 0..1_000i64 {
            records.push(rec(i / 5, (i % 3) as f64));
        }
        for i in (0..1_000i64).step_by(7) {
            records.push(rec(i / 5, (i % 3) as f64));
        }
        let mut owned = TelemetryLog::from_records(records.clone()).unwrap();
        let removed_owned = owned.dedup_exact();
        let log = TelemetryLog::from_records(records).unwrap();
        for threads in [1, 2, 4, 8] {
            let (view, removed) = log.view().dedup_exact_par(threads);
            assert_eq!(removed, removed_owned, "threads={threads}");
            assert_eq!(
                view.materialize().to_records(),
                owned.to_records(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn from_trusted_records_sorts_like_from_records() {
        let records = vec![rec(2000, 5.0), rec(0, 1.0), rec(1000, 2.0)];
        let a = TelemetryLog::from_records(records.clone()).unwrap();
        let b = TelemetryLog::from_trusted_records(records);
        assert!(b.is_sorted());
        assert_eq!(a.to_records(), b.to_records());
    }

    #[test]
    fn into_iterator_works() {
        let log = TelemetryLog::from_records(vec![rec(0, 1.0), rec(10, 2.0)]).unwrap();
        let total: f64 = (&log).into_iter().map(|r| r.latency_ms).sum();
        assert_eq!(total, 3.0);
    }

    #[test]
    fn view_selection_and_accessors() {
        let log =
            TelemetryLog::from_records((0..10).map(|i| rec(i * 10, i as f64)).collect()).unwrap();
        let full = log.view();
        assert_eq!(full.len(), 10);
        assert!(full.is_sorted());
        assert_eq!(full.time_at(3), 30);
        assert_eq!(full.get(3), log.get(3));
        // Select even storage rows.
        let sel: Vec<u32> = (0..10).filter(|i| i % 2 == 0).collect();
        let even = full.with_selection(sel);
        assert_eq!(even.len(), 5);
        assert_eq!(even.time_at(2), 40);
        assert_eq!(even.row(2), 4);
        assert!(even.is_sorted());
        // Sub-range of a selected view.
        let mid = even.range(SimTime(20), SimTime(80)).unwrap();
        let times: Vec<i64> = mid.iter().map(|r| r.time.millis()).collect();
        assert_eq!(times, vec![20, 40, 60]);
        // nearest_in_time works in view coordinates.
        let (lo, hi) = even.nearest_in_time(SimTime(45)).unwrap();
        assert_eq!((lo, hi), (2, 3));
        // Materialize copies exactly the selected rows.
        let owned = even.materialize();
        assert_eq!(owned.len(), 5);
        assert_eq!(owned.get(1).time.millis(), 20);
        // Borrowed reborrow sees the same rows.
        let re = even.borrowed();
        assert_eq!(re.len(), even.len());
        assert_eq!(re.latency_series().unwrap(), even.latency_series().unwrap());
    }

    #[test]
    fn view_start_end_and_run_length() {
        let log = TelemetryLog::from_records(vec![
            rec(10, 1.0),
            rec(10, 2.0),
            rec(20, 3.0),
            rec(20, 4.0),
            rec(20, 5.0),
        ])
        .unwrap();
        let v = log.view();
        assert_eq!(v.start_time(), Some(SimTime(10)));
        assert_eq!(v.end_time(), Some(SimTime(20)));
        assert_eq!(v.max_equal_time_run(), 3);
        let sel = v.with_selection(vec![0, 2, 3]);
        assert_eq!(sel.max_equal_time_run(), 2);
    }
}
