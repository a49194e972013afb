//! [`TelemetryLog`] owns a validated, time-sorted, *columnar* store of
//! action records; [`LogView`] reads it. The roles are split on purpose:
//! the log is what building, appending, sorting and merging rows needs,
//! and every row query — range, nearest-in-time, span, dedup, selection,
//! iteration — is a view method, so an owned log, a stream engine's row
//! store ([`ColumnStore::view`]) and a memory-mapped container all answer
//! them through one code path.
//!
//! The unbiased-distribution estimator needs fast nearest-in-time lookups,
//! so the log maintains a sorted-by-time invariant. Appends may arrive out
//! of order (e.g. merged shards); the log tracks sortedness and
//! `ensure_sorted` performs a stable sort on demand.
//!
//! [`LogView::nearest_in_time`] answers one nearest-sample query with
//! three binary searches and returns *every* row at the minimal distance,
//! so callers can break ties. It is the serial estimators' lookup; the
//! chunked estimators resolve their draws through a table of the cells on
//! which its answer is constant (`autosens_core::unbiased::CellTable`),
//! which it checks in tests.
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

    /// The zero-copy view of every row, in storage order. `sorted` says
    /// whether the time column is non-decreasing; the store does not know,
    /// so its owner ([`TelemetryLog`], the stream engine) passes what it
    /// tracks.
    pub fn view(&self, sorted: bool) -> LogView<'_> {
        LogView {
            time_ms: &self.time_ms,
            latency_ms: &self.latency_ms,
            action: &self.action,
            user: &self.user,
            class: &self.class,
            tz_offset_ms: &self.tz_offset_ms,
            outcome: &self.outcome,
            sel: None,
            sorted,
        }
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

/// What makes two rows exact duplicates: every field equal, latency
/// compared by its bits. This is the one definition of an exact duplicate;
/// batch dedup ([`LogView::dedup_exact_par`]), the stream engine's insert
/// and the quality audit all compare rows through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowKey {
    time_ms: i64,
    action: u8,
    latency_bits: u64,
    user: u64,
    class: u8,
    tz_offset_ms: i64,
    outcome: u8,
}

impl From<&ActionRecord> for RowKey {
    fn from(r: &ActionRecord) -> RowKey {
        RowKey {
            time_ms: r.time.millis(),
            action: r.action.code(),
            latency_bits: r.latency_ms.to_bits(),
            user: r.user.0,
            class: r.class.code(),
            tz_offset_ms: r.tz_offset_ms,
            outcome: r.outcome.code(),
        }
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
    /// Build a full (unselected) view over seven raw column slices — the
    /// zero-copy entry point for memory-mapped container columns, which
    /// never pass through a [`ColumnStore`] (owners of a store hand out
    /// [`ColumnStore::view`] instead). Errors unless every slice has
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

    /// The exact-duplicate identity of view row `i`.
    #[inline]
    pub fn row_key(&self, i: usize) -> RowKey {
        let r = self.row(i);
        RowKey {
            time_ms: self.time_ms[r],
            action: self.action[r],
            latency_bits: self.latency_ms[r].to_bits(),
            user: self.user[r],
            class: self.class[r],
            tz_offset_ms: self.tz_offset_ms[r],
            outcome: self.outcome[r],
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
        self.require_sorted()?;
        if self.is_empty() {
            return Err(TelemetryError::InvalidRecord(
                "nearest_in_time on empty log".into(),
            ));
        }
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

    /// Drop exact duplicate rows (see [`RowKey`]), keeping the first of
    /// each in view order and shrinking the selection — no rows are
    /// copied. Returns the deduplicated view and how many rows were
    /// dropped. The result is the same for every thread count: an
    /// unsorted view, or one with an equal-timestamp run too long to scan,
    /// takes a serial hash-set pass (a condition on the data, never on
    /// `threads`).
    pub fn dedup_exact_par(&self, threads: usize) -> (LogView<'a>, usize) {
        const MAX_RUN: usize = 256;
        let n = self.len();
        if !self.sorted || self.max_equal_time_run() > MAX_RUN {
            // Serial hash-set pass, keep-first in view order.
            let mut seen = std::collections::HashSet::with_capacity(n);
            let mut keep: Vec<u32> = Vec::with_capacity(n);
            for i in 0..n {
                if seen.insert(self.row_key(i)) {
                    keep.push(self.row(i) as u32);
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
        // equal timestamps. A row with no equal-time predecessor reads the
        // time column only; the backward walk stops at the first repeat.
        // Each chunk decides its rows independently (backward scans may
        // read across a chunk boundary, which is safe on the shared
        // columns) and duplicate indices concatenate in chunk order —
        // identical to the serial pass for any thread count.
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
                    if i == 0 || view.time_at(i - 1) != t {
                        continue;
                    }
                    let key = view.row_key(i);
                    let mut j = i;
                    while j > 0 && view.time_at(j - 1) == t {
                        j -= 1;
                        if view.row_key(j) == key {
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

/// A collection of action records with a maintained time order, stored
/// columnar. The log owns its rows; queries over them go through
/// [`TelemetryLog::view`].
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
/// let view = log.view();
/// assert_eq!(view.range(SimTime(0), SimTime(1000)).unwrap().len(), 1);
/// let (lo, hi) = view.nearest_in_time(SimTime(1500)).unwrap();
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

    /// The zero-copy view of every row (storage order): the API for every
    /// row query.
    pub fn view(&self) -> LogView<'_> {
        self.cols.view(self.sorted)
    }

    /// Materialize all records in storage order (codec/checkpoint boundary
    /// only — this copies every row). Time-ordered iff [`Self::is_sorted`].
    pub fn to_records(&self) -> Vec<ActionRecord> {
        self.cols.to_records()
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
        let times: Vec<i64> = log.view().iter().map(|r| r.time.millis()).collect();
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
        assert_eq!(log.view().get(0).time.millis(), 10);
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
        let view = log.view();
        let r = view.range(SimTime(20), SimTime(50)).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.get(0).time.millis(), 20);
        assert_eq!(r.get(2).time.millis(), 40);
        assert_eq!(view.range(SimTime(95), SimTime(200)).unwrap().len(), 0);
        let (lo, hi) = view.range_indices(SimTime(20), SimTime(50)).unwrap();
        assert_eq!((lo, hi), (2, 5));
    }

    #[test]
    fn range_requires_sorted() {
        let mut log = TelemetryLog::new();
        log.push(rec(20, 1.0)).unwrap();
        log.push(rec(10, 1.0)).unwrap();
        assert!(matches!(
            log.view().range(SimTime(0), SimTime(100)),
            Err(TelemetryError::Unsorted { index: 1 })
        ));
    }

    #[test]
    fn nearest_in_time_basic() {
        let log =
            TelemetryLog::from_records(vec![rec(0, 0.0), rec(100, 1.0), rec(200, 2.0)]).unwrap();
        // Closest to 140 is the record at 100.
        let (lo, hi) = log.view().nearest_in_time(SimTime(140)).unwrap();
        assert_eq!((lo, hi), (1, 2));
        // Exactly between 100 and 200: both are at distance 50.
        let (lo, hi) = log.view().nearest_in_time(SimTime(150)).unwrap();
        assert_eq!((lo, hi), (1, 3));
        // Before the first record.
        let (lo, hi) = log.view().nearest_in_time(SimTime(-50)).unwrap();
        assert_eq!((lo, hi), (0, 1));
        // After the last record.
        let (lo, hi) = log.view().nearest_in_time(SimTime(10_000)).unwrap();
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
        let (lo, hi) = log.view().nearest_in_time(SimTime(120)).unwrap();
        assert_eq!((lo, hi), (0, 3));
        // Exact hit on a timestamp includes only that run.
        let (lo, hi) = log.view().nearest_in_time(SimTime(100)).unwrap();
        assert_eq!((lo, hi), (0, 3));
        // Equidistant between the runs: both runs tie.
        let (lo, hi) = log.view().nearest_in_time(SimTime(200)).unwrap();
        assert_eq!((lo, hi), (0, 4));
    }

    #[test]
    fn nearest_in_time_errors() {
        let log = TelemetryLog::new();
        assert!(log.view().nearest_in_time(SimTime(0)).is_err());
        let mut log = TelemetryLog::new();
        log.push(rec(10, 1.0)).unwrap();
        log.push(rec(5, 1.0)).unwrap();
        assert!(log.view().nearest_in_time(SimTime(0)).is_err());
    }

    #[test]
    fn merge_combines_shards_in_time_order() {
        let mut a = TelemetryLog::from_records(vec![rec(0, 1.0), rec(100, 2.0)]).unwrap();
        let b = TelemetryLog::from_records(vec![rec(50, 3.0), rec(150, 4.0)]).unwrap();
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert!(a.is_sorted());
        let times: Vec<i64> = a.view().iter().map(|r| r.time.millis()).collect();
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
        for r in a.to_records().into_iter().chain(b.to_records()) {
            reference.push(r).unwrap();
        }
        reference.ensure_sorted();
        a.merge(&b);
        assert_eq!(a.to_records(), reference.to_records());
        // Append fast path: other entirely after self.
        let mut c = TelemetryLog::from_records(vec![rec(0, 1.0), rec(1, 2.0)]).unwrap();
        let d = TelemetryLog::from_records(vec![rec(1, 3.0), rec(2, 4.0)]).unwrap();
        c.merge(&d);
        let lat: Vec<f64> = c.view().iter().map(|r| r.latency_ms).collect();
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
        let times: Vec<i64> = a.view().iter().map(|r| r.time.millis()).collect();
        assert_eq!(times, vec![0, 50, 100]);
    }

    #[test]
    fn start_end_and_series() {
        let log = TelemetryLog::from_records(vec![rec(5, 1.5), rec(15, 2.5)]).unwrap();
        let view = log.view();
        assert_eq!(view.start_time(), Some(SimTime(5)));
        assert_eq!(view.end_time(), Some(SimTime(15)));
        assert_eq!(view.latency_series().unwrap(), vec![(5, 1.5), (15, 2.5)]);
        assert_eq!(TelemetryLog::new().view().start_time(), None);
    }

    #[test]
    fn unsorted_start_end_still_correct() {
        let mut log = TelemetryLog::new();
        log.push(rec(50, 1.0)).unwrap();
        log.push(rec(10, 1.0)).unwrap();
        assert_eq!(log.view().start_time(), Some(SimTime(10)));
        assert_eq!(log.view().end_time(), Some(SimTime(50)));
    }

    /// The test oracle for exact dedup: one keep-first hash-set pass over
    /// the records in order.
    fn keep_first(records: &[ActionRecord]) -> Vec<ActionRecord> {
        let mut seen = std::collections::HashSet::new();
        records
            .iter()
            .filter(|r| {
                seen.insert((
                    r.time,
                    r.action,
                    r.latency_ms.to_bits(),
                    r.user,
                    r.class,
                    r.tz_offset_ms,
                    r.outcome,
                ))
            })
            .copied()
            .collect()
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
        let (deduped, removed) = log.view().dedup_exact_par(1);
        assert_eq!(removed, 2);
        assert_eq!(deduped.len(), 3);
        assert!(deduped.is_sorted());
        let latencies: Vec<f64> = deduped.iter().map(|r| r.latency_ms).collect();
        assert_eq!(latencies, vec![1.0, 2.0, 3.0]);
        // Unsorted views dedup too, preserving storage order.
        let mut unsorted = TelemetryLog::new();
        unsorted.push(rec(30, 1.0)).unwrap();
        unsorted.push(rec(10, 1.0)).unwrap();
        unsorted.push(rec(30, 1.0)).unwrap();
        let (deduped, removed) = unsorted.view().dedup_exact_par(1);
        assert_eq!(removed, 1);
        assert!(!deduped.is_sorted());
        assert_eq!(deduped.get(0).time.millis(), 30);
        // A clean log is untouched.
        let clean = TelemetryLog::from_records(vec![rec(0, 1.0), rec(5, 2.0)]).unwrap();
        let (deduped, removed) = clean.view().dedup_exact_par(1);
        assert_eq!(removed, 0);
        assert_eq!(deduped.len(), 2);
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
        let log = TelemetryLog::from_records(records).unwrap();
        let expect = keep_first(&log.to_records());
        assert!(expect.len() < log.len());
        for threads in [1, 2, 4, 8] {
            let (deduped, removed) = log.view().dedup_exact_par(threads);
            assert_eq!(removed, log.len() - expect.len(), "threads={threads}");
            assert_eq!(
                deduped.materialize().to_records(),
                expect,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn dedup_exact_par_falls_back_on_unsorted_and_long_runs() {
        // Unsorted: falls back to the serial hash-set pass.
        let mut unsorted = TelemetryLog::new();
        unsorted.push(rec(30, 1.0)).unwrap();
        unsorted.push(rec(10, 1.0)).unwrap();
        unsorted.push(rec(30, 1.0)).unwrap();
        assert_eq!(unsorted.view().dedup_exact_par(4).1, 1);
        // One giant equal-timestamp run (beyond the run-scan cap): the
        // fallback still removes the exact duplicates.
        let mut records: Vec<ActionRecord> = (0..600).map(|i| rec(42, i as f64 + 1.0)).collect();
        records.push(rec(42, 1.0));
        let log = TelemetryLog::from_records(records).unwrap();
        let (deduped, removed) = log.view().dedup_exact_par(4);
        assert_eq!(removed, 1);
        assert_eq!(deduped.len(), 600);
    }

    #[test]
    fn view_dedup_matches_keep_first_oracle() {
        let mut records: Vec<ActionRecord> = Vec::new();
        for i in 0..1_000i64 {
            records.push(rec(i / 5, (i % 3) as f64));
        }
        for i in (0..1_000i64).step_by(7) {
            records.push(rec(i / 5, (i % 3) as f64));
        }
        let log = TelemetryLog::from_records(records).unwrap();
        let expect = keep_first(&log.to_records());
        for threads in [1, 2, 4, 8] {
            let (view, removed) = log.view().dedup_exact_par(threads);
            assert_eq!(removed, log.len() - expect.len(), "threads={threads}");
            assert_eq!(view.materialize().to_records(), expect, "threads={threads}");
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
    fn view_selection_and_accessors() {
        let log =
            TelemetryLog::from_records((0..10).map(|i| rec(i * 10, i as f64)).collect()).unwrap();
        let full = log.view();
        assert_eq!(full.len(), 10);
        assert!(full.is_sorted());
        assert_eq!(full.time_at(3), 30);
        assert_eq!(full.get(3), log.to_records()[3]);
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
        assert_eq!(owned.view().get(1).time.millis(), 20);
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
