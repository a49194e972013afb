//! Composable record filters for the paper's analysis slices.
//!
//! The evaluation slices data by action type (§3.2), user class (§3.3),
//! per-user latency quartile (§3.4), local-time day period (§3.6), and
//! calendar month (§3.7). A [`Slice`] expresses any conjunction of these.
//! [`Slice::select`] narrows a [`LogView`] to the matching rows without
//! copying one; [`Slice::apply`] materializes the matching sub-log.

use std::collections::HashSet;

use crate::log::{LogView, TelemetryLog};
use crate::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
use crate::time::{DayPeriod, Month, SimTime};

/// A conjunction of record predicates. Unset fields match everything.
///
/// ```
/// use autosens_telemetry::query::Slice;
/// use autosens_telemetry::record::{ActionType, UserClass};
/// use autosens_telemetry::time::Month;
///
/// // The slice behind the paper's Figure 4: business SelectMail in February.
/// let slice = Slice::all()
///     .action(ActionType::SelectMail)
///     .class(UserClass::Business)
///     .month(Month::Feb)
///     .successes();
/// # let _ = slice;
/// ```
#[derive(Debug, Clone, Default)]
pub struct Slice {
    action: Option<ActionType>,
    class: Option<UserClass>,
    period: Option<DayPeriod>,
    month: Option<Month>,
    users: Option<HashSet<UserId>>,
    tz_offset_ms: Option<i64>,
    successes_only: bool,
}

impl Slice {
    /// The match-everything slice.
    pub fn all() -> Slice {
        Slice::default()
    }

    /// Restrict to one action type.
    pub fn action(mut self, action: ActionType) -> Slice {
        self.action = Some(action);
        self
    }

    /// Restrict to one user class.
    pub fn class(mut self, class: UserClass) -> Slice {
        self.class = Some(class);
        self
    }

    /// Restrict to one local-time day period.
    pub fn period(mut self, period: DayPeriod) -> Slice {
        self.period = Some(period);
        self
    }

    /// Restrict to one local calendar month.
    pub fn month(mut self, month: Month) -> Slice {
        self.month = Some(month);
        self
    }

    /// Restrict to a set of users (e.g. one median-latency quartile).
    pub fn users(mut self, users: HashSet<UserId>) -> Slice {
        self.users = Some(users);
        self
    }

    /// Restrict to users in one timezone region (offset in whole hours) —
    /// the equivalent of the paper's per-country slices. Analyses that use
    /// the α-correction should always run on a single region so the
    /// confounder slots share a clock.
    pub fn tz_offset_hours(mut self, hours: i64) -> Slice {
        self.tz_offset_ms = Some(hours * crate::time::MS_PER_HOUR);
        self
    }

    /// Restrict to successful actions (the paper's default).
    pub fn successes(mut self) -> Slice {
        self.successes_only = true;
        self
    }

    /// Whether a record matches every set predicate.
    pub fn matches(&self, r: &ActionRecord) -> bool {
        if let Some(a) = self.action {
            if r.action != a {
                return false;
            }
        }
        if let Some(c) = self.class {
            if r.class != c {
                return false;
            }
        }
        if let Some(p) = self.period {
            if r.day_period() != p {
                return false;
            }
        }
        if let Some(m) = self.month {
            if r.month() != m {
                return false;
            }
        }
        if let Some(users) = &self.users {
            if !users.contains(&r.user) {
                return false;
            }
        }
        if let Some(tz) = self.tz_offset_ms {
            if r.tz_offset_ms != tz {
                return false;
            }
        }
        if self.successes_only && r.outcome != Outcome::Success {
            return false;
        }
        true
    }

    /// Column-wise [`Slice::matches`] against view row `i` (which may sit
    /// behind a selection vector): no record is materialized, and each
    /// unset predicate touches zero columns. This is the form every
    /// selection uses, including the zero-copy ingest path's — mapped
    /// containers produce a [`LogView`] with no owned columns behind it.
    pub fn matches_view(&self, view: &LogView<'_>, i: usize) -> bool {
        if let Some(a) = self.action {
            if view.action_at(i) != a.code() {
                return false;
            }
        }
        if let Some(c) = self.class {
            if view.class_at(i) != c.code() {
                return false;
            }
        }
        if let Some(p) = self.period {
            if SimTime(view.time_at(i)).day_period_local(view.tz_offset_at(i)) != p {
                return false;
            }
        }
        if let Some(m) = self.month {
            if SimTime(view.time_at(i)).month_local(view.tz_offset_at(i)) != m {
                return false;
            }
        }
        if let Some(users) = &self.users {
            if !users.contains(&UserId(view.user_at(i))) {
                return false;
            }
        }
        if let Some(tz) = self.tz_offset_ms {
            if view.tz_offset_at(i) != tz {
                return false;
            }
        }
        if self.successes_only && view.outcome_at(i) != Outcome::Success.code() {
            return false;
        }
        true
    }

    /// Whether every predicate is unset (the slice matches all records).
    fn is_unrestricted(&self) -> bool {
        self.action.is_none()
            && self.class.is_none()
            && self.period.is_none()
            && self.month.is_none()
            && self.users.is_none()
            && self.tz_offset_ms.is_none()
            && !self.successes_only
    }

    /// The zero-copy sub-view of `view`'s rows matching every predicate,
    /// in view order: builds a selection vector of row indices (or none at
    /// all for the match-everything slice) and copies no rows. Selection
    /// indices are *storage* indices (mapped through any existing
    /// selection), so the result composes with further narrowing. This is
    /// the currency the analysis pipeline computes over; [`Slice::apply`]
    /// is the materializing escape hatch.
    pub fn select<'a>(&self, view: &LogView<'a>) -> LogView<'a> {
        if self.is_unrestricted() {
            return view.clone();
        }
        let sel: Vec<u32> = (0..view.len())
            .filter(|&i| self.matches_view(view, i))
            .map(|i| view.row(i) as u32)
            .collect();
        view.with_selection(sel)
    }

    /// Chunked [`Slice::select`]: build the selection vector as a
    /// data-parallel job and concatenate the per-chunk indices in chunk
    /// order (chunk boundaries depend only on the view length, so the
    /// result is identical to `select` for every thread count). Returns the
    /// view plus the scheduler's [`autosens_exec::ExecReport`] so callers
    /// can record per-worker spans.
    pub fn select_par<'a>(
        &self,
        view: &LogView<'a>,
        threads: usize,
    ) -> Result<(LogView<'a>, autosens_exec::ExecReport), autosens_exec::ExecError> {
        let n = view.len();
        let v = view.borrowed();
        let (parts, report) = autosens_exec::run_chunks(
            "slice_filter",
            n,
            autosens_exec::scan_chunk_size_for(n),
            threads,
            |_, range| -> Vec<u32> {
                range
                    .filter(|&i| self.matches_view(&v, i))
                    .map(|i| v.row(i) as u32)
                    .collect()
            },
        )?;
        Ok((view.with_selection(parts.concat()), report))
    }

    /// Materialize the matching sub-log (order preserved, so a sorted input
    /// yields a sorted output). Copies every matching row — analyses should
    /// prefer [`Slice::select`].
    pub fn apply(&self, log: &TelemetryLog) -> TelemetryLog {
        self.select(&log.view()).materialize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn rec(
        t_ms: i64,
        action: ActionType,
        class: UserClass,
        user: u64,
        outcome: Outcome,
    ) -> ActionRecord {
        ActionRecord {
            time: SimTime(t_ms),
            action,
            latency_ms: 100.0,
            user: UserId(user),
            class,
            tz_offset_ms: 0,
            outcome,
        }
    }

    fn sample_log() -> TelemetryLog {
        use crate::time::{MS_PER_DAY, MS_PER_HOUR};
        TelemetryLog::from_records(vec![
            // Jan, 10:00 (Morning), business SelectMail success.
            rec(
                10 * MS_PER_HOUR,
                ActionType::SelectMail,
                UserClass::Business,
                1,
                Outcome::Success,
            ),
            // Jan, 03:00 (Night), consumer Search success.
            rec(
                MS_PER_DAY + 3 * MS_PER_HOUR,
                ActionType::Search,
                UserClass::Consumer,
                2,
                Outcome::Success,
            ),
            // Feb (day 35), 15:00 (Afternoon), business SelectMail error.
            rec(
                35 * MS_PER_DAY + 15 * MS_PER_HOUR,
                ActionType::SelectMail,
                UserClass::Business,
                1,
                Outcome::Error,
            ),
            // Feb, 21:00 (Evening), consumer SelectMail success.
            rec(
                40 * MS_PER_DAY + 21 * MS_PER_HOUR,
                ActionType::SelectMail,
                UserClass::Consumer,
                3,
                Outcome::Success,
            ),
        ])
        .unwrap()
    }

    #[test]
    fn all_matches_everything() {
        let log = sample_log();
        assert_eq!(Slice::all().apply(&log).len(), 4);
    }

    #[test]
    fn filter_by_action() {
        let log = sample_log();
        let s = Slice::all().action(ActionType::SelectMail).apply(&log);
        assert_eq!(s.len(), 3);
        let s = Slice::all().action(ActionType::ComposeSend).apply(&log);
        assert!(s.is_empty());
    }

    #[test]
    fn filter_by_class_and_success() {
        let log = sample_log();
        let s = Slice::all().class(UserClass::Business).apply(&log);
        assert_eq!(s.len(), 2);
        let s = Slice::all()
            .class(UserClass::Business)
            .successes()
            .apply(&log);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn filter_by_period_and_month() {
        let log = sample_log();
        let s = Slice::all().period(DayPeriod::Night2to8).apply(&log);
        assert_eq!(s.len(), 1);
        assert_eq!(s.view().get(0).action, ActionType::Search);
        let s = Slice::all().month(Month::Feb).apply(&log);
        assert_eq!(s.len(), 2);
        let s = Slice::all()
            .month(Month::Feb)
            .period(DayPeriod::Evening20to2)
            .apply(&log);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn filter_by_user_set() {
        let log = sample_log();
        let mut users = HashSet::new();
        users.insert(UserId(1));
        users.insert(UserId(3));
        let s = Slice::all().users(users).apply(&log);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn conjunction_of_everything() {
        let log = sample_log();
        let mut users = HashSet::new();
        users.insert(UserId(1));
        let s = Slice::all()
            .action(ActionType::SelectMail)
            .class(UserClass::Business)
            .month(Month::Jan)
            .period(DayPeriod::Morning8to14)
            .users(users)
            .successes()
            .apply(&log);
        assert_eq!(s.len(), 1);
        assert_eq!(s.view().get(0).time.millis(), 10 * crate::time::MS_PER_HOUR);
    }

    #[test]
    fn filter_by_timezone_region() {
        use crate::time::MS_PER_HOUR;
        let mut east = rec(
            0,
            ActionType::SelectMail,
            UserClass::Business,
            1,
            Outcome::Success,
        );
        east.tz_offset_ms = -5 * MS_PER_HOUR;
        let west = rec(
            1000,
            ActionType::SelectMail,
            UserClass::Business,
            2,
            Outcome::Success,
        );
        let log = TelemetryLog::from_records(vec![east, west]).unwrap();
        let s = Slice::all().tz_offset_hours(-5).apply(&log);
        assert_eq!(s.len(), 1);
        assert_eq!(s.view().get(0).user.0, 1);
        let s = Slice::all().tz_offset_hours(0).apply(&log);
        assert_eq!(s.len(), 1);
        assert_eq!(s.view().get(0).user.0, 2);
        assert!(Slice::all().tz_offset_hours(3).apply(&log).is_empty());
    }

    #[test]
    fn select_matches_apply_and_the_record_filter() {
        let log = sample_log();
        let slices = [
            Slice::all(),
            Slice::all().action(ActionType::SelectMail).successes(),
            Slice::all().class(UserClass::Consumer),
            Slice::all()
                .month(Month::Feb)
                .period(DayPeriod::Evening20to2),
        ];
        for slice in &slices {
            let via_filter: Vec<ActionRecord> =
                log.view().iter().filter(|r| slice.matches(r)).collect();
            let view = slice.select(&log.view());
            let via_view: Vec<ActionRecord> = view.iter().collect();
            assert_eq!(via_view, via_filter);
            assert_eq!(
                view.materialize().to_records(),
                slice.apply(&log).to_records()
            );
            for threads in [1, 2, 4, 8] {
                let (par, report) = slice.select_par(&log.view(), threads).unwrap();
                let via_par: Vec<ActionRecord> = par.iter().collect();
                assert_eq!(via_par, via_filter, "threads={threads}");
                assert_eq!(report.n_items, log.len());
            }
        }
    }

    #[test]
    fn select_composes_with_existing_selection() {
        let log = sample_log();
        let full = log.view();
        let slice = Slice::all().action(ActionType::SelectMail);
        // Narrow a pre-selected view; indices stay in storage coordinates.
        let pre = full.with_selection(vec![0, 2, 3]);
        let expect: Vec<ActionRecord> = pre.iter().filter(|r| slice.matches(r)).collect();
        let narrowed = slice.select(&pre);
        assert_eq!(narrowed.iter().collect::<Vec<_>>(), expect);
        assert_eq!(narrowed.row(0), 0);
        for threads in [1, 4] {
            let (par, _) = slice.select_par(&pre, threads).unwrap();
            assert_eq!(par.iter().collect::<Vec<_>>(), expect, "threads={threads}");
        }
        // Unrestricted slice returns the view unchanged.
        assert_eq!(Slice::all().select(&pre).len(), pre.len());
    }

    #[test]
    fn apply_preserves_order_and_sortedness() {
        let log = sample_log();
        let s = Slice::all().action(ActionType::SelectMail).apply(&log);
        assert!(s.is_sorted());
        let times: Vec<i64> = s.view().iter().map(|r| r.time.millis()).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
    }
}
