//! Per-user aggregates and the §3.4 conditioning quartiles.
//!
//! The paper groups users into quartiles by their per-user *median* latency
//! (computed from an anonymized identifier, never analyzing individuals) and
//! compares latency sensitivity across the quartiles. This module computes
//! per-user summaries and quartile assignments from a log.

use std::collections::{HashMap, HashSet};

use autosens_stats::descriptive;

use crate::log::LogView;
use crate::record::UserId;

/// Aggregate statistics for one user.
#[derive(Debug, Clone, PartialEq)]
pub struct UserStats {
    /// The anonymized user id.
    pub user: UserId,
    /// Number of (matching) actions.
    pub n_actions: usize,
    /// Median latency over the user's actions.
    pub median_latency_ms: f64,
    /// Mean latency over the user's actions.
    pub mean_latency_ms: f64,
}

/// Compute per-user statistics over a view (or any pre-sliced selection).
/// Users with fewer than `min_actions` records are excluded — medians of a
/// handful of samples are too noisy to condition on.
pub fn per_user_stats(log: &LogView<'_>, min_actions: usize) -> Vec<UserStats> {
    let mut latencies: HashMap<UserId, Vec<f64>> = HashMap::new();
    for i in 0..log.len() {
        latencies
            .entry(UserId(log.user_at(i)))
            .or_default()
            .push(log.latency_at(i));
    }
    let mut out: Vec<UserStats> = latencies
        .into_iter()
        .filter(|(_, v)| v.len() >= min_actions.max(1))
        .map(|(user, v)| {
            let median = descriptive::median(&v).expect("non-empty by filter");
            let mean = descriptive::mean(&v).expect("non-empty by filter");
            UserStats {
                user,
                n_actions: v.len(),
                median_latency_ms: median,
                mean_latency_ms: mean,
            }
        })
        .collect();
    // Deterministic order for reproducible downstream grouping.
    out.sort_by_key(|s| s.user);
    out
}

/// Quartile groups of users by median latency: `groups[0]` = Q1 (fastest)
/// through `groups[3]` = Q4 (slowest).
#[derive(Debug, Clone)]
pub struct LatencyQuartiles {
    /// User sets for Q1..Q4.
    pub groups: [HashSet<UserId>; 4],
    /// The three median-latency cut points between the quartiles.
    pub cuts: [f64; 3],
}

impl LatencyQuartiles {
    /// Which quartile (0..4) a user belongs to, if any.
    pub fn quartile_of(&self, user: UserId) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&user))
    }

    /// Paper-style label for quartile index 0..4.
    pub fn label(q: usize) -> &'static str {
        ["Q1 (fastest)", "Q2", "Q3", "Q4 (slowest)"][q]
    }
}

/// Split users into quartiles by per-user median latency (§3.4).
///
/// Users are sorted by median latency and cut into four equal-count groups
/// (the last group absorbs the remainder). Returns `None` when fewer than 4
/// eligible users exist.
pub fn latency_quartiles(log: &LogView<'_>, min_actions: usize) -> Option<LatencyQuartiles> {
    let mut stats = per_user_stats(log, min_actions);
    if stats.len() < 4 {
        return None;
    }
    stats.sort_by(|a, b| {
        a.median_latency_ms
            .partial_cmp(&b.median_latency_ms)
            .expect("latencies validated finite")
            .then(a.user.cmp(&b.user))
    });
    let n = stats.len();
    let mut groups: [HashSet<UserId>; 4] = Default::default();
    for (i, s) in stats.iter().enumerate() {
        // Equal-count split: index i belongs to quartile floor(4i/n).
        let q = (4 * i / n).min(3);
        groups[q].insert(s.user);
    }
    let cut = |k: usize| stats[(n * k / 4).min(n - 1)].median_latency_ms;
    Some(LatencyQuartiles {
        groups,
        cuts: [cut(1), cut(2), cut(3)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::TelemetryLog;
    use crate::record::{ActionRecord, ActionType, Outcome, UserClass};
    use crate::time::SimTime;

    fn rec(t_ms: i64, user: u64, latency: f64) -> ActionRecord {
        ActionRecord {
            time: SimTime(t_ms),
            action: ActionType::SelectMail,
            latency_ms: latency,
            user: UserId(user),
            class: UserClass::Consumer,
            tz_offset_ms: 0,
            outcome: Outcome::Success,
        }
    }

    /// A log where user u's latencies are all `100 * u`.
    fn log_with_users(n_users: u64, actions_each: usize) -> TelemetryLog {
        let mut records = Vec::new();
        let mut t = 0;
        for u in 1..=n_users {
            for _ in 0..actions_each {
                records.push(rec(t, u, 100.0 * u as f64));
                t += 1000;
            }
        }
        TelemetryLog::from_records(records).unwrap()
    }

    #[test]
    fn per_user_stats_computes_medians() {
        let log = TelemetryLog::from_records(vec![
            rec(0, 1, 100.0),
            rec(1, 1, 300.0),
            rec(2, 1, 200.0),
            rec(3, 2, 50.0),
        ])
        .unwrap();
        let stats = per_user_stats(&log.view(), 1);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].user, UserId(1));
        assert_eq!(stats[0].n_actions, 3);
        assert_eq!(stats[0].median_latency_ms, 200.0);
        assert_eq!(stats[0].mean_latency_ms, 200.0);
        assert_eq!(stats[1].median_latency_ms, 50.0);
    }

    #[test]
    fn per_user_stats_respects_min_actions() {
        let log =
            TelemetryLog::from_records(vec![rec(0, 1, 100.0), rec(1, 1, 100.0), rec(2, 2, 50.0)])
                .unwrap();
        let stats = per_user_stats(&log.view(), 2);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].user, UserId(1));
        // min_actions = 0 is treated as 1.
        assert_eq!(per_user_stats(&log.view(), 0).len(), 2);
    }

    #[test]
    fn quartiles_split_evenly() {
        let log = log_with_users(8, 3);
        let q = latency_quartiles(&log.view(), 1).unwrap();
        for g in &q.groups {
            assert_eq!(g.len(), 2);
        }
        // Users 1,2 (fastest) in Q1; users 7,8 in Q4.
        assert_eq!(q.quartile_of(UserId(1)), Some(0));
        assert_eq!(q.quartile_of(UserId(2)), Some(0));
        assert_eq!(q.quartile_of(UserId(7)), Some(3));
        assert_eq!(q.quartile_of(UserId(8)), Some(3));
        assert_eq!(q.quartile_of(UserId(99)), None);
        // Cut points are increasing.
        assert!(q.cuts[0] < q.cuts[1] && q.cuts[1] < q.cuts[2]);
    }

    #[test]
    fn quartiles_handle_remainders() {
        let log = log_with_users(10, 1);
        let q = latency_quartiles(&log.view(), 1).unwrap();
        let sizes: Vec<usize> = q.groups.iter().map(|g| g.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        // floor(4i/10) splits as 3/2/3/2.
        assert_eq!(sizes, vec![3, 2, 3, 2]);
    }

    #[test]
    fn quartiles_need_at_least_four_users() {
        let log = log_with_users(3, 5);
        assert!(latency_quartiles(&log.view(), 1).is_none());
        // Enough users, but the min-actions filter removes them.
        let log = log_with_users(8, 1);
        assert!(latency_quartiles(&log.view(), 2).is_none());
    }

    #[test]
    fn quartile_labels() {
        assert_eq!(LatencyQuartiles::label(0), "Q1 (fastest)");
        assert_eq!(LatencyQuartiles::label(3), "Q4 (slowest)");
    }

    #[test]
    fn deterministic_tie_breaking() {
        // All users share a median: grouping must still be deterministic
        // (ordered by user id).
        let mut records = Vec::new();
        for u in 1..=8 {
            records.push(rec(u as i64, u, 100.0));
        }
        let log = TelemetryLog::from_records(records).unwrap();
        let q1 = latency_quartiles(&log.view(), 1).unwrap();
        let q2 = latency_quartiles(&log.view(), 1).unwrap();
        for (a, b) in q1.groups.iter().zip(q2.groups.iter()) {
            assert_eq!(a, b);
        }
        assert_eq!(q1.quartile_of(UserId(1)), Some(0));
        assert_eq!(q1.quartile_of(UserId(8)), Some(3));
    }
}
