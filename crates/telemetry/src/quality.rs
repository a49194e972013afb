//! Data-quality auditing: estimate how damaged a telemetry log is.
//!
//! Real telemetry arrives lossy, duplicated, out of order, clock-skewed, and
//! heaped (client clocks quantize latencies onto coarse grains). The analysis
//! pipeline degrades gracefully, but operators need to *see* the damage. This
//! module computes a [`QualityReport`] — estimated loss and duplicate rates,
//! ordering violations, latency heaping, and metadata null rates — each with
//! a [`Severity`] grade, without mutating the log.
//!
//! ## What the loss estimator can and cannot see
//!
//! Loss is estimated from hourly volume: records are bucketed per (day,
//! hour-of-day), a per-hour baseline is taken as the *median* count across
//! days, and the shortfall of the observed total against the baselined total
//! is reported. This catches bursty, time-localized loss (outages, lossy
//! uploads during slow periods) because unaffected days anchor the median.
//! Uniform record-level loss (classic MCAR) lowers every bucket equally and
//! is therefore invisible to this estimator — the reported rate is a lower
//! bound on true loss, not an unbiased estimate.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::log::{RowKey, TelemetryLog};
use crate::loss::{estimate_cell_loss, CellLossEvidence, LossCounts};
use crate::query::Slice;
use crate::time::{SimTime, MS_PER_DAY, MS_PER_HOUR};

/// Graded severity of a quality metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Within normal operating bounds.
    Ok,
    /// Degraded: analysis remains possible but results may be biased.
    Warn,
    /// Severely damaged: treat downstream results with suspicion.
    Critical,
}

impl Severity {
    fn grade(value: f64, warn: f64, critical: f64) -> Severity {
        if value > critical {
            Severity::Critical
        } else if value > warn {
            Severity::Warn
        } else {
            Severity::Ok
        }
    }

    /// Stable string name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Ok => "ok",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }
}

/// One audited metric: its value and its severity grade.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// The measured value (a rate in [0, 1] unless noted on the field).
    pub value: f64,
    /// Severity grade of the value against the metric's thresholds.
    pub severity: Severity,
}

impl Metric {
    fn graded(value: f64, warn: f64, critical: f64) -> Metric {
        Metric {
            value,
            severity: Severity::grade(value, warn, critical),
        }
    }
}

/// The result of auditing a [`TelemetryLog`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityReport {
    /// Total records audited.
    pub n_records: u64,
    /// Estimated record loss rate via the hourly-median-baseline method
    /// (lower bound; uniform loss is invisible — see module docs).
    pub estimated_loss_rate: Metric,
    /// Fraction of records that are exact field-for-field duplicates of an
    /// earlier record.
    pub duplicate_rate: Metric,
    /// Fraction of adjacent record pairs (in storage order) whose timestamps
    /// run backwards.
    pub monotonicity_violation_rate: Metric,
    /// Count behind `monotonicity_violation_rate`.
    pub monotonicity_violations: u64,
    /// Largest fraction of latencies sitting exactly on one candidate grain
    /// (10/25/50/100 ms) — near 1.0 means client-side quantization.
    pub heaping_score: Metric,
    /// The grain (ms) that maximized `heaping_score`, if any latency hit one.
    pub heaping_grain_ms: Option<f64>,
    /// Fraction of records whose metadata equals the null sentinel
    /// (consumer class with a zero timezone offset) — anomalously high
    /// values indicate metadata stripping upstream.
    pub metadata_null_rate: Metric,
    /// Per-cell (local hour × day kind × user class) loss evidence from
    /// the [`crate::loss`] estimator — only cells with a nonzero estimated
    /// rate appear, so clean telemetry reports an empty list. Unlike the
    /// global `estimated_loss_rate`, these localize *where* records went
    /// missing, and they feed the pipeline's loss-aware correction.
    #[serde(default)]
    pub loss_cells: Vec<CellLossEvidence>,
}

impl QualityReport {
    /// The worst severity across all metrics.
    pub fn overall(&self) -> Severity {
        [
            self.estimated_loss_rate.severity,
            self.duplicate_rate.severity,
            self.monotonicity_violation_rate.severity,
            self.heaping_score.severity,
            self.metadata_null_rate.severity,
        ]
        .into_iter()
        .max()
        .unwrap_or(Severity::Ok)
    }

    /// Human-readable rendering, one metric per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("records            {}\n", self.n_records));
        let line = |name: &str, m: &Metric| {
            format!("{name:<19}{:>8.4}  [{}]\n", m.value, m.severity.name())
        };
        out.push_str(&line("est. loss rate", &self.estimated_loss_rate));
        out.push_str(&line("duplicate rate", &self.duplicate_rate));
        out.push_str(&line("unordered pairs", &self.monotonicity_violation_rate));
        out.push_str(&line("heaping score", &self.heaping_score));
        if let Some(g) = self.heaping_grain_ms {
            out.push_str(&format!("heaping grain      {g:>8.1} ms\n"));
        }
        out.push_str(&line("metadata nulls", &self.metadata_null_rate));
        out.push_str(&format!(
            "loss cells flagged {:>8}\n",
            self.loss_cells.len()
        ));
        for c in &self.loss_cells {
            out.push_str(&format!(
                "  {:<17}{:>8.4}  (observed {})\n",
                c.label(),
                c.rate,
                c.observed
            ));
        }
        out.push_str(&format!(
            "overall            {:>8}\n",
            self.overall().name()
        ));
        out
    }
}

/// Candidate quantization grains probed by the heaping detector, in ms.
const HEAPING_GRAINS: [f64; 4] = [10.0, 25.0, 50.0, 100.0];

/// Audit a log and grade each quality metric. Never mutates or fails: an
/// empty log yields an all-zero, all-`Ok` report.
pub fn audit(log: &TelemetryLog) -> QualityReport {
    audit_slice(log, &Slice::all())
}

/// Audit the records of a log matching a [`Slice`], without materializing
/// the sub-log: every pass walks the [`Slice::select`] view in storage
/// order, so slicing an audit costs no full-log copy. `audit_slice(log,
/// &Slice::all())` is exactly [`audit`].
pub fn audit_slice(log: &TelemetryLog, slice: &Slice) -> QualityReport {
    let mut span = autosens_obs::Recorder::global().root("quality.audit");
    autosens_obs::MetricsRegistry::global()
        .counter("autosens_telemetry_quality_audits_total")
        .inc();

    // Build the selection once — every pass below walks the view's
    // columns directly; no sub-log is materialized and no row is copied.
    let view = slice.select(&log.view());
    let n = view.len() as u64;

    // Duplicates: exact repeats (`RowKey`) of a row seen earlier.
    // This pass also counts the ordering violations (backward steps
    // between adjacent matching rows in storage order) and tallies the
    // per-cell loss counts over first occurrences only — a re-delivered
    // record is not evidence of presence twice.
    let mut seen: HashSet<RowKey> = HashSet::new();
    let mut duplicates = 0u64;
    let mut monotonicity_violations = 0u64;
    let mut loss_counts = LossCounts::new();
    for i in 0..view.len() {
        if !seen.insert(view.row_key(i)) {
            duplicates += 1;
        } else {
            loss_counts.record(
                SimTime(view.time_at(i)),
                view.tz_offset_at(i),
                view.class_at(i),
            );
        }
        if i > 0 && view.time_at(i) < view.time_at(i - 1) {
            monotonicity_violations += 1;
        }
    }
    span.field("records", n);
    let pairs = n.saturating_sub(1).max(1);

    // Heaping: share of latencies landing exactly on each candidate grain.
    let (heaping_score, heaping_grain_ms) = HEAPING_GRAINS
        .iter()
        .map(|&g| {
            let hits = (0..view.len())
                .filter(|&i| view.latency_at(i) % g == 0.0)
                .count();
            (hits as f64 / n.max(1) as f64, g)
        })
        .filter(|&(frac, _)| frac > 0.0)
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(frac, g)| (frac, Some(g)))
        .unwrap_or((0.0, None));

    // Metadata nulls: the sentinel an upstream stripper leaves behind.
    let nulls = (0..view.len())
        .filter(|&i| {
            view.tz_offset_at(i) == 0
                && view.class_at(i) == crate::record::UserClass::Consumer.code()
        })
        .count() as u64;

    // Per-cell loss evidence: localized rates the global estimator (below)
    // cannot provide. Duplicate timestamps contribute zero-length gaps,
    // which the gap estimator skips, so the raw view is safe to scan.
    let loss_cells: Vec<CellLossEvidence> = estimate_cell_loss(&view, &loss_counts)
        .cells
        .into_iter()
        .filter(|c| c.rate > 0.0)
        .collect();
    let metrics = autosens_obs::MetricsRegistry::global();
    metrics
        .gauge("autosens_quality_loss_cells_flagged")
        .set(loss_cells.len() as f64);
    for c in &loss_cells {
        let label = c.label();
        metrics
            .counter(&format!("autosens_quality_cell_observed_{label}"))
            .add(c.observed);
        metrics
            .gauge(&format!("autosens_quality_cell_loss_rate_{label}"))
            .set(c.rate);
    }

    QualityReport {
        n_records: n,
        estimated_loss_rate: Metric::graded(estimate_loss(&view), 0.05, 0.25),
        duplicate_rate: Metric::graded(duplicates as f64 / n.max(1) as f64, 0.01, 0.10),
        monotonicity_violation_rate: Metric::graded(
            monotonicity_violations as f64 / pairs as f64,
            0.0,
            0.10,
        ),
        monotonicity_violations,
        heaping_score: Metric::graded(heaping_score, 0.5, 0.9),
        heaping_grain_ms,
        metadata_null_rate: Metric::graded(nulls as f64 / n.max(1) as f64, 0.5, 0.9),
        loss_cells,
    }
}

/// Hourly-median-baseline loss estimate (see module docs for blind spots),
/// over one pass of the viewed rows' timestamp column.
fn estimate_loss(view: &crate::log::LogView<'_>) -> f64 {
    let n = view.len() as u64;
    // Count records per (day, hour-of-day) cell, in shared simulation time,
    // tracking the span as we go.
    let mut cell: HashMap<(i64, u8), u64> = HashMap::new();
    let mut first_day = i64::MAX;
    let mut last_day = i64::MIN;
    for i in 0..view.len() {
        let t = view.time_at(i);
        let day = t.div_euclid(MS_PER_DAY);
        let hour = t.div_euclid(MS_PER_HOUR).rem_euclid(24) as u8;
        *cell.entry((day, hour)).or_insert(0) += 1;
        first_day = first_day.min(day);
        last_day = last_day.max(day);
    }
    if cell.is_empty() {
        return 0.0;
    }
    let n_days = (last_day - first_day + 1) as usize;
    // Fewer than 3 days gives the median no anchor; report no loss rather
    // than a noise-driven estimate.
    if n_days < 3 {
        return 0.0;
    }

    let mut expected = 0.0;
    for hour in 0u8..24 {
        let mut counts: Vec<u64> = (first_day..=last_day)
            .map(|d| cell.get(&(d, hour)).copied().unwrap_or(0))
            .collect();
        counts.sort_unstable();
        let baseline = if counts.len() % 2 == 1 {
            counts[counts.len() / 2] as f64
        } else {
            (counts[counts.len() / 2 - 1] + counts[counts.len() / 2]) as f64 / 2.0
        };
        expected += baseline * n_days as f64;
    }
    if expected <= 0.0 {
        return 0.0;
    }
    (1.0 - n as f64 / expected).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
    use crate::time::SimTime;

    fn rec(t: i64, latency: f64, user: u64) -> ActionRecord {
        ActionRecord {
            time: SimTime(t),
            action: ActionType::SelectMail,
            latency_ms: latency,
            user: UserId(user),
            class: UserClass::Business,
            tz_offset_ms: 3_600_000,
            outcome: Outcome::Success,
        }
    }

    /// Seven days, ten records per hour, latencies off any grain.
    fn steady_log() -> TelemetryLog {
        let mut records = Vec::new();
        for day in 0..7i64 {
            for hour in 0..24i64 {
                for k in 0..10i64 {
                    let t = day * MS_PER_DAY + hour * MS_PER_HOUR + k * 300_000;
                    records.push(rec(t, 101.3 + k as f64 * 0.7, (k + hour * 10) as u64));
                }
            }
        }
        TelemetryLog::from_records(records).unwrap()
    }

    #[test]
    fn clean_log_grades_ok() {
        let report = audit(&steady_log());
        assert_eq!(report.overall(), Severity::Ok);
        assert_eq!(report.estimated_loss_rate.value, 0.0);
        assert_eq!(report.duplicate_rate.value, 0.0);
        assert_eq!(report.monotonicity_violations, 0);
        assert!(report.heaping_score.value < 0.01);
        assert_eq!(report.metadata_null_rate.value, 0.0);
    }

    #[test]
    fn empty_log_is_all_zero_ok() {
        let report = audit(&TelemetryLog::new());
        assert_eq!(report.n_records, 0);
        assert_eq!(report.overall(), Severity::Ok);
    }

    #[test]
    fn bursty_loss_is_detected() {
        // Drop all records of days 2 and 3 between 08:00 and 20:00 — a
        // time-localized outage. ~14% of total volume disappears.
        let log = steady_log();
        let kept: Vec<ActionRecord> = log
            .view()
            .iter()
            .filter(|r| {
                let day = r.time.millis().div_euclid(MS_PER_DAY);
                let hour = r.time.millis().div_euclid(MS_PER_HOUR).rem_euclid(24);
                !((2..=3).contains(&day) && (8..20).contains(&hour))
            })
            .collect();
        let true_loss = 1.0 - kept.len() as f64 / log.len() as f64;
        let damaged = TelemetryLog::from_records(kept).unwrap();
        let report = audit(&damaged);
        assert!(
            (report.estimated_loss_rate.value - true_loss).abs() < 0.03,
            "estimated {} vs true {}",
            report.estimated_loss_rate.value,
            true_loss
        );
        assert_eq!(report.estimated_loss_rate.severity, Severity::Warn);
    }

    #[test]
    fn loss_cells_localize_a_sustained_outage() {
        // A two-weekday outage between 08:00 and 20:00 (server time; +1h
        // local) is strong enough for the per-cell volume estimator. The
        // clean log must flag nothing.
        let mut records = Vec::new();
        for day in 0..14i64 {
            for hour in 0..24i64 {
                for k in 0..40i64 {
                    let t = day * MS_PER_DAY + hour * MS_PER_HOUR + k * 90_000;
                    records.push(rec(t, 101.3 + k as f64 * 0.7, (k + hour * 40) as u64));
                }
            }
        }
        let clean = TelemetryLog::from_records(records.clone()).unwrap();
        assert!(audit(&clean).loss_cells.is_empty());

        let kept: Vec<ActionRecord> = records
            .into_iter()
            .filter(|r| {
                let day = r.time.millis().div_euclid(MS_PER_DAY);
                let hour = r.time.millis().div_euclid(MS_PER_HOUR).rem_euclid(24);
                !((3..=4).contains(&day) && (8..20).contains(&hour))
            })
            .collect();
        let report = audit(&TelemetryLog::from_records(kept).unwrap());
        assert!(!report.loss_cells.is_empty(), "outage cells not flagged");
        // All flagged cells are weekday local hours 9..21 (+1h tz).
        for c in &report.loss_cells {
            assert!(!c.weekend, "weekend cell flagged: {}", c.label());
            assert!(
                (9..21).contains(&c.hour),
                "cell outside outage: {}",
                c.label()
            );
            assert!(c.rate > 0.05 && c.rate < 0.4, "rate {}", c.rate);
        }
        assert!(report.render().contains("loss cells flagged"));
    }

    #[test]
    fn duplicates_are_counted() {
        let log = steady_log();
        let mut records: Vec<ActionRecord> = log.to_records();
        let n = records.len();
        // Duplicate every 20th record.
        for i in (0..n).step_by(20) {
            records.push(records[i]);
        }
        let damaged = TelemetryLog::from_records(records).unwrap();
        let report = audit(&damaged);
        assert!(report.duplicate_rate.value > 0.04);
        assert!(report.duplicate_rate.severity >= Severity::Warn);
    }

    #[test]
    fn unordered_log_is_flagged() {
        let mut log = TelemetryLog::new();
        log.push(rec(1_000, 5.0, 1)).unwrap();
        log.push(rec(500, 5.0, 2)).unwrap();
        log.push(rec(2_000, 5.0, 3)).unwrap();
        let report = audit(&log);
        assert_eq!(report.monotonicity_violations, 1);
        assert!(report.monotonicity_violation_rate.severity >= Severity::Warn);
    }

    #[test]
    fn heaped_latencies_are_detected_with_grain() {
        let records: Vec<ActionRecord> = (0..500)
            .map(|i| rec(i * 60_000, ((i % 7) * 50) as f64, i as u64))
            .collect();
        let report = audit(&TelemetryLog::from_records(records).unwrap());
        assert!(report.heaping_score.value > 0.9);
        assert_eq!(report.heaping_grain_ms, Some(50.0));
        assert_eq!(report.heaping_score.severity, Severity::Critical);
    }

    #[test]
    fn stripped_metadata_is_flagged() {
        let records: Vec<ActionRecord> = (0..100)
            .map(|i| {
                let mut r = rec(i * 60_000, 100.5, i as u64);
                if i % 10 != 0 {
                    r.class = UserClass::Consumer;
                    r.tz_offset_ms = 0;
                }
                r
            })
            .collect();
        let report = audit(&TelemetryLog::from_records(records).unwrap());
        assert!((report.metadata_null_rate.value - 0.9).abs() < 1e-9);
        assert_eq!(report.metadata_null_rate.severity, Severity::Warn);
    }

    #[test]
    fn audit_slice_matches_audit_of_the_materialized_sublog() {
        // The borrowed path must grade exactly like auditing the copy.
        let log = steady_log();
        let slice = Slice::all().class(UserClass::Business).successes();
        assert_eq!(audit_slice(&log, &slice), audit(&slice.apply(&log)));
        // And the match-everything slice is the plain audit.
        assert_eq!(audit_slice(&log, &Slice::all()), audit(&log));
    }

    #[test]
    fn report_serializes_and_renders() {
        let report = audit(&steady_log());
        let json = serde_json::to_string(&report).unwrap();
        let back: QualityReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        let text = report.render();
        assert!(text.contains("est. loss rate"));
        assert!(text.contains("overall"));
    }

    #[test]
    fn severity_ordering_and_grading() {
        assert!(Severity::Ok < Severity::Warn && Severity::Warn < Severity::Critical);
        assert_eq!(Severity::grade(0.0, 0.05, 0.25), Severity::Ok);
        assert_eq!(Severity::grade(0.10, 0.05, 0.25), Severity::Warn);
        assert_eq!(Severity::grade(0.30, 0.05, 0.25), Severity::Critical);
    }
}
