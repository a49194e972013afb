//! The biased latency distribution `B` (§2.2).
//!
//! `B` is simply the histogram of the latencies of the actions users
//! actually performed. It is "biased" because, if users prefer low latency,
//! actions cluster in fast periods and `B` shifts left of the underlying
//! latency distribution.

use autosens_stats::binning::Binner;
use autosens_stats::histogram::Histogram;
use autosens_telemetry::log::LogView;

/// Build the biased histogram of a (pre-sliced) view.
///
/// Each successful action contributes weight 1 at its latency. Error
/// outcomes must already have been filtered (the pipeline does this); this
/// function histograms every row it is given, straight off the latency
/// column — no records are materialized.
pub fn biased_histogram(view: &LogView<'_>, binner: &Binner) -> Histogram {
    let mut h = Histogram::new(binner.clone());
    for i in 0..view.len() {
        h.record(view.latency_at(i));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosens_stats::binning::OutOfRange;
    use autosens_telemetry::log::TelemetryLog;
    use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
    use autosens_telemetry::time::SimTime;

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
    fn histograms_latencies() {
        let log =
            TelemetryLog::from_records(vec![rec(0, 105.0), rec(1, 108.0), rec(2, 455.0)]).unwrap();
        let h = biased_histogram(&log.view(), &binner());
        assert_eq!(h.count(10), 2.0);
        assert_eq!(h.count(45), 1.0);
        assert_eq!(h.total(), 3.0);
    }

    #[test]
    fn out_of_range_latencies_are_discarded_not_crashed() {
        let log = TelemetryLog::from_records(vec![rec(0, 5000.0), rec(1, 100.0)]).unwrap();
        let h = biased_histogram(&log.view(), &binner());
        assert_eq!(h.total(), 1.0);
        assert_eq!(h.n_discarded(), 1);
    }

    #[test]
    fn empty_log_gives_empty_histogram() {
        let h = biased_histogram(&TelemetryLog::new().view(), &binner());
        assert!(h.is_empty());
    }
}
