//! Error type for the AutoSens pipeline.

use std::fmt;

use autosens_stats::StatsError;
use autosens_telemetry::TelemetryError;

/// Errors produced by the AutoSens analysis pipeline.
#[derive(Debug)]
pub enum AutoSensError {
    /// The analyzed slice contained no usable records.
    EmptySlice(String),
    /// The configuration is invalid.
    BadConfig(String),
    /// Not enough well-supported latency bins to produce a curve.
    InsufficientSupport {
        /// What was being estimated.
        what: String,
        /// Number of supported bins found.
        supported: usize,
        /// Number required.
        required: usize,
    },
    /// The reference latency fell outside the supported range of the curve.
    ReferenceUnsupported {
        /// The configured reference latency.
        reference_ms: f64,
    },
    /// A data-dependent computation produced a non-finite value (NaN or ±∞)
    /// that would otherwise silently poison downstream estimates.
    NonFinite {
        /// What was being computed.
        what: String,
    },
    /// An input too large for a kernel's index width (e.g. a view with
    /// more rows than a `u32` row index holds). Never truncated.
    TooLarge(String),
    /// An internal failure the pipeline recovered into a typed error rather
    /// than a panic (e.g. an analysis worker thread panicked).
    Internal(String),
    /// An underlying statistics error.
    Stats(StatsError),
    /// An underlying telemetry error.
    Telemetry(TelemetryError),
}

impl fmt::Display for AutoSensError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutoSensError::EmptySlice(what) => write!(f, "empty analysis slice: {what}"),
            AutoSensError::BadConfig(why) => write!(f, "invalid AutoSens config: {why}"),
            AutoSensError::InsufficientSupport {
                what,
                supported,
                required,
            } => write!(
                f,
                "insufficient support for {what}: {supported} bins (need {required})"
            ),
            AutoSensError::ReferenceUnsupported { reference_ms } => write!(
                f,
                "reference latency {reference_ms} ms is outside the supported range"
            ),
            AutoSensError::NonFinite { what } => {
                write!(f, "non-finite value while computing {what}")
            }
            AutoSensError::TooLarge(what) => write!(f, "input too large: {what}"),
            AutoSensError::Internal(what) => write!(f, "internal failure: {what}"),
            AutoSensError::Stats(e) => write!(f, "statistics error: {e}"),
            AutoSensError::Telemetry(e) => write!(f, "telemetry error: {e}"),
        }
    }
}

impl std::error::Error for AutoSensError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AutoSensError::Stats(e) => Some(e),
            AutoSensError::Telemetry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StatsError> for AutoSensError {
    fn from(e: StatsError) -> Self {
        AutoSensError::Stats(e)
    }
}

impl From<TelemetryError> for AutoSensError {
    fn from(e: TelemetryError) -> Self {
        AutoSensError::Telemetry(e)
    }
}

/// A chunk of a data-parallel job panicked: the scheduler captured the
/// unwind and the pipeline surfaces it as a typed internal error (the same
/// containment contract as the per-slice analysis workers).
impl From<autosens_exec::ExecError> for AutoSensError {
    fn from(e: autosens_exec::ExecError) -> Self {
        AutoSensError::Internal(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        use std::error::Error;
        let e = AutoSensError::EmptySlice("Feb consumers".into());
        assert!(e.to_string().contains("Feb consumers"));
        let e = AutoSensError::InsufficientSupport {
            what: "B/U ratio".into(),
            supported: 3,
            required: 10,
        };
        assert!(e.to_string().contains("3 bins"));
        let e: AutoSensError = StatsError::SingularMatrix.into();
        assert!(e.source().is_some());
        let e: AutoSensError = TelemetryError::InvalidRecord("x".into()).into();
        assert!(e.source().is_some());
        let e = AutoSensError::ReferenceUnsupported {
            reference_ms: 300.0,
        };
        assert!(e.to_string().contains("300"));
        let e = AutoSensError::BadConfig("bin width".into());
        assert!(e.to_string().contains("bin width"));
        let e = AutoSensError::NonFinite {
            what: "alpha mean".into(),
        };
        assert!(e.to_string().contains("alpha mean"));
        let e = AutoSensError::TooLarge("5000000000 rows".into());
        assert!(e.to_string().contains("5000000000 rows"));
        let e = AutoSensError::Internal("worker panicked".into());
        assert!(e.to_string().contains("worker panicked"));
    }
}
