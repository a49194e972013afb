//! AutoSens pipeline configuration, defaulting to the paper's parameters.

use serde::{Deserialize, Serialize};

use autosens_stats::binning::{Binner, OutOfRange};

use crate::error::AutoSensError;

/// Configuration of the AutoSens analysis pipeline.
///
/// Defaults follow §2.3/§2.4 of the paper: 10 ms latency bins, a
/// Savitzky–Golay filter with window 101 and degree 3, a 300 ms reference
/// latency, and 1-hour confounder slots with multi-reference α averaging.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoSensConfig {
    /// Latency bin width in ms (paper: 10 ms).
    pub bin_width_ms: f64,
    /// Upper edge of the analyzed latency range in ms; samples above are
    /// discarded (the paper's figures span up to ~2–2.5 s).
    pub latency_hi_ms: f64,
    /// Savitzky–Golay window length in bins (paper: 101).
    pub savgol_window: usize,
    /// Savitzky–Golay polynomial degree (paper: 3).
    pub savgol_degree: usize,
    /// Reference latency for normalization in ms (paper: 300 ms).
    pub reference_latency_ms: f64,
    /// Total number of random instants drawn to estimate the unbiased
    /// distribution `U` (split evenly across confounder slots when the
    /// α-correction is enabled).
    pub unbiased_draws: usize,
    /// Whether to apply the §2.4.1 time-confounder correction.
    pub alpha_correction: bool,
    /// How many (highest-volume) slots to use in turn as the α reference
    /// before averaging (§2.4.1: "pick multiple references in turn").
    pub alpha_references: usize,
    /// Minimum action count for a latency bin to participate in α
    /// estimation and in the B/U ratio.
    pub min_biased_count: f64,
    /// Minimum unbiased-draw count for a latency bin to participate.
    pub min_unbiased_count: f64,
    /// Minimum number of supported bins required to fit a preference curve.
    pub min_supported_bins: usize,
    /// Seed for the random draws (unbiased sampling, tie-breaking).
    pub seed: u64,
    /// Timezone offset (ms) used to define the analysis' hour slots. The
    /// paper slices to a single region (U.S. users); this reproduction's
    /// default population lives at offset 0.
    pub slot_tz_offset_ms: i64,
    /// Split the confounder slots by weekday vs weekend (48 groups instead
    /// of 24). §2.4.1 names the day of week as part of the time confounder;
    /// enable this when weekend load (and hence latency) differs from
    /// weekdays. Off by default, matching the paper's hour-of-day slots.
    #[serde(default)]
    pub weekday_weekend_slots: bool,
    /// Worker threads for the data-parallel stages (sanitize, α partition,
    /// unbiased draws, bootstrap replicates). `0` means "all available
    /// cores". The analysis output is bit-identical for every value: chunk
    /// boundaries depend only on the data, and partials merge in chunk
    /// order.
    #[serde(default)]
    pub threads: usize,
    /// Estimate per-slot/per-class telemetry loss from in-band evidence
    /// and reweight the preference estimate by inverse observation
    /// probability. On by default; when the estimated loss is zero the
    /// correction is a provable no-op and the report is bit-identical to
    /// running with this off.
    #[serde(default = "default_loss_correct")]
    pub loss_correct: bool,
}

fn default_loss_correct() -> bool {
    true
}

impl Default for AutoSensConfig {
    fn default() -> Self {
        AutoSensConfig {
            bin_width_ms: 10.0,
            latency_hi_ms: 3_000.0,
            savgol_window: 101,
            savgol_degree: 3,
            reference_latency_ms: 300.0,
            unbiased_draws: 480_000,
            alpha_correction: true,
            alpha_references: 4,
            min_biased_count: 10.0,
            min_unbiased_count: 10.0,
            min_supported_bins: 20,
            seed: 0x5E_ED_00,
            slot_tz_offset_ms: 0,
            weekday_weekend_slots: false,
            threads: 0,
            loss_correct: true,
        }
    }
}

impl AutoSensConfig {
    /// Validate the configuration and build the latency binner.
    pub fn binner(&self) -> Result<Binner, AutoSensError> {
        self.validate()?;
        Binner::new(
            0.0,
            self.latency_hi_ms,
            self.bin_width_ms,
            OutOfRange::Discard,
        )
        .map_err(AutoSensError::from)
    }

    /// Check all parameter domains.
    pub fn validate(&self) -> Result<(), AutoSensError> {
        let bad = |why: &str| Err(AutoSensError::BadConfig(why.into()));
        if !(self.bin_width_ms > 0.0 && self.bin_width_ms.is_finite()) {
            return bad("bin_width_ms must be positive");
        }
        if !self.latency_hi_ms.is_finite() || self.latency_hi_ms <= self.bin_width_ms {
            return bad("latency_hi_ms must exceed bin_width_ms");
        }
        if self.savgol_window < 3 || self.savgol_window.is_multiple_of(2) {
            return bad("savgol_window must be odd and >= 3");
        }
        if self.savgol_degree >= self.savgol_window {
            return bad("savgol_degree must be < savgol_window");
        }
        if !(self.reference_latency_ms >= 0.0 && self.reference_latency_ms < self.latency_hi_ms) {
            return bad("reference_latency_ms must lie within the latency range");
        }
        if self.unbiased_draws == 0 {
            return bad("unbiased_draws must be > 0");
        }
        if self.alpha_references == 0 {
            return bad("alpha_references must be >= 1");
        }
        if !(self.min_biased_count >= 0.0 && self.min_unbiased_count >= 0.0) {
            return bad("min counts must be >= 0");
        }
        if self.min_supported_bins == 0 {
            return bad("min_supported_bins must be >= 1");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = AutoSensConfig::default();
        assert_eq!(c.bin_width_ms, 10.0);
        assert_eq!(c.savgol_window, 101);
        assert_eq!(c.savgol_degree, 3);
        assert_eq!(c.reference_latency_ms, 300.0);
        assert!(c.alpha_correction);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn binner_covers_the_range() {
        let c = AutoSensConfig::default();
        let b = c.binner().unwrap();
        assert_eq!(b.n_bins(), 300);
        assert_eq!(b.width(), 10.0);
        assert_eq!(b.index_of(299.0), Some(29));
        assert_eq!(b.index_of(3000.0), None);
    }

    #[test]
    fn validation_catches_violations() {
        let good = AutoSensConfig::default();
        let mut c;

        c = good.clone();
        c.bin_width_ms = 0.0;
        assert!(c.validate().is_err());

        c = good.clone();
        c.latency_hi_ms = 5.0;
        assert!(c.validate().is_err());

        c = good.clone();
        c.savgol_window = 100;
        assert!(c.validate().is_err());

        c = good.clone();
        c.savgol_degree = 101;
        assert!(c.validate().is_err());

        c = good.clone();
        c.reference_latency_ms = 3_000.0;
        assert!(c.validate().is_err());

        c = good.clone();
        c.unbiased_draws = 0;
        assert!(c.validate().is_err());

        c = good.clone();
        c.alpha_references = 0;
        assert!(c.validate().is_err());

        c = good.clone();
        c.min_biased_count = -1.0;
        assert!(c.validate().is_err());

        c = good.clone();
        c.min_supported_bins = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let c = AutoSensConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: AutoSensConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
