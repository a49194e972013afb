//! Weighted histograms over a fixed-width [`Binner`].
//!
//! AutoSens builds two histograms per analysis slice — the biased action
//! histogram `B` and the unbiased occupancy histogram `U` — and, for the
//! time-confounder correction, one *weighted* histogram per 1-hour slot
//! (weights are counts divided by the slot's activity factor `α_T`). A single
//! weighted-count representation covers all of these.

use serde::{Deserialize, Serialize};

use crate::binning::Binner;
use crate::error::StatsError;
use crate::pdf::Pdf;

/// A histogram with floating-point (weighted) bin contents.
///
/// ```
/// use autosens_stats::binning::Binner;
/// use autosens_stats::histogram::Histogram;
///
/// let binner = Binner::latency_ms(1000.0).unwrap();
/// let mut h = Histogram::new(binner);
/// h.record_all(&[105.0, 108.0, 455.0]);
/// assert_eq!(h.count(10), 2.0);
/// assert_eq!(h.total(), 3.0);
///
/// // Normalize into a PDF whose densities integrate to 1.
/// let pdf = h.to_pdf().unwrap();
/// assert!((pdf.mass() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    binner: Binner,
    counts: Vec<f64>,
    /// Total weight recorded, including nothing for discarded samples.
    total: f64,
    /// Number of `record*` calls that landed in a bin.
    n_recorded: u64,
    /// Number of samples dropped by the out-of-range policy (or NaN).
    n_discarded: u64,
}

impl Histogram {
    /// An empty histogram over the given binning.
    pub fn new(binner: Binner) -> Self {
        let n = binner.n_bins();
        Histogram {
            binner,
            counts: vec![0.0; n],
            total: 0.0,
            n_recorded: 0,
            n_discarded: 0,
        }
    }

    /// Record one observation with weight 1.
    pub fn record(&mut self, value: f64) {
        self.record_weighted(value, 1.0);
    }

    /// Record one observation with an arbitrary non-negative weight.
    ///
    /// Non-finite or negative weights are treated as a discarded sample; they
    /// indicate upstream numerical trouble and must not corrupt the totals.
    pub fn record_weighted(&mut self, value: f64, weight: f64) {
        if !(weight.is_finite() && weight >= 0.0) {
            self.n_discarded += 1;
            return;
        }
        match self.binner.index_of(value) {
            Some(i) => {
                self.counts[i] += weight;
                self.total += weight;
                self.n_recorded += 1;
            }
            None => self.n_discarded += 1,
        }
    }

    /// Record every value in a slice with weight 1.
    pub fn record_all(&mut self, values: &[f64]) {
        for &v in values {
            self.record(v);
        }
    }

    /// Build a histogram directly from a slice of values.
    pub fn from_values(binner: Binner, values: &[f64]) -> Self {
        let mut h = Histogram::new(binner);
        h.record_all(values);
        h
    }

    /// The binner underlying this histogram.
    pub fn binner(&self) -> &Binner {
        &self.binner
    }

    /// Weighted content of bin `i`.
    pub fn count(&self, i: usize) -> f64 {
        self.counts[i]
    }

    /// Weighted contents of all bins.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Sum of all recorded weights.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of samples that landed in a bin.
    pub fn n_recorded(&self) -> u64 {
        self.n_recorded
    }

    /// Number of samples dropped (out-of-range under `Discard`, NaN values,
    /// or invalid weights).
    pub fn n_discarded(&self) -> u64 {
        self.n_discarded
    }

    /// True when no weight has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0.0
    }

    /// Scale every bin (and the total) by `factor`.
    ///
    /// This is the primitive behind the α-normalization of per-slot counts:
    /// dividing a slot's counts by `α_T` is `scale(1.0 / alpha)`.
    pub fn scale(&mut self, factor: f64) -> Result<(), StatsError> {
        if !factor.is_finite() || factor < 0.0 {
            return Err(crate::error::invalid(
                "factor",
                format!("must be finite and non-negative, got {factor}"),
            ));
        }
        for c in &mut self.counts {
            *c *= factor;
        }
        self.total *= factor;
        Ok(())
    }

    /// Add another histogram's contents into this one.
    ///
    /// Both histograms must share the same bin grid.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), StatsError> {
        if !self.binner.same_grid(&other.binner) {
            return Err(StatsError::BinnerMismatch);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.n_recorded += other.n_recorded;
        self.n_discarded += other.n_discarded;
        Ok(())
    }

    /// Add integer bin counts: `counts[i]` samples of weight 1 in bin `i`,
    /// plus `discarded` samples the binning dropped — what recording each
    /// sample with [`Histogram::record`] would add. While every bin and the
    /// total stay below 2^53 the sums are exact, so the result's bits do not
    /// depend on how the samples were grouped or ordered.
    ///
    /// `counts` must have one entry per bin.
    pub fn add_counts(&mut self, counts: &[u64], discarded: u64) -> Result<(), StatsError> {
        if counts.len() != self.counts.len() {
            return Err(crate::error::invalid(
                "counts",
                format!("has {} bins, histogram {}", counts.len(), self.counts.len()),
            ));
        }
        let mut recorded = 0u64;
        for (c, &k) in self.counts.iter_mut().zip(counts) {
            *c += k as f64;
            recorded += k;
        }
        self.total += recorded as f64;
        self.n_recorded += recorded;
        self.n_discarded += discarded;
        Ok(())
    }

    /// Normalize into a probability density function.
    ///
    /// Densities integrate to 1 over the binned range. Fails on an empty
    /// histogram (a PDF of nothing is meaningless and would silently poison
    /// downstream ratios with NaN).
    pub fn to_pdf(&self) -> Result<Pdf, StatsError> {
        if self.is_empty() {
            return Err(StatsError::EmptyInput("histogram has zero total weight"));
        }
        let w = self.binner.width();
        let densities: Vec<f64> = self.counts.iter().map(|c| c / (self.total * w)).collect();
        Pdf::from_densities(self.binner.clone(), densities)
    }

    /// Mean of the recorded distribution, using bin centers.
    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let s: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, c)| c * self.binner.center(i))
            .sum();
        Some(s / self.total)
    }

    /// The fraction of total weight in each bin (sums to 1); unlike
    /// [`Histogram::to_pdf`] these are probabilities per bin, not densities.
    pub fn fractions(&self) -> Option<Vec<f64>> {
        if self.is_empty() {
            return None;
        }
        Some(self.counts.iter().map(|c| c / self.total).collect())
    }
}

/// Histograms are the canonical per-chunk partial aggregate of the
/// data-parallel pipeline: a chunked map builds one histogram per chunk
/// (or one `Vec<Histogram>` per chunk for the per-slot α partition) and
/// the scheduler folds them in chunk order. Partials of one job share one
/// binner by construction, so a grid mismatch is a programming error and
/// panics (the scheduler's panic capture turns it into a typed error).
impl autosens_exec::Mergeable for Histogram {
    fn merge(&mut self, other: Self) {
        Histogram::merge(self, &other).expect("chunk partials share one binner grid");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::OutOfRange;

    fn binner() -> Binner {
        Binner::new(0.0, 100.0, 10.0, OutOfRange::Discard).unwrap()
    }

    #[test]
    fn records_and_totals() {
        let mut h = Histogram::new(binner());
        h.record(5.0);
        h.record(5.0);
        h.record(95.0);
        assert_eq!(h.count(0), 2.0);
        assert_eq!(h.count(9), 1.0);
        assert_eq!(h.total(), 3.0);
        assert_eq!(h.n_recorded(), 3);
        assert_eq!(h.n_discarded(), 0);
    }

    #[test]
    fn discards_out_of_range_and_nan() {
        let mut h = Histogram::new(binner());
        h.record(-1.0);
        h.record(100.0);
        h.record(f64::NAN);
        assert!(h.is_empty());
        assert_eq!(h.n_discarded(), 3);
    }

    #[test]
    fn weighted_records() {
        let mut h = Histogram::new(binner());
        h.record_weighted(15.0, 2.5);
        h.record_weighted(15.0, 0.5);
        assert_eq!(h.count(1), 3.0);
        assert_eq!(h.total(), 3.0);
    }

    #[test]
    fn invalid_weights_are_discarded() {
        let mut h = Histogram::new(binner());
        h.record_weighted(15.0, f64::NAN);
        h.record_weighted(15.0, -1.0);
        h.record_weighted(15.0, f64::INFINITY);
        assert!(h.is_empty());
        assert_eq!(h.n_discarded(), 3);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::from_values(binner(), &[5.0, 15.0]);
        let b = Histogram::from_values(binner(), &[15.0, 25.0]);
        a.merge(&b).unwrap();
        assert_eq!(a.count(0), 1.0);
        assert_eq!(a.count(1), 2.0);
        assert_eq!(a.count(2), 1.0);
        assert_eq!(a.total(), 4.0);
        assert_eq!(a.n_recorded(), 4);
    }

    #[test]
    fn add_counts_matches_recording_each_sample() {
        let values = [5.0, 15.0, 15.0, 95.0, -1.0, 150.0, f64::NAN, 15.0];
        let mut want = Histogram::new(binner());
        want.record(42.0);
        let mut got = want.clone();
        want.record_all(&values);
        let mut counts = vec![0u64; 10];
        let mut discarded = 0;
        for &v in &values {
            match binner().index_of(v) {
                Some(i) => counts[i] += 1,
                None => discarded += 1,
            }
        }
        got.add_counts(&counts, discarded).unwrap();
        assert_eq!(got, want);
        assert!(got.add_counts(&[1, 2], 0).is_err());
    }

    #[test]
    fn merge_rejects_mismatched_binners() {
        let mut a = Histogram::new(binner());
        let b = Histogram::new(Binner::new(0.0, 100.0, 20.0, OutOfRange::Discard).unwrap());
        assert_eq!(a.merge(&b), Err(StatsError::BinnerMismatch));
    }

    #[test]
    fn scale_behaves_like_alpha_normalization() {
        let mut h = Histogram::from_values(binner(), &[5.0, 5.0, 15.0]);
        h.scale(1.0 / 0.5).unwrap();
        assert_eq!(h.count(0), 4.0);
        assert_eq!(h.count(1), 2.0);
        assert_eq!(h.total(), 6.0);
        assert!(h.scale(f64::NAN).is_err());
        assert!(h.scale(-1.0).is_err());
    }

    #[test]
    fn to_pdf_normalizes_to_unit_mass() {
        let h = Histogram::from_values(binner(), &[5.0, 15.0, 15.0, 35.0]);
        let pdf = h.to_pdf().unwrap();
        let mass: f64 = pdf.densities().iter().map(|d| d * 10.0).sum();
        assert!((mass - 1.0).abs() < 1e-12);
        // Bin 1 holds half the samples: density = 0.5 / 10ms.
        assert!((pdf.density(1) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn to_pdf_fails_on_empty() {
        let h = Histogram::new(binner());
        assert!(h.to_pdf().is_err());
    }

    #[test]
    fn mean_uses_bin_centers() {
        let h = Histogram::from_values(binner(), &[5.0, 15.0]);
        // Bin centers 5 and 15 -> mean 10.
        assert_eq!(h.mean(), Some(10.0));
        assert_eq!(Histogram::new(binner()).mean(), None);
    }

    #[test]
    fn mergeable_impl_matches_inherent_merge() {
        let mut a = Histogram::from_values(binner(), &[5.0, 15.0]);
        let b = Histogram::from_values(binner(), &[15.0, 25.0]);
        let mut expected = a.clone();
        expected.merge(&b).unwrap();
        autosens_exec::Mergeable::merge(&mut a, b);
        assert_eq!(a, expected);
    }

    #[test]
    #[should_panic(expected = "share one binner grid")]
    fn mergeable_impl_panics_on_grid_mismatch() {
        let mut a = Histogram::new(binner());
        let b = Histogram::new(Binner::new(0.0, 100.0, 20.0, OutOfRange::Discard).unwrap());
        autosens_exec::Mergeable::merge(&mut a, b);
    }

    #[test]
    fn fractions_sum_to_one() {
        let h = Histogram::from_values(binner(), &[5.0, 15.0, 15.0, 95.0]);
        let f = h.fractions().unwrap();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(f[1], 0.5);
        assert_eq!(Histogram::new(binner()).fractions(), None);
    }
}
