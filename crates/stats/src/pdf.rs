//! Probability density functions over fixed-width bins, and the density
//! ratio at the heart of AutoSens (`preference = B/U`).

use serde::{Deserialize, Serialize};

use crate::binning::Binner;
use crate::error::{invalid, StatsError};

/// How to handle bins where the denominator density is zero (or both are)
/// when computing a density ratio.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RatioPolicy {
    /// Emit `f64::NAN` for undefined bins; callers must filter.
    NaN,
    /// Emit `0.0` when the numerator is zero too, `f64::NAN` otherwise.
    ZeroOverZeroIsZero,
    /// Skip undefined bins entirely (the returned series contains only
    /// defined points, paired with their bin centers).
    Skip,
}

/// A discretized probability density function.
///
/// Densities are per-unit-of-x; `density * bin_width` is the bin probability
/// and the densities integrate to 1 over the binned range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pdf {
    binner: Binner,
    densities: Vec<f64>,
}

impl Pdf {
    /// Construct from raw densities. Verifies length, finiteness and
    /// non-negativity, but intentionally does not force exact unit mass
    /// (ratios and smoothed curves need not be normalized).
    pub fn from_densities(binner: Binner, densities: Vec<f64>) -> Result<Self, StatsError> {
        if densities.len() != binner.n_bins() {
            return Err(invalid(
                "densities",
                format!(
                    "length {} does not match bin count {}",
                    densities.len(),
                    binner.n_bins()
                ),
            ));
        }
        if densities.iter().any(|d| !d.is_finite() || *d < 0.0) {
            return Err(StatsError::NonFinite("pdf densities"));
        }
        Ok(Pdf { binner, densities })
    }

    /// The binner underlying this PDF.
    pub fn binner(&self) -> &Binner {
        &self.binner
    }

    /// Density of bin `i`.
    pub fn density(&self, i: usize) -> f64 {
        self.densities[i]
    }

    /// All densities, in bin order.
    pub fn densities(&self) -> &[f64] {
        &self.densities
    }

    /// Density at a continuous point `x` (the density of the containing bin),
    /// or `None` if `x` falls outside the binned range.
    pub fn density_at(&self, x: f64) -> Option<f64> {
        self.binner.index_of(x).map(|i| self.densities[i])
    }

    /// Total probability mass (should be ~1 for a normalized PDF).
    pub fn mass(&self) -> f64 {
        self.densities.iter().sum::<f64>() * self.binner.width()
    }

    /// Mean of the distribution, using bin centers.
    pub fn mean(&self) -> f64 {
        let w = self.binner.width();
        self.densities
            .iter()
            .enumerate()
            .map(|(i, d)| d * w * self.binner.center(i))
            .sum()
    }

    /// Cumulative distribution function.
    pub fn cdf(&self) -> Cdf {
        let w = self.binner.width();
        let mut acc = 0.0;
        let cumulative = self
            .densities
            .iter()
            .map(|d| {
                acc += d * w;
                acc
            })
            .collect();
        Cdf {
            binner: self.binner.clone(),
            cumulative,
        }
    }

    /// Per-bin ratio `self / other` under the given zero-handling policy.
    ///
    /// Returns `(bin centers, ratios)`; with [`RatioPolicy::Skip`] the
    /// vectors contain only the defined bins, otherwise all bins.
    pub fn ratio(
        &self,
        other: &Pdf,
        policy: RatioPolicy,
    ) -> Result<(Vec<f64>, Vec<f64>), StatsError> {
        if !self.binner.same_grid(&other.binner) {
            return Err(StatsError::BinnerMismatch);
        }
        let mut xs = Vec::with_capacity(self.densities.len());
        let mut rs = Vec::with_capacity(self.densities.len());
        for i in 0..self.densities.len() {
            let num = self.densities[i];
            let den = other.densities[i];
            let val = if den > 0.0 {
                num / den
            } else {
                match policy {
                    RatioPolicy::NaN => f64::NAN,
                    RatioPolicy::ZeroOverZeroIsZero => {
                        if num == 0.0 {
                            0.0
                        } else {
                            f64::NAN
                        }
                    }
                    RatioPolicy::Skip => {
                        continue;
                    }
                }
            };
            xs.push(self.binner.center(i));
            rs.push(val);
        }
        Ok((xs, rs))
    }
}

/// A cumulative distribution function derived from a [`Pdf`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    binner: Binner,
    cumulative: Vec<f64>,
}

impl Cdf {
    /// `P(X <= right edge of the bin containing x)`; 0 below the range and
    /// the total mass above it.
    pub fn at(&self, x: f64) -> f64 {
        if x < self.binner.lo() {
            return 0.0;
        }
        match self.binner.index_of(x) {
            Some(i) => self.cumulative[i],
            None => *self.cumulative.last().unwrap_or(&0.0),
        }
    }

    /// Smallest bin center whose cumulative probability reaches `p`.
    ///
    /// Returns `None` for `p` outside `(0, 1]` or when the mass never
    /// reaches `p` (possible for sub-normalized PDFs).
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&p) || p == 0.0 {
            return None;
        }
        self.cumulative
            .iter()
            .position(|&c| c >= p)
            .map(|i| self.binner.center(i))
    }

    /// The cumulative values per bin.
    pub fn cumulative(&self) -> &[f64] {
        &self.cumulative
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::OutOfRange;
    use crate::histogram::Histogram;

    fn binner() -> Binner {
        Binner::new(0.0, 100.0, 10.0, OutOfRange::Discard).unwrap()
    }

    fn uniform_pdf() -> Pdf {
        Pdf::from_densities(binner(), vec![0.01; 10]).unwrap()
    }

    #[test]
    fn from_densities_validates() {
        assert!(Pdf::from_densities(binner(), vec![0.01; 9]).is_err());
        assert!(Pdf::from_densities(binner(), vec![-0.01; 10]).is_err());
        let mut bad = vec![0.01; 10];
        bad[3] = f64::NAN;
        assert!(Pdf::from_densities(binner(), bad).is_err());
    }

    #[test]
    fn mass_and_mean_of_uniform() {
        let p = uniform_pdf();
        assert!((p.mass() - 1.0).abs() < 1e-12);
        assert!((p.mean() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn density_at_maps_through_binner() {
        let p = uniform_pdf();
        assert_eq!(p.density_at(55.0), Some(0.01));
        assert_eq!(p.density_at(-1.0), None);
        assert_eq!(p.density_at(100.0), None);
    }

    #[test]
    fn cdf_monotone_and_quantiles() {
        let h = Histogram::from_values(binner(), &[5.0, 15.0, 25.0, 35.0]);
        let cdf = h.to_pdf().unwrap().cdf();
        assert!((cdf.at(9.0) - 0.25).abs() < 1e-12);
        assert!((cdf.at(39.0) - 1.0).abs() < 1e-12);
        assert_eq!(cdf.at(-5.0), 0.0);
        assert!((cdf.at(1e9) - 1.0).abs() < 1e-12);
        assert_eq!(cdf.quantile(0.5), Some(15.0));
        assert_eq!(cdf.quantile(1.0), Some(35.0));
        assert_eq!(cdf.quantile(0.0), None);
        assert_eq!(cdf.quantile(1.5), None);
    }

    #[test]
    fn ratio_of_identical_pdfs_is_one() {
        let p = uniform_pdf();
        let (xs, rs) = p.ratio(&p, RatioPolicy::NaN).unwrap();
        assert_eq!(xs.len(), 10);
        assert!(rs.iter().all(|r| (r - 1.0).abs() < 1e-12));
    }

    #[test]
    fn ratio_policies_handle_zero_denominator() {
        let num = Pdf::from_densities(
            binner(),
            vec![0.02, 0.0, 0.02, 0.0, 0.02, 0.0, 0.02, 0.0, 0.02, 0.0],
        )
        .unwrap();
        let mut d = vec![0.0125; 10];
        d[0] = 0.0; // num nonzero, den zero -> NaN under all non-skip policies
        d[1] = 0.0; // both zero
        let den = Pdf::from_densities(binner(), d).unwrap();

        let (_, rs) = num.ratio(&den, RatioPolicy::NaN).unwrap();
        assert!(rs[0].is_nan());
        assert!(rs[1].is_nan());
        assert!((rs[2] - 1.6).abs() < 1e-12);

        let (_, rs) = num.ratio(&den, RatioPolicy::ZeroOverZeroIsZero).unwrap();
        assert!(rs[0].is_nan());
        assert_eq!(rs[1], 0.0);

        let (xs, rs) = num.ratio(&den, RatioPolicy::Skip).unwrap();
        assert_eq!(xs.len(), 8);
        assert_eq!(rs.len(), 8);
        assert!(rs.iter().all(|r| r.is_finite()));
        // First surviving bin is bin 2 (center 25).
        assert_eq!(xs[0], 25.0);
    }

    #[test]
    fn ratio_rejects_mismatched_grids() {
        let p = uniform_pdf();
        let other = Pdf::from_densities(
            Binner::new(0.0, 100.0, 20.0, OutOfRange::Discard).unwrap(),
            vec![0.01; 5],
        )
        .unwrap();
        assert!(p.ratio(&other, RatioPolicy::NaN).is_err());
    }
}
