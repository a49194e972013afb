//! Fixed-width bin arithmetic.
//!
//! AutoSens discretizes latency into fixed-width bins (10 ms in the paper).
//! The [`Binner`] centralizes the mapping between continuous values and bin
//! indices so that histograms, PDFs, and the confounder-normalization
//! machinery all agree bit-for-bit about bin boundaries.

use serde::{Deserialize, Serialize};

use crate::error::{invalid, StatsError};

/// What to do with values that fall outside `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutOfRange {
    /// Silently drop out-of-range values (they are not counted anywhere).
    Discard,
    /// Clamp out-of-range values into the first/last bin.
    Clamp,
}

/// A fixed-width binning of the half-open interval `[lo, hi)`.
///
/// Bin `i` covers `[lo + i*width, lo + (i+1)*width)`. The last bin may be
/// slightly narrower conceptually if `hi - lo` is not an exact multiple of
/// `width`; in that case `hi` is rounded up to the next bin edge so every bin
/// has identical width (this keeps density arithmetic trivial).
///
/// ```
/// use autosens_stats::binning::{Binner, OutOfRange};
///
/// // The paper's latency binning: 10 ms bins over [0, 3000) ms.
/// let b = Binner::latency_ms(3000.0).unwrap();
/// assert_eq!(b.n_bins(), 300);
/// assert_eq!(b.index_of(299.0), Some(29));
/// assert_eq!(b.center(29), 295.0);
/// // Out-of-range samples are discarded under this policy.
/// assert_eq!(b.index_of(3000.0), None);
///
/// let clamping = Binner::new(0.0, 100.0, 10.0, OutOfRange::Clamp).unwrap();
/// assert_eq!(clamping.index_of(1e9), Some(9));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Binner {
    lo: f64,
    width: f64,
    n_bins: usize,
    policy: OutOfRange,
}

impl Binner {
    /// Create a binner over `[lo, hi)` with the given bin `width`.
    ///
    /// `hi` is rounded up to the next multiple of `width` above `lo` so all
    /// bins have equal width. Returns an error if the parameters are
    /// non-finite, `width <= 0`, or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, width: f64, policy: OutOfRange) -> Result<Self, StatsError> {
        if !lo.is_finite() || !hi.is_finite() || !width.is_finite() {
            return Err(StatsError::NonFinite("binner bounds"));
        }
        if width <= 0.0 {
            return Err(invalid("width", format!("must be positive, got {width}")));
        }
        if hi <= lo {
            return Err(invalid("hi", format!("must exceed lo={lo}, got {hi}")));
        }
        // Tolerate floating-point error when the range is an (almost-)exact
        // multiple of the width, e.g. lo=-6484.229, width=0.001: the naive
        // ceil() would add a spurious extra bin.
        let ratio = (hi - lo) / width;
        let nearest = ratio.round();
        let n_bins = if (ratio - nearest).abs() <= 1e-9 * nearest.max(1.0) {
            nearest as usize
        } else {
            ratio.ceil() as usize
        };
        if n_bins == 0 {
            return Err(invalid("width", "produces zero bins"));
        }
        Ok(Binner {
            lo,
            width,
            n_bins,
            policy,
        })
    }

    /// The binning used throughout the AutoSens paper: 10 ms latency bins
    /// over `[0, hi_ms)`, discarding out-of-range samples.
    pub fn latency_ms(hi_ms: f64) -> Result<Self, StatsError> {
        Binner::new(0.0, hi_ms, 10.0, OutOfRange::Discard)
    }

    /// Lower edge of the binned range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the binned range (exclusive).
    pub fn hi(&self) -> f64 {
        self.lo + self.width * self.n_bins as f64
    }

    /// Bin width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// The out-of-range policy.
    pub fn policy(&self) -> OutOfRange {
        self.policy
    }

    /// Map a value to its bin index.
    ///
    /// Returns `None` when the value is NaN, or out of range under the
    /// [`OutOfRange::Discard`] policy.
    pub fn index_of(&self, value: f64) -> Option<usize> {
        if value.is_nan() {
            return None;
        }
        if value < self.lo {
            return match self.policy {
                OutOfRange::Discard => None,
                OutOfRange::Clamp => Some(0),
            };
        }
        let idx = ((value - self.lo) / self.width) as usize;
        if idx >= self.n_bins {
            return match self.policy {
                OutOfRange::Discard => None,
                OutOfRange::Clamp => Some(self.n_bins - 1),
            };
        }
        Some(idx)
    }

    /// Center of bin `i`. Panics if `i` is out of range (caller bug).
    pub fn center(&self, i: usize) -> f64 {
        assert!(
            i < self.n_bins,
            "bin index {i} out of range ({})",
            self.n_bins
        );
        self.lo + (i as f64 + 0.5) * self.width
    }

    /// All bin centers, in order.
    pub fn centers(&self) -> Vec<f64> {
        (0..self.n_bins).map(|i| self.center(i)).collect()
    }

    /// Whether two binners describe the identical binning (same range, width,
    /// bin count). The out-of-range policy is intentionally *not* compared:
    /// densities from a clamping and a discarding binner over the same grid
    /// are still comparable bin-by-bin.
    pub fn same_grid(&self, other: &Binner) -> bool {
        self.lo == other.lo && self.width == other.width && self.n_bins == other.n_bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binner() -> Binner {
        Binner::new(0.0, 100.0, 10.0, OutOfRange::Discard).unwrap()
    }

    #[test]
    fn basic_properties() {
        let b = binner();
        assert_eq!(b.n_bins(), 10);
        assert_eq!(b.lo(), 0.0);
        assert_eq!(b.hi(), 100.0);
        assert_eq!(b.width(), 10.0);
    }

    #[test]
    fn index_of_interior_values() {
        let b = binner();
        assert_eq!(b.index_of(0.0), Some(0));
        assert_eq!(b.index_of(9.999), Some(0));
        assert_eq!(b.index_of(10.0), Some(1));
        assert_eq!(b.index_of(99.999), Some(9));
    }

    #[test]
    fn discard_policy_drops_out_of_range() {
        let b = binner();
        assert_eq!(b.index_of(-0.001), None);
        assert_eq!(b.index_of(100.0), None);
        assert_eq!(b.index_of(f64::NAN), None);
    }

    #[test]
    fn clamp_policy_clamps() {
        let b = Binner::new(0.0, 100.0, 10.0, OutOfRange::Clamp).unwrap();
        assert_eq!(b.index_of(-5.0), Some(0));
        assert_eq!(b.index_of(100.0), Some(9));
        assert_eq!(b.index_of(1e9), Some(9));
        // NaN is still dropped: it has no meaningful bin.
        assert_eq!(b.index_of(f64::NAN), None);
    }

    #[test]
    fn non_multiple_range_rounds_up() {
        let b = Binner::new(0.0, 95.0, 10.0, OutOfRange::Discard).unwrap();
        assert_eq!(b.n_bins(), 10);
        assert_eq!(b.hi(), 100.0);
        assert_eq!(b.index_of(97.0), Some(9));
    }

    #[test]
    fn centers_and_edges() {
        let b = binner();
        assert_eq!(b.center(0), 5.0);
        assert_eq!(b.center(9), 95.0);
        assert_eq!(b.centers().len(), 10);
    }

    #[test]
    fn latency_ms_preset_matches_paper() {
        let b = Binner::latency_ms(3000.0).unwrap();
        assert_eq!(b.width(), 10.0);
        assert_eq!(b.n_bins(), 300);
        assert_eq!(b.index_of(299.0), Some(29));
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Binner::new(0.0, 10.0, 0.0, OutOfRange::Discard).is_err());
        assert!(Binner::new(0.0, 10.0, -1.0, OutOfRange::Discard).is_err());
        assert!(Binner::new(10.0, 10.0, 1.0, OutOfRange::Discard).is_err());
        assert!(Binner::new(10.0, 0.0, 1.0, OutOfRange::Discard).is_err());
        assert!(Binner::new(f64::NAN, 10.0, 1.0, OutOfRange::Discard).is_err());
        assert!(Binner::new(0.0, f64::INFINITY, 1.0, OutOfRange::Discard).is_err());
    }

    #[test]
    fn same_grid_ignores_policy() {
        let a = Binner::new(0.0, 100.0, 10.0, OutOfRange::Discard).unwrap();
        let b = Binner::new(0.0, 100.0, 10.0, OutOfRange::Clamp).unwrap();
        assert!(a.same_grid(&b));
        let c = Binner::new(0.0, 100.0, 20.0, OutOfRange::Discard).unwrap();
        assert!(!a.same_grid(&c));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn center_panics_out_of_range() {
        binner().center(10);
    }

    #[test]
    fn serde_roundtrip() {
        let b = binner();
        let json = serde_json::to_string(&b).unwrap();
        let back: Binner = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }
}
