//! Statistics substrate for the AutoSens reproduction.
//!
//! The AutoSens methodology (IMC 2021) is built from a small number of
//! classical statistical primitives that have no mature, self-contained Rust
//! implementation: fixed-width histograms and the PDFs derived from them,
//! Savitzky–Golay least-squares smoothing, the von Neumann successive
//! difference test, Pearson correlation, and a handful of distribution samplers.
//! This crate implements all of them from first principles so the rest of the
//! workspace depends only on `rand` and `serde`.
//!
//! Modules:
//!
//! * [`binning`] — fixed-width bin arithmetic shared by histograms and PDFs.
//! * [`histogram`] — weighted histograms over a [`binning::Binner`].
//! * [`pdf`] — probability density functions, CDFs, density ratios.
//! * [`descriptive`] — means, variances, medians, quantiles.
//! * [`succdiff`] — mean successive difference vs. mean absolute difference
//!   (the Figure 1 locality diagnostic) and the von Neumann ratio.
//! * [`correlation`] — Pearson correlation.
//! * [`linalg`] — small dense matrices and linear solves (used by `savgol`).
//! * [`savgol`] — Savitzky–Golay filters computed from first principles.
//! * [`smoothing`] — moving-average and median filters (ablation baselines).
//! * [`dist`] — seeded samplers for Normal/LogNormal/Exponential/Pareto/Poisson.
//! * [`sampling`] — the Fisher–Yates shuffle (Figure 1 baseline).
//! * [`timeseries`] — fixed-window aggregation of timestamped values.
//!
//! All stochastic routines take an explicit `&mut impl Rng`; nothing in this
//! crate reads ambient entropy, so downstream pipelines are reproducible from
//! a seed.

pub mod autocorr;
pub mod binning;
pub mod correlation;
pub mod descriptive;
pub mod dist;
pub mod error;
pub mod histogram;
pub mod linalg;
pub mod pdf;
pub mod sampling;
pub mod savgol;
pub mod smoothing;
pub mod succdiff;
pub mod timeseries;

pub use binning::Binner;
pub use error::StatsError;
pub use histogram::Histogram;
pub use pdf::{Cdf, Pdf, RatioPolicy};
pub use savgol::SavGol;
