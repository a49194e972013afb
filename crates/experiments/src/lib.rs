//! Regenerators for every table and figure in the AutoSens paper's
//! evaluation, runnable via the `autosens-experiments` binary.
//!
//! Each artifact module produces an [`artifacts::Artifact`]: the printed
//! rows/series the paper reports, CSV payloads for plotting, and a list of
//! *shape checks* — the qualitative claims the paper makes about that
//! artifact (orderings, monotonicity, flatness), evaluated against this
//! run's measurements and, where applicable, against the simulator's
//! planted ground truth.

pub mod artifacts;
pub mod dataset;

pub use artifacts::{Artifact, ShapeCheck};
pub use dataset::Dataset;
