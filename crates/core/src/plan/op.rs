//! Stage names: the span, stage-timing, metrics and `Degradation::stage`
//! label of every pipeline stage, each declared once.
//!
//! ## The RNG frontier
//!
//! The pipeline seeds one `StdRng` after sanitize and threads it through
//! the stages in a fixed order. State accumulated *before* the first draw
//! — the `LossCounts` fold of [`LOSSMODEL`] and the `GroupPartition` fold
//! that [`ALPHA`] and [`BIASED_PDF`] read — is a pure, order-insensitive
//! fold over the sanitized records (unit-weight integer histogram
//! additions and `u64` counters), so any chunking of it merges
//! bit-identically to one serial pass. Anything at or past a draw depends
//! on the *global* window (the draw count and instant layout are functions
//! of the window's start/end), so it has no per-chunk or per-shard
//! decomposition that keeps the random sequence. The CI bootstrap is the
//! extreme case: it resamples the final pooled histograms.
//!
//! The streaming engine keeps only what [`SANITIZE`] produces — its
//! sorted, deduplicated row store — and reruns every later stage over it
//! on a dirty snapshot. [`ALPHA`]'s draw-cell table and [`LOSSMODEL`]'s
//! micro-cell scan read every row of the window anyway, so a cached copy
//! of the two pre-draw folds would save only two of several passes over
//! the rows.
//! [`SMOOTHING`] and [`NORMALIZATION`] are pure functions of the pooled
//! histograms; [`CI_BOOTSTRAP`] and [`WINDOWED_CURVE`] draw from RNG
//! streams of their own.

/// Filter / stable sort / exact dedup.
pub const SANITIZE: &str = "sanitize";

/// Per-cell telemetry-loss estimation from in-band evidence.
pub const LOSSMODEL: &str = "lossmodel";

/// Per-group activity-factor (α) estimation: a record→cell fold, then a
/// per-group solve that draws group-conditional unbiased samples.
pub const ALPHA: &str = "alpha";

/// The pooled (α-normalized, loss-weighted) biased latency PDF.
pub const BIASED_PDF: &str = "biased_pdf";

/// The unbiased latency PDF from random draw instants.
pub const UNBIASED_PDF: &str = "unbiased_pdf";

/// Savitzky–Golay smoothing of the B/U ratio.
pub const SMOOTHING: &str = "smoothing";

/// Normalization of the smoothed ratio at the reference latency.
pub const NORMALIZATION: &str = "normalization";

/// The bootstrap confidence band (optional, requested via
/// [`RunOptions`](crate::plan::RunOptions)), on its own RNG stream.
pub const CI_BOOTSTRAP: &str = "ci_bootstrap";

/// The exponentially-decayed windowed curve (optional, requested via
/// [`PreparedMeta::decay`](crate::plan::PreparedMeta::decay)), on its own
/// RNG stream.
pub const WINDOWED_CURVE: &str = "windowed_curve";

/// The always-run stages, in execution order. Every run (with the α
/// correction enabled) traces one span per entry under its `"analyze"`
/// root; [`CI_BOOTSTRAP`] and [`WINDOWED_CURVE`] run only on request.
pub const STAGES: &[&str] = &[
    SANITIZE,
    LOSSMODEL,
    ALPHA,
    BIASED_PDF,
    UNBIASED_PDF,
    SMOOTHING,
    NORMALIZATION,
];
