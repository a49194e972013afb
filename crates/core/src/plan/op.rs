//! Stage names: the span, stage-timing, metrics and `Degradation::stage`
//! label of every pipeline stage, each declared once.
//!
//! ## Why the RNG frontier is the cacheability frontier
//!
//! The pipeline seeds one `StdRng` after sanitize and threads it through
//! the stages in a fixed order. Any state accumulated *before* the first
//! draw is a pure, order-insensitive fold over the sanitized records —
//! unit-weight integer histogram additions and `u64` counters — so
//! per-shard partials of it merge bit-identically to a batch rescan.
//! Anything at or past a draw depends on the *global* window (the draw
//! count and instant layout are functions of the window's start/end), so
//! caching it per shard would change the random sequence and break the
//! bit-equality invariant. The CI bootstrap is the extreme case: it
//! resamples the final pooled histograms, so there is no per-shard
//! decomposition of it at all.
//!
//! Concretely, an incremental caller may cache the sorted, deduplicated
//! shard columns ([`SANITIZE`]), the `LossCounts` fold ([`LOSSMODEL`]) and
//! the `GroupPartition` fold that [`ALPHA`] and [`BIASED_PDF`] read — the
//! pre-draw part of α — bundled as
//! [`PlanPartials`](crate::plan::PlanPartials). [`UNBIASED_PDF`],
//! [`CI_BOOTSTRAP`] and [`WINDOWED_CURVE`] draw from an RNG stream and
//! are recomputed in full on every run; [`SMOOTHING`] and
//! [`NORMALIZATION`] are pure functions of the pooled histograms.

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
