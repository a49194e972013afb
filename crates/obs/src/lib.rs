//! # `autosens-obs` — observability for the AutoSens pipeline
//!
//! Three pieces, all vendored-deps-only:
//!
//! * [`span`] — structured tracing: [`Span`] RAII guards with explicit
//!   parent/child nesting, `Instant` wall-clock timing, and typed
//!   key=value fields, collected thread-safely by a [`Recorder`] into a
//!   [`SpanTree`] that renders as an indented text profile or serializes
//!   to JSONL trace events.
//! * [`metrics`] — a [`MetricsRegistry`] of named monotonic counters,
//!   gauges, and fixed-bucket histograms (bucket edges reuse
//!   `autosens-stats` binning), exportable as a JSON
//!   [`MetricsSnapshot`] or Prometheus text exposition format.
//! * [`warn`](mod@warn) — verbosity-gated stderr messages ([`warn!`], [`info!`],
//!   [`debug!`]) that keep machine-readable stdout clean and count every
//!   warning in the global registry.
//! * [`flight`] — a bounded [`FlightRecorder`] ring buffer of structured
//!   runtime events (regime shifts, shed bursts, checkpoint ops) for the
//!   streaming health document.
//!
//! Naming convention for metrics: `autosens_<crate>_<name>`, lower snake
//! case, `_total` suffix on counters.
//!
//! ## Example
//!
//! ```
//! use autosens_obs::{Recorder, MetricsRegistry};
//!
//! let recorder = Recorder::new();
//! let reads = recorder.metrics().counter("autosens_demo_reads_total");
//! {
//!     let mut root = recorder.root("analyze");
//!     let child = root.child("sanitize");
//!     reads.add(42);
//!     drop(child);
//!     root.field("records", 42u64);
//! }
//! let tree = recorder.finish();
//! assert_eq!(tree.count_named("sanitize"), 1);
//! assert!(tree.render().contains("analyze"));
//! assert_eq!(recorder.metrics().snapshot().counter("autosens_demo_reads_total"), Some(42));
//! ```

pub mod flight;
pub mod metrics;
pub mod span;
pub mod warn;

/// Canonical names of cross-crate metrics, so emitters and dashboards agree
/// on spelling. Per-crate metrics keep their names local to the emitting
/// module; only names shared across crate boundaries (or surfaced in docs
/// and CI gates) belong here.
pub mod names {
    /// Rows ingested through the binary container reader.
    pub const INGEST_ROWS_TOTAL: &str = "autosens_ingest_rows_total";
    /// Bytes mapped or copied by the binary container reader.
    pub const INGEST_BYTES_TOTAL: &str = "autosens_ingest_bytes_total";
    /// Container files successfully opened and validated.
    pub const INGEST_CONTAINERS_TOTAL: &str = "autosens_ingest_containers_total";
    /// Container files written by the encoder.
    pub const INGEST_CONTAINERS_WRITTEN_TOTAL: &str = "autosens_ingest_containers_written_total";
    /// Polls of a growing container source by the tail reader.
    pub const INGEST_TAIL_POLLS_TOTAL: &str = "autosens_ingest_tail_polls_total";
}

pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use metrics::{Counter, Gauge, HistogramMetric, MetricsRegistry, MetricsSnapshot};
pub use span::{FieldValue, Recorder, Span, SpanRecord, SpanTree, StageTiming};
pub use warn::{set_verbosity, verbosity, Verbosity};
