//! Telemetry substrate for the AutoSens reproduction.
//!
//! AutoSens consumes minimal server-side telemetry: one record per user
//! action, carrying the start timestamp, the action type, the client-measured
//! end-to-end latency, an anonymized user id, and coarse user metadata
//! (paper §2.1). This crate provides that data model plus the machinery the
//! analyses need around it:
//!
//! * [`time`] — millisecond timestamps, hour slots, the paper's four 6-hour
//!   day periods, and months, including per-user local-time handling.
//! * [`record`] — [`record::ActionRecord`] and its enums.
//! * [`log`] — [`log::TelemetryLog`], a time-sorted columnar store that
//!   owns rows, plus [`log::LogView`], the zero-copy view every row query
//!   (range, nearest-in-time, dedup, selection, iteration) goes through.
//! * [`query`] — composable record filters for the paper's analysis slices.
//! * [`users`] — per-user aggregates and the §3.4 median-latency quartiles.
//! * [`codec`] — CSV and JSONL import/export: strict, lenient and tailed
//!   reads share one validating line loop.
//! * [`container`] — the `.asc` binary columnar container: checksummed
//!   on-disk serialization of the column store, memory-mapped back into a
//!   [`log::LogView`] with zero parsing.
//! * [`quality`] — data-quality auditing (loss, duplicates, heaping, nulls).
//! * [`loss`] — per-slot/per-class loss evidence (volume + sequence gaps),
//!   the substrate of loss-aware correction in the analysis pipeline.

pub mod codec;
pub mod container;
pub mod error;
pub mod log;
pub mod loss;
pub mod quality;
pub mod query;
pub mod record;
pub mod time;
pub mod users;

pub use codec::{TailFormat, TailReader};
pub use container::{ContainerTailReader, MappedLog};
pub use error::TelemetryError;
pub use log::{ColumnStore, LogView, TelemetryLog};
pub use record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
pub use time::SimTime;
