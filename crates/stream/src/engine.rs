//! The streaming analysis engine: out-of-order-tolerant intake over
//! time-bucketed shards, with batch-bit-identical snapshots.
//!
//! ## Equivalence with the batch pipeline
//!
//! Batch `analyze` ([`AnalysisPlan::run`] over a log) sanitizes (filter →
//! stable sort → exact dedup) and then runs every downstream stage as a
//! pure function of the sanitized record sequence and the configuration,
//! seeding one
//! `StdRng::seed_from_u64(config.seed)` after sanitize. The engine
//! reconstructs that exact sanitized sequence continuously, in one
//! time-sorted row store:
//!
//! * the slice filter (plus the paper's successes-only restriction) is
//!   applied per record at ingest;
//! * each admitted record is placed at the upper bound of its
//!   equal-timestamp run — arrival order among ties, i.e. the stable-sort
//!   order of the arrival sequence;
//! * exact duplicates (which necessarily share a timestamp) are counted
//!   and dropped at insert, keeping the first arrival exactly as batch
//!   dedup keeps the first post-sort occurrence.
//!
//! A shard is one time bucket's row count. Equal timestamps never span a
//! bucket, so a shard's rows are one contiguous run of the store, in
//! bucket order; the store and the per-bucket counts are all the engine
//! keeps of its data. [`StreamEngine::snapshot`] borrows the store as a
//! sorted view ([`ColumnStore::view`]: no copy, no re-sort) and enters the
//! shared pipeline through the single plan entry point
//! ([`AnalysisPlan::run`](autosens_core::AnalysisPlan::run) with a
//! prepared input that carries only sanitize's bookkeeping), so after
//! draining a finite log the report is **bit-identical** to batch
//! `analyze` on the same log — including degradation bookkeeping and
//! `autosens_core_*` metrics.
//!
//! ## What is incremental and what is not
//!
//! Intake maintains sanitize's output — the sorted, deduplicated rows —
//! one insert at a time. Snapshots are dirty-tracked. The engine caches
//! the last finished report, shared as an [`Arc`], keyed by the intake
//! event counter:
//!
//! * **No events since the last snapshot** → the cached report is
//!   returned (another reference to the same allocation), skipping the
//!   pipeline entirely; `autosens_stream_snapshot_reuse_total` counts
//!   these and [`StreamEngine::last_snapshot_reused`] exposes the flag.
//! * **Dirty** → every stage after sanitize runs over the borrowed store,
//!   exactly as batch runs it over its sanitized view, and the new report
//!   replaces the cached one in a single assignment after the run
//!   succeeds. A failed or panicking run leaves the previous entry, which
//!   is still exact for its own event count.
//!
//! Nothing past sanitize is kept per shard. The paper's `U` draws span the
//! whole window and α compares hour slots across every day of it, so α's
//! draw-cell table and the lossmodel's micro-cell scan read every live
//! row at each dirty snapshot anyway; the pre-draw folds (per-day loss
//! counts, per-cell biased histograms) are two more passes of the same
//! order (see the RNG-frontier notes in [`autosens_core::plan::op`]).
//! Rows are kept once: they are the checkpoint's durable state and every
//! stage's input.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use autosens_core::pipeline::{AnalysisReport, DecaySpec, Degradation};
use autosens_core::{
    AnalysisPlan, AutoSensConfig, AutoSensError, PlanInput, PreparedMeta, RunOptions,
};
use autosens_obs::{Counter, FlightKind, FlightRecorder, Gauge, Recorder};
use autosens_telemetry::log::{ColumnStore, RowKey};
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::ActionRecord;
use autosens_telemetry::time::SimTime;

use crate::detector::{detect_regimes, DetectorConfig, RegimeShift};
use crate::error::StreamError;

/// Retained flight-recorder events (see [`FlightRecorder`]).
const FLIGHT_CAPACITY: usize = 256;

/// Streaming layer configuration on top of the analysis configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// The analysis configuration snapshots run under (also defines the
    /// histogram binner and confounder grouping).
    pub analysis: AutoSensConfig,
    /// Event-time width of one shard, ms. Equal timestamps always share a
    /// shard; smaller shards bound the insert shift of late arrivals.
    pub shard_ms: i64,
    /// How far behind the event-time frontier (max event time seen) a
    /// record may arrive and still be admitted. Older records are
    /// counted-and-dropped, never silently lost.
    pub allowed_lateness_ms: i64,
    /// Optional sliding-window retention: shards entirely older than
    /// `frontier - retain_ms` are evicted (with their records counted).
    /// `None` keeps everything — required for batch equivalence over a
    /// full log.
    pub retain_ms: Option<i64>,
    /// Optional online regime-shift detector (see
    /// [`DetectorConfig`]); `None` disables detection. Detection never
    /// perturbs the analysis — [`StreamEngine::run_detection`] is a
    /// separate, side-effect-free-on-the-report pass.
    #[serde(default)]
    pub detector: Option<DetectorConfig>,
    /// Optional half-life (event-time ms) for the exponentially-decayed
    /// windowed preference curve computed alongside the lifetime curve at
    /// every snapshot; `None` disables the windowed curve. Either way the
    /// lifetime curve's bytes are untouched.
    #[serde(default)]
    pub decay_half_life_ms: Option<i64>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            analysis: AutoSensConfig::default(),
            shard_ms: 3_600_000,
            allowed_lateness_ms: 3_600_000,
            retain_ms: None,
            detector: None,
            decay_half_life_ms: None,
        }
    }
}

impl StreamConfig {
    fn validate(&self) -> Result<(), StreamError> {
        if self.shard_ms <= 0 {
            return Err(StreamError::Corrupt(format!(
                "shard_ms must be > 0, got {}",
                self.shard_ms
            )));
        }
        if self.allowed_lateness_ms < 0 {
            return Err(StreamError::Corrupt(format!(
                "allowed_lateness_ms must be >= 0, got {}",
                self.allowed_lateness_ms
            )));
        }
        if let Some(retain) = self.retain_ms {
            if retain <= 0 {
                return Err(StreamError::Corrupt(format!(
                    "retain_ms must be > 0 when set, got {retain}"
                )));
            }
        }
        if let Some(det) = &self.detector {
            det.validate()?;
        }
        if let Some(hl) = self.decay_half_life_ms {
            if hl <= 0 {
                return Err(StreamError::Corrupt(format!(
                    "decay_half_life_ms must be > 0 when set, got {hl}"
                )));
            }
        }
        Ok(())
    }
}

/// What happened to one record offered to [`StreamEngine::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// Admitted into a shard.
    Admitted,
    /// Excluded by the slice filter (or a non-success outcome).
    Filtered,
    /// Arrived past the low-watermark; counted and dropped.
    Late,
    /// Exact duplicate of an already-admitted record; counted and dropped.
    Duplicate,
}

/// A point-in-time summary of the engine's intake counters and store shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamStatus {
    /// Records offered to the engine (before filtering).
    pub events: u64,
    /// Records excluded by the slice filter.
    pub filtered: u64,
    /// Records dropped past the watermark.
    pub late: u64,
    /// Exact duplicates dropped at insert.
    pub duplicates: u64,
    /// Records dropped with evicted shards (sliding window only).
    pub evicted: u64,
    /// Records currently held across live shards.
    pub live_records: u64,
    /// Live shard count.
    pub shards: usize,
    /// Actions per local hour slot across live shards.
    pub hour_counts: [u64; 24],
    /// The event-time frontier (max event time admitted), if any.
    pub max_event_time_ms: Option<i64>,
    /// The current low-watermark (`frontier - allowed_lateness_ms`).
    pub watermark_ms: Option<i64>,
}

/// The snapshot cache: the last finished report and the intake event
/// counter it was computed at. `events` is the dirty key — any offered
/// event (admitted or not) conservatively invalidates the report.
#[derive(Debug)]
struct SnapCache {
    events: u64,
    report: Arc<AnalysisReport>,
}

/// The streaming ingestion + incremental analysis engine. See the module
/// docs for the equivalence argument.
#[derive(Debug)]
pub struct StreamEngine {
    plan: AnalysisPlan,
    config: StreamConfig,
    slice: Slice,
    filter: Slice,
    /// Every live admitted row, time-sorted and arrival-stable among equal
    /// timestamps. Each shard's rows are one contiguous run, in bucket
    /// order.
    store: ColumnStore,
    /// Rows per live time bucket (`time_ms.div_euclid(shard_ms)`), in
    /// bucket order: the shards.
    shards: BTreeMap<i64, usize>,
    max_event_time: Option<i64>,
    last_arrival: Option<i64>,
    saw_out_of_order: bool,
    events: u64,
    filtered: u64,
    late: u64,
    duplicates: u64,
    evicted: u64,
    records_in: u64,
    /// Fleet-wide actions per local hour slot, maintained on admit/evict
    /// so [`StreamEngine::status`] is O(1).
    hour_counts: [u64; 24],
    /// The dirty-tracked snapshot cache (interior mutability: snapshots
    /// take `&self`). A `parking_lot` lock does not poison, and the entry
    /// is only ever replaced whole, so a panic mid-snapshot cannot break
    /// the tenant.
    snap: Mutex<Option<SnapCache>>,
    /// Whether the latest snapshot was served from the cache.
    last_snapshot_reused: AtomicBool,
    flight: FlightRecorder,
    /// Open run of consecutive late drops, folded into one
    /// [`FlightKind::LateDropBurst`] event when the run ends.
    open_late_burst: u64,
    /// (stream, signal, bucket_start_ms) of shifts already emitted to
    /// metrics / spans / the flight recorder — detection is a full
    /// deterministic recompute, so this set keeps re-runs from
    /// double-counting. Operational memory, not checkpointed (a restored
    /// process re-emits, exactly like the flight recorder starts empty).
    emitted_shifts: BTreeSet<(String, String, i64)>,
    last_shifts: Vec<RegimeShift>,
    /// Whether the latest snapshot had the loss-correction gate open
    /// (interior mutability: snapshots take `&self`). Edge-triggers one
    /// [`FlightKind::LossGateTrip`] event per open, not one per snapshot.
    loss_gate_open: std::sync::atomic::AtomicBool,
    /// The two series on every push's common path, resolved once:
    /// `autosens_stream_events_total` and
    /// `autosens_stream_watermark_lag_ms`. The rarer outcomes' series
    /// (filtered, late, duplicate) register on their first event.
    events_total: Counter,
    watermark_lag: Gauge,
}

impl StreamEngine {
    /// Create an engine analyzing `slice` (successes only, as batch does)
    /// under `config`, recording spans and metrics into `recorder`.
    pub fn with_recorder(
        config: StreamConfig,
        slice: Slice,
        recorder: Recorder,
    ) -> Result<StreamEngine, StreamError> {
        config.validate()?;
        config.analysis.binner()?;
        let filter = slice.clone().successes();
        let metrics = recorder.metrics();
        let events_total = metrics.counter("autosens_stream_events_total");
        let watermark_lag = metrics.gauge("autosens_stream_watermark_lag_ms");
        Ok(StreamEngine {
            plan: AnalysisPlan::with_recorder(config.analysis.clone(), recorder),
            config,
            slice,
            filter,
            store: ColumnStore::new(),
            shards: BTreeMap::new(),
            max_event_time: None,
            last_arrival: None,
            saw_out_of_order: false,
            events: 0,
            filtered: 0,
            late: 0,
            duplicates: 0,
            evicted: 0,
            records_in: 0,
            hour_counts: [0u64; 24],
            snap: Mutex::new(None),
            last_snapshot_reused: AtomicBool::new(false),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
            open_late_burst: 0,
            emitted_shifts: BTreeSet::new(),
            last_shifts: Vec::new(),
            loss_gate_open: std::sync::atomic::AtomicBool::new(false),
            events_total,
            watermark_lag,
        })
    }

    /// [`StreamEngine::with_recorder`] with a disabled recorder.
    pub fn new(config: StreamConfig, slice: Slice) -> Result<StreamEngine, StreamError> {
        StreamEngine::with_recorder(config, slice, Recorder::disabled())
    }

    /// The streaming configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The analysis recorder (its metrics registry carries the
    /// `autosens_stream_*` and `autosens_core_*` counters).
    pub fn recorder(&self) -> &Recorder {
        self.plan.recorder()
    }

    /// Offer one arriving record. Returns what happened to it; the
    /// outcome is always counted in the `autosens_stream_*` metrics, so
    /// degraded intake is visible, never silent.
    pub fn push(&mut self, r: ActionRecord) -> Ingest {
        self.events += 1;
        self.events_total.inc();

        // Arrival-order bookkeeping mirrors batch sanitize's is_sorted
        // check on the raw input sequence (before any filtering).
        if let Some(prev) = self.last_arrival {
            if r.time.millis() < prev {
                self.saw_out_of_order = true;
            }
        }
        self.last_arrival = Some(r.time.millis());

        if !self.filter.matches(&r) {
            self.filtered += 1;
            self.count("autosens_stream_filtered_events_total");
            return Ingest::Filtered;
        }

        let t = r.time.millis();
        if let Some(frontier) = self.max_event_time {
            let watermark = frontier - self.config.allowed_lateness_ms;
            if t < watermark {
                self.late += 1;
                self.open_late_burst += 1;
                self.count("autosens_stream_late_events_total");
                return Ingest::Late;
            }
            self.close_late_burst(frontier);
            self.watermark_lag.set((frontier - t).max(0) as f64);
        } else {
            self.watermark_lag.set(0.0);
        }
        self.max_event_time = Some(self.max_event_time.unwrap_or(t).max(t));

        self.records_in += 1;
        if !self.insert_row(&r) {
            self.duplicates += 1;
            self.count("autosens_stream_duplicate_events_total");
            return Ingest::Duplicate;
        }
        *self
            .shards
            .entry(t.div_euclid(self.config.shard_ms))
            .or_insert(0) += 1;
        self.hour_counts[r.hour_slot().0 as usize] += 1;

        if let Some(retain) = self.config.retain_ms {
            self.evict_older_than(self.max_event_time.unwrap_or(t) - retain);
        }
        Ingest::Admitted
    }

    /// Bump a counter looked up by name: the outcomes that are rare enough
    /// to register their series on first use.
    fn count(&self, name: &str) {
        self.plan.recorder().metrics().counter(name).inc();
    }

    /// Insert a row at the upper bound of its equal-timestamp run
    /// (preserving arrival order among ties, like a stable sort of the
    /// arrival sequence), unless an exact duplicate already sits in that
    /// run. Returns `false` for the dropped duplicate.
    fn insert_row(&mut self, r: &ActionRecord) -> bool {
        let times = self.store.times();
        let t = r.time.millis();
        let idx = times.partition_point(|&x| x <= t);
        if idx > 0 && times[idx - 1] == t {
            let run_start = times[..idx].partition_point(|&x| x < t);
            let (view, key) = (self.store.view(true), RowKey::from(r));
            if (run_start..idx).any(|j| view.row_key(j) == key) {
                return false;
            }
        }
        self.store.insert(idx, r);
        true
    }

    /// Evict shards whose bucket ends at or before `cutoff_ms`, dropping
    /// their rows (a prefix of the store) with them.
    fn evict_older_than(&mut self, cutoff_ms: i64) {
        let mut rows = 0usize;
        // BTreeMap iterates in bucket order; stop at the first live shard.
        while let Some((&bucket, &n)) = self.shards.first_key_value() {
            if (bucket + 1) * self.config.shard_ms > cutoff_ms {
                break;
            }
            rows += n;
            self.shards.remove(&bucket);
        }
        if rows == 0 {
            return;
        }
        let (times, tzs) = (self.store.times(), self.store.tz_offsets());
        for i in 0..rows {
            self.hour_counts[SimTime(times[i]).hour_slot_local(tzs[i]).0 as usize] -= 1;
        }
        self.store.drain_front(rows);
        self.evicted += rows as u64;
        self.plan
            .recorder()
            .metrics()
            .counter("autosens_stream_evicted_records_total")
            .add(rows as u64);
    }

    /// Close an open run of consecutive late drops into one flight event.
    fn close_late_burst(&mut self, at_ms: i64) {
        if self.open_late_burst > 0 {
            self.flight.record(
                FlightKind::LateDropBurst,
                at_ms,
                format!(
                    "{} consecutive events past the watermark",
                    self.open_late_burst
                ),
            );
            self.open_late_burst = 0;
        }
    }

    /// The engine's flight recorder: a bounded ring of structured runtime
    /// events (regime shifts, late-drop bursts, checkpoint ops). Cloning
    /// the handle is cheap; the ring is shared. Deliberately not carried
    /// through checkpoint/restore — see [`FlightRecorder`]'s module docs.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The shifts found by the most recent [`StreamEngine::run_detection`].
    pub fn last_shifts(&self) -> &[RegimeShift] {
        &self.last_shifts
    }

    /// Per-shard watermark lag: `(bucket_start_ms, records, lag_ms)` where
    /// `lag_ms` is how far the shard's newest record trails the frontier.
    pub fn shard_lags(&self) -> Vec<(i64, u64, i64)> {
        let frontier = self.max_event_time.unwrap_or(0);
        let times = self.store.times();
        let mut end = 0usize;
        self.shards
            .iter()
            .map(|(&bucket, &rows)| {
                end += rows;
                let newest = if rows == 0 { frontier } else { times[end - 1] };
                (
                    bucket * self.config.shard_ms,
                    rows as u64,
                    (frontier - newest).max(0),
                )
            })
            .collect()
    }

    /// Run the online regime-shift detector over the live window (a no-op
    /// returning no shifts when [`StreamConfig::detector`] is `None`).
    ///
    /// Detection is a full deterministic recompute over the merged
    /// time-sorted view — a pure function of the admitted records and the
    /// detector config, so any thread count, restart, or replay produces
    /// bit-identical shifts. Shifts not seen before are emitted once each:
    /// an `autosens_regime_shift_total{stream=…}` counter increment, a
    /// shared/local classification counter, a `regime_shift` span, and a
    /// flight-recorder event; per-stream `autosens_regime_state` gauges
    /// track each stream's running shift count.
    pub fn run_detection(&mut self) -> Result<Vec<RegimeShift>, StreamError> {
        let Some(det) = self.config.detector.clone() else {
            self.last_shifts.clear();
            return Ok(Vec::new());
        };
        let shifts = detect_regimes(
            self.store.times(),
            self.store.latencies(),
            self.store.actions(),
            &det,
        )?;

        let recorder = self.plan.recorder();
        let metrics = recorder.metrics();
        let mut per_stream: BTreeMap<&str, u64> = BTreeMap::new();
        for s in &shifts {
            *per_stream.entry(s.stream.as_str()).or_default() += 1;
            let key = (s.stream.clone(), s.signal.clone(), s.bucket_start_ms);
            if !self.emitted_shifts.insert(key) {
                continue;
            }
            metrics
                .counter_labeled("autosens_regime_shift_total", &[("stream", &s.stream)])
                .inc();
            metrics
                .counter(if s.shared {
                    "autosens_regime_shared_total"
                } else {
                    "autosens_regime_local_total"
                })
                .inc();
            let mut span = recorder.root("regime_shift");
            span.field("stream", s.stream.clone());
            span.field("signal", s.signal.clone());
            span.field("direction", s.direction.clone());
            span.field("bucket_start_ms", s.bucket_start_ms as u64);
            span.field("magnitude_z", s.magnitude_z);
            span.field("shared", u64::from(s.shared));
            span.finish();
            self.flight.record(
                FlightKind::RegimeShift,
                s.detected_at_ms,
                format!(
                    "stream={} signal={} dir={} z={:.1}{}",
                    s.stream,
                    s.signal,
                    s.direction,
                    s.magnitude_z,
                    if s.shared { " shared" } else { "" }
                ),
            );
        }
        for (stream, count) in per_stream {
            metrics
                .gauge_labeled("autosens_regime_state", &[("stream", stream)])
                .set(count as f64);
        }
        self.last_shifts = shifts.clone();
        Ok(shifts)
    }

    /// The current intake counters and store shape. O(1): the hour
    /// counters are maintained incrementally on admit/evict and the live
    /// record count is the store's length, not recomputed by walking the
    /// shards.
    pub fn status(&self) -> StreamStatus {
        StreamStatus {
            events: self.events,
            filtered: self.filtered,
            late: self.late,
            duplicates: self.duplicates,
            evicted: self.evicted,
            live_records: self.store.len() as u64,
            shards: self.shards.len(),
            hour_counts: self.hour_counts,
            max_event_time_ms: self.max_event_time,
            watermark_ms: self
                .max_event_time
                .map(|t| t - self.config.allowed_lateness_ms),
        }
    }

    /// Records offered to the engine so far (the snapshot cache's dirty
    /// key: an unchanged count means the cached report is still exact).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Whether the most recent [`StreamEngine::snapshot`] was served from
    /// the cache (no events since the snapshot before it).
    pub fn last_snapshot_reused(&self) -> bool {
        self.last_snapshot_reused.load(Ordering::Relaxed)
    }

    /// Analyze the live window: the shared post-sanitize pipeline over a
    /// borrowed view of the row store. After draining a finite log (no
    /// lateness drops, no eviction), the result is bit-identical to batch
    /// `analyze` over the same log.
    ///
    /// Snapshots are dirty-tracked (see the module docs): with no events
    /// since the last snapshot the cached report is shared again, and a
    /// dirty snapshot runs the plan over a borrowed view of the row store.
    pub fn snapshot(&self) -> Result<Arc<AnalysisReport>, AutoSensError> {
        let recorder = self.plan.recorder();
        let mut cache = self.snap.lock();
        if let Some(hit) = cache.as_ref().filter(|c| c.events == self.events) {
            recorder
                .metrics()
                .counter("autosens_stream_snapshot_reuse_total")
                .inc();
            self.last_snapshot_reused.store(true, Ordering::Relaxed);
            return Ok(Arc::clone(&hit.report));
        }
        self.last_snapshot_reused.store(false, Ordering::Relaxed);

        let mut span = recorder.root("stream_flush");
        span.field("events", self.events);
        span.field("shards", self.shards.len());
        span.field("records", self.store.len());

        // Degradations in the order batch sanitize reports them, plus the
        // streaming-only lateness drop (absent in the equivalence regime).
        let mut degradations = Vec::new();
        if self.saw_out_of_order {
            degradations.push(Degradation::resorted());
        }
        if self.duplicates > 0 {
            degradations.push(Degradation::duplicates_removed(self.duplicates));
        }
        if self.late > 0 {
            degradations.push(Degradation {
                stage: "stream".into(),
                detail: format!(
                    "{} events arrived past the {} ms watermark and were dropped",
                    self.late, self.config.allowed_lateness_ms
                ),
            });
        }
        if self.evicted > 0 {
            degradations.push(Degradation {
                stage: "stream".into(),
                detail: format!(
                    "{} records evicted by the sliding window; the curve covers the live window only",
                    self.evicted
                ),
            });
        }

        recorder
            .metrics()
            .counter("autosens_stream_flushes_total")
            .inc();
        span.finish();

        // The windowed decayed curve anchors its frontier at the event-time
        // frontier, so an idle stream's windowed mass keeps decaying between
        // snapshots of the same data only if new (filtered) events advance
        // the frontier — a pure function of the stream contents either way.
        let decay = self
            .config
            .decay_half_life_ms
            .map(|half_life_ms| DecaySpec {
                half_life_ms,
                frontier_ms: self.max_event_time.unwrap_or(0),
            });

        let meta = PreparedMeta {
            degradations,
            records_in: self.records_in as usize,
            records_dropped: self.duplicates as usize,
            decay,
        };
        let view = self.store.view(true);
        let report = self
            .plan
            .run(PlanInput::prepared(&view, meta), RunOptions::default())?
            .report;
        match &report.loss {
            Some(loss) => {
                if !self.loss_gate_open.swap(true, Ordering::Relaxed) {
                    self.flight.record(
                        FlightKind::LossGateTrip,
                        self.max_event_time.unwrap_or(0),
                        format!(
                            "overall rate {:.3}, {} cells flagged",
                            loss.overall_rate,
                            loss.cells.len()
                        ),
                    );
                }
            }
            None => self.loss_gate_open.store(false, Ordering::Relaxed),
        }
        let report = Arc::new(report);
        *cache = Some(SnapCache {
            events: self.events,
            report: Arc::clone(&report),
        });
        Ok(report)
    }

    /// Serialize the engine's durable state: the intake counters and the
    /// rows, sliced out of the store shard by shard (see
    /// [`crate::checkpoint`]). `source_offset` is the tailed file's
    /// checkpointed byte offset (pass 0 when not tailing a file).
    pub fn checkpoint(&self, source_offset: u64) -> crate::checkpoint::Checkpoint {
        self.flight.record(
            FlightKind::CheckpointSaved,
            self.max_event_time.unwrap_or(0),
            format!("{} shards, offset {source_offset}", self.shards.len()),
        );
        crate::checkpoint::Checkpoint {
            version: crate::checkpoint::CHECKPOINT_VERSION,
            config: self.config.clone(),
            max_event_time_ms: self.max_event_time,
            last_arrival_ms: self.last_arrival,
            saw_out_of_order: self.saw_out_of_order,
            events: self.events,
            filtered: self.filtered,
            late: self.late,
            duplicates: self.duplicates,
            evicted: self.evicted,
            records_in: self.records_in,
            source_offset,
            shards: self
                .shards
                .iter()
                .scan(0usize, |start, (&bucket, &n)| {
                    let rows = *start..*start + n;
                    *start = rows.end;
                    Some(crate::checkpoint::ShardCheckpoint {
                        bucket,
                        records: rows.map(|i| self.store.get(i)).collect(),
                    })
                })
                .collect(),
        }
    }

    /// Rebuild an engine from a checkpoint, resuming mid-flight: every
    /// record is validated ([`ActionRecord::validate`]) and appended to the
    /// store, and each shard's rows are counted. The slice is not
    /// serialized (it can hold arbitrary user sets); the caller re-supplies
    /// the slice it checkpointed under.
    pub fn restore(
        checkpoint: crate::checkpoint::Checkpoint,
        slice: Slice,
        recorder: Recorder,
    ) -> Result<StreamEngine, StreamError> {
        checkpoint.validate()?;
        let mut engine = StreamEngine::with_recorder(checkpoint.config, slice, recorder)?;
        let rows = checkpoint.shards.iter().map(|sc| sc.records.len()).sum();
        engine.store = ColumnStore::with_capacity(rows);
        // Buckets are strictly increasing (validated above) and every
        // shard's rows are sorted and inside their bucket (checked
        // below), so appending shard by shard keeps the store sorted.
        for sc in checkpoint.shards {
            let corrupt = |detail| StreamError::Corrupt(format!("shard {}: {detail}", sc.bucket));
            for (i, r) in sc.records.iter().enumerate() {
                r.validate().map_err(|e| corrupt(e.to_string()))?;
                if i > 0 && r.time < sc.records[i - 1].time {
                    return Err(corrupt("records are not time-sorted".into()));
                }
                if r.time.millis().div_euclid(engine.config.shard_ms) != sc.bucket {
                    let at = r.time.millis();
                    return Err(corrupt(format!("record at {at} ms is outside the shard")));
                }
                engine.store.push(r);
                engine.hour_counts[r.hour_slot().0 as usize] += 1;
            }
            engine.shards.insert(sc.bucket, sc.records.len());
        }
        engine.max_event_time = checkpoint.max_event_time_ms;
        engine.last_arrival = checkpoint.last_arrival_ms;
        engine.saw_out_of_order = checkpoint.saw_out_of_order;
        engine.events = checkpoint.events;
        engine.filtered = checkpoint.filtered;
        engine.late = checkpoint.late;
        engine.duplicates = checkpoint.duplicates;
        engine.evicted = checkpoint.evicted;
        engine.records_in = checkpoint.records_in;
        // The flight recorder starts empty by design (operational memory of
        // this process); the restore itself is its first entry.
        engine.flight.record(
            FlightKind::CheckpointRestored,
            engine.max_event_time.unwrap_or(0),
            format!("{} shards", engine.shards.len()),
        );
        Ok(engine)
    }

    /// The slice this engine was created with (handy for labels).
    pub fn slice(&self) -> &Slice {
        &self.slice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosens_sim::{generate, Scenario, SimConfig};
    use autosens_telemetry::record::{ActionType, Outcome, UserClass, UserId};
    use autosens_telemetry::time::SimTime;

    fn rec(t: i64, latency: f64, user: u64) -> ActionRecord {
        ActionRecord {
            time: SimTime(t),
            action: ActionType::SelectMail,
            latency_ms: latency,
            user: UserId(user),
            class: UserClass::Business,
            tz_offset_ms: 0,
            outcome: Outcome::Success,
        }
    }

    fn engine() -> StreamEngine {
        StreamEngine::new(StreamConfig::default(), Slice::all()).unwrap()
    }

    #[test]
    fn inserts_sort_by_time_and_keep_arrival_order_on_ties() {
        let mut engine = engine();
        for r in [
            rec(2000, 10.0, 1),
            rec(1000, 20.0, 2),
            rec(2000, 30.0, 3),
            rec(2000, 40.0, 4),
        ] {
            assert_eq!(engine.push(r), Ingest::Admitted);
        }
        // Time order first; the three t=2000 arrivals keep arrival order.
        assert_eq!(engine.store.users(), &[2, 1, 3, 4]);
    }

    #[test]
    fn exact_duplicates_are_rejected_keep_first() {
        let mut engine = engine();
        let r = rec(1000, 10.0, 1);
        assert_eq!(engine.push(r), Ingest::Admitted);
        assert_eq!(engine.push(r), Ingest::Duplicate);
        // Same time, different latency: not a duplicate.
        assert_eq!(engine.push(rec(1000, 11.0, 1)), Ingest::Admitted);
        // Duplicates are counted nowhere: not in the store the snapshot
        // reads, the shard's row count or the hour counters.
        assert_eq!(engine.store.len(), 2);
        assert_eq!(engine.shards[&0], 2);
        assert_eq!(engine.status().hour_counts.iter().sum::<u64>(), 2);
    }

    /// A panic while the snapshot lock is held must not break the engine:
    /// the next snapshot still answers, and answers exactly.
    #[test]
    fn a_panic_under_the_snapshot_lock_leaves_snapshots_exact() {
        let (log, _) = generate(&SimConfig::scenario(Scenario::Smoke)).unwrap();
        let cfg = StreamConfig {
            shard_ms: 6 * 3_600_000,
            ..StreamConfig::default()
        };
        let feed = |engine: &mut StreamEngine| {
            for r in log.view().iter() {
                engine.push(r);
            }
        };
        let mut engine = StreamEngine::new(cfg.clone(), Slice::all()).unwrap();
        feed(&mut engine);
        engine.snapshot().unwrap();
        let snap = &engine.snap;
        let joined = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = snap.lock();
                panic!("injected panic under the snapshot lock");
            })
            .join()
        });
        assert!(joined.is_err(), "the injected panic did not happen");

        let after = engine.snapshot().unwrap();
        let mut fresh = StreamEngine::new(cfg, Slice::all()).unwrap();
        feed(&mut fresh);
        let expected = fresh.snapshot().unwrap();
        let bits = |r: &AnalysisReport| {
            let series: Vec<(u64, u64)> = r
                .preference
                .series()
                .iter()
                .map(|(x, y)| (x.to_bits(), y.to_bits()))
                .collect();
            let biased: Vec<u64> = r.biased.counts().iter().map(|c| c.to_bits()).collect();
            let unbiased: Vec<u64> = r.unbiased.counts().iter().map(|c| c.to_bits()).collect();
            (r.n_actions, series, biased, unbiased)
        };
        assert_eq!(bits(&after), bits(&expected));
    }

    /// The O(1) status counters and the shard row counts (maintained on
    /// admit/evict) must equal a full walk of the store's rows at every
    /// point of an insert/evict interleaving.
    #[test]
    fn incremental_status_counters_match_a_store_walk() {
        let (log, _) = generate(&SimConfig::scenario(Scenario::Smoke)).unwrap();
        let cfg = StreamConfig {
            shard_ms: 6 * 3_600_000,
            retain_ms: Some(3 * 24 * 3_600_000), // force evictions mid-run
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::new(cfg, Slice::all()).unwrap();
        let check = |engine: &StreamEngine| {
            let mut hour_counts = [0u64; 24];
            for r in engine.store.to_records() {
                hour_counts[r.hour_slot().0 as usize] += 1;
            }
            let status = engine.status();
            let shard_rows: usize = engine.shards.values().sum();
            assert_eq!(status.live_records, shard_rows as u64, "shard rows drifted");
            assert_eq!(status.hour_counts, hour_counts, "hour_counts drifted");
        };
        for (i, r) in log.view().iter().enumerate() {
            engine.push(r);
            if i % 997 == 0 {
                check(&engine);
            }
        }
        check(&engine);
        assert!(
            engine.status().evicted > 0,
            "retention produced no evictions — the evict path went untested"
        );
    }
}
