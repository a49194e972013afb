//! Structured tracing spans.
//!
//! A [`Span`] is an RAII guard around one unit of work: it records a name,
//! wall-clock start/duration ([`std::time::Instant`]-based, so monotonic),
//! typed key=value fields, and its parent span. Finished spans accumulate in
//! the [`Recorder`] that created them; [`Recorder::finish`] drains them into
//! a [`SpanTree`] that renders as an indented text profile or serializes as
//! one JSON trace event per line (JSONL).
//!
//! Spans close on drop, so a panic unwinding through an instrumented stage
//! still records the span — the profile of a crashed run shows where it
//! crashed. Parenthood is explicit ([`Span::child`]), not thread-local, so
//! spans can be handed across worker threads without ambient state.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::metrics::MetricsRegistry;

/// A typed span field value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Unsigned integer (counts, sizes).
    U64(u64),
    /// Signed integer (offsets, deltas).
    I64(i64),
    /// Floating point (rates, ratios).
    F64(f64),
    /// Free text (labels, kinds).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// A finished span: the serializable trace event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Span id, unique within its recorder.
    pub id: u64,
    /// Parent span id (`None` for roots).
    pub parent: Option<u64>,
    /// Span name (e.g. `"analyze"`, `"unbiased_pdf"`).
    pub name: String,
    /// Start offset from the recorder's epoch, microseconds.
    pub start_us: u64,
    /// Wall-clock duration, microseconds.
    pub duration_us: u64,
    /// Typed key=value fields attached while the span was open.
    pub fields: Vec<(String, FieldValue)>,
}

impl SpanRecord {
    /// Wall-clock duration in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.duration_us as f64 / 1000.0
    }
}

/// Wall-clock time attributed to one pipeline stage (the
/// `stage_timings` entry on an analysis report).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage name (see the pipeline's documented stage list).
    pub stage: String,
    /// Wall-clock milliseconds spent in the stage.
    pub wall_ms: f64,
}

struct RecorderInner {
    /// When false, finished spans are discarded (timing still works, so
    /// `stage_timings` stays cheap to produce without unbounded buffering).
    collect: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    finished: Mutex<Vec<SpanRecord>>,
    metrics: MetricsRegistry,
}

/// A thread-safe span collector plus the metrics registry spans and
/// counters share. Cloning is cheap (an `Arc` handle).
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("collecting", &self.is_collecting())
            .field("finished_spans", &self.inner.finished.lock().len())
            .finish()
    }
}

impl Recorder {
    fn with_options(collect: bool, metrics: MetricsRegistry) -> Recorder {
        Recorder {
            inner: Arc::new(RecorderInner {
                collect: AtomicBool::new(collect),
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                finished: Mutex::new(Vec::new()),
                metrics,
            }),
        }
    }

    /// A collecting recorder with its own private metrics registry
    /// (what tests want: full isolation).
    pub fn new() -> Recorder {
        Recorder::with_options(true, MetricsRegistry::new())
    }

    /// A collecting recorder that shares the given registry (what the CLI
    /// wants: codec/sim counters and pipeline counters in one snapshot).
    pub fn with_registry(metrics: MetricsRegistry) -> Recorder {
        Recorder::with_options(true, metrics)
    }

    /// A non-collecting recorder: spans still time their work (so stage
    /// timings are available from [`Span::finish`]) but nothing is buffered.
    /// The default for library callers that never drain the trace.
    pub fn disabled() -> Recorder {
        Recorder::with_options(false, MetricsRegistry::new())
    }

    /// The process-wide recorder used by instrumentation in crates that
    /// have no handle to thread (telemetry codecs, the simulator). Starts
    /// non-collecting; the CLI enables collection for `--profile` runs.
    pub fn global() -> &'static Recorder {
        use std::sync::OnceLock;
        static GLOBAL: OnceLock<Recorder> = OnceLock::new();
        GLOBAL.get_or_init(|| Recorder::with_options(false, MetricsRegistry::global().clone()))
    }

    /// Whether finished spans are being buffered.
    pub fn is_collecting(&self) -> bool {
        self.inner.collect.load(Ordering::Relaxed)
    }

    /// Turn span buffering on or off (counters are unaffected).
    pub fn set_collecting(&self, on: bool) {
        self.inner.collect.store(on, Ordering::Relaxed);
    }

    /// The metrics registry shared by this recorder's instrumentation.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Open a root span.
    pub fn root(&self, name: impl Into<String>) -> Span {
        self.open(name.into(), None)
    }

    fn open(&self, name: String, parent: Option<u64>) -> Span {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        Span {
            recorder: self.clone(),
            id,
            parent,
            name,
            start: Instant::now(),
            fields: Vec::new(),
            closed: false,
        }
    }

    fn record(&self, rec: SpanRecord) {
        if self.is_collecting() {
            self.inner.finished.lock().push(rec);
        }
    }

    /// Drain every finished span into a [`SpanTree`] (oldest first).
    pub fn finish(&self) -> SpanTree {
        let mut spans = std::mem::take(&mut *self.inner.finished.lock());
        spans.sort_by_key(|s| s.start_us);
        SpanTree { spans }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// An open span; closes (and records itself) on drop. See the module docs.
#[derive(Debug)]
pub struct Span {
    recorder: Recorder,
    id: u64,
    parent: Option<u64>,
    name: String,
    start: Instant,
    fields: Vec<(String, FieldValue)>,
    closed: bool,
}

impl Span {
    /// A span whose recorder discards everything: for default code paths
    /// that only need [`Span::finish`]'s timing.
    pub fn noop(name: impl Into<String>) -> Span {
        Recorder::disabled().root(name)
    }

    /// Open a child span (same recorder, this span as parent).
    pub fn child(&self, name: impl Into<String>) -> Span {
        self.recorder.open(name.into(), Some(self.id))
    }

    /// Attach a typed key=value field.
    pub fn field(&mut self, key: impl Into<String>, value: impl Into<FieldValue>) {
        self.fields.push((key.into(), value.into()));
    }

    /// The span's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Wall-clock milliseconds since the span opened.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1000.0
    }

    /// Close the span now, returning its wall-clock duration in
    /// milliseconds (drop closes too; `finish` is for callers that want
    /// the timing back, e.g. to build `stage_timings`).
    pub fn finish(mut self) -> f64 {
        // `close` sets `closed`, so the Drop impl will not double-record.
        self.close()
    }

    fn close(&mut self) -> f64 {
        if self.closed {
            return 0.0;
        }
        self.closed = true;
        let start_us = self
            .start
            .duration_since(self.recorder.inner.epoch)
            .as_micros() as u64;
        let duration_us = self.start.elapsed().as_micros() as u64;
        self.recorder.record(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_us,
            duration_us,
            fields: std::mem::take(&mut self.fields),
        });
        duration_us as f64 / 1000.0
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// The finished spans of one trace, ordered by start time.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTree {
    spans: Vec<SpanRecord>,
}

impl SpanTree {
    /// All spans, oldest first.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Whether no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// How many spans carry this name.
    pub fn count_named(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Render the indented text profile: one line per span, children
    /// indented under parents, with duration and share of the enclosing
    /// root, fields appended as `key=value`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let roots: Vec<&SpanRecord> = self.spans.iter().filter(|s| s.parent.is_none()).collect();
        for root in roots {
            self.render_into(&mut out, root, 0, root.duration_us.max(1));
        }
        out
    }

    fn render_into(&self, out: &mut String, span: &SpanRecord, depth: usize, root_us: u64) {
        let share = 100.0 * span.duration_us as f64 / root_us as f64;
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{indent}{:<width$} {:>10.3} ms  {share:>5.1}%",
            span.name,
            span.wall_ms(),
            width = 24usize.saturating_sub(2 * depth).max(1),
        ));
        for (k, v) in &span.fields {
            out.push_str(&format!("  {k}={v}"));
        }
        out.push('\n');
        for child in self.spans.iter().filter(|s| s.parent == Some(span.id)) {
            self.render_into(out, child, depth + 1, root_us);
        }
    }

    /// Serialize as JSONL trace events: one JSON object per span, in start
    /// order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            // Spans are plain data; the vendored serializer cannot fail.
            out.push_str(&serde_json::to_string(span).expect("span serializes"));
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL trace produced by [`SpanTree::to_jsonl`].
    pub fn from_jsonl(text: &str) -> Result<SpanTree, String> {
        let mut spans = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let span: SpanRecord =
                serde_json::from_str(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
            spans.push(span);
        }
        Ok(SpanTree { spans })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render() {
        let rec = Recorder::new();
        {
            let mut root = rec.root("analyze");
            root.field("records", 123usize);
            {
                let child = root.child("sanitize");
                let grandchild = child.child("dedup");
                drop(grandchild);
            }
        }
        let tree = rec.finish();
        assert_eq!(tree.len(), 3);
        assert_eq!(tree.count_named("analyze"), 1);
        let rendered = tree.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert!(lines[0].starts_with("analyze"), "{rendered}");
        assert!(lines[1].starts_with("  sanitize"), "{rendered}");
        assert!(lines[2].starts_with("    dedup"), "{rendered}");
        assert!(lines[0].contains("records=123"), "{rendered}");
    }

    #[test]
    fn jsonl_round_trips() {
        let rec = Recorder::new();
        {
            let mut root = rec.root("root");
            root.field("kind", "test");
            root.field("ratio", 0.5f64);
            root.field("ok", true);
            let _child = root.child("leaf");
        }
        let tree = rec.finish();
        let text = tree.to_jsonl();
        let parsed = SpanTree::from_jsonl(&text).unwrap();
        assert_eq!(parsed, tree);
    }

    #[test]
    fn finish_returns_duration_and_records_once() {
        let rec = Recorder::new();
        let span = rec.root("timed");
        let ms = span.finish();
        assert!(ms >= 0.0);
        assert_eq!(rec.finish().len(), 1);
        // Nothing left after the drain.
        assert!(rec.finish().is_empty());
    }

    #[test]
    fn disabled_recorder_discards_spans() {
        let rec = Recorder::disabled();
        let span = rec.root("ghost");
        assert!(span.finish() >= 0.0);
        assert!(rec.finish().is_empty());
        let noop = Span::noop("ghost2");
        assert!(noop.finish() >= 0.0);
    }
}
