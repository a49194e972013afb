//! `autosens-bench-layers`: the traced pass of the benchmark.
//!
//! ```text
//! autosens-bench-layers --workload <name> --seed N [--smoke] --trace-out FILE
//! ```
//!
//! Builds the inputs the named workload generates from its seed, calls the
//! public functions of each layer in process (telemetry, core, exec,
//! stream, serve), wraps every call in an `autosens_obs` span, writes the
//! spans to `--trace-out` as JSONL, and prints one JSON object mapping each
//! per-layer metric of `BENCHMARK.json` (except the `bench.*` ones, which
//! `autosens-bench` measures) to the median of its repeated calls. Spans are
//! recorded around calls from outside the program; nothing here changes
//! what the program itself records.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use autosens_core::plan::{AnalysisPlan, PlanInput, RunOptions};
use autosens_core::AutoSensConfig;
use autosens_obs::{Recorder, Span};
use autosens_perfbench::gen::{self, Record};
use autosens_perfbench::workloads::{self, Sizes, BATCH};
use autosens_perfbench::{stats, wire};
use autosens_serve::frame::write_frame;
use autosens_serve::http::{self, Request};
use autosens_serve::{Frame, Gateway, GatewayConfig, TenantKey, PROTOCOL_VERSION};
use autosens_stream::{DetectorConfig, Ingestor, OverflowPolicy, StreamConfig, StreamEngine};
use autosens_telemetry::container::{self, MappedLog};
use autosens_telemetry::query::Slice;
use autosens_telemetry::{codec, ActionRecord, ActionType, Outcome, SimTime, UserClass, UserId};
use serde_json::{Number, Value};

/// Bytes currently allocated and the high-water mark, for
/// `core.peak_alloc_bytes` and `serve.live_bytes_per_tenant`. The same
/// counting allocator as `bench_pipeline`'s `alloc-stats` one, which is
/// private to that binary; this copy replaces it when `bench_pipeline`
/// is deleted.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the atomics only
// observe sizes and never touch the pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        p
    }
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    if let Err(e) = run() {
        eprintln!("autosens-bench-layers: {e}");
        std::process::exit(1);
    }
}

/// Call `f` `reps × calls` times, `calls` of them under each child span
/// of `parent` named `name` (spans keep whole microseconds, so fast calls
/// share one). Returns the median time per call in ms and the last result.
fn timed<T>(
    parent: &Span,
    name: &str,
    reps: usize,
    calls: usize,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let span = parent.child(name);
        for _ in 0..calls {
            // Drop the previous result first: a paper-scale log is large.
            drop(last.take());
            last = Some(std::hint::black_box(f()));
        }
        times.push(span.finish() / calls as f64);
    }
    (stats::median(&times), last.expect("reps and calls > 0"))
}

fn action_record(r: &Record) -> ActionRecord {
    ActionRecord {
        time: SimTime(r.time_ms),
        action: ActionType::from_code(r.action),
        latency_ms: r.latency_ms,
        user: UserId(r.user),
        class: UserClass::from_code(r.class),
        tz_offset_ms: r.tz_offset_ms,
        outcome: Outcome::from_code(r.outcome),
    }
}

/// The configuration `autosens serve` gives every tenant engine.
fn serve_stream_config() -> StreamConfig {
    StreamConfig {
        analysis: AutoSensConfig {
            threads: 1,
            ..AutoSensConfig::default()
        },
        shard_ms: 6 * 3_600_000,
        allowed_lateness_ms: 3_600_000,
        retain_ms: None,
        detector: Some(DetectorConfig::default()),
        decay_half_life_ms: None,
    }
}

type Metrics = BTreeMap<&'static str, f64>;

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let workload = flag("--workload").ok_or("--workload is required")?;
    let seed: u64 = flag("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --seed")?;
    let trace_out = PathBuf::from(flag("--trace-out").ok_or("--trace-out is required")?);
    let sizes = if args.iter().any(|a| a == "--smoke") {
        workloads::SMOKE
    } else {
        workloads::FULL
    };
    let dir = PathBuf::from(".bench_work").join(format!("layers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    let recorder = Recorder::new();
    recorder.set_collecting(true);
    let mut m = Metrics::new();
    let result = telemetry_and_core(&recorder, workload, seed, sizes, &dir, &mut m)
        .and_then(|()| stream_and_serve(&recorder, workload, seed, sizes, &dir, &mut m));
    let _ = std::fs::remove_dir_all(&dir);
    result?;

    std::fs::write(&trace_out, recorder.finish().to_jsonl())
        .map_err(|e| format!("write {}: {e}", trace_out.display()))?;
    let body = Value::Object(
        m.iter()
            .map(|(k, v)| (k.to_string(), Value::Number(Number::Float(*v))))
            .collect(),
    );
    println!(
        "{}",
        serde_json::to_string(&body).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Telemetry, core and exec, on the log one operation of the workload
/// analyzes: batch-paper's whole log (SelectMail/Business, 50 bootstrap
/// replicates), or one tenant's records for the serve workloads.
fn telemetry_and_core(
    recorder: &Recorder,
    workload: &str,
    seed: u64,
    sizes: Sizes,
    dir: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let batch = workload == "batch-paper";
    let csv = dir.join("input.csv");
    let asc = dir.join("input.asc");
    let (written, reps) = if batch {
        let records = workloads::batch_records(seed).take(sizes.batch_records);
        (gen::write_csv(&csv, records), 3)
    } else {
        let records = workloads::tenant_stream(seed, sizes.tenant_records);
        (gen::write_csv(&csv, &records), 20)
    };
    written.map_err(|e| format!("write {}: {e}", csv.display()))?;

    let telemetry = recorder.root("telemetry");
    let (ms, log) = timed(&telemetry, "codec::read_csv", reps, 1, || {
        let file = std::fs::File::open(&csv).map_err(|e| e.to_string())?;
        codec::read_csv(BufReader::new(file)).map_err(|e| e.to_string())
    });
    let log = log?;
    m.insert("telemetry.csv_read_ms", ms);
    let (ms, written) = timed(
        &telemetry,
        "container::write_container_file",
        reps,
        1,
        || container::write_container_file(&log, &asc, None),
    );
    written.map_err(|e| e.to_string())?;
    m.insert("telemetry.container_write_ms", ms);
    let (ms, mapped) = timed(&telemetry, "MappedLog::open", reps, 1, || {
        MappedLog::open(&asc)
    });
    let mapped = mapped.map_err(|e| e.to_string())?;
    m.insert("telemetry.container_open_ms", ms);
    telemetry.finish();

    let view = mapped.view();
    let (slice, opts) = if batch {
        (
            Slice::all()
                .action(ActionType::SelectMail)
                .class(UserClass::Business),
            RunOptions::with_ci(50, 0.95),
        )
    } else {
        (Slice::all(), RunOptions::default())
    };
    let plan = AnalysisPlan::with_recorder(
        AutoSensConfig {
            threads: 1,
            ..AutoSensConfig::default()
        },
        recorder.clone(),
    );
    let counter = |name: &str| recorder.metrics().snapshot().counter(name).unwrap_or(0);
    let core = recorder.root("core");
    let (chunks0, copied0) = (
        counter("autosens_exec_chunks_total"),
        counter("autosens_core_rows_copied_total"),
    );
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut stages: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut runs = 0;
    let (ms, out) = timed(&core, "AnalysisPlan::run", reps, 1, || {
        let out = plan.run(PlanInput::view(&view, &slice), opts);
        if runs == 0 {
            m.insert(
                "core.peak_alloc_bytes",
                (PEAK.load(Ordering::Relaxed) - base) as f64,
            );
        }
        runs += 1;
        if let Ok(out) = &out {
            for st in out.report.stage_timings.iter().flatten() {
                stages.entry(st.stage.clone()).or_default().push(st.wall_ms);
            }
        }
        out
    });
    out.map_err(|e| e.to_string())?;
    m.insert("core.plan_run_ms", ms);
    for (name, stage) in [
        ("core.sanitize_ms", "sanitize"),
        ("core.lossmodel_ms", "lossmodel"),
        ("core.alpha_ms", "alpha"),
        ("core.biased_pdf_ms", "biased_pdf"),
        ("core.unbiased_pdf_ms", "unbiased_pdf"),
        ("core.smoothing_ms", "smoothing"),
        ("core.normalization_ms", "normalization"),
        ("core.ci_bootstrap_ms", "ci_bootstrap"),
    ] {
        // The serve workloads run no bootstrap: that stage costs them 0.
        let v = stages.get(stage).map_or(0.0, |v| stats::median(v));
        m.insert(name, v);
    }
    let per_run = |now: u64, before: u64| (now - before) as f64 / reps as f64;
    m.insert(
        "exec.chunks",
        per_run(counter("autosens_exec_chunks_total"), chunks0),
    );
    m.insert(
        "core.rows_copied",
        per_run(counter("autosens_core_rows_copied_total"), copied0),
    );
    core.finish();
    Ok(())
}

/// Stream and serve: a standalone ingestor and engine, then an in-process
/// gateway holding the workload's tenants, driven through its public calls.
fn stream_and_serve(
    recorder: &Recorder,
    workload: &str,
    seed: u64,
    sizes: Sizes,
    dir: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let n = if workload == "ingest-fleet" {
        sizes.fleet_preload
    } else {
        sizes.tenant_records
    };
    // The preload, then the continuation every written tenant receives in
    // order, as refresh-dirty writes them.
    let stream: Vec<ActionRecord> = workloads::tenant_stream(seed, n + BATCH * 2000)
        .iter()
        .map(action_record)
        .collect();
    let (preload, more) = stream.split_at(n);
    let chunks: Vec<&[ActionRecord]> = more.chunks_exact(BATCH).collect();
    let cfg = serve_stream_config();
    let err = |e: &dyn std::fmt::Display| e.to_string();

    let root = recorder.root("stream");
    let (mut offer, mut drain, mut miss, mut hit) = (vec![], vec![], vec![], vec![]);
    for _ in 0..5 {
        let ingestor = Ingestor::new(preload.len(), OverflowPolicy::Block, recorder.clone());
        let mut engine = StreamEngine::with_recorder(cfg.clone(), Slice::all(), recorder.clone())
            .map_err(|e| err(&e))?;
        offer.push(
            timed(&root, "Ingestor::offer", 1, 1, || {
                for r in preload {
                    ingestor.offer(*r);
                }
            })
            .0,
        );
        let (ms, r) = timed(&root, "Ingestor::drain_into", 1, 1, || {
            ingestor.drain_into(&mut engine)
        });
        r.map_err(|e| err(&e))?;
        drain.push(ms);
        let (ms, r) = timed(&root, "StreamEngine::snapshot", 1, 1, || engine.snapshot());
        r.map_err(|e| err(&e))?;
        miss.push(ms);
        hit.push(timed(&root, "StreamEngine::snapshot", 5, 20, || engine.snapshot()).0);
    }
    let per_record_ns = |ms: &[f64]| stats::median(ms) * 1e6 / preload.len() as f64;
    m.insert("stream.offer_ns_per_record", per_record_ns(&offer));
    m.insert("stream.drain_ns_per_record", per_record_ns(&drain));
    m.insert("stream.snapshot_miss_ms", stats::median(&miss));
    m.insert("stream.snapshot_hit_us", stats::median(&hit) * 1e3);
    root.finish();

    let root = recorder.root("serve");
    let ckpt = dir.join("checkpoints");
    let gateway = Gateway::new(
        GatewayConfig {
            stream: cfg,
            ingest_capacity: 65_536,
            checkpoint_dir: Some(ckpt.clone()),
            resume: false,
            threads: 1,
        },
        recorder.clone(),
    )
    .map_err(|e| err(&e))?;
    let registry = gateway.registry();
    let keys: Vec<TenantKey> = (0..sizes.warm_tenants)
        .map(|i| {
            let t = wire::Tenant::nth(i);
            TenantKey::new(t.service, t.region).map_err(|e| err(&e))
        })
        .collect::<Result<_, _>>()?;
    // Each probe writes to its own tenant, which takes the continuation
    // chunks in order from its own cursor.
    let mut taken = vec![0usize; keys.len()];
    let mut probe = |role: usize| {
        let t = role % keys.len();
        let chunk = chunks
            .get(taken[t])
            .copied()
            .ok_or("probe continuation exhausted");
        taken[t] += 1;
        (&keys[t], chunk)
    };

    let live = LIVE.load(Ordering::Relaxed);
    for k in &keys {
        registry.ingest(k, preload).map_err(|e| err(&e))?;
    }
    let (ms, all) = timed(&root, "Registry::snapshot_all", 1, 1, || {
        registry.snapshot_all(1)
    });
    all.map_err(|e| err(&e))?;
    m.insert("serve.snapshot_all_ms", ms);
    m.insert(
        "serve.live_bytes_per_tenant",
        LIVE.load(Ordering::Relaxed).saturating_sub(live) as f64 / keys.len() as f64,
    );
    // One tenant written since the cold pass: the rest re-serve cached reports.
    let (key, chunk) = probe(0);
    registry.ingest(key, chunk?).map_err(|e| err(&e))?;
    registry.snapshot_all(1).map_err(|e| err(&e))?;
    let reused = registry.last_fleet_snapshot().map_or(0, |s| s.reused);
    m.insert(
        "serve.snapshot_reuse_ratio",
        reused as f64 / keys.len() as f64,
    );

    let frame = Frame::Batch {
        tenant: keys[0].clone(),
        records: chunks[0].to_vec(),
    }
    .encode();
    let (ms, decoded) = timed(&root, "Frame::decode", 20, 100, || Frame::decode(&frame));
    decoded.map_err(|e| err(&e))?;
    m.insert("serve.frame_decode_us", ms * 1e3);

    let mut ingest = Vec::new();
    for _ in 0..20 {
        let batches = (0..10)
            .map(|_| probe(1))
            .map(|(k, c)| c.map(|c| (k, c)))
            .collect::<Result<Vec<_>, _>>()?;
        let mut next = batches.iter();
        let (ms, r) = timed(&root, "Registry::ingest", 1, batches.len(), || {
            let (k, c) = next.next().expect("one batch a call");
            registry.ingest(k, c)
        });
        r.map_err(|e| err(&e))?;
        ingest.push(ms);
    }
    m.insert("serve.registry_ingest_us", stats::median(&ingest) * 1e3);

    let mut per_batch = Vec::new();
    for _ in 0..3 {
        let batches = 200;
        let mut wire_in = Vec::new();
        write_frame(
            &mut wire_in,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
            },
        )
        .map_err(|e| err(&e))?;
        for _ in 0..batches {
            let (key, chunk) = probe(2);
            let batch = Frame::Batch {
                tenant: key.clone(),
                records: chunk?.to_vec(),
            };
            write_frame(&mut wire_in, &batch).map_err(|e| err(&e))?;
        }
        let mut wire_out = Vec::new();
        let (ms, r) = timed(&root, "Gateway::handle_connection", 1, 1, || {
            gateway.handle_connection(&wire_in[..], &mut wire_out)
        });
        r.map_err(|e| err(&e))?;
        per_batch.push(ms / batches as f64);
    }
    m.insert(
        "serve.connection_us_per_batch",
        stats::median(&per_batch) * 1e3,
    );

    registry.snapshot(&keys[0]).map_err(|e| err(&e))?;
    let (ms, r) = timed(&root, "Registry::snapshot", 20, 50, || {
        registry.snapshot(&keys[0])
    });
    r.map_err(|e| err(&e))?;
    m.insert("serve.registry_snapshot_hit_us", ms * 1e3);

    let mut miss = Vec::new();
    for _ in 0..5 {
        let (key, chunk) = probe(3);
        registry.ingest(key, chunk?).map_err(|e| err(&e))?;
        let (ms, r) = timed(&root, "Registry::snapshot", 1, 1, || registry.snapshot(key));
        r.map_err(|e| err(&e))?;
        miss.push(ms);
    }
    m.insert("serve.registry_snapshot_miss_ms", stats::median(&miss));

    let curve = Request {
        method: "GET".into(),
        path: format!("/tenant/{}/{}/curve", keys[0].service, keys[0].region),
    };
    let (ms, response) = timed(&root, "http::route", 20, 20, || {
        http::route(&gateway, &curve)
    });
    if response.status != 200 {
        return Err(format!("{}: HTTP {}", curve.path, response.status));
    }
    m.insert("serve.route_curve_us", ms * 1e3);
    let mut sink = Vec::with_capacity(response.body.len() + 256);
    let (ms, r) = timed(&root, "http::write_response", 20, 100, || {
        sink.clear();
        http::write_response(&mut sink, &response)
    });
    r.map_err(|e| err(&e))?;
    m.insert("serve.http_write_us", ms * 1e3);

    // A COMMIT as refresh-dirty sends them: one tenant written since the
    // previous generation, which the set-up's first COMMIT wrote.
    gateway.checkpoint_now().map_err(|e| err(&e))?;
    let mut passes = Vec::new();
    for _ in 0..3 {
        let (key, chunk) = probe(4);
        registry.ingest(key, chunk?).map_err(|e| err(&e))?;
        let (ms, r) = timed(&root, "Registry::checkpoint_all", 1, 1, || {
            gateway.checkpoint_now()
        });
        r.map_err(|e| err(&e))?;
        passes.push(ms);
    }
    m.insert("serve.checkpoint_all_ms", stats::median(&passes));
    let generation = ckpt.join(format!("gen-{}", registry.generation()));
    let bytes: u64 = std::fs::read_dir(&generation)
        .map_err(|e| format!("read {}: {e}", generation.display()))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|md| md.len())
        .sum();
    m.insert("serve.checkpoint_bytes", bytes as f64);
    root.finish();
    Ok(())
}
