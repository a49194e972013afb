//! `autosens-bench`: drives the `autosens` binary through one benchmark
//! workload and prints its metrics, or compares two sets of runs.
//!
//! ```text
//! autosens-bench run --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                    [--smoke] [--out FILE] [--autosens PATH]
//! autosens-bench compare <base runs...> -- <change runs...>
//! ```
//!
//! `run` prints `workload metric value unit` for every metric, then one
//! JSON result line, and exits 1 when a correctness check failed. Both
//! subcommands read `BENCHMARK.json` from the working directory. See
//! `perfbench/README.md`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

use autosens_perfbench::spec::Spec;
use autosens_perfbench::workloads::{self, Ctx, Outcome};
use autosens_perfbench::{compare, proc, stats};
use serde_json::{Number, Value};

const USAGE: &str = "usage: autosens-bench run --workload <name> [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out FILE] [--autosens PATH]\n       \
autosens-bench compare <base runs...> -- <change runs...>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("autosens-bench: {e}");
            std::process::exit(2);
        }
    }
}

/// `--flag value` pairs and bare `--flag`s.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value for {name}: {v:?}"))
            })
            .unwrap_or(Ok(default))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn spec() -> Result<Spec, String> {
    Spec::load(Path::new("BENCHMARK.json"))
}

fn compare_cmd(args: &[String]) -> Result<i32, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs `--` between base and change runs")?;
    let (base, change) = (&args[..split], &args[split + 1..]);
    if base.is_empty() || change.is_empty() {
        return Err("compare needs base runs and change runs".into());
    }
    compare::main(&spec()?, base, change)
}

/// The build directory `run.sh` put both binaries in.
fn build_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
        .join("release")
}

/// Deletes the run's working directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &[String]) -> Result<i32, String> {
    let flags = Flags(args);
    let spec = spec()?;
    let workload = flags.value("--workload").ok_or("run needs --workload")?;
    if !spec.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload {workload:?} (BENCHMARK.json has {:?})",
            spec.workloads
        ));
    }
    let seed: u64 = flags.parsed("--seed", 1)?;
    let seconds: f64 = flags.parsed("--seconds", spec.run_seconds as f64)?;
    let trace = match flags.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let smoke = flags.has("--smoke");
    let autosens = flags
        .value("--autosens")
        .map(PathBuf::from)
        .unwrap_or_else(|| build_dir().join("autosens"));
    if !autosens.is_file() {
        return Err(format!("no autosens binary at {}", autosens.display()));
    }

    let work =
        PathBuf::from(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let _cleanup = WorkDir(work.clone());
    let ctx = Ctx {
        autosens,
        work,
        seed,
        seconds,
        sizes: if smoke {
            workloads::SMOKE
        } else {
            workloads::FULL
        },
    };
    let outcome = match workload {
        "batch-paper" => workloads::batch_paper(&ctx),
        "ingest-fleet" => workloads::ingest_fleet(&ctx),
        "query-warm" => workloads::query_warm(&ctx),
        "refresh-dirty" => workloads::refresh_dirty(&ctx),
        other => {
            return Err(format!(
                "BENCHMARK.json names {other:?}, which run does not know"
            ))
        }
    }?;

    let mut measured: BTreeMap<String, f64> = BTreeMap::from([
        ("setup_s".into(), outcome.setup_s),
        ("latency_ms_p50".into(), stats::median(&outcome.latency_ms)),
        ("cpu_ms_per_op".into(), outcome.cpu_ms_per_op),
        ("peak_rss_mb".into(), outcome.peak_rss_mb),
    ]);
    if trace {
        let layers = build_dir().join("autosens-bench-layers");
        let trace_out =
            PathBuf::from(".bench_work").join(format!("{workload}-seed{seed}.trace.jsonl"));
        for (name, value) in traced_layers(&layers, workload, seed, smoke, &trace_out)? {
            measured.insert(name, value);
        }
        measured.insert(
            "bench.gen_lag_ms_p99".into(),
            stats::percentile(&stats::sorted(outcome.lags_ms.clone()), 99.0),
        );
        let blocking: f64 = blocking_path(workload)
            .iter()
            .map(|name| {
                let to_ms = match spec.metric(name).map(|m| m.unit.as_str()) {
                    Some("ms") => 1.0,
                    Some("us") => 1e-3,
                    _ => f64::NAN,
                };
                measured.get(*name).copied().unwrap_or(f64::NAN) * to_ms
            })
            .sum();
        measured.insert(
            "bench.unattributed_ms".into(),
            measured["latency_ms_p50"] - blocking,
        );
    }

    let wanted = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = Vec::with_capacity(wanted.len());
    for m in wanted {
        match measured.get(&m.name) {
            Some(v) if v.is_finite() => metrics.push((m.name.clone(), *v, m.unit.clone())),
            other => return Err(format!("{workload}: metric {} is {other:?}", m.name)),
        }
    }
    report(
        workload,
        seed,
        trace,
        &outcome,
        &metrics,
        flags.value("--out"),
    )
}

/// Per-layer metrics on the blocking path of one operation of `workload`:
/// what the traced calls say one operation costs inside the program.
fn blocking_path(workload: &str) -> &'static [&'static str] {
    match workload {
        "batch-paper" => &["telemetry.container_open_ms", "core.plan_run_ms"],
        "ingest-fleet" => &["serve.connection_us_per_batch"],
        "query-warm" => &["serve.route_curve_us", "serve.http_write_us"],
        _ => &[
            "serve.connection_us_per_batch",
            "serve.registry_snapshot_miss_ms",
            "serve.http_write_us",
        ],
    }
}

/// Run the in-process traced pass and read its metrics.
fn traced_layers(
    layers: &Path,
    workload: &str,
    seed: u64,
    smoke: bool,
    trace_out: &Path,
) -> Result<Vec<(String, f64)>, String> {
    let mut cmd = Command::new(layers);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .arg("--trace-out")
        .arg(trace_out);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = proc::run(&mut cmd)?;
    if !out.ok() {
        return Err(format!(
            "{} exited with {:?}",
            layers.display(),
            out.exit_code
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let doc: Value = serde_json::from_str(text.lines().last().unwrap_or(""))
        .map_err(|e| format!("{}: {e}", layers.display()))?;
    Ok(doc
        .as_object()
        .ok_or("layer metrics are not an object")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect())
}

/// Print checks, metric lines and the result line; append the run record
/// to `out`. Returns the exit code.
fn report(
    workload: &str,
    seed: u64,
    trace: bool,
    outcome: &Outcome,
    metrics: &[(String, f64, String)],
    out: Option<&str>,
) -> Result<i32, String> {
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    for c in &outcome.checks {
        eprintln!(
            "[{}] {}: {}",
            if c.ok { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
        correct &= c.ok;
    }
    if let Some(e) = &outcome.first_error {
        eprintln!("first failed operation: {e}");
    }
    for (name, value, unit) in metrics {
        println!("{workload} {name} {value} {unit}");
    }
    let entry = |key: &str, value: Value| (key.to_string(), value);
    let metrics = Value::Object(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let metric = Value::Object(vec![
                    entry("value", Value::Number(Number::Float(*value))),
                    entry("unit", Value::String(unit.clone())),
                ]);
                (name.clone(), metric)
            })
            .collect(),
    );
    let counts = [
        entry("correct", Value::Bool(correct)),
        entry("attempted", Value::Number(Number::UInt(outcome.attempted))),
        entry("failed", Value::Number(Number::UInt(outcome.failed))),
        entry("metrics", metrics),
    ];
    if let Some(path) = out {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let mut record = vec![
            entry("workload", Value::String(workload.into())),
            entry("seed", Value::Number(Number::UInt(seed))),
            entry("trace", Value::Bool(trace)),
            entry("nproc", Value::Number(Number::UInt(nproc as u64))),
            entry(
                "input_digest",
                Value::String(format!("{:016x}", outcome.input_digest)),
            ),
            entry(
                "output_digest",
                Value::String(format!("{:016x}", outcome.output_digest)),
            ),
        ];
        record.extend(counts.iter().cloned());
        let line = json(&Value::Object(record))? + "\n";
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("append {path}: {e}"))?;
    }
    println!("{}", json(&Value::Object(counts.to_vec()))?);
    Ok(if correct { 0 } else { 1 })
}

fn json(value: &Value) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| e.to_string())
}
