//! Every workload end to end at toy size, through `perfbench/run.sh`
//! exactly as a benchmark run calls it: both binaries and the traced pass
//! build from source, each run must pass its correctness checks, and its
//! result line must carry every metric `BENCHMARK.json` promises, finite
//! and with the promised unit. Takes about two minutes from a clean build.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use autosens_perfbench::spec::Spec;
use serde_json::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn spec_is_within_the_benchmark_limits() {
    let spec = Spec::load(&repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json loads");
    assert!((2..=8).contains(&spec.workloads.len()));
    assert!((1..=16).contains(&spec.end_to_end.len()));
    assert!((1..=128).contains(&spec.per_layer.len()));
    assert!((1..=60).contains(&spec.run_seconds));
    let mut names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(valid_unit(&m.unit), "unit {:?} of {}", m.unit, m.name);
        names.push(&m.name);
    }
    for m in &spec.end_to_end {
        let bound = m.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
    }
    let setup = spec.metric("setup_s").expect("setup_s is promised");
    assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
    let largest = spec
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    for n in &names {
        assert!(valid_name(n), "bad name {n:?}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
}

#[test]
fn every_workload_runs_and_reports_every_metric() {
    let root = repo_root();
    let spec = Spec::load(&root.join("BENCHMARK.json")).expect("BENCHMARK.json loads");
    for workload in &spec.workloads {
        for trace in ["0", "1"] {
            let out = Command::new("bash")
                .arg("perfbench/run.sh")
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--smoke"])
                .current_dir(&root)
                .env("CARGO_TARGET_DIR", root.join(".bench_build"))
                .output()
                .expect("bash runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result: Value = serde_json::from_str(stdout.lines().last().unwrap_or_default())
                .unwrap_or_else(|e| panic!("{workload}: bad result line: {e}"));
            let keys: Vec<&str> = result
                .as_object()
                .expect("result is an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Value::as_f64) >= Some(1.0));
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
            let promised = if trace == "1" {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            assert_eq!(metrics.len(), promised.len(), "{workload} --trace {trace}");
            for m in promised {
                let got = result.get("metrics").and_then(|v| v.get(m.name.as_str()));
                let value = got.and_then(|v| v.get("value")).and_then(Value::as_f64);
                let unit = got.and_then(|v| v.get("unit")).and_then(Value::as_str);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {} = {value:?}",
                    m.name
                );
                assert_eq!(
                    unit,
                    Some(m.unit.as_str()),
                    "{workload}: unit of {}",
                    m.name
                );
            }
        }
    }
}
