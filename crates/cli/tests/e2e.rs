//! End-to-end tests of the `autosens` binary: generate telemetry to a temp
//! file, then diagnose, analyze (with and without a slice/CI), and print
//! activity factors — exactly as an operator would.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_autosens"))
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("autosens-e2e-{}-{name}", std::process::id()));
    p
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Generate once for the whole binary's tests (serial by file lock on the
/// path name — each test uses its own file to stay independent).
fn generate_csv(path: &std::path::Path) {
    run_ok(bin().args([
        "generate",
        "--scenario",
        "smoke",
        "--out",
        path.to_str().expect("utf8 temp path"),
    ]));
}

#[test]
fn generate_then_diagnose() {
    let path = tmp_path("diag.csv");
    generate_csv(&path);
    let out = run_ok(bin().args(["diagnose", "--in", path.to_str().unwrap()]));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("MSD/MAD actual"), "{text}");
    assert!(text.contains("locality precondition"), "{text}");
    assert!(text.contains("SATISFIED"), "{text}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn generate_then_analyze_slice() {
    let path = tmp_path("analyze.csv");
    generate_csv(&path);
    let out = run_ok(bin().args([
        "analyze",
        "--in",
        path.to_str().unwrap(),
        "--action",
        "SelectMail",
        "--class",
        "Business",
    ]));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SelectMail / Business"), "{text}");
    assert!(text.contains("normalized preference"), "{text}");
    // The table includes the reference row's neighbourhood.
    assert!(text.contains("300"), "{text}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn analyze_emits_json_when_asked() {
    let path = tmp_path("json.csv");
    generate_csv(&path);
    let out = run_ok(bin().args([
        "analyze",
        "--in",
        path.to_str().unwrap(),
        "--action",
        "SelectMail",
        "--json",
    ]));
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(parsed["reference_ms"], 300.0);
    assert!(parsed["points"]
        .as_array()
        .map(|a| !a.is_empty())
        .unwrap_or(false));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn analyze_with_confidence_band() {
    let path = tmp_path("ci.csv");
    generate_csv(&path);
    let out = run_ok(bin().args([
        "analyze",
        "--in",
        path.to_str().unwrap(),
        "--action",
        "SelectMail",
        "--ci",
        "25",
    ]));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ci lo"), "{text}");
    assert!(text.contains("ci hi"), "{text}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn alpha_command_prints_period_factors() {
    let path = tmp_path("alpha.csv");
    generate_csv(&path);
    let out = run_ok(bin().args(["alpha", "--in", path.to_str().unwrap()]));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("8am-2pm"), "{text}");
    assert!(text.contains("2am-8am"), "{text}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn jsonl_roundtrip_through_the_binary() {
    let path = tmp_path("log.jsonl");
    run_ok(bin().args([
        "generate",
        "--scenario",
        "smoke",
        "--format",
        "jsonl",
        "--out",
        path.to_str().unwrap(),
    ]));
    let out = run_ok(bin().args([
        "analyze",
        "--in",
        path.to_str().unwrap(),
        "--format",
        "jsonl",
        "--action",
        "SelectMail",
    ]));
    assert!(String::from_utf8_lossy(&out.stdout).contains("normalized preference"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn report_command_emits_full_json_bundle() {
    let path = tmp_path("report.csv");
    generate_csv(&path);
    let out = run_ok(bin().args([
        "report",
        "--in",
        path.to_str().unwrap(),
        "--action",
        "SelectMail",
        "--class",
        "Business",
    ]));
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(parsed["label"], "SelectMail / Business");
    assert!(parsed["preference"]["points"]
        .as_array()
        .map(|a| !a.is_empty())
        .unwrap_or(false));
    assert_eq!(
        parsed["alpha_by_period"].as_array().map(|a| a.len()),
        Some(4)
    );
    assert!(parsed["locality"]["msd_mad_actual"].as_f64().unwrap() < 1.0);
    assert!(parsed["bottleneck"]["bottleneck_factor"].as_f64() == Some(2.0));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn abandonment_command_prints_continuation() {
    let path = tmp_path("abandon.csv");
    generate_csv(&path);
    let out = run_ok(bin().args([
        "abandonment",
        "--in",
        path.to_str().unwrap(),
        "--class",
        "Business",
        "--gap",
        "600000",
    ]));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sessions"), "{text}");
    assert!(text.contains("normalized continuation"), "{text}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn profile_prints_stage_tree_and_writes_artifacts() {
    let path = tmp_path("profile.csv");
    let trace = tmp_path("trace.jsonl");
    let metrics = tmp_path("metrics.json");
    generate_csv(&path);
    let out = run_ok(bin().args([
        "analyze",
        "--in",
        path.to_str().unwrap(),
        "--ci",
        "25",
        "--profile",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]));
    // The stage tree lands on stderr with every documented stage.
    let err = String::from_utf8_lossy(&out.stderr);
    for stage in [
        "analyze",
        "sanitize",
        "alpha",
        "biased_pdf",
        "unbiased_pdf",
        "smoothing",
        "normalization",
        "ci_bootstrap",
        "codec.read_csv",
    ] {
        assert!(err.contains(stage), "missing stage {stage:?} in:\n{err}");
    }
    // stdout is still the normal table, untouched by profiling.
    assert!(String::from_utf8_lossy(&out.stdout).contains("ci lo"));

    // The trace is valid JSONL: every line parses as a JSON object.
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(!trace_text.trim().is_empty());
    for line in trace_text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid trace line");
        assert!(v["name"].as_str().is_some(), "{line}");
    }

    // The metrics snapshot is valid JSON and carries the pipeline counters.
    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics written");
    let v: serde_json::Value = serde_json::from_str(&metrics_text).expect("valid metrics JSON");
    let counters = v["counters"].as_array().expect("counters array");
    let get = |name: &str| {
        counters
            .iter()
            .find(|c| c["name"] == name)
            .and_then(|c| c["value"].as_f64())
            .unwrap_or_else(|| panic!("missing counter {name} in {metrics_text}"))
    };
    assert_eq!(get("autosens_core_analyses_total"), 1.0);
    assert!(get("autosens_core_records_read_total") > 0.0);
    assert!(get("autosens_telemetry_records_read_total") > 0.0);
    assert!(get("autosens_core_bootstrap_replicates_total") >= 25.0);

    for p in [&path, &trace, &metrics] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn quiet_suppresses_progress_and_json_stays_clean() {
    let path = tmp_path("quiet.csv");
    let out = run_ok(bin().args([
        "generate",
        "--scenario",
        "smoke",
        "--out",
        path.to_str().unwrap(),
        "--quiet",
    ]));
    assert!(
        out.stderr.is_empty(),
        "quiet generate still wrote stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = run_ok(bin().args(["analyze", "--in", path.to_str().unwrap(), "--json", "-q"]));
    assert!(out.stderr.is_empty());
    let text = String::from_utf8_lossy(&out.stdout);
    let _: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bad_usage_exits_nonzero_with_usage_text() {
    let out = bin().args(["frobnicate"]).output().expect("runs");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");

    let out = bin()
        .args(["analyze", "--in", "/nonexistent.csv"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn value_flag_without_a_value_exits_with_usage() {
    let path = tmp_path("noref.csv");
    generate_csv(&path);
    let out = bin()
        .args(["analyze", "--in", path.to_str().unwrap(), "--reference"])
        .output()
        .expect("runs");
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--reference"), "{err}");
    assert!(err.contains("usage:"), "{err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn serve_refuses_to_replace_a_regular_file_with_its_socket() {
    let dir = tmp_path("listen-dir");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let precious = dir.join("precious.csv");
    std::fs::write(&precious, "keep me\n").expect("write file");
    let mut child = bin()
        .args(["serve", "--listen", precious.to_str().unwrap()])
        .args(["--http", "127.0.0.1:0", "--quiet"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary runs");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break Some(status);
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    let contents = std::fs::read_to_string(&precious);
    let _ = std::fs::remove_dir_all(&dir);
    let status = status.expect("serve kept running on a path that holds a regular file");
    assert!(!status.success());
    assert_eq!(contents.expect("file still there"), "keep me\n");
}
