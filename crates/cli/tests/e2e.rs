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

#[test]
fn analyze_json_with_ci_appends_the_band_as_its_last_member() {
    let path = tmp_path("ci-json.csv");
    generate_csv(&path);
    let analyze = |extra: &[&str]| {
        let mut cmd = bin();
        cmd.args(["analyze", "--in", path.to_str().unwrap()])
            .args(["--action", "SelectMail", "--class", "Business", "--json"])
            .args(extra);
        String::from_utf8(run_ok(&mut cmd).stdout).expect("utf8 JSON")
    };
    let plain = analyze(&[]);
    let with_ci = analyze(&["--ci", "20"]);
    let _ = std::fs::remove_file(&path);

    let parsed: serde_json::Value = serde_json::from_str(&with_ci).expect("valid JSON");
    let ci = &parsed["ci"];
    assert_eq!(ci["level"], 0.95);
    let replicates = ci["replicates"].as_u64().expect("replicate count");
    assert!((1..=20).contains(&replicates), "{replicates}");
    let band = ci["band"].as_array().expect("band rows");
    assert!(!band.is_empty(), "{with_ci}");
    for row in band {
        let row: Vec<f64> = row
            .as_array()
            .expect("a [latency_ms, lo, hi] row")
            .iter()
            .map(|v| v.as_f64().expect("number"))
            .collect();
        assert_eq!(row.len(), 3);
        assert!(row[1] <= row[2], "lo above hi: {row:?}");
    }
    // The member is the object's last: cutting it leaves the plain bytes.
    let at = with_ci
        .rfind(",\n  \"ci\": {")
        .expect("a top-level ci member");
    assert!(with_ci.ends_with("\n  }\n}\n"), "{with_ci}");
    assert_eq!(format!("{}\n}}\n", &with_ci[..at]), plain);
}

/// Kills the child process when dropped, so a failing assertion never
/// leaves a gateway running.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[cfg(unix)]
#[test]
fn serve_outlives_running_out_of_file_descriptors() {
    use std::time::{Duration, Instant};
    let dir = tmp_path("fd-limit");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("smoke.csv");
    generate_csv(&log);
    let log = log.to_str().unwrap();
    let ready = dir.join("ready.txt");
    // The limit is set in the shell that execs the gateway, so it binds
    // only that process.
    let mut gateway = KillOnDrop(
        Command::new("sh")
            .args(["-c", "ulimit -n 40 && exec \"$0\" \"$@\""])
            .arg(env!("CARGO_BIN_EXE_autosens"))
            .args(["serve", "--listen", "127.0.0.1:0", "--http", "127.0.0.1:0"])
            .args(["--loss-correct=off", "--quiet", "--ready-file"])
            .arg(&ready)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("gateway starts"),
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    let text = loop {
        match std::fs::read_to_string(&ready) {
            Ok(text) if text.lines().count() == 2 => break text,
            _ if Instant::now() > deadline => panic!("gateway never became ready"),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let addr = |tag: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(tag))
            .expect("ready line")
            .trim()
            .to_string()
    };
    let (ingest, http) = (addr("INGEST"), addr("HTTP"));

    // Sixty idle connections: more than 40 descriptors can accept. (A
    // gateway that exits on the failed accept refuses the later ones.)
    let idle: Vec<std::net::TcpStream> = (0..60)
        .filter_map(|_| std::net::TcpStream::connect(&ingest).ok())
        .collect();
    std::thread::sleep(Duration::from_millis(500));
    drop(idle);
    std::thread::sleep(Duration::from_millis(300));
    let exited = gateway.0.try_wait().expect("wait");
    assert!(exited.is_none(), "the gateway exited: {exited:?}");

    let query = |path: &str| {
        bin()
            .args(["query", "--addr", &http, "--path", path])
            .output()
    };
    let health = query("/healthz").expect("query runs");
    assert!(health.status.success(), "/healthz: {health:?}");
    // The limit was really hit: the failed accepts were counted.
    let metrics = String::from_utf8(query("/metrics").expect("query runs").stdout).unwrap();
    let errors: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("autosens_serve_accept_errors_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("an accept error counter");
    assert!(errors > 0, "{metrics}");
    run_ok(
        bin()
            .args(["agent", "--to", &ingest, "--in", log, "--quiet"])
            .args(["--service", "mail", "--region", "eu"]),
    );
    let served = query("/tenant/mail/eu/curve").expect("query runs");
    let batch = run_ok(
        bin()
            .args(["analyze", "--in", log, "--json"])
            .args(["--loss-correct=off", "--quiet"]),
    );
    drop(gateway);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(served.status.success(), "/curve: {served:?}");
    assert!(
        served.stdout == batch.stdout,
        "served curve differs from batch"
    );
}
