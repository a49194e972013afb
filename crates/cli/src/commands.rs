//! Command implementations for the `autosens` CLI.

use std::fs::File;
use std::io::{BufReader, BufWriter};

use autosens_core::ci::PreferenceCi;
use autosens_core::locality::{decorrelation_report, density_latency_correlation, locality_report};
use autosens_core::pipeline::AnalysisReport;
use autosens_core::report::{f3, text_table, PreferenceSummary};
use autosens_core::{AnalysisPlan, AutoSensConfig, PlanInput, RunOptions};
use autosens_faults::FaultPlan;
use autosens_obs::{MetricsRegistry, Recorder};
use autosens_serve::{serve_http, Agent, AgentConfig, Gateway, GatewayConfig, TenantKey};
use autosens_sim::{generate_with_threads, SimConfig};
use autosens_stream::{
    Checkpoint, DetectorConfig, Ingest, StatusDocument, StreamConfig, StreamEngine,
};
use autosens_telemetry::codec;
use autosens_telemetry::container::{self, MappedLog};
use autosens_telemetry::quality;
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::ActionRecord;
use autosens_telemetry::{ContainerTailReader, LogView, TailFormat, TailReader, TelemetryLog};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::{AnalysisArgs, Command, Format, ProfileArgs, ServeArgs, SliceArgs, WatchArgs};

/// Execute a parsed command.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Generate {
            scenario,
            out,
            format,
            seed,
            threads,
        } => {
            let mut cfg = SimConfig::scenario(scenario);
            if let Some(seed) = seed {
                cfg.seed = seed;
            }
            autosens_obs::info!(
                "generating {} days for {} users (seed {})...",
                cfg.days,
                cfg.n_users(),
                cfg.seed
            );
            let (log, _) = generate_with_threads(&cfg, threads)?;
            write_log(&log, &out, format)?;
            autosens_obs::info!("wrote {} records to {out}", log.len());
            Ok(())
        }
        Command::Analyze {
            input,
            format,
            slice,
            analysis,
            ci_replicates,
            json,
            profile,
        } => {
            let recorder = profile.start();
            // Containers analyze straight off the mapped columns — no parse,
            // no copy; text formats parse into an owned log first. Both
            // shapes expose the same `LogView`, so the reports (and the JSON
            // bytes) are identical across formats.
            let source = open_log(&input, format)?;
            let view = source.view();
            let plan = AnalysisPlan::with_recorder(analysis.config(), recorder.clone());
            let opts = match ci_replicates {
                Some(replicates) => RunOptions::with_ci(replicates, 0.95),
                None => RunOptions::default(),
            };
            let out = plan
                .run(PlanInput::view(&view, &to_slice(&slice)), opts)
                .map_err(|e| e.to_string())?;
            // Surface survived data-quality problems on stderr so they are
            // visible in both output modes without contaminating the JSON.
            for d in &out.report.degradations {
                autosens_obs::warn!("degraded input: {d}");
            }
            profile.finish(&recorder)?;
            print_curve(
                &out.report,
                &slice_label(&slice),
                analysis.reference_ms,
                json,
                out.ci.as_ref(),
            )
        }
        Command::Convert {
            input,
            out,
            format,
            shard_ms,
        } => {
            let log = read_log(&input, format)?;
            let bytes = container::write_container_file(&log, &out, shard_ms)
                .map_err(|e| format!("write {out}: {e}"))?;
            autosens_obs::info!(
                "wrote {} records ({bytes} bytes{}) to {out}",
                log.len(),
                match shard_ms {
                    Some(ms) => format!(", {ms} ms shards"),
                    None => String::new(),
                }
            );
            Ok(())
        }
        Command::Diagnose { input, format } => {
            let log = read_log(&input, format)?;
            let mut rng = StdRng::seed_from_u64(0xD1A6);
            let loc = locality_report(&log.view(), &mut rng).map_err(|e| e.to_string())?;
            let corr =
                density_latency_correlation(&log.view(), 60_000).map_err(|e| e.to_string())?;
            println!("samples:               {}", loc.n_samples);
            println!("MSD/MAD actual:        {}", f3(loc.msd_mad_actual));
            println!("MSD/MAD shuffled:      {}", f3(loc.msd_mad_shuffled));
            println!("MSD/MAD sorted:        {:.5}", loc.msd_mad_sorted);
            println!("von Neumann ratio:     {}", f3(loc.von_neumann));
            println!("density/latency corr.: {}", f3(corr.correlation));
            if let Ok(dec) = decorrelation_report(&log.view(), 60_000, 24 * 60) {
                match (dec.decorrelation_ms, dec.effective_excursions) {
                    (Some(ms), Some(ex)) => println!(
                        "latency decorrelation:  ~{} min (~{:.0} independent excursions in span)",
                        ms / 60_000,
                        ex
                    ),
                    _ => println!(
                        "latency decorrelation:  beyond the 24h ACF horizon (strongly correlated)"
                    ),
                }
            }
            println!(
                "locality precondition:  {}",
                if loc.has_locality() {
                    "SATISFIED (latency is predictable; AutoSens applicable)"
                } else {
                    "WEAK (little temporal locality; estimates may be unreliable)"
                }
            );
            Ok(())
        }
        Command::Report {
            input,
            format,
            slice,
        } => {
            let log = read_log(&input, format)?;
            let engine = AnalysisPlan::new(AutoSensConfig::default());
            let report = engine
                .full_report(&log, &to_slice(&slice), slice_label(&slice))
                .map_err(|e| e.to_string())?;
            println!(
                "{}",
                serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
            );
            Ok(())
        }
        Command::Abandonment {
            input,
            format,
            slice,
            gap_ms,
        } => {
            let log = read_log(&input, format)?;
            let sub = to_slice(&slice).successes().apply(&log);
            let report = autosens_core::abandonment::session_continuation(
                &sub,
                &AutoSensConfig::default(),
                gap_ms,
            )
            .map_err(|e| e.to_string())?;
            let s = &report.stats;
            println!(
                "slice: {} — {} sessions, {} labelable actions, mean length {:.1},\n\
                 overall continuation {:.3} (gap threshold {} s)\n",
                slice_label(&slice),
                s.n_sessions,
                s.n_actions,
                s.mean_session_len,
                s.overall_continuation(),
                s.gap_ms / 1000
            );
            let rows: Vec<Vec<String>> = autosens_core::report::default_grid()
                .iter()
                .filter_map(|&l| {
                    report
                        .continuation
                        .at(l)
                        .map(|v| vec![format!("{l:.0}"), f3(v)])
                })
                .collect();
            println!(
                "{}",
                text_table(&["latency (ms)", "normalized continuation"], &rows)
            );
            Ok(())
        }
        Command::Audit {
            input,
            format,
            json,
            metrics_out,
        } => {
            // Lenient read: an audit must survive the very corruption it is
            // meant to measure. Malformed rows are counted, not fatal.
            // Containers are all-or-nothing by design (checksummed sections
            // admit no row-level salvage), so a container that opens at all
            // audits with zero malformed rows.
            let log = if is_container(&input)? {
                MappedLog::open(&input)
                    .and_then(|m| m.to_log())
                    .map_err(|e| format!("read {input}: {e}"))?
            } else {
                let file = File::open(&input).map_err(|e| format!("open {input}: {e}"))?;
                let reader = BufReader::new(file);
                let (log, errors) = match format {
                    Format::Csv => codec::read_csv_lenient(reader),
                    Format::Jsonl => codec::read_jsonl_lenient(reader),
                    Format::Asc => return Err(format!("{input} is not a container file")),
                }
                .map_err(|e| e.to_string())?;
                if !errors.is_empty() {
                    autosens_obs::warn!(
                        "skipped {} malformed row(s) ({} stored, {} past cap)",
                        errors.total(),
                        errors.len(),
                        errors.overflow()
                    );
                }
                log
            };
            let report = quality::audit(&log);
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
                );
            } else {
                print!("{}", report.render());
            }
            // The audit records its per-cell loss evidence (and every other
            // quality counter) in the global registry; export it on request.
            if let Some(path) = &metrics_out {
                write_metrics(path, MetricsRegistry::global())?;
            }
            Ok(())
        }
        Command::Inject {
            input,
            plan,
            out,
            format,
        } => {
            let log = read_log(&input, format)?;
            let plan_text =
                std::fs::read_to_string(&plan).map_err(|e| format!("read {plan}: {e}"))?;
            let plan = FaultPlan::from_json(&plan_text)?;
            let corrupted = plan.apply(&log).map_err(|e| e.to_string())?;
            write_log(&corrupted, &out, format)?;
            autosens_obs::info!(
                "injected {} fault op(s) (seed {}): {} -> {} records, wrote {out}",
                plan.ops.len(),
                plan.seed,
                log.len(),
                corrupted.len()
            );
            for op in &plan.ops {
                autosens_obs::debug!("fault op: {}", op.describe());
            }
            Ok(())
        }
        Command::Watch(args) => run_watch(args),
        Command::Serve(args) => run_serve(args),
        Command::AgentPush {
            to,
            input,
            format,
            service,
            region,
            batch,
            retries,
            backoff_ms,
            commit,
        } => {
            let source = open_log(&input, format)?;
            let view = source.view();
            let tenant = TenantKey::new(&service, &region).map_err(|e| e.to_string())?;
            let mut cfg = AgentConfig::new(&to, tenant);
            cfg.batch_size = batch;
            cfg.retries = retries;
            cfg.backoff_ms = backoff_ms;
            let mut agent = Agent::connect(cfg).map_err(|e| e.to_string())?;
            let n = view.len();
            for i in 0..n {
                agent.push(view.get(i)).map_err(|e| e.to_string())?;
            }
            if commit {
                agent.commit().map_err(|e| e.to_string())?;
            } else {
                agent.flush().map_err(|e| e.to_string())?;
            }
            autosens_obs::info!(
                "pushed {n} records to {to} as {service}/{region} ({} acknowledged{})",
                agent.acked(),
                if commit { ", committed" } else { "" }
            );
            Ok(())
        }
        Command::Query { addr, path } => {
            let (status, body) =
                autosens_serve::http_get(&addr, &path).map_err(|e| e.to_string())?;
            print!("{}", String::from_utf8_lossy(&body));
            if status != 200 {
                return Err(format!("{addr}{path}: HTTP {status}"));
            }
            Ok(())
        }
        Command::Alpha {
            input,
            format,
            slice,
        } => {
            let log = read_log(&input, format)?;
            let engine = AnalysisPlan::new(AutoSensConfig::default());
            let est = engine
                .alpha_by_period(&log, &to_slice(&slice))
                .map_err(|e| e.to_string())?;
            let rows: Vec<Vec<String>> = est
                .groups
                .iter()
                .map(|g| {
                    vec![
                        g.label.clone(),
                        g.n_actions.to_string(),
                        g.alpha.map(f3).unwrap_or_else(|| "-".into()),
                    ]
                })
                .collect();
            println!("activity factor per day period (8am-2pm = 1.0)\n");
            println!("{}", text_table(&["period", "actions", "alpha"], &rows));
            Ok(())
        }
    }
}

/// The tailed source: text files advance by byte offset, binary containers
/// by row count (a container grows by atomic whole-file replacement, so
/// byte positions of old rows are not stable — row indices are).
enum SourceReader {
    /// Line-oriented CSV/JSONL tailing.
    Text(TailReader),
    /// Row-oriented `.asc` container tailing.
    Binary(ContainerTailReader),
}

impl SourceReader {
    /// Current position: bytes consumed (text) or rows consumed (binary).
    fn offset(&self) -> u64 {
        match self {
            SourceReader::Text(r) => r.offset(),
            SourceReader::Binary(r) => r.offset(),
        }
    }

    /// Read whatever the source has grown by. With `at_eof` the source has
    /// stopped growing, so end of file ends a text source's last line.
    /// Returns the new records and the count of malformed rows skipped
    /// (always 0 for containers, which validate all-or-nothing).
    fn poll(&mut self, at_eof: bool) -> Result<(Vec<ActionRecord>, usize), String> {
        match self {
            SourceReader::Text(r) => {
                let (records, errors) =
                    if at_eof { r.poll_to_eof() } else { r.poll() }.map_err(|e| e.to_string())?;
                Ok((records, errors.total()))
            }
            SourceReader::Binary(r) => {
                let records = r.poll().map_err(|e| e.to_string())?;
                Ok((records, 0))
            }
        }
    }
}

/// Tail a telemetry file through the streaming engine, emitting updated
/// curves on the requested cadence. With `--until-eof` and no cadence the
/// single final snapshot is byte-identical to batch `analyze` over the
/// same file (the CI equivalence gate depends on this).
fn run_watch(args: WatchArgs) -> Result<(), String> {
    let recorder = args.profile.start();
    // A container source is detected by magic (or forced with --format asc
    // before the file exists); everything else tails as text lines.
    let binary =
        args.format == Format::Asc || container::is_container_file(&args.input).unwrap_or(false);
    let tail_format = match args.format {
        Format::Jsonl => TailFormat::Jsonl,
        _ => TailFormat::Csv,
    };
    let filter = to_slice(&args.slice);
    let label = slice_label(&args.slice);

    // Fresh start or checkpoint resume: the checkpoint carries the full
    // streaming configuration and the tailed file's offset (bytes for text
    // sources, rows for containers), so a resumed watch continues exactly
    // where the checkpointed one stopped.
    let (mut engine, mut reader) = match (&args.checkpoint, args.resume) {
        (Some(path), true) => {
            let ck = Checkpoint::load(std::path::Path::new(path))
                .map_err(|e| format!("resume from {path}: {e}"))?;
            // Refuse to seek past the end of a truncated/replaced source:
            // the checkpointed offset would land on unrelated bytes (text)
            // or rows that no longer exist (binary).
            if binary {
                let rows = container::peek_row_count(&args.input)
                    .map_err(|e| format!("resume from {path}: {e}"))?;
                ck.check_source_length(rows)
                    .map_err(|e| format!("resume from {path}: {e}"))?;
            } else {
                ck.check_source_file(std::path::Path::new(&args.input))
                    .map_err(|e| format!("resume from {path}: {e}"))?;
            }
            let offset = ck.source_offset;
            autosens_obs::info!(
                "resuming from {path}: {} live records, offset {offset}",
                ck.shards.iter().map(|s| s.records.len()).sum::<usize>()
            );
            let engine = StreamEngine::restore(ck, filter, recorder.clone())
                .map_err(|e| format!("resume from {path}: {e}"))?;
            let reader = if binary {
                SourceReader::Binary(ContainerTailReader::resume(&args.input, offset))
            } else {
                SourceReader::Text(TailReader::resume(&args.input, tail_format, offset))
            };
            (engine, reader)
        }
        _ => {
            let config = StreamConfig {
                analysis: args.analysis.config(),
                shard_ms: args.shard_ms,
                allowed_lateness_ms: args.lateness_ms,
                retain_ms: None,
                detector: args.detect.then(DetectorConfig::default),
                decay_half_life_ms: args.half_life_ms,
            };
            let engine = StreamEngine::with_recorder(config, filter, recorder.clone())
                .map_err(|e| e.to_string())?;
            let reader = if binary {
                SourceReader::Binary(ContainerTailReader::new(&args.input))
            } else {
                SourceReader::Text(TailReader::new(&args.input, tail_format))
            };
            (engine, reader)
        }
    };

    let mut admitted_since_emit: u64 = 0;
    let mut last_emit = std::time::Instant::now();
    let mut emitted_any = false;

    let save_checkpoint = |engine: &StreamEngine, reader: &SourceReader| -> Result<(), String> {
        if let Some(path) = &args.checkpoint {
            engine
                .checkpoint(reader.offset())
                .save(std::path::Path::new(path))
                .map_err(|e| format!("checkpoint {path}: {e}"))?;
            autosens_obs::debug!("checkpointed to {path} at offset {}", reader.offset());
        }
        Ok(())
    };

    // With --until-eof, the first empty poll means the file has stopped
    // growing: one last read then takes end of file as the end of the last
    // line, so an unterminated final line is analyzed too.
    let mut at_eof = false;
    loop {
        let (records, skipped) = reader.poll(at_eof)?;
        if skipped > 0 {
            autosens_obs::warn!("skipped {skipped} malformed row(s) while tailing");
        }
        let got_new = !records.is_empty();
        for r in records {
            if engine.push(r) == Ingest::Admitted {
                admitted_since_emit += 1;
            }
        }

        // Cadence-driven intermediate snapshots.
        let due_events = args.every_events.is_some_and(|n| admitted_since_emit >= n);
        let due_time = args
            .every_ms
            .is_some_and(|ms| last_emit.elapsed().as_millis() as u64 >= ms)
            && admitted_since_emit > 0;
        if due_events || due_time {
            if args.detect {
                for s in engine.run_detection().map_err(|e| e.to_string())? {
                    autosens_obs::warn!(
                        "regime shift: {} {} {} at {} (z = {:.1}{})",
                        s.stream,
                        s.signal,
                        s.direction,
                        s.bucket_start_ms,
                        s.magnitude_z,
                        if s.shared { ", shared" } else { "" }
                    );
                }
            }
            let report = emit_snapshot(
                &mut engine,
                &label,
                args.json,
                args.analysis.reference_ms,
                false,
            )?;
            if let (Some(path), Some(report)) = (&args.status_out, report.as_ref()) {
                StatusDocument::collect(&engine, report, 0)
                    .save(std::path::Path::new(path))
                    .map_err(|e| format!("status {path}: {e}"))?;
            }
            emitted_any = true;
            admitted_since_emit = 0;
            last_emit = std::time::Instant::now();
            save_checkpoint(&engine, &reader)?;
        }

        if at_eof {
            break;
        }
        if !got_new {
            if args.until_eof {
                at_eof = true;
            } else {
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
        }
    }

    // Final snapshot: always emitted at EOF unless a cadence snapshot
    // already covered the complete stream.
    if admitted_since_emit > 0 || !emitted_any {
        if args.detect {
            engine.run_detection().map_err(|e| e.to_string())?;
        }
        let report = emit_snapshot(
            &mut engine,
            &label,
            args.json,
            args.analysis.reference_ms,
            true,
        )?;
        if let (Some(path), Some(report)) = (&args.status_out, report.as_ref()) {
            StatusDocument::collect(&engine, report, 0)
                .save(std::path::Path::new(path))
                .map_err(|e| format!("status {path}: {e}"))?;
        }
    }
    save_checkpoint(&engine, &reader)?;
    args.profile.finish(&recorder)
}

/// Run the multi-tenant ingest gateway plus its HTTP query plane until
/// the process is killed. The ingest side listens on TCP, or on a unix
/// socket when `--listen` contains a `/`. With `--ready-file` the bound
/// addresses are written out once both listeners are up, so scripts can
/// bind port 0 and discover where the gateway landed.
fn run_serve(args: ServeArgs) -> Result<(), String> {
    let recorder = Recorder::global().clone();
    let config = GatewayConfig {
        stream: StreamConfig {
            analysis: args.analysis.config(),
            shard_ms: args.shard_ms,
            allowed_lateness_ms: args.lateness_ms,
            retain_ms: None,
            detector: Some(DetectorConfig::default()),
            decay_half_life_ms: None,
        },
        checkpoint_dir: args.checkpoint_dir.map(std::path::PathBuf::from),
        resume: args.resume,
        threads: args.analysis.threads,
        ..GatewayConfig::default()
    };
    let gateway = Gateway::new(config, recorder).map_err(|e| e.to_string())?;
    if !gateway.registry().is_empty() {
        autosens_obs::info!(
            "restored {} tenant(s) at generation {}",
            gateway.registry().len(),
            gateway.registry().generation()
        );
    }

    let http_listener = std::net::TcpListener::bind(&args.http)
        .map_err(|e| format!("bind http {}: {e}", args.http))?;
    let http_addr = http_listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();

    // The unix-socket path doubles as its "address"; a TCP listen gets
    // its real bound address (which differs from the flag for port 0).
    let unix = args.listen.contains('/');
    let (tcp_listener, ingest_addr) = if unix {
        (None, args.listen.clone())
    } else {
        let l = std::net::TcpListener::bind(&args.listen)
            .map_err(|e| format!("bind ingest {}: {e}", args.listen))?;
        let addr = l.local_addr().map_err(|e| e.to_string())?.to_string();
        (Some(l), addr)
    };

    #[cfg(unix)]
    let unix_listener = if unix {
        remove_stale_socket(&args.listen)?;
        Some(
            std::os::unix::net::UnixListener::bind(&args.listen)
                .map_err(|e| format!("bind ingest {}: {e}", args.listen))?,
        )
    } else {
        None
    };
    #[cfg(not(unix))]
    if unix {
        return Err(format!("unix sockets unsupported here: {}", args.listen));
    }

    if let Some(path) = &args.ready_file {
        std::fs::write(path, format!("INGEST {ingest_addr}\nHTTP {http_addr}\n"))
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    autosens_obs::info!("gateway ready: ingest {ingest_addr}, http {http_addr}");

    let http_gateway = gateway.clone();
    std::thread::spawn(move || serve_http(&http_gateway, http_listener));

    match tcp_listener {
        Some(l) => gateway.serve_tcp(l),
        None => {
            #[cfg(unix)]
            gateway.serve_unix(unix_listener.expect("unix listener bound above"));
            #[cfg(not(unix))]
            unreachable!("rejected above")
        }
    }
    Ok(())
}

/// Print one streaming snapshot in the same shape `analyze` uses, so the
/// final `--until-eof` emission diffs clean against the batch output.
/// Returns the report so the caller can derive the status document from
/// the same snapshot instead of recomputing it.
fn emit_snapshot(
    engine: &mut StreamEngine,
    label: &str,
    json: bool,
    reference_ms: f64,
    final_emit: bool,
) -> Result<Option<std::sync::Arc<AnalysisReport>>, String> {
    let report = match engine.snapshot() {
        Ok(report) => report,
        // An empty window is not fatal mid-stream (records may simply not
        // have arrived yet); only the final snapshot insists on data.
        Err(e) if !final_emit => {
            autosens_obs::debug!("skipping snapshot: {e}");
            return Ok(None);
        }
        Err(e) => return Err(e.to_string()),
    };
    for d in &report.degradations {
        autosens_obs::warn!("degraded input: {d}");
    }
    let status = engine.status();
    if !final_emit {
        autosens_obs::info!(
            "snapshot after {} events ({} live records, {} shards, {} late, {} dup)",
            status.events,
            status.live_records,
            status.shards,
            status.late,
            status.duplicates
        );
    }
    print_curve(&report, label, reference_ms, json, None)?;
    Ok(Some(report))
}

/// Print a curve as `analyze` does: the JSON summary, or a header line and
/// a table over the default grid. Given a confidence band `ci`, the table
/// gains its columns and the JSON a final `"ci"` member ([`CiMember`]),
/// both over the grid points where the curve and the band have a value.
/// `watch` prints through the same function, so its final snapshot diffs
/// clean against `analyze`.
fn print_curve(
    report: &AnalysisReport,
    label: &str,
    reference_ms: f64,
    json: bool,
    ci: Option<&PreferenceCi>,
) -> Result<(), String> {
    let grid = autosens_core::report::default_grid();
    // `(latency, preference, lo, hi)` where the band covers the curve.
    let band = ci.map(|ci| -> Vec<(f64, f64, f64, f64)> {
        grid.iter()
            .filter_map(|&l| {
                let v = report.preference.at(l)?;
                let (lo, hi) = ci.band_at(l)?;
                Some((l, v, lo, hi))
            })
            .collect()
    });
    if json {
        let summary = PreferenceSummary::from_report(label, report, &grid);
        let mut value = serde::Serialize::to_value(&summary);
        if let (Some(ci), Some(band), serde::Value::Object(members)) = (ci, &band, &mut value) {
            let member = CiMember {
                level: ci.level,
                replicates: ci.replicates,
                band: band.iter().map(|&(l, _, lo, hi)| (l, lo, hi)).collect(),
            };
            members.push(("ci".into(), serde::Serialize::to_value(&member)));
        }
        println!(
            "{}",
            serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    let (lo, hi) = report.preference.span_ms();
    println!(
        "slice: {label} — {} actions, span {lo:.0}..{hi:.0} ms, reference {reference_ms} ms\n",
        report.n_actions
    );
    let (headers, rows): (&[&str], Vec<Vec<String>>) = match band {
        Some(band) => (
            &["latency (ms)", "preference", "ci lo (95%)", "ci hi (95%)"],
            band.iter()
                .map(|&(l, v, lo, hi)| vec![format!("{l:.0}"), f3(v), f3(lo), f3(hi)])
                .collect(),
        ),
        None => (
            &["latency (ms)", "normalized preference"],
            grid.iter()
                .filter_map(|&l| {
                    report
                        .preference
                        .at(l)
                        .map(|v| vec![format!("{l:.0}"), f3(v)])
                })
                .collect(),
        ),
    };
    println!("{}", text_table(headers, &rows));
    Ok(())
}

/// The `"ci"` member `analyze --ci N --json` appends to the summary: the
/// bootstrap band's confidence level, its replicate count, and
/// `[latency_ms, lo, hi]` rows on the grid points the text table prints.
#[derive(serde::Serialize)]
struct CiMember {
    level: f64,
    replicates: usize,
    band: Vec<(f64, f64, f64)>,
}

impl AnalysisArgs {
    /// The estimator configuration these options select.
    fn config(&self) -> AutoSensConfig {
        AutoSensConfig {
            alpha_correction: !self.no_alpha,
            loss_correct: self.loss_correct,
            reference_latency_ms: self.reference_ms,
            threads: self.threads,
            ..AutoSensConfig::default()
        }
    }
}

impl ProfileArgs {
    /// The global recorder, collecting spans when any profiling output is
    /// asked for. It is the global one so the codec spans emitted while
    /// reading the log land in the same trace as the pipeline stages, and
    /// every counter shares one registry.
    fn start(&self) -> Recorder {
        let recorder = Recorder::global().clone();
        if self.profile || self.trace_out.is_some() || self.metrics_out.is_some() {
            recorder.set_collecting(true);
        }
        recorder
    }

    /// Write the requested outputs: the stage tree to stderr, the span
    /// trace as JSONL, the metrics snapshot as JSON.
    fn finish(&self, recorder: &Recorder) -> Result<(), String> {
        let tree = recorder.finish();
        if self.profile {
            eprint!("{}", tree.render());
        }
        if let Some(path) = &self.trace_out {
            std::fs::write(path, tree.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;
        }
        if let Some(path) = &self.metrics_out {
            write_metrics(path, recorder.metrics())?;
        }
        Ok(())
    }
}

/// Write a metrics snapshot as JSON, refusing one with a non-finite value.
fn write_metrics(path: &str, metrics: &MetricsRegistry) -> Result<(), String> {
    let snapshot = metrics.snapshot();
    snapshot
        .validate_finite()
        .map_err(|e| format!("non-finite metric: {e}"))?;
    std::fs::write(path, snapshot.to_json()).map_err(|e| format!("write {path}: {e}"))
}

/// Clear the way for a unix-socket listener at `path`: remove the socket a
/// killed gateway left there, and refuse anything else rather than delete
/// it, a socket that a running gateway still answers on included.
#[cfg(unix)]
fn remove_stale_socket(path: &str) -> Result<(), String> {
    use std::os::unix::fs::FileTypeExt;
    match std::fs::symlink_metadata(path) {
        Ok(meta) if meta.file_type().is_socket() => {
            if std::os::unix::net::UnixStream::connect(path).is_ok() {
                return Err(format!("bind ingest {path}: a gateway is listening there"));
            }
            std::fs::remove_file(path).map_err(|e| format!("remove stale socket {path}: {e}"))
        }
        Ok(_) => Err(format!(
            "bind ingest {path}: a file that is not a socket is in the way"
        )),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("bind ingest {path}: {e}")),
    }
}

/// An opened telemetry input: either a memory-mapped binary container or a
/// parsed-and-owned text log. Both expose the same zero-copy [`LogView`].
enum LogSource {
    /// A validated `.asc` container, columns borrowed from the mapping.
    Mapped(MappedLog),
    /// A log parsed from CSV or JSONL.
    Owned(TelemetryLog),
}

impl LogSource {
    /// Borrow the full columns, whatever the backing.
    fn view(&self) -> LogView<'_> {
        match self {
            LogSource::Mapped(m) => m.view(),
            LogSource::Owned(l) => l.view(),
        }
    }

    /// Materialize an owned log (copies the columns out of a mapping).
    fn into_log(self) -> Result<TelemetryLog, String> {
        match self {
            LogSource::Mapped(m) => m.to_log().map_err(|e| e.to_string()),
            LogSource::Owned(l) => Ok(l),
        }
    }
}

fn is_container(path: &str) -> Result<bool, String> {
    container::is_container_file(path).map_err(|e| format!("open {path}: {e}"))
}

/// Open a telemetry input, auto-detecting binary containers by file magic.
/// `format` only governs how *text* inputs are parsed; a container is
/// recognized (and a non-container rejected under `--format asc`) before
/// any text parsing happens.
fn open_log(path: &str, format: Format) -> Result<LogSource, String> {
    if is_container(path)? {
        return MappedLog::open(path)
            .map(LogSource::Mapped)
            .map_err(|e| format!("read {path}: {e}"));
    }
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let reader = BufReader::new(file);
    match format {
        Format::Csv => codec::read_csv(reader),
        Format::Jsonl => codec::read_jsonl(reader),
        Format::Asc => return Err(format!("{path} is not a container file")),
    }
    .map(LogSource::Owned)
    .map_err(|e| e.to_string())
}

fn read_log(path: &str, format: Format) -> Result<TelemetryLog, String> {
    open_log(path, format)?.into_log()
}

/// Write a log in the requested output format (text codecs or container).
fn write_log(log: &TelemetryLog, out: &str, format: Format) -> Result<(), String> {
    match format {
        Format::Asc => {
            container::write_container_file(log, out, None)
                .map_err(|e| format!("write {out}: {e}"))?;
        }
        Format::Csv | Format::Jsonl => {
            let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
            let mut w = BufWriter::new(file);
            match format {
                Format::Csv => codec::write_csv(log, &mut w),
                Format::Jsonl => codec::write_jsonl(log, &mut w),
                Format::Asc => unreachable!(),
            }
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn to_slice(args: &SliceArgs) -> Slice {
    let mut slice = Slice::all();
    if let Some(a) = args.action {
        slice = slice.action(a);
    }
    if let Some(c) = args.class {
        slice = slice.class(c);
    }
    if let Some(p) = args.period {
        slice = slice.period(p);
    }
    if let Some(m) = args.month {
        slice = slice.month(m);
    }
    if let Some(tz) = args.tz_hours {
        slice = slice.tz_offset_hours(tz);
    }
    slice
}

fn slice_label(args: &SliceArgs) -> String {
    let mut parts = Vec::new();
    if let Some(a) = args.action {
        parts.push(a.name().to_string());
    }
    if let Some(c) = args.class {
        parts.push(c.name().to_string());
    }
    if let Some(p) = args.period {
        parts.push(p.label().to_string());
    }
    if let Some(m) = args.month {
        parts.push(m.label().to_string());
    }
    if let Some(tz) = args.tz_hours {
        parts.push(format!("UTC{tz:+}"));
    }
    if parts.is_empty() {
        "all".to_string()
    } else {
        parts.join(" / ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosens_telemetry::record::{ActionType, UserClass};
    use autosens_telemetry::time::{DayPeriod, Month};

    #[test]
    fn slice_labels() {
        assert_eq!(slice_label(&SliceArgs::default()), "all");
        let s = SliceArgs {
            action: Some(ActionType::Search),
            class: Some(UserClass::Consumer),
            period: Some(DayPeriod::Night2to8),
            month: Some(Month::Jan),
            tz_hours: Some(-5),
        };
        assert_eq!(slice_label(&s), "Search / Consumer / 2am-8am / Jan / UTC-5");
    }

    #[test]
    fn to_slice_respects_filters() {
        use autosens_telemetry::record::{ActionRecord, Outcome, UserId};
        use autosens_telemetry::time::SimTime;
        let s = to_slice(&SliceArgs {
            action: Some(ActionType::Search),
            ..Default::default()
        });
        let r = ActionRecord {
            time: SimTime(0),
            action: ActionType::Search,
            latency_ms: 100.0,
            user: UserId(1),
            class: UserClass::Business,
            tz_offset_ms: 0,
            outcome: Outcome::Success,
        };
        assert!(s.matches(&r));
        let mut other = r;
        other.action = ActionType::SelectMail;
        assert!(!s.matches(&other));
    }

    #[cfg(unix)]
    #[test]
    fn stale_socket_is_replaced_and_a_regular_file_is_not() {
        let dir = std::env::temp_dir().join(format!("autosens-sock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("ingest.sock");
        // A killed gateway leaves its socket file behind.
        drop(std::os::unix::net::UnixListener::bind(&sock).unwrap());
        assert!(sock.exists());
        remove_stale_socket(sock.to_str().unwrap()).unwrap();
        let live = std::os::unix::net::UnixListener::bind(&sock).expect("rebinds after removal");
        // A socket something still listens on is not stale.
        let err = remove_stale_socket(sock.to_str().unwrap()).unwrap_err();
        assert!(err.contains("listening"), "{err}");
        assert!(sock.exists());
        drop(live);

        let file = dir.join("precious.csv");
        std::fs::write(&file, "keep me").unwrap();
        let err = remove_stale_socket(file.to_str().unwrap()).unwrap_err();
        assert!(err.contains("precious.csv"), "{err}");
        assert_eq!(std::fs::read_to_string(&file).unwrap(), "keep me");
        // Nothing at the path is no obstacle.
        remove_stale_socket(dir.join("absent.sock").to_str().unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_log_reports_missing_file() {
        let err = read_log("/nonexistent/definitely-missing.csv", Format::Csv).unwrap_err();
        assert!(err.contains("open"));
    }
}
