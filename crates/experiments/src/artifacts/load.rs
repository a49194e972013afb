//! Beyond the paper: multi-tenant serve-plane load.
//!
//! Drives a real [`autosens_serve::Gateway`] over TCP loopback with a
//! fleet of simulated tenants — every record crosses the wire through
//! the framed agent protocol, lands in a per-tenant bounded queue, and
//! is ingested by that tenant's own streaming engine. The artifact
//! reports what the gateway sustained: tenants registered, records
//! ingested per second, per-tenant snapshot latency (the cost one
//! `/tenant/<svc>/<region>/curve` query pays), and the wall clock of a
//! fleet-wide snapshot fan-out through the exec scheduler.
//!
//! Every tenant receives the same record slice, which turns the fleet
//! into a determinism probe: one thousand independently-created engines
//! fed identical input must serve identical curves. The shape checks
//! fail if any tenant drifts, if any record is lost between agent and
//! engine, or if any `autosens_serve_*` metric goes non-finite under
//! load.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use autosens_obs::Recorder;
use autosens_serve::frame::{read_frame, write_frame};
use autosens_serve::{Frame, Gateway, GatewayConfig, TenantKey, PROTOCOL_VERSION};
use autosens_sim::config::{Scenario, SimConfig};
use autosens_sim::generate;
use autosens_telemetry::record::ActionRecord;

use super::{Artifact, ShapeCheck};

/// Tenants the headline run drives (the acceptance floor is 1000).
const TENANTS: usize = 1000;

/// Floor on records each tenant ingests; the driver grows this to the
/// smallest pool prefix whose analysis has enough support to snapshot
/// (see `clean_prefix`).
const RECORDS_PER_TENANT: usize = 1200;

/// Concurrent agent connections pushing the fleet.
const CONNECTIONS: usize = 4;

/// Simulator seed for the shared record pool.
const SEED: u64 = 0x10AD;

/// Load-run parameters (small in unit tests, [`TENANTS`]-scale in the
/// artifact).
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Tenants to create (`svc-XX/reg-YY` grid).
    pub tenants: usize,
    /// Floor on records pushed to every tenant (grown until the slice
    /// analyzes cleanly).
    pub records_per_tenant: usize,
    /// Concurrent pusher connections.
    pub connections: usize,
    /// Worker threads for the fleet snapshot fan-out.
    pub snapshot_threads: usize,
    /// Simulator seed for the shared record slice.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            tenants: TENANTS,
            records_per_tenant: RECORDS_PER_TENANT,
            connections: CONNECTIONS,
            snapshot_threads: 4,
            seed: SEED,
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadStats {
    /// Tenants registered in the gateway after the push.
    pub tenants: usize,
    /// Records each tenant actually received (the configured floor,
    /// grown to the smallest cleanly-analyzing pool prefix).
    pub records_per_tenant: usize,
    /// Records acknowledged across the fleet.
    pub records_total: u64,
    /// Wall clock of the whole push (connect through last ACK), ms.
    pub ingest_wall_ms: f64,
    /// `records_total / ingest_wall`.
    pub records_per_sec: f64,
    /// `tenants / ingest_wall`.
    pub tenants_per_sec: f64,
    /// Per-tenant snapshot latencies, sorted ascending, ms. Measured
    /// after the cold fleet pass, so these are warm (cache-served)
    /// queries — the cost one `/curve` poll pays on a quiet tenant.
    pub snapshot_ms: Vec<f64>,
    /// Wall clock of the cold `snapshot_all` fan-out (every tenant's
    /// report computed from scratch), ms.
    pub fleet_snapshot_wall_ms: f64,
    /// Wall clock of a second `snapshot_all` with no new events (every
    /// report served from the engine snapshot cache), ms.
    pub fleet_resnapshot_wall_ms: f64,
    /// Tenants the warm pass served from cache (must equal `tenants`).
    pub resnapshot_reused: usize,
    /// Whether every tenant served an identical preference curve.
    pub curves_identical: bool,
    /// Error from the metrics finiteness sweep, if any.
    pub metrics_error: Option<String>,
    /// `autosens_serve_records_total` as the gateway counted it.
    pub counted_records: u64,
}

impl LoadStats {
    /// Percentile (nearest-rank) over the sorted snapshot latencies.
    pub fn snapshot_percentile_ms(&self, p: f64) -> f64 {
        percentile(&self.snapshot_ms, p)
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tenant grid: `svc-XX/reg-YY`, row-major, truncated to `n`.
fn tenant_keys(n: usize) -> Vec<TenantKey> {
    let regions = 25usize;
    (0..n)
        .map(|i| {
            TenantKey::new(
                format!("svc-{:02}", i / regions),
                format!("reg-{:02}", i % regions),
            )
            .expect("generated labels are valid")
        })
        .collect()
}

/// One pusher connection: HELLO, then one BATCH per assigned tenant,
/// stop-and-wait on the cumulative ACK. Returns the records acked.
fn push_tenants(
    addr: std::net::SocketAddr,
    keys: &[TenantKey],
    batch: &[ActionRecord],
) -> Result<u64, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream);
    let await_ack = |reader: &mut BufReader<TcpStream>| -> Result<u64, String> {
        match read_frame(reader).map_err(|e| e.to_string())? {
            Some(Frame::Ack { records }) => Ok(records),
            Some(Frame::Error { message }) => Err(format!("gateway error: {message}")),
            other => Err(format!("unexpected reply: {other:?}")),
        }
    };
    write_frame(
        &mut writer,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    await_ack(&mut reader)?;
    let mut acked = 0;
    for key in keys {
        write_frame(
            &mut writer,
            &Frame::Batch {
                tenant: key.clone(),
                records: batch.to_vec(),
            },
        )
        .map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())?;
        acked = await_ack(&mut reader)?;
    }
    Ok(acked)
}

/// The smallest pool prefix (doubling from `floor`) whose analysis has
/// enough busy/underload support to snapshot cleanly. Support depends
/// on how many distinct hours a time-sorted prefix spans, which varies
/// with the simulator seed — probing keeps every tenant snapshotable
/// without hardcoding a seed-specific count.
fn clean_prefix(pool: &[ActionRecord], floor: usize) -> Result<&[ActionRecord], String> {
    let mut n = floor.max(1);
    loop {
        if n > pool.len() {
            return Err(format!(
                "no prefix of the {}-record pool analyzes cleanly",
                pool.len()
            ));
        }
        let mut probe = autosens_stream::StreamEngine::new(
            autosens_stream::StreamConfig::default(),
            autosens_telemetry::query::Slice::all(),
        )
        .map_err(|e| e.to_string())?;
        for r in &pool[..n] {
            probe.push(*r);
        }
        if probe.snapshot().is_ok() {
            return Ok(&pool[..n]);
        }
        n *= 2;
    }
}

/// Run one gateway load experiment: spin up a gateway on loopback, push
/// the tenant fleet over `connections` framed sockets, then snapshot
/// every tenant (individually, timing each, and once more through the
/// fleet-wide exec fan-out).
pub fn drive(config: &LoadConfig) -> Result<LoadStats, String> {
    let mut sim = SimConfig::scenario(Scenario::Smoke);
    sim.seed = config.seed;
    let (log, _) = generate(&sim)?;
    let pool = log.to_records();
    if pool.len() < config.records_per_tenant {
        return Err(format!(
            "record pool too small: {} < {}",
            pool.len(),
            config.records_per_tenant
        ));
    }
    let batch = clean_prefix(&pool, config.records_per_tenant)?;
    let keys = tenant_keys(config.tenants);

    let recorder = Recorder::new();
    let gateway = Gateway::new(
        GatewayConfig {
            ingest_capacity: batch.len().max(1024),
            ..GatewayConfig::default()
        },
        recorder.clone(),
    )
    .map_err(|e| e.to_string())?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let accept_gw = gateway.clone();
    let accept = std::thread::spawn(move || {
        let _ = accept_gw.serve_tcp(listener);
    });

    let t0 = Instant::now();
    let chunk = keys.len().div_ceil(config.connections.max(1));
    let acked: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|part| s.spawn(move || push_tenants(addr, part, batch)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pusher thread completes"))
            .sum::<Result<u64, String>>()
    })?;
    let ingest_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Cold fleet fan-out through the exec scheduler: every tenant's
    // report is computed from scratch.
    let registry = gateway.registry();
    let t = Instant::now();
    let fleet = registry
        .snapshot_all(config.snapshot_threads)
        .map_err(|e| e.to_string())?;
    let fleet_snapshot_wall_ms = t.elapsed().as_secs_f64() * 1e3;
    if fleet.len() != keys.len() {
        return Err(format!(
            "fleet snapshot covered {} of {} tenants",
            fleet.len(),
            keys.len()
        ));
    }

    // Warm fleet fan-out: no events arrived since the cold pass, so
    // every report is served verbatim from the engine snapshot cache.
    let t = Instant::now();
    registry
        .snapshot_all(config.snapshot_threads)
        .map_err(|e| e.to_string())?;
    let fleet_resnapshot_wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let resnapshot_reused = registry
        .last_fleet_snapshot()
        .map(|s| s.reused)
        .unwrap_or(0);

    // Per-tenant snapshot latency: the cost one `/curve` query pays on a
    // quiet tenant (warm — the fleet passes above populated the caches).
    let mut snapshot_ms = Vec::with_capacity(keys.len());
    let mut curve = None;
    let mut curves_identical = true;
    for key in &keys {
        let t = Instant::now();
        let report = registry.snapshot(key).map_err(|e| e.to_string())?;
        snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let series = serde_json::to_string(&report.preference.series().to_vec())
            .map_err(|e| e.to_string())?;
        match &curve {
            None => curve = Some(series),
            Some(first) => curves_identical &= *first == series,
        }
    }
    snapshot_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    gateway.request_stop();
    let _ = TcpStream::connect(addr);
    let _ = accept.join();

    let metrics = recorder.metrics().snapshot();
    let metrics_error = metrics.validate_finite().err();
    let counted_records = metrics
        .counters
        .iter()
        .find(|c| c.name == "autosens_serve_records_total")
        .map(|c| c.value)
        .unwrap_or(0);

    Ok(LoadStats {
        tenants: registry.len(),
        records_per_tenant: batch.len(),
        records_total: acked,
        ingest_wall_ms,
        records_per_sec: acked as f64 / (ingest_wall_ms / 1e3),
        tenants_per_sec: keys.len() as f64 / (ingest_wall_ms / 1e3),
        snapshot_ms,
        fleet_snapshot_wall_ms,
        fleet_resnapshot_wall_ms,
        resnapshot_reused,
        curves_identical,
        metrics_error,
        counted_records,
    })
}

/// Generate the serve-plane load artifact at acceptance scale.
pub fn generate_load() -> Artifact {
    let config = LoadConfig::default();
    let stats = drive(&config).expect("load run completes");
    render(&config, &stats)
}

/// Render stats into the artifact (split out so tests can check the
/// shape logic at small scale).
fn render(config: &LoadConfig, stats: &LoadStats) -> Artifact {
    let expected = (config.tenants * stats.records_per_tenant) as u64;
    let p50 = stats.snapshot_percentile_ms(50.0);
    let p99 = stats.snapshot_percentile_ms(99.0);
    let rendered = format!(
        "serve-plane load: {} tenants x {} records over {} connections\n\
         \n\
         ingest wall        {:>10.1} ms\n\
         records/sec        {:>10.0}\n\
         tenants/sec        {:>10.1}\n\
         snapshot p50       {:>10.2} ms (warm)\n\
         snapshot p99       {:>10.2} ms (warm)\n\
         fleet snapshot     {:>10.1} ms ({} tenants, {} threads, cold)\n\
         fleet re-snapshot  {:>10.1} ms ({} reused from cache)\n",
        stats.tenants,
        stats.records_per_tenant,
        config.connections,
        stats.ingest_wall_ms,
        stats.records_per_sec,
        stats.tenants_per_sec,
        p50,
        p99,
        stats.fleet_snapshot_wall_ms,
        stats.tenants,
        config.snapshot_threads,
        stats.fleet_resnapshot_wall_ms,
        stats.resnapshot_reused,
    );
    let csv = vec![(
        "load_summary".to_string(),
        format!(
            "tenants,records_total,ingest_wall_ms,records_per_sec,tenants_per_sec,\
             snapshot_p50_ms,snapshot_p99_ms,fleet_snapshot_wall_ms,fleet_resnapshot_wall_ms\n\
             {},{},{:.3},{:.1},{:.2},{:.3},{:.3},{:.3},{:.3}\n",
            stats.tenants,
            stats.records_total,
            stats.ingest_wall_ms,
            stats.records_per_sec,
            stats.tenants_per_sec,
            p50,
            p99,
            stats.fleet_snapshot_wall_ms,
            stats.fleet_resnapshot_wall_ms,
        ),
    )];
    let checks = vec![
        ShapeCheck::new(
            format!("gateway sustains {} concurrent tenants", config.tenants),
            stats.tenants == config.tenants,
            format!("{} registered", stats.tenants),
        ),
        ShapeCheck::new(
            "every pushed record acknowledged and counted",
            stats.records_total == expected && stats.counted_records == expected,
            format!(
                "acked {} / counted {} / expected {}",
                stats.records_total, stats.counted_records, expected
            ),
        ),
        ShapeCheck::new(
            "snapshot latency finite and ordered (p50 <= p99)",
            p50.is_finite() && p99.is_finite() && p50 > 0.0 && p50 <= p99,
            format!("p50 {p50:.2} ms, p99 {p99:.2} ms"),
        ),
        ShapeCheck::new(
            "identical input yields identical curves on every tenant",
            stats.curves_identical,
            format!("{} engines compared", stats.tenants),
        ),
        ShapeCheck::new(
            "warm fleet re-snapshot serves every tenant from cache",
            stats.resnapshot_reused == stats.tenants,
            format!("{} of {} reused", stats.resnapshot_reused, stats.tenants),
        ),
        ShapeCheck::new(
            "all serve metrics finite under load",
            stats.metrics_error.is_none(),
            stats
                .metrics_error
                .clone()
                .unwrap_or_else(|| "clean".into()),
        ),
    ];
    Artifact {
        id: "load",
        title: "Serve-plane load: multi-tenant gateway throughput and snapshot latency",
        rendered,
        csv,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_passes_every_shape_check() {
        let config = LoadConfig {
            tenants: 12,
            records_per_tenant: 1200,
            connections: 3,
            snapshot_threads: 2,
            seed: 42,
        };
        let stats = drive(&config).expect("small load run completes");
        let artifact = render(&config, &stats);
        assert!(
            artifact.all_pass(),
            "shape checks failed:\n{}",
            artifact.render_checks()
        );
        assert_eq!(stats.tenants, 12);
        assert_eq!(stats.records_total, 12 * stats.records_per_tenant as u64);
        assert!(stats.records_per_tenant >= 1200);
        assert_eq!(stats.snapshot_ms.len(), 12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
