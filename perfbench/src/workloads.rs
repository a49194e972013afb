//! The four workloads. `README.md` says why each exists and which layers
//! it loads; the constants here are the sizes and offered rates it names.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::gen::{self, digest, fnv1a, Record, Rng, Zipf, FNV_OFFSET};
use crate::load::{self, Phase};
use crate::proc::{self, Server};
use crate::stats;
use crate::wire::{self, Agent, Tenant};

/// Records in every agent BATCH after preload.
pub const BATCH: usize = 64;
/// Load threads and connections: the bench host's CPU count.
pub const CLIENTS: usize = 2;
/// Offered rates of the open-loop serve workloads: absolute numbers, so
/// every commit is offered the same load. On the 2-CPU reference host a
/// closed loop of two clients sustained 25,000–26,000 batches/s and
/// 5,300–6,800 curve queries/s, and a refresh of one of 200 tenants cost
/// the gateway about 86 ms of CPU, so it can serve about 11 refreshes/s.
/// Each workload is offered about half of its capacity.
pub const INGEST_BATCHES_PER_S: f64 = 12_500.0;
pub const QUERY_PER_S: f64 = 3_000.0;
pub const REFRESH_PER_S: f64 = 5.0;
/// refresh-dirty sends a COMMIT on its agent connection this often.
pub const COMMIT_EVERY_S: f64 = 2.0;
/// Fail the run when the open-loop generator sends operations later than
/// this at p99: a late generator measures itself, not the program.
pub const GEN_LAG_LIMIT_MS: f64 = 20.0;
/// Zipf exponents of tenant popularity.
const INGEST_ZIPF: f64 = 1.1;
const REFRESH_ZIPF: f64 = 1.0;
/// Tenant streams start at 10:00 on day 0, in the busy part of the day.
const TENANT_START_MS: i64 = 10 * 3_600_000;
const TENANT_PER_MINUTE: f64 = 20.0;
const TENANT_USERS: u64 = 300;

/// Input sizes; `--smoke` shrinks every workload to a toy.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub batch_records: usize,
    pub fleet_tenants: usize,
    pub fleet_preload: usize,
    pub warm_tenants: usize,
    pub tenant_records: usize,
}

/// The sizes the workloads were specified with: batch-paper's log is as
/// large as the paper-scale simulation's (8,168,731 records).
pub const FULL: Sizes = Sizes {
    batch_records: 8_168_731,
    fleet_tenants: 1000,
    fleet_preload: 1200,
    warm_tenants: 200,
    tenant_records: 2400,
};

pub const SMOKE: Sizes = Sizes {
    batch_records: 60_000,
    fleet_tenants: 40,
    fleet_preload: 1200,
    warm_tenants: 4,
    tenant_records: 2400,
};

/// What a workload runs against and for how long.
pub struct Ctx {
    pub autosens: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub sizes: Sizes,
}

impl Ctx {
    fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    fn autosens(&self) -> Command {
        Command::new(&self.autosens)
    }
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// What one workload run measured and verified.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    /// Latency samples of the workload's operation, ms: from the due time
    /// in the open loops, per call in batch-paper's closed loop.
    pub latency_ms: Vec<f64>,
    /// CPU time the program spent on a typical operation, ms: the median
    /// call in batch-paper; in the serve workloads, the CPU time of the
    /// middle half of the seconds over the operations due in them.
    pub cpu_ms_per_op: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub lags_ms: Vec<f64>,
    pub checks: Vec<Check>,
    pub input_digest: u64,
    pub output_digest: u64,
    pub first_error: Option<String>,
}

impl Outcome {
    fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    /// Take the measurements of a serve workload's open loop.
    fn measured(&mut self, phase: Phase, cpu_ms_per_op: f64) {
        self.attempted = phase.samples.len() as u64;
        self.failed = phase.failed();
        self.first_error = phase.first_error;
        self.latency_ms = phase.samples.iter().map(|s| s.latency_ms).collect();
        self.lags_ms = phase.samples.iter().map(|s| s.lag_ms).collect();
        self.cpu_ms_per_op = cpu_ms_per_op;
        self.generator_check();
    }

    fn generator_check(&mut self) {
        let p99 = stats::percentile(&stats::sorted(self.lags_ms.clone()), 99.0);
        self.check(
            "generator kept its schedule",
            p99 <= GEN_LAG_LIMIT_MS,
            format!("send lag p99 {p99:.3} ms (limit {GEN_LAG_LIMIT_MS} ms)"),
        );
    }
}

/// [`load::open_loop`] at `rate` for the run's duration, sampling the
/// gateway's CPU time in twenty windows (half a second each in a
/// 10-second run). Returns the phase and the CPU time per operation over the middle
/// half of the windows, ms: a few seconds in which the shared host ran
/// slow then move it less than they move a mean.
fn open_loop_with_cpu<W: Send>(
    ctx: &Ctx,
    server: &Server,
    workers: &mut [W],
    rate: f64,
    op: impl Fn(&mut W, usize) -> Result<(), String> + Sync,
) -> Result<(Phase, f64), String> {
    let window = ctx.duration() / 20;
    let done = AtomicBool::new(false);
    let (phase, windows) = std::thread::scope(|s| {
        let sampler = s.spawn(|| -> Result<Vec<f64>, String> {
            let mut windows = Vec::new();
            let mut last = server.cpu_s()?;
            loop {
                std::thread::sleep(window);
                if done.load(Ordering::Acquire) {
                    return Ok(windows);
                }
                let now = server.cpu_s()?;
                windows.push(now - last);
                last = now;
            }
        });
        let phase = load::open_loop(workers, rate, ctx.duration(), op);
        done.store(true, Ordering::Release);
        (phase, sampler.join().expect("CPU sampler panicked"))
    });
    let cpu_s = stats::interquartile_mean(&windows?);
    Ok((phase, cpu_s * 1e3 / (rate * window.as_secs_f64())))
}

/// The one tenant stream every serve workload preloads, and refresh-dirty
/// keeps extending.
pub fn tenant_stream(seed: u64, n: usize) -> Vec<Record> {
    gen::activity(seed, TENANT_START_MS, n, TENANT_PER_MINUTE, TENANT_USERS)
}

/// `autosens analyze --json` over `records`: the batch answer a served
/// curve must equal byte for byte.
fn batch_curve(ctx: &Ctx, name: &str, records: &[Record]) -> Result<Vec<u8>, String> {
    let csv = ctx.work.join(format!("{name}.csv"));
    gen::write_csv(&csv, records).map_err(|e| format!("write {}: {e}", csv.display()))?;
    let out = proc::run(
        ctx.autosens()
            .args(["analyze", "--threads", "1", "--json", "--quiet", "--in"])
            .arg(&csv),
    )?;
    if !out.ok() {
        return Err(format!("analyze {name} exited with {:?}", out.exit_code));
    }
    Ok(out.stdout)
}

/// batch-paper's log: the paper-scale simulation's 5,000 users, at a rate
/// that spreads [`FULL`]'s records over about the same 59 days.
pub fn batch_records(seed: u64) -> gen::Activity {
    gen::Activity::new(seed, 0, 170.0, 5_000)
}

/// batch-paper: the analyst's job, one client in a closed loop.
pub fn batch_paper(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let csv = ctx.work.join("paper.csv");
    let asc = ctx.work.join("paper.asc");
    let records = batch_records(ctx.seed).take(ctx.sizes.batch_records);
    out.input_digest =
        gen::write_csv(&csv, records).map_err(|e| format!("write {}: {e}", csv.display()))?;

    let convert = proc::run(
        ctx.autosens()
            .args(["convert", "--quiet", "--in"])
            .arg(&csv)
            .arg("--out")
            .arg(&asc),
    )?;
    if !convert.ok() {
        return Err(format!("convert exited with {:?}", convert.exit_code));
    }
    out.setup_s = convert.wall_s;

    let analyze = |input: &Path| {
        proc::run(
            ctx.autosens()
                .args(["analyze", "--in"])
                .arg(input)
                .args(["--action", "SelectMail", "--class", "Business"])
                .args(["--ci", "50", "--threads", "1", "--json", "--quiet"]),
        )
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut first: Option<Vec<u8>> = None;
    let mut differing = 0u64;
    let mut cpu_ms = Vec::new();
    let end = Instant::now() + ctx.duration();
    let mut ready = Instant::now();
    while ready < end {
        let sent = Instant::now();
        let run = analyze(&asc)?;
        let done = Instant::now();
        out.latency_ms.push(ms(done - sent));
        out.lags_ms.push(ms(sent - ready));
        ready = done;
        out.attempted += 1;
        cpu_ms.push(run.cpu_s * 1e3);
        out.peak_rss_mb = out.peak_rss_mb.max(run.peak_rss_mb);
        if !run.ok() {
            out.failed += 1;
            out.first_error
                .get_or_insert(format!("analyze exited with {:?}", run.exit_code));
            continue;
        }
        match &first {
            None => first = Some(run.stdout),
            Some(f) if *f != run.stdout => differing += 1,
            Some(_) => {}
        }
    }
    out.cpu_ms_per_op = stats::median(&cpu_ms);

    let first = first.unwrap_or_default();
    out.output_digest = digest(&first);
    out.check(
        "every analyze printed the same bytes",
        differing == 0 && !first.is_empty(),
        format!("{differing} of {} runs differed", out.attempted),
    );
    let text = analyze(&csv)?;
    out.check(
        "the container analyzes to the same bytes as its CSV",
        text.ok() && text.stdout == first,
        format!("CSV analyze exit {:?}", text.exit_code),
    );
    out.generator_check();
    Ok(out)
}

/// Start a gateway and bring it to the state the workload measures from:
/// every tenant preloaded with `records` over [`CLIENTS`] agent
/// connections, then, if asked, one cold fleet snapshot pass and one
/// COMMIT. Returns the gateway and the seconds from spawn to that state.
fn set_up(
    ctx: &Ctx,
    tenants: &[Tenant],
    records: &[Record],
    cold_pass: bool,
    commit: bool,
) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let server = Server::spawn(&ctx.autosens, &ctx.work.join("gateway"), commit)?;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|j| {
                let ingest = &server.ingest;
                s.spawn(move || -> Result<(), String> {
                    let mut agent = Agent::connect(ingest)?;
                    for t in tenants.iter().skip(j).step_by(CLIENTS) {
                        agent.batch(t, records)?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("preload thread panicked"))
    })?;
    if cold_pass {
        let (status, _) = wire::get(&server.http, "/snapshot")?;
        if status != 200 {
            return Err(format!("/snapshot: HTTP {status}"));
        }
    }
    if commit {
        Agent::connect(&server.ingest)?.commit()?;
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// Record `k` of tenant `tenant`'s ingest stream: a pure function of its
/// arguments, one second apart, so every tenant's records are unique and
/// time-ordered however the batches are scheduled.
pub fn fleet_record(seed: u64, tenant: usize, k: u64, start_ms: i64) -> Record {
    let mut rng = Rng::new(seed ^ ((tenant as u64) << 40) ^ k);
    let user = rng.below(TENANT_USERS);
    Record {
        time_ms: start_ms + k as i64 * 1000 + rng.below(1000) as i64,
        action: rng.below(5) as u8,
        latency_ms: 100.0 + 900.0 * rng.unit(),
        user,
        class: (user % 2) as u8,
        tz_offset_ms: 0,
        outcome: 0,
    }
}

/// ingest-fleet: writes only, Zipf-skewed over a large fleet.
pub fn ingest_fleet(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tenants: Vec<Tenant> = (0..ctx.sizes.fleet_tenants).map(Tenant::nth).collect();
    let preload = tenant_stream(ctx.seed, ctx.sizes.fleet_preload);
    let start_ms = preload.last().map_or(0, |r| r.time_ms) + 1;
    let (server, setup_s) = set_up(ctx, &tenants, &preload, false, false)?;
    out.setup_s = setup_s;

    struct Pusher {
        agent: Agent,
        rng: Rng,
        /// The tenants only this connection writes, so each tenant's
        /// records arrive in time order.
        owned: Vec<usize>,
        zipf: Zipf,
        next: Vec<u64>,
        batch: Vec<Record>,
        /// Hash of the (tenant, first record) schedule, which with the
        /// seed determines every record pushed.
        schedule: u64,
    }
    let mut pushers = (0..CLIENTS)
        .map(|j| {
            let owned: Vec<usize> = (j..tenants.len()).step_by(CLIENTS).collect();
            Ok(Pusher {
                agent: Agent::connect(&server.ingest)?,
                rng: Rng::new(ctx.seed ^ (0xF1EE7 + j as u64)),
                zipf: Zipf::new(owned.len(), INGEST_ZIPF),
                next: vec![0; owned.len()],
                owned,
                batch: Vec::with_capacity(BATCH),
                schedule: FNV_OFFSET,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let (phase, cpu) =
        open_loop_with_cpu(ctx, &server, &mut pushers, INGEST_BATCHES_PER_S, |p, _| {
            let rank = p.zipf.sample(&mut p.rng);
            let t = p.owned[rank];
            let k0 = p.next[rank];
            p.next[rank] += BATCH as u64;
            p.schedule = fnv1a(p.schedule, &[t as u64, k0].map(u64::to_le_bytes).concat());
            p.batch.clear();
            p.batch
                .extend((k0..k0 + BATCH as u64).map(|k| fleet_record(ctx.seed, t, k, start_ms)));
            p.agent.batch(&tenants[t], &p.batch).map(|_| ())
        })?;
    out.measured(phase, cpu);

    out.input_digest = pushers.iter().fold(gen::digest_records(&preload), |h, p| {
        fnv1a(h, &p.schedule.to_le_bytes())
    });
    let sent = preload.len() as u64 * tenants.len() as u64
        + pushers.iter().map(|p| p.agent.sent).sum::<u64>();
    let counted = wire::counter(&server.http, "autosens_serve_records_total")?;
    out.check(
        "the gateway counted every record sent",
        sent == counted,
        format!("sent {sent}, autosens_serve_records_total {counted}"),
    );
    let (status, fleet) = wire::get(&server.http, "/fleet")?;
    out.output_digest = digest(&fleet);
    out.check("/fleet answers", status == 200, format!("HTTP {status}"));
    out.peak_rss_mb = server.peak_rss_mb()?;
    Ok(out)
}

/// query-warm: dashboards polling quiet tenants, every answer cached.
pub fn query_warm(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tenants: Vec<Tenant> = (0..ctx.sizes.warm_tenants).map(Tenant::nth).collect();
    let paths: Vec<String> = tenants.iter().map(Tenant::curve_path).collect();
    let records = tenant_stream(ctx.seed, ctx.sizes.tenant_records);
    out.input_digest = gen::digest_records(&records);
    let expected = batch_curve(ctx, "tenant", &records)?;
    out.output_digest = digest(&expected);
    let (server, setup_s) = set_up(ctx, &tenants, &records, true, false)?;
    out.setup_s = setup_s;

    let mut pollers: Vec<(Rng, u64)> = (0..CLIENTS)
        .map(|j| (Rng::new(ctx.seed ^ (0x9011 + j as u64)), 0))
        .collect();
    let (phase, cpu) = open_loop_with_cpu(
        ctx,
        &server,
        &mut pollers,
        QUERY_PER_S,
        |(rng, differing), _| {
            let path = &paths[rng.below(paths.len() as u64) as usize];
            let (status, body) = wire::get(&server.http, path)?;
            if status != 200 {
                return Err(format!("GET {path}: HTTP {status}"));
            }
            if body != expected {
                *differing += 1;
                return Err(format!("GET {path}: curve differs from analyze --json"));
            }
            Ok(())
        },
    )?;
    out.measured(phase, cpu);
    let differing: u64 = pollers.iter().map(|(_, d)| d).sum();
    out.check(
        "every served curve equals analyze --json over the same records",
        differing == 0,
        format!("{differing} curves differed"),
    );
    out.peak_rss_mb = server.peak_rss_mb()?;
    Ok(out)
}

/// Refresh chunks each refresh-dirty tenant stream can absorb.
const REFRESH_CAP: usize = 1000;

/// refresh-dirty: a write to a tenant, then a read of its curve, so every
/// read recomputes; a COMMIT rides the same agent connection every
/// [`COMMIT_EVERY_S`].
pub fn refresh_dirty(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tenants: Vec<Tenant> = (0..ctx.sizes.warm_tenants).map(Tenant::nth).collect();
    let paths: Vec<String> = tenants.iter().map(Tenant::curve_path).collect();
    let preloaded = ctx.sizes.tenant_records;
    let stream = tenant_stream(ctx.seed, preloaded + BATCH * REFRESH_CAP);
    let (server, setup_s) = set_up(ctx, &tenants, &stream[..preloaded], true, true)?;
    out.setup_s = setup_s;

    struct Refresher {
        agent: Agent,
        rng: Rng,
        zipf: Zipf,
        /// Per tenant: how much of `stream` it holds.
        next: Vec<usize>,
        schedule: u64,
    }
    let mut refresher = [Refresher {
        agent: Agent::connect(&server.ingest)?,
        rng: Rng::new(ctx.seed ^ 0x5EF5),
        zipf: Zipf::new(tenants.len(), REFRESH_ZIPF),
        next: vec![preloaded; tenants.len()],
        schedule: FNV_OFFSET,
    }];
    let commit_every = (REFRESH_PER_S * COMMIT_EVERY_S).round() as usize;
    let (phase, cpu) = open_loop_with_cpu(ctx, &server, &mut refresher, REFRESH_PER_S, |r, i| {
        if i > 0 && i % commit_every == 0 {
            r.agent.commit()?;
        }
        let t = r.zipf.sample(&mut r.rng);
        let (from, to) = (r.next[t], r.next[t] + BATCH);
        let chunk = stream.get(from..to).ok_or("tenant stream exhausted")?;
        r.schedule = fnv1a(r.schedule, &(t as u64).to_le_bytes());
        r.agent.batch(&tenants[t], chunk)?;
        r.next[t] = to;
        let (status, _) = wire::get(&server.http, &paths[t])?;
        if status != 200 {
            return Err(format!("GET {}: HTTP {status}", paths[t]));
        }
        Ok(())
    })?;
    out.measured(phase, cpu);
    let [refresher] = refresher;
    out.input_digest = fnv1a(
        gen::digest_records(&stream[..preloaded]),
        &refresher.schedule.to_le_bytes(),
    );

    // The three most popular tenants now hold the preload plus exactly the
    // chunks pushed to them; each must serve what batch analyze prints.
    let mut bodies = Vec::new();
    let mut differing = Vec::new();
    for (t, (path, &held)) in paths.iter().zip(&refresher.next).take(3).enumerate() {
        let (status, body) = wire::get(&server.http, path)?;
        let want = batch_curve(ctx, &format!("tenant-{t}"), &stream[..held])?;
        if status != 200 || body != want {
            differing.push(t);
        }
        bodies.extend_from_slice(&body);
    }
    out.output_digest = digest(&bodies);
    out.check(
        "refreshed tenants serve analyze --json over exactly their records",
        differing.is_empty(),
        format!("differing tenants {differing:?}"),
    );
    out.peak_rss_mb = server.peak_rss_mb()?;
    Ok(out)
}
