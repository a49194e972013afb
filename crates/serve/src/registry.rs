//! The per-tenant engine registry with atomic fleet checkpointing.
//!
//! The gateway owns one [`Registry`]. Each tenant (`service × region`,
//! see [`TenantKey`]) maps to its own [`StreamEngine`] + [`Ingestor`]
//! pair, so backpressure, watermarking, dedup, and loss counting all
//! happen per tenant with the exact machinery the single-tenant `watch`
//! path uses.
//!
//! # Locking
//!
//! Tenants live in one `HashMap` under one map lock, and each tenant
//! behind a lock of its own. The map lock is held only to look a tenant
//! up, to create one, or to copy out a sorted list of `(key, tenant)`
//! pairs, and it is always released before a tenant is locked: no path
//! takes the map lock while it holds a tenant lock. Work on a tenant —
//! draining its queue into its engine and then snapshotting or
//! checkpointing it — happens under that tenant's lock alone, in one
//! place ([`Registry::with_tenant`]'s lock-and-drain), so connections
//! feeding different tenants ingest concurrently.
//!
//! # Checkpoint directory layout
//!
//! The whole fleet checkpoints atomically under one directory:
//!
//! ```text
//! <dir>/MANIFEST.json          { version, generation, tenants: [...] }
//! <dir>/gen-<N>/<service>+<region>.ckpt.json
//! ```
//!
//! Checkpoint passes are serialized on a dedicated lock. A pass fills
//! `gen-<N+1>.tmp/` — a tenant unchanged since it wrote its file into the
//! live `gen-<N>/` gets a hard link to that file, every other tenant is
//! serialized and written with [`write_synced`] — fsyncs the directory
//! once, renames it to `gen-<N+1>/`, then writes the manifest pointing at
//! it with [`write_durable`], and only then deletes the previous
//! generation (a linked file lives on through its new name). A crash at
//! any point leaves either the old generation (manifest untouched) or the
//! new one (manifest renamed) fully intact — never a mix. Directory-entry
//! fsyncs are best-effort, so on filesystems that refuse them durability
//! of the *rename itself* is process-kill-safe rather than
//! power-loss-safe; file contents are always fsynced.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use autosens_core::pipeline::AnalysisReport;
use autosens_obs::{Gauge, Recorder};
use autosens_stats::binning::OutOfRange;
use autosens_stats::Binner;
use autosens_stream::checkpoint::{fsync_dir, write_durable, write_synced};
use autosens_stream::{
    Checkpoint, Ingestor, Offer, OverflowPolicy, StatusDocument, StreamConfig, StreamEngine,
};
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::ActionRecord;

use crate::error::ServeError;
use crate::tenant::TenantKey;

/// Manifest schema version.
pub const MANIFEST_VERSION: u32 = 1;

/// One tenant's streaming state. The engine holds the tenant's only copy
/// of its rows and of its latest report; the checkpoint it last wrote
/// stays on disk, remembered here by event count and generation.
pub struct Tenant {
    /// The per-tenant streaming engine.
    pub engine: StreamEngine,
    /// The per-tenant bounded intake queue (Block policy: the gateway
    /// drains inline when an offer reports full, so nothing sheds).
    pub ingestor: Ingestor,
    /// `(events, generation)` of the checkpoint file this tenant last
    /// wrote (or was restored from): while the engine's intake event
    /// counter — the snapshot cache's dirty key — still equals `events`
    /// and `generation` is live, the next pass hard-links that file
    /// instead of serializing the engine again.
    pub(crate) ckpt_file: Option<(u64, u64)>,
}

impl Tenant {
    /// Drain the intake queue into the engine.
    fn drain(&mut self) -> Result<(), ServeError> {
        self.ingestor.drain_into(&mut self.engine)?;
        Ok(())
    }
}

/// A tenant as the registry shares it.
type Shared = Arc<Mutex<Tenant>>;

/// Wall-clock and reuse accounting for the most recent fleet-wide
/// snapshot pass ([`Registry::snapshot_all`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetSnapshotStats {
    /// Wall-clock duration of the pass, ms.
    pub wall_ms: f64,
    /// Tenants covered.
    pub tenants: usize,
    /// Tenants whose report was served from the engine snapshot cache.
    pub reused: usize,
    /// Tenants whose report was recomputed (dirty since last snapshot).
    pub computed: usize,
}

/// The fleet manifest: which generation is live and which tenants it
/// holds. The `(service, region)` pair is re-read from here on restore —
/// file names are never parsed back into keys.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// Schema version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// The live generation number (`gen-<N>/` holds the files).
    pub generation: u64,
    /// Every checkpointed tenant, sorted by key.
    pub tenants: Vec<ManifestEntry>,
}

/// One tenant's entry in the [`Manifest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Tenant service label.
    pub service: String,
    /// Tenant region label.
    pub region: String,
    /// Checkpoint file name inside the generation directory.
    pub file: String,
}

/// The tenant registry. See the module docs.
pub struct Registry {
    tenants: Mutex<HashMap<TenantKey, Shared>>,
    /// `autosens_serve_tenants`, set under the map lock on every insert.
    tenant_gauge: Gauge,
    config: StreamConfig,
    ingest_capacity: usize,
    recorder: Recorder,
    generation: AtomicU64,
    /// Serializes checkpoint passes: two concurrent `checkpoint_all`
    /// calls (e.g. two agent COMMITs) would otherwise race on the same
    /// `gen-<N+1>` directory and delete each other's work.
    checkpoint_lock: Mutex<()>,
    /// Accounting for the most recent [`Registry::snapshot_all`] pass.
    fleet_stats: Mutex<Option<FleetSnapshotStats>>,
}

impl Registry {
    /// An empty registry creating tenants on demand under `config`.
    pub fn new(config: StreamConfig, ingest_capacity: usize, recorder: Recorder) -> Registry {
        Registry {
            tenants: Mutex::new(HashMap::new()),
            tenant_gauge: recorder.metrics().gauge("autosens_serve_tenants"),
            config,
            ingest_capacity: ingest_capacity.max(1),
            recorder,
            generation: AtomicU64::new(0),
            checkpoint_lock: Mutex::new(()),
            fleet_stats: Mutex::new(None),
        }
    }

    /// Accounting for the most recent [`Registry::snapshot_all`] pass,
    /// or `None` before the first pass.
    pub fn last_fleet_snapshot(&self) -> Option<FleetSnapshotStats> {
        *self.fleet_stats.lock()
    }

    /// The streaming configuration new tenants are created under.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The generation the last successful checkpoint wrote (0 = none).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Tenants currently registered.
    pub fn len(&self) -> usize {
        self.tenants.lock().len()
    }

    /// Whether no tenant exists yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every tenant with its key, sorted by key: one copy of the map,
    /// taken under the map lock and released before the caller locks any
    /// tenant. The deterministic order of checkpoints, fleet summaries,
    /// and snapshot fan-out.
    pub(crate) fn tenants(&self) -> Vec<(TenantKey, Shared)> {
        let mut pairs: Vec<(TenantKey, Shared)> = self
            .tenants
            .lock()
            .iter()
            .map(|(k, t)| (k.clone(), Arc::clone(t)))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs
    }

    /// Every tenant key, sorted.
    pub fn keys(&self) -> Vec<TenantKey> {
        self.tenants().into_iter().map(|(k, _)| k).collect()
    }

    /// Look up a tenant without creating it.
    pub fn get(&self, key: &TenantKey) -> Option<Shared> {
        self.tenants.lock().get(key).cloned()
    }

    /// Look up or create the tenant for `key`. Every tenant analyzes the
    /// unrestricted slice (label `all`), matching what batch
    /// `analyze` computes per input file.
    pub fn get_or_create(&self, key: &TenantKey) -> Result<Shared, ServeError> {
        key.validate()?;
        let mut tenants = self.tenants.lock();
        if let Some(t) = tenants.get(key) {
            return Ok(Arc::clone(t));
        }
        let engine =
            StreamEngine::with_recorder(self.config.clone(), Slice::all(), self.recorder.clone())?;
        Ok(self.insert(&mut tenants, key.clone(), engine, None))
    }

    /// Build a tenant around `engine` and insert it under `key`, with the
    /// map lock held by the caller: the one place a tenant is made, for
    /// [`Registry::get_or_create`] and [`Registry::restore`] alike.
    fn insert(
        &self,
        tenants: &mut HashMap<TenantKey, Shared>,
        key: TenantKey,
        engine: StreamEngine,
        ckpt_file: Option<(u64, u64)>,
    ) -> Shared {
        let tenant = Arc::new(Mutex::new(Tenant {
            engine,
            ingestor: Ingestor::new(
                self.ingest_capacity,
                OverflowPolicy::Block,
                self.recorder.clone(),
            ),
            ckpt_file,
        }));
        tenants.insert(key, Arc::clone(&tenant));
        self.tenant_gauge.set(tenants.len() as f64);
        tenant
    }

    /// Route one batch to its tenant through the bounded queue. A full
    /// queue is drained inline into the engine (explicit backpressure:
    /// the producing connection pays the drain, other tenants proceed).
    pub fn ingest(&self, key: &TenantKey, records: &[ActionRecord]) -> Result<u64, ServeError> {
        let tenant = self.get_or_create(key)?;
        let mut t = tenant.lock();
        for r in records {
            loop {
                match t.ingestor.offer(*r) {
                    Offer::Accepted | Offer::Shed => break,
                    Offer::Full => t.drain()?,
                }
            }
        }
        self.recorder
            .metrics()
            .counter("autosens_serve_records_total")
            .add(records.len() as u64);
        Ok(records.len() as u64)
    }

    /// Drain the tenant's queue and run a full deterministic snapshot.
    /// The report is shared with the engine's snapshot cache.
    pub fn snapshot(&self, key: &TenantKey) -> Result<Arc<AnalysisReport>, ServeError> {
        self.snapshot_with(key, &self.known(key)?, |_, report| report)
    }

    /// Drain, snapshot, and assemble the tenant's [`StatusDocument`]
    /// under one tenant lock, so the report, queue depth, and engine
    /// counters in the document describe a single consistent instant.
    pub fn status_document(&self, key: &TenantKey) -> Result<StatusDocument, ServeError> {
        self.snapshot_with(key, &self.known(key)?, |t, report| {
            StatusDocument::collect(&t.engine, &report, t.ingestor.queue_depth() as u64)
        })
    }

    /// An existing tenant, or the `unknown tenant` error.
    fn known(&self, key: &TenantKey) -> Result<Shared, ServeError> {
        self.get(key)
            .ok_or_else(|| ServeError::BadTenant(format!("unknown tenant {}", key.label())))
    }

    /// Drain and snapshot `tenant`, then hand it and the report to `f`,
    /// all under one tenant lock. One `serve_snapshot` span and one
    /// `autosens_serve_snapshot_ms` sample per call.
    fn snapshot_with<R>(
        &self,
        key: &TenantKey,
        tenant: &Shared,
        f: impl FnOnce(&Tenant, Arc<AnalysisReport>) -> R,
    ) -> Result<R, ServeError> {
        let started = Instant::now();
        let mut span = self.recorder.root("serve_snapshot");
        span.field("tenant", key.label());
        let out = drained(tenant, |t| {
            let report = t.engine.snapshot()?;
            Ok(f(t, report))
        })?;
        span.finish();
        self.recorder
            .metrics()
            .histogram("autosens_serve_snapshot_ms", &snapshot_binner())
            .observe(started.elapsed().as_secs_f64() * 1e3);
        Ok(out)
    }

    /// Run a closure against a locked tenant (drained first), e.g. for
    /// status documents or shift history that need `&StreamEngine`.
    pub fn with_tenant<R>(
        &self,
        key: &TenantKey,
        f: impl FnOnce(&mut Tenant) -> R,
    ) -> Result<R, ServeError> {
        drained(&self.known(key)?, |t| Ok(f(t)))
    }

    /// Snapshot every tenant through the exec scheduler, one tenant per
    /// chunk, so on a multi-core host `threads` tenants snapshot
    /// concurrently. Returns `(key, report)` pairs in sorted key order.
    /// Tenants with no new events since their last snapshot are served
    /// from the engine's snapshot cache; the split, read under the same
    /// tenant lock as the snapshot, is recorded in
    /// [`Registry::last_fleet_snapshot`].
    pub fn snapshot_all(
        &self,
        threads: usize,
    ) -> Result<Vec<(TenantKey, Arc<AnalysisReport>)>, ServeError> {
        let tenants = self.tenants();
        let n = tenants.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let started = Instant::now();
        let (results, _) =
            autosens_exec::run_chunks("serve_snapshot_all", n, 1, threads, |i, _| {
                let (key, tenant) = &tenants[i];
                self.snapshot_with(key, tenant, |t, report| {
                    (report, t.engine.last_snapshot_reused())
                })
            })
            .map_err(|e| ServeError::Checkpoint(format!("snapshot fan-out failed: {e}")))?;
        let reports: Vec<(Arc<AnalysisReport>, bool)> =
            results.into_iter().collect::<Result<_, _>>()?;
        let reused = reports.iter().filter(|(_, r)| *r).count();
        *self.fleet_stats.lock() = Some(FleetSnapshotStats {
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            tenants: n,
            reused,
            computed: n - reused,
        });
        Ok(tenants
            .into_iter()
            .zip(reports)
            .map(|((key, _), (report, _))| (key, report))
            .collect())
    }

    /// Checkpoint every tenant atomically into `dir` (see the module
    /// docs for the layout). Returns the new generation number.
    ///
    /// Only tenants with new events since their last file are serialized;
    /// the rest are hard-linked from the live generation, falling back to
    /// serializing on any link error.
    ///
    /// Passes are fully serialized: a second caller (e.g. a COMMIT on
    /// another agent connection) blocks until the first pass has renamed
    /// its generation live, then writes the generation after it.
    pub fn checkpoint_all(&self, dir: &Path) -> Result<u64, ServeError> {
        let _pass = self.checkpoint_lock.lock();
        let mut span = self.recorder.root("serve_checkpoint");
        std::fs::create_dir_all(dir)?;
        let live_gen = self.generation();
        let next = live_gen + 1;
        let live_dir = dir.join(format!("gen-{live_gen}"));
        let tmp = dir.join(format!("gen-{next}.tmp"));
        if tmp.exists() {
            std::fs::remove_dir_all(&tmp)?;
        }
        std::fs::create_dir_all(&tmp)?;
        let tenants = self.tenants();
        let mut entries = Vec::with_capacity(tenants.len());
        for (key, tenant) in &tenants {
            let file = format!("{}.ckpt.json", key.file_stem());
            let path = tmp.join(&file);
            let fail =
                |e: &dyn std::fmt::Display| ServeError::Checkpoint(format!("{}: {e}", key.label()));
            let json = drained(tenant, |t| {
                // Serialization is the expensive half of a checkpoint
                // pass; an unchanged tenant (the same dirty key the
                // snapshot cache uses) links the file it already wrote
                // into the live generation instead.
                let events = t.engine.events();
                let linked = t.ckpt_file == Some((events, live_gen))
                    && std::fs::hard_link(live_dir.join(&file), &path).is_ok();
                let json = if linked {
                    None
                } else {
                    Some(t.engine.checkpoint(0).to_json().map_err(|e| fail(&e))?)
                };
                t.ckpt_file = Some((events, next));
                Ok(json)
            })?;
            if let Some(json) = json {
                write_synced(&path, json.as_bytes()).map_err(|e| fail(&e))?;
            }
            entries.push(ManifestEntry {
                service: key.service.clone(),
                region: key.region.clone(),
                file,
            });
        }
        fsync_dir(&tmp);
        let live = dir.join(format!("gen-{next}"));
        if live.exists() {
            std::fs::remove_dir_all(&live)?;
        }
        std::fs::rename(&tmp, &live)?;
        fsync_dir(dir);
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            generation: next,
            tenants: entries,
        };
        let json = serde_json::to_string_pretty(&manifest)
            .map_err(|e| ServeError::Checkpoint(format!("manifest serialization failed: {e}")))?;
        write_durable(&manifest_path(dir), json.as_bytes())?;
        self.generation.store(next, Ordering::Release);
        if live_gen > 0 && live_dir.exists() {
            let _ = std::fs::remove_dir_all(&live_dir);
        }
        span.field("generation", format!("{next}"));
        span.field("tenants", format!("{}", tenants.len()));
        span.finish();
        self.recorder
            .metrics()
            .counter("autosens_serve_checkpoints_total")
            .inc();
        Ok(next)
    }

    /// Rebuild a registry from the live generation under `dir`. Every
    /// restored engine is byte-equivalent to the one checkpointed: the
    /// rows are the state of record and the aggregates are validated
    /// against them.
    pub fn restore(
        dir: &Path,
        config: StreamConfig,
        ingest_capacity: usize,
        recorder: Recorder,
    ) -> Result<Registry, ServeError> {
        let text = std::fs::read_to_string(manifest_path(dir))?;
        let manifest: Manifest = serde_json::from_str(&text)
            .map_err(|e| ServeError::Checkpoint(format!("corrupt manifest: {e}")))?;
        if manifest.version != MANIFEST_VERSION {
            return Err(ServeError::Checkpoint(format!(
                "manifest version {} unsupported (expected {MANIFEST_VERSION})",
                manifest.version
            )));
        }
        let registry = Registry::new(config, ingest_capacity, recorder.clone());
        let gen_dir = dir.join(format!("gen-{}", manifest.generation));
        let mut tenants = registry.tenants.lock();
        for entry in &manifest.tenants {
            let key = TenantKey::new(entry.service.clone(), entry.region.clone())?;
            let ck = Checkpoint::load(&gen_dir.join(&entry.file))
                .map_err(|e| ServeError::Checkpoint(format!("{}: {e}", key.label())))?;
            let engine = StreamEngine::restore(ck, Slice::all(), recorder.clone())?;
            // The file just loaded is this engine's checkpoint at its
            // restored event count, so the first pass can link it.
            let ckpt_file = Some((engine.events(), manifest.generation));
            registry.insert(&mut tenants, key, engine, ckpt_file);
        }
        drop(tenants);
        registry
            .generation
            .store(manifest.generation, Ordering::Release);
        Ok(registry)
    }

    /// Whether a restorable manifest exists under `dir`.
    pub fn can_restore(dir: &Path) -> bool {
        manifest_path(dir).is_file()
    }
}

/// Lock `tenant`, drain its intake queue into its engine, and run `f` on
/// it under that same lock: the registry's one lock-and-drain, shared by
/// snapshots, [`Registry::with_tenant`] and checkpoints.
fn drained<R>(
    tenant: &Shared,
    f: impl FnOnce(&mut Tenant) -> Result<R, ServeError>,
) -> Result<R, ServeError> {
    let mut t = tenant.lock();
    t.drain()?;
    f(&mut t)
}

/// Latency binner for `autosens_serve_snapshot_ms` (clamped so a slow
/// outlier still lands in the top bin instead of vanishing).
fn snapshot_binner() -> Binner {
    Binner::new(0.0, 10_000.0, 50.0, OutOfRange::Clamp).expect("static binner is valid")
}

/// Checkpoint directory path helper used by the CLI and tests.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST.json")
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
    use autosens_telemetry::time::SimTime;

    fn rec(t: i64, user: u64, latency: f64) -> ActionRecord {
        ActionRecord {
            time: SimTime(t),
            action: ActionType::SelectMail,
            latency_ms: latency,
            user: UserId(user),
            class: UserClass::Consumer,
            tz_offset_ms: 0,
            outcome: Outcome::Success,
        }
    }

    fn small_config() -> StreamConfig {
        StreamConfig {
            shard_ms: 3_600_000,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn creates_and_routes_tenants() {
        let reg = Registry::new(small_config(), 1024, Recorder::disabled());
        let a = TenantKey::new("mail", "eu").unwrap();
        let b = TenantKey::new("mail", "us").unwrap();
        for i in 0..50 {
            reg.ingest(&a, &[rec(i * 60_000, i as u64 % 7, 100.0 + i as f64)])
                .unwrap();
        }
        reg.ingest(&b, &[rec(0, 1, 250.0)]).unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.keys(), vec![a.clone(), b.clone()]);
        let events = reg.with_tenant(&a, |t| t.engine.status().events).unwrap();
        assert_eq!(events, 50);
        assert!(reg.snapshot(&TenantKey::new("nope", "x").unwrap()).is_err());
    }

    #[test]
    fn full_queue_drains_inline_instead_of_shedding() {
        let reg = Registry::new(small_config(), 8, Recorder::disabled());
        let key = TenantKey::new("svc", "r0").unwrap();
        let records: Vec<ActionRecord> = (0..100)
            .map(|i| rec(i * 1000, i as u64, 50.0 + i as f64))
            .collect();
        reg.ingest(&key, &records).unwrap();
        let tenant = reg.get(&key).unwrap();
        let t = tenant.lock();
        assert_eq!(t.ingestor.shed(), 0);
        assert_eq!(
            t.engine.status().events + t.ingestor.queue_depth() as u64,
            100
        );
    }

    /// A registry holding 200 records for each key, different per key.
    fn distinct_tenants(keys: &[TenantKey]) -> Registry {
        let reg = Registry::new(small_config(), 1024, Recorder::disabled());
        for (ti, key) in keys.iter().enumerate() {
            let records: Vec<ActionRecord> = (0..200)
                .map(|i| {
                    rec(
                        i * 30_000,
                        (i % 11) as u64,
                        80.0 + (ti * 37 + i as usize) as f64,
                    )
                })
                .collect();
            reg.ingest(key, &records).unwrap();
        }
        reg
    }

    /// Every tenant's re-serialized checkpoint, in `keys` order.
    fn checkpoints(reg: &Registry, keys: &[TenantKey]) -> Vec<String> {
        keys.iter()
            .map(|k| {
                reg.with_tenant(k, |t| t.engine.checkpoint(0).to_json().unwrap())
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn checkpoint_restore_round_trips_every_tenant() {
        let dir = std::env::temp_dir().join(format!("autosens-serve-reg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut keys: Vec<TenantKey> = (0..5)
            .map(|i| TenantKey::new("svc", format!("r{i}")).unwrap())
            .collect();
        // Joined with `__`, these two would share one file.
        keys.push(TenantKey::new("a", "b__c").unwrap());
        keys.push(TenantKey::new("a__b", "c").unwrap());
        keys.sort();
        let reg = distinct_tenants(&keys);
        let gen = reg.checkpoint_all(&dir).unwrap();
        assert_eq!(gen, 1);
        assert!(Registry::can_restore(&dir));

        // A second pass bumps the generation and removes the old one.
        let gen2 = reg.checkpoint_all(&dir).unwrap();
        assert_eq!(gen2, 2);
        assert!(!dir.join("gen-1").exists());
        assert!(dir.join("gen-2").exists());

        let restored = Registry::restore(&dir, small_config(), 1024, Recorder::disabled()).unwrap();
        assert_eq!(restored.generation(), 2);
        assert_eq!(restored.keys(), keys);
        // A re-serialized checkpoint is byte-identical: the shard records
        // are the state of record and survive the round trip.
        let back = checkpoints(&restored, &keys);
        for ((key, orig), back) in keys.iter().zip(checkpoints(&reg, &keys)).zip(back) {
            assert_eq!(
                orig,
                back,
                "checkpoint differs after restore for {}",
                key.label()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_with_underscore_file_names_still_restores() {
        // Generations written before `service+region` file names used
        // `service__region`. Restore opens the file the manifest names,
        // so they restore; the first pass finds no file of the new name
        // to link and serializes every tenant instead.
        let dir =
            std::env::temp_dir().join(format!("autosens-serve-legacy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let keys: Vec<TenantKey> = (0..3)
            .map(|i| TenantKey::new("svc", format!("r{i}")).unwrap())
            .collect();
        let reg = distinct_tenants(&keys);
        let expected = checkpoints(&reg, &keys);
        assert_eq!(reg.checkpoint_all(&dir).unwrap(), 1);
        let gen1 = dir.join("gen-1");
        let text = std::fs::read_to_string(manifest_path(&dir)).unwrap();
        let mut manifest: Manifest = serde_json::from_str(&text).unwrap();
        for entry in &mut manifest.tenants {
            let legacy = format!("{}__{}.ckpt.json", entry.service, entry.region);
            std::fs::rename(gen1.join(&entry.file), gen1.join(&legacy)).unwrap();
            entry.file = legacy;
        }
        let text = serde_json::to_string_pretty(&manifest).unwrap();
        std::fs::write(manifest_path(&dir), text).unwrap();

        let legacy = Registry::restore(&dir, small_config(), 1024, Recorder::disabled()).unwrap();
        assert_eq!(checkpoints(&legacy, &keys), expected);
        assert_eq!(legacy.checkpoint_all(&dir).unwrap(), 2);
        for key in &keys {
            let file = format!("{}.ckpt.json", key.file_stem());
            assert!(dir.join("gen-2").join(file).is_file(), "{}", key.label());
        }
        let restored = Registry::restore(&dir, small_config(), 1024, Recorder::disabled()).unwrap();
        assert_eq!(checkpoints(&restored, &keys), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_checkpoints_serialize_and_stay_restorable() {
        // Two agent connections COMMITting at once must not clobber each
        // other's generation directories: every pass gets its own
        // generation and the final manifest always restores.
        let dir =
            std::env::temp_dir().join(format!("autosens-serve-ckpt-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Arc::new(Registry::new(small_config(), 1024, Recorder::disabled()));
        let key = TenantKey::new("svc", "r0").unwrap();
        reg.ingest(&key, &[rec(0, 1, 120.0), rec(60_000, 2, 340.0)])
            .unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let reg = reg.clone();
            let dir = dir.clone();
            handles.push(std::thread::spawn(move || {
                (0..5)
                    .map(|_| reg.checkpoint_all(&dir).unwrap())
                    .collect::<Vec<u64>>()
            }));
        }
        let mut gens: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        gens.sort_unstable();
        // Serialized passes: 20 distinct, strictly increasing generations.
        assert_eq!(gens, (1..=20).collect::<Vec<u64>>());
        assert_eq!(reg.generation(), 20);
        assert!(dir.join("gen-20").exists());
        let restored = Registry::restore(&dir, small_config(), 1024, Recorder::disabled()).unwrap();
        assert_eq!(restored.generation(), 20);
        let orig = reg
            .with_tenant(&key, |t| t.engine.checkpoint(0).to_json().unwrap())
            .unwrap();
        let back = restored
            .with_tenant(&key, |t| t.engine.checkpoint(0).to_json().unwrap())
            .unwrap();
        assert_eq!(orig, back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_fleet_snapshot_reuses_cached_reports_and_checkpoints() {
        let mut cfg = autosens_sim::config::SimConfig::scenario(autosens_sim::Scenario::Smoke);
        cfg.seed = 17;
        let (log, _) = autosens_sim::generate(&cfg).unwrap();
        let records = log.to_records();
        let reg = Registry::new(small_config(), records.len().max(1), Recorder::disabled());
        let keys: Vec<TenantKey> = (0..3)
            .map(|i| TenantKey::new("svc", format!("r{i}")).unwrap())
            .collect();
        for key in &keys {
            reg.ingest(key, &records).unwrap();
        }
        assert!(reg.last_fleet_snapshot().is_none());

        let cold = reg.snapshot_all(2).unwrap();
        let stats = reg.last_fleet_snapshot().unwrap();
        assert_eq!(stats.tenants, 3);
        assert_eq!(stats.reused, 0);
        assert_eq!(stats.computed, 3);

        // No new events: every tenant is served from its snapshot cache
        // and the curves are byte-identical.
        let warm = reg.snapshot_all(2).unwrap();
        let stats = reg.last_fleet_snapshot().unwrap();
        assert_eq!(stats.reused, 3);
        assert_eq!(stats.computed, 0);
        for ((ka, ra), (kb, rb)) in cold.iter().zip(warm.iter()) {
            assert_eq!(ka, kb);
            let a = serde_json::to_string(&ra.preference.series().to_vec()).unwrap();
            let b = serde_json::to_string(&rb.preference.series().to_vec()).unwrap();
            assert_eq!(a, b);
        }

        // One dirty tenant: only it recomputes.
        reg.ingest(&keys[1], &[rec(0, 3, 123.0)]).unwrap();
        reg.snapshot_all(2).unwrap();
        let stats = reg.last_fleet_snapshot().unwrap();
        assert_eq!(stats.reused, 2);
        assert_eq!(stats.computed, 1);

        // Checkpoints are dirty-tracked the same way: a pass links the
        // file of every tenant with no new events since it last wrote one,
        // so the generations share identical bytes (and, on unix, one
        // inode), while a tenant written in between gets a new file.
        let dir =
            std::env::temp_dir().join(format!("autosens-serve-ckpt-reuse-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file = |gen: u64, k: &TenantKey| {
            dir.join(format!("gen-{gen}"))
                .join(format!("{}.ckpt.json", k.file_stem()))
        };
        let read = |gen: u64| -> Vec<String> {
            keys.iter()
                .map(|k| std::fs::read_to_string(file(gen, k)).unwrap())
                .collect()
        };
        #[cfg(unix)]
        let inodes = |gen: u64| -> Vec<u64> {
            use std::os::unix::fs::MetadataExt;
            keys.iter()
                .map(|k| std::fs::metadata(file(gen, k)).unwrap().ino())
                .collect()
        };
        let written = 2;
        assert_eq!(reg.checkpoint_all(&dir).unwrap(), 1);
        let gen1 = read(1);
        #[cfg(unix)]
        let ino1 = inodes(1);
        reg.ingest(&keys[written], &[rec(0, 4, 456.0)]).unwrap();
        assert_eq!(reg.checkpoint_all(&dir).unwrap(), 2);
        let gen2 = read(2);
        #[cfg(unix)]
        let ino2 = inodes(2);
        for (i, key) in keys.iter().enumerate() {
            let label = key.label();
            if i == written {
                assert_ne!(gen2[i], gen1[i], "{label} was written");
                #[cfg(unix)]
                assert_ne!(ino2[i], ino1[i], "{label} was written");
            } else {
                assert_eq!(gen2[i], gen1[i], "{label} should be linked");
                #[cfg(unix)]
                assert_eq!(ino2[i], ino1[i], "{label} should be linked");
            }
        }

        // A registry restored from the live generation links every tenant
        // on its first pass.
        let restored = Registry::restore(&dir, small_config(), 1024, Recorder::disabled()).unwrap();
        assert_eq!(restored.checkpoint_all(&dir).unwrap(), 3);
        assert_eq!(read(3), gen2);
        #[cfg(unix)]
        assert_eq!(inodes(3), ino2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_document_is_collected_under_one_lock() {
        let mut cfg = autosens_sim::config::SimConfig::scenario(autosens_sim::Scenario::Smoke);
        cfg.seed = 13;
        let (log, _) = autosens_sim::generate(&cfg).unwrap();
        let records = log.to_records();
        let reg = Registry::new(small_config(), records.len().max(1), Recorder::disabled());
        let key = TenantKey::new("svc", "r0").unwrap();
        reg.ingest(&key, &records).unwrap();
        let doc = reg.status_document(&key).unwrap();
        assert_eq!(doc.status.events, records.len() as u64);
        assert_eq!(doc.queue_depth, 0);
        assert!(!doc.curve.is_empty());
        assert!(reg
            .status_document(&TenantKey::new("nope", "x").unwrap())
            .is_err());
    }

    #[test]
    fn snapshot_all_covers_every_tenant_in_key_order() {
        let mut cfg = autosens_sim::config::SimConfig::scenario(autosens_sim::Scenario::Smoke);
        cfg.seed = 11;
        let (log, _) = autosens_sim::generate(&cfg).unwrap();
        let records = log.to_records();
        let reg = Registry::new(small_config(), records.len().max(1), Recorder::disabled());
        for i in 0..3 {
            let key = TenantKey::new("svc", format!("r{i}")).unwrap();
            reg.ingest(&key, &records).unwrap();
        }
        let all = reg.snapshot_all(2).unwrap();
        assert_eq!(all.len(), 3);
        let keys: Vec<&TenantKey> = all.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // Same records, same deterministic pipeline: identical curves.
        let first = serde_json::to_string(&all[0].1.preference.series().to_vec()).unwrap();
        for (_, report) in &all[1..] {
            let other = serde_json::to_string(&report.preference.series().to_vec()).unwrap();
            assert_eq!(first, other);
        }
    }

    #[test]
    fn checkpoint_with_the_eleven_field_detector_restores() {
        // Before the detector's settings became constants, checkpoints
        // carried all eleven of them. The parser looks members up by name:
        // it reads `threshold_scale` and ignores the other ten.
        let eleven = r#""bucket_ms": 900000, "min_bucket_n": 8, "min_ref_days": 2,
            "max_ref_days": 7, "drift": 0.75, "threshold": 0.0, "threshold_scale": 1.5,
            "calibration_reps": 64, "reanchor": 8, "min_scale": 0.02, "seed": 0"#;
        let dir =
            std::env::temp_dir().join(format!("autosens-serve-detector-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StreamConfig {
            detector: Some(autosens_stream::DetectorConfig::default()),
            ..small_config()
        };
        let mut cfg = autosens_sim::config::SimConfig::scenario(autosens_sim::Scenario::Smoke);
        cfg.seed = 42;
        let (log, _) = autosens_sim::generate(&cfg).unwrap();
        let reg = Registry::new(config.clone(), 1024, Recorder::disabled());
        let key = TenantKey::new("mail", "eu").unwrap();
        reg.ingest(&key, &log.to_records()[..1200]).unwrap();
        let curve = |reg: &Registry| {
            let report = reg.snapshot(&key).unwrap();
            serde_json::to_string_pretty(&autosens_core::report::PreferenceSummary::from_report(
                "all",
                &report,
                &autosens_core::report::default_grid(),
            ))
            .unwrap()
        };
        let before = curve(&reg);
        assert_eq!(reg.checkpoint_all(&dir).unwrap(), 1);

        let file = dir
            .join("gen-1")
            .join(format!("{}.ckpt.json", key.file_stem()));
        let text = std::fs::read_to_string(&file).unwrap();
        let old = text.replacen(r#""threshold_scale": 1.5"#, eleven, 1);
        assert_ne!(old, text, "the eleven fields were not planted");
        std::fs::write(&file, old).unwrap();

        let restored = Registry::restore(&dir, config.clone(), 1024, Recorder::disabled()).unwrap();
        let detector = restored.with_tenant(&key, |t| t.engine.config().detector.clone());
        assert_eq!(detector.unwrap(), config.detector);
        assert_eq!(curve(&restored), before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
