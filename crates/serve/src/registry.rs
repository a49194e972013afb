//! Sharded per-tenant engine registry with atomic fleet checkpointing.
//!
//! The gateway owns one [`Registry`]. Each tenant (`service × region`,
//! see [`TenantKey`]) maps to its own [`StreamEngine`] + [`Ingestor`]
//! pair, so backpressure, watermarking, dedup, and loss counting all
//! happen per tenant with the exact machinery the single-tenant `watch`
//! path uses. Tenants live in a fixed number of hash shards so
//! concurrent agent connections touching different tenants rarely
//! contend on a lock.
//!
//! # Checkpoint directory layout
//!
//! The whole fleet checkpoints atomically under one directory:
//!
//! ```text
//! <dir>/MANIFEST.json          { version, generation, tenants: [...] }
//! <dir>/gen-<N>/<service>__<region>.ckpt.json
//! ```
//!
//! Checkpoint passes are serialized on a dedicated lock. A pass writes
//! `gen-<N+1>.tmp/` (each tenant file fsynced before its rename), renames
//! it to `gen-<N+1>/`, then fsyncs and tmp+renames the manifest to point
//! at it, and only then deletes the previous generation. A crash at any
//! point leaves either the old generation (manifest untouched) or the new
//! one (manifest renamed) fully intact — never a mix. Directory-entry
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
use autosens_obs::Recorder;
use autosens_stats::binning::OutOfRange;
use autosens_stats::Binner;
use autosens_stream::{
    save_json, Checkpoint, Ingestor, Offer, OverflowPolicy, StatusDocument, StreamConfig,
    StreamEngine,
};
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::ActionRecord;

use crate::error::ServeError;
use crate::tenant::TenantKey;

/// Fixed registry shard count (lock striping, not data partitioning —
/// tenant state never moves between shards).
pub const REGISTRY_SHARDS: usize = 16;

/// Manifest schema version.
pub const MANIFEST_VERSION: u32 = 1;

/// One tenant's streaming state.
pub struct Tenant {
    /// The tenant's key (also recorded in the manifest).
    pub key: TenantKey,
    /// The per-tenant streaming engine.
    pub engine: StreamEngine,
    /// The per-tenant bounded intake queue (Block policy: the gateway
    /// drains inline when an offer reports full, so nothing sheds).
    pub ingestor: Ingestor,
    /// Records routed to this tenant since creation or restore.
    pub records: u64,
    /// The last serialized checkpoint, keyed by the engine's intake event
    /// counter: a checkpoint pass reuses these bytes verbatim while the
    /// tenant has seen no new events (the engine's snapshot dirty key).
    pub(crate) ckpt_cache: Option<(u64, String)>,
}

impl Tenant {
    /// Drain the intake queue into the engine.
    fn drain(&mut self) -> Result<(), ServeError> {
        self.ingestor.drain_into(&mut self.engine)?;
        Ok(())
    }
}

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

/// The sharded tenant registry. See the module docs.
pub struct Registry {
    shards: Vec<Mutex<HashMap<TenantKey, Arc<Mutex<Tenant>>>>>,
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
            shards: (0..REGISTRY_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
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
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether no tenant exists yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every tenant key, sorted (deterministic iteration order for
    /// checkpoints, fleet summaries, and snapshot fan-out).
    pub fn keys(&self) -> Vec<TenantKey> {
        let mut keys: Vec<TenantKey> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().keys().cloned().collect::<Vec<_>>())
            .collect();
        keys.sort();
        keys
    }

    /// Look up a tenant without creating it.
    pub fn get(&self, key: &TenantKey) -> Option<Arc<Mutex<Tenant>>> {
        self.shards[key.shard(REGISTRY_SHARDS)]
            .lock()
            .get(key)
            .cloned()
    }

    /// Look up or create the tenant for `key`. Every tenant analyzes the
    /// unrestricted slice (label `all`), matching what batch
    /// `analyze` computes per input file.
    pub fn get_or_create(&self, key: &TenantKey) -> Result<Arc<Mutex<Tenant>>, ServeError> {
        key.validate()?;
        let mut shard = self.shards[key.shard(REGISTRY_SHARDS)].lock();
        if let Some(t) = shard.get(key) {
            return Ok(t.clone());
        }
        let engine =
            StreamEngine::with_recorder(self.config.clone(), Slice::all(), self.recorder.clone())?;
        let tenant = Arc::new(Mutex::new(Tenant {
            key: key.clone(),
            engine,
            ingestor: Ingestor::new(
                self.ingest_capacity,
                OverflowPolicy::Block,
                self.recorder.clone(),
            ),
            records: 0,
            ckpt_cache: None,
        }));
        shard.insert(key.clone(), tenant.clone());
        drop(shard);
        self.recorder
            .metrics()
            .gauge("autosens_serve_tenants")
            .set(self.len() as f64);
        Ok(tenant)
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
            t.records += 1;
        }
        self.recorder
            .metrics()
            .counter("autosens_serve_records_total")
            .add(records.len() as u64);
        Ok(records.len() as u64)
    }

    /// Drain the tenant's queue and run a full deterministic snapshot.
    pub fn snapshot(&self, key: &TenantKey) -> Result<AnalysisReport, ServeError> {
        self.snapshot_with(key, |_, report| report)
    }

    /// Drain, snapshot, and assemble the tenant's [`StatusDocument`]
    /// under one tenant lock, so the report, queue depth, and engine
    /// counters in the document describe a single consistent instant.
    pub fn status_document(&self, key: &TenantKey) -> Result<StatusDocument, ServeError> {
        self.snapshot_with(key, |t, report| {
            StatusDocument::collect(&t.engine, &report, t.ingestor.queue_depth() as u64)
        })
    }

    /// Drain and snapshot the tenant, then hand it and the report to `f`,
    /// all under one tenant lock. One `serve_snapshot` span and one
    /// `autosens_serve_snapshot_ms` sample per call.
    fn snapshot_with<R>(
        &self,
        key: &TenantKey,
        f: impl FnOnce(&Tenant, AnalysisReport) -> R,
    ) -> Result<R, ServeError> {
        let tenant = self
            .get(key)
            .ok_or_else(|| ServeError::BadTenant(format!("unknown tenant {}", key.label())))?;
        let started = Instant::now();
        let mut span = self.recorder.root("serve_snapshot");
        span.field("tenant", key.label());
        let mut t = tenant.lock();
        t.drain()?;
        let report = t.engine.snapshot()?;
        let out = f(&t, report);
        drop(t);
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
        let tenant = self
            .get(key)
            .ok_or_else(|| ServeError::BadTenant(format!("unknown tenant {}", key.label())))?;
        let mut t = tenant.lock();
        t.drain()?;
        Ok(f(&mut t))
    }

    /// Snapshot every tenant through the exec scheduler (chunked
    /// fan-out; on a multi-core host shards snapshot concurrently).
    /// Returns `(key, report)` pairs in sorted key order. Tenants with no
    /// new events since their last snapshot are served from the engine's
    /// snapshot cache; the split, read under the same tenant lock as the
    /// snapshot, is recorded in [`Registry::last_fleet_snapshot`].
    pub fn snapshot_all(
        &self,
        threads: usize,
    ) -> Result<Vec<(TenantKey, AnalysisReport)>, ServeError> {
        let keys = self.keys();
        let n = keys.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let started = Instant::now();
        let chunk = autosens_exec::scan_chunk_size_for(n);
        let (results, _) =
            autosens_exec::run_chunks("serve_snapshot_all", n, chunk, threads, |_, range| {
                range
                    .map(|i| {
                        self.snapshot_with(&keys[i], |t, report| {
                            (keys[i].clone(), report, t.engine.last_snapshot_reused())
                        })
                    })
                    .collect::<Vec<_>>()
            })
            .map_err(|e| ServeError::Checkpoint(format!("snapshot fan-out failed: {e}")))?;
        let flat: Vec<(TenantKey, AnalysisReport, bool)> =
            results.into_iter().flatten().collect::<Result<_, _>>()?;
        let reused = flat.iter().filter(|(_, _, r)| *r).count();
        *self.fleet_stats.lock() = Some(FleetSnapshotStats {
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            tenants: n,
            reused,
            computed: n - reused,
        });
        Ok(flat.into_iter().map(|(k, r, _)| (k, r)).collect())
    }

    /// Checkpoint every tenant atomically into `dir` (see the module
    /// docs for the layout). Returns the new generation number.
    ///
    /// Passes are fully serialized: a second caller (e.g. a COMMIT on
    /// another agent connection) blocks until the first pass has renamed
    /// its generation live, then writes the generation after it.
    pub fn checkpoint_all(&self, dir: &Path) -> Result<u64, ServeError> {
        let _pass = self.checkpoint_lock.lock();
        let mut span = self.recorder.root("serve_checkpoint");
        std::fs::create_dir_all(dir)?;
        let next = self.generation() + 1;
        let tmp = dir.join(format!("gen-{next}.tmp"));
        if tmp.exists() {
            std::fs::remove_dir_all(&tmp)?;
        }
        std::fs::create_dir_all(&tmp)?;
        let keys = self.keys();
        let mut entries = Vec::with_capacity(keys.len());
        for key in &keys {
            let tenant = match self.get(key) {
                Some(t) => t,
                None => continue,
            };
            let mut t = tenant.lock();
            t.drain()?;
            // Serialization is the expensive half of a checkpoint pass;
            // reuse the cached bytes while the tenant has seen no new
            // events (the same dirty key the snapshot cache uses).
            let events = t.engine.events();
            let json = match &t.ckpt_cache {
                Some((cached_events, json)) if *cached_events == events => json.clone(),
                _ => {
                    let json = t
                        .engine
                        .checkpoint(0)
                        .to_json()
                        .map_err(|e| ServeError::Checkpoint(format!("{}: {e}", key.label())))?;
                    t.ckpt_cache = Some((events, json.clone()));
                    json
                }
            };
            drop(t);
            let file = format!("{}.ckpt.json", key.file_stem());
            save_json(&json, &tmp.join(&file))
                .map_err(|e| ServeError::Checkpoint(format!("{}: {e}", key.label())))?;
            entries.push(ManifestEntry {
                service: key.service.clone(),
                region: key.region.clone(),
                file,
            });
        }
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
        let manifest_tmp = dir.join("MANIFEST.json.tmp");
        {
            let mut f = std::fs::File::create(&manifest_tmp)?;
            std::io::Write::write_all(&mut f, json.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&manifest_tmp, dir.join("MANIFEST.json"))?;
        fsync_dir(dir);
        let prev = self.generation.swap(next, Ordering::AcqRel);
        if prev > 0 {
            let old = dir.join(format!("gen-{prev}"));
            if old.exists() {
                let _ = std::fs::remove_dir_all(&old);
            }
        }
        span.field("generation", format!("{next}"));
        span.field("tenants", format!("{}", keys.len()));
        span.finish();
        self.recorder
            .metrics()
            .counter("autosens_serve_checkpoints_total")
            .inc();
        Ok(next)
    }

    /// Rebuild a registry from the live generation under `dir`. Every
    /// restored engine is byte-equivalent to the one checkpointed: the
    /// shard records are the state of record and aggregates are rebuilt.
    pub fn restore(
        dir: &Path,
        config: StreamConfig,
        ingest_capacity: usize,
        recorder: Recorder,
    ) -> Result<Registry, ServeError> {
        let manifest_path = dir.join("MANIFEST.json");
        let text = std::fs::read_to_string(&manifest_path)?;
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
        for entry in &manifest.tenants {
            let key = TenantKey::new(entry.service.clone(), entry.region.clone())?;
            let ck = Checkpoint::load(&gen_dir.join(&entry.file))
                .map_err(|e| ServeError::Checkpoint(format!("{}: {e}", key.label())))?;
            let engine = StreamEngine::restore(ck, Slice::all(), recorder.clone())?;
            let tenant = Arc::new(Mutex::new(Tenant {
                key: key.clone(),
                engine,
                ingestor: Ingestor::new(
                    registry.ingest_capacity,
                    OverflowPolicy::Block,
                    recorder.clone(),
                ),
                records: 0,
                ckpt_cache: None,
            }));
            registry.shards[key.shard(REGISTRY_SHARDS)]
                .lock()
                .insert(key, tenant);
        }
        registry
            .generation
            .store(manifest.generation, Ordering::Release);
        recorder
            .metrics()
            .gauge("autosens_serve_tenants")
            .set(registry.len() as f64);
        Ok(registry)
    }

    /// Whether a restorable manifest exists under `dir`.
    pub fn can_restore(dir: &Path) -> bool {
        dir.join("MANIFEST.json").is_file()
    }
}

/// Flush a directory's entry table so a just-completed rename survives
/// power loss, not only process death. Best-effort: opening a directory
/// for fsync is not portable, and on filesystems where it fails the
/// rename is still process-kill-safe.
fn fsync_dir(dir: &Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
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
        assert_eq!(t.records, 100);
        assert_eq!(t.ingestor.shed(), 0);
        assert_eq!(
            t.engine.status().events + t.ingestor.queue_depth() as u64,
            100
        );
    }

    #[test]
    fn checkpoint_restore_round_trips_every_tenant() {
        let dir = std::env::temp_dir().join(format!("autosens-serve-reg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Registry::new(small_config(), 1024, Recorder::disabled());
        let keys: Vec<TenantKey> = (0..5)
            .map(|i| TenantKey::new("svc", format!("r{i}")).unwrap())
            .collect();
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
        for key in &keys {
            // A re-serialized checkpoint is byte-identical: the shard
            // records are the state of record and survive the round trip.
            let orig = reg
                .with_tenant(key, |t| t.engine.checkpoint(0).to_json().unwrap())
                .unwrap();
            let back = restored
                .with_tenant(key, |t| t.engine.checkpoint(0).to_json().unwrap())
                .unwrap();
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

        // Checkpoint serialization is cached the same way: a second pass
        // with no new events reuses every tenant's bytes and the written
        // files are identical across generations.
        let dir =
            std::env::temp_dir().join(format!("autosens-serve-ckpt-reuse-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        reg.checkpoint_all(&dir).unwrap();
        for key in &keys {
            let t = reg.get(key).unwrap();
            let t = t.lock();
            let (cached_events, _) = t.ckpt_cache.as_ref().expect("checkpoint cache populated");
            assert_eq!(*cached_events, t.engine.events());
        }
        let first: Vec<String> = keys
            .iter()
            .map(|k| {
                std::fs::read_to_string(
                    dir.join("gen-1")
                        .join(format!("{}.ckpt.json", k.file_stem())),
                )
                .unwrap()
            })
            .collect();
        reg.checkpoint_all(&dir).unwrap();
        for (k, before) in keys.iter().zip(&first) {
            let after = std::fs::read_to_string(
                dir.join("gen-2")
                    .join(format!("{}.ckpt.json", k.file_stem())),
            )
            .unwrap();
            assert_eq!(
                &after,
                before,
                "cached checkpoint differs for {}",
                k.label()
            );
        }
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
}
