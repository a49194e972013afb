//! Resident heap per tenant. The gateway runs one streaming engine per
//! tenant, so the bytes a tenant keeps after ingest and a snapshot bound
//! how many tenants one host can serve. A counting global allocator
//! measures them across the registry's public calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use autosens_core::AutoSensConfig;
use autosens_obs::Recorder;
use autosens_serve::registry::Registry;
use autosens_serve::tenant::TenantKey;
use autosens_stream::{DetectorConfig, StreamConfig};
use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
use autosens_telemetry::time::SimTime;

/// Heap bytes currently allocated by the whole process. A statistic
/// only, so `Relaxed` suffices.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the counter only
// observes sizes and never touches the pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc` contract is passed on as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` with this layout, as the caller
        // guarantees for this allocator.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's, unchanged.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        q
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const TENANTS: usize = 8;
const RECORDS: usize = 2_400;
const BUDGET_BYTES: isize = 512 * 1024;

/// `RECORDS` time-sorted records from 10:00, about 20 a minute, with a
/// latency that drifts from minute to minute.
fn tenant_stream() -> Vec<ActionRecord> {
    let mut rng = StdRng::seed_from_u64(21);
    (0..RECORDS as i64)
        .map(|i| {
            let minute = i / 20;
            let swing = (std::f64::consts::TAU * minute as f64 / 47.0).sin();
            ActionRecord {
                time: SimTime(10 * 3_600_000 + i * 3_000 + rng.gen_range(0..3_000i64)),
                action: ActionType::SelectMail,
                latency_ms: 300.0 * (0.6 * swing + 0.4 * rng.gen::<f64>()).exp(),
                user: UserId(rng.gen_range(0..300u64)),
                class: if rng.gen_bool(0.5) {
                    UserClass::Business
                } else {
                    UserClass::Consumer
                },
                tz_offset_ms: 0,
                outcome: Outcome::Success,
            }
        })
        .collect()
}

/// The gateway's stream configuration: six-hour shards, the detector on.
fn serve_config() -> StreamConfig {
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

#[test]
fn a_snapshotted_tenant_keeps_at_most_512_kib() {
    let records = tenant_stream();
    let keys: Vec<TenantKey> = (0..TENANTS)
        .map(|i| TenantKey::new("svc", format!("r{i}")).unwrap())
        .collect();
    let registry = Registry::new(serve_config(), 65_536, Recorder::disabled());

    let before = LIVE.load(Ordering::Relaxed);
    for key in &keys {
        registry.ingest(key, &records).unwrap();
    }
    let reports = registry.snapshot_all(1).unwrap();
    let per_tenant = (LIVE.load(Ordering::Relaxed) - before) / TENANTS as isize;

    assert_eq!(reports.len(), TENANTS);
    assert!(reports.iter().all(|(_, r)| r.n_actions == RECORDS as u64));
    assert!(
        per_tenant <= BUDGET_BYTES,
        "each tenant keeps {per_tenant} B, over the {BUDGET_BYTES} B budget"
    );
}
