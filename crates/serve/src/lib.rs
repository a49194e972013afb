//! Multi-tenant ingest service: the agent→gateway split.
//!
//! This crate turns the single-process streaming pipeline into a small
//! service without taking on any dependency the workspace doesn't
//! already vendor:
//!
//! * **[`agent`]** — a push client that batches [`ActionRecord`]s for
//!   one tenant and ships them over a length-prefixed binary framing
//!   (TCP or unix socket) with connect retry/backoff and exact
//!   ACK-based durability accounting.
//! * **[`gateway`]** — accepts many agent connections and routes every
//!   batch to a per-tenant (`service × region`) [`StreamEngine`], so
//!   each tenant gets the exact backpressure, watermark, dedup, and
//!   loss-counting machinery the single-tenant `watch` path uses.
//! * **[`registry`]** — the sharded tenant map plus atomic fleet
//!   checkpointing: every tenant's engine checkpoint lands in one
//!   versioned generation directory, manifest-switched so a crash
//!   leaves either the old fleet or the new fleet, never a mix.
//! * **[`http`]** — a hand-rolled HTTP/1.1 query plane serving the
//!   current normalized preference curve, status document, regime-shift
//!   history, fleet summary, and Prometheus metrics as JSON/text.
//!
//! The load-bearing invariant, inherited from the streaming layer's
//! batch-equivalence theorem: a tenant's `/curve` response is
//! **byte-identical** to `autosens analyze --json` over the same
//! records, because the gateway snapshots through the same
//! deterministic pipeline and serializes through the same expression.
//!
//! [`ActionRecord`]: autosens_telemetry::record::ActionRecord
//! [`StreamEngine`]: autosens_stream::StreamEngine

pub mod agent;
pub mod error;
pub mod frame;
pub mod gateway;
pub mod http;
pub mod registry;
pub mod tenant;

pub use agent::{Agent, AgentConfig};
pub use error::ServeError;
pub use frame::{Frame, MAX_FRAME_BYTES, PROTOCOL_VERSION, RECORD_WIRE_BYTES};
pub use gateway::{Gateway, GatewayConfig};
pub use http::{http_get, serve_http};
pub use registry::{Manifest, ManifestEntry, Registry, Tenant, MANIFEST_VERSION};
pub use tenant::{valid_label, TenantKey, MAX_LABEL_LEN};

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use autosens_obs::Recorder;
    use autosens_sim::config::{Scenario, SimConfig};
    use autosens_sim::generate;
    use autosens_telemetry::record::ActionRecord;

    use super::*;

    fn sim_records(seed: u64) -> Vec<ActionRecord> {
        let mut cfg = SimConfig::scenario(Scenario::Smoke);
        cfg.seed = seed;
        let (log, _) = generate(&cfg).expect("valid sim config");
        log.to_records()
    }

    fn spawn_gateway(config: GatewayConfig) -> (Gateway, String, String) {
        let gw = Gateway::new(config, Recorder::disabled()).unwrap();
        let ingest = TcpListener::bind("127.0.0.1:0").unwrap();
        let ingest_addr = ingest.local_addr().unwrap().to_string();
        let http = TcpListener::bind("127.0.0.1:0").unwrap();
        let http_addr = http.local_addr().unwrap().to_string();
        {
            let gw = gw.clone();
            std::thread::spawn(move || {
                let _ = gw.serve_tcp(ingest);
            });
        }
        {
            let gw = gw.clone();
            std::thread::spawn(move || {
                let _ = serve_http(&gw, http);
            });
        }
        (gw, ingest_addr, http_addr)
    }

    fn stop_gateway(gw: &Gateway, ingest_addr: &str, http_addr: &str) {
        gw.request_stop();
        let _ = std::net::TcpStream::connect(ingest_addr);
        let _ = std::net::TcpStream::connect(http_addr);
    }

    #[test]
    fn end_to_end_push_then_query_matches_direct_snapshot() {
        let (gw, ingest_addr, http_addr) = spawn_gateway(GatewayConfig::default());
        let tenant = TenantKey::new("mail", "eu-west1").unwrap();
        let records = sim_records(7);

        let mut agent = Agent::connect(AgentConfig {
            batch_size: 256,
            ..AgentConfig::new(ingest_addr.clone(), tenant.clone())
        })
        .unwrap();
        for r in &records {
            agent.push(*r).unwrap();
        }
        agent.flush().unwrap();
        assert_eq!(agent.acked(), records.len() as u64);

        // The HTTP curve must equal a snapshot taken straight off the
        // registry (same engine, same serialization).
        let (status, body) = http_get(&http_addr, "/tenant/mail/eu-west1/curve").unwrap();
        assert_eq!(status, 200);
        let report = gw.registry().snapshot(&tenant).unwrap();
        let summary = autosens_core::report::PreferenceSummary::from_report(
            "all",
            &report,
            &autosens_core::report::default_grid(),
        );
        let direct = serde_json::to_string_pretty(&summary).unwrap() + "\n";
        assert_eq!(String::from_utf8(body).unwrap(), direct);

        let (status, body) = http_get(&http_addr, "/fleet").unwrap();
        assert_eq!(status, 200);
        assert!(String::from_utf8(body).unwrap().contains("\"eu-west1\""));

        let (status, _) = http_get(&http_addr, "/tenant/mail/nowhere/curve").unwrap();
        assert_eq!(status, 404);

        stop_gateway(&gw, &ingest_addr, &http_addr);
    }

    #[test]
    fn multi_tenant_checkpoint_restart_serves_identical_curves() {
        let dir = std::env::temp_dir().join(format!("autosens-serve-e2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = GatewayConfig {
            checkpoint_dir: Some(dir.clone()),
            ..GatewayConfig::default()
        };
        let (gw, ingest_addr, http_addr) = spawn_gateway(config.clone());

        let tenants: Vec<TenantKey> = (0..4)
            .map(|i| TenantKey::new("svc", format!("region{i}")).unwrap())
            .collect();
        for (i, tenant) in tenants.iter().enumerate() {
            let mut agent = Agent::connect(AgentConfig {
                batch_size: 512,
                ..AgentConfig::new(ingest_addr.clone(), tenant.clone())
            })
            .unwrap();
            let records = sim_records(100 + i as u64);
            let n = records.len() as u64;
            for r in records {
                agent.push(r).unwrap();
            }
            // COMMIT: ack arrives only after the generation is durable.
            let acked = agent.commit().unwrap();
            assert_eq!(acked, n);
        }

        let mut before = Vec::new();
        for tenant in &tenants {
            let (status, body) = http_get(
                &http_addr,
                &format!("/tenant/{}/{}/curve", tenant.service, tenant.region),
            )
            .unwrap();
            assert_eq!(status, 200);
            before.push(body);
        }
        stop_gateway(&gw, &ingest_addr, &http_addr);

        // "Kill" the gateway and bring up a fresh one from the manifest.
        let (gw2, ingest_addr2, http_addr2) = spawn_gateway(GatewayConfig {
            resume: true,
            ..config
        });
        assert_eq!(gw2.registry().len(), tenants.len());
        for (tenant, expected) in tenants.iter().zip(&before) {
            let (status, body) = http_get(
                &http_addr2,
                &format!("/tenant/{}/{}/curve", tenant.service, tenant.region),
            )
            .unwrap();
            assert_eq!(status, 200);
            assert_eq!(
                body,
                *expected,
                "restored curve differs for {}",
                tenant.label()
            );
        }
        stop_gateway(&gw2, &ingest_addr2, &http_addr2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_agents_one_tenant_interleave_safely() {
        let (gw, ingest_addr, http_addr) = spawn_gateway(GatewayConfig::default());
        let tenant = TenantKey::new("mail", "us").unwrap();
        let all = sim_records(42);
        let total = all.len() as u64;
        let mid = all.len() / 2;
        let halves: Vec<Vec<ActionRecord>> = vec![all[..mid].to_vec(), all[mid..].to_vec()];
        let handles: Vec<_> = halves
            .into_iter()
            .map(|half| {
                let addr = ingest_addr.clone();
                let tenant = tenant.clone();
                std::thread::spawn(move || {
                    let mut agent = Agent::connect(AgentConfig {
                        batch_size: 128,
                        ..AgentConfig::new(addr, tenant)
                    })
                    .unwrap();
                    for r in half {
                        agent.push(r).unwrap();
                    }
                    agent.flush().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = gw
            .registry()
            .with_tenant(&tenant, |t| t.engine.status().events)
            .unwrap();
        assert_eq!(events, total);
        stop_gateway(&gw, &ingest_addr, &http_addr);
    }
}
