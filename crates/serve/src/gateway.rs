//! The gateway: accepts agent connections, routes batches to per-tenant
//! engines, and checkpoints the fleet on COMMIT.
//!
//! One [`Gateway`] wraps a shared [`Registry`]. Each accepted connection
//! gets its own OS thread speaking the frame protocol (see
//! [`crate::frame`]); tenants are lock-striped in the registry, so
//! connections feeding different tenants ingest concurrently. A COMMIT
//! frame is acknowledged only after [`Registry::checkpoint_all`] has
//! renamed the new generation into place, which is the durability
//! contract agents rely on.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use autosens_obs::Recorder;
use autosens_stream::StreamConfig;

use crate::error::ServeError;
use crate::frame::{read_frame, write_frame, Frame, PROTOCOL_VERSION};
use crate::registry::Registry;

/// Gateway construction parameters.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Streaming configuration every tenant engine is created under.
    pub stream: StreamConfig,
    /// Per-tenant intake queue capacity.
    pub ingest_capacity: usize,
    /// Where COMMIT checkpoints the fleet; `None` makes COMMIT a no-op
    /// (still acknowledged, nothing durable).
    pub checkpoint_dir: Option<PathBuf>,
    /// Whether to restore from `checkpoint_dir` when a manifest exists.
    pub resume: bool,
    /// Worker threads for fleet-wide snapshot fan-out.
    pub threads: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            stream: StreamConfig::default(),
            ingest_capacity: 65_536,
            checkpoint_dir: None,
            resume: false,
            threads: 1,
        }
    }
}

struct GatewayInner {
    registry: Registry,
    threads: usize,
    checkpoint_dir: Option<PathBuf>,
    recorder: Recorder,
    stop: AtomicBool,
}

/// The multi-tenant ingest gateway. See the module docs.
#[derive(Clone)]
pub struct Gateway {
    inner: Arc<GatewayInner>,
}

impl Gateway {
    /// Build a gateway, restoring the fleet from the checkpoint
    /// directory when `resume` is set and a manifest exists.
    pub fn new(config: GatewayConfig, recorder: Recorder) -> Result<Gateway, ServeError> {
        let registry = match (&config.checkpoint_dir, config.resume) {
            (Some(dir), true) if Registry::can_restore(dir) => Registry::restore(
                dir,
                config.stream.clone(),
                config.ingest_capacity,
                recorder.clone(),
            )?,
            _ => Registry::new(
                config.stream.clone(),
                config.ingest_capacity,
                recorder.clone(),
            ),
        };
        Ok(Gateway {
            inner: Arc::new(GatewayInner {
                registry,
                threads: config.threads.max(1),
                checkpoint_dir: config.checkpoint_dir,
                recorder,
                stop: AtomicBool::new(false),
            }),
        })
    }

    /// The shared tenant registry (the query plane reads through this).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Worker threads for fleet-wide snapshot fan-out.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// The recorder the gateway emits metrics and spans into.
    pub fn recorder(&self) -> &Recorder {
        &self.inner.recorder
    }

    /// Ask accept loops to exit after their next wakeup. Pair with one
    /// dummy connection to the listen address to unblock a blocking
    /// `accept` immediately (see [`Gateway::serve_tcp`]'s docs).
    pub fn request_stop(&self) {
        self.inner.stop.store(true, Ordering::Release);
    }

    /// Whether a stop has been requested.
    pub fn stopping(&self) -> bool {
        self.inner.stop.load(Ordering::Acquire)
    }

    /// Checkpoint every tenant now (same path COMMIT takes). No-op
    /// without a checkpoint directory; returns the generation written.
    pub fn checkpoint_now(&self) -> Result<Option<u64>, ServeError> {
        match &self.inner.checkpoint_dir {
            Some(dir) => self.inner.registry.checkpoint_all(dir).map(Some),
            None => Ok(None),
        }
    }

    /// Accept agent connections until [`Gateway::request_stop`]. Each
    /// connection runs on its own thread; the accept loop itself blocks,
    /// so a stopper should dial the address once after requesting stop
    /// to unblock it.
    pub fn serve_tcp(&self, listener: TcpListener) -> Result<(), ServeError> {
        loop {
            let (stream, _) = listener.accept()?;
            if self.stopping() {
                return Ok(());
            }
            let gw = self.clone();
            std::thread::spawn(move || {
                let _ = gw.handle_tcp(stream);
            });
        }
    }

    /// Serve one TCP connection (nodelay so small ACK frames are not
    /// coalesced behind batch reads).
    pub fn handle_tcp(&self, stream: TcpStream) -> Result<(), ServeError> {
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        self.handle_connection(reader, writer)
    }

    /// Accept connections on a unix socket until stop is requested.
    #[cfg(unix)]
    pub fn serve_unix(&self, listener: std::os::unix::net::UnixListener) -> Result<(), ServeError> {
        loop {
            let (stream, _) = listener.accept()?;
            if self.stopping() {
                return Ok(());
            }
            let gw = self.clone();
            std::thread::spawn(move || {
                let reader = match stream.try_clone() {
                    Ok(s) => BufReader::new(s),
                    Err(_) => return,
                };
                let _ = gw.handle_connection(reader, BufWriter::new(stream));
            });
        }
    }

    /// The framed request/response loop for one agent connection. Every
    /// HELLO, BATCH, and COMMIT is acknowledged with the connection's
    /// cumulative accepted-record count; a protocol or ingest error is
    /// reported in an ERROR frame and closes the connection.
    pub fn handle_connection<R: Read, W: Write>(
        &self,
        mut reader: R,
        mut writer: W,
    ) -> Result<(), ServeError> {
        let metrics = self.inner.recorder.metrics();
        metrics.counter("autosens_serve_connections_total").inc();
        let mut accepted: u64 = 0;
        loop {
            let frame = match read_frame(&mut reader) {
                Ok(Some(f)) => f,
                Ok(None) => return Ok(()),
                Err(e) => {
                    let _ = write_frame(
                        &mut writer,
                        &Frame::Error {
                            message: e.to_string(),
                        },
                    );
                    return Err(e);
                }
            };
            metrics.counter("autosens_serve_frames_total").inc();
            let reply = match frame {
                Frame::Hello { version } if version == PROTOCOL_VERSION => {
                    Frame::Ack { records: accepted }
                }
                Frame::Hello { version } => Frame::Error {
                    message: format!(
                        "protocol version {version} unsupported (gateway speaks {PROTOCOL_VERSION})"
                    ),
                },
                Frame::Batch { tenant, records } => {
                    metrics.counter("autosens_serve_batches_total").inc();
                    match self.inner.registry.ingest(&tenant, &records) {
                        Ok(n) => {
                            accepted += n;
                            Frame::Ack { records: accepted }
                        }
                        Err(e) => Frame::Error {
                            message: e.to_string(),
                        },
                    }
                }
                Frame::Commit => {
                    metrics.counter("autosens_serve_commits_total").inc();
                    match self.checkpoint_now() {
                        Ok(_) => Frame::Ack { records: accepted },
                        Err(e) => Frame::Error {
                            message: e.to_string(),
                        },
                    }
                }
                Frame::Ack { .. } | Frame::Error { .. } => Frame::Error {
                    message: "gateway-only frame received from agent".into(),
                },
            };
            let fatal = matches!(reply, Frame::Error { .. });
            write_frame(&mut writer, &reply)?;
            if fatal {
                return Err(ServeError::Protocol(match reply {
                    Frame::Error { message } => message,
                    _ => unreachable!(),
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
    use autosens_telemetry::time::SimTime;

    use crate::tenant::TenantKey;

    fn rec(t: i64, latency: f64) -> ActionRecord {
        ActionRecord {
            time: SimTime(t),
            action: ActionType::SelectMail,
            latency_ms: latency,
            user: UserId(3),
            class: UserClass::Consumer,
            tz_offset_ms: 0,
            outcome: Outcome::Success,
        }
    }

    /// Drive the connection handler over in-memory pipes (no sockets).
    fn roundtrip(gw: &Gateway, frames: &[Frame]) -> Vec<Frame> {
        let mut wire = Vec::new();
        for f in frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut replies_raw = Vec::new();
        let _ = gw.handle_connection(&wire[..], &mut replies_raw);
        let mut replies = Vec::new();
        let mut r = &replies_raw[..];
        while let Ok(Some(f)) = read_frame(&mut r) {
            replies.push(f);
        }
        replies
    }

    #[test]
    fn acks_carry_cumulative_counts() {
        let gw = Gateway::new(GatewayConfig::default(), Recorder::disabled()).unwrap();
        let tenant = TenantKey::new("mail", "eu").unwrap();
        let replies = roundtrip(
            &gw,
            &[
                Frame::Hello {
                    version: PROTOCOL_VERSION,
                },
                Frame::Batch {
                    tenant: tenant.clone(),
                    records: vec![rec(0, 10.0), rec(1, 11.0)],
                },
                Frame::Batch {
                    tenant: tenant.clone(),
                    records: vec![rec(2, 12.0)],
                },
                Frame::Commit,
            ],
        );
        assert_eq!(
            replies,
            vec![
                Frame::Ack { records: 0 },
                Frame::Ack { records: 2 },
                Frame::Ack { records: 3 },
                Frame::Ack { records: 3 },
            ]
        );
        assert_eq!(gw.registry().len(), 1);
    }

    #[test]
    fn a_batch_holding_an_invalid_record_is_refused_whole() {
        let dir = std::env::temp_dir().join(format!("autosens-gw-invalid-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = GatewayConfig {
            checkpoint_dir: Some(dir.clone()),
            ..GatewayConfig::default()
        };
        let gw = Gateway::new(config.clone(), Recorder::disabled()).unwrap();
        let tenant = TenantKey::new("mail", "eu").unwrap();
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
        };
        let batch = |records| Frame::Batch {
            tenant: tenant.clone(),
            records,
        };
        let good = (0..3).map(|i| rec(i, 10.0 + i as f64)).collect();
        let bad = vec![rec(3, 13.0), rec(4, f64::NAN)];
        let replies = roundtrip(&gw, &[hello.clone(), batch(good), batch(bad)]);
        let acks = [Frame::Ack { records: 0 }, Frame::Ack { records: 3 }];
        assert_eq!(replies[..2], acks, "{replies:?}");
        assert!(matches!(replies[2..], [Frame::Error { .. }]), "{replies:?}");
        // A later COMMIT writes a generation that restores and holds
        // only the good batch.
        assert_eq!(
            roundtrip(&gw, &[hello, Frame::Commit]),
            vec![acks[0].clone(); 2]
        );
        let restored = Registry::restore(&dir, config.stream, 1024, Recorder::disabled()).unwrap();
        let events = restored.with_tenant(&tenant, |t| t.engine.status().events);
        assert_eq!(events.unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_version_gets_an_error() {
        let gw = Gateway::new(GatewayConfig::default(), Recorder::disabled()).unwrap();
        let replies = roundtrip(&gw, &[Frame::Hello { version: 9999 }]);
        assert!(matches!(replies.as_slice(), [Frame::Error { .. }]));
    }

    #[test]
    fn agent_sending_ack_is_rejected() {
        let gw = Gateway::new(GatewayConfig::default(), Recorder::disabled()).unwrap();
        let replies = roundtrip(&gw, &[Frame::Ack { records: 1 }]);
        assert!(matches!(replies.as_slice(), [Frame::Error { .. }]));
    }
}
