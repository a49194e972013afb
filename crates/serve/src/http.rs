//! The hand-rolled HTTP/1.1 query plane.
//!
//! Dependency-free, like the rest of the workspace: the gateway's one
//! blocking accept loop (see [`crate::gateway`]), one thread per
//! connection, `Connection: close` on every response. Only `GET` is
//! spoken — the plane is a read-only window onto the gateway's registry.
//!
//! # Endpoints
//!
//! | path | body |
//! |---|---|
//! | `/healthz` | liveness + tenant count + checkpoint generation |
//! | `/tenants` | every tenant key, sorted |
//! | `/tenant/<service>/<region>/curve` | [`PreferenceSummary`] pretty JSON, byte-identical to `analyze --json` over the same records |
//! | `/tenant/<service>/<region>/status` | the tenant's [`StatusDocument`](autosens_stream::StatusDocument) |
//! | `/tenant/<service>/<region>/shifts` | regime shifts from the latest detection pass |
//! | `/fleet` | cheap per-tenant intake counters (no snapshots) plus the last fleet-snapshot pass's stats |
//! | `/snapshot` | run a fleet-wide snapshot pass; body is its [`FleetSnapshotStats`] |
//! | `/metrics` | Prometheus text exposition of the gateway registry |
//!
//! The `/curve` body is produced by exactly the batch path's expression —
//! `serde_json::to_string_pretty(&PreferenceSummary::from_report(...))`
//! plus the trailing newline `println!` appends — so `diff` against
//! `autosens analyze --json` is the integration gate, not an
//! approximate comparison.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use serde::Serialize;

use autosens_core::report::{default_grid, PreferenceSummary};

use crate::error::ServeError;
use crate::gateway::Gateway;
use crate::registry::FleetSnapshotStats;
use crate::tenant::TenantKey;

/// One parsed request: method and percent-free path (query strings are
/// not part of this plane).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method verbatim.
    pub method: String,
    /// The request path.
    pub path: String,
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Content type header value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    fn error(status: u16, message: &str) -> Response {
        #[derive(Serialize)]
        struct ErrorBody {
            error: String,
        }
        let body = serde_json::to_string(&ErrorBody {
            error: message.to_string(),
        })
        .unwrap_or_else(|_| format!("{{\"error\":{message:?}}}"));
        Response::json(status, body + "\n")
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            500 => "Internal Server Error",
            _ => "Unknown",
        }
    }
}

/// Cheap per-tenant intake counters for the fleet summary (no snapshot
/// is run — this endpoint stays O(tenants), not O(records)).
#[derive(Debug, Clone, Serialize)]
struct FleetTenant {
    service: String,
    region: String,
    events: u64,
    live_records: u64,
    filtered: u64,
    late: u64,
    duplicates: u64,
    queue_depth: u64,
}

#[derive(Debug, Clone, Serialize)]
struct FleetSummary {
    tenants: usize,
    generation: u64,
    /// Stats for the most recent `/snapshot` (or other fleet-wide
    /// snapshot) pass; `null` before the first pass.
    last_fleet_snapshot: Option<FleetSnapshotStats>,
    fleet: Vec<FleetTenant>,
}

/// Serve the query plane until [`Gateway::request_stop`] through the
/// gateway's one accept loop (see [`crate::gateway`]): same unblock
/// contract (dial once after stopping) and same rule for accept errors
/// (counted, never fatal).
pub fn serve_http(gateway: &Gateway, listener: TcpListener) {
    gateway.accept_loop(|| listener.accept().map(|(s, _)| s), handle_http);
}

/// Serve one HTTP connection: parse the request line, drain headers,
/// dispatch, write one `Connection: close` response.
pub fn handle_http(gateway: &Gateway, stream: TcpStream) -> Result<(), ServeError> {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone()?);
    let request = match read_request(&mut reader) {
        Ok(Some(r)) => r,
        Ok(None) => return Ok(()),
        Err(_) => {
            let mut stream = stream;
            return write_response(&mut stream, &Response::error(400, "malformed request"));
        }
    };
    gateway
        .recorder()
        .metrics()
        .counter("autosens_serve_http_requests_total")
        .inc();
    let response = route(gateway, &request);
    let mut stream = stream;
    write_response(&mut stream, &response)
}

/// Longest request or header line accepted before the connection is
/// rejected with 400 (the paths this plane speaks are tiny; anything
/// longer is an abuse of the unauthenticated listener, not a request).
pub const MAX_LINE_BYTES: u64 = 8 * 1024;

/// Most headers drained before the request is rejected.
pub const MAX_HEADERS: usize = 128;

/// Read one `\n`-terminated line without letting a newline-free peer
/// grow the buffer past [`MAX_LINE_BYTES`]. Returns `None` on EOF.
fn read_line_bounded<R: BufRead>(reader: &mut R) -> Result<Option<String>, ServeError> {
    let mut limited = std::io::Read::take(&mut *reader, MAX_LINE_BYTES);
    let mut buf = Vec::new();
    let n = limited.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if !buf.ends_with(b"\n") && n as u64 == MAX_LINE_BYTES {
        return Err(ServeError::Protocol(format!(
            "request line exceeds {MAX_LINE_BYTES} bytes"
        )));
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| ServeError::Protocol("request line is not UTF-8".into()))
}

/// Parse the request line and discard headers up to the blank line.
/// Returns `None` when the peer closed before sending anything. Reads
/// are bounded ([`MAX_LINE_BYTES`] per line, [`MAX_HEADERS`] headers) so
/// an unauthenticated client cannot grow gateway memory without limit.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, ServeError> {
    let line = match read_line_bounded(reader)? {
        Some(line) => line,
        None => return Ok(None),
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => (m, p, v),
        _ => return Err(ServeError::Protocol(format!("bad request line {line:?}"))),
    };
    let _ = version;
    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
    };
    for drained in 0.. {
        if drained == MAX_HEADERS {
            return Err(ServeError::Protocol(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        match read_line_bounded(reader)? {
            None => break,
            Some(header) if header == "\r\n" || header == "\n" => break,
            Some(_) => {}
        }
    }
    Ok(Some(request))
}

/// Serialize one response with `Connection: close`.
pub fn write_response<W: Write>(w: &mut W, response: &Response) -> Result<(), ServeError> {
    write!(
        w,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len()
    )?;
    w.write_all(&response.body)?;
    w.flush()?;
    Ok(())
}

/// Dispatch one request against the gateway's registry.
pub fn route(gateway: &Gateway, request: &Request) -> Response {
    if request.method != "GET" {
        return Response::error(405, "only GET is supported");
    }
    let segments: Vec<&str> = request
        .path
        .trim_matches('/')
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match segments.as_slice() {
        ["healthz"] => healthz(gateway),
        ["tenants"] => tenants(gateway),
        ["fleet"] => fleet(gateway),
        ["snapshot"] => snapshot_fleet(gateway),
        ["metrics"] => metrics(gateway),
        ["tenant", service, region, endpoint] => match TenantKey::new(*service, *region) {
            Ok(key) => tenant_endpoint(gateway, &key, endpoint),
            Err(e) => Response::error(400, &e.to_string()),
        },
        _ => Response::error(404, &format!("no route for {}", request.path)),
    }
}

fn healthz(gateway: &Gateway) -> Response {
    #[derive(Serialize)]
    struct Health {
        status: &'static str,
        tenants: usize,
        generation: u64,
    }
    let health = Health {
        status: "ok",
        tenants: gateway.registry().len(),
        generation: gateway.registry().generation(),
    };
    match serde_json::to_string(&health) {
        Ok(body) => Response::json(200, body + "\n"),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

fn tenants(gateway: &Gateway) -> Response {
    match serde_json::to_string_pretty(&gateway.registry().keys()) {
        Ok(body) => Response::json(200, body + "\n"),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

fn fleet(gateway: &Gateway) -> Response {
    let registry = gateway.registry();
    let mut fleet = Vec::new();
    for (key, tenant) in registry.tenants() {
        let t = tenant.lock();
        let status = t.engine.status();
        fleet.push(FleetTenant {
            service: key.service,
            region: key.region,
            events: status.events,
            live_records: status.live_records,
            filtered: status.filtered,
            late: status.late,
            duplicates: status.duplicates,
            queue_depth: t.ingestor.queue_depth() as u64,
        });
    }
    let summary = FleetSummary {
        tenants: fleet.len(),
        generation: registry.generation(),
        last_fleet_snapshot: registry.last_fleet_snapshot(),
        fleet,
    };
    match serde_json::to_string_pretty(&summary) {
        Ok(body) => Response::json(200, body + "\n"),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

/// Run a fleet-wide snapshot pass and report its wall-clock and cache
/// accounting. Tenants untouched since their last snapshot are served
/// from the engine snapshot cache, so a warm pass over a quiet fleet is
/// orders of magnitude faster than the cold one.
fn snapshot_fleet(gateway: &Gateway) -> Response {
    let registry = gateway.registry();
    match registry.snapshot_all(gateway.threads()) {
        Ok(_) => match registry.last_fleet_snapshot() {
            Some(stats) => match serde_json::to_string_pretty(&stats) {
                Ok(body) => Response::json(200, body + "\n"),
                Err(e) => Response::error(500, &e.to_string()),
            },
            // Empty fleet: snapshot_all returns without recording stats.
            None => Response::json(200, "null\n".into()),
        },
        Err(e) => Response::error(500, &e.to_string()),
    }
}

fn metrics(gateway: &Gateway) -> Response {
    let snapshot = gateway.recorder().metrics().snapshot();
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        body: snapshot.to_prometheus().into_bytes(),
    }
}

fn tenant_endpoint(gateway: &Gateway, key: &TenantKey, endpoint: &str) -> Response {
    let registry = gateway.registry();
    if registry.get(key).is_none() {
        return Response::error(404, &format!("unknown tenant {}", key.label()));
    }
    match endpoint {
        "curve" => match registry.snapshot(key) {
            Ok(report) => {
                // The exact expression batch `analyze --json` prints (the
                // trailing newline is println!'s) — byte-identity is the
                // contract, see the module docs.
                let summary = PreferenceSummary::from_report("all", &report, &default_grid());
                match serde_json::to_string_pretty(&summary) {
                    Ok(body) => Response::json(200, body + "\n"),
                    Err(e) => Response::error(500, &e.to_string()),
                }
            }
            Err(e) => Response::error(500, &e.to_string()),
        },
        "status" => match registry.status_document(key) {
            // Snapshot and document are assembled under one tenant lock,
            // so the report and engine counters describe the same instant
            // even while other connections keep ingesting.
            Ok(doc) => match doc.to_json() {
                Ok(body) => Response::json(200, body + "\n"),
                Err(e) => Response::error(500, &e.to_string()),
            },
            Err(e) => Response::error(500, &e.to_string()),
        },
        "shifts" => {
            let shifts = match registry.with_tenant(key, |t| {
                t.engine
                    .run_detection()
                    .map(|_| t.engine.last_shifts().to_vec())
            }) {
                Ok(Ok(shifts)) => shifts,
                Ok(Err(e)) => return Response::error(500, &e.to_string()),
                Err(e) => return Response::error(500, &e.to_string()),
            };
            match serde_json::to_string_pretty(&shifts) {
                Ok(body) => Response::json(200, body + "\n"),
                Err(e) => Response::error(500, &e.to_string()),
            }
        }
        other => Response::error(404, &format!("unknown tenant endpoint {other:?}")),
    }
}

/// A minimal blocking HTTP GET used by the CLI `query` subcommand and
/// the load scenario (no external HTTP client in the workspace).
pub fn http_get(addr: &str, path: &str) -> Result<(u16, Vec<u8>), ServeError> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone()?;
    write!(
        writer,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ServeError::Protocol(format!("bad status line {status_line:?}")))?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        if header == "\r\n" || header == "\n" {
            break;
        }
        if let Some(rest) = header.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = rest.trim().parse().ok();
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            std::io::Read::read_exact(&mut reader, &mut body)?;
        }
        None => {
            std::io::Read::read_to_end(&mut reader, &mut body)?;
        }
    }
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosens_obs::Recorder;

    use crate::gateway::GatewayConfig;

    #[test]
    fn parses_requests_and_routes_404() {
        let wire = b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = read_request(&mut &wire[..]).unwrap().unwrap();
        assert_eq!(
            req,
            Request {
                method: "GET".into(),
                path: "/nope".into()
            }
        );
        let gw = Gateway::new(GatewayConfig::default(), Recorder::disabled()).unwrap();
        assert_eq!(route(&gw, &req).status, 404);
        assert_eq!(
            route(
                &gw,
                &Request {
                    method: "POST".into(),
                    path: "/healthz".into()
                }
            )
            .status,
            405
        );
        assert_eq!(
            route(
                &gw,
                &Request {
                    method: "GET".into(),
                    path: "/healthz".into()
                }
            )
            .status,
            200
        );
    }

    #[test]
    fn unknown_tenant_is_404_and_bad_key_is_400() {
        let gw = Gateway::new(GatewayConfig::default(), Recorder::disabled()).unwrap();
        let r = route(
            &gw,
            &Request {
                method: "GET".into(),
                path: "/tenant/a/b/curve".into(),
            },
        );
        assert_eq!(r.status, 404);
        let r = route(
            &gw,
            &Request {
                method: "GET".into(),
                path: "/tenant/a%2F/b/curve".into(),
            },
        );
        assert_eq!(r.status, 400);
    }

    #[test]
    fn newline_free_flood_is_rejected_not_buffered() {
        // A peer streaming bytes with no newline must hit the line bound,
        // not grow the request buffer indefinitely.
        let flood = vec![b'a'; MAX_LINE_BYTES as usize * 4];
        assert!(read_request(&mut &flood[..]).is_err());
    }

    #[test]
    fn unbounded_header_count_is_rejected() {
        let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADERS + 1) {
            wire.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        wire.extend_from_slice(b"\r\n");
        assert!(read_request(&mut &wire[..]).is_err());
        // One under the cap still parses.
        let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADERS - 1) {
            wire.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        wire.extend_from_slice(b"\r\n");
        assert_eq!(
            read_request(&mut &wire[..]).unwrap().unwrap().path,
            "/".to_string()
        );
    }

    #[test]
    fn responses_serialize_with_content_length() {
        let resp = Response::json(200, "{}\n".into());
        let mut out = Vec::new();
        write_response(&mut out, &resp).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.ends_with("\r\n\r\n{}\n"));
    }
}
