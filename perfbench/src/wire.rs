//! Clients for the gateway's two public interfaces, written from their
//! wire formats: the length-prefixed agent protocol (HELLO, BATCH, COMMIT,
//! answered by ACK or ERROR) and HTTP/1.1 GET with `Connection: close`.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;

use crate::gen::Record;

const T_HELLO: u8 = 1;
const T_BATCH: u8 = 2;
const T_COMMIT: u8 = 3;
const T_ACK: u8 = 4;
const T_ERROR: u8 = 5;
const PROTOCOL_VERSION: u16 = 1;

/// A tenant's `(service, region)` labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tenant {
    pub service: String,
    pub region: String,
}

impl Tenant {
    /// The `i`-th tenant of a fleet: `svc-XX/reg-YY`, 25 regions a service.
    pub fn nth(i: usize) -> Tenant {
        Tenant {
            service: format!("svc-{:02}", i / 25),
            region: format!("reg-{:02}", i % 25),
        }
    }

    /// The query-plane path of this tenant's curve.
    pub fn curve_path(&self) -> String {
        format!("/tenant/{}/{}/curve", self.service, self.region)
    }
}

/// One agent connection, stop-and-wait: every frame waits for its ACK.
pub struct Agent {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    frame: Vec<u8>,
    /// Records this connection has sent in BATCH frames.
    pub sent: u64,
}

impl Agent {
    /// Connect and complete the HELLO handshake.
    pub fn connect(addr: &str) -> Result<Agent, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut agent = Agent {
            reader,
            writer: BufWriter::new(stream),
            frame: Vec::new(),
            sent: 0,
        };
        agent.frame.push(T_HELLO);
        agent
            .frame
            .extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        agent.exchange()?;
        Ok(agent)
    }

    /// Send one BATCH and return the cumulative ACK count. The gateway
    /// must acknowledge every record sent so far on this connection.
    pub fn batch(&mut self, tenant: &Tenant, records: &[Record]) -> Result<u64, String> {
        self.frame.clear();
        self.frame.push(T_BATCH);
        for label in [&tenant.service, &tenant.region] {
            self.frame
                .extend_from_slice(&(label.len() as u16).to_le_bytes());
            self.frame.extend_from_slice(label.as_bytes());
        }
        self.frame
            .extend_from_slice(&(records.len() as u32).to_le_bytes());
        for r in records {
            r.encode(&mut self.frame);
        }
        self.sent += records.len() as u64;
        let acked = self.exchange()?;
        if acked != self.sent {
            return Err(format!("ACK {acked} after {} records sent", self.sent));
        }
        Ok(acked)
    }

    /// Send COMMIT; returns once the gateway reports the checkpoint durable.
    pub fn commit(&mut self) -> Result<u64, String> {
        self.frame.clear();
        self.frame.push(T_COMMIT);
        self.exchange()
    }

    fn exchange(&mut self) -> Result<u64, String> {
        let io = |e: std::io::Error| format!("agent connection: {e}");
        self.writer
            .write_all(&(self.frame.len() as u32).to_le_bytes())
            .map_err(io)?;
        self.writer.write_all(&self.frame).map_err(io)?;
        self.writer.flush().map_err(io)?;
        let mut len = [0u8; 4];
        self.reader.read_exact(&mut len).map_err(io)?;
        let len = u32::from_le_bytes(len) as usize;
        if len == 0 || len > 1 << 20 {
            return Err(format!("reply frame of {len} bytes"));
        }
        let mut reply = vec![0u8; len];
        self.reader.read_exact(&mut reply).map_err(io)?;
        match (reply[0], reply.len()) {
            (T_ACK, 9) => Ok(u64::from_le_bytes(reply[1..9].try_into().expect("8 bytes"))),
            (T_ERROR, _) => Err(format!(
                "gateway error: {}",
                String::from_utf8_lossy(reply.get(3..).unwrap_or_default())
            )),
            (t, n) => Err(format!("unexpected reply frame type {t} ({n} bytes)")),
        }
    }
}

/// One HTTP GET over a fresh connection. Returns the status and body.
pub fn get(addr: &str, path: &str) -> Result<(u16, Vec<u8>), String> {
    let io = |e: std::io::Error| format!("GET {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    let _ = stream.set_nodelay(true);
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(io)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(io)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("GET {path}: bad status line {line:?}"))?;
    let mut length = None;
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(io)? == 0 || line == "\r\n" {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            length = v.trim().parse::<usize>().ok();
        }
    }
    let mut body = Vec::new();
    match length {
        Some(n) => {
            body.resize(n, 0);
            reader.read_exact(&mut body).map_err(io)?;
        }
        None => {
            reader.read_to_end(&mut body).map_err(io)?;
        }
    }
    Ok((status, body))
}

/// A counter's value from the gateway's Prometheus text at `/metrics`.
pub fn counter(addr: &str, name: &str) -> Result<u64, String> {
    let (status, body) = get(addr, "/metrics")?;
    if status != 200 {
        return Err(format!("/metrics: HTTP {status}"));
    }
    String::from_utf8_lossy(&body)
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .ok_or_else(|| format!("/metrics has no {name}"))
}
