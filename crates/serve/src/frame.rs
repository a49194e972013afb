//! The agent↔gateway wire protocol: length-prefixed binary frames.
//!
//! Every frame is `u32` little-endian payload length followed by the
//! payload; the payload's first byte is the frame type. Integers are
//! little-endian, floats are IEEE-754 `f64` bit patterns, strings are
//! `u16` length + UTF-8 bytes. The record encoding is the fixed-width
//! 35-byte row below — the same field-for-field content as the CSV/JSONL
//! codecs, so a pushed record round-trips bit-identically (the `f64`
//! latency is carried as raw bits, never reformatted through text).
//!
//! ```text
//! HELLO  (agent → gateway)  : [1][u16 protocol version]
//! BATCH  (agent → gateway)  : [2][str service][str region][u32 n][n × record]
//! COMMIT (agent → gateway)  : [3]            — checkpoint everything durable
//! ACK    (gateway → agent)  : [4][u64 records accepted so far on this conn]
//! ERROR  (gateway → agent)  : [5][str message]
//!
//! record (35 bytes): [i64 time_ms][u8 action][f64 latency bits]
//!                    [u64 user][u8 class][i64 tz_offset_ms][u8 outcome]
//! ```
//!
//! A BATCH whose records include one a log would refuse (an enum code out
//! of range, a latency that is not finite and non-negative, a timezone
//! offset beyond ±14 h) fails to decode as a whole, so the gateway answers
//! ERROR and none of its records reaches a tenant.
//!
//! A gateway ACKs every HELLO, BATCH, and COMMIT (for COMMIT, only after
//! the checkpoint has been renamed into place), so an agent that has seen
//! its COMMIT ACK knows the pushed records survive a gateway kill.

use std::io::{Read, Write};

use autosens_telemetry::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
use autosens_telemetry::time::SimTime;

use crate::error::ServeError;
use crate::tenant::TenantKey;

/// Protocol version spoken by this build.
pub const PROTOCOL_VERSION: u16 = 1;

/// Encoded size of one record on the wire.
pub const RECORD_WIRE_BYTES: usize = 8 + 1 + 8 + 8 + 1 + 8 + 1;

/// Upper bound on one frame's payload (a batch of ~900k records); anything
/// larger is a protocol violation, not a bigger buffer.
pub const MAX_FRAME_BYTES: usize = 32 * 1024 * 1024;

/// A decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection preamble with the agent's protocol version.
    Hello {
        /// The agent's [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// One batch of records for one tenant.
    Batch {
        /// The tenant every record in the batch belongs to.
        tenant: TenantKey,
        /// The records, in arrival order.
        records: Vec<ActionRecord>,
    },
    /// Ask the gateway to checkpoint every tenant durably.
    Commit,
    /// Gateway acknowledgement carrying the connection's accepted-record
    /// count.
    Ack {
        /// Records accepted on this connection so far.
        records: u64,
    },
    /// Gateway-side failure description (the connection closes after).
    Error {
        /// What went wrong.
        message: String,
    },
}

const T_HELLO: u8 = 1;
const T_BATCH: u8 = 2;
const T_COMMIT: u8 = 3;
const T_ACK: u8 = 4;
const T_ERROR: u8 = 5;

/// Append a `u16`-length-prefixed string. Anything longer than the
/// prefix can express (e.g. an [`Frame::Error`] message built from a
/// long io error chain — tenant labels are validated far shorter) is
/// truncated on a char boundary; a silently wrapped `len as u16` would
/// desynchronize the peer's decoder.
fn put_str(buf: &mut Vec<u8>, s: &str) {
    let mut end = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    let s = &s[..end];
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ServeError::Protocol("frame truncated".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ServeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, ServeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ServeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, ServeError> {
        let n = self.u16()? as usize;
        std::str::from_utf8(self.take(n)?)
            .map(str::to_string)
            .map_err(|_| ServeError::Protocol("string is not UTF-8".into()))
    }

    fn done(&self) -> Result<(), ServeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ServeError::Protocol(format!(
                "{} trailing bytes after frame body",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// Append one record's 35-byte wire row.
pub fn encode_record(buf: &mut Vec<u8>, r: &ActionRecord) {
    buf.extend_from_slice(&r.time.0.to_le_bytes());
    buf.push(r.action.code());
    buf.extend_from_slice(&r.latency_ms.to_bits().to_le_bytes());
    buf.extend_from_slice(&r.user.0.to_le_bytes());
    buf.push(r.class.code());
    buf.extend_from_slice(&r.tz_offset_ms.to_le_bytes());
    buf.push(r.outcome.code());
}

/// Decode one wire row, refusing an enum code out of range (`from_code`
/// would panic).
fn decode_record(c: &mut Cursor<'_>) -> Result<ActionRecord, ServeError> {
    let (time, action, latency_ms, user) = (c.i64()?, c.u8()?, c.f64()?, c.u64()?);
    let (class, tz_offset_ms, outcome) = (c.u8()?, c.i64()?, c.u8()?);
    if action > 4 || class > 1 || outcome > 1 {
        let codes = format!("action {action}, class {class}, outcome {outcome}");
        return Err(ServeError::Protocol(format!("code out of range: {codes}")));
    }
    Ok(ActionRecord {
        time: SimTime(time),
        action: ActionType::from_code(action),
        latency_ms,
        user: UserId(user),
        class: UserClass::from_code(class),
        tz_offset_ms,
        outcome: Outcome::from_code(outcome),
    })
}

impl Frame {
    /// Serialize the frame payload (without the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Frame::Hello { version } => {
                let mut buf = vec![T_HELLO];
                buf.extend_from_slice(&version.to_le_bytes());
                buf
            }
            Frame::Batch { tenant, records } => {
                let mut buf = Vec::with_capacity(16 + records.len() * RECORD_WIRE_BYTES);
                buf.push(T_BATCH);
                put_str(&mut buf, &tenant.service);
                put_str(&mut buf, &tenant.region);
                buf.extend_from_slice(&(records.len() as u32).to_le_bytes());
                for r in records {
                    encode_record(&mut buf, r);
                }
                buf
            }
            Frame::Commit => vec![T_COMMIT],
            Frame::Ack { records } => {
                let mut buf = vec![T_ACK];
                buf.extend_from_slice(&records.to_le_bytes());
                buf
            }
            Frame::Error { message } => {
                let mut buf = vec![T_ERROR];
                put_str(&mut buf, message);
                buf
            }
        }
    }

    /// Parse one frame payload.
    pub fn decode(payload: &[u8]) -> Result<Frame, ServeError> {
        let mut c = Cursor {
            buf: payload,
            pos: 0,
        };
        let frame = match c.u8()? {
            T_HELLO => Frame::Hello { version: c.u16()? },
            T_BATCH => {
                let tenant = TenantKey::new(c.str()?, c.str()?)?;
                let n = c.u32()? as usize;
                let body = payload.len().saturating_sub(c.pos);
                if n * RECORD_WIRE_BYTES != body {
                    return Err(ServeError::Protocol(format!(
                        "batch declares {n} records ({} bytes) but carries {body} bytes",
                        n * RECORD_WIRE_BYTES
                    )));
                }
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    records.push(decode_record(&mut c)?);
                }
                // Refuse whatever a log would refuse. A pass of its own
                // keeps the decode loop tight: validating inside it made
                // a 64-record batch decode about 1.5x slower.
                for r in &records {
                    r.validate()
                        .map_err(|e| ServeError::Protocol(e.to_string()))?;
                }
                Frame::Batch { tenant, records }
            }
            T_COMMIT => Frame::Commit,
            T_ACK => Frame::Ack { records: c.u64()? },
            T_ERROR => Frame::Error { message: c.str()? },
            t => return Err(ServeError::Protocol(format!("unknown frame type {t}"))),
        };
        c.done()?;
        Ok(frame)
    }
}

/// Write one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), ServeError> {
    let payload = frame.encode();
    if payload.len() > MAX_FRAME_BYTES {
        return Err(ServeError::Protocol(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte limit",
            payload.len()
        )));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&payload)?;
    w.flush()?;
    Ok(())
}

/// Read one length-prefixed frame. Returns `None` on a clean EOF at a
/// frame boundary (the peer closed the connection).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, ServeError> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(ServeError::Protocol(format!(
            "frame length {len} outside 1..={MAX_FRAME_BYTES}"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Frame::decode(&payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: i64, latency: f64) -> ActionRecord {
        ActionRecord {
            time: SimTime(t),
            action: ActionType::Search,
            latency_ms: latency,
            user: UserId(42),
            class: UserClass::Consumer,
            tz_offset_ms: -3_600_000,
            outcome: Outcome::Success,
        }
    }

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
            },
            Frame::Batch {
                tenant: TenantKey::new("mail", "eu-west1").unwrap(),
                records: vec![
                    rec(1_000, 123.456),
                    rec(2_000, f64::from_bits(0x3FF123456789ABCD)),
                ],
            },
            Frame::Commit,
            Frame::Ack { records: 7 },
            Frame::Error {
                message: "nope".into(),
            },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = &wire[..];
        for f in &frames {
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), Some(f));
        }
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn latency_bits_survive_the_wire() {
        let r0 = rec(5, f64::from_bits(0x4028_B0A3_D70A_3D71));
        let f = Frame::Batch {
            tenant: TenantKey::new("s", "r").unwrap(),
            records: vec![r0],
        };
        match Frame::decode(&f.encode()).unwrap() {
            Frame::Batch { records, .. } => {
                assert_eq!(records[0].latency_ms.to_bits(), r0.latency_ms.to_bits());
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_frames() {
        assert!(Frame::decode(&[]).is_err());
        assert!(Frame::decode(&[99]).is_err());
        // Truncated batch body.
        let f = Frame::Batch {
            tenant: TenantKey::new("s", "r").unwrap(),
            records: vec![rec(1, 2.0)],
        };
        let mut bytes = f.encode();
        bytes.pop();
        assert!(Frame::decode(&bytes).is_err());
        // Trailing garbage.
        let mut bytes = Frame::Commit.encode();
        bytes.push(0);
        assert!(Frame::decode(&bytes).is_err());
        // Oversized declared length.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut &wire[..]).is_err());
    }

    #[test]
    fn rejects_records_that_fail_validation() {
        let tenant = TenantKey::new("s", "r").unwrap();
        let batch = |r| {
            let records = vec![rec(1, 2.0), r];
            Frame::Batch {
                tenant: tenant.clone(),
                records,
            }
            .encode()
        };
        let good = batch(rec(2, 3.0));
        assert!(Frame::decode(&good).is_ok());
        // One past the last action, class and outcome code, in the last row.
        let row = good.len() - RECORD_WIRE_BYTES;
        let mut bad: Vec<Vec<u8>> = [(8, 5u8), (25, 2), (34, 2)]
            .map(|(at, code)| {
                let mut bytes = good.clone();
                bytes[row + at] = code;
                bytes
            })
            .into();
        let bad_tz = ActionRecord {
            tz_offset_ms: i64::MAX,
            ..rec(2, 3.0)
        };
        // A clock decades off would make every snapshot of its tenant
        // build one α window per hour of the span.
        let far_off = rec(autosens_telemetry::record::MAX_ABS_TIME_MS + 1, 3.0);
        bad.extend([rec(2, f64::NAN), rec(2, -1.0), bad_tz, far_off].map(batch));
        for bytes in bad {
            let decoded = Frame::decode(&bytes);
            assert!(
                matches!(decoded, Err(ServeError::Protocol(_))),
                "{decoded:?}"
            );
        }
    }

    #[test]
    fn oversized_error_message_truncates_to_a_valid_frame() {
        // 70k of multi-byte chars: the length prefix cannot express it,
        // so the encoder must truncate on a char boundary, not wrap.
        let message = "é".repeat(35_000);
        let f = Frame::Error { message };
        let decoded = Frame::decode(&f.encode()).unwrap();
        match decoded {
            Frame::Error { message } => {
                assert!(message.len() <= u16::MAX as usize);
                assert!(message.chars().all(|c| c == 'é'));
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn record_wire_size_matches_constant() {
        let mut buf = Vec::new();
        encode_record(&mut buf, &rec(1, 2.0));
        assert_eq!(buf.len(), RECORD_WIRE_BYTES);
    }
}
