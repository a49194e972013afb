//! Torture tests for the `.asc` container reader: every way a file can rot
//! on disk — truncation, bad magic, wrong version, forged lengths, flipped
//! bits, invalid enum codes — must surface as a typed [`TelemetryError`],
//! never a panic. Directed cases patch specific fields (re-fixing the
//! checksums that would otherwise mask the fault); a property sweep then
//! mutates and truncates containers at arbitrary offsets.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use autosens_telemetry::container::{
    self, checksum64, MappedLog, CONTAINER_MAGIC, FOOTER_CHECKSUM_OFFSET, FOOTER_LEN,
    FOOTER_SECTIONS_OFFSET, HEADER_LEN, NUM_SECTIONS,
};
use autosens_telemetry::record::{
    ActionRecord, ActionType, Outcome, UserClass, UserId, MAX_ABS_TIME_MS,
};
use autosens_telemetry::time::{SimTime, MS_PER_HOUR};
use autosens_telemetry::{TelemetryError, TelemetryLog};
use proptest::prelude::*;

static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_asc(tag: &str) -> PathBuf {
    let n = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "autosens-corrupt-{}-{tag}-{n}.asc",
        std::process::id()
    ))
}

/// A small, deterministic log with all enum values represented.
fn fixture_log(n: usize) -> TelemetryLog {
    let records: Vec<ActionRecord> = (0..n)
        .map(|i| ActionRecord {
            time: SimTime(i as i64 * 60_000),
            action: [
                ActionType::SelectMail,
                ActionType::SwitchFolder,
                ActionType::Search,
                ActionType::ComposeSend,
                ActionType::Other,
            ][i % 5],
            latency_ms: 50.0 + i as f64,
            user: UserId(i as u64 % 7),
            class: if i % 2 == 0 {
                UserClass::Business
            } else {
                UserClass::Consumer
            },
            tz_offset_ms: ((i as i64 % 25) - 12) * MS_PER_HOUR,
            outcome: if i % 9 == 0 {
                Outcome::Error
            } else {
                Outcome::Success
            },
        })
        .collect();
    TelemetryLog::from_records(records).unwrap()
}

/// Serialize a log to container bytes in memory.
fn container_bytes(log: &TelemetryLog, shard_ms: Option<i64>) -> Vec<u8> {
    let mut buf = Vec::new();
    container::write_container(log, &mut buf, shard_ms).unwrap();
    buf
}

/// Open container bytes through the real file-backed reader.
fn open_bytes(bytes: &[u8], tag: &str) -> Result<MappedLog, TelemetryError> {
    let path = tmp_asc(tag);
    std::fs::write(&path, bytes).unwrap();
    let result = MappedLog::open(&path);
    let _ = std::fs::remove_file(&path);
    result
}

/// Footer byte offset of the whole file.
fn footer_start(bytes: &[u8]) -> usize {
    bytes.len() - FOOTER_LEN
}

/// Recompute the footer self-checksum after patching footer fields, so the
/// patched *field* is what the reader trips on, not the checksum.
fn refix_footer(bytes: &mut [u8]) {
    let start = footer_start(bytes);
    let sum = checksum64(&bytes[start..start + FOOTER_CHECKSUM_OFFSET]);
    bytes[start + FOOTER_CHECKSUM_OFFSET..start + FOOTER_CHECKSUM_OFFSET + 8]
        .copy_from_slice(&sum.to_le_bytes());
}

/// Read section `i`'s (offset, len) from the footer.
fn section_geometry(bytes: &[u8], i: usize) -> (usize, usize) {
    let base = footer_start(bytes) + FOOTER_SECTIONS_OFFSET + i * 24;
    let off = u64::from_le_bytes(bytes[base..base + 8].try_into().unwrap());
    let len = u64::from_le_bytes(bytes[base + 8..base + 16].try_into().unwrap());
    (off as usize, len as usize)
}

/// Recompute section `i`'s checksum after patching its payload, then re-fix
/// the footer checksum that covers the triple.
fn refix_section(bytes: &mut [u8], i: usize) {
    let (off, len) = section_geometry(bytes, i);
    let sum = checksum64(&bytes[off..off + len]);
    let base = footer_start(bytes) + FOOTER_SECTIONS_OFFSET + i * 24;
    bytes[base + 16..base + 24].copy_from_slice(&sum.to_le_bytes());
    refix_footer(bytes);
}

/// Every corruption must produce the typed container error, with a reason
/// that names the failure.
fn assert_corrupt(result: Result<MappedLog, TelemetryError>, needle: &str) {
    let err = result.expect_err("corruption must be rejected");
    assert!(
        matches!(err, TelemetryError::Container { .. }),
        "expected Container error, got {err:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains("corrupt telemetry container"), "{msg}");
    assert!(msg.contains(needle), "missing {needle:?} in: {msg}");
}

#[test]
fn rejects_bad_magic() {
    let mut bytes = container_bytes(&fixture_log(16), None);
    bytes[0] ^= 0xFF;
    assert_corrupt(open_bytes(&bytes, "magic"), "bad magic");
}

#[test]
fn rejects_unsupported_version() {
    let mut bytes = container_bytes(&fixture_log(16), None);
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert_corrupt(
        open_bytes(&bytes, "version"),
        "unsupported container version",
    );
}

#[test]
fn rejects_unknown_flag_bits() {
    let mut bytes = container_bytes(&fixture_log(16), None);
    bytes[12] |= 0x80;
    assert_corrupt(open_bytes(&bytes, "flags"), "unknown flag bits");
}

#[test]
fn rejects_truncation_below_minimum() {
    let bytes = container_bytes(&fixture_log(16), None);
    for keep in [0, 1, 8, HEADER_LEN, HEADER_LEN + FOOTER_LEN - 1] {
        assert_corrupt(open_bytes(&bytes[..keep], "short"), "truncated");
    }
}

#[test]
fn rejects_clipped_footer() {
    let bytes = container_bytes(&fixture_log(16), None);
    // Any tail clip leaves the terminal magic short or misplaced.
    for cut in [1, 7, 8, FOOTER_LEN - 1, FOOTER_LEN] {
        let clipped = &bytes[..bytes.len() - cut];
        assert_corrupt(open_bytes(clipped, "clip"), "footer magic missing");
    }
}

#[test]
fn rejects_flipped_footer_field() {
    let mut bytes = container_bytes(&fixture_log(16), None);
    // Forge the row count without re-fixing the footer checksum.
    let start = footer_start(&bytes);
    bytes[start] ^= 0x01;
    assert_corrupt(open_bytes(&bytes, "footer-sum"), "footer checksum mismatch");
}

#[test]
fn rejects_section_length_mismatch() {
    // Claim one row more than the time section holds (checksum re-fixed, so
    // the geometry check itself must catch it).
    let mut bytes = container_bytes(&fixture_log(16), None);
    let start = footer_start(&bytes);
    let base = start + FOOTER_SECTIONS_OFFSET + 8; // time section length field
    let len = u64::from_le_bytes(bytes[base..base + 8].try_into().unwrap());
    bytes[base..base + 8].copy_from_slice(&(len + 8).to_le_bytes());
    refix_footer(&mut bytes);
    assert_corrupt(open_bytes(&bytes, "length"), "length mismatch");
}

#[test]
fn rejects_section_past_data_area() {
    // Point the last column section beyond the end of the data area.
    let mut bytes = container_bytes(&fixture_log(16), None);
    let start = footer_start(&bytes);
    let base = start + FOOTER_SECTIONS_OFFSET + (NUM_SECTIONS - 1) * 24;
    let huge = (bytes.len() as u64).next_multiple_of(8);
    bytes[base..base + 8].copy_from_slice(&huge.to_le_bytes());
    refix_footer(&mut bytes);
    assert_corrupt(open_bytes(&bytes, "bounds"), "runs past the data area");
}

#[test]
fn rejects_flipped_payload_byte() {
    // A single flipped bit in each column section must trip that section's
    // checksum (the word-wise FNV mixes every byte bijectively).
    let bytes = container_bytes(&fixture_log(16), None);
    for i in 0..NUM_SECTIONS {
        let (off, len) = section_geometry(&bytes, i);
        let mut mutated = bytes.clone();
        mutated[off + len / 2] ^= 0x10;
        assert_corrupt(open_bytes(&mutated, "payload"), "checksum mismatch");
    }
}

#[test]
fn rejects_out_of_range_enum_codes() {
    // Patch a valid code to an invalid one and re-fix every checksum: only
    // the semantic range check stands between the code and `from_code`'s
    // panic path.
    for (section, needle, bad) in [
        (2usize, "action column", 5u8),
        (4, "class column", 2),
        (6, "outcome column", 0xFF),
    ] {
        let mut bytes = container_bytes(&fixture_log(16), None);
        let (off, _) = section_geometry(&bytes, section);
        bytes[off + 3] = bad;
        refix_section(&mut bytes, section);
        assert_corrupt(open_bytes(&bytes, "enum"), needle);
    }
}

#[test]
fn rejects_non_finite_and_negative_latency() {
    for value in [f64::NAN, f64::INFINITY, -1.0] {
        let mut bytes = container_bytes(&fixture_log(16), None);
        let (off, _) = section_geometry(&bytes, 1);
        bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
        refix_section(&mut bytes, 1);
        assert_corrupt(open_bytes(&bytes, "latency"), "latency column");
    }
}

#[test]
fn rejects_timezone_outside_fourteen_hours() {
    let mut bytes = container_bytes(&fixture_log(16), None);
    let (off, _) = section_geometry(&bytes, 5);
    bytes[off..off + 8].copy_from_slice(&(15 * MS_PER_HOUR).to_le_bytes());
    refix_section(&mut bytes, 5);
    assert_corrupt(open_bytes(&bytes, "tz"), "outside +/-14h");
}

#[test]
fn rejects_times_outside_the_bound() {
    // The first row pushed back and the last pushed forward, so the time
    // column stays sorted and only the bound can catch it.
    let rows = 16;
    for (row, value) in [(0, -MAX_ABS_TIME_MS - 1), (rows - 1, MAX_ABS_TIME_MS + 1)] {
        let mut bytes = container_bytes(&fixture_log(rows), None);
        let (off, _) = section_geometry(&bytes, 0);
        bytes[off + 8 * row..off + 8 * row + 8].copy_from_slice(&value.to_le_bytes());
        refix_section(&mut bytes, 0);
        assert_corrupt(open_bytes(&bytes, "time"), "outside +/-2^40 ms");
    }
}

#[test]
fn rejects_sorted_flag_lie() {
    // Break the time order while the header still claims sortedness.
    let mut bytes = container_bytes(&fixture_log(16), None);
    let (off, _) = section_geometry(&bytes, 0);
    bytes[off + 8..off + 16].copy_from_slice(&(-1i64).to_le_bytes());
    refix_section(&mut bytes, 0);
    assert_corrupt(open_bytes(&bytes, "order"), "decreases at row");
}

#[test]
fn rejects_overlapping_shard_blocks() {
    let mut bytes = container_bytes(&fixture_log(16), Some(5 * 60_000));
    let (off, len) = section_geometry(&bytes, NUM_SECTIONS);
    assert!(len >= 64, "fixture must produce at least two shard blocks");
    // Rewind the second block's row_lo into the first block's range.
    bytes[off + 32..off + 40].copy_from_slice(&0u64.to_le_bytes());
    refix_section(&mut bytes, NUM_SECTIONS);
    assert_corrupt(open_bytes(&bytes, "shard"), "out of order or out of range");
}

#[test]
fn empty_file_and_foreign_file_are_not_containers() {
    assert_corrupt(open_bytes(b"", "empty"), "truncated");
    // Shorter than the structural minimum: rejected before magic is read.
    assert_corrupt(
        open_bytes(b"time_ms,action,latency_ms\n", "csv-short"),
        "truncated",
    );
    // Big enough to pass the size check: fails on magic instead.
    let csv = b"time_ms,action,latency_ms,user,class,tz_offset_ms,outcome\n".repeat(8);
    assert_corrupt(open_bytes(&csv, "csv-long"), "bad magic");
    let zeros = vec![0u8; HEADER_LEN + FOOTER_LEN];
    assert_corrupt(open_bytes(&zeros, "zeros"), "bad magic");
    assert!(!container::is_container_bytes(b"time_ms,"));
    assert!(container::is_container_bytes(&CONTAINER_MAGIC));
}

fn arb_record() -> impl Strategy<Value = ActionRecord> {
    (
        -1_000_000i64..1_000_000,
        0u8..5,
        0.0f64..1_000.0,
        0u64..10,
        prop::bool::ANY,
        -12i64..=12,
        prop::bool::ANY,
    )
        .prop_map(|(t, a, latency, user, business, tz_h, ok)| ActionRecord {
            time: SimTime(t),
            action: ActionType::from_code(a),
            latency_ms: latency,
            user: UserId(user),
            class: if business {
                UserClass::Business
            } else {
                UserClass::Consumer
            },
            tz_offset_ms: tz_h * MS_PER_HOUR,
            outcome: if ok { Outcome::Success } else { Outcome::Error },
        })
}

// The blanket property behind all the directed cases: an arbitrary byte
// mutation either fails with a typed error or leaves every column intact
// (padding and dead header bits are not semantically covered) — and it
// NEVER panics.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn mutated_containers_never_panic_or_corrupt(
        records in prop::collection::vec(arb_record(), 1..60),
        with_shards in prop::bool::ANY,
        offset_seed in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let log = TelemetryLog::from_records(records).unwrap();
        let shard_ms = with_shards.then_some(10 * 60_000);
        let mut bytes = container_bytes(&log, shard_ms);
        let offset = (offset_seed % bytes.len() as u64) as usize;
        bytes[offset] ^= xor;

        match open_bytes(&bytes, "prop-mutate") {
            Err(TelemetryError::Container { .. }) => {}
            Err(other) => prop_assert!(false, "wrong error type: {other:?}"),
            Ok(mapped) => {
                // The flip landed in padding or a non-semantic bit: the
                // columns must still read back bit-identical.
                let back = mapped.to_log().unwrap();
                prop_assert_eq!(back.columns().times(), log.columns().times());
                let bits = |l: &[f64]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(
                    bits(back.columns().latencies()),
                    bits(log.columns().latencies())
                );
                prop_assert_eq!(back.columns().actions(), log.columns().actions());
                prop_assert_eq!(back.columns().users(), log.columns().users());
                prop_assert_eq!(back.columns().classes(), log.columns().classes());
                prop_assert_eq!(back.columns().tz_offsets(), log.columns().tz_offsets());
                prop_assert_eq!(back.columns().outcomes(), log.columns().outcomes());
            }
        }
    }

    #[test]
    fn truncated_containers_always_error(
        records in prop::collection::vec(arb_record(), 1..60),
        cut_seed in any::<u64>(),
    ) {
        let log = TelemetryLog::from_records(records).unwrap();
        let bytes = container_bytes(&log, None);
        // Cut at least one byte, possibly everything.
        let cut = 1 + (cut_seed % bytes.len() as u64) as usize;
        let clipped = &bytes[..bytes.len() - cut];
        match open_bytes(clipped, "prop-trunc") {
            Err(TelemetryError::Container { .. }) => {}
            Err(other) => prop_assert!(false, "wrong error type: {other:?}"),
            Ok(_) => prop_assert!(false, "truncated container must not open"),
        }
    }
}
