//! The `.asc` binary columnar container: [`ColumnStore`]'s seven columns
//! serialized verbatim, memory-mapped straight back into a [`LogView`].
//!
//! Text codecs dominate end-to-end cost at paper scale (parsing, not
//! analysis, is the bottleneck — compare the benchmark's
//! `telemetry.csv_read_ms` with its `core.*` stage times), so this module
//! provides a zero-parse on-disk format: the column vectors are written as
//! little-endian byte sections, and the reader maps the file and hands the
//! analysis stack borrowed column slices without materializing a single
//! row.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset 0   magic "ASENSCOL" (8 bytes)
//!        8   version u32            (currently 1)
//!       12   flags   u32            (bit 0: time column is sorted)
//!       16   seven column sections, each 8-byte aligned, zero-padded:
//!              time_ms i64·n · latency_ms f64·n · action u8·n · user u64·n
//!              · class u8·n · tz_offset_ms i64·n · outcome u8·n
//!        ·   optional shard time-range blocks, 32 bytes each:
//!              row_lo u64 · row_hi u64 · min_time_ms i64 · max_time_ms i64
//!      end-224  footer:
//!              row_count u64 · shard_count u64
//!              · 7 × (offset u64, len u64, checksum u64)   — column sections
//!              · (offset u64, len u64, checksum u64)       — shard section
//!              · footer_checksum u64 · footer magic "ASENSEND"
//! ```
//!
//! The footer is written last and carries a checksum of itself plus one per
//! section, so a truncated, torn, or bit-flipped file is detected at open —
//! every corruption maps to a typed [`TelemetryError::Container`], never a
//! panic (see `tests/container_corruption.rs`).
//!
//! ## mmap safety
//!
//! The reader maps files `PROT_READ`/`MAP_PRIVATE` via a minimal
//! `extern "C"` binding (no libc crate), falling back to an aligned
//! read-to-`Vec` copy when mapping fails. Reinterpreting the mapped bytes
//! as `&[i64]`/`&[f64]`/`&[u64]`/`&[u8]` is sound because every bit
//! pattern is a valid value of those types and section offsets are
//! validated 8-byte aligned before any cast. A concurrent writer mutating
//! the mapped file can therefore corrupt *values* but never memory safety;
//! the supported workflow makes even that unobservable — `.asc` files are
//! replaced atomically (write to a temp path, then rename), never rewritten
//! in place, so a mapped inode is immutable.

use std::io::{Read as _, Write};
use std::path::{Path, PathBuf};

use crate::error::TelemetryError;
use crate::log::{ColumnStore, LogView, TelemetryLog};
use crate::record::{ActionRecord, MAX_ABS_TIME_MS};
use crate::time::MS_PER_HOUR;

// The byte-level layout below assumes the in-memory representation of the
// column slices *is* the on-disk representation.
#[cfg(target_endian = "big")]
compile_error!("the .asc container codec assumes a little-endian target");

/// Leading file magic.
pub const CONTAINER_MAGIC: [u8; 8] = *b"ASENSCOL";
/// Trailing footer magic (last 8 bytes of a finalized file).
pub const FOOTER_MAGIC: [u8; 8] = *b"ASENSEND";
/// Current format version.
pub const CONTAINER_VERSION: u32 = 1;
/// Header flag: the time column is non-decreasing.
pub const FLAG_SORTED: u32 = 1;
/// Fixed header size: magic + version + flags.
pub const HEADER_LEN: usize = 16;
/// Size of one shard time-range block.
pub const SHARD_BLOCK_LEN: usize = 32;
/// Number of column sections (one per [`ColumnStore`] column).
pub const NUM_SECTIONS: usize = 7;
/// Per-row byte width of each column section, in section order.
pub const SECTION_WIDTHS: [usize; NUM_SECTIONS] = [8, 8, 1, 8, 1, 8, 1];
/// Column names, in section order (diagnostics only).
pub const SECTION_NAMES: [&str; NUM_SECTIONS] = [
    "time_ms",
    "latency_ms",
    "action",
    "user",
    "class",
    "tz_offset_ms",
    "outcome",
];
/// Fixed footer size.
pub const FOOTER_LEN: usize = FOOTER_CHECKSUM_OFFSET + 8 + 8;
/// Byte offset, within the footer, of each section's (offset, len,
/// checksum) triple.
pub const FOOTER_SECTIONS_OFFSET: usize = 16;
/// Byte offset, within the footer, of the shard section triple.
pub const FOOTER_SHARD_OFFSET: usize = FOOTER_SECTIONS_OFFSET + NUM_SECTIONS * 24;
/// Byte offset, within the footer, of the footer's own checksum (which
/// covers all footer bytes before this offset).
pub const FOOTER_CHECKSUM_OFFSET: usize = FOOTER_SHARD_OFFSET + 24;

/// Word-at-a-time FNV-style checksum over a byte section.
///
/// Each step `h = (h ^ word) * PRIME` is a bijection in both `h` and
/// `word` (the prime is odd), so flipping any single byte — data, padding
/// tail, or length marker — always changes the result. That determinism is
/// what lets the corruption tests assert "mutate one byte ⇒ typed error"
/// without enumerating hash collisions.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let word = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ word).wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        // Pad the tail into one final word; the top byte carries a length
        // marker so "short tail of zeros" differs from "no tail".
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        tail[7] = 0x80 | rem.len() as u8;
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    }
    h
}

fn corrupt(reason: impl Into<String>) -> TelemetryError {
    TelemetryError::Container {
        reason: reason.into(),
    }
}

/// Marker for column scalar types whose every bit pattern is valid, making
/// byte-slice reinterpretation sound (given alignment).
trait Pod: Copy {}
impl Pod for i64 {}
impl Pod for u64 {}
impl Pod for f64 {}
impl Pod for u8 {}

/// View a column slice as raw little-endian bytes (zero-copy; see the
/// endianness guard above).
fn col_bytes<T: Pod>(col: &[T]) -> &[u8] {
    // SAFETY: T is Pod (no padding, all bit patterns valid) and u8 has
    // alignment 1, so any &[T] reinterprets as bytes.
    unsafe { std::slice::from_raw_parts(col.as_ptr() as *const u8, std::mem::size_of_val(col)) }
}

/// View a validated byte section as a column slice. Alignment and length
/// are re-checked so corruption can only ever surface as a typed error.
fn cast_section<'a, T: Pod>(bytes: &'a [u8], name: &str) -> Result<&'a [T], TelemetryError> {
    let width = std::mem::size_of::<T>();
    if !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>()) {
        return Err(corrupt(format!("section {name} is misaligned in memory")));
    }
    if !bytes.len().is_multiple_of(width) {
        return Err(corrupt(format!(
            "section {name} byte length {} is not a multiple of {width}",
            bytes.len()
        )));
    }
    // SAFETY: alignment and length checked; every bit pattern of T is valid.
    Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, bytes.len() / width) })
}

fn align8(x: u64) -> u64 {
    (x + 7) & !7
}

/// One shard time-range block: rows `[row_lo, row_hi)` all have timestamps
/// within `[min_time_ms, max_time_ms]`, letting a reader prune whole row
/// ranges by time without touching the time column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardBlock {
    /// First row of the shard.
    pub row_lo: u64,
    /// One past the last row of the shard.
    pub row_hi: u64,
    /// Smallest timestamp in the shard, milliseconds.
    pub min_time_ms: i64,
    /// Largest timestamp in the shard, milliseconds.
    pub max_time_ms: i64,
}

fn compute_shard_blocks(times: &[i64], shard_ms: i64) -> Vec<ShardBlock> {
    let mut blocks = Vec::new();
    let mut lo = 0usize;
    while lo < times.len() {
        let bucket = times[lo].div_euclid(shard_ms);
        let mut hi = lo + 1;
        while hi < times.len() && times[hi].div_euclid(shard_ms) == bucket {
            hi += 1;
        }
        blocks.push(ShardBlock {
            row_lo: lo as u64,
            row_hi: hi as u64,
            min_time_ms: times[lo],
            max_time_ms: times[hi - 1],
        });
        lo = hi;
    }
    blocks
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serialize a log as an `.asc` container. Shard time-range blocks are
/// written when `shard_ms` is given (requires a sorted log; the interval
/// must be positive). Returns the total bytes written.
pub fn write_container<W: Write>(
    log: &TelemetryLog,
    out: &mut W,
    shard_ms: Option<i64>,
) -> Result<u64, TelemetryError> {
    let mut span = autosens_obs::Recorder::global().root("codec.write_container");
    let cols = log.columns();
    let rows = cols.len() as u64;
    let sorted = log.is_sorted();

    let shards = match shard_ms {
        None => Vec::new(),
        Some(ms) if ms <= 0 => {
            return Err(TelemetryError::InvalidRecord(format!(
                "shard interval must be positive, got {ms} ms"
            )))
        }
        Some(ms) => {
            log.view().require_sorted()?;
            compute_shard_blocks(cols.times(), ms)
        }
    };

    let sections: [&[u8]; NUM_SECTIONS] = [
        col_bytes(cols.times()),
        col_bytes(cols.latencies()),
        col_bytes(cols.actions()),
        col_bytes(cols.users()),
        col_bytes(cols.classes()),
        col_bytes(cols.tz_offsets()),
        col_bytes(cols.outcomes()),
    ];
    let mut shard_bytes = Vec::with_capacity(shards.len() * SHARD_BLOCK_LEN);
    for b in &shards {
        push_u64(&mut shard_bytes, b.row_lo);
        push_u64(&mut shard_bytes, b.row_hi);
        shard_bytes.extend_from_slice(&b.min_time_ms.to_le_bytes());
        shard_bytes.extend_from_slice(&b.max_time_ms.to_le_bytes());
    }

    // Header.
    let mut flags = 0u32;
    if sorted {
        flags |= FLAG_SORTED;
    }
    out.write_all(&CONTAINER_MAGIC)?;
    out.write_all(&CONTAINER_VERSION.to_le_bytes())?;
    out.write_all(&flags.to_le_bytes())?;

    // Sections, each aligned to 8 bytes, with their footer triples.
    let mut pos = HEADER_LEN as u64;
    let mut footer = Vec::with_capacity(FOOTER_LEN);
    push_u64(&mut footer, rows);
    push_u64(&mut footer, shards.len() as u64);
    let write_section = |out: &mut W, pos: &mut u64, bytes: &[u8], footer: &mut Vec<u8>| {
        let aligned = align8(*pos);
        if aligned > *pos {
            out.write_all(&[0u8; 8][..(aligned - *pos) as usize])?;
        }
        out.write_all(bytes)?;
        push_u64(footer, aligned);
        push_u64(footer, bytes.len() as u64);
        push_u64(footer, checksum64(bytes));
        *pos = aligned + bytes.len() as u64;
        Ok::<(), TelemetryError>(())
    };
    for bytes in sections {
        write_section(out, &mut pos, bytes, &mut footer)?;
    }
    write_section(out, &mut pos, &shard_bytes, &mut footer)?;

    // Footer: self-checksummed, magic-terminated.
    debug_assert_eq!(footer.len(), FOOTER_CHECKSUM_OFFSET);
    let footer_sum = checksum64(&footer);
    push_u64(&mut footer, footer_sum);
    footer.extend_from_slice(&FOOTER_MAGIC);
    debug_assert_eq!(footer.len(), FOOTER_LEN);
    out.write_all(&footer)?;
    out.flush()?;

    let total = pos + FOOTER_LEN as u64;
    span.field("rows", rows);
    span.field("bytes", total);
    drop(span);
    autosens_obs::MetricsRegistry::global()
        .counter(autosens_obs::names::INGEST_CONTAINERS_WRITTEN_TOTAL)
        .inc();
    Ok(total)
}

/// [`write_container`] to a file path, replacing atomically: the bytes go
/// to a `.tmp` sibling which is then renamed over `path`, so a concurrent
/// reader (or an mmap of the previous version) never observes a partially
/// written container.
pub fn write_container_file(
    log: &TelemetryLog,
    path: impl AsRef<Path>,
    shard_ms: Option<i64>,
) -> Result<u64, TelemetryError> {
    let path = path.as_ref();
    let tmp = path.with_extension("asc.tmp");
    let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
    let bytes = match write_container(log, &mut out, shard_ms) {
        Ok(b) => b,
        Err(e) => {
            drop(out);
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
    };
    drop(out);
    std::fs::rename(&tmp, path)?;
    Ok(bytes)
}

/// Whether the first bytes are the container magic (false for short reads —
/// any valid container is larger than its header).
pub fn is_container_bytes(head: &[u8]) -> bool {
    head.len() >= CONTAINER_MAGIC.len() && head[..CONTAINER_MAGIC.len()] == CONTAINER_MAGIC
}

/// Whether `path` starts with the container magic. I/O errors propagate;
/// a file shorter than the magic is simply not a container.
pub fn is_container_file(path: impl AsRef<Path>) -> std::io::Result<bool> {
    let mut head = [0u8; 8];
    let mut file = std::fs::File::open(path)?;
    let mut filled = 0usize;
    while filled < head.len() {
        match file.read(&mut head[filled..])? {
            0 => break,
            n => filled += n,
        }
    }
    Ok(is_container_bytes(&head[..filled]))
}

/// A read-only byte buffer backed by an `mmap` of the source file when the
/// platform allows it, or by an owned 8-byte-aligned copy otherwise.
pub struct Mapping {
    backing: Backing,
}

enum Backing {
    #[cfg(unix)]
    Mapped {
        ptr: *mut core::ffi::c_void,
        len: usize,
    },
    Owned {
        /// `u64` storage guarantees the 8-byte alignment the column casts
        /// need; `len` is the real byte length (the tail of the last word
        /// is padding).
        words: Vec<u64>,
        len: usize,
    },
}

#[cfg(unix)]
mod sys {
    use core::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

impl Mapping {
    /// Map `path` read-only, falling back to [`Mapping::open_copied`] if
    /// mapping fails (exotic filesystems, resource limits, non-unix).
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Mapping> {
        let path = path.as_ref();
        #[cfg(unix)]
        if let Ok(m) = Mapping::map_file(path) {
            return Ok(m);
        }
        Mapping::open_copied(path)
    }

    /// Read `path` into an owned, 8-byte-aligned buffer (no mmap).
    pub fn open_copied(path: impl AsRef<Path>) -> std::io::Result<Mapping> {
        let mut file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large"))?;
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the Vec<u64> allocation covers at least `len` bytes and
        // u8 writes need no alignment.
        let buf = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, len) };
        file.read_exact(buf)?;
        Ok(Mapping {
            backing: Backing::Owned { words, len },
        })
    }

    #[cfg(unix)]
    fn map_file(path: &Path) -> std::io::Result<Mapping> {
        use std::os::unix::io::AsRawFd;
        let file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large"))?;
        if len == 0 {
            return Ok(Mapping {
                backing: Backing::Owned {
                    words: Vec::new(),
                    len: 0,
                },
            });
        }
        // SAFETY: a fresh read-only private mapping of `len` bytes; the fd
        // may be closed after mmap returns (the mapping holds the pages).
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Mapping {
            backing: Backing::Mapped { ptr, len },
        })
    }

    /// The mapped or copied bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            // SAFETY: ptr/len came from a successful mmap that lives as
            // long as self; the mapping is read-only.
            Backing::Mapped { ptr, len } => unsafe {
                std::slice::from_raw_parts(*ptr as *const u8, *len)
            },
            // SAFETY: the Vec<u64> allocation covers `len` bytes.
            Backing::Owned { words, len } => unsafe {
                std::slice::from_raw_parts(words.as_ptr() as *const u8, *len)
            },
        }
    }

    /// Whether the buffer is an actual memory mapping (vs. an owned copy).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { .. } => true,
            Backing::Owned { .. } => false,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = &self.backing {
            // SAFETY: exactly the region mmap returned; unmap errors are
            // unactionable in drop.
            unsafe {
                sys::munmap(*ptr, *len);
            }
        }
    }
}

// SAFETY: the mapping is read-only for its whole lifetime, so sharing the
// raw pointer across threads is sound.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mapping")
            .field("len", &self.bytes().len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
}

fn read_i64(bytes: &[u8], off: usize) -> i64 {
    i64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
}

/// Raw footer fields, structurally decoded but not yet bounds-checked.
struct RawFooter {
    rows: u64,
    shard_count: u64,
    /// (offset, len, checksum) per column section, then the shard section.
    sections: [(u64, u64, u64); NUM_SECTIONS + 1],
}

/// Decode and self-validate the footer (magic + checksum). `footer` must
/// be exactly [`FOOTER_LEN`] bytes.
fn parse_footer(footer: &[u8]) -> Result<RawFooter, TelemetryError> {
    debug_assert_eq!(footer.len(), FOOTER_LEN);
    if footer[FOOTER_CHECKSUM_OFFSET + 8..] != FOOTER_MAGIC {
        return Err(corrupt(
            "footer magic missing — file truncated or not finalized",
        ));
    }
    let stored = read_u64(footer, FOOTER_CHECKSUM_OFFSET);
    let actual = checksum64(&footer[..FOOTER_CHECKSUM_OFFSET]);
    if stored != actual {
        return Err(corrupt(format!(
            "footer checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }
    let mut sections = [(0u64, 0u64, 0u64); NUM_SECTIONS + 1];
    for (i, s) in sections.iter_mut().enumerate() {
        let base = FOOTER_SECTIONS_OFFSET + i * 24;
        *s = (
            read_u64(footer, base),
            read_u64(footer, base + 8),
            read_u64(footer, base + 16),
        );
    }
    Ok(RawFooter {
        rows: read_u64(footer, 0),
        shard_count: read_u64(footer, 8),
        sections,
    })
}

/// Validate the 16-byte header (magic, version, flags); returns the flags.
fn parse_header(head: &[u8]) -> Result<u32, TelemetryError> {
    if head[..8] != CONTAINER_MAGIC {
        return Err(corrupt(format!(
            "bad magic {:?} (expected {:?})",
            &head[..8],
            CONTAINER_MAGIC
        )));
    }
    let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
    if version != CONTAINER_VERSION {
        return Err(corrupt(format!(
            "unsupported container version {version} (expected {CONTAINER_VERSION})"
        )));
    }
    let flags = u32::from_le_bytes(head[12..16].try_into().expect("4 bytes"));
    if flags & !FLAG_SORTED != 0 {
        return Err(corrupt(format!("unknown flag bits {flags:#010x}")));
    }
    Ok(flags)
}

/// Byte range of section `i` (named `name`, `width` bytes per row), after
/// checking the footer triple against the file geometry.
fn section_range(
    bytes: &[u8],
    name: &str,
    triple: (u64, u64, u64),
    rows: u64,
    width: usize,
) -> Result<std::ops::Range<usize>, TelemetryError> {
    let (off, len, _) = triple;
    let expected = rows.checked_mul(width as u64).ok_or_else(|| {
        corrupt(format!(
            "row count {rows} overflows the {name} section length"
        ))
    })?;
    if len != expected {
        return Err(corrupt(format!(
            "section {name} length mismatch: expected {expected} bytes for {rows} rows, got {len}"
        )));
    }
    if off < HEADER_LEN as u64 || off % 8 != 0 {
        return Err(corrupt(format!(
            "section {name} offset {off} is misaligned or overlaps the header"
        )));
    }
    let data_end = (bytes.len() - FOOTER_LEN) as u64;
    let end = off
        .checked_add(len)
        .filter(|&e| e <= data_end)
        .ok_or_else(|| {
            corrupt(format!(
            "section {name} (offset {off}, {len} bytes) runs past the data area ({data_end} bytes)"
        ))
        })?;
    Ok(off as usize..end as usize)
}

/// A validated, memory-mapped (or copied) `.asc` container, ready to serve
/// zero-copy [`LogView`]s of its columns.
#[derive(Debug)]
pub struct MappedLog {
    mapping: Mapping,
    rows: usize,
    sorted: bool,
    sections: [std::ops::Range<usize>; NUM_SECTIONS],
    shards: Vec<ShardBlock>,
}

impl MappedLog {
    /// Open and fully validate a container, preferring mmap. All structural
    /// checks (magic, version, footer, section geometry, checksums) and
    /// semantic checks (enum codes, latency/timezone ranges, sorted flag)
    /// run here, so every later access is infallible.
    pub fn open(path: impl AsRef<Path>) -> Result<MappedLog, TelemetryError> {
        MappedLog::from_mapping(Mapping::open(path)?)
    }

    /// [`MappedLog::open`] forced onto the read-to-`Vec` fallback path.
    pub fn open_copied(path: impl AsRef<Path>) -> Result<MappedLog, TelemetryError> {
        MappedLog::from_mapping(Mapping::open_copied(path)?)
    }

    fn from_mapping(mapping: Mapping) -> Result<MappedLog, TelemetryError> {
        let mut span = autosens_obs::Recorder::global().root("codec.read_container");
        let bytes = mapping.bytes();
        if bytes.len() < HEADER_LEN + FOOTER_LEN {
            return Err(corrupt(format!(
                "container truncated: {} bytes is below the {}-byte minimum",
                bytes.len(),
                HEADER_LEN + FOOTER_LEN
            )));
        }
        let flags = parse_header(&bytes[..HEADER_LEN])?;
        let sorted = flags & FLAG_SORTED != 0;
        let footer = parse_footer(&bytes[bytes.len() - FOOTER_LEN..])?;

        let rows = usize::try_from(footer.rows)
            .map_err(|_| corrupt(format!("row count {} does not fit in memory", footer.rows)))?;
        let mut sections: [std::ops::Range<usize>; NUM_SECTIONS] = Default::default();
        for i in 0..NUM_SECTIONS {
            let range = section_range(
                bytes,
                SECTION_NAMES[i],
                footer.sections[i],
                footer.rows,
                SECTION_WIDTHS[i],
            )?;
            let actual = checksum64(&bytes[range.clone()]);
            if actual != footer.sections[i].2 {
                return Err(corrupt(format!(
                    "section {} checksum mismatch: stored {:#018x}, computed {actual:#018x}",
                    SECTION_NAMES[i], footer.sections[i].2
                )));
            }
            sections[i] = range;
        }
        let shard_range = section_range(
            bytes,
            "shards",
            footer.sections[NUM_SECTIONS],
            footer.shard_count,
            SHARD_BLOCK_LEN,
        )?;
        let shard_sum = checksum64(&bytes[shard_range.clone()]);
        if shard_sum != footer.sections[NUM_SECTIONS].2 {
            return Err(corrupt(format!(
                "shard section checksum mismatch: stored {:#018x}, computed {shard_sum:#018x}",
                footer.sections[NUM_SECTIONS].2
            )));
        }

        let log = MappedLog {
            rows,
            sorted,
            sections,
            shards: Vec::new(),
            mapping,
        };
        log.validate_columns()?;
        let shards = log.parse_shards(shard_range)?;
        let log = MappedLog { shards, ..log };

        span.field("rows", rows);
        span.field("bytes", log.mapping.bytes().len());
        span.field("mapped", u64::from(log.mapping.is_mapped()));
        drop(span);
        let metrics = autosens_obs::MetricsRegistry::global();
        metrics
            .counter(autosens_obs::names::INGEST_ROWS_TOTAL)
            .add(rows as u64);
        metrics
            .counter(autosens_obs::names::INGEST_BYTES_TOTAL)
            .add(log.mapping.bytes().len() as u64);
        metrics
            .counter(autosens_obs::names::INGEST_CONTAINERS_TOTAL)
            .inc();
        Ok(log)
    }

    /// Semantic column validation: the same invariants
    /// [`ActionRecord::validate`] enforces at the text-codec boundary, plus
    /// enum-code ranges (an out-of-range code would panic in `from_code`)
    /// and the sorted flag's claim about the time column.
    fn validate_columns(&self) -> Result<(), TelemetryError> {
        let (times, latencies, actions, _, classes, tzs, outcomes) = self.columns()?;
        for (i, &l) in latencies.iter().enumerate() {
            if !l.is_finite() || l < 0.0 {
                return Err(corrupt(format!(
                    "latency column row {i}: must be finite and >= 0, got {l}"
                )));
            }
        }
        let enum_cols: [(&str, &[u8], u8); 3] = [
            ("action", actions, 4),
            ("class", classes, 1),
            ("outcome", outcomes, 1),
        ];
        for (name, col, max) in enum_cols {
            if let Some(i) = col.iter().position(|&c| c > max) {
                return Err(corrupt(format!(
                    "{name} column row {i} holds invalid code {} (max {max})",
                    col[i]
                )));
            }
        }
        if let Some(i) = times
            .iter()
            .position(|&t| t.unsigned_abs() > MAX_ABS_TIME_MS as u64)
        {
            return Err(corrupt(format!(
                "time column row {i} is outside +/-2^40 ms: {} ms",
                times[i]
            )));
        }
        let fourteen_hours = 14 * MS_PER_HOUR;
        if let Some(i) = tzs.iter().position(|&t| t.abs() > fourteen_hours) {
            return Err(corrupt(format!(
                "tz_offset column row {i} is outside +/-14h: {} ms",
                tzs[i]
            )));
        }
        if self.sorted {
            if let Some(i) = (1..times.len()).find(|&i| times[i] < times[i - 1]) {
                return Err(corrupt(format!(
                    "sorted flag set but the time column decreases at row {i}"
                )));
            }
        }
        Ok(())
    }

    fn parse_shards(
        &self,
        range: std::ops::Range<usize>,
    ) -> Result<Vec<ShardBlock>, TelemetryError> {
        let bytes = &self.mapping.bytes()[range];
        let mut shards = Vec::with_capacity(bytes.len() / SHARD_BLOCK_LEN);
        let mut prev_hi = 0u64;
        for (i, block) in bytes.chunks_exact(SHARD_BLOCK_LEN).enumerate() {
            let b = ShardBlock {
                row_lo: read_u64(block, 0),
                row_hi: read_u64(block, 8),
                min_time_ms: read_i64(block, 16),
                max_time_ms: read_i64(block, 24),
            };
            if b.row_lo < prev_hi || b.row_lo >= b.row_hi || b.row_hi > self.rows as u64 {
                return Err(corrupt(format!(
                    "shard block {i} rows [{}, {}) out of order or out of range (rows {}, previous end {prev_hi})",
                    b.row_lo, b.row_hi, self.rows
                )));
            }
            if b.min_time_ms > b.max_time_ms {
                return Err(corrupt(format!(
                    "shard block {i} time range inverted: [{}, {}]",
                    b.min_time_ms, b.max_time_ms
                )));
            }
            prev_hi = b.row_hi;
            shards.push(b);
        }
        Ok(shards)
    }

    #[allow(clippy::type_complexity)]
    fn columns(
        &self,
    ) -> Result<(&[i64], &[f64], &[u8], &[u64], &[u8], &[i64], &[u8]), TelemetryError> {
        let bytes = self.mapping.bytes();
        Ok((
            cast_section(&bytes[self.sections[0].clone()], SECTION_NAMES[0])?,
            cast_section(&bytes[self.sections[1].clone()], SECTION_NAMES[1])?,
            cast_section(&bytes[self.sections[2].clone()], SECTION_NAMES[2])?,
            cast_section(&bytes[self.sections[3].clone()], SECTION_NAMES[3])?,
            cast_section(&bytes[self.sections[4].clone()], SECTION_NAMES[4])?,
            cast_section(&bytes[self.sections[5].clone()], SECTION_NAMES[5])?,
            cast_section(&bytes[self.sections[6].clone()], SECTION_NAMES[6])?,
        ))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the container holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Whether the time column is sorted (validated at open).
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Whether the bytes are served by an actual memory mapping.
    pub fn is_mapped(&self) -> bool {
        self.mapping.is_mapped()
    }

    /// The shard time-range blocks (empty if the writer omitted them).
    pub fn shard_blocks(&self) -> &[ShardBlock] {
        &self.shards
    }

    /// The zero-copy view over the mapped columns — the zero-parse ingest
    /// path. Building it is O(1); no row is materialized.
    pub fn view(&self) -> LogView<'_> {
        let (times, latencies, actions, users, classes, tzs, outcomes) =
            self.columns().expect("sections validated at open");
        LogView::from_columns(
            times,
            latencies,
            actions,
            users,
            classes,
            tzs,
            outcomes,
            self.sorted,
        )
        .expect("equal column lengths validated at open")
    }

    /// Copy the columns into an owned [`TelemetryLog`] (for callers that
    /// need ownership or mutation; analysis should prefer [`Self::view`]).
    pub fn to_log(&self) -> Result<TelemetryLog, TelemetryError> {
        let (times, latencies, actions, users, classes, tzs, outcomes) = self.columns()?;
        let cols = ColumnStore::from_vecs(
            times.to_vec(),
            latencies.to_vec(),
            actions.to_vec(),
            users.to_vec(),
            classes.to_vec(),
            tzs.to_vec(),
            outcomes.to_vec(),
        )?;
        Ok(TelemetryLog::from_columns(cols))
    }
}

/// Read just enough of a container to learn its row count: header, then
/// the trailing footer (self-validated). Much cheaper than a full open —
/// no section checksums are verified — so suitable for polling a growing
/// source or pre-checking a checkpoint offset.
pub fn peek_row_count(path: impl AsRef<Path>) -> Result<u64, TelemetryError> {
    use std::io::{Seek, SeekFrom};
    let mut file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    if len < (HEADER_LEN + FOOTER_LEN) as u64 {
        return Err(corrupt(format!(
            "container truncated: {len} bytes is below the {}-byte minimum",
            HEADER_LEN + FOOTER_LEN
        )));
    }
    let mut head = [0u8; HEADER_LEN];
    file.read_exact(&mut head)?;
    parse_header(&head)?;
    let mut footer = [0u8; FOOTER_LEN];
    file.seek(SeekFrom::Start(len - FOOTER_LEN as u64))?;
    file.read_exact(&mut footer)?;
    Ok(parse_footer(&footer)?.rows)
}

/// An append-aware reader for a *growing* `.asc` source — the binary
/// counterpart of [`crate::codec::TailReader`], with **row** offsets where
/// the text tailer uses byte offsets. Growth means atomic replacement
/// (tmp + rename, as [`write_container_file`] does) with the previous rows
/// a prefix of the new ones; each poll returns the rows appended since the
/// last, materialized in row order.
///
/// The reader holds no mapping between polls, only the row count consumed
/// so far, which [`ContainerTailReader::offset`] exposes for checkpointing
/// (always row-aligned — the format has no notion of a partial row).
#[derive(Debug)]
pub struct ContainerTailReader {
    path: PathBuf,
    rows_seen: u64,
}

impl ContainerTailReader {
    /// Tail a container from its first row.
    pub fn new(path: impl Into<PathBuf>) -> ContainerTailReader {
        ContainerTailReader {
            path: path.into(),
            rows_seen: 0,
        }
    }

    /// Resume tailing at a checkpointed row offset (previously returned by
    /// [`ContainerTailReader::offset`]).
    pub fn resume(path: impl Into<PathBuf>, rows: u64) -> ContainerTailReader {
        ContainerTailReader {
            path: path.into(),
            rows_seen: rows,
        }
    }

    /// Rows consumed so far — the checkpoint coordinate.
    pub fn offset(&self) -> u64 {
        self.rows_seen
    }

    /// Return every row appended since the last poll (empty when the
    /// source has not grown). A source whose row count shrank below the
    /// consumed offset was truncated or replaced mid-stream — a hard
    /// error, matching the text tailer's contract.
    pub fn poll(&mut self) -> Result<Vec<ActionRecord>, TelemetryError> {
        autosens_obs::MetricsRegistry::global()
            .counter(autosens_obs::names::INGEST_TAIL_POLLS_TOTAL)
            .inc();
        let shrank = |rows: u64, seen: u64| {
            corrupt(format!(
                "container shrank to {rows} rows below checkpoint offset {seen} — \
                 truncated or replaced mid-stream"
            ))
        };
        // Footer-only peek first: the common "no growth" poll skips the
        // full checksum validation of an open.
        let rows_now = peek_row_count(&self.path)?;
        if rows_now < self.rows_seen {
            return Err(shrank(rows_now, self.rows_seen));
        }
        if rows_now == self.rows_seen {
            return Ok(Vec::new());
        }
        let log = MappedLog::open(&self.path)?;
        // The file may have been replaced between the peek and the open.
        if (log.len() as u64) < self.rows_seen {
            return Err(shrank(log.len() as u64, self.rows_seen));
        }
        let view = log.view();
        let batch: Vec<ActionRecord> = (self.rows_seen as usize..log.len())
            .map(|i| view.get(i))
            .collect();
        self.rows_seen = log.len() as u64;
        autosens_obs::MetricsRegistry::global()
            .counter("autosens_telemetry_records_read_total")
            .add(batch.len() as u64);
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ActionType, Outcome, UserClass, UserId};
    use crate::time::SimTime;

    fn rec(t_ms: i64, latency: f64) -> ActionRecord {
        ActionRecord {
            time: SimTime(t_ms),
            action: ActionType::Search,
            latency_ms: latency,
            user: UserId(42),
            class: UserClass::Consumer,
            tz_offset_ms: -18_000_000,
            outcome: Outcome::Success,
        }
    }

    fn sample_log(n: i64) -> TelemetryLog {
        TelemetryLog::from_records(
            (0..n)
                .map(|i| {
                    let mut r = rec(i * 1000, (i % 17) as f64 + 0.5);
                    r.user = UserId(i as u64 % 5);
                    if i % 3 == 0 {
                        r.action = ActionType::SelectMail;
                        r.class = UserClass::Business;
                    }
                    if i % 11 == 0 {
                        r.outcome = Outcome::Error;
                    }
                    r
                })
                .collect(),
        )
        .unwrap()
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("autosens-container-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_mapped_and_copied() {
        let log = sample_log(500);
        let path = tmp_path("roundtrip.asc");
        write_container_file(&log, &path, Some(10_000)).unwrap();
        for mapped in [
            MappedLog::open(&path).unwrap(),
            MappedLog::open_copied(&path).unwrap(),
        ] {
            assert_eq!(mapped.len(), 500);
            assert!(mapped.is_sorted());
            assert_eq!(mapped.to_log().unwrap().columns(), log.columns());
            let view = mapped.view();
            assert_eq!(view.len(), log.len());
            assert_eq!(view.get(123), log.view().get(123));
        }
        assert!(MappedLog::open_copied(&path).unwrap().len() == 500);
        assert!(!MappedLog::open_copied(&path).unwrap().is_mapped());
    }

    #[test]
    fn empty_log_roundtrips() {
        let path = tmp_path("empty.asc");
        write_container_file(&TelemetryLog::new(), &path, None).unwrap();
        let mapped = MappedLog::open(&path).unwrap();
        assert!(mapped.is_empty());
        assert!(mapped.shard_blocks().is_empty());
        assert_eq!(mapped.view().len(), 0);
        assert_eq!(peek_row_count(&path).unwrap(), 0);
    }

    #[test]
    fn shard_blocks_partition_rows_by_time_bucket() {
        let log = sample_log(100); // times 0..100_000 ms
        let path = tmp_path("shards.asc");
        write_container_file(&log, &path, Some(25_000)).unwrap();
        let mapped = MappedLog::open(&path).unwrap();
        let blocks = mapped.shard_blocks();
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks[0].row_lo, 0);
        assert_eq!(blocks.last().unwrap().row_hi, 100);
        for w in blocks.windows(2) {
            assert_eq!(w[0].row_hi, w[1].row_lo);
            assert!(w[0].max_time_ms < w[1].min_time_ms);
        }
        for b in blocks {
            assert_eq!(b.min_time_ms, log.columns().times()[b.row_lo as usize]);
            assert_eq!(b.max_time_ms, log.columns().times()[b.row_hi as usize - 1]);
        }
        // Bad shard interval is a typed error.
        let mut sink = Vec::new();
        assert!(write_container(&log, &mut sink, Some(0)).is_err());
    }

    #[test]
    fn detection_by_magic() {
        let path = tmp_path("detect.asc");
        write_container_file(&sample_log(3), &path, None).unwrap();
        assert!(is_container_file(&path).unwrap());
        let text = tmp_path("detect.csv");
        std::fs::write(&text, "time_ms,action\n").unwrap();
        assert!(!is_container_file(&text).unwrap());
        let short = tmp_path("short.bin");
        std::fs::write(&short, b"AS").unwrap();
        assert!(!is_container_file(&short).unwrap());
        assert!(is_container_file(tmp_path("missing.asc")).is_err());
    }

    #[test]
    fn peek_matches_full_open() {
        let path = tmp_path("peek.asc");
        write_container_file(&sample_log(77), &path, None).unwrap();
        assert_eq!(peek_row_count(&path).unwrap(), 77);
    }

    #[test]
    fn tail_reader_follows_growth_row_aligned() {
        let path = tmp_path("tail.asc");
        let full = sample_log(60);
        let half = TelemetryLog::from_records(full.to_records()[..25].to_vec()).unwrap();
        write_container_file(&half, &path, None).unwrap();
        let mut tail = ContainerTailReader::new(&path);
        let batch = tail.poll().unwrap();
        assert_eq!(batch.len(), 25);
        assert_eq!(tail.offset(), 25);
        assert!(tail.poll().unwrap().is_empty());

        // Grow the source (atomic replace) and poll the delta.
        write_container_file(&full, &path, None).unwrap();
        let batch = tail.poll().unwrap();
        assert_eq!(batch.len(), 35);
        assert_eq!(batch, full.to_records()[25..].to_vec());
        assert_eq!(tail.offset(), 60);

        // Resume from a checkpointed row offset.
        let mut resumed = ContainerTailReader::resume(&path, 25);
        assert_eq!(resumed.poll().unwrap().len(), 35);

        // A shrunken source is a hard error.
        write_container_file(&half, &path, None).unwrap();
        let err = ContainerTailReader::resume(&path, 60).poll().unwrap_err();
        assert!(matches!(err, TelemetryError::Container { .. }));
        assert!(err.to_string().contains("shrank"));
    }

    #[test]
    fn checksum_detects_single_byte_flips() {
        let data: Vec<u8> = (0..100u8).collect();
        let base = checksum64(&data);
        for i in 0..data.len() {
            let mut flipped = data.clone();
            flipped[i] ^= 0x01;
            assert_ne!(checksum64(&flipped), base, "flip at byte {i} undetected");
        }
        assert_ne!(checksum64(&data[..99]), base);
        assert_ne!(checksum64(b""), checksum64(&[0u8]));
        assert_ne!(checksum64(&[0u8]), checksum64(&[0u8, 0u8]));
    }

    #[test]
    fn unsorted_log_writes_unsorted_container() {
        let mut log = TelemetryLog::new();
        log.push(rec(2000, 1.0)).unwrap();
        log.push(rec(1000, 2.0)).unwrap();
        assert!(!log.is_sorted());
        // Shard blocks require a sorted log.
        let mut sink = Vec::new();
        assert!(matches!(
            write_container(&log, &mut sink, Some(1000)),
            Err(TelemetryError::Unsorted { .. })
        ));
        let path = tmp_path("unsorted.asc");
        write_container_file(&log, &path, None).unwrap();
        let mapped = MappedLog::open(&path).unwrap();
        assert!(!mapped.is_sorted());
        assert_eq!(mapped.view().time_at(0), 2000);
        // Materializing restores the log invariant (sorts).
        let back = mapped.to_log().unwrap();
        assert!(back.is_sorted());
        assert_eq!(back.columns().times(), &[1000, 2000]);
    }
}
