//! CSV and JSONL import/export for telemetry logs.
//!
//! These codecs are the bring-your-own-data surface of the library: a
//! downstream operator exports their web-access logs into either format and
//! feeds them to the analysis CLI. Parsing is strict — a malformed row is an
//! error carrying its line number, not a silent skip — with an explicit
//! lenient mode that collects per-row errors instead of failing fast.

use std::io::{BufRead, BufReader, Read, Write};

use crate::error::TelemetryError;
use crate::log::TelemetryLog;
use crate::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
use crate::time::SimTime;

/// The CSV header written and expected by this codec.
pub const CSV_HEADER: &str = "time_ms,action,latency_ms,user,class,tz_offset_ms,outcome";

/// Write a log as CSV (with header).
pub fn write_csv<W: Write>(log: &TelemetryLog, out: &mut W) -> Result<(), TelemetryError> {
    writeln!(out, "{CSV_HEADER}")?;
    for r in log.iter() {
        writeln!(
            out,
            "{},{},{},{},{},{},{}",
            r.time.millis(),
            r.action.name(),
            r.latency_ms,
            r.user.0,
            r.class.name(),
            r.tz_offset_ms,
            r.outcome.name()
        )?;
    }
    Ok(())
}

/// Default cap on errors retained by the lenient readers. A pathological
/// input (e.g. a multi-gigabyte file in the wrong format) would otherwise
/// balloon memory with one error per line; past the cap, errors are only
/// counted, not stored.
pub const DEFAULT_LENIENT_ERROR_CAP: usize = 1_000;

/// Errors collected by a lenient read, bounded in memory by a cap.
///
/// Behaves like a `Vec<TelemetryError>` for the common cases (`len`,
/// `is_empty`, indexing via [`Self::errors`], iteration) but stops *storing*
/// errors past the configured cap; [`Self::overflow`] counts the discarded
/// remainder and [`Self::total`] is the true malformed-row count.
#[derive(Debug, Default)]
pub struct LenientErrors {
    errors: Vec<TelemetryError>,
    overflow: usize,
    cap: usize,
}

impl LenientErrors {
    fn with_cap(cap: usize) -> LenientErrors {
        LenientErrors {
            errors: Vec::new(),
            overflow: 0,
            cap,
        }
    }

    fn record(&mut self, e: TelemetryError) {
        if self.errors.len() < self.cap {
            self.errors.push(e);
        } else {
            self.overflow += 1;
        }
    }

    /// Number of *stored* errors (capped).
    pub fn len(&self) -> usize {
        self.errors.len()
    }

    /// Whether any error occurred at all (stored or overflowed).
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty() && self.overflow == 0
    }

    /// The stored errors, oldest first.
    pub fn errors(&self) -> &[TelemetryError] {
        &self.errors
    }

    /// Iterate the stored errors.
    pub fn iter(&self) -> impl Iterator<Item = &TelemetryError> {
        self.errors.iter()
    }

    /// How many errors were discarded after the cap filled.
    pub fn overflow(&self) -> usize {
        self.overflow
    }

    /// Total malformed rows encountered: stored plus overflowed.
    pub fn total(&self) -> usize {
        self.errors.len() + self.overflow
    }
}

impl<'a> IntoIterator for &'a LenientErrors {
    type Item = &'a TelemetryError;
    type IntoIter = std::slice::Iter<'a, TelemetryError>;

    fn into_iter(self) -> Self::IntoIter {
        self.errors.iter()
    }
}

/// Parsing strictness for the row-oriented readers.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Fail on the first malformed row.
    Strict,
    /// Skip malformed rows, storing at most this many errors.
    Lenient(usize),
}

/// Read a CSV log written by [`write_csv`]. Fails on the first malformed row.
pub fn read_csv<R: Read>(input: R) -> Result<TelemetryLog, TelemetryError> {
    let (log, errors) = read_csv_inner(input, Mode::Strict)?;
    debug_assert!(errors.is_empty(), "strict mode fails fast");
    Ok(log)
}

/// Read a CSV log, skipping malformed rows and returning them as errors
/// alongside the successfully parsed log. At most
/// [`DEFAULT_LENIENT_ERROR_CAP`] errors are stored; see
/// [`read_csv_lenient_capped`] to choose the cap.
pub fn read_csv_lenient<R: Read>(
    input: R,
) -> Result<(TelemetryLog, LenientErrors), TelemetryError> {
    read_csv_inner(input, Mode::Lenient(DEFAULT_LENIENT_ERROR_CAP))
}

/// [`read_csv_lenient`] with an explicit cap on stored errors.
pub fn read_csv_lenient_capped<R: Read>(
    input: R,
    cap: usize,
) -> Result<(TelemetryLog, LenientErrors), TelemetryError> {
    read_csv_inner(input, Mode::Lenient(cap))
}

/// Record one codec pass on the global recorder: close the `codec.*` span
/// with its record/error fields and bump the records-read / lenient-error
/// counters (`autosens_telemetry_records_read_total`,
/// `autosens_telemetry_codec_lenient_errors_total`).
fn observe_read(mut span: autosens_obs::Span, log: &TelemetryLog, errors: &LenientErrors) {
    span.field("records", log.len());
    span.field("lenient_errors", errors.total());
    drop(span);
    let metrics = autosens_obs::MetricsRegistry::global();
    metrics
        .counter("autosens_telemetry_records_read_total")
        .add(log.len() as u64);
    metrics
        .counter("autosens_telemetry_codec_lenient_errors_total")
        .add(errors.total() as u64);
}

fn read_csv_inner<R: Read>(
    input: R,
    mode: Mode,
) -> Result<(TelemetryLog, LenientErrors), TelemetryError> {
    let span = autosens_obs::Recorder::global().root("codec.read_csv");
    let reader = BufReader::new(input);
    let mut log = TelemetryLog::new();
    let mut errors = LenientErrors::with_cap(match mode {
        Mode::Strict => 0,
        Mode::Lenient(cap) => cap,
    });
    let mut lines = reader.lines().enumerate();

    // Header.
    match lines.next() {
        Some((_, Ok(h))) if h.trim() == CSV_HEADER => {}
        Some((_, Ok(h))) => {
            return Err(TelemetryError::Malformed {
                line: 1,
                reason: format!("unexpected header: {h:?} (expected {CSV_HEADER:?})"),
            })
        }
        Some((_, Err(e))) => return Err(e.into()),
        None => {
            return Err(TelemetryError::Malformed {
                line: 1,
                reason: "empty input (missing header)".into(),
            })
        }
    }

    for (idx, line) in lines {
        let line = line?;
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        match parse_csv_row(&line, lineno).and_then(|r| {
            r.validate().map_err(|e| TelemetryError::Malformed {
                line: lineno,
                reason: e.to_string(),
            })?;
            Ok(r)
        }) {
            Ok(record) => {
                // Already validated; push cannot fail.
                log.push(record).expect("record validated above");
            }
            Err(e) => {
                if matches!(mode, Mode::Strict) {
                    return Err(e);
                }
                errors.record(e);
            }
        }
    }
    log.ensure_sorted();
    observe_read(span, &log, &errors);
    Ok((log, errors))
}

fn parse_csv_row(line: &str, lineno: usize) -> Result<ActionRecord, TelemetryError> {
    let malformed = |reason: String| TelemetryError::Malformed {
        line: lineno,
        reason,
    };
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 7 {
        return Err(malformed(format!(
            "expected 7 fields, got {}",
            fields.len()
        )));
    }
    let time_ms: i64 = fields[0]
        .trim()
        .parse()
        .map_err(|_| malformed(format!("bad time_ms: {:?}", fields[0])))?;
    let action = ActionType::parse(fields[1].trim())
        .ok_or_else(|| malformed(format!("bad action: {:?}", fields[1])))?;
    let latency_ms: f64 = fields[2]
        .trim()
        .parse()
        .map_err(|_| malformed(format!("bad latency_ms: {:?}", fields[2])))?;
    let user: u64 = fields[3]
        .trim()
        .parse()
        .map_err(|_| malformed(format!("bad user: {:?}", fields[3])))?;
    let class = UserClass::parse(fields[4].trim())
        .ok_or_else(|| malformed(format!("bad class: {:?}", fields[4])))?;
    let tz_offset_ms: i64 = fields[5]
        .trim()
        .parse()
        .map_err(|_| malformed(format!("bad tz_offset_ms: {:?}", fields[5])))?;
    let outcome = Outcome::parse(fields[6].trim())
        .ok_or_else(|| malformed(format!("bad outcome: {:?}", fields[6])))?;
    Ok(ActionRecord {
        time: SimTime(time_ms),
        action,
        latency_ms,
        user: UserId(user),
        class,
        tz_offset_ms,
        outcome,
    })
}

/// Write a log as JSON Lines (one serde-serialized record per line).
pub fn write_jsonl<W: Write>(log: &TelemetryLog, out: &mut W) -> Result<(), TelemetryError> {
    for r in log.iter() {
        let line = serde_json::to_string(&r)
            .map_err(|e| TelemetryError::InvalidRecord(format!("serialization failed: {e}")))?;
        writeln!(out, "{line}")?;
    }
    Ok(())
}

/// Read a JSONL log. Fails on the first malformed line.
pub fn read_jsonl<R: Read>(input: R) -> Result<TelemetryLog, TelemetryError> {
    let (log, errors) = read_jsonl_inner(input, Mode::Strict)?;
    debug_assert!(errors.is_empty(), "strict mode fails fast");
    Ok(log)
}

/// Read a JSONL log, skipping malformed lines and returning them as errors
/// alongside the successfully parsed log. At most
/// [`DEFAULT_LENIENT_ERROR_CAP`] errors are stored; see
/// [`read_jsonl_lenient_capped`] to choose the cap.
pub fn read_jsonl_lenient<R: Read>(
    input: R,
) -> Result<(TelemetryLog, LenientErrors), TelemetryError> {
    read_jsonl_inner(input, Mode::Lenient(DEFAULT_LENIENT_ERROR_CAP))
}

/// [`read_jsonl_lenient`] with an explicit cap on stored errors.
pub fn read_jsonl_lenient_capped<R: Read>(
    input: R,
    cap: usize,
) -> Result<(TelemetryLog, LenientErrors), TelemetryError> {
    read_jsonl_inner(input, Mode::Lenient(cap))
}

fn read_jsonl_inner<R: Read>(
    input: R,
    mode: Mode,
) -> Result<(TelemetryLog, LenientErrors), TelemetryError> {
    let span = autosens_obs::Recorder::global().root("codec.read_jsonl");
    let reader = BufReader::new(input);
    let mut log = TelemetryLog::new();
    let mut errors = LenientErrors::with_cap(match mode {
        Mode::Strict => 0,
        Mode::Lenient(cap) => cap,
    });
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let parsed = serde_json::from_str::<ActionRecord>(&line)
            .map_err(|e| TelemetryError::Malformed {
                line: lineno,
                reason: e.to_string(),
            })
            .and_then(|r| {
                r.validate().map_err(|e| TelemetryError::Malformed {
                    line: lineno,
                    reason: e.to_string(),
                })?;
                Ok(r)
            });
        match parsed {
            Ok(record) => {
                // Already validated; push cannot fail.
                log.push(record).expect("record validated above");
            }
            Err(e) => {
                if matches!(mode, Mode::Strict) {
                    return Err(e);
                }
                errors.record(e);
            }
        }
    }
    log.ensure_sorted();
    observe_read(span, &log, &errors);
    Ok((log, errors))
}

/// Format read by a [`TailReader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailFormat {
    /// The [`CSV_HEADER`]-prefixed CSV written by [`write_csv`].
    Csv,
    /// JSON Lines as written by [`write_jsonl`].
    Jsonl,
}

/// An append-aware reader that tails a growing telemetry file.
///
/// Each [`TailReader::poll`] reads everything appended since the previous
/// poll and parses only **complete** lines — a partially written trailing
/// line is left in the file (the byte offset stops at the last newline)
/// and picked up whole on a later poll, so a writer mid-`write` never
/// produces a spurious parse error. The reader holds no file handle
/// between polls and keeps only a byte offset, which [`TailReader::offset`]
/// exposes for checkpointing; [`TailReader::resume`] reconstructs the
/// reader at that offset after a restart.
///
/// Records are returned in file (arrival) order, unsorted — a streaming
/// consumer does its own time ordering. Malformed rows are collected as
/// capped [`LenientErrors`] rather than aborting the tail; I/O failures
/// and file truncation are hard errors.
#[derive(Debug)]
pub struct TailReader {
    path: std::path::PathBuf,
    format: TailFormat,
    offset: u64,
    /// Lines fully consumed so far (header included), for error numbering.
    /// Counts restart at 0 on [`TailReader::resume`] — offsets, not line
    /// numbers, are the durable coordinate.
    lines_seen: usize,
}

impl TailReader {
    /// Tail a file from its beginning (the CSV header, if any, is consumed
    /// and validated by the first poll that sees a complete first line).
    pub fn new(path: impl Into<std::path::PathBuf>, format: TailFormat) -> TailReader {
        TailReader {
            path: path.into(),
            format,
            offset: 0,
            lines_seen: 0,
        }
    }

    /// Resume tailing at a checkpointed byte offset (an offset previously
    /// returned by [`TailReader::offset`], which always falls on a line
    /// boundary).
    pub fn resume(
        path: impl Into<std::path::PathBuf>,
        format: TailFormat,
        offset: u64,
    ) -> TailReader {
        TailReader {
            path: path.into(),
            format,
            offset,
            lines_seen: 0,
        }
    }

    /// The byte offset of the first unconsumed byte — always a line
    /// boundary, safe to persist in a checkpoint.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Read and parse every complete line appended since the last poll.
    /// Returns an empty batch (not an error) when nothing new is ready.
    pub fn poll(&mut self) -> Result<(Vec<ActionRecord>, LenientErrors), TelemetryError> {
        use std::io::Seek;
        let mut errors = LenientErrors::with_cap(DEFAULT_LENIENT_ERROR_CAP);
        let mut file = std::fs::File::open(&self.path)?;
        let len = file.metadata()?.len();
        if len < self.offset {
            return Err(TelemetryError::Malformed {
                line: self.lines_seen,
                reason: format!(
                    "tailed file shrank to {len} bytes below checkpoint offset {} — \
                     truncated or replaced mid-stream",
                    self.offset
                ),
            });
        }
        if len == self.offset {
            return Ok((Vec::new(), errors));
        }
        file.seek(std::io::SeekFrom::Start(self.offset))?;
        let mut buf = Vec::with_capacity((len - self.offset) as usize);
        file.take(len - self.offset).read_to_end(&mut buf)?;
        // Consume up to the last newline only; a trailing partial line
        // stays in the file for the next poll.
        let Some(last_nl) = buf.iter().rposition(|&b| b == b'\n') else {
            return Ok((Vec::new(), errors));
        };
        let text =
            std::str::from_utf8(&buf[..=last_nl]).map_err(|e| TelemetryError::Malformed {
                line: self.lines_seen + 1,
                reason: format!("tailed bytes are not UTF-8: {e}"),
            })?;

        let mut records = Vec::new();
        for line in text.lines() {
            let at_header = self.offset == 0 && self.lines_seen == 0;
            self.lines_seen += 1;
            let lineno = self.lines_seen;
            if at_header && self.format == TailFormat::Csv {
                if line.trim() != CSV_HEADER {
                    return Err(TelemetryError::Malformed {
                        line: 1,
                        reason: format!("unexpected header: {line:?} (expected {CSV_HEADER:?})"),
                    });
                }
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            let parsed = match self.format {
                TailFormat::Csv => parse_csv_row(line, lineno),
                TailFormat::Jsonl => serde_json::from_str::<ActionRecord>(line).map_err(|e| {
                    TelemetryError::Malformed {
                        line: lineno,
                        reason: e.to_string(),
                    }
                }),
            }
            .and_then(|r| {
                r.validate().map_err(|e| TelemetryError::Malformed {
                    line: lineno,
                    reason: e.to_string(),
                })?;
                Ok(r)
            });
            match parsed {
                Ok(r) => records.push(r),
                Err(e) => errors.record(e),
            }
        }
        self.offset += (last_nl + 1) as u64;

        let metrics = autosens_obs::MetricsRegistry::global();
        metrics.counter("autosens_telemetry_tail_polls_total").inc();
        metrics
            .counter("autosens_telemetry_records_read_total")
            .add(records.len() as u64);
        Ok((records, errors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn sample_log() -> TelemetryLog {
        TelemetryLog::from_records(vec![rec(1000, 150.5), rec(2000, 300.0)]).unwrap()
    }

    #[test]
    fn csv_roundtrip() {
        let log = sample_log();
        let mut buf = Vec::new();
        write_csv(&log, &mut buf).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.to_records(), log.to_records());
    }

    #[test]
    fn csv_rejects_bad_header() {
        let data = "wrong,header\n1,SelectMail,1.0,1,Business,0,Success\n";
        let err = read_csv(data.as_bytes()).unwrap_err();
        assert!(matches!(err, TelemetryError::Malformed { line: 1, .. }));
        assert!(read_csv("".as_bytes()).is_err());
    }

    #[test]
    fn csv_rejects_malformed_rows_with_line_numbers() {
        let data = format!("{CSV_HEADER}\n1000,SelectMail,nope,1,Business,0,Success\n");
        let err = read_csv(data.as_bytes()).unwrap_err();
        match err {
            TelemetryError::Malformed { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("latency"));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn csv_rejects_wrong_field_count_and_bad_enums() {
        let rows = [
            "1000,SelectMail,1.0,1,Business,0",            // 6 fields
            "1000,Click,1.0,1,Business,0,Success",         // bad action
            "1000,SelectMail,1.0,1,Premium,0,Success",     // bad class
            "1000,SelectMail,1.0,1,Business,0,Maybe",      // bad outcome
            "x,SelectMail,1.0,1,Business,0,Success",       // bad time
            "1000,SelectMail,1.0,u1,Business,0,Success",   // bad user
            "1000,SelectMail,1.0,1,Business,zero,Success", // bad tz
        ];
        for row in rows {
            let data = format!("{CSV_HEADER}\n{row}\n");
            assert!(read_csv(data.as_bytes()).is_err(), "row should fail: {row}");
        }
    }

    #[test]
    fn csv_rejects_semantically_invalid_records() {
        // Parses fine but fails validation (negative latency), naming the
        // line like a parse failure does.
        let data = format!("{CSV_HEADER}\n1000,SelectMail,-5.0,1,Business,0,Success\n");
        assert!(matches!(
            read_csv(data.as_bytes()),
            Err(TelemetryError::Malformed { line: 2, .. })
        ));
        // NaN latency parses as f64 but must be rejected.
        let data = format!("{CSV_HEADER}\n1000,SelectMail,NaN,1,Business,0,Success\n");
        assert!(read_csv(data.as_bytes()).is_err());
    }

    #[test]
    fn csv_rejects_a_far_off_time_naming_the_line() {
        // A clock decades off the epoch, after one good row.
        let far_off = crate::record::MAX_ABS_TIME_MS + 1;
        let data = format!(
            "{CSV_HEADER}\n1000,SelectMail,5.0,1,Business,0,Success\n\
             {far_off},SelectMail,5.0,1,Business,0,Success\n"
        );
        match read_csv(data.as_bytes()) {
            Err(TelemetryError::Malformed { line: 3, reason }) => {
                assert!(reason.contains(&far_off.to_string()), "{reason}")
            }
            other => panic!("expected a line-3 rejection, got {other:?}"),
        }
    }

    #[test]
    fn lenient_mode_collects_errors_and_keeps_good_rows() {
        let data = format!(
            "{CSV_HEADER}\n\
             1000,SelectMail,100.0,1,Business,0,Success\n\
             bad row\n\
             2000,Search,200.0,2,Consumer,0,Success\n\
             3000,SelectMail,-1.0,3,Business,0,Success\n"
        );
        let (log, errors) = read_csv_lenient(data.as_bytes()).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(errors.len(), 2);
    }

    #[test]
    fn csv_skips_blank_lines() {
        let data = format!("{CSV_HEADER}\n\n1000,SelectMail,100.0,1,Business,0,Success\n\n");
        let log = read_csv(data.as_bytes()).unwrap();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn csv_sorts_unsorted_input() {
        let data = format!(
            "{CSV_HEADER}\n\
             2000,Search,200.0,2,Consumer,0,Success\n\
             1000,SelectMail,100.0,1,Business,0,Success\n"
        );
        let log = read_csv(data.as_bytes()).unwrap();
        assert!(log.is_sorted());
        assert_eq!(log.get(0).time.millis(), 1000);
    }

    #[test]
    fn jsonl_roundtrip() {
        let log = sample_log();
        let mut buf = Vec::new();
        write_jsonl(&log, &mut buf).unwrap();
        let back = read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(back.to_records(), log.to_records());
    }

    #[test]
    fn jsonl_rejects_malformed_lines() {
        let data = "{\"not\": \"a record\"}\n";
        let err = read_jsonl(data.as_bytes()).unwrap_err();
        assert!(matches!(err, TelemetryError::Malformed { line: 1, .. }));
        let data = "not json at all\n";
        assert!(read_jsonl(data.as_bytes()).is_err());
    }

    #[test]
    fn jsonl_validates_semantics() {
        let mut bad = rec(0, 1.0);
        bad.latency_ms = 1.0;
        let mut buf = Vec::new();
        write_jsonl(&TelemetryLog::from_records(vec![bad]).unwrap(), &mut buf).unwrap();
        // Corrupt the latency to a negative value in the serialized form.
        let text = String::from_utf8(buf).unwrap().replace("1.0", "-1.0");
        assert!(read_jsonl(text.as_bytes()).is_err());
    }

    #[test]
    fn jsonl_empty_input_is_empty_log() {
        let log = read_jsonl("".as_bytes()).unwrap();
        assert!(log.is_empty());
    }

    #[test]
    fn jsonl_lenient_collects_errors_and_keeps_good_lines() {
        let log = sample_log();
        let mut buf = Vec::new();
        write_jsonl(&log, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("garbage line\n");
        let (back, errors) = read_jsonl_lenient(text.as_bytes()).unwrap();
        assert_eq!(back.to_records(), log.to_records());
        assert_eq!(errors.len(), 1);
        assert_eq!(errors.overflow(), 0);
        assert!(matches!(
            errors.errors()[0],
            TelemetryError::Malformed { line: 3, .. }
        ));
    }

    /// Corrupt N of M CSV rows; exactly M−N records survive lenient parsing
    /// and each error carries the corrupted row's line number.
    #[test]
    fn csv_lenient_roundtrip_survives_corruption() {
        let m = 50;
        let log = TelemetryLog::from_records((0..m).map(|i| rec(i as i64 * 1000, 100.0)).collect())
            .unwrap();
        let mut buf = Vec::new();
        write_csv(&log, &mut buf).unwrap();
        let mut lines: Vec<String> = String::from_utf8(buf)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        // Corrupt every 5th data row (rows are at index 1.., after the header).
        let corrupted: Vec<usize> = (1..lines.len()).step_by(5).collect();
        for &i in &corrupted {
            lines[i] = format!("corrupt<{i}>");
        }
        let text = lines.join("\n");
        let (back, errors) = read_csv_lenient(text.as_bytes()).unwrap();
        assert_eq!(back.len(), m - corrupted.len());
        assert_eq!(errors.total(), corrupted.len());
        // Line numbers are 1-based over the whole file, header included.
        let got: Vec<usize> = errors
            .iter()
            .map(|e| match e {
                TelemetryError::Malformed { line, .. } => *line,
                other => panic!("unexpected error {other}"),
            })
            .collect();
        let want: Vec<usize> = corrupted.iter().map(|i| i + 1).collect();
        assert_eq!(got, want);
        // The surviving records are exactly the uncorrupted ones.
        let survivor_times: Vec<i64> = back.iter().map(|r| r.time.millis()).collect();
        let expected_times: Vec<i64> = (0..m)
            .filter(|i| !corrupted.contains(&(i + 1)))
            .map(|i| i as i64 * 1000)
            .collect();
        assert_eq!(survivor_times, expected_times);
    }

    /// Same contract for JSONL (no header line, so data row k is line k+1).
    #[test]
    fn jsonl_lenient_roundtrip_survives_corruption() {
        let m = 40;
        let log = TelemetryLog::from_records((0..m).map(|i| rec(i as i64 * 1000, 100.0)).collect())
            .unwrap();
        let mut buf = Vec::new();
        write_jsonl(&log, &mut buf).unwrap();
        let mut lines: Vec<String> = String::from_utf8(buf)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        let corrupted: Vec<usize> = (0..lines.len()).step_by(7).collect();
        for &i in &corrupted {
            lines[i] = "{broken".into();
        }
        let text = lines.join("\n");
        let (back, errors) = read_jsonl_lenient(text.as_bytes()).unwrap();
        assert_eq!(back.len(), m - corrupted.len());
        assert_eq!(errors.total(), corrupted.len());
        let got: Vec<usize> = errors
            .iter()
            .map(|e| match e {
                TelemetryError::Malformed { line, .. } => *line,
                other => panic!("unexpected error {other}"),
            })
            .collect();
        let want: Vec<usize> = corrupted.iter().map(|i| i + 1).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn tail_reader_follows_appends_and_defers_partial_lines() {
        let dir = std::env::temp_dir().join(format!("autosens-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tail_appends.csv");
        let mut file = std::fs::File::create(&path).unwrap();
        let mut tail = TailReader::new(&path, TailFormat::Csv);

        // Nothing yet — empty file, then a partial header.
        assert!(tail.poll().unwrap().0.is_empty());
        write!(file, "time_ms,action").unwrap();
        file.flush().unwrap();
        assert!(tail.poll().unwrap().0.is_empty());
        assert_eq!(tail.offset(), 0);

        // Complete the header and one row, plus the start of a second row.
        writeln!(file, ",latency_ms,user,class,tz_offset_ms,outcome").unwrap();
        writeln!(file, "1000,Search,150.5,42,Consumer,-18000000,Success").unwrap();
        write!(file, "2000,Search").unwrap();
        file.flush().unwrap();
        let (batch, errors) = tail.poll().unwrap();
        assert!(errors.is_empty());
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].time.millis(), 1000);

        // Finish the second row; only the delta is read.
        writeln!(file, ",300.0,42,Consumer,-18000000,Success").unwrap();
        file.flush().unwrap();
        let (batch, _) = tail.poll().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].time.millis(), 2000);

        // Resume from the checkpointed offset sees only newer appends.
        let offset = tail.offset();
        writeln!(file, "3000,Search,90.0,7,Business,0,Success").unwrap();
        file.flush().unwrap();
        let mut resumed = TailReader::resume(&path, TailFormat::Csv, offset);
        let (batch, _) = resumed.poll().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].time.millis(), 3000);
        assert!(resumed.poll().unwrap().0.is_empty());
    }

    #[test]
    fn tail_reader_collects_bad_rows_and_rejects_truncation() {
        let dir = std::env::temp_dir().join(format!("autosens-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tail_errors.csv");
        let mut file = std::fs::File::create(&path).unwrap();
        writeln!(file, "{CSV_HEADER}").unwrap();
        writeln!(file, "not a row").unwrap();
        writeln!(file, "1000,Search,150.5,42,Consumer,-18000000,Success").unwrap();
        file.flush().unwrap();
        let mut tail = TailReader::new(&path, TailFormat::Csv);
        let (batch, errors) = tail.poll().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(errors.total(), 1);
        assert!(matches!(
            errors.errors()[0],
            TelemetryError::Malformed { line: 2, .. }
        ));
        // A bad header is fatal, not lenient.
        let bad = dir.join("tail_bad_header.csv");
        std::fs::write(&bad, "wrong,header\n").unwrap();
        assert!(TailReader::new(&bad, TailFormat::Csv).poll().is_err());
        // Truncation below the checkpoint is a hard error.
        std::fs::write(&path, "").unwrap();
        assert!(tail.poll().is_err());
    }

    #[test]
    fn tail_reader_reads_jsonl_without_a_header() {
        let dir = std::env::temp_dir().join(format!("autosens-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tail.jsonl");
        let log = sample_log();
        let mut buf = Vec::new();
        write_jsonl(&log, &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let mut tail = TailReader::new(&path, TailFormat::Jsonl);
        let (batch, errors) = tail.poll().unwrap();
        assert!(errors.is_empty());
        assert_eq!(batch, log.to_records());
    }

    #[test]
    fn lenient_cap_counts_overflow_instead_of_storing() {
        let mut data = String::from(CSV_HEADER);
        data.push('\n');
        for i in 0..10 {
            data.push_str(&format!("bad row {i}\n"));
        }
        data.push_str("1000,SelectMail,100.0,1,Business,0,Success\n");
        let (log, errors) = read_csv_lenient_capped(data.as_bytes(), 3).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(errors.len(), 3);
        assert_eq!(errors.overflow(), 7);
        assert_eq!(errors.total(), 10);
        assert!(!errors.is_empty());
        // A zero cap stores nothing but still counts.
        let (_, errors) = read_csv_lenient_capped(data.as_bytes(), 0).unwrap();
        assert_eq!(errors.len(), 0);
        assert_eq!(errors.overflow(), 10);
        assert!(!errors.is_empty());
        // JSONL honors the cap too.
        let jsonl = "x\ny\nz\n";
        let (_, errors) = read_jsonl_lenient_capped(jsonl.as_bytes(), 1).unwrap();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors.overflow(), 2);
    }
}
