//! CSV and JSONL import/export for telemetry logs.
//!
//! These codecs are the bring-your-own-data surface of the library: a
//! downstream operator exports their web-access logs into either format and
//! feeds them to the analysis CLI. Every text input — CSV or JSONL, strict,
//! lenient or tailed — goes through one line loop: it reads one line of
//! bytes into a buffer reused for the whole read, checks the line is UTF-8,
//! parses it and validates it. A bad line then either fails the read with
//! its line number (strict) or is counted and skipped (the lenient readers
//! and [`TailReader`]), so one damaged row never stops a lenient read.

use std::io::{BufRead, BufReader, Read, Write};

use crate::error::TelemetryError;
use crate::log::{ColumnStore, TelemetryLog};
use crate::record::{ActionRecord, ActionType, Outcome, UserClass, UserId};
use crate::time::SimTime;

/// The CSV header written and expected by this codec.
pub const CSV_HEADER: &str = "time_ms,action,latency_ms,user,class,tz_offset_ms,outcome";

/// Write a log as CSV (with header).
pub fn write_csv<W: Write>(log: &TelemetryLog, out: &mut W) -> Result<(), TelemetryError> {
    writeln!(out, "{CSV_HEADER}")?;
    for r in log.view().iter() {
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

/// Cap on errors retained by a lenient read. A pathological input (e.g. a
/// multi-gigabyte file in the wrong format) would otherwise balloon memory
/// with one error per line; past the cap, errors are only counted, not
/// stored.
pub const DEFAULT_LENIENT_ERROR_CAP: usize = 1_000;

/// Errors collected by a lenient read, bounded in memory by
/// [`DEFAULT_LENIENT_ERROR_CAP`].
///
/// Behaves like a `Vec<TelemetryError>` for the common cases (`len`,
/// `is_empty`, indexing via [`Self::errors`], iteration) but stops *storing*
/// errors past the cap; [`Self::overflow`] counts the discarded remainder
/// and [`Self::total`] is the true malformed-row count.
#[derive(Debug, Default)]
pub struct LenientErrors {
    errors: Vec<TelemetryError>,
    overflow: usize,
}

impl LenientErrors {
    fn record(&mut self, e: TelemetryError) {
        if self.errors.len() < DEFAULT_LENIENT_ERROR_CAP {
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

/// Text format of a telemetry file: how the line loop parses each line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailFormat {
    /// The [`CSV_HEADER`]-prefixed CSV written by [`write_csv`].
    Csv,
    /// JSON Lines as written by [`write_jsonl`].
    Jsonl,
}

/// One pass of the line loop over a byte stream.
struct LinePass {
    format: TailFormat,
    /// Fail on the first bad line instead of counting it.
    strict: bool,
    /// Lines before the first one this pass reads, for error numbering.
    lines_before: usize,
    /// Whether the first line of the pass is the CSV header.
    header: bool,
    /// Whether an unterminated last line waits for its newline (a tail
    /// mid-stream) instead of ending at end of input.
    defer_partial: bool,
}

/// How much of its input a [`LinePass`] consumed.
struct Consumed {
    /// Bytes of the lines read, newlines included.
    bytes: u64,
    /// Lines read, the header and blank lines included.
    lines: usize,
}

impl LinePass {
    /// Read `input` one line at a time into one reused buffer, handing each
    /// good record to `emit`. A bad line fails the pass (strict) or is
    /// counted in `errors` and skipped; a wrong CSV header always fails.
    fn run<R: BufRead>(
        &self,
        mut input: R,
        errors: &mut LenientErrors,
        mut emit: impl FnMut(ActionRecord),
    ) -> Result<Consumed, TelemetryError> {
        let mut buf = Vec::new();
        let mut done = Consumed { bytes: 0, lines: 0 };
        loop {
            buf.clear();
            let n = input.read_until(b'\n', &mut buf)?;
            if n == 0 || (self.defer_partial && buf.last() != Some(&b'\n')) {
                return Ok(done);
            }
            done.bytes += n as u64;
            done.lines += 1;
            let line = match buf.as_slice() {
                [rest @ .., b'\r', b'\n'] | [rest @ .., b'\n'] => rest,
                whole => whole,
            };
            if self.header && done.lines == 1 {
                check_csv_header(line)?;
                continue;
            }
            match self.parse(line, self.lines_before + done.lines) {
                Ok(Some(record)) => emit(record),
                Ok(None) => {}
                Err(e) if self.strict => return Err(e),
                Err(e) => errors.record(e),
            }
        }
    }

    /// Decode, parse and validate one line; `None` for a blank line.
    fn parse(&self, line: &[u8], lineno: usize) -> Result<Option<ActionRecord>, TelemetryError> {
        let malformed = |reason: String| TelemetryError::Malformed {
            line: lineno,
            reason,
        };
        let text = std::str::from_utf8(line)
            .map_err(|e| malformed(format!("line is not valid UTF-8: {e}")))?;
        if text.trim().is_empty() {
            return Ok(None);
        }
        let record = match self.format {
            TailFormat::Csv => parse_csv_row(text, lineno)?,
            TailFormat::Jsonl => {
                serde_json::from_str::<ActionRecord>(text).map_err(|e| malformed(e.to_string()))?
            }
        };
        record.validate().map_err(|e| malformed(e.to_string()))?;
        Ok(Some(record))
    }
}

fn check_csv_header(line: &[u8]) -> Result<(), TelemetryError> {
    if std::str::from_utf8(line).is_ok_and(|h| h.trim() == CSV_HEADER) {
        return Ok(());
    }
    Err(TelemetryError::Malformed {
        line: 1,
        reason: format!(
            "unexpected header: {:?} (expected {CSV_HEADER:?})",
            String::from_utf8_lossy(line)
        ),
    })
}

/// Read a CSV log written by [`write_csv`]. Fails on the first malformed row.
pub fn read_csv<R: Read>(input: R) -> Result<TelemetryLog, TelemetryError> {
    Ok(read_text(input, TailFormat::Csv, true)?.0)
}

/// Read a CSV log, skipping malformed rows and returning them as errors
/// alongside the successfully parsed log. At most
/// [`DEFAULT_LENIENT_ERROR_CAP`] errors are stored.
pub fn read_csv_lenient<R: Read>(
    input: R,
) -> Result<(TelemetryLog, LenientErrors), TelemetryError> {
    read_text(input, TailFormat::Csv, false)
}

/// Write a log as JSON Lines (one serde-serialized record per line).
pub fn write_jsonl<W: Write>(log: &TelemetryLog, out: &mut W) -> Result<(), TelemetryError> {
    for r in log.view().iter() {
        let line = serde_json::to_string(&r)
            .map_err(|e| TelemetryError::InvalidRecord(format!("serialization failed: {e}")))?;
        writeln!(out, "{line}")?;
    }
    Ok(())
}

/// Read a JSONL log. Fails on the first malformed line.
pub fn read_jsonl<R: Read>(input: R) -> Result<TelemetryLog, TelemetryError> {
    Ok(read_text(input, TailFormat::Jsonl, true)?.0)
}

/// Read a JSONL log, skipping malformed lines and returning them as errors
/// alongside the successfully parsed log. At most
/// [`DEFAULT_LENIENT_ERROR_CAP`] errors are stored.
pub fn read_jsonl_lenient<R: Read>(
    input: R,
) -> Result<(TelemetryLog, LenientErrors), TelemetryError> {
    read_text(input, TailFormat::Jsonl, false)
}

/// Read a whole text log through the line loop into a sorted log, and
/// record the pass on the global recorder: the `codec.*` span with its
/// record/error fields, and the records-read / lenient-error counters
/// (`autosens_telemetry_records_read_total`,
/// `autosens_telemetry_codec_lenient_errors_total`).
fn read_text<R: Read>(
    input: R,
    format: TailFormat,
    strict: bool,
) -> Result<(TelemetryLog, LenientErrors), TelemetryError> {
    let mut span = autosens_obs::Recorder::global().root(match format {
        TailFormat::Csv => "codec.read_csv",
        TailFormat::Jsonl => "codec.read_jsonl",
    });
    let pass = LinePass {
        format,
        strict,
        lines_before: 0,
        header: format == TailFormat::Csv,
        defer_partial: false,
    };
    let mut cols = ColumnStore::new();
    let mut errors = LenientErrors::default();
    let consumed = pass.run(BufReader::new(input), &mut errors, |r| cols.push(&r))?;
    if pass.header && consumed.lines == 0 {
        return Err(TelemetryError::Malformed {
            line: 1,
            reason: "empty input (missing header)".into(),
        });
    }
    let log = TelemetryLog::from_columns(cols);
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
    Ok((log, errors))
}

fn parse_csv_row(line: &str, lineno: usize) -> Result<ActionRecord, TelemetryError> {
    let malformed = |reason: String| TelemetryError::Malformed {
        line: lineno,
        reason,
    };
    let mut fields = [""; 7];
    let mut n = 0;
    for field in line.split(',') {
        if let Some(slot) = fields.get_mut(n) {
            *slot = field;
        }
        n += 1;
    }
    if n != 7 {
        return Err(malformed(format!("expected 7 fields, got {n}")));
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

/// An append-aware reader that tails a growing telemetry file.
///
/// Each [`TailReader::poll`] reads everything appended since the previous
/// poll and parses only **complete** lines — a partially written trailing
/// line is left in the file (the byte offset stops at the last newline)
/// and picked up whole on a later poll, so a writer mid-`write` never
/// produces a spurious parse error. Once the file has stopped growing,
/// [`TailReader::poll_to_eof`] reads that last line too. The reader holds
/// no file handle between polls and keeps only a byte offset, which
/// [`TailReader::offset`] exposes for checkpointing;
/// [`TailReader::resume`] reconstructs the reader at that offset after a
/// restart.
///
/// Records are returned in file (arrival) order, unsorted — a streaming
/// consumer does its own time ordering. A malformed row, one that is not
/// UTF-8 included, is collected in capped [`LenientErrors`] and the offset
/// moves past it, so a resumed tail never meets it again; I/O failures, a
/// wrong CSV header and file truncation are hard errors.
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
        self.read_appended(true)
    }

    /// [`TailReader::poll`] for a file that has stopped growing: end of
    /// file ends the last line, so an unterminated final line is read too
    /// and the offset moves to the file length. Call it only once the
    /// writer is done: bytes appended later would continue a line this
    /// reader has already consumed.
    pub fn poll_to_eof(&mut self) -> Result<(Vec<ActionRecord>, LenientErrors), TelemetryError> {
        self.read_appended(false)
    }

    fn read_appended(
        &mut self,
        defer_partial: bool,
    ) -> Result<(Vec<ActionRecord>, LenientErrors), TelemetryError> {
        use std::io::Seek;
        let mut errors = LenientErrors::default();
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
        let pass = LinePass {
            format: self.format,
            strict: false,
            lines_before: self.lines_seen,
            header: self.format == TailFormat::Csv && self.offset == 0,
            defer_partial,
        };
        let mut records = Vec::new();
        let consumed = pass.run(
            BufReader::new(file.take(len - self.offset)),
            &mut errors,
            |r| records.push(r),
        )?;
        self.offset += consumed.bytes;
        self.lines_seen += consumed.lines;

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
        // The field-count error reports the real count, short or long.
        for (row, n) in [
            ("1000,SelectMail,1.0,1,Business,0", 6),
            ("1000,SelectMail,1.0,1,Business,0,Success,x", 8),
            ("1000,SelectMail,1.0,1,Business,0,Success,x,y", 9),
        ] {
            let data = format!("{CSV_HEADER}\n{row}\n");
            match read_csv(data.as_bytes()) {
                Err(TelemetryError::Malformed { line: 2, reason }) => {
                    assert_eq!(reason, format!("expected 7 fields, got {n}"), "{row}");
                }
                other => panic!("row should fail with a field count: {row}: {other:?}"),
            }
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
        assert_eq!(log.view().get(0).time.millis(), 1000);
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
        let survivor_times: Vec<i64> = back.view().iter().map(|r| r.time.millis()).collect();
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
        for i in 0..DEFAULT_LENIENT_ERROR_CAP + 7 {
            data.push_str(&format!("bad row {i}\n"));
        }
        data.push_str("1000,SelectMail,100.0,1,Business,0,Success\n");
        let (log, errors) = read_csv_lenient(data.as_bytes()).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(errors.len(), DEFAULT_LENIENT_ERROR_CAP);
        assert_eq!(errors.overflow(), 7);
        assert_eq!(errors.total(), DEFAULT_LENIENT_ERROR_CAP + 7);
        assert!(!errors.is_empty());
        // JSONL honors the cap too.
        let jsonl = "x\n".repeat(DEFAULT_LENIENT_ERROR_CAP + 2);
        let (_, errors) = read_jsonl_lenient(jsonl.as_bytes()).unwrap();
        assert_eq!(errors.len(), DEFAULT_LENIENT_ERROR_CAP);
        assert_eq!(errors.overflow(), 2);
    }

    /// A CSV file whose line 3 holds a byte that is not UTF-8, between two
    /// good rows.
    fn csv_with_bad_utf8() -> Vec<u8> {
        let mut data =
            format!("{CSV_HEADER}\n1000,Search,150.5,42,Consumer,0,Success\n").into_bytes();
        data.extend_from_slice(b"2000,Search,1\xff0.0,42,Consumer,0,Success\n");
        data.extend_from_slice(b"3000,Search,90.0,7,Business,0,Success\n");
        data
    }

    /// The same for JSONL: line 2 of three holds the bad byte.
    fn jsonl_with_bad_utf8() -> Vec<u8> {
        let mut data = Vec::new();
        write_jsonl(
            &TelemetryLog::from_records(vec![rec(1000, 150.5)]).unwrap(),
            &mut data,
        )
        .unwrap();
        data.extend_from_slice(b"{\"time\":\xff}\n");
        write_jsonl(
            &TelemetryLog::from_records(vec![rec(3000, 90.0)]).unwrap(),
            &mut data,
        )
        .unwrap();
        data
    }

    fn malformed_line(e: &TelemetryError) -> usize {
        match e {
            TelemetryError::Malformed { line, reason } => {
                assert!(reason.contains("UTF-8"), "{reason}");
                *line
            }
            other => panic!("expected a malformed-line error, got {other}"),
        }
    }

    #[test]
    fn strict_readers_name_the_line_that_is_not_utf8() {
        let err = read_csv(csv_with_bad_utf8().as_slice()).unwrap_err();
        assert_eq!(malformed_line(&err), 3);
        let err = read_jsonl(jsonl_with_bad_utf8().as_slice()).unwrap_err();
        assert_eq!(malformed_line(&err), 2);
    }

    #[test]
    fn lenient_readers_count_a_line_that_is_not_utf8_and_keep_the_rest() {
        let (log, errors) = read_csv_lenient(csv_with_bad_utf8().as_slice()).unwrap();
        let times: Vec<i64> = log.view().iter().map(|r| r.time.millis()).collect();
        assert_eq!(times, vec![1000, 3000]);
        assert_eq!(errors.total(), 1);
        assert_eq!(malformed_line(&errors.errors()[0]), 3);
        let (log, errors) = read_jsonl_lenient(jsonl_with_bad_utf8().as_slice()).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(errors.total(), 1);
        assert_eq!(malformed_line(&errors.errors()[0]), 2);
    }

    #[test]
    fn tail_skips_a_line_that_is_not_utf8_and_moves_past_it() {
        let dir = std::env::temp_dir().join(format!("autosens-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, format, data, bad_line) in [
            ("tail_utf8.csv", TailFormat::Csv, csv_with_bad_utf8(), 3),
            (
                "tail_utf8.jsonl",
                TailFormat::Jsonl,
                jsonl_with_bad_utf8(),
                2,
            ),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, &data).unwrap();
            let mut tail = TailReader::new(&path, format);
            let (batch, errors) = tail.poll().unwrap();
            assert_eq!(batch.len(), 2, "{name}");
            assert_eq!(errors.total(), 1, "{name}");
            assert_eq!(malformed_line(&errors.errors()[0]), bad_line, "{name}");
            assert_eq!(tail.offset(), data.len() as u64, "{name}");
            // A tail resumed at that offset has nothing left to read.
            let (batch, errors) = TailReader::resume(&path, format, tail.offset())
                .poll()
                .unwrap();
            assert!(batch.is_empty() && errors.is_empty(), "{name}");
        }
    }

    #[test]
    fn poll_to_eof_reads_an_unterminated_last_line() {
        let dir = std::env::temp_dir().join(format!("autosens-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut jsonl = Vec::new();
        write_jsonl(&sample_log(), &mut jsonl).unwrap();
        let mut csv = Vec::new();
        write_csv(&sample_log(), &mut csv).unwrap();
        for (name, format, mut data) in [
            ("tail_eof.csv", TailFormat::Csv, csv),
            ("tail_eof.jsonl", TailFormat::Jsonl, jsonl),
        ] {
            assert_eq!(data.pop(), Some(b'\n'));
            let path = dir.join(name);
            std::fs::write(&path, &data).unwrap();
            let mut tail = TailReader::new(&path, format);
            let (batch, _) = tail.poll().unwrap();
            assert_eq!(
                batch.len(),
                1,
                "{name}: a mid-stream poll defers the partial line"
            );
            assert!(tail.offset() < data.len() as u64);
            let (batch, errors) = tail.poll_to_eof().unwrap();
            assert!(errors.is_empty(), "{name}");
            assert_eq!(batch, vec![rec(2000, 300.0)], "{name}");
            assert_eq!(tail.offset(), data.len() as u64, "{name}");
            assert!(tail.poll_to_eof().unwrap().0.is_empty(), "{name}");
            // The whole-file readers read the same last line.
            let log = match format {
                TailFormat::Csv => read_csv(data.as_slice()).unwrap(),
                TailFormat::Jsonl => read_jsonl(data.as_slice()).unwrap(),
            };
            assert_eq!(log.to_records(), sample_log().to_records(), "{name}");
        }
    }
}
