//! Standard Workload Format (SWF) reader and writer.
//!
//! Feitelson's Parallel Workloads Archive — the source of the paper's CTC,
//! SDSC, and KTH traces — distributes logs in SWF: one job per line, 18
//! whitespace-separated integer fields, `;` comment lines. This module
//! lets the simulator consume those files directly, so anyone holding the
//! original logs can rerun every experiment on the real data.
//!
//! One reader exists: [`StreamingSwfSource`] feeds a log through the
//! [`JobSource`] seam line by line, holding only a bounded read-ahead ring
//! of parsed jobs, so memory stays O(ring) however long the log is — what
//! makes archive-scale (million-job, multi-GB) sweeps possible. It reads
//! a log once, so a pipe serves. [`parse`] collects it over an in-memory
//! document. It never panics: its first error ends the stream and is kept
//! for [`JobSource::error`].
//!
//! Field map (1-based, per the archive definition):
//! `1` job number, `2` submit time, `3` wait time, `4` run time,
//! `5` allocated processors, `6` average CPU time, `7` used memory,
//! `8` requested processors, `9` requested time (the user estimate),
//! `10` requested memory (KB per processor), `11` status, `12` user,
//! `13` group, `14` executable, `15` queue, `16` partition,
//! `17` preceding job, `18` think time. Missing values are `-1`.
//!
//! Import policy (documented substitutions for the simulator's model):
//! * jobs with non-positive run time or width are skipped
//!   (cancelled-before-start entries) and counted,
//! * data lines with fewer than 11 fields — truncated tails, archive
//!   damage — are tolerated mid-file: dropped and counted rather than
//!   failing the whole import,
//! * negative submit times (clock-skew artifacts in some archive logs)
//!   are clamped to 0 and counted — unclamped they would panic the
//!   simulator's event queue,
//! * submit times must not decrease: the format lists jobs by submit time
//!   and a stream cannot sort, so a line that goes back is an error,
//! * requested processors fall back to allocated processors,
//! * the estimate falls back to the run time and is clamped to
//!   `max(estimate, run)` — the simulator never kills jobs at their
//!   estimate, matching the paper's over-estimation-only model,
//! * requested memory (KB/processor) is converted to MiB/processor and
//!   clamped to the paper's [100 MB, 1 GB] band when absent,
//! * `;` comment lines are skipped undecoded, so a header in any encoding
//!   reads; a data line that is not UTF-8 is an error,
//! * non-numeric fields (`nan` and `inf` included) are errors, and so are
//!   numbers outside the model's range, with their field: a width above
//!   `u32::MAX` processors, and a submit, run or requested time above
//!   2^40 s (about 34,800 years). Below that bound a job's own instants
//!   (submit, plus estimate or run, plus its suspension overheads) stay
//!   below 2^42 s, so a simulated clock could leave `i64` only after
//!   millions of such jobs run back to back,
//! * jobs wider than the machine are dropped and counted, and the rest
//!   numbered densely in file order, by the
//!   [`ShapedSource`](crate::ShapedSource) a run reads the log through
//!   (the reader does not know the machine; [`parse`] gives it no limit).
//!
//! Every error names its line.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::job::{Job, JobId};
use crate::source::JobSource;
use sps_simcore::SimTime;

/// A problem encountered while parsing an SWF document.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SwfError {
    /// 1-based line number in the input.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SWF line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SwfError {}

/// Counts of records the importer dropped or repaired. Every tolerated
/// irregularity is counted rather than silent, so a caller can decide
/// whether an archive log is healthy enough to trust.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SwfWarnings {
    /// Records skipped because run time or width was non-positive
    /// (cancelled-before-start entries).
    pub skipped: usize,
    /// Data lines with fewer than 11 fields, dropped mid-file.
    pub short_lines: usize,
    /// Fields clamped into the model's domain (negative submit times
    /// raised to 0).
    pub clamped: usize,
}

/// Outcome of parsing: the usable jobs plus counts of skipped records.
#[derive(Clone, Debug, Default)]
pub struct SwfTrace {
    /// Imported jobs, numbered densely in input order.
    pub jobs: Vec<Job>,
    /// Irregularity counters.
    pub warnings: SwfWarnings,
}

/// One classified data line.
enum LineKind {
    /// Data line with fewer than 11 fields — tolerated, counted.
    Short,
    /// Semantically unusable record (non-positive run or width).
    Unusable,
    /// A usable record folded through the import policy (fallbacks
    /// applied, memory converted, submit clamped), its id unset;
    /// `clamped` says whether a field was clamped into the model's domain.
    Record { job: Job, clamped: bool },
}

/// The largest submit, run or requested time the importer accepts, in
/// seconds (see the module doc).
const MAX_SECS: i64 = 1 << 40;

/// Classify one data line (neither blank nor a comment) under the import
/// policy. Non-numeric fields and numbers outside the model's range are
/// errors (structural damage worth surfacing, unlike a truncated tail);
/// the caller adds the line number.
fn classify(line: &str) -> Result<LineKind, String> {
    // Capture the six fields the model uses while validating every token;
    // no per-line Vec — this is the hot loop of million-job ingestion.
    let (mut submit, mut run, mut alloc, mut req_procs, mut req_time, mut req_mem) =
        (-1i64, -1i64, -1i64, -1i64, -1i64, -1i64);
    // The first time field above the bound, with its token.
    let mut too_late = None;
    let mut n = 0usize;
    for tok in line.split_whitespace() {
        // `nan` and `inf` parse as floats but are no SWF numbers.
        let v = tok
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("non-numeric field {tok:?}"))? as i64;
        if v > MAX_SECS && matches!(n, 1 | 3 | 8) && too_late.is_none() {
            too_late = Some((n, tok));
        }
        match n {
            1 => submit = v,
            3 => run = v,
            4 => alloc = v,
            7 => req_procs = v,
            8 => req_time = v,
            9 => req_mem = v,
            _ => {}
        }
        n += 1;
    }
    if n < 11 {
        return Ok(LineKind::Short);
    }
    if let Some((field, tok)) = too_late {
        let time = match field {
            1 => "submit time",
            3 => "run time",
            _ => "requested time",
        };
        return Err(format!(
            "{time} (field {}) {tok} is above the import bound of {MAX_SECS} s",
            field + 1
        ));
    }
    let (procs, field) = if req_procs > 0 {
        (req_procs, "requested processors (field 8)")
    } else {
        (alloc, "allocated processors (field 5)")
    };
    if procs > i64::from(u32::MAX) {
        return Err(format!(
            "{field} {procs} is above the largest width, {}",
            u32::MAX
        ));
    }
    if run <= 0 || procs <= 0 {
        return Ok(LineKind::Unusable);
    }
    let estimate = if req_time > 0 { req_time.max(run) } else { run };
    // SWF records requested memory in KB *per processor*; the simulator's
    // overhead model wants the job total, clamped to the paper's
    // 100 MB – 1 GB band.
    let mem_mb = if req_mem > 0 {
        ((req_mem.saturating_mul(procs).saturating_add(512) / 1024).clamp(100, 1024)) as u32
    } else {
        512
    };
    Ok(LineKind::Record {
        job: Job {
            id: JobId(0),
            submit: SimTime::new(submit.max(0)),
            run,
            estimate,
            procs: procs as u32,
            mem_mb,
        },
        clamped: submit < 0,
    })
}

/// Parse SWF text into a materialized trace: [`StreamingSwfSource`]
/// collected. Returns the reader's error for a malformed line or an
/// out-of-order submit; short lines and semantically unusable jobs are
/// counted in [`SwfTrace::warnings`] instead.
pub fn parse(text: &str) -> Result<SwfTrace, SwfError> {
    let reader = StreamingSwfSource::from_reader(text.as_bytes(), "text");
    // No width limit: the shaper only numbers the jobs.
    let mut log = crate::ShapedSource::new(reader, 1.0, None, 0, u32::MAX);
    let jobs = std::iter::from_fn(|| log.next_job()).collect();
    match log.error() {
        Some(e) => Err(e.clone()),
        None => Ok(SwfTrace {
            jobs,
            warnings: log.inner().warnings,
        }),
    }
}

/// Serialize jobs back to SWF (fields the simulator does not model are
/// written as `-1`). `parse(write(jobs))` reproduces the jobs.
pub fn write(jobs: &[Job]) -> String {
    let mut out = String::with_capacity(jobs.len() * 64);
    out.push_str("; generated by sps-workload\n");
    for j in jobs {
        write_line(j, &mut out);
    }
    out
}

/// One SWF data line for `j`, appended to `out`.
fn write_line(j: &Job, out: &mut String) {
    // job submit wait run alloc cpu mem req_procs req_time req_mem
    // status user group exe queue partition preceding think
    writeln!(
        out,
        "{} {} -1 {} {} -1 -1 {} {} {} 1 -1 -1 -1 -1 -1 -1 -1",
        j.id.0,
        j.submit.secs(),
        j.run,
        j.procs,
        j.procs,
        j.estimate,
        (j.mem_mb as i64 * 1024 + j.procs as i64 - 1) / j.procs as i64,
    )
    .expect("writing to String cannot fail");
}

/// Stream a large synthetic log to `path` in bounded memory.
///
/// Jobs come from [`SyntheticConfig`](crate::SyntheticConfig) in
/// `chunk`-sized batches — batch `k` draws from `seed + k` — and each
/// batch's submit times are offset past the previous batch's last
/// arrival, so the file stays nondecreasing (streamable) while the
/// writer holds only one batch at a time. This is how the million-job
/// logs for the mega-sweep bench and the RSS-bound tests are produced:
/// materializing a million jobs first would defeat the very peak-memory
/// claim those tests pin down.
pub fn write_chunked(
    path: impl AsRef<Path>,
    preset: crate::SystemPreset,
    seed: u64,
    n: usize,
    chunk: usize,
) -> std::io::Result<()> {
    use std::io::Write as _;
    let chunk = chunk.max(1);
    let mut out = std::io::BufWriter::new(File::create(path)?);
    out.write_all(b"; generated by sps-workload (chunked)\n")?;
    let mut written = 0usize;
    let mut offset = 0i64;
    let mut buf = String::with_capacity(chunk.min(n) * 64);
    while written < n {
        let take = chunk.min(n - written);
        let batch =
            crate::SyntheticConfig::new(preset, seed.wrapping_add((written / chunk) as u64))
                .with_jobs(take)
                .generate();
        let last = batch.last().map_or(0, |j| j.submit.secs());
        buf.clear();
        for (i, j) in batch.iter().enumerate() {
            let mut j = j.clone();
            j.id = JobId((written + i) as u32);
            j.submit = SimTime::new(j.submit.secs() + offset);
            write_line(&j, &mut buf);
        }
        out.write_all(buf.as_bytes())?;
        offset += last + 1;
        written += take;
    }
    out.flush()
}

/// Default read-ahead ring capacity, in parsed jobs. Big enough to
/// amortize refill bookkeeping, small enough (~50 KB of `Job`s) that a
/// sweep running dozens of streaming workers stays negligible next to
/// simulator state.
pub const DEFAULT_READAHEAD: usize = 1024;

/// The SWF reader, a [`JobSource`]: parses the log line by line into a
/// bounded read-ahead ring, so peak memory is O(read-ahead) no matter how
/// long the log is. Every job comes out with id 0: the
/// [`ShapedSource`](crate::ShapedSource) a run reads it through numbers
/// the jobs it keeps. The first error ends the stream;
/// [`JobSource::error`] returns it.
pub struct StreamingSwfSource<R = BufReader<File>> {
    reader: R,
    label: String,
    ring: VecDeque<Job>,
    readahead: usize,
    line: Vec<u8>,
    lineno: usize,
    last_submit: i64,
    warnings: SwfWarnings,
    peak_buffered: usize,
    done: bool,
    error: Option<SwfError>,
}

impl StreamingSwfSource<BufReader<File>> {
    /// Stream the log at `path`, which may be a pipe. A directory, which
    /// `File::open` accepts, is refused here rather than failing at the
    /// first read.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        let file = File::open(path)?;
        if file.metadata()?.is_dir() {
            return Err(std::io::Error::other("is a directory"));
        }
        let label = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        Ok(Self::from_reader(BufReader::new(file), &label))
    }
}

impl<R: BufRead> StreamingSwfSource<R> {
    /// Stream from any buffered reader; `label` names the stream in
    /// reports.
    pub fn from_reader(reader: R, label: &str) -> Self {
        StreamingSwfSource {
            reader,
            label: label.to_string(),
            ring: VecDeque::new(),
            readahead: DEFAULT_READAHEAD,
            line: Vec::new(),
            lineno: 0,
            last_submit: 0,
            warnings: SwfWarnings::default(),
            peak_buffered: 0,
            done: false,
            error: None,
        }
    }

    /// Cap the read-ahead ring at `jobs` parsed jobs (minimum 1).
    pub fn with_readahead(mut self, jobs: usize) -> Self {
        self.readahead = jobs.max(1);
        self
    }

    /// Irregularity counters over everything read so far.
    pub fn warnings(&self) -> SwfWarnings {
        self.warnings
    }

    /// High-water mark of the read-ahead ring — the streaming path's
    /// entire per-log memory footprint, pinned by the memory-bound tests.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Top the ring up to the read-ahead cap, or end the stream at EOF or
    /// at the first error.
    fn refill(&mut self) {
        while self.ring.len() < self.readahead && !self.done {
            self.line.clear();
            let read = self.reader.read_until(b'\n', &mut self.line);
            self.lineno += 1;
            let outcome = match read {
                Ok(0) => {
                    self.done = true;
                    break;
                }
                Ok(_) => self.take_line(),
                Err(e) => Err(format!("read failed: {e}")),
            };
            if let Err(message) = outcome {
                self.error = Some(SwfError {
                    line: self.lineno,
                    message,
                });
                self.done = true;
            }
        }
        self.peak_buffered = self.peak_buffered.max(self.ring.len());
    }

    /// Import the line just read: queue its job, count it, or skip it.
    fn take_line(&mut self) -> Result<(), String> {
        // Blank lines and comments are skipped undecoded: comments are
        // free text in whatever encoding the archive used.
        let line = self.line.trim_ascii();
        if line.first().is_none_or(|&b| b == b';') {
            return Ok(());
        }
        let text = std::str::from_utf8(line).map_err(|e| format!("not UTF-8 ({e})"))?;
        match classify(text)? {
            LineKind::Short => self.warnings.short_lines += 1,
            LineKind::Unusable => self.warnings.skipped += 1,
            LineKind::Record { job, clamped } => {
                let submit = job.submit.secs();
                if submit < self.last_submit {
                    return Err(format!(
                        "submit time {submit} is before the previous job's {}: \
                         the log must list jobs in submit order",
                        self.last_submit
                    ));
                }
                self.warnings.clamped += usize::from(clamped);
                self.last_submit = submit;
                self.ring.push_back(job);
            }
        }
        Ok(())
    }
}

impl<R: BufRead + Send> JobSource for StreamingSwfSource<R> {
    fn next_job(&mut self) -> Option<Job> {
        if self.ring.is_empty() {
            self.refill();
        }
        self.ring.pop_front()
    }

    fn remaining(&self) -> Option<usize> {
        // Length is unknown until EOF; after it, only the ring is left.
        self.done.then_some(self.ring.len())
    }

    fn finite(&self) -> bool {
        // Files end; the length is just not known until EOF.
        true
    }

    fn error(&self) -> Option<&SwfError> {
        self.error.as_ref()
    }

    fn label(&self) -> String {
        format!("swf-stream[{}]", self.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_minimal_log() {
        let text = "\
; UnixStartTime: 0
; MaxProcs: 128
1 0 5 100 4 -1 -1 4 200 -1 1 1 1 -1 1 -1 -1 -1
2 10 0 50 1 -1 -1 -1 -1 -1 1 2 1 -1 1 -1 -1 -1
";
        let trace = parse(text).unwrap();
        assert_eq!(trace.jobs.len(), 2);
        assert_eq!(trace.warnings, SwfWarnings::default());
        let j = &trace.jobs[0];
        assert_eq!(j.submit.secs(), 0);
        assert_eq!(j.run, 100);
        assert_eq!(j.estimate, 200);
        assert_eq!(j.procs, 4);
        // Second job: requested procs missing, falls back to allocated;
        // estimate missing, falls back to run.
        let k = &trace.jobs[1];
        assert_eq!(k.procs, 1);
        assert_eq!(k.estimate, 50);
        assert_eq!(k.id, JobId(1), "dense ids in file order");
    }

    #[test]
    fn clamps_underestimates() {
        let text = "1 0 0 1000 4 -1 -1 4 600 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let trace = parse(text).unwrap();
        assert_eq!(trace.jobs[0].estimate, 1000, "estimate clamped up to run");
    }

    #[test]
    fn skips_unusable_records() {
        let text = "\
1 0 0 -1 4 -1 -1 4 100 -1 0 -1 -1 -1 -1 -1 -1 -1
2 5 0 100 -1 -1 -1 -1 -1 -1 0 -1 -1 -1 -1 -1 -1 -1
3 9 0 100 2 -1 -1 2 100 -1 1 -1 -1 -1 -1 -1 -1 -1
";
        let trace = parse(text).unwrap();
        assert_eq!(trace.jobs.len(), 1);
        assert_eq!(trace.warnings.skipped, 2);
    }

    #[test]
    fn tolerates_short_lines_mid_file() {
        let text = "\
1 0 0 100 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1
2 3 9
3 10 0 50 2 -1 -1 2 50 -1 1 -1 -1 -1 -1 -1 -1 -1
";
        let trace = parse(text).unwrap();
        assert_eq!(trace.jobs.len(), 2, "short line dropped, rest imported");
        assert_eq!(trace.warnings.short_lines, 1);
    }

    #[test]
    fn clamps_negative_submit_with_warning() {
        let text = "1 -50 0 100 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let trace = parse(text).unwrap();
        assert_eq!(trace.jobs[0].submit.secs(), 0);
        assert_eq!(trace.warnings.clamped, 1);
    }

    #[test]
    fn rejects_non_numeric_fields() {
        for line in [
            "1 2 three 4 5 6 7 8 9 10 11\n",
            "1 nan 0 4 5 6 7 8 9 10 11\n",
            "1 2 0 inf 5 6 7 8 9 10 11\n",
        ] {
            let err = parse(line).unwrap_err();
            assert_eq!(err.line, 1);
            assert!(err.to_string().contains("non-numeric"), "{line}");
        }
    }

    #[test]
    fn rejects_numbers_outside_the_model_with_line_and_field() {
        let ok = "1 0 0 100 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        for (line, field) in [
            (
                "2 0 0 100 4294967296 -1 -1 -1 100 -1 1 -1 -1 -1 -1 -1 -1 -1",
                "allocated processors (field 5) 4294967296",
            ),
            (
                "2 0 0 100 4 -1 -1 1e10 100 -1 1 -1 -1 -1 -1 -1 -1 -1",
                "requested processors (field 8) 10000000000",
            ),
            (
                "2 1099511627777 0 100 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1",
                "submit time (field 2) 1099511627777",
            ),
            (
                "2 0 0 9223372036854775807 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1",
                "run time (field 4) 9223372036854775807",
            ),
            (
                "2 0 0 1e308 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1",
                "run time (field 4) 1e308",
            ),
            (
                "2 0 0 100 4 -1 -1 4 2e12 -1 1 -1 -1 -1 -1 -1 -1 -1",
                "requested time (field 9) 2e12",
            ),
        ] {
            let err = parse(&format!("{ok}{line}\n")).unwrap_err();
            assert_eq!(err.line, 2, "{line}");
            assert!(err.message.starts_with(field), "{line}: {err}");
        }
        // At the bound, with a huge memory request, the line imports.
        let edge = "1 1099511627776 0 1099511627776 4 -1 -1 4 1099511627776 \
                    9223372036854775807 1 -1 -1 -1 -1 -1 -1 -1\n";
        let job = &parse(edge).unwrap().jobs[0];
        assert_eq!(
            (job.submit.secs(), job.run, job.mem_mb),
            (1 << 40, 1 << 40, 1024)
        );
        // A short line is dropped and counted whatever its numbers.
        let short = parse("1 1e300 0\n").unwrap();
        assert_eq!(short.warnings.short_lines, 1);
    }

    #[test]
    fn rejects_an_out_of_order_submit_naming_its_line() {
        let text = "\
1 100 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1
2 50 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1
";
        let err = parse(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("submit order"), "{err}");
        // Equal submits are in order; a clamped negative one counts as 0.
        let text = "\
1 0 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1
2 -7 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1
";
        assert_eq!(parse(text).unwrap().jobs.len(), 2);
    }

    #[test]
    fn comments_are_skipped_undecoded_and_data_lines_must_be_utf8() {
        let mut log = b"; Installation: Universit\xe4t\n".to_vec();
        log.extend_from_slice(b"  ;\xff indented comment\n");
        log.extend_from_slice(b"1 0 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
        let mut stream = StreamingSwfSource::from_reader(Cursor::new(log.clone()), "latin1");
        assert!(stream.next_job().is_some());
        assert!(stream.next_job().is_none());
        assert_eq!(stream.error(), None);
        log.extend_from_slice(b"2 5 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 \xe4 -1 -1 -1\n");
        let mut stream = StreamingSwfSource::from_reader(Cursor::new(log), "latin1");
        while stream.next_job().is_some() {}
        let err = stream.error().expect("a non-UTF-8 data line is an error");
        assert_eq!(err.line, 4);
        assert!(err.message.starts_with("not UTF-8"), "{err}");
    }

    #[test]
    fn read_failures_end_the_stream_with_an_error() {
        struct Broken;
        impl std::io::Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let mut stream = StreamingSwfSource::from_reader(BufReader::new(Broken), "broken");
        assert!(stream.next_job().is_none());
        let err = stream.error().expect("the read failure is kept");
        assert_eq!(err.to_string(), "SWF line 1: read failed: disk on fire");
        assert_eq!(stream.remaining(), Some(0));
        let dir = std::env::temp_dir();
        let refused = StreamingSwfSource::open(&dir).err().expect("a directory");
        assert_eq!(refused.to_string(), "is a directory");
    }

    #[test]
    fn write_parse_roundtrip() {
        use crate::synthetic::SyntheticConfig;
        use crate::traces::SDSC;
        let jobs = SyntheticConfig::new(SDSC, 33).with_jobs(250).generate();
        let text = write(&jobs);
        let back = parse(&text).unwrap();
        assert_eq!(back.warnings.skipped, 0);
        assert_eq!(back.jobs.len(), jobs.len());
        for (a, b) in jobs.iter().zip(back.jobs.iter()) {
            assert_eq!(a.submit, b.submit);
            assert_eq!(a.run, b.run);
            assert_eq!(a.estimate, b.estimate);
            assert_eq!(a.procs, b.procs);
            assert_eq!(a.mem_mb, b.mem_mb);
        }
    }

    #[test]
    fn accepts_fractional_fields() {
        // Some archive logs carry fractional average-CPU fields.
        let text = "1 0 0 100 4 99.5 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let trace = parse(text).unwrap();
        assert_eq!(trace.jobs.len(), 1);
    }

    #[test]
    fn readahead_does_not_change_the_stream() {
        use crate::synthetic::SyntheticConfig;
        use crate::traces::SDSC;
        let jobs = SyntheticConfig::new(SDSC, 9).with_jobs(500).generate();
        let text = write(&jobs);
        let whole = parse(&text).unwrap().jobs;
        let stream = StreamingSwfSource::from_reader(Cursor::new(text), "test").with_readahead(16);
        let mut shaped = crate::ShapedSource::new(stream, 1.0, None, 0, u32::MAX);
        let mut streamed = Vec::new();
        while let Some(j) = shaped.next_job() {
            streamed.push(j);
        }
        assert_eq!(streamed, whole);
        assert_eq!(shaped.inner().warnings(), SwfWarnings::default());
        assert!(shaped.inner().peak_buffered() <= 16);
    }

    #[test]
    fn streaming_ring_stays_bounded() {
        let mut text = String::new();
        for i in 0..10_000 {
            writeln!(text, "{i} {i} 0 60 2 -1 -1 2 60 -1 1 -1 -1 -1 -1 -1 -1 -1").unwrap();
        }
        let mut stream =
            StreamingSwfSource::from_reader(Cursor::new(text), "bound").with_readahead(64);
        let mut n = 0usize;
        while stream.next_job().is_some() {
            n += 1;
        }
        assert_eq!(n, 10_000);
        assert!(
            stream.peak_buffered() <= 64,
            "ring exceeded its cap: {}",
            stream.peak_buffered()
        );
    }

    #[test]
    fn streaming_counts_warnings_like_parse() {
        let text = "\
; comment
1 -5 0 100 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1
2 3 9
3 10 0 -1 2 -1 -1 2 50 -1 0 -1 -1 -1 -1 -1 -1 -1
4 20 0 50 2 -1 -1 2 50 -1 1 -1 -1 -1 -1 -1 -1 -1
";
        let mut stream = StreamingSwfSource::from_reader(Cursor::new(text), "warn");
        let mut got = Vec::new();
        while let Some(j) = stream.next_job() {
            got.push(j);
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].submit.secs(), 0, "negative submit clamped");
        assert_eq!(got[1].submit.secs(), 20, "the unusable line is skipped");
        let w = stream.warnings();
        assert_eq!((w.skipped, w.short_lines, w.clamped), (1, 1, 1));
    }

    #[test]
    fn streaming_ends_at_an_unsorted_line() {
        let text = "\
1 100 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1
2 50 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1
3 200 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1
";
        let mut stream = StreamingSwfSource::from_reader(Cursor::new(text), "unsorted");
        assert_eq!(stream.next_job().map(|j| j.submit.secs()), Some(100));
        assert!(stream.next_job().is_none(), "the stream ends at line 2");
        assert_eq!(stream.error().map(|e| e.line), Some(2));
    }

    #[test]
    fn streaming_remaining_contract() {
        let text = "1 0 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let mut stream = StreamingSwfSource::from_reader(Cursor::new(text), "rem");
        assert_eq!(stream.remaining(), None, "unknown before EOF");
        assert!(stream.next_job().is_some());
        assert!(stream.next_job().is_none());
        assert_eq!(stream.remaining(), Some(0));
        assert_eq!(stream.label(), "swf-stream[rem]");
    }

    #[test]
    fn chunked_writer_produces_a_streamable_monotone_log() {
        let path = std::env::temp_dir().join(format!("sps-chunked-{}.swf", std::process::id()));
        write_chunked(&path, crate::traces::SDSC, 7, 250, 100).expect("write log");
        let text = std::fs::read_to_string(&path).expect("read back");
        let trace = parse(&text).expect("chunked output parses");
        assert_eq!(trace.jobs.len(), 250);
        assert_eq!(trace.warnings.skipped, 0);
        // Nondecreasing across batch boundaries — the whole point.
        for w in trace.jobs.windows(2) {
            assert!(w[0].submit <= w[1].submit, "monotone submits");
        }
        // And the streaming reader agrees with the materialized parse.
        let stream = StreamingSwfSource::open(&path)
            .expect("open")
            .with_readahead(16);
        let mut shaped = crate::ShapedSource::new(stream, 1.0, None, 0, u32::MAX);
        let mut streamed = Vec::new();
        while let Some(j) = shaped.next_job() {
            streamed.push(j);
        }
        assert_eq!(streamed, trace.jobs);
        let _ = std::fs::remove_file(&path);
    }
}
