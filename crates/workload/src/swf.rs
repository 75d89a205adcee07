//! Standard Workload Format (SWF) reader, writer, and streaming source.
//!
//! Feitelson's Parallel Workloads Archive — the source of the paper's CTC,
//! SDSC, and KTH traces — distributes logs in SWF: one job per line, 18
//! whitespace-separated integer fields, `;` comment lines. This module
//! lets the simulator consume those files directly, so anyone holding the
//! original logs can rerun every experiment on the real data. Two paths
//! exist:
//!
//! * [`parse`] materializes a whole document into a sorted, densely
//!   renumbered `Vec<Job>` — right for the paper-scale logs,
//! * [`StreamingSwfSource`] feeds a log through the [`JobSource`] seam
//!   incrementally, holding only a bounded read-ahead ring of parsed jobs
//!   — memory stays O(ring), independent of log length, which is what
//!   makes archive-scale (million-job, multi-GB) sweeps possible.
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
//! * jobs with non-positive run time or processor count are skipped
//!   (cancelled-before-start entries) and counted,
//! * data lines with fewer than 11 fields — truncated tails, archive
//!   damage — are tolerated mid-file: dropped and counted rather than
//!   failing the whole import,
//! * negative submit times (clock-skew artifacts in some archive logs)
//!   are clamped to 0 and counted — unclamped they would panic the
//!   simulator's event queue,
//! * requested processors fall back to allocated processors,
//! * the estimate falls back to the run time and is clamped to
//!   `max(estimate, run)` — the simulator never kills jobs at their
//!   estimate, matching the paper's over-estimation-only model,
//! * requested memory (KB/processor) is converted to MiB/processor and
//!   clamped to the paper's [100 MB, 1 GB] band when absent.
//!
//! The streaming path cannot sort, so it **requires** submit times to be
//! nondecreasing and reports a violation as a clean, descriptive panic
//! (sweep workers catch panics per-cell); the materialized [`parse`]
//! sorts and accepts any order.

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

impl SwfWarnings {
    /// Total irregularities of any kind.
    pub fn total(&self) -> usize {
        self.skipped + self.short_lines + self.clamped
    }
}

/// Outcome of parsing: the usable jobs plus counts of skipped records.
#[derive(Clone, Debug, Default)]
pub struct SwfTrace {
    /// Imported jobs, re-numbered densely in input order and sorted by
    /// submit time.
    pub jobs: Vec<Job>,
    /// Records skipped because run time or width was non-positive
    /// (mirror of `warnings.skipped`, kept for existing callers).
    pub skipped: usize,
    /// Full irregularity counters.
    pub warnings: SwfWarnings,
}

impl SwfTrace {
    /// Drop the jobs wider than a `procs`-processor machine (archive logs
    /// can include special partitions) and renumber the rest densely, as
    /// [`parse`] does: the simulator indexes jobs by dense id. Returns how
    /// many jobs were dropped.
    pub fn fit_to(&mut self, procs: u32) -> usize {
        let before = self.jobs.len();
        self.jobs.retain(|j| j.procs <= procs);
        renumber(&mut self.jobs);
        before - self.jobs.len()
    }
}

/// Give jobs dense ids in their current order.
fn renumber(jobs: &mut [Job]) {
    for (i, j) in jobs.iter_mut().enumerate() {
        j.id = JobId(i as u32);
    }
}

/// One classified input line.
enum LineKind {
    /// Blank or `;` comment.
    Skip,
    /// Data line with fewer than 11 fields — tolerated, counted.
    Short,
    /// Semantically unusable record (non-positive run or width).
    Unusable,
    /// A usable record.
    Record(RawRecord),
}

/// The fields of one usable record, already folded through the import
/// policy (fallbacks applied, memory converted, submit clamped).
struct RawRecord {
    submit: i64,
    run: i64,
    estimate: i64,
    procs: u32,
    mem_mb: u32,
    /// Whether a field was clamped into the model's domain.
    clamped: bool,
}

impl RawRecord {
    /// Materialize as a [`Job`] under the given dense id.
    fn job(&self, id: u32) -> Job {
        Job {
            id: JobId(id),
            submit: SimTime::new(self.submit),
            run: self.run,
            estimate: self.estimate,
            procs: self.procs,
            mem_mb: self.mem_mb,
        }
    }
}

/// Classify one line. Shared by the materialized and streaming parsers so
/// both apply the exact same import policy; errors only on non-numeric
/// fields (structural damage worth surfacing, unlike a truncated tail).
fn classify(raw: &str, lineno: usize) -> Result<LineKind, SwfError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with(';') {
        return Ok(LineKind::Skip);
    }
    // Capture the six fields the model uses while validating every token;
    // no per-line Vec — this is the hot loop of million-job ingestion.
    let (mut submit, mut run, mut alloc, mut req_procs, mut req_time, mut req_mem) =
        (-1i64, -1i64, -1i64, -1i64, -1i64, -1i64);
    let mut n = 0usize;
    for tok in line.split_whitespace() {
        let v = tok.parse::<f64>().map_err(|_| SwfError {
            line: lineno,
            message: format!("non-numeric field {tok:?}"),
        })? as i64;
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
    let procs = if req_procs > 0 { req_procs } else { alloc };
    if run <= 0 || procs <= 0 {
        return Ok(LineKind::Unusable);
    }
    let clamped = submit < 0;
    let submit = submit.max(0);
    let estimate = if req_time > 0 { req_time.max(run) } else { run };
    // SWF records requested memory in KB *per processor*; the simulator's
    // overhead model wants the job total, clamped to the paper's
    // 100 MB – 1 GB band.
    let mem_mb = if req_mem > 0 {
        (((req_mem * procs + 512) / 1024).clamp(100, 1024)) as u32
    } else {
        512
    };
    Ok(LineKind::Record(RawRecord {
        submit,
        run,
        estimate,
        procs: procs as u32,
        mem_mb,
        clamped,
    }))
}

/// Parse SWF text into a materialized trace. Returns an error only for
/// structurally malformed lines (non-integer fields); short lines and
/// semantically unusable jobs are counted in [`SwfTrace::warnings`]
/// instead. Jobs are sorted by submit time and renumbered densely, so any
/// input order is accepted.
pub fn parse(text: &str) -> Result<SwfTrace, SwfError> {
    let mut jobs = Vec::new();
    let mut warnings = SwfWarnings::default();
    for (lineno, raw) in text.lines().enumerate() {
        match classify(raw, lineno + 1)? {
            LineKind::Skip => {}
            LineKind::Short => warnings.short_lines += 1,
            LineKind::Unusable => warnings.skipped += 1,
            LineKind::Record(rec) => {
                if rec.clamped {
                    warnings.clamped += 1;
                }
                jobs.push(rec.job(jobs.len() as u32));
            }
        }
    }
    jobs.sort_by_key(|j| (j.submit, j.id));
    renumber(&mut jobs);
    Ok(SwfTrace {
        jobs,
        skipped: warnings.skipped,
        warnings,
    })
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

/// An incremental SWF reader implementing [`JobSource`]: parses the log
/// line by line into a bounded read-ahead ring, so peak memory is
/// O(read-ahead) no matter how long the log is. Ids are assigned densely
/// in emission order (the file's own job numbers are ignored, as in
/// [`parse`]); submit times must be nondecreasing — the stream cannot
/// sort — and a violation panics with a descriptive message naming the
/// line (batch workers catch panics per run and surface them as cell
/// errors). I/O errors panic the same way.
pub struct StreamingSwfSource<R = BufReader<File>> {
    reader: R,
    label: String,
    ring: VecDeque<Job>,
    readahead: usize,
    line: String,
    lineno: usize,
    next_id: u32,
    last_submit: i64,
    warnings: SwfWarnings,
    peak_buffered: usize,
    done: bool,
}

impl StreamingSwfSource<BufReader<File>> {
    /// Stream the log at `path`.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        let label = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        Ok(Self::from_reader(BufReader::new(File::open(path)?), &label))
    }
}

impl<R: BufRead> StreamingSwfSource<R> {
    /// Stream from any buffered reader; `label` names the stream in
    /// reports and panic messages.
    pub fn from_reader(reader: R, label: &str) -> Self {
        StreamingSwfSource {
            reader,
            label: label.to_string(),
            ring: VecDeque::new(),
            readahead: DEFAULT_READAHEAD,
            line: String::new(),
            lineno: 0,
            next_id: 0,
            last_submit: 0,
            warnings: SwfWarnings::default(),
            peak_buffered: 0,
            done: false,
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

    /// Jobs emitted so far.
    pub fn emitted(&self) -> u32 {
        self.next_id - self.ring.len() as u32
    }

    /// Top the ring up to the read-ahead cap.
    fn refill(&mut self) {
        while self.ring.len() < self.readahead && !self.done {
            self.line.clear();
            let read = self
                .reader
                .read_line(&mut self.line)
                .unwrap_or_else(|e| panic!("SWF stream {}: read failed: {e}", self.label));
            if read == 0 {
                self.done = true;
                break;
            }
            self.lineno += 1;
            let kind = classify(&self.line, self.lineno)
                .unwrap_or_else(|e| panic!("SWF stream {}: {e}", self.label));
            match kind {
                LineKind::Skip => {}
                LineKind::Short => self.warnings.short_lines += 1,
                LineKind::Unusable => self.warnings.skipped += 1,
                LineKind::Record(rec) => {
                    if rec.clamped {
                        self.warnings.clamped += 1;
                    }
                    assert!(
                        rec.submit >= self.last_submit,
                        "SWF stream {} line {}: non-monotone submit time {} after {} — \
                         streaming ingestion cannot sort; materialize with \
                         sps_workload::swf::parse instead",
                        self.label,
                        self.lineno,
                        rec.submit,
                        self.last_submit,
                    );
                    self.last_submit = rec.submit;
                    self.ring.push_back(rec.job(self.next_id));
                    self.next_id += 1;
                }
            }
        }
        self.peak_buffered = self.peak_buffered.max(self.ring.len());
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
        assert_eq!(trace.skipped, 0);
        assert_eq!(trace.warnings.total(), 0);
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
        assert_eq!(trace.skipped, 2);
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
        let err = parse("1 2 three 4 5 6 7 8 9 10 11\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("non-numeric"));
    }

    #[test]
    fn sorts_by_submit_and_renumbers() {
        let text = "\
1 100 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1
2 50 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1
";
        let trace = parse(text).unwrap();
        assert_eq!(trace.jobs[0].submit.secs(), 50);
        assert_eq!(trace.jobs[0].id, JobId(0));
        assert_eq!(trace.jobs[1].id, JobId(1));
    }

    #[test]
    fn fit_to_drops_wide_jobs_and_renumbers() {
        let text = "\
1 0 0 10 4 -1 -1 4 10 -1 1 -1 -1 -1 -1 -1 -1 -1
2 5 0 10 64 -1 -1 64 10 -1 1 -1 -1 -1 -1 -1 -1 -1
3 9 0 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1
";
        let mut trace = parse(text).unwrap();
        assert_eq!(trace.fit_to(32), 1);
        let kept: Vec<_> = trace.jobs.iter().map(|j| (j.id, j.procs)).collect();
        assert_eq!(kept, [(JobId(0), 4), (JobId(1), 2)]);
    }

    #[test]
    fn write_parse_roundtrip() {
        use crate::synthetic::SyntheticConfig;
        use crate::traces::SDSC;
        let jobs = SyntheticConfig::new(SDSC, 33).with_jobs(250).generate();
        let text = write(&jobs);
        let back = parse(&text).unwrap();
        assert_eq!(back.skipped, 0);
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
    fn streaming_matches_materialized_on_sorted_log() {
        use crate::synthetic::SyntheticConfig;
        use crate::traces::SDSC;
        let jobs = SyntheticConfig::new(SDSC, 9).with_jobs(500).generate();
        let text = write(&jobs);
        let materialized = parse(&text).unwrap().jobs;
        let mut stream =
            StreamingSwfSource::from_reader(Cursor::new(text), "test").with_readahead(16);
        let mut streamed = Vec::new();
        while let Some(j) = stream.next_job() {
            streamed.push(j);
        }
        assert_eq!(streamed, materialized);
        assert_eq!(stream.warnings().total(), 0);
        assert!(stream.peak_buffered() <= 16);
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
        assert_eq!(got[1].id, JobId(1), "dense ids in emission order");
        let w = stream.warnings();
        assert_eq!((w.skipped, w.short_lines, w.clamped), (1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "non-monotone submit")]
    fn streaming_rejects_unsorted_log() {
        let text = "\
1 100 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1
2 50 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1
";
        let mut stream = StreamingSwfSource::from_reader(Cursor::new(text), "unsorted");
        while stream.next_job().is_some() {}
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
        assert_eq!(trace.skipped, 0);
        // Nondecreasing across batch boundaries — the whole point.
        for w in trace.jobs.windows(2) {
            assert!(w[0].submit <= w[1].submit, "monotone submits");
        }
        // And the streaming reader agrees with the materialized parse.
        let mut stream = StreamingSwfSource::open(&path)
            .expect("open")
            .with_readahead(16);
        let mut streamed = Vec::new();
        while let Some(j) = stream.next_job() {
            streamed.push(j);
        }
        assert_eq!(streamed, trace.jobs);
        let _ = std::fs::remove_file(&path);
    }
}
