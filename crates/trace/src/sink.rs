//! Trace sinks: where records go.
//!
//! The simulator is generic over [`TraceSink`] with [`NullSink`] as the
//! default type parameter, mirroring `HashMap`'s hasher parameter. With
//! `NullSink`, `enabled()` is a compile-time `false`, so every emission
//! site — including the record construction it guards — folds away to
//! nothing; tracing costs nothing unless you opt in.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::record::{GaugeTail, TraceRecord};

/// Consumer of trace records.
///
/// `record` takes a reference so sinks that only serialize need not clone;
/// [`MemorySink`] clones internally.
pub trait TraceSink {
    /// Whether this sink wants records at all. Emission sites check this
    /// before building a record, so a `false` here (constant-folded for
    /// [`NullSink`]) skips the record construction too.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Consume one record.
    fn record(&mut self, rec: &TraceRecord);

    /// Flush buffered output; report any deferred I/O error.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The no-op sink: statically disabled, compiled away entirely.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _rec: &TraceRecord) {}
}

/// Collects records in memory — for tests and in-process analysis.
#[derive(Clone, Debug, Default)]
pub struct MemorySink {
    records: Vec<TraceRecord>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The records collected so far.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Consume the sink, returning its records.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, rec: &TraceRecord) {
        self.records.push(rec.clone());
    }
}

/// Writes one JSON object per line (JSONL). The format round-trips through
/// [`TraceRecord::parse_line`] and is what the replay validator consumes.
/// Each record's [`TraceRecord::write_json`] line is encoded into one
/// reused line buffer and handed to the writer in a single `write_all`.
/// The sink keeps the last gauge's encoded counts, so a gauge whose counts
/// repeat (most of an observed run's records) encodes only its `t`.
///
/// I/O errors are deferred: the first error stops further writes and is
/// reported by [`TraceSink::flush`] (and by [`JsonlSink::finish`]).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    w: W,
    line: String,
    gauge_tail: GaugeTail,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer. For files, prefer [`JsonlSink::create`], which
    /// buffers.
    pub fn new(w: W) -> Self {
        JsonlSink {
            w,
            line: String::new(),
            gauge_tail: GaugeTail::default(),
            error: None,
        }
    }

    /// Flush and return the underlying writer, or the first deferred error.
    pub fn finish(mut self) -> io::Result<W> {
        self.w.flush()?;
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.w),
        }
    }

    /// The underlying writer, discarding any deferred error.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl JsonlSink<BufWriter<File>> {
    /// Create (truncating) a JSONL trace file with a buffered writer.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        self.gauge_tail.write_json(rec, &mut self.line);
        self.line.push('\n');
        if let Err(e) = self.w.write_all(self.line.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.w.flush()
    }
}

/// Writes the flat CSV encoding (header row first). Lossier than JSONL —
/// the embedded experiment config is dropped — but loads directly into
/// spreadsheets and dataframe libraries. Like [`JsonlSink`], each record
/// is encoded by [`TraceRecord::write_csv_row`] into one reused line
/// buffer and handed to the writer in a single `write_all`; I/O errors
/// are deferred the same way.
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    w: W,
    line: String,
    wrote_header: bool,
    error: Option<io::Error>,
}

impl<W: Write> CsvSink<W> {
    /// Wrap a writer.
    pub fn new(w: W) -> Self {
        CsvSink {
            w,
            line: String::new(),
            wrote_header: false,
            error: None,
        }
    }

    /// Flush and return the underlying writer, or the first deferred error.
    pub fn finish(mut self) -> io::Result<W> {
        self.w.flush()?;
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.w),
        }
    }

    /// The underlying writer, discarding any deferred error.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl CsvSink<BufWriter<File>> {
    /// Create (truncating) a CSV trace file with a buffered writer.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(CsvSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> TraceSink for CsvSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        if !self.wrote_header {
            self.line.push_str(&TraceRecord::CSV_COLUMNS.join(","));
            self.line.push('\n');
            self.wrote_header = true;
        }
        rec.write_csv_row(&mut self.line);
        self.line.push('\n');
        if let Err(e) = self.w.write_all(self.line.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.w.flush()
    }
}

/// A sink behind a mutable reference is itself a sink — lets callers keep
/// ownership (e.g. to read a [`MemorySink`] after the run).
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn record(&mut self, rec: &TraceRecord) {
        (**self).record(rec)
    }

    fn flush(&mut self) -> io::Result<()> {
        (**self).flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::JobEvent;

    fn rec(t: i64) -> TraceRecord {
        TraceRecord::Job {
            t,
            job: 1,
            event: JobEvent::Arrival,
            procs: None,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let mut sink = MemorySink::new();
        sink.record(&rec(1));
        sink.record(&rec(2));
        assert_eq!(sink.records().len(), 2);
        assert_eq!(sink.into_records()[1].time(), Some(2));
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&rec(7));
        sink.record(&rec(8));
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(TraceRecord::parse_line(lines[0]).unwrap(), rec(7));
    }

    #[test]
    fn csv_sink_writes_header_once() {
        let mut sink = CsvSink::new(Vec::new());
        sink.record(&rec(1));
        sink.record(&rec(2));
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("record,t,job,"));
    }

    #[test]
    fn mut_ref_forwards() {
        // Takes the sink by value, so `&mut MemorySink` itself must
        // implement the trait (the blanket forwarding impl).
        fn drive<S: TraceSink>(mut sink: S) {
            assert!(sink.enabled());
            sink.record(&rec(3));
        }
        let mut inner = MemorySink::new();
        drive(&mut inner);
        assert_eq!(inner.records().len(), 1);
    }
}
