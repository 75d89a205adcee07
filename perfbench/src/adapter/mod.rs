//! The benchmark's one adapter: every call into the simulator's crates is
//! made from this module or its decorators in [`wrap`]. The rest of the
//! benchmark sees numbers and strings only, so when the program's API
//! changes (ROADMAP item 1 folds `run_mega_sweep`/`MegaSweepSpec` into
//! the sweep engine) this is the one place to update.
//!
//! A workload's batch is split into **chunks**, each one call of a public
//! entry point on a sub-grid (one replication seed of a sweep, or one
//! observed run), so the timed phase can bracket every chunk with a
//! measurement of the host's speed. Chunks keep the batch's work: a
//! replication seed's runs share their traces within its chunk exactly
//! as they do in one call over the whole grid.
//!
//! Three pipelines run every workload:
//!
//! * the **plain pass** ([`Prepared::run_chunk`]) calls the public entry
//!   points users call — `run_sweep`, `run_mega_sweep`, or `RunBuilder`
//!   with a JSONL sink and a `Telemetry` sink — with no decorator
//!   attached;
//! * the **spot check** ([`Prepared::check`]) re-runs the first chunk one
//!   run at a time through `RunBuilder::simulate` and compares;
//! * the **traced pass** ([`Prepared::traced_pass`]) rebuilds every run
//!   from `Simulator::traced_source` and the same `with_*` chain
//!   `RunBuilder::simulate` applies, with the [`wrap`] decorators on the
//!   policy, the job source and the sinks, and mirrors the per-run
//!   pipelines of `run_sweep` and `run_mega_sweep` (trace cache, streamed
//!   and shaped SWF source, lean runs, `RunSummary::fold`,
//!   `CellStats::from_summaries`).

mod wrap;

use std::collections::HashSet;
use std::io;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sps_core::experiment::{ExperimentConfig, SchedulerKind};
use sps_core::mega::{run_mega_sweep, MegaSweepSpec};
use sps_core::sweep::{run_sweep, CellStats, RunSummary, SweepReport, SweepSpec};
use sps_core::{RunBuilder, RunUntil, SimResult, Simulator};
use sps_simcore::Watchdog;
use sps_telemetry::{NullTelemetry, Telemetry, TelemetrySink};
use sps_trace::{
    validate_jsonl, JsonlSink, NullSink, ReplayOptions, TraceRecord, TraceSink, TRACE_VERSION,
};
use sps_workload::traces::{CTC, SDSC};
use sps_workload::{
    swf, EstimateModel, JobSource, ShapedSource, StreamingSwfSource, SystemPreset, TraceCache,
    TraceSource,
};

use crate::stats::{epoch_ns, CountingWriter, DigestWriter, Span};
pub use wrap::Tally;
use wrap::{TimedPolicy, TimedSink, TimedSource, TimedTelemetry};

/// Jobs per synthetic trace (paper_grid, ctc_saturated, observed_runs).
const JOBS_PER_TRACE: usize = 5000;
/// Jobs in the swf_stream log.
const SWF_JOBS: usize = 200_000;
/// Jobs per generator batch of `swf::write_chunked` (the `mega_sweep`
/// bench's value).
const SWF_CHUNK: usize = 50_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperGrid,
    CtcSaturated,
    SwfStream,
    ObservedRuns,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::CtcSaturated,
        Workload::SwfStream,
        Workload::ObservedRuns,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::CtcSaturated => "ctc_saturated",
            Workload::SwfStream => "swf_stream",
            Workload::ObservedRuns => "observed_runs",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The paper's scheduler axis: NS, IS, and SS and TSS at SF 1.5/2/3/5/10.
fn paper_schedulers() -> Vec<SchedulerKind> {
    let sfs = [1.5, 2.0, 3.0, 5.0, 10.0];
    let mut kinds = vec![SchedulerKind::Easy, SchedulerKind::ImmediateService];
    kinds.extend(sfs.iter().map(|&sf| SchedulerKind::Ss { sf }));
    kinds.extend(sfs.iter().map(|&sf| SchedulerKind::Tss { sf }));
    kinds
}

/// A workload's chunks: one sub-grid per entry-point call.
enum Plan {
    /// Synthetic grids through `run_sweep` on a fixed worker count.
    Sweep {
        chunks: Vec<SweepSpec>,
        threads: usize,
    },
    /// Streamed SWF grids through `run_mega_sweep`.
    Mega {
        chunks: Vec<MegaSweepSpec>,
        threads: usize,
    },
    /// Observed runs on the calling thread, one run per chunk; the specs
    /// only name each run's grid.
    Observed { chunks: Vec<SweepSpec> },
}

/// One workload's inputs, built from the seed by [`prepare`].
pub struct Prepared {
    plan: Plan,
    /// Every run's configuration: chunk by chunk, each cell-major as the
    /// sweeps expand it.
    configs: Vec<Arc<ExperimentConfig>>,
    /// Each chunk's runs in `configs`.
    bounds: Vec<Range<usize>>,
    /// Start and duration (ns) of the set-up's `swf::write_chunked`.
    write: Option<(u64, u64)>,
}

/// Build the program's inputs for `workload` from `base_seed`: the
/// benchmark's set-up. swf_stream writes its log into `scratch` here.
pub fn prepare(workload: Workload, base_seed: u64, scratch: &Path) -> io::Result<Prepared> {
    // One chunk per replication seed: `run_sweep` over the whole grid
    // gives replication `r` trace seed `base_seed + r`.
    let synthetic = |system, schedulers: &[SchedulerKind], loads: &[f64], rep: u64| {
        SweepSpec::new(system)
            .with_schedulers(schedulers.to_vec())
            .with_loads(loads.to_vec())
            .with_jobs(JOBS_PER_TRACE)
            .with_seed(base_seed + rep)
            .with_reps(1)
    };
    let mut write = None;
    let plan = match workload {
        Workload::PaperGrid => Plan::Sweep {
            chunks: (0..10)
                .map(|r| synthetic(SDSC, &paper_schedulers(), &[0.7, 0.85, 1.0], r))
                .collect(),
            threads: 2,
        },
        Workload::CtcSaturated => {
            let schedulers = [
                SchedulerKind::Ss { sf: 2.0 },
                SchedulerKind::Tss { sf: 2.0 },
            ];
            Plan::Sweep {
                chunks: (0..24)
                    .map(|r| synthetic(CTC, &schedulers, &[2.0], r))
                    .collect(),
                threads: 1,
            }
        }
        Workload::SwfStream => {
            let path = swf_path(scratch, base_seed);
            let t = Instant::now();
            swf::write_chunked(&path, SDSC, base_seed, SWF_JOBS, SWF_CHUNK)?;
            write = Some((epoch_ns(t), t.elapsed().as_nanos() as u64));
            // One chunk per cell, its two replications side by side on
            // the two workers: runs of one cell take about as long as each
            // other, where a chunk that mixed NS and TSS runs would leave
            // a worker idle for a quarter of the batch.
            let mut chunks = Vec::new();
            for scheduler in [SchedulerKind::Easy, SchedulerKind::Tss { sf: 2.0 }] {
                for load in [0.85, 1.0] {
                    chunks.push(
                        MegaSweepSpec::new(&path, SDSC.procs)
                            .with_schedulers(vec![scheduler])
                            .with_loads(vec![load])
                            .with_seed(base_seed)
                            .with_reps(2)
                            .with_estimates(Some(EstimateModel::paper_mixture())),
                    );
                }
            }
            Plan::Mega { chunks, threads: 2 }
        }
        Workload::ObservedRuns => {
            let mut chunks = Vec::new();
            for scheduler in [
                SchedulerKind::Easy,
                SchedulerKind::ImmediateService,
                SchedulerKind::Ss { sf: 2.0 },
                SchedulerKind::Tss { sf: 2.0 },
            ] {
                for load in [0.7, 1.0] {
                    chunks.extend((0..2).map(|r| synthetic(SDSC, &[scheduler], &[load], r)));
                }
            }
            Plan::Observed { chunks }
        }
    };
    let invalid = |e: sps_core::experiment::ConfigError| {
        io::Error::new(io::ErrorKind::InvalidInput, e.to_string())
    };
    let mut configs = Vec::new();
    let mut bounds = Vec::new();
    let mut push = |chunk: Vec<Arc<ExperimentConfig>>| {
        bounds.push(configs.len()..configs.len() + chunk.len());
        configs.extend(chunk);
    };
    match &plan {
        Plan::Sweep { chunks, .. } | Plan::Observed { chunks } => {
            for spec in chunks {
                spec.validate().map_err(invalid)?;
                push(spec.expand().into_iter().map(Arc::new).collect());
            }
            check_traces(&configs)?;
        }
        Plan::Mega { chunks, .. } => {
            for spec in chunks {
                spec.validate().map_err(invalid)?;
                push(mega_configs(spec));
            }
        }
    }
    Ok(Prepared {
        plan,
        configs,
        bounds,
        write,
    })
}

/// Generate every distinct synthetic input once and check that it holds
/// the configured number of jobs and that each job fits the machine. The
/// traces are dropped: the timed phase regenerates them through the
/// `TraceCache`, as users' sweeps do.
fn check_traces(configs: &[Arc<ExperimentConfig>]) -> io::Result<()> {
    let mut seen = HashSet::new();
    for cfg in configs.iter().filter(|c| seen.insert(c.trace_key())) {
        let jobs = cfg.trace();
        if jobs.len() != cfg.n_jobs || jobs.iter().any(|j| j.procs > cfg.system.procs) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "trace seed {} load {}: {} jobs, expected {} fitting {} processors",
                    cfg.seed,
                    cfg.load_factor,
                    jobs.len(),
                    cfg.n_jobs,
                    cfg.system.procs
                ),
            ));
        }
    }
    Ok(())
}

/// A mega-sweep's per-run configurations. `MegaSweepSpec`'s own
/// expansion is private; this mirrors it.
fn mega_configs(spec: &MegaSweepSpec) -> Vec<Arc<ExperimentConfig>> {
    let preset = SystemPreset {
        name: "SWF",
        procs: spec.procs,
        max_width: spec.procs,
        ..SDSC
    };
    let mut configs = Vec::with_capacity(spec.runs());
    for &scheduler in &spec.schedulers {
        for &load in &spec.loads {
            for rep in 0..spec.reps {
                configs.push(Arc::new(
                    ExperimentConfig::new(preset, scheduler)
                        .with_jobs(1)
                        .with_seed(spec.base_seed + rep as u64)
                        .with_load_factor(load)
                        .with_overhead(spec.overhead)
                        .with_tick_period(spec.tick_period),
                ));
            }
        }
    }
    configs
}

fn swf_path(scratch: &Path, base_seed: u64) -> PathBuf {
    scratch.join(format!("swf_stream-{base_seed}.swf"))
}

/// The plain pass's output for one chunk, or, merged, for one round of
/// the batch.
#[derive(Clone)]
pub struct Round {
    /// Each chunk's `SweepReport::to_csv()`, one after the other.
    csv: String,
    pub attempted: usize,
    /// Runs that panicked, were invalid, budget-skipped, aborted or
    /// incomplete; `failures` describes them.
    pub failed: usize,
    pub failures: Vec<String>,
    /// Simulated jobs completed, in every run but the aborted ones (a
    /// sweep report does not say how far those got).
    pub jobs: u64,
    /// Mean over runs of each run's mean bounded slowdown.
    pub slowdown_mean: f64,
    /// Mean over runs of each run's worst bounded slowdown.
    pub slowdown_worst: f64,
    /// Host wall time of the chunk's entry-point call; of a round, the
    /// sum over its chunks.
    pub wall_s: f64,
    /// Host wall time of each run, nanoseconds, in batch order.
    pub run_ns: Vec<u64>,
    pub workers: usize,
    pub busy_ns: u64,
    pub idle_ns: u64,
    /// Runs a worker took from another worker's queue.
    pub steals: u64,
    cells: Vec<CellStats>,
    /// observed_runs only: the JSONL bytes each run wrote, in config order.
    trace_bytes: Vec<u64>,
}

impl Round {
    /// Whether two repetitions of the same chunk produced the same cells,
    /// to the last digit, and traces of the same lengths.
    pub fn same_output(&self, other: &Round) -> bool {
        // Debug prints every digit of a float, and NaN (a cell whose runs
        // all failed) equal to NaN.
        self.csv == other.csv
            && format!("{:?}", self.cells) == format!("{:?}", other.cells)
            && self.trace_bytes == other.trace_bytes
    }

    /// One round from its chunks, in batch order.
    pub fn merge(parts: Vec<Round>) -> Round {
        let mut round = Round {
            csv: String::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            jobs: 0,
            slowdown_mean: 0.0,
            slowdown_worst: 0.0,
            wall_s: 0.0,
            run_ns: Vec::new(),
            workers: 0,
            busy_ns: 0,
            idle_ns: 0,
            steals: 0,
            cells: Vec::new(),
            trace_bytes: Vec::new(),
        };
        for part in parts {
            round.csv += &part.csv;
            round.attempted += part.attempted;
            round.failed += part.failed;
            round.failures.extend(part.failures);
            round.jobs += part.jobs;
            round.wall_s += part.wall_s;
            round.run_ns.extend(part.run_ns);
            round.workers = round.workers.max(part.workers);
            round.busy_ns += part.busy_ns;
            round.idle_ns += part.idle_ns;
            round.steals += part.steals;
            round.cells.extend(part.cells);
            round.trace_bytes.extend(part.trace_bytes);
        }
        (round.slowdown_mean, round.slowdown_worst) = slowdowns(&round.cells);
        round
    }

    fn from_report(report: SweepReport, jobs_per_run: usize) -> Round {
        let mut failures = report.failures.clone();
        let mut failed = report.failures.len();
        let mut jobs = 0;
        for c in report.cells.iter().filter(|c| c.reps > 0) {
            let label = format!("{} load {}", c.scheduler, c.load_factor);
            // Aborted runs still fold into their cell; they failed.
            if c.aborted > 0 {
                failed += c.aborted;
                failures.push(format!(
                    "{label}: {} runs aborted by the watchdog",
                    c.aborted
                ));
            }
            // A drained run completes its input less the jobs admission
            // control refused. The report gives only the cell's mean, not
            // which runs refused, so every run of such a cell fails.
            let drained = c.reps - c.aborted;
            let rejected = (c.rejected.mean * c.reps as f64).round() as usize;
            if rejected > 0 {
                failed += drained;
                failures.push(format!(
                    "{label}: {rejected} jobs refused by admission control over {} runs",
                    c.reps
                ));
            }
            jobs += (drained * jobs_per_run).saturating_sub(rejected) as u64;
        }
        let (slowdown_mean, slowdown_worst) = slowdowns(&report.cells);
        Round {
            csv: report.to_csv(),
            attempted: report.runs,
            jobs,
            failed,
            failures,
            slowdown_mean,
            slowdown_worst,
            wall_s: report.wall_micros as f64 * 1e-6,
            run_ns: run_ns(&report),
            workers: report.workers.len(),
            busy_ns: report.workers.iter().map(|w| w.busy_ns).sum(),
            idle_ns: report.workers.iter().map(|w| w.idle_ns).sum(),
            steals: report.workers.iter().map(|w| w.steals_succeeded).sum(),
            cells: report.cells,
            trace_bytes: Vec::new(),
        }
    }
}

/// Each run's host time from the report's worker spans, by batch index
/// (a retried run's attempts add up).
fn run_ns(report: &SweepReport) -> Vec<u64> {
    let mut ns = vec![0; report.runs];
    for span in &report.worker_spans {
        ns[span.index] += span.dur_ns;
    }
    ns
}

/// Run-weighted means of the cells' mean and worst bounded slowdown.
fn slowdowns(cells: &[CellStats]) -> (f64, f64) {
    let (mut runs, mut mean, mut worst) = (0usize, 0.0, 0.0);
    for c in cells.iter().filter(|c| c.reps > 0) {
        runs += c.reps;
        mean += c.mean_slowdown.mean * c.reps as f64;
        worst += c.worst_slowdown.mean * c.reps as f64;
    }
    (mean / runs as f64, worst / runs as f64)
}

/// Why a finished run does not count as complete, if it does not.
fn incomplete(summary: &RunSummary, input_jobs: usize) -> Option<String> {
    if summary.aborted {
        Some("aborted by the watchdog".into())
    } else if summary.completed != input_jobs {
        Some(format!(
            "completed {} of {input_jobs} jobs",
            summary.completed
        ))
    } else {
        None
    }
}

/// Per-cell aggregates of cell-major run summaries (`None` = failed run),
/// as `run_sweep` builds them.
fn regroup(
    schedulers: &[SchedulerKind],
    loads: &[f64],
    reps: usize,
    runs: &[Option<RunSummary>],
) -> Vec<CellStats> {
    let mut chunks = runs.chunks_exact(reps);
    let mut cells = Vec::with_capacity(schedulers.len() * loads.len());
    for &scheduler in schedulers {
        for &load in loads {
            let chunk = chunks.next().expect("one chunk per cell");
            let summaries: Vec<RunSummary> = chunk.iter().flatten().cloned().collect();
            let failed = chunk.len() - summaries.len();
            cells.push(CellStats::from_summaries(
                scheduler, load, &summaries, failed,
            ));
        }
    }
    cells
}

/// The CSV `SweepReport::to_csv` renders for `cells`.
fn csv_of(cells: Vec<CellStats>) -> String {
    SweepReport {
        cells,
        runs: 0,
        failures: Vec::new(),
        skipped: 0,
        panicked: 0,
        unique_traces: 0,
        trace_hits: 0,
        wall_micros: 0,
        workers: Vec::new(),
        worker_spans: Vec::new(),
        run_spans: Vec::new(),
    }
    .to_csv()
}

/// One observed run as `sps trace`/`sps report` make it: JSONL records
/// into `writer` and a `Telemetry` sink.
fn observed_run<W: io::Write>(
    cfg: &Arc<ExperimentConfig>,
    writer: W,
) -> io::Result<(SimResult, W)> {
    let mut sink = JsonlSink::new(writer);
    let mut telemetry = Telemetry::new();
    let sim = RunBuilder::new(Arc::clone(cfg))
        .trace_sink(&mut sink)
        .telemetry(&mut telemetry)
        .simulate();
    Ok((sim, sink.finish()?))
}

fn mega_source(
    spec: &MegaSweepSpec,
    cfg: &ExperimentConfig,
) -> Result<ShapedSource<StreamingSwfSource>, String> {
    let log = StreamingSwfSource::open(&spec.swf)
        .map_err(|e| format!("cannot open {}: {e}", spec.swf.display()))?
        .with_readahead(spec.readahead);
    Ok(ShapedSource::new(
        log,
        cfg.load_factor,
        spec.estimates,
        cfg.seed,
        spec.procs,
    ))
}

/// The traced pass's decorated simulator: `RunBuilder::simulate`'s
/// construction, with [`TimedPolicy`] around the configured scheduler.
fn decorated<S: TraceSink, T: TelemetrySink>(
    cfg: &ExperimentConfig,
    source: Box<dyn JobSource>,
    sink: S,
    telemetry: T,
    lean: bool,
) -> Simulator<S, T> {
    let mut sim = Simulator::traced_source(
        source,
        cfg.system.procs,
        Box::new(TimedPolicy(cfg.scheduler.build())),
        cfg.overhead,
        cfg.tick_period,
        sink,
    )
    .with_telemetry(telemetry)
    .with_faults(cfg.faults)
    .with_admission(cfg.admission)
    .with_preemption(cfg.preemption, cfg.checkpoint)
    .with_until(RunUntil::Drained)
    .with_warmup(0)
    .with_watchdog(Watchdog::generous());
    if cfg.is_heterogeneous() {
        sim = sim.with_speed(cfg.speed_map());
    }
    if lean {
        sim = sim.with_lean();
    }
    sim
}

/// What the spot check learned that the traced pass reuses.
pub struct Checked {
    /// observed_runs only: events of each config run without sinks.
    plain_events: Vec<u64>,
}

/// Per-layer totals of the traced pass.
pub struct TracedPass {
    pub tally: Tally,
    pub events: u64,
    /// Events of the same configs run plain (no sink, no telemetry).
    pub plain_events: u64,
    pub reclaimed_slots: u64,
    /// Time in `Simulator::run`, and that time minus decorated calls.
    pub run_ns: u64,
    pub self_ns: u64,
    /// Time in `ExperimentConfig::trace`, plus the set-up's
    /// `swf::write_chunked` on swf_stream.
    pub gen_ns: u64,
    /// Time in `RunSummary::fold` and `CellStats::from_summaries`.
    pub fold_ns: u64,
    pub cache_hits: u64,
    pub cache_requests: u64,
    /// SWF bytes the runs parsed.
    pub parsed_bytes: u64,
    /// JSONL bytes the trace sinks wrote.
    pub trace_bytes: u64,
    /// Per-run pipeline time of the traced runs and of the same runs
    /// plain, on the same thread.
    pub traced_ns: u64,
    pub reference_ns: u64,
    pub spans: Vec<Span>,
}

/// Open-then-close span recorder with ids in creation order.
struct SpanLog(Vec<Span>);

impl SpanLog {
    fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        run: Option<usize>,
        start_ns: u64,
        dur_ns: u64,
    ) -> u32 {
        let id = self.0.len() as u32 + 1;
        self.0.push(Span {
            id,
            parent,
            name,
            run,
            start_ns,
            dur_ns,
            counts: Vec::new(),
        });
        id
    }

    fn open(&mut self, name: &'static str, parent: u32, run: Option<usize>) -> (u32, Instant) {
        let start = Instant::now();
        (self.push(name, parent, run, epoch_ns(start), 0), start)
    }

    /// Close span `id`, returning its duration in nanoseconds.
    fn close(&mut self, (id, start): (u32, Instant), counts: Vec<(&'static str, u64)>) -> u64 {
        let span = &mut self.0[id as usize - 1];
        span.dur_ns = start.elapsed().as_nanos() as u64;
        span.counts = counts;
        span.dur_ns
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Prepared {
    /// Chunk `k`'s grid: schedulers, loads and replications.
    fn chunk_grid(&self, k: usize) -> (&[SchedulerKind], &[f64], usize) {
        match &self.plan {
            Plan::Sweep { chunks, .. } | Plan::Observed { chunks } => {
                let spec = &chunks[k];
                (&spec.schedulers, &spec.loads, spec.reps)
            }
            Plan::Mega { chunks, .. } => {
                let spec = &chunks[k];
                (&spec.schedulers, &spec.loads, spec.reps)
            }
        }
    }

    /// Per-cell aggregates of every chunk's run summaries (`runs` in batch
    /// order), chunk after chunk, as the chunks' entry points build them.
    fn regroup(&self, runs: &[Option<RunSummary>]) -> Vec<Vec<CellStats>> {
        self.bounds
            .iter()
            .enumerate()
            .map(|(k, range)| {
                let (schedulers, loads, reps) = self.chunk_grid(k);
                regroup(schedulers, loads, reps, &runs[range.clone()])
            })
            .collect()
    }

    /// Jobs in each run's input.
    fn input_jobs(&self) -> usize {
        match &self.plan {
            Plan::Sweep { .. } | Plan::Observed { .. } => JOBS_PER_TRACE,
            Plan::Mega { .. } => SWF_JOBS,
        }
    }

    /// Runs per round.
    pub fn runs(&self) -> usize {
        self.configs.len()
    }

    /// Chunks per round.
    pub fn chunks(&self) -> usize {
        self.bounds.len()
    }

    /// Threads a chunk runs on.
    pub fn workers(&self) -> usize {
        match &self.plan {
            Plan::Sweep { threads, .. } | Plan::Mega { threads, .. } => *threads,
            Plan::Observed { .. } => 1,
        }
    }

    /// Delete what set-up wrote.
    pub fn cleanup(&self) {
        if let Plan::Mega { chunks, .. } = &self.plan {
            let _ = std::fs::remove_file(&chunks[0].swf);
        }
    }

    /// Chunk `k` of the plain pass: its sub-grid through the public entry
    /// point, no decorator attached.
    pub fn run_chunk(&self, k: usize) -> Result<Round, String> {
        match &self.plan {
            Plan::Sweep { chunks, threads } => run_sweep(&chunks[k], *threads)
                .map(|r| Round::from_report(r, JOBS_PER_TRACE))
                .map_err(|e| e.to_string()),
            Plan::Mega { chunks, threads } => run_mega_sweep(&chunks[k], *threads)
                .map(|r| Round::from_report(r, SWF_JOBS))
                .map_err(|e| e.to_string()),
            Plan::Observed { .. } => Ok(self.observed_chunk(k)),
        }
    }

    fn observed_chunk(&self, k: usize) -> Round {
        let configs = &self.configs[self.bounds[k].clone()];
        let start = Instant::now();
        let mut summaries = Vec::with_capacity(configs.len());
        let mut trace_bytes = Vec::with_capacity(configs.len());
        let mut failures = Vec::new();
        let mut run_ns = Vec::with_capacity(configs.len());
        let mut jobs = 0u64;
        for cfg in configs {
            let t = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                observed_run(cfg, CountingWriter::default())
                    .map(|(sim, w)| (RunSummary::fold(cfg, &sim), w.0))
            }));
            run_ns.push(ns_since(t));
            let label = format!(
                "{} load {} seed {}",
                cfg.scheduler, cfg.load_factor, cfg.seed
            );
            match outcome {
                Ok(Ok((summary, bytes))) => {
                    if let Some(why) = incomplete(&summary, cfg.n_jobs) {
                        failures.push(format!("{label}: {why}"));
                    }
                    if !summary.aborted {
                        jobs += summary.completed as u64;
                    }
                    trace_bytes.push(bytes);
                    summaries.push(Some(summary));
                }
                Ok(Err(e)) => {
                    failures.push(format!("{label}: trace write failed: {e}"));
                    trace_bytes.push(0);
                    summaries.push(None);
                }
                Err(_) => {
                    failures.push(format!("{label}: panicked"));
                    trace_bytes.push(0);
                    summaries.push(None);
                }
            }
        }
        let (schedulers, loads, reps) = self.chunk_grid(k);
        let cells = regroup(schedulers, loads, reps, &summaries);
        let (slowdown_mean, slowdown_worst) = slowdowns(&cells);
        let wall_ns = ns_since(start);
        let busy_ns = run_ns.iter().sum();
        Round {
            csv: csv_of(cells.clone()),
            attempted: configs.len(),
            failed: failures.len(),
            failures,
            jobs,
            slowdown_mean,
            slowdown_worst,
            wall_s: wall_ns as f64 * 1e-9,
            run_ns,
            workers: 1,
            busy_ns,
            idle_ns: wall_ns.saturating_sub(busy_ns),
            steals: 0,
            cells,
            trace_bytes,
        }
    }

    /// The swf_stream log, which every mega chunk streams.
    fn mega_spec(&self, cfg_index: usize) -> Option<&MegaSweepSpec> {
        match &self.plan {
            Plan::Mega { chunks, .. } => {
                let k = self.bounds.iter().position(|b| b.contains(&cfg_index))?;
                Some(&chunks[k])
            }
            _ => None,
        }
    }

    /// Run `i` through the plain `RunBuilder::simulate` pipeline of the
    /// workload's entry point, without sinks.
    fn plain_run(&self, i: usize, cache: &TraceCache) -> Result<SimResult, String> {
        let cfg = &self.configs[i];
        let builder = RunBuilder::new(Arc::clone(cfg));
        Ok(match &self.plan {
            Plan::Sweep { .. } => builder
                .source(Box::new(cache.source(cfg.trace_key(), || cfg.trace())))
                .simulate(),
            Plan::Mega { .. } => {
                let spec = self.mega_spec(i).expect("a mega run belongs to a chunk");
                builder
                    .source(Box::new(mega_source(spec, cfg)?))
                    .lean(true)
                    .simulate()
            }
            Plan::Observed { .. } => builder.simulate(),
        })
    }

    /// Output checks that need no traced pass. Sweeps: the first chunk's
    /// runs, made one at a time, complete their input and aggregate to
    /// the plain pass's first chunk. observed_runs: the cells equal those
    /// of the same configs run without sinks, and the first run's JSONL
    /// trace, made again into memory, has the timed run's length and
    /// passes the replay validator.
    pub fn check(&self, round: &Round) -> Result<Checked, String> {
        match &self.plan {
            Plan::Observed { .. } => self.check_observed(round),
            _ => self.check_first_chunk(round),
        }
    }

    fn check_first_chunk(&self, round: &Round) -> Result<Checked, String> {
        let cache = TraceCache::new();
        let mut summaries = Vec::new();
        for i in self.bounds[0].clone() {
            let cfg = &self.configs[i];
            let summary = RunSummary::fold(cfg, &self.plain_run(i, &cache)?);
            if let Some(why) = incomplete(&summary, self.input_jobs()) {
                return Err(format!(
                    "spot check {} load {} seed {}: {why}",
                    cfg.scheduler, cfg.load_factor, cfg.seed
                ));
            }
            summaries.push(Some(summary));
        }
        let (schedulers, loads, reps) = self.chunk_grid(0);
        let cells = regroup(schedulers, loads, reps, &summaries);
        if round.cells.get(..cells.len()) != Some(&cells[..]) {
            return Err(
                "the first chunk of the sweep differs from the same runs made one at a time".into(),
            );
        }
        Ok(Checked {
            plain_events: Vec::new(),
        })
    }

    fn check_observed(&self, round: &Round) -> Result<Checked, String> {
        let configs = &self.configs;
        let cache = TraceCache::new();
        let mut summaries = Vec::with_capacity(configs.len());
        let mut plain_events = Vec::with_capacity(configs.len());
        for (i, cfg) in configs.iter().enumerate() {
            let sim = self.plain_run(i, &cache)?;
            plain_events.push(sim.kernel.events);
            summaries.push(Some(RunSummary::fold(cfg, &sim)));
        }
        // Telemetry adds health counts to the observed cells; nothing else
        // may differ.
        let observed = round.cells.iter().map(|c| CellStats {
            health: None,
            ..c.clone()
        });
        if !self.regroup(&summaries).into_iter().flatten().eq(observed) {
            return Err("observed_runs cells differ from the same configs run plain".into());
        }
        let (_, bytes) = observed_run(&configs[0], Vec::new()).map_err(|e| e.to_string())?;
        if round.trace_bytes.first() != Some(&(bytes.len() as u64)) {
            return Err(
                "observed run 0 wrote a JSONL trace of another length on a second run".into(),
            );
        }
        validate_jsonl(&bytes[..], ReplayOptions::default()).map_err(|violations| {
            format!(
                "replay validator rejected observed run 0: {}",
                violations
                    .first()
                    .map(ToString::to_string)
                    .unwrap_or_default()
            )
        })?;
        Ok(Checked { plain_events })
    }

    /// The traced pass: every run of the batch once, chunk by chunk, on
    /// this thread, with decorated seams, each preceded by the same run
    /// made plain.
    /// Refuses (returns `Err`) unless every traced run executes exactly
    /// the plain run's events and decides, completes its input, and (on
    /// observed_runs) writes the plain run's JSONL bytes, and the rebuilt
    /// CSV equals the plain pass's.
    pub fn traced_pass(&self, round: &Round, checked: &Checked) -> Result<TracedPass, String> {
        let configs = &self.configs;
        let mut log = SpanLog(Vec::new());
        if let Some((start_ns, dur_ns)) = self.write {
            log.push("workload.write_chunked", 0, None, start_ns, dur_ns);
        }
        let mut out = TracedPass {
            tally: wrap::take(),
            events: 0,
            plain_events: 0,
            reclaimed_slots: 0,
            run_ns: 0,
            self_ns: 0,
            gen_ns: self.write.map_or(0, |(_, d)| d),
            fold_ns: 0,
            cache_hits: 0,
            cache_requests: 0,
            parsed_bytes: 0,
            trace_bytes: 0,
            traced_ns: 0,
            reference_ns: 0,
            spans: Vec::new(),
        };
        // The traced runs of a chunk share one cache, as the workers of
        // its `run_sweep` call do; the plain references get their own so
        // they never warm it.
        let mut cache = TraceCache::new();
        let mut reference_cache = TraceCache::new();
        let pass = log.open("traced_pass", 0, None);
        let mut summaries = Vec::with_capacity(configs.len());
        for (i, cfg) in configs.iter().enumerate() {
            if i > 0 && self.bounds.iter().any(|b| b.start == i) {
                out.cache_hits += cache.hits();
                out.cache_requests += cache.hits() + cache.misses();
                cache = TraceCache::new();
                reference_cache = TraceCache::new();
            }
            let label = format!(
                "run {i} ({} load {} seed {})",
                cfg.scheduler, cfg.load_factor, cfg.seed
            );
            // The same run through the plain pass's pipeline, for the
            // fidelity check and as the base of the tracing overhead.
            // On observed_runs it also gives the JSONL digest the traced
            // run must match.
            let t = Instant::now();
            let (reference, reference_trace) = match &self.plan {
                Plan::Observed { .. } => {
                    out.plain_events += checked.plain_events[i];
                    let (sim, writer) = observed_run(cfg, DigestWriter::default())
                        .map_err(|e| format!("{label}: {e}"))?;
                    (sim, Some(writer.0))
                }
                _ => {
                    let sim = self.plain_run(i, &reference_cache)?;
                    out.plain_events += sim.kernel.events;
                    (sim, None)
                }
            };
            let _ = RunSummary::fold(cfg, &reference);
            out.reference_ns += ns_since(t);
            let (plain_events, plain_decides) =
                (reference.kernel.events, reference.kernel.decide_calls);

            let t = Instant::now();
            let run_span = log.open("run", pass.0, Some(i));
            let before = wrap::counts();
            let gen = |log: &mut SpanLog, out: &mut TracedPass| {
                let span = log.open("workload.gen", run_span.0, Some(i));
                let jobs = cfg.trace();
                out.gen_ns += log.close(span, Vec::new());
                jobs
            };
            let lean = matches!(self.plan, Plan::Mega { .. });
            let source: Box<dyn JobSource> = match &self.plan {
                Plan::Sweep { .. } => Box::new(TimedSource(
                    cache.source(cfg.trace_key(), || gen(&mut log, &mut out)),
                )),
                Plan::Mega { .. } => {
                    let spec = self.mega_spec(i).expect("a mega run belongs to a chunk");
                    out.parsed_bytes += std::fs::metadata(&spec.swf).map_or(0, |m| m.len());
                    Box::new(TimedSource(mega_source(spec, cfg)?))
                }
                Plan::Observed { .. } => {
                    Box::new(TimedSource(TraceSource::new(gen(&mut log, &mut out))))
                }
            };
            let (sim, trace) = if let Plan::Observed { .. } = &self.plan {
                let mut sink = TimedSink(JsonlSink::new(DigestWriter::default()));
                let mut telemetry = Telemetry::new();
                sink.record(&TraceRecord::Header {
                    version: TRACE_VERSION,
                    scheduler: cfg.scheduler.to_string(),
                    config: cfg.to_json(),
                });
                let sim = decorated(cfg, source, &mut sink, TimedTelemetry(&mut telemetry), lean);
                let sim = run_timed(sim, &mut log, run_span.0, i, &mut out);
                let writer = sink.0.finish().map_err(|e| format!("{label}: {e}"))?;
                out.trace_bytes += writer.0.len();
                (sim, Some(writer.0))
            } else {
                let sim = decorated(cfg, source, NullSink, NullTelemetry, lean);
                (run_timed(sim, &mut log, run_span.0, i, &mut out), None)
            };

            let fold = log.open("metrics.fold", run_span.0, Some(i));
            let summary = RunSummary::fold(cfg, &sim);
            out.fold_ns += log.close(fold, Vec::new());
            out.traced_ns += ns_since(t);
            let delta: Vec<(&'static str, u64)> = wrap::counts()
                .iter()
                .zip(&before)
                .map(|(&(k, a), &(_, b))| (k, a - b))
                .collect();
            let count = |name| {
                delta
                    .iter()
                    .find(|(k, _)| *k == name)
                    .map_or(0, |&(_, v)| v)
            };
            let (seen_decides, emitted) = (count("decide_calls"), count("jobs"));
            log.close(run_span, delta.clone());

            if sim.kernel.events != plain_events || sim.kernel.decide_calls != plain_decides {
                return Err(format!(
                    "{label}: the traced run executed {} events and {} decides, the plain run {} and {}",
                    sim.kernel.events, sim.kernel.decide_calls, plain_events, plain_decides
                ));
            }
            if seen_decides != sim.kernel.decide_calls {
                return Err(format!(
                    "{label}: the policy decorator saw {seen_decides} of {} decides",
                    sim.kernel.decide_calls
                ));
            }
            if emitted != self.input_jobs() as u64 {
                return Err(format!(
                    "{label}: the source emitted {emitted} of {} jobs",
                    self.input_jobs()
                ));
            }
            if let Some(why) = incomplete(&summary, self.input_jobs()) {
                return Err(format!("{label}: {why}"));
            }
            if let (Some(traced), Some(reference)) = (&trace, &reference_trace) {
                if traced.value() != reference.value()
                    || round.trace_bytes.get(i) != Some(&traced.len())
                {
                    return Err(format!(
                        "{label}: the traced run's JSONL ({} bytes) differs from the same run \
                         made plain ({} bytes) or from the timed pass's ({:?} bytes)",
                        traced.len(),
                        reference.len(),
                        round.trace_bytes.get(i)
                    ));
                }
            }
            out.events += sim.kernel.events;
            out.reclaimed_slots += sim.kernel.reclaimed_slots;
            summaries.push(Some(summary));
        }

        let cells_span = log.open("metrics.cells", pass.0, None);
        let cells = self.regroup(&summaries);
        out.fold_ns += log.close(cells_span, Vec::new());
        log.close(pass, Vec::new());

        if cells.into_iter().map(csv_of).collect::<String>() != round.csv {
            return Err("the traced pass's sweep CSV differs from the plain pass's".into());
        }
        out.cache_hits += cache.hits();
        out.cache_requests += cache.hits() + cache.misses();
        out.tally = wrap::take();
        out.spans = log.0;
        Ok(out)
    }
}

/// `Simulator::run` under a `sim.run` span; self time is the span minus
/// the time spent inside decorated calls.
fn run_timed<S: TraceSink, T: TelemetrySink>(
    sim: Simulator<S, T>,
    log: &mut SpanLog,
    parent: u32,
    run: usize,
    out: &mut TracedPass,
) -> SimResult {
    let inside = wrap::inside_ns();
    let span = log.open("sim.run", parent, Some(run));
    let result = sim.run();
    let run_ns = log.close(span, Vec::new());
    out.run_ns += run_ns;
    out.self_ns += run_ns.saturating_sub(wrap::inside_ns() - inside);
    result
}
