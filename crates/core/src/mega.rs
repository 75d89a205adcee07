//! Archive-scale "mega" sweeps: one SWF log × (scheduler × load × seed),
//! every run streaming and lean.
//!
//! The synthetic sweeps in [`crate::sweep`] generate a finite trace per
//! `(load, seed)` and share it through a cache — fine at paper scale
//! (thousands of jobs), hopeless at archive scale (millions of jobs ×
//! dozens of grid cells would materialize gigabytes). A mega sweep never
//! materializes a trace at all:
//!
//! * each replication opens its own [`StreamingSwfSource`] over the log —
//!   peak memory per run is the read-ahead ring, O(1) in log length,
//! * a [`ShapedSource`] fits the log to the machine (jobs wider than it
//!   are dropped and the rest renumbered) and turns it into the grid's
//!   load and seed axes on the fly (arrival compression, optional
//!   estimate re-drawing); [`MegaSweepSpec::source`] builds that pair,
//!   and `sps replay` reads its log through it too,
//! * the run itself is **lean**
//!   ([`RunBuilder::lean`](crate::runner::RunBuilder::lean)): completions
//!   fold into fixed-size accumulators inside the simulator, so no per-job
//!   outcome vector ever exists.
//!
//! End to end, a 16-cell sweep over a million-job log peaks at tens of
//! megabytes — machine state and ring buffers — instead of tens of
//! gigabytes. A mega sweep is a [`SweepSpec`] over the log's machine
//! whose runs stream the log: the grid driver (cell aggregation, failure
//! accounting, wall budgets, progress reporting) is the one behind
//! [`run_sweep`](crate::sweep::run_sweep), so reports render identically.
//! Every run of that grid drains on a homogeneous machine with no warmup
//! window, so the driver runs each one lean.
//! A log line the reader refuses ends that run's stream, and the run
//! fails with [`RunError::Source`](crate::experiment::RunError::Source)
//! naming the line; the reader never panics.

use std::path::PathBuf;

use sps_simcore::Secs;
use sps_workload::{EstimateModel, ShapedSource, StreamingSwfSource, SystemPreset};

use crate::experiment::{ConfigError, ExperimentConfig, SchedulerKind};
use crate::overhead::OverheadModel;
use crate::sim::DEFAULT_TICK_PERIOD;
use crate::sweep::{drive_grid, SweepProgress, SweepReport, SweepSpec};

/// A scheduler × load × seed grid over one Standard Workload Format log.
///
/// The log is the workload; the grid axes reshape it per run (see
/// [`ShapedSource`]). Every run is lean and streaming, so the sweep's
/// peak memory is independent of how many jobs the log holds.
#[derive(Clone, Debug)]
pub struct MegaSweepSpec {
    /// Path of the SWF log. Submit times must be nondecreasing (the
    /// streaming reader cannot sort, and a run fails at the first line
    /// out of order); the archive logs already are.
    pub swf: PathBuf,
    /// Machine size in processors. Jobs wider than this are dropped and
    /// the rest renumbered (see [`ShapedSource`]).
    pub procs: u32,
    /// Scheduler axis (each entry is one column of cells).
    pub schedulers: Vec<SchedulerKind>,
    /// Load-factor axis: submit times divide by the factor, exactly the
    /// paper's Section VI load transformation.
    pub loads: Vec<f64>,
    /// Seed of replication 0; replication `r` uses `base_seed + r`.
    pub base_seed: u64,
    /// Seed replications per cell. Seeds vary the estimate noise; with
    /// as-logged estimates (`estimates: None`) replications are
    /// identical, so leave this at 1 there.
    pub reps: usize,
    /// `Some(model)`: re-draw user estimates per replication seed.
    /// `None` (default): replay the log's own requested times.
    pub estimates: Option<EstimateModel>,
    /// Suspension/restart overhead model applied to every run.
    pub overhead: OverheadModel,
    /// Preemption-routine period, seconds.
    pub tick_period: Secs,
    /// Read-ahead ring capacity per streaming reader, in parsed jobs.
    pub readahead: usize,
    /// Retry budget for panicked replications.
    pub retries: u32,
    /// Wall-clock budget for the whole grid, milliseconds (`None` =
    /// unbounded; see [`crate::sweep::SweepSpec::with_wall_budget`]).
    pub wall_budget_ms: Option<u64>,
    /// Capture per-run phase spans and per-cell worker spans for a
    /// Chrome-trace export (see [`SweepReport::worker_spans`]).
    pub timeline: bool,
}

impl MegaSweepSpec {
    /// An empty grid over the log at `swf` on a `procs`-processor
    /// machine, load 1.0 (the log's native arrival times), one
    /// replication, as-logged estimates. Add schedulers before running;
    /// [`validate`](MegaSweepSpec::validate) rejects a zero-processor
    /// machine.
    pub fn new(swf: impl Into<PathBuf>, procs: u32) -> Self {
        MegaSweepSpec {
            swf: swf.into(),
            procs,
            schedulers: Vec::new(),
            loads: vec![1.0],
            base_seed: 42,
            reps: 1,
            estimates: None,
            overhead: OverheadModel::None,
            tick_period: DEFAULT_TICK_PERIOD,
            readahead: sps_workload::swf::DEFAULT_READAHEAD,
            retries: 0,
            wall_budget_ms: None,
            timeline: false,
        }
    }

    /// Set the scheduler axis.
    pub fn with_schedulers(mut self, schedulers: Vec<SchedulerKind>) -> Self {
        self.schedulers = schedulers;
        self
    }

    /// Append one scheduler to the axis.
    pub fn with_scheduler(mut self, s: SchedulerKind) -> Self {
        self.schedulers.push(s);
        self
    }

    /// Set the load-factor axis.
    pub fn with_loads(mut self, loads: Vec<f64>) -> Self {
        self.loads = loads;
        self
    }

    /// Set the base seed (replication `r` runs on `base_seed + r`).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Set the replication count per cell.
    pub fn with_reps(mut self, reps: usize) -> Self {
        self.reps = reps;
        self
    }

    /// Re-draw estimates from `model` per replication seed (`None`
    /// replays the log's own requested times).
    pub fn with_estimates(mut self, model: Option<EstimateModel>) -> Self {
        self.estimates = model;
        self
    }

    /// Set the overhead model.
    pub fn with_overhead(mut self, o: OverheadModel) -> Self {
        self.overhead = o;
        self
    }

    /// Set the preemption-routine period in seconds.
    pub fn with_tick_period(mut self, secs: Secs) -> Self {
        self.tick_period = secs;
        self
    }

    /// Cap each streaming reader's ring at `jobs` parsed jobs.
    pub fn with_readahead(mut self, jobs: usize) -> Self {
        self.readahead = jobs.max(1);
        self
    }

    /// Retry panicked replications up to `retries` more times each.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Cap the whole grid's wall-clock at `ms` milliseconds.
    pub fn with_wall_budget(mut self, ms: u64) -> Self {
        self.wall_budget_ms = Some(ms);
        self
    }

    /// Capture span timelines for a Chrome-trace export.
    pub fn with_timeline(mut self, on: bool) -> Self {
        self.timeline = on;
        self
    }

    /// Machine, grid shape and per-run configuration checks, plus an
    /// O(1) probe that the log opens as a regular file (a missing file or
    /// a directory should fail the sweep up front, not every cell one by
    /// one; a pipe reads once, and every run reopens the log). The log's
    /// lines are read only by the runs.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.grid().validate()?;
        self.source(1.0, self.base_seed)?;
        if !std::fs::metadata(&self.swf).is_ok_and(|m| m.is_file()) {
            let reason = format!("{}: not a regular file", self.swf.display());
            return Err(ConfigError::BadSwf(reason));
        }
        Ok(())
    }

    /// One run's job stream: the log through its own streaming reader,
    /// shaped to this machine, `load` and `seed` (estimates re-drawn only
    /// under [`estimates`](MegaSweepSpec::estimates)). `load` must be
    /// positive and finite and `procs` nonzero, as
    /// [`validate`](MegaSweepSpec::validate) checks.
    pub fn source(
        &self,
        load: f64,
        seed: u64,
    ) -> Result<ShapedSource<StreamingSwfSource>, ConfigError> {
        let log = StreamingSwfSource::open(&self.swf)
            .map_err(|e| ConfigError::BadSwf(format!("{}: {e}", self.swf.display())))?
            .with_readahead(self.readahead);
        Ok(ShapedSource::new(
            log,
            load,
            self.estimates,
            seed,
            self.procs,
        ))
    }

    /// Cells in the grid (scheduler × load).
    pub fn cells(&self) -> usize {
        self.schedulers.len() * self.loads.len()
    }

    /// Total runs (cells × replications).
    pub fn runs(&self) -> usize {
        self.cells() * self.reps
    }

    /// The grid as a [`SweepSpec`] over the log's machine, whose drained
    /// homogeneous runs the driver folds lean: the same cell-major
    /// expansion and per-run configurations, with default estimates
    /// (re-drawn ones are applied by the source, not the configuration).
    /// `n_jobs` is pinned to 1: the run length comes from the log, but
    /// validation requires a nonzero count and the explicit-source path
    /// never reads it. The base's scheduler is a placeholder the
    /// scheduler axis replaces.
    fn grid(&self) -> SweepSpec {
        let base = ExperimentConfig::new(SystemPreset::swf(self.procs), SchedulerKind::Easy)
            .with_jobs(1)
            .with_seed(self.base_seed)
            .with_overhead(self.overhead)
            .with_tick_period(self.tick_period);
        let mut grid = SweepSpec::over(base)
            .with_schedulers(self.schedulers.clone())
            .with_loads(self.loads.clone())
            .with_reps(self.reps)
            .with_retries(self.retries)
            .with_timeline(self.timeline);
        grid.wall_budget_ms = self.wall_budget_ms;
        grid
    }
}

/// Run the mega grid on `threads` workers. Every replication streams the
/// log through its own reader and runs lean; the report's
/// `unique_traces`/`trace_hits` are zero (nothing is ever cached — there
/// is nothing to cache). A run whose log ends on an error fails with
/// that error (see the module doc).
pub fn run_mega_sweep(spec: &MegaSweepSpec, threads: usize) -> Result<SweepReport, ConfigError> {
    run_mega_sweep_observed(spec, threads, |_| {})
}

/// [`run_mega_sweep`] with a progress observer, called on the driving
/// thread after every terminal run outcome.
pub fn run_mega_sweep_observed<O>(
    spec: &MegaSweepSpec,
    threads: usize,
    observe: O,
) -> Result<SweepReport, ConfigError>
where
    O: FnMut(&SweepProgress),
{
    spec.validate()?;
    Ok(drive_grid(
        &spec.grid(),
        threads,
        // Per-run streaming pipeline: log → shaping → lean simulate. The
        // file can vanish after the probe; such a run fails as invalid.
        |cfg, _| Ok(Some(Box::new(spec.source(cfg.load_factor, cfg.seed)?))),
        observe,
    ))
}

/// Peak resident set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`), or `None` where unavailable. The memory-bound
/// tests and the mega bench use it to pin the "RSS independent of job
/// count" claim on real numbers.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunBuilder;
    use crate::sweep::{run_sweep, RunSummary};
    use sps_workload::traces::SDSC;
    use sps_workload::{swf, SyntheticConfig};
    use std::sync::Arc;

    /// Write a synthetic SDSC-mix trace as an SWF log and return its path.
    fn synth_log(dir: &std::path::Path, n: usize, seed: u64) -> PathBuf {
        let jobs = SyntheticConfig::new(SDSC, seed).with_jobs(n).generate();
        let path = dir.join(format!("synth-{n}-{seed}.swf"));
        std::fs::write(&path, swf::write(&jobs)).expect("write log");
        path
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sps-mega-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn mega_sweep_validates_grid_and_log() {
        let dir = tmpdir("validate");
        let log = synth_log(&dir, 50, 3);
        let empty = MegaSweepSpec::new(&log, 128);
        assert_eq!(empty.validate(), Err(ConfigError::EmptyGrid("schedulers")));
        let spec = empty.clone().with_scheduler(SchedulerKind::Easy);
        assert_eq!(spec.validate(), Ok(()));
        assert!(matches!(
            spec.clone().with_loads(vec![]).validate(),
            Err(ConfigError::EmptyGrid("loads"))
        ));
        assert!(matches!(
            spec.clone().with_reps(0).validate(),
            Err(ConfigError::EmptyGrid("reps"))
        ));
        assert!(matches!(
            spec.clone().with_loads(vec![0.0]).validate(),
            Err(ConfigError::BadLoadFactor(_))
        ));
        let gone =
            MegaSweepSpec::new(dir.join("missing.swf"), 128).with_scheduler(SchedulerKind::Easy);
        assert!(matches!(gone.validate(), Err(ConfigError::BadSwf(_))));
        // `File::open` accepts a directory; the probe must not.
        let dir_log = MegaSweepSpec::new(&dir, 128).with_scheduler(SchedulerKind::Easy);
        assert!(matches!(
            dir_log.validate(),
            Err(ConfigError::BadSwf(reason)) if reason.ends_with("is a directory")
        ));
        // A zero-processor machine is a typed error, not a panic.
        let no_procs = MegaSweepSpec::new(&log, 0).with_scheduler(SchedulerKind::Easy);
        assert_eq!(no_procs.validate(), Err(ConfigError::NoProcs));
        assert!(matches!(
            run_mega_sweep(&no_procs, 1),
            Err(ConfigError::NoProcs)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mega_sweep_matches_materialized_lean_sweep() {
        // The same workload pushed through the streaming mega path and
        // through a materialized TraceSource must produce bit-identical
        // cells. Build the closed-system comparison by hand: parse the
        // log, shape it exactly like the mega runner, and run full.
        let dir = tmpdir("equiv");
        let log = synth_log(&dir, 400, 9);
        let schedulers = vec![SchedulerKind::Easy, SchedulerKind::Ss { sf: 2.0 }];
        let spec = MegaSweepSpec::new(&log, 128)
            .with_schedulers(schedulers.clone())
            .with_loads(vec![1.0, 1.2])
            .with_seed(11)
            .with_reps(2)
            .with_estimates(Some(EstimateModel::paper_mixture()))
            .with_readahead(32);
        let mega = run_mega_sweep(&spec, 2).expect("valid mega spec");
        assert!(mega.failures.is_empty(), "{:?}", mega.failures);
        assert_eq!(mega.cells.len(), 4);
        assert_eq!(mega.unique_traces, 0, "nothing is materialized");

        // By-hand equivalent: materialize the log once, then per run wrap
        // the same shaping adapter over a TraceSource and simulate full
        // (not lean), folding summaries with the shared arithmetic.
        let parsed = swf::parse(&std::fs::read_to_string(&log).unwrap())
            .unwrap()
            .jobs;
        let mut csv_cells = Vec::new();
        for &sched in &schedulers {
            for &load in &[1.0, 1.2] {
                let mut summaries = Vec::new();
                for rep in 0..2u64 {
                    let cfg = Arc::new(
                        ExperimentConfig::new(SystemPreset::swf(128), sched)
                            .with_jobs(1)
                            .with_seed(11 + rep)
                            .with_load_factor(load),
                    );
                    let shaped = ShapedSource::new(
                        sps_workload::TraceSource::new(parsed.clone()),
                        load,
                        Some(EstimateModel::paper_mixture()),
                        11 + rep,
                        128,
                    );
                    let sim = RunBuilder::new(Arc::clone(&cfg))
                        .source(Box::new(shaped))
                        .simulate();
                    summaries.push(RunSummary::fold(&cfg, &sim));
                }
                csv_cells.push(crate::sweep::CellStats::from_summaries(
                    sched, load, &summaries, 0,
                ));
            }
        }
        let by_hand = SweepReport {
            cells: csv_cells,
            runs: 8,
            failures: vec![],
            skipped: 0,
            panicked: 0,
            unique_traces: 0,
            trace_hits: 0,
            wall_micros: 0,
            workers: vec![],
            worker_spans: vec![],
            run_spans: vec![],
        };
        assert_eq!(mega.to_csv(), by_hand.to_csv());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slot_trimming_is_active_and_bit_identical_on_long_logs() {
        // The 400-job equivalence test above never crosses the 1024-slot
        // trim threshold, so it cannot catch slot-offset bugs. 6000 jobs
        // crosses it repeatedly: the streaming lean run must actually
        // reclaim Done slots, and every headline metric must still come
        // out bit-identical to the materialized full run that keeps all
        // records.
        let dir = tmpdir("trim");
        let log = synth_log(&dir, 6000, 21);
        let cfg = Arc::new(
            ExperimentConfig::new(SystemPreset::swf(128), SchedulerKind::Ss { sf: 2.0 })
                .with_jobs(1)
                .with_seed(7)
                .with_load_factor(1.0),
        );
        let streaming = StreamingSwfSource::open(&log)
            .expect("open log")
            .with_readahead(64);
        let shaped =
            ShapedSource::new(streaming, 1.0, Some(EstimateModel::paper_mixture()), 7, 128);
        let lean_sim = RunBuilder::new(Arc::clone(&cfg))
            .source(Box::new(shaped))
            .lean(true)
            .simulate();
        assert!(
            lean_sim.kernel.reclaimed_slots >= 1024,
            "trimming never engaged on a 6000-job lean run \
             (reclaimed {} slots)",
            lean_sim.kernel.reclaimed_slots
        );
        let lean = RunSummary::fold(&cfg, &lean_sim);

        let parsed = swf::parse(&std::fs::read_to_string(&log).unwrap())
            .unwrap()
            .jobs;
        let shaped = ShapedSource::new(
            sps_workload::TraceSource::new(parsed),
            1.0,
            Some(EstimateModel::paper_mixture()),
            7,
            128,
        );
        let full_sim = RunBuilder::new(Arc::clone(&cfg))
            .source(Box::new(shaped))
            .simulate();
        assert_eq!(
            full_sim.kernel.reclaimed_slots, 0,
            "full runs keep every record"
        );
        let full = RunSummary::fold(&cfg, &full_sim);

        assert_eq!(lean.completed, full.completed);
        assert_eq!(lean.preemptions, full.preemptions);
        assert_eq!(lean.mean_slowdown.to_bits(), full.mean_slowdown.to_bits());
        assert_eq!(lean.p99_slowdown.to_bits(), full.p99_slowdown.to_bits());
        assert_eq!(lean.worst_slowdown.to_bits(), full.worst_slowdown.to_bits());
        assert_eq!(
            lean.mean_turnaround.to_bits(),
            full.mean_turnaround.to_bits()
        );
        assert_eq!(lean.utilization.to_bits(), full.utilization.to_bits());
        assert_eq!(lean.makespan, full.makespan);
        let lean_cell =
            crate::sweep::CellStats::from_summaries(SchedulerKind::Ss { sf: 2.0 }, 1.0, &[lean], 0);
        let full_cell =
            crate::sweep::CellStats::from_summaries(SchedulerKind::Ss { sf: 2.0 }, 1.0, &[full], 0);
        assert_eq!(lean_cell, full_cell);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mega_sweep_survives_missing_file_mid_grid_and_budget() {
        let dir = tmpdir("budget");
        let log = synth_log(&dir, 60, 5);
        let spec = MegaSweepSpec::new(&log, 128)
            .with_scheduler(SchedulerKind::Easy)
            .with_wall_budget(0);
        let report = run_mega_sweep(&spec, 1).expect("valid spec");
        assert_eq!(report.skipped, 1, "0 ms budget skips the only run");
        assert_eq!(report.cells[0].reps, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mega_sweep_fails_runs_over_an_out_of_order_log_at_any_thread_count() {
        // A log whose tail goes back in time ends the streaming reader
        // mid-run; every run fails with the reader's error, none panics,
        // and the failure table (expansion order, rendered messages) is
        // identical for any worker count.
        let dir = tmpdir("unsorted");
        let log = dir.join("unsorted.swf");
        std::fs::write(
            &log,
            "1 0 0 100 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n\
             2 50 0 100 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n\
             3 10 0 100 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n",
        )
        .expect("write log");
        let spec = MegaSweepSpec::new(&log, 128)
            .with_schedulers(vec![SchedulerKind::Easy, SchedulerKind::Ss { sf: 2.0 }])
            .with_loads(vec![1.0, 1.2])
            .with_retries(2);
        let base = run_mega_sweep(&spec, 1).expect("valid spec");
        assert_eq!(base.failures.len(), 4, "every run fails");
        assert_eq!(base.panicked, 0);
        let want = "SWF line 3: submit time 10 is before the previous job's 50: \
                    the log must list jobs in submit order";
        assert!(
            base.failures.iter().all(|f| f.ends_with(want)),
            "{:?}",
            base.failures
        );
        for threads in [4, 16] {
            let again = run_mega_sweep(&spec, threads).expect("valid spec");
            assert_eq!(again.panicked, 0, "{threads} threads");
            assert_eq!(base.failures, again.failures, "{threads} threads");
            assert_eq!(base.to_csv(), again.to_csv(), "{threads} threads");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peak_rss_probe_reports_on_linux() {
        if cfg!(target_os = "linux") {
            let kb = peak_rss_kb().expect("/proc/self/status has VmHWM");
            assert!(kb > 0);
        }
    }

    #[test]
    fn mega_report_renders_like_a_sweep_report() {
        let dir = tmpdir("render");
        let log = synth_log(&dir, 120, 7);
        let spec = MegaSweepSpec::new(&log, 128)
            .with_schedulers(vec![SchedulerKind::Easy, SchedulerKind::Tss { sf: 2.0 }])
            .with_loads(vec![1.0])
            .with_reps(1);
        let report = run_mega_sweep(&spec, 2).expect("valid spec");
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 3, "header + one row per cell");
        assert!(csv.starts_with("scheduler,load,"));
        assert!(report.render_table().contains("0 unique traces"));
        // Sanity: the shared harness path still works beside it.
        let tiny = SweepSpec::new(SDSC)
            .with_scheduler(SchedulerKind::Easy)
            .with_jobs(40)
            .with_reps(1);
        assert!(run_sweep(&tiny, 1).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
