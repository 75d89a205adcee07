//! Replicated parameter sweeps: the paper's figures as one declarative
//! grid.
//!
//! Every figure in the paper is a cartesian product — schedulers (and
//! their suspension factors) × offered loads, replicated over trace seeds
//! for confidence intervals. [`SweepSpec`] declares that product once;
//! [`run_sweep`] expands it, fans the runs over worker threads on the
//! [`run_batch`](crate::experiment) seam, and folds each run into a
//! fixed-size [`RunSummary`] *inside the worker*, so memory stays O(cells)
//! no matter how many jobs each run simulates. A run whose summary needs
//! nothing but the outcome fold runs lean and never keeps per-job
//! records at all. Traces are shared through a [`TraceCache`]: every cell
//! at the same `(load, seed)` reuses one generated job list.
//!
//! Per cell (scheduler × load), the seed replicas aggregate into
//! [`CellStats`]: mean and 95% Student-t confidence half-width for each
//! headline metric. The per-run tail metrics (P50/P99 slowdown) come from
//! the O(1)-memory [`P2Quantile`](sps_metrics::P2Quantile) estimator
//! rather than a sorted copy of every outcome.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sps_metrics::{goodput, JobOutcome, OutcomeFold, StreamingStats};
use sps_simcore::{Secs, Watchdog};
use sps_telemetry::{HealthSummary, PhaseProfile, SpanEvent, SpanProfiler, Telemetry};
use sps_trace::Json;
use sps_workload::{JobSource, SystemPreset, TraceCache};

use crate::experiment::{
    batch_workers, run_batch, ConfigError, ExperimentConfig, RunError, RunResult, SchedulerKind,
    ShardBoard, ShardStats, WorkerSpan,
};
use crate::runner::RunBuilder;
use crate::sim::RunUntil;

/// A declarative scheduler × load × seed-replication grid over one
/// configuration.
///
/// [`base`](SweepSpec::base) holds every setting the runs share — machine,
/// trace length, estimates, overhead, arrivals, stopping condition,
/// faults, preemption mode, speeds. Run `(scheduler, load, rep)` is
/// `base` with that scheduler and load factor, trace seed
/// `base.seed + rep`, and, when faults are enabled, fault seed
/// `base.faults.seed + rep`. The remaining fields shape the batch, not
/// the runs.
///
/// Each run folds lean ([`RunBuilder::lean`]) when its [`RunSummary`]
/// needs nothing but the outcome fold: it drains, has no warmup window
/// and runs on a homogeneous, speed-aware machine. Other runs keep their
/// per-job outcomes and occupancy segments for the windowed report and
/// the per-tier columns. Either way the cells are bit-identical.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// The configuration every run starts from. Its scheduler is replaced
    /// by the scheduler axis and its load factor by the load axis.
    pub base: ExperimentConfig,
    /// Scheduler axis (each entry is one column of cells).
    pub schedulers: Vec<SchedulerKind>,
    /// Load-factor axis.
    pub loads: Vec<f64>,
    /// Seed replications per cell.
    pub reps: usize,
    /// Attach a [`Telemetry`] sink to every run. Off by default: the
    /// bench path must stay byte-identical to the uninstrumented kernel.
    /// When on, each [`RunSummary`] carries the run's [`HealthSummary`]
    /// and live progress reports the worst active detector.
    pub telemetry: bool,
    /// Retry budget for panicked replications: each is retried up to this
    /// many more times (linear 25 ms backoff) before it counts as failed.
    pub retries: u32,
    /// Wall-clock budget for the whole grid, milliseconds. When it runs
    /// out, queued runs are skipped with [`RunError::BudgetExhausted`] and
    /// in-flight runs have their watchdog capped to the remaining budget,
    /// so the sweep still returns partial [`CellStats`] instead of
    /// overshooting. `None` (the default) means unbounded.
    pub wall_budget_ms: Option<u64>,
    /// Attach a timeline-enabled span profiler to every run and keep the
    /// raw phase spans in [`SweepReport::run_spans`] (Perfetto export via
    /// `--timeline`). Off by default: profiled runs pay per-phase clock
    /// reads, so the bench path must opt in explicitly. Observation only —
    /// cell metrics stay bit-identical.
    pub timeline: bool,
}

impl SweepSpec {
    /// An empty grid on `system` over the default configuration
    /// ([`ExperimentConfig::new`]): the preset's default trace length,
    /// load 1.0, seed 42, one replication, accurate estimates, and no
    /// overhead. Add schedulers before running.
    pub fn new(system: SystemPreset) -> Self {
        SweepSpec::over(ExperimentConfig::new(system, SchedulerKind::Easy))
    }

    /// An empty grid over `base`: no schedulers yet, the load axis
    /// `[base.load_factor]`, one replication, batch defaults (no
    /// telemetry, no retries, no wall budget, no timeline).
    pub fn over(base: ExperimentConfig) -> Self {
        SweepSpec {
            loads: vec![base.load_factor],
            base,
            schedulers: Vec::new(),
            reps: 1,
            telemetry: false,
            retries: 0,
            wall_budget_ms: None,
            timeline: false,
        }
    }

    /// Toggle per-run phase-span collection for timeline export.
    pub fn with_timeline(mut self, on: bool) -> Self {
        self.timeline = on;
        self
    }

    /// Retry panicked replications up to `retries` more times each.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Cap the whole grid's wall-clock at `ms` milliseconds (graceful
    /// partial results instead of an overrun).
    pub fn with_wall_budget(mut self, ms: u64) -> Self {
        self.wall_budget_ms = Some(ms);
        self
    }

    /// Toggle per-run telemetry (health detectors + metric registry).
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
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

    /// Set the per-run trace length (on [`base`](SweepSpec::base)).
    pub fn with_jobs(mut self, n: usize) -> Self {
        self.base.n_jobs = n;
        self
    }

    /// Set the seed of replication 0 (on [`base`](SweepSpec::base));
    /// replication `r` runs on `seed + r`.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base.seed = seed;
        self
    }

    /// Set the replication count per cell.
    pub fn with_reps(mut self, reps: usize) -> Self {
        self.reps = reps;
        self
    }

    /// Grid shape and batch-setting checks, plus
    /// [`ExperimentConfig::validate`] on one run per load (every cell
    /// shares everything but the scheduler, which validation ignores, and
    /// the seeds).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.schedulers.is_empty() {
            return Err(ConfigError::EmptyGrid("schedulers"));
        }
        if self.loads.is_empty() {
            return Err(ConfigError::EmptyGrid("loads"));
        }
        if self.reps == 0 {
            return Err(ConfigError::EmptyGrid("reps"));
        }
        for &load in &self.loads {
            self.config(self.schedulers[0], load, 0).validate()?;
        }
        Ok(())
    }

    /// Cells in the grid (scheduler × load).
    pub fn cells(&self) -> usize {
        self.schedulers.len() * self.loads.len()
    }

    /// Total runs (cells × replications).
    pub fn runs(&self) -> usize {
        self.cells() * self.reps
    }

    /// The configuration of one run.
    fn config(&self, scheduler: SchedulerKind, load: f64, rep: usize) -> ExperimentConfig {
        let mut cfg = self
            .base
            .clone()
            .with_scheduler(scheduler)
            .with_load_factor(load)
            .with_seed(self.base.seed + rep as u64);
        // Replications draw independent fault streams, mirroring the
        // per-rep trace seeds: same grid cell, different failure history.
        if cfg.faults.enabled() {
            cfg.faults.seed = cfg.faults.seed.wrapping_add(rep as u64);
        }
        cfg
    }

    /// Expand the grid cell-major: all replications of a cell are
    /// consecutive, cells iterate scheduler-then-load. [`run_sweep`]
    /// relies on this layout to regroup results by cell.
    pub fn expand(&self) -> Vec<ExperimentConfig> {
        let mut configs = Vec::with_capacity(self.runs());
        for &scheduler in &self.schedulers {
            for &load in &self.loads {
                for rep in 0..self.reps {
                    configs.push(self.config(scheduler, load, rep));
                }
            }
        }
        configs
    }
}

/// One run collapsed to fixed-size scalars — everything the sweep keeps.
/// The full [`RunResult`] (outcomes, segments) is dropped inside the
/// worker thread that produced it.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Scheduler spec string (`ss:2`, `ns`, ...).
    pub scheduler: String,
    /// Load factor of the run.
    pub load_factor: f64,
    /// Trace seed of the run.
    pub seed: u64,
    /// Mean bounded slowdown over completed jobs.
    pub mean_slowdown: f64,
    /// Median bounded slowdown (P² estimate).
    pub p50_slowdown: f64,
    /// 99th-percentile bounded slowdown (P² estimate).
    pub p99_slowdown: f64,
    /// Worst bounded slowdown.
    pub worst_slowdown: f64,
    /// Mean turnaround, seconds.
    pub mean_turnaround: f64,
    /// Worst turnaround, seconds.
    pub worst_turnaround: f64,
    /// Productive utilization in [0, 1].
    pub utilization: f64,
    /// First submission → last completion, seconds.
    pub makespan: Secs,
    /// Suspensions performed.
    pub preemptions: u64,
    /// Jobs completed.
    pub completed: usize,
    /// Whether a watchdog cut the run short.
    pub aborted: bool,
    /// Engine events processed.
    pub events: u64,
    /// Engine wall-clock, microseconds.
    pub wall_micros: u64,
    /// Jobs refused by admission control.
    pub rejected: u64,
    /// Accumulated rejection penalty (Lucarelli-style, work-scaled).
    pub rejected_penalty: f64,
    /// Processor-seconds of accumulated work destroyed by fault kills.
    pub lost_work: f64,
    /// Transfer-seconds of checkpoint traffic (periodic images plus
    /// synchronous restores); zero outside checkpointing modes.
    pub ckpt_overhead: f64,
    /// Restarts on a different processor set than the suspension's.
    pub migrations: u64,
    /// Goodput in [0, 1]: productive work over *available* capacity.
    /// Equals utilization when no downtime was recorded.
    pub goodput: f64,
    /// Per-speed-tier productive utilization, `(speed, util in [0, 1])`
    /// ascending by speed. Empty on homogeneous runs, so the fixed-size
    /// promise holds where it mattered: heterogeneous machines have a
    /// handful of tiers, not thousands.
    pub tier_util: Vec<(f64, f64)>,
    /// Per-speed-tier mean bounded slowdown, `(speed, mean)` ascending,
    /// grouping each job by the gang rate of its first dispatch (the
    /// minimum speed over that set). Empty on homogeneous runs.
    pub tier_slowdown: Vec<(f64, f64)>,
    /// End-of-run health detector counts (only on instrumented runs).
    pub health: Option<HealthSummary>,
    /// Run-loop phase latency profile (only on profiled runs).
    pub phases: Option<PhaseProfile>,
}

impl RunSummary {
    /// Fold a finished run: one streaming pass over its outcomes.
    pub fn from_result(r: &RunResult) -> Self {
        Self::fold(&r.config, &r.sim)
    }

    /// The fold itself, from the raw parts. Public so the throughput
    /// bench's naive comparison path aggregates with bit-identical
    /// arithmetic to the sweep harness.
    pub fn fold(config: &ExperimentConfig, sim: &crate::sim::SimResult) -> Self {
        // Lean runs already folded every outcome as it completed; a full
        // run folds its outcomes here with the same estimators in the same
        // push order, so both read their scalars from one `OutcomeFold`.
        // Open-system runs fold only the measurement window (jobs
        // submitted after warmup); closed runs have no window and fold
        // everything.
        let refold;
        let fold = match &sim.lean {
            Some(fold) => fold,
            None => {
                let start = sim.windowed.as_ref().map(|w| w.start);
                let mut fold = OutcomeFold::new();
                for o in &sim.outcomes {
                    if start.is_none_or(|ws| o.submit >= ws) {
                        fold.push(o);
                    }
                }
                refold = fold;
                &refold
            }
        };
        let utilization = sim
            .windowed
            .as_ref()
            .map_or(sim.utilization, |w| w.utilization);
        let procs = config.system.procs;
        let goodput = match (sim.faults.downtime, &sim.windowed) {
            // Without downtime, goodput degenerates to utilization.
            (0, _) => utilization,
            // A windowed run's goodput covers the whole run, not the
            // window.
            (downtime, Some(_)) => goodput(&sim.outcomes, procs, downtime),
            (downtime, None) => fold.goodput(procs, downtime),
        };
        // Tier columns need the segment record, which lean runs drop;
        // lean runs are homogeneous by construction.
        let (tier_util, tier_slowdown) = if config.speed.is_uniform_one() {
            (Vec::new(), Vec::new())
        } else {
            tier_metrics(config, sim)
        };
        RunSummary {
            scheduler: config.scheduler.to_string(),
            load_factor: config.load_factor,
            seed: config.seed,
            mean_slowdown: fold.mean_slowdown(),
            p50_slowdown: fold.p50_slowdown(),
            p99_slowdown: fold.p99_slowdown(),
            worst_slowdown: fold.worst_slowdown(),
            mean_turnaround: fold.mean_turnaround(),
            worst_turnaround: fold.worst_turnaround(),
            utilization,
            makespan: sim.makespan,
            preemptions: sim.preemptions,
            completed: fold.count(),
            aborted: sim.status.is_aborted(),
            events: sim.kernel.events,
            wall_micros: sim.kernel.wall_micros,
            rejected: sim.rejections.rejected,
            rejected_penalty: sim.rejections.penalty,
            lost_work: sim.faults.lost_work as f64,
            ckpt_overhead: sim.faults.ckpt_overhead as f64,
            migrations: sim.faults.migrations,
            goodput,
            tier_util,
            tier_slowdown,
            health: sim.health,
            phases: sim.kernel.phases,
        }
    }
}

/// `(speed, value)` pairs, one per distinct speed tier, ascending.
type TierColumn = Vec<(f64, f64)>;

/// Per-speed-tier utilization and mean slowdown for a heterogeneous run,
/// reconstructed from the occupancy record. Tier utilization divides
/// busy processor-seconds on that tier's processors by its capacity over
/// the makespan; tier slowdown groups jobs by the gang rate of their
/// first dispatch.
fn tier_metrics(
    config: &ExperimentConfig,
    sim: &crate::sim::SimResult,
) -> (TierColumn, TierColumn) {
    let map = config.speed_map();
    let speeds = map.distinct_speeds();
    let tier_of = |s: f64| {
        speeds
            .iter()
            .position(|&t| t == s)
            .expect("every per-processor speed is a distinct speed")
    };
    let mut busy = vec![0.0f64; speeds.len()];
    let mut first_speed: std::collections::HashMap<sps_workload::JobId, f64> =
        std::collections::HashMap::new();
    for seg in &sim.segments {
        let span = (seg.end - seg.start) as f64;
        for p in seg.procs.iter() {
            busy[tier_of(map.speed(p))] += span;
        }
        first_speed
            .entry(seg.job)
            .or_insert_with(|| map.min_over(&seg.procs));
    }
    let mut capacity = vec![0u32; speeds.len()];
    for p in 0..map.len() {
        capacity[tier_of(map.speed(p))] += 1;
    }
    let horizon = sim.makespan.max(1) as f64;
    let tier_util = speeds
        .iter()
        .zip(&busy)
        .zip(&capacity)
        .map(|((&s, &b), &c)| (s, b / (c.max(1) as f64 * horizon)))
        .collect();
    let mut slow = vec![StreamingStats::new(); speeds.len()];
    for o in &sim.outcomes {
        if let Some(&s) = first_speed.get(&o.id) {
            slow[tier_of(s)].push(JobOutcome::slowdown(o));
        }
    }
    let tier_slowdown = speeds
        .iter()
        .zip(&slow)
        .map(|(&s, st)| (s, if st.count() > 0 { st.mean() } else { f64::NAN }))
        .collect();
    (tier_util, tier_slowdown)
}

/// Two-sided 97.5% Student-t quantiles for 1..=30 degrees of freedom
/// (1.96 beyond); standard table values, enough precision for error bars.
const T_975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// A mean with a 95% confidence half-width over seed replications.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ci {
    /// Sample mean (NaN when no replication succeeded).
    pub mean: f64,
    /// Half-width of the 95% interval (0 with fewer than two samples).
    pub half_width: f64,
}

impl Ci {
    /// Aggregate replication samples: mean ± t·s/√n.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Ci {
                mean: f64::NAN,
                half_width: 0.0,
            };
        }
        let mut stats = StreamingStats::new();
        for &x in samples {
            stats.push(x);
        }
        let n = stats.count() as f64;
        let half_width = if stats.count() < 2 {
            0.0
        } else {
            let t = T_975
                .get(stats.count() as usize - 2)
                .copied()
                .unwrap_or(1.96);
            t * stats.std_dev() / n.sqrt()
        };
        Ci {
            mean: stats.mean(),
            half_width,
        }
    }
}

impl std::fmt::Display for Ci {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} ± {:.2}", self.mean, self.half_width)
    }
}

/// One grid cell: a scheduler at a load, aggregated over replications.
#[derive(Clone, Debug, PartialEq)]
pub struct CellStats {
    /// The cell's scheduler.
    pub scheduler: SchedulerKind,
    /// The cell's load factor.
    pub load_factor: f64,
    /// Replications that completed (the denominator of every `Ci`).
    pub reps: usize,
    /// Replications lost to invalid configs or panics.
    pub failures: usize,
    /// Runs a watchdog cut short (their partial metrics are included).
    pub aborted: usize,
    /// Mean bounded slowdown.
    pub mean_slowdown: Ci,
    /// Median bounded slowdown.
    pub p50_slowdown: Ci,
    /// 99th-percentile bounded slowdown.
    pub p99_slowdown: Ci,
    /// Worst bounded slowdown.
    pub worst_slowdown: Ci,
    /// Mean turnaround, seconds.
    pub mean_turnaround: Ci,
    /// Productive utilization, percent.
    pub utilization_pct: Ci,
    /// Suspensions per run.
    pub preemptions: Ci,
    /// Makespan, seconds.
    pub makespan: Ci,
    /// Jobs refused by admission control per run.
    pub rejected: Ci,
    /// Accumulated rejection penalty per run.
    pub rejected_penalty: Ci,
    /// Processor-seconds of work destroyed by fault kills per run.
    pub lost_work: Ci,
    /// Transfer-seconds of checkpoint traffic per run.
    pub ckpt_overhead: Ci,
    /// Cross-set restarts (migrations) per run.
    pub migrations: Ci,
    /// Goodput over available capacity, percent.
    pub goodput_pct: Ci,
    /// Per-speed-tier utilization (percent), ascending by speed; empty
    /// for homogeneous cells.
    pub tier_util_pct: Vec<(f64, Ci)>,
    /// Per-speed-tier mean bounded slowdown, ascending by speed; empty
    /// for homogeneous cells.
    pub tier_slowdown: Vec<(f64, Ci)>,
    /// Health detector counts summed over instrumented replications
    /// (`None` when the sweep ran without telemetry).
    pub health: Option<HealthSummary>,
}

impl CellStats {
    /// Aggregate one cell's replication summaries. Public for the same
    /// reason as [`RunSummary::fold`]: the bench's naive path must build
    /// cells with identical arithmetic.
    pub fn from_summaries(
        scheduler: SchedulerKind,
        load_factor: f64,
        summaries: &[RunSummary],
        failures: usize,
    ) -> Self {
        let col = |f: &dyn Fn(&RunSummary) -> f64| {
            Ci::from_samples(&summaries.iter().map(f).collect::<Vec<_>>())
        };
        let health =
            summaries
                .iter()
                .filter_map(|s| s.health)
                .fold(None::<HealthSummary>, |acc, h| {
                    let mut sum = acc.unwrap_or_default();
                    sum.starvation_onsets += h.starvation_onsets;
                    sum.unresolved_starvation += h.unresolved_starvation;
                    sum.thrash_events += h.thrash_events;
                    sum.thrashed_jobs += h.thrashed_jobs;
                    sum.capacity_leak_procsecs += h.capacity_leak_procsecs;
                    Some(sum)
                });
        CellStats {
            scheduler,
            load_factor,
            reps: summaries.len(),
            failures,
            aborted: summaries.iter().filter(|s| s.aborted).count(),
            mean_slowdown: col(&|s| s.mean_slowdown),
            p50_slowdown: col(&|s| s.p50_slowdown),
            p99_slowdown: col(&|s| s.p99_slowdown),
            worst_slowdown: col(&|s| s.worst_slowdown),
            mean_turnaround: col(&|s| s.mean_turnaround),
            utilization_pct: col(&|s| s.utilization * 100.0),
            preemptions: col(&|s| s.preemptions as f64),
            makespan: col(&|s| s.makespan as f64),
            rejected: col(&|s| s.rejected as f64),
            rejected_penalty: col(&|s| s.rejected_penalty),
            lost_work: col(&|s| s.lost_work),
            ckpt_overhead: col(&|s| s.ckpt_overhead),
            migrations: col(&|s| s.migrations as f64),
            goodput_pct: col(&|s| s.goodput * 100.0),
            tier_util_pct: tier_col(summaries, |s| &s.tier_util, 100.0),
            tier_slowdown: tier_col(summaries, |s| &s.tier_slowdown, 1.0),
            health,
        }
    }
}

/// Aggregate one per-tier column over a cell's replications: tier `t`'s
/// samples are the `t`-th entries of every summary (the tier layout is
/// identical across replications — it comes from the shared speed spec).
fn tier_col(
    summaries: &[RunSummary],
    get: impl Fn(&RunSummary) -> &Vec<(f64, f64)>,
    scale: f64,
) -> Vec<(f64, Ci)> {
    let Some(first) = summaries.iter().map(&get).find(|v| !v.is_empty()) else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(t, &(speed, _))| {
            let samples: Vec<f64> = summaries
                .iter()
                .filter_map(|s| get(s).get(t).map(|&(_, v)| v * scale))
                .filter(|v| v.is_finite())
                .collect();
            (speed, Ci::from_samples(&samples))
        })
        .collect()
}

/// The finished sweep: per-cell aggregates plus batch-level accounting.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// One entry per grid cell, in expansion order (scheduler-major).
    pub cells: Vec<CellStats>,
    /// Total runs attempted.
    pub runs: usize,
    /// Runs that produced no summary, with their errors rendered.
    pub failures: Vec<String>,
    /// Runs skipped because the wall budget ran out before they started
    /// (a subset of the failure count; see [`SweepSpec::with_wall_budget`]).
    pub skipped: usize,
    /// Runs that panicked on every attempt (a subset of the failure
    /// count, disjoint from `skipped`).
    pub panicked: usize,
    /// Distinct traces generated (cache misses).
    pub unique_traces: usize,
    /// Trace requests served without regeneration (cache hits).
    pub trace_hits: u64,
    /// Wall-clock of the whole sweep, microseconds.
    pub wall_micros: u64,
    /// Final per-worker shard counters (one entry per pool worker, in
    /// worker order).
    pub workers: Vec<ShardStats>,
    /// Worker-lane cell spans (which worker ran which batch index, when),
    /// sorted by worker then start.
    pub worker_spans: Vec<WorkerSpan>,
    /// Run-loop phase spans per profiled run, as `(worker, spans)` pairs
    /// sharing the worker-span epoch — empty unless
    /// [`SweepSpec::timeline`] was set.
    pub run_spans: Vec<(usize, Vec<SpanEvent>)>,
}

impl SweepReport {
    /// CSV: one header row, one row per cell. `_ci` columns are 95%
    /// half-widths over seed replications. Heterogeneous sweeps append
    /// per-tier columns (`tier0.5_util_pct`, `tier0.5_slowdown`, ...) —
    /// the tier layout is shared by every cell, so rows stay rectangular.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scheduler,load,reps,failures,aborted,\
             mean_slowdown,mean_slowdown_ci,p50_slowdown,p50_slowdown_ci,\
             p99_slowdown,p99_slowdown_ci,worst_slowdown,worst_slowdown_ci,\
             mean_turnaround,mean_turnaround_ci,utilization_pct,utilization_pct_ci,\
             preemptions,preemptions_ci,makespan,makespan_ci,\
             rejected,rejected_ci,rejected_penalty,rejected_penalty_ci,\
             lost_work,lost_work_ci,ckpt_overhead,ckpt_overhead_ci,\
             migrations,migrations_ci,goodput_pct,goodput_pct_ci",
        );
        let tiers: Vec<f64> = self
            .cells
            .iter()
            .find(|c| !c.tier_util_pct.is_empty())
            .map(|c| c.tier_util_pct.iter().map(|&(s, _)| s).collect())
            .unwrap_or_default();
        for &speed in &tiers {
            let _ = write!(out, ",tier{speed}_util_pct,tier{speed}_slowdown");
        }
        out.push('\n');
        for c in &self.cells {
            let _ = write!(
                out,
                "{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.2},{:.2},{:.3},{:.3},{:.1},{:.1},{:.0},{:.0},{:.1},{:.1},{:.2},{:.2},{:.0},{:.0},{:.0},{:.0},{:.1},{:.1},{:.3},{:.3}",
                c.scheduler,
                c.load_factor,
                c.reps,
                c.failures,
                c.aborted,
                c.mean_slowdown.mean,
                c.mean_slowdown.half_width,
                c.p50_slowdown.mean,
                c.p50_slowdown.half_width,
                c.p99_slowdown.mean,
                c.p99_slowdown.half_width,
                c.worst_slowdown.mean,
                c.worst_slowdown.half_width,
                c.mean_turnaround.mean,
                c.mean_turnaround.half_width,
                c.utilization_pct.mean,
                c.utilization_pct.half_width,
                c.preemptions.mean,
                c.preemptions.half_width,
                c.makespan.mean,
                c.makespan.half_width,
                c.rejected.mean,
                c.rejected.half_width,
                c.rejected_penalty.mean,
                c.rejected_penalty.half_width,
                c.lost_work.mean,
                c.lost_work.half_width,
                c.ckpt_overhead.mean,
                c.ckpt_overhead.half_width,
                c.migrations.mean,
                c.migrations.half_width,
                c.goodput_pct.mean,
                c.goodput_pct.half_width,
            );
            for t in 0..tiers.len() {
                let util = c.tier_util_pct.get(t).map_or(f64::NAN, |&(_, ci)| ci.mean);
                let slow = c.tier_slowdown.get(t).map_or(f64::NAN, |&(_, ci)| ci.mean);
                let _ = write!(out, ",{util:.3},{slow:.4}");
            }
            out.push('\n');
        }
        out
    }

    /// JSON mirror of the CSV, plus batch accounting.
    pub fn to_json(&self) -> Json {
        let ci = |c: Ci| {
            Json::Obj(vec![
                ("mean".into(), Json::Num(c.mean)),
                ("ci95".into(), Json::Num(c.half_width)),
            ])
        };
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let mut fields = vec![
                    ("scheduler".into(), Json::Str(c.scheduler.to_string())),
                    ("load".into(), Json::Num(c.load_factor)),
                    ("reps".into(), Json::Int(c.reps as i64)),
                    ("failures".into(), Json::Int(c.failures as i64)),
                    ("aborted".into(), Json::Int(c.aborted as i64)),
                    ("mean_slowdown".into(), ci(c.mean_slowdown)),
                    ("p50_slowdown".into(), ci(c.p50_slowdown)),
                    ("p99_slowdown".into(), ci(c.p99_slowdown)),
                    ("worst_slowdown".into(), ci(c.worst_slowdown)),
                    ("mean_turnaround".into(), ci(c.mean_turnaround)),
                    ("utilization_pct".into(), ci(c.utilization_pct)),
                    ("preemptions".into(), ci(c.preemptions)),
                    ("makespan".into(), ci(c.makespan)),
                    ("rejected".into(), ci(c.rejected)),
                    ("rejected_penalty".into(), ci(c.rejected_penalty)),
                    ("lost_work".into(), ci(c.lost_work)),
                    ("ckpt_overhead".into(), ci(c.ckpt_overhead)),
                    ("migrations".into(), ci(c.migrations)),
                    ("goodput_pct".into(), ci(c.goodput_pct)),
                ];
                if !c.tier_util_pct.is_empty() {
                    let tiers = c
                        .tier_util_pct
                        .iter()
                        .zip(&c.tier_slowdown)
                        .map(|(&(speed, util), &(_, slow))| {
                            Json::Obj(vec![
                                ("speed".into(), Json::Num(speed)),
                                ("util_pct".into(), ci(util)),
                                ("mean_slowdown".into(), ci(slow)),
                            ])
                        })
                        .collect();
                    fields.push(("tiers".into(), Json::Arr(tiers)));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("runs".into(), Json::Int(self.runs as i64)),
            (
                "failures".into(),
                Json::Arr(self.failures.iter().map(|f| Json::Str(f.clone())).collect()),
            ),
            ("skipped".into(), Json::Int(self.skipped as i64)),
            ("unique_traces".into(), Json::Int(self.unique_traces as i64)),
            ("trace_hits".into(), Json::Int(self.trace_hits as i64)),
            ("wall_micros".into(), Json::Int(self.wall_micros as i64)),
            ("cells".into(), Json::Arr(cells)),
        ])
    }

    /// Fixed-width text table, one row per cell.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>5} {:>4} {:>18} {:>18} {:>18} {:>16} {:>14}",
            "scheduler",
            "load",
            "reps",
            "mean slowdown",
            "p99 slowdown",
            "mean turnaround",
            "utilization %",
            "preemptions",
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:<10} {:>5} {:>4} {:>18} {:>18} {:>18} {:>16} {:>14}",
                c.scheduler.to_string(),
                format!("{:.2}", c.load_factor),
                c.reps,
                c.mean_slowdown.to_string(),
                c.p99_slowdown.to_string(),
                format!(
                    "{:.0} ± {:.0}",
                    c.mean_turnaround.mean, c.mean_turnaround.half_width
                ),
                c.utilization_pct.to_string(),
                format!(
                    "{:.0} ± {:.0}",
                    c.preemptions.mean, c.preemptions.half_width
                ),
            );
        }
        let _ = writeln!(
            out,
            "{} runs, {} failed, {} unique traces ({} cache hits), {:.2}s",
            self.runs,
            self.failures.len(),
            self.unique_traces,
            self.trace_hits,
            self.wall_micros as f64 / 1e6,
        );
        if self.skipped > 0 {
            let _ = writeln!(
                out,
                "{} runs skipped: wall budget exhausted (partial results)",
                self.skipped,
            );
        }
        if !self.failures.is_empty() {
            // Aggregate the failure modes into one summary line — the
            // streamed per-run warnings scroll away, this does not.
            let invalid = self.failures.len() - self.panicked - self.skipped;
            let _ = writeln!(
                out,
                "failure breakdown: {} panicked, {} invalid, {} budget-skipped",
                self.panicked, invalid, self.skipped,
            );
        }
        out
    }
}

/// A live snapshot of a running sweep, delivered to the
/// [`run_sweep_observed`] observer once per *terminal* run outcome —
/// panicked and invalid cells count toward `done` exactly like
/// successes, so the ETA never stalls on a failed replication.
#[derive(Clone, Debug)]
pub struct SweepProgress {
    /// Runs finished (completed, failed, or panicked).
    pub done: usize,
    /// Total runs in the grid.
    pub total: usize,
    /// Runs lost to invalid configs or panics so far.
    pub failed: usize,
    /// Cells whose every replication has finished.
    pub cells_done: usize,
    /// Total grid cells.
    pub cells: usize,
    /// Wall-clock since the sweep started, seconds.
    pub elapsed_secs: f64,
    /// Terminal outcomes per second since start.
    pub runs_per_sec: f64,
    /// Naive remaining-work estimate (`None` until the rate is known).
    pub eta_secs: Option<f64>,
    /// Worst active health detector over all finished runs, rendered as
    /// e.g. `thrash ×12` (`None` without telemetry or with clean runs).
    pub worst_detector: Option<String>,
    /// Live per-worker shard counters, when the harness runs on a
    /// [`ShardBoard`] (the sweep and mega-sweep engines always do; the
    /// tracker itself fills `None` and the harness attaches the
    /// snapshot). Feeds the `--top` live worker view.
    pub workers: Option<Vec<ShardStats>>,
}

/// The grid driver's progress bookkeeping: folds a stream of terminal
/// run outcomes into [`SweepProgress`] snapshots for the observer.
struct ProgressTracker {
    start: Instant,
    total: usize,
    reps: usize,
    done: usize,
    failed: usize,
    per_cell: Vec<usize>,
    cells_done: usize,
    // Cumulative detector counts across finished runs; the "worst"
    // detector is the loudest one (thrash wins ties: it is actionable).
    starvation: u64,
    thrash: u64,
}

impl ProgressTracker {
    fn new(start: Instant, total: usize, cells: usize, reps: usize) -> Self {
        ProgressTracker {
            start,
            total,
            reps,
            done: 0,
            failed: 0,
            per_cell: vec![0; cells],
            cells_done: 0,
            starvation: 0,
            thrash: 0,
        }
    }

    /// Account one terminal outcome (run index `i` in expansion order)
    /// and build the snapshot to hand the observer.
    fn record(&mut self, i: usize, r: &Result<RunSummary, RunError>) -> SweepProgress {
        self.done += 1;
        match r {
            Ok(s) => {
                if let Some(h) = s.health {
                    self.starvation += u64::from(h.starvation_onsets);
                    self.thrash += u64::from(h.thrash_events);
                }
            }
            Err(_) => self.failed += 1,
        }
        let cell = i / self.reps;
        self.per_cell[cell] += 1;
        if self.per_cell[cell] == self.reps {
            self.cells_done += 1;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            self.done as f64 / elapsed
        } else {
            0.0
        };
        SweepProgress {
            done: self.done,
            total: self.total,
            failed: self.failed,
            cells_done: self.cells_done,
            cells: self.per_cell.len(),
            elapsed_secs: elapsed,
            runs_per_sec: rate,
            eta_secs: (rate > 0.0).then(|| (self.total - self.done) as f64 / rate),
            worst_detector: if self.thrash > 0 && self.thrash >= self.starvation {
                Some(format!("thrash ×{}", self.thrash))
            } else if self.starvation > 0 {
                Some(format!("starvation ×{}", self.starvation))
            } else {
                None
            },
            workers: None,
        }
    }
}

/// Regroup a cell-major result vector (the [`SweepSpec::expand`] layout:
/// `reps` consecutive entries per cell, cells iterating scheduler-then-
/// load) into per-cell aggregates. Returns the cells, the rendered
/// failures, the count of runs skipped on wall-budget exhaustion, and the
/// count of runs that panicked out.
fn regroup_cells(
    schedulers: &[SchedulerKind],
    loads: &[f64],
    reps: usize,
    base_seed: u64,
    results: &[Result<RunSummary, RunError>],
) -> (Vec<CellStats>, Vec<String>, usize, usize) {
    let skipped = results
        .iter()
        .filter(|r| matches!(r, Err(RunError::BudgetExhausted)))
        .count();
    let panicked = results
        .iter()
        .filter(|r| matches!(r, Err(RunError::Panicked { .. })))
        .count();
    let mut cells = Vec::with_capacity(schedulers.len() * loads.len());
    let mut failures = Vec::new();
    let mut chunks = results.chunks_exact(reps);
    for &scheduler in schedulers {
        for &load in loads {
            let chunk = chunks.next().expect("expansion is cell-major");
            let mut summaries = Vec::with_capacity(reps);
            let mut failed = 0usize;
            for (rep, r) in chunk.iter().enumerate() {
                match r {
                    Ok(s) => summaries.push(s.clone()),
                    Err(e) => {
                        failed += 1;
                        failures.push(format!(
                            "{scheduler} load {load} rep {rep} (seed {}): {e}",
                            base_seed + rep as u64
                        ));
                    }
                }
            }
            cells.push(CellStats::from_summaries(
                scheduler, load, &summaries, failed,
            ));
        }
    }
    (cells, failures, skipped, panicked)
}

/// Run the grid on `threads` workers (see
/// [`default_threads`](crate::experiment::default_threads) for the usual
/// choice). Each run folds to a [`RunSummary`] inside its worker; traces
/// are shared through one batch-local [`TraceCache`].
pub fn run_sweep(spec: &SweepSpec, threads: usize) -> Result<SweepReport, ConfigError> {
    run_sweep_observed(spec, threads, |_| {})
}

/// [`run_sweep`] with a progress observer: called on the driving thread
/// after every terminal run outcome with a fresh [`SweepProgress`].
pub fn run_sweep_observed<O>(
    spec: &SweepSpec,
    threads: usize,
    observe: O,
) -> Result<SweepReport, ConfigError>
where
    O: FnMut(&SweepProgress),
{
    spec.validate()?;
    Ok(drive_grid(
        spec,
        threads,
        |cfg, cache| {
            // Closed cells pull from one cached trace per (load, seed);
            // open cells build their seeded generator inside the builder.
            Ok(cfg.arrivals.is_trace().then(|| {
                Box::new(cache.source(cfg.trace_key(), || cfg.trace())) as Box<dyn JobSource>
            }))
        },
        observe,
    ))
}

/// Whether a sweep run folds lean: its [`RunSummary`] needs nothing but
/// the [`OutcomeFold`]. A run that stops early or has a warmup window
/// reads its per-job outcomes for the windowed report, a heterogeneous
/// run its occupancy segments for the per-tier columns, and
/// [`RunBuilder::build`] refuses lean on any heterogeneous or
/// speed-blind machine.
fn folds_lean(cfg: &ExperimentConfig) -> bool {
    cfg.until == RunUntil::Drained && cfg.warmup == 0 && !cfg.is_heterogeneous()
}

/// The grid driver behind [`run_sweep_observed`] and
/// [`run_mega_sweep_observed`](crate::mega::run_mega_sweep_observed),
/// which differ only in each run's job source.
/// `source(config, cache)` gives a run's explicit source (`None` lets
/// [`RunBuilder`] resolve it from the configuration), or the reason it
/// cannot be opened; the batch-local cache it may draw from feeds the
/// report's trace counters. A run whose source ends on an error fails
/// with [`RunError::Source`]. The spec must already be validated.
pub(crate) fn drive_grid<F, O>(
    spec: &SweepSpec,
    threads: usize,
    source: F,
    mut observe: O,
) -> SweepReport
where
    F: Fn(&ExperimentConfig, &TraceCache) -> Result<Option<Box<dyn JobSource>>, ConfigError> + Sync,
    O: FnMut(&SweepProgress),
{
    let start = Instant::now();
    let deadline = spec
        .wall_budget_ms
        .map(|ms| start + Duration::from_millis(ms));
    let cache = TraceCache::new();
    let (telemetry, timeline) = (spec.telemetry, spec.timeline);

    let mut progress = ProgressTracker::new(start, spec.runs(), spec.cells(), spec.reps);
    let board = ShardBoard::new(batch_workers(threads, spec.runs()));
    // Side channel for timeline-enabled runs: each profiled run's phase
    // spans, tagged with the worker that ran it. Shared epoch with the
    // board, so phase spans land inside their worker-lane cell span.
    let run_spans: Mutex<Vec<(usize, Vec<SpanEvent>)>> = Mutex::new(Vec::new());

    let results = run_batch(
        spec.expand(),
        threads,
        spec.retries,
        deadline,
        Some(&board),
        |worker, cfg: &Arc<ExperimentConfig>| {
            // Simulate and fold directly: no RunResult (and no
            // per-category reports) is ever materialized on the sweep
            // path.
            let mut builder = RunBuilder::new(Arc::clone(cfg)).lean(folds_lean(cfg));
            if let Some(src) = source(cfg, &cache).map_err(RunError::Invalid)? {
                builder = builder.source(src);
            }
            if let Some(d) = deadline {
                // Cap the in-flight run's watchdog to the remaining
                // budget: a run that would overrun the sweep's wall
                // budget aborts with partial metrics instead.
                let left = d.saturating_duration_since(Instant::now());
                let cap = (left.as_millis() as u64).max(1);
                let mut dog = Watchdog::generous();
                dog.max_wall_ms = Some(dog.max_wall_ms.map_or(cap, |w| w.min(cap)));
                builder = builder.watchdog(dog);
            }
            if timeline {
                builder =
                    builder.profiler(SpanProfiler::with_timeline(0).with_epoch(board.epoch()));
            }
            let mut sim = if telemetry {
                let mut tel = Telemetry::new();
                builder.telemetry(&mut tel).simulate()
            } else {
                builder.simulate()
            };
            if let Some(e) = sim.source_error.take() {
                return Err(RunError::Source(e));
            }
            let summary = RunSummary::fold(cfg, &sim);
            if let Some(spans) = sim.spans.take() {
                run_spans
                    .lock()
                    .expect("spans poisoned")
                    .push((worker, spans));
            }
            Ok(summary)
        },
        |i, r| {
            let mut p = progress.record(i, r);
            p.workers = Some(board.snapshot());
            observe(&p);
        },
    );

    let (cells, failures, skipped, panicked) = regroup_cells(
        &spec.schedulers,
        &spec.loads,
        spec.reps,
        spec.base.seed,
        &results,
    );

    // Completion order is racy across workers; sort the lanes so the
    // exported timeline (and any diff over it) is stable for a given
    // execution.
    let mut worker_spans = board.take_spans();
    worker_spans.sort_by_key(|s| (s.worker, s.start_ns, s.index));
    let mut run_spans = run_spans.into_inner().expect("spans poisoned");
    run_spans
        .sort_by_key(|(worker, spans)| (*worker, spans.first().map_or(u64::MAX, |s| s.start_ns)));

    SweepReport {
        cells,
        runs: spec.runs(),
        failures,
        skipped,
        panicked,
        unique_traces: cache.len(),
        trace_hits: cache.hits(),
        wall_micros: start.elapsed().as_micros() as u64,
        workers: board.snapshot(),
        worker_spans,
        run_spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_telemetry::SpanPhase;
    use sps_workload::traces::SDSC;

    fn tiny() -> SweepSpec {
        SweepSpec::new(SDSC)
            .with_schedulers(vec![SchedulerKind::Easy, SchedulerKind::Ss { sf: 2.0 }])
            .with_loads(vec![0.8, 1.0])
            .with_jobs(120)
            .with_seed(11)
            .with_reps(3)
    }

    #[test]
    fn expansion_is_cell_major_with_rep_seeds() {
        let spec = tiny();
        let configs = spec.expand();
        assert_eq!(configs.len(), 12);
        // First cell: easy at load 0.8, seeds 11..14.
        for (rep, cfg) in configs[..3].iter().enumerate() {
            assert_eq!(cfg.scheduler, SchedulerKind::Easy);
            assert_eq!(cfg.load_factor, 0.8);
            assert_eq!(cfg.seed, 11 + rep as u64);
        }
        // Cells iterate load before scheduler.
        assert_eq!(configs[3].load_factor, 1.0);
        assert_eq!(configs[3].scheduler, SchedulerKind::Easy);
        assert_eq!(configs[6].scheduler, SchedulerKind::Ss { sf: 2.0 });
    }

    #[test]
    fn empty_axes_are_rejected() {
        let no_sched = SweepSpec::new(SDSC);
        assert_eq!(
            no_sched.validate(),
            Err(ConfigError::EmptyGrid("schedulers"))
        );
        assert_eq!(
            tiny().with_loads(vec![]).validate(),
            Err(ConfigError::EmptyGrid("loads"))
        );
        assert_eq!(
            tiny().with_reps(0).validate(),
            Err(ConfigError::EmptyGrid("reps"))
        );
        assert_eq!(
            tiny().with_loads(vec![-1.0]).validate(),
            Err(ConfigError::BadLoadFactor(-1.0))
        );
    }

    #[test]
    fn sweep_shares_traces_and_aggregates_cells() {
        let spec = tiny();
        // One worker: with several, two workers can race on a cold key
        // and both generate (the documented cache semantics), making the
        // exact hit count below nondeterministic.
        let report = run_sweep(&spec, 1).expect("valid spec");
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.runs, 12);
        assert!(report.failures.is_empty());
        // 2 loads × 3 seeds distinct traces; the second scheduler reuses
        // all six.
        assert_eq!(report.unique_traces, 6);
        assert_eq!(report.trace_hits, 6);
        for cell in &report.cells {
            assert_eq!(cell.reps, 3);
            assert_eq!(cell.failures, 0);
            assert!(cell.mean_slowdown.mean >= 1.0);
            assert!(cell.mean_slowdown.half_width >= 0.0);
            assert!(cell.utilization_pct.mean > 0.0);
        }
        // Preemptive SS preempts; EASY never does.
        assert_eq!(report.cells[0].preemptions.mean, 0.0);
    }

    #[test]
    fn cell_means_match_independent_runs() {
        let spec = tiny().with_reps(2);
        let report = run_sweep(&spec, 1).expect("valid spec");
        // Recompute the easy @ 0.8 cell by hand from plain runs.
        let by_hand: Vec<f64> = (0..2)
            .map(|rep| {
                let r = spec.config(SchedulerKind::Easy, 0.8, rep).run();
                RunSummary::from_result(&r).mean_slowdown
            })
            .collect();
        let expected = Ci::from_samples(&by_hand);
        assert_eq!(report.cells[0].mean_slowdown, expected);
    }

    #[test]
    fn observed_sweep_streams_progress_and_health() {
        let spec = tiny().with_reps(2).with_jobs(80).with_telemetry(true);
        let mut snaps: Vec<(usize, usize)> = Vec::new();
        let report = run_sweep_observed(&spec, 2, |p| {
            assert_eq!(p.total, 8);
            assert_eq!(p.cells, 4);
            assert_eq!(p.failed, 0);
            assert!(p.done >= 1 && p.done <= p.total);
            assert!(p.cells_done <= p.cells);
            snaps.push((p.done, p.cells_done));
        })
        .expect("valid spec");
        // One snapshot per terminal outcome, `done` strictly monotone,
        // ending with the whole grid accounted for.
        assert_eq!(snaps.len(), 8);
        assert!(snaps.windows(2).all(|w| w[1].0 == w[0].0 + 1));
        assert_eq!(*snaps.last().unwrap(), (8, 4));
        // Instrumented runs surface detector counts on every cell.
        for cell in &report.cells {
            let h = cell.health.expect("telemetry sweep keeps health");
            assert_eq!(h.unresolved_starvation, 0);
        }
    }

    #[test]
    fn sweep_cells_are_thread_count_invariant() {
        // The worker count reorders execution, never results: the cell
        // table is bit-identical whether one worker walks the grid or
        // sixteen race over it — including grids that skip on an expired
        // budget.
        let base = run_sweep(&tiny(), 1).expect("valid spec").to_csv();
        for threads in [4, 16] {
            assert_eq!(
                base,
                run_sweep(&tiny(), threads).expect("valid spec").to_csv(),
                "{threads} threads"
            );
        }
        let skipped = run_sweep(&tiny().with_wall_budget(0), 1)
            .expect("valid spec")
            .to_csv();
        for threads in [4, 16] {
            assert_eq!(
                skipped,
                run_sweep(&tiny().with_wall_budget(0), threads)
                    .expect("valid spec")
                    .to_csv(),
                "{threads} threads, exhausted budget"
            );
        }
    }

    /// The grid's cells folded from explicit full (`.lean(false)`) runs,
    /// with the sweep's arithmetic.
    fn full_cells(spec: &SweepSpec) -> Vec<CellStats> {
        let summaries: Vec<RunSummary> = spec
            .expand()
            .into_iter()
            .map(|cfg| {
                let cfg = Arc::new(cfg);
                let sim = RunBuilder::new(Arc::clone(&cfg)).lean(false).simulate();
                RunSummary::fold(&cfg, &sim)
            })
            .collect();
        let mut chunks = summaries.chunks_exact(spec.reps);
        let mut cells = Vec::new();
        for &scheduler in &spec.schedulers {
            for &load in &spec.loads {
                let chunk = chunks.next().expect("cell-major expansion");
                cells.push(CellStats::from_summaries(scheduler, load, chunk, 0));
            }
        }
        cells
    }

    #[test]
    fn lean_sweep_is_bit_identical_to_full() {
        // The sweep folds these drained homogeneous runs lean, with the
        // same estimators in the same push order as the materialized
        // fold: every cell metric must agree to the bit. Debug output
        // prints every digit and renders NaN equal to NaN.
        let spec = tiny();
        assert!(spec.expand().iter().all(folds_lean));
        let report = run_sweep(&spec, 2).expect("valid spec");
        assert_eq!(
            format!("{:?}", report.cells),
            format!("{:?}", full_cells(&spec))
        );
    }

    #[test]
    fn heterogeneous_and_warmup_grids_run_full() {
        // A heterogeneous grid still reports its tier columns ...
        let mut hetero = tiny().with_reps(2);
        hetero.base.speed = "tiers:0.5x64+1.0x64".parse().unwrap();
        let report = run_sweep(&hetero, 2).expect("valid hetero spec");
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(report.cells.iter().all(|c| c.tier_util_pct.len() == 2));
        assert_eq!(
            format!("{:?}", report.cells),
            format!("{:?}", full_cells(&hetero))
        );
        // ... and a closed grid with a warmup window its windowed cells,
        // which differ from the same grid without the window.
        let mut warm = tiny().with_reps(2);
        warm.base.warmup = 6 * 3600;
        let report = run_sweep(&warm, 2).expect("valid warmup spec");
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(
            format!("{:?}", report.cells),
            format!("{:?}", full_cells(&warm))
        );
        let unwindowed = run_sweep(&tiny().with_reps(2), 2).expect("valid spec");
        assert_ne!(report.to_csv(), unwindowed.to_csv());
    }

    #[test]
    fn runs_fold_lean_exactly_when_the_summary_needs_only_the_fold() {
        use sps_simcore::SimTime;
        use sps_workload::ArrivalSpec;
        let drained = ExperimentConfig::new(SDSC, SchedulerKind::Ss { sf: 2.0 });
        assert!(folds_lean(&drained));
        // Faults, checkpoints and admission change what the fold sees,
        // not whether the summary needs more than the fold.
        let faulty = drained
            .clone()
            .with_faults(crate::faults::FaultModel::proc_faults(40_000, 3_600, 13))
            .with_preemption(crate::checkpoint::PreemptionMode::Migrate);
        assert!(folds_lean(&faulty));
        assert!(!folds_lean(&drained.clone().with_warmup(600)));
        for until in [RunUntil::SimTime(SimTime::new(86_400)), RunUntil::Jobs(100)] {
            assert!(!folds_lean(&drained.clone().with_until(until)), "{until}");
        }
        let open = drained
            .clone()
            .with_arrivals(ArrivalSpec::Poisson { load: None })
            .with_until(RunUntil::SimTime(SimTime::new(86_400)));
        assert!(!folds_lean(&open));
        let tiers = drained
            .clone()
            .with_speed("tiers:0.5x64+1.0x64".parse().unwrap());
        assert!(!folds_lean(&tiers));
        assert!(!folds_lean(&drained.clone().with_speed_aware(false)));
    }

    #[test]
    fn telemetry_never_perturbs_sweep_results() {
        // The whole observability layer is read-only: the same grid with
        // and without telemetry must produce bit-identical cell metrics.
        let plain = run_sweep(&tiny(), 2).expect("valid spec");
        let instrumented = run_sweep(&tiny().with_telemetry(true), 2).expect("valid spec");
        assert!(plain.cells.iter().all(|c| c.health.is_none()));
        assert_eq!(plain.to_csv(), instrumented.to_csv());
    }

    #[test]
    fn timeline_capture_never_perturbs_and_fills_lanes() {
        // Span capture is pure observation: cells are bit-identical with
        // the profiler on, and the report gains one populated worker lane
        // per batch worker plus per-run phase spans.
        let plain = run_sweep(&tiny(), 2).expect("valid spec");
        let timed = run_sweep(&tiny().with_timeline(true), 2).expect("valid spec");
        assert_eq!(plain.to_csv(), timed.to_csv());
        // Worker-lane spans ride on shard accounting and are always
        // collected; the in-run phase spans exist only when asked for.
        assert!(plain.run_spans.is_empty());
        assert_eq!(plain.worker_spans.len(), plain.runs);
        assert_eq!(timed.workers.len(), 2);
        assert_eq!(timed.worker_spans.len(), timed.runs, "one span per run");
        assert_eq!(timed.run_spans.len(), timed.runs);
        // Every shard accounted for every cell it ran, with wall split.
        let done: u64 = timed.workers.iter().map(|w| w.cells_done).sum();
        assert_eq!(done, timed.runs as u64);
        // The shared run counter does not promise every worker a cell:
        // busy time is recorded exactly on the workers that ran one.
        assert!(timed
            .workers
            .iter()
            .all(|w| (w.busy_ns > 0) == (w.cells_done + w.cells_failed > 0)));
        // Lanes are sorted and spans carry real phase activity.
        assert!(timed
            .worker_spans
            .windows(2)
            .all(|p| (p[0].worker, p[0].start_ns) <= (p[1].worker, p[1].start_ns)));
        assert!(timed
            .run_spans
            .iter()
            .all(|(w, spans)| *w < 2 && spans.iter().any(|s| s.phase == SpanPhase::Decide)));
        // Per-phase percentiles fold into the cell summaries' source runs:
        // a timed run's KernelStats carries a profile (checked via mega
        // and runloop tests); here pin the report-level surfaces only.
        assert!(timed.render_table().contains("mean slowdown"));
    }

    #[test]
    fn open_system_sweep_reports_windowed_cells() {
        use crate::admission::AdmissionModel;
        use crate::sim::RunUntil;
        use sps_workload::ArrivalSpec;
        let base = ExperimentConfig::new(SDSC, SchedulerKind::Easy)
            .with_seed(5)
            .with_arrivals(ArrivalSpec::Poisson { load: None })
            .with_until(RunUntil::SimTime(sps_simcore::SimTime::new(86_400 * 3)))
            .with_warmup(86_400 / 2)
            .with_admission(AdmissionModel::load_adaptive(4.0 * 3600.0, 1.0));
        let spec = SweepSpec::over(base)
            .with_schedulers(vec![SchedulerKind::Easy, SchedulerKind::Ss { sf: 2.0 }])
            .with_loads(vec![0.7])
            .with_reps(2);
        let report = run_sweep(&spec, 2).expect("valid open spec");
        assert_eq!(report.cells.len(), 2);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        // No finite traces are generated on the open path.
        assert_eq!(report.unique_traces, 0);
        for cell in &report.cells {
            assert_eq!(cell.reps, 2);
            assert!(cell.mean_slowdown.mean >= 1.0);
            assert!(cell.utilization_pct.mean > 0.0 && cell.utilization_pct.mean <= 100.0);
            assert!(cell.rejected.mean >= 0.0);
        }
        let csv = report.to_csv();
        assert!(csv.starts_with("scheduler,load,"));
        assert!(csv.lines().next().unwrap().ends_with("goodput_pct_ci"));
    }

    #[test]
    fn faulty_checkpointing_sweep_reports_fault_columns() {
        use crate::checkpoint::{CheckpointModel, PreemptionMode};
        use crate::faults::{FaultModel, RecoveryPolicy};
        let base = ExperimentConfig::new(SDSC, SchedulerKind::Easy)
            .with_jobs(150)
            .with_seed(7)
            .with_faults(
                FaultModel::proc_faults(40_000, 3_600, 13).with_recovery(RecoveryPolicy::Resubmit),
            )
            .with_preemption(PreemptionMode::Migrate)
            .with_checkpoint(CheckpointModel::paper().with_interval(1_800));
        let spec = SweepSpec::over(base)
            .with_schedulers(vec![SchedulerKind::Ss { sf: 2.0 }])
            .with_loads(vec![1.1])
            .with_reps(2);
        let report = run_sweep(&spec, 2).expect("valid faulty spec");
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let cell = &report.cells[0];
        assert!(cell.goodput_pct.mean > 0.0 && cell.goodput_pct.mean <= 100.0);
        assert!(cell.lost_work.mean >= 0.0);
        assert!(cell.ckpt_overhead.mean > 0.0, "images and restores charge");
        // The two replications draw different fault streams, so the cell's
        // fault metrics are genuine per-seed samples, not one value twice.
        let csv = report.to_csv();
        assert!(csv.lines().next().unwrap().ends_with("goodput_pct_ci"));
    }

    #[test]
    fn hetero_sweep_reports_tier_columns() {
        let base = ExperimentConfig::new(SDSC, SchedulerKind::Easy)
            .with_speed("tiers:0.5x64+1.0x64".parse().unwrap());
        let spec = SweepSpec::over(base)
            .with_schedulers(vec![SchedulerKind::Ss { sf: 2.0 }])
            .with_loads(vec![1.0])
            .with_jobs(120)
            .with_seed(11)
            .with_reps(2);
        let report = run_sweep(&spec, 2).expect("valid hetero spec");
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let cell = &report.cells[0];
        let speeds: Vec<f64> = cell.tier_util_pct.iter().map(|&(s, _)| s).collect();
        assert_eq!(speeds, vec![0.5, 1.0], "tiers ascend by speed");
        assert!(cell
            .tier_util_pct
            .iter()
            .all(|&(_, ci)| (0.0..=100.0).contains(&ci.mean)));
        // Speed-aware placement prefers the fast tier, so it carries at
        // least as much of the load as the slow one.
        assert!(cell.tier_util_pct[1].1.mean >= cell.tier_util_pct[0].1.mean);
        let header = report.to_csv().lines().next().unwrap().to_string();
        assert!(header.ends_with("tier0.5_util_pct,tier0.5_slowdown,tier1_util_pct,tier1_slowdown"));
        assert!(report.to_json().render().contains("\"tiers\""));
        // Homogeneous sweeps keep the historical header verbatim.
        let plain = run_sweep(&tiny().with_reps(1), 2).expect("valid spec");
        assert!(plain
            .to_csv()
            .lines()
            .next()
            .unwrap()
            .ends_with("goodput_pct_ci"));
    }

    #[test]
    fn exhausted_wall_budget_degrades_to_partial_cells() {
        let spec = tiny().with_wall_budget(0);
        let report = run_sweep(&spec, 2).expect("valid spec");
        assert_eq!(report.skipped, report.runs, "0 ms budget skips everything");
        assert_eq!(report.failures.len(), report.runs);
        assert!(report
            .failures
            .iter()
            .all(|f| f.contains("wall budget exhausted")));
        // The grid still reports every cell, just with zero completed reps.
        assert_eq!(report.cells.len(), 4);
        for cell in &report.cells {
            assert_eq!(cell.reps, 0);
            assert_eq!(cell.failures, 3);
            assert!(cell.mean_slowdown.mean.is_nan());
        }
        assert!(report.render_table().contains("skipped: wall budget"));
        // A generous budget changes nothing.
        let full = run_sweep(&tiny().with_wall_budget(600_000), 2).expect("valid spec");
        assert_eq!(full.skipped, 0);
        assert_eq!(full.to_csv(), run_sweep(&tiny(), 2).expect("ok").to_csv());
    }

    #[test]
    fn open_system_sweep_without_until_is_rejected() {
        let mut spec = tiny();
        spec.base.arrivals = sps_workload::ArrivalSpec::Poisson { load: None };
        assert!(matches!(spec.validate(), Err(ConfigError::BadArrivals(_))));
    }

    #[test]
    fn report_renders_csv_json_table() {
        let spec = tiny().with_reps(1).with_jobs(60);
        // One worker, so the cache-hit count below is exact (see
        // `sweep_shares_traces_and_aggregates_cells`).
        let report = run_sweep(&spec, 1).expect("valid spec");
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 5, "header + one row per cell");
        assert!(csv.starts_with("scheduler,load,"));
        let json = report.to_json().render();
        assert!(json.contains("\"unique_traces\""));
        assert!(json.contains("\"ss:2.0\""));
        let table = report.render_table();
        assert!(table.contains("mean slowdown"));
        assert!(table.contains("2 cache hits"));
    }
}
