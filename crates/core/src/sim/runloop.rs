//! The simulator driver: event handling, the policy-decision loop, fault
//! delivery, and result assembly.

use std::cell::Cell;
use std::time::Instant;

use sps_metrics::{
    utilization, FaultSummary, JobOutcome, OutcomeFold, RejectionSummary, WindowedReport,
};
use sps_simcore::{
    Engine, EventClass, EventQueue, RunOutcome, Secs, SimTime, Simulation, Ticker, Watchdog,
};
use sps_telemetry::{
    EventClass as ObsClass, HealthSummary, NullTelemetry, Obs, PhaseProfile, SpanEvent, SpanPhase,
    SpanProfiler, TelemetryCtx, TelemetrySink,
};
use sps_trace::{JobEvent, NullSink, ProcEvent, Reason, TraceCtx, TraceRecord, TraceSink};
use sps_workload::{parse_secs, Job, JobId, JobSource, SwfError, TraceSource};

use super::state::{Event, OccupancySegment, Phase, SimState};
use crate::admission::AdmissionModel;
use crate::checkpoint::{CheckpointModel, PreemptionMode};
use crate::faults::{FaultInjector, FaultModel, RecoveryPolicy};
use crate::overhead::OverheadModel;
use crate::policy::{Action, DecideCtx, Policy};

/// Which watchdog limit cut a run short.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// The engine's batch budget tripped.
    BatchLimit,
    /// The engine's event budget tripped.
    EventLimit,
    /// The wall-clock budget tripped.
    WallClock,
}

/// Which requested stopping condition ended an open-system run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The simulated-time horizon ([`RunUntil::SimTime`]) was reached.
    Horizon,
    /// The completed-job target ([`RunUntil::Jobs`]) was reached.
    JobCount,
}

/// Whether a run finished or a watchdog ended it early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// Every job completed and the event queue drained.
    Completed,
    /// The run reached its requested stopping condition
    /// ([`Simulator::with_until`]) with jobs still in flight. This is the
    /// *expected* ending of an open-system run — not an abort.
    Stopped(StopReason),
    /// A watchdog limit ended the run; metrics cover the jobs that
    /// completed before the abort.
    Aborted(AbortReason),
}

impl RunStatus {
    /// Whether the run was cut short.
    pub fn is_aborted(self) -> bool {
        matches!(self, RunStatus::Aborted(_))
    }

    /// Whether the run ended at its requested stopping condition.
    pub fn is_stopped(self) -> bool {
        matches!(self, RunStatus::Stopped(_))
    }
}

/// When a run ends. `Drained` is the closed-system default: every job
/// completes and the event queue empties. The other variants make
/// unbounded [`JobSource`]s usable — a Poisson stream never drains, so the
/// run stops at a simulated-time horizon or a completed-job count and the
/// result carries [`RunStatus::Stopped`] plus a warmup-windowed report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RunUntil {
    /// Run until the event queue drains (every job completed).
    #[default]
    Drained,
    /// Stop before delivering any event past this simulated instant.
    SimTime(SimTime),
    /// Stop once this many jobs have completed.
    Jobs(usize),
}

/// Grammar: `drained`, a duration with `s`/`m`/`h`/`d` suffix (`30d`), or
/// a job count with a `j` suffix (`5000j`). `Display` round-trips.
impl std::fmt::Display for RunUntil {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunUntil::Drained => write!(f, "drained"),
            RunUntil::SimTime(t) => write!(f, "{}s", t.secs()),
            RunUntil::Jobs(n) => write!(f, "{n}j"),
        }
    }
}

impl std::str::FromStr for RunUntil {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if s == "drained" {
            return Ok(RunUntil::Drained);
        }
        if let Some(n) = s.strip_suffix('j') {
            let n: usize = n
                .parse()
                .map_err(|_| format!("bad job count in '{s}' (expected e.g. '5000j')"))?;
            return Ok(RunUntil::Jobs(n));
        }
        let secs = parse_secs(s)?;
        Ok(RunUntil::SimTime(SimTime::new(secs)))
    }
}

/// Kernel throughput counters for one run: how much simulation the
/// machine did per unit of real time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelStats {
    /// Engine events processed (arrivals, completions, drains, faults,
    /// ticks).
    pub events: u64,
    /// Event batches handled — one policy `decide()` call each.
    pub decide_calls: u64,
    /// Wall-clock time of the engine loop, microseconds.
    pub wall_micros: u64,
    /// Job-table slots reclaimed by lean-mode prefix trimming (zero for
    /// full runs, which keep every record).
    pub reclaimed_slots: u64,
    /// Per-phase latency profile from the span profiler
    /// ([`Simulator::with_profiler`]); `None` on unprofiled runs.
    pub phases: Option<PhaseProfile>,
}

impl KernelStats {
    /// Events processed per wall-clock second, or `None` when the run was
    /// too fast for the microsecond clock to register any wall time at all
    /// (a rate computed from a zero denominator would be infinite, not
    /// informative).
    pub fn events_per_sec(&self) -> Option<f64> {
        (self.wall_micros > 0).then(|| self.events as f64 * 1e6 / self.wall_micros as f64)
    }

    /// The wall time the span profiler attributed to the run loop's
    /// phases, in nanoseconds, or `None` on an unprofiled run. It sums
    /// the four phases that partition each batch — event drain,
    /// lifecycle, decide and dispatch — and leaves out `checkpoint_io`,
    /// which is timed inside dispatch, and `trace_sink`, whose final
    /// flush runs after the wall clock stops. It never exceeds
    /// `wall_micros × 1000`; the difference is the loop's own
    /// unattributed time.
    pub fn attributed_nanos(&self) -> Option<u64> {
        self.phases.map(|p| {
            [
                SpanPhase::EventDrain,
                SpanPhase::Lifecycle,
                SpanPhase::Decide,
                SpanPhase::Dispatch,
            ]
            .iter()
            .map(|&phase| p.total_ns(phase))
            .sum()
        })
    }
}

/// Result of a full simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Scheduler name (from the policy).
    pub policy: String,
    /// Completed normally, or aborted by a watchdog with partial metrics.
    pub status: RunStatus,
    /// Jobs left unfinished, counting those a finite source had not yet
    /// delivered (non-zero only for aborted or stopped runs).
    pub unfinished: usize,
    /// Fault-injection counters (all zero without faults).
    pub faults: FaultSummary,
    /// One record per job, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Productive utilization over the makespan.
    pub utilization: f64,
    /// First submission → last completion, seconds.
    pub makespan: Secs,
    /// Total suspensions performed.
    pub preemptions: u64,
    /// Actions dropped because their precondition had lapsed (always zero
    /// for non-preemptive policies and for preemptive ones under zero
    /// overhead).
    pub dropped_actions: u64,
    /// The full machine occupancy record: one segment per dispatch, with
    /// exact processor sets. Powers Gantt/timeline rendering and the
    /// per-processor non-overlap invariant tests.
    pub segments: Vec<OccupancySegment>,
    /// Kernel throughput: events processed, decide calls, wall time.
    pub kernel: KernelStats,
    /// Health-detector roll-up, when the run carried a telemetry sink
    /// that tracks health (`None` under the default [`NullTelemetry`]).
    pub health: Option<HealthSummary>,
    /// Rejection ledger (empty unless admission control rejected jobs).
    pub rejections: RejectionSummary,
    /// Warmup-windowed steady-state metrics. Present when the run set a
    /// stopping condition other than [`RunUntil::Drained`] or a warmup
    /// window ([`Simulator::with_warmup`]); `None` on plain closed-system
    /// runs, whose whole-trace metrics are the fields above.
    pub windowed: Option<WindowedReport>,
    /// The streaming outcome fold of a lean run
    /// ([`Simulator::with_lean`]): fixed-size headline metrics computed
    /// with bit-identical arithmetic to the materialized pass. `None` on
    /// ordinary runs, whose `outcomes` hold everything.
    pub lean: Option<OutcomeFold>,
    /// Individual phase spans for timeline export, present when the run
    /// carried a profiler built with [`SpanProfiler::with_timeline`].
    /// Aggregate statistics live in [`KernelStats::phases`] either way.
    pub spans: Option<Vec<SpanEvent>>,
    /// The error that ended the job source early ([`JobSource::error`]):
    /// the run simulated only the jobs before it. `None` when the source
    /// ran to its end.
    pub source_error: Option<SwfError>,
}

/// Ticks of the every-tick schedule that idle elision let lapse: all of
/// them while the ticker is disarmed, or those before a tick armed at a
/// no-op horizon ([`DecideCtx::noop_until`]). Nothing runs between two
/// executed batches, so the machine a lapsed tick would have seen is the
/// one the last batch left, and its decide — a certified no-op — repeats
/// the last decide's. Each lapsed tick is replayed when the next batch (or
/// the end of the run) passes it: it writes the last decide's decision
/// records again with its own `t`, then its gauge; on a machine with jobs
/// waiting or draining it also takes telemetry's per-instant sample, with
/// xfactors as of the tick, and forwards the health events that follow.
/// It is counted in the trace's `engine` record, but nothing is simulated.
#[derive(Default)]
struct LapsedTicks {
    /// The next tick the every-tick schedule would deliver while the
    /// ticker is disarmed or armed past it: set when a batch leaves work
    /// pending without arming the ticker at its next tick, cleared when
    /// the ticker is armed there, and left alone when the machine empties
    /// (the every-tick schedule's armed tick still fires once on the
    /// emptied machine).
    next: Option<SimTime>,
    /// The decision records of the last decide, kept only when it
    /// reported a no-op horizon (TSS's `blocked_by_disable_limit` can be
    /// written without an action); the lapsed ticks write them again.
    decisions: Vec<TraceRecord>,
    /// Lapsed ticks replayed as tick-only batches of their own.
    batches: u64,
    /// Lapsed ticks that fell on an executed batch's instant, which then
    /// decided as a tick batch.
    merged: u64,
}

/// The sink a decide writes through: it forwards every record to the
/// run's sink and keeps the decision records, which the ticks a no-op
/// decide lets lapse write again ([`LapsedTicks::decisions`]).
struct KeepDecisions<'a, S> {
    sink: &'a mut S,
    kept: &'a mut Vec<TraceRecord>,
}

impl<S: TraceSink> TraceSink for KeepDecisions<'_, S> {
    #[inline]
    fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    fn record(&mut self, rec: &TraceRecord) {
        if matches!(rec, TraceRecord::Decision { .. }) {
            self.kept.push(rec.clone());
        }
        self.sink.record(rec);
    }
}

/// The simulator: a trace, a machine, a policy, an overhead model.
///
/// ```
/// use sps_core::experiment::SchedulerKind;
/// use sps_core::sim::Simulator;
/// use sps_workload::Job;
///
/// // Two jobs on an 8-processor machine under EASY backfilling.
/// let jobs = vec![Job::new(0, 0, 100, 100, 8), Job::new(1, 5, 100, 100, 8)];
/// let result = Simulator::new(jobs, 8, SchedulerKind::Easy.build()).run();
/// assert_eq!(result.outcomes.len(), 2);
/// assert_eq!(result.makespan, 200);
/// ```
///
/// Jobs enter only through a [`JobSource`], one arrival group ahead of
/// the clock; [`Simulator::new`] wraps a finite job list in a
/// [`TraceSource`]. Runs assembled from an `ExperimentConfig` come from
/// [`RunBuilder`](crate::runner::RunBuilder), which applies the
/// configuration's `with_*` chain.
///
/// The sink type parameter follows the `HashMap` hasher pattern: the
/// default [`NullSink`] is statically disabled, so untraced simulations
/// compile the instrumentation away. To trace, pass any [`TraceSink`] to
/// [`Simulator::traced_source`]; pass `&mut sink` to keep ownership and
/// read the sink after [`Simulator::run`]:
///
/// ```
/// use sps_core::experiment::SchedulerKind;
/// use sps_core::overhead::OverheadModel;
/// use sps_core::sim::{Simulator, DEFAULT_TICK_PERIOD};
/// use sps_trace::MemorySink;
/// use sps_workload::{Job, TraceSource};
///
/// let jobs = vec![Job::new(0, 0, 100, 100, 8)];
/// let mut sink = MemorySink::new();
/// Simulator::traced_source(
///     Box::new(TraceSource::new(jobs)),
///     8,
///     SchedulerKind::Easy.build(),
///     OverheadModel::None,
///     DEFAULT_TICK_PERIOD,
///     &mut sink,
/// )
/// .run();
/// assert!(!sink.records().is_empty());
/// ```
/// The telemetry type parameter works the same way: the default
/// [`NullTelemetry`] is statically disabled, so uninstrumented runs pay
/// nothing. Pass a [`TelemetrySink`] (typically `&mut sps_telemetry::Telemetry`)
/// to [`Simulator::with_telemetry`] to collect metrics and health events.
pub struct Simulator<S: TraceSink = NullSink, T: TelemetrySink = NullTelemetry> {
    pub(crate) state: SimState,
    policy: Box<dyn Policy>,
    ticker: Option<Ticker>,
    /// Arrivals collected for the current instant.
    arrivals_now: Vec<JobId>,
    /// Scratch action buffer.
    actions: Vec<Action>,
    /// The live fault process, when fault injection is enabled.
    faults: Option<FaultInjector>,
    /// Abort limits applied to the engine ([`Watchdog::none`] by default).
    watchdog: Watchdog,
    /// Policy decide() invocations so far.
    decide_calls: u64,
    /// Skip decides and let ticks lapse at quiescent instants when the
    /// policy certifies them as no-ops ([`Policy::quiescent_noop`]). On by
    /// default; behavior-preserving, so only the kernel counters change.
    /// [`Simulator::with_tick_elision`] turns it off to reproduce the
    /// every-tick schedule event-for-event (benches, A/B comparisons).
    elide_idle: bool,
    /// The ticks elision let lapse, replayed for the trace.
    lapsed: LapsedTicks,
    /// Pass `reference: true` to every decide, disabling the policies'
    /// provably-equivalent fast paths (see [`DecideCtx::reference`]).
    reference_decides: bool,
    /// Trace record consumer.
    sink: S,
    /// Telemetry observation consumer.
    telemetry: T,
    /// The job supply, pulled one arrival group ahead of the clock.
    source: Box<dyn JobSource>,
    /// One-job lookahead so each arrival *group* (every job sharing a
    /// submit instant) materializes together: all of an instant's
    /// arrivals are queued before the engine forms that instant's batch.
    pending_job: Option<Job>,
    /// Stopping condition (default: drain the queue).
    until: RunUntil,
    /// Warmup window length in seconds; metrics in
    /// [`SimResult::windowed`] only count jobs submitted at or after this
    /// instant. Zero means no warmup.
    warmup: Secs,
    /// Admission-control knobs ([`AdmissionModel::none`] by default, in
    /// which case the admit hook is never consulted).
    admission: AdmissionModel,
    /// Run-loop span profiler (`None` by default: the seams reduce to a
    /// branch on a cold flag, mirroring the telemetry discipline).
    profiler: Option<SpanProfiler>,
}

/// Preemptive policies run their preemption routine once a minute
/// (Section IV-B: "The scheduler periodically (after every minute) invokes
/// the preemption routine").
pub const DEFAULT_TICK_PERIOD: Secs = 60;

impl Simulator {
    /// Build an untraced simulator over a finite job list: the jobs go
    /// into a [`TraceSource`] and run with no overhead model and the
    /// default tick period. Jobs must be sorted by submit time with dense
    /// ids; a job wider than the machine panics when its arrival group is
    /// pulled.
    pub fn new(jobs: Vec<Job>, procs: u32, policy: Box<dyn Policy>) -> Self {
        Simulator::traced_source(
            Box::new(TraceSource::new(jobs)),
            procs,
            policy,
            OverheadModel::None,
            DEFAULT_TICK_PERIOD,
            NullSink,
        )
    }
}

impl<S: TraceSink> Simulator<S> {
    /// Build a simulator fed lazily from a [`JobSource`] that emits trace
    /// records into `sink`. Jobs materialize on demand — one arrival group
    /// ahead of the clock — so an unbounded generator never allocates its
    /// infinite future. Pair an unbounded source with
    /// [`Simulator::with_until`]: a source that never ends makes
    /// [`RunUntil::Drained`] run forever (until a watchdog trips). Like
    /// `HashMap::with_hasher`, the sink argument fixes the type parameter.
    pub fn traced_source(
        source: Box<dyn JobSource>,
        procs: u32,
        policy: Box<dyn Policy>,
        overhead: OverheadModel,
        tick_period: Secs,
        sink: S,
    ) -> Self {
        let ticker = policy.needs_tick().then(|| Ticker::new(tick_period));
        Simulator {
            // A source that knows its length (a finite trace) sizes the
            // job table up front; a stream of unknown length grows it.
            state: SimState::new(source.remaining().unwrap_or(0), procs, overhead),
            policy,
            ticker,
            arrivals_now: Vec::new(),
            actions: Vec::new(),
            faults: None,
            watchdog: Watchdog::none(),
            decide_calls: 0,
            elide_idle: true,
            lapsed: LapsedTicks::default(),
            reference_decides: false,
            sink,
            telemetry: NullTelemetry,
            source,
            pending_job: None,
            until: RunUntil::Drained,
            warmup: 0,
            admission: AdmissionModel::none(),
            profiler: None,
        }
    }

    /// Attach a telemetry sink (builder style; fixes the second type
    /// parameter). Telemetry observes the run — metrics, spans, health
    /// detectors — without perturbing any decision: results stay
    /// bit-identical to the uninstrumented run.
    pub fn with_telemetry<T: TelemetrySink>(self, telemetry: T) -> Simulator<S, T> {
        Simulator {
            state: self.state,
            policy: self.policy,
            ticker: self.ticker,
            arrivals_now: self.arrivals_now,
            actions: self.actions,
            faults: self.faults,
            watchdog: self.watchdog,
            decide_calls: self.decide_calls,
            elide_idle: self.elide_idle,
            lapsed: self.lapsed,
            reference_decides: self.reference_decides,
            sink: self.sink,
            telemetry,
            source: self.source,
            pending_job: self.pending_job,
            until: self.until,
            warmup: self.warmup,
            admission: self.admission,
            profiler: self.profiler,
        }
    }
}

/// Validate one job as its arrival group is pulled from the source.
fn validate_job(j: &Job, procs: u32) {
    assert!(
        j.procs <= procs,
        "job {} requests {} processors on a {}-processor machine",
        j.id,
        j.procs,
        procs
    );
    assert!(
        j.run > 0 && j.estimate >= j.run,
        "job {} has invalid times",
        j.id
    );
}

impl<S: TraceSink, T: TelemetrySink> Simulator<S, T> {
    /// Control idle-tick elision (builder style, default `true`).
    ///
    /// When enabled and the policy certifies quiescent instants as no-ops,
    /// the simulator skips `decide()` at instants with nothing to schedule
    /// and arms the periodic tick only at the first tick that could act:
    /// never while only running jobs remain, and, when a no-op decide
    /// reports a horizon ([`DecideCtx::noop_until`]; SS/TSS name the first
    /// instant an idle job's xfactor could change a tick decide, IS the
    /// first protection expiry that could), at the first tick at or after
    /// one period before it — if that comes before the next queued event;
    /// otherwise the ticker stays disarmed until that event. [`Ticker`]
    /// phase is absolute (ticks land on multiples of the period), so the
    /// tick continuous ticking would deliver next is known throughout: a
    /// batch that lands on it decides as a tick batch, and the ticks that
    /// lapse before it are replayed (`LapsedTicks`) — each writes the last
    /// no-op decide's decision records and its trace gauge, counts in the
    /// trace's `engine` record and, on a machine with waiting jobs, takes
    /// its telemetry sample. The schedule, outcomes,
    /// every trace byte and the health report are unchanged, traced or
    /// not; only [`KernelStats`] and the telemetry registry's executed-work
    /// counts (events, decides, victim scans) see fewer events, decides and
    /// instants. This holds for fault-injected and admission-controlled
    /// runs too (see `elision_active` for why). Passing `false` is the only
    /// way to execute the every-tick schedule (the before-side of
    /// `sweep_throughput`, and any bench that pins event counts).
    pub fn with_tick_elision(mut self, enabled: bool) -> Self {
        self.elide_idle = enabled;
        self
    }

    /// Run every decide through the policies' exhaustive reference scan
    /// (builder style, default off). Fast paths like the SS/IS no-op tick
    /// certifications are provably decision-identical, so this changes
    /// only the work per decide, never the schedule — the differential
    /// tests pin it. Used with [`Simulator::with_tick_elision`]`(false)`
    /// to reconstruct the pre-sweep-engine execution profile as a
    /// benchmark baseline.
    pub fn with_reference_decides(mut self) -> Self {
        self.reference_decides = true;
        self
    }

    /// Enable fault injection (builder style). A disabled model
    /// ([`FaultModel::none`]) is a strict no-op: the run stays
    /// bit-identical to one without this call.
    pub fn with_faults(mut self, model: FaultModel) -> Self {
        if model.enabled() {
            self.faults = Some(FaultInjector::new(model, self.state.cluster.total()));
        }
        self
    }

    /// Apply watchdog abort limits to the run (builder style).
    pub fn with_watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Install per-processor speed factors (builder style). The default
    /// uniform-1.0 map reproduces the paper's identical-processor machine
    /// bit for bit; a non-trivial map makes progress accrue at the speed
    /// of each job's slowest assigned processor and (unless the map is
    /// placement-blind) steers allocation toward the fastest free sets.
    /// Must be called before the run starts — no job is dispatched at
    /// build time, so installing the map here never re-times anything.
    /// Panics if the map does not cover the machine exactly.
    pub fn with_speed(mut self, speed: sps_cluster::SpeedMap) -> Self {
        self.state.cluster.set_speed(speed);
        self
    }

    /// Set the preemption mode and checkpoint cost model (builder style).
    /// The default [`PreemptionMode::InPlace`] reproduces the paper's
    /// mechanics bit-for-bit; [`PreemptionMode::Checkpoint`] bounds the
    /// work a fault kill destroys to the checkpoint interval, and
    /// [`PreemptionMode::Migrate`] additionally frees suspended jobs from
    /// the original-processor-set rule. Panics on an unusable model when a
    /// checkpointing mode is requested.
    pub fn with_preemption(mut self, mode: PreemptionMode, ckpt: CheckpointModel) -> Self {
        assert!(
            !mode.checkpoints() || ckpt.valid(),
            "checkpointing preemption mode needs a valid checkpoint model"
        );
        self.state.pmode = mode;
        self.state.ckpt = ckpt;
        self
    }

    /// Set the stopping condition (builder style, default
    /// [`RunUntil::Drained`]). Runs ended by a non-drain condition report
    /// [`RunStatus::Stopped`] and leave `unfinished` jobs in flight —
    /// that's the normal shape of an open-system result, not an error.
    pub fn with_until(mut self, until: RunUntil) -> Self {
        self.until = until;
        self
    }

    /// Set the warmup window (builder style, default none). The
    /// [`SimResult::windowed`] report then counts only jobs submitted at
    /// or after `warmup` seconds, clipping utilization to the window.
    pub fn with_warmup(mut self, warmup: Secs) -> Self {
        assert!(warmup >= 0, "warmup must be non-negative");
        self.warmup = warmup;
        self
    }

    /// Run in lean (outcome-streaming) mode: completions fold into a
    /// fixed-size [`OutcomeFold`] instead of growing
    /// [`SimResult::outcomes`], and occupancy segments are dropped at
    /// close, so memory stays O(machine) no matter how many jobs the run
    /// simulates — the mega-sweep path. The folded headline metrics are
    /// bit-identical to the materialized ones (same estimators, same push
    /// order); what a lean result *lacks* is anything per-job or
    /// per-dispatch: `outcomes` and `segments` come back empty, the
    /// [`SimResult::windowed`] report is unavailable (the run asserts no
    /// warmup window was requested), and per-tier heterogeneous columns
    /// cannot be reconstructed.
    pub fn with_lean(mut self) -> Self {
        self.state.lean = Some(OutcomeFold::new());
        self
    }

    /// Attach a span profiler (builder style, default none). The profiler
    /// observes run-loop phase latencies — event drain, decide, dispatch,
    /// lifecycle, checkpoint I/O, trace-sink writes — folding them into
    /// [`KernelStats::phases`]; a profiler built with
    /// [`SpanProfiler::with_timeline`] additionally keeps the individual
    /// spans in [`SimResult::spans`] for Perfetto export. Wall-clock only:
    /// no decision reads it, so results stay bit-identical.
    pub fn with_profiler(mut self, profiler: SpanProfiler) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Enable admission control (builder style, default
    /// [`AdmissionModel::none`]). With an enabled model the policy's
    /// [`Policy::admit`] hook is consulted once per arrival; rejected jobs
    /// never enter the queue and are charged to
    /// [`SimResult::rejections`].
    pub fn with_admission(mut self, admission: AdmissionModel) -> Self {
        self.admission = admission;
        self
    }

    /// Read access to the live state (used by tests).
    pub fn state(&self) -> &SimState {
        &self.state
    }

    /// Emit one job-lifecycle record at the current instant. Callers
    /// check [`TraceSink::enabled`] first, so the untraced build never
    /// reaches the processor-set materialization.
    fn emit_job(&mut self, id: JobId, event: JobEvent, with_procs: bool) {
        let procs = if with_procs {
            Some(
                self.state
                    .assigned_set(id)
                    .expect("traced job holds a set")
                    .iter()
                    .collect(),
            )
        } else {
            None
        };
        self.sink.record(&TraceRecord::Job {
            t: self.state.now.secs(),
            job: id.0,
            event,
            procs,
        });
    }

    /// Whether nothing is waiting for processors: no queued, suspended,
    /// or draining job. Completions of running jobs are events of their
    /// own, so a certified policy has nothing to do at such an instant.
    fn quiescent(&self) -> bool {
        self.state.queued.is_empty()
            && self.state.suspended.is_empty()
            && self.state.index.draining_jobs() == 0
    }

    /// Whether any arrived job is unfinished, which keeps ticks flowing.
    /// The draining check reads the index counter — a job-table scan here
    /// made every batch O(jobs).
    fn work_pending(&self) -> bool {
        !self.state.queued.is_empty()
            || !self.state.suspended.is_empty()
            || !self.state.running.is_empty()
            || self.state.index.draining_jobs() > 0
    }

    /// The per-tick gauge record at `t`, read from the current state.
    fn gauge(&self, t: SimTime) -> TraceRecord {
        TraceRecord::Gauge {
            t: t.secs(),
            queued: self.state.queued.len() as u32,
            idle: self.state.free_count(),
            draining: self.state.draining_set().count(),
            suspended: self.state.suspended.len() as u32,
            running: self.state.running.len() as u32,
        }
    }

    /// Replay the lapsed ticks before `end` (exclusive) and return the
    /// last one. Each is a tick-only batch of the every-tick schedule whose
    /// decide is a certified no-op, so only its records, its telemetry
    /// sample and its count remain; `queue_events` is the event-queue
    /// length that schedule sampled (its pending events, no tick). While
    /// work is pending that schedule ticks every period up to `end`; an
    /// emptied machine gets only the tick already armed.
    fn replay_lapsed_ticks(&mut self, end: SimTime, queue_events: u32) -> Option<SimTime> {
        let first = self.lapsed.next.filter(|&at| at < end)?;
        let period = self
            .ticker
            .as_ref()
            .expect("only a ticking run lets ticks lapse")
            .period();
        let pending = self.work_pending();
        let n = if pending {
            (end - first - 1) / period + 1
        } else {
            1
        };
        // A quiescent machine feeds no health detector (nothing queued,
        // suspended or claimed), so its lapsed ticks are not sampled.
        let sample = self.telemetry.enabled() && !self.quiescent();
        if self.sink.enabled() || sample {
            let now = self.state.now;
            for k in 0..n {
                let t = first + k * period;
                if self.sink.enabled() {
                    for rec in &mut self.lapsed.decisions {
                        if let TraceRecord::Decision { t: at, .. } = rec {
                            *at = t.secs();
                        }
                        self.sink.record(rec);
                    }
                    let gauge = self.gauge(t);
                    self.sink.record(&gauge);
                }
                if sample {
                    self.state.now = t;
                    self.sample_instant(t.secs(), queue_events);
                    self.drain_health();
                }
            }
            self.state.now = now;
        }
        self.lapsed.batches += n as u64;
        self.lapsed.next = pending.then_some(first + n * period);
        Some(first + (n - 1) * period)
    }

    /// Whether idle elision applies to this run: opted in, and the policy
    /// certifies quiescent no-ops. It covers both the quiescent skip and
    /// no-op horizons: only such a run offers its decides
    /// [`DecideCtx::noop_until`]. Observation does not opt out: a lapsed
    /// tick's decision records, trace gauge and telemetry sample are
    /// replayed from the unchanged state ([`LapsedTicks`]).
    ///
    /// Fault injection and admission control do not opt out either, and
    /// the elided schedule stays exact for them:
    ///
    /// - Failures, repairs and job crashes are queued events. Each forms a
    ///   batch, which decides unless the machine is quiescent, and the
    ///   no-op horizon is recomputed after that decide.
    /// - Between two events the fault state does not move: the down set,
    ///   the stranded and remap flags and the scheduled crashes change only
    ///   at fault events, and checkpoint images are charged at kill and
    ///   suspend, not as events of their own. A no-op decide's horizon
    ///   therefore still depends only on time (SS/TSS xfactor crossings,
    ///   IS protection expiries).
    /// - The injector draws its random numbers at fault events and at
    ///   arrivals, never at ticks or decides, so the failure schedule is
    ///   the same.
    /// - Admission is consulted only at arrival batches, which both
    ///   schedules execute alike.
    /// - No policy reads which processors failed or were repaired, so a
    ///   failure or repair on a quiescent machine changes nothing a
    ///   certifying policy reads, and skipping that decide is exact.
    fn elision_active(&self) -> bool {
        self.elide_idle && self.policy.quiescent_noop()
    }

    /// Run the simulation to its stopping condition and report. The
    /// classic closed-system call drains the whole trace; with a
    /// [`JobSource`] and [`RunUntil::SimTime`]/[`RunUntil::Jobs`] this is
    /// the open-system steady-state run.
    pub fn run(mut self) -> SimResult {
        let mut queue = EventQueue::new();
        // Materialize only the first arrival group; the batch handler
        // pulls the next group as each one is delivered.
        self.schedule_next_arrivals(&mut queue);
        // Seed the failure process: one initial failure time per
        // processor, drawn in index order.
        if let Some(inj) = &mut self.faults {
            for p in 0..self.state.cluster.total() {
                if let Some(dt) = inj.next_failure_in() {
                    queue.push(SimTime::ZERO + dt, EventClass::Fault, Event::ProcFailed(p));
                }
            }
        }
        let mut engine = Engine::new().with_watchdog(self.watchdog);
        if let RunUntil::SimTime(horizon) = self.until {
            engine = engine.with_horizon(horizon);
        }
        let wall_start = Instant::now();
        let outcome = engine.run(&mut self, &mut queue);
        let wall_micros = wall_start.elapsed().as_micros() as u64;
        let status = match outcome {
            RunOutcome::BatchLimit => RunStatus::Aborted(AbortReason::BatchLimit),
            RunOutcome::EventLimit => RunStatus::Aborted(AbortReason::EventLimit),
            RunOutcome::WallClockLimit => RunStatus::Aborted(AbortReason::WallClock),
            RunOutcome::HorizonReached => RunStatus::Stopped(StopReason::Horizon),
            RunOutcome::Stopped => RunStatus::Stopped(StopReason::JobCount),
            RunOutcome::Drained => {
                // A drained queue with jobs still incomplete means the
                // policy deadlocked — but only Drained runs promise every
                // job completes; stopped runs leave work in flight by
                // design.
                assert_eq!(
                    self.state.incomplete, 0,
                    "simulation ended with {} unfinished jobs — policy deadlock",
                    self.state.incomplete
                );
                RunStatus::Completed
            }
        };
        // The every-tick schedule's trailing ticks: those up to the
        // horizon, inclusive, or a drained run's one armed tick on the
        // emptied machine. A job-count stop or an abort ends both
        // schedules at the same batch.
        let trailing = match (outcome, self.until) {
            (RunOutcome::Drained | RunOutcome::HorizonReached, RunUntil::SimTime(h)) => {
                // A tick armed past the horizon is not pending in the
                // every-tick schedule's queue.
                let armed = self.ticker.as_ref().is_some_and(Ticker::is_armed);
                let pending = queue.len() - usize::from(armed);
                self.replay_lapsed_ticks(h.saturating_add(1), pending as u32)
            }
            (RunOutcome::Drained, _) => self.replay_lapsed_ticks(SimTime::MAX, 0),
            _ => None,
        };
        let health = if self.telemetry.enabled() {
            // Close open detector integrals, then forward any final health
            // events into the trace before the engine-stats record.
            self.telemetry.finish(engine.now().secs());
            self.drain_health();
            self.telemetry.health_summary()
        } else {
            None
        };
        if self.sink.enabled() {
            let sink_start = self.profiler.is_some().then(Instant::now);
            // The every-tick schedule's counts, lapsed ticks included;
            // `KernelStats` keeps the executed ones. Trailing ticks lie
            // past the last executed batch.
            self.sink.record(&TraceRecord::EngineStats {
                t: trailing.unwrap_or(engine.now()).secs(),
                batches: engine.batches() + self.lapsed.batches,
                events: engine.events() + self.lapsed.batches + self.lapsed.merged,
            });
            let _ = self.sink.flush();
            if let Some(t0) = sink_start {
                self.span(SpanPhase::TraceSink, t0);
            }
        }
        let kernel = KernelStats {
            events: engine.events(),
            decide_calls: self.decide_calls,
            wall_micros,
            reclaimed_slots: self.state.trimmed as u64,
            phases: self.profiler.as_ref().map(|p| *p.profile()),
        };
        // Window end: the horizon itself when the horizon stopped the run
        // (the machine kept working up to it), else the last event instant.
        let run_end = match (self.until, status) {
            (RunUntil::SimTime(h), RunStatus::Stopped(StopReason::Horizon)) => h,
            _ => engine.now(),
        };
        assert!(
            self.state.lean.is_none() || self.warmup == 0,
            "lean runs drop per-job outcomes and cannot build a windowed report"
        );
        let windowed = (self.state.lean.is_none()
            && (self.warmup > 0 || !matches!(self.until, RunUntil::Drained)))
        .then(|| {
            let start = SimTime::ZERO + self.warmup;
            let end = run_end.max(start);
            WindowedReport::from_outcomes(
                &self.state.outcomes,
                start,
                end,
                self.state.cluster.total(),
                self.windowed_busy(start, end),
            )
        });
        let mut faults = self.state.fault_stats;
        if let Some(inj) = &self.faults {
            faults.downtime = inj.downtime_at(self.state.now);
        }
        let total = self.state.cluster.total();
        let outcomes = std::mem::take(&mut self.state.outcomes);
        let lean = self.state.lean.take();
        let (util, makespan) = match &lean {
            Some(fold) => (fold.utilization(total), fold.makespan()),
            None => {
                let util = utilization(&outcomes, total);
                let makespan = match (
                    outcomes.iter().map(|o| o.submit).min(),
                    outcomes.iter().map(|o| o.completion).max(),
                ) {
                    (Some(a), Some(b)) => b - a,
                    _ => 0,
                };
                (util, makespan)
            }
        };
        SimResult {
            policy: self.policy.name(),
            status,
            // A finite source's undelivered jobs, lookahead included, are
            // unfinished too; an open stream's future arrivals are not.
            unfinished: self.state.incomplete
                + self
                    .source
                    .remaining()
                    .map_or(0, |left| left + usize::from(self.pending_job.is_some())),
            faults,
            outcomes,
            utilization: util,
            makespan,
            preemptions: self.state.preemptions,
            dropped_actions: self.state.dropped_actions,
            segments: std::mem::take(&mut self.state.segments),
            kernel,
            health,
            rejections: self.state.rejections,
            windowed,
            lean,
            spans: self
                .profiler
                .as_mut()
                .filter(|p| p.timeline_enabled())
                .map(|p| p.take_events()),
            source_error: self.source.error().cloned(),
        }
    }

    /// Busy processor-seconds clipped to `[start, end]`: closed occupancy
    /// segments plus the still-open segment of every job dispatched when
    /// the run stopped (stopped runs leave work on the machine; ignoring
    /// it would report a near-empty window at high load).
    fn windowed_busy(&self, start: SimTime, end: SimTime) -> i64 {
        let mut busy: i64 = 0;
        for seg in &self.state.segments {
            let a = seg.start.max(start);
            let b = seg.end.min(end);
            if b > a {
                busy += (b - a) * seg.procs.count() as i64;
            }
        }
        for rt in &self.state.jobs {
            if let Some(open) = rt.seg_open {
                let a = open.max(start);
                if end > a {
                    busy += (end - a) * rt.job.procs as i64;
                }
            }
        }
        busy
    }

    /// Materialize the next arrival *group* from the source: the chain of
    /// jobs sharing the next submit instant, detected with a one-job
    /// lookahead held in `pending_job`. All of an instant's arrivals are
    /// in the queue before the engine forms that instant's batch.
    pub(super) fn schedule_next_arrivals(&mut self, queue: &mut EventQueue<Event>) {
        let Some(first) = self.pending_job.take().or_else(|| self.source.next_job()) else {
            return;
        };
        let t = first.submit;
        self.materialize_arrival(first, queue);
        while let Some(job) = self.source.next_job() {
            if job.submit != t {
                assert!(
                    job.submit > t,
                    "job source emitted arrivals out of order ({} after {t})",
                    job.submit
                );
                self.pending_job = Some(job);
                break;
            }
            self.materialize_arrival(job, queue);
        }
    }

    /// Add one source job to the table and schedule its arrival event:
    /// validation, the incomplete count, and (under fault injection) the
    /// per-job crash draw — in id order, because sources emit ids densely.
    fn materialize_arrival(&mut self, job: Job, queue: &mut EventQueue<Event>) {
        validate_job(&job, self.state.cluster.total());
        let submit = job.submit;
        let id = self.state.push_job(job);
        if let Some(inj) = &mut self.faults {
            let i = self.state.slot(id);
            let rt = &mut self.state.jobs[i];
            rt.crash_after = inj.job_crash_after(rt.job.run);
        }
        queue.push(submit, EventClass::Arrival, Event::Arrival(id));
    }

    /// Consult the policy's admit hook for each of this instant's
    /// arrivals, in arrival order. Rejected jobs leave the queue before the
    /// decide sees the instant: `ctx.arrivals` lists admitted jobs only.
    #[cold]
    #[inline(never)]
    fn apply_admission(&mut self) {
        let arrivals = std::mem::take(&mut self.arrivals_now);
        let mut admitted = Vec::with_capacity(arrivals.len());
        for id in arrivals {
            if self.policy.admit(&self.state, id, &self.admission) {
                admitted.push(id);
                continue;
            }
            let penalty = self.admission.penalty(self.state.job(id));
            self.state.reject(id, penalty);
            if self.sink.enabled() {
                self.emit_job(id, JobEvent::Reject, false);
            }
            if self.telemetry.enabled() {
                self.tel_obs(Obs::JobRejected {
                    job: id.0,
                    t: self.state.now.secs(),
                });
            }
        }
        self.arrivals_now = admitted;
    }

    /// Close one profiler span that opened at `started`. Cold and never
    /// inlined for the same reason as the telemetry helpers: calls sit
    /// behind a `profiler.is_some()` check, and the unprofiled run loop
    /// keeps codegen identical to the pre-profiler kernel.
    #[cold]
    #[inline(never)]
    fn span(&mut self, phase: SpanPhase, started: Instant) {
        if let Some(p) = self.profiler.as_mut() {
            p.record(phase, started);
        }
    }

    /// Record one observation. Cold and never inlined: every call is
    /// behind an `enabled()` check that is compile-time `false` for
    /// [`NullTelemetry`], and keeping the bodies out of the run-loop
    /// functions keeps the default path's codegen identical to an
    /// uninstrumented kernel.
    #[cold]
    #[inline(never)]
    fn tel_obs(&mut self, obs: Obs) {
        self.telemetry.record(&obs);
    }

    /// Classify and record one drained engine event.
    #[cold]
    #[inline(never)]
    fn tel_event(&mut self, ev: &Event) {
        let class = match ev {
            Event::Arrival(_) => ObsClass::Arrival,
            Event::Completion { .. } => ObsClass::Completion,
            Event::DrainDone { .. } => ObsClass::Drain,
            Event::ProcFailed(_) | Event::ProcRepaired(_) | Event::Crash { .. } => ObsClass::Fault,
            Event::Tick => ObsClass::Tick,
        };
        self.telemetry.record(&Obs::Event { class });
    }

    /// Record the lifecycle transition one applied action caused.
    #[cold]
    #[inline(never)]
    fn tel_action(&mut self, action: &Action) {
        let t = self.state.now.secs();
        let obs = match action {
            Action::Start(id) | Action::StartOn(id, _) => Obs::JobStarted { job: id.0, t },
            Action::Resume(id) | Action::ResumeOn(id, _) => Obs::JobResumed { job: id.0, t },
            Action::Suspend(id) => Obs::JobSuspended { job: id.0, t },
        };
        self.telemetry.record(&obs);
    }

    /// Forward pending health-detector events into the trace stream.
    #[cold]
    #[inline(never)]
    fn drain_health(&mut self) {
        while let Some(ev) = self.telemetry.poll_health() {
            if self.sink.enabled() {
                self.sink.record(&TraceRecord::Health {
                    t: ev.t,
                    detector: ev.kind.name().to_string(),
                    job: ev.job,
                    value: ev.value,
                });
            }
        }
    }

    /// Per-instant telemetry sample, taken after the instant's actions
    /// were applied. The queued scan also feeds the starvation watch: the
    /// sink's threshold pre-filters, so the common healthy instant emits
    /// no `Starving` observations at all.
    #[cold]
    #[inline(never)]
    fn sample_instant(&mut self, t: i64, queue_events: u32) {
        let mut claimed_idle = 0;
        if !self.state.suspended.is_empty() {
            let mut claimed = sps_cluster::ProcSet::empty(self.state.total_procs());
            for i in 0..self.state.suspended.len() {
                let id = self.state.suspended[i];
                if let Some(set) = self.state.assigned_set(id) {
                    claimed.union_with(set);
                }
            }
            claimed.intersect_with(self.state.free_set());
            claimed_idle = claimed.count();
        }
        let threshold = self.telemetry.starvation_threshold();
        let mut cat_xfactor = [0.0f64; 4];
        for i in 0..self.state.queued.len() {
            let id = self.state.queued[i];
            let xf = self.state.xfactor(id);
            let cat = self.state.job(id).coarse_category().index();
            if xf > cat_xfactor[cat] {
                cat_xfactor[cat] = xf;
            }
            if xf >= threshold {
                self.telemetry.record(&Obs::Starving {
                    job: id.0,
                    t,
                    xfactor: xf,
                });
            }
        }
        self.telemetry.record(&Obs::Instant {
            t,
            queued: self.state.queued.len() as u32,
            running: self.state.running.len() as u32,
            suspended: self.state.suspended.len() as u32,
            free_procs: self.state.free_count(),
            draining_procs: self.state.draining_set().count(),
            claimed_idle,
            queue_events,
            cat_xfactor,
        });
    }

    fn apply(&mut self, queue: &mut EventQueue<Event>) {
        // Checkpoint-writing suspensions get their own profiler phase:
        // under [`PreemptionMode::Checkpoint`]/`Migrate` the suspend is
        // where checkpoint I/O cost is modeled.
        let ckpt_prof = self.profiler.is_some() && self.state.pmode.checkpoints();
        for i in 0..self.actions.len() {
            let action = self.actions[i].clone();
            let migrations_before = self.state.fault_stats.migrations;
            let ok = match &action {
                Action::Start(id) => self.state.start(*id, queue),
                Action::StartOn(id, set) => self.state.start_on(*id, set, queue),
                Action::Resume(id) => self.state.resume(*id, queue),
                Action::ResumeOn(id, set) => self.state.resume_on(*id, set, queue),
                Action::Suspend(id) => {
                    let t0 = ckpt_prof.then(Instant::now);
                    let ok = self.state.suspend(*id, queue);
                    if let Some(t0) = t0 {
                        self.span(SpanPhase::CheckpointIo, t0);
                    }
                    ok
                }
            };
            if !ok {
                self.state.dropped_actions += 1;
                continue;
            }
            if self.faults.is_some() {
                if let Action::Start(id)
                | Action::StartOn(id, _)
                | Action::Resume(id)
                | Action::ResumeOn(id, _) = &action
                {
                    self.schedule_crash(*id, queue);
                }
            }
            if self.sink.enabled() {
                match &action {
                    Action::Start(id) | Action::StartOn(id, _) => {
                        self.emit_job(*id, JobEvent::Dispatch, true)
                    }
                    Action::Resume(id) | Action::ResumeOn(id, _) => {
                        // Annotate cross-set re-entries before the Restart
                        // record, mirroring the reentry decision pattern.
                        if self.state.fault_stats.migrations > migrations_before {
                            self.sink.record(&TraceRecord::Decision {
                                t: self.state.now.secs(),
                                reason: Reason::MigratedResume { job: id.0 },
                            });
                        }
                        self.emit_job(*id, JobEvent::Restart, true)
                    }
                    Action::Suspend(id) => {
                        self.emit_job(*id, JobEvent::Suspend, true);
                        // A zero-overhead drain finishes instantly — there
                        // is no DrainDone event to hang the record on.
                        if self.state.is_suspended(*id) {
                            self.emit_job(*id, JobEvent::Drain, false);
                        }
                    }
                }
            }
            if self.telemetry.enabled() {
                self.tel_action(&action);
            }
        }
        self.actions.clear();
    }

    /// If `id` has a pending injected crash, schedule it for the dispatch
    /// that just happened: the crash fires when the job's executed work
    /// reaches the drawn threshold. A suspension or kill before that
    /// bumps the epoch and invalidates the event; the next dispatch
    /// re-schedules it.
    fn schedule_crash(&mut self, id: JobId, queue: &mut EventQueue<Event>) {
        let rt = &self.state.jobs[self.state.slot(id)];
        let Some(after) = rt.crash_after else { return };
        let Phase::Running { compute_start } = rt.phase else {
            return;
        };
        let executed_before = rt.job.run - rt.remaining;
        if after <= executed_before {
            return;
        }
        // The threshold is in work-units; the dispatch's gang rate maps it
        // back to the wall-clock instant it is reached.
        queue.push(
            compute_start + sps_cluster::secs_for(after - executed_before, rt.speed),
            EventClass::Fault,
            Event::Crash {
                job: id,
                epoch: rt.epoch,
            },
        );
    }

    /// A processor failed: take it down, kill the dispatched job holding
    /// it (its memory image is gone), apply the recovery policy to
    /// suspended jobs reserving it, and schedule the repair.
    fn on_proc_failed(&mut self, p: u32, queue: &mut EventQueue<Event>) {
        if self.faults.is_none() || self.state.incomplete == 0 {
            // Leftover failure events after the last completion fire
            // harmlessly, letting the queue drain.
            return;
        }
        let now = self.state.now;
        self.state.transitions += 1;
        let (recovery, repair_in) = {
            let inj = self.faults.as_mut().expect("checked above");
            inj.mark_down(p, now);
            (inj.recovery(), inj.repair_in())
        };
        queue.push(now + repair_in, EventClass::Fault, Event::ProcRepaired(p));
        let had_holder = self.state.cluster.fail(p);
        self.state.fault_stats.proc_failures += 1;
        if self.sink.enabled() {
            self.sink.record(&TraceRecord::Proc {
                t: now.secs(),
                proc: p,
                event: ProcEvent::Failed,
            });
        }
        if self.telemetry.enabled() {
            self.tel_obs(Obs::ProcFailed { t: now.secs() });
        }
        if had_holder {
            // O(1) holder lookup from the occupancy index (previously a
            // full job-table scan).
            let holder = self
                .state
                .index
                .occupant(p)
                .expect("cluster says a job holds the failed processor");
            self.kill_job(holder, false);
        }
        for id in self.state.suspended_on(p) {
            if self.state.pmode.migrates() {
                // A migrating mode never strands or resubmits a suspended
                // job: its image is globally restorable, so any recovery
                // policy degrades to a remap for claims on a dead
                // processor.
                let i = self.state.slot(id);
                self.state.jobs[i].remap = true;
                continue;
            }
            let i = self.state.slot(id);
            match recovery {
                RecoveryPolicy::WaitForRepair => {
                    let rt = &mut self.state.jobs[i];
                    if rt.stranded_since.is_none() {
                        rt.stranded_since = Some(now);
                    }
                }
                RecoveryPolicy::Resubmit => self.kill_job(id, false),
                RecoveryPolicy::Remap => self.state.jobs[i].remap = true,
            }
        }
    }

    /// A processor came back: return it to the free pool, close stranded
    /// accounting for jobs whose reserved set is whole again, and schedule
    /// the processor's next failure.
    fn on_proc_repaired(&mut self, p: u32, queue: &mut EventQueue<Event>) {
        if self.faults.is_none() {
            return;
        }
        let now = self.state.now;
        self.state.transitions += 1;
        let next_failure_in = {
            let inj = self.faults.as_mut().expect("checked above");
            inj.mark_up(p, now);
            (self.state.incomplete > 0)
                .then(|| inj.next_failure_in())
                .flatten()
        };
        self.state.cluster.repair(p);
        self.state.fault_stats.proc_repairs += 1;
        if self.sink.enabled() {
            self.sink.record(&TraceRecord::Proc {
                t: now.secs(),
                proc: p,
                event: ProcEvent::Repaired,
            });
        }
        if self.telemetry.enabled() {
            self.tel_obs(Obs::ProcRepaired { t: now.secs() });
        }
        // Jobs stranded on p whose whole set is up again stop being
        // stranded (they still wait for the scheduler to resume them).
        let down = self.state.cluster.down_set().clone();
        for i in 0..self.state.jobs.len() {
            let rt = &mut self.state.jobs[i];
            if let Some(since) = rt.stranded_since {
                if rt.assigned.as_ref().is_some_and(|s| s.is_disjoint(&down)) {
                    rt.stranded_since = None;
                    self.state.fault_stats.stranded_secs += now - since;
                }
            }
        }
        if let Some(dt) = next_failure_in {
            queue.push(now + dt, EventClass::Fault, Event::ProcFailed(p));
        }
    }

    /// An injected job crash fired (if its dispatch is still current).
    fn on_crash(&mut self, id: JobId, epoch: u32) {
        if self.state.reclaimed(id) {
            return; // only Done slots are trimmed, so the event is stale
        }
        let i = self.state.slot(id);
        let rt = &self.state.jobs[i];
        if rt.epoch != epoch || !matches!(rt.phase, Phase::Running { .. }) {
            return; // stale: the dispatch was preempted or completed
        }
        self.state.jobs[i].crash_after = None; // crashes once
        self.kill_job(id, true);
    }

    /// Shared kill path: state mechanics, counters, trace record.
    fn kill_job(&mut self, id: JobId, crash: bool) {
        let _lost = self.state.kill(id);
        if crash {
            self.state.fault_stats.job_crashes += 1;
        } else {
            self.state.fault_stats.jobs_killed += 1;
        }
        if self.sink.enabled() {
            self.emit_job(id, JobEvent::Kill, false);
        }
        if self.telemetry.enabled() {
            self.tel_obs(Obs::JobKilled {
                job: id.0,
                t: self.state.now.secs(),
            });
        }
    }
}

impl<S: TraceSink, T: TelemetrySink> Simulation for Simulator<S, T> {
    type Event = Event;

    fn handle_batch(
        &mut self,
        now: SimTime,
        batch: &mut Vec<Event>,
        queue: &mut EventQueue<Event>,
    ) {
        self.state.now = now;
        self.arrivals_now.clear();
        let tel = self.telemetry.enabled();
        let prof = self.profiler.is_some();
        // Lapsed ticks: those before `now` are replayed, and one at `now`
        // makes this a tick batch, as it is in the every-tick schedule —
        // unless it is the tick armed at a horizon, delivered in this
        // batch.
        let mut tick = false;
        if self.lapsed.next.is_some_and(|at| at <= now) {
            let pending = batch.iter().filter(|ev| !matches!(ev, Event::Tick)).count();
            self.replay_lapsed_ticks(now, (queue.len() + pending) as u32);
            if self.lapsed.next == Some(now) {
                self.lapsed.next = None;
                if !self.ticker.as_ref().is_some_and(Ticker::is_armed) {
                    self.lapsed.merged += 1;
                    tick = true;
                }
            }
        }
        self.lapsed.decisions.clear();
        let drain_start = prof.then(Instant::now);
        for ev in batch.drain(..) {
            if tel {
                self.tel_event(&ev);
            }
            match ev {
                Event::Arrival(id) => {
                    self.state.arrive(id);
                    self.arrivals_now.push(id);
                    if self.sink.enabled() {
                        self.emit_job(id, JobEvent::Arrival, false);
                    }
                }
                Event::Completion { job, epoch } => {
                    // A reclaimed slot means the event is stale: only Done
                    // jobs are ever trimmed, and Done is terminal.
                    if self.state.reclaimed(job) {
                        continue;
                    }
                    let rt = &self.state.jobs[self.state.slot(job)];
                    if rt.epoch == epoch && matches!(rt.phase, Phase::Running { .. }) {
                        let outcome = self.state.complete(job);
                        self.policy.on_completion(&outcome);
                        if self.sink.enabled() {
                            self.emit_job(job, JobEvent::Complete, false);
                        }
                        if tel {
                            self.tel_obs(Obs::JobCompleted {
                                job: job.0,
                                t: now.secs(),
                                slowdown: outcome.slowdown(),
                            });
                        }
                    }
                    // else: stale completion from before a suspension.
                }
                Event::DrainDone { job, epoch } => {
                    if self.state.reclaimed(job) {
                        continue;
                    }
                    let rt = &self.state.jobs[self.state.slot(job)];
                    if rt.epoch == epoch && rt.phase == Phase::Draining {
                        self.state.drain_done(job);
                        if self.sink.enabled() {
                            self.emit_job(job, JobEvent::Drain, false);
                        }
                    }
                    // else: the drain was cut short by a kill.
                }
                Event::ProcFailed(p) => self.on_proc_failed(p, queue),
                Event::ProcRepaired(p) => self.on_proc_repaired(p, queue),
                Event::Crash { job, epoch } => self.on_crash(job, epoch),
                Event::Tick => {
                    if let Some(t) = &mut self.ticker {
                        tick |= t.fired(now);
                    }
                }
            }
        }
        if let Some(t0) = drain_start {
            self.span(SpanPhase::EventDrain, t0);
        }

        // Lifecycle phase: lazy job materialization and admission
        // filtering, between the drain and the decide.
        let lifecycle_start = prof.then(Instant::now);

        // The group just delivered was the furthest one materialized —
        // pull the next group in before the engine forms its next batch.
        if !self.arrivals_now.is_empty() {
            self.schedule_next_arrivals(queue);
        }

        // Admission control filters this instant's arrivals before the
        // decide: rejected jobs vanish from the queue and from
        // `ctx.arrivals`.
        if self.admission.enabled() && !self.arrivals_now.is_empty() {
            self.apply_admission();
        }
        if let Some(t0) = lifecycle_start {
            self.span(SpanPhase::Lifecycle, t0);
        }

        // One decision per instant, with complete knowledge of the instant.
        let arrivals = std::mem::take(&mut self.arrivals_now);
        self.actions.clear();
        let elidable = self.elision_active();
        // A quiescent instant that delivered nothing actionable (typically
        // a leftover tick, or a completion with an empty queue) cannot
        // change the schedule when the policy certifies it — skip the
        // decide outright.
        let skip_decide = elidable && arrivals.is_empty() && self.quiescent();
        // With the ticker idle, a horizon past the tick after next lets at
        // least one tick lapse.
        let floor = match &self.ticker {
            Some(t) if elidable && !t.is_armed() => {
                Some((t.next_after(now) + t.period()).secs() as f64)
            }
            _ => None,
        };
        let noop_until = Cell::new(floor);
        if !skip_decide {
            let decide_span = prof.then(Instant::now);
            let decide_start = tel.then(Instant::now);
            {
                // The sink is lent (type-erased) into the decision context
                // so policies can record *why* they acted; the borrow ends
                // before `apply` emits the lifecycle records those actions
                // cause. It is lent through `KeepDecisions`, which keeps
                // the decision records for the ticks a no-op decide lets
                // lapse. The telemetry sink is lent the same way, so
                // policies can report span data like victim-scan width.
                let mut keep = KeepDecisions {
                    sink: &mut self.sink,
                    kept: &mut self.lapsed.decisions,
                };
                let tracer = TraceCtx::new(&mut keep);
                // `tel` is a compile-time constant for `NullTelemetry`,
                // so the disabled arm folds to a unit struct and no
                // type-erased borrow is ever built on the default path.
                let metrics = if tel {
                    TelemetryCtx::new(&mut self.telemetry)
                } else {
                    TelemetryCtx::disabled()
                };
                let ctx = DecideCtx {
                    arrivals: &arrivals,
                    tick,
                    trace: &tracer,
                    metrics: &metrics,
                    reference: self.reference_decides,
                    noop_until: &noop_until,
                };
                self.decide_calls += 1;
                self.policy.decide(&self.state, &ctx, &mut self.actions);
            }
            if let Some(t0) = decide_start {
                self.tel_obs(Obs::Decide {
                    wall_nanos: t0.elapsed().as_nanos() as u64,
                    actions: self.actions.len() as u32,
                });
            }
            if let Some(t0) = decide_span {
                self.span(SpanPhase::Decide, t0);
            }
            let dispatch_start = prof.then(Instant::now);
            self.apply(queue);
            if let Some(t0) = dispatch_start {
                self.span(SpanPhase::Dispatch, t0);
            }
        }
        self.arrivals_now = arrivals;
        // The decide's horizon: no tick before it can act. Acting
        // decides report none, and a quiescent machine waits for an event
        // whatever its decide did.
        let reported = noop_until.get().filter(|&h| floor.is_some_and(|f| h > f));
        let horizon = if elidable && self.quiescent() {
            Some(f64::INFINITY)
        } else {
            reported
        };
        if reported.is_none() {
            self.lapsed.decisions.clear();
        }

        // Per-tick gauges, after the instant's decisions have been applied.
        if tick && self.sink.enabled() {
            let gauge = self.gauge(now);
            self.sink.record(&gauge);
        }

        // Per-instant telemetry sample + health-event drain, after the
        // instant's actions have landed. Detector inputs are simulation
        // time only, so findings are bit-stable across runs and threads.
        if tel {
            self.sample_instant(now.secs(), queue.len() as u32);
            self.drain_health();
        }

        // Keep ticks flowing while any arrived job is unfinished, from the
        // first tick that could act.
        //
        // Elision: no tick before the horizon can act, so the ticker is
        // armed at the first tick at or after one period before it — the
        // margin absorbs rounding near a crossing — if that tick comes
        // before the next queued event; otherwise it stays disarmed and
        // that event's batch decides again. A quiescent machine is the
        // infinite horizon. The ticker's phase is absolute — ticks land on
        // multiples of the period — so the ticks it skips are exactly
        // those continuous ticking would have hit, and the schedule is
        // bit-identical. An armed tick is never moved: a stale one would
        // count as an executed event. The tick continuous ticking has next
        // is kept as the lapsed-tick cursor unless it is the one armed.
        if self.work_pending() {
            if let Some(t) = &mut self.ticker {
                if !t.is_armed() {
                    let armed = match horizon {
                        None => t.arm(now),
                        Some(h) => {
                            let before = queue.peek().map_or(SimTime::MAX, |(at, _)| at);
                            t.arm_from(now, h - t.period() as f64, before)
                        }
                    };
                    if let Some(at) = armed {
                        queue.push(at, EventClass::Tick, Event::Tick);
                    }
                    let next = t.next_after(now);
                    self.lapsed.next = (armed != Some(next)).then_some(next);
                }
            }
        }
    }

    fn should_stop(&self) -> bool {
        matches!(self.until, RunUntil::Jobs(n) if self.state.completed() >= n)
    }
}
