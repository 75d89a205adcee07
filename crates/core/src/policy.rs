//! The scheduler-policy interface.
//!
//! The simulator owns all mechanics (allocation, suspension drains,
//! completion events, metrics); a [`Policy`] is a pure decision module. At
//! every event instant — after all completions, drain finishes, and
//! arrivals at that instant have been applied — the simulator calls
//! [`Policy::decide`], and the policy returns an ordered list of
//! [`Action`]s. Actions are applied in order against live state; an action
//! whose precondition no longer holds (e.g. a start planned against
//! processors still draining under a non-zero overhead model) is *dropped*
//! and counted, and the policy simply re-decides at the next instant (the
//! drain completion is itself an event). With zero overhead, a plan
//! computed by a policy that tracks its own hypothetical free set — as the
//! paper's pseudocode does — never drops.

use std::cell::Cell;

use sps_cluster::ProcSet;
use sps_metrics::JobOutcome;
use sps_telemetry::TelemetryCtx;
use sps_trace::TraceCtx;
use sps_workload::JobId;

use crate::admission::AdmissionModel;
use crate::sim::SimState;

/// One scheduling decision.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Action {
    /// Dispatch a never-started queued job onto the lowest-numbered free
    /// processors.
    Start(JobId),
    /// Dispatch a never-started queued job onto an explicit processor
    /// set. Selective Suspension uses this to steer fresh jobs away from
    /// processors that suspended jobs are waiting to reclaim — without
    /// placement awareness, every allocation tramples some pending
    /// re-entry set and the scheduler drowns in reassembly preemptions.
    StartOn(JobId, ProcSet),
    /// Re-enter a suspended job on exactly the processor set it held when
    /// suspended (the paper's local-preemption constraint).
    Resume(JobId),
    /// Re-enter a suspended job on a *different* processor set of the same
    /// size — process migration, which the paper's distributed-memory
    /// model forbids. Only the `ablation_migration` experiment uses this,
    /// to price the local-restart constraint.
    ResumeOn(JobId, ProcSet),
    /// Preempt a running job: stop computation, drain its memory image
    /// (per the overhead model), then free its processors.
    Suspend(JobId),
}

/// Per-instant context handed to [`Policy::decide`].
///
/// The simulator decides once per instant that holds an arrival, a tick of
/// the once-a-minute preemption routine, or a lifecycle transition (a
/// completion, a drain end, a fault). A batch of only stale events (the
/// completion, drain end or crash of a dispatch that was since suspended
/// or killed) is not a decide instant, and an eliding run also skips the
/// quiescent instants its policy certifies. Fast paths inside a decide
/// (SS/TSS's cheap no-op test and certificate, their victim-scan prunes,
/// IS's empty-queue shortcut) must answer exactly as the full decide
/// would; debug builds re-run the full decide behind each of them, and
/// `tests/oracle.rs` checks the schedules against a naive transcription
/// of the paper.
#[derive(Clone, Copy, Debug)]
pub struct DecideCtx<'a> {
    /// Jobs that arrived at this instant (already present in the queued
    /// list), in arrival order.
    pub arrivals: &'a [JobId],
    /// Whether this instant includes a periodic tick — the paper's
    /// schedulers run the preemption routine only on ticks ("the scheduler
    /// periodically (after every minute) invokes the preemption routine").
    pub tick: bool,
    /// Emission handle for scheduler-decision trace records. With the
    /// default `NullSink` the handle reports disabled and every emission
    /// site (including its record construction) is skipped. Policies
    /// built outside a simulator can use [`TraceCtx::disabled`].
    pub trace: &'a TraceCtx<'a>,
    /// Emission handle for telemetry observations (decide spans, victim
    /// scan widths). Like `trace`, the default `NullTelemetry` reports
    /// disabled and every emission site is skipped; standalone policies
    /// can use [`TelemetryCtx::disabled`].
    pub metrics: &'a TelemetryCtx<'a>,
    /// A no-op decide's horizon. On entry the simulator stores
    /// `Some(floor)` when it could let ticks lapse (idle elision is active
    /// and no tick is armed), where `floor` is the least horizon that
    /// would skip a tick, and `None` otherwise. A decide that returns no
    /// actions — tick or not — may then store `Some(h)`, `h > floor`, if
    /// it can prove that every tick decide before the instant `h` would
    /// act on nothing, unless an event arrives first. No decision record
    /// is replayed for the ticks it lets lapse, which write only their
    /// gauges, so those tick decides must write none either (TSS's
    /// `disable_limit` records change only at transitions and
    /// completions, which executed batches carry). The simulator arms its
    /// ticker at the first tick at or after `h − period` (one period of
    /// margin against rounding) and lets the ticks before it lapse. A
    /// value not past `floor` reads as no horizon, so a policy that
    /// ignores the field reports none; only SS/TSS (the exact first
    /// instant a decide could act, crossings of the idle order included)
    /// and IS report one.
    pub noop_until: &'a Cell<Option<f64>>,
}

/// A job-scheduling policy.
pub trait Policy {
    /// Human-readable name used in reports ("EASY", "SS (SF=2)", …).
    fn name(&self) -> String;

    /// Whether the simulator should deliver periodic ticks while work is
    /// pending. Preemptive policies return `true`.
    fn needs_tick(&self) -> bool {
        false
    }

    /// Whether `decide` is provably a no-op — returns no actions and
    /// mutates no internal state — at a *quiescent* instant: one with no
    /// admitted arrival and no queued, suspended, or draining job (only
    /// running jobs, whose completions are events of their own). Policies
    /// that certify this let the simulator skip the decide call and elide
    /// idle ticks entirely, which is where most of a sub-saturation run's
    /// events go; only such policies are offered
    /// [`DecideCtx::noop_until`], which lets ticks lapse while jobs wait.
    /// Gang scheduling must keep the default `false`: it rotates its
    /// Ousterhout matrix on every tick, running or not.
    fn quiescent_noop(&self) -> bool {
        false
    }

    /// Decide whether to admit an arriving job when admission control is
    /// enabled (never consulted otherwise). Called once per arrival, in
    /// arrival order, *before* the instant's [`Policy::decide`]; a
    /// rejected job never enters the queue, produces no outcome, and is
    /// charged [`AdmissionModel::penalty`] on the run's rejection ledger.
    /// The default is the load-adaptive baseline
    /// ([`AdmissionModel::baseline_admit`]); policies may override it to
    /// make a smarter penalty/slowdown trade per Lucarelli et al.
    fn admit(&mut self, state: &SimState, _job: JobId, model: &AdmissionModel) -> bool {
        model.baseline_admit(state)
    }

    /// Produce scheduling actions for this instant. Called once per event
    /// instant, after state updates. Actions are applied in order.
    fn decide(&mut self, state: &SimState, ctx: &DecideCtx<'_>, actions: &mut Vec<Action>);

    /// Observe a job completing (TSS uses this to maintain per-category
    /// average slowdowns for its preemption-disable limits).
    fn on_completion(&mut self, _outcome: &JobOutcome) {}
}
