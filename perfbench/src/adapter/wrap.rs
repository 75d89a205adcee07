//! Timing decorators for the program's public seams: [`Policy`],
//! [`JobSource`], [`TraceSink`] and [`TelemetrySink`].
//!
//! Each decorator forwards every trait method, so a decorated run takes
//! exactly the schedule of an undecorated one. `quiescent_noop` in
//! particular must be forwarded: without it the simulator stops eliding
//! idle ticks and executes a longer event schedule than users run (the
//! `decide_throughput` bench's decorator omits it on purpose, which is
//! why `BENCH_kernel.json` counts 61,512 events for `sdsc_ss2_hiload`
//! where a plain run executes 28,069). The traced pass asserts the
//! equality run by run.
//!
//! Calls are tallied in a thread-local [`Tally`]: the traced pass runs on
//! one thread, and `JobSource` must be `Send`, which rules out sharing an
//! `Rc` with the traced pass.

use std::cell::RefCell;
use std::io;
use std::time::Instant;

use sps_core::admission::AdmissionModel;
use sps_core::{Action, DecideCtx, Policy, SimState};
use sps_metrics::JobOutcome;
use sps_telemetry::{HealthEvent, HealthSummary, Obs, TelemetrySink};
use sps_trace::{TraceRecord, TraceSink};
use sps_workload::{Job, JobId, JobSource};

use crate::stats::Histogram;

/// Calls through one seam and the nanoseconds spent inside them.
#[derive(Clone, Copy, Default)]
pub struct Seam {
    pub calls: u64,
    pub ns: u64,
}

impl Seam {
    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// Everything the decorators counted since the last [`take`].
pub struct Tally {
    /// `Policy::decide`.
    pub decide: Seam,
    pub decide_hist: Histogram,
    /// Decide calls that returned at least one action.
    pub acted: u64,
    /// `Action::Suspend`s returned by decide.
    pub suspends: u64,
    /// `Policy::admit` and `Policy::on_completion`.
    pub hooks: Seam,
    /// `JobSource::next_job`; `jobs` counts the calls that returned a job.
    pub next_job: Seam,
    pub jobs: u64,
    /// `TraceSink::record`.
    pub trace: Seam,
    /// `TelemetrySink::record` (its calls are the observations); `ns`
    /// also covers `poll_health` and `finish`.
    pub telemetry: Seam,
    /// Nanoseconds inside every decorated call, for self-time accounting.
    pub inside_ns: u64,
}

impl Tally {
    fn new() -> Self {
        Tally {
            decide: Seam::default(),
            decide_hist: Histogram::new(),
            acted: 0,
            suspends: 0,
            hooks: Seam::default(),
            next_job: Seam::default(),
            jobs: 0,
            trace: Seam::default(),
            telemetry: Seam::default(),
            inside_ns: 0,
        }
    }
}

thread_local! {
    static TALLY: RefCell<Tally> = RefCell::new(Tally::new());
}

fn account(start: Instant, f: impl FnOnce(&mut Tally, u64)) {
    let ns = start.elapsed().as_nanos() as u64;
    TALLY.with(|t| {
        let mut t = t.borrow_mut();
        t.inside_ns += ns;
        f(&mut t, ns);
    });
}

/// Nanoseconds spent inside decorated calls on this thread so far.
pub fn inside_ns() -> u64 {
    TALLY.with(|t| t.borrow().inside_ns)
}

/// Snapshot of the call counters, for per-run checks and span attributes.
pub fn counts() -> [(&'static str, u64); 6] {
    TALLY.with(|t| {
        let t = t.borrow();
        [
            ("decide_calls", t.decide.calls),
            ("next_job_calls", t.next_job.calls),
            ("jobs", t.jobs),
            ("trace_records", t.trace.calls),
            ("telemetry_obs", t.telemetry.calls),
            ("inside_ns", t.inside_ns),
        ]
    })
}

/// This thread's tally, leaving a fresh one behind.
pub fn take() -> Tally {
    TALLY.with(|t| std::mem::replace(&mut *t.borrow_mut(), Tally::new()))
}

pub struct TimedPolicy(pub Box<dyn Policy>);

impl Policy for TimedPolicy {
    fn name(&self) -> String {
        self.0.name()
    }

    fn needs_tick(&self) -> bool {
        self.0.needs_tick()
    }

    fn quiescent_noop(&self) -> bool {
        self.0.quiescent_noop()
    }

    fn admit(&mut self, state: &SimState, job: JobId, model: &AdmissionModel) -> bool {
        let t = Instant::now();
        let admitted = self.0.admit(state, job, model);
        account(t, |tally, ns| {
            tally.hooks.calls += 1;
            tally.hooks.ns += ns;
        });
        admitted
    }

    fn decide(&mut self, state: &SimState, ctx: &DecideCtx<'_>, actions: &mut Vec<Action>) {
        let before = actions.len();
        let t = Instant::now();
        self.0.decide(state, ctx, actions);
        let fresh = &actions[before..];
        let suspends = fresh
            .iter()
            .filter(|a| matches!(a, Action::Suspend(_)))
            .count() as u64;
        let acted = !fresh.is_empty();
        account(t, |tally, ns| {
            tally.decide.calls += 1;
            tally.decide.ns += ns;
            tally.decide_hist.record(ns);
            tally.acted += u64::from(acted);
            tally.suspends += suspends;
        });
    }

    fn on_completion(&mut self, outcome: &JobOutcome) {
        let t = Instant::now();
        self.0.on_completion(outcome);
        account(t, |tally, ns| {
            tally.hooks.calls += 1;
            tally.hooks.ns += ns;
        });
    }
}

pub struct TimedSource<S>(pub S);

impl<S: JobSource> JobSource for TimedSource<S> {
    fn next_job(&mut self) -> Option<Job> {
        let t = Instant::now();
        let job = self.0.next_job();
        let got = job.is_some();
        account(t, |tally, ns| {
            tally.next_job.calls += 1;
            tally.next_job.ns += ns;
            tally.jobs += u64::from(got);
        });
        job
    }

    fn remaining(&self) -> Option<usize> {
        self.0.remaining()
    }

    fn finite(&self) -> bool {
        self.0.finite()
    }

    fn label(&self) -> String {
        self.0.label()
    }
}

pub struct TimedSink<S>(pub S);

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn enabled(&self) -> bool {
        self.0.enabled()
    }

    fn record(&mut self, rec: &TraceRecord) {
        let t = Instant::now();
        self.0.record(rec);
        account(t, |tally, ns| {
            tally.trace.calls += 1;
            tally.trace.ns += ns;
        });
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

pub struct TimedTelemetry<T>(pub T);

impl<T: TelemetrySink> TelemetrySink for TimedTelemetry<T> {
    fn enabled(&self) -> bool {
        self.0.enabled()
    }

    fn record(&mut self, obs: &Obs) {
        let t = Instant::now();
        self.0.record(obs);
        account(t, |tally, ns| {
            tally.telemetry.calls += 1;
            tally.telemetry.ns += ns;
        });
    }

    fn poll_health(&mut self) -> Option<HealthEvent> {
        let t = Instant::now();
        let event = self.0.poll_health();
        account(t, |tally, ns| tally.telemetry.ns += ns);
        event
    }

    fn finish(&mut self, t_end: i64) {
        let t = Instant::now();
        self.0.finish(t_end);
        account(t, |tally, ns| tally.telemetry.ns += ns);
    }

    fn health_summary(&self) -> Option<HealthSummary> {
        self.0.health_summary()
    }

    fn starvation_threshold(&self) -> f64 {
        self.0.starvation_threshold()
    }
}
