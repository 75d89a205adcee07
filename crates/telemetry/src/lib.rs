//! Zero-cost-when-disabled telemetry for the scheduling simulator.
//!
//! The simulator emits flat [`Obs`] observations at interesting points
//! (events drained, decide spans, job transitions, per-instant samples).
//! A [`TelemetrySink`] consumes them. The default [`NullTelemetry`] reports
//! `enabled() == false` as a constant, so every instrumentation site —
//! guarded by that flag — folds away entirely and the hot path is
//! untouched. The concrete [`Telemetry`] sink feeds a static-handle metric
//! [`Registry`] (array-indexed adds, no hashing) and three online health
//! detectors (starvation watch, thrash detector, capacity-leak integral).
//!
//! Mirrors the `TraceSink`/`TraceCtx` design in `sps-trace`: the simulator
//! owns the sink as a type parameter, and lends it into policy code via
//! [`TelemetryCtx`] for the duration of a decide call.

mod health;
mod registry;
mod spans;
mod timeline;

pub use health::{HealthConfig, HealthEvent, HealthKind, HealthReport, HealthSummary};
pub use registry::{Buckets, CounterId, GaugeId, HistId, Registry, Schema};
pub use spans::{PhaseProfile, SpanEvent, SpanPhase, SpanProfiler, DEFAULT_SPAN_CAP, SPAN_PHASES};
pub use timeline::TimelineBuilder;

use health::{CapacityLeak, StarvationWatch, ThrashDetector};
use sps_trace::Json;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;

/// Engine event classes tallied per drained batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum EventClass {
    Arrival = 0,
    Completion = 1,
    Drain = 2,
    Fault = 3,
    Tick = 4,
}

const EVENT_CLASSES: usize = 5;

/// One observation from the simulator. All variants are `Copy`; emission
/// sites are guarded by `enabled()` so disabled runs never construct one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Obs {
    /// An engine event was drained from the queue.
    Event {
        class: EventClass,
    },
    /// A policy decide call finished: wall-clock span and actions produced.
    Decide {
        wall_nanos: u64,
        actions: u32,
    },
    /// A victim table was built; `scanned` running jobs were considered.
    VictimScan {
        scanned: u32,
    },
    /// Job transitions (simulation time).
    JobStarted {
        job: u32,
        t: i64,
    },
    JobSuspended {
        job: u32,
        t: i64,
    },
    JobResumed {
        job: u32,
        t: i64,
    },
    JobCompleted {
        job: u32,
        t: i64,
        slowdown: f64,
    },
    JobKilled {
        job: u32,
        t: i64,
    },
    /// Admission control rejected the job at arrival.
    JobRejected {
        job: u32,
        t: i64,
    },
    /// Fault churn.
    ProcFailed {
        t: i64,
    },
    ProcRepaired {
        t: i64,
    },
    /// A queued job at or above the sink's starvation threshold.
    Starving {
        job: u32,
        t: i64,
        xfactor: f64,
    },
    /// Per-instant sample taken after actions were applied.
    Instant {
        t: i64,
        queued: u32,
        running: u32,
        suspended: u32,
        free_procs: u32,
        draining_procs: u32,
        /// Processors in the free set still claimed by suspended jobs.
        claimed_idle: u32,
        /// Pending entries in the event queue.
        queue_events: u32,
        /// Worst queued xfactor per coarse job category.
        cat_xfactor: [f64; 4],
    },
}

/// Consumer of simulator observations.
///
/// `enabled()` is the zero-cost switch: every instrumentation site checks
/// it (or a value cached from it) before building an [`Obs`].
pub trait TelemetrySink {
    /// Whether observations should be emitted at all.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Fold one observation.
    fn record(&mut self, obs: &Obs);

    /// Drain the next pending health event, if any. The run loop forwards
    /// these into the trace stream.
    #[inline]
    fn poll_health(&mut self) -> Option<HealthEvent> {
        None
    }

    /// End of run: close open integrals (may enqueue final health events).
    #[inline]
    fn finish(&mut self, _t_end: i64) {}

    /// Detector roll-up for the run result, if this sink tracks health.
    #[inline]
    fn health_summary(&self) -> Option<HealthSummary> {
        None
    }

    /// Queued-job xfactor at which the run loop should emit
    /// [`Obs::Starving`]. `INFINITY` disables the pre-filter.
    #[inline]
    fn starvation_threshold(&self) -> f64 {
        f64::INFINITY
    }
}

/// The default sink: reports disabled, ignores everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTelemetry;

impl TelemetrySink for NullTelemetry {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&mut self, _obs: &Obs) {}
}

impl<T: TelemetrySink + ?Sized> TelemetrySink for &mut T {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn record(&mut self, obs: &Obs) {
        (**self).record(obs)
    }

    #[inline]
    fn poll_health(&mut self) -> Option<HealthEvent> {
        (**self).poll_health()
    }

    #[inline]
    fn finish(&mut self, t_end: i64) {
        (**self).finish(t_end)
    }

    #[inline]
    fn health_summary(&self) -> Option<HealthSummary> {
        (**self).health_summary()
    }

    #[inline]
    fn starvation_threshold(&self) -> f64 {
        (**self).starvation_threshold()
    }
}

/// Borrowed view of a telemetry sink, lent into policy code for one decide
/// call. Same shape as `sps_trace::TraceCtx`: the `enabled` flag is cached
/// so the common disabled path is a bool test.
pub struct TelemetryCtx<'s> {
    inner: Option<RefCell<&'s mut dyn TelemetrySink>>,
    enabled: bool,
}

impl<'s> TelemetryCtx<'s> {
    /// A context that drops everything: for policies run outside a
    /// simulator, and for the debug builds' re-run of a decide that a
    /// fast path answered.
    pub fn disabled() -> Self {
        TelemetryCtx {
            inner: None,
            enabled: false,
        }
    }

    /// Wrap a live sink; caches its `enabled()` flag.
    pub fn new(sink: &'s mut dyn TelemetrySink) -> Self {
        let enabled = sink.enabled();
        TelemetryCtx {
            inner: Some(RefCell::new(sink)),
            enabled,
        }
    }

    /// Cheap check for instrumentation sites.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record an observation if enabled.
    #[inline]
    pub fn emit(&self, obs: &Obs) {
        if !self.enabled {
            return;
        }
        if let Some(cell) = &self.inner {
            cell.borrow_mut().record(obs);
        }
    }
}

impl fmt::Debug for TelemetryCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryCtx")
            .field("enabled", &self.enabled)
            .finish()
    }
}

/// Typed handles for every simulator metric, registered once at startup.
pub struct SimMetrics {
    pub events: [CounterId; EVENT_CLASSES],
    pub decides: CounterId,
    pub actions: CounterId,
    pub starts: CounterId,
    pub suspends: CounterId,
    pub resumes: CounterId,
    pub completions: CounterId,
    pub kills: CounterId,
    pub rejections: CounterId,
    pub proc_failures: CounterId,
    pub proc_repairs: CounterId,
    pub health_events: CounterId,
    pub queued: GaugeId,
    pub running: GaugeId,
    pub suspended: GaugeId,
    pub free_procs: GaugeId,
    pub draining_procs: GaugeId,
    pub claimed_idle: GaugeId,
    pub queue_events: GaugeId,
    pub cat_xfactor: [GaugeId; 4],
    pub decide_latency_ns: HistId,
    pub victim_scan_width: HistId,
    pub queue_depth: HistId,
    pub actions_per_decide: HistId,
    pub slowdown: HistId,
}

impl SimMetrics {
    fn register(s: &mut Schema) -> SimMetrics {
        SimMetrics {
            events: [
                s.counter("sps_events_arrival_total", "arrival events drained"),
                s.counter("sps_events_completion_total", "completion events drained"),
                s.counter("sps_events_drain_total", "drain-done events drained"),
                s.counter("sps_events_fault_total", "fault events drained"),
                s.counter("sps_events_tick_total", "tick events drained"),
            ],
            decides: s.counter("sps_decides_total", "policy decide calls"),
            actions: s.counter("sps_actions_total", "actions produced by decide calls"),
            starts: s.counter("sps_job_starts_total", "jobs dispatched onto processors"),
            suspends: s.counter("sps_job_suspends_total", "job suspensions"),
            resumes: s.counter("sps_job_resumes_total", "job resumptions"),
            completions: s.counter("sps_job_completions_total", "jobs completed"),
            kills: s.counter("sps_job_kills_total", "jobs killed (faults/crashes)"),
            rejections: s.counter(
                "sps_job_rejections_total",
                "jobs refused by admission control",
            ),
            proc_failures: s.counter("sps_proc_failures_total", "processor failures"),
            proc_repairs: s.counter("sps_proc_repairs_total", "processor repairs"),
            health_events: s.counter("sps_health_events_total", "health detector firings"),
            queued: s.gauge("sps_queued_jobs", "jobs waiting in the queue"),
            running: s.gauge("sps_running_jobs", "jobs currently running"),
            suspended: s.gauge("sps_suspended_jobs", "jobs currently suspended"),
            free_procs: s.gauge("sps_free_procs", "idle processors"),
            draining_procs: s.gauge("sps_draining_procs", "processors held by draining jobs"),
            claimed_idle: s.gauge(
                "sps_claimed_idle_procs",
                "free processors claimed by suspended jobs",
            ),
            queue_events: s.gauge("sps_queue_events", "pending entries in the event queue"),
            cat_xfactor: [
                s.gauge(
                    "sps_queued_xfactor_c0",
                    "worst queued xfactor, coarse category 0",
                ),
                s.gauge(
                    "sps_queued_xfactor_c1",
                    "worst queued xfactor, coarse category 1",
                ),
                s.gauge(
                    "sps_queued_xfactor_c2",
                    "worst queued xfactor, coarse category 2",
                ),
                s.gauge(
                    "sps_queued_xfactor_c3",
                    "worst queued xfactor, coarse category 3",
                ),
            ],
            decide_latency_ns: s.histogram(
                "sps_decide_latency_ns",
                "wall-clock nanoseconds per decide call",
                Buckets::Log2 { n: 40 },
            ),
            victim_scan_width: s.histogram(
                "sps_victim_scan_width",
                "running jobs considered per victim scan",
                Buckets::Fixed(&[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]),
            ),
            queue_depth: s.histogram(
                "sps_queue_depth",
                "queued jobs sampled per decision instant",
                Buckets::Log2 { n: 16 },
            ),
            actions_per_decide: s.histogram(
                "sps_actions_per_decide",
                "actions emitted per decide call",
                Buckets::Log2 { n: 10 },
            ),
            slowdown: s.histogram(
                "sps_job_slowdown",
                "bounded slowdown of completed jobs",
                Buckets::Fixed(&[1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0]),
            ),
        }
    }
}

/// The concrete sink: metric registry + online health detectors.
pub struct Telemetry {
    reg: Registry,
    m: SimMetrics,
    cfg: HealthConfig,
    starvation: StarvationWatch,
    thrash: ThrashDetector,
    leak: CapacityLeak,
    pending: VecDeque<HealthEvent>,
    events: Vec<HealthEvent>,
    truncated: bool,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    pub fn new() -> Self {
        Telemetry::with_config(HealthConfig::default())
    }

    pub fn with_config(cfg: HealthConfig) -> Self {
        let mut schema = Schema::default();
        let m = SimMetrics::register(&mut schema);
        Telemetry {
            reg: Registry::new(schema),
            m,
            starvation: StarvationWatch::default(),
            thrash: ThrashDetector::new(cfg.thrash_cycles, cfg.thrash_window),
            leak: CapacityLeak::new(cfg.leak_procsecs),
            cfg,
            pending: VecDeque::new(),
            events: Vec::new(),
            truncated: false,
        }
    }

    /// The underlying registry, for report rendering and assertions.
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// Typed metric handles (to pair with [`Telemetry::registry`]).
    pub fn metrics(&self) -> &SimMetrics {
        &self.m
    }

    /// Prometheus text exposition of the whole registry.
    pub fn render_prom(&self) -> String {
        self.reg.render_prom()
    }

    /// JSON snapshot of the whole registry.
    pub fn snapshot_json(&self) -> Json {
        self.reg.snapshot_json()
    }

    /// Full detector findings (call after the run finishes).
    pub fn health_report(&self) -> HealthReport {
        HealthReport {
            summary: self.summary(),
            worst_starvation_xf: self.starvation.worst_xf,
            worst_thrash_count: self.thrash.worst_count,
            events: self.events.clone(),
            truncated: self.truncated,
        }
    }

    fn summary(&self) -> HealthSummary {
        HealthSummary {
            starvation_onsets: self.starvation.onsets,
            unresolved_starvation: self.starvation.unresolved(),
            thrash_events: self.thrash.events,
            thrashed_jobs: self.thrash.thrashed_jobs(),
            capacity_leak_procsecs: self.leak.total,
        }
    }

    fn push_health(&mut self, ev: HealthEvent) {
        self.reg.inc(self.m.health_events, 1);
        if self.events.len() < self.cfg.max_events {
            self.events.push(ev);
        } else {
            self.truncated = true;
        }
        self.pending.push_back(ev);
    }
}

impl TelemetrySink for Telemetry {
    fn record(&mut self, obs: &Obs) {
        match *obs {
            Obs::Event { class } => self.reg.inc(self.m.events[class as usize], 1),
            Obs::Decide {
                wall_nanos,
                actions,
            } => {
                self.reg.inc(self.m.decides, 1);
                self.reg.inc(self.m.actions, actions as u64);
                self.reg
                    .observe(self.m.decide_latency_ns, wall_nanos as f64);
                self.reg.observe(self.m.actions_per_decide, actions as f64);
            }
            Obs::VictimScan { scanned } => {
                self.reg.observe(self.m.victim_scan_width, scanned as f64)
            }
            Obs::JobStarted { job, .. } => {
                self.reg.inc(self.m.starts, 1);
                self.starvation.resolve(job);
            }
            Obs::JobSuspended { job, t } => {
                self.reg.inc(self.m.suspends, 1);
                // Suspensions inside the warmup window never reach the
                // thrash detector, so transient churn cannot seed (or
                // count toward) a steady-state episode.
                if t >= self.cfg.warmup {
                    if let Some(ev) = self.thrash.on_suspend(job, t) {
                        self.push_health(ev);
                    }
                }
            }
            Obs::JobResumed { .. } => self.reg.inc(self.m.resumes, 1),
            Obs::JobCompleted { job, slowdown, .. } => {
                self.reg.inc(self.m.completions, 1);
                self.reg.observe(self.m.slowdown, slowdown);
                self.starvation.resolve(job);
            }
            Obs::JobKilled { job, .. } => {
                self.reg.inc(self.m.kills, 1);
                self.starvation.resolve(job);
            }
            Obs::JobRejected { .. } => self.reg.inc(self.m.rejections, 1),
            Obs::ProcFailed { .. } => self.reg.inc(self.m.proc_failures, 1),
            Obs::ProcRepaired { .. } => self.reg.inc(self.m.proc_repairs, 1),
            Obs::Starving { job, t, xfactor } => {
                if t >= self.cfg.warmup {
                    if let Some(ev) = self.starvation.observe(job, t, xfactor) {
                        self.push_health(ev);
                    }
                }
            }
            Obs::Instant {
                t,
                queued,
                running,
                suspended,
                free_procs,
                draining_procs,
                claimed_idle,
                queue_events,
                cat_xfactor,
            } => {
                self.reg.set(self.m.queued, queued as f64);
                self.reg.set(self.m.running, running as f64);
                self.reg.set(self.m.suspended, suspended as f64);
                self.reg.set(self.m.free_procs, free_procs as f64);
                self.reg.set(self.m.draining_procs, draining_procs as f64);
                self.reg.set(self.m.claimed_idle, claimed_idle as f64);
                self.reg.set(self.m.queue_events, queue_events as f64);
                for (i, xf) in cat_xfactor.iter().enumerate() {
                    self.reg.set(self.m.cat_xfactor[i], *xf);
                }
                self.reg.observe(self.m.queue_depth, queued as f64);
                if t >= self.cfg.warmup {
                    if let Some(ev) = self.leak.observe(t, claimed_idle) {
                        self.push_health(ev);
                    }
                }
            }
        }
    }

    fn poll_health(&mut self) -> Option<HealthEvent> {
        self.pending.pop_front()
    }

    fn finish(&mut self, t_end: i64) {
        if let Some(ev) = self.leak.finish(t_end) {
            self.push_health(ev);
        }
    }

    fn health_summary(&self) -> Option<HealthSummary> {
        Some(self.summary())
    }

    fn starvation_threshold(&self) -> f64 {
        self.cfg.starvation_xfactor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_disabled() {
        assert!(!NullTelemetry.enabled());
        assert!(NullTelemetry.health_summary().is_none());
        assert!(NullTelemetry.starvation_threshold().is_infinite());
    }

    #[test]
    fn ctx_disabled_drops_everything() {
        let ctx = TelemetryCtx::disabled();
        assert!(!ctx.enabled());
        ctx.emit(&Obs::VictimScan { scanned: 3 }); // must not panic
    }

    #[test]
    fn ctx_forwards_to_sink() {
        let mut t = Telemetry::new();
        {
            let ctx = TelemetryCtx::new(&mut t);
            assert!(ctx.enabled());
            ctx.emit(&Obs::VictimScan { scanned: 5 });
            ctx.emit(&Obs::Decide {
                wall_nanos: 800,
                actions: 2,
            });
        }
        assert_eq!(t.registry().hist_count(t.metrics().victim_scan_width), 1);
        assert_eq!(t.registry().counter(t.metrics().decides), 1);
        assert_eq!(t.registry().counter(t.metrics().actions), 2);
    }

    #[test]
    fn transitions_update_counters_and_detectors() {
        let mut t = Telemetry::with_config(HealthConfig {
            thrash_cycles: 2,
            thrash_window: 100,
            ..HealthConfig::default()
        });
        t.record(&Obs::JobStarted { job: 1, t: 0 });
        t.record(&Obs::JobSuspended { job: 1, t: 10 });
        t.record(&Obs::JobResumed { job: 1, t: 20 });
        t.record(&Obs::JobSuspended { job: 1, t: 30 }); // 2nd suspend in window
        let ev = t.poll_health().expect("thrash event pending");
        assert_eq!(ev.kind, HealthKind::Thrash);
        assert_eq!(ev.job, Some(1));
        assert!(t.poll_health().is_none());
        assert_eq!(t.registry().counter(t.metrics().suspends), 2);
        let summary = t.health_summary().unwrap();
        assert_eq!(summary.thrash_events, 1);
        assert_eq!(summary.thrashed_jobs, 1);
    }

    #[test]
    fn starving_obs_opens_and_start_resolves() {
        let mut t = Telemetry::new();
        t.record(&Obs::Starving {
            job: 3,
            t: 50,
            xfactor: 12.0,
        });
        assert_eq!(t.health_summary().unwrap().starvation_onsets, 1);
        assert_eq!(t.health_summary().unwrap().unresolved_starvation, 1);
        t.record(&Obs::JobStarted { job: 3, t: 60 });
        assert_eq!(t.health_summary().unwrap().unresolved_starvation, 0);
        let report = t.health_report();
        assert_eq!(report.worst_starvation_xf, 12.0);
        assert_eq!(report.events.len(), 1);
    }

    #[test]
    fn finish_closes_leak_integral() {
        let mut t = Telemetry::with_config(HealthConfig {
            leak_procsecs: 50,
            ..HealthConfig::default()
        });
        t.record(&Obs::Instant {
            t: 0,
            queued: 1,
            running: 1,
            suspended: 1,
            free_procs: 10,
            draining_procs: 0,
            claimed_idle: 10,
            queue_events: 2,
            cat_xfactor: [0.0; 4],
        });
        t.finish(10); // 10 procs * 10 s = 100 >= 50
        let ev = t.poll_health().expect("leak event");
        assert_eq!(ev.kind, HealthKind::CapacityLeak);
        assert_eq!(t.health_summary().unwrap().capacity_leak_procsecs, 100);
    }

    #[test]
    fn prom_and_json_surface_sim_metrics() {
        let mut t = Telemetry::new();
        t.record(&Obs::Decide {
            wall_nanos: 500,
            actions: 1,
        });
        let prom = t.render_prom();
        assert!(prom.contains("sps_decides_total 1"));
        assert!(prom.contains("# TYPE sps_decide_latency_ns histogram"));
        let json = t.snapshot_json().render();
        assert!(Json::parse(&json).is_ok());
    }

    #[test]
    fn event_log_caps_but_counters_continue() {
        let mut t = Telemetry::with_config(HealthConfig {
            max_events: 2,
            ..HealthConfig::default()
        });
        for job in 0..5 {
            t.record(&Obs::Starving {
                job,
                t: 1,
                xfactor: 20.0,
            });
        }
        let report = t.health_report();
        assert_eq!(report.events.len(), 2);
        assert!(report.truncated);
        assert_eq!(report.summary.starvation_onsets, 5);
    }
}
