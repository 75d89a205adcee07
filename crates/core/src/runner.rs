//! Unified run entry points: the one path from an [`ExperimentConfig`]
//! to a [`Simulator`].
//!
//! * [`RunBuilder`] (from [`ExperimentConfig::runner`]) configures and
//!   executes **one** run: attach a trace sink, a telemetry sink or an
//!   explicit [`JobSource`], then call [`run`](RunBuilder::run) for a
//!   [`RunResult`] or [`simulate`](RunBuilder::simulate) for the raw
//!   [`SimResult`]. It is the only code that applies a configuration's
//!   `with_*` chain to a simulator — stopping condition and warmup
//!   window included, both read from the configuration;
//!   [`build`](RunBuilder::build) hands that simulator back for callers
//!   that flip a kernel switch before running it.
//! * [`BatchRunner`] (from [`BatchRunner::new`]) fans a batch of
//!   configurations out over OS threads with shared trace caching,
//!   optional progress observation, and explicit loss semantics:
//!   [`run_checked`](BatchRunner::run_checked) returns one `Result` per
//!   configuration, while [`run`](BatchRunner::run) trades that for a
//!   plain `Vec` by **panicking on the first failure** — a lossy
//!   convenience documented on the method, not a silent unwrap.
//!
//! The conveniences on [`ExperimentConfig`] (`run`, `run_checked`) are
//! thin delegates that route through here, as do the sweep engines.

use std::sync::Arc;

use sps_simcore::Watchdog;
use sps_telemetry::{NullTelemetry, SpanProfiler, TelemetrySink};
use sps_trace::{NullSink, TraceRecord, TraceSink, TRACE_VERSION};
use sps_workload::{JobSource, TraceSource};

use crate::experiment::{default_threads, run_batch, ExperimentConfig, RunError, RunResult};
use crate::sim::{RunUntil, SimResult, Simulator};

/// Builder for a single experiment run. Start from
/// [`ExperimentConfig::runner`]; `cfg.run()` is `cfg.runner().run()`.
/// Everything that changes the run's result — workload, scheduler,
/// stopping condition, warmup window — comes from the configuration; the
/// builder only attaches observers, an explicit job source and the
/// execution knobs (watchdog, lean mode, profiler).
///
/// The sink parameters default to the null implementations and switch
/// types when attached ([`trace_sink`](RunBuilder::trace_sink),
/// [`telemetry`](RunBuilder::telemetry)) — like `HashMap::with_hasher`,
/// the argument fixes the parameter. Both traits are implemented for
/// `&mut S`, so passing a borrow keeps the sink with the caller for
/// rendering after the run.
pub struct RunBuilder<S: TraceSink = NullSink, T: TelemetrySink = NullTelemetry> {
    cfg: Arc<ExperimentConfig>,
    sink: S,
    telemetry: T,
    source: Option<Box<dyn JobSource>>,
    watchdog: Watchdog,
    lean: bool,
    profiler: Option<SpanProfiler>,
}

impl RunBuilder {
    /// Start a builder over `cfg`: no sinks, the workload implied by
    /// [`ExperimentConfig::arrivals`], generous watchdog.
    pub fn new(cfg: Arc<ExperimentConfig>) -> Self {
        RunBuilder {
            cfg,
            sink: NullSink,
            telemetry: NullTelemetry,
            source: None,
            watchdog: Watchdog::generous(),
            lean: false,
            profiler: None,
        }
    }
}

impl<S: TraceSink, T: TelemetrySink> RunBuilder<S, T> {
    /// Stream trace records into `sink` during the run. The first record
    /// is a [`TraceRecord::Header`] embedding the configuration as JSON,
    /// so the run is reproducible from the log alone.
    pub fn trace_sink<S2: TraceSink>(self, sink: S2) -> RunBuilder<S2, T> {
        RunBuilder {
            cfg: self.cfg,
            sink,
            telemetry: self.telemetry,
            source: self.source,
            watchdog: self.watchdog,
            lean: self.lean,
            profiler: self.profiler,
        }
    }

    /// Attach a telemetry sink. The sink observes the run (metrics,
    /// spans, health detectors) without perturbing it — outcomes are
    /// bit-identical to the uninstrumented run.
    pub fn telemetry<T2: TelemetrySink>(self, telemetry: T2) -> RunBuilder<S, T2> {
        RunBuilder {
            cfg: self.cfg,
            sink: self.sink,
            telemetry,
            source: self.source,
            watchdog: self.watchdog,
            lean: self.lean,
            profiler: self.profiler,
        }
    }

    /// Feed the run from an explicit [`JobSource`] instead of the
    /// workload implied by the configuration ([`ExperimentConfig::trace`]
    /// for closed systems, [`ExperimentConfig::open_source`] otherwise).
    /// The sweep harness uses this to share one cached [`TraceSource`]
    /// across a scheduler grid.
    pub fn source(mut self, source: Box<dyn JobSource>) -> Self {
        self.source = Some(source);
        self
    }

    /// Override the watchdog (default [`Watchdog::generous`]).
    pub fn watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Run lean (outcome-streaming): per-job outcomes fold into a
    /// fixed-size accumulator as they complete instead of accumulating in
    /// [`SimResult::outcomes`], and occupancy segments are dropped —
    /// memory stays O(machine) regardless of trace length. Headline
    /// metrics are bit-identical to the materialized run; per-job
    /// records, windowed reports, and per-tier columns are unavailable
    /// (the run asserts no warmup window and a homogeneous machine).
    pub fn lean(mut self, on: bool) -> Self {
        self.lean = on;
        self
    }

    /// Attach a span profiler to the run (default none): phase latency
    /// histograms land in [`KernelStats::phases`](crate::sim::KernelStats)
    /// and, for a timeline-enabled profiler, raw spans in
    /// [`SimResult::spans`]. Observation only — results stay
    /// bit-identical.
    pub fn profiler(mut self, profiler: SpanProfiler) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Assemble the run's [`Simulator`] without running it: the source
    /// (the explicit one, else [`ExperimentConfig::open_source`] for open
    /// arrival specs, else the configuration's synthetic trace), the
    /// configuration's `with_*` chain and this builder's knobs. The trace
    /// header is recorded here. Benches and tests that need a kernel
    /// switch ([`Simulator::with_tick_elision`] and friends) flip it on
    /// the result.
    ///
    /// # Panics
    ///
    /// If the resolved source is unbounded
    /// ([`JobSource::finite`] is false) while the configuration's stopping
    /// condition is [`RunUntil::Drained`] — such a run would never end.
    /// [`ExperimentConfig::validate`] rejects an open arrival spec without
    /// a stop; this catches an unbounded explicit source too.
    pub fn build(mut self) -> Simulator<S, T> {
        if self.sink.enabled() {
            self.sink.record(&TraceRecord::Header {
                version: TRACE_VERSION,
                scheduler: self.cfg.scheduler.to_string(),
                config: self.cfg.to_json(),
            });
        }
        let cfg = &self.cfg;
        let source = self.source.unwrap_or_else(|| match cfg.open_source() {
            Some(open) => Box::new(open),
            None => Box::new(TraceSource::new(cfg.trace())),
        });
        assert!(
            source.finite() || cfg.until != RunUntil::Drained,
            "unbounded job source `{}` needs a stopping condition: \
             set `ExperimentConfig::until` to a sim-time horizon or a job count",
            source.label()
        );
        let mut sim = Simulator::traced_source(
            source,
            cfg.system.procs,
            cfg.scheduler.build(),
            cfg.overhead,
            cfg.tick_period,
            self.sink,
        )
        .with_telemetry(self.telemetry)
        .with_faults(cfg.faults)
        .with_admission(cfg.admission)
        .with_preemption(cfg.preemption, cfg.checkpoint)
        .with_until(cfg.until)
        .with_warmup(cfg.warmup)
        .with_watchdog(self.watchdog);
        if cfg.is_heterogeneous() {
            sim = sim.with_speed(cfg.speed_map());
        }
        if self.lean {
            assert!(
                !cfg.is_heterogeneous(),
                "lean runs drop the segment record, so per-tier metrics \
                 cannot be reconstructed — run heterogeneous cells full"
            );
            sim = sim.with_lean();
        }
        if let Some(profiler) = self.profiler {
            sim = sim.with_profiler(profiler);
        }
        sim
    }

    /// Execute the run and return the raw [`SimResult`] with no
    /// per-category reports built (the sweep harness folds this straight
    /// into a fixed-size summary). Panics like [`build`](RunBuilder::build).
    pub fn simulate(self) -> SimResult {
        self.build().run()
    }

    /// Execute the run and aggregate per-category reports into a
    /// [`RunResult`].
    pub fn run(self) -> RunResult {
        let cfg = Arc::clone(&self.cfg);
        RunResult::from_sim(cfg, self.simulate())
    }
}

/// Completion callback for [`BatchRunner::observer`]: `(index, outcome)`
/// per finished cell, on the caller's thread.
type BatchObserver<'a> = Box<dyn FnMut(usize, &Result<RunResult, RunError>) + 'a>;

/// Builder for a batch of experiment runs fanned out over OS threads.
/// Results come back in input order. Configurations that share a trace
/// (same [`TraceKey`](sps_workload::TraceKey)) generate it once through a
/// batch-local [`TraceCache`](sps_workload::TraceCache); open-system
/// configurations build their generator per run instead. Each run stops
/// and warms up as its own configuration says.
pub struct BatchRunner<'a> {
    configs: Vec<ExperimentConfig>,
    threads: usize,
    observer: BatchObserver<'a>,
}

impl<'a> BatchRunner<'a> {
    /// Start a batch over `configs` with [`default_threads`] workers and
    /// no observer.
    pub fn new(configs: Vec<ExperimentConfig>) -> Self {
        BatchRunner {
            configs,
            threads: default_threads(),
            observer: Box::new(|_, _| {}),
        }
    }

    /// Override the worker-thread count (clamped to at least one).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Observe terminal outcomes as they complete. `observe(index,
    /// result)` runs on the caller's thread once per configuration in
    /// completion order — failed cells are observed exactly like
    /// successful ones, so progress accounting never stalls.
    pub fn observer(
        mut self,
        observe: impl FnMut(usize, &Result<RunResult, RunError>) + 'a,
    ) -> Self {
        self.observer = Box::new(observe);
        self
    }

    /// Run the batch, returning one `Result` per configuration in input
    /// order. Worker panics are caught per-configuration
    /// ([`RunError::Panicked`]) and validation failures surface as
    /// [`RunError::Invalid`]; a poisoned configuration never takes the
    /// rest of the batch down.
    pub fn run_checked(self) -> Vec<Result<RunResult, RunError>> {
        let BatchRunner {
            configs,
            threads,
            mut observer,
        } = self;
        let cache = sps_workload::TraceCache::new();
        run_batch(
            configs,
            threads,
            0,
            None,
            None,
            |_, cfg| {
                let mut builder = RunBuilder::new(Arc::clone(cfg));
                if cfg.arrivals.is_trace() {
                    let key = cfg.trace_key();
                    let source = cache.source(key, || cfg.trace());
                    builder = builder.source(Box::new(source));
                }
                Ok(builder.run())
            },
            move |i, r| observer(i, r),
        )
    }

    /// Run the batch and unwrap every result, **panicking on the first
    /// failure** (with its batch index and message) after all other
    /// configurations have completed. This is deliberately lossy — a
    /// convenience for callers that treat any failure as fatal. Use
    /// [`run_checked`](BatchRunner::run_checked) when individual
    /// failures must be inspected or survived.
    pub fn run(self) -> Vec<RunResult> {
        self.run_checked()
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                Ok(result) => result,
                Err(e) => panic!("experiment #{i} failed: {e}"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SchedulerKind;
    use sps_telemetry::Telemetry;
    use sps_trace::MemorySink;
    use sps_workload::traces::SDSC;
    use sps_workload::{ArrivalSpec, TraceSource};

    fn small_cfg() -> ExperimentConfig {
        ExperimentConfig::new(SDSC, SchedulerKind::Easy)
            .with_jobs(60)
            .with_seed(7)
    }

    #[test]
    fn builder_defaults_match_run() {
        let cfg = small_cfg();
        let old = cfg.run();
        let new = cfg.runner().run();
        assert_eq!(old.sim.outcomes, new.sim.outcomes);
        assert_eq!(old.sim.utilization, new.sim.utilization);
        assert_eq!(old.sim.makespan, new.sim.makespan);
    }

    #[test]
    fn builder_trace_sink_is_deterministic() {
        let cfg = small_cfg();
        let mut a_sink = MemorySink::new();
        let a = cfg.runner().trace_sink(&mut a_sink).run();
        let mut b_sink = MemorySink::new();
        let b = cfg.runner().trace_sink(&mut b_sink).run();
        assert_eq!(a_sink.records(), b_sink.records());
        assert_eq!(a.sim.outcomes, b.sim.outcomes);
        assert!(
            matches!(a_sink.records().first(), Some(TraceRecord::Header { .. })),
            "first record must be the header"
        );
    }

    #[test]
    fn builder_telemetry_observes_without_perturbing() {
        let cfg = small_cfg();
        let plain = cfg.runner().run();
        let mut tel = Telemetry::new();
        let observed = cfg.runner().telemetry(&mut tel).run();
        assert_eq!(plain.sim.outcomes, observed.sim.outcomes);
    }

    #[test]
    fn builder_explicit_source_overrides_trace() {
        let cfg = small_cfg();
        let trace = cfg.trace();
        let viasource = cfg.runner().source(Box::new(TraceSource::new(trace))).run();
        let direct = cfg.runner().run();
        assert_eq!(viasource.sim.outcomes, direct.sim.outcomes);
    }

    #[test]
    #[should_panic(expected = "needs a stopping condition")]
    fn unbounded_source_without_until_panics() {
        let cfg = small_cfg().with_arrivals(ArrivalSpec::Poisson { load: None });
        cfg.runner().simulate();
    }

    #[test]
    fn batch_runner_matches_sequential() {
        let mut a = small_cfg();
        a.scheduler = SchedulerKind::Fcfs;
        let b = small_cfg();
        let batch = BatchRunner::new(vec![a.clone(), b.clone()])
            .threads(2)
            .run();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].sim.outcomes, a.runner().run().sim.outcomes);
        assert_eq!(batch[1].sim.outcomes, b.runner().run().sim.outcomes);
    }

    #[test]
    fn batch_runner_observer_sees_every_cell() {
        let configs = vec![small_cfg(), small_cfg(), small_cfg()];
        let mut seen = Vec::new();
        let results = BatchRunner::new(configs)
            .threads(2)
            .observer(|i, r| seen.push((i, r.is_ok())))
            .run_checked();
        assert_eq!(results.len(), 3);
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().all(|&(_, ok)| ok));
    }
}
