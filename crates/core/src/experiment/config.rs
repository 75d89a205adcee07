//! [`SchedulerKind`], [`ExperimentConfig`] (with its spec-string and JSON
//! round-trips), and [`RunResult`].

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use sps_cluster::{SpeedMap, SpeedSpec};
use sps_metrics::{CategoryReport, JobOutcome};
use sps_simcore::Secs;
use sps_trace::{DecodeError, Json};
use sps_workload::{
    ArrivalSpec, EstimateModel, Job, OpenSource, SyntheticConfig, SystemPreset, TraceCache,
    TraceKey,
};

use crate::admission::AdmissionModel;
use crate::checkpoint::{CheckpointModel, PreemptionMode};
use crate::faults::{FaultModel, RecoveryPolicy};
use crate::overhead::OverheadModel;
use crate::policy::Policy;
use crate::sched::{
    Conservative, Easy, Fcfs, FlexBackfill, GangScheduling, ImmediateService, SelectiveSuspension,
};
use crate::sim::{RunUntil, SimResult, DEFAULT_TICK_PERIOD};

/// Which scheduler to run.
///
/// Every kind has a canonical spec string — `"fcfs"`, `"cons"`, `"easy"`,
/// `"flex:4"`, `"is"`, `"gang"`, `"ss:2.0"`, `"tss:1.5"` — produced by
/// [`fmt::Display`] and accepted by [`FromStr`], so the CLI, trace-file
/// headers, and config JSON all share one round-trippable grammar.
#[derive(Clone, Copy, PartialEq, Debug)]
#[non_exhaustive]
pub enum SchedulerKind {
    /// First-come-first-served, no backfilling.
    Fcfs,
    /// Conservative backfilling.
    Conservative,
    /// Aggressive (EASY) backfilling — the paper's NS baseline.
    Easy,
    /// Backfilling with reservations for the first `depth` queued jobs
    /// (the EASY ↔ conservative spectrum).
    Flex {
        /// Number of protected queue positions.
        depth: usize,
    },
    /// Immediate Service (Chiang & Vernon).
    ImmediateService,
    /// Time-sliced gang scheduling (Ousterhout matrix, 10-minute
    /// quantum) — Section II's classical preemptive alternative.
    Gang,
    /// Selective Suspension with the given suspension factor.
    Ss {
        /// Suspension factor.
        sf: f64,
    },
    /// Tunable Selective Suspension (SS + per-category limits).
    Tss {
        /// Suspension factor.
        sf: f64,
    },
}

impl SchedulerKind {
    /// Instantiate the policy.
    pub fn build(&self) -> Box<dyn Policy> {
        match *self {
            SchedulerKind::Fcfs => Box::new(Fcfs),
            SchedulerKind::Conservative => Box::<Conservative>::default(),
            SchedulerKind::Easy => Box::<Easy>::default(),
            SchedulerKind::Flex { depth } => Box::new(FlexBackfill::new(depth)),
            SchedulerKind::ImmediateService => Box::new(ImmediateService::new()),
            SchedulerKind::Gang => Box::<GangScheduling>::default(),
            SchedulerKind::Ss { sf } => Box::new(SelectiveSuspension::ss(sf)),
            SchedulerKind::Tss { sf } => Box::new(SelectiveSuspension::tss(sf)),
        }
    }

    /// Short label for table columns.
    pub fn label(&self) -> String {
        match *self {
            SchedulerKind::Fcfs => "FCFS".into(),
            SchedulerKind::Conservative => "Cons".into(),
            SchedulerKind::Easy => "NS".into(),
            SchedulerKind::Flex { depth } => format!("Flex-{depth}"),
            SchedulerKind::ImmediateService => "IS".into(),
            SchedulerKind::Gang => "Gang".into(),
            SchedulerKind::Ss { sf } => format!("SS {sf}"),
            SchedulerKind::Tss { sf } => format!("SF={sf} Tuned"),
        }
    }
}

/// Render a suspension factor so that integral values keep a decimal
/// point (`2` → `"2.0"`) — the canonical spec strings stay visibly
/// floating-point and re-parse to the same value.
fn fmt_sf(sf: f64) -> String {
    if sf.fract() == 0.0 {
        format!("{sf:.1}")
    } else {
        format!("{sf}")
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SchedulerKind::Fcfs => f.write_str("fcfs"),
            SchedulerKind::Conservative => f.write_str("cons"),
            SchedulerKind::Easy => f.write_str("easy"),
            SchedulerKind::Flex { depth } => write!(f, "flex:{depth}"),
            SchedulerKind::ImmediateService => f.write_str("is"),
            SchedulerKind::Gang => f.write_str("gang"),
            SchedulerKind::Ss { sf } => write!(f, "ss:{}", fmt_sf(sf)),
            SchedulerKind::Tss { sf } => write!(f, "tss:{}", fmt_sf(sf)),
        }
    }
}

/// A scheduler spec string that [`SchedulerKind::from_str`] rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseSchedulerError {
    spec: String,
    reason: &'static str,
}

impl fmt::Display for ParseSchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad scheduler spec {:?}: {}", self.spec, self.reason)
    }
}

impl std::error::Error for ParseSchedulerError {}

impl FromStr for SchedulerKind {
    type Err = ParseSchedulerError;

    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        let err = |reason| ParseSchedulerError {
            spec: spec.into(),
            reason,
        };
        let lower = spec.trim().to_ascii_lowercase();
        match lower.as_str() {
            "fcfs" => return Ok(SchedulerKind::Fcfs),
            "cons" | "conservative" => return Ok(SchedulerKind::Conservative),
            "easy" | "ns" => return Ok(SchedulerKind::Easy),
            "is" => return Ok(SchedulerKind::ImmediateService),
            "gang" => return Ok(SchedulerKind::Gang),
            _ => {}
        }
        if let Some(depth) = lower.strip_prefix("flex:") {
            let depth: usize = depth.parse().map_err(|_| err("depth must be an integer"))?;
            if depth == 0 {
                return Err(err("flex depth must be at least 1"));
            }
            return Ok(SchedulerKind::Flex { depth });
        }
        let (tuned, sf_text) = if let Some(rest) = lower.strip_prefix("ss:") {
            (false, rest)
        } else if let Some(rest) = lower.strip_prefix("tss:") {
            (true, rest)
        } else {
            return Err(err(
                "expected fcfs | cons | easy | flex:<depth> | is | gang | ss:<sf> | tss:<sf>",
            ));
        };
        let sf: f64 = sf_text
            .parse()
            .map_err(|_| err("suspension factor must be a number"))?;
        if !sf.is_finite() || sf < 1.0 {
            return Err(err("suspension factor must be a finite number ≥ 1"));
        }
        Ok(if tuned {
            SchedulerKind::Tss { sf }
        } else {
            SchedulerKind::Ss { sf }
        })
    }
}

/// Everything needed to reproduce one simulation.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Machine and calibrated job mix.
    pub system: SystemPreset,
    /// Trace length in jobs.
    pub n_jobs: usize,
    /// Trace RNG seed (same seed + system + load → same trace across
    /// schedulers).
    pub seed: u64,
    /// Load factor relative to the preset's baseline (Section VI).
    pub load_factor: f64,
    /// User-estimate model (Section V).
    pub estimates: EstimateModel,
    /// Suspension/restart overhead model (Section V-A).
    pub overhead: OverheadModel,
    /// The scheduler under test.
    pub scheduler: SchedulerKind,
    /// Preemption-routine period, seconds (paper: one minute).
    pub tick_period: Secs,
    /// Failure injection (off by default; the simulation is bit-identical
    /// to a fault-free build when disabled).
    pub faults: FaultModel,
    /// Workload boundary: the closed synthetic trace
    /// ([`ArrivalSpec::Trace`], the default) or an unbounded open-system
    /// generator. Open specs never drain, so they need a stopping
    /// condition in [`until`](ExperimentConfig::until).
    pub arrivals: ArrivalSpec,
    /// When the run ends ([`RunUntil::Drained`] by default: every job
    /// completes). Open arrival specs need a simulated-time horizon or a
    /// completed-job count instead.
    pub until: RunUntil,
    /// Warmup window in simulated seconds (0 by default): the windowed
    /// steady-state report counts only jobs submitted at or after it.
    pub warmup: Secs,
    /// Admission control ([`AdmissionModel::none`] by default — every
    /// arrival is accepted and the rejection ledger stays empty).
    pub admission: AdmissionModel,
    /// Preemption continuum mode ([`PreemptionMode::InPlace`] by default,
    /// which reproduces the paper's suspend-in-place mechanics
    /// bit-for-bit).
    pub preemption: PreemptionMode,
    /// Checkpoint image cost model, consulted only when [`preemption`]
    /// checkpoints.
    ///
    /// [`preemption`]: ExperimentConfig::preemption
    pub checkpoint: CheckpointModel,
    /// Per-processor speed configuration. The default uniform 1.0 is the
    /// paper's identical-processor machine, bit-for-bit; a non-trivial
    /// spec makes each job progress at the speed of its slowest assigned
    /// processor (gang-synchronous unrelated-machines model).
    pub speed: SpeedSpec,
    /// Whether placement is speed-aware (fastest-first allocation,
    /// default). With `false` the schedulers place as if the machine were
    /// homogeneous while progress still accrues at real speeds — the
    /// speed-blind ablation. Irrelevant under a uniform [`speed`].
    ///
    /// [`speed`]: ExperimentConfig::speed
    pub speed_aware: bool,
}

impl ExperimentConfig {
    /// Baseline configuration: preset defaults, accurate estimates, no
    /// overhead, load factor 1.
    pub fn new(system: SystemPreset, scheduler: SchedulerKind) -> Self {
        ExperimentConfig {
            system,
            n_jobs: system.default_jobs,
            seed: 42,
            load_factor: 1.0,
            estimates: EstimateModel::Accurate,
            overhead: OverheadModel::None,
            scheduler,
            tick_period: DEFAULT_TICK_PERIOD,
            faults: FaultModel::none(),
            arrivals: ArrivalSpec::Trace,
            until: RunUntil::Drained,
            warmup: 0,
            admission: AdmissionModel::none(),
            preemption: PreemptionMode::InPlace,
            checkpoint: CheckpointModel::default(),
            speed: SpeedSpec::uniform_one(),
            speed_aware: true,
        }
    }

    /// Builder-style mutators.
    pub fn with_jobs(mut self, n: usize) -> Self {
        self.n_jobs = n;
        self
    }

    /// Set the trace seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the load factor.
    pub fn with_load_factor(mut self, f: f64) -> Self {
        self.load_factor = f;
        self
    }

    /// Set the estimate model.
    pub fn with_estimates(mut self, e: EstimateModel) -> Self {
        self.estimates = e;
        self
    }

    /// Set the overhead model.
    pub fn with_overhead(mut self, o: OverheadModel) -> Self {
        self.overhead = o;
        self
    }

    /// Set the scheduler under test.
    pub fn with_scheduler(mut self, s: SchedulerKind) -> Self {
        self.scheduler = s;
        self
    }

    /// Set the preemption-routine period in seconds.
    pub fn with_tick_period(mut self, secs: Secs) -> Self {
        self.tick_period = secs;
        self
    }

    /// Set the failure-injection model.
    pub fn with_faults(mut self, faults: FaultModel) -> Self {
        self.faults = faults;
        self
    }

    /// Switch to a different machine/mix preset. The trace length stays
    /// as configured — call [`ExperimentConfig::with_jobs`] afterwards if
    /// the new preset's default is wanted.
    pub fn with_system(mut self, system: SystemPreset) -> Self {
        self.system = system;
        self
    }

    /// Set the workload boundary (closed trace or open generator).
    pub fn with_arrivals(mut self, arrivals: ArrivalSpec) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Set the stopping condition.
    pub fn with_until(mut self, until: RunUntil) -> Self {
        self.until = until;
        self
    }

    /// Set the warmup window in simulated seconds.
    pub fn with_warmup(mut self, warmup: Secs) -> Self {
        self.warmup = warmup;
        self
    }

    /// Set the admission-control model.
    pub fn with_admission(mut self, admission: AdmissionModel) -> Self {
        self.admission = admission;
        self
    }

    /// Set the preemption mode (the checkpoint cost model stays as
    /// configured; see [`ExperimentConfig::with_checkpoint`]).
    pub fn with_preemption(mut self, mode: PreemptionMode) -> Self {
        self.preemption = mode;
        self
    }

    /// Set the checkpoint image cost model.
    pub fn with_checkpoint(mut self, model: CheckpointModel) -> Self {
        self.checkpoint = model;
        self
    }

    /// Set the per-processor speed configuration.
    pub fn with_speed(mut self, speed: SpeedSpec) -> Self {
        self.speed = speed;
        self
    }

    /// Toggle speed-aware placement (default `true`; `false` is the
    /// speed-blind ablation).
    pub fn with_speed_aware(mut self, aware: bool) -> Self {
        self.speed_aware = aware;
        self
    }

    /// Whether this configuration departs from the homogeneous default
    /// (non-uniform speeds, or the placement-blind ablation switch).
    pub fn is_heterogeneous(&self) -> bool {
        !self.speed.is_uniform_one() || !self.speed_aware
    }

    /// The machine's [`SpeedMap`] under this configuration.
    pub fn speed_map(&self) -> SpeedMap {
        SpeedMap::from_spec(&self.speed, self.system.procs).with_aware(self.speed_aware)
    }

    /// The offered load an open-system generator targets when the arrival
    /// spec doesn't pin one: the preset's calibrated baseline scaled by
    /// [`ExperimentConfig::load_factor`] — the same product the closed
    /// trace generator aims at.
    pub fn target_load(&self) -> f64 {
        self.system.base_load * self.load_factor
    }

    /// The open-system generator for this configuration, or `None` in
    /// closed trace mode.
    pub fn open_source(&self) -> Option<OpenSource> {
        self.arrivals
            .build(self.system, self.seed, self.target_load(), self.estimates)
    }

    /// Generate this experiment's trace (scheduler-independent).
    pub fn trace(&self) -> Vec<Job> {
        let mut jobs = SyntheticConfig::new(self.system, self.seed)
            .with_jobs(self.n_jobs)
            .with_load_factor(self.load_factor)
            .generate();
        self.estimates.apply(&mut jobs, self.seed.wrapping_add(1));
        jobs
    }

    /// The cache key of this experiment's trace: everything
    /// [`ExperimentConfig::trace`] reads, and nothing the scheduler or
    /// machine side (policy, overhead, faults, speeds) varies.
    pub fn trace_key(&self) -> TraceKey {
        TraceKey::new(
            self.system,
            self.n_jobs,
            self.seed,
            self.load_factor,
            &self.estimates,
        )
    }

    /// This experiment's trace through a [`TraceCache`]: generated on the
    /// first request for its [`TraceKey`], shared by pointer afterwards.
    /// An SF × scheduler grid over one workload generates it exactly once.
    pub fn trace_shared(&self, cache: &TraceCache) -> Arc<[Job]> {
        cache.get_or_generate(self.trace_key(), || self.trace())
    }

    /// Start a [`RunBuilder`](crate::runner::RunBuilder) for this
    /// configuration — the only code that assembles a run from a
    /// configuration. Attach sinks or an explicit
    /// [`JobSource`](sps_workload::JobSource), then call
    /// [`run()`](crate::runner::RunBuilder::run) or
    /// [`simulate()`](crate::runner::RunBuilder::simulate).
    pub fn runner(&self) -> crate::runner::RunBuilder {
        crate::runner::RunBuilder::new(Arc::new(self.clone()))
    }

    /// Run the simulation and aggregate reports: `self.runner().run()`.
    ///
    /// The simulator runs under a generous watchdog: a policy bug that
    /// livelocks the event loop surfaces as [`RunStatus::Aborted`] with
    /// partial metrics instead of hanging the process. The run stops at
    /// [`until`](ExperimentConfig::until); open arrivals that never drain
    /// panic without one, which [`run_checked`](ExperimentConfig::run_checked)
    /// reports as an error instead.
    ///
    /// [`RunStatus::Aborted`]: crate::sim::RunStatus::Aborted
    pub fn run(&self) -> RunResult {
        self.runner().run()
    }

    /// [`ExperimentConfig::run`] preceded by [`ExperimentConfig::validate`].
    pub fn run_checked(&self) -> Result<RunResult, crate::experiment::ConfigError> {
        self.validate()?;
        Ok(self.run())
    }

    /// Encode as JSON (embedded in trace-file headers). The `faults` key
    /// only appears when failure injection is enabled, so fault-free logs
    /// are byte-identical to those of builds predating the fault model.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("system".into(), Json::Str(self.system.name.into())),
            ("n_jobs".into(), Json::Int(self.n_jobs as i64)),
            ("seed".into(), Json::Int(self.seed as i64)),
            ("load_factor".into(), Json::Num(self.load_factor)),
            ("estimates".into(), estimates_to_json(&self.estimates)),
            ("overhead".into(), overhead_to_json(&self.overhead)),
            ("scheduler".into(), Json::Str(self.scheduler.to_string())),
            ("tick_period".into(), Json::Int(self.tick_period)),
        ];
        if self.faults.enabled() {
            fields.push(("faults".into(), faults_to_json(&self.faults)));
        }
        // Open-system fields follow the `faults` convention: omitted at
        // their defaults, so closed-system logs stay byte-identical to
        // those of builds predating the open-system mode.
        if !self.arrivals.is_trace() {
            fields.push(("arrivals".into(), Json::Str(self.arrivals.to_string())));
        }
        if self.until != RunUntil::Drained {
            fields.push(("until".into(), Json::Str(self.until.to_string())));
        }
        if self.warmup != 0 {
            fields.push(("warmup".into(), Json::Int(self.warmup)));
        }
        if self.admission.enabled() {
            fields.push(("admission".into(), Json::Str(self.admission.to_string())));
        }
        // Preemption-continuum fields follow the same convention: omitted
        // under the default in-place mode, so continuum-off logs stay
        // byte-identical to those of builds predating the modes.
        if self.preemption != PreemptionMode::InPlace {
            fields.push((
                "preemption".into(),
                Json::Str(self.preemption.name().into()),
            ));
            fields.push(("checkpoint".into(), checkpoint_to_json(&self.checkpoint)));
        }
        // Heterogeneous-machine fields, same convention: omitted under
        // the default uniform speed-aware setup, so homogeneous logs stay
        // byte-identical to those of builds predating the speed model.
        if !self.speed.is_uniform_one() {
            fields.push(("speed".into(), Json::Str(self.speed.to_string())));
        }
        if !self.speed_aware {
            fields.push(("speed_aware".into(), Json::Bool(false)));
        }
        Json::Obj(fields)
    }

    /// Decode a configuration previously encoded with
    /// [`ExperimentConfig::to_json`].
    pub fn from_json(json: &Json) -> Result<Self, DecodeError> {
        let name = json
            .get("system")
            .and_then(Json::as_str)
            .ok_or(DecodeError::Missing("system"))?;
        let system = SystemPreset::by_name(name).ok_or(DecodeError::Bad("system"))?;
        let scheduler: SchedulerKind = json
            .get("scheduler")
            .and_then(Json::as_str)
            .ok_or(DecodeError::Missing("scheduler"))?
            .parse()
            .map_err(|_| DecodeError::Bad("scheduler"))?;
        let n_jobs = json
            .get("n_jobs")
            .and_then(Json::as_i64)
            .ok_or(DecodeError::Missing("n_jobs"))?;
        let seed = json
            .get("seed")
            .and_then(Json::as_i64)
            .ok_or(DecodeError::Missing("seed"))?;
        let load_factor = json
            .get("load_factor")
            .and_then(Json::as_f64)
            .ok_or(DecodeError::Missing("load_factor"))?;
        let tick_period = json
            .get("tick_period")
            .and_then(Json::as_i64)
            .ok_or(DecodeError::Missing("tick_period"))?;
        if n_jobs < 1 || tick_period < 1 || !load_factor.is_finite() || load_factor <= 0.0 {
            return Err(DecodeError::Bad("config"));
        }
        Ok(ExperimentConfig {
            system,
            n_jobs: n_jobs as usize,
            seed: seed as u64,
            load_factor,
            estimates: estimates_from_json(
                json.get("estimates")
                    .ok_or(DecodeError::Missing("estimates"))?,
            )?,
            overhead: overhead_from_json(
                json.get("overhead")
                    .ok_or(DecodeError::Missing("overhead"))?,
            )?,
            scheduler,
            tick_period,
            faults: match json.get("faults") {
                Some(f) => faults_from_json(f)?,
                None => FaultModel::none(),
            },
            arrivals: match json.get("arrivals") {
                Some(a) => a
                    .as_str()
                    .ok_or(DecodeError::Bad("arrivals"))?
                    .parse()
                    .map_err(|_| DecodeError::Bad("arrivals"))?,
                None => ArrivalSpec::Trace,
            },
            until: match json.get("until") {
                Some(u) => u
                    .as_str()
                    .ok_or(DecodeError::Bad("until"))?
                    .parse()
                    .map_err(|_| DecodeError::Bad("until"))?,
                None => RunUntil::Drained,
            },
            warmup: match json.get("warmup") {
                Some(w) => w
                    .as_i64()
                    .filter(|&w| w >= 0)
                    .ok_or(DecodeError::Bad("warmup"))?,
                None => 0,
            },
            admission: match json.get("admission") {
                Some(a) => a
                    .as_str()
                    .ok_or(DecodeError::Bad("admission"))?
                    .parse()
                    .map_err(|_| DecodeError::Bad("admission"))?,
                None => AdmissionModel::none(),
            },
            preemption: match json.get("preemption") {
                Some(p) => p
                    .as_str()
                    .and_then(PreemptionMode::from_name)
                    .ok_or(DecodeError::Bad("preemption"))?,
                None => PreemptionMode::InPlace,
            },
            checkpoint: match json.get("checkpoint") {
                Some(c) => checkpoint_from_json(c)?,
                None => CheckpointModel::default(),
            },
            speed: match json.get("speed") {
                Some(s) => s
                    .as_str()
                    .ok_or(DecodeError::Bad("speed"))?
                    .parse()
                    .map_err(|_| DecodeError::Bad("speed"))?,
                None => SpeedSpec::uniform_one(),
            },
            speed_aware: match json.get("speed_aware") {
                Some(b) => b.as_bool().ok_or(DecodeError::Bad("speed_aware"))?,
                None => true,
            },
        })
    }
}

fn checkpoint_to_json(m: &CheckpointModel) -> Json {
    Json::Obj(vec![
        ("mb_per_sec".into(), Json::Num(m.mb_per_sec)),
        ("interval".into(), Json::Int(m.interval)),
        ("contention".into(), Json::Bool(m.contention)),
    ])
}

pub(super) fn checkpoint_from_json(json: &Json) -> Result<CheckpointModel, DecodeError> {
    let mb_per_sec = json
        .get("mb_per_sec")
        .and_then(Json::as_f64)
        .ok_or(DecodeError::Missing("mb_per_sec"))?;
    let interval = json
        .get("interval")
        .and_then(Json::as_i64)
        .ok_or(DecodeError::Missing("interval"))?;
    let contention = match json.get("contention") {
        Some(c) => c.as_bool().ok_or(DecodeError::Bad("contention"))?,
        None => false,
    };
    let model = CheckpointModel {
        mb_per_sec,
        interval,
        contention,
    };
    if !model.valid() {
        return Err(DecodeError::Bad("checkpoint"));
    }
    Ok(model)
}

fn faults_to_json(m: &FaultModel) -> Json {
    let mut fields = Vec::new();
    if let Some(mtbf) = m.mtbf {
        fields.push(("mtbf".into(), Json::Int(mtbf)));
        fields.push(("mttr".into(), Json::Int(m.mttr)));
    }
    if m.job_crash > 0.0 {
        fields.push(("job_crash".into(), Json::Num(m.job_crash)));
    }
    fields.push(("recovery".into(), Json::Str(m.recovery.name().into())));
    fields.push(("fault_seed".into(), Json::Int(m.seed as i64)));
    Json::Obj(fields)
}

pub(super) fn faults_from_json(json: &Json) -> Result<FaultModel, DecodeError> {
    let mut model = FaultModel::none();
    if let Some(mtbf) = json.get("mtbf") {
        let mtbf = mtbf.as_i64().ok_or(DecodeError::Bad("mtbf"))?;
        let mttr = json
            .get("mttr")
            .and_then(Json::as_i64)
            .ok_or(DecodeError::Missing("mttr"))?;
        if mtbf < 1 || mttr < 1 {
            return Err(DecodeError::Bad("faults"));
        }
        model.mtbf = Some(mtbf);
        model.mttr = mttr;
    }
    if let Some(p) = json.get("job_crash") {
        let p = p.as_f64().ok_or(DecodeError::Bad("job_crash"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(DecodeError::Bad("job_crash"));
        }
        model.job_crash = p;
    }
    if let Some(r) = json.get("recovery") {
        let name = r.as_str().ok_or(DecodeError::Bad("recovery"))?;
        model.recovery = RecoveryPolicy::from_name(name).ok_or(DecodeError::Bad("recovery"))?;
    }
    if let Some(seed) = json.get("fault_seed") {
        model.seed = seed.as_i64().ok_or(DecodeError::Bad("fault_seed"))? as u64;
    }
    Ok(model)
}

fn estimates_to_json(e: &EstimateModel) -> Json {
    match *e {
        EstimateModel::Accurate => Json::Obj(vec![("model".into(), Json::Str("accurate".into()))]),
        EstimateModel::Mixture {
            well_fraction,
            max_factor,
        } => Json::Obj(vec![
            ("model".into(), Json::Str("mixture".into())),
            ("well_fraction".into(), Json::Num(well_fraction)),
            ("max_factor".into(), Json::Num(max_factor)),
        ]),
        EstimateModel::RoundedMixture {
            well_fraction,
            max_factor,
        } => Json::Obj(vec![
            ("model".into(), Json::Str("rounded_mixture".into())),
            ("well_fraction".into(), Json::Num(well_fraction)),
            ("max_factor".into(), Json::Num(max_factor)),
        ]),
    }
}

fn estimates_from_json(json: &Json) -> Result<EstimateModel, DecodeError> {
    let model = json
        .get("model")
        .and_then(Json::as_str)
        .ok_or(DecodeError::Missing("model"))?;
    let fractions = || -> Result<(f64, f64), DecodeError> {
        let well = json
            .get("well_fraction")
            .and_then(Json::as_f64)
            .ok_or(DecodeError::Missing("well_fraction"))?;
        let max = json
            .get("max_factor")
            .and_then(Json::as_f64)
            .ok_or(DecodeError::Missing("max_factor"))?;
        if !(0.0..=1.0).contains(&well) || !max.is_finite() || max <= 1.0 {
            return Err(DecodeError::Bad("estimates"));
        }
        Ok((well, max))
    };
    match model {
        "accurate" => Ok(EstimateModel::Accurate),
        "mixture" => {
            let (well_fraction, max_factor) = fractions()?;
            Ok(EstimateModel::Mixture {
                well_fraction,
                max_factor,
            })
        }
        "rounded_mixture" => {
            let (well_fraction, max_factor) = fractions()?;
            Ok(EstimateModel::RoundedMixture {
                well_fraction,
                max_factor,
            })
        }
        _ => Err(DecodeError::Bad("model")),
    }
}

fn overhead_to_json(o: &OverheadModel) -> Json {
    match *o {
        OverheadModel::None => Json::Obj(vec![("model".into(), Json::Str("none".into()))]),
        OverheadModel::MemoryDrain { mb_per_sec } => Json::Obj(vec![
            ("model".into(), Json::Str("memory_drain".into())),
            ("mb_per_sec".into(), Json::Num(mb_per_sec)),
        ]),
    }
}

fn overhead_from_json(json: &Json) -> Result<OverheadModel, DecodeError> {
    let model = json
        .get("model")
        .and_then(Json::as_str)
        .ok_or(DecodeError::Missing("model"))?;
    match model {
        "none" => Ok(OverheadModel::None),
        "memory_drain" => {
            let mb_per_sec = json
                .get("mb_per_sec")
                .and_then(Json::as_f64)
                .ok_or(DecodeError::Missing("mb_per_sec"))?;
            if !mb_per_sec.is_finite() || mb_per_sec <= 0.0 {
                return Err(DecodeError::Bad("mb_per_sec"));
            }
            Ok(OverheadModel::MemoryDrain { mb_per_sec })
        }
        _ => Err(DecodeError::Bad("model")),
    }
}

/// A finished experiment with its aggregations.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The configuration that produced it. Shared rather than owned: a
    /// sweep cell's five seed replicas point at five `Arc`s, not five
    /// deep clones, and `Deref` keeps `result.config.scheduler`-style
    /// field access working unchanged.
    pub config: Arc<ExperimentConfig>,
    /// Raw simulation result.
    pub sim: SimResult,
    /// Per-category report over all jobs.
    pub report: CategoryReport,
    /// Report restricted to well-estimated jobs (estimate ≤ 2× run).
    pub report_well: CategoryReport,
    /// Report restricted to badly estimated jobs.
    pub report_badly: CategoryReport,
}

impl RunResult {
    pub(crate) fn from_sim(config: Arc<ExperimentConfig>, sim: SimResult) -> Self {
        let report = CategoryReport::from_outcomes(&sim.outcomes);
        let report_well = CategoryReport::from_filtered(&sim.outcomes, JobOutcome::well_estimated);
        let report_badly = CategoryReport::from_filtered(&sim.outcomes, |o| !o.well_estimated());
        RunResult {
            config,
            sim,
            report,
            report_well,
            report_badly,
        }
    }

    /// Productive utilization, percent.
    pub fn utilization_pct(&self) -> f64 {
        self.sim.utilization * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_workload::traces::SDSC;

    fn small(scheduler: SchedulerKind) -> ExperimentConfig {
        ExperimentConfig::new(SDSC, scheduler)
            .with_jobs(300)
            .with_seed(7)
    }

    #[test]
    fn trace_is_scheduler_independent() {
        let a = small(SchedulerKind::Easy).trace();
        let b = small(SchedulerKind::Ss { sf: 2.0 }).trace();
        assert_eq!(a, b);
    }

    #[test]
    fn run_produces_full_reports() {
        let r = small(SchedulerKind::Easy).run();
        assert_eq!(r.report.overall.count, 300);
        assert_eq!(
            r.report_well.overall.count + r.report_badly.overall.count,
            300,
            "estimate split partitions the trace"
        );
        assert!(r.sim.utilization > 0.0 && r.sim.utilization <= 1.0);
        assert_eq!(r.sim.preemptions, 0, "NS never suspends");
    }

    #[test]
    fn estimate_split_matches_model() {
        let cfg = small(SchedulerKind::Easy).with_estimates(EstimateModel::Mixture {
            well_fraction: 0.5,
            max_factor: 30.0,
        });
        let r = cfg.run();
        assert!(r.report_well.overall.count > 60);
        assert!(r.report_badly.overall.count > 60);
    }

    #[test]
    fn preemption_json_round_trips_and_is_omitted_when_in_place() {
        let plain = small(SchedulerKind::Ss { sf: 2.0 });
        let rendered = plain.to_json().render();
        assert!(
            !rendered.contains("preemption") && !rendered.contains("checkpoint"),
            "in-place mode must not appear in config JSON: {rendered}"
        );
        for mode in [PreemptionMode::Checkpoint, PreemptionMode::Migrate] {
            let cfg = plain.clone().with_preemption(mode).with_checkpoint(
                CheckpointModel::paper()
                    .with_interval(900)
                    .with_contention(true),
            );
            let text = cfg.to_json().render();
            let back = ExperimentConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.preemption, cfg.preemption);
            assert_eq!(back.checkpoint, cfg.checkpoint);
        }
        for corrupt in [
            r#"{"mb_per_sec": 0.0, "interval": 600}"#,
            r#"{"interval": 600}"#,
            r#"{"mb_per_sec": 2.0, "interval": 0}"#,
        ] {
            let json = Json::parse(corrupt).unwrap();
            assert!(
                checkpoint_from_json(&json).is_err(),
                "{corrupt} must not parse"
            );
        }
    }

    #[test]
    fn speed_json_round_trips_and_is_omitted_when_uniform() {
        let plain = small(SchedulerKind::Ss { sf: 2.0 });
        let rendered = plain.to_json().render();
        assert!(
            !rendered.contains("speed"),
            "uniform speed must not appear in config JSON: {rendered}"
        );
        let cfg = plain
            .clone()
            .with_speed("tiers:0.5x64+1.0x64".parse().unwrap())
            .with_speed_aware(false);
        let text = cfg.to_json().render();
        assert!(text.contains("tiers:0.5x64"), "{text}");
        let back = ExperimentConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.speed, cfg.speed);
        assert!(!back.speed_aware);
        // The blind flag alone also survives (speed stays omitted).
        let blind = plain.clone().with_speed_aware(false);
        let back =
            ExperimentConfig::from_json(&Json::parse(&blind.to_json().render()).unwrap()).unwrap();
        assert!(back.speed.is_uniform_one() && !back.speed_aware);
        assert!(Json::parse(r#"{"speed": "tiers:"}"#)
            .map(|j| ExperimentConfig::from_json(&j).is_err())
            .unwrap_or(true));
    }

    #[test]
    fn speed_configs_share_one_trace_key_and_trace() {
        // Trace generation never reads the speed spec, so homogeneous,
        // tiered and speed-blind runs of one workload share its trace.
        let base = small(SchedulerKind::Easy);
        let tiers = base
            .clone()
            .with_speed("tiers:0.5x64+1.0x64".parse().unwrap());
        let blind = tiers.clone().with_speed_aware(false);
        assert_eq!(base.trace_key(), tiers.trace_key());
        assert_eq!(base.trace_key(), blind.trace_key());
        let cache = TraceCache::new();
        let shared = base.trace_shared(&cache);
        for cfg in [&tiers, &blind] {
            assert!(Arc::ptr_eq(&shared, &cfg.trace_shared(&cache)));
        }
        assert_eq!((cache.misses(), cache.hits()), (1, 2));
    }

    #[test]
    fn faults_json_round_trips_and_is_omitted_when_disabled() {
        let plain = small(SchedulerKind::Easy);
        assert!(
            plain.to_json().get("faults").is_none(),
            "disabled fault model must not appear in config JSON"
        );
        let cfg = plain.with_faults(
            FaultModel::proc_faults(200_000, 3_600, 9)
                .with_recovery(RecoveryPolicy::Remap)
                .with_job_crash(0.01),
        );
        let text = cfg.to_json().render();
        let back = ExperimentConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.faults, cfg.faults);
        for corrupt in [
            r#"{"mtbf": 0, "mttr": 60}"#,
            r#"{"mtbf": 100}"#,
            r#"{"job_crash": 2.0}"#,
            r#"{"recovery": "lottery"}"#,
        ] {
            let json = Json::parse(corrupt).unwrap();
            assert!(faults_from_json(&json).is_err(), "{corrupt} must not parse");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(SchedulerKind::Ss { sf: 2.0 }.label(), "SS 2");
        assert_eq!(SchedulerKind::Tss { sf: 1.5 }.label(), "SF=1.5 Tuned");
        assert_eq!(SchedulerKind::Easy.label(), "NS");
    }

    #[test]
    fn spec_strings_are_canonical() {
        assert_eq!(SchedulerKind::Ss { sf: 2.0 }.to_string(), "ss:2.0");
        assert_eq!(SchedulerKind::Tss { sf: 1.5 }.to_string(), "tss:1.5");
        assert_eq!(SchedulerKind::Flex { depth: 4 }.to_string(), "flex:4");
        assert_eq!(
            "easy".parse::<SchedulerKind>().unwrap(),
            SchedulerKind::Easy
        );
        assert_eq!("ns".parse::<SchedulerKind>().unwrap(), SchedulerKind::Easy);
        assert_eq!(
            "conservative".parse::<SchedulerKind>().unwrap(),
            SchedulerKind::Conservative
        );
        assert_eq!(
            " TSS:2.5 ".parse::<SchedulerKind>().unwrap(),
            SchedulerKind::Tss { sf: 2.5 }
        );
        for bad in ["", "ss:", "ss:0.5", "ss:nan", "flex:0", "flex:x", "lottery"] {
            assert!(
                bad.parse::<SchedulerKind>().is_err(),
                "{bad:?} must not parse"
            );
        }
    }

    #[test]
    fn spec_strings_round_trip() {
        // Property: parse(k.to_string()) == k over randomly drawn kinds.
        let mut rng = sps_simcore::SimRng::seed_from_u64(0x5EED);
        for _ in 0..2_000 {
            let sf = 1.0 + (rng.below(64_000) as f64) / 1_000.0;
            let kind = match rng.index(8) {
                0 => SchedulerKind::Fcfs,
                1 => SchedulerKind::Conservative,
                2 => SchedulerKind::Easy,
                3 => SchedulerKind::Flex {
                    depth: 1 + rng.index(200),
                },
                4 => SchedulerKind::ImmediateService,
                5 => SchedulerKind::Gang,
                6 => SchedulerKind::Ss { sf },
                _ => SchedulerKind::Tss { sf },
            };
            let spec = kind.to_string();
            assert_eq!(
                spec.parse::<SchedulerKind>().unwrap(),
                kind,
                "spec {spec:?}"
            );
        }
    }

    #[test]
    fn config_json_round_trips() {
        let cfg = ExperimentConfig::new(SDSC, SchedulerKind::Tss { sf: 2.0 })
            .with_jobs(1_234)
            .with_seed(99)
            .with_load_factor(1.3)
            .with_estimates(EstimateModel::Mixture {
                well_fraction: 0.4,
                max_factor: 30.0,
            })
            .with_overhead(OverheadModel::paper())
            .with_tick_period(30);
        let json = cfg.to_json();
        let text = json.render();
        let back = ExperimentConfig::from_json(&sps_trace::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.system.name, cfg.system.name);
        assert_eq!(back.n_jobs, cfg.n_jobs);
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.load_factor, cfg.load_factor);
        assert_eq!(back.estimates, cfg.estimates);
        assert_eq!(back.overhead, cfg.overhead);
        assert_eq!(back.scheduler, cfg.scheduler);
        assert_eq!(back.tick_period, cfg.tick_period);
        // Same trace from the round-tripped config.
        assert_eq!(back.trace(), cfg.trace());
    }

    #[test]
    fn builders_cover_every_field() {
        use sps_workload::traces::CTC;
        let cfg = ExperimentConfig::new(SDSC, SchedulerKind::Easy)
            .with_system(CTC)
            .with_scheduler(SchedulerKind::Ss { sf: 3.0 })
            .with_tick_period(120);
        assert_eq!(cfg.system.name, "CTC");
        assert_eq!(cfg.scheduler, SchedulerKind::Ss { sf: 3.0 });
        assert_eq!(cfg.tick_period, 120);
    }

    #[test]
    fn traced_builder_header_embeds_config() {
        use sps_trace::{MemorySink, TraceRecord};
        let cfg = small(SchedulerKind::Ss { sf: 2.0 }).with_jobs(120);
        let mut sink = MemorySink::new();
        let result = cfg.runner().trace_sink(&mut sink).run();
        assert_eq!(result.report.overall.count, 120);
        let records = sink.records();
        let TraceRecord::Header {
            version,
            scheduler,
            config,
        } = &records[0]
        else {
            panic!("first record must be the header");
        };
        assert_eq!(*version, sps_trace::TRACE_VERSION);
        assert_eq!(scheduler, "ss:2.0");
        let back = ExperimentConfig::from_json(config).unwrap();
        assert_eq!(back.scheduler, cfg.scheduler);
        assert_eq!(back.seed, cfg.seed);
        // The log replays cleanly under the validator.
        let stats = sps_trace::validate_records(records, sps_trace::ReplayOptions::default())
            .expect("trace must validate");
        assert_eq!(stats.completions, 120);
    }
}
