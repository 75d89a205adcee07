//! Pull-based workload sources: the open-system boundary.
//!
//! The closed-system experiments of the paper replay a finite trace.
//! Production schedulers never see that: jobs arrive forever, and the
//! interesting regime is the *steady state* under a given offered load.
//! [`JobSource`] is the seam that makes both worlds one API, and the only
//! way jobs enter the simulator:
//!
//! * [`TraceSource`] wraps a finite trace (the golden determinism suite
//!   pins closed runs through it),
//! * [`OpenSource`] generates unbounded arrivals from a seeded stochastic
//!   process — homogeneous Poisson, MMPP bursts, linear load ramps, or
//!   diurnally modulated intensity — reusing the calibrated
//!   [`ShapeSampler`] category machinery and [`EstimateModel`] streams.
//!
//! [`ArrivalSpec`] is the parse/print grammar (`poisson:0.9`,
//! `mmpp:4,2h`, `ramp:0.5,1.5,2d`, `diurnal:0.6`) used by the CLI, the
//! sweep harness, and config JSON.
//!
//! ### Contract
//!
//! A source yields jobs with **dense ids** `0, 1, 2, …` in emission order
//! and **nondecreasing submit times**; `run > 0` and `estimate >= run`.
//! Sources are `Send` (sweep workers move them across threads) and
//! deterministic: the same seed yields the same job stream regardless of
//! how the consumer interleaves pulls with simulation.

use std::sync::Arc;

use sps_simcore::{SimRng, SimTime};

use crate::estimate::{EstimateModel, EstimateSampler};
use crate::job::{Job, JobId};
use crate::swf::SwfError;
use crate::synthetic::ShapeSampler;
use crate::traces::SystemPreset;

/// A pull-based job stream. See the module docs for the contract.
pub trait JobSource: Send {
    /// The next job, or `None` when the source is exhausted (finite
    /// sources only — open generators never return `None`).
    fn next_job(&mut self) -> Option<Job>;

    /// Jobs left to emit, when known. Unbounded sources return `None` —
    /// but so do finite streams that only learn their length at EOF
    /// (see [`JobSource::finite`]).
    fn remaining(&self) -> Option<usize>;

    /// Whether the source is guaranteed to end. The default derives it
    /// from [`JobSource::remaining`]; finite streams of unknown length
    /// (e.g. a streaming SWF reader before EOF) override it to `true`,
    /// which is what lets a run-until-drained simulation accept them.
    fn finite(&self) -> bool {
        self.remaining().is_some()
    }

    /// The error that ended the source early, if one did: the jobs after
    /// it never arrive, so a run over the source covers a truncated
    /// input. Only a log reader can fail; the default never does.
    fn error(&self) -> Option<&SwfError> {
        None
    }

    /// Human-readable description for logs and reports.
    fn label(&self) -> String;
}

/// A finite trace as a [`JobSource`]. Cheap to clone when built over a
/// shared `Arc<[Job]>` (see `TraceCache::source`).
#[derive(Clone, Debug)]
pub struct TraceSource {
    jobs: Arc<[Job]>,
    next: usize,
}

impl TraceSource {
    /// Source over an owned trace.
    pub fn new(jobs: Vec<Job>) -> Self {
        TraceSource::shared(jobs.into())
    }

    /// Source over a shared trace (no copy).
    pub fn shared(jobs: Arc<[Job]>) -> Self {
        debug_assert!(
            jobs.windows(2).all(|w| w[0].submit <= w[1].submit),
            "trace must be sorted by submit time"
        );
        TraceSource { jobs, next: 0 }
    }
}

impl JobSource for TraceSource {
    fn next_job(&mut self) -> Option<Job> {
        let j = self.jobs.get(self.next)?.clone();
        self.next += 1;
        Some(j)
    }

    fn remaining(&self) -> Option<usize> {
        Some(self.jobs.len() - self.next)
    }

    fn label(&self) -> String {
        format!("trace[{} jobs]", self.jobs.len())
    }
}

/// A shaping adapter over any [`JobSource`]: the machine's width rule,
/// arrival compression to an offered-load factor and a seeded
/// estimate-model stream, job by job in O(1) memory. Every run over an
/// SWF log (`sps replay`, each run of `sps sweep --swf`) reads its own
/// streaming reader through one, so no per-run copy is materialized.
///
/// * **Width**: jobs wider than `max_width` are dropped and counted
///   ([`ShapedSource::wider`]); the rest keep their shape and are
///   numbered densely in stream order. `remaining` forwards the inner
///   count, an upper bound while wide jobs are still to come.
/// * **Load**: submit times divide by the factor (`load > 1` compresses
///   arrivals, raising the offered load relative to the log's native
///   rate). The map is monotone, so nondecreasing submits stay
///   nondecreasing and the [`JobSource`] contract holds.
/// * **Seed**: with `Some(model)`, estimates re-draw from an
///   [`EstimateSampler`] stream in emission order, so replications differ
///   in estimate noise exactly the way the synthetic sweeps differ. With
///   `None` the inner stream's estimates pass through untouched — SWF
///   logs carry the real user requests, and replaying them as-logged is a
///   mode of its own (seeds then change nothing; run one replication).
pub struct ShapedSource<S> {
    inner: S,
    load: f64,
    estimates: Option<EstimateSampler>,
    max_width: u32,
    next_id: u32,
    wider: usize,
}

impl<S: JobSource> ShapedSource<S> {
    /// Wrap `inner`, dropping jobs wider than `max_width`, compressing
    /// arrivals by `load`, and re-drawing estimates from `model` under
    /// `seed` (`None` keeps the logged estimates).
    pub fn new(
        inner: S,
        load: f64,
        model: Option<EstimateModel>,
        seed: u64,
        max_width: u32,
    ) -> Self {
        assert!(load > 0.0 && load.is_finite(), "load factor must be > 0");
        assert!(max_width > 0, "machine must have at least one processor");
        ShapedSource {
            inner,
            load,
            // Same convention as the closed trace path: estimates draw
            // from `seed + 1`.
            estimates: model.map(|m| EstimateSampler::new(m, seed.wrapping_add(1))),
            max_width,
            next_id: 0,
            wider: 0,
        }
    }

    /// Jobs dropped so far for being wider than the machine.
    pub fn wider(&self) -> usize {
        self.wider
    }

    /// The wrapped source, for its own counters (a log's warnings).
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: JobSource> JobSource for ShapedSource<S> {
    fn next_job(&mut self) -> Option<Job> {
        let mut j = self.inner.next_job()?;
        while j.procs > self.max_width {
            self.wider += 1;
            j = self.inner.next_job()?;
        }
        j.id = JobId(self.next_id);
        self.next_id += 1;
        j.submit = SimTime::new((j.submit.secs() as f64 / self.load).round() as i64);
        if let Some(est) = &mut self.estimates {
            est.apply_to(&mut j);
        }
        Some(j)
    }

    fn remaining(&self) -> Option<usize> {
        self.inner.remaining()
    }

    fn finite(&self) -> bool {
        self.inner.finite()
    }

    fn error(&self) -> Option<&SwfError> {
        self.inner.error()
    }

    fn label(&self) -> String {
        format!("{}@load{}", self.inner.label(), self.load)
    }
}

/// The arrival-rate process driving an [`OpenSource`], in offered-load
/// units (fraction of machine capacity submitted per unit time).
#[derive(Clone, Debug)]
enum RateState {
    /// Homogeneous Poisson at a fixed load.
    Constant { load: f64 },
    /// Markov-modulated Poisson: exponential dwell in a quiet and a burst
    /// state. Loads are chosen so the *time-averaged* load matches the
    /// requested one: `quiet = 2·load/(1+burst_factor)`.
    Mmpp {
        quiet: f64,
        burst: f64,
        mean_dwell: f64,
        bursting: bool,
        /// Clock time at which the current state ends.
        until: f64,
    },
    /// Linear ramp from `from` to `to` over `over` seconds, holding at
    /// `to` afterwards.
    Ramp { from: f64, to: f64, over: f64 },
    /// Sinusoidal day/night modulation around `load`, peaking at noon —
    /// the same intensity law as the closed generator's diurnal mode.
    Diurnal { load: f64, amplitude: f64 },
}

impl RateState {
    /// Offered load at clock time `t` (seconds).
    fn load_at(&self, t: f64) -> f64 {
        match *self {
            RateState::Constant { load } => load,
            RateState::Mmpp {
                quiet,
                burst,
                bursting,
                ..
            } => {
                if bursting {
                    burst
                } else {
                    quiet
                }
            }
            RateState::Ramp { from, to, over } => {
                if t >= over {
                    to
                } else {
                    from + (to - from) * (t / over)
                }
            }
            RateState::Diurnal { load, amplitude } => {
                use std::f64::consts::TAU;
                // Phase −6 h puts the intensity peak at noon.
                (load * (1.0 + amplitude * (TAU * (t - 6.0 * 3_600.0) / 86_400.0).sin())).max(1e-9)
            }
        }
    }
}

/// An unbounded, seeded arrival-process generator.
///
/// Jobs per second are calibrated from the preset's mean job work so the
/// *offered load* (work submitted per unit of machine capacity) tracks the
/// configured process: `λ(t) = load(t) · procs / E[work]`. Inter-arrival
/// times are exponential at the rate in effect when the draw is made
/// (exact for Poisson and MMPP, a fine-grained approximation for ramps
/// and diurnal modulation, whose rates drift over hours while arrivals
/// come every few minutes).
pub struct OpenSource {
    shapes: ShapeSampler,
    estimates: EstimateSampler,
    rng: SimRng,
    rate: RateState,
    procs: u32,
    mean_work: f64,
    /// Continuous arrival clock, seconds.
    clock: f64,
    next_id: u32,
    label: String,
}

impl OpenSource {
    fn new(
        system: SystemPreset,
        seed: u64,
        rate: RateState,
        estimates: EstimateModel,
        label: String,
    ) -> Self {
        let shapes = ShapeSampler::new(system);
        let mean_work = shapes.mean_work(seed);
        let mut src = OpenSource {
            shapes,
            // Mirrors `ExperimentConfig::trace`, which applies estimates
            // with `seed + 1`.
            estimates: EstimateSampler::new(estimates, seed.wrapping_add(1)),
            rng: SimRng::seed_from_u64(seed),
            rate,
            procs: system.procs,
            mean_work,
            clock: 0.0,
            next_id: 0,
            label,
        };
        // MMPP: draw the first quiet-state dwell.
        if let RateState::Mmpp {
            mean_dwell,
            ref mut until,
            ..
        } = src.rate
        {
            *until = exp_draw(&mut src.rng, mean_dwell);
        }
        src
    }

    /// Arrival rate (jobs/second) at clock time `t`.
    fn lambda(&self, t: f64) -> f64 {
        self.rate.load_at(t) * self.procs as f64 / self.mean_work
    }

    /// Advance the clock by one inter-arrival interval, switching MMPP
    /// states exactly when their dwell expires mid-interval.
    fn advance_clock(&mut self) {
        loop {
            let lambda = self.lambda(self.clock);
            let dt = exp_draw(&mut self.rng, 1.0 / lambda);
            if let RateState::Mmpp {
                mean_dwell,
                ref mut bursting,
                ref mut until,
                ..
            } = self.rate
            {
                if self.clock + dt > *until {
                    // The state flips before this arrival would land:
                    // discard it and restart the draw at the boundary
                    // (memorylessness makes this exact).
                    self.clock = *until;
                    *bursting = !*bursting;
                    *until = self.clock + exp_draw(&mut self.rng, mean_dwell);
                    continue;
                }
            }
            self.clock += dt;
            return;
        }
    }
}

/// Exponential draw with the given mean.
fn exp_draw(rng: &mut SimRng, mean: f64) -> f64 {
    -(1.0 - rng.next_f64()).ln() * mean
}

impl JobSource for OpenSource {
    fn next_job(&mut self) -> Option<Job> {
        self.advance_clock();
        let shape = self.shapes.sample(&mut self.rng);
        let mut job = Job {
            id: JobId(self.next_id),
            submit: SimTime::new(self.clock as i64),
            run: shape.run,
            estimate: shape.run,
            procs: shape.procs,
            mem_mb: shape.mem,
        };
        self.estimates.apply_to(&mut job);
        self.next_id += 1;
        Some(job)
    }

    fn remaining(&self) -> Option<usize> {
        None
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

/// Parse a duration with an optional `s`/`m`/`h`/`d` suffix into seconds
/// (`"90"`, `"45m"`, `"12h"`, `"30d"`).
pub fn parse_secs(s: &str) -> Result<i64, String> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last() {
        Some(b's') => (&s[..s.len() - 1], 1),
        Some(b'm') => (&s[..s.len() - 1], 60),
        Some(b'h') => (&s[..s.len() - 1], 3_600),
        Some(b'd') => (&s[..s.len() - 1], 86_400),
        _ => (s, 1),
    };
    let v: i64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("bad duration {s:?} (expect e.g. 90, 45m, 12h, 30d)"))?;
    if v <= 0 {
        return Err(format!("duration must be positive, got {s:?}"));
    }
    Ok(v * mult)
}

/// Which arrival process feeds the simulator — the spec-string form of a
/// [`JobSource`]. `trace` (the default) is the closed system; everything
/// else is open. Loads are absolute offered-load fractions; when omitted
/// the experiment's `base_load × load_factor` applies, so sweep load axes
/// keep working.
///
/// Grammar (round-trips through `Display`/`FromStr`):
///
/// ```text
/// trace
/// poisson[:<load>]
/// mmpp:[<load>,]<burst-factor>,<dwell>
/// ramp:<from>,<to>,<over>
/// diurnal:[<load>,]<amplitude>
/// ```
///
/// Durations accept `s`/`m`/`h`/`d` suffixes.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum ArrivalSpec {
    /// Closed system: the finite calibrated synthetic trace.
    #[default]
    Trace,
    /// Homogeneous Poisson arrivals.
    Poisson { load: Option<f64> },
    /// Markov-modulated Poisson: quiet/burst states with exponential
    /// dwell (`dwell` seconds mean), burst `burst`× the quiet load, time
    /// average equal to the configured load.
    Mmpp {
        load: Option<f64>,
        burst: f64,
        dwell: i64,
    },
    /// Linear offered-load ramp from `from` to `to` over `over` seconds.
    Ramp { from: f64, to: f64, over: i64 },
    /// Poisson with diurnal (day/night) intensity modulation.
    Diurnal { load: Option<f64>, amplitude: f64 },
}

impl ArrivalSpec {
    /// Whether this is the closed-system trace mode.
    pub fn is_trace(&self) -> bool {
        matches!(self, ArrivalSpec::Trace)
    }

    /// Validate parameters; `Err` explains the first problem.
    pub fn validate(&self) -> Result<(), String> {
        let check_load = |l: &Option<f64>| match l {
            Some(l) if !(*l > 0.0 && l.is_finite()) => Err(format!("load must be positive: {l}")),
            _ => Ok(()),
        };
        match self {
            ArrivalSpec::Trace => Ok(()),
            ArrivalSpec::Poisson { load } => check_load(load),
            ArrivalSpec::Mmpp { load, burst, dwell } => {
                check_load(load)?;
                if !(*burst >= 1.0 && burst.is_finite()) {
                    return Err(format!("mmpp burst factor must be >= 1, got {burst}"));
                }
                if *dwell <= 0 {
                    return Err(format!("mmpp dwell must be positive, got {dwell}"));
                }
                Ok(())
            }
            ArrivalSpec::Ramp { from, to, over } => {
                if !(*from > 0.0 && *to > 0.0 && from.is_finite() && to.is_finite()) {
                    return Err(format!("ramp loads must be positive: {from}..{to}"));
                }
                if *over <= 0 {
                    return Err(format!("ramp duration must be positive, got {over}"));
                }
                Ok(())
            }
            ArrivalSpec::Diurnal { load, amplitude } => {
                check_load(load)?;
                if !(0.0..1.0).contains(amplitude) {
                    return Err(format!(
                        "diurnal amplitude must be in [0, 1), got {amplitude}"
                    ));
                }
                Ok(())
            }
        }
    }

    /// Build the open-system generator, or `None` for [`ArrivalSpec::Trace`]
    /// (the closed path builds its trace elsewhere). `default_load` fills
    /// in omitted loads.
    pub fn build(
        &self,
        system: SystemPreset,
        seed: u64,
        default_load: f64,
        estimates: EstimateModel,
    ) -> Option<OpenSource> {
        self.validate().expect("invalid arrival spec");
        assert!(default_load > 0.0, "default load must be positive");
        let rate = match *self {
            ArrivalSpec::Trace => return None,
            ArrivalSpec::Poisson { load } => RateState::Constant {
                load: load.unwrap_or(default_load),
            },
            ArrivalSpec::Mmpp { load, burst, dwell } => {
                let avg = load.unwrap_or(default_load);
                let quiet = 2.0 * avg / (1.0 + burst);
                RateState::Mmpp {
                    quiet,
                    burst: quiet * burst,
                    mean_dwell: dwell as f64,
                    bursting: false,
                    until: 0.0,
                }
            }
            ArrivalSpec::Ramp { from, to, over } => RateState::Ramp {
                from,
                to,
                over: over as f64,
            },
            ArrivalSpec::Diurnal { load, amplitude } => RateState::Diurnal {
                load: load.unwrap_or(default_load),
                amplitude,
            },
        };
        Some(OpenSource::new(
            system,
            seed,
            rate,
            estimates,
            format!("{self}@{}", system.name),
        ))
    }
}

impl std::fmt::Display for ArrivalSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrivalSpec::Trace => write!(f, "trace"),
            ArrivalSpec::Poisson { load: None } => write!(f, "poisson"),
            ArrivalSpec::Poisson { load: Some(l) } => write!(f, "poisson:{l}"),
            ArrivalSpec::Mmpp { load, burst, dwell } => match load {
                None => write!(f, "mmpp:{burst},{dwell}"),
                Some(l) => write!(f, "mmpp:{l},{burst},{dwell}"),
            },
            ArrivalSpec::Ramp { from, to, over } => write!(f, "ramp:{from},{to},{over}"),
            ArrivalSpec::Diurnal { load, amplitude } => match load {
                None => write!(f, "diurnal:{amplitude}"),
                Some(l) => write!(f, "diurnal:{l},{amplitude}"),
            },
        }
    }
}

impl std::str::FromStr for ArrivalSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let s = s.trim();
        let (head, args) = match s.split_once(':') {
            Some((h, a)) => (h, a),
            None => (s, ""),
        };
        let parts: Vec<&str> = if args.is_empty() {
            Vec::new()
        } else {
            args.split(',').map(str::trim).collect()
        };
        let f64_at = |i: usize| -> Result<f64, String> {
            parts[i]
                .parse::<f64>()
                .map_err(|_| format!("bad number {:?} in arrival spec {s:?}", parts[i]))
        };
        let spec = match (head, parts.len()) {
            ("trace", 0) => ArrivalSpec::Trace,
            ("poisson", 0) => ArrivalSpec::Poisson { load: None },
            ("poisson", 1) => ArrivalSpec::Poisson {
                load: Some(f64_at(0)?),
            },
            ("mmpp", 2) => ArrivalSpec::Mmpp {
                load: None,
                burst: f64_at(0)?,
                dwell: parse_secs(parts[1])?,
            },
            ("mmpp", 3) => ArrivalSpec::Mmpp {
                load: Some(f64_at(0)?),
                burst: f64_at(1)?,
                dwell: parse_secs(parts[2])?,
            },
            ("ramp", 3) => ArrivalSpec::Ramp {
                from: f64_at(0)?,
                to: f64_at(1)?,
                over: parse_secs(parts[2])?,
            },
            ("diurnal", 1) => ArrivalSpec::Diurnal {
                load: None,
                amplitude: f64_at(0)?,
            },
            ("diurnal", 2) => ArrivalSpec::Diurnal {
                load: Some(f64_at(0)?),
                amplitude: f64_at(1)?,
            },
            _ => {
                return Err(format!(
                    "unknown arrival spec {s:?} (expect trace | poisson[:load] | \
                     mmpp:[load,]burst,dwell | ramp:from,to,over | diurnal:[load,]amplitude)"
                ))
            }
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::offered_load;
    use crate::synthetic::SyntheticConfig;
    use crate::traces::{CTC, SDSC};

    fn collect(src: &mut dyn JobSource, n: usize) -> Vec<Job> {
        (0..n).map(|_| src.next_job().expect("unbounded")).collect()
    }

    #[test]
    fn trace_source_replays_the_trace_in_order() {
        let jobs = SyntheticConfig::new(SDSC, 3).with_jobs(40).generate();
        let mut src = TraceSource::new(jobs.clone());
        assert_eq!(src.remaining(), Some(40));
        let got: Vec<Job> = std::iter::from_fn(|| src.next_job()).collect();
        assert_eq!(got, jobs);
        assert_eq!(src.remaining(), Some(0));
        assert!(src.next_job().is_none(), "stays exhausted");
    }

    #[test]
    fn shaped_source_compresses_and_keeps_estimates() {
        let jobs = SyntheticConfig::new(SDSC, 17).with_jobs(200).generate();
        let mut shaped =
            ShapedSource::new(TraceSource::new(jobs.clone()), 2.0, None, 0, SDSC.procs);
        let got: Vec<Job> = std::iter::from_fn(|| shaped.next_job()).collect();
        assert_eq!(got.len(), jobs.len());
        assert_eq!(shaped.wider(), 0);
        for (orig, j) in jobs.iter().zip(&got) {
            let want = (orig.submit.secs() as f64 / 2.0).round() as i64;
            assert_eq!(j.submit.secs(), want, "submit divides by the load");
            assert_eq!((j.id, j.run, j.procs), (orig.id, orig.run, orig.procs));
            assert_eq!(
                j.estimate, orig.estimate,
                "estimates pass through untouched with no model"
            );
        }
        // The monotone map preserves the nondecreasing-submits contract.
        assert!(got.windows(2).all(|w| w[0].submit <= w[1].submit));
        assert!(shaped.label().contains("@load2"));
        assert_eq!(shaped.remaining(), Some(0));
        assert!(shaped.error().is_none());
    }

    #[test]
    fn shaped_source_drops_wide_jobs_counts_and_renumbers() {
        let jobs = SyntheticConfig::new(SDSC, 17).with_jobs(200).generate();
        let mut shaped = ShapedSource::new(TraceSource::new(jobs.clone()), 1.0, None, 0, 64);
        let got: Vec<Job> = std::iter::from_fn(|| shaped.next_job()).collect();
        let kept: Vec<&Job> = jobs.iter().filter(|j| j.procs <= 64).collect();
        assert!(kept.len() < jobs.len(), "the trace has jobs wider than 64");
        assert_eq!(shaped.wider(), jobs.len() - kept.len());
        assert_eq!(got.len(), kept.len());
        for (i, (orig, j)) in kept.iter().zip(&got).enumerate() {
            assert_eq!(j.id.index(), i, "dense ids over the kept jobs");
            assert_eq!(
                (j.submit, j.procs, j.run),
                (orig.submit, orig.procs, orig.run)
            );
        }
    }

    #[test]
    fn shaped_source_estimates_match_batch_convention() {
        let model = EstimateModel::paper_mixture();
        let jobs = SyntheticConfig::new(SDSC, 23).with_jobs(150).generate();
        let mut shaped = ShapedSource::new(
            TraceSource::new(jobs.clone()),
            1.0,
            Some(model),
            40,
            SDSC.procs,
        );
        let streamed: Vec<Job> = std::iter::from_fn(|| shaped.next_job()).collect();
        // Same convention as the closed trace path: batch-apply under
        // seed + 1 reproduces the stream bit-for-bit.
        let mut batch = jobs.clone();
        model.apply(&mut batch, 41);
        assert_eq!(
            streamed.iter().map(|j| j.estimate).collect::<Vec<_>>(),
            batch.iter().map(|j| j.estimate).collect::<Vec<_>>(),
        );
        // A different seed draws different noise.
        let mut other = ShapedSource::new(TraceSource::new(jobs), 1.0, Some(model), 41, SDSC.procs);
        let re: Vec<Job> = std::iter::from_fn(|| other.next_job()).collect();
        assert_ne!(streamed, re);
    }

    #[test]
    fn open_sources_are_deterministic_and_well_formed() {
        for spec in [
            "poisson:0.7",
            "mmpp:0.7,4,2h",
            "ramp:0.4,1.2,1d",
            "diurnal:0.7,0.6",
        ] {
            let spec: ArrivalSpec = spec.parse().unwrap();
            let mut a = spec.build(SDSC, 42, 0.44, EstimateModel::Accurate).unwrap();
            let mut b = spec.build(SDSC, 42, 0.44, EstimateModel::Accurate).unwrap();
            let ja = collect(&mut a, 500);
            let jb = collect(&mut b, 500);
            assert_eq!(ja, jb, "{spec}: same seed, same stream");
            assert!(a.remaining().is_none());
            for (i, j) in ja.iter().enumerate() {
                assert_eq!(j.id.index(), i, "dense ids");
                assert!(j.run > 0 && j.procs > 0 && j.procs <= SDSC.procs);
                assert!(j.estimate >= j.run);
            }
            for w in ja.windows(2) {
                assert!(w[0].submit <= w[1].submit, "{spec}: sorted arrivals");
            }
            let mut c = spec.build(SDSC, 43, 0.44, EstimateModel::Accurate).unwrap();
            assert_ne!(ja, collect(&mut c, 500), "{spec}: seeds differ");
        }
    }

    #[test]
    fn poisson_hits_offered_load_target() {
        for load in [0.5, 0.9] {
            let spec = ArrivalSpec::Poisson { load: Some(load) };
            let mut src = spec.build(CTC, 7, 0.55, EstimateModel::Accurate).unwrap();
            let jobs = collect(&mut src, 8_000);
            let got = offered_load(&jobs, CTC.procs);
            assert!(
                (got - load).abs() / load < 0.08,
                "offered load {got} far from target {load}"
            );
        }
    }

    #[test]
    fn mmpp_is_burstier_than_poisson_but_load_neutral() {
        let n = 20_000;
        let mut poisson = ArrivalSpec::Poisson { load: Some(0.7) }
            .build(SDSC, 5, 0.44, EstimateModel::Accurate)
            .unwrap();
        let mut mmpp = ArrivalSpec::Mmpp {
            load: Some(0.7),
            burst: 6.0,
            dwell: 4 * 3_600,
        }
        .build(SDSC, 5, 0.44, EstimateModel::Accurate)
        .unwrap();
        let jp = collect(&mut poisson, n);
        let jm = collect(&mut mmpp, n);
        // Time-averaged load stays on target...
        let (lp, lm) = (offered_load(&jp, SDSC.procs), offered_load(&jm, SDSC.procs));
        assert!((lm - 0.7).abs() / 0.7 < 0.15, "mmpp load {lm} off 0.7");
        assert!((lp - 0.7).abs() / 0.7 < 0.08, "poisson load {lp} off 0.7");
        // ...but arrivals clump: the coefficient of variation of counts in
        // hourly bins must be clearly higher under MMPP.
        let cv = |jobs: &[Job]| {
            let end = jobs.last().unwrap().submit.secs();
            let bins = (end / 3_600 + 1) as usize;
            let mut counts = vec![0.0f64; bins];
            for j in jobs {
                counts[(j.submit.secs() / 3_600) as usize] += 1.0;
            }
            let mean = counts.iter().sum::<f64>() / bins as f64;
            let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / bins as f64;
            var.sqrt() / mean
        };
        let (cvp, cvm) = (cv(&jp), cv(&jm));
        assert!(cvm > 1.5 * cvp, "mmpp CV {cvm} not bursty vs poisson {cvp}");
    }

    #[test]
    fn ramp_rate_rises_over_the_ramp() {
        let mut src = ArrivalSpec::Ramp {
            from: 0.3,
            to: 1.2,
            over: 10 * 86_400,
        }
        .build(SDSC, 9, 0.44, EstimateModel::Accurate)
        .unwrap();
        let jobs = collect(&mut src, 6_000);
        let mid = 5 * 86_400;
        let early = jobs.iter().filter(|j| j.submit.secs() < mid).count();
        let late = jobs
            .iter()
            .filter(|j| (mid..10 * 86_400).contains(&j.submit.secs()))
            .count();
        assert!(
            late as f64 > 1.3 * early as f64,
            "ramp second half must be denser: {early} vs {late}"
        );
    }

    #[test]
    fn estimate_model_streams_match_batch_apply() {
        let model = EstimateModel::paper_mixture();
        let mut src = ArrivalSpec::Poisson { load: Some(0.6) }
            .build(SDSC, 11, 0.44, model)
            .unwrap();
        let jobs = collect(&mut src, 300);
        // Rebuild the same stream with accurate estimates, then batch-apply
        // the mixture with the source's convention (seed + 1): identical.
        let mut raw_src = ArrivalSpec::Poisson { load: Some(0.6) }
            .build(SDSC, 11, 0.44, EstimateModel::Accurate)
            .unwrap();
        let mut raw = collect(&mut raw_src, 300);
        model.apply(&mut raw, 12);
        assert_eq!(jobs, raw);
    }

    #[test]
    fn spec_grammar_round_trips() {
        for s in [
            "trace",
            "poisson",
            "poisson:0.9",
            "mmpp:4,7200",
            "mmpp:0.9,4,7200",
            "ramp:0.5,1.5,86400",
            "diurnal:0.6",
            "diurnal:0.9,0.6",
        ] {
            let spec: ArrivalSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(spec.to_string(), s, "display round-trip");
            let again: ArrivalSpec = spec.to_string().parse().unwrap();
            assert_eq!(spec, again);
        }
        // Duration suffixes normalize to seconds.
        assert_eq!(
            "mmpp:4,2h".parse::<ArrivalSpec>().unwrap(),
            ArrivalSpec::Mmpp {
                load: None,
                burst: 4.0,
                dwell: 7_200
            }
        );
        for bad in [
            "poison:0.9",
            "poisson:-1",
            "mmpp:0.5,3600",
            "ramp:1,2",
            "diurnal:1.5",
            "mmpp:0.9,4,0",
        ] {
            assert!(bad.parse::<ArrivalSpec>().is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn parse_secs_suffixes() {
        assert_eq!(parse_secs("90").unwrap(), 90);
        assert_eq!(parse_secs("90s").unwrap(), 90);
        assert_eq!(parse_secs("45m").unwrap(), 2_700);
        assert_eq!(parse_secs("12h").unwrap(), 43_200);
        assert_eq!(parse_secs("30d").unwrap(), 2_592_000);
        assert!(parse_secs("0").is_err());
        assert!(parse_secs("x5").is_err());
    }
}
