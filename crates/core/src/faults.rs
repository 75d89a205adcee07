//! Deterministic fault injection.
//!
//! The paper's local-preemption model — a suspended job may only restart
//! on *exactly* its original processors — is maximally fragile to
//! processor failure: one dead node strands every job suspended on it.
//! This module supplies the failure process; the simulator in
//! [`crate::sim`] applies the fallout (killing running holders, stranding
//! suspended jobs) under a configurable [`RecoveryPolicy`].
//!
//! Failures are generated from the in-tree deterministic [`SimRng`]: each
//! processor alternates exponentially-distributed up intervals (mean
//! [`FaultModel::mtbf`]) and down intervals (mean [`FaultModel::mttr`]).
//! Optionally, each job independently crashes once mid-run with
//! probability [`FaultModel::job_crash`], at a uniformly drawn fraction of
//! its work. Every draw is a pure function of the fault seed and the
//! (deterministic) event order, so fault-injected runs replay exactly.

use sps_simcore::{Secs, SimRng, SimTime};

/// What happens to a suspended or draining job whose reserved processor
/// set includes a processor that went down.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Paper-faithful: the job stays suspended and re-enters on its
    /// original set once the processor is repaired. Maximally local,
    /// maximally fragile — the job is *stranded* for the whole repair.
    #[default]
    WaitForRepair,
    /// Kill the stranded job: all accumulated work is lost and the job
    /// re-enters the queue from scratch.
    Resubmit,
    /// Relax the paper's same-processors rule: the scheduler may restart
    /// the stranded job on any equally-sized free set (migration).
    /// Quantifies what the locality restriction costs under failures.
    Remap,
}

impl RecoveryPolicy {
    /// Stable spec string (CLI flag value, config JSON).
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::WaitForRepair => "wait",
            RecoveryPolicy::Resubmit => "resubmit",
            RecoveryPolicy::Remap => "remap",
        }
    }

    /// Parse a spec string produced by [`RecoveryPolicy::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "wait" | "wait-for-repair" => Some(RecoveryPolicy::WaitForRepair),
            "resubmit" => Some(RecoveryPolicy::Resubmit),
            "remap" => Some(RecoveryPolicy::Remap),
            _ => None,
        }
    }

    /// All policies, for sweeps and usage text.
    pub const ALL: [RecoveryPolicy; 3] = [
        RecoveryPolicy::WaitForRepair,
        RecoveryPolicy::Resubmit,
        RecoveryPolicy::Remap,
    ];
}

impl std::fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A recovery-policy spec string that [`RecoveryPolicy`]'s `from_str`
/// rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseRecoveryError {
    spec: String,
}

impl std::fmt::Display for ParseRecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown recovery policy {:?}: expected wait | resubmit | remap",
            self.spec
        )
    }
}

impl std::error::Error for ParseRecoveryError {}

impl std::str::FromStr for RecoveryPolicy {
    type Err = ParseRecoveryError;

    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        RecoveryPolicy::from_name(spec.trim())
            .ok_or_else(|| ParseRecoveryError { spec: spec.into() })
    }
}

/// Configuration of the failure process. [`FaultModel::none`] (the
/// default) injects nothing and leaves every simulation bit-identical to
/// a build without this module.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultModel {
    /// Mean time between failures per processor, seconds. `None` disables
    /// processor faults entirely.
    pub mtbf: Option<Secs>,
    /// Mean time to repair a failed processor, seconds.
    pub mttr: Secs,
    /// Recovery policy for stranded suspended/draining jobs.
    pub recovery: RecoveryPolicy,
    /// Probability that a job crashes once mid-run (work lost, job
    /// resubmitted). `0.0` disables job-crash faults.
    pub job_crash: f64,
    /// Seed of the fault stream, independent of the workload seed.
    pub seed: u64,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::none()
    }
}

/// Default mean time to repair: 30 minutes.
pub const DEFAULT_MTTR: Secs = 1_800;

impl FaultModel {
    /// No faults of any kind.
    pub fn none() -> Self {
        FaultModel {
            mtbf: None,
            mttr: DEFAULT_MTTR,
            recovery: RecoveryPolicy::WaitForRepair,
            job_crash: 0.0,
            seed: 0,
        }
    }

    /// Processor faults with the given per-processor MTBF/MTTR (seconds).
    pub fn proc_faults(mtbf: Secs, mttr: Secs, seed: u64) -> Self {
        assert!(mtbf > 0, "mtbf must be positive");
        assert!(mttr > 0, "mttr must be positive");
        FaultModel {
            mtbf: Some(mtbf),
            mttr,
            recovery: RecoveryPolicy::WaitForRepair,
            job_crash: 0.0,
            seed,
        }
    }

    /// Set the recovery policy (builder style).
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Set the per-job crash probability (builder style).
    pub fn with_job_crash(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.job_crash = p;
        self
    }

    /// Set the fault-process RNG seed (builder style).
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether this model injects anything at all. A disabled model must
    /// leave simulations bit-identical to pre-fault builds.
    pub fn enabled(&self) -> bool {
        self.mtbf.is_some_and(|m| m > 0) || self.job_crash > 0.0
    }
}

/// The live failure process: one RNG, per-processor downtime bookkeeping.
/// Owned by the simulator; draws happen in deterministic event order.
#[derive(Debug)]
pub struct FaultInjector {
    model: FaultModel,
    rng: SimRng,
    /// When each currently-down processor failed (downtime accounting).
    down_since: Vec<Option<SimTime>>,
    /// Accumulated processor downtime, proc-seconds.
    downtime: Secs,
}

impl FaultInjector {
    /// Build the injector for a `procs`-processor machine.
    pub fn new(model: FaultModel, procs: u32) -> Self {
        let rng = SimRng::seed_from_u64(model.seed);
        FaultInjector {
            model,
            rng,
            down_since: vec![None; procs as usize],
            downtime: 0,
        }
    }

    /// The configuration in force.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// The configured recovery policy.
    pub fn recovery(&self) -> RecoveryPolicy {
        self.model.recovery
    }

    /// Exponential draw with the given mean, clamped to at least one
    /// second (the simulation is second-granular).
    fn exp_draw(&mut self, mean: Secs) -> Secs {
        let u = self.rng.next_f64();
        let secs = -(mean as f64) * (1.0 - u).ln();
        (secs.round() as Secs).max(1)
    }

    /// Time until the next failure of a processor, or `None` when
    /// processor faults are disabled.
    pub fn next_failure_in(&mut self) -> Option<Secs> {
        let mtbf = self.model.mtbf.filter(|&m| m > 0)?;
        Some(self.exp_draw(mtbf))
    }

    /// Time until a just-failed processor is repaired.
    pub fn repair_in(&mut self) -> Secs {
        self.exp_draw(self.model.mttr.max(1))
    }

    /// Decide whether a job crashes, and if so after how many seconds of
    /// executed work (uniform over its run time). Drawn once per job, in
    /// id order, when the job's arrival group is pulled from the source —
    /// before it can be dispatched, so the decision is independent of
    /// scheduling.
    pub fn job_crash_after(&mut self, run: Secs) -> Option<Secs> {
        if self.model.job_crash <= 0.0 {
            return None;
        }
        let crashes = self.rng.chance(self.model.job_crash);
        let frac = self.rng.next_f64();
        if !crashes {
            return None;
        }
        // Uniform in [1, run]: the job gets at least one second in.
        Some(((frac * run as f64).round() as Secs).clamp(1, run.max(1)))
    }

    /// Record that processor `p` went down at `now`.
    pub fn mark_down(&mut self, p: u32, now: SimTime) {
        self.down_since[p as usize] = Some(now);
    }

    /// Record that processor `p` came back at `now`, accumulating its
    /// downtime.
    pub fn mark_up(&mut self, p: u32, now: SimTime) {
        if let Some(since) = self.down_since[p as usize].take() {
            self.downtime += now - since;
        }
    }

    /// Total accumulated processor downtime in proc-seconds, counting
    /// still-down processors up to `now`.
    pub fn downtime_at(&self, now: SimTime) -> Secs {
        let open: Secs = self
            .down_since
            .iter()
            .flatten()
            .map(|&since| now - since)
            .sum();
        self.downtime + open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_disabled() {
        assert!(!FaultModel::none().enabled());
        assert!(FaultModel::proc_faults(1_000, 100, 1).enabled());
        assert!(FaultModel::none().with_job_crash(0.1).enabled());
    }

    #[test]
    fn recovery_names_round_trip() {
        for p in RecoveryPolicy::ALL {
            assert_eq!(RecoveryPolicy::from_name(p.name()), Some(p));
            assert_eq!(p.name().parse::<RecoveryPolicy>().unwrap(), p);
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(RecoveryPolicy::from_name("nope"), None);
        for bad in ["", "requeue", "wait for repair"] {
            let err = bad.parse::<RecoveryPolicy>().unwrap_err();
            assert!(
                err.to_string().contains("unknown recovery policy"),
                "{bad:?}"
            );
        }
        assert_eq!(
            " remap ".parse::<RecoveryPolicy>().unwrap(),
            RecoveryPolicy::Remap
        );
    }

    #[test]
    fn draws_are_deterministic_and_positive() {
        let model = FaultModel::proc_faults(10_000, 600, 42);
        let mut a = FaultInjector::new(model, 8);
        let mut b = FaultInjector::new(model, 8);
        for _ in 0..1_000 {
            let fa = a.next_failure_in().unwrap();
            let fb = b.next_failure_in().unwrap();
            assert_eq!(fa, fb);
            assert!(fa >= 1);
            let ra = a.repair_in();
            assert_eq!(ra, b.repair_in());
            assert!(ra >= 1);
        }
    }

    #[test]
    fn exponential_draw_mean_is_close() {
        let model = FaultModel::proc_faults(50_000, 600, 7);
        let mut inj = FaultInjector::new(model, 1);
        let n = 20_000;
        let sum: i64 = (0..n).map(|_| inj.next_failure_in().unwrap()).sum();
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - 50_000.0).abs() < 1_500.0,
            "sample mean {mean} too far from 50000"
        );
    }

    #[test]
    fn downtime_accounting() {
        let mut inj = FaultInjector::new(FaultModel::proc_faults(1_000, 100, 1), 4);
        inj.mark_down(2, SimTime::new(100));
        inj.mark_down(3, SimTime::new(150));
        assert_eq!(inj.downtime_at(SimTime::new(200)), 100 + 50);
        inj.mark_up(2, SimTime::new(300));
        assert_eq!(inj.downtime_at(SimTime::new(300)), 200 + 150);
        inj.mark_up(3, SimTime::new(400));
        assert_eq!(inj.downtime_at(SimTime::new(500)), 200 + 250);
    }

    #[test]
    fn job_crash_disabled_draws_nothing() {
        let mut inj = FaultInjector::new(FaultModel::none(), 4);
        for _ in 0..100 {
            assert_eq!(inj.job_crash_after(1_000), None);
        }
    }

    #[test]
    fn job_crash_always_within_run() {
        let model = FaultModel::none().with_job_crash(1.0);
        let mut inj = FaultInjector::new(FaultModel { seed: 3, ..model }, 4);
        for _ in 0..500 {
            let at = inj.job_crash_after(777).expect("p=1 always crashes");
            assert!((1..=777).contains(&at));
        }
    }
}
