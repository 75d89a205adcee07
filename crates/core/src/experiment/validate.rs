//! Pre-run structural validation of an [`ExperimentConfig`]:
//! [`ConfigError`] and [`ExperimentConfig::validate`]. Catching a
//! degenerate value here costs nothing; catching it mid-simulation costs
//! a hung trace generator or a meaningless result.

use std::fmt;

use sps_simcore::Secs;

use super::ExperimentConfig;
use crate::sim::RunUntil;

/// The most jobs one run can hold: job ids are `u32`, one per job.
pub const MAX_JOBS: u64 = 1 << 32;

/// A structurally invalid [`ExperimentConfig`], caught by
/// [`ExperimentConfig::validate`] before any simulation work starts.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `load_factor` must be a finite number greater than zero.
    BadLoadFactor(f64),
    /// `tick_period` must be at least one second.
    ZeroTickPeriod,
    /// `n_jobs` must be at least one.
    NoJobs,
    /// `n_jobs` exceeds [`MAX_JOBS`], the 32-bit job-id space (the count
    /// attached). A smaller count that still exceeds the host's memory is
    /// a resource limit, not a configuration error, and is not caught
    /// here.
    TooManyJobs(usize),
    /// `until` waits for more completed jobs than [`MAX_JOBS`] job ids
    /// can name (the count attached).
    TooManyUntilJobs(usize),
    /// The fault model is inconsistent (reason attached).
    BadFaults(&'static str),
    /// A sweep grid axis is empty (which axis is attached).
    EmptyGrid(&'static str),
    /// The arrival spec is inconsistent (reason attached), or open
    /// arrivals have no stopping condition.
    BadArrivals(String),
    /// The warmup window is negative (its value attached).
    BadWarmup(Secs),
    /// The checkpoint model is unusable for the requested preemption mode
    /// (reason attached).
    BadCheckpoint(&'static str),
    /// The speed spec is unusable (its rendered form attached).
    BadSpeed(String),
    /// A mega-sweep's SWF log is unusable (path and reason attached).
    BadSwf(String),
    /// The machine has no processors.
    NoProcs,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::BadLoadFactor(v) => {
                write!(f, "load_factor must be finite and > 0, got {v}")
            }
            ConfigError::ZeroTickPeriod => f.write_str("tick_period must be at least 1 second"),
            ConfigError::NoJobs => f.write_str("n_jobs must be at least 1"),
            ConfigError::TooManyJobs(n) => {
                write!(
                    f,
                    "n_jobs must be at most {MAX_JOBS} (job ids are 32-bit), got {n}"
                )
            }
            ConfigError::TooManyUntilJobs(n) => {
                write!(
                    f,
                    "until must be at most {MAX_JOBS}j (job ids are 32-bit), got {n}j"
                )
            }
            ConfigError::BadFaults(reason) => write!(f, "bad fault model: {reason}"),
            ConfigError::EmptyGrid(axis) => write!(f, "sweep grid axis '{axis}' is empty"),
            ConfigError::BadArrivals(ref reason) => write!(f, "bad arrival spec: {reason}"),
            ConfigError::BadWarmup(secs) => {
                write!(f, "warmup must be at least 0 seconds, got {secs}")
            }
            ConfigError::BadCheckpoint(reason) => write!(f, "bad checkpoint model: {reason}"),
            ConfigError::BadSpeed(ref spec) => {
                write!(f, "bad speed spec {spec:?}: factors must be finite and > 0")
            }
            ConfigError::BadSwf(ref reason) => write!(f, "bad SWF log: {reason}"),
            ConfigError::NoProcs => f.write_str("the machine needs at least 1 processor"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ExperimentConfig {
    /// Check the configuration for values that would make the simulation
    /// meaningless (or hang the trace generator) before running it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.system.procs == 0 {
            return Err(ConfigError::NoProcs);
        }
        if !self.load_factor.is_finite() || self.load_factor <= 0.0 {
            return Err(ConfigError::BadLoadFactor(self.load_factor));
        }
        if self.tick_period < 1 {
            return Err(ConfigError::ZeroTickPeriod);
        }
        if self.n_jobs == 0 {
            return Err(ConfigError::NoJobs);
        }
        if self.n_jobs as u64 > MAX_JOBS {
            return Err(ConfigError::TooManyJobs(self.n_jobs));
        }
        if let RunUntil::Jobs(n) = self.until {
            if n as u64 > MAX_JOBS {
                return Err(ConfigError::TooManyUntilJobs(n));
            }
        }
        if let Some(mtbf) = self.faults.mtbf {
            if mtbf < 1 {
                return Err(ConfigError::BadFaults("mtbf must be at least 1 second"));
            }
            if self.faults.mttr < 1 {
                return Err(ConfigError::BadFaults("mttr must be at least 1 second"));
            }
        }
        if !(0.0..=1.0).contains(&self.faults.job_crash) {
            return Err(ConfigError::BadFaults(
                "job_crash must be a probability in [0, 1]",
            ));
        }
        self.arrivals.validate().map_err(ConfigError::BadArrivals)?;
        if !self.arrivals.is_trace() && self.until == RunUntil::Drained {
            return Err(ConfigError::BadArrivals(format!(
                "open arrivals `{}` never drain: set the stopping condition `until` \
                 to a duration like 30d or a job count like 5000j",
                self.arrivals
            )));
        }
        if self.warmup < 0 {
            return Err(ConfigError::BadWarmup(self.warmup));
        }
        if self.preemption.checkpoints() && !self.checkpoint.valid() {
            return Err(ConfigError::BadCheckpoint(
                "rate must be a positive finite MB/s and interval at least 1 second",
            ));
        }
        if !self.speed.valid() {
            return Err(ConfigError::BadSpeed(self.speed.to_string()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointModel, PreemptionMode};
    use crate::experiment::SchedulerKind;
    use sps_cluster::SpeedSpec;
    use sps_workload::traces::SDSC;
    use sps_workload::SystemPreset;

    fn small(scheduler: SchedulerKind) -> ExperimentConfig {
        ExperimentConfig::new(SDSC, scheduler)
            .with_jobs(300)
            .with_seed(7)
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let ok = small(SchedulerKind::Easy);
        assert_eq!(ok.validate(), Ok(()));
        assert!(matches!(
            ok.clone().with_load_factor(f64::NAN).validate(),
            Err(ConfigError::BadLoadFactor(_))
        ));
        assert!(matches!(
            ok.clone().with_load_factor(-0.5).validate(),
            Err(ConfigError::BadLoadFactor(_))
        ));
        assert!(matches!(
            ok.clone().with_load_factor(0.0).validate(),
            Err(ConfigError::BadLoadFactor(_))
        ));
        assert_eq!(
            ok.clone().with_tick_period(0).validate(),
            Err(ConfigError::ZeroTickPeriod)
        );
        assert_eq!(ok.clone().with_jobs(0).validate(), Err(ConfigError::NoJobs));
        assert_eq!(
            ok.clone().with_system(SystemPreset::swf(0)).validate(),
            Err(ConfigError::NoProcs)
        );
        let mut bad_faults = ok.clone();
        bad_faults.faults.job_crash = 1.5;
        assert!(matches!(
            bad_faults.validate(),
            Err(ConfigError::BadFaults(_))
        ));
        assert!(ok.clone().with_load_factor(f64::NAN).run_checked().is_err());
        assert_eq!(
            ok.clone().with_warmup(-1).validate(),
            Err(ConfigError::BadWarmup(-1))
        );
    }

    #[test]
    fn validate_rejects_bad_checkpoint_only_when_mode_needs_it() {
        let bad_model = CheckpointModel::paper().with_rate(-1.0);
        let inert = small(SchedulerKind::Easy).with_checkpoint(bad_model);
        assert_eq!(inert.validate(), Ok(()), "in-place mode ignores the model");
        let active = inert.with_preemption(PreemptionMode::Checkpoint);
        assert!(matches!(
            active.validate(),
            Err(ConfigError::BadCheckpoint(_))
        ));
    }

    #[test]
    fn validate_rejects_degenerate_speed_specs() {
        let ok = small(SchedulerKind::Easy);
        assert_eq!(
            ok.clone()
                .with_speed("tiers:0.5x64+1.0x64".parse().unwrap())
                .validate(),
            Ok(())
        );
        for bad in [
            SpeedSpec::Uniform(0.0),
            SpeedSpec::Uniform(f64::NAN),
            SpeedSpec::Tiers(vec![]),
            SpeedSpec::Tiers(vec![(1.0, 0)]),
            SpeedSpec::Tiers(vec![(-2.0, 8)]),
        ] {
            assert!(
                matches!(
                    ok.clone().with_speed(bad.clone()).validate(),
                    Err(ConfigError::BadSpeed(_))
                ),
                "{bad:?} must be rejected"
            );
        }
    }
}
