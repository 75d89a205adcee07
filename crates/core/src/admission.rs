//! Admission control for open-system runs.
//!
//! A closed trace always drains, so every job is eventually served no
//! matter how long the queue grows. An *open* system at or above
//! saturation has no such guarantee: the backlog grows without bound and
//! every metric diverges. Following Lucarelli et al. ("Online
//! Non-preemptive Scheduling on Unrelated Machines with Rejections"), the
//! scheduler may instead **reject** an arriving job for a per-job penalty
//! proportional to its size, turning the objective into
//! `schedule quality + Σ penalties`.
//!
//! [`AdmissionModel`] carries the knobs; the decision itself is a
//! [`crate::policy::Policy`] hook ([`crate::policy::Policy::admit`]) whose
//! default is the **load-adaptive baseline**: admit while the estimated
//! backlog (queued + remaining dispatched work, in machine-seconds) stays
//! at or below `max_backlog`, reject beyond it. Schemes can override the
//! hook, which receives the model, to make smarter penalty/slowdown
//! trades. The hook runs only at arrival instants, before that instant's
//! decide; rejected jobs never reach the decide.
//!
//! Rejections are accounted in [`sps_metrics::RejectionSummary`] on the
//! run result; rejected jobs never enter the queue and produce no
//! [`sps_metrics::JobOutcome`].

use std::fmt;
use std::str::FromStr;

use sps_workload::Job;

use crate::sim::SimState;

/// Admission-control knobs for one run. `Default` is [`AdmissionModel::none`]
/// — every job is admitted and the ledger stays empty.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionModel {
    /// Backlog ceiling in machine-seconds (estimated outstanding work over
    /// machine size). `None` disables admission control entirely.
    pub max_backlog: Option<f64>,
    /// Penalty scale: a rejected job costs
    /// `penalty_factor × estimate × procs` (scaled processor-seconds).
    pub penalty_factor: f64,
}

impl Default for AdmissionModel {
    fn default() -> Self {
        AdmissionModel::none()
    }
}

impl AdmissionModel {
    /// Admit everything (closed-system behaviour; the hook is never
    /// consulted).
    pub fn none() -> Self {
        AdmissionModel {
            max_backlog: None,
            penalty_factor: 1.0,
        }
    }

    /// The load-adaptive baseline: reject once the estimated backlog
    /// exceeds `max_backlog_secs` machine-seconds, charging
    /// `penalty_factor × estimate × procs` per rejection.
    pub fn load_adaptive(max_backlog_secs: f64, penalty_factor: f64) -> Self {
        assert!(
            max_backlog_secs >= 0.0 && max_backlog_secs.is_finite(),
            "backlog ceiling must be finite and non-negative"
        );
        assert!(
            penalty_factor >= 0.0 && penalty_factor.is_finite(),
            "penalty factor must be finite and non-negative"
        );
        AdmissionModel {
            max_backlog: Some(max_backlog_secs),
            penalty_factor,
        }
    }

    /// Whether admission control is active for this run.
    pub fn enabled(&self) -> bool {
        self.max_backlog.is_some()
    }

    /// The penalty charged for rejecting `job`.
    pub fn penalty(&self, job: &Job) -> f64 {
        self.penalty_factor * job.estimate as f64 * job.procs as f64
    }

    /// The baseline decision: admit while the backlog is at or below the
    /// ceiling. This is what [`crate::policy::Policy::admit`] does unless a
    /// policy overrides it.
    pub fn baseline_admit(&self, state: &SimState) -> bool {
        match self.max_backlog {
            None => true,
            Some(ceiling) => state.backlog_secs() <= ceiling,
        }
    }
}

/// Grammar: `off` or `load:<secs>[,<factor>]`, where `<secs>` takes the
/// usual duration suffixes (`s`/`m`/`h`/`d`). `Display` round-trips.
impl fmt::Display for AdmissionModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max_backlog {
            None => write!(f, "off"),
            Some(b) => {
                write!(f, "load:{b}")?;
                if self.penalty_factor != 1.0 {
                    write!(f, ",{}", self.penalty_factor)?;
                }
                Ok(())
            }
        }
    }
}

impl FromStr for AdmissionModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if s == "off" || s == "none" {
            return Ok(AdmissionModel::none());
        }
        let Some(rest) = s.strip_prefix("load:") else {
            return Err(format!(
                "unknown admission model '{s}' (expected 'off' or 'load:<secs>[,<factor>]')"
            ));
        };
        let mut parts = rest.splitn(2, ',');
        let secs_str = parts.next().unwrap_or_default();
        let secs = match sps_workload::parse_secs(secs_str) {
            Ok(v) => v as f64,
            Err(_) => secs_str
                .parse::<f64>()
                .map_err(|_| format!("bad backlog ceiling '{secs_str}'"))?,
        };
        let factor = match parts.next() {
            None => 1.0,
            Some(p) => p
                .parse::<f64>()
                .map_err(|_| format!("bad penalty factor '{p}'"))?,
        };
        if !(secs >= 0.0 && secs.is_finite()) {
            return Err(format!("backlog ceiling out of range: {secs}"));
        }
        if !(factor >= 0.0 && factor.is_finite()) {
            return Err(format!("penalty factor out of range: {factor}"));
        }
        Ok(AdmissionModel::load_adaptive(secs, factor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_admit_everything() {
        let m = AdmissionModel::default();
        assert!(!m.enabled());
        assert_eq!(m, AdmissionModel::none());
    }

    #[test]
    fn penalty_scales_with_estimated_work() {
        let m = AdmissionModel::load_adaptive(3_600.0, 0.5);
        let j = Job::new(0, 0, 100, 200, 8);
        assert!((m.penalty(&j) - 0.5 * 200.0 * 8.0).abs() < 1e-9);
    }

    #[test]
    fn grammar_round_trips() {
        for s in ["off", "load:3600", "load:7200,0.25"] {
            let m: AdmissionModel = s.parse().unwrap();
            assert_eq!(m.to_string(), s, "round trip of '{s}'");
        }
        // Duration suffixes normalize to seconds.
        let m: AdmissionModel = "load:2h,2".parse().unwrap();
        assert_eq!(m.max_backlog, Some(7_200.0));
        assert_eq!(m.penalty_factor, 2.0);
        assert!("load:nope".parse::<AdmissionModel>().is_err());
        assert!("banana".parse::<AdmissionModel>().is_err());
    }
}
