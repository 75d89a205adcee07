//! Immediate Service (IS) — the preemptive baseline of Chiang & Vernon.
//!
//! Section II-C: "each arriving job is given an immediate timeslice of 10
//! minutes, by suspending one or more running jobs if needed. The
//! selection of jobs for suspension is based on their instantaneous-
//! xfactor … Jobs with the lowest instantaneous-xfactor are suspended."
//!
//! Port to the paper's local-preemption cluster model (the original was
//! formulated for shared-memory machines):
//!
//! * a job is *protected* — not preemptible — for the first 10 minutes
//!   after its initial dispatch (so jobs shorter than the timeslice always
//!   run to completion once started, which is what gives IS its excellent
//!   very-short-job behaviour), and again for 10 minutes after every
//!   resume, so the scheme never re-suspends a job it just restored,
//! * waiting jobs are served first, arrivals of the instant ahead of
//!   older waiters, each by preemption if the free pool is too small;
//!   then suspended jobs re-enter (highest instantaneous xfactor first)
//!   subject to the same-processors constraint.
//!
//! Between events an IS decide depends on time only through which running
//! jobs are still protected — instantaneous xfactors only order victims
//! and re-entries, which matters only once something acts — so a decide
//! that acts on nothing reports the first protection expiry that could
//! change that as its no-op horizon ([`DecideCtx::noop_until`]), and the
//! simulator lets the ticks before it lapse.

use std::collections::HashMap;

use sps_cluster::ProcSet;
use sps_metrics::JobOutcome;
use sps_simcore::{Secs, SimTime};
use sps_telemetry::Obs;
use sps_trace::Reason;
use sps_workload::JobId;

use crate::policy::{Action, DecideCtx, Policy};
use crate::sched::planner::{self, VictimTable};
use crate::sim::SimState;

/// The 10-minute arrival timeslice from the paper.
pub const DEFAULT_TIMESLICE: Secs = 600;

/// Per-decide scratch buffers, reused across calls (see
/// [`planner::DecideArena`] for the rationale).
#[derive(Clone, Debug)]
struct IsScratch {
    /// The running-job victim mirror, rebuilt lazily per decide.
    table: VictimTable,
    /// (priority, index) victim candidates for the current waiter.
    victims: Vec<(f64, usize)>,
    /// Chosen victim indices.
    chosen: Vec<usize>,
    /// Jobs started earlier this decide (excluded from victim scans).
    started: Vec<JobId>,
    /// Service order for never-started jobs this decide.
    waiting: Vec<JobId>,
    /// (priority, id) re-entry order for suspended jobs.
    suspended: Vec<(f64, JobId)>,
    /// The planning free pool (free ∪ draining).
    free: ProcSet,
    /// (expiry, width) of the running jobs still protected, for the
    /// no-op horizon.
    expiries: Vec<(SimTime, u32)>,
}

impl Default for IsScratch {
    fn default() -> Self {
        IsScratch {
            table: VictimTable::default(),
            victims: Vec::new(),
            chosen: Vec::new(),
            started: Vec::new(),
            waiting: Vec::new(),
            suspended: Vec::new(),
            free: ProcSet::empty(0),
            expiries: Vec::new(),
        }
    }
}

/// Immediate Service dispatcher.
#[derive(Clone, Debug, Default)]
pub struct ImmediateService {
    protected_until: HashMap<JobId, SimTime>,
    scratch: IsScratch,
}

impl ImmediateService {
    /// IS with the paper's 10-minute timeslice.
    pub fn new() -> Self {
        Self::default()
    }

    fn is_protected(&self, id: JobId, now: SimTime) -> bool {
        self.protected_until.get(&id).is_some_and(|&t| now < t)
    }

    /// The horizon of a decide that acted on nothing, with `free` the
    /// working free pool's size: the first instant a later decide could
    /// act if no event arrives first.
    ///
    /// Such a decide found every queued job wider than `free` plus the
    /// unprotected running jobs, and no suspended job's set inside the
    /// free pool. Until an event, the pool, the running, queued and
    /// suspended sets and the protection grants all stay put; only
    /// protections expire (`is_protected` is `now < t`, so a job is
    /// preemptible *at* its expiry). So the horizon is the first expiry
    /// by which the pool plus every job unprotected by then covers the
    /// narrowest queued job — never, with nothing queued or if even the
    /// whole running set falls short.
    fn horizon(&self, state: &SimState, free: u32, expiries: &mut Vec<(SimTime, u32)>) -> f64 {
        let Some(need) = state.queued().iter().map(|&id| state.width(id)).min() else {
            return f64::INFINITY;
        };
        let now = state.now();
        let mut avail = free;
        expiries.clear();
        for &id in state.running() {
            match self.protected_until.get(&id) {
                Some(&t) if now < t => expiries.push((t, state.width(id))),
                _ => avail += state.width(id),
            }
        }
        debug_assert!(avail < need, "a no-op decide left a queued job servable");
        expiries.sort_unstable();
        for &(t, width) in expiries.iter() {
            avail += width;
            if avail >= need {
                return t.secs() as f64;
            }
        }
        f64::INFINITY
    }
}

impl Policy for ImmediateService {
    fn name(&self) -> String {
        "IS".into()
    }

    fn needs_tick(&self) -> bool {
        true
    }

    // With no queued or suspended job there is no candidate to place, and
    // `protected_until` is only mutated on starts/resumes.
    fn quiescent_noop(&self) -> bool {
        true
    }

    fn decide(&mut self, state: &SimState, ctx: &DecideCtx<'_>, actions: &mut Vec<Action>) {
        // The least horizon worth reporting, when the simulator asks for
        // one (see `DecideCtx::noop_until`). The reference scan reports
        // none.
        let floor = ctx.noop_until.get().filter(|_| !ctx.reference);
        // Fast certification of the common no-op decide: with nothing
        // waiting, the decide can only retry re-entries, and a suspended
        // job resumes only when its exact processors are free — `procs`
        // within the working pool is a necessary condition. When no
        // suspended job passes it, nothing below can act (trace records
        // and protection grants are tied to actions), so skip the scan;
        // only an event can free a suspended job's processors, so no
        // decide before one can act either.
        if !ctx.reference && ctx.arrivals.is_empty() && state.queued().is_empty() {
            let wf = state.free_count() + state.draining_set().count();
            if !state.suspended().iter().any(|&id| state.width(id) <= wf) {
                if floor.is_some() {
                    ctx.noop_until.set(Some(f64::INFINITY));
                }
                return;
            }
        }
        let now = state.now();
        // Per-decide scratch, reused across calls so the decide path
        // stays off the allocator.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.started.clear();
        // The planning mirror: the working free pool plus a table of
        // running jobs (suspension priority = instantaneous xfactor,
        // Section II-C), updated as actions are chosen so that several
        // decisions in one instant stay consistent.
        let free = &mut scratch.free;
        planner::working_free_set_into(state, free);
        // Built lazily: the mirror is only consulted when a waiting job
        // does not fit the free pool, and most decides (ticks retrying
        // re-entry, arrivals that fit) never get there — skipping the
        // per-decide xfactor sweep over every running job.
        let mut table_built = false;

        // 1. Immediate (and retried) service for waiting jobs: arrivals of
        // this instant first, then earlier arrivals oldest first — the
        // oldest waiter has the highest instantaneous xfactor, so this is
        // IS's own priority order for jobs that have never run.
        scratch.waiting.clear();
        scratch.waiting.extend_from_slice(ctx.arrivals);
        scratch.waiting.extend(
            state
                .queued()
                .iter()
                .filter(|id| !ctx.arrivals.contains(id)),
        );
        for wi in 0..scratch.waiting.len() {
            let a = scratch.waiting[wi];
            let need = state.width(a);
            if need <= free.count() {
                let set = free.take_lowest(need).expect("count checked");
                free.subtract(&set);
                actions.push(Action::Start(a));
                scratch.started.push(a);
                self.protected_until.insert(a, now + DEFAULT_TIMESLICE);
                continue;
            }
            // Pick unprotected victims, lowest instantaneous xfactor first
            // (long-running jobs that never waited sit at the bottom).
            if !table_built {
                table_built = true;
                scratch
                    .table
                    .fill_running(state, |id| state.inst_xfactor(id));
                if ctx.metrics.enabled() {
                    ctx.metrics.emit(&Obs::VictimScan {
                        scanned: scratch.table.entries().len() as u32,
                    });
                }
            }
            scratch.victims.clear();
            scratch.victims.extend(
                scratch
                    .table
                    .entries()
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| {
                        !self.is_protected(v.id, now) && !scratch.started.contains(&v.id)
                    })
                    .map(|(i, v)| (v.prio, i)),
            );
            scratch.victims.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut gain = free.count();
            scratch.chosen.clear();
            for &(_, idx) in &scratch.victims {
                if gain >= need {
                    break;
                }
                gain += scratch.table.entries()[idx].procs;
                scratch.chosen.push(idx);
            }
            if gain < need {
                continue; // not servable this instant; retried next tick
            }
            let (table, chosen) = (&mut scratch.table, &mut scratch.chosen);
            table.remove_all(chosen, |v| {
                free.union_with(state.assigned_set(v.id).expect("running job has a set"));
                if ctx.trace.enabled() {
                    // IS selects on *instantaneous* xfactors (Section
                    // II-C); those are what the record carries.
                    ctx.trace.decision(
                        now.secs(),
                        Reason::PreemptedVictim {
                            victim: v.id.0,
                            suspender: a.0,
                            victim_xf: v.prio,
                            suspender_xf: state.inst_xfactor(a),
                        },
                    );
                }
                actions.push(Action::Suspend(v.id));
            });
            debug_assert!(free.count() >= need);
            let set = free.take_lowest(need).expect("gain accounted");
            free.subtract(&set);
            actions.push(Action::Start(a));
            scratch.started.push(a);
            self.protected_until.insert(a, now + DEFAULT_TIMESLICE);
        }

        // 2. Re-enter suspended jobs, highest instantaneous xfactor first.
        // Re-entry is *not* preemptive: a suspended job waits until its
        // exact processors fall free, which is what makes wide and long
        // jobs suffer so badly under IS (Section IV-D). A fresh quantum of
        // protection on resume keeps the scheme from re-suspending a job
        // it just restored.
        scratch.suspended.clear();
        scratch.suspended.extend(
            state
                .suspended()
                .iter()
                .map(|&id| (state.inst_xfactor(id), id)),
        );
        scratch.suspended.sort_by(|a, b| b.0.total_cmp(&a.0));
        for &(_, id) in &scratch.suspended {
            let set = state.assigned_set(id).expect("suspended job keeps its set");
            if set.is_subset(free) {
                free.subtract(set);
                actions.push(Action::Resume(id));
                if ctx.trace.enabled() {
                    ctx.trace.decision(
                        now.secs(),
                        Reason::ReentryOnOriginalProcs {
                            job: id.0,
                            victims: 0,
                        },
                    );
                }
                self.protected_until.insert(id, now + DEFAULT_TIMESLICE);
            }
        }
        if let Some(floor) = floor.filter(|_| actions.is_empty()) {
            let h = self.horizon(state, free.count(), &mut scratch.expiries);
            if h > floor {
                ctx.noop_until.set(Some(h));
            }
        }
        self.scratch = scratch;
    }

    fn on_completion(&mut self, outcome: &JobOutcome) {
        self.protected_until.remove(&outcome.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use sps_workload::Job;

    fn run(jobs: Vec<Job>, procs: u32) -> crate::sim::SimResult {
        Simulator::new(jobs, procs, Box::new(ImmediateService::new())).run()
    }

    /// Run `jobs` with and without tick elision, require the same
    /// outcomes, and return the elided run.
    fn run_both_ways(jobs: Vec<Job>, procs: u32) -> crate::sim::SimResult {
        let run = |elide| {
            Simulator::new(jobs.clone(), procs, Box::new(ImmediateService::new()))
                .with_tick_elision(elide)
                .run()
        };
        let (with, without) = (run(true), run(false));
        assert_eq!(with.outcomes, without.outcomes);
        assert_eq!(with.preemptions, without.preemptions);
        with
    }

    #[test]
    fn arrival_preempts_low_xfactor_job() {
        // j0 has run 2000 s with no wait (inst-xfactor → 1); j1 arrives and
        // gets immediate service by suspending j0.
        let jobs = vec![
            Job::new(0, 0, 10_000, 10_000, 8),
            Job::new(1, 2_000, 300, 300, 8),
        ];
        let res = run(jobs, 8);
        let j1 = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert_eq!(j1.first_start.secs(), 2_000, "immediate service on arrival");
        assert_eq!(j1.wait(), 0);
        let j0 = res.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        assert_eq!(j0.suspensions, 1);
        assert_eq!(res.preemptions, 1);
    }

    #[test]
    fn protection_shields_young_jobs_until_quantum_expires() {
        // j0 starts at t=100 (protected until 700); j1 arrives at t=200
        // and cannot preempt it during the quantum. The first tick after
        // protection lapses (t=720) serves j1 by suspending j0.
        let jobs = vec![
            Job::new(0, 100, 2_000, 2_000, 8),
            Job::new(1, 200, 100, 100, 8),
        ];
        let res = run(jobs, 8);
        let j1 = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert_eq!(
            j1.first_start.secs(),
            720,
            "served at the first post-quantum tick"
        );
        let j0 = res.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        assert_eq!(j0.suspensions, 1);
        // j0 ran [100,720) = 620 s, resumes at j1's completion (820) and
        // finishes its remaining 1380 s.
        assert_eq!(j0.completion.secs(), 820 + 1_380);
        assert_eq!(res.preemptions, 1);
    }

    #[test]
    fn very_short_jobs_never_preempted() {
        // A 300 s job (shorter than the timeslice) is dispatched and a new
        // arrival lands while it is protected: the newcomer waits.
        let jobs = vec![
            Job::new(0, 0, 300, 300, 8),
            Job::new(1, 100, 300, 300, 8), // arrives during j0's protection
        ];
        let res = run(jobs, 8);
        let j0 = res.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        assert_eq!(j0.suspensions, 0);
        assert_eq!(j0.wait(), 0);
        let j1 = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert_eq!(j1.first_start.secs(), 300);
    }

    #[test]
    fn queued_job_is_served_by_retried_preemption() {
        // j0 (all 8 procs) is suspended by j1's arrival at t=1000. j2
        // arrives at t=1500 while j1 is protected (until 1600); the first
        // tick after that (1620) serves j2 by suspending j1 — IS retries
        // immediate service for waiting jobs at every tick.
        let jobs = vec![
            Job::new(0, 0, 5_000, 5_000, 8),
            Job::new(1, 1_000, 2_000, 2_000, 8), // preempts j0 on arrival
            Job::new(2, 1_500, 4_000, 4_000, 2), // served at t=1620
        ];
        let res = run(jobs, 8);
        let j1 = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        let j2 = res.outcomes.iter().find(|o| o.id == JobId(2)).unwrap();
        assert_eq!(j2.first_start.secs(), 1_620);
        assert_eq!(j2.wait(), 120);
        assert_eq!(
            j1.suspensions, 1,
            "the 8-proc job was the only victim available"
        );
        // Wide suspended jobs wait for their exact processors: j1 resumes
        // only when j2 releases procs 0-1 at 5620, j0 after j1 at 7000.
        assert_eq!(j1.completion.secs(), 5_620 + 1_380);
        let j0 = res.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        assert_eq!(j0.completion.secs(), 7_000 + 4_000);
        assert_eq!(res.dropped_actions, 0);
    }

    #[test]
    fn staggered_protections_set_a_cumulative_horizon() {
        // Three jobs fill the 8 procs, protected until 600 (j0, 2 wide),
        // 900 (j1, 2 wide) and 1 100 (j2, 4 wide); j3 (6 wide) arrives at
        // 550 and needs all three expiries (2 + 2 + 4 ≥ 6), so its
        // arrival decide reports 1 100 and the ticker is armed at 1 080,
        // the first tick at or after 1 100 − 60. That tick still sees j2
        // protected and reports 1 100 again, which lets no tick lapse; the
        // 1 140 tick suspends all three and starts j3. With only
        // suspended jobs waiting, the 1 200 tick reports an infinite
        // horizon, and the next decide is j3's completion at 2 140, which
        // resumes all three; their completions find only running jobs.
        // Decides: 0, 300, 500, 550, 1 080, 1 140, 1 200, 2 140 — 8. A
        // horizon at the first expiry alone would add 600, 840 and 900
        // (11); the every-tick schedule makes 117.
        let jobs = vec![
            Job::new(0, 0, 5_000, 5_000, 2),
            Job::new(1, 300, 5_000, 5_000, 2),
            Job::new(2, 500, 5_000, 5_000, 4),
            Job::new(3, 550, 1_000, 1_000, 6),
        ];
        let res = run_both_ways(jobs, 8);
        let j3 = res.outcomes.iter().find(|o| o.id == JobId(3)).unwrap();
        assert_eq!(j3.first_start.secs(), 1_140);
        assert_eq!(res.preemptions, 3);
        let decides = res.kernel.decide_calls;
        assert!(decides <= 8, "{decides} decides");
    }

    #[test]
    fn a_protection_ending_on_a_tick_is_acted_on_at_that_tick() {
        // j0 arrives on the 600 tick, so its protection ends on the 1 200
        // tick. j1's arrival decide reports 1 200 and the ticker is armed
        // at 1 140; that tick reports 1 200 again, within a period of its
        // floor, so 1 200 itself executes and serves j1 — a horizon more
        // than a period late would skip that tick. Then only suspended j0
        // waits (1 260 reports infinity) until j1 completes at 1 300 and
        // j0 resumes. Decides: 600, 700, 1 140, 1 200, 1 260, 1 300 — 6.
        let jobs = vec![
            Job::new(0, 600, 2_000, 2_000, 8),
            Job::new(1, 700, 100, 100, 8),
        ];
        let res = run_both_ways(jobs, 8);
        let j1 = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert_eq!(j1.first_start.secs(), 1_200);
        let decides = res.kernel.decide_calls;
        assert!(decides <= 6, "{decides} decides");
    }

    #[test]
    fn only_suspended_jobs_waiting_report_an_infinite_horizon() {
        // The jobs of `queued_job_is_served_by_retried_preemption`. After
        // j1 suspends j0 at 1 000 only a suspended job waits, and it can
        // re-enter only when an event frees its processors, so the 1 020
        // tick reports an infinite horizon and the next decide is j2's
        // arrival at 1 500. j1's protection ends at 1 600, too close to
        // let a tick lapse, so 1 560 and 1 620 execute and 1 620 serves
        // j2. Then only suspended jobs wait again: 1 680 reports infinity,
        // and so do the decides of the two preempted dispatches' stale
        // completion events (j1's at 3 000, j0's at 5 000) and 5 640,
        // after j1 resumes at j2's completion (5 620); j0 resumes at
        // 7 000. Decides: 0, 1 000, 1 020, 1 500, 1 560, 1 620, 1 680,
        // 3 000, 5 000, 5 620, 5 640, 7 000 — 12 (the every-tick schedule
        // makes 190).
        let jobs = vec![
            Job::new(0, 0, 5_000, 5_000, 8),
            Job::new(1, 1_000, 2_000, 2_000, 8),
            Job::new(2, 1_500, 4_000, 4_000, 2),
        ];
        let res = run_both_ways(jobs, 8);
        let j2 = res.outcomes.iter().find(|o| o.id == JobId(2)).unwrap();
        assert_eq!(j2.first_start.secs(), 1_620);
        let decides = res.kernel.decide_calls;
        assert!(decides <= 12, "{decides} decides");
    }

    #[test]
    fn all_jobs_complete_under_churn() {
        let mut jobs = Vec::new();
        for i in 0..50u32 {
            let run = 100 + (i as i64 * 97) % 2_000;
            let procs = 1 + (i % 8);
            jobs.push(Job::new(i, (i as i64) * 50, run, run, procs));
        }
        let res = run(jobs, 8);
        assert_eq!(res.outcomes.len(), 50);
        for o in &res.outcomes {
            assert!(o.turnaround() >= o.run);
        }
    }
}
