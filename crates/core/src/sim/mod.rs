//! The event-driven cluster simulator.
//!
//! Mechanics live here; decisions live in [`crate::policy::Policy`]
//! implementations. The simulator maintains, per job, the state machine
//!
//! ```text
//! NotArrived → Queued → Running ⇄ (Draining →) Suspended → Done
//! ```
//!
//! honouring the paper's *local preemption* model: a suspended job keeps
//! its processor assignment and can only re-enter on exactly that set.
//! Suspension and restart each cost the overhead model's drain time; while
//! draining, the victim's processors are still occupied, and the freshly
//! freed processors are announced to the policy via a `ProcsFreed` event.
//!
//! The module is split by concern:
//!
//! * `state` — [`SimState`]: the job table, the queued/suspended/running
//!   lists, and the incremental kernel structures (the
//!   [`sps_cluster::AvailabilityProfile`] release ledger and the
//!   [`SchedIndex`] occupancy index) together with their debug
//!   cross-checks,
//! * `dispatch` — placing work onto processors (start / resume paths),
//! * `lifecycle` — taking work off processors (suspend / drain /
//!   complete / kill paths),
//! * `runloop` — the [`Simulator`] driver: event handling, the
//!   policy-decision loop, fault delivery, and result assembly,
//! * [`index`] — the [`SchedIndex`] itself.
//!
//! Every structure the kernel maintains incrementally has a from-scratch
//! recount ([`SimState::validate_kernel`]) exercised by debug assertions
//! and the kernel property tests.
//!
//! Priorities: the simulator computes both priority notions used in the
//! paper —
//!
//! * [`SimState::xfactor`], the SS/TSS suspension priority
//!   `(wait + estimated run) / estimated run`, frozen while running and
//!   growing while waiting (Section IV), and
//! * [`SimState::inst_xfactor`], IS's instantaneous priority
//!   `(wait + accumulated run) / accumulated run` (Section II-C).

mod dispatch;
pub mod index;
mod lifecycle;
mod runloop;
mod state;

pub use index::SchedIndex;
pub use runloop::{
    AbortReason, KernelStats, RunStatus, RunUntil, SimResult, Simulator, StopReason,
    DEFAULT_TICK_PERIOD,
};
pub use state::{Event, JobSlot, OccupancySegment, SimState};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overhead::OverheadModel;
    use crate::policy::{Action, DecideCtx, Policy};
    use sps_simcore::{Engine, EventQueue, SimTime};
    use sps_trace::NullSink;
    use sps_workload::{Job, JobId, TraceSource};

    /// A minimal FCFS-like policy used to exercise the mechanics.
    struct GreedyFifo;
    impl Policy for GreedyFifo {
        fn name(&self) -> String {
            "greedy-fifo-test".into()
        }
        fn decide(&mut self, state: &SimState, _ctx: &DecideCtx<'_>, actions: &mut Vec<Action>) {
            let mut free = state.free_count();
            for &id in state.queued() {
                let need = state.job(id).procs;
                if need <= free {
                    free -= need;
                    actions.push(Action::Start(id));
                }
            }
        }
    }

    /// A policy that suspends the sole running job when a new one arrives,
    /// then resumes it when the machine frees up. Exercises the suspend /
    /// drain / resume path.
    struct PreemptOnArrival;
    impl Policy for PreemptOnArrival {
        fn name(&self) -> String {
            "preempt-on-arrival-test".into()
        }
        fn needs_tick(&self) -> bool {
            true
        }
        fn decide(&mut self, state: &SimState, ctx: &DecideCtx<'_>, actions: &mut Vec<Action>) {
            // New arrival preempts everything currently running.
            if !ctx.arrivals.is_empty() {
                for &r in state.running() {
                    actions.push(Action::Suspend(r));
                }
            }
            let mut free = state.free_count()
                + if !ctx.arrivals.is_empty() {
                    state
                        .running()
                        .iter()
                        .map(|&r| state.job(r).procs)
                        .sum::<u32>()
                } else {
                    0
                };
            for &id in state.queued() {
                if state.job(id).procs <= free {
                    free -= state.job(id).procs;
                    actions.push(Action::Start(id));
                }
            }
            // Resume suspended jobs when their processors are free and no
            // queued job wants to go first.
            if ctx.arrivals.is_empty() {
                for &id in state.suspended() {
                    if state
                        .assigned_set(id)
                        .is_some_and(|s| s.is_subset(state.free_set()))
                    {
                        actions.push(Action::Resume(id));
                    }
                }
            }
        }
    }

    fn run_jobs(jobs: Vec<Job>, procs: u32, policy: Box<dyn Policy>) -> SimResult {
        Simulator::new(jobs, procs, policy).run()
    }

    /// [`run_jobs`] on an 8-processor machine under the paper's drain
    /// overhead.
    fn run_with_paper_overhead(jobs: Vec<Job>, policy: Box<dyn Policy>) -> SimResult {
        Simulator::traced_source(
            Box::new(TraceSource::new(jobs)),
            8,
            policy,
            OverheadModel::paper(),
            DEFAULT_TICK_PERIOD,
            NullSink,
        )
        .run()
    }

    #[test]
    fn single_job_runs_immediately() {
        let jobs = vec![Job::new(0, 5, 100, 100, 4)];
        let res = run_jobs(jobs, 8, Box::new(GreedyFifo));
        assert_eq!(res.outcomes.len(), 1);
        let o = &res.outcomes[0];
        assert_eq!(o.first_start.secs(), 5);
        assert_eq!(o.completion.secs(), 105);
        assert_eq!(o.wait(), 0);
        assert_eq!(o.slowdown(), 1.0);
        assert_eq!(res.preemptions, 0);
        assert_eq!(res.dropped_actions, 0);
    }

    #[test]
    fn queueing_when_machine_full() {
        // Two jobs each needing the whole machine.
        let jobs = vec![Job::new(0, 0, 100, 100, 8), Job::new(1, 0, 100, 100, 8)];
        let res = run_jobs(jobs, 8, Box::new(GreedyFifo));
        let o1 = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert_eq!(o1.first_start.secs(), 100);
        assert_eq!(o1.completion.secs(), 200);
        assert_eq!(o1.wait(), 100);
        assert_eq!(res.makespan, 200);
        assert!((res.utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_jobs_share_machine() {
        let jobs = vec![
            Job::new(0, 0, 100, 100, 4),
            Job::new(1, 0, 100, 100, 4),
            Job::new(2, 0, 100, 100, 4),
        ];
        let res = run_jobs(jobs, 8, Box::new(GreedyFifo));
        // Two run together, the third waits.
        let waits: Vec<i64> = {
            let mut v: Vec<i64> = res.outcomes.iter().map(|o| o.wait()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(waits, vec![0, 0, 100]);
    }

    #[test]
    fn suspension_roundtrip_zero_overhead() {
        // Long job starts; short job arrives at t=10 and preempts it.
        let jobs = vec![Job::new(0, 0, 1_000, 1_000, 8), Job::new(1, 10, 50, 50, 8)];
        let res = run_jobs(jobs, 8, Box::new(PreemptOnArrival));
        let long = res.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        let short = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert_eq!(short.first_start.secs(), 10, "short job started instantly");
        assert_eq!(short.completion.secs(), 60);
        assert_eq!(long.suspensions, 1);
        // Long ran [0,10) (10 s done, 990 left), was suspended [10,60),
        // and resumed at the short job's completion instant t=60.
        assert_eq!(long.completion.secs(), 1_050);
        assert_eq!(long.wait(), 50);
        assert_eq!(res.preemptions, 1);
        assert_eq!(res.dropped_actions, 0);
    }

    #[test]
    fn suspension_with_overhead_charges_drain_and_reload() {
        let mut j0 = Job::new(0, 0, 1_000, 1_000, 8);
        j0.mem_mb = 1_600; // 200 MB/proc -> 100 s drain at 2 MB/s
        let mut j1 = Job::new(1, 10, 50, 50, 8);
        j1.mem_mb = 1_600;
        let res = run_with_paper_overhead(vec![j0, j1], Box::new(PreemptOnArrival));
        let long = res.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        let short = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        // Suspend at t=10, drain until t=110; short starts at t=110.
        assert_eq!(short.first_start.secs(), 110);
        assert_eq!(short.completion.secs(), 160);
        // Long resumes at t=160, reloads 100 s, computes remaining 990 s.
        assert_eq!(long.completion.secs(), 160 + 100 + 990);
        assert_eq!(long.overhead, 200);
        assert_eq!(long.suspensions, 1);
    }

    #[test]
    fn resume_requires_exact_processors() {
        // Machine of 8: long job on all 8; preempted by short 8-proc job;
        // then a 4-proc job sneaks in — the long job cannot resume until
        // the 4-proc job is out (its original set overlaps).
        let jobs = vec![
            Job::new(0, 0, 1_000, 1_000, 8),
            Job::new(1, 10, 500, 500, 8),
            Job::new(2, 20, 100, 100, 4),
        ];
        let res = run_jobs(jobs, 8, Box::new(PreemptOnArrival));
        assert_eq!(res.outcomes.len(), 3);
        let long = res.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        // j1 runs [10,510) after preempting both j0 and... j2 arrives at 20
        // preempting j1; j2 runs [20,120); at 120 j1 can resume (its set is
        // all 8) — wait, j1 was suspended at 20 having run [10,20).
        // Timeline: j0 [0,10) preempted; j1 [10,20) preempted; j2 [20,120);
        // at 120 both j0 (needs all 8) and j1 (needs all 8) are resumable;
        // suspension order resumes j0 first... our test policy resumes in
        // suspended-list order: j0 then j1 both want all 8 procs — only the
        // first fits.
        assert_eq!(long.suspensions, 1);
        assert!(long.completion.secs() >= 1_000);
        // All work conserves: every job ran its full run time.
        for o in &res.outcomes {
            assert!(o.turnaround() >= o.run);
        }
    }

    #[test]
    fn xfactor_semantics() {
        let jobs = vec![Job::new(0, 0, 100, 200, 8), Job::new(1, 0, 100, 100, 8)];
        let mut sim = Simulator::new(jobs, 8, Box::new(GreedyFifo));
        // Drive manually: pull the t=0 arrival group, advance to t=0.
        let mut queue = EventQueue::new();
        sim.schedule_next_arrivals(&mut queue);
        let mut engine = Engine::new().with_horizon(SimTime::new(50));
        let _ = engine.run(&mut sim, &mut queue);
        // At t=0 job0 started (8 procs), job1 queued. Engine stopped at
        // horizon; state.now is 0 — xfactor of the queued job at now=0:
        assert_eq!(sim.state.xfactor(JobId(1)), 1.0);
        // Manually advance the clock to probe the waiting growth.
        sim.state.now = SimTime::new(50);
        assert!(
            (sim.state.xfactor(JobId(1)) - 1.5).abs() < 1e-12,
            "waited 50 of est 100"
        );
        // The running job's xfactor is frozen at 1.0 (it never waited).
        assert_eq!(sim.state.xfactor(JobId(0)), 1.0);
        // Instantaneous xfactor of the running job: (0 + 50)/50 = 1.
        assert!((sim.state.inst_xfactor(JobId(0)) - 1.0).abs() < 1e-12);
        // Instantaneous xfactor of the queued job: (50 + 0)/max(0,1) — huge.
        assert!(sim.state.inst_xfactor(JobId(1)) > 50.0 - 1e9_f64.recip());
    }

    #[test]
    #[should_panic(expected = "requests")]
    fn oversized_job_rejected() {
        let jobs = vec![Job::new(0, 0, 10, 10, 16)];
        let _ = Simulator::new(jobs, 8, Box::new(GreedyFifo)).run();
    }

    #[test]
    fn utilization_accounts_productive_work_only() {
        let mut j0 = Job::new(0, 0, 100, 100, 8);
        j0.mem_mb = 8 * 1_024; // 512 s drain per transition
        let mut j1 = Job::new(1, 10, 100, 100, 8);
        j1.mem_mb = 8 * 1_024;
        let res = run_with_paper_overhead(vec![j0, j1], Box::new(PreemptOnArrival));
        // Productive work = 1600 proc-s; makespan far larger due to drains.
        assert!(
            res.utilization < 0.7,
            "overhead must not count as useful work"
        );
        assert_eq!(res.preemptions, 1);
    }

    #[test]
    fn trace_with_identical_arrival_instants_is_deterministic() {
        let jobs: Vec<Job> = (0..20)
            .map(|i| Job::new(i, 0, 50 + i as i64, 50 + i as i64, 2))
            .collect();
        let a = run_jobs(jobs.clone(), 8, Box::new(GreedyFifo));
        let b = run_jobs(jobs, 8, Box::new(GreedyFifo));
        let key = |r: &SimResult| {
            r.outcomes
                .iter()
                .map(|o| (o.id, o.completion))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
    }
}
