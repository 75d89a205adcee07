//! Conservative backfilling.
//!
//! Section II-A.1: every job receives a reservation (start-time guarantee)
//! when it enters the system, at the earliest "anchor point" where enough
//! processors are available for its estimated duration. A job may backfill
//! only if it delays *no* previously queued job. When a running job
//! terminates early, the schedule is *compressed*: reservations are
//! released in order of increasing guaranteed start time and each job is
//! re-anchored, never later than its previous guarantee.
//!
//! This implementation re-derives the reservation schedule at every
//! decision instant — anchoring queued jobs in the order of their previous
//! anchors (arrival order for new jobs) against a fresh profile. Because
//! the obligations in the profile only ever shrink (jobs finish at or
//! before their estimates), each job's anchor is non-increasing over time,
//! which is exactly the compression guarantee. Under fault injection a
//! failure shrinks the profile's capacity instead, so an anchor may then
//! move later, and a job wider than the processors still up gets no
//! anchor until a repair.

use std::collections::HashMap;

use sps_simcore::SimTime;
use sps_workload::JobId;

use crate::policy::{Action, DecideCtx, Policy};
use crate::sched::planner::ReservationLadder;
use crate::sim::SimState;

/// Conservative backfilling dispatcher.
#[derive(Clone, Debug, Default)]
pub struct Conservative {
    /// Anchor assigned at the previous decision, per queued job.
    anchors: HashMap<JobId, SimTime>,
    /// Processors down at the previous decision. It gates only the
    /// compression check, which holds while none went down since.
    down: u32,
    /// Reusable reservation ladder (profile buffer persists across
    /// decides; rebuilt in place each call).
    ladder: ReservationLadder,
}

impl Policy for Conservative {
    fn name(&self) -> String {
        "Conservative".into()
    }

    // With an empty queue the re-anchoring loop never runs and `anchors`
    // is already empty (it only holds entries for still-queued jobs), so
    // a quiescent decide acts on nothing. It may refresh `down`, but that
    // gates only the compression check, which the next decide passes
    // either way: none of its queued jobs has an anchor yet.
    fn quiescent_noop(&self) -> bool {
        true
    }

    fn decide(&mut self, state: &SimState, _ctx: &DecideCtx<'_>, actions: &mut Vec<Action>) {
        // Queued jobs in re-anchoring order: previous anchor first (new
        // arrivals, with no anchor yet, go last), arrival order as the tie
        // breaker (state.queued() is already in arrival order).
        let mut order: Vec<(SimTime, usize, JobId)> = state
            .queued()
            .iter()
            .enumerate()
            .map(|(pos, &id)| (*self.anchors.get(&id).unwrap_or(&SimTime::MAX), pos, id))
            .collect();
        order.sort_unstable();

        self.ladder.rebuild(state);
        let compressing = state.down_count() <= self.down;
        self.down = state.down_count();
        let mut next_anchors = HashMap::with_capacity(order.len());
        for (prev_anchor, _, id) in order {
            // Wider than the processors that are up: no anchor until the
            // repair event's decide.
            let Some(start) = self.ladder.reserve(state.job(id)) else {
                continue;
            };
            debug_assert!(
                !compressing || start <= prev_anchor,
                "compression may only move reservations earlier: {prev_anchor:?} -> {start:?}"
            );
            if start == state.now() {
                actions.push(Action::Start(id));
            } else {
                next_anchors.insert(id, start);
            }
        }
        self.anchors = next_anchors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use sps_workload::Job;

    fn run(jobs: Vec<Job>, procs: u32) -> crate::sim::SimResult {
        Simulator::new(jobs, procs, Box::<Conservative>::default()).run()
    }

    #[test]
    fn backfills_only_without_delaying_anyone() {
        // Figure 1's shape: j0 runs (8/9 procs, 100 s); j1 (9 procs) is
        // reserved at t=100; j2 (1 proc, 150 s) would delay j1 if started
        // now — conservative refuses (unlike EASY's extra-node rule, there
        // is no slack here: j1 needs all 9).
        let jobs = vec![
            Job::new(0, 0, 100, 100, 8),
            Job::new(1, 1, 100, 100, 9),
            Job::new(2, 2, 150, 150, 1),
        ];
        let res = run(jobs, 9);
        let j1 = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        let j2 = res.outcomes.iter().find(|o| o.id == JobId(2)).unwrap();
        assert_eq!(j1.first_start.secs(), 100);
        assert_eq!(
            j2.first_start.secs(),
            200,
            "would delay j1, must queue behind it"
        );
    }

    #[test]
    fn backfills_into_true_holes() {
        // j2 (1 proc, 50 s) finishes before j1's reservation: backfill OK.
        let jobs = vec![
            Job::new(0, 0, 100, 100, 8),
            Job::new(1, 1, 100, 100, 9),
            Job::new(2, 2, 50, 50, 1),
        ];
        let res = run(jobs, 9);
        let j2 = res.outcomes.iter().find(|o| o.id == JobId(2)).unwrap();
        assert_eq!(j2.first_start.secs(), 2);
        let j1 = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert_eq!(j1.first_start.secs(), 100);
    }

    #[test]
    fn chained_reservations_keep_queue_order_for_equal_shapes() {
        // Three full-machine jobs: strict sequential execution.
        let jobs = vec![
            Job::new(0, 0, 100, 100, 9),
            Job::new(1, 1, 100, 100, 9),
            Job::new(2, 2, 100, 100, 9),
        ];
        let res = run(jobs, 9);
        let starts: Vec<i64> = (0..3)
            .map(|i| {
                res.outcomes
                    .iter()
                    .find(|o| o.id == JobId(i))
                    .unwrap()
                    .first_start
                    .secs()
            })
            .collect();
        assert_eq!(starts, vec![0, 100, 200]);
    }

    #[test]
    fn no_job_is_starved() {
        // Stream of narrow jobs around one very wide job: the wide job's
        // reservation guarantees progress.
        let mut jobs = vec![Job::new(0, 0, 100, 100, 5), Job::new(1, 1, 100, 100, 9)];
        for i in 0..30 {
            jobs.push(Job::new(2 + i, 2 + i as i64, 100, 100, 2));
        }
        let res = run(jobs, 9);
        let wide = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert_eq!(
            wide.first_start.secs(),
            100,
            "reservation protects the wide job"
        );
        assert_eq!(res.dropped_actions, 0);
    }

    #[test]
    fn guarantee_never_regresses() {
        // The debug_assert inside decide() enforces anchor monotonicity on
        // every re-anchoring; a run over a busy random-ish trace exercises
        // it thoroughly.
        let mut jobs = Vec::new();
        for i in 0..60u32 {
            let run = 50 + (i as i64 * 37) % 400;
            let procs = 1 + (i % 9);
            jobs.push(Job::new(i, (i as i64) * 20, run, run, procs));
        }
        let res = run(jobs, 9);
        assert_eq!(res.outcomes.len(), 60);
        assert_eq!(res.dropped_actions, 0);
    }
}
