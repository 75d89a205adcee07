//! Reservation-depth backfilling — the EASY ↔ conservative spectrum.
//!
//! EASY protects only the *head* of the queue with a reservation;
//! conservative protects *everyone*. The backfilling literature the paper
//! builds on (Section II-A; see also Srinivasan et al.'s
//! "Characterization of Backfilling Strategies", by the same group)
//! studies the spectrum in between: reserve the first `depth` queued
//! jobs, and let anything else backfill only if it would not delay any of
//! them. `depth = 1` behaves like EASY; a depth beyond the queue length
//! behaves like conservative backfilling.
//!
//! Included as a baseline substrate: it quantifies how much of NS's
//! short-job pain is a *reservation-policy* artifact versus something
//! only preemption can fix (`ablation_reservation_depth`).

use crate::policy::{Action, DecideCtx, Policy};
use crate::sched::planner::ReservationLadder;
use crate::sim::SimState;

/// Backfilling with reservations for the first `depth` queued jobs.
#[derive(Clone, Debug)]
pub struct FlexBackfill {
    depth: usize,
    /// Reusable reservation ladder (profile buffer persists across
    /// decides; rebuilt in place each call).
    ladder: ReservationLadder,
}

impl FlexBackfill {
    /// Reservations for the first `depth` waiting jobs (`depth >= 1`).
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 1, "at least the head job must be protected");
        FlexBackfill {
            depth,
            ladder: ReservationLadder::default(),
        }
    }
}

impl Policy for FlexBackfill {
    fn name(&self) -> String {
        format!("Flex (depth={})", self.depth)
    }

    // Stateless; the reservation ladder is rebuilt from the (empty) queue.
    fn quiescent_noop(&self) -> bool {
        true
    }

    fn decide(&mut self, state: &SimState, _ctx: &DecideCtx<'_>, actions: &mut Vec<Action>) {
        let now = state.now();
        self.ladder.rebuild(state);
        let ladder = &mut self.ladder;
        for (i, &id) in state.queued().iter().enumerate() {
            let job = state.job(id);
            if i < self.depth {
                // Protected: gets (and re-derives, every decision) the
                // earliest reservation consistent with those ahead of it;
                // none while it is wider than the processors that are up.
                if ladder.reserve(job) == Some(now) {
                    actions.push(Action::Start(id));
                }
            } else {
                // Unprotected: may start only where it provably delays no
                // reservation — i.e. its anchor against the current
                // profile is *now*.
                if ladder.try_backfill_now(job) {
                    actions.push(Action::Start(id));
                }
            }
        }
    }
}

#[cfg(test)]
impl crate::sim::SimResult {
    /// Mean wait over all outcomes (test helper).
    fn report_mean_wait(&self) -> f64 {
        self.outcomes.iter().map(|o| o.wait() as f64).sum::<f64>() / self.outcomes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::easy::Easy;
    use crate::sim::Simulator;
    use sps_workload::{Job, JobId};

    fn run(jobs: Vec<Job>, procs: u32, depth: usize) -> crate::sim::SimResult {
        Simulator::new(jobs, procs, Box::new(FlexBackfill::new(depth))).run()
    }

    /// The Fig. 1 / Fig. 2 contrast: EASY's extra-node rule admits a long
    /// narrow job that conservative-style protection (depth ≥ 3) rejects.
    fn contrast_trace() -> Vec<Job> {
        vec![
            Job::new(0, 0, 100, 100, 8),
            Job::new(1, 1, 100, 100, 9),
            Job::new(2, 2, 150, 150, 1),
        ]
    }

    #[test]
    fn depth_one_admits_like_easy() {
        // With only the head protected, j2 (1 proc, ends after the shadow)
        // is still rejected here because it would delay the 9-proc head —
        // but on the *extra-node* variant below it backfills. Align with
        // EASY on both traces.
        let easy = Simulator::new(contrast_trace(), 9, Box::<Easy>::default()).run();
        let flex = run(contrast_trace(), 9, 1);
        for id in 0..3u32 {
            let a = easy
                .outcomes
                .iter()
                .find(|o| o.id == JobId(id))
                .unwrap()
                .first_start;
            let b = flex
                .outcomes
                .iter()
                .find(|o| o.id == JobId(id))
                .unwrap()
                .first_start;
            assert_eq!(a, b, "job {id} start differs from EASY");
        }
    }

    #[test]
    fn extra_node_backfill_matches_easy_at_depth_one() {
        // 8-proc head reservation leaves one extra node: a long 1-proc job
        // may take it under EASY *and* under depth-1 flex (its anchor
        // against the head's reservation is `now`).
        let jobs = vec![
            Job::new(0, 0, 100, 100, 8),
            Job::new(1, 1, 100, 100, 8),
            Job::new(2, 2, 10_000, 10_000, 1),
        ];
        let flex = run(jobs, 9, 1);
        let j2 = flex.outcomes.iter().find(|o| o.id == JobId(2)).unwrap();
        assert_eq!(j2.first_start.secs(), 2);
    }

    #[test]
    fn deep_reservations_block_delaying_backfill() {
        // Depth 3 covers all queued jobs → conservative behaviour: j2 must
        // wait behind j1.
        let res = run(contrast_trace(), 9, 3);
        let j2 = res.outcomes.iter().find(|o| o.id == JobId(2)).unwrap();
        assert_eq!(j2.first_start.secs(), 200, "conservative-style protection");
    }

    #[test]
    fn no_starvation_at_any_depth() {
        let mut jobs = vec![Job::new(0, 0, 100, 100, 5), Job::new(1, 1, 100, 100, 9)];
        for i in 0..30 {
            jobs.push(Job::new(2 + i, 2 + i as i64, 100, 100, 2));
        }
        for depth in [1, 2, 8, 64] {
            let res = run(jobs.clone(), 9, depth);
            let wide = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
            assert_eq!(
                wide.first_start.secs(),
                100,
                "depth {depth}: the wide job's reservation must hold"
            );
            assert_eq!(res.outcomes.len(), 32);
            assert_eq!(res.dropped_actions, 0);
        }
    }

    #[test]
    fn deeper_protection_never_helps_backfillers() {
        // More reservations can only constrain backfilling: the makespan
        // is non-decreasing in depth on a backfill-heavy trace.
        let mut jobs = Vec::new();
        for i in 0..40u32 {
            let run_s = 100 + (i as i64 * 53) % 900;
            jobs.push(Job::new(i, (i as i64) * 30, run_s, run_s, 1 + (i % 9)));
        }
        let shallow = run(jobs.clone(), 9, 1);
        let deep = run(jobs, 9, 40);
        assert!(
            shallow.report_mean_wait() <= deep.report_mean_wait() + 1e-9,
            "depth-1 mean wait {} vs depth-40 {}",
            shallow.report_mean_wait(),
            deep.report_mean_wait()
        );
    }
}
