//! Gang scheduling — the classical preemptive alternative the paper's
//! Section II cites (Feitelson & Jette): time-slice the whole machine
//! between *slots* of an Ousterhout matrix, so every job gets a regular
//! quantum regardless of length.
//!
//! Implemented on the simulator's suspend/resume mechanics: each job is
//! assigned to a slot on arrival (first slot with spare capacity, opening
//! a new slot up to `max_slots`); every `quantum` seconds *of actual
//! service* the active slot rotates — all running jobs of the outgoing
//! slot are suspended and the incoming slot's jobs are resumed/started.
//! The quantum clock starts when the incoming slot's jobs are dispatched,
//! not at the rotation itself, so suspend/restart overheads lengthen the
//! rotation period instead of silently eating the slot's compute time.
//! Because jobs within one slot
//! hold pairwise-disjoint processors, the local-preemption constraint
//! (resume on the same processors) is always satisfiable when the slot's
//! turn comes.
//!
//! Gang scheduling shares the machine fairly in time but pays for it in
//! utilization: a slot only uses the processors its members occupy, so
//! unevenly filled slots idle capacity — exactly the fragmentation
//! argument that motivated backfilling and, in the paper, selective
//! suspension. The `ablation_gang` experiment quantifies this against
//! SS/NS.

use sps_metrics::JobOutcome;
use sps_simcore::{Secs, SimTime};
use sps_workload::JobId;

use crate::policy::{Action, DecideCtx, Policy};
use crate::sim::SimState;

/// Default rotation quantum: 10 minutes (a common gang-scheduling setting,
/// and IS's timeslice, making the two comparable).
pub const DEFAULT_QUANTUM: Secs = 600;

/// One column of the Ousterhout matrix.
#[derive(Clone, Debug, Default)]
struct Slot {
    members: Vec<JobId>,
    used_procs: u32,
}

/// Gang scheduler with round-robin slot rotation.
#[derive(Clone, Debug)]
pub struct GangScheduling {
    quantum: Secs,
    max_slots: usize,
    slots: Vec<Slot>,
    active: usize,
    /// When the current quantum's *service* began: the first instant a
    /// member of the active slot was observed dispatched after the last
    /// rotation (`None` while the incoming slot is still draining in).
    /// Anchoring the quantum to service rather than to the rotation
    /// instant keeps suspension overheads from consuming the whole
    /// quantum — with the paper's drain model a wide job needs several
    /// hundred seconds to drain and reload, and a clock started at the
    /// rotation would suspend it again before it computed anything,
    /// alternating forever.
    quantum_start: Option<SimTime>,
    /// Slot of each job (index into `slots`), by job id.
    slot_of: std::collections::HashMap<JobId, usize>,
}

impl Default for GangScheduling {
    fn default() -> Self {
        Self::new()
    }
}

impl GangScheduling {
    /// Gang scheduling with the default 10-minute quantum and up to 16
    /// slots.
    pub fn new() -> Self {
        Self::with_quantum(DEFAULT_QUANTUM, 16)
    }

    /// Custom quantum and matrix depth.
    pub fn with_quantum(quantum: Secs, max_slots: usize) -> Self {
        assert!(quantum > 0 && max_slots > 0);
        GangScheduling {
            quantum,
            max_slots,
            slots: vec![Slot::default()],
            active: 0,
            quantum_start: Some(SimTime::ZERO),
            slot_of: std::collections::HashMap::new(),
        }
    }

    /// First slot with room for `procs`, preferring the active slot (a
    /// job placed there starts immediately); `None` if the matrix is full
    /// at depth `max_slots` and no slot has room.
    fn pick_slot(&mut self, procs: u32, total: u32) -> Option<usize> {
        if self.slots[self.active].used_procs + procs <= total {
            return Some(self.active);
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.used_procs + procs <= total {
                return Some(i);
            }
        }
        if self.slots.len() < self.max_slots {
            self.slots.push(Slot::default());
            return Some(self.slots.len() - 1);
        }
        None
    }

    /// Drop completed jobs and collapse empty slots (keeping at least
    /// one), fixing up `active` and the membership map.
    fn compact(&mut self) {
        let mut keep: Vec<usize> = (0..self.slots.len())
            .filter(|&i| !self.slots[i].members.is_empty())
            .collect();
        if keep.is_empty() {
            keep.push(0);
        }
        if keep.len() == self.slots.len() {
            return;
        }
        let active_new = keep.iter().position(|&i| i == self.active).unwrap_or(0);
        let mut new_slots = Vec::with_capacity(keep.len());
        self.slot_of.clear();
        for (new_idx, &old_idx) in keep.iter().enumerate() {
            let slot = std::mem::take(&mut self.slots[old_idx]);
            for &m in &slot.members {
                self.slot_of.insert(m, new_idx);
            }
            new_slots.push(slot);
        }
        self.slots = new_slots;
        self.active = active_new;
    }
}

impl Policy for GangScheduling {
    fn name(&self) -> String {
        format!("Gang (q={}s)", self.quantum)
    }

    fn needs_tick(&self) -> bool {
        true
    }

    fn decide(&mut self, state: &SimState, ctx: &DecideCtx<'_>, actions: &mut Vec<Action>) {
        let now = state.now();
        let total = state.total_procs();

        // Assign fresh arrivals (and any still-unassigned queued jobs) to
        // slots.
        for &id in state.queued() {
            if self.slot_of.contains_key(&id) {
                continue;
            }
            if let Some(slot) = self.pick_slot(state.width(id), total) {
                self.slots[slot].members.push(id);
                self.slots[slot].used_procs += state.width(id);
                self.slot_of.insert(id, slot);
            }
            // else: matrix full — job waits unassigned and is retried at
            // the next decision.
        }

        // Start the quantum clock once the incoming slot is actually in
        // service (some member dispatched — or nothing left to dispatch).
        if self.quantum_start.is_none() {
            let slot = &self.slots[self.active];
            if slot.members.is_empty() || slot.members.iter().any(|&m| state.is_running(m)) {
                self.quantum_start = Some(now);
            }
        }

        // Rotate when the quantum expires (tick-driven) and more than one
        // slot exists.
        let rotate = ctx.tick
            && self.slots.len() > 1
            && self
                .quantum_start
                .is_some_and(|start| now - start >= self.quantum);
        if rotate {
            self.compact();
            if self.slots.len() > 1 {
                self.active = (self.active + 1) % self.slots.len();
            }
            self.quantum_start = None;
        }

        // Enforce the matrix: everything outside the active slot must be
        // suspended; everything inside it runs.
        for &id in state.running() {
            if self.slot_of.get(&id) != Some(&self.active) {
                actions.push(Action::Suspend(id));
            }
        }
        for &id in state.suspended() {
            if self.slot_of.get(&id) == Some(&self.active) {
                actions.push(Action::Resume(id));
            }
        }
        for &id in state.queued() {
            if self.slot_of.get(&id) == Some(&self.active) {
                actions.push(Action::Start(id));
            }
        }
    }

    fn on_completion(&mut self, outcome: &JobOutcome) {
        if let Some(slot) = self.slot_of.remove(&outcome.id) {
            let members = &mut self.slots[slot].members;
            members.retain(|&m| m != outcome.id);
            self.slots[slot].used_procs -= outcome.procs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use sps_workload::Job;

    fn run(jobs: Vec<Job>, procs: u32, quantum: Secs) -> crate::sim::SimResult {
        Simulator::new(
            jobs,
            procs,
            Box::new(GangScheduling::with_quantum(quantum, 8)),
        )
        .run()
    }

    #[test]
    fn single_slot_behaves_like_space_sharing() {
        // Two narrow jobs fit one slot: no rotation, no suspensions.
        let jobs = vec![
            Job::new(0, 0, 1_000, 1_000, 4),
            Job::new(1, 0, 1_000, 1_000, 4),
        ];
        let res = run(jobs, 8, 600);
        assert_eq!(res.preemptions, 0);
        assert!(res.outcomes.iter().all(|o| o.wait() == 0));
    }

    #[test]
    fn conflicting_jobs_timeshare() {
        // Two full-machine jobs must alternate in 600 s quanta.
        let jobs = vec![
            Job::new(0, 0, 1_800, 1_800, 8),
            Job::new(1, 0, 1_800, 1_800, 8),
        ];
        let res = run(jobs, 8, 600);
        let j0 = res.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        let j1 = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert!(
            res.preemptions >= 4,
            "expected sustained alternation, got {}",
            res.preemptions
        );
        // Time-sharing: both finish around 2×runtime, far beyond their
        // solo runtimes, and close to each other (the first finisher lands
        // at exactly 3000 s: three 600 s quanta interleaved with the other
        // job's, then a 600 s remainder).
        assert!(j0.completion.secs() >= 3_000 && j1.completion.secs() >= 3_000);
        assert!((j0.completion.secs() - j1.completion.secs()).abs() <= 1_800);
    }

    #[test]
    fn short_job_gets_service_quickly_under_long_job() {
        // A long hog and a short arrival: gang gives the short job a slot
        // and it runs within ~one quantum rather than waiting 10 000 s.
        let jobs = vec![
            Job::new(0, 0, 10_000, 10_000, 8),
            Job::new(1, 50, 300, 300, 8),
        ];
        let res = run(jobs, 8, 600);
        let short = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert!(
            short.first_start.secs() <= 700,
            "short job waited {} s for its slot",
            short.first_start.secs()
        );
        let long = res.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        assert!(long.suspensions >= 1);
    }

    #[test]
    fn slots_fill_before_opening_new_ones() {
        // Four 4-proc jobs on 8 procs: two slots of two, not four slots.
        let jobs: Vec<Job> = (0..4).map(|i| Job::new(i, 0, 3_000, 3_000, 4)).collect();
        let res = run(jobs, 8, 600);
        // With two slots, total elapsed ≈ 2 × 3000 plus rotation jitter.
        let makespan = res.makespan;
        assert!((6_000..8_000).contains(&makespan), "makespan {makespan}");
    }

    #[test]
    fn utilization_suffers_from_uneven_slots() {
        // Slot 1: one 8-proc job; slot 2: one 1-proc job. Half the time
        // the machine runs at 1/8 capacity.
        let jobs = vec![
            Job::new(0, 0, 6_000, 6_000, 8),
            Job::new(1, 0, 6_000, 6_000, 1),
        ];
        let res = run(jobs, 8, 600);
        assert!(
            res.utilization < 0.75,
            "gang fragmentation should cap utilization, got {:.2}",
            res.utilization
        );
    }

    #[test]
    fn heavy_overhead_does_not_starve_the_rotation() {
        // Two full-machine jobs whose drain + reload exceeds the quantum
        // (8×4096 MiB at 0.5 MB/s per processor → 1024 s each way, vs a
        // 600 s quantum). With the quantum clock anchored at the rotation
        // instant the incoming job would be re-suspended before its
        // reload finished — zero progress, alternating forever. Anchored
        // at dispatch, every cycle delivers a full quantum of compute.
        let jobs = vec![
            Job::new(0, 0, 3_000, 3_000, 8),
            Job::new(1, 0, 3_000, 3_000, 8),
        ];
        let res = crate::sim::Simulator::traced_source(
            Box::new(sps_workload::TraceSource::new(jobs)),
            8,
            Box::new(GangScheduling::with_quantum(600, 8)),
            crate::overhead::OverheadModel::MemoryDrain { mb_per_sec: 0.5 },
            crate::sim::DEFAULT_TICK_PERIOD,
            sps_trace::NullSink,
        )
        .run();
        assert_eq!(res.outcomes.len(), 2);
        // Each job: 5 quanta of 600 s compute, each preceded by ~2048 s
        // of drain+reload overhead; the whole dance stays well under a
        // day — unbounded growth here means the livelock is back.
        assert!(res.makespan < 60_000, "makespan {}", res.makespan);
        for o in &res.outcomes {
            assert!(o.suspensions >= 2, "expected sustained alternation");
        }
    }

    #[test]
    fn all_jobs_complete_under_churn() {
        let mut jobs = Vec::new();
        for i in 0..60u32 {
            let runtime = 200 + (i as i64 * 131) % 3_000;
            jobs.push(Job::new(i, (i as i64) * 40, runtime, runtime, 1 + (i % 8)));
        }
        let res = run(jobs, 8, 300);
        assert_eq!(res.outcomes.len(), 60);
        assert_eq!(res.dropped_actions, 0);
    }
}
