//! Placing work onto processors: the start and resume mechanics.
//!
//! Every path that hands processors to a job also updates the incremental
//! kernel structures: the release ledger gains the dispatch's expected
//! end, and the occupancy index records the new holder (a resuming job
//! additionally gives up its re-entry claims first). Hot-array fields
//! (phase tag, wait clocks, est_end) are written here alongside the cold
//! record — see [`super::state::HotState`].

use sps_cluster::{secs_for, ProcSet};
use sps_simcore::{EventClass, EventQueue};
use sps_workload::JobId;

use super::state::{Event, Phase, SimState};

impl SimState {
    /// Close the current waiting interval of `id` at `now`.
    pub(crate) fn end_wait(&mut self, id: JobId) {
        let i = self.slot(id);
        debug_assert!(self.hot.is_waiting(i) || self.jobs[i].phase == Phase::NotArrived);
        self.hot.wait_accum[i] += self.now - self.hot.wait_since[i];
    }

    /// Dispatch a fresh job onto the lowest free processors. Returns false
    /// (dropping the action) if it does not fit.
    pub(crate) fn start(&mut self, id: JobId, queue: &mut EventQueue<Event>) -> bool {
        let i = self.slot(id);
        let procs = self.jobs[i].job.procs;
        if self.jobs[i].phase != Phase::Queued {
            return false;
        }
        let Some(set) = self.cluster.allocate(procs) else {
            return false;
        };
        self.dispatch(id, set, queue);
        true
    }

    /// Dispatch a fresh job onto an explicit processor set (policy-chosen
    /// placement). Returns false if the set is the wrong size or not
    /// entirely free.
    pub(crate) fn start_on(
        &mut self,
        id: JobId,
        set: &ProcSet,
        queue: &mut EventQueue<Event>,
    ) -> bool {
        let i = self.slot(id);
        let procs = self.jobs[i].job.procs;
        if self.jobs[i].phase != Phase::Queued
            || set.count() != procs
            || !self.cluster.can_allocate_exact(set)
        {
            return false;
        }
        self.cluster.allocate_exact(set);
        self.dispatch(id, set.clone(), queue);
        true
    }

    /// Shared tail of [`SimState::start`]/[`SimState::start_on`]: the
    /// processors in `set` are already marked busy.
    ///
    /// A queued job with prior progress only exists under a checkpointing
    /// preemption mode (a kill rolled it back to its last image instead of
    /// to zero); restarting it pays a synchronous restore stall before
    /// computation resumes, exactly like a suspension reload.
    fn dispatch(&mut self, id: JobId, set: ProcSet, queue: &mut EventQueue<Event>) {
        let now = self.now;
        let i = self.slot(id);
        self.transitions += 1;
        self.end_wait(id);
        self.index.occupy(&set, id);
        // The landing set fixes the dispatch's gang-synchronous rate: all
        // work/time conversions below run at the slowest member's speed.
        let speed = self.cluster.speed_of(&set);
        let restore = if self.pmode.checkpoints() && self.jobs[i].remaining < self.jobs[i].job.run {
            let secs = self
                .ckpt
                .image_secs_at(&self.jobs[i].job, self.ckpt_sharers(), speed);
            self.fault_stats.ckpt_overhead += secs;
            secs
        } else {
            0
        };
        let rt = &mut self.jobs[i];
        rt.assigned = Some(set);
        rt.speed = speed;
        // A job a fault killed and requeued keeps its first start.
        rt.first_start.get_or_insert(now);
        rt.seg_open = Some(now);
        rt.overhead_total += restore;
        let compute_start = now + restore;
        rt.phase = Phase::Running { compute_start };
        let executed = rt.job.run - rt.remaining;
        let est_end = if executed > 0 {
            // Restored dispatch: estimated remaining computation only.
            compute_start + secs_for((rt.job.estimate - executed).max(1), speed)
        } else {
            compute_start + secs_for(rt.job.estimate, speed)
        };
        let procs = rt.job.procs;
        let done_at = compute_start + secs_for(rt.remaining, speed);
        let epoch = rt.epoch;
        self.hot.tag[i] = Phase::Running { compute_start }.tag();
        self.hot.est_end[i] = est_end;
        self.avail.add(est_end, procs);
        queue.push(
            done_at,
            EventClass::Completion,
            Event::Completion { job: id, epoch },
        );
        self.queued.retain(|&q| q != id);
        self.running.push(id);
    }

    /// Re-enter a suspended job on its original processor set. Returns
    /// false if the set is not entirely free.
    pub(crate) fn resume(&mut self, id: JobId, queue: &mut EventQueue<Event>) -> bool {
        let i = self.slot(id);
        if self.jobs[i].phase != Phase::Suspended {
            return false;
        }
        let set = self.jobs[i]
            .assigned
            .clone()
            .expect("suspended job keeps its set");
        self.resume_on_set(id, set, queue)
    }

    /// Re-enter a suspended job on an arbitrary equally-sized set
    /// (migration — used only by the migration ablation; the paper's model
    /// forbids it).
    pub(crate) fn resume_on(
        &mut self,
        id: JobId,
        set: &ProcSet,
        queue: &mut EventQueue<Event>,
    ) -> bool {
        let i = self.slot(id);
        if self.jobs[i].phase != Phase::Suspended || set.count() != self.jobs[i].job.procs {
            return false;
        }
        self.resume_on_set(id, set.clone(), queue)
    }

    pub(crate) fn resume_on_set(
        &mut self,
        id: JobId,
        set: ProcSet,
        queue: &mut EventQueue<Event>,
    ) -> bool {
        let now = self.now;
        let i = self.slot(id);
        if !self.cluster.can_allocate_exact(&set) {
            return false;
        }
        self.transitions += 1;
        self.cluster.allocate_exact(&set);
        // The re-entry claims were registered under the set held at
        // suspension time — release them *before* the (possibly migrated)
        // new assignment overwrites it.
        let old_set = self.jobs[i]
            .assigned
            .take()
            .expect("suspended job keeps its set");
        self.index.unclaim(&old_set, id);
        self.index.occupy(&set, id);
        if set != old_set {
            // A migrated re-entry: the image moved to a different set
            // (remap recovery or a migrating preemption mode).
            self.fault_stats.migrations += 1;
        }
        // Re-entering closes any fault bookkeeping on the job.
        if let Some(since) = self.jobs[i].stranded_since.take() {
            self.fault_stats.stranded_secs += now - since;
        }
        self.jobs[i].remap = false;
        // Re-timing on resume/migrate: the landing set's speed governs the
        // new dispatch, so a job moved to faster processors finishes
        // sooner than its suspension-time plan said.
        let speed = self.cluster.speed_of(&set);
        self.jobs[i].assigned = Some(set);
        self.end_wait(id);
        // Under a checkpointing mode the reload is the checkpoint image
        // read-back (contention-aware, at the landing set's drain rate);
        // otherwise the Section V-A restart.
        let reload = if self.pmode.checkpoints() {
            let secs = self
                .ckpt
                .image_secs_at(&self.jobs[i].job, self.ckpt_sharers(), speed);
            self.fault_stats.ckpt_overhead += secs;
            secs
        } else {
            self.overhead.restart_secs(&self.jobs[i].job)
        };
        let rt = &mut self.jobs[i];
        rt.speed = speed;
        rt.overhead_total += reload;
        rt.seg_open = Some(now);
        let compute_start = now + reload;
        rt.phase = Phase::Running { compute_start };
        // Estimated release: reload + estimated remaining computation.
        let executed = rt.job.run - rt.remaining;
        let est_end = compute_start + secs_for((rt.job.estimate - executed).max(1), speed);
        let procs = rt.job.procs;
        let done_at = compute_start + secs_for(rt.remaining, speed);
        let epoch = rt.epoch;
        self.hot.tag[i] = Phase::Running { compute_start }.tag();
        self.hot.est_end[i] = est_end;
        self.avail.add(est_end, procs);
        queue.push(
            done_at,
            EventClass::Completion,
            Event::Completion { job: id, epoch },
        );
        self.suspended.retain(|&q| q != id);
        self.running.push(id);
        true
    }
}
