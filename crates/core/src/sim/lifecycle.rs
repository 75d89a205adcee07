//! Taking work off processors: suspension, drains, completion, and fault
//! kills.
//!
//! Every path that takes processors away from a job retracts its release
//! from the ledger and updates the occupancy index; a job entering the
//! Suspended phase registers per-processor re-entry claims instead.

use sps_cluster::{work_done, ProcSet};
use sps_metrics::JobOutcome;
use sps_simcore::{EventClass, EventQueue, Secs, SimTime};
use sps_workload::JobId;

use super::state::{Event, OccupancySegment, Phase, SimState};

impl SimState {
    /// Preempt a dispatched job. Its processors stay occupied for the
    /// drain time (zero under [`crate::overhead::OverheadModel::None`], in
    /// which case they free immediately). Returns false if the job is not
    /// dispatched.
    pub(crate) fn suspend(&mut self, id: JobId, queue: &mut EventQueue<Event>) -> bool {
        let now = self.now;
        let i = self.slot(id);
        let Phase::Running { compute_start } = self.jobs[i].phase else {
            return false;
        };
        self.transitions += 1;
        let drain = self.overhead.suspend_secs(&self.jobs[i].job);
        // The dispatch's ledgered release is stale either way: a zero
        // drain frees the processors now, a non-zero one re-ledgers them
        // at the drain end below.
        self.avail.remove(self.hot.est_end[i], self.hot.width[i]);
        let rt = &mut self.jobs[i];
        // Work accomplished this dispatch: elapsed compute time at the
        // dispatch's gang rate. The floor in `work_done` never overcredits,
        // so a suspension strictly before the completion event always
        // leaves remaining work.
        let executed_this_dispatch = work_done((now - compute_start).max(0), rt.speed);
        rt.remaining -= executed_this_dispatch;
        // A job suspended while still reloading never consumed the tail of
        // its reload; give that time back so overhead accounting equals
        // the processor time actually spent on transitions.
        let unused_reload = (compute_start - now).max(0);
        rt.overhead_total -= unused_reload;
        debug_assert!(rt.overhead_total >= 0);
        debug_assert!(rt.remaining > 0, "suspending a job that already finished");
        rt.suspensions += 1;
        rt.overhead_total += drain;
        rt.epoch += 1; // invalidate the in-flight completion event
        self.hot.wait_since[i] = now; // waiting clock restarts at the preemption
        self.running.retain(|&q| q != id);
        self.preemptions += 1;
        if drain == 0 {
            let set = self.jobs[i]
                .assigned
                .clone()
                .expect("dispatched job has a set");
            self.cluster.release(&set);
            self.index.vacate(&set, id);
            self.index.claim(&set, id);
            self.close_segment(id, &set);
            self.set_phase(id, Phase::Suspended);
            self.suspended.push(id);
        } else {
            let set = self.jobs[i]
                .assigned
                .clone()
                .expect("dispatched job has a set");
            self.index.drain_begin(&set);
            self.set_phase(id, Phase::Draining);
            let est_end = now + drain; // profile sees the drain occupancy
            self.hot.est_end[i] = est_end;
            self.avail.add(est_end, self.hot.width[i]);
            queue.push(
                now + drain,
                EventClass::ProcsFreed,
                Event::DrainDone {
                    job: id,
                    epoch: self.jobs[i].epoch,
                },
            );
        }
        true
    }

    /// A drain finished: release the victim's processors and make it
    /// eligible for re-entry.
    pub(crate) fn drain_done(&mut self, id: JobId) {
        let i = self.slot(id);
        debug_assert_eq!(self.jobs[i].phase, Phase::Draining);
        self.transitions += 1;
        let set = self.jobs[i]
            .assigned
            .clone()
            .expect("draining job has a set");
        self.avail.remove(self.hot.est_end[i], self.hot.width[i]);
        self.cluster.release(&set);
        self.index.vacate(&set, id);
        self.index.drain_end(&set);
        self.index.claim(&set, id);
        self.close_segment(id, &set);
        self.set_phase(id, Phase::Suspended);
        self.suspended.push(id);
    }

    /// Forcibly evict `id` after a fault and requeue it (its `first_start`
    /// is kept for the metrics — the machine did start it). Under
    /// [`crate::checkpoint::PreemptionMode::InPlace`] all accumulated work
    /// is lost; under a checkpointing mode the job rolls back only to its
    /// last image — the latest periodic checkpoint of the interrupted
    /// dispatch segment, or everything up to the segment for jobs whose
    /// earlier work was banked by an on-suspend drain. Returns the
    /// destroyed work in processor-seconds. Legal from Running, Draining,
    /// and Suspended.
    pub(crate) fn kill(&mut self, id: JobId) -> Secs {
        let now = self.now;
        let i = self.slot(id);
        self.transitions += 1;
        let executed = self.jobs[i].executed_at(now);
        let seg_executed = executed - (self.jobs[i].job.run - self.jobs[i].remaining);
        let procs = self.jobs[i].job.procs;
        match self.jobs[i].phase {
            Phase::Running { compute_start } => {
                let set = self.jobs[i]
                    .assigned
                    .clone()
                    .expect("dispatched job has a set");
                self.avail.remove(self.hot.est_end[i], procs);
                self.cluster.release(&set);
                self.index.vacate(&set, id);
                self.close_segment(id, &set);
                self.running.retain(|&q| q != id);
                // A job killed mid-reload never consumed the reload tail.
                self.jobs[i].overhead_total -= (compute_start - now).max(0);
                self.hot.wait_since[i] = now;
            }
            Phase::Draining => {
                let set = self.jobs[i]
                    .assigned
                    .clone()
                    .expect("draining job has a set");
                self.avail.remove(self.hot.est_end[i], procs);
                self.cluster.release(&set);
                self.index.vacate(&set, id);
                self.index.drain_end(&set);
                self.close_segment(id, &set);
                // The drain tail never ran; the wait clock has been running
                // since the suspension.
                self.jobs[i].overhead_total -= (self.hot.est_end[i] - now).max(0);
            }
            Phase::Suspended => {
                let set = self.jobs[i]
                    .assigned
                    .clone()
                    .expect("suspended job keeps its set");
                self.index.unclaim(&set, id);
                self.suspended.retain(|&q| q != id);
                if let Some(since) = self.jobs[i].stranded_since.take() {
                    self.fault_stats.stranded_secs += now - since;
                }
            }
            ref phase => unreachable!("kill of job in phase {phase:?}"),
        }
        // Checkpoint retention: prior segments' work was imaged by the
        // on-suspend drain, and the interrupted segment keeps its latest
        // periodic checkpoint. Clamped so the requeued job always has at
        // least one second left to run.
        let retained = if self.pmode.checkpoints() {
            let banked = executed - seg_executed;
            let images = seg_executed / self.ckpt.interval;
            if images > 0 {
                let sharers = self.ckpt_sharers();
                let speed = self.jobs[i].speed;
                let job = &self.jobs[i].job;
                self.fault_stats.ckpt_overhead +=
                    images * self.ckpt.image_secs_at(job, sharers, speed);
            }
            let kept = banked + self.ckpt.retained_secs(seg_executed);
            kept.min(self.jobs[i].job.run - 1).max(0)
        } else {
            0
        };
        let rt = &mut self.jobs[i];
        debug_assert!(rt.overhead_total >= 0);
        debug_assert!(retained <= executed, "cannot retain unexecuted work");
        rt.remaining = rt.job.run - retained;
        rt.epoch += 1; // invalidate in-flight completion/drain/crash events
        rt.assigned = None;
        rt.kills += 1;
        rt.remap = false;
        rt.stranded_since = None;
        self.set_phase(id, Phase::Queued);
        self.hot.est_end[i] = SimTime::MAX;
        self.queued.push(id);
        let lost = (executed - retained) * procs as i64;
        self.fault_stats.lost_work += lost;
        lost
    }

    /// Suspended jobs whose reserved re-entry set includes processor `p`,
    /// in suspension order — an O(claims) borrow from the index rather
    /// than the old O(jobs) scan.
    pub(crate) fn suspended_on(&self, p: u32) -> Vec<JobId> {
        self.index.claims(p).to_vec()
    }

    /// Close the job's open occupancy segment at the current instant.
    pub(crate) fn close_segment(&mut self, id: JobId, set: &ProcSet) {
        let i = self.slot(id);
        let start = self.jobs[i]
            .seg_open
            .take()
            .expect("releasing processors closes an open segment");
        // Lean runs fold outcomes and never render timelines, so the
        // segment record would only grow O(dispatches) for nothing.
        if self.lean.is_some() {
            return;
        }
        self.segments.push(OccupancySegment {
            job: id,
            start,
            end: self.now,
            procs: set.clone(),
        });
    }

    /// A valid completion event: record the outcome and free the machine.
    pub(crate) fn complete(&mut self, id: JobId) -> JobOutcome {
        let now = self.now;
        let i = self.slot(id);
        debug_assert!(matches!(self.jobs[i].phase, Phase::Running { .. }));
        self.transitions += 1;
        let set = self.jobs[i]
            .assigned
            .clone()
            .expect("running job has a set");
        self.avail.remove(self.hot.est_end[i], self.hot.width[i]);
        self.cluster.release(&set);
        self.index.vacate(&set, id);
        self.close_segment(id, &set);
        self.running.retain(|&q| q != id);
        // Account the final segment's periodic image drains (they overlap
        // computation, so they never perturbed the schedule — this is pure
        // cost reporting).
        if self.pmode.checkpoints() {
            let rt = &self.jobs[i];
            let images = rt.remaining / self.ckpt.interval;
            if images > 0 {
                let sharers = self.ckpt_sharers();
                self.fault_stats.ckpt_overhead +=
                    images * self.ckpt.image_secs_at(&rt.job, sharers, rt.speed);
            }
        }
        self.jobs[i].remaining = 0;
        self.set_phase(id, Phase::Done);
        self.incomplete -= 1;
        let rt = &self.jobs[i];
        let outcome = JobOutcome::new(
            &rt.job,
            rt.first_start.expect("completed job started"),
            now,
            rt.suspensions,
            rt.overhead_total,
        )
        .with_kills(rt.kills);
        match &mut self.lean {
            Some(fold) => fold.push(&outcome),
            None => self.outcomes.push(outcome.clone()),
        }
        self.maybe_trim();
        outcome
    }
}
