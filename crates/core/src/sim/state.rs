//! Simulation state: the job table, phase lists, and the incremental
//! kernel structures (release ledger + occupancy index).

use sps_cluster::{work_done, AvailabilityProfile, Cluster, ProcSet, Profile};
use sps_metrics::{FaultSummary, JobOutcome, OutcomeFold, RejectionSummary};
use sps_simcore::{Secs, SimTime};
use sps_workload::{Job, JobId};

use super::index::SchedIndex;
use crate::checkpoint::{CheckpointModel, PreemptionMode};
use crate::overhead::OverheadModel;

/// Simulator events. Public only because the engine's
/// [`sps_simcore::Simulation`] trait exposes the event type; constructed
/// exclusively by the simulator.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// A job reaches its submit time.
    Arrival(JobId),
    /// A running job's computation finishes. `epoch` invalidates stale
    /// completions after a suspension.
    Completion { job: JobId, epoch: u32 },
    /// A suspension drain finished; the victim's processors are now free.
    /// `epoch` invalidates the drain of a job a fault killed mid-drain.
    DrainDone { job: JobId, epoch: u32 },
    /// A processor failed (fault injection).
    ProcFailed(u32),
    /// A processor returned from repair (fault injection).
    ProcRepaired(u32),
    /// An injected job crash. `epoch` invalidates crashes scheduled for a
    /// dispatch that was preempted or completed first.
    Crash { job: JobId, epoch: u32 },
    /// Periodic scheduler activity.
    Tick,
}

/// Where a job is in its life cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Before its submit time.
    NotArrived,
    /// Waiting in the queue, never started.
    Queued,
    /// On processors. Computation progresses from `compute_start` (which
    /// lies in the future during a restart reload).
    Running {
        /// When computation (re)starts — dispatch time plus reload
        /// overhead.
        compute_start: SimTime,
    },
    /// Preempted; memory image draining until the stored instant, with
    /// processors still occupied.
    Draining,
    /// Off-machine, waiting to re-enter on its original processors.
    Suspended,
    /// Finished.
    Done,
}

impl Phase {
    /// The dense discriminant mirrored into the hot arrays.
    pub(crate) fn tag(&self) -> PhaseTag {
        match self {
            Phase::NotArrived => PhaseTag::NotArrived,
            Phase::Queued => PhaseTag::Queued,
            Phase::Running { .. } => PhaseTag::Running,
            Phase::Draining => PhaseTag::Draining,
            Phase::Suspended => PhaseTag::Suspended,
            Phase::Done => PhaseTag::Done,
        }
    }
}

/// One-byte phase discriminant, the state tag of the hot arrays. Kept
/// coherent with [`JobRt::phase`] by [`SimState::set_phase`] (the single
/// phase-write choke point) and cross-checked by
/// [`SimState::validate_kernel`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub(crate) enum PhaseTag {
    NotArrived,
    Queued,
    Running,
    Draining,
    Suspended,
    Done,
}

/// Stable dense index of a job in the hot arrays. Ids are dense by the
/// source contract, so a job's slot is simply its id index and never
/// moves — policies may cache slots across decides.
///
/// Caveat: under a lean (fold-only) run the kernel reclaims the Done
/// prefix of the tables ([`SimState::maybe_trim`]), so a hot-array slot
/// is `id.index() - trimmed` there and this direct mapping only holds
/// for full (non-lean) runs — which is every run a policy can observe
/// slots in, since trimming strictly follows terminal states.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobSlot(pub u32);

impl From<JobId> for JobSlot {
    fn from(id: JobId) -> Self {
        JobSlot(id.0)
    }
}

impl JobSlot {
    /// The array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Structure-of-arrays hot state: the per-job fields every decide
/// touches, in dense parallel arrays indexed by [`JobSlot`]. The victim
/// scan, the idle-priority sweep, and the no-op certification walk these
/// as contiguous memory instead of striding through ~200-byte [`JobRt`]
/// records; cold fields (processor sets, overhead ledgers, fault
/// bookkeeping) stay in the [`JobRt`] side table.
///
/// `width` and `est` are immutable copies of the job record (safe to
/// duplicate); `tag`, `wait_accum`, `wait_since`, and `est_end` live
/// *only* here — [`JobRt`] no longer carries them.
#[derive(Default)]
pub(crate) struct HotState {
    /// Phase discriminant (see [`PhaseTag`]).
    pub(crate) tag: Vec<PhaseTag>,
    /// Requested processor count (copy of `job.procs`).
    pub(crate) width: Vec<u32>,
    /// User estimate floored at one second — the xfactor denominator.
    pub(crate) est: Vec<Secs>,
    /// Waiting time accumulated over closed waiting intervals.
    pub(crate) wait_accum: Vec<Secs>,
    /// Start of the current waiting interval (valid while waiting).
    pub(crate) wait_since: Vec<SimTime>,
    /// Expected release time of the current dispatch, by the user
    /// estimate. Used to build backfilling profiles; for a draining
    /// victim, the drain-done instant.
    pub(crate) est_end: Vec<SimTime>,
}

impl HotState {
    fn with_capacity(n: usize) -> Self {
        HotState {
            tag: Vec::with_capacity(n),
            width: Vec::with_capacity(n),
            est: Vec::with_capacity(n),
            wait_accum: Vec::with_capacity(n),
            wait_since: Vec::with_capacity(n),
            est_end: Vec::with_capacity(n),
        }
    }

    /// Append the hot row for a fresh job.
    fn push(&mut self, job: &Job) {
        self.tag.push(PhaseTag::NotArrived);
        self.width.push(job.procs);
        self.est.push(job.estimate.max(1));
        self.wait_accum.push(0);
        self.wait_since.push(job.submit);
        self.est_end.push(SimTime::MAX);
    }

    /// Is the slot in a waiting phase (queued, draining, or suspended)?
    #[inline]
    pub(crate) fn is_waiting(&self, i: usize) -> bool {
        matches!(
            self.tag[i],
            PhaseTag::Queued | PhaseTag::Draining | PhaseTag::Suspended
        )
    }
}

/// Runtime record for one job: the cold side table. Fields consulted on
/// every decide live in [`HotState`] instead.
#[derive(Clone, Debug)]
pub(crate) struct JobRt {
    pub(crate) job: Job,
    pub(crate) phase: Phase,
    /// Processor set currently or last held (persists through suspension).
    pub(crate) assigned: Option<ProcSet>,
    /// Work-units of computation still to do (a work-unit is one second on
    /// a speed-1.0 processor, so on the homogeneous machine this is
    /// literally seconds).
    pub(crate) remaining: Secs,
    /// Gang-synchronous rate of the current (or last) dispatch: the speed
    /// of the slowest processor in the assigned set. 1.0 until the first
    /// dispatch and always 1.0 on a homogeneous machine.
    pub(crate) speed: f64,
    /// First dispatch instant.
    pub(crate) first_start: Option<SimTime>,
    /// Number of suspensions suffered.
    pub(crate) suspensions: u32,
    /// Total drain + reload seconds charged so far.
    pub(crate) overhead_total: Secs,
    /// Bumped on every suspension or kill to invalidate in-flight
    /// completion/drain/crash events.
    pub(crate) epoch: u32,
    /// Dispatch instant of the currently open occupancy segment.
    pub(crate) seg_open: Option<SimTime>,
    /// How many times a fault killed this job (work lost, resubmitted).
    pub(crate) kills: u32,
    /// Pending injected crash: the job dies once its executed work reaches
    /// this many seconds. Cleared after firing.
    pub(crate) crash_after: Option<Secs>,
    /// When the suspended job became stranded (a processor of its reserved
    /// set went down under `WaitForRepair`).
    pub(crate) stranded_since: Option<SimTime>,
    /// Stranded under `RecoveryPolicy::Remap`: the scheduler may restart
    /// this job on a different processor set despite the paper's locality
    /// rule.
    pub(crate) remap: bool,
}

impl JobRt {
    pub(crate) fn new(job: Job) -> Self {
        let remaining = job.run;
        JobRt {
            job,
            phase: Phase::NotArrived,
            assigned: None,
            remaining,
            speed: 1.0,
            first_start: None,
            suspensions: 0,
            overhead_total: 0,
            epoch: 0,
            seg_open: None,
            kills: 0,
            crash_after: None,
            stranded_since: None,
            remap: false,
        }
    }

    /// Work-units of computation completed by `now`. While dispatched,
    /// progress accrues at the dispatch's gang-synchronous speed.
    pub(crate) fn executed_at(&self, now: SimTime) -> Secs {
        let done_before = self.job.run - self.remaining;
        match self.phase {
            Phase::Running { compute_start } if now > compute_start => {
                done_before + work_done(now - compute_start, self.speed)
            }
            _ => done_before,
        }
    }
}

/// One contiguous interval during which a job physically occupied its
/// processor set — from dispatch (start or resume) to release (completion,
/// or the end of the suspension drain). Reload and drain overhead time is
/// included: the processors are busy, even though no productive work runs.
#[derive(Clone, Debug)]
pub struct OccupancySegment {
    /// The occupying job.
    pub job: JobId,
    /// Dispatch instant.
    pub start: SimTime,
    /// Release instant.
    pub end: SimTime,
    /// The exact processors held.
    pub procs: ProcSet,
}

/// Read view of the simulation handed to policies, and the mutable state
/// the simulator applies actions against.
pub struct SimState {
    pub(crate) now: SimTime,
    pub(crate) cluster: Cluster,
    pub(crate) jobs: Vec<JobRt>,
    /// The decide path's structure-of-arrays hot fields, parallel to
    /// `jobs` (same dense [`JobSlot`] indexing).
    pub(crate) hot: HotState,
    /// Never-started jobs, in arrival order.
    pub(crate) queued: Vec<JobId>,
    /// Fully drained, waiting to re-enter, in suspension order.
    pub(crate) suspended: Vec<JobId>,
    /// Currently dispatched (running or reloading).
    pub(crate) running: Vec<JobId>,
    /// Number of materialized jobs not yet Done (arrived or not).
    pub(crate) incomplete: usize,
    pub(crate) overhead: OverheadModel,
    pub(crate) outcomes: Vec<JobOutcome>,
    pub(crate) segments: Vec<OccupancySegment>,
    pub(crate) preemptions: u64,
    pub(crate) dropped_actions: u64,
    /// Fault counters (all zero without fault injection).
    pub(crate) fault_stats: FaultSummary,
    /// Rejection ledger (empty without admission control).
    pub(crate) rejections: RejectionSummary,
    /// Release ledger: expected end → processors, one contribution per
    /// occupying (Running/Draining) job, maintained by delta.
    pub(crate) avail: AvailabilityProfile,
    /// Per-processor occupancy/claims/draining index, maintained by delta.
    pub(crate) index: SchedIndex,
    /// How preempted/killed jobs hold their state (the preemption
    /// continuum; [`PreemptionMode::InPlace`] reproduces the paper).
    pub(crate) pmode: PreemptionMode,
    /// Checkpoint image cost model (consulted only when `pmode`
    /// checkpoints).
    pub(crate) ckpt: CheckpointModel,
    /// Lean (outcome-streaming) mode: when set, each completion folds
    /// into this fixed-size accumulator instead of growing `outcomes`,
    /// and occupancy segments are dropped at close. Memory stays O(1) in
    /// the job count — the mega-sweep path. `None` (the default) retains
    /// everything, byte-identical to the historical behavior.
    pub(crate) lean: Option<OutcomeFold>,
    /// Slots reclaimed off the front of `jobs`/`hot` by lean-mode
    /// trimming (see [`SimState::maybe_trim`]). Always 0 outside lean
    /// runs, so id and window index coincide there.
    pub(crate) trimmed: usize,
    /// Trim cursor: the first window index not yet known to be Done.
    /// Done is terminal, so the cursor only ever advances.
    trim_scan: usize,
    /// Lifecycle transitions so far, arrivals excepted: every start,
    /// resume, suspension, drain end, completion and kill, and every
    /// processor failure or repair (which is where stranded and remap
    /// flags change). Between two equal readings only arrivals and the
    /// clock moved, so a policy may keep what it proved about the
    /// machine until the count moves (see [`SimState::transitions`]).
    pub(crate) transitions: u64,
}

impl SimState {
    /// An empty machine whose job table is sized for `n` jobs (the
    /// source's length when it knows one, else 0); jobs arrive through
    /// [`SimState::push_job`].
    pub(crate) fn new(n: usize, procs: u32, overhead: OverheadModel) -> Self {
        // Pre-size the hot lists for their worst cases: every job can be
        // queued at once; at most one running job per processor (each
        // needs ≥ 1); outcomes reach exactly n; segments get one entry
        // per dispatch, i.e. n plus one per suspension.
        let concurrent = (procs as usize).min(n);
        SimState {
            now: SimTime::ZERO,
            cluster: Cluster::new(procs),
            jobs: Vec::with_capacity(n),
            hot: HotState::with_capacity(n),
            queued: Vec::with_capacity(n),
            suspended: Vec::with_capacity(concurrent),
            running: Vec::with_capacity(concurrent),
            incomplete: 0,
            overhead,
            outcomes: Vec::with_capacity(n),
            segments: Vec::with_capacity(n + n / 4),
            preemptions: 0,
            dropped_actions: 0,
            fault_stats: FaultSummary::default(),
            rejections: RejectionSummary::default(),
            avail: AvailabilityProfile::new(),
            index: SchedIndex::new(procs),
            pmode: PreemptionMode::InPlace,
            ckpt: CheckpointModel::default(),
            lean: None,
            trimmed: 0,
            trim_scan: 0,
            transitions: 0,
        }
    }

    /// Completed jobs so far, whichever way outcomes are kept.
    pub(crate) fn completed(&self) -> usize {
        self.lean
            .as_ref()
            .map_or(self.outcomes.len(), OutcomeFold::count)
    }

    /// The window index of `id` in `jobs`/`hot`. Identity (`id.index()`)
    /// outside lean runs; offset by the reclaimed prefix inside them.
    #[inline]
    pub(crate) fn slot(&self, id: JobId) -> usize {
        debug_assert!(
            id.index() >= self.trimmed,
            "access to reclaimed job slot {id:?} (trimmed {})",
            self.trimmed
        );
        id.index() - self.trimmed
    }

    /// Whether this id's slot was reclaimed by lean trimming. Such a job
    /// is necessarily Done, so any event still naming it is stale.
    #[inline]
    pub(crate) fn reclaimed(&self, id: JobId) -> bool {
        id.index() < self.trimmed
    }

    /// Lean-mode slot reclamation: drop the Done prefix of the job
    /// window once it is both big enough to matter (amortizing the
    /// drain's memmove) and at least half the window (so each trim frees
    /// at least as much as it copies — O(1) amortized per job).
    ///
    /// Streaming runs complete jobs roughly in arrival order, so the
    /// live window spans one job sojourn's worth of arrivals: peak
    /// memory tracks machine pressure, not log length. Outside lean mode
    /// this is a no-op and ids equal window indices forever.
    pub(crate) fn maybe_trim(&mut self) {
        if self.lean.is_none() {
            return;
        }
        while self.trim_scan < self.jobs.len() && self.hot.tag[self.trim_scan] == PhaseTag::Done {
            self.trim_scan += 1;
        }
        let k = self.trim_scan;
        if k < 1024 || k * 2 < self.jobs.len() {
            return;
        }
        self.jobs.drain(..k);
        self.hot.tag.drain(..k);
        self.hot.width.drain(..k);
        self.hot.est.drain(..k);
        self.hot.wait_accum.drain(..k);
        self.hot.wait_since.drain(..k);
        self.hot.est_end.drain(..k);
        self.trimmed += k;
        self.trim_scan = 0;
    }

    /// Append a job pulled from the source to the table. Ids must stay
    /// dense — the table is indexed by id, less any reclaimed prefix — so
    /// the source seam asserts the invariant here.
    pub(crate) fn push_job(&mut self, job: Job) -> JobId {
        assert_eq!(
            job.id.index(),
            self.trimmed + self.jobs.len(),
            "job source must emit dense ids in order"
        );
        let id = job.id;
        self.hot.push(&job);
        self.jobs.push(JobRt::new(job));
        self.incomplete += 1;
        id
    }

    /// A job reaches its submit time: it joins the queue and its waiting
    /// clock starts now.
    pub(crate) fn arrive(&mut self, id: JobId) {
        let i = self.slot(id);
        debug_assert_eq!(self.jobs[i].phase, Phase::NotArrived);
        self.set_phase(id, Phase::Queued);
        self.hot.wait_since[i] = self.now;
        self.queued.push(id);
    }

    /// Set a job's phase, keeping the hot state tag coherent. Every phase
    /// write goes through here.
    pub(crate) fn set_phase(&mut self, id: JobId, phase: Phase) {
        let i = self.slot(id);
        self.hot.tag[i] = phase.tag();
        self.jobs[i].phase = phase;
    }

    /// Total wait of slot `i` up to the current instant.
    #[inline]
    pub(crate) fn wait_at_slot(&self, i: usize) -> Secs {
        let accum = self.hot.wait_accum[i];
        if self.hot.is_waiting(i) {
            accum + (self.now - self.hot.wait_since[i])
        } else {
            accum
        }
    }

    /// Reject a job that arrived this instant (admission control): remove
    /// it from the queue, mark it done without an outcome, and charge the
    /// ledger. The job never held processors, so no kernel structure needs
    /// repair.
    pub(crate) fn reject(&mut self, id: JobId, penalty: f64) {
        debug_assert_eq!(
            self.jobs[self.slot(id)].phase,
            Phase::Queued,
            "only queued arrivals can be rejected"
        );
        self.set_phase(id, Phase::Done);
        let job = &self.jobs[self.slot(id)].job;
        let est_work = job.estimate * job.procs as i64;
        self.queued.retain(|&q| q != id);
        self.incomplete -= 1;
        self.rejections.record(est_work, penalty);
    }

    /// The lifecycle-transition count: it moves at every change of the
    /// free, draining, running or suspended sets, the down set, a
    /// suspended job's stranded or remap flag, or a completion (which
    /// feeds TSS's limits), and never at an arrival. Two decides that read
    /// the same count saw the same machine, except for the jobs that
    /// arrived in between and the waiting jobs' xfactors.
    pub(crate) fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Machine size.
    pub fn total_procs(&self) -> u32 {
        self.cluster.total()
    }

    /// Free processor count right now.
    pub fn free_count(&self) -> u32 {
        self.cluster.free_count()
    }

    /// The free processor set right now.
    pub fn free_set(&self) -> &ProcSet {
        self.cluster.free_set()
    }

    /// The machine's per-processor speed map (uniform 1.0 unless a
    /// heterogeneous map was installed).
    pub fn speed_map(&self) -> &sps_cluster::SpeedMap {
        self.cluster.speed_map()
    }

    /// The static job record.
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[self.slot(id)].job
    }

    /// The job's requested processor count, from the hot arrays — the
    /// form decide loops use (no cold-record dereference).
    #[inline]
    pub fn width(&self, id: JobId) -> u32 {
        self.hot.width[self.slot(id)]
    }

    /// Never-started queued jobs, in arrival order.
    pub fn queued(&self) -> &[JobId] {
        &self.queued
    }

    /// Suspended jobs awaiting re-entry, in suspension order.
    pub fn suspended(&self) -> &[JobId] {
        &self.suspended
    }

    /// Dispatched jobs (running or reloading).
    pub fn running(&self) -> &[JobId] {
        &self.running
    }

    /// The processor set a dispatched or suspended job occupies/reclaims.
    pub fn assigned_set(&self, id: JobId) -> Option<&ProcSet> {
        self.jobs[self.slot(id)].assigned.as_ref()
    }

    /// Whether the job is idle in the SS/TSS sense: queued or suspended,
    /// i.e. listed in [`queued`](Self::queued) or
    /// [`suspended`](Self::suspended). False for a slot lean trimming
    /// reclaimed (that job is Done).
    #[inline]
    pub(crate) fn is_idle(&self, id: JobId) -> bool {
        !self.reclaimed(id)
            && matches!(
                self.hot.tag[self.slot(id)],
                PhaseTag::Queued | PhaseTag::Suspended
            )
    }

    /// Whether the job has been suspended at least once and is waiting to
    /// re-enter.
    #[inline]
    pub fn is_suspended(&self, id: JobId) -> bool {
        self.hot.tag[self.slot(id)] == PhaseTag::Suspended
    }

    /// The set of processors currently down (empty without fault
    /// injection).
    pub fn down_set(&self) -> &ProcSet {
        self.cluster.down_set()
    }

    /// Number of processors currently down.
    pub fn down_count(&self) -> u32 {
        self.cluster.down_count()
    }

    /// Whether the suspended job is *stranded*: its reserved re-entry set
    /// includes a down processor, so the paper's local-restart rule cannot
    /// be satisfied until repair.
    pub fn is_stranded(&self, id: JobId) -> bool {
        // Without a down processor nothing is stranded; this spares the
        // decide loop the cold-record read on every fault-free run.
        if self.cluster.down_set().is_empty() {
            return false;
        }
        let rt = &self.jobs[self.slot(id)];
        rt.phase == Phase::Suspended
            && rt
                .assigned
                .as_ref()
                .is_some_and(|s| s.overlaps(self.cluster.down_set()))
    }

    /// Whether this suspended job is released from the paper's
    /// local-restart rule: either the recovery policy remapped it
    /// ([`crate::faults::RecoveryPolicy::Remap`]) or the active
    /// [`PreemptionMode`] migrates by construction. The scheduler may
    /// resume such a job on any equally-sized free set.
    pub fn can_remap(&self, id: JobId) -> bool {
        self.jobs[self.slot(id)].remap || self.pmode.migrates()
    }

    /// The active preemption mode.
    pub fn preemption_mode(&self) -> PreemptionMode {
        self.pmode
    }

    /// Jobs sharing the checkpoint path right now: every dispatched job
    /// is a potential concurrent checkpointer, floored at one (the job
    /// being charged). Drives [`CheckpointModel::contention`].
    pub(crate) fn ckpt_sharers(&self) -> usize {
        self.running.len().max(1)
    }

    /// Fault counters accumulated so far (all zero without faults).
    pub fn fault_stats(&self) -> &FaultSummary {
        &self.fault_stats
    }

    /// Rejection ledger accumulated so far (empty without admission
    /// control).
    pub fn rejections(&self) -> &RejectionSummary {
        &self.rejections
    }

    /// Estimated outstanding work, in machine-seconds: queued jobs'
    /// full estimated work plus dispatched/suspended jobs' estimated
    /// remaining work, over machine size. This is the signal the
    /// load-adaptive admission baseline thresholds on. (Draining victims
    /// are mid-transition for at most one drain interval and are ignored.)
    pub fn backlog_secs(&self) -> f64 {
        let mut work: i64 = 0;
        for &id in &self.queued {
            let j = &self.jobs[self.slot(id)].job;
            work += j.estimate * j.procs as i64;
        }
        for &id in &self.running {
            let j = &self.jobs[self.slot(id)].job;
            work += self.estimated_remaining(id) * j.procs as i64;
        }
        for &id in &self.suspended {
            let rt = &self.jobs[self.slot(id)];
            let left = (rt.job.estimate - rt.executed_at(self.now)).max(1);
            work += left * rt.job.procs as i64;
        }
        work as f64 / self.cluster.total().max(1) as f64
    }

    /// Whether the job is currently dispatched.
    #[inline]
    pub fn is_running(&self, id: JobId) -> bool {
        self.hot.tag[self.slot(id)] == PhaseTag::Running
    }

    /// The SS/TSS suspension priority (Section IV): expansion factor
    /// `(wait + estimated run) / estimated run`. Grows while the job
    /// waits, frozen while it runs. Reads only the hot arrays — this is
    /// the innermost operation of every SS/TSS/IS decide.
    #[inline]
    pub fn xfactor(&self, id: JobId) -> f64 {
        let i = self.slot(id);
        let est = self.hot.est[i] as f64;
        (self.wait_at_slot(i) as f64 + est) / est
    }

    /// The [`xfactor`](Self::xfactor)'s denominator: the user estimate
    /// floored at one second. A waiting job's xfactor grows by `1 / est`
    /// per second; a running job's stays where its dispatch left it.
    #[inline]
    pub fn xfactor_est(&self, id: JobId) -> Secs {
        self.hot.est[self.slot(id)]
    }

    /// IS's instantaneous xfactor (Section II-C):
    /// `(wait + accumulated run) / accumulated run`, with the denominator
    /// floored at one second (a job that has barely run is effectively
    /// unpreemptable, protecting fresh dispatches).
    pub fn inst_xfactor(&self, id: JobId) -> f64 {
        let i = self.slot(id);
        let acc = self.jobs[i].executed_at(self.now).max(1) as f64;
        (self.wait_at_slot(i) as f64 + acc) / acc
    }

    /// Expected release time of a dispatched job per the user estimate
    /// (dispatch instant + estimated remaining work + reload overhead).
    #[inline]
    pub fn estimated_release(&self, id: JobId) -> SimTime {
        self.hot.est_end[self.slot(id)]
    }

    /// The future-availability profile from occupying jobs' estimated
    /// releases — the input to backfilling anchor searches. Processors
    /// held by draining victims are treated as releasing at the drain end
    /// (they are still occupied now).
    ///
    /// Materialized from the incrementally-maintained release ledger in
    /// one ordered walk; debug builds cross-check against a from-scratch
    /// rebuild over the job table.
    pub fn profile(&self) -> Profile {
        let mut out = Profile::empty();
        self.profile_into(&mut out);
        out
    }

    /// [`profile`](Self::profile) into a caller-owned buffer, reusing its
    /// breakpoint allocation — the form the per-decide reservation
    /// planners use so that rematerializing the profile every decide
    /// stays off the allocator.
    pub fn profile_into(&self, out: &mut Profile) {
        // Down processors are masked out of the capacity: a reservation
        // must not count on a processor that may never come back in time.
        self.avail.snapshot_into(
            self.now,
            self.cluster.total() - self.cluster.down_count(),
            self.cluster.free_count(),
            out,
        );
        debug_assert_eq!(
            *out,
            self.rebuild_profile(),
            "incremental release ledger diverged from the job table"
        );
    }

    /// From-scratch profile rebuild (the pre-incremental implementation),
    /// kept as the debug cross-check for [`profile`](Self::profile) and
    /// the kernel property tests.
    pub(crate) fn rebuild_profile(&self) -> Profile {
        let mut releases: Vec<(SimTime, u32)> = Vec::with_capacity(self.running.len());
        for &id in &self.running {
            let i = self.slot(id);
            releases.push((self.hot.est_end[i], self.hot.width[i]));
        }
        for i in (0..self.jobs.len()).filter(|&i| self.hot.tag[i] == PhaseTag::Draining) {
            // est_end holds the drain-done instant for draining jobs.
            releases.push((self.hot.est_end[i], self.hot.width[i]));
        }
        Profile::new(
            self.now,
            self.cluster.total() - self.cluster.down_count(),
            self.cluster.free_count(),
            &releases,
        )
    }

    /// Union of the processor sets held by jobs whose suspension drain is
    /// still in progress — see [`SchedIndex::draining_set`]. Maintained
    /// incrementally; borrow, don't rebuild.
    pub fn draining_set(&self) -> &ProcSet {
        self.index.draining_set()
    }

    /// The per-processor occupancy index.
    pub fn index(&self) -> &SchedIndex {
        &self.index
    }

    /// Completed-job records so far (final at the end of the run).
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Remaining *estimated* work of a dispatched job — what a
    /// reservation-based scheduler believes is left.
    pub fn estimated_remaining(&self, id: JobId) -> Secs {
        (self.estimated_release(id) - self.now).max(1)
    }

    /// Recount every incrementally-maintained kernel structure from the
    /// job table and panic on any divergence. Exercised by the kernel
    /// property tests after arbitrary event sequences (and cheap enough
    /// to call from tests at every decision instant).
    pub fn validate_kernel(&self) {
        let total = self.cluster.total();
        // Occupancy map: exactly the Running/Draining holders.
        let mut occupant: Vec<Option<JobId>> = vec![None; total as usize];
        let mut draining = ProcSet::empty(total);
        let mut draining_jobs = 0u32;
        let mut ledger = AvailabilityProfile::new();
        // Hot arrays must be a coherent mirror of the cold table.
        assert_eq!(
            self.hot.tag.len(),
            self.jobs.len(),
            "hot arrays out of step"
        );
        for (i, rt) in self.jobs.iter().enumerate() {
            assert_eq!(self.hot.tag[i], rt.phase.tag(), "phase tag diverged");
            assert_eq!(self.hot.width[i], rt.job.procs, "width copy diverged");
            assert_eq!(
                self.hot.est[i],
                rt.job.estimate.max(1),
                "estimate copy diverged"
            );
        }
        for (i, rt) in self.jobs.iter().enumerate() {
            match rt.phase {
                Phase::Running { .. } | Phase::Draining => {
                    let set = rt.assigned.as_ref().expect("occupying job has a set");
                    for p in set.iter() {
                        assert!(occupant[p as usize].is_none(), "proc {p} held by two jobs");
                        occupant[p as usize] = Some(rt.job.id);
                    }
                    ledger.add(self.hot.est_end[i], rt.job.procs);
                    if rt.phase == Phase::Draining {
                        draining.union_with(set);
                        draining_jobs += 1;
                    }
                }
                _ => {}
            }
        }
        for p in 0..total {
            assert_eq!(
                self.index.occupant(p),
                occupant[p as usize],
                "occupant index diverged at proc {p}"
            );
            let claims: Vec<JobId> = self
                .suspended
                .iter()
                .copied()
                .filter(|&id| {
                    self.jobs[self.slot(id)]
                        .assigned
                        .as_ref()
                        .is_some_and(|s| s.contains(p))
                })
                .collect();
            assert_eq!(
                self.index.claims(p),
                claims.as_slice(),
                "claims index diverged at proc {p}"
            );
        }
        assert_eq!(
            self.index.draining_set(),
            &draining,
            "draining set diverged"
        );
        assert_eq!(
            self.index.draining_jobs(),
            draining_jobs,
            "draining job count diverged"
        );
        assert_eq!(
            self.avail, ledger,
            "release ledger diverged from the job table"
        );
        assert_eq!(
            self.avail.snapshot(
                self.now,
                total - self.cluster.down_count(),
                self.cluster.free_count(),
            ),
            self.rebuild_profile(),
            "ledger snapshot diverged from the from-scratch profile"
        );
    }
}
