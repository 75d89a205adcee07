//! The shared preemption planner: the machinery every policy's `decide`
//! re-implemented before it lived here.
//!
//! Policies plan against a *mirror* of machine state so several decisions
//! in one instant stay consistent: a planned start consumes mirrored free
//! processors, a planned suspension returns the victim's. This module
//! provides the pieces of that mirror that were duplicated across SS, TSS,
//! IS, EASY, conservative, and flex, all driven by the incremental kernel
//! structures ([`crate::sim::SchedIndex`] and the simulator's availability
//! ledger) instead of per-decide job-table scans:
//!
//! * [`DecideArena`] — policy-owned scratch buffers so the decide path
//!   performs no transient heap allocation (the only allocations left are
//!   the `ProcSet`s handed out inside emitted actions),
//! * [`working_free_set_into`] — the planning free pool (free ∪ draining),
//! * [`pinned_claims_into`] — the re-entry reservations of suspended jobs,
//! * [`VictimTable`] — a reusable POD mirror of the running jobs for
//!   victim scans (processor sets are fetched from simulator state on
//!   demand — the entries carry no borrows, so the table persists across
//!   decides inside the arena), with a lazily built cumulative cover of
//!   its sorted order that lets SS/TSS reject hopeless scans in O(words),
//! * [`IdleOrder`] — SS/TSS's idle priority list, kept across decides and
//!   repaired in O(n + inversions) instead of re-sorted,
//! * [`alloc_avoiding_in`] — claim-aware placement for fresh dispatches,
//! * [`ReservationLadder`] — the anchor-search/backfill view of the
//!   availability profile shared by the reservation-based baselines,
//!   rebuilt in place each decide.

use sps_cluster::{ProcSet, Profile, SpeedMap};
use sps_simcore::SimTime;
use sps_workload::{Job, JobId};

use crate::sim::SimState;

/// Fill `dst` with the planning free pool: processors free now *plus*
/// those whose suspension drain is already in flight. Draining processors
/// are promised back within one drain time, and a planner that ignores
/// them re-suspends a fresh victim at every tick of a long drain (the
/// simulator drops actions that race a pending drain; the policy
/// re-decides at the drain-done instant).
pub(crate) fn working_free_set_into(state: &SimState, dst: &mut ProcSet) {
    dst.copy_from(state.free_set());
    dst.union_with(state.draining_set());
}

/// Fill `dst` with the union of the processor claims of suspended jobs
/// that are pinned to their original processors (local preemption). A
/// suspended job can only restart on its claimed set, so the union acts
/// as a placement reservation for fresh dispatches. Jobs the
/// fault-recovery policy marked for remapping claim nothing — they may
/// restart anywhere. `dst` must already be cleared to the machine
/// universe.
pub(crate) fn pinned_claims_into(state: &SimState, dst: &mut ProcSet) {
    debug_assert!(dst.is_empty() && dst.universe() == state.total_procs());
    for &sid in state.suspended() {
        if state.can_remap(sid) {
            continue;
        }
        dst.union_with(
            state
                .assigned_set(sid)
                .expect("suspended job keeps its set"),
        );
    }
}

/// One running job in a policy's planning mirror — plain data (no borrow
/// of the job's processor set), so tables of victims can persist across
/// decides. Callers needing the set fetch it through
/// [`SimState::assigned_set`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Victim {
    pub id: JobId,
    /// The policy's suspension priority for this job (xfactor for SS/TSS,
    /// instantaneous xfactor for IS), frozen at mirror construction.
    pub prio: f64,
    pub procs: u32,
}

/// The running-job mirror used for victim scans. Entries start in
/// dispatch order (the simulator's running-queue order); policies that
/// scan cheapest-victim-first call [`VictimTable::sort_ascending`].
///
/// Over its current order the table also keeps a lazily extended
/// *cumulative cover*: [`cover`](Self::cover)`(k)` is the union of the
/// processor sets of the first `k` entries. Prefixes are built only as
/// far as a query reaches and are discarded whenever the order changes
/// (fill, sort, removal), as is the
/// [`qualifying_prefix`](Self::qualifying_prefix) cursor.
#[derive(Clone, Debug, Default)]
pub(crate) struct VictimTable {
    entries: Vec<Victim>,
    /// `cover[k]` is valid for `k < covered`; buffers past it are kept
    /// only for reuse.
    cover: Vec<ProcSet>,
    covered: usize,
    /// Upper bound on the qualifying prefix, shrunk by successive queries.
    cursor: usize,
}

impl VictimTable {
    /// The mirrored running jobs, in the table's current order.
    pub fn entries(&self) -> &[Victim] {
        &self.entries
    }

    /// Drop every entry (the buffers are kept for reuse).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.reorder();
    }

    /// Mirror every running job into the reused entry buffer, with `prio`
    /// as its suspension priority.
    pub fn fill_running(&mut self, state: &SimState, prio: impl Fn(JobId) -> f64) {
        self.fill(state.running().iter().map(|&id| Victim {
            id,
            prio: prio(id),
            procs: state.width(id),
        }));
    }

    /// Replace the entries with `victims`, in order.
    fn fill(&mut self, victims: impl IntoIterator<Item = Victim>) {
        self.entries.clear();
        self.entries.extend(victims);
        self.reorder();
    }

    /// Order by ascending priority (ids break ties deterministically):
    /// the cheapest victims come first, and a scan may stop at the first
    /// entry whose priority disqualifies it.
    pub fn sort_ascending(&mut self) {
        self.entries
            .sort_by(|a, b| a.prio.total_cmp(&b.prio).then(a.id.cmp(&b.id)));
        self.reorder();
    }

    /// Remove the entries at `indices` (any order), feeding each removed
    /// victim to `f`; `indices` is drained for reuse. Uses
    /// descending-index `swap_remove`, so surviving entries may be
    /// reordered — callers that rely on a sorted mirror re-sort
    /// afterwards.
    pub fn remove_all(&mut self, indices: &mut Vec<usize>, mut f: impl FnMut(Victim)) {
        indices.sort_unstable_by(|a, b| b.cmp(a));
        for idx in indices.drain(..) {
            f(self.entries.swap_remove(idx));
        }
        self.reorder();
    }

    /// The entry order changed: every cover prefix is stale and the
    /// qualifying prefix may again reach the whole table.
    fn reorder(&mut self) {
        self.covered = 0;
        self.cursor = self.entries.len();
    }

    /// The number of leading entries that `qualifies`, for a predicate
    /// that holds on a prefix of the current order (on a table sorted by
    /// [`sort_ascending`](Self::sort_ascending), any predicate monotone
    /// in priority). Successive calls between reorders must pass
    /// predicates whose prefixes never grow — e.g. `SF × prio ≤ x` for
    /// non-increasing `x` — so a cursor walks each entry out at most once
    /// per order.
    pub fn qualifying_prefix(&mut self, qualifies: impl Fn(&Victim) -> bool) -> usize {
        while self.cursor > 0 && !qualifies(&self.entries[self.cursor - 1]) {
            self.cursor -= 1;
        }
        self.cursor
    }

    /// The union of the processor sets of the first `k` entries, over a
    /// `total`-processor machine; `set_of` fetches a running job's set.
    /// The cover is extended from the longest prefix built since the
    /// last reorder, so each entry is unioned in at most once per order.
    pub fn cover<'s>(
        &mut self,
        k: usize,
        total: u32,
        set_of: impl Fn(JobId) -> &'s ProcSet,
    ) -> &ProcSet {
        debug_assert!(k <= self.entries.len());
        if self.covered == 0 {
            match self.cover.first_mut() {
                Some(empty) if empty.universe() == total => empty.clear(),
                Some(empty) => *empty = ProcSet::empty(total),
                None => self.cover.push(ProcSet::empty(total)),
            }
            self.covered = 1;
        }
        while self.covered <= k {
            let j = self.covered;
            if self.cover.len() == j {
                self.cover.push(ProcSet::empty(total));
            }
            let (built, rest) = self.cover.split_at_mut(j);
            rest[0].copy_from(&built[j - 1]);
            rest[0].union_with(set_of(self.entries[j - 1].id));
            self.covered += 1;
        }
        &self.cover[k]
    }

    /// The covers built since the last reorder: `built_covers()[k]` is
    /// [`cover`](Self::cover)`(k)`.
    pub fn built_covers(&self) -> &[ProcSet] {
        &self.cover[..self.covered]
    }

    /// The least `k ≤ limit` whose [`cover`](Self::cover) contains the
    /// non-empty `set`, or `None` if `cover(limit)` does not. Covers grow
    /// with `k`, so a binary search finds it, building prefixes only as
    /// far as `limit`.
    pub fn first_cover_of<'s>(
        &mut self,
        set: &ProcSet,
        limit: usize,
        total: u32,
        set_of: impl Fn(JobId) -> &'s ProcSet,
    ) -> Option<usize> {
        debug_assert!(!set.is_empty());
        if !set.is_subset(self.cover(limit, total, &set_of)) {
            return None;
        }
        let (mut lo, mut hi) = (0, limit);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if set.is_subset(self.cover(mid, total, &set_of)) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(hi)
    }
}

/// The SS/TSS serving order of idle (queued + suspended) jobs: descending
/// xfactor, ids breaking ties. The `(xfactor, id)` keys are unique, so
/// there is exactly one such order.
#[inline]
fn idle_order(a: &(f64, JobId), b: &(f64, JobId)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// The idle priority list of SS/TSS, kept across decides.
///
/// Between two decides only a handful of idle jobs swap places, so
/// [`repair`](Self::repair) brings the previous decide's order up to date
/// in O(n + inversions) instead of re-sorting it: it drops the jobs that
/// left the idle set, appends the ones that joined, re-keys every entry
/// with its current xfactor and restores the order by insertion.
/// Membership is a mark per job-window slot, realigned when lean trimming
/// reclaims a prefix of the window. After every repair the list equals
/// the from-scratch [`rebuild`](Self::rebuild) bit for bit (debug builds
/// check it), so the kept order is a cache that never changes a decision.
#[derive(Clone, Debug, Default)]
pub(crate) struct IdleOrder {
    entries: Vec<(f64, JobId)>,
    /// `member[id.index() - base]`: whether `id` is in `entries`.
    member: Vec<bool>,
    /// The job-window offset (`SimState::trimmed`) `member` is aligned to.
    base: usize,
}

impl IdleOrder {
    /// The idle jobs in serving order, as of the last repair or rebuild.
    pub fn entries(&self) -> &[(f64, JobId)] {
        &self.entries
    }

    /// Bring the kept order up to date with `state` (the fast path).
    pub fn repair(&mut self, state: &SimState) {
        // Realign the marks to the job window: drop those of the slots
        // lean trimming reclaimed since the last repair, and cover every
        // live slot.
        let shift = (state.trimmed - self.base).min(self.member.len());
        self.member.drain(..shift);
        self.base = state.trimmed;
        self.member.resize(state.jobs.len(), false);
        let (member, base) = (&mut self.member, self.base);
        self.entries.retain_mut(|e| {
            if state.is_idle(e.1) {
                e.0 = state.xfactor(e.1);
                true
            } else {
                // A reclaimed slot's mark went with the trimmed prefix.
                if let Some(i) = e.1.index().checked_sub(base) {
                    member[i] = false;
                }
                false
            }
        });
        for &id in state.queued().iter().chain(state.suspended()) {
            let mark = &mut member[id.index() - base];
            if !*mark {
                *mark = true;
                self.entries.push((state.xfactor(id), id));
            }
        }
        // Insertion sort: each entry moves past exactly the entries it
        // now outranks.
        for i in 1..self.entries.len() {
            let cur = self.entries[i];
            let mut j = i;
            while j > 0 && idle_order(&cur, &self.entries[j - 1]).is_lt() {
                self.entries[j] = self.entries[j - 1];
                j -= 1;
            }
            self.entries[j] = cur;
        }
        if cfg!(debug_assertions) {
            let mut fresh = IdleOrder::default();
            fresh.rebuild(state);
            assert_eq!(
                key_bits(&self.entries),
                key_bits(&fresh.entries),
                "kept idle order diverged from the from-scratch sort"
            );
        }
    }

    /// Build the order from scratch with a full sort (the reference
    /// path). The marks are left alone: a run takes either this path or
    /// [`repair`](Self::repair), never both.
    pub fn rebuild(&mut self, state: &SimState) {
        self.entries.clear();
        self.entries.extend(
            state
                .queued()
                .iter()
                .chain(state.suspended())
                .map(|&id| (state.xfactor(id), id)),
        );
        self.entries.sort_unstable_by(idle_order);
    }
}

/// Keys in bit form, so a comparison is exact.
fn key_bits(entries: &[(f64, JobId)]) -> Vec<(u64, JobId)> {
    entries.iter().map(|&(x, id)| (x.to_bits(), id)).collect()
}

/// Scratch sets for [`alloc_avoiding_in`], reused across calls. The
/// sets self-size on first use ([`ProcSet::copy_from`] adopts the source
/// universe), so the zero-universe default is fine.
#[derive(Clone, Debug)]
pub(crate) struct AllocScratch {
    avoid: ProcSet,
    preferred: ProcSet,
    rest: ProcSet,
}

impl Default for AllocScratch {
    fn default() -> Self {
        AllocScratch {
            avoid: ProcSet::empty(0),
            preferred: ProcSet::empty(0),
            rest: ProcSet::empty(0),
        }
    }
}

/// Policy-owned scratch for the decide path. Everything a decide
/// allocates transiently — the planning free pool, the blocked/reserved
/// claim sets, the victim mirror, index lists — lives here and is reused across calls, so steady-state decides touch
/// the allocator only for the `ProcSet`s they emit inside actions.
///
/// [`DecideArena::reset`] re-clears every buffer for a new decide and
/// re-sizes the processor sets if the machine universe changed (it never
/// does mid-run; the check makes the arena safe to carry across runs on
/// different machines).
#[derive(Clone, Debug)]
pub(crate) struct DecideArena {
    /// The mirrored planning free pool (free ∪ draining).
    pub free: ProcSet,
    /// Claims of higher-priority suspended jobs not yet placeable.
    pub blocked: ProcSet,
    /// All suspended claims — a placement *preference*, not a bar.
    pub reserved: ProcSet,
    /// Re-entry scan: needed processors not currently free.
    pub missing: ProcSet,
    /// Re-entry scan: processors covered by qualifying victims.
    pub covered: ProcSet,
    /// Victim/candidate index list (dead between loop iterations).
    pub indices: Vec<usize>,
    /// Chosen-victim index list (alive together with `indices`).
    pub chosen: Vec<usize>,
    /// The running-job victim mirror.
    pub table: VictimTable,
    /// Scratch for claim-aware placement.
    pub alloc: AllocScratch,
}

impl Default for DecideArena {
    fn default() -> Self {
        DecideArena {
            free: ProcSet::empty(0),
            blocked: ProcSet::empty(0),
            reserved: ProcSet::empty(0),
            missing: ProcSet::empty(0),
            covered: ProcSet::empty(0),
            indices: Vec::new(),
            chosen: Vec::new(),
            table: VictimTable::default(),
            alloc: AllocScratch::default(),
        }
    }
}

impl DecideArena {
    /// Clear every buffer for a fresh decide against a `total`-processor
    /// machine.
    pub fn reset(&mut self, total: u32) {
        for set in [
            &mut self.free,
            &mut self.blocked,
            &mut self.reserved,
            &mut self.missing,
            &mut self.covered,
        ] {
            if set.universe() != total {
                *set = ProcSet::empty(total);
            } else {
                set.clear();
            }
        }
        self.indices.clear();
        self.chosen.clear();
        self.table.clear();
    }
}

/// Choose `need` processors out of `free ∖ blocked`, preferring ones
/// outside `reserved`.
///
/// * `blocked` is a hard constraint: the claims of higher-priority
///   suspended jobs that could not be placed this instant. Handing those
///   out would let lower-priority squatters rotate through the claim and
///   starve its owner.
/// * `reserved` is a soft preference: all suspended claims. A suspended
///   job can only restart on its original processors, so giving them to
///   fresh arrivals forces a reassembly preemption later — under backlog
///   that cascades into suspension storms and a serialized tail.
///
/// Returns `None` if fewer than `need` unblocked processors exist. The
/// returned set is the only allocation: intermediate set algebra runs in
/// `scratch`, and the common case (enough unreserved processors) carves
/// the answer in one word-level pass with no intermediate set
/// materialized at all.
///
/// On a heterogeneous machine with a speed-aware [`SpeedMap`] the picks
/// within each preference class are fastest-first rather than
/// lowest-index-first: the job's gang rate is the minimum speed of its
/// set, so maximizing that minimum shortens the dispatch. A uniform (or
/// placement-blind) map degenerates to the homogeneous order exactly.
pub(crate) fn alloc_avoiding_in(
    free: &ProcSet,
    blocked: &ProcSet,
    reserved: &ProcSet,
    need: u32,
    speed: &SpeedMap,
    scratch: &mut AllocScratch,
) -> Option<ProcSet> {
    // Fast path: enough processors that are neither blocked nor reserved.
    scratch.avoid.copy_from(blocked);
    scratch.avoid.union_with(reserved);
    if let Some(set) = speed.take_fastest_excluding(free, &scratch.avoid, need) {
        return Some(set);
    }
    // Not enough unreserved processors: take all of them plus the fewest
    // possible reserved (but never blocked) ones.
    scratch.preferred.copy_from(free);
    scratch.preferred.subtract(&scratch.avoid);
    let have = scratch.preferred.count();
    scratch.rest.copy_from(free);
    scratch.rest.subtract(blocked);
    scratch.rest.subtract(&scratch.preferred);
    let mut set = speed.take_fastest(&scratch.rest, need - have)?;
    set.union_with(&scratch.preferred);
    Some(set)
}

/// The anchor-search view of the availability profile shared by the
/// reservation-based baselines (conservative, EASY, flex): reservations
/// are booked in priority order against a profile that starts from the
/// simulator's incrementally-maintained release ledger. The ladder is
/// policy-owned and [`rebuilt`](ReservationLadder::rebuild) in place each
/// decide, reusing the profile's breakpoint buffer.
#[derive(Clone, Debug)]
pub(crate) struct ReservationLadder {
    profile: Profile,
    now: SimTime,
}

impl Default for ReservationLadder {
    fn default() -> Self {
        ReservationLadder {
            profile: Profile::empty(),
            now: SimTime::new(0),
        }
    }
}

impl ReservationLadder {
    /// Rematerialize the ladder over the current availability profile,
    /// reusing the breakpoint buffer.
    pub fn rebuild(&mut self, state: &SimState) {
        state.profile_into(&mut self.profile);
        self.now = state.now();
    }

    /// Book the earliest reservation for `job` consistent with everything
    /// booked so far; returns its guaranteed start time (`now` means the
    /// job can start immediately). `None` when `job` is wider than the
    /// processors that are up: down processors are out of the profile's
    /// capacity, and a repair is an event, so the next decide books it.
    pub fn reserve(&mut self, job: &Job) -> Option<SimTime> {
        self.profile
            .reserve_earliest(job.procs, job.estimate, self.now)
            .map(|r| r.start)
    }

    /// Whether `job` can start *now* without delaying any booked
    /// reservation — i.e. its earliest anchor against the current profile
    /// is the present instant. If so, its occupancy is booked.
    pub fn try_backfill_now(&mut self, job: &Job) -> bool {
        if self.profile.find_anchor(job.procs, job.estimate, self.now) == Some(self.now) {
            self.profile.reserve(self.now, job.estimate, job.procs);
            true
        } else {
            false
        }
    }

    /// Book the occupancy of a start decided earlier this instant (EASY's
    /// phase-1 starts occupy processors until their estimates).
    pub fn book_start_now(&mut self, job: &Job) {
        self.profile.reserve(self.now, job.estimate, job.procs);
    }

    /// EASY's shadow computation for the blocked head job: the earliest
    /// time `job` fits (its reservation anchor) and the *extra*
    /// processors — those free at the shadow beyond what the head needs,
    /// available to arbitrarily long backfillers.
    pub fn shadow(&self, job: &Job) -> Option<(SimTime, u32)> {
        let shadow = self
            .profile
            .find_anchor(job.procs, job.estimate, self.now)?;
        let extra = self.profile.avail_at(shadow).saturating_sub(job.procs);
        Some((shadow, extra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overhead::OverheadModel;
    use crate::sim::Event;
    use sps_metrics::OutcomeFold;
    use sps_simcore::EventQueue;

    /// A zero-overhead state on `procs` processors holding `jobs`, none
    /// arrived yet; suspensions land directly in the Suspended phase.
    fn idle_state(procs: u32, jobs: impl IntoIterator<Item = Job>) -> SimState {
        let mut state = SimState::new(0, procs, OverheadModel::None);
        for job in jobs {
            state.push_job(job);
        }
        state
    }

    /// The kept order equals a from-scratch rebuild bit for bit, and the
    /// membership marks are exactly its entries.
    fn assert_is_rebuild(order: &IdleOrder, state: &SimState, label: &str) {
        let mut fresh = IdleOrder::default();
        fresh.rebuild(state);
        assert_eq!(
            key_bits(order.entries()),
            key_bits(fresh.entries()),
            "{label}: order"
        );
        let marked: Vec<usize> = (0..order.member.len())
            .filter(|&i| order.member[i])
            .map(|i| i + order.base)
            .collect();
        let mut listed: Vec<usize> = order.entries().iter().map(|e| e.1.index()).collect();
        listed.sort_unstable();
        assert_eq!(marked, listed, "{label}: marks");
    }

    fn ids(order: &IdleOrder) -> Vec<u32> {
        order.entries().iter().map(|e| e.1 .0).collect()
    }

    #[test]
    fn idle_order_follows_jobs_that_leave_and_come_back() {
        // Estimates 1000/100/400/500/200 s; one processor each.
        let ests = [1_000, 100, 400, 500, 200];
        let mut state = idle_state(
            8,
            ests.iter()
                .enumerate()
                .map(|(i, &e)| Job::new(i as u32, 0, e, e, 1)),
        );
        let mut queue: EventQueue<Event> = EventQueue::new();
        let mut order = IdleOrder::default();
        for id in [0, 2, 3] {
            state.arrive(JobId(id));
        }
        order.repair(&state);
        assert_is_rebuild(&order, &state, "t=0");
        assert_eq!(ids(&order), [0, 2, 3], "all tied at 1.0: by id");

        // t=100: job 1 arrives behind job 0, which outranks it until the
        // shorter job's xfactor overtakes: 1.1 vs 1.0 now, 1.2 vs 2.0 at
        // t=200. Job 3 starts and leaves.
        state.now = SimTime::new(100);
        state.arrive(JobId(1));
        assert!(state.start(JobId(3), &mut queue));
        order.repair(&state);
        assert_is_rebuild(&order, &state, "t=100");
        assert_eq!(ids(&order), [2, 0, 1]);
        state.now = SimTime::new(200);
        order.repair(&state);
        assert_is_rebuild(&order, &state, "t=200");
        assert_eq!(ids(&order), [1, 2, 0], "the short job overtook");

        // Between two repairs job 2 starts and a fault kills it (it leaves
        // and comes back, re-queued), job 3 is suspended (it returns, now
        // a suspended job) and job 1 starts and is suspended.
        state.now = SimTime::new(250);
        assert!(state.start(JobId(2), &mut queue));
        assert!(state.start(JobId(1), &mut queue));
        state.now = SimTime::new(300);
        state.kill(JobId(2));
        assert!(state.suspend(JobId(3), &mut queue));
        assert!(state.suspend(JobId(1), &mut queue));
        state.now = SimTime::new(320);
        order.repair(&state);
        assert_is_rebuild(&order, &state, "kill and suspend");
        assert_eq!(order.entries().len(), 4, "no entry twice");

        // Resume and re-suspend job 1 between repairs; job 4 arrives.
        assert!(state.resume(JobId(1), &mut queue));
        state.now = SimTime::new(330);
        assert!(state.suspend(JobId(1), &mut queue));
        state.arrive(JobId(4));
        state.now = SimTime::new(400);
        order.repair(&state);
        assert_is_rebuild(&order, &state, "resume then suspend");
        assert_eq!(order.entries().len(), 5, "no entry twice");

        // Everything leaves (suspended jobs first, onto their own
        // processors); the order empties.
        for id in state.suspended().to_vec() {
            assert!(state.resume(id, &mut queue));
        }
        for id in state.queued().to_vec() {
            assert!(state.start(id, &mut queue));
        }
        order.repair(&state);
        assert_is_rebuild(&order, &state, "all running");
        assert!(order.entries().is_empty());
    }

    #[test]
    fn idle_order_realigns_marks_after_lean_trimming() {
        const N: u32 = 1_030;
        let mut state = idle_state(4, (0..N).map(|i| Job::new(i, 0, 10, 10 + i as i64, 1)));
        state.lean = Some(OutcomeFold::new());
        let mut queue: EventQueue<Event> = EventQueue::new();
        let mut order = IdleOrder::default();
        for id in 0..N {
            state.arrive(JobId(id));
        }
        state.now = SimTime::new(5);
        order.repair(&state);
        assert_is_rebuild(&order, &state, "before trimming");
        assert_eq!(order.entries().len(), N as usize);

        // The first 1,026 jobs run and complete; the Done prefix of the
        // job window is reclaimed under the kept entries and marks.
        for id in 0..1_026 {
            assert!(state.start(JobId(id), &mut queue));
            state.complete(JobId(id));
        }
        assert_eq!(state.trimmed, 1_024, "lean trimming reclaimed a prefix");
        // Newcomers land in window slots past the shifted ones.
        for id in N..N + 6 {
            state.push_job(Job::new(id, 0, 5, 7, 1));
            state.arrive(JobId(id));
        }
        state.now = SimTime::new(50);
        order.repair(&state);
        assert_is_rebuild(&order, &state, "after trimming");
        assert_eq!(order.base, 1_024);
        let mut live = ids(&order);
        live.sort_unstable();
        assert_eq!(live, (1_026..N + 6).collect::<Vec<_>>());
        assert_eq!(ids(&order)[..6], [1_030, 1_031, 1_032, 1_033, 1_034, 1_035]);
    }

    #[test]
    fn idle_order_breaks_xfactor_ties_by_id() {
        let mut state = idle_state(4, (0..4).map(|i| Job::new(i, 0, 100, 100, 1)));
        let mut queue: EventQueue<Event> = EventQueue::new();
        let mut order = IdleOrder::default();
        // Job 1 waits 0 s before it starts, is killed at t=50 and re-queued
        // behind jobs 2 and 3, which arrive then: all three have waited
        // the same 50 s at t=100.
        state.arrive(JobId(0));
        state.arrive(JobId(1));
        assert!(state.start(JobId(1), &mut queue));
        order.repair(&state);
        state.now = SimTime::new(50);
        state.arrive(JobId(3));
        state.arrive(JobId(2));
        order.repair(&state);
        assert_eq!(ids(&order), [0, 2, 3]);
        state.kill(JobId(1));
        state.now = SimTime::new(100);
        order.repair(&state);
        assert_is_rebuild(&order, &state, "ties");
        assert_eq!(ids(&order), [0, 1, 2, 3], "equal xfactors by id");
        let keys: Vec<f64> = order.entries().iter().map(|e| e.0).collect();
        assert_eq!(keys, [2.0, 1.5, 1.5, 1.5]);
    }

    /// Disjoint sets on a 430-processor (7-word) machine, as running jobs
    /// hold them, straddling word boundaries; job `i` holds `sets[i]`.
    fn running_sets() -> Vec<ProcSet> {
        let spans: [(u32, u32); 8] = [
            (0, 3),
            (60, 70),
            (3, 10),
            (128, 200),
            (400, 430),
            (70, 71),
            (200, 260),
            (300, 301),
        ];
        spans
            .iter()
            .map(|&(lo, hi)| ProcSet::from_indices(430, lo..hi))
            .collect()
    }

    /// Dispatch-order victims with priorities out of order and one tie.
    fn victims(sets: &[ProcSet]) -> Vec<Victim> {
        let prios = [3.0, 1.5, 7.25, 1.0, 2.0, 1.5, 9.0, 1.01];
        (0..sets.len())
            .map(|i| Victim {
                id: JobId(i as u32),
                prio: prios[i],
                procs: sets[i].count(),
            })
            .collect()
    }

    /// The explicit union of the first `k` entries' sets.
    fn union_of_first(table: &VictimTable, sets: &[ProcSet], k: usize) -> ProcSet {
        let mut u = ProcSet::empty(430);
        for v in &table.entries()[..k] {
            u.union_with(&sets[v.id.0 as usize]);
        }
        u
    }

    fn assert_cover_matches(table: &mut VictimTable, sets: &[ProcSet], ks: &[usize], label: &str) {
        for &k in ks {
            let want = union_of_first(table, sets, k);
            let got = table.cover(k, 430, |id| &sets[id.0 as usize]).clone();
            assert_eq!(got, want, "{label}: cover[{k}]");
        }
    }

    #[test]
    fn cover_is_the_union_of_each_prefix() {
        let sets = running_sets();
        let mut table = VictimTable::default();
        table.fill(victims(&sets));
        table.sort_ascending();
        let prios: Vec<f64> = table.entries().iter().map(|v| v.prio).collect();
        assert!(prios.windows(2).all(|p| p[0] <= p[1]));
        let n = table.entries().len();
        let all: Vec<usize> = (0..=n).collect();
        assert_cover_matches(&mut table, &sets, &all, "fill+sort, ascending k");
        // A second pass reads the built prefixes back in any order.
        let shuffled = [5, 0, 8, 2, 7, 1, 3, 6, 4];
        assert_cover_matches(&mut table, &sets, &shuffled, "fill+sort, reread");
    }

    #[test]
    fn cover_extends_only_as_far_as_queried() {
        let sets = running_sets();
        let mut table = VictimTable::default();
        table.fill(victims(&sets));
        table.sort_ascending();
        assert_eq!(table.covered, 0, "sorting builds nothing");
        assert_cover_matches(&mut table, &sets, &[2], "first query");
        assert_eq!(table.covered, 3, "cover[0..=2] built");
        assert_cover_matches(&mut table, &sets, &[1, 0, 2], "inside the built prefix");
        assert_eq!(table.covered, 3, "shorter queries extend nothing");
        assert_cover_matches(&mut table, &sets, &[5], "extension");
        assert_eq!(table.covered, 6);
        assert_cover_matches(&mut table, &sets, &[8, 3], "to the end");
        assert_eq!(table.covered, 9);
    }

    #[test]
    fn cover_is_rebuilt_after_removal_and_resort() {
        let sets = running_sets();
        let mut table = VictimTable::default();
        table.fill(victims(&sets));
        table.sort_ascending();
        assert_cover_matches(&mut table, &sets, &[8], "before removal");
        let mut removed = Vec::new();
        table.remove_all(&mut vec![0, 6, 3], |v| removed.push(v.id));
        assert_eq!(removed.len(), 3);
        assert_eq!(table.covered, 0, "removal discards the cover");
        let n = table.entries().len();
        let all: Vec<usize> = (0..=n).collect();
        assert_cover_matches(&mut table, &sets, &all, "after swap_remove");
        table.sort_ascending();
        assert_eq!(table.covered, 0, "re-sort discards the cover");
        assert!(table.entries().iter().all(|v| !removed.contains(&v.id)));
        let down: Vec<usize> = (0..=n).rev().collect();
        assert_cover_matches(&mut table, &sets, &down, "after re-sort");
    }

    #[test]
    fn cover_adopts_a_new_machine_size() {
        let sets = running_sets();
        let mut table = VictimTable::default();
        table.fill(victims(&sets));
        table.sort_ascending();
        assert_cover_matches(&mut table, &sets, &[8], "430 procs");
        let small = vec![
            ProcSet::from_indices(64, [0, 1]),
            ProcSet::from_indices(64, [63]),
        ];
        table.fill(victims(&small).into_iter().take(2));
        table.sort_ascending();
        assert_eq!(
            table.cover(0, 64, |id| &small[id.0 as usize]).universe(),
            64
        );
        let both = table.cover(2, 64, |id| &small[id.0 as usize]);
        assert_eq!(both, &ProcSet::from_indices(64, [0, 1, 63]));
    }

    #[test]
    fn qualifying_prefix_shrinks_until_reorder() {
        let sets = running_sets();
        let mut table = VictimTable::default();
        table.fill(victims(&sets));
        table.sort_ascending();
        let sf = 2.0;
        let count = |table: &VictimTable, x: f64| {
            table.entries().iter().filter(|v| x >= sf * v.prio).count()
        };
        // Descending suspender priorities, as the idle list is walked.
        for x in [100.0, 15.0, 14.5, 6.0, 4.0, 3.0, 2.02, 2.0, 1.0] {
            let k = table.qualifying_prefix(|v| x >= sf * v.prio);
            assert_eq!(k, count(&table, x), "x = {x}");
        }
        assert_eq!(
            table.qualifying_prefix(|_| true),
            0,
            "the cursor only shrinks"
        );
        table.sort_ascending();
        assert_eq!(table.qualifying_prefix(|_| true), table.entries().len());
        table.remove_all(&mut vec![0], |_| {});
        assert_eq!(table.qualifying_prefix(|_| true), table.entries().len());
    }
}
