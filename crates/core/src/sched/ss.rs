//! Selective Suspension (SS) and Tunable Selective Suspension (TSS) —
//! the paper's contribution (Section IV).
//!
//! An idle job may preempt running jobs whose suspension priority (the
//! expansion factor) is lower by at least the **suspension factor** SF:
//! preemption requires `xfactor(idle) ≥ SF × xfactor(victim)`. Queued and
//! suspended jobs are served in descending priority; because any waiting
//! job's xfactor grows without bound, it eventually out-prioritizes some
//! running job — so SS runs **backfilling without reservation guarantees**
//! and is still starvation-free (Section IV-B).
//!
//! Rules implemented from the paper's pseudocode:
//!
//! * the preemption routine is invoked periodically (every minute); plain
//!   starts/resumes onto free processors happen at every event instant,
//! * **width restriction**: a fresh idle job may only suspend victims at
//!   most twice its own width ("the number of processors requested by a
//!   suspending job should be at least half of the number of processors
//!   requested by the job that it suspends"), preventing narrow jobs from
//!   evicting wide ones,
//! * **re-entry**: a previously suspended job must reacquire exactly its
//!   original processors; for re-entry the width restriction is dropped,
//!   and every running job overlapping the needed set must qualify (and is
//!   suspended) for the re-entry to proceed,
//! * victims are suspended in decreasing width until enough processors
//!   accumulate,
//! * **TSS**: with limits enabled, a running job whose priority exceeds
//!   `1.5 × average slowdown of its category` cannot be chosen as a victim
//!   (Section IV-E), bounding worst-case slowdown/turnaround.

use sps_cluster::ProcSet;
use sps_metrics::JobOutcome;
use sps_simcore::Secs;
use sps_telemetry::Obs;
use sps_trace::Reason;
use sps_workload::{Category, JobId};

use crate::policy::{Action, DecideCtx, Policy};
use crate::sched::planner::{self, DecideArena, IdleOrder, Victim};
use crate::sched::tss::TssLimits;
use crate::sim::SimState;

/// Configuration for the SS/TSS family.
#[derive(Clone, Debug)]
pub struct SsConfig {
    /// Suspension factor: minimum priority ratio for preemption
    /// (the paper evaluates 1.5, 2, and 5).
    pub sf: f64,
    /// Enforce the ½-width suspend rule for fresh jobs (paper default:
    /// on; the ablation bench switches it off).
    pub width_restriction: bool,
    /// Allow suspended jobs to restart on *any* processors (process
    /// migration). The paper's distributed-memory model forbids this;
    /// the `ablation_migration` experiment turns it on to price the
    /// local-restart constraint.
    pub migration: bool,
    /// TSS per-category preemption-disable limits; `None` is plain SS.
    pub limits: Option<TssLimits>,
}

impl SsConfig {
    /// Plain SS with the given suspension factor.
    pub fn ss(sf: f64) -> Self {
        assert!(
            sf >= 1.0,
            "a suspension factor below 1 thrashes unconditionally"
        );
        SsConfig {
            sf,
            width_restriction: true,
            migration: false,
            limits: None,
        }
    }

    /// TSS: SS plus running-average category limits.
    pub fn tss(sf: f64) -> Self {
        SsConfig {
            limits: Some(TssLimits::new()),
            ..Self::ss(sf)
        }
    }
}

/// The SS/TSS dispatcher.
#[derive(Clone, Debug)]
pub struct SelectiveSuspension {
    cfg: SsConfig,
    /// Per-decide scratch. The preemption routine runs every minute for
    /// the whole length of a run, so the planning mirror (free/blocked/
    /// reserved sets, victim table, index lists) is rebuilt tens of
    /// thousands of times per simulation; reusing one arena keeps the
    /// entire decide path off the allocator.
    arena: DecideArena,
    /// The idle jobs in serving order, repaired rather than re-sorted at
    /// each full decide.
    idle: IdleOrder,
}

impl SelectiveSuspension {
    /// Build from a config.
    pub fn new(cfg: SsConfig) -> Self {
        SelectiveSuspension {
            cfg,
            arena: DecideArena::default(),
            idle: IdleOrder::default(),
        }
    }

    /// Plain SS with suspension factor `sf`.
    pub fn ss(sf: f64) -> Self {
        Self::new(SsConfig::ss(sf))
    }

    /// Tunable SS with suspension factor `sf`.
    pub fn tss(sf: f64) -> Self {
        Self::new(SsConfig::tss(sf))
    }

    /// If `victim` is protected from preemption (TSS limit exceeded),
    /// the category, the victim's xfactor, and the limit it exceeds.
    fn protection(&self, state: &SimState, victim: JobId) -> Option<(Category, f64, f64)> {
        let limits = self.cfg.limits.as_ref()?;
        let job = state.job(victim);
        let cat = Category::classify(job.estimate, job.procs);
        let limit = limits.limit_for(cat);
        let xf = state.xfactor(victim);
        (xf > limit).then_some((cat, xf, limit))
    }
}

impl Policy for SelectiveSuspension {
    fn name(&self) -> String {
        let kind = if self.cfg.limits.is_some() {
            "TSS"
        } else {
            "SS"
        };
        let mut name = format!("{kind} (SF={}", self.cfg.sf);
        if !self.cfg.width_restriction {
            name.push_str(", no width rule");
        }
        if self.cfg.migration {
            name.push_str(", migration");
        }
        name.push(')');
        name
    }

    fn needs_tick(&self) -> bool {
        true
    }

    // The preemption routine only acts on idle (queued + suspended) jobs;
    // with none, the loop body never runs. The TSS per-category limits
    // change in `on_completion`, not here, and the kept idle order is a
    // cache that every full decide repairs against the state, so skipping
    // a decide cannot change a later one.
    fn quiescent_noop(&self) -> bool {
        true
    }

    fn decide(&mut self, state: &SimState, ctx: &DecideCtx<'_>, actions: &mut Vec<Action>) {
        // The least horizon worth reporting, when the simulator asks for
        // one (see `DecideCtx::noop_until`). The reference scan reports
        // none.
        let floor = ctx.noop_until.get().filter(|_| !ctx.reference);

        // Fast certification of the common no-op decide. Every action the
        // loop below can emit requires at least one of:
        //
        // * an idle job no wider than the working free pool (placement and
        //   re-entry both need `procs` processors out of free ∪ draining),
        // * a victim qualification `x(idle) ≥ SF × x(victim)` — bounded
        //   from below by the cheapest running job, since the width rule,
        //   TSS limits, and overlap checks only *remove* candidates.
        //
        // When neither holds, the decide provably produces nothing: skip
        // the idle order's repair, the mirror, and every per-decide
        // allocation. It writes no record either — the full scan would
        // place nothing and stop every victim scan at its first,
        // unqualified entry, before any TSS limit is consulted — so traced
        // runs take it too. Only the reference scan bypasses it.
        if !ctx.reference {
            let wf = state.free_count() + state.draining_set().count();
            let idle_ids = || state.queued().iter().chain(state.suspended().iter());
            if !idle_ids().any(|&id| state.width(id) <= wf) {
                let bar = (ctx.tick || floor.is_some()).then(|| {
                    let min_run = state
                        .running()
                        .iter()
                        .map(|&id| state.xfactor(id))
                        .fold(f64::INFINITY, f64::min);
                    self.cfg.sf * min_run
                });
                let qualifies = ctx.tick
                    && bar.is_some_and(|bar| idle_ids().any(|&id| state.xfactor(id) >= bar));
                if !qualifies {
                    // Until the next event nothing fits, so no decide can
                    // act before the first idle job qualifies against the
                    // cheapest running job (never, with none running).
                    if let (Some(floor), Some(bar)) = (floor, bar) {
                        let now = state.now().secs() as f64;
                        ctx.noop_until.set(earliest_past(
                            floor,
                            idle_ids().map(|&id| {
                                reaches(now, state.xfactor(id), state.xfactor_est(id), bar)
                            }),
                        ));
                    }
                    return;
                }
            }
        }

        // All per-decide scratch lives in the policy-owned arena: taking
        // it out of `self` lets the loop borrow its fields independently
        // while `self.protection` is still callable.
        let mut arena = std::mem::take(&mut self.arena);
        arena.reset(state.total_procs());

        // Idle jobs (queued + suspended) in descending priority; ids break
        // ties deterministically. The `(xfactor, id)` keys are unique, so
        // repairing the last decide's order and sorting from scratch (the
        // reference path) yield the same list.
        if ctx.reference {
            self.idle.rebuild(state);
        } else {
            self.idle.repair(state);
        }

        // Plan against free processors *plus* those whose suspension
        // drain is already in flight (see [`planner::working_free_set_into`]).
        planner::working_free_set_into(state, &mut arena.free);

        // `arena.blocked` — the processor claims of higher-priority
        // suspended jobs that could not be placed yet. A suspended job can
        // only ever restart on its original processors, so its claim acts
        // as a priority-ordered reservation: lower-priority fresh jobs
        // must not be placed on it, or the suspended job starves while
        // squatters rotate through its set (very long suspended jobs,
        // whose xfactor grows slowly, would otherwise wait practically
        // forever under sustained load).
        //
        // `arena.reserved` — all suspended claims, used only as a
        // placement *preference* for procs not strictly blocked. With
        // migration, suspended jobs can restart anywhere, so no claims
        // need protecting.
        if !self.cfg.migration {
            planner::pinned_claims_into(state, &mut arena.reserved);
        }

        // The processor set of a planned victim, fetched from simulator
        // state on demand (the mirror entries are plain data).
        let vset = |vid: JobId| state.assigned_set(vid).expect("running job has a set");

        // Prefix-cover prunes. The table is sorted by ascending priority
        // and qualification (`x(idle) ≥ SF × x(victim)`) is monotone in
        // it, so the victims that qualify for an idle job are exactly the
        // table's first `k` entries; `k` only shrinks down the descending
        // idle list, which the table's cursor exploits. Against
        // `cover[k]` — the union of those entries' sets — a victim scan
        // that must fail is rejected in O(set words), and one that may
        // succeed falls through to the scan unchanged, so actions and
        // trace records are exactly the reference scan's. The reference
        // scan runs without prunes; so does a traced TSS fresh-job scan,
        // whose failures still emit `BlockedByDisableLimit` records.
        let sf = self.cfg.sf;
        let total = state.total_procs();
        let prune_reentry = !ctx.reference;
        let prune_fresh = prune_reentry && !(ctx.trace.enabled() && self.cfg.limits.is_some());

        // The running mirror is only consulted on ticks (the paper's
        // once-a-minute preemption routine); between ticks only free
        // processors are handed out. Built lazily, sorted by ascending
        // victim priority as in the pseudocode's first sort: most tick
        // decides place or skip every idle job without a victim scan, so
        // the xfactor sweep over the running set is deferred until one
        // actually starts.
        let mut table_built = false;
        macro_rules! ensure_table {
            () => {
                if !table_built {
                    table_built = true;
                    arena.table.fill_running(state, |vid| state.xfactor(vid));
                    arena.table.sort_ascending();
                    if ctx.metrics.enabled() {
                        ctx.metrics.emit(&Obs::VictimScan {
                            scanned: arena.table.entries().len() as u32,
                        });
                    }
                }
            };
        }

        // The usable width `free ∖ blocked` a fresh job sees: processors
        // inside `blocked` belong to a higher-priority suspended job and do
        // not count. Cached until `free` or `blocked` next changes, which
        // most fresh jobs of a backlogged queue leave alone.
        let mut usable = None;
        for &(prio_i, id) in self.idle.entries() {
            if state.is_suspended(id) && !self.cfg.migration && !state.can_remap(id) {
                // Re-entry: needs exactly its original processors. Every
                // outcome below grows `blocked` or changes `free`.
                usable = None;
                let needed = state.assigned_set(id).expect("suspended job keeps its set");
                if state.is_stranded(id) {
                    // A reserved processor is down: re-entry cannot succeed
                    // no matter how many victims are suspended, so skip the
                    // victim scan but keep the claim protected for the
                    // repair instant.
                    arena.blocked.union_with(needed);
                    continue;
                }
                if needed.is_subset(&arena.free) {
                    arena.free.subtract(needed);
                    arena.reserved.subtract(needed);
                    actions.push(Action::Resume(id));
                    if ctx.trace.enabled() {
                        ctx.trace.decision(
                            state.now().secs(),
                            Reason::ReentryOnOriginalProcs {
                                job: id.0,
                                victims: 0,
                            },
                        );
                    }
                    continue;
                }
                if !ctx.tick {
                    arena.blocked.union_with(needed);
                    continue;
                }
                arena.missing.copy_from(needed);
                arena.missing.subtract(&arena.free);
                // Preemption routine: every running job overlapping the
                // needed set must qualify as a victim (no width
                // restriction for re-entry).
                ensure_table!();
                if prune_reentry {
                    // A qualifying victim holding a `missing` processor
                    // overlaps `needed`, so the scan's `covered` holds
                    // exactly the processors of `missing` that `cover[k]`
                    // does: it succeeds iff `missing ⊆ cover[k]`.
                    let k = arena.table.qualifying_prefix(|r| prio_i >= sf * r.prio);
                    let cover = arena.table.cover(k, total, vset);
                    if !arena.missing.is_subset(cover) {
                        arena.blocked.union_with(needed);
                        continue;
                    }
                }
                arena.indices.clear();
                arena.covered.clear();
                for (idx, r) in arena.table.entries().iter().enumerate() {
                    let rset = vset(r.id);
                    if !rset.overlaps(needed) {
                        continue;
                    }
                    // Re-entry is exempt from the TSS limit: the suspended
                    // job is the one whose variance the limit exists to
                    // bound, and a protected squatter on its processors
                    // would otherwise pin it out indefinitely.
                    if prio_i >= sf * r.prio {
                        arena.indices.push(idx);
                        arena.covered.union_with(rset);
                    }
                }
                if !arena.missing.is_subset(&arena.covered) {
                    // Some needed processor is held by a non-preemptible
                    // job; keep the claim blocked and try again later.
                    arena.blocked.union_with(needed);
                    continue;
                }
                // Suspend every overlapping candidate (they all sit on
                // needed processors) and re-enter.
                let victim_count = arena.indices.len() as u32;
                let (table, indices) = (&mut arena.table, &mut arena.indices);
                table.remove_all(indices, |r| {
                    let rset = vset(r.id);
                    arena.free.union_with(rset);
                    arena.reserved.union_with(rset); // victims will want these back
                    if ctx.trace.enabled() {
                        ctx.trace.decision(
                            state.now().secs(),
                            Reason::PreemptedVictim {
                                victim: r.id.0,
                                suspender: id.0,
                                victim_xf: r.prio,
                                suspender_xf: prio_i,
                            },
                        );
                    }
                    actions.push(Action::Suspend(r.id));
                });
                arena.table.sort_ascending();
                debug_assert!(needed.is_subset(&arena.free));
                arena.free.subtract(needed);
                arena.reserved.subtract(needed);
                actions.push(Action::Resume(id));
                if ctx.trace.enabled() {
                    ctx.trace.decision(
                        state.now().secs(),
                        Reason::ReentryOnOriginalProcs {
                            job: id.0,
                            victims: victim_count,
                        },
                    );
                }
            } else {
                // Fresh job (or, with migration enabled, a suspended job
                // restarting anywhere): may use free processors outside
                // the claims of higher-priority suspended jobs.
                let dispatch = |set: ProcSet| {
                    if state.is_suspended(id) {
                        Action::ResumeOn(id, set)
                    } else {
                        Action::StartOn(id, set)
                    }
                };
                let need = state.width(id);
                let allowed =
                    *usable.get_or_insert_with(|| arena.free.count_excluding(&arena.blocked));
                debug_assert_eq!(
                    allowed,
                    arena.free.count_excluding(&arena.blocked),
                    "stale usable width"
                );
                if need <= allowed {
                    let set = planner::alloc_avoiding_in(
                        &arena.free,
                        &arena.blocked,
                        &arena.reserved,
                        need,
                        state.speed_map(),
                        &mut arena.alloc,
                    )
                    .expect("count checked");
                    arena.free.subtract(&set);
                    usable = None;
                    actions.push(dispatch(set));
                    continue;
                }
                if !ctx.tick {
                    continue;
                }
                // Preemption routine: accumulate qualifying victims until
                // enough unblocked processors exist, then suspend the
                // widest first.
                ensure_table!();
                if prune_fresh {
                    // The scan gains `|set ∖ blocked|` from some of the
                    // `k` qualifying victims. Running jobs hold disjoint
                    // sets, so all `k` together gain `|cover[k] ∖
                    // blocked|`; short of `need` even then, it must fail.
                    let k = arena.table.qualifying_prefix(|r| prio_i >= sf * r.prio);
                    debug_assert_eq!(
                        arena.table.cover(k, total, vset).count(),
                        arena.table.entries()[..k]
                            .iter()
                            .map(|r| r.procs)
                            .sum::<u32>(),
                        "running jobs hold disjoint sets"
                    );
                    let cover = arena.table.cover(k, total, vset);
                    if allowed + cover.count_excluding(&arena.blocked) < need {
                        continue;
                    }
                }
                arena.indices.clear();
                let mut gain = allowed;
                for (idx, r) in arena.table.entries().iter().enumerate() {
                    if gain >= need {
                        break;
                    }
                    if prio_i < sf * r.prio {
                        // running is sorted by ascending priority: nothing
                        // further qualifies either.
                        break;
                    }
                    if self.cfg.width_restriction && r.procs > 2 * need {
                        continue;
                    }
                    if let Some((cat, xf, limit)) = self.protection(state, r.id) {
                        if ctx.trace.enabled() {
                            ctx.trace.decision(
                                state.now().secs(),
                                Reason::BlockedByDisableLimit {
                                    victim: r.id.0,
                                    category: cat.name(),
                                    xfactor: xf,
                                    limit,
                                },
                            );
                        }
                        continue;
                    }
                    arena.indices.push(idx);
                    gain += vset(r.id).count_excluding(&arena.blocked);
                }
                if gain < need {
                    continue;
                }
                // Suspend in decreasing usable width until the job fits.
                {
                    let (table, blocked) = (&arena.table, &arena.blocked);
                    arena.indices.sort_unstable_by(|&a, &b| {
                        vset(table.entries()[b].id)
                            .count_excluding(blocked)
                            .cmp(&vset(table.entries()[a].id).count_excluding(blocked))
                    });
                }
                arena.chosen.clear();
                let mut have = allowed;
                for &idx in &arena.indices {
                    if have >= need {
                        break;
                    }
                    have += vset(arena.table.entries()[idx].id).count_excluding(&arena.blocked);
                    arena.chosen.push(idx);
                }
                let (table, chosen) = (&mut arena.table, &mut arena.chosen);
                table.remove_all(chosen, |r| {
                    let rset = vset(r.id);
                    arena.free.union_with(rset);
                    arena.reserved.union_with(rset); // victims will want these back
                    if ctx.trace.enabled() {
                        ctx.trace.decision(
                            state.now().secs(),
                            Reason::PreemptedVictim {
                                victim: r.id.0,
                                suspender: id.0,
                                victim_xf: r.prio,
                                suspender_xf: prio_i,
                            },
                        );
                    }
                    actions.push(Action::Suspend(r.id));
                });
                arena.table.sort_ascending();
                usable = None;
                debug_assert!(arena.free.count_excluding(&arena.blocked) >= need);
                let set = planner::alloc_avoiding_in(
                    &arena.free,
                    &arena.blocked,
                    &arena.reserved,
                    need,
                    state.speed_map(),
                    &mut arena.alloc,
                )
                .expect("gain accounted");
                arena.free.subtract(&set);
                actions.push(dispatch(set));
            }
        }
        if let Some(floor) = floor.filter(|_| ctx.tick && actions.is_empty()) {
            let victims = if table_built {
                arena.table.entries()
            } else {
                &[]
            };
            ctx.noop_until
                .set(tick_horizon(state, self.idle.entries(), victims, sf, floor));
        }
        self.arena = arena;
    }

    fn on_completion(&mut self, outcome: &JobOutcome) {
        if let Some(limits) = &mut self.cfg.limits {
            limits.record(outcome);
        }
    }
}

/// The instant a waiting job whose xfactor is `x` at `now` reaches `bar`:
/// its xfactor grows by `1 / est` per second.
fn reaches(now: f64, x: f64, est: Secs, bar: f64) -> f64 {
    now + (bar - x) * est as f64
}

/// The earliest of `terms`, or `None` as soon as one lies at or before
/// `floor`: such a horizon would let no tick lapse, so the rest of the scan
/// is not worth doing. Never the term it stopped at — that is not a bound
/// on the others.
fn earliest_past(floor: f64, terms: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut h = f64::INFINITY;
    for t in terms {
        if t <= floor {
            return None;
        }
        h = h.min(t);
    }
    Some(h)
}

/// The horizon of a full tick decide that acted on nothing: the earliest
/// instant at which a later tick decide could differ if no event arrives
/// first, or `None` if that is at or before `floor`.
///
/// Between events only waiting jobs' xfactors move, and such a decide is a
/// function of two things only: the `idle` order, and each idle job's
/// qualifying prefix `k` in `victims` (the running jobs by ascending
/// priority, frozen until an event). Free, draining and claimed sets, the
/// width rule and the TSS limits all stay put. So the horizon is the
/// earlier of the first swap in the idle order — always between
/// neighbours, when the one below has the smaller estimate and so grows
/// faster — and the first instant some idle job qualifies against the
/// victim past its prefix. `k` only shrinks down the descending idle
/// list, so one cursor walk covers both in O(idle + running).
fn tick_horizon(
    state: &SimState,
    idle: &[(f64, JobId)],
    victims: &[Victim],
    sf: f64,
    floor: f64,
) -> Option<f64> {
    let now = state.now().secs() as f64;
    let mut k = victims.len();
    earliest_past(
        floor,
        idle.iter().enumerate().map(|(i, &(x, id))| {
            let est = state.xfactor_est(id);
            while k > 0 && x < sf * victims[k - 1].prio {
                k -= 1;
            }
            let qualify = victims
                .get(k)
                .map_or(f64::INFINITY, |v| reaches(now, x, est, sf * v.prio));
            let swap = idle.get(i + 1).map_or(f64::INFINITY, |&(xb, below)| {
                let (ea, eb) = (est as f64, state.xfactor_est(below) as f64);
                if eb < ea {
                    now + (x - xb) * ea * eb / (ea - eb)
                } else {
                    f64::INFINITY
                }
            });
            qualify.min(swap)
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use sps_workload::Job;

    fn run_ss(jobs: Vec<Job>, procs: u32, sf: f64) -> crate::sim::SimResult {
        Simulator::new(jobs, procs, Box::new(SelectiveSuspension::ss(sf))).run()
    }

    #[test]
    fn short_job_preempts_long_after_priority_gap() {
        // Long job (est 100 000 s) hogs the machine; a short job (est
        // 600 s) arrives at t=1000. xfactor(short) reaches SF=2 after
        // waiting 600 s; the next minute tick then preempts the long job.
        let jobs = vec![
            Job::new(0, 0, 100_000, 100_000, 8),
            Job::new(1, 1_000, 600, 600, 8),
        ];
        let res = run_ss(jobs, 8, 2.0);
        let short = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        // Needs xfactor ≥ 2 × 1.0 → wait ≥ 600 → earliest tick at 1620.
        assert_eq!(short.first_start.secs(), 1_620);
        assert_eq!(short.wait(), 620);
        let long = res.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        assert_eq!(long.suspensions, 1);
        // Long resumes when the short finishes and completes with its full
        // work done.
        assert_eq!(long.completion.secs(), 1_620 + 600 + (100_000 - 1_620));
        assert_eq!(res.preemptions, 1);
        assert_eq!(res.dropped_actions, 0);
    }

    #[test]
    fn noop_horizons_skip_the_ticks_before_the_preemption() {
        // The two jobs above. The short job's arrival decide sees it
        // reach SF × 1 at 1 000 + 600 = 1 600, so the ticker is armed at
        // 1 560, the first tick at or after 1 600 − 60. That tick's
        // horizon (1 600) lets no tick lapse, so 1 620 follows and
        // preempts. While the short job runs, the long one cannot reach
        // SF × 2.03 before the short job completes at 2 220, a tick
        // instant that re-enters it. Decides: 0, 1 000, 1 560, 1 620,
        // 1 680, 2 220 (the every-tick schedule makes 1 681).
        let jobs = vec![
            Job::new(0, 0, 100_000, 100_000, 8),
            Job::new(1, 1_000, 600, 600, 8),
        ];
        let res = run_ss(jobs, 8, 2.0);
        let short = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert_eq!(short.first_start.secs(), 1_620);
        assert!(
            res.kernel.decide_calls <= 6,
            "{} decides",
            res.kernel.decide_calls
        );
    }

    /// Each decide's instant, tick flag and reported horizon.
    type DecideLog = std::rc::Rc<std::cell::RefCell<Vec<(i64, bool, Option<f64>)>>>;

    /// SS forwarding every call, logging each decide.
    struct Logged {
        inner: SelectiveSuspension,
        log: DecideLog,
    }

    impl Policy for Logged {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn needs_tick(&self) -> bool {
            self.inner.needs_tick()
        }

        fn quiescent_noop(&self) -> bool {
            self.inner.quiescent_noop()
        }

        fn decide(&mut self, state: &SimState, ctx: &DecideCtx<'_>, actions: &mut Vec<Action>) {
            let floor = ctx.noop_until.get();
            self.inner.decide(state, ctx, actions);
            let h = ctx
                .noop_until
                .get()
                .filter(|&h| floor.is_some_and(|f| h > f));
            self.log
                .borrow_mut()
                .push((state.now().secs(), ctx.tick, h));
        }

        fn on_completion(&mut self, outcome: &JobOutcome) {
            self.inner.on_completion(outcome);
        }
    }

    #[test]
    fn an_idle_order_crossing_bounds_the_horizon() {
        // j0 fills the machine from t = 0 (xfactor 1, so SF × 1 = 2).
        // Three 2-wide jobs wait behind it, none allowed to suspend it
        // (8 > 2 × 2): A (est 10⁶, from 0), B (est 5 × 10⁵, from 5 000)
        // and C (est 60, from 5 000). C qualifies at 5 060, so from the
        // 5 100 tick on every tick decide runs the full scan and acts on
        // nothing. At 5 100 the order is C, A, B; B gains on A at
        // 1/(5 × 10⁵) − 1/10⁶ per second from 4 900 × 10⁻⁶ behind, so
        // they swap at 5 100 + 4 900 = 10 000 — before A or B qualifies
        // (10⁶ and 505 000). The ticker is armed at 9 960, the first tick
        // at or after 10 000 − 60.
        let jobs = vec![
            Job::new(0, 0, 1_000_000, 1_000_000, 8),
            Job::new(1, 0, 1_000_000, 1_000_000, 2),
            Job::new(2, 5_000, 500_000, 500_000, 2),
            Job::new(3, 5_000, 60, 60, 2),
        ];
        let log = DecideLog::default();
        let policy = Logged {
            inner: SelectiveSuspension::ss(2.0),
            log: std::rc::Rc::clone(&log),
        };
        let res = Simulator::new(jobs, 8, Box::new(policy)).run();
        assert_eq!(res.preemptions, 0);
        let log = log.borrow();
        let at = |t: i64| log.iter().position(|&(now, ..)| now == t).unwrap();
        let (_, tick, h) = log[at(5_100)];
        assert!(tick);
        let h = h.expect("a no-op tick decide reports its horizon");
        assert!((h - 10_000.0).abs() < 1e-6, "horizon {h}");
        let first = ((h - 60.0) / 60.0).ceil() as i64 * 60;
        assert_eq!(first, 9_960);
        assert_eq!(log[at(5_100) + 1].0, first, "the armed tick");
        assert!(log[at(5_100) + 1].1);
        // The tick after the swap reports the next horizon: B qualifies
        // at 505 000, so the ticker skips to 504 960.
        assert_eq!(log[at(10_020) + 1].0, 504_960);
    }

    #[test]
    fn higher_sf_waits_longer() {
        let jobs = |_: ()| {
            vec![
                Job::new(0, 0, 100_000, 100_000, 8),
                Job::new(1, 1_000, 600, 600, 8),
            ]
        };
        let w2 = run_ss(jobs(()), 8, 2.0)
            .outcomes
            .iter()
            .find(|o| o.id == JobId(1))
            .unwrap()
            .wait();
        let w5 = run_ss(jobs(()), 8, 5.0)
            .outcomes
            .iter()
            .find(|o| o.id == JobId(1))
            .unwrap()
            .wait();
        assert!(
            w5 > w2,
            "SF=5 ({w5}) must delay preemption past SF=2 ({w2})"
        );
        // SF=5 needs wait ≥ 4 × 600 = 2400 s.
        assert!(w5 >= 2_400);
    }

    #[test]
    fn width_restriction_blocks_narrow_suspending_wide() {
        // A 1-proc job cannot suspend an 8-proc job (8 > 2×1) no matter
        // how high its priority grows; it must wait for a natural hole.
        let jobs = vec![
            Job::new(0, 0, 10_000, 10_000, 8),
            Job::new(1, 10, 60, 60, 1),
        ];
        let res = run_ss(jobs, 8, 1.5);
        let narrow = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert_eq!(narrow.first_start.secs(), 10_000, "no preemption allowed");
        assert_eq!(res.preemptions, 0);
    }

    #[test]
    fn without_width_restriction_narrow_preempts() {
        let jobs = vec![
            Job::new(0, 0, 10_000, 10_000, 8),
            Job::new(1, 10, 60, 60, 1),
        ];
        let mut cfg = SsConfig::ss(1.5);
        cfg.width_restriction = false;
        let res = Simulator::new(jobs, 8, Box::new(SelectiveSuspension::new(cfg))).run();
        let narrow = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert!(narrow.first_start.secs() < 10_000);
        assert_eq!(res.preemptions, 1);
    }

    #[test]
    fn wide_job_preempts_multiple_narrow_victims() {
        // Four 2-proc long jobs fill the machine; an 8-proc short job must
        // suspend all of them at once.
        let mut jobs: Vec<Job> = (0..4).map(|i| Job::new(i, 0, 50_000, 50_000, 2)).collect();
        jobs.push(Job::new(4, 10, 300, 300, 8));
        let res = run_ss(jobs, 8, 2.0);
        let wide = res.outcomes.iter().find(|o| o.id == JobId(4)).unwrap();
        assert!(
            wide.first_start.secs() < 50_000,
            "wide job got service via preemption"
        );
        assert_eq!(res.preemptions, 4, "all four narrow victims suspended");
        // All victims eventually resume and finish.
        assert_eq!(res.outcomes.len(), 5);
    }

    #[test]
    fn reentry_reclaims_exact_processors_by_preemption() {
        // j0 (all 8 procs, 2000 s) is preempted at the t=1260 tick by j1
        // (6 procs, est 1200: xfactor (1250+1200)/1200 ≈ 2.04 ≥ SF=2; the
        // 8-proc victim passes the width rule, 8 ≤ 2×6). In the same tick
        // j2 (2 procs, est 50000, arrived 1255, frozen xfactor ≈ 1.0001)
        // starts on the two processors j1 left over — squatting on part of
        // j0's original set. After j1 completes (t=2460), j0 still cannot
        // re-enter until its own xfactor reaches 2 × 1.0001, i.e. wait ≥
        // ~2000 s past its suspension: the t=3300 tick. Re-entry then
        // suspends the squatter and restores j0 on its exact processors.
        let jobs = vec![
            Job::new(0, 0, 2_000, 2_000, 8),
            Job::new(1, 10, 1_200, 1_200, 6),
            Job::new(2, 1_255, 50_000, 50_000, 2),
        ];
        let res = run_ss(jobs, 8, 2.0);
        assert_eq!(res.outcomes.len(), 3);
        let j0 = res.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        let j2 = res.outcomes.iter().find(|o| o.id == JobId(2)).unwrap();
        assert_eq!(j0.suspensions, 1);
        assert_eq!(j2.suspensions, 1, "re-entry suspended the squatter");
        // j0 resumed at 3300 with 740 s left (it had run [0, 1260)).
        assert_eq!(j0.completion.secs(), 3_300 + 740);
        // The squatter resumes once j0 is done.
        assert_eq!(j2.completion.secs(), 4_040 + (50_000 - (3_300 - 1_260)));
    }

    #[test]
    fn no_starvation_under_stream_of_short_jobs() {
        // A very long wide job plus a stream of short jobs: the long job's
        // growing xfactor protects it from endless preemption (each short
        // job must reach SF × its frozen priority), and it completes.
        let mut jobs = vec![Job::new(0, 0, 20_000, 20_000, 6)];
        for i in 0..40u32 {
            jobs.push(Job::new(1 + i, 100 + 500 * i as i64, 400, 400, 4));
        }
        let res = run_ss(jobs, 8, 2.0);
        assert_eq!(res.outcomes.len(), 41, "everyone finishes");
    }

    #[test]
    fn tss_limit_blocks_preemption_of_high_priority_victim() {
        // Prime the TSS limits with a completion giving the VL-Seq... use
        // static limits for determinism: category of the victim gets a
        // tiny average, so the victim becomes unpreemptible as soon as its
        // priority exceeds 1.5 × avg.
        let victim_cat = Category::classify(100_000, 8);
        let mut avgs = [f64::INFINITY; 16];
        avgs[victim_cat.index()] = 0.5; // limit = 0.75 < any xfactor (≥1)
        let cfg = SsConfig {
            sf: 2.0,
            width_restriction: true,
            migration: false,
            limits: Some(TssLimits::with_static_averages(avgs, 1.5)),
        };
        let jobs = vec![
            Job::new(0, 0, 100_000, 100_000, 8),
            Job::new(1, 1_000, 600, 600, 8),
        ];
        let res = Simulator::new(jobs, 8, Box::new(SelectiveSuspension::new(cfg))).run();
        assert_eq!(res.preemptions, 0, "limit shields the victim");
        let short = res.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert_eq!(short.first_start.secs(), 100_000);
    }

    #[test]
    fn tss_behaves_like_ss_before_any_completion() {
        // Running-average limits are infinite until a completion lands, so
        // the first preemption happens exactly as under SS.
        let jobs = vec![
            Job::new(0, 0, 100_000, 100_000, 8),
            Job::new(1, 1_000, 600, 600, 8),
        ];
        let ss = run_ss(jobs.clone(), 8, 2.0);
        let tss = Simulator::new(jobs, 8, Box::new(SelectiveSuspension::tss(2.0))).run();
        let s = |r: &crate::sim::SimResult| {
            r.outcomes
                .iter()
                .find(|o| o.id == JobId(1))
                .unwrap()
                .first_start
        };
        assert_eq!(s(&ss), s(&tss));
    }

    #[test]
    fn migration_relaxes_reentry() {
        // j0 (all 8 procs) is preempted by j1; j2 (2 procs) squats on part
        // of j0's set. Under local preemption j0 must wait or preempt the
        // squatter; with migration it cannot help here (it needs 8 of 8),
        // so use a narrower j0: 6 procs. After suspension, 6 procs are
        // free elsewhere? Machine is 12: j0 on {0..5}; j1 (12p est 1200)
        // preempts everything at its tick; j2 (4p, long) then lands on
        // {0..3} when j1 finishes (higher xfactor than j0)... With
        // migration j0 simply restarts on the 8 free processors
        // {4..11} instead of waiting for {0..5}.
        let jobs = vec![
            Job::new(0, 0, 4_000, 4_000, 6),
            Job::new(1, 10, 1_200, 1_200, 12),
            Job::new(2, 1_255, 50_000, 50_000, 4),
        ];
        let mut local_cfg = SsConfig::ss(2.0);
        local_cfg.width_restriction = false; // let j1 (12p) evict j0 (6p)
        let mut mig_cfg = local_cfg.clone();
        mig_cfg.migration = true;
        let local = Simulator::new(
            jobs.clone(),
            12,
            Box::new(SelectiveSuspension::new(local_cfg)),
        )
        .run();
        let migr = Simulator::new(jobs, 12, Box::new(SelectiveSuspension::new(mig_cfg))).run();
        let j0_local = local.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        let j0_migr = migr.outcomes.iter().find(|o| o.id == JobId(0)).unwrap();
        assert!(
            j0_migr.completion <= j0_local.completion,
            "migration can only help the suspended job: migr {} vs local {}",
            j0_migr.completion.secs(),
            j0_local.completion.secs()
        );
        assert_eq!(migr.dropped_actions, 0);
        assert_eq!(migr.outcomes.len(), 3);
    }

    #[test]
    fn names_reflect_configuration() {
        assert_eq!(SelectiveSuspension::ss(2.0).name(), "SS (SF=2)");
        assert_eq!(SelectiveSuspension::tss(1.5).name(), "TSS (SF=1.5)");
        let mut cfg = SsConfig::ss(5.0);
        cfg.width_restriction = false;
        assert!(SelectiveSuspension::new(cfg)
            .name()
            .contains("no width rule"));
        let mut cfg = SsConfig::ss(2.0);
        cfg.migration = true;
        assert!(SelectiveSuspension::new(cfg).name().contains("migration"));
    }
}
