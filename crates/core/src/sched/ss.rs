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
//!
//! # Decides that repeat the last no-op
//!
//! Between two events only waiting jobs' xfactors move, each at `1/e` per
//! second (`e` = [`SimState::xfactor_est`]). The working free pool F
//! (free ∪ draining), the claims of suspended jobs, the victim table
//! (running jobs by ascending frozen priority), the width rule and the TSS
//! limits stay put. So a full decide that acts on nothing can name H, the
//! first instant a later decide could act or, for TSS, write other
//! decision records, and report it through [`DecideCtx::noop_until`]. In
//! such a decide every job fails alone: a pinned suspended job `s`
//! (one that must re-enter on its own processors) sees F and the table,
//! and a fresh job `f` sees F, the table and `B_f`, the claims of the
//! pinned jobs above it in the idle order. H is the earliest of:
//!
//! * **(a) re-entry** of `s`, not stranded: the instant `x_s` reaches
//!   `SF × prio` of the last victim of the first table prefix whose cover
//!   holds `needed_s ∖ F`;
//! * **(b) a fresh start**: the instant `x_f` reaches the last victim of
//!   the first prefix at which `|F ∖ B_f|` plus the victims' processors
//!   outside `B_f` reach `f`'s width, counting only victims the width rule
//!   and the TSS limits leave eligible — the victim scan's own success
//!   test;
//! * **(c) crossings**: `f` rises above a pinned `s` above it when
//!   `e_f < e_s`, at `now + (x_s − x_f)·e_s·e_f/(e_s − e_f)`. At each such
//!   crossing, in ascending order while it is below the best term so far,
//!   `f` is re-tested against the smaller `B_f`; the term is the later of
//!   the crossing and `f`'s own instant under it. No other swap changes a
//!   test: two fresh or two suspended jobs test the same sets in either
//!   order, and a suspended job rising above a fresh one only grows `B_f`;
//! * **(d) TSS records**, traced or not: a protected, width-eligible
//!   victim joining a fresh job's qualifying prefix, and the first swap of
//!   two fresh jobs whose `blocked_by_disable_limit` sequences differ.
//!
//! Every full no-op decide reports H when the simulator offers a floor,
//! tick or not. A non-tick decide keeps no decision record for the ticks
//! it lets lapse, so under TSS it reports H only when a tick scan of the
//! same state would write none. A crossing re-test ignores pinned jobs
//! that rise above the fresh job meanwhile, which only delay its start,
//! so H never comes after the first change.
//!
//! After a full no-op decide SS/TSS keep a `Certificate`: the
//! simulator's lifecycle-transition count ([`SimState::transitions`]) and
//! a lower bound on the first instant a non-tick decide could act (H,
//! when it was computed whole; otherwise the certificate bounds nothing).
//! While the count holds, only arrivals and the clock moved; a new job
//! has waited 0 s, so it sits below every older idle job and sees every
//! pinned claim. A non-tick decide at least a second before that bound
//! (which rounding may put a few ulps past an integer crossing) therefore
//! checks only the new jobs: if one fits the pool outside every claim it
//! runs the full decide, and otherwise it folds their terms into the bound
//! and H and returns without repairing or walking the idle order. Without
//! a floor there is no bound, so runs with elision off never reach the
//! certificate; the elided-against-every-tick suites check it, and debug
//! builds run the full decide behind every certified one.

use std::cell::Cell;

use sps_cluster::ProcSet;
use sps_metrics::JobOutcome;
use sps_telemetry::{Obs, TelemetryCtx};
use sps_trace::{Reason, TraceCtx};
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

    /// If `victim` is protected from preemption (TSS limit exceeded),
    /// the category, the victim's xfactor, and the limit it exceeds.
    fn protection(&self, state: &SimState, victim: JobId) -> Option<(Category, f64, f64)> {
        let limits = self.limits.as_ref()?;
        // The hot copies of the estimate (floored at 1 s, which moves no
        // job across a category boundary) and width.
        let cat = Category::classify(state.xfactor_est(victim), state.width(victim));
        let limit = limits.limit_for(cat);
        let xf = state.xfactor(victim);
        (xf > limit).then_some((cat, xf, limit))
    }

    /// Whether idle job `id` must re-enter on its original processors:
    /// suspended, with neither migration nor a remap releasing it.
    fn pinned(&self, state: &SimState, id: JobId) -> bool {
        state.is_suspended(id) && !self.migration && !state.can_remap(id)
    }

    /// Whether the width rule lets a fresh job of width `need` suspend `v`.
    fn width_ok(&self, v: &Victim, need: u32) -> bool {
        !(self.width_restriction && v.procs > 2 * need)
    }
}

/// What a full no-op decide proved about the machine it saw. It holds
/// while [`SimState::transitions`] does: until then only arrivals and the
/// clock move, and each non-tick decide it answers folds its new jobs in.
#[derive(Clone, Copy, Debug)]
struct Certificate {
    /// The transition count it was proved at.
    transitions: u64,
    /// The proving decide's instant; the kept idle order is as of it.
    at: f64,
    /// No non-tick decide can act before this instant; `None` until a
    /// non-tick decide first needs it.
    act: Option<f64>,
    /// The tick horizon a non-tick decide may report: exact for the jobs
    /// seen so far, with no tick scan writing a decision record. `None`
    /// when it was not computed whole or no floor is on offer.
    tick: Option<f64>,
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
    /// Scratch of the horizon walks.
    scratch: HorizonScratch,
    /// What the last full no-op decide proved, while it may still hold.
    cert: Option<Certificate>,
    /// Non-tick decides answered from the certificate.
    #[cfg(test)]
    certified: u64,
}

impl SelectiveSuspension {
    /// Build from a config.
    pub fn new(cfg: SsConfig) -> Self {
        SelectiveSuspension {
            cfg,
            arena: DecideArena::default(),
            idle: IdleOrder::default(),
            scratch: HorizonScratch::default(),
            cert: None,
            #[cfg(test)]
            certified: 0,
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

    /// Fast certification of the common no-op decide. Every action the
    /// walk can emit requires at least one of:
    ///
    /// * an idle job no wider than the working free pool (placement and
    ///   re-entry both need `procs` processors out of free ∪ draining),
    /// * a victim qualification `x(idle) ≥ SF × x(victim)` — bounded
    ///   from below by the cheapest running job, since the width rule,
    ///   TSS limits, and overlap checks only *remove* candidates.
    ///
    /// When neither holds, the decide provably produces nothing: skip
    /// the idle order's repair, the mirror, and every per-decide
    /// allocation. It writes no record either — the full scan would
    /// place nothing and stop every victim scan at its first,
    /// unqualified entry, before any TSS limit is consulted — so traced
    /// runs take it too. Returns whether it answered the decide.
    fn cheap_noop(&mut self, state: &SimState, ctx: &DecideCtx<'_>, floor: Option<f64>) -> bool {
        let wf = state.free_count() + state.draining_set().count();
        let idle_ids = || state.queued().iter().chain(state.suspended().iter());
        if idle_ids().any(|&id| state.width(id) <= wf) {
            return false;
        }
        let bar = (ctx.tick || floor.is_some()).then(|| {
            let min_run = state
                .running()
                .iter()
                .map(|&id| state.xfactor(id))
                .fold(f64::INFINITY, f64::min);
            self.cfg.sf * min_run
        });
        let qualifies =
            ctx.tick && bar.is_some_and(|bar| idle_ids().any(|&id| state.xfactor(id) >= bar));
        if qualifies {
            return false;
        }
        // Until the next event nothing fits, so no decide can act before
        // the first idle job qualifies against the cheapest running job
        // (never, with none running).
        if let (Some(floor), Some(bar)) = (floor, bar) {
            let now = state.now().secs() as f64;
            ctx.noop_until.set(earliest_past(
                floor,
                idle_ids()
                    .map(|&id| reaches(now, state.xfactor(id), state.xfactor_est(id) as f64, bar)),
            ));
        }
        // New jobs too wide for the pool never fit before the next
        // transition, so the certificate's placement bound stands; its
        // tick horizon does not cover them.
        if !ctx.arrivals.is_empty() {
            if let Some(cert) = &mut self.cert {
                cert.tick = None;
            }
        }
        true
    }

    /// Answer a non-tick decide from the certificate of the last full
    /// no-op decide, if it still holds and its placement bound lies ahead.
    /// Returns whether it answered the decide.
    fn answer_from_certificate(
        &mut self,
        state: &SimState,
        ctx: &DecideCtx<'_>,
        floor: Option<f64>,
    ) -> bool {
        let Some(mut cert) = self.cert else {
            return false;
        };
        let now = state.now().secs() as f64;
        if ctx.tick || cert.transitions != state.transitions() || now <= cert.at {
            return false;
        }
        let mut arena = std::mem::take(&mut self.arena);
        let answered = self.certify(state, ctx, floor, now, &mut cert, &mut arena);
        self.arena = arena;
        if !answered {
            return false;
        }
        self.cert = Some(cert);
        let reported = floor
            .zip(cert.tick)
            .and_then(|(floor, h)| (h > floor).then_some(h));
        if reported.is_some() {
            ctx.noop_until.set(reported);
        }
        if cfg!(debug_assertions) {
            self.check_certified(state, ctx, reported);
        }
        #[cfg(test)]
        {
            self.certified += 1;
        }
        true
    }

    /// The certificate's check of a non-tick decide at `now`, folding the
    /// new jobs into `cert`; false when the full decide must run.
    fn certify(
        &mut self,
        state: &SimState,
        ctx: &DecideCtx<'_>,
        floor: Option<f64>,
        now: f64,
        cert: &mut Certificate,
        arena: &mut DecideArena,
    ) -> bool {
        // Without a whole horizon the certificate bounds nothing.
        let Some(mut act) = cert.act else {
            return false;
        };
        if !ahead_of(now, act) {
            return false;
        }
        cert.act = Some(act);
        if floor.is_none() {
            // No floor is offered until the next tick decide, which is a
            // full one.
            cert.tick = None;
        }
        if ctx.arrivals.is_empty() {
            return true;
        }
        // Each new job has waited 0 s, so its xfactor of 1 sits below
        // every older idle job's: it sees every pinned claim, which the
        // last horizon walk left in `claims`, with what it counted.
        let s = &mut self.scratch;
        let cfg = &self.cfg;
        if ctx
            .arrivals
            .iter()
            .any(|&id| state.width(id) <= s.counted.pool)
        {
            return false;
        }
        s.above.clear();
        for &id in state.suspended() {
            if cfg.pinned(state, id) {
                let x = state.xfactor(id);
                let e = state.xfactor_est(id) as f64;
                let claim = state.assigned_set(id).expect("suspended job keeps its set");
                push_pinned(s, x, e, claim);
            }
        }
        let mut tick = cert.tick;
        for &id in ctx.arrivals {
            let mut job = Fresh {
                x: state.xfactor(id),
                e: state.xfactor_est(id) as f64,
                k: 0,
                need: state.width(id),
                above: s.above.len(),
            };
            // Non-tick decides only place: a start needs the pool.
            let pool_only = Mirror {
                cfg,
                state,
                free: &arena.free,
                victims: &[],
                bars: &[],
                covers: &[],
                protected: &[],
            };
            act =
                act.min(pool_only.crossing_term(&s.above, &s.pinned, &mut s.cross, now, &job, act));
            if !ahead_of(now, act) {
                return false;
            }
            if let (Some(h), Some(floor)) = (tick.as_mut(), floor) {
                let victims = arena.table.entries();
                job.k = victims.partition_point(|v| job.x >= cfg.sf * v.prio);
                let loud =
                    cfg.limits.is_some() && shielded_terms(cfg, victims, &s.shielded, now, &job, h);
                let mirror = Mirror {
                    cfg,
                    state,
                    free: &arena.free,
                    victims,
                    bars: &s.bars,
                    covers: arena.table.built_covers(),
                    protected: &s.protected,
                };
                *h = h.min(mirror.start(&s.claims, Some(&mut s.counted), now, &job, *h));
                *h = h.min(mirror.crossing_term(&s.above, &s.pinned, &mut s.cross, now, &job, *h));
                if loud || *h <= floor {
                    tick = None;
                }
            }
        }
        cert.act = Some(act);
        cert.tick = tick;
        true
    }

    /// Debug builds: the full decide of the same state must act on
    /// nothing, and its exact horizon must not come before the one the
    /// certificate reported.
    fn check_certified(&self, state: &SimState, ctx: &DecideCtx<'_>, reported: Option<f64>) {
        let mut full = self.clone();
        let (trace, metrics) = (TraceCtx::disabled(), TelemetryCtx::disabled());
        let noop_until = Cell::new(None);
        let probe = DecideCtx {
            arrivals: ctx.arrivals,
            tick: false,
            trace: &trace,
            metrics: &metrics,
            reference: false,
            noop_until: &noop_until,
        };
        let mut actions = Vec::new();
        let mut arena = std::mem::take(&mut full.arena);
        let built = full.walk(state, &probe, &mut arena, &mut actions);
        let at = state.now().secs();
        assert!(
            actions.is_empty(),
            "a certified decide at {at} would act: {actions:?}"
        );
        if let Some(h) = reported {
            if !built {
                arena.table.fill_running(state, |vid| state.xfactor(vid));
                arena.table.sort_ascending();
            }
            let idle = full.idle.entries();
            let now = at as f64;
            let exact = horizon(
                &full.cfg,
                idle,
                state,
                &mut arena,
                &mut full.scratch,
                now,
                f64::NEG_INFINITY,
            )
            .expect("an unbounded walk reports a horizon");
            assert!(
                full.scratch.writers.is_empty(),
                "at {at}: a reported horizon over tick scans that write records"
            );
            assert!(
                h <= exact + 1e-6 * exact.abs().max(1.0),
                "at {at}: horizon {h} past {exact}"
            );
        }
    }

    /// After a full decide that acted on nothing: report its horizon when
    /// the simulator offers a floor, and keep the certificate.
    fn settle_noop(
        &mut self,
        state: &SimState,
        ctx: &DecideCtx<'_>,
        floor: Option<f64>,
        arena: &mut DecideArena,
        table_built: bool,
    ) {
        let now = state.now().secs() as f64;
        let h = floor.and_then(|floor| {
            if !table_built {
                arena.table.fill_running(state, |vid| state.xfactor(vid));
                arena.table.sort_ascending();
            }
            let idle = self.idle.entries();
            horizon(&self.cfg, idle, state, arena, &mut self.scratch, now, floor)
        });
        // A non-tick decide keeps no decision record for the ticks it lets
        // lapse, so it reports only a horizon whose tick scans write none.
        // Its placements are bounded either way.
        if ctx.tick || self.scratch.writers.is_empty() {
            if let Some(h) = h {
                ctx.noop_until.set(Some(h));
            }
        }
        self.cert = Some(Certificate {
            transitions: state.transitions(),
            at: now,
            act: h,
            tick: h.filter(|_| self.scratch.writers.is_empty()),
        });
    }

    /// The full decide: walk the idle jobs in serving order, placing,
    /// re-entering and (on ticks) preempting. Returns whether it built
    /// the victim table.
    fn walk(
        &mut self,
        state: &SimState,
        ctx: &DecideCtx<'_>,
        arena: &mut DecideArena,
        actions: &mut Vec<Action>,
    ) -> bool {
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
            if self.cfg.pinned(state, id) {
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
                    if !self.cfg.width_ok(r, need) {
                        continue;
                    }
                    if let Some((cat, xf, limit)) = self.cfg.protection(state, r.id) {
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
        table_built
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
        // none, and takes neither fast path below.
        let floor = ctx.noop_until.get().filter(|_| !ctx.reference);
        if !ctx.reference
            && (self.cheap_noop(state, ctx, floor)
                || self.answer_from_certificate(state, ctx, floor))
        {
            return;
        }
        self.cert = None;
        // All per-decide scratch lives in the policy-owned arena: taking
        // it out of `self` lets the walk borrow its fields independently.
        let mut arena = std::mem::take(&mut self.arena);
        let table_built = self.walk(state, ctx, &mut arena, actions);
        if actions.is_empty() && !ctx.reference {
            self.settle_noop(state, ctx, floor, &mut arena, table_built);
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
/// its xfactor grows by `1 / e` per second.
fn reaches(now: f64, x: f64, e: f64, bar: f64) -> f64 {
    now + (bar - x) * e
}

/// Whether a decide at the whole second `now` comes before the bound
/// `act` on the first instant a non-tick decide could act. A crossing
/// bound is computed in floating point and may land a few ulps past an
/// integer crossing instant, where ties are broken by id and can already
/// favour the fresh job; a second's margin keeps the decide at that
/// instant out of the certificate's reach.
fn ahead_of(now: f64, act: f64) -> bool {
    now + 1.0 <= act
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

/// A pinned suspended job above a walk's position in the idle order: its
/// xfactor and growth (its claim is kept beside it).
#[derive(Clone, Copy, Debug)]
struct Pinned {
    x: f64,
    e: f64,
}

/// A fresh job as a horizon walk met it: xfactor, growth, qualifying
/// prefix (TSS walks only), width, and how many pinned jobs were above
/// it.
#[derive(Clone, Copy, Debug)]
struct Fresh {
    x: f64,
    e: f64,
    k: usize,
    need: u32,
    above: usize,
}

/// Scratch of the horizon walks, reused across decides.
#[derive(Clone, Debug)]
struct HorizonScratch {
    /// `SF × prio` of each victim: the xfactor that qualifies against it.
    bars: Vec<f64>,
    /// The pinned jobs, in serving order.
    above: Vec<Pinned>,
    /// The fresh jobs whose start and crossing terms count, in serving
    /// order.
    fresh: Vec<Fresh>,
    /// `fastest[w]`: the fastest growth among those jobs of width `w` so
    /// far, and the walk it was seen in.
    fastest: Vec<(u64, f64)>,
    /// Horizon walks so far.
    walks: u64,
    /// The union of the claims of the pinned jobs above the walk's
    /// position; all of them once a walk is whole.
    claims: ProcSet,
    /// What start terms counted outside `claims`.
    counted: Counted,
    /// `pinned[i]`: the claim of `above[i]`, copied into reused buffers.
    pinned: Vec<ProcSet>,
    /// Buffers of one job's crossing test.
    cross: CrossingScratch,
    /// `reach[i]`: the least xfactor of `above[..=i]` at the instant the
    /// crossings are bounded by.
    reach: Vec<f64>,
    /// The fresh jobs with a crossing below the best term: the first
    /// crossing, and the index into `fresh`.
    order: Vec<(f64, usize)>,
    /// TSS: per victim, whether its limit protects it.
    protected: Vec<bool>,
    /// TSS: the protected victims' indices, ascending.
    shielded: Vec<usize>,
    /// TSS: the fresh jobs whose tick scans write
    /// `blocked_by_disable_limit` records, in serving order.
    writers: Vec<Fresh>,
}

impl Default for HorizonScratch {
    fn default() -> Self {
        HorizonScratch {
            bars: Vec::new(),
            above: Vec::new(),
            fresh: Vec::new(),
            fastest: Vec::new(),
            walks: 0,
            claims: ProcSet::empty(0),
            counted: Counted::default(),
            pinned: Vec::new(),
            cross: CrossingScratch::default(),
            reach: Vec::new(),
            order: Vec::new(),
            protected: Vec::new(),
            shielded: Vec::new(),
            writers: Vec::new(),
        }
    }
}

/// Buffers of one job's crossing test.
#[derive(Clone, Debug)]
struct CrossingScratch {
    /// The job's crossings below the best term: instant, and index into
    /// the pinned jobs above it.
    crossings: Vec<(f64, usize)>,
    /// Per pinned job above it: whether the job crosses it.
    crossed: Vec<bool>,
    /// The claims a stage keeps above the job.
    trial: ProcSet,
}

impl Default for CrossingScratch {
    fn default() -> Self {
        CrossingScratch {
            crossings: Vec::new(),
            crossed: Vec::new(),
            trial: ProcSet::empty(0),
        }
    }
}

/// Widths outside one set of claims, counted on first use and kept until
/// the claims grow: a run of fresh jobs between two pinned ones shares
/// them. Each count carries the generation of the claims it was taken
/// under, so forgetting them all is one increment.
#[derive(Clone, Debug, Default)]
struct Counted {
    /// Pool processors outside the claims.
    pool: u32,
    /// The current claims' generation.
    generation: u32,
    /// Per victim: its processors outside the claims, and their
    /// generation.
    gains: Vec<(u32, u32)>,
    /// Per cover prefix: its processors outside the claims, and their
    /// generation.
    bounds: Vec<(u32, u32)>,
}

impl Counted {
    /// Start over for a walk over `victims` victims with no claim yet.
    fn start(&mut self, pool: u32, victims: usize) {
        self.pool = pool;
        self.generation = 1;
        self.gains.clear();
        self.gains.resize(victims, (0, 0));
        self.bounds.clear();
        self.bounds.resize(victims + 1, (0, 0));
    }

    /// Forget every count: the claims grew, and leave `pool` of the pool's
    /// processors outside them.
    fn forget(&mut self, pool: u32) {
        self.pool = pool;
        self.generation += 1;
    }

    /// The count at `slot`, taken by `count` unless this generation has it.
    fn get(
        slots: &mut [(u32, u32)],
        generation: u32,
        slot: usize,
        count: impl FnOnce() -> u32,
    ) -> u32 {
        let (g, v) = &mut slots[slot];
        if *g != generation {
            *g = generation;
            *v = count();
        }
        *v
    }
}

/// Record a pinned job claiming `claim` as `above[above.len()]`.
fn push_pinned(scratch: &mut HorizonScratch, x: f64, e: f64, claim: &ProcSet) {
    let i = scratch.above.len();
    scratch.above.push(Pinned { x, e });
    match scratch.pinned.get_mut(i) {
        Some(set) => set.copy_from(claim),
        None => scratch.pinned.push(claim.clone()),
    }
}

/// The horizon of a decide that acted on nothing, read off the mirror it
/// left in `arena` (`free` the working free pool, `table` the ascending
/// victim table): the earliest instant a later tick decide could act or
/// write other decision records if no transition comes first, or `None`
/// if a term lies at or before `floor` (the walk stops there). `idle` is
/// the idle order as of `now`. The walk lists in `scratch.writers` the
/// fresh jobs whose tick scans write a decision record. A walk that
/// returns `Some` leaves every pinned claim in `scratch.claims`.
///
/// The first pass walks the idle order once, growing the claims as it
/// goes, and takes every job's own term: (a), (b) and, for TSS, (d); a
/// fresh job that one of its width above it covers takes no (b) or (c).
/// Crossings (c) come second, bounded by the best term so far.
#[allow(clippy::too_many_arguments)]
fn horizon(
    cfg: &SsConfig,
    idle: &[(f64, JobId)],
    state: &SimState,
    arena: &mut DecideArena,
    scratch: &mut HorizonScratch,
    now: f64,
    floor: f64,
) -> Option<f64> {
    let tss = cfg.limits.is_some();
    let total = state.total_procs();
    let vset = |vid: JobId| state.assigned_set(vid).expect("running job has a set");
    let n = arena.table.entries().len();
    arena.table.cover(n, total, vset);
    let victims = arena.table.entries();
    scratch.bars.clear();
    scratch.bars.extend(victims.iter().map(|v| cfg.sf * v.prio));
    scratch.above.clear();
    scratch.fresh.clear();
    scratch.walks += 1;
    scratch.fastest.resize(total as usize + 1, (0, 0.0));
    scratch.protected.clear();
    scratch.shielded.clear();
    scratch.writers.clear();
    if scratch.claims.universe() != total {
        scratch.claims = ProcSet::empty(total);
    }
    scratch.claims.clear();
    scratch.counted.start(arena.free.count(), victims.len());
    if let Some(limits) = &cfg.limits {
        // A running victim's frozen priority is its xfactor, so this is
        // `SsConfig::protection` with each category's limit taken once.
        let limit: [f64; 16] = std::array::from_fn(|i| limits.limit_for(Category::from_index(i)));
        for (j, v) in victims.iter().enumerate() {
            let cat = Category::classify(state.xfactor_est(v.id), v.procs);
            let protected = v.prio > limit[cat.index()];
            debug_assert_eq!(protected, cfg.protection(state, v.id).is_some());
            scratch.protected.push(protected);
            if protected {
                scratch.shielded.push(j);
            }
        }
    }
    let mut best = f64::INFINITY;
    // TSS: the qualifying prefix only shrinks down the idle order.
    let mut prefix = scratch.bars.len();
    macro_rules! fold {
        ($term:expr) => {
            best = best.min($term);
            if best <= floor {
                return None;
            }
        };
    }
    for &(x, id) in idle {
        let e = state.xfactor_est(id) as f64;
        if cfg.pinned(state, id) {
            let needed = state.assigned_set(id).expect("suspended job keeps its set");
            if !state.is_stranded(id) {
                fold!(reentry_term(
                    state,
                    arena,
                    &scratch.bars,
                    now,
                    x,
                    e,
                    needed,
                    best
                ));
            }
            scratch.claims.union_with(needed);
            let pool = arena.free.count_excluding(&scratch.claims);
            scratch.counted.forget(pool);
            push_pinned(scratch, x, e, needed);
            continue;
        }
        let victims = arena.table.entries();
        let mut job = Fresh {
            x,
            e,
            k: 0,
            need: state.width(id),
            above: scratch.above.len(),
        };
        if tss {
            while prefix > 0 && x < scratch.bars[prefix - 1] {
                prefix -= 1;
            }
            job.k = prefix;
            if shielded_terms(cfg, victims, &scratch.shielded, now, &job, &mut best) {
                scratch.writers.push(job);
            }
            fold!(best);
        }
        // A fresh job above of the same width that grows at least as fast
        // stays at or above this one, sees no claim this one does not, and
        // qualifies against every victim no later: whenever this one could
        // start, that one could already, so this one's start and crossing
        // terms never come first.
        let fastest = &mut scratch.fastest[job.need as usize];
        if fastest.0 == scratch.walks && fastest.1 <= e {
            continue;
        }
        *fastest = (scratch.walks, e);
        let mirror = Mirror {
            cfg,
            state,
            free: &arena.free,
            victims,
            bars: &scratch.bars,
            covers: arena.table.built_covers(),
            protected: &scratch.protected,
        };
        fold!(mirror.start(&scratch.claims, Some(&mut scratch.counted), now, &job, best));
        scratch.fresh.push(job);
    }
    if !scratch.writers.is_empty() {
        fold!(record_swaps(cfg, arena.table.entries(), scratch, now, best));
    }
    // Crossings (c). A fresh job rises above a pinned `s` before `best`
    // iff it is above `s` then — an O(1) test against the least pinned
    // xfactor at `best`. Its term comes no earlier than its first
    // crossing, so the jobs that pass are taken in order of that, and the
    // pass ends at the first whose crossing is not below the best term.
    if best.is_finite() {
        let mut least = f64::INFINITY;
        scratch.reach.clear();
        scratch.reach.extend(scratch.above.iter().map(|s| {
            least = least.min(s.x + (best - now) / s.e);
            least
        }));
    }
    scratch.order.clear();
    for (i, job) in scratch.fresh.iter().enumerate() {
        if job.above == 0
            || best.is_finite() && scratch.reach[job.above - 1] >= job.x + (best - now) / job.e
        {
            continue;
        }
        let first = scratch.above[..job.above]
            .iter()
            .filter(|s| s.e > job.e)
            .map(|s| now + (s.x - job.x) * s.e * job.e / (s.e - job.e))
            .fold(f64::INFINITY, f64::min);
        if first < best {
            scratch.order.push((first, i));
        }
    }
    scratch.order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    for k in 0..scratch.order.len() {
        let (first, i) = scratch.order[k];
        if first >= best {
            break;
        }
        let job = scratch.fresh[i];
        let mirror = Mirror {
            cfg,
            state,
            free: &arena.free,
            victims: arena.table.entries(),
            bars: &scratch.bars,
            covers: arena.table.built_covers(),
            protected: &scratch.protected,
        };
        fold!(mirror.crossing_term(
            &scratch.above,
            &scratch.pinned,
            &mut scratch.cross,
            now,
            &job,
            best
        ));
    }
    Some(best)
}

/// The fixed part of a no-op decide's mirror that start terms read.
struct Mirror<'a> {
    cfg: &'a SsConfig,
    state: &'a SimState,
    /// The working free pool.
    free: &'a ProcSet,
    /// The ascending victim table; empty when only placements count.
    victims: &'a [Victim],
    /// `SF × prio` per victim.
    bars: &'a [f64],
    /// The victims' cover prefixes, all built.
    covers: &'a [ProcSet],
    /// TSS protection per victim (empty for SS).
    protected: &'a [bool],
}

impl Mirror<'_> {
    /// Term (b): the first instant a fresh job starts with `claims` above
    /// it — at once if the pool outside them fits it, else once it
    /// qualifies against the first prefix of victims whose eligible
    /// entries' processors outside them make up the rest — or infinity if
    /// that is not before `best`. `counted`, if given, holds the widths
    /// already counted outside `claims`.
    fn start(
        &self,
        claims: &ProcSet,
        mut counted: Option<&mut Counted>,
        now: f64,
        job: &Fresh,
        best: f64,
    ) -> f64 {
        let mut have = match &counted {
            Some(c) => c.pool,
            None => self.free.count_excluding(claims),
        };
        if have >= job.need {
            return now;
        }
        // Only the victims it qualifies against before `best` count; all
        // of their processors outside the claims bound what it can gain.
        let reach = job.x + (best - now) / job.e;
        let limit = self.bars.partition_point(|&bar| bar < reach);
        if limit == 0 {
            return f64::INFINITY;
        }
        let bound = || self.covers[limit].count_excluding(claims);
        let bound = match counted.as_deref_mut() {
            Some(c) => Counted::get(&mut c.bounds, c.generation, limit, bound),
            None => bound(),
        };
        if have + bound < job.need {
            return f64::INFINITY;
        }
        for (j, v) in self.victims[..limit].iter().enumerate() {
            if !self.cfg.width_ok(v, job.need) || self.protected.get(j).copied().unwrap_or(false) {
                continue;
            }
            let width = || {
                self.state
                    .assigned_set(v.id)
                    .expect("running job has a set")
                    .count_excluding(claims)
            };
            have += match counted.as_deref_mut() {
                Some(c) => Counted::get(&mut c.gains, c.generation, j, width),
                None => width(),
            };
            if have >= job.need {
                return reaches(now, job.x, job.e, self.bars[j]).max(now);
            }
        }
        f64::INFINITY
    }

    /// Term (c): the job rises above each pinned job of
    /// `above[..job.above]` that grows slower than it, and may
    /// start there without that claim. Crossings are taken in ascending
    /// order below `best`. A job whose start with every such claim gone
    /// still comes too late is done at once; otherwise its stages are
    /// re-tested from the last, adding the claims back one at a time,
    /// until a start comes at or after `best`.
    fn crossing_term(
        &self,
        above: &[Pinned],
        pinned: &[ProcSet],
        scratch: &mut CrossingScratch,
        now: f64,
        job: &Fresh,
        best: f64,
    ) -> f64 {
        let CrossingScratch {
            crossings,
            crossed,
            trial,
        } = scratch;
        crossings.clear();
        for (i, s) in above[..job.above].iter().enumerate() {
            if s.e > job.e {
                let t = now + (s.x - job.x) * s.e * job.e / (s.e - job.e);
                if t < best {
                    crossings.push((t, i));
                }
            }
        }
        if crossings.is_empty() {
            return f64::INFINITY;
        }
        crossings.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        crossed.clear();
        crossed.resize(job.above, false);
        for &(_, i) in crossings.iter() {
            crossed[i] = true;
        }
        let claim = |i: usize| &pinned[i];
        if trial.universe() != self.free.universe() {
            *trial = ProcSet::empty(self.free.universe());
        }
        trial.clear();
        for i in (0..job.above).filter(|&i| !crossed[i]) {
            trial.union_with(claim(i));
        }
        let mut best = best;
        let mut start = self.start(trial, None, now, job, best);
        if start.max(crossings[0].0) >= best {
            return f64::INFINITY;
        }
        for &(t, i) in crossings.iter().rev() {
            best = best.min(start.max(t));
            trial.union_with(claim(i));
            start = self.start(trial, None, now, job, best);
            if start >= best {
                break;
            }
        }
        best
    }
}

/// Term (a): the instant a pinned suspended job whose xfactor is `x` at
/// `now` re-enters on `needed` — once it qualifies against the last
/// victim of the first table prefix whose cover holds `needed ∖ F` — or
/// infinity if no prefix it reaches before `best` does.
#[allow(clippy::too_many_arguments)]
fn reentry_term(
    state: &SimState,
    arena: &mut DecideArena,
    bars: &[f64],
    now: f64,
    x: f64,
    e: f64,
    needed: &ProcSet,
    best: f64,
) -> f64 {
    let reach = x + (best - now) / e;
    let limit = bars.partition_point(|&bar| bar < reach);
    if limit == 0 {
        // It qualifies against no victim before `best`; the walk found
        // `needed ⊄ F`, so it cannot re-enter without one.
        return f64::INFINITY;
    }
    arena.missing.copy_from(needed);
    arena.missing.subtract(&arena.free);
    if arena.missing.is_empty() {
        return now;
    }
    let vset = |vid: JobId| state.assigned_set(vid).expect("running job has a set");
    match arena
        .table
        .first_cover_of(&arena.missing, limit, state.total_procs(), vset)
    {
        Some(k) => reaches(now, x, e, bars[k - 1]).max(now),
        None => f64::INFINITY,
    }
}

/// TSS, term (d) for one fresh job: fold into `best` the instant the
/// first protected victim it may suspend joins its qualifying prefix, and
/// return whether the prefix holds one already — whether its tick scan
/// writes `blocked_by_disable_limit` records.
fn shielded_terms(
    cfg: &SsConfig,
    victims: &[Victim],
    shielded: &[usize],
    now: f64,
    job: &Fresh,
    best: &mut f64,
) -> bool {
    let mut loud = false;
    for &j in shielded {
        if !cfg.width_ok(&victims[j], job.need) {
            continue;
        }
        if j < job.k {
            loud = true;
            continue;
        }
        *best = best.min(reaches(now, job.x, job.e, cfg.sf * victims[j].prio));
        break;
    }
    loud
}

/// TSS, term (d) for the order of fresh jobs: the first instant two whose
/// record sequences differ swap places, or `best` if none does before it.
/// The sequences are written in serving order. A job that writes nothing
/// may move freely (term (d) for its own prefix covers the instant it
/// starts writing), and so may the writers of a run of equal neighbours
/// among `scratch.writers`: the first swap that changes what is written
/// is between adjacent runs.
fn record_swaps(
    cfg: &SsConfig,
    victims: &[Victim],
    scratch: &HorizonScratch,
    now: f64,
    mut best: f64,
) -> f64 {
    let in_seq = |j: usize, f: &Fresh| j < f.k && cfg.width_ok(&victims[j], f.need);
    let same = |a: &Fresh, b: &Fresh| {
        scratch
            .shielded
            .iter()
            .all(|&j| in_seq(j, a) == in_seq(j, b))
    };
    let fresh = &scratch.writers;
    let run_end = |from: usize| {
        let mut i = from + 1;
        while i < fresh.len() && same(&fresh[i - 1], &fresh[i]) {
            i += 1;
        }
        i
    };
    let (mut lo, mut mid) = (0, run_end(0));
    while mid < fresh.len() {
        let hi = run_end(mid);
        for a in &fresh[lo..mid] {
            for b in fresh[mid..hi].iter().filter(|b| b.e < a.e) {
                best = best.min(now + (a.x - b.x) * a.e * b.e / (a.e - b.e));
            }
        }
        (lo, mid) = (mid, hi);
    }
    best
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

    /// Each decide's instant, tick flag, reported horizon, and whether
    /// the certificate answered it.
    type DecideLog = std::rc::Rc<std::cell::RefCell<Vec<(i64, bool, Option<f64>, bool)>>>;

    /// SS/TSS forwarding every call, logging each decide.
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
            let certified = self.inner.certified;
            self.inner.decide(state, ctx, actions);
            let h = ctx
                .noop_until
                .get()
                .filter(|&h| floor.is_some_and(|f| h > f));
            let answered = self.inner.certified > certified;
            self.log
                .borrow_mut()
                .push((state.now().secs(), ctx.tick, h, answered));
        }

        fn on_completion(&mut self, outcome: &JobOutcome) {
            self.inner.on_completion(outcome);
        }
    }

    /// Run `jobs` on `procs` processors under `policy`, logging decides.
    fn run_logged(
        jobs: Vec<Job>,
        procs: u32,
        policy: SelectiveSuspension,
    ) -> (crate::sim::SimResult, DecideLog) {
        let log = DecideLog::default();
        let logged = Logged {
            inner: policy,
            log: std::rc::Rc::clone(&log),
        };
        (Simulator::new(jobs, procs, Box::new(logged)).run(), log)
    }

    /// The logged decide at instant `t`.
    fn decide_at(log: &DecideLog, t: i64) -> (i64, bool, Option<f64>, bool) {
        *log.borrow()
            .iter()
            .find(|d| d.0 == t)
            .unwrap_or_else(|| panic!("no decide at {t}"))
    }

    fn assert_horizon(got: Option<f64>, want: f64) {
        let h = got.expect("the no-op decide reports a horizon");
        assert!((h - want).abs() < 1e-6, "horizon {h}, want {want}");
    }

    #[test]
    fn swaps_between_fresh_jobs_leave_the_horizon_alone() {
        // j0 fills the machine from t = 0 (xfactor 1, so SF × 1 = 2).
        // Three 2-wide jobs wait behind it, none allowed to suspend it
        // (8 > 2 × 2): A (est 10⁶, from 0), B (est 5 × 10⁵, from 5 000)
        // and C (est 60, from 5 000). C qualifies at 5 060, so the 5 100
        // tick runs the full scan and acts on nothing. B overtakes A at
        // 10 000, but two fresh jobs test the same sets in either order,
        // and no job can ever act before j0 completes: the horizon is
        // infinite and no tick runs until then.
        let jobs = vec![
            Job::new(0, 0, 1_000_000, 1_000_000, 8),
            Job::new(1, 0, 1_000_000, 1_000_000, 2),
            Job::new(2, 5_000, 500_000, 500_000, 2),
            Job::new(3, 5_000, 60, 60, 2),
        ];
        let (res, log) = run_logged(jobs, 8, SelectiveSuspension::ss(2.0));
        assert_eq!(res.preemptions, 0);
        let (_, tick, h, _) = decide_at(&log, 5_100);
        assert!(tick);
        assert_eq!(h, Some(f64::INFINITY));
        let log = log.borrow();
        let next = log.iter().position(|d| d.0 == 5_100).unwrap() + 1;
        assert_eq!(log[next].0, 1_000_000, "the next decide is j0's completion");
    }

    #[test]
    fn a_fresh_job_crossing_a_suspended_claim_starts_at_the_crossing() {
        // S (8 wide, est 10⁵) runs from 0 on a 10-processor machine
        // beside R (2 wide, until 200 000). P (5 wide, est 60 000) reaches
        // SF × 1 at 60 000 and suspends S; it takes five of S's
        // processors, so the other three are free but claimed by S, which
        // cannot re-enter before xf(S) = 2 × xf(P) = 4. F (3 wide, est
        // 5 × 10⁴) arrives at 70 000 below S. Its xfactor grows twice as
        // fast as S's from 0.1 behind, so it rises above S at 70 000 +
        // 0.1 / (1/50 000 − 1/100 000) = 80 000 and then fits the three
        // processors. Its arrival decide reports that crossing; the ticker
        // is armed at 79 980, the first tick at or after 80 000 − 60, which
        // still finds S above F, and F starts at the next tick.
        let jobs = vec![
            Job::new(0, 0, 100_000, 100_000, 8),
            Job::new(1, 0, 200_000, 200_000, 2),
            Job::new(2, 0, 60_000, 60_000, 5),
            Job::new(3, 70_000, 1_000, 50_000, 3),
        ];
        let (res, log) = run_logged(jobs, 10, SelectiveSuspension::ss(2.0));
        let f = res.outcomes.iter().find(|o| o.id == JobId(3)).unwrap();
        let (_, tick, h, _) = decide_at(&log, 70_000);
        assert!(!tick);
        assert_horizon(h, 80_000.0);
        let (_, tick, h, _) = decide_at(&log, 79_980);
        assert!(
            tick && h.is_none(),
            "the tick before the crossing acts on nothing"
        );
        assert_eq!(f.first_start.secs(), 80_040);
    }

    #[test]
    fn a_fresh_job_waits_for_the_victims_that_make_up_its_width() {
        // A 7-processor machine: V1 (3 wide) runs from 0 at xfactor 1;
        // V2 (4 wide) starts at 1 000 behind A, at xfactor 1.001. G (1
        // wide, est 10, from 1 500) qualifies against both from 1 510 but
        // may suspend neither (3, 4 > 2 × 1), so every tick runs the full
        // scan. F (7
        // wide, est 10⁵, from 2 000) qualifies against V1 at 102 000,
        // which alone gives 3 of its 7 processors, and against V2 at
        // 102 200, when both together fit it. The horizon is the second
        // instant, not the first; F suspends both at the 102 240 tick.
        let jobs = vec![
            Job::new(0, 0, 1_000, 1_000, 4),
            Job::new(1, 0, 1_000_000, 1_000_000, 3),
            Job::new(2, 0, 1_000_000, 1_000_000, 4),
            Job::new(3, 1_500, 10, 10, 1),
            Job::new(4, 2_000, 500, 100_000, 7),
        ];
        let (res, log) = run_logged(jobs, 7, SelectiveSuspension::ss(2.0));
        let (_, tick, h, _) = decide_at(&log, 2_040);
        assert!(tick);
        assert_horizon(h, 102_200.0);
        let f = res.outcomes.iter().find(|o| o.id == JobId(4)).unwrap();
        assert_eq!(f.first_start.secs(), 102_240);
        assert_eq!(res.preemptions, 2);
    }

    #[test]
    fn a_faster_job_below_one_of_its_width_bounds_the_horizon() {
        // V (8 wide, est 10⁶) fills an 8-processor machine. G (1 wide, est
        // 10, from 500) qualifies against V but may not suspend it (8 > 2
        // × 1), so every tick runs the full scan. A and B (4 wide each) may
        // suspend V once they reach SF × 1 = 2: A (est 20 000, from 0) at
        // 20 000, B (est 1 000, from 1 000) at 2 000. At the 1 020 tick B
        // sits below A (1.02 against 1.051) but grows faster, so a job of
        // its width above it does not cover its term: that tick's horizon
        // is B's 2 000, and B suspends V at the first tick after it.
        let jobs = vec![
            Job::new(0, 0, 1_000_000, 1_000_000, 8),
            Job::new(1, 0, 20_000, 20_000, 4),
            Job::new(2, 500, 10, 10, 1),
            Job::new(3, 1_000, 1_000, 1_000, 4),
        ];
        let (res, log) = run_logged(jobs, 8, SelectiveSuspension::ss(2.0));
        let (_, tick, h, _) = decide_at(&log, 1_020);
        assert!(tick);
        assert_horizon(h, 2_000.0);
        let b = res.outcomes.iter().find(|o| o.id == JobId(3)).unwrap();
        assert_eq!(b.first_start.secs(), 2_040);
    }

    #[test]
    fn the_certificate_answers_arrivals_that_cannot_start_and_stale_batches() {
        // The setting of the crossing test, with F replaced: S (8 wide)
        // is suspended by P at 60 000, leaving three free processors that
        // S claims. B (3 wide, est 10⁶) arrives at 61 000 and cannot use
        // them: it grows slower than S and stays below it. R completes at
        // 65 000 and frees two unclaimed processors; B does not fit them,
        // so that decide keeps a certificate. A1 (2 wide) arrives at
        // 66 000 and fits them: the certificate sends it to the full
        // decide, which starts it at once. A2 (3 wide) arrives at 67 000
        // and fits nothing, and S's original completion event, stale since
        // its suspension, fires alone at 100 000: the certificate answers
        // both without a walk.
        let jobs = vec![
            Job::new(0, 0, 100_000, 100_000, 8),
            Job::new(1, 0, 65_000, 65_000, 2),
            Job::new(2, 0, 60_000, 60_000, 5),
            Job::new(3, 61_000, 1_000, 1_000_000, 3),
            Job::new(4, 66_000, 1_000_000, 1_000_000, 2),
            Job::new(5, 67_000, 1_000, 1_000_000, 3),
        ];
        let (res, log) = run_logged(jobs, 10, SelectiveSuspension::ss(2.0));
        let a1 = res.outcomes.iter().find(|o| o.id == JobId(4)).unwrap();
        assert_eq!(
            a1.first_start.secs(),
            66_000,
            "a fitting arrival starts at once"
        );
        assert!(
            !decide_at(&log, 66_000).3,
            "a fitting arrival runs the full decide"
        );
        assert!(
            decide_at(&log, 67_000).3,
            "a non-fitting arrival is certified"
        );
        assert!(
            decide_at(&log, 100_000).3,
            "a stale-only batch is certified"
        );
    }

    /// The bound of a kept certificate, and whether it answered a decide.
    type Seen = std::rc::Rc<Cell<Option<(Option<f64>, bool)>>>;

    /// SS forwarding every call; right after its decide at `keep_at` it
    /// keeps a copy of itself, whose certificate the decide at `probe_at`
    /// is offered before the real decide runs. `seen` gets the kept
    /// certificate's bound and whether it answered.
    struct Probe {
        inner: SelectiveSuspension,
        keep_at: i64,
        probe_at: i64,
        kept: Option<SelectiveSuspension>,
        seen: Seen,
    }

    impl Policy for Probe {
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
            let now = state.now().secs();
            if now == self.probe_at {
                let kept = self.kept.as_mut().expect("a copy kept before the probe");
                let act = kept.cert.and_then(|c| c.act);
                let floor = ctx.noop_until.get();
                let answered = kept.answer_from_certificate(state, ctx, floor);
                ctx.noop_until.set(floor);
                self.seen.set(Some((act, answered)));
            }
            self.inner.decide(state, ctx, actions);
            if now == self.keep_at {
                self.kept = Some(self.inner.clone());
            }
        }

        fn on_completion(&mut self, outcome: &JobOutcome) {
            self.inner.on_completion(outcome);
        }
    }

    #[test]
    fn the_certificate_stops_a_second_short_of_an_integer_crossing() {
        // The crossing test's setting: F's arrival decide at 70 000 keeps
        // a certificate bounded by F's crossing over S, exactly 80 000 but
        // computed a few ulps past it, and nothing but the clock and
        // arrivals moves until then. A (2 wide) arrives at 80 000 and fits
        // nowhere. Offered that decide, the certificate kept at 70 000
        // must decline it: at an exact crossing an id tie-break can favour
        // the fresh job, so its start may fall at 80 000 itself.
        let jobs = vec![
            Job::new(0, 0, 100_000, 100_000, 8),
            Job::new(1, 0, 200_000, 200_000, 2),
            Job::new(2, 0, 60_000, 60_000, 5),
            Job::new(3, 70_000, 1_000, 50_000, 3),
            Job::new(4, 80_000, 1_000, 1_000, 2),
        ];
        let seen = Seen::default();
        let probe = Probe {
            inner: SelectiveSuspension::ss(2.0),
            keep_at: 70_000,
            probe_at: 80_000,
            kept: None,
            seen: std::rc::Rc::clone(&seen),
        };
        let res = Simulator::new(jobs, 10, Box::new(probe)).run();
        let f = res.outcomes.iter().find(|o| o.id == JobId(3)).unwrap();
        assert_eq!(f.first_start.secs(), 80_040);
        let (act, answered) = seen.get().expect("a decide at the crossing");
        let act = act.expect("the arrival decide keeps a bounded certificate");
        assert!(
            (act - 80_000.0).abs() < 1e-6,
            "bounded by the crossing: {act}"
        );
        assert!(!answered, "the certificate answered the decide at {act}");
    }

    #[test]
    fn a_protected_victim_joining_a_prefix_ends_the_tss_horizon() {
        // TSS with static limits that always protect V's category (L, N)
        // and no other. V (8 wide, est 20 000) and Z (3 wide, until 500)
        // fill an 11-processor machine; U (3 wide, est 10⁶) starts when Z
        // completes, at xfactor 1.0005. G (1 wide, est 10, from 600)
        // qualifies against all of them but may suspend none, so every
        // tick runs the full scan. F (8 wide, est 5 000, from 1 000) can never start (U
        // alone gives 3 of 8, and V is protected), but once it qualifies
        // against V at 6 000 every tick scan writes a
        // `blocked_by_disable_limit` record for V: the horizon ends there.
        let v = Category::classify(20_000, 8);
        let mut avgs = [f64::INFINITY; 16];
        avgs[v.index()] = 0.5;
        let cfg = SsConfig {
            limits: Some(TssLimits::with_static_averages(avgs, 1.5)),
            ..SsConfig::ss(2.0)
        };
        let jobs = vec![
            Job::new(0, 0, 20_000, 20_000, 8),
            Job::new(1, 0, 500, 500, 3),
            Job::new(2, 0, 1_000_000, 1_000_000, 3),
            Job::new(3, 600, 10, 10, 1),
            Job::new(4, 1_000, 5_000, 5_000, 8),
        ];
        let (res, log) = run_logged(jobs, 11, SelectiveSuspension::new(cfg));
        assert_eq!(res.preemptions, 0);
        let (_, tick, h, _) = decide_at(&log, 1_020);
        assert!(tick);
        assert_horizon(h, 6_000.0);
        assert!(
            log.borrow().iter().any(|d| d.0 == 5_940),
            "the tick armed before the record begins"
        );
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
