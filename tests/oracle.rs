//! The paper as an executable spec: a deliberately naive simulator of
//! Sections III–V, and a differential test of the production kernel
//! against it.
//!
//! The oracle keeps one record per job and one owner per processor, and
//! nothing else: no index, no release ledger, no kept order, no horizon,
//! no certificate and no elided tick. Time moves from instant to instant:
//! arrivals, completions, drain ends, and every minute while a job is in
//! the system. Each such instant first applies its completions, drain ends
//! and arrivals, then decides once by scanning the job table:
//!
//! * **NS** (EASY, Section II-A.2): queued jobs start in arrival order
//!   while they fit. The first that does not gets the one reservation, the
//!   earliest instant at which the running jobs' estimates free enough
//!   processors, and each later job backfills if it ends by that instant
//!   or fits the processors the reservation leaves spare.
//! * **SS** (Section IV-B): the idle jobs, queued and suspended, are
//!   served in descending xfactor, `(wait + estimate) / estimate`, which
//!   grows while a job waits and is frozen while it runs. A job that fits
//!   the free processors starts (or, suspended, re-enters on its own
//!   processors). Only on the minute does the preemption routine run: a
//!   fresh job may suspend running jobs whose xfactor times SF is at most
//!   its own, no more than twice its width, cheapest first, until enough
//!   processors are free, widest first; a suspended job re-enters by
//!   suspending every running job on its processors, all of which must so
//!   qualify.
//! * **TSS** (Section IV-E): SS, but a running job whose xfactor exceeds
//!   1.5 times the average slowdown of its category is not a victim of a
//!   fresh job. The average is over the category's completions so far and
//!   counts only after a warm-up number of them.
//! * **IS** (Section II-C): waiting jobs, this instant's arrivals first,
//!   then older ones, are served at once, by suspending the running jobs of
//!   lowest instantaneous xfactor `(wait + run so far) / run so far` that
//!   are past their 10-minute protection (granted at every start and
//!   resume). Suspended jobs then re-enter, highest instantaneous xfactor
//!   first, when their own processors are free.
//! * **Overhead** (Section V-A): a suspension drains the job's memory at
//!   2 MB/s per processor, `ceil((mem / width) / 2)` seconds, and keeps its
//!   processors that long; a re-entry reloads for as long before it
//!   computes again. A job restarts on the processors it held.
//!
//! Where the paper is silent the oracle follows DESIGN.md, in its own
//! code: the preemptive schemes plan against free and draining
//! processors, and an action whose processors are not free when it is
//! applied is dropped; SS places a fresh job on the lowest-numbered free
//! processors outside the claims of suspended jobs above it, preferring
//! those no suspended job claims; SS ties in xfactor go to the lower id,
//! and victims of equal usable width are taken cheapest first; IS victims
//! of equal instantaneous xfactor are taken in dispatch order, the latest
//! dispatched of those taken is suspended first, and re-entry ties go to
//! the earlier suspension; suspended jobs count as waiting from the
//! instant they are preempted; same-instant completions are applied in
//! dispatch order.

use selective_preemption::core::sched::{SelectiveSuspension, SsConfig, TssLimits};
use selective_preemption::core::theory::max_suspensions;
use selective_preemption::core::Policy;
use selective_preemption::prelude::*;

/// The preemption routine's period, seconds.
const TICK: i64 = 60;
/// IS's protection after a start or resume, seconds.
const TIMESLICE: i64 = 600;
/// TSS's disable limit, in multiples of the category's average slowdown.
const LIMIT_MULTIPLIER: f64 = 1.5;
/// Per-processor drain rate of the overhead model, MB/s.
const DRAIN_MB_PER_SEC: f64 = 2.0;

/// One scheduling scheme of the paper.
#[derive(Clone, Copy, Debug)]
enum Scheme {
    Ns,
    Ss { sf: f64 },
    Tss { sf: f64, min_samples: u64 },
    Is,
}

/// A job's outcome as both simulators report it.
type Outcome = (u32, i64, i64, u32);

#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    Future,
    Queued,
    Running,
    Draining,
    Suspended,
    Done,
}

#[derive(Clone, Debug)]
struct Rec {
    job: Job,
    phase: Phase,
    /// The processors the job holds, or claims while suspended.
    procs: Vec<u32>,
    /// Seconds of computation left.
    remaining: i64,
    /// Running: when computation (re)starts, after any reload.
    compute_start: i64,
    /// Running: the completion instant; draining: the drain end.
    end: i64,
    /// Running: the release instant the estimate promises.
    est_end: i64,
    /// Seconds waited over closed waiting intervals.
    wait: i64,
    /// Start of the open waiting interval.
    wait_since: i64,
    first_start: Option<i64>,
    completion: i64,
    suspensions: u32,
    /// IS: protected from preemption before this instant.
    protected_until: i64,
}

/// One scheduling decision, applied only if it still holds.
#[derive(Clone, Debug)]
enum Act {
    /// Start a queued job, on the given processors or on the lowest free.
    Start(usize, Option<Vec<u32>>),
    Resume(usize),
    Suspend(usize),
}

struct Oracle {
    scheme: Scheme,
    overhead: bool,
    now: i64,
    jobs: Vec<Rec>,
    /// The job holding each processor (running or draining).
    owner: Vec<Option<usize>>,
    /// Queued jobs in arrival order.
    queue: Vec<usize>,
    /// Running jobs in dispatch order.
    running: Vec<usize>,
    /// Draining jobs in suspension order.
    draining: Vec<usize>,
    /// Suspended jobs in the order their drains ended.
    suspended: Vec<usize>,
    /// TSS: per category, the sum and count of completed slowdowns.
    slowdowns: [(f64, u64); 16],
    /// TSS: qualifying victims a disable limit took out of a scan.
    limit_blocks: u64,
}

impl Oracle {
    fn new(scheme: Scheme, procs: u32, jobs: &[Job], overhead: bool) -> Self {
        let jobs = jobs
            .iter()
            .map(|j| Rec {
                job: j.clone(),
                phase: Phase::Future,
                procs: Vec::new(),
                remaining: j.run,
                compute_start: 0,
                end: 0,
                est_end: 0,
                wait: 0,
                wait_since: 0,
                first_start: None,
                completion: 0,
                suspensions: 0,
                protected_until: i64::MIN,
            })
            .collect();
        Oracle {
            scheme,
            overhead,
            now: 0,
            jobs,
            owner: vec![None; procs as usize],
            queue: Vec::new(),
            running: Vec::new(),
            draining: Vec::new(),
            suspended: Vec::new(),
            slowdowns: [(0.0, 0); 16],
            limit_blocks: 0,
        }
    }

    fn run(mut self) -> (Vec<Outcome>, u64) {
        let n = self.jobs.len();
        let mut next = 0;
        self.now = self.jobs[0].job.submit.secs();
        loop {
            let mut event = false;
            for i in self.running.clone() {
                if self.jobs[i].end == self.now {
                    self.complete(i);
                    event = true;
                }
            }
            for i in self.draining.clone() {
                if self.jobs[i].end == self.now {
                    self.drain_done(i);
                    event = true;
                }
            }
            let mut arrivals = Vec::new();
            while next < n && self.jobs[next].job.submit.secs() == self.now {
                self.jobs[next].phase = Phase::Queued;
                self.jobs[next].wait_since = self.now;
                self.queue.push(next);
                arrivals.push(next);
                next += 1;
                event = true;
            }
            let tick = self.now % TICK == 0;
            if event || tick {
                let acts = match self.scheme {
                    Scheme::Ns => self.decide_ns(),
                    Scheme::Ss { sf } => self.decide_ss(sf, None, tick),
                    Scheme::Tss { sf, min_samples } => self.decide_ss(sf, Some(min_samples), tick),
                    Scheme::Is => self.decide_is(&arrivals),
                };
                for act in acts {
                    self.apply(act);
                }
            }
            // The next instant: an arrival, a completion, a drain end, or
            // the next minute while any job is in the system.
            let mut at = if next < n {
                self.jobs[next].job.submit.secs()
            } else {
                i64::MAX
            };
            for &i in self.running.iter().chain(&self.draining) {
                at = at.min(self.jobs[i].end);
            }
            let in_system = self
                .jobs
                .iter()
                .any(|r| !matches!(r.phase, Phase::Future | Phase::Done));
            if in_system {
                at = at.min((self.now / TICK + 1) * TICK);
            }
            if at == i64::MAX {
                break;
            }
            assert!(at > self.now, "time runs backwards at {}", self.now);
            self.now = at;
        }
        let outcomes = self
            .jobs
            .iter()
            .map(|r| {
                assert_eq!(r.phase, Phase::Done, "job {} never completed", r.job.id.0);
                (
                    r.job.id.0,
                    r.first_start.expect("completed job started"),
                    r.completion,
                    r.suspensions,
                )
            })
            .collect();
        (outcomes, self.limit_blocks)
    }

    /// Seconds a suspension drains, and a re-entry reloads, the job's
    /// memory.
    fn drain_secs(&self, i: usize) -> i64 {
        if !self.overhead {
            return 0;
        }
        let job = &self.jobs[i].job;
        let per_proc = job.mem_mb as f64 / job.procs as f64;
        (per_proc / DRAIN_MB_PER_SEC).ceil() as i64
    }

    fn waiting(&self, i: usize) -> bool {
        matches!(
            self.jobs[i].phase,
            Phase::Queued | Phase::Draining | Phase::Suspended
        )
    }

    /// Seconds waited so far, the open interval included.
    fn waited(&self, i: usize) -> i64 {
        let r = &self.jobs[i];
        r.wait
            + if self.waiting(i) {
                self.now - r.wait_since
            } else {
                0
            }
    }

    /// SS/TSS priority: `(wait + estimate) / estimate`.
    fn xfactor(&self, i: usize) -> f64 {
        let est = self.jobs[i].job.estimate.max(1) as f64;
        (self.waited(i) as f64 + est) / est
    }

    /// IS priority: `(wait + run so far) / run so far`, the run floored
    /// at one second.
    fn inst_xfactor(&self, i: usize) -> f64 {
        let r = &self.jobs[i];
        let mut done = r.job.run - r.remaining;
        if r.phase == Phase::Running && self.now > r.compute_start {
            done += self.now - r.compute_start;
        }
        let ran = done.max(1) as f64;
        (self.waited(i) as f64 + ran) / ran
    }

    fn is_free(&self, p: u32) -> bool {
        self.owner[p as usize].is_none()
    }

    /// The planning pool of the preemptive schemes: free processors and
    /// those whose drain is under way.
    fn pool(&self) -> Vec<bool> {
        self.owner
            .iter()
            .map(|o| o.is_none_or(|j| self.jobs[j].phase == Phase::Draining))
            .collect()
    }

    fn free_count(&self) -> u32 {
        self.owner.iter().filter(|o| o.is_none()).count() as u32
    }

    fn take(&mut self, i: usize, procs: Vec<u32>) {
        for &p in &procs {
            assert!(self.is_free(p));
            self.owner[p as usize] = Some(i);
        }
        self.jobs[i].procs = procs;
    }

    fn release(&mut self, i: usize) {
        for &p in &self.jobs[i].procs {
            self.owner[p as usize] = None;
        }
    }

    fn apply(&mut self, act: Act) {
        match act {
            Act::Start(i, set) => {
                if self.jobs[i].phase != Phase::Queued {
                    return;
                }
                let set = match set {
                    Some(set) if set.iter().all(|&p| self.is_free(p)) => set,
                    Some(_) => return,
                    None => {
                        let free: Vec<u32> = (0..self.owner.len() as u32)
                            .filter(|&p| self.is_free(p))
                            .take(self.jobs[i].job.procs as usize)
                            .collect();
                        if free.len() < self.jobs[i].job.procs as usize {
                            return;
                        }
                        free
                    }
                };
                self.take(i, set);
                let now = self.now;
                let r = &mut self.jobs[i];
                r.phase = Phase::Running;
                r.wait += now - r.wait_since;
                r.first_start.get_or_insert(now);
                r.compute_start = now;
                r.end = now + r.remaining;
                r.est_end = now + r.job.estimate;
                self.queue.retain(|&q| q != i);
                self.running.push(i);
            }
            Act::Resume(i) => {
                if self.jobs[i].phase != Phase::Suspended
                    || !self.jobs[i].procs.iter().all(|&p| self.is_free(p))
                {
                    return;
                }
                self.take(i, self.jobs[i].procs.clone());
                let (now, reload) = (self.now, self.drain_secs(i));
                let r = &mut self.jobs[i];
                r.phase = Phase::Running;
                r.wait += now - r.wait_since;
                r.compute_start = now + reload;
                r.end = r.compute_start + r.remaining;
                r.est_end = r.compute_start + (r.job.estimate - (r.job.run - r.remaining)).max(1);
                self.suspended.retain(|&q| q != i);
                self.running.push(i);
            }
            Act::Suspend(i) => {
                if self.jobs[i].phase != Phase::Running {
                    return;
                }
                let (now, drain) = (self.now, self.drain_secs(i));
                let r = &mut self.jobs[i];
                r.remaining -= (now - r.compute_start).max(0);
                assert!(
                    r.remaining > 0,
                    "job {} suspended after its work",
                    r.job.id.0
                );
                r.suspensions += 1;
                r.wait_since = now;
                self.running.retain(|&q| q != i);
                if drain == 0 {
                    self.release(i);
                    self.jobs[i].phase = Phase::Suspended;
                    self.suspended.push(i);
                } else {
                    self.jobs[i].phase = Phase::Draining;
                    self.jobs[i].end = now + drain;
                    self.draining.push(i);
                }
            }
        }
    }

    fn complete(&mut self, i: usize) {
        self.release(i);
        self.running.retain(|&q| q != i);
        let now = self.now;
        let r = &mut self.jobs[i];
        r.phase = Phase::Done;
        r.completion = now;
        r.remaining = 0;
        // Bounded slowdown (Eq. 1), keyed by the estimated category.
        let run = r.job.run;
        let wait = (now - r.job.submit.secs() - run).max(0);
        let slowdown = ((wait + run) as f64 / run.max(10) as f64).max(1.0);
        let cat = Category::classify(r.job.estimate, r.job.procs).index();
        self.slowdowns[cat].0 += slowdown;
        self.slowdowns[cat].1 += 1;
    }

    fn drain_done(&mut self, i: usize) {
        self.release(i);
        self.draining.retain(|&q| q != i);
        self.jobs[i].phase = Phase::Suspended;
        self.suspended.push(i);
    }

    /// NS: EASY backfilling with one reservation, for the queue's first
    /// job that does not fit.
    fn decide_ns(&self) -> Vec<Act> {
        let mut acts = Vec::new();
        let mut free = self.free_count();
        let mut k = 0;
        while k < self.queue.len() && self.jobs[self.queue[k]].job.procs <= free {
            free -= self.jobs[self.queue[k]].job.procs;
            acts.push(Act::Start(self.queue[k], None));
            k += 1;
        }
        if k == self.queue.len() {
            return acts;
        }
        // The head's reservation: the first instant at which the releases
        // the estimates promise (an overrun one a second from now), this
        // instant's starts included, leave it enough processors.
        let head = &self.jobs[self.queue[k]].job;
        let mut releases: Vec<(i64, u32)> = self
            .running
            .iter()
            .map(|&r| {
                (
                    self.jobs[r].est_end.max(self.now + 1),
                    self.jobs[r].job.procs,
                )
            })
            .chain(self.queue[..k].iter().map(|&q| {
                let j = &self.jobs[q].job;
                (self.now + j.estimate, j.procs)
            }))
            .collect();
        releases.sort();
        let mut avail = free;
        let mut shadow = None;
        for (idx, &(t, w)) in releases.iter().enumerate() {
            avail += w;
            let last_at_t = releases.get(idx + 1).is_none_or(|&(u, _)| u != t);
            if last_at_t && avail >= head.procs {
                shadow = Some(t);
                break;
            }
        }
        let shadow = shadow.expect("the whole machine frees eventually");
        let mut extra = avail - head.procs;
        for &q in &self.queue[k + 1..] {
            let j = &self.jobs[q].job;
            if j.procs > free {
                continue;
            }
            if self.now + j.estimate <= shadow {
                free -= j.procs;
            } else if j.procs <= extra {
                free -= j.procs;
                extra -= j.procs;
            } else {
                continue;
            }
            acts.push(Act::Start(q, None));
        }
        acts
    }

    /// TSS: whether running job `v`'s disable limit protects it.
    fn protected(&self, v: usize, min_samples: Option<u64>) -> bool {
        let Some(min_samples) = min_samples else {
            return false;
        };
        let job = &self.jobs[v].job;
        let (sum, count) =
            self.slowdowns[Category::classify(job.estimate.max(1), job.procs).index()];
        let limit = if count < min_samples.max(1) {
            f64::INFINITY
        } else {
            LIMIT_MULTIPLIER * sum / count as f64
        };
        self.xfactor(v) > limit
    }

    /// SS, or TSS with `min_samples`: serve the idle jobs in descending
    /// xfactor; preempt only on the minute.
    fn decide_ss(&mut self, sf: f64, min_samples: Option<u64>, tick: bool) -> Vec<Act> {
        let total = self.owner.len();
        let mut acts = Vec::new();
        let mut free = self.pool();
        // Claims of suspended jobs: a preference against placing fresh
        // jobs there, and a bar once their owner was passed over.
        let mut reserved = vec![false; total];
        for &s in &self.suspended {
            for &p in &self.jobs[s].procs {
                reserved[p as usize] = true;
            }
        }
        let mut blocked = vec![false; total];
        let mut idle: Vec<(f64, usize)> = self
            .queue
            .iter()
            .chain(&self.suspended)
            .map(|&i| (self.xfactor(i), i))
            .collect();
        idle.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut victims: Vec<(f64, usize)> =
            self.running.iter().map(|&v| (self.xfactor(v), v)).collect();
        victims.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let usable = |set: &[u32], blocked: &[bool]| -> u32 {
            set.iter().filter(|&&p| !blocked[p as usize]).count() as u32
        };
        for (x, i) in idle {
            if self.jobs[i].phase == Phase::Suspended {
                let needed = self.jobs[i].procs.clone();
                if needed.iter().all(|&p| free[p as usize]) {
                    for &p in &needed {
                        free[p as usize] = false;
                        reserved[p as usize] = false;
                    }
                    acts.push(Act::Resume(i));
                    continue;
                }
                let on_needed: Vec<(f64, usize)> = victims
                    .iter()
                    .copied()
                    .filter(|&(_, v)| self.jobs[v].procs.iter().any(|p| needed.contains(p)))
                    .collect();
                let qualifying: Vec<(f64, usize)> = on_needed
                    .iter()
                    .copied()
                    .filter(|&(prio, _)| x >= sf * prio)
                    .collect();
                let covered = needed.iter().all(|&p| {
                    free[p as usize]
                        || qualifying
                            .iter()
                            .any(|&(_, v)| self.jobs[v].procs.contains(&p))
                });
                if !tick || !covered {
                    for &p in &needed {
                        blocked[p as usize] = true;
                    }
                    continue;
                }
                for &(_, v) in &qualifying {
                    victims.retain(|&(_, w)| w != v);
                    for &p in &self.jobs[v].procs {
                        free[p as usize] = true;
                        reserved[p as usize] = true;
                    }
                    acts.push(Act::Suspend(v));
                }
                for &p in &needed {
                    free[p as usize] = false;
                    reserved[p as usize] = false;
                }
                acts.push(Act::Resume(i));
            } else {
                let need = self.jobs[i].job.procs;
                let allowed = (0..total).filter(|&p| free[p] && !blocked[p]).count() as u32;
                if need > allowed {
                    if !tick {
                        continue;
                    }
                    let mut chosen = Vec::new();
                    let mut gain = allowed;
                    for &(prio, v) in &victims {
                        if gain >= need || x < sf * prio {
                            break;
                        }
                        if self.jobs[v].job.procs > 2 * need {
                            continue;
                        }
                        if self.protected(v, min_samples) {
                            self.limit_blocks += 1;
                            continue;
                        }
                        chosen.push(v);
                        gain += usable(&self.jobs[v].procs, &blocked);
                    }
                    if gain < need {
                        continue;
                    }
                    // Widest first; a stable sort keeps the cheapest first
                    // among equals.
                    chosen
                        .sort_by_key(|&v| std::cmp::Reverse(usable(&self.jobs[v].procs, &blocked)));
                    let mut have = allowed;
                    for v in chosen {
                        if have >= need {
                            break;
                        }
                        have += usable(&self.jobs[v].procs, &blocked);
                        victims.retain(|&(_, w)| w != v);
                        for &p in &self.jobs[v].procs {
                            free[p as usize] = true;
                            reserved[p as usize] = true;
                        }
                        acts.push(Act::Suspend(v));
                    }
                }
                // The lowest free processors outside the bar, those no
                // suspended job claims first.
                let mut set: Vec<u32> = (0..total as u32)
                    .filter(|&p| free[p as usize] && !blocked[p as usize] && !reserved[p as usize])
                    .take(need as usize)
                    .collect();
                if set.len() < need as usize {
                    set.extend(
                        (0..total as u32)
                            .filter(|&p| {
                                free[p as usize] && !blocked[p as usize] && reserved[p as usize]
                            })
                            .take(need as usize - set.len()),
                    );
                    set.sort_unstable();
                }
                assert_eq!(set.len(), need as usize);
                for &p in &set {
                    free[p as usize] = false;
                }
                acts.push(Act::Start(i, Some(set)));
            }
        }
        acts
    }

    /// IS: serve every waiting job at once, preempting if needed; then
    /// re-enter suspended jobs whose processors are free.
    fn decide_is(&mut self, arrivals: &[usize]) -> Vec<Act> {
        let now = self.now;
        let mut acts = Vec::new();
        let mut free = self.pool();
        let mut victims: Vec<(f64, usize)> = self
            .running
            .iter()
            .map(|&v| (self.inst_xfactor(v), v))
            .collect();
        let waiting: Vec<usize> = arrivals
            .iter()
            .copied()
            .chain(self.queue.iter().copied().filter(|q| !arrivals.contains(q)))
            .collect();
        for a in waiting {
            let need = self.jobs[a].job.procs as usize;
            let pooled = free.iter().filter(|&&f| f).count();
            if need > pooled {
                let mut open: Vec<(f64, usize)> = victims
                    .iter()
                    .copied()
                    .filter(|&(_, v)| now >= self.jobs[v].protected_until)
                    .collect();
                open.sort_by(|x, y| x.0.total_cmp(&y.0));
                let mut gain = pooled;
                let mut chosen = Vec::new();
                for (_, v) in open {
                    if gain >= need {
                        break;
                    }
                    gain += self.jobs[v].job.procs as usize;
                    chosen.push(v);
                }
                if gain < need {
                    continue;
                }
                // The latest dispatched is suspended first.
                chosen.sort_by_key(|v| std::cmp::Reverse(self.running.iter().position(|r| r == v)));
                for v in chosen {
                    victims.retain(|&(_, w)| w != v);
                    for &p in &self.jobs[v].procs {
                        free[p as usize] = true;
                    }
                    acts.push(Act::Suspend(v));
                }
            }
            let mut left = need;
            for f in free.iter_mut() {
                if left > 0 && *f {
                    *f = false;
                    left -= 1;
                }
            }
            acts.push(Act::Start(a, None));
            self.jobs[a].protected_until = now + TIMESLICE;
        }
        let mut back: Vec<(f64, usize)> = self
            .suspended
            .iter()
            .map(|&s| (self.inst_xfactor(s), s))
            .collect();
        back.sort_by(|x, y| y.0.total_cmp(&x.0));
        for (_, s) in back {
            if self.jobs[s].procs.iter().all(|&p| free[p as usize]) {
                for &p in &self.jobs[s].procs {
                    free[p as usize] = false;
                }
                acts.push(Act::Resume(s));
                self.jobs[s].protected_until = now + TIMESLICE;
            }
        }
        acts
    }
}

/// One differential input: jobs on a machine, with or without the paper's
/// overhead.
#[derive(Clone, Debug)]
struct Workload {
    procs: u32,
    paper: bool,
    jobs: Vec<Job>,
}

/// splitmix64: a self-contained generator for the inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Seeded workloads per scheme.
const CASES: u64 = 2_000;
/// Jobs per workload.
const JOBS: usize = 40;

/// Seeded small workload `seed`: 40 jobs on 8, 16 or 32 processors,
/// widths from sequential to the whole machine, run times from 10 s to
/// 2 h (log-uniform), estimates exact or up to 5x over, memory from
/// 100 MB to 1 GB, and arrivals at offered loads from 0.5 to 4
/// (saturating), with same-instant and on-the-minute arrivals. Odd seeds
/// use the paper's overhead model.
fn workload(seed: u64) -> Workload {
    let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5eed);
    let procs = [8, 16, 32][rng.range(0, 2) as usize];
    let load = [0.5, 1.0, 2.0, 4.0][rng.range(0, 3) as usize];
    let mut shapes = Vec::with_capacity(JOBS);
    for _ in 0..JOBS {
        let width = match rng.range(0, 9) {
            0..=3 => rng.range(1, 2),
            4..=6 => rng.range(1, (procs / 4) as i64),
            7..=8 => rng.range(1, (procs / 2) as i64),
            _ => rng.range(1, procs as i64),
        } as u32;
        let run = (10.0 * 720f64.powf(rng.unit())).round() as i64;
        let estimate = if rng.range(0, 1) == 0 {
            run
        } else {
            (run as f64 * (1.0 + 4.0 * rng.unit())).ceil() as i64
        };
        let mem = rng.range(100, 1_024) as u32;
        shapes.push((run, estimate, width, mem));
    }
    let work: i64 = shapes.iter().map(|&(r, _, w, _)| r * w as i64).sum();
    let gap = work as f64 / JOBS as f64 / (procs as f64 * load);
    let mut t = 0i64;
    let jobs = shapes
        .into_iter()
        .enumerate()
        .map(|(i, (run, estimate, width, mem))| {
            if i > 0 {
                match rng.range(0, 9) {
                    0..=1 => {}
                    2..=3 => t = (t / TICK + 1) * TICK,
                    _ => t += (-gap * (1.0 - rng.unit()).ln()).round() as i64,
                }
            }
            let mut job = Job::new(i as u32, t, run, estimate, width);
            job.mem_mb = mem;
            job
        })
        .collect();
    Workload {
        procs,
        paper: seed % 2 == 1,
        jobs,
    }
}

fn policy(scheme: Scheme) -> Box<dyn Policy> {
    match scheme {
        Scheme::Ns => SchedulerKind::Easy.build(),
        Scheme::Ss { sf } => SchedulerKind::Ss { sf }.build(),
        Scheme::Tss { sf, min_samples } => Box::new(SelectiveSuspension::new(SsConfig {
            limits: Some(TssLimits::new().with_min_samples(min_samples)),
            ..SsConfig::ss(sf)
        })),
        Scheme::Is => SchedulerKind::ImmediateService.build(),
    }
}

/// The production kernel's outcomes, idle elision on.
fn kernel(scheme: Scheme, w: &Workload) -> Vec<Outcome> {
    let overhead = if w.paper {
        OverheadModel::paper()
    } else {
        OverheadModel::None
    };
    let res = Simulator::traced_source(
        Box::new(TraceSource::new(w.jobs.clone())),
        w.procs,
        policy(scheme),
        overhead,
        TICK,
        NullSink,
    )
    .run();
    let mut out: Vec<Outcome> = res
        .outcomes
        .iter()
        .map(|o| {
            (
                o.id.0,
                o.first_start.secs(),
                o.completion.secs(),
                o.suspensions,
            )
        })
        .collect();
    out.sort_unstable();
    out
}

fn oracle(scheme: Scheme, w: &Workload) -> (Vec<Outcome>, u64) {
    Oracle::new(scheme, w.procs, &w.jobs, w.paper).run()
}

fn agrees(scheme: Scheme, w: &Workload) -> bool {
    kernel(scheme, w) == oracle(scheme, w).0
}

/// Drop jobs one at a time, renumbering the rest, while the kernel and
/// the oracle still disagree.
fn shrink(scheme: Scheme, mut w: Workload) -> Workload {
    let mut i = 0;
    while i < w.jobs.len() && w.jobs.len() > 1 {
        let mut smaller = w.clone();
        smaller.jobs.remove(i);
        for (k, job) in smaller.jobs.iter_mut().enumerate() {
            job.id = JobId(k as u32);
        }
        if agrees(scheme, &smaller) {
            i += 1;
        } else {
            w = smaller;
            i = 0;
        }
    }
    w
}

/// Run `CASES` workloads under `scheme(seed)` through both simulators;
/// panic with a shrunk job list on the first disagreement. Returns the
/// oracle's count of victims that a disable limit took out of a scan.
fn differential(scheme: impl Fn(u64) -> Scheme) -> u64 {
    let mut limit_blocks = 0;
    for seed in 0..CASES {
        let scheme = scheme(seed);
        let w = workload(seed);
        let (want, blocks) = oracle(scheme, &w);
        limit_blocks += blocks;
        if kernel(scheme, &w) == want {
            continue;
        }
        let small = shrink(scheme, w);
        let (want, _) = oracle(scheme, &small);
        let got = kernel(scheme, &small);
        let jobs: Vec<String> = small
            .jobs
            .iter()
            .map(|j| {
                format!(
                    "Job {{ mem_mb: {}, ..Job::new({}, {}, {}, {}, {}) }}",
                    j.mem_mb,
                    j.id.0,
                    j.submit.secs(),
                    j.run,
                    j.estimate,
                    j.procs
                )
            })
            .collect();
        panic!(
            "{scheme:?} on seed {seed}: the kernel departs from the paper.\n\
             {} processors, paper overhead {}, jobs:\n  {}\n\
             (id, first start, completion, suspensions)\n kernel: {got:?}\n oracle: {want:?}",
            small.procs,
            small.paper,
            jobs.join(",\n  ")
        );
    }
    limit_blocks
}

const SFS: [f64; 3] = [1.5, 2.0, 5.0];

#[test]
fn ns_matches_the_paper() {
    differential(|_| Scheme::Ns);
}

#[test]
fn ss_matches_the_paper() {
    differential(|seed| Scheme::Ss {
        sf: SFS[(seed / 2 % 3) as usize],
    });
}

#[test]
fn tss_matches_the_paper() {
    let blocks = differential(|seed| Scheme::Tss {
        sf: SFS[(seed / 2 % 3) as usize],
        min_samples: 1 + seed / 6 % 3,
    });
    assert!(
        blocks > 0,
        "no disable limit ever removed a qualifying victim"
    );
}

#[test]
fn is_matches_the_paper() {
    differential(|_| Scheme::Is);
}

/// Figs 4–6: two equal full-machine tasks submitted together. The
/// closed form (`theory::max_suspensions`) allows no suspension at SF = 2
/// and at most one at SF = 1.5; the minute routine may let the first task
/// finish before the second qualifies, so the simulators may suspend less.
/// Kernel and oracle agree on the schedule.
#[test]
fn two_task_alternation_matches_the_analysis() {
    const L: i64 = 3_600;
    for (sf, most) in [(2.0, 0u32), (1.5, 1)] {
        assert_eq!(max_suspensions(sf), Some(most), "sf={sf}");
        let w = Workload {
            procs: 8,
            paper: false,
            jobs: vec![Job::new(0, 0, L, L, 8), Job::new(1, 0, L, L, 8)],
        };
        let scheme = Scheme::Ss { sf };
        let got = kernel(scheme, &w);
        assert_eq!(got, oracle(scheme, &w).0, "sf={sf}");
        let suspensions: u32 = got.iter().map(|o| o.3).sum();
        assert!(suspensions <= most, "sf={sf}: {suspensions} suspensions");
    }
}
