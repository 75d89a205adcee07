//! Replay validation: re-check scheduler invariants from a trace alone.
//!
//! A trace is a claim about what the simulator did. The validator replays
//! the claim against the invariants the scheduler is supposed to uphold,
//! using nothing but the log:
//!
//! * **Lifecycle order** — every job moves `arrival → dispatch →
//!   (suspend → drain → restart)* → complete`; no transition is skipped
//!   or repeated out of order.
//! * **Restart placement** — a restarted job re-enters on *exactly* the
//!   processor set it was suspended from (the paper's no-migration rule;
//!   relax with [`ReplayOptions::allow_migration`]).
//! * **No processor overlap** — at no instant do two live allocations
//!   share a processor (draining jobs still hold theirs until `drain`).
//! * **Disable-limit state** — a `disable_limit` record names a running
//!   job and flips its TSS protection (`xfactor > limit`), with a finite,
//!   positive limit; a job that stops running drops its protection. A
//!   `preempted_victim` never names a protected job, unless its suspender
//!   re-enters on its original processors in the same instant (re-entry
//!   is exempt from the limit).
//! * **SF threshold** — when the header names an `ss:`/`tss:` scheduler,
//!   every preemption satisfies `suspender_xf ≥ sf × victim_xf`.
//! * **Time** — timestamps never decrease; at most one header, first.
//! * **Fault consistency** — processors fail and repair alternately; no
//!   allocation claims a down processor; a processor failure evicts any
//!   holder within the same instant (kills are logged as `kill` job
//!   events, which requeue the job).

use std::collections::{HashMap, HashSet};
use std::io::BufRead;

use crate::json::Json;
use crate::record::{JobEvent, ProcEvent, Reason, TraceRecord};

/// Knobs for [`validate_records`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayOptions {
    /// Allow a restart on a different processor set than the suspension
    /// released (migratable-preemption runs). Also switched on
    /// automatically when the trace header's embedded config declares a
    /// migrating preemption mode or remap recovery — a self-describing
    /// log validates without external knowledge.
    pub allow_migration: bool,
}

/// One invariant violation, tied to the record (or line) index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Zero-based record index (line number − 1 for JSONL input).
    pub index: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "record {}: {}", self.index, self.message)
    }
}

/// Summary of an accepted trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplayStats {
    /// Total records processed.
    pub records: usize,
    /// Whether a header record was present.
    pub has_header: bool,
    /// Distinct jobs that arrived.
    pub arrivals: usize,
    /// Jobs that completed.
    pub completions: usize,
    /// Suspension events.
    pub suspensions: usize,
    /// Scheduler decision records.
    pub decisions: usize,
    /// Gauge records.
    pub gauges: usize,
    /// Peak number of simultaneously occupied processors.
    pub peak_occupied: usize,
    /// Jobs still live (arrived but not completed) at end of trace.
    pub live_at_end: usize,
    /// Processor failure records.
    pub proc_failures: usize,
    /// Processor repair records.
    pub proc_repairs: usize,
    /// Fault-kill job events.
    pub kills: usize,
    /// Admission-rejection job events.
    pub rejections: usize,
    /// Health detector records.
    pub health_events: usize,
    /// Restarts on a different processor set than the suspension's
    /// (counted whether or not migration is allowed; a violation is
    /// raised alongside when it is not).
    pub migrations: usize,
    /// The header's processor-speed spec (`tiers:0.5x64+1.0x64`, ...),
    /// when the embedded config declares a heterogeneous machine.
    pub speed: Option<String>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Draining,
    Suspended,
    Done,
}

struct JobTrack {
    state: JobState,
    /// Processors currently held (running or draining).
    held: Vec<u32>,
    /// Processor set released by the last suspension.
    suspend_set: Vec<u32>,
    /// TSS protection as of the last `disable_limit` record while it runs.
    protected: bool,
}

/// Incremental validator; feed records in order, then [`Validator::finish`].
pub struct Validator {
    opts: ReplayOptions,
    index: usize,
    last_t: i64,
    header_seen: bool,
    /// `sf` parsed from the header's scheduler string, for `ss:`/`tss:`.
    sf: Option<f64>,
    jobs: HashMap<u32, JobTrack>,
    /// proc -> job currently holding it.
    occupied: HashMap<u32, u32>,
    /// Processors currently down.
    down: HashSet<u32>,
    /// Machine size pinned by a `tiers:` speed spec in the header: the
    /// tier counts enumerate every processor, so any claim at or beyond
    /// their sum references a processor the speed map does not cover.
    speed_procs: Option<u32>,
    /// This instant's preemptions of protected victims, as (record index,
    /// victim, suspender): each must be cleared by its suspender's
    /// `reentry_on_original_procs` before the instant ends.
    protected_preemptions: Vec<(usize, u32, u32)>,
    stats: ReplayStats,
    violations: Vec<Violation>,
}

/// Stop collecting after this many violations — a corrupt trace would
/// otherwise produce one violation per line.
const MAX_VIOLATIONS: usize = 50;

impl Default for Validator {
    fn default() -> Self {
        Self::new(ReplayOptions::default())
    }
}

impl Validator {
    /// A fresh validator.
    pub fn new(opts: ReplayOptions) -> Self {
        Validator {
            opts,
            index: 0,
            last_t: i64::MIN,
            header_seen: false,
            sf: None,
            jobs: HashMap::new(),
            occupied: HashMap::new(),
            down: HashSet::new(),
            speed_procs: None,
            protected_preemptions: Vec::new(),
            stats: ReplayStats::default(),
            violations: Vec::new(),
        }
    }

    fn violation(&mut self, message: String) {
        self.violation_at(self.index, message);
    }

    fn violation_at(&mut self, index: usize, message: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation { index, message });
        }
    }

    /// Feed the next record.
    pub fn push(&mut self, rec: &TraceRecord) {
        self.stats.records += 1;
        if let Some(t) = rec.time() {
            if t < self.last_t {
                self.violation(format!("time went backwards: {t} after {}", self.last_t));
            }
            if t > self.last_t {
                // The instant is over: a failure must have evicted any
                // holder of a down processor within its own instant, and a
                // protected victim's suspender must have re-entered.
                self.end_instant();
            }
            self.last_t = self.last_t.max(t);
        }
        match rec {
            TraceRecord::Header {
                scheduler, config, ..
            } => {
                if self.header_seen {
                    self.violation("duplicate header".to_string());
                } else if self.index != 0 {
                    self.violation("header is not the first record".to_string());
                }
                self.header_seen = true;
                self.stats.has_header = true;
                self.sf = scheduler
                    .strip_prefix("ss:")
                    .or_else(|| scheduler.strip_prefix("tss:"))
                    .and_then(|sf| sf.parse::<f64>().ok());
                // A self-describing header relaxes the no-migration rule:
                // a migrating preemption mode or remap recovery legally
                // restarts jobs on different sets.
                let migrating_mode = config
                    .get("preemption")
                    .and_then(Json::as_str)
                    .is_some_and(|m| m == "migrate");
                let remap_recovery = config
                    .get("faults")
                    .and_then(|f| f.get("recovery"))
                    .and_then(Json::as_str)
                    .is_some_and(|r| r == "remap");
                if migrating_mode || remap_recovery {
                    self.opts.allow_migration = true;
                }
                if let Some(spec) = config.get("speed").and_then(Json::as_str) {
                    self.stats.speed = Some(spec.to_string());
                    // A tiers spec enumerates every processor; sum the
                    // counts so claims beyond the machine are caught.
                    self.speed_procs = spec.strip_prefix("tiers:").map(|tiers| {
                        tiers
                            .split('+')
                            .filter_map(|part| part.split_once('x'))
                            .filter_map(|(_, n)| n.trim().parse::<u32>().ok())
                            .sum()
                    });
                }
            }
            TraceRecord::Job {
                t,
                job,
                event,
                procs,
            } => {
                self.job_event(*t, *job, *event, procs.as_deref());
            }
            TraceRecord::Decision { reason, .. } => {
                self.stats.decisions += 1;
                self.decision(reason);
            }
            TraceRecord::Gauge { .. } => self.stats.gauges += 1,
            TraceRecord::Proc { proc, event, .. } => self.proc_event(*proc, *event),
            TraceRecord::EngineStats { .. } => {}
            // Health findings are advisory annotations from the telemetry
            // detectors; they impose no kernel invariants.
            TraceRecord::Health { .. } => self.stats.health_events += 1,
        }
        self.index += 1;
    }

    fn proc_event(&mut self, proc: u32, event: ProcEvent) {
        match event {
            ProcEvent::Failed => {
                self.stats.proc_failures += 1;
                if !self.down.insert(proc) {
                    self.violation(format!("processor {proc}: failed while already down"));
                }
            }
            ProcEvent::Repaired => {
                self.stats.proc_repairs += 1;
                if !self.down.remove(&proc) {
                    self.violation(format!("processor {proc}: repaired while not down"));
                }
            }
        }
    }

    /// The checks that close an instant, when time advances and at the
    /// end of the trace.
    fn end_instant(&mut self) {
        self.check_down_unoccupied();
        for (index, victim, suspender) in std::mem::take(&mut self.protected_preemptions) {
            self.violation_at(
                index,
                format!(
                    "preemption of {victim} by {suspender}: the victim is protected by its \
                     disable limit, and {suspender} did not re-enter on its original processors"
                ),
            );
        }
    }

    /// Any down processor still held by a job is a violation — the
    /// simulator evicts holders in the failure's own instant.
    fn check_down_unoccupied(&mut self) {
        let stale: Vec<(u32, u32)> = self
            .down
            .iter()
            .filter_map(|&p| self.occupied.get(&p).map(|&job| (p, job)))
            .collect();
        for (p, job) in stale {
            self.violation(format!(
                "processor {p} is down but still held by job {job} after the failure instant"
            ));
        }
    }

    fn job_event(&mut self, _t: i64, job: u32, event: JobEvent, procs: Option<&[u32]>) {
        use JobEvent::*;
        // Split borrows: collect the mutation plan first, then apply, so we
        // can call `self.violation` (which borrows all of self) freely.
        match event {
            Arrival => {
                self.stats.arrivals += 1;
                let prev = self.jobs.insert(
                    job,
                    JobTrack {
                        state: JobState::Queued,
                        held: Vec::new(),
                        suspend_set: Vec::new(),
                        protected: false,
                    },
                );
                if prev.is_some() {
                    self.violation(format!("job {job}: duplicate arrival"));
                }
            }
            Dispatch => {
                let state = self.jobs.get(&job).map(|tr| tr.state.clone());
                if state != Some(JobState::Queued) {
                    self.violation(format!("job {job}: dispatch while {state:?}"));
                }
                let Some(procs) = procs.filter(|p| !p.is_empty()) else {
                    self.violation(format!("job {job}: dispatch without processors"));
                    return;
                };
                self.claim(job, procs);
                if let Some(track) = self.jobs.get_mut(&job) {
                    track.state = JobState::Running;
                    track.held = procs.to_vec();
                }
            }
            Suspend => {
                self.stats.suspensions += 1;
                let (state, held) = match self.jobs.get(&job) {
                    Some(tr) => (Some(tr.state.clone()), tr.held.clone()),
                    None => (None, Vec::new()),
                };
                if state != Some(JobState::Running) {
                    self.violation(format!("job {job}: suspend while {state:?}"));
                }
                if let Some(procs) = procs {
                    if procs != held.as_slice() {
                        self.violation(format!(
                            "job {job}: suspend procset {procs:?} != held {held:?}"
                        ));
                    }
                }
                if let Some(track) = self.jobs.get_mut(&job) {
                    track.state = JobState::Draining;
                    track.suspend_set = held;
                    track.protected = false;
                }
            }
            Drain => {
                let state = self.jobs.get(&job).map(|tr| tr.state.clone());
                if state != Some(JobState::Draining) {
                    self.violation(format!("job {job}: drain while {state:?}"));
                }
                self.release(job);
                if let Some(track) = self.jobs.get_mut(&job) {
                    track.state = JobState::Suspended;
                    track.held.clear();
                }
            }
            Restart => {
                let (state, suspend_set) = match self.jobs.get(&job) {
                    Some(tr) => (Some(tr.state.clone()), tr.suspend_set.clone()),
                    None => (None, Vec::new()),
                };
                if state != Some(JobState::Suspended) {
                    self.violation(format!("job {job}: restart while {state:?}"));
                }
                let Some(procs) = procs.filter(|p| !p.is_empty()) else {
                    self.violation(format!("job {job}: restart without processors"));
                    return;
                };
                if procs != suspend_set.as_slice() {
                    self.stats.migrations += 1;
                    if !self.opts.allow_migration {
                        self.violation(format!(
                            "job {job}: restart procset {procs:?} != suspend procset \
                             {suspend_set:?}"
                        ));
                    }
                }
                self.claim(job, procs);
                if let Some(track) = self.jobs.get_mut(&job) {
                    track.state = JobState::Running;
                    track.held = procs.to_vec();
                }
            }
            Complete => {
                self.stats.completions += 1;
                let state = self.jobs.get(&job).map(|tr| tr.state.clone());
                if state != Some(JobState::Running) {
                    self.violation(format!("job {job}: complete while {state:?}"));
                }
                self.release(job);
                if let Some(track) = self.jobs.get_mut(&job) {
                    track.state = JobState::Done;
                    track.held.clear();
                    track.protected = false;
                }
            }
            Kill => {
                self.stats.kills += 1;
                let state = self.jobs.get(&job).map(|tr| tr.state.clone());
                if !matches!(
                    state,
                    Some(JobState::Running | JobState::Draining | JobState::Suspended)
                ) {
                    self.violation(format!("job {job}: kill while {state:?}"));
                }
                // The job loses its allocation and its re-entry claim, and
                // requeues from scratch.
                self.release(job);
                if let Some(track) = self.jobs.get_mut(&job) {
                    track.state = JobState::Queued;
                    track.held.clear();
                    track.suspend_set.clear();
                    track.protected = false;
                }
            }
            Reject => {
                self.stats.rejections += 1;
                // Admission control refuses jobs in the arrival instant,
                // before they can ever hold processors.
                let state = self.jobs.get(&job).map(|tr| tr.state.clone());
                if state != Some(JobState::Queued) {
                    self.violation(format!("job {job}: reject while {state:?}"));
                }
                if let Some(track) = self.jobs.get_mut(&job) {
                    track.state = JobState::Done;
                }
            }
        }
        self.stats.peak_occupied = self.stats.peak_occupied.max(self.occupied.len());
    }

    fn claim(&mut self, job: u32, procs: &[u32]) {
        if let Some(total) = self.speed_procs {
            if let Some(&p) = procs.iter().find(|&&p| p >= total) {
                self.violation(format!(
                    "job {job}: processor {p} is outside the {total}-processor \
                     machine declared by the header's speed tiers"
                ));
            }
        }
        let mut clashes = Vec::new();
        let mut dead = Vec::new();
        for &p in procs {
            if self.down.contains(&p) {
                dead.push(p);
            }
            if let Some(&holder) = self.occupied.get(&p) {
                clashes.push((p, holder));
            } else {
                self.occupied.insert(p, job);
            }
        }
        if let Some(&(p, holder)) = clashes.first() {
            self.violation(format!(
                "job {job}: processor {p} already held by job {holder} ({} clashes)",
                clashes.len()
            ));
        }
        if let Some(&p) = dead.first() {
            self.violation(format!(
                "job {job}: allocation claims down processor {p} ({} dead)",
                dead.len()
            ));
        }
    }

    fn release(&mut self, job: u32) {
        self.occupied.retain(|_, holder| *holder != job);
    }

    fn decision(&mut self, reason: &Reason) {
        match reason {
            Reason::Backfilled { .. } => {}
            Reason::PreemptedVictim {
                victim,
                suspender,
                victim_xf,
                suspender_xf,
            } => {
                if let Some(sf) = self.sf {
                    // Slack for the f64 comparison the scheduler itself did.
                    if *suspender_xf < sf * *victim_xf - 1e-9 {
                        self.violation(format!(
                            "preemption of {victim} by {suspender}: \
                             suspender_xf {suspender_xf} < sf {sf} × victim_xf {victim_xf}"
                        ));
                    }
                }
                if !victim_xf.is_finite() || !suspender_xf.is_finite() {
                    self.violation(format!(
                        "preemption of {victim} by {suspender}: non-finite xfactor"
                    ));
                }
                if self.jobs.get(victim).is_some_and(|tr| tr.protected) {
                    self.protected_preemptions
                        .push((self.index, *victim, *suspender));
                }
            }
            Reason::DisableLimit {
                job,
                xfactor,
                limit,
                ..
            } => {
                if !(limit.is_finite() && *limit > 0.0) {
                    self.violation(format!(
                        "job {job}: disable limit {limit} not finite/positive"
                    ));
                }
                let protected = xfactor > limit;
                let Some(tr) = self
                    .jobs
                    .get_mut(job)
                    .filter(|tr| tr.state == JobState::Running)
                else {
                    let state = self.jobs.get(job).map(|tr| tr.state.clone());
                    self.violation(format!("job {job}: disable_limit while {state:?}"));
                    return;
                };
                let restated = std::mem::replace(&mut tr.protected, protected) == protected;
                if restated {
                    self.violation(format!(
                        "job {job}: disable_limit restates its protection ({protected}) \
                         without a change"
                    ));
                }
            }
            // Re-entry is exempt from the disable limit: it clears the
            // suspender's preemptions of protected victims.
            Reason::ReentryOnOriginalProcs { job, .. } => {
                self.protected_preemptions
                    .retain(|&(_, _, suspender)| suspender != *job);
            }
            // Advisory annotation; the set change itself is checked (and
            // counted) on the Restart record.
            Reason::MigratedResume { .. } => {}
        }
    }

    /// Finish: return the stats, or every violation found.
    pub fn finish(mut self) -> Result<ReplayStats, Vec<Violation>> {
        self.end_instant();
        self.stats.live_at_end = self
            .jobs
            .values()
            .filter(|tr| tr.state != JobState::Done)
            .count();
        if self.violations.is_empty() {
            Ok(self.stats)
        } else {
            Err(self.violations)
        }
    }
}

/// Validate a slice of in-memory records (e.g. from a `MemorySink`).
pub fn validate_records(
    records: &[TraceRecord],
    opts: ReplayOptions,
) -> Result<ReplayStats, Vec<Violation>> {
    let mut v = Validator::new(opts);
    for rec in records {
        v.push(rec);
    }
    v.finish()
}

/// Validate a JSONL trace from a reader. I/O and parse failures are
/// reported as violations on the offending line.
pub fn validate_jsonl(
    reader: impl BufRead,
    opts: ReplayOptions,
) -> Result<ReplayStats, Vec<Violation>> {
    let mut v = Validator::new(opts);
    for (i, line) in reader.lines().enumerate() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                return Err(vec![Violation {
                    index: i,
                    message: format!("read error: {e}"),
                }])
            }
        };
        if line.trim().is_empty() {
            v.index += 1;
            continue;
        }
        match TraceRecord::parse_line(&line) {
            Ok(rec) => v.push(&rec),
            Err(e) => {
                v.violation(format!("unparseable line: {e}"));
                v.index += 1;
            }
        }
    }
    v.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::record::TRACE_VERSION;

    fn job(t: i64, id: u32, event: JobEvent, procs: Option<Vec<u32>>) -> TraceRecord {
        TraceRecord::Job {
            t,
            job: id,
            event,
            procs,
        }
    }

    fn good_trace() -> Vec<TraceRecord> {
        use JobEvent::*;
        vec![
            TraceRecord::Header {
                version: TRACE_VERSION,
                scheduler: "ss:2.0".into(),
                config: Json::Null,
            },
            job(0, 1, Arrival, None),
            job(0, 1, Dispatch, Some(vec![0, 1, 2])),
            job(5, 2, Arrival, None),
            TraceRecord::Decision {
                t: 5,
                reason: Reason::PreemptedVictim {
                    victim: 1,
                    suspender: 2,
                    victim_xf: 1.0,
                    suspender_xf: 2.5,
                },
            },
            job(5, 1, Suspend, Some(vec![0, 1, 2])),
            job(8, 1, Drain, None),
            job(8, 2, Dispatch, Some(vec![0, 1, 2])),
            TraceRecord::Gauge {
                t: 8,
                queued: 0,
                idle: 0,
                draining: 0,
                suspended: 1,
                running: 1,
            },
            job(20, 2, Complete, None),
            TraceRecord::Decision {
                t: 20,
                reason: Reason::ReentryOnOriginalProcs { job: 1, victims: 0 },
            },
            job(20, 1, Restart, Some(vec![0, 1, 2])),
            job(40, 1, Complete, None),
            TraceRecord::EngineStats {
                t: 40,
                batches: 9,
                events: 12,
            },
        ]
    }

    #[test]
    fn accepts_a_clean_trace() {
        let stats = validate_records(&good_trace(), ReplayOptions::default()).unwrap();
        assert_eq!(stats.arrivals, 2);
        assert_eq!(stats.completions, 2);
        assert_eq!(stats.suspensions, 1);
        assert_eq!(stats.peak_occupied, 3);
        assert_eq!(stats.live_at_end, 0);
        assert!(stats.has_header);
    }

    #[test]
    fn rejects_restart_on_different_procs() {
        let mut trace = good_trace();
        let TraceRecord::Job { procs, .. } = &mut trace[11] else {
            panic!()
        };
        *procs = Some(vec![3, 4, 5]);
        let violations = validate_records(&trace, ReplayOptions::default()).unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("restart procset")),
            "{violations:?}"
        );
        // ... but migration mode accepts it, and counts the move.
        let stats = validate_records(
            &trace,
            ReplayOptions {
                allow_migration: true,
            },
        )
        .unwrap();
        assert_eq!(stats.migrations, 1);
    }

    #[test]
    fn header_declaring_migration_relaxes_the_placement_rule() {
        let mut trace = good_trace();
        let TraceRecord::Job { procs, .. } = &mut trace[11] else {
            panic!()
        };
        *procs = Some(vec![3, 4, 5]);
        for config_text in [
            r#"{"preemption": "migrate"}"#,
            r#"{"faults": {"recovery": "remap"}}"#,
        ] {
            let TraceRecord::Header { config, .. } = &mut trace[0] else {
                panic!()
            };
            *config = Json::parse(config_text).unwrap();
            let stats = validate_records(&trace, ReplayOptions::default())
                .unwrap_or_else(|v| panic!("{config_text}: {v:?}"));
            assert_eq!(stats.migrations, 1);
        }
        // A checkpointing-but-pinned header does not relax the rule.
        let TraceRecord::Header { config, .. } = &mut trace[0] else {
            panic!()
        };
        *config = Json::parse(r#"{"preemption": "checkpoint"}"#).unwrap();
        assert!(validate_records(&trace, ReplayOptions::default()).is_err());
    }

    #[test]
    fn speed_header_pins_the_machine_size() {
        let mut trace = good_trace();
        let TraceRecord::Header { config, .. } = &mut trace[0] else {
            panic!()
        };
        *config = Json::parse(r#"{"speed": "tiers:0.5x2+1.0x2"}"#).unwrap();
        // The clean trace claims processors 0..=2 on a 4-processor
        // machine: accepted, and the spec surfaces in the stats.
        let stats = validate_records(&trace, ReplayOptions::default()).unwrap();
        assert_eq!(stats.speed.as_deref(), Some("tiers:0.5x2+1.0x2"));
        // Shrink the machine below the claimed processors: rejected.
        let TraceRecord::Header { config, .. } = &mut trace[0] else {
            panic!()
        };
        *config = Json::parse(r#"{"speed": "tiers:0.5x1+1.0x1"}"#).unwrap();
        let violations = validate_records(&trace, ReplayOptions::default()).unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("outside the 2-processor machine")),
            "{violations:?}"
        );
        // Uniform specs pin nothing (any index is legal) but still report.
        let TraceRecord::Header { config, .. } = &mut trace[0] else {
            panic!()
        };
        *config = Json::parse(r#"{"speed": "uniform:0.5"}"#).unwrap();
        let stats = validate_records(&trace, ReplayOptions::default()).unwrap();
        assert_eq!(stats.speed.as_deref(), Some("uniform:0.5"));
    }

    #[test]
    fn rejects_overlapping_allocations() {
        use JobEvent::*;
        let trace = vec![
            job(0, 1, Arrival, None),
            job(0, 1, Dispatch, Some(vec![0, 1])),
            job(1, 2, Arrival, None),
            job(1, 2, Dispatch, Some(vec![1, 2])),
        ];
        let violations = validate_records(&trace, ReplayOptions::default()).unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("already held")),
            "{violations:?}"
        );
    }

    #[test]
    fn rejects_lifecycle_skips() {
        use JobEvent::*;
        // Complete without dispatch.
        let trace = vec![job(0, 1, Arrival, None), job(5, 1, Complete, None)];
        assert!(validate_records(&trace, ReplayOptions::default()).is_err());
        // Restart without suspension.
        let trace = vec![
            job(0, 1, Arrival, None),
            job(0, 1, Dispatch, Some(vec![0])),
            job(5, 1, Restart, Some(vec![0])),
        ];
        assert!(validate_records(&trace, ReplayOptions::default()).is_err());
    }

    #[test]
    fn rejects_sf_threshold_breach() {
        let mut trace = good_trace();
        let TraceRecord::Decision { reason, .. } = &mut trace[4] else {
            panic!()
        };
        *reason = Reason::PreemptedVictim {
            victim: 1,
            suspender: 2,
            victim_xf: 2.0,
            suspender_xf: 2.5, // needs ≥ 4.0 under sf=2.0
        };
        let violations = validate_records(&trace, ReplayOptions::default()).unwrap_err();
        assert!(
            violations.iter().any(|v| v.message.contains("sf")),
            "{violations:?}"
        );
    }

    fn disable_limit(t: i64, job: u32, xfactor: f64, limit: f64) -> TraceRecord {
        TraceRecord::Decision {
            t,
            reason: Reason::DisableLimit {
                job,
                category: "L W".into(),
                xfactor,
                limit,
            },
        }
    }

    fn preempted(t: i64, victim: u32, suspender: u32) -> TraceRecord {
        TraceRecord::Decision {
            t,
            reason: Reason::PreemptedVictim {
                victim,
                suspender,
                victim_xf: 1.0,
                suspender_xf: 2.5,
            },
        }
    }

    fn tss_header() -> TraceRecord {
        TraceRecord::Header {
            version: TRACE_VERSION,
            scheduler: "tss:2.0".into(),
            config: Json::Null,
        }
    }

    fn messages(trace: &[TraceRecord]) -> Vec<String> {
        match validate_records(trace, ReplayOptions::default()) {
            Ok(_) => Vec::new(),
            Err(violations) => violations.into_iter().map(|v| v.message).collect(),
        }
    }

    #[test]
    fn a_disable_limit_record_must_flip_the_status() {
        use JobEvent::*;
        let running = [job(0, 1, Arrival, None), job(0, 1, Dispatch, Some(vec![0]))];
        // Protected at 5, unprotected at 9 (a completion raised the
        // limit): two changes.
        let flips = [
            &running[..],
            &[disable_limit(5, 1, 2.0, 1.5), disable_limit(9, 1, 2.0, 2.5)],
        ]
        .concat();
        assert_eq!(messages(&flips), Vec::<String>::new());
        // Restating either status changes nothing.
        for restated in [
            vec![disable_limit(5, 1, 1.0, 1.5)],
            vec![disable_limit(5, 1, 2.0, 1.5), disable_limit(9, 1, 2.0, 1.4)],
        ] {
            let trace = [&running[..], &restated].concat();
            let found = messages(&trace);
            assert!(found.iter().any(|m| m.contains("restates")), "{found:?}");
        }
        for limit in [f64::INFINITY, 0.0, -1.0] {
            let trace = [&running[..], &[disable_limit(5, 1, 2.0, limit)]].concat();
            let found = messages(&trace);
            assert!(found.iter().any(|m| m.contains("not finite")), "{found:?}");
        }
    }

    #[test]
    fn a_disable_limit_record_must_name_a_running_job() {
        use JobEvent::*;
        for trace in [
            vec![disable_limit(0, 1, 2.0, 1.5)],
            vec![job(0, 1, Arrival, None), disable_limit(0, 1, 2.0, 1.5)],
            vec![
                job(0, 1, Arrival, None),
                job(0, 1, Dispatch, Some(vec![0])),
                job(5, 1, Complete, None),
                disable_limit(5, 1, 2.0, 1.5),
            ],
        ] {
            let found = messages(&trace);
            assert!(
                found.iter().any(|m| m.contains("disable_limit while")),
                "{found:?}"
            );
        }
        // A job that stops running drops its status: protected again
        // after a restart is a change.
        let trace = vec![
            job(0, 1, Arrival, None),
            job(0, 1, Dispatch, Some(vec![0])),
            disable_limit(0, 1, 2.0, 1.5),
            job(5, 1, Suspend, Some(vec![0])),
            job(5, 1, Drain, None),
            job(9, 1, Restart, Some(vec![0])),
            disable_limit(9, 1, 3.0, 1.5),
        ];
        assert_eq!(messages(&trace), Vec::<String>::new());
    }

    #[test]
    fn rejects_a_fresh_job_preempting_a_protected_victim() {
        use JobEvent::*;
        let trace = vec![
            tss_header(),
            job(0, 1, Arrival, None),
            job(0, 1, Dispatch, Some(vec![0, 1])),
            disable_limit(0, 1, 1.0, 0.75),
            job(5, 2, Arrival, None),
            preempted(60, 1, 2),
            job(60, 1, Suspend, Some(vec![0, 1])),
            job(60, 1, Drain, None),
            job(60, 2, Dispatch, Some(vec![0, 1])),
            job(90, 2, Complete, None),
        ];
        let violations = validate_records(&trace, ReplayOptions::default()).unwrap_err();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].index, 5, "the preemption record");
        assert!(
            violations[0].message.contains("protected"),
            "{violations:?}"
        );
    }

    #[test]
    fn reentry_may_preempt_a_protected_victim() {
        use JobEvent::*;
        // Job 1 is suspended by 2; job 3 squats on its processors and is
        // protected; job 1 re-enters on them, suspending 3.
        let reentry = TraceRecord::Decision {
            t: 120,
            reason: Reason::ReentryOnOriginalProcs { job: 1, victims: 1 },
        };
        let trace = vec![
            tss_header(),
            job(0, 1, Arrival, None),
            job(0, 1, Dispatch, Some(vec![0, 1])),
            job(5, 2, Arrival, None),
            preempted(60, 1, 2),
            job(60, 1, Suspend, Some(vec![0, 1])),
            job(60, 1, Drain, None),
            job(60, 2, Dispatch, Some(vec![0, 1])),
            job(70, 2, Complete, None),
            job(70, 3, Arrival, None),
            job(70, 3, Dispatch, Some(vec![0, 1])),
            disable_limit(70, 3, 1.0, 0.75),
            preempted(120, 3, 1),
            reentry.clone(),
            job(120, 3, Suspend, Some(vec![0, 1])),
            job(120, 3, Drain, None),
            job(120, 1, Restart, Some(vec![0, 1])),
            job(200, 1, Complete, None),
            job(200, 3, Restart, Some(vec![0, 1])),
            job(300, 3, Complete, None),
        ];
        assert_eq!(messages(&trace), Vec::<String>::new());
        // Without the re-entry record, the same preemption is refused.
        let fresh: Vec<TraceRecord> = trace.into_iter().filter(|r| *r != reentry).collect();
        let found = messages(&fresh);
        assert!(found.iter().any(|m| m.contains("protected")), "{found:?}");
    }

    #[test]
    fn rejects_time_regression_and_misplaced_header() {
        use JobEvent::*;
        let trace = vec![job(10, 1, Arrival, None), job(5, 2, Arrival, None)];
        assert!(validate_records(&trace, ReplayOptions::default()).is_err());
        let trace = vec![
            job(0, 1, Arrival, None),
            TraceRecord::Header {
                version: 1,
                scheduler: "easy".into(),
                config: Json::Null,
            },
        ];
        assert!(validate_records(&trace, ReplayOptions::default()).is_err());
    }

    fn proc(t: i64, p: u32, event: ProcEvent) -> TraceRecord {
        TraceRecord::Proc { t, proc: p, event }
    }

    #[test]
    fn accepts_failure_kill_requeue_cycle() {
        use JobEvent::*;
        let trace = vec![
            job(0, 1, Arrival, None),
            job(0, 1, Dispatch, Some(vec![0, 1])),
            proc(5, 1, ProcEvent::Failed),
            job(5, 1, Kill, None),
            proc(60, 1, ProcEvent::Repaired),
            job(60, 1, Dispatch, Some(vec![0, 1])),
            job(100, 1, Complete, None),
        ];
        let stats = validate_records(&trace, ReplayOptions::default()).unwrap();
        assert_eq!(stats.proc_failures, 1);
        assert_eq!(stats.proc_repairs, 1);
        assert_eq!(stats.kills, 1);
        assert_eq!(stats.completions, 1);
    }

    #[test]
    fn rejects_claim_on_down_processor() {
        use JobEvent::*;
        let trace = vec![
            proc(0, 2, ProcEvent::Failed),
            job(1, 1, Arrival, None),
            job(1, 1, Dispatch, Some(vec![2, 3])),
        ];
        let violations = validate_records(&trace, ReplayOptions::default()).unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("down processor 2")),
            "{violations:?}"
        );
    }

    #[test]
    fn rejects_unevicted_holder_of_down_processor() {
        use JobEvent::*;
        let trace = vec![
            job(0, 1, Arrival, None),
            job(0, 1, Dispatch, Some(vec![0, 1])),
            proc(5, 0, ProcEvent::Failed),
            // No kill/suspend — job 1 still "runs" on a dead processor.
            job(50, 1, Complete, None),
        ];
        let violations = validate_records(&trace, ReplayOptions::default()).unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("down but still held")),
            "{violations:?}"
        );
    }

    #[test]
    fn rejects_unpaired_fault_transitions() {
        let trace = vec![proc(0, 3, ProcEvent::Failed), proc(1, 3, ProcEvent::Failed)];
        let violations = validate_records(&trace, ReplayOptions::default()).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| v.message.contains("already down")));
        let trace = vec![proc(0, 3, ProcEvent::Repaired)];
        let violations = validate_records(&trace, ReplayOptions::default()).unwrap_err();
        assert!(violations.iter().any(|v| v.message.contains("not down")));
    }

    #[test]
    fn rejects_kill_of_unstarted_job() {
        use JobEvent::*;
        let trace = vec![job(0, 1, Arrival, None), job(5, 1, Kill, None)];
        let violations = validate_records(&trace, ReplayOptions::default()).unwrap_err();
        assert!(violations.iter().any(|v| v.message.contains("kill while")));
    }

    #[test]
    fn validates_jsonl_text_end_to_end() {
        let mut text = String::new();
        for r in good_trace() {
            r.write_json(&mut text);
            text.push('\n');
        }
        let stats = validate_jsonl(text.as_bytes(), ReplayOptions::default()).unwrap();
        assert_eq!(stats.completions, 2);
        let violations =
            validate_jsonl("not json\n".as_bytes(), ReplayOptions::default()).unwrap_err();
        assert_eq!(violations[0].index, 0);
    }
}
