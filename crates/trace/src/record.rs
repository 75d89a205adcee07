//! Typed trace records.
//!
//! One [`TraceRecord`] is one line of a trace. The schema is deliberately
//! flat — job ids are raw `u32`s and times raw seconds — so this crate has
//! no dependencies and every downstream crate (simulator, policies, CLI,
//! benches) can emit records without import cycles.
//!
//! Three record families:
//!
//! * **Job lifecycle** ([`JobEvent`]): arrival, dispatch, suspend, drain,
//!   restart, completion — with the assigned processor set where one
//!   exists, so a replay can re-check allocation invariants.
//! * **Scheduler decisions** ([`Reason`]): *why* the scheduler did what it
//!   did — a backfill past the reservation, a preemption with both
//!   xfactors, a preemption blocked by the TSS disable limit, a re-entry
//!   on the original processors.
//! * **Gauges**: per-tick counts of queue depth, idle processors, draining
//!   occupancy, and suspended jobs, plus end-of-run engine statistics.

use std::fmt::Write;

use crate::json::{write_escaped, write_num, Json, JsonError};

/// Schema version written into [`TraceRecord::Header`].
pub const TRACE_VERSION: u32 = 1;

/// A job lifecycle transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobEvent {
    /// The job entered the queue.
    Arrival,
    /// The job started computing on a fresh allocation.
    Dispatch,
    /// The scheduler decided to preempt the job; memory drain begins.
    Suspend,
    /// The drain finished; the job's processors are free again.
    Drain,
    /// The job resumed computing after a suspension.
    Restart,
    /// The job finished its work.
    Complete,
    /// A fault (processor failure or injected crash) killed the job; all
    /// accumulated work is lost, its processors are released, and the job
    /// re-enters the queue from scratch.
    Kill,
    /// Admission control refused the job at arrival: it never enters the
    /// queue and its penalty is charged to the run's rejection ledger.
    Reject,
}

impl JobEvent {
    /// Wire name (snake case).
    pub fn name(self) -> &'static str {
        match self {
            JobEvent::Arrival => "arrival",
            JobEvent::Dispatch => "dispatch",
            JobEvent::Suspend => "suspend",
            JobEvent::Drain => "drain",
            JobEvent::Restart => "restart",
            JobEvent::Complete => "complete",
            JobEvent::Kill => "kill",
            JobEvent::Reject => "reject",
        }
    }

    /// Inverse of [`JobEvent::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "arrival" => JobEvent::Arrival,
            "dispatch" => JobEvent::Dispatch,
            "suspend" => JobEvent::Suspend,
            "drain" => JobEvent::Drain,
            "restart" => JobEvent::Restart,
            "complete" => JobEvent::Complete,
            "kill" => JobEvent::Kill,
            "reject" => JobEvent::Reject,
            _ => return None,
        })
    }
}

/// A processor availability transition (fault injection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcEvent {
    /// The processor went down.
    Failed,
    /// The processor came back from repair.
    Repaired,
}

impl ProcEvent {
    /// Wire name (snake case).
    pub fn name(self) -> &'static str {
        match self {
            ProcEvent::Failed => "failed",
            ProcEvent::Repaired => "repaired",
        }
    }

    /// Inverse of [`ProcEvent::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "failed" => ProcEvent::Failed,
            "repaired" => ProcEvent::Repaired,
            _ => return None,
        })
    }
}

/// Why the scheduler made a decision.
#[derive(Clone, Debug, PartialEq)]
pub enum Reason {
    /// A queued job started ahead of the head reservation because it fits
    /// before (or beside) the shadow time.
    Backfilled {
        /// The backfilled job.
        job: u32,
        /// The head job's reservation start ("shadow time"), seconds.
        shadow: i64,
    },
    /// A running job was chosen as a preemption victim.
    PreemptedVictim {
        /// The job being suspended.
        victim: u32,
        /// The queued job whose start forced the suspension.
        suspender: u32,
        /// Victim's xfactor at decision time.
        victim_xf: f64,
        /// Suspender's xfactor at decision time.
        suspender_xf: f64,
    },
    /// A preemption candidate was skipped because its category's slowdown
    /// already exceeds the tuned disable limit (TSS).
    BlockedByDisableLimit {
        /// The protected running job.
        victim: u32,
        /// Paper-style category name, e.g. `"L W"`.
        category: String,
        /// The victim's xfactor at decision time.
        xfactor: f64,
        /// The category's current disable limit.
        limit: f64,
    },
    /// A suspended job re-entered service on exactly its original
    /// processor set (possibly suspending the jobs occupying it).
    ReentryOnOriginalProcs {
        /// The resuming job.
        job: u32,
        /// How many running jobs were suspended to clear the procset.
        victims: u32,
    },
    /// A suspended job re-entered service on a *different* processor set
    /// than the one it was suspended on — its checkpoint image moved
    /// (migrating preemption mode or remap recovery).
    MigratedResume {
        /// The resuming job.
        job: u32,
    },
}

impl Reason {
    /// Wire name of the reason variant.
    pub fn name(&self) -> &'static str {
        match self {
            Reason::Backfilled { .. } => "backfilled",
            Reason::PreemptedVictim { .. } => "preempted_victim",
            Reason::BlockedByDisableLimit { .. } => "blocked_by_disable_limit",
            Reason::ReentryOnOriginalProcs { .. } => "reentry_on_original_procs",
            Reason::MigratedResume { .. } => "migrated_resume",
        }
    }
}

/// One line of a trace.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceRecord {
    /// First record of a file: schema version, scheduler string (parseable
    /// by `SchedulerKind::from_str` in `sps-core`), and the originating
    /// experiment configuration as an embedded JSON value.
    Header {
        /// Schema version ([`TRACE_VERSION`]).
        version: u32,
        /// Canonical scheduler string, e.g. `"ss:2.0"`.
        scheduler: String,
        /// Experiment configuration (opaque to this crate).
        config: Json,
    },
    /// A job lifecycle transition.
    Job {
        /// Simulated time, seconds.
        t: i64,
        /// Job id.
        job: u32,
        /// Which transition.
        event: JobEvent,
        /// The processor set involved (dispatch/suspend/restart); `None`
        /// for arrival/drain/complete.
        procs: Option<Vec<u32>>,
    },
    /// A scheduler decision with its reason.
    Decision {
        /// Simulated time, seconds.
        t: i64,
        /// The reason.
        reason: Reason,
    },
    /// Per-tick system state.
    Gauge {
        /// Simulated time, seconds.
        t: i64,
        /// Jobs waiting in the queue.
        queued: u32,
        /// Idle (free) processors.
        idle: u32,
        /// Processors currently occupied by draining jobs.
        draining: u32,
        /// Jobs suspended (drained, awaiting restart).
        suspended: u32,
        /// Jobs actively computing.
        running: u32,
    },
    /// A processor availability transition (fault injection).
    Proc {
        /// Simulated time, seconds.
        t: i64,
        /// Processor index.
        proc: u32,
        /// Which transition.
        event: ProcEvent,
    },
    /// End-of-run statistics from the discrete-event engine.
    EngineStats {
        /// Final simulated time, seconds.
        t: i64,
        /// Event batches delivered.
        batches: u64,
        /// Individual events delivered.
        events: u64,
    },
    /// An online health-detector finding (emitted by `sps-telemetry` when
    /// telemetry is enabled alongside tracing).
    Health {
        /// Simulated time of the finding, seconds.
        t: i64,
        /// Detector wire name: `starvation`, `thrash`, or `capacity_leak`.
        detector: String,
        /// The job involved, if the finding is job-scoped.
        job: Option<u32>,
        /// Detector-specific magnitude (xfactor at onset, suspensions in
        /// window, leaked processor-seconds).
        value: f64,
    },
}

impl TraceRecord {
    /// Timestamp of the record, if it has one (headers do not).
    pub fn time(&self) -> Option<i64> {
        match *self {
            TraceRecord::Header { .. } => None,
            TraceRecord::Job { t, .. }
            | TraceRecord::Decision { t, .. }
            | TraceRecord::Gauge { t, .. }
            | TraceRecord::Proc { t, .. }
            | TraceRecord::EngineStats { t, .. }
            | TraceRecord::Health { t, .. } => Some(t),
        }
    }

    /// Append the record's JSONL line (one JSON object, no newline) to
    /// `out`, keys in a fixed order per variant; [`TraceRecord::parse_line`]
    /// decodes it. Wire names (`type`, `event`, `reason`) need no escaping;
    /// free-form strings go through the JSON string escaper.
    pub fn write_json(&self, out: &mut String) {
        match self {
            TraceRecord::Header {
                version,
                scheduler,
                config,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"header\",\"version\":{version},\"scheduler\":"
                );
                write_escaped(scheduler, out);
                out.push_str(",\"config\":");
                config.write(out);
            }
            TraceRecord::Job {
                t,
                job,
                event,
                procs,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"job\",\"t\":{t},\"job\":{job},\"event\":\"{}\"",
                    event.name()
                );
                if let Some(procs) = procs {
                    out.push_str(",\"procs\":[");
                    for (i, p) in procs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{p}");
                    }
                    out.push(']');
                }
            }
            TraceRecord::Decision { t, reason } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"decision\",\"t\":{t},\"reason\":\"{}\"",
                    reason.name()
                );
                match reason {
                    Reason::Backfilled { job, shadow } => {
                        let _ = write!(out, ",\"job\":{job},\"shadow\":{shadow}");
                    }
                    Reason::PreemptedVictim {
                        victim,
                        suspender,
                        victim_xf,
                        suspender_xf,
                    } => {
                        let _ = write!(
                            out,
                            ",\"victim\":{victim},\"suspender\":{suspender},\"victim_xf\":"
                        );
                        write_num(*victim_xf, out);
                        out.push_str(",\"suspender_xf\":");
                        write_num(*suspender_xf, out);
                    }
                    Reason::BlockedByDisableLimit {
                        victim,
                        category,
                        xfactor,
                        limit,
                    } => {
                        let _ = write!(out, ",\"victim\":{victim},\"category\":");
                        write_escaped(category, out);
                        out.push_str(",\"xfactor\":");
                        write_num(*xfactor, out);
                        out.push_str(",\"limit\":");
                        write_num(*limit, out);
                    }
                    Reason::ReentryOnOriginalProcs { job, victims } => {
                        let _ = write!(out, ",\"job\":{job},\"victims\":{victims}");
                    }
                    Reason::MigratedResume { job } => {
                        let _ = write!(out, ",\"job\":{job}");
                    }
                }
            }
            TraceRecord::Gauge {
                t,
                queued,
                idle,
                draining,
                suspended,
                running,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"gauge\",\"t\":{t},\"queued\":{queued},\"idle\":{idle},\
                     \"draining\":{draining},\"suspended\":{suspended},\"running\":{running}"
                );
            }
            TraceRecord::Proc { t, proc, event } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"proc\",\"t\":{t},\"proc\":{proc},\"event\":\"{}\"",
                    event.name()
                );
            }
            TraceRecord::EngineStats { t, batches, events } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"engine\",\"t\":{t},\"batches\":{batches},\"events\":{events}"
                );
            }
            TraceRecord::Health {
                t,
                detector,
                job,
                value,
            } => {
                let _ = write!(out, "{{\"type\":\"health\",\"t\":{t},\"detector\":");
                write_escaped(detector, out);
                if let Some(job) = job {
                    let _ = write!(out, ",\"job\":{job}");
                }
                out.push_str(",\"value\":");
                write_num(*value, out);
            }
        }
        out.push('}');
    }

    /// Decode a record from one parsed JSONL line.
    pub fn from_json(v: &Json) -> Result<TraceRecord, DecodeError> {
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or(DecodeError::Missing("type"))?;
        let t = || {
            v.get("t")
                .and_then(Json::as_i64)
                .ok_or(DecodeError::Missing("t"))
        };
        let u32_field = |k: &'static str| {
            v.get(k)
                .and_then(Json::as_i64)
                .and_then(|i| u32::try_from(i).ok())
                .ok_or(DecodeError::Missing(k))
        };
        let f64_field = |k: &'static str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(DecodeError::Missing(k))
        };
        match ty {
            "header" => Ok(TraceRecord::Header {
                version: u32_field("version")?,
                scheduler: v
                    .get("scheduler")
                    .and_then(Json::as_str)
                    .ok_or(DecodeError::Missing("scheduler"))?
                    .to_string(),
                config: v.get("config").cloned().unwrap_or(Json::Null),
            }),
            "job" => {
                let event = v
                    .get("event")
                    .and_then(Json::as_str)
                    .and_then(JobEvent::from_name)
                    .ok_or(DecodeError::Missing("event"))?;
                let procs = match v.get("procs") {
                    None | Some(Json::Null) => None,
                    Some(arr) => {
                        let items = arr.as_arr().ok_or(DecodeError::Bad("procs"))?;
                        let mut procs = Vec::with_capacity(items.len());
                        for item in items {
                            let p = item
                                .as_i64()
                                .and_then(|i| u32::try_from(i).ok())
                                .ok_or(DecodeError::Bad("procs"))?;
                            procs.push(p);
                        }
                        Some(procs)
                    }
                };
                Ok(TraceRecord::Job {
                    t: t()?,
                    job: u32_field("job")?,
                    event,
                    procs,
                })
            }
            "decision" => {
                let reason = match v
                    .get("reason")
                    .and_then(Json::as_str)
                    .ok_or(DecodeError::Missing("reason"))?
                {
                    "backfilled" => Reason::Backfilled {
                        job: u32_field("job")?,
                        shadow: v
                            .get("shadow")
                            .and_then(Json::as_i64)
                            .ok_or(DecodeError::Missing("shadow"))?,
                    },
                    "preempted_victim" => Reason::PreemptedVictim {
                        victim: u32_field("victim")?,
                        suspender: u32_field("suspender")?,
                        victim_xf: f64_field("victim_xf")?,
                        suspender_xf: f64_field("suspender_xf")?,
                    },
                    "blocked_by_disable_limit" => Reason::BlockedByDisableLimit {
                        victim: u32_field("victim")?,
                        category: v
                            .get("category")
                            .and_then(Json::as_str)
                            .ok_or(DecodeError::Missing("category"))?
                            .to_string(),
                        xfactor: f64_field("xfactor")?,
                        limit: f64_field("limit")?,
                    },
                    "reentry_on_original_procs" => Reason::ReentryOnOriginalProcs {
                        job: u32_field("job")?,
                        victims: u32_field("victims")?,
                    },
                    "migrated_resume" => Reason::MigratedResume {
                        job: u32_field("job")?,
                    },
                    _ => return Err(DecodeError::Bad("reason")),
                };
                Ok(TraceRecord::Decision { t: t()?, reason })
            }
            "gauge" => Ok(TraceRecord::Gauge {
                t: t()?,
                queued: u32_field("queued")?,
                idle: u32_field("idle")?,
                draining: u32_field("draining")?,
                suspended: u32_field("suspended")?,
                running: u32_field("running")?,
            }),
            "proc" => Ok(TraceRecord::Proc {
                t: t()?,
                proc: u32_field("proc")?,
                event: v
                    .get("event")
                    .and_then(Json::as_str)
                    .and_then(ProcEvent::from_name)
                    .ok_or(DecodeError::Missing("event"))?,
            }),
            "engine" => Ok(TraceRecord::EngineStats {
                t: t()?,
                batches: v
                    .get("batches")
                    .and_then(Json::as_i64)
                    .and_then(|i| u64::try_from(i).ok())
                    .ok_or(DecodeError::Missing("batches"))?,
                events: v
                    .get("events")
                    .and_then(Json::as_i64)
                    .and_then(|i| u64::try_from(i).ok())
                    .ok_or(DecodeError::Missing("events"))?,
            }),
            "health" => Ok(TraceRecord::Health {
                t: t()?,
                detector: v
                    .get("detector")
                    .and_then(Json::as_str)
                    .ok_or(DecodeError::Missing("detector"))?
                    .to_string(),
                job: match v.get("job") {
                    None | Some(Json::Null) => None,
                    Some(j) => Some(
                        j.as_i64()
                            .and_then(|i| u32::try_from(i).ok())
                            .ok_or(DecodeError::Bad("job"))?,
                    ),
                },
                value: f64_field("value")?,
            }),
            _ => Err(DecodeError::Bad("type")),
        }
    }

    /// Parse a single JSONL line into a record.
    pub fn parse_line(line: &str) -> Result<TraceRecord, DecodeError> {
        let v = Json::parse(line)?;
        TraceRecord::from_json(&v)
    }

    /// Column names of the CSV encoding, in order.
    pub const CSV_COLUMNS: &'static [&'static str] = &[
        "record",
        "t",
        "job",
        "event",
        "procs",
        "reason",
        "victim",
        "suspender",
        "victim_xf",
        "suspender_xf",
        "category",
        "xfactor",
        "limit",
        "shadow",
        "victims",
        "queued",
        "idle",
        "draining",
        "suspended",
        "running",
        "batches",
        "events",
        "proc",
        "version",
        "scheduler",
        "detector",
        "value",
    ];

    /// Append the record's CSV row (no newline) to `out`, one field per
    /// [`TraceRecord::CSV_COLUMNS`] entry. The header's embedded config is
    /// omitted (CSV cannot nest; use JSONL when the config must travel
    /// with the trace). Numbers use their `Display` form; free-form
    /// strings are quoted when they hold a comma, quote or newline.
    pub fn write_csv_row(&self, out: &mut String) {
        let mut row = CsvRow { out, at: 0 };
        match self {
            TraceRecord::Header {
                version, scheduler, ..
            } => {
                row.raw(Col::Record, "header");
                row.num(Col::Version, version);
                row.text(Col::Scheduler, scheduler);
            }
            TraceRecord::Job {
                t,
                job,
                event,
                procs,
            } => {
                row.raw(Col::Record, "job");
                row.num(Col::T, t);
                row.num(Col::Job, job);
                row.raw(Col::Event, event.name());
                if let Some(procs) = procs {
                    let out = row.seek(Col::Procs);
                    for (i, p) in procs.iter().enumerate() {
                        if i > 0 {
                            out.push(' ');
                        }
                        let _ = write!(out, "{p}");
                    }
                }
            }
            TraceRecord::Decision { t, reason } => {
                row.raw(Col::Record, "decision");
                row.num(Col::T, t);
                match reason {
                    Reason::Backfilled { job, shadow } => {
                        row.num(Col::Job, job);
                        row.raw(Col::Reason, reason.name());
                        row.num(Col::Shadow, shadow);
                    }
                    Reason::PreemptedVictim {
                        victim,
                        suspender,
                        victim_xf,
                        suspender_xf,
                    } => {
                        row.raw(Col::Reason, reason.name());
                        row.num(Col::Victim, victim);
                        row.num(Col::Suspender, suspender);
                        row.num(Col::VictimXf, victim_xf);
                        row.num(Col::SuspenderXf, suspender_xf);
                    }
                    Reason::BlockedByDisableLimit {
                        victim,
                        category,
                        xfactor,
                        limit,
                    } => {
                        row.raw(Col::Reason, reason.name());
                        row.num(Col::Victim, victim);
                        row.text(Col::Category, category);
                        row.num(Col::Xfactor, xfactor);
                        row.num(Col::Limit, limit);
                    }
                    Reason::ReentryOnOriginalProcs { job, victims } => {
                        row.num(Col::Job, job);
                        row.raw(Col::Reason, reason.name());
                        row.num(Col::Victims, victims);
                    }
                    Reason::MigratedResume { job } => {
                        row.num(Col::Job, job);
                        row.raw(Col::Reason, reason.name());
                    }
                }
            }
            TraceRecord::Gauge {
                t,
                queued,
                idle,
                draining,
                suspended,
                running,
            } => {
                row.raw(Col::Record, "gauge");
                row.num(Col::T, t);
                row.num(Col::Queued, queued);
                row.num(Col::Idle, idle);
                row.num(Col::Draining, draining);
                row.num(Col::Suspended, suspended);
                row.num(Col::Running, running);
            }
            TraceRecord::Proc { t, proc, event } => {
                row.raw(Col::Record, "proc");
                row.num(Col::T, t);
                row.raw(Col::Event, event.name());
                row.num(Col::Proc, proc);
            }
            TraceRecord::EngineStats { t, batches, events } => {
                row.raw(Col::Record, "engine");
                row.num(Col::T, t);
                row.num(Col::Batches, batches);
                row.num(Col::Events, events);
            }
            TraceRecord::Health {
                t,
                detector,
                job,
                value,
            } => {
                row.raw(Col::Record, "health");
                row.num(Col::T, t);
                if let Some(job) = job {
                    row.num(Col::Job, job);
                }
                row.text(Col::Detector, detector);
                row.num(Col::Value, value);
            }
        }
        row.seek(Col::Value);
    }
}

/// Positions in [`TraceRecord::CSV_COLUMNS`].
#[derive(Clone, Copy)]
enum Col {
    Record,
    T,
    Job,
    Event,
    Procs,
    Reason,
    Victim,
    Suspender,
    VictimXf,
    SuspenderXf,
    Category,
    Xfactor,
    Limit,
    Shadow,
    Victims,
    Queued,
    Idle,
    Draining,
    Suspended,
    Running,
    Batches,
    Events,
    Proc,
    Version,
    Scheduler,
    Detector,
    Value,
}

const _: () = assert!(Col::Value as usize + 1 == TraceRecord::CSV_COLUMNS.len());

/// One CSV row written left to right: each field lands in its column, and
/// the columns passed over on the way stay empty.
struct CsvRow<'a> {
    out: &'a mut String,
    /// The column the write position is in.
    at: usize,
}

impl CsvRow<'_> {
    /// Move the write position to the start of `col`, which must not lie
    /// behind it.
    fn seek(&mut self, col: Col) -> &mut String {
        let col = col as usize;
        debug_assert!(col >= self.at, "CSV fields are written in column order");
        for _ in self.at..col {
            self.out.push(',');
        }
        self.at = col;
        self.out
    }

    /// A field that never needs quoting (a wire name).
    fn raw(&mut self, col: Col, field: &str) {
        self.seek(col).push_str(field);
    }

    fn num(&mut self, col: Col, value: impl std::fmt::Display) {
        let _ = write!(self.seek(col), "{value}");
    }

    /// A free-form string, quoted when it holds a comma, quote or newline.
    fn text(&mut self, col: Col, field: &str) {
        let out = self.seek(col);
        if field.contains([',', '"', '\n']) {
            out.push('"');
            out.push_str(&field.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(field);
        }
    }
}

/// Failure to decode a [`TraceRecord`] from JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The line was not valid JSON.
    Json(JsonError),
    /// A required field was absent or of the wrong type.
    Missing(&'static str),
    /// A field was present but malformed.
    Bad(&'static str),
}

impl From<JsonError> for DecodeError {
    fn from(e: JsonError) -> Self {
        DecodeError::Json(e)
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Json(e) => write!(f, "{e}"),
            DecodeError::Missing(field) => write!(f, "missing or mistyped field '{field}'"),
            DecodeError::Bad(field) => write!(f, "malformed field '{field}'"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceRecord> {
        vec![
            TraceRecord::Header {
                version: TRACE_VERSION,
                scheduler: "ss:2.0".into(),
                config: Json::Obj(vec![("seed".into(), Json::Int(42))]),
            },
            TraceRecord::Job {
                t: 0,
                job: 1,
                event: JobEvent::Arrival,
                procs: None,
            },
            TraceRecord::Job {
                t: 5,
                job: 1,
                event: JobEvent::Dispatch,
                procs: Some(vec![0, 1]),
            },
            TraceRecord::Decision {
                t: 9,
                reason: Reason::PreemptedVictim {
                    victim: 1,
                    suspender: 2,
                    victim_xf: 1.25,
                    suspender_xf: 3.5,
                },
            },
            TraceRecord::Decision {
                t: 9,
                reason: Reason::Backfilled {
                    job: 7,
                    shadow: 1_000,
                },
            },
            TraceRecord::Decision {
                t: 11,
                reason: Reason::BlockedByDisableLimit {
                    victim: 4,
                    category: "L W".into(),
                    xfactor: 9.5,
                    limit: 4.25,
                },
            },
            TraceRecord::Decision {
                t: 12,
                reason: Reason::ReentryOnOriginalProcs { job: 1, victims: 2 },
            },
            TraceRecord::Decision {
                t: 13,
                reason: Reason::MigratedResume { job: 6 },
            },
            TraceRecord::Gauge {
                t: 12,
                queued: 3,
                idle: 10,
                draining: 4,
                suspended: 1,
                running: 9,
            },
            TraceRecord::Job {
                t: 40,
                job: 5,
                event: JobEvent::Kill,
                procs: None,
            },
            TraceRecord::Proc {
                t: 40,
                proc: 17,
                event: ProcEvent::Failed,
            },
            TraceRecord::Proc {
                t: 90,
                proc: 17,
                event: ProcEvent::Repaired,
            },
            TraceRecord::EngineStats {
                t: 99,
                batches: 1_234,
                events: 5_678,
            },
            TraceRecord::Health {
                t: 50,
                detector: "thrash".into(),
                job: Some(3),
                value: 4.0,
            },
            TraceRecord::Health {
                t: 95,
                detector: "capacity_leak".into(),
                job: None,
                value: 460_800.0,
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip_every_variant() {
        for rec in samples() {
            let mut line = String::new();
            rec.write_json(&mut line);
            let back = TraceRecord::parse_line(&line).unwrap();
            assert_eq!(back, rec, "line: {line}");
        }
    }

    #[test]
    fn csv_rows_match_column_count() {
        for rec in samples() {
            let mut row = String::new();
            rec.write_csv_row(&mut row);
            assert_eq!(
                row.split(',').count(),
                TraceRecord::CSV_COLUMNS.len(),
                "row: {row}"
            );
        }
    }

    #[test]
    fn decode_rejects_malformed_lines() {
        assert!(TraceRecord::parse_line("{").is_err());
        assert!(TraceRecord::parse_line("{\"type\":\"job\"}").is_err());
        assert!(TraceRecord::parse_line("{\"type\":\"nope\",\"t\":1}").is_err());
        assert!(TraceRecord::parse_line(
            "{\"type\":\"decision\",\"t\":1,\"reason\":\"backfilled\"}"
        )
        .is_err());
    }

    #[test]
    fn time_accessor() {
        assert_eq!(samples()[0].time(), None);
        assert_eq!(samples()[2].time(), Some(5));
    }
}
