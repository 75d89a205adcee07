//! `sps` — command-line front end to the selective-preemption simulator.
//!
//! Run `sps` without arguments for the usage text: each command's
//! synopsis, printed from the flag table (`FLAGS`), and what the flags
//! mean. Every command refuses a flag it does not read.
//!
//! `run` simulates a calibrated synthetic trace and prints the
//! per-category report; `replay` does the same for a Standard Workload
//! Format log, read and shaped as `sweep --swf` reads it. Multiple
//! `--sched` flags compare schemes on the same trace. `sweep` runs a
//! scheduler × load × seed grid over the synthetic trace, or, with
//! `--swf`, streams an SWF log of any size through every run with
//! O(machine) memory.
//! `--csv PREFIX` additionally writes one per-job CSV per scheme
//! (`PREFIX.<scheme>.csv`) for external analysis. `trace` streams the
//! full event log of one run to disk (JSONL embeds the experiment
//! config in a header record); `validate` replays such a log and
//! re-checks the scheduling invariants from the file alone. `report`
//! runs an instrumented comparison (telemetry registry + health
//! detectors attached) and emits a self-contained Markdown report.

use std::fmt::{Display, Write as _};
use std::io::IsTerminal as _;
use std::num::NonZeroUsize;
use std::str::FromStr;

use selective_preemption::cluster::SpeedSpec;
use selective_preemption::core::admission::AdmissionModel;
use selective_preemption::core::checkpoint::{CheckpointModel, PreemptionMode};
use selective_preemption::core::experiment::{
    default_threads, ConfigError, ExperimentConfig, SchedulerKind,
};
use selective_preemption::core::faults::{FaultModel, RecoveryPolicy};
use selective_preemption::core::mega::{run_mega_sweep_observed, MegaSweepSpec};
use selective_preemption::core::overhead::OverheadModel;
use selective_preemption::core::runner::BatchRunner;
use selective_preemption::core::sim::{KernelStats, RunUntil};
use selective_preemption::core::sweep::{
    run_sweep_observed, SweepProgress, SweepReport, SweepSpec,
};
use selective_preemption::metrics::table::render_comparison;
use selective_preemption::metrics::{goodput, CategoryReport};
use selective_preemption::simcore::Secs;
use selective_preemption::telemetry::{
    PhaseProfile, SpanEvent, SpanPhase, SpanProfiler, Telemetry, TimelineBuilder,
};
use selective_preemption::trace::{validate_jsonl, CsvSink, JsonlSink, ReplayOptions};
use selective_preemption::workload::{
    parse_secs, ArrivalSpec, EstimateModel, Job, JobSource, SyntheticConfig, SystemPreset,
    TraceSource,
};

/// A command-line error: `error: msg`, then the usage text, exit 2.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!();
    usage();
}

/// A file error (an SWF log the reader refuses, a path that cannot be
/// read or written): only `error: msg`, exit 2. The command line is fine,
/// so the usage text would not help.
fn fail_file(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Refuse a configuration: an SWF log that cannot be read is a file
/// error, anything else comes from the command line.
fn refuse(e: ConfigError) -> ! {
    match e {
        ConfigError::BadSwf(_) => fail_file(&e.to_string()),
        _ => fail(&e.to_string()),
    }
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Write to stdout. Once its reader has gone (`sps … | head`), the
/// command ends quietly with exit 0: the reader took what it wanted.
fn emit(text: std::fmt::Arguments) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        fail_file(&format!("cannot write to stdout: {e}"));
    }
}

// The modes a flag can apply to. A mode is a command, or a command
// together with the flag that switches its pipeline: `run` with an open
// `--arrivals`, `sweep --swf` and `report --loads`.
const RUN: u8 = 1;
const OPEN_RUN: u8 = 1 << 1;
const SWEEP: u8 = 1 << 2;
const SWF_SWEEP: u8 = 1 << 3;
const REPORT: u8 = 1 << 4;
const LOAD_REPORT: u8 = 1 << 5;
const REPLAY: u8 = 1 << 6;
const TRACE: u8 = 1 << 7;
/// What a refusal calls each mode, in bit order.
const TARGETS: [&str; 8] = [
    "a closed-trace run",
    "an open-system run",
    "a synthetic sweep",
    "an SWF sweep",
    "report without --loads",
    "report --loads",
    "an SWF replay",
    "trace",
];
const ALL: u8 = u8::MAX;
/// The modes whose runs take their configuration from the run flags; an
/// SWF sweep's runs take only the overhead model beside the log.
const CONFIG: u8 = ALL & !SWF_SWEEP;
/// The modes that simulate a synthetic workload on a `--system`.
const SYNTH: u8 = CONFIG & !REPLAY;
/// The modes that read an SWF log.
const LOGS: u8 = SWF_SWEEP | REPLAY;
/// The modes that run a sweep grid.
const GRID: u8 = SWEEP | SWF_SWEEP | LOAD_REPORT;
const REPORTS: u8 = REPORT | LOAD_REPORT;
/// The modes whose runs stop at `--until`; a report compares drained
/// closed-trace runs.
const STOPS: u8 = CONFIG & !REPORTS;

type Setter = fn(&mut Args, &str) -> Result<(), String>;

/// One flag of `sps`: its name, its value's placeholder in the usage
/// text (empty for a switch), the modes that read it, and the setter
/// that parses its value into [`Args`].
struct Flag {
    name: &'static str,
    value: &'static str,
    modes: u8,
    set: Setter,
}

const fn flag(name: &'static str, value: &'static str, modes: u8, set: Setter) -> Flag {
    Flag {
        name,
        value,
        modes,
        set,
    }
}

/// Parse a flag's value, keeping the parser's message.
fn parse<T: FromStr<Err: Display>>(value: &str) -> Result<T, String> {
    value.parse().map_err(|e: T::Err| e.to_string())
}

/// Store a setter's parsed value.
fn put<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

/// Store a flag's value, parsed, in an optional slot.
fn some<T: FromStr<Err: Display>>(slot: &mut Option<T>, value: &str) -> Result<(), String> {
    put(slot, Some(parse(value)?))
}

/// Every flag of `sps`, in usage order: the one place that says which
/// modes read a flag and how its value parses.
static FLAGS: [Flag; 40] = [
    flag("--system", "<CTC|SDSC|KTH>", SYNTH, |a, v| {
        let system = SystemPreset::by_name(v).ok_or("expected CTC, SDSC or KTH")?;
        put(&mut a.system, Some(system))
    }),
    flag("--swf", "FILE", LOGS, |a, v| some(&mut a.swf, v)),
    flag("--procs", "N", LOGS, |a, v| some(&mut a.procs, v)),
    flag("--sched", "<SPEC>", ALL, |a, v| {
        a.specs.push(v.to_string());
        Ok(())
    }),
    flag("--sf", "F", ALL, |a, v| some(&mut a.sf, v)),
    flag("--jobs", "N", SYNTH & !OPEN_RUN, |a, v| {
        some(&mut a.jobs, v)
    }),
    flag("--load", "F", ALL, |a, v| put(&mut a.load, parse(v)?)),
    flag("--loads", "F,F,...", GRID, |a, v| {
        let loads = v.split(',').map(|s| parse(s.trim()));
        put(&mut a.loads, Some(loads.collect::<Result<_, _>>()?))
    }),
    flag("--reps", "N", GRID, |a, v| some(&mut a.reps, v)),
    flag("--seed", "N", ALL, |a, v| put(&mut a.seed, parse(v)?)),
    flag("--threads", "N", !(REPORT | TRACE), |a, v| {
        some(&mut a.threads, v)
    }),
    flag("--estimates", "accurate|mixture", ALL, |a, v| match v {
        "accurate" => put(&mut a.estimates, Some(EstimateModel::Accurate)),
        "mixture" => put(&mut a.estimates, Some(EstimateModel::paper_mixture())),
        _ => Err("expected accurate or mixture".into()),
    }),
    flag("--overhead", "none|paper", ALL, |a, v| match v {
        "none" => put(&mut a.overhead, OverheadModel::None),
        "paper" => put(&mut a.overhead, OverheadModel::paper()),
        _ => Err("expected none or paper".into()),
    }),
    flag("--diurnal", "A", RUN, |a, v| match parse(v)? {
        amplitude if (0.0..1.0).contains(&amplitude) => put(&mut a.diurnal, amplitude),
        amplitude => Err(format!("must be in [0, 1), got {amplitude}")),
    }),
    flag("--mtbf", "SECS", CONFIG, |a, v| some(&mut a.mtbf, v)),
    flag("--mttr", "SECS", CONFIG, |a, v| some(&mut a.mttr, v)),
    flag("--recovery", "wait|resubmit|remap", CONFIG, |a, v| {
        some(&mut a.recovery, v)
    }),
    flag("--fault-seed", "N", CONFIG, |a, v| {
        some(&mut a.fault_seed, v)
    }),
    flag(
        "--preemption",
        "suspend|checkpoint|migrate",
        CONFIG,
        |a, v| some(&mut a.preemption, v),
    ),
    flag("--ckpt-interval", "SECS", CONFIG, |a, v| {
        some(&mut a.ckpt_interval, v)
    }),
    flag("--ckpt-rate", "MB/S", CONFIG, |a, v| {
        some(&mut a.ckpt_rate, v)
    }),
    flag("--ckpt-contention", "", CONFIG, |a, _| {
        put(&mut a.ckpt_contention, true)
    }),
    flag("--arrivals", "SPEC", STOPS & !REPLAY, |a, v| {
        some(&mut a.arrivals, v)
    }),
    flag("--until", "DUR|Nj", STOPS, |a, v| some(&mut a.until, v)),
    flag("--warmup", "DUR", STOPS, |a, v| {
        put(&mut a.warmup, Some(parse_secs(v)?))
    }),
    flag("--admission", "SPEC", CONFIG, |a, v| {
        some(&mut a.admission, v)
    }),
    flag("--speed", "SPEC", CONFIG, |a, v| some(&mut a.speed, v)),
    flag("--speed-blind", "", CONFIG, |a, _| {
        put(&mut a.speed_blind, true)
    }),
    flag("--budget", "MS", GRID, |a, v| some(&mut a.budget, v)),
    flag("--retries", "N", GRID, |a, v| some(&mut a.retries, v)),
    flag("--readahead", "N", SWF_SWEEP, |a, v| {
        some(&mut a.readahead, v)
    }),
    flag("--format", "FORMAT", SWEEP | SWF_SWEEP | TRACE, |a, v| {
        some(&mut a.format, v)
    }),
    flag("--out", "FILE", GRID | REPORT | TRACE, |a, v| {
        some(&mut a.out, v)
    }),
    flag("--csv", "PREFIX", RUN | REPLAY, |a, v| some(&mut a.csv, v)),
    flag("--prom", "PREFIX", REPORTS, |a, v| some(&mut a.prom, v)),
    flag(
        "--timeline",
        "FILE",
        RUN | SWEEP | SWF_SWEEP | REPLAY,
        |a, v| some(&mut a.timeline, v),
    ),
    flag("--worst", "", RUN | REPLAY, |a, _| put(&mut a.worst, true)),
    flag("--top", "", SWEEP | SWF_SWEEP, |a, _| put(&mut a.top, true)),
    flag("--progress", "", GRID, |a, _| {
        put(&mut a.progress, Some(true))
    }),
    flag("--no-progress", "", GRID, |a, _| {
        put(&mut a.progress, Some(false))
    }),
];

/// Each command's synopsis in the usage text: its name, the modes it
/// runs in and its required flags, shown first and without brackets.
const SYNOPSES: [(&str, u8, &[&str]); 6] = [
    ("run", RUN | OPEN_RUN, &["--system", "--sched"]),
    ("sweep", SWEEP, &["--system", "--sched"]),
    ("sweep", SWF_SWEEP, &["--swf", "--procs", "--sched"]),
    ("report", REPORTS, &[]),
    ("replay", REPLAY, &["--swf", "--procs", "--sched"]),
    ("trace", TRACE, &["--system", "--sched", "--out"]),
];

fn usage() -> ! {
    eprintln!("usage:");
    for (command, modes, required) in SYNOPSES {
        let mut line = format!("  sps {command:<6}");
        let (head, rest): (Vec<&Flag>, _) = FLAGS
            .iter()
            .filter(|f| f.modes & modes != 0)
            .partition(|f| required.contains(&f.name));
        for f in head.into_iter().chain(rest) {
            let item = match f.value {
                "" => format!(" [{}]", f.name),
                value if required.contains(&f.name) => format!(" {} {value}", f.name),
                value => format!(" [{} {value}]", f.name),
            };
            if line.len() + item.len() > 80 {
                eprintln!("{line}");
                line = " ".repeat(12);
            }
            line.push_str(&item);
        }
        eprintln!("{line}");
    }
    eprintln!("  sps validate FILE [--allow-migration]");
    eprintln!("  sps schedulers");
    eprintln!();
    eprintln!("every command refuses a flag it does not read (exit 2)");
    eprintln!("scheduler SPEC: fcfs | cons | ns | flex:<depth> | is | gang | ss:<sf> | tss:<sf>");
    eprintln!("                (a bare ss/tss takes its factor from --sf, default 2)");
    eprintln!("FORMAT: table | csv | json for sweep (default table), jsonl | csv for trace");
    eprintln!("sweep: the full scheduler x load grid runs --reps seed replications per cell");
    eprintln!("       and reports per-cell means with 95% confidence half-widths;");
    eprintln!("       --threads defaults to the SPS_THREADS env var, then all cores;");
    eprintln!("       --progress streams done/total, runs/s, ETA and the worst health");
    eprintln!("       detector to stderr (default: only when stderr is a terminal)");
    eprintln!("sweep --swf: sweep an SWF log of any size with O(machine) memory — each run");
    eprintln!("       streams the log through a bounded read-ahead ring (--readahead jobs,");
    eprintln!("       default 1024) and folds outcomes in-simulator instead of materializing");
    eprintln!("       them; --loads reshapes inter-arrival gaps around the log's own arrival");
    eprintln!("       pattern and --estimates (if given) re-draws user estimates, seeded per");
    eprintln!("       replication");
    eprintln!("replay: reads the log like sweep --swf (--load for --loads); both drop and");
    eprintln!("       count jobs wider than --procs and refuse a malformed log up front");
    eprintln!("observability: --timeline FILE writes a Chrome-trace / Perfetto JSON");
    eprintln!("       timeline (run: one lane per scheme with run-loop phase spans;");
    eprintln!("       sweep: one lane per worker with per-cell spans and in-run");
    eprintln!("       phase spans); --top redraws a live per-worker table on stderr");
    eprintln!("       (cells done and failed, busy time, peak RSS)");
    eprintln!("report: instrumented comparison runs (default SDSC, ns vs ss vs tss) with");
    eprintln!("        per-category tables, decide-latency histogram, and health findings;");
    eprintln!("        --loads adds a telemetry sweep table; --prom writes Prometheus/JSON");
    eprintln!("        metric snapshots per scheme; --out writes the Markdown report");
    eprintln!("faults: --mtbf enables per-processor failures (exponential, mean SECS);");
    eprintln!("        --mttr sets the repair time mean (default 1800 s); --recovery picks");
    eprintln!("        what happens to suspended jobs whose processors died");
    eprintln!("preemption: --preemption picks how preempted/killed jobs hold their state:");
    eprintln!("        suspend (in place, the paper's model), checkpoint (periodic images");
    eprintln!("        bound lost work to one --ckpt-interval; restore stalls on restart),");
    eprintln!("        migrate (checkpoint + restart on any free set); --ckpt-rate sets the");
    eprintln!("        per-processor image bandwidth and --ckpt-contention fair-shares it");
    eprintln!("sweep budget: --budget caps the sweep's wall clock in ms — queued runs past");
    eprintln!("        the deadline are skipped and in-flight runs abort with partial");
    eprintln!("        metrics; --retries re-runs a run that panics, with backoff");
    eprintln!("open system: --arrivals picks the arrival process:");
    eprintln!("        trace | poisson[:load] | mmpp:[load,]burst,dwell |");
    eprintln!("        ramp:from,to,over | diurnal:[load,]amplitude");
    eprintln!("        non-trace arrivals stream unbounded jobs, so --until is required:");
    eprintln!("        a duration (30d, 12h, 900s) or a completed-job count (5000j);");
    eprintln!("        --warmup DUR discards the transient from the windowed report;");
    eprintln!("        --admission load:<backlog>[,<penalty-factor>] enables admission");
    eprintln!("        control (reject when the queue backlog exceeds <backlog> of work)");
    eprintln!("speed: --speed gives processors heterogeneous speed factors:");
    eprintln!("        uniform:<f> | tiers:<f>x<n>+<f>x<n>+... | lognormal:<seed>");
    eprintln!("        a job runs at its slowest assigned processor's speed, so runtimes");
    eprintln!("        stretch by 1/speed; schedulers place on the fastest free procs");
    eprintln!("        unless --speed-blind disables speed-aware placement (ablation)");
    std::process::exit(2);
}

#[derive(Default)]
struct Args {
    system: Option<SystemPreset>,
    /// The `--sched` specs, resolved into `scheds` once `--sf` is known.
    specs: Vec<String>,
    scheds: Vec<SchedulerKind>,
    jobs: Option<usize>,
    load: f64,
    seed: u64,
    /// `None` keeps the workload's own estimates (a log's, or exact ones).
    estimates: Option<EstimateModel>,
    readahead: Option<usize>,
    overhead: OverheadModel,
    diurnal: f64,
    worst: bool,
    swf: Option<String>,
    procs: Option<u32>,
    csv: Option<String>,
    out: Option<String>,
    format: Option<String>,
    mtbf: Option<i64>,
    mttr: Option<i64>,
    recovery: Option<RecoveryPolicy>,
    fault_seed: Option<u64>,
    preemption: Option<PreemptionMode>,
    ckpt_interval: Option<Secs>,
    ckpt_rate: Option<f64>,
    ckpt_contention: bool,
    budget: Option<u64>,
    retries: Option<u32>,
    loads: Option<Vec<f64>>,
    reps: Option<usize>,
    threads: Option<NonZeroUsize>,
    sf: Option<f64>,
    progress: Option<bool>,
    prom: Option<String>,
    arrivals: Option<ArrivalSpec>,
    until: Option<RunUntil>,
    warmup: Option<Secs>,
    admission: Option<AdmissionModel>,
    speed: Option<SpeedSpec>,
    speed_blind: bool,
    timeline: Option<String>,
    top: bool,
}

impl Args {
    /// Assemble the fault model the flags describe (disabled by default).
    fn faults(&self) -> FaultModel {
        let mut model = match self.mtbf {
            Some(mtbf) => {
                if mtbf < 1 {
                    fail("--mtbf must be at least 1 second");
                }
                let mut m = FaultModel::proc_faults(mtbf, self.mttr.unwrap_or(1_800), 0);
                if let Some(mttr) = self.mttr {
                    if mttr < 1 {
                        fail("--mttr must be at least 1 second");
                    }
                    m.mttr = mttr;
                }
                m
            }
            None => {
                if self.mttr.is_some() || self.recovery.is_some() {
                    fail("--mttr/--recovery need --mtbf to enable faults");
                }
                FaultModel::none()
            }
        };
        if let Some(recovery) = self.recovery {
            model = model.with_recovery(recovery);
        }
        if let Some(seed) = self.fault_seed {
            model = model.with_fault_seed(seed);
        }
        model
    }

    /// The preemption mode the flags describe (in-place suspension — the
    /// paper's model — by default). Checkpoint-tuning flags without a
    /// checkpointing mode are a user error, not a silent no-op.
    fn preemption(&self) -> PreemptionMode {
        let mode = self.preemption.unwrap_or_default();
        if !mode.checkpoints()
            && (self.ckpt_interval.is_some() || self.ckpt_rate.is_some() || self.ckpt_contention)
        {
            fail("--ckpt-interval/--ckpt-rate/--ckpt-contention need --preemption checkpoint|migrate");
        }
        mode
    }

    /// Assemble the checkpoint cost model (paper-calibrated defaults;
    /// inert unless [`Args::preemption`] selects a checkpointing mode).
    fn checkpoint(&self) -> CheckpointModel {
        let mut model = CheckpointModel::paper();
        if let Some(interval) = self.ckpt_interval {
            if interval < 1 {
                fail("--ckpt-interval must be at least 1 second");
            }
            model = model.with_interval(interval);
        }
        if let Some(rate) = self.ckpt_rate {
            if !rate.is_finite() || rate <= 0.0 {
                fail("--ckpt-rate must be a positive MB/s");
            }
            model = model.with_rate(rate);
        }
        model.with_contention(self.ckpt_contention)
    }

    /// The experiment configuration the flags describe for one scheme on
    /// `system`: the one place the CLI turns run flags into a config.
    fn config(&self, system: SystemPreset, kind: SchedulerKind) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(system, kind)
            .with_seed(self.seed)
            .with_load_factor(self.load)
            .with_estimates(self.estimates.unwrap_or_default())
            .with_overhead(self.overhead)
            .with_faults(self.faults())
            .with_preemption(self.preemption())
            .with_checkpoint(self.checkpoint())
            .with_arrivals(self.arrivals.unwrap_or(ArrivalSpec::Trace))
            .with_until(self.until.unwrap_or_default())
            .with_warmup(self.warmup.unwrap_or(0))
            .with_admission(self.admission.unwrap_or_else(AdmissionModel::none))
            .with_speed(self.speed.clone().unwrap_or_default())
            .with_speed_aware(!self.speed_blind);
        if let Some(n) = self.jobs {
            cfg = cfg.with_jobs(n);
        }
        cfg
    }

    /// [`Args::config`], failing with a usage error unless it passes
    /// [`ExperimentConfig::validate`].
    fn checked_config(&self, system: SystemPreset, kind: SchedulerKind) -> ExperimentConfig {
        let cfg = self.config(system, kind);
        cfg.validate().unwrap_or_else(|e| fail(&e.to_string()));
        cfg
    }

    /// One validated configuration per `--sched` on `system` (`run` and
    /// `replay`).
    fn configs(&self, system: SystemPreset) -> Vec<ExperimentConfig> {
        if self.scheds.is_empty() {
            fail("at least one --sched required");
        }
        self.scheds
            .iter()
            .map(|&kind| self.checked_config(system, kind))
            .collect()
    }

    /// The synthetic scheduler × load grid the flags describe on
    /// `system` (`sweep`, and `report --loads`).
    fn sweep_spec(&self, system: SystemPreset, scheds: Vec<SchedulerKind>) -> SweepSpec {
        // The scheduler axis replaces the base configuration's scheduler.
        let mut spec = SweepSpec::over(self.config(system, SchedulerKind::Easy))
            .with_schedulers(scheds)
            .with_loads(self.loads.clone().unwrap_or_else(|| vec![self.load]))
            .with_reps(self.reps.unwrap_or(1));
        if let Some(budget) = self.budget {
            spec = spec.with_wall_budget(budget);
        }
        if let Some(retries) = self.retries {
            spec = spec.with_retries(retries);
        }
        spec
    }

    /// How `replay` and `sweep --swf` read the log at `swf` on a
    /// `procs`-processor machine: estimates re-drawn under `--seed` only
    /// when `--estimates` is given.
    fn log_spec(&self, swf: &str, procs: u32) -> MegaSweepSpec {
        MegaSweepSpec::new(swf, procs)
            .with_seed(self.seed)
            .with_estimates(self.estimates)
    }

    /// The SWF-log grid the flags describe (`sweep --swf`).
    fn swf_spec(&self, swf: &str) -> MegaSweepSpec {
        let procs = self
            .procs
            .unwrap_or_else(|| fail("--procs required with --swf"));
        let mut spec = self
            .log_spec(swf, procs)
            .with_schedulers(self.scheds.clone())
            .with_loads(self.loads.clone().unwrap_or_else(|| vec![self.load]))
            .with_reps(self.reps.unwrap_or(1))
            .with_overhead(self.overhead)
            .with_timeline(self.timeline.is_some());
        if let Some(n) = self.readahead {
            spec = spec.with_readahead(n);
        }
        if let Some(budget) = self.budget {
            spec = spec.with_wall_budget(budget);
        }
        if let Some(retries) = self.retries {
            spec = spec.with_retries(retries);
        }
        spec
    }
}

/// Read `spec`'s log once at `load` through the reader and shaper its
/// runs use, handing each job to `keep`, and return the count line both
/// SWF commands print. The log's first error is a file error (exit 2).
fn read_log(spec: &MegaSweepSpec, load: f64, keep: impl FnMut(Job)) -> String {
    let mut log = spec
        .source(load, spec.base_seed)
        .unwrap_or_else(|e| refuse(e));
    let usable = std::iter::from_fn(|| log.next_job()).map(keep).count();
    if let Some(e) = log.error() {
        fail_file(&e.to_string());
    }
    format!(
        "{}: {usable} usable jobs ({} skipped, {} wider than the machine), machine {} procs",
        spec.swf.display(),
        log.inner().warnings().skipped,
        log.wider(),
        spec.procs,
    )
}

/// Parse the flags of `command` (`run`, `sweep`, `report`, `replay` or
/// `trace`) through [`FLAGS`], and refuse any flag its mode does not read
/// before the command prints or simulates anything.
fn parse_args(command: &str, argv: Vec<String>) -> Args {
    let mut args = Args {
        load: 1.0,
        seed: 42,
        ..Default::default()
    };
    let mut given: Vec<&Flag> = Vec::new();
    let mut argv = argv.into_iter();
    while let Some(name) = argv.next() {
        let Some(flag) = FLAGS.iter().find(|f| f.name == name) else {
            fail(&format!("unknown flag {name:?}"));
        };
        let value = match flag.value {
            "" => String::new(),
            _ => argv
                .next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value"))),
        };
        (flag.set)(&mut args, &value).unwrap_or_else(|e| fail(&format!("bad {name}: {e}")));
        given.push(flag);
    }
    let open = args.arrivals.is_some_and(|a| !a.is_trace());
    let mode = match command {
        "run" if open => OPEN_RUN,
        "run" => RUN,
        "sweep" if args.swf.is_some() => SWF_SWEEP,
        "sweep" => SWEEP,
        "report" if args.loads.is_some() => LOAD_REPORT,
        "report" => REPORT,
        "replay" => REPLAY,
        "trace" => TRACE,
        _ => unreachable!("{command} takes no flags"),
    };
    if let Some(flag) = given.iter().find(|f| f.modes & mode == 0) {
        // Name the mode when the command has no other, or another reads it.
        let modes = SYNOPSES
            .iter()
            .filter(|s| s.0 == command)
            .fold(0, |m, s| m | s.1);
        let target = if modes == mode || modes & flag.modes != 0 {
            TARGETS[mode.trailing_zeros() as usize]
        } else {
            command
        };
        fail(&format!("{} does not apply to {target}", flag.name));
    }
    if args.speed_blind && args.speed.is_none() {
        fail("--speed-blind needs --speed to enable heterogeneous processors");
    }
    if open && args.jobs.is_some() {
        fail("--jobs sizes a closed trace; open --arrivals stop at --until");
    }
    if mode & (SWEEP | SWF_SWEEP) != 0
        && args.loads.is_some()
        && given.iter().any(|f| f.name == "--load")
    {
        fail("--load and --loads both set a sweep's loads; list them all in --loads");
    }
    for spec in std::mem::take(&mut args.specs) {
        let resolved = match spec.as_str() {
            // A bare preemptive scheme takes its factor from --sf
            // (suspension factor 2 is the paper's headline setting).
            "ss" | "tss" => format!("{spec}:{}", args.sf.unwrap_or(2.0)),
            _ => spec,
        };
        let kind = resolved.parse().unwrap_or_else(|e| fail(&format!("{e}")));
        args.scheds.push(kind);
    }
    args
}

/// Simulate every scheme's configuration on `jobs` (one configuration
/// per `--sched`, from [`Args::configs`]) and print the per-category
/// comparison — the body of `run` and `replay`.
fn report(jobs: Vec<Job>, configs: &[ExperimentConfig], args: &Args) {
    let procs = configs[0].system.procs;
    // Simulate every scheme first — in parallel when --threads (or
    // SPS_THREADS) allows it — then print in input order.
    let threads = args.threads.map_or_else(default_threads, usize::from);
    let simulate = |cfg: &ExperimentConfig| {
        let mut run = cfg
            .runner()
            .source(Box::new(TraceSource::new(jobs.clone())));
        if args.timeline.is_some() {
            run = run.profiler(SpanProfiler::with_timeline(0));
        }
        run.simulate()
    };
    let results: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = configs
            .chunks(configs.len().div_ceil(threads))
            .map(|chunk| scope.spawn(|| chunk.iter().map(simulate).collect::<Vec<_>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("scheme simulation panicked"))
            .collect()
    });
    let mut grids: Vec<(String, [f64; 16])> = Vec::new();
    let mut lanes: Vec<(String, Vec<SpanEvent>)> = Vec::new();
    for (&kind, mut res) in args.scheds.iter().zip(results) {
        let rep = CategoryReport::from_outcomes(&res.outcomes);
        outln!(
            "{:<14} overall slowdown {:>7.2}  mean turnaround {:>8.0} s  utilization {:>5.1}%  preemptions {:>6}",
            kind.label(),
            rep.overall.mean_slowdown,
            rep.overall.mean_turnaround,
            res.utilization * 100.0,
            res.preemptions,
        );
        outln!(
            "{:<14}   kernel: {} events, {} decides in {:.1} ms ({} events/s)",
            "",
            res.kernel.events,
            res.kernel.decide_calls,
            res.kernel.wall_micros as f64 / 1e3,
            // Sub-millisecond runs register zero wall microseconds; a rate
            // computed from that would be infinite, so report n/a.
            match res.kernel.events_per_sec() {
                Some(rate) => format!("{:.0}k", rate / 1e3),
                None => "n/a".to_string(),
            },
        );
        if let Some(phases) = &res.kernel.phases {
            outln!("{:<14}   {}", "", render_phase_line(phases, &res.kernel));
        }
        if let Some(spans) = res.spans.take() {
            lanes.push((kind.label(), spans));
        }
        if res.faults.any() {
            outln!(
                "{:<14}   failures {:>4}  jobs killed {:>4}  lost work {:>9} proc-s  stranded {:>7} s  goodput {:>5.1}%",
                "",
                res.faults.proc_failures,
                res.faults.jobs_killed + res.faults.job_crashes,
                res.faults.lost_work,
                res.faults.stranded_secs,
                goodput(&res.outcomes, procs, res.faults.downtime) * 100.0,
            );
            if res.faults.migrations > 0 || res.faults.ckpt_overhead > 0 {
                outln!(
                    "{:<14}   migrations {:>4}  checkpoint overhead {:>9} proc-s",
                    "",
                    res.faults.migrations,
                    res.faults.ckpt_overhead,
                );
            }
        }
        if res.rejections.any() {
            outln!(
                "{:<14}   admission: rejected {:>5} jobs  ({:.1}% of submissions)  penalty {:.3e}",
                "",
                res.rejections.rejected,
                res.rejections
                    .rejection_rate(res.rejections.rejected + res.outcomes.len() as u64)
                    * 100.0,
                res.rejections.penalty,
            );
        }
        if let Some(wdw) = &res.windowed {
            outln!(
                "{:<14}   window [{}..{}] s: {} jobs  slowdown {:.2}  turnaround {:.0} s  util {:.1}%  {:.1} jobs/h",
                "",
                wdw.start.secs(),
                wdw.end.secs(),
                wdw.completed,
                wdw.mean_slowdown,
                wdw.mean_turnaround,
                wdw.utilization * 100.0,
                wdw.jobs_per_hour,
            );
        }
        if res.status.is_aborted() {
            eprintln!(
                "warning: {} aborted by the watchdog ({:?}); {} jobs unfinished — metrics are partial",
                kind.label(),
                res.status,
                res.unfinished,
            );
        }
        let grid = if args.worst {
            rep.worst_slowdown_grid()
        } else {
            rep.mean_slowdown_grid()
        };
        grids.push((kind.label(), grid));
        if let Some(prefix) = &args.csv {
            let path = format!("{prefix}.{}.csv", scheme_slug(&kind.label()));
            let csv = selective_preemption::metrics::export::outcomes_csv(&res.outcomes);
            match std::fs::write(&path, csv) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => eprintln!("warning: cannot write {path}: {e}"),
            }
        }
    }
    let named: Vec<(&str, [f64; 16])> = grids.iter().map(|(n, g)| (n.as_str(), *g)).collect();
    let title = if args.worst {
        "worst-case slowdown per category"
    } else {
        "average slowdown per category"
    };
    outln!("\n{}", render_comparison(title, &named));
    if let Some(path) = &args.timeline {
        // One Perfetto lane per scheme; each lane holds that scheme's
        // run-loop phase spans (every scheme's clock starts at its own
        // profiler epoch, so lanes align at zero).
        let mut tl = TimelineBuilder::new();
        tl.process_name(1, "sps run");
        for (i, (label, spans)) in lanes.iter().enumerate() {
            let tid = i as u32 + 1;
            tl.thread_name(1, tid, label);
            tl.phase_spans(1, tid, 0, spans);
        }
        match std::fs::write(path, tl.render()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("warning: cannot write {path}: {e}"),
        }
    }
}

/// One-line per-phase latency digest (`phase p50/p99` for every phase the
/// profiler saw) for the `run`/`replay` kernel block, closed by the phase
/// ledger: the time the four batch phases add up to, its share of the
/// run's wall time, and the unattributed remainder.
fn render_phase_line(phases: &PhaseProfile, kernel: &KernelStats) -> String {
    let mut line = String::from("phases (p50/p99):");
    for phase in SpanPhase::ALL {
        if phases.count(phase) == 0 {
            continue;
        }
        let p50 = phases.quantile_ns(phase, 0.5).unwrap_or(0);
        let p99 = phases.quantile_ns(phase, 0.99).unwrap_or(0);
        let _ = write!(line, "  {} {}/{}", phase.name(), fmt_ns(p50), fmt_ns(p99));
    }
    if let Some(attributed) = kernel.attributed_nanos() {
        let wall = kernel.wall_micros * 1_000;
        let share = if wall > 0 {
            format!("{:.1}%", attributed as f64 * 100.0 / wall as f64)
        } else {
            "n/a".to_string()
        };
        let _ = write!(
            line,
            "  | phases total {} ({share} of wall), unattributed {}",
            fmt_ns(attributed),
            fmt_ns(wall.saturating_sub(attributed)),
        );
    }
    line
}

/// Human-scale nanosecond rendering for the phase digest.
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e6 {
        format!("{:.1}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// `sps run --arrivals <open spec>`: stream jobs from seeded generators
/// instead of replaying a finite trace, stop at `--until`, and report the
/// warmup-windowed steady-state metrics per scheme (one validated
/// configuration per `--sched`, from [`Args::configs`]).
fn open_run(configs: Vec<ExperimentConfig>, args: &Args) {
    let cfg = &configs[0];
    outln!(
        "{}: open system — arrivals {}, until {}, warmup {} s, admission {}\n",
        cfg.system.name,
        cfg.arrivals,
        cfg.until,
        cfg.warmup,
        cfg.admission,
    );
    let results = BatchRunner::new(configs)
        .threads(args.threads.map_or_else(default_threads, usize::from))
        .run_checked();
    let mut failed = false;
    for (&kind, result) in args.scheds.iter().zip(&results) {
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("warning: {} failed: {e}", kind.label());
                failed = true;
                continue;
            }
        };
        let wdw = r
            .sim
            .windowed
            .as_ref()
            .expect("open-system runs always carry a windowed report");
        outln!(
            "{:<14} window [{}..{}] s: {:>6} jobs  mean slowdown {:>7.2}  worst {:>8.1}  \
             turnaround {:>7.0} s  utilization {:>5.1}%  {:>6.1} jobs/h",
            kind.label(),
            wdw.start.secs(),
            wdw.end.secs(),
            wdw.completed,
            wdw.mean_slowdown,
            wdw.max_slowdown,
            wdw.mean_turnaround,
            wdw.utilization * 100.0,
            wdw.jobs_per_hour,
        );
        outln!(
            "{:<14}   preemptions {:>6}  in flight at stop {:>5}  kernel: {} events in {:.1} ms",
            "",
            r.sim.preemptions,
            r.sim.unfinished,
            r.sim.kernel.events,
            r.sim.kernel.wall_micros as f64 / 1e3,
        );
        if r.sim.rejections.any() {
            let rej = &r.sim.rejections;
            outln!(
                "{:<14}   admission: rejected {:>5} jobs ({:.1}% of submissions)  \
                 refused work {} proc-s  penalty {:.3e}",
                "",
                rej.rejected,
                rej.rejection_rate(rej.rejected + r.sim.outcomes.len() as u64) * 100.0,
                rej.rejected_work,
                rej.penalty,
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// A `\r`-rewriting stderr progress renderer for sweeps (a no-op when
/// `enabled` is false, so the same call site serves both modes).
fn progress_line(enabled: bool) -> impl FnMut(&SweepProgress) {
    move |p: &SweepProgress| {
        if enabled {
            // Trailing spaces wipe leftovers of a longer previous line.
            eprint!("\r{}        ", progress_summary(p));
        }
    }
}

/// One-line progress digest: runs and cells done, rate, failures, ETA
/// and the worst health detector.
fn progress_summary(p: &SweepProgress) -> String {
    let mut line = format!(
        "{}/{} runs  {}/{} cells  {:.1} runs/s",
        p.done, p.total, p.cells_done, p.cells, p.runs_per_sec
    );
    if p.failed > 0 {
        let _ = write!(line, "  {} failed", p.failed);
    }
    if let Some(eta) = p.eta_secs {
        let _ = write!(line, "  ETA {}", fmt_eta(eta));
    }
    if let Some(worst) = &p.worst_detector {
        let _ = write!(line, "  [{worst}]");
    }
    line
}

/// `--top`: a multi-line stderr view redrawn in place (cursor-up + clear
/// ANSI codes) with one row of live shard counters per sweep worker —
/// cells done/failed, busy wall, and the process peak RSS observed from
/// that worker.
fn top_view() -> impl FnMut(&SweepProgress) {
    let mut drawn = 0usize;
    move |p: &SweepProgress| {
        let mut out = String::new();
        if drawn > 0 {
            let _ = write!(out, "\x1b[{drawn}A");
        }
        let _ = writeln!(out, "\x1b[2K{}", progress_summary(p));
        let mut lines = 1usize;
        if let Some(workers) = &p.workers {
            let _ = writeln!(
                out,
                "\x1b[2K{:>6}  {:>5}  {:>6}  {:>8}  {:>8}",
                "worker", "cells", "failed", "busy (s)", "rss (MB)"
            );
            lines += 1;
            for w in workers {
                let _ = writeln!(
                    out,
                    "\x1b[2K{:>6}  {:>5}  {:>6}  {:>8.1}  {:>8.1}",
                    w.worker,
                    w.cells_done,
                    w.cells_failed,
                    w.busy_ns as f64 / 1e9,
                    w.peak_rss_kb as f64 / 1024.0,
                );
                lines += 1;
            }
        }
        eprint!("{out}");
        drawn = lines;
    }
}

/// Fold a grid's failure modes into one final stderr line — the streamed
/// per-run warnings above it can be thousands of lines on a big grid.
fn failure_summary(report: &SweepReport) {
    if report.failures.is_empty() {
        return;
    }
    let invalid = report.failures.len() - report.panicked - report.skipped;
    eprintln!(
        "{} of {} runs failed: {} panicked, {} invalid, {} budget-skipped",
        report.failures.len(),
        report.runs,
        report.panicked,
        invalid,
        report.skipped,
    );
}

/// Write a sweep/mega report's worker lanes as a Chrome-trace JSON file
/// (load in Perfetto or `chrome://tracing`): one lane per worker holding
/// its per-cell "run N" spans, with in-run phase spans nested inside by
/// time containment when the sweep ran with `--timeline`.
fn write_grid_timeline(path: &str, report: &SweepReport, process: &str) {
    let mut tl = TimelineBuilder::new();
    tl.process_name(1, process);
    for w in &report.workers {
        tl.thread_name(1, w.worker as u32 + 1, &format!("worker {}", w.worker));
    }
    for s in &report.worker_spans {
        let name = if s.ok {
            format!("run {}", s.index)
        } else {
            format!("run {} (failed)", s.index)
        };
        tl.complete(
            1,
            s.worker as u32 + 1,
            &name,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
        );
    }
    for (worker, spans) in &report.run_spans {
        tl.phase_spans(1, *worker as u32 + 1, 0, spans);
    }
    let events = tl.len();
    match std::fs::write(path, tl.render()) {
        Ok(()) => eprintln!("wrote {path} ({events} trace events)"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

fn fmt_eta(secs: f64) -> String {
    let s = secs.round() as u64;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

/// Render a health summary for a Markdown table cell.
fn health_cell(h: Option<selective_preemption::telemetry::HealthSummary>) -> String {
    match h {
        None => "n/a".into(),
        Some(h) if h.is_clean() => "clean".into(),
        Some(h) => {
            let mut parts = Vec::new();
            if h.starvation_onsets > 0 {
                parts.push(format!("starvation ×{}", h.starvation_onsets));
            }
            if h.thrash_events > 0 {
                parts.push(format!("thrash ×{}", h.thrash_events));
            }
            parts.join(", ")
        }
    }
}

/// File-name slug of a scheme label (`SS sf=2.0` → `ss-sf-2.0`).
fn scheme_slug(label: &str) -> String {
    label.to_ascii_lowercase().replace([' ', '='], "-")
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage();
    }
    let command = argv.remove(0);
    match command.as_str() {
        "schedulers" => {
            outln!("fcfs        first-come-first-served, no backfilling");
            outln!("cons        conservative backfilling (reservation per job)");
            outln!("ns          EASY / aggressive backfilling (paper's No-Suspension)");
            outln!("flex:<d>    backfilling with reservations for the first <d> queued jobs");
            outln!("is          Immediate Service (Chiang & Vernon)");
            outln!("gang        time-sliced gang scheduling (10-min quantum)");
            outln!("ss:<sf>     Selective Suspension at suspension factor <sf>");
            outln!("tss:<sf>    Tunable Selective Suspension at factor <sf>");
        }
        "run" => {
            let args = parse_args(&command, argv);
            let system = args.system.unwrap_or_else(|| fail("--system required"));
            let configs = args.configs(system);
            if args.arrivals.is_some_and(|a| !a.is_trace()) {
                open_run(configs, &args);
                return;
            }
            let mut synth = SyntheticConfig::new(system, args.seed)
                .with_jobs(configs[0].n_jobs)
                .with_load_factor(args.load);
            if args.diurnal > 0.0 {
                synth = synth.with_diurnal(args.diurnal);
            }
            let mut jobs = synth.generate();
            args.estimates
                .unwrap_or_default()
                .apply(&mut jobs, args.seed.wrapping_add(1));
            outln!(
                "{}: {} jobs, load factor {:.2}, seed {}\n",
                system.name,
                jobs.len(),
                args.load,
                args.seed
            );
            report(jobs, &configs, &args);
        }
        "sweep" => {
            let args = parse_args(&command, argv);
            if args.scheds.is_empty() {
                fail("at least one --sched required");
            }
            let render: fn(&SweepReport) -> String = match args.format.as_deref() {
                None | Some("table") => SweepReport::render_table,
                Some("csv") => SweepReport::to_csv,
                Some("json") => |report| report.to_json().render() + "\n",
                Some(other) => fail(&format!(
                    "unknown sweep format {other:?} (table, csv, json)"
                )),
            };
            let threads = args.threads.map_or_else(default_threads, usize::from);
            let progress = args
                .progress
                .unwrap_or_else(|| std::io::stderr().is_terminal());
            let observe: Box<dyn FnMut(&SweepProgress)> = if args.top {
                Box::new(top_view())
            } else {
                Box::new(progress_line(progress))
            };
            let report = match &args.swf {
                // SWF grid: every run streams the log through a bounded
                // read-ahead ring and folds outcomes in-simulator, so
                // memory stays O(machine) however long the log is.
                Some(swf_path) => {
                    let spec = args.swf_spec(swf_path);
                    spec.validate().unwrap_or_else(|e| refuse(e));
                    // One counting pass refuses a bad log before any run.
                    eprintln!("{}", read_log(&spec, 1.0, drop));
                    eprintln!(
                        "{}: {} cells x {} reps = {} streaming runs on {} threads",
                        swf_path,
                        spec.cells(),
                        spec.reps,
                        spec.runs(),
                        threads,
                    );
                    run_mega_sweep_observed(&spec, threads, observe)
                }
                None => {
                    let system = args.system.unwrap_or_else(|| fail("--system required"));
                    let spec = args
                        .sweep_spec(system, args.scheds.clone())
                        .with_timeline(args.timeline.is_some());
                    spec.validate().unwrap_or_else(|e| refuse(e));
                    eprintln!(
                        "{}: {} cells x {} reps = {} runs of {} jobs on {} threads",
                        system.name,
                        spec.cells(),
                        spec.reps,
                        spec.runs(),
                        spec.base.n_jobs,
                        threads,
                    );
                    run_sweep_observed(&spec, threads, observe)
                }
            }
            .unwrap_or_else(|e| refuse(e));
            if progress && !args.top {
                eprintln!();
            }
            for failure in &report.failures {
                eprintln!("warning: {failure}");
            }
            failure_summary(&report);
            if let Some(path) = &args.timeline {
                write_grid_timeline(path, &report, "sps sweep");
            }
            let rendered = render(&report);
            match &args.out {
                Some(path) => {
                    std::fs::write(path, &rendered)
                        .unwrap_or_else(|e| fail_file(&format!("cannot write {path}: {e}")));
                    eprintln!("wrote {path}");
                }
                None => emit(format_args!("{rendered}")),
            }
            if !report.failures.is_empty() {
                std::process::exit(1);
            }
        }
        "report" => {
            let args = parse_args(&command, argv);
            let system = args
                .system
                .unwrap_or(selective_preemption::workload::traces::SDSC);
            let sf = args.sf.unwrap_or(2.0);
            let scheds = if args.scheds.is_empty() {
                // The paper's headline comparison: the NS baseline
                // against both selective-suspension variants.
                vec![
                    SchedulerKind::Easy,
                    SchedulerKind::Ss { sf },
                    SchedulerKind::Tss { sf },
                ]
            } else {
                args.scheds.clone()
            };
            // One shared trace: the job list is scheduler-independent.
            let jobs = args.checked_config(system, scheds[0]).trace();

            let mut outs = Vec::with_capacity(scheds.len());
            for &kind in &scheds {
                let mut tel = Telemetry::new();
                let sim = args
                    .config(system, kind)
                    .runner()
                    .source(Box::new(TraceSource::new(jobs.clone())))
                    .telemetry(&mut tel)
                    .simulate();
                let rep = CategoryReport::from_outcomes(&sim.outcomes);
                outs.push((kind, sim, rep, tel));
            }

            let mut md = String::new();
            let w = &mut md;
            let _ = writeln!(w, "# sps report — {}", system.name);
            let _ = writeln!(w);
            let _ = writeln!(
                w,
                "- workload: {} jobs on {} procs, load factor {:.2}, seed {}",
                jobs.len(),
                system.procs,
                args.load,
                args.seed
            );
            let _ = writeln!(
                w,
                "- estimates: {:?}; overhead: {:?}",
                args.estimates.unwrap_or_default(),
                args.overhead
            );
            if let Some(mtbf) = args.mtbf {
                let _ = writeln!(
                    w,
                    "- faults: per-processor MTBF {mtbf} s, MTTR {} s",
                    args.mttr.unwrap_or(1_800)
                );
            }
            if args.preemption().checkpoints() {
                let ckpt = args.checkpoint();
                let _ = writeln!(
                    w,
                    "- preemption: {} (checkpoint every {} s at {} MB/s per proc{})",
                    args.preemption(),
                    ckpt.interval,
                    ckpt.mb_per_sec,
                    if ckpt.contention { ", contended" } else { "" },
                );
            }
            let _ = writeln!(w);

            let _ = writeln!(w, "## Schemes");
            let _ = writeln!(w);
            let _ = writeln!(
                w,
                "| scheme | mean slowdown | worst slowdown | mean turnaround (s) \
                 | utilization | preemptions | rejected | penalty | health |"
            );
            let _ = writeln!(w, "|---|---:|---:|---:|---:|---:|---:|---:|---|");
            for (kind, sim, rep, _) in &outs {
                let _ = writeln!(
                    w,
                    "| {} | {:.2} | {:.1} | {:.0} | {:.1}% | {} | {} | {} | {} |",
                    kind.label(),
                    rep.overall.mean_slowdown,
                    rep.overall.worst_slowdown,
                    rep.overall.mean_turnaround,
                    sim.utilization * 100.0,
                    sim.preemptions,
                    sim.rejections.rejected,
                    if sim.rejections.any() {
                        format!("{:.3e}", sim.rejections.penalty)
                    } else {
                        "0".into()
                    },
                    health_cell(sim.health),
                );
            }
            let _ = writeln!(w);

            let _ = writeln!(w, "## Kernel");
            let _ = writeln!(w);
            let _ = writeln!(
                w,
                "| scheme | events | decides | wall (ms) | events/s | decide p50 | decide p99 |"
            );
            let _ = writeln!(w, "|---|---:|---:|---:|---:|---:|---:|");
            for (kind, sim, _, tel) in &outs {
                let reg = tel.registry();
                let lat = tel.metrics().decide_latency_ns;
                let q = |q: f64| match reg.hist_quantile(lat, q) {
                    Some(ns) if ns >= 1e6 => format!("{:.1} ms", ns / 1e6),
                    Some(ns) if ns >= 1e3 => format!("{:.1} µs", ns / 1e3),
                    Some(ns) => format!("{ns:.0} ns"),
                    None => "n/a".into(),
                };
                let _ = writeln!(
                    w,
                    "| {} | {} | {} | {:.1} | {} | {} | {} |",
                    kind.label(),
                    sim.kernel.events,
                    sim.kernel.decide_calls,
                    sim.kernel.wall_micros as f64 / 1e3,
                    match sim.kernel.events_per_sec() {
                        Some(rate) => format!("{:.0}k", rate / 1e3),
                        None => "n/a".into(),
                    },
                    q(0.5),
                    q(0.99),
                );
            }
            let _ = writeln!(w);

            let _ = writeln!(w, "## Per-category slowdown");
            let _ = writeln!(w);
            let mean_named: Vec<(String, [f64; 16])> = outs
                .iter()
                .map(|(kind, _, rep, _)| (kind.label(), rep.mean_slowdown_grid()))
                .collect();
            let named: Vec<(&str, [f64; 16])> =
                mean_named.iter().map(|(n, g)| (n.as_str(), *g)).collect();
            let _ = writeln!(
                w,
                "```text\n{}```",
                render_comparison("average slowdown per category", &named)
            );
            let worst_named: Vec<(String, [f64; 16])> = outs
                .iter()
                .map(|(kind, _, rep, _)| (kind.label(), rep.worst_slowdown_grid()))
                .collect();
            let named: Vec<(&str, [f64; 16])> =
                worst_named.iter().map(|(n, g)| (n.as_str(), *g)).collect();
            let _ = writeln!(
                w,
                "```text\n{}```",
                render_comparison("worst-case slowdown per category", &named)
            );
            let _ = writeln!(w);

            let _ = writeln!(w, "## Decide latency");
            let _ = writeln!(w);
            for (kind, _, _, tel) in &outs {
                let _ = writeln!(w, "### {}", kind.label());
                let _ = writeln!(w);
                let _ = writeln!(
                    w,
                    "```text\n{}```",
                    tel.registry()
                        .render_hist(tel.metrics().decide_latency_ns, "ns")
                );
            }
            let _ = writeln!(w);

            let _ = writeln!(w, "## Health");
            let _ = writeln!(w);
            for (kind, _, _, tel) in &outs {
                let _ = writeln!(w, "### {}", kind.label());
                let _ = writeln!(w);
                let _ = writeln!(w, "```text\n{}```", tel.health_report().render());
            }

            if args.loads.is_some() {
                let spec = args.sweep_spec(system, scheds.clone()).with_telemetry(true);
                let threads = args.threads.map_or_else(default_threads, usize::from);
                let progress = args
                    .progress
                    .unwrap_or_else(|| std::io::stderr().is_terminal());
                let sweep = run_sweep_observed(&spec, threads, progress_line(progress))
                    .unwrap_or_else(|e| fail(&e.to_string()));
                if progress {
                    eprintln!();
                }
                for failure in &sweep.failures {
                    eprintln!("warning: {failure}");
                }
                let _ = writeln!(w, "## Load sweep ({} reps per cell)", spec.reps);
                let _ = writeln!(w);
                let _ = writeln!(
                    w,
                    "| scheme | load | mean slowdown | p99 slowdown | utilization | preemptions | rejected | health |"
                );
                let _ = writeln!(w, "|---|---:|---:|---:|---:|---:|---:|---|");
                for c in &sweep.cells {
                    let _ = writeln!(
                        w,
                        "| {} | {:.2} | {} | {} | {:.1}% | {:.0} | {:.1} | {} |",
                        c.scheduler,
                        c.load_factor,
                        c.mean_slowdown,
                        c.p99_slowdown,
                        c.utilization_pct.mean,
                        c.preemptions.mean,
                        c.rejected.mean,
                        health_cell(c.health),
                    );
                }
                let _ = writeln!(w);
            }

            if let Some(prefix) = &args.prom {
                for (kind, _, _, tel) in &outs {
                    let slug = scheme_slug(&kind.label());
                    let prom_path = format!("{prefix}.{slug}.prom");
                    std::fs::write(&prom_path, tel.render_prom())
                        .unwrap_or_else(|e| fail_file(&format!("cannot write {prom_path}: {e}")));
                    let json_path = format!("{prefix}.{slug}.json");
                    let mut body = tel.snapshot_json().render();
                    body.push('\n');
                    std::fs::write(&json_path, body)
                        .unwrap_or_else(|e| fail_file(&format!("cannot write {json_path}: {e}")));
                    eprintln!("wrote {prom_path} and {json_path}");
                }
            }

            match &args.out {
                Some(path) => {
                    std::fs::write(path, &md)
                        .unwrap_or_else(|e| fail_file(&format!("cannot write {path}: {e}")));
                    eprintln!("wrote {path}");
                }
                None => emit(format_args!("{md}")),
            }
        }
        "replay" => {
            let args = parse_args(&command, argv);
            let path = args.swf.clone().unwrap_or_else(|| fail("--swf required"));
            let procs = args.procs.unwrap_or_else(|| fail("--procs required"));
            let configs = args.configs(SystemPreset::swf(procs));
            let mut jobs = Vec::new();
            let counts = read_log(&args.log_spec(&path, procs), args.load, |j| jobs.push(j));
            outln!("{counts}\n");
            report(jobs, &configs, &args);
        }
        "trace" => {
            let args = parse_args(&command, argv);
            let system = args.system.unwrap_or_else(|| fail("--system required"));
            if args.scheds.len() != 1 {
                fail("trace needs exactly one --sched");
            }
            let out = args
                .out
                .clone()
                .unwrap_or_else(|| fail("--out FILE required"));
            let cfg = args.checked_config(system, args.scheds[0]);
            let io_fail =
                |e: std::io::Error| -> ! { fail_file(&format!("cannot write {out}: {e}")) };
            let result = match args.format.as_deref().unwrap_or("jsonl") {
                "jsonl" => {
                    let mut sink = JsonlSink::create(&out).unwrap_or_else(|e| io_fail(e));
                    let r = cfg.runner().trace_sink(&mut sink).run();
                    sink.finish().unwrap_or_else(|e| io_fail(e));
                    r
                }
                "csv" => {
                    let mut sink = CsvSink::create(&out).unwrap_or_else(|e| io_fail(e));
                    let r = cfg.runner().trace_sink(&mut sink).run();
                    sink.finish().unwrap_or_else(|e| io_fail(e));
                    r
                }
                other => fail(&format!("unknown trace format {other:?} (jsonl, csv)")),
            };
            outln!(
                "{}: traced {} jobs under {} to {out}  (slowdown {:.2}, preemptions {})",
                system.name,
                result.report.overall.count,
                cfg.scheduler,
                result.report.overall.mean_slowdown,
                result.sim.preemptions,
            );
        }
        "validate" => {
            let mut path = None;
            let mut opts = ReplayOptions::default();
            for arg in argv {
                match arg.as_str() {
                    "--allow-migration" => opts.allow_migration = true,
                    flag if flag.starts_with("--") => fail(&format!("unknown flag {flag:?}")),
                    p => {
                        if path.replace(p.to_string()).is_some() {
                            fail("validate takes exactly one FILE");
                        }
                    }
                }
            }
            let path = path.unwrap_or_else(|| fail("validate needs a trace FILE"));
            let file = std::fs::File::open(&path)
                .unwrap_or_else(|e| fail_file(&format!("cannot read {path}: {e}")));
            match validate_jsonl(std::io::BufReader::new(file), opts) {
                Ok(stats) => {
                    let faults = if stats.proc_failures > 0 || stats.kills > 0 {
                        format!(
                            ", {} failures/{} repairs/{} kills",
                            stats.proc_failures, stats.proc_repairs, stats.kills
                        )
                    } else {
                        String::new()
                    };
                    outln!(
                        "{path}: OK — {} records, {} arrivals, {} completions, {} suspensions, \
                         {} decisions, peak {} procs{faults}{}",
                        stats.records,
                        stats.arrivals,
                        stats.completions,
                        stats.suspensions,
                        stats.decisions,
                        stats.peak_occupied,
                        if stats.has_header { "" } else { " (no header)" },
                    );
                }
                Err(violations) => {
                    eprintln!("{path}: INVALID — {} violation(s)", violations.len());
                    for v in &violations {
                        eprintln!("  {v}");
                    }
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}
