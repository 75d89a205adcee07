//! Decide-throughput microbench for the scheduling kernel.
//!
//! Drives the high-load SS/TSS sweeps (the workloads where per-decide
//! cost grows with active-job count) and reports, per case:
//!
//! * kernel events/sec — total engine events over the wall time of the
//!   whole run (the headline number for the incremental-kernel work),
//! * per-`decide()` latency percentiles, measured by wrapping the policy
//!   in a timing decorator so only scheduler decision time is counted.
//!
//! Each case also prints a machine-readable `JSON {...}` line; the
//! before/after numbers live in `BENCH_kernel.json` at the repo root.
//!
//! Flags: `--smoke` runs one sample per case (CI keeps the path alive),
//! `--quick` three; a bare argument is a substring filter. `--guard`
//! compares each case's events/sec against the **best** entry recorded
//! in `BENCH_kernel.json` — the max over the `after` block and the
//! case's dated `history` array — and exits non-zero below 50% of that
//! baseline: a coarse CI tripwire for "telemetry (or anything else)
//! made the default-disabled hot path slow", deliberately loose enough
//! to survive shared-runner noise. Every guarded full run also *appends*
//! a dated entry, with the host core count, to each measured case's
//! `history` (regressions included, so the trajectory is honest; the
//! max-baseline rule means a recorded regression never ratchets the gate
//! down). A guarded `--smoke` run gates the same way but records
//! nothing: a one-sample entry would only raise later floors on a lucky
//! sample, and CI's run of the check would rewrite the tracked file.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use sps_bench::history;
use sps_core::experiment::SchedulerKind;
use sps_core::overhead::OverheadModel;
use sps_core::policy::{Action, DecideCtx, Policy};
use sps_core::sim::{SimState, Simulator, DEFAULT_TICK_PERIOD};
use sps_metrics::JobOutcome;
use sps_trace::{MemorySink, TraceRecord};
use sps_workload::traces::{CTC, SDSC};
use sps_workload::{Job, SyntheticConfig, SystemPreset, TraceSource};

/// Forwarding decorator that records wall nanoseconds per `decide`.
///
/// Deliberately does NOT forward `quiescent_noop`, so the decorated
/// policy keeps the default `false` and the simulator never elides idle
/// ticks in timed runs: every decide the wrapped policy would have been
/// asked for is still timed, keeping these numbers comparable across
/// kernels with and without elision.
struct Timed {
    inner: Box<dyn Policy>,
    ns: Rc<RefCell<Vec<u64>>>,
}

impl Policy for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn needs_tick(&self) -> bool {
        self.inner.needs_tick()
    }

    fn decide(&mut self, state: &SimState, ctx: &DecideCtx<'_>, actions: &mut Vec<Action>) {
        let t0 = Instant::now();
        self.inner.decide(state, ctx, actions);
        self.ns.borrow_mut().push(t0.elapsed().as_nanos() as u64);
    }

    fn on_completion(&mut self, outcome: &JobOutcome) {
        self.inner.on_completion(outcome);
    }
}

struct Case {
    label: &'static str,
    system: SystemPreset,
    spec: &'static str,
    jobs: usize,
    load: f64,
}

/// The high-load sweep points: the preemption-heavy 128-proc SDSC mix
/// under SS/TSS (many concurrent suspended/draining jobs), the NS
/// backfilling baseline for contrast, and one CTC-scale SS case.
fn cases() -> Vec<Case> {
    let c = |label, system, spec, jobs, load| Case {
        label,
        system,
        spec,
        jobs,
        load,
    };
    vec![
        c("sdsc_ss2_hiload", SDSC, "ss:2", 3_000, 1.4),
        c("sdsc_tss2_hiload", SDSC, "tss:2", 3_000, 1.4),
        c("sdsc_ns_hiload", SDSC, "ns", 3_000, 1.4),
        c("ctc_ss2_hiload", CTC, "ss:2", 2_000, 1.3),
    ]
}

fn trace(case: &Case) -> Vec<Job> {
    SyntheticConfig::new(case.system, 42)
        .with_jobs(case.jobs)
        .with_load_factor(case.load)
        .generate()
}

/// Exact engine event/batch counts for one case, from the traced
/// `EngineStats` record (behavior is deterministic, so one traced run
/// pins the counts for every timed run of the same case).
fn engine_counts(case: &Case, kind: SchedulerKind, jobs: &[Job]) -> (u64, u64) {
    let mut sink = MemorySink::new();
    Simulator::traced_source(
        Box::new(TraceSource::new(jobs.to_vec())),
        case.system.procs,
        kind.build(),
        OverheadModel::None,
        DEFAULT_TICK_PERIOD,
        &mut sink,
    )
    .run();
    for r in sink.records() {
        if let TraceRecord::EngineStats {
            batches, events, ..
        } = r
        {
            return (*events, *batches);
        }
    }
    panic!("traced run emits EngineStats");
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx] as f64 / 1e3
}

/// Path of the kernel bench report at the workspace root.
const REPORT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json");

/// The parsed `BENCH_kernel.json`; the guard baseline per case is the
/// best events/sec it records (see [`history::best_metric`]).
fn load_report() -> sps_trace::Json {
    history::load(REPORT).unwrap_or_else(|| panic!("--guard needs a parseable {REPORT}"))
}

/// Fraction of the recorded baseline a case must reach under `--guard`.
/// Deliberately generous: the guard exists to catch a structural
/// regression (an always-on telemetry branch, a lost fast path), not to
/// police machine-to-machine variance.
const GUARD_FLOOR: f64 = 0.5;

fn main() {
    let mut samples = 7usize;
    let mut filter = None;
    let mut guard = false;
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => {
                samples = 1;
                smoke = true;
            }
            "--quick" => samples = 3,
            "--guard" => guard = true,
            "--bench" | "--test" => {}
            s if s.starts_with("--") => {}
            s => filter = Some(s.to_string()),
        }
    }
    let mut report = guard.then(load_report);
    let mut violations: Vec<String> = Vec::new();
    let date = history::today();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    for case in cases() {
        let full = format!("decide_throughput/{}", case.label);
        if let Some(f) = &filter {
            if !full.contains(f.as_str()) {
                continue;
            }
        }
        let kind: SchedulerKind = case.spec.parse().expect("bench spec parses");
        let jobs = trace(&case);
        let (events, decides) = engine_counts(&case, kind, &jobs);

        let ns = Rc::new(RefCell::new(Vec::new()));
        let mut walls = Vec::with_capacity(samples);
        for _ in 0..samples {
            let policy = Box::new(Timed {
                inner: kind.build(),
                ns: Rc::clone(&ns),
            });
            let sim = Simulator::new(jobs.clone(), case.system.procs, policy);
            let t0 = Instant::now();
            let res = sim.run();
            walls.push(t0.elapsed().as_secs_f64());
            std::hint::black_box(res.preemptions);
        }
        walls.sort_by(f64::total_cmp);
        let wall = walls[walls.len() / 2];
        let events_per_sec = events as f64 / wall;

        let mut decide_ns = ns.borrow().clone();
        decide_ns.sort_unstable();
        let (p50, p90, p99) = (
            percentile(&decide_ns, 0.50),
            percentile(&decide_ns, 0.90),
            percentile(&decide_ns, 0.99),
        );
        let max = decide_ns.last().copied().unwrap_or(0) as f64 / 1e3;

        println!(
            "{full:<44} {:>9.0} events/s   wall {:>8.3} ms   decide µs p50 {p50:.1} p90 {p90:.1} p99 {p99:.1} max {max:.1}",
            events_per_sec,
            wall * 1e3,
        );
        println!(
            "JSON {{\"case\":\"{}\",\"events\":{events},\"decides\":{decides},\"wall_ms\":{:.3},\"events_per_sec\":{:.0},\"decide_us\":{{\"p50\":{p50:.2},\"p90\":{p90:.2},\"p99\":{p99:.2},\"max\":{max:.1}}}}}",
            case.label,
            wall * 1e3,
            events_per_sec,
        );
        if let Some(doc) = &mut report {
            match history::best_metric(doc, case.label, "events_per_sec") {
                Some(base) => {
                    let floor = base * GUARD_FLOOR;
                    let pct = events_per_sec / base * 100.0;
                    println!(
                        "guard {:<30} {:>6.1}% of best prior ({:.0} vs {:.0} events/s, floor {:.0})",
                        case.label, pct, events_per_sec, base, floor
                    );
                    if events_per_sec < floor {
                        violations.push(format!(
                            "{}: {:.0} events/s is below {:.0} ({}% of the best prior {:.0})",
                            case.label,
                            events_per_sec,
                            floor,
                            (GUARD_FLOOR * 100.0) as u32,
                            base
                        ));
                    }
                }
                None => {
                    violations.push(format!("{}: no baseline in BENCH_kernel.json", case.label))
                }
            }
            if smoke {
                continue;
            }
            let entry = history::obj(vec![
                ("date", sps_trace::Json::Str(date.clone())),
                ("host_cores", sps_trace::Json::Int(host_cores as i64)),
                ("events_per_sec", sps_trace::Json::Num(events_per_sec)),
                ("wall_ms", sps_trace::Json::Num(wall * 1e3)),
                (
                    "decide_us",
                    history::obj(vec![
                        ("p50", sps_trace::Json::Num(p50)),
                        ("p90", sps_trace::Json::Num(p90)),
                        ("p99", sps_trace::Json::Num(p99)),
                    ]),
                ),
            ]);
            if !history::append_entry(doc, case.label, entry) {
                eprintln!(
                    "warning: {} has no case object in BENCH_kernel.json; not recorded",
                    case.label
                );
            }
        }
    }
    if let Some(doc) = &report {
        // Record a full run — regressions too — before the gate can exit.
        if smoke {
            eprintln!("smoke run: {REPORT} left as it was");
        } else {
            match history::store(REPORT, doc) {
                Ok(()) => eprintln!("appended dated history entries to {REPORT}"),
                Err(e) => eprintln!("warning: cannot write {REPORT}: {e}"),
            }
        }
        if violations.is_empty() {
            println!(
                "guard OK: every case within {}% of its best prior entry",
                (GUARD_FLOOR * 100.0) as u32
            );
        } else {
            for v in &violations {
                eprintln!("guard FAIL: {v}");
            }
            std::process::exit(1);
        }
    }
}
