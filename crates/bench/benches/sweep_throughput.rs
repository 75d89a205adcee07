//! Sweep-engine throughput: the declarative replicated-sweep harness
//! against the naive batch path it replaced.
//!
//! Both sides run the same scheduler × load × seed grid and must produce
//! bit-identical per-cell statistics; only the machinery differs.
//!
//! * **before** — what a batch looked like pre-sweep-engine: every run
//!   regenerates its own trace, the simulator processes every idle tick
//!   (no quiescent elision, so no no-op horizon or certificate), and
//!   every run is folded into the full result record of the old batch
//!   path — a cloned config plus three per-category reports next to the
//!   raw `SimResult` — all retained until the end, when the batch is
//!   folded into cells.
//! * **after** — [`run_sweep`]: traces shared through the
//!   [`TraceCache`](sps_workload::TraceCache), idle ticks elided for
//!   policies that certify quiescent decides as no-ops, fast no-op
//!   checks active inside the decides, and each run folded to a
//!   fixed-size [`RunSummary`] as soon as it finishes.
//!
//! Both sides run on one spawned worker thread, so the ratio measures the
//! engine, not the scheduler's parallelism, nor which core the main thread
//! happens to sit on (with *before* on the main thread, a 2-core host whose
//! cores ran at different speeds swung the smoke ratio between 0.9x and
//! 2.7x from one process to the next). Peak RSS is read from `VmHWM` in
//! `/proc/self/status`; the *after* phase runs first so its high-water
//! mark is not polluted by the retained-results phase.
//!
//! Flags: `--smoke` runs a tiny grid and skips the report file; a full
//! run updates the `sdsc_paper_grid` case in `BENCH_sweep.json` at the
//! workspace root in place — other cases (e.g. the mega-sweep case) are
//! preserved, and a dated entry is appended to the case's `history`
//! array so the trajectory across PRs survives. `--guard` additionally
//! gates on the measured speedup staying within 50% of the best prior
//! recorded speedup (full runs) or simply ≥ 1.0 (smoke runs, whose tiny
//! grid is not comparable to the recorded full-grid numbers). A smoke grid
//! takes milliseconds per side, so a smoke run times each side as the
//! fastest of three alternating repetitions (after, before, after, before,
//! after, before); peak RSS still comes from the first repetition of each.

use std::time::Instant;

use sps_bench::history;
use sps_core::experiment::{ExperimentConfig, SchedulerKind};
use sps_core::sim::SimResult;
use sps_core::sweep::{run_sweep, CellStats, RunSummary, SweepSpec};
use sps_metrics::{CategoryReport, JobOutcome};
use sps_trace::Json;
use sps_workload::traces::SDSC;

/// Peak resident set size of this process so far, in kilobytes.
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// The paper-scale grid — the source paper's own sweep: the four
/// schedulers of its figures ({NS, SS, TSS, IS}) across five SF points
/// (SS and TSS carry the SF; NS and IS are its flat baselines), three
/// loads, five seed replications, 5000 jobs — 180 runs.
fn paper_grid() -> SweepSpec {
    let mut schedulers = vec![SchedulerKind::Easy, SchedulerKind::ImmediateService];
    for sf in [1.5, 2.0, 3.0, 5.0, 10.0] {
        schedulers.push(SchedulerKind::Ss { sf });
        schedulers.push(SchedulerKind::Tss { sf });
    }
    SweepSpec::new(SDSC)
        .with_schedulers(schedulers)
        .with_loads(vec![0.7, 0.85, 1.0])
        .with_jobs(5_000)
        .with_seed(42)
        .with_reps(5)
}

/// CI-sized grid: two schedulers, one load, two seeds, 400 jobs.
fn smoke_grid() -> SweepSpec {
    SweepSpec::new(SDSC)
        .with_schedulers(vec![SchedulerKind::Easy, SchedulerKind::Ss { sf: 2.0 }])
        .with_loads(vec![1.0])
        .with_jobs(400)
        .with_seed(42)
        .with_reps(2)
}

/// The old batch path's per-run record: cloned config, raw simulation
/// result, and the three eagerly-built per-category reports.
struct Retained {
    config: ExperimentConfig,
    sim: SimResult,
    #[allow(dead_code)]
    reports: [CategoryReport; 3],
}

/// The naive path: regenerate per run, simulate with idle-tick elision
/// off, build and retain the old full result record for every run until
/// the end, fold last.
fn run_before(spec: &SweepSpec) -> (Vec<CellStats>, u64) {
    let configs = spec.expand();
    let mut retained: Vec<Retained> = Vec::with_capacity(configs.len());
    let mut events = 0u64;
    for cfg in configs {
        let res = cfg.runner().build().with_tick_elision(false).run();
        events += res.kernel.events;
        let reports = [
            CategoryReport::from_outcomes(&res.outcomes),
            CategoryReport::from_filtered(&res.outcomes, JobOutcome::well_estimated),
            CategoryReport::from_filtered(&res.outcomes, |o| !o.well_estimated()),
        ];
        retained.push(Retained {
            config: cfg,
            sim: res,
            reports,
        });
    }
    let mut cells = Vec::with_capacity(spec.cells());
    let mut chunks = retained.chunks_exact(spec.reps);
    for &scheduler in &spec.schedulers {
        for &load in &spec.loads {
            let chunk = chunks.next().expect("cell-major expansion");
            let summaries: Vec<RunSummary> = chunk
                .iter()
                .map(|r| RunSummary::fold(&r.config, &r.sim))
                .collect();
            cells.push(CellStats::from_summaries(scheduler, load, &summaries, 0));
        }
    }
    (cells, events)
}

/// [`run_before`] on a spawned thread, as [`run_sweep`] runs its worker.
fn run_before_on_worker(spec: &SweepSpec) -> (Vec<CellStats>, u64) {
    std::thread::scope(|scope| {
        scope
            .spawn(|| run_before(spec))
            .join()
            .expect("the before path must not panic")
    })
}

/// Path of the sweep bench report at the workspace root.
const REPORT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");

/// Fraction of the best prior speedup a full guarded run must reach.
const GUARD_FLOOR: f64 = 0.5;

/// Timed repetitions per side in a smoke run; each side keeps its fastest.
const SMOKE_REPS: usize = 3;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke" || a == "--quick");
    let guard = std::env::args().any(|a| a == "--guard");
    let spec = if smoke { smoke_grid() } else { paper_grid() };
    eprintln!(
        "sweep_throughput: {} cells x {} reps = {} runs of {} jobs{}",
        spec.cells(),
        spec.reps,
        spec.runs(),
        spec.base.n_jobs,
        if smoke { " (smoke)" } else { "" },
    );

    // After first, so its VmHWM reading is its own.
    let t0 = Instant::now();
    let report = run_sweep(&spec, 1).expect("valid spec");
    let mut after_wall = t0.elapsed();
    let after_rss_kb = vm_hwm_kb();
    assert!(report.failures.is_empty(), "sweep runs must not fail");

    let t1 = Instant::now();
    let (before_cells, before_events) = run_before_on_worker(&spec);
    let mut before_wall = t1.elapsed();
    let before_rss_kb = vm_hwm_kb();

    if smoke {
        for _ in 1..SMOKE_REPS {
            let t = Instant::now();
            run_sweep(&spec, 1).expect("valid spec");
            after_wall = after_wall.min(t.elapsed());
            let t = Instant::now();
            run_before_on_worker(&spec);
            before_wall = before_wall.min(t.elapsed());
        }
    }

    // The tentpole's correctness bar: identical per-cell statistics.
    assert_eq!(
        report.cells.len(),
        before_cells.len(),
        "cell counts must match"
    );
    for (a, b) in report.cells.iter().zip(&before_cells) {
        assert_eq!(a, b, "per-cell statistics must be bit-identical");
    }

    let speedup = before_wall.as_secs_f64() / after_wall.as_secs_f64();
    println!(
        "before: {:>8.1} ms wall, {:>8} kB peak RSS, {} events",
        before_wall.as_secs_f64() * 1e3,
        before_rss_kb,
        before_events,
    );
    println!(
        "after:  {:>8.1} ms wall, {:>8} kB peak RSS, {} traces generated ({} cache hits)",
        after_wall.as_secs_f64() * 1e3,
        after_rss_kb,
        report.unique_traces,
        report.trace_hits,
    );
    println!("speedup: {speedup:.2}x (identical cells: yes)");

    if smoke {
        if guard {
            // A smoke grid is not comparable to the recorded full-grid
            // numbers, so the gate only demands "not slower than naive".
            if speedup < 1.0 {
                eprintln!("guard FAIL: smoke speedup {speedup:.2}x is below 1.0x");
                std::process::exit(1);
            }
            println!("guard OK: smoke speedup {speedup:.2}x >= 1.0x");
        }
        return;
    }

    let date = history::today();
    let mut doc = history::load(REPORT).unwrap_or_else(|| {
        history::obj(vec![
            (
                "benchmark",
                Json::Str("sweep_throughput (crates/bench/benches/sweep_throughput.rs)".into()),
            ),
            ("cases", Json::Arr(Vec::new())),
        ])
    });
    // Baseline is read before this run's entry lands in the history.
    let baseline = history::best_metric(&doc, "sdsc_paper_grid", "speedup");
    let case = history::obj(vec![
        ("case", Json::Str("sdsc_paper_grid".into())),
        (
            "workload",
            Json::Str(
                "SDSC, {NS, IS, SS x 5 SF, TSS x 5 SF} x 3 loads x 5 seeds, 5000 jobs (180 runs)"
                    .into(),
            ),
        ),
        ("date", Json::Str(date.clone())),
        (
            "before",
            history::obj(vec![
                ("wall_ms", Json::Num(before_wall.as_secs_f64() * 1e3)),
                ("peak_rss_kb", Json::Int(before_rss_kb as i64)),
                ("events", Json::Int(before_events as i64)),
            ]),
        ),
        (
            "after",
            history::obj(vec![
                ("wall_ms", Json::Num(after_wall.as_secs_f64() * 1e3)),
                ("peak_rss_kb", Json::Int(after_rss_kb as i64)),
                ("unique_traces", Json::Int(report.unique_traces as i64)),
                ("trace_hits", Json::Int(report.trace_hits as i64)),
            ]),
        ),
        ("speedup", Json::Num(speedup)),
        ("identical_cells", Json::Bool(true)),
    ]);
    history::upsert_case(&mut doc, "sdsc_paper_grid", case);
    history::append_entry(
        &mut doc,
        "sdsc_paper_grid",
        history::obj(vec![
            ("date", Json::Str(date)),
            ("speedup", Json::Num(speedup)),
            ("wall_ms", Json::Num(after_wall.as_secs_f64() * 1e3)),
            ("peak_rss_kb", Json::Int(after_rss_kb as i64)),
        ]),
    );
    match history::store(REPORT, &doc) {
        Ok(()) => eprintln!("updated {REPORT} (dated history entry appended)"),
        Err(e) => eprintln!("warning: cannot write {REPORT}: {e}"),
    }
    if guard {
        match baseline {
            Some(base) => {
                let floor = base * GUARD_FLOOR;
                if speedup < floor {
                    eprintln!(
                        "guard FAIL: speedup {speedup:.2}x is below {floor:.2}x ({}% of the best prior {base:.2}x)",
                        (GUARD_FLOOR * 100.0) as u32
                    );
                    std::process::exit(1);
                }
                println!(
                    "guard OK: speedup {speedup:.2}x within {}% of the best prior {base:.2}x",
                    (GUARD_FLOOR * 100.0) as u32
                );
            }
            None => println!("guard OK: no prior speedup recorded; this run seeds the history"),
        }
    }
}
