//! Archive-scale mega-sweep bench: a synthetic million-job SWF log swept
//! streaming + lean, with peak-RSS evidence and the grid's measured
//! thread scaling.
//!
//! The bench writes its log **chunk-wise** ([`swf::write_chunked`]) so
//! the generator never materializes the workload either, then:
//!
//! 1. runs one small (100k-job) single run and records the process's
//!    peak RSS — the "independent of job count" reference point,
//! 2. runs the full grid (SS+TSS × 3 loads × 5 seeds = 30 runs) through
//!    [`run_mega_sweep`] on one worker per core
//!    (`available_parallelism()`) and records wall clock and peak RSS
//!    again,
//! 3. runs the same grid on one worker; the headline speedup is the
//!    one-worker wall over the all-core wall, measured on the recording
//!    host, whose core count the report keeps beside it.
//!
//! A full run upserts the `mega_swf` case in `BENCH_sweep.json` and
//! appends a dated entry to its `history` array. `--smoke` (the CI step)
//! shrinks the log to 100k jobs and the grid to 2 runs on 8 threads, runs
//! the grid once, and does not touch the report's full-run case.
//!
//! `--guard` gates the run on its own throughput history: streamed
//! jobs/second must stay above half the best recorded value for the mode
//! (`mega_swf` full, `mega_swf_smoke` smoke). A missing baseline passes
//! and records the first entry, so the guard bootstraps itself on a
//! fresh report. `--timeline FILE` additionally runs the sweep with span
//! capture on and writes a Chrome-trace / Perfetto JSON timeline (one
//! lane per batch worker, per-cell spans with nested run-loop phases).

use std::path::PathBuf;
use std::time::Instant;

use sps_bench::history;
use sps_core::experiment::SchedulerKind;
use sps_core::{peak_rss_kb, run_mega_sweep, MegaSweepSpec};
use sps_trace::Json;
use sps_workload::traces::SDSC;
use sps_workload::{swf, EstimateModel};

const REPORT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");

/// Jobs per generator batch: bounds writer memory at ~50k parsed jobs.
const CHUNK: usize = 50_000;

fn grid(log: &PathBuf, smoke: bool) -> MegaSweepSpec {
    let spec = MegaSweepSpec::new(log, SDSC.procs)
        .with_schedulers(vec![
            SchedulerKind::Ss { sf: 2.0 },
            SchedulerKind::Tss { sf: 2.0 },
        ])
        .with_seed(42)
        .with_estimates(Some(EstimateModel::paper_mixture()));
    if smoke {
        spec.with_loads(vec![1.0]).with_reps(1)
    } else {
        spec.with_loads(vec![0.7, 0.85, 1.0]).with_reps(5)
    }
}

/// Fraction of the best recorded jobs/s a `--guard` run must reach.
const GUARD_FLOOR: f64 = 0.5;

fn main() {
    let mut smoke = false;
    let mut guard = false;
    let mut timeline: Option<String> = None;
    let mut jobs_override = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" | "--quick" => smoke = true,
            "--guard" => guard = true,
            "--timeline" => timeline = args.next(),
            "--jobs" => {
                jobs_override = args.next().and_then(|v| v.parse::<usize>().ok());
            }
            _ => {}
        }
    }
    let n_jobs = jobs_override.unwrap_or(if smoke { 100_000 } else { 1_000_000 });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if smoke { 8 } else { cores };

    let dir = std::env::temp_dir().join(format!("sps-mega-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let log = dir.join(format!("synth-{n_jobs}.swf"));

    let t = Instant::now();
    swf::write_chunked(&log, SDSC, 42, n_jobs, CHUNK).expect("write log");
    let gen_wall = t.elapsed().as_secs_f64();
    let log_mb = std::fs::metadata(&log)
        .map(|m| m.len() / (1 << 20))
        .unwrap_or(0);
    eprintln!(
        "generated {n_jobs}-job log ({log_mb} MB) in {gen_wall:.1} s at {}",
        log.display()
    );

    // Reference point: one small single run, so the 1M sweep's peak RSS
    // has a same-process 100k-job number to be compared against.
    let small = dir.join("synth-small.swf");
    swf::write_chunked(&small, SDSC, 43, 100_000.min(n_jobs), CHUNK).expect("write small log");
    let small_spec = MegaSweepSpec::new(&small, SDSC.procs)
        .with_scheduler(SchedulerKind::Ss { sf: 2.0 })
        .with_estimates(Some(EstimateModel::paper_mixture()));
    let t = Instant::now();
    let small_report = run_mega_sweep(&small_spec, 1).expect("valid small spec");
    assert!(
        small_report.failures.is_empty(),
        "{:?}",
        small_report.failures
    );
    let rss_after_small = peak_rss_kb().unwrap_or(0);
    eprintln!(
        "100k-job reference run: {:.1} s, peak RSS {} kB",
        t.elapsed().as_secs_f64(),
        rss_after_small
    );

    // The sweep itself, one worker per core (8 in the smoke).
    let spec = grid(&log, smoke).with_timeline(timeline.is_some());
    eprintln!(
        "mega sweep: {} cells x {} reps = {} runs of {n_jobs} jobs on {threads} threads",
        spec.cells(),
        spec.reps,
        spec.runs(),
    );
    let t = Instant::now();
    let report = run_mega_sweep(&spec, threads).expect("valid mega spec");
    let sweep_wall = t.elapsed().as_secs_f64();
    let rss_after_sweep = peak_rss_kb().unwrap_or(0);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.skipped, 0);
    println!("{}", report.render_table());
    println!(
        "sweep wall {sweep_wall:.1} s, peak RSS {rss_after_sweep} kB (100k-job reference {rss_after_small} kB)",
    );

    if let Some(path) = &timeline {
        let mut tl = sps_telemetry::TimelineBuilder::new();
        tl.process_name(1, "mega_sweep bench");
        for w in &report.workers {
            tl.thread_name(1, w.worker as u32 + 1, &format!("worker {}", w.worker));
        }
        for s in &report.worker_spans {
            tl.complete(
                1,
                s.worker as u32 + 1,
                &format!("run {}", s.index),
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

    if guard {
        // Gate on streamed jobs/second against the mode's own history —
        // smoke and full runs differ in log size, grid, and thread
        // count, so each keeps a separate case. A missing baseline
        // passes and records, bootstrapping a fresh report.
        let case_name = if smoke { "mega_swf_smoke" } else { "mega_swf" };
        let jobs_per_sec = n_jobs as f64 * report.runs as f64 / sweep_wall.max(1e-9);
        let mut doc = history::load(REPORT).unwrap_or_else(|| {
            history::obj(vec![
                (
                    "benchmark",
                    Json::Str("mega_sweep (crates/bench/benches/mega_sweep.rs)".into()),
                ),
                ("cases", Json::Arr(Vec::new())),
            ])
        });
        let violation = match history::best_metric(&doc, case_name, "jobs_per_sec") {
            Some(base) => {
                let floor = base * GUARD_FLOOR;
                println!(
                    "guard {case_name:<20} {:>6.1}% of best prior ({jobs_per_sec:.0} vs {base:.0} jobs/s, floor {floor:.0})",
                    jobs_per_sec / base * 100.0,
                );
                jobs_per_sec < floor
            }
            None => {
                println!(
                    "guard {case_name}: no jobs_per_sec baseline yet; recording {jobs_per_sec:.0} jobs/s as the first entry"
                );
                false
            }
        };
        if history::find_case(&doc, case_name).is_none() {
            history::upsert_case(
                &mut doc,
                case_name,
                history::obj(vec![("case", Json::Str(case_name.into()))]),
            );
        }
        history::append_entry(
            &mut doc,
            case_name,
            history::obj(vec![
                ("date", Json::Str(history::today())),
                ("jobs_per_sec", Json::Num(jobs_per_sec)),
                ("sweep_wall_s", Json::Num(sweep_wall)),
                ("jobs", Json::Int(n_jobs as i64)),
                ("threads", Json::Int(threads as i64)),
            ]),
        );
        // Record the run — regressions too — before the gate can exit.
        match history::store(REPORT, &doc) {
            Ok(()) => eprintln!("appended dated {case_name} history entry to {REPORT}"),
            Err(e) => eprintln!("warning: cannot write {REPORT}: {e}"),
        }
        if violation {
            eprintln!(
                "guard FAILED: {jobs_per_sec:.0} jobs/s is below {}% of the best prior",
                (GUARD_FLOOR * 100.0) as u32
            );
            let _ = std::fs::remove_dir_all(&dir);
            std::process::exit(1);
        }
    }

    if smoke {
        let _ = std::fs::remove_dir_all(&dir);
        println!("smoke OK: streaming mega sweep completed with no failures");
        return;
    }

    // The same grid on one worker: the measured scaling's baseline.
    let serial_wall = if threads > 1 {
        let t = Instant::now();
        let serial = run_mega_sweep(&grid(&log, smoke), 1).expect("valid mega spec");
        assert!(serial.failures.is_empty(), "{:?}", serial.failures);
        assert_eq!(
            serial.to_csv(),
            report.to_csv(),
            "cells depend on no worker count"
        );
        t.elapsed().as_secs_f64()
    } else {
        sweep_wall
    };
    let speedup = serial_wall / sweep_wall.max(1e-9);
    println!(
        "1 worker {serial_wall:.1} s, {threads} workers {sweep_wall:.1} s: {speedup:.2}x on {cores} cores"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let date = history::today();
    let mut doc = history::load(REPORT).unwrap_or_else(|| {
        history::obj(vec![
            (
                "benchmark",
                Json::Str("mega_sweep (crates/bench/benches/mega_sweep.rs)".into()),
            ),
            ("cases", Json::Arr(Vec::new())),
        ])
    });
    let case = history::obj(vec![
        ("case", Json::Str("mega_swf".into())),
        (
            "workload",
            Json::Str(format!(
                "chunk-generated {n_jobs}-job SWF log, SDSC machine, {{SS 2.0, TSS 2.0}} x 3 loads x 5 seeds ({} streaming lean runs)",
                report.runs
            )),
        ),
        ("date", Json::Str(date.clone())),
        (
            "notes",
            Json::Str(
                "Every run streams the log through its own bounded read-ahead ring and folds \
                 completions in-simulator (lean), so peak RSS is O(machine), not O(jobs). The \
                 speedup is measured: the grid's wall on one worker over its wall on one \
                 worker per core of the recording host."
                    .into(),
            ),
        ),
        (
            "after",
            history::obj(vec![
                ("jobs", Json::Int(n_jobs as i64)),
                ("runs", Json::Int(report.runs as i64)),
                ("gen_wall_s", Json::Num(gen_wall)),
                ("sweep_wall_s", Json::Num(sweep_wall)),
                ("peak_rss_kb", Json::Int(rss_after_sweep as i64)),
                ("peak_rss_kb_100k_reference", Json::Int(rss_after_small as i64)),
            ]),
        ),
        (
            "measured_workers",
            history::obj(vec![
                ("cores", Json::Int(cores as i64)),
                ("one_worker_s", Json::Num(serial_wall)),
                ("all_workers_s", Json::Num(sweep_wall)),
                ("speedup", Json::Num(speedup)),
            ]),
        ),
        ("speedup", Json::Num(speedup)),
    ]);
    history::upsert_case(&mut doc, "mega_swf", case);
    history::append_entry(
        &mut doc,
        "mega_swf",
        history::obj(vec![
            ("date", Json::Str(date)),
            ("speedup", Json::Num(speedup)),
            ("sweep_wall_s", Json::Num(sweep_wall)),
            ("one_worker_s", Json::Num(serial_wall)),
            ("cores", Json::Int(cores as i64)),
            ("peak_rss_kb", Json::Int(rss_after_sweep as i64)),
        ]),
    );
    match history::store(REPORT, &doc) {
        Ok(()) => eprintln!("updated {REPORT} (mega_swf case + dated history entry)"),
        Err(e) => eprintln!("warning: cannot write {REPORT}: {e}"),
    }
}
