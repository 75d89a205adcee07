//! Open-system mode: the `JobSource` boundary must not change closed-system
//! behavior, and the open generators must be seed-deterministic.
//!
//! Part one replays the twelve golden cases from `tests/common/mod.rs`
//! through `RunBuilder` — jobs wrapped in a `TraceSource` — and demands
//! bit-identical hashes against the *same* pre-refactor golden file the
//! kernel constructor is pinned to. If the builder's assembly reorders
//! even one trace record, this fails.
//!
//! Part two pins the generators themselves: Poisson and MMPP runs with a
//! fixed seed must reproduce exactly, run-to-run and across batch thread
//! counts (the scheduler fleet shares nothing but the config).

mod common;

use common::{cases, fold_hash, load_goldens, Case};
use selective_preemption::prelude::*;

/// Run one golden case through `TraceSource` + `RunBuilder` and fold the
/// same observables as `golden_determinism.rs`. The JSONL is hashed after
/// its first line, the config header, because the goldens were captured
/// without that record.
fn run_case_via_builder(c: &Case) -> u64 {
    let kind: SchedulerKind = c.spec.parse().expect("golden spec parses");
    let cfg = ExperimentConfig::new(c.system, kind)
        .with_jobs(c.jobs)
        .with_seed(c.seed)
        .with_overhead(c.overhead);
    let jobs = SyntheticConfig::new(c.system, c.seed)
        .with_jobs(c.jobs)
        .generate();
    let mut sink = JsonlSink::new(Vec::<u8>::new());
    let result = cfg
        .runner()
        .trace_sink(&mut sink)
        .source(Box::new(TraceSource::new(jobs)))
        .simulate();
    let bytes = sink.finish().expect("in-memory sink never fails");
    let body = bytes
        .iter()
        .position(|&b| b == b'\n')
        .expect("the header is a whole line");
    fold_hash(&bytes[body + 1..], &result)
}

#[test]
fn builder_source_path_matches_golden_hashes() {
    let goldens = load_goldens();
    let mut failures = Vec::new();
    for c in &cases() {
        let expect = goldens
            .iter()
            .find(|(l, _)| l == c.label)
            .unwrap_or_else(|| panic!("no golden for {}", c.label))
            .1;
        let got = run_case_via_builder(c);
        if got != expect {
            failures.push(format!(
                "{}: got {:016x}, golden {:016x}",
                c.label, got, expect
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "TraceSource+RunBuilder path diverged from the goldens:\n{}",
        failures.join("\n")
    );
}

const THREE_DAYS: RunUntil = RunUntil::SimTime(SimTime::new(3 * 86_400));
const HALF_DAY: i64 = 43_200;

/// The configs the determinism tests sweep: paper-headline schemes under
/// each open generator, capped at a few simulated days so the suite stays
/// fast while still crossing thousands of arrivals.
fn open_configs(arrivals: ArrivalSpec) -> Vec<ExperimentConfig> {
    use sps_workload::traces::SDSC;
    ["ns", "ss:2", "tss:2"]
        .iter()
        .map(|spec| {
            ExperimentConfig::new(SDSC, spec.parse().expect("spec parses"))
                .with_seed(23)
                .with_arrivals(arrivals)
                .with_until(THREE_DAYS)
                .with_warmup(HALF_DAY)
        })
        .collect()
}

/// Hash everything observable about one open run.
fn open_hash(r: &selective_preemption::core::experiment::RunResult) -> u64 {
    let mut h = common::Fnv::new();
    h.write_u64(fold_hash(&[], &r.sim));
    h.write_u64(r.sim.rejections.rejected);
    h.write_u64(r.sim.rejections.penalty.to_bits());
    h.write_u64(r.report.overall.mean_slowdown.to_bits());
    if let Some(w) = &r.sim.windowed {
        h.write_u64(w.completed as u64);
        h.write_u64(w.mean_slowdown.to_bits());
        h.write_u64(w.utilization.to_bits());
    }
    h.0
}

/// Run the scheme fleet under `arrivals` on `threads` worker threads.
fn open_batch(arrivals: ArrivalSpec, threads: usize) -> Vec<u64> {
    BatchRunner::new(open_configs(arrivals))
        .threads(threads)
        .run()
        .iter()
        .map(open_hash)
        .collect()
}

#[test]
fn poisson_runs_are_seed_deterministic_across_threads() {
    let arrivals = ArrivalSpec::Poisson { load: Some(0.9) };
    let one = open_batch(arrivals, 1);
    let four = open_batch(arrivals, 4);
    assert_eq!(
        one, four,
        "Poisson open runs changed with batch thread count"
    );
    assert_eq!(one, open_batch(arrivals, 1), "Poisson rerun diverged");
}

#[test]
fn mmpp_runs_are_seed_deterministic_across_threads() {
    let arrivals = ArrivalSpec::Mmpp {
        load: Some(0.8),
        burst: 3.0,
        dwell: 4 * 3_600,
    };
    let one = open_batch(arrivals, 1);
    let four = open_batch(arrivals, 4);
    assert_eq!(one, four, "MMPP open runs changed with batch thread count");
    assert_eq!(one, open_batch(arrivals, 1), "MMPP rerun diverged");
}

/// A warmed-up open run reports a steady-state window that excludes the
/// ramp-in: the window starts at the warmup boundary and only counts jobs
/// submitted inside it.
#[test]
fn warmup_window_excludes_ramp_in() {
    use sps_workload::traces::SDSC;
    let cfg = ExperimentConfig::new(SDSC, SchedulerKind::Easy)
        .with_seed(5)
        .with_arrivals(ArrivalSpec::Poisson { load: Some(0.8) })
        .with_until(THREE_DAYS)
        .with_warmup(HALF_DAY);
    let res = cfg.run();
    let w = res.sim.windowed.as_ref().expect("warmup produces a window");
    assert_eq!(w.start, SimTime::new(HALF_DAY));
    assert!(w.end >= w.start);
    assert!(
        w.completed < res.sim.outcomes.len(),
        "window should exclude the jobs submitted during warmup"
    );
    let inside = res
        .sim
        .outcomes
        .iter()
        .filter(|o| o.submit >= SimTime::new(HALF_DAY))
        .count();
    assert!(
        w.completed <= inside,
        "windowed count must not exceed jobs submitted in the window"
    );
}
