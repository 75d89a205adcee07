//! One run path: every entry point that assembles a run from an
//! `ExperimentConfig` — `cfg.run()`, `cfg.runner()`, `BatchRunner` and
//! `run_sweep` — feeds the simulator from a `JobSource` through
//! `RunBuilder`, so a configuration means one simulation whichever door
//! it comes through.
//!
//! The fault case pins the one place two arrival paths could disagree
//! without any golden noticing: job-crash thresholds and processor
//! failure times come from the same fault RNG, so the order in which
//! arrivals are materialized decides which draws land where.

use selective_preemption::prelude::*;
use sps_workload::traces::SDSC;

fn faulty_config() -> ExperimentConfig {
    ExperimentConfig::new(SDSC, SchedulerKind::Ss { sf: 2.0 })
        .with_jobs(400)
        .with_seed(7)
        .with_faults(FaultModel::proc_faults(2_000_000, 1_800, 5).with_job_crash(0.05))
}

/// The summary with its wall-clock field cleared, rendered exactly:
/// `Debug` prints every float in its shortest round-tripping form, so
/// equal strings mean bit-identical fields.
fn exact(summary: &RunSummary) -> String {
    let mut s = summary.clone();
    s.wall_micros = 0;
    format!("{s:?}")
}

#[test]
fn every_entry_point_runs_the_same_simulation() {
    let cfg = faulty_config();
    let via_run = cfg.run();
    assert!(
        via_run.sim.faults.job_crashes > 0 && via_run.sim.faults.proc_failures > 0,
        "the case must draw both crash and failure times from the fault RNG"
    );
    let summary = RunSummary::from_result(&via_run);
    let via_runner = cfg.runner().run();
    assert_eq!(via_run.sim.outcomes, via_runner.sim.outcomes);
    let via_runner = RunSummary::from_result(&via_runner);
    let via_batch = BatchRunner::new(vec![cfg.clone()]).threads(1).run();
    let via_batch = RunSummary::from_result(&via_batch[0]);
    assert_eq!(exact(&summary), exact(&via_runner), "cfg.runner().run()");
    assert_eq!(exact(&summary), exact(&via_batch), "BatchRunner");

    let spec = SweepSpec::new(SDSC)
        .with_scheduler(cfg.scheduler)
        .with_jobs(cfg.n_jobs)
        .with_seed(cfg.seed)
        .with_faults(cfg.faults);
    let sweep = run_sweep(&spec, 1).expect("valid spec");
    assert!(sweep.failures.is_empty(), "{:?}", sweep.failures);
    assert_eq!(
        sweep.cells[0],
        CellStats::from_summaries(cfg.scheduler, cfg.load_factor, &[summary], 0),
        "run_sweep"
    );
}

#[test]
#[should_panic(expected = "needs a stopping condition")]
fn open_arrivals_without_a_stop_refuse_to_run() {
    let _ = faulty_config()
        .with_faults(FaultModel::none())
        .with_arrivals(ArrivalSpec::Poisson { load: None })
        .run();
}

#[test]
fn checked_run_reports_open_arrivals_without_a_stop_as_an_error() {
    let cfg = faulty_config()
        .with_faults(FaultModel::none())
        .with_arrivals(ArrivalSpec::Poisson { load: None });
    assert!(matches!(
        cfg.run_checked(),
        Err(ConfigError::BadArrivals(_))
    ));
}
