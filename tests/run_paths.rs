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

/// The configurations every entry point must agree on: the fault case, a
/// closed system with every field off its default, and an open system
/// with a stopping condition and a warmup window. A sweep takes the
/// configuration whole as its base, so a field the sweep failed to pass
/// on to its runs would show up as a differing cell.
fn inputs() -> Vec<(&'static str, ExperimentConfig)> {
    let every_field = ExperimentConfig::new(SDSC, SchedulerKind::Tss { sf: 2.0 })
        .with_jobs(300)
        .with_seed(9)
        .with_load_factor(1.1)
        .with_estimates(EstimateModel::paper_mixture())
        .with_overhead(OverheadModel::paper())
        .with_tick_period(30)
        .with_faults(
            FaultModel::proc_faults(2_000_000, 1_800, 5)
                .with_job_crash(0.05)
                .with_recovery(RecoveryPolicy::Resubmit),
        )
        .with_preemption(PreemptionMode::Migrate)
        .with_checkpoint(CheckpointModel::paper().with_interval(1_800))
        .with_speed("tiers:0.5x64+1.0x64".parse().expect("speed spec parses"))
        .with_speed_aware(false)
        .with_admission("load:4h".parse().expect("admission spec parses"));
    let open = ExperimentConfig::new(SDSC, SchedulerKind::Ss { sf: 2.0 })
        .with_seed(5)
        .with_arrivals(ArrivalSpec::Poisson { load: Some(0.9) })
        .with_until(RunUntil::SimTime(SimTime::new(2 * 86_400)))
        .with_warmup(6 * 3_600);
    vec![
        ("faulty", faulty_config()),
        ("every field", every_field),
        ("open", open),
    ]
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
    for (name, cfg) in inputs() {
        let via_run = cfg.run();
        if name == "faulty" {
            assert!(
                via_run.sim.faults.job_crashes > 0 && via_run.sim.faults.proc_failures > 0,
                "the case must draw both crash and failure times from the fault RNG"
            );
        }
        let summary = RunSummary::from_result(&via_run);
        let via_runner = cfg.runner().run();
        assert_eq!(via_run.sim.outcomes, via_runner.sim.outcomes, "{name}");
        let via_runner = RunSummary::from_result(&via_runner);
        let via_batch = BatchRunner::new(vec![cfg.clone()]).threads(1).run();
        let via_batch = RunSummary::from_result(&via_batch[0]);
        assert_eq!(
            exact(&summary),
            exact(&via_runner),
            "{name}: cfg.runner().run()"
        );
        assert_eq!(exact(&summary), exact(&via_batch), "{name}: BatchRunner");

        let spec = SweepSpec::over(cfg.clone()).with_scheduler(cfg.scheduler);
        let sweep = run_sweep(&spec, 1).expect("valid spec");
        assert!(sweep.failures.is_empty(), "{name}: {:?}", sweep.failures);
        // Compared as `Debug` strings: a tier column without samples is
        // NaN, which never equals itself.
        let by_hand = CellStats::from_summaries(cfg.scheduler, cfg.load_factor, &[summary], 0);
        assert_eq!(
            format!("{:?}", sweep.cells[0]),
            format!("{by_hand:?}"),
            "{name}: run_sweep"
        );
    }
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

/// The span profiler's phase ledger: on a profiled saturated run the four
/// phases that partition each batch (event drain, lifecycle, decide,
/// dispatch) add up to no more than the run's wall time; what is left is
/// the loop's own unattributed time.
#[test]
fn profiled_phases_add_up_to_at_most_the_wall_time() {
    use selective_preemption::telemetry::SpanProfiler;
    let cfg = ExperimentConfig::new(sps_workload::traces::CTC, SchedulerKind::Ss { sf: 2.0 })
        .with_jobs(600)
        .with_seed(3)
        .with_load_factor(2.0);
    let res = cfg.runner().profiler(SpanProfiler::new()).build().run();
    let attributed = res.kernel.attributed_nanos().expect("a profiled run");
    assert!(attributed > 0, "no phase recorded");
    // `wall_micros` is truncated to whole microseconds.
    let wall = (res.kernel.wall_micros + 1) * 1_000;
    assert!(
        attributed <= wall,
        "phases add up to {attributed} ns, past the {wall} ns wall time"
    );
}
