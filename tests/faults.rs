//! End-to-end fault-injection scenarios: determinism with the model off,
//! graceful degradation with it on, recovery-policy comparisons, replay
//! validation of fault-injected logs, and the run-harness watchdog.
//!
//! MTBF values are sized against the trace: the largest SDSC job in the
//! seed-7 trace is ~3.4M processor-seconds, and a kill loses *all*
//! accumulated work, so per-processor MTBFs below a few million seconds
//! make wide long jobs effectively uncompletable.

use selective_preemption::prelude::*;
use selective_preemption::simcore::Watchdog;
use selective_preemption::trace::{validate_records, JobEvent, ReplayOptions};
use selective_preemption::workload::traces::{CTC, KTH, SDSC};
use sps_core::policy::{Action, DecideCtx, Policy};
use sps_core::SimState;

fn base(kind: SchedulerKind) -> ExperimentConfig {
    ExperimentConfig::new(SDSC, kind)
        .with_jobs(400)
        .with_seed(7)
        .with_load_factor(1.2)
}

fn faulty(kind: SchedulerKind, mtbf: i64, recovery: RecoveryPolicy) -> ExperimentConfig {
    base(kind).with_faults(FaultModel::proc_faults(mtbf, 3_600, 13).with_recovery(recovery))
}

#[test]
fn disabled_fault_model_changes_nothing() {
    // `FaultModel::none()` must be indistinguishable from never calling
    // `with_faults` at all — including the trace byte stream.
    let cfg = base(SchedulerKind::Ss { sf: 2.0 });
    let mut plain_sink = MemorySink::new();
    let plain = cfg.runner().trace_sink(&mut plain_sink).run();
    let mut none_sink = MemorySink::new();
    let none = cfg
        .clone()
        .with_faults(FaultModel::none())
        .runner()
        .trace_sink(&mut none_sink)
        .run();
    assert_eq!(plain_sink.records(), none_sink.records());
    assert!(!plain.sim.faults.any());
    assert!(!none.sim.faults.any());
    assert_eq!(plain.sim.status, RunStatus::Completed);
    assert_eq!(
        plain.report.overall.mean_turnaround,
        none.report.overall.mean_turnaround
    );
}

#[test]
fn fault_injection_is_deterministic() {
    let cfg = faulty(
        SchedulerKind::Ss { sf: 2.0 },
        5_000_000,
        RecoveryPolicy::WaitForRepair,
    );
    let mut a_sink = MemorySink::new();
    let a = cfg.runner().trace_sink(&mut a_sink).run();
    let mut b_sink = MemorySink::new();
    let b = cfg.runner().trace_sink(&mut b_sink).run();
    assert_eq!(a_sink.records(), b_sink.records());
    assert_eq!(a.sim.faults, b.sim.faults);
    assert!(
        a.sim.faults.proc_failures > 0,
        "the model must inject faults"
    );
}

#[test]
fn faulty_run_completes_with_consistent_accounting() {
    let r = faulty(
        SchedulerKind::Ss { sf: 2.0 },
        5_000_000,
        RecoveryPolicy::WaitForRepair,
    )
    .run();
    let f = &r.sim.faults;
    assert_eq!(r.sim.status, RunStatus::Completed);
    assert_eq!(r.sim.unfinished, 0);
    assert_eq!(
        r.report.overall.count, 400,
        "kills resubmit, never lose jobs"
    );
    assert!(f.proc_failures > 0);
    assert!(
        f.proc_repairs <= f.proc_failures,
        "repairs only follow failures"
    );
    assert!(f.jobs_killed > 0, "a held processor failing kills its job");
    assert!(f.lost_work > 0);
    assert!(f.downtime > 0);
    // Goodput divides the same useful work by *available* capacity
    // (downtime removed), so it sits at or above raw utilization but
    // stays a fraction.
    let g = goodput(&r.sim.outcomes, SDSC.procs, f.downtime);
    assert!(
        g >= r.sim.utilization - 1e-9 && g <= 1.0,
        "goodput {g} vs util {}",
        r.sim.utilization
    );
    // Kills are visible on the outcomes and distinct from suspensions.
    assert!(r.sim.outcomes.iter().any(|o| o.kills > 0));
    let killed_total: u64 = r.sim.outcomes.iter().map(|o| o.kills as u64).sum();
    assert_eq!(killed_total, f.jobs_killed + f.job_crashes);
}

/// A job a fault killed and resubmitted keeps the instant the machine
/// first started it: its outcome's `first_start` is its first `Dispatch`
/// record, not the restart's.
#[test]
fn killed_jobs_report_their_first_dispatch_as_first_start() {
    let cfg = base(SchedulerKind::Ss { sf: 2.0 })
        .with_jobs(300)
        .with_faults(
            FaultModel::proc_faults(1_000_000, 3_600, 13).with_recovery(RecoveryPolicy::Resubmit),
        );
    let mut sink = MemorySink::new();
    let r = cfg.runner().trace_sink(&mut sink).run();
    assert_eq!(r.sim.status, RunStatus::Completed);
    let mut first_dispatch = std::collections::HashMap::new();
    for rec in sink.records() {
        if let TraceRecord::Job {
            t,
            job,
            event: JobEvent::Dispatch,
            ..
        } = *rec
        {
            first_dispatch.entry(job).or_insert(t);
        }
    }
    let killed: Vec<_> = r.sim.outcomes.iter().filter(|o| o.kills > 0).collect();
    assert!(!killed.is_empty(), "the fault model must kill started jobs");
    for o in killed {
        assert_eq!(
            Some(&o.first_start.secs()),
            first_dispatch.get(&o.id.0),
            "job {} ({} kills)",
            o.id.0,
            o.kills
        );
    }
}

#[test]
fn ns_baseline_survives_faults_too() {
    // EASY has no suspend path at all; failure recovery must still requeue
    // killed jobs and finish the trace.
    let r = faulty(
        SchedulerKind::Easy,
        5_000_000,
        RecoveryPolicy::WaitForRepair,
    )
    .run();
    assert_eq!(r.sim.status, RunStatus::Completed);
    assert_eq!(r.report.overall.count, 400);
    assert!(r.sim.faults.proc_failures > 0);
}

/// Conservative and flex backfilling book a reservation for queued jobs,
/// against a profile whose capacity leaves down processors out. A
/// full-width job queued while a processor is down gets no reservation
/// until the repair, instead of a panic, and a failure that moves an
/// anchor later does not trip conservative's compression check.
#[test]
fn reservation_backfilling_completes_under_faults() {
    for system in [SDSC, KTH, CTC] {
        for spec in ["cons", "flex:3"] {
            let r = ExperimentConfig::new(system, spec.parse().expect("spec parses"))
                .with_jobs(800)
                .with_seed(5)
                .with_load_factor(1.2)
                .with_faults(FaultModel::proc_faults(2_000_000, 1_800, 0))
                .run();
            let label = format!("{spec} on {}", system.name);
            assert_eq!(r.sim.status, RunStatus::Completed, "{label}");
            assert_eq!(r.report.overall.count, 800, "{label}");
            assert!(r.sim.faults.proc_failures > 0, "{label}: no failure");
        }
    }
}

#[test]
fn wait_for_repair_strands_jobs_where_remap_recovers_them() {
    // Under identical seeds, WaitForRepair leaves suspended jobs pinned to
    // a dead processor for the whole repair, while Remap restarts them
    // elsewhere — so only WaitForRepair accumulates stranded job-seconds,
    // and its interrupted jobs wait longer.
    let mut stranded_wait = 0;
    let mut stranded_remap = 0;
    for mtbf in [10_000_000, 5_000_000, 2_000_000] {
        let wait = faulty(
            SchedulerKind::Ss { sf: 2.0 },
            mtbf,
            RecoveryPolicy::WaitForRepair,
        )
        .run();
        let remap = faulty(SchedulerKind::Ss { sf: 2.0 }, mtbf, RecoveryPolicy::Remap).run();
        assert_eq!(wait.sim.status, RunStatus::Completed);
        assert_eq!(remap.sim.status, RunStatus::Completed);
        stranded_wait += wait.sim.faults.stranded_secs;
        stranded_remap += remap.sim.faults.stranded_secs;
    }
    assert_eq!(stranded_remap, 0, "remapped jobs never sit stranded");
    assert!(
        stranded_wait > 0,
        "WaitForRepair must strand preempted jobs whose processors died"
    );
}

#[test]
fn wait_for_repair_turnaround_suffers_where_stranding_bites() {
    // At the MTBF where failures repeatedly land on suspended jobs'
    // processors (seeded, deterministic), waiting out the repair costs
    // turnaround that remapping avoids.
    let wait = faulty(
        SchedulerKind::Ss { sf: 2.0 },
        10_000_000,
        RecoveryPolicy::WaitForRepair,
    )
    .run();
    let remap = faulty(
        SchedulerKind::Ss { sf: 2.0 },
        10_000_000,
        RecoveryPolicy::Remap,
    )
    .run();
    assert!(wait.sim.faults.stranded_secs > 0);
    assert!(
        wait.report.overall.mean_turnaround > remap.report.overall.mean_turnaround,
        "wait {} vs remap {}",
        wait.report.overall.mean_turnaround,
        remap.report.overall.mean_turnaround
    );
}

#[test]
fn denser_failures_degrade_service() {
    let clean = base(SchedulerKind::Ss { sf: 2.0 }).run();
    let light = faulty(
        SchedulerKind::Ss { sf: 2.0 },
        20_000_000,
        RecoveryPolicy::WaitForRepair,
    )
    .run();
    let heavy = faulty(
        SchedulerKind::Ss { sf: 2.0 },
        2_000_000,
        RecoveryPolicy::WaitForRepair,
    )
    .run();
    assert!(heavy.sim.faults.proc_failures > light.sim.faults.proc_failures);
    assert!(
        heavy.report.overall.mean_turnaround > clean.report.overall.mean_turnaround,
        "lost work must show up in turnaround: faulty {} vs clean {}",
        heavy.report.overall.mean_turnaround,
        clean.report.overall.mean_turnaround
    );
}

#[test]
fn fault_traces_validate_under_every_recovery_policy() {
    for recovery in RecoveryPolicy::ALL {
        for kind in [
            SchedulerKind::Ss { sf: 2.0 },
            SchedulerKind::Tss { sf: 2.0 },
        ] {
            let cfg = faulty(kind, 2_000_000, recovery);
            let mut sink = MemorySink::new();
            let r = cfg.runner().trace_sink(&mut sink).run();
            assert_eq!(r.sim.status, RunStatus::Completed);
            let opts = ReplayOptions {
                allow_migration: recovery == RecoveryPolicy::Remap,
            };
            let stats = validate_records(sink.records(), opts)
                .unwrap_or_else(|v| panic!("{kind:?}/{recovery}: {v:?}"));
            assert_eq!(stats.completions, 400);
            assert_eq!(stats.proc_failures, r.sim.faults.proc_failures as usize);
            assert_eq!(
                stats.kills,
                (r.sim.faults.jobs_killed + r.sim.faults.job_crashes) as usize
            );
        }
    }
}

#[test]
fn job_crash_faults_kill_and_resubmit() {
    let cfg = base(SchedulerKind::Easy)
        .with_faults(FaultModel::none().with_job_crash(0.10).with_fault_seed(99));
    let r = cfg.run();
    assert_eq!(r.sim.status, RunStatus::Completed);
    assert_eq!(r.report.overall.count, 400);
    assert!(r.sim.faults.job_crashes > 0, "10% crash rate must fire");
    assert_eq!(r.sim.faults.proc_failures, 0);
    assert_eq!(r.sim.faults.downtime, 0);
}

/// A broken policy: asks for ticks, never starts anything. With queued
/// jobs forever pending, the tick chain re-arms indefinitely — the
/// classic livelock the watchdog exists for.
struct DeadPolicy;
impl Policy for DeadPolicy {
    fn name(&self) -> String {
        "dead-policy".into()
    }
    fn needs_tick(&self) -> bool {
        true
    }
    fn decide(&mut self, _: &SimState, _: &DecideCtx<'_>, _: &mut Vec<Action>) {}
}

#[test]
fn watchdog_turns_livelock_into_aborted_result() {
    let jobs = base(SchedulerKind::Easy).with_jobs(20).trace();
    let sim = Simulator::new(jobs, SDSC.procs, Box::new(DeadPolicy)).with_watchdog(Watchdog {
        max_batches: Some(5_000),
        max_events: None,
        max_wall_ms: None,
    });
    let result = sim.run();
    assert!(result.status.is_aborted(), "got {:?}", result.status);
    assert_eq!(result.unfinished, 20, "partial metrics report the backlog");
    assert!(result.outcomes.is_empty());
}

#[test]
fn watchdog_abort_counts_jobs_not_yet_submitted_as_unfinished() {
    // The watchdog trips long before the last arrival, so most of the
    // backlog is still in the job source, not in the simulator's table.
    let n = 2_000;
    let watchdog = Watchdog {
        max_batches: Some(50),
        max_events: None,
        max_wall_ms: None,
    };
    let cfg = base(SchedulerKind::Easy).with_jobs(n);
    let dead = Simulator::new(cfg.trace(), SDSC.procs, Box::new(DeadPolicy))
        .with_watchdog(watchdog)
        .run();
    assert!(dead.status.is_aborted(), "got {:?}", dead.status);
    assert_eq!(dead.unfinished, n - dead.outcomes.len());
    let easy = cfg.runner().watchdog(watchdog).simulate();
    assert!(easy.status.is_aborted(), "got {:?}", easy.status);
    assert_eq!(easy.unfinished, n - easy.outcomes.len());
}

#[test]
fn event_budget_also_trips_the_watchdog() {
    let jobs = base(SchedulerKind::Easy).with_jobs(20).trace();
    let sim = Simulator::new(jobs, SDSC.procs, Box::new(DeadPolicy)).with_watchdog(Watchdog {
        max_batches: None,
        max_events: Some(2_000),
        max_wall_ms: None,
    });
    let result = sim.run();
    assert_eq!(result.status, RunStatus::Aborted(AbortReason::EventLimit));
}
