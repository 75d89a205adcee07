//! Sweep-engine equivalence: the fast path (shared trace cache, quiescent
//! tick elision, fast no-op decides, streaming per-run folds) must be
//! *bit-identical* to the naive path it replaced — same traces, same
//! simulation results, same per-cell statistics.

mod common;

use selective_preemption::core::sweep::{run_sweep, CellStats, RunSummary, SweepSpec};
use selective_preemption::prelude::*;
use sps_workload::traces::{CTC, KTH, SDSC};

/// FNV-1a, 64-bit (stable across platforms, unlike `DefaultHasher`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for &b in &v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn trace_hash(jobs: &[Job]) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(jobs.len() as u64);
    for j in jobs {
        h.write_u64(j.id.0 as u64);
        h.write_u64(j.submit.secs() as u64);
        h.write_u64(j.run as u64);
        h.write_u64(j.estimate as u64);
        h.write_u64(u64::from(j.procs));
        h.write_u64(u64::from(j.mem_mb));
    }
    h.0
}

fn grid() -> SweepSpec {
    SweepSpec::new(SDSC)
        .with_schedulers(vec![
            SchedulerKind::Easy,
            SchedulerKind::Ss { sf: 2.0 },
            SchedulerKind::Tss { sf: 1.5 },
            SchedulerKind::ImmediateService,
        ])
        .with_loads(vec![0.8, 1.0])
        .with_jobs(250)
        .with_seed(17)
        .with_reps(2)
}

/// Cached traces are byte-for-byte the traces each config would have
/// generated for itself; configs differing only in scheduler share one.
#[test]
fn shared_traces_match_per_config_regeneration() {
    let spec = grid();
    let cache = TraceCache::new();
    let mut shared_by_key = std::collections::HashMap::new();
    for cfg in spec.expand() {
        let shared = cfg.trace_shared(&cache);
        let fresh = cfg.trace();
        assert_eq!(
            trace_hash(&shared),
            trace_hash(&fresh),
            "cached trace diverges from regeneration for {} seed {} load {}",
            cfg.scheduler,
            cfg.seed,
            cfg.load_factor
        );
        // One Arc per key: scheduler-only variation must not re-generate.
        let prev = shared_by_key.insert(cfg.trace_key(), std::sync::Arc::clone(&shared));
        if let Some(prev) = prev {
            assert!(std::sync::Arc::ptr_eq(&prev, &shared));
        }
    }
    // 2 loads × 2 seeds distinct; 4 schedulers share each.
    assert_eq!(cache.len(), 4);
    assert_eq!(cache.misses(), 4);
    assert_eq!(cache.hits(), 12);
}

/// The naive path: per-run regeneration, idle ticks processed, every
/// `SimResult` retained, folded at the end — with identical arithmetic.
fn naive_cells(spec: &SweepSpec) -> Vec<CellStats> {
    let results: Vec<(ExperimentConfig, SimResult)> = spec
        .expand()
        .into_iter()
        .map(|cfg| {
            let res = cfg.runner().build().with_tick_elision(false).run();
            (cfg, res)
        })
        .collect();
    let mut cells = Vec::new();
    let mut chunks = results.chunks_exact(spec.reps);
    for &scheduler in &spec.schedulers {
        for &load in &spec.loads {
            let chunk = chunks.next().expect("cell-major expansion");
            let summaries: Vec<RunSummary> = chunk
                .iter()
                .map(|(cfg, sim)| RunSummary::fold(cfg, sim))
                .collect();
            cells.push(CellStats::from_summaries(scheduler, load, &summaries, 0));
        }
    }
    cells
}

/// The golden equivalence: every per-cell statistic of the cached,
/// elided, lean-folding sweep equals the naive path bit-for-bit. Beside
/// the paper grid: runs long enough that lean trimming reclaims job
/// slots, and a grid under fault injection with checkpointing migration.
#[test]
fn sweep_cells_are_bit_identical_to_naive_path() {
    let long = SweepSpec::new(SDSC)
        .with_schedulers(vec![SchedulerKind::Easy, SchedulerKind::Ss { sf: 2.0 }])
        .with_loads(vec![0.9])
        .with_jobs(2_500)
        .with_seed(5)
        .with_reps(2);
    let trimmed = long.expand()[1].runner().lean(true).simulate();
    assert!(trimmed.kernel.reclaimed_slots > 0, "nothing reclaimed");
    let faulty = SweepSpec::over(
        ExperimentConfig::new(SDSC, SchedulerKind::Easy)
            .with_faults(
                FaultModel::proc_faults(1_000_000, 3_600, 13)
                    .with_recovery(RecoveryPolicy::Resubmit),
            )
            .with_preemption(PreemptionMode::Migrate)
            .with_checkpoint(CheckpointModel::paper().with_interval(1_800)),
    )
    .with_schedulers(grid().schedulers)
    .with_loads(vec![1.1])
    .with_jobs(250)
    .with_seed(7)
    .with_reps(2);
    for (label, spec) in [("paper", grid()), ("long", long), ("faulty", faulty)] {
        let report = run_sweep(&spec, 2).expect("valid spec");
        assert!(report.failures.is_empty(), "{label}: {:?}", report.failures);
        if label == "faulty" {
            assert!(
                report.cells.iter().all(|c| c.lost_work.mean > 0.0),
                "no kills"
            );
        }
        let naive = naive_cells(&spec);
        assert_eq!(report.cells.len(), naive.len());
        for (fast, slow) in report.cells.iter().zip(&naive) {
            assert_eq!(
                fast, slow,
                "{label}: cell {} @ load {} diverged between sweep and naive paths",
                slow.scheduler, slow.load_factor
            );
        }
    }
}

/// Tick elision must not change *any* observable simulation output, for
/// every policy that certifies quiescent decides as no-ops — and gang
/// (which doesn't) must behave identically too, because the gate reads
/// `Policy::quiescent_noop`.
#[test]
fn tick_elision_preserves_simulation_results() {
    for system in [SDSC, CTC] {
        for spec in [
            "ns", "cons", "fcfs", "flex:3", "is", "ss:2", "tss:1.5", "gang",
        ] {
            // Low load stretches arrival gaps, so the workload has long
            // quiescent stretches — the case elision actually changes.
            let cfg = ExperimentConfig::new(system, spec.parse().expect("spec parses"))
                .with_jobs(180)
                .with_seed(9)
                .with_load_factor(0.5)
                .with_overhead(OverheadModel::paper());
            assert_elision_preserves_results(&cfg, &format!("{} on {}", spec, system.name));
        }
    }
    // At SF = 1 a fresh arrival (xfactor 1) can qualify against a running
    // job that never waited (xfactor 1), and only a tick decide runs that
    // victim scan. A wake-up batch that lands on an instant the every-tick
    // schedule ticks must therefore decide as a tick batch. SF = 1.5 on
    // the same workload is the control.
    for (system, spec, load, seed) in [
        (SDSC, "ss:1", 0.6, 511),
        (CTC, "ss:1", 1.0, 546),
        (KTH, "ss:1", 1.0, 581),
        (SDSC, "ss:1.5", 0.6, 511),
    ] {
        let cfg = ExperimentConfig::new(system, spec.parse().expect("spec parses"))
            .with_jobs(400)
            .with_seed(seed)
            .with_load_factor(load);
        let label = format!("{spec} on {} at load {load}, seed {seed}", system.name);
        assert_elision_preserves_results(&cfg, &label);
    }
    // Fault injection and admission control run the elided schedule too:
    // failures, repairs and job crashes are events of their own, and
    // admission acts only at arrivals. (Gang, which never elides, is
    // covered above; under these faults its every-tick runs are slow.)
    let admission: AdmissionModel = "load:1h".parse().expect("admission spec parses");
    for spec in ["ns", "cons", "flex:3", "is", "ss:2", "tss:2"] {
        let base = ExperimentConfig::new(CTC, spec.parse().expect("spec parses"))
            .with_jobs(200)
            .with_seed(9)
            .with_load_factor(1.1)
            .with_overhead(OverheadModel::paper());
        let mut cases = common::fault_variants(&base);
        cases.push(("load:1h admission".into(), base.with_admission(admission)));
        for (variant, cfg) in cases {
            assert_elision_preserves_results(&cfg, &format!("{spec} on CTC, {variant}"));
        }
    }
    // An open run with both: Poisson arrivals stopped at a horizon, with a
    // warmup window.
    let admission: AdmissionModel = "load:4h".parse().expect("admission spec parses");
    for spec in ["ss:2", "tss:2", "is", "ns", "cons", "flex:3"] {
        let cfg = ExperimentConfig::new(SDSC, spec.parse().expect("spec parses"))
            .with_seed(9)
            .with_arrivals(ArrivalSpec::Poisson { load: Some(1.1) })
            .with_until(RunUntil::SimTime(SimTime::new(3 * 86_400)))
            .with_warmup(6 * 3_600)
            .with_faults(FaultModel::proc_faults(1_000_000, 3_600, 5).with_job_crash(0.05))
            .with_admission(admission);
        let label = format!("{spec} on open SDSC under faults and admission");
        let (with, _) = assert_elision_preserves_results(&cfg, &label);
        assert!(with.faults.proc_failures > 0, "{label}: no failure");
        assert!(with.rejections.rejected > 0, "{label}: no rejection");
    }
}

/// Runs that rarely empty: SS/TSS/IS let the ticks before a no-op
/// decide's horizon lapse while jobs wait, with results unchanged. That
/// leaves well under half the every-tick schedule's decides for TSS on
/// KTH at load 1.6, and under a quarter for IS on SDSC at load 1.0. On
/// saturated CTC (load 2.0) fresh jobs wait on suspended jobs' claims:
/// SS and TSS lapse the ticks before the first crossing that lets one
/// start, where a horizon that stopped at every idle-order swap or
/// qualifying victim kept about three quarters of the decides. Those runs
/// also answer arrival-only decides from the certificate of the last
/// no-op decide, so they check it against the every-tick run; the paper
/// oracle (tests/oracle.rs) referees both.
#[test]
fn noop_horizons_preserve_results_on_backlogged_runs() {
    // The last field caps the elided run's decides, in percent of the
    // every-tick run's.
    for (system, spec, load, overhead, jobs, max_pct) in [
        (KTH, "tss:5", 1.6, OverheadModel::None, 600, Some(40)),
        (SDSC, "ss:10", 0.85, OverheadModel::None, 600, None),
        (CTC, "tss:2", 2.0, OverheadModel::paper(), 600, None),
        (SDSC, "is", 1.0, OverheadModel::None, 600, Some(25)),
        (CTC, "is", 1.6, OverheadModel::paper(), 600, None),
        (KTH, "is", 0.7, OverheadModel::None, 600, None),
        (CTC, "ss:2", 2.0, OverheadModel::None, 1_200, Some(60)),
        (CTC, "tss:2", 2.0, OverheadModel::None, 1_200, Some(60)),
    ] {
        let cfg = ExperimentConfig::new(system, spec.parse().expect("spec parses"))
            .with_jobs(jobs)
            .with_seed(31)
            .with_load_factor(load)
            .with_overhead(overhead);
        let label = format!("{spec} on {} at load {load}", system.name);
        let (with, without) = assert_elision_preserves_results(&cfg, &label);
        if let Some(pct) = max_pct {
            assert!(
                with.kernel.decide_calls * 100 <= without.kernel.decide_calls * pct,
                "{label}: {} of {} decides executed",
                with.kernel.decide_calls,
                without.kernel.decide_calls
            );
        }
    }
}

/// Run `cfg` with and without tick elision and require identical results,
/// with elision never adding events and, for a policy that certifies
/// quiescent no-ops and ticks, strictly removing some. Returns the elided
/// run and the every-tick one.
fn assert_elision_preserves_results(cfg: &ExperimentConfig, label: &str) -> (SimResult, SimResult) {
    let run = |elide: bool| cfg.runner().build().with_tick_elision(elide).run();
    let (with, without) = (run(true), run(false));
    assert_eq!(with.status, without.status, "{label}: status");
    assert_eq!(with.makespan, without.makespan, "{label}: makespan");
    assert_eq!(
        with.preemptions, without.preemptions,
        "{label}: preemptions"
    );
    assert_eq!(
        with.dropped_actions, without.dropped_actions,
        "{label}: dropped actions"
    );
    assert_eq!(
        with.utilization.to_bits(),
        without.utilization.to_bits(),
        "{label}: utilization"
    );
    assert_eq!(with.outcomes.len(), without.outcomes.len(), "{label}: jobs");
    for (a, b) in with.outcomes.iter().zip(&without.outcomes) {
        assert_eq!(
            (a.id, a.first_start, a.completion, a.suspensions, a.kills),
            (b.id, b.first_start, b.completion, b.suspensions, b.kills),
            "{label}: outcome {:?}",
            a.id
        );
    }
    assert_eq!(with.faults, without.faults, "{label}: fault ledger");
    assert_eq!(
        with.rejections, without.rejections,
        "{label}: rejection ledger"
    );
    assert_eq!(with.windowed, without.windowed, "{label}: windowed report");
    // Elision only ever removes work: never more events than the
    // un-elided run, and strictly fewer for the certified policies on an
    // idle-heavy workload.
    assert!(
        with.kernel.events <= without.kernel.events,
        "{label}: elision added events"
    );
    let policy = cfg.scheduler.build();
    if policy.quiescent_noop() && policy.needs_tick() {
        assert!(
            with.kernel.events < without.kernel.events,
            "{label}: no ticks elided on an idle-heavy workload"
        );
    }
    (with, without)
}
