//! Heterogeneous-speed invariants.
//!
//! Two halves pin the work-unit refactor from both sides:
//!
//! * **Work conservation** — under arbitrary speed maps, the work a job
//!   accrues across its occupancy segments (each at the gang speed of its
//!   slowest processor) must cover its full service demand, with only the
//!   documented rounding slack on top: one fractional work unit per
//!   suspension (`work_done` floors) plus one partial-second overshoot at
//!   completion (`secs_for` ceils).
//! * **Golden identity** — a speed map explicitly built from
//!   `uniform:1.0` must reproduce the pre-heterogeneity golden trace
//!   hashes bit for bit. The uniform fast paths are load-bearing: if they
//!   drift, every blessed trace in the repo silently changes meaning.

mod common;

use common::{cases, fold_hash, load_goldens, Case};
use selective_preemption::cluster::{work_done, SpeedMap, SpeedSpec};
use selective_preemption::prelude::*;

/// Sum the work a job accrued over its dispatch segments, at the gang
/// (slowest-member) speed the simulator charges for each segment.
fn accrued_work(segments: &[sps_core::sim::OccupancySegment], map: &SpeedMap, job: JobId) -> i64 {
    segments
        .iter()
        .filter(|seg| seg.job == job)
        .map(|seg| {
            let span = seg.end.secs() - seg.start.secs();
            work_done(span, map.min_over(&seg.procs))
        })
        .sum()
}

#[test]
fn work_is_conserved_under_random_speed_maps() {
    use sps_workload::traces::SDSC;
    // Lognormal maps are the "random" draws (three seeds), the tier map
    // covers exact-boundary speeds, and a slow uniform map covers the
    // everyone-stretched case.
    let specs = [
        "lognormal:7",
        "lognormal:13",
        "lognormal:99",
        "tiers:0.25x32+0.75x32+1.5x64",
        "uniform:0.5",
    ];
    for spec_str in specs {
        for sched in ["ss:2", "tss:2"] {
            let spec: SpeedSpec = spec_str.parse().expect("test spec parses");
            let kind: SchedulerKind = sched.parse().unwrap();
            let cfg = ExperimentConfig::new(SDSC, kind)
                .with_jobs(150)
                .with_seed(23)
                .with_speed(spec.clone());
            let jobs = cfg.trace();
            let result = cfg.run();
            assert_eq!(
                result.report.overall.count,
                jobs.len(),
                "{spec_str}/{sched}: closed-system run completes every job"
            );
            let map = SpeedMap::from_spec(&spec, SDSC.procs);
            let max_speed = map
                .distinct_speeds()
                .last()
                .copied()
                .expect("non-empty map")
                .ceil() as i64;
            for job in jobs.iter() {
                let accrued = accrued_work(&result.sim.segments, &map, job.id);
                let segs = result
                    .sim
                    .segments
                    .iter()
                    .filter(|s| s.job == job.id)
                    .count() as i64;
                assert!(
                    accrued >= job.run,
                    "{spec_str}/{sched}: job {} accrued {accrued} work units but \
                     demands {} — it finished early",
                    job.id.0,
                    job.run
                );
                // Slack: one floored fraction per suspension plus the
                // ceil'd final second at up to max_speed work units.
                assert!(
                    accrued <= job.run + segs + max_speed,
                    "{spec_str}/{sched}: job {} accrued {accrued} work units for a \
                     demand of {} over {segs} segments — it overran the rounding slack",
                    job.id.0,
                    job.run
                );
            }
        }
    }
}

/// Run one golden case with an *explicit* `uniform:1.0` speed map wired
/// into the simulator (not the homogeneous default path).
fn run_case_with_uniform_speed(c: &Case) -> u64 {
    let kind: SchedulerKind = c.spec.parse().expect("golden spec parses");
    let jobs = SyntheticConfig::new(c.system, c.seed)
        .with_jobs(c.jobs)
        .generate();
    let spec: SpeedSpec = "uniform:1.0".parse().unwrap();
    let mut sink = JsonlSink::new(Vec::<u8>::new());
    let result = Simulator::traced_source(
        Box::new(TraceSource::new(jobs)),
        c.system.procs,
        kind.build(),
        c.overhead,
        sps_core::sim::DEFAULT_TICK_PERIOD,
        &mut sink,
    )
    .with_speed(SpeedMap::from_spec(&spec, c.system.procs))
    .run();
    let bytes = sink.finish().expect("in-memory sink never fails");
    fold_hash(&bytes, &result)
}

#[test]
fn explicit_uniform_speed_matches_every_golden() {
    let goldens = load_goldens();
    let mut failures = Vec::new();
    for c in &cases() {
        let expect = goldens
            .iter()
            .find(|(l, _)| l == c.label)
            .unwrap_or_else(|| panic!("no golden for {}", c.label))
            .1;
        let got = run_case_with_uniform_speed(c);
        if got != expect {
            failures.push(format!(
                "{}: got {:016x}, golden {:016x}",
                c.label, got, expect
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "uniform:1.0 diverged from the homogeneous goldens:\n{}",
        failures.join("\n")
    );
}

/// Speed-aware placement must never lose to speed-blind placement on the
/// headline metric for the tiered SDSC machine — the delta is the whole
/// point of the `hetero_tiers` experiment.
#[test]
fn speed_aware_placement_beats_blind_on_tiers() {
    use sps_workload::traces::SDSC;
    let spec: SpeedSpec = "tiers:0.5x64+1.0x64".parse().unwrap();
    let run = |aware: bool| {
        ExperimentConfig::new(SDSC, SchedulerKind::Ss { sf: 2.0 })
            .with_jobs(200)
            .with_seed(42)
            .with_speed(spec.clone())
            .with_speed_aware(aware)
            .run()
            .report
            .overall
            .mean_slowdown
    };
    let (aware, blind) = (run(true), run(false));
    assert!(
        aware <= blind,
        "speed-aware SS (slowdown {aware:.3}) must not lose to speed-blind ({blind:.3})"
    );
}
