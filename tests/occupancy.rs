//! Occupancy-segment invariants — the strongest whole-simulator checks.
//!
//! The simulator records every interval during which a job physically held
//! processors. From that record we can verify, independently of all the
//! scheduler logic, that:
//!
//! * no processor is ever held by two jobs at once,
//! * every job's productive time inside its segments equals its run time
//!   (plus overhead when modelled),
//! * a suspended job's next segment reuses exactly the processors of its
//!   previous one (the paper's local-preemption constraint), and
//! * utilization computed from segments matches the reported number.

use selective_preemption::core::sim::OccupancySegment;
use selective_preemption::prelude::*;
use sps_workload::traces::SDSC;

fn run(kind: SchedulerKind, overhead: OverheadModel, seed: u64) -> SimResult {
    ExperimentConfig::new(SDSC, kind)
        .with_jobs(600)
        .with_seed(seed)
        .with_load_factor(1.3)
        .with_overhead(overhead)
        .runner()
        .simulate()
}

fn preemptive_kinds() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Easy,
        SchedulerKind::ImmediateService,
        SchedulerKind::Gang,
        SchedulerKind::Ss { sf: 1.5 },
        SchedulerKind::Tss { sf: 2.0 },
    ]
}

/// Sweep-line check: at no instant do two segments share a processor.
fn assert_no_overlap(segments: &[OccupancySegment], total: u32) {
    // Events: (time, +1/-1, segment index); at each instant, the union of
    // active segments' processor sets must stay disjoint. For efficiency,
    // track a per-processor owner count.
    let mut events: Vec<(i64, i32, usize)> = Vec::with_capacity(segments.len() * 2);
    for (i, s) in segments.iter().enumerate() {
        assert!(s.end > s.start, "empty segment for {}", s.job);
        events.push((s.start.secs(), 1, i));
        events.push((s.end.secs(), -1, i));
    }
    // Releases before acquisitions at the same instant (a completing job's
    // processors may be handed over at that very instant).
    events.sort_by_key(|&(t, delta, _)| (t, delta));
    let mut owners = vec![0i32; total as usize];
    for (t, delta, idx) in events {
        for p in segments[idx].procs.iter() {
            let o = &mut owners[p as usize];
            *o += delta;
            assert!(
                (0..=1).contains(o),
                "processor {p} owned by {o} jobs at t={t} (segment of {})",
                segments[idx].job
            );
        }
    }
}

#[test]
fn processors_never_double_booked() {
    for kind in preemptive_kinds() {
        for overhead in [OverheadModel::None, OverheadModel::paper()] {
            let res = run(kind, overhead, 7);
            assert!(!res.segments.is_empty());
            assert_no_overlap(&res.segments, SDSC.procs);
        }
    }
}

#[test]
fn segment_time_accounts_for_run_plus_overhead() {
    for overhead in [OverheadModel::None, OverheadModel::paper()] {
        let res = run(SchedulerKind::Ss { sf: 1.5 }, overhead, 9);
        let mut per_job_occupancy = vec![0i64; res.outcomes.len()];
        for s in &res.segments {
            per_job_occupancy[s.job.index()] += s.end - s.start;
        }
        for o in &res.outcomes {
            assert_eq!(
                per_job_occupancy[o.id.index()],
                o.run + o.overhead,
                "job {}: occupancy must equal run + drain/reload overhead",
                o.id
            );
        }
    }
}

#[test]
fn reentry_reuses_exact_processors() {
    let res = run(SchedulerKind::Ss { sf: 1.5 }, OverheadModel::None, 11);
    assert!(res.preemptions > 0, "need suspensions to test re-entry");
    let mut by_job: Vec<Vec<&OccupancySegment>> = vec![Vec::new(); res.outcomes.len()];
    for s in &res.segments {
        by_job[s.job.index()].push(s);
    }
    let mut resumed = 0;
    for segs in by_job.iter_mut() {
        segs.sort_by_key(|s| s.start);
        for pair in segs.windows(2) {
            assert_eq!(
                pair[0].procs, pair[1].procs,
                "local preemption: job {} resumed on different processors",
                pair[0].job
            );
            resumed += 1;
        }
    }
    assert!(resumed > 0);
}

#[test]
fn migration_changes_processors_but_never_overlaps() {
    use selective_preemption::core::sched::ss::{SelectiveSuspension, SsConfig};
    let jobs = ExperimentConfig::new(SDSC, SchedulerKind::Easy)
        .with_jobs(600)
        .with_seed(11)
        .with_load_factor(1.3)
        .trace();
    let mut cfg = SsConfig::ss(1.5);
    cfg.migration = true;
    let res = Simulator::new(jobs, SDSC.procs, Box::new(SelectiveSuspension::new(cfg))).run();
    assert_no_overlap(&res.segments, SDSC.procs);
    // At least one job actually moved.
    let mut by_job: Vec<Vec<&OccupancySegment>> = vec![Vec::new(); res.outcomes.len()];
    for s in &res.segments {
        by_job[s.job.index()].push(s);
    }
    let mut moved = 0;
    for segs in by_job.iter_mut() {
        segs.sort_by_key(|s| s.start);
        if segs.windows(2).any(|p| p[0].procs != p[1].procs) {
            moved += 1;
        }
    }
    assert!(moved > 0, "migration runs should relocate at least one job");
}

#[test]
fn segment_utilization_matches_reported() {
    let res = run(SchedulerKind::Easy, OverheadModel::None, 13);
    let work: i64 = res
        .segments
        .iter()
        .map(|s| (s.end - s.start) * s.procs.count() as i64)
        .sum();
    let first_submit = res
        .outcomes
        .iter()
        .map(|o| o.submit)
        .min()
        .expect("jobs exist");
    let last_completion = res
        .outcomes
        .iter()
        .map(|o| o.completion)
        .max()
        .expect("jobs exist");
    let makespan = last_completion - first_submit;
    let util = work as f64 / (SDSC.procs as f64 * makespan as f64);
    assert!(
        (util - res.utilization).abs() < 1e-9,
        "segment-derived utilization {util} vs reported {}",
        res.utilization
    );
}

#[test]
fn timelines_render_from_segments() {
    use selective_preemption::metrics::timeline::{busy_timeline, render_sparkline};
    let res = run(SchedulerKind::Tss { sf: 2.0 }, OverheadModel::None, 5);
    let intervals: Vec<(i64, i64, u32)> = res
        .segments
        .iter()
        .map(|s| (s.start.secs(), s.end.secs(), s.procs.count()))
        .collect();
    let t1 = res
        .outcomes
        .iter()
        .map(|o| o.completion.secs())
        .max()
        .expect("jobs exist");
    let series = busy_timeline(&intervals, SDSC.procs, 0, t1, 60);
    assert_eq!(series.len(), 60);
    assert!(series.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)));
    assert!(series.iter().any(|&v| v > 0.3), "machine is busy somewhere");
    let spark = render_sparkline(&series);
    assert_eq!(spark.chars().count(), 60);
}
