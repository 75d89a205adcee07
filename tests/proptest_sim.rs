//! Randomized integration tests: arbitrary job sets through every
//! scheduler, checking the end-to-end invariants that unit tests can only
//! sample. Seeded-random cases replace the original `proptest`
//! strategies (the workspace builds offline); assertion messages carry
//! the seed for deterministic reproduction.

use selective_preemption::prelude::*;
use sps_simcore::SimRng;

const PROCS: u32 = 24;
const CASES: u64 = 64;

fn random_jobs(rng: &mut SimRng) -> Vec<Job> {
    let n = 1 + rng.index(39);
    let mut raw: Vec<(i64, i64, f64, u32)> = (0..n)
        .map(|_| {
            (
                rng.range_i64(0, 19_999),
                rng.range_i64(10, 4_999),
                rng.range_f64(1.0, 4.0),
                rng.range_u32(1, PROCS),
            )
        })
        .collect();
    raw.sort_by_key(|r| r.0);
    raw.iter()
        .enumerate()
        .map(|(i, &(submit, run, est_factor, procs))| {
            let est = ((run as f64 * est_factor) as i64).max(run);
            Job::new(i as u32, submit, run, est, procs)
        })
        .collect()
}

fn schedulers() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Fcfs,
        SchedulerKind::Conservative,
        SchedulerKind::Easy,
        SchedulerKind::ImmediateService,
        SchedulerKind::Ss { sf: 1.5 },
        SchedulerKind::Tss { sf: 2.0 },
    ]
}

/// Every scheduler finishes every job, with sane per-job accounting.
#[test]
fn all_jobs_complete_with_sane_accounting() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(seed);
        let jobs = random_jobs(&mut rng);
        for kind in schedulers() {
            let res = Simulator::new(jobs.clone(), PROCS, kind.build()).run();
            assert_eq!(res.outcomes.len(), jobs.len(), "seed {seed}: {kind:?}");
            for o in &res.outcomes {
                let job = &jobs[o.id.index()];
                assert_eq!(o.run, job.run, "seed {seed}: {kind:?}");
                assert_eq!(o.procs, job.procs, "seed {seed}: {kind:?}");
                assert!(o.first_start >= job.submit, "seed {seed}: {kind:?}");
                assert!(
                    o.completion - job.submit >= job.run + o.overhead,
                    "seed {seed}: {kind:?}"
                );
                assert!(o.slowdown() >= 1.0, "seed {seed}: {kind:?}");
            }
        }
    }
}

/// Processor-time conservation: integrating occupancy over the run equals
/// the total work (checked via utilization × capacity × makespan ≥ work,
/// and work identical across schedulers).
#[test]
fn work_is_identical_across_schedulers() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x22);
        let jobs = random_jobs(&mut rng);
        let expect: i64 = jobs.iter().map(Job::work).sum();
        for kind in schedulers() {
            let res = Simulator::new(jobs.clone(), PROCS, kind.build()).run();
            let got: i64 = res.outcomes.iter().map(|o| o.work()).sum();
            assert_eq!(got, expect, "seed {seed}: {kind:?}");
        }
    }
}

/// Non-preemptive schedulers: zero suspensions, zero dropped actions, and
/// FCFS is never beaten on *head-of-queue fairness*: under FCFS, start
/// times follow arrival order whenever widths are equal.
#[test]
fn fcfs_preserves_arrival_order_for_equal_widths() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x33);
        let mut jobs = random_jobs(&mut rng);
        // Make all widths equal so order must be strict.
        for j in &mut jobs {
            j.procs = 4;
        }
        let res = Simulator::new(jobs.clone(), PROCS, SchedulerKind::Fcfs.build()).run();
        assert_eq!(res.preemptions, 0, "seed {seed}");
        let mut starts: Vec<(JobId, SimTime)> =
            res.outcomes.iter().map(|o| (o.id, o.first_start)).collect();
        starts.sort_by_key(|&(id, _)| id);
        for w in starts.windows(2) {
            assert!(
                w[0].1 <= w[1].1,
                "seed {seed}: FCFS started {:?} after {:?}",
                w[0],
                w[1]
            );
        }
    }
}

/// Backfilling essentially never hurts the schedule end-to-end. EASY is
/// not strictly makespan-optimal against FCFS — a backfilled job can
/// occasionally produce a worse final packing (on these 40-job instances
/// a single late backfill can stretch the tail by ~10%) — but the
/// head-of-queue reservation bounds the damage, while the improvement
/// over a fragmented FCFS schedule can be huge.
#[test]
fn easy_makespan_close_to_or_better_than_fcfs() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x44);
        let jobs = random_jobs(&mut rng);
        let fcfs = Simulator::new(jobs.clone(), PROCS, SchedulerKind::Fcfs.build()).run();
        let easy = Simulator::new(jobs, PROCS, SchedulerKind::Easy.build()).run();
        assert!(
            easy.makespan as f64 <= fcfs.makespan as f64 * 1.15 + 600.0,
            "seed {seed}: EASY {} much worse than FCFS {}",
            easy.makespan,
            fcfs.makespan
        );
    }
}

/// With accurate estimates, conservative backfilling start times are
/// honoured: no job starts after the guarantee computed at its arrival
/// (monotone compression is asserted inside the scheduler; here we check
/// the observable: conservative never starves anyone relative to a full
/// drain of earlier arrivals).
#[test]
fn conservative_bounded_by_serial_drain() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x55);
        let jobs = random_jobs(&mut rng);
        let res = Simulator::new(jobs.clone(), PROCS, SchedulerKind::Conservative.build()).run();
        // Serial drain bound: sum of all estimates + last submit is a hard
        // upper bound on any reservation-based schedule.
        let bound: i64 = jobs.iter().map(|j| j.estimate).sum::<i64>()
            + jobs.iter().map(|j| j.submit.secs()).max().unwrap_or(0);
        for o in &res.outcomes {
            assert!(
                o.completion.secs() <= bound,
                "seed {seed}: job {} finished at {} beyond the serial bound {}",
                o.id,
                o.completion.secs(),
                bound
            );
        }
    }
}

/// Suspension accounting: each suspension charges at most two overhead
/// transitions, and a job with no suspensions has none.
#[test]
fn overhead_accounting_matches_suspensions() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x66);
        let jobs = random_jobs(&mut rng);
        let res = Simulator::traced_source(
            Box::new(TraceSource::new(jobs)),
            PROCS,
            SchedulerKind::Ss { sf: 1.5 }.build(),
            OverheadModel::paper(),
            sps_core::sim::DEFAULT_TICK_PERIOD,
            NullSink,
        )
        .run();
        for o in &res.outcomes {
            if o.suspensions == 0 {
                assert_eq!(o.overhead, 0, "seed {seed}");
            } else {
                assert!(o.overhead > 0, "seed {seed}");
                assert!(o.overhead <= 2 * o.suspensions as i64 * 513, "seed {seed}");
            }
        }
    }
}
