//! Randomized property tests for the workload substrate: SWF round trips
//! over arbitrary job shapes, categorization totality, estimate-model
//! invariants, and load-scaling arithmetic. Seeded-random cases replace
//! the original `proptest` strategies so the workspace builds offline;
//! assertion messages carry the seed for reproduction.

use sps_simcore::{SimRng, SimTime};
use sps_workload::{
    load, swf, Category, CoarseCategory, EstimateModel, Job, JobId, RuntimeClass, WidthClass,
};

const CASES: u64 = 192;

fn random_job(rng: &mut SimRng) -> Job {
    let submit = rng.range_i64(0, 9_999_999);
    let run = rng.range_i64(1, 199_999);
    let factor = rng.range_f64(1.0, 40.0);
    let procs = rng.range_u32(1, 430);
    let mem = rng.range_u32(100, 1024);
    let estimate = ((run as f64 * factor) as i64).max(run);
    Job {
        id: JobId(0),
        submit: SimTime::new(submit),
        run,
        estimate,
        procs,
        mem_mb: mem,
    }
}

fn random_jobs(rng: &mut SimRng) -> Vec<Job> {
    let n = 1 + rng.index(59);
    let mut jobs: Vec<Job> = (0..n).map(|_| random_job(rng)).collect();
    jobs.sort_by_key(|j| j.submit);
    for (i, j) in jobs.iter_mut().enumerate() {
        j.id = JobId(i as u32);
    }
    jobs
}

/// write → parse reproduces every field the simulator consumes.
#[test]
fn swf_roundtrip_preserves_jobs() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(seed);
        let jobs = random_jobs(&mut rng);
        let text = swf::write(&jobs);
        let parsed = swf::parse(&text).expect("own output must parse");
        assert_eq!(parsed.warnings.skipped, 0, "seed {seed}");
        assert_eq!(parsed.jobs.len(), jobs.len(), "seed {seed}");
        for (a, b) in jobs.iter().zip(&parsed.jobs) {
            assert_eq!(a.submit, b.submit, "seed {seed}");
            assert_eq!(a.run, b.run, "seed {seed}");
            assert_eq!(a.estimate, b.estimate, "seed {seed}");
            assert_eq!(a.procs, b.procs, "seed {seed}");
            // Memory survives within the parser's clamp band.
            assert_eq!(a.mem_mb.clamp(100, 1024), b.mem_mb, "seed {seed}");
        }
    }
}

/// Every (run, procs) pair classifies into exactly one fine and one coarse
/// category, and the two grids are consistent.
#[test]
fn categorization_total_and_consistent() {
    for seed in 0..CASES * 4 {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xCA7);
        let run = rng.range_i64(1, 999_999);
        let procs = rng.range_u32(1, 1_999);
        let cat = Category::classify(run, procs);
        let coarse = CoarseCategory::classify(run, procs);
        // Fine → coarse projection: VS/S → Short iff run ≤ 1 h.
        let fine_short = matches!(cat.runtime, RuntimeClass::VeryShort | RuntimeClass::Short);
        let coarse_short = matches!(
            coarse,
            CoarseCategory::ShortNarrow | CoarseCategory::ShortWide
        );
        assert_eq!(fine_short, coarse_short, "seed {seed}");
        let fine_narrow = matches!(cat.width, WidthClass::Sequential | WidthClass::Narrow);
        let coarse_narrow = matches!(
            coarse,
            CoarseCategory::ShortNarrow | CoarseCategory::LongNarrow
        );
        assert_eq!(fine_narrow, coarse_narrow, "seed {seed}");
        // Round trip through the dense index.
        assert_eq!(Category::from_index(cat.index()), cat, "seed {seed}");
    }
}

/// Estimate models never underestimate and are idempotent in their
/// guarantees (estimate ≥ run survives re-application).
#[test]
fn estimate_models_never_underestimate() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xE57);
        let mut jobs = random_jobs(&mut rng);
        let well = rng.next_f64();
        let model_seed = rng.range_i64(0, 999) as u64;
        for model in [
            EstimateModel::Accurate,
            EstimateModel::Mixture {
                well_fraction: well,
                max_factor: 30.0,
            },
            EstimateModel::RoundedMixture {
                well_fraction: well,
                max_factor: 30.0,
            },
        ] {
            model.apply(&mut jobs, model_seed);
            for j in &jobs {
                assert!(j.estimate >= j.run, "seed {seed}: {model:?} underestimated");
            }
        }
    }
}

/// Load scaling divides inter-arrival gaps and preserves everything else;
/// factor 1 is identity.
#[test]
fn load_scaling_properties() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x10AD);
        let jobs = random_jobs(&mut rng);
        let factor = rng.range_f64(1.0, 4.0);
        let scaled = load::scaled(&jobs, factor);
        assert_eq!(scaled.len(), jobs.len(), "seed {seed}");
        let span = |js: &[Job]| {
            js.iter().map(|j| j.submit.secs()).max().unwrap()
                - js.iter().map(|j| j.submit.secs()).min().unwrap()
        };
        let (s0, s1) = (span(&jobs), span(&scaled));
        // Rounding gives ±1s per job; allow slack.
        let expect = (s0 as f64 / factor).round() as i64;
        assert!(
            (s1 - expect).abs() <= 2,
            "seed {seed}: span {s1} vs expected {expect}"
        );
        let identity = load::scaled(&jobs, 1.0);
        assert_eq!(identity, jobs, "seed {seed}");
    }
}
