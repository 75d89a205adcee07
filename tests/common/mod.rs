//! Shared golden-trace machinery for the determinism suites, and the
//! fault-injected variants the schedule-equivalence suites run.
//!
//! `golden_determinism.rs` runs the cases through the kernel constructor
//! (`Simulator::traced_source`); `open_system.rs` replays the same cases
//! through the `TraceSource` + `RunBuilder` path. Both must hash to the
//! values in `tests/goldens/kernel_traces.txt` — keeping the case table
//! and the hash fold in one place is what makes that comparison
//! meaningful.
#![allow(dead_code)] // each test binary uses a subset of this module

use selective_preemption::prelude::*;

pub const GOLDEN_PATH: &str = "tests/goldens/kernel_traces.txt";

/// FNV-1a, 64-bit: stable across platforms and Rust versions (unlike
/// `DefaultHasher`, which documents no such guarantee).
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// One golden case: a scheduler spec string over a seed workload.
pub struct Case {
    pub label: &'static str,
    pub system: SystemPreset,
    pub spec: &'static str,
    pub jobs: usize,
    pub seed: u64,
    pub overhead: OverheadModel,
}

pub const fn case(
    label: &'static str,
    system: SystemPreset,
    spec: &'static str,
    jobs: usize,
    seed: u64,
    overhead: OverheadModel,
) -> Case {
    Case {
        label,
        system,
        spec,
        jobs,
        seed,
        overhead,
    }
}

/// The seed workloads: every scheme on the preemption-heavy SDSC machine,
/// plus the paper's headline schemes on CTC and one overhead-model run to
/// pin the drain/suspend paths.
pub fn cases() -> Vec<Case> {
    use sps_workload::traces::{CTC, SDSC};
    use OverheadModel::None as Free;
    vec![
        case("sdsc_fcfs", SDSC, "fcfs", 400, 11, Free),
        case("sdsc_cons", SDSC, "cons", 400, 11, Free),
        case("sdsc_ns", SDSC, "ns", 400, 11, Free),
        case("sdsc_flex2", SDSC, "flex:2", 400, 11, Free),
        case("sdsc_is", SDSC, "is", 400, 11, Free),
        case("sdsc_gang", SDSC, "gang", 400, 11, Free),
        case("sdsc_ss2", SDSC, "ss:2", 400, 11, Free),
        case("sdsc_tss2", SDSC, "tss:2", 400, 11, Free),
        case("ctc_ns", CTC, "ns", 600, 7, Free),
        case("ctc_ss2", CTC, "ss:2", 600, 7, Free),
        case("ctc_tss15", CTC, "tss:1.5", 600, 7, Free),
        case(
            "sdsc_ss2_drain",
            SDSC,
            "ss:2",
            300,
            5,
            OverheadModel::MemoryDrain { mb_per_sec: 2.0 },
        ),
    ]
}

/// Fold the trace bytes and the key `SimResult` fields into one hash —
/// anything a scheduling-behavior change could move is in here.
pub fn fold_hash(bytes: &[u8], result: &SimResult) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.write_u64(result.makespan as u64);
    h.write_u64(result.preemptions);
    h.write_u64(result.dropped_actions);
    h.write_u64(result.utilization.to_bits());
    h.write_u64(result.outcomes.len() as u64);
    for o in &result.outcomes {
        h.write_u64(o.id.0 as u64);
        h.write_u64(o.first_start.secs() as u64);
        h.write_u64(o.completion.secs() as u64);
        h.write_u64(u64::from(o.suspensions));
    }
    h.0
}

pub fn golden_file() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH)
}

pub fn load_goldens() -> Vec<(String, u64)> {
    let text = std::fs::read_to_string(golden_file())
        .expect("tests/goldens/kernel_traces.txt exists (bless with SPS_BLESS_GOLDENS=1)");
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (label, hash) = l.split_once(' ').expect("golden line is `label hash`");
            (
                label.to_string(),
                u64::from_str_radix(hash.trim(), 16).expect("golden hash is hex"),
            )
        })
        .collect()
}

/// `base` under fault injection with job crashes: each recovery policy,
/// then checkpointing and migration. `observed_schedule.rs` and
/// `sweep_equivalence.rs` run each one against the every-tick schedule.
pub fn fault_variants(base: &ExperimentConfig) -> Vec<(String, ExperimentConfig)> {
    let faults = FaultModel::proc_faults(1_000_000, 3_600, 5).with_job_crash(0.05);
    let mut variants: Vec<(String, ExperimentConfig)> = RecoveryPolicy::ALL
        .iter()
        .map(|&r| {
            let cfg = base.clone().with_faults(faults.with_recovery(r));
            (format!("{r} recovery"), cfg)
        })
        .collect();
    for mode in [PreemptionMode::Checkpoint, PreemptionMode::Migrate] {
        let cfg = base
            .clone()
            .with_faults(faults)
            .with_preemption(mode)
            .with_checkpoint(CheckpointModel::paper().with_interval(1_800));
        variants.push((format!("{} preemption", mode.name()), cfg));
    }
    variants
}
