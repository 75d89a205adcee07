//! Golden determinism: every scheduler must produce bit-identical traces
//! and results across refactors of the simulation kernel.
//!
//! Each case runs a seed workload through one scheduler with full JSONL
//! tracing, then hashes the trace bytes together with the key `SimResult`
//! fields (outcomes, makespan, preemption counts). The hashes are checked
//! against `tests/goldens/kernel_traces.txt`, which was captured before
//! the incremental-kernel refactor; any divergence means scheduling
//! *behavior* changed, not just implementation.
//!
//! The case table and hash fold live in `tests/common/mod.rs`, shared
//! with `open_system.rs` which replays the same cases through the
//! `TraceSource` + `RunBuilder` path against the same golden file.
//!
//! To re-bless after an intentional behavior change:
//!
//! ```text
//! SPS_BLESS_GOLDENS=1 cargo test --test golden_determinism
//! ```

mod common;

use common::{cases, fold_hash, golden_file, load_goldens, Case};
use selective_preemption::prelude::*;

/// Run one case fully traced and fold everything observable into a hash.
fn run_case(c: &Case) -> u64 {
    let kind: SchedulerKind = c.spec.parse().expect("golden spec parses");
    let jobs = SyntheticConfig::new(c.system, c.seed)
        .with_jobs(c.jobs)
        .generate();
    let mut sink = JsonlSink::new(Vec::<u8>::new());
    let result = Simulator::traced_source(
        Box::new(TraceSource::new(jobs)),
        c.system.procs,
        kind.build(),
        c.overhead,
        sps_core::sim::DEFAULT_TICK_PERIOD,
        &mut sink,
    )
    .run();
    let bytes = sink.finish().expect("in-memory sink never fails");
    fold_hash(&bytes, &result)
}

#[test]
fn trace_hashes_match_pre_refactor_goldens() {
    let cases = cases();
    if std::env::var_os("SPS_BLESS_GOLDENS").is_some() {
        let mut out = String::from(
            "# Trace hashes per scheduler on the seed workloads.\n\
             # Captured pre-refactor; regenerate with SPS_BLESS_GOLDENS=1\n\
             # cargo test --test golden_determinism\n",
        );
        for c in &cases {
            let hash = run_case(c);
            out.push_str(&format!("{} {:016x}\n", c.label, hash));
        }
        std::fs::create_dir_all(golden_file().parent().unwrap()).unwrap();
        std::fs::write(golden_file(), out).unwrap();
        eprintln!("blessed {} golden hashes", cases.len());
        return;
    }

    let goldens = load_goldens();
    assert_eq!(
        goldens.len(),
        cases.len(),
        "golden file out of sync with case list — re-bless"
    );
    let mut failures = Vec::new();
    for c in &cases {
        let expect = goldens
            .iter()
            .find(|(l, _)| l == c.label)
            .unwrap_or_else(|| panic!("no golden for {}", c.label))
            .1;
        let got = run_case(c);
        if got != expect {
            failures.push(format!(
                "{}: got {:016x}, golden {:016x}",
                c.label, got, expect
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "trace hashes diverged from pre-refactor goldens:\n{}",
        failures.join("\n")
    );
}

/// Running the same case twice in-process must agree with itself even if
/// the golden file is stale — catches nondeterminism (hash-map iteration,
/// uninitialized scratch) independent of the blessed values.
#[test]
fn back_to_back_runs_are_bit_identical() {
    for c in cases().iter().take(4) {
        assert_eq!(run_case(c), run_case(c), "{} is nondeterministic", c.label);
    }
}
