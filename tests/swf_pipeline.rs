//! End-to-end SWF pipeline: the simulator must produce identical results
//! whether a trace arrives as in-memory jobs or through the archive file
//! format — this is what makes the "drop in the real CTC log" pathway
//! trustworthy.

use selective_preemption::prelude::*;
use sps_workload::swf;
use sps_workload::traces::SDSC;

fn fingerprint(res: &SimResult) -> Vec<(JobId, SimTime, SimTime, u32)> {
    let mut v: Vec<_> = res
        .outcomes
        .iter()
        .map(|o| (o.id, o.first_start, o.completion, o.suspensions))
        .collect();
    v.sort_by_key(|&(id, _, _, _)| id);
    v
}

#[test]
fn simulation_identical_through_swf_roundtrip() {
    let jobs = SyntheticConfig::new(SDSC, 99).with_jobs(600).generate();
    let text = swf::write(&jobs);
    let parsed = swf::parse(&text).expect("own output parses");
    assert_eq!(parsed.skipped, 0);
    assert_eq!(parsed.jobs.len(), jobs.len());

    for kind in [SchedulerKind::Easy, SchedulerKind::Tss { sf: 2.0 }] {
        let direct = Simulator::new(jobs.clone(), SDSC.procs, kind.build()).run();
        let via_swf = Simulator::new(parsed.jobs.clone(), SDSC.procs, kind.build()).run();
        assert_eq!(
            fingerprint(&direct),
            fingerprint(&via_swf),
            "{kind:?}: SWF round trip changed the schedule"
        );
    }
}

#[test]
fn estimates_survive_roundtrip() {
    let mut jobs = SyntheticConfig::new(SDSC, 5).with_jobs(300).generate();
    EstimateModel::paper_mixture().apply(&mut jobs, 1);
    let parsed = swf::parse(&swf::write(&jobs)).expect("parses");
    for (a, b) in jobs.iter().zip(&parsed.jobs) {
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.well_estimated(), b.well_estimated());
    }
}

#[test]
fn foreign_log_with_noise_is_importable() {
    // A log resembling real archive files: comments, cancelled jobs,
    // missing fields, fractional CPU columns.
    let text = "\
; Version: 2.2
; Computer: IBM SP2
; MaxProcs: 128
;
1 0 12 3600 16 3590.5 -1 16 7200 -1 1 3 5 -1 1 -1 -1 -1
2 30 -1 -1 -1 -1 -1 8 600 -1 5 3 5 -1 1 -1 -1 -1
3 60 0 60 1 59.0 -1 -1 -1 -1 1 4 5 -1 1 -1 -1 -1
4 90 5 900 32 890.1 -1 32 800 -1 1 4 5 -1 1 -1 -1 -1
";
    let parsed = swf::parse(text).expect("parses");
    assert_eq!(parsed.skipped, 1, "cancelled job 2 skipped");
    assert_eq!(parsed.jobs.len(), 3);
    // Job 4's estimate (800) is below its run time (900): clamped.
    let j4 = parsed
        .jobs
        .iter()
        .find(|j| j.procs == 32)
        .expect("job 4 imported");
    assert_eq!(j4.estimate, 900);
    // And the import is simulatable.
    let res = Simulator::new(parsed.jobs, 128, SchedulerKind::Easy.build()).run();
    assert_eq!(res.outcomes.len(), 3);
}

/// `sps replay` drops the jobs wider than `--procs` (the job table is
/// indexed densely) and says how many it dropped, beside the records the
/// parser skipped.
#[test]
fn replay_reports_jobs_wider_than_the_machine() {
    let log = std::env::temp_dir().join(format!("sps-replay-wide-{}.swf", std::process::id()));
    std::fs::write(
        &log,
        "\
1 0 0 10 4 -1 -1 4 10 -1 1 -1 -1 -1 -1 -1 -1 -1
2 5 0 10 64 -1 -1 64 10 -1 1 -1 -1 -1 -1 -1 -1 -1
3 9 0 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1
",
    )
    .expect("write SWF log");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sps"))
        .args(["replay", "--swf"])
        .arg(&log)
        .args(["--procs", "32", "--sched", "ns"])
        .output()
        .expect("sps runs");
    let _ = std::fs::remove_file(&log);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("2 usable jobs (0 skipped, 1 wider than the machine)"),
        "{stdout}"
    );
}
