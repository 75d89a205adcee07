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
    assert_eq!(parsed.warnings.skipped, 0);
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
    assert_eq!(parsed.warnings.skipped, 1, "cancelled job 2 skipped");
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

/// Run `sps` with `args`, asserting success; returns stdout and stderr.
fn sps(args: &[&str]) -> (String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sps"))
        .args(args)
        .output()
        .expect("sps runs");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    );
    assert!(out.status.success(), "sps {args:?}: {stderr}");
    (stdout, stderr)
}

/// Write `bytes` as an SWF log unique to `tag` and return its path.
fn temp_log(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
    let log = std::env::temp_dir().join(format!("sps-swf-{tag}-{}.swf", std::process::id()));
    std::fs::write(&log, bytes).expect("write SWF log");
    log
}

/// Both SWF commands read a log through one reader and one width rule,
/// and say so on one count line: `replay` on stdout, `sweep --swf` on
/// stderr before its grid header. The header comment is not UTF-8, and
/// comments are read undecoded.
#[test]
fn replay_and_swf_sweep_print_the_same_count_line() {
    let mut log = b"; Installation: Universit\xe4t\n".to_vec();
    let jobs = SyntheticConfig::new(SDSC, 4).with_jobs(300).generate();
    log.extend_from_slice(swf::write(&jobs).as_bytes());
    log.extend_from_slice(b"301 999999 0 -1 4 -1 -1 4 100 -1 0 -1 -1 -1 -1 -1 -1 -1\n");
    let wider = jobs.iter().filter(|j| j.procs > 32).count();
    assert!(wider > 0, "the log has jobs wider than the machine");
    let log = temp_log("count", &log);
    let path = log.display().to_string();
    let (replay, _) = sps(&["replay", "--swf", &path, "--procs", "32", "--sched", "ns"]);
    let (_, sweep) = sps(&["sweep", "--swf", &path, "--procs", "32", "--sched", "ns"]);
    let _ = std::fs::remove_file(&log);
    let want = format!(
        "{path}: {} usable jobs (1 skipped, {wider} wider than the machine), machine 32 procs",
        300 - wider
    );
    assert_eq!(replay.lines().next(), Some(want.as_str()), "{replay}");
    assert_eq!(sweep.lines().next(), Some(want.as_str()), "{sweep}");
}

/// `replay --load` compresses the log's arrivals as `sweep --swf --loads`
/// does.
#[test]
fn replay_load_matches_swf_sweep_load() {
    let jobs = SyntheticConfig::new(SDSC, 6).with_jobs(400).generate();
    let log = temp_log("load", swf::write(&jobs).as_bytes());
    let path = log.display().to_string();
    let replayed = |load: &str| {
        let (out, _) = sps(&[
            "replay", "--swf", &path, "--procs", "128", "--sched", "ss:2", "--load", load,
        ]);
        let line = out.lines().nth(2).expect("one result line");
        let tail = line
            .split("overall slowdown")
            .nth(1)
            .expect("slowdown column");
        let slowdown: f64 = tail.split_whitespace().next().unwrap().parse().unwrap();
        slowdown
    };
    let (csv, _) = sps(&[
        "sweep", "--swf", &path, "--procs", "128", "--sched", "ss:2", "--loads", "2.0", "--format",
        "csv",
    ]);
    let (base, loaded) = (replayed("1.0"), replayed("2.0"));
    let _ = std::fs::remove_file(&log);
    let mut rows = csv.lines().map(|l| l.split(',').collect::<Vec<_>>());
    let header = rows.next().expect("CSV header");
    let column = header.iter().position(|&h| h == "mean_slowdown").unwrap();
    let swept: f64 = rows.next().expect("one cell")[column].parse().unwrap();
    assert!(
        loaded > base,
        "load 2.0 must raise the slowdown: {base} vs {loaded}"
    );
    // `replay` prints two decimals, the CSV four.
    assert!(
        (loaded - swept).abs() <= 0.005 + 1e-9,
        "replay {loaded} vs sweep {swept}"
    );
}

/// `replay` reads its log once, so a pipe serves (`--swf <(zcat
/// LOG.swf.gz)`, `--swf /dev/stdin`); `sweep --swf` reopens the log for
/// every run and refuses one up front.
#[cfg(unix)]
#[test]
fn replay_reads_a_piped_log_and_swf_sweep_refuses_it() {
    use std::io::Write as _;
    use std::process::{Command, Output, Stdio};
    let jobs = SyntheticConfig::new(SDSC, 8).with_jobs(50).generate();
    let text = swf::write(&jobs);
    let piped = |command: &str| -> Output {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sps"))
            .args([command, "--swf", "/dev/stdin", "--procs", "128"])
            .args(["--sched", "ns"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("sps runs");
        // A refused sweep may exit before it reads the log.
        let _ = child.stdin.take().unwrap().write_all(text.as_bytes());
        child.wait_with_output().expect("sps exits")
    };
    let replay = piped("replay");
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert!(replay.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert_eq!(
        stdout.lines().next(),
        Some("/dev/stdin: 50 usable jobs (0 skipped, 0 wider than the machine), machine 128 procs"),
        "{stdout}"
    );
    let sweep = piped("sweep");
    let stderr = String::from_utf8_lossy(&sweep.stderr);
    assert_eq!(sweep.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: bad SWF log: /dev/stdin: not a regular file"),
        "{stderr}"
    );
}

/// One SWF data line: `job submit run width requested-time`, the other
/// fields missing.
fn line(job: u32, submit: &str, run: &str, width: &str, requested: &str) -> String {
    format!("{job} {submit} 0 {run} {width} -1 -1 {width} {requested} -1 1 -1 -1 -1 -1 -1 -1 -1\n")
}

/// Numbers the model cannot hold are errors naming their line and field.
/// A width past `u32::MAX` used to become a zero-processor job, and a run
/// time past `i64` (or `1e308`) a job that completed at its submit
/// instant.
#[test]
fn out_of_range_numbers_are_errors_naming_the_line() {
    let first = line(1, "0", "100", "4", "100");
    for (bad, field) in [
        (
            line(2, "10", "100", "4294967296", "100"),
            "(field 8) 4294967296",
        ),
        (line(2, "10", "9223372036854775807", "4", "-1"), "(field 4)"),
        (line(2, "10", "1e308", "4", "-1"), "(field 4) 1e308"),
        (line(2, "1099511627777", "100", "4", "100"), "(field 2)"),
        (line(2, "10", "100", "4", "2e12"), "(field 9) 2e12"),
    ] {
        let err = swf::parse(&format!("{first}{bad}")).unwrap_err();
        let shown = err.to_string();
        assert!(shown.starts_with("SWF line 2: "), "{bad}: {shown}");
        assert!(shown.contains(field), "{bad}: {shown}");
    }
}

/// A log at the bound, 2^40 s, simulates without overflow (tier-1 runs
/// this in a debug build, where overflow panics): a full-machine job
/// running for 2^40 s from just before the bound, and a half-width job
/// submitted at the bound while it runs, which the preemptive schedulers
/// let through by suspending it.
#[test]
fn a_log_at_the_time_bound_runs_without_overflow() {
    let bound = (1i64 << 40).to_string();
    let early = ((1i64 << 40) - 60).to_string();
    let text = line(1, &early, &bound, "128", &bound) + &line(2, &bound, "100", "64", "100");
    let parsed = swf::parse(&text).expect("a log at the bound imports");
    for kind in [
        SchedulerKind::Easy,
        SchedulerKind::ImmediateService,
        SchedulerKind::Ss { sf: 2.0 },
        SchedulerKind::Tss { sf: 2.0 },
    ] {
        let res = Simulator::new(parsed.jobs.clone(), 128, kind.build()).run();
        assert_eq!(res.outcomes.len(), 2, "{kind:?}");
        let last = res.outcomes.iter().map(|o| o.completion.secs()).max();
        assert!(last >= Some((1i64 << 41) - 60), "{kind:?}: {last:?}");
        let preemptive = kind != SchedulerKind::Easy;
        assert_eq!(res.preemptions > 0, preemptive, "{kind:?}");
    }
}
