//! The `sps` CLI turns an invalid configuration into a usage error: exit
//! status 2 and a message starting with `error: `, never a panic (exit
//! 101) and never a run over a meaningless configuration. `run`, `trace`
//! and `replay` check their configuration through
//! `ExperimentConfig::validate`, and `sweep` its grid through the spec's
//! `validate`, before any simulation work starts or any output is printed.
//! A flag only the CLI knows (`--diurnal`) is checked as it is parsed.

use std::process::Command;

/// Run `sps` with `args` and return its exit code and stderr.
fn sps(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sps"))
        .args(args)
        .output()
        .expect("sps runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

/// Assert that `args` is refused as a usage error and return its stderr.
fn refused(args: &[&str]) -> String {
    let (code, stderr) = sps(args);
    assert_eq!(code, Some(2), "sps {args:?} must exit 2; stderr:\n{stderr}");
    assert!(
        stderr.starts_with("error: "),
        "sps {args:?} must print a usage error; stderr:\n{stderr}"
    );
    stderr
}

/// A trace path that is never written: validation fails first.
fn unwritten(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("sps-cli-errors-{tag}-{}.jsonl", std::process::id()))
        .display()
        .to_string()
}

#[test]
fn run_rejects_a_nan_load() {
    let stderr = refused(&[
        "run", "--system", "SDSC", "--sched", "ss:2", "--load", "nan",
    ]);
    assert!(stderr.contains("load_factor"), "{stderr}");
}

#[test]
fn run_rejects_an_infinite_load() {
    let stderr = refused(&[
        "run", "--system", "SDSC", "--sched", "ss:2", "--load", "inf",
    ]);
    assert!(stderr.contains("load_factor"), "{stderr}");
}

/// The diurnal amplitude must lie in [0, 1): the generator panics above
/// it, and a negative or NaN amplitude would run without modulation.
#[test]
fn run_rejects_a_diurnal_amplitude_outside_the_unit_interval() {
    for amplitude in ["5", "-0.5", "nan"] {
        let stderr = refused(&[
            "run",
            "--system",
            "SDSC",
            "--jobs",
            "200",
            "--sched",
            "ss:2",
            "--diurnal",
            amplitude,
        ]);
        assert!(stderr.contains("--diurnal"), "{amplitude}: {stderr}");
    }
}

#[test]
fn trace_rejects_a_nan_load() {
    let out = unwritten("nan");
    refused(&[
        "trace", "--system", "SDSC", "--sched", "ss:2", "--load", "nan", "--out", &out,
    ]);
    assert!(!std::path::Path::new(&out).exists());
}

#[test]
fn trace_rejects_open_arrivals_without_a_stop() {
    let out = unwritten("open");
    let stderr = refused(&[
        "trace",
        "--system",
        "SDSC",
        "--sched",
        "ss:2",
        "--arrivals",
        "poisson",
        "--out",
        &out,
    ]);
    assert!(
        stderr.contains("30d") && stderr.contains("5000j"),
        "the message must say what a stopping condition looks like: {stderr}"
    );
    assert!(!std::path::Path::new(&out).exists());
}

/// Write a one-job SWF log unique to `tag` and return its path.
fn one_job_log(tag: &str) -> std::path::PathBuf {
    let log = std::env::temp_dir().join(format!("sps-cli-errors-{tag}-{}.swf", std::process::id()));
    std::fs::write(
        &log,
        "1 0 12 3600 16 -1 -1 16 7200 -1 1 3 5 -1 1 -1 -1 -1\n",
    )
    .expect("write SWF log");
    log
}

#[test]
fn replay_rejects_a_machine_without_processors() {
    let log = one_job_log("procs");
    let path = log.display().to_string();
    let stderr = refused(&["replay", "--swf", &path, "--procs", "0", "--sched", "ns"]);
    let _ = std::fs::remove_file(&log);
    assert!(stderr.contains("at least 1 processor"), "{stderr}");
}

#[test]
fn swf_sweep_rejects_a_machine_without_processors() {
    let log = one_job_log("sweep-procs");
    let path = log.display().to_string();
    let stderr = refused(&["sweep", "--swf", &path, "--procs", "0", "--sched", "ns"]);
    let _ = std::fs::remove_file(&log);
    assert!(stderr.contains("at least 1 processor"), "{stderr}");
}

/// Job ids are 32-bit: a count past 2^32 is a usage error, not a
/// terabyte allocation (or, just past 2^32, wrapped ids).
#[test]
fn run_rejects_more_jobs_than_job_ids() {
    for jobs in ["99999999999", "4294967297"] {
        let stderr = refused(&["run", "--system", "SDSC", "--sched", "ns", "--jobs", jobs]);
        assert!(stderr.contains("n_jobs must be at most"), "{stderr}");
    }
}

#[test]
fn sweep_rejects_zero_jobs() {
    let stderr = refused(&["sweep", "--system", "SDSC", "--sched", "ns", "--jobs", "0"]);
    assert!(stderr.contains("n_jobs"), "{stderr}");
}
