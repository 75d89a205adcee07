//! The `sps` CLI turns an invalid configuration into a usage error: exit
//! status 2 and a message starting with `error: `, never a panic (exit
//! 101) and never a run over a meaningless configuration. `run`, `trace`
//! and `replay` check their configuration through
//! `ExperimentConfig::validate` before any simulation work starts.

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

#[test]
fn replay_rejects_a_machine_without_processors() {
    let log = std::env::temp_dir().join(format!("sps-cli-errors-procs-{}.swf", std::process::id()));
    std::fs::write(
        &log,
        "1 0 12 3600 16 -1 -1 16 7200 -1 1 3 5 -1 1 -1 -1 -1\n",
    )
    .expect("write SWF log");
    let path = log.display().to_string();
    let stderr = refused(&["replay", "--swf", &path, "--procs", "0", "--sched", "ns"]);
    let _ = std::fs::remove_file(&log);
    assert!(stderr.contains("at least 1 processor"), "{stderr}");
}
