//! The `sps` CLI turns an invalid configuration into a usage error: exit
//! status 2 and a message starting with `error: `, never a panic (exit
//! 101) and never a run over a meaningless configuration. Every command
//! refuses a flag it does not read. `run`, `trace` and `replay` check
//! their configuration through `ExperimentConfig::validate`, and `sweep`
//! its grid through the spec's `validate`, before any simulation work
//! starts or any output is printed. A flag only the CLI knows
//! (`--diurnal`) is checked as it is parsed. `replay` and `sweep --swf`
//! read an SWF log once, through the reader every SWF run uses, before
//! any run, and refuse a malformed one alike. A file error prints its one
//! `error: ` line without the usage text.

use std::process::Command;

/// Run `sps` with `args` and return its exit code, stdout and stderr.
fn sps(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sps"))
        .args(args)
        .output()
        .expect("sps runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

/// Assert that `args` is refused as a usage error before anything is
/// printed to stdout, and return its stderr.
fn refused(args: &[&str]) -> String {
    let (code, stdout, stderr) = sps(args);
    assert_eq!(code, Some(2), "sps {args:?} must exit 2; stderr:\n{stderr}");
    assert!(
        stderr.starts_with("error: "),
        "sps {args:?} must print a usage error; stderr:\n{stderr}"
    );
    assert!(stdout.is_empty(), "sps {args:?} printed:\n{stdout}");
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

/// An SWF log of one job.
const ONE_JOB: &str = "1 0 12 3600 16 -1 -1 16 7200 -1 1 3 5 -1 1 -1 -1 -1\n";

/// Write a one-job SWF log unique to `tag` and return its path.
fn one_job_log(tag: &str) -> std::path::PathBuf {
    let log = std::env::temp_dir().join(format!("sps-cli-errors-{tag}-{}.swf", std::process::id()));
    std::fs::write(&log, ONE_JOB).expect("write SWF log");
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

/// `replay` refuses an SWF number the model cannot hold, naming its line,
/// before any run: a width past `u32::MAX` and a run time past `i64`.
#[test]
fn replay_rejects_out_of_range_swf_numbers() {
    for (tag, bad, field) in [
        (
            "wide",
            "2 10 0 100 4294967296 -1 -1 4294967296 100 -1 1 -1 -1 -1 -1 -1 -1 -1",
            "field 8",
        ),
        (
            "long",
            "2 10 0 9223372036854775807 4 -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1 -1",
            "field 4",
        ),
    ] {
        let log =
            std::env::temp_dir().join(format!("sps-cli-errors-{tag}-{}.swf", std::process::id()));
        std::fs::write(
            &log,
            format!("1 0 0 100 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n{bad}\n"),
        )
        .expect("write SWF log");
        let path = log.display().to_string();
        let stderr = refused(&["replay", "--swf", &path, "--procs", "8", "--sched", "ns"]);
        let _ = std::fs::remove_file(&log);
        assert!(stderr.starts_with("error: SWF line 2: "), "{stderr}");
        assert!(stderr.contains(field), "{stderr}");
    }
}

/// `replay` and `sweep --swf` read a log through one reader, so a bad log
/// gets one refusal from both, before any run: exit 2 and the same
/// `error: …` line, alone on stderr, never a panic.
#[test]
fn replay_and_swf_sweep_refuse_a_bad_log_alike() {
    let ok = b"1 0 0 100 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n".as_slice();
    let tmp = Scratch::new("bad");
    let dir = &tmp.0;
    let cases: [(&str, &[u8], &str); 3] = [
        (
            "field",
            b"2 10 0 100 4 -1 -1 4 1x0 -1 1 -1 -1 -1 -1 -1 -1 -1\n",
            "error: SWF line 2: non-numeric field \"1x0\"",
        ),
        (
            "order",
            b"2 -1 0 100 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n\
              3 60 0 100 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n\
              4 30 0 100 4 -1 -1 4 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n",
            "error: SWF line 4: submit time 30 is before the previous job's 60",
        ),
        (
            "utf8",
            b"2 10 0 100 4 -1 -1 4 100 -1 1 \xe4 -1 -1 -1 -1 -1 -1\n",
            "error: SWF line 2: not UTF-8",
        ),
    ];
    let mut logs: Vec<(std::path::PathBuf, String)> = cases
        .iter()
        .map(|(tag, bad, want)| {
            let log = dir.join(format!("{tag}.swf"));
            std::fs::write(&log, [ok, bad].concat()).expect("write SWF log");
            (log, want.to_string())
        })
        .collect();
    // `File::open` accepts a directory; both commands must refuse it.
    let dir_log = dir.join("dir.swf");
    std::fs::create_dir_all(&dir_log).expect("mkdir");
    let want = format!("error: bad SWF log: {}: is a directory", dir_log.display());
    logs.push((dir_log, want));
    for (log, want) in &logs {
        let path = log.display().to_string();
        let lines: Vec<String> = ["replay", "sweep"]
            .iter()
            .map(|command| {
                let (code, _, stderr) =
                    sps(&[command, "--swf", &path, "--procs", "8", "--sched", "ns"]);
                assert_eq!(code, Some(2), "{command} {path}: {stderr}");
                assert!(!stderr.contains("panicked"), "{command} {path}: {stderr}");
                assert_eq!(stderr.lines().count(), 1, "{command} {path}: {stderr}");
                stderr.lines().next().unwrap_or_default().to_string()
            })
            .collect();
        assert!(lines[0].starts_with(want.as_str()), "{path}: {}", lines[0]);
        assert_eq!(
            lines[0], lines[1],
            "{path}: replay and sweep --swf disagree"
        );
    }
}

/// A directory for the paths a case names, removed when dropped, so a
/// case that runs by mistake leaves no file behind.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("sps-cli-errors-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).display().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every command refuses a flag it does not read, naming the flag and
/// what does not read it, before it prints or simulates anything. Each
/// base command line runs with each of its extra flags in turn; `F`, `P`
/// and `LOG` stand for a file, a prefix and a one-job SWF log. `replay`
/// applies `--load`, `--estimates` and `--seed` to the log the way
/// `sweep --swf` does, and refuses the synthetic-workload, grid and
/// report-output flags, which mean nothing for a replay.
#[test]
fn every_command_refuses_flags_it_does_not_read() {
    let tmp = Scratch::new("refuse");
    let (file, prefix, log) = (tmp.path("out"), tmp.path("prefix"), tmp.path("one.swf"));
    std::fs::write(&log, ONE_JOB).expect("write SWF log");
    let argv = |line: &str| -> Vec<String> {
        let path = |w| match w {
            "F" => file.clone(),
            "P" => prefix.clone(),
            "LOG" => log.clone(),
            w => w.to_string(),
        };
        line.split_whitespace().map(path).collect()
    };
    let cases: [(&str, &str, &[&str]); 10] = [
        (
            "run --system SDSC --sched ns --jobs 200",
            "run",
            &[
                "--loads 1,2",
                "--reps 3",
                "--budget 1",
                "--retries 1",
                "--readahead 5",
                "--format csv",
                "--out F",
                "--prom P",
                "--top",
                "--progress",
                "--procs 9",
                "--swf F",
            ],
        ),
        (
            "run --system SDSC --sched ns --arrivals poisson --until 1d",
            "an open-system run",
            &["--csv P", "--timeline F", "--worst"],
        ),
        (
            "sweep --system SDSC --sched ns --jobs 100",
            "sweep",
            &["--worst", "--csv P", "--prom P"],
        ),
        (
            "sweep --system SDSC --sched ns --jobs 100",
            "a synthetic sweep",
            &["--procs 8", "--readahead 5"],
        ),
        (
            "sweep --swf LOG --procs 8 --sched ns",
            "sweep",
            &["--worst", "--csv P", "--prom P"],
        ),
        (
            "sweep --swf LOG --procs 8 --sched ns",
            "an SWF sweep",
            &["--mtbf 1000", "--until 1d"],
        ),
        (
            "report --system SDSC --sched ns --jobs 100",
            "report",
            &[
                "--diurnal 0.8",
                "--timeline F",
                "--format csv",
                "--top",
                "--procs 4",
            ],
        ),
        (
            "report --system SDSC --sched ns --jobs 100",
            "report without --loads",
            &["--reps 9", "--budget 1"],
        ),
        (
            "replay --swf LOG --procs 32 --sched ns",
            "an SWF replay",
            &[
                "--system SDSC",
                "--jobs 5",
                "--diurnal 0.5",
                "--arrivals poisson",
                "--loads 1,2",
                "--reps 2",
                "--budget 5",
                "--retries 1",
                "--readahead 64",
                "--format csv",
                "--out F",
                "--prom P",
                "--progress",
                "--top",
            ],
        ),
        (
            "trace --system SDSC --sched ns --jobs 100 --out F",
            "trace",
            &[
                "--threads 3",
                "--worst",
                "--csv P",
                "--timeline F",
                "--loads 1,2",
                "--reps 4",
                "--prom P",
            ],
        ),
    ];
    for (base, target, extras) in cases {
        for extra in extras {
            let args = argv(&format!("{base} {extra}"));
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            let stderr = refused(&args);
            let flag = extra.split(' ').next().unwrap_or_default();
            let first = stderr.lines().next().unwrap_or_default();
            assert_eq!(first, format!("error: {flag} does not apply to {target}"));
        }
    }
    // `--jobs` sizes a closed trace; beside open arrivals the cross-flag
    // check refuses it, in its own words.
    for line in [
        "run --system SDSC --sched ns",
        "sweep --system SDSC --sched ns --loads 0.8",
        "trace --system SDSC --sched ns --out F",
    ] {
        let args = argv(&format!("{line} --arrivals poisson --until 1d --jobs 5"));
        refused(&args.iter().map(String::as_str).collect::<Vec<_>>());
    }
    assert!(
        !std::path::Path::new(&file).exists(),
        "a refused command wrote {file}"
    );
}

/// `sweep` refuses what it cannot honour before it prints its grid
/// header or runs: an unknown `--format`, and `--load` beside `--loads`,
/// which would be dropped. `report` reads both load flags.
#[test]
fn sweep_refuses_what_it_cannot_honour_before_it_runs() {
    let base = [
        "sweep", "--system", "SDSC", "--sched", "ns", "--jobs", "100",
    ];
    for extra in [
        &["--format", "xml"][..],
        &["--load", "0.5", "--loads", "1.0"],
    ] {
        let stderr = refused(&[&base[..], extra].concat());
        assert!(!stderr.contains("cells x"), "{stderr}");
    }
}

/// A file that cannot be read or written is refused in one `error: `
/// line: the command line is fine, so no usage text follows.
#[test]
fn file_errors_print_one_line() {
    let tmp = Scratch::new("files");
    let missing = tmp.path("missing/t.jsonl");
    for args in [
        &[
            "trace", "--system", "SDSC", "--sched", "ns", "--jobs", "50", "--out", &missing,
        ][..],
        &["validate", &missing],
    ] {
        let stderr = refused(args);
        assert!(stderr.starts_with("error: cannot "), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
    }
}

/// A reader that closes stdout early (`sps … | head -1`) ends the command
/// quietly: exit 0 and no panic, though the rest of its output comes
/// after the pipe is gone.
#[cfg(unix)]
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    use selective_preemption::prelude::SyntheticConfig;
    use std::io::BufRead as _;
    use std::process::Stdio;
    let tmp = Scratch::new("pipe");
    let log = tmp.path("big.swf");
    let jobs = SyntheticConfig::new(sps_workload::traces::SDSC, 3)
        .with_jobs(5000)
        .generate();
    std::fs::write(&log, sps_workload::swf::write(&jobs)).expect("write SWF log");
    let run = [
        "run", "--system", "SDSC", "--sched", "ns", "--sched", "ss:2", "--jobs", "5000",
    ];
    let replay = [
        "replay", "--swf", &log, "--procs", "128", "--sched", "ns", "--sched", "ss:2",
    ];
    for args in [&run[..], &replay] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sps"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("sps runs");
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("stdout"));
        let mut first = String::new();
        stdout.read_line(&mut first).expect("one line");
        drop(stdout);
        let out = child.wait_with_output().expect("sps exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "sps {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "sps {args:?}: {stderr}");
    }
}
