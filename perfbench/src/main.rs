//! `perfbench`: the simulator's benchmark. One command runs one named
//! workload for a seed and prints its metrics; see `README.md` beside
//! this package for the workloads, the metrics and what each should
//! move.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up builds the inputs from the seed (several times, before and
//! after the timed phase; the median is `setup_s`). The timed phase
//! repeats the workload's closed batch, chunk by chunk, until `--seconds`
//! have passed, with no decorator attached and a reference kernel timed
//! between chunks. Output checks follow. With `--trace 1` a traced pass
//! then repeats the batch once with every seam decorated and prints
//! per-layer metrics instead of the end-to-end ones. The last line of
//! standard output is one JSON object.

mod adapter;
mod stats;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use adapter::{Prepared, Round, TracedPass, Workload};

/// Where set-up writes the SWF log and the traced pass its spans,
/// relative to the working directory.
const OUT_DIR: &str = ".bench_out";
/// Set-up samples taken before the timed phase, and again after it;
/// `setup_s` is the median of both sets.
const SETUP_SAMPLES: usize = 6;
/// Each set-up sample repeats set-up until this much time has passed and
/// reports the mean, so a set-up of a few milliseconds is not timed once.
const SETUP_SAMPLE_MIN: Duration = Duration::from_millis(40);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e.to_string()))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The base trace seed of a benchmark seed: splitmix64, cut to 40 bits
/// so `base + replication` cannot overflow. Nearby benchmark seeds get
/// unrelated traces, so runs on seeds 1..10 are ten independent samples.
fn base_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 24
}

/// The reference kernel's time on an uncontended core of the development
/// host (a 2-vCPU Intel Xeon virtual machine), milliseconds: the host
/// speed `jobs_per_s` and `setup_s` are scaled to. Both are compared only
/// with runs of the same benchmark, so the constant sets their scale,
/// never a comparison.
const REFERENCE_NOMINAL_MS: f64 = 0.7;

/// `wall_s` of work done between reference measurements `before_ms` and
/// `after_ms`, in seconds at the reference host speed.
fn reference_s(wall_s: f64, before_ms: f64, after_ms: f64) -> f64 {
    wall_s * REFERENCE_NOMINAL_MS / ((before_ms + after_ms) / 2.0)
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out + "}}"
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let base = base_seed(args.seed);

    let mut setup_samples = Vec::with_capacity(2 * SETUP_SAMPLES);
    let mut prepared = None;
    for _ in 0..SETUP_SAMPLES {
        let (sample, p) = setup_sample(args.workload, base, out_dir)?;
        setup_samples.push(sample);
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up sample");
    let mut result = measure(args, &prepared, out_dir);
    // Set up again after the timed phase, so that the median spans it
    // rather than one moment of the host. swf_stream rewrites the same
    // log, which nothing reads any more.
    if result.is_ok() {
        for _ in 0..SETUP_SAMPLES {
            match setup_sample(args.workload, base, out_dir) {
                Ok((sample, _)) => setup_samples.push(sample),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
    }
    prepared.cleanup();
    let (correct, attempted, failed, mut metrics) = result?;
    let samples: Vec<String> = setup_samples.iter().map(|s| format!("{s:.3e}")).collect();
    println!("setup_s samples: {}", samples.join(" "));
    if correct && !args.trace {
        metrics.push(("setup_s", stats::median(&setup_samples), "s"));
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One set-up sample: as many set-ups as fit in `SETUP_SAMPLE_MIN` (one,
/// for swf_stream's log write), their mean in seconds at the reference
/// host speed, and the last set-up's inputs.
fn setup_sample(workload: Workload, base: u64, out_dir: &Path) -> Result<(f64, Prepared), String> {
    let before = stats::reference_ms(1);
    let t = Instant::now();
    let mut reps = 0u32;
    let mut prepared = None;
    while reps == 0 || t.elapsed() < SETUP_SAMPLE_MIN {
        prepared = Some(
            adapter::prepare(workload, base, out_dir).map_err(|e| format!("set-up failed: {e}"))?,
        );
        reps += 1;
    }
    let wall_s = t.elapsed().as_secs_f64() / f64::from(reps);
    let after = stats::reference_ms(1);
    Ok((
        reference_s(wall_s, before, after),
        prepared.expect("at least one set-up"),
    ))
}

/// The timed phase, the checks and (with `--trace 1`) the traced pass.
fn measure(
    args: &Args,
    prepared: &Prepared,
    out_dir: &Path,
) -> Result<(bool, usize, usize, Metrics), String> {
    let name = args.workload.name();
    let workers = prepared.workers();
    let rss_reset = stats::reset_peak_rss();
    let start = Instant::now();
    // The chunks run in turn, round after round, until the first round is
    // complete and `--seconds` have passed; the last round may stop after
    // any chunk. The reference kernel runs before the first chunk and
    // after every chunk, on as many threads as the chunk ran on, so each
    // chunk's wall time is scaled by the host's speed just before and
    // just after it.
    let chunks = prepared.chunks();
    let mut reps: Vec<Vec<Round>> = (0..chunks).map(|_| Vec::new()).collect();
    let mut chunk_ref_s: Vec<Vec<f64>> = vec![Vec::new(); chunks];
    let mut probe_ms = vec![stats::reference_ms(workers)];
    let mut peak_rss_mb = None;
    let mut k = 0;
    while reps[chunks - 1].is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let part = prepared.run_chunk(k)?;
        let after = stats::reference_ms(workers);
        chunk_ref_s[k].push(reference_s(
            part.wall_s,
            probe_ms[probe_ms.len() - 1],
            after,
        ));
        probe_ms.push(after);
        reps[k].push(part);
        k = (k + 1) % chunks;
        // The peak of one pass over the batch, as a user running it once
        // sees it. Over later rounds the peak drifts up by chance (on
        // swf_stream its spread over seeds doubled).
        if k == 0 && peak_rss_mb.is_none() {
            peak_rss_mb = Some(stats::peak_rss_mb());
        }
    }
    let timed_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb.flatten();
    // A chunk's median over its repetitions, summed over the chunks: the
    // batch's time at the reference host speed.
    let batch_ref_s: f64 = chunk_ref_s.iter().map(|s| stats::median(s)).sum();
    let batch_wall_s: f64 = reps
        .iter()
        .map(|r| stats::median(&r.iter().map(|p| p.wall_s).collect::<Vec<_>>()))
        .sum();
    let runs_done: usize = reps.iter().flatten().map(|p| p.attempted).sum();
    println!(
        "{name}: {runs_done} runs ({:.2} rounds of {} runs in {chunks} chunks) in {timed_s:.3} s; \
         batch wall time {batch_wall_s:.3} s, at reference speed {batch_ref_s:.3} s; \
         host.probe_ms (reference kernel) min {:.3} median {:.3} max {:.3}{}",
        runs_done as f64 / prepared.runs() as f64,
        prepared.runs(),
        probe_ms.iter().copied().fold(f64::INFINITY, f64::min),
        stats::median(&probe_ms),
        probe_ms.iter().copied().fold(0.0, f64::max),
        if rss_reset {
            ""
        } else {
            "; VmHWM not reset, peak RSS includes set-up"
        }
    );

    let failed: usize = reps.iter().flatten().map(|p| p.failed).sum();
    for failure in reps.iter().flatten().flat_map(|p| &p.failures) {
        eprintln!("failed run: {failure}");
    }
    let mut problems = Vec::new();
    if reps.iter().any(|r| r.iter().any(|p| !p.same_output(&r[0]))) {
        problems.push("repetitions of a chunk produced different output".into());
    }
    let first = Round::merge(reps.iter().map(|r| r[0].clone()).collect());
    let checked = match prepared.check(&first) {
        Ok(c) => Some(c),
        Err(e) => {
            problems.push(e);
            None
        }
    };

    // Exact for the seed, but their spread over ten seeds is 4-35% at
    // these batch sizes, so they are per-layer context rather than gated
    // end-to-end metrics.
    let slowdowns: Metrics = vec![
        ("sim_slowdown_mean", first.slowdown_mean, "ratio"),
        ("sim_slowdown_worst", first.slowdown_worst, "ratio"),
    ];
    let metrics = if !args.trace {
        for (name, value, unit) in &slowdowns {
            println!("{name}: {value} {unit}");
        }
        println!(
            "unscaled jobs/s (each chunk's median wall time): {:.1}",
            first.jobs as f64 / batch_wall_s
        );
        let mut m: Metrics = vec![("jobs_per_s", first.jobs as f64 / batch_ref_s, "jobs/s")];
        match peak_rss_mb {
            Some(mb) => m.push(("peak_rss_mb", mb, "MB")),
            None => eprintln!("note: /proc is unavailable; peak_rss_mb is missing"),
        }
        m.push((
            "ok_ratio",
            (runs_done - failed) as f64 / runs_done as f64,
            "fraction",
        ));
        m
    } else {
        match &checked {
            None => Vec::new(),
            Some(checked) => match prepared.traced_pass(&first, checked) {
                Err(e) => {
                    problems.push(format!("traced pass refused: {e}"));
                    Vec::new()
                }
                Ok(traced) => {
                    let spans = out_dir.join(format!("spans-{name}-{}.jsonl", args.seed));
                    let lines: String = traced.spans.iter().map(|s| s.to_json() + "\n").collect();
                    std::fs::write(&spans, lines)
                        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
                    let mut m = per_layer(&reps, &traced, stats::median(&probe_ms));
                    m.extend(slowdowns);
                    for line in roles(args.workload, &m) {
                        println!("{line}");
                    }
                    m
                }
            },
        }
    };

    for p in &problems {
        eprintln!("check failed: {p}");
    }
    let correct = problems.is_empty();
    Ok((
        correct,
        runs_done,
        failed,
        if correct { metrics } else { Vec::new() },
    ))
}

/// The per-layer metrics of a traced invocation. Sweep-layer figures come
/// from every repetition of every chunk in the plain pass; everything
/// else from the traced pass.
fn per_layer(reps: &[Vec<Round>], t: &TracedPass, probe_ms: f64) -> Metrics {
    let tally = &t.tally;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let parts = || reps.iter().flatten();
    let run_ms: Vec<f64> = parts()
        .flat_map(|p| p.run_ns.iter().map(|&ns| ns as f64 * 1e-6))
        .collect();
    let busy: u64 = parts().map(|p| p.busy_ns).sum();
    let idle: u64 = parts().map(|p| p.idle_ns).sum();
    // Per batch: each chunk's mean wall time beyond its workers' mean
    // busy time, summed over the chunks.
    let tail_s: f64 = reps
        .iter()
        .map(|r| {
            r.iter()
                .map(|p| p.wall_s - p.busy_ns as f64 * 1e-9 / p.workers.max(1) as f64)
                .sum::<f64>()
                / r.len() as f64
        })
        .sum();
    let attempted: usize = parts().map(|p| p.attempted).sum();
    let steals: u64 = parts().map(|p| p.steals).sum();
    vec![
        ("sched.decide_calls", tally.decide.calls as f64, "count"),
        ("sched.decide_s", tally.decide.secs(), "s"),
        (
            "sched.decide_us_p50",
            tally.decide_hist.quantile_ns(0.5) * 1e-3,
            "us",
        ),
        (
            "sched.decide_us_p99",
            tally.decide_hist.quantile_ns(0.99) * 1e-3,
            "us",
        ),
        (
            "sched.acted_ratio",
            ratio(tally.acted as f64, tally.decide.calls as f64),
            "fraction",
        ),
        ("sched.suspends", tally.suspends as f64, "count"),
        ("sched.hooks_s", tally.hooks.secs(), "s"),
        ("sim.events", t.events as f64, "count"),
        (
            "sim.events_per_job",
            ratio(t.events as f64, tally.jobs as f64),
            "events/job",
        ),
        ("sim.run_s", t.run_ns as f64 * 1e-9, "s"),
        ("sim.self_s", t.self_ns as f64 * 1e-9, "s"),
        ("sim.reclaimed_slots", t.reclaimed_slots as f64, "count"),
        (
            "sim.observed_events_ratio",
            ratio(t.events as f64, t.plain_events as f64),
            "ratio",
        ),
        ("workload.gen_s", t.gen_ns as f64 * 1e-9, "s"),
        ("workload.next_job_s", tally.next_job.secs(), "s"),
        ("workload.jobs", tally.jobs as f64, "count"),
        (
            "workload.parse_mb_per_s",
            ratio(t.parsed_bytes as f64 / 1e6, tally.next_job.secs()),
            "MB/s",
        ),
        (
            "workload.cache_hit_ratio",
            ratio(t.cache_hits as f64, t.cache_requests as f64),
            "fraction",
        ),
        ("metrics.fold_s", t.fold_ns as f64 * 1e-9, "s"),
        ("sweep.run_ms_p50", stats::quantile(&run_ms, 0.5), "ms"),
        ("sweep.run_ms_p90", stats::quantile(&run_ms, 0.9), "ms"),
        (
            "sweep.busy_share",
            ratio(busy as f64, (busy + idle) as f64),
            "fraction",
        ),
        ("sweep.tail_s", tail_s, "s"),
        (
            "sweep.steal_ratio",
            ratio(steals as f64, attempted as f64),
            "fraction",
        ),
        ("trace.records", tally.trace.calls as f64, "count"),
        ("trace.bytes", t.trace_bytes as f64, "bytes"),
        ("trace.record_s", tally.trace.secs(), "s"),
        ("telemetry.obs", tally.telemetry.calls as f64, "count"),
        ("telemetry.record_s", tally.telemetry.secs(), "s"),
        (
            "traced.overhead_pct",
            100.0 * (ratio(t.traced_ns as f64, t.reference_ns as f64) - 1.0),
            "%",
        ),
        ("host.probe_ms", probe_ms, "ms"),
    ]
}

/// Whether the workload loaded the layer it was chosen for. Reported,
/// never enforced: a workload that misses its role says so.
fn roles(workload: Workload, m: &Metrics) -> Vec<String> {
    let get = |name: &str| {
        m.iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |&(_, v, _)| v)
    };
    let run_s = get("sim.run_s");
    let decide_share = get("sched.decide_s") / run_s;
    let next_job_share = get("workload.next_job_s") / run_s;
    let (trace_s, telemetry_s) = (get("trace.record_s"), get("telemetry.record_s"));
    let mut checks = vec![match workload {
        Workload::PaperGrid => (
            "sched.decide_s/sim.run_s < 0.60",
            decide_share,
            decide_share < 0.6,
        ),
        Workload::CtcSaturated => (
            "sched.decide_s/sim.run_s > 0.50",
            decide_share,
            decide_share > 0.5,
        ),
        _ => (
            "sched.decide_s/sim.run_s (no expectation)",
            decide_share,
            true,
        ),
    }];
    let swf = workload == Workload::SwfStream;
    checks.push((
        if swf {
            "workload.next_job_s/sim.run_s >= 0.05"
        } else {
            "workload.next_job_s/sim.run_s < 0.05"
        },
        next_job_share,
        (next_job_share >= 0.05) == swf,
    ));
    let is_observed = workload == Workload::ObservedRuns;
    checks.push(if is_observed {
        (
            "trace.record_s and telemetry.record_s > 0",
            trace_s + telemetry_s,
            trace_s > 0.0 && telemetry_s > 0.0,
        )
    } else {
        (
            "trace.record_s and telemetry.record_s == 0",
            trace_s + telemetry_s,
            trace_s == 0.0 && telemetry_s == 0.0,
        )
    });
    if is_observed {
        let r = get("sim.observed_events_ratio");
        checks.push(("sim.observed_events_ratio > 1", r, r > 1.0));
    }
    checks
        .into_iter()
        .map(|(what, value, met)| {
            format!(
                "role {}: {what}: {value:.4} {}",
                workload.name(),
                if met { "met" } else { "MISSED" }
            )
        })
        .collect()
}
