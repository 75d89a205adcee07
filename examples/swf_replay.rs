//! Replay a Standard Workload Format log through the simulator.
//!
//! The paper's experiments ran on the CTC/SDSC/KTH logs from Feitelson's
//! Parallel Workloads Archive. Those logs are not redistributable here,
//! but anyone holding one can reproduce the original experiments exactly:
//!
//! ```text
//! cargo run --release --example swf_replay -- path/to/CTC-SP2.swf 430
//! ```
//!
//! Without arguments, the example writes a synthetic trace to a
//! temporary SWF file and replays it, demonstrating the full round trip
//! (archive format → streaming reader → width rule → simulator →
//! per-category report). The log goes through the same reader and shaper
//! as `sps replay` and `sps sweep --swf`.

use selective_preemption::core::experiment::SchedulerKind;
use selective_preemption::core::sim::Simulator;
use selective_preemption::metrics::table::render_comparison;
use selective_preemption::metrics::CategoryReport;
use selective_preemption::workload::traces::SDSC;
use selective_preemption::workload::{
    swf, Job, JobSource, ShapedSource, StreamingSwfSource, SyntheticConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, procs) = match args.as_slice() {
        [path, procs] => {
            let procs: u32 = procs.parse().expect("machine size in processors");
            (std::path::PathBuf::from(path), procs)
        }
        [] => {
            // Self-contained demo: generate, serialize, re-read.
            let jobs = SyntheticConfig::new(SDSC, 2024).with_jobs(1_500).generate();
            let path = std::env::temp_dir().join("sps-demo.swf");
            std::fs::write(&path, swf::write(&jobs)).expect("writable temp dir");
            println!(
                "(no SWF supplied; wrote a synthetic demo log to {})\n",
                path.display()
            );
            (path, SDSC.procs)
        }
        _ => {
            eprintln!("usage: swf_replay [<log.swf> <machine_procs>]");
            std::process::exit(2);
        }
    };

    // Jobs wider than the simulated machine (some archive logs contain
    // special partitions) are dropped and counted; the log's own arrival
    // times and estimates are kept.
    let log = StreamingSwfSource::open(&path).expect("readable SWF file");
    let mut shaped = ShapedSource::new(log, 1.0, None, 0, procs);
    let jobs: Vec<Job> = std::iter::from_fn(|| shaped.next_job()).collect();
    if let Some(e) = shaped.error() {
        eprintln!("{}: {e}", path.display());
        std::process::exit(1);
    }
    println!(
        "replaying {} usable jobs from {} on {procs} processors \
         ({} records skipped, {} wider than the machine dropped)\n",
        jobs.len(),
        path.display(),
        shaped.inner().warnings().skipped,
        shaped.wider(),
    );

    let mut grids = Vec::new();
    for kind in [SchedulerKind::Easy, SchedulerKind::Tss { sf: 2.0 }] {
        let res = Simulator::new(jobs.clone(), procs, kind.build()).run();
        let report = CategoryReport::from_outcomes(&res.outcomes);
        println!(
            "{:<12} overall slowdown {:>7.2}, utilization {:>5.1}%, preemptions {}",
            kind.label(),
            report.overall.mean_slowdown,
            res.utilization * 100.0,
            res.preemptions
        );
        grids.push((kind.label(), report.mean_slowdown_grid()));
    }
    let named: Vec<(&str, [f64; 16])> = grids.iter().map(|(n, g)| (n.as_str(), *g)).collect();
    println!(
        "\n{}",
        render_comparison("average slowdown per category", &named)
    );
}
