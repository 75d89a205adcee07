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
//! (archive format → parser → simulator → per-category report).

use selective_preemption::core::experiment::SchedulerKind;
use selective_preemption::core::sim::Simulator;
use selective_preemption::metrics::table::render_comparison;
use selective_preemption::metrics::CategoryReport;
use selective_preemption::workload::traces::SDSC;
use selective_preemption::workload::{swf, SyntheticConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (text, procs, origin) = match args.as_slice() {
        [path, procs] => {
            let text = std::fs::read_to_string(path).expect("readable SWF file");
            let procs: u32 = procs.parse().expect("machine size in processors");
            (text, procs, path.clone())
        }
        [] => {
            // Self-contained demo: generate, serialize, re-parse.
            let jobs = SyntheticConfig::new(SDSC, 2024).with_jobs(1_500).generate();
            let text = swf::write(&jobs);
            let path = std::env::temp_dir().join("sps-demo.swf");
            std::fs::write(&path, &text).expect("writable temp dir");
            println!(
                "(no SWF supplied; wrote a synthetic demo log to {})\n",
                path.display()
            );
            (text, SDSC.procs, path.display().to_string())
        }
        _ => {
            eprintln!("usage: swf_replay [<log.swf> <machine_procs>]");
            std::process::exit(2);
        }
    };

    let mut trace = swf::parse(&text).expect("well-formed SWF");
    println!(
        "parsed {} usable jobs from {origin} ({} records skipped)",
        trace.jobs.len(),
        trace.skipped
    );
    // Drop jobs wider than the simulated machine (some archive logs
    // contain special partitions).
    let wide = trace.fit_to(procs);
    let jobs = trace.jobs;
    println!(
        "replaying {} jobs on {procs} processors ({wide} wider than the machine dropped)\n",
        jobs.len()
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
