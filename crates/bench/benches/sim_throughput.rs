//! Simulator throughput: wall time to schedule a full CTC-scale trace
//! under each policy. This is the "can you actually use this simulator"
//! benchmark — a month of machine time should simulate in well under a
//! second. Also times the same run with a `JsonlSink` writing to a sink
//! buffer, to bound the tracing overhead (the `NullSink` default must be
//! free).

use sps_bench::Harness;
use sps_core::experiment::SchedulerKind;
use sps_core::overhead::OverheadModel;
use sps_core::sim::{Simulator, DEFAULT_TICK_PERIOD};
use sps_trace::{JsonlSink, NullSink, TraceSink};
use sps_workload::traces::{CTC, SDSC};
use sps_workload::{Job, SyntheticConfig, TraceSource};

fn trace(n: usize) -> Vec<Job> {
    SyntheticConfig::new(CTC, 42).with_jobs(n).generate()
}

fn sdsc_trace(n: usize) -> Vec<Job> {
    SyntheticConfig::new(SDSC, 42).with_jobs(n).generate()
}

fn policies() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Fcfs,
        SchedulerKind::Conservative,
        SchedulerKind::Easy,
        SchedulerKind::ImmediateService,
        SchedulerKind::Ss { sf: 2.0 },
        SchedulerKind::Tss { sf: 2.0 },
    ]
}

/// Preemptions of one SDSC run of `jobs` under `kind`, tracing into `sink`.
fn traced_preemptions<S: TraceSink>(jobs: &[Job], kind: SchedulerKind, sink: S) -> u64 {
    Simulator::traced_source(
        Box::new(TraceSource::new(jobs.to_vec())),
        SDSC.procs,
        kind.build(),
        OverheadModel::None,
        DEFAULT_TICK_PERIOD,
        sink,
    )
    .run()
    .preemptions
}

fn main() {
    let h = Harness::new("sim_throughput");

    let jobs = trace(2_000);
    for kind in policies() {
        h.bench(&format!("ctc_2000_jobs/{kind}"), || {
            let res = Simulator::new(jobs.clone(), CTC.procs, kind.build()).run();
            res.outcomes.len()
        });
    }

    // The 128-processor machine exercises the preemption paths far more
    // (its synthetic mix suspends an order of magnitude more often).
    let jobs = sdsc_trace(2_000);
    for kind in [
        SchedulerKind::Easy,
        SchedulerKind::Ss { sf: 1.5 },
        SchedulerKind::Tss { sf: 2.0 },
    ] {
        h.bench(&format!("sdsc_2000_jobs/{kind}"), || {
            let res = Simulator::new(jobs.clone(), SDSC.procs, kind.build()).run();
            res.preemptions
        });
    }

    // Tracing overhead: NullSink (statically inlined away) vs JsonlSink
    // writing into an in-process buffer.
    let kind = SchedulerKind::Ss { sf: 2.0 };
    h.bench("sdsc_2000_jobs/ss2_nullsink", || {
        traced_preemptions(&jobs, kind, NullSink)
    });
    h.bench("sdsc_2000_jobs/ss2_jsonlsink_buffer", || {
        traced_preemptions(&jobs, kind, JsonlSink::new(Vec::<u8>::new()))
    });
}
