//! # selective-preemption
//!
//! Facade crate for the reproduction of *"Selective Preemption Strategies
//! for Parallel Job Scheduling"* (Kettimuthu, Subramani, Srinivasan,
//! Gopalsamy, Panda, Sadayappan — ICPP 2002 / IJHPCN).
//!
//! It re-exports the public API of the workspace crates so downstream users
//! can depend on a single crate:
//!
//! * [`simcore`] — deterministic discrete-event engine,
//! * [`cluster`] — processor-set-accurate machine model,
//! * [`workload`] — SWF traces, synthetic generators, job categorization,
//! * [`metrics`] — bounded slowdown / turnaround / utilization reporting,
//! * [`trace`] — zero-cost event-trace instrumentation, sinks, and the
//!   replay validator,
//! * [`telemetry`] — metric registry, online scheduler-health detectors,
//!   and the Prometheus/JSON exporters behind `sps report`,
//! * [`core`] — the simulator and the schedulers themselves (FCFS,
//!   conservative & EASY backfilling, Immediate Service, and the paper's
//!   Selective Suspension and Tunable Selective Suspension).
//!
//! See `examples/quickstart.rs` for a five-minute tour.
//!
//! ```
//! use selective_preemption::prelude::*;
//! use selective_preemption::workload::traces::SDSC;
//!
//! // Compare the paper's No-Suspension baseline with Selective Suspension
//! // on the same 200-job calibrated synthetic trace.
//! let ns = ExperimentConfig::new(SDSC, SchedulerKind::Easy).with_jobs(200).run();
//! let ss = ExperimentConfig::new(SDSC, SchedulerKind::Ss { sf: 2.0 }).with_jobs(200).run();
//! assert_eq!(ns.report.overall.count, 200);
//! assert!(ss.report.overall.mean_slowdown <= ns.report.overall.mean_slowdown);
//! ```

pub use sps_cluster as cluster;
pub use sps_core as core;
pub use sps_metrics as metrics;
pub use sps_simcore as simcore;
pub use sps_telemetry as telemetry;
pub use sps_trace as trace;
pub use sps_workload as workload;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use sps_cluster::{Cluster, ProcSet};
    pub use sps_core::admission::AdmissionModel;
    pub use sps_core::checkpoint::{CheckpointModel, PreemptionMode};
    pub use sps_core::experiment::{
        default_threads, ConfigError, ExperimentConfig, RunError, RunResult, SchedulerKind,
    };
    pub use sps_core::faults::{FaultModel, RecoveryPolicy};
    pub use sps_core::overhead::OverheadModel;
    pub use sps_core::runner::{BatchRunner, RunBuilder};
    pub use sps_core::sim::{AbortReason, RunStatus, RunUntil, SimResult, Simulator, StopReason};
    pub use sps_core::sweep::{
        run_sweep, run_sweep_observed, CellStats, Ci, RunSummary, SweepProgress, SweepReport,
        SweepSpec,
    };
    pub use sps_metrics::{
        goodput, CategoryReport, FaultSummary, JobOutcome, P2Quantile, RejectionSummary,
        StreamingStats, WindowedReport,
    };
    pub use sps_simcore::{SimTime, HOUR, MINUTE};
    pub use sps_telemetry::{
        HealthConfig, HealthReport, HealthSummary, NullTelemetry, Obs, Telemetry, TelemetrySink,
    };
    pub use sps_trace::{CsvSink, JsonlSink, MemorySink, NullSink, TraceRecord, TraceSink};
    pub use sps_workload::{
        parse_secs, ArrivalSpec, Category, CoarseCategory, EstimateModel, Job, JobId, JobSource,
        OpenSource, RuntimeClass, SyntheticConfig, SystemPreset, TraceCache, TraceKey, TraceSource,
        WidthClass,
    };
}
