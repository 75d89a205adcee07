//! Experiment driver: configuration → simulation → per-category report.
//!
//! One [`ExperimentConfig`] fully determines a run (machine, synthetic
//! trace seed, load factor, estimate model, overhead model, scheduler,
//! speed map, arrival process, stopping condition, warmup window), so
//! every number in EXPERIMENTS.md is reproducible bit-for-bit and every
//! trace header reproduces its run. The harness compares several schedulers on the *same*
//! trace by varying only [`ExperimentConfig::scheduler`];
//! [`BatchRunner`](crate::runner::BatchRunner) fans a batch of
//! configurations out over OS threads (simulations are independent and
//! CPU-bound).
//!
//! The module is split along its three concerns:
//!
//! * [`config`](self) — [`SchedulerKind`], [`ExperimentConfig`] and its
//!   JSON round-trip, [`RunResult`],
//! * `validate` — [`ConfigError`] and the pre-run structural checks,
//! * `builders` — the thread-pool batch seam ([`RunError`],
//!   [`default_threads`]) that `runner::BatchRunner` and the sweep
//!   harness drive.

mod builders;
mod config;
mod validate;

pub use builders::{default_threads, RunError, ShardStats, WorkerSpan};
pub use config::{ExperimentConfig, ParseSchedulerError, RunResult, SchedulerKind};
pub use validate::{ConfigError, MAX_JOBS};

pub(crate) use builders::{batch_workers, run_batch, ShardBoard};
