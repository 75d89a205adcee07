//! The thread-pool batch seam: [`RunError`], [`default_threads`], and the
//! one batch loop ([`run_batch`]) that
//! [`BatchRunner`](crate::runner::BatchRunner) and the sweep engines
//! drive. Work is dispatched from one shared counter: each idle worker
//! takes the next unclaimed index in input order, so a worker waits only
//! once every run has been handed out, and a slow run never holds queued
//! work behind it. Per-configuration `catch_unwind` keeps one poisoned
//! cell from voiding a whole grid.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sps_workload::SwfError;

use super::{ConfigError, ExperimentConfig};

/// Per-worker shard counters for one batch: what each worker of the pool
/// actually did. Collected on a [`ShardBoard`] when the caller asks for
/// one (the sweep and mega-sweep engines always do) and surfaced through
/// `SweepReport::workers` and the live `SweepProgress::workers`
/// snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardStats {
    /// Worker slot (0-based).
    pub worker: usize,
    /// Cells this worker ran to a successful result.
    pub cells_done: u64,
    /// Cells this worker ran to a terminal failure (panicked after
    /// retries, invalid, or skipped on an exhausted wall budget).
    pub cells_failed: u64,
    /// Always 0: every run comes from one shared counter, so no worker
    /// takes work queued for another. perfbench still reads the field for
    /// its `sweep.steal_ratio`.
    pub steals_succeeded: u64,
    /// Wall time spent inside runner calls, nanoseconds.
    pub busy_ns: u64,
    /// Wall time spent outside runner calls (dispatch, result hand-off,
    /// waiting), nanoseconds.
    pub idle_ns: u64,
    /// Peak resident set (VmHWM, kB) observed after this worker's cells.
    /// Process-wide — the per-worker column shows *when* the high-water
    /// mark moved, not a private footprint.
    pub peak_rss_kb: u64,
}

impl ShardStats {
    /// Fraction of the worker's wall time spent inside runner calls.
    pub fn busy_frac(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

/// One cell execution on a worker lane, for timeline export: which worker
/// ran batch item `index`, when (relative to the board epoch), for how
/// long, and whether it succeeded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkerSpan {
    /// Worker slot (0-based).
    pub worker: usize,
    /// Batch index of the cell.
    pub index: usize,
    /// Start, nanoseconds since the board epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Whether the cell produced an `Ok` result.
    pub ok: bool,
}

/// Bound on retained [`WorkerSpan`]s per batch: a mega-sweep has few
/// cells but a pathological grid could have millions, and the board must
/// stay O(small).
const WORKER_SPAN_CAP: usize = 65_536;

/// Shared telemetry board for one batch: per-worker [`ShardStats`] slots
/// plus the worker-lane span log, all keyed to one epoch so run-loop
/// phase spans recorded against the same epoch line up in the exported
/// timeline.
pub(crate) struct ShardBoard {
    epoch: Instant,
    shards: Vec<Mutex<ShardStats>>,
    spans: Mutex<Vec<WorkerSpan>>,
}

impl ShardBoard {
    pub(crate) fn new(workers: usize) -> Self {
        ShardBoard {
            epoch: Instant::now(),
            shards: (0..workers.max(1))
                .map(|w| {
                    Mutex::new(ShardStats {
                        worker: w,
                        ..ShardStats::default()
                    })
                })
                .collect(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The instant worker-span and (shared-epoch) phase-span timestamps
    /// are measured from.
    pub(crate) fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Copy out the current per-worker counters (live snapshot — workers
    /// keep updating their slots).
    pub(crate) fn snapshot(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|m| *m.lock().expect("shard poisoned"))
            .collect()
    }

    /// Drain the worker-lane span log.
    pub(crate) fn take_spans(&self) -> Vec<WorkerSpan> {
        std::mem::take(&mut *self.spans.lock().expect("spans poisoned"))
    }

    fn push_span(&self, span: WorkerSpan) {
        let mut spans = self.spans.lock().expect("spans poisoned");
        if spans.len() < WORKER_SPAN_CAP {
            spans.push(span);
        }
    }
}

/// Why one configuration in a batch produced no result.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum RunError {
    /// The configuration failed [`ExperimentConfig::validate`].
    Invalid(ConfigError),
    /// The simulation panicked on every attempt; the last payload message
    /// and the attempt count are attached. Other configurations in the
    /// batch are unaffected.
    Panicked {
        /// The last attempt's panic payload message.
        msg: String,
        /// How many times the configuration was tried (1 without retries).
        attempts: u32,
    },
    /// The batch's wall-clock budget ran out before this configuration
    /// started ([`crate::sweep::SweepSpec::with_wall_budget`]); the run
    /// was skipped so the rest of the grid could report partial results.
    BudgetExhausted,
    /// The run's job source ended on an error ([`JobSource::error`]): a
    /// malformed log line, an out-of-order submit or a failed read, named
    /// by its line. Retries re-run only runs that panic, so this one is
    /// not retried: a bad line fails every attempt alike, and a failed
    /// read is reported as it happened.
    ///
    /// [`JobSource::error`]: sps_workload::JobSource::error
    Source(SwfError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Invalid(e) => write!(f, "invalid config: {e}"),
            RunError::Panicked { msg, attempts: 1 } => {
                write!(f, "simulation panicked: {msg}")
            }
            RunError::Panicked { msg, attempts } => {
                write!(f, "simulation panicked on all {attempts} attempts: {msg}")
            }
            RunError::BudgetExhausted => f.write_str("wall budget exhausted before the run"),
            RunError::Source(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

/// The worker-thread count batch entry points use when the caller doesn't
/// pass one: the `SPS_THREADS` environment variable if set to a positive
/// integer, otherwise everything the OS reports.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("SPS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// The worker count [`run_batch`] actually spawns for a batch of `n`
/// items: callers sizing a [`ShardBoard`] must use the same clamp.
pub(crate) fn batch_workers(threads: usize, n: usize) -> usize {
    threads.max(1).min(n.max(1))
}

/// The batch loop behind [`BatchRunner`](crate::runner::BatchRunner) and
/// the sweep engines: run `runner(worker, config)` for every configuration
/// on `threads` workers and return one result per configuration, in input
/// order. A runner reports a failed run as its own [`RunError`].
///
/// Workers claim indices from one shared counter, in input order, and
/// send `(index, result)` pairs over a channel; the caller's thread
/// reassembles them in input order, so results are identical for any
/// worker count. The runner receives its worker slot so profiled runs
/// can tag their spans.
///
/// * **Failures.** A configuration that fails
///   [`ExperimentConfig::validate`] yields [`RunError::Invalid`]; one
///   whose runner panics is retried up to `retries` more times (linear
///   25 ms backoff, on the worker thread) before surfacing
///   [`RunError::Panicked`] with the attempt count. Panic messages are
///   prefixed with the configuration's scheduler spec so a poisoned cell
///   in a large grid is identifiable from the error alone.
/// * **Deadline.** When `deadline` is set, a configuration whose turn
///   comes up after it is skipped with [`RunError::BudgetExhausted`]; the
///   batch drains gracefully and the caller aggregates whatever completed
///   in time. In-flight runs are not interrupted here — the sweep harness
///   caps their per-run watchdog to the remaining budget.
/// * **Observation.** `observe(index, result)` runs on the caller's
///   thread once per *terminal* outcome in completion order — a panicked,
///   invalid or skipped cell is observed exactly like a successful one, so
///   progress accounting never stalls. A [`ShardBoard`], when provided,
///   collects per-worker counters and worker-lane spans; it only
///   observes.
pub(crate) fn run_batch<T, F, O>(
    configs: Vec<ExperimentConfig>,
    threads: usize,
    retries: u32,
    deadline: Option<Instant>,
    board: Option<&ShardBoard>,
    runner: F,
    mut observe: O,
) -> Vec<Result<T, RunError>>
where
    T: Send,
    F: Fn(usize, &Arc<ExperimentConfig>) -> Result<T, RunError> + Sync,
    O: FnMut(usize, &Result<T, RunError>),
{
    let configs: Vec<Arc<ExperimentConfig>> = configs.into_iter().map(Arc::new).collect();
    let n = configs.len();
    let workers = batch_workers(threads, n);
    debug_assert!(
        board.is_none_or(|b| b.shards.len() >= workers),
        "shard board sized below the worker count"
    );
    // The next unclaimed index. `Relaxed` suffices: the counter publishes
    // no data, and the configurations it indexes were written before the
    // workers were spawned.
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Result<T, RunError>)>();
    let (configs_ref, next_ref) = (&configs, &next);
    let runner_ref = &runner;
    std::thread::scope(|scope| {
        for me in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                let worker_start = Instant::now();
                let mut busy = Duration::ZERO;
                loop {
                    let i = next_ref.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let cfg = &configs_ref[i];
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        if let Some(b) = board {
                            b.shards[me].lock().expect("shard poisoned").cells_failed += 1;
                        }
                        if tx.send((i, Err(RunError::BudgetExhausted))).is_err() {
                            break;
                        }
                        continue;
                    }
                    let run_start = Instant::now();
                    let result = match cfg.validate() {
                        Err(e) => Err(RunError::Invalid(e)),
                        Ok(()) => {
                            let mut attempts = 0u32;
                            loop {
                                attempts += 1;
                                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    runner_ref(me, cfg)
                                })) {
                                    Ok(result) => break result,
                                    Err(payload) => {
                                        let msg = format!(
                                            "[{}] {}",
                                            cfg.scheduler,
                                            panic_message(&*payload)
                                        );
                                        if attempts > retries {
                                            break Err(RunError::Panicked { msg, attempts });
                                        }
                                        std::thread::sleep(std::time::Duration::from_millis(
                                            25 * attempts as u64,
                                        ));
                                    }
                                }
                            }
                        }
                    };
                    let dur = run_start.elapsed();
                    busy += dur;
                    if let Some(b) = board {
                        b.push_span(WorkerSpan {
                            worker: me,
                            index: i,
                            start_ns: run_start.duration_since(b.epoch).as_nanos() as u64,
                            dur_ns: dur.as_nanos() as u64,
                            ok: result.is_ok(),
                        });
                        let mut s = b.shards[me].lock().expect("shard poisoned");
                        if result.is_ok() {
                            s.cells_done += 1;
                        } else {
                            s.cells_failed += 1;
                        }
                        if let Some(rss) = crate::mega::peak_rss_kb() {
                            s.peak_rss_kb = s.peak_rss_kb.max(rss);
                        }
                    }
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                }
                if let Some(b) = board {
                    let total = worker_start.elapsed();
                    let mut s = b.shards[me].lock().expect("shard poisoned");
                    s.busy_ns += busy.as_nanos() as u64;
                    s.idle_ns += total.saturating_sub(busy).as_nanos() as u64;
                }
            });
        }
        drop(tx); // the receive loop ends once every worker is done
        let mut results: Vec<Option<Result<T, RunError>>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            observe(i, &r);
            results[i] = Some(r);
        }
        results
            .into_iter()
            .map(|r| r.expect("every experiment ran"))
            .collect()
    })
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SchedulerKind;
    use crate::runner::BatchRunner;
    use sps_workload::traces::SDSC;

    fn small(scheduler: SchedulerKind) -> ExperimentConfig {
        ExperimentConfig::new(SDSC, scheduler)
            .with_jobs(300)
            .with_seed(7)
    }

    #[test]
    fn workers_claim_runs_in_input_order() {
        // The first call on each of two workers holds the barrier until
        // the other arrives, so the two calls run concurrently and each
        // holds the first run its worker claimed: indices 0 and 1 from
        // the shared counter (contiguous per-worker chunks would hand
        // worker 1 index 3).
        use std::sync::atomic::AtomicU32;
        use std::sync::Barrier;
        let configs: Vec<ExperimentConfig> = (0..6u64)
            .map(|i| small(SchedulerKind::Easy).with_seed(i))
            .collect();
        let barrier = Barrier::new(2);
        let calls = AtomicU32::new(0);
        let first = Mutex::new(Vec::new());
        let results = run_batch(
            configs,
            2,
            0,
            None,
            None,
            |_, cfg: &Arc<ExperimentConfig>| {
                if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    first.lock().unwrap().push(cfg.seed);
                    barrier.wait();
                }
                Ok(cfg.seed)
            },
            |_, _| {},
        );
        let mut first = first.into_inner().unwrap();
        first.sort_unstable();
        assert_eq!(first, vec![0, 1]);
        let seeds: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(seeds, (0..6).collect::<Vec<_>>(), "results in input order");
    }

    #[test]
    fn batch_results_are_thread_count_invariant_with_failures() {
        // The dispatch order varies with the worker count; the result
        // vector must not — including panicked and invalid cells.
        let mk = || {
            let mut v = Vec::new();
            for seed in 0..9u64 {
                v.push(small(SchedulerKind::Easy).with_jobs(60).with_seed(seed));
            }
            v[3] = v[3].clone().with_seed(777); // injected panic below
            v[5] = v[5].clone().with_jobs(0); // invalid
            v
        };
        let run = |threads: usize| -> Vec<String> {
            run_batch(
                mk(),
                threads,
                0,
                None,
                None,
                |_, cfg: &Arc<ExperimentConfig>| {
                    if cfg.seed == 777 {
                        panic!("injected failure");
                    }
                    let r = cfg.run();
                    Ok(format!("{}:{}", r.sim.policy, r.report.overall.count))
                },
                |_, _| {},
            )
            .into_iter()
            .map(|r| match r {
                Ok(s) => s,
                Err(e) => format!("err:{e}"),
            })
            .collect()
        };
        let one = run(1);
        assert_eq!(one, run(4));
        assert_eq!(one, run(16));
        assert!(one[3].contains("injected failure"));
        assert!(one[5].contains("invalid config"));
    }

    #[test]
    fn batch_runner_matches_sequential_and_keeps_order() {
        let configs = vec![
            small(SchedulerKind::Easy),
            small(SchedulerKind::Ss { sf: 2.0 }),
            small(SchedulerKind::Fcfs),
        ];
        let parallel = BatchRunner::new(configs.clone()).run();
        for (cfg, par) in configs.iter().zip(&parallel) {
            let seq = cfg.run();
            assert_eq!(par.sim.policy, seq.sim.policy);
            assert_eq!(par.report.overall.count, seq.report.overall.count);
            assert!(
                (par.report.overall.mean_slowdown - seq.report.overall.mean_slowdown).abs() < 1e-12
            );
        }
        assert_eq!(parallel[0].sim.policy, "NS (EASY)");
        assert_eq!(parallel[2].sim.policy, "FCFS");
    }

    #[test]
    fn run_batch_keeps_order_with_more_threads_than_work() {
        let configs = vec![small(SchedulerKind::Easy), small(SchedulerKind::Fcfs)];
        let results = run_batch(
            configs,
            16,
            0,
            None,
            None,
            |_, cfg| Ok(cfg.run()),
            |_, _| {},
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].as_ref().unwrap().sim.policy, "NS (EASY)");
        assert_eq!(results[1].as_ref().unwrap().sim.policy, "FCFS");
    }

    #[test]
    fn checked_batch_reports_invalid_configs_in_place() {
        let configs = vec![
            small(SchedulerKind::Easy),
            small(SchedulerKind::Fcfs).with_jobs(0),
            small(SchedulerKind::Fcfs),
        ];
        let results = BatchRunner::new(configs).run_checked();
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(RunError::Invalid(ConfigError::NoJobs))
        ));
        assert!(results[2].is_ok());
    }

    #[test]
    fn observer_sees_every_terminal_outcome_including_panics() {
        // Progress accounting must count panicked and invalid cells like
        // successes — an observer that only saw Ok results would stall
        // its done counter (and ETA) on the first failed replication.
        let configs = vec![
            small(SchedulerKind::Easy),
            small(SchedulerKind::Fcfs).with_seed(777),
            small(SchedulerKind::Fcfs).with_jobs(0),
            small(SchedulerKind::Ss { sf: 2.0 }),
        ];
        let mut seen = Vec::new();
        let results = run_batch(
            configs,
            2,
            0,
            None,
            None,
            |_, cfg| {
                if cfg.seed == 777 {
                    panic!("injected failure for seed 777");
                }
                Ok(cfg.run())
            },
            |i, r| seen.push((i, r.is_err())),
        );
        assert_eq!(results.len(), 4);
        assert_eq!(seen.len(), 4, "one observation per terminal outcome");
        seen.sort_unstable();
        assert_eq!(
            seen,
            vec![(0, false), (1, true), (2, true), (3, false)],
            "panicked and invalid cells are observed exactly like successes"
        );
    }

    #[test]
    fn worker_panic_does_not_kill_the_batch() {
        // A runner that blows up on one specific configuration: the other
        // configurations must still produce results, in order.
        let configs = vec![
            small(SchedulerKind::Easy),
            small(SchedulerKind::Fcfs).with_seed(777),
            small(SchedulerKind::Ss { sf: 2.0 }),
        ];
        let results = run_batch(
            configs,
            2,
            0,
            None,
            None,
            |_, cfg| {
                if cfg.seed == 777 {
                    panic!("injected failure for seed 777");
                }
                Ok(cfg.run())
            },
            |_, _| {},
        );
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap().sim.policy, "NS (EASY)");
        match &results[1] {
            Err(RunError::Panicked { msg, attempts }) => {
                assert!(msg.contains("injected failure"), "got {msg:?}");
                assert_eq!(*attempts, 1, "no retries were requested");
            }
            other => panic!("expected a caught panic, got {other:?}"),
        }
        assert_eq!(
            results[2].as_ref().unwrap().report.overall.count,
            300,
            "the batch kept running after the panic"
        );
    }

    #[test]
    fn retry_recovers_flaky_workers_and_counts_attempts() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let flaky_left = AtomicU32::new(2); // panic twice, then succeed
        let configs = vec![
            small(SchedulerKind::Easy),
            small(SchedulerKind::Fcfs).with_seed(777),
            small(SchedulerKind::Gang).with_seed(778),
        ];
        let results = run_batch(
            configs,
            1, // deterministic attempt interleaving
            3,
            None,
            None,
            |_, cfg| {
                if cfg.seed == 777
                    && flaky_left
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                        .is_ok()
                {
                    panic!("transient failure");
                }
                if cfg.seed == 778 {
                    panic!("deterministic failure");
                }
                Ok(cfg.run())
            },
            |_, _| {},
        );
        assert!(results[0].is_ok());
        assert!(results[1].is_ok(), "flaky cell must recover within budget");
        match &results[2] {
            Err(RunError::Panicked { msg, attempts }) => {
                assert_eq!(*attempts, 4, "initial attempt plus three retries");
                assert!(msg.contains("deterministic failure"));
            }
            other => panic!("expected exhausted retries, got {other:?}"),
        }
        let shown = results[2].as_ref().unwrap_err().to_string();
        assert!(shown.contains("all 4 attempts"), "got {shown:?}");
    }

    #[test]
    fn shard_board_accounts_every_cell_and_observes_only() {
        let mk = || {
            (0..6u64)
                .map(|seed| small(SchedulerKind::Easy).with_jobs(60).with_seed(seed))
                .collect::<Vec<_>>()
        };
        let threads = 2;
        let board = ShardBoard::new(batch_workers(threads, 6));
        let tracked = run_batch(
            mk(),
            threads,
            0,
            None,
            Some(&board),
            |_, cfg: &Arc<ExperimentConfig>| Ok(cfg.run().report.overall.count),
            |_, _| {},
        );
        let untracked = run_batch(
            mk(),
            threads,
            0,
            None,
            None,
            |_, cfg| Ok(cfg.run().report.overall.count),
            |_, _| {},
        );
        assert_eq!(
            tracked
                .iter()
                .map(|r| *r.as_ref().unwrap())
                .collect::<Vec<_>>(),
            untracked
                .iter()
                .map(|r| *r.as_ref().unwrap())
                .collect::<Vec<_>>(),
            "the board must not perturb results"
        );
        let shards = board.snapshot();
        assert_eq!(shards.len(), 2);
        assert_eq!(
            shards.iter().map(|s| s.worker).collect::<Vec<_>>(),
            vec![0, 1]
        );
        let done: u64 = shards.iter().map(|s| s.cells_done).sum();
        let failed: u64 = shards.iter().map(|s| s.cells_failed).sum();
        assert_eq!(done + failed, 6, "every cell lands on exactly one shard");
        assert_eq!(failed, 0);
        assert!(shards.iter().all(|s| s.steals_succeeded == 0));
        // The shared counter does not promise every worker a cell: busy
        // time is recorded exactly on the shards that ran one.
        assert!(shards
            .iter()
            .all(|s| (s.busy_ns > 0) == (s.cells_done + s.cells_failed > 0)));
        let spans = board.take_spans();
        assert_eq!(spans.len(), 6, "one worker span per executed cell");
        let mut indices: Vec<usize> = spans.iter().map(|s| s.index).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..6).collect::<Vec<_>>());
        assert!(spans.iter().all(|s| s.ok && s.dur_ns > 0));
        assert!(board.take_spans().is_empty(), "take_spans drains");
    }

    #[test]
    fn shard_board_counts_failures() {
        let configs = vec![
            small(SchedulerKind::Easy).with_jobs(60),
            small(SchedulerKind::Fcfs).with_jobs(0), // invalid
            small(SchedulerKind::Fcfs).with_seed(777),
        ];
        let board = ShardBoard::new(batch_workers(1, 3));
        let results = run_batch(
            configs,
            1,
            0,
            None,
            Some(&board),
            |worker, cfg: &Arc<ExperimentConfig>| {
                assert_eq!(worker, 0, "single-threaded batch runs on worker 0");
                if cfg.seed == 777 {
                    panic!("injected failure");
                }
                Ok(cfg.run())
            },
            |_, _| {},
        );
        assert!(results[0].is_ok());
        let shards = board.snapshot();
        assert_eq!(shards[0].cells_done, 1);
        assert_eq!(shards[0].cells_failed, 2, "invalid + panicked");
        let spans = board.take_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans.iter().filter(|s| s.ok).count(), 1);
    }

    #[test]
    fn expired_deadline_skips_runs_without_running_them() {
        let configs = vec![small(SchedulerKind::Easy), small(SchedulerKind::Fcfs)];
        let mut seen = 0usize;
        let results = run_batch(
            configs,
            2,
            0,
            Some(std::time::Instant::now()),
            None,
            |_, cfg| Ok(cfg.run()),
            |_, r| {
                assert!(matches!(r, Err(RunError::BudgetExhausted)));
                seen += 1;
            },
        );
        assert_eq!(seen, 2, "skipped runs still reach the observer");
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(RunError::BudgetExhausted))));
    }
}
