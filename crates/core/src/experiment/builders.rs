//! The thread-pool batch seam: [`RunError`], [`default_threads`], and the
//! one batch loop ([`run_batch`]) that
//! [`BatchRunner`](crate::runner::BatchRunner) and the sweep engines
//! drive. Work is dispatched through per-worker chunked deques with
//! stealing (see [`StealQueues`]): each worker starts with a contiguous
//! slice of the batch — consecutive indices are replications of the same
//! cell, so the initial split maximizes trace cache locality — and an
//! idle worker steals the back half of a loaded one's queue, so a shard
//! of slow cells never serializes the tail of a sweep. Per-configuration
//! `catch_unwind` keeps one poisoned cell from voiding a whole grid.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::{ConfigError, ExperimentConfig};

/// Per-worker shard counters for one batch: what each worker of the
/// work-stealing pool actually did. Collected on a [`ShardBoard`] when
/// the caller asks for one (the sweep and mega-sweep engines always do)
/// and surfaced through `SweepReport::workers` and the live
/// `SweepProgress::workers` snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardStats {
    /// Worker slot (0-based).
    pub worker: usize,
    /// Cells this worker ran to a successful result.
    pub cells_done: u64,
    /// Cells this worker ran to a terminal failure (panicked after
    /// retries, invalid, or skipped on an exhausted wall budget).
    pub cells_failed: u64,
    /// Pops that found the worker's own deque empty and scanned victims.
    pub steals_attempted: u64,
    /// Steal scans that came back with work.
    pub steals_succeeded: u64,
    /// Sum of own-queue depth sampled once per popped cell (after the
    /// pop); divide by `queue_depth_samples` for the mean.
    pub queue_depth_sum: u64,
    /// Number of queue-depth samples taken.
    pub queue_depth_samples: u64,
    /// Wall time spent inside runner calls, nanoseconds.
    pub busy_ns: u64,
    /// Wall time spent outside runner calls (queue ops, stealing,
    /// waiting), nanoseconds.
    pub idle_ns: u64,
    /// Peak resident set (VmHWM, kB) observed after this worker's cells.
    /// Process-wide — the per-worker column shows *when* the high-water
    /// mark moved, not a private footprint.
    pub peak_rss_kb: u64,
}

impl ShardStats {
    /// Mean own-queue depth over the samples taken (0.0 with no samples).
    pub fn mean_queue_depth(&self) -> f64 {
        if self.queue_depth_samples == 0 {
            0.0
        } else {
            self.queue_depth_sum as f64 / self.queue_depth_samples as f64
        }
    }

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

/// Work-stealing index dispatch for a batch of `n` items over `w`
/// workers.
///
/// Each worker owns a deque seeded with a contiguous chunk of `0..n`
/// (worker 0 gets the first chunk, and the first `n % w` chunks are one
/// item longer). Owners pop from the **front** — walking their chunk in
/// input order, which keeps consecutive replications of one sweep cell
/// (sharing a cached trace) on one thread. A worker whose deque drains
/// scans the others round-robin from its own slot and steals the **back
/// half** (rounded up) of the first non-empty victim: stealing from the
/// back takes the work the owner would reach last, and taking half
/// amortizes steal traffic to O(log) per worker instead of per item.
///
/// Plain mutexes, not lock-free: batch items are whole simulations
/// (milliseconds to minutes), so queue operations are nanoseconds of
/// noise and `std`-only simplicity wins. Termination is by emptiness —
/// every index is either in some deque or in flight on the worker that
/// popped it, so a worker that finds every deque empty can exit: nothing
/// is left for it to take over.
struct StealQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueues {
    /// Split `0..n` into contiguous chunks, one per worker.
    fn split(n: usize, workers: usize) -> Self {
        let workers = workers.max(1);
        let (base, extra) = (n / workers, n % workers);
        let mut queues = Vec::with_capacity(workers);
        let mut next = 0usize;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            queues.push(Mutex::new((next..next + len).collect()));
            next += len;
        }
        debug_assert_eq!(next, n);
        StealQueues { queues }
    }

    /// Next index for worker `me`: own front, else steal. `None` means
    /// the whole batch is finished or in flight elsewhere.
    #[cfg_attr(not(test), allow(dead_code))]
    fn pop(&self, me: usize) -> Option<usize> {
        self.pop_tracked(me).0
    }

    /// [`pop`](StealQueues::pop) plus steal accounting: the extra flags
    /// say whether the pop had to scan victims (own deque empty) and
    /// whether the scan landed work. Same dispatch order bit for bit.
    fn pop_tracked(&self, me: usize) -> (Option<usize>, bool, bool) {
        if let Some(i) = self.queues[me].lock().expect("queue poisoned").pop_front() {
            return (Some(i), false, false);
        }
        let mut attempted = false;
        for k in 1..self.queues.len() {
            attempted = true;
            let victim = (me + k) % self.queues.len();
            let mut q = self.queues[victim].lock().expect("queue poisoned");
            let len = q.len();
            if len == 0 {
                continue;
            }
            // Take the back half; q keeps its front (the owner's next
            // work), we keep the stolen run in input order.
            let stolen: VecDeque<usize> = q.split_off(len - len.div_ceil(2));
            drop(q);
            let mut mine = self.queues[me].lock().expect("queue poisoned");
            *mine = stolen;
            return (mine.pop_front(), true, true);
        }
        (None, attempted, false)
    }

    /// Current depth of worker `me`'s own deque.
    fn depth(&self, me: usize) -> usize {
        self.queues[me].lock().expect("queue poisoned").len()
    }
}

/// The worker count [`run_batch`] actually spawns for a batch of `n`
/// items: callers sizing a [`ShardBoard`] must use the same clamp.
pub(crate) fn batch_workers(threads: usize, n: usize) -> usize {
    threads.max(1).min(n.max(1))
}

/// The batch loop behind [`BatchRunner`](crate::runner::BatchRunner) and
/// the sweep engines: run `runner(worker, config)` for every configuration
/// on `threads` workers and return one result per configuration, in input
/// order.
///
/// Workers drain a [`StealQueues`] dispatch and send `(index, result)`
/// pairs over a channel; the caller's thread reassembles them in input
/// order, so results are identical for any worker count. The runner
/// receives its worker slot so profiled runs can tag their spans.
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
    F: Fn(usize, &Arc<ExperimentConfig>) -> T + Sync,
    O: FnMut(usize, &Result<T, RunError>),
{
    let configs: Vec<Arc<ExperimentConfig>> = configs.into_iter().map(Arc::new).collect();
    let n = configs.len();
    let workers = batch_workers(threads, n);
    debug_assert!(
        board.is_none_or(|b| b.shards.len() >= workers),
        "shard board sized below the worker count"
    );
    let queues = StealQueues::split(n, workers);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Result<T, RunError>)>();
    let configs_ref = &configs;
    let queues_ref = &queues;
    let runner_ref = &runner;
    std::thread::scope(|scope| {
        for me in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                let worker_start = Instant::now();
                let mut busy = Duration::ZERO;
                loop {
                    let (popped, steal_attempted, steal_succeeded) = queues_ref.pop_tracked(me);
                    let Some(i) = popped else { break };
                    if let Some(b) = board {
                        let mut s = b.shards[me].lock().expect("shard poisoned");
                        s.steals_attempted += u64::from(steal_attempted);
                        s.steals_succeeded += u64::from(steal_succeeded);
                        s.queue_depth_sum += queues_ref.depth(me) as u64;
                        s.queue_depth_samples += 1;
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
                                    Ok(v) => break Ok(v),
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
    fn steal_queues_split_contiguously_and_cover_everything() {
        for (n, workers) in [(0, 1), (1, 4), (7, 3), (12, 4), (100, 16)] {
            let q = StealQueues::split(n, workers);
            assert_eq!(q.queues.len(), workers);
            let mut all = Vec::new();
            for (w, m) in q.queues.iter().enumerate() {
                let chunk: Vec<usize> = m.lock().unwrap().iter().copied().collect();
                // Contiguous ascending chunk; earlier workers never hold
                // later indices than later workers.
                assert!(chunk.windows(2).all(|p| p[1] == p[0] + 1), "worker {w}");
                all.extend(chunk);
            }
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "n={n} w={workers}");
            // Chunk sizes differ by at most one.
            let sizes: Vec<usize> = q.queues.iter().map(|m| m.lock().unwrap().len()).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "sizes {sizes:?}");
        }
    }

    #[test]
    fn stealing_takes_the_back_half_and_drains_everything() {
        let q = StealQueues::split(8, 2);
        // Worker 1's chunk is 4..8. Drain it so it must steal.
        for want in 4..8 {
            assert_eq!(q.pop(1), Some(want), "owner walks its chunk in order");
        }
        // Steal: worker 0 still holds 0..4, the thief takes the back half
        // {2, 3} and processes it in input order.
        assert_eq!(q.pop(1), Some(2));
        assert_eq!(q.pop(1), Some(3));
        // The victim kept its front.
        assert_eq!(q.pop(0), Some(0));
        assert_eq!(q.pop(0), Some(1));
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1), None);
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
                    format!("{}:{}", r.sim.policy, r.report.overall.count)
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
        let results = run_batch(configs, 16, 0, None, None, |_, cfg| cfg.run(), |_, _| {});
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
                cfg.run()
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
                cfg.run()
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
                cfg.run()
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
            |_, cfg: &Arc<ExperimentConfig>| cfg.run().report.overall.count,
            |_, _| {},
        );
        let untracked = run_batch(
            mk(),
            threads,
            0,
            None,
            None,
            |_, cfg| cfg.run().report.overall.count,
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
        let samples: u64 = shards.iter().map(|s| s.queue_depth_samples).sum();
        assert_eq!(samples, 6, "one depth sample per popped cell");
        // Work stealing does not promise every worker a cell: busy time
        // is recorded exactly on the shards that ran one.
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
    fn shard_board_counts_failures_and_steal_attempts() {
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
                cfg.run()
            },
            |_, _| {},
        );
        assert!(results[0].is_ok());
        let shards = board.snapshot();
        assert_eq!(shards[0].cells_done, 1);
        assert_eq!(shards[0].cells_failed, 2, "invalid + panicked");
        // A lone worker has no victims to scan.
        assert_eq!(shards[0].steals_attempted, 0);
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
            |_, cfg| cfg.run(),
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
