//! Closed-form two-task analysis (Section IV-A, Figs. 4–6).
//!
//! Two identical tasks of length `L`, each needing the whole machine,
//! submitted together. Execution alternates under SS, controlled by the
//! suspension factor `s`: the waiting task preempts when its priority
//! reaches `s ×` the runner's (priorities start at 1, stay constant while
//! running, grow while waiting). The paper derives:
//!
//! * the condition for the *n*-th suspension is `prio_wait = s^n`,
//! * the runner completes when the waiter's priority reaches 2 (its wait
//!   equals the full length `L`),
//! * hence the lowest factor allowing at most `n` suspensions is
//!   `s = 2^(1/(n+1))`: `s = 2` → no suspension, `s = √2` → one, `s = 1` →
//!   alternation at the granularity of the preemption routine (Fig. 4).

use sps_simcore::Secs;

/// Which of the two tasks a segment belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Task {
    /// The task that starts first.
    T1,
    /// The task that waits first.
    T2,
}

/// One execution segment `[start, end)` of the alternation diagram.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Segment {
    /// Which task ran.
    pub task: Task,
    /// Segment start, seconds from submission.
    pub start: f64,
    /// Segment end.
    pub end: f64,
}

/// Outcome of the two-task alternation.
#[derive(Clone, Debug)]
pub struct TwoTaskTrace {
    /// Execution segments in time order (the bars of Figs. 4–6).
    pub segments: Vec<Segment>,
    /// Total number of suspensions that occurred.
    pub suspensions: u32,
    /// Completion time of the task finishing first.
    pub first_completion: f64,
    /// Completion time of the task finishing last (the makespan).
    pub last_completion: f64,
}

/// The lowest suspension factor for which two simultaneously submitted
/// equal tasks suspend each other at most `n` times: `2^(1/(n+1))`.
///
/// ```
/// use sps_core::theory::min_sf_for_at_most;
/// assert_eq!(min_sf_for_at_most(0), 2.0);           // SF = 2: no suspension
/// assert!((min_sf_for_at_most(1) - 2f64.sqrt()).abs() < 1e-12);
/// ```
pub fn min_sf_for_at_most(n: u32) -> f64 {
    2f64.powf(1.0 / (n as f64 + 1.0))
}

/// Largest number of suspensions possible at suspension factor `sf`
/// (for `sf > 1`); `sf = 1` alternates without bound (limited only by the
/// preemption-routine granularity), represented as `None`.
pub fn max_suspensions(sf: f64) -> Option<u32> {
    assert!(sf >= 1.0);
    if sf <= 1.0 {
        return None;
    }
    if sf >= 2.0 {
        return Some(0);
    }
    // Largest n with sf^n < 2 (strict: a priority of exactly 2 means the
    // runner completes first). The epsilon guards boundary factors like
    // 2^(1/4), where floating point puts log_sf(2) a hair above the exact
    // integer.
    let log = 2f64.ln() / sf.ln();
    let n = (log - 1e-9).ceil() as u32 - 1;
    Some(n)
}

/// Simulate the alternation of two equal tasks of length `L` under
/// suspension factor `sf`, with the preemption routine running every
/// `granularity` seconds (the paper's "minimum time interval between two
/// suspensions" in Fig. 4).
///
/// Preemption fires at the first routine invocation where
/// `prio(waiter) ≥ sf × prio(runner)`; a completion at the same instant
/// wins (completions are processed before the routine, as in the
/// simulator).
pub fn two_task_alternation(length: Secs, sf: f64, granularity: Secs) -> TwoTaskTrace {
    assert!(length > 0 && granularity > 0 && sf >= 1.0);
    let len = length as f64;
    let gran = granularity as f64;

    // State per task: remaining work, accumulated wait, priority-frozen
    // value while running.
    let mut remaining = [len, len];
    let mut wait = [0.0f64, 0.0];
    let mut runner = 0usize; // T1 starts
    let mut seg_start = 0.0f64;
    let mut now = 0.0f64;
    let mut segments = Vec::new();
    let mut suspensions = 0u32;
    let mut first_completion = None;

    let task_of = |i: usize| if i == 0 { Task::T1 } else { Task::T2 };
    let prio = |wait: f64| (wait + len) / len;

    loop {
        let waiter = 1 - runner;
        let completes_at = now + remaining[runner];
        // Next routine invocation at which the waiter's priority clears
        // the bar (if the waiter still has work).
        let preempt_at = if remaining[waiter] > 0.0 {
            let bar = sf * prio(wait[runner]);
            // wait[waiter] + (t - now) + len >= bar * len
            let t_exact = now + (bar * len - len - wait[waiter]).max(0.0);
            // Round up to the next multiple of the granularity (a priority
            // met exactly at a grid point fires there), but never at or
            // before the current instant — the routine runs strictly in
            // the future, like the simulator's tick.
            let mut p = (t_exact / gran).ceil() * gran;
            if p <= now {
                p = ((now / gran).floor() + 1.0) * gran;
            }
            Some(p)
        } else {
            None
        };

        match preempt_at {
            Some(p) if p < completes_at => {
                // Suspension at p.
                segments.push(Segment {
                    task: task_of(runner),
                    start: seg_start,
                    end: p,
                });
                remaining[runner] -= p - now;
                wait[waiter] += p - now;
                suspensions += 1;
                now = p;
                seg_start = p;
                runner = waiter;
            }
            _ => {
                // Runner completes.
                segments.push(Segment {
                    task: task_of(runner),
                    start: seg_start,
                    end: completes_at,
                });
                wait[waiter] += completes_at - now;
                remaining[runner] = 0.0;
                now = completes_at;
                seg_start = completes_at;
                if first_completion.is_none() {
                    first_completion = Some(now);
                }
                if remaining[waiter] <= 0.0 {
                    return TwoTaskTrace {
                        segments,
                        suspensions,
                        first_completion: first_completion.unwrap(),
                        last_completion: now,
                    };
                }
                runner = waiter;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: Secs = 3_600;

    #[test]
    fn optimal_sf_formula() {
        assert!((min_sf_for_at_most(0) - 2.0).abs() < 1e-12);
        assert!((min_sf_for_at_most(1) - 2f64.sqrt()).abs() < 1e-12);
        assert!((min_sf_for_at_most(2) - 2f64.powf(1.0 / 3.0)).abs() < 1e-12);
        // Monotone decreasing toward 1.
        for n in 0..10 {
            assert!(min_sf_for_at_most(n) > min_sf_for_at_most(n + 1));
            assert!(min_sf_for_at_most(n + 1) > 1.0);
        }
    }

    #[test]
    fn sf_two_means_no_suspension() {
        // Fig. 6: with s = 2 the tasks run back to back.
        let trace = two_task_alternation(L, 2.0, 60);
        assert_eq!(trace.suspensions, 0);
        assert_eq!(trace.segments.len(), 2);
        assert_eq!(trace.segments[0].task, Task::T1);
        assert_eq!(trace.segments[1].task, Task::T2);
        assert!((trace.first_completion - L as f64).abs() < 1e-9);
        assert!((trace.last_completion - 2.0 * L as f64).abs() < 1e-9);
        assert_eq!(max_suspensions(2.0), Some(0));
    }

    #[test]
    fn sqrt_two_means_exactly_one_suspension() {
        // Fig. 5's boundary: s = √2 gives exactly one suspension (T2
        // preempts once, runs to completion, then T1 finishes).
        let trace = two_task_alternation(L, 2f64.sqrt(), 1);
        assert_eq!(trace.suspensions, 1);
        assert_eq!(trace.segments.len(), 3);
        assert_eq!(trace.segments[0].task, Task::T1);
        assert_eq!(trace.segments[1].task, Task::T2);
        assert_eq!(trace.segments[2].task, Task::T1);
        assert_eq!(max_suspensions(2f64.sqrt()), Some(1));
    }

    #[test]
    fn between_sqrt2_and_2_one_suspension() {
        // 1 < √2 < s < 2: the first suspension fires ((s-1)L < L) but the
        // second needs (s²-1)L ≥ L of extra wait — more than T2's whole
        // runtime: exactly one suspension.
        for s in [1.5, 1.7, 1.9] {
            let trace = two_task_alternation(L, s, 1);
            assert_eq!(trace.suspensions, 1, "sf={s}");
            assert_eq!(max_suspensions(s), Some(1), "sf={s}");
        }
    }

    #[test]
    fn sf_one_alternates_at_granularity() {
        // Fig. 4: with s = 1 the bar is met at every routine invocation;
        // tasks swap every granularity interval.
        let trace = two_task_alternation(600, 1.0, 60);
        assert!(trace.suspensions >= 9, "got {}", trace.suspensions);
        // Segments strictly alternate.
        for w in trace.segments.windows(2) {
            assert_ne!(w[0].task, w[1].task);
        }
        assert_eq!(max_suspensions(1.0), None);
    }

    #[test]
    fn smaller_sf_more_suspensions() {
        let mut last = 0;
        for s in [1.9, 1.3, 1.15, 1.05] {
            let trace = two_task_alternation(L, s, 1);
            assert!(
                trace.suspensions >= last,
                "suspensions must not decrease as sf drops: {} at sf={s}",
                trace.suspensions
            );
            last = trace.suspensions;
        }
        assert!(last >= 3);
    }

    #[test]
    fn work_is_conserved() {
        for s in [1.0, 1.2, 2f64.sqrt(), 1.8, 2.0, 5.0] {
            let trace = two_task_alternation(L, s, 60);
            let total: f64 = trace.segments.iter().map(|g| g.end - g.start).sum();
            assert!((total - 2.0 * L as f64).abs() < 1e-6, "sf={s}");
            // Segments tile [0, last_completion) without overlap.
            for w in trace.segments.windows(2) {
                assert!((w[0].end - w[1].start).abs() < 1e-9);
            }
            assert!((trace.last_completion - 2.0 * L as f64).abs() < 1e-6);
        }
    }
}
