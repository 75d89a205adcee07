//! The batch-delivering simulation driver.
//!
//! [`Engine::run`] repeatedly pops the earliest *instant* from the event
//! queue (all events sharing that timestamp, in class order) and hands the
//! batch to the [`Simulation`]. Delivering whole instants rather than single
//! events lets a scheduler make one decision per instant, after every
//! completion and arrival at that instant has been applied — exactly how
//! batch schedulers behave.

use crate::queue::EventQueue;
use crate::time::SimTime;

/// Behaviour plugged into the [`Engine`].
pub trait Simulation {
    /// Event payload type.
    type Event;

    /// Handle every event that fires at `now`, in delivery order. New
    /// events (at `now` or later) may be pushed onto `queue`; events pushed
    /// *at* `now` are delivered in a follow-up batch for the same instant.
    fn handle_batch(
        &mut self,
        now: SimTime,
        batch: &mut Vec<Self::Event>,
        queue: &mut EventQueue<Self::Event>,
    );

    /// Polled after each batch: return `true` to end the run with
    /// [`RunOutcome::Stopped`] even though the queue still holds events.
    /// This is how open-ended simulations implement "stop after N jobs"
    /// without draining an unbounded source. Defaults to never stopping.
    #[inline]
    fn should_stop(&self) -> bool {
        false
    }
}

/// Why [`Engine::run`] returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The configured horizon was reached with events still pending.
    HorizonReached,
    /// The simulation asked to stop (see [`Simulation::should_stop`]) with
    /// events still pending.
    Stopped,
    /// The configured maximum batch count was exceeded (livelock guard).
    BatchLimit,
    /// The configured maximum event count was exceeded (livelock guard).
    EventLimit,
    /// The configured wall-clock budget ran out (runaway-run guard).
    WallClockLimit,
}

impl RunOutcome {
    /// Whether a watchdog (rather than the simulation itself) ended the
    /// run: the queue still held events and the caller's state is partial.
    pub fn aborted(self) -> bool {
        matches!(
            self,
            RunOutcome::BatchLimit | RunOutcome::EventLimit | RunOutcome::WallClockLimit
        )
    }
}

/// Abort limits for runaway simulations, applied together by
/// [`Engine::with_watchdog`]. Every limit defaults to off; a tripped
/// limit ends the run with the matching [`RunOutcome`] instead of letting
/// a livelocked scheduler spin forever.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Watchdog {
    /// Maximum delivered batches.
    pub max_batches: Option<u64>,
    /// Maximum delivered events.
    pub max_events: Option<u64>,
    /// Wall-clock budget for the whole run, in milliseconds (checked every
    /// [`WALL_CHECK_INTERVAL`] batches to stay off the hot path).
    pub max_wall_ms: Option<u64>,
}

/// How many batches pass between wall-clock checks.
pub const WALL_CHECK_INTERVAL: u64 = 4_096;

impl Watchdog {
    /// No limits: the engine runs until the queue drains (or hangs — the
    /// pre-watchdog behaviour).
    pub fn none() -> Self {
        Watchdog::default()
    }

    /// A generous guard for batch experiment harnesses: far above anything
    /// a legitimate trace produces (the full SDSC reproduction delivers
    /// ~10⁵ batches), yet finite, so a livelocked configuration degrades
    /// into an aborted result instead of a hung worker.
    pub fn generous() -> Self {
        Watchdog {
            max_batches: Some(50_000_000),
            max_events: Some(200_000_000),
            max_wall_ms: Some(600_000),
        }
    }
}

/// The driver loop. Owns the clock; the caller owns the queue and state.
pub struct Engine {
    now: SimTime,
    horizon: SimTime,
    max_batches: u64,
    max_events: u64,
    max_wall: Option<std::time::Duration>,
    batches: u64,
    events: u64,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine with no horizon and no abort limits (see
    /// [`Engine::with_watchdog`]).
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            horizon: SimTime::MAX,
            max_batches: u64::MAX,
            max_events: u64::MAX,
            max_wall: None,
            batches: 0,
            events: 0,
        }
    }

    /// Stop (returning [`RunOutcome::HorizonReached`]) before delivering any
    /// batch whose instant is strictly past `horizon`.
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Apply every limit in `dog` at once (unset limits leave the engine's
    /// current setting untouched).
    pub fn with_watchdog(mut self, dog: Watchdog) -> Self {
        if let Some(b) = dog.max_batches {
            self.max_batches = b;
        }
        if let Some(e) = dog.max_events {
            self.max_events = e;
        }
        if let Some(ms) = dog.max_wall_ms {
            self.max_wall = Some(std::time::Duration::from_millis(ms));
        }
        self
    }

    /// Current simulated time (the instant of the last delivered batch).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of batches delivered so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Number of individual events delivered so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Drive `sim` until the queue drains, the horizon passes, or the batch
    /// limit trips. Time never moves backwards: pushing an event earlier
    /// than the current instant panics in debug builds and is delivered at
    /// the current instant otherwise.
    pub fn run<S: Simulation>(
        &mut self,
        sim: &mut S,
        queue: &mut EventQueue<S::Event>,
    ) -> RunOutcome {
        let mut batch: Vec<S::Event> = Vec::new();
        let started = self.max_wall.map(|_| std::time::Instant::now());
        loop {
            let Some(t) = queue.peek().map(|(t, _)| t) else {
                return RunOutcome::Drained;
            };
            if t > self.horizon {
                return RunOutcome::HorizonReached;
            }
            debug_assert!(
                t >= self.now,
                "event scheduled in the past: {t:?} < {:?}",
                self.now
            );
            self.now = t.max(self.now);
            batch.clear();
            queue.pop_batch(&mut batch);
            self.batches += 1;
            self.events += batch.len() as u64;
            if self.batches > self.max_batches {
                return RunOutcome::BatchLimit;
            }
            if self.events > self.max_events {
                return RunOutcome::EventLimit;
            }
            if let (Some(budget), Some(started)) = (self.max_wall, started) {
                if self.batches.is_multiple_of(WALL_CHECK_INTERVAL) && started.elapsed() > budget {
                    return RunOutcome::WallClockLimit;
                }
            }
            sim.handle_batch(self.now, &mut batch, queue);
            if sim.should_stop() {
                return RunOutcome::Stopped;
            }
        }
    }
}

/// Convenience: run a closure-based simulation (used by tests).
pub fn run_with<E>(
    queue: &mut EventQueue<E>,
    mut f: impl FnMut(SimTime, &mut Vec<E>, &mut EventQueue<E>),
) -> (SimTime, RunOutcome) {
    struct Fn_<E, F>(F, std::marker::PhantomData<E>);
    impl<E, F: FnMut(SimTime, &mut Vec<E>, &mut EventQueue<E>)> Simulation for Fn_<E, F> {
        type Event = E;
        fn handle_batch(&mut self, now: SimTime, batch: &mut Vec<E>, queue: &mut EventQueue<E>) {
            (self.0)(now, batch, queue)
        }
    }
    let mut sim = Fn_(&mut f, std::marker::PhantomData);
    let mut engine = Engine::new();
    let outcome = engine.run(&mut sim, queue);
    (engine.now(), outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventClass;

    fn t(s: i64) -> SimTime {
        SimTime::new(s)
    }

    #[test]
    fn delivers_batches_per_instant() {
        let mut q = EventQueue::new();
        q.push(t(1), EventClass::Arrival, 'a');
        q.push(t(1), EventClass::Arrival, 'b');
        q.push(t(2), EventClass::Arrival, 'c');
        let mut seen: Vec<(i64, Vec<char>)> = Vec::new();
        let (end, outcome) = run_with(&mut q, |now, batch, _| {
            seen.push((now.secs(), batch.clone()));
        });
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(end, t(2));
        assert_eq!(seen, vec![(1, vec!['a', 'b']), (2, vec!['c'])]);
    }

    #[test]
    fn events_pushed_at_now_form_followup_batch() {
        let mut q = EventQueue::new();
        q.push(t(5), EventClass::Arrival, 0u32);
        let mut batches = Vec::new();
        run_with(&mut q, |now, batch, queue| {
            batches.push(batch.clone());
            if batch == &[0] {
                queue.push(now, EventClass::Epilogue, 1);
            }
        });
        assert_eq!(batches, vec![vec![0], vec![1]]);
    }

    #[test]
    fn horizon_stops_delivery() {
        let mut q = EventQueue::new();
        q.push(t(1), EventClass::Arrival, ());
        q.push(t(100), EventClass::Arrival, ());
        let mut engine = Engine::new().with_horizon(t(10));
        struct Noop;
        impl Simulation for Noop {
            type Event = ();
            fn handle_batch(&mut self, _: SimTime, _: &mut Vec<()>, _: &mut EventQueue<()>) {}
        }
        let outcome = engine.run(&mut Noop, &mut q);
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(engine.now(), t(1));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn batch_limit_trips_on_self_rescheduling() {
        let mut q = EventQueue::new();
        q.push(t(1), EventClass::Tick, ());
        let mut engine = Engine::new().with_watchdog(Watchdog {
            max_batches: Some(50),
            ..Watchdog::none()
        });
        struct Resched;
        impl Simulation for Resched {
            type Event = ();
            fn handle_batch(&mut self, now: SimTime, _: &mut Vec<()>, q: &mut EventQueue<()>) {
                q.push(now + 1, EventClass::Tick, ());
            }
        }
        let outcome = engine.run(&mut Resched, &mut q);
        assert_eq!(outcome, RunOutcome::BatchLimit);
        assert_eq!(engine.batches(), 51);
    }

    #[test]
    fn event_limit_trips_on_self_rescheduling() {
        let mut q = EventQueue::new();
        q.push(t(1), EventClass::Tick, ());
        let mut engine = Engine::new().with_watchdog(Watchdog {
            max_events: Some(20),
            ..Watchdog::none()
        });
        struct Resched;
        impl Simulation for Resched {
            type Event = ();
            fn handle_batch(&mut self, now: SimTime, _: &mut Vec<()>, q: &mut EventQueue<()>) {
                q.push(now + 1, EventClass::Tick, ());
            }
        }
        let outcome = engine.run(&mut Resched, &mut q);
        assert_eq!(outcome, RunOutcome::EventLimit);
        assert!(outcome.aborted());
        assert_eq!(engine.events(), 21);
    }

    #[test]
    fn drained_horizon_and_stopped_are_not_aborts() {
        assert!(!RunOutcome::Drained.aborted());
        assert!(!RunOutcome::HorizonReached.aborted());
        assert!(!RunOutcome::Stopped.aborted());
        assert!(RunOutcome::BatchLimit.aborted());
        assert!(RunOutcome::WallClockLimit.aborted());
    }

    #[test]
    fn should_stop_ends_the_run_with_events_pending() {
        let mut q = EventQueue::new();
        for s in 1..=10 {
            q.push(t(s), EventClass::Arrival, s);
        }
        struct StopAt3 {
            seen: u32,
        }
        impl Simulation for StopAt3 {
            type Event = i64;
            fn handle_batch(&mut self, _: SimTime, _: &mut Vec<i64>, _: &mut EventQueue<i64>) {
                self.seen += 1;
            }
            fn should_stop(&self) -> bool {
                self.seen >= 3
            }
        }
        let mut sim = StopAt3 { seen: 0 };
        let mut engine = Engine::new();
        let outcome = engine.run(&mut sim, &mut q);
        assert_eq!(outcome, RunOutcome::Stopped);
        assert_eq!(engine.now(), t(3));
        assert_eq!(q.len(), 7, "pending events stay queued");
    }

    #[test]
    fn clock_is_monotone() {
        let mut q = EventQueue::new();
        for s in [3, 1, 2, 9, 4] {
            q.push(t(s), EventClass::Arrival, s);
        }
        let mut last = i64::MIN;
        run_with(&mut q, |now, _, _| {
            assert!(now.secs() > last);
            last = now.secs();
        });
        assert_eq!(last, 9);
    }
}
