//! The deterministic event queue.
//!
//! Events are ordered by `(time, class, sequence number)`. The
//! monotonically increasing sequence number gives FIFO delivery for events
//! with identical time and class, so the comparator is a *total* order (no
//! two entries compare equal): delivery never depends on how the store
//! breaks ties, and simulation results are reproducible. The golden trace
//! hashes in `tests/golden_determinism.rs` pin that order.
//!
//! The store is a [`std::collections::BinaryHeap`], `O(log n)` per
//! operation. A simulator's queue stays short — one pending arrival group
//! plus O(machine) completion, drain, fault and tick events — so a
//! bucketed calendar layout does not pay for itself (DESIGN.md,
//! "Sweep-scale engine", records the measurement).

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::event::EventClass;
use crate::time::SimTime;

struct Entry<E> {
    time: SimTime,
    class: EventClass,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// The delivery-order key. Strictly increasing over any queue's
    /// entries (seq is unique), so ordering is total.
    fn key(&self) -> (SimTime, EventClass, u64) {
        (self.time, self.class, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest
        // (time, class, seq) triple on top.
        other.key().cmp(&self.key())
    }
}

/// A priority queue of timestamped events with stable, deterministic order.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at `time` within ordering `class`.
    pub fn push(&mut self, time: SimTime, class: EventClass, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time,
            class,
            seq,
            payload,
        });
    }

    /// Time and class of the next event to fire, if any.
    pub fn peek(&self) -> Option<(SimTime, EventClass)> {
        self.heap.peek().map(|e| (e.time, e.class))
    }

    /// Remove and return the next event as `(time, class, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, EventClass, E)> {
        self.heap.pop().map(|e| (e.time, e.class, e.payload))
    }

    /// Pop *all* events scheduled for the earliest pending instant into
    /// `batch` (in delivery order) and return that instant.
    ///
    /// Returns `None` (leaving `batch` untouched) when the queue is empty.
    pub fn pop_batch(&mut self, batch: &mut Vec<E>) -> Option<SimTime> {
        let (t, _, payload) = self.pop()?;
        batch.push(payload);
        while let Some(top) = self.heap.peek_mut() {
            if top.time != t {
                break;
            }
            batch.push(PeekMut::pop(top).payload);
        }
        Some(t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn t(s: i64) -> SimTime {
        SimTime::new(s)
    }

    /// A plain list model of the delivery order. Payloads are pushed in
    /// increasing order, so each one doubles as its entry's sequence
    /// number and the model's minimum is the earliest
    /// `(time, class, seq)` entry.
    type Model = Vec<(SimTime, EventClass, i64)>;

    fn model_min(model: &Model) -> Option<usize> {
        (0..model.len()).min_by_key(|&i| model[i])
    }

    fn model_pop(model: &mut Model) -> Option<(SimTime, EventClass, i64)> {
        model_min(model).map(|i| model.swap_remove(i))
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), EventClass::Arrival, 3);
        q.push(t(10), EventClass::Arrival, 1);
        q.push(t(20), EventClass::Arrival, 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn class_breaks_time_ties() {
        let mut q = EventQueue::new();
        q.push(t(5), EventClass::Tick, "tick");
        q.push(t(5), EventClass::Arrival, "arrival");
        q.push(t(5), EventClass::Completion, "completion");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["completion", "arrival", "tick"]);
    }

    #[test]
    fn fifo_within_same_time_and_class() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(7), EventClass::Arrival, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        let expect: Vec<_> = (0..100).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(t(42), EventClass::Completion, 0);
        assert_eq!(q.peek(), Some((t(42), EventClass::Completion)));
        assert_eq!(q.len(), 1);
        let (time, class, _) = q.pop().unwrap();
        assert_eq!((time, class), (t(42), EventClass::Completion));
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn far_future_and_earlier_than_popped_pushes_keep_time_order() {
        // Widely spread times come back in order, and so does an event
        // pushed earlier than one already popped. The simulator never
        // schedules into the past, but the queue API is total.
        let mut q = EventQueue::new();
        q.push(t(5), EventClass::Arrival, "first");
        q.push(t(10_000_000), EventClass::Arrival, "last");
        q.push(t(500_000), EventClass::Arrival, "far");
        q.push(t(4_100), EventClass::Arrival, "near");
        assert_eq!(q.pop().unwrap().2, "first");
        assert_eq!(q.pop().unwrap().2, "near");
        q.push(t(3), EventClass::Tick, "early");
        assert_eq!(q.pop().unwrap().2, "early");
        assert_eq!(q.pop().unwrap().2, "far");
        assert_eq!(q.pop().unwrap().2, "last");
        assert!(q.pop().is_none());
    }

    /// Property: for a randomized interleaving of pushes and pops, the
    /// queue pops exactly the list model's `(time, class, seq)` order.
    #[test]
    fn matches_list_model_on_randomized_workloads() {
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from_u64(0xCA1E_0000 + seed);
            let mut q = EventQueue::new();
            let mut model = Model::new();
            let mut now = 0i64;
            let mut popped = 0usize;
            for step in 0..4_000 {
                if rng.chance(0.6) || q.is_empty() {
                    // Mixed spacing: mostly near-future, occasional big
                    // jumps far past the rest of the queue.
                    let dt = if rng.chance(0.05) {
                        rng.range_i64(0, 2_000_000)
                    } else {
                        rng.range_i64(0, 600)
                    };
                    let class = match rng.index(3) {
                        0 => EventClass::Completion,
                        1 => EventClass::Arrival,
                        _ => EventClass::Tick,
                    };
                    q.push(t(now + dt), class, step);
                    model.push((t(now + dt), class, step));
                } else {
                    let expect = model_pop(&mut model);
                    assert_eq!(
                        q.peek(),
                        expect.map(|(t, c, _)| (t, c)),
                        "seed {seed} step {step}"
                    );
                    let a = q.pop();
                    assert_eq!(a, expect, "seed {seed} step {step}");
                    now = a.unwrap().0.secs(); // pops advance the clock, as in a sim
                    popped += 1;
                }
                assert_eq!(q.len(), model.len());
            }
            while let Some(a) = q.pop() {
                assert_eq!(Some(a), model_pop(&mut model), "seed {seed} drain");
                popped += 1;
            }
            assert!(model.is_empty());
            assert!(popped > 500, "workload actually exercised pops");
        }
    }

    #[test]
    fn pop_batch_matches_list_model() {
        let mut rng = SimRng::seed_from_u64(77);
        let mut q = EventQueue::new();
        let mut model = Model::new();
        for i in 0..1_000 {
            // Coarse times force many same-instant batches.
            let at = t(rng.range_i64(0, 50) * 60);
            q.push(at, EventClass::Arrival, i);
            model.push((at, EventClass::Arrival, i));
        }
        loop {
            let mut batch = Vec::new();
            let at = q.pop_batch(&mut batch);
            let mut expect = Vec::new();
            let expect_at = model_pop(&mut model).map(|(t, _, p)| {
                expect.push(p);
                while let Some(i) = model_min(&model).filter(|&i| model[i].0 == t) {
                    expect.push(model.swap_remove(i).2);
                }
                t
            });
            assert_eq!(at, expect_at);
            assert_eq!(batch, expect);
            if at.is_none() {
                break;
            }
        }
    }
}
