//! A deterministic binary-heap event queue, compiled only for tests.
//!
//! Simulation time is `f64` seconds. Events at equal times fire in
//! insertion order (a monotone sequence number breaks ties), which keeps
//! runs bit-reproducible regardless of heap internals.
//!
//! This simple `O(log n)` scheduler is the reference model the
//! [`crate::CalendarQueue`] property tests compare pop orders against
//! (same `(time, seq)` contract), and the phase queue of the fixed-step
//! test oracle.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest event,
        // breaking ties by insertion order.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times must not be NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Time-ordered event queue with deterministic tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at time 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or earlier than the current time.
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Schedule `event` `delay` seconds from now.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(delay >= 0.0, "delay must be non-negative");
        self.schedule(self.now + delay, event);
    }

    /// Pop the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| {
            self.now = e.time;
            (e.time, e.event)
        })
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(1.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 5.0);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(2.0, "first");
        q.pop();
        q.schedule_in(1.5, "second");
        assert_eq!(q.pop(), Some((3.5, "second")));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1.0, ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(1.0));
    }
}
