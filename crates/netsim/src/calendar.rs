//! A calendar-queue event scheduler with cancellable timers.
//!
//! A binary heap is the right tool for a handful of phase events; at
//! serve scale the simulator schedules one recurring event per flow class
//! plus drain timers that are rescheduled (and cancelled) every batch,
//! and heap operations become the bottleneck.
//! [`CalendarQueue`] is the classic alternative (Brown 1988): events hash
//! into time buckets of a fixed width, one "year" of buckets covers
//! `buckets × width` seconds, and pops scan forward from the current
//! bucket. With the bucket count kept proportional to the number of
//! pending events (power-of-two resizing) and the width matched to the
//! typical inter-event gap, both insert and extract are O(1) amortized.
//!
//! Two departures from the textbook structure:
//!
//! * **Lazy deletion.** [`CalendarQueue::schedule`] returns an
//!   [`EventId`]; [`CalendarQueue::cancel`] only removes the id from the
//!   pending set. The slot itself stays in its bucket until a pop scan
//!   walks past it or a rebuild filters it out, so cancelling is O(1)
//!   regardless of where the event sits.
//! * **Deterministic tie-break.** Events at equal times pop in schedule
//!   order via a monotone sequence number — the exact contract of the
//!   binary-heap queue the property tests in this module use as the
//!   reference implementation.

use std::collections::HashSet;

/// Handle to a scheduled event, used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

/// One scheduled event.
#[derive(Debug, Clone)]
struct Slot<E> {
    time: f64,
    seq: u64,
    event: E,
}

/// One bucket: slots sorted ascending by `(time, seq)` from `head` on.
/// Popping advances `head` instead of shifting the vector, so the
/// common monotone append/pop-front pattern is O(1).
#[derive(Debug, Clone)]
struct Bucket<E> {
    slots: Vec<Slot<E>>,
    head: usize,
}

impl<E> Bucket<E> {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            head: 0,
        }
    }

    fn first(&self) -> Option<&Slot<E>> {
        self.slots.get(self.head)
    }

    /// Insert keeping `slots[head..]` sorted ascending by `(time, seq)`.
    fn insert(&mut self, slot: Slot<E>) {
        if self.head == self.slots.len() {
            self.slots.clear();
            self.head = 0;
        }
        match self.slots.last() {
            None => self.slots.push(slot),
            Some(last) if (last.time, last.seq) < (slot.time, slot.seq) => self.slots.push(slot),
            _ => {
                let tail = &self.slots[self.head..];
                let idx = tail.partition_point(|s| (s.time, s.seq) < (slot.time, slot.seq));
                self.slots.insert(self.head + idx, slot);
            }
        }
    }

    /// Remove and return the earliest slot.
    fn pop_first(&mut self) -> Option<Slot<E>>
    where
        E: Clone,
    {
        if self.head >= self.slots.len() {
            return None;
        }
        let slot = self.slots[self.head].clone();
        self.advance_head();
        Some(slot)
    }

    fn advance_head(&mut self) {
        self.head += 1;
        if self.head == self.slots.len() || (self.head > 32 && self.head * 2 > self.slots.len()) {
            self.slots.drain(..self.head);
            self.head = 0;
        }
    }
}

/// Smallest bucket count the queue shrinks to.
const MIN_BUCKETS: usize = 4;

/// Time-ordered event queue with O(1) amortized schedule/pop and O(1)
/// cancellation (earliest time first, ties by schedule order).
#[derive(Debug, Clone)]
pub struct CalendarQueue<E> {
    buckets: Vec<Bucket<E>>,
    /// Bucket width in seconds (one bucket covers `[k·width, (k+1)·width)`).
    width: f64,
    /// Virtual bucket index of the current time (monotone, not wrapped).
    cursor: u64,
    now: f64,
    next_seq: u64,
    /// Sequence numbers of events that are scheduled and not cancelled.
    pending: HashSet<u64>,
    /// Cancelled slots still sitting in buckets (garbage awaiting a scan
    /// or rebuild).
    dead: usize,
}

impl<E: Clone> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Clone> CalendarQueue<E> {
    /// Empty queue at time 0.
    pub fn new() -> Self {
        Self {
            buckets: (0..MIN_BUCKETS).map(|_| Bucket::new()).collect(),
            width: 1.0,
            cursor: 0,
            now: 0.0,
            next_seq: 0,
            pending: HashSet::new(),
            dead: 0,
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending (scheduled, not cancelled) events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Virtual (unwrapped) bucket index of an absolute time.
    fn virtual_bucket(&self, time: f64) -> u64 {
        // `as` saturates on overflow; the full-year fallback in `pop`
        // keeps correctness even in that degenerate regime.
        (time / self.width) as u64
    }

    fn physical(&self, vb: u64) -> usize {
        (vb & (self.buckets.len() as u64 - 1)) as usize
    }

    /// Schedule `event` at absolute time `time`; the returned id can
    /// cancel it while it is still pending.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or earlier than the current time.
    pub fn schedule(&mut self, time: f64, event: E) -> EventId {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq);
        let b = self.physical(self.virtual_bucket(time));
        self.buckets[b].insert(Slot { time, seq, event });
        if self.pending.len() > 2 * self.buckets.len() {
            let target = self.buckets.len() * 2;
            self.rebuild(target);
        }
        EventId(seq)
    }

    /// Schedule `event` `delay` seconds from now.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or NaN.
    pub fn schedule_in(&mut self, delay: f64, event: E) -> EventId {
        assert!(delay >= 0.0, "delay must be non-negative");
        self.schedule(self.now + delay, event)
    }

    /// Cancel a pending event. Returns `true` if the event was still
    /// pending (it will never be popped), `false` if it already fired or
    /// was already cancelled. O(1): the slot is lazily discarded later.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.pending.remove(&id.0) {
            self.dead += 1;
            true
        } else {
            false
        }
    }

    /// Pop the earliest pending event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        if self.pending.is_empty() {
            return None;
        }
        if self.dead > 64 && self.dead > self.pending.len() {
            let target = self.buckets.len();
            self.rebuild(target);
        }
        let nb = self.buckets.len();
        let mut vb = self.cursor;
        for _ in 0..nb {
            let b = self.physical(vb);
            // Lazily discard cancelled slots at the bucket head.
            while let Some(s) = self.buckets[b].first() {
                if self.pending.contains(&s.seq) {
                    break;
                }
                self.buckets[b].advance_head();
                self.dead -= 1;
            }
            if let Some(s) = self.buckets[b].first() {
                // Due this "year"? All pending times are >= now, so a
                // head earlier than this bucket's year boundary belongs
                // to the current lap and is the global minimum.
                if s.time < (vb as f64 + 1.0) * self.width {
                    return self.take_from(b, vb);
                }
            }
            vb = vb.wrapping_add(1);
        }
        // A full lap found nothing due: the pending events are sparse or
        // far away. Fall back to a direct minimum scan and jump there.
        let mut best: Option<(usize, f64, u64)> = None;
        for b in 0..nb {
            while let Some(s) = self.buckets[b].first() {
                if self.pending.contains(&s.seq) {
                    break;
                }
                self.buckets[b].advance_head();
                self.dead -= 1;
            }
            if let Some(s) = self.buckets[b].first() {
                if best.is_none_or(|(_, t, q)| (s.time, s.seq) < (t, q)) {
                    best = Some((b, s.time, s.seq));
                }
            }
        }
        let (b, time, _) = best.expect("pending events must be locatable");
        let vb = self.virtual_bucket(time);
        self.take_from(b, vb)
    }

    fn take_from(&mut self, b: usize, vb: u64) -> Option<(f64, E)> {
        let slot = self.buckets[b].pop_first().expect("bucket head checked");
        self.pending.remove(&slot.seq);
        self.now = slot.time;
        self.cursor = vb;
        Some((slot.time, slot.event))
    }

    /// Time of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<f64> {
        if self.pending.is_empty() {
            return None;
        }
        let nb = self.buckets.len();
        let first_live = |bucket: &Bucket<E>| {
            bucket.slots[bucket.head..]
                .iter()
                .find(|s| self.pending.contains(&s.seq))
                .map(|s| (s.time, s.seq))
        };
        let mut vb = self.cursor;
        for _ in 0..nb {
            let b = self.physical(vb);
            if let Some((t, _)) = first_live(&self.buckets[b]) {
                if t < (vb as f64 + 1.0) * self.width {
                    return Some(t);
                }
            }
            vb = vb.wrapping_add(1);
        }
        self.buckets
            .iter()
            .filter_map(first_live)
            .min_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("times not NaN"))
            .map(|(t, _)| t)
    }

    /// Rebuild into `target` buckets (a power of two): drop cancelled
    /// slots, re-estimate the bucket width from the observed inter-event
    /// gaps, and redistribute. O(n log n), amortized away by the growth /
    /// shrink thresholds.
    fn rebuild(&mut self, target: usize) {
        debug_assert!(target.is_power_of_two());
        let mut slots: Vec<Slot<E>> = Vec::with_capacity(self.pending.len());
        for bucket in &mut self.buckets {
            for s in bucket.slots.drain(..) {
                if self.pending.contains(&s.seq) {
                    slots.push(s);
                }
            }
            bucket.head = 0;
        }
        self.dead = 0;
        slots.sort_by(|a, b| {
            (a.time, a.seq)
                .partial_cmp(&(b.time, b.seq))
                .expect("times not NaN")
        });
        // Width ≈ 2 × the median positive gap: robust against both heavy
        // same-time batching (zero gaps) and one far-future outlier.
        let gaps: Vec<f64> = slots
            .windows(2)
            .map(|w| w[1].time - w[0].time)
            .filter(|g| *g > 0.0)
            .collect();
        if !gaps.is_empty() {
            let mut gaps = gaps;
            gaps.sort_by(|a, b| a.partial_cmp(b).expect("gaps not NaN"));
            let median = gaps[gaps.len() / 2];
            if median.is_finite() && median > 0.0 {
                self.width = 2.0 * median;
            }
        }
        self.buckets = (0..target.max(MIN_BUCKETS))
            .map(|_| Bucket::new())
            .collect();
        self.cursor = self.virtual_bucket(self.now);
        // Slots arrive in ascending order, so every insert is an append.
        for slot in slots {
            let b = self.physical(self.virtual_bucket(slot.time));
            self.buckets[b].insert(slot);
        }
    }

    /// Shrink the bucket array when occupancy has collapsed; called from
    /// the simulation loop between batches (keeping it out of `pop` makes
    /// the hot path branch-free).
    pub fn maybe_shrink(&mut self) {
        if self.buckets.len() > MIN_BUCKETS && self.pending.len() * 4 < self.buckets.len() {
            let target = (self.buckets.len() / 2).max(MIN_BUCKETS);
            self.rebuild(target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use pubopt_num::Rng;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_fire_in_schedule_order() {
        let mut q = CalendarQueue::new();
        for i in 0..100 {
            q.schedule(1.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_and_peek_track_pops() {
        let mut q = CalendarQueue::new();
        q.schedule(5.0, ());
        assert_eq!(q.now(), 0.0);
        assert_eq!(q.peek_time(), Some(5.0));
        q.pop();
        assert_eq!(q.now(), 5.0);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = CalendarQueue::new();
        q.schedule(2.0, "first");
        q.pop();
        q.schedule_in(1.5, "second");
        assert_eq!(q.pop(), Some((3.5, "second")));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_past_events() {
        let mut q = CalendarQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    #[should_panic(expected = "event time must not be NaN")]
    fn rejects_nan_times() {
        let mut q = CalendarQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn cancel_suppresses_and_reports_liveness() {
        let mut q = CalendarQueue::new();
        let a = q.schedule(1.0, "a");
        let b = q.schedule(2.0, "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a), "pending event cancels");
        assert!(!q.cancel(a), "second cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(2.0), "peek skips the cancelled slot");
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert!(!q.cancel(b), "popped event cannot be cancelled");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancelling_everything_empties_the_queue() {
        let mut q = CalendarQueue::new();
        let ids: Vec<_> = (0..200).map(|i| q.schedule(i as f64 * 0.25, i)).collect();
        for id in ids {
            assert!(q.cancel(id));
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        // The queue remains usable after mass cancellation.
        q.schedule(50.0, 1234);
        assert_eq!(q.pop(), Some((50.0, 1234)));
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        // Events many "years" apart exercise the full-lap fallback scan.
        let mut q = CalendarQueue::new();
        q.schedule(1e6, "far");
        q.schedule(0.5, "near");
        q.schedule(1e3, "mid");
        assert_eq!(q.pop(), Some((0.5, "near")));
        assert_eq!(q.pop(), Some((1e3, "mid")));
        assert_eq!(q.pop(), Some((1e6, "far")));
    }

    /// Reference model: the binary-heap [`EventQueue`] plus an external
    /// cancelled set (the heap has no cancellation; popped entries whose
    /// payload is cancelled are skipped).
    struct Reference {
        heap: EventQueue<u64>,
        cancelled: HashSet<u64>,
    }

    impl Reference {
        fn new() -> Self {
            Self {
                heap: EventQueue::new(),
                cancelled: HashSet::new(),
            }
        }

        fn pop(&mut self) -> Option<(f64, u64)> {
            while let Some((t, id)) = self.heap.pop() {
                if !self.cancelled.contains(&id) {
                    return Some((t, id));
                }
            }
            None
        }
    }

    /// Drive both queues through an identical seeded workload of
    /// schedules, cancels and pops; every popped `(time, payload)` pair
    /// must match, including tie-breaks (times are quantized so ties are
    /// common).
    fn random_workload_agrees(seed: u64, ops: usize, quantum: f64, horizon: f64) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut reference = Reference::new();
        let mut live: Vec<(EventId, u64)> = Vec::new();
        let mut next_payload = 0u64;
        for _ in 0..ops {
            match rng.below(10) {
                // 60%: schedule at a quantized offset from now (ties land
                // on the shared lattice). The base takes both clocks into
                // account: the reference heap's clock advances past
                // cancelled entries it skips, which the calendar's never
                // does, and both queues reject past times.
                0..=5 => {
                    let steps = rng.below((horizon / quantum) as u64) + 1;
                    let t = cal.now().max(reference.heap.now()) + steps as f64 * quantum;
                    let payload = next_payload;
                    next_payload += 1;
                    let id = cal.schedule(t, payload);
                    reference.heap.schedule(t, payload);
                    live.push((id, payload));
                }
                // 20%: cancel a random live event.
                6..=7 => {
                    if !live.is_empty() {
                        let i = rng.below(live.len() as u64) as usize;
                        let (id, payload) = live.swap_remove(i);
                        assert!(cal.cancel(id));
                        reference.cancelled.insert(payload);
                    }
                }
                // 20%: pop and compare.
                _ => {
                    let got = cal.pop();
                    let want = reference.pop();
                    assert_eq!(got, want, "divergence at seed {seed}");
                    if let Some((_, payload)) = got {
                        live.retain(|(_, p)| *p != payload);
                    }
                }
            }
        }
        // Drain both completely.
        loop {
            let got = cal.pop();
            let want = reference.pop();
            assert_eq!(got, want, "drain divergence at seed {seed}");
            if got.is_none() {
                break;
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn matches_heap_reference_with_ties(seed in 0u64..32) {
            random_workload_agrees(seed, 400, 0.125, 8.0);
        }

        #[test]
        fn matches_heap_reference_sparse(seed in 100u64..116) {
            // Coarse quantum, long horizon: few events per year, many
            // resizes and fallback scans.
            random_workload_agrees(seed, 200, 37.0, 10_000.0);
        }

        #[test]
        fn matches_heap_reference_dense(seed in 200u64..216) {
            // Everything lands on a handful of distinct times: tie-break
            // ordering carries the whole comparison.
            random_workload_agrees(seed, 400, 1.0, 4.0);
        }
    }

    #[test]
    fn grows_and_shrinks_across_power_of_two_boundaries() {
        let mut q = CalendarQueue::new();
        // Push through several growth thresholds (4→8→…→512 buckets).
        let n = 1000u64;
        for i in 0..n {
            q.schedule(i as f64 * 0.01, i);
        }
        assert!(
            q.buckets.len() >= 512,
            "expected growth, have {} buckets",
            q.buckets.len()
        );
        assert_eq!(q.len() as u64, n);
        // Drain most of the queue, shrinking as occupancy collapses.
        for i in 0..n - 3 {
            assert_eq!(q.pop(), Some((i as f64 * 0.01, i)));
            q.maybe_shrink();
        }
        assert!(
            q.buckets.len() <= 16,
            "expected shrink, have {} buckets",
            q.buckets.len()
        );
        for i in n - 3..n {
            assert_eq!(q.pop(), Some((i as f64 * 0.01, i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn resize_boundary_preserves_order_under_ties_and_cancels() {
        // Exactly straddle a resize: fill to the threshold, cancel half,
        // keep scheduling so a rebuild happens with garbage present.
        let mut q = CalendarQueue::new();
        let mut kept = Vec::new();
        for i in 0..64u64 {
            let id = q.schedule((i % 8) as f64, i);
            if i % 2 == 0 {
                q.cancel(id);
            } else {
                kept.push(((i % 8) as f64, i));
            }
        }
        kept.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for want in kept {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
    }
}
