//! The deterministic event queue at millisecond resolution.
//!
//! Milliseconds keep sub-second P2P latencies ordered correctly even
//! though the public [`cn_chain::Timestamp`] unit is seconds. Ties are
//! broken by an insertion sequence number, so runs are reproducible no
//! matter how events collide: pop order is ascending `(due, seq)`.
//!
//! [`EventQueue`] is a binary heap, and [`World`] runs on it. A calendar
//! queue with the same contract showed no end-to-end gain over it on the
//! benchmark workloads, so the heap is the only queue.
//!
//! [`World`]: crate::world::World

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation time in milliseconds.
pub type SimMillis = u64;

/// An entry in the queue: a payload due at a time.
struct Scheduled<E> {
    due: SimMillis,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-queue on (due, seq).
        other.due.cmp(&self.due).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic min-priority event queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimMillis,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0, now: 0 }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimMillis {
        self.now
    }

    /// Schedules `payload` at absolute time `due`.
    ///
    /// # Panics
    /// Panics when `due` is in the past — events may not rewrite history.
    pub fn schedule(&mut self, due: SimMillis, payload: E) {
        assert!(due >= self.now, "event scheduled at {due} before now {}", self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { due, seq, payload });
    }

    /// Pops the next event, advancing the clock to its due time.
    pub fn pop(&mut self) -> Option<(SimMillis, E)> {
        let s = self.heap.pop()?;
        self.now = s.due;
        Some((s.due, s.payload))
    }

    /// The next event's due time and payload without popping it — what a
    /// batch drain inspects to decide whether the run continues.
    pub fn peek(&self) -> Option<(SimMillis, &E)> {
        self.heap.peek().map(|s| (s.due, &s.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
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
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.now(), 20);
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5, "first");
        q.schedule(5, "second");
        q.schedule(5, "third");
        assert_eq!(q.pop().expect("has").1, "first");
        assert_eq!(q.pop().expect("has").1, "second");
        assert_eq!(q.pop().expect("has").1, "third");
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(7, ());
        assert_eq!(q.peek(), Some((7, &())));
        assert_eq!(q.now(), 0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }

    #[test]
    fn interleaved_scheduling_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(10, 1u32);
        assert_eq!(q.pop(), Some((10, 1)));
        q.schedule(15, 2);
        q.schedule(12, 3);
        assert_eq!(q.pop(), Some((12, 3)));
        assert_eq!(q.pop(), Some((15, 2)));
    }

    #[test]
    fn payload_peek_matches_next_pop() {
        let mut q = EventQueue::new();
        for (due, p) in [(9, "b"), (3, "a"), (9, "c")] {
            q.schedule(due, p);
        }
        let mut popped = Vec::new();
        while let Some((due, &p)) = q.peek() {
            assert_eq!(q.pop(), Some((due, p)));
            popped.push(p);
        }
        assert_eq!(popped, ["a", "b", "c"]);
        assert_eq!(q.peek(), None);
    }
}
