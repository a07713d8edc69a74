//! Deterministic future-event queue.
//!
//! A thin wrapper over a binary heap that orders events by virtual time and
//! breaks ties by insertion order, so two runs of the same simulation always
//! process events in the same order regardless of heap internals.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled entry: an event of type `E` due at a [`SimTime`].
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: SimTime,
    priority: u8,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.priority == other.priority && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest
        // (time, priority, seq) pops first. Priority orders same-time
        // events; sequence numbers make ties FIFO.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.priority.cmp(&self.priority))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A future-event list with deterministic FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use pqos_sim_core::queue::EventQueue;
/// use pqos_sim_core::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(10), "b");
/// q.push(SimTime::from_secs(5), "a");
/// q.push(SimTime::from_secs(10), "c");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(10), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(10), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at` with the default priority (128).
    ///
    /// Events scheduled for the same instant and priority pop in the order
    /// they were pushed.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.push_with_priority(at, 128, event);
    }

    /// Schedules `event` at `at` with an explicit same-time ordering
    /// priority — lower pops first among events due at the same instant.
    ///
    /// Simulators use this to fix the semantics of simultaneous events
    /// (e.g. "failures strike before a same-instant checkpoint completes",
    /// "a finishing job releases its nodes before a same-instant start
    /// claims them").
    pub fn push_with_priority(&mut self, at: SimTime, priority: u8, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            at,
            priority,
            seq,
            event,
        });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// The `(time, priority)` of the earliest pending event, without
    /// removing it: what a caller merging this queue with other ordered
    /// event sources compares their heads against.
    pub fn peek_key(&self) -> Option<(SimTime, u8)> {
        self.heap.peek().map(|s| (s.at, s.priority))
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

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (at, e) in iter {
            self.push(at, e);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for secs in [30u64, 10, 20, 5, 25] {
            q.push(SimTime::from_secs(secs), secs);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![5, 10, 20, 25, 30]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), ());
        assert_eq!(q.peek_key(), Some((SimTime::from_secs(3), 128)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), ())));
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn collects_from_iterator() {
        let q: EventQueue<u32> = [(SimTime::from_secs(2), 2u32), (SimTime::from_secs(1), 1)]
            .into_iter()
            .collect();
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_key(), Some((SimTime::from_secs(1), 128)));
    }

    #[test]
    fn priorities_order_same_time_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(100);
        q.push_with_priority(t, 5, "start");
        q.push_with_priority(t, 0, "failure");
        q.push_with_priority(t, 1, "finish");
        q.push(t, "default");
        assert_eq!(q.pop().unwrap().1, "failure");
        assert_eq!(q.pop().unwrap().1, "finish");
        assert_eq!(q.pop().unwrap().1, "start");
        assert_eq!(q.pop().unwrap().1, "default");
    }

    #[test]
    fn peek_key_reads_the_head_time_and_priority() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_key(), None);
        let t = SimTime::from_secs(100);
        q.push_with_priority(t, 6, "start");
        q.push_with_priority(t, 2, "checkpoint");
        q.push_with_priority(SimTime::from_secs(200), 0, "later");
        assert_eq!(q.peek_key(), Some((t, 2)));
        assert_eq!(q.len(), 3, "peeking removes nothing");
        q.pop();
        assert_eq!(q.peek_key(), Some((t, 6)));
    }

    #[test]
    fn priority_never_overrides_time() {
        let mut q = EventQueue::new();
        q.push_with_priority(SimTime::from_secs(10), 255, "early-low-prio");
        q.push_with_priority(SimTime::from_secs(20), 0, "late-high-prio");
        assert_eq!(q.pop().unwrap().1, "early-low-prio");
    }

    #[test]
    fn interleaved_push_pop_is_stable() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "x");
        assert_eq!(q.pop().unwrap().1, "x");
        q.push(SimTime::from_secs(2), "y");
        q.push(SimTime::from_secs(2), "z");
        assert_eq!(q.pop().unwrap().1, "y");
        assert_eq!(q.pop().unwrap().1, "z");
    }
}
