//! Deterministic future-event queue.
//!
//! A thin wrapper over a binary heap that orders events by virtual time,
//! then by a same-instant priority, and breaks the remaining ties by
//! insertion order, so two runs of the same simulation always process
//! events in the same order regardless of heap internals.
//!
//! The three fields are packed into one `u128` key,
//! `(at << 64) | (priority << 56) | seq`, whose integer order is the
//! lexicographic order of `(at, priority, seq)`: a sift compares one
//! integer instead of three fields, and [`EventQueue::pop`] and
//! [`EventQueue::peek_key`] decode the time and priority back out of it.
//! `seq` has the low 56 bits, so a queue takes at most 2^56 pushes over
//! its life; the push past that bound panics rather than wrap into the
//! priority bits.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Bits of the key below the priority: the room for `seq`.
const SEQ_BITS: u32 = 56;

/// A scheduled entry: an event of type `E` under its packed
/// `(at, priority, seq)` key.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    key: u128,
    event: E,
}

impl<E> Scheduled<E> {
    /// The time and priority packed into the key.
    fn at_priority(&self) -> (SimTime, u8) {
        let at = SimTime::from_secs((self.key >> 64) as u64);
        (at, (self.key >> SEQ_BITS) as u8)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key — the
        // earliest (time, priority, seq) — pops first.
        other.key.cmp(&self.key)
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
    ///
    /// # Panics
    ///
    /// Panics once the queue has taken 2^56 pushes over its life (see the
    /// module docs).
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
    ///
    /// # Panics
    ///
    /// Panics once the queue has taken 2^56 pushes over its life (see the
    /// module docs).
    pub fn push_with_priority(&mut self, at: SimTime, priority: u8, event: E) {
        let seq = self.next_seq;
        assert!(seq < 1 << SEQ_BITS, "event queue sequence exhausted");
        self.next_seq += 1;
        let key =
            (u128::from(at.as_secs()) << 64) | (u128::from(priority) << SEQ_BITS) | u128::from(seq);
        self.heap.push(Scheduled { key, event });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.at_priority().0, s.event))
    }

    /// The `(time, priority)` of the earliest pending event, without
    /// removing it: what a caller merging this queue with other ordered
    /// event sources compares their heads against.
    pub fn peek_key(&self) -> Option<(SimTime, u8)> {
        self.heap.peek().map(Scheduled::at_priority)
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
    use crate::rng::DetRng;

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

    /// The packed key pops exactly what a reference sorted by
    /// `(at, priority, seq)` field by field pops, over seeded interleavings
    /// of pushes and pops whose times collide — the two ends of the clock
    /// included — across all 256 priorities, half of the pushes drawn from
    /// four of them so that `seq` decides many ties.
    #[test]
    fn packed_key_pops_in_field_order() {
        let mut priorities = [false; 256];
        for seed in 0..32 {
            let mut rng = DetRng::seed_from(seed);
            let mut q = EventQueue::new();
            // The reference: every pending (at, priority, seq) entry.
            let mut pending: Vec<(SimTime, u8, u64)> = Vec::new();
            let mut seq = 0u64;
            for _ in 0..2_000 {
                if pending.is_empty() || rng.chance(0.55) {
                    let at = match rng.uniform_u64(0, 9) {
                        0 => SimTime::ZERO,
                        1 => SimTime::MAX,
                        2 => SimTime::from_secs(u64::MAX - 1),
                        k => SimTime::from_secs(k * 1_000),
                    };
                    let priority = match rng.chance(0.5) {
                        true => rng.uniform_u64(0, 255) as u8,
                        false => rng.uniform_u64(126, 129) as u8,
                    };
                    priorities[priority as usize] = true;
                    q.push_with_priority(at, priority, seq);
                    pending.push((at, priority, seq));
                    seq += 1;
                } else {
                    let head = *pending.iter().min().expect("non-empty");
                    pending.retain(|e| *e != head);
                    assert_eq!(q.peek_key(), Some((head.0, head.1)), "seed {seed}");
                    assert_eq!(q.pop(), Some((head.0, head.2)), "seed {seed}");
                }
                assert_eq!(q.len(), pending.len());
            }
            pending.sort_unstable();
            for (at, _, seq) in pending {
                assert_eq!(q.pop(), Some((at, seq)), "seed {seed}");
            }
            assert_eq!(q.pop(), None);
        }
        assert!(priorities.iter().all(|&p| p), "every priority drawn");
    }

    #[test]
    #[should_panic(expected = "sequence exhausted")]
    fn a_push_past_the_seq_bound_panics() {
        let mut q = EventQueue::new();
        q.next_seq = (1 << SEQ_BITS) - 1;
        q.push_with_priority(SimTime::MAX, u8::MAX, "last");
        assert_eq!(q.peek_key(), Some((SimTime::MAX, u8::MAX)));
        q.push(SimTime::ZERO, "one too many");
    }
}
