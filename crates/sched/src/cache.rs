//! The quote cache: memoized slot walks across negotiations.
//!
//! Consecutive quotes against a saturated backlog ask nearly the same
//! questions, and a single admission only perturbs the timeline near the
//! reservation it adds. [`CachedReservationBook`] wraps [`ReservationBook`]
//! and memoizes, per `(size, duration, from, exclude, max_slots)` probe
//! shape, *the prefix its walk produced*: the slots handed over before the
//! walk ended — each as its start and the `W` mask words the walk held for
//! it, never a decoded node list — the time range it examined to find them
//! (`[from, coverage_end)`), and whether it ended on its own (`max_slots`
//! reached or off the book) or at its caller's word. A stored prefix is a
//! prefix of the shape's full answer for as long as no mutation touches
//! that range, so `add`/`remove` delta-invalidate only the
//! entries whose examined range intersects the mutated interval — a quote
//! for next week survives an accept that books nodes this afternoon
//! untouched, and the shorter the dialog that seeded an entry, the less
//! can invalidate it.
//!
//! A hit replays the prefix to the visitor, each slot's words decoding
//! only the free nodes the visitor reads, as the walk's would. A visitor
//! still asking when an *unfinished* prefix runs out is a miss after all: a
//! fresh walk — silent over the slots already replayed — serves the rest,
//! and its longer prefix replaces the entry.
//!
//! That is all the cache owns. The timeline it answers from is the book's
//! own — flat rows patched in place by every mutation, walked with the
//! book's skip index and per-thread scratch (see
//! [`reservation`](crate::reservation)) — so there is no snapshot to
//! rebuild after a mutation, and a memo miss costs exactly one walk, as
//! far as its caller lets it run.
//!
//! The wrapper is behavior-invisible: it answers every
//! [`AvailabilityView`] query byte-identically to the wrapped book (and
//! hence to [`NaiveReservationBook`](crate::reservation::NaiveReservationBook)),
//! which the randomized harnesses in `tests/properties.rs` assert after
//! every step of interleaved mutate/probe workloads, visits stopped early
//! included.

use crate::reservation::{
    with_decode_buffer, AvailabilityView, FreeNodes, Reservation, ReservationBook,
    ReservationError, ReservationId, Slot, SlotVisitor,
};
use pqos_cluster::node::NodeId;
use pqos_cluster::partition::Partition;
use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
use pqos_workload::job::JobId;
use std::collections::HashMap;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Memo entries are dropped wholesale past this population; the cap bounds
/// memory on adversarial key streams (every probe unique) while staying far
/// above what a tick's worth of negotiations produces.
const MEMO_CAPACITY: usize = 4096;

/// Cumulative counters describing how the quote cache is doing. Snapshot
/// via [`CachedReservationBook::stats`]; the service exports them as
/// `pqos_quote_cache_*` gauges on `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuoteCacheStats {
    /// Probes answered straight from the memo: the stored prefix reached
    /// as far as the caller went.
    pub hits: u64,
    /// Probes that ran a fresh walk (and seeded the memo) — no entry, or
    /// an unfinished prefix its caller outlived.
    pub misses: u64,
    /// Always 0: the cache walks the book's own timeline, so there is no
    /// profile snapshot left to rebuild. Kept because the
    /// `pqos_quote_cache_profile_rebuilds` gauge and the perf ledger's
    /// `cache.rebuilds` read it.
    pub profile_rebuilds: u64,
    /// Memo entries dropped because a mutation touched their examined span
    /// (or the memo hit its capacity cap).
    pub entries_invalidated: u64,
}

impl QuoteCacheStats {
    /// Total memo lookups.
    pub(crate) fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the memo (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// The exact probe shape, memoized verbatim. The exclude list is kept in
/// caller order: a permuted list keys a separate (equally correct) entry
/// rather than risking a false merge.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MemoKey {
    size: u32,
    duration: u64,
    from: u64,
    max_slots: usize,
    exclude: Box<[u32]>,
}

/// What one walk produced before it ended: a prefix of the key's full
/// answer for as long as no mutation touches `[key.from, coverage_end)`.
/// Flat, so storing a slot is an append and a replay reads one buffer.
#[derive(Debug, Default)]
struct Prefix {
    /// End (seconds, exclusive) of the time range the walk examined.
    coverage_end: u64,
    /// The walk ended on its own (`max_slots` reached or off the book):
    /// this is the whole answer. Otherwise its caller stopped it, and a
    /// caller that wants more walks afresh.
    finished: bool,
    /// Each slot's start.
    starts: Vec<SimTime>,
    /// Each slot's busy mask as the walk handed it over, `W` words a slot:
    /// a replay decodes only the free nodes its visitor reads, as the walk
    /// would have.
    busy: Vec<u64>,
}

/// A [`ReservationBook`] wrapped with the quote memo.
///
/// All mutators and queries of the plain book are mirrored; `earliest_slots`
/// goes through the memo, everything else delegates. Mutations require
/// `&mut self`, queries `&self` — the type is `Sync`, so `negotiate_batch`
/// can fan probes across threads against one book.
///
/// # Examples
///
/// ```
/// use pqos_cluster::partition::Partition;
/// use pqos_sched::cache::CachedReservationBook;
/// use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
/// use pqos_workload::job::JobId;
///
/// let mut book = CachedReservationBook::new(8);
/// book.add(
///     JobId::new(1),
///     Partition::contiguous(0, 8),
///     TimeWindow::new(SimTime::from_secs(0), SimTime::from_secs(100)),
/// )?;
/// let probe = |b: &CachedReservationBook| {
///     b.earliest_slots(4, SimDuration::from_secs(50), SimTime::ZERO, &[], 1)
/// };
/// assert_eq!(probe(&book), probe(&book)); // second answer is a memo hit
/// assert_eq!(book.stats().hits, 1);
/// # Ok::<(), pqos_sched::reservation::ReservationError>(())
/// ```
#[derive(Debug)]
pub struct CachedReservationBook {
    book: ReservationBook,
    memo: Mutex<HashMap<MemoKey, Arc<Prefix>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
}

impl CachedReservationBook {
    /// Creates an empty cached book over a cluster of `cluster_size` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_size == 0`.
    pub fn new(cluster_size: u32) -> Self {
        CachedReservationBook::from_book(ReservationBook::new(cluster_size))
    }

    /// Wraps an existing book, starting with a cold cache.
    pub(crate) fn from_book(book: ReservationBook) -> Self {
        CachedReservationBook {
            book,
            memo: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        }
    }

    /// The wrapped book, read-only.
    pub fn inner(&self) -> &ReservationBook {
        &self.book
    }

    /// The cluster size this book plans for.
    pub fn cluster_size(&self) -> u32 {
        self.book.cluster_size()
    }

    /// Number of live reservations.
    pub fn len(&self) -> usize {
        self.book.len()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.book.is_empty()
    }

    /// Iterates over live reservations in insertion order, sorted out of
    /// the book's hashed index; see [`ReservationBook::iter`].
    pub fn iter(&self) -> impl Iterator<Item = (ReservationId, &Reservation)> {
        self.book.iter()
    }

    /// Cumulative cache counters.
    pub fn stats(&self) -> QuoteCacheStats {
        QuoteCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            profile_rebuilds: 0,
            entries_invalidated: self.invalidated.load(Ordering::Relaxed),
        }
    }

    /// Live memo population (for tests and diagnostics).
    pub fn memo_len(&self) -> usize {
        self.memo.lock().expect("quote cache lock poisoned").len()
    }

    /// Commits `partition` to `job` over `interval`; see
    /// [`ReservationBook::add`].
    ///
    /// # Errors
    ///
    /// Same contract as [`ReservationBook::add`]. A rejected add leaves the
    /// cache untouched.
    pub fn add(
        &mut self,
        job: JobId,
        partition: Partition,
        interval: TimeWindow,
    ) -> Result<ReservationId, ReservationError> {
        let id = self.book.add(job, partition, interval)?;
        self.note_mutation(interval.start().as_secs(), interval.end().as_secs());
        Ok(id)
    }

    /// Releases a reservation; see [`ReservationBook::remove`].
    pub fn remove(&mut self, id: ReservationId) -> Option<Reservation> {
        let r = self.book.remove(id)?;
        self.note_mutation(r.interval.start().as_secs(), r.interval.end().as_secs());
        Some(r)
    }

    /// Nodes committed at instant `t`; see
    /// [`ReservationBook::occupied_at`].
    pub fn occupied_at(&self, t: SimTime) -> u32 {
        self.book.occupied_at(t)
    }

    /// Enumerates up to `max_slots` feasible placements through the memo.
    /// Byte-identical to [`ReservationBook::earliest_slots`] on the
    /// wrapped book.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` or `duration` is zero (same contract as the
    /// plain book).
    pub fn earliest_slots(
        &self,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
        max_slots: usize,
    ) -> Vec<Slot> {
        AvailabilityView::earliest_slots(self, size, duration, from, exclude, max_slots)
    }

    fn lock_memo(&self) -> MutexGuard<'_, HashMap<MemoKey, Arc<Prefix>>> {
        self.memo.lock().expect("quote cache lock poisoned")
    }

    /// Records an effective mutation over `[start, end)` seconds: drops
    /// exactly the memo entries whose examined range intersects it.
    fn note_mutation(&mut self, start: u64, end: u64) {
        let memo = self.memo.get_mut().expect("quote cache lock poisoned");
        let before = memo.len();
        memo.retain(|key, entry| !(start < entry.coverage_end && key.from < end));
        self.invalidated
            .fetch_add((before - memo.len()) as u64, Ordering::Relaxed);
    }
}

impl Clone for CachedReservationBook {
    /// Clones the underlying book with a cold cache and zeroed counters.
    fn clone(&self) -> Self {
        CachedReservationBook::from_book(self.book.clone())
    }
}

impl fmt::Display for CachedReservationBook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "cached book: {} reservations, {}/{} memo hits",
            self.book.len(),
            s.hits,
            s.lookups()
        )
    }
}

impl AvailabilityView for CachedReservationBook {
    fn cluster_size(&self) -> u32 {
        self.book.cluster_size()
    }
    fn free_nodes_during(&self, window: TimeWindow, exclude: &[NodeId]) -> Vec<NodeId> {
        self.book.free_nodes_during(window, exclude)
    }
    fn busy_mask_during(&self, window: TimeWindow, exclude: &[NodeId], busy: &mut [u64]) {
        self.book.busy_mask_during(window, exclude, busy);
    }
    fn change_points(&self, from: SimTime) -> Vec<SimTime> {
        self.book.change_points(from)
    }
    /// The cached hot path. A memo hit replays the stored prefix; a caller
    /// still asking when an unfinished prefix runs out gets a fresh walk —
    /// silent over the slots already replayed — whose (longer) prefix
    /// replaces the entry, and counts as a miss.
    fn visit_slots(
        &self,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
        max_slots: usize,
        visit: &mut SlotVisitor<'_>,
    ) {
        assert!(size > 0, "job size must be positive");
        assert!(!duration.is_zero(), "duration must be positive");
        if max_slots == 0 {
            return;
        }
        let key = MemoKey {
            size,
            duration: duration.as_secs(),
            from: from.as_secs(),
            max_slots,
            exclude: exclude.iter().map(|n| n.as_u32()).collect(),
        };
        // Shared, so a hit leaves the lock with a pointer copy and replays
        // to its caller unlocked.
        let stored = self.lock_memo().get(&key).map(Arc::clone);
        let mut replayed = 0;
        if let Some(prefix) = stored {
            let width = self.book.cluster_size();
            let stopped = with_decode_buffer(|decoded| {
                let masks = prefix.busy.chunks_exact(width.div_ceil(64) as usize);
                prefix.starts.iter().zip(masks).any(|(&start, busy)| {
                    visit(start, &mut FreeNodes::masked(width, busy, decoded)).is_break()
                })
            });
            if stopped || prefix.finished {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return;
            }
            replayed = prefix.starts.len();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // The walk runs with the memo unlocked, so the probes of a batch
        // proceed in parallel and `visit` may probe this book; mutation
        // needs `&mut self`, so the book cannot change under it.
        let mut prefix = Prefix::default();
        let (coverage_end, finished) = self.book.walk(
            size,
            duration,
            from,
            exclude,
            max_slots,
            &mut |start, free| {
                let busy = free
                    .busy_words()
                    .expect("the book's walk hands over mask words");
                prefix.busy.extend_from_slice(busy);
                prefix.starts.push(start);
                if prefix.starts.len() > replayed {
                    visit(start, free)
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        (prefix.coverage_end, prefix.finished) = (coverage_end.as_secs(), finished);
        let mut memo = self.lock_memo();
        if memo.len() >= MEMO_CAPACITY {
            self.invalidated
                .fetch_add(memo.len() as u64, Ordering::Relaxed);
            memo.clear();
        }
        memo.insert(key, Arc::new(prefix));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(SimTime::from_secs(a), SimTime::from_secs(b))
    }

    fn probe_all(
        book: &dyn AvailabilityView,
        size: u32,
        dur: u64,
        from: u64,
        exclude: &[NodeId],
        max: usize,
    ) -> Vec<Slot> {
        book.earliest_slots(
            size,
            SimDuration::from_secs(dur),
            SimTime::from_secs(from),
            exclude,
            max,
        )
    }

    #[test]
    fn cached_answers_match_plain_book() {
        let mut cached = CachedReservationBook::new(16);
        let mut plain = ReservationBook::new(16);
        let jobs = [
            (1, Partition::contiguous(0, 8), w(0, 100)),
            (2, Partition::contiguous(8, 8), w(50, 150)),
            (3, Partition::contiguous(0, 4), w(100, 400)),
            (4, Partition::contiguous(4, 12), w(200, 300)),
        ];
        for (j, p, win) in jobs {
            assert_eq!(
                cached.add(JobId::new(j), p.clone(), win),
                plain.add(JobId::new(j), p, win)
            );
        }
        let shapes = [
            (1u32, 10u64, 0u64),
            (4, 60, 0),
            (8, 120, 25),
            (16, 50, 0),
            (3, 500, 150),
            (16, 1, 400),
        ];
        for &(size, dur, from) in &shapes {
            for max in [1, 3, 16] {
                let exclude = [NodeId::new(2), NodeId::new(999)];
                assert_eq!(
                    probe_all(&cached, size, dur, from, &exclude, max),
                    probe_all(&plain, size, dur, from, &exclude, max),
                    "size={size} dur={dur} from={from} max={max}"
                );
                // And again, from the memo.
                assert_eq!(
                    probe_all(&cached, size, dur, from, &exclude, max),
                    probe_all(&plain, size, dur, from, &exclude, max)
                );
            }
        }
        let stats = cached.stats();
        assert_eq!(stats.hits, stats.misses);
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
        assert_eq!(stats.profile_rebuilds, 0, "no profile left to rebuild");
    }

    #[test]
    fn mutations_invalidate_only_touched_spans() {
        let mut cached = CachedReservationBook::new(8);
        cached
            .add(JobId::new(1), Partition::contiguous(0, 8), w(0, 100))
            .unwrap();
        // Two cached walks: one examines [0, ~150), one examines far future.
        let near = probe_all(&cached, 4, 50, 0, &[], 1);
        assert_eq!(near[0].start, SimTime::from_secs(100));
        let far = probe_all(&cached, 4, 50, 100_000, &[], 1);
        assert_eq!(far[0].start, SimTime::from_secs(100_000));
        assert_eq!(cached.memo_len(), 2);

        // A mutation in the near span drops only the near entry.
        let id2 = cached
            .add(JobId::new(2), Partition::contiguous(0, 8), w(100, 140))
            .unwrap();
        assert_eq!(cached.memo_len(), 1);
        assert_eq!(cached.stats().entries_invalidated, 1);
        let near2 = probe_all(&cached, 4, 50, 0, &[], 1);
        assert_eq!(near2[0].start, SimTime::from_secs(140));
        // The far entry survived and still answers correctly (hit).
        let hits_before = cached.stats().hits;
        let far2 = probe_all(&cached, 4, 50, 100_000, &[], 1);
        assert_eq!(far2, far);
        assert_eq!(cached.stats().hits, hits_before + 1);

        // Removing the second job restores the original near answer.
        cached.remove(id2).unwrap();
        let near3 = probe_all(&cached, 4, 50, 0, &[], 1);
        assert_eq!(near3, near);
    }

    #[test]
    fn rejected_add_leaves_cache_warm() {
        let mut cached = CachedReservationBook::new(4);
        cached
            .add(JobId::new(1), Partition::contiguous(0, 2), w(0, 100))
            .unwrap();
        let first = probe_all(&cached, 2, 50, 0, &[], 2);
        let err = cached
            .add(JobId::new(2), Partition::contiguous(1, 2), w(50, 150))
            .unwrap_err();
        assert!(matches!(err, ReservationError::Conflict { .. }));
        let hits_before = cached.stats().hits;
        assert_eq!(probe_all(&cached, 2, 50, 0, &[], 2), first);
        assert_eq!(cached.stats().hits, hits_before + 1);
    }

    #[test]
    fn wide_cluster_probes_cross_word_boundaries() {
        let mut cached = CachedReservationBook::new(130);
        let mut plain = ReservationBook::new(130);
        for (j, lo, n, win) in [
            (1u64, 0u32, 100u32, w(0, 500)),
            (2, 100, 30, w(200, 800)),
            (3, 0, 90, w(500, 900)),
        ] {
            cached
                .add(JobId::new(j), Partition::contiguous(lo, n), win)
                .unwrap();
            plain
                .add(JobId::new(j), Partition::contiguous(lo, n), win)
                .unwrap();
        }
        for &(size, dur, from) in &[(128u32, 100u64, 0u64), (64, 300, 100), (1, 1000, 0)] {
            assert_eq!(
                probe_all(&cached, size, dur, from, &[], 5),
                probe_all(&plain, size, dur, from, &[], 5)
            );
        }
    }

    #[test]
    fn clone_and_display() {
        let mut cached = CachedReservationBook::new(4);
        cached
            .add(JobId::new(1), Partition::contiguous(0, 2), w(0, 10))
            .unwrap();
        let _ = probe_all(&cached, 1, 5, 0, &[], 1);
        let clone = cached.clone();
        assert_eq!(clone.len(), 1);
        assert_eq!(clone.stats(), QuoteCacheStats::default());
        assert_eq!(
            probe_all(&clone, 1, 5, 0, &[], 1),
            probe_all(&cached, 1, 5, 0, &[], 1)
        );
        assert!(cached.to_string().contains("1 reservations"));
        assert_eq!(clone.iter().count(), 1);
        let (id, _) = clone.iter().next().unwrap();
        assert_eq!(clone.inner().get(id).unwrap().job, JobId::new(1));
    }

    #[test]
    fn zero_max_slots_short_circuits() {
        let cached = CachedReservationBook::new(4);
        assert!(probe_all(&cached, 1, 5, 0, &[], 0).is_empty());
        assert_eq!(cached.stats().lookups(), 0);
    }
}
