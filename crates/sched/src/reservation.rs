//! The reservation book: a conservative-backfilling availability profile.
//!
//! The paper's scheduler is "FCFS with backfilling" in which "jobs that have
//! already been scheduled for later execution retain their scheduled
//! partition" (§3.3) — i.e. every job is given a concrete
//! `(partition, time interval)` commitment when it is scheduled, and later
//! jobs may slot into earlier holes only where they fit without disturbing
//! existing commitments. That is *conservative* backfilling: the book below
//! is the profile of commitments, and [`AvailabilityView::visit_slots`]
//! enumerates the candidate start times a new job could take — lazily, one
//! slot at a time, because the negotiation that asks is a dialog that ends
//! at the first slot the user takes.
//!
//! # Data structure
//!
//! [`ReservationBook`] keeps the availability profile as **one timeline,
//! stored in chunks and edited in place**: a piecewise-constant sequence of
//! rows, one per distinct reservation endpoint, sorted by time. Row `i`
//! covers `[times[i], times[i + 1])` (the last row runs to infinity) and
//! holds
//!
//! * `busy` — `W = ⌈cluster/64⌉` words: the union of all partitions
//!   committed over the row;
//! * `starts` — the same shape: the nodes of reservations starting exactly
//!   at `times[i]` (point-instant queries need them);
//! * `bounds` — how many live reservation endpoints sit at `times[i]` (the
//!   row is merged away when the last one is released);
//! * `free` — `cluster − popcount(busy)`.
//!
//! The rows live in **chunks** of at most 256 consecutive rows, each the
//! parallel arrays of its own rows (`busy` and `starts` one contiguous
//! arena apiece) plus the **skip index**'s summary of them: the maximum and
//! minimum of `free`. A probe for `k` nodes hops over whole chunks that
//! cannot start a slot (`max < k`) and finds the last row that sinks a
//! candidate window without scanning it (`min ≥ k` chunks hold no such
//! row). The index only ever discards candidates that provably cannot
//! fit, so it never changes an answer. Reads locate a row chunk first,
//! then row within the chunk — searching forward from a lower bound on
//! the answer where the read knows one, so an answer a few rows on costs a
//! few reads; a walk carries a cursor per kind of read, so moving a few
//! rows costs a comparison, and over a book of one chunk it reads the
//! arrays directly.
//!
//! Every accepted promise is one small, local edit of that profile: a
//! search for each endpoint, at most two row inserts (or deletes) that shift the rows
//! behind them *within their chunk*, a word-parallel OR (or AND-NOT) over
//! the rows the interval overlaps, and the summaries of the chunks
//! touched. A chunk that outgrows 256 rows splits in half, and one that
//! falls under 64 merges into a neighbour — the only way a chunk goes; a
//! book's one chunk stays when the book empties, so it refills without
//! allocating. Nothing is derived lazily, so a probe has no set-up beyond
//! its own row search.
//! With `S` rows, `K` of them overlapped by the interval:
//!
//! * `add`/`remove` — `O(log S + K·W)` plus, when an endpoint
//!   is new (or dies), shifting the rows behind it in its chunk and the
//!   chunk offsets after it: `O(256·W + S/256)`, wherever in the book the
//!   edit lands;
//! * `free_nodes_during` — `O(log S + K·W)`;
//! * `change_points` — `O(log S + output)`; `occupied_at` — `O(log S)`;
//! * `visit_slots` — one sliding-window walk from `from` that hands each
//!   slot to its caller as it is found and stops when told to, at the
//!   `max_slots`-th slot or off the end of the book:
//!   `O(rows walked to the last slot handed over · W)`, allocating nothing;
//!   each candidate window's end is found forward from its start, in
//!   `O(log d)` reads for an end `d` rows on.
//!   Each slot goes over as the union's mask words ([`FreeNodes`]), whose
//!   node ids are decoded only as far as the visitor reads them.
//!   `earliest_slots` is that walk run to its end and collected.
//!
//! [`NaiveReservationBook`] preserves the original scan-everything
//! implementation. It is the executable specification: the property harness
//! in `tests/properties.rs` replays randomized add/remove/query
//! workloads against both books and asserts they answer identically, and
//! requires `negotiate` over a negotiated backlog to give the same
//! outcomes on it, on the timeline book and on the quote cache.

use pqos_cluster::mask::NodeMask;
use pqos_cluster::node::NodeId;
use pqos_cluster::partition::Partition;
use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
use pqos_workload::job::{JobId, JobIdHasher};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::BuildHasherDefault;
use std::ops::{ControlFlow, Range};

/// Identifier of a reservation within a [`ReservationBook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReservationId(u64);

impl fmt::Display for ReservationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A committed `(job, partition, interval)` triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reservation {
    /// The job holding the commitment.
    pub job: JobId,
    /// The nodes committed.
    pub partition: Partition,
    /// The committed interval `[start, end)`.
    pub interval: TimeWindow,
}

/// Error adding a reservation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReservationError {
    /// The partition overlaps an existing reservation in both nodes and
    /// time.
    Conflict {
        /// The existing reservation it collides with.
        existing: ReservationId,
    },
    /// A node id beyond the cluster size was used.
    UnknownNode(NodeId),
    /// The interval is empty.
    EmptyInterval,
}

impl fmt::Display for ReservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReservationError::Conflict { existing } => {
                write!(f, "conflicts with existing reservation {existing}")
            }
            ReservationError::UnknownNode(n) => write!(f, "unknown node {n}"),
            ReservationError::EmptyInterval => write!(f, "reservation interval is empty"),
        }
    }
}

impl std::error::Error for ReservationError {}

/// A candidate placement opportunity: a start time and the nodes free for
/// the whole duration starting there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    /// Candidate start time.
    pub start: SimTime,
    /// Nodes free during `[start, start + duration)`, sorted.
    pub free: Vec<NodeId>,
}

/// A slot's free nodes, sorted ascending, decoded only as far as they are
/// read.
///
/// A walk holds each slot's free set as mask words — the busy union over
/// the window with the exclusions folded in — and hands those over, not a
/// node list: [`prefix`](FreeNodes::prefix) decodes node ids from the
/// words into a buffer the walk lends, as far as asked and no further, so
/// a placement that reads the first `k` of `F` free nodes pays for `k`
/// ids (and the words up to the `k`-th), not for `F`. The count is known
/// up front. A list that is already decoded is borrowed as it is
/// ([`FreeNodes::listed`]).
///
/// # Examples
///
/// ```
/// use pqos_cluster::node::NodeId;
/// use pqos_sched::reservation::FreeNodes;
///
/// // Nodes 0 and 2 of a 70-node cluster are busy.
/// let busy = [0b101, 0];
/// let mut buf = Vec::new();
/// let mut free = FreeNodes::masked(70, &busy, &mut buf);
/// assert_eq!(free.len(), 68);
/// assert_eq!(free.prefix(2), [NodeId::new(1), NodeId::new(3)]);
/// assert_eq!(free.all().last(), Some(&NodeId::new(69)));
/// ```
#[derive(Debug)]
pub struct FreeNodes<'a> {
    len: usize,
    source: Source<'a>,
}

#[derive(Debug)]
enum Source<'a> {
    Listed(&'a [NodeId]),
    Masked {
        busy: &'a [u64],
        width: u32,
        /// The word `bits` came from.
        word: usize,
        /// The free bits of word `word` not decoded yet.
        bits: u64,
        decoded: &'a mut Vec<NodeId>,
    },
}

impl<'a> FreeNodes<'a> {
    /// Borrows `nodes`, which must be sorted ascending.
    pub fn listed(nodes: &'a [NodeId]) -> Self {
        FreeNodes {
            len: nodes.len(),
            source: Source::Listed(nodes),
        }
    }

    /// The nodes `0..width` whose bit in `busy` is clear, decoded into
    /// `decoded` (cleared first) as they are read. Bits at or beyond
    /// `width` are ignored, set or not.
    ///
    /// # Panics
    ///
    /// Panics if `busy.len()` is not exactly `width.div_ceil(64)`.
    pub fn masked(width: u32, busy: &'a [u64], decoded: &'a mut Vec<NodeId>) -> Self {
        assert_eq!(
            busy.len(),
            width.div_ceil(64) as usize,
            "word count must match width"
        );
        decoded.clear();
        let len = (0..busy.len())
            .map(|w| free_bits(busy, width, w).count_ones() as usize)
            .sum();
        FreeNodes {
            len,
            source: Source::Masked {
                busy,
                width,
                word: 0,
                bits: free_bits(busy, width, 0),
                decoded,
            },
        }
    }

    /// Number of free nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no node is free.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first `n` free nodes, or all of them if fewer are free.
    pub fn prefix(&mut self, n: usize) -> &[NodeId] {
        let n = n.min(self.len);
        match &mut self.source {
            Source::Listed(nodes) => &nodes[..n],
            Source::Masked {
                busy,
                width,
                word,
                bits,
                decoded,
            } => {
                let decoded: &mut Vec<NodeId> = decoded;
                if decoded.len() < n {
                    // The cursor in locals, so the loop keeps it in
                    // registers across the pushes.
                    let (mut w, mut b) = (*word, *bits);
                    decoded.reserve(n - decoded.len());
                    while decoded.len() < n {
                        // `n` free nodes exist, so a word with free bits
                        // left comes before the words run out.
                        while b == 0 {
                            w += 1;
                            b = free_bits(busy, *width, w);
                        }
                        // The word's lowest run of free nodes, as far as
                        // asked, in one extend.
                        let first = b.trailing_zeros();
                        let run = (b >> first).trailing_ones().min((n - decoded.len()) as u32);
                        let id = w as u32 * 64 + first;
                        decoded.extend((id..id + run).map(NodeId::new));
                        b &= !(u64::MAX >> (64 - run) << first);
                    }
                    (*word, *bits) = (w, b);
                }
                &decoded[..n]
            }
        }
    }

    /// Every free node.
    pub fn all(&mut self) -> &[NodeId] {
        self.prefix(self.len)
    }

    /// Every free node, owned.
    pub fn to_vec(&mut self) -> Vec<NodeId> {
        self.all().to_vec()
    }

    /// The mask words a [`masked`](FreeNodes::masked) set reads.
    pub(crate) fn busy_words(&self) -> Option<&'a [u64]> {
        match self.source {
            Source::Listed(_) => None,
            Source::Masked { busy, .. } => Some(busy),
        }
    }

    /// How many node ids have been decoded so far.
    #[cfg(test)]
    pub(crate) fn decoded(&self) -> usize {
        match &self.source {
            Source::Listed(_) => 0,
            Source::Masked { decoded, .. } => decoded.len(),
        }
    }
}

/// The clear bits of `busy[w]` that stand for nodes below `width`; 0 past
/// the last word.
#[inline]
fn free_bits(busy: &[u64], width: u32, w: usize) -> u64 {
    let Some(&word) = busy.get(w) else { return 0 };
    let valid = match (width as usize).saturating_sub(w * 64) {
        64.. => u64::MAX,
        tail => (1 << tail) - 1,
    };
    !word & valid
}

/// Read-only availability queries shared by the timeline book and the
/// naive reference implementation.
///
/// Negotiation (`pqos-core`) is generic over this trait, so benchmarks and
/// parity tests can drive either book through the real quoting path.
pub trait AvailabilityView {
    /// The cluster size this book plans for.
    fn cluster_size(&self) -> u32;

    /// Nodes free (uncommitted and not in `exclude`) for the *entire*
    /// `window`, sorted.
    fn free_nodes_during(&self, window: TimeWindow, exclude: &[NodeId]) -> Vec<NodeId>;

    /// The complement of [`free_nodes_during`](Self::free_nodes_during) as
    /// mask words: sets `busy` (`⌈cluster_size/64⌉` words, overwritten) to
    /// the nodes committed at some instant of `window` or in `exclude`, bit
    /// `i` for node `i`, with every bit at or beyond `cluster_size` clear.
    ///
    /// The default decodes the free list into the mask; the timeline book
    /// and the views over it compose the words directly.
    ///
    /// # Panics
    ///
    /// Panics if `busy` is shorter than `⌈cluster_size/64⌉` words.
    fn busy_mask_during(&self, window: TimeWindow, exclude: &[NodeId], busy: &mut [u64]) {
        let width = self.cluster_size() as usize;
        busy.fill(0);
        set_run(busy, 0..width);
        for n in self.free_nodes_during(window, exclude) {
            busy[n.index() / 64] &= !(1 << (n.index() % 64));
        }
    }

    /// Sorted, deduplicated candidate start times at or after `from`:
    /// `from` itself plus every reservation start/end after it.
    fn change_points(&self, from: SimTime) -> Vec<SimTime>;

    /// Enumerates feasible placement opportunities for a job of `size`
    /// nodes and `duration`, starting at or after `from`, treating
    /// `exclude` as unusable: hands `visit` each slot's start time and the
    /// nodes free for the whole of `[start, start + duration)` in
    /// increasing start-time order, as the walk finds it. The walk ends
    /// when `visit` answers [`ControlFlow::Break`], after `max_slots`
    /// slots, or when the book runs out — nothing past the last slot
    /// handed over is computed. The free set is the walk's own mask words,
    /// borrowed, and decodes node ids only as far as `visit` reads them
    /// ([`FreeNodes`]); it dies with the call. `visit` runs under no lock
    /// or borrow of the view, so it may query the view itself.
    fn visit_slots(
        &self,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
        max_slots: usize,
        visit: &mut SlotVisitor<'_>,
    );

    /// The first `max_slots` slots [`visit_slots`](Self::visit_slots)
    /// finds, collected.
    fn earliest_slots(
        &self,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
        max_slots: usize,
    ) -> Vec<Slot> {
        // Sized up front for a dialog's worth: grown by doubling, the 24
        // slots of a default negotiation budget cost four reallocations, a
        // third of what a warm memo hit costs altogether.
        let mut slots = Vec::with_capacity(max_slots.min(32));
        self.visit_slots(
            size,
            duration,
            from,
            exclude,
            max_slots,
            &mut |start, free| {
                slots.push(Slot {
                    start,
                    free: free.to_vec(),
                });
                ControlFlow::Continue(())
            },
        );
        slots
    }
}

/// What [`AvailabilityView::visit_slots`] calls with each slot: its start
/// and its free nodes, borrowed from the walk and decoded as far as the
/// visitor reads them; the answer says whether the walk goes on.
pub type SlotVisitor<'a> = dyn FnMut(SimTime, &mut FreeNodes<'_>) -> ControlFlow<()> + 'a;

/// Rows a chunk of the timeline is split down to: a chunk holds at most
/// `2 · BLOCK` rows, and one that falls under `BLOCK / 2` merges into a
/// neighbour. At 128 a row insert shifts at most 12 KiB at `W = 2`, and
/// the simulator's books (a few hundred rows) stay one chunk.
const BLOCK: usize = 128;

/// Words of a partition's mask that `add` and `remove` build on the stack:
/// a row of a cluster of up to 4,096 nodes. A wider cluster's masks spill
/// to the heap.
const STACK_WORDS: usize = 64;

/// The skip index's summary of one chunk's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockSummary {
    max_free: u32,
    min_free: u32,
}

impl BlockSummary {
    fn of(free: &[u32]) -> BlockSummary {
        let (max_free, min_free) = free
            .iter()
            .fold((0, u32::MAX), |(max, min), &f| (max.max(f), min.min(f)));
        BlockSummary { max_free, min_free }
    }
}

impl Default for BlockSummary {
    /// The summary of no rows, which any row's free count widens.
    fn default() -> BlockSummary {
        BlockSummary::of(&[])
    }
}

/// A run of consecutive timeline rows — the book's parallel arrays over
/// those rows alone (`busy` and `starts` are `W` words a row) — and the
/// skip index's summary of them.
#[derive(Debug, Clone, Default)]
struct Chunk {
    times: Vec<SimTime>,
    busy: Vec<u64>,
    starts: Vec<u64>,
    bounds: Vec<u32>,
    free: Vec<u32>,
    summary: BlockSummary,
}

impl Chunk {
    #[inline]
    fn len(&self) -> usize {
        self.times.len()
    }

    fn summarize(&mut self) {
        self.summary = BlockSummary::of(&self.free);
    }

    /// The part of `rows` in this chunk, whose first row is row `base`, as
    /// offsets into it.
    #[inline]
    fn share(&self, base: usize, rows: &Range<usize>) -> Range<usize> {
        rows.start.max(base) - base..rows.end.min(base + self.len()) - base
    }

    /// Lowers (`busy`) or raises the free counts of rows `share` by
    /// `nodes`, keeping the summary: the bound the counts move towards
    /// follows the share's, and the other is recomputed only if the share
    /// held it.
    fn shift_free(&mut self, share: Range<usize>, nodes: u32, busy: bool) {
        let free = &mut self.free[share];
        let was = BlockSummary::of(free);
        let summary = &mut self.summary;
        let lost = if busy {
            free.iter_mut().for_each(|f| *f -= nodes);
            summary.min_free = summary.min_free.min(was.min_free - nodes);
            was.max_free == summary.max_free
        } else {
            free.iter_mut().for_each(|f| *f += nodes);
            summary.max_free = summary.max_free.max(was.max_free + nodes);
            was.min_free == summary.min_free
        };
        if lost {
            self.summarize();
        }
    }

    /// Moves rows `at..` into a chunk of their own; both come out
    /// summarized and without spare capacity, so a book grown by appends
    /// holds about the bytes its rows take.
    fn split_off(&mut self, at: usize, wps: usize) -> Chunk {
        let mut tail = Chunk {
            times: self.times.split_off(at),
            busy: self.busy.split_off(at * wps),
            starts: self.starts.split_off(at * wps),
            bounds: self.bounds.split_off(at),
            free: self.free.split_off(at),
            summary: BlockSummary::default(),
        };
        self.times.shrink_to_fit();
        self.busy.shrink_to_fit();
        self.starts.shrink_to_fit();
        self.bounds.shrink_to_fit();
        self.free.shrink_to_fit();
        self.summarize();
        tail.summarize();
        tail
    }

    /// Appends `next`'s rows.
    fn append(&mut self, mut next: Chunk) {
        self.summary.max_free = self.summary.max_free.max(next.summary.max_free);
        self.summary.min_free = self.summary.min_free.min(next.summary.min_free);
        self.times.append(&mut next.times);
        self.busy.append(&mut next.busy);
        self.starts.append(&mut next.starts);
        self.bounds.append(&mut next.bounds);
        self.free.append(&mut next.free);
    }
}

/// A read position on the timeline: chunk `c`, whose first row is row
/// `base` of the whole. A read a few rows from the last — every walk's —
/// costs one comparison while it stays in the cursor's chunk and a step
/// to a neighbour when it leaves; only a long jump searches.
#[derive(Clone, Copy)]
struct Cursor<'a> {
    chunk: &'a Chunk,
    c: usize,
    base: usize,
}

impl<'a> Cursor<'a> {
    /// Whether row `i` is in the cursor's chunk.
    #[inline]
    fn holds(&self, i: usize) -> bool {
        i.wrapping_sub(self.base) < self.chunk.len()
    }

    /// Row `i`'s time; the row must be in the cursor's chunk.
    #[inline]
    fn time(&self, i: usize) -> SimTime {
        self.chunk.times[i - self.base]
    }

    /// Row `i`'s free count; the row must be in the cursor's chunk.
    #[inline]
    fn free(&self, i: usize) -> u32 {
        self.chunk.free[i - self.base]
    }

    /// Row `i`'s busy mask, `wps` words; the row must be in the cursor's
    /// chunk.
    #[inline]
    fn busy(&self, i: usize, wps: usize) -> &'a [u64] {
        let o = i - self.base;
        &self.chunk.busy[o * wps..(o + 1) * wps]
    }
}

/// The availability profile: every commitment made and not yet released,
/// kept as a timeline of busy-node rows, stored in chunks, that mutations
/// patch in place.
///
/// # Examples
///
/// ```
/// use pqos_cluster::partition::Partition;
/// use pqos_sched::reservation::ReservationBook;
/// use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
/// use pqos_workload::job::JobId;
///
/// let mut book = ReservationBook::new(8);
/// book.add(
///     JobId::new(1),
///     Partition::contiguous(0, 8),
///     TimeWindow::new(SimTime::from_secs(0), SimTime::from_secs(100)),
/// )?;
/// // The machine is fully booked until t=100; a 4-node/50s job first fits at 100.
/// let slots = book.earliest_slots(4, SimDuration::from_secs(50), SimTime::ZERO, &[], 1);
/// assert_eq!(slots[0].start, SimTime::from_secs(100));
/// # Ok::<(), pqos_sched::reservation::ReservationError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReservationBook {
    cluster_size: u32,
    /// Words per row (`⌈cluster_size/64⌉`).
    wps: usize,
    /// The live reservations by id. Ids come from `next_id`, so they are
    /// consecutive: `JobIdHasher`'s best case, and no client chooses one.
    reservations: HashMap<ReservationId, Reservation, BuildHasherDefault<JobIdHasher>>,
    next_id: u64,
    /// Invariant: the chunks' rows, in order, are the timeline, and row
    /// `i` counts across them. `times` is strictly ascending and holds
    /// exactly the distinct start/end instants of live reservations; row
    /// `i` of `busy` is the union of the partitions of every reservation
    /// whose interval covers `[times[i], times[i + 1])`, row `i` of
    /// `starts` the union of those starting at `times[i]`, `bounds[i]` the
    /// number of live endpoints there and `free[i]` the row's zero bits.
    /// The profile is implicitly all-free before the first row, and the
    /// last row's mask is always empty (every reservation has ended by
    /// then). Padding bits beyond `cluster_size` are never set. A book of
    /// several chunks holds `BLOCK/2 ..= 2·BLOCK` rows in each; a book of
    /// one holds up to `2·BLOCK`, none when the book is empty. Every chunk
    /// carries the summary of its own `free`.
    chunks: Vec<Chunk>,
    /// Invariant: `first[c]` is the index of chunk `c`'s first row, and
    /// `first[chunks.len()]` the number of rows.
    first: Vec<usize>,
}

impl ReservationBook {
    /// Creates an empty book over a cluster of `cluster_size` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_size == 0`.
    pub fn new(cluster_size: u32) -> Self {
        assert!(cluster_size > 0, "cluster must have at least one node");
        ReservationBook {
            cluster_size,
            wps: cluster_size.div_ceil(64) as usize,
            reservations: HashMap::default(),
            next_id: 0,
            chunks: vec![Chunk::default()],
            first: vec![0, 0],
        }
    }

    /// The cluster size this book plans for.
    pub(crate) fn cluster_size(&self) -> u32 {
        self.cluster_size
    }

    /// Number of live reservations.
    pub fn len(&self) -> usize {
        self.reservations.len()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.reservations.is_empty()
    }

    /// Iterates over live reservations in insertion order.
    ///
    /// The index is a hash map, so this collects the live reservations and
    /// sorts them by id (ids only grow, so id order is insertion order):
    /// `O(R log R)`, for tests and diagnostics, not for a hot path.
    pub fn iter(&self) -> impl Iterator<Item = (ReservationId, &Reservation)> {
        let mut live: Vec<_> = self.reservations.iter().map(|(id, r)| (*id, r)).collect();
        live.sort_unstable_by_key(|(id, _)| *id);
        live.into_iter()
    }

    /// Looks up a live reservation by id.
    pub fn get(&self, id: ReservationId) -> Option<&Reservation> {
        self.reservations.get(&id)
    }

    /// Commits `partition` to `job` over `interval`.
    ///
    /// # Errors
    ///
    /// Returns [`ReservationError::Conflict`] if any node of `partition` is
    /// already committed during an overlapping interval,
    /// [`ReservationError::UnknownNode`] for out-of-range nodes, and
    /// [`ReservationError::EmptyInterval`] for empty intervals. A conflict
    /// names the *lowest* colliding id, as [`NaiveReservationBook`]'s
    /// ordered scan does, whatever order the index holds them in.
    pub fn add(
        &mut self,
        job: JobId,
        partition: Partition,
        interval: TimeWindow,
    ) -> Result<ReservationId, ReservationError> {
        if interval.is_empty() {
            return Err(ReservationError::EmptyInterval);
        }
        // Sorted: the out-of-range nodes are a suffix.
        let nodes = partition.as_slice();
        let known = nodes.partition_point(|n| n.index() < self.cluster_size as usize);
        if let Some(&n) = nodes.get(known) {
            return Err(ReservationError::UnknownNode(n));
        }
        let (mut stack, mut spill) = ([0; STACK_WORDS], Vec::new());
        let mask = self.mask_in(&partition, &mut stack, &mut spill);
        let collides = |row: &[u64]| row.iter().zip(mask).any(|(a, b)| a & b != 0);
        if self
            .busy_during(interval)
            .any(|run| run.chunks_exact(self.wps).any(collides))
        {
            // Error path only: recover the colliding id with a scan of the
            // whole index, keeping the lowest as the naive book's does.
            let existing = self
                .reservations
                .iter()
                .filter(|(_, r)| {
                    windows_overlap(r.interval, interval) && r.partition.overlaps(&partition)
                })
                .map(|(id, _)| *id)
                .min()
                .expect("timeline conflict implies a colliding reservation");
            return Err(ReservationError::Conflict { existing });
        }
        self.occupy(interval, mask);
        let id = ReservationId(self.next_id);
        self.next_id += 1;
        let reservation = Reservation {
            job,
            partition,
            interval,
        };
        self.reservations.insert(id, reservation);
        Ok(id)
    }

    /// Releases a reservation, returning it if it existed.
    pub fn remove(&mut self, id: ReservationId) -> Option<Reservation> {
        let r = self.reservations.remove(&id)?;
        let (mut stack, mut spill) = ([0; STACK_WORDS], Vec::new());
        let mask = self.mask_in(&r.partition, &mut stack, &mut spill);
        self.vacate(r.interval, mask);
        Some(r)
    }

    /// Nodes free (uncommitted and not in `exclude`) for the *entire*
    /// `window`, sorted.
    ///
    /// # Zero-length windows
    ///
    /// A zero-length window `[t, t)` contains no instants, so "free for
    /// the entire window" is vacuous; both books nevertheless answer it as
    /// a *point* query reporting the nodes of reservations **strictly
    /// spanning** `t` (`start < t < end`) as busy. A reservation that
    /// starts or ends exactly at `t` does not count — its half-open
    /// interval shares no open neighborhood with the instant. This is the
    /// semantics the naive book's `windows_overlap` test has always
    /// produced (`r.start < t && t < r.end` once `window.start ==
    /// window.end`), pinned by a regression test and the randomized
    /// parity harness so the two books can never drift apart on it.
    pub(crate) fn free_nodes_during(&self, window: TimeWindow, exclude: &[NodeId]) -> Vec<NodeId> {
        let mut busy = vec![0; self.wps];
        self.busy_mask_during(window, exclude, &mut busy);
        let mut free = Vec::new();
        FreeNodes::masked(self.cluster_size, &busy, &mut free).all();
        free
    }

    /// [`AvailabilityView::busy_mask_during`], composed from the rows the
    /// window spans; [`free_nodes_during`](Self::free_nodes_during)'s
    /// zero-length rule holds for it too.
    pub(crate) fn busy_mask_during(
        &self,
        window: TimeWindow,
        exclude: &[NodeId],
        busy: &mut [u64],
    ) {
        let busy = &mut busy[..self.wps];
        busy.fill(0);
        set_nodes(busy, self.cluster_size, exclude.iter().copied());
        if window.is_empty() {
            // Degenerate point query: an empty window `[t, t)` reports the
            // nodes of reservations *strictly* spanning the instant `t`
            // (start < t < end) — matching the reference book, whose
            // overlap test admits such reservations even for an empty
            // window. No reservation can both start at `t` and strictly
            // span it on the same node (that would be a double booking), so
            // subtracting the starts row is exact.
            let t = window.start();
            if let Some((Cursor { chunk, base, .. }, i)) = self.row_at(t) {
                let o = i - base;
                let at_key = chunk.times[o] == t;
                let words = o * self.wps..(o + 1) * self.wps;
                let (row, starts) = (&chunk.busy[words.clone()], &chunk.starts[words]);
                for ((b, row), s) in busy.iter_mut().zip(row).zip(starts) {
                    *b |= if at_key { row & !s } else { *row };
                }
            }
        } else {
            for run in self.busy_during(window) {
                for row in run.chunks_exact(self.wps) {
                    NodeMask::or_words(busy, row);
                }
            }
        }
    }

    /// Sorted, deduplicated candidate start times at or after `from`:
    /// `from` itself plus every reservation start/end after it.
    pub(crate) fn change_points(&self, from: SimTime) -> Vec<SimTime> {
        let mut cur = self.cursor();
        let after = self.rows_where(&mut cur, 0, |t| t <= from);
        let mut points = Vec::with_capacity(1 + self.row_count() - after);
        points.push(from);
        points.extend_from_slice(&cur.chunk.times[after - cur.base..]);
        for chunk in &self.chunks[cur.c + 1..] {
            points.extend_from_slice(&chunk.times);
        }
        points
    }

    /// Number of nodes committed at the instant `t` (reservations whose
    /// interval `[start, end)` contains `t`). An O(log S) point probe of
    /// the availability profile, used by live status reporting.
    ///
    /// # Examples
    ///
    /// ```
    /// use pqos_cluster::partition::Partition;
    /// use pqos_sched::reservation::ReservationBook;
    /// use pqos_sim_core::time::{SimTime, TimeWindow};
    /// use pqos_workload::job::JobId;
    ///
    /// let mut book = ReservationBook::new(8);
    /// book.add(
    ///     JobId::new(1),
    ///     Partition::contiguous(0, 3),
    ///     TimeWindow::new(SimTime::from_secs(10), SimTime::from_secs(20)),
    /// )?;
    /// assert_eq!(book.occupied_at(SimTime::from_secs(5)), 0);
    /// assert_eq!(book.occupied_at(SimTime::from_secs(10)), 3);
    /// assert_eq!(book.occupied_at(SimTime::from_secs(19)), 3);
    /// assert_eq!(book.occupied_at(SimTime::from_secs(20)), 0);
    /// # Ok::<(), pqos_sched::reservation::ReservationError>(())
    /// ```
    pub fn occupied_at(&self, t: SimTime) -> u32 {
        match self.row_at(t) {
            Some((cur, i)) => self.cluster_size - cur.free(i),
            None => 0,
        }
    }

    /// Enumerates up to `max_slots` feasible placement opportunities for a
    /// job of `size` nodes and `duration`, starting at or after `from`,
    /// treating `exclude` as unusable (e.g. currently-down nodes when
    /// `from` is "now"): [`visit_slots`](AvailabilityView::visit_slots)
    /// run to its end and collected.
    ///
    /// Slots are returned in increasing start-time order. The final change
    /// point (after which the machine is idle) guarantees at least one slot
    /// whenever `size ≤ cluster_size − exclude.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` or `duration` is zero.
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

    /// The slot walk behind [`AvailabilityView::visit_slots`]: a single
    /// forward pass over the rows from `from` that hands `visit` each slot
    /// as it is found and stops where `visit` does.
    ///
    /// The busy union over each candidate window `[t, t + duration)` is
    /// maintained with a two-stack sliding-window aggregation (union is
    /// associative but not invertible, so plain running state would not
    /// support eviction), word-parallel over the row arena with per-thread
    /// scratch, so a walk allocates nothing. A slot that fits is handed to
    /// `visit` as the union's words ([`FreeNodes::masked`]), decoding into
    /// the scratch's id buffer only the free nodes `visit` reads. The skip
    /// index discards candidates that cannot fit before any union is paid
    /// for.
    ///
    /// Returns the end of the time range examined and whether the walk
    /// ended on its own (`max_slots` reached or off the book) rather than
    /// at `visit`'s word. The quote cache invalidates by the former: the
    /// slots handed over depend on no row at or after it —
    /// [`SimTime::MAX`] when the walk ran off the end of the book (any
    /// mutation could then change the answer).
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` or `duration` is zero.
    pub(crate) fn walk(
        &self,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
        max_slots: usize,
        visit: &mut SlotVisitor<'_>,
    ) -> (SimTime, bool) {
        assert!(size > 0, "job size must be positive");
        assert!(!duration.is_zero(), "duration must be positive");
        if max_slots == 0 {
            return (from, true);
        }
        match self.chunks.as_slice() {
            [chunk] => {
                let rows = OneChunk {
                    chunk,
                    wps: self.wps,
                };
                self.walk_rows(rows, size, duration, from, exclude, max_slots, visit)
            }
            _ => {
                let at = self.cursor();
                let rows = Chunked {
                    book: self,
                    at,
                    reach: at,
                    admit: at,
                };
                self.walk_rows(rows, size, duration, from, exclude, max_slots, visit)
            }
        }
    }

    /// [`walk`](Self::walk) over the rows as `rows` reads them.
    #[allow(clippy::too_many_arguments)]
    fn walk_rows<'a>(
        &'a self,
        rows: impl WalkRows<'a>,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
        max_slots: usize,
        visit: &mut SlotVisitor<'_>,
    ) -> (SimTime, bool) {
        // Borrowed in place for the whole walk. `visit` is the caller's
        // code and may probe a book on this thread: that nested walk finds
        // the cell borrowed and brings buffers of its own.
        SCRATCH.with(|cell| {
            let (mut borrowed, mut fresh);
            let scratch = match cell.try_borrow_mut() {
                Ok(scratch) => {
                    borrowed = scratch;
                    &mut *borrowed
                }
                Err(_) => {
                    fresh = WalkScratch::default();
                    &mut fresh
                }
            };
            self.walk_with(
                scratch, rows, size, duration, from, exclude, max_slots, visit,
            )
        })
    }

    /// [`walk_rows`](Self::walk_rows) in `scratch`'s buffers.
    #[allow(clippy::too_many_arguments)]
    fn walk_with<'a>(
        &'a self,
        scratch: &mut WalkScratch,
        mut rows: impl WalkRows<'a>,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
        max_slots: usize,
        visit: &mut SlotVisitor<'_>,
    ) -> (SimTime, bool) {
        let (width, wps, n) = (self.cluster_size, self.wps, self.row_count());
        let WalkScratch {
            front,
            back_agg,
            agg,
            busy,
            exclude: excluded,
            free,
        } = scratch;
        front.clear();
        for buf in [&mut *back_agg, &mut *agg, &mut *busy, &mut *excluded] {
            buf.clear();
            buf.resize(wps, 0);
        }
        set_nodes(excluded, width, exclude.iter().copied());
        let mut found = 0usize;

        // Virtual row / candidate v: 0 is `from` itself riding the row
        // in effect there (none before the first row: all free); v ≥ 1
        // are the rows after `from`, row `first_after + v − 1`.
        let first_after = rows.rows_where(0, |t| t <= from);
        let m = 1 + n - first_after;
        let real = |v: usize| (first_after + v).checked_sub(1);

        // The window is the virtual rows `lo..hi`: `front` stacks the
        // suffix unions of `lo..back_lo`, `back_agg` is the union of
        // `back_lo..hi`.
        let (mut lo, mut hi, mut back_lo) = (0usize, 0usize, 0usize);
        // Rows between the current window's second row and `clean_to`
        // are known to have at least `size` free nodes.
        let mut clean_to = 0usize;
        let mut v = 0usize;
        while v < m {
            // A window starting in a row with fewer than `size` free
            // nodes can never fit the job (exclusions only shrink it
            // further), so hop to the next row that could.
            let row = real(v);
            if row.map_or(width, |r| rows.free(r)) < size {
                match rows.next_feasible(size, first_after + v) {
                    Some(r) => {
                        v = r + 1 - first_after;
                        continue;
                    }
                    None => break,
                }
            }
            let t = match row {
                Some(r) if v > 0 => rows.time(r),
                _ => from,
            };
            let end = t.saturating_add(duration);
            // The window's free set is contained in every spanned
            // row's, so a spanned row that cannot fit `size` sinks
            // every candidate up to it: jump past the *last* such row
            // instead of sliding the union through.
            let ws = first_after + v;
            let r_end = rows.rows_where(ws, |t| t < end);
            let blocker = rows.last_blocker(size, ws.max(clean_to), r_end);
            clean_to = r_end;
            if let Some(last) = blocker {
                v = last + 2 - first_after;
                continue;
            }
            if v >= hi {
                // Jumped clean past the current window: restart it at v.
                front.clear();
                back_agg.fill(0);
                (lo, hi, back_lo) = (v, v, v);
            }
            while lo < v {
                if front.is_empty() {
                    // Flip: drain the back range newest-first so each
                    // front entry carries the union of itself and
                    // everything younger.
                    agg.fill(0);
                    for j in (back_lo..hi).rev() {
                        if let Some(r) = real(j) {
                            NodeMask::or_words(agg, rows.busy(r));
                        }
                        front.extend_from_slice(agg);
                    }
                    back_lo = hi;
                    back_agg.fill(0);
                }
                front.truncate(front.len() - wps);
                lo += 1;
            }
            // Admit every row starting before `end`: real rows below
            // `r_end`, after the head.
            while hi < r_end + 1 - first_after {
                if let Some(r) = real(hi) {
                    NodeMask::or_words(back_agg, rows.busy(r));
                }
                hi += 1;
            }
            busy.copy_from_slice(back_agg);
            if let Some(top) = front.len().checked_sub(wps) {
                NodeMask::or_words(busy, &front[top..]);
            }
            NodeMask::or_words(busy, excluded);
            let mut slot = FreeNodes::masked(width, busy, free);
            if slot.len() >= size as usize {
                found += 1;
                let stop = visit(t, &mut slot).is_break();
                if stop || found >= max_slots {
                    return (end, found >= max_slots);
                }
            }
            v += 1;
        }
        (SimTime::MAX, true)
    }

    /// First row at or after `r0` with at least `size` free nodes, hopping
    /// over chunks whose maximum rules them out; `cur` is left on its
    /// chunk.
    #[inline]
    fn next_feasible<'a>(&'a self, size: u32, r0: usize, cur: &mut Cursor<'a>) -> Option<usize> {
        if r0 >= self.row_count() {
            return None;
        }
        self.seek(cur, r0);
        let mut o = r0 - cur.base;
        loop {
            if cur.chunk.summary.max_free >= size {
                if let Some(k) = cur.chunk.free[o..].iter().position(|&f| f >= size) {
                    return Some(cur.base + o + k);
                }
            }
            if cur.c + 1 == self.chunks.len() {
                return None;
            }
            *cur = self.cursor_on(cur.c + 1);
            o = 0;
        }
    }

    /// Last row in `start..end` with fewer than `size` free nodes — a row
    /// no window spanning it can fit the job over — hopping backwards over
    /// chunks whose minimum clears them, from the one `near` is on or next
    /// to. `O(BLOCK + chunks spanned)`.
    #[inline]
    fn last_blocker(&self, size: u32, start: usize, end: usize, near: Cursor<'_>) -> Option<usize> {
        if start >= end {
            return None;
        }
        let mut cur = near;
        self.seek(&mut cur, end - 1);
        loop {
            let share = cur.chunk.share(cur.base, &(start..end));
            if cur.chunk.summary.min_free < size {
                if let Some(o) = cur.chunk.free[share.clone()]
                    .iter()
                    .rposition(|&f| f < size)
                {
                    return Some(cur.base + share.start + o);
                }
            }
            if cur.base <= start {
                return None;
            }
            cur = self.cursor_on(cur.c - 1);
        }
    }

    /// Number of rows.
    #[inline]
    fn row_count(&self) -> usize {
        self.first[self.chunks.len()]
    }

    /// A cursor on the first chunk.
    #[inline]
    fn cursor(&self) -> Cursor<'_> {
        self.cursor_on(0)
    }

    /// A cursor on chunk `c`, which must exist.
    #[inline]
    fn cursor_on(&self, c: usize) -> Cursor<'_> {
        Cursor {
            chunk: &self.chunks[c],
            c,
            base: self.first[c],
        }
    }

    /// Moves `cur` onto the chunk holding row `i`, which must exist: the
    /// cursor's own chunk and its two neighbours are tried before a binary
    /// search.
    #[inline]
    fn seek<'a>(&'a self, cur: &mut Cursor<'a>, i: usize) {
        if !cur.holds(i) {
            *cur = self.cursor_near(cur, i);
        }
    }

    /// [`seek`](Self::seek) off the cursor's chunk. Out of line, so the
    /// common case inlined into every read stays one comparison.
    #[inline(never)]
    fn cursor_near<'a>(&'a self, cur: &Cursor<'a>, i: usize) -> Cursor<'a> {
        let first = &self.first;
        let c = match i >= cur.base {
            true => cur.c + 1,
            false => cur.c.saturating_sub(1),
        };
        match first.get(c + 1) {
            Some(&end) if first[c] <= i && i < end => self.cursor_on(c),
            _ => self.cursor_on(self.locate(i).0),
        }
    }

    /// Number of rows whose time satisfies `pred`, which must hold on a
    /// prefix of the timeline covering every row before `lo` and every row
    /// before `cur`'s chunk. The prefix ends in the first chunk from there
    /// on whose last row fails `pred`, or in the last chunk — for a walk's
    /// window, the cursor's own or the next one, so those two are looked
    /// at before a binary search over the rest — and then at a [`gallop`]
    /// within that chunk, from `lo` if it lies there past the chunk's
    /// first row and over the whole chunk if not; `cur` is left on that
    /// chunk.
    #[inline]
    fn rows_where<'a>(
        &'a self,
        cur: &mut Cursor<'a>,
        lo: usize,
        pred: impl Fn(SimTime) -> bool,
    ) -> usize {
        // Only the last chunk can be empty (when the book is).
        let ends = |c: &Chunk| !pred(c.times[c.len() - 1]);
        let last = self.chunks.len() - 1;
        if cur.c < last && !ends(cur.chunk) {
            let rest = &self.chunks[cur.c + 1..last];
            let k = match rest.first() {
                Some(next) if !ends(next) => 1 + rest[1..].partition_point(|c| !ends(c)),
                _ => 0,
            };
            *cur = self.cursor_on(cur.c + 1 + k);
        }
        cur.base + gallop(&cur.chunk.times, lo.saturating_sub(cur.base), pred)
    }

    /// The row in effect at `t` — the last starting at or before it — and
    /// a cursor on its chunk, or `None` before the first row.
    fn row_at(&self, t: SimTime) -> Option<(Cursor<'_>, usize)> {
        let mut cur = self.cursor();
        let i = self.rows_where(&mut cur, 0, |x| x <= t).checked_sub(1)?;
        self.seek(&mut cur, i);
        Some((cur, i))
    }

    /// The row starting exactly at `t`, or the index one would be
    /// inserted at.
    fn search(&self, t: SimTime) -> Result<usize, usize> {
        let mut cur = self.cursor();
        let i = self.rows_where(&mut cur, 0, |x| x < t);
        match cur.holds(i) && cur.time(i) == t {
            true => Ok(i),
            false => Err(i),
        }
    }

    /// The chunk holding row `i` (which must exist) and the row's offset
    /// in it, by binary search.
    fn locate(&self, i: usize) -> (usize, usize) {
        let c = self.first.partition_point(|&f| f <= i) - 1;
        (c, i - self.first[c])
    }

    fn locate_mut(&mut self, i: usize) -> (&mut Chunk, usize) {
        let (c, o) = self.locate(i);
        (&mut self.chunks[c], o)
    }

    /// The chunks holding `rows`, looked for from `near`.
    #[inline]
    fn chunks_of(&self, rows: &Range<usize>, near: Cursor<'_>) -> Range<usize> {
        if rows.is_empty() {
            return 0..0;
        }
        let mut cur = near;
        self.seek(&mut cur, rows.start);
        let c0 = cur.c;
        self.seek(&mut cur, rows.end - 1);
        c0..cur.c + 1
    }

    /// Runs `edit` over each chunk's share of `rows` (offsets into the
    /// chunk).
    fn edit_rows(&mut self, rows: Range<usize>, mut edit: impl FnMut(&mut Chunk, Range<usize>)) {
        let chunks = self.chunks_of(&rows, self.cursor());
        for (chunk, &base) in self.chunks[chunks.clone()]
            .iter_mut()
            .zip(&self.first[chunks])
        {
            let share = chunk.share(base, &rows);
            edit(chunk, share);
        }
    }

    /// `partition` packed into one row's worth of words, built in `stack`
    /// (zeroed) when a row fits there and in `spill` otherwise, so a book
    /// of up to `64 · STACK_WORDS` nodes allocates nothing for it; ids
    /// beyond the cluster are ignored.
    fn mask_in<'b>(
        &self,
        partition: &Partition,
        stack: &'b mut [u64; STACK_WORDS],
        spill: &'b mut Vec<u64>,
    ) -> &'b [u64] {
        let words = match stack.get_mut(..self.wps) {
            Some(words) => words,
            None => {
                spill.resize(self.wps, 0);
                spill
            }
        };
        set_nodes(words, self.cluster_size, partition.iter());
        words
    }

    /// The busy masks of the rows whose span intersects the non-empty
    /// `window` — the one in effect at its start (if any) through the last
    /// starting before its end — as one run of words (`W` a row) per
    /// chunk: a caller loops over each run's rows with no per-row cost for
    /// the chunking.
    fn busy_during(&self, window: TimeWindow) -> impl Iterator<Item = &[u64]> {
        let mut cur = self.cursor();
        let lo = self.rows_where(&mut cur, 0, |t| t <= window.start());
        let near = cur;
        let hi = self.rows_where(&mut cur, lo, |t| t < window.end());
        let rows = lo.saturating_sub(1)..hi;
        let (wps, chunks) = (self.wps, self.chunks_of(&rows, near));
        self.chunks[chunks.clone()]
            .iter()
            .zip(&self.first[chunks])
            .map(move |(chunk, &base)| {
                let share = chunk.share(base, &rows);
                &chunk.busy[share.start * wps..share.end * wps]
            })
    }

    /// Marks `mask` (disjoint from everything committed there) busy across
    /// `interval`, creating boundary rows as needed and counting the two
    /// endpoints.
    fn occupy(&mut self, interval: TimeWindow, mask: &[u64]) {
        let (wps, nodes) = (self.wps, NodeMask::count_ones_words(mask));
        let a = self.ensure_boundary(interval.start());
        let b = self.ensure_boundary(interval.end());
        self.edit_rows(a..b, |chunk, rows| {
            for row in chunk.busy[rows.start * wps..rows.end * wps].chunks_exact_mut(wps) {
                NodeMask::or_words(row, mask);
            }
            chunk.shift_free(rows, nodes, true);
        });
        let (chunk, o) = self.locate_mut(a);
        NodeMask::or_words(&mut chunk.starts[o * wps..(o + 1) * wps], mask);
        chunk.bounds[o] += 1;
        let (chunk, o) = self.locate_mut(b);
        chunk.bounds[o] += 1;
    }

    /// Clears `mask` (committed throughout) across `interval` and drops
    /// the boundary rows whose endpoint count reaches zero.
    fn vacate(&mut self, interval: TimeWindow, mask: &[u64]) {
        let (wps, nodes) = (self.wps, NodeMask::count_ones_words(mask));
        let [a, b] = [interval.start(), interval.end()]
            .map(|t| self.search(t).expect("endpoint is tracked"));
        let and_not = |row: &mut [u64]| row.iter_mut().zip(mask).for_each(|(w, m)| *w &= !m);
        self.edit_rows(a..b, |chunk, rows| {
            chunk.busy[rows.start * wps..rows.end * wps]
                .chunks_exact_mut(wps)
                .for_each(and_not);
            chunk.shift_free(rows, nodes, false);
        });
        let (chunk, o) = self.locate_mut(a);
        and_not(&mut chunk.starts[o * wps..(o + 1) * wps]);
        // Later row first, so `a` still names the start row.
        for i in [b, a] {
            let (chunk, o) = self.locate_mut(i);
            chunk.bounds[o] -= 1;
            if chunk.bounds[o] == 0 {
                // No live endpoint remains here, so the profile is constant
                // across this instant and the row merges into the one
                // before it.
                self.remove_row(i);
            }
        }
    }

    /// The row starting exactly at `t`, splitting the row in effect there
    /// if none does yet. Does not touch endpoint counts.
    fn ensure_boundary(&mut self, t: SimTime) -> usize {
        let i = match self.search(t) {
            Ok(i) => return i,
            Err(i) => i,
        };
        // The new row joins the chunk of the row it splits, right behind
        // it — or heads the first chunk if it splits none.
        let (c, o) = match i.checked_sub(1) {
            Some(p) => {
                let (c, o) = self.locate(p);
                (c, o + 1)
            }
            None => (0, 0),
        };
        let wps = self.wps;
        let chunk = &mut self.chunks[c];
        let free = o
            .checked_sub(1)
            .map_or(self.cluster_size, |p| chunk.free[p]);
        chunk.times.insert(o, t);
        chunk.bounds.insert(o, 0);
        chunk.free.insert(o, free);
        chunk.summary.max_free = chunk.summary.max_free.max(free);
        chunk.summary.min_free = chunk.summary.min_free.min(free);
        // A split point has no reservation starting exactly at it (that
        // would have made it a row already), and carries on the busy mask
        // of the row it splits.
        let at = o * wps;
        for arena in [&mut chunk.busy, &mut chunk.starts] {
            let len = arena.len();
            arena.resize(len + wps, 0);
            arena.copy_within(at..len, at + wps);
            arena[at..at + wps].fill(0);
        }
        if o > 0 {
            chunk.busy.copy_within(at - wps..at, at);
        }
        self.first[c + 1..].iter_mut().for_each(|f| *f += 1);
        self.fit(c);
        i
    }

    /// Deletes row `i`, merging its chunk into a neighbour if that leaves
    /// it under `BLOCK / 2` rows (a chunk goes away only so) and the book
    /// has another.
    fn remove_row(&mut self, i: usize) {
        let (c, o) = self.locate(i);
        let wps = self.wps;
        let chunk = &mut self.chunks[c];
        chunk.times.remove(o);
        chunk.bounds.remove(o);
        chunk.free.remove(o);
        chunk.busy.drain(o * wps..(o + 1) * wps);
        chunk.starts.drain(o * wps..(o + 1) * wps);
        // A row with no endpoint left has the busy mask of the row before
        // it (or none, before the first), so its free count lives on in
        // that row: only a chunk's head row can take the summary with it.
        if o == 0 {
            chunk.summarize();
        }
        let len = chunk.len();
        self.first[c + 1..].iter_mut().for_each(|f| *f -= 1);
        // A book's one chunk stays, rows or none: a book that drains and
        // refills — a shard's does every few dozen reservations — reuses
        // its buffers instead of growing new ones.
        if self.chunks.len() > 1 && len < BLOCK / 2 {
            // Into the next chunk's rows, or the previous one's for the
            // last chunk.
            let c = c.min(self.chunks.len() - 2);
            let next = self.chunks.remove(c + 1);
            self.first.remove(c + 1);
            self.chunks[c].append(next);
            self.fit(c);
        }
    }

    /// Splits chunk `c` in half if it outgrew `2 · BLOCK` rows.
    fn fit(&mut self, c: usize) {
        let chunk = &mut self.chunks[c];
        if chunk.len() <= 2 * BLOCK {
            return;
        }
        let half = chunk.len() / 2;
        let tail = chunk.split_off(half, self.wps);
        self.chunks.insert(c + 1, tail);
        self.first.insert(c + 1, self.first[c] + half);
    }

    /// The timeline as flat arrays, row `i` at index `i` (`busy` and
    /// `starts` `W` words a row).
    #[cfg(any(test, debug_assertions))]
    fn flat(&self) -> Flat {
        let mut flat = Flat::default();
        for chunk in &self.chunks {
            flat.times.extend_from_slice(&chunk.times);
            flat.busy.extend_from_slice(&chunk.busy);
            flat.starts.extend_from_slice(&chunk.starts);
            flat.bounds.extend_from_slice(&chunk.bounds);
            flat.free.extend_from_slice(&chunk.free);
        }
        flat
    }

    /// Asserts every invariant of the timeline, its chunks and their
    /// summaries against a from-scratch recomputation out of the live
    /// reservations.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    #[cfg(any(test, debug_assertions))]
    pub fn check_invariants(&self) {
        let (wps, width) = (self.wps, self.cluster_size);
        // Chunks: none empty (bar an empty book's one), underfull or over
        // capacity, arrays in step, offsets counting rows, summaries equal
        // to a recomputation.
        assert_eq!(self.first.len(), self.chunks.len() + 1, "offsets");
        assert_eq!(self.first[0], 0, "the first chunk starts at row 0");
        for (c, chunk) in self.chunks.iter().enumerate() {
            let len = chunk.len();
            let least = match self.chunks.len() {
                1 => 0,
                _ => BLOCK / 2,
            };
            assert!(
                (least..=2 * BLOCK).contains(&len),
                "chunk {c} of {} holds {len} rows",
                self.chunks.len()
            );
            assert_eq!(
                self.first[c] + len,
                self.first[c + 1],
                "offset after chunk {c}"
            );
            assert_eq!(
                (chunk.busy.len(), chunk.starts.len()),
                (len * wps, len * wps)
            );
            assert_eq!((chunk.bounds.len(), chunk.free.len()), (len, len));
            assert_eq!(
                chunk.summary,
                BlockSummary::of(&chunk.free),
                "summary of chunk {c}"
            );
        }
        let flat = self.flat();
        let n = flat.times.len();
        let row = |i: usize| &flat.busy[i * wps..(i + 1) * wps];
        assert!(
            flat.times.windows(2).all(|w| w[0] < w[1]),
            "times ascend, across chunk edges too"
        );
        // Rows are exactly the live endpoints, counted; masks are the
        // unions of the partitions covering / starting at each row.
        let mut endpoints = BTreeMap::new();
        let (mut busy, mut starts) = (vec![0u64; n * wps], vec![0u64; n * wps]);
        for r in self.reservations.values() {
            let (mut stack, mut spill) = ([0; STACK_WORDS], Vec::new());
            let mask = self.mask_in(&r.partition, &mut stack, &mut spill);
            let [a, b] = [r.interval.start(), r.interval.end()].map(|t| {
                *endpoints.entry(t).or_insert(0u32) += 1;
                flat.times.binary_search(&t).expect("endpoint has a row")
            });
            for row in busy[a * wps..b * wps].chunks_exact_mut(wps) {
                NodeMask::or_words(row, mask);
            }
            NodeMask::or_words(&mut starts[a * wps..(a + 1) * wps], mask);
        }
        assert!(endpoints.keys().eq(&flat.times), "rows = live endpoints");
        assert!(
            endpoints.values().eq(&flat.bounds),
            "bounds count endpoints"
        );
        assert!(flat.bounds.iter().all(|&b| b > 0));
        assert_eq!(
            flat.busy, busy,
            "busy rows are the unions of live partitions"
        );
        assert_eq!(flat.starts, starts, "starts rows");
        if n > 0 {
            assert!(row(n - 1).iter().all(|&w| w == 0), "last row empty");
        }
        let padding = match width % 64 {
            0 => 0,
            tail => u64::MAX << tail,
        };
        for i in 0..n {
            assert_eq!(
                flat.free[i],
                width - NodeMask::count_ones_words(row(i)),
                "free count of row {i}"
            );
            assert_eq!(row(i)[wps - 1] & padding, 0, "padding of row {i}");
        }
    }
}

/// [`ReservationBook`]'s timeline laid out flat, for checking it.
#[cfg(any(test, debug_assertions))]
#[derive(Debug, Default, PartialEq, Eq)]
struct Flat {
    times: Vec<SimTime>,
    busy: Vec<u64>,
    starts: Vec<u64>,
    bounds: Vec<u32>,
    free: Vec<u32>,
}

/// Number of `times` satisfying `pred`, which holds on a prefix of them
/// covering every one before `lo` (at most `times.len()`): probes `lo`,
/// `lo + 1`, `lo + 3`, `lo + 7`, … until one fails `pred` or the slice
/// ends, then binary-searches the bracket that leaves. An answer `d` rows
/// past `lo` costs `O(log d)` reads, all of them from `lo` forward. A `lo`
/// of 0 is no bound at all, so the whole slice is binary-searched, in
/// `log₂` of its length rather than the gallop's `2·log₂ d`.
#[inline]
fn gallop(times: &[SimTime], lo: usize, pred: impl Fn(SimTime) -> bool) -> usize {
    if lo == 0 {
        return times.partition_point(|&t| pred(t));
    }
    // `times[..from]` satisfy `pred`; `times[to]` (if any) fails it.
    let (mut from, mut to, mut step) = (lo, lo, 1);
    while to < times.len() && pred(times[to]) {
        from = to + 1;
        to = lo + 2 * step - 1;
        step *= 2;
    }
    let to = to.min(times.len());
    from + times[from..to].partition_point(|&t| pred(t))
}

/// Sets bit `i` of `words` for every node `i < width` of `nodes`: each
/// run of consecutive ids (a partition's usual shape) a word at a time.
fn set_nodes(words: &mut [u64], width: u32, nodes: impl Iterator<Item = NodeId>) {
    let width = width as usize;
    let clip = |run: Range<usize>| run.start.min(width)..run.end.min(width);
    let mut run = 0..0;
    for i in nodes.map(|n| n.index()) {
        if i == run.end {
            run.end += 1;
        } else {
            set_run(words, clip(run));
            run = i..i + 1;
        }
    }
    set_run(words, clip(run));
}

/// Sets bits `run` of `words`, a word at a time.
fn set_run(words: &mut [u64], run: Range<usize>) {
    let mut lo = run.start;
    while lo < run.end {
        let (bit, n) = (lo % 64, (run.end - lo).min(64 - lo % 64));
        words[lo / 64] |= (u64::MAX >> (64 - n)) << bit;
        lo += n;
    }
}

/// Reusable per-thread walk buffers: the two-stack sliding union (front
/// suffix-union stack, back aggregate, flip accumulator) and the
/// busy/exclude compose buffers. One probe allocates nothing once these
/// are warm, and the thread-local carries them across all the probes a
/// `quote_batch` fans onto a thread. A walk borrows them in place, and
/// only a walk nested in another's visitor on the same thread finds the
/// cell busy and walks in fresh buffers of its own.
#[derive(Default)]
struct WalkScratch {
    front: Vec<u64>,
    back_agg: Vec<u64>,
    agg: Vec<u64>,
    busy: Vec<u64>,
    exclude: Vec<u64>,
    free: Vec<NodeId>,
}

thread_local! {
    static SCRATCH: RefCell<WalkScratch> = RefCell::new(WalkScratch::default());
    static DECODED: RefCell<Vec<NodeId>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's id buffer for decoding [`FreeNodes`] off
/// the walk (a memo replay's), taken out of its cell for the call, so `f`
/// may nest another.
pub(crate) fn with_decode_buffer<R>(f: impl FnOnce(&mut Vec<NodeId>) -> R) -> R {
    let mut decoded = DECODED.take();
    let out = f(&mut decoded);
    DECODED.set(decoded);
    out
}

/// The row reads a slot walk makes, by row index across the timeline:
/// [`OneChunk`] reads a book of one chunk straight out of its arrays, so the
/// walk over it is the flat timeline's with no chunk bookkeeping, and
/// [`Chunked`] reads any book through cursors.
trait WalkRows<'a> {
    /// Number of rows whose time satisfies `pred`, which holds on a prefix
    /// of the timeline covering every row before `lo` (and, for
    /// [`Chunked`], every row the previous call counted): a search forward
    /// from `lo`, so a window end a few rows past its start costs a few
    /// reads.
    fn rows_where(&mut self, lo: usize, pred: impl Fn(SimTime) -> bool) -> usize;
    /// Row `r`'s start time.
    fn time(&mut self, r: usize) -> SimTime;
    /// Row `r`'s free count.
    fn free(&mut self, r: usize) -> u32;
    /// Row `r`'s busy mask.
    fn busy(&mut self, r: usize) -> &'a [u64];
    /// First row at or after `r0` with at least `size` free nodes.
    fn next_feasible(&mut self, size: u32, r0: usize) -> Option<usize>;
    /// Last row in `start..end` with fewer than `size` free nodes.
    fn last_blocker(&mut self, size: u32, start: usize, end: usize) -> Option<usize>;
}

/// A book of one chunk, read straight out of its arrays.
struct OneChunk<'a> {
    chunk: &'a Chunk,
    wps: usize,
}

impl<'a> WalkRows<'a> for OneChunk<'a> {
    fn rows_where(&mut self, lo: usize, pred: impl Fn(SimTime) -> bool) -> usize {
        gallop(&self.chunk.times, lo, pred)
    }

    fn time(&mut self, r: usize) -> SimTime {
        self.chunk.times[r]
    }

    fn free(&mut self, r: usize) -> u32 {
        self.chunk.free[r]
    }

    fn busy(&mut self, r: usize) -> &'a [u64] {
        &self.chunk.busy[r * self.wps..(r + 1) * self.wps]
    }

    fn next_feasible(&mut self, size: u32, r0: usize) -> Option<usize> {
        let rows = self.chunk.free.get(r0..)?;
        rows.iter().position(|&f| f >= size).map(|o| r0 + o)
    }

    fn last_blocker(&mut self, size: u32, start: usize, end: usize) -> Option<usize> {
        let rows = self.chunk.free.get(start..end)?;
        rows.iter().rposition(|&f| f < size).map(|o| start + o)
    }
}

/// Any book, read through a cursor per kind of read: `at` for candidate
/// rows, `reach` for the rows a window reaches to, `admit` for the masks
/// the window takes in. Each moves a few rows at a time, so its reads stay
/// in its chunk or step to a neighbour.
struct Chunked<'a> {
    book: &'a ReservationBook,
    at: Cursor<'a>,
    reach: Cursor<'a>,
    admit: Cursor<'a>,
}

impl<'a> WalkRows<'a> for Chunked<'a> {
    fn rows_where(&mut self, lo: usize, pred: impl Fn(SimTime) -> bool) -> usize {
        self.book.rows_where(&mut self.reach, lo, pred)
    }

    fn time(&mut self, r: usize) -> SimTime {
        self.book.seek(&mut self.at, r);
        self.at.time(r)
    }

    fn free(&mut self, r: usize) -> u32 {
        self.book.seek(&mut self.at, r);
        self.at.free(r)
    }

    fn busy(&mut self, r: usize) -> &'a [u64] {
        self.book.seek(&mut self.admit, r);
        self.admit.busy(r, self.book.wps)
    }

    fn next_feasible(&mut self, size: u32, r0: usize) -> Option<usize> {
        self.book.next_feasible(size, r0, &mut self.at)
    }

    fn last_blocker(&mut self, size: u32, start: usize, end: usize) -> Option<usize> {
        self.book.last_blocker(size, start, end, self.reach)
    }
}

impl AvailabilityView for ReservationBook {
    fn cluster_size(&self) -> u32 {
        ReservationBook::cluster_size(self)
    }
    fn free_nodes_during(&self, window: TimeWindow, exclude: &[NodeId]) -> Vec<NodeId> {
        ReservationBook::free_nodes_during(self, window, exclude)
    }
    fn busy_mask_during(&self, window: TimeWindow, exclude: &[NodeId], busy: &mut [u64]) {
        ReservationBook::busy_mask_during(self, window, exclude, busy);
    }
    fn change_points(&self, from: SimTime) -> Vec<SimTime> {
        ReservationBook::change_points(self, from)
    }
    fn visit_slots(
        &self,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
        max_slots: usize,
        visit: &mut SlotVisitor<'_>,
    ) {
        self.walk(size, duration, from, exclude, max_slots, visit);
    }
}

/// The original scan-everything reservation book, kept as the executable
/// specification for [`ReservationBook`].
///
/// Every query walks all live reservations: `free_nodes_during` and `add`
/// are `O(R·P)` and `earliest_slots` is `O(R²·P)`. Parity between the two
/// books over randomized workloads is asserted in `tests/properties.rs`,
/// and the scheduler scaling benchmark uses this book as its before-side
/// baseline.
#[derive(Debug, Clone)]
pub struct NaiveReservationBook {
    cluster_size: u32,
    reservations: BTreeMap<ReservationId, Reservation>,
    next_id: u64,
}

impl NaiveReservationBook {
    /// Creates an empty book over a cluster of `cluster_size` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_size == 0`.
    pub fn new(cluster_size: u32) -> Self {
        assert!(cluster_size > 0, "cluster must have at least one node");
        NaiveReservationBook {
            cluster_size,
            reservations: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Number of live reservations.
    pub fn len(&self) -> usize {
        self.reservations.len()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.reservations.is_empty()
    }

    /// Commits `partition` to `job` over `interval`, scanning every live
    /// reservation for conflicts.
    ///
    /// # Errors
    ///
    /// Same contract as [`ReservationBook::add`].
    pub fn add(
        &mut self,
        job: JobId,
        partition: Partition,
        interval: TimeWindow,
    ) -> Result<ReservationId, ReservationError> {
        if interval.is_empty() {
            return Err(ReservationError::EmptyInterval);
        }
        if let Some(n) = partition
            .iter()
            .find(|n| n.index() >= self.cluster_size as usize)
        {
            return Err(ReservationError::UnknownNode(n));
        }
        for (id, r) in &self.reservations {
            if windows_overlap(r.interval, interval) && r.partition.overlaps(&partition) {
                return Err(ReservationError::Conflict { existing: *id });
            }
        }
        let id = ReservationId(self.next_id);
        self.next_id += 1;
        self.reservations.insert(
            id,
            Reservation {
                job,
                partition,
                interval,
            },
        );
        Ok(id)
    }

    /// Releases a reservation, returning it if it existed.
    pub fn remove(&mut self, id: ReservationId) -> Option<Reservation> {
        self.reservations.remove(&id)
    }
}

impl AvailabilityView for NaiveReservationBook {
    fn cluster_size(&self) -> u32 {
        self.cluster_size
    }

    fn free_nodes_during(&self, window: TimeWindow, exclude: &[NodeId]) -> Vec<NodeId> {
        let mut busy = vec![false; self.cluster_size as usize];
        for n in exclude {
            if n.index() < busy.len() {
                busy[n.index()] = true;
            }
        }
        for r in self.reservations.values() {
            if windows_overlap(r.interval, window) {
                for n in r.partition.iter() {
                    busy[n.index()] = true;
                }
            }
        }
        (0..self.cluster_size)
            .map(NodeId::new)
            .filter(|n| !busy[n.index()])
            .collect()
    }

    fn change_points(&self, from: SimTime) -> Vec<SimTime> {
        let mut points = vec![from];
        for r in self.reservations.values() {
            for t in [r.interval.start(), r.interval.end()] {
                if t > from {
                    points.push(t);
                }
            }
        }
        points.sort_unstable();
        points.dedup();
        points
    }

    fn visit_slots(
        &self,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
        max_slots: usize,
        visit: &mut SlotVisitor<'_>,
    ) {
        // The specification stays the eager scan; the lazy form reads it.
        for slot in self.earliest_slots(size, duration, from, exclude, max_slots) {
            if visit(slot.start, &mut FreeNodes::listed(&slot.free)).is_break() {
                break;
            }
        }
    }

    fn earliest_slots(
        &self,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
        max_slots: usize,
    ) -> Vec<Slot> {
        assert!(size > 0, "job size must be positive");
        assert!(!duration.is_zero(), "duration must be positive");
        let mut out = Vec::new();
        for t in self.change_points(from) {
            if out.len() >= max_slots {
                break;
            }
            let window = TimeWindow::starting_at(t, duration);
            let free = self.free_nodes_during(window, exclude);
            if free.len() >= size as usize {
                out.push(Slot { start: t, free });
            }
        }
        out
    }
}

fn windows_overlap(a: TimeWindow, b: TimeWindow) -> bool {
    a.start() < b.end() && b.start() < a.end()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_sim_core::rng::DetRng;

    /// The bit-by-bit loop `set_nodes` replaced, kept as its oracle.
    fn set_nodes_bitwise(words: &mut [u64], width: u32, nodes: impl Iterator<Item = NodeId>) {
        for i in nodes.map(|n| n.index()).filter(|&i| i < width as usize) {
            words[i / 64] |= 1 << (i % 64);
        }
    }

    #[test]
    fn set_nodes_matches_the_bitwise_loop() {
        let mut rng = DetRng::seed_from(0xD5_2005).fork("set-nodes-runs");
        for case in 0..4096 {
            let width = rng.uniform_u64(1, 300) as u32;
            let mut ids: Vec<u32> = Vec::new();
            // Runs of every length at every offset, out-of-range ids and
            // runs crossing the width included; sorted or not, with
            // repeats.
            for _ in 0..rng.uniform_u64(0, 6) {
                let first = rng.uniform_u64(0, u64::from(width) + 8) as u32;
                let len = rng.uniform_u64(1, 140) as u32;
                ids.extend(first..first + len);
            }
            if rng.chance(0.5) {
                ids.sort_unstable();
                ids.dedup();
            }
            let words = width.div_ceil(64) as usize;
            let (mut want, mut got) = (vec![0; words], vec![0; words]);
            let nodes: Vec<NodeId> = ids.iter().copied().map(NodeId::new).collect();
            set_nodes_bitwise(&mut want, width, nodes.iter().copied());
            set_nodes(&mut got, width, nodes.iter().copied());
            assert_eq!(got, want, "case {case}: width {width}, ids {ids:?}");
        }
    }

    #[test]
    #[should_panic(expected = "word count must match width")]
    fn a_masked_free_set_rejects_a_wrong_word_count() {
        let _ = FreeNodes::masked(100, &[0], &mut Vec::new());
    }

    #[test]
    fn a_masked_free_set_decodes_as_far_as_it_is_read() {
        let mut rng = DetRng::seed_from(0xD5_2005).fork("free-nodes-lazy");
        for case in 0..2048 {
            let width = rng.uniform_u64(1, 300) as u32;
            let density = rng.unit();
            let mut busy = vec![0u64; width.div_ceil(64) as usize];
            for i in 0..width as usize {
                if rng.chance(density) {
                    busy[i / 64] |= 1 << (i % 64);
                }
            }
            let want: Vec<NodeId> = (0..width)
                .filter(|&i| busy[i as usize / 64] & (1 << (i % 64)) == 0)
                .map(NodeId::new)
                .collect();
            // Set padding bits are not nodes.
            if !width.is_multiple_of(64) && rng.chance(0.5) {
                *busy.last_mut().unwrap() |= u64::MAX << (width % 64);
            }
            let mut decoded = vec![NodeId::new(9999)];
            let mut free = FreeNodes::masked(width, &busy, &mut decoded);
            assert_eq!(free.len(), want.len(), "case {case}");
            let mut read = 0;
            while read < want.len() + 2 {
                read += rng.uniform_u64(0, 40) as usize;
                let k = read.min(want.len());
                assert_eq!(free.prefix(read), &want[..k], "case {case}: prefix {read}");
                assert_eq!(free.decoded(), k, "case {case}: decoded past the read");
            }
            assert_eq!(free.to_vec(), want);
            assert_eq!(
                FreeNodes::listed(&want).prefix(3),
                &want[..want.len().min(3)]
            );
        }
    }

    fn w(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(SimTime::from_secs(a), SimTime::from_secs(b))
    }

    #[test]
    fn add_and_remove() {
        let mut book = ReservationBook::new(4);
        let id = book
            .add(JobId::new(1), Partition::contiguous(0, 2), w(0, 10))
            .unwrap();
        assert_eq!(book.len(), 1);
        let r = book.remove(id).unwrap();
        assert_eq!(r.job, JobId::new(1));
        assert!(book.is_empty());
        assert!(book.remove(id).is_none());
        // Releasing the last reservation leaves an empty profile behind.
        assert_eq!(book.row_count(), 0);
    }

    #[test]
    fn conflicting_reservation_rejected() {
        let mut book = ReservationBook::new(4);
        let id = book
            .add(JobId::new(1), Partition::contiguous(0, 2), w(0, 10))
            .unwrap();
        let err = book
            .add(JobId::new(2), Partition::contiguous(1, 2), w(5, 15))
            .unwrap_err();
        assert_eq!(err, ReservationError::Conflict { existing: id });
        // Disjoint in time is fine.
        book.add(JobId::new(3), Partition::contiguous(1, 2), w(10, 15))
            .unwrap();
        // Disjoint in nodes is fine.
        book.add(JobId::new(4), Partition::contiguous(2, 2), w(0, 10))
            .unwrap();
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut book = ReservationBook::new(4);
        assert_eq!(
            book.add(JobId::new(1), Partition::contiguous(3, 2), w(0, 10)),
            Err(ReservationError::UnknownNode(NodeId::new(4)))
        );
        assert_eq!(
            book.add(JobId::new(1), Partition::contiguous(0, 1), w(5, 5)),
            Err(ReservationError::EmptyInterval)
        );
        for e in [
            ReservationError::Conflict {
                existing: ReservationId(0),
            },
            ReservationError::UnknownNode(NodeId::new(9)),
            ReservationError::EmptyInterval,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn free_nodes_respects_reservations_and_exclusions() {
        let mut book = ReservationBook::new(4);
        book.add(JobId::new(1), Partition::contiguous(0, 2), w(10, 20))
            .unwrap();
        // Window before the reservation: everything free.
        assert_eq!(book.free_nodes_during(w(0, 10), &[]).len(), 4);
        // Overlapping window: nodes 0-1 busy.
        let free = book.free_nodes_during(w(15, 25), &[]);
        assert_eq!(free, vec![NodeId::new(2), NodeId::new(3)]);
        // Exclusion on top.
        let free = book.free_nodes_during(w(15, 25), &[NodeId::new(2)]);
        assert_eq!(free, vec![NodeId::new(3)]);
    }

    #[test]
    fn earliest_slot_backfills_holes() {
        let mut book = ReservationBook::new(4);
        // Nodes 0-3 busy during [100, 200); the hole [0, 100) is open.
        book.add(JobId::new(1), Partition::contiguous(0, 4), w(100, 200))
            .unwrap();
        // A short job fits in the hole...
        let slots = book.earliest_slots(2, SimDuration::from_secs(50), SimTime::ZERO, &[], 1);
        assert_eq!(slots[0].start, SimTime::ZERO);
        // ...a long one must wait for the reservation to end.
        let slots = book.earliest_slots(2, SimDuration::from_secs(150), SimTime::ZERO, &[], 1);
        assert_eq!(slots[0].start, SimTime::from_secs(200));
    }

    #[test]
    fn slots_are_in_increasing_start_order() {
        let mut book = ReservationBook::new(4);
        book.add(JobId::new(1), Partition::contiguous(0, 3), w(0, 100))
            .unwrap();
        book.add(JobId::new(2), Partition::contiguous(0, 3), w(150, 300))
            .unwrap();
        let slots = book.earliest_slots(2, SimDuration::from_secs(40), SimTime::ZERO, &[], 10);
        assert!(slots.windows(2).all(|s| s[0].start < s[1].start));
        // First feasible: the gap [100, 150) fits a 40 s job on 3+ nodes.
        assert_eq!(slots[0].start, SimTime::from_secs(100));
    }

    #[test]
    fn always_finds_a_slot_after_everything_ends() {
        let mut book = ReservationBook::new(2);
        book.add(JobId::new(1), Partition::contiguous(0, 2), w(0, 1000))
            .unwrap();
        let slots = book.earliest_slots(2, SimDuration::from_secs(9999), SimTime::ZERO, &[], 1);
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].start, SimTime::from_secs(1000));
    }

    #[test]
    fn change_points_sorted_unique() {
        let mut book = ReservationBook::new(4);
        book.add(JobId::new(1), Partition::contiguous(0, 1), w(10, 20))
            .unwrap();
        book.add(JobId::new(2), Partition::contiguous(1, 1), w(10, 30))
            .unwrap();
        let pts = book.change_points(SimTime::from_secs(5));
        assert_eq!(
            pts,
            vec![
                SimTime::from_secs(5),
                SimTime::from_secs(10),
                SimTime::from_secs(20),
                SimTime::from_secs(30)
            ]
        );
        // Points at or before `from` are dropped.
        let pts = book.change_points(SimTime::from_secs(20));
        assert_eq!(pts, vec![SimTime::from_secs(20), SimTime::from_secs(30)]);
    }

    #[test]
    #[should_panic(expected = "size must be positive")]
    fn zero_size_slot_query_panics() {
        let book = ReservationBook::new(2);
        let _ = book.earliest_slots(0, SimDuration::from_secs(1), SimTime::ZERO, &[], 1);
    }

    #[test]
    fn shared_boundaries_are_refcounted() {
        let mut book = ReservationBook::new(4);
        // Two reservations sharing the boundary t=20: one ends there, one
        // starts there.
        let a = book
            .add(JobId::new(1), Partition::contiguous(0, 1), w(10, 20))
            .unwrap();
        let b = book
            .add(JobId::new(2), Partition::contiguous(1, 1), w(20, 30))
            .unwrap();
        let shared = book.search(SimTime::from_secs(20)).unwrap();
        assert_eq!(book.flat().bounds[shared], 2);
        // Removing one keeps the shared key alive for the other.
        book.remove(a);
        assert_eq!(
            book.change_points(SimTime::ZERO),
            vec![
                SimTime::ZERO,
                SimTime::from_secs(20),
                SimTime::from_secs(30)
            ]
        );
        book.remove(b);
        assert_eq!(book.row_count(), 0);
    }

    #[test]
    fn timeline_profile_matches_recomputed_masks() {
        // After an arbitrary mutation sequence, every segment's mask must
        // equal the union of live partitions covering it.
        let mut book = ReservationBook::new(6);
        let a = book
            .add(JobId::new(1), Partition::contiguous(0, 2), w(0, 50))
            .unwrap();
        let _b = book
            .add(JobId::new(2), Partition::contiguous(2, 2), w(25, 75))
            .unwrap();
        let c = book
            .add(JobId::new(3), Partition::contiguous(4, 2), w(50, 100))
            .unwrap();
        book.remove(c);
        book.add(JobId::new(3), Partition::contiguous(4, 2), w(50, 80))
            .unwrap();
        book.remove(a);
        let Flat {
            times: keys, busy, ..
        } = book.flat();
        for (i, &t) in keys.iter().enumerate() {
            let seg_end = keys.get(i + 1).copied().unwrap_or(SimTime::MAX);
            let mut expect = NodeMask::empty(6);
            for (_, r) in book.iter() {
                if windows_overlap(r.interval, TimeWindow::new(t, seg_end)) {
                    for n in r.partition.iter() {
                        expect.set(n);
                    }
                }
            }
            let row = &busy[i * book.wps..(i + 1) * book.wps];
            assert_eq!(row, expect.words(), "segment at {t}");
        }
    }

    #[test]
    fn zero_length_window_is_a_strict_spanning_point_query() {
        // [t, t) reports reservations strictly spanning t as busy; ones
        // that start or end exactly at t do not count. Both books must
        // agree on every boundary case.
        let mut fast = ReservationBook::new(6);
        let mut naive = NaiveReservationBook::new(6);
        for (job, part, window) in [
            (1, Partition::contiguous(0, 1), w(10, 20)), // spans t=15
            (2, Partition::contiguous(1, 1), w(15, 25)), // starts at t=15
            (3, Partition::contiguous(2, 1), w(5, 15)),  // ends at t=15
            (4, Partition::contiguous(3, 1), w(15, 16)), // starts at t=15
        ] {
            fast.add(JobId::new(job), part.clone(), window).unwrap();
            naive.add(JobId::new(job), part, window).unwrap();
        }
        for t in [0, 5, 10, 15, 16, 20, 25, 30] {
            let probe = w(t, t);
            assert!(probe.is_empty());
            let f = fast.free_nodes_during(probe, &[]);
            let n = naive.free_nodes_during(probe, &[]);
            assert_eq!(f, n, "books disagree on empty window at t={t}");
        }
        // Only job 1 strictly spans t=15: node 0 busy, the rest free.
        let free = fast.free_nodes_during(w(15, 15), &[]);
        assert_eq!(free, (1..6).map(NodeId::new).collect::<Vec<_>>());
        // Exclusions still apply to a point query.
        let free = fast.free_nodes_during(w(15, 15), &[NodeId::new(5)]);
        assert_eq!(free, (1..5).map(NodeId::new).collect::<Vec<_>>());
        // Before the first key and after the last: nothing spans.
        assert_eq!(fast.free_nodes_during(w(0, 0), &[]).len(), 6);
        assert_eq!(fast.free_nodes_during(w(30, 30), &[]).len(), 6);
    }

    #[test]
    fn timeline_reads_in_order_through_point_queries() {
        let mut book = ReservationBook::new(4);
        book.add(JobId::new(1), Partition::contiguous(0, 2), w(10, 20))
            .unwrap();
        book.add(JobId::new(2), Partition::contiguous(2, 2), w(15, 30))
            .unwrap();
        // The profile, read through the public point queries: every change
        // point in time order with the nodes committed from there on.
        let profile: Vec<(SimTime, u32)> = book
            .change_points(SimTime::ZERO)
            .into_iter()
            .map(|t| (t, book.occupied_at(t)))
            .collect();
        assert_eq!(
            profile,
            vec![
                (SimTime::ZERO, 0),
                (SimTime::from_secs(10), 2),
                (SimTime::from_secs(15), 4),
                (SimTime::from_secs(20), 2),
                (SimTime::from_secs(30), 0),
            ]
        );
        assert_eq!(book.get(ReservationId(0)).unwrap().job, JobId::new(1));
        assert!(book.get(ReservationId(99)).is_none());
    }

    #[test]
    fn naive_book_answers_like_the_doc_examples() {
        let mut naive = NaiveReservationBook::new(4);
        assert_eq!(naive.cluster_size(), 4);
        let id = naive
            .add(JobId::new(1), Partition::contiguous(0, 4), w(100, 200))
            .unwrap();
        assert_eq!(naive.len(), 1);
        assert!(!naive.is_empty());
        let slots = naive.earliest_slots(2, SimDuration::from_secs(150), SimTime::ZERO, &[], 1);
        assert_eq!(slots[0].start, SimTime::from_secs(200));
        assert!(naive.remove(id).is_some());
        let id = naive
            .add(JobId::new(1), Partition::contiguous(0, 4), w(100, 150))
            .unwrap();
        assert_eq!(naive.free_nodes_during(w(150, 160), &[]).len(), 4);
        assert_eq!(
            naive.change_points(SimTime::ZERO),
            vec![
                SimTime::ZERO,
                SimTime::from_secs(100),
                SimTime::from_secs(150)
            ]
        );
        assert!(naive.remove(id).is_some());
        assert!(naive.is_empty());
    }

    #[test]
    fn both_books_reject_conflicts_identically() {
        let mut fast = ReservationBook::new(4);
        let mut naive = NaiveReservationBook::new(4);
        for (job, part, window) in [
            (1, Partition::contiguous(0, 2), w(0, 10)),
            (2, Partition::contiguous(1, 2), w(5, 15)), // conflict
            (3, Partition::contiguous(2, 2), w(0, 10)),
            (4, Partition::contiguous(0, 4), w(9, 11)), // conflict
        ] {
            let a = fast.add(JobId::new(job), part.clone(), window);
            let b = naive.add(JobId::new(job), part, window);
            assert_eq!(a, b);
        }
    }

    /// `earliest_slots` the slow way, through nothing but the point queries:
    /// every change point whose whole window has room. Shares neither the
    /// sliding union nor the skip index with the walk it checks.
    fn slots_by_point_queries(
        book: &ReservationBook,
        size: u32,
        duration: SimDuration,
        from: SimTime,
        exclude: &[NodeId],
        max_slots: usize,
    ) -> Vec<Slot> {
        book.change_points(from)
            .into_iter()
            .map(|start| Slot {
                start,
                free: book.free_nodes_during(TimeWindow::starting_at(start, duration), exclude),
            })
            .filter(|slot| slot.free.len() >= size as usize)
            .take(max_slots)
            .collect()
    }

    /// The skip index against the linear scans it replaces.
    fn check_skips(book: &ReservationBook, rng: &mut DetRng) {
        let free = book.flat().free;
        let n = free.len();
        for _ in 0..200 {
            let size = rng.uniform_u64(1, u64::from(book.cluster_size)) as u32;
            let start = rng.uniform_u64(0, n as u64) as usize;
            let end = rng.uniform_u64(start as u64, n as u64) as usize;
            assert_eq!(
                book.next_feasible(size, start, &mut book.cursor()),
                (start..n).find(|&r| free[r] >= size),
                "next_feasible({size}, {start})"
            );
            assert_eq!(
                book.last_blocker(size, start, end, book.cursor()),
                (start..end).rev().find(|&r| free[r] < size),
                "last_blocker({size}, {start}, {end})"
            );
        }
    }

    /// A fresh book holding `book`'s live reservations.
    fn rebuild(book: &ReservationBook) -> ReservationBook {
        let mut rebuilt = ReservationBook::new(book.cluster_size);
        for (_, r) in book.iter() {
            rebuilt.add(r.job, r.partition.clone(), r.interval).unwrap();
        }
        rebuilt
    }

    /// A book of `jobs` reservations on thirteen ten-node lanes of a
    /// 130-node cluster, each lane a queue of jobs on a 10 s grid with the
    /// odd gap, filled in roughly ascending start order the way a daemon's
    /// preload arrives; jobs take part of their lane, so free counts vary
    /// row to row. Returns it with the last reservation's end.
    fn laned_book(jobs: u64, rng: &mut DetRng) -> (ReservationBook, u64) {
        const LANES: usize = 13;
        let mut book = ReservationBook::new(130);
        let mut lane_end = [0u64; LANES];
        for job in 0..jobs {
            let lane = (0..LANES).min_by_key(|&l| lane_end[l]).unwrap();
            let start = lane_end[lane] + 10 * rng.uniform_u64(0, 2);
            let end = start + 10 * rng.uniform_u64(1, 200);
            let nodes = rng.uniform_u64(1, 10) as u32;
            book.add(
                JobId::new(job),
                Partition::contiguous(lane as u32 * 10, nodes),
                w(start, end),
            )
            .unwrap();
            lane_end[lane] = end;
            if job % 100 == 0 {
                book.check_invariants();
            }
        }
        book.check_invariants();
        (book, *lane_end.iter().max().unwrap())
    }

    #[test]
    fn deep_book_edited_in_place_matches_a_rebuilt_book() {
        let mut rng = DetRng::seed_from(0xB00C).fork("deep-book");
        let (mut book, horizon) = laned_book(2_200, &mut rng);
        assert!(book.len() >= 2_000 && book.row_count() > 20 * BLOCK);
        check_skips(&book, &mut rng);

        for step in 0..30u64 {
            // Edits at the front, in the middle and at the tail in turn.
            let anchor = [0, horizon / 2, horizon - horizon / 40][(step % 3) as usize];
            match rng.uniform_u64(0, 3) {
                0 | 1 => {
                    let (id, _) = book
                        .iter()
                        .filter(|(_, r)| r.interval.start().as_secs() >= anchor)
                        .min_by_key(|(_, r)| r.interval.start())
                        .expect("every region holds reservations");
                    book.remove(id).unwrap();
                }
                _ => {
                    let size = rng.uniform_u64(1, 40) as u32;
                    let duration = SimDuration::from_secs(rng.uniform_u64(1, 5_000));
                    let from = SimTime::from_secs(anchor + rng.uniform_u64(0, 300));
                    let slot = book
                        .earliest_slots(size, duration, from, &[], 1)
                        .pop()
                        .unwrap();
                    book.add(
                        JobId::new(10_000 + step),
                        Partition::new(slot.free[..size as usize].iter().copied()).unwrap(),
                        TimeWindow::starting_at(slot.start, duration),
                    )
                    .unwrap();
                }
            }
            book.check_invariants();
            check_skips(&book, &mut rng);

            // The timeline patched in place is, array for array, the one a
            // fresh book arrives at by re-adding the live set (chunked
            // wherever its own history split it).
            let rebuilt = rebuild(&book);
            assert_eq!(book.flat(), rebuilt.flat(), "step {step}");

            // Powers of two and not, the whole cluster, short windows and a
            // two-day one spanning most of the book.
            let exclude = [NodeId::new(3), NodeId::new(64), NodeId::new(129)];
            for (size, secs) in [
                (1, 30),
                (7, 600),
                (25, 3_600),
                (64, 900),
                (121, 5_000),
                (127, 10),
                (100, 2 * 86_400),
            ] {
                let duration = SimDuration::from_secs(secs);
                let from = SimTime::from_secs(anchor + rng.uniform_u64(0, 500));
                let got = book.earliest_slots(size, duration, from, &exclude, 3);
                assert!(
                    !got.is_empty(),
                    "step {step}: {size} nodes fit an idle cluster"
                );
                assert_eq!(
                    got,
                    rebuilt.earliest_slots(size, duration, from, &exclude, 3),
                    "step {step}: size {size} for {secs} s from {from} vs a rebuilt book"
                );
                // The long window from the front or middle costs the slow
                // reference rows² — checked there on the first rounds only.
                if secs < 86_400 || anchor > horizon / 2 || step < 6 {
                    assert_eq!(
                        got,
                        slots_by_point_queries(&book, size, duration, from, &exclude, 3),
                        "step {step}: size {size} for {secs} s from {from} vs point queries"
                    );
                }
            }
        }
    }

    #[test]
    fn forward_row_search_matches_partition_point() {
        let mut rng = DetRng::seed_from(0x6A_110B).fork("forward-row-search");
        // The direct search, with every bound at or below every answer: an
        // answer inside a probe bracket needs the final search, one at a
        // probe or the end does not.
        for case in 0..2_000 {
            let n = rng.uniform_u64(0, 300) as usize;
            let times: Vec<SimTime> = (0..n as u64).map(|i| SimTime::from_secs(3 * i)).collect();
            let t = SimTime::from_secs(rng.uniform_u64(0, 3 * n as u64 + 3));
            let want = times.partition_point(|&x| x < t);
            let lo = rng.uniform_u64(0, want as u64) as usize;
            assert_eq!(
                gallop(&times, lo, |x| x < t),
                want,
                "case {case}: {n} times, bound {lo}"
            );
        }

        let (mut one_chunk, mut jumped_back, mut far) = (0, 0, 0);
        for (jobs, chunks) in [(60, 1..2), (1_200, 4..usize::MAX)] {
            let (book, _) = laned_book(jobs, &mut rng);
            assert!(
                chunks.contains(&book.chunks.len()),
                "{jobs} jobs: {} chunks",
                book.chunks.len()
            );
            let times = book.flat().times;
            let n = times.len();
            let last = times[n - 1].as_secs();
            let at = book.cursor();
            let mut chunked = Chunked {
                book: &book,
                at,
                reach: at,
                admit: at,
            };
            let mut flat = (book.chunks.len() == 1).then(|| OneChunk {
                chunk: &book.chunks[0],
                wps: book.wps,
            });
            // Thresholds on rows, between them and past the last; `<` and
            // `<=` both. A walk's window ends only move forward, so the
            // `Chunked` reader, which keeps its `reach` cursor from one call
            // to the next, takes them in ascending order (`<` before `<=`
            // at one time): its cursor is left on the previous answer's
            // chunk, which the next bound may lie behind.
            let mut thresholds: Vec<(SimTime, bool)> = (0..3_000)
                .map(|_| {
                    let t = match rng.uniform_u64(0, 4) {
                        0 => SimTime::from_secs(last + rng.uniform_u64(0, 20)),
                        1 => times[rng.uniform_u64(0, n as u64 - 1) as usize],
                        _ => SimTime::from_secs(rng.uniform_u64(0, last)),
                    };
                    (t, rng.chance(0.5))
                })
                .collect();
            thresholds.sort();
            for (case, (t, inclusive)) in thresholds.into_iter().enumerate() {
                let pred = |x: SimTime| if inclusive { x <= t } else { x < t };
                let want = times.partition_point(|&x| pred(x));
                // Bounds at the answer, a few rows or two chunks and more
                // below it, or anywhere below it.
                let lo = match rng.uniform_u64(0, 4) {
                    0 => want,
                    1 => want.saturating_sub(rng.uniform_u64(0, 8) as usize),
                    2 => want.saturating_sub(2 * 2 * BLOCK + rng.uniform_u64(0, 300) as usize),
                    _ => rng.uniform_u64(0, want as u64) as usize,
                };
                one_chunk += usize::from(flat.is_some());
                jumped_back += usize::from(chunked.reach.base > lo);
                far += usize::from(want >= lo + 2 * 2 * BLOCK);
                let what = format!("{jobs} jobs, case {case}: bound {lo} of {n} rows, {t}");
                assert_eq!(chunked.rows_where(lo, pred), want, "chunked: {what}");
                let mut fresh = book.cursor();
                assert_eq!(book.rows_where(&mut fresh, lo, pred), want, "{what}");
                if let Some(flat) = &mut flat {
                    assert_eq!(flat.rows_where(lo, pred), want, "one chunk: {what}");
                }
            }
            // The bound equal to the row count, from any cursor.
            assert_eq!(chunked.rows_where(n, |_| true), n);
            assert_eq!(book.rows_where(&mut book.cursor(), n, |_| true), n);
        }
        assert!(one_chunk > 0 && jumped_back > 100 && far > 100);
    }

    #[test]
    fn front_churn_on_a_deep_book_splits_merges_and_drains_its_chunks() {
        // A daemon-sized book: 8,000 reservations on sixteen eight-node
        // lanes of a 128-node (two-word) cluster, preloaded in ascending
        // start order from t = 10,000 on, so `[0, 10,000)` is open.
        const WIDTH: u32 = 128;
        let mut rng = DetRng::seed_from(0xB00C).fork("front-churn");
        let mut book = ReservationBook::new(WIDTH);
        let mut lane_end = [10_000u64; 16];
        for job in 0..8_000u64 {
            let lane = (0..16).min_by_key(|&l| lane_end[l]).unwrap();
            let start = lane_end[lane] + rng.uniform_u64(0, 3);
            let end = start + rng.uniform_u64(5, 500);
            let nodes = rng.uniform_u64(1, 8) as u32;
            book.add(
                JobId::new(job),
                Partition::contiguous(lane as u32 * 8, nodes),
                w(start, end),
            )
            .unwrap();
            lane_end[lane] = end;
        }
        book.check_invariants();
        let preload = book.chunks.len();
        assert!(book.row_count() > 7_000, "{} rows", book.row_count());

        // A thousand adds at the front, in bursts of a hundred that split
        // the first chunk over and over, each burst then removed again so
        // the chunks it made drain and merge back.
        for burst in 0..10u64 {
            let mut added = Vec::new();
            for k in 0..100u64 {
                let start = rng.uniform_u64(0, 9_000);
                let node = rng.uniform_u64(0, u64::from(WIDTH) - 1) as u32;
                let job = JobId::new(100_000 + burst * 100 + k);
                if let Ok(id) = book.add(job, Partition::contiguous(node, 1), w(start, start + 700))
                {
                    added.push(id);
                }
            }
            book.check_invariants();
            assert!(book.chunks.len() > preload, "burst {burst} split the front");
            for id in added {
                book.remove(id).unwrap();
            }
            book.check_invariants();
            assert_eq!(book.flat(), rebuild(&book).flat(), "burst {burst}");
        }

        // Drained in a scrambled order, the book frees every chunk but the
        // one an empty book keeps: what outlives the reservations is one
        // chunk's buffers, not the thousands of rows the book held.
        let mut ids: Vec<ReservationId> = book.iter().map(|(id, _)| id).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.uniform_u64(0, i as u64) as usize);
        }
        for (k, id) in ids.into_iter().enumerate() {
            book.remove(id).unwrap();
            if k % 500 == 0 {
                book.check_invariants();
            }
        }
        book.check_invariants();
        assert!(book.is_empty());
        assert_eq!((book.chunks.len(), book.first.as_slice()), (1, &[0, 0][..]));
        // Vec growth at most doubles a chunk that outgrew 2·BLOCK rows.
        let kept = &book.chunks[0];
        assert!(kept.times.capacity() <= 4 * BLOCK);
        assert!(kept.busy.capacity() <= 4 * BLOCK * book.wps);
    }

    #[test]
    fn exhaustive_small_worlds_never_hide_a_feasible_slot() {
        // Up to six reservations on up to eight nodes inside [0, 14): every
        // size × duration × origin, first slot and all slots, against the
        // executable specification.
        let mut rng = DetRng::seed_from(0xB00C).fork("small-worlds");
        for world in 0..60 {
            let width = rng.uniform_u64(1, 8) as u32;
            let mut fast = ReservationBook::new(width);
            let mut naive = NaiveReservationBook::new(width);
            for job in 0..rng.uniform_u64(0, 6) {
                let first = rng.uniform_u64(0, u64::from(width) - 1) as u32;
                let nodes = rng.uniform_u64(1, u64::from(width - first)) as u32;
                let start = rng.uniform_u64(0, 9);
                let window = w(start, start + rng.uniform_u64(1, 4));
                let partition = Partition::contiguous(first, nodes);
                assert_eq!(
                    fast.add(JobId::new(job), partition.clone(), window),
                    naive.add(JobId::new(job), partition, window)
                );
                fast.check_invariants();
            }
            let exclude = [NodeId::new(0)];
            let exclude = &exclude[..world % 2];
            for size in 1..=width {
                for secs in 1..=14 {
                    for from in 0..=14 {
                        for max_slots in [1, 20] {
                            let duration = SimDuration::from_secs(secs);
                            let from = SimTime::from_secs(from);
                            assert_eq!(
                                fast.earliest_slots(size, duration, from, exclude, max_slots),
                                naive.earliest_slots(size, duration, from, exclude, max_slots),
                                "world {world}: {size} nodes for {secs} s from {from}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every slot `book`'s walk hands over, decoded, with what the walk
    /// returns.
    fn walk_collect(
        book: &ReservationBook,
        size: u32,
        secs: u64,
        from: u64,
        max_slots: usize,
        mut each: impl FnMut(),
    ) -> (Vec<Slot>, (SimTime, bool)) {
        let mut slots = Vec::new();
        let duration = SimDuration::from_secs(secs);
        let from = SimTime::from_secs(from);
        let exclude = [NodeId::new(5)];
        let ended = book.walk(
            size,
            duration,
            from,
            &exclude,
            max_slots,
            &mut |start, free| {
                each();
                slots.push(Slot {
                    start,
                    free: free.to_vec(),
                });
                ControlFlow::Continue(())
            },
        );
        (slots, ended)
    }

    #[test]
    fn a_walk_nested_in_a_visitor_matches_each_walk_alone() {
        let mut rng = DetRng::seed_from(0xB00C).fork("nested-walk");
        // The outer book is chunked, the inner one a single chunk, so both
        // kinds of row reads run nested.
        let (outer, horizon) = laned_book(600, &mut rng);
        let (inner, _) = laned_book(40, &mut rng);
        assert!(outer.chunks.len() > 1 && inner.chunks.len() == 1);
        for (size, secs, from) in [(4, 600, 0), (30, 3_600, horizon / 3), (90, 50, 500)] {
            let outer_alone = walk_collect(&outer, size, secs, from, 20, || {});
            let inner_alone = walk_collect(&inner, size, secs, from, 20, || {});
            let mut inner_nested = Vec::new();
            let outer_nested = walk_collect(&outer, size, secs, from, 20, || {
                // The outer walk holds this thread's scratch: the inner
                // walk must take the fallback's fresh buffers.
                assert!(SCRATCH.with(|cell| cell.try_borrow_mut().is_err()));
                inner_nested.push(walk_collect(&inner, size, secs, from, 20, || {}));
            });
            assert_eq!(outer_nested, outer_alone, "outer walk, {size} nodes");
            assert!(!inner_nested.is_empty(), "the visitor ran");
            for nested in inner_nested {
                assert_eq!(nested, inner_alone, "inner walk, {size} nodes");
            }
        }
        // Both walks done, the scratch is back in its cell.
        assert!(SCRATCH.with(|cell| cell.try_borrow_mut().is_ok()));
    }

    #[test]
    fn a_cluster_wider_than_the_stack_mask_spills_and_agrees_with_the_naive_book() {
        // 4,160 nodes: 65 words a row, one more than `add` and `remove`
        // build on the stack.
        const WIDTH: u32 = 4_160;
        assert!(WIDTH.div_ceil(64) as usize > STACK_WORDS);
        let mut rng = DetRng::seed_from(0xB00C).fork("wide-spill");
        let mut fast = ReservationBook::new(WIDTH);
        let mut naive = NaiveReservationBook::new(WIDTH);
        let (mut live, mut conflicts) = (Vec::new(), 0);
        for job in 0..400u64 {
            if !live.is_empty() && rng.chance(0.2) {
                let id = live.swap_remove(rng.uniform_u64(0, live.len() as u64 - 1) as usize);
                assert_eq!(fast.remove(id), naive.remove(id), "job {job}: remove");
            } else {
                // Runs anywhere, the last word's included, and scattered
                // sets across the whole width.
                let partition = match rng.uniform_u64(0, 2) {
                    0 => {
                        let len = rng.uniform_u64(1, 100) as u32;
                        Partition::contiguous(WIDTH - len, len)
                    }
                    1 => {
                        let len = rng.uniform_u64(1, 400) as u32;
                        let first = rng.uniform_u64(0, u64::from(WIDTH - len)) as u32;
                        Partition::contiguous(first, len)
                    }
                    _ => Partition::new(
                        (0..rng.uniform_u64(1, 40))
                            .map(|_| NodeId::new(rng.uniform_u64(0, u64::from(WIDTH) - 1) as u32)),
                    )
                    .unwrap(),
                };
                let start = rng.uniform_u64(0, 20_000);
                let window = w(start, start + rng.uniform_u64(1, 2_000));
                let added = fast.add(JobId::new(job), partition.clone(), window);
                assert_eq!(
                    added,
                    naive.add(JobId::new(job), partition, window),
                    "job {job}"
                );
                conflicts += usize::from(added.is_err());
                live.extend(added);
            }
            fast.check_invariants();
            let at = rng.uniform_u64(0, 20_000);
            let window = w(at, at + rng.uniform_u64(0, 3_000));
            assert_eq!(
                fast.free_nodes_during(window, &[]),
                naive.free_nodes_during(window, &[]),
                "job {job}: free nodes during {window:?}"
            );
            if job % 20 == 0 {
                let (size, duration) = (
                    rng.uniform_u64(1, 4_000) as u32,
                    SimDuration::from_secs(500),
                );
                let from = SimTime::from_secs(rng.uniform_u64(0, 20_000));
                assert_eq!(
                    fast.earliest_slots(size, duration, from, &[], 4),
                    naive.earliest_slots(size, duration, from, &[], 4),
                    "job {job}: {size} nodes"
                );
            }
        }
        assert!(fast.len() > 30, "{} live at the end", fast.len());
        assert!(conflicts > 20, "{conflicts} conflicts");
    }
}
