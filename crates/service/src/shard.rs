//! The admission router: N ≥ 1 single-writer engine shards behind one
//! deterministic router, plus — on a sharded machine — a coordinator for
//! jobs wider than any shard.
//!
//! A [`ShardedCore`] owns N [`NegotiationSession`]s, each holding a
//! contiguous slice of the cluster's nodes in its own
//! [`CachedReservationBook`](pqos_sched::CachedReservationBook). More shards make every book narrower (fewer
//! mask words) and shallower (fewer reservations), so per-quote probe
//! cost drops roughly by the shard count — that is the whole scaling
//! story, and it needs no extra threads. Every shard count runs the same
//! router; a one-shard core ([`ShardedCore::single`]) has no coordinator
//! and journals byte-for-byte what its session would alone.
//!
//! Routing is deterministic, which is what keeps sharded runs replayable:
//!
//! - **Held ids** stay in their lane. A job's lane is the lane whose
//!   [`Lifecycle`] holds its id — shards in index order, then the
//!   coordinator — so a re-quote is answered by the journal already
//!   carrying the job, and the router keeps no job table of its own. An
//!   id no lifecycle holds (rejected, an expired quote, or repeated
//!   within the batch that first quotes it) is routed as new; ids the
//!   engine assigns are always fresh, so only a library caller re-using
//!   one can tell.
//! - **Narrow jobs** (`size` ≤ the widest shard) probe shard book
//!   snapshots in rotation from their anchor shard (`job mod N`),
//!   read-only and cache-warming ([`NegotiationSession::probe_outcomes`]).
//!   A shard that can start the job *immediately* wins on the spot — no
//!   shard can start earlier — so a lightly loaded cluster pays one probe
//!   of one small book per quote, and anchored rotation keeps held
//!   quotes spread across the books. Only when no shard can start now
//!   does the job pay the full rotation and take the earliest start seen.
//!   The winning probe's outcome then *becomes* the real quote
//!   ([`NegotiationSession::quote_batch_precomputed`]): the shard
//!   journals, samples parity, and records the promise from the outcome
//!   the probe already negotiated, never re-walking its book — the book
//!   cannot have moved between a probe and its quote inside one batch.
//!   If every shard rejects, the anchor shard journals the rejection so
//!   the merged journal still shows one verdict per submission.
//! - **Wide jobs** (`size` wider than any shard) are negotiated by the
//!   cross-shard coordinator against a [`MergedAvailabilityView`] — a
//!   read-only composition of every shard book under one global node
//!   namespace. The coordinator runs the same [`Lifecycle`] a session
//!   does; only its commitment differs. Accepting a wide quote is
//!   *two-phase*: the coordinator slices the quoted partition along shard
//!   boundaries and reserves each slice in its shard's book
//!   ([`NegotiationSession::reserve_slice`]); any conflict releases the
//!   slices already taken and expires the quote (see DESIGN.md,
//!   "Two-phase cross-shard admission"). A one-shard core has no
//!   coordinator: a job wider than its shard is a narrow job nobody can
//!   fit, and the shard rejects it as a bare session would.
//!
//! Each shard journals through its own telemetry with a global
//! `node_base` offset; the coordinator journals wide-job lifecycles
//! through its own. `pqos_telemetry::merge::merge_journals` recombines
//! them into the one journal `pqos-doctor check`, the promise audit and
//! replay parity consume.

use pqos_cluster::node::NodeId;
use pqos_cluster::partition::Partition;
use pqos_core::config::SimConfig;
use pqos_core::lifecycle::Lifecycle;
use pqos_core::negotiate::NegotiationOutcome;
use pqos_core::session::{
    AcceptError, AdmissionRequest, CancelError, HeldQuote, NegotiationSession, PromiseStats,
    QuoteDecision, SessionOp, SessionOpOutcome, SessionStatus,
};
use pqos_predict::api::Predictor;
use pqos_sched::cache::QuoteCacheStats;
use pqos_sched::reservation::{AvailabilityView, ReservationId, SlotVisitor};
use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
use pqos_telemetry::{SinkHealth, Telemetry};
use pqos_workload::job::JobId;

/// The node span one shard owns: global indices `[base, base + width)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpan {
    /// Global index of the shard's first node.
    pub base: u32,
    /// Nodes in the shard.
    pub width: u32,
}

/// Splits `cluster_size` nodes into `shards` contiguous spans whose
/// widths differ by at most one (the first `cluster_size % shards` spans
/// get the extra node). Every layer that builds or replays a sharded
/// deployment derives the partitioning from this one function, so a
/// recorded `(cluster_size, shards)` pair always reconstructs the same
/// machine.
///
/// # Panics
///
/// When `shards` is zero or exceeds `cluster_size` (a shard must own at
/// least one node).
pub fn partition_spans(cluster_size: u32, shards: u32) -> Vec<ShardSpan> {
    assert!(shards >= 1, "need at least one shard");
    assert!(
        shards <= cluster_size,
        "every shard must own at least one node"
    );
    let width = cluster_size / shards;
    let extra = cluster_size % shards;
    let mut spans = Vec::with_capacity(shards as usize);
    let mut base = 0;
    for k in 0..shards {
        let w = width + u32::from(k < extra);
        spans.push(ShardSpan { base, width: w });
        base += w;
    }
    spans
}

/// A read-only [`AvailabilityView`] over every shard book at once, under
/// the global node namespace (shard-local index + shard base). The wide-
/// job coordinator negotiates against this exactly as a session
/// negotiates against its own book, so wide quotes are real quotes:
/// earliest-slot enumeration, placement scoring and failure-probability
/// pricing all run unchanged.
pub struct MergedAvailabilityView<'a> {
    books: Vec<&'a (dyn AvailabilityView + Sync)>,
    bases: Vec<u32>,
    widths: Vec<u32>,
    total: u32,
}

impl<'a> MergedAvailabilityView<'a> {
    /// Composes `books` (in shard order) into one view; `bases` are the
    /// global indices of each book's first node.
    pub fn new(books: Vec<&'a (dyn AvailabilityView + Sync)>, bases: Vec<u32>) -> Self {
        let widths: Vec<u32> = books.iter().map(|b| b.cluster_size()).collect();
        let total = widths.iter().sum();
        MergedAvailabilityView {
            books,
            bases,
            widths,
            total,
        }
    }
}

impl AvailabilityView for MergedAvailabilityView<'_> {
    fn cluster_size(&self) -> u32 {
        self.total
    }

    fn free_nodes_during(&self, window: TimeWindow, exclude: &[NodeId]) -> Vec<NodeId> {
        // Shards are contiguous and ascending, and each book returns its
        // free nodes sorted, so concatenation is already globally sorted.
        let mut free = Vec::new();
        for ((book, &base), &width) in self.books.iter().zip(&self.bases).zip(&self.widths) {
            let local: Vec<NodeId> = exclude
                .iter()
                .filter(|n| {
                    let i = n.as_u32();
                    i >= base && i < base + width
                })
                .map(|n| NodeId::new(n.as_u32() - base))
                .collect();
            free.extend(
                book.free_nodes_during(window, &local)
                    .into_iter()
                    .map(|n| NodeId::new(n.as_u32() + base)),
            );
        }
        free
    }

    fn change_points(&self, from: SimTime) -> Vec<SimTime> {
        let mut points: Vec<SimTime> = self
            .books
            .iter()
            .flat_map(|b| b.change_points(from))
            .collect();
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
        if size > self.total || max_slots == 0 {
            return;
        }
        let mut left = max_slots;
        for start in self.change_points(from) {
            // Asked of every shard only once the walk has got this far.
            let free = self.free_nodes_during(TimeWindow::starting_at(start, duration), exclude);
            if free.len() as u32 >= size {
                left -= 1;
                if visit(start, &free).is_break() || left == 0 {
                    break;
                }
            }
        }
    }
}

/// What an accepted wide job holds: one booked slice per shard its
/// partition touches, as `(shard index, reservation in that shard's book)`.
type Slices = Vec<(usize, ReservationId)>;

/// The cross-shard coordinator: owns the lifecycle of jobs wider than any
/// shard — the same [`Lifecycle`] a session runs, journaling into the
/// coordinator's own telemetry, but committing capacity as per-shard
/// slices instead of one reservation.
struct Wide<P> {
    predictor: P,
    /// The shards' config with `cluster_size` set to the full machine;
    /// wide negotiation parameters come from here.
    config: SimConfig,
    lifecycle: Lifecycle<Slices>,
}

struct Shard<P> {
    session: NegotiationSession<P>,
    base: u32,
    width: u32,
}

/// The admission core the engine drives: N ≥ 1 shard sessions and, on a
/// sharded machine, the wide-job coordinator, behind the one router the
/// [module docs](self) describe. The public surface mirrors the
/// session's, so the engine and the replay driver never ask how many
/// shards there are.
pub struct ShardedCore<P> {
    shards: Vec<Shard<P>>,
    /// `None` for [`ShardedCore::single`]: a one-shard core has no
    /// coordinator, and its shard rejects what it cannot fit.
    wide: Option<Wide<P>>,
    max_width: u32,
    /// The metrics registry the engine publishes into.
    main: Telemetry,
    /// Requests routed per lane in the most recent `quote_batch` (index
    /// N = the coordinator's lane); the engine reports these as per-shard
    /// depth. Empty when the core has one lane.
    routed_last: Vec<u64>,
    /// Cumulative requests routed per lane since startup, laid out as
    /// `routed_last`.
    routed_total: Vec<u64>,
}

impl<P: Predictor + Sync> ShardedCore<P> {
    /// The one-shard core over `session`, with no coordinator. Metrics and
    /// SLO alerts go to the session's own telemetry, and it journals
    /// byte-for-byte what the session would alone.
    pub fn single(session: NegotiationSession<P>) -> Self {
        let main = session.telemetry().clone();
        Self::new(vec![session], None, main)
    }

    /// Builds an N-shard core. `sessions` are the per-shard sessions in
    /// shard order; each must have been constructed over its
    /// [`partition_spans`] width with the matching
    /// [`NegotiationSession::node_base`], journaling into its own
    /// telemetry. `wide_predictor` scores wide-job quotes over the full
    /// cluster; `coordinator` is the wide-job journal; `main` is the
    /// metrics registry the engine publishes into.
    ///
    /// # Panics
    ///
    /// When `sessions` is empty.
    pub fn sharded(
        sessions: Vec<NegotiationSession<P>>,
        wide_predictor: P,
        coordinator: Telemetry,
        main: Telemetry,
    ) -> Self {
        Self::new(sessions, Some((wide_predictor, coordinator)), main)
    }

    fn new(
        sessions: Vec<NegotiationSession<P>>,
        wide: Option<(P, Telemetry)>,
        main: Telemetry,
    ) -> Self {
        assert!(!sessions.is_empty(), "need at least one shard");
        let mut base = 0u32;
        let shards: Vec<Shard<P>> = sessions
            .into_iter()
            .map(|session| {
                let width = session.book().cluster_size();
                base += width;
                Shard {
                    session,
                    base: base - width,
                    width,
                }
            })
            .collect();
        let wide = wide.map(|(predictor, journal)| {
            let mut config = shards[0].session.config().clone();
            config.cluster_size = base;
            Wide {
                predictor,
                config,
                lifecycle: Lifecycle::new(journal),
            }
        });
        let lanes = shards.len() + usize::from(wide.is_some());
        let counters = if lanes > 1 {
            vec![0; lanes]
        } else {
            Vec::new()
        };
        ShardedCore {
            max_width: shards.iter().map(|s| s.width).max().unwrap_or(0),
            shards,
            wide,
            main,
            routed_last: counters.clone(),
            routed_total: counters,
        }
    }

    fn map_sessions(
        mut self,
        mut f: impl FnMut(NegotiationSession<P>) -> NegotiationSession<P>,
    ) -> Self {
        self.shards = self
            .shards
            .into_iter()
            .map(|s| Shard {
                session: f(s.session),
                ..s
            })
            .collect();
        self
    }

    /// Applies the parity re-check sampling cadence to every shard (the
    /// engine sets this from its own config).
    pub(crate) fn parity_sample(self, every: u64) -> Self {
        self.map_sessions(|s| s.parity_sample(every))
    }

    /// Applies a quote horizon to every shard and to the wide-job
    /// coordinator (see [`NegotiationSession::quote_horizon`]).
    pub fn quote_horizon(mut self, horizon: SimDuration) -> Self {
        if let Some(wide) = &mut self.wide {
            wide.lifecycle.set_quote_horizon(horizon);
        }
        self.map_sessions(|s| s.quote_horizon(horizon))
    }

    /// Number of engine shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard sessions, in shard order (the engine's per-shard gauges).
    pub(crate) fn shards(&self) -> impl Iterator<Item = &NegotiationSession<P>> {
        self.shards.iter().map(|s| &s.session)
    }

    /// The telemetry handle the engine publishes metrics through: the
    /// session's own for one shard, the dedicated metrics registry when
    /// sharded (shard journals are journal-only).
    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.main
    }

    /// The telemetry handle SLO alerts are journaled through: the
    /// coordinator's when there is one (its journal is part of the merged
    /// journal, so alert lines survive `merge_journals`; the metrics
    /// registry is journal-less and would drop them), else the one
    /// session's own.
    pub(crate) fn alert_telemetry(&self) -> &Telemetry {
        self.wide
            .as_ref()
            .map_or(&self.main, |w| w.lifecycle.telemetry())
    }

    /// Journal sink health summed over every journal: the shards' and
    /// the coordinator's. `status` reports these totals, so a sharded
    /// daemon's event counts mean what a one-shard daemon's do.
    pub(crate) fn sink_health(&self) -> SinkHealth {
        let mut total = SinkHealth::default();
        let healths = self
            .shards
            .iter()
            .map(|s| s.session.telemetry())
            .chain(self.wide.as_ref().map(|w| w.lifecycle.telemetry()))
            .map(Telemetry::sink_health);
        for h in healths {
            total.events_written += h.events_written;
            total.ring_dropped += h.ring_dropped;
            total.write_errors += h.write_errors;
        }
        total
    }

    /// Current virtual time (every lane advances together).
    pub(crate) fn now(&self) -> SimTime {
        self.shards[0].session.now()
    }

    /// Advances virtual time on every shard and the wide coordinator,
    /// firing due starts and completions into their journals. Wide
    /// timers fire first so a completing wide job's slices are released
    /// before any later bookkeeping at the same instant.
    pub fn advance_to(&mut self, to: SimTime) {
        let shards = &mut self.shards;
        if let Some(wide) = &mut self.wide {
            wide.lifecycle
                .advance_to(to, |slices| release_slices(shards, slices));
        }
        for shard in &mut self.shards {
            shard.session.advance_to(to);
        }
    }

    /// The lane whose lifecycle holds `id` — shards in index order, then
    /// the coordinator at index N — if any does.
    fn lane_of(&self, id: JobId) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| s.session.holds(id))
            .or_else(|| {
                let wide = self.wide.as_ref()?;
                wide.lifecycle.holds(id).then_some(self.shards.len())
            })
    }

    /// The shard books and the coordinator, for work on the coordinator's
    /// lane — which exists only on a core that has one.
    fn coordinator(&mut self) -> (&mut [Shard<P>], &mut Wide<P>) {
        let wide = self
            .wide
            .as_mut()
            .expect("a coordinator lane has a coordinator");
        (&mut self.shards, wide)
    }

    /// Quotes a batch of admission requests, returning decisions in
    /// request order. See the module docs for the routing rules.
    pub fn quote_batch(
        &mut self,
        requests: &[(JobId, AdmissionRequest)],
        threads: usize,
    ) -> Vec<QuoteDecision> {
        let n = self.shards.len();
        // Each request's lane (N = the coordinator) and, on a shard, the
        // outcome it is admitted with. A held id stays with the lifecycle
        // holding it and negotiates afresh there — the journal already
        // carrying its submission is the one that must answer a re-quote.
        let mut routed: Vec<(usize, Option<NegotiationOutcome>)> =
            Vec::with_capacity(requests.len());
        let mut fresh = Vec::new();
        for (i, &(id, req)) in requests.iter().enumerate() {
            routed.push(match self.lane_of(id) {
                Some(k) if k < n => {
                    let mut outcome = self.shards[k].session.probe_outcomes(&[req], threads);
                    (k, outcome.pop().flatten())
                }
                Some(coordinator) => (coordinator, None),
                None if self.wide.is_some() && req.size > self.max_width => (n, None),
                None => {
                    fresh.push(i);
                    (anchor(id, n), None)
                }
            });
        }
        self.probe(requests, fresh, &mut routed, threads);

        // One real quote batch per lane, in lane order and batch order
        // within it; each shard journals its own submissions and
        // rejections from the outcomes already negotiated (the book has
        // not moved since), the coordinator negotiates against the merged
        // view of every book.
        let mut lanes: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        for (i, &(k, _)) in routed.iter().enumerate() {
            lanes[k].push(i);
        }
        let mut decisions: Vec<Option<QuoteDecision>> = vec![None; requests.len()];
        for (k, slots) in lanes.into_iter().enumerate() {
            if let Some(last) = self.routed_last.get_mut(k) {
                *last = slots.len() as u64;
                self.routed_total[k] += slots.len() as u64;
            }
            if slots.is_empty() {
                continue;
            }
            let lane: Vec<(JobId, AdmissionRequest)> = slots.iter().map(|&i| requests[i]).collect();
            let lane_decisions = match self.shards.get_mut(k) {
                Some(shard) => {
                    let outcomes = slots.iter().map(|&i| routed[i].1.take()).collect();
                    shard
                        .session
                        .quote_batch_precomputed(&lane, outcomes, threads)
                }
                None => self.quote_wide(&lane, threads),
            };
            for (i, decision) in slots.into_iter().zip(lane_decisions) {
                decisions[i] = Some(decision);
            }
        }
        decisions
            .into_iter()
            .map(|d| d.expect("every request was routed to exactly one lane"))
            .collect()
    }

    /// Routes the fresh narrow requests at `fresh` (batch indices) by
    /// probing shard book snapshots in rotation from each job's anchor.
    /// A request some shard can start *right now* stops probing there —
    /// no shard can start earlier — so under light load one probe of one
    /// small book replaces a scan of every shard; that is where the
    /// per-quote cost drops by the shard count. Starting the rotation at
    /// the anchor instead of shard 0 spreads held quotes across the
    /// books, so no shard becomes the hot one every other probe must
    /// wade through. Requests no shard can start immediately take the
    /// earliest start seen over the full rotation (ties to the first
    /// shard probed); where every shard rejects, `routed` keeps the
    /// anchor and no outcome, so the anchor journals the one rejection.
    /// Probes are read-only and warm the winner's quote cache.
    fn probe(
        &self,
        requests: &[(JobId, AdmissionRequest)],
        mut fresh: Vec<usize>,
        routed: &mut [(usize, Option<NegotiationOutcome>)],
        threads: usize,
    ) {
        let n = self.shards.len();
        let now = self.now();
        for pass in 0..n {
            if fresh.is_empty() {
                break;
            }
            let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); n];
            for &i in &fresh {
                by_shard[(anchor(requests[i].0, n) + pass) % n].push(i);
            }
            fresh.clear();
            for (k, group) in by_shard.iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let asks: Vec<AdmissionRequest> = group.iter().map(|&i| requests[i].1).collect();
                let outcomes = self.shards[k].session.probe_outcomes(&asks, threads);
                for (&i, outcome) in group.iter().zip(outcomes) {
                    match outcome {
                        // Strictly earlier than any start seen before,
                        // which all lay in the future.
                        Some(o) if o.accepted.start <= now => routed[i] = (k, Some(o)),
                        Some(o) => {
                            let best = routed[i].1.as_ref();
                            if best.is_none_or(|b| o.accepted.start < b.accepted.start) {
                                routed[i] = (k, Some(o));
                            }
                            fresh.push(i);
                        }
                        None => fresh.push(i),
                    }
                }
            }
        }
    }

    /// Quotes the coordinator's lane of one batch: a session's
    /// `quote_batch` with the merged view of every shard book in place
    /// of its own.
    fn quote_wide(
        &mut self,
        lane: &[(JobId, AdmissionRequest)],
        threads: usize,
    ) -> Vec<QuoteDecision> {
        let (shards, wide) = self.coordinator();
        let books: Vec<&(dyn AvailabilityView + Sync)> = shards
            .iter()
            .map(|s| s.session.book() as &(dyn AvailabilityView + Sync))
            .collect();
        let bases: Vec<u32> = shards.iter().map(|s| s.base).collect();
        let merged = MergedAvailabilityView::new(books, bases);
        let outcomes = wide.lifecycle.negotiate(
            &merged,
            &wide.config,
            &wide.predictor,
            lane.iter().map(|&(_, req)| req),
            threads,
        );
        wide.lifecycle.admit(&wide.config, lane, outcomes)
    }

    /// Commits a held quote (two-phase for wide jobs).
    pub fn accept(&mut self, id: JobId) -> Result<HeldQuote, AcceptError> {
        match self.lane_of(id) {
            Some(k) if k < self.shards.len() => self.shards[k].session.accept(id),
            Some(_) => self.accept_wide(id),
            None => Err(AcceptError::UnknownQuote),
        }
    }

    /// The two-phase commit of a wide quote. Phase 1 (the booking step
    /// the lifecycle calls once the quote is known and its promise still
    /// ahead): cut the quoted partition along shard boundaries and
    /// reserve each slice in its shard's book, in shard order; a conflict
    /// means a shard-local commitment landed in the hole since the quote,
    /// so the slices already taken are released and the quote expires.
    /// Phase 2: every slice held — the lifecycle journals the accepted
    /// quote and placement.
    fn accept_wide(&mut self, id: JobId) -> Result<HeldQuote, AcceptError> {
        let (shards, wide) = self.coordinator();
        wide.lifecycle.accept(id, |held, window| {
            // The partition is sorted and shard spans are contiguous and
            // ascending: one pass cuts it at each shard's upper bound.
            let mut rest = held.quote.partition.as_slice();
            let mut slices = Slices::new();
            for k in 0..shards.len() {
                let (base, end) = (shards[k].base, shards[k].base + shards[k].width);
                let (local, tail) = rest.split_at(rest.partition_point(|n| n.as_u32() < end));
                rest = tail;
                if local.is_empty() {
                    continue;
                }
                let slice = Partition::from_sorted(
                    local
                        .iter()
                        .map(|n| NodeId::new(n.as_u32() - base))
                        .collect(),
                );
                match shards[k].session.reserve_slice(id, slice, window) {
                    Some(reservation) => slices.push((k, reservation)),
                    None => {
                        release_slices(shards, slices);
                        return None;
                    }
                }
            }
            Some(slices)
        })
    }

    /// Withdraws a quoted or accepted (not yet started) job.
    pub fn cancel(&mut self, id: JobId) -> Result<(), CancelError> {
        match self.lane_of(id) {
            Some(k) if k < self.shards.len() => self.shards[k].session.cancel(id),
            Some(_) => {
                let (shards, wide) = self.coordinator();
                wide.lifecycle
                    .cancel(id, |slices| release_slices(shards, slices))
            }
            None => Err(CancelError::UnknownJob),
        }
    }

    /// Aggregated status across every shard and the coordinator.
    /// `occupied_nodes` and `reservations` sum shard books (wide slices
    /// live there); a wide job therefore counts one reservation per shard
    /// it spans. `worst_residual_milli` is the worst residual across the
    /// per-lane ledgers.
    pub fn status(&self) -> SessionStatus {
        let shards: Vec<SessionStatus> = self.shards().map(NegotiationSession::status).collect();
        let wide = self.wide.as_ref().map(|w| &w.lifecycle);
        SessionStatus {
            now: self.now(),
            cluster_size: shards.iter().map(|s| s.cluster_size).sum(),
            occupied_nodes: shards.iter().map(|s| s.occupied_nodes).sum(),
            reservations: shards.iter().map(|s| s.reservations).sum(),
            stats: shards
                .iter()
                .map(|s| s.stats)
                .chain(wide.map(Lifecycle::stats))
                .sum(),
            promises: shards
                .iter()
                .map(|s| s.promises)
                .chain(wide.map(Lifecycle::promise_stats))
                .sum(),
            parity_sample: shards[0].parity_sample,
        }
    }

    /// Requests routed per lane in the most recent quote batch; index
    /// `shard_count()` is the coordinator's lane. Empty for a one-lane
    /// core.
    pub(crate) fn routed_last(&self) -> &[u64] {
        &self.routed_last
    }

    /// Cumulative requests routed per lane since startup (coordinator's
    /// lane last). Empty for a one-lane core.
    pub fn routed_total(&self) -> &[u64] {
        &self.routed_total
    }

    /// Jobs currently quoted, accepted or running across all lanes.
    pub fn live_jobs(&self) -> usize {
        let shards: usize = self.shards().map(NegotiationSession::live_jobs).sum();
        shards + self.wide.as_ref().map_or(0, |w| w.lifecycle.live_jobs())
    }

    /// Aggregated promise-calibration counters.
    pub(crate) fn promise_stats(&self) -> PromiseStats {
        self.shards()
            .map(NegotiationSession::promise_stats)
            .chain(self.wide.as_ref().map(|w| w.lifecycle.promise_stats()))
            .sum()
    }

    /// Aggregated quote-cache counters across every shard book.
    pub fn quote_cache_stats(&self) -> QuoteCacheStats {
        let mut sum = QuoteCacheStats::default();
        for c in self.shards().map(NegotiationSession::quote_cache_stats) {
            sum.hits += c.hits;
            sum.misses += c.misses;
            sum.profile_rebuilds += c.profile_rebuilds;
            sum.entries_invalidated += c.entries_invalidated;
        }
        sum
    }

    /// Flushes every journal (shards, coordinator, metrics registry).
    pub fn flush(&self) {
        for session in self.shards() {
            session.flush();
        }
        if let Some(wide) = &self.wide {
            wide.lifecycle.telemetry().flush();
        }
        self.main.flush();
    }

    /// Applies one replayable [`SessionOp`], exactly as
    /// [`NegotiationSession::apply`] does for a single session; replaying
    /// a recording drives the same core shape through this.
    pub fn apply(&mut self, op: &SessionOp, threads: usize) -> SessionOpOutcome {
        match op {
            SessionOp::AdvanceTo(to) => {
                self.advance_to(*to);
                SessionOpOutcome::Advanced(self.now())
            }
            SessionOp::QuoteBatch(requests) => {
                SessionOpOutcome::Quotes(self.quote_batch(requests, threads))
            }
            SessionOp::Accept(id) => SessionOpOutcome::Accepted(self.accept(*id)),
            SessionOp::Cancel(id) => SessionOpOutcome::Cancelled(self.cancel(*id)),
        }
    }
}

/// The shard a fresh job's probe rotation starts from, and the one that
/// journals its rejection if every shard rejects it.
fn anchor(id: JobId, shards: usize) -> usize {
    (id.as_u64() % shards as u64) as usize
}

/// Hands a wide job's slices back to the shard books they were taken from.
fn release_slices<P: Predictor + Sync>(shards: &mut [Shard<P>], slices: Slices) {
    for (k, reservation) in slices {
        shards[k].session.release_slice(reservation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_predict::api::NullPredictor;

    fn session_over(
        width: u32,
        base: u32,
        telemetry: Telemetry,
    ) -> NegotiationSession<NullPredictor> {
        NegotiationSession::new(
            SimConfig::paper_defaults().cluster_size_nodes(width),
            NullPredictor,
            telemetry,
        )
        .node_base(base as u64)
    }

    fn sharded(cluster: u32, n: u32) -> (ShardedCore<NullPredictor>, Vec<Telemetry>, Telemetry) {
        let spans = partition_spans(cluster, n);
        let mut telemetries = Vec::new();
        let mut sessions = Vec::new();
        for span in &spans {
            let t = Telemetry::builder().ring_buffer(4096).build();
            telemetries.push(t.clone());
            sessions.push(session_over(span.width, span.base, t));
        }
        let coord = Telemetry::builder().ring_buffer(4096).build();
        let core = ShardedCore::sharded(
            sessions,
            NullPredictor,
            coord.clone(),
            Telemetry::disabled(),
        );
        (core, telemetries, coord)
    }

    fn req(size: u32, runtime: u64) -> AdmissionRequest {
        AdmissionRequest {
            size,
            runtime: SimDuration::from_secs(runtime),
        }
    }

    fn events(t: &Telemetry) -> Vec<String> {
        t.ring_events().iter().map(|e| e.to_jsonl()).collect()
    }

    #[test]
    fn spans_cover_the_cluster_contiguously() {
        let spans = partition_spans(10, 3);
        assert_eq!(
            spans,
            vec![
                ShardSpan { base: 0, width: 4 },
                ShardSpan { base: 4, width: 3 },
                ShardSpan { base: 7, width: 3 },
            ]
        );
        let spans = partition_spans(8, 8);
        assert!(spans.iter().all(|s| s.width == 1));
    }

    #[test]
    fn one_shard_journals_identically_to_a_raw_session() {
        // The sharded machinery with N=1 must be invisible: same
        // decisions, same journal bytes as driving the session directly.
        let raw_t = Telemetry::builder().ring_buffer(4096).build();
        let mut raw = session_over(64, 0, raw_t.clone());
        let raw_d = raw.quote_batch(&[(JobId::new(1), req(4, 3600))], 1);
        raw.accept(JobId::new(1)).unwrap();
        raw.advance_to(SimTime::from_secs(100_000));

        let (mut core, shard_ts, _) = sharded(64, 1);
        let d = core.quote_batch(&[(JobId::new(1), req(4, 3600))], 1);
        core.accept(JobId::new(1)).unwrap();
        core.advance_to(SimTime::from_secs(100_000));

        assert_eq!(raw_d, d);
        assert_eq!(events(&raw_t), events(&shard_ts[0]));
    }

    #[test]
    fn narrow_jobs_route_to_the_earliest_quoting_shard() {
        let (mut core, _, _) = sharded(8, 2);
        // Fill shard 0 (nodes 0..4) completely.
        let d = core.quote_batch(&[(JobId::new(1), req(4, 3600))], 1);
        assert!(matches!(d[0], QuoteDecision::Quoted(_)));
        core.accept(JobId::new(1)).unwrap();
        // The next 4-node job must land on shard 1 at t=0, not queue
        // behind shard 0's booking.
        let d = core.quote_batch(&[(JobId::new(2), req(4, 3600))], 1);
        let QuoteDecision::Quoted(held) = &d[0] else {
            panic!("expected a quote");
        };
        assert_eq!(held.quote.start, SimTime::ZERO);
        core.accept(JobId::new(2)).unwrap();
        assert_eq!(core.status().occupied_nodes, 8);
        assert_eq!(core.routed_total(), &[1, 1, 0]);
    }

    /// A job's lane is the lifecycle holding its id: a held id sticks to
    /// it whatever its re-quote asks for, and an id whose entry is gone
    /// (rejected, or an expired quote) is routed as new.
    #[test]
    fn a_held_id_sticks_to_its_lane_and_a_dropped_one_is_routed_as_new() {
        let (mut core, _, _) = sharded(8, 2);
        let quote = |core: &mut ShardedCore<NullPredictor>, id, size| {
            let d = core.quote_batch(&[(JobId::new(id), req(size, 3600))], 1);
            (d.into_iter().next().unwrap(), core.routed_last().to_vec())
        };
        // Job 2 is held on shard 0; job 4 then fills shard 0 from t=0.
        assert_eq!(quote(&mut core, 2, 2).1, [1, 0, 0]);
        assert_eq!(quote(&mut core, 4, 4).1, [1, 0, 0]);
        core.accept(JobId::new(4)).unwrap();
        // Re-quoted, job 2 stays on shard 0 behind job 4, though shard 1
        // could start it now...
        let (QuoteDecision::Quoted(held), lanes) = quote(&mut core, 2, 2) else {
            panic!("expected a quote");
        };
        assert!(held.quote.start > SimTime::ZERO);
        assert_eq!(lanes, [1, 0, 0]);
        // ...and re-quoted wider than any shard, shard 0 rejects it
        // rather than the coordinator quoting it; its held quote stands.
        assert_eq!(
            quote(&mut core, 2, 6),
            (QuoteDecision::Rejected, vec![1, 0, 0])
        );
        assert_eq!(core.live_jobs(), 2);
        // A held wide quote sticks to the coordinator the same way.
        assert_eq!(quote(&mut core, 10, 6).1, [0, 0, 1]);
        assert_eq!(quote(&mut core, 10, 1).1, [0, 0, 1]);

        // Rejected by the coordinator, job 6 leaves no entry: re-quoted
        // narrow, it is probed like any new job and lands on free shard 1.
        assert_eq!(
            quote(&mut core, 6, 9),
            (QuoteDecision::Rejected, vec![0, 0, 1])
        );
        assert_eq!(quote(&mut core, 6, 1).1, [0, 1, 0]);
        // Job 8's quote on shard 1 expires once job 6 takes a node of it;
        // re-quoted wide, it goes to the coordinator.
        assert_eq!(quote(&mut core, 8, 4).1, [0, 1, 0]);
        core.accept(JobId::new(6)).unwrap();
        assert_eq!(core.accept(JobId::new(8)), Err(AcceptError::QuoteExpired));
        assert_eq!(quote(&mut core, 8, 6).1, [0, 0, 1]);
    }

    #[test]
    fn wide_jobs_span_shards_and_run_to_completion() {
        let (mut core, _, coord) = sharded(8, 2);
        // 6 nodes > max shard width 4: the coordinator owns it.
        let d = core.quote_batch(&[(JobId::new(1), req(6, 3600))], 1);
        let QuoteDecision::Quoted(held) = &d[0] else {
            panic!("expected a wide quote");
        };
        assert_eq!(held.quote.start, SimTime::ZERO);
        assert_eq!(held.quote.partition.len(), 6);
        core.accept(JobId::new(1)).unwrap();
        // Slices landed in both shard books.
        assert_eq!(core.status().occupied_nodes, 6);
        assert_eq!(core.status().reservations, 2, "one slice per shard");
        assert_eq!(core.live_jobs(), 1);
        core.advance_to(held.quote.deadline);
        assert_eq!(core.live_jobs(), 0, "a completed wide job is not live");
        let status = core.status();
        assert_eq!(status.stats.started, 1);
        assert_eq!(status.stats.completed, 1);
        assert_eq!(status.occupied_nodes, 0);
        assert_eq!(status.reservations, 0);
        assert_eq!(status.promises.made, 1);
        assert_eq!(status.promises.kept, 1);
        // The coordinator journaled the whole lifecycle with global ids.
        let lines = events(&coord);
        assert!(lines.iter().any(|l| l.contains("job_submitted")));
        assert!(lines.iter().any(|l| l.contains("job_placed")));
        assert!(lines.iter().any(|l| l.contains("job_completed")));
    }

    #[test]
    fn wide_accept_is_two_phase_and_expires_on_a_stolen_slice() {
        let (mut core, _, _) = sharded(8, 2);
        // Quote the wide job first (6 nodes at t=0)...
        let d = core.quote_batch(&[(JobId::new(1), req(6, 3600))], 1);
        assert!(matches!(d[0], QuoteDecision::Quoted(_)));
        // ...then let narrow jobs commit both shards' capacity at t=0.
        // (Separate batches: within one batch both would probe to the
        // same earliest shard and the second accept would expire, exactly
        // as competing quotes do on one shard.)
        let d = core.quote_batch(&[(JobId::new(2), req(4, 3600))], 1);
        assert!(matches!(d[0], QuoteDecision::Quoted(_)));
        core.accept(JobId::new(2)).unwrap();
        let d = core.quote_batch(&[(JobId::new(3), req(4, 3600))], 1);
        assert!(matches!(d[0], QuoteDecision::Quoted(_)));
        core.accept(JobId::new(3)).unwrap();
        assert_eq!(core.live_jobs(), 3, "the held wide quote is live");
        // The wide quote's hole is gone; phase 1 must fail and release
        // whatever it briefly took.
        assert_eq!(core.accept(JobId::new(1)), Err(AcceptError::QuoteExpired));
        assert_eq!(core.live_jobs(), 2, "the expired wide quote is dropped");
        let status = core.status();
        assert_eq!(status.occupied_nodes, 8, "only the narrow jobs");
        assert_eq!(status.reservations, 2, "no leaked wide slices");
        assert_eq!(status.stats.expired, 1);
    }

    #[test]
    fn wide_cancel_releases_every_slice() {
        let (mut core, _, _) = sharded(8, 2);
        core.quote_batch(&[(JobId::new(1), req(6, 3600))], 1);
        core.quote_batch(&[(JobId::new(1), req(6, 3600))], 1);
        assert_eq!(
            core.live_jobs(),
            1,
            "a wide re-quote replaces, it does not add"
        );
        core.accept(JobId::new(1)).unwrap();
        assert_eq!(core.status().reservations, 2);
        core.cancel(JobId::new(1)).unwrap();
        assert_eq!(core.live_jobs(), 0);
        let status = core.status();
        assert_eq!(status.reservations, 0);
        assert_eq!(status.stats.cancelled, 1);
        assert_eq!(status.promises.cancelled, 1);
        // The freed capacity is immediately quotable again.
        let d = core.quote_batch(&[(JobId::new(2), req(6, 3600))], 1);
        let QuoteDecision::Quoted(held) = &d[0] else {
            panic!("capacity must be free again");
        };
        assert_eq!(held.quote.start, SimTime::ZERO);
    }

    #[test]
    fn merged_view_speaks_the_global_namespace() {
        let (mut core, _, _) = sharded(8, 2);
        // Occupy shard 0 fully; a wide quote must start after it frees or
        // use shard 1 + wait — either way its partition is global.
        core.quote_batch(&[(JobId::new(1), req(4, 3600))], 1);
        core.accept(JobId::new(1)).unwrap();
        let d = core.quote_batch(&[(JobId::new(2), req(8, 600))], 1);
        let QuoteDecision::Quoted(held) = &d[0] else {
            panic!("expected a quote");
        };
        // All 8 nodes quoted: indices 0..8 in the global namespace.
        let mut nodes: Vec<u32> = held.quote.partition.iter().map(|n| n.as_u32()).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, (0..8).collect::<Vec<_>>());
        assert!(held.quote.start > SimTime::ZERO, "waits for shard 0");
    }

    #[test]
    fn all_shards_rejecting_journals_one_rejection_on_the_anchor() {
        let (core, shard_ts, _) = sharded(8, 2);
        let mut core = core.quote_horizon(SimDuration::from_secs(10));
        // Saturate both shards far past the horizon (one batch per
        // commit so the second quote routes to the still-free shard).
        core.quote_batch(&[(JobId::new(1), req(4, 36000))], 1);
        core.accept(JobId::new(1)).unwrap();
        core.quote_batch(&[(JobId::new(2), req(4, 36000))], 1);
        core.accept(JobId::new(2)).unwrap();
        // A narrow job that cannot start within the horizon anywhere.
        let d = core.quote_batch(&[(JobId::new(7), req(4, 600))], 1);
        assert_eq!(d[0], QuoteDecision::Rejected);
        // Exactly one shard journaled the rejection (anchor = 7 % 2 = 1).
        let rejected: usize = shard_ts
            .iter()
            .map(|t| {
                events(t)
                    .iter()
                    .filter(|l| l.contains("job_rejected"))
                    .count()
            })
            .sum();
        assert_eq!(rejected, 1);
        assert!(events(&shard_ts[1])
            .iter()
            .any(|l| l.contains("job_rejected")));
    }
}
