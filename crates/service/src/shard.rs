//! The sharded admission plane: N single-writer engine shards behind one
//! deterministic router.
//!
//! A [`ShardedCore`] owns N [`NegotiationSession`]s, each holding a
//! contiguous slice of the cluster's nodes in its own
//! [`CachedReservationBook`]. Every book is both narrower (fewer mask
//! words) and shallower (fewer reservations) than the single-plane book,
//! so per-quote probe cost drops roughly by the shard count — that is the
//! whole scaling story, and it needs no extra threads.
//!
//! Routing is deterministic, which is what keeps sharded runs replayable:
//!
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
//!   "Two-phase cross-shard admission").
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
use std::collections::HashMap;

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

/// One routed entry of a quote batch: original batch index, the request,
/// and — for freshly probed jobs — the outcome the winning probe already
/// negotiated (`Some(None)` means every shard rejected it). Sticky
/// renegotiations carry `None` and negotiate fresh on their shard.
type RoutedQuote = (
    usize,
    (JobId, AdmissionRequest),
    Option<Option<NegotiationOutcome>>,
);

/// Where a job's lifecycle lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Owned end-to-end by one shard's session.
    Shard(usize),
    /// Owned by the cross-shard wide-job coordinator.
    Wide,
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
    /// The single-plane config with `cluster_size` set to the full
    /// machine; wide negotiation parameters come from here.
    config: SimConfig,
    lifecycle: Lifecycle<Slices>,
}

struct Shard<P> {
    session: NegotiationSession<P>,
    base: u32,
    width: u32,
}

struct Sharded<P> {
    shards: Vec<Shard<P>>,
    wide: Wide<P>,
    routes: HashMap<JobId, Route>,
    max_width: u32,
    total: u32,
    main: Telemetry,
    /// Requests routed per lane in the most recent `quote_batch` (index
    /// N = the wide lane); the engine reports these as per-shard depth.
    routed_last: Vec<u64>,
    /// Cumulative requests routed per lane since startup.
    routed_total: Vec<u64>,
}

enum Plane<P> {
    /// One session, zero routing overhead: the exact single-plane path.
    Single(Box<NegotiationSession<P>>),
    Sharded(Box<Sharded<P>>),
}

/// The admission core the engine thread drives: either one
/// [`NegotiationSession`] (pure delegation — the single-shard hot path is
/// untouched) or N shard sessions plus the wide-job coordinator. The
/// public surface mirrors the session's, so the engine and the replay
/// driver are plane-agnostic.
pub struct ShardedCore<P> {
    plane: Plane<P>,
}

impl<P: Predictor + Sync> ShardedCore<P> {
    /// Wraps one session: the single-plane core. Every call delegates
    /// directly, so this is byte-for-byte the pre-sharding behaviour.
    pub fn single(session: NegotiationSession<P>) -> Self {
        ShardedCore {
            plane: Plane::Single(Box::new(session)),
        }
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
        assert!(!sessions.is_empty(), "need at least one shard");
        let mut shards = Vec::with_capacity(sessions.len());
        let mut base = 0u32;
        for session in sessions {
            let width = session.book().cluster_size();
            shards.push(Shard {
                session,
                base,
                width,
            });
            base += width;
        }
        let total = base;
        let max_width = shards.iter().map(|s| s.width).max().unwrap_or(0);
        let mut config = shards[0].session.config().clone();
        config.cluster_size = total;
        let lanes = shards.len() + 1;
        ShardedCore {
            plane: Plane::Sharded(Box::new(Sharded {
                shards,
                wide: Wide {
                    predictor: wide_predictor,
                    config,
                    lifecycle: Lifecycle::new(coordinator),
                },
                routes: HashMap::new(),
                max_width,
                total,
                main,
                routed_last: vec![0; lanes],
                routed_total: vec![0; lanes],
            })),
        }
    }

    /// Applies the parity re-check sampling cadence to every shard (the
    /// engine sets this from its own config, exactly as it does for a
    /// single session).
    pub fn parity_sample(self, every: u64) -> Self {
        match self.plane {
            Plane::Single(s) => ShardedCore::single(s.parity_sample(every)),
            Plane::Sharded(mut inner) => {
                inner.shards = inner
                    .shards
                    .into_iter()
                    .map(|s| Shard {
                        session: s.session.parity_sample(every),
                        base: s.base,
                        width: s.width,
                    })
                    .collect();
                ShardedCore {
                    plane: Plane::Sharded(inner),
                }
            }
        }
    }

    /// Applies a quote horizon to every shard and to the wide-job
    /// coordinator (see [`NegotiationSession::quote_horizon`]).
    pub fn quote_horizon(self, horizon: SimDuration) -> Self {
        match self.plane {
            Plane::Single(s) => ShardedCore::single(s.quote_horizon(horizon)),
            Plane::Sharded(mut inner) => {
                inner.shards = inner
                    .shards
                    .into_iter()
                    .map(|s| Shard {
                        session: s.session.quote_horizon(horizon),
                        base: s.base,
                        width: s.width,
                    })
                    .collect();
                inner.wide.lifecycle.set_quote_horizon(horizon);
                ShardedCore {
                    plane: Plane::Sharded(inner),
                }
            }
        }
    }

    /// Number of engine shards (1 for the single plane).
    pub fn shard_count(&self) -> usize {
        match &self.plane {
            Plane::Single(_) => 1,
            Plane::Sharded(inner) => inner.shards.len(),
        }
    }

    /// The telemetry handle the engine publishes metrics through: the
    /// session's own for the single plane, the dedicated metrics registry
    /// for the sharded plane (shard journals are journal-only).
    pub fn telemetry(&self) -> &Telemetry {
        match &self.plane {
            Plane::Single(s) => s.telemetry(),
            Plane::Sharded(inner) => &inner.main,
        }
    }

    /// The telemetry handle SLO alerts are journaled through: the
    /// session's own for the single plane, the wide-job coordinator's
    /// for the sharded plane (the coordinator journal is part of the
    /// merged journal, so alert lines survive `merge_journals`; the
    /// metrics registry is journal-less and would drop them).
    pub fn alert_telemetry(&self) -> &Telemetry {
        match &self.plane {
            Plane::Single(s) => s.telemetry(),
            Plane::Sharded(inner) => inner.wide.lifecycle.telemetry(),
        }
    }

    /// Journal sink health aggregated across every plane's telemetry:
    /// the single session's own, or the N shard journals plus the
    /// wide-job coordinator's. `status` reports these totals, so a
    /// sharded daemon's event counts mean the same thing a single
    /// plane's do.
    pub fn sink_health(&self) -> SinkHealth {
        match &self.plane {
            Plane::Single(s) => s.telemetry().sink_health(),
            Plane::Sharded(inner) => {
                let mut total = SinkHealth::default();
                let healths = inner
                    .shards
                    .iter()
                    .map(|s| s.session.telemetry().sink_health())
                    .chain([inner.wide.lifecycle.telemetry().sink_health()]);
                for h in healths {
                    total.events_written += h.events_written;
                    total.ring_dropped += h.ring_dropped;
                    total.write_errors += h.write_errors;
                }
                total
            }
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        match &self.plane {
            Plane::Single(s) => s.now(),
            Plane::Sharded(inner) => inner.wide.lifecycle.now(),
        }
    }

    /// Advances virtual time on every shard and the wide coordinator,
    /// firing due starts and completions into their journals. Wide
    /// timers fire first so a completing wide job's slices are released
    /// before any later bookkeeping at the same instant.
    pub fn advance_to(&mut self, to: SimTime) {
        match &mut self.plane {
            Plane::Single(s) => s.advance_to(to),
            Plane::Sharded(inner) => inner.advance_to(to),
        }
    }

    /// Quotes a batch of admission requests (ids engine-assigned and
    /// fresh), returning decisions in request order. See the module docs
    /// for the routing rules.
    pub fn quote_batch(
        &mut self,
        requests: &[(JobId, AdmissionRequest)],
        threads: usize,
    ) -> Vec<QuoteDecision> {
        match &mut self.plane {
            Plane::Single(s) => s.quote_batch(requests, threads),
            Plane::Sharded(inner) => inner.quote_batch(requests, threads),
        }
    }

    /// Commits a held quote (two-phase for wide jobs).
    pub fn accept(&mut self, id: JobId) -> Result<HeldQuote, AcceptError> {
        match &mut self.plane {
            Plane::Single(s) => s.accept(id),
            Plane::Sharded(inner) => inner.accept(id),
        }
    }

    /// Withdraws a quoted or accepted (not yet started) job.
    pub fn cancel(&mut self, id: JobId) -> Result<(), CancelError> {
        match &mut self.plane {
            Plane::Single(s) => s.cancel(id),
            Plane::Sharded(inner) => inner.cancel(id),
        }
    }

    /// Aggregated status across every shard and the coordinator.
    /// `occupied_nodes` and `reservations` sum shard books (wide slices
    /// live there); a wide job therefore counts one reservation per shard
    /// it spans. `worst_residual_milli` is the worst residual across the
    /// per-lane ledgers.
    pub fn status(&self) -> SessionStatus {
        match &self.plane {
            Plane::Single(s) => s.status(),
            Plane::Sharded(inner) => inner.status(),
        }
    }

    /// Per-shard status snapshots (one entry for the single plane).
    pub fn shard_statuses(&self) -> Vec<SessionStatus> {
        match &self.plane {
            Plane::Single(s) => vec![s.status()],
            Plane::Sharded(inner) => inner.shards.iter().map(|s| s.session.status()).collect(),
        }
    }

    /// Per-shard quote-cache counters (one entry for the single plane).
    pub fn shard_cache_stats(&self) -> Vec<QuoteCacheStats> {
        match &self.plane {
            Plane::Single(s) => vec![s.quote_cache_stats()],
            Plane::Sharded(inner) => inner
                .shards
                .iter()
                .map(|s| s.session.quote_cache_stats())
                .collect(),
        }
    }

    /// Requests routed per lane in the most recent quote batch; index
    /// `shard_count()` is the wide-coordinator lane. Empty for the single
    /// plane.
    pub fn routed_last(&self) -> &[u64] {
        match &self.plane {
            Plane::Single(_) => &[],
            Plane::Sharded(inner) => &inner.routed_last,
        }
    }

    /// Cumulative requests routed per lane since startup (wide lane
    /// last). Empty for the single plane.
    pub fn routed_total(&self) -> &[u64] {
        match &self.plane {
            Plane::Single(_) => &[],
            Plane::Sharded(inner) => &inner.routed_total,
        }
    }

    /// Jobs currently quoted, accepted or running across all lanes.
    pub fn live_jobs(&self) -> usize {
        match &self.plane {
            Plane::Single(s) => s.live_jobs(),
            Plane::Sharded(inner) => {
                let shard_live: usize = inner.shards.iter().map(|s| s.session.live_jobs()).sum();
                shard_live + inner.wide.lifecycle.live_jobs()
            }
        }
    }

    /// Aggregated promise-calibration counters.
    pub fn promise_stats(&self) -> PromiseStats {
        match &self.plane {
            Plane::Single(s) => s.promise_stats(),
            Plane::Sharded(inner) => inner
                .shards
                .iter()
                .map(|s| s.session.promise_stats())
                .chain([inner.wide.lifecycle.promise_stats()])
                .sum(),
        }
    }

    /// Aggregated quote-cache counters across every shard book.
    pub fn quote_cache_stats(&self) -> QuoteCacheStats {
        match &self.plane {
            Plane::Single(s) => s.quote_cache_stats(),
            Plane::Sharded(inner) => {
                let mut sum = QuoteCacheStats::default();
                for s in &inner.shards {
                    let c = s.session.quote_cache_stats();
                    sum.hits += c.hits;
                    sum.misses += c.misses;
                    sum.profile_rebuilds += c.profile_rebuilds;
                    sum.entries_invalidated += c.entries_invalidated;
                }
                sum
            }
        }
    }

    /// Flushes every journal (shards, coordinator, metrics registry).
    pub fn flush(&self) {
        match &self.plane {
            Plane::Single(s) => s.flush(),
            Plane::Sharded(inner) => {
                for s in &inner.shards {
                    s.session.flush();
                }
                inner.wide.lifecycle.telemetry().flush();
                inner.main.flush();
            }
        }
    }

    /// Applies one replayable [`SessionOp`], exactly as
    /// [`NegotiationSession::apply`] does for a single session; replaying
    /// a sharded recording drives the same plane shape through this.
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

impl<P: Predictor + Sync> Sharded<P> {
    fn advance_to(&mut self, to: SimTime) {
        let shards = &mut self.shards;
        self.wide
            .lifecycle
            .advance_to(to, |slices| release_slices(shards, slices));
        for shard in &mut self.shards {
            shard.session.advance_to(to);
        }
    }

    fn quote_batch(
        &mut self,
        requests: &[(JobId, AdmissionRequest)],
        threads: usize,
    ) -> Vec<QuoteDecision> {
        let lanes = self.shards.len() + 1;
        self.routed_last = vec![0; lanes];
        let mut decisions: Vec<Option<QuoteDecision>> = vec![None; requests.len()];

        // Split the batch into lanes. Jobs with a known route stay on it
        // (renegotiation must reach the journal already holding the id's
        // lifecycle); new narrow jobs are probed below; new wide jobs go
        // to the coordinator. Probed entries carry the winning probe's
        // outcome so the shard admits it without negotiating again;
        // sticky entries (`None`) negotiate fresh on their shard.
        let mut per_shard: Vec<Vec<RoutedQuote>> = vec![Vec::new(); self.shards.len()];
        let mut wide_slots: Vec<usize> = Vec::new();
        let mut to_probe: Vec<(usize, (JobId, AdmissionRequest))> = Vec::new();
        for (i, &(id, req)) in requests.iter().enumerate() {
            match self.routes.get(&id) {
                Some(Route::Shard(k)) => per_shard[*k].push((i, (id, req), None)),
                Some(Route::Wide) => wide_slots.push(i),
                None if req.size > self.max_width => {
                    self.routes.insert(id, Route::Wide);
                    wide_slots.push(i);
                }
                None => to_probe.push((i, (id, req))),
            }
        }

        // Probe shards in rotation from each job's anchor (`id mod N`)
        // with the still-unrouted subset of the batch. A request some
        // shard can start *right now* stops probing there — no shard can
        // start earlier — so under light load one probe of one small
        // book replaces a scan of every shard; that is where the
        // per-quote cost drops by the shard count. Starting the rotation
        // at the anchor instead of shard 0 spreads held quotes across
        // the books, so no shard becomes the hot one every other probe
        // must wade through. Requests no shard can start immediately
        // take the earliest start seen over the full rotation (ties to
        // the first shard probed). Probes are read-only and warm the
        // winner's quote cache.
        if !to_probe.is_empty() {
            let n = self.shards.len();
            let mut resolved: Vec<Option<(usize, Option<NegotiationOutcome>)>> =
                (0..to_probe.len()).map(|_| None).collect();
            let mut best: Vec<Option<(SimTime, usize, NegotiationOutcome)>> =
                (0..to_probe.len()).map(|_| None).collect();
            let mut unresolved: Vec<usize> = (0..to_probe.len()).collect();
            for pass in 0..n {
                if unresolved.is_empty() {
                    break;
                }
                let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); n];
                for &j in &unresolved {
                    let id = to_probe[j].1 .0;
                    by_shard[(id.as_u64() as usize + pass) % n].push(j);
                }
                let mut still = Vec::with_capacity(unresolved.len());
                for (k, group) in by_shard.iter().enumerate() {
                    if group.is_empty() {
                        continue;
                    }
                    let now = self.shards[k].session.now();
                    let probe_reqs: Vec<AdmissionRequest> =
                        group.iter().map(|&j| to_probe[j].1 .1).collect();
                    let outcomes = self.shards[k].session.probe_outcomes(&probe_reqs, threads);
                    for (&j, outcome) in group.iter().zip(outcomes) {
                        match outcome {
                            Some(o) if o.accepted.start <= now => {
                                resolved[j] = Some((k, Some(o)));
                            }
                            Some(o) => {
                                let t = o.accepted.start;
                                if best[j].as_ref().is_none_or(|(bt, _, _)| t < *bt) {
                                    best[j] = Some((t, k, o));
                                }
                                still.push(j);
                            }
                            None => still.push(j),
                        }
                    }
                }
                unresolved = still;
            }
            // Routes land in batch order regardless of which pass
            // resolved them, so each shard journals its submissions in
            // the same order the full scan would have.
            for (j, &(i, (id, req))) in to_probe.iter().enumerate() {
                let (k, outcome) = match (resolved[j].take(), best[j].take()) {
                    (Some((k, o)), _) => (k, o),
                    (None, Some((_, k, o))) => (k, Some(o)),
                    // Every shard rejects: the anchor shard journals the
                    // submission + rejection so the verdict exists once.
                    (None, None) => ((id.as_u64() % n as u64) as usize, None),
                };
                self.routes.insert(id, Route::Shard(k));
                per_shard[k].push((i, (id, req), Some(outcome)));
            }
        }

        // One real quote batch per shard, in shard order; each journals
        // its own submissions and rejections. Probed entries reuse the
        // outcome their winning probe already negotiated — the book has
        // not moved since the probe, so re-deriving it would only repeat
        // the same walk; sticky renegotiations negotiate fresh here.
        for (k, group) in per_shard.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            self.routed_last[k] += group.len() as u64;
            self.routed_total[k] += group.len() as u64;
            let fresh: Vec<AdmissionRequest> = group
                .iter()
                .filter(|(_, _, outcome)| outcome.is_none())
                .map(|&(_, (_, req), _)| req)
                .collect();
            let mut fresh_outcomes = if fresh.is_empty() {
                Vec::new()
            } else {
                self.shards[k].session.probe_outcomes(&fresh, threads)
            }
            .into_iter();
            let mut batch = Vec::with_capacity(group.len());
            let mut outcomes = Vec::with_capacity(group.len());
            let mut slots = Vec::with_capacity(group.len());
            for (i, pair, outcome) in group {
                slots.push(i);
                batch.push(pair);
                outcomes.push(match outcome {
                    Some(o) => o,
                    None => fresh_outcomes
                        .next()
                        .expect("one fresh outcome per sticky request"),
                });
            }
            let shard_decisions = self.shards[k]
                .session
                .quote_batch_precomputed(&batch, outcomes, threads);
            for (i, decision) in slots.into_iter().zip(shard_decisions) {
                decisions[i] = Some(decision);
            }
        }

        // Wide lane: negotiate against the merged view of every book.
        if !wide_slots.is_empty() {
            self.routed_last[lanes - 1] += wide_slots.len() as u64;
            self.routed_total[lanes - 1] += wide_slots.len() as u64;
            let wide_lane: Vec<(JobId, AdmissionRequest)> =
                wide_slots.iter().map(|&i| requests[i]).collect();
            let wide_decisions = self.quote_wide(&wide_lane, threads);
            for (i, decision) in wide_slots.into_iter().zip(wide_decisions) {
                decisions[i] = Some(decision);
            }
        }

        decisions
            .into_iter()
            .map(|d| d.expect("every request was routed to exactly one lane"))
            .collect()
    }

    /// Quotes the wide lane of one batch: a session's `quote_batch` with
    /// the merged view of every shard book in place of its own.
    fn quote_wide(
        &mut self,
        lane: &[(JobId, AdmissionRequest)],
        threads: usize,
    ) -> Vec<QuoteDecision> {
        let books: Vec<&(dyn AvailabilityView + Sync)> = self
            .shards
            .iter()
            .map(|s| s.session.book() as &(dyn AvailabilityView + Sync))
            .collect();
        let bases: Vec<u32> = self.shards.iter().map(|s| s.base).collect();
        let merged = MergedAvailabilityView::new(books, bases);
        let wide = &mut self.wide;
        let outcomes = wide.lifecycle.negotiate(
            &merged,
            &wide.config,
            &wide.predictor,
            lane.iter().map(|&(_, req)| req),
            threads,
        );
        wide.lifecycle.admit(&wide.config, lane, outcomes)
    }

    fn accept(&mut self, id: JobId) -> Result<HeldQuote, AcceptError> {
        match self.routes.get(&id) {
            None => Err(AcceptError::UnknownQuote),
            Some(Route::Shard(k)) => self.shards[*k].session.accept(id),
            Some(Route::Wide) => self.accept_wide(id),
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
        let shards = &mut self.shards;
        self.wide.lifecycle.accept(id, |held, window| {
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

    fn cancel(&mut self, id: JobId) -> Result<(), CancelError> {
        match self.routes.get(&id) {
            None => Err(CancelError::UnknownJob),
            Some(Route::Shard(k)) => self.shards[*k].session.cancel(id),
            Some(Route::Wide) => {
                let shards = &mut self.shards;
                self.wide
                    .lifecycle
                    .cancel(id, |slices| release_slices(shards, slices))
            }
        }
    }

    fn status(&self) -> SessionStatus {
        let shard_statuses: Vec<SessionStatus> =
            self.shards.iter().map(|s| s.session.status()).collect();
        let wide = &self.wide.lifecycle;
        SessionStatus {
            now: wide.now(),
            cluster_size: self.total,
            occupied_nodes: shard_statuses.iter().map(|s| s.occupied_nodes).sum(),
            reservations: shard_statuses.iter().map(|s| s.reservations).sum(),
            stats: shard_statuses
                .iter()
                .map(|s| s.stats)
                .chain([wide.stats()])
                .sum(),
            promises: shard_statuses
                .iter()
                .map(|s| s.promises)
                .chain([wide.promise_stats()])
                .sum(),
            parity_sample: shard_statuses[0].parity_sample,
        }
    }
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
        // as competing quotes do on a single plane.)
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
