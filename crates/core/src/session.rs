//! A live negotiation session: the job [`Lifecycle`] the simulator
//! ([`crate::system`]) runs trace-by-trace, driven request-by-request by
//! an online service.
//!
//! The paper's protocol is a dialog: the user *asks* for a quote
//! (`negotiate`), then *commits* to it (`accept`) or walks away
//! (`cancel`). The trace simulator collapses ask-and-commit into one step
//! because its simulated users always take the quote; a server cannot,
//! because between the quote and the commitment other clients mutate the
//! reservation book. [`NegotiationSession`] owns that mutable state
//! behind an API whose writes are serialized by construction (the
//! daemon's one net-loop thread is its only writer, ticking it after each
//! pass of reads; in-process callers go through an engine thread). It is
//! three things:
//!
//! - a **reservation book** behind the quote memo, and the **predictor**
//!   quotes are scored against — what negotiation reads;
//! - the **parity re-check** settings — a sampled second negotiation
//!   pass that must agree with the first;
//! - a [`Lifecycle`] whose commitment is one `ReservationId` — the job
//!   table, timers, counters, virtual time and journal. Every transition
//!   lives there, shared with the service's cross-shard coordinator and
//!   the simulator; the session only says what "book it" (`book.add`) and
//!   "release it" (`book.remove`) mean.
//!
//! Quotes are *soft*: negotiating reserves nothing. `accept` revalidates
//! against the book and fails with [`AcceptError::QuoteExpired`] when a
//! competing commitment took the slot first, which is exactly the
//! admission-control behaviour an overbooked system needs.
//!
//! The journal a session emits passes `pqos-doctor check` with zero
//! errors: submissions, accepted quotes, placements, starts, completions
//! and cancellations appear in monotone time order with every lifecycle
//! edge in place.

use crate::config::SimConfig;
use crate::lifecycle::{Lifecycle, SessionStats};
use crate::negotiate::NegotiationOutcome;
use pqos_cluster::partition::Partition;
use pqos_predict::api::Predictor;
use pqos_sched::cache::{CachedReservationBook, QuoteCacheStats};
use pqos_sched::reservation::ReservationId;
use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
use pqos_telemetry::{Histogram, Telemetry};
use pqos_workload::job::JobId;

pub use crate::lifecycle::{
    promise_bin, AcceptError, AdmissionRequest, CancelError, HeldQuote, PromiseStats,
    QuoteDecision, PROMISE_BINS,
};

/// A snapshot of the session for the service's `status` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStatus {
    /// Current virtual time.
    pub now: SimTime,
    /// Cluster width.
    pub cluster_size: u32,
    /// Nodes committed at `now`.
    pub occupied_nodes: u32,
    /// Live reservations in the book.
    pub reservations: usize,
    /// Lifecycle counters.
    pub stats: SessionStats,
    /// Promise-calibration counters.
    pub promises: PromiseStats,
    /// Every Nth batch gets the batched-vs-serial parity re-check (1 =
    /// every batch).
    pub parity_sample: u64,
}

/// Live negotiation/admission state: reservation book, predictor, virtual
/// clock, journal. See the [module docs](self) for the protocol.
///
/// # Examples
///
/// ```
/// use pqos_core::config::SimConfig;
/// use pqos_core::session::{AdmissionRequest, NegotiationSession, QuoteDecision};
/// use pqos_predict::api::NullPredictor;
/// use pqos_sim_core::time::{SimDuration, SimTime};
/// use pqos_telemetry::Telemetry;
/// use pqos_workload::job::JobId;
///
/// let config = SimConfig::paper_defaults().cluster_size_nodes(16);
/// let mut session = NegotiationSession::new(config, NullPredictor, Telemetry::disabled());
/// let req = AdmissionRequest {
///     size: 4,
///     runtime: SimDuration::from_secs(3600),
/// };
/// let decisions = session.quote_batch(&[(JobId::new(1), req)], 1);
/// let QuoteDecision::Quoted(held) = &decisions[0] else { panic!() };
/// assert_eq!(held.quote.start, SimTime::ZERO);
/// session.accept(JobId::new(1))?;
/// assert_eq!(session.status().reservations, 1);
/// # Ok::<(), pqos_core::session::AcceptError>(())
/// ```
#[derive(Debug)]
pub struct NegotiationSession<P> {
    config: SimConfig,
    /// The reservation book behind the quote memo: every `quote_batch`
    /// probes through memoized, delta-invalidated `earliest_slots` walks
    /// of the book's own timeline (see `pqos_sched::cache`).
    book: CachedReservationBook,
    predictor: P,
    /// Every job's phase, timers, counters, virtual time and journal; an
    /// accepted job's commitment is its reservation in `book`.
    lifecycle: Lifecycle<ReservationId>,
    /// `session.negotiate_ns`, resolved once: times every
    /// [`Self::probe_outcomes`] walk.
    negotiate_ns: Histogram,
    verify_parity: bool,
    /// Re-check every Nth batch (deterministic counter-based sampling);
    /// 1 = every batch.
    parity_sample: u64,
    /// Batches quoted so far (drives the sampling decision).
    batch_seq: u64,
    parity_checked: u64,
    parity_violations: u64,
}

impl<P: Predictor + Sync> NegotiationSession<P> {
    /// Creates an idle session at virtual time zero.
    pub fn new(config: SimConfig, predictor: P, telemetry: Telemetry) -> Self {
        let book = CachedReservationBook::new(config.cluster_size);
        NegotiationSession {
            config,
            book,
            predictor,
            negotiate_ns: telemetry.histogram("session.negotiate_ns"),
            lifecycle: Lifecycle::new(telemetry),
            verify_parity: false,
            parity_sample: 1,
            batch_seq: 0,
            parity_checked: 0,
            parity_violations: 0,
        }
    }

    /// Re-runs every batched quote through a serial [`negotiate`] call and
    /// counts disagreements in [`SessionStats::parity_violations`]. Costs
    /// one extra negotiation per request.
    ///
    /// [`negotiate`]: crate::negotiate::negotiate
    pub fn verify_parity(mut self, on: bool) -> Self {
        self.verify_parity = on;
        self
    }

    /// Runs the parity re-check on every Nth `quote_batch` only (counter-
    /// based, so identical call sequences sample identically). The check
    /// costs a full second negotiation pass — roughly doubling per-tick
    /// compute — so a serving daemon samples while tests and CI keep the
    /// default of 1 (every batch); replay leaves [`verify_parity`] off
    /// altogether. Zero is clamped to 1.
    ///
    /// [`verify_parity`]: Self::verify_parity
    pub fn parity_sample(mut self, every: u64) -> Self {
        self.parity_sample = every.max(1);
        self
    }

    /// Refuses quotes whose start lies more than `horizon` past the
    /// current virtual time (the request is answered `rejected`).
    ///
    /// An online service under sustained overload would otherwise promise
    /// starts arbitrarily far in the future while its reservation book —
    /// and with it the cost of every further negotiation — grows without
    /// bound. A horizon is the admission-control analogue of a user
    /// declining a hopeless deadline (Eq. 3): the backlog the book can
    /// accumulate, and therefore per-quote latency, stays bounded by
    /// cluster capacity × horizon.
    pub fn quote_horizon(mut self, horizon: SimDuration) -> Self {
        self.lifecycle.set_quote_horizon(horizon);
        self
    }

    /// Journals placements with node indices offset by `base`. A session
    /// that owns nodes `[base, base + cluster_size)` of a larger sharded
    /// machine reports global indices, so merged journals from several
    /// shards never alias each other's nodes. Quoting and booking are
    /// untouched — only the journaled `job_placed` node list shifts.
    pub fn node_base(mut self, base: u64) -> Self {
        self.lifecycle.set_node_base(base);
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.lifecycle.now()
    }

    /// The configuration this session was built with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Read-only view of the reservation book. A cross-shard coordinator
    /// composes several of these into one merged [`AvailabilityView`]
    /// to negotiate jobs wider than any single shard.
    ///
    /// [`AvailabilityView`]: pqos_sched::reservation::AvailabilityView
    pub fn book(&self) -> &CachedReservationBook {
        &self.book
    }

    /// The telemetry handle this session journals through. The service
    /// layer uses it to register its own engine/server metrics against the
    /// same registry the session's hooks populate.
    pub fn telemetry(&self) -> &Telemetry {
        self.lifecycle.telemetry()
    }

    /// Jobs currently alive in this session: quoted (awaiting a decision),
    /// accepted (reservation held), or running. Finished and cancelled
    /// jobs are excluded; expired quotes were dropped entirely (they show
    /// up in [`SessionStats::expired`]).
    pub fn live_jobs(&self) -> usize {
        self.lifecycle.live_jobs()
    }

    /// Whether this session's job table has an entry for `id` (see
    /// [`Lifecycle::holds`]): the service's router keeps such an id on
    /// this session.
    pub fn holds(&self, id: JobId) -> bool {
        self.lifecycle.holds(id)
    }

    /// Advances virtual time to `to` (monotone; earlier instants are
    /// ignored), journaling every start and completion that falls due.
    /// Completed jobs release their reservations.
    pub fn advance_to(&mut self, to: SimTime) {
        let book = &mut self.book;
        self.lifecycle.advance_to(to, |reservation| {
            book.remove(reservation);
        });
    }

    /// Negotiates a batch of admission requests against the current book
    /// snapshot, fanning out across `threads` OS threads. Each request is
    /// journaled as a submission; the returned decisions are in request
    /// order and quotes are held until accepted or cancelled.
    ///
    /// Job ids are caller-assigned and must be fresh; a duplicate id
    /// replaces the previous pending quote (accepted/finished jobs are
    /// never replaced — the request is rejected instead).
    pub fn quote_batch(
        &mut self,
        requests: &[(JobId, AdmissionRequest)],
        threads: usize,
    ) -> Vec<QuoteDecision> {
        let asks: Vec<AdmissionRequest> = requests.iter().map(|&(_, req)| req).collect();
        let outcomes = self.probe_outcomes(&asks, threads);
        self.admit(requests, outcomes, threads)
    }

    /// Answers, without any side effects, what each request *would* be
    /// quoted if negotiated against the current book snapshot (`None`
    /// where the request would be rejected, including by the quote
    /// horizon). Nothing is journaled, no quote is held and no counter
    /// moves — this is the read-only routing probe the service's router
    /// runs on shards before assigning the job to the one quoting the
    /// earliest start. The router keeps the winning shard's outcome and
    /// admits it via [`Self::quote_batch_precomputed`], so routing a
    /// narrow job costs one negotiation walk instead of probe-then-quote
    /// walking the same book twice. The walk is timed into
    /// `session.negotiate_ns`.
    pub fn probe_outcomes(
        &self,
        requests: &[AdmissionRequest],
        threads: usize,
    ) -> Vec<Option<NegotiationOutcome>> {
        let timer = self.negotiate_ns.start_timer();
        let outcomes = self.negotiate(requests.iter().copied(), threads);
        timer.stop();
        outcomes
            .into_iter()
            .map(|outcome| self.lifecycle.within_horizon(outcome))
            .collect()
    }

    /// [`Self::quote_batch`] for outcomes already negotiated against the
    /// **current** book snapshot (a [`Self::probe_outcomes`] result with
    /// no book mutation in between): journals each submission, runs the
    /// same sampled batched-vs-serial parity check, and records each
    /// decision — without re-running negotiation. `None` outcomes are
    /// recorded as rejections.
    ///
    /// # Panics
    ///
    /// When `outcomes` does not hold one outcome per request.
    pub fn quote_batch_precomputed(
        &mut self,
        requests: &[(JobId, AdmissionRequest)],
        outcomes: Vec<Option<NegotiationOutcome>>,
        threads: usize,
    ) -> Vec<QuoteDecision> {
        self.admit(requests, outcomes, threads)
    }

    /// Books `partition` for `window` directly, bypassing negotiation,
    /// journaling and the job lifecycle. This is the reserve half of the
    /// two-phase cross-shard admission step: a wide job's coordinator
    /// reserves one slice per shard and journals the single lifecycle
    /// itself. Returns `None` when the slice conflicts with an existing
    /// commitment (the coordinator then releases the slices it already
    /// took and expires the quote).
    pub fn reserve_slice(
        &mut self,
        id: JobId,
        partition: Partition,
        window: TimeWindow,
    ) -> Option<ReservationId> {
        self.book.add(id, partition, window).ok()
    }

    /// Releases a slice taken by [`NegotiationSession::reserve_slice`].
    pub fn release_slice(&mut self, reservation: ReservationId) {
        self.book.remove(reservation);
    }

    /// Commits a held quote: journals the accepted quote and placement and
    /// books the reservation. The job will start and complete as virtual
    /// time passes the committed instants.
    ///
    /// # Errors
    ///
    /// [`AcceptError::UnknownQuote`] when no quote is held for `id`;
    /// [`AcceptError::QuoteExpired`] when the slot has been taken by a
    /// competing commitment or the promise is already in the past (the
    /// held quote is dropped — negotiate again).
    pub fn accept(&mut self, id: JobId) -> Result<HeldQuote, AcceptError> {
        let book = &mut self.book;
        self.lifecycle.accept(id, |held, window| {
            book.add(id, held.quote.partition.clone(), window).ok()
        })
    }

    /// Withdraws a job: drops a held quote, or releases an accepted
    /// reservation whose start has not been reached. Journals the
    /// cancellation.
    ///
    /// # Errors
    ///
    /// [`CancelError::UnknownJob`] for ids this session never quoted (or
    /// already cancelled); [`CancelError::AlreadyStarted`] once the job is
    /// running or done.
    pub fn cancel(&mut self, id: JobId) -> Result<(), CancelError> {
        let book = &mut self.book;
        self.lifecycle.cancel(id, |reservation| {
            book.remove(reservation);
        })
    }

    /// A point-in-time snapshot for status reporting.
    pub fn status(&self) -> SessionStatus {
        let now = self.now();
        SessionStatus {
            now,
            cluster_size: self.book.cluster_size(),
            occupied_nodes: self.book.occupied_at(now),
            reservations: self.book.len(),
            stats: SessionStats {
                parity_checked: self.parity_checked,
                parity_violations: self.parity_violations,
                ..self.lifecycle.stats()
            },
            promises: self.promise_stats(),
            parity_sample: self.parity_sample,
        }
    }

    /// Live promise-calibration counters (see [`PromiseStats`]). The
    /// service exports these as `pqos_promise_*` gauges on `/metrics`.
    pub fn promise_stats(&self) -> PromiseStats {
        self.lifecycle.promise_stats()
    }

    /// Cumulative quote-cache counters (hits, misses, invalidations, and
    /// the retired `profile_rebuilds`, constant 0). The service exports
    /// these as `pqos_quote_cache_*` gauges on `/metrics`.
    pub fn quote_cache_stats(&self) -> QuoteCacheStats {
        self.book.stats()
    }

    /// Flushes the telemetry journal through to its sinks.
    pub fn flush(&self) {
        self.telemetry().flush();
    }

    /// The one negotiation call: `requests` against this session's book
    /// as of now, unfiltered by the quote horizon.
    fn negotiate(
        &self,
        requests: impl Iterator<Item = AdmissionRequest>,
        threads: usize,
    ) -> Vec<Option<NegotiationOutcome>> {
        self.lifecycle
            .negotiate(&self.book, &self.config, &self.predictor, requests, threads)
    }

    /// The tail every quoting path shares: the sampled parity re-check of
    /// `outcomes` (a [`Self::probe_outcomes`] result, so the serial
    /// reference goes through the same quote-horizon filter before
    /// comparing — a quote the horizon rejects on both sides counts as
    /// agreement), then the lifecycle journals the submissions and
    /// records the decisions.
    fn admit(
        &mut self,
        requests: &[(JobId, AdmissionRequest)],
        outcomes: Vec<Option<NegotiationOutcome>>,
        threads: usize,
    ) -> Vec<QuoteDecision> {
        if self.verify_parity && self.batch_seq.is_multiple_of(self.parity_sample) {
            let parity_timer = self
                .telemetry()
                .histogram("session.parity_ns")
                .start_timer();
            // Recompute with different chunk boundaries so a chunking or
            // order-dependence bug cannot agree with itself; every
            // underlying call is still the plain serial `negotiate` over
            // the same book.
            let reference = self.negotiate(
                requests.iter().map(|&(_, req)| req),
                threads.saturating_add(1),
            );
            for (serial, fast) in reference.into_iter().zip(&outcomes) {
                self.parity_checked += 1;
                if self.lifecycle.within_horizon(serial) != *fast {
                    self.parity_violations += 1;
                }
            }
            parity_timer.stop();
        }
        self.batch_seq = self.batch_seq.wrapping_add(1);
        self.lifecycle.admit(&self.config, requests, outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_predict::api::NullPredictor;
    use pqos_telemetry::{PromiseVerdict, TelemetryEvent};

    fn session(nodes: u32) -> NegotiationSession<NullPredictor> {
        NegotiationSession::new(
            SimConfig::paper_defaults().cluster_size_nodes(nodes),
            NullPredictor,
            Telemetry::disabled(),
        )
    }

    fn req(size: u32, runtime: u64) -> AdmissionRequest {
        AdmissionRequest {
            size,
            runtime: SimDuration::from_secs(runtime),
        }
    }

    fn quote_one(
        s: &mut NegotiationSession<NullPredictor>,
        id: u64,
        size: u32,
        runtime: u64,
    ) -> QuoteDecision {
        s.quote_batch(&[(JobId::new(id), req(size, runtime))], 1)
            .pop()
            .unwrap()
    }

    #[test]
    fn quote_accept_run_complete() {
        let mut s = session(8);
        let QuoteDecision::Quoted(held) = quote_one(&mut s, 1, 4, 3600) else {
            panic!("expected a quote");
        };
        assert_eq!(held.quote.start, SimTime::ZERO);
        s.accept(JobId::new(1)).unwrap();
        assert_eq!(s.status().reservations, 1);
        assert_eq!(s.status().occupied_nodes, 4);
        s.advance_to(held.quote.deadline);
        let stats = s.status().stats;
        assert_eq!(stats.started, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(s.status().reservations, 0);
    }

    #[test]
    fn oversized_jobs_are_rejected() {
        let mut s = session(4);
        assert_eq!(quote_one(&mut s, 1, 5, 100), QuoteDecision::Rejected);
        assert_eq!(s.status().stats.rejected, 1);
    }

    #[test]
    fn competing_accept_expires_the_loser() {
        let mut s = session(4);
        // Both quotes target the same 4-node slot at t=0.
        let d1 = quote_one(&mut s, 1, 4, 3600);
        let d2 = quote_one(&mut s, 2, 4, 3600);
        assert!(matches!(d1, QuoteDecision::Quoted(_)));
        assert!(matches!(d2, QuoteDecision::Quoted(_)));
        s.accept(JobId::new(1)).unwrap();
        assert_eq!(s.accept(JobId::new(2)), Err(AcceptError::QuoteExpired));
        assert_eq!(s.status().stats.expired, 1);
        assert_eq!(s.live_jobs(), 1, "the expired quote is no longer live");
        // The loser renegotiates and lands behind the winner.
        let QuoteDecision::Quoted(held) = quote_one(&mut s, 2, 4, 3600) else {
            panic!("renegotiation must quote");
        };
        assert!(held.quote.start > SimTime::ZERO);
        s.accept(JobId::new(2)).unwrap();
    }

    #[test]
    fn cancel_releases_the_reservation() {
        let mut s = session(4);
        quote_one(&mut s, 1, 4, 3600);
        s.accept(JobId::new(1)).unwrap();
        assert_eq!(s.status().reservations, 1);
        s.cancel(JobId::new(1)).unwrap();
        assert_eq!(s.status().reservations, 0);
        // The freed slot is immediately quotable at t=0 again.
        let QuoteDecision::Quoted(held) = quote_one(&mut s, 2, 4, 3600) else {
            panic!("slot must be free again");
        };
        assert_eq!(held.quote.start, SimTime::ZERO);
        // A cancelled job cannot be cancelled or accepted again.
        assert_eq!(s.cancel(JobId::new(1)), Err(CancelError::UnknownJob));
        assert_eq!(s.accept(JobId::new(1)), Err(AcceptError::UnknownQuote));
    }

    #[test]
    fn same_tick_cancel_and_requote_sees_the_pre_cancel_book() {
        // The service engine coalesces every negotiate in a tick into one
        // `quote_batch` (pass 1) and applies mutations (pass 2) afterwards,
        // even when a cancel arrived first on the wire. A re-negotiate that
        // shares a tick with a cancel of the capacity it wants is therefore
        // quoted against the pre-cancel snapshot: a later (pessimistic)
        // start, never a stale hole. The quote must still be honorable at
        // accept time, after the cancel has been applied.
        let mut s = session(4);
        // C pins the cluster from t=0 so A can be accepted without running.
        quote_one(&mut s, 1, 4, 3600);
        s.accept(JobId::new(1)).unwrap();
        let QuoteDecision::Quoted(held_a) = quote_one(&mut s, 2, 4, 3600) else {
            panic!("A must be quotable behind C");
        };
        let a_start = held_a.quote.start;
        s.accept(JobId::new(2)).unwrap();

        // --- one engine tick: pass 1 quotes B, pass 2 cancels A ---
        let QuoteDecision::Quoted(held_b) = quote_one(&mut s, 3, 4, 3600) else {
            panic!("B must be quotable behind C and A");
        };
        s.cancel(JobId::new(2)).unwrap();
        // B was quoted with A still booked: strictly after A's start,
        // i.e. pessimistic, not against a hole that no longer existed.
        assert!(held_b.quote.start > a_start);
        // --- next tick: the client accepts the stale-snapshot quote ---
        let accepted = s
            .accept(JobId::new(3))
            .expect("pessimistic quote stays honorable");
        assert_eq!(accepted.quote.start, held_b.quote.start);
        assert_eq!(s.status().reservations, 2);

        // The cancel did land: a fresh negotiate now reuses A's old hole.
        let QuoteDecision::Quoted(held_d) = quote_one(&mut s, 4, 4, 3600) else {
            panic!("A's hole must be quotable after the cancel");
        };
        assert_eq!(held_d.quote.start, a_start);
    }

    #[test]
    fn quote_horizon_bounds_the_backlog() {
        let mut s = session(4).quote_horizon(SimDuration::from_secs(4000));
        // First job fills the whole cluster for ~1h (plus checkpoints).
        let QuoteDecision::Quoted(_) = quote_one(&mut s, 1, 4, 3600) else {
            panic!();
        };
        s.accept(JobId::new(1)).unwrap();
        // The next same-size job would start after the first finishes,
        // still inside the horizon.
        let QuoteDecision::Quoted(held) = quote_one(&mut s, 2, 4, 3600) else {
            panic!("within horizon");
        };
        assert!(held.quote.start.as_secs() <= 4000);
        s.accept(JobId::new(2)).unwrap();
        // A third stacks past the horizon and is refused.
        assert_eq!(quote_one(&mut s, 3, 4, 3600), QuoteDecision::Rejected);
        assert_eq!(s.status().stats.rejected, 1);
        assert_eq!(s.status().reservations, 2);
    }

    #[test]
    fn cannot_cancel_a_running_job() {
        let mut s = session(4);
        let QuoteDecision::Quoted(held) = quote_one(&mut s, 1, 4, 3600) else {
            panic!();
        };
        s.accept(JobId::new(1)).unwrap();
        s.advance_to(held.quote.start + SimDuration::from_secs(1));
        assert_eq!(s.cancel(JobId::new(1)), Err(CancelError::AlreadyStarted));
    }

    #[test]
    fn unaccepted_quotes_expire_once_time_passes_the_promise() {
        let mut s = session(4);
        let QuoteDecision::Quoted(held) = quote_one(&mut s, 1, 4, 600) else {
            panic!();
        };
        s.advance_to(held.quote.deadline + SimDuration::from_secs(1));
        assert_eq!(s.live_jobs(), 1, "a held quote is live until it is refused");
        assert_eq!(s.accept(JobId::new(1)), Err(AcceptError::QuoteExpired));
        assert_eq!(s.live_jobs(), 0);
    }

    #[test]
    fn late_accept_still_completes_at_the_promise() {
        let mut s = session(4);
        let QuoteDecision::Quoted(held) = quote_one(&mut s, 1, 4, 3600) else {
            panic!();
        };
        // Time advances past the quoted start but not the promise.
        s.advance_to(SimTime::from_secs(100));
        s.accept(JobId::new(1)).unwrap();
        s.advance_to(held.quote.deadline);
        let stats = s.status().stats;
        assert_eq!((stats.started, stats.completed), (1, 1));
    }

    #[test]
    fn session_journal_passes_the_doctor_shape_checks() {
        // The obs crate (which owns the doctor) depends on telemetry only,
        // so this asserts the journal's raw shape instead: monotone time
        // and the exact lifecycle sequence per job.
        let telemetry = Telemetry::builder().ring_buffer(1024).build();
        let mut s = NegotiationSession::new(
            SimConfig::paper_defaults().cluster_size_nodes(8),
            NullPredictor,
            telemetry.clone(),
        );
        s.quote_batch(
            &[
                (JobId::new(1), req(4, 3600)),
                (JobId::new(2), req(4, 1800)),
                (JobId::new(3), req(2, 600)),
            ],
            2,
        );
        s.accept(JobId::new(1)).unwrap();
        // Jobs 1 and 2 were quoted against the same snapshot and collide;
        // the protocol's answer is to renegotiate after the expiry.
        assert_eq!(s.accept(JobId::new(2)), Err(AcceptError::QuoteExpired));
        s.quote_batch(&[(JobId::new(2), req(4, 1800))], 1);
        s.accept(JobId::new(2)).unwrap();
        s.cancel(JobId::new(3)).unwrap();
        s.advance_to(SimTime::from_secs(100_000));
        let events = telemetry.ring_events();
        let mut last = SimTime::ZERO;
        for e in &events {
            assert!(e.at() >= last, "journal time ran backwards");
            last = e.at();
        }
        let names: Vec<&str> = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TelemetryEvent::JobSubmitted { job: 1, .. }
                        | TelemetryEvent::QuoteNegotiated { job: 1, .. }
                        | TelemetryEvent::JobPlaced { job: 1, .. }
                        | TelemetryEvent::JobStarted { job: 1, .. }
                        | TelemetryEvent::JobCompleted { job: 1, .. }
                )
            })
            .map(TelemetryEvent::name)
            .collect();
        assert_eq!(
            names,
            [
                "job_submitted",
                "quote_negotiated",
                "job_placed",
                "job_started",
                "job_completed"
            ]
        );
        let stats = s.status().stats;
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn live_jobs_and_stage_histograms_track_activity() {
        let telemetry = Telemetry::builder().ring_buffer(64).build();
        let mut s = NegotiationSession::new(
            SimConfig::paper_defaults().cluster_size_nodes(8),
            NullPredictor,
            telemetry,
        )
        .verify_parity(true);
        assert_eq!(s.live_jobs(), 0);
        s.quote_batch(
            &[(JobId::new(1), req(4, 3600)), (JobId::new(2), req(2, 600))],
            1,
        );
        assert_eq!(s.live_jobs(), 2, "held quotes are live");
        s.quote_batch(&[(JobId::new(2), req(2, 900))], 1);
        assert_eq!(s.live_jobs(), 2, "a re-quote replaces, it does not add");
        s.accept(JobId::new(1)).unwrap();
        s.cancel(JobId::new(2)).unwrap();
        assert_eq!(s.live_jobs(), 1, "cancellation retires a job");
        s.advance_to(SimTime::from_secs(1_000_000));
        assert_eq!(s.live_jobs(), 0, "completed jobs are no longer live");
        let snap = s.telemetry().snapshot().unwrap();
        assert!(snap.histogram("session.negotiate_ns").unwrap().count >= 1);
        assert!(snap.histogram("session.parity_ns").unwrap().count >= 1);
    }

    #[test]
    fn promises_resolve_with_the_terminal_event() {
        let telemetry = Telemetry::builder().ring_buffer(256).build();
        let mut s = NegotiationSession::new(
            SimConfig::paper_defaults().cluster_size_nodes(8),
            NullPredictor,
            telemetry.clone(),
        );
        s.quote_batch(&[(JobId::new(1), req(4, 3600))], 1);
        s.accept(JobId::new(1)).unwrap();
        // A fresh snapshot so job 2's quote cannot collide with job 1.
        s.quote_batch(
            &[(JobId::new(2), req(2, 600)), (JobId::new(3), req(2, 600))],
            1,
        );
        s.accept(JobId::new(2)).unwrap();
        // Job 3's quote is never accepted: no promise, no resolution.
        s.cancel(JobId::new(3)).unwrap();
        s.cancel(JobId::new(2)).unwrap();
        s.advance_to(SimTime::from_secs(100_000));
        let resolved: Vec<(u64, PromiseVerdict)> = telemetry
            .ring_events()
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::PromiseResolved { job, verdict, .. } => Some((*job, *verdict)),
                _ => None,
            })
            .collect();
        assert_eq!(
            resolved,
            [(2, PromiseVerdict::Cancelled), (1, PromiseVerdict::Kept)]
        );
        let promises = s.status().promises;
        assert_eq!(promises.made, 2);
        assert_eq!(promises.kept, 1);
        assert_eq!(promises.broken, 0);
        assert_eq!(promises.cancelled, 1);
        // One bin, all kept at quoted p=1.0: residual is exactly zero.
        assert_eq!(promises.worst_residual_milli, 0);
    }

    #[test]
    fn promise_bins_tile_the_unit_interval() {
        assert_eq!(promise_bin(0.0), 0);
        assert_eq!(promise_bin(0.0999), 0);
        assert_eq!(promise_bin(0.1), 1);
        assert_eq!(promise_bin(0.95), 9);
        assert_eq!(promise_bin(1.0), 9);
        assert_eq!(promise_bin(f64::NAN), 0);
    }

    #[test]
    fn probe_outcomes_predict_quotes_without_side_effects() {
        let mut s = session(8);
        quote_one(&mut s, 1, 8, 3600);
        s.accept(JobId::new(1)).unwrap();
        let before = s.status();
        let reqs = [req(4, 1800), req(9, 100)];
        let probed: Vec<Option<SimTime>> = s
            .probe_outcomes(&reqs, 1)
            .into_iter()
            .map(|o| o.map(|o| o.accepted.start))
            .collect();
        // Probing moved nothing: same stats, same live jobs, same book.
        assert_eq!(s.status(), before);
        assert_eq!(s.live_jobs(), 1);
        assert_eq!(probed[1], None, "oversized probe rejects");
        // The probe's answer is exactly what quote_batch then quotes.
        let QuoteDecision::Quoted(held) = quote_one(&mut s, 2, 4, 1800) else {
            panic!("probed request must quote");
        };
        assert_eq!(probed[0], Some(held.quote.start));
    }

    #[test]
    fn probe_outcomes_honor_the_quote_horizon() {
        let mut s = session(4).quote_horizon(SimDuration::from_secs(4000));
        quote_one(&mut s, 1, 4, 3600);
        s.accept(JobId::new(1)).unwrap();
        quote_one(&mut s, 2, 4, 3600);
        s.accept(JobId::new(2)).unwrap();
        // A third full-width job would start past the horizon.
        assert_eq!(s.probe_outcomes(&[req(4, 3600)], 1), vec![None]);
    }

    #[test]
    fn reserved_slices_shape_quotes_and_release_cleanly() {
        let mut s = session(4);
        let window = TimeWindow::new(SimTime::ZERO, SimTime::from_secs(5000));
        let slice = s
            .reserve_slice(JobId::new(99), Partition::contiguous(0, 4), window)
            .expect("empty book takes the slice");
        // The slice is invisible to the job lifecycle but visible to
        // quoting: a new job lands after it.
        assert_eq!(s.live_jobs(), 0);
        let QuoteDecision::Quoted(held) = quote_one(&mut s, 1, 4, 600) else {
            panic!();
        };
        assert_eq!(held.quote.start, SimTime::from_secs(5000));
        // A conflicting slice is refused; releasing frees the window.
        assert!(s
            .reserve_slice(JobId::new(98), Partition::contiguous(0, 1), window)
            .is_none());
        s.release_slice(slice);
        let QuoteDecision::Quoted(held) = quote_one(&mut s, 2, 4, 600) else {
            panic!();
        };
        assert_eq!(held.quote.start, SimTime::ZERO);
    }

    #[test]
    fn node_base_offsets_journaled_placements_only() {
        let telemetry = Telemetry::builder().ring_buffer(64).build();
        let mut s = NegotiationSession::new(
            SimConfig::paper_defaults().cluster_size_nodes(4),
            NullPredictor,
            telemetry.clone(),
        )
        .node_base(100);
        s.quote_batch(&[(JobId::new(1), req(2, 600))], 1);
        s.accept(JobId::new(1)).unwrap();
        let nodes: Vec<u64> = telemetry
            .ring_events()
            .iter()
            .find_map(|e| match e {
                TelemetryEvent::JobPlaced { nodes, .. } => Some(nodes.clone()),
                _ => None,
            })
            .expect("placement journaled");
        assert_eq!(nodes, [100, 101]);
        // The book itself still works in local indices.
        assert_eq!(s.status().occupied_nodes, 2);
    }

    #[test]
    fn parity_sampling_checks_every_nth_batch() {
        let mut s = session(16).verify_parity(true).parity_sample(3);
        for round in 0..7u64 {
            s.quote_batch(&[(JobId::new(round), req(1, 600))], 1);
        }
        // Batches 0, 3 and 6 were re-checked, one request each.
        let stats = s.status().stats;
        assert_eq!(stats.parity_checked, 3);
        assert_eq!(stats.parity_violations, 0);
        assert_eq!(s.status().parity_sample, 3);
    }

    #[test]
    fn parity_self_check_stays_clean() {
        let mut s = session(16).verify_parity(true);
        for round in 0..5u64 {
            let batch: Vec<(JobId, AdmissionRequest)> = (0..4)
                .map(|k| (JobId::new(round * 4 + k), req(1 << (k % 3), 1200)))
                .collect();
            for (id, _) in s
                .quote_batch(&batch, 4)
                .iter()
                .zip(&batch)
                .filter(|(d, _)| matches!(d, QuoteDecision::Quoted(_)))
                .map(|(_, r)| r)
            {
                s.accept(*id).ok();
            }
            s.advance_to(s.now() + SimDuration::from_secs(600));
        }
        let stats = s.status().stats;
        assert_eq!(stats.parity_checked, 20);
        assert_eq!(stats.parity_violations, 0);
    }
}
