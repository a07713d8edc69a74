//! Deadline negotiation: the paper's "unique dialog between the system and
//! the user" (§3.5).
//!
//! For a job of a given size and (checkpointed) duration, the system quotes
//! successive `(deadline, probability-of-success)` pairs in increasing
//! deadline order; the simulated user accepts the earliest quote whose
//! promised success probability meets their risk threshold `U` (Eq. 3), and
//! otherwise takes the earliest quote within a small tolerance of the best
//! promise seen — "a deadline may be pushed arbitrarily far into the
//! future, but no further than necessary".
//!
//! Candidate deadlines come from the reservation book's placement slots,
//! pulled from the book's walk one at a time
//! ([`AvailabilityView::visit_slots`]): the dialog is lazy, so the walk is,
//! and nothing is computed past the slot the user takes. When the book runs
//! out (the machine is idle past its last commitment) the search keeps
//! probing forward in fixed steps, because an idle machine can still carry
//! predicted failures worth dodging.

use crate::user::UserStrategy;
use pqos_cluster::node::NodeId;
use pqos_cluster::partition::Partition;
use pqos_cluster::topology::Topology;
use pqos_predict::api::Predictor;
use pqos_sched::place::{choose_partition_with_telemetry, PlacementStrategy};
use pqos_sched::reservation::AvailabilityView;
use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
use pqos_telemetry::Telemetry;
use std::fmt;
use std::ops::ControlFlow;

/// One quoted offer: start the job at `start` on `partition`, finishing by
/// `deadline`, with the given predicted failure probability.
#[derive(Debug, Clone, PartialEq)]
pub struct Quote {
    /// Proposed start time.
    pub start: SimTime,
    /// Proposed deadline (`start` plus the checkpointed execution time).
    pub deadline: SimTime,
    /// Proposed partition.
    pub partition: Partition,
    /// Predicted probability the partition fails during the run (`pf`).
    pub failure_probability: f64,
}

impl Quote {
    /// The promised probability of success, `pj = 1 − pf`.
    pub fn promised_success(&self) -> f64 {
        1.0 - self.failure_probability
    }
}

impl fmt::Display for Quote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "start {} deadline {} p={:.3}",
            self.start,
            self.deadline,
            self.promised_success()
        )
    }
}

/// Result of a negotiation.
#[derive(Debug, Clone, PartialEq)]
pub struct NegotiationOutcome {
    /// The accepted quote.
    pub accepted: Quote,
    /// How many quotes were examined (≥ 1).
    pub quotes_examined: usize,
    /// Whether the accepted quote met the user's threshold (`false` means
    /// the user took the best available after exhausting the search).
    pub satisfied_threshold: bool,
}

/// Negotiation inputs that do not vary per quote.
#[derive(Debug, Clone, Copy)]
pub struct NegotiationRequest<'a> {
    /// Job size in nodes.
    pub size: u32,
    /// Checkpointed execution time `Ej` used for the reservation length.
    pub duration: SimDuration,
    /// Current simulation time (quotes start at or after this).
    pub now: SimTime,
    /// Nodes currently down.
    pub down: &'a [NodeId],
    /// Instant by which every down node has recovered; used to retry when
    /// exclusions make the job temporarily unplaceable.
    pub recovery_horizon: SimTime,
    /// How far before a candidate start a failure still threatens the
    /// deadline: a node that fails within this span of the start is mid-
    /// restart at the start instant, delaying the job. Set to the node
    /// downtime; the quoted `pf` window is extended backwards by this much.
    pub pre_start_risk: SimDuration,
}

/// Runs the negotiation.
///
/// Returns `None` only when the job can never fit (`size` exceeds the
/// cluster size).
///
/// # Examples
///
/// ```
/// use pqos_cluster::topology::Topology;
/// use pqos_core::negotiate::{negotiate, NegotiationRequest};
/// use pqos_core::user::UserStrategy;
/// use pqos_predict::api::NullPredictor;
/// use pqos_sched::place::PlacementStrategy;
/// use pqos_sched::reservation::ReservationBook;
/// use pqos_sim_core::time::{SimDuration, SimTime};
///
/// let book = ReservationBook::new(16);
/// let outcome = negotiate(
///     &book,
///     Topology::Flat,
///     PlacementStrategy::MinFailureProbability,
///     &NullPredictor,
///     NegotiationRequest {
///         size: 4,
///         duration: SimDuration::from_secs(100),
///         now: SimTime::ZERO,
///         down: &[],
///         recovery_horizon: SimTime::ZERO,
///         pre_start_risk: SimDuration::from_secs(120),
///     },
///     &UserStrategy::AlwaysEarliest,
///     8,
///     8,
/// )
/// .unwrap();
/// assert_eq!(outcome.accepted.start, SimTime::ZERO);
/// assert_eq!(outcome.accepted.deadline, SimTime::from_secs(100));
/// assert!(outcome.satisfied_threshold);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn negotiate<B: AvailabilityView, P: Predictor>(
    book: &B,
    topology: Topology,
    placement: PlacementStrategy,
    predictor: &P,
    request: NegotiationRequest<'_>,
    user: &UserStrategy,
    max_slots: usize,
    max_probe_steps: usize,
) -> Option<NegotiationOutcome> {
    negotiate_with_telemetry(
        book,
        topology,
        placement,
        predictor,
        request,
        user,
        max_slots,
        max_probe_steps,
        &Telemetry::disabled(),
    )
}

/// [`negotiate`] with every placement decision recorded into `telemetry`'s
/// metrics registry (`sched.*` — see
/// [`choose_partition_with_telemetry`]). The outcome is identical.
#[allow(clippy::too_many_arguments)]
pub fn negotiate_with_telemetry<B: AvailabilityView, P: Predictor>(
    book: &B,
    topology: Topology,
    placement: PlacementStrategy,
    predictor: &P,
    request: NegotiationRequest<'_>,
    user: &UserStrategy,
    max_slots: usize,
    max_probe_steps: usize,
    telemetry: &Telemetry,
) -> Option<NegotiationOutcome> {
    if request.size == 0 || request.size > book.cluster_size() {
        return None;
    }
    let max_slots = max_slots.max(1);

    // When no quote satisfies the user, the fallback is the *earliest*
    // quote whose promise is within this tolerance of the best promise
    // seen — extending a deadline for a marginal probability gain is not
    // "necessary" in the Eq. 3 sense. Without the tolerance, a predictor
    // with small per-partition variations (e.g. a rate model) would push
    // jobs arbitrarily far into the future chasing 0.1% improvements.
    const PROMISE_TOLERANCE: f64 = 0.01;

    // Every quote the user has turned down so far, in increasing-start
    // order; the quotes examined are these plus the one taken, if any.
    let mut rejected: Vec<Quote> = Vec::new();
    // One turn of the dialog: place the job on `free` at `start`, quote it
    // and hear the user out. `Some` ends the negotiation; a start the
    // topology cannot place the job on is not quoted at all.
    let offer = |rejected: &mut Vec<Quote>, start: SimTime, free: &[NodeId]| {
        let window = TimeWindow::starting_at(start, request.duration);
        if window.length() < request.duration {
            // Cut short by the end of time (only a duration near `u64::MAX`
            // gets there): not a reservation the job fits in.
            return None;
        }
        let choice = choose_partition_with_telemetry(
            topology,
            free,
            request.size,
            TimeWindow::new(start.saturating_sub(request.pre_start_risk), window.end()),
            predictor,
            placement,
            telemetry,
        )?;
        let quote = Quote {
            start,
            deadline: window.end(),
            partition: choice.partition,
            failure_probability: choice.failure_probability,
        };
        if user.accepts(quote.promised_success()) {
            return Some(NegotiationOutcome {
                accepted: quote,
                quotes_examined: rejected.len() + 1,
                satisfied_threshold: true,
            });
        }
        rejected.push(quote);
        None
    };

    // The book's slots, pulled one at a time — the walk computes nothing
    // past the slot the user takes — in up to three passes that share one
    // budget of `max_slots` slots offered, placeable or not.
    //
    // Down nodes are excluded only from candidate windows that *begin
    // before* `recovery_horizon` — by the horizon they are back (the probe
    // loop below applies the same boundary). A single excluded pass would
    // treat a window starting at or exactly on the horizon as if the
    // recovered nodes were still gone, skipping perfectly usable holes: so
    // the excluded pass stops at the horizon and an unexcluded one from
    // there spends what is left of the budget.
    let horizon = request.recovery_horizon;
    let split = !request.down.is_empty() && horizon > request.now;
    let mut offered = 0usize;
    let mut probe_base = request.now;
    for pass in 0..3 {
        let (from, exclude, until) = match pass {
            0 => (request.now, request.down, split.then_some(horizon)),
            1 if split && offered < max_slots => (horizon, &[][..], None),
            // Down nodes blocked every slot; by the recovery horizon they
            // are back. The machine past its last commitment is otherwise
            // free.
            2 if offered == 0 => (horizon.max(request.now), &[][..], None),
            _ => continue,
        };
        let mut taken = None;
        let mut visit = |start: SimTime, free: &[NodeId]| {
            if until.is_some_and(|until| start >= until) {
                return ControlFlow::Break(());
            }
            offered += 1;
            probe_base = start;
            taken = offer(&mut rejected, start, free);
            if taken.is_some() || offered >= max_slots {
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        };
        let (size, duration) = (request.size, request.duration);
        book.visit_slots(size, duration, from, exclude, max_slots, &mut visit);
        if taken.is_some() {
            return taken;
        }
    }

    // Probe past the book: step the start forward by the job duration from
    // the latest slot offered (or from `now` if the book had none).
    let step = request.duration.max(SimDuration::from_secs(1));
    for k in 1..=max_probe_steps {
        let start = probe_base.saturating_add(step.saturating_mul(k as u64));
        // Down nodes are back up by the recovery horizon, so only probe
        // windows that begin before it need the exclusion; keeping it for
        // later windows makes quotes needlessly pessimistic and can leave
        // every probe unplaceable on a small cluster.
        let exclude: &[NodeId] = if start < horizon { request.down } else { &[] };
        let window = TimeWindow::starting_at(start, request.duration);
        let taken = offer(
            &mut rejected,
            start,
            &book.free_nodes_during(window, exclude),
        );
        if taken.is_some() {
            return taken;
        }
    }

    // Guaranteed fallback: at the end of the book (past every commitment
    // and past the recovery horizon) the machine is idle and fully up, so
    // any job that fits the cluster places — even under contiguous-only
    // topologies where fragmented slots and probes can all fail.
    if rejected.is_empty() {
        let book_end = book.change_points(request.now).last().copied();
        let start = book_end
            .unwrap_or(request.now)
            .max(horizon)
            .max(request.now);
        let window = TimeWindow::starting_at(start, request.duration);
        let taken = offer(&mut rejected, start, &book.free_nodes_during(window, &[]));
        if taken.is_some() {
            return taken;
        }
    }

    let best_promise = rejected
        .iter()
        .map(Quote::promised_success)
        .fold(f64::NEG_INFINITY, f64::max);
    let quotes_examined = rejected.len();
    // Quotes were pushed in increasing-start order, so the first within
    // tolerance is the earliest acceptable compromise. None at all: even
    // the idle machine could not place the job.
    let chosen = rejected
        .into_iter()
        .find(|q| q.promised_success() >= best_promise - PROMISE_TOLERANCE)?;
    Some(NegotiationOutcome {
        accepted: chosen,
        quotes_examined,
        satisfied_threshold: false,
    })
}

/// Fewest requests a fan-out worker must be handed to repay its spawn.
///
/// Measured on the ledger's host (one pinned CPU): a
/// `std::thread::scope` costs 17.5 us per spawned worker (17.9 / 34.8 /
/// 77.0 us for 1 / 2 / 4 workers, issued serially by the calling thread)
/// against 2.2-2.6 us for a memo-hit quote, so two workers cannot win below
/// about 32 requests a batch — and the served `serve_reject` batches average
/// 5. A multi-CPU ledger lane should re-derive this number.
const MIN_QUOTES_PER_WORKER: usize = 16;

/// How many workers [`negotiate_batch`] hands a batch of `len` requests
/// when allowed at most `threads`: never so many that one gets fewer than
/// [`MIN_QUOTES_PER_WORKER`]. Below two the batch is quoted inline.
fn batch_workers(len: usize, threads: usize) -> usize {
    threads.min(len / MIN_QUOTES_PER_WORKER)
}

/// Runs many independent negotiations against one shared availability
/// snapshot, fanning out across at most `threads` OS threads.
///
/// Quoting never mutates the book, so every request sees the identical
/// snapshot and the result is *defined* to equal calling [`negotiate`]
/// serially on each request in order — the parity the online service's
/// batched admission pipeline depends on (asserted by randomized
/// interleaving tests in `tests/properties.rs`). The fan-out only changes
/// wall-clock time: requests are split into contiguous chunks, one chunk
/// per worker, and results land in request order.
///
/// `threads == 0` or `1`, or a batch too small to give two workers
/// `MIN_QUOTES_PER_WORKER` requests each, is quoted inline by the serial
/// loop: spawning costs more than such a batch's quotes.
#[allow(clippy::too_many_arguments)]
pub fn negotiate_batch<B, P>(
    book: &B,
    topology: Topology,
    placement: PlacementStrategy,
    predictor: &P,
    requests: &[NegotiationRequest<'_>],
    user: &UserStrategy,
    max_slots: usize,
    max_probe_steps: usize,
    threads: usize,
) -> Vec<Option<NegotiationOutcome>>
where
    B: AvailabilityView + Sync,
    P: Predictor + Sync,
{
    let serial = |reqs: &[NegotiationRequest<'_>]| -> Vec<Option<NegotiationOutcome>> {
        reqs.iter()
            .map(|req| {
                negotiate(
                    book,
                    topology,
                    placement,
                    predictor,
                    *req,
                    user,
                    max_slots,
                    max_probe_steps,
                )
            })
            .collect()
    };
    let workers = batch_workers(requests.len(), threads);
    if workers <= 1 {
        return serial(requests);
    }
    let chunk = requests.len().div_ceil(workers);
    let mut results: Vec<Vec<Option<NegotiationOutcome>>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(chunk)
            .map(|reqs| scope.spawn(move || serial(reqs)))
            .collect();
        for handle in handles {
            results.push(handle.join().expect("negotiation worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_failures::trace::{Failure, FailureTrace};
    use pqos_predict::api::NullPredictor;
    use pqos_predict::oracle::TraceOracle;
    use pqos_sched::reservation::ReservationBook;
    use pqos_sim_core::rng::DetRng;
    use pqos_workload::job::JobId;
    use std::cell::RefCell;
    use std::sync::Arc;

    fn oracle(failures: &[(u64, u32, f64)], a: f64) -> TraceOracle {
        let trace = FailureTrace::new(
            failures
                .iter()
                .map(|&(t, n, px)| Failure {
                    time: SimTime::from_secs(t),
                    node: NodeId::new(n),
                    detectability: px,
                })
                .collect(),
        )
        .unwrap();
        TraceOracle::new(Arc::new(trace), a).unwrap()
    }

    fn request(size: u32, duration: u64) -> NegotiationRequest<'static> {
        NegotiationRequest {
            size,
            duration: SimDuration::from_secs(duration),
            now: SimTime::ZERO,
            down: &[],
            recovery_horizon: SimTime::ZERO,
            pre_start_risk: SimDuration::from_secs(120),
        }
    }

    fn run<P: Predictor>(
        book: &ReservationBook,
        predictor: &P,
        req: NegotiationRequest<'_>,
        user: &UserStrategy,
    ) -> Option<NegotiationOutcome> {
        negotiate(
            book,
            Topology::Flat,
            PlacementStrategy::MinFailureProbability,
            predictor,
            req,
            user,
            16,
            16,
        )
    }

    #[test]
    fn earliest_user_takes_first_quote() {
        let book = ReservationBook::new(8);
        let o = run(
            &book,
            &NullPredictor,
            request(4, 100),
            &UserStrategy::AlwaysEarliest,
        )
        .unwrap();
        assert_eq!(o.accepted.start, SimTime::ZERO);
        assert_eq!(o.quotes_examined, 1);
        assert!(o.satisfied_threshold);
    }

    #[test]
    fn oversized_job_is_rejected() {
        let book = ReservationBook::new(8);
        assert!(run(
            &book,
            &NullPredictor,
            request(9, 100),
            &UserStrategy::AlwaysEarliest
        )
        .is_none());
        assert!(run(
            &book,
            &NullPredictor,
            request(0, 100),
            &UserStrategy::AlwaysEarliest
        )
        .is_none());
    }

    #[test]
    fn cautious_user_extends_past_predicted_failure() {
        // All 2 nodes carry a detectable failure at t=50; a cautious user
        // delays until the window clears.
        let o = oracle(&[(50, 0, 0.4), (50, 1, 0.4)], 1.0);
        let book = ReservationBook::new(2);
        let user = UserStrategy::risk_threshold(0.9).unwrap();
        let outcome = run(&book, &o, request(2, 100), &user).unwrap();
        assert!(outcome.satisfied_threshold);
        // The window [start, start+100) must exclude the failure at t=50.
        assert!(outcome.accepted.start > SimTime::from_secs(50));
        assert_eq!(outcome.accepted.failure_probability, 0.0);
        assert!(outcome.quotes_examined > 1);
    }

    #[test]
    fn bold_user_takes_risky_first_slot() {
        let o = oracle(&[(50, 0, 0.4), (50, 1, 0.4)], 1.0);
        let book = ReservationBook::new(2);
        let outcome = run(&book, &o, request(2, 100), &UserStrategy::AlwaysEarliest).unwrap();
        assert_eq!(outcome.accepted.start, SimTime::ZERO);
        assert_eq!(outcome.accepted.failure_probability, 0.4);
        assert!((outcome.accepted.promised_success() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn falls_back_to_best_quote_when_unsatisfiable() {
        // Node 0 (the only node) fails detectably every 10 s forever within
        // the search horizon; U = 1 cannot be met.
        let failures: Vec<(u64, u32, f64)> = (0..100_000)
            .step_by(10)
            .map(|t| (t as u64, 0, 0.5))
            .collect();
        let o = oracle(&failures, 1.0);
        let book = ReservationBook::new(1);
        let user = UserStrategy::risk_threshold(1.0).unwrap();
        let outcome = run(&book, &o, request(1, 100), &user).unwrap();
        assert!(!outcome.satisfied_threshold);
        assert_eq!(outcome.accepted.failure_probability, 0.5);
    }

    #[test]
    fn waits_for_reservations_when_machine_full() {
        let mut book = ReservationBook::new(4);
        book.add(
            JobId::new(1),
            Partition::contiguous(0, 4),
            TimeWindow::new(SimTime::ZERO, SimTime::from_secs(500)),
        )
        .unwrap();
        let o = run(
            &book,
            &NullPredictor,
            request(3, 100),
            &UserStrategy::AlwaysEarliest,
        )
        .unwrap();
        assert_eq!(o.accepted.start, SimTime::from_secs(500));
        assert_eq!(o.accepted.deadline, SimTime::from_secs(600));
    }

    #[test]
    fn down_nodes_trigger_recovery_retry() {
        // 2-node cluster, both down; recovery at t=120.
        let book = ReservationBook::new(2);
        let down = [NodeId::new(0), NodeId::new(1)];
        let req = NegotiationRequest {
            size: 2,
            duration: SimDuration::from_secs(100),
            now: SimTime::ZERO,
            down: &down,
            recovery_horizon: SimTime::from_secs(120),
            pre_start_risk: SimDuration::from_secs(120),
        };
        let o = negotiate(
            &book,
            Topology::Flat,
            PlacementStrategy::MinFailureProbability,
            &NullPredictor,
            req,
            &UserStrategy::AlwaysEarliest,
            4,
            4,
        )
        .unwrap();
        assert_eq!(o.accepted.start, SimTime::from_secs(120));
    }

    #[test]
    fn probe_windows_past_recovery_horizon_include_recovered_nodes() {
        // Both nodes of a 2-node cluster are down until t=120, and a
        // detectable failure at t=150 poisons the first post-recovery
        // window. A cautious user must wait for a later probe window —
        // which only places if probes past the horizon stop excluding the
        // recovered nodes.
        let o = oracle(&[(150, 0, 0.5), (150, 1, 0.5)], 1.0);
        let down = [NodeId::new(0), NodeId::new(1)];
        let req = NegotiationRequest {
            size: 2,
            duration: SimDuration::from_secs(100),
            now: SimTime::ZERO,
            down: &down,
            recovery_horizon: SimTime::from_secs(120),
            pre_start_risk: SimDuration::from_secs(120),
        };
        let book = ReservationBook::new(2);
        let user = UserStrategy::risk_threshold(0.9).unwrap();
        let outcome = negotiate(
            &book,
            Topology::Flat,
            PlacementStrategy::MinFailureProbability,
            &o,
            req,
            &user,
            4,
            8,
        )
        .unwrap();
        // The recovery-retry slot at t=120 still sees the t=150 failure in
        // its risk window [0, 220); the first clean window starts at t=320
        // (risk window [200, 420)), reachable only through the probes.
        assert!(outcome.satisfied_threshold);
        assert_eq!(outcome.accepted.start, SimTime::from_secs(320));
        assert_eq!(outcome.accepted.failure_probability, 0.0);
    }

    #[test]
    fn slot_starting_exactly_at_horizon_uses_recovered_nodes() {
        // Node 0 is down until t=100; nodes 1-2 are booked solid until
        // t=1000. The only early hole is node 0 itself, in a window that
        // begins *exactly at* the recovery horizon — where the node is
        // back. Quoting t=1000 here (as a single excluded slot pass did)
        // is the regression this test pins.
        let mut book = ReservationBook::new(3);
        book.add(
            JobId::new(1),
            Partition::contiguous(1, 2),
            TimeWindow::new(SimTime::ZERO, SimTime::from_secs(1000)),
        )
        .unwrap();
        let down = [NodeId::new(0)];
        let req = NegotiationRequest {
            size: 1,
            duration: SimDuration::from_secs(50),
            now: SimTime::ZERO,
            down: &down,
            recovery_horizon: SimTime::from_secs(100),
            pre_start_risk: SimDuration::from_secs(120),
        };
        let o = run(&book, &NullPredictor, req, &UserStrategy::AlwaysEarliest).unwrap();
        assert_eq!(o.accepted.start, SimTime::from_secs(100));
        assert!(o.accepted.partition.iter().eq([NodeId::new(0)]));
    }

    #[test]
    fn post_horizon_slots_merge_after_pre_horizon_ones() {
        // Node 0 down until t=100. Nodes 1-3 busy until t=100, then 2-3
        // stay busy until t=1000. A 2-node job fits at t=100 on the
        // recovered node 0 plus node 1 — not at t=1000.
        let mut book = ReservationBook::new(4);
        book.add(
            JobId::new(1),
            Partition::contiguous(1, 3),
            TimeWindow::new(SimTime::ZERO, SimTime::from_secs(100)),
        )
        .unwrap();
        book.add(
            JobId::new(2),
            Partition::contiguous(2, 2),
            TimeWindow::new(SimTime::from_secs(100), SimTime::from_secs(1000)),
        )
        .unwrap();
        let down = [NodeId::new(0)];
        let req = NegotiationRequest {
            size: 2,
            duration: SimDuration::from_secs(100),
            now: SimTime::ZERO,
            down: &down,
            recovery_horizon: SimTime::from_secs(100),
            pre_start_risk: SimDuration::from_secs(120),
        };
        let o = run(&book, &NullPredictor, req, &UserStrategy::AlwaysEarliest).unwrap();
        assert_eq!(o.accepted.start, SimTime::from_secs(100));
        assert!(o
            .accepted
            .partition
            .iter()
            .eq([NodeId::new(0), NodeId::new(1)]));
    }

    #[test]
    fn pre_horizon_slots_still_exclude_down_nodes() {
        // A hole at t=50 opens well before the t=1000 horizon: the down
        // node must stay excluded from it even though later windows may
        // use it.
        let mut book = ReservationBook::new(3);
        book.add(
            JobId::new(1),
            Partition::contiguous(1, 2),
            TimeWindow::new(SimTime::ZERO, SimTime::from_secs(50)),
        )
        .unwrap();
        let down = [NodeId::new(0)];
        let req = NegotiationRequest {
            size: 1,
            duration: SimDuration::from_secs(10),
            now: SimTime::ZERO,
            down: &down,
            recovery_horizon: SimTime::from_secs(1000),
            pre_start_risk: SimDuration::from_secs(120),
        };
        let o = run(&book, &NullPredictor, req, &UserStrategy::AlwaysEarliest).unwrap();
        assert_eq!(o.accepted.start, SimTime::from_secs(50));
        assert!(!o.accepted.partition.iter().any(|n| n == NodeId::new(0)));
    }

    #[test]
    fn line_topology_always_places_via_fallback() {
        // Two staggered long reservations fragment the 4-node line machine
        // so no contiguous 3-node run exists in any early slot or probe;
        // the fallback at the end of the book must still place the job.
        let mut book = ReservationBook::new(4);
        book.add(
            JobId::new(1),
            Partition::new([NodeId::new(1)]).unwrap(),
            TimeWindow::new(SimTime::ZERO, SimTime::from_secs(1_000_000)),
        )
        .unwrap();
        let outcome = negotiate(
            &book,
            Topology::Line,
            PlacementStrategy::MinFailureProbability,
            &NullPredictor,
            request(3, 100),
            &UserStrategy::AlwaysEarliest,
            4,
            4,
        )
        .unwrap();
        // Free nodes before t=1e6 are {0, 2, 3}: no contiguous triple.
        assert_eq!(outcome.accepted.start, SimTime::from_secs(1_000_000));
        assert_eq!(outcome.accepted.partition.len(), 3);
    }

    #[test]
    fn fallback_prefers_earliest_among_near_equal_quotes() {
        // Single node, a detectable px=0.5 failure in every examined
        // window: U=1 is unsatisfiable and all promises tie, so the user
        // takes the earliest quote rather than procrastinating.
        let failures: Vec<(u64, u32, f64)> = (0..200).map(|k| (50 + 100 * k, 0, 0.5)).collect();
        let o = oracle(&failures, 1.0);
        let book = ReservationBook::new(1);
        let user = UserStrategy::risk_threshold(1.0).unwrap();
        let outcome = run(&book, &o, request(1, 100), &user).unwrap();
        assert!(!outcome.satisfied_threshold);
        assert_eq!(outcome.accepted.start, SimTime::ZERO);
        assert_eq!(outcome.accepted.failure_probability, 0.5);
    }

    #[test]
    fn fallback_extends_for_substantially_better_quotes() {
        // Same setup, but the window starting at t=500 carries a much less
        // likely failure (px=0.2): worth waiting for.
        let failures: Vec<(u64, u32, f64)> = (0..200)
            .map(|k| (50 + 100 * k, 0, if k == 5 { 0.2 } else { 0.5 }))
            .collect();
        let o = oracle(&failures, 1.0);
        let book = ReservationBook::new(1);
        let user = UserStrategy::risk_threshold(1.0).unwrap();
        let outcome = run(&book, &o, request(1, 100), &user).unwrap();
        assert!(!outcome.satisfied_threshold);
        // The quoted risk window extends 120 s before the start, so the
        // first start whose window sees the px=0.2 failure (at t=550)
        // first — and not the px=0.5 one at t=450 — is t=600.
        assert_eq!(outcome.accepted.start, SimTime::from_secs(600));
        assert_eq!(outcome.accepted.failure_probability, 0.2);
    }

    #[test]
    fn batch_matches_serial_on_a_committed_backlog() {
        const MIN: usize = MIN_QUOTES_PER_WORKER;
        let o = oracle(&[(500, 0, 0.4), (2000, 3, 0.7)], 1.0);
        let mut book = ReservationBook::new(8);
        book.add(
            JobId::new(1),
            Partition::contiguous(0, 8),
            TimeWindow::new(SimTime::ZERO, SimTime::from_secs(900)),
        )
        .unwrap();
        let user = UserStrategy::risk_threshold(0.5).unwrap();
        // Batch lengths on every side of the fan-out minimum: under it the
        // batch is quoted inline, from 2 * MIN on it really is chunked
        // across threads (`fan_out_needs_a_minimum_share_per_worker`).
        for len in [
            1,
            9,
            MIN - 1,
            MIN,
            2 * MIN - 1,
            2 * MIN,
            2 * MIN + 1,
            5 * MIN + 3,
        ] {
            let requests: Vec<NegotiationRequest<'_>> = (1..=len as u32)
                .map(|k| request((k % 4) + 1, 300 * u64::from(k % 11 + 1)))
                .collect();
            let serial: Vec<_> = requests
                .iter()
                .map(|req| {
                    negotiate(
                        &book,
                        Topology::Flat,
                        PlacementStrategy::MinFailureProbability,
                        &o,
                        *req,
                        &user,
                        8,
                        8,
                    )
                })
                .collect();
            for threads in [0, 1, 2, 3, 16] {
                let batched = negotiate_batch(
                    &book,
                    Topology::Flat,
                    PlacementStrategy::MinFailureProbability,
                    &o,
                    &requests,
                    &user,
                    8,
                    8,
                    threads,
                );
                assert_eq!(batched, serial, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn fan_out_needs_a_minimum_share_per_worker() {
        const MIN: usize = MIN_QUOTES_PER_WORKER;
        // (len, threads) -> workers; 0 and 1 both mean "inline".
        for (len, threads, workers) in [
            (0, 4, 0),
            (1, 16, 0),
            (2 * MIN - 1, 16, 1),
            (2 * MIN, 0, 0),
            (2 * MIN, 1, 1),
            (2 * MIN, 2, 2),
            (2 * MIN, 16, 2),
            (2 * MIN + 1, 3, 2),
            (3 * MIN, 2, 2),
            (5 * MIN + 3, 3, 3),
            (5 * MIN + 3, 16, 5),
        ] {
            assert_eq!(batch_workers(len, threads), workers, "({len}, {threads})");
        }
        // Every worker the count promises gets a chunk, cut no smaller than
        // MIN (the last takes the remainder).
        for len in 2 * MIN..6 * MIN {
            for threads in 2..8 {
                let workers = batch_workers(len, threads);
                let chunk = len.div_ceil(workers);
                assert!(chunk >= MIN && len.div_ceil(chunk) <= workers);
            }
        }
    }

    /// The parent's collect-then-iterate negotiation, kept verbatim as the
    /// oracle for the lazy dialog: every slot of every pass is materialised
    /// before the user is asked about the first.
    #[allow(clippy::too_many_arguments)]
    fn eager_reference<B: AvailabilityView, P: Predictor>(
        book: &B,
        topology: Topology,
        placement: PlacementStrategy,
        predictor: &P,
        request: NegotiationRequest<'_>,
        user: &UserStrategy,
        max_slots: usize,
        max_probe_steps: usize,
    ) -> Option<NegotiationOutcome> {
        if request.size == 0 || request.size > book.cluster_size() {
            return None;
        }
        let telemetry = &Telemetry::disabled();
        let max_slots = max_slots.max(1);
        let mut slots = if request.down.is_empty() || request.recovery_horizon <= request.now {
            book.earliest_slots(
                request.size,
                request.duration,
                request.now,
                request.down,
                max_slots,
            )
        } else {
            let mut pre = book.earliest_slots(
                request.size,
                request.duration,
                request.now,
                request.down,
                max_slots,
            );
            pre.retain(|s| s.start < request.recovery_horizon);
            let post = book.earliest_slots(
                request.size,
                request.duration,
                request.recovery_horizon,
                &[],
                max_slots,
            );
            pre.extend(post);
            pre.truncate(max_slots);
            pre
        };
        if slots.is_empty() {
            let from = request.recovery_horizon.max(request.now);
            slots = book.earliest_slots(request.size, request.duration, from, &[], max_slots);
        }

        const PROMISE_TOLERANCE: f64 = 0.01;
        let mut examined = 0usize;
        let mut rejected: Vec<Quote> = Vec::new();
        let mut consider = |quote: Quote, examined: &mut usize| -> Option<Quote> {
            *examined += 1;
            if user.accepts(quote.promised_success()) {
                return Some(quote);
            }
            rejected.push(quote);
            None
        };
        let risk_window = |start: SimTime| {
            TimeWindow::new(
                start.saturating_sub(request.pre_start_risk),
                start.saturating_add(request.duration),
            )
        };
        let taken = |accepted, examined| {
            Some(NegotiationOutcome {
                accepted,
                quotes_examined: examined,
                satisfied_threshold: true,
            })
        };
        for slot in &slots {
            let window = TimeWindow::starting_at(slot.start, request.duration);
            let Some(choice) = choose_partition_with_telemetry(
                topology,
                &slot.free,
                request.size,
                risk_window(slot.start),
                predictor,
                placement,
                telemetry,
            ) else {
                continue;
            };
            let quote = Quote {
                start: slot.start,
                deadline: window.end(),
                partition: choice.partition,
                failure_probability: choice.failure_probability,
            };
            if let Some(accepted) = consider(quote, &mut examined) {
                return taken(accepted, examined);
            }
        }

        let probe_base = slots.last().map(|s| s.start).unwrap_or(request.now);
        let step = request.duration.max(SimDuration::from_secs(1));
        for k in 1..=max_probe_steps {
            let start = probe_base.saturating_add(step.saturating_mul(k as u64));
            let window = TimeWindow::starting_at(start, request.duration);
            let exclude: &[NodeId] = if start < request.recovery_horizon {
                request.down
            } else {
                &[]
            };
            let free = book.free_nodes_during(window, exclude);
            let Some(choice) = choose_partition_with_telemetry(
                topology,
                &free,
                request.size,
                risk_window(start),
                predictor,
                placement,
                telemetry,
            ) else {
                continue;
            };
            let quote = Quote {
                start,
                deadline: window.end(),
                partition: choice.partition,
                failure_probability: choice.failure_probability,
            };
            if let Some(accepted) = consider(quote, &mut examined) {
                return taken(accepted, examined);
            }
        }

        if examined == 0 {
            let book_end = book
                .change_points(request.now)
                .last()
                .copied()
                .unwrap_or(request.now);
            let start = book_end.max(request.recovery_horizon).max(request.now);
            let window = TimeWindow::starting_at(start, request.duration);
            let free = book.free_nodes_during(window, &[]);
            let choice = choose_partition_with_telemetry(
                topology,
                &free,
                request.size,
                risk_window(start),
                predictor,
                placement,
                telemetry,
            )?;
            let quote = Quote {
                start,
                deadline: window.end(),
                partition: choice.partition,
                failure_probability: choice.failure_probability,
            };
            if let Some(accepted) = consider(quote, &mut examined) {
                return taken(accepted, examined);
            }
        }

        let best_promise = rejected
            .iter()
            .map(Quote::promised_success)
            .fold(f64::NEG_INFINITY, f64::max);
        let chosen = rejected
            .into_iter()
            .find(|q| q.promised_success() >= best_promise - PROMISE_TOLERANCE)?;
        Some(NegotiationOutcome {
            accepted: chosen,
            quotes_examined: examined,
            satisfied_threshold: false,
        })
    }

    /// A predictor that answers as `P` does and keeps every question.
    struct Asked<'a, P> {
        inner: &'a P,
        log: RefCell<Vec<(Vec<NodeId>, TimeWindow)>>,
    }

    impl<P: Predictor> Predictor for Asked<'_, P> {
        fn failure_probability(&self, nodes: &[NodeId], window: TimeWindow) -> f64 {
            self.log.borrow_mut().push((nodes.to_vec(), window));
            self.inner.failure_probability(nodes, window)
        }
    }

    #[test]
    fn lazy_dialog_matches_the_eager_reference() {
        // Which of the slot passes each world exercised: the excluded pass
        // cut at the horizon with slots on both sides of it, the budget
        // spent before the horizon, and the "every slot was blocked" retry.
        let (mut both_sides, mut budget_spent_early, mut retried) = (0, 0, 0);
        let mut rng = DetRng::seed_from(0xD1A106).fork("lazy-vs-eager");
        let users = [
            UserStrategy::AlwaysEarliest,
            UserStrategy::risk_threshold(0.5).unwrap(),
            UserStrategy::risk_threshold(0.9).unwrap(),
            UserStrategy::risk_threshold(0.999).unwrap(),
        ];
        for world in 0..400 {
            let width = [4, 9, 24][world % 3];
            let mut book = ReservationBook::new(width);
            for job in 0..rng.uniform_u64(0, 10) {
                let first = rng.uniform_u64(0, u64::from(width) - 1) as u32;
                let len = rng.uniform_u64(1, u64::from(width - first)) as u32;
                let start = 20 * rng.uniform_u64(0, 25);
                let end = start + 20 * rng.uniform_u64(1, 10);
                // Conflicting draws are simply not booked.
                let _ = book.add(
                    JobId::new(job),
                    Partition::contiguous(first, len),
                    TimeWindow::new(SimTime::from_secs(start), SimTime::from_secs(end)),
                );
            }
            let failures: Vec<(u64, u32, f64)> = (0..rng.uniform_u64(0, 30))
                .map(|_| {
                    let node = rng.uniform_u64(0, u64::from(width) - 1) as u32;
                    (rng.uniform_u64(0, 1500), node, rng.unit())
                })
                .collect();
            let oracle = oracle(&failures, [1.0, 0.8][world % 2]);
            let now = 10 * rng.uniform_u64(0, 30);
            // None down, a few, or (one world in five) the whole machine.
            let down: Vec<NodeId> = match rng.uniform_u64(0, 4) {
                0 => Vec::new(),
                1 => (0..width).map(NodeId::new).collect(),
                _ => (0..width)
                    .filter(|_| rng.chance(0.3))
                    .map(NodeId::new)
                    .collect(),
            };
            // Before `now`, on it, inside the book's span, and past it.
            let horizon = [0, now, now + 30, now + 200, 450, 5_000][rng.uniform_u64(0, 5) as usize];
            let request = NegotiationRequest {
                size: rng.uniform_u64(1, u64::from(width)) as u32,
                duration: SimDuration::from_secs(10 * rng.uniform_u64(1, 15)),
                now: SimTime::from_secs(now),
                down: &down,
                recovery_horizon: SimTime::from_secs(horizon),
                pre_start_risk: SimDuration::from_secs([0, 120][world % 2]),
            };
            let max_slots = [1, 2, 3, 8][rng.uniform_u64(0, 3) as usize];
            let max_probe_steps = [0, 2, 6][rng.uniform_u64(0, 2) as usize];

            if !down.is_empty() {
                let (size, duration) = (request.size, request.duration);
                let pre = book.earliest_slots(size, duration, request.now, &down, max_slots);
                let early = pre
                    .iter()
                    .filter(|s| s.start < request.recovery_horizon)
                    .count();
                if horizon > now {
                    both_sides += usize::from(early > 0 && early < max_slots);
                    budget_spent_early += usize::from(early == max_slots);
                } else {
                    retried += usize::from(pre.is_empty());
                }
            }

            for user in &users {
                for topology in [Topology::Flat, Topology::Line] {
                    let placement = PlacementStrategy::MinFailureProbability;
                    let at = format!("world {world}: {request:?} {user:?} {topology:?} slots {max_slots} probes {max_probe_steps}");
                    macro_rules! compare {
                        ($predictor:expr) => {{
                            let [lazy, eager] = [(); 2].map(|_| Asked {
                                inner: $predictor,
                                log: RefCell::default(),
                            });
                            assert_eq!(
                                negotiate(
                                    &book,
                                    topology,
                                    placement,
                                    &lazy,
                                    request,
                                    user,
                                    max_slots,
                                    max_probe_steps
                                ),
                                eager_reference(
                                    &book,
                                    topology,
                                    placement,
                                    &eager,
                                    request,
                                    user,
                                    max_slots,
                                    max_probe_steps
                                ),
                                "{at}"
                            );
                            assert_eq!(lazy.log, eager.log, "{at}: predictor questions");
                        }};
                    }
                    compare!(&NullPredictor);
                    compare!(&oracle);
                }
            }
        }
        assert!(
            both_sides >= 20 && budget_spent_early >= 5 && retried >= 5,
            "worlds must reach every pass: {both_sides} {budget_spent_early} {retried}"
        );
    }

    #[test]
    fn promised_success_complements_pf() {
        let q = Quote {
            start: SimTime::ZERO,
            deadline: SimTime::from_secs(10),
            partition: Partition::contiguous(0, 1),
            failure_probability: 0.25,
        };
        assert!((q.promised_success() - 0.75).abs() < 1e-12);
        assert!(!q.to_string().is_empty());
    }
}
