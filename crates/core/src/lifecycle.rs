//! The served job lifecycle: the one state machine behind every job an
//! online service admits.
//!
//! The paper's contract is a dialog — quote → accept → run → "finished
//! by *d*" (§3). [`Lifecycle`] is that dialog as a table of jobs and a
//! set of timers:
//!
//! ```text
//!            admit           accept: booked          start instant         promised instant
//! (absent) ────────▶ Quoted ────────────────▶ Accepted ─────────────▶ Running ─────────────▶ Done
//!                     │  │                       │
//!                     │  └─ accept: refused, or  └─ cancel ─▶ Cancelled
//!                     │     promise passed ─▶ (absent again, counted `expired`)
//!                     └─ cancel ─▶ Cancelled
//! ```
//!
//! Admitting an id that holds a quote replaces the quote; admitting one
//! in any later phase is refused.
//!
//! It owns everything about a job that is not capacity: the phase and the
//! held quote, the live counter, the `(instant, class, job)` timers,
//! [`SessionStats`], the promise tally, virtual time, the quote horizon
//! and the journal — and it is the only code that journals the nine
//! served event kinds (`job_submitted`, `job_rejected`,
//! `quote_negotiated`, `job_placed`, `job_started`, `job_completed`,
//! `deadline_missed`, `job_cancelled`, `promise_resolved`).
//!
//! What it does **not** own is what "book it" and "release it" mean. An
//! accepted job holds a *commitment* of type `C`, produced by the closure
//! handed to [`Lifecycle::accept`] and handed back to the closure given
//! to [`Lifecycle::cancel`] / [`Lifecycle::advance_to`] when the job
//! lets go of its nodes. A [`NegotiationSession`] commits one
//! `ReservationId` in its own book; the service's cross-shard coordinator
//! commits one reservation slice per shard. Nothing else differs between
//! the two, so nothing else is a parameter.
//!
//! [`NegotiationSession`]: crate::session::NegotiationSession

use crate::config::SimConfig;
use crate::negotiate::{negotiate_batch, NegotiationOutcome, NegotiationRequest, Quote};
use pqos_ckpt::model::planned_execution;
use pqos_predict::api::Predictor;
use pqos_sched::reservation::AvailabilityView;
use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
use pqos_telemetry::{PromiseVerdict, Telemetry, TelemetryEvent};
use pqos_workload::job::JobId;
use std::collections::{BTreeSet, HashMap};

/// Why an `accept` did not commit the quote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcceptError {
    /// No outstanding quote for this job (never negotiated, already
    /// accepted, or already cancelled).
    UnknownQuote,
    /// The quoted slot is gone: a competing commitment overlaps it, or
    /// virtual time has passed the promised completion. Negotiate again.
    QuoteExpired,
}

impl std::fmt::Display for AcceptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcceptError::UnknownQuote => write!(f, "no outstanding quote for this job"),
            AcceptError::QuoteExpired => write!(f, "quote expired; negotiate again"),
        }
    }
}

impl std::error::Error for AcceptError {}

/// Why a `cancel` was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CancelError {
    /// The job id is unknown to this session.
    UnknownJob,
    /// The job already started running (or finished); too late to cancel.
    AlreadyStarted,
}

impl std::fmt::Display for CancelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelError::UnknownJob => write!(f, "unknown job"),
            CancelError::AlreadyStarted => write!(f, "job already started; cannot cancel"),
        }
    }
}

impl std::error::Error for CancelError {}

/// One job's admission request: `size` nodes for `runtime` of useful work
/// (checkpoint overhead is added per the session's configured interval,
/// exactly as the simulator plans it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionRequest {
    /// Requested partition size in nodes.
    pub size: u32,
    /// Requested useful runtime.
    pub runtime: SimDuration,
}

/// A quote held by the session, waiting for accept/cancel.
#[derive(Debug, Clone, PartialEq)]
pub struct HeldQuote {
    /// The quoted offer.
    pub quote: Quote,
    /// Effective deadline the system will hold itself to (promise plus the
    /// configured slack fraction of the planned execution).
    pub deadline: SimTime,
    /// Whether the quote met the configured user threshold (Eq. 3) or is
    /// the best-available compromise.
    pub satisfied_threshold: bool,
}

/// The answer to one admission request.
#[derive(Debug, Clone, PartialEq)]
pub enum QuoteDecision {
    /// A quote is now held for the job; accept or cancel it.
    Quoted(HeldQuote),
    /// The job can never fit the cluster.
    Rejected,
}

/// Counters the session exposes through its status report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Negotiations answered with a quote.
    pub quoted: u64,
    /// Negotiations answered with a rejection (job cannot fit).
    pub rejected: u64,
    /// Quotes committed via accept.
    pub accepted: u64,
    /// Accepts refused because the quoted slot was gone.
    pub expired: u64,
    /// Jobs cancelled before starting.
    pub cancelled: u64,
    /// Jobs that reached their start instant.
    pub started: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Batched quotes re-checked against a serial `negotiate` call.
    pub parity_checked: u64,
    /// Re-checks that disagreed (any nonzero value is a bug).
    pub parity_violations: u64,
}

/// Fieldwise sum over lanes (a sharded core's per-shard sessions plus its
/// coordinator).
impl std::iter::Sum for SessionStats {
    fn sum<I: Iterator<Item = Self>>(lanes: I) -> Self {
        let mut sum = SessionStats::default();
        for lane in lanes {
            // Exhaustive on purpose: a counter added to the struct does
            // not compile until it is summed here.
            let SessionStats {
                quoted,
                rejected,
                accepted,
                expired,
                cancelled,
                started,
                completed,
                parity_checked,
                parity_violations,
            } = lane;
            sum.quoted += quoted;
            sum.rejected += rejected;
            sum.accepted += accepted;
            sum.expired += expired;
            sum.cancelled += cancelled;
            sum.started += started;
            sum.completed += completed;
            sum.parity_checked += parity_checked;
            sum.parity_violations += parity_violations;
        }
        sum
    }
}

/// Number of fixed quoted-probability bins the session (and the offline
/// calibration ledger in `pqos-obs`) tallies promises into: `[0.0, 0.1)`,
/// `[0.1, 0.2)`, ..., `[0.9, 1.0]` (the last bin is closed above).
pub const PROMISE_BINS: usize = 10;

/// The fixed calibration bin a quoted probability falls into.
pub fn promise_bin(p: f64) -> usize {
    // NaN/negative clamp to bin 0, p >= 1.0 to the last bin.
    let i = (p * PROMISE_BINS as f64).floor();
    if i.is_finite() && i > 0.0 {
        (i as usize).min(PROMISE_BINS - 1)
    } else {
        0
    }
}

/// Live promise-calibration counters: every accepted quote is a promise
/// and every terminal event resolves one. Cancelled promises are excluded
/// from calibration (neither kept nor broken).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PromiseStats {
    /// Promises made (== quotes accepted).
    pub made: u64,
    /// Promises kept: the job completed at or before its effective
    /// deadline.
    pub kept: u64,
    /// Promises broken: the job completed after its effective deadline.
    pub broken: u64,
    /// Promises voided by cancellation before a verdict was possible.
    pub cancelled: u64,
    /// Worst per-bin reliability residual (observed success rate minus
    /// mean quoted probability, over kept+broken promises), in signed
    /// milli-units: the residual of largest magnitude across the
    /// [`PROMISE_BINS`] fixed bins. Negative means overconfident.
    pub worst_residual_milli: i64,
}

/// Sums the counters over lanes; the worst residual is the residual of
/// largest magnitude any lane observed (each lane bins its own promises).
impl std::iter::Sum for PromiseStats {
    fn sum<I: Iterator<Item = Self>>(lanes: I) -> Self {
        let mut sum = PromiseStats::default();
        for lane in lanes {
            // Exhaustive on purpose, as for `SessionStats`.
            let PromiseStats {
                made,
                kept,
                broken,
                cancelled,
                worst_residual_milli,
            } = lane;
            sum.made += made;
            sum.kept += kept;
            sum.broken += broken;
            sum.cancelled += cancelled;
            if worst_residual_milli.abs() > sum.worst_residual_milli.abs() {
                sum.worst_residual_milli = worst_residual_milli;
            }
        }
        sum
    }
}

/// Per-bin running tallies behind [`PromiseStats::worst_residual_milli`].
#[derive(Debug, Clone, Copy, Default)]
struct PromiseBin {
    resolved: u64,
    kept: u64,
    sum_quoted: f64,
}

#[derive(Debug, Clone, Default)]
struct PromiseTally {
    made: u64,
    kept: u64,
    broken: u64,
    cancelled: u64,
    bins: [PromiseBin; PROMISE_BINS],
}

impl PromiseTally {
    fn resolve(&mut self, quoted: f64, verdict: PromiseVerdict) {
        match verdict {
            PromiseVerdict::Kept | PromiseVerdict::Broken => {
                let bin = &mut self.bins[promise_bin(quoted)];
                bin.resolved += 1;
                bin.sum_quoted += quoted;
                if verdict == PromiseVerdict::Kept {
                    bin.kept += 1;
                    self.kept += 1;
                } else {
                    self.broken += 1;
                }
            }
            PromiseVerdict::Cancelled => self.cancelled += 1,
        }
    }

    fn stats(&self) -> PromiseStats {
        let mut worst = 0i64;
        for bin in &self.bins {
            if bin.resolved == 0 {
                continue;
            }
            let observed = bin.kept as f64 / bin.resolved as f64;
            let mean_quoted = bin.sum_quoted / bin.resolved as f64;
            let residual = ((observed - mean_quoted) * 1000.0).round() as i64;
            if residual.abs() > worst.abs() {
                worst = residual;
            }
        }
        PromiseStats {
            made: self.made,
            kept: self.kept,
            broken: self.broken,
            cancelled: self.cancelled,
            worst_residual_milli: worst,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Quoted, not yet accepted.
    Quoted,
    /// Accepted; commitment held; start not yet reached.
    Accepted,
    /// Between journaled start and completion.
    Running,
    /// Completed (journaled).
    Done,
    /// Cancelled (journaled).
    Cancelled,
}

#[derive(Debug)]
struct Job<C> {
    phase: Phase,
    held: HeldQuote,
    /// What the job holds in the books while accepted or running.
    commitment: Option<C>,
}

/// Timer order-classes: completions at an instant free their nodes before
/// same-instant starts claim theirs (the journal invariant the doctor's
/// occupancy check enforces).
const COMPLETION: u8 = 0;
const START: u8 = 1;

/// Total checkpointed execution time planned for `runtime` of useful
/// work: the duration a quote reserves and the base of its slack.
fn planned_total(config: &SimConfig, runtime: SimDuration) -> SimDuration {
    planned_execution(
        runtime,
        config.checkpoint_interval,
        config.checkpoint_overhead,
    )
    .total
}

/// The served job state machine, generic over the commitment `C` an
/// accepted job holds. See the [module docs](self).
#[derive(Debug)]
pub struct Lifecycle<C> {
    telemetry: Telemetry,
    now: SimTime,
    quote_horizon: Option<SimDuration>,
    /// Offset added to node indices in journaled placements.
    node_base: u64,
    jobs: HashMap<JobId, Job<C>>,
    /// How many of `jobs` are quoted, accepted or running, kept in step at
    /// every phase transition so [`Self::live_jobs`] need not walk a table
    /// that never forgets a job.
    live: usize,
    /// Pending lifecycle instants: (time, order-class, job).
    timers: BTreeSet<(SimTime, u8, JobId)>,
    stats: SessionStats,
    promises: PromiseTally,
}

impl<C> Lifecycle<C> {
    /// An empty job table at virtual time zero, journaling through
    /// `telemetry`.
    pub fn new(telemetry: Telemetry) -> Self {
        Lifecycle {
            telemetry,
            now: SimTime::ZERO,
            quote_horizon: None,
            node_base: 0,
            jobs: HashMap::new(),
            live: 0,
            timers: BTreeSet::new(),
            stats: SessionStats::default(),
            promises: PromiseTally::default(),
        }
    }

    /// Refuses quotes whose start lies more than `horizon` past the
    /// current virtual time (the request is answered `rejected`).
    pub fn set_quote_horizon(&mut self, horizon: SimDuration) {
        self.quote_horizon = Some(horizon);
    }

    /// Journals placements with node indices offset by `base`.
    pub fn set_node_base(&mut self, base: u64) {
        self.node_base = base;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The telemetry handle every transition journals through.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Lifecycle counters (the parity fields stay zero: re-checking a
    /// negotiation is the caller's business).
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Live promise-calibration counters.
    pub fn promise_stats(&self) -> PromiseStats {
        self.promises.stats()
    }

    /// Jobs currently quoted (awaiting a decision), accepted (commitment
    /// held) or running. Finished and cancelled jobs are excluded;
    /// expired quotes were dropped entirely (they show up in
    /// [`SessionStats::expired`]).
    pub fn live_jobs(&self) -> usize {
        debug_assert_eq!(
            self.live,
            self.jobs
                .values()
                .filter(|j| matches!(j.phase, Phase::Quoted | Phase::Accepted | Phase::Running))
                .count(),
            "live counter drifted from the job table"
        );
        self.live
    }

    /// Whether the job table has an entry for `id`: a held quote, or a
    /// job accepted, running, finished or cancelled. Rejected ids and
    /// expired quotes leave none.
    pub fn holds(&self, id: JobId) -> bool {
        self.jobs.contains_key(&id)
    }

    /// Negotiates `requests` against `view` as of the current virtual
    /// time, fanning out across `threads` OS threads. Read-only: nothing
    /// is journaled, no quote is held and no counter moves until the
    /// outcomes are handed to [`Self::admit`].
    pub fn negotiate<V, P>(
        &self,
        view: &V,
        config: &SimConfig,
        predictor: &P,
        requests: impl Iterator<Item = AdmissionRequest>,
        threads: usize,
    ) -> Vec<Option<NegotiationOutcome>>
    where
        V: AvailabilityView + Sync,
        P: Predictor + Sync,
    {
        let requests: Vec<NegotiationRequest<'_>> = requests
            .map(|req| NegotiationRequest {
                size: req.size,
                duration: planned_total(config, req.runtime),
                now: self.now,
                down: &[],
                recovery_horizon: SimTime::ZERO,
                pre_start_risk: config.node_downtime,
            })
            .collect();
        negotiate_batch(
            view,
            config.topology,
            config.placement,
            predictor,
            &requests,
            &config.user,
            config.max_negotiation_slots,
            config.max_probe_steps,
            threads,
        )
    }

    /// The quote-horizon filter: `None` where the quoted start falls
    /// beyond the horizon.
    pub fn within_horizon(
        &self,
        outcome: Option<NegotiationOutcome>,
    ) -> Option<NegotiationOutcome> {
        outcome.filter(|o| {
            self.quote_horizon
                .is_none_or(|horizon| o.accepted.start <= self.now.saturating_add(horizon))
        })
    }

    /// Admits one batch of negotiated requests: journals every
    /// submission, then records one decision per request in batch order.
    /// A `None` outcome, or one past the quote horizon, is journaled as a
    /// rejection; anything else becomes a held quote.
    ///
    /// Job ids are caller-assigned and must be fresh; a duplicate id
    /// replaces the previous pending quote (accepted/finished jobs are
    /// never replaced — the request is rejected instead).
    ///
    /// # Panics
    ///
    /// When `outcomes` does not hold one outcome per request.
    pub fn admit(
        &mut self,
        config: &SimConfig,
        requests: &[(JobId, AdmissionRequest)],
        outcomes: Vec<Option<NegotiationOutcome>>,
    ) -> Vec<QuoteDecision> {
        assert_eq!(requests.len(), outcomes.len(), "one outcome per request");
        // Submissions first: the doctor requires job_submitted before the
        // accepted quote, and a batch is one virtual instant.
        for &(id, req) in requests {
            self.telemetry.emit(|| TelemetryEvent::JobSubmitted {
                at: self.now,
                job: id.as_u64(),
                size: req.size,
                runtime_secs: req.runtime.as_secs(),
            });
        }
        requests
            .iter()
            .zip(outcomes)
            .map(|(&(id, req), outcome)| self.record_decision(config, id, req, outcome))
            .collect()
    }

    fn record_decision(
        &mut self,
        config: &SimConfig,
        id: JobId,
        req: AdmissionRequest,
        outcome: Option<NegotiationOutcome>,
    ) -> QuoteDecision {
        let Some(outcome) = self.within_horizon(outcome) else {
            self.telemetry.emit(|| TelemetryEvent::JobRejected {
                at: self.now,
                job: id.as_u64(),
            });
            self.stats.rejected += 1;
            return QuoteDecision::Rejected;
        };
        let slack = SimDuration::from_secs(
            (planned_total(config, req.runtime).as_secs() as f64 * config.deadline_slack) as u64,
        );
        let held = HeldQuote {
            deadline: outcome.accepted.deadline.saturating_add(slack),
            quote: outcome.accepted,
            satisfied_threshold: outcome.satisfied_threshold,
        };
        if self.jobs.get(&id).is_some_and(|j| j.phase != Phase::Quoted) {
            // The id already names a committed or finished job; refusing
            // (without a second journaled verdict) keeps the journal's
            // one-lifecycle-per-id invariant.
            self.stats.rejected += 1;
            return QuoteDecision::Rejected;
        }
        let requoted = self.jobs.insert(
            id,
            Job {
                phase: Phase::Quoted,
                held: held.clone(),
                commitment: None,
            },
        );
        // A re-quote replaces a held quote that was already counted.
        if requoted.is_none() {
            self.live += 1;
        }
        self.stats.quoted += 1;
        QuoteDecision::Quoted(held)
    }

    /// Commits a held quote. `book` is asked to commit the quoted
    /// partition for the quoted window and answers with what the job now
    /// holds, or `None` when a competing commitment took the slot; only
    /// then are the accepted quote and placement journaled. The job will
    /// start and complete as virtual time passes the committed instants.
    ///
    /// # Errors
    ///
    /// [`AcceptError::UnknownQuote`] when no quote is held for `id`;
    /// [`AcceptError::QuoteExpired`] when `book` refused or the promise
    /// is already in the past (`book` is not asked; the held quote is
    /// dropped — negotiate again).
    pub fn accept(
        &mut self,
        id: JobId,
        book: impl FnOnce(&HeldQuote, TimeWindow) -> Option<C>,
    ) -> Result<HeldQuote, AcceptError> {
        let job = self
            .jobs
            .get_mut(&id)
            .filter(|j| j.phase == Phase::Quoted)
            .ok_or(AcceptError::UnknownQuote)?;
        let held = job.held.clone();
        let window = TimeWindow::new(held.quote.start, held.quote.deadline);
        let commitment = (self.now < held.quote.deadline)
            .then(|| book(&held, window))
            .flatten();
        let Some(commitment) = commitment else {
            self.jobs.remove(&id);
            self.live -= 1;
            self.stats.expired += 1;
            return Err(AcceptError::QuoteExpired);
        };
        job.phase = Phase::Accepted;
        job.commitment = Some(commitment);
        self.telemetry.emit(|| TelemetryEvent::QuoteNegotiated {
            at: self.now,
            job: id.as_u64(),
            start_secs: held.quote.start.as_secs(),
            promised_secs: held.quote.deadline.as_secs(),
            deadline_secs: held.deadline.as_secs(),
            success_probability: held.quote.promised_success(),
        });
        self.telemetry.emit(|| TelemetryEvent::JobPlaced {
            at: self.now,
            job: id.as_u64(),
            nodes: held
                .quote
                .partition
                .iter()
                .map(|n| n.index() as u64 + self.node_base)
                .collect(),
            failure_probability: held.quote.failure_probability,
        });
        // A start already in the past (time moved while the client decided)
        // fires on the next advance; the run still ends at the promise.
        self.timers
            .insert((held.quote.start.max(self.now), START, id));
        self.stats.accepted += 1;
        // The accepted quote is a promise; its resolution is journaled by
        // the terminal event (complete or cancel).
        self.promises.made += 1;
        Ok(held)
    }

    /// Withdraws a job: drops a held quote, or hands an accepted job's
    /// commitment to `release` if its start has not been reached.
    /// Journals the cancellation.
    ///
    /// # Errors
    ///
    /// [`CancelError::UnknownJob`] for ids never quoted (or already
    /// cancelled); [`CancelError::AlreadyStarted`] once the job is
    /// running or done.
    pub fn cancel(&mut self, id: JobId, release: impl FnOnce(C)) -> Result<(), CancelError> {
        let job = self.jobs.get_mut(&id).ok_or(CancelError::UnknownJob)?;
        let was_accepted = match job.phase {
            Phase::Quoted => false,
            Phase::Accepted => true,
            Phase::Running | Phase::Done => return Err(CancelError::AlreadyStarted),
            Phase::Cancelled => return Err(CancelError::UnknownJob),
        };
        job.phase = Phase::Cancelled;
        self.live -= 1;
        if let Some(commitment) = job.commitment.take() {
            release(commitment);
        }
        if was_accepted {
            let start = job.held.quote.start.max(self.now);
            self.timers.remove(&(start, START, id));
        }
        self.telemetry.emit(|| TelemetryEvent::JobCancelled {
            at: self.now,
            job: id.as_u64(),
        });
        if was_accepted {
            // Only accepted quotes made a promise worth resolving; a held
            // quote that was never committed promised nothing.
            self.resolve_promise(id, self.now, PromiseVerdict::Cancelled);
        }
        self.stats.cancelled += 1;
        Ok(())
    }

    /// Advances virtual time to `to` (monotone; earlier instants are
    /// ignored), journaling every start and completion that falls due.
    /// Each completed job's commitment is handed to `release`.
    pub fn advance_to(&mut self, to: SimTime, mut release: impl FnMut(C)) {
        while let Some(&(when, class, job)) = self.timers.first() {
            if when > to {
                break;
            }
            self.timers.pop_first();
            match class {
                COMPLETION => self.complete(job, when, &mut release),
                _ => self.start(job, when),
            }
        }
        self.now = self.now.max(to);
    }

    fn start(&mut self, id: JobId, at: SimTime) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        if job.phase != Phase::Accepted {
            return;
        }
        job.phase = Phase::Running;
        let end = job.held.quote.deadline.max(at);
        self.telemetry.emit(|| TelemetryEvent::JobStarted {
            at,
            job: id.as_u64(),
            restarts: 0,
        });
        self.timers.insert((end, COMPLETION, id));
        self.stats.started += 1;
    }

    fn complete(&mut self, id: JobId, at: SimTime, release: &mut impl FnMut(C)) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        if job.phase != Phase::Running {
            return;
        }
        job.phase = Phase::Done;
        self.live -= 1;
        let deadline = job.held.deadline;
        let met_deadline = at <= deadline;
        if let Some(commitment) = job.commitment.take() {
            release(commitment);
        }
        self.telemetry.emit(|| TelemetryEvent::JobCompleted {
            at,
            job: id.as_u64(),
            met_deadline,
        });
        if !met_deadline {
            self.telemetry.emit(|| TelemetryEvent::DeadlineMissed {
                at,
                job: id.as_u64(),
                late_by_secs: at.as_secs().saturating_sub(deadline.as_secs()),
            });
        }
        let verdict = if met_deadline {
            PromiseVerdict::Kept
        } else {
            PromiseVerdict::Broken
        };
        self.resolve_promise(id, at, verdict);
        self.stats.completed += 1;
    }

    /// Journals and tallies the verdict on `id`'s promise.
    fn resolve_promise(&mut self, id: JobId, at: SimTime, verdict: PromiseVerdict) {
        let held = &self.jobs[&id].held;
        let quoted = held.quote.promised_success();
        self.telemetry.emit(|| TelemetryEvent::PromiseResolved {
            at,
            job: id.as_u64(),
            success_probability: quoted,
            deadline_secs: held.deadline.as_secs(),
            verdict,
        });
        self.promises.resolve(quoted, verdict);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_cluster::partition::Partition;

    const ID: JobId = JobId::new(7);
    /// The one quote every row uses: nodes {0, 1} from t=100, promised by
    /// t=200 with p=0.75; no slack at the paper defaults, so the held
    /// deadline is the promise.
    const START_AT: u64 = 100;
    const PROMISE: u64 = 200;

    fn outcome() -> NegotiationOutcome {
        NegotiationOutcome {
            accepted: Quote {
                start: SimTime::from_secs(START_AT),
                deadline: SimTime::from_secs(PROMISE),
                partition: Partition::contiguous(0, 2),
                failure_probability: 0.25,
            },
            quotes_examined: 1,
            satisfied_threshold: true,
        }
    }

    fn held() -> HeldQuote {
        HeldQuote {
            quote: outcome().accepted,
            deadline: SimTime::from_secs(PROMISE),
            satisfied_threshold: true,
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Given {
        Absent,
        Quoted,
        /// Quoted, with virtual time already at the promise.
        QuotedExpired,
        Accepted,
        Running,
        Done,
        Cancelled,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Op {
        Requote,
        AcceptBooked,
        AcceptRefused,
        Cancel,
        /// To t=150: past the start, short of the promise.
        AdvancePastStart,
        /// To t=250: past the promise.
        AdvancePastDeadline,
    }

    /// A lifecycle over the unit commitment, counting how often the
    /// booking and release closures ran.
    struct World {
        jobs: Lifecycle<()>,
        telemetry: Telemetry,
        config: SimConfig,
        booked: usize,
        released: usize,
    }

    impl World {
        fn new() -> Self {
            let telemetry = Telemetry::builder().ring_buffer(64).build();
            World {
                jobs: Lifecycle::new(telemetry.clone()),
                telemetry,
                config: SimConfig::paper_defaults(),
                booked: 0,
                released: 0,
            }
        }

        /// Applies `op`, rendering what it returned.
        fn apply(&mut self, op: Op) -> String {
            let request = AdmissionRequest {
                size: 2,
                runtime: SimDuration::from_secs(PROMISE - START_AT),
            };
            let (booked, released) = (&mut self.booked, &mut self.released);
            match op {
                Op::Requote => {
                    let decisions =
                        self.jobs
                            .admit(&self.config, &[(ID, request)], vec![Some(outcome())]);
                    format!("{:?}", decisions[0])
                }
                Op::AcceptBooked | Op::AcceptRefused => {
                    let result = self.jobs.accept(ID, |_, window| {
                        *booked += 1;
                        assert_eq!(
                            window,
                            TimeWindow::new(
                                SimTime::from_secs(START_AT),
                                SimTime::from_secs(PROMISE)
                            )
                        );
                        (op == Op::AcceptBooked).then_some(())
                    });
                    format!("{result:?}")
                }
                Op::Cancel => format!("{:?}", self.jobs.cancel(ID, |()| *released += 1)),
                Op::AdvancePastStart | Op::AdvancePastDeadline => {
                    let to = if op == Op::AdvancePastStart { 150 } else { 250 };
                    self.jobs
                        .advance_to(SimTime::from_secs(to), |()| *released += 1);
                    format!("now={}", self.jobs.now().as_secs())
                }
            }
        }

        fn reach(from: Given) -> Self {
            let mut w = World::new();
            let path: &[Op] = match from {
                Given::Absent => &[],
                Given::Quoted => &[Op::Requote],
                Given::QuotedExpired => &[Op::Requote],
                Given::Accepted => &[Op::Requote, Op::AcceptBooked],
                Given::Running => &[Op::Requote, Op::AcceptBooked, Op::AdvancePastStart],
                Given::Done => &[Op::Requote, Op::AcceptBooked, Op::AdvancePastDeadline],
                Given::Cancelled => &[Op::Requote, Op::AcceptBooked, Op::Cancel],
            };
            for &op in path {
                w.apply(op);
            }
            if from == Given::QuotedExpired {
                w.jobs
                    .advance_to(SimTime::from_secs(PROMISE), |()| unreachable!());
            }
            w
        }

        fn phase(&self) -> Option<Phase> {
            self.jobs.jobs.get(&ID).map(|j| j.phase)
        }

        fn journal(&self) -> Vec<String> {
            self.telemetry
                .ring_events()
                .iter()
                .map(|e| e.to_jsonl())
                .collect()
        }
    }

    /// What one (phase, op) cell must do.
    struct Cell {
        returned: String,
        next: Option<Phase>,
        live: usize,
        /// Counters that moved (everything else must not).
        stats: SessionStats,
        promises: PromiseStats,
        booked: usize,
        released: usize,
        journal: Vec<String>,
    }

    fn submitted(at: u64) -> String {
        format!(r#"{{"event":"job_submitted","at":{at},"job":7,"size":2,"runtime_secs":100}}"#)
    }
    fn started() -> String {
        r#"{"event":"job_started","at":100,"job":7,"restarts":0}"#.to_string()
    }
    fn completed() -> [String; 2] {
        [
            r#"{"event":"job_completed","at":200,"job":7,"met_deadline":true}"#.to_string(),
            r#"{"event":"promise_resolved","at":200,"job":7,"success_probability":0.75,"deadline_secs":200,"verdict":"kept"}"#.to_string(),
        ]
    }

    fn expected(from: Given, op: Op) -> Cell {
        use Given as G;
        let zero = SessionStats::default();
        let none = PromiseStats::default();
        let at = match from {
            G::Absent | G::Quoted | G::Accepted | G::Cancelled => 0,
            G::QuotedExpired => PROMISE,
            G::Running => 150,
            G::Done => 250,
        };
        // An op that must leave everything as it found it.
        let unchanged = |returned: &str| Cell {
            returned: returned.to_string(),
            next: match from {
                G::Absent => None,
                G::Quoted | G::QuotedExpired => Some(Phase::Quoted),
                G::Accepted => Some(Phase::Accepted),
                G::Running => Some(Phase::Running),
                G::Done => Some(Phase::Done),
                G::Cancelled => Some(Phase::Cancelled),
            },
            live: usize::from(matches!(
                from,
                G::Quoted | G::QuotedExpired | G::Accepted | G::Running
            )),
            stats: zero,
            promises: none,
            booked: 0,
            released: 0,
            journal: Vec::new(),
        };
        match (from, op) {
            // A fresh id or a held quote takes the new quote.
            (G::Absent | G::Quoted | G::QuotedExpired, Op::Requote) => Cell {
                returned: format!("{:?}", QuoteDecision::Quoted(held())),
                next: Some(Phase::Quoted),
                live: 1,
                stats: SessionStats { quoted: 1, ..zero },
                journal: vec![submitted(at)],
                ..unchanged("")
            },
            // A committed or finished id refuses it: the submission is
            // journaled, a second verdict is not.
            (G::Accepted | G::Running | G::Done | G::Cancelled, Op::Requote) => Cell {
                stats: SessionStats { rejected: 1, ..zero },
                journal: vec![submitted(at)],
                ..unchanged("Rejected")
            },
            (G::Quoted, Op::AcceptBooked) => Cell {
                returned: format!("{:?}", Ok::<_, AcceptError>(held())),
                next: Some(Phase::Accepted),
                stats: SessionStats { accepted: 1, ..zero },
                promises: PromiseStats { made: 1, ..none },
                booked: 1,
                journal: vec![
                    r#"{"event":"quote_negotiated","at":0,"job":7,"start_secs":100,"promised_secs":200,"deadline_secs":200,"success_probability":0.75}"#.to_string(),
                    r#"{"event":"job_placed","at":0,"job":7,"nodes":[0,1],"failure_probability":0.25}"#.to_string(),
                ],
                ..unchanged("")
            },
            // Refused by the book, or the promise already passed (the
            // book is then not even asked): the quote is dropped.
            (G::Quoted, Op::AcceptRefused)
            | (G::QuotedExpired, Op::AcceptBooked | Op::AcceptRefused) => Cell {
                next: None,
                live: 0,
                stats: SessionStats { expired: 1, ..zero },
                booked: usize::from(from == G::Quoted),
                ..unchanged("Err(QuoteExpired)")
            },
            (_, Op::AcceptBooked | Op::AcceptRefused) => unchanged("Err(UnknownQuote)"),
            (G::Quoted | G::QuotedExpired, Op::Cancel) => Cell {
                next: Some(Phase::Cancelled),
                live: 0,
                stats: SessionStats { cancelled: 1, ..zero },
                journal: vec![format!(r#"{{"event":"job_cancelled","at":{at},"job":7}}"#)],
                ..unchanged("Ok(())")
            },
            (G::Accepted, Op::Cancel) => Cell {
                next: Some(Phase::Cancelled),
                live: 0,
                stats: SessionStats { cancelled: 1, ..zero },
                promises: PromiseStats { cancelled: 1, ..none },
                released: 1,
                journal: vec![
                    r#"{"event":"job_cancelled","at":0,"job":7}"#.to_string(),
                    r#"{"event":"promise_resolved","at":0,"job":7,"success_probability":0.75,"deadline_secs":200,"verdict":"cancelled"}"#.to_string(),
                ],
                ..unchanged("Ok(())")
            },
            (G::Absent | G::Cancelled, Op::Cancel) => unchanged("Err(UnknownJob)"),
            (G::Running | G::Done, Op::Cancel) => unchanged("Err(AlreadyStarted)"),
            (G::Accepted, Op::AdvancePastStart) => Cell {
                next: Some(Phase::Running),
                stats: SessionStats { started: 1, ..zero },
                journal: vec![started()],
                ..unchanged("now=150")
            },
            (G::Accepted, Op::AdvancePastDeadline) => Cell {
                next: Some(Phase::Done),
                live: 0,
                stats: SessionStats { started: 1, completed: 1, ..zero },
                // One promise quoted at 0.75 and kept: observed 1.0.
                promises: PromiseStats { kept: 1, worst_residual_milli: 250, ..none },
                released: 1,
                journal: [vec![started()], completed().to_vec()].concat(),
                ..unchanged("now=250")
            },
            (G::Running, Op::AdvancePastDeadline) => Cell {
                next: Some(Phase::Done),
                live: 0,
                stats: SessionStats { completed: 1, ..zero },
                // One promise quoted at 0.75 and kept: observed 1.0.
                promises: PromiseStats { kept: 1, worst_residual_milli: 250, ..none },
                released: 1,
                journal: completed().to_vec(),
                ..unchanged("now=250")
            },
            // No timer pending: the clock moves (never backwards) and
            // nothing else does.
            (_, Op::AdvancePastStart) => unchanged(&format!("now={}", at.max(150))),
            (_, Op::AdvancePastDeadline) => unchanged("now=250"),
        }
    }

    /// Every phase × every op: the returned value, the next phase, the
    /// live count, which counters moved, how often the booking and
    /// release closures ran, and the exact journal lines. A new
    /// transition (the failure ops) adds its row here.
    #[test]
    fn transition_table() {
        let froms = [
            Given::Absent,
            Given::Quoted,
            Given::QuotedExpired,
            Given::Accepted,
            Given::Running,
            Given::Done,
            Given::Cancelled,
        ];
        let ops = [
            Op::Requote,
            Op::AcceptBooked,
            Op::AcceptRefused,
            Op::Cancel,
            Op::AdvancePastStart,
            Op::AdvancePastDeadline,
        ];
        for from in froms {
            for op in ops {
                let cell = format!("{from:?} x {op:?}");
                let mut w = World::reach(from);
                let before = (
                    w.jobs.stats(),
                    w.jobs.promise_stats(),
                    w.booked,
                    w.released,
                    w.journal().len(),
                );
                let want = expected(from, op);
                let returned = w.apply(op);
                assert_eq!(returned, want.returned, "{cell}: returned");
                assert_eq!(w.phase(), want.next, "{cell}: next phase");
                assert_eq!(w.jobs.live_jobs(), want.live, "{cell}: live jobs");
                assert_eq!(
                    w.jobs.stats(),
                    [before.0, want.stats].into_iter().sum(),
                    "{cell}: stats"
                );
                assert_eq!(
                    w.jobs.promise_stats(),
                    [before.1, want.promises].into_iter().sum(),
                    "{cell}: promises"
                );
                assert_eq!(w.booked - before.2, want.booked, "{cell}: booking calls");
                assert_eq!(w.released - before.3, want.released, "{cell}: releases");
                assert_eq!(w.journal()[before.4..], want.journal, "{cell}: journal");
            }
        }
    }

    #[test]
    fn admission_rejects_past_the_horizon_and_journals_the_verdict_once() {
        let mut w = World::new();
        w.jobs
            .set_quote_horizon(SimDuration::from_secs(START_AT - 1));
        assert_eq!(w.jobs.within_horizon(Some(outcome())), None);
        let request = AdmissionRequest {
            size: 2,
            runtime: SimDuration::from_secs(100),
        };
        let decisions = w.jobs.admit(
            &w.config,
            &[(ID, request), (JobId::new(8), request)],
            vec![Some(outcome()), None],
        );
        assert_eq!(
            decisions,
            [QuoteDecision::Rejected, QuoteDecision::Rejected]
        );
        assert_eq!(w.jobs.stats().rejected, 2);
        assert_eq!(w.jobs.live_jobs(), 0);
        assert_eq!(
            w.journal(),
            [
                submitted(0),
                r#"{"event":"job_submitted","at":0,"job":8,"size":2,"runtime_secs":100}"#
                    .to_string(),
                r#"{"event":"job_rejected","at":0,"job":7}"#.to_string(),
                r#"{"event":"job_rejected","at":0,"job":8}"#.to_string(),
            ]
        );
        // One second more of horizon and the same outcome is a quote.
        w.jobs.set_quote_horizon(SimDuration::from_secs(START_AT));
        assert_eq!(w.jobs.within_horizon(Some(outcome())), Some(outcome()));
    }

    #[test]
    fn completions_release_before_same_instant_starts_claim() {
        // Job 7 runs [100, 200); job 8 starts at 200. One advance past
        // both must journal 7's completion before 8's start.
        let mut w = World::new();
        w.apply(Op::Requote);
        w.apply(Op::AcceptBooked);
        let mut second = outcome();
        second.accepted.start = SimTime::from_secs(PROMISE);
        second.accepted.deadline = SimTime::from_secs(PROMISE + 100);
        let request = AdmissionRequest {
            size: 2,
            runtime: SimDuration::from_secs(100),
        };
        w.jobs
            .admit(&w.config, &[(JobId::new(8), request)], vec![Some(second)]);
        w.jobs.accept(JobId::new(8), |_, _| Some(())).unwrap();
        let mark = w.journal().len();
        w.jobs.advance_to(SimTime::from_secs(PROMISE), |()| {});
        let [completed, resolved] = completed();
        assert_eq!(
            w.journal()[mark..],
            [
                started(),
                completed,
                resolved,
                r#"{"event":"job_started","at":200,"job":8,"restarts":0}"#.to_string(),
            ]
        );
    }

    #[test]
    fn session_stats_sum_fieldwise() {
        let a = SessionStats {
            quoted: 1,
            rejected: 2,
            accepted: 3,
            expired: 4,
            cancelled: 5,
            started: 6,
            completed: 7,
            parity_checked: 8,
            parity_violations: 9,
        };
        let b = SessionStats {
            quoted: 10,
            rejected: 20,
            accepted: 30,
            expired: 40,
            cancelled: 50,
            started: 60,
            completed: 70,
            parity_checked: 80,
            parity_violations: 90,
        };
        assert_eq!(
            [a, b].into_iter().sum::<SessionStats>(),
            SessionStats {
                quoted: 11,
                rejected: 22,
                accepted: 33,
                expired: 44,
                cancelled: 55,
                started: 66,
                completed: 77,
                parity_checked: 88,
                parity_violations: 99,
            }
        );
        assert_eq!(
            std::iter::empty::<SessionStats>().sum::<SessionStats>(),
            SessionStats::default()
        );
    }

    #[test]
    fn promise_stats_sum_keeps_the_largest_magnitude_residual() {
        let lane = |made, kept, broken, cancelled, worst_residual_milli| PromiseStats {
            made,
            kept,
            broken,
            cancelled,
            worst_residual_milli,
        };
        assert_eq!(
            [lane(1, 2, 3, 4, 120), lane(10, 20, 30, 40, -250)]
                .into_iter()
                .sum::<PromiseStats>(),
            lane(11, 22, 33, 44, -250)
        );
        // Equal magnitude: the first lane's sign stands, as it always has.
        assert_eq!(
            [
                lane(0, 0, 0, 0, 90),
                lane(0, 0, 0, 0, -90),
                lane(0, 0, 0, 0, 7)
            ]
            .into_iter()
            .sum::<PromiseStats>(),
            lane(0, 0, 0, 0, 90)
        );
    }
}
