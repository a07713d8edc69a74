//! The job lifecycle: the one state machine behind every job the
//! simulator runs and every job an online service admits.
//!
//! The paper's contract is a dialog — quote → commit → run through node
//! failures → "finished by *d* with probability *p*" (§3.3–3.5).
//! [`Lifecycle`] is that dialog as a table of jobs:
//!
//! ```text
//!            admit           commit: booked           start                    complete
//! (absent) ────────▶ Quoted ────────────────▶ Accepted ─────────────▶ Running ─────────────▶ Done
//!                     │  │                     │    ▲                    │
//!                     │  │                     │    └─── requeue: a node failure, ───┘
//!                     │  │                     │         a fresh commitment, the same promise
//!                     │  └─ commit: refused, or └─ cancel ─▶ Cancelled
//!                     │     promise passed ─▶ (absent again, counted `expired`)
//!                     └─ cancel ─▶ Cancelled
//! ```
//!
//! Admitting an id that holds a quote replaces the quote; admitting one
//! in any later phase is refused and journals nothing.
//!
//! It owns everything about a job that is not capacity: the phase and the
//! held quote of every live (quoted, accepted or running) job, how each
//! finished or cancelled job ended, [`SessionStats`], the promise tally,
//! the deadline slack rule and the journal — and it is the only code that
//! journals the ten job event kinds (`job_submitted`, `job_rejected`,
//! `quote_negotiated`, `job_placed`, `job_started`, `job_requeued`,
//! `job_completed`, `deadline_missed`, `job_cancelled`,
//! `promise_resolved`).
//!
//! Every transition takes its instant as an argument; two drivers decide
//! when each happens. The service's [`Lifecycle::accept`] and
//! [`Lifecycle::advance_to`] keep virtual time and `(instant, class,
//! job)` timers: a job starts at its quoted start and completes at its
//! promise. The simulator ([`crate::system`]) fires the same transitions
//! from its event queue: a start once the nodes are claimed, a completion
//! when the work is done, a requeue when a node under the job fails.
//!
//! What it does **not** own is what "book it" and "release it" mean. A
//! committed job holds a *commitment* of type `C`, produced by the
//! closure handed to the commit (or requeue) and handed back to the
//! closure given to cancel, complete or requeue when the job lets go of
//! its nodes. A [`NegotiationSession`] and the simulator commit one
//! `ReservationId` in their own book; the service's cross-shard
//! coordinator commits one reservation slice per shard. Nothing else
//! differs between them, so nothing else is a parameter.
//!
//! # The journal grammar
//!
//! What a well-formed job journal is, stated once: the lines one job's
//! journal may hold, in the order they may come, as the lifecycle writes
//! them — with the simulator's `checkpoint_*` lines and its `node_failed`
//! line naming the victim before each requeue. [`JournalPhase::step`]
//! reads a job's lines one [`JournalLine`] at a time; a phase is the set of
//! [`Fact`]s the lines so far established, and every line makes its job
//! `known`. A line earns an [`OrderCode`] wherever the table below says
//! so, then sets and clears its facts whatever it earned. The `end` row is
//! read once per job when the journal ends. The journal doctor runs
//! exactly this table, and the span builder reads each job's phase from
//! it.
//!
//! | line | earns | sets | clears |
//! |---|---|---|---|
//! | `job_submitted` | `duplicate_submit` if `quoted` or `ended` | | |
//! | `quote_negotiated` | `negotiate_before_submit` unless `known` | `quoted` | |
//! | `job_rejected` | | `ended` | |
//! | `job_placed` | `place_before_negotiate` unless `quoted` | | |
//! | `job_started` | `start_before_negotiate` unless `quoted`; `double_start` if `running` | `running` | `requested` `down` |
//! | `checkpoint_requested` | `ckpt_outside_run` unless `running`; `double_request` if `requested` | `requested` | |
//! | `checkpoint_taken` | `ckpt_finish_without_request` unless `requested` | | `requested` |
//! | `checkpoint_skipped` | `ckpt_finish_without_request` unless `requested` | | `requested` |
//! | `node_failed{victim}` | `victim_not_running` unless `running` | `down` | `running` `requested` |
//! | `job_requeued` | `requeue_while_running` if `running` | | |
//! | `job_completed{met}` | `complete_without_start` unless `running` | `ended` | `running` `late` |
//! | `job_completed{late}` | `complete_without_start` unless `running` | `ended` `late` | `running` |
//! | `deadline_missed` | `orphan_deadline_missed` unless `late` | | `late` |
//! | `job_cancelled` | `cancel_without_submit` unless `known`; `cancel_while_running` if `running`; `cancel_after_done` if `ended` | `ended` `cancelled` | `running` `requested` |
//! | `promise_resolved` | `orphan_promise_resolved` unless `quoted`; `duplicate_promise_resolution` if `resolved` | `resolved` | |
//! | `end` | `missed_deadline_not_journaled` if `late`; `unfinished_job` unless `ended` | | |
//!
//! `transition_table` walks every cell's journal through the grammar: a
//! transition the table does not know fails this crate's own tests before
//! any journal reaches the doctor.
//!
//! [`NegotiationSession`]: crate::session::NegotiationSession

use crate::config::SimConfig;
use crate::negotiate::{negotiate_batch, NegotiationOutcome, NegotiationRequest, Quote};
use pqos_ckpt::model::planned_execution;
use pqos_predict::api::Predictor;
use pqos_sched::reservation::AvailabilityView;
use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
use pqos_telemetry::{PromiseVerdict, Telemetry, TelemetryEvent};
use pqos_workload::job::{JobId, JobMap};
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;

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
    /// Journals and tallies the verdict on `id`'s promise.
    fn resolve(
        &mut self,
        telemetry: &Telemetry,
        at: SimTime,
        id: JobId,
        held: &HeldQuote,
        verdict: PromiseVerdict,
    ) {
        let quoted = held.quote.promised_success();
        telemetry.emit(|| TelemetryEvent::PromiseResolved {
            at,
            job: id.as_u64(),
            success_probability: quoted,
            deadline_secs: held.deadline.as_secs(),
            verdict,
        });
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

/// Where a job is in its lifecycle. A live job (in `Lifecycle::jobs`) is
/// quoted, accepted or running; an ended one is only its id and one of
/// the last two phases (in `Lifecycle::ended`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Quoted, not yet accepted.
    Quoted,
    /// Committed or requeued; commitment held; not yet started.
    Accepted,
    /// Between journaled start and completion (or requeue).
    Running,
    /// Completed (journaled).
    Done,
    /// Cancelled (journaled).
    Cancelled,
}

#[derive(Debug)]
struct Job<C> {
    phase: Phase,
    /// The quote as admitted: once committed, the promise, which a
    /// requeue never re-negotiates.
    held: HeldQuote,
    /// What the job holds in the books while accepted or running: after
    /// a requeue, the placement the requeue found.
    commitment: Option<C>,
}

/// `id`'s entry in `jobs`, if it is in `phase`.
fn in_phase<C>(jobs: &mut JobMap<Job<C>>, id: JobId, phase: Phase) -> Option<&mut Job<C>> {
    jobs.get_mut(&id).filter(|job| job.phase == phase)
}

/// Journals `job_placed`: the partition `quote` runs `id` on, in node
/// indices offset by `node_base`.
fn journal_placement(telemetry: &Telemetry, node_base: u64, at: SimTime, id: JobId, quote: &Quote) {
    telemetry.emit(|| TelemetryEvent::JobPlaced {
        at,
        job: id.as_u64(),
        nodes: quote
            .partition
            .iter()
            .map(|n| n.index() as u64 + node_base)
            .collect(),
        failure_probability: quote.failure_probability,
    });
}

/// Timer order-classes: completions at an instant free their nodes before
/// same-instant starts claim theirs (the journal invariant the doctor's
/// occupancy check enforces).
const COMPLETION: u8 = 0;
const START: u8 = 1;

/// Total checkpointed execution time planned for `runtime` of useful
/// work: the duration a quote reserves and the base of its slack.
pub(crate) fn planned_total(config: &SimConfig, runtime: SimDuration) -> SimDuration {
    planned_execution(
        runtime,
        config.checkpoint_interval,
        config.checkpoint_overhead,
    )
    .total
}

/// The job state machine, generic over the commitment `C` a committed job
/// holds. See the [module docs](self).
#[derive(Debug)]
pub struct Lifecycle<C> {
    telemetry: Telemetry,
    /// The served driver's virtual time (the simulator leaves it at zero
    /// and hands every transition its instant).
    now: SimTime,
    quote_horizon: Option<SimDuration>,
    /// Offset added to node indices in journaled placements.
    node_base: u64,
    /// The live jobs: quoted, accepted or running. A job leaves at
    /// completion or cancellation, and its held quote with it, so the
    /// table is the size of the work in flight.
    jobs: JobMap<Job<C>>,
    /// How each job that left `jobs` ended: [`Phase::Done`] or
    /// [`Phase::Cancelled`]. It keeps the answers a late `accept`,
    /// `cancel` or re-quote of the id gets, and [`Self::holds`].
    ended: JobMap<Phase>,
    /// The served driver's pending instants: (time, order-class, job).
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
            jobs: JobMap::default(),
            ended: JobMap::default(),
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
    pub(crate) fn set_node_base(&mut self, base: u64) {
        self.node_base = base;
    }

    /// Current virtual time.
    pub(crate) fn now(&self) -> SimTime {
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
        self.jobs.len()
    }

    /// Whether the lifecycle knows `id`: a held quote, or a job accepted,
    /// running, finished or cancelled. Rejected ids and expired quotes
    /// leave no trace.
    pub fn holds(&self, id: JobId) -> bool {
        self.jobs.contains_key(&id) || self.ended.contains_key(&id)
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
    pub(crate) fn within_horizon(
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
    /// replaces the previous pending quote. An id already accepted,
    /// running, done or cancelled is never replaced: the request is
    /// answered `Rejected` and journals nothing, so the id's journal stays
    /// one lifecycle.
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
        let at = self.now;
        // Submissions first: the doctor requires job_submitted before the
        // accepted quote, and a batch is one virtual instant.
        for &(id, req) in requests {
            if !self.refuses(id) {
                self.submit(at, id, req);
            }
        }
        requests
            .iter()
            .zip(outcomes)
            .map(
                |(&(id, req), outcome)| match self.decide(at, config, id, req, outcome) {
                    Some(held) => QuoteDecision::Quoted(held.clone()),
                    None => QuoteDecision::Rejected,
                },
            )
            .collect()
    }

    /// Journals `id`'s submission at `at`: the first half of admitting it.
    pub(crate) fn submit(&self, at: SimTime, id: JobId, req: AdmissionRequest) {
        self.telemetry.emit(|| TelemetryEvent::JobSubmitted {
            at,
            job: id.as_u64(),
            size: req.size,
            runtime_secs: req.runtime.as_secs(),
        });
    }

    /// The second half: journals a rejection, or holds the quote with its
    /// effective deadline — the promise plus the configured slack fraction
    /// of the planned execution, saturating at the end of time.
    pub(crate) fn decide(
        &mut self,
        at: SimTime,
        config: &SimConfig,
        id: JobId,
        req: AdmissionRequest,
        outcome: Option<NegotiationOutcome>,
    ) -> Option<&HeldQuote> {
        if self.refuses(id) {
            // The id already names a committed or ended job; refusing
            // without a journal line keeps the journal's
            // one-lifecycle-per-id invariant.
            self.stats.rejected += 1;
            return None;
        }
        let Some(outcome) = self.within_horizon(outcome) else {
            self.telemetry.emit(|| TelemetryEvent::JobRejected {
                at,
                job: id.as_u64(),
            });
            self.stats.rejected += 1;
            return None;
        };
        let slack = SimDuration::from_secs(
            (planned_total(config, req.runtime).as_secs() as f64 * config.deadline_slack) as u64,
        );
        let job = Job {
            phase: Phase::Quoted,
            held: HeldQuote {
                deadline: outcome.accepted.deadline.saturating_add(slack),
                quote: outcome.accepted,
                satisfied_threshold: outcome.satisfied_threshold,
            },
            commitment: None,
        };
        self.stats.quoted += 1;
        Some(&self.jobs.entry(id).insert_entry(job).into_mut().held)
    }

    /// Whether `id` names a committed or ended job, which no re-quote
    /// may replace.
    fn refuses(&self, id: JobId) -> bool {
        self.ended.contains_key(&id) || self.jobs.get(&id).is_some_and(|j| j.phase != Phase::Quoted)
    }

    /// Commits a held quote at the current virtual time. `book` is asked
    /// to commit the quoted partition for the quoted window and answers
    /// with what the job now holds, or `None` when a competing commitment
    /// took the slot; only then are the accepted quote and placement
    /// journaled. The job will start and complete as virtual time passes
    /// the committed instants.
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
        let now = self.now;
        let held = self.commit(id, now, book)?.clone();
        // A start already in the past (time moved while the client decided)
        // fires on the next advance; the run still ends at the promise.
        self.timers.insert((held.quote.start.max(now), START, id));
        Ok(held)
    }

    /// Quoted → Accepted at `at`: [`Self::accept`] without the start
    /// timer. The accepted quote is a promise, resolved by the terminal
    /// transition.
    pub(crate) fn commit(
        &mut self,
        id: JobId,
        at: SimTime,
        book: impl FnOnce(&HeldQuote, TimeWindow) -> Option<C>,
    ) -> Result<&HeldQuote, AcceptError> {
        let entry = match self.jobs.entry(id) {
            Entry::Occupied(job) if job.get().phase == Phase::Quoted => job,
            _ => return Err(AcceptError::UnknownQuote),
        };
        let held = &entry.get().held;
        let window = TimeWindow::new(held.quote.start, held.quote.deadline);
        let commitment = (at < held.quote.deadline)
            .then(|| book(held, window))
            .flatten();
        let Some(commitment) = commitment else {
            entry.remove();
            self.stats.expired += 1;
            return Err(AcceptError::QuoteExpired);
        };
        let job = entry.into_mut();
        job.phase = Phase::Accepted;
        job.commitment = Some(commitment);
        let held = &job.held;
        self.telemetry.emit(|| TelemetryEvent::QuoteNegotiated {
            at,
            job: id.as_u64(),
            start_secs: held.quote.start.as_secs(),
            promised_secs: held.quote.deadline.as_secs(),
            deadline_secs: held.deadline.as_secs(),
            success_probability: held.quote.promised_success(),
        });
        journal_placement(&self.telemetry, self.node_base, at, id, &held.quote);
        self.stats.accepted += 1;
        self.promises.made += 1;
        Ok(held)
    }

    /// A committed job's held quote and what it holds in the books.
    pub(crate) fn placement(&self, id: JobId) -> Option<(&HeldQuote, &C)> {
        let job = self.jobs.get(&id)?;
        Some((&job.held, job.commitment.as_ref()?))
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
        let Entry::Occupied(entry) = self.jobs.entry(id) else {
            return Err(match self.ended.get(&id) {
                Some(Phase::Done) => CancelError::AlreadyStarted,
                _ => CancelError::UnknownJob,
            });
        };
        let was_accepted = match entry.get().phase {
            Phase::Quoted => false,
            Phase::Accepted => true,
            _ => return Err(CancelError::AlreadyStarted),
        };
        let mut job = entry.remove();
        self.ended.insert(id, Phase::Cancelled);
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
            let verdict = PromiseVerdict::Cancelled;
            self.promises
                .resolve(&self.telemetry, self.now, id, &job.held, verdict);
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
            if class == COMPLETION {
                self.complete(job, when, &mut release);
            } else if let Some(held) = self.start(job, when, 0) {
                let end = held.quote.deadline.max(when);
                self.timers.insert((end, COMPLETION, job));
            }
        }
        self.now = self.now.max(to);
    }

    /// Accepted → Running at `at`, journaling the job's `restarts` (how
    /// many requeues it has been through). `None` unless `id` is accepted.
    pub(crate) fn start(&mut self, id: JobId, at: SimTime, restarts: u32) -> Option<&HeldQuote> {
        let job = in_phase(&mut self.jobs, id, Phase::Accepted)?;
        job.phase = Phase::Running;
        self.telemetry.emit(|| TelemetryEvent::JobStarted {
            at,
            job: id.as_u64(),
            restarts,
        });
        self.stats.started += 1;
        Some(&job.held)
    }

    /// Running → Accepted at `at`: a node failure took the job down with
    /// `remaining` of its work left. `rebook` is handed the job's
    /// commitment and answers with a fresh placement and what the job now
    /// holds; `job_requeued` and the new placement's `job_placed` are
    /// journaled. The promise is never re-negotiated — the later
    /// `promise_resolved` carries the committed quote's p and deadline, so
    /// a failure cannot walk back the system's word. `None` unless `id` is
    /// running; else the fresh placement.
    pub(crate) fn requeue(
        &mut self,
        id: JobId,
        at: SimTime,
        remaining: SimDuration,
        rebook: impl FnOnce(C) -> (Quote, C),
    ) -> Option<Quote> {
        let job = in_phase(&mut self.jobs, id, Phase::Running)?;
        let old = job.commitment.take().expect("running: committed");
        self.telemetry.emit(|| TelemetryEvent::JobRequeued {
            at,
            job: id.as_u64(),
            remaining_secs: remaining.as_secs(),
        });
        let (quote, commitment) = rebook(old);
        journal_placement(&self.telemetry, self.node_base, at, id, &quote);
        job.phase = Phase::Accepted;
        job.commitment = Some(commitment);
        Some(quote)
    }

    /// Running → Done at `at`, handing the commitment to `release`:
    /// journals the completion, the miss if `at` is past the effective
    /// deadline, and the promise's verdict. The job leaves the live table;
    /// its held quote is returned. `None` unless `id` is running.
    pub(crate) fn complete(
        &mut self,
        id: JobId,
        at: SimTime,
        release: impl FnOnce(C),
    ) -> Option<HeldQuote> {
        let Entry::Occupied(entry) = self.jobs.entry(id) else {
            return None;
        };
        if entry.get().phase != Phase::Running {
            return None;
        }
        let job = entry.remove();
        self.ended.insert(id, Phase::Done);
        let deadline = job.held.deadline;
        let met_deadline = at <= deadline;
        release(job.commitment.expect("running: committed"));
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
        self.promises
            .resolve(&self.telemetry, at, id, &job.held, verdict);
        self.stats.completed += 1;
        Some(job.held)
    }
}

pqos_telemetry::wire_enum! {
    /// One job-scoped journal line as the [grammar](self#the-journal-grammar)
    /// reads it: its kind, with `job_completed` told apart by its verdict
    /// and `node_failed` read only when it names a victim.
    pub enum JournalLine {
        /// `job_submitted`.
        Submitted = "job_submitted",
        /// `quote_negotiated`.
        Negotiated = "quote_negotiated",
        /// `job_rejected`.
        Rejected = "job_rejected",
        /// `job_placed`.
        Placed = "job_placed",
        /// `job_started`.
        Started = "job_started",
        /// `checkpoint_requested`.
        CheckpointRequested = "checkpoint_requested",
        /// `checkpoint_taken`.
        CheckpointTaken = "checkpoint_taken",
        /// `checkpoint_skipped`.
        CheckpointSkipped = "checkpoint_skipped",
        /// `node_failed` naming the job as its victim.
        VictimFailed = "node_failed{victim}",
        /// `job_requeued`.
        Requeued = "job_requeued",
        /// `job_completed` with `met_deadline: true`.
        CompletedOnTime = "job_completed{met}",
        /// `job_completed` with `met_deadline: false`.
        CompletedLate = "job_completed{late}",
        /// `deadline_missed`.
        DeadlineMissed = "deadline_missed",
        /// `job_cancelled`.
        Cancelled = "job_cancelled",
        /// `promise_resolved`.
        PromiseResolved = "promise_resolved",
        /// The end of the journal, read once per job after its last line.
        End = "end",
    }
}

pqos_telemetry::wire_enum! {
    /// A fact a job's journal lines establish; a [`JournalPhase`] is a set
    /// of them.
    pub enum Fact {
        /// Some line named the job.
        Known = "known",
        /// Its quote was committed (`quote_negotiated`).
        Quoted = "quoted",
        /// An attempt is running.
        Running = "running",
        /// A checkpoint request awaits its outcome.
        Requested = "requested",
        /// A failure killed the last attempt, which has not restarted.
        Down = "down",
        /// The last completion was late, and its `deadline_missed` is owed.
        Late = "late",
        /// Rejected, completed or cancelled.
        Ended = "ended",
        /// Cancelled.
        Cancelled = "cancelled",
        /// Its promise resolved.
        Resolved = "resolved",
    }
}

pqos_telemetry::wire_enum! {
    /// Why a job's journal is not a word of the grammar: a line that may
    /// not come where it does, or a journal that ends where no job may.
    pub enum OrderCode {
        /// A submission for a job already quoted or ended.
        DuplicateSubmit = "duplicate_submit",
        /// A quote for a job nothing named before.
        NegotiateBeforeSubmit = "negotiate_before_submit",
        /// A placement before any quote.
        PlaceBeforeNegotiate = "place_before_negotiate",
        /// A start before any quote.
        StartBeforeNegotiate = "start_before_negotiate",
        /// A start while an attempt runs.
        DoubleStart = "double_start",
        /// A checkpoint request outside a running attempt.
        CkptOutsideRun = "ckpt_outside_run",
        /// A checkpoint request with one outstanding.
        DoubleRequest = "double_request",
        /// A checkpoint taken or skipped with no request outstanding.
        CkptFinishWithoutRequest = "ckpt_finish_without_request",
        /// A failure naming as its victim a job that is not running.
        VictimNotRunning = "victim_not_running",
        /// A requeue while an attempt runs.
        RequeueWhileRunning = "requeue_while_running",
        /// A completion with no running attempt.
        CompleteWithoutStart = "complete_without_start",
        /// A cancellation of a job nothing named before.
        CancelWithoutSubmit = "cancel_without_submit",
        /// A cancellation while an attempt runs.
        CancelWhileRunning = "cancel_while_running",
        /// A cancellation of an ended job.
        CancelAfterDone = "cancel_after_done",
        /// A `deadline_missed` no late completion owes.
        OrphanDeadlineMissed = "orphan_deadline_missed",
        /// A promise resolved with no quote.
        OrphanPromiseResolved = "orphan_promise_resolved",
        /// A promise resolved twice.
        DuplicatePromiseResolution = "duplicate_promise_resolution",
        /// The journal ends owing a late completion its `deadline_missed`.
        MissedDeadlineNotJournaled = "missed_deadline_not_journaled",
        /// The journal ends with the job neither rejected, completed nor
        /// cancelled (a truncated journal, or a quote never accepted).
        UnfinishedJob = "unfinished_job",
    }
}

impl Fact {
    const fn bit(self) -> u16 {
        1 << self as u16
    }
}

/// When a line earns an [`OrderCode`]: if, or unless, the phase holds
/// one of the facts.
#[derive(Debug, Clone, Copy)]
enum When {
    If(&'static [Fact]),
    Unless(&'static [Fact]),
}

/// One row of the grammar: the codes a line earns, in order, then the
/// facts it sets and the facts it clears.
type Rule = (
    &'static [(OrderCode, When)],
    &'static [Fact],
    &'static [Fact],
);

impl JournalLine {
    /// The job a journal line is about, and the line as the grammar reads
    /// it; `None` for lines about no job.
    pub fn of(event: &TelemetryEvent) -> Option<(u64, JournalLine)> {
        use TelemetryEvent as E;
        Some(match *event {
            E::JobSubmitted { job, .. } => (job, JournalLine::Submitted),
            E::QuoteNegotiated { job, .. } => (job, JournalLine::Negotiated),
            E::JobRejected { job, .. } => (job, JournalLine::Rejected),
            E::JobPlaced { job, .. } => (job, JournalLine::Placed),
            E::JobStarted { job, .. } => (job, JournalLine::Started),
            E::CheckpointRequested { job, .. } => (job, JournalLine::CheckpointRequested),
            E::CheckpointTaken { job, .. } => (job, JournalLine::CheckpointTaken),
            E::CheckpointSkipped { job, .. } => (job, JournalLine::CheckpointSkipped),
            E::NodeFailed {
                victim_job: Some(job),
                ..
            } => (job, JournalLine::VictimFailed),
            E::JobRequeued { job, .. } => (job, JournalLine::Requeued),
            E::JobCompleted {
                job,
                met_deadline: true,
                ..
            } => (job, JournalLine::CompletedOnTime),
            E::JobCompleted { job, .. } => (job, JournalLine::CompletedLate),
            E::DeadlineMissed { job, .. } => (job, JournalLine::DeadlineMissed),
            E::JobCancelled { job, .. } => (job, JournalLine::Cancelled),
            E::PromiseResolved { job, .. } => (job, JournalLine::PromiseResolved),
            E::NodeFailed { .. } | E::NodeRecovered { .. } | E::SloAlert { .. } => return None,
        })
    }

    /// The per-job journal grammar, one row per line; the module docs
    /// print it as a table.
    #[rustfmt::skip]
    fn rule(self) -> Rule {
        use Fact::*;
        use JournalLine as L;
        use OrderCode as C;
        use When::{If, Unless};
        match self {
            L::Submitted => (&[(C::DuplicateSubmit, If(&[Quoted, Ended]))], &[], &[]),
            L::Negotiated => (&[(C::NegotiateBeforeSubmit, Unless(&[Known]))], &[Quoted], &[]),
            L::Rejected => (&[], &[Ended], &[]),
            L::Placed => (&[(C::PlaceBeforeNegotiate, Unless(&[Quoted]))], &[], &[]),
            L::Started => (
                &[(C::StartBeforeNegotiate, Unless(&[Quoted])), (C::DoubleStart, If(&[Running]))],
                &[Running], &[Requested, Down],
            ),
            L::CheckpointRequested => (
                &[(C::CkptOutsideRun, Unless(&[Running])), (C::DoubleRequest, If(&[Requested]))],
                &[Requested], &[],
            ),
            L::CheckpointTaken | L::CheckpointSkipped => {
                (&[(C::CkptFinishWithoutRequest, Unless(&[Requested]))], &[], &[Requested])
            }
            L::VictimFailed => (&[(C::VictimNotRunning, Unless(&[Running]))], &[Down], &[Running, Requested]),
            L::Requeued => (&[(C::RequeueWhileRunning, If(&[Running]))], &[], &[]),
            L::CompletedOnTime => (&[(C::CompleteWithoutStart, Unless(&[Running]))], &[Ended], &[Running, Late]),
            L::CompletedLate => (&[(C::CompleteWithoutStart, Unless(&[Running]))], &[Ended, Late], &[Running]),
            L::DeadlineMissed => (&[(C::OrphanDeadlineMissed, Unless(&[Late]))], &[], &[Late]),
            L::Cancelled => (
                &[
                    (C::CancelWithoutSubmit, Unless(&[Known])),
                    (C::CancelWhileRunning, If(&[Running])),
                    (C::CancelAfterDone, If(&[Ended])),
                ],
                &[Ended, Cancelled], &[Running, Requested],
            ),
            L::PromiseResolved => (
                &[(C::OrphanPromiseResolved, Unless(&[Quoted])), (C::DuplicatePromiseResolution, If(&[Resolved]))],
                &[Resolved], &[],
            ),
            L::End => (
                &[(C::MissedDeadlineNotJournaled, If(&[Late])), (C::UnfinishedJob, Unless(&[Ended]))],
                &[], &[],
            ),
        }
    }
}

/// Where a job's journal has left it: the set of [`Fact`]s its lines have
/// established. The default is a job no line has named.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalPhase(u16);

impl JournalPhase {
    /// Whether the job's lines have established `fact`.
    pub fn has(self, fact: Fact) -> bool {
        self.0 & fact.bit() != 0
    }

    /// Whether the phase holds any of `facts`.
    fn any(self, facts: &[Fact]) -> bool {
        facts.iter().any(|&fact| self.has(fact))
    }

    /// Reads one more of the job's lines: the phase after it, and the
    /// codes the line earns here, in table order. The line's facts are set
    /// and cleared whatever it earned, so one misplaced line is one
    /// finding, not a cascade.
    pub fn step(self, line: JournalLine) -> (JournalPhase, impl Iterator<Item = OrderCode>) {
        let (earns, sets, clears) = line.rule();
        let bits = |facts: &[Fact]| facts.iter().fold(0, |bits, fact| bits | fact.bit());
        let next = (self.0 | Fact::Known.bit() | bits(sets)) & !bits(clears);
        let earned = earns.iter().filter_map(move |&(code, when)| match when {
            When::If(facts) => self.any(facts).then_some(code),
            When::Unless(facts) => (!self.any(facts)).then_some(code),
        });
        (JournalPhase(next), earned)
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

    /// Where a requeue re-places the job: nodes {2, 3} from t=300 by
    /// t=400 with p=0.5 — none of which may touch the promise.
    fn requeued() -> Quote {
        Quote {
            start: SimTime::from_secs(300),
            deadline: SimTime::from_secs(400),
            partition: Partition::contiguous(2, 2),
            failure_probability: 0.5,
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
        /// Driven by the simulator's ops alone (no served timer): committed
        /// at t=0, started at t=120, requeued at t=160.
        Requeued,
        /// Requeued, then started again.
        Restarted,
        /// Restarted, then completed by the simulator's op at t=250.
        Completed,
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
        /// The simulator's start at t=170, the job's first restart.
        Start,
        /// The simulator's completion at t=250, past the promise.
        Complete,
        /// The simulator's requeue at t=160 with 40 s of work left, onto
        /// [`requeued`].
        Requeue,
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
                Op::Start => format!("{:?}", self.jobs.start(ID, SimTime::from_secs(170), 1)),
                Op::Complete => {
                    let done = self.jobs.complete(ID, SimTime::from_secs(250), |()| {
                        *released += 1;
                    });
                    format!("{done:?}")
                }
                Op::Requeue => {
                    let left = SimDuration::from_secs(40);
                    let placed = self.jobs.requeue(ID, SimTime::from_secs(160), left, |()| {
                        *released += 1;
                        *booked += 1;
                        (requeued(), ())
                    });
                    format!("{placed:?}")
                }
            }
        }

        fn reach(from: Given) -> Self {
            let mut w = World::new();
            if matches!(from, Given::Requeued | Given::Restarted | Given::Completed) {
                w.apply(Op::Requote);
                w.jobs.commit(ID, SimTime::ZERO, |_, _| Some(())).unwrap();
                w.jobs.start(ID, SimTime::from_secs(120), 0).unwrap();
                w.apply(Op::Requeue);
                if from != Given::Requeued {
                    w.apply(Op::Start);
                }
                if from == Given::Completed {
                    w.apply(Op::Complete);
                }
                return w;
            }
            let path: &[Op] = match from {
                Given::Absent => &[],
                Given::Quoted => &[Op::Requote],
                Given::QuotedExpired => &[Op::Requote],
                Given::Accepted => &[Op::Requote, Op::AcceptBooked],
                Given::Running => &[Op::Requote, Op::AcceptBooked, Op::AdvancePastStart],
                Given::Done => &[Op::Requote, Op::AcceptBooked, Op::AdvancePastDeadline],
                Given::Cancelled => &[Op::Requote, Op::AcceptBooked, Op::Cancel],
                Given::Requeued | Given::Restarted | Given::Completed => {
                    unreachable!("reached above")
                }
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

        /// The id's phase, read from the live table, else the table of
        /// ended jobs.
        fn phase(&self) -> Option<Phase> {
            let live = self.jobs.jobs.get(&ID).map(|j| j.phase);
            live.or_else(|| self.jobs.ended.get(&ID).copied())
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
    fn restarted() -> String {
        r#"{"event":"job_started","at":170,"job":7,"restarts":1}"#.to_string()
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
            G::Absent
            | G::Quoted
            | G::Accepted
            | G::Cancelled
            | G::Requeued
            | G::Restarted
            | G::Completed => 0,
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
                G::Accepted | G::Requeued => Some(Phase::Accepted),
                G::Running | G::Restarted => Some(Phase::Running),
                G::Done | G::Completed => Some(Phase::Done),
                G::Cancelled => Some(Phase::Cancelled),
            },
            live: usize::from(matches!(
                from,
                G::Quoted
                    | G::QuotedExpired
                    | G::Accepted
                    | G::Running
                    | G::Requeued
                    | G::Restarted
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
            // A committed or ended id refuses it and journals nothing: no
            // second submission, no second verdict.
            (
                G::Accepted
                | G::Running
                | G::Done
                | G::Cancelled
                | G::Requeued
                | G::Restarted
                | G::Completed,
                Op::Requote,
            ) => Cell {
                stats: SessionStats { rejected: 1, ..zero },
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
            // A requeued job cancels like any accepted one: its fresh
            // commitment is released and its first promise voided.
            (G::Accepted | G::Requeued, Op::Cancel) => Cell {
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
            (G::Running | G::Done | G::Restarted | G::Completed, Op::Cancel) => {
                unchanged("Err(AlreadyStarted)")
            }
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
            // The caller's restart count is what the start journals.
            (G::Accepted | G::Requeued, Op::Start) => Cell {
                next: Some(Phase::Running),
                stats: SessionStats { started: 1, ..zero },
                journal: vec![restarted()],
                ..unchanged(&format!("{:?}", Some(held())))
            },
            (_, Op::Start) => unchanged("None"),
            // The fresh commitment replaces the old one and the new
            // partition is journaled; the promise stays as committed.
            (G::Running | G::Restarted, Op::Requeue) => Cell {
                next: Some(Phase::Accepted),
                booked: 1,
                released: 1,
                journal: vec![
                    r#"{"event":"job_requeued","at":160,"job":7,"remaining_secs":40}"#.to_string(),
                    r#"{"event":"job_placed","at":160,"job":7,"nodes":[2,3],"failure_probability":0.5}"#.to_string(),
                ],
                ..unchanged(&format!("{:?}", Some(requeued())))
            },
            (_, Op::Requeue) => unchanged("None"),
            // The trap: after a requeue onto p=0.5 by t=400 the promise
            // resolved is still the committed p=0.75 by t=200 — and a
            // finish at t=250 breaks it.
            (G::Running | G::Restarted, Op::Complete) => Cell {
                next: Some(Phase::Done),
                live: 0,
                stats: SessionStats { completed: 1, ..zero },
                // One promise quoted at 0.75 and broken: observed 0.0.
                promises: PromiseStats { broken: 1, worst_residual_milli: -750, ..none },
                released: 1,
                journal: vec![
                    r#"{"event":"job_completed","at":250,"job":7,"met_deadline":false}"#.to_string(),
                    r#"{"event":"deadline_missed","at":250,"job":7,"late_by_secs":50}"#.to_string(),
                    r#"{"event":"promise_resolved","at":250,"job":7,"success_probability":0.75,"deadline_secs":200,"verdict":"broken"}"#.to_string(),
                ],
                ..unchanged(&format!("{:?}", Some(held())))
            },
            (_, Op::Complete) => unchanged("None"),
            // No timer pending: the clock moves (never backwards) and
            // nothing else does.
            (_, Op::AdvancePastStart) => unchanged(&format!("now={}", at.max(150))),
            (_, Op::AdvancePastDeadline) => unchanged("now=250"),
        }
    }

    /// Every phase × every op: the returned value, the next phase, the
    /// live count, which counters moved, how often the booking and
    /// release closures ran, and the exact journal lines. The served
    /// driver's ops (accept, cancel, advance) and the simulator's (start,
    /// complete and requeue at the caller's instant) share the table.
    ///
    /// A done or cancelled job is no longer in the live table — only its
    /// id and how it ended are kept, which is what keeps the table the
    /// size of the work in flight — yet it still answers as it did when
    /// it stayed: `cancel` of a done id is `AlreadyStarted`, of a
    /// cancelled one `UnknownJob`, `accept` is `UnknownQuote`, a re-quote
    /// is refused and journals nothing, and `holds` stays true.
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
            Given::Requeued,
            Given::Restarted,
            Given::Completed,
        ];
        let ops = [
            Op::Requote,
            Op::AcceptBooked,
            Op::AcceptRefused,
            Op::Cancel,
            Op::AdvancePastStart,
            Op::AdvancePastDeadline,
            Op::Start,
            Op::Complete,
            Op::Requeue,
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
                let live = matches!(
                    want.next,
                    Some(Phase::Quoted | Phase::Accepted | Phase::Running)
                );
                assert_eq!(
                    w.jobs.jobs.contains_key(&ID),
                    live,
                    "{cell}: in the live table"
                );
                assert_eq!(w.jobs.holds(ID), want.next.is_some(), "{cell}: holds");
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
                // The path's lines and the op's are a word of the journal
                // grammar that ends where the cell does. A journal cannot
                // tell an expired quote from a held one: both are a lone
                // submission.
                let expired = (want.stats.expired > 0).then_some(Phase::Quoted);
                assert_eq!(walk(&w.journal()), want.next.or(expired), "{cell}: grammar");
            }
        }
    }

    /// Reads one job's `journal` through the grammar, requiring that no
    /// line earns a code, and answers the phase the lifecycle must be in
    /// for a journal to end there. The simulator journals the failure
    /// behind each requeue, so its victim line is read before each
    /// `job_requeued`.
    fn walk(journal: &[String]) -> Option<Phase> {
        let mut phase = JournalPhase::default();
        for text in journal {
            let event = TelemetryEvent::from_jsonl(text).expect("a journal line");
            let (_, line) = JournalLine::of(&event).expect("a job's line");
            let failure = (line == JournalLine::Requeued).then_some(JournalLine::VictimFailed);
            for line in failure.into_iter().chain([line]) {
                let (next, earned) = phase.step(line);
                let earned: Vec<OrderCode> = earned.collect();
                assert_eq!(earned, [], "{text}");
                phase = next;
            }
        }
        let has = |fact| phase.has(fact);
        if has(Fact::Cancelled) {
            Some(Phase::Cancelled)
        } else if has(Fact::Ended) {
            Some(Phase::Done)
        } else if has(Fact::Running) {
            Some(Phase::Running)
        } else if has(Fact::Quoted) {
            Some(Phase::Accepted)
        } else {
            has(Fact::Known).then_some(Phase::Quoted)
        }
    }

    /// The grammar table in the module docs, and DESIGN's copy of it, are
    /// the rows `JournalLine::rule` states, in order.
    #[test]
    fn the_grammar_tables_in_the_docs_match_the_code() {
        let named = |facts: &[Fact], sep: &str| {
            let names: Vec<String> = facts.iter().map(|f| format!("`{}`", f.as_str())).collect();
            names.join(sep)
        };
        let rows: Vec<String> = JournalLine::ALL
            .iter()
            .map(|&line| {
                let (earns, sets, clears) = line.rule();
                let earns: Vec<String> = earns
                    .iter()
                    .map(|&(code, when)| match when {
                        When::If(facts) => {
                            format!("`{}` if {}", code.as_str(), named(facts, " or "))
                        }
                        When::Unless(facts) => {
                            format!("`{}` unless {}", code.as_str(), named(facts, " or "))
                        }
                    })
                    .collect();
                let cells = [
                    format!("`{}`", line.as_str()),
                    earns.join("; "),
                    named(sets, " "),
                    named(clears, " "),
                ];
                let cells = cells.map(|c| {
                    if c.is_empty() {
                        " ".into()
                    } else {
                        format!(" {c} ")
                    }
                });
                format!("|{}|", cells.join("|"))
            })
            .collect();
        let docs = [
            ("lifecycle.rs", include_str!("lifecycle.rs"), "//! "),
            ("DESIGN.md", include_str!("../../../DESIGN.md"), ""),
        ];
        for (name, text, prefix) in docs {
            let lines: Vec<&str> = text
                .lines()
                .filter_map(|l| l.strip_prefix(prefix))
                .collect();
            let head = lines
                .iter()
                .position(|l| *l == "| line | earns | sets | clears |")
                .unwrap_or_else(|| panic!("{name} holds the grammar table"));
            let table: Vec<&str> = lines[head + 2..]
                .iter()
                .take_while(|l| l.starts_with('|'))
                .copied()
                .collect();
            assert_eq!(table, rows, "{name}'s grammar table");
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
