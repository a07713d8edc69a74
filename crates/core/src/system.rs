//! The trace-driven simulator: the paper's seven event types (§4.1) wired
//! to the negotiation layer, the fault-aware scheduler, and cooperative
//! checkpointing.
//!
//! Event semantics follow §3.3–3.4:
//!
//! * every job receives a `(partition, interval)` commitment at submission
//!   (conservative backfilling) and *retains* it — there is no migration
//!   and no re-optimization of other jobs when something fails;
//! * a failed node takes any job running on it down with it; the job rolls
//!   back to the start of its last completed checkpoint and returns to the
//!   scheduler, which re-commits it to the earliest feasible slot (its
//!   negotiated deadline and promise are unchanged);
//! * failed nodes recover after the configured downtime;
//! * checkpoint requests fire after every interval `I` of useful progress
//!   and are granted or denied by the configured policy, with the
//!   deadline-aware override of §3.4.
//!
//! Every job transition — admit, commit, start, requeue, complete — is the
//! [`Lifecycle`] function the online service runs. The simulator keeps
//! what decides when each one happens, each job's checkpoint clock and one
//! per-node table: the running job claiming each node and each down node's
//! recovery instant.
//!
//! Events come from three sources, merged by `(time, priority)`: a cursor
//! over the job log (arrivals, in the log's `(arrival, id)` order), a
//! cursor over the failure trace (its `(time, node)` order, skipping nodes
//! outside the cluster), and an event queue holding only what a handler
//! scheduled — starts, checkpoint requests and completions, finishes,
//! recoveries. Arrivals and failures are the only events of their
//! priority classes, so two sources never tie and the merge pops exactly
//! the order one queue holding every event would. An event costs what is
//! in flight at its instant — the queue, the live jobs, the down nodes —
//! not the length of the log or the trace.

use crate::config::SimConfig;
use crate::lifecycle::{planned_total, AdmissionRequest, Lifecycle};
use crate::metrics::{RunTotals, SimReport};
use crate::negotiate::{negotiate_with_telemetry, NegotiationRequest};
use crate::user::UserStrategy;
use pqos_ckpt::policy::{
    decide_with_deadline, CheckpointContext, CheckpointDecision, CheckpointPolicy, DeadlinePressure,
};
use pqos_cluster::node::NodeId;
use pqos_cluster::partition::Partition;
use pqos_failures::trace::FailureTrace;
use pqos_predict::api::Predictor;
use pqos_predict::instrument::InstrumentedPredictor;
use pqos_predict::oracle::TraceOracle;
use pqos_sched::reservation::{ReservationBook, ReservationId};
use pqos_sim_core::queue::EventQueue;
use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
use pqos_telemetry::{Histogram, SkipReason, Snapshot, Telemetry, TelemetryEvent, Timer};
use pqos_workload::job::{Job, JobId, JobMap};
use pqos_workload::log::JobLog;
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Retry delay when a job's committed nodes are transiently unavailable at
/// its start instant (e.g. still claimed by a late predecessor).
const START_RETRY: SimDuration = SimDuration::from_secs(10);

/// Hands `partition`'s nodes back from `owner`. A node held by anyone
/// else means the claim table and the book disagree: that is a bug, not a
/// world to simulate on, so the check stays in release builds.
fn release(node_owner: &mut [Option<JobId>], owner: JobId, partition: &Partition) {
    for n in partition.iter() {
        assert_eq!(
            node_owner[n.index()].take(),
            Some(owner),
            "{owner} gives back {n}"
        );
    }
}

/// Same-time event ordering. Occupancy windows are end-exclusive — a job
/// scheduled over `[s, f)` is *gone* at instant `f` — so a finish at `t`
/// precedes a failure at `t` (otherwise a failure could kill a job whose
/// quoted, end-exclusive risk window honestly excluded it). Failures then
/// strike before any same-instant checkpoint completion ("the failure may
/// occur before the completion of checkpoint i", §3.4), releases precede
/// recoveries and arrivals, and starts claim nodes last.
fn priority(event: &Event) -> u8 {
    match event {
        Event::Finish { .. } => 0,
        Event::NodeFailure { .. } => 1,
        Event::CheckpointFinish { .. } => 2,
        Event::NodeRecovery { .. } => 3,
        Event::Arrival { .. } => 4,
        Event::CheckpointRequest { .. } => 5,
        Event::Start { .. } => 6,
    }
}

/// Result of one simulation run.
#[derive(Debug)]
pub struct SimOutput {
    /// Aggregated metrics.
    pub report: SimReport,
    /// Jobs that could never fit on the cluster (size > N) and were
    /// rejected at submission.
    pub rejected: Vec<JobId>,
    /// Final metrics snapshot when the run was telemetered (see
    /// [`QosSimulator::with_telemetry`]); `None` otherwise.
    pub telemetry: Option<Snapshot>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival { index: usize },
    Start { job: JobId, epoch: u32 },
    CheckpointRequest { job: JobId, epoch: u32 },
    CheckpointFinish { job: JobId, epoch: u32 },
    Finish { job: JobId, epoch: u32 },
    NodeFailure { index: usize },
    NodeRecovery { node: NodeId },
}

/// Wall-clock self-profiler for the dispatch loop: one histogram per event
/// kind (`dispatch.arrival`, `dispatch.finish`, ...), recording nanoseconds
/// per dispatched event so the `--metrics` snapshot answers "which event
/// kind costs the most sim wall-clock".
///
/// Histogram handles are minted once at construction; with disabled
/// telemetry they are all no-ops and [`DispatchProfiler::timer`] returns an
/// inert guard, so the untelemetered hot loop pays only an `Option` check
/// and never calls `Instant::now`.
struct DispatchProfiler {
    arrival: Histogram,
    start: Histogram,
    ckpt_request: Histogram,
    ckpt_finish: Histogram,
    finish: Histogram,
    node_failure: Histogram,
    node_recovery: Histogram,
}

impl DispatchProfiler {
    fn new(telemetry: &Telemetry) -> Self {
        DispatchProfiler {
            arrival: telemetry.histogram("dispatch.arrival_ns"),
            start: telemetry.histogram("dispatch.start_ns"),
            ckpt_request: telemetry.histogram("dispatch.ckpt_request_ns"),
            ckpt_finish: telemetry.histogram("dispatch.ckpt_finish_ns"),
            finish: telemetry.histogram("dispatch.finish_ns"),
            node_failure: telemetry.histogram("dispatch.node_failure_ns"),
            node_recovery: telemetry.histogram("dispatch.node_recovery_ns"),
        }
    }

    /// A scoped timer for one event: starts now, records into the kind's
    /// histogram when dropped (i.e. when the dispatch returns).
    fn timer(&self, event: &Event) -> Timer {
        let hist = match event {
            Event::Arrival { .. } => &self.arrival,
            Event::Start { .. } => &self.start,
            Event::CheckpointRequest { .. } => &self.ckpt_request,
            Event::CheckpointFinish { .. } => &self.ckpt_finish,
            Event::Finish { .. } => &self.finish,
            Event::NodeFailure { .. } => &self.node_failure,
            Event::NodeRecovery { .. } => &self.node_recovery,
        };
        hist.start_timer()
    }
}

/// A committed job's checkpoint clock. Its phase, promise and reservation
/// live in the simulator's [`Lifecycle`].
#[derive(Debug)]
struct JobState {
    job: Job,
    /// The attempt: bumped by every failure, so the killed attempt's
    /// pending events go stale. Also the job's restart count.
    epoch: u32,
    /// Useful work completed, updated at segment boundaries.
    done: SimDuration,
    /// Work protected by completed checkpoints.
    durable: SimDuration,
    /// Start of the current attempt.
    attempt_start: SimTime,
    /// Start of the current compute segment (or of the in-flight
    /// checkpoint).
    segment_start: SimTime,
    /// `cjx`: start time of the last completed checkpoint in this attempt,
    /// else the attempt start.
    rollback_anchor: SimTime,
    skipped_since_last: u64,
    ckpt_performed: u32,
    ckpt_skipped: u32,
}

impl JobState {
    /// Starts the next compute segment at `now`: the event that ends it,
    /// the next checkpoint request or the finish line.
    fn next_segment(&mut self, now: SimTime, interval: SimDuration) -> (SimTime, Event) {
        self.segment_start = now;
        let remaining = self.job.runtime() - self.done;
        let (job, epoch) = (self.job.id(), self.epoch);
        if remaining <= interval {
            (now + remaining, Event::Finish { job, epoch })
        } else {
            (now + interval, Event::CheckpointRequest { job, epoch })
        }
    }
}

/// The full probabilistic-QoS system simulator.
///
/// # Examples
///
/// ```
/// use pqos_core::config::SimConfig;
/// use pqos_core::system::QosSimulator;
/// use pqos_core::user::UserStrategy;
/// use pqos_failures::synthetic::AixLikeTrace;
/// use pqos_workload::synthetic::{LogModel, SyntheticLog};
/// use std::sync::Arc;
///
/// let log = SyntheticLog::new(LogModel::NasaIpsc).jobs(100).seed(1).build();
/// let trace = Arc::new(AixLikeTrace::new().days(30.0).seed(1).build());
/// let config = SimConfig::paper_defaults()
///     .accuracy(1.0)
///     .user(UserStrategy::risk_threshold(0.9).unwrap());
/// let output = QosSimulator::new(config, log, trace).run();
/// assert_eq!(output.report.jobs + output.rejected.len(), 100);
/// assert!(output.report.qos > 0.0);
/// ```
pub struct QosSimulator {
    config: SimConfig,
    /// Checkpoint clocks of the committed jobs not yet finished.
    jobs: JobMap<JobState>,
    /// Every job's lifecycle, committed to a reservation in `book`.
    lifecycle: Lifecycle<ReservationId>,
    arrival_order: Vec<Job>,
    /// The arrival cursor: `arrival_order[next_arrival]` arrives next.
    next_arrival: usize,
    trace: Arc<FailureTrace>,
    /// The failure cursor: the trace's next failure not yet replayed
    /// (possibly on a node outside the cluster, skipped when read).
    next_failure: usize,
    predictor: Arc<dyn Predictor + Send + Sync>,
    /// The predictor as built, for the telemetry's own hit/miss probe:
    /// `predictor` counts queries when telemetered, and a probe informs no
    /// decision.
    uncounted: Arc<dyn Predictor + Send + Sync>,
    /// Historical per-node failure rate (failures per node-second),
    /// estimated from the trace; feeds the base-rate checkpoint prior.
    baseline_node_rate: f64,
    policy: Box<dyn CheckpointPolicy>,
    book: ReservationBook,
    /// The events handlers scheduled; arrivals and failures stay in
    /// their cursors.
    events: EventQueue<Event>,
    /// The running job claiming each node, if any.
    node_owner: Vec<Option<JobId>>,
    /// Each down node's recovery instant; `None` while the node is up.
    down_until: Vec<Option<SimTime>>,
    /// How many nodes are down: a failure of an up node adds one, its
    /// recovery takes it away.
    nodes_down: usize,
    /// The report's running sums over finished jobs and lost work.
    totals: RunTotals,
    rejected: Vec<JobId>,
    failure_hook: Option<Box<dyn FnMut(NodeId, SimTime) + Send>>,
    telemetry: Telemetry,
    profiler: DispatchProfiler,
    /// `ckpt.request_pf` and `ckpt.work_at_risk_secs`: every request's
    /// `pf` and `d·I`, performed or skipped (the journal carries them for
    /// skips only).
    request_pf: Histogram,
    work_at_risk: Histogram,
}

impl std::fmt::Debug for QosSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QosSimulator")
            .field("config", &self.config)
            .field("jobs", &self.jobs.len())
            .field("policy", &self.policy.name())
            .field("pending_events", &self.events.len())
            .finish_non_exhaustive()
    }
}

impl QosSimulator {
    /// Builds a simulator over a job log and failure trace.
    ///
    /// # Panics
    ///
    /// Panics if the configured accuracy is outside `[0, 1]` (prevented by
    /// [`SimConfig::accuracy`]).
    pub fn new(config: SimConfig, log: JobLog, trace: Arc<FailureTrace>) -> Self {
        let oracle = TraceOracle::new(Arc::clone(&trace), config.accuracy)
            .expect("SimConfig validated accuracy");
        Self::with_predictor(config, log, trace, Arc::new(oracle))
    }

    /// Builds a simulator that consults an arbitrary predictor instead of
    /// the trace oracle — e.g. one of the online models from
    /// `pqos_predict::online`, or [`pqos_predict::api::NullPredictor`].
    ///
    /// The failure trace is still replayed as ground truth; only the
    /// *forecasts* change. `config.accuracy` is ignored in this mode.
    pub fn with_predictor(
        config: SimConfig,
        log: JobLog,
        trace: Arc<FailureTrace>,
        predictor: Arc<dyn Predictor + Send + Sync>,
    ) -> Self {
        let policy = config.checkpoint_policy.build();
        let book = ReservationBook::new(config.cluster_size);
        let n = config.cluster_size as usize;
        // Only failures on the cluster's own nodes are replayed, so only
        // they count toward its per-node rate; the span is the trace's.
        let span = trace.stats().span;
        let inside = trace
            .failures()
            .iter()
            .filter(|f| f.node.index() < n)
            .count();
        let baseline_node_rate = if span.is_zero() {
            0.0
        } else {
            inside as f64 / (span.as_secs() as f64 * f64::from(config.cluster_size))
        };
        QosSimulator {
            arrival_order: log.jobs().to_vec(),
            next_arrival: 0,
            jobs: JobMap::default(),
            lifecycle: Lifecycle::new(Telemetry::disabled()),
            trace,
            next_failure: 0,
            uncounted: Arc::clone(&predictor),
            predictor,
            baseline_node_rate,
            policy,
            book,
            events: EventQueue::new(),
            node_owner: vec![None; n],
            down_until: vec![None; n],
            nodes_down: 0,
            totals: RunTotals::default(),
            rejected: Vec::new(),
            failure_hook: None,
            telemetry: Telemetry::disabled(),
            profiler: DispatchProfiler::new(&Telemetry::disabled()),
            request_pf: Histogram::default(),
            work_at_risk: Histogram::default(),
            config,
        }
    }

    /// Installs a hook invoked at every replayed node failure (whether or
    /// not a job was hit), before the scheduler reacts. Used to feed
    /// online predictors during the run (see
    /// `pqos_predict::online::SharedRateEstimator`) or for custom
    /// instrumentation.
    pub fn with_failure_hook(mut self, hook: Box<dyn FnMut(NodeId, SimTime) + Send>) -> Self {
        self.failure_hook = Some(hook);
        self
    }

    /// Attaches a telemetry handle: lifecycle events flow to its journal
    /// sinks and decision metrics to its registry, surfaced as
    /// [`SimOutput::telemetry`] after the run.
    ///
    /// What happened to jobs and checkpoints is recorded once, in the
    /// journal; the snapshot's `journal.<kind>` gauges count it, and the
    /// registry holds only what no journal line carries. With an enabled
    /// handle the predictor is wrapped in a transparent counting adapter
    /// ([`InstrumentedPredictor`]); a disabled handle leaves the simulator
    /// exactly as built, so the default path pays nothing.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        if telemetry.is_enabled() {
            self.predictor = Arc::new(InstrumentedPredictor::new(
                Arc::clone(&self.predictor),
                telemetry.clone(),
            ));
        }
        self.profiler = DispatchProfiler::new(&telemetry);
        self.request_pf = telemetry.histogram("ckpt.request_pf");
        self.work_at_risk = telemetry.histogram("ckpt.work_at_risk_secs");
        self.lifecycle = Lifecycle::new(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// Runs the simulation to completion and returns the output.
    pub fn run(mut self) -> SimOutput {
        while let Some((now, event)) = self.next_event() {
            let timer = self.profiler.timer(&event);
            self.dispatch(now, event);
            timer.stop();
        }
        self.output()
    }

    /// Takes the next event due: the least by `(time, priority)` of the
    /// event queue's head and the two cursors' heads (see the module
    /// docs for why no two of them can tie).
    fn next_event(&mut self) -> Option<(SimTime, Event)> {
        let failures = self.trace.failures();
        let cluster = self.config.cluster_size as usize;
        while failures
            .get(self.next_failure)
            .is_some_and(|f| f.node.index() >= cluster)
        {
            self.next_failure += 1;
        }
        let failure = failures.get(self.next_failure).map(|f| {
            let event = Event::NodeFailure {
                index: self.next_failure,
            };
            (f.time, event)
        });
        let arrival = self.arrival_order.get(self.next_arrival).map(|job| {
            let event = Event::Arrival {
                index: self.next_arrival,
            };
            (job.arrival(), event)
        });
        let mut next = self.events.peek_key().map(|key| (key, None));
        for (at, event) in failure.into_iter().chain(arrival) {
            let key = (at, priority(&event));
            if next.is_none_or(|(best, _)| key < best) {
                next = Some((key, Some(event)));
            }
        }
        match next? {
            (_, None) => self.events.pop(),
            ((at, _), Some(event)) => {
                match event {
                    Event::NodeFailure { .. } => self.next_failure += 1,
                    _ => self.next_arrival += 1,
                }
                Some((at, event))
            }
        }
    }

    /// The run's output, once no event is left.
    fn output(self) -> SimOutput {
        let report = self.totals.report(self.config.cluster_size);
        self.telemetry.flush();
        SimOutput {
            report,
            rejected: self.rejected,
            telemetry: self.telemetry.snapshot(),
        }
    }

    fn dispatch(&mut self, now: SimTime, event: Event) {
        match event {
            Event::Arrival { index } => self.on_arrival(now, index),
            Event::Start { job, epoch } => self.on_start(now, job, epoch),
            Event::CheckpointRequest { job, epoch } => self.on_ckpt_request(now, job, epoch),
            Event::CheckpointFinish { job, epoch } => self.on_ckpt_finish(now, job, epoch),
            Event::Finish { job, epoch } => self.on_finish(now, job, epoch),
            Event::NodeFailure { index } => self.on_failure(now, index),
            Event::NodeRecovery { node } => self.on_recovery(now, node),
        }
    }

    fn push_event(&mut self, at: SimTime, event: Event) {
        self.events.push_with_priority(at, priority(&event), event);
    }

    fn down_nodes(&self) -> (Vec<NodeId>, SimTime) {
        let mut down = Vec::new();
        let mut horizon = SimTime::ZERO;
        if self.nodes_down == 0 {
            // Downtime is minutes against failures days apart: nearly
            // every negotiation finds the whole cluster up.
            return (down, horizon);
        }
        for (i, until) in self.down_until.iter().enumerate() {
            if let Some(until) = *until {
                down.push(NodeId::new(i as u32));
                horizon = horizon.max(until);
            }
        }
        (down, horizon)
    }

    fn on_arrival(&mut self, now: SimTime, index: usize) {
        let job = self.arrival_order[index];
        let id = job.id();
        let admission = AdmissionRequest {
            size: job.nodes(),
            runtime: job.runtime(),
        };
        self.lifecycle.submit(now, id, admission);
        let (down, horizon) = self.down_nodes();
        let outcome = negotiate_with_telemetry(
            &self.book,
            self.config.topology,
            self.config.placement,
            &self.predictor,
            NegotiationRequest {
                size: job.nodes(),
                duration: planned_total(&self.config, job.runtime()),
                now,
                down: &down,
                recovery_horizon: horizon,
                pre_start_risk: self.config.node_downtime,
            },
            &self.config.user,
            self.config.max_negotiation_slots,
            self.config.max_probe_steps,
            &self.telemetry,
        );
        if let Some(outcome) = &outcome {
            self.telemetry
                .histogram("negotiate.quotes_examined")
                .observe(outcome.quotes_examined as f64);
            if !outcome.satisfied_threshold {
                self.telemetry.counter("negotiate.fallbacks").inc();
            }
        }
        let decision = self
            .lifecycle
            .decide(now, &self.config, id, admission, outcome);
        if decision.is_none() {
            self.rejected.push(id);
            return;
        }
        let book = &mut self.book;
        let start = self
            .lifecycle
            .commit(id, now, |held, window| {
                book.add(id, held.quote.partition.clone(), window).ok()
            })
            .expect("negotiated slot must be reservable")
            .quote
            .start;
        self.jobs.insert(
            id,
            JobState {
                job,
                epoch: 0,
                done: SimDuration::ZERO,
                durable: SimDuration::ZERO,
                attempt_start: start,
                segment_start: start,
                rollback_anchor: start,
                skipped_since_last: 0,
                ckpt_performed: 0,
                ckpt_skipped: 0,
            },
        );
        self.push_event(start, Event::Start { job: id, epoch: 0 });
    }

    fn on_start(&mut self, now: SimTime, id: JobId, epoch: u32) {
        let Some(state) = self.jobs.get_mut(&id).filter(|s| s.epoch == epoch) else {
            return;
        };
        let (_, &reservation) = self.lifecycle.placement(id).expect("job is committed");
        let partition = &self.book.get(reservation).expect("booked").partition;
        let free = |n: NodeId| {
            self.node_owner[n.index()].is_none() && self.down_until[n.index()].is_none()
        };
        if !partition.iter().all(free) {
            // A member node is down or still claimed by a late predecessor.
            // Retry once the known recoveries have passed, else shortly.
            let retry = partition
                .iter()
                .filter_map(|n| self.down_until[n.index()])
                .fold(now + START_RETRY, SimTime::max);
            self.push_event(retry, Event::Start { job: id, epoch });
            return;
        }
        for n in partition.iter() {
            self.node_owner[n.index()] = Some(id);
        }
        self.lifecycle.start(id, now, epoch);
        state.attempt_start = now;
        state.rollback_anchor = now;
        state.skipped_since_last = 0;
        // A restarted attempt resumes useful work at once: the paper's
        // recovery overhead is R = 0 (§4.4).
        let (at, next) = state.next_segment(now, self.config.checkpoint_interval);
        self.push_event(at, next);
    }

    fn on_ckpt_request(&mut self, now: SimTime, id: JobId, epoch: u32) {
        let overhead = self.config.checkpoint_overhead;
        let interval = self.config.checkpoint_interval;

        let Some(state) = self.jobs.get_mut(&id).filter(|s| s.epoch == epoch) else {
            return;
        };
        self.telemetry.emit(|| TelemetryEvent::CheckpointRequested {
            at: now,
            job: id.as_u64(),
        });
        let (held, &reservation) = self.lifecycle.placement(id).expect("job is committed");
        let partition = &self.book.get(reservation).expect("booked").partition;
        // One interval of work has just completed.
        let done = state.done + (now - state.segment_start);
        let remaining = state.job.runtime() - done;
        debug_assert!(!remaining.is_zero(), "request at finish boundary");

        // Risk window: from this request through completion of the *next*
        // checkpoint (f_{i+1} in the paper's notation).
        let risk_window =
            TimeWindow::starting_at(now, overhead.saturating_mul(2) + interval.min(remaining));
        let pf = self
            .predictor
            .failure_probability(partition.as_slice(), risk_window);
        // Base-rate probability of losing this partition over the same
        // window, from the historical failure rate.
        let baseline = 1.0
            - (-self.baseline_node_rate
                * partition.len() as f64
                * risk_window.length().as_secs() as f64)
                .exp();

        // Deadline pressure (§3.4): performing now — even if every future
        // checkpoint is skipped — would miss the deadline, while skipping
        // keeps it reachable.
        let deadline = held.deadline;
        let miss_if_perform = now + overhead + remaining > deadline;
        let meet_if_skip = now + remaining <= deadline;
        let pressure = if miss_if_perform && meet_if_skip {
            DeadlinePressure::SkipToMeet
        } else {
            DeadlinePressure::None
        };
        let ctx = CheckpointContext {
            now,
            interval,
            overhead,
            skipped_since_last: state.skipped_since_last,
            failure_probability: pf,
            baseline_failure_probability: baseline,
            deadline_pressure: pressure,
        };
        let decision = decide_with_deadline(&*self.policy, &ctx);
        self.request_pf.observe(pf);
        self.work_at_risk.observe(ctx.at_risk().as_secs() as f64);

        state.done = done;
        let (at, next) = match decision {
            CheckpointDecision::Perform => {
                state.segment_start = now;
                state.ckpt_performed += 1;
                (now + overhead, Event::CheckpointFinish { job: id, epoch })
            }
            CheckpointDecision::Skip => {
                state.skipped_since_last += 1;
                state.ckpt_skipped += 1;
                self.telemetry.emit(|| {
                    // Attribution mirrors the decision path: the deadline
                    // override wins, then Eq. 1's expected-loss test, and
                    // anything else is the policy's own business (periodic
                    // phase, checkpointing disabled, ...).
                    let eq1_low = pf * (ctx.at_risk().as_secs() as f64) < overhead.as_secs() as f64;
                    let reason = if pressure == DeadlinePressure::SkipToMeet {
                        SkipReason::DeadlinePressure
                    } else if eq1_low {
                        SkipReason::LowRisk
                    } else {
                        SkipReason::Policy
                    };
                    TelemetryEvent::CheckpointSkipped {
                        at: now,
                        job: id.as_u64(),
                        reason,
                        failure_probability: pf,
                        at_risk_secs: ctx.at_risk().as_secs(),
                    }
                });
                state.next_segment(now, interval)
            }
        };
        self.push_event(at, next);
    }

    fn on_ckpt_finish(&mut self, now: SimTime, id: JobId, epoch: u32) {
        let Some(state) = self.jobs.get_mut(&id).filter(|s| s.epoch == epoch) else {
            return;
        };
        state.durable = state.done;
        // cjx is the *start* of the last successful checkpoint (§3.5).
        state.rollback_anchor = state.segment_start;
        state.skipped_since_last = 0;
        let overhead = self.config.checkpoint_overhead;
        self.telemetry.emit(|| TelemetryEvent::CheckpointTaken {
            at: now,
            job: id.as_u64(),
            overhead_secs: overhead.as_secs(),
        });
        let (at, next) = state.next_segment(now, self.config.checkpoint_interval);
        self.push_event(at, next);
    }

    fn on_finish(&mut self, now: SimTime, id: JobId, epoch: u32) {
        let state = match self.jobs.entry(id) {
            Entry::Occupied(e) if e.get().epoch == epoch => e.remove(),
            _ => return,
        };
        let (book, owners) = (&mut self.book, &mut self.node_owner);
        let held = self
            .lifecycle
            .complete(id, now, |reservation| {
                let partition = book.remove(reservation).expect("booked").partition;
                release(owners, id, &partition);
            })
            .expect("a finishing job is running");
        self.totals.finish(
            &state.job,
            &held,
            state.attempt_start,
            now,
            state.epoch,
            (state.ckpt_performed, state.ckpt_skipped),
        );
    }

    fn on_failure(&mut self, now: SimTime, index: usize) {
        let node = self.trace.failures()[index].node;
        if let Some(hook) = self.failure_hook.as_mut() {
            hook(node, now);
        }
        let until = now + self.config.node_downtime;
        let was_up = self.down_until[node.index()].replace(until).is_none();
        self.nodes_down += usize::from(was_up);
        self.push_event(until, Event::NodeRecovery { node });

        // ω_lost contribution: wall-clock since the last checkpoint started
        // (or the attempt began), times the job's size. Only a running job
        // claims nodes.
        let victim = self.node_owner[node.index()].map(|id| {
            let state = &self.jobs[&id];
            let lost = now
                .saturating_since(state.rollback_anchor)
                .as_secs()
                .saturating_mul(u64::from(state.job.nodes()));
            (id, lost)
        });

        if self.telemetry.is_enabled() {
            // Hit/miss accounting: did the predictor flag this node for the
            // instant the failure struck? (Pure query — safe to make on the
            // telemetered path only.)
            let strike = TimeWindow::starting_at(now, SimDuration::from_secs(1));
            let predicted = self.uncounted.node_failure_probability(node, strike) > 0.0;
            self.telemetry
                .counter(if predicted {
                    "failures.predicted"
                } else {
                    "failures.missed"
                })
                .inc();
            self.telemetry.emit(|| TelemetryEvent::NodeFailed {
                at: now,
                node: node.index() as u64,
                victim_job: victim.map(|(id, _)| id.as_u64()),
                lost_node_seconds: victim.map_or(0, |(_, lost)| lost),
                predicted,
            });
        }

        let Some((victim, lost)) = victim else {
            return;
        };
        let state = self
            .jobs
            .get_mut(&victim)
            .expect("owner map tracks live jobs");
        self.totals.lose(lost);
        state.epoch += 1;
        state.done = state.durable;
        self.requeue(now, victim);
    }

    /// Re-commits a failed job to the earliest feasible slot. The deadline
    /// and promise are unchanged — re-negotiation after a failure would let
    /// the system walk back its word.
    fn requeue(&mut self, now: SimTime, id: JobId) {
        let state = &self.jobs[&id];
        let (size, epoch) = (state.job.nodes(), state.epoch);
        let remaining = state.job.runtime() - state.durable;
        let (down, horizon) = self.down_nodes();
        let (book, owners) = (&mut self.book, &mut self.node_owner);
        let (config, predictor, telemetry) = (&self.config, &self.predictor, &self.telemetry);
        let placed = self.lifecycle.requeue(id, now, remaining, |reservation| {
            let partition = book.remove(reservation).expect("booked").partition;
            release(owners, id, &partition);
            let quote = negotiate_with_telemetry(
                &*book,
                config.topology,
                config.placement,
                predictor,
                NegotiationRequest {
                    size,
                    duration: planned_total(config, remaining),
                    now,
                    down: &down,
                    recovery_horizon: horizon,
                    pre_start_risk: config.node_downtime,
                },
                // Earliest restart gives the best chance of still making
                // the already-negotiated deadline.
                &UserStrategy::AlwaysEarliest,
                config.max_negotiation_slots,
                config.max_probe_steps,
                telemetry,
            )
            .expect("job fit the cluster at submission")
            .accepted;
            let window = TimeWindow::new(quote.start, quote.deadline);
            let reservation = book
                .add(id, quote.partition.clone(), window)
                .expect("negotiated slot must be reservable");
            (quote, reservation)
        });
        let start = placed.expect("a failed job was running").start;
        self.push_event(start, Event::Start { job: id, epoch });
    }

    fn on_recovery(&mut self, now: SimTime, node: NodeId) {
        // A newer failure may have extended the downtime; only the final
        // recovery brings the node up. Coincident failures schedule duplicate
        // recoveries at the same instant, so also skip nodes already up.
        let slot = &mut self.down_until[node.index()];
        if slot.is_some_and(|until| until <= now) {
            *slot = None;
            self.nodes_down -= 1;
            self.telemetry.emit(|| TelemetryEvent::NodeRecovered {
                at: now,
                node: node.index() as u64,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheckpointPolicyKind;
    use pqos_failures::trace::Failure;
    use pqos_sim_core::time::SimDuration;
    use std::collections::HashMap;

    fn job(id: u64, arrive: u64, nodes: u32, runtime: u64) -> Job {
        Job::new(
            JobId::new(id),
            SimTime::from_secs(arrive),
            nodes,
            SimDuration::from_secs(runtime),
        )
        .unwrap()
    }

    fn trace(failures: Vec<(u64, u32, f64)>) -> Arc<FailureTrace> {
        Arc::new(
            FailureTrace::new(
                failures
                    .into_iter()
                    .map(|(t, n, px)| Failure {
                        time: SimTime::from_secs(t),
                        node: NodeId::new(n),
                        detectability: px,
                    })
                    .collect(),
            )
            .unwrap(),
        )
    }

    fn small_config() -> SimConfig {
        SimConfig::paper_defaults().cluster_size_nodes(4)
    }

    /// Runs `sim` with a journal ring; returns the output and the journal.
    fn run_journaled(sim: QosSimulator) -> (SimOutput, Vec<TelemetryEvent>) {
        let telemetry = pqos_telemetry::Telemetry::builder()
            .ring_buffer(4096)
            .build();
        let out = sim.with_telemetry(telemetry.clone()).run();
        let events = telemetry.ring_events();
        assert!(events.len() < 4096, "the ring kept the whole journal");
        (out, events)
    }

    /// The instants of the journal's `kind` lines, in journal order: a
    /// job's finish is its `job_completed`, its last start `sj` its last
    /// `job_started`.
    fn instants(events: &[TelemetryEvent], kind: &str) -> Vec<SimTime> {
        events
            .iter()
            .filter(|e| e.name() == kind)
            .map(TelemetryEvent::at)
            .collect()
    }

    /// The one `promise_resolved` line's promise and deadline.
    fn resolved(events: &[TelemetryEvent]) -> (f64, SimTime) {
        let mut lines = events.iter().filter_map(|e| match e {
            TelemetryEvent::PromiseResolved {
                success_probability,
                deadline_secs,
                ..
            } => Some((*success_probability, SimTime::from_secs(*deadline_secs))),
            _ => None,
        });
        let line = lines.next().expect("a resolved promise");
        assert!(lines.next().is_none(), "one job, one promise");
        line
    }

    #[test]
    fn failure_free_run_completes_everything_on_time() {
        let log = JobLog::new(vec![job(0, 0, 2, 100), job(1, 10, 2, 100)]).unwrap();
        let out = QosSimulator::new(small_config(), log, trace(vec![])).run();
        assert_eq!(out.report.jobs, 2);
        assert_eq!(out.report.deadline_misses, 0);
        assert_eq!(out.report.lost_work, 0);
        assert!((out.report.qos - 1.0).abs() < 1e-12);
        assert!(out.rejected.is_empty());
    }

    #[test]
    fn serial_jobs_when_machine_too_small() {
        // Two 3-node jobs on a 4-node machine must run serially.
        let log = JobLog::new(vec![job(0, 0, 3, 100), job(1, 0, 3, 100)]).unwrap();
        let (out, journal) = run_journaled(QosSimulator::new(small_config(), log, trace(vec![])));
        assert_eq!(out.report.jobs, 2);
        let finishes = instants(&journal, "job_completed");
        assert!(finishes.contains(&SimTime::from_secs(100)));
        assert!(finishes.contains(&SimTime::from_secs(200)));
        assert_eq!(
            out.report.deadline_misses, 0,
            "promised deadlines account for queueing"
        );
    }

    #[test]
    fn oversized_job_is_rejected() {
        let log = JobLog::new(vec![job(0, 0, 99, 100)]).unwrap();
        let out = QosSimulator::new(small_config(), log, trace(vec![])).run();
        assert_eq!(out.report.jobs, 0);
        assert_eq!(out.rejected, vec![JobId::new(0)]);
    }

    #[test]
    fn undetected_failure_kills_and_restarts_job() {
        // One 2-node job; node 0 fails at t=50 with px=0.9, invisible at
        // a=0. No checkpoints possible (runtime < I). The job restarts from
        // scratch after the failure and finishes late.
        let log = JobLog::new(vec![job(0, 0, 2, 100)]).unwrap();
        let (out, journal) = run_journaled(QosSimulator::new(
            small_config().accuracy(0.0),
            log,
            trace(vec![(50, 0, 0.9)]),
        ));
        assert_eq!(out.report.jobs, 1);
        assert_eq!(out.report.job_failures, 1);
        // Lost work: 50 s × 2 nodes.
        assert_eq!(out.report.lost_work, 100);
        assert_eq!(out.report.deadline_misses, 1);
        assert_eq!(out.report.qos, 0.0);
        let finish = instants(&journal, "job_completed")[0];
        assert!(finish.as_secs() >= 150, "finish {finish}");
    }

    #[test]
    fn predicted_failure_is_avoided_by_placement() {
        // Node 0 fails at t=50, fully detectable. The 2-node job fits on
        // nodes 1-3 avoiding it entirely, even for an earliest-deadline
        // user (placement dodges within the same slot).
        let log = JobLog::new(vec![job(0, 0, 2, 100)]).unwrap();
        let out =
            QosSimulator::new(small_config().accuracy(1.0), log, trace(vec![(50, 0, 0.5)])).run();
        assert_eq!(out.report.job_failures, 0);
        assert_eq!(out.report.lost_work, 0);
        assert_eq!(out.report.deadline_misses, 0);
        assert!((out.report.qos - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cautious_user_waits_out_unavoidable_failure() {
        // Every node fails detectably at t=50 (px=0.4 → promise 0.6).
        // A U=0.9 user extends the deadline past the failures; an
        // earliest-deadline user gets hit.
        let failures = vec![(50, 0, 0.4), (50, 1, 0.4), (50, 2, 0.4), (50, 3, 0.4)];
        let log = JobLog::new(vec![job(0, 0, 4, 100)]).unwrap();

        let (cautious, cautious_journal) = run_journaled(QosSimulator::new(
            small_config()
                .accuracy(1.0)
                .user(UserStrategy::risk_threshold(0.9).unwrap()),
            log.clone(),
            trace(failures.clone()),
        ));
        assert_eq!(cautious.report.job_failures, 0);
        assert_eq!(cautious.report.deadline_misses, 0);
        assert!((cautious.report.qos - 1.0).abs() < 1e-12);
        // The job waited: its start is after the failure burst.
        let last_start = *instants(&cautious_journal, "job_started").last().unwrap();
        assert!(last_start > SimTime::from_secs(50));

        let (bold, bold_journal) = run_journaled(QosSimulator::new(
            small_config().accuracy(1.0),
            log,
            trace(failures),
        ));
        assert_eq!(bold.report.job_failures, 1);
        // Promise was honest: 0.6 — and the deadline was missed, so QoS
        // collects nothing.
        assert_eq!(bold.report.deadline_misses, 1);
        assert_eq!(bold.report.qos, 0.0);
        assert!((resolved(&bold_journal).0 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn periodic_checkpointing_bounds_lost_work() {
        // Long job (3 h) with I=1 h, C=100 s; node fails at t=2.5 h,
        // undetectable. With periodic checkpointing the rollback is at most
        // I + C wall-clock.
        let config = SimConfig {
            checkpoint_overhead: SimDuration::from_secs(100),
            ..SimConfig::paper_defaults()
        }
        .cluster_size_nodes(2)
        .accuracy(0.0)
        .checkpoint_policy(CheckpointPolicyKind::Periodic);
        let log = JobLog::new(vec![job(0, 0, 1, 3 * 3600)]).unwrap();
        let out = QosSimulator::new(config, log.clone(), trace(vec![(9000, 0, 0.9)])).run();
        assert_eq!(out.report.job_failures, 1);
        // Last checkpoint started at 7300 (3600 work + 100 C + 3600 work);
        // failure at 9000 → lost 1700 node-s (1 node).
        assert_eq!(out.report.lost_work, 1700);

        // Same scenario without checkpointing loses the whole 9000 s.
        let none = SimConfig::paper_defaults()
            .cluster_size_nodes(2)
            .accuracy(0.0)
            .checkpoint_policy(CheckpointPolicyKind::None);
        let out2 = QosSimulator::new(none, log, trace(vec![(9000, 0, 0.9)])).run();
        assert_eq!(out2.report.lost_work, 9000);
        assert!(out2.report.lost_work > out.report.lost_work);
    }

    #[test]
    fn risk_based_checkpoints_only_before_predicted_failures() {
        // 4-hour 1-node job on a 1-node cluster; failure at t=2.2 h with
        // px=0.3, fully detectable but unavoidable (only one node). The
        // risk-based policy performs the checkpoint request at t=1h? No:
        // pf over [3600, 3600+I+2C] covers 2.2h=7920 < 3600+5040 → pf=0.3;
        // Eq.1: 0.3·3600=1080 ≥ 720 → perform. So the rollback anchor is
        // close to the failure and little is lost.
        let config = SimConfig::paper_defaults()
            .cluster_size_nodes(1)
            .accuracy(1.0)
            .checkpoint_policy(CheckpointPolicyKind::RiskBased);
        let log = JobLog::new(vec![job(0, 0, 1, 4 * 3600)]).unwrap();
        let out = QosSimulator::new(config, log, trace(vec![(7920, 0, 0.3)])).run();
        assert_eq!(out.report.job_failures, 1);
        // Exactly one checkpoint: the request at t=3600 sees the predicted
        // failure and performs; post-restart requests see pf = 0 and the
        // literal Eq. 1 skips them.
        assert_eq!(out.report.checkpoints_performed, 1);
        assert!(out.report.checkpoints_skipped >= 2);
        // Lost work ≤ failure time − checkpoint start = 7920 − 3600.
        assert!(
            out.report.lost_work <= 4320,
            "lost {}",
            out.report.lost_work
        );
        assert_eq!(out.report.jobs, 1);
    }

    #[test]
    fn deterministic_replay() {
        let log = JobLog::new(
            (0..20)
                .map(|i| job(i, i * 50, (i % 3 + 1) as u32, 500))
                .collect(),
        )
        .unwrap();
        let t = trace(vec![(300, 0, 0.2), (800, 2, 0.6), (2000, 1, 0.9)]);
        let a = QosSimulator::new(small_config().accuracy(0.5), log.clone(), Arc::clone(&t)).run();
        let b = QosSimulator::new(small_config().accuracy(0.5), log, t).run();
        assert_eq!(a.report, b.report);
        assert_eq!(a.rejected, b.rejected);
    }

    #[test]
    fn node_recovers_after_downtime() {
        // Failure at t=50 on the only node, which stays down until t=170
        // (120 s restart). The job arrives at t=60 while the node is down,
        // so negotiation excludes it and pushes the start out to the
        // recovery horizon at t=170.
        let log = JobLog::new(vec![job(0, 60, 1, 100)]).unwrap();
        let (out, journal) = run_journaled(QosSimulator::new(
            SimConfig::paper_defaults()
                .cluster_size_nodes(1)
                .accuracy(0.0),
            log,
            trace(vec![(50, 0, 0.9)]),
        ));
        assert_eq!(out.report.jobs, 1);
        let last_start = *instants(&journal, "job_started").last().unwrap();
        assert!(last_start >= SimTime::from_secs(170), "start {last_start}");
        assert_eq!(out.report.deadline_misses, 0);
    }

    #[test]
    fn a_failure_during_downtime_extends_it() {
        use pqos_telemetry::Telemetry;
        // The only node fails at t=50 (down until 170) and again at t=100,
        // which moves its recovery to 220. The job arrives at t=60 and is
        // quoted a start at the 170 horizon; the recovery scheduled for 170
        // is stale, so the start waits for the one at 220.
        let log = JobLog::new(vec![job(0, 60, 1, 100)]).unwrap();
        let sink = Shared::default();
        let out = QosSimulator::new(
            SimConfig::paper_defaults()
                .cluster_size_nodes(1)
                .accuracy(0.0),
            log,
            trace(vec![(50, 0, 0.9), (100, 0, 0.9)]),
        )
        .with_telemetry(Telemetry::builder().jsonl_writer(sink.clone()).build())
        .run();
        let journal = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let starts: Vec<&str> = journal
            .lines()
            .filter(|l| l.contains(r#""event":"job_started""#))
            .collect();
        assert!(starts.last().unwrap().contains(r#""at":220,"#), "{journal}");
        let recoveries: Vec<&str> = journal
            .lines()
            .filter(|l| l.contains(r#""event":"node_recovered""#))
            .collect();
        assert_eq!(recoveries.len(), 1, "{journal}");
        assert!(recoveries[0].contains(r#""at":220"#), "{}", recoveries[0]);
        let snap = out.telemetry.expect("telemetered run has a snapshot");
        assert_eq!(snap.gauge("journal.node_failed"), Some(2));
        assert_eq!(snap.gauge("journal.node_recovered"), Some(1));
    }

    /// A late predecessor breaks a certain promise: the `start-slip-chain`
    /// cause of ROADMAP's finding "the simulator's promises fail the
    /// promise audit at full scale", which the attribution item must name
    /// and the "p means p" item must price.
    ///
    /// Node 1 fails idle at t=150, unseen at a=0, and is down until 270.
    /// Job 2 (both nodes, quoted [200, 300) at p=1) waits for it and
    /// finishes 70 s late: `start-slip-down`. Job 3 (both nodes, quoted
    /// [300, 400) at p=1) has no failure anywhere near its window and no
    /// failure, requeue or checkpoint of its own, yet starts 70 s late
    /// behind job 2, because a job keeps its reservation and retries its
    /// start until its nodes are free (§3.3). The test pins that
    /// keep-and-retry semantics, not the quote: a quote model that prices
    /// the slip changes only the quote assertions.
    #[test]
    fn a_late_predecessor_breaks_a_certain_promise() {
        use pqos_telemetry::PromiseVerdict;
        let config = SimConfig::paper_defaults()
            .cluster_size_nodes(2)
            .accuracy(0.0);
        let downtime = config.node_downtime;
        let log = JobLog::new(vec![
            job(0, 0, 1, 200),
            job(1, 0, 1, 100),
            job(2, 1, 2, 100),
            job(3, 2, 2, 100),
        ])
        .unwrap();
        let failures = trace(vec![(150, 1, 0.9)]);
        let (_, journal) = run_journaled(QosSimulator::new(config, log, Arc::clone(&failures)));
        let quote = |job: u64| {
            journal
                .iter()
                .find_map(|e| match e {
                    TelemetryEvent::QuoteNegotiated {
                        job: j,
                        start_secs,
                        promised_secs,
                        success_probability,
                        ..
                    } if *j == job => Some((*start_secs, *promised_secs, *success_probability)),
                    _ => None,
                })
                .expect("a quote")
        };
        let starts = |job: u64| -> Vec<u64> {
            journal
                .iter()
                .filter_map(|e| match e {
                    TelemetryEvent::JobStarted { at, job: j, .. } if *j == job => {
                        Some(at.as_secs())
                    }
                    _ => None,
                })
                .collect()
        };
        let late_by = |job: u64| {
            journal.iter().find_map(|e| match e {
                TelemetryEvent::DeadlineMissed {
                    job: j,
                    late_by_secs,
                    ..
                } if *j == job => Some(*late_by_secs),
                _ => None,
            })
        };
        let verdict = |job: u64| {
            journal.iter().find_map(|e| match e {
                TelemetryEvent::PromiseResolved {
                    job: j, verdict, ..
                } if *j == job => Some(*verdict),
                _ => None,
            })
        };

        // Job 2: its own member is down at its quoted start.
        assert_eq!(quote(2), (200, 300, 1.0));
        let down: Vec<(u64, u64)> = journal
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::NodeFailed { at, node, .. }
                | TelemetryEvent::NodeRecovered { at, node } => Some((at.as_secs(), *node)),
                _ => None,
            })
            .collect();
        assert_eq!(down, vec![(150, 1), (270, 1)], "node 1 is down 150..270");
        assert_eq!(starts(2), vec![270]);
        assert_eq!(late_by(2), Some(70));

        // Job 3: nothing of its own, and no failure in its window.
        let (start, end, p) = quote(3);
        assert_eq!((start, end, p), (300, 400, 1.0));
        let exposed = (start - downtime.as_secs(), end);
        assert_eq!(exposed, (180, 400));
        assert!(
            failures
                .failures()
                .iter()
                .all(|f| !(exposed.0..exposed.1).contains(&f.time.as_secs())),
            "no failure in [180, 400)"
        );
        assert!(!journal.iter().any(|e| matches!(
            e,
            TelemetryEvent::NodeFailed {
                victim_job: Some(3),
                ..
            } | TelemetryEvent::JobRequeued { job: 3, .. }
                | TelemetryEvent::CheckpointRequested { job: 3, .. }
                | TelemetryEvent::CheckpointTaken { job: 3, .. }
                | TelemetryEvent::CheckpointSkipped { job: 3, .. }
        )));
        assert_eq!(starts(3), vec![370], "behind job 2");
        assert_eq!(verdict(3), Some(PromiseVerdict::Broken));
        assert_eq!(late_by(3), Some(70));
    }

    #[test]
    fn the_base_rate_prior_counts_only_failures_inside_the_cluster() {
        // Every failure strikes node 7 of a 1-node cluster: none is
        // replayed, so none may raise the prior's per-node rate, and the
        // blind (a=0) prior skips both of the 3-h job's checkpoints.
        let failures: Vec<(u64, u32, f64)> = (1..240).map(|k| (k * 3000, 7, 0.9)).collect();
        let config = SimConfig::paper_defaults()
            .cluster_size_nodes(1)
            .accuracy(0.0)
            .checkpoint_policy(CheckpointPolicyKind::RiskBasedWithPrior);
        let log = JobLog::new(vec![job(0, 0, 1, 3 * 3600)]).unwrap();
        let out = QosSimulator::new(config, log, trace(failures)).run();
        // One job: the run's checkpoint counts are its own.
        assert_eq!(out.report.jobs, 1);
        let r = &out.report;
        assert_eq!((r.checkpoints_performed, r.checkpoints_skipped), (0, 2));
    }

    #[test]
    fn checkpoint_overhead_extends_finish_but_not_runtime_metric() {
        // 2-hour job with periodic checkpointing: one checkpoint → finish
        // at 2h + C; utilization counts only ej.
        let config = SimConfig::paper_defaults()
            .cluster_size_nodes(1)
            .checkpoint_policy(CheckpointPolicyKind::Periodic);
        let log = JobLog::new(vec![job(0, 0, 1, 7200)]).unwrap();
        let (out, journal) = run_journaled(QosSimulator::new(config, log, trace(vec![])));
        assert_eq!(
            instants(&journal, "job_completed"),
            [SimTime::from_secs(7200 + 720)]
        );
        assert_eq!(out.report.checkpoints_performed, 1);
        assert_eq!(out.report.total_work, 7200);
        assert_eq!(out.report.deadline_misses, 0, "deadline included overhead");
    }

    #[test]
    fn null_predictor_matches_zero_accuracy_oracle() {
        use pqos_predict::api::NullPredictor;
        let log = JobLog::new(
            (0..30)
                .map(|i| job(i, i * 40, (i % 3 + 1) as u32, 400))
                .collect(),
        )
        .unwrap();
        let t = trace(vec![(500, 0, 0.4), (3000, 2, 0.7)]);
        let config = small_config().accuracy(0.0);
        let via_oracle = QosSimulator::new(config.clone(), log.clone(), Arc::clone(&t)).run();
        let via_null = QosSimulator::with_predictor(config, log, t, Arc::new(NullPredictor)).run();
        assert_eq!(via_oracle.report, via_null.report);
    }

    #[test]
    fn deadline_slack_rescues_marginal_misses() {
        // Failure costs 50 s on a 100 s job; 100% slack covers the rerun.
        let log = JobLog::new(vec![job(0, 0, 2, 100)]).unwrap();
        let t = trace(vec![(50, 0, 0.9)]);
        let strict =
            QosSimulator::new(small_config().accuracy(0.0), log.clone(), Arc::clone(&t)).run();
        assert_eq!(strict.report.deadline_misses, 1);
        let slack = QosSimulator::new(
            small_config().accuracy(0.0).deadline_slack_fraction(1.0),
            log,
            t,
        )
        .run();
        assert_eq!(slack.report.deadline_misses, 0);
    }

    #[test]
    fn an_enormous_slack_saturates_the_deadline() {
        // 100 s × 1e20 of slack is past the end of time. The effective
        // deadline saturates at SimTime::MAX, as the served lifecycle's
        // does; it used to overflow (a debug panic, and a release build
        // wrapped it into the past and scored the run a broken promise).
        let log = JobLog::new(vec![job(0, 0, 1, 100)]).unwrap();
        let config = small_config().deadline_slack_fraction(1e20);
        let (out, journal) = run_journaled(QosSimulator::new(config, log, trace(vec![])));
        assert_eq!(out.report.jobs, 1);
        assert_eq!(resolved(&journal).1, SimTime::MAX);
        assert_eq!(out.report.deadline_misses, 0);
    }

    #[test]
    fn prior_policy_checkpoints_without_predictions() {
        // Long 1-node job on a trace dense enough that the base-rate prior
        // alone justifies occasional checkpoints; invisible failures (a=0).
        let failures: Vec<(u64, u32, f64)> = (1..200).map(|k| (k * 3000, 1, 0.9)).collect(); // node 1: drives the base rate
        let config = SimConfig::paper_defaults()
            .cluster_size_nodes(2)
            .accuracy(0.0)
            .checkpoint_policy(CheckpointPolicyKind::RiskBasedWithPrior);
        let log = JobLog::new(vec![job(0, 0, 1, 12 * 3600)]).unwrap();
        let out = QosSimulator::new(config, log.clone(), trace(failures.clone())).run();
        assert_eq!(out.report.jobs, 1);
        assert!(
            out.report.checkpoints_performed > 0,
            "prior should trigger some checkpoints"
        );
        // But strictly fewer than periodic would perform.
        let periodic = QosSimulator::new(
            SimConfig::paper_defaults()
                .cluster_size_nodes(2)
                .accuracy(0.0)
                .checkpoint_policy(CheckpointPolicyKind::Periodic),
            log,
            trace(failures),
        )
        .run();
        assert!(
            out.report.checkpoints_performed <= periodic.report.checkpoints_performed,
            "prior performs no more than periodic"
        );
    }

    #[test]
    fn same_instant_checkpoint_finish_precedes_start() {
        use pqos_telemetry::Telemetry;
        // Job 0 (periodic checkpoints, I=3600, C=720) finishes its first
        // checkpoint at t=4320; job 1 arrives and starts on the other node
        // at that same instant. The ordering table says CheckpointFinish
        // (priority 2) resolves before Arrival (4) and Start (6), so the
        // journal must show the checkpoint completing before the start —
        // scheduling the finish at the default queue priority used to let
        // the start jump ahead.
        let config = SimConfig::paper_defaults()
            .cluster_size_nodes(2)
            .checkpoint_policy(CheckpointPolicyKind::Periodic);
        let log = JobLog::new(vec![job(0, 0, 1, 7200), job(1, 4320, 1, 100)]).unwrap();
        let telemetry = Telemetry::builder().ring_buffer(1024).build();
        let out = QosSimulator::new(config, log, trace(vec![]))
            .with_telemetry(telemetry.clone())
            .run();
        assert_eq!(out.report.jobs, 2);
        assert_eq!(out.report.deadline_misses, 0);

        let events = telemetry.ring_events();
        let taken = events
            .iter()
            .position(|e| e.name() == "checkpoint_taken")
            .expect("periodic job checkpoints once");
        let started = events
            .iter()
            .position(|e| matches!(e, TelemetryEvent::JobStarted { job: 1, .. }))
            .expect("job 1 starts");
        assert!(
            taken < started,
            "checkpoint_taken (index {taken}) must precede job 1's start (index {started})"
        );
    }

    #[test]
    fn same_instant_checkpoint_request_precedes_start() {
        use pqos_telemetry::Telemetry;
        // Same collision on the request side: job 0's checkpoint request
        // (skipped under the None policy) lands at t=3600, the instant job
        // 1 arrives and starts. CheckpointRequest (priority 5) must resolve
        // before Start (6), so the skip is journaled before the start.
        let config = SimConfig::paper_defaults()
            .cluster_size_nodes(2)
            .checkpoint_policy(CheckpointPolicyKind::None);
        let log = JobLog::new(vec![job(0, 0, 1, 7200), job(1, 3600, 1, 100)]).unwrap();
        let telemetry = Telemetry::builder().ring_buffer(1024).build();
        let out = QosSimulator::new(config, log, trace(vec![]))
            .with_telemetry(telemetry.clone())
            .run();
        assert_eq!(out.report.jobs, 2);

        let events = telemetry.ring_events();
        let skipped = events
            .iter()
            .position(|e| e.name() == "checkpoint_skipped")
            .expect("the None policy skips the request");
        let started = events
            .iter()
            .position(|e| matches!(e, TelemetryEvent::JobStarted { job: 1, .. }))
            .expect("job 1 starts");
        assert!(
            skipped < started,
            "checkpoint_skipped (index {skipped}) must precede job 1's start (index {started})"
        );
    }

    #[test]
    fn telemetry_captures_the_full_lifecycle() {
        use pqos_telemetry::Telemetry;
        // One failing restartable job + one oversized reject exercises
        // every decision point except recovery-before-end (covered too:
        // downtime elapses within the horizon).
        let log = JobLog::new(vec![job(0, 0, 2, 100), job(1, 5, 99, 100)]).unwrap();
        let telemetry = Telemetry::builder().ring_buffer(1024).build();
        let out = QosSimulator::new(small_config().accuracy(0.0), log, trace(vec![(50, 0, 0.9)]))
            .with_telemetry(telemetry.clone())
            .run();
        assert_eq!(out.report.jobs, 1);
        assert_eq!(out.rejected.len(), 1);

        let names: Vec<&str> = telemetry.ring_events().iter().map(|e| e.name()).collect();
        for expected in [
            "job_submitted",
            "quote_negotiated",
            "job_rejected",
            "job_placed",
            "job_started",
            "node_failed",
            "node_recovered",
            "job_requeued",
            "job_completed",
            "deadline_missed",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }

        let snap = out.telemetry.expect("telemetered run has a snapshot");
        assert_eq!(snap.gauge("journal.job_submitted"), Some(2));
        assert_eq!(snap.gauge("journal.job_rejected"), Some(1));
        assert_eq!(snap.gauge("journal.job_completed"), Some(1));
        assert_eq!(snap.gauge("journal.job_requeued"), Some(1));
        assert_eq!(snap.gauge("journal.deadline_missed"), Some(1));
        assert_eq!(snap.counter("failures.missed"), Some(1), "a=0 sees nothing");
        assert_eq!(
            snap.gauge("journal.job_started"),
            Some(1 + 1),
            "every start ended in a completion or a requeue"
        );
        let nodes = |kind: &str| snap.gauge(&format!("journal.node_{kind}"));
        assert_eq!(nodes("recovered"), nodes("failed"), "the node recovered");
        assert!(snap.counter("sched.placements").unwrap_or(0) >= 2);
        assert!(snap.counter("predict.queries").unwrap_or(0) > 0);
    }

    #[test]
    fn dispatch_profile_appears_in_snapshot() {
        use pqos_telemetry::Telemetry;
        // One periodic-checkpointing job exercises arrival, start, request,
        // checkpoint-finish, and finish dispatches exactly once each.
        let config = SimConfig::paper_defaults()
            .cluster_size_nodes(2)
            .checkpoint_policy(CheckpointPolicyKind::Periodic);
        let log = JobLog::new(vec![job(0, 0, 1, 7200)]).unwrap();
        let out = QosSimulator::new(config, log, trace(vec![]))
            .with_telemetry(Telemetry::builder().build())
            .run();
        let snap = out.telemetry.expect("telemetered run has a snapshot");
        for (name, expected) in [
            ("dispatch.arrival_ns", 1),
            ("dispatch.start_ns", 1),
            ("dispatch.ckpt_request_ns", 1),
            ("dispatch.ckpt_finish_ns", 1),
            ("dispatch.finish_ns", 1),
        ] {
            let h = snap.histogram(name).expect(name);
            assert_eq!(h.count, expected, "{name}");
            assert!(h.max >= 0.0, "{name} records nanoseconds");
        }
        assert!(snap.render().contains("dispatch.arrival_ns"));
        // The request itself is journaled ahead of its resolution.
        let events = Telemetry::disabled().ring_events();
        assert!(events.is_empty(), "disabled handle journals nothing");
    }

    #[test]
    fn checkpoint_request_event_precedes_its_resolution() {
        use pqos_telemetry::Telemetry;
        let config = SimConfig::paper_defaults()
            .cluster_size_nodes(2)
            .checkpoint_policy(CheckpointPolicyKind::Periodic);
        let log = JobLog::new(vec![job(0, 0, 1, 7200)]).unwrap();
        let telemetry = Telemetry::builder().ring_buffer(1024).build();
        QosSimulator::new(config, log, trace(vec![]))
            .with_telemetry(telemetry.clone())
            .run();
        let names: Vec<&str> = telemetry.ring_events().iter().map(|e| e.name()).collect();
        let requested = names
            .iter()
            .position(|n| *n == "checkpoint_requested")
            .expect("request journaled");
        let taken = names
            .iter()
            .position(|n| *n == "checkpoint_taken")
            .expect("periodic policy performs");
        assert!(requested < taken, "request precedes completion");
    }

    #[test]
    fn deadline_pressure_overrides_the_policy() {
        use pqos_telemetry::Telemetry;
        // One 3-h job on one node under Periodic (I=3600, C=720): quoted
        // [0, 12240), two checkpoints planned. The node fails at 4400,
        // 80 s after the first checkpoint; the job restarts from 3600 s of
        // work when the node recovers at 4520 and requests its next
        // checkpoint at 8120 with 3600 s left. Performing would finish at
        // 12440, past the deadline; skipping finishes at 11720. Periodic
        // alone would perform.
        let config = SimConfig::paper_defaults()
            .cluster_size_nodes(1)
            .checkpoint_policy(CheckpointPolicyKind::Periodic);
        let log = JobLog::new(vec![job(0, 0, 1, 3 * 3600)]).unwrap();
        let sink = Shared::default();
        let out = QosSimulator::new(config, log, trace(vec![(4400, 0, 0.9)]))
            .with_telemetry(Telemetry::builder().jsonl_writer(sink.clone()).build())
            .run();
        let journal = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let skips: Vec<&str> = journal
            .lines()
            .filter(|l| l.contains(r#""event":"checkpoint_skipped""#))
            .collect();
        assert_eq!(skips.len(), 1, "{journal}");
        assert!(skips[0].contains(r#""at":8120"#), "{}", skips[0]);
        assert!(
            skips[0].contains(r#""reason":"deadline_pressure""#),
            "{}",
            skips[0]
        );
        assert!(
            journal.contains(r#"{"event":"job_completed","at":11720,"job":0,"met_deadline":true}"#),
            "{journal}"
        );
        let resolved = journal
            .lines()
            .find(|l| l.contains(r#""event":"promise_resolved""#))
            .expect("the promise resolves");
        assert!(resolved.contains(r#""deadline_secs":12240,"#), "{resolved}");
        let r = &out.report;
        assert_eq!(r.jobs, 1);
        assert_eq!((r.checkpoints_performed, r.checkpoints_skipped), (1, 1));
    }

    #[test]
    fn telemetry_does_not_change_the_simulation() {
        use pqos_telemetry::Telemetry;
        let log = JobLog::new(
            (0..20)
                .map(|i| job(i, i * 50, (i % 3 + 1) as u32, 500))
                .collect(),
        )
        .unwrap();
        let t = trace(vec![(300, 0, 0.2), (800, 2, 0.6), (2000, 1, 0.9)]);
        let plain = QosSimulator::new(small_config().accuracy(0.5), log.clone(), Arc::clone(&t));
        let telemetered = QosSimulator::new(small_config().accuracy(0.5), log, t)
            .with_telemetry(Telemetry::builder().ring_buffer(4096).build());
        let a = plain.run();
        let b = telemetered.run();
        assert_eq!(a.report, b.report);
        assert_eq!(a.rejected, b.rejected);
        assert!(a.telemetry.is_none());
        assert!(b.telemetry.is_some());
    }

    #[test]
    fn predict_queries_count_only_the_queries_that_informed_a_decision() {
        use pqos_telemetry::Telemetry;
        use std::sync::atomic::{AtomicU64, Ordering};
        /// The trace oracle, counting what it is asked.
        struct Counting(TraceOracle, AtomicU64);
        impl Predictor for Counting {
            fn failure_probability(&self, nodes: &[NodeId], window: TimeWindow) -> f64 {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.failure_probability(nodes, window)
            }
        }
        let log = JobLog::new(
            (0..20)
                .map(|i| job(i, i * 50, (i % 3 + 1) as u32, 500))
                .collect(),
        )
        .unwrap();
        let t = trace(vec![(300, 0, 0.2), (800, 2, 0.6), (2000, 1, 0.9)]);
        let oracle = TraceOracle::new(Arc::clone(&t), 0.5).unwrap();
        let counting = Arc::new(Counting(oracle, AtomicU64::new(0)));
        QosSimulator::with_predictor(
            small_config(),
            log.clone(),
            Arc::clone(&t),
            counting.clone(),
        )
        .run();
        let out = QosSimulator::new(small_config().accuracy(0.5), log, t)
            .with_telemetry(Telemetry::builder().build())
            .run();
        let snap = out.telemetry.expect("telemetered run has a snapshot");
        // The hit/miss probe at each failure informs no decision.
        assert_eq!(snap.gauge("journal.node_failed"), Some(3));
        let asked = counting.1.load(Ordering::Relaxed);
        assert!(asked > 0);
        assert_eq!(snap.counter("predict.queries"), Some(asked));
    }

    /// A journal sink the test keeps a handle on.
    #[derive(Clone, Default)]
    struct Shared(Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn identically_seeded_runs_journal_identically() {
        use pqos_telemetry::Telemetry;

        let run = || {
            let log = JobLog::new(
                (0..20)
                    .map(|i| job(i, i * 50, (i % 3 + 1) as u32, 500))
                    .collect(),
            )
            .unwrap();
            let t = trace(vec![(300, 0, 0.2), (800, 2, 0.6), (2000, 1, 0.9)]);
            let sink = Shared::default();
            let telemetry = Telemetry::builder().jsonl_writer(sink.clone()).build();
            QosSimulator::new(small_config().accuracy(0.5), log, t)
                .with_telemetry(telemetry)
                .run();
            let bytes = sink.0.lock().unwrap().clone();
            bytes
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        assert_eq!(a, b, "journals must be byte-identical across replays");
    }

    #[test]
    fn risk_based_skips_everything_when_blind() {
        let config = SimConfig::paper_defaults()
            .cluster_size_nodes(1)
            .accuracy(0.0)
            .checkpoint_policy(CheckpointPolicyKind::RiskBased);
        let log = JobLog::new(vec![job(0, 0, 1, 7200)]).unwrap();
        let (out, journal) = run_journaled(QosSimulator::new(config, log, trace(vec![])));
        assert_eq!(out.report.jobs, 1);
        assert_eq!(out.report.checkpoints_performed, 0);
        assert_eq!(out.report.checkpoints_skipped, 1);
        // Finished early relative to the quoted deadline (which budgeted C).
        assert_eq!(
            instants(&journal, "job_completed"),
            [SimTime::from_secs(7200)]
        );
        assert_eq!(out.report.deadline_misses, 0);
    }

    /// The loop before the cursors, kept as the reference: every arrival
    /// and every in-cluster failure pushed onto the one queue before the
    /// first pop, failures first.
    fn run_single_heap(mut sim: QosSimulator) -> SimOutput {
        let cluster = sim.config.cluster_size as usize;
        let failures: Vec<(SimTime, usize)> = sim
            .trace
            .failures()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.node.index() < cluster)
            .map(|(index, f)| (f.time, index))
            .collect();
        for (time, index) in failures {
            sim.push_event(time, Event::NodeFailure { index });
        }
        for index in 0..sim.arrival_order.len() {
            let arrival = sim.arrival_order[index].arrival();
            sim.push_event(arrival, Event::Arrival { index });
        }
        while let Some((now, event)) = sim.events.pop() {
            sim.dispatch(now, event);
        }
        sim.output()
    }

    /// A world built to collide, dealt by `seed`: 8 nodes; arrivals,
    /// runtimes and failures on a 60 s grid, checkpoints every 600 s at
    /// 60 s each and 120 s of downtime, so finishes, starts, checkpoint
    /// requests and recoveries land on the same instants as arrivals and
    /// failures; 20–50 jobs and 5–40 failures over 41 instants, so
    /// several arrive at once; and failures on nodes 0–11, a third of
    /// them outside the cluster.
    fn colliding_world(seed: u64) -> (SimConfig, JobLog, Arc<FailureTrace>) {
        use pqos_sim_core::rng::DetRng;
        let mut rng = DetRng::seed_from(seed).fork("merge-order");
        let tick = |rng: &mut DetRng, last: u64| rng.uniform_u64(0, last) * 60;
        let jobs = (0..rng.uniform_u64(20, 50))
            .map(|i| {
                let arrive = tick(&mut rng, 40);
                let nodes = rng.uniform_u64(1, 9) as u32;
                job(i, arrive, nodes, rng.uniform_u64(5, 30) * 60)
            })
            .collect();
        let failures = (0..rng.uniform_u64(5, 40))
            .map(|_| {
                let at = tick(&mut rng, 40);
                (at, rng.uniform_u64(0, 11) as u32, rng.unit())
            })
            .collect();
        let policy = [
            CheckpointPolicyKind::Periodic,
            CheckpointPolicyKind::RiskBased,
        ][seed as usize % 2];
        let config = SimConfig {
            checkpoint_overhead: SimDuration::from_secs(60),
            ..SimConfig::paper_defaults()
        }
        .cluster_size_nodes(8)
        .accuracy([0.0, 0.5, 1.0][seed as usize % 3])
        .checkpoint_interval_secs(SimDuration::from_secs(600))
        .checkpoint_policy(policy);
        (config, JobLog::new(jobs).unwrap(), trace(failures))
    }

    /// Everything at t=600 on 8 nodes, checkpointing every 600 s: job 0's
    /// first checkpoint request, job 1's finish, jobs 2 and 3 arriving
    /// and job 2 starting, and failures on node 7 and on node 9, outside
    /// the cluster.
    fn pileup_world() -> (SimConfig, JobLog, Arc<FailureTrace>) {
        let (config, _, _) = colliding_world(0);
        let log = JobLog::new(vec![
            job(0, 0, 1, 1200),
            job(1, 0, 1, 600),
            job(2, 600, 1, 60),
            job(3, 600, 8, 60),
        ])
        .unwrap();
        (config, log, trace(vec![(600, 7, 0.5), (600, 9, 0.5)]))
    }

    /// The cursor-fed loop pops exactly what one queue holding every
    /// event would: the same journal bytes (every job's starts, finish,
    /// promise and checkpoints, every failure's victim and lost work) and
    /// report, over worlds where an arrival shares its instant with a
    /// failure, a finish, a start and a checkpoint request, several jobs
    /// arrive at once, and failures strike nodes outside the cluster.
    #[test]
    fn cursor_fed_loop_matches_the_single_heap_reference() {
        use pqos_telemetry::Telemetry;
        let worlds: Vec<_> = (0..200)
            .map(colliding_world)
            .chain([pileup_world()])
            .collect();
        let journaled = |(config, log, trace): &(SimConfig, JobLog, Arc<FailureTrace>),
                         reference: bool| {
            let sim = QosSimulator::new(config.clone(), log.clone(), Arc::clone(trace));
            let sink = Shared::default();
            let telemetry = Telemetry::builder().jsonl_writer(sink.clone()).build();
            let sim = sim.with_telemetry(telemetry);
            let out = if reference {
                run_single_heap(sim)
            } else {
                sim.run()
            };
            let journal = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
            (out, journal)
        };
        // Instants where everything collided, instants with several
        // arrivals, and failures outside the cluster, over all worlds.
        let (mut pileups, mut crowds, mut outside) = (0, 0, 0);
        for (k, world) in worlds.iter().enumerate() {
            let (want, want_journal) = journaled(world, true);
            let (got, journal) = journaled(world, false);
            assert_eq!(journal, want_journal, "world {k}: journal");
            assert_eq!(got.report, want.report, "world {k}: report");
            assert_eq!(got.rejected, want.rejected, "world {k}: rejected");

            let (config, _, trace) = world;
            let cluster = config.cluster_size as usize;
            let mut kinds: HashMap<SimTime, Vec<&str>> = HashMap::new();
            let mut failed = 0;
            for line in journal.lines() {
                let event = TelemetryEvent::from_jsonl(line).expect("a journal line");
                if let TelemetryEvent::NodeFailed { node, .. } = event {
                    assert!((node as usize) < cluster, "world {k}: {line}");
                    failed += 1;
                }
                kinds.entry(event.at()).or_default().push(event.name());
            }
            let inside = trace.iter().filter(|f| f.node.index() < cluster).count();
            assert_eq!(failed, inside, "world {k}: every in-cluster failure, once");
            outside += trace.len() - inside;
            for names in kinds.values() {
                let count = |kind: &str| names.iter().filter(|&&n| n == kind).count();
                crowds += usize::from(count("job_submitted") >= 2);
                pileups += usize::from(
                    [
                        "job_submitted",
                        "node_failed",
                        "job_completed",
                        "job_started",
                        "checkpoint_requested",
                    ]
                    .iter()
                    .all(|&kind| count(kind) > 0),
                );
            }
        }
        assert!(
            pileups > 1 && crowds > 0 && outside > 0,
            "the worlds collide: {pileups} pile-ups, {crowds} crowded arrivals, \
             {outside} failures outside the cluster"
        );
    }
}
