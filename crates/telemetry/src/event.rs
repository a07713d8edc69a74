//! Typed lifecycle events and their JSONL encoding.
//!
//! One [`TelemetryEvent`] is emitted at each decision point of the
//! simulator: job submission, quote negotiation, placement, start,
//! checkpoint taken/skipped, node failure/recovery, requeue, completion,
//! deadline miss, cancellation and promise resolution. Every variant
//! carries its simulation timestamp so a journal line is self-contained.

use crate::json::{ObjWriter, Token};
use crate::pull_let;
use pqos_sim_core::time::SimTime;

/// Number of distinct [`TelemetryEvent`] variants (the size of any
/// per-kind accounting table).
pub const EVENT_KINDS: usize = 16;

/// Why a checkpoint request did not result in a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// Eq. 1 said the expected loss (`pf · d · I`) is below the overhead
    /// `C`, so checkpointing is not worth it.
    LowRisk,
    /// Performing the checkpoint would push the job past its negotiated
    /// deadline while skipping still meets it.
    DeadlinePressure,
    /// The configured policy declined for a reason of its own (periodic
    /// phase, disabled checkpointing, ...).
    Policy,
}

impl SkipReason {
    /// Stable wire name used in the journal.
    pub fn as_str(self) -> &'static str {
        match self {
            SkipReason::LowRisk => "low_risk",
            SkipReason::DeadlinePressure => "deadline_pressure",
            SkipReason::Policy => "policy",
        }
    }

    /// Parses a wire name back into a reason.
    pub fn parse(s: &str) -> Option<SkipReason> {
        match s {
            "low_risk" => Some(SkipReason::LowRisk),
            "deadline_pressure" => Some(SkipReason::DeadlinePressure),
            "policy" => Some(SkipReason::Policy),
            _ => None,
        }
    }
}

/// How an accepted quote's promise ultimately resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromiseVerdict {
    /// The job completed at or before its effective deadline.
    Kept,
    /// The job completed after its effective deadline.
    Broken,
    /// The submitter withdrew the job before a verdict was possible; the
    /// promise is neither kept nor broken and is excluded from calibration.
    Cancelled,
}

impl PromiseVerdict {
    /// Stable wire name used in the journal.
    pub fn as_str(self) -> &'static str {
        match self {
            PromiseVerdict::Kept => "kept",
            PromiseVerdict::Broken => "broken",
            PromiseVerdict::Cancelled => "cancelled",
        }
    }

    /// Parses a wire name back into a verdict.
    pub fn parse(s: &str) -> Option<PromiseVerdict> {
        match s {
            "kept" => Some(PromiseVerdict::Kept),
            "broken" => Some(PromiseVerdict::Broken),
            "cancelled" => Some(PromiseVerdict::Cancelled),
            _ => None,
        }
    }
}

/// Whether an SLO alert is firing or has recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// The rule's violation count crossed its firing threshold.
    Fire,
    /// A previously firing rule dropped back below its threshold.
    Resolve,
}

impl AlertState {
    /// Stable wire name used in the journal.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Fire => "fire",
            AlertState::Resolve => "resolve",
        }
    }

    /// Parses a wire name back into a state.
    pub fn parse(s: &str) -> Option<AlertState> {
        match s {
            "fire" => Some(AlertState::Fire),
            "resolve" => Some(AlertState::Resolve),
            _ => None,
        }
    }
}

/// A structured record of one simulator decision or state change.
///
/// Job and node identifiers are raw integers (not the simulator's typed
/// ids) so lower layers can emit events without depending on the layers
/// that define those types.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A job entered the system.
    JobSubmitted {
        /// Simulation time of the event.
        at: SimTime,
        /// Job identifier.
        job: u64,
        /// Requested partition size in nodes.
        size: u32,
        /// Requested runtime in seconds.
        runtime_secs: u64,
    },
    /// Negotiation produced a quote the user accepted.
    QuoteNegotiated {
        /// Simulation time of the event.
        at: SimTime,
        /// Job identifier.
        job: u64,
        /// Promised start time (seconds since epoch).
        start_secs: u64,
        /// Promised completion time (seconds since epoch).
        promised_secs: u64,
        /// Effective deadline the system holds itself to (promise plus any
        /// configured slack), seconds since epoch. Downstream tools check
        /// recorded outcomes against this, not the raw promise.
        deadline_secs: u64,
        /// Probability of success quoted per Eq. 2.
        success_probability: f64,
    },
    /// Negotiation failed; the job never ran.
    JobRejected {
        /// Simulation time of the event.
        at: SimTime,
        /// Job identifier.
        job: u64,
    },
    /// The scheduler chose a partition for a job segment.
    JobPlaced {
        /// Simulation time of the event.
        at: SimTime,
        /// Job identifier.
        job: u64,
        /// Nodes of the chosen partition.
        nodes: Vec<u64>,
        /// Predicted failure probability of the partition over the
        /// placement window.
        failure_probability: f64,
    },
    /// A job segment began executing.
    JobStarted {
        /// Simulation time of the event.
        at: SimTime,
        /// Job identifier.
        job: u64,
        /// How many failures this job has absorbed so far (0 on first
        /// start).
        restarts: u32,
    },
    /// A checkpoint request fired after an interval `I` of useful work and
    /// is about to be granted or denied. Every [`CheckpointTaken`] and
    /// [`CheckpointSkipped`] is preceded by one of these.
    ///
    /// [`CheckpointTaken`]: TelemetryEvent::CheckpointTaken
    /// [`CheckpointSkipped`]: TelemetryEvent::CheckpointSkipped
    CheckpointRequested {
        /// Simulation time of the event.
        at: SimTime,
        /// Job identifier.
        job: u64,
    },
    /// A checkpoint completed and advanced the job's durable progress.
    CheckpointTaken {
        /// Simulation time of the event.
        at: SimTime,
        /// Job identifier.
        job: u64,
        /// Checkpoint overhead paid, in seconds.
        overhead_secs: u64,
    },
    /// A checkpoint request was declined.
    CheckpointSkipped {
        /// Simulation time of the event.
        at: SimTime,
        /// Job identifier.
        job: u64,
        /// Why the checkpoint was skipped.
        reason: SkipReason,
        /// Predicted failure probability over the risk window.
        failure_probability: f64,
        /// Work at risk had a failure occurred, in seconds.
        at_risk_secs: u64,
    },
    /// A node failed.
    NodeFailed {
        /// Simulation time of the event.
        at: SimTime,
        /// Node identifier.
        node: u64,
        /// Job running on the node, if any.
        victim_job: Option<u64>,
        /// Work destroyed by the failure, in node-seconds.
        lost_node_seconds: u64,
        /// Whether the failure predictor flagged this node in advance.
        predicted: bool,
    },
    /// A failed node came back.
    NodeRecovered {
        /// Simulation time of the event.
        at: SimTime,
        /// Node identifier.
        node: u64,
    },
    /// A failed job re-entered the queue to resume from its last durable
    /// checkpoint.
    JobRequeued {
        /// Simulation time of the event.
        at: SimTime,
        /// Job identifier.
        job: u64,
        /// Work remaining after rollback, in seconds.
        remaining_secs: u64,
    },
    /// A job finished.
    JobCompleted {
        /// Simulation time of the event.
        at: SimTime,
        /// Job identifier.
        job: u64,
        /// Whether it met its negotiated deadline.
        met_deadline: bool,
    },
    /// A job finished after its negotiated deadline.
    DeadlineMissed {
        /// Simulation time of the event.
        at: SimTime,
        /// Job identifier.
        job: u64,
        /// How late the job was, in seconds.
        late_by_secs: u64,
    },
    /// The submitter withdrew the job before it started running; any held
    /// reservation was released. Emitted by the online service (the trace
    /// simulator's workloads never cancel).
    JobCancelled {
        /// Simulation time of the event.
        at: SimTime,
        /// Job identifier.
        job: u64,
    },
    /// The quoted probability for an accepted job met its outcome: the
    /// promise made at `quote_negotiated` is now kept, broken, or voided
    /// by cancellation. Emitted immediately after the job's terminal
    /// event so calibration audits can join quote → outcome without
    /// re-deriving deadline semantics.
    PromiseResolved {
        /// Simulation time of the event.
        at: SimTime,
        /// Job identifier.
        job: u64,
        /// Probability of success quoted when the promise was made.
        success_probability: f64,
        /// Effective deadline the promise was measured against, seconds
        /// since epoch.
        deadline_secs: u64,
        /// How the promise resolved.
        verdict: PromiseVerdict,
    },
    /// An SLO rule changed state at a window boundary. `at` is the
    /// engine's virtual time when the window was closed (journals are
    /// time-ordered); `window_end_secs` is the boundary of the window
    /// whose evaluation caused the transition.
    SloAlert {
        /// Simulation time the alert was emitted (tick time).
        at: SimTime,
        /// Name of the rule, as given on the command line.
        rule: String,
        /// Fire or resolve.
        state: AlertState,
        /// End boundary of the evaluated window, seconds since epoch.
        window_end_secs: u64,
        /// Observed metric value in that window.
        value: f64,
        /// The rule's threshold.
        threshold: f64,
    },
}

impl TelemetryEvent {
    /// Simulation time the event occurred.
    pub fn at(&self) -> SimTime {
        match self {
            TelemetryEvent::JobSubmitted { at, .. }
            | TelemetryEvent::QuoteNegotiated { at, .. }
            | TelemetryEvent::JobRejected { at, .. }
            | TelemetryEvent::JobPlaced { at, .. }
            | TelemetryEvent::JobStarted { at, .. }
            | TelemetryEvent::CheckpointRequested { at, .. }
            | TelemetryEvent::CheckpointTaken { at, .. }
            | TelemetryEvent::CheckpointSkipped { at, .. }
            | TelemetryEvent::NodeFailed { at, .. }
            | TelemetryEvent::NodeRecovered { at, .. }
            | TelemetryEvent::JobRequeued { at, .. }
            | TelemetryEvent::JobCompleted { at, .. }
            | TelemetryEvent::DeadlineMissed { at, .. }
            | TelemetryEvent::JobCancelled { at, .. }
            | TelemetryEvent::PromiseResolved { at, .. }
            | TelemetryEvent::SloAlert { at, .. } => *at,
        }
    }

    /// Stable wire name of the variant (the `event` field in the journal).
    pub fn name(&self) -> &'static str {
        match self {
            TelemetryEvent::JobSubmitted { .. } => "job_submitted",
            TelemetryEvent::QuoteNegotiated { .. } => "quote_negotiated",
            TelemetryEvent::JobRejected { .. } => "job_rejected",
            TelemetryEvent::JobPlaced { .. } => "job_placed",
            TelemetryEvent::JobStarted { .. } => "job_started",
            TelemetryEvent::CheckpointRequested { .. } => "checkpoint_requested",
            TelemetryEvent::CheckpointTaken { .. } => "checkpoint_taken",
            TelemetryEvent::CheckpointSkipped { .. } => "checkpoint_skipped",
            TelemetryEvent::NodeFailed { .. } => "node_failed",
            TelemetryEvent::NodeRecovered { .. } => "node_recovered",
            TelemetryEvent::JobRequeued { .. } => "job_requeued",
            TelemetryEvent::JobCompleted { .. } => "job_completed",
            TelemetryEvent::DeadlineMissed { .. } => "deadline_missed",
            TelemetryEvent::JobCancelled { .. } => "job_cancelled",
            TelemetryEvent::PromiseResolved { .. } => "promise_resolved",
            TelemetryEvent::SloAlert { .. } => "slo_alert",
        }
    }

    /// Dense index of the variant, `0 ..` [`EVENT_KINDS`], matching
    /// [`kind_names`](Self::kind_names) order. Used for per-kind event
    /// accounting without a name lookup on the emission path.
    pub fn kind_index(&self) -> usize {
        match self {
            TelemetryEvent::JobSubmitted { .. } => 0,
            TelemetryEvent::QuoteNegotiated { .. } => 1,
            TelemetryEvent::JobRejected { .. } => 2,
            TelemetryEvent::JobPlaced { .. } => 3,
            TelemetryEvent::JobStarted { .. } => 4,
            TelemetryEvent::CheckpointRequested { .. } => 5,
            TelemetryEvent::CheckpointTaken { .. } => 6,
            TelemetryEvent::CheckpointSkipped { .. } => 7,
            TelemetryEvent::NodeFailed { .. } => 8,
            TelemetryEvent::NodeRecovered { .. } => 9,
            TelemetryEvent::JobRequeued { .. } => 10,
            TelemetryEvent::JobCompleted { .. } => 11,
            TelemetryEvent::DeadlineMissed { .. } => 12,
            TelemetryEvent::JobCancelled { .. } => 13,
            TelemetryEvent::PromiseResolved { .. } => 14,
            TelemetryEvent::SloAlert { .. } => 15,
        }
    }

    /// Wire names of every variant, in [`kind_index`](Self::kind_index)
    /// order.
    pub fn kind_names() -> [&'static str; EVENT_KINDS] {
        [
            "job_submitted",
            "quote_negotiated",
            "job_rejected",
            "job_placed",
            "job_started",
            "checkpoint_requested",
            "checkpoint_taken",
            "checkpoint_skipped",
            "node_failed",
            "node_recovered",
            "job_requeued",
            "job_completed",
            "deadline_missed",
            "job_cancelled",
            "promise_resolved",
            "slo_alert",
        ]
    }

    /// Encodes the event as a single JSON object (one journal line, without
    /// the trailing newline). Allocates the line; a sink that keeps its
    /// line buffer appends into it instead (see [`JsonlSink`]).
    ///
    /// [`JsonlSink`]: crate::journal::JsonlSink
    pub fn to_jsonl(&self) -> String {
        let mut line = String::new();
        self.append_jsonl(&mut line);
        line
    }

    /// Appends the event's journal line (no trailing newline) to `out`.
    pub(crate) fn append_jsonl(&self, out: &mut String) {
        let mut w = ObjWriter::append_to(std::mem::take(out));
        w.str("event", self.name()).u64("at", self.at().as_secs());
        match self {
            TelemetryEvent::JobSubmitted {
                job,
                size,
                runtime_secs,
                ..
            } => {
                w.u64("job", *job)
                    .u64("size", u64::from(*size))
                    .u64("runtime_secs", *runtime_secs);
            }
            TelemetryEvent::QuoteNegotiated {
                job,
                start_secs,
                promised_secs,
                deadline_secs,
                success_probability,
                ..
            } => {
                w.u64("job", *job)
                    .u64("start_secs", *start_secs)
                    .u64("promised_secs", *promised_secs)
                    .u64("deadline_secs", *deadline_secs)
                    .f64("success_probability", *success_probability);
            }
            TelemetryEvent::JobRejected { job, .. } => {
                w.u64("job", *job);
            }
            TelemetryEvent::JobPlaced {
                job,
                nodes,
                failure_probability,
                ..
            } => {
                w.u64("job", *job)
                    .arr_u64("nodes", nodes)
                    .f64("failure_probability", *failure_probability);
            }
            TelemetryEvent::JobStarted { job, restarts, .. } => {
                w.u64("job", *job).u64("restarts", u64::from(*restarts));
            }
            TelemetryEvent::CheckpointRequested { job, .. } => {
                w.u64("job", *job);
            }
            TelemetryEvent::CheckpointTaken {
                job, overhead_secs, ..
            } => {
                w.u64("job", *job).u64("overhead_secs", *overhead_secs);
            }
            TelemetryEvent::CheckpointSkipped {
                job,
                reason,
                failure_probability,
                at_risk_secs,
                ..
            } => {
                w.u64("job", *job)
                    .str("reason", reason.as_str())
                    .f64("failure_probability", *failure_probability)
                    .u64("at_risk_secs", *at_risk_secs);
            }
            TelemetryEvent::NodeFailed {
                node,
                victim_job,
                lost_node_seconds,
                predicted,
                ..
            } => {
                w.u64("node", *node)
                    .opt_u64("victim_job", *victim_job)
                    .u64("lost_node_seconds", *lost_node_seconds)
                    .bool("predicted", *predicted);
            }
            TelemetryEvent::NodeRecovered { node, .. } => {
                w.u64("node", *node);
            }
            TelemetryEvent::JobRequeued {
                job,
                remaining_secs,
                ..
            } => {
                w.u64("job", *job).u64("remaining_secs", *remaining_secs);
            }
            TelemetryEvent::JobCompleted {
                job, met_deadline, ..
            } => {
                w.u64("job", *job).bool("met_deadline", *met_deadline);
            }
            TelemetryEvent::DeadlineMissed {
                job, late_by_secs, ..
            } => {
                w.u64("job", *job).u64("late_by_secs", *late_by_secs);
            }
            TelemetryEvent::JobCancelled { job, .. } => {
                w.u64("job", *job);
            }
            TelemetryEvent::PromiseResolved {
                job,
                success_probability,
                deadline_secs,
                verdict,
                ..
            } => {
                w.u64("job", *job)
                    .f64("success_probability", *success_probability)
                    .u64("deadline_secs", *deadline_secs)
                    .str("verdict", verdict.as_str());
            }
            TelemetryEvent::SloAlert {
                rule,
                state,
                window_end_secs,
                value,
                threshold,
                ..
            } => {
                w.str("rule", rule)
                    .str("state", state.as_str())
                    .u64("window_end_secs", *window_end_secs)
                    .f64("value", *value)
                    .f64("threshold", *threshold);
            }
        }
        *out = w.finish();
    }

    /// Decodes one journal line. Returns `None` if the line is not valid
    /// JSON or does not match the event schema. One pass over the line,
    /// no allocation beyond what the event itself owns.
    pub fn from_jsonl(line: &str) -> Option<TelemetryEvent> {
        // Every key any variant reads, the common ones first.
        pull_let!([
            event, at, job, nodes, failure_probability, success_probability, deadline_secs,
            start_secs, promised_secs, verdict, met_deadline, restarts, size, runtime_secs,
            overhead_secs, reason, at_risk_secs, node, victim_job, lost_node_seconds, predicted,
            remaining_secs, late_by_secs, rule, state, window_end_secs, value, threshold,
        ] = line.trim(); else { return None });
        let u = |t: Option<Token<'_>>| t?.as_u64();
        let f = |t: Option<Token<'_>>| t?.as_f64();
        let at = SimTime::from_secs(u(at)?);
        match event?.as_str()? {
            "job_submitted" => Some(TelemetryEvent::JobSubmitted {
                at,
                job: u(job)?,
                size: u32::try_from(u(size)?).ok()?,
                runtime_secs: u(runtime_secs)?,
            }),
            "quote_negotiated" => Some(TelemetryEvent::QuoteNegotiated {
                at,
                job: u(job)?,
                start_secs: u(start_secs)?,
                promised_secs: u(promised_secs)?,
                deadline_secs: u(deadline_secs)?,
                success_probability: f(success_probability)?,
            }),
            "job_rejected" => Some(TelemetryEvent::JobRejected { at, job: u(job)? }),
            "job_placed" => Some(TelemetryEvent::JobPlaced {
                at,
                job: u(job)?,
                nodes: {
                    let mut list = Some(Vec::new());
                    nodes?.items(|n| match (&mut list, n.as_u64()) {
                        (Some(list), Some(n)) => list.push(n),
                        _ => list = None,
                    })?;
                    list?
                },
                failure_probability: f(failure_probability)?,
            }),
            "job_started" => Some(TelemetryEvent::JobStarted {
                at,
                job: u(job)?,
                restarts: u32::try_from(u(restarts)?).ok()?,
            }),
            "checkpoint_requested" => {
                Some(TelemetryEvent::CheckpointRequested { at, job: u(job)? })
            }
            "checkpoint_taken" => Some(TelemetryEvent::CheckpointTaken {
                at,
                job: u(job)?,
                overhead_secs: u(overhead_secs)?,
            }),
            "checkpoint_skipped" => Some(TelemetryEvent::CheckpointSkipped {
                at,
                job: u(job)?,
                reason: SkipReason::parse(reason?.as_str()?)?,
                failure_probability: f(failure_probability)?,
                at_risk_secs: u(at_risk_secs)?,
            }),
            "node_failed" => Some(TelemetryEvent::NodeFailed {
                at,
                node: u(node)?,
                victim_job: match victim_job? {
                    Token::Null => None,
                    victim => Some(victim.as_u64()?),
                },
                lost_node_seconds: u(lost_node_seconds)?,
                predicted: predicted?.as_bool()?,
            }),
            "node_recovered" => Some(TelemetryEvent::NodeRecovered { at, node: u(node)? }),
            "job_requeued" => Some(TelemetryEvent::JobRequeued {
                at,
                job: u(job)?,
                remaining_secs: u(remaining_secs)?,
            }),
            "job_completed" => Some(TelemetryEvent::JobCompleted {
                at,
                job: u(job)?,
                met_deadline: met_deadline?.as_bool()?,
            }),
            "deadline_missed" => Some(TelemetryEvent::DeadlineMissed {
                at,
                job: u(job)?,
                late_by_secs: u(late_by_secs)?,
            }),
            "job_cancelled" => Some(TelemetryEvent::JobCancelled { at, job: u(job)? }),
            "promise_resolved" => Some(TelemetryEvent::PromiseResolved {
                at,
                job: u(job)?,
                success_probability: f(success_probability)?,
                deadline_secs: u(deadline_secs)?,
                verdict: PromiseVerdict::parse(verdict?.as_str()?)?,
            }),
            "slo_alert" => Some(TelemetryEvent::SloAlert {
                at,
                rule: rule?.as_str()?.to_string(),
                state: AlertState::parse(state?.as_str()?)?,
                window_end_secs: u(window_end_secs)?,
                value: f(value)?,
                threshold: f(threshold)?,
            }),
            _ => None,
        }
    }
}

/// One instance of every variant, in a plausible order.
///
/// Exposed (not just for this crate's tests) so downstream crates —
/// property tests, the `pqos-obs` tooling — can exercise every wire shape
/// without re-enumerating the schema by hand.
pub fn one_of_each() -> Vec<TelemetryEvent> {
    let t = SimTime::from_secs(3600);
    vec![
        TelemetryEvent::JobSubmitted {
            at: t,
            job: 1,
            size: 16,
            runtime_secs: 7200,
        },
        TelemetryEvent::QuoteNegotiated {
            at: t,
            job: 1,
            start_secs: 3700,
            promised_secs: 11_000,
            deadline_secs: 11_000,
            success_probability: 0.987,
        },
        TelemetryEvent::JobRejected { at: t, job: 2 },
        TelemetryEvent::JobPlaced {
            at: t,
            job: 1,
            nodes: vec![4, 5, 6, 7],
            failure_probability: 0.0125,
        },
        TelemetryEvent::JobStarted {
            at: t,
            job: 1,
            restarts: 0,
        },
        TelemetryEvent::CheckpointRequested { at: t, job: 1 },
        TelemetryEvent::CheckpointTaken {
            at: t,
            job: 1,
            overhead_secs: 720,
        },
        TelemetryEvent::CheckpointSkipped {
            at: t,
            job: 1,
            reason: SkipReason::LowRisk,
            failure_probability: 0.0003,
            at_risk_secs: 3600,
        },
        TelemetryEvent::NodeFailed {
            at: t,
            node: 5,
            victim_job: Some(1),
            lost_node_seconds: 14_400,
            predicted: true,
        },
        TelemetryEvent::NodeFailed {
            at: t,
            node: 99,
            victim_job: None,
            lost_node_seconds: 0,
            predicted: false,
        },
        TelemetryEvent::NodeRecovered { at: t, node: 5 },
        TelemetryEvent::JobRequeued {
            at: t,
            job: 1,
            remaining_secs: 3600,
        },
        TelemetryEvent::JobCompleted {
            at: t,
            job: 1,
            met_deadline: false,
        },
        TelemetryEvent::DeadlineMissed {
            at: t,
            job: 1,
            late_by_secs: 480,
        },
        TelemetryEvent::JobCancelled { at: t, job: 3 },
        TelemetryEvent::PromiseResolved {
            at: t,
            job: 1,
            success_probability: 0.987,
            deadline_secs: 11_000,
            verdict: PromiseVerdict::Broken,
        },
        TelemetryEvent::PromiseResolved {
            at: t,
            job: 4,
            success_probability: 1.0,
            deadline_secs: 9_000,
            verdict: PromiseVerdict::Kept,
        },
        TelemetryEvent::PromiseResolved {
            at: t,
            job: 3,
            success_probability: 0.5,
            deadline_secs: 8_000,
            verdict: PromiseVerdict::Cancelled,
        },
        TelemetryEvent::SloAlert {
            at: t,
            rule: "tight".to_string(),
            state: AlertState::Fire,
            window_end_secs: 3600,
            value: 0.42,
            threshold: 0.2,
        },
        TelemetryEvent::SloAlert {
            at: t,
            rule: "tight".to_string(),
            state: AlertState::Resolve,
            window_end_secs: 3600,
            value: 0.1,
            threshold: 0.2,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_round_trips_through_jsonl() {
        for event in one_of_each() {
            let line = event.to_jsonl();
            let back = TelemetryEvent::from_jsonl(&line)
                .unwrap_or_else(|| panic!("failed to parse {line}"));
            assert_eq!(back, event, "round trip changed {line}");
        }
    }

    #[test]
    fn one_of_each_covers_every_variant_name() {
        let names: std::collections::BTreeSet<&str> =
            one_of_each().iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 16, "update one_of_each() for new variants");
    }

    #[test]
    fn kind_index_is_dense_and_matches_wire_names() {
        let names = TelemetryEvent::kind_names();
        let mut seen = [false; EVENT_KINDS];
        // one_of_each may repeat a variant (payload coverage); every event
        // must still map to its own wire name, and all indices get hit.
        for event in one_of_each() {
            let idx = event.kind_index();
            assert!(idx < EVENT_KINDS);
            assert_eq!(names[idx], event.name(), "kind_names order mismatch");
            seen[idx] = true;
        }
        assert!(seen.iter().all(|s| *s), "kind_index must be surjective");
    }

    #[test]
    fn skip_reason_wire_names_round_trip() {
        for r in [
            SkipReason::LowRisk,
            SkipReason::DeadlinePressure,
            SkipReason::Policy,
        ] {
            assert_eq!(SkipReason::parse(r.as_str()), Some(r));
        }
        assert_eq!(SkipReason::parse("bogus"), None);
    }

    #[test]
    fn promise_verdict_wire_names_round_trip() {
        for v in [
            PromiseVerdict::Kept,
            PromiseVerdict::Broken,
            PromiseVerdict::Cancelled,
        ] {
            assert_eq!(PromiseVerdict::parse(v.as_str()), Some(v));
        }
        assert_eq!(PromiseVerdict::parse("bogus"), None);
    }

    #[test]
    fn alert_state_wire_names_round_trip() {
        for s in [AlertState::Fire, AlertState::Resolve] {
            assert_eq!(AlertState::parse(s.as_str()), Some(s));
        }
        assert_eq!(AlertState::parse("bogus"), None);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(TelemetryEvent::from_jsonl("").is_none());
        assert!(TelemetryEvent::from_jsonl("not json").is_none());
        assert!(TelemetryEvent::from_jsonl(r#"{"event":"unknown","at":1}"#).is_none());
        assert!(TelemetryEvent::from_jsonl(r#"{"event":"job_rejected"}"#).is_none());
        // Wrong field type.
        assert!(
            TelemetryEvent::from_jsonl(r#"{"event":"job_rejected","at":1,"job":"x"}"#).is_none()
        );
    }

    #[test]
    fn timestamps_are_preserved() {
        for event in one_of_each() {
            assert_eq!(event.at(), SimTime::from_secs(3600));
        }
    }

    /// The journal's bytes, written out: the encoder these lines came from
    /// is gone, so the literals are the oracle. Replay parity and every
    /// recorded journal depend on each of them.
    #[test]
    fn one_of_each_encodes_to_the_golden_lines() {
        let golden = [
            r#"{"event":"job_submitted","at":3600,"job":1,"size":16,"runtime_secs":7200}"#,
            r#"{"event":"quote_negotiated","at":3600,"job":1,"start_secs":3700,"promised_secs":11000,"deadline_secs":11000,"success_probability":0.987}"#,
            r#"{"event":"job_rejected","at":3600,"job":2}"#,
            r#"{"event":"job_placed","at":3600,"job":1,"nodes":[4,5,6,7],"failure_probability":0.0125}"#,
            r#"{"event":"job_started","at":3600,"job":1,"restarts":0}"#,
            r#"{"event":"checkpoint_requested","at":3600,"job":1}"#,
            r#"{"event":"checkpoint_taken","at":3600,"job":1,"overhead_secs":720}"#,
            r#"{"event":"checkpoint_skipped","at":3600,"job":1,"reason":"low_risk","failure_probability":0.0003,"at_risk_secs":3600}"#,
            r#"{"event":"node_failed","at":3600,"node":5,"victim_job":1,"lost_node_seconds":14400,"predicted":true}"#,
            r#"{"event":"node_failed","at":3600,"node":99,"victim_job":null,"lost_node_seconds":0,"predicted":false}"#,
            r#"{"event":"node_recovered","at":3600,"node":5}"#,
            r#"{"event":"job_requeued","at":3600,"job":1,"remaining_secs":3600}"#,
            r#"{"event":"job_completed","at":3600,"job":1,"met_deadline":false}"#,
            r#"{"event":"deadline_missed","at":3600,"job":1,"late_by_secs":480}"#,
            r#"{"event":"job_cancelled","at":3600,"job":3}"#,
            r#"{"event":"promise_resolved","at":3600,"job":1,"success_probability":0.987,"deadline_secs":11000,"verdict":"broken"}"#,
            r#"{"event":"promise_resolved","at":3600,"job":4,"success_probability":1.0,"deadline_secs":9000,"verdict":"kept"}"#,
            r#"{"event":"promise_resolved","at":3600,"job":3,"success_probability":0.5,"deadline_secs":8000,"verdict":"cancelled"}"#,
            r#"{"event":"slo_alert","at":3600,"rule":"tight","state":"fire","window_end_secs":3600,"value":0.42,"threshold":0.2}"#,
            r#"{"event":"slo_alert","at":3600,"rule":"tight","state":"resolve","window_end_secs":3600,"value":0.1,"threshold":0.2}"#,
        ];
        let events = one_of_each();
        assert_eq!(events.len(), golden.len());
        let mut appended = String::new();
        for (event, want) in events.iter().zip(golden) {
            assert_eq!(event.to_jsonl(), want);
            event.append_jsonl(&mut appended);
            appended.push('\n');
        }
        assert_eq!(
            appended,
            golden.join("\n") + "\n",
            "appending leaves earlier lines alone"
        );
    }
}
