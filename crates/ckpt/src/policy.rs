//! Checkpoint policies, including the paper's risk-based cooperative
//! checkpointing (§3.4).
//!
//! An application requests a checkpoint every interval `I` of useful
//! progress; the *system* decides whether to grant (perform) or deny (skip)
//! it. Performing pauses progress for the overhead `C`. Skipping leaves the
//! rollback point where it was: if `d − 1` consecutive checkpoints have
//! been skipped, a failure before the next completed checkpoint loses
//! `d·I` of progress (plus whatever was underway).
//!
//! The paper's risk-based heuristic (Eq. 1) grants the checkpoint iff
//!
//! ```text
//! pf · d·I ≥ C
//! ```
//!
//! where `pf` is the predicted probability that the job's partition fails
//! before the next checkpoint would complete. Taken literally, `pf = 0`
//! (no prediction) means *every* checkpoint is skipped — that is the
//! [`RiskBased`] policy, and it is what makes the `a = 0` end of the
//! paper's lost-work curves so high. [`RiskBasedWithDefault`] is the
//! conservative hybrid that falls back to periodic behaviour when the
//! predictor is silent; the ablation benches compare them.

use pqos_sim_core::time::{SimDuration, SimTime};
use std::fmt;

/// Whether the negotiated deadline forces the system's hand (§3.4: "the
/// checkpoint will be skipped if doing so might allow a job to meet a
/// deadline that it would otherwise miss").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlinePressure {
    /// The deadline is comfortably met either way (or there is none).
    #[default]
    None,
    /// Performing this checkpoint would push the estimated completion past
    /// the deadline, while skipping it keeps the deadline reachable.
    SkipToMeet,
}

/// Everything a policy may consult when deciding one checkpoint request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointContext {
    /// Request time `bᵢ`.
    pub now: SimTime,
    /// Checkpoint interval `I`.
    pub interval: SimDuration,
    /// Checkpoint overhead `C` (the paper approximates `Cᵢ₊₁ ≈ Cᵢ = C`).
    pub overhead: SimDuration,
    /// Consecutive requests already skipped since the last completed
    /// checkpoint (so the paper's `d` is `skipped_since_last + 1`).
    pub skipped_since_last: u64,
    /// Predicted probability that the job's partition fails before the
    /// next checkpoint completes.
    pub failure_probability: f64,
    /// System-estimated *base-rate* probability of the same event, derived
    /// from historical failure rates rather than the predictor — nonzero
    /// even when the predictor is silent. Used by
    /// [`RiskBasedWithPrior`].
    pub baseline_failure_probability: f64,
    /// Deadline pressure computed by the negotiation layer.
    pub deadline_pressure: DeadlinePressure,
}

impl CheckpointContext {
    /// The paper's `d`: number of intervals of progress that would be lost
    /// if the job failed right now (1 plus the skipped requests).
    pub(crate) fn d(&self) -> u64 {
        self.skipped_since_last + 1
    }

    /// Work at risk `d·I`.
    pub fn at_risk(&self) -> SimDuration {
        self.interval.saturating_mul(self.d())
    }
}

/// The system's answer to a checkpoint request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointDecision {
    /// Grant: pause the job for `C` and move the rollback point forward.
    Perform,
    /// Deny: continue computing; the rollback point stays put.
    Skip,
}

impl fmt::Display for CheckpointDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointDecision::Perform => write!(f, "perform"),
            CheckpointDecision::Skip => write!(f, "skip"),
        }
    }
}

/// A checkpoint gating policy.
///
/// Implementations must be pure functions of the context so simulation
/// replays are deterministic. The simulator asks through
/// [`decide_with_deadline`] and journals every request and skip itself
/// (`checkpoint_requested`, `checkpoint_skipped`), so a policy has nothing
/// to record.
pub trait CheckpointPolicy {
    /// Decides one checkpoint request.
    fn decide(&self, ctx: &CheckpointContext) -> CheckpointDecision;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Decides one request with the paper's deadline override (§3.4): skip
/// whenever skipping is what lets the job meet its negotiated deadline,
/// and ask `policy` only otherwise.
///
/// # Examples
///
/// ```
/// use pqos_ckpt::policy::*;
/// use pqos_sim_core::time::{SimDuration, SimTime};
///
/// let ctx = CheckpointContext {
///     now: SimTime::ZERO,
///     interval: SimDuration::from_secs(3600),
///     overhead: SimDuration::from_secs(720),
///     skipped_since_last: 0,
///     failure_probability: 0.9,
///     baseline_failure_probability: 0.01,
///     deadline_pressure: DeadlinePressure::SkipToMeet,
/// };
/// assert_eq!(decide_with_deadline(&Periodic, &ctx), CheckpointDecision::Skip);
/// ```
pub fn decide_with_deadline<P: CheckpointPolicy + ?Sized>(
    policy: &P,
    ctx: &CheckpointContext,
) -> CheckpointDecision {
    match ctx.deadline_pressure {
        DeadlinePressure::SkipToMeet => CheckpointDecision::Skip,
        DeadlinePressure::None => policy.decide(ctx),
    }
}

/// Never checkpoint. The paper's worst case for lost work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoCheckpointing;

impl CheckpointPolicy for NoCheckpointing {
    fn decide(&self, _ctx: &CheckpointContext) -> CheckpointDecision {
        CheckpointDecision::Skip
    }
    fn name(&self) -> &'static str {
        "none"
    }
}

/// Always checkpoint — classic periodic checkpointing, the standard
/// practice the paper compares against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Periodic;

impl CheckpointPolicy for Periodic {
    fn decide(&self, _ctx: &CheckpointContext) -> CheckpointDecision {
        CheckpointDecision::Perform
    }
    fn name(&self) -> &'static str {
        "periodic"
    }
}

/// The paper's Eq. 1, taken literally: perform iff `pf · d·I ≥ C`.
///
/// # Examples
///
/// ```
/// use pqos_ckpt::policy::*;
/// use pqos_sim_core::time::{SimDuration, SimTime};
///
/// let ctx = CheckpointContext {
///     now: SimTime::ZERO,
///     interval: SimDuration::from_secs(3600),
///     overhead: SimDuration::from_secs(720),
///     skipped_since_last: 0,
///     failure_probability: 0.5,
///     baseline_failure_probability: 0.01,
///     deadline_pressure: DeadlinePressure::None,
/// };
/// // 0.5 · 3600 = 1800 ≥ 720 → perform.
/// assert_eq!(RiskBased.decide(&ctx), CheckpointDecision::Perform);
///
/// let quiet = CheckpointContext { failure_probability: 0.1, ..ctx };
/// // 0.1 · 3600 = 360 < 720 → skip.
/// assert_eq!(RiskBased.decide(&quiet), CheckpointDecision::Skip);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RiskBased;

impl CheckpointPolicy for RiskBased {
    fn decide(&self, ctx: &CheckpointContext) -> CheckpointDecision {
        let expected_loss = ctx.failure_probability * ctx.at_risk().as_secs() as f64;
        if expected_loss >= ctx.overhead.as_secs() as f64 {
            CheckpointDecision::Perform
        } else {
            CheckpointDecision::Skip
        }
    }
    fn name(&self) -> &'static str {
        "risk-based"
    }
}

/// Risk-based with a conservative default: when the predictor is silent
/// (`pf = 0`), perform the checkpoint (periodic behaviour); when it speaks,
/// apply Eq. 1.
///
/// Rationale: the oracle's silence is a false-negative-prone signal, not a
/// safety certificate, so a deployment may prefer to keep the periodic
/// safety net. Compared in the checkpoint-policy ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RiskBasedWithDefault;

impl CheckpointPolicy for RiskBasedWithDefault {
    fn decide(&self, ctx: &CheckpointContext) -> CheckpointDecision {
        if ctx.failure_probability == 0.0 {
            CheckpointDecision::Perform
        } else {
            RiskBased.decide(ctx)
        }
    }
    fn name(&self) -> &'static str {
        "risk-based+periodic-default"
    }
}

/// Risk-based with a historical prior: Eq. 1 evaluated on the *larger* of
/// the predicted and base-rate failure probabilities.
///
/// This is the flavour of risk-based checkpointing in Oliner's cooperative-
/// checkpointing work: absence of a prediction is not evidence of safety,
/// so the system falls back to its historical failure-rate estimate. Small
/// partitions with short windows accumulate risk across skipped requests
/// (`d` grows) and still checkpoint periodically — just less often than a
/// blind periodic policy.
///
/// # Examples
///
/// ```
/// use pqos_ckpt::policy::*;
/// use pqos_sim_core::time::{SimDuration, SimTime};
///
/// let mut ctx = CheckpointContext {
///     now: SimTime::ZERO,
///     interval: SimDuration::from_secs(3600),
///     overhead: SimDuration::from_secs(720),
///     skipped_since_last: 0,
///     failure_probability: 0.0,
///     baseline_failure_probability: 0.05,
///     deadline_pressure: DeadlinePressure::None,
/// };
/// // 0.05 · 3600 = 180 < 720 → skip; after 3 skips, 0.05·4·3600 ≥ 720.
/// assert_eq!(RiskBasedWithPrior.decide(&ctx), CheckpointDecision::Skip);
/// ctx.skipped_since_last = 3;
/// assert_eq!(RiskBasedWithPrior.decide(&ctx), CheckpointDecision::Perform);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RiskBasedWithPrior;

impl CheckpointPolicy for RiskBasedWithPrior {
    fn decide(&self, ctx: &CheckpointContext) -> CheckpointDecision {
        let pf = ctx
            .failure_probability
            .max(ctx.baseline_failure_probability);
        let effective = CheckpointContext {
            failure_probability: pf,
            ..*ctx
        };
        RiskBased.decide(&effective)
    }
    fn name(&self) -> &'static str {
        "risk-based+prior"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(pf: f64, skipped: u64) -> CheckpointContext {
        CheckpointContext {
            now: SimTime::from_secs(1000),
            interval: SimDuration::from_secs(3600),
            overhead: SimDuration::from_secs(720),
            skipped_since_last: skipped,
            failure_probability: pf,
            baseline_failure_probability: 0.0,
            deadline_pressure: DeadlinePressure::None,
        }
    }

    #[test]
    fn d_counts_current_interval() {
        assert_eq!(ctx(0.0, 0).d(), 1);
        assert_eq!(ctx(0.0, 3).d(), 4);
        assert_eq!(ctx(0.0, 3).at_risk(), SimDuration::from_secs(4 * 3600));
    }

    #[test]
    fn risk_based_threshold_is_eq1() {
        // Boundary: pf·dI = C exactly → perform (inequality is ≥).
        let boundary = ctx(720.0 / 3600.0, 0);
        assert_eq!(RiskBased.decide(&boundary), CheckpointDecision::Perform);
        let below = ctx(719.0 / 3600.0, 0);
        assert_eq!(RiskBased.decide(&below), CheckpointDecision::Skip);
    }

    #[test]
    fn risk_based_accumulates_risk_over_skips() {
        // pf = 0.05: 0.05·3600 = 180 < 720 → skip; after 3 skips,
        // 0.05·4·3600 = 720 ≥ 720 → perform.
        assert_eq!(RiskBased.decide(&ctx(0.05, 0)), CheckpointDecision::Skip);
        assert_eq!(RiskBased.decide(&ctx(0.05, 3)), CheckpointDecision::Perform);
    }

    #[test]
    fn risk_based_skips_on_silence() {
        assert_eq!(RiskBased.decide(&ctx(0.0, 100)), CheckpointDecision::Skip);
    }

    #[test]
    fn hybrid_performs_on_silence() {
        assert_eq!(
            RiskBasedWithDefault.decide(&ctx(0.0, 0)),
            CheckpointDecision::Perform
        );
        // With a prediction it behaves like Eq. 1.
        assert_eq!(
            RiskBasedWithDefault.decide(&ctx(0.05, 0)),
            CheckpointDecision::Skip
        );
        assert_eq!(
            RiskBasedWithDefault.decide(&ctx(0.5, 0)),
            CheckpointDecision::Perform
        );
    }

    #[test]
    fn constant_policies() {
        assert_eq!(
            NoCheckpointing.decide(&ctx(1.0, 9)),
            CheckpointDecision::Skip
        );
        assert_eq!(Periodic.decide(&ctx(0.0, 0)), CheckpointDecision::Perform);
    }

    #[test]
    fn deadline_override_beats_any_inner_decision() {
        let mut c = ctx(1.0, 9);
        c.deadline_pressure = DeadlinePressure::SkipToMeet;
        assert_eq!(
            decide_with_deadline(&Periodic, &c),
            CheckpointDecision::Skip
        );
        assert_eq!(
            decide_with_deadline(&RiskBased, &c),
            CheckpointDecision::Skip
        );
        c.deadline_pressure = DeadlinePressure::None;
        assert_eq!(
            decide_with_deadline(&Periodic, &c),
            CheckpointDecision::Perform
        );
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            NoCheckpointing.name(),
            Periodic.name(),
            RiskBased.name(),
            RiskBasedWithDefault.name(),
            RiskBasedWithPrior.name(),
        ];
        let mut unique = names.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn prior_policy_uses_max_of_prediction_and_baseline() {
        let mut c = ctx(0.0, 0);
        c.baseline_failure_probability = 0.25;
        // max(0, 0.25)·3600 = 900 ≥ 720 → perform on the prior alone.
        assert_eq!(RiskBasedWithPrior.decide(&c), CheckpointDecision::Perform);
        // A strong prediction dominates a weak prior.
        let mut c = ctx(0.5, 0);
        c.baseline_failure_probability = 0.01;
        assert_eq!(RiskBasedWithPrior.decide(&c), CheckpointDecision::Perform);
        // Both weak → skip.
        let mut c = ctx(0.01, 0);
        c.baseline_failure_probability = 0.01;
        assert_eq!(RiskBasedWithPrior.decide(&c), CheckpointDecision::Skip);
    }

    #[test]
    fn boxed_policy_delegates() {
        let boxed: Box<dyn CheckpointPolicy> = Box::new(RiskBased);
        assert_eq!(boxed.decide(&ctx(1.0, 0)), CheckpointDecision::Perform);
        assert_eq!(boxed.name(), "risk-based");
    }

    #[test]
    fn decision_display() {
        assert_eq!(CheckpointDecision::Perform.to_string(), "perform");
        assert_eq!(CheckpointDecision::Skip.to_string(), "skip");
    }
}
