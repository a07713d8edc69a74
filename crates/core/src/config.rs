//! Simulation configuration (the paper's Table 2).

use crate::user::UserStrategy;
use pqos_ckpt::policy::{
    CheckpointPolicy, NoCheckpointing, Periodic, RiskBased, RiskBasedWithDefault,
    RiskBasedWithPrior,
};
use pqos_cluster::topology::Topology;
use pqos_sched::place::PlacementStrategy;
use pqos_sim_core::time::SimDuration;
use std::fmt;

/// Which checkpoint gating policy the system runs. Whichever it is, the
/// simulator applies the paper's deadline override first: a request whose
/// checkpoint would cost the job its deadline is skipped unasked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointPolicyKind {
    /// Never checkpoint.
    None,
    /// Always checkpoint (classic periodic).
    Periodic,
    /// The paper's risk-based Eq. 1, taken literally (`pf = 0` ⇒ skip).
    RiskBased,
    /// Eq. 1 when the predictor speaks, periodic when it is silent. This
    /// is the default: the paper's measured `a = 0` utilization, lost
    /// work, and checkpoint counts ("orders of magnitude" above failed
    /// jobs) are only consistent with checkpoints being performed in the
    /// absence of predictions. See DESIGN.md.
    #[default]
    RiskBasedWithDefault,
    /// Eq. 1 on the max of the predicted and historical base-rate failure
    /// probabilities (Oliner's cooperative-checkpointing flavour).
    RiskBasedWithPrior,
}

impl CheckpointPolicyKind {
    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn CheckpointPolicy> {
        match self {
            CheckpointPolicyKind::None => Box::new(NoCheckpointing),
            CheckpointPolicyKind::Periodic => Box::new(Periodic),
            CheckpointPolicyKind::RiskBased => Box::new(RiskBased),
            CheckpointPolicyKind::RiskBasedWithDefault => Box::new(RiskBasedWithDefault),
            CheckpointPolicyKind::RiskBasedWithPrior => Box::new(RiskBasedWithPrior),
        }
    }
}

impl CheckpointPolicyKind {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CheckpointPolicyKind::None => "none",
            CheckpointPolicyKind::Periodic => "periodic",
            CheckpointPolicyKind::RiskBased => "risk-based",
            CheckpointPolicyKind::RiskBasedWithDefault => "risk-based+default",
            CheckpointPolicyKind::RiskBasedWithPrior => "risk-based+prior",
        }
    }
}

impl fmt::Display for CheckpointPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Full simulator configuration. Defaults reproduce the paper's Table 2:
/// `N = 128`, `C = 720 s`, `I = 3600 s`, downtime `120 s`, flat topology,
/// fault-aware placement, risk-based + deadline-aware checkpointing.
///
/// # Examples
///
/// ```
/// use pqos_core::config::SimConfig;
/// use pqos_core::user::UserStrategy;
///
/// let config = SimConfig::paper_defaults()
///     .accuracy(0.7)
///     .user(UserStrategy::risk_threshold(0.9).unwrap());
/// assert_eq!(config.cluster_size, 128);
/// assert_eq!(config.accuracy, 0.7);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of nodes `N` (Table 2: 128).
    pub cluster_size: u32,
    /// Communication topology (§4.4: flat, all-to-all).
    pub topology: Topology,
    /// Checkpoint overhead `C` (Table 2: 720 s).
    pub checkpoint_overhead: SimDuration,
    /// Checkpoint interval `I` (Table 2: 3600 s).
    pub checkpoint_interval: SimDuration,
    /// Node restart time after a failure (Table 2: 120 s).
    pub node_downtime: SimDuration,
    /// Prediction accuracy `a ∈ [0, 1]`.
    pub accuracy: f64,
    /// The simulated user population's risk strategy (parameter `U`).
    pub user: UserStrategy,
    /// Partition selection strategy.
    pub placement: PlacementStrategy,
    /// Checkpoint gating policy.
    pub checkpoint_policy: CheckpointPolicyKind,
    /// Fraction of the checkpointed execution time added to the *quoted*
    /// deadline as slack (default 0: the deadline is exactly the planned
    /// completion, so any failure-induced delay is a broken promise).
    /// A modest slack models schedulers that quote conservatively and
    /// deliver aggressively; the slack ablation sweeps this.
    pub deadline_slack: f64,
    /// Maximum reservation-book slots examined during negotiation.
    pub max_negotiation_slots: usize,
    /// Additional fixed-step probes past the end of the book when no slot
    /// satisfies the user's threshold.
    pub max_probe_steps: usize,
}

impl SimConfig {
    /// The paper's Table 2 settings with `a = 0` and earliest-deadline
    /// users; set [`SimConfig::accuracy`] and [`SimConfig::user`] per
    /// experiment.
    pub fn paper_defaults() -> Self {
        SimConfig {
            cluster_size: 128,
            topology: Topology::Flat,
            checkpoint_overhead: SimDuration::from_secs(720),
            checkpoint_interval: SimDuration::from_secs(3600),
            node_downtime: SimDuration::from_secs(120),
            accuracy: 0.0,
            user: UserStrategy::AlwaysEarliest,
            placement: PlacementStrategy::MinFailureProbability,
            checkpoint_policy: CheckpointPolicyKind::RiskBasedWithDefault,
            deadline_slack: 0.0,
            max_negotiation_slots: 24,
            max_probe_steps: 40,
        }
    }

    /// Sets the prediction accuracy `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is outside `[0, 1]`.
    pub fn accuracy(mut self, a: f64) -> Self {
        assert!((0.0..=1.0).contains(&a), "accuracy {a} outside [0, 1]");
        self.accuracy = a;
        self
    }

    /// Sets the user strategy.
    pub fn user(mut self, user: UserStrategy) -> Self {
        self.user = user;
        self
    }

    /// Sets the checkpoint gating policy.
    pub fn checkpoint_policy(mut self, kind: CheckpointPolicyKind) -> Self {
        self.checkpoint_policy = kind;
        self
    }

    /// Sets the placement strategy.
    pub fn placement(mut self, placement: PlacementStrategy) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the cluster size.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn cluster_size_nodes(mut self, n: u32) -> Self {
        assert!(n > 0, "cluster must have at least one node");
        self.cluster_size = n;
        self
    }

    /// Sets the checkpoint interval `I`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn checkpoint_interval_secs(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "interval must be positive");
        self.checkpoint_interval = interval;
        self
    }

    /// Sets the quoted-deadline slack fraction.
    ///
    /// # Panics
    ///
    /// Panics if `slack` is negative or not finite.
    pub fn deadline_slack_fraction(mut self, slack: f64) -> Self {
        assert!(
            slack.is_finite() && slack >= 0.0,
            "deadline slack must be non-negative, got {slack}"
        );
        self.deadline_slack = slack;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_ckpt::policy::{CheckpointContext, CheckpointDecision, DeadlinePressure};
    use pqos_sim_core::time::SimTime;

    #[test]
    fn defaults_match_table2() {
        let c = SimConfig::paper_defaults();
        assert_eq!(c.cluster_size, 128);
        assert_eq!(c.checkpoint_overhead.as_secs(), 720);
        assert_eq!(c.checkpoint_interval.as_secs(), 3600);
        assert_eq!(c.node_downtime.as_secs(), 120);
        assert_eq!(c.topology, Topology::Flat);
        assert_eq!(SimConfig::default().cluster_size, 128);
    }

    #[test]
    fn builder_setters() {
        let c = SimConfig::paper_defaults()
            .accuracy(0.5)
            .cluster_size_nodes(64)
            .checkpoint_interval_secs(SimDuration::from_secs(100))
            .checkpoint_policy(CheckpointPolicyKind::Periodic);
        assert_eq!(c.accuracy, 0.5);
        assert_eq!(c.cluster_size, 64);
        assert_eq!(c.checkpoint_interval.as_secs(), 100);
        assert_eq!(c.checkpoint_policy, CheckpointPolicyKind::Periodic);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_bad_accuracy() {
        let _ = SimConfig::paper_defaults().accuracy(1.5);
    }

    #[test]
    fn policy_kinds_build_working_policies() {
        let ctx = CheckpointContext {
            now: SimTime::ZERO,
            interval: SimDuration::from_secs(3600),
            overhead: SimDuration::from_secs(720),
            skipped_since_last: 0,
            failure_probability: 0.0,
            baseline_failure_probability: 0.0,
            deadline_pressure: DeadlinePressure::None,
        };
        assert_eq!(
            CheckpointPolicyKind::None.build().decide(&ctx),
            CheckpointDecision::Skip
        );
        assert_eq!(
            CheckpointPolicyKind::Periodic.build().decide(&ctx),
            CheckpointDecision::Perform
        );
        assert_eq!(
            CheckpointPolicyKind::RiskBased.build().decide(&ctx),
            CheckpointDecision::Skip
        );
        assert_eq!(
            CheckpointPolicyKind::RiskBasedWithDefault
                .build()
                .decide(&ctx),
            CheckpointDecision::Perform
        );
    }

    #[test]
    fn kind_names_distinct() {
        let mut names = vec![
            CheckpointPolicyKind::None.name(),
            CheckpointPolicyKind::Periodic.name(),
            CheckpointPolicyKind::RiskBased.name(),
            CheckpointPolicyKind::RiskBasedWithDefault.name(),
            CheckpointPolicyKind::RiskBasedWithPrior.name(),
        ];
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
        assert_eq!(CheckpointPolicyKind::RiskBased.to_string(), "risk-based");
    }
}
