//! Online predictors: learn from the event stream instead of consulting a
//! trace oracle.
//!
//! The paper's simulations use the idealized trace oracle, but its §3.2
//! describes the real mechanism it stands in for: "linear time series
//! models for the roughly continuous variables ... and Bayesian correlation
//! models to recognize patterns in preceding system events" (Sahoo et al.,
//! KDD 2003). This module provides two practical stand-ins usable outside
//! trace replay:
//!
//! * [`RateEstimator`] — an exponentially-decayed per-node failure-rate
//!   model; the "continuous" half. Captures lemon nodes.
//! * [`PatternPredictor`] — a precursor-pattern detector over the raw
//!   event stream; the "event correlation" half. Captures
//!   failures-preceded-by-misbehavior.

use crate::api::Predictor;
use pqos_cluster::node::NodeId;
use pqos_failures::event::RawEvent;
use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
use std::collections::VecDeque;
use std::sync::{Arc, RwLock};

/// Exponentially-decayed per-node failure-rate estimator.
///
/// Each observed failure bumps the node's rate; rates decay with a
/// configurable half-life. The predicted probability of failure over a
/// window of length `L` is `1 − exp(−rate·L)`, capped at the
/// `confidence_cap` given to [`RateEstimator::new`] so that, like the
/// paper's oracle, an imprecise predictor never claims high confidence.
///
/// # Examples
///
/// ```
/// use pqos_cluster::node::NodeId;
/// use pqos_predict::api::Predictor;
/// use pqos_predict::online::RateEstimator;
/// use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
///
/// let mut est = RateEstimator::new(SimDuration::from_days(7), 0.9);
/// let lemon = NodeId::new(3);
/// for day in 0..5 {
///     est.observe_failure(lemon, SimTime::from_secs(day * 86_400));
/// }
/// let w = TimeWindow::starting_at(SimTime::from_secs(5 * 86_400), SimDuration::from_days(1));
/// assert!(est.failure_probability(&[lemon], w) > 0.2);
/// assert!(est.failure_probability(&[NodeId::new(9)], w) < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct RateEstimator {
    half_life: SimDuration,
    confidence_cap: f64,
    prior_rate_per_sec: f64,
    // Per node: (decayed failure count, time of last update).
    counts: Vec<(f64, SimTime)>,
}

impl RateEstimator {
    /// Creates an estimator with the given decay half-life and confidence
    /// cap.
    ///
    /// # Panics
    ///
    /// Panics if `half_life` is zero or `confidence_cap` outside `(0, 1]`.
    pub fn new(half_life: SimDuration, confidence_cap: f64) -> Self {
        assert!(!half_life.is_zero(), "half-life must be positive");
        assert!(
            confidence_cap > 0.0 && confidence_cap <= 1.0,
            "confidence cap outside (0, 1]"
        );
        RateEstimator {
            half_life,
            confidence_cap,
            // One failure per node-decade as an uninformative prior.
            prior_rate_per_sec: 1.0 / (10.0 * 365.0 * 86_400.0),
            counts: Vec::new(),
        }
    }

    /// Records a failure of `node` at `at`. Observations must be fed in
    /// non-decreasing time order per node; out-of-order observations are
    /// treated as happening at the node's latest known time.
    pub fn observe_failure(&mut self, node: NodeId, at: SimTime) {
        if node.index() >= self.counts.len() {
            self.counts.resize(node.index() + 1, (0.0, SimTime::ZERO));
        }
        let (count, last) = self.counts[node.index()];
        let at = at.max(last);
        let decayed = count * self.decay_factor(at.saturating_since(last));
        self.counts[node.index()] = (decayed + 1.0, at);
    }

    fn decay_factor(&self, elapsed: SimDuration) -> f64 {
        (-std::f64::consts::LN_2 * elapsed.as_secs() as f64 / self.half_life.as_secs() as f64).exp()
    }

    /// Estimated hazard of `node` as of its last observation, with no
    /// further query-time decay. This is what [`Predictor`] queries use:
    /// a constant-hazard model quotes the *same* probability for a window
    /// regardless of how far in the future it starts, so deadline
    /// negotiation cannot mistake model staleness ("risk decays the longer
    /// I procrastinate") for genuine risk avoidance.
    pub(crate) fn node_hazard(&self, node: NodeId) -> f64 {
        let Some(&(count, _)) = self.counts.get(node.index()) else {
            return self.prior_rate_per_sec;
        };
        // A decayed count over an effective window of ~2 half-lives.
        let effective_window = 2.0 * self.half_life.as_secs() as f64;
        self.prior_rate_per_sec + count / effective_window
    }
}

impl Predictor for RateEstimator {
    fn failure_probability(&self, nodes: &[NodeId], window: TimeWindow) -> f64 {
        let total_rate: f64 = nodes.iter().map(|&n| self.node_hazard(n)).sum();
        let p = 1.0 - (-total_rate * window.length().as_secs() as f64).exp();
        p.min(self.confidence_cap)
    }
}

/// Precursor-pattern predictor over the raw event stream.
///
/// Maintains a sliding window of recent WARNING/ERROR events per node; when
/// a node has accumulated at least `threshold` precursors, a failure within
/// the lookahead horizon is predicted with confidence proportional to the
/// precursor count (capped).
///
/// # Examples
///
/// ```
/// use pqos_cluster::node::NodeId;
/// use pqos_failures::event::{RawEvent, Severity, Subsystem};
/// use pqos_predict::api::Predictor;
/// use pqos_predict::online::PatternPredictor;
/// use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
///
/// let mut p = PatternPredictor::new(SimDuration::from_secs(3600), 3, 0.7);
/// for k in 0..4 {
///     p.observe_raw(&RawEvent {
///         time: SimTime::from_secs(100 * k),
///         node: NodeId::new(2),
///         severity: Severity::Warning,
///         subsystem: Subsystem::Memory,
///     });
/// }
/// let w = TimeWindow::starting_at(SimTime::from_secs(400), SimDuration::from_secs(3600));
/// assert!(p.failure_probability(&[NodeId::new(2)], w) > 0.0);
/// assert_eq!(p.failure_probability(&[NodeId::new(5)], w), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct PatternPredictor {
    window: SimDuration,
    threshold: usize,
    confidence_cap: f64,
    // Per node: timestamps of recent precursor events.
    recent: Vec<VecDeque<SimTime>>,
}

impl PatternPredictor {
    /// Creates a predictor that looks for `threshold` precursor events
    /// within `window`, reporting at most `confidence_cap` confidence.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero, `threshold == 0`, or `confidence_cap`
    /// is outside `(0, 1]`.
    pub fn new(window: SimDuration, threshold: usize, confidence_cap: f64) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        assert!(threshold > 0, "threshold must be positive");
        assert!(
            confidence_cap > 0.0 && confidence_cap <= 1.0,
            "confidence cap outside (0, 1]"
        );
        PatternPredictor {
            window,
            threshold,
            confidence_cap,
            recent: Vec::new(),
        }
    }

    /// Feeds one raw event. Only WARNING/ERROR events count as precursors;
    /// INFO is ignored; critical events clear the node's history (the node
    /// just failed — its pattern is spent).
    pub fn observe_raw(&mut self, event: &RawEvent) {
        use pqos_failures::event::Severity;
        let idx = event.node.index();
        if idx >= self.recent.len() {
            self.recent.resize_with(idx + 1, VecDeque::new);
        }
        match event.severity {
            Severity::Warning | Severity::Error => {
                self.recent[idx].push_back(event.time);
                self.expire(idx, event.time);
            }
            Severity::Fatal | Severity::Failure => self.recent[idx].clear(),
            Severity::Info => {}
        }
    }

    fn expire(&mut self, idx: usize, now: SimTime) {
        while let Some(&front) = self.recent[idx].front() {
            if now.saturating_since(front) > self.window {
                self.recent[idx].pop_front();
            } else {
                break;
            }
        }
    }

    /// Number of live precursors for `node` as of `now`.
    pub(crate) fn precursor_count(&self, node: NodeId, now: SimTime) -> usize {
        let Some(q) = self.recent.get(node.index()) else {
            return 0;
        };
        q.iter()
            .filter(|&&t| now.saturating_since(t) <= self.window)
            .count()
    }
}

impl Predictor for PatternPredictor {
    fn failure_probability(&self, nodes: &[NodeId], window: TimeWindow) -> f64 {
        let mut best = 0.0f64;
        for &n in nodes {
            let count = self.precursor_count(n, window.start());
            if count >= self.threshold {
                // Confidence grows with excess precursors.
                let p =
                    self.confidence_cap * (count as f64 / (count as f64 + self.threshold as f64));
                best = best.max(p);
            }
        }
        best.min(self.confidence_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_failures::event::{Severity, Subsystem};

    fn ev(t: u64, n: u32, sev: Severity) -> RawEvent {
        RawEvent {
            time: SimTime::from_secs(t),
            node: NodeId::new(n),
            severity: sev,
            subsystem: Subsystem::Memory,
        }
    }

    #[test]
    fn rate_estimator_learns_lemons() {
        let mut est = RateEstimator::new(SimDuration::from_days(7), 1.0);
        let lemon = NodeId::new(0);
        let good = NodeId::new(1);
        for day in 0..10 {
            est.observe_failure(lemon, SimTime::from_secs(day * 86_400));
        }
        assert!(est.node_hazard(lemon) > 50.0 * est.node_hazard(good));
    }

    #[test]
    fn rate_decays_over_time() {
        // A second failure an hour after the first finds the first one
        // almost undecayed; a month later it finds it forgotten.
        let mut est = RateEstimator::new(SimDuration::from_days(1), 1.0);
        est.observe_failure(NodeId::new(0), SimTime::ZERO);
        est.observe_failure(NodeId::new(0), SimTime::from_secs(3600));
        est.observe_failure(NodeId::new(1), SimTime::ZERO);
        est.observe_failure(NodeId::new(1), SimTime::from_secs(30 * 86_400));
        let soon = est.node_hazard(NodeId::new(0));
        let later = est.node_hazard(NodeId::new(1));
        assert!(soon > 1.9 * later, "{soon} vs {later}");
    }

    #[test]
    fn rate_prediction_is_capped() {
        let mut est = RateEstimator::new(SimDuration::from_days(1), 0.6);
        for k in 0..100 {
            est.observe_failure(NodeId::new(0), SimTime::from_secs(k * 60));
        }
        let w = TimeWindow::starting_at(SimTime::from_secs(6000), SimDuration::from_days(30));
        let p = est.failure_probability(&[NodeId::new(0)], w);
        assert!(p <= 0.6 + 1e-12, "p = {p}");
        assert!(p > 0.59, "should saturate at the cap");
    }

    #[test]
    fn predictions_are_start_time_invariant() {
        // Constant-hazard semantics: the same window length quoted now and
        // a month out must carry the same probability, so negotiation
        // cannot profit from procrastination against a stale model.
        let mut est = RateEstimator::new(SimDuration::from_days(7), 1.0);
        for day in 0..10 {
            est.observe_failure(NodeId::new(0), SimTime::from_secs(day * 86_400));
        }
        let len = SimDuration::from_days(1);
        let soon = est.failure_probability(
            &[NodeId::new(0)],
            TimeWindow::starting_at(SimTime::from_secs(10 * 86_400), len),
        );
        let later = est.failure_probability(
            &[NodeId::new(0)],
            TimeWindow::starting_at(SimTime::from_secs(40 * 86_400), len),
        );
        assert_eq!(soon, later);
        assert!(soon > 0.0);
    }

    #[test]
    fn out_of_order_observation_does_not_panic() {
        let mut est = RateEstimator::new(SimDuration::from_days(1), 1.0);
        est.observe_failure(NodeId::new(0), SimTime::from_secs(1000));
        est.observe_failure(NodeId::new(0), SimTime::from_secs(500));
        assert!(est.node_hazard(NodeId::new(0)) > 0.0);
    }

    #[test]
    fn pattern_requires_threshold() {
        let mut p = PatternPredictor::new(SimDuration::from_secs(3600), 3, 0.7);
        p.observe_raw(&ev(0, 0, Severity::Warning));
        p.observe_raw(&ev(10, 0, Severity::Warning));
        let w = TimeWindow::starting_at(SimTime::from_secs(20), SimDuration::from_secs(100));
        assert_eq!(p.failure_probability(&[NodeId::new(0)], w), 0.0);
        p.observe_raw(&ev(20, 0, Severity::Error));
        assert!(p.failure_probability(&[NodeId::new(0)], w) > 0.0);
    }

    #[test]
    fn pattern_ignores_info_and_expires() {
        let mut p = PatternPredictor::new(SimDuration::from_secs(100), 2, 0.7);
        p.observe_raw(&ev(0, 0, Severity::Info));
        p.observe_raw(&ev(0, 0, Severity::Warning));
        p.observe_raw(&ev(10, 0, Severity::Warning));
        assert_eq!(p.precursor_count(NodeId::new(0), SimTime::from_secs(10)), 2);
        // Far in the future, both expired.
        assert_eq!(
            p.precursor_count(NodeId::new(0), SimTime::from_secs(500)),
            0
        );
    }

    #[test]
    fn pattern_clears_on_failure() {
        let mut p = PatternPredictor::new(SimDuration::from_secs(1000), 2, 0.7);
        p.observe_raw(&ev(0, 0, Severity::Warning));
        p.observe_raw(&ev(1, 0, Severity::Warning));
        p.observe_raw(&ev(2, 0, Severity::Fatal));
        assert_eq!(p.precursor_count(NodeId::new(0), SimTime::from_secs(3)), 0);
    }

    #[test]
    fn pattern_confidence_capped() {
        let mut p = PatternPredictor::new(SimDuration::from_secs(10_000), 1, 0.5);
        for k in 0..50 {
            p.observe_raw(&ev(k, 0, Severity::Warning));
        }
        let w = TimeWindow::starting_at(SimTime::from_secs(50), SimDuration::from_secs(100));
        let prob = p.failure_probability(&[NodeId::new(0)], w);
        assert!(prob <= 0.5 && prob > 0.0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn pattern_rejects_zero_threshold() {
        let _ = PatternPredictor::new(SimDuration::from_secs(1), 0, 0.5);
    }

    #[test]
    #[should_panic(expected = "half-life")]
    fn rate_rejects_zero_half_life() {
        let _ = RateEstimator::new(SimDuration::ZERO, 0.5);
    }
}

/// A shareable, concurrently-updatable [`RateEstimator`].
///
/// The plain estimator needs `&mut self` to learn; a simulator holds its
/// predictor behind an `Arc`. This wrapper provides interior mutability so
/// the model can be *fed during the run* (e.g. via
/// `QosSimulator::with_failure_hook`), keeping its decayed rates current
/// instead of going stale and systematically rewarding procrastination.
///
/// # Examples
///
/// ```
/// use pqos_predict::api::Predictor;
/// use pqos_predict::online::{RateEstimator, SharedRateEstimator};
/// use pqos_cluster::node::NodeId;
/// use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
///
/// let shared = SharedRateEstimator::new(RateEstimator::new(
///     SimDuration::from_days(7),
///     0.9,
/// ));
/// let clone = shared.clone(); // both handles see the same model
/// clone.observe_failure(NodeId::new(0), SimTime::from_secs(100));
/// let w = TimeWindow::starting_at(SimTime::from_secs(200), SimDuration::from_days(1));
/// assert!(shared.failure_probability(&[NodeId::new(0)], w) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SharedRateEstimator {
    inner: Arc<RwLock<RateEstimator>>,
}

impl SharedRateEstimator {
    /// Wraps an estimator.
    pub fn new(estimator: RateEstimator) -> Self {
        SharedRateEstimator {
            inner: Arc::new(RwLock::new(estimator)),
        }
    }

    /// Records a failure (see [`RateEstimator::observe_failure`]).
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned (a writer panicked).
    pub fn observe_failure(&self, node: NodeId, at: SimTime) {
        self.inner
            .write()
            .expect("rate estimator lock poisoned")
            .observe_failure(node, at);
    }
}

impl Predictor for SharedRateEstimator {
    fn failure_probability(&self, nodes: &[NodeId], window: TimeWindow) -> f64 {
        self.inner
            .read()
            .expect("rate estimator lock poisoned")
            .failure_probability(nodes, window)
    }
}

#[cfg(test)]
mod shared_tests {
    use super::*;

    #[test]
    fn handles_share_state() {
        let a = SharedRateEstimator::new(RateEstimator::new(SimDuration::from_days(1), 1.0));
        let b = a.clone();
        for k in 0..20 {
            a.observe_failure(NodeId::new(3), SimTime::from_secs(k * 100));
        }
        let w = TimeWindow::starting_at(SimTime::from_secs(2000), SimDuration::from_days(1));
        let pa = a.failure_probability(&[NodeId::new(3)], w);
        let pb = b.failure_probability(&[NodeId::new(3)], w);
        assert_eq!(pa, pb);
        assert!(pa > 0.1);
    }
}
