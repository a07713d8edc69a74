//! Prediction-quality evaluation against a ground-truth trace.
//!
//! Used to validate that a predictor behaves as configured — e.g. that the
//! trace oracle's recall equals its accuracy parameter `a` and its false
//! positive rate is zero, the two properties §4.3 asserts.

use crate::api::Predictor;
use pqos_cluster::node::NodeId;
use pqos_failures::trace::FailureTrace;
use pqos_sim_core::time::{SimDuration, TimeWindow};
use std::fmt;

/// Outcome counts of a sliding-window evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PredictionQuality {
    /// Windows containing a failure where the predictor fired.
    pub true_positives: usize,
    /// Windows containing a failure where it stayed silent.
    pub false_negatives: usize,
    /// Failure-free windows where it fired anyway.
    pub false_positives: usize,
    /// Failure-free windows where it stayed silent.
    pub true_negatives: usize,
}

impl PredictionQuality {
    /// Recall = TP / (TP + FN); `None` when no failure windows were seen.
    pub fn recall(&self) -> Option<f64> {
        let denom = self.true_positives + self.false_negatives;
        (denom > 0).then(|| self.true_positives as f64 / denom as f64)
    }

    /// False-positive rate = FP / (FP + TN); `None` when no clean windows
    /// were seen.
    pub fn false_positive_rate(&self) -> Option<f64> {
        let denom = self.false_positives + self.true_negatives;
        (denom > 0).then(|| self.false_positives as f64 / denom as f64)
    }

    /// Precision = TP / (TP + FP); `None` when the predictor never fired.
    pub fn precision(&self) -> Option<f64> {
        let denom = self.true_positives + self.false_positives;
        (denom > 0).then(|| self.true_positives as f64 / denom as f64)
    }
}

impl fmt::Display for PredictionQuality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recall={:?} precision={:?} fpr={:?} (tp={} fn={} fp={} tn={})",
            self.recall(),
            self.precision(),
            self.false_positive_rate(),
            self.true_positives,
            self.false_negatives,
            self.false_positives,
            self.true_negatives,
        )
    }
}

/// Slides a window of `horizon` over the trace span in steps of `step`,
/// querying the predictor per node and comparing against ground truth.
///
/// A prediction "fires" when the returned probability is strictly positive.
/// For predictors that always return a nonzero probability (e.g. rate
/// models with a prior), use [`evaluate_per_node_with_threshold`].
///
/// # Panics
///
/// Panics if `step` or `horizon` is zero.
pub fn evaluate_per_node<P: Predictor>(
    predictor: &P,
    truth: &FailureTrace,
    nodes: u32,
    horizon: SimDuration,
    step: SimDuration,
) -> PredictionQuality {
    evaluate_per_node_with_threshold(predictor, truth, nodes, horizon, step, 0.0)
}

/// Like [`evaluate_per_node`], but a prediction "fires" only when the
/// returned probability is strictly greater than `fire_threshold`.
///
/// # Panics
///
/// Panics if `step` or `horizon` is zero, or `fire_threshold` is not in
/// `[0, 1)`.
pub fn evaluate_per_node_with_threshold<P: Predictor>(
    predictor: &P,
    truth: &FailureTrace,
    nodes: u32,
    horizon: SimDuration,
    step: SimDuration,
    fire_threshold: f64,
) -> PredictionQuality {
    assert!(
        !step.is_zero() && !horizon.is_zero(),
        "zero step or horizon"
    );
    assert!(
        (0.0..1.0).contains(&fire_threshold),
        "fire threshold outside [0, 1)"
    );
    let mut q = PredictionQuality::default();
    let Some(last) = truth.failures().last().map(|f| f.time) else {
        return q;
    };
    let mut start = pqos_sim_core::time::SimTime::ZERO;
    while start <= last {
        let window = TimeWindow::starting_at(start, horizon);
        for n in 0..nodes {
            let node = NodeId::new(n);
            let fired = predictor.node_failure_probability(node, window) > fire_threshold;
            let failed = truth.node_failures_in(node, window).next().is_some();
            match (fired, failed) {
                (true, true) => q.true_positives += 1,
                (false, true) => q.false_negatives += 1,
                (true, false) => q.false_positives += 1,
                (false, false) => q.true_negatives += 1,
            }
        }
        start += step;
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::NullPredictor;
    use crate::oracle::TraceOracle;
    use pqos_failures::synthetic::AixLikeTrace;
    use std::sync::Arc;

    #[test]
    fn oracle_recall_tracks_accuracy_with_zero_fpr() {
        let trace = Arc::new(AixLikeTrace::new().days(90.0).seed(21).build());
        for a in [0.3, 0.7, 1.0] {
            let oracle = TraceOracle::new(Arc::clone(&trace), a).unwrap();
            let q = evaluate_per_node(
                &oracle,
                &trace,
                128,
                SimDuration::from_hours(12),
                SimDuration::from_hours(12),
            );
            let recall = q.recall().expect("trace has failures");
            assert!(
                (recall - a).abs() < 0.12,
                "a={a}: recall {recall} (quality {q})"
            );
            assert_eq!(q.false_positive_rate(), Some(0.0), "oracle has no FPs");
        }
    }

    #[test]
    fn null_predictor_has_zero_recall() {
        let trace = AixLikeTrace::new().days(30.0).seed(22).build();
        let q = evaluate_per_node(
            &NullPredictor,
            &trace,
            128,
            SimDuration::from_hours(12),
            SimDuration::from_hours(12),
        );
        assert_eq!(q.recall(), Some(0.0));
        assert_eq!(q.precision(), None, "never fired");
        assert!(!q.to_string().is_empty());
    }

    #[test]
    fn threshold_silences_weak_predictions() {
        use crate::online::RateEstimator;
        let trace = AixLikeTrace::new().days(30.0).seed(23).build();
        let mut rate = RateEstimator::new(SimDuration::from_days(7), 0.9);
        for f in trace.iter() {
            rate.observe_failure(f.node, f.time);
        }
        let loose = evaluate_per_node(
            &rate,
            &trace,
            128,
            SimDuration::from_hours(12),
            SimDuration::from_hours(12),
        );
        let strict = evaluate_per_node_with_threshold(
            &rate,
            &trace,
            128,
            SimDuration::from_hours(12),
            SimDuration::from_hours(12),
            0.2,
        );
        // The prior makes every probability positive, so the loose
        // evaluation fires everywhere; the threshold restores selectivity.
        assert_eq!(loose.false_positive_rate(), Some(1.0));
        assert!(strict.false_positive_rate().unwrap_or(1.0) < 0.5);
    }

    #[test]
    fn empty_trace_yields_empty_quality() {
        let trace = FailureTrace::new(vec![]).unwrap();
        let q = evaluate_per_node(
            &NullPredictor,
            &trace,
            4,
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
        );
        assert_eq!(q, PredictionQuality::default());
        assert_eq!(q.recall(), None);
    }
}
