//! Telemetry instrumentation for predictors.
//!
//! [`InstrumentedPredictor`] wraps any [`Predictor`] and records query
//! volume and prediction strength into a telemetry metrics registry
//! (`predict.*`) without altering any answer. The simulator installs the
//! wrapper only when telemetry is enabled, so the uninstrumented path is
//! untouched.

use crate::api::Predictor;
use pqos_cluster::node::NodeId;
use pqos_sim_core::time::TimeWindow;
use pqos_telemetry::{Counter, Histogram, Telemetry};

/// A [`Predictor`] that counts its own queries.
///
/// Metrics recorded per [`Predictor::failure_probability`] call:
///
/// * `predict.queries` — total partition queries;
/// * `predict.fired` — queries answered with `pf > 0` (a prediction);
/// * `predict.silent` — queries answered with `pf == 0` (no forecast);
/// * `predict.pf` — histogram of the returned probabilities.
///
/// # Examples
///
/// ```
/// use pqos_cluster::node::NodeId;
/// use pqos_predict::api::{NullPredictor, Predictor};
/// use pqos_predict::instrument::InstrumentedPredictor;
/// use pqos_sim_core::time::{SimTime, TimeWindow};
/// use pqos_telemetry::Telemetry;
///
/// let telemetry = Telemetry::builder().build();
/// let p = InstrumentedPredictor::new(NullPredictor, telemetry.clone());
/// let w = TimeWindow::new(SimTime::ZERO, SimTime::from_secs(100));
/// assert_eq!(p.failure_probability(&[NodeId::new(0)], w), 0.0);
/// let snap = telemetry.snapshot().unwrap();
/// assert_eq!(snap.counter("predict.queries"), Some(1));
/// assert_eq!(snap.counter("predict.silent"), Some(1));
/// ```
pub struct InstrumentedPredictor<P> {
    inner: P,
    // The predictor sits on the simulator's hottest path (every negotiation
    // probes it per candidate slot), so the metric handles are resolved once
    // here instead of by name on every query.
    queries: Counter,
    fired: Counter,
    silent: Counter,
    pf_hist: Histogram,
}

impl<P: Predictor> InstrumentedPredictor<P> {
    /// Wraps `inner`, recording into `telemetry`.
    pub fn new(inner: P, telemetry: Telemetry) -> Self {
        InstrumentedPredictor {
            inner,
            queries: telemetry.counter("predict.queries"),
            fired: telemetry.counter("predict.fired"),
            silent: telemetry.counter("predict.silent"),
            pf_hist: telemetry.histogram("predict.pf"),
        }
    }
}

impl<P: Predictor> Predictor for InstrumentedPredictor<P> {
    fn failure_probability(&self, nodes: &[NodeId], window: TimeWindow) -> f64 {
        let pf = self.inner.failure_probability(nodes, window);
        self.queries.inc();
        if pf > 0.0 {
            self.fired.inc();
        } else {
            self.silent.inc();
        }
        self.pf_hist.observe(pf);
        pf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::NullPredictor;
    use crate::oracle::TraceOracle;
    use pqos_failures::trace::{Failure, FailureTrace};
    use pqos_sim_core::time::SimTime;
    use std::sync::Arc;

    fn window(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(SimTime::from_secs(a), SimTime::from_secs(b))
    }

    #[test]
    fn answers_match_the_wrapped_predictor() {
        let trace = FailureTrace::new(vec![Failure {
            time: SimTime::from_secs(50),
            node: NodeId::new(0),
            detectability: 0.4,
        }])
        .unwrap();
        let oracle = TraceOracle::new(Arc::new(trace), 1.0).unwrap();
        let telemetry = Telemetry::builder().build();
        let wrapped = InstrumentedPredictor::new(&oracle, telemetry.clone());

        let nodes = [NodeId::new(0)];
        assert_eq!(
            wrapped.failure_probability(&nodes, window(0, 100)),
            oracle.failure_probability(&nodes, window(0, 100)),
        );
        assert_eq!(
            wrapped.failure_probability(&nodes, window(200, 300)),
            oracle.failure_probability(&nodes, window(200, 300)),
        );

        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("predict.queries"), Some(2));
        assert_eq!(snap.counter("predict.fired"), Some(1));
        assert_eq!(snap.counter("predict.silent"), Some(1));
        let pf = snap.histogram("predict.pf").unwrap();
        assert_eq!(pf.count, 2);
        assert_eq!(pf.max, 0.4);
    }

    #[test]
    fn single_node_queries_route_through_the_counter() {
        let telemetry = Telemetry::builder().build();
        let wrapped = InstrumentedPredictor::new(NullPredictor, telemetry.clone());
        wrapped.node_failure_probability(NodeId::new(3), window(0, 10));
        assert_eq!(
            telemetry.snapshot().unwrap().counter("predict.queries"),
            Some(1)
        );
    }

    #[test]
    fn disabled_handle_is_silent_and_transparent() {
        let wrapped = InstrumentedPredictor::new(NullPredictor, Telemetry::disabled());
        assert_eq!(
            wrapped.failure_probability(&[NodeId::new(0)], window(0, 10)),
            0.0
        );
    }
}
