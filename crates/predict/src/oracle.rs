//! The paper's deterministic trace-oracle predictor (§4.3).
//!
//! "When the predictor is asked for the probability of failure of a
//! particular node (or partition) in a given time window, it retrieves all
//! the corresponding failures from the log and considers them in order of
//! time. Once a failure is encountered such that `px ≤ a`, `px` is returned
//! as the probability of failure. Otherwise, the predictor returns 0.
//! Therefore, the false positive rate is 0 and the false negative rate is
//! `1 − a`. An additional consequence of this method is that the
//! probability of failure returned for any partition will never exceed `a`
//! \[since\] a low-accuracy predictor should not make predictions with high
//! confidence."

use crate::api::Predictor;
use pqos_cluster::node::NodeId;
use pqos_failures::trace::{Failure, FailureTrace};
use pqos_sim_core::time::TimeWindow;
use std::fmt;
use std::sync::Arc;

/// Error constructing a [`TraceOracle`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyError(pub f64);

impl fmt::Display for AccuracyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prediction accuracy {} outside [0, 1]", self.0)
    }
}

impl std::error::Error for AccuracyError {}

/// Trace-backed predictor with tunable accuracy `a ∈ [0, 1]`.
///
/// # Examples
///
/// ```
/// use pqos_cluster::node::NodeId;
/// use pqos_failures::trace::{Failure, FailureTrace};
/// use pqos_predict::api::Predictor;
/// use pqos_predict::oracle::TraceOracle;
/// use pqos_sim_core::time::{SimTime, TimeWindow};
/// use std::sync::Arc;
///
/// let trace = Arc::new(FailureTrace::new(vec![Failure {
///     time: SimTime::from_secs(500),
///     node: NodeId::new(3),
///     detectability: 0.4,
/// }])?);
/// let w = TimeWindow::new(SimTime::ZERO, SimTime::from_secs(1000));
///
/// // Detectable at a = 0.5 ...
/// let sharp = TraceOracle::new(Arc::clone(&trace), 0.5)?;
/// assert_eq!(sharp.failure_probability(&[NodeId::new(3)], w), 0.4);
///
/// // ... invisible at a = 0.3 (px > a ⇒ false negative).
/// let blunt = TraceOracle::new(trace, 0.3)?;
/// assert_eq!(blunt.failure_probability(&[NodeId::new(3)], w), 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceOracle {
    /// The trace's failures with `px ≤ a`, in the trace's `(time, node)`
    /// order: the only failures a query can ever answer with.
    detectable: Arc<[Failure]>,
}

impl TraceOracle {
    /// Creates an oracle over `trace` with accuracy `a`.
    ///
    /// # Errors
    ///
    /// Returns [`AccuracyError`] if `a` is outside `[0, 1]` or NaN.
    pub fn new(trace: Arc<FailureTrace>, accuracy: f64) -> Result<Self, AccuracyError> {
        if !(0.0..=1.0).contains(&accuracy) {
            return Err(AccuracyError(accuracy));
        }
        let detectable = trace
            .iter()
            .filter(|f| f.detectability <= accuracy)
            .copied()
            .collect();
        Ok(TraceOracle { detectable })
    }
}

impl Predictor for TraceOracle {
    /// The paper's scan — the partition's failures in `(time, node)`
    /// order, the first with `px ≤ a` answers — read off the detectable
    /// failures: one binary search for the window's start, then the first
    /// failure before its end whose node is in `nodes`. Trace order is
    /// `(time, node)` order, and a node's same-instant failures keep
    /// their trace order, so that is the failure the merged scan reaches
    /// first. Beyond the search, a query scans `nodes` once for each
    /// detectable failure in the window, on any node, up to the answer.
    fn failure_probability(&self, nodes: &[NodeId], window: TimeWindow) -> f64 {
        let from = self.detectable.partition_point(|f| f.time < window.start());
        self.detectable[from..]
            .iter()
            .take_while(|f| f.time < window.end())
            .find(|f| nodes.contains(&f.node))
            .map_or(0.0, |f| f.detectability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_sim_core::rng::DetRng;
    use pqos_sim_core::time::{SimDuration, SimTime};

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

    fn w(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(SimTime::from_secs(a), SimTime::from_secs(b))
    }

    #[test]
    fn rejects_bad_accuracy() {
        let t = trace(vec![]);
        assert!(TraceOracle::new(Arc::clone(&t), -0.1).is_err());
        assert!(TraceOracle::new(Arc::clone(&t), 1.1).is_err());
        assert!(TraceOracle::new(Arc::clone(&t), f64::NAN).is_err());
        assert!(!AccuracyError(2.0).to_string().is_empty());
        assert!(TraceOracle::new(t, 0.5).is_ok());
    }

    #[test]
    fn returns_first_detectable_in_time_order() {
        // Two failures; the earlier one has high px (undetectable at 0.5),
        // the later low px. Paper semantics: scan in time order, return the
        // first *detectable* one.
        let t = trace(vec![(100, 0, 0.9), (200, 0, 0.2)]);
        let oracle = TraceOracle::new(t, 0.5).unwrap();
        assert_eq!(
            oracle.failure_probability(&[NodeId::new(0)], w(0, 1000)),
            0.2
        );
    }

    #[test]
    fn partition_query_spans_nodes() {
        let t = trace(vec![(300, 1, 0.3), (100, 2, 0.8)]);
        let oracle = TraceOracle::new(t, 0.5).unwrap();
        // Node 2's failure at t=100 is first in time but undetectable; node
        // 1's at t=300 is returned.
        let p = oracle.failure_probability(&[NodeId::new(1), NodeId::new(2)], w(0, 1000));
        assert_eq!(p, 0.3);
    }

    #[test]
    fn never_exceeds_accuracy() {
        let t = trace(
            (0..200)
                .map(|i| (i * 10, (i % 16) as u32, (i as f64) / 200.0))
                .collect(),
        );
        for a in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let oracle = TraceOracle::new(Arc::clone(&t), a).unwrap();
            for start in (0..2000).step_by(100) {
                let nodes: Vec<NodeId> = (0..16).map(NodeId::new).collect();
                let p = oracle.failure_probability(&nodes, w(start, start + 500));
                assert!(p <= a + 1e-12, "pf {p} exceeds a {a}");
            }
        }
    }

    #[test]
    fn zero_accuracy_is_null() {
        let t = trace(vec![(100, 0, 0.001), (200, 0, 0.5)]);
        let oracle = TraceOracle::new(t, 0.0).unwrap();
        // px is strictly positive almost surely; with px ≤ a = 0 nothing is
        // returned unless px is exactly 0.
        assert_eq!(
            oracle.failure_probability(&[NodeId::new(0)], w(0, 1000)),
            0.0
        );
    }

    #[test]
    fn perfect_accuracy_sees_everything() {
        let t = trace(vec![(100, 0, 0.97)]);
        let oracle = TraceOracle::new(t, 1.0).unwrap();
        assert_eq!(
            oracle.failure_probability(&[NodeId::new(0)], w(0, 1000)),
            0.97
        );
    }

    #[test]
    fn window_bounds_are_respected() {
        let t = trace(vec![(100, 0, 0.2)]);
        let oracle = TraceOracle::new(t, 1.0).unwrap();
        assert_eq!(
            oracle.failure_probability(&[NodeId::new(0)], w(0, 100)),
            0.0
        );
        assert_eq!(
            oracle.failure_probability(&[NodeId::new(0)], w(100, 101)),
            0.2
        );
        assert_eq!(
            oracle.failure_probability(&[NodeId::new(0)], w(101, 1000)),
            0.0
        );
    }

    #[test]
    fn deterministic_across_clones() {
        let t = trace(vec![(100, 0, 0.2), (150, 1, 0.4)]);
        let oracle = TraceOracle::new(t, 0.5).unwrap();
        let clone = oracle.clone();
        let nodes = [NodeId::new(0), NodeId::new(1)];
        assert_eq!(
            oracle.failure_probability(&nodes, w(0, 1000)),
            clone.failure_probability(&nodes, w(0, 1000))
        );
    }

    /// The query as the oracle used to answer it: collect every node's
    /// failures in the window, sort them by `(time, node)`, and return
    /// the first with `px ≤ a`.
    fn collect_sort_scan(
        trace: &FailureTrace,
        a: f64,
        nodes: &[NodeId],
        window: TimeWindow,
    ) -> Option<Failure> {
        let mut hits: Vec<&Failure> = nodes
            .iter()
            .flat_map(|&n| trace.node_failures_in(n, window))
            .collect();
        hits.sort_by_key(|f| (f.time, f.node));
        hits.into_iter().find(|f| f.detectability <= a).copied()
    }

    /// The walk over the detectable failures answers exactly what the
    /// collect-sort-scan query did, over seeded traces dense in the cases
    /// that could split them: answers behind fewer and behind at least as
    /// many detectable failures on other nodes as the partition has nodes,
    /// duplicate `(time, node)` failures, `px` exactly `a`, failures at
    /// the window's start and end, empty, unsorted and repeated node lists
    /// of up to 12 nodes, and nodes past the trace's per-node index (it
    /// covers nodes 0–7; the queries ask about 0–11).
    #[test]
    fn per_node_query_matches_collect_sort_scan() {
        const ACCURACIES: [f64; 4] = [0.0, 0.3, 0.7, 1.0];
        // Draws of: an empty node list, a node past the index, an answer
        // with px = a, an answer at the window's start, a failure at its
        // end, a duplicate (time, node) failure, an answer behind fewer
        // than nodes.len() detectable failures on other nodes, one behind
        // at least that many.
        let mut seen = [0usize; 8];
        for seed in 0..300 {
            let mut rng = DetRng::seed_from(seed).fork("oracle-equivalence");
            let mut failures: Vec<Failure> = Vec::new();
            for _ in 0..rng.uniform_u64(0, 40) {
                let failure = match failures.last() {
                    // Same instant and node, its own px.
                    Some(&prev) if rng.chance(0.2) => {
                        seen[5] += 1;
                        Failure {
                            detectability: ACCURACIES[rng.uniform_u64(0, 3) as usize],
                            ..prev
                        }
                    }
                    _ => Failure {
                        time: SimTime::from_secs(rng.uniform_u64(0, 50)),
                        node: NodeId::new(rng.uniform_u64(0, 7) as u32),
                        detectability: if rng.chance(0.5) {
                            ACCURACIES[rng.uniform_u64(0, 3) as usize]
                        } else {
                            rng.unit()
                        },
                    },
                };
                failures.push(failure);
            }
            let times: Vec<u64> = failures.iter().map(|f| f.time.as_secs()).collect();
            let trace = Arc::new(FailureTrace::new(failures).unwrap());
            let oracles = ACCURACIES.map(|a| TraceOracle::new(Arc::clone(&trace), a).unwrap());
            for _ in 0..40 {
                // Window edges on failure instants half the time.
                let edge = |rng: &mut DetRng| match times.len() {
                    n if n > 0 && rng.chance(0.5) => {
                        times[rng.uniform_u64(0, n as u64 - 1) as usize]
                    }
                    _ => rng.uniform_u64(0, 55),
                };
                let (x, y) = (edge(&mut rng), edge(&mut rng));
                let window =
                    TimeWindow::new(SimTime::from_secs(x.min(y)), SimTime::from_secs(x.max(y)));
                let nodes: Vec<NodeId> = (0..rng.uniform_u64(0, 12))
                    .map(|_| NodeId::new(rng.uniform_u64(0, 11) as u32))
                    .collect();
                seen[0] += usize::from(nodes.is_empty());
                seen[1] += usize::from(nodes.iter().any(|n| n.index() > 7));
                for (oracle, a) in oracles.iter().zip(ACCURACIES) {
                    let want = collect_sort_scan(&trace, a, &nodes, window);
                    let got = oracle.failure_probability(&nodes, window);
                    assert_eq!(
                        got.to_bits(),
                        want.map_or(0.0, |f| f.detectability).to_bits(),
                        "seed {seed}, a={a}, nodes {nodes:?}, window {window:?}"
                    );
                    if let Some(f) = want {
                        seen[2] += usize::from(f.detectability == a);
                        seen[3] += usize::from(f.time == window.start());
                        let before = trace
                            .iter()
                            .filter(|g| window.contains(g.time) && g.detectability <= a)
                            .take_while(|g| !nodes.contains(&g.node))
                            .count();
                        seen[6 + usize::from(before >= nodes.len())] += 1;
                    }
                    // A failure at the window's end is outside it.
                    let at_end = TimeWindow::starting_at(window.end(), SimDuration::from_secs(1));
                    seen[4] += usize::from(
                        nodes
                            .iter()
                            .any(|&n| trace.node_failures_in(n, at_end).next().is_some()),
                    );
                }
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "every edge case drawn: {seen:?}"
        );
    }
}
