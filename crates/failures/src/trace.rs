//! Failure traces: the time-ordered, per-node-indexed failure log the
//! simulator replays, with the static *detectability* each failure carries.
//!
//! Per §4.3: "Each failure in the log has an associated static
//! detectability, `px`, between zero and one, assigned randomly." The
//! trace-oracle predictor in `pqos-predict` reveals a failure only when
//! `px ≤ a`.

use crate::event::FailureRecord;
use pqos_cluster::node::NodeId;
use pqos_sim_core::rng::DetRng;
use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
use std::fmt;

/// One failure in a trace: when, where, and how detectable it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Failure {
    /// Instant of the failure.
    pub time: SimTime,
    /// The node lost.
    pub node: NodeId,
    /// Static detectability `px ∈ [0, 1]`: the predictor sees this failure
    /// iff `px ≤ a`.
    pub detectability: f64,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fails at {} (px={:.3})",
            self.node, self.time, self.detectability
        )
    }
}

/// Error constructing a [`FailureTrace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceError {
    /// A detectability value was outside `[0, 1]` or NaN.
    BadDetectability(f64),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadDetectability(px) => {
                write!(f, "detectability {px} outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Aggregate characteristics of a trace (compare to §4.3: 1,021 failures
/// over a year of 128 nodes ≈ 2.8/day, cluster MTBF ≈ 8.5 h).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Number of failures.
    pub count: usize,
    /// Time between first and last failure.
    pub span: SimDuration,
    /// Mean failures per day over the span.
    pub failures_per_day: f64,
    /// Mean time between failures across the whole cluster, in hours.
    pub cluster_mtbf_hours: f64,
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} failures over {:.1} days ({:.2}/day, cluster MTBF {:.1} h)",
            self.count,
            self.span.as_secs() as f64 / 86_400.0,
            self.failures_per_day,
            self.cluster_mtbf_hours
        )
    }
}

/// A time-ordered failure log with per-node indexes for window queries.
///
/// # Examples
///
/// ```
/// use pqos_cluster::node::NodeId;
/// use pqos_failures::trace::{Failure, FailureTrace};
/// use pqos_sim_core::time::{SimTime, TimeWindow};
///
/// let trace = FailureTrace::new(vec![
///     Failure { time: SimTime::from_secs(100), node: NodeId::new(0), detectability: 0.4 },
///     Failure { time: SimTime::from_secs(50), node: NodeId::new(1), detectability: 0.9 },
/// ])?;
/// assert_eq!(trace.failures()[0].time, SimTime::from_secs(50)); // time-ordered
/// let w = TimeWindow::new(SimTime::from_secs(0), SimTime::from_secs(200));
/// let hits: Vec<_> = trace.node_failures_in(NodeId::new(0), w).collect();
/// assert_eq!(hits.len(), 1);
/// assert_eq!(hits[0].time, SimTime::from_secs(100));
/// # Ok::<(), pqos_failures::trace::TraceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FailureTrace {
    failures: Vec<Failure>,
    per_node: Vec<Vec<usize>>,
}

impl FailureTrace {
    /// Builds a trace, sorting failures by time (ties by node).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadDetectability`] if any `px` is outside
    /// `[0, 1]`.
    pub fn new(mut failures: Vec<Failure>) -> Result<Self, TraceError> {
        for f in &failures {
            if !(0.0..=1.0).contains(&f.detectability) {
                return Err(TraceError::BadDetectability(f.detectability));
            }
        }
        failures.sort_by_key(|a| (a.time, a.node));
        let max_node = failures.iter().map(|f| f.node.index()).max().unwrap_or(0);
        let mut per_node = vec![Vec::new(); max_node + 1];
        for (i, f) in failures.iter().enumerate() {
            per_node[f.node.index()].push(i);
        }
        Ok(FailureTrace { failures, per_node })
    }

    /// Builds a trace from filtered records, assigning each failure a
    /// uniform-random static detectability from a generator forked off
    /// `seed` — deterministic across runs, as the paper requires.
    pub fn from_records(records: &[FailureRecord], seed: u64) -> Self {
        let mut rng = DetRng::seed_from(seed).fork("detectability");
        let failures = records
            .iter()
            .map(|r| Failure {
                time: r.time,
                node: r.node,
                detectability: rng.unit(),
            })
            .collect();
        FailureTrace::new(failures).expect("unit interval detectability")
    }

    /// Number of failures.
    pub fn len(&self) -> usize {
        self.failures.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }

    /// All failures in time order.
    pub fn failures(&self) -> &[Failure] {
        &self.failures
    }

    /// Iterates over failures in time order.
    pub fn iter(&self) -> impl Iterator<Item = &Failure> {
        self.failures.iter()
    }

    /// Failures of `node` within `window`, in time order (a node's
    /// same-instant failures in trace order), read straight off the
    /// per-node index: one binary search, no allocation. A node past the
    /// index has none.
    pub fn node_failures_in(
        &self,
        node: NodeId,
        window: TimeWindow,
    ) -> impl Iterator<Item = &Failure> + '_ {
        let idxs = self
            .per_node
            .get(node.index())
            .map_or(&[][..], Vec::as_slice);
        let start = idxs.partition_point(|&i| self.failures[i].time < window.start());
        idxs[start..]
            .iter()
            .map(|&i| &self.failures[i])
            .take_while(move |f| f.time < window.end())
    }

    /// Aggregate characteristics.
    pub fn stats(&self) -> TraceStats {
        let span = match (self.failures.first(), self.failures.last()) {
            (Some(a), Some(b)) => b.time - a.time,
            _ => SimDuration::ZERO,
        };
        let days = span.as_secs() as f64 / 86_400.0;
        let per_day = if days > 0.0 {
            self.failures.len() as f64 / days
        } else {
            0.0
        };
        let mtbf_hours = if self.failures.len() > 1 {
            span.as_hours_f64() / (self.failures.len() - 1) as f64
        } else {
            0.0
        };
        TraceStats {
            count: self.failures.len(),
            span,
            failures_per_day: per_day,
            cluster_mtbf_hours: mtbf_hours,
        }
    }
}

impl<'a> IntoIterator for &'a FailureTrace {
    type Item = &'a Failure;
    type IntoIter = std::slice::Iter<'a, Failure>;
    fn into_iter(self) -> Self::IntoIter {
        self.failures.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(t: u64, n: u32, px: f64) -> Failure {
        Failure {
            time: SimTime::from_secs(t),
            node: NodeId::new(n),
            detectability: px,
        }
    }

    #[test]
    fn sorts_by_time() {
        let trace = FailureTrace::new(vec![f(30, 0, 0.1), f(10, 1, 0.2), f(20, 0, 0.3)]).unwrap();
        let times: Vec<u64> = trace.iter().map(|x| x.time.as_secs()).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn rejects_bad_detectability() {
        assert!(matches!(
            FailureTrace::new(vec![f(0, 0, 1.5)]),
            Err(TraceError::BadDetectability(_))
        ));
        assert!(FailureTrace::new(vec![f(0, 0, f64::NAN)]).is_err());
        assert!(!TraceError::BadDetectability(2.0).to_string().is_empty());
    }

    #[test]
    fn node_window_query() {
        let trace = FailureTrace::new(vec![
            f(10, 0, 0.1),
            f(20, 1, 0.2),
            f(30, 0, 0.3),
            f(40, 0, 0.4),
        ])
        .unwrap();
        let w = TimeWindow::new(SimTime::from_secs(15), SimTime::from_secs(40));
        let hits: Vec<_> = trace.node_failures_in(NodeId::new(0), w).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].time.as_secs(), 30);
        // End-exclusive: failure at 40 not included.
        let w2 = TimeWindow::new(SimTime::from_secs(15), SimTime::from_secs(41));
        assert_eq!(trace.node_failures_in(NodeId::new(0), w2).count(), 2);
    }

    #[test]
    fn unknown_node_is_empty() {
        let trace = FailureTrace::new(vec![f(10, 0, 0.1)]).unwrap();
        let w = TimeWindow::new(SimTime::ZERO, SimTime::from_secs(100));
        assert_eq!(trace.node_failures_in(NodeId::new(99), w).count(), 0);
    }

    #[test]
    fn node_window_iterator_keeps_same_instant_failures_in_trace_order() {
        let trace = FailureTrace::new(vec![
            f(20, 0, 0.9),
            f(20, 0, 0.1),
            f(10, 1, 0.5),
            f(30, 0, 0.3),
        ])
        .unwrap();
        let w = TimeWindow::new(SimTime::from_secs(20), SimTime::from_secs(30));
        let px: Vec<f64> = trace
            .node_failures_in(NodeId::new(0), w)
            .map(|x| x.detectability)
            .collect();
        assert_eq!(px, [0.9, 0.1], "start-inclusive, end-exclusive");
    }

    #[test]
    fn from_records_is_deterministic_and_valid() {
        let records: Vec<FailureRecord> = (0..100)
            .map(|i| FailureRecord {
                time: SimTime::from_secs(i * 1000),
                node: NodeId::new((i % 8) as u32),
            })
            .collect();
        let a = FailureTrace::from_records(&records, 7);
        let b = FailureTrace::from_records(&records, 7);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.detectability, y.detectability);
            assert!((0.0..=1.0).contains(&x.detectability));
        }
        let c = FailureTrace::from_records(&records, 8);
        assert!(a
            .iter()
            .zip(c.iter())
            .any(|(x, y)| x.detectability != y.detectability));
    }

    #[test]
    fn stats_compute_rates() {
        // 3 failures over 2 days.
        let trace =
            FailureTrace::new(vec![f(0, 0, 0.1), f(86_400, 1, 0.1), f(172_800, 2, 0.1)]).unwrap();
        let s = trace.stats();
        assert_eq!(s.count, 3);
        assert!((s.failures_per_day - 1.5).abs() < 1e-12);
        assert!((s.cluster_mtbf_hours - 24.0).abs() < 1e-12);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn empty_trace_stats() {
        let trace = FailureTrace::new(vec![]).unwrap();
        assert!(trace.is_empty());
        let s = trace.stats();
        assert_eq!(s.count, 0);
        assert_eq!(s.failures_per_day, 0.0);
    }
}
