//! Fault-aware partition selection.
//!
//! Given the free nodes of a slot, the scheduler "selects the partition
//! with the lowest probability of failure" (§3.3), using the predictor to
//! break ties among otherwise-equivalent placements. The candidate set is
//! the topology's sliding windows over the free list plus a greedy
//! "safest-nodes" candidate (flat topology only), ranked by per-node
//! predicted failure probability.
//!
//! The windows are walked lazily and borrowed from the free set, which is
//! itself decoded lazily ([`FreeNodes`]): each slide decodes one more free
//! node. The walk stops at the first window that predicts clean, the
//! greedy candidate (which reads every free node) is built only when none
//! did, and one [`Partition`] is materialised, for the winner. Cost is
//! therefore proportional to the candidates actually scored and the free
//! nodes they span — `O(k)` for a job of `k` nodes whose first window is
//! clean — not to the candidates or free nodes that exist. `Torus3d` boxes
//! are enumerated over the whole free set.

use crate::reservation::FreeNodes;
use pqos_cluster::node::NodeId;
use pqos_cluster::partition::Partition;
use pqos_cluster::topology::Topology;
use pqos_predict::api::Predictor;
use pqos_sim_core::time::TimeWindow;
use pqos_telemetry::Telemetry;
use std::fmt;

/// How the scheduler picks among candidate partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// Fault-aware: minimize the predicted failure probability, ties going
    /// to the lowest-numbered nodes (the paper's scheduler).
    #[default]
    MinFailureProbability,
    /// Prediction-blind first fit: always the lowest-numbered free nodes
    /// (the no-forecasting baseline; identical to `MinFailureProbability`
    /// under a null predictor).
    FirstFit,
}

impl fmt::Display for PlacementStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementStrategy::MinFailureProbability => write!(f, "min-pf"),
            PlacementStrategy::FirstFit => write!(f, "first-fit"),
        }
    }
}

/// A chosen placement and the failure probability quoted for it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementChoice {
    /// The selected partition.
    pub partition: Partition,
    /// Predicted probability that this partition fails during the window
    /// (`pf`). Zero under [`PlacementStrategy::FirstFit`]'s blind baseline
    /// only if the predictor says so — the quote is always honest.
    pub failure_probability: f64,
}

/// What the selection loop observed while ranking candidates; feeds the
/// telemetry metrics without changing the decision itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct PlacementProbe {
    /// Candidate partitions whose `pf` was evaluated.
    pub candidates_examined: usize,
    /// The winner predicted clean (`pf == 0`), so the tie-break to the
    /// lowest node ids decided the placement rather than the predictor.
    pub clean_tie_break: bool,
}

/// Selects a partition of `size` nodes from `free` for the interval
/// `window`.
///
/// Returns `None` when fewer than `size` nodes are free. `free` must be
/// sorted (as produced by the reservation book and cluster).
///
/// # Examples
///
/// ```
/// use pqos_cluster::node::NodeId;
/// use pqos_cluster::topology::Topology;
/// use pqos_predict::api::NullPredictor;
/// use pqos_sched::place::{choose_partition, PlacementStrategy};
/// use pqos_sim_core::time::{SimTime, TimeWindow};
///
/// let free: Vec<NodeId> = (0..8).map(NodeId::new).collect();
/// let w = TimeWindow::new(SimTime::ZERO, SimTime::from_secs(100));
/// let choice = choose_partition(
///     Topology::Flat,
///     &free,
///     4,
///     w,
///     &NullPredictor,
///     PlacementStrategy::MinFailureProbability,
/// )
/// .unwrap();
/// assert_eq!(choice.partition.len(), 4);
/// assert_eq!(choice.failure_probability, 0.0);
/// ```
pub fn choose_partition<P: Predictor>(
    topology: Topology,
    free: &[NodeId],
    size: u32,
    window: TimeWindow,
    predictor: &P,
    strategy: PlacementStrategy,
) -> Option<PlacementChoice> {
    let free = &mut FreeNodes::listed(free);
    choose_partition_inner(topology, free, size, window, predictor, strategy).0
}

/// [`choose_partition`] over a slot's lazily decoded free set, with the
/// selection loop's observations recorded into `telemetry`'s metrics
/// registry (`sched.*`).
///
/// The decision is identical to [`choose_partition`] over the same nodes;
/// a disabled [`Telemetry`] handle makes the extra work a handful of dead
/// branches.
pub fn choose_partition_with_telemetry<P: Predictor>(
    topology: Topology,
    free: &mut FreeNodes<'_>,
    size: u32,
    window: TimeWindow,
    predictor: &P,
    strategy: PlacementStrategy,
    telemetry: &Telemetry,
) -> Option<PlacementChoice> {
    let (choice, probe) = choose_partition_inner(topology, free, size, window, predictor, strategy);
    if telemetry.is_enabled() {
        telemetry
            .histogram("sched.candidates_examined")
            .observe(probe.candidates_examined as f64);
        match &choice {
            Some(c) => {
                telemetry.counter("sched.placements").inc();
                if probe.clean_tie_break {
                    telemetry.counter("sched.clean_tie_breaks").inc();
                }
                telemetry
                    .histogram("sched.placement_pf")
                    .observe(c.failure_probability);
            }
            None => telemetry.counter("sched.placement_misses").inc(),
        }
    }
    choice
}

/// The candidate that scored best so far.
enum Pick {
    /// The sliding window over free nodes `i..i + size`.
    Window(usize),
    /// A box, or the greedy set.
    Owned(Vec<NodeId>),
}

fn choose_partition_inner<P: Predictor>(
    topology: Topology,
    free: &mut FreeNodes<'_>,
    size: u32,
    window: TimeWindow,
    predictor: &P,
    strategy: PlacementStrategy,
) -> (Option<PlacementChoice>, PlacementProbe) {
    let mut probe = PlacementProbe::default();
    let size = size as usize;
    let fault_aware = strategy == PlacementStrategy::MinFailureProbability;
    // First fit scores the first candidate only; the fault-aware walk
    // scores candidates until one predicts clean. Either way no
    // `Partition` is built for the losers.
    let walk_limit = if fault_aware { usize::MAX } else { 1 };
    let mut best: Option<(Pick, f64)> = None;
    // A candidate wins only strictly: earlier ones (lower node ids) keep
    // ties, so a clean one ends the walk.
    let beats = |best: &Option<(Pick, f64)>, pf: f64| best.as_ref().is_none_or(|b| pf < b.1);
    if size > 0 && free.len() >= size {
        match topology {
            Topology::Flat | Topology::Line => {
                // Window `i` is free nodes `i..i + size`, borrowed from the
                // decoded prefix: each slide decodes one node more.
                let (mut i, mut scored) = (0, 0);
                while scored < walk_limit {
                    let Some(nodes) = free.prefix(i + size).get(i..i + size) else {
                        break;
                    };
                    let contiguous =
                        || (nodes[size - 1].as_u32() - nodes[0].as_u32()) as usize == size - 1;
                    if matches!(topology, Topology::Flat) || contiguous() {
                        scored += 1;
                        let pf = predictor.failure_probability(nodes, window);
                        probe.candidates_examined += 1;
                        if beats(&best, pf) {
                            best = Some((Pick::Window(i), pf));
                            if pf == 0.0 {
                                break;
                            }
                        }
                    }
                    i += 1;
                }
            }
            Topology::Torus3d { .. } => {
                for nodes in topology.candidates(free.all(), size).take(walk_limit) {
                    let pf = predictor.failure_probability(&nodes, window);
                    probe.candidates_examined += 1;
                    if beats(&best, pf) {
                        best = Some((Pick::Owned(nodes.into_owned()), pf));
                        if pf == 0.0 {
                            break;
                        }
                    }
                }
            }
        }
    }
    let Some((pick, mut pf)) = best else {
        return (None, probe);
    };
    // The greedy candidate is scored last and only when no window was
    // clean; strict `<` keeps the windows winning ties against it.
    let mut greedy_winner = None;
    if fault_aware && pf != 0.0 && matches!(topology, Topology::Flat) {
        let greedy = greedy_safest(free.all(), size, window, predictor);
        let greedy_pf = predictor.failure_probability(greedy.as_slice(), window);
        probe.candidates_examined += 1;
        if greedy_pf < pf {
            pf = greedy_pf;
            greedy_winner = Some(greedy);
        }
    }
    probe.clean_tie_break = fault_aware && pf == 0.0;
    let partition = greedy_winner.unwrap_or_else(|| {
        Partition::from_sorted(match pick {
            Pick::Window(i) => free.prefix(i + size)[i..].to_vec(),
            Pick::Owned(nodes) => nodes,
        })
    });
    (
        Some(PlacementChoice {
            partition,
            failure_probability: pf,
        }),
        probe,
    )
}

/// The `size` individually-safest free nodes (flat topology only).
///
/// `size` is at least 1 and at most `free.len()`: the caller has already
/// found a window of that many nodes.
fn greedy_safest<P: Predictor>(
    free: &[NodeId],
    size: usize,
    window: TimeWindow,
    predictor: &P,
) -> Partition {
    let mut scored: Vec<(f64, NodeId)> = free
        .iter()
        .map(|&n| (predictor.node_failure_probability(n, window), n))
        .collect();
    // Stable order: probability, then node id — deterministic replays.
    scored.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("probability is not NaN")
            .then(a.1.cmp(&b.1))
    });
    Partition::new(scored.into_iter().take(size).map(|(_, n)| n))
        .expect("a window of `size` >= 1 nodes was found")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_failures::trace::{Failure, FailureTrace};
    use pqos_predict::api::NullPredictor;
    use pqos_predict::oracle::TraceOracle;
    use pqos_sim_core::rng::DetRng;
    use pqos_sim_core::time::SimTime;
    use std::cell::Cell;
    use std::cmp::Ordering;
    use std::sync::Arc;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId::new).collect()
    }

    fn w(a: u64, b: u64) -> TimeWindow {
        TimeWindow::new(SimTime::from_secs(a), SimTime::from_secs(b))
    }

    fn oracle(failures: &[(u64, u32, f64)], a: f64) -> TraceOracle {
        let trace = FailureTrace::new(
            failures
                .iter()
                .map(|&(t, n, px)| Failure {
                    time: SimTime::from_secs(t),
                    node: NodeId::new(n),
                    detectability: px,
                })
                .collect(),
        )
        .unwrap();
        TraceOracle::new(Arc::new(trace), a).unwrap()
    }

    #[test]
    fn avoids_predicted_failures() {
        // Node 1 will fail detectably mid-window; a 2-node job on 4 free
        // nodes should dodge it.
        let o = oracle(&[(50, 1, 0.3)], 1.0);
        let choice = choose_partition(
            Topology::Flat,
            &ids(&[0, 1, 2, 3]),
            2,
            w(0, 100),
            &o,
            PlacementStrategy::MinFailureProbability,
        )
        .unwrap();
        assert!(!choice.partition.contains(NodeId::new(1)));
        assert_eq!(choice.failure_probability, 0.0);
    }

    #[test]
    fn greedy_candidate_dodges_scattered_failures() {
        // Failures on nodes 1 and 2: no contiguous window of size 2 over
        // [0,1,2,3] avoids both, but the greedy candidate {0,3} does.
        let o = oracle(&[(50, 1, 0.3), (60, 2, 0.4)], 1.0);
        let choice = choose_partition(
            Topology::Flat,
            &ids(&[0, 1, 2, 3]),
            2,
            w(0, 100),
            &o,
            PlacementStrategy::MinFailureProbability,
        )
        .unwrap();
        assert_eq!(choice.partition.as_slice(), &ids(&[0, 3])[..]);
        assert_eq!(choice.failure_probability, 0.0);
    }

    #[test]
    fn quotes_minimum_when_unavoidable() {
        // Every free node fails; the least-detectable... rather, the
        // minimum quoted pf must be picked.
        let o = oracle(&[(50, 0, 0.8), (50, 1, 0.5), (50, 2, 0.9)], 1.0);
        let choice = choose_partition(
            Topology::Flat,
            &ids(&[0, 1, 2]),
            2,
            w(0, 100),
            &o,
            PlacementStrategy::MinFailureProbability,
        )
        .unwrap();
        // Best pair contains node 1 (0.5) plus the lesser of 0.8/0.9 —
        // oracle returns the first detectable failure in time order; ties
        // at t=50 resolve by node id, so {0,1} → 0.8, {1,2} → 0.5, greedy
        // {1,0} → 0.8. Minimum is 0.5.
        assert_eq!(choice.failure_probability, 0.5);
        assert!(choice.partition.contains(NodeId::new(1)));
        assert!(choice.partition.contains(NodeId::new(2)));
    }

    #[test]
    fn first_fit_ignores_predictions_but_quotes_honestly() {
        let o = oracle(&[(50, 0, 0.3)], 1.0);
        let choice = choose_partition(
            Topology::Flat,
            &ids(&[0, 1, 2, 3]),
            2,
            w(0, 100),
            &o,
            PlacementStrategy::FirstFit,
        )
        .unwrap();
        assert_eq!(choice.partition.as_slice(), &ids(&[0, 1])[..]);
        assert_eq!(choice.failure_probability, 0.3);
    }

    #[test]
    fn insufficient_nodes_returns_none() {
        assert!(choose_partition(
            Topology::Flat,
            &ids(&[0]),
            2,
            w(0, 100),
            &NullPredictor,
            PlacementStrategy::MinFailureProbability,
        )
        .is_none());
        assert!(choose_partition(
            Topology::Flat,
            &ids(&[0, 1]),
            0,
            w(0, 100),
            &NullPredictor,
            PlacementStrategy::MinFailureProbability,
        )
        .is_none());
    }

    #[test]
    fn line_topology_requires_contiguous_free_nodes() {
        // Free nodes 0, 2, 3: only (2,3) is contiguous.
        let choice = choose_partition(
            Topology::Line,
            &ids(&[0, 2, 3]),
            2,
            w(0, 100),
            &NullPredictor,
            PlacementStrategy::MinFailureProbability,
        )
        .unwrap();
        assert_eq!(choice.partition.as_slice(), &ids(&[2, 3])[..]);
        // No 3-node contiguous run exists.
        assert!(choose_partition(
            Topology::Line,
            &ids(&[0, 2, 3]),
            3,
            w(0, 100),
            &NullPredictor,
            PlacementStrategy::MinFailureProbability,
        )
        .is_none());
    }

    #[test]
    fn ties_go_to_lowest_node_ids() {
        let choice = choose_partition(
            Topology::Flat,
            &ids(&[5, 6, 7, 8]),
            2,
            w(0, 100),
            &NullPredictor,
            PlacementStrategy::MinFailureProbability,
        )
        .unwrap();
        assert_eq!(choice.partition.as_slice(), &ids(&[5, 6])[..]);
    }

    #[test]
    fn strategies_display() {
        assert_eq!(
            PlacementStrategy::MinFailureProbability.to_string(),
            "min-pf"
        );
        assert_eq!(PlacementStrategy::FirstFit.to_string(), "first-fit");
        assert_eq!(
            PlacementStrategy::default(),
            PlacementStrategy::MinFailureProbability
        );
    }

    #[test]
    fn telemetry_wrapper_matches_plain_choice_and_records() {
        let o = oracle(&[(50, 1, 0.3)], 1.0);
        let telemetry = Telemetry::builder().build();
        let plain = choose_partition(
            Topology::Flat,
            &ids(&[0, 1, 2, 3]),
            2,
            w(0, 100),
            &o,
            PlacementStrategy::MinFailureProbability,
        );
        let wrapped = choose_partition_with_telemetry(
            Topology::Flat,
            &mut FreeNodes::listed(&ids(&[0, 1, 2, 3])),
            2,
            w(0, 100),
            &o,
            PlacementStrategy::MinFailureProbability,
            &telemetry,
        );
        assert_eq!(plain, wrapped, "instrumentation must not change placement");
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("sched.placements"), Some(1));
        assert_eq!(snap.counter("sched.clean_tie_breaks"), Some(1));
        assert!(snap.histogram("sched.candidates_examined").is_some());
    }

    #[test]
    fn telemetry_wrapper_counts_misses() {
        let telemetry = Telemetry::builder().build();
        let choice = choose_partition_with_telemetry(
            Topology::Flat,
            &mut FreeNodes::listed(&ids(&[0])),
            2,
            w(0, 100),
            &NullPredictor,
            PlacementStrategy::MinFailureProbability,
            &telemetry,
        );
        assert!(choice.is_none());
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("sched.placement_misses"), Some(1));
        assert_eq!(snap.counter("sched.placements"), None);
    }

    #[test]
    fn undetectable_failures_are_invisible() {
        // px = 0.9 with a = 0.5: the oracle is silent; first fit wins ties.
        let o = oracle(&[(50, 0, 0.9)], 0.5);
        let choice = choose_partition(
            Topology::Flat,
            &ids(&[0, 1, 2]),
            2,
            w(0, 100),
            &o,
            PlacementStrategy::MinFailureProbability,
        )
        .unwrap();
        assert_eq!(choice.partition.as_slice(), &ids(&[0, 1])[..]);
        assert_eq!(choice.failure_probability, 0.0);
    }

    /// The eager algorithm the lazy walk replaced, kept as its oracle:
    /// materialise every candidate as a `Partition`, append the greedy
    /// one, then scan. Also reports how the greedy candidate compared
    /// with the best window when the scan reached it.
    fn eager_reference<P: Predictor>(
        topology: Topology,
        free: &[NodeId],
        size: u32,
        window: TimeWindow,
        predictor: &P,
        strategy: PlacementStrategy,
    ) -> (Option<PlacementChoice>, PlacementProbe, Option<Ordering>) {
        let mut probe = PlacementProbe::default();
        if size == 0 || free.len() < size as usize {
            return (None, probe, None);
        }
        let mut candidates = topology.candidate_partitions(free, size as usize);
        if candidates.is_empty() {
            return (None, probe, None);
        }
        if strategy == PlacementStrategy::FirstFit {
            let partition = candidates.swap_remove(0);
            let failure_probability = predictor.failure_probability(partition.as_slice(), window);
            probe.candidates_examined = 1;
            let choice = PlacementChoice {
                partition,
                failure_probability,
            };
            return (Some(choice), probe, None);
        }
        let windows = candidates.len();
        if matches!(topology, Topology::Flat) {
            candidates.push(greedy_safest(free, size as usize, window, predictor));
        }
        let mut best: Option<PlacementChoice> = None;
        let mut greedy_vs_windows = None;
        for (i, partition) in candidates.into_iter().enumerate() {
            let pf = predictor.failure_probability(partition.as_slice(), window);
            probe.candidates_examined += 1;
            if i == windows {
                let least = best.as_ref().expect("a window was scored");
                greedy_vs_windows = pf.partial_cmp(&least.failure_probability);
            }
            if best.as_ref().is_none_or(|b| pf < b.failure_probability) {
                best = Some(PlacementChoice {
                    partition,
                    failure_probability: pf,
                });
                if pf == 0.0 {
                    break;
                }
            }
        }
        probe.clean_tie_break = best.as_ref().is_some_and(|b| b.failure_probability == 0.0);
        (best, probe, greedy_vs_windows)
    }

    /// A world of 64 to 130 nodes (mostly not a multiple of 64; the torus
    /// covers the first 64): a fragmented free list and a failure trace
    /// whose density ranges from empty to several failures per node, so
    /// that on many draws no window at all is clean.
    struct World {
        width: u32,
        free: Vec<NodeId>,
        oracle: TraceOracle,
        window: TimeWindow,
    }

    fn draw_world(rng: &mut DetRng) -> World {
        let width = [64, 70, 100, 130][rng.uniform_u64(0, 3) as usize];
        let density = rng.unit();
        let mut free: Vec<NodeId> = (0..width)
            .filter(|_| rng.chance(density))
            .map(NodeId::new)
            .collect();
        if free.is_empty() {
            free.push(NodeId::new(rng.uniform_u64(0, 63) as u32));
        }
        let failures = rng.uniform_u64(0, 256);
        let trace = FailureTrace::new(
            (0..failures)
                .map(|_| Failure {
                    time: SimTime::from_secs(rng.uniform_u64(0, 199)),
                    node: NodeId::new(rng.uniform_u64(0, u64::from(width) - 1) as u32),
                    detectability: rng.unit(),
                })
                .collect(),
        )
        .unwrap();
        let accuracy = if rng.chance(0.5) { 1.0 } else { rng.unit() };
        let start = rng.uniform_u64(0, 150);
        World {
            width,
            free,
            oracle: TraceOracle::new(Arc::new(trace), accuracy).unwrap(),
            window: w(start, start + rng.uniform_u64(1, 50)),
        }
    }

    /// Asserts that lazy and eager agree on one placement — over the free
    /// list as it is and over the same set lazily decoded from mask words,
    /// which still decodes to the list afterwards — and returns the eager
    /// side's answer.
    fn assert_lazy_matches_eager<P: Predictor>(
        world: &World,
        topology: Topology,
        strategy: PlacementStrategy,
        size: u32,
        predictor: &P,
        case: usize,
    ) -> (Option<PlacementChoice>, Option<Ordering>) {
        let (free, window) = (&world.free[..], world.window);
        let (choice, probe, greedy_vs_windows) =
            eager_reference(topology, free, size, window, predictor, strategy);
        let at = || {
            format!(
                "case {case}: {topology} {strategy} size {size} of {} under {}",
                world.width,
                std::any::type_name::<P>()
            )
        };
        let listed = &mut FreeNodes::listed(free);
        assert_eq!(
            choose_partition_inner(topology, listed, size, window, predictor, strategy),
            (choice.clone(), probe),
            "{} over the list",
            at()
        );
        let mut busy = vec![u64::MAX; world.width.div_ceil(64) as usize];
        for n in free {
            busy[n.index() / 64] &= !(1 << (n.index() % 64));
        }
        let mut decoded = Vec::new();
        let lazy = &mut FreeNodes::masked(world.width, &busy, &mut decoded);
        assert_eq!(lazy.len(), free.len(), "{}", at());
        assert_eq!(
            choose_partition_inner(topology, lazy, size, window, predictor, strategy),
            (choice.clone(), probe),
            "{} over the mask",
            at()
        );
        assert_eq!(lazy.all(), free, "{}: the set decodes to the list", at());
        (choice, greedy_vs_windows)
    }

    #[test]
    fn lazy_walk_matches_the_eager_reference() {
        const CASES: usize = 2048;
        let mut rng = DetRng::seed_from(0xD5_2005).fork("placement-lazy-vs-eager");
        // How often the greedy candidate beat, tied with, and lost to the
        // best window, and how often no candidate at all was clean.
        let (mut wins, mut ties, mut losses, mut none_clean) = (0, 0, 0, 0);
        for case in 0..CASES {
            let world = draw_world(&mut rng);
            let len = world.free.len() as u32;
            let mut sizes = vec![0, 1, len, len + 1];
            sizes.extend((0..3).map(|_| rng.uniform_u64(1, u64::from(len)) as u32));
            for topology in [
                Topology::Flat,
                Topology::Line,
                Topology::Torus3d { x: 4, y: 4, z: 4 },
            ] {
                for strategy in [
                    PlacementStrategy::FirstFit,
                    PlacementStrategy::MinFailureProbability,
                ] {
                    for &size in &sizes {
                        assert_lazy_matches_eager(
                            &world,
                            topology,
                            strategy,
                            size,
                            &NullPredictor,
                            case,
                        );
                        let (choice, greedy_vs_windows) = assert_lazy_matches_eager(
                            &world,
                            topology,
                            strategy,
                            size,
                            &world.oracle,
                            case,
                        );
                        match greedy_vs_windows {
                            Some(Ordering::Less) => wins += 1,
                            Some(Ordering::Equal) => ties += 1,
                            Some(Ordering::Greater) => losses += 1,
                            None => {}
                        }
                        if choice.is_some_and(|c| c.failure_probability > 0.0) {
                            none_clean += 1;
                        }
                    }
                }
            }
        }
        assert!(
            wins > 0 && ties > 0 && losses > 0 && none_clean > 0,
            "the draw must exercise every greedy outcome: \
             {wins} wins, {ties} ties, {losses} losses, {none_clean} with no clean candidate"
        );
    }

    /// Counts partition queries and single-node queries separately.
    #[derive(Default)]
    struct CountingPredictor {
        partition_queries: Cell<usize>,
        node_queries: Cell<usize>,
    }

    impl Predictor for CountingPredictor {
        fn failure_probability(&self, _nodes: &[NodeId], _window: TimeWindow) -> f64 {
            self.partition_queries.set(self.partition_queries.get() + 1);
            0.0
        }

        fn node_failure_probability(&self, _node: NodeId, _window: TimeWindow) -> f64 {
            self.node_queries.set(self.node_queries.get() + 1);
            0.0
        }
    }

    #[test]
    fn a_clean_first_window_costs_one_query() {
        let free: Vec<NodeId> = (0..4096).map(NodeId::new).collect();
        let predictor = CountingPredictor::default();
        let (busy, mut decoded) = ([0; 64], Vec::new());
        let lazy = &mut FreeNodes::masked(4096, &busy, &mut decoded);
        let (choice, probe) = choose_partition_inner(
            Topology::Flat,
            lazy,
            2048,
            w(0, 100),
            &predictor,
            PlacementStrategy::MinFailureProbability,
        );
        assert_eq!(choice.unwrap().partition.as_slice(), &free[..2048]);
        assert_eq!(probe.candidates_examined, 1);
        assert!(probe.clean_tie_break);
        assert_eq!(predictor.partition_queries.get(), 1);
        assert_eq!(predictor.node_queries.get(), 0);
        assert_eq!(lazy.decoded(), 2048, "only the window's nodes are decoded");
    }
}
