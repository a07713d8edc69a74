//! The cluster: a fixed population of homogeneous nodes that fail and
//! recover independently (§4.1).

use crate::node::{NodeId, NodeState};
use crate::partition::Partition;
use pqos_sim_core::time::SimTime;
use std::fmt;

/// Errors from cluster occupancy operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// A node id beyond the cluster size was used.
    UnknownNode(NodeId),
    /// Tried to claim a node that is already claimed or down.
    NodeUnavailable(NodeId),
    /// Tried to release a node that is not claimed.
    NotClaimed(NodeId),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownNode(n) => write!(f, "unknown node {n}"),
            ClusterError::NodeUnavailable(n) => write!(f, "node {n} is not available"),
            ClusterError::NotClaimed(n) => write!(f, "node {n} is not claimed"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A fixed-size cluster of nodes with up/down state and exclusive
/// occupancy.
///
/// The cluster does not know about jobs — the simulator maps jobs to
/// partitions; the cluster only enforces the two §3.3 invariants:
/// one claim per node, and failed nodes stay down until their recovery
/// instant.
///
/// # Examples
///
/// ```
/// use pqos_cluster::machine::Cluster;
/// use pqos_cluster::node::NodeId;
/// use pqos_cluster::partition::Partition;
/// use pqos_sim_core::time::SimTime;
///
/// let mut c = Cluster::new(4);
/// let p = Partition::contiguous(0, 2);
/// c.claim(&p)?;
/// assert!(!c.is_free(NodeId::new(1)) && c.is_free(NodeId::new(2)));
/// c.release(&p)?;
/// c.mark_down(NodeId::new(3), SimTime::from_secs(120));
/// assert!(c.is_free(NodeId::new(1)) && !c.is_free(NodeId::new(3)));
/// # Ok::<(), pqos_cluster::machine::ClusterError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    states: Vec<NodeState>,
    claimed: Vec<bool>,
}

impl Cluster {
    /// Creates a cluster of `n` up, unclaimed nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "cluster must have at least one node");
        Cluster {
            states: vec![NodeState::Up; n as usize],
            claimed: vec![false; n as usize],
        }
    }

    /// State of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn state(&self, node: NodeId) -> NodeState {
        self.states[node.index()]
    }

    /// Whether `node` is up and unclaimed.
    pub fn is_free(&self, node: NodeId) -> bool {
        node.index() < self.states.len()
            && self.states[node.index()].is_up()
            && !self.claimed[node.index()]
    }

    /// Marks every node of `partition` as claimed.
    ///
    /// # Errors
    ///
    /// Fails with [`ClusterError::NodeUnavailable`] (without claiming
    /// anything) if any member is down or already claimed, and
    /// [`ClusterError::UnknownNode`] if any member is out of range.
    pub fn claim(&mut self, partition: &Partition) -> Result<(), ClusterError> {
        for n in partition.iter() {
            if n.index() >= self.states.len() {
                return Err(ClusterError::UnknownNode(n));
            }
            if !self.is_free(n) {
                return Err(ClusterError::NodeUnavailable(n));
            }
        }
        for n in partition.iter() {
            self.claimed[n.index()] = true;
        }
        Ok(())
    }

    /// Releases every node of `partition`.
    ///
    /// # Errors
    ///
    /// Fails with [`ClusterError::NotClaimed`] (without releasing anything)
    /// if any member is not currently claimed.
    pub fn release(&mut self, partition: &Partition) -> Result<(), ClusterError> {
        for n in partition.iter() {
            if n.index() >= self.states.len() {
                return Err(ClusterError::UnknownNode(n));
            }
            if !self.claimed[n.index()] {
                return Err(ClusterError::NotClaimed(n));
            }
        }
        for n in partition.iter() {
            self.claimed[n.index()] = false;
        }
        Ok(())
    }

    /// Takes `node` down until `until`. The claim, if any, is *not*
    /// released: the simulator decides what happens to the job.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn mark_down(&mut self, node: NodeId, until: SimTime) {
        self.states[node.index()] = NodeState::Down { until };
    }

    /// Brings `node` back up.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn mark_up(&mut self, node: NodeId) {
        self.states[node.index()] = NodeState::Up;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_cluster_is_all_free() {
        let c = Cluster::new(8);
        assert!((0..8).all(|i| c.is_free(NodeId::new(i))));
        assert!(!c.is_free(NodeId::new(8)));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_size_panics() {
        let _ = Cluster::new(0);
    }

    #[test]
    fn claim_release_cycle() {
        let mut c = Cluster::new(4);
        let p = Partition::contiguous(1, 2);
        c.claim(&p).unwrap();
        assert!(!c.is_free(NodeId::new(1)));
        assert!(c.is_free(NodeId::new(0)));
        assert_eq!(
            c.claim(&p),
            Err(ClusterError::NodeUnavailable(NodeId::new(1)))
        );
        c.release(&p).unwrap();
        assert!(c.is_free(NodeId::new(1)));
        assert_eq!(c.release(&p), Err(ClusterError::NotClaimed(NodeId::new(1))));
    }

    #[test]
    fn claim_is_atomic_on_failure() {
        let mut c = Cluster::new(4);
        c.mark_down(NodeId::new(2), SimTime::from_secs(120));
        let p = Partition::contiguous(1, 2); // nodes 1, 2; 2 is down
        assert!(c.claim(&p).is_err());
        // Node 1 must not have been claimed by the failed attempt.
        assert!(c.is_free(NodeId::new(1)));
    }

    #[test]
    fn down_nodes_are_not_free() {
        let mut c = Cluster::new(4);
        c.mark_down(NodeId::new(0), SimTime::from_secs(10));
        assert!(!c.is_free(NodeId::new(0)));
        assert!(!c.state(NodeId::new(0)).is_up());
        assert!(c.is_free(NodeId::new(1)));
        c.mark_up(NodeId::new(0));
        assert!(c.is_free(NodeId::new(0)));
    }

    #[test]
    fn down_does_not_release_claim() {
        let mut c = Cluster::new(2);
        let p = Partition::contiguous(0, 1);
        c.claim(&p).unwrap();
        c.mark_down(NodeId::new(0), SimTime::from_secs(5));
        c.mark_up(NodeId::new(0));
        // Still claimed after recovery.
        assert!(!c.is_free(NodeId::new(0)));
        c.release(&p).unwrap();
        assert!(c.is_free(NodeId::new(0)));
    }

    #[test]
    fn unknown_node_errors() {
        let mut c = Cluster::new(2);
        let p = Partition::new([NodeId::new(9)]).unwrap();
        assert_eq!(c.claim(&p), Err(ClusterError::UnknownNode(NodeId::new(9))));
        assert_eq!(
            c.release(&p),
            Err(ClusterError::UnknownNode(NodeId::new(9)))
        );
        assert!(!c.is_free(NodeId::new(9)));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            ClusterError::UnknownNode(NodeId::new(1)),
            ClusterError::NodeUnavailable(NodeId::new(1)),
            ClusterError::NotClaimed(NodeId::new(1)),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
