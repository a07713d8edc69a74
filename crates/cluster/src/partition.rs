//! Node partitions: the unit of allocation.
//!
//! A partition is a non-empty set of distinct nodes on which a single job
//! runs exclusively (§3.3: "only one job may run on a given node at a
//! time"). Nodes are stored sorted, which makes set operations cheap and
//! renders deterministic.

use crate::node::NodeId;
use std::fmt;

/// A sorted, duplicate-free, non-empty set of nodes.
///
/// # Examples
///
/// ```
/// use pqos_cluster::node::NodeId;
/// use pqos_cluster::partition::Partition;
///
/// let p = Partition::new([NodeId::new(3), NodeId::new(1), NodeId::new(3)]).unwrap();
/// assert_eq!(p.len(), 2);
/// assert!(p.contains(NodeId::new(1)));
/// assert!(!p.contains(NodeId::new(2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Partition {
    nodes: Vec<NodeId>,
}

/// Error returned when constructing an empty [`Partition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyPartitionError;

impl fmt::Display for EmptyPartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "partition must contain at least one node")
    }
}

impl std::error::Error for EmptyPartitionError {}

impl Partition {
    /// Builds a partition from any collection of node ids, sorting and
    /// deduplicating.
    ///
    /// # Errors
    ///
    /// Returns [`EmptyPartitionError`] if no nodes are supplied.
    pub fn new<I: IntoIterator<Item = NodeId>>(nodes: I) -> Result<Self, EmptyPartitionError> {
        let mut nodes: Vec<NodeId> = nodes.into_iter().collect();
        nodes.sort_unstable();
        nodes.dedup();
        if nodes.is_empty() {
            Err(EmptyPartitionError)
        } else {
            Ok(Partition { nodes })
        }
    }

    /// Wraps nodes that are already strictly ascending (sorted and
    /// duplicate-free) without re-sorting them — the placement hot path
    /// hands over a window of a sorted free list, which is already both.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty; debug builds also panic if it is not
    /// strictly ascending. Use [`Partition::new`] for arbitrary input.
    ///
    /// # Examples
    ///
    /// ```
    /// use pqos_cluster::node::NodeId;
    /// use pqos_cluster::partition::Partition;
    ///
    /// let nodes = vec![NodeId::new(1), NodeId::new(4)];
    /// assert_eq!(
    ///     Partition::from_sorted(nodes.clone()),
    ///     Partition::new(nodes).unwrap()
    /// );
    /// ```
    pub fn from_sorted(nodes: Vec<NodeId>) -> Self {
        assert!(!nodes.is_empty(), "partition must be non-empty");
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "from_sorted needs strictly ascending nodes"
        );
        Partition { nodes }
    }

    /// A partition covering the contiguous index range `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn contiguous(start: u32, len: u32) -> Self {
        assert!(len > 0, "contiguous partition must be non-empty");
        Partition {
            nodes: (start..start + len).map(NodeId::new).collect(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always `false`: partitions are non-empty by construction. Provided
    /// for API symmetry with collections.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `node` belongs to this partition.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }

    /// Iterates over member nodes in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// Member nodes as a sorted slice.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Whether the two partitions share any node.
    ///
    /// # Examples
    ///
    /// ```
    /// use pqos_cluster::partition::Partition;
    ///
    /// let a = Partition::contiguous(0, 4);
    /// let b = Partition::contiguous(3, 4);
    /// let c = Partition::contiguous(4, 4);
    /// assert!(a.overlaps(&b));
    /// assert!(!a.overlaps(&c));
    /// ```
    pub fn overlaps(&self, other: &Partition) -> bool {
        // Merge-walk over the two sorted lists.
        let (mut i, mut j) = (0, 0);
        while i < self.nodes.len() && j < other.nodes.len() {
            match self.nodes[i].cmp(&other.nodes[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "}}")
    }
}

impl<'a> IntoIterator for &'a Partition {
    type Item = NodeId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, NodeId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.nodes.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let p = Partition::new([NodeId::new(5), NodeId::new(1), NodeId::new(5)]).unwrap();
        assert_eq!(p.as_slice(), &[NodeId::new(1), NodeId::new(5)]);
    }

    #[test]
    fn empty_is_an_error() {
        assert_eq!(Partition::new([]), Err(EmptyPartitionError));
        assert!(!EmptyPartitionError.to_string().is_empty());
    }

    #[test]
    fn from_sorted_equals_new_on_sorted_input() {
        for nodes in [vec![7], vec![0, 1, 2], vec![3, 9, 4000]] {
            let nodes: Vec<NodeId> = nodes.into_iter().map(NodeId::new).collect();
            assert_eq!(
                Partition::from_sorted(nodes.clone()),
                Partition::new(nodes).unwrap()
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn from_sorted_rejects_empty_input() {
        let _ = Partition::from_sorted(Vec::new());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_rejects_unsorted_input() {
        let _ = Partition::from_sorted(vec![NodeId::new(2), NodeId::new(1)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_rejects_duplicated_input() {
        let _ = Partition::from_sorted(vec![NodeId::new(1), NodeId::new(1)]);
    }

    #[test]
    fn contiguous_builds_range() {
        let p = Partition::contiguous(4, 3);
        assert_eq!(
            p.as_slice(),
            &[NodeId::new(4), NodeId::new(5), NodeId::new(6)]
        );
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn overlap_detection() {
        let a = Partition::new([NodeId::new(0), NodeId::new(2), NodeId::new(9)]).unwrap();
        let b = Partition::new([NodeId::new(1), NodeId::new(9)]).unwrap();
        let c = Partition::new([NodeId::new(3), NodeId::new(4)]).unwrap();
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn display_lists_members() {
        let p = Partition::contiguous(0, 2);
        assert_eq!(p.to_string(), "{n0,n1}");
    }

    #[test]
    fn iterates_in_order() {
        let p = Partition::new([NodeId::new(9), NodeId::new(2)]).unwrap();
        let v: Vec<NodeId> = (&p).into_iter().collect();
        assert_eq!(v, vec![NodeId::new(2), NodeId::new(9)]);
    }
}
