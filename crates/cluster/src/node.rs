//! Node identity.

use std::fmt;

/// Identifier of a node in the cluster, densely numbered from zero.
///
/// # Examples
///
/// ```
/// use pqos_cluster::node::NodeId;
///
/// let n = NodeId::new(5);
/// assert_eq!(n.index(), 5);
/// assert_eq!(n.to_string(), "n5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw numeric value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips() {
        let n = NodeId::new(17);
        assert_eq!(n.index(), 17);
        assert_eq!(n.as_u32(), 17);
        assert_eq!(NodeId::from(17u32), n);
    }

    #[test]
    fn node_ids_order_by_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
    }
}
