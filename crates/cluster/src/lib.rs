//! # pqos-cluster
//!
//! Machine model for the DSN 2005 *Probabilistic QoS Guarantees* reproduction:
//! a fixed population of homogeneous nodes (128 in the paper's experiments)
//! that may fail independently and recover after a fixed downtime.
//!
//! * [`node`] — [`node::NodeId`] and up/down [`node::NodeState`];
//! * [`partition`] — sorted node sets, the unit of allocation;
//! * [`mask`] — packed [`mask::NodeMask`] bitmasks for word-at-a-time set
//!   algebra on node sets (the scheduler's availability timeline);
//! * [`topology`] — allocation constraints and candidate-partition
//!   enumeration for flat (all-to-all), contiguous (line), and 3-D torus
//!   (sub-box) machines;
//! * [`machine`] — the [`machine::Cluster`] with exclusive occupancy.
//!
//! # Examples
//!
//! ```
//! use pqos_cluster::machine::Cluster;
//! use pqos_cluster::node::NodeId;
//! use pqos_cluster::topology::Topology;
//!
//! let cluster = Cluster::new(128);
//! let free: Vec<NodeId> = (0..128).map(NodeId::new).filter(|&n| cluster.is_free(n)).collect();
//! // Candidates are walked lazily, as windows borrowed from the free list;
//! // a scheduler that takes the first one builds nothing for the rest.
//! let mut candidates = Topology::Flat.candidates(&free, 32);
//! assert_eq!(&*candidates.next().unwrap(), &free[..32]);
//! assert_eq!(candidates.count(), 128 - 32);
//! // The eager form collects the same walk into partitions.
//! assert_eq!(Topology::Flat.candidate_partitions(&free, 32).len(), 128 - 32 + 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod machine;
pub mod mask;
pub mod node;
pub mod partition;
pub mod topology;

pub use machine::Cluster;
pub use mask::NodeMask;
pub use node::{NodeId, NodeState};
pub use partition::Partition;
pub use topology::Topology;
