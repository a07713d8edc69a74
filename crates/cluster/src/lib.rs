//! # pqos-cluster
//!
//! Node sets for the DSN 2005 *Probabilistic QoS Guarantees* reproduction:
//! a fixed population of homogeneous nodes (128 in the paper's
//! experiments), named, grouped into partitions and allocated under a
//! topology. Which node is down or claimed is the simulator's state, not
//! this crate's.
//!
//! * [`node`] — [`node::NodeId`], a dense node index;
//! * [`partition`] — sorted node sets, the unit of allocation;
//! * [`mask`] — packed [`mask::NodeMask`] bitmasks for word-at-a-time set
//!   algebra on node sets (the scheduler's availability timeline);
//! * [`topology`] — allocation constraints and candidate-partition
//!   enumeration for flat (all-to-all), contiguous (line), and 3-D torus
//!   (sub-box) machines.
//!
//! # Examples
//!
//! ```
//! use pqos_cluster::node::NodeId;
//! use pqos_cluster::topology::Topology;
//!
//! // A 128-node machine with node 5 down: the other 127 are free.
//! let free: Vec<NodeId> = (0..128).filter(|&i| i != 5).map(NodeId::new).collect();
//! // Candidates are walked lazily, as windows borrowed from the free list;
//! // a scheduler that takes the first one builds nothing for the rest.
//! let mut candidates = Topology::Flat.candidates(&free, 32);
//! assert_eq!(&*candidates.next().unwrap(), &free[..32]);
//! assert_eq!(candidates.count(), 127 - 32);
//! // The eager form collects the same walk into partitions.
//! assert_eq!(Topology::Flat.candidate_partitions(&free, 32).len(), 127 - 32 + 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mask;
pub mod node;
pub mod partition;
pub mod topology;
