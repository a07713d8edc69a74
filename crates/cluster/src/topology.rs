//! Communication topologies and the allocation constraints they impose.
//!
//! The paper's experiments use a *flat (all-to-all)* architecture (§4.4):
//! any set of free nodes can host a job. Machines like BlueGene/L instead
//! require contiguous blocks; the [`Topology::Line`] variant models that
//! constraint in one dimension and is used by the scheduler ablations.

use crate::node::NodeId;
use crate::partition::Partition;
use std::borrow::Cow;
use std::fmt;

/// Connectivity model of the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Topology {
    /// All-to-all: any subset of nodes is a valid partition.
    #[default]
    Flat,
    /// One-dimensional machine: partitions must be contiguous index ranges
    /// (a simplification of BlueGene/L-style block allocation).
    Line,
    /// Three-dimensional mesh/torus of the given dimensions: partitions
    /// must be axis-aligned rectangular sub-boxes, as in BlueGene/L block
    /// allocation. Node index = `ix + x·(iy + y·iz)`.
    ///
    /// Only job sizes that factor into a box fitting the machine are
    /// placeable — which is why BlueGene/L-era workloads (like the NASA
    /// log) use power-of-two sizes.
    Torus3d {
        /// Extent in the X dimension.
        x: u8,
        /// Extent in the Y dimension.
        y: u8,
        /// Extent in the Z dimension.
        z: u8,
    },
}

impl Topology {
    /// Whether `partition` satisfies this topology's allocation constraint.
    ///
    /// # Examples
    ///
    /// ```
    /// use pqos_cluster::node::NodeId;
    /// use pqos_cluster::partition::Partition;
    /// use pqos_cluster::topology::Topology;
    ///
    /// let gap = Partition::new([NodeId::new(0), NodeId::new(2)]).unwrap();
    /// assert!(Topology::Flat.is_valid_partition(&gap));
    /// assert!(!Topology::Line.is_valid_partition(&gap));
    /// assert!(Topology::Line.is_valid_partition(&Partition::contiguous(4, 4)));
    /// ```
    pub fn is_valid_partition(self, partition: &Partition) -> bool {
        match self {
            Topology::Flat => true,
            Topology::Line => {
                let nodes = partition.as_slice();
                let first = nodes[0].as_u32();
                nodes
                    .iter()
                    .enumerate()
                    .all(|(i, n)| n.as_u32() == first + i as u32)
            }
            Topology::Torus3d { x, y, z } => {
                let (x, y, z) = (u32::from(x), u32::from(y), u32::from(z));
                let coords: Vec<(u32, u32, u32)> = partition
                    .iter()
                    .map(|n| {
                        let i = n.as_u32();
                        (i % x, (i / x) % y, i / (x * y))
                    })
                    .collect();
                if coords.iter().any(|&(_, _, cz)| cz >= z) {
                    return false; // node index beyond the machine
                }
                let min = coords.iter().fold((u32::MAX, u32::MAX, u32::MAX), |a, c| {
                    (a.0.min(c.0), a.1.min(c.1), a.2.min(c.2))
                });
                let max = coords.iter().fold((0, 0, 0), |a, c: &(u32, u32, u32)| {
                    (a.0.max(c.0), a.1.max(c.1), a.2.max(c.2))
                });
                let volume = (max.0 - min.0 + 1) * (max.1 - min.1 + 1) * (max.2 - min.2 + 1);
                // A box is exactly filled: distinct nodes, count == volume.
                volume as usize == partition.len()
            }
        }
    }

    /// Walks the candidate node sets of `size` nodes drawn from the sorted
    /// free list, respecting the topology constraint, without building
    /// them: a caller that stops at the first acceptable candidate pays
    /// only for the candidates it looked at.
    ///
    /// For [`Topology::Flat`] the candidates are sliding windows over the
    /// sorted free list — a linear-size candidate set that still offers the
    /// scheduler genuinely different failure exposures to choose among —
    /// borrowed straight from `free_sorted`. For [`Topology::Line`] only
    /// windows that are contiguous in node index are yielded. For
    /// [`Topology::Torus3d`] every all-free axis-aligned box is yielded as
    /// an owned node list (the boxes are enumerated up front; there is no
    /// free list to borrow them from). Every candidate is strictly
    /// ascending.
    ///
    /// Yields nothing when fewer than `size` nodes are free or `size == 0`.
    ///
    /// The scheduler's placement walk (`pqos_sched::place`) calls this for
    /// [`Topology::Torus3d`] only: it slides the `Flat` / `Line` windows
    /// itself over a free set decoded as far as it reads, and for those
    /// two this method is the reference that walk is tested against
    /// (`lazy_walk_matches_the_eager_reference`). A change to the window
    /// rule here must be made there too.
    ///
    /// # Examples
    ///
    /// ```
    /// use pqos_cluster::node::NodeId;
    /// use pqos_cluster::topology::Topology;
    ///
    /// let free: Vec<NodeId> = [0, 1, 3, 4].into_iter().map(NodeId::new).collect();
    /// let first = Topology::Line.candidates(&free, 2).next().unwrap();
    /// assert_eq!(&*first, &free[..2]);
    /// assert_eq!(Topology::Line.candidates(&free, 2).count(), 2); // (1,3) has a gap
    /// ```
    pub fn candidates(self, free_sorted: &[NodeId], size: usize) -> Candidates<'_> {
        if size == 0 || free_sorted.len() < size {
            return Candidates(Walk::Windows {
                windows: [].windows(1),
                contiguous_only: false,
            });
        }
        debug_assert!(
            free_sorted.windows(2).all(|w| w[0] < w[1]),
            "free list must be sorted"
        );
        Candidates(match self {
            Topology::Flat | Topology::Line => Walk::Windows {
                windows: free_sorted.windows(size),
                contiguous_only: matches!(self, Topology::Line),
            },
            Topology::Torus3d { x, y, z } => Walk::Boxes(
                torus_boxes(free_sorted, size, u32::from(x), u32::from(y), u32::from(z))
                    .into_iter(),
            ),
        })
    }

    /// [`Topology::candidates`] collected into partitions, in the same
    /// order.
    ///
    /// Returns an empty vector when fewer than `size` nodes are free or
    /// `size == 0`.
    pub fn candidate_partitions(self, free_sorted: &[NodeId], size: usize) -> Vec<Partition> {
        self.candidates(free_sorted, size)
            .map(|nodes| Partition::from_sorted(nodes.into_owned()))
            .collect()
    }
}

/// Lazy walk over a topology's candidate node sets; see
/// [`Topology::candidates`].
#[derive(Debug)]
pub struct Candidates<'a>(Walk<'a>);

#[derive(Debug)]
enum Walk<'a> {
    Windows {
        windows: std::slice::Windows<'a, NodeId>,
        contiguous_only: bool,
    },
    Boxes(std::vec::IntoIter<Vec<NodeId>>),
}

impl<'a> Iterator for Candidates<'a> {
    type Item = Cow<'a, [NodeId]>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            Walk::Windows {
                windows,
                contiguous_only,
            } => windows
                .find(|w| {
                    !*contiguous_only
                        || (w[w.len() - 1].as_u32() - w[0].as_u32()) as usize == w.len() - 1
                })
                .map(Cow::Borrowed),
            Walk::Boxes(boxes) => boxes.next().map(Cow::Owned),
        }
    }
}

/// Enumerates every all-free axis-aligned box of exactly `size` nodes,
/// each as a strictly ascending node list.
fn torus_boxes(free_sorted: &[NodeId], size: usize, x: u32, y: u32, z: u32) -> Vec<Vec<NodeId>> {
    let machine = (x * y * z) as usize;
    let mut free = vec![false; machine];
    for n in free_sorted {
        if n.index() < machine {
            free[n.index()] = true;
        }
    }
    let mut out = Vec::new();
    let size = size as u32;
    for dx in 1..=x {
        if !size.is_multiple_of(dx) {
            continue;
        }
        let rest = size / dx;
        for dy in 1..=y {
            if !rest.is_multiple_of(dy) {
                continue;
            }
            let dz = rest / dy;
            if dz == 0 || dz > z {
                continue;
            }
            for x0 in 0..=(x - dx) {
                for y0 in 0..=(y - dy) {
                    'origin: for z0 in 0..=(z - dz) {
                        let mut nodes = Vec::with_capacity(size as usize);
                        for iz in z0..z0 + dz {
                            for iy in y0..y0 + dy {
                                for ix in x0..x0 + dx {
                                    let idx = ix + x * (iy + y * iz);
                                    if !free[idx as usize] {
                                        continue 'origin;
                                    }
                                    nodes.push(NodeId::new(idx));
                                }
                            }
                        }
                        out.push(nodes);
                    }
                }
            }
        }
    }
    out
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::Flat => write!(f, "flat"),
            Topology::Line => write!(f, "line"),
            Topology::Torus3d { x, y, z } => write!(f, "torus-{x}x{y}x{z}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn flat_accepts_any_set() {
        let p = Partition::new(ids(&[0, 5, 9])).unwrap();
        assert!(Topology::Flat.is_valid_partition(&p));
    }

    #[test]
    fn line_requires_contiguity() {
        assert!(Topology::Line.is_valid_partition(&Partition::contiguous(2, 5)));
        let gap = Partition::new(ids(&[2, 4])).unwrap();
        assert!(!Topology::Line.is_valid_partition(&gap));
    }

    #[test]
    fn flat_candidates_are_sliding_windows() {
        let free = ids(&[0, 3, 4, 7]);
        let cands = Topology::Flat.candidate_partitions(&free, 2);
        assert_eq!(cands.len(), 3);
        assert_eq!(cands[0].as_slice(), &ids(&[0, 3])[..]);
        assert_eq!(cands[2].as_slice(), &ids(&[4, 7])[..]);
    }

    #[test]
    fn line_candidates_skip_gaps() {
        let free = ids(&[0, 1, 3, 4, 5]);
        let cands = Topology::Line.candidate_partitions(&free, 2);
        // Valid windows: (0,1), (3,4), (4,5); (1,3) has a gap.
        assert_eq!(cands.len(), 3);
        for c in &cands {
            assert!(Topology::Line.is_valid_partition(c));
        }
    }

    #[test]
    fn window_candidates_borrow_from_the_free_list() {
        let free = ids(&[0, 1, 3, 4, 5]);
        for topology in [Topology::Flat, Topology::Line] {
            let mut walk = topology.candidates(&free, 2);
            assert!(matches!(walk.next(), Some(Cow::Borrowed(w)) if w == &free[..2]));
            assert!(walk.all(|c| matches!(c, Cow::Borrowed(_))));
        }
    }

    #[test]
    fn insufficient_free_nodes_yields_nothing() {
        let free = ids(&[1, 2]);
        assert!(Topology::Flat.candidate_partitions(&free, 3).is_empty());
        assert!(Topology::Flat.candidate_partitions(&free, 0).is_empty());
    }

    #[test]
    fn exact_fit_single_candidate() {
        let free = ids(&[4, 9, 11]);
        let cands = Topology::Flat.candidate_partitions(&free, 3);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].len(), 3);
    }

    #[test]
    fn torus_validates_boxes() {
        let t = Topology::Torus3d { x: 4, y: 4, z: 8 };
        // A full X-row at y=0, z=0: nodes 0..4.
        assert!(t.is_valid_partition(&Partition::contiguous(0, 4)));
        // 2x2x1 box at origin: nodes 0, 1, 4, 5.
        let square = Partition::new(ids(&[0, 1, 4, 5])).unwrap();
        assert!(t.is_valid_partition(&square));
        // An L-shape is not a box.
        let ell = Partition::new(ids(&[0, 1, 4])).unwrap();
        assert!(!t.is_valid_partition(&ell));
        // Stacking the same X-pair across Z *is* a 2x1x2 box...
        let stack = Partition::new(ids(&[0, 1, 16, 17])).unwrap();
        assert!(t.is_valid_partition(&stack));
        // ...but a diagonal across Y and Z is not (bounding box 2x2x2,
        // only 4 members).
        let split = Partition::new(ids(&[0, 1, 20, 21])).unwrap();
        assert!(!t.is_valid_partition(&split));
        // Out-of-machine node index.
        let outside = Partition::new(ids(&[200])).unwrap();
        assert!(!t.is_valid_partition(&outside));
    }

    #[test]
    fn torus_candidates_are_valid_boxes_of_right_size() {
        let t = Topology::Torus3d { x: 2, y: 2, z: 2 };
        let free: Vec<NodeId> = (0..8).map(NodeId::new).collect();
        for size in [1usize, 2, 4, 8] {
            let cands = t.candidate_partitions(&free, size);
            assert!(!cands.is_empty(), "size {size} should have boxes");
            for c in &cands {
                assert_eq!(c.len(), size);
                assert!(t.is_valid_partition(c), "candidate {c} not a box");
            }
        }
        // Size 3 has no box in a 2x2x2 machine.
        assert!(t.candidate_partitions(&free, 3).is_empty());
        // Size 5, 6, 7 likewise.
        assert!(t.candidate_partitions(&free, 6).is_empty());
    }

    #[test]
    fn torus_candidates_respect_free_set() {
        let t = Topology::Torus3d { x: 2, y: 2, z: 2 };
        // Node 0 busy: no 8-box; 4-boxes avoiding node 0 remain.
        let free: Vec<NodeId> = (1..8).map(NodeId::new).collect();
        assert!(t.candidate_partitions(&free, 8).is_empty());
        let quads = t.candidate_partitions(&free, 4);
        assert!(!quads.is_empty());
        for q in &quads {
            assert!(!q.contains(NodeId::new(0)));
        }
    }

    #[test]
    fn torus_candidate_count_matches_combinatorics() {
        // 4x4x8 machine, all free, 2-node jobs: boxes 2x1x1 (3*4*8),
        // 1x2x1 (4*3*8), 1x1x2 (4*4*7) = 96 + 96 + 112 = 304.
        let t = Topology::Torus3d { x: 4, y: 4, z: 8 };
        let free: Vec<NodeId> = (0..128).map(NodeId::new).collect();
        assert_eq!(t.candidate_partitions(&free, 2).len(), 304);
    }

    #[test]
    fn default_and_display() {
        assert_eq!(Topology::default(), Topology::Flat);
        assert_eq!(Topology::Flat.to_string(), "flat");
        assert_eq!(Topology::Line.to_string(), "line");
        assert_eq!(
            Topology::Torus3d { x: 4, y: 4, z: 8 }.to_string(),
            "torus-4x4x8"
        );
    }
}
