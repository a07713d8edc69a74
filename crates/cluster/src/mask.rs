//! Dense node-set bitmasks.
//!
//! A [`NodeMask`] represents a subset of a fixed-width cluster as packed
//! `u64` words, one bit per node. Set algebra (union, intersection
//! tests) runs word-at-a-time, which is what makes the
//! scheduler's availability timeline cheap: a 128-node cluster is two
//! words, and even a 4096-node machine is only 64.
//!
//! Masks are built from [`NodeId`] lists (a
//! [`Partition`](crate::partition::Partition)'s members included) and
//! answer in sorted node lists, so the bitmask representation stays an
//! internal detail of hot paths while public APIs keep speaking in node
//! lists.

use crate::node::NodeId;
use std::fmt;

/// A fixed-width set of nodes packed one bit per node into `u64` words.
///
/// The width is the cluster size; node indices at or beyond the width are
/// ignored by [`set`](NodeMask::set) and never reported by iteration, so
/// callers may pass unvalidated node lists (mirroring how the reservation
/// book tolerates out-of-range exclusions).
///
/// # Examples
///
/// ```
/// use pqos_cluster::mask::NodeMask;
/// use pqos_cluster::node::NodeId;
/// use pqos_cluster::partition::Partition;
///
/// let mut m = NodeMask::from_nodes(Partition::contiguous(0, 3).iter(), 8);
/// m.set(NodeId::new(7));
/// assert_eq!(m.count_ones(), 4);
/// assert!(m.contains(NodeId::new(2)));
/// let free: Vec<NodeId> = m.complement_nodes();
/// assert_eq!(free.len(), 4); // n3, n4, n5, n6
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeMask {
    width: u32,
    words: Vec<u64>,
}

impl NodeMask {
    /// An empty mask over a cluster of `width` nodes.
    pub fn empty(width: u32) -> Self {
        NodeMask {
            width,
            words: vec![0; width.div_ceil(64) as usize],
        }
    }

    /// A mask with every one of the `width` nodes set.
    pub fn full(width: u32) -> Self {
        let mut mask = NodeMask::empty(width);
        for w in &mut mask.words {
            *w = u64::MAX;
        }
        mask.clear_padding();
        mask
    }

    /// Builds a mask from any iterator of node ids; out-of-range ids are
    /// ignored.
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(nodes: I, width: u32) -> Self {
        let mut mask = NodeMask::empty(width);
        for n in nodes {
            mask.set(n);
        }
        mask
    }

    /// Cluster width this mask covers (number of addressable nodes).
    #[cfg(test)]
    pub(crate) fn width(&self) -> u32 {
        self.width
    }

    /// Adds `node` to the set; ignored if out of range.
    pub fn set(&mut self, node: NodeId) {
        let i = node.index();
        if i < self.width as usize {
            self.words[i / 64] |= 1 << (i % 64);
        }
    }

    /// Removes `node` from the set; ignored if out of range.
    #[cfg(test)]
    pub(crate) fn clear(&mut self, node: NodeId) {
        let i = node.index();
        if i < self.width as usize {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Whether `node` is in the set (always `false` out of range).
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        i < self.width as usize && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of nodes in the set.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// In-place union: `self |= other`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[cfg(test)]
    pub(crate) fn or_assign(&mut self, other: &NodeMask) {
        assert_eq!(self.width, other.width, "mask width mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Whether the two sets share any node.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[cfg(test)]
    pub(crate) fn intersects(&self, other: &NodeMask) -> bool {
        assert_eq!(self.width, other.width, "mask width mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterates over member nodes in ascending index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let base = wi as u32 * 64;
            BitIter { word }.map(move |bit| NodeId::new(base + bit))
        })
    }

    /// Member nodes as a sorted list.
    #[cfg(test)]
    pub(crate) fn to_nodes(&self) -> Vec<NodeId> {
        self.iter().collect()
    }

    /// Nodes *not* in the set, sorted ascending.
    pub fn complement_nodes(&self) -> Vec<NodeId> {
        (0..self.width)
            .map(NodeId::new)
            .filter(|&n| !self.contains(n))
            .collect()
    }

    /// The packed words, low indices first.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a mask from packed words (the inverse of
    /// [`words`](NodeMask::words)). Bits at or beyond `width` in the last
    /// word are cleared, so callers may hand in scratch buffers that were
    /// only maintained word-at-a-time.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` is not exactly `width.div_ceil(64)`.
    #[cfg(test)]
    pub(crate) fn from_words(width: u32, words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            width.div_ceil(64) as usize,
            "word count must match width"
        );
        let mut mask = NodeMask { width, words };
        mask.clear_padding();
        mask
    }

    /// Word-parallel union on raw packed slices: `dst |= src`.
    ///
    /// The word-slice helpers exist so the reservation book can keep its
    /// timeline as one flat arena of rows and slide a union window over it
    /// without materializing a `NodeMask` per row.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    pub fn or_words(dst: &mut [u64], src: &[u64]) {
        assert_eq!(dst.len(), src.len(), "word count mismatch");
        for (a, b) in dst.iter_mut().zip(src) {
            *a |= b;
        }
    }

    /// Word-parallel union at a bit offset: `dst |= src << offset`, bit
    /// `i` of `src` landing on bit `offset + i` of `dst` — one shard's row
    /// composed into a wider machine's at the shard's base, which need not
    /// be a multiple of 64.
    ///
    /// # Panics
    ///
    /// Panics if a set bit of `src` would land beyond `dst`.
    pub fn or_words_at(dst: &mut [u64], src: &[u64], offset: u32) {
        let (first, shift) = ((offset / 64) as usize, offset % 64);
        for (k, &word) in src.iter().enumerate().filter(|(_, &w)| w != 0) {
            dst[first + k] |= word << shift;
            if shift != 0 && word >> (64 - shift) != 0 {
                dst[first + k + 1] |= word >> (64 - shift);
            }
        }
    }

    /// Population count of a raw packed slice.
    pub fn count_ones_words(words: &[u64]) -> u32 {
        words.iter().map(|w| w.count_ones()).sum()
    }

    /// Zeroes any bits at or beyond the width in the last word.
    fn clear_padding(&mut self) {
        let tail = self.width % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1 << tail) - 1;
            }
        }
    }
}

impl fmt::Display for NodeMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the set bit positions of a single word.
struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = NodeMask::empty(100);
        assert_eq!(e.width(), 100);
        assert_eq!(e.count_ones(), 0);
        assert_eq!(e.complement_nodes().len(), 100);

        let f = NodeMask::full(100);
        assert_eq!(f.count_ones(), 100);
        assert!(f.contains(NodeId::new(99)));
        assert!(!f.contains(NodeId::new(100)));
        assert!(f.complement_nodes().is_empty());
    }

    #[test]
    fn set_clear_contains() {
        let mut m = NodeMask::empty(70);
        m.set(NodeId::new(0));
        m.set(NodeId::new(63));
        m.set(NodeId::new(64));
        m.set(NodeId::new(69));
        m.set(NodeId::new(70)); // out of range, ignored
        m.set(NodeId::new(1000)); // out of range, ignored
        assert_eq!(m.count_ones(), 4);
        assert!(m.contains(NodeId::new(63)));
        assert!(m.contains(NodeId::new(64)));
        assert!(!m.contains(NodeId::new(70)));
        m.clear(NodeId::new(63));
        assert!(!m.contains(NodeId::new(63)));
        assert_eq!(m.count_ones(), 3);
    }

    #[test]
    fn partition_round_trip() {
        use crate::partition::Partition;
        let p = Partition::new([NodeId::new(2), NodeId::new(65), NodeId::new(7)]).unwrap();
        let m = NodeMask::from_nodes(p.iter(), 128);
        assert_eq!(Partition::new(m.iter()).unwrap(), p);
        assert_eq!(
            m.to_nodes(),
            vec![NodeId::new(2), NodeId::new(7), NodeId::new(65)]
        );
        assert!(NodeMask::empty(4).to_nodes().is_empty());
    }

    #[test]
    fn set_algebra() {
        let w = 130;
        let a = NodeMask::from_nodes([NodeId::new(0), NodeId::new(64), NodeId::new(129)], w);
        let b = NodeMask::from_nodes([NodeId::new(64), NodeId::new(70)], w);
        assert!(a.intersects(&b));

        let mut u = a.clone();
        u.or_assign(&b);
        assert_eq!(u.count_ones(), 4);

        let c = NodeMask::from_nodes([NodeId::new(1)], w);
        assert!(!a.intersects(&c));
    }

    #[test]
    #[should_panic(expected = "mask width mismatch")]
    fn width_mismatch_panics() {
        let mut a = NodeMask::empty(64);
        let b = NodeMask::empty(65);
        a.or_assign(&b);
    }

    #[test]
    fn complement_respects_width() {
        let m = NodeMask::from_nodes([NodeId::new(1)], 3);
        assert_eq!(m.complement_nodes(), vec![NodeId::new(0), NodeId::new(2)]);
        // Exactly one full word: no padding bits to leak.
        let m64 = NodeMask::from_nodes((0..64).map(NodeId::new), 64);
        assert!(m64.complement_nodes().is_empty());
    }

    #[test]
    fn display_lists_members() {
        let m = NodeMask::from_nodes([NodeId::new(3), NodeId::new(1)], 8);
        assert_eq!(m.to_string(), "{n1,n3}");
    }

    #[test]
    fn words_round_trip_and_raw_ops() {
        let m = NodeMask::from_nodes([NodeId::new(3), NodeId::new(64), NodeId::new(99)], 100);
        let rebuilt = NodeMask::from_words(100, m.words().to_vec());
        assert_eq!(rebuilt, m);
        // Padding bits are scrubbed on the way in.
        let dirty = vec![u64::MAX, u64::MAX];
        let full = NodeMask::from_words(100, dirty);
        assert_eq!(full, NodeMask::full(100));
        assert_eq!(NodeMask::count_ones_words(full.words()), 100);

        let mut dst = vec![0b0011u64, 0];
        NodeMask::or_words(&mut dst, &[0b0110, 1 << 40]);
        assert_eq!(dst, vec![0b0111, 1 << 40]);
    }

    #[test]
    fn or_words_at_shifts_every_bit_by_the_offset() {
        for (src_width, offset) in [
            (1u32, 0u32),
            (64, 0),
            (70, 3),
            (43, 44),
            (341, 683),
            (64, 64),
        ] {
            let total = offset + src_width;
            let ids: Vec<NodeId> = (0..src_width)
                .filter(|i| i % 3 != 1)
                .map(NodeId::new)
                .collect();
            let src = NodeMask::from_nodes(ids.iter().copied(), src_width);
            let mut dst = NodeMask::from_nodes([NodeId::new(0)], total)
                .words()
                .to_vec();
            NodeMask::or_words_at(&mut dst, src.words(), offset);
            let want = NodeMask::from_nodes(
                ids.iter()
                    .map(|n| NodeId::new(n.as_u32() + offset))
                    .chain([NodeId::new(0)]),
                total,
            );
            assert_eq!(dst, want.words(), "{src_width} nodes at {offset}");
        }
    }

    #[test]
    #[should_panic(expected = "word count must match width")]
    fn from_words_rejects_wrong_length() {
        let _ = NodeMask::from_words(100, vec![0]);
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let ids = [0u32, 63, 64, 127, 128];
        let m = NodeMask::from_nodes(ids.iter().copied().map(NodeId::new), 200);
        let got: Vec<u32> = m.iter().map(|n| n.as_u32()).collect();
        assert_eq!(got, ids);
    }
}
