//! Compact node sets over at most 64 query relations.

use std::fmt;

/// The most relations (table occurrences) one query may have: the width of
/// a [`NodeSet`]. The one statement of the limit — [`crate::Hypergraph::new`]
/// asserts it, and the SQL parser turns a statement over it away before
/// anything is built for it.
pub const MAX_RELATIONS: usize = u64::BITS as usize;

/// A set of hypergraph nodes (relations), represented as a 64-bit mask.
///
/// The paper's experiments go up to 20 relations; 64 ([`MAX_RELATIONS`]) is
/// a comfortable cap and keeps every set operation a single machine
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeSet(pub u64);

impl NodeSet {
    pub const EMPTY: NodeSet = NodeSet(0);

    /// The singleton `{i}`.
    #[inline]
    pub fn single(i: usize) -> NodeSet {
        debug_assert!(i < MAX_RELATIONS);
        NodeSet(1u64 << i)
    }

    /// `{0, 1, …, n-1}`.
    #[inline]
    pub fn full(n: usize) -> NodeSet {
        debug_assert!(n <= MAX_RELATIONS);
        if n == MAX_RELATIONS {
            NodeSet(u64::MAX)
        } else {
            NodeSet((1u64 << n) - 1)
        }
    }

    /// `{0, 1, …, i}` — the `B_i` sets of DPhyp.
    #[inline]
    pub fn upto(i: usize) -> NodeSet {
        NodeSet::full(i + 1)
    }

    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    #[inline]
    pub fn contains(self, i: usize) -> bool {
        self.0 & (1u64 << i) != 0
    }

    #[inline]
    pub fn is_subset_of(self, other: NodeSet) -> bool {
        self.0 & !other.0 == 0
    }

    #[inline]
    pub fn intersects(self, other: NodeSet) -> bool {
        self.0 & other.0 != 0
    }

    #[inline]
    pub fn is_disjoint(self, other: NodeSet) -> bool {
        !self.intersects(other)
    }

    #[inline]
    pub fn union(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 | other.0)
    }

    #[inline]
    pub fn intersect(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & other.0)
    }

    #[inline]
    pub fn difference(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & !other.0)
    }

    #[inline]
    pub fn insert(self, i: usize) -> NodeSet {
        NodeSet(self.0 | (1u64 << i))
    }

    #[inline]
    pub fn remove(self, i: usize) -> NodeSet {
        NodeSet(self.0 & !(1u64 << i))
    }

    /// Smallest element; panics when empty.
    #[inline]
    #[track_caller]
    pub fn min(self) -> usize {
        assert!(!self.is_empty(), "min of empty NodeSet");
        self.0.trailing_zeros() as usize
    }

    /// Largest element; panics when empty.
    #[inline]
    #[track_caller]
    pub fn max(self) -> usize {
        assert!(!self.is_empty(), "max of empty NodeSet");
        63 - self.0.leading_zeros() as usize
    }

    /// Iterate elements in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        BitIter(self.0)
    }

    /// Iterate elements in descending order (DPhyp processes nodes this way).
    pub fn iter_desc(self) -> impl Iterator<Item = usize> {
        BitIterDesc(self.0)
    }

    /// Iterate all non-empty subsets of this set in the canonical
    /// `(sub - 1) & mask` order (ascending as integers).
    pub fn subsets(self) -> SubsetIter {
        SubsetIter {
            mask: self.0,
            sub: 0,
            done: self.0 == 0,
        }
    }
}

struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

struct BitIterDesc(u64);

impl Iterator for BitIterDesc {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = 63 - self.0.leading_zeros() as usize;
        self.0 &= !(1u64 << i);
        Some(i)
    }
}

/// Iterator over the non-empty subsets of a mask.
pub struct SubsetIter {
    mask: u64,
    sub: u64,
    done: bool,
}

impl Iterator for SubsetIter {
    type Item = NodeSet;

    #[inline]
    fn next(&mut self) -> Option<NodeSet> {
        if self.done {
            return None;
        }
        self.sub = self.sub.wrapping_sub(self.mask) & self.mask;
        if self.sub == 0 {
            self.done = true;
            return None;
        }
        Some(NodeSet(self.sub))
    }
}

impl fmt::Display for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for NodeSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        iter.into_iter().fold(NodeSet::EMPTY, NodeSet::insert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let s = NodeSet::single(3).union(NodeSet::single(5));
        assert_eq!(2, s.len());
        assert!(s.contains(3) && s.contains(5) && !s.contains(4));
        assert_eq!(3, s.min());
        assert_eq!(5, s.max());
        assert!(NodeSet::single(3).is_subset_of(s));
        assert!(s.is_disjoint(NodeSet::single(0)));
        assert_eq!(NodeSet::single(5), s.remove(3));
    }

    #[test]
    fn full_and_upto() {
        assert_eq!(NodeSet(0b111), NodeSet::full(3));
        assert_eq!(NodeSet(0b111), NodeSet::upto(2));
        assert_eq!(NodeSet(u64::MAX), NodeSet::full(64));
    }

    #[test]
    fn iteration() {
        let s: NodeSet = [0, 2, 7].into_iter().collect();
        assert_eq!(vec![0, 2, 7], s.iter().collect::<Vec<_>>());
        assert_eq!(vec![7, 2, 0], s.iter_desc().collect::<Vec<_>>());
    }

    #[test]
    fn subset_enumeration() {
        let s: NodeSet = [1, 3].into_iter().collect();
        let subs: Vec<NodeSet> = s.subsets().collect();
        assert_eq!(3, subs.len());
        assert!(subs.contains(&NodeSet::single(1)));
        assert!(subs.contains(&NodeSet::single(3)));
        assert!(subs.contains(&s));
        assert!(NodeSet::EMPTY.subsets().next().is_none());
    }

    #[test]
    fn subset_count_is_2n_minus_1() {
        let s = NodeSet::full(6);
        assert_eq!(63, s.subsets().count());
    }

    #[test]
    fn display() {
        let s: NodeSet = [0, 2].into_iter().collect();
        assert_eq!("{0,2}", s.to_string());
    }
}
