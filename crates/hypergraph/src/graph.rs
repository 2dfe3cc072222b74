//! Query hypergraphs (Def. 3 context).

use crate::bitset::{NodeSet, MAX_RELATIONS};

/// A hyperedge `(u, v)`: two disjoint, non-empty hypernodes.
///
/// For simple query graphs both sides are singletons; the conflict detector
/// produces complex hypernodes (`L-TES`, `R-TES`) to encode reordering
/// constraints. `label` identifies the originating operator/predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hyperedge {
    pub left: NodeSet,
    pub right: NodeSet,
    pub label: usize,
}

impl Hyperedge {
    pub fn new(left: NodeSet, right: NodeSet, label: usize) -> Self {
        debug_assert!(!left.is_empty() && !right.is_empty());
        debug_assert!(left.is_disjoint(right), "hyperedge sides must be disjoint");
        Hyperedge { left, right, label }
    }

    /// Simple edge between two single nodes.
    pub fn simple(a: usize, b: usize, label: usize) -> Self {
        Hyperedge::new(NodeSet::single(a), NodeSet::single(b), label)
    }

    /// True when this edge connects `s1` and `s2` (one side inside each).
    #[inline]
    pub fn connects(&self, s1: NodeSet, s2: NodeSet) -> bool {
        (self.left.is_subset_of(s1) && self.right.is_subset_of(s2))
            || (self.left.is_subset_of(s2) && self.right.is_subset_of(s1))
    }
}

/// A query hypergraph `H = (V, E)`.
///
/// Besides the edge list, the graph maintains a word-batched adjacency
/// index: per-node `u64` neighbor masks for the simple edges (the common
/// case) and the indices of the complex hyperedges (both-sides-singleton
/// fails). The enumeration hot paths — [`Hypergraph::neighborhood`],
/// [`Hypergraph::has_connecting_edge`], [`Hypergraph::component_of`] —
/// then run word-at-a-time over the masks instead of scanning the whole
/// edge list per query.
#[derive(Debug, Clone, Default)]
pub struct Hypergraph {
    n: usize,
    edges: Vec<Hyperedge>,
    /// `simple_adj[v]` = bitmask of nodes connected to `v` by a *simple*
    /// edge (both sides singletons). Symmetric by construction.
    simple_adj: Vec<u64>,
    /// Indices into `edges` of the non-simple (complex) hyperedges.
    complex: Vec<usize>,
}

impl Hypergraph {
    pub fn new(n: usize) -> Self {
        assert!(
            n <= MAX_RELATIONS,
            "at most {MAX_RELATIONS} relations supported"
        );
        Hypergraph {
            n,
            edges: Vec::new(),
            simple_adj: vec![0; n],
            complex: Vec::new(),
        }
    }

    pub fn add_edge(&mut self, e: Hyperedge) {
        debug_assert!(e.left.union(e.right).is_subset_of(NodeSet::full(self.n)));
        if e.left.len() == 1 && e.right.len() == 1 {
            self.simple_adj[e.left.min()] |= e.right.0;
            self.simple_adj[e.right.min()] |= e.left.0;
        } else {
            self.complex.push(self.edges.len());
        }
        self.edges.push(e);
    }

    /// Union of the simple-edge neighbor masks over all nodes of `s`.
    #[inline]
    fn simple_union(&self, s: NodeSet) -> u64 {
        let mut mask = 0u64;
        let mut bits = s.0;
        while bits != 0 {
            mask |= self.simple_adj[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        mask
    }

    pub fn add_simple(&mut self, a: usize, b: usize, label: usize) {
        self.add_edge(Hyperedge::simple(a, b, label));
    }

    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn edges(&self) -> &[Hyperedge] {
        &self.edges
    }

    /// Edges connecting `s1` to `s2`.
    pub fn connecting_edges(&self, s1: NodeSet, s2: NodeSet) -> impl Iterator<Item = &Hyperedge> {
        self.edges.iter().filter(move |e| e.connects(s1, s2))
    }

    /// True when some edge connects `s1` and `s2` (condition 3 of Def. 3).
    pub fn has_connecting_edge(&self, s1: NodeSet, s2: NodeSet) -> bool {
        // Simple edges word-at-a-time: any neighbor of an `s1` node inside
        // `s2` is a connecting simple edge (adjacency is symmetric, so one
        // direction covers both orientations).
        if self.simple_union(s1) & s2.0 != 0 {
            return true;
        }
        self.complex.iter().any(|&i| self.edges[i].connects(s1, s2))
    }

    /// Neighborhood `N(S, X)` for DPhyp: the set of *representative* nodes
    /// (minimum element of each reachable hypernode) adjacent to `S`,
    /// excluding anything in `S` or the forbidden set `X`.
    ///
    /// Simple edges are resolved as one OR over the per-node adjacency
    /// masks followed by a single AND-NOT of the forbidden word; only the
    /// complex hyperedges still walk the edge list.
    pub fn neighborhood(&self, s: NodeSet, x: NodeSet) -> NodeSet {
        let forbidden = s.union(x);
        let mut n = NodeSet(self.simple_union(s) & !forbidden.0);
        for &i in &self.complex {
            let e = &self.edges[i];
            if e.left.is_subset_of(s) && e.right.is_disjoint(forbidden) {
                n = n.insert(e.right.min());
            } else if e.right.is_subset_of(s) && e.left.is_disjoint(forbidden) {
                n = n.insert(e.left.min());
            }
        }
        n
    }

    /// The maximal connected component of `s` containing `s.min()`:
    /// fixpoint closure over the hyperedges fully contained in `s` (a
    /// hyperedge is traversable once one side lies inside the component
    /// and both sides lie within `s`).
    pub fn component_of(&self, s: NodeSet) -> NodeSet {
        if s.is_empty() {
            return NodeSet::EMPTY;
        }
        let within = s.0;
        let mut comp = NodeSet::single(s.min()).0;
        loop {
            // Simple-edge closure: frontier BFS over the adjacency masks,
            // restricted to `s`. (`comp ⊆ s` throughout, so a reached
            // neighbor inside `s` always has its whole edge inside `s`.)
            let mut frontier = comp;
            while frontier != 0 {
                let next = self.simple_union(NodeSet(frontier)) & within & !comp;
                comp |= next;
                frontier = next;
            }
            // One complex-edge pass; a growth re-enters the closure loop.
            let mut grown = comp;
            for &i in &self.complex {
                let e = &self.edges[i];
                if (e.left.0 | e.right.0) & !within != 0 {
                    continue;
                }
                if e.left.0 & !grown == 0 {
                    grown |= e.right.0;
                }
                if e.right.0 & !grown == 0 {
                    grown |= e.left.0;
                }
            }
            if grown == comp {
                return NodeSet(comp);
            }
            comp = grown;
        }
    }

    /// True when `s` induces a connected subgraph.
    ///
    /// A hyperedge `(u, v)` can be traversed once one side is fully inside
    /// the current component and the other side lies within `s`; fixpoint
    /// closure from the minimum element.
    pub fn is_connected(&self, s: NodeSet) -> bool {
        if s.is_empty() {
            return false;
        }
        if s.len() == 1 {
            return true;
        }
        self.component_of(s) == s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(bits: &[usize]) -> NodeSet {
        bits.iter().copied().collect()
    }

    #[test]
    fn chain_connectivity() {
        // 0 - 1 - 2
        let mut g = Hypergraph::new(3);
        g.add_simple(0, 1, 0);
        g.add_simple(1, 2, 1);
        assert!(g.is_connected(ns(&[0, 1])));
        assert!(g.is_connected(ns(&[0, 1, 2])));
        assert!(!g.is_connected(ns(&[0, 2])));
        assert!(g.is_connected(ns(&[2])));
        assert!(!g.is_connected(NodeSet::EMPTY));
    }

    #[test]
    fn hyperedge_requires_full_side() {
        // Edge ({0,1}, {2}): {0,2} is not connected because side {0,1} is
        // not fully contained.
        let mut g = Hypergraph::new(3);
        g.add_edge(Hyperedge::new(ns(&[0, 1]), ns(&[2]), 0));
        g.add_simple(0, 1, 1);
        assert!(!g.is_connected(ns(&[0, 2])));
        assert!(g.is_connected(ns(&[0, 1, 2])));
    }

    #[test]
    fn neighborhood_representatives() {
        let mut g = Hypergraph::new(4);
        g.add_simple(0, 1, 0);
        g.add_edge(Hyperedge::new(ns(&[0]), ns(&[2, 3]), 1));
        // From {0}: neighbors are 1 and the representative min{2,3} = 2.
        assert_eq!(ns(&[1, 2]), g.neighborhood(ns(&[0]), NodeSet::EMPTY));
        // Forbidding 2 removes the hyperedge's representative.
        assert_eq!(ns(&[1]), g.neighborhood(ns(&[0]), ns(&[2])));
    }

    #[test]
    fn components_partition_the_node_set() {
        // Two components: 0-1-2 chain and 3-4 edge.
        let mut g = Hypergraph::new(5);
        g.add_simple(0, 1, 0);
        g.add_simple(1, 2, 1);
        g.add_simple(3, 4, 2);
        assert_eq!(ns(&[0, 1, 2]), g.component_of(NodeSet::full(5)));
        // Restricting the node set splits the chain.
        assert_eq!(ns(&[0]), g.component_of(ns(&[0, 2, 3, 4])));
        assert_eq!(ns(&[3, 4]), g.component_of(ns(&[3, 4])));
        assert!(g.component_of(NodeSet::EMPTY).is_empty());
    }

    /// Reference implementation of `neighborhood`: the pre-index per-edge
    /// linear scan. The word-batched index must agree on every (s, x).
    fn naive_neighborhood(g: &Hypergraph, s: NodeSet, x: NodeSet) -> NodeSet {
        let forbidden = s.union(x);
        let mut n = NodeSet::EMPTY;
        for e in g.edges() {
            if e.left.is_subset_of(s) && e.right.is_disjoint(forbidden) {
                n = n.insert(e.right.min());
            } else if e.right.is_subset_of(s) && e.left.is_disjoint(forbidden) {
                n = n.insert(e.left.min());
            }
        }
        n
    }

    #[test]
    fn word_batched_neighborhood_matches_edge_scan() {
        // A 6-node graph mixing simple edges with two complex hyperedges,
        // exercised over every (s, x ⊆ complement) pair.
        let mut g = Hypergraph::new(6);
        g.add_simple(0, 1, 0);
        g.add_simple(1, 2, 1);
        g.add_simple(3, 4, 2);
        g.add_edge(Hyperedge::new(ns(&[1, 2]), ns(&[3]), 3));
        g.add_edge(Hyperedge::new(ns(&[0]), ns(&[4, 5]), 4));
        for s_bits in 1u64..(1 << 6) {
            let s = NodeSet(s_bits);
            for x in NodeSet(!s_bits & ((1 << 6) - 1)).subsets() {
                assert_eq!(
                    naive_neighborhood(&g, s, x),
                    g.neighborhood(s, x),
                    "neighborhood diverges at s={s} x={x}"
                );
                for s2 in x.subsets() {
                    let naive = g.edges().iter().any(|e| e.connects(s, s2));
                    assert_eq!(
                        naive,
                        g.has_connecting_edge(s, s2),
                        "connectivity diverges at s1={s} s2={s2}"
                    );
                }
            }
        }
        // A chain(16), a clique(14) and a cycle(16) with complex edges
        // {i, i+1} → {i+3}: too large for the sweep, so probed as DPhyp
        // expands, with a contiguous run `s` and the prefix below it as `x`.
        let mut chain = Hypergraph::new(16);
        for i in 0..15 {
            chain.add_simple(i, i + 1, i);
        }
        let mut clique = Hypergraph::new(14);
        for i in 0..14 {
            for j in i + 1..14 {
                clique.add_simple(i, j, i * 14 + j);
            }
        }
        let mut cycle = Hypergraph::new(16);
        for i in 0..16 {
            cycle.add_simple(i, (i + 1) % 16, i);
        }
        for (k, i) in (0..12).step_by(3).enumerate() {
            cycle.add_edge(Hyperedge::new(ns(&[i, i + 1]), ns(&[i + 3]), 16 + k));
        }
        for g in [chain, clique, cycle] {
            let n = g.node_count();
            for len in 1..=n {
                for start in 0..=n - len {
                    let (s, x) = (
                        NodeSet(((1 << len) - 1) << start),
                        NodeSet((1 << start) - 1),
                    );
                    assert_eq!(
                        naive_neighborhood(&g, s, x),
                        g.neighborhood(s, x),
                        "neighborhood diverges on {n} nodes at s={s} x={x}"
                    );
                }
            }
        }
    }

    #[test]
    fn connecting_edges() {
        let mut g = Hypergraph::new(3);
        g.add_simple(0, 1, 7);
        g.add_simple(1, 2, 8);
        let found: Vec<usize> = g
            .connecting_edges(ns(&[0]), ns(&[1, 2]))
            .map(|e| e.label)
            .collect();
        assert_eq!(vec![7], found);
        assert!(g.has_connecting_edge(ns(&[0, 1]), ns(&[2])));
        assert!(!g.has_connecting_edge(ns(&[0]), ns(&[2])));
    }
}
