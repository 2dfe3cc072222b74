//! DPccp: csg-cmp-pair enumeration for **simple** query graphs
//! (Moerkotte & Neumann, *Analysis of two existing and one new dynamic
//! programming algorithm for the generation of optimal bushy join trees
//! without cross products*, VLDB 2006 — cited as \[8\]).
//!
//! This is an independent implementation (adjacency sets instead of
//! hyperedges) used to cross-validate the DPhyp enumerator: on a simple
//! graph both must emit exactly the same pairs.

use crate::bitset::{NodeSet, MAX_RELATIONS};

/// A simple undirected graph over `n` nodes, as adjacency sets.
#[derive(Debug, Clone)]
pub struct SimpleGraph {
    adj: Vec<NodeSet>,
}

impl SimpleGraph {
    pub fn new(n: usize) -> Self {
        assert!(n <= MAX_RELATIONS);
        SimpleGraph {
            adj: vec![NodeSet::EMPTY; n],
        }
    }

    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert_ne!(a, b);
        self.adj[a] = self.adj[a].insert(b);
        self.adj[b] = self.adj[b].insert(a);
    }

    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Neighborhood of a set: all adjacent nodes outside the set.
    pub fn neighborhood(&self, s: NodeSet) -> NodeSet {
        let mut n = NodeSet::EMPTY;
        for v in s.iter() {
            n = n.union(self.adj[v]);
        }
        n.difference(s)
    }

    /// Is there an edge between the two (disjoint) sets?
    pub fn connects(&self, s1: NodeSet, s2: NodeSet) -> bool {
        self.neighborhood(s1).intersects(s2)
    }
}

/// Enumerate all csg-cmp-pairs of a simple graph, emitting each unordered
/// pair exactly once.
pub fn enumerate_ccps_simple(g: &SimpleGraph, mut emit: impl FnMut(NodeSet, NodeSet)) {
    let n = g.node_count();
    for v in (0..n).rev() {
        let s1 = NodeSet::single(v);
        emit_cmp(g, s1, &mut emit);
        enumerate_csg_rec(g, s1, NodeSet::upto(v), &mut emit);
    }
}

fn enumerate_csg_rec(
    g: &SimpleGraph,
    s: NodeSet,
    x: NodeSet,
    emit: &mut impl FnMut(NodeSet, NodeSet),
) {
    let neigh = g.neighborhood(s).difference(x);
    if neigh.is_empty() {
        return;
    }
    for sub in neigh.subsets() {
        // Every neighborhood subset keeps the grown set connected in a
        // simple graph: each added node touches `s` directly.
        emit_cmp(g, s.union(sub), emit);
    }
    let x2 = x.union(neigh);
    for sub in neigh.subsets() {
        enumerate_csg_rec(g, s.union(sub), x2, emit);
    }
}

/// Enumerate the complements of a csg `s1`.
fn emit_cmp(g: &SimpleGraph, s1: NodeSet, emit: &mut impl FnMut(NodeSet, NodeSet)) {
    let x = s1.union(NodeSet::upto(s1.min()));
    let neigh = g.neighborhood(s1).difference(x);
    for v in neigh.iter_desc() {
        let s2 = NodeSet::single(v);
        emit(s1, s2);
        // Restrict to neighbors above v so every complement is reached
        // from its minimal element exactly once.
        let below: NodeSet = neigh.iter().filter(|&w| w <= v).collect();
        enumerate_cmp_rec(g, s1, s2, x.union(below), emit);
    }
}

fn enumerate_cmp_rec(
    g: &SimpleGraph,
    s1: NodeSet,
    s2: NodeSet,
    x: NodeSet,
    emit: &mut impl FnMut(NodeSet, NodeSet),
) {
    let neigh = g.neighborhood(s2).difference(x);
    if neigh.is_empty() {
        return;
    }
    for sub in neigh.subsets() {
        let grown = s2.union(sub);
        if g.connects(s1, grown) {
            emit(s1, grown);
        }
    }
    let x2 = x.union(neigh);
    for sub in neigh.subsets() {
        enumerate_cmp_rec(g, s1, s2.union(sub), x2, emit);
    }
}

/// Count the csg-cmp-pairs of a simple graph.
pub fn count_ccps_simple(g: &SimpleGraph) -> u64 {
    let mut count = 0;
    enumerate_ccps_simple(g, |_, _| count += 1);
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dphyp::count_ccps;
    use crate::graph::Hypergraph;
    // Dogfood the in-tree hasher: these dedup sets are NodeSet/word-pair
    // keyed, exactly the shape `fxhash` is built for.
    use crate::FxHashSet;

    /// Build the same topology as both a simple graph and a hypergraph.
    fn both(n: usize, edges: &[(usize, usize)]) -> (SimpleGraph, Hypergraph) {
        let mut s = SimpleGraph::new(n);
        let mut h = Hypergraph::new(n);
        for (i, &(a, b)) in edges.iter().enumerate() {
            s.add_edge(a, b);
            h.add_simple(a, b, i);
        }
        (s, h)
    }

    #[test]
    fn chain_star_clique_formulas() {
        for n in 2..=10usize {
            let chain: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            let (s, _) = both(n, &chain);
            assert_eq!(
                ((n * n * n - n) / 6) as u64,
                count_ccps_simple(&s),
                "chain {n}"
            );

            let star: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
            let (s, _) = both(n, &star);
            assert_eq!((n as u64 - 1) << (n - 2), count_ccps_simple(&s), "star {n}");
        }
        for n in 2..=8usize {
            let clique: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .collect();
            let (s, _) = both(n, &clique);
            let expect = (3u64.pow(n as u32) - (1u64 << (n + 1))).div_ceil(2);
            assert_eq!(expect, count_ccps_simple(&s), "clique {n}");
        }
    }

    #[test]
    fn agrees_with_dphyp_on_random_graphs() {
        // Deterministic pseudo-random graphs: both enumerators must emit
        // exactly the same set of pairs.
        let mut state = 0x2545F491_u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in 3..=8usize {
            for _ in 0..10 {
                // Random spanning tree + extra edges.
                let mut edges: Vec<(usize, usize)> =
                    (1..n).map(|v| (v, (rand() % v as u64) as usize)).collect();
                for _ in 0..(rand() % 4) {
                    let a = (rand() % n as u64) as usize;
                    let b = (rand() % n as u64) as usize;
                    if a != b && !edges.contains(&(a, b)) && !edges.contains(&(b, a)) {
                        edges.push((a, b));
                    }
                }
                let (s, h) = both(n, &edges);
                let mut pairs_simple = FxHashSet::default();
                enumerate_ccps_simple(&s, |a, b| {
                    pairs_simple.insert((a.0.min(b.0), a.0.max(b.0)));
                });
                let mut pairs_hyp = FxHashSet::default();
                crate::dphyp::enumerate_ccps(&h, |a, b| {
                    pairs_hyp.insert((a.0.min(b.0), a.0.max(b.0)));
                });
                assert_eq!(pairs_hyp, pairs_simple, "n={n} edges={edges:?}");
                assert_eq!(count_ccps(&h), count_ccps_simple(&s));
            }
        }
    }

    #[test]
    fn no_duplicate_emissions() {
        let mut g = SimpleGraph::new(6);
        for i in 0..5 {
            g.add_edge(i, i + 1);
        }
        g.add_edge(5, 0); // cycle
        let mut seen = FxHashSet::default();
        enumerate_ccps_simple(&g, |a, b| {
            assert!(a.is_disjoint(b));
            assert!(seen.insert((a.0.min(b.0), a.0.max(b.0))), "dup ({a},{b})");
        });
    }

    #[test]
    fn neighborhood_and_connects() {
        let mut g = SimpleGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert_eq!(
            NodeSet::from_iter([0, 2]),
            g.neighborhood(NodeSet::single(1))
        );
        assert!(g.connects(NodeSet::single(0), NodeSet::single(1)));
        assert!(!g.connects(NodeSet::single(0), NodeSet::single(3)));
    }
}
