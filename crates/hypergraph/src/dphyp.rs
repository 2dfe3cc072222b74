//! Enumeration of csg-cmp-pairs (Def. 3) following DPhyp
//! (Moerkotte & Neumann: *Dynamic Programming Strikes Back*, SIGMOD 2008).
//!
//! [`enumerate_ccps`] emits every csg-cmp-pair `(S1, S2)` exactly once (up
//! to symmetry) in an order that guarantees all pairs for proper subsets are
//! emitted before pairs producing their union — the invariant dynamic
//! programming needs.

use crate::bitset::NodeSet;
use crate::graph::Hypergraph;
use std::ops::ControlFlow;

/// Enumerate all csg-cmp-pairs of `graph`, invoking `emit(s1, s2)` for each.
///
/// Pairs are emitted unordered: `(s1, s2)` is emitted but `(s2, s1)` is not;
/// the consumer decides about commutativity.
pub fn enumerate_ccps(graph: &Hypergraph, mut emit: impl FnMut(NodeSet, NodeSet)) {
    let _ = try_enumerate_ccps(graph, |s1, s2| {
        emit(s1, s2);
        ControlFlow::Continue(())
    });
}

/// Abortable variant of [`enumerate_ccps`]: the walk stops as soon as
/// `emit` returns [`ControlFlow::Break`], and the break value is
/// propagated. Consumers that cannot afford the full stream — budgeted
/// plan generators, capped counters — use this to bail out mid-walk
/// instead of paying for the (potentially exponential) remainder.
pub fn try_enumerate_ccps(
    graph: &Hypergraph,
    mut emit: impl FnMut(NodeSet, NodeSet) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let n = graph.node_count();
    if n == 0 {
        return ControlFlow::Continue(());
    }
    let mut e = Enumerator {
        graph,
        emit: &mut emit,
    };
    for v in (0..n).rev() {
        let s1 = NodeSet::single(v);
        e.emit_csg(s1)?;
        // B_v: all nodes with index <= v are forbidden for expansion, so
        // each csg is generated from its minimum element exactly once.
        let bv = NodeSet::upto(v);
        e.enumerate_csg_rec(s1, bv)?;
    }
    ControlFlow::Continue(())
}

struct Enumerator<'a, F: FnMut(NodeSet, NodeSet) -> ControlFlow<()>> {
    graph: &'a Hypergraph,
    emit: &'a mut F,
}

impl<F: FnMut(NodeSet, NodeSet) -> ControlFlow<()>> Enumerator<'_, F> {
    /// Grow the connected subgraph `s1` by neighborhood subsets.
    fn enumerate_csg_rec(&mut self, s1: NodeSet, x: NodeSet) -> ControlFlow<()> {
        let neigh = self.graph.neighborhood(s1, x);
        if neigh.is_empty() {
            return ControlFlow::Continue(());
        }
        for sub in neigh.subsets() {
            let grown = s1.union(sub);
            if self.graph.is_connected(grown) {
                self.emit_csg(grown)?;
            }
        }
        let x2 = x.union(neigh);
        for sub in neigh.subsets() {
            self.enumerate_csg_rec(s1.union(sub), x2)?;
        }
        ControlFlow::Continue(())
    }

    /// Find all complements for the connected subgraph `s1`.
    fn emit_csg(&mut self, s1: NodeSet) -> ControlFlow<()> {
        let x = s1.union(NodeSet::upto(s1.min()));
        let neigh = self.graph.neighborhood(s1, x);
        for v in neigh.iter_desc() {
            let s2 = NodeSet::single(v);
            if self.graph.has_connecting_edge(s1, s2) {
                (self.emit)(s1, s2)?;
            }
            // Forbid neighbors with index <= v so each complement is found
            // from its minimal representative only.
            let bv = neigh.intersect(NodeSet::upto(v));
            self.enumerate_cmp_rec(s1, s2, x.union(bv))?;
        }
        ControlFlow::Continue(())
    }

    /// Grow the complement `s2`.
    fn enumerate_cmp_rec(&mut self, s1: NodeSet, s2: NodeSet, x: NodeSet) -> ControlFlow<()> {
        let neigh = self.graph.neighborhood(s2, x);
        if neigh.is_empty() {
            return ControlFlow::Continue(());
        }
        for sub in neigh.subsets() {
            let grown = s2.union(sub);
            if self.graph.is_connected(grown) && self.graph.has_connecting_edge(s1, grown) {
                (self.emit)(s1, grown)?;
            }
        }
        let x2 = x.union(neigh);
        for sub in neigh.subsets() {
            self.enumerate_cmp_rec(s1, s2.union(sub), x2)?;
        }
        ControlFlow::Continue(())
    }
}

/// The csg-cmp-pairs of `graph` layered by union size — a DPsize-style
/// stratification of the DPhyp stream.
///
/// `strata[k]` holds every pair `(S1, S2)` with `|S1 ∪ S2| = k`, in DPhyp
/// emission order (the stratification is stable). Because both components
/// of a pair are strictly smaller than their union and DPhyp emits every
/// pair producing a set before any pair consuming it, all plans a
/// stratum-`k` pair reads live in strata `< k`: pairs **within** one
/// stratum are data-independent and may be evaluated in any order — the
/// monotone-DP structure layered/parallel evaluation exploits.
// perfbench-only: nothing in the workspace calls this any more; the frozen
// benchmark times it as `hypergraph.stratify_us`. Delete with `CcpStrata`
// once perfbench retires that metric (see ROADMAP).
pub fn stratify_ccps(graph: &Hypergraph) -> CcpStrata {
    let n = graph.node_count();
    let mut strata: Vec<Vec<(NodeSet, NodeSet)>> = vec![Vec::new(); n + 1];
    enumerate_ccps(graph, |s1, s2| {
        strata[s1.union(s2).len()].push((s1, s2));
    });
    CcpStrata { strata }
}

/// The result of [`stratify_ccps`]: one pair list per union size.
// perfbench-only, like `stratify_ccps`.
#[derive(Debug, Clone, Default)]
pub struct CcpStrata {
    /// `strata[k]` = pairs whose union covers exactly `k` nodes. Indices
    /// `0` and `1` are always empty (a ccp union has at least two nodes).
    pub strata: Vec<Vec<(NodeSet, NodeSet)>>,
}

/// Count the csg-cmp-pairs of a hypergraph (`#ccp` in the paper's complexity
/// bound `O(2^{2n-1} · #ccp)`).
pub fn count_ccps(graph: &Hypergraph) -> u64 {
    let mut count = 0;
    enumerate_ccps(graph, |_, _| count += 1);
    count
}

/// Count csg-cmp-pairs, giving up once the count exceeds `cap`: returns
/// `Some(count)` when the graph has at most `cap` pairs and `None`
/// otherwise. `#ccp` is exponential on dense graphs (a 30-relation star
/// has billions of pairs), so a budgeted optimizer probing "does exact DP
/// fit my budget?" must not pay for the full count — the capped walk
/// stops after at most `cap + 1` emissions.
pub fn count_ccps_capped(graph: &Hypergraph, cap: u64) -> Option<u64> {
    let mut count = 0u64;
    let flow = try_enumerate_ccps(graph, |_, _| {
        count += 1;
        if count > cap {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    flow.is_continue().then_some(count)
}

/// Brute-force reference: enumerate all unordered pairs of disjoint,
/// connected, edge-connected subsets. Exponential; for tests only.
pub fn count_ccps_bruteforce(graph: &Hypergraph) -> u64 {
    let n = graph.node_count();
    let mut count = 0;
    for s1_bits in 1u64..(1u64 << n) {
        let s1 = NodeSet(s1_bits);
        if !graph.is_connected(s1) {
            continue;
        }
        for s2_bits in (s1_bits + 1)..(1u64 << n) {
            let s2 = NodeSet(s2_bits);
            if !s1.is_disjoint(s2) || !graph.is_connected(s2) {
                continue;
            }
            if graph.has_connecting_edge(s1, s2) {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Hyperedge;
    // Dogfood the in-tree hasher: these dedup sets are NodeSet/word-pair
    // keyed, exactly the shape `fxhash` is built for.
    use crate::FxHashSet;

    fn chain(n: usize) -> Hypergraph {
        let mut g = Hypergraph::new(n);
        for i in 0..n - 1 {
            g.add_simple(i, i + 1, i);
        }
        g
    }

    fn star(n: usize) -> Hypergraph {
        let mut g = Hypergraph::new(n);
        for i in 1..n {
            g.add_simple(0, i, i - 1);
        }
        g
    }

    fn clique(n: usize) -> Hypergraph {
        let mut g = Hypergraph::new(n);
        let mut label = 0;
        for i in 0..n {
            for j in i + 1..n {
                g.add_simple(i, j, label);
                label += 1;
            }
        }
        g
    }

    fn cycle(n: usize) -> Hypergraph {
        let mut g = chain(n);
        g.add_simple(n - 1, 0, n - 1);
        g
    }

    #[test]
    fn chain_formula() {
        // #ccp for a chain of n relations: (n^3 - n) / 6.
        for n in 2..=10 {
            let expect = ((n * n * n - n) / 6) as u64;
            assert_eq!(expect, count_ccps(&chain(n)), "chain n={n}");
        }
    }

    #[test]
    fn star_formula() {
        // #ccp for a star: (n - 1) * 2^(n - 2).
        for n in 2..=10 {
            let expect = (n as u64 - 1) * (1u64 << (n - 2));
            assert_eq!(expect, count_ccps(&star(n)), "star n={n}");
        }
    }

    #[test]
    fn clique_formula() {
        // #ccp for a clique: (3^n - 2^(n+1) + 1) / 2.
        for n in 2..=8 {
            let expect = (3u64.pow(n as u32) - (1u64 << (n + 1))).div_ceil(2);
            assert_eq!(expect, count_ccps(&clique(n)), "clique n={n}");
        }
    }

    #[test]
    fn matches_bruteforce_on_cycles() {
        for n in 3..=8 {
            assert_eq!(
                count_ccps_bruteforce(&cycle(n)),
                count_ccps(&cycle(n)),
                "cycle n={n}"
            );
        }
    }

    #[test]
    fn matches_bruteforce_with_hyperedges() {
        // A hypergraph with a complex edge forcing {1,2} to stay together.
        let mut g = Hypergraph::new(4);
        g.add_simple(0, 1, 0);
        g.add_simple(1, 2, 1);
        g.add_edge(Hyperedge::new(
            NodeSet::from_iter([1, 2]),
            NodeSet::from_iter([3]),
            2,
        ));
        assert_eq!(count_ccps_bruteforce(&g), count_ccps(&g));
    }

    #[test]
    fn no_duplicates_and_valid_pairs() {
        let g = cycle(6);
        let mut seen = FxHashSet::default();
        enumerate_ccps(&g, |s1, s2| {
            assert!(s1.is_disjoint(s2));
            assert!(g.is_connected(s1), "{s1} not connected");
            assert!(g.is_connected(s2), "{s2} not connected");
            assert!(g.has_connecting_edge(s1, s2));
            let key = (s1.0.min(s2.0), s1.0.max(s2.0));
            assert!(seen.insert(key), "duplicate ccp ({s1},{s2})");
        });
    }

    #[test]
    fn emission_order_supports_dp() {
        // When (s1, s2) is emitted, every ccp whose union is a proper
        // subset of s1 ∪ s2 must already have been emitted. We check the
        // weaker DP-sufficient property: unions are emitted in
        // non-decreasing... no — we check directly that for non-singleton
        // s1/s2 some earlier pair produced exactly that set.
        let g = clique(5);
        let mut built: FxHashSet<u64> = (0..5).map(|i| 1u64 << i).collect();
        enumerate_ccps(&g, |s1, s2| {
            assert!(built.contains(&s1.0), "s1={s1} not built yet");
            assert!(built.contains(&s2.0), "s2={s2} not built yet");
            built.insert(s1.union(s2).0);
        });
    }

    #[test]
    fn empty_and_single_node_graphs() {
        assert_eq!(0, count_ccps(&Hypergraph::new(0)));
        assert_eq!(0, count_ccps(&Hypergraph::new(1)));
    }

    #[test]
    fn capped_count_matches_uncapped_when_under_cap() {
        for g in [chain(8), star(8), clique(6), cycle(7)] {
            let exact = count_ccps(&g);
            assert_eq!(Some(exact), count_ccps_capped(&g, exact));
            assert_eq!(Some(exact), count_ccps_capped(&g, exact + 100));
        }
    }

    #[test]
    fn capped_count_gives_up_above_cap() {
        let g = star(10); // 9 * 2^8 = 2304 pairs
        assert_eq!(None, count_ccps_capped(&g, 100));
        assert_eq!(None, count_ccps_capped(&g, 2303));
        assert_eq!(Some(2304), count_ccps_capped(&g, 2304));
    }

    #[test]
    fn try_enumerate_stops_at_break() {
        // The walk must visit no more than cap + 1 pairs before bailing:
        // this is what makes budget probes affordable on dense graphs.
        let g = clique(8);
        let mut visited = 0u64;
        let flow = try_enumerate_ccps(&g, |_, _| {
            visited += 1;
            if visited > 10 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(flow.is_break());
        assert_eq!(11, visited);
    }

    #[test]
    fn strata_partition_the_ccp_stream_by_union_size() {
        for g in [chain(7), star(6), clique(5), cycle(6)] {
            let s = stratify_ccps(&g);
            let pairs: usize = s.strata.iter().map(Vec::len).sum();
            assert_eq!(count_ccps(&g), pairs as u64);
            assert_eq!(g.node_count() + 1, s.strata.len());
            assert!(s.strata[0].is_empty() && s.strata[1].is_empty());
            for (k, stratum) in s.strata.iter().enumerate() {
                for &(s1, s2) in stratum {
                    assert_eq!(k, s1.union(s2).len(), "pair ({s1},{s2}) in stratum {k}");
                }
            }
        }
    }

    #[test]
    fn stratification_is_stable() {
        // Within a stratum, pairs keep their DPhyp emission order — the
        // property that makes layered replay bit-identical to streaming.
        let g = cycle(6);
        let s = stratify_ccps(&g);
        let mut streamed: Vec<Vec<(NodeSet, NodeSet)>> = vec![Vec::new(); 7];
        enumerate_ccps(&g, |s1, s2| streamed[s1.union(s2).len()].push((s1, s2)));
        assert_eq!(streamed, s.strata);
    }

    #[test]
    fn strata_respect_dp_dependencies() {
        // Every component of a stratum-k pair is a singleton or was the
        // union of some pair in a strictly smaller stratum: a layer only
        // reads plan classes frozen by earlier layers.
        let g = clique(5);
        let s = stratify_ccps(&g);
        let mut built: FxHashSet<u64> = (0..5).map(|i| 1u64 << i).collect();
        for stratum in &s.strata {
            for &(s1, s2) in stratum {
                assert!(built.contains(&s1.0), "{s1} read before built");
                assert!(built.contains(&s2.0), "{s2} read before built");
            }
            // Unions become readable only after the whole layer.
            for &(s1, s2) in stratum {
                built.insert(s1.union(s2).0);
            }
        }
    }
}
