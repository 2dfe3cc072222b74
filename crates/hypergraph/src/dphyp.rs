//! Enumeration of csg-cmp-pairs (Def. 3) following DPhyp
//! (Moerkotte & Neumann: *Dynamic Programming Strikes Back*, SIGMOD 2008).
//!
//! [`try_enumerate_ccps`] hands its [`DpTable`] every csg-cmp-pair exactly
//! once (up to symmetry), all pairs producing a set before any pair reading
//! it, and grows a side only into a set the table holds (`dpTable[S] ≠ ∅`).
//! [`enumerate_ccps`] and the counts walk the graph alone: their table holds
//! the unions they have emitted, the *joinable* sets (one relation, or two
//! joinable halves that an edge connects).

use crate::bitset::{NodeSet, MAX_RELATIONS};
use crate::fxhash::FxHashSet;
use crate::graph::Hypergraph;
use std::ops::ControlFlow;

/// What a DPhyp walk ([`try_enumerate_ccps`]) asks of the DP table it fills.
pub trait DpTable {
    /// Whether the table holds `s`, a set of two or more nodes (every single
    /// node is held). Asked once every pair producing `s` has been taken.
    fn holds(&self, s: NodeSet) -> bool;

    /// Take the csg-cmp-pair `(s1, s2)`; [`ControlFlow::Break`] stops the walk.
    fn pair(&mut self, s1: NodeSet, s2: NodeSet) -> ControlFlow<()>;
}

/// The table of a walk over the graph alone: the unions it has emitted,
/// next to what takes each pair.
impl<F: FnMut(NodeSet, NodeSet) -> ControlFlow<()>> DpTable for (FxHashSet<NodeSet>, F) {
    fn holds(&self, s: NodeSet) -> bool {
        self.0.contains(&s)
    }

    fn pair(&mut self, s1: NodeSet, s2: NodeSet) -> ControlFlow<()> {
        self.0.insert(s1.union(s2));
        (self.1)(s1, s2)
    }
}

/// Enumerate all csg-cmp-pairs of `graph`, invoking `emit(s1, s2)` for each.
///
/// Pairs are emitted unordered: `(s1, s2)` is emitted but `(s2, s1)` is not;
/// the consumer decides about commutativity.
pub fn enumerate_ccps(graph: &Hypergraph, mut emit: impl FnMut(NodeSet, NodeSet)) {
    let emit = |s1, s2| {
        emit(s1, s2);
        ControlFlow::Continue(())
    };
    let _ = try_enumerate_ccps(graph, &mut (FxHashSet::default(), emit));
}

/// The DPhyp walk over `table`: hand it every csg-cmp-pair of `graph` whose
/// sides it holds, in DP order, up to the first [`ControlFlow::Break`],
/// which is propagated. Budgeted plan generators and capped counters break
/// instead of paying for the (potentially exponential) remainder.
pub fn try_enumerate_ccps(graph: &Hypergraph, table: &mut impl DpTable) -> ControlFlow<()> {
    let n = graph.node_count();
    if n == 0 {
        return ControlFlow::Continue(());
    }
    let mut e = Enumerator { graph, table };
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

struct Enumerator<'a, T> {
    graph: &'a Hypergraph,
    table: &'a mut T,
}

impl<T: DpTable> Enumerator<'_, T> {
    /// Grow the held set `s1` by neighborhood subsets.
    fn enumerate_csg_rec(&mut self, s1: NodeSet, x: NodeSet) -> ControlFlow<()> {
        let neigh = self.graph.neighborhood(s1, x);
        if neigh.is_empty() {
            return ControlFlow::Continue(());
        }
        for sub in neigh.subsets() {
            let grown = s1.union(sub);
            if self.table.holds(grown) {
                self.emit_csg(grown)?;
            }
        }
        let x2 = x.union(neigh);
        for sub in neigh.subsets() {
            self.enumerate_csg_rec(s1.union(sub), x2)?;
        }
        ControlFlow::Continue(())
    }

    /// Find all complements for the held set `s1`.
    fn emit_csg(&mut self, s1: NodeSet) -> ControlFlow<()> {
        let x = s1.union(NodeSet::upto(s1.min()));
        let neigh = self.graph.neighborhood(s1, x);
        for v in neigh.iter_desc() {
            let s2 = NodeSet::single(v);
            if self.graph.has_connecting_edge(s1, s2) {
                self.table.pair(s1, s2)?;
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
            if self.table.holds(grown) && self.graph.has_connecting_edge(s1, grown) {
                self.table.pair(s1, grown)?;
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
/// bound `O(2^{2n-1} · #ccp)`): the pairs of joinable sets that an edge
/// connects.
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
/// stops after at most `cap + 1` emissions, and a graph whose
/// [`ccp_lower_bound`] already exceeds `cap` is refused without a walk.
pub fn count_ccps_capped(graph: &Hypergraph, cap: u64) -> Option<u64> {
    let floor = ccp_lower_bound(graph);
    if floor > cap {
        return None;
    }
    let mut count = 0u64;
    let emit = |_, _| {
        count += 1;
        if count > cap {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };
    let flow = try_enumerate_ccps(graph, &mut (FxHashSet::default(), emit));
    // A finished walk counted at least the bound; an aborted one passed
    // `cap`, which is at least the bound.
    debug_assert!(
        count >= floor,
        "{count} pairs walked under the bound {floor}"
    );
    flow.is_continue().then_some(count)
}

/// A lower bound on the csg-cmp-pairs of `graph`, in `O(n)`: the pairs a
/// spanning forest of its simple edges guarantees.
///
/// Every subtree `S` of the forest (a connected node set of one of its
/// trees) is split by each of its `|S| − 1` tree edges into two subtrees
/// that the edge joins: a csg-cmp-pair of the hypergraph, since a subtree
/// is joinable (split it at a tree edge, and its halves again). A pair
/// names its subtree (the union) and its edge (the one tree edge that
/// crosses it), so the bound is `Σ_S (|S| − 1)` over the forest's subtrees. The forest is the
/// breadth-first one from each component's smallest node. The bound is
/// exact on a tree (a star of `m` leaves: `m·2^(m−1)`; a path of `n` nodes:
/// `C(n+1, 3)`), and saturates instead of overflowing.
pub fn ccp_lower_bound(graph: &Hypergraph) -> u64 {
    let n = graph.node_count();
    // The forest: nodes in breadth-first order, and each one's parent
    // (`n` for a root).
    let mut order = [0usize; MAX_RELATIONS];
    let mut parent = [n; MAX_RELATIONS];
    let (mut seen, mut len) = (NodeSet::EMPTY, 0);
    for root in 0..n {
        if seen.contains(root) {
            continue;
        }
        seen = seen.insert(root);
        order[len] = root;
        let mut head = len;
        len += 1;
        while head < len {
            let v = order[head];
            head += 1;
            let fresh = graph.simple_neighbors(v).difference(seen);
            seen = seen.union(fresh);
            for c in fresh.iter() {
                parent[c] = v;
                order[len] = c;
                len += 1;
            }
        }
    }
    // Children before parents: per node, the subtrees whose topmost node it
    // is, and the tree edges they hold in all. A child's subtrees either
    // stay out of its parent's or hang below it by one more edge.
    let mut subtrees = [1u64; MAX_RELATIONS];
    let mut edges = [0u64; MAX_RELATIONS];
    let mut bound = 0u64;
    for &v in order[..n].iter().rev() {
        bound = bound.saturating_add(edges[v]);
        let p = parent[v];
        if p < n {
            let grow = subtrees[v].saturating_add(1);
            edges[p] = edges[p]
                .saturating_mul(grow)
                .saturating_add(subtrees[p].saturating_mul(edges[v].saturating_add(subtrees[v])));
            subtrees[p] = subtrees[p].saturating_mul(grow);
        }
    }
    bound
}

/// Brute-force reference: count the csg-cmp-pairs by the definition, one
/// per split of a joinable set into two joinable halves that an edge
/// connects. A half is a smaller number than its set, so one ascending pass
/// over all `2^n` sets decides each before it is read. For tests only.
pub fn count_ccps_bruteforce(graph: &Hypergraph) -> u64 {
    let n = graph.node_count();
    let mut joinable = vec![false; 1 << n];
    for v in 0..n {
        joinable[1 << v] = true;
    }
    let mut count = 0;
    for s in (1u64..(1u64 << n)).map(NodeSet) {
        // Each unordered split once: `s2` is the half without `s.min()`.
        for s2 in s.difference(NodeSet::single(s.min())).subsets() {
            let s1 = s.difference(s2);
            let halves = joinable[s1.0 as usize] && joinable[s2.0 as usize];
            if halves && graph.has_connecting_edge(s1, s2) {
                joinable[s.0 as usize] = true;
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

    /// Check the stream of `g`: each pair is disjoint, an edge connects it,
    /// it comes once (up to symmetry), each side is one relation or the
    /// union of an earlier pair, and no union is produced after a pair has
    /// read it. Returns the number of pairs.
    fn check_pairs(g: &Hypergraph) -> u64 {
        let mut seen = FxHashSet::default();
        let (mut unions, mut read) = (FxHashSet::default(), FxHashSet::default());
        enumerate_ccps(g, |s1, s2| {
            assert!(s1.is_disjoint(s2), "({s1},{s2}) overlap in {g:?}");
            assert!(g.has_connecting_edge(s1, s2), "no edge joins ({s1},{s2})");
            for side in [s1, s2] {
                let held = side.len() == 1 || unions.contains(&side);
                assert!(held, "{side} read before a pair built it in {g:?}");
                read.insert(side);
            }
            let key = (s1.0.min(s2.0), s1.0.max(s2.0));
            assert!(seen.insert(key), "duplicate ccp ({s1},{s2}) in {g:?}");
            let s = s1.union(s2);
            assert!(
                !read.contains(&s),
                "{s} produced after it was read in {g:?}"
            );
            unions.insert(s);
        });
        seen.len() as u64
    }

    #[test]
    fn no_duplicates_and_valid_pairs() {
        let mut hyper = cycle(6);
        hyper.add_edge(Hyperedge::new(
            NodeSet::from_iter([0, 2]),
            NodeSet::from_iter([4]),
            6,
        ));
        for g in [cycle(6), hyper] {
            assert_eq!(count_ccps(&g), check_pairs(&g));
        }
    }

    /// A DP reads a set only once its value is final: no pair produces a
    /// set after a pair has read it as a side. On a clique every set is
    /// produced by the most pairs.
    #[test]
    fn emission_order_supports_dp() {
        let g = clique(5);
        let mut read = FxHashSet::default();
        enumerate_ccps(&g, |s1, s2| {
            let s = s1.union(s2);
            assert!(!read.contains(&s), "{s} produced after it was read");
            read.extend([s1, s2]);
        });
    }

    /// A side grows only into a set its table holds: a table that holds
    /// no set of two or more nodes gets just the edges between single
    /// nodes.
    #[test]
    fn a_side_grows_only_into_a_held_set() {
        struct Singletons(Vec<(NodeSet, NodeSet)>);
        impl DpTable for Singletons {
            fn holds(&self, s: NodeSet) -> bool {
                assert!(s.len() > 1, "asked for the single node {s}");
                false
            }
            fn pair(&mut self, s1: NodeSet, s2: NodeSet) -> ControlFlow<()> {
                self.0.push((s1, s2));
                ControlFlow::Continue(())
            }
        }
        let mut table = Singletons(Vec::new());
        assert!(try_enumerate_ccps(&cycle(5), &mut table).is_continue());
        let ends = |&(a, b): &(NodeSet, NodeSet)| (a.union(b).min(), a.union(b).max());
        let mut edges: Vec<_> = table.0.iter().map(ends).collect();
        edges.sort_unstable();
        assert_eq!(vec![(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)], edges);
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

    /// The spanning-forest bound is exact on a tree: a star of `m` leaves
    /// has `m·2^(m−1)` pairs and a path of `n` nodes `C(n+1, 3)`, up to the
    /// largest graphs a `NodeSet` holds (the star's count saturates there).
    #[test]
    fn spanning_forest_bound_is_exact_on_stars_and_paths() {
        for m in 1..=63u32 {
            let want = u64::from(m).saturating_mul(1u64 << (m - 1));
            assert_eq!(
                want,
                ccp_lower_bound(&star(m as usize + 1)),
                "star of {m} leaves"
            );
        }
        for n in 2..=64u64 {
            let want = (n + 1) * n * (n - 1) / 6;
            assert_eq!(
                want,
                ccp_lower_bound(&chain(n as usize)),
                "path of {n} nodes"
            );
        }
        for m in 1..=9 {
            assert_eq!(count_ccps(&star(m + 1)), ccp_lower_bound(&star(m + 1)));
            assert_eq!(count_ccps(&chain(m + 1)), ccp_lower_bound(&chain(m + 1)));
        }
        assert_eq!(0, ccp_lower_bound(&Hypergraph::new(0)));
        assert_eq!(0, ccp_lower_bound(&Hypergraph::new(1)));
    }

    /// On graphs with cycles the forest leaves edges out, so the bound
    /// falls short of the count, and the capped count refuses on the bound
    /// alone where it already passes the cap.
    #[test]
    fn spanning_forest_bound_stays_below_the_count() {
        for g in [clique(7), cycle(8), clique(3)] {
            assert!(ccp_lower_bound(&g) <= count_ccps(&g));
        }
        // Two components: a path of 4 (10 pairs) and a star of 3 leaves
        // (12 pairs).
        let mut g = Hypergraph::new(8);
        for i in 0..3 {
            g.add_simple(i, i + 1, i);
            g.add_simple(4, 5 + i, 3 + i);
        }
        assert_eq!(22, ccp_lower_bound(&g));
        assert_eq!(22, count_ccps(&g));
        let big = star(40);
        assert!(ccp_lower_bound(&big) > 1 << 40);
        assert_eq!(None, count_ccps_capped(&big, 1 << 40));
    }

    use proptest::prelude::*;

    /// A random hypergraph on 2..=9 nodes: simple edges between random
    /// node pairs and complex edges between two random disjoint node sets.
    fn random_hypergraph() -> impl Strategy<Value = Hypergraph> {
        let simple = proptest::collection::vec((0usize..9, 0usize..9), 0..14);
        let complex = proptest::collection::vec((1u64..512, 1u64..512), 0..4);
        (2usize..=9, simple, complex).prop_map(|(n, simple, complex)| {
            let mut g = Hypergraph::new(n);
            let mask = NodeSet::full(n).0;
            for (label, (a, b)) in simple.into_iter().enumerate() {
                let (a, b) = (a % n, b % n);
                if a != b {
                    g.add_simple(a, b, label);
                }
            }
            for (label, (l, r)) in complex.into_iter().enumerate() {
                let left = NodeSet(l & mask);
                let right = NodeSet(r & mask).difference(left);
                if !left.is_empty() && !right.is_empty() {
                    g.add_edge(Hyperedge::new(left, right, 100 + label));
                }
            }
            g
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The walk's stream is valid on any hypergraph, and it counts
        /// what the definition counts.
        #[test]
        fn dphyp_counts_what_the_definition_counts(g in random_hypergraph()) {
            let (walked, brute) = (check_pairs(&g), count_ccps_bruteforce(&g));
            prop_assert_eq!(brute, walked, "{} pairs by definition, {} walked in {:?}", brute, walked, g);
        }

        /// The bound never passes the DPhyp count, so the capped count
        /// refuses on it only what the walk would refuse.
        #[test]
        fn spanning_forest_bound_never_passes_the_count(g in random_hypergraph()) {
            let (bound, count) = (ccp_lower_bound(&g), count_ccps(&g));
            prop_assert!(bound <= count, "bound {} over {} pairs in {:?}", bound, count, g);
            for cap in [bound.saturating_sub(1), bound, count] {
                prop_assert_eq!((count <= cap).then_some(count), count_ccps_capped(&g, cap));
            }
        }
    }

    #[test]
    fn try_enumerate_stops_at_break() {
        // The walk must visit no more than cap + 1 pairs before bailing:
        // this is what makes budget probes affordable on dense graphs.
        let g = clique(8);
        let mut visited = 0u64;
        let emit = |_, _| {
            visited += 1;
            if visited > 10 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        let flow = try_enumerate_ccps(&g, &mut (FxHashSet::default(), emit));
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
