//! The hypergraphs conflict detection builds, with their csg-cmp-pairs
//! counted by DPhyp (`count_ccps`) and by the brute-force reference
//! (`count_ccps_bruteforce`). The brute force calls a set connected by
//! `Hypergraph::is_connected`, which absorbs a whole hyperedge side into a
//! component once the side lies in the set, whether the side is connected
//! or not, so it can count pairs DPhyp never emits.
//!
//! Conflict detection does build such sides. The smallest witness below is
//! `oracle(4)` with `OpWeights::mixed()`, seed 8, whose edges are
//! `{2}–{3}`, `{1}–{2,3}` and `{0}–{1,3}`: the brute force takes `{1,3}`
//! for connected and counts `({0}, {1,3})`, 4 pairs against DPhyp's 3.
//! The test records on how many of the detected graphs the two differ, so
//! a change to either count, or to what conflict detection builds, shows.

use dpnext_core::OptContext;
use dpnext_hypergraph::{count_ccps, count_ccps_bruteforce};
use dpnext_workload::{ex_query, generate_query, q10, q3, q5, GenConfig, OpWeights};

/// The oracle generator with every operator kind.
fn mixed(n: usize) -> GenConfig {
    GenConfig {
        ops: OpWeights::mixed(),
        ..GenConfig::oracle(n)
    }
}

/// `paper(3..=10)` × 6 seeds, `oracle(2..=8)` with every operator kind ×
/// 40 seeds and the four TPC-H queries: the brute force counts more pairs
/// than DPhyp on 9 of the 332 graphs, and never fewer.
#[test]
fn brute_force_overcounts_where_a_hyperedge_side_is_not_connected() {
    let paper = (3..=10).flat_map(|n| (0..6).map(move |s| generate_query(&GenConfig::paper(n), s)));
    let oracle = (2..=8).flat_map(|n| (0..40).map(move |s| generate_query(&mixed(n), s)));
    let tpch = [ex_query(), q3(), q5(), q10()].map(|q| q.bound.query);
    let (mut graphs, mut overcounted) = (0, 0);
    for query in paper.chain(oracle).chain(tpch) {
        let graph = &OptContext::new(&query).cq.graph;
        let (dphyp, brute) = (count_ccps(graph), count_ccps_bruteforce(graph));
        assert!(brute >= dphyp, "{query:?}: {brute} < {dphyp}");
        graphs += 1;
        overcounted += usize::from(brute > dphyp);
    }
    assert_eq!((332, 9), (graphs, overcounted));
    let graph = &OptContext::new(generate_query(&mixed(4), 8)).cq.graph;
    let sides = graph.edges().iter().map(|e| (e.left.0, e.right.0));
    assert_eq!(vec![(4, 8), (2, 12), (1, 10)], sides.collect::<Vec<_>>());
    assert_eq!((3, 4), (count_ccps(graph), count_ccps_bruteforce(graph)));
}
