//! The hypergraphs conflict detection builds, with their csg-cmp-pairs
//! counted by DPhyp (`count_ccps`) and by the brute-force reference
//! (`count_ccps_bruteforce`), which counts by the definition: a set is
//! joinable when it is one relation or two joinable halves that an edge
//! connects, and each such split is a pair.
//!
//! Conflict detection builds hyperedge sides that are not joinable on their
//! own. The smallest witness below is `oracle(4)` with
//! `OpWeights::mixed()`, seed 8, whose edges are `{2}–{3}`, `{1}–{2,3}` and
//! `{0}–{1,3}`: `{1,3}` has no edge of its own, so neither count holds
//! `({0}, {1,3})`, and both read 3. `paper(7)` seed 3 has the edges
//! `{1}–{2}`, `{5}–{6}`, `{4}–{5,6}`, `{3}–{4}`, `{1}–{4,6}` and
//! `{0}–{4,5}`: no edge joins `{4,5}` either, so neither count holds
//! `({0}, {4,5})` or `({0,4,5}, {6})`, and both read 29.

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
/// 40 seeds and the four TPC-H queries: DPhyp counts what the definition
/// counts on all 332 graphs.
#[test]
fn dphyp_counts_the_joinable_pairs_of_every_detected_graph() {
    let paper = (3..=10).flat_map(|n| (0..6).map(move |s| generate_query(&GenConfig::paper(n), s)));
    let oracle = (2..=8).flat_map(|n| (0..40).map(move |s| generate_query(&mixed(n), s)));
    let tpch = [ex_query(), q3(), q5(), q10()].map(|q| q.bound.query);
    let mut graphs = 0;
    for query in paper.chain(oracle).chain(tpch) {
        let graph = &OptContext::new(&query).cq.graph;
        assert_eq!(count_ccps_bruteforce(graph), count_ccps(graph), "{query:?}");
        graphs += 1;
    }
    assert_eq!(332, graphs);
    let graph = &OptContext::new(generate_query(&mixed(4), 8)).cq.graph;
    let sides = graph.edges().iter().map(|e| (e.left.0, e.right.0));
    assert_eq!(vec![(4, 8), (2, 12), (1, 10)], sides.collect::<Vec<_>>());
    assert_eq!((3, 3), (count_ccps(graph), count_ccps_bruteforce(graph)));
    let graph = &OptContext::new(generate_query(&GenConfig::paper(7), 3))
        .cq
        .graph;
    let sides = graph.edges().iter().map(|e| (e.left.0, e.right.0));
    let want = [(2, 4), (32, 64), (16, 96), (8, 16), (2, 80), (1, 48)];
    assert_eq!(want.to_vec(), sides.collect::<Vec<_>>());
    assert_eq!((29, 29), (count_ccps(graph), count_ccps_bruteforce(graph)));
}
