//! The greedy rung: a GOO-style join-ordering pass over the query
//! hypergraph (Fegaras's "greedy operator ordering", DEXA 1998: repeatedly
//! merge the pair of components with the smallest estimated join result),
//! built directly on the budgeted engine so every merge explores the
//! eager/lazy aggregation variants of the paper and the constructed plans
//! land in the shared memo.
//!
//! A pair's estimate depends only on its two components, so the pass keeps
//! it across merges: each ordered component pair is estimated once, a
//! merge forgets only the estimates of the component it grew, and a pair
//! no hyperedge connects is never estimated (no operator crosses it). The
//! pairs are still scanned in the same order with the same tie-breaking,
//! so the merges are those of estimating every pair after every merge.
//!
//! Nor does a pair ask the graph whether an edge joins it: the pass keeps
//! the **component links** (`Links`, fixed arrays, no allocation).
//! Singletons are linked by their simple edges; a merged component's row
//! is the OR of its two parts' rows, and every complex edge whose one side
//! only now lies inside the merged component links it to the component
//! that holds all of the other side — `O(#edges)` per merge instead of an
//! edge scan per pair. [`Hypergraph::has_connecting_edge`] stays the
//! reference: a build with debug assertions checks every link the pass
//! reads against it.
//!
//! Two searches run it before walking the DPhyp stream: the ladder, as its
//! first rung, and EA-Prune, as its seed ([`crate::optimize_prepared`]).
//! Either way the complete plan it leaves bounds every interior unit of
//! the dominance walk that follows.
//!
//! The pass also produces the **linear order** the linearized DP rung
//! refines: relations in the left-to-right traversal order of the greedy
//! merge tree. Every greedy subtree is a contiguous interval of that
//! order, so interval DP explores a superset of the greedy tree and its
//! result can only be as good or better.
//!
//! When the greedy pair selection dead-ends (conflict rules can paint an
//! arbitrary merge order into a corner), the pass falls back to replaying
//! the query's canonical operator tree bottom-up — the one merge sequence
//! conflict detection guarantees to be applicable.

use crate::algo::Search;
use crate::card::join_card;
use crate::context::OptContext;
use crate::detect::applicable_op;
use crate::memo::Memo;
use crate::plan::{cut_estimate, cut_terms};
use dpnext_hypergraph::{Hypergraph, NodeSet, MAX_RELATIONS};
use dpnext_query::OpTree;

/// One greedy component: the relations it covers, and the first and the
/// last of them in the component's merge-tree traversal (the rest follow
/// the pass's successor array). The first relation names the component
/// for as long as it exists: a merge keeps the first of its left side.
struct Component {
    set: NodeSet,
    first: usize,
    last: usize,
}

/// Which pairs of greedy components a hyperedge joins, kept across merges
/// so that no pair asks the graph. Per component, by its first relation:
/// relations of the components it is linked to, a link being recorded on
/// at least one of its two ends ([`Links::joined`] reads both).
struct Links {
    rows: [NodeSet; MAX_RELATIONS],
    /// Per relation: the first relation of the component that holds it.
    owner: [usize; MAX_RELATIONS],
}

impl Links {
    /// Singletons, linked by their simple edges.
    fn new(graph: &Hypergraph) -> Links {
        let mut links = Links {
            rows: [NodeSet::EMPTY; MAX_RELATIONS],
            owner: [0; MAX_RELATIONS],
        };
        for v in 0..graph.node_count() {
            links.rows[v] = graph.simple_neighbors(v);
            links.owner[v] = v;
        }
        links
    }

    /// Whether a hyperedge joins `a` and `b`: what
    /// [`Hypergraph::has_connecting_edge`] answers for their sets.
    fn joined(&self, a: &Component, b: &Component) -> bool {
        self.rows[a.first].intersects(b.set) || self.rows[b.first].intersects(a.set)
    }

    /// `from` merges into `into` (both as they were before the merge): the
    /// merged row is the OR of the two, and a complex edge with a side that
    /// only now lies inside the merged component links it to the component
    /// that holds all of the other side, if one does. A side that is still
    /// split links nothing yet; the merge that gathers it records the link
    /// from its end.
    fn merge(&mut self, graph: &Hypergraph, into: &Component, from: &Component) {
        let merged = into.set.union(from.set);
        for r in from.set.iter() {
            self.owner[r] = into.first;
        }
        let mut row = self.rows[into.first].union(self.rows[from.first]);
        for e in graph.complex_edges() {
            for (inside, other) in [(e.left, e.right), (e.right, e.left)] {
                let gathered = inside.is_subset_of(merged)
                    && !inside.is_subset_of(into.set)
                    && !inside.is_subset_of(from.set);
                if gathered && other.is_disjoint(merged) {
                    let holder = self.owner[other.min()];
                    if other.iter().all(|r| self.owner[r] == holder) {
                        row = row.union(other);
                    }
                }
            }
        }
        self.rows[into.first] = row;
    }
}

/// Run the greedy pass on `search`. On success the memo holds a complete
/// plan (the search's keep-best) and one or two representative plans per
/// greedy subtree class. Returns the linearization of the relations: the
/// greedy merge tree's traversal order (or the canonical tree's, after a
/// fallback).
pub(crate) fn greedy_join(search: &mut Search<'_>, ctx: &OptContext) -> Vec<usize> {
    greedy_join_with(search, ctx, |search, a, b| estimate_pair(ctx, search, a, b))
}

/// [`greedy_join`], estimating a pair of component sets with `estimate`
/// ([`estimate_pair`] in the pass; a test counts the calls).
pub(crate) fn greedy_join_with<'s>(
    search: &mut Search<'s>,
    ctx: &OptContext,
    mut estimate: impl FnMut(&mut Search<'s>, NodeSet, NodeSet) -> Option<f64>,
) -> Vec<usize> {
    let n = ctx.query.table_count();
    let graph = &ctx.cq.graph;
    let mut comps: Vec<Component> = (0..n)
        .map(|i| Component {
            set: NodeSet::single(i),
            first: i,
            last: i,
        })
        .collect();
    // The relation after each one in its component's traversal order; a
    // component's last relation has none yet.
    let mut next = vec![0; n];
    // Per ordered pair of components, by their first relations: the pair's
    // estimate once taken (`None` inside when nothing joins them).
    let mut estimates: Vec<Option<Option<f64>>> = vec![None; n * n];
    let mut links = Links::new(graph);
    while comps.len() > 1 && search.exhausted().is_none() {
        // The applicable pair with the smallest estimated join result.
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..comps.len() {
            for j in i + 1..comps.len() {
                let (a, b) = (&comps[i], &comps[j]);
                let card = *estimates[a.first * n + b.first].get_or_insert_with(|| {
                    let linked = links.joined(a, b);
                    debug_assert_eq!(
                        graph.has_connecting_edge(a.set, b.set),
                        linked,
                        "the links of {} and {} disagree with the graph",
                        a.set,
                        b.set
                    );
                    if linked {
                        estimate(search, a.set, b.set)
                    } else {
                        None
                    }
                });
                let Some(card) = card else {
                    continue;
                };
                if best.is_none_or(|(_, _, c)| card < c) {
                    best = Some((i, j, card));
                }
            }
        }
        let Some((i, j, _)) = best else {
            break; // no applicable pair: conflict-rule dead end
        };
        let union = comps[i].set.union(comps[j].set);
        search.process(comps[i].set, comps[j].set);
        if union != NodeSet::full(n) && search.memo().class(union).is_empty() {
            break; // every variant was rejected: dead end
        }
        // GOO keeps one plan per component (plus a raw alternative when
        // groupjoins need one); without this the class widths would
        // compound across merges and the greedy floor would not hold.
        search.shrink_class_to_best(union);
        let gone = comps.swap_remove(j);
        links.merge(graph, &comps[i], &gone);
        let merged = &mut comps[i];
        next[merged.last] = gone.first;
        merged.last = gone.last;
        merged.set = union;
        // Every other component's class is as it was, so only the merged
        // component's estimates are stale.
        let id = merged.first;
        for k in 0..n {
            estimates[id * n + k] = None;
            estimates[k * n + id] = None;
        }
    }
    if let [whole] = comps.as_slice() {
        if search.best_cost().is_some() {
            let mut order = Vec::with_capacity(n);
            let mut r = whole.first;
            order.push(r);
            while r != whole.last {
                r = next[r];
                order.push(r);
            }
            return order;
        }
    }
    replay_canonical(search, ctx)
}

/// The fallback of a dead-ended pass: replay the canonical operator tree
/// bottom-up, and return its traversal order. Operators are collected in
/// post-order, so every operator's input classes are populated (by scans
/// or by earlier operators) when it is processed.
pub(crate) fn replay_canonical(search: &mut Search<'_>, ctx: &OptContext) -> Vec<usize> {
    let n = ctx.query.table_count();
    for op in &ctx.cq.ops {
        let memo = search.memo();
        if memo.class(op.left_rels).is_empty() || memo.class(op.right_rels).is_empty() {
            continue; // an earlier application dead-ended; no plan here
        }
        search.process(op.left_rels, op.right_rels);
        let union = op.left_rels.union(op.right_rels);
        if union != NodeSet::full(n) {
            search.shrink_class_to_best(union);
        }
    }
    traversal_order(&ctx.query.tree)
}

/// Relations in left-to-right traversal order of an operator tree: every
/// subtree maps to a contiguous interval of the result.
fn traversal_order(tree: &OpTree) -> Vec<usize> {
    fn walk(t: &OpTree, out: &mut Vec<usize>) {
        match t {
            OpTree::Rel(i) => out.push(*i),
            OpTree::Binary { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(tree, &mut out);
    out
}

/// Estimated result cardinality of joining the components `a` and `b`,
/// or `None` when the engine would build nothing for the cut (no
/// applicable operator) — selecting such a pair would dead-end the pass.
/// Mirrors the engine's estimate (`make_apply`) without constructing a
/// plan: the first orientation's `join_card` over the smallest cardinality
/// in each side's class, with the cut's numbers as [`stage_apply`] stages
/// them.
///
/// [`stage_apply`]: crate::plan::stage_apply
pub(crate) fn estimate_pair(
    ctx: &OptContext,
    search: &Search<'_>,
    a: NodeSet,
    b: NodeSet,
) -> Option<f64> {
    let memo = search.memo();
    let (card_a, card_b) = (class_min_card(memo, a)?, class_min_card(memo, b)?);
    let (op, [forward, _]) = applicable_op(&ctx.cq, a, b)?;
    let (sl, lcard, rcard) = if forward {
        (a, card_a, card_b)
    } else {
        (b, card_b, card_a)
    };
    let terms = cut_terms(ctx, op, sl);
    let (sel, d_left, d_right) = cut_estimate(ctx, op, terms);
    let kind = ctx.cq.ops[op].op;
    Some(join_card(kind, lcard, rcard, sel, d_left, d_right))
}

/// The smallest cardinality in the class of `s`.
fn class_min_card(memo: &Memo, s: NodeSet) -> Option<f64> {
    memo.class(s)
        .iter()
        .map(|&id| memo[id].card)
        .min_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpnext_hypergraph::Hyperedge;
    use dpnext_workload::{generate_query, GenConfig, Topology};

    /// Merge `graph`'s singletons along a pseudo-random order drawn from
    /// `state` (joined pairs or not), checking after every merge that the
    /// links answer what [`Hypergraph::has_connecting_edge`] answers for
    /// every pair of components.
    fn check_links(graph: &Hypergraph, state: &mut u64, what: &str) {
        let mut comps: Vec<Component> = (0..graph.node_count())
            .map(|i| Component {
                set: NodeSet::single(i),
                first: i,
                last: i,
            })
            .collect();
        let mut links = Links::new(graph);
        loop {
            for (i, a) in comps.iter().enumerate() {
                for b in &comps[i + 1..] {
                    assert_eq!(
                        graph.has_connecting_edge(a.set, b.set),
                        links.joined(a, b),
                        "{what}: {} and {}",
                        a.set,
                        b.set
                    );
                }
            }
            if comps.len() == 1 {
                break;
            }
            let len = comps.len() as u64;
            let draw = next(state);
            let (i, j) = (draw % len, (draw >> 32) % (len - 1));
            let (i, j) = (i.min(j) as usize, if j >= i { j + 1 } else { i } as usize);
            let gone = comps.swap_remove(j);
            links.merge(graph, &comps[i], &gone);
            comps[i].set = comps[i].set.union(gone.set);
        }
    }

    /// One xorshift step.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// The links agree with the graph after every merge on the graphs of
    /// `topology(20 | 30 | 40, every kind)` × 4 seeds and `paper(3..=11)` ×
    /// 4 seeds, and on 300 random hypergraphs whose complex edges have
    /// sides of up to four nodes each, so that a merge can gather one side
    /// while the other is still split, or both in turn.
    #[test]
    fn links_answer_what_the_graph_answers_after_every_merge() {
        let kinds = [
            Topology::Chain,
            Topology::Star,
            Topology::Clique,
            Topology::Mixed,
        ];
        let topologies = [20, 30, 40]
            .into_iter()
            .flat_map(|n| kinds.map(|t| GenConfig::topology(n, t)));
        let configs = topologies.chain((3..=11).map(GenConfig::paper));
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for (cfg, seed) in configs.flat_map(|cfg| (0..4).map(move |seed| (cfg.clone(), seed))) {
            let ctx = OptContext::new(generate_query(&cfg, seed));
            check_links(&ctx.cq.graph, &mut state, &format!("{cfg:?} seed {seed}"));
        }
        for round in 0..300 {
            let n = 4 + (next(&mut state) % 9) as usize;
            let mut graph = Hypergraph::new(n);
            let side = |state: &mut u64| {
                let picks = 1 + next(state) % 4;
                (0..picks).fold(NodeSet::EMPTY, |s, _| {
                    s.insert((next(state) % n as u64) as usize)
                })
            };
            for label in 0..n {
                let (a, b) = (next(&mut state) as usize % n, next(&mut state) as usize % n);
                if a != b && next(&mut state) & 1 == 0 {
                    graph.add_simple(a, b, label);
                }
                let (left, right) = (side(&mut state), side(&mut state));
                let right = right.difference(left);
                if !right.is_empty() && left.len() + right.len() > 2 {
                    graph.add_edge(Hyperedge::new(left, right, n + label));
                }
            }
            check_links(&graph, &mut state, &format!("random graph {round}"));
        }
    }
}
