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
use crate::context::OptContext;
use crate::memo::Memo;
use crate::plan::{cut_estimate, cut_terms};
use dpnext_cost::join_card;
use dpnext_hypergraph::NodeSet;
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
    while comps.len() > 1 && search.exhausted().is_none() {
        // The applicable pair with the smallest estimated join result.
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..comps.len() {
            for j in i + 1..comps.len() {
                let (a, b) = (&comps[i], &comps[j]);
                let card = *estimates[a.first * n + b.first].get_or_insert_with(|| {
                    if graph.has_connecting_edge(a.set, b.set) {
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
        let Component { first, last, .. } = comps.swap_remove(j);
        let merged = &mut comps[i];
        next[merged.last] = first;
        merged.last = last;
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
/// applicable operator, or a mix of distinct operators that are not all
/// inner joins) — selecting such a pair would dead-end the pass. Mirrors
/// the engine's estimate (`make_apply`) without constructing a plan: the
/// first orientation's `join_card` over the smallest cardinality in each
/// side's class, with the cut's numbers as [`stage_apply`] stages them.
///
/// [`stage_apply`]: crate::plan::stage_apply
pub(crate) fn estimate_pair(
    ctx: &OptContext,
    search: &mut Search<'_>,
    a: NodeSet,
    b: NodeSet,
) -> Option<f64> {
    let (bufs, memo) = search.orientations(a, b);
    let &(sl, sr, primary) = bufs.orients.first()?;
    let lcard = class_min_card(memo, sl)?;
    let rcard = class_min_card(memo, sr)?;
    let terms = cut_terms(ctx, primary, &bufs.extra, sl);
    let (sel, d_left, d_right) = cut_estimate(ctx, primary, &bufs.extra, terms);
    let kind = ctx.cq.ops[primary].op;
    Some(join_card(kind, lcard, rcard, sel, d_left, d_right))
}

/// The smallest cardinality in the class of `s`.
fn class_min_card(memo: &Memo, s: NodeSet) -> Option<f64> {
    memo.class(s)
        .iter()
        .map(|&id| memo[id].card)
        .min_by(f64::total_cmp)
}
