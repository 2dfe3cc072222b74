//! Plan constructors: build scan / apply / grouping nodes with their
//! derived logical properties directly into the [`Memo`] arena.
//!
//! Operator applications are split into a **staging** step
//! ([`stage_apply`]: orient and merge the predicate terms, fold the
//! selectivities, take the distinct-count products, precompute the
//! applied-mask bits — everything that depends only on the cut, not on
//! the particular plan pair) and a per-pair **application** step
//! ([`apply_staged`]). The enumeration stages once per orientation and
//! then applies across the whole `t1 × t2` candidate grid, so the hot
//! loop does no per-plan predicate cloning or re-orientation.

use crate::aggstate::{build_group_aggs, AggState};
use crate::context::{OptContext, Scratch};
use crate::memo::{Memo, MemoPlan, PlanId, PlanNode};
use dpnext_algebra::{AttrId, JoinPred};
use dpnext_cost::{distinct_in, grouping_card, join_card};
use dpnext_hypergraph::NodeSet;
use dpnext_keys::{grouping_keys, infer_join_keys_presorted, KeyInfo, KeySet};
use dpnext_query::OpKind;
use std::sync::Arc;

/// Build a scan plan for table occurrence `i`.
pub fn make_scan(ctx: &OptContext, memo: &mut Memo, i: usize) -> PlanId {
    let t = &ctx.query.tables[i];
    let keys = KeySet::from_keys(t.keys.iter().cloned());
    memo.push(MemoPlan {
        node: PlanNode::Scan { table: i },
        set: NodeSet::single(i),
        card: t.card,
        cost: 0.0, // scans are free under C_out
        keyinfo: KeyInfo::base(keys),
        agg: AggState::fresh(ctx.aggs().len()),
        visible: t.attrs.clone(),
        has_grouping: false,
        applied: 0,
    })
}

/// Cap a cardinality estimate by the key-implied bound: a duplicate-free
/// result has at most one tuple per key value, so it cannot exceed the
/// product of any key's distinct counts. Without this cap the estimate can
/// contradict the key info, and `NeedsGrouping` then elides a grouping the
/// estimator still thinks would shrink the input — which breaks the
/// monotonicity argument behind the §4.6 dominance pruning (a dominating
/// keyed plan could forfeit a reduction the dominated raw plan kept).
/// The cap is constant in the input cardinalities, so estimates stay
/// monotone as the pruning proof requires.
fn key_bounded_card(ctx: &OptContext, card: f64, keyinfo: &KeyInfo) -> f64 {
    if !keyinfo.duplicate_free {
        return card;
    }
    let mut bounded = card;
    for key in keyinfo.keys.keys() {
        // Unknown distinct counts are infinite: no cap from such keys.
        let bound: f64 = key.iter().map(|&a| ctx.distinct(a).max(1.0)).product();
        bounded = bounded.min(bound);
    }
    bounded
}

/// Orient one predicate term so its left attribute comes from `left_set`.
fn orient_term(
    ctx: &OptContext,
    (l, op, r): (AttrId, dpnext_algebra::CmpOp, AttrId),
    left_set: NodeSet,
) -> (AttrId, dpnext_algebra::CmpOp, AttrId) {
    if ctx.origin(l).is_subset_of(left_set) {
        (l, op, r)
    } else {
        debug_assert!(ctx.origin(r).is_subset_of(left_set));
        (r, op.flip(), l)
    }
}

/// The cut-level constants of one operator application: identical for
/// every plan pair of one orientation, computed once by [`stage_apply`].
pub struct StagedApply {
    /// Index of the primary operator into the conflicted query's list.
    pub op_idx: usize,
    /// Operator kind (join, outer join, groupjoin, ...).
    pub kind: OpKind,
    /// Oriented, merged predicate — shared (`Arc`) by every plan built
    /// from this staging, instead of cloned per plan.
    pub pred: Arc<JoinPred>,
    /// Merged selectivity (primary × extra same-cut inner joins).
    pub sel: f64,
    /// Product of the left predicate attributes' distinct counts.
    pub d_left: f64,
    /// Product of the right predicate attributes' distinct counts.
    pub d_right: f64,
    /// Applied-mask bits this cut contributes (primary + extras).
    pub applied_bits: u64,
    /// Is the predicate a non-empty conjunction of equalities? Gates the
    /// key-preserving cases of the §2.3 propagation.
    pub pred_equi: bool,
    /// Left-side predicate attributes, sorted and deduplicated — the
    /// per-pair key inference runs its cover tests straight off these
    /// slices instead of re-collecting and re-sorting per plan.
    pub left_attrs: Vec<AttrId>,
    /// Right-side predicate attributes, sorted and deduplicated.
    pub right_attrs: Vec<AttrId>,
}

/// Stage operator `op_idx` (plus any extra inner-join edges crossing the
/// same cut, for cyclic queries) for application with `left_set` as the
/// physical left side: orient and merge all predicate terms, fold the
/// selectivities and take the per-side distinct products. Every plan of
/// one orientation shares the staged values — all plans in a class cover
/// the same relation set, so term orientation and attribute origins
/// cannot differ across the candidate grid.
pub fn stage_apply(
    ctx: &OptContext,
    scratch: &mut Scratch,
    op_idx: usize,
    extra: &[usize],
    left_set: NodeSet,
) -> StagedApply {
    let op = &ctx.cq.ops[op_idx];
    // Merge and orient all predicates crossing this cut — staged in the
    // scratch buffer, cloned once into the shared predicate.
    scratch.terms.clear();
    let mut sel = op.sel;
    let mut applied_bits = 1u64 << op_idx;
    for t in &op.pred.terms {
        scratch.terms.push(orient_term(ctx, *t, left_set));
    }
    for &ei in extra {
        let e = &ctx.cq.ops[ei];
        debug_assert_eq!(OpKind::Join, e.op, "only inner joins may share a cut");
        sel *= e.sel;
        for t in &e.pred.terms {
            scratch.terms.push(orient_term(ctx, *t, left_set));
        }
        applied_bits |= 1u64 << ei;
    }
    let pred = Arc::new(JoinPred {
        terms: scratch.terms.clone(),
    });
    // Distinct join-value counts per side (products of the base distinct
    // counts of the predicate attributes) for the match probability.
    let d_left: f64 = pred.left_attrs().iter().map(|&a| ctx.distinct(a)).product();
    let d_right: f64 = pred
        .right_attrs()
        .iter()
        .map(|&a| ctx.distinct(a))
        .product();
    // Pre-digest the predicate for the per-pair key inference: equi
    // classification plus sorted, deduplicated per-side attribute sets.
    let pred_equi = pred.is_equi() && !pred.terms.is_empty();
    let mut left_attrs = pred.left_attrs();
    let mut right_attrs = pred.right_attrs();
    left_attrs.sort_unstable();
    left_attrs.dedup();
    right_attrs.sort_unstable();
    right_attrs.dedup();
    StagedApply {
        op_idx,
        kind: op.op,
        pred,
        sel,
        d_left,
        d_right,
        applied_bits,
        pred_equi,
        left_attrs,
        right_attrs,
    }
}

/// Apply a staged operator on two plans. `left`/`right` are already in
/// physical orientation (the staging's `left_set` side). Returns `None`
/// when required attributes are unavailable (structurally prevented,
/// checked defensively) or a groupjoin would consume a pre-aggregated
/// right side.
#[inline]
pub fn apply_staged(
    ctx: &OptContext,
    scratch: &mut Scratch,
    memo: &mut Memo,
    staged: &StagedApply,
    left_id: PlanId,
    right_id: PlanId,
) -> Option<PlanId> {
    let op = &ctx.cq.ops[staged.op_idx];
    let kind = staged.kind;
    let (left, right) = (memo.plan(left_id), memo.plan(right_id));
    // Groupjoins evaluate their aggregates over raw right-side tuples: a
    // pre-aggregated right side would aggregate groups instead.
    if kind == OpKind::GroupJoin && right.hot.has_grouping() {
        return None;
    }
    // Defensive visibility check — per plan, not per cut: a pushed-down
    // grouping changes which attributes its side exposes.
    for &(l, _, r) in &staged.pred.terms {
        if !left.cold.visible.contains(&l) || !right.cold.visible.contains(&r) {
            return None;
        }
    }
    for call in &op.gj_aggs {
        for a in call.referenced() {
            if !right.cold.visible.contains(&a) {
                return None;
            }
        }
    }

    let set = left.hot.set.union(right.hot.set);
    let raw_card = join_card(
        kind,
        left.hot.card,
        right.hot.card,
        staged.sel,
        staged.d_left,
        staged.d_right,
    );
    let keyinfo = infer_join_keys_presorted(
        kind,
        &left.cold.keyinfo,
        &right.cold.keyinfo,
        staged.pred_equi,
        &staged.left_attrs,
        &staged.right_attrs,
    );
    let card = key_bounded_card(ctx, raw_card, &keyinfo);
    let cost = left.hot.cost + right.hot.cost + card;
    let agg = if kind.preserves_right() {
        left.cold.agg.merge(&right.cold.agg)
    } else {
        // Semi/anti/groupjoin keep only left tuples, so the merged state
        // restricted to the left set collapses to the left state: left
        // scopes are subsets of `left.set` by construction, right scopes
        // are disjoint from it.
        debug_assert_eq!(
            left.cold.agg.merge(&right.cold.agg).keep_left(left.hot.set),
            left.cold.agg
        );
        left.cold.agg.clone()
    };
    let right_visible: &[AttrId] = if kind.preserves_right() {
        &right.cold.visible
    } else {
        &[]
    };
    let mut visible =
        Vec::with_capacity(left.cold.visible.len() + right_visible.len() + op.gj_aggs.len());
    visible.extend_from_slice(&left.cold.visible);
    visible.extend_from_slice(right_visible);
    visible.extend(op.gj_aggs.iter().map(|c| c.out));

    debug_assert_eq!(
        left.hot.applied & right.hot.applied,
        0,
        "operator applied twice across join inputs"
    );
    let applied = left.hot.applied | right.hot.applied | staged.applied_bits;
    let has_grouping = left.hot.has_grouping() || right.hot.has_grouping();

    scratch.count_plan();
    Some(memo.push(MemoPlan {
        node: PlanNode::Apply {
            op: kind,
            pred: Arc::clone(&staged.pred),
            gj_aggs: op.gj_aggs.clone(),
            left: left_id,
            right: right_id,
        },
        set,
        card,
        cost,
        keyinfo,
        agg,
        visible,
        has_grouping,
        applied,
    }))
}

/// Apply operator `op_idx` (plus any extra inner-join edges crossing the
/// same cut) on two plans — the one-shot convenience form: stages and
/// applies in one call. The enumeration hot loop uses
/// [`stage_apply`] + [`apply_staged`] directly to amortize the staging
/// over a whole candidate grid.
pub fn make_apply(
    ctx: &OptContext,
    scratch: &mut Scratch,
    memo: &mut Memo,
    op_idx: usize,
    extra: &[usize],
    left_id: PlanId,
    right_id: PlanId,
) -> Option<PlanId> {
    let staged = stage_apply(ctx, scratch, op_idx, extra, memo[left_id].set);
    apply_staged(ctx, scratch, memo, &staged, left_id, right_id)
}

/// Wrap a plan in an eager-aggregation grouping over `G⁺(S)`.
///
/// Callers must have checked `ctx.can_group(input.set)` and the usefulness
/// condition (`NeedsGrouping`); this constructor only assembles the node.
#[inline]
pub fn make_group(
    ctx: &OptContext,
    scratch: &mut Scratch,
    memo: &mut Memo,
    input_id: PlanId,
) -> PlanId {
    let s = memo[input_id].set;
    // Owning handle: `build_group_aggs` below needs the scratch mutably
    // while the grouping attributes are still in use.
    let gattrs = scratch.gplus_arc(ctx, s);
    let input = memo.plan(input_id);
    debug_assert!(
        gattrs.iter().all(|a| input.cold.visible.contains(a)),
        "G⁺({s}) not fully visible"
    );
    let (aggs, state) = build_group_aggs(ctx, scratch, &input.cold.agg, s);
    let distincts: Vec<f64> = gattrs
        .iter()
        .map(|&a| distinct_in(ctx.distinct(a), input.hot.card))
        .collect();
    let card = grouping_card(input.hot.card, &distincts);
    let cost = input.hot.cost + card;
    let mut visible: Vec<AttrId> = gattrs.to_vec();
    visible.extend(aggs.iter().map(|c| c.out));
    let applied = input.hot.applied;
    let node = MemoPlan {
        node: PlanNode::Group {
            attrs: gattrs.to_vec(),
            aggs,
            input: input_id,
        },
        set: s,
        card,
        cost,
        keyinfo: grouping_keys(&gattrs),
        agg: state,
        visible,
        has_grouping: true,
        applied,
    };
    scratch.count_plan();
    memo.push(node)
}
