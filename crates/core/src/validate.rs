//! Structural plan validation: an independent re-check that a memo plan
//! is a legal answer to its query — every relation scanned exactly once,
//! every operator applied exactly once at a cut its TES and conflict
//! rules allow, and aggregation placement legal (groupings only where
//! `G⁺`/decomposability permit, groupjoins fed raw right inputs).
//!
//! The enumeration engine establishes these invariants by construction;
//! the validator re-derives them from the plan tree so tests can hold
//! *any* plan producer — the exact DP, the heuristics, and especially the
//! budgeted/greedy paths of the ladder — to the same contract.

use crate::context::OptContext;
use crate::memo::{Memo, PlanId, PlanNode};
use dpnext_algebra::AttrId;
use dpnext_hypergraph::NodeSet;
use dpnext_query::OpKind;

/// Validate a (possibly partial) plan rooted at `id`. Checks, per node:
///
/// * scans cover exactly their single table occurrence;
/// * apply nodes join disjoint inputs whose union matches the stored set,
///   apply an operator of the node's kind that neither input applied, its
///   `(L-TES, R-TES)` satisfied in the node's physical orientation (or
///   swapped, for commutative operators), its conflict rules satisfied by
///   the union, and every predicate attribute — and a groupjoin's
///   aggregate arguments — visible in the input on its side;
/// * groupjoins have grouping-free right inputs;
/// * groupings sit on non-grouped inputs over sets that may be grouped
///   (`can_group`), with exactly the grouping attributes `G⁺(S)`;
/// * costs are finite, non-negative and monotone in the children, and
///   `has_grouping` flags are consistent.
///
/// The memo stores neither which operators a plan applied nor which
/// attributes it exposes: both are derived here from the tree.
///
/// Returns a description of the first violation found.
pub fn validate_subplan(ctx: &OptContext, store: &Memo, id: PlanId) -> Result<(), String> {
    walk(ctx, store, id).map(|_| ())
}

/// What a validated subtree shows the node above it, derived from its tree:
/// the operators it applies (bit `i` for `cq.ops[i]`) and the query
/// attributes its output exposes — a scan its table's; an application its
/// left input's, the right input's too when the operator preserves it, and
/// a groupjoin's aggregate outputs; a grouping `G⁺(S)`. (A grouping's count
/// and partial aggregate columns are left out: they lie above every query
/// attribute, so no predicate or aggregate argument names them.)
struct Derived {
    applied: u64,
    visible: Vec<AttrId>,
}

fn walk(ctx: &OptContext, store: &Memo, id: PlanId) -> Result<Derived, String> {
    let plan = store.plan(id);
    let hot = plan.hot;
    if !hot.cost.is_finite() || hot.cost < 0.0 {
        return Err(format!("plan {id:?} has invalid cost {}", hot.cost));
    }
    if !hot.card.is_finite() || hot.card < 0.0 {
        return Err(format!("plan {id:?} has invalid cardinality {}", hot.card));
    }
    match plan.cold.node {
        PlanNode::Scan { table } => {
            let table = table as usize;
            if table >= ctx.query.table_count() {
                return Err(format!("scan of unknown table occurrence {table}"));
            }
            if hot.set != NodeSet::single(table) {
                return Err(format!("scan of table {table} covers set {}", hot.set));
            }
            if hot.has_grouping() {
                return Err(format!("scan of table {table} flagged has_grouping"));
            }
            Ok(Derived {
                applied: 0,
                visible: ctx.query.tables[table].attrs.clone(),
            })
        }
        PlanNode::Apply {
            op,
            op_idx,
            pred,
            left,
            right,
        } => {
            let ld = walk(ctx, store, left)?;
            let rd = walk(ctx, store, right)?;
            let (l, r) = (&store[left], &store[right]);
            if !l.set.is_disjoint(r.set) {
                return Err(format!(
                    "apply joins overlapping inputs {} and {}",
                    l.set, r.set
                ));
            }
            if hot.set != l.set.union(r.set) {
                return Err(format!(
                    "apply set {} is not the union of {} and {}",
                    hot.set, l.set, r.set
                ));
            }
            let idx = op_idx as usize;
            let Some(info) = ctx.cq.ops.get(idx) else {
                return Err(format!("apply of unknown operator {idx}"));
            };
            // `OptContext::new` caps the operators at 64, so the shift of
            // an index it holds does not overflow.
            let bit = 1u64 << idx;
            if ld.applied & rd.applied != 0 || (ld.applied | rd.applied) & bit != 0 {
                return Err(format!(
                    "an operator applied twice under the apply of operator {idx}"
                ));
            }
            if info.op != op {
                return Err(format!(
                    "operator {idx} ({}) applied under a {op} node",
                    info.op
                ));
            }
            let normal = info.l_tes.is_subset_of(l.set) && info.r_tes.is_subset_of(r.set);
            let swapped = info.l_tes.is_subset_of(r.set) && info.r_tes.is_subset_of(l.set);
            if !(normal || (swapped && op.is_commutative())) {
                return Err(format!(
                    "operator {idx} TES ({}, {}) violated at cut ({}, {})",
                    info.l_tes, info.r_tes, l.set, r.set
                ));
            }
            for rule in &info.rules {
                if rule.when.intersects(hot.set) && !rule.then.is_subset_of(hot.set) {
                    return Err(format!(
                        "operator {idx} conflict rule {} → {} violated by {}",
                        rule.when, rule.then, hot.set
                    ));
                }
            }
            if op == OpKind::GroupJoin && r.has_grouping() {
                return Err("groupjoin applied to a pre-aggregated right input".into());
            }
            for &(a, _, b) in pred.of(&plan.lanes.terms) {
                if !ld.visible.contains(&a) {
                    return Err(format!("predicate attribute {a} not visible on the left"));
                }
                if !rd.visible.contains(&b) {
                    return Err(format!("predicate attribute {b} not visible on the right"));
                }
            }
            let mut gj_args = info.gj_aggs.iter().flat_map(|c| c.referenced());
            if let Some(a) = gj_args.find(|a| !rd.visible.contains(a)) {
                return Err(format!("groupjoin argument {a} not visible on the right"));
            }
            if hot.has_grouping() != (l.has_grouping() || r.has_grouping()) {
                return Err("has_grouping flag inconsistent with inputs".into());
            }
            if hot.cost + 1e-6 < l.cost + r.cost {
                return Err(format!(
                    "apply cost {} below the cost of its inputs {} + {}",
                    hot.cost, l.cost, r.cost
                ));
            }
            let mut visible = ld.visible;
            if op.preserves_right() {
                visible.extend(rd.visible);
            }
            visible.extend(info.gj_aggs.iter().map(|c| c.out));
            Ok(Derived {
                applied: ld.applied | rd.applied | bit,
                visible,
            })
        }
        PlanNode::Group { input } => {
            let applied = walk(ctx, store, input)?.applied;
            let inp = &store[input];
            if inp.is_group() {
                return Err("grouping stacked directly on a grouping".into());
            }
            if hot.set != inp.set {
                return Err(format!(
                    "grouping changes the relation set ({} vs {})",
                    hot.set, inp.set
                ));
            }
            if !ctx.can_group(hot.set) {
                return Err(format!(
                    "grouping over {} with non-decomposable or split aggregates",
                    hot.set
                ));
            }
            // Its grouping attributes are its one key.
            let mut keys = plan.keys().iter().map(|k| ctx.decode_key(k).collect());
            let attrs: Vec<AttrId> = keys.next().unwrap_or_default();
            if keys.next().is_some() || attrs != ctx.compute_gplus(hot.set) {
                return Err(format!(
                    "grouping attributes {attrs:?} differ from G⁺({})",
                    hot.set
                ));
            }
            if !hot.has_grouping() {
                return Err("grouping node not flagged has_grouping".into());
            }
            if hot.cost + 1e-6 < inp.cost {
                return Err(format!(
                    "grouping cost {} below its input cost {}",
                    hot.cost, inp.cost
                ));
            }
            Ok(Derived {
                applied,
                visible: attrs,
            })
        }
    }
}

/// [`validate_subplan`] plus the completeness conditions: the plan covers
/// every relation of the query (each exactly once — implied by coverage
/// plus the per-node disjointness checks) and applies every operator.
pub fn validate_complete_plan(ctx: &OptContext, store: &Memo, id: PlanId) -> Result<(), String> {
    let applied = walk(ctx, store, id)?.applied;
    let full = NodeSet::full(ctx.query.table_count());
    if store[id].set != full {
        return Err(format!(
            "complete plan covers {} instead of all {} relations",
            store[id].set,
            ctx.query.table_count()
        ));
    }
    let want = applied_ops_mask(ctx.cq.ops.len());
    if applied != want {
        return Err(format!(
            "complete plan applies the operators {applied:#x}, not all of {want:#x}"
        ));
    }
    Ok(())
}

/// The width-safe all-operators-applied mask: `n_ops` low bits set — the
/// operators a complete plan applies, each exactly once, as
/// [`validate_complete_plan`] derives them from its tree. Operator
/// masks are `u64`, which caps the operator count at 64; [`OptContext::new`]
/// asserts the bound so a too-wide query fails loudly instead of letting
/// `1 << op_idx` wrap.
pub fn applied_ops_mask(n_ops: usize) -> u64 {
    assert!(
        n_ops <= 64,
        "applied-operator tracking supports at most 64 operators, got {n_ops}"
    );
    if n_ops == 0 {
        0
    } else {
        u64::MAX >> (64 - n_ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyset::KeySet;
    use crate::memo::{Memo, PlanCold, PlanHot, PlanNode, Span};
    use crate::plan::{make_apply, make_scan};
    use crate::Scratch;
    use dpnext_algebra::{AttrGen, AttrId, CmpOp, JoinPred};
    use dpnext_query::{GroupSpec, OpTree, Query, QueryTable};

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    /// `r(a0, a1) ⋈_{a1 = a2} s(a2, a3)` grouped by `a0`.
    fn ctx2() -> OptContext<'static> {
        let t0 = QueryTable::new("r", vec![a(0), a(1)], 10.0);
        let t1 = QueryTable::new("s", vec![a(2), a(3)], 10.0);
        let tree = OpTree::binary(
            OpKind::Join,
            JoinPred::eq(a(1), a(2)),
            OpTree::rel(0),
            OpTree::rel(1),
        );
        let mut gen = AttrGen::new(100);
        let spec = GroupSpec::new(vec![a(0)], vec![], &mut gen);
        OptContext::new(Query::new(vec![t0, t1], tree, Some(spec)))
    }

    #[test]
    fn engine_built_plan_validates() {
        let ctx = ctx2();
        let mut memo = Memo::new();
        let mut scratch = Scratch::new(&ctx);
        let l = make_scan(&ctx, &mut memo, 0);
        let r = make_scan(&ctx, &mut memo, 1);
        let j = make_apply(&ctx, &mut scratch, &mut memo, 0, l, r).unwrap();
        validate_subplan(&ctx, &memo, l).unwrap();
        validate_complete_plan(&ctx, &memo, j).unwrap();
    }

    #[test]
    fn duplicate_relation_is_rejected() {
        let ctx = ctx2();
        let mut memo = Memo::new();
        let mut scratch = Scratch::new(&ctx);
        let l = make_scan(&ctx, &mut memo, 0);
        let r = make_scan(&ctx, &mut memo, 1);
        let j = make_apply(&ctx, &mut scratch, &mut memo, 0, l, r).unwrap();
        // Corrupt the tree: the right child now covers relation 0 too.
        let mut bogus = *memo.plan(j).cold;
        if let PlanNode::Apply { right, .. } = &mut bogus.node {
            *right = l;
        }
        let id = memo.push_row(memo[j], bogus);
        let err = validate_complete_plan(&ctx, &memo, id).unwrap_err();
        assert!(err.contains("overlapping"), "{err}");
    }

    /// `(r ⋈_{a1 = a2} s) ⋈_{a3 = a4} t`, with the plans of its scans and
    /// of its lower join (operator 0 of 2) built.
    fn three_table_plans() -> (OptContext<'static>, Memo, [PlanId; 4]) {
        let table = |name, i| QueryTable::new(name, vec![a(i), a(i + 1)], 10.0);
        let tree = OpTree::binary(
            OpKind::Join,
            JoinPred::eq(a(3), a(4)),
            OpTree::binary(
                OpKind::Join,
                JoinPred::eq(a(1), a(2)),
                OpTree::rel(0),
                OpTree::rel(1),
            ),
            OpTree::rel(2),
        );
        let tables = vec![table("r", 0), table("s", 2), table("t", 4)];
        let ctx = OptContext::new(Query::new(tables, tree, None));
        let mut memo = Memo::new();
        let mut scratch = Scratch::new(&ctx);
        let scans = [0, 1, 2].map(|i| make_scan(&ctx, &mut memo, i));
        let j = make_apply(&ctx, &mut scratch, &mut memo, 0, scans[0], scans[1]).unwrap();
        validate_subplan(&ctx, &memo, j).unwrap();
        (ctx, memo, [scans[0], scans[1], scans[2], j])
    }

    /// A plan of the full set whose top node applies the lower join's
    /// operator again, over that join and `t`: it misses the top join.
    #[test]
    fn missing_operator_is_rejected() {
        let (ctx, mut memo, [_, _, t, j]) = three_table_plans();
        let mut hot = memo[j];
        hot.set = NodeSet::full(3);
        let mut bogus = *memo.plan(j).cold;
        if let PlanNode::Apply { left, right, .. } = &mut bogus.node {
            (*left, *right) = (j, t);
        }
        let id = memo.push_row(hot, bogus);
        let err = validate_complete_plan(&ctx, &memo, id).unwrap_err();
        assert!(err.contains("applied twice"), "{err}");
    }

    /// The lower join with its node naming the top join's operator, whose
    /// TES the cut `(r, s)` does not hold.
    #[test]
    fn an_operator_other_than_the_nodes_own_is_rejected() {
        let (ctx, mut memo, [.., j]) = three_table_plans();
        let mut bogus = *memo.plan(j).cold;
        if let PlanNode::Apply { op_idx, .. } = &mut bogus.node {
            *op_idx = 1;
        }
        let id = memo.push_row(memo[j], bogus);
        let err = validate_subplan(&ctx, &memo, id).unwrap_err();
        assert!(err.contains("operator 1 TES"), "{err}");
    }

    /// `(r ⋉_{a1 = a2} s) ⋈_{a0 = a4} t` with the join's predicate edited
    /// to `a2 = a4`: the semijoin on its left hides `a2`.
    #[test]
    fn a_predicate_on_a_hidden_attribute_is_rejected() {
        let table = |name, i| QueryTable::new(name, vec![a(i), a(i + 1)], 10.0);
        let semi = OpTree::binary(
            OpKind::Semi,
            JoinPred::eq(a(1), a(2)),
            OpTree::rel(0),
            OpTree::rel(1),
        );
        let tree = OpTree::binary(OpKind::Join, JoinPred::eq(a(0), a(4)), semi, OpTree::rel(2));
        let tables = vec![table("r", 0), table("s", 2), table("t", 4)];
        let ctx = OptContext::new(Query::new(tables, tree, None));
        let mut memo = Memo::new();
        let mut scratch = Scratch::new(&ctx);
        let [r, s, t] = [0, 1, 2].map(|i| make_scan(&ctx, &mut memo, i));
        let semi = make_apply(&ctx, &mut scratch, &mut memo, 0, r, s).unwrap();
        let top = make_apply(&ctx, &mut scratch, &mut memo, 1, semi, t).unwrap();
        validate_complete_plan(&ctx, &memo, top).unwrap();
        let terms = &mut memo.lanes.terms;
        let hidden = Span::new(terms.len(), 1);
        terms.push((a(2), CmpOp::Eq, a(4)));
        let mut bogus = *memo.plan(top).cold;
        if let PlanNode::Apply { pred, .. } = &mut bogus.node {
            *pred = hidden;
        }
        let id = memo.push_row(memo[top], bogus);
        let err = validate_complete_plan(&ctx, &memo, id).unwrap_err();
        assert!(err.contains("a2 not visible on the left"), "{err}");
    }

    #[test]
    fn illegal_grouping_placement_is_rejected() {
        let ctx = ctx2();
        let mut memo = Memo::new();
        let l = make_scan(&ctx, &mut memo, 0);
        // A hand-rolled grouping keyed by the scan's keys (none) and one
        // keyed by the wrong grouping attributes: `a1` alone, where
        // `G⁺({r})` is `{a0, a1}`.
        let scan = memo[l];
        let hot = PlanHot::new(scan.set, scan.card, scan.cost + scan.card, true, true, true);
        let cold = PlanCold {
            node: PlanNode::Group { input: l },
            ..*memo.plan(l).cold
        };
        let id = memo.push_row(hot, cold);
        let err = validate_subplan(&ctx, &memo, id).unwrap_err();
        assert!(err.contains("[] differ from G⁺"), "{err}");
        let mut wrong = KeySet::new(ctx.key_width());
        let mut key = Vec::new();
        crate::context::assign_key_mask(&ctx.key_attrs, &mut key, &[a(1)]);
        wrong.insert(&key);
        let id = memo.push_plan(
            hot,
            PlanNode::Group { input: l },
            wrong.as_ref(),
            ctx.fresh_agg.as_ref(),
        );
        let err = validate_subplan(&ctx, &memo, id).unwrap_err();
        assert!(err.contains("differ from G⁺"), "{err}");
    }

    #[test]
    fn tes_violation_is_rejected() {
        let ctx = ctx2();
        let mut memo = Memo::new();
        let mut scratch = Scratch::new(&ctx);
        let l = make_scan(&ctx, &mut memo, 0);
        let r = make_scan(&ctx, &mut memo, 1);
        let j = make_apply(&ctx, &mut scratch, &mut memo, 0, l, r).unwrap();
        // Swap the children: the inner join is commutative, so the TES
        // check passes both ways — but the predicate attribute visibility
        // derived from the tree flags the swap (left attrs now come from
        // the right child).
        let mut bogus = *memo.plan(j).cold;
        if let PlanNode::Apply { left, right, .. } = &mut bogus.node {
            std::mem::swap(left, right);
        }
        let id = memo.push_row(memo[j], bogus);
        assert!(validate_complete_plan(&ctx, &memo, id).is_err());
    }
}
