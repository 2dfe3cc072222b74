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

use crate::algo::applied_ops_mask;
use crate::context::OptContext;
use crate::memo::{Memo, PlanId, PlanNode};
use dpnext_hypergraph::NodeSet;
use dpnext_query::OpKind;

/// Validate a (possibly partial) plan rooted at `id`. Checks, per node:
///
/// * scans cover exactly their single table occurrence;
/// * apply nodes join disjoint inputs whose union matches the stored set,
///   with disjoint applied-operator masks, exactly the node's own operator
///   applied at the cut and of the node's kind, its `(L-TES, R-TES)`
///   satisfied in the node's physical orientation (or swapped, for
///   commutative operators), its conflict rules satisfied by the union,
///   and predicate attributes visible in the inputs;
/// * groupjoins have grouping-free right inputs;
/// * groupings sit on non-grouped inputs over sets that may be grouped
///   (`can_group`), with exactly the grouping attributes `G⁺(S)`;
/// * costs are finite, non-negative and monotone in the children, and
///   `has_grouping` flags are consistent.
///
/// Returns a description of the first violation found.
pub fn validate_subplan(ctx: &OptContext, store: &Memo, id: PlanId) -> Result<(), String> {
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
            if hot.applied != 0 {
                return Err(format!("scan of table {table} claims applied operators"));
            }
            if hot.has_grouping() {
                return Err(format!("scan of table {table} flagged has_grouping"));
            }
            Ok(())
        }
        PlanNode::Apply {
            op,
            op_idx,
            pred,
            left,
            right,
        } => {
            validate_subplan(ctx, store, left)?;
            validate_subplan(ctx, store, right)?;
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
            if l.applied & r.applied != 0 {
                return Err("operator applied twice across join inputs".into());
            }
            let here = hot.applied & !(l.applied | r.applied);
            if here == 0 {
                return Err(format!("apply over {} applies no operator", hot.set));
            }
            // `OptContext::new` caps the operators at 64, so the shift of
            // an index it holds does not overflow.
            let idx = op_idx as usize;
            let info = match ctx.cq.ops.get(idx) {
                Some(info) if here == 1 << idx => info,
                _ => {
                    return Err(format!(
                        "apply of operator {idx} applies the operators {here:#x} at its cut"
                    ))
                }
            };
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
            let (lvisible, rvisible) = (store.plan(left).visible(), store.plan(right).visible());
            for &(a, _, b) in pred.of(&plan.lanes.terms) {
                if !lvisible.contains(&a) {
                    return Err(format!("predicate attribute {a} not visible on the left"));
                }
                if !rvisible.contains(&b) {
                    return Err(format!("predicate attribute {b} not visible on the right"));
                }
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
            Ok(())
        }
        PlanNode::Group { attrs, input, .. } => {
            validate_subplan(ctx, store, input)?;
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
            if hot.applied != inp.applied {
                return Err("grouping changes the applied-operator mask".into());
            }
            if !ctx.can_group(hot.set) {
                return Err(format!(
                    "grouping over {} with non-decomposable or split aggregates",
                    hot.set
                ));
            }
            let attrs = attrs.of(&plan.lanes.attrs);
            if attrs != ctx.compute_gplus(hot.set) {
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
            Ok(())
        }
    }
}

/// [`validate_subplan`] plus the completeness conditions: the plan covers
/// every relation of the query (each exactly once — implied by coverage
/// plus the per-node disjointness checks) and applies every operator.
pub fn validate_complete_plan(ctx: &OptContext, store: &Memo, id: PlanId) -> Result<(), String> {
    validate_subplan(ctx, store, id)?;
    let plan = &store[id];
    let full = NodeSet::full(ctx.query.table_count());
    if plan.set != full {
        return Err(format!(
            "complete plan covers {} instead of all {} relations",
            plan.set,
            ctx.query.table_count()
        ));
    }
    let want = applied_ops_mask(ctx.cq.ops.len());
    if plan.applied != want {
        return Err(format!(
            "complete plan applied mask {:#x} misses operators (want {want:#x})",
            plan.applied
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::{Memo, PlanCold, PlanHot, PlanNode};
    use crate::plan::{make_apply, make_scan};
    use crate::Scratch;
    use dpnext_algebra::{AttrGen, AttrId, JoinPred};
    use dpnext_query::{GroupSpec, OpTree, Query, QueryTable};

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    /// `r(a0, a1) ⋈_{a1 = a2} s(a2, a3)` grouped by `a0`.
    fn ctx2() -> OptContext {
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

    #[test]
    fn missing_operator_is_rejected() {
        let ctx = ctx2();
        let mut memo = Memo::new();
        let mut scratch = Scratch::new(&ctx);
        let l = make_scan(&ctx, &mut memo, 0);
        let r = make_scan(&ctx, &mut memo, 1);
        let j = make_apply(&ctx, &mut scratch, &mut memo, 0, l, r).unwrap();
        let mut bogus = memo[j];
        bogus.applied = 0;
        let id = memo.push_row(bogus, *memo.plan(j).cold);
        // The apply node no longer applies anything at its cut.
        let err = validate_complete_plan(&ctx, &memo, id).unwrap_err();
        assert!(err.contains("applies no operator"), "{err}");
    }

    /// The lower join of `(r ⋈_{a1 = a2} s) ⋈_{a3 = a4} t` (operator 0 of
    /// 2), copied into a new row whose `applied` is edited to `applied`.
    fn lower_join_applying(applied: u64) -> (OptContext, Memo, PlanId) {
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
        let l = make_scan(&ctx, &mut memo, 0);
        let r = make_scan(&ctx, &mut memo, 1);
        let j = make_apply(&ctx, &mut scratch, &mut memo, 0, l, r).unwrap();
        validate_subplan(&ctx, &memo, j).unwrap();
        let mut bogus = memo[j];
        bogus.applied = applied;
        let id = memo.push_row(bogus, *memo.plan(j).cold);
        (ctx, memo, id)
    }

    #[test]
    fn a_second_operator_at_one_cut_is_rejected() {
        let (ctx, memo, id) = lower_join_applying(0b11);
        let err = validate_subplan(&ctx, &memo, id).unwrap_err();
        assert!(err.contains("applies the operators 0x3"), "{err}");
    }

    #[test]
    fn an_operator_other_than_the_nodes_own_is_rejected() {
        let (ctx, memo, id) = lower_join_applying(0b10);
        let err = validate_subplan(&ctx, &memo, id).unwrap_err();
        assert!(err.contains("applies the operators 0x2"), "{err}");
    }

    #[test]
    fn illegal_grouping_placement_is_rejected() {
        let ctx = ctx2();
        let mut memo = Memo::new();
        let l = make_scan(&ctx, &mut memo, 0);
        // A hand-rolled grouping with the wrong grouping attributes.
        let scan = memo[l];
        let hot = PlanHot::new(
            scan.set,
            scan.card,
            scan.cost + scan.card,
            scan.applied,
            true,
            true,
            true,
        );
        let cold = PlanCold {
            node: PlanNode::Group {
                attrs: memo.lanes.push_attrs(&[a(3)]),
                input: l,
            },
            ..*memo.plan(l).cold
        };
        let id = memo.push_row(hot, cold);
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
        // flags the swap (left attrs now come from the right child).
        let mut bogus = *memo.plan(j).cold;
        if let PlanNode::Apply { left, right, .. } = &mut bogus.node {
            std::mem::swap(left, right);
        }
        let id = memo.push_row(memo[j], bogus);
        assert!(validate_complete_plan(&ctx, &memo, id).is_err());
    }
}
