//! Finalization: add (or eliminate, §3.2) the top grouping, and compile
//! plans into executable algebra trees.

use crate::aggstate::{final_agg_vector, final_map_exprs, group_agg_calls};
use crate::card::{distinct_in, grouping_card};
use crate::context::OptContext;
use crate::infer::needs_grouping;
use crate::memo::{Memo, PlanId, PlanNode};
use dpnext_algebra::AlgExpr;
use dpnext_query::OpKind;

/// A complete, costed, executable plan.
#[derive(Debug, Clone)]
pub struct FinalPlan {
    /// Executable operator tree of the plan.
    pub root: AlgExpr,
    /// Total `C_out`, including the top grouping if present.
    pub cost: f64,
    /// Estimated result cardinality.
    pub card: f64,
    /// Whether a top grouping was required (false = eliminated per
    /// Eqv. 42, replaced by a duplicate-preserving projection).
    pub top_grouping: bool,
}

/// Compile a DP plan into an executable algebra tree. Outerjoins receive
/// the `F¹({⊥})`/`c : 1` default vectors for every pre-aggregated column of
/// a padded side (the generalized outerjoins of §2.2).
pub fn compile(ctx: &OptContext, memo: &Memo, id: PlanId) -> AlgExpr {
    let plan = memo.plan(id);
    match plan.cold.node {
        PlanNode::Scan { table } => AlgExpr::scan(ctx.query.tables[table as usize].alias.clone()),
        // The node stores no aggregation vector: the two states around it
        // determine the calls.
        PlanNode::Group { input } => AlgExpr::GroupBy {
            input: Box::new(compile(ctx, memo, input)),
            attrs: ctx.decode_key(plan.grouping_key()).collect(),
            aggs: group_agg_calls(ctx, memo.plan(input).agg(), plan.agg(), plan.hot.set),
        },
        PlanNode::Apply {
            op,
            op_idx,
            pred,
            left,
            right,
        } => {
            let l = Box::new(compile(ctx, memo, left));
            let r = Box::new(compile(ctx, memo, right));
            let pred = plan.lanes.join_pred(pred);
            match op {
                OpKind::Join => AlgExpr::InnerJoin {
                    left: l,
                    right: r,
                    pred,
                },
                OpKind::Semi => AlgExpr::SemiJoin {
                    left: l,
                    right: r,
                    pred,
                },
                OpKind::Anti => AlgExpr::AntiJoin {
                    left: l,
                    right: r,
                    pred,
                },
                OpKind::LeftOuter => AlgExpr::LeftOuterJoin {
                    left: l,
                    right: r,
                    pred,
                    defaults: memo.plan(right).agg().padding_defaults(ctx.aggs()),
                },
                OpKind::FullOuter => AlgExpr::FullOuterJoin {
                    left: l,
                    right: r,
                    pred,
                    d1: memo.plan(left).agg().padding_defaults(ctx.aggs()),
                    d2: memo.plan(right).agg().padding_defaults(ctx.aggs()),
                },
                OpKind::GroupJoin => AlgExpr::GroupJoin {
                    left: l,
                    right: r,
                    pred,
                    aggs: ctx.cq.ops[op_idx as usize].gj_aggs.clone(),
                    empty_defaults: vec![],
                },
            }
        }
    }
}

/// The `(cost, card, top_grouping)` triple [`finalize`] would assign to a
/// complete plan, computed **without compiling** the algebra tree: whether
/// the top grouping is needed (Eqv. 42) and what it adds to `C_out`. The
/// enumeration's keep-best fold runs this per complete candidate — on
/// EA-All the losing complete plans outnumber the winners by orders of
/// magnitude, so deferring tree compilation to the single final winner
/// takes the whole `compile` walk off the enumeration hot path.
#[inline]
pub fn final_numbers(ctx: &OptContext, memo: &Memo, id: PlanId) -> (f64, f64, bool) {
    let plan = memo.plan(id);
    let Some(g) = &ctx.query.grouping else {
        return (plan.hot.cost, plan.hot.card, false);
    };
    if needs_grouping(&ctx.group_mask, plan.hot.duplicate_free(), plan.keys()) {
        let gcard = grouping_card(
            plan.hot.card,
            g.group_by
                .iter()
                .map(|&a| distinct_in(ctx.distinct(a), plan.hot.card)),
        );
        (plan.hot.cost + gcard, gcard, true)
    } else {
        (plan.hot.cost, plan.hot.card, false)
    }
}

/// Finalize a plan covering all relations: attach the top grouping `Γ_G`
/// with the state-adjusted aggregation vector, or — when `G` contains a
/// key of a duplicate-free result — replace it by a map + projection
/// (Eqv. 42, `InsertTopLevelPlan` of Fig. 9).
pub fn finalize(ctx: &OptContext, memo: &Memo, id: PlanId) -> FinalPlan {
    let plan = memo.plan(id);
    let mut root = compile(ctx, memo, id);
    let (cost, card, top_grouping) = final_numbers(ctx, memo, id);
    let Some(g) = &ctx.query.grouping else {
        return FinalPlan {
            root,
            cost,
            card,
            top_grouping,
        };
    };

    if top_grouping {
        let aggs = final_agg_vector(ctx, plan.agg());
        root = AlgExpr::GroupBy {
            input: Box::new(root),
            attrs: g.group_by.clone(),
            aggs,
        };
    } else {
        // Each group holds exactly one tuple: a map computes the aggregate
        // values per row; the duplicate-preserving projection is free.
        let exts = final_map_exprs(ctx, plan.agg());
        if !exts.is_empty() {
            root = AlgExpr::Map {
                input: Box::new(root),
                exts,
            };
        }
    }

    if !g.post.is_empty() {
        root = AlgExpr::Map {
            input: Box::new(root),
            exts: g.post.clone(),
        };
    }
    root = AlgExpr::Project {
        input: Box::new(root),
        attrs: g.output.clone(),
        dedup: false,
    };
    FinalPlan {
        root,
        cost,
        card,
        top_grouping,
    }
}
