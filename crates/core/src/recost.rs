//! Re-cost a chosen plan's *structure* under a different set of statistics.
//!
//! The q-error robustness study needs the answer to: "the optimizer picked
//! this plan believing the perturbed stats — what does that plan actually
//! cost under the true stats?" Reading the stored `cost` field back is the
//! wrong answer (it was computed from the perturbed cardinalities), and
//! hand-rolling a second cost walk would drift from the real model. So
//! [`recost_plan`] **rebuilds** the chosen plan tree node by node through
//! the real constructors ([`crate::make_scan`] / [`crate::make_apply`] /
//! [`crate::make_group`]) against an [`OptContext`] built from the
//! true-stat query, into a fresh throwaway memo. Every cardinality,
//! selectivity, key bound and grouping estimate is then the production
//! code path's own number — bit-comparable with a plan the optimizer would
//! have chosen under true stats, which is what makes the drift ratio
//! `recost(chosen) / true_optimum` meaningful (and `>= 1` by construction
//! when the optimum is exact).
//!
//! The perturbed and true queries must be *structurally identical* (same
//! tables, operators and operator indices — only `card`/`distinct`/`sel`
//! numbers may differ), which [`dpnext_cost`]'s `StatsPerturbation`
//! guarantees: it rewrites numbers in a clone of the query and touches
//! nothing else.

use crate::context::{OptContext, Scratch};
use crate::finalize::final_numbers;
use crate::memo::{Memo, PlanId, PlanNode};
use crate::plan::{make_apply, make_group, make_scan};

/// The true-stat numbers of a rebuilt plan (see [`recost_plan`]): the full
/// `C_out` including the top grouping, and the final cardinality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recosted {
    /// Total `C_out` of the rebuilt plan under the re-costing context's
    /// statistics, top grouping included (matches
    /// [`crate::finalize::final_numbers`] semantics).
    pub cost: f64,
    /// Estimated result cardinality under the re-costing context's
    /// statistics (before any top grouping).
    pub card: f64,
}

/// Rebuild the plan `id` of `src` inside a fresh memo against `ctx` and
/// return its true-stat cost/cardinality. `ctx` must be built from a query
/// structurally identical to the one that produced `src` (same operator
/// indices); only statistics may differ. Errors describe a structural
/// mismatch — a plan that cannot be rebuilt was not produced from a
/// stats-only perturbation of `ctx`'s query.
pub fn recost_plan(ctx: &OptContext, src: &Memo, id: PlanId) -> Result<Recosted, String> {
    let mut memo = Memo::new();
    let mut scratch = Scratch::new(ctx);
    let new_id = rebuild(ctx, src, id, &mut memo, &mut scratch)?;
    let (cost, card, _top) = final_numbers(ctx, &memo, new_id);
    Ok(Recosted { cost, card })
}

/// Recursively rebuild `id` of `src` into `memo`, returning the new id.
fn rebuild(
    ctx: &OptContext,
    src: &Memo,
    id: PlanId,
    memo: &mut Memo,
    scratch: &mut Scratch,
) -> Result<PlanId, String> {
    let plan = src.plan(id);
    match plan.cold.node {
        PlanNode::Scan { table } => Ok(make_scan(ctx, memo, table as usize)),
        PlanNode::Group { input, .. } => {
            let new_input = rebuild(ctx, src, input, memo, scratch)?;
            Ok(make_group(ctx, scratch, memo, new_input))
        }
        PlanNode::Apply {
            op, left, right, ..
        } => {
            let applied = plan.hot.applied;
            let l_applied = src.plan(left).hot.applied;
            let r_applied = src.plan(right).hot.applied;
            let new_left = rebuild(ctx, src, left, memo, scratch)?;
            let new_right = rebuild(ctx, src, right, memo, scratch)?;
            // The operators applied at *this* cut are exactly the bits the
            // node added over its children. The primary operator (whose
            // kind the node carries) is the lowest matching-kind bit; the
            // rest ride along as `extra` merged predicates — selectivities
            // multiply commutatively, so the split does not affect cost.
            let here = applied ^ (l_applied | r_applied);
            let mut primary: Option<usize> = None;
            let mut extra: Vec<usize> = Vec::new();
            for idx in 0..ctx.cq.ops.len() {
                if here & (1u64 << idx) == 0 {
                    continue;
                }
                if primary.is_none() && ctx.cq.ops[idx].op == op {
                    primary = Some(idx);
                } else {
                    extra.push(idx);
                }
            }
            let Some(primary) = primary else {
                return Err(format!(
                    "apply node has no {op:?} operator among its own bits {here:#x}"
                ));
            };
            make_apply(ctx, scratch, memo, primary, &extra, new_left, new_right).ok_or_else(|| {
                format!("operator {primary} not re-applicable (structural mismatch)")
            })
        }
    }
}
