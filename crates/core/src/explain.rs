//! EXPLAIN output: the logical plan annotated with the optimizer's
//! per-node estimates (cardinality, cumulative `C_out`, keys, aggregation
//! state) — what a `EXPLAIN` statement would print for the chosen plan.

use crate::aggstate::AggPos;
use crate::context::OptContext;
use crate::memo::{Memo, PlanId, PlanNode};
use dpnext_algebra::AttrId;
use std::fmt::Write;

/// Width of the operator column, in chars.
const LABEL_WIDTH: usize = 52;

/// Render an annotated explanation of a logical plan.
pub fn explain(ctx: &OptContext, memo: &Memo, id: PlanId) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<LABEL_WIDTH$} {:>12} {:>12}  properties",
        "operator", "est. rows", "C_out"
    );
    walk(ctx, memo, id, 0, &mut out);
    out
}

/// Write the line of `id` and then its inputs' straight into `out`: no
/// per-node string is built. Writing into a `String` cannot fail.
fn walk(ctx: &OptContext, memo: &Memo, id: PlanId, depth: usize, out: &mut String) {
    let plan = memo.plan(id);
    let start = out.len();
    for _ in 0..depth {
        out.push_str("  ");
    }
    match plan.cold.node {
        PlanNode::Scan { table } => {
            let _ = write!(out, "Scan {}", ctx.query.tables[table as usize].alias);
        }
        PlanNode::Apply { op, pred, .. } => {
            let _ = write!(out, "{op} [");
            for (i, (l, cmp, r)) in pred.of(&plan.lanes.terms).iter().enumerate() {
                let sep = if i > 0 { " ∧ " } else { "" };
                let _ = write!(out, "{sep}{l}{cmp}{r}");
            }
            out.push(']');
        }
        PlanNode::Group { attrs, .. } => {
            out.push_str("Γ [");
            write_attrs(out, attrs.of(&plan.lanes.attrs));
            out.push(']');
        }
    }
    // Pad the label to its column by the chars just written (`Γ` and the
    // operator symbols are one char and several bytes).
    let written = out[start..].chars().count();
    for _ in written..LABEL_WIDTH {
        out.push(' ');
    }
    let _ = write!(out, " {:>12.1} {:>12.1}  ", plan.hot.card, plan.hot.cost);
    let mut sep = "";
    if plan.hot.duplicate_free() {
        out.push_str("dup-free");
        sep = ", ";
    }
    if !plan.keys().is_empty() {
        let _ = write!(out, "{sep}keys=");
        for (i, key) in plan.keys().iter().enumerate() {
            out.push_str(if i > 0 { " {" } else { "{" });
            write_attrs(out, key);
            out.push('}');
        }
        sep = ", ";
    }
    let agg = plan.agg();
    let partials = agg
        .pos
        .iter()
        .filter(|p| matches!(p, AggPos::Partial { .. }))
        .count();
    if partials > 0 {
        let _ = write!(out, "{sep}{partials} partial agg(s)");
        sep = ", ";
    }
    if !agg.counts.is_empty() {
        let _ = write!(out, "{sep}{} count col(s)", agg.counts.len());
    }
    out.push('\n');
    match plan.cold.node {
        PlanNode::Scan { .. } => {}
        PlanNode::Apply { left, right, .. } => {
            walk(ctx, memo, left, depth + 1, out);
            walk(ctx, memo, right, depth + 1, out);
        }
        PlanNode::Group { input, .. } => walk(ctx, memo, input, depth + 1, out),
    }
}

/// Write `attrs` comma-separated.
fn write_attrs(out: &mut String, attrs: &[AttrId]) {
    for (i, a) in attrs.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}{a}");
    }
}
