//! EXPLAIN output: the logical plan annotated with the optimizer's
//! per-node estimates (cardinality, cumulative `C_out`, keys, aggregation
//! state) — what a `EXPLAIN` statement would print for the chosen plan.

use crate::aggstate::AggPos;
use crate::context::OptContext;
use crate::memo::{Memo, PlanId, PlanNode};
use std::fmt::Write;

/// Render an annotated explanation of a logical plan.
pub fn explain(ctx: &OptContext, memo: &Memo, id: PlanId) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<52} {:>12} {:>12}  properties",
        "operator", "est. rows", "C_out"
    );
    walk(ctx, memo, id, 0, &mut out);
    out
}

fn walk(ctx: &OptContext, memo: &Memo, id: PlanId, depth: usize, out: &mut String) {
    let plan = memo.plan(id);
    let pad = "  ".repeat(depth);
    let label = match plan.cold.node {
        PlanNode::Scan { table } => {
            format!("{pad}Scan {}", ctx.query.tables[table as usize].alias)
        }
        PlanNode::Apply { op, pred, .. } => {
            format!("{pad}{op} [{}]", plan.lanes.join_pred(pred))
        }
        PlanNode::Group { attrs, .. } => {
            let attrs: Vec<String> = attrs
                .of(&plan.lanes.attrs)
                .iter()
                .map(|a| a.to_string())
                .collect();
            format!("{pad}Γ [{}]", attrs.join(","))
        }
    };
    let mut props = Vec::new();
    if plan.hot.duplicate_free() {
        props.push("dup-free".to_string());
    }
    if !plan.keys().is_empty() {
        let keys: Vec<String> = plan
            .keys()
            .iter()
            .map(|k| {
                let attrs: Vec<String> = k.iter().map(|a| a.to_string()).collect();
                format!("{{{}}}", attrs.join(","))
            })
            .collect();
        props.push(format!("keys={}", keys.join(" ")));
    }
    let agg = plan.agg();
    let partials = agg
        .pos
        .iter()
        .filter(|p| matches!(p, AggPos::Partial { .. }))
        .count();
    if partials > 0 {
        props.push(format!("{partials} partial agg(s)"));
    }
    if !agg.counts.is_empty() {
        props.push(format!("{} count col(s)", agg.counts.len()));
    }
    let _ = writeln!(
        out,
        "{label:<52} {:>12.1} {:>12.1}  {}",
        plan.hot.card,
        plan.hot.cost,
        props.join(", ")
    );
    match plan.cold.node {
        PlanNode::Scan { .. } => {}
        PlanNode::Apply { left, right, .. } => {
            walk(ctx, memo, left, depth + 1, out);
            walk(ctx, memo, right, depth + 1, out);
        }
        PlanNode::Group { input, .. } => walk(ctx, memo, input, depth + 1, out),
    }
}
