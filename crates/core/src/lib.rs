//! # dpnext-core
//!
//! The paper's primary contribution: a DP-based plan generator that
//! explores **join ordering and grouping placement simultaneously**
//! (Eich & Moerkotte, *Dynamic Programming: The Next Step*, ICDE 2015).
//!
//! Public entry point: [`optimize`] with an [`Algorithm`]:
//!
//! * [`Algorithm::DPhyp`] — the baseline: join reordering only,
//! * [`Algorithm::EaAll`] — complete eager-aggregation enumeration (Fig. 9),
//! * [`Algorithm::EaPrune`] — with optimality-preserving dominance pruning
//!   (Figs. 13/14),
//! * [`Algorithm::H1`] / [`Algorithm::H2`] — the two heuristics
//!   (Figs. 10/12),
//! * [`Algorithm::Adaptive`] — EA-Prune under a budget of plans and a
//!   deadline, degrading exact → linearized → greedy ([`ladder`]).
//!
//! Optimized plans compile into executable [`dpnext_algebra::AlgExpr`]
//! trees, so every transformation can be validated against the canonical
//! plan on real data.
#![warn(missing_docs)]

pub mod aggstate;
pub mod algo;
mod budget;
pub mod context;
pub mod explain;
pub mod finalize;
pub mod ladder;
pub mod memo;
pub mod optrees;
pub mod plan;
pub mod validate;

#[cfg(test)]
mod tests;

pub use algo::{
    all_subplans, applied_ops_mask, optimize, optimize_into, optimize_prepared, optimize_with,
    Algorithm, OptimizeOptions, Optimized, UNIT_MAX_PLANS,
};
pub use context::{OptContext, Scratch};
pub use explain::explain;
pub use finalize::{compile, finalize, FinalPlan};
pub use memo::{
    AdaptiveMode, Degradation, Lanes, Memo, MemoMark, MemoStats, PlanCold, PlanHot, PlanId,
    PlanNode, PlanRef, Span, Term, ThinBy, ARENA_ROW_BYTES,
};
pub use plan::{
    apply_staged, make_apply, make_group, make_scan, stage_apply, SideFacts, StagedApply,
};
pub use validate::{validate_complete_plan, validate_subplan};
