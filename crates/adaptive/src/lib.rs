//! # dpnext-adaptive
//!
//! The large-query subsystem: budgeted plan search with graceful
//! degradation, so the optimizer **never blows up** — exact DP is superb
//! up to ~10 relations and hopeless at 30, where production optimizers
//! switch to greedy/linearized construction under an enumeration budget.
//!
//! [`optimize_adaptive`] runs a three-rung ladder on one shared
//! [`BudgetedSearch`] (one memo, one plan counter, one hard budget):
//!
//! 1. **Greedy** (always): a GOO-style pass merging the component pair
//!    with the smallest estimated join result, exploring the paper's
//!    eager/lazy aggregation variants at every merge. Cheap — the
//!    effective budget is clamped to a floor that always fits it — and
//!    its merge tree yields the linear relation order for rung 3.
//! 2. **Exact DP**: attempted only when a capped csg-cmp-pair count
//!    ([`count_ccps_capped`]) shows the full DPhyp stream plausibly fits,
//!    and run under **half** the remaining budget (the rest is reserved
//!    for rung 3, so an aborted exact stream cannot starve it); aborted
//!    mid-stream the moment its sub-budget runs out. Completing this rung
//!    makes the result the EA-Prune optimum; an aborted stream's plans
//!    still compete (reported as `PartialExact` when one wins).
//! 3. **Linearized DP**: exact DP restricted to connected contiguous
//!    intervals of the greedy linear order (`O(n³)` splits instead of
//!    exponential), never worse than the greedy plan because every greedy
//!    merge appears as an interval split.
//!
//! Every rung funnels through the same engine (`op_trees`, dominance
//! pruning, `C_out`), so aggregation placement stays explored at scale,
//! and `plans_built <= plan_budget` holds no matter which rung wins —
//! [`dpnext_core::MemoStats::plan_budget`],
//! [`dpnext_core::MemoStats::degradation`] (gate vs mid-stream budget
//! abort vs deadline abort) and [`dpnext_core::MemoStats::adaptive_mode`]
//! report what happened.
//!
//! A wall-clock [`OptimizeOptions::deadline`] rides the same ladder: the
//! exact and linearized rungs run under sub-deadlines checked once per
//! enumeration work unit (overshoot bounded by one unit), and the greedy
//! floor guarantees a valid plan exists before the clock is ever
//! consulted — a deadlined run *degrades*, it never fails.
//!
//! A per-request [`OptimizeOptions::memory_budget`] (bytes of live memo
//! state, [`dpnext_core::Memo::live_bytes`]) rides it the same way: the
//! exact rung runs under half the remaining byte headroom (mirroring the
//! 50/50 plan-budget split), the linearized rung under the full budget,
//! both checked once per work unit; the greedy rung runs unchecked, like
//! it ignores the clock, so a valid plan always exists. The abort is
//! recorded as [`Degradation::memory_aborted`].
//!
//! This crate sits **above** `dpnext-core` (it drives the core's budgeted
//! engine hook); the `dpnext::Optimizer` facade dispatches
//! `Algorithm::Adaptive` here.

mod greedy;
mod linear;

pub use greedy::{greedy_join, traversal_order, GreedyOutcome};
pub use linear::linearized_dp;

use dpnext_core::{
    explain, finalize, AdaptiveMode, BudgetedSearch, Degradation, Memo, OptContext,
    OptimizeOptions, Optimized, PlanId, UNIT_MAX_PLANS,
};
use dpnext_hypergraph::{count_ccps_capped, try_enumerate_ccps, NodeSet};
use dpnext_query::Query;
use std::ops::ControlFlow;
use std::time::Instant;

/// Default plan budget when [`OptimizeOptions::plan_budget`] is 0.
pub const DEFAULT_PLAN_BUDGET: u64 = 100_000;

/// Effective plan budget for deadline-only runs
/// ([`OptimizeOptions::deadline`] set, [`OptimizeOptions::plan_budget`]
/// left 0): practically unbounded, so wall-clock time — not the plan
/// counter — is the binding resource the ladder degrades on.
pub const DEADLINE_PLAN_BUDGET: u64 = 1 << 42;

/// The smallest budget the ladder accepts for an `n`-relation query:
/// enough for the greedy pass (and its canonical-tree fallback) to finish
/// no matter what — per merge at most `2 × 2` representative subplan
/// combinations in two orientations, [`UNIT_MAX_PLANS`] plans each, for
/// both passes. Requests below the floor are clamped up, so a valid plan
/// always fits; the clamped value is what
/// [`dpnext_core::MemoStats::plan_budget`] reports and what `plans_built`
/// never exceeds.
pub fn budget_floor(n: usize) -> u64 {
    128 * n.max(1) as u64
}

/// One adaptive optimization with full access to the search state, for
/// tests and diagnostics that want to validate or inspect the winning
/// plan ([`dpnext_core::validate_complete_plan`] needs the memo and id).
pub struct AdaptiveRun {
    pub optimized: Optimized,
    /// The optimization context (owns a clone of the query).
    pub ctx: OptContext,
    /// The memo owning every plan the ladder built.
    pub memo: Memo,
    /// Memo id of the winning complete plan.
    pub winner: PlanId,
}

/// Optimize `query` with the budgeted degradation ladder. See the crate
/// docs for the rung semantics; `opts.plan_budget` (0 = default, clamped
/// to [`budget_floor`]) caps the plans built, `opts.dominance` tunes the
/// pruning.
///
/// Panics like the exact engine when the query graph is disconnected or
/// over-constrained (no complete plan exists).
pub fn optimize_adaptive(query: &Query, opts: &OptimizeOptions) -> Optimized {
    optimize_adaptive_into(query, opts, &mut Memo::new())
}

/// [`optimize_adaptive`] running inside a caller-supplied [`Memo`] — the
/// pooled entry point, the ladder's counterpart of
/// [`dpnext_core::optimize_into`]. The memo is reset first, so results and
/// statistics are bit-identical to a fresh run; its arena, lane and class
/// capacity is reused, and it comes back holding the run's plans, so a
/// caller that meters its memo (the serving layer's ledger) meters the one
/// that did the work. Should the ladder panic, `memo` is left empty.
pub fn optimize_adaptive_into(query: &Query, opts: &OptimizeOptions, memo: &mut Memo) -> Optimized {
    let run = optimize_adaptive_run_in(query, opts, std::mem::take(memo));
    *memo = run.memo;
    run.optimized
}

/// [`optimize_adaptive`] returning the whole [`AdaptiveRun`].
pub fn optimize_adaptive_run(query: &Query, opts: &OptimizeOptions) -> AdaptiveRun {
    optimize_adaptive_run_in(query, opts, Memo::new())
}

/// [`optimize_adaptive_run`] with the search running in `memo`.
fn optimize_adaptive_run_in(query: &Query, opts: &OptimizeOptions, memo: Memo) -> AdaptiveRun {
    let ctx = OptContext::new(query.clone());
    let n = ctx.query.table_count();
    let memory_budget = (opts.memory_budget != 0).then_some(opts.memory_budget);
    // A resource-only run (deadline and/or memory budget set, plan budget
    // left 0) gets a practically unbounded plan budget: the clock or the
    // byte meter, not the counter, drives degradation.
    let resource_only =
        (opts.deadline.is_some() || memory_budget.is_some()) && opts.plan_budget == 0;
    let requested = if opts.plan_budget != 0 {
        opts.plan_budget
    } else if resource_only {
        DEADLINE_PLAN_BUDGET
    } else {
        DEFAULT_PLAN_BUDGET
    };
    let budget = requested.max(budget_floor(n));
    let start = Instant::now();
    let deadline = opts.deadline.map(|d| start + d);
    let mut ladder_span = dpnext_obs::span("adaptive.optimize");
    ladder_span.tag_u64("n", n as u64);
    ladder_span.tag_u64("plan_budget", budget);
    let mut search = BudgetedSearch::new_in(&ctx, memo, opts.dominance, budget);
    search.set_unit_delay(opts.fault_unit_delay);
    let mut mode = AdaptiveMode::Greedy;
    let mut degr = Degradation::default();
    if n == 1 {
        mode = AdaptiveMode::Exact; // the scan is the (optimal) plan
    } else {
        // Rung 1: greedy, always run to completion without consulting the
        // clock — the budget floor guarantees it fits, and its plan is
        // what makes every deadlined request *degrade* instead of fail.
        let mut rung_span = dpnext_obs::span("adaptive.rung.greedy");
        let greedy = greedy_join(&mut search, &ctx);
        rung_span.tag_u64("plans_built", search.plans_built());
        drop(rung_span);
        if search.exhausted() {
            degr.budget_aborted = true;
        }
        search.reset_exhausted();
        let best_after_greedy = search.best_cost();
        if deadline.is_some_and(|dl| Instant::now() >= dl) {
            // The clock ran out during the guaranteed rung: the greedy
            // plan ships as-is.
            degr.deadline_aborted = true;
        } else if memory_budget.is_some_and(|mb| search.live_bytes() >= mb) {
            // The guaranteed rung alone filled the byte budget: its plan
            // ships as-is — deeper rungs could only grow the memo.
            degr.memory_aborted = true;
        } else {
            // Rung 2: the full exact stream, under HALF the remaining
            // budget — an aborted exact run must not starve the
            // linearized rung, which is the one strategy that reliably
            // beats greedy when exact DP does not fit (class widths can
            // blow the budget mid-stream on topologies the pair-count
            // gate admits). The gate itself is capped so a dense graph
            // costs at most ~allowance probe steps, never the full
            // exponential walk; it stays optimistic (it cannot know class
            // widths) — the per-pair budget enforcement is what actually
            // bounds the work. Deadline-only runs skip the gate entirely:
            // their huge budget would make the capped pre-count itself
            // the blowup, and the mid-stream deadline abort subsumes it.
            let full_budget = search.budget();
            let reserve = search.remaining() / 2;
            let cap = (search.remaining() - reserve) / UNIT_MAX_PLANS;
            let mut done = false;
            let mut rung_span = dpnext_obs::span("adaptive.rung.exact");
            let gate_open = resource_only || count_ccps_capped(&ctx.cq.graph, cap).is_some();
            if gate_open {
                search.set_budget(full_budget - reserve);
                if let Some(dl) = deadline {
                    // Sub-deadline at the midpoint of the remaining time:
                    // mirrors the 50/50 budget split, so an endless exact
                    // stream cannot starve the linearized rung of clock.
                    let now = Instant::now();
                    search.set_deadline(Some(now + dl.saturating_duration_since(now) / 2));
                }
                if let Some(mb) = memory_budget {
                    // Sub-budget at the midpoint of the remaining byte
                    // headroom — the same 50/50 reservation, so an exact
                    // stream aborted for memory leaves the linearized
                    // rung room to improve on greedy.
                    let live = search.live_bytes();
                    search.set_memory_budget(Some(live + (mb - live) / 2));
                }
                let flow = try_enumerate_ccps(&ctx.cq.graph, |s1, s2| {
                    if search.process(s1, s2) {
                        ControlFlow::Continue(())
                    } else {
                        ControlFlow::Break(())
                    }
                });
                search.set_budget(full_budget);
                if flow.is_continue() && !search.exhausted() {
                    mode = AdaptiveMode::Exact;
                    done = true;
                    rung_span.tag_str("outcome", "completed");
                } else {
                    if search.deadline_hit() {
                        degr.deadline_aborted = true;
                        rung_span.tag_str("outcome", "deadline-aborted");
                    } else if search.memory_hit() {
                        degr.memory_aborted = true;
                        rung_span.tag_str("outcome", "memory-aborted");
                    } else {
                        degr.budget_aborted = true;
                        rung_span.tag_str("outcome", "budget-aborted");
                    }
                    search.reset_exhausted();
                }
            } else {
                // The gate itself is a budget decision: the result will
                // come from a shallower rung than exact DP.
                degr.budget_gated = true;
                rung_span.tag_str("outcome", "budget-gated");
            }
            rung_span.tag_u64("plans_built", search.plans_built());
            drop(rung_span);
            // Rung 3: interval DP over the greedy linear order, under the
            // full remaining deadline. The reported mode is the rung that
            // actually produced the winning plan — keep-best costs only
            // ever improve, so stage snapshots identify the producer even
            // when a rung was aborted partway.
            if !done {
                let best_after_exact = search.best_cost();
                search.set_deadline(deadline);
                search.set_memory_budget(memory_budget);
                let mut rung_span = dpnext_obs::span("adaptive.rung.linearized");
                let lin_done = linearized_dp(&mut search, &ctx, &greedy.order);
                if !lin_done {
                    if search.deadline_hit() {
                        degr.deadline_aborted = true;
                        rung_span.tag_str("outcome", "deadline-aborted");
                    } else if search.memory_hit() {
                        degr.memory_aborted = true;
                        rung_span.tag_str("outcome", "memory-aborted");
                    } else {
                        degr.budget_aborted = true;
                        rung_span.tag_str("outcome", "budget-aborted");
                    }
                    search.reset_exhausted();
                } else {
                    rung_span.tag_str("outcome", "completed");
                }
                rung_span.tag_u64("plans_built", search.plans_built());
                drop(rung_span);
                let improved = |before: Option<f64>, after: Option<f64>| match (before, after) {
                    (Some(b), Some(a)) => a < b,
                    (None, Some(_)) => true,
                    _ => false,
                };
                mode = if improved(best_after_exact, search.best_cost()) {
                    AdaptiveMode::Linearized
                } else if improved(best_after_greedy, best_after_exact) {
                    AdaptiveMode::PartialExact
                } else if lin_done {
                    // Completed without improving: the greedy plan *is*
                    // the linearized optimum (every greedy merge is a
                    // split).
                    AdaptiveMode::Linearized
                } else {
                    AdaptiveMode::Greedy
                };
            }
        }
    }
    if search.exhausted() {
        // Belt-and-braces: an abort path that forgot to attribute itself.
        if search.deadline_hit() {
            degr.deadline_aborted = true;
        } else if search.memory_hit() {
            degr.memory_aborted = true;
        } else {
            degr.budget_aborted = true;
        }
    }
    let outcome = search.finish();
    let mut memo = outcome.memo;
    let (plan, winner) = if n == 1 {
        let id = memo.class(NodeSet::full(1))[0];
        (finalize(&ctx, &memo, id), id)
    } else {
        outcome
            .best
            .expect("no plan found: query graph disconnected or over-constrained")
    };
    memo.record_budget(budget, opts.memory_budget, degr, mode);
    if ladder_span.is_recording() {
        ladder_span.tag_text("mode", mode.to_string());
        ladder_span.tag_text("degradation", degr.to_string());
        ladder_span.tag_u64("plans_built", outcome.plans_built);
        ladder_span.tag_u64("live_bytes_peak", memo.stats().live_bytes_peak);
    }
    drop(ladder_span);
    // Search time excludes EXPLAIN rendering, like the exact engine.
    let elapsed = start.elapsed();
    let explain = if opts.explain {
        explain(&ctx, &memo, winner)
    } else {
        String::new()
    };
    let optimized = Optimized {
        plan,
        explain,
        plans_built: outcome.plans_built,
        retained_plans: memo.retained(),
        memo: memo.stats(),
        elapsed,
    };
    AdaptiveRun {
        optimized,
        ctx,
        memo,
        winner,
    }
}
