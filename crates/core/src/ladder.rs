//! The large-query subsystem: budgeted plan search with graceful
//! degradation, so the optimizer **never blows up** — exact DP is superb
//! up to ~10 relations and hopeless at 30, where production optimizers
//! switch to greedy/linearized construction under an enumeration budget.
//! [`crate::optimize_into`] sends [`crate::Algorithm::Adaptive`] here, and
//! every run that names a deadline.
//!
//! `climb` feeds three csg-cmp-pair streams, one per rung, to one
//! `Search` (one memo, one plan counter, one best complete plan) — the
//! EA-Prune search an exact run is, under one `Budget` of plans and wall
//! clock, each armed or absent:
//!
//! 1. **Greedy** (always), under the plan limit alone: a GOO-style pass
//!    merging the component pair with the smallest estimated join result,
//!    exploring the paper's eager/lazy aggregation variants at every
//!    merge. Cheap — the plan limit is clamped to a floor that always fits
//!    it — and its merge tree yields the linear relation order for rung 3.
//!    It does not consult the clock, so a valid plan exists before a
//!    deadline can bind: a run *degrades*, it never fails.
//!    The same pass, unbudgeted, seeds an EA-Prune run.
//! 2. **Exact DP** (`Search::enumerate`, the whole DPhyp stream), under
//!    `Budget::split` — half of what is left of every armed resource, so
//!    an aborted exact stream cannot starve rung 3. With a plan limit it
//!    is attempted only when a capped csg-cmp-pair count
//!    ([`count_ccps_capped`]) shows the full DPhyp stream plausibly fits
//!    that half; without one there is no gate.
//!    The walk is bounded by the best complete plan — the greedy one
//!    until it finds a cheaper one: an interior work unit whose inputs
//!    together cost as much is skipped (not built, not charged), and an
//!    interior candidate that costs as much is refused before its class
//!    sees it. `C_out` only grows up a plan, so neither could lie under a
//!    cheaper winner, and the budget buys more of the stream. EA-Prune
//!    walks under the same bound, so the two differ only in the budget:
//!    completing this rung makes the result the EA-Prune optimum (to the
//!    bit); an aborted stream's plans still compete (reported as
//!    `PartialExact` when one wins).
//! 3. **Linearized DP**, under all that is left: exact DP restricted to
//!    connected contiguous intervals of the greedy linear order (`O(n³)`
//!    splits instead of exponential), never worse than the greedy plan
//!    because every greedy merge appears as an interval split.
//!
//! Every rung funnels through the same engine (`op_trees`, dominance
//! pruning, `C_out`), so aggregation placement stays explored at scale,
//! and the run ends in the search's one epilogue (`Search::finish`).
//! The budget is checked once per pair and once per enumeration work
//! unit: `plans_built <= plan_budget` holds no matter which rung wins, and
//! a deadline is overshot by at most one unit ([`UNIT_MAX_PLANS`] plans).
//! [`crate::MemoStats::plan_budget`], [`crate::MemoStats::degradation`]
//! (gate, or the resource that ran out mid-stream: plans or deadline) and
//! [`crate::MemoStats::adaptive_mode`] report what happened.

pub(crate) mod greedy;
mod linear;

use crate::algo::{OptimizeOptions, Optimized, Search, UNIT_MAX_PLANS};
use crate::budget::{Budget, Exhausted};
use crate::context::OptContext;
use crate::memo::{AdaptiveMode, Degradation, Memo, PlanId, ThinBy};
use dpnext_hypergraph::count_ccps_capped;
use greedy::greedy_join;
use linear::linearized_dp;
use std::time::Instant;

/// Default plan budget when [`OptimizeOptions::plan_budget`] is 0.
pub const DEFAULT_PLAN_BUDGET: u64 = 100_000;

/// The smallest budget the ladder accepts for an `n`-relation query:
/// enough for the greedy pass (and its canonical-tree fallback) to finish
/// no matter what — per merge at most `2 × 2` representative subplan
/// combinations in two orientations, [`UNIT_MAX_PLANS`] plans each, for
/// both passes. Requests below the floor are clamped up, so a valid plan
/// always fits; the clamped value is what
/// [`crate::MemoStats::plan_budget`] reports and what `plans_built` never
/// exceeds.
pub fn budget_floor(n: usize) -> u64 {
    128 * n.max(1) as u64
}

/// The ladder's state between rungs: the one search every rung feeds, and
/// why the run has fallen short so far.
struct Ladder<'a> {
    search: Search<'a>,
    degr: Degradation,
}

impl Ladder<'_> {
    /// Record why a rung stopped short — the one place a cause becomes a
    /// [`Degradation`] flag — and name it for the rung span's `outcome` tag.
    fn degrade(&mut self, cause: Exhausted) -> &'static str {
        let (flag, outcome) = match cause {
            Exhausted::Plans => (&mut self.degr.budget_aborted, "budget-aborted"),
            Exhausted::Deadline => (&mut self.degr.deadline_aborted, "deadline-aborted"),
        };
        *flag = true;
        outcome
    }

    /// One rung: re-arm the search with the rung's `budget`, run it inside
    /// its span, tag the span with `outcome` and `plans_built`, and record
    /// why it stopped short, if it did. `rung` returns `false` when it
    /// declined to start (the exact rung's gate). Returns whether the rung
    /// ran to completion.
    fn rung(
        &mut self,
        name: &'static str,
        budget: Budget,
        rung: impl FnOnce(&mut Search<'_>) -> bool,
    ) -> bool {
        let mut span = dpnext_obs::span(name);
        self.search.rearm(budget);
        let stopped = if rung(&mut self.search) {
            self.search.exhausted().map(|cause| self.degrade(cause))
        } else {
            // The gate is a budget decision too: the result will come from
            // a shallower rung than this one.
            self.degr.budget_gated = true;
            Some("budget-gated")
        };
        span.tag_str("outcome", stopped.unwrap_or("completed"));
        span.tag_u64("plans_built", self.search.plans_built());
        stopped.is_none()
    }
}

/// The ladder over `ctx`'s query in `memo`: one search, three rungs, the
/// search's epilogue. Returns the result and the winner's memo id.
///
/// `opts.plan_budget` (0 = [`DEFAULT_PLAN_BUDGET`], clamped to
/// [`budget_floor`]) caps the plans built. Panics like an exact run when
/// the query graph is disconnected or over-constrained (no complete plan
/// exists).
pub(crate) fn climb(
    ctx: &OptContext,
    opts: &OptimizeOptions,
    memo: &mut Memo,
) -> (Optimized, PlanId) {
    let n = ctx.query.table_count();
    // A run that names a deadline but no plan budget has no plan limit:
    // the clock, not the counter, drives degradation. Otherwise the plan
    // limit is the requested (or default) budget, clamped up to the greedy
    // floor.
    let plans = match opts.plan_budget {
        0 if opts.deadline.is_some() => None,
        0 => Some(DEFAULT_PLAN_BUDGET.max(budget_floor(n))),
        requested => Some(requested.max(budget_floor(n))),
    };
    let full = Budget {
        plans,
        deadline: opts.deadline.map(|d| Instant::now() + d),
    };
    let mut ladder_span = dpnext_obs::span("adaptive.optimize");
    ladder_span.tag_u64("n", n as u64);
    ladder_span.tag_u64("plan_budget", plans.unwrap_or(0));
    // The search arms nothing; every rung arms its own budget (see
    // `Ladder::rung`).
    let thin_by = ThinBy::dominance(ctx);
    let mut ladder = Ladder {
        search: Search::new(ctx, memo, thin_by, true),
        degr: Degradation::default(),
    };
    // What a single scan is, and what a completed exact rung leaves.
    let mut mode = AdaptiveMode::Exact;
    if n > 1 {
        // Rung 1 runs under the plan limit alone: the budget floor
        // guarantees greedy fits, and its plan is what makes every
        // deadlined request *degrade* instead of fail.
        let plans_only = Budget {
            plans,
            ..Budget::default()
        };
        let mut order = Vec::new();
        ladder.rung("adaptive.rung.greedy", plans_only, |search| {
            order = greedy_join(search, ctx);
            true
        });
        let best_after_greedy = ladder.search.best_cost();
        let spent = ladder.search.plans_built();
        if let Some(cause) = full.exhausted_at(spent) {
            // The clock ran out during the guaranteed rung: the greedy
            // plan ships as-is.
            ladder.degrade(cause);
            mode = AdaptiveMode::Greedy;
        } else {
            // Rung 2: the full exact stream, under HALF of what is left of
            // every resource — an aborted exact run must not starve the
            // linearized rung, which is the one strategy that reliably
            // beats greedy when exact DP does not fit (class widths can
            // blow the budget mid-stream on topologies the pair-count
            // gate admits). The gate itself is capped so a dense graph
            // costs at most ~allowance probe steps, never the full
            // exponential walk; it stays optimistic (it cannot know class
            // widths) — the per-pair budget enforcement is what actually
            // bounds the work. Without a plan limit there is no gate: no
            // allowance caps the pre-count, and the mid-stream deadline
            // abort subsumes it.
            let half = full.split(spent);
            let exact_done = ladder.rung("adaptive.rung.exact", half, |search| {
                let gate = half.plans.map(|cap| (cap - spent) / UNIT_MAX_PLANS);
                if gate.is_some_and(|cap| count_ccps_capped(&ctx.cq.graph, cap).is_none()) {
                    return false;
                }
                search.enumerate();
                true
            });
            // Rung 3: interval DP over the greedy linear order, under all
            // that is left. The reported mode is the rung that actually
            // produced the winning plan — keep-best costs only ever
            // improve, so stage snapshots identify the producer even when
            // a rung was aborted partway.
            if !exact_done {
                let best_after_exact = ladder.search.best_cost();
                let lin_done = ladder.rung("adaptive.rung.linearized", full, |search| {
                    linearized_dp(search, ctx, &order);
                    true
                });
                let improved = |before: Option<f64>, after: Option<f64>| match (before, after) {
                    (Some(b), Some(a)) => a < b,
                    (None, Some(_)) => true,
                    _ => false,
                };
                mode = if improved(best_after_exact, ladder.search.best_cost()) {
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
    let Ladder { search, degr } = ladder;
    if ladder_span.is_recording() {
        ladder_span.tag_text("mode", mode.to_string());
        ladder_span.tag_text("degradation", degr.to_string());
        ladder_span.tag_u64("plans_built", search.plans_built());
        ladder_span.tag_u64("live_bytes_peak", search.memo().stats().live_bytes_peak);
    }
    drop(ladder_span);
    let (mut optimized, winner) = search.finish(opts.explain);
    // What the ladder made of the search, on the statistics of the result.
    optimized.memo.plan_budget = plans.unwrap_or(0);
    optimized.memo.degradation = degr;
    optimized.memo.adaptive_mode = mode;
    (optimized, winner)
}
