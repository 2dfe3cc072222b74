//! The plan generators of §4, reduced to **one** enumeration engine over
//! the arena-backed [`Memo`]: the DPhyp baseline (Fig. 5, no eager
//! aggregation), complete enumeration EA-All (Fig. 9), the
//! optimality-preserving EA-Prune (Figs. 13/14), and the heuristics H1
//! (Fig. 10) and H2 (Fig. 12) are all runs of the engine that differ only
//! in the relation their plan classes are thinned by ([`ThinBy`]).
//!
//! The engine is one loop: walk the DPhyp csg-cmp-pair stream in emission
//! order and hand every pair to `process_pair`, which builds the plans of
//! each `(orientation, t1, t2)` work unit and folds them into their class
//! ([`Memo::fold`]); complete plans compete on final cost instead. A
//! `take` hook is asked before every unit; the exact algorithms take
//! everything, [`BudgetedSearch`] refuses once its plan budget, deadline
//! or byte budget is spent — a refusal ends the pair.

use crate::budget::{Budget, Exhausted};
use crate::context::{OptContext, Scratch};
use crate::finalize::{final_numbers, finalize, FinalPlan};
use crate::memo::{DominanceKind, Memo, MemoStats, PlanId, ThinBy};
use crate::optrees::op_trees;
use crate::plan::{apply_staged, make_scan, stage_apply, StagedApply};
use dpnext_conflict::applicable_ops_into;
use dpnext_hypergraph::{enumerate_ccps, NodeSet};
use dpnext_query::{OpKind, Query};
use std::time::{Duration, Instant};

/// The available plan-generation algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// DPhyp: join (re)ordering only, grouping stays on top.
    DPhyp,
    /// Complete enumeration of all eager-aggregation plans (Fig. 9);
    /// optimal, `O(2^{2n-1} · #ccp)`.
    EaAll,
    /// Complete enumeration with dominance pruning (Figs. 13/14); optimal.
    EaPrune,
    /// Greedy single-plan heuristic (Fig. 10).
    H1,
    /// H1 with eagerness-adjusted cost comparison and tolerance factor `F`
    /// (Fig. 12).
    H2(f64),
    /// Budgeted large-query ladder: exact DP when the csg-cmp-pair stream
    /// fits [`OptimizeOptions::plan_budget`], else linearized DP over the
    /// greedy linear order, else the greedy plan itself. Implemented by
    /// the `dpnext-adaptive` crate and dispatched by the `dpnext`
    /// `Optimizer` facade — [`optimize_with`] itself panics on this
    /// variant to keep the crate layering acyclic.
    Adaptive,
}

impl Algorithm {
    /// Display name matching the paper's figures (e.g. `"EA-Prune"`).
    pub fn name(&self) -> String {
        match self {
            Algorithm::DPhyp => "DPhyp".into(),
            Algorithm::EaAll => "EA-All".into(),
            Algorithm::EaPrune => "EA-Prune".into(),
            Algorithm::H1 => "H1".into(),
            Algorithm::H2(f) => format!("H2(F={f})"),
            Algorithm::Adaptive => "Adaptive".into(),
        }
    }
}

/// The result of one optimization run.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The winning complete plan with its cost and cardinality.
    pub plan: FinalPlan,
    /// Annotated EXPLAIN rendering of the winning logical plan (per-node
    /// cardinality/cost estimates, keys, aggregation state). Empty when
    /// rendering was disabled via [`OptimizeOptions::explain`].
    pub explain: String,
    /// Plans constructed during the search (joins + groupings).
    pub plans_built: u64,
    /// Plans retained in the DP table at the end.
    pub retained_plans: u64,
    /// Memo statistics: arena size, peak class width, prune hit-rate,
    /// budget and degradation of an adaptive run.
    pub memo: MemoStats,
    /// Time spent searching (EXPLAIN rendering excluded).
    pub elapsed: Duration,
}

/// Knobs of [`optimize_with`] beyond the algorithm choice.
#[derive(Debug, Clone, Copy)]
pub struct OptimizeOptions {
    /// Dominance criterion used by [`Algorithm::EaPrune`] (ablation
    /// interface; the paper's criterion is [`DominanceKind::Full`]).
    pub dominance: DominanceKind,
    /// Render the EXPLAIN string (skip for pure benchmarking runs).
    pub explain: bool,
    /// Plan budget for [`Algorithm::Adaptive`]: the maximum number of
    /// plans (joins + groupings) the search may construct across every
    /// rung of its degradation ladder. `0` means the adaptive default
    /// (`dpnext_adaptive::DEFAULT_PLAN_BUDGET`); requests below the
    /// greedy floor are clamped up so a valid plan always fits. The exact
    /// algorithms ignore this knob.
    pub plan_budget: u64,
    /// Wall-clock deadline for the whole optimization. Honored by the
    /// budgeted/adaptive path ([`BudgetedSearch`] checks it once per
    /// enumeration work unit, bounding overshoot to one unit); the exact
    /// engines ignore it, so callers that want deadline semantics must
    /// route deadline-bearing requests through the adaptive ladder — the
    /// `Optimizer` facade does exactly that. `None` (the default) changes
    /// nothing: unconstrained runs stay bit-identical.
    pub deadline: Option<Duration>,
    /// Memory budget (bytes of live memo state, see
    /// [`crate::Memo::live_bytes`]) for the whole optimization. Honored by
    /// the budgeted/adaptive path exactly like [`OptimizeOptions::deadline`]:
    /// checked once per enumeration work unit, overshoot bounded by one
    /// unit's plans, degradation recorded as
    /// [`crate::Degradation::memory_aborted`]. The exact engines ignore
    /// it, so the `Optimizer` facade routes memory-budgeted requests
    /// through the adaptive ladder. `0` (the default) disables the budget.
    pub memory_budget: u64,
    /// Fault-injection hook: an artificial busy-wait inserted before every
    /// enumeration work unit of a budgeted search, simulating a
    /// pathologically slow enumeration so deadline/degradation paths are
    /// testable deterministically. `None` (the default) disables it; never
    /// set outside tests.
    pub fault_unit_delay: Option<Duration>,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            dominance: DominanceKind::Full,
            explain: true,
            plan_budget: 0,
            deadline: None,
            memory_budget: 0,
            fault_unit_delay: None,
        }
    }
}

/// Optimize `query` with the chosen algorithm and default options.
pub fn optimize(query: &Query, algo: Algorithm) -> Optimized {
    optimize_with(query, algo, &OptimizeOptions::default())
}

/// Optimize `query` with explicit [`OptimizeOptions`].
pub fn optimize_with(query: &Query, algo: Algorithm, opts: &OptimizeOptions) -> Optimized {
    let mut memo = Memo::new();
    optimize_into(query, algo, opts, &mut memo)
}

/// [`optimize_with`] running inside a caller-supplied [`Memo`] — the
/// pooled entry point for serving layers that recycle arena allocations
/// across back-to-back optimizations.
///
/// The memo is [`Memo::reset`] before the run, so results and statistics
/// are bit-identical to [`optimize_with`] regardless of what the memo
/// held before; only the arena *capacity* (the allocation) is reused.
/// The winning [`crate::FinalPlan`] owns its compiled expression, so the
/// memo can be recycled immediately after this returns.
///
/// Panics on [`Algorithm::Adaptive`] like [`optimize_with`] does: the
/// budgeted ladder lives above dpnext-core
/// (`dpnext_adaptive::optimize_adaptive_into` is its pooled entry point).
pub fn optimize_into(
    query: &Query,
    algo: Algorithm,
    opts: &OptimizeOptions,
    memo: &mut Memo,
) -> Optimized {
    memo.reset();
    let ctx = OptContext::new(query.clone());
    let start = Instant::now();
    let ((plan, logical), retained, plans_built) = match algo {
        Algorithm::DPhyp => run(&ctx, memo, ThinBy::Cheapest(None), false),
        Algorithm::H1 => run(&ctx, memo, ThinBy::Cheapest(None), true),
        Algorithm::H2(f) => run(&ctx, memo, ThinBy::Cheapest(Some(f)), true),
        Algorithm::EaAll => run(&ctx, memo, ThinBy::Nothing, true),
        Algorithm::EaPrune => run(&ctx, memo, ThinBy::dominance(&ctx, opts.dominance), true),
        // dpnext-core cannot depend on dpnext-adaptive (it is the other
        // way around); the facade routes this variant before we get here.
        Algorithm::Adaptive => panic!(
            "Algorithm::Adaptive is implemented by the dpnext-adaptive crate; \
             use dpnext::Optimizer or dpnext_adaptive::optimize_adaptive"
        ),
    };
    // Capture the search time *before* rendering: EXPLAIN is presentation,
    // not optimization, and must not inflate the reported elapsed time.
    let elapsed = start.elapsed();
    let explain = if opts.explain {
        crate::explain::explain(&ctx, memo, logical)
    } else {
        String::new()
    };
    Optimized {
        plan,
        explain,
        plans_built,
        retained_plans: retained,
        memo: memo.stats(),
        elapsed,
    }
}

/// Reusable per-pair buffers of the enumeration hot loop: orientation and
/// class snapshots and the staged cut live here, and the plans themselves
/// go to the memo's lanes, so processing a csg-cmp-pair allocates nothing
/// once the buffers have grown.
pub(crate) struct PairBufs {
    /// `applicable_ops_into` output.
    apps: Vec<(usize, bool)>,
    /// Deduplicated operator indices crossing the cut.
    uniq: Vec<usize>,
    /// Orientations `(left set, right set, primary operator)`.
    orients: Vec<(NodeSet, NodeSet, usize)>,
    /// Extra inner-join edges crossing the same cut (cyclic queries);
    /// shared by every orientation of the pair.
    extra: Vec<usize>,
    lefts: Vec<PlanId>,
    rights: Vec<PlanId>,
    trees: Vec<PlanId>,
    /// The cut constants of the orientation being applied.
    staged: StagedApply,
}

impl PairBufs {
    pub(crate) fn new() -> PairBufs {
        PairBufs {
            apps: Vec::new(),
            uniq: Vec::new(),
            orients: Vec::new(),
            extra: Vec::new(),
            lefts: Vec::new(),
            rights: Vec::new(),
            trees: Vec::new(),
            staged: StagedApply::default(),
        }
    }
}

/// All ways to apply operators to the csg-cmp-pair `(s1, s2)`, written
/// into `bufs.orients`/`bufs.extra` (no per-pair allocation).
///
/// Multiple edges cross the same cut only in cyclic queries; if they are
/// all inner joins their predicates are merged into one application. A mix
/// of inner and non-inner edges on one cut is rejected (never produced by
/// the paper's workloads).
fn orientations_into(ctx: &OptContext, s1: NodeSet, s2: NodeSet, bufs: &mut PairBufs) {
    let PairBufs {
        apps,
        uniq,
        orients,
        extra,
        ..
    } = bufs;
    orients.clear();
    extra.clear();
    applicable_ops_into(&ctx.cq, s1, s2, apps);
    if apps.is_empty() {
        return;
    }
    uniq.clear();
    uniq.extend(apps.iter().map(|&(i, _)| i));
    uniq.sort_unstable();
    uniq.dedup();
    if uniq.len() == 1 {
        let idx = uniq[0];
        for &(_, swapped) in apps.iter() {
            if swapped {
                orients.push((s2, s1, idx));
            } else {
                orients.push((s1, s2, idx));
            }
        }
    } else if uniq.iter().all(|&i| ctx.cq.ops[i].op == OpKind::Join) {
        let primary = uniq[0];
        extra.extend_from_slice(&uniq[1..]);
        orients.push((s1, s2, primary));
        orients.push((s2, s1, primary));
    }
}

/// Build the plan variants of one csg-cmp-pair: for each orientation,
/// pair up the retained subplans of both sides, construct the tree
/// variants — all eager-aggregation variants (`OpTrees`, Fig. 6) when
/// `eager`, else only the plain operator tree of the DPhyp baseline — and
/// fold each into its class under `thin_by`. Complete plans (the full
/// relation set with every operator applied) never enter a class: they go
/// to `complete`, which says whether it kept a reference, and unless one
/// is kept the whole `(t1, t2)` application is rolled back — on EA-All the
/// losing complete plans outnumber the retained state by an order of
/// magnitude.
///
/// Every `(orientation, t1, t2)` combination is one **work unit**, counted
/// in the caller's `unit`. Before building a unit the engine asks
/// `take(unit, memo)` (the hook sees the memo so a budgeted caller can
/// read live resource state like [`Memo::live_bytes`]). A refusal means
/// *stop*: the rest of the pair is abandoned and `false` is returned, so
/// the pair's plan set is incomplete. The per-pair snapshots of both
/// classes are plain `PlanId` copies into `bufs` — no plan data is cloned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_pair(
    ctx: &OptContext,
    scratch: &mut Scratch,
    bufs: &mut PairBufs,
    memo: &mut Memo,
    thin_by: ThinBy,
    eager: bool,
    s1: NodeSet,
    s2: NodeSet,
    full: NodeSet,
    unit: &mut u64,
    take: &mut impl FnMut(u64, &Memo) -> bool,
    complete: &mut impl FnMut(&Memo, PlanId) -> bool,
) -> bool {
    orientations_into(ctx, s1, s2, bufs);
    let PairBufs {
        orients,
        extra,
        lefts,
        rights,
        trees,
        staged,
        ..
    } = bufs;
    for &(sl, sr, op) in orients.iter() {
        lefts.clear();
        lefts.extend_from_slice(memo.class(sl));
        rights.clear();
        rights.extend_from_slice(memo.class(sr));
        if lefts.is_empty() || rights.is_empty() {
            continue;
        }
        let s = sl.union(sr);
        // Stage the cut once per orientation: predicate orientation,
        // merged selectivity, distinct products and applied bits are
        // identical for every `(t1, t2)` combination of the grid, so the
        // per-plan application does none of that work.
        stage_apply(ctx, memo, staged, op, extra, sl);
        for &t1 in lefts.iter() {
            for &t2 in rights.iter() {
                if !take(*unit, memo) {
                    return false;
                }
                *unit += 1;
                let mark = (s == full).then(|| memo.mark());
                trees.clear();
                // The constructors this loop calls (`op_trees`,
                // `apply_staged`, `make_group`, `Memo::fold`, and
                // `final_numbers` behind `complete`) and what those call
                // per plan in other modules (the `OptContext`/`Scratch`
                // accessors, `push_grouped_state`) are `#[inline]` so they
                // are compiled into this codegen unit; without that the
                // benchmark's ea-prune-paper p99 reads 3–5% higher, and
                // which module an edit lands in decides whether it does.
                if eager {
                    op_trees(ctx, scratch, memo, staged, t1, t2, trees);
                } else if let Some(t) = apply_staged(ctx, scratch, memo, staged, t1, t2) {
                    trees.push(t);
                }
                let mut kept = false;
                for &t in trees.iter() {
                    if s == full {
                        if all_ops_applied(ctx, memo[t].applied) {
                            kept |= complete(memo, t);
                        }
                    } else {
                        memo.fold(s, t, thin_by);
                    }
                }
                if let Some(mark) = mark {
                    if !kept {
                        memo.truncate(mark);
                    }
                }
            }
        }
    }
    true
}

/// Seed the singleton scan classes, then walk every csg-cmp-pair in DPhyp
/// emission order through [`process_pair`], taking every work unit.
/// Returns the total number of plans built.
fn run_engine(
    ctx: &OptContext,
    memo: &mut Memo,
    thin_by: ThinBy,
    eager: bool,
    complete: &mut impl FnMut(&Memo, PlanId) -> bool,
) -> u64 {
    let mut scratch = Scratch::new(ctx);
    let n = ctx.query.table_count();
    seed_scans(ctx, memo);
    if n > 1 {
        // The clock is read only when a trace wants the span.
        let t0 = dpnext_obs::tracing_enabled().then(Instant::now);
        let full = NodeSet::full(n);
        let mut bufs = PairBufs::new();
        let (mut ccps, mut units) = (0u64, 0u64);
        let mut take = |_: u64, _: &Memo| true;
        enumerate_ccps(&ctx.cq.graph, |s1, s2| {
            ccps += 1;
            process_pair(
                ctx,
                &mut scratch,
                &mut bufs,
                memo,
                thin_by,
                eager,
                s1,
                s2,
                full,
                &mut units,
                &mut take,
                complete,
            );
        });
        if let Some(t0) = t0 {
            dpnext_obs::emit_span(
                "engine.enumerate",
                t0.elapsed().as_nanos() as u64,
                &[
                    ("ccps", ccps),
                    ("units", units),
                    ("plans_built", scratch.plans_built),
                ],
            );
        }
    }
    scratch.plans_built
}

/// Seed the singleton scan classes.
fn seed_scans(ctx: &OptContext, memo: &mut Memo) {
    for i in 0..ctx.query.table_count() {
        let id = make_scan(ctx, memo, i);
        memo.fold(NodeSet::single(i), id, ThinBy::Nothing);
    }
}

impl ThinBy {
    /// The dominance relation of `kind` for `ctx`'s query; its groupjoin
    /// guard is on exactly when the query contains groupjoins.
    pub fn dominance(ctx: &OptContext, kind: DominanceKind) -> ThinBy {
        ThinBy::Dominance {
            kind,
            guard_groupjoin: ctx.cq.ops.iter().any(|o| o.op == OpKind::GroupJoin),
        }
    }
}

/// Keep the cheapest finalized plan (ties resolved to the earlier one).
/// Returns whether `id` became the new best.
fn keep_best(best: &mut Option<(f64, PlanId)>, ctx: &OptContext, memo: &Memo, id: PlanId) -> bool {
    // Compare by final cost only ([`final_numbers`]): compiling the
    // winner's algebra tree is deferred to the end of the run, so the
    // orders-of-magnitude more numerous losing complete plans never pay
    // the recursive `compile` walk.
    let (cost, _, _) = final_numbers(ctx, memo, id);
    if best.is_none_or(|(b, _)| cost < b) {
        *best = Some((cost, id));
        return true;
    }
    false
}

/// One exact run: thin every class by `thin_by`, keep the cheapest
/// complete plan, compile it. Returns the winner with its memo id, the
/// plans retained in the classes and the plans built.
fn run(
    ctx: &OptContext,
    memo: &mut Memo,
    thin_by: ThinBy,
    eager: bool,
) -> ((FinalPlan, PlanId), u64, u64) {
    let mut best = None;
    let plans_built = run_engine(ctx, memo, thin_by, eager, &mut |memo, id| {
        keep_best(&mut best, ctx, memo, id)
    });
    let id = match best {
        Some((_, id)) => id,
        // Degenerate single-table query: the scan is the complete plan.
        None if ctx.query.table_count() == 1 => memo.class(NodeSet::full(1))[0],
        // Eager single-plan search can dead-end when a groupjoin's right
        // side only has a pre-aggregated plan; fall back to the baseline
        // (plans built during the dead-ended attempt stay counted; the
        // dead-ended memo is wiped).
        None if eager => {
            memo.reset();
            let (best, retained, fallback_built) = run(ctx, memo, ThinBy::Cheapest(None), false);
            return (best, retained, plans_built + fallback_built);
        }
        None => panic!("no plan found: query graph disconnected or over-constrained"),
    };
    // Deferred finalization: compile the single winner's tree now.
    ((finalize(ctx, memo, id), id), memo.retained(), plans_built)
}

/// Enumerate every plan EA-All would consider, for diagnostics and for
/// property tests that validate per-plan claims (keys, duplicate-freeness)
/// against executed results. Exponential — small queries only. Returns the
/// memo owning the plans plus every enumerated id (partial and complete).
pub fn all_subplans(query: &Query) -> (OptContext, Memo, Vec<PlanId>) {
    let ctx = OptContext::new(query.clone());
    let mut memo = Memo::new();
    // Complete plans are gathered, all of them, instead of competing.
    let mut complete = Vec::new();
    run_engine(&ctx, &mut memo, ThinBy::Nothing, true, &mut |_, id| {
        complete.push(id);
        true
    });
    let mut plans = memo.retained_ids();
    plans.extend(complete);
    (ctx, memo, plans)
}

/// Hard upper bound on the plans one enumeration work unit (one
/// `(orientation, t1, t2)` subplan combination) can construct: `op_trees`
/// builds at most the plain apply, two pushed-down groupings and three
/// grouped applies (Fig. 8 (a)–(d)). The budgeted search uses this to
/// translate a plan budget into a unit allowance without mid-unit
/// bookkeeping.
pub const UNIT_MAX_PLANS: u64 = 6;

/// A budget-enforcing, pair-at-a-time frontend over the multi-plan
/// enumeration engine: the caller supplies the csg-cmp-pair stream (the
/// full DPhyp stream, greedy merges, interval splits of a linear order —
/// anything whose pairs read only already-populated classes), and the
/// search feeds each pair through the same `op_trees`/dominance machinery
/// as [`Algorithm::EaPrune`], guaranteeing `plans_built <= budget`
/// throughout — the same `process_pair` the exact algorithms run, with a
/// `take` hook that refuses once a limit is reached. This is what the
/// `dpnext-adaptive` large-query ladder drives.
pub struct BudgetedSearch<'a> {
    ctx: &'a OptContext,
    memo: Memo,
    scratch: Scratch,
    bufs: PairBufs,
    thin_by: ThinBy,
    /// Cheapest complete plan so far, by final cost; compiled to a
    /// [`FinalPlan`] only once the search ends.
    best: Option<(f64, PlanId)>,
    meter: Meter,
    full: NodeSet,
}

/// What a [`BudgetedSearch`] consults before every pair and every work
/// unit: its budget, why it stopped (once it has), the fault-injection
/// delay — and, fed on the way, this search's RAII contribution to the
/// process-wide live-bytes gauge ([`dpnext_obs::global_live_bytes`]): it
/// remembers the bytes last published and withdraws them on drop.
/// Delta-based publishing makes concurrent searches sum correctly, and
/// the drop reconciliation means a search abandoned mid-run (panic
/// unwind, quarantine) cannot leak its contribution into the gauge
/// forever. The gauge is observation only — enforcement stays with the
/// budget and the serving ledger.
struct Meter {
    budget: Budget,
    exhausted: Option<Exhausted>,
    unit_delay: Option<Duration>,
    gauge: std::sync::Arc<dpnext_obs::Gauge>,
    reported: u64,
}

impl Meter {
    /// May a work unit start that brings the search to at most `plans`
    /// plans? A refusal records its cause. Out of line on purpose: the
    /// caller is the engine's one large inlined loop, and the hook's live
    /// values in its register allocation cost the benchmark's
    /// adaptive-large 2–10% depending on how they were spelled.
    #[inline(never)]
    fn take(&mut self, plans: u64, memo: &Memo) -> bool {
        // Mid-run memory visibility: publish live bytes into the process
        // gauge once per work unit (one O(1) read and one relaxed atomic
        // op), so global pressure is observable between pool check-ins.
        let live = memo.live_bytes();
        if live >= self.reported {
            self.gauge.add(live - self.reported);
        } else {
            self.gauge.sub(self.reported - live);
        }
        self.reported = live;
        self.exhausted = self.budget.exhausted_at(plans, live);
        if self.exhausted.is_some() {
            return false;
        }
        if let Some(d) = self.unit_delay {
            // Injected fault: a pathologically slow enumeration.
            let t0 = Instant::now();
            while t0.elapsed() < d {
                std::hint::spin_loop();
            }
        }
        true
    }
}

impl Drop for Meter {
    fn drop(&mut self) {
        self.gauge.sub(self.reported);
    }
}

/// What a finished [`BudgetedSearch`] hands back.
pub struct BudgetedOutcome {
    /// The memo owning every plan the search built.
    pub memo: Memo,
    /// The cheapest complete plan seen, with its memo id (`None` when no
    /// pair produced a complete plan — disconnected graph or exhaustion
    /// before the first full-set pair).
    pub best: Option<(FinalPlan, PlanId)>,
    /// Plans constructed in total; never exceeds the budget.
    pub plans_built: u64,
    /// Whether some pair was skipped or truncated for lack of budget.
    pub exhausted: bool,
}

impl<'a> BudgetedSearch<'a> {
    /// A fresh search over `ctx` with dominance pruning `dominance` under
    /// `budget` (scans are free, matching the `plans_built` accounting of
    /// the unbudgeted engine), running in the caller's `memo` — a pooled
    /// one, typically, `mem::take`n in and handed back by
    /// [`BudgetedSearch::finish`] — so its arena, lane and class capacity
    /// is reused and whoever accounts the memo accounts the one that did
    /// the work. The memo is [`Memo::reset`] first: results and statistics
    /// do not depend on what it held. Seeds the singleton scan classes.
    pub fn new_in(
        ctx: &'a OptContext,
        mut memo: Memo,
        dominance: DominanceKind,
        budget: Budget,
    ) -> BudgetedSearch<'a> {
        memo.reset();
        seed_scans(ctx, &mut memo);
        let n = ctx.query.table_count();
        BudgetedSearch {
            ctx,
            memo,
            scratch: Scratch::new(ctx),
            bufs: PairBufs::new(),
            thin_by: ThinBy::dominance(ctx, dominance),
            best: None,
            meter: Meter {
                budget,
                exhausted: None,
                unit_delay: None,
                gauge: dpnext_obs::global_live_bytes(),
                reported: 0,
            },
            full: NodeSet::full(n),
        }
    }

    /// Plans constructed so far (joins + groupings).
    pub fn plans_built(&self) -> u64 {
        self.scratch.plans_built
    }

    /// Why a pair was skipped or truncated, if one was. Until
    /// [`BudgetedSearch::rearm`] the search builds nothing more.
    pub fn exhausted(&self) -> Option<Exhausted> {
        self.meter.exhausted
    }

    /// Continue under `budget` (whose plan limit must cover what is already
    /// spent) and forget why the search stopped. Ladder-style callers run
    /// one strategy under [`Budget::split`], keep the memo, and spend the
    /// rest on a cheaper one: an abandoned strategy's partial classes stay
    /// valid (every plan in them is real), they just stop being complete.
    pub fn rearm(&mut self, budget: Budget) {
        debug_assert!(budget
            .plans
            .is_none_or(|cap| cap >= self.scratch.plans_built));
        self.meter.budget = budget;
        self.meter.exhausted = None;
    }

    /// Fault-injection hook: busy-wait `delay` before every enumeration
    /// work unit (see [`OptimizeOptions::fault_unit_delay`]).
    pub fn set_unit_delay(&mut self, delay: Option<Duration>) {
        self.meter.unit_delay = delay;
    }

    /// Read access to the memo (classes, plan data) for pair selection.
    pub fn memo(&self) -> &Memo {
        &self.memo
    }

    /// Width of the plan class of `s`.
    pub fn class_len(&self, s: NodeSet) -> usize {
        self.memo.class(s).len()
    }

    /// Cost of the cheapest complete plan seen so far.
    pub fn best_cost(&self) -> Option<f64> {
        self.best.map(|(cost, _)| cost)
    }

    /// Shrink the class of `s` to its greedy representative(s); see
    /// [`Memo::class_shrink_to_best`]. The groupjoin guard is applied
    /// exactly when the query contains groupjoins.
    pub fn shrink_class_to_best(&mut self, s: NodeSet) {
        let keep_raw = matches!(
            self.thin_by,
            ThinBy::Dominance {
                guard_groupjoin: true,
                ..
            }
        );
        self.memo.class_shrink_to_best(s, keep_raw);
    }

    /// Process one candidate pair under the budget: build every operator
    /// tree of every subplan combination (with all eager-aggregation
    /// variants), insert into the target class with dominance pruning, and
    /// keep-best complete plans. The budget is checked once per pair and
    /// once per work unit, a unit counting as [`UNIT_MAX_PLANS`] plans, so
    /// the plan limit is never exceeded and the deadline and the byte
    /// limit are overshot by at most one unit. The first refusal ends the
    /// pair: the cause is recorded and `false` is returned (the pair's plan
    /// set is then incomplete and downstream results must not claim
    /// optimality).
    ///
    /// Pairs with no applicable operator build nothing and return `true`.
    pub fn process(&mut self, s1: NodeSet, s2: NodeSet) -> bool {
        // Per-pair check: a stopped search stays stopped, and even a
        // stream of pairs with no applicable operator (which never asks
        // for a unit) stays resource-bounded.
        let spent = self.scratch.plans_built;
        let meter = &mut self.meter;
        meter.exhausted = meter
            .exhausted
            .or_else(|| meter.budget.exhausted_at(spent, self.memo.live_bytes()));
        if meter.exhausted.is_some() {
            return false;
        }
        let mut unit = 0u64;
        let mut take = |u: u64, memo: &Memo| meter.take(spent + (u + 1) * UNIT_MAX_PLANS, memo);
        let (ctx, best) = (self.ctx, &mut self.best);
        let completed = process_pair(
            ctx,
            &mut self.scratch,
            &mut self.bufs,
            &mut self.memo,
            self.thin_by,
            true,
            s1,
            s2,
            self.full,
            &mut unit,
            &mut take,
            &mut |memo, id| keep_best(best, ctx, memo, id),
        );
        debug_assert!(self
            .meter
            .budget
            .plans
            .is_none_or(|cap| self.scratch.plans_built <= cap));
        completed
    }

    /// Tear the search apart into its outcome.
    pub fn finish(self) -> BudgetedOutcome {
        // Deferred finalization: compile the winner's tree once, here.
        let best = self
            .best
            .map(|(_, id)| (finalize(self.ctx, &self.memo, id), id));
        BudgetedOutcome {
            memo: self.memo,
            best,
            plans_built: self.scratch.plans_built,
            exhausted: self.meter.exhausted.is_some(),
        }
    }
}

/// The width-safe all-operators-applied mask: `n_ops` low bits set.
/// `u64` tracking caps the operator count at 64; [`OptContext::new`]
/// asserts the bound so a too-wide query fails loudly instead of letting
/// `1 << op_idx` wrap and corrupt the bookkeeping.
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

/// A complete plan must have applied every operator of the query exactly
/// once — a plan reaching the full relation set with a missing predicate
/// (possible only for pathological hyperedge/cut interactions) is invalid
/// and discarded.
fn all_ops_applied(ctx: &OptContext, applied: u64) -> bool {
    applied == applied_ops_mask(ctx.cq.ops.len())
}
