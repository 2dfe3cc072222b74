//! The plan generators of §4, reduced to **one** search over the
//! arena-backed [`Memo`]: the DPhyp baseline (Fig. 5, no eager
//! aggregation), complete enumeration EA-All (Fig. 9), the
//! optimality-preserving EA-Prune (Figs. 13/14), and the heuristics H1
//! (Fig. 10) and H2 (Fig. 12) are all `Search`es that differ only in the
//! relation their plan classes are thinned by ([`ThinBy`]) and in whether
//! they push groupings down (`eager`); the budgeted ladder
//! ([`crate::ladder`]) is the EA-Prune search under a budget.
//!
//! A search is *fed csg-cmp-pair streams* whose sides have plans:
//! `Search::enumerate` walks the whole DPhyp stream in emission order, and
//! the ladder's greedy merges and interval splits feed `Search::process`
//! pair by pair. Either way the search builds the plans of each
//! `(orientation, t1, t2)` work unit of the pair and folds them into their
//! class ([`Memo::fold`]), popping a refused one off the arena before it
//! builds the next; complete plans compete on final cost instead. The
//! mirror orientation of an inner join, whose trees tie the first
//! orientation's, is settled unbuilt under every thinning but EA-All's and
//! H2's. A search whose budget arms something asks it before every unit
//! and stops at the first refusal; an exact run is a search with nothing
//! armed. A dominance search walks the stream under a complete plan:
//! EA-Prune is seeded with the ladder's greedy plan (`ladder::greedy`)
//! before its walk, and every interior unit that could only lie under a
//! costlier plan than the best in hand is skipped unbuilt.
//! `Search::finish` is the one epilogue: winner, finalization, elapsed
//! time, [`Optimized`].
//! [`optimize_into`] is the one runner of every [`Algorithm`].

use crate::budget::{Budget, Exhausted};
use crate::context::{OptContext, Scratch};
use crate::detect::applicable_op;
use crate::finalize::{final_numbers, finalize, FinalPlan};
use crate::ladder::greedy::greedy_join;
use crate::memo::{Memo, MemoStats, PlanId, ThinBy};
use crate::optrees::Grid;
use crate::plan::{make_scan, stage_apply, StagedApply};
use dpnext_hypergraph::{try_enumerate_ccps, DpTable, NodeSet};
use dpnext_query::{OpKind, Query};
use std::ops::ControlFlow;
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
    /// Budgeted large-query ladder ([`crate::ladder`]): exact DP when the
    /// csg-cmp-pair stream fits [`OptimizeOptions::plan_budget`], else
    /// linearized DP over the greedy linear order, else the greedy plan
    /// itself.
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
    /// Plans (joins + groupings) the search accounted for: each was either
    /// built, or belongs to a work unit settled unbuilt — a full-set unit
    /// the complete-plan bound settled, or a unit of the mirror
    /// orientation of an inner join, whose trees a thinning search would
    /// all refuse (`docs/ARCHITECTURE.md` § "The complete-plan bound") —
    /// and is counted as building that unit would have counted it, so the
    /// number depends on neither. A pushed-down grouping that survives its
    /// unit is shared by the rest of its grid row or column, and counted
    /// once (see [`crate::optrees::op_trees`]). A
    /// dominance walk (EA-Prune, and the ladder's exact rung) also skips
    /// interior units by the cost of the best complete plan in hand, the
    /// greedy one to start with; those build nothing and count nothing, so
    /// their number does depend on the interior bound. EA-Prune's number
    /// counts its greedy seed's plans too.
    pub plans_built: u64,
    /// Plans retained in the DP table at the end.
    pub retained_plans: u64,
    /// Memo statistics: arena size, peak class width, prune hit-rate,
    /// budget and degradation of an adaptive run.
    pub memo: MemoStats,
    /// Time spent searching, from the search's start to the winner's
    /// compiled plan.
    pub elapsed: Duration,
}

/// Knobs of [`optimize_with`] beyond the algorithm choice.
///
/// `plan_budget` and `deadline` are read by the one kind of run that arms
/// a budget, the adaptive ladder ([`crate::ladder`]). A run climbs the
/// ladder when its algorithm is [`Algorithm::Adaptive`] **or** it names a
/// deadline under any algorithm: only the ladder has a plan to ship when a
/// budget stops the search mid-stream, and it is an EA-Prune search, so an
/// H1/H2/DPhyp/EA-All choice is then not honoured. Every other run arms
/// nothing and reads neither.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizeOptions {
    /// The maximum number of plans (joins + groupings) the ladder may
    /// construct across all its rungs. `0` means the adaptive default
    /// ([`crate::ladder::DEFAULT_PLAN_BUDGET`]); requests below the greedy
    /// floor ([`crate::ladder::budget_floor`]) are clamped up so a valid
    /// plan always fits.
    pub plan_budget: u64,
    /// Wall-clock deadline for the whole optimization, recorded as
    /// [`crate::Degradation::deadline_aborted`] when it passes. The ladder's
    /// greedy rung reads no clock, so a deadline that passes during it is
    /// overshot by the rest of the greedy pass; one that passes in a later
    /// rung, by at most one enumeration work unit (see [`crate::ladder`]).
    /// `None` (the default): no deadline.
    pub deadline: Option<Duration>,
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
/// across back-to-back optimizations, and the one runner of every
/// [`Algorithm`] under every [`OptimizeOptions`] value.
///
/// The memo is [`Memo::reset`] before the run, so results and statistics
/// are bit-identical to [`optimize_with`] regardless of what the memo
/// held before; only the arena *capacity* (the allocation) is reused.
/// It comes back holding the plans of the run, whichever way the run
/// ended (a panic included); the winning [`crate::FinalPlan`] owns its
/// compiled expression, so the memo can be recycled immediately after
/// this returns. The run's [`OptContext`] borrows `query`: nothing of the
/// query is cloned.
pub fn optimize_into(
    query: &Query,
    algo: Algorithm,
    opts: &OptimizeOptions,
    memo: &mut Memo,
) -> Optimized {
    optimize_prepared(&OptContext::new(query), algo, opts, memo).0
}

/// [`optimize_into`] over a prepared context, returning the winner's memo
/// id next to the result — for callers that go on to inspect the plan in
/// `memo` ([`crate::validate_complete_plan`]).
///
/// An exact run is a search with nothing armed, fed the whole DPhyp
/// stream; which runs climb the ladder instead is said at
/// [`OptimizeOptions`].
pub fn optimize_prepared(
    ctx: &OptContext,
    algo: Algorithm,
    opts: &OptimizeOptions,
    memo: &mut Memo,
) -> (Optimized, PlanId) {
    let exact = match algo {
        Algorithm::DPhyp => Some((ThinBy::Cheapest(None), false)),
        Algorithm::H1 => Some((ThinBy::Cheapest(None), true)),
        Algorithm::H2(f) => Some((ThinBy::Cheapest(Some(f)), true)),
        Algorithm::EaAll => Some((ThinBy::Nothing, true)),
        Algorithm::EaPrune => Some((ThinBy::dominance(ctx), true)),
        Algorithm::Adaptive => None,
    };
    let Some((thin_by, eager)) = exact.filter(|_| opts.deadline.is_none()) else {
        return crate::ladder::climb(ctx, opts, memo);
    };
    let mut search = Search::new(ctx, memo, thin_by, eager);
    if matches!(algo, Algorithm::EaPrune) && ctx.query.table_count() >= 3 {
        // The seed: the ladder's greedy rung, so that the dominance walk
        // bounds its interior by a complete plan from its first pair. It is
        // a real plan in the memo, not only a cost, so a DP optimum that
        // ties it loses to it on `keep_best`'s earlier-wins rule and the
        // winner's cost is the same. With two relations the stream is the
        // greedy's one merge.
        greedy_join(&mut search, ctx);
    }
    search.enumerate();
    if eager && search.winner().is_none() {
        // Eager single-plan search can dead-end when a groupjoin's right
        // side only has a pre-aggregated plan; fall back to the baseline
        // (plans built during the dead-ended attempt stay counted; the
        // dead-ended memo is wiped).
        search.restart(ThinBy::Cheapest(None), false);
        search.enumerate();
    }
    search.finish()
}

/// Seed the singleton scan classes.
fn seed_scans(ctx: &OptContext, memo: &mut Memo) {
    for i in 0..ctx.query.table_count() {
        let id = make_scan(ctx, memo, i);
        memo.fold(NodeSet::single(i), id, ThinBy::Nothing);
    }
}

impl ThinBy {
    /// The dominance relation (Def. 4) for `ctx`'s query; its groupjoin
    /// guard is on exactly when the query contains groupjoins.
    pub fn dominance(ctx: &OptContext) -> ThinBy {
        ThinBy::Dominance {
            guard_groupjoin: ctx.cq.ops.iter().any(|o| o.op == OpKind::GroupJoin),
        }
    }

    /// Does a search thinned by this relation settle the mirror orientation
    /// of an inner join instead of building it ([`Search::feed`])? Under
    /// dominance and the plain cost order every tree of the mirror is
    /// refused, because its twin of the first orientation, which ties it
    /// in everything the relation and `keep_best` read, came first; see
    /// `docs/ARCHITECTURE.md` § "The complete-plan bound". The empty
    /// relation keeps every mirror, and H2's eagerness-adjusted order is
    /// not shown to be transitive.
    fn settles_mirrors(self) -> bool {
        matches!(self, ThinBy::Dominance { .. } | ThinBy::Cheapest(None))
    }
}

/// Keep the cheapest finalized plan (ties resolved to the earlier one).
/// Returns whether `id` became the new best.
fn keep_best(best: &mut Option<(f64, PlanId)>, ctx: &OptContext, memo: &Memo, id: PlanId) -> bool {
    // A plan's `C_out` is a lower bound of its final cost (the top
    // grouping only adds to it), so a plan already that expensive has
    // lost. The full comparison reads the keys and the cardinality of a
    // row built a moment ago — since the unit offers each tree as it is
    // built — and its branches resolve only once those are computed; the
    // bound settles a losing complete plan on one hot-row field (PR 21:
    // ea-all-paper `latency_geomean_us` ×1.030 without it, in 10 of 10
    // interleaved pairs). It sees only the units the complete-plan bound
    // of `Search::feed` let through: those whose two inputs together cost
    // less than the best.
    if best.is_some_and(|(b, _)| memo[id].cost >= b) {
        return false;
    }
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

/// Enumerate every plan EA-All would consider, for diagnostics and for
/// property tests that validate per-plan claims (keys, duplicate-freeness)
/// against executed results. Exponential — small queries only. Returns the
/// memo owning the plans plus every enumerated id (partial and complete).
pub fn all_subplans(query: &Query) -> (OptContext<'_>, Memo, Vec<PlanId>) {
    let ctx = OptContext::new(query);
    let mut memo = Memo::new();
    let mut search = Search::new(&ctx, &mut memo, ThinBy::Nothing, true);
    // No set counts as complete: the plans of the full set are folded into
    // a class like any other — all of them kept — instead of competing.
    search.full = NodeSet::EMPTY;
    search.enumerate();
    drop(search);
    let plans = memo.retained_ids();
    (ctx, memo, plans)
}

/// Hard upper bound on the plans one enumeration work unit (one
/// `(orientation, t1, t2)` subplan combination) can construct: `op_trees`
/// builds at most the plain apply, two pushed-down groupings and three
/// grouped applies (Fig. 8 (a)–(d)) — and, popping what is refused, never
/// holds more than those above what it keeps. A unit that reuses its row's
/// or its column's grouping builds fewer, but the first unit of a grid,
/// whose slots are empty, still builds both groupings: six stays the bound.
/// An armed search uses this to translate a plan budget into a unit
/// allowance without mid-unit bookkeeping.
pub const UNIT_MAX_PLANS: u64 = 6;

/// One plan search: a memo whose classes are thinned by one relation, the
/// cheapest complete plan seen, and a [`Budget`] that may arm nothing.
///
/// The caller supplies the csg-cmp-pair stream — [`Search::enumerate`] for
/// the whole DPhyp stream, [`Search::process`] pair by pair for anything
/// else whose pairs read only already-populated classes (greedy merges,
/// interval splits of a linear order) — and [`Search::finish`] turns the
/// search into its [`Optimized`]. With a budget armed
/// ([`Search::rearm`]) `plans_built <= budget` holds throughout and the
/// first refusal stops the stream; with nothing armed this is the exact
/// algorithm its `thin_by`/`eager` name. The ladder ([`crate::ladder`])
/// runs three streams into one search; an exact run one.
pub(crate) struct Search<'a> {
    ctx: &'a OptContext<'a>,
    memo: &'a mut Memo,
    scratch: Scratch,
    /// The units of the orientation being applied: class snapshots with
    /// their per-plan facts and grouping slots, reused from pair to pair,
    /// so that processing a csg-cmp-pair allocates nothing once it has
    /// grown (the plans themselves go to the memo's lanes).
    grid: Grid,
    /// The cut constants of the orientation being applied.
    staged: StagedApply,
    thin_by: ThinBy,
    eager: bool,
    /// Cheapest complete plan so far, by final cost; compiled to a
    /// [`FinalPlan`] only once the search ends.
    best: Option<(f64, PlanId)>,
    meter: Meter,
    /// The set whose plans are complete: they compete on final cost instead
    /// of entering a class ([`all_subplans`] alone sets it to no set).
    full: NodeSet,
    /// Work units walked.
    units: u64,
    /// Work units the complete-plan bound or the mirror rule settled, or
    /// the interior bound skipped, without building.
    bounded: u64,
    started: Instant,
}

/// The DP table of a [`Search::enumerate`] walk: a set is held when its
/// class has plans, and a pair is counted and fed to the search.
struct Walk<'s, 'a> {
    search: &'s mut Search<'a>,
    interior: bool,
    ccps: u64,
}

impl DpTable for Walk<'_, '_> {
    fn holds(&self, s: NodeSet) -> bool {
        !self.search.memo.class(s).is_empty()
    }

    fn pair(&mut self, s1: NodeSet, s2: NodeSet) -> ControlFlow<()> {
        self.ccps += 1;
        if self.search.pair(s1, s2, self.interior) {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    }
}

/// What a [`Search`] consults before every pair and, while something is
/// armed, before every work unit: its budget and why it stopped (once it
/// has). It only decides; the memo's bytes are booked by whoever holds the
/// memo (a serving pool, at check-in).
struct Meter {
    budget: Budget,
    exhausted: Option<Exhausted>,
}

impl Meter {
    /// May a work unit start that brings the search to at most `plans`
    /// plans? A refusal records its cause. Out of line on purpose: the
    /// caller is the engine's one large inlined loop, and the hook's live
    /// values in its register allocation cost the benchmark's
    /// adaptive-large 2–10% depending on how they were spelled.
    #[inline(never)]
    fn take(&mut self, plans: u64) -> bool {
        self.exhausted = self.budget.exhausted_at(plans);
        self.exhausted.is_none()
    }
}

impl<'a> Search<'a> {
    /// A fresh search over `ctx` whose classes are thinned by `thin_by`,
    /// pushing groupings down when `eager`, with nothing armed (scans are
    /// free in the `plans_built` accounting), running in the caller's
    /// `memo` — a pooled one, typically — so its arena, lane and class
    /// capacity is reused and whoever accounts the memo accounts the one
    /// that did the work, however the search ends. The memo is
    /// [`Memo::reset`] first: results and statistics do not depend on what
    /// it held. Starts the clock [`Optimized::elapsed`] is read from and
    /// seeds the singleton scan classes.
    pub(crate) fn new(
        ctx: &'a OptContext<'a>,
        memo: &'a mut Memo,
        thin_by: ThinBy,
        eager: bool,
    ) -> Search<'a> {
        let started = Instant::now();
        memo.reset();
        seed_scans(ctx, memo);
        Search {
            ctx,
            memo,
            scratch: Scratch::new(ctx),
            grid: Grid::default(),
            staged: StagedApply::default(),
            thin_by,
            eager,
            best: None,
            meter: Meter {
                budget: Budget::default(),
                exhausted: None,
            },
            full: NodeSet::full(ctx.query.table_count()),
            units: 0,
            bounded: 0,
            started,
        }
    }

    /// Start over as another algorithm in the wiped memo. The clock keeps
    /// running and the plans built so far stay counted; the scratch carries
    /// over (its `G⁺` cache depends on the query alone).
    fn restart(&mut self, thin_by: ThinBy, eager: bool) {
        self.memo.reset();
        seed_scans(self.ctx, self.memo);
        (self.thin_by, self.eager, self.best) = (thin_by, eager, None);
    }

    /// Plans constructed so far (joins + groupings).
    pub(crate) fn plans_built(&self) -> u64 {
        self.scratch.plans_built
    }

    /// Why a pair was skipped or truncated, if one was. Until
    /// [`Search::rearm`] the search builds nothing more.
    pub(crate) fn exhausted(&self) -> Option<Exhausted> {
        self.meter.exhausted
    }

    /// Continue under `budget` (whose plan limit must cover what is already
    /// spent) and forget why the search stopped. Ladder-style callers run
    /// one strategy under [`Budget::split`], keep the memo, and spend the
    /// rest on a cheaper one: an abandoned strategy's partial classes stay
    /// valid (every plan in them is real), they just stop being complete.
    pub(crate) fn rearm(&mut self, budget: Budget) {
        debug_assert!(budget
            .plans
            .is_none_or(|cap| cap >= self.scratch.plans_built));
        self.meter.budget = budget;
        self.meter.exhausted = None;
    }

    /// Read access to the memo (classes, plan data) for pair selection.
    pub(crate) fn memo(&self) -> &Memo {
        self.memo
    }

    /// Cost of the cheapest complete plan seen so far.
    pub(crate) fn best_cost(&self) -> Option<f64> {
        self.best.map(|(cost, _)| cost)
    }

    /// Shrink the class of `s` to its greedy representative(s); see
    /// [`Memo::class_shrink_to_best`]. The groupjoin guard is applied
    /// exactly when the query contains groupjoins.
    pub(crate) fn shrink_class_to_best(&mut self, s: NodeSet) {
        let keep_raw = matches!(
            self.thin_by,
            ThinBy::Dominance {
                guard_groupjoin: true
            }
        );
        self.memo.class_shrink_to_best(s, keep_raw);
    }

    /// Process one candidate pair: build every operator tree of every
    /// subplan combination (with all eager-aggregation variants when
    /// `eager`), fold each into the target class under `thin_by`, and
    /// keep-best complete plans. The budget is checked once per pair and,
    /// while it arms anything, once per work unit, a unit counting as
    /// [`UNIT_MAX_PLANS`] plans, so the plan limit is never exceeded and
    /// the deadline is overshot by at most one unit. The first refusal
    /// ends the pair: the cause is
    /// recorded and `false` is returned (the pair's plan set is then
    /// incomplete and downstream results must not claim optimality). A
    /// search with nothing armed pays nothing per unit.
    ///
    /// Both sides must have plans. Pairs with no applicable operator build
    /// nothing and return `true`.
    pub(crate) fn process(&mut self, s1: NodeSet, s2: NodeSet) -> bool {
        self.pair(s1, s2, false)
    }

    /// [`Search::process`], bounding interior work by the best complete
    /// plan iff `interior`: a dominance walk of the whole DPhyp stream
    /// ([`Search::enumerate`]), armed or not.
    fn pair(&mut self, s1: NodeSet, s2: NodeSet, interior: bool) -> bool {
        // Decided once per pair, so that the unit loop of a search with
        // nothing armed is compiled without the meter call: testing a
        // run-time flag per unit instead read 1% slower on the benchmark's
        // ea-prune-paper, in 10 of 10 interleaved pairs.
        let completed = if self.meter.budget != Budget::default() {
            self.feed::<true>(s1, s2, interior)
        } else {
            self.feed::<false>(s1, s2, interior)
        };
        let cap = self.meter.budget.plans;
        debug_assert!(cap.is_none_or(|cap| self.scratch.plans_built <= cap));
        completed
    }

    /// [`Search::process`], asking the meter before every unit iff `ARMED`:
    /// for each orientation of the pair, stage the [`Grid`] of the retained
    /// subplans of both sides — each side's facts (does it take groupings,
    /// what a grouping on it reads) and each plan's (does a unit push a
    /// grouping onto it, is it grouped, does it expose what the cut needs,
    /// does a key of it cover the cut, what its keys cap) decided once, not
    /// once per unit — and run the one work unit,
    /// [`crate::optrees::op_trees`], on each cell: it constructs the tree
    /// variants — all eager-aggregation variants (`OpTrees`, Fig. 6) when
    /// `eager`, else only the plain operator tree of the DPhyp baseline —
    /// and offers each, while it is the arena's newest row, to its class
    /// under `thin_by`; a tree the class refuses is popped before the next
    /// one is built, so the arena holds what the classes keep (and the
    /// incumbents they evicted since), not what the search built. A
    /// pushed-down grouping that survives its unit stays in its row's or
    /// column's slot, and the later units of the grid reuse it instead of
    /// building another. Complete plans (the full relation set) never
    /// enter a class: they compete on final cost, and one is kept only if
    /// it became the best (`keep_best`) — popped like any refused tree
    /// otherwise.
    ///
    /// Before that, the **complete-plan bound**: every tree of a full-set
    /// unit costs at least `cost(t1) + cost(t2)` — `C_out` adds a
    /// cardinality, a pushed-down grouping another, neither is negative,
    /// and IEEE addition is monotone, so the rounded sums keep the order.
    /// Once that sum reaches the best final cost seen, `keep_best` would
    /// refuse every one of them on its first line, so the unit is
    /// [settled](Grid::settle) instead of built, from the grid's facts
    /// alone: counted in `plans_built` as building it would have counted
    /// it, with the fresh-attribute allocator moved past what its groupings
    /// would have taken, and counted in `bounded`. The winner, every fold,
    /// the counts, the slots and the ids of what is built later are the
    /// same as if the unit had been built and popped; only fewer rows are
    /// ever live (on EA-All the losing complete plans outnumber the
    /// retained state by an order of magnitude).
    ///
    /// The **mirror rule**: under a thinning that settles mirrors
    /// ([`ThinBy::settles_mirrors`]: dominance, or the plain cost order) the
    /// second orientation of an inner join — the first one swapped — builds
    /// nothing. Its trees tie their twins of the first orientation bit for
    /// bit in everything a fold and `keep_best` read, and the twins came
    /// first, so every one of them would be refused. Each of its units is [settled](Grid::settle_mirror)
    /// from the first orientation's grid, read column-major with every slot
    /// empty: no `stage_apply`, no [`Grid::stage`]. The interior bound skips
    /// it or the meter charges it as if it were built, it is counted in
    /// `plans_built` and the fresh-attribute allocator as building it
    /// would have, and it is counted in `bounded`. A NaN-cost row precedes
    /// nothing, so when the first orientation left one in the class
    /// ([`Memo::holds_nan_row`]) the mirror is built as before.
    ///
    /// With `interior`, the **interior bound** as well: a subplan costs no
    /// more than any complete plan above it, by the same two lines, so
    /// below the full set a unit with `cost(t1) + cost(t2) ≥ best` is
    /// *skipped* — nothing built, nothing counted in `plans_built` or
    /// charged to the budget, counted in `bounded` — and a candidate with
    /// `cost ≥ best` is refused before [`Memo::fold`]. The class members
    /// cheaper than `best` are the ones an unbounded walk keeps (anything
    /// that evicts or refuses a cheaper one costs no more than it), so the
    /// walk finds every complete plan cheaper than `best` that it would
    /// otherwise, and the winner's cost is the same.
    ///
    /// Every `(orientation, t1, t2)` combination is one **work unit**,
    /// counted in `units`, and one a bound or the mirror rule spares is
    /// counted in `bounded` too. A refusal means *stop*: the rest of the
    /// pair is abandoned and `false` is returned, so the pair's plan set is
    /// incomplete. The grid's snapshots of both classes are `PlanId` copies
    /// with a few bits each — no plan data is cloned.
    fn feed<const ARMED: bool>(&mut self, s1: NodeSet, s2: NodeSet, interior: bool) -> bool {
        // Per-pair check: a stopped search stays stopped, and even a
        // stream of pairs with no applicable operator (which never asks
        // for a unit) stays resource-bounded.
        let spent = self.scratch.plans_built;
        let meter = &mut self.meter;
        meter.exhausted = meter.exhausted.or_else(|| meter.budget.exhausted_at(spent));
        if meter.exhausted.is_some() {
            return false;
        }
        let (ctx, thin_by, eager) = (self.ctx, self.thin_by, self.eager);
        let full = self.full;
        // Units of this pair charged to the budget so far.
        let mut charged = 0u64;
        let (memo, scratch) = (&mut *self.memo, &mut self.scratch);
        debug_assert!(
            !memo.class(s1).is_empty() && !memo.class(s2).is_empty(),
            "{s1} ◦ {s2} fed with a side that has no plans"
        );
        let Some((op, applies)) = applicable_op(&ctx.cq, s1, s2) else {
            return true;
        };
        let (grid, staged) = (&mut self.grid, &mut self.staged);
        // The mirror rule: the second orientation of an inner join is the
        // first one swapped, and under a preorder it is settled instead of
        // built, unless the first one left a NaN-cost row in the class.
        let mirrored = thin_by.settles_mirrors()
            && applies == [true, true]
            && ctx.cq.ops[op].op == OpKind::Join;
        let mut nan = false;
        for (k, (sl, sr)) in [(s1, s2), (s2, s1)].into_iter().enumerate() {
            if !applies[k] {
                continue;
            }
            let s = sl.union(sr);
            let complete = s == full;
            // The interior bound's ceiling: only a complete plan moves
            // `best`, so it stays put for the whole of an interior pair.
            let ceiling = if interior && !complete {
                self.best.map(|(b, _)| b)
            } else {
                None
            };
            if mirrored && k == 1 && !nan {
                // The mirror's units are the first orientation's grid read
                // column-major: each meets the same interior bound and the
                // same meter as if it were built, and is then settled.
                for i in 0..grid.rights.len() {
                    let t1 = grid.rights[i].id;
                    for j in 0..grid.lefts.len() {
                        let t2 = grid.lefts[j].id;
                        if !ceiling.is_some_and(|b| memo[t1].cost + memo[t2].cost >= b) {
                            if ARMED {
                                charged += 1;
                                if !meter.take(spent + charged * UNIT_MAX_PLANS) {
                                    return false;
                                }
                            }
                            grid.settle_mirror(scratch, (i, j));
                        }
                        self.units += 1;
                        self.bounded += 1;
                    }
                }
                continue;
            }
            // Stage the cut once per orientation: predicate orientation,
            // selectivity and distinct products are identical for every
            // `(t1, t2)` combination of the grid, so the per-plan
            // application does none of that work.
            stage_apply(ctx, memo, staged, op, sl);
            // And decide once per side, and once per plan of each side, what
            // its units read of it alone; its grouping slots start empty.
            grid.stage(ctx, scratch, memo, staged, (sl, sr), eager);
            // The target class, resolved at the orientation's first fold.
            let mut target = None;
            for i in 0..grid.lefts.len() {
                let t1 = grid.lefts[i].id;
                for j in 0..grid.rights.len() {
                    let t2 = grid.rights[j].id;
                    // The interior bound: a unit none of whose trees can
                    // lie under a cheaper winner is skipped — not built,
                    // not counted, not charged.
                    if ceiling.is_some_and(|b| memo[t1].cost + memo[t2].cost >= b) {
                        self.units += 1;
                        self.bounded += 1;
                        continue;
                    }
                    if ARMED {
                        // A unit counts as `UNIT_MAX_PLANS` plans, so the
                        // plan limit is never exceeded mid-unit.
                        charged += 1;
                        if !meter.take(spent + charged * UNIT_MAX_PLANS) {
                            return false;
                        }
                    }
                    self.units += 1;
                    // The complete-plan bound: a full-set unit none of
                    // whose trees can win is settled — accounted as
                    // building it would be, and not built.
                    if complete
                        && self
                            .best
                            .is_some_and(|(b, _)| memo[t1].cost + memo[t2].cost >= b)
                    {
                        self.bounded += 1;
                        grid.settle(scratch, staged.kind, (i, j));
                        continue;
                    }
                    // The constructors this loop calls (`Grid::build`,
                    // `op_trees`, `Grid::settle`, `apply_staged`,
                    // `make_group`, `Memo::fold`, `Memo::mark`,
                    // `Memo::truncate`, and `final_numbers` behind
                    // `keep_best`) and what those call per plan in other
                    // modules (the `OptContext`/`Scratch` accessors,
                    // `push_grouped_state`) are `#[inline]` so they are
                    // compiled into this codegen unit; without that the
                    // benchmark's ea-prune-paper p99 reads 3–5% higher, and
                    // which module an edit lands in decides whether it does.
                    // Of the key-inference and cost helpers a plan calls,
                    // `infer_join_keys`, `join_duplicate_free`,
                    // `needs_grouping` and `distinct_in` are `#[inline]`;
                    // `join_card`, `grouping_card`, `KeysRef::implies` and
                    // `KeysRef::some_key_within` are not.
                    grid.build(ctx, scratch, memo, staged, (i, j), |memo, t| {
                        if !complete {
                            if !ceiling.is_none_or(|b| memo[t].cost < b) {
                                return false;
                            }
                            let class = *target.get_or_insert_with(|| memo.class_slot(s));
                            return memo.fold_into(class, t, thin_by);
                        }
                        // A complete plan is kept if it became the best.
                        // Each cut applies the one operator whose edge
                        // connects it (`applicable_op`), so a plan of the
                        // full set has applied every operator once.
                        keep_best(&mut self.best, ctx, memo, t)
                    });
                }
            }
            if mirrored {
                nan = target.is_some_and(|class| memo.holds_nan_row(class));
            }
        }
        true
    }

    /// Feed the search the whole DPhyp csg-cmp-pair stream, in emission
    /// order, up to the first refused pair. The walk grows a side only into
    /// a set whose class has plans ([`Walk`]), so it feeds no pair with a
    /// side that has none. Returns whether the stream was
    /// walked to its end. A search that thins by dominance — EA-Prune,
    /// seeded by the greedy plan, and the ladder's exact rung, which the
    /// greedy rung precedes — bounds interior work too (see
    /// [`Search::feed`]); the others (EA-All, DPhyp, H1, H2) do not. The
    /// walk is one `engine.enumerate` span, tagged with the pairs and units
    /// walked, the units the bounds spared, and the search's `plans_built`
    /// at its end (inert, and free, with tracing off).
    pub(crate) fn enumerate(&mut self) -> bool {
        let mut span = dpnext_obs::span("engine.enumerate");
        let (units, bounded) = (self.units, self.bounded);
        let interior = matches!(self.thin_by, ThinBy::Dominance { .. });
        let graph = &self.ctx.cq.graph;
        let mut walk = Walk {
            search: self,
            interior,
            ccps: 0,
        };
        let flow = try_enumerate_ccps(graph, &mut walk);
        span.tag_u64("ccps", walk.ccps);
        span.tag_u64("units", self.units - units);
        span.tag_u64("bounded", self.bounded - bounded);
        span.tag_u64("plans_built", self.scratch.plans_built);
        flow.is_continue()
    }

    /// The cheapest complete plan seen, if any pair produced one.
    fn winner(&self) -> Option<PlanId> {
        match self.best {
            Some((_, id)) => Some(id),
            // Degenerate single-table query: the scan is the complete plan.
            None if self.ctx.query.table_count() == 1 => Some(self.memo.class(self.full)[0]),
            None => None,
        }
    }

    /// The one epilogue of every run: compile the winner (deferred to here,
    /// so only one plan ever pays the `compile` walk), stop the clock, and
    /// report. Returns the winner's memo id next to the result, for callers
    /// that go on to inspect the plan in the memo the search borrowed
    /// ([`crate::explain()`] renders it).
    ///
    /// Panics when no pair produced a complete plan: the query graph is
    /// disconnected or over-constrained (or the budget ran out before the
    /// first full-set pair — the ladder's greedy floor rules that out).
    pub(crate) fn finish(self) -> (Optimized, PlanId) {
        let Some(id) = self.winner() else {
            panic!("no plan found: query graph disconnected or over-constrained")
        };
        let optimized = Optimized {
            plan: finalize(self.ctx, self.memo, id),
            elapsed: self.started.elapsed(),
            plans_built: self.scratch.plans_built,
            retained_plans: self.memo.retained(),
            memo: self.memo.stats(),
        };
        (optimized, id)
    }
}
