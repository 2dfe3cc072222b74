//! The arena-backed DP memo: plans are [`PlanId`] indices into a
//! contiguous arena, plan classes are per-[`NodeSet`] id lists owned by
//! the memo, and dominance pruning (Fig. 13) operates on ids without
//! cloning plan-class vectors.
//!
//! The arena is split structure-of-arrays into a **hot** lane
//! ([`PlanHot`]: set, cardinality, cost, applied mask, key/grouping
//! flags — everything the dominance test of Def. 4 reads) and a **cold**
//! lane ([`PlanCold`]: the operator tree, key sets, aggregation state and
//! visible attributes — touched only on materialization, key implication
//! and plan construction). A class scan for pruning walks a few dozen
//! 40-byte hot rows instead of dragging whole plan payloads through the
//! cache; see `docs/ARCHITECTURE.md` § "memo data layout".
//!
//! The memo is the optimizer's single source of truth for DP state; the
//! enumeration engine in [`crate::algo`] only decides *which* plans to
//! build and which ids a class keeps.

use crate::aggstate::AggState;
use crate::fxhash::FxHashMap;
use dpnext_algebra::{AggCall, AttrId, JoinPred};
use dpnext_hypergraph::NodeSet;
use dpnext_keys::KeyInfo;
use dpnext_query::OpKind;
use std::ops::Index;
use std::sync::Arc;

/// Index of a plan in the memo arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanId(u32);

impl PlanId {
    /// The arena slot this id refers to.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    #[inline]
    fn from_index(i: usize) -> PlanId {
        PlanId(u32::try_from(i).expect("memo arena overflows u32"))
    }
}

/// One operator of a plan tree; children are arena indices.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Scan of a table occurrence.
    Scan {
        /// Index into the query's table vector.
        table: usize,
    },
    /// A binary operator application with the (oriented, merged) predicate.
    Apply {
        /// Operator kind (join, outer join, groupjoin, ...).
        op: OpKind,
        /// The merged predicate, oriented left-to-right. Shared: every
        /// plan of one orientation applies the identical predicate, so
        /// the enumeration stages it once per orientation and each plan
        /// holds a reference instead of a cloned term vector.
        pred: Arc<JoinPred>,
        /// Aggregates evaluated inline when `op` is a groupjoin.
        gj_aggs: Vec<AggCall>,
        /// Left input plan.
        left: PlanId,
        /// Right input plan.
        right: PlanId,
    },
    /// An eager-aggregation grouping `Γ_{G⁺(S); F¹ ∘ (c : count(*))}`.
    Group {
        /// Grouping attributes `G⁺(S)`.
        attrs: Vec<AttrId>,
        /// Partial aggregates plus the mandatory count column.
        aggs: Vec<AggCall>,
        /// The plan being grouped.
        input: PlanId,
    },
}

/// A plan plus its derived logical properties — the construction /
/// transfer representation. The memo stores it split into a [`PlanHot`]
/// and a [`PlanCold`] row; read both back through
/// [`Memo::plan`] / [`PlanRef`].
#[derive(Debug, Clone)]
pub struct MemoPlan {
    /// The root operator; children are arena ids.
    pub node: PlanNode,
    /// Relations covered.
    pub set: NodeSet,
    /// Estimated output cardinality.
    pub card: f64,
    /// Accumulated `C_out`.
    pub cost: f64,
    /// Candidate keys + duplicate-freeness.
    pub keyinfo: KeyInfo,
    /// Aggregation state (positions of original aggregates, count columns).
    pub agg: AggState,
    /// Attributes visible in the output.
    pub visible: Vec<AttrId>,
    /// Whether any `Group` node occurs in the tree.
    pub has_grouping: bool,
    /// Bitmask of applied operators (indices into the conflicted query's
    /// operator list). A complete plan must apply every operator exactly
    /// once; this is asserted before finalization.
    pub applied: u64,
}

impl MemoPlan {
    /// Whether the root operator is an eager-aggregation grouping.
    pub fn is_group(&self) -> bool {
        matches!(self.node, PlanNode::Group { .. })
    }

    /// Split into the hot/cold arena rows.
    #[inline]
    pub fn split(self) -> (PlanHot, PlanCold) {
        let mut flags = 0u8;
        if self.has_grouping {
            flags |= PlanHot::HAS_GROUPING;
        }
        if self.keyinfo.duplicate_free {
            flags |= PlanHot::DUP_FREE;
        }
        if matches!(self.node, PlanNode::Group { .. }) {
            flags |= PlanHot::IS_GROUP;
        }
        (
            PlanHot {
                set: self.set,
                card: self.card,
                cost: self.cost,
                applied: self.applied,
                flags,
            },
            PlanCold {
                node: self.node,
                keyinfo: self.keyinfo,
                agg: self.agg,
                visible: self.visible,
            },
        )
    }
}

/// The dominance-relevant properties of one plan, packed into a 40-byte
/// `Copy` row. A class scan during pruning reads only this array — the
/// operator tree and key sets stay out of the cache until a comparison
/// actually needs key implication or a plan is materialized.
#[derive(Debug, Clone, Copy)]
pub struct PlanHot {
    /// Relations covered.
    pub set: NodeSet,
    /// Estimated output cardinality.
    pub card: f64,
    /// Accumulated `C_out`.
    pub cost: f64,
    /// Bitmask of applied operators.
    pub applied: u64,
    /// Packed `HAS_GROUPING` / `DUP_FREE` / `IS_GROUP` bits.
    flags: u8,
}

impl PlanHot {
    const HAS_GROUPING: u8 = 1;
    const DUP_FREE: u8 = 2;
    const IS_GROUP: u8 = 4;

    /// Whether any `Group` node occurs in the plan tree.
    #[inline]
    pub fn has_grouping(&self) -> bool {
        self.flags & Self::HAS_GROUPING != 0
    }

    /// Whether the plan's output is duplicate-free
    /// (mirrors `keyinfo.duplicate_free` of the cold row).
    #[inline]
    pub fn duplicate_free(&self) -> bool {
        self.flags & Self::DUP_FREE != 0
    }

    /// Whether the root operator is an eager-aggregation grouping.
    #[inline]
    pub fn is_group(&self) -> bool {
        self.flags & Self::IS_GROUP != 0
    }
}

/// The materialization payload of one plan: everything dominance does not
/// read on its fast path. Reached through [`Memo::plan`].
#[derive(Debug, Clone)]
pub struct PlanCold {
    /// The root operator; children are arena ids.
    pub node: PlanNode,
    /// Candidate keys + duplicate-freeness.
    pub keyinfo: KeyInfo,
    /// Aggregation state (positions of original aggregates, count columns).
    pub agg: AggState,
    /// Attributes visible in the output.
    pub visible: Vec<AttrId>,
}

impl PlanCold {
    /// Estimated heap bytes owned by this row's payload vectors, counted
    /// by *length* (not capacity) so the estimate does not depend on the
    /// allocator's growth policy. Nested heap of aggregate expressions is
    /// not chased — the estimate feeds the memory-budget abort, which
    /// needs a cheap, monotone, deterministic proxy for arena footprint,
    /// not an allocator-exact census.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        let node = match &self.node {
            PlanNode::Scan { .. } => 0,
            PlanNode::Apply { gj_aggs, .. } => gj_aggs.len() * size_of::<AggCall>(),
            PlanNode::Group { attrs, aggs, .. } => {
                attrs.len() * size_of::<AttrId>() + aggs.len() * size_of::<AggCall>()
            }
        };
        let keys: usize = self
            .keyinfo
            .keys
            .keys()
            .iter()
            .map(|k| size_of::<Vec<AttrId>>() + k.len() * size_of::<AttrId>())
            .sum();
        let agg = self.agg.pos.len() * size_of::<crate::aggstate::AggPos>()
            + self.agg.counts.len() * size_of::<(NodeSet, AttrId)>();
        node + keys + agg + self.visible.len() * size_of::<AttrId>()
    }
}

/// Bytes one arena slot occupies in the SoA lanes themselves (hot row +
/// cold row struct, excluding the cold row's heap payload).
pub const ARENA_ROW_BYTES: usize = size_of::<PlanHot>() + size_of::<PlanCold>();

/// A borrowed view of one plan's hot and cold rows.
#[derive(Clone, Copy)]
pub struct PlanRef<'a> {
    /// The dominance-relevant properties.
    pub hot: &'a PlanHot,
    /// The materialization payload.
    pub cold: &'a PlanCold,
}

impl PlanRef<'_> {
    /// Reassemble an owned [`MemoPlan`] (clones the cold payload) — for
    /// callers that construct new plans from existing ones.
    pub fn to_plan(&self) -> MemoPlan {
        MemoPlan {
            node: self.cold.node.clone(),
            set: self.hot.set,
            card: self.hot.card,
            cost: self.hot.cost,
            keyinfo: self.cold.keyinfo.clone(),
            agg: self.cold.agg.clone(),
            visible: self.cold.visible.clone(),
            has_grouping: self.hot.has_grouping(),
            applied: self.hot.applied,
        }
    }
}

/// Which conditions the dominance test of Def. 4 applies. `Full` is the
/// paper's (optimality-preserving) criterion; the weaker variants exist
/// for the ablation study in `dpnext-bench` — they prune harder but can
/// lose the optimal plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DominanceKind {
    /// Cost + cardinality + duplicate-freeness + key implication (§4.6).
    Full,
    /// Cost + cardinality only (ignores functional dependencies).
    CostCard,
    /// Cost only (Bellman-style pruning; equivalent to keeping the single
    /// cheapest plan per class when ties collapse).
    CostOnly,
}

/// Which rung of the adaptive degradation ladder produced the final plan
/// (`Algorithm::Adaptive`, see the `dpnext-adaptive` crate). `None` for
/// every non-adaptive run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdaptiveMode {
    /// Not an adaptive run (or the ladder never ran).
    #[default]
    None,
    /// The full exact DP stream completed within the budget: the result
    /// is the EA-Prune optimum.
    Exact,
    /// The exact DP stream was aborted for budget, but one of the plans
    /// it built before the abort still won — deeper than the linearized
    /// interval space, yet not provably optimal.
    PartialExact,
    /// The plan is the optimum of the linearized DP over connected
    /// sub-intervals of the greedy linear order (the rung completed, or
    /// one of its splits produced the winner before the budget ran out);
    /// exact DP was skipped or abandoned without beating it.
    Linearized,
    /// Only the greedy (GOO-style) construction produced the winning
    /// plan before the budget ran out.
    Greedy,
}

/// Why (and how) a budgeted/deadlined run fell short of its deepest rung.
///
/// The former single `budget_exhausted` flag, split by *cause*: a rung can
/// be gated off up front by the ccp count estimate, aborted mid-stream by
/// the plan budget, or aborted mid-stream by a wall-clock deadline. All
/// flags `false` means the run completed its deepest rung (or was never
/// budgeted at all).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Degradation {
    /// The exact rung was skipped up front: the capped ccp pre-count
    /// (`count_ccps_capped`) showed the remaining budget could not cover
    /// the full enumeration, so the ladder never started it.
    pub budget_gated: bool,
    /// A rung started and was aborted mid-stream because the plan budget
    /// ran out before the enumeration finished.
    pub budget_aborted: bool,
    /// A rung was aborted mid-stream (or skipped) because the wall-clock
    /// deadline passed; overshoot is bounded by one enumeration work unit.
    pub deadline_aborted: bool,
    /// A rung was aborted mid-stream (or skipped) because the memo's live
    /// bytes ([`Memo::live_bytes`]) reached the per-request memory budget;
    /// overshoot is bounded by one enumeration work unit's plans.
    pub memory_aborted: bool,
}

impl Degradation {
    /// True when any degradation occurred — the run's result comes from a
    /// shallower rung than the budget-free optimum would have used.
    pub fn any(&self) -> bool {
        self.budget_gated || self.budget_aborted || self.deadline_aborted || self.memory_aborted
    }

    /// True when a *resource* (wall clock or memory), as opposed to the
    /// plan budget, cut the run short — the causes a serving layer treats
    /// as pressure signals rather than configured depth limits.
    pub fn resource_aborted(&self) -> bool {
        self.deadline_aborted || self.memory_aborted
    }
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.any() {
            return f.write_str("none");
        }
        let mut first = true;
        for (set, name) in [
            (self.budget_gated, "budget-gated"),
            (self.budget_aborted, "budget-aborted"),
            (self.deadline_aborted, "deadline-aborted"),
            (self.memory_aborted, "memory-aborted"),
        ] {
            if set {
                if !first {
                    f.write_str("+")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for AdaptiveMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AdaptiveMode::None => "none",
            AdaptiveMode::Exact => "exact",
            AdaptiveMode::PartialExact => "partial-exact",
            AdaptiveMode::Linearized => "linearized",
            AdaptiveMode::Greedy => "greedy",
        };
        f.write_str(s)
    }
}

/// Aggregate statistics of one memo, reported on [`crate::Optimized`].
/// Every field is a deterministic function of the query and the options,
/// so two runs can be compared with `==`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Plans held in the arena at the end of the run: the retained DP
    /// state plus every evicted/replaced *partial* plan. Partial plans
    /// can be children of later plans (including the winner), so only
    /// losing *complete* plans are reclaimed during enumeration —
    /// reclaiming evicted partials would need reference counting.
    pub arena_plans: u64,
    /// Largest arena size observed (live DP state + transient plans).
    pub arena_peak: u64,
    /// Widest plan class observed during the run.
    pub peak_class_width: u64,
    /// Dominance-pruned insertions attempted.
    pub prune_attempts: u64,
    /// Attempted insertions rejected because an incumbent dominates.
    pub prune_rejected: u64,
    /// Incumbents evicted because the new plan dominates them.
    pub prune_evicted: u64,
    /// Effective plan budget enforced by a budgeted search (the requested
    /// budget clamped up to the greedy floor); 0 when the run was not
    /// budgeted. When non-zero, `plans_built <= plan_budget` holds.
    pub plan_budget: u64,
    /// Memory budget (bytes) enforced by a budgeted search; 0 when the
    /// run was not memory-budgeted. When non-zero, the checked rungs stop
    /// within one work unit of `live_bytes` reaching it (the guaranteed
    /// greedy rung runs unchecked, like it ignores the clock).
    pub memory_budget: u64,
    /// Largest [`Memo::live_bytes`] observed during the run — arena rows
    /// plus cold-side heap estimates, before rollbacks reclaimed losing
    /// complete plans.
    pub live_bytes_peak: u64,
    /// Why the budgeted search fell short of its deepest rung, split by
    /// cause (gate, mid-stream budget abort, deadline abort); all-false
    /// when the deepest rung completed or the run was not budgeted.
    pub degradation: Degradation,
    /// Which adaptive ladder rung produced the plan (`None` for
    /// non-adaptive runs).
    pub adaptive_mode: AdaptiveMode,
}

impl MemoStats {
    /// Fraction of pruned insertions that did any work (rejected the new
    /// plan or evicted an incumbent). 0 when pruning never ran.
    pub fn prune_hit_rate(&self) -> f64 {
        if self.prune_attempts == 0 {
            return 0.0;
        }
        (self.prune_rejected + self.prune_evicted) as f64 / self.prune_attempts as f64
    }
}

/// The hot half of the dominance test: everything decidable from two
/// [`PlanHot`] rows. `Full` dominance additionally requires the cold-side
/// key implication, checked by the callers *after* this passes — the
/// `&&` order matches the original single-struct test exactly, so the
/// split changes no outcome.
#[inline]
fn dominates_hot(a: &PlanHot, b: &PlanHot, kind: DominanceKind, guard_groupjoin: bool) -> bool {
    if guard_groupjoin && a.has_grouping() && !b.has_grouping() {
        return false;
    }
    match kind {
        DominanceKind::CostOnly => a.cost <= b.cost,
        DominanceKind::CostCard => a.cost <= b.cost && a.card <= b.card,
        DominanceKind::Full => {
            a.cost <= b.cost && a.card <= b.card && (a.duplicate_free() || !b.duplicate_free())
        }
    }
}

/// Dominance test over split arenas: hot fast path first, cold key
/// implication only when everything else already holds (and only for
/// [`DominanceKind::Full`]).
#[inline]
fn dominates_split(
    a_hot: &PlanHot,
    b_hot: &PlanHot,
    cold: &[PlanCold],
    a: PlanId,
    b: PlanId,
    kind: DominanceKind,
    guard_groupjoin: bool,
) -> bool {
    if !dominates_hot(a_hot, b_hot, kind, guard_groupjoin) {
        return false;
    }
    kind != DominanceKind::Full
        || cold[a.index()]
            .keyinfo
            .keys
            .implies(&cold[b.index()].keyinfo.keys)
}

/// Dominance (Def. 4): `a` dominates `b` when it is at most as expensive,
/// at most as large, duplicate-free whenever `b` is, and its key set
/// implies `b`'s (the practical weakening of `FD⁺(a) ⊇ FD⁺(b)` suggested
/// in §4.6). In the presence of groupjoins a pre-aggregated plan must not
/// shadow a raw plan (the groupjoin needs raw right inputs).
pub fn dominates(
    a: PlanRef<'_>,
    b: PlanRef<'_>,
    kind: DominanceKind,
    guard_groupjoin: bool,
) -> bool {
    dominates_hot(a.hot, b.hot, kind, guard_groupjoin)
        && (kind != DominanceKind::Full || a.cold.keyinfo.keys.implies(&b.cold.keyinfo.keys))
}

/// `PruneDominatedPlans` (Fig. 13) against a detached class vector:
/// drop `id` if an incumbent dominates it, otherwise evict every
/// incumbent it dominates and append it. Plan data is read from the
/// split `hot`/`cold` arenas; the prune counters and the class-width
/// peak accrue in `stats`. [`Memo::class_prune_insert`] is the in-memo
/// form; this one is public so the `memo_layout` bench can time the fold
/// over a class of its own making.
pub fn prune_insert_ids(
    hot: &[PlanHot],
    cold: &[PlanCold],
    class: &mut Vec<PlanId>,
    id: PlanId,
    kind: DominanceKind,
    guard_groupjoin: bool,
    stats: &mut MemoStats,
) {
    stats.prune_attempts += 1;
    let new = hot[id.index()];
    for &old in class.iter() {
        if dominates_split(
            &hot[old.index()],
            &new,
            cold,
            old,
            id,
            kind,
            guard_groupjoin,
        ) {
            stats.prune_rejected += 1;
            return;
        }
    }
    let before = class.len();
    class.retain(|&old| {
        !dominates_split(
            &new,
            &hot[old.index()],
            cold,
            id,
            old,
            kind,
            guard_groupjoin,
        )
    });
    stats.prune_evicted += (before - class.len()) as u64;
    class.push(id);
    stats.peak_class_width = stats.peak_class_width.max(class.len() as u64);
}

/// The split arena plus the plan classes built over it.
#[derive(Debug, Default)]
pub struct Memo {
    hot: Vec<PlanHot>,
    cold: Vec<PlanCold>,
    classes: FxHashMap<NodeSet, Vec<PlanId>>,
    stats: MemoStats,
    /// Decaying high-water marks surviving [`Memo::reset`] — they bound
    /// how much allocation a pooled memo is allowed to carry across runs
    /// (not part of [`MemoStats`]: statistics reset per run).
    arena_high_water: usize,
    class_high_water: usize,
    /// Running sum of [`PlanCold::heap_bytes`] over the cold lane —
    /// maintained incrementally on push/truncate so [`Memo::live_bytes`]
    /// is O(1) and can be checked once per enumeration work unit.
    cold_heap_bytes: usize,
}

impl Index<PlanId> for Memo {
    type Output = PlanHot;

    #[inline]
    fn index(&self, id: PlanId) -> &PlanHot {
        &self.hot[id.index()]
    }
}

impl Memo {
    /// Both rows of one plan (hot + cold payload); indexing (`memo[id]`)
    /// yields the [`PlanHot`] row alone.
    #[inline]
    pub fn plan(&self, id: PlanId) -> PlanRef<'_> {
        PlanRef {
            hot: &self.hot[id.index()],
            cold: &self.cold[id.index()],
        }
    }

    /// `Eagerness` of a plan (§4.5): the number of grouping operators that
    /// are a direct child of the topmost join operator.
    pub fn eagerness(&self, id: PlanId) -> u32 {
        match &self.cold[id.index()].node {
            PlanNode::Apply { left, right, .. } => {
                let l = self[*left].is_group() as u32;
                let r = self[*right].is_group() as u32;
                l + r
            }
            _ => 0,
        }
    }

    /// Arena/class capacity floor kept through [`Memo::reset`]: shrinking
    /// below this saves nothing worth a re-malloc on the next run.
    const MIN_RETAINED_CAPACITY: usize = 1024;

    /// An empty memo.
    pub fn new() -> Memo {
        Memo::default()
    }

    /// Clear the memo for reuse, keeping (bounded) allocations.
    ///
    /// Every piece of per-run state is wiped: plans, classes and the
    /// whole [`MemoStats`] block — including the rollback high-water
    /// mark `arena_peak` and the prune counters, which would otherwise
    /// leak into the next run's report. A run on a reset memo produces
    /// bit-identical results and statistics to a run on a fresh one;
    /// only *capacity* carries over, which is the point: pooled
    /// back-to-back optimizations skip the re-malloc.
    ///
    /// Capacity is not kept unconditionally: a single huge query would
    /// otherwise pin worst-case arena and class-map footprint on the
    /// pooled memo forever. A decaying high-water mark (`hw = peak.max(hw/2)`
    /// per reset) tracks recent demand, and capacity above `2·hw` is
    /// released — repeat-heavy steady state keeps its warm allocation,
    /// while an outlier's footprint halves away within a few resets.
    pub fn reset(&mut self) {
        let arena_peak = (self.stats.arena_peak as usize).max(self.hot.len());
        self.arena_high_water = arena_peak.max(self.arena_high_water / 2);
        self.class_high_water = self.classes.len().max(self.class_high_water / 2);
        self.hot.clear();
        self.cold.clear();
        self.classes.clear();
        self.stats = MemoStats::default();
        self.cold_heap_bytes = 0;
        let arena_target = (self.arena_high_water * 2).max(Self::MIN_RETAINED_CAPACITY);
        if self.hot.capacity() > arena_target {
            self.hot.shrink_to(arena_target);
            self.cold.shrink_to(arena_target);
        }
        let class_target = (self.class_high_water * 2).max(Self::MIN_RETAINED_CAPACITY);
        if self.classes.capacity() > class_target {
            self.classes.shrink_to(class_target);
        }
    }

    /// Allocated arena capacity in plans (diagnostic for arena pooling:
    /// a warmed-up pool serves repeat queries without growing this).
    pub fn arena_capacity(&self) -> usize {
        self.hot.capacity()
    }

    /// Store a plan in the arena (does not touch any class).
    #[inline]
    pub fn push(&mut self, plan: MemoPlan) -> PlanId {
        let id = PlanId::from_index(self.hot.len());
        let (hot, cold) = plan.split();
        self.cold_heap_bytes += cold.heap_bytes();
        self.hot.push(hot);
        self.cold.push(cold);
        self.stats.live_bytes_peak = self.stats.live_bytes_peak.max(self.live_bytes());
        id
    }

    /// Estimated bytes of *live* plan state: both SoA lanes at their
    /// current length plus the cold rows' heap payloads
    /// ([`PlanCold::heap_bytes`]). O(1) — the heap term is a running
    /// counter — so the budgeted search can check it once per work unit.
    /// Class id lists and lane over-capacity are not counted; see
    /// [`Memo::footprint_bytes`] for the allocation-side view.
    #[inline]
    pub fn live_bytes(&self) -> u64 {
        (self.hot.len() * ARENA_ROW_BYTES + self.cold_heap_bytes) as u64
    }

    /// Estimated bytes this memo *holds allocated*: lane capacities (not
    /// lengths) plus the live cold heap and the class map's table. This is
    /// what a parked memo pins between runs — the quantity the serving
    /// layer's global ledger accounts.
    pub fn footprint_bytes(&self) -> u64 {
        let lanes = self.hot.capacity() * ARENA_ROW_BYTES;
        let classes = self.classes.capacity() * (size_of::<NodeSet>() + size_of::<Vec<PlanId>>())
            + self
                .classes
                .values()
                .map(|v| v.capacity() * size_of::<PlanId>())
                .sum::<usize>();
        (lanes + self.cold_heap_bytes + classes) as u64
    }

    /// Number of plans in the arena.
    pub fn arena_len(&self) -> usize {
        self.hot.len()
    }

    /// Roll the arena back to `len` entries, discarding plans pushed since.
    ///
    /// Callers must guarantee that no class and no retained id references
    /// a truncated plan. The enumeration engine uses this to reclaim
    /// complete (full-set) plans that lost the cost comparison — they are
    /// never inserted into a class, and on EA-All they outnumber retained
    /// plans by an order of magnitude.
    pub fn truncate(&mut self, len: usize) {
        debug_assert!(len <= self.hot.len());
        self.stats.arena_peak = self.stats.arena_peak.max(self.hot.len() as u64);
        // Reclaim the truncated rows' heap estimate: O(rows dropped),
        // proportional to the plans that were built — never a full-arena
        // walk.
        for row in &self.cold[len..] {
            self.cold_heap_bytes -= row.heap_bytes();
        }
        self.hot.truncate(len);
        self.cold.truncate(len);
    }

    /// Record the outcome of a budgeted search: the effective plan and
    /// memory budgets, the per-cause degradation flags and the adaptive
    /// ladder rung that won.
    pub fn record_budget(
        &mut self,
        plan_budget: u64,
        memory_budget: u64,
        degradation: Degradation,
        mode: AdaptiveMode,
    ) {
        self.stats.plan_budget = plan_budget;
        self.stats.memory_budget = memory_budget;
        self.stats.degradation = degradation;
        self.stats.adaptive_mode = mode;
    }

    /// Check the structural invariants a healthy memo upholds: the hot and
    /// cold arenas are index-aligned, and every class entry points at an
    /// arena row whose `NodeSet` matches the class key. A memo that fails
    /// this was corrupted mid-run (e.g. truncated while classes still
    /// referenced the tail) and must not be reused — [`Memo::reset`] does
    /// not repair dangling *capacity* state reads would trip over first.
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.hot.len() != self.cold.len() {
            return Err(format!(
                "hot/cold arenas misaligned: {} hot rows vs {} cold rows",
                self.hot.len(),
                self.cold.len()
            ));
        }
        for (set, ids) in &self.classes {
            for &id in ids {
                let Some(hot) = self.hot.get(id.index()) else {
                    return Err(format!(
                        "class {set:?} references plan {} past arena end {}",
                        id.index(),
                        self.hot.len()
                    ));
                };
                if hot.set != *set {
                    return Err(format!(
                        "class {set:?} holds plan {} whose set is {:?}",
                        id.index(),
                        hot.set
                    ));
                }
            }
        }
        Ok(())
    }

    /// The plan class of `s` (empty when no plan covers `s` yet).
    #[inline]
    pub fn class(&self, s: NodeSet) -> &[PlanId] {
        self.classes.get(&s).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Append `id` to the class of `s` unconditionally.
    pub fn class_push(&mut self, s: NodeSet, id: PlanId) {
        let class = self.classes.entry(s).or_default();
        class.push(id);
        self.stats.peak_class_width = self.stats.peak_class_width.max(class.len() as u64);
    }

    /// Make `id` the sole member of the class of `s` (single-plan DP).
    pub fn class_set_single(&mut self, s: NodeSet, id: PlanId) {
        let class = self.classes.entry(s).or_default();
        class.clear();
        class.push(id);
        self.stats.peak_class_width = self.stats.peak_class_width.max(1);
    }

    /// `PruneDominatedPlans` (Fig. 13) on ids: drop `id` if an incumbent
    /// of the class dominates it, otherwise evict every incumbent it
    /// dominates and append it.
    pub fn class_prune_insert(
        &mut self,
        s: NodeSet,
        id: PlanId,
        kind: DominanceKind,
        guard_groupjoin: bool,
    ) {
        let class = self.classes.entry(s).or_default();
        prune_insert_ids(
            &self.hot,
            &self.cold,
            class,
            id,
            kind,
            guard_groupjoin,
            &mut self.stats,
        );
    }

    /// Shrink the class of `s` to its representative member(s): the
    /// cheapest plan, plus — when `keep_raw` and the cheapest plan
    /// contains a grouping — the cheapest grouping-free plan, so a later
    /// groupjoin application (which needs raw right inputs) is not
    /// structurally cut off. The greedy rung of the adaptive optimizer
    /// uses this to keep its per-component state GOO-sized (one or two
    /// plans) instead of letting class widths compound across merges.
    pub fn class_shrink_to_best(&mut self, s: NodeSet, keep_raw: bool) {
        let Some(class) = self.classes.get_mut(&s) else {
            return;
        };
        let best = class.iter().copied().min_by(|&a, &b| {
            self.hot[a.index()]
                .cost
                .total_cmp(&self.hot[b.index()].cost)
        });
        let Some(best) = best else { return };
        let raw = (keep_raw && self.hot[best.index()].has_grouping())
            .then(|| {
                class
                    .iter()
                    .copied()
                    .filter(|&id| !self.hot[id.index()].has_grouping())
                    .min_by(|&a, &b| {
                        self.hot[a.index()]
                            .cost
                            .total_cmp(&self.hot[b.index()].cost)
                    })
            })
            .flatten();
        class.clear();
        class.push(best);
        if let Some(raw) = raw {
            class.push(raw);
        }
    }

    /// Every hot row in arena order — with [`Memo::cold_plans`], the
    /// slices [`prune_insert_ids`] folds a detached class against.
    #[inline]
    pub fn hot_plans(&self) -> &[PlanHot] {
        &self.hot
    }

    /// Every cold row in arena order (index-aligned with
    /// [`Memo::hot_plans`]).
    #[inline]
    pub fn cold_plans(&self) -> &[PlanCold] {
        &self.cold
    }

    /// Snapshot of all plan classes sorted by node set — a deterministic
    /// view of the DP state for tests and diagnostics (the map itself
    /// iterates in hash order).
    pub fn classes_sorted(&self) -> Vec<(NodeSet, &[PlanId])> {
        let mut all: Vec<(NodeSet, &[PlanId])> = self
            .classes
            .iter()
            .map(|(&s, ids)| (s, ids.as_slice()))
            .collect();
        all.sort_unstable_by_key(|&(s, _)| s);
        all
    }

    /// Number of classes holding at least one plan.
    pub fn class_count(&self) -> u64 {
        self.classes.len() as u64
    }

    /// Total plans retained across all classes.
    pub fn retained(&self) -> u64 {
        self.classes.values().map(|v| v.len() as u64).sum()
    }

    /// Every id retained in some class, in ascending arena order (the
    /// class map itself iterates in hash order — sort for determinism).
    pub fn retained_ids(&self) -> Vec<PlanId> {
        let mut ids: Vec<PlanId> = self.classes.values().flatten().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Snapshot of the memo statistics (arena sizes filled in).
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            arena_plans: self.hot.len() as u64,
            arena_peak: self.stats.arena_peak.max(self.hot.len() as u64),
            live_bytes_peak: self.stats.live_bytes_peak.max(self.live_bytes()),
            ..self.stats
        }
    }
}
