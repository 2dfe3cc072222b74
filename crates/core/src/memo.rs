//! The arena-backed DP memo: plans are [`PlanId`] indices into a
//! contiguous arena, plan classes are per-[`NodeSet`] id lists owned by
//! the memo, and a class is thinned by one step, [`Memo::fold`], under
//! whichever relation ([`ThinBy`]) the generator runs with.
//!
//! The arena is split structure-of-arrays into a **hot** row
//! ([`PlanHot`]: set, cardinality, cost, key/grouping flags and a 32-bit
//! key signature — everything the dominance test of Def. 4 reads before
//! it needs the key sets) and a **cold** row ([`PlanCold`]: the operator
//! node plus `(start, len)` [`Span`]s naming the plan's key set and
//! aggregation state). A key is a mask of `W` words, set by a run's scans
//! ([`crate::OptContext::key_width`]), and a `Group` node's grouping
//! attributes `G⁺(S)` are its one key. A row holds nothing the search does
//! not read: which attributes a plan exposes and which operators it applied
//! follow from its tree, and a valid query ([`dpnext_query::Query::new`])
//! makes every cut see what it reads, so [`crate::validate`] derives both
//! from the tree when a test asks.
//! Both rows are `Copy`. The variable-length payloads themselves live in
//! four append-only **lanes** ([`Lanes`]) owned by the memo, so building a
//! plan is a handful of `extend_from_slice`s, and rolling plans back
//! ([`Memo::truncate`]), clearing the memo ([`Memo::reset`]) or dropping it
//! runs no per-plan destructor. A row whose derived property *is* an
//! input's property copies the input's span instead of the data; see
//! `docs/ARCHITECTURE.md` § "Memo data layout" for why LIFO rollback keeps
//! that sound.
//!
//! A class thinned by dominance also keeps, beside its id list, its
//! members sorted by cost in a `RowStore`: three columns of one buffer —
//! cost, cardinality, and the id packed with a mask of the key signature
//! and the two flags Def. 4 reads — 24 bytes a member. A fold tests the
//! candidate for rejection against the cheaper prefix and for eviction
//! against the costlier suffix, eight members per branch-free step, and
//! reads the arena only for key-set implication.
//!
//! The memo is the optimizer's single source of truth for DP state; the
//! enumeration engine in [`crate::algo`] only decides *which* plans to
//! build and which relation the classes are thinned by.

use crate::aggstate::{AggPos, AggRef};
use crate::keyset::{KeySet, KeysRef};
use dpnext_algebra::{AttrId, CmpOp, JoinPred};
use dpnext_hypergraph::{FxHashMap, NodeSet};
use dpnext_query::OpKind;
use std::ops::{Index, Range};

/// A `(start, len)` window into an append-only vector ("lane").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Index of the first element.
    pub start: u32,
    /// Number of elements.
    pub len: u32,
}

impl Span {
    /// The window `[start, start + len)`; panics when it does not fit `u32`.
    #[inline]
    pub(crate) fn new(start: usize, len: usize) -> Span {
        // `end` fitting implies both fields fit.
        u32::try_from(start + len).expect("lane overflows u32");
        Span {
            start: start as u32,
            len: len as u32,
        }
    }

    /// The index range this span covers.
    #[inline]
    pub(crate) fn range(self) -> Range<usize> {
        self.start as usize..self.end()
    }

    /// One past the last index covered.
    #[inline]
    pub(crate) fn end(self) -> usize {
        self.start as usize + self.len as usize
    }

    /// Whether the span covers nothing.
    #[inline]
    pub(crate) fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The elements of `lane` this span covers.
    #[inline]
    pub fn of<T>(self, lane: &[T]) -> &[T] {
        &lane[self.range()]
    }
}

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

/// One oriented predicate term `left attribute ∘ right attribute`.
pub type Term = (AttrId, CmpOp, AttrId);

/// One operator of a plan tree; children are arena indices, variable-length
/// parts are spans into the memo's [`Lanes`].
#[derive(Debug, Clone, Copy)]
pub enum PlanNode {
    /// Scan of a table occurrence.
    Scan {
        /// Index into the query's table vector.
        table: u32,
    },
    /// A binary operator application with its oriented predicate.
    Apply {
        /// Operator kind (join, outer join, groupjoin, ...).
        op: OpKind,
        /// Index of the operator into the conflicted query's list — where a
        /// groupjoin's aggregates are read from.
        op_idx: u8,
        /// The operator's predicate, oriented left-to-right, in
        /// [`Lanes::terms`]. Every plan of one orientation applies the
        /// identical predicate, so the enumeration stages it once per
        /// orientation and each plan holds the same span.
        pred: Span,
        /// Left input plan.
        left: PlanId,
        /// Right input plan.
        right: PlanId,
    },
    /// An eager-aggregation grouping `Γ_{G⁺(S); F¹ ∘ (c : count(*))}`. Its
    /// grouping attributes `G⁺(S)` are the plan's one key
    /// ([`PlanRef::grouping_key`]), and its aggregation vector is not
    /// stored: [`crate::finalize::compile`] rebuilds it for the one winner
    /// from the input's and this plan's aggregation state.
    Group {
        /// The plan being grouped.
        input: PlanId,
    },
}

/// The properties of one plan that the enumeration reads per candidate,
/// packed into a 32-byte `Copy` row: bounds, flags and the key signature.
/// The operator tree and key sets stay out of the cache until a plan is
/// combined or materialized. A dominance fold does
/// not scan these rows: it reads a copy of what Def. 4 needs in its
/// class's `RowStore`, and comes back to the arena only for the key
/// sets of a pair the rows cannot refute.
#[derive(Debug, Clone, Copy)]
pub struct PlanHot {
    /// Relations covered.
    pub set: NodeSet,
    /// Estimated output cardinality.
    pub card: f64,
    /// Accumulated `C_out`.
    pub cost: f64,
    /// Packed `HAS_GROUPING` / `DUP_FREE` / `IS_GROUP` bits.
    flags: u8,
    /// [`KeysRef::signature`] of the cold row's key set, in what was the
    /// padding after `flags`.
    key_sig: u32,
}

impl PlanHot {
    const HAS_GROUPING: u8 = 1;
    const DUP_FREE: u8 = 2;
    const IS_GROUP: u8 = 4;

    /// A hot row of a plan without keys (signature all-ones); the flags are
    /// packed into one byte. A keyed plan's row takes its signature with
    /// [`PlanHot::with_key_sig`].
    #[inline]
    pub fn new(
        set: NodeSet,
        card: f64,
        cost: f64,
        has_grouping: bool,
        duplicate_free: bool,
        is_group: bool,
    ) -> PlanHot {
        PlanHot {
            set,
            card,
            cost,
            flags: (has_grouping as u8 * Self::HAS_GROUPING)
                | (duplicate_free as u8 * Self::DUP_FREE)
                | (is_group as u8 * Self::IS_GROUP),
            key_sig: u32::MAX,
        }
    }

    /// This row with `key_sig`, the `KeysRef::signature` of the key set
    /// its cold row names. The constructors in [`crate::plan`] set it
    /// where they decide the key set: a handed-through set copies its
    /// input's signature, a new set computes it once.
    #[inline]
    pub fn with_key_sig(self, key_sig: u32) -> PlanHot {
        PlanHot { key_sig, ..self }
    }

    /// The signature of the plan's key set; see [`PlanHot::with_key_sig`].
    #[inline]
    pub fn key_sig(&self) -> u32 {
        self.key_sig
    }

    /// Whether any `Group` node occurs in the plan tree.
    #[inline]
    pub fn has_grouping(&self) -> bool {
        self.flags & Self::HAS_GROUPING != 0
    }

    /// Whether the plan's output is duplicate-free.
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
/// read on its fast path, as a `Copy` row of spans into the memo's
/// [`Lanes`]. Resolve them through [`Memo::plan`] / [`PlanRef`].
#[derive(Debug, Clone, Copy)]
pub struct PlanCold {
    /// The root operator; children are arena ids.
    pub node: PlanNode,
    /// Candidate keys: a run of [`Lanes::keys`], a whole number of keys.
    pub keys: Span,
    /// Per original aggregate, where it lives: a run of [`Lanes::agg_pos`].
    pub agg_pos: Span,
    /// Active count columns: a run of [`Lanes::counts`].
    pub counts: Span,
}

// Both rows must stay plain data: `truncate`, `reset` and dropping a memo
// rely on there being no per-plan destructor.
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<PlanHot>();
    assert_copy::<PlanCold>();
};
// Three words and the flag byte, with the key signature in what would be
// padding after it.
const _: () = assert!(size_of::<PlanHot>() == 32);

/// Bytes one arena slot occupies in the two row arrays (the payload the
/// row's spans name is counted by the lanes).
pub const ARENA_ROW_BYTES: usize = size_of::<PlanHot>() + size_of::<PlanCold>();

/// Number of payload lanes.
const LANES: usize = 4;

/// Element size of each lane, in [`Lanes::lens`] order.
const LANE_ELEM_BYTES: [usize; LANES] = [
    size_of::<u64>(),
    size_of::<AggPos>(),
    size_of::<(NodeSet, AttrId)>(),
    size_of::<Term>(),
];

/// Append `items` to `lane` and return where they landed.
#[inline]
fn append<T: Copy>(lane: &mut Vec<T>, items: &[T]) -> Span {
    let span = Span::new(lane.len(), items.len());
    lane.extend_from_slice(items);
    span
}

fn lane_bytes(lens: [usize; LANES]) -> usize {
    lens.iter().zip(LANE_ELEM_BYTES).map(|(l, b)| l * b).sum()
}

/// The append-only payload lanes of a memo. A [`PlanCold`] row names its
/// payloads by [`Span`]; a span either lies at the lane's tail when the row
/// is pushed (the row *owns* it) or repeats a span of an input plan (the
/// row *shares* it). Inputs have smaller ids than the plans built from
/// them and rollback is LIFO, so shared data always outlives its sharers.
#[derive(Debug, Default)]
pub struct Lanes {
    /// Words per key: the run's [`crate::OptContext::key_width`], set by
    /// its scans ([`crate::make_scan`]).
    pub(crate) key_width: usize,
    /// Candidate keys, `key_width` words each; a key set is a run of
    /// whole keys.
    pub keys: Vec<u64>,
    /// Aggregate positions, one run per plan, indexed like the query's
    /// normalized aggregation vector.
    pub agg_pos: Vec<AggPos>,
    /// Count columns `(scope, column)`.
    pub counts: Vec<(NodeSet, AttrId)>,
    /// Oriented predicate terms, one run per staged cut orientation.
    pub terms: Vec<Term>,
}

impl Lanes {
    /// Current length of every lane.
    pub fn lens(&self) -> [usize; LANES] {
        [
            self.keys.len(),
            self.agg_pos.len(),
            self.counts.len(),
            self.terms.len(),
        ]
    }

    fn capacities(&self) -> [usize; LANES] {
        [
            self.keys.capacity(),
            self.agg_pos.capacity(),
            self.counts.capacity(),
            self.terms.capacity(),
        ]
    }

    fn truncate(&mut self, lens: [usize; LANES]) {
        self.keys.truncate(lens[0]);
        self.agg_pos.truncate(lens[1]);
        self.counts.truncate(lens[2]);
        self.terms.truncate(lens[3]);
    }

    /// The key set a row's `keys` span names.
    #[inline]
    pub fn key_set(&self, keys: Span) -> KeysRef<'_> {
        KeysRef::new(self.key_width, keys.of(&self.keys))
    }

    /// The aggregation state a row's `agg_pos` / `counts` spans name.
    #[inline]
    pub fn agg(&self, cold: &PlanCold) -> AggRef<'_> {
        AggRef {
            pos: cold.agg_pos.of(&self.agg_pos),
            counts: cold.counts.of(&self.counts),
        }
    }

    /// The predicate an `Apply` node's `pred` span names, as an owned value.
    pub fn join_pred(&self, pred: Span) -> JoinPred {
        JoinPred {
            terms: pred.of(&self.terms).to_vec(),
        }
    }

    /// Append a copy of `keys`, which must be as wide as the run's.
    #[inline]
    pub(crate) fn push_key_set(&mut self, keys: KeysRef<'_>) -> Span {
        debug_assert_eq!(self.key_width, keys.width, "key width of another run");
        append(&mut self.keys, keys.words)
    }
}

/// A borrowed view of one plan: its two rows plus the lanes their spans
/// point into.
#[derive(Clone, Copy)]
pub struct PlanRef<'a> {
    /// The dominance-relevant properties.
    pub hot: &'a PlanHot,
    /// The materialization payload (spans into `lanes`).
    pub cold: &'a PlanCold,
    /// The memo's payload lanes.
    pub lanes: &'a Lanes,
}

impl<'a> PlanRef<'a> {
    /// Candidate keys of the plan's output.
    #[inline]
    pub fn keys(&self) -> KeysRef<'a> {
        self.lanes.key_set(self.cold.keys)
    }

    /// Aggregation state (positions of original aggregates, count columns).
    #[inline]
    pub fn agg(&self) -> AggRef<'a> {
        self.lanes.agg(self.cold)
    }

    /// A `Group` node's grouping attributes `G⁺(S)` as a mask: its one
    /// key. Decode it with [`crate::OptContext::decode_key`].
    pub fn grouping_key(&self) -> &'a [u64] {
        let key = self.keys().iter().next();
        key.expect("a grouping's one key is its G⁺(S)")
    }
}

/// A rollback point: the arena length and every lane length at one moment
/// ([`Memo::mark`]). Comparable, so a test can assert a rollback restored
/// the exact state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoMark {
    rows: usize,
    lanes: [usize; LANES],
}

impl MemoMark {
    /// Whether the plan `id` was in the arena when the mark was taken, so a
    /// rollback to the mark leaves it in place.
    #[inline]
    pub fn covers(&self, id: PlanId) -> bool {
        id.index() < self.rows
    }
}

/// Which rung of the adaptive degradation ladder produced the final plan
/// (`Algorithm::Adaptive`, see [`crate::ladder`]). `None` for every run
/// that did not climb it.
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

/// Why (and how) a budgeted run fell short of its deepest rung, by cause —
/// three of them: a rung can be gated off up front by the ccp count
/// estimate, or aborted mid-stream by whichever resource of its budget
/// ran out first — the plan budget or the wall-clock deadline. Only the
/// cause that tripped is set, not
/// the limits that were merely armed. All flags `false` means the run
/// completed its deepest rung (or was never budgeted at all).
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
    /// deadline passed. The greedy rung reads no clock, so a deadline that
    /// passes during it is overshot by the rest of the greedy pass; one that
    /// passes in a later rung, by at most one enumeration work unit.
    pub deadline_aborted: bool,
}

impl Degradation {
    /// True when any degradation occurred — the run's result comes from a
    /// shallower rung than the budget-free optimum would have used.
    pub fn any(&self) -> bool {
        self.budget_gated || self.budget_aborted || self.deadline_aborted
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
/// so two runs can be compared with `==`. The budget, degradation and rung
/// fields describe what a ladder made of its search: the ladder writes
/// them on its result, and they keep their defaults everywhere else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Rows held in the arena at the end of the run: what the classes
    /// retain, plus what LIFO rollback cannot reach — incumbents a later
    /// candidate evicted (they may be children of later plans, the winner
    /// included), former best complete plans, and the pushed-down grouping
    /// sub-nodes under a kept tree. A candidate its class refuses and a
    /// complete plan that loses the cost comparison are popped during
    /// enumeration, before anything is built on top of them.
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
    /// budget clamped up to the greedy floor); 0 when the run had no plan
    /// limit — not budgeted at all, or bounded by a deadline only. When
    /// non-zero, `plans_built <= plan_budget` holds.
    pub plan_budget: u64,
    /// Largest [`Memo::live_bytes`] observed during the run — arena rows
    /// plus payload-lane bytes, sampled before every rollback (a refused
    /// candidate is counted until it is popped) and when statistics are
    /// read.
    pub live_bytes_peak: u64,
    /// Why the budgeted search fell short of its deepest rung, split by
    /// cause (gate, mid-stream plan-budget abort, deadline abort);
    /// all-false when the deepest rung completed or the run was not
    /// budgeted.
    pub degradation: Degradation,
    /// Which adaptive ladder rung produced the plan (`None` for
    /// non-adaptive runs).
    pub adaptive_mode: AdaptiveMode,
}

impl MemoStats {
    /// Prune hits per attempt: candidates rejected plus *incumbents*
    /// evicted, over dominance folds attempted. One accepted candidate can
    /// evict several incumbents, so this is not a share of the insertions;
    /// it stays at most 1 because an evicted incumbent was itself an
    /// accepted attempt. 0 when pruning never ran.
    pub fn prune_hit_rate(&self) -> f64 {
        if self.prune_attempts == 0 {
            return 0.0;
        }
        (self.prune_rejected + self.prune_evicted) as f64 / self.prune_attempts as f64
    }
}

/// The relation a plan class is thinned by — the one thing in which the
/// five generators of §4 differ. `a ≼ b` ("`a` precedes `b`") says that a
/// class holding `a` has no use for `b`; [`Memo::fold`] is the one step
/// that thins a class by it. Pruning with a relation keeps the optimum
/// only if the relation is monotone under every plan constructor
/// (`p ≼ q ⇒ op(p, r) ≼ op(q, r)`): `crates/core/tests/thinning.rs` holds
/// [`ThinBy::Dominance`] to that, and records test-local weakenings of it
/// (cost only; cost and cardinality) that break it and so can lose the
/// optimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThinBy {
    /// The empty relation — nothing precedes anything: a class keeps every
    /// plan (EA-All, Fig. 9).
    Nothing,
    /// The total cost order, ties to the earlier plan: a class keeps its
    /// one cheapest plan (DPhyp, Fig. 5; H1, Fig. 10). With a tolerance
    /// factor `F` the costs are compared eagerness-adjusted
    /// (`CompareAdjustedCosts` of H2, Fig. 12).
    Cheapest(Option<f64>),
    /// Dominance (Def. 4; EA-Prune, Figs. 13/14): `a` is at most as
    /// expensive and at most as large as `b`, duplicate-free whenever `b`
    /// is, and its key set implies `b`'s (the practical weakening of
    /// `FD⁺(a) ⊇ FD⁺(b)` suggested in §4.6). The key sets are read only
    /// when the two plans' `DomRow`s pass (`DomRow::may_precede`):
    /// cost, cardinality, duplicate-freeness, the groupjoin guard and 30
    /// bits of the key signatures (`KeysRef::signature`, a monotone fold
    /// of the key masks). Key-set
    /// implication implies the signature test, so the relation is exactly
    /// this one.
    Dominance {
        /// In the presence of groupjoins a pre-aggregated plan must not
        /// shadow a raw one (the groupjoin needs raw right inputs).
        guard_groupjoin: bool,
    },
}

impl ThinBy {
    /// Whether `a ≼ b`, for two plans of `memo`. Dominance decides on the
    /// two plans' `DomRow`s first, the test [`Memo::fold`] runs on a
    /// class's row store; the key sets are read only when the rows pass.
    pub fn precedes(self, memo: &Memo, a: PlanId, b: PlanId) -> bool {
        let (hot, cold) = (&memo.hot, &memo.cold);
        match self {
            ThinBy::Nothing => false,
            // `b` has to beat `a` strictly to be worth keeping.
            ThinBy::Cheapest(factor) => !adjusted_less(hot, cold, b, a, factor),
            ThinBy::Dominance { guard_groupjoin } => {
                DomRow::of(hot, a).may_precede(DomRow::of(hot, b), DomRow::care(guard_groupjoin))
                    && keys_imply(cold, &memo.lanes, a, b)
            }
        }
    }
}

/// Whether the key set of `a` implies the key set of `b`: the half of
/// Def. 4 that no row decides.
#[inline]
fn keys_imply(cold: &[PlanCold], lanes: &Lanes, a: PlanId, b: PlanId) -> bool {
    lanes
        .key_set(cold[a.index()].keys)
        .implies(lanes.key_set(cold[b.index()].keys))
}

/// One member of a dominance-thinned class as [`Memo::fold`] tests it:
/// everything of Def. 4 that a row can decide. [`RowStore`] keeps a
/// class's rows as columns; this is one of them gathered, the single
/// definition of the row test ([`DomRow::may_precede`]) that
/// [`ThinBy::precedes`], the invariant check and the store's debug
/// cross-check read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DomRow {
    /// The plan's cost, with −0 read as +0 so the store's order
    /// ([`f64::total_cmp`]) and `<=` agree on every pair that is not NaN.
    pub(crate) cost: f64,
    /// The plan's cardinality.
    pub(crate) card: f64,
    /// The plan.
    pub(crate) id: PlanId,
    /// The low 30 bits of the key signature, `NOT_DUP_FREE` and
    /// `HAS_GROUPING`: each is a bit `a` may hold only if `b` does, for
    /// `a` to precede `b`.
    mask: u32,
}

impl DomRow {
    /// Set when the plan's output may hold duplicates: a duplicate-free
    /// plan is never preceded by one that is not.
    const NOT_DUP_FREE: u32 = 1 << 30;
    /// Set when the plan contains a grouping; it counts only under the
    /// groupjoin guard, where a pre-aggregated plan must not shadow a raw
    /// one.
    const HAS_GROUPING: u32 = 1 << 31;
    /// The key-signature bits kept. Dropping two only weakens the
    /// prefilter: key-set implication still decides.
    const SIGNATURE: u32 = Self::NOT_DUP_FREE - 1;

    /// The row of plan `id`.
    #[inline]
    fn of(hot: &[PlanHot], id: PlanId) -> DomRow {
        let h = &hot[id.index()];
        DomRow {
            cost: h.cost + 0.0,
            card: h.card,
            id,
            mask: (h.key_sig & Self::SIGNATURE)
                | (!h.duplicate_free() as u32 * Self::NOT_DUP_FREE)
                | (h.has_grouping() as u32 * Self::HAS_GROUPING),
        }
    }

    /// The mask bits `DomRow::may_precede` compares.
    #[inline]
    fn care(guard_groupjoin: bool) -> u32 {
        if guard_groupjoin {
            u32::MAX
        } else {
            !Self::HAS_GROUPING
        }
    }

    /// Everything of `self ≼ b` under dominance that two rows decide: all
    /// of it but key-set implication, of which the signature bits decide
    /// the `false` side.
    #[inline]
    fn may_precede(self, b: DomRow, care: u32) -> bool {
        self.cost <= b.cost && self.card <= b.card && self.mask & !b.mask & care == 0
    }

    /// The mask and the id in one word, as the store's third column holds
    /// them: the mask in the high half, so a mask test is one `&`.
    #[inline]
    fn word(self) -> u64 {
        (self.mask as u64) << 32 | self.id.0 as u64
    }

    /// The row's fields as bits, for an exact comparison.
    fn bits(self) -> (u64, u64, u64) {
        (self.cost.to_bits(), self.card.to_bits(), self.word())
    }
}

/// Rows per lane group: the fold tests one group of a column per step.
pub(crate) const GROUP: usize = 8;

/// The lanes of one group: bit `k` stands for row `8g + k`.
type Lanes8 = u32;

/// A dominance-thinned class's members as [`DomRow`]s, sorted by cost
/// ([`f64::total_cmp`]), stored as three columns of one buffer: the cost
/// bits, the cardinality bits, and the mask and the id packed into one
/// word ([`DomRow::word`]), 24 bytes a row. A candidate can be preceded
/// only by a prefix of the rows and can precede only a suffix, and a fold
/// tests each of them a group of [`GROUP`] rows at a time: one
/// branch-free pass over the three columns yields the lanes whose rows
/// pass the row test, and only those lanes read key sets, in cost order.
#[derive(Debug, Default)]
struct RowStore {
    /// `[cost; cap] [card; cap] [word; cap]` in groups of [`GROUP`], every
    /// word initialised, so a group read past the last row stays in the
    /// buffer (its lanes are masked off).
    buf: Vec<[u64; GROUP]>,
    /// Rows held.
    len: u32,
    /// The most rows the class held in this run, what [`Memo::reset`]
    /// sizes the buffer it keeps by.
    peak: u32,
}

impl RowStore {
    /// Groups per column.
    #[inline]
    fn groups(&self) -> usize {
        self.buf.len() / 3
    }

    /// Rows the buffer holds room for: the stride of its columns.
    #[inline]
    fn cap(&self) -> usize {
        self.groups() * GROUP
    }

    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn clear(&mut self) {
        self.len = 0;
    }

    /// The cost of row `i`.
    #[inline]
    fn cost(&self, i: usize) -> f64 {
        f64::from_bits(self.buf[i / GROUP][i % GROUP])
    }

    /// Row `i`, gathered from the three columns.
    #[inline]
    fn row(&self, i: usize) -> DomRow {
        let (n, g, k) = (self.groups(), i / GROUP, i % GROUP);
        let word = self.buf[2 * n + g][k];
        DomRow {
            cost: f64::from_bits(self.buf[g][k]),
            card: f64::from_bits(self.buf[n + g][k]),
            id: PlanId(word as u32),
            mask: (word >> 32) as u32,
        }
    }

    /// Write `r` as row `i`.
    #[inline]
    fn set(&mut self, i: usize, r: DomRow) {
        let (n, g, k) = (self.groups(), i / GROUP, i % GROUP);
        self.buf[g][k] = r.cost.to_bits();
        self.buf[n + g][k] = r.card.to_bits();
        self.buf[2 * n + g][k] = r.word();
    }

    /// Every row, in cost order.
    fn iter(&self) -> impl Iterator<Item = DomRow> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// The lanes of group `g` whose row passes `test(cost, card, word)`,
    /// all eight tested without a branch.
    ///
    /// Written this way because of what the compiler makes of it on
    /// baseline x86-64 (SSE2): a bit mask built lane by lane compiles to
    /// half the lanes packed and half scalar, ~80 instructions a group,
    /// while an OR over the eight lanes compiles to packed compares and
    /// one mask move, ~55, and the mask is then two more instructions.
    #[inline(always)]
    fn lanes(&self, g: usize, test: impl Fn(f64, f64, u64) -> bool) -> Lanes8 {
        let n = self.groups();
        let (cost, card, word) = (&self.buf[g], &self.buf[n + g], &self.buf[2 * n + g]);
        let pass = |k: usize| test(f64::from_bits(cost[k]), f64::from_bits(card[k]), word[k]);
        // Most groups have no lane that passes.
        let mut any = 0u64;
        for k in 0..GROUP {
            any |= 0u64.wrapping_sub(pass(k) as u64);
        }
        if any == 0 {
            return 0;
        }
        let mut lanes = 0;
        for k in 0..GROUP {
            lanes |= (pass(k) as Lanes8) << k;
        }
        lanes
    }

    /// The lanes among `valid` of group `g` whose row passes `test`,
    /// decided row by row: what [`RowStore::lanes`] must select.
    fn lanes_by_row(&self, g: usize, valid: Lanes8, test: impl Fn(DomRow) -> bool) -> Lanes8 {
        (0..GROUP)
            .filter(|&k| valid >> k & 1 == 1 && test(self.row(g * GROUP + k)))
            .fold(0, |lanes, k| lanes | 1 << k)
    }

    /// The lanes of group `g` that hold a row at or past `from`.
    #[inline]
    fn valid(&self, g: usize, from: usize) -> Lanes8 {
        let at = g * GROUP;
        let end = (self.len() - at).min(GROUP);
        let below = from.saturating_sub(at).min(GROUP);
        ((1 << end) - 1) & !((1 << below) - 1)
    }

    /// Whether a row `r` with `r.may_precede(new)` and `keys(r.id)`
    /// exists. Only a row at most as expensive can pass, so the walk ends
    /// after the group whose last row costs more than `new` (a test on
    /// `>`, so a NaN row, which precedes nothing, never ends it early).
    #[inline]
    fn any_precedes(&self, new: DomRow, care: u32, keys: impl Fn(PlanId) -> bool) -> bool {
        let foreign = ((!new.mask & care) as u64) << 32;
        let test = |cost: f64, card: f64, word: u64| {
            (cost <= new.cost) & (card <= new.card) & (word & foreign == 0)
        };
        for g in 0..self.len().div_ceil(GROUP) {
            let valid = self.valid(g, 0);
            let mut lanes = self.lanes(g, test) & valid;
            debug_assert_eq!(
                lanes,
                self.lanes_by_row(g, valid, |r| r.may_precede(new, care)),
                "group {g}: the lane test disagrees with DomRow::may_precede"
            );
            while lanes != 0 {
                let i = g * GROUP + lanes.trailing_zeros() as usize;
                if keys(self.row(i).id) {
                    return true;
                }
                lanes &= lanes - 1;
            }
            if self.cost(g * GROUP + GROUP - 1) > new.cost {
                break;
            }
        }
        false
    }

    /// Insert `new` after removing every row `r` with `new.may_precede(r)`
    /// and `keys(r.id)`, calling `evict(r.id)` for each in cost order;
    /// returns how many. Only a row at least as expensive can pass, so the
    /// walk starts at the first row not cheaper than `new`, in the middle
    /// of its group, and the rows that stay are moved up over the ones
    /// removed. `new` goes after the rows left there that cost the same.
    #[inline]
    fn insert_evicting(
        &mut self,
        new: DomRow,
        care: u32,
        keys: impl Fn(PlanId) -> bool,
        mut evict: impl FnMut(PlanId),
    ) -> u64 {
        let from = self.partition_point(|c| c.total_cmp(&new.cost).is_lt());
        let needed = ((new.mask & care) as u64) << 32;
        let test = |cost: f64, card: f64, word: u64| {
            (new.cost <= cost) & (new.card <= card) & (!word & needed == 0)
        };
        let (mut to, mut removed) = (from, 0);
        for g in from / GROUP..self.len().div_ceil(GROUP) {
            let valid = self.valid(g, from);
            let mut lanes = self.lanes(g, test) & valid;
            debug_assert_eq!(
                lanes,
                self.lanes_by_row(g, valid, |r| new.may_precede(r, care)),
                "group {g}: the lane test disagrees with DomRow::may_precede"
            );
            let mut gone: Lanes8 = 0;
            while lanes != 0 {
                let k = lanes.trailing_zeros();
                let id = self.row(g * GROUP + k as usize).id;
                if keys(id) {
                    evict(id);
                    gone |= 1 << k;
                }
                lanes &= lanes - 1;
            }
            removed += gone.count_ones() as u64;
            let mut stay = valid & !gone;
            if removed == 0 {
                to += stay.count_ones() as usize;
                continue;
            }
            while stay != 0 {
                let r = self.row(g * GROUP + stay.trailing_zeros() as usize);
                self.set(to, r);
                to += 1;
                stay &= stay - 1;
            }
        }
        self.len = to as u32;
        let mut at = from;
        while at < to && self.cost(at).to_bits() == new.cost.to_bits() {
            at += 1;
        }
        self.insert_at(at, new);
        removed
    }

    /// The number of leading rows whose cost passes `pred`, a predicate
    /// the cost order makes a prefix.
    #[inline]
    fn partition_point(&self, pred: impl Fn(f64) -> bool) -> usize {
        let costs = &self.buf.as_flattened()[..self.len()];
        costs.partition_point(|&c| pred(f64::from_bits(c)))
    }

    /// Insert `r` at `at`, after every row at most as expensive, growing
    /// the buffer (doubling, from one group) when it is full.
    #[inline]
    fn insert_at(&mut self, at: usize, r: DomRow) {
        debug_assert_eq!(at, self.partition_point(|c| c.total_cmp(&r.cost).is_le()));
        let len = self.len();
        if len == self.cap() {
            self.grow();
        }
        let cap = self.cap();
        let flat = self.buf.as_flattened_mut();
        for column in [0, cap, 2 * cap] {
            flat.copy_within(column + at..column + len, column + at + 1);
        }
        self.set(at, r);
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// Double the buffer in one reallocation and move the card and word
    /// columns to the new stride, the word column first: it moves
    /// farther, over where the card column lands.
    fn grow(&mut self) {
        let (old, len) = (self.groups(), self.len());
        let new = (2 * old).max(1);
        self.buf.reserve_exact(3 * new - self.buf.len());
        self.buf.resize(3 * new, [0; GROUP]);
        let flat = self.buf.as_flattened_mut();
        for c in [2, 1] {
            flat.copy_within(c * old * GROUP..c * old * GROUP + len, c * new * GROUP);
        }
    }

    /// The rows of `ids`, sorted by cost (ties in id-list order).
    fn rebuild(&mut self, hot: &[PlanHot], ids: &[PlanId]) {
        self.clear();
        for &m in ids {
            let r = DomRow::of(hot, m);
            self.insert_at(self.partition_point(|c| c.total_cmp(&r.cost).is_le()), r);
        }
    }

    /// Ready the store for the next run: empty, keeping the buffer only
    /// while this run held at least two rows and filled at least half of
    /// it, a one-group buffer counting as half filled by two. Kept
    /// unconditionally, a recycled class's store would grow to the widest
    /// class any run put in its slot.
    fn reset(&mut self) {
        let peak = self.peak as usize;
        if peak < 2 || self.cap() > (2 * peak).max(GROUP) {
            self.buf = Vec::new();
        }
        self.len = 0;
        self.peak = 0;
    }
}

/// One plan class: its members in insertion order — what
/// [`Memo::class`] shows, and what grid order, plan ids and ties read —
/// and, while dominance thins it, the same members in a [`RowStore`].
/// Other relations leave `rows` empty (stale), and the next dominance
/// fold rebuilds them.
#[derive(Debug, Default)]
struct Class {
    ids: Vec<PlanId>,
    rows: RowStore,
}

impl Class {
    /// `PruneDominatedPlans` (Fig. 13) on the row store: reject `id` if a
    /// member precedes it, otherwise evict the members it precedes and
    /// insert it. Returns whether `id` is now a member.
    #[inline]
    fn fold_dominance(
        &mut self,
        hot: &[PlanHot],
        cold: &[PlanCold],
        lanes: &Lanes,
        stats: &mut MemoStats,
        id: PlanId,
        guard_groupjoin: bool,
    ) -> bool {
        let Class { ids, rows } = self;
        if rows.len() != ids.len() {
            rows.rebuild(hot, ids);
        }
        let care = DomRow::care(guard_groupjoin);
        let new = DomRow::of(hot, id);
        stats.prune_attempts += 1;
        if rows.any_precedes(new, care, |m| keys_imply(cold, lanes, m, id)) {
            stats.prune_rejected += 1;
            return false;
        }
        // Evictions are rare (one fold in 25 on the 20-40 relation
        // ladder), so each is a removal from the id list, which keeps its
        // order.
        stats.prune_evicted += rows.insert_evicting(
            new,
            care,
            |m| keys_imply(cold, lanes, id, m),
            |m| {
                let at = ids.iter().position(|&x| x == m);
                ids.remove(at.expect("a class row names a member"));
            },
        );
        ids.push(id);
        true
    }

    /// The fold under a relation other than dominance, on the id list
    /// alone; the rows go stale.
    #[inline]
    fn fold_other(&mut self, hot: &[PlanHot], cold: &[PlanCold], id: PlanId, by: ThinBy) -> bool {
        self.rows.clear();
        // Under the empty relation nothing is compared: EA-All's classes
        // run to thousands of plans and a walk per push would be quadratic.
        if let ThinBy::Cheapest(factor) = by {
            // `precedes(a, b)` is `!adjusted_less(b, a)`.
            if self
                .ids
                .iter()
                .any(|&old| !adjusted_less(hot, cold, id, old, factor))
            {
                return false;
            }
            self.ids
                .retain(|&old| adjusted_less(hot, cold, old, id, factor));
        }
        self.ids.push(id);
        true
    }
}

/// `CompareAdjustedCosts` (Fig. 12): is `new` cheaper than `old`? Without
/// a factor this is the plain cost comparison of H1 (Fig. 10).
#[inline]
fn adjusted_less(
    hot: &[PlanHot],
    cold: &[PlanCold],
    new: PlanId,
    old: PlanId,
    factor: Option<f64>,
) -> bool {
    let (nc, oc) = (hot[new.index()].cost, hot[old.index()].cost);
    let Some(f) = factor else {
        return nc < oc;
    };
    let (en, eo) = (eagerness(hot, cold, new), eagerness(hot, cold, old));
    if en == eo {
        nc < oc
    } else if en < eo {
        // `new` is less eager: its cost is adjusted (penalized) by F.
        f * nc < oc
    } else {
        nc < f * oc
    }
}

/// `Eagerness` of a plan (§4.5): the number of grouping operators that are
/// a direct child of the topmost join operator.
fn eagerness(hot: &[PlanHot], cold: &[PlanCold], id: PlanId) -> u32 {
    match cold[id.index()].node {
        PlanNode::Apply { left, right, .. } => {
            hot[left.index()].is_group() as u32 + hot[right.index()].is_group() as u32
        }
        _ => 0,
    }
}

/// A class of a [`Memo`], resolved by [`Memo::class_slot`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassSlot(u32);

/// The split arena, its payload lanes and the plan classes built over it.
#[derive(Debug, Default)]
pub struct Memo {
    hot: Vec<PlanHot>,
    cold: Vec<PlanCold>,
    pub(crate) lanes: Lanes,
    /// Output buffer of the key-set combination rules; a combined key set
    /// is built here and copied into the key lane.
    pub(crate) key_buf: KeySet,
    /// Node set → index of the class in `class_lists`, handed out in
    /// creation order.
    classes: FxHashMap<NodeSet, u32>,
    /// The classes of `classes`, followed by emptied classes of earlier
    /// runs kept for their allocation.
    class_lists: Vec<Class>,
    stats: MemoStats,
}

impl Index<PlanId> for Memo {
    type Output = PlanHot;

    #[inline]
    fn index(&self, id: PlanId) -> &PlanHot {
        &self.hot[id.index()]
    }
}

impl Memo {
    /// Both rows of one plan plus the lanes their spans resolve in;
    /// indexing (`memo[id]`) yields the [`PlanHot`] row alone.
    #[inline]
    pub fn plan(&self, id: PlanId) -> PlanRef<'_> {
        PlanRef {
            hot: &self.hot[id.index()],
            cold: &self.cold[id.index()],
            lanes: &self.lanes,
        }
    }

    /// `Eagerness` of a plan (§4.5): the number of grouping operators that
    /// are a direct child of the topmost join operator.
    pub fn eagerness(&self, id: PlanId) -> u32 {
        eagerness(&self.hot, &self.cold, id)
    }

    /// An empty memo. Its buffers grow with the runs it serves and
    /// [`Memo::reset`] keeps them, so a memo that is reused — the
    /// `dpnext::Optimizer` facade's scratch memo, a serving pool's — holds
    /// the capacity of the largest run it served until it is dropped.
    pub fn new() -> Memo {
        Memo::default()
    }

    /// Clear the memo for reuse, keeping its allocations.
    ///
    /// Every piece of per-run state is wiped: plans, lanes, classes and
    /// the whole [`MemoStats`] block — including the rollback high-water
    /// mark `arena_peak` and the prune counters, which would otherwise
    /// leak into the next run's report. A run on a reset memo produces
    /// bit-identical results and statistics to a run on a fresh one;
    /// only *capacity* carries over, which is the point: pooled
    /// back-to-back optimizations skip the re-malloc. Nothing here walks
    /// the plans — rows and lane elements are plain data.
    ///
    /// The arena, the lanes, the class map and the class id lists keep
    /// the capacity they have grown to, so a reused memo holds what the
    /// largest run it served needed and a repeat of that run allocates
    /// nothing. A class's dominance rows are the one exception: their
    /// store keeps its buffer only while the run's class held at least two
    /// rows and filled at least half of it (a one-group buffer counts as
    /// half filled by two), as a repeat of the run will again. Kept
    /// unconditionally, a recycled class's rows would grow to the widest
    /// class any run put in its slot, at six times the bytes of its id
    /// list.
    pub fn reset(&mut self) {
        for class in self.class_lists.iter_mut() {
            class.rows.reset();
            class.ids.clear();
        }
        self.hot.clear();
        self.cold.clear();
        self.lanes.truncate([0; LANES]);
        self.classes.clear();
        self.stats = MemoStats::default();
    }

    /// Allocated arena capacity in plans (diagnostic for arena pooling:
    /// a warmed-up pool serves repeat queries without growing this).
    pub fn arena_capacity(&self) -> usize {
        self.hot.capacity()
    }

    /// Allocated capacity of every class's dominance rows, in rows
    /// (diagnostic, like [`Memo::arena_capacity`]).
    pub fn class_row_capacity(&self) -> usize {
        self.class_lists.iter().map(|c| c.rows.cap()).sum()
    }

    /// Store a plan's rows in the arena (does not touch any class). Every
    /// span of `cold` must lie inside its lane, and `hot` must carry the
    /// signature of the key set `cold` names; the constructors in
    /// [`crate::plan`] write the payload first and push the row last.
    #[inline]
    pub fn push_row(&mut self, hot: PlanHot, cold: PlanCold) -> PlanId {
        let id = PlanId::from_index(self.hot.len());
        self.hot.push(hot);
        self.cold.push(cold);
        id
    }

    /// Store a plan given its payload by value: copies `keys` and `agg` to
    /// the lanes' tails and pushes the rows, `hot` with the signature of
    /// `keys`. The transfer form
    /// for plans that derive nothing from an input — scans, and whatever a
    /// test or bench makes up; the operator constructors write the lanes
    /// directly so they can share input spans.
    pub fn push_plan(
        &mut self,
        hot: PlanHot,
        node: PlanNode,
        keys: KeysRef<'_>,
        agg: AggRef<'_>,
    ) -> PlanId {
        let lanes = &mut self.lanes;
        let cold = PlanCold {
            node,
            keys: lanes.push_key_set(keys),
            agg_pos: append(&mut lanes.agg_pos, agg.pos),
            counts: append(&mut lanes.counts, agg.counts),
        };
        self.push_row(hot.with_key_sig(keys.signature()), cold)
    }

    /// Bytes of *live* plan state: both row arrays and every lane at their
    /// current length, the quantity [`MemoStats::live_bytes_peak`] tracks.
    /// O(1). Class id lists and rows and over-capacity are not counted;
    /// see [`Memo::footprint_bytes`] for the allocation-side view.
    #[inline]
    pub fn live_bytes(&self) -> u64 {
        (self.hot.len() * ARENA_ROW_BYTES + lane_bytes(self.lanes.lens())) as u64
    }

    /// Bytes this memo *holds allocated*: row-array, lane, class-list and
    /// class-row capacities (not lengths) plus the class map's table. This
    /// is what a parked memo pins between runs — the quantity a serving
    /// pool books.
    pub fn footprint_bytes(&self) -> u64 {
        let rows = self.hot.capacity() * size_of::<PlanHot>()
            + self.cold.capacity() * size_of::<PlanCold>();
        let classes = self.classes.capacity() * (size_of::<NodeSet>() + size_of::<u32>())
            + self.class_lists.capacity() * size_of::<Class>()
            + self
                .class_lists
                .iter()
                .map(|c| {
                    c.ids.capacity() * size_of::<PlanId>()
                        + c.rows.buf.capacity() * size_of::<[u64; GROUP]>()
                })
                .sum::<usize>();
        (rows + lane_bytes(self.lanes.capacities()) + classes) as u64
    }

    /// Number of plans in the arena.
    pub fn arena_len(&self) -> usize {
        self.hot.len()
    }

    /// The id of every row in the arena, in build order — what the classes
    /// retain and whatever else rollback left in place.
    pub fn arena_ids(&self) -> impl Iterator<Item = PlanId> {
        (0..self.hot.len()).map(PlanId::from_index)
    }

    /// The current rollback point: arena length plus every lane length.
    #[inline]
    pub fn mark(&self) -> MemoMark {
        MemoMark {
            rows: self.hot.len(),
            lanes: self.lanes.lens(),
        }
    }

    /// Roll the arena and the lanes back to `mark`, discarding the plans
    /// pushed since — a handful of length stores, whatever the number of
    /// plans dropped.
    ///
    /// Callers must guarantee that no class and no retained id references
    /// a truncated plan. The enumeration engine is on this path once per
    /// refused candidate: a tree its class refuses — or, at the full set, a
    /// complete plan that did not become the best — is popped before the
    /// next row is built ([`crate::optrees::op_trees`]); on EA-Prune nine
    /// candidates in ten. (Most losing complete plans are never built: the
    /// complete-plan bound settles their unit first.) A surviving plan
    /// cannot lose payload to this: whatever its spans name was in the
    /// lanes before the plan was pushed, hence before `mark`.
    #[inline]
    pub fn truncate(&mut self, mark: MemoMark) {
        debug_assert!(mark.rows <= self.hot.len());
        // Live bytes only ever shrink here and in `reset`, so the peaks
        // need no per-push bookkeeping.
        self.stats.arena_peak = self.stats.arena_peak.max(self.hot.len() as u64);
        self.stats.live_bytes_peak = self.stats.live_bytes_peak.max(self.live_bytes());
        self.hot.truncate(mark.rows);
        self.cold.truncate(mark.rows);
        self.lanes.truncate(mark.lanes);
    }

    /// Check the structural invariants a healthy memo upholds: the hot and
    /// cold arenas are index-aligned; every span of every live row lies
    /// inside its lane, and — walking the rows in id order with a per-lane
    /// cursor at the end of what earlier rows wrote — either at or past the
    /// cursor (the row owns it) or wholly before it (the row shares it, so
    /// its owner has a smaller [`PlanId`]); children precede their
    /// parents; and every class entry points at an arena row whose
    /// `NodeSet` matches the class key, no id twice in one class (what a
    /// class shows when a row it still named was popped and the slot
    /// re-filled by the next kept tree of the same set); and a class's
    /// dominance rows are either empty (stale) or hold exactly its ids,
    /// each row what `DomRow::of` builds from the arena, sorted by cost.
    /// A memo that fails this was corrupted mid-run (e.g. truncated while
    /// classes still referenced the tail) and must not be reused —
    /// [`Memo::reset`] does not repair dangling *capacity* state reads
    /// would trip over first. Returns a description of the first violation
    /// found.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.hot.len() != self.cold.len() {
            return Err(format!(
                "hot/cold arenas misaligned: {} hot rows vs {} cold rows",
                self.hot.len(),
                self.cold.len()
            ));
        }
        let lens = self.lanes.lens();
        let mut cursor = [0usize; LANES];
        for (i, cold) in self.cold.iter().enumerate() {
            let mut written = cursor;
            let mut check = |lane: usize, what: &str, span: Span| {
                if span.end() > lens[lane] {
                    return Err(format!(
                        "plan {i}: {what} span {span:?} runs past its lane (length {})",
                        lens[lane]
                    ));
                }
                let start = span.start as usize;
                if !span.is_empty() && start < cursor[lane] && span.end() > cursor[lane] {
                    return Err(format!(
                        "plan {i}: {what} span {span:?} straddles the data of earlier plans \
                         (ending at {})",
                        cursor[lane]
                    ));
                }
                written[lane] = written[lane].max(span.end());
                Ok(())
            };
            check(0, "keys", cold.keys)?;
            check(1, "agg_pos", cold.agg_pos)?;
            check(2, "counts", cold.counts)?;
            let children = match cold.node {
                PlanNode::Scan { .. } => [None, None],
                PlanNode::Apply {
                    pred, left, right, ..
                } => {
                    // Staged before the rows of its grid, shared by all.
                    if pred.end() > lens[3] {
                        return Err(format!("plan {i}: predicate span {pred:?} past its lane"));
                    }
                    [Some(left), Some(right)]
                }
                PlanNode::Group { input } => [Some(input), None],
            };
            if let Some(child) = children.into_iter().flatten().find(|c| c.index() >= i) {
                return Err(format!(
                    "plan {i} has child {} at or after itself",
                    child.index()
                ));
            }
            cursor = written;
        }
        if self.classes.len() > self.class_lists.len() {
            return Err(format!(
                "{} classes over {} id lists",
                self.classes.len(),
                self.class_lists.len()
            ));
        }
        let mut sorted = Vec::new();
        let mut row_ids = Vec::new();
        for (set, class) in self.class_entries() {
            let ids = class.ids.as_slice();
            sorted.clear();
            sorted.extend_from_slice(ids);
            sorted.sort_unstable();
            if let Some(twice) = sorted.windows(2).find(|w| w[0] == w[1]) {
                return Err(format!(
                    "class {set:?} holds plan {} twice",
                    twice[0].index()
                ));
            }
            for &id in ids {
                let Some(hot) = self.hot.get(id.index()) else {
                    return Err(format!(
                        "class {set:?} references plan {} past arena end {}",
                        id.index(),
                        self.hot.len()
                    ));
                };
                if hot.set != set {
                    return Err(format!(
                        "class {set:?} holds plan {} whose set is {:?}",
                        id.index(),
                        hot.set
                    ));
                }
            }
            self.check_rows(set, class, &sorted, &mut row_ids)?;
        }
        Ok(())
    }

    /// The row half of [`Memo::check_invariants`] for one class whose ids,
    /// sorted, are `sorted` (and lie in the arena).
    fn check_rows(
        &self,
        set: NodeSet,
        class: &Class,
        sorted: &[PlanId],
        row_ids: &mut Vec<PlanId>,
    ) -> Result<(), String> {
        let rows = &class.rows;
        if rows.is_empty() {
            return Ok(());
        }
        row_ids.clear();
        row_ids.extend(rows.iter().map(|r| r.id));
        row_ids.sort_unstable();
        if row_ids.as_slice() != sorted {
            return Err(format!(
                "class {set:?}: rows name plans {row_ids:?}, the id list {sorted:?}"
            ));
        }
        if let Some(r) = rows
            .iter()
            .find(|r| r.bits() != DomRow::of(&self.hot, r.id).bits())
        {
            return Err(format!(
                "class {set:?}: row {r:?} is not what plan {} reads",
                r.id.index()
            ));
        }
        if let Some((a, b)) = rows
            .iter()
            .zip(rows.iter().skip(1))
            .find(|(a, b)| a.cost.total_cmp(&b.cost).is_gt())
        {
            return Err(format!(
                "class {set:?}: rows out of cost order at plans {} and {}",
                a.id.index(),
                b.id.index()
            ));
        }
        Ok(())
    }

    /// Every class, in hash order.
    fn class_entries(&self) -> impl Iterator<Item = (NodeSet, &Class)> {
        self.classes
            .iter()
            .map(|(&s, &slot)| (s, &self.class_lists[slot as usize]))
    }

    /// The plan class of `s` (empty when no plan covers `s` yet).
    #[inline]
    pub fn class(&self, s: NodeSet) -> &[PlanId] {
        match self.classes.get(&s) {
            Some(&slot) => &self.class_lists[slot as usize].ids,
            None => &[],
        }
    }

    /// A copy of the dominance rows of the class of `s`, in the store's
    /// order.
    #[cfg(test)]
    pub(crate) fn class_rows(&self, s: NodeSet) -> Vec<DomRow> {
        self.class_lists[self.classes[&s] as usize]
            .rows
            .iter()
            .collect()
    }

    /// Overwrite the dominance rows of the class of `s` with `rows`, as
    /// they are, for a test to corrupt them.
    #[cfg(test)]
    pub(crate) fn set_class_rows(&mut self, s: NodeSet, rows: &[DomRow]) {
        let store = &mut self.class_lists[self.classes[&s] as usize].rows;
        assert_eq!(store.len(), rows.len(), "the store keeps its width");
        for (i, &r) in rows.iter().enumerate() {
            store.set(i, r);
        }
    }

    /// The one thinning step (`PruneDominatedPlans`, Fig. 13, for any
    /// [`ThinBy`]): drop the candidate `id` if an incumbent of the class
    /// of `s` precedes it, otherwise evict every incumbent it precedes and
    /// append it. Returns whether `id` is now a member. Under the empty
    /// relation this is a push, under a total order the class never
    /// exceeds one plan. Dominance searches the class's cost-sorted
    /// rows, rebuilt first if another relation last edited the
    /// class. The prune counters of [`MemoStats`] count dominance tests
    /// only.
    #[inline]
    pub fn fold(&mut self, s: NodeSet, id: PlanId, by: ThinBy) -> bool {
        let slot = self.class_slot(s);
        self.fold_into(slot, id, by)
    }

    /// The class of `s` as a handle for [`Memo::fold_into`], created (or
    /// recycled from an earlier run) on first use. It stays valid until
    /// [`Memo::reset`]: a search resolves its target class at its first
    /// fold of an orientation and folds the rest of the grid without a
    /// map probe.
    #[inline]
    pub(crate) fn class_slot(&mut self, s: NodeSet) -> ClassSlot {
        let next = self.classes.len() as u32;
        let slot = *self.classes.entry(s).or_insert(next);
        if slot as usize == self.class_lists.len() {
            self.class_lists.push(Class::default());
        }
        ClassSlot(slot)
    }

    /// [`Memo::fold`] into the class `slot` names.
    #[inline]
    pub(crate) fn fold_into(&mut self, ClassSlot(slot): ClassSlot, id: PlanId, by: ThinBy) -> bool {
        let Memo {
            hot,
            cold,
            lanes,
            class_lists,
            stats,
            ..
        } = self;
        let class = &mut class_lists[slot as usize];
        let kept = match by {
            ThinBy::Dominance { guard_groupjoin } => {
                class.fold_dominance(hot, cold, lanes, stats, id, guard_groupjoin)
            }
            _ => class.fold_other(hot, cold, id, by),
        };
        if kept {
            stats.peak_class_width = stats.peak_class_width.max(class.ids.len() as u64);
        }
        kept
    }

    /// Does a dominance row of the class `slot` names have a NaN cost? The
    /// rows are sorted by [`f64::total_cmp`], which puts a NaN of either
    /// sign at one end, so the two ends decide. A class thinned by another
    /// relation has no rows and answers `false`.
    #[inline]
    pub(crate) fn holds_nan_row(&self, ClassSlot(slot): ClassSlot) -> bool {
        let rows = &self.class_lists[slot as usize].rows;
        !rows.is_empty() && (rows.cost(0).is_nan() || rows.cost(rows.len() - 1).is_nan())
    }

    /// Shrink the class of `s` to its representative member(s): the
    /// cheapest plan, plus — when `keep_raw` and the cheapest plan
    /// contains a grouping — the cheapest grouping-free plan, so a later
    /// groupjoin application (which needs raw right inputs) is not
    /// structurally cut off. The greedy rung of the adaptive optimizer
    /// uses this to keep its per-component state GOO-sized (one or two
    /// plans) instead of letting class widths compound across merges.
    pub fn class_shrink_to_best(&mut self, s: NodeSet, keep_raw: bool) {
        let Some(&slot) = self.classes.get(&s) else {
            return;
        };
        let Class {
            ids: class, rows, ..
        } = &mut self.class_lists[slot as usize];
        rows.clear();
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

    /// Snapshot of all plan classes sorted by node set — a deterministic
    /// view of the DP state for tests and diagnostics (the map itself
    /// iterates in hash order).
    pub fn classes_sorted(&self) -> Vec<(NodeSet, &[PlanId])> {
        let mut all: Vec<(NodeSet, &[PlanId])> = self
            .class_entries()
            .map(|(s, c)| (s, c.ids.as_slice()))
            .collect();
        all.sort_unstable_by_key(|&(s, _)| s);
        all
    }

    /// Total plans retained across all classes.
    pub fn retained(&self) -> u64 {
        self.class_entries().map(|(_, c)| c.ids.len() as u64).sum()
    }

    /// Every id retained in some class, in ascending arena order (the
    /// class map itself iterates in hash order — sort for determinism).
    pub fn retained_ids(&self) -> Vec<PlanId> {
        let mut ids: Vec<PlanId> = self
            .class_entries()
            .flat_map(|(_, c)| c.ids.iter().copied())
            .collect();
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
