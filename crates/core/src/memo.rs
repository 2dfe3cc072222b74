//! The arena-backed DP memo: plans are [`PlanId`] indices into a
//! contiguous arena, plan classes are per-[`NodeSet`] id lists owned by
//! the memo, and a class is thinned by one step, [`Memo::fold`], under
//! whichever relation ([`ThinBy`]) the generator runs with.
//!
//! The arena is split structure-of-arrays into a **hot** row
//! ([`PlanHot`]: set, cardinality, cost, applied mask, key/grouping
//! flags and a 32-bit key signature — everything the dominance test of
//! Def. 4 reads before it needs the key sets) and a **cold**
//! row ([`PlanCold`]: the operator node plus `(start, len)` [`Span`]s
//! naming the plan's key set, aggregation state and visible attributes).
//! Both rows are `Copy`. The variable-length payloads themselves live in
//! five append-only **lanes** ([`Lanes`]) owned by the memo, so building a
//! plan is a handful of `extend_from_slice`s, and rolling plans back
//! ([`Memo::truncate`]), clearing the memo ([`Memo::reset`]) or dropping it
//! runs no per-plan destructor. A row whose derived property *is* an
//! input's property copies the input's span instead of the data; see
//! `docs/ARCHITECTURE.md` § "Memo data layout" for why LIFO rollback keeps
//! that sound.
//!
//! A class thinned by dominance also keeps, beside its id list, one
//! 24-byte `DomRow` per member — cost, cardinality, id and a mask of
//! the key signature and the two flags Def. 4 reads — sorted by cost. A
//! fold tests the candidate for rejection against the cheaper prefix of
//! that array and for eviction against the costlier suffix, in one
//! contiguous walk each, and reads the arena only for key-set implication.
//!
//! The memo is the optimizer's single source of truth for DP state; the
//! enumeration engine in [`crate::algo`] only decides *which* plans to
//! build and which relation the classes are thinned by.

use crate::aggstate::{AggPos, AggRef};
use dpnext_algebra::{AttrId, CmpOp, JoinPred};
use dpnext_hypergraph::{FxHashMap, NodeSet};
use dpnext_keys::{KeySet, KeysRef};
use dpnext_query::OpKind;
use std::ops::Index;

pub use dpnext_keys::Span;

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
    /// A binary operator application with the (oriented, merged) predicate.
    Apply {
        /// Operator kind (join, outer join, groupjoin, ...).
        op: OpKind,
        /// Index of the primary operator into the conflicted query's
        /// list — where a groupjoin's aggregates are read from.
        op_idx: u8,
        /// The merged predicate, oriented left-to-right, in
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
    /// aggregation vector is not stored: [`crate::finalize::compile`]
    /// rebuilds it for the one winner from the input's and this plan's
    /// aggregation state.
    Group {
        /// Grouping attributes `G⁺(S)`, in [`Lanes::attrs`].
        attrs: Span,
        /// The plan being grouped.
        input: PlanId,
    },
}

/// The properties of one plan that the enumeration reads per candidate,
/// packed into a 40-byte `Copy` row: bounds, operator masks, flags and
/// the key signature. The operator tree and key sets stay out of the
/// cache until a plan is combined or materialized. A dominance fold does
/// not scan these rows: it reads a copy of what Def. 4 needs in its
/// class's `DomRow` array, and comes back to the arena only for the key
/// sets of a pair the rows cannot refute.
#[derive(Debug, Clone, Copy)]
pub struct PlanHot {
    /// Relations covered.
    pub set: NodeSet,
    /// Estimated output cardinality.
    pub card: f64,
    /// Accumulated `C_out`.
    pub cost: f64,
    /// Bitmask of applied operators (indices into the conflicted query's
    /// operator list). A complete plan must apply every operator exactly
    /// once; this is asserted before finalization.
    pub applied: u64,
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

    /// A hot row of a plan without keys; `has_grouping`, `duplicate_free`
    /// and `is_group` are packed into the flag byte. A keyed plan's row
    /// takes its signature with [`PlanHot::with_key_sig`].
    #[inline]
    pub fn new(
        set: NodeSet,
        card: f64,
        cost: f64,
        applied: u64,
        has_grouping: bool,
        duplicate_free: bool,
        is_group: bool,
    ) -> PlanHot {
        PlanHot {
            set,
            card,
            cost,
            applied,
            flags: (has_grouping as u8 * Self::HAS_GROUPING)
                | (duplicate_free as u8 * Self::DUP_FREE)
                | (is_group as u8 * Self::IS_GROUP),
            key_sig: KeysRef::default().signature(),
        }
    }

    /// This row with `key_sig`, the [`KeysRef::signature`] of the key set
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
    /// Candidate keys: a run of [`Lanes::keys`].
    pub keys: Span,
    /// Per original aggregate, where it lives: a run of [`Lanes::agg_pos`].
    pub agg_pos: Span,
    /// Active count columns: a run of [`Lanes::counts`].
    pub counts: Span,
    /// Attributes visible in the output: a run of [`Lanes::attrs`].
    pub visible: Span,
}

// Both rows must stay plain data: `truncate`, `reset` and dropping a memo
// rely on there being no per-plan destructor.
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<PlanHot>();
    assert_copy::<PlanCold>();
};
// The key signature lives in what was padding: the hot row, and with it
// every byte count and budget, keeps its size.
const _: () = assert!(size_of::<PlanHot>() == 40);

/// Bytes one arena slot occupies in the two row arrays (the payload the
/// row's spans name is counted by the lanes).
pub const ARENA_ROW_BYTES: usize = size_of::<PlanHot>() + size_of::<PlanCold>();

/// Number of payload lanes.
const LANES: usize = 5;

/// Element size of each lane, in [`Lanes::lens`] order.
const LANE_ELEM_BYTES: [usize; LANES] = [
    size_of::<AttrId>(),
    size_of::<Span>(),
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
    /// Visible attribute sets, key attributes, grouping attributes.
    pub attrs: Vec<AttrId>,
    /// One span into `attrs` per candidate key; a key set is a run of
    /// these.
    pub keys: Vec<Span>,
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
            self.attrs.len(),
            self.keys.len(),
            self.agg_pos.len(),
            self.counts.len(),
            self.terms.len(),
        ]
    }

    fn capacities(&self) -> [usize; LANES] {
        [
            self.attrs.capacity(),
            self.keys.capacity(),
            self.agg_pos.capacity(),
            self.counts.capacity(),
            self.terms.capacity(),
        ]
    }

    fn truncate(&mut self, lens: [usize; LANES]) {
        self.attrs.truncate(lens[0]);
        self.keys.truncate(lens[1]);
        self.agg_pos.truncate(lens[2]);
        self.counts.truncate(lens[3]);
        self.terms.truncate(lens[4]);
    }

    /// The key set a row's `keys` span names.
    #[inline]
    pub fn key_set(&self, keys: Span) -> KeysRef<'_> {
        KeysRef::new(keys.of(&self.keys), &self.attrs)
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

    /// Append `attrs` to the attribute lane.
    #[inline]
    pub(crate) fn push_attrs(&mut self, attrs: &[AttrId]) -> Span {
        append(&mut self.attrs, attrs)
    }

    /// Append a copy of `keys` (compacted: one attribute run per key).
    pub(crate) fn push_key_set(&mut self, keys: KeysRef<'_>) -> Span {
        let span = Span::new(self.keys.len(), keys.len());
        for k in keys.iter() {
            let key = self.push_attrs(k);
            self.keys.push(key);
        }
        span
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

    /// Attributes visible in the output.
    #[inline]
    pub fn visible(&self) -> &'a [AttrId] {
        self.cold.visible.of(&self.lanes.attrs)
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
    /// deadline passed; overshoot is bounded by one enumeration work unit.
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
    /// bits of the key signatures ([`KeysRef::signature`]). Key-set
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
    /// class's row array; the key sets are read only when the rows pass.
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

/// One member of a dominance-thinned class as [`Memo::fold`] reads it: a
/// copy of everything of Def. 4 that a row can decide, packed into 24
/// bytes so a class is one contiguous array. A class's rows are sorted by
/// cost, so a candidate can be preceded only by a prefix of them and can
/// precede only a suffix.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DomRow {
    /// The plan's cost, with −0 read as +0 so the array's order
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

const _: () = assert!(size_of::<DomRow>() == 24);

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

    /// The row's fields as bits, for an exact comparison.
    fn bits(self) -> (u64, u64, PlanId, u32) {
        (self.cost.to_bits(), self.card.to_bits(), self.id, self.mask)
    }
}

/// One plan class: its members in insertion order — what
/// [`Memo::class`] shows, and what grid order, plan ids and ties read —
/// and, while dominance thins it, the same members as `DomRow`s sorted
/// by cost. Other relations leave `rows` empty (stale), and the next
/// dominance fold rebuilds them.
#[derive(Debug, Default)]
struct Class {
    ids: Vec<PlanId>,
    rows: Vec<DomRow>,
    /// The most rows the class held in this run, what [`Memo::reset`]
    /// sizes the buffer it keeps by.
    rows_peak: usize,
}

impl Class {
    /// `PruneDominatedPlans` (Fig. 13) on the row array: reject `id` if a
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
        let Class {
            ids,
            rows,
            rows_peak,
        } = self;
        if rows.len() != ids.len() {
            rows.clear();
            rows.extend(ids.iter().map(|&m| DomRow::of(hot, m)));
            rows.sort_unstable_by(|a, b| a.cost.total_cmp(&b.cost));
        }
        let care = DomRow::care(guard_groupjoin);
        let new = DomRow::of(hot, id);
        stats.prune_attempts += 1;
        // Only a member at most as expensive can precede the candidate.
        // Written as a break on `>` so a NaN row, which precedes nothing,
        // never ends the walk early.
        for &r in rows.iter() {
            if r.cost > new.cost {
                break;
            }
            if r.may_precede(new, care) && keys_imply(cold, lanes, r.id, id) {
                stats.prune_rejected += 1;
                return false;
            }
        }
        // Only a member at least as expensive can be preceded by it.
        // Evictions are rare (one fold in 25 on the 20-40 relation
        // ladder), so each is a removal from both arrays, and the id list
        // keeps its order.
        let mut i = rows.partition_point(|r| r.cost.total_cmp(&new.cost).is_lt());
        while i < rows.len() {
            let r = rows[i];
            if new.may_precede(r, care) && keys_imply(cold, lanes, id, r.id) {
                rows.remove(i);
                let at = ids.iter().position(|&m| m == r.id);
                ids.remove(at.expect("a class row names a member"));
                stats.prune_evicted += 1;
            } else {
                i += 1;
            }
        }
        ids.push(id);
        let at = rows.partition_point(|r| r.cost.total_cmp(&new.cost).is_le());
        rows.insert(at, new);
        *rows_peak = (*rows_peak).max(rows.len());
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
    /// is built here and copied compactly into the lanes.
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
    /// nothing. A class's dominance rows are the one exception: they keep
    /// their buffer only while the run's class filled at least half of it,
    /// as a repeat of the run will again. Kept unconditionally, a recycled
    /// class's rows would grow to the widest class any run put in its
    /// slot, at six times the bytes of its id list.
    pub fn reset(&mut self) {
        for class in self.class_lists.iter_mut() {
            if class.rows.capacity() > 2 * class.rows_peak {
                class.rows = Vec::new();
            }
            class.rows.clear();
            class.ids.clear();
            class.rows_peak = 0;
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
        self.class_lists.iter().map(|c| c.rows.capacity()).sum()
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

    /// Store a plan given its payload by value: copies `keys`, `agg` and
    /// `visible` to the lanes' tails and pushes the rows, `hot` with the
    /// signature of `keys`. The transfer form
    /// for plans that derive nothing from an input — scans, and whatever a
    /// test or bench makes up; the operator constructors write the lanes
    /// directly so they can share input spans.
    pub fn push_plan(
        &mut self,
        hot: PlanHot,
        node: PlanNode,
        keys: KeysRef<'_>,
        agg: AggRef<'_>,
        visible: &[AttrId],
    ) -> PlanId {
        let lanes = &mut self.lanes;
        let cold = PlanCold {
            node,
            keys: lanes.push_key_set(keys),
            agg_pos: append(&mut lanes.agg_pos, agg.pos),
            counts: append(&mut lanes.counts, agg.counts),
            visible: lanes.push_attrs(visible),
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
                    c.ids.capacity() * size_of::<PlanId>() + c.rows.capacity() * size_of::<DomRow>()
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
            check(0, "visible", cold.visible)?;
            check(1, "keys", cold.keys)?;
            check(2, "agg_pos", cold.agg_pos)?;
            check(3, "counts", cold.counts)?;
            let children = match cold.node {
                PlanNode::Scan { .. } => [None, None],
                PlanNode::Apply {
                    pred, left, right, ..
                } => {
                    // Staged before the rows of its grid, shared by all.
                    if pred.end() > lens[4] {
                        return Err(format!("plan {i}: predicate span {pred:?} past its lane"));
                    }
                    [Some(left), Some(right)]
                }
                PlanNode::Group { attrs, input } => {
                    check(0, "grouping attributes", attrs)?;
                    [Some(input), None]
                }
            };
            for key in cold.keys.of(&self.lanes.keys) {
                check(0, "key", *key)?;
            }
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
        if let Some(w) = rows
            .windows(2)
            .find(|w| w[0].cost.total_cmp(&w[1].cost).is_gt())
        {
            return Err(format!(
                "class {set:?}: rows out of cost order at plans {} and {}",
                w[0].id.index(),
                w[1].id.index()
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

    /// The dominance rows of the class of `s`, for a test to corrupt.
    #[cfg(test)]
    pub(crate) fn class_rows_mut(&mut self, s: NodeSet) -> &mut [DomRow] {
        let slot = self.classes[&s] as usize;
        &mut self.class_lists[slot].rows
    }

    /// The one thinning step (`PruneDominatedPlans`, Fig. 13, for any
    /// [`ThinBy`]): drop the candidate `id` if an incumbent of the class
    /// of `s` precedes it, otherwise evict every incumbent it precedes and
    /// append it. Returns whether `id` is now a member. Under the empty
    /// relation this is a push, under a total order the class never
    /// exceeds one plan. Dominance searches the class's cost-sorted
    /// `DomRow`s, rebuilt first if another relation last edited the
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
