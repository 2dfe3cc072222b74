//! The `OpTrees` routine (Fig. 6): for one operator application, produce
//! the up-to-four join trees with all valid eager-aggregation variants —
//! each offered to the caller as it is built and popped again if refused —
//! and the `Grid` of one orientation it runs over, which decides what a
//! unit reads of one side alone once per plan (and of a grouping on that
//! side once per side) instead of once per unit.

use crate::aggstate::grouping_columns;
use crate::context::{OptContext, Scratch};
use crate::memo::{Memo, MemoMark, PlanId, Span};
use crate::plan::{apply_staged, group_over, SideFacts, StagedApply};
use dpnext_algebra::AttrId;
use dpnext_hypergraph::NodeSet;
use dpnext_keys::{needs_grouping, KeysRef};
use dpnext_query::OpKind;

/// Which sides of an operator a grouping may be pushed into, per the
/// equivalences of §3 (`Valid` in Fig. 6):
///
/// * inner join — both sides (Eqvs. 10/13, 16/19, …),
/// * left outerjoin — left (Eqv. 17) and right with `F¹({⊥})` defaults
///   (Eqvs. 14/20),
/// * full outerjoin — both sides with defaults (Eqvs. 12/15, 18/21),
/// * semijoin / antijoin / groupjoin — left only (Eqvs. 37–41): their
///   results expose only left attributes.
pub fn may_push(op: OpKind) -> (bool, bool) {
    match op {
        OpKind::Join | OpKind::FullOuter | OpKind::LeftOuter => (true, true),
        OpKind::Semi | OpKind::Anti | OpKind::GroupJoin => (true, false),
    }
}

/// Is pushing a grouping onto `t`, a plan of `side`, valid and useful?
///
/// * `Valid`: the operator may push into the side ([`may_push`]) and the
///   aggregation vector restricted to the side's set must be splittable
///   off and decomposable (`ctx.can_group`) — decided once per side
///   ([`GridSide::new`]),
/// * usefulness: grouping is skipped when `G⁺` already contains a key of a
///   duplicate-free `t` (Fig. 6 lines 10/15: `NeedsGrouping(G⁺ᵢ, …)`),
/// * no double grouping: `Γ(Γ(e))` never helps.
///
/// A unit of an operator pushes a grouping onto an input iff this holds.
#[inline]
fn pushable(side: &GridSide, scratch: &Scratch, memo: &Memo, t: PlanId) -> bool {
    let Some(gplus) = side.gplus else {
        return false;
    };
    let hot = &memo[t];
    // `G⁺(S)` is memoized sorted, which is what the key test wants.
    !hot.is_group()
        && needs_grouping(
            scratch.gplus_at(gplus),
            hot.duplicate_free(),
            memo.plan(t).keys(),
        )
}

/// One side of an orientation — the set `S` of its plans — with what a
/// unit reads of it before it reads a plan: where `G⁺(S)` sits when the
/// side takes groupings, what a `Γ(t)` on it exposes and keys, and the
/// fresh columns building one takes. Decided once per side by
/// [`GridSide::new`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GridSide {
    /// The left side of the orientation (else the right).
    left: bool,
    /// `G⁺(S)` in the scratch ([`Scratch::gplus_span`]) when a unit may
    /// push a grouping onto this side's plans: the search is eager, the
    /// operator may push into the side ([`may_push`]), the query groups
    /// and `ctx.can_group(S)`. `None` otherwise: no plan of the side is
    /// pushed onto.
    pub(crate) gplus: Option<Span>,
    /// The [`SideFacts`] of a `Γ(t)` on this side (when `gplus` is set):
    /// it exposes `G⁺(S)` plus fresh columns, which lie above every query
    /// attribute, so no predicate or groupjoin argument names them, and
    /// its one key is `G⁺(S)`.
    pub(crate) group: SideFacts,
    /// The fresh columns building a `Γ(t)` on this side takes
    /// ([`grouping_columns`]; when `gplus` is set).
    cols: u32,
}

impl GridSide {
    /// Stage the side `s` of the cut `staged` — its left side iff `left` —
    /// for a search that pushes groupings down iff `eager`.
    pub fn new(
        ctx: &OptContext,
        scratch: &mut Scratch,
        staged: &StagedApply,
        s: NodeSet,
        left: bool,
        eager: bool,
    ) -> GridSide {
        let (left_ok, right_ok) = may_push(staged.kind);
        let groups = eager
            && (if left { left_ok } else { right_ok })
            && ctx.has_grouping()
            && ctx.can_group(s);
        let mut side = GridSide {
            left,
            ..GridSide::default()
        };
        if groups {
            let gplus = scratch.gplus_span(ctx, s);
            let attrs = scratch.gplus_at(gplus);
            let key = [Span::new(0, attrs.len())];
            side.group = side.facts(ctx, staged, attrs, KeysRef::new(&key, attrs));
            side.gplus = Some(gplus);
            side.cols = grouping_columns(ctx, s);
        }
        side
    }

    /// The [`SideFacts`] of an input on this side exposing `visible` with
    /// the key set `keys`.
    #[inline]
    fn facts(
        &self,
        ctx: &OptContext,
        staged: &StagedApply,
        visible: &[AttrId],
        keys: KeysRef<'_>,
    ) -> SideFacts {
        if self.left {
            staged.left_facts(ctx, visible, keys)
        } else {
            staged.right_facts(ctx, visible, keys)
        }
    }
}

/// One plan of a grid (`Grid`) with what every unit of its row (a left
/// plan) or its column (a right plan) reads of it alone, and its grouping
/// slot.
#[derive(Debug, Clone, Copy)]
pub struct GridPlan {
    /// The plan.
    pub(crate) id: PlanId,
    /// The units push a grouping onto it (`pushable`).
    pub(crate) push: bool,
    /// It has a grouping below: what the groupjoin refusal reads of a right
    /// input.
    pub(crate) grouped: bool,
    /// What an application of the cut reads of it alone: does it expose
    /// what the cut needs, does a key of it cover its side's predicate
    /// attributes, and the bound its key set implies. Taken in every grid;
    /// a built unit reads it, and so does a unit the complete-plan bound
    /// settles (`Grid::settle`).
    pub(crate) facts: SideFacts,
    /// Its slot: `Γ(id)`, once a unit of this grid built one that survived.
    pub(crate) group: Option<PlanId>,
}

impl GridPlan {
    /// The plan `t` of `side` of the cut `staged`, with its facts and an
    /// empty slot.
    #[inline]
    pub fn new(
        ctx: &OptContext,
        scratch: &Scratch,
        memo: &Memo,
        staged: &StagedApply,
        side: &GridSide,
        t: PlanId,
    ) -> GridPlan {
        let plan = memo.plan(t);
        GridPlan {
            id: t,
            push: pushable(side, scratch, memo, t),
            grouped: plan.hot.has_grouping(),
            facts: side.facts(ctx, staged, plan.visible(), plan.keys()),
            group: None,
        }
    }

    /// Do the units push a grouping onto this plan?
    pub fn pushes(&self) -> bool {
        self.push
    }

    /// Its slot: the `Γ` of this plan a unit left for the rest of the grid.
    pub fn slot(&self) -> Option<PlanId> {
        self.group
    }
}

/// The work unit of the search: every operator tree of `l.id ◦ r.id`
/// (physical orientation, staged cut constants in `staged`), each **built,
/// offered and — if refused — popped** before the next one is built, so no
/// row is ever built on top of a dead one. `l` and `r` are the unit's row
/// and column plans of a grid over the sides `sides`, with what the
/// unit reads of them: whether it pushes a grouping onto each, their
/// [`SideFacts`], and their slots. With no push that is the plain tree
/// alone (the DPhyp baseline's sides take no groupings), else the Fig. 8
/// (a)–(d) variants, in the order the arena can unwind:
///
/// ```text
/// t1 ◦ t2;   Γ(t1), Γ(t1) ◦ t2;   Γ(t2), t1 ◦ Γ(t2);   Γ(t1) ◦ Γ(t2)
/// ```
///
/// A tree over `Γ(t)` reads the facts its [`GridSide`] decided for a
/// grouping.
///
/// `offer` is handed each tree while it is the newest row of the arena and
/// says whether to keep it (the search folds it into its class, or keeps a
/// complete plan that became the best; a test collects it).
///
/// The slots hold `Γ(t1)` and `Γ(t2)` as earlier units of the same grid
/// left them in the arena. A unit reuses a filled slot instead of building
/// the grouping again: that `Γ` is still live, because every mark a later
/// unit rolls back to was taken above it.
/// A grouping the unit builds itself goes with its last user: `Γ(t2)` when
/// neither tree over it was kept, then `Γ(t1)` likewise once nothing kept
/// lies above it (under a kept `t1 ◦ Γ(t2)` it stays). One that survives
/// goes into its slot for the rest of the grid. Rollback is LIFO, so this
/// is sound for any `offer` that keeps no reference to a tree it refuses;
/// see `docs/ARCHITECTURE.md` § "The span-sharing rule".
#[inline]
pub fn op_trees(
    ctx: &OptContext,
    scratch: &mut Scratch,
    memo: &mut Memo,
    staged: &StagedApply,
    sides: &[GridSide; 2],
    [l, r]: [&mut GridPlan; 2],
    mut offer: impl FnMut(&mut Memo, PlanId) -> bool,
) {
    let (t1, t2) = (l.id, r.id);
    // The one class that can name a row of this unit is the unit's own, and
    // a class's newest member is its last: checking that one id against the
    // mark is the whole precondition of `Memo::truncate` here.
    let pop = |memo: &mut Memo, mark: MemoMark| {
        debug_assert!(
            memo.class(memo[t1].set.union(memo[t2].set))
                .last()
                .is_none_or(|&id| mark.covers(id)),
            "popping a row its class still names"
        );
        memo.truncate(mark);
    };
    let mut apply = |scratch: &mut Scratch, memo: &mut Memo, left, right| {
        let mark = memo.mark();
        let kept =
            apply_staged(ctx, scratch, memo, staged, left, right).is_some_and(|t| offer(memo, t));
        if !kept {
            pop(memo, mark);
        }
        kept
    };
    apply(scratch, memo, (t1, l.facts), (t2, r.facts));
    // A grouping is its slot's, or built here and remembered with the mark
    // under it: what to roll back to once its last user is gone.
    let group =
        |scratch: &mut Scratch, memo: &mut Memo, p: &GridPlan, side: &GridSide| match p.group {
            Some(g) => (None, g),
            None => {
                let gplus = side.gplus.expect("a plan pushed onto has its side's G⁺");
                (
                    Some(memo.mark()),
                    group_over(ctx, scratch, memo, p.id, gplus),
                )
            }
        };
    let leave = |memo: &mut Memo,
                 (under, g): (Option<MemoMark>, PlanId),
                 used: bool,
                 slot: &mut Option<PlanId>| match under {
        Some(mark) if !used => pop(memo, mark),
        Some(_) => *slot = Some(g),
        None => {}
    };
    let [lside, rside] = sides;
    let g1 = l.push.then(|| group(scratch, memo, l, lside));
    let kept1 = g1.is_some_and(|(_, g1)| apply(scratch, memo, (g1, lside.group), (t2, r.facts)));
    let mut kept2 = false;
    if r.push {
        let g2 = group(scratch, memo, r, rside);
        kept2 = apply(scratch, memo, (t1, l.facts), (g2.1, rside.group));
        if let Some((_, g1)) = g1 {
            kept2 |= apply(scratch, memo, (g1, lside.group), (g2.1, rside.group));
        }
        leave(memo, g2, kept2, &mut r.group);
    }
    if let Some(g1) = g1 {
        leave(memo, g1, kept1 || kept2, &mut l.group);
    }
}

/// The work units of one orientation: the class of its left set × the class
/// of its right set, each side's plans with their one-sided facts, and each
/// side's own facts. Staged once per orientation ([`Grid::stage`]), so its
/// slots start empty.
///
/// What is decided where: per side, whether its plans take groupings at
/// all (`can_group(S)`, `G⁺(S)`), what a `Γ(t)` on it exposes and keys and
/// the fresh columns building one takes ([`GridSide`]); per plan, whether
/// a unit pushes a grouping onto it, whether it is grouped, and its
/// [`SideFacts`] ([`GridPlan`]). A unit reads only these, whether it is
/// built ([`Grid::build`]) or settled ([`Grid::settle`]).
#[derive(Default)]
pub(crate) struct Grid {
    pub(crate) lefts: Vec<GridPlan>,
    pub(crate) rights: Vec<GridPlan>,
    pub(crate) sides: [GridSide; 2],
}

impl Grid {
    /// Stage the grid of the cut `staged`, staged with `sl` on the left:
    /// decide each side's facts (its plans take groupings only when
    /// `eager`), snapshot the classes of `sl` and `sr` with each plan's
    /// facts, and empty every slot.
    pub(crate) fn stage(
        &mut self,
        ctx: &OptContext,
        scratch: &mut Scratch,
        memo: &Memo,
        staged: &StagedApply,
        (sl, sr): (NodeSet, NodeSet),
        eager: bool,
    ) {
        self.sides = [
            GridSide::new(ctx, scratch, staged, sl, true, eager),
            GridSide::new(ctx, scratch, staged, sr, false, eager),
        ];
        let scratch = &*scratch;
        for (plans, side, s) in [
            (&mut self.lefts, &self.sides[0], sl),
            (&mut self.rights, &self.sides[1], sr),
        ] {
            plans.clear();
            plans.extend(
                memo.class(s)
                    .iter()
                    .map(|&t| GridPlan::new(ctx, scratch, memo, staged, side, t)),
            );
        }
    }

    /// Run unit `(i, j)`: [`op_trees`] over the row's and the column's
    /// plans, with their facts and slots.
    #[inline]
    pub(crate) fn build(
        &mut self,
        ctx: &OptContext,
        scratch: &mut Scratch,
        memo: &mut Memo,
        staged: &StagedApply,
        (i, j): (usize, usize),
        offer: impl FnMut(&mut Memo, PlanId) -> bool,
    ) {
        let plans = [&mut self.lefts[i], &mut self.rights[j]];
        op_trees(ctx, scratch, memo, staged, &self.sides, plans, offer);
    }

    /// Account for unit `(i, j)` as [`Grid::build`] would with an `offer`
    /// that refuses every tree, building none of them: `plans_built` grows
    /// by the trees [`op_trees`] would construct and the fresh-attribute
    /// allocator moves past the columns its groupings would take, so
    /// whatever is built next gets the ids it would have got. Refusing
    /// every tree pops every grouping the unit builds, so no slot changes;
    /// the memo is not touched.
    ///
    /// It is arithmetic over the staged facts. A tree `l ◦ r` is built iff
    /// `b(l, r, g) = l ∧ r ∧ ¬(gj ∧ g)`: both sides see what the cut needs
    /// and it is not a groupjoin over a grouped right input — the halves of
    /// [`StagedApply::refuses`]. With `p` a side's push bit and `new` that
    /// its slot is empty:
    ///
    /// ```text
    /// plans = b(L, R, g2) + p1·(new1 + b(Lg, R, g2)) + p2·(new2 + b(L, Rg, 1))
    ///       + p1·p2·b(Lg, Rg, 1)
    /// fresh = p1·new1·cols1 + p2·new2·cols2
    /// ```
    #[inline]
    pub(crate) fn settle(&self, scratch: &mut Scratch, kind: OpKind, (i, j): (usize, usize)) {
        let (l, r) = (&self.lefts[i], &self.rights[j]);
        let gj = kind == OpKind::GroupJoin;
        let b = |l: bool, r: bool, right_grouped: bool| u64::from(l && r && !(gj && right_grouped));
        let [lside, rside] = &self.sides;
        let (lg, rg) = (lside.group.sees, rside.group.sees);
        let (ls, rs) = (l.facts.sees, r.facts.sees);
        let (p1, p2) = (u64::from(l.push), u64::from(r.push));
        let (new1, new2) = (l.push && l.group.is_none(), r.push && r.group.is_none());
        scratch.plans_built += b(ls, rs, r.grouped)
            + p1 * (u64::from(new1) + b(lg, rs, r.grouped))
            + p2 * (u64::from(new2) + b(ls, rg, true))
            + p1 * p2 * b(lg, rg, true);
        scratch.fresh_attrs(u32::from(new1) * lside.cols + u32::from(new2) * rside.cols);
    }
}
