//! The `OpTrees` routine (Fig. 6): for one operator application, produce
//! the up-to-four join trees with all valid eager-aggregation variants —
//! each offered to the caller as it is built and popped again if refused —
//! and the `Grid` of one orientation it runs over, which decides what a
//! unit reads of one side alone once per plan instead of once per unit.

use crate::aggstate::grouping_columns;
use crate::context::{OptContext, Scratch};
use crate::memo::{Memo, MemoMark, PlanId};
use crate::plan::{apply_staged, make_group, StagedApply};
use dpnext_hypergraph::NodeSet;
use dpnext_keys::needs_grouping;
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

/// Is pushing a grouping onto `t` valid and useful?
///
/// * `Valid`: the aggregation vector restricted to `t` must be splittable
///   off and decomposable (`ctx.can_group`),
/// * usefulness: grouping is skipped when `G⁺` already contains a key of a
///   duplicate-free `t` (Fig. 6 lines 10/15: `NeedsGrouping(G⁺ᵢ, …)`),
/// * no double grouping: `Γ(Γ(e))` never helps.
///
/// A unit of an operator pushes a grouping onto an input iff [`may_push`]
/// allows that side and this holds of the input.
#[inline]
pub fn pushable(ctx: &OptContext, scratch: &mut Scratch, memo: &Memo, t: PlanId) -> bool {
    let hot = &memo[t];
    if !ctx.has_grouping() || hot.is_group() || !ctx.can_group(hot.set) {
        return false;
    }
    // `G⁺(S)` is memoized sorted, which is what the key test wants.
    let gplus = scratch.gplus(ctx, hot.set);
    needs_grouping(gplus, hot.duplicate_free(), memo.plan(t).keys())
}

/// The work unit of the search: every operator tree of `t1 ◦ t2` (physical
/// orientation, staged cut constants in `staged`), each **built, offered
/// and — if refused — popped** before the next one is built, so no row is
/// ever built on top of a dead one. `push` says whether the unit pushes a
/// grouping onto `t1`, onto `t2` ([`may_push`] ∧ [`pushable`]); with
/// neither that is the plain tree alone (the DPhyp baseline passes
/// `[false; 2]`), else the Fig. 8 (a)–(d) variants, in the order the arena
/// can unwind:
///
/// ```text
/// t1 ◦ t2;   Γ(t1), Γ(t1) ◦ t2;   Γ(t2), t1 ◦ Γ(t2);   Γ(t1) ◦ Γ(t2)
/// ```
///
/// `offer` is handed each tree while it is the newest row of the arena and
/// says whether to keep it (the search folds it into its class, or keeps a
/// complete plan that became the best; a test collects it).
///
/// `slot1` and `slot2` are the unit's row and column slots: `Γ(t1)` and
/// `Γ(t2)` as earlier units of the same grid left them in the arena. A unit
/// reuses a filled slot instead of building the grouping again: that `Γ`
/// is still live, because every mark a later unit rolls back to was taken
/// above it.
/// A grouping the unit builds itself goes with its last user: `Γ(t2)` when
/// neither tree over it was kept, then `Γ(t1)` likewise once nothing kept
/// lies above it (under a kept `t1 ◦ Γ(t2)` it stays). One that survives
/// goes into its slot for the rest of the grid. Rollback is LIFO, so this
/// is sound for any `offer` that keeps no reference to a tree it refuses;
/// see `docs/ARCHITECTURE.md` § "The span-sharing rule".
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn op_trees(
    ctx: &OptContext,
    scratch: &mut Scratch,
    memo: &mut Memo,
    staged: &StagedApply,
    t1: PlanId,
    t2: PlanId,
    push: [bool; 2],
    [slot1, slot2]: [&mut Option<PlanId>; 2],
    mut offer: impl FnMut(&mut Memo, PlanId) -> bool,
) {
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
    apply(scratch, memo, t1, t2);
    // A grouping is its slot's, or built here and remembered with the mark
    // under it: what to roll back to once its last user is gone.
    let group = |scratch: &mut Scratch, memo: &mut Memo, t, slot: Option<PlanId>| match slot {
        Some(g) => (None, g),
        None => (Some(memo.mark()), make_group(ctx, scratch, memo, t)),
    };
    let leave = |memo: &mut Memo,
                 (under, g): (Option<MemoMark>, PlanId),
                 used: bool,
                 slot: &mut Option<PlanId>| match under {
        Some(mark) if !used => pop(memo, mark),
        Some(_) => *slot = Some(g),
        None => {}
    };
    let g1 = push[0].then(|| group(scratch, memo, t1, *slot1));
    let kept1 = g1.is_some_and(|(_, g1)| apply(scratch, memo, g1, t2));
    let mut kept2 = false;
    if push[1] {
        let g2 = group(scratch, memo, t2, *slot2);
        kept2 = apply(scratch, memo, t1, g2.1);
        if let Some((_, g1)) = g1 {
            kept2 |= apply(scratch, memo, g1, g2.1);
        }
        leave(memo, g2, kept2, slot2);
    }
    if let Some(g1) = g1 {
        leave(memo, g1, kept1 || kept2, slot1);
    }
}

/// One plan of a [`Grid`] with what every unit of its row (a left plan) or
/// its column (a right plan) reads of it alone.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GridPlan {
    pub(crate) id: PlanId,
    /// The units push a grouping onto it: the search is eager, the operator
    /// may push into its side ([`may_push`]) and it is [`pushable`].
    pub(crate) push: bool,
    /// It has a grouping below: what the groupjoin refusal reads of a right
    /// input.
    pub(crate) grouped: bool,
    /// It exposes what the cut needs of its side
    /// ([`StagedApply::left_sees`], [`StagedApply::right_sees`]). Taken at
    /// the full set only, the one grid whose units are settled.
    pub(crate) sees: bool,
    /// Its slot: `Γ(id)`, once a unit of this grid built one that survived.
    pub(crate) group: Option<PlanId>,
}

/// The work units of one orientation: the class of its left set × the class
/// of its right set, each side's plans with their one-sided facts, and what
/// a settled unit reads of the groupings the orientation can push. Staged
/// once per orientation ([`Grid::stage`]), so its slots start empty.
#[derive(Default)]
pub(crate) struct Grid {
    pub(crate) lefts: Vec<GridPlan>,
    pub(crate) rights: Vec<GridPlan>,
    /// Per side: does a `Γ(t)` on it expose what the cut needs of that
    /// side? It exposes `G⁺(S)` plus fresh columns, which lie above every
    /// query attribute, so no predicate or groupjoin argument names them.
    pub(crate) group_sees: [bool; 2],
    /// Per side: the fresh columns building a `Γ(t)` on it takes
    /// ([`grouping_columns`]).
    group_cols: [u32; 2],
}

impl Grid {
    /// Stage the grid of the cut `staged`, staged with `sl` on the left:
    /// snapshot the classes of `sl` and `sr` with each plan's facts (pushes
    /// only when `eager`, and what only a settled unit reads only when
    /// `complete`), and empty every slot.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn stage(
        &mut self,
        ctx: &OptContext,
        scratch: &mut Scratch,
        memo: &Memo,
        staged: &StagedApply,
        (sl, sr): (NodeSet, NodeSet),
        eager: bool,
        complete: bool,
    ) {
        let (left_ok, right_ok) = may_push(staged.kind);
        self.lefts.clear();
        self.lefts.extend(memo.class(sl).iter().map(|&t| GridPlan {
            id: t,
            push: eager && left_ok && pushable(ctx, scratch, memo, t),
            grouped: memo[t].has_grouping(),
            sees: complete && staged.left_sees(memo.plan(t).visible()),
            group: None,
        }));
        self.rights.clear();
        self.rights.extend(memo.class(sr).iter().map(|&t| GridPlan {
            id: t,
            push: eager && right_ok && pushable(ctx, scratch, memo, t),
            grouped: memo[t].has_grouping(),
            sees: complete && staged.right_sees(ctx, memo.plan(t).visible()),
            group: None,
        }));
        if complete && eager {
            self.group_sees = [
                staged.left_sees(scratch.gplus(ctx, sl)),
                staged.right_sees(ctx, scratch.gplus(ctx, sr)),
            ];
            self.group_cols = [grouping_columns(ctx, sl), grouping_columns(ctx, sr)];
        }
    }

    /// Run unit `(i, j)`: [`op_trees`] over the row's and the column's
    /// plans, with their pushes and slots.
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
        let (l, r) = (&mut self.lefts[i], &mut self.rights[j]);
        let push = [l.push, r.push];
        let slots = [&mut l.group, &mut r.group];
        op_trees(ctx, scratch, memo, staged, l.id, r.id, push, slots, offer);
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
        let [lg, rg] = self.group_sees;
        let (p1, p2) = (u64::from(l.push), u64::from(r.push));
        let (new1, new2) = (l.push && l.group.is_none(), r.push && r.group.is_none());
        scratch.plans_built += b(l.sees, r.sees, r.grouped)
            + p1 * (u64::from(new1) + b(lg, r.sees, r.grouped))
            + p2 * (u64::from(new2) + b(l.sees, rg, true))
            + p1 * p2 * b(lg, rg, true);
        let [cols1, cols2] = self.group_cols;
        scratch.fresh_attrs(u32::from(new1) * cols1 + u32::from(new2) * cols2);
    }
}
