//! The `OpTrees` routine (Fig. 6): for one operator application, produce
//! the up-to-four join trees with all valid eager-aggregation variants —
//! each offered to the caller as it is built and popped again if refused.

use crate::aggstate::grouping_columns;
use crate::context::{OptContext, Scratch};
use crate::memo::{Memo, MemoMark, PlanId};
use crate::plan::{apply_staged, make_group, StagedApply};
use dpnext_algebra::AttrId;
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
fn may_push(op: OpKind) -> (bool, bool) {
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
#[inline]
fn pushable(ctx: &OptContext, scratch: &mut Scratch, memo: &Memo, t: PlanId) -> bool {
    let hot = &memo[t];
    if !ctx.has_grouping() || hot.is_group() || !ctx.can_group(hot.set) {
        return false;
    }
    // `G⁺(S)` is memoized sorted, which is what the key test wants.
    let gplus = scratch.gplus(ctx, hot.set);
    needs_grouping(gplus, hot.duplicate_free(), memo.plan(t).keys())
}

/// Does the unit `t1 ◦ t2` of an operator of `kind` push a grouping onto
/// `t1`, onto `t2`? The one decision, for the unit that builds its trees
/// ([`op_trees`]) and for the one the complete-plan bound settles
/// ([`settle`]).
#[inline]
fn pushes(
    ctx: &OptContext,
    scratch: &mut Scratch,
    memo: &Memo,
    kind: OpKind,
    t1: PlanId,
    t2: PlanId,
) -> (bool, bool) {
    let (left_ok, right_ok) = may_push(kind);
    (
        left_ok && pushable(ctx, scratch, memo, t1),
        right_ok && pushable(ctx, scratch, memo, t2),
    )
}

/// The work unit of the search: every operator tree of `t1 ◦ t2` (physical
/// orientation, staged cut constants in `staged`), each **built, offered
/// and — if refused — popped** before the next one is built, so no row is
/// ever built on top of a dead one. Without `eager` that is the plain tree
/// alone (the DPhyp baseline); with it the Fig. 8 (a)–(d) variants, in the
/// order the arena can unwind:
///
/// ```text
/// t1 ◦ t2;   Γ(t1), Γ(t1) ◦ t2;   Γ(t2), t1 ◦ Γ(t2);   Γ(t1) ◦ Γ(t2)
/// ```
///
/// `offer` is handed each tree while it is the newest row of the arena and
/// says whether to keep it (the search folds it into its class, or keeps a
/// complete plan that became the best; a test collects it). A pushed-down
/// grouping goes with its last user: `Γ(t2)` when neither tree over it was
/// kept, then `Γ(t1)` likewise once nothing kept lies above it (under a
/// kept `t1 ◦ Γ(t2)` it stays). Rollback is
/// LIFO, so this is sound for any `offer` that keeps no reference to a tree
/// it refuses; see `docs/ARCHITECTURE.md` § "The span-sharing rule".
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn op_trees(
    ctx: &OptContext,
    scratch: &mut Scratch,
    memo: &mut Memo,
    staged: &StagedApply,
    t1: PlanId,
    t2: PlanId,
    eager: bool,
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
    if !eager {
        return;
    }
    // A grouping is remembered with the mark under it: what to roll back to
    // once its last user is gone.
    let (push1, push2) = pushes(ctx, scratch, memo, staged.kind, t1, t2);
    let g1 = push1.then(|| (memo.mark(), make_group(ctx, scratch, memo, t1)));
    let kept1 = g1.is_some_and(|(_, g1)| apply(scratch, memo, g1, t2));
    let g2 = push2.then(|| (memo.mark(), make_group(ctx, scratch, memo, t2)));
    let mut kept2 = false;
    if let Some((under_g2, g2)) = g2 {
        kept2 = apply(scratch, memo, t1, g2);
        if let Some((_, g1)) = g1 {
            kept2 |= apply(scratch, memo, g1, g2);
        }
        if !kept2 {
            pop(memo, under_g2);
        }
    }
    if let Some((under_g1, _)) = g1.filter(|_| !kept1 && !kept2) {
        pop(memo, under_g1);
    }
}

/// Account for the unit `t1 ◦ t2` as [`op_trees`] would with an `offer`
/// that refuses every tree, building none of them: `plans_built` grows by
/// the trees `op_trees` would construct and the fresh-attribute allocator
/// moves past the columns its groupings would take, so whatever is built
/// next gets the ids it would have got. The memo is not touched. Every
/// decision is the one `op_trees` asks for — `pushes`,
/// [`StagedApply::refuses`], `grouping_columns` — with `G⁺(S)` standing
/// in for what a `Γ(t)` exposes: its fresh columns lie above every query
/// attribute, so no predicate or groupjoin argument names them.
#[inline]
pub(crate) fn settle(
    ctx: &OptContext,
    scratch: &mut Scratch,
    memo: &Memo,
    staged: &StagedApply,
    t1: PlanId,
    t2: PlanId,
    eager: bool,
) {
    let (s1, s2, grouped2) = (memo[t1].set, memo[t2].set, memo[t2].has_grouping());
    let (v1, v2) = (memo.plan(t1).visible(), memo.plan(t2).visible());
    let terms = &memo.lanes.terms;
    let builds = |left: &[AttrId], right: &[AttrId], right_grouped: bool| {
        u64::from(!staged.refuses(ctx, terms, left, right, right_grouped))
    };
    let mut plans = builds(v1, v2, grouped2);
    if eager {
        let (push1, push2) = pushes(ctx, scratch, memo, staged.kind, t1, t2);
        if push1 {
            scratch.fresh_attrs(grouping_columns(ctx, s1));
            plans += 1 + builds(scratch.gplus(ctx, s1), v2, grouped2);
        }
        if push2 {
            scratch.fresh_attrs(grouping_columns(ctx, s2));
            plans += 1 + builds(v1, scratch.gplus(ctx, s2), true);
            if push1 {
                let [g1, g2] = scratch.gplus_pair(ctx, s1, s2);
                plans += builds(g1, g2, true);
            }
        }
    }
    scratch.plans_built += plans;
}
