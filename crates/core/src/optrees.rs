//! The `OpTrees` routine (Fig. 6): for one operator application, produce
//! the up-to-four join trees with all valid eager-aggregation variants —
//! each offered to the caller as it is built and popped again if refused.

use crate::context::{OptContext, Scratch};
use crate::memo::{Memo, MemoMark, PlanId};
use crate::plan::{apply_staged, make_group, StagedApply};
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
/// says whether to keep it (the search folds it into its class; a test
/// collects it). A pushed-down grouping goes with its last user: `Γ(t2)`
/// when neither tree over it was kept, then `Γ(t1)` likewise once nothing
/// kept lies above it (under a kept `t1 ◦ Γ(t2)` it stays). Rollback is
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
    let (left_ok, right_ok) = may_push(staged.kind);
    let g1 = (left_ok && pushable(ctx, scratch, memo, t1))
        .then(|| (memo.mark(), make_group(ctx, scratch, memo, t1)));
    let kept1 = g1.is_some_and(|(_, g1)| apply(scratch, memo, g1, t2));
    let g2 = (right_ok && pushable(ctx, scratch, memo, t2))
        .then(|| (memo.mark(), make_group(ctx, scratch, memo, t2)));
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
