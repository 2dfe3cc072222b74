//! The `OpTrees` routine (Fig. 6): for one operator application, produce
//! the up-to-four join trees with all valid eager-aggregation variants.

use crate::context::{OptContext, Scratch};
use crate::memo::{Memo, PlanId};
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

/// Build all operator trees for `t1 ◦ t2` (physical orientation, staged
/// cut constants in `staged`) into `out`: plain, `Γ(t1) ◦ t2`,
/// `t1 ◦ Γ(t2)`, `Γ(t1) ◦ Γ(t2)` — Fig. 8 (a)–(d). `out` is a
/// caller-owned scratch buffer so the hot enumeration loop allocates
/// nothing per pair.
#[inline]
pub fn op_trees(
    ctx: &OptContext,
    scratch: &mut Scratch,
    memo: &mut Memo,
    staged: &StagedApply,
    t1: PlanId,
    t2: PlanId,
    out: &mut Vec<PlanId>,
) {
    let (left_ok, right_ok) = may_push(staged.kind);

    if let Some(p) = apply_staged(ctx, scratch, memo, staged, t1, t2) {
        out.push(p);
    }
    let g1 =
        (left_ok && pushable(ctx, scratch, memo, t1)).then(|| make_group(ctx, scratch, memo, t1));
    let g2 =
        (right_ok && pushable(ctx, scratch, memo, t2)).then(|| make_group(ctx, scratch, memo, t2));
    if let Some(g1) = g1 {
        if let Some(p) = apply_staged(ctx, scratch, memo, staged, g1, t2) {
            out.push(p);
        }
    }
    if let Some(g2) = g2 {
        if let Some(p) = apply_staged(ctx, scratch, memo, staged, t1, g2) {
            out.push(p);
        }
    }
    if let (Some(g1), Some(g2)) = (g1, g2) {
        if let Some(p) = apply_staged(ctx, scratch, memo, staged, g1, g2) {
            out.push(p);
        }
    }
}
