//! Rollback and span sharing of the memo's payload lanes: under random
//! interleavings of scans, groupings, operator applications, whole engine
//! work units that pop what they are refused, grids of units that share a
//! surviving grouping along a row or a column, marks and LIFO rollbacks,
//! `Memo::truncate` restores the exact state at the mark (arena length,
//! every lane length, live bytes), and every plan that survives still
//! reads back the payload it was built with — including plans that *share*
//! an input's key set or aggregation state instead of owning a copy.

use dpnext_algebra::AttrId;
use dpnext_core::aggstate::AggPos;
use dpnext_core::applicable_op;
use dpnext_core::optrees::{op_trees, GridPlan, GridSide};
use dpnext_core::{
    make_apply, make_group, make_scan, stage_apply, Memo, MemoMark, OptContext, PlanId, PlanNode,
    Scratch, StagedApply, Term,
};
use dpnext_hypergraph::NodeSet;
use dpnext_workload::{generate_query, GenConfig, OpWeights};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Everything one plan exposes, resolved out of the lanes into owned data.
#[derive(Debug, Clone, PartialEq)]
struct Payload {
    set: NodeSet,
    card: f64,
    cost: f64,
    flags: (bool, bool, bool),
    /// `(grouping key mask or predicate terms, children)` of the root
    /// node.
    node: (Vec<u64>, Vec<Term>, Vec<PlanId>),
    keys: Vec<Vec<u64>>,
    pos: Vec<AggPos>,
    counts: Vec<(NodeSet, AttrId)>,
}

fn payload(memo: &Memo, id: PlanId) -> Payload {
    let plan = memo.plan(id);
    let node = match plan.cold.node {
        PlanNode::Scan { .. } => (vec![], vec![], vec![]),
        PlanNode::Apply {
            pred, left, right, ..
        } => (
            vec![],
            pred.of(&plan.lanes.terms).to_vec(),
            vec![left, right],
        ),
        PlanNode::Group { input } => (plan.grouping_key().to_vec(), vec![], vec![input]),
    };
    Payload {
        set: plan.hot.set,
        card: plan.hot.card,
        cost: plan.hot.cost,
        flags: (
            plan.hot.has_grouping(),
            plan.hot.duplicate_free(),
            plan.hot.is_group(),
        ),
        node,
        keys: plan.keys().iter().map(<[u64]>::to_vec).collect(),
        pos: plan.agg().pos.to_vec(),
        counts: plan.agg().counts.to_vec(),
    }
}

/// The operator, if any, that can join the plans `l` and `r` as they are.
fn joining(ctx: &OptContext, memo: &Memo, l: PlanId, r: PlanId) -> Option<usize> {
    let (sl, sr) = (memo[l].set, memo[r].set);
    if !sl.is_disjoint(sr) {
        return None;
    }
    match applicable_op(&ctx.cq, sl, sr) {
        Some((op, [true, _])) => Some(op),
        _ => None,
    }
}

/// A tree of a work unit as a value: its own payload without the ids of its
/// inputs — a grouping built inside the unit sits wherever the pops before
/// it left the arena's end — and the inputs' payloads in their place.
fn tree(memo: &Memo, id: PlanId) -> (Payload, Vec<Payload>) {
    let mut top = payload(memo, id);
    let inputs = std::mem::take(&mut top.node.2);
    (top, inputs.iter().map(|&t| payload(memo, t)).collect())
}

/// The sides of the cut `staged` over `l` and `r`, for an eager search.
fn sides(
    ctx: &OptContext,
    scratch: &mut Scratch,
    memo: &Memo,
    staged: &StagedApply,
    (l, r): (PlanId, PlanId),
) -> [GridSide; 2] {
    [
        GridSide::new(ctx, scratch, staged, memo[l].set, true, true),
        GridSide::new(ctx, scratch, staged, memo[r].set, false, true),
    ]
}

/// One engine work unit over the row plan `l` and the column plan `r` of
/// the sides `sides`: `op_trees` under an offer that keeps the calls whose
/// bit is set in `mask`. Returns how many trees were offered and the kept
/// ones by call number.
fn unit(
    ctx: &OptContext,
    scratch: &mut Scratch,
    memo: &mut Memo,
    staged: &StagedApply,
    sides: &[GridSide; 2],
    plans: [&mut GridPlan; 2],
    mask: u8,
) -> (u8, Vec<(u8, PlanId)>) {
    let (mut offered, mut kept) = (0u8, Vec::new());
    op_trees(ctx, scratch, memo, staged, sides, plans, |_, t| {
        let keep = mask >> offered & 1 == 1;
        if keep {
            kept.push((offered, t));
        }
        offered += 1;
        keep
    });
    (offered, kept)
}

/// One rollback point: the memo's mark, its live bytes then, and how many
/// plans were alive.
struct Checkpoint {
    mark: MemoMark,
    live_bytes: u64,
    plans: usize,
}

/// Replay `steps` on the random query `(n, seed)`, checking the memo after
/// every step. Returns how many units reused a grouping an earlier unit of
/// their grid left in a slot.
fn replay(n: usize, seed: u64, steps: &[(u8, usize, usize, u8)]) -> Result<u64, TestCaseError> {
    let mut cfg = GenConfig::oracle(n);
    cfg.ops = OpWeights::mixed();
    let ctx = OptContext::new(generate_query(&cfg, seed));
    let mut memo = Memo::new();
    let mut scratch = Scratch::new(&ctx);
    // Every live plan with the payload it had when it was built.
    let mut live: Vec<(PlanId, Payload)> = Vec::new();
    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    let mut staged = StagedApply::default();
    let mut reused = 0u64;
    for &(kind, x, y, mask) in steps {
        let built = match kind {
            0 => Some(make_scan(&ctx, &mut memo, x % n)),
            1 if !live.is_empty() => {
                let t = live[x % live.len()].0;
                let hot = memo[t];
                (ctx.has_grouping() && !hot.is_group() && ctx.can_group(hot.set))
                    .then(|| make_group(&ctx, &mut scratch, &mut memo, t))
            }
            2..=5 if !live.is_empty() => {
                let (l, r) = (live[x % live.len()].0, live[y % live.len()].0);
                joining(&ctx, &memo, l, r)
                    .and_then(|op| make_apply(&ctx, &mut scratch, &mut memo, op, l, r))
            }
            6 => {
                checkpoints.push(Checkpoint {
                    mark: memo.mark(),
                    live_bytes: memo.live_bytes(),
                    plans: live.len(),
                });
                None
            }
            7 => {
                if let Some(at) = checkpoints.pop() {
                    memo.truncate(at.mark);
                    live.truncate(at.plans);
                    prop_assert_eq!(at.mark, memo.mark(), "lane lengths not restored");
                    prop_assert_eq!(at.live_bytes, memo.live_bytes());
                    prop_assert_eq!(live.len(), memo.arena_len());
                }
                None
            }
            8 if !live.is_empty() => {
                // One whole work unit over two live plans, refusing the
                // trees `mask` names: what it keeps reads as if built
                // alone, and what it refuses leaves nothing behind.
                let (l, r) = (live[x % live.len()].0, live[y % live.len()].0);
                if let Some(op) = joining(&ctx, &memo, l, r) {
                    let left_set = memo[l].set;
                    stage_apply(&ctx, &mut memo, &mut staged, op, left_set);
                    let (before, bytes, rows) = (memo.mark(), memo.live_bytes(), memo.arena_len());
                    let sides = sides(&ctx, &mut scratch, &memo, &staged, (l, r));
                    let plan = |scratch: &Scratch, memo: &Memo, side, t| {
                        GridPlan::new(&ctx, scratch, memo, &staged, side, t)
                    };
                    // Each tree kept alone, from the same starting state.
                    let mut alone = Vec::new();
                    for call in 0..4 {
                        let mut scratch = scratch.clone();
                        let mut lp = plan(&scratch, &memo, &sides[0], l);
                        let mut rp = plan(&scratch, &memo, &sides[1], r);
                        let plans = [&mut lp, &mut rp];
                        let (_, kept) = unit(
                            &ctx,
                            &mut scratch,
                            &mut memo,
                            &staged,
                            &sides,
                            plans,
                            1 << call,
                        );
                        alone.push((
                            kept.first().map(|&(_, t)| tree(&memo, t)),
                            scratch.plans_built,
                        ));
                        memo.truncate(before);
                    }
                    let mut lp = plan(&scratch, &memo, &sides[0], l);
                    let mut rp = plan(&scratch, &memo, &sides[1], r);
                    let plans = [&mut lp, &mut rp];
                    let (offered, kept) =
                        unit(&ctx, &mut scratch, &mut memo, &staged, &sides, plans, mask);
                    for (_, plans_built) in &alone {
                        prop_assert_eq!(scratch.plans_built, *plans_built, "mask-dependent");
                    }
                    if mask & ((1 << offered) - 1) == 0 {
                        prop_assert_eq!(before, memo.mark(), "a refused unit left rows");
                        prop_assert_eq!(bytes, memo.live_bytes());
                    }
                    for (call, t) in kept {
                        prop_assert_eq!(alone[call as usize].0.as_ref(), Some(&tree(&memo, t)));
                    }
                    // Whatever the unit left — kept trees and the groupings
                    // under them — lives on like any other plan.
                    for id in memo.arena_ids().skip(rows) {
                        live.push((id, payload(&memo, id)));
                    }
                }
                None
            }
            9 if !live.is_empty() => {
                // A grid, as the engine walks one: every live plan of the
                // set of `l` (at most four) against every live plan of the
                // set of `r`, each unit keeping what `mask`, turned per
                // unit, names. A grouping that survives its unit fills the
                // slot of its row or column, and the later units of that
                // row or column build on it instead of building another.
                let (l, r) = (live[x % live.len()].0, live[y % live.len()].0);
                if let Some(op) = joining(&ctx, &memo, l, r) {
                    let side = |s| -> Vec<PlanId> {
                        let of_s = live
                            .iter()
                            .map(|&(id, _)| id)
                            .filter(|&id| memo[id].set == s);
                        of_s.take(4).collect()
                    };
                    let (lefts, rights) = (side(memo[l].set), side(memo[r].set));
                    let left_set = memo[l].set;
                    stage_apply(&ctx, &mut memo, &mut staged, op, left_set);
                    let rows = memo.arena_len();
                    let sides = sides(&ctx, &mut scratch, &memo, &staged, (l, r));
                    let side = |plans: &[PlanId], side| -> Vec<GridPlan> {
                        let plan = |&t| GridPlan::new(&ctx, &scratch, &memo, &staged, side, t);
                        plans.iter().map(plan).collect()
                    };
                    let (mut row, mut column) = (side(&lefts, &sides[0]), side(&rights, &sides[1]));
                    for (i, (lp, &t1)) in row.iter_mut().zip(&lefts).enumerate() {
                        for (j, (rp, &t2)) in column.iter_mut().zip(&rights).enumerate() {
                            let filled = [lp.slot().is_some(), rp.slot().is_some()];
                            reused +=
                                u64::from(lp.pushes() && filled[0] || rp.pushes() && filled[1]);
                            let turned = (mask ^ (i * 4 + j) as u8) & 0xf;
                            unit(
                                &ctx,
                                &mut scratch,
                                &mut memo,
                                &staged,
                                &sides,
                                [&mut *lp, rp],
                                turned,
                            );
                            prop_assert_eq!(Ok(()), memo.check_invariants());
                            // A slot names a live grouping of its plan.
                            for (slot, t) in [(lp.slot(), t1), (rp.slot(), t2)] {
                                if let Some(g) = slot {
                                    prop_assert!(
                                        g.index() < memo.arena_len(),
                                        "slot past the arena"
                                    );
                                    let node = memo.plan(g).cold.node;
                                    prop_assert!(
                                        matches!(node, PlanNode::Group { input, .. } if input == t),
                                        "slot names {:?}, not a grouping of {:?}",
                                        node,
                                        t
                                    );
                                }
                            }
                        }
                    }
                    for id in memo.arena_ids().skip(rows) {
                        live.push((id, payload(&memo, id)));
                    }
                }
                None
            }
            _ => None,
        };
        if let Some(id) = built {
            let cold = memo.plan(id).cold;
            if let PlanNode::Apply { op, left, .. } = cold.node {
                // The rules that hand an input's property through must
                // have shared the span, not copied the data.
                let input = memo.plan(left).cold;
                if !op.preserves_right() {
                    prop_assert_eq!((input.agg_pos, input.counts), (cold.agg_pos, cold.counts));
                    prop_assert_eq!(input.keys, cold.keys);
                }
            }
            live.push((id, payload(&memo, id)));
        }
        prop_assert_eq!(Ok(()), memo.check_invariants());
        for (id, built_with) in &live {
            prop_assert_eq!(built_with, &payload(&memo, *id), "plan {:?} changed", id);
        }
    }
    Ok(reused)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rollback_restores_lanes_and_survivors_keep_their_payload(
        n in 2usize..=5,
        seed in 0u64..10_000,
        steps in proptest::collection::vec(
            (0u8..10, 0usize..1_000, 0usize..1_000, 0u8..16),
            1..160,
        ),
    ) {
        replay(n, seed, &steps)?;
    }
}

/// The grid step is not vacuous: two scans of each of two joined tables,
/// then a 2×2 grid whose units keep every tree, so the first unit's
/// groupings survive and fill their slots. Some of these queries push a
/// grouping onto a side, and there the later units reuse it.
#[test]
fn later_units_of_a_grid_reuse_a_surviving_grouping() {
    let steps = [(0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0)];
    let (mut reused, mut tried) = (0, 0);
    for seed in 0..40 {
        for grid in [(9, 0, 2, 0xf), (9, 2, 0, 0xf)] {
            let steps: Vec<_> = steps.iter().copied().chain([grid]).collect();
            reused += replay(2, seed, &steps).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            tried += 1;
        }
    }
    assert!(reused > 0, "no slot reused in {tried} grids");
}
