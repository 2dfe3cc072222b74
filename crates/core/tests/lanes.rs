//! Rollback and span sharing of the memo's payload lanes: under random
//! interleavings of scans, groupings, operator applications, marks and
//! LIFO rollbacks, `Memo::truncate` restores the exact state at the mark
//! (arena length, every lane length, live bytes), and every plan that
//! survives still reads back the payload it was built with — including
//! plans that *share* an input's key set, aggregation state or visible
//! attributes instead of owning a copy.

use dpnext_algebra::AttrId;
use dpnext_conflict::applicable_ops_into;
use dpnext_core::aggstate::AggPos;
use dpnext_core::{
    make_apply, make_group, make_scan, Memo, MemoMark, OptContext, PlanId, PlanNode, Scratch, Term,
};
use dpnext_hypergraph::NodeSet;
use dpnext_query::OpKind;
use dpnext_workload::{generate_query, GenConfig, OpWeights};
use proptest::prelude::*;

/// Everything one plan exposes, resolved out of the lanes into owned data.
#[derive(Debug, Clone, PartialEq)]
struct Payload {
    set: NodeSet,
    card: f64,
    cost: f64,
    flags: (bool, bool, bool),
    /// `(own attributes or predicate terms, children)` of the root node.
    node: (Vec<AttrId>, Vec<Term>, Vec<PlanId>),
    keys: Vec<Vec<AttrId>>,
    pos: Vec<AggPos>,
    counts: Vec<(NodeSet, AttrId)>,
    visible: Vec<AttrId>,
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
        PlanNode::Group { attrs, input } => {
            (attrs.of(&plan.lanes.attrs).to_vec(), vec![], vec![input])
        }
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
        keys: plan.keys().iter().map(<[AttrId]>::to_vec).collect(),
        pos: plan.agg().pos.to_vec(),
        counts: plan.agg().counts.to_vec(),
        visible: plan.visible().to_vec(),
    }
}

/// One rollback point: the memo's mark, its live bytes then, and how many
/// plans were alive.
struct Checkpoint {
    mark: MemoMark,
    live_bytes: u64,
    plans: usize,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rollback_restores_lanes_and_survivors_keep_their_payload(
        n in 2usize..=5,
        seed in 0u64..10_000,
        steps in proptest::collection::vec((0u8..8, 0usize..1_000, 0usize..1_000), 1..160),
    ) {
        let mut cfg = GenConfig::oracle(n);
        cfg.ops = OpWeights::mixed();
        let ctx = OptContext::new(generate_query(&cfg, seed));
        let mut memo = Memo::new();
        let mut scratch = Scratch::new(&ctx);
        // Every live plan with the payload it had when it was built.
        let mut live: Vec<(PlanId, Payload)> = Vec::new();
        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let mut apps = Vec::new();
        for (kind, x, y) in steps {
            let built = match kind {
                0 => Some(make_scan(&ctx, &mut memo, x % n)),
                1 if !live.is_empty() => {
                    let t = live[x % live.len()].0;
                    let hot = memo[t];
                    (ctx.has_grouping() && !hot.is_group() && ctx.can_group(hot.set))
                        .then(|| make_group(&ctx, &mut scratch, &mut memo, t))
                }
                2..=5 if !live.is_empty() => {
                    // Any two live plans some operator can join as they are.
                    let (l, r) = (live[x % live.len()].0, live[y % live.len()].0);
                    let (sl, sr) = (memo[l].set, memo[r].set);
                    apps.clear();
                    if sl.is_disjoint(sr) {
                        applicable_ops_into(&ctx.cq, sl, sr, &mut apps);
                    }
                    apps.iter()
                        .find(|&&(_, swapped)| !swapped)
                        .and_then(|&(op, _)| make_apply(&ctx, &mut scratch, &mut memo, op, &[], l, r))
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
                    if matches!(op, OpKind::Semi | OpKind::Anti) {
                        prop_assert_eq!(input.visible, cold.visible);
                    }
                }
                live.push((id, payload(&memo, id)));
            }
            prop_assert_eq!(Ok(()), memo.check_invariants());
            for (id, built_with) in &live {
                prop_assert_eq!(built_with, &payload(&memo, *id), "plan {:?} changed", id);
            }
        }
    }
}
