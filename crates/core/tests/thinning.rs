//! The thinning step, held to its contract once instead of per generator.
//!
//! A DP that thins its classes by a relation `≼` keeps the optimum only if
//! `≼` is monotone under every plan constructor (the Thinning Theorem,
//! arXiv:2202.12208): `p ≼ q` must imply that whatever is built from `q`
//! is preceded by something built from `p`. Dominance (Def. 4,
//! [`ThinBy::Dominance`]) is held to that here on every plan `all_subplans`
//! enumerates. Two weakenings of it, written in this file from the hot-row
//! fields alone, must *break* it, and the smallest query on which each does
//! is recorded below: that is why the engine offers neither. The same file
//! keeps the books of [`Memo::fold`] under every relation ([`ThinBy`]), and
//! turns the one hand-made Bellman trap of `examples/bellman_trap.rs`
//! (Fig. 11) into a sweep: a single-best class may lose the optimum, a
//! dominance-thinned one never does.

use dpnext_core::applicable_op;
use dpnext_core::finalize::final_numbers;
use dpnext_core::optrees::{op_trees, GridPlan, GridSide};
use dpnext_core::{
    all_subplans, optimize, stage_apply, Algorithm as A, Memo, OptContext, PlanId, Scratch,
    StagedApply, ThinBy,
};
use dpnext_hypergraph::{enumerate_ccps, NodeSet};
use dpnext_query::Query;
use dpnext_workload::{generate_query, GenConfig, OpWeights};

/// The oracle-sized random query `(n, seed)`; every other seed draws from
/// the operator mix with groupjoins, so the groupjoin guard is exercised.
fn query(n: usize, seed: u64) -> Query {
    let mut cfg = GenConfig::oracle(n);
    if seed % 2 == 1 {
        cfg.ops = OpWeights::with_groupjoins();
    }
    generate_query(&cfg, seed)
}

/// At most `width` members of a class, evenly spread over its arrival
/// order (the pairs below are quadratic in this).
fn spread(class: &[PlanId], width: usize) -> Vec<PlanId> {
    let step = class.len().div_ceil(width).max(1);
    class.iter().copied().step_by(step).collect()
}

/// A relation a class could be thinned by: whether `a ≼ b`, for two plans
/// of `memo` built for `ctx`'s query.
type Precedes = fn(&OptContext, &Memo, PlanId, PlanId) -> bool;

/// The engine's dominance (Def. 4), the relation EA-Prune thins by.
fn dominance(ctx: &OptContext, memo: &Memo, a: PlanId, b: PlanId) -> bool {
    ThinBy::dominance(ctx).precedes(memo, a, b)
}

/// Def. 4 cut down to cost alone (Bellman-style pruning), under the same
/// groupjoin guard: a pre-aggregated plan never shadows a raw one when the
/// query has groupjoins.
fn cost_only(ctx: &OptContext, memo: &Memo, a: PlanId, b: PlanId) -> bool {
    let guard = ThinBy::dominance(ctx)
        == ThinBy::Dominance {
            guard_groupjoin: true,
        };
    !(guard && memo[a].has_grouping() && !memo[b].has_grouping()) && memo[a].cost <= memo[b].cost
}

/// Def. 4 cut down to cost and cardinality: it ignores duplicate-freeness
/// and the keys, that is, the functional dependencies.
fn cost_card(ctx: &OptContext, memo: &Memo, a: PlanId, b: PlanId) -> bool {
    cost_only(ctx, memo, a, b) && memo[a].card <= memo[b].card
}

/// The final cost of `t` if it is a complete plan (the full set), what
/// complete plans compete on.
fn final_cost(ctx: &OptContext, memo: &Memo, t: PlanId) -> Option<f64> {
    let complete = memo[t].set == NodeSet::full(ctx.query.table_count());
    complete.then(|| final_numbers(ctx, memo, t).0)
}

/// Is the tree `tq` built from `q` preceded by one of the trees built from
/// `p`? Complete plans are never folded into a class; they compete on
/// final cost, which is therefore what a complete tree of `p` must not
/// exceed.
fn covered(ctx: &OptContext, memo: &Memo, by: Precedes, of_p: &[PlanId], tq: PlanId) -> bool {
    if let Some(cost) = final_cost(ctx, memo, tq) {
        of_p.iter()
            .any(|&tp| final_cost(ctx, memo, tp).is_some_and(|c| c <= cost))
    } else {
        // A full-set tree that misses an operator is dropped by the engine.
        memo[tq].set == NodeSet::full(ctx.query.table_count())
            || of_p.iter().any(|&tp| by(ctx, memo, tp, tq))
    }
}

/// What the relations read of a plan, for a witness.
fn show(ctx: &OptContext, memo: &Memo, t: PlanId) -> String {
    format!(
        "(cost {}, card {}, dup-free {}, keys {:?}{})",
        memo[t].cost,
        memo[t].card,
        memo[t].duplicate_free(),
        memo.plan(t)
            .keys()
            .iter()
            .map(|k| ctx.decode_key(k).collect())
            .collect::<Vec<Vec<_>>>(),
        final_cost(ctx, memo, t).map_or(String::new(), |c| format!(", final cost {c}"))
    )
}

/// The first constructor application of `query` under which the relation
/// `by` is not monotone, described; `None` when it is monotone on every
/// case tried.
///
/// For every csg-cmp-pair, every orientation its operator applies in, and
/// both sides of it: take class members `p ≼ q` and a partner `r`, build
/// every Fig. 8 shape of both with the engine's own `op_trees`, and require
/// each tree of `q` to be [`covered`] by the trees of `p` — a shape of `p`
/// may be legitimately absent (`NeedsGrouping` elides a grouping that a key
/// makes useless), so the trees are matched as sets.
fn first_violation(query: &Query, by: Precedes) -> Option<String> {
    const WIDTH: usize = 6;
    let (ctx, mut memo, _) = all_subplans(query);
    let mut pairs = Vec::new();
    enumerate_ccps(&ctx.cq.graph, |s1, s2| pairs.push((s1, s2)));
    let mut scratch = Scratch::new(&ctx);
    let mut staged = StagedApply::default();
    let (mut of_p, mut of_q) = (Vec::new(), Vec::new());
    for (s1, s2) in pairs {
        if memo.class(s1).is_empty() || memo.class(s2).is_empty() {
            continue;
        }
        let Some((op, applies)) = applicable_op(&ctx.cq, s1, s2) else {
            continue;
        };
        let orientations = [(s1, s2), (s2, s1)].into_iter().zip(applies);
        for (sl, sr) in orientations.filter_map(|(sides, applies)| applies.then_some(sides)) {
            let lefts = spread(memo.class(sl), WIDTH);
            let rights = spread(memo.class(sr), WIDTH);
            let mark = memo.mark();
            stage_apply(&ctx, &mut memo, &mut staged, op, sl);
            for thinned_left in [true, false] {
                let (members, partners) = if thinned_left {
                    (&lefts, &rights)
                } else {
                    (&rights, &lefts)
                };
                let ordered = members
                    .iter()
                    .flat_map(|&p| members.iter().map(move |&q| (p, q)))
                    .filter(|&(p, q)| p != q);
                for ((p, q), &r) in ordered.flat_map(|pq| partners.iter().map(move |r| (pq, r))) {
                    if !by(&ctx, &memo, p, q) {
                        continue;
                    }
                    let built = memo.mark();
                    for (t, out) in [(p, &mut of_p), (q, &mut of_q)] {
                        let (t1, t2) = if thinned_left { (t, r) } else { (r, t) };
                        out.clear();
                        let keep = |_: &mut Memo, t| {
                            out.push(t);
                            true
                        };
                        let sides = [
                            GridSide::new(&ctx, &mut scratch, &staged, sl, true, true),
                            GridSide::new(&ctx, &mut scratch, &staged, sr, false, true),
                        ];
                        let plan = |side, t| GridPlan::new(&ctx, &scratch, &memo, &staged, side, t);
                        let (mut l, mut r) = (plan(&sides[0], t1), plan(&sides[1], t2));
                        let plans = [&mut l, &mut r];
                        op_trees(&ctx, &mut scratch, &mut memo, &staged, &sides, plans, keep);
                    }
                    if let Some(&tq) = of_q
                        .iter()
                        .find(|&&tq| !covered(&ctx, &memo, by, &of_p, tq))
                    {
                        let show = |t| show(&ctx, &memo, t);
                        return Some(format!(
                            "{:?} across {sl}|{sr}, thinned side {}: p {} precedes q {}, yet \
                             the tree {} of q with partner {} is preceded by none of p's {} \
                             trees [{}]",
                            ctx.cq.ops[op].op,
                            if thinned_left { "left" } else { "right" },
                            show(p),
                            show(q),
                            show(tq),
                            show(r),
                            of_p.len(),
                            of_p.iter().map(|&t| show(t)).collect::<Vec<_>>().join(", ")
                        ));
                    }
                    memo.truncate(built);
                }
            }
            memo.truncate(mark);
        }
    }
    None
}

/// The paper's criterion is monotone under every constructor. A sweep, not
/// a sample: violations are rare (the three this test has caught or been
/// shown to catch — a groupjoin output missing from `G⁺`, `Full` without
/// its key implication, cardinalities without the key-implied cap — first
/// show at n=4 seed=121, n=4 seed=95 and n=3 seed=262).
#[test]
fn full_dominance_is_monotone_under_every_constructor() {
    for (n, seed) in (2..=5usize).flat_map(|n| (0..300u64).map(move |seed| (n, seed))) {
        if let Some(violation) = first_violation(&query(n, seed), dominance) {
            panic!("n={n}, seed={seed}: {violation}");
        }
    }
}

/// The weaker criteria are not monotone, which is why they can lose the
/// optimum. The search goes smallest `n`, then smallest seed, first, and
/// the witness it finds is the recorded one; run with `--nocapture` to
/// read it.
#[test]
fn weaker_dominance_kinds_break_monotonicity() {
    for (kind, by, recorded) in [
        ("CostOnly", cost_only as Precedes, (3, 3)),
        ("CostCard", cost_card, (3, 51)),
    ] {
        let found = (2..=5usize)
            .flat_map(|n| (0..60u64).map(move |seed| (n, seed)))
            .find_map(|(n, seed)| Some(((n, seed), first_violation(&query(n, seed), by)?)));
        let (at, witness) = found.unwrap_or_else(|| panic!("{kind} held on every query tried"));
        println!(
            "{kind} is not monotone, n={}, seed={}: {witness}",
            at.0, at.1
        );
        assert_eq!(
            recorded, at,
            "{kind}: the smallest witness moved; re-record it"
        );
    }
}

/// One [`Memo::fold`] of `id` into the class of `s`, held to a reference
/// that [`ThinBy::precedes`] computes over the class as it was before the
/// call: the candidate is kept exactly when no member precedes it, a kept
/// candidate evicts exactly the members it precedes, and the survivors
/// keep their order with the candidate appended.
fn fold_checked(memo: &mut Memo, s: NodeSet, id: PlanId, by: ThinBy, what: &str) -> bool {
    let before = memo.class(s).to_vec();
    let rejected = before.iter().any(|&k| by.precedes(memo, k, id));
    let mut expected: Vec<PlanId> = before
        .iter()
        .copied()
        .filter(|&k| rejected || !by.precedes(memo, id, k))
        .collect();
    if !rejected {
        expected.push(id);
    }
    let kept = memo.fold(s, id, by);
    assert_eq!(!rejected, kept, "{what}: kept flag of {id:?}");
    assert_eq!(
        expected,
        memo.class(s),
        "{what}: class after folding {id:?}"
    );
    kept
}

/// The queries the fold is checked on: [`query`]'s small sizes, and
/// eleven of its draws at five and six relations whose groupjoins turn
/// the groupjoin guard on (the small sizes have three such queries).
fn fold_queries() -> impl Iterator<Item = (String, Query)> {
    let small = (2..=5usize).flat_map(|n| (0..6u64).map(move |seed| (n, seed)));
    let groupjoins = [11, 13, 17, 21]
        .map(|seed| (5, seed))
        .into_iter()
        .chain([3, 5, 7, 11, 17, 19, 21].map(|seed| (6, seed)));
    small
        .chain(groupjoins)
        .map(|(n, seed)| (format!("n={n}, seed={seed}"), query(n, seed)))
}

/// The books of the fold, under every relation, on real plans: each class
/// `all_subplans` enumerates is folded again, in arrival order, into a
/// class of its own, every fold that compares checked against
/// [`fold_checked`]'s reference. `kept` is membership right after the
/// call; a thinned class is an antichain; dominance folds satisfy the
/// conservation law `width = attempts − rejected − evicted` (so
/// `prune_hit_rate ≤ 1`), and the prune counters stay untouched by the other relations. Each class is
/// also folded (at most 256 of its members, spread) into a further class
/// under `Nothing` or `Cheapest` for its first half and under dominance
/// for the rest: a dominance fold must decide correctly on a class
/// another relation last edited.
#[test]
fn fold_reports_membership_and_balances_its_books() {
    let mut guarded = 0;
    for (at, query) in fold_queries() {
        let (ctx, mut memo, _) = all_subplans(&query);
        let dominance = ThinBy::dominance(&ctx);
        guarded += (dominance
            == ThinBy::Dominance {
                guard_groupjoin: true,
            }) as u32;
        let relations = [
            ThinBy::Nothing,
            ThinBy::Cheapest(None),
            ThinBy::Cheapest(Some(1.03)),
            dominance,
        ];
        let classes: Vec<(NodeSet, Vec<PlanId>)> = memo
            .classes_sorted()
            .into_iter()
            .map(|(s, ids)| (s, ids.to_vec()))
            .collect();
        for (i, by) in relations.into_iter().enumerate() {
            let what = format!("{at}, {by:?}");
            for (s, ids) in &classes {
                // A key no query of at most six tables uses.
                let shadow = NodeSet(s.0 | 1 << (8 + i));
                let before = memo.stats();
                for &id in ids {
                    // The empty relation compares nothing: its fold is a
                    // push, which the assertions below pin.
                    let kept = if by == ThinBy::Nothing {
                        memo.fold(shadow, id, by)
                    } else {
                        fold_checked(&mut memo, shadow, id, by, &what)
                    };
                    assert_eq!(kept, memo.class(shadow).contains(&id), "{what}");
                    assert_eq!(
                        kept,
                        memo.class(shadow).last() == Some(&id),
                        "{what}: a kept plan is appended"
                    );
                }
                let class = memo.class(shadow);
                for (&a, &b) in class.iter().flat_map(|a| class.iter().map(move |b| (a, b))) {
                    assert!(a == b || !by.precedes(&memo, a, b), "{what}: not thinned");
                }
                let after = memo.stats();
                let (attempts, rejected, evicted) = (
                    after.prune_attempts - before.prune_attempts,
                    after.prune_rejected - before.prune_rejected,
                    after.prune_evicted - before.prune_evicted,
                );
                match by {
                    ThinBy::Dominance { .. } => {
                        assert_eq!(ids.len() as u64, attempts, "{what}");
                        assert_eq!(class.len() as u64, attempts - rejected - evicted, "{what}");
                        // Nothing incomparable is dropped: a plan missing
                        // from the class is preceded by one it keeps.
                        for &id in ids.iter().filter(|id| !class.contains(id)) {
                            assert!(
                                class.iter().any(|&k| by.precedes(&memo, k, id)),
                                "{what}: dropped {id:?} with no plan kept over it"
                            );
                        }
                    }
                    ThinBy::Cheapest(_) => {
                        assert_eq!(
                            (1, 0, 0, 0),
                            (class.len(), attempts, rejected, evicted),
                            "{what}"
                        )
                    }
                    ThinBy::Nothing => {
                        assert_eq!(
                            (ids.len(), 0, 0, 0),
                            (class.len(), attempts, rejected, evicted),
                            "{what}"
                        )
                    }
                }
            }
        }
        for (j, first) in [ThinBy::Nothing, ThinBy::Cheapest(None)]
            .into_iter()
            .enumerate()
        {
            let what = format!("{at}, {first:?} then {dominance:?}");
            for (s, ids) in &classes {
                let shadow = NodeSet(s.0 | 1 << (12 + j));
                let ids = spread(ids, 256);
                let (head, tail) = ids.split_at(ids.len() / 2);
                for &id in head {
                    fold_checked(&mut memo, shadow, id, first, &what);
                }
                for &id in tail {
                    fold_checked(&mut memo, shadow, id, dominance, &what);
                }
            }
        }
    }
    assert_eq!(14, guarded, "queries with the groupjoin guard on");
}

/// The Bellman trap (§4.4, Fig. 11), generated: keeping the one cheapest
/// plan per class (DPhyp without eager aggregation, H1 with it) never beats
/// dominance pruning and does lose to it — the recorded query is the
/// smallest in this sweep where both do — while EA-Prune always finds
/// EA-All's optimum.
#[test]
fn single_best_may_lose_the_optimum_dominance_never_does() {
    let mut first_loss = None;
    // The last one is the query on which EA-Prune lost the optimum while
    // `G⁺` missed the outputs of a reordered groupjoin.
    let sweep = (2..=5usize).flat_map(|n| (0..40u64).map(move |seed| (n, seed)));
    for (n, seed) in sweep.chain([(6, 177)]) {
        let query = query(n, seed);
        let cost = |algo| optimize(&query, algo).plan.cost;
        let (all, pruned) = (cost(A::EaAll), cost(A::EaPrune));
        let slack = 1e-9 * all.max(1.0);
        assert!(
            (all - pruned).abs() <= slack,
            "EA-Prune lost the optimum (n={n}, seed={seed}): {pruned} vs {all}"
        );
        let (dphyp, h1) = (cost(A::DPhyp), cost(A::H1));
        assert!(
            dphyp >= pruned - slack && h1 >= pruned - slack,
            "single-best beat the optimum (n={n}, seed={seed}): {dphyp} / {h1} vs {pruned}"
        );
        if dphyp > pruned + slack && h1 > pruned + slack {
            first_loss.get_or_insert((n, seed, dphyp, h1, pruned));
        }
    }
    let (n, seed, dphyp, h1, pruned) = first_loss.expect("single-best never lost");
    println!("n={n}, seed={seed}: DPhyp {dphyp}, H1 {h1}, EA-Prune {pruned}");
    assert_eq!(
        (3, 4),
        (n, seed),
        "the smallest losing query moved (re-record it)"
    );
}
