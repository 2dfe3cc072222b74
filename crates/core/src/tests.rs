//! Unit tests for the optimizer internals: context (`G⁺`, `can_group`),
//! aggregation-state rewriting, plan constructors, `OpTrees` and
//! finalization.

use crate::aggstate::{AggPos, AggState};
use crate::context::{OptContext, Scratch};
use crate::finalize::finalize;
use crate::memo::{Memo, PlanId};
use crate::optrees::{op_trees, GridPlan, GridSide};
use crate::plan::{make_apply, make_group, make_scan, stage_apply, SideFacts, StagedApply};
use crate::validate::applied_ops_mask;
use dpnext_algebra::{AggCall, AggKind, AttrGen, AttrId, Expr, JoinPred, Value};
use dpnext_hypergraph::NodeSet;
use dpnext_query::{GroupSpec, OpKind, OpTree, Query, QueryTable};

fn a(i: u32) -> AttrId {
    AttrId(i)
}

/// Wrap `op_trees` (one unit of an eager search, empty slots) for tests
/// that only count the produced variants.
fn op_tree_ids(
    ctx: &OptContext,
    sc: &mut Scratch,
    memo: &mut Memo,
    op_idx: usize,
    t1: PlanId,
    t2: PlanId,
) -> Vec<PlanId> {
    let mut out = Vec::new();
    let mut staged = StagedApply::default();
    stage_apply(ctx, memo, &mut staged, op_idx, memo[t1].set);
    let sides = [
        GridSide::new(ctx, sc, &staged, memo[t1].set, true, true),
        GridSide::new(ctx, sc, &staged, memo[t2].set, false, true),
    ];
    let mut l = GridPlan::new(ctx, sc, memo, &staged, &sides[0], t1);
    let mut r = GridPlan::new(ctx, sc, memo, &staged, &sides[1], t2);
    op_trees(ctx, sc, memo, &staged, &sides, [&mut l, &mut r], |_, t| {
        out.push(t);
        true
    });
    out
}

/// `r0(a0 key, a1) ⋈ r1(a2, a3)`, group by a1, aggregates
/// `count(*), sum(a3)`.
fn two_table_ctx(op: OpKind) -> OptContext<'static> {
    let t0 = QueryTable::new("r0", vec![a(0), a(1)], 100.0)
        .with_distinct(vec![100.0, 10.0])
        .with_key(vec![a(0)]);
    let t1 = QueryTable::new("r1", vec![a(2), a(3)], 50.0).with_distinct(vec![25.0, 5.0]);
    // Join on the non-key column a1 so that G⁺ of the left side does not
    // cover r0's key (otherwise pushing a grouping there is useless and
    // OpTrees rightly skips it).
    let tree = OpTree::binary_sel(
        op,
        JoinPred::eq(a(1), a(2)),
        0.01,
        OpTree::rel(0),
        OpTree::rel(1),
    );
    let mut gen = AttrGen::new(100);
    let grouping = if op.preserves_right() {
        GroupSpec::new(
            vec![a(1)],
            vec![
                AggCall::count_star(a(50)),
                AggCall::new(a(51), AggKind::Sum, Expr::attr(a(3))),
            ],
            &mut gen,
        )
    } else {
        GroupSpec::new(vec![a(1)], vec![AggCall::count_star(a(50))], &mut gen)
    };
    let q = Query::new(vec![t0, t1], tree, Some(grouping));
    OptContext::new(q)
}

mod context {
    use super::*;
    use crate::algo::{optimize_prepared, Algorithm, OptimizeOptions};
    use crate::context::{gj_args, key_universe};
    use dpnext_hypergraph::enumerate_ccps;
    use dpnext_workload::{ex_query, generate_query, q10, q3, q5, GenConfig, OpWeights, Topology};
    use std::collections::BTreeSet;

    /// The attributes of the memoized `G⁺(S)`.
    fn gplus(ctx: &OptContext, sc: &mut Scratch, s: NodeSet) -> Vec<AttrId> {
        let span = sc.gplus_span(ctx, s);
        ctx.decode_key(sc.gplus_at(span)).collect()
    }

    /// The query's grouping attributes, sorted and deduplicated.
    fn sorted_group_by(ctx: &OptContext) -> Vec<AttrId> {
        let mut g = ctx
            .query
            .grouping
            .as_ref()
            .map_or(Vec::new(), |g| g.group_by.clone());
        g.sort_unstable();
        g.dedup();
        g
    }

    #[test]
    fn gplus_includes_group_and_crossing_join_attrs() {
        let ctx = two_table_ctx(OpKind::Join);
        // a1 is both the grouping attribute and the crossing join
        // attribute: one candidate, beside the join's a2.
        assert_eq!(2, ctx.gplus_candidates.len());
        let mut sc = Scratch::new(&ctx);
        assert_eq!(vec![a(1)], gplus(&ctx, &mut sc, NodeSet::single(0)));
        // Join attribute only.
        assert_eq!(vec![a(2)], gplus(&ctx, &mut sc, NodeSet::single(1)));
        // Full set: nothing crosses; only the grouping attribute remains.
        assert_eq!(vec![a(1)], gplus(&ctx, &mut sc, NodeSet::full(2)));
    }

    /// `r0(a0) ⋈ r1(a1) ⋈ r2(a2)` on `a0 = a1` and `a1 = a2`: a1 is read by
    /// both operators, so it stays in `G⁺` while either one crosses the set.
    #[test]
    fn gplus_keeps_an_attribute_one_of_its_readers_crosses() {
        let tables = (0..3)
            .map(|i| QueryTable::new(format!("r{i}"), vec![a(i)], 10.0))
            .collect();
        let tree = OpTree::binary(
            OpKind::Join,
            JoinPred::eq(a(1), a(2)),
            OpTree::binary(
                OpKind::Join,
                JoinPred::eq(a(0), a(1)),
                OpTree::rel(0),
                OpTree::rel(1),
            ),
            OpTree::rel(2),
        );
        let ctx = OptContext::new(Query::new(tables, tree, None));
        let set = |rels: &[usize]| NodeSet::from_iter(rels.iter().copied());
        assert_eq!(vec![a(1)], ctx.compute_gplus(set(&[0, 1])));
        assert_eq!(vec![a(1)], ctx.compute_gplus(set(&[1, 2])));
        assert_eq!(vec![a(1)], ctx.compute_gplus(set(&[1])));
        assert_eq!(vec![a(0)], ctx.compute_gplus(set(&[0])));
        assert!(ctx.compute_gplus(set(&[0, 1, 2])).is_empty());
    }

    /// `((r0 ⋈ r1) Z r2) ⋈ r3`, the groupjoin on `a1 = a2` computing
    /// `a60 = sum(a3)` and the top join reading a60: a60 exists from the
    /// groupjoin's hyperedge `{1, 2}` on, not only from its subtree
    /// `{0, 1, 2}`, and `G⁺` of that set holds it for the join above.
    #[test]
    fn gplus_sees_a_groupjoin_output_from_its_hyperedge() {
        let tables = vec![
            QueryTable::new("r0", vec![a(0)], 10.0),
            QueryTable::new("r1", vec![a(1)], 10.0),
            QueryTable::new("r2", vec![a(2), a(3)], 10.0),
            QueryTable::new("r3", vec![a(4)], 10.0),
        ];
        let gj = vec![AggCall::new(a(60), AggKind::Sum, Expr::attr(a(3)))];
        let inner = OpTree::binary(
            OpKind::Join,
            JoinPred::eq(a(0), a(1)),
            OpTree::rel(0),
            OpTree::rel(1),
        );
        let grouped = OpTree::groupjoin(JoinPred::eq(a(1), a(2)), gj, inner, OpTree::rel(2));
        let tree = OpTree::binary(
            OpKind::Join,
            JoinPred::eq(a(60), a(4)),
            grouped,
            OpTree::rel(3),
        );
        let ctx = OptContext::new(Query::new(tables, tree, None));
        let hyperedge = NodeSet::from_iter([1, 2]);
        assert_eq!(hyperedge, ctx.origin(a(60)));
        // a1 for the join below, a60 for the join above; the groupjoin
        // itself is inside the set, so neither a2 nor its argument a3.
        assert_eq!(vec![a(1), a(60)], ctx.compute_gplus(hyperedge));
        // Over {2} the groupjoin crosses: its argument a3 stays too.
        assert_eq!(vec![a(2), a(3)], ctx.compute_gplus(NodeSet::single(2)));
    }

    /// Over the full set no operator crosses: only `G` is left.
    #[test]
    fn gplus_of_the_full_set_is_the_grouping() {
        let groupjoins = GenConfig {
            ops: OpWeights::with_groupjoins(),
            ..GenConfig::oracle(6)
        };
        for seed in 0..10 {
            let ctx = OptContext::new(generate_query(&groupjoins, seed));
            let full = NodeSet::full(ctx.query.table_count());
            assert_eq!(
                sorted_group_by(&ctx),
                ctx.compute_gplus(full),
                "seed {seed}"
            );
        }
    }

    /// A grouping attribute without an origin (a query built without
    /// `Query::new`'s validation) is no candidate, as the term walk skips
    /// it: a2 lies between the tables' ids, a99 above them.
    #[test]
    fn gplus_skips_an_attribute_without_origin() {
        let tables = vec![
            QueryTable::new("r0", vec![a(0), a(1)], 10.0),
            QueryTable::new("r1", vec![a(4)], 10.0),
        ];
        let tree = OpTree::binary(
            OpKind::Join,
            JoinPred::eq(a(1), a(4)),
            OpTree::rel(0),
            OpTree::rel(1),
        );
        let grouping = GroupSpec {
            group_by: vec![a(1), a(2), a(99)],
            ..GroupSpec::default()
        };
        let ctx = OptContext::new(Query {
            tables,
            tree,
            grouping: Some(grouping),
        });
        assert_eq!(vec![a(1)], ctx.compute_gplus(NodeSet::full(2)));
    }

    #[test]
    #[should_panic(expected = "unknown attribute")]
    fn origin_of_an_unknown_attribute_panics() {
        let ctx = two_table_ctx(OpKind::Join);
        ctx.origin(a(999));
    }

    /// `G⁺(S)` as a walk over every predicate term of every operator
    /// crossing `S`: the definition the candidate list replaced, kept as
    /// the independent reference for it.
    fn gplus_by_term_walk(ctx: &OptContext, s: NodeSet) -> Vec<AttrId> {
        let mut out = Vec::new();
        let mut push = |a: AttrId| {
            if let Some(org) = ctx.origins.get(a) {
                if org.is_subset_of(s) && !out.contains(&a) {
                    out.push(a);
                }
            }
        };
        for a in sorted_group_by(ctx) {
            push(a);
        }
        for (op, gj_args) in ctx.cq.ops.iter().zip(gj_args(&ctx.cq)) {
            if op.l_tes.union(op.r_tes).is_subset_of(s) {
                continue;
            }
            for &(l, _, r) in &op.pred.terms {
                push(l);
                push(r);
            }
            for a in gj_args {
                push(a);
            }
        }
        out.sort_unstable();
        out
    }

    /// What [`gplus_matches_the_term_walk`] saw over one query's sets.
    #[derive(Default)]
    struct GplusSweep {
        sets: usize,
        /// Sets whose `G⁺` holds a groupjoin argument of an operator
        /// crossing them.
        gj_arg_sets: usize,
        /// The first set whose memoized `G⁺` differs from the reference.
        wrong: Option<String>,
    }

    impl GplusSweep {
        fn check(&mut self, ctx: &OptContext, sets: impl IntoIterator<Item = NodeSet>) {
            let mut sc = Scratch::new(ctx);
            for s in sets {
                self.sets += 1;
                let reference = gplus_by_term_walk(ctx, s);
                let args = gj_args(&ctx.cq);
                let crossing = ctx
                    .cq
                    .ops
                    .iter()
                    .zip(&args)
                    .filter(|(op, _)| !op.l_tes.union(op.r_tes).is_subset_of(s));
                let mut gj_args = crossing.flat_map(|(_, args)| args);
                if gj_args.any(|a| reference.contains(a)) {
                    self.gj_arg_sets += 1;
                }
                let got = gplus(ctx, &mut sc, s);
                if self.wrong.is_none() && got != reference {
                    self.wrong = Some(format!("G⁺({s}) = {got:?}, the term walk {reference:?}"));
                }
            }
        }
    }

    /// Every side and every union of a csg-cmp-pair of `ctx`'s query.
    fn ccp_sets(ctx: &OptContext) -> BTreeSet<NodeSet> {
        let mut sets = BTreeSet::new();
        enumerate_ccps(&ctx.cq.graph, |s1, s2| {
            sets.extend([s1, s2, s1.union(s2)]);
        });
        sets
    }

    /// The memoized `G⁺` equals the term walk on every csg-cmp-pair side
    /// and union of `paper(3..=11)` × 10 seeds, `topology(8..=12, Chain |
    /// Star | Clique | Mixed)` × 4 seeds, `oracle(2..=6)` with and without
    /// groupjoins × 20 seeds and the four TPC-H queries, and on every set
    /// the ladder leaves in the memo for `topology(40, Clique)` seed 0. The
    /// sweep must meet a groupjoin argument in `G⁺`, and a candidate list
    /// built without the groupjoin arguments must fail it.
    #[test]
    fn gplus_matches_the_term_walk() {
        let paper = (3..=11).flat_map(|n| (0..10).map(move |seed| (GenConfig::paper(n), seed)));
        let topologies = (8..=12).flat_map(|n| {
            [
                Topology::Chain,
                Topology::Star,
                Topology::Clique,
                Topology::Mixed,
            ]
            .into_iter()
            .flat_map(move |t| (0..4).map(move |seed| (GenConfig::topology(n, t), seed)))
        });
        let groupjoins = |n| GenConfig {
            ops: OpWeights::with_groupjoins(),
            ..GenConfig::oracle(n)
        };
        let oracle = (2..=6)
            .flat_map(|n| [GenConfig::oracle(n), groupjoins(n)])
            .flat_map(|cfg| (0..20).map(move |seed| (cfg.clone(), seed)));
        let generated = paper
            .chain(topologies)
            .chain(oracle)
            .map(|(cfg, seed)| (format!("{cfg:?}, seed {seed}"), generate_query(&cfg, seed)));
        let tpch = [ex_query(), q3(), q5(), q10()].map(|q| (q.name.to_string(), q.bound.query));
        let (mut sweep, mut blind_failed) = (GplusSweep::default(), 0);
        for (query, q) in generated.chain(tpch) {
            let ctx = OptContext::new(q);
            let sets = ccp_sets(&ctx);
            sweep.check(&ctx, sets.iter().copied());
            if let Some(wrong) = sweep.wrong.take() {
                panic!("{query}: {wrong}");
            }
            // The negative control: the same candidates without the
            // groupjoin arguments, numbered in the same key attributes.
            let mut blind = OptContext::new(ctx.query.clone());
            let no_args = vec![Vec::new(); blind.cq.ops.len()];
            let group_by = sorted_group_by(&blind);
            let keyed = blind.key_attrs.iter().copied();
            let (universe, candidates) =
                key_universe(&blind.cq, &blind.origins, &group_by, &no_args, keyed);
            assert_eq!(blind.key_attrs, universe);
            blind.gplus_candidates = candidates;
            let mut control = GplusSweep::default();
            control.check(&blind, sets);
            blind_failed += usize::from(control.wrong.is_some());
        }
        let options = OptimizeOptions::default();
        let ctx = OptContext::new(generate_query(
            &GenConfig::topology(40, Topology::Clique),
            0,
        ));
        let mut memo = Memo::new();
        optimize_prepared(&ctx, Algorithm::Adaptive, &options, &mut memo);
        let laddered: BTreeSet<NodeSet> = memo.arena_ids().map(|id| memo[id].set).collect();
        assert!(
            laddered.len() > 40,
            "{} sets in the ladder's memo",
            laddered.len()
        );
        sweep.check(&ctx, laddered);
        if let Some(wrong) = sweep.wrong {
            panic!("topology(40, Clique) seed 0: {wrong}");
        }
        assert!(sweep.sets > 10_000, "only {} sets", sweep.sets);
        assert!(
            sweep.gj_arg_sets > 0,
            "no set's G⁺ holds a groupjoin argument"
        );
        assert!(
            blind_failed > 0,
            "the sweep passes without groupjoin arguments"
        );
    }

    #[test]
    fn gplus_is_cached() {
        let ctx = two_table_ctx(OpKind::Join);
        let mut sc = Scratch::new(&ctx);
        let p1 = sc.gplus_span(&ctx, NodeSet::single(0));
        let p2 = sc.gplus_span(&ctx, NodeSet::single(0));
        // A hit names the memoized mask, not a recomputation appended anew.
        assert_eq!(p1, p2);
    }

    #[test]
    fn gplus_hit_borrows_the_memoized_value() {
        // Every set's `G⁺` sits in the cache's one word vector: a
        // hit must agree with the uncached computation, and memoizing a
        // second set must leave the first one's value intact.
        let ctx = two_table_ctx(OpKind::Join);
        let mut sc = Scratch::new(&ctx);
        for s in [NodeSet::single(0), NodeSet::single(1), NodeSet::full(2)] {
            assert_eq!(ctx.compute_gplus(s), gplus(&ctx, &mut sc, s));
        }
        for s in [NodeSet::single(0), NodeSet::single(1), NodeSet::full(2)] {
            assert_eq!(ctx.compute_gplus(s), gplus(&ctx, &mut sc, s));
        }
    }

    #[test]
    fn can_group_blocks_non_decomposable() {
        let t0 = QueryTable::new("r0", vec![a(0)], 10.0);
        let t1 = QueryTable::new("r1", vec![a(1)], 10.0);
        let tree = OpTree::binary(
            OpKind::Join,
            JoinPred::eq(a(0), a(1)),
            OpTree::rel(0),
            OpTree::rel(1),
        );
        let mut gen = AttrGen::new(100);
        let spec = GroupSpec::new(
            vec![a(0)],
            vec![AggCall::new(a(50), AggKind::SumDistinct, Expr::attr(a(1)))],
            &mut gen,
        );
        let ctx = OptContext::new(Query::new(vec![t0, t1], tree, Some(spec)));
        // sum(distinct a1) is not decomposable: side {1} cannot be grouped.
        assert!(!ctx.can_group(NodeSet::single(1)));
        // Side {0} holds no aggregate arguments: free to group.
        assert!(ctx.can_group(NodeSet::single(0)));
    }

    #[test]
    fn count_star_never_blocks_grouping() {
        let ctx = two_table_ctx(OpKind::Join);
        assert!(ctx.can_group(NodeSet::single(0)));
        assert!(ctx.can_group(NodeSet::single(1)));
        assert!(ctx.can_group(NodeSet::full(2)));
    }

    #[test]
    fn fresh_attrs_above_query_attrs() {
        let ctx = two_table_ctx(OpKind::Join);
        let mut sc = Scratch::new(&ctx);
        let f = sc.fresh_attr();
        assert!(f.0 > 51);
        assert_eq!(f.0 + 1, sc.fresh_attr().0);
    }
}

mod aggstate {
    use super::*;

    #[test]
    fn merge_prefers_partials() {
        let ctx = two_table_ctx(OpKind::Join);
        let mut memo = Memo::new();
        let mut sc = Scratch::new(&ctx);
        let l = make_scan(&ctx, &mut memo, 0);
        let r = make_scan(&ctx, &mut memo, 1);
        let gl = make_group(&ctx, &mut sc, &mut memo, l);
        let gr = make_group(&ctx, &mut sc, &mut memo, r);
        // Both sides grouped: sum(a3) stays where the right side put it,
        // count(*) stays raw, and both count columns survive, left first.
        let j = make_apply(&ctx, &mut sc, &mut memo, 0, gl, gr).unwrap();
        let (agg, right) = (memo.plan(j).agg(), memo.plan(gr).agg());
        assert_eq!(AggPos::Raw, agg.pos[0]);
        assert_eq!(right.pos[1], agg.pos[1]);
        assert!(matches!(agg.pos[1], AggPos::Partial { .. }));
        let scopes: Vec<NodeSet> = agg.counts.iter().map(|&(s, _)| s).collect();
        assert_eq!(vec![NodeSet::single(0), NodeSet::single(1)], scopes);
        // A raw side is the identity of the merge: the join shares the
        // grouped side's state instead of writing a copy.
        let j = make_apply(&ctx, &mut sc, &mut memo, 0, l, gr).unwrap();
        let (join, grouped) = (memo.plan(j).cold, memo.plan(gr).cold);
        assert_eq!(
            (grouped.agg_pos, grouped.counts),
            (join.agg_pos, join.counts)
        );
    }

    #[test]
    fn keep_left_drops_right_state() {
        // A semijoin's result holds left tuples only: whatever the right
        // side pre-aggregated vanishes with its attributes.
        let ctx = two_table_ctx(OpKind::Semi);
        let mut memo = Memo::new();
        let mut sc = Scratch::new(&ctx);
        let l = make_scan(&ctx, &mut memo, 0);
        let r = make_scan(&ctx, &mut memo, 1);
        let gl = make_group(&ctx, &mut sc, &mut memo, l);
        let gr = make_group(&ctx, &mut sc, &mut memo, r);
        let j = make_apply(&ctx, &mut sc, &mut memo, 0, l, gr).unwrap();
        assert!(!memo.plan(j).agg().is_grouped());
        let j = make_apply(&ctx, &mut sc, &mut memo, 0, gl, gr).unwrap();
        assert_eq!(memo.plan(gl).agg(), memo.plan(j).agg());
        assert_eq!(1, memo.plan(j).agg().counts.len());
    }

    #[test]
    fn multiplier_products() {
        let mut st = AggState::fresh(0);
        assert!(st.as_ref().multiplier().is_none());
        st.counts.push((NodeSet::single(0), a(60)));
        assert_eq!(Expr::attr(a(60)), st.as_ref().multiplier().unwrap());
        st.counts.push((NodeSet::single(1), a(61)));
        let m = st.as_ref().multiplier().unwrap();
        assert_eq!(Expr::attr(a(60)).mul(Expr::attr(a(61))), m);
        // Excluding one scope removes exactly its column.
        assert_eq!(
            Expr::attr(a(61)),
            st.as_ref()
                .multiplier_excluding(NodeSet::single(0))
                .unwrap()
        );
    }

    #[test]
    fn padding_defaults_per_kind() {
        let aggs = vec![
            AggCall::new(a(50), AggKind::Sum, Expr::attr(a(3))),
            AggCall::new(a(51), AggKind::Count, Expr::attr(a(3))),
        ];
        let mut st = AggState::fresh(2);
        st.counts.push((NodeSet::single(1), a(60)));
        st.pos[0] = AggPos::Partial {
            col: a(61),
            scope: NodeSet::single(1),
        };
        st.pos[1] = AggPos::Partial {
            col: a(62),
            scope: NodeSet::single(1),
        };
        let d = st.as_ref().padding_defaults(&aggs);
        assert!(d.contains(&(a(60), Value::Int(1)))); // count column → 1
        assert!(d.contains(&(a(61), Value::Null))); // sum partial → NULL
        assert!(d.contains(&(a(62), Value::Int(0)))); // count partial → 0
    }
}

mod plans {
    use super::*;

    #[test]
    fn scan_properties() {
        let ctx = two_table_ctx(OpKind::Join);
        let mut memo = Memo::new();
        let s = make_scan(&ctx, &mut memo, 0);
        assert_eq!(100.0, memo[s].card);
        assert_eq!(0.0, memo[s].cost); // scans free under C_out
        assert!(memo[s].duplicate_free());
    }

    #[test]
    fn apply_costs_and_bitmask() {
        let ctx = two_table_ctx(OpKind::Join);
        let mut memo = Memo::new();
        let mut sc = Scratch::new(&ctx);
        let l = make_scan(&ctx, &mut memo, 0);
        let r = make_scan(&ctx, &mut memo, 1);
        let j = make_apply(&ctx, &mut sc, &mut memo, 0, l, r).unwrap();
        assert_eq!(50.0, memo[j].card); // 100 × 50 × 0.01
        assert_eq!(50.0, memo[j].cost);
        assert_eq!(0, memo.eagerness(j));
    }

    #[test]
    fn join_card_capped_by_key_bound() {
        // Regression for the EA-Prune optimality loss (paper-scale seed
        // 1020, n=6): a left side keyed on its join attribute joined with
        // a right side keyed elsewhere is duplicate-free with the right
        // side's key, so the estimate must not exceed that key's distinct
        // count — otherwise `NeedsGrouping` and the estimator disagree and
        // the §4.6 dominance pruning can discard the optimal plan.
        let t0 = QueryTable::new("r0", vec![a(0), a(1)], 100.0)
            .with_distinct(vec![100.0, 10.0])
            .with_key(vec![a(0)]);
        let t1 = QueryTable::new("r1", vec![a(2), a(3)], 50.0)
            .with_distinct(vec![25.0, 50.0])
            .with_key(vec![a(3)]);
        let tree = OpTree::binary_sel(
            OpKind::Join,
            JoinPred::eq(a(0), a(2)),
            0.1,
            OpTree::rel(0),
            OpTree::rel(1),
        );
        let ctx = OptContext::new(Query::new(vec![t0, t1], tree, None));
        let mut memo = Memo::new();
        let mut sc = Scratch::new(&ctx);
        let l = make_scan(&ctx, &mut memo, 0);
        let r = make_scan(&ctx, &mut memo, 1);
        let j = make_apply(&ctx, &mut sc, &mut memo, 0, l, r).unwrap();
        assert!(memo[j].duplicate_free());
        let mut key = Vec::new();
        crate::context::assign_key_mask(&ctx.key_attrs, &mut key, &[a(3)]);
        assert!(memo.plan(j).keys().some_key_within(&key));
        // Raw estimate 100 × 50 × 0.1 = 500; the key {a3} bounds it at
        // d(a3) = 50.
        assert_eq!(50.0, memo[j].card);
        assert_eq!(50.0, memo[j].cost);
    }

    #[test]
    fn group_reduces_cardinality_and_sets_keys() {
        let ctx = two_table_ctx(OpKind::Join);
        let mut memo = Memo::new();
        let mut sc = Scratch::new(&ctx);
        let l = make_scan(&ctx, &mut memo, 0);
        let g = make_group(&ctx, &mut sc, &mut memo, l);
        // G⁺({0}) = {a1} with 10 distinct values.
        assert_eq!(10.0, memo[g].card);
        assert!(memo[g].duplicate_free());
        assert!(memo[g].has_grouping());
        // Grouping the small side: G⁺({1}) = {a2} with 25 distinct values.
        let r = make_scan(&ctx, &mut memo, 1);
        let gr = make_group(&ctx, &mut sc, &mut memo, r);
        assert_eq!(25.0, memo[gr].card);
        assert_eq!(25.0 + 0.0, memo[gr].cost);
    }

    #[test]
    fn group_rewrites_aggregates() {
        let ctx = two_table_ctx(OpKind::Join);
        let mut memo = Memo::new();
        let mut sc = Scratch::new(&ctx);
        let r = make_scan(&ctx, &mut memo, 1);
        let g = make_group(&ctx, &mut sc, &mut memo, r);
        // sum(a3) is partialed; count(*) stays raw (derived from counts).
        let agg = memo.plan(g).agg();
        assert!(matches!(agg.pos[1], AggPos::Partial { .. }));
        assert_eq!(AggPos::Raw, agg.pos[0]);
        assert_eq!(1, agg.counts.len());
    }

    #[test]
    fn groupjoin_rejects_grouped_right() {
        let t0 = QueryTable::new("r0", vec![a(0)], 10.0);
        let t1 = QueryTable::new("r1", vec![a(1), a(2)], 10.0);
        let gj = vec![AggCall::new(a(60), AggKind::Sum, Expr::attr(a(2)))];
        let tree = OpTree::groupjoin(JoinPred::eq(a(0), a(1)), gj, OpTree::rel(0), OpTree::rel(1));
        let mut gen = AttrGen::new(100);
        let spec = GroupSpec::new(vec![a(0)], vec![AggCall::count_star(a(70))], &mut gen);
        let ctx = OptContext::new(Query::new(vec![t0, t1], tree, Some(spec)));
        let mut memo = Memo::new();
        let mut sc = Scratch::new(&ctx);
        let l = make_scan(&ctx, &mut memo, 0);
        let r = make_scan(&ctx, &mut memo, 1);
        let grouped_r = make_group(&ctx, &mut sc, &mut memo, r);
        assert!(make_apply(&ctx, &mut sc, &mut memo, 0, l, grouped_r).is_none());
        assert!(make_apply(&ctx, &mut sc, &mut memo, 0, l, r).is_some());
    }
}

mod optrees {
    use super::*;

    fn variants(op: OpKind) -> usize {
        let ctx = two_table_ctx(op);
        let mut memo = Memo::new();
        let mut sc = Scratch::new(&ctx);
        let l = make_scan(&ctx, &mut memo, 0);
        let r = make_scan(&ctx, &mut memo, 1);
        op_tree_ids(&ctx, &mut sc, &mut memo, 0, l, r).len()
    }

    #[test]
    fn join_yields_up_to_four_variants() {
        // plain, Γ(left), Γ(right), Γ(both) — Fig. 8 (a)-(d).
        assert_eq!(4, variants(OpKind::Join));
    }

    #[test]
    fn outerjoins_push_both_sides() {
        assert_eq!(4, variants(OpKind::LeftOuter));
        assert_eq!(4, variants(OpKind::FullOuter));
    }

    #[test]
    fn semi_anti_push_left_only() {
        assert_eq!(2, variants(OpKind::Semi));
        assert_eq!(2, variants(OpKind::Anti));
    }

    #[test]
    fn useless_grouping_skipped_when_gplus_covers_key() {
        // Make the left side's G⁺ contain its key: grouping is a waste and
        // must not be generated (Fig. 6 line 10).
        let t0 = QueryTable::new("r0", vec![a(0)], 100.0).with_key(vec![a(0)]);
        let t1 = QueryTable::new("r1", vec![a(2), a(3)], 50.0);
        let tree = OpTree::binary(
            OpKind::Join,
            JoinPred::eq(a(0), a(2)),
            OpTree::rel(0),
            OpTree::rel(1),
        );
        let mut gen = AttrGen::new(100);
        let spec = GroupSpec::new(vec![a(3)], vec![AggCall::count_star(a(50))], &mut gen);
        let ctx = OptContext::new(Query::new(vec![t0, t1], tree, Some(spec)));
        let mut memo = Memo::new();
        let mut sc = Scratch::new(&ctx);
        let l = make_scan(&ctx, &mut memo, 0);
        let r = make_scan(&ctx, &mut memo, 1);
        // G⁺({0}) = {a0} ⊇ key {a0} of duplicate-free r0 → only the right
        // side may be grouped: plain + Γ(right) = 2 variants.
        assert_eq!(2, op_tree_ids(&ctx, &mut sc, &mut memo, 0, l, r).len());
    }
}

mod finalization {
    use super::*;

    #[test]
    fn top_grouping_added_when_needed() {
        let ctx = two_table_ctx(OpKind::Join);
        let mut memo = Memo::new();
        let mut sc = Scratch::new(&ctx);
        let l = make_scan(&ctx, &mut memo, 0);
        let r = make_scan(&ctx, &mut memo, 1);
        let j = make_apply(&ctx, &mut sc, &mut memo, 0, l, r).unwrap();
        let f = finalize(&ctx, &memo, j);
        assert!(f.top_grouping);
        // Cost = join output + grouping output (10 groups on a1).
        assert_eq!(50.0 + 10.0, f.cost);
    }

    #[test]
    fn top_grouping_eliminated_when_g_covers_key() {
        // Group by the key a0 of duplicate-free r0 joined FK-style.
        let t0 = QueryTable::new("r0", vec![a(0), a(1)], 100.0).with_key(vec![a(0)]);
        let t1 = QueryTable::new("r1", vec![a(2)], 50.0).with_key(vec![a(2)]);
        let tree = OpTree::binary_sel(
            OpKind::Join,
            JoinPred::eq(a(1), a(2)),
            1.0 / 50.0,
            OpTree::rel(0),
            OpTree::rel(1),
        );
        let mut gen = AttrGen::new(100);
        let spec = GroupSpec::new(vec![a(0)], vec![AggCall::count_star(a(50))], &mut gen);
        let ctx = OptContext::new(Query::new(vec![t0, t1], tree, Some(spec)));
        let mut memo = Memo::new();
        let mut sc = Scratch::new(&ctx);
        let l = make_scan(&ctx, &mut memo, 0);
        let r = make_scan(&ctx, &mut memo, 1);
        // a2 is a key of r1: each r0 tuple joins at most once → keys of r0
        // survive; G = {a0} ⊇ key → grouping eliminated.
        let j = make_apply(&ctx, &mut sc, &mut memo, 0, l, r).unwrap();
        let f = finalize(&ctx, &memo, j);
        assert!(!f.top_grouping);
        assert_eq!(memo[j].cost, f.cost); // map + projection are free
    }

    #[test]
    fn no_grouping_query_finalizes_trivially() {
        let t0 = QueryTable::new("r0", vec![a(0)], 10.0);
        let t1 = QueryTable::new("r1", vec![a(1)], 10.0);
        let tree = OpTree::binary(
            OpKind::Join,
            JoinPred::eq(a(0), a(1)),
            OpTree::rel(0),
            OpTree::rel(1),
        );
        let ctx = OptContext::new(Query::new(vec![t0, t1], tree, None));
        let mut memo = Memo::new();
        let mut sc = Scratch::new(&ctx);
        let l = make_scan(&ctx, &mut memo, 0);
        let r = make_scan(&ctx, &mut memo, 1);
        let j = make_apply(&ctx, &mut sc, &mut memo, 0, l, r).unwrap();
        let f = finalize(&ctx, &memo, j);
        assert!(!f.top_grouping);
        assert_eq!(memo[j].cost, f.cost);
    }
}

mod engine {
    use super::*;
    use crate::algo::{optimize, optimize_prepared, Algorithm, OptimizeOptions, Search};
    use crate::budget::{Budget, Exhausted};
    use crate::card::join_card;
    use crate::detect::applicable_op;
    use crate::finalize::final_numbers;
    use crate::ladder::greedy::{estimate_pair, greedy_join, greedy_join_with, replay_canonical};
    use crate::memo::{AdaptiveMode, PlanNode, ThinBy};
    use crate::optrees::Grid;
    use dpnext_hypergraph::{enumerate_ccps, Hyperedge};
    use dpnext_workload::{ex_query, generate_query, q10, q3, q5, GenConfig, OpWeights, Topology};
    use std::time::Duration;

    /// What a sweep of full-set units met, and the buffers it walks them
    /// with.
    #[derive(Default)]
    struct Sweep {
        units: u64,
        gj_refusals: u64,
        reused: [bool; 2],
        offers: u64,
        /// Mirror units settled and built.
        mirror_units: u64,
        /// A mirror unit met a pushed-onto plan whose slot the first
        /// orientation's units had filled.
        mirror_over_filled: bool,
        staged: StagedApply,
        grid: Grid,
        mirror: Grid,
    }

    impl Sweep {
        /// Settle, then build, every full-set unit over the classes of
        /// `memo`, grid by grid as `Search::feed` walks them.
        fn full_set(&mut self, ctx: &OptContext, memo: &mut Memo, what: &str) {
            let full = NodeSet::full(ctx.query.table_count());
            let mut pairs = Vec::new();
            enumerate_ccps(&ctx.cq.graph, |s1, s2| {
                if s1.union(s2) == full {
                    pairs.push((s1, s2));
                }
            });
            let Sweep {
                staged,
                grid,
                mirror,
                ..
            } = self;
            let mut scratch = Scratch::new(ctx);
            for (s1, s2) in pairs {
                let orients = orientations(ctx, memo, s1, s2);
                for (k, &(sl, sr, op)) in orients.iter().enumerate() {
                    // What the kept trees leave goes with the grid: no class
                    // names them, and the next grid starts with empty slots.
                    let mark = memo.mark();
                    if k == 1 && is_mirror(ctx, &orients) {
                        // The mirror, settled from the first orientation's
                        // grid as its units left it, then built on its own
                        // staging under an offer that refuses every tree.
                        stage_apply(ctx, memo, staged, op, sl);
                        mirror.stage(ctx, &mut scratch, memo, staged, (sl, sr), true);
                        let (width, height) = (mirror.lefts.len(), mirror.rights.len());
                        for (i, j) in (0..width).flat_map(|i| (0..height).map(move |j| (i, j))) {
                            let (l, r) = (grid.rights[i], grid.lefts[j]);
                            assert_eq!((l.id, r.id), (mirror.lefts[i].id, mirror.rights[j].id));
                            self.mirror_units += 1;
                            self.mirror_over_filled |=
                                [l, r].iter().any(|p| p.push && p.group.is_some());
                            let mut settled = scratch.clone();
                            grid.settle_mirror(&mut settled, (i, j));
                            mirror.build(ctx, &mut scratch, memo, staged, (i, j), |_, _| false);
                            assert_eq!(
                                (scratch.plans_built, scratch.fresh_attr()),
                                (settled.plans_built, settled.fresh_attr()),
                                "{what}: mirror unit {sl} ◦ {sr} ({i}, {j})"
                            );
                        }
                        memo.truncate(mark);
                    }
                    stage_apply(ctx, memo, staged, op, sl);
                    grid.stage(ctx, &mut scratch, memo, staged, (sl, sr), true);
                    let (width, height) = (grid.lefts.len(), grid.rights.len());
                    for (i, j) in (0..width).flat_map(|i| (0..height).map(move |j| (i, j))) {
                        let (l, r) = (grid.lefts[i], grid.rights[j]);
                        self.units += 1;
                        self.gj_refusals +=
                            u64::from(staged.kind == OpKind::GroupJoin && r.grouped);
                        self.reused[0] |= l.push && l.group.is_some();
                        self.reused[1] |= r.push && r.group.is_some();
                        let mut settled = scratch.clone();
                        grid.settle(&mut settled, staged.kind, (i, j));
                        let offers = &mut self.offers;
                        grid.build(ctx, &mut scratch, memo, staged, (i, j), |_, _| {
                            *offers += 1;
                            offers.is_multiple_of(7)
                        });
                        assert_eq!(
                            (scratch.plans_built, scratch.fresh_attr()),
                            (settled.plans_built, settled.fresh_attr()),
                            "{what}: unit {sl} ◦ {sr} ({i}, {j})"
                        );
                    }
                    memo.truncate(mark);
                }
            }
        }
    }

    /// The orientations `(left, right, operator)` `Search::feed` walks for
    /// the pair `(s1, s2)` over the classes of `memo`, in its order.
    fn orientations(
        ctx: &OptContext,
        memo: &Memo,
        s1: NodeSet,
        s2: NodeSet,
    ) -> Vec<(NodeSet, NodeSet, usize)> {
        if memo.class(s1).is_empty() || memo.class(s2).is_empty() {
            return Vec::new();
        }
        let Some((op, applies)) = applicable_op(&ctx.cq, s1, s2) else {
            return Vec::new();
        };
        let both = [(s1, s2, op), (s2, s1, op)].into_iter().zip(applies);
        both.filter_map(|(orient, applies)| applies.then_some(orient))
            .collect()
    }

    /// Is the second of `orients` the mirror `Search::feed` settles: the
    /// first one swapped (as a second orientation always is), of an inner
    /// join?
    fn is_mirror(ctx: &OptContext, orients: &[(NodeSet, NodeSet, usize)]) -> bool {
        let [(_, _, op), _] = orients[..] else {
            return false;
        };
        ctx.cq.ops[op].op == OpKind::Join
    }

    /// The complete-plan bound settles a full-set unit from its grid's
    /// facts, by counting what building it would build, so the two must
    /// agree on every unit the bound can meet. Each full-set orientation
    /// is driven through the grid `Search::feed` stages — the same side
    /// bits, the same slots — and every unit is settled on a copy of the
    /// `Scratch`, then built under an offer that keeps a deterministic
    /// seventh of the trees, so that groupings survive their unit and later
    /// units of the row or column reuse them (keeping more only grows the
    /// arena the grid rolls back). Settling and building must
    /// leave the same `plans_built` and the same next fresh attribute.
    /// The mirror orientation of an inner join is checked the same way
    /// against the settle `Search::feed` gives it: each of its units is
    /// settled from the first orientation's grid, whose slots that
    /// orientation's units filled, and built on its own staging under an
    /// offer that refuses every tree, as every thinning the rule applies
    /// under would.
    /// Swept over every full-set `(orientation, t1, t2)` unit of an EA-All
    /// run (wide classes) and of an H2 run (one plan per class), 40 seeds
    /// each of `oracle(2..=max_n)`, `paper(3..=max_n)` and `oracle` with
    /// groupjoins; the sweep must meet a slot reused on each side, a
    /// groupjoin refusal and a mirror unit over a filled slot, or it proves
    /// less than it says.
    fn settle_counts_what_op_trees_builds(max_n: usize) {
        let groupjoins = |n| GenConfig {
            ops: OpWeights::with_groupjoins(),
            ..GenConfig::oracle(n)
        };
        let configs = (2..=max_n)
            .map(GenConfig::oracle)
            .chain((3..=max_n).map(GenConfig::paper))
            .chain((2..=max_n).map(groupjoins));
        let options = OptimizeOptions::default();
        let mut sweep = Sweep::default();
        for (cfg, seed) in configs.flat_map(|cfg| (0..40).map(move |seed| (cfg.clone(), seed))) {
            let ctx = OptContext::new(generate_query(&cfg, seed));
            for algo in [Algorithm::EaAll, Algorithm::H2(1.03)] {
                // The classes below the full set are final once the run
                // ends: they are the ones its full-set units read.
                let mut memo = Memo::new();
                optimize_prepared(&ctx, algo, &options, &mut memo);
                sweep.full_set(
                    &ctx,
                    &mut memo,
                    &format!("{} on {cfg:?}, seed {seed}", algo.name()),
                );
            }
        }
        let units = sweep.units;
        assert!(
            sweep.gj_refusals > 0,
            "no groupjoin refusal in {units} units"
        );
        assert_eq!([true, true], sweep.reused, "a slot reused on each side");
        assert!(
            sweep.mirror_over_filled,
            "no mirror unit in {} met a filled slot of its first orientation",
            sweep.mirror_units
        );
    }

    /// [`settle_counts_what_op_trees_builds`] up to five relations: the
    /// 150k units a debug build checks in seconds.
    #[test]
    fn settling_a_unit_counts_what_building_it_builds() {
        settle_counts_what_op_trees_builds(5);
    }

    /// The same sweep up to seven relations, 14M units (~7 s in release on
    /// a 2-vCPU box, minutes in debug): the CI `slow-oracle` job runs it.
    #[test]
    #[ignore]
    fn settling_a_unit_counts_what_building_it_builds_at_paper_scale() {
        settle_counts_what_op_trees_builds(7);
    }

    /// A tree as the thinning relations and `keep_best` read it: cost and
    /// cardinality bits, duplicate-freeness, grouping, the key signature,
    /// the key set as a set and — for a complete plan — the final cost's
    /// bits.
    type Reading = (u64, u64, bool, bool, u32, Vec<Vec<AttrId>>, Option<u64>);

    fn reading(ctx: &OptContext, memo: &Memo, id: PlanId) -> Reading {
        let (hot, full) = (memo[id], NodeSet::full(ctx.query.table_count()));
        let keys = memo.plan(id).keys().iter();
        let mut keys: Vec<Vec<AttrId>> = keys.map(|k| ctx.decode_key(k).collect()).collect();
        keys.sort_unstable();
        let complete = hot.set == full;
        (
            hot.cost.to_bits(),
            hot.card.to_bits(),
            hot.duplicate_free(),
            hot.has_grouping(),
            hot.key_sig(),
            keys,
            complete.then(|| final_numbers(ctx, memo, id).0.to_bits()),
        )
    }

    /// How many csg-cmp-pairs `ctx`'s DPhyp stream has, or the first of
    /// them that breaks the premise of `applicable_op` (ARCHITECTURE.md §
    /// "One operator per cut"), described: exactly one edge of the query
    /// graph connects its sides, and exactly `|S| − 1` lie wholly inside
    /// their union `S`. The graph-only stream holds the pairs of joinable
    /// sets, the sets the memo can hold a plan for.
    fn one_edge_per_cut(ctx: &OptContext) -> Result<u64, String> {
        let graph = &ctx.cq.graph;
        let (mut pairs, mut broken) = (0, None);
        enumerate_ccps(graph, |s1, s2| {
            pairs += 1;
            let s = s1.union(s2);
            let crossing = graph.connecting_edges(s1, s2).count();
            let edges = graph.edges().iter();
            let inside = edges
                .filter(|e| e.left.union(e.right).is_subset_of(s))
                .count();
            if broken.is_none() && (crossing != 1 || inside != s.len() - 1) {
                broken = Some(format!("{s1} ◦ {s2}: {crossing} crossing, {inside} inside"));
            }
        });
        broken.map_or(Ok(pairs), Err)
    }

    /// Every csg-cmp-pair that DPhyp emits on the generated and the TPC-H
    /// queries is crossed by exactly one edge, as the counting argument
    /// says for a hypergraph with one edge per operator of a tree; and the
    /// check fails on a chain closed into a cycle by one more edge, which
    /// no operator tree produces.
    #[test]
    fn every_cut_is_crossed_by_one_edge() {
        let paper = (3..=11).flat_map(|n| (0..20).map(move |seed| (GenConfig::paper(n), seed)));
        let topologies = (6..=12).flat_map(|n| {
            [
                Topology::Chain,
                Topology::Star,
                Topology::Clique,
                Topology::Mixed,
            ]
            .into_iter()
            .flat_map(move |t| (0..6).map(move |seed| (GenConfig::topology(n, t), seed)))
        });
        let oracle = (2..=6).flat_map(|n| (0..20).map(move |seed| (GenConfig::oracle(n), seed)));
        let generated = paper
            .chain(topologies)
            .chain(oracle)
            .map(|(cfg, seed)| (format!("{cfg:?}, seed {seed}"), generate_query(&cfg, seed)));
        let tpch = [ex_query(), q3(), q5(), q10()].map(|q| (q.name.to_string(), q.bound.query));
        let mut pairs = 0;
        for (query, q) in generated.chain(tpch) {
            let ctx = OptContext::new(q);
            pairs += one_edge_per_cut(&ctx).unwrap_or_else(|e| panic!("{query}: {e}"));
        }
        assert!(pairs > 80_000, "only {pairs} pairs");
        let mut cycle =
            OptContext::new(generate_query(&GenConfig::topology(6, Topology::Chain), 0));
        let closing = Hyperedge::new(NodeSet::single(0), NodeSet::single(5), cycle.cq.ops.len());
        cycle.cq.graph.add_edge(closing);
        assert!(one_edge_per_cut(&cycle).is_err());
    }

    /// The premise of the mirror rule: the two orientations of an inner
    /// join build the same trees, as far as anything that thins or ranks
    /// them can tell. For every pair EA-Prune, DPhyp and H1 walk whose
    /// second orientation is its first one swapped — an inner join or a
    /// full outer join — both orientations are built over the classes the
    /// run left, each tree collected and refused, and the multisets of
    /// their [`Reading`]s are compared: over `paper(3..=8)` × 40 seeds and
    /// `topology(6..=10, Chain | Star | Clique | Mixed)` × 6 seeds. The
    /// inner joins' must be equal, and no tree may have a NaN cost or
    /// cardinality. The full outer joins' differ somewhere: `inner +
    /// unmatched_l + unmatched_r` sums in the other order in the mirror,
    /// which is why the rule is for inner joins alone.
    #[test]
    fn mirror_orientations_build_the_same_trees() {
        let paper = (3..=8).flat_map(|n| (0..40).map(move |seed| (GenConfig::paper(n), seed)));
        let topologies = (6..=10).flat_map(|n| {
            [
                Topology::Chain,
                Topology::Star,
                Topology::Clique,
                Topology::Mixed,
            ]
            .into_iter()
            .flat_map(move |t| (0..6).map(move |seed| (GenConfig::topology(n, t), seed)))
        });
        let options = OptimizeOptions::default();
        let (mut staged, mut grid) = (StagedApply::default(), Grid::default());
        let (mut joins, mut trees, mut outers, mut outers_differ) = (0, 0u64, 0, 0);
        for (cfg, seed) in paper.chain(topologies) {
            let query = format!("{cfg:?}, seed {seed}");
            let ctx = OptContext::new(generate_query(&cfg, seed));
            for algo in [Algorithm::EaPrune, Algorithm::DPhyp, Algorithm::H1] {
                let eager = algo != Algorithm::DPhyp;
                let mut memo = Memo::new();
                optimize_prepared(&ctx, algo, &options, &mut memo);
                let mut pairs = Vec::new();
                enumerate_ccps(&ctx.cq.graph, |s1, s2| pairs.push((s1, s2)));
                let mut scratch = Scratch::new(&ctx);
                for (s1, s2) in pairs {
                    let [first @ (sl, sr, op), second] = orientations(&ctx, &memo, s1, s2)[..]
                    else {
                        continue;
                    };
                    let kind = ctx.cq.ops[op].op;
                    if !matches!(kind, OpKind::Join | OpKind::FullOuter) {
                        continue;
                    }
                    let mark = memo.mark();
                    let [built, mirrored] = [first, second].map(|(sl, sr, op)| {
                        let mut rows = Vec::new();
                        stage_apply(&ctx, &mut memo, &mut staged, op, sl);
                        grid.stage(&ctx, &mut scratch, &memo, &staged, (sl, sr), eager);
                        let (width, height) = (grid.lefts.len(), grid.rights.len());
                        for (i, j) in (0..width).flat_map(|i| (0..height).map(move |j| (i, j))) {
                            grid.build(
                                &ctx,
                                &mut scratch,
                                &mut memo,
                                &staged,
                                (i, j),
                                |memo, t| {
                                    rows.push(reading(&ctx, memo, t));
                                    false
                                },
                            );
                        }
                        rows.sort_unstable();
                        rows
                    });
                    memo.truncate(mark);
                    let what = format!("{} on {query}: {sl} ◦ {sr}", algo.name());
                    if kind == OpKind::FullOuter {
                        outers += 1;
                        outers_differ += u32::from(built != mirrored);
                        continue;
                    }
                    assert!(!built.is_empty(), "{what}: no tree built");
                    for r in &built {
                        let (cost, card) = (f64::from_bits(r.0), f64::from_bits(r.1));
                        assert!(!cost.is_nan() && !card.is_nan(), "{what}: a NaN row");
                    }
                    assert_eq!(built, mirrored, "{what}");
                    joins += 1;
                    trees += built.len() as u64;
                }
            }
        }
        assert!(trees > 100_000, "{joins} inner-join pairs, {trees} trees");
        assert!(
            outers_differ > 0,
            "none of {outers} full outer joins builds a different mirror"
        );
    }

    /// A NaN-cost row precedes nothing under dominance, so a class keeps it
    /// and its mirror twin alike; the rule must not settle the mirror of an
    /// orientation that left one. `r0` is infinitely large and joins `r1`
    /// under selectivity 0, so `r0 ⋈ r1` has the cardinality `∞ · 0`: both
    /// orientations' trees join their class. Under the plain cost order the
    /// first NaN row refuses every later candidate, mirror or not.
    #[test]
    fn a_nan_row_keeps_its_mirror() {
        let table = |name, attrs: [u32; 2], card| {
            QueryTable::new(name, attrs.map(a).to_vec(), card).with_distinct(vec![5.0, 4.0])
        };
        let tree = OpTree::binary_sel(
            OpKind::Join,
            JoinPred::eq(a(3), a(4)),
            0.5,
            OpTree::binary_sel(
                OpKind::Join,
                JoinPred::eq(a(0), a(2)),
                0.0,
                OpTree::rel(0),
                OpTree::rel(1),
            ),
            OpTree::rel(2),
        );
        let tables = vec![
            table("r0", [0, 1], f64::INFINITY),
            table("r1", [2, 3], 20.0),
            table("r2", [4, 5], 20.0),
        ];
        let ctx = OptContext::new(Query::new(tables, tree, None));
        let pair = (NodeSet::single(0), NodeSet::single(1));
        for (thin_by, kept) in [(ThinBy::dominance(&ctx), 2), (ThinBy::Cheapest(None), 1)] {
            let mut memo = Memo::new();
            let mut search = Search::new(&ctx, &mut memo, thin_by, false);
            assert!(search.process(pair.0, pair.1));
            let class = search.memo().class(pair.0.union(pair.1));
            assert!(class.iter().all(|&id| search.memo()[id].cost.is_nan()));
            assert_eq!(kept, class.len(), "{thin_by:?}");
        }
    }

    /// A refused work unit ends the pair and builds nothing: under a plan
    /// limit of zero the first unit of the pair is refused, the cause is
    /// recorded, and the arena holds nothing but the seeded scans.
    #[test]
    fn refused_unit_stops_the_grid_walk() {
        let ctx = two_table_ctx(OpKind::Join);
        let mut memo = Memo::new();
        let mut search = Search::new(&ctx, &mut memo, ThinBy::Nothing, true);
        search.rearm(Budget {
            plans: Some(0),
            ..Budget::default()
        });
        assert!(!search.process(NodeSet::single(0), NodeSet::single(1)));
        assert_eq!(Some(Exhausted::Plans), search.exhausted());
        assert_eq!(0, search.plans_built());
        assert_eq!(2, search.memo().arena_len());
    }

    /// The arena's conservation law, next to the class one `parity.rs`
    /// pins: a candidate its class refuses is popped, so after an EA-Prune
    /// run every operator row below the full set is one a dominance fold
    /// accepted — their number is `prune_attempts − prune_rejected` exactly
    /// (the scans are folded under `ThinBy::Nothing`, which counts nothing)
    /// — and a grouping is there for a kept tree or a kept complete unit,
    /// at most one per side.
    #[test]
    fn arena_holds_what_the_folds_accepted() {
        for (n, seed) in [6, 8].into_iter().flat_map(|n| (0..4).map(move |s| (n, s))) {
            let ctx = OptContext::new(generate_query(&GenConfig::paper(n), seed));
            let mut memo = Memo::new();
            let options = OptimizeOptions::default();
            let (run, _) = optimize_prepared(&ctx, Algorithm::EaPrune, &options, &mut memo);
            let (mut partial, mut applies, mut groups) = (0u64, 0u64, 0u64);
            for id in memo.arena_ids() {
                match memo.plan(id).cold.node {
                    PlanNode::Scan { .. } => {}
                    PlanNode::Group { .. } => groups += 1,
                    PlanNode::Apply { .. } => {
                        applies += 1;
                        partial += u64::from(memo[id].set != NodeSet::full(n));
                    }
                }
            }
            let stats = run.memo;
            assert_eq!(
                stats.prune_attempts - stats.prune_rejected,
                partial,
                "n={n}, seed={seed}: {stats:?}"
            );
            assert!(
                groups <= 2 * applies,
                "n={n}, seed={seed}: {groups} > 2·{applies}"
            );
        }
    }

    /// The memo is sound after every stratum, not only at the end of a run:
    /// an EA-Prune search (dominance thinning, eager) is fed the DPhyp
    /// stream grouped by the size of each pair's union — a stratum holds
    /// every pair that builds plans of one size, and reads only classes of
    /// smaller sizes — and [`Memo::check_invariants`] must hold after each
    /// stratum. Fed in this order, the search still finds the optimum: its
    /// winner costs what `optimize(EaPrune)` ships, bit for bit. Swept over
    /// `paper(3..=max_n)` × `seeds`.
    fn memo_is_sound_after_every_stratum(max_n: usize, seeds: u64) {
        for (n, seed) in (3..=max_n).flat_map(|n| (0..seeds).map(move |s| (n, s))) {
            let ctx = OptContext::new(generate_query(&GenConfig::paper(n), seed));
            let mut strata = vec![Vec::new(); n + 1];
            enumerate_ccps(&ctx.cq.graph, |s1, s2| {
                strata[s1.union(s2).len()].push((s1, s2));
            });
            let mut memo = Memo::new();
            let mut search = Search::new(&ctx, &mut memo, ThinBy::dominance(&ctx), true);
            for (size, stratum) in strata.iter().enumerate() {
                for &(s1, s2) in stratum {
                    let memo = search.memo();
                    if memo.class(s1).is_empty() || memo.class(s2).is_empty() {
                        continue; // a joinable side that no operator built
                    }
                    assert!(search.process(s1, s2), "nothing is armed");
                }
                if let Err(e) = search.memo().check_invariants() {
                    panic!("paper({n}), seed {seed}, after stratum {size}: {e}");
                }
            }
            let (fed, _) = search.finish();
            let run = optimize(&ctx.query, Algorithm::EaPrune);
            assert_eq!(
                run.plan.cost.to_bits(),
                fed.plan.cost.to_bits(),
                "paper({n}), seed {seed}: stratified {} vs optimize {}",
                fed.plan.cost,
                run.plan.cost
            );
        }
    }

    /// [`memo_is_sound_after_every_stratum`] up to six relations, 20 seeds
    /// each: well under a second in a debug build.
    #[test]
    fn memo_is_sound_after_every_stratum_small() {
        memo_is_sound_after_every_stratum(6, 20);
    }

    /// The same check up to nine relations, 40 seeds each (a fraction of a
    /// second in release, longer in debug): the CI `slow-oracle` job runs
    /// it.
    #[test]
    #[ignore]
    fn memo_is_sound_after_every_stratum_at_paper_scale() {
        memo_is_sound_after_every_stratum(9, 40);
    }

    /// [`Memo::check_invariants`] reads the dominance rows: an EA-Prune
    /// run leaves a sound memo, and each way of corrupting one row of its
    /// widest class — a field no longer what the arena holds, two rows out
    /// of cost order, a row naming another member — is reported.
    #[test]
    fn invariants_catch_a_corrupted_class_row() {
        let ctx = OptContext::new(generate_query(&GenConfig::paper(6), 1));
        let mut memo = Memo::new();
        let options = OptimizeOptions::default();
        optimize_prepared(&ctx, Algorithm::EaPrune, &options, &mut memo);
        assert_eq!(Ok(()), memo.check_invariants());
        let (s, _) = memo
            .classes_sorted()
            .into_iter()
            .max_by_key(|(_, ids)| ids.len())
            .unwrap();
        let pristine: Vec<_> = memo.class_rows_mut(s).to_vec();
        let costs: Vec<f64> = pristine.iter().map(|r| r.cost).collect();
        assert!(
            costs.windows(2).any(|w| w[0] < w[1]),
            "the widest class has two costs: {costs:?}"
        );
        let last = pristine.len() - 1;
        for error in ["is not what plan", "out of cost order", "rows name plans"] {
            let rows = memo.class_rows_mut(s);
            match error {
                "is not what plan" => rows[0].card *= 2.0,
                "out of cost order" => rows.swap(0, last),
                _ => rows[0].id = rows[last].id,
            }
            let got = memo.check_invariants();
            assert!(
                got.as_ref().is_err_and(|e| e.contains(error)),
                "{error}: {got:?}"
            );
            memo.class_rows_mut(s).copy_from_slice(&pristine);
            assert_eq!(Ok(()), memo.check_invariants());
        }
    }

    /// The greedy pass picks its merges by `estimate_pair`, which must
    /// estimate a cut with the numbers the engine stages for it. A full
    /// outer join is commutative, so the first orientation may put the
    /// predicate's written left side on the right, and the distinct counts
    /// must follow the orientation. Every pair of disjoint classes the
    /// pass leaves — its components at every step among them — is
    /// estimated and compared with `join_card` over the staged cut.
    #[test]
    fn greedy_estimates_a_cut_with_the_staged_numbers() {
        let mut staged = StagedApply::default();
        let mut flipped_outer = 0;
        for n in 3..=8 {
            for seed in 0..20 {
                let ctx = OptContext::new(generate_query(&GenConfig::paper(n), seed));
                let mut memo = Memo::new();
                let mut search = Search::new(&ctx, &mut memo, ThinBy::dominance(&ctx), true);
                greedy_join(&mut search, &ctx);
                let full = NodeSet::full(n);
                let classes = search.memo().classes_sorted().into_iter();
                let sets: Vec<NodeSet> = classes.map(|(s, _)| s).filter(|&s| s != full).collect();
                let mut estimates = Vec::new();
                for (i, &a) in sets.iter().enumerate() {
                    for &b in sets[i + 1..].iter().filter(|&&b| b.is_disjoint(a)) {
                        if let Some(est) = estimate_pair(&ctx, &search, a, b) {
                            estimates.push((a, b, est));
                        }
                    }
                }
                for (a, b, est) in estimates {
                    let (sl, sr, op) = orientations(&ctx, &memo, a, b)[0];
                    stage_apply(&ctx, &mut memo, &mut staged, op, sl);
                    let min_card = |s| {
                        let cards = memo.class(s).iter().map(|&id| memo[id].card);
                        cards.min_by(f64::total_cmp).unwrap()
                    };
                    let (lcard, rcard) = (min_card(sl), min_card(sr));
                    let (sel, d) = (staged.sel, (staged.d_left, staged.d_right));
                    let want = join_card(staged.kind, lcard, rcard, sel, d.0, d.1);
                    assert_eq!(
                        want.to_bits(),
                        est.to_bits(),
                        "paper({n}) seed {seed}: {sl} ◦ {sr}"
                    );
                    let written_left = ctx.cq.ops[op].pred.terms.first().map(|t| t.0);
                    flipped_outer += u32::from(
                        staged.kind == OpKind::FullOuter
                            && written_left.is_some_and(|l| !ctx.origin(l).is_subset_of(sl)),
                    );
                }
            }
        }
        assert!(
            flipped_outer > 0,
            "the sweep met no full outer join staged against its written orientation"
        );
    }

    /// The greedy pass as it was before it kept its estimates: every pair of
    /// components estimated again after every merge, each component's
    /// traversal order a vector of its own. [`greedy_join`] must pick the
    /// same merges.
    fn reference_greedy(search: &mut Search<'_>, ctx: &OptContext) -> (Vec<usize>, u64) {
        struct Component {
            set: NodeSet,
            order: Vec<usize>,
        }
        let n = ctx.query.table_count();
        let mut comps: Vec<Component> = (0..n)
            .map(|i| Component {
                set: NodeSet::single(i),
                order: vec![i],
            })
            .collect();
        let mut estimates = 0;
        while comps.len() > 1 && search.exhausted().is_none() {
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..comps.len() {
                for j in i + 1..comps.len() {
                    estimates += 1;
                    let Some(card) = estimate_pair(ctx, search, comps[i].set, comps[j].set) else {
                        continue;
                    };
                    if best.is_none_or(|(_, _, c)| card < c) {
                        best = Some((i, j, card));
                    }
                }
            }
            let Some((i, j, _)) = best else {
                break;
            };
            let union = comps[i].set.union(comps[j].set);
            search.process(comps[i].set, comps[j].set);
            if union != NodeSet::full(n) && search.memo().class(union).is_empty() {
                break;
            }
            search.shrink_class_to_best(union);
            let Component { order: jorder, .. } = comps.swap_remove(j);
            comps[i].set = union;
            comps[i].order.extend(jorder);
        }
        if comps.len() == 1 && search.best_cost().is_some() {
            return (comps.swap_remove(0).order, estimates);
        }
        (replay_canonical(search, ctx), estimates)
    }

    /// [`greedy_join`] keeps each ordered component pair's estimate until a
    /// merge touches the pair and estimates no pair an edge does not
    /// connect, yet picks the merges of [`reference_greedy`]: the same
    /// linear order, the same best cost to the bit and the same
    /// `plans_built`, over `paper(3..=11)` × 20 seeds and the large
    /// topologies the ladder serves, `topology(20 | 30 | 40, Chain | Star |
    /// Clique | Mixed)` × 4 seeds. Every estimate it asks for is of a pair
    /// an edge connects, and no ordered pair of component sets is
    /// estimated twice (a merge gives its component a new set). With debug
    /// assertions on (the default test build, and CI's release step that
    /// turns them on), the pass checks every component link it reads on
    /// this sweep against `has_connecting_edge`.
    #[test]
    fn greedy_picks_the_merges_of_estimating_every_pair_again() {
        let paper = (3..=11).flat_map(|n| (0..20).map(move |seed| (GenConfig::paper(n), seed)));
        let topologies = [20, 30, 40].into_iter().flat_map(|n| {
            [
                Topology::Chain,
                Topology::Star,
                Topology::Clique,
                Topology::Mixed,
            ]
            .into_iter()
            .flat_map(move |t| (0..4).map(move |seed| (GenConfig::topology(n, t), seed)))
        });
        let (mut kept, mut re_estimated) = (0u64, 0u64);
        for (cfg, seed) in paper.chain(topologies) {
            let ctx = OptContext::new(generate_query(&cfg, seed));
            let what = format!("{cfg:?}, seed {seed}");
            let mut memo = Memo::new();
            let mut search = Search::new(&ctx, &mut memo, ThinBy::dominance(&ctx), true);
            let (want, estimates) = reference_greedy(&mut search, &ctx);
            let want = (
                want,
                search.best_cost().map(f64::to_bits),
                search.plans_built(),
            );
            re_estimated += estimates;
            let mut memo = Memo::new();
            let mut search = Search::new(&ctx, &mut memo, ThinBy::dominance(&ctx), true);
            let mut asked = Vec::new();
            let order = greedy_join_with(&mut search, &ctx, |search, a, b| {
                assert!(
                    ctx.cq.graph.has_connecting_edge(a, b),
                    "{what}: {a} ◦ {b} estimated, no edge connects them"
                );
                assert!(
                    !asked.contains(&(a, b)),
                    "{what}: {a} ◦ {b} estimated twice"
                );
                asked.push((a, b));
                estimate_pair(&ctx, search, a, b)
            });
            kept += asked.len() as u64;
            let got = (
                order,
                search.best_cost().map(f64::to_bits),
                search.plans_built(),
            );
            assert_eq!(want, got, "{what}");
            let mut memo = Memo::new();
            let mut search = Search::new(&ctx, &mut memo, ThinBy::dominance(&ctx), true);
            assert_eq!(want.0, greedy_join(&mut search, &ctx), "{what}");
        }
        assert!(
            kept * 10 < re_estimated,
            "{kept} estimates kept across merges, {re_estimated} taken again"
        );
    }

    /// The exact rung's gate on the benchmark's `adaptive-large` requests
    /// (`topology(20 | 30 | 40, every kind)` × 4 seeds under a 50,000-plan
    /// budget), its cap taken as the ladder takes it, after the greedy rung:
    /// it refuses the 19 requests its walk alone refuses, and 12 of them on
    /// the spanning-forest bound without walking.
    #[test]
    fn the_gate_refuses_on_the_spanning_forest_bound_before_it_walks() {
        use crate::ladder::gate_cap;
        use dpnext_hypergraph::{
            ccp_lower_bound, count_ccps_capped, try_enumerate_ccps, FxHashSet,
        };
        use std::ops::ControlFlow;
        use Topology::{Chain, Clique, Mixed, Star};
        #[rustfmt::skip]
        const GATED: [(Topology, usize, u64); 19] = [
            (Chain, 20, 3),
            (Star, 20, 0), (Star, 20, 1), (Star, 20, 3),
            (Star, 30, 0), (Star, 30, 1), (Star, 30, 2), (Star, 30, 3),
            (Star, 40, 0), (Star, 40, 1), (Star, 40, 2), (Star, 40, 3),
            (Mixed, 20, 0), (Mixed, 20, 2), (Mixed, 20, 3),
            (Mixed, 30, 0), (Mixed, 30, 1), (Mixed, 30, 3),
            (Mixed, 40, 0),
        ];
        #[rustfmt::skip]
        const ON_THE_BOUND: [(Topology, usize, u64); 12] = [
            (Chain, 20, 3),
            (Star, 20, 1), (Star, 20, 3),
            (Star, 30, 0), (Star, 30, 1),
            (Star, 40, 0), (Star, 40, 1), (Star, 40, 2), (Star, 40, 3),
            (Mixed, 20, 0), (Mixed, 20, 2),
            (Mixed, 30, 3),
        ];
        let (mut gated, mut on_the_bound) = (Vec::new(), Vec::new());
        for topology in [Chain, Star, Clique, Mixed] {
            for (n, seed) in [20, 30, 40]
                .into_iter()
                .flat_map(|n| (0..4).map(move |s| (n, s)))
            {
                let ctx = OptContext::new(generate_query(&GenConfig::topology(n, topology), seed));
                let what = format!("{topology:?}({n}) seed {seed}");
                let full = Budget {
                    plans: Some(50_000),
                    ..Budget::default()
                };
                let mut memo = Memo::new();
                let mut search = Search::new(&ctx, &mut memo, ThinBy::dominance(&ctx), true);
                search.rearm(full);
                greedy_join(&mut search, &ctx);
                let spent = search.plans_built();
                let cap = gate_cap(full.split(spent), spent).expect("a plan limit gates");
                let graph = &ctx.cq.graph;
                let mut walked = 0u64;
                let emit = |_, _| {
                    walked += 1;
                    if walked > cap {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                };
                let walk = try_enumerate_ccps(graph, &mut (FxHashSet::default(), emit));
                let walk_refuses = walk.is_break();
                let refuses = count_ccps_capped(graph, cap).is_none();
                assert_eq!(walk_refuses, refuses, "{what}: the gate's verdict moved");
                if refuses {
                    gated.push((topology, n, seed));
                }
                if ccp_lower_bound(graph) > cap {
                    on_the_bound.push((topology, n, seed));
                }
            }
        }
        assert_eq!(gated, GATED, "the requests the gate refuses");
        assert_eq!(
            on_the_bound, ON_THE_BOUND,
            "the requests refused on the bound"
        );
    }

    /// The spanning-forest bound never passes the DPhyp count of a query
    /// graph the generator makes: `paper(3..=11)` × 20 seeds.
    #[test]
    fn the_spanning_forest_bound_stays_under_every_paper_graphs_count() {
        use dpnext_hypergraph::{ccp_lower_bound, count_ccps};
        let (mut exact, mut graphs) = (0, 0);
        for n in 3..=11 {
            for seed in 0..20 {
                let ctx = OptContext::new(generate_query(&GenConfig::paper(n), seed));
                let graph = &ctx.cq.graph;
                let (bound, count) = (ccp_lower_bound(graph), count_ccps(graph));
                assert!(
                    bound <= count,
                    "paper({n}) seed {seed}: {bound} over {count} pairs"
                );
                exact += u32::from(bound == count);
                graphs += 1;
            }
        }
        assert!(
            exact > 0 && exact < graphs,
            "{exact} of {graphs} graphs exact"
        );
    }

    /// What a test compares of a row: its hot-row bits and its key set.
    fn row_bits(memo: &Memo, id: PlanId) -> (NodeSet, u64, u64, u32, [bool; 3], String) {
        let (hot, keys) = (memo[id], memo.plan(id).keys());
        let flags = [hot.has_grouping(), hot.duplicate_free(), hot.is_group()];
        let keys = keys.iter().map(|k| format!("{k:?}")).collect();
        let (card, cost) = (hot.card.to_bits(), hot.cost.to_bits());
        (hot.set, card, cost, hot.key_sig(), flags, keys)
    }

    /// Walk every grid of an EA-Prune run over `paper(3..=8)` × 20 seeds —
    /// every orientation of every csg-cmp-pair, over the classes the run
    /// left — and build each unit through [`Grid::build`], after `mutate`
    /// had its way with the staged grid. Every tree a unit offers is
    /// rebuilt by the one-shot `make_apply` from the same inputs, which
    /// derives its side facts itself; returns how many trees differ in
    /// their hot-row bits or key set. The offer keeps every fifth tree, so
    /// groupings survive in their slots and later units reuse them.
    fn side_fact_mismatches(mutate: impl Fn(&mut Grid)) -> u64 {
        let (mut staged, mut grid) = (StagedApply::default(), Grid::default());
        let (mut trees, mut mismatches) = (0u64, 0u64);
        for (n, seed) in (3..=8).flat_map(|n| (0..20).map(move |seed| (n, seed))) {
            let ctx = OptContext::new(generate_query(&GenConfig::paper(n), seed));
            let mut memo = Memo::new();
            optimize_prepared(
                &ctx,
                Algorithm::EaPrune,
                &OptimizeOptions::default(),
                &mut memo,
            );
            let mut pairs = Vec::new();
            enumerate_ccps(&ctx.cq.graph, |s1, s2| pairs.push((s1, s2)));
            let (mut scratch, mut shadow) = (Scratch::new(&ctx), Scratch::new(&ctx));
            for (s1, s2) in pairs {
                for (sl, sr, op) in orientations(&ctx, &memo, s1, s2) {
                    let mark = memo.mark();
                    stage_apply(&ctx, &mut memo, &mut staged, op, sl);
                    grid.stage(&ctx, &mut scratch, &memo, &staged, (sl, sr), true);
                    mutate(&mut grid);
                    let (width, height) = (grid.lefts.len(), grid.rights.len());
                    for (i, j) in (0..width).flat_map(|i| (0..height).map(move |j| (i, j))) {
                        grid.build(&ctx, &mut scratch, &mut memo, &staged, (i, j), |memo, t| {
                            let PlanNode::Apply { left, right, .. } = memo.plan(t).cold.node else {
                                panic!("a unit offers applications only");
                            };
                            let at = memo.mark();
                            let again = make_apply(&ctx, &mut shadow, memo, op, left, right)
                                .expect("make_apply refuses what the unit built");
                            trees += 1;
                            mismatches += u64::from(row_bits(memo, t) != row_bits(memo, again));
                            memo.truncate(at);
                            trees % 5 == 0
                        });
                    }
                    memo.truncate(mark);
                }
            }
        }
        assert!(trees > 10_000, "only {trees} trees built");
        mismatches
    }

    /// A unit built from the side facts its grid decided makes, tree for
    /// tree, the rows the one-shot `make_apply` makes from the same inputs;
    /// and the sweep notices a wrong fact — flipping one side's `covers`,
    /// or dropping its `cap`, makes some tree differ, whether the fact is a
    /// plan's or the one a grouping on that side reads.
    #[test]
    fn side_facts_build_the_rows_make_apply_builds() {
        assert_eq!(0, side_fact_mismatches(|_| {}));
        let flip = |f: &mut SideFacts| f.covers = !f.covers;
        let uncap = |f: &mut SideFacts| f.cap = f64::INFINITY;
        for (k, side) in ["left", "right"].into_iter().enumerate() {
            let plans = |grid: &mut Grid, f: &dyn Fn(&mut SideFacts)| {
                let plans = if k == 0 {
                    &mut grid.lefts
                } else {
                    &mut grid.rights
                };
                plans.iter_mut().for_each(|p| f(&mut p.facts));
            };
            for (what, f) in [
                ("covers", &flip as &dyn Fn(&mut SideFacts)),
                ("cap", &uncap),
            ] {
                let of_plans = side_fact_mismatches(|grid| plans(grid, f));
                assert!(of_plans > 0, "a wrong {side} {what} went unnoticed");
                let of_groups = side_fact_mismatches(|grid| f(&mut grid.sides[k].group));
                assert!(
                    of_groups > 0,
                    "a wrong {side} grouping {what} went unnoticed"
                );
            }
        }
    }

    /// The greedy rung reads no clock: under a deadline that has passed
    /// before the run starts, the ladder still builds exactly what
    /// `greedy_join` alone builds on a fresh search over the same context,
    /// and ships that plan as deadline-aborted. So a deadline that passes
    /// during the greedy pass is overshot by the rest of the pass, not by
    /// one work unit.
    #[test]
    fn an_expired_deadline_cuts_nothing_out_of_the_greedy_pass() {
        let opts = OptimizeOptions {
            deadline: Some(Duration::ZERO),
            ..OptimizeOptions::default()
        };
        for (n, topology) in [(40, Topology::Clique), (30, Topology::Chain)] {
            let ctx = OptContext::new(generate_query(&GenConfig::topology(n, topology), 0));
            let (run, _) = optimize_prepared(&ctx, Algorithm::Adaptive, &opts, &mut Memo::new());
            let mut memo = Memo::new();
            let mut greedy = Search::new(&ctx, &mut memo, ThinBy::dominance(&ctx), true);
            greedy_join(&mut greedy, &ctx);
            let what = format!("{topology:?}({n})");
            assert_eq!(AdaptiveMode::Greedy, run.memo.adaptive_mode, "{what}");
            assert!(run.memo.degradation.deadline_aborted, "{what}");
            assert_eq!(greedy.plans_built(), run.plans_built, "{what}");
        }
    }
}

mod applied_mask {
    use super::*;

    #[test]
    fn mask_is_width_safe_across_the_full_range() {
        assert_eq!(0, applied_ops_mask(0));
        assert_eq!(0b1, applied_ops_mask(1));
        assert_eq!(0b111, applied_ops_mask(3));
        assert_eq!(u64::MAX >> 1, applied_ops_mask(63));
        // The old `(1u64 << n_ops) - 1` overflowed here; 64 operators are
        // exactly representable and must yield the all-ones mask.
        assert_eq!(u64::MAX, applied_ops_mask(64));
    }

    #[test]
    #[should_panic(expected = "at most 64 operators")]
    fn mask_rejects_more_than_64_ops() {
        applied_ops_mask(65);
    }

    #[test]
    fn masks_are_distinct_per_width() {
        // A plan that misses one operator must never compare equal to the
        // full mask, for any width — including the boundary widths where
        // shifting used to wrap.
        for n_ops in 1..=64usize {
            let full = applied_ops_mask(n_ops);
            let missing_one = full & !(1u64 << (n_ops - 1));
            assert_ne!(full, missing_one, "width {n_ops}");
        }
    }
}

mod budget {
    use crate::budget::{Budget, Exhausted};
    use std::time::{Duration, Instant};

    /// `split` halves exactly what remains of each armed resource (the odd
    /// plan goes to the half), leaves an absent one absent, and never
    /// returns a plan limit below what is already spent.
    #[test]
    fn split_halves_what_remains_of_each_armed_resource() {
        let deadline = Instant::now() + Duration::from_secs(100);
        let full = Budget {
            plans: Some(1_000),
            deadline: Some(deadline),
        };
        // Midpoint of the remaining time, whenever the clock was read.
        let midpoint = |now: Instant| now + (deadline - now) / 2;
        let before = Instant::now();
        let half = full.split(200);
        let after = Instant::now();
        assert_eq!(Some(600), half.plans);
        let sub = half.deadline.expect("an armed deadline stays armed");
        assert!(midpoint(before) <= sub && sub <= midpoint(after));

        assert_eq!(Some(601), full.split(201).plans, "799 left: 400 go");
        assert_eq!(Budget::default(), Budget::default().split(7));
        let plans_only = Budget {
            plans: Some(10),
            ..Budget::default()
        };
        let half = plans_only.split(0);
        assert_eq!((Some(5), None), (half.plans, half.deadline));
        // Nothing left, or (a caller's bug) more spent than allowed: the
        // half never undercuts what is spent.
        for spent in [0, 9, 10, 11, 1 << 40] {
            let half = plans_only.split(spent).plans.unwrap();
            assert!(half >= spent, "spent {spent}");
        }
    }

    /// One check, one order: plans before deadline, and the boundary of
    /// each — a plan limit is reached only when exceeded, the deadline
    /// when reached.
    #[test]
    fn the_first_limit_reached_is_the_cause() {
        let past = Instant::now();
        let all = Budget {
            plans: Some(10),
            deadline: Some(past),
        };
        assert_eq!(Some(Exhausted::Plans), all.exhausted_at(11));
        assert_eq!(Some(Exhausted::Deadline), all.exhausted_at(10));
        let timeless = Budget {
            deadline: None,
            ..all
        };
        assert_eq!(None, timeless.exhausted_at(10));
        assert_eq!(None, Budget::default().exhausted_at(u64::MAX));
    }
}
