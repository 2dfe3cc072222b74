//! Integration tests for the budgeted degradation ladder: plan quality
//! against the exact optimum on small queries, structural validity of
//! every winning plan, hard budget enforcement, and the large-query
//! acceptance scenarios (30 relations, every explicit topology).

use dpnext_core::ladder::{budget_floor, DEFAULT_PLAN_BUDGET};
use dpnext_core::{
    optimize_into, optimize_prepared, optimize_with, validate_complete_plan, AdaptiveMode,
    Algorithm, Memo, OptContext, OptimizeOptions,
};
use dpnext_workload::{generate_query, GenConfig, Topology};
use std::time::Instant;

const TOPOLOGIES: [Topology; 5] = [
    Topology::Paper,
    Topology::Chain,
    Topology::Star,
    Topology::Clique,
    Topology::Mixed,
];

fn opts(plan_budget: u64) -> OptimizeOptions {
    OptimizeOptions {
        explain: false,
        plan_budget,
        ..OptimizeOptions::default()
    }
}

/// On n ≤ 10 queries of every topology the adaptive result is a valid plan
/// whose cost never beats the exact EA-Prune optimum; when the exact rung
/// completes within the budget the costs agree to the bit — the interior
/// bound the exact rung walks under skips nothing a cheaper plan needs.
/// The measured quality ratio is recorded on the test output.
#[test]
fn adaptive_never_beats_the_exact_optimum() {
    let o = opts(0);
    let (mut ratios, mut worst) = (Vec::new(), 1.0f64);
    for topo in TOPOLOGIES {
        for n in [3usize, 5, 8, 10] {
            for seed in 0..4u64 {
                let q = generate_query(&GenConfig::topology(n, topo), seed);
                let exact = optimize_with(&q, Algorithm::EaPrune, &o);
                let (ctx, mut memo) = (OptContext::new(q.clone()), Memo::new());
                let (optimized, winner) =
                    optimize_prepared(&ctx, Algorithm::Adaptive, &o, &mut memo);
                validate_complete_plan(&ctx, &memo, winner).unwrap_or_else(|e| {
                    panic!("invalid adaptive plan ({topo:?} n={n} seed={seed}): {e}")
                });
                let (a, e) = (optimized.plan.cost, exact.plan.cost);
                assert!(
                    a >= e * (1.0 - 1e-9),
                    "adaptive cost {a} beats the exact optimum {e} ({topo:?} n={n} seed={seed})"
                );
                let stats = optimized.memo;
                assert!(stats.plan_budget > 0);
                assert!(optimized.plans_built <= stats.plan_budget);
                if stats.adaptive_mode == AdaptiveMode::Exact {
                    assert_eq!(
                        a.to_bits(),
                        e.to_bits(),
                        "exact rung completed but costs differ: {a} vs {e} ({topo:?} n={n} seed={seed})"
                    );
                }
                let ratio = if e > 0.0 { a / e } else { 1.0 };
                worst = worst.max(ratio);
                ratios.push(ratio.max(1e-30).ln());
            }
        }
    }
    let geo = (ratios.iter().sum::<f64>() / ratios.len() as f64).exp();
    println!(
        "adaptive-vs-exact cost ratio over {} queries: geometric mean {geo:.4}, worst {worst:.4}",
        ratios.len()
    );
}

/// `plans_built <= plan_budget` holds for every requested budget,
/// including ones far below what exact DP would need — the ladder then
/// reports a shallower rung and flags exhaustion.
#[test]
fn budget_is_a_hard_cap() {
    let q = generate_query(&GenConfig::topology(12, Topology::Star), 1);
    let floor = budget_floor(12);
    for requested in [1u64, floor, 2_000, 10_000] {
        let (ctx, mut memo) = (OptContext::new(q.clone()), Memo::new());
        let (optimized, winner) =
            optimize_prepared(&ctx, Algorithm::Adaptive, &opts(requested), &mut memo);
        let stats = optimized.memo;
        assert_eq!(stats.plan_budget, requested.max(floor));
        assert!(
            optimized.plans_built <= stats.plan_budget,
            "plans_built {} exceeds budget {} (requested {requested})",
            optimized.plans_built,
            stats.plan_budget
        );
        validate_complete_plan(&ctx, &memo, winner).unwrap();
        assert_ne!(stats.adaptive_mode, AdaptiveMode::None);
    }
    // At the floor the deeper rungs cannot fit on a 12-relation star:
    // the run must degrade and say so.
    let optimized = optimize_with(&q, Algorithm::Adaptive, &opts(floor));
    let stats = optimized.memo;
    assert_ne!(stats.adaptive_mode, AdaptiveMode::Exact);
    assert!(stats.degradation.any());
    assert!(
        !stats.degradation.deadline_aborted,
        "no deadline was set; the degradation must be budget-attributed"
    );
}

/// The acceptance scenario: 30-relation queries of every explicit
/// topology — the clique this test is named for, and chain, star and
/// mixed — optimize within a tight budget, fast, with a valid plan and
/// `plans_built <= budget` proven by the stats.
#[test]
fn thirty_relation_clique_within_budget() {
    for topo in [
        Topology::Chain,
        Topology::Star,
        Topology::Clique,
        Topology::Mixed,
    ] {
        for seed in 0..3u64 {
            let q = generate_query(&GenConfig::topology(30, topo), seed);
            let start = Instant::now();
            let (ctx, mut memo) = (OptContext::new(q.clone()), Memo::new());
            let (optimized, winner) =
                optimize_prepared(&ctx, Algorithm::Adaptive, &opts(20_000), &mut memo);
            let elapsed = start.elapsed();
            let stats = optimized.memo;
            assert_eq!(20_000, stats.plan_budget);
            assert!(
                optimized.plans_built <= 20_000,
                "{topo:?} seed={seed}: plans_built {} exceeds the budget",
                optimized.plans_built
            );
            assert_ne!(stats.adaptive_mode, AdaptiveMode::None);
            validate_complete_plan(&ctx, &memo, winner)
                .unwrap_or_else(|e| panic!("invalid plan ({topo:?} seed={seed}): {e}"));
            assert!(
                elapsed.as_secs_f64() < 5.0,
                "30-relation {topo:?} seed={seed} took {elapsed:?} (budget demands < 5s)"
            );
        }
    }
}

/// A 30-relation star is the expressible enumeration worst case
/// (`#ccp = 29·2^28`): the exact rung must be skipped by the capped pair
/// count and the ladder must still produce a valid plan within budget.
#[test]
fn thirty_relation_star_degrades_gracefully() {
    let q = generate_query(&GenConfig::topology(30, Topology::Star), 2);
    let start = Instant::now();
    let (ctx, mut memo) = (OptContext::new(q.clone()), Memo::new());
    let (optimized, winner) =
        optimize_prepared(&ctx, Algorithm::Adaptive, &opts(20_000), &mut memo);
    let elapsed = start.elapsed();
    let stats = optimized.memo;
    assert_ne!(
        stats.adaptive_mode,
        AdaptiveMode::Exact,
        "exact DP cannot fit a 30-relation star in 20k plans"
    );
    assert!(optimized.plans_built <= stats.plan_budget);
    validate_complete_plan(&ctx, &memo, winner).unwrap();
    assert!(elapsed.as_secs_f64() < 5.0, "star took {elapsed:?}");
}

/// Large chains stay exactly optimizable under a generous budget: `#ccp`
/// is `O(n³)` (4 495 pairs at n = 30; the Pareto-wide plan classes still
/// need ~150k plans, above [`DEFAULT_PLAN_BUDGET`]), and when the exact
/// rung completes the budgeted result is the EA-Prune optimum.
#[test]
fn thirty_relation_chain_stays_exact() {
    let mut cfg = GenConfig::topology(30, Topology::Chain);
    // Inner joins only: conflict rules cannot shrink the search space.
    cfg.ops = dpnext_workload::OpWeights::inner_only();
    cfg.with_grouping = false;
    let q = generate_query(&cfg, 3);
    let (ctx, mut memo) = (OptContext::new(q.clone()), Memo::new());
    let (optimized, winner) = optimize_prepared(
        &ctx,
        Algorithm::Adaptive,
        &opts(10 * DEFAULT_PLAN_BUDGET),
        &mut memo,
    );
    assert_eq!(AdaptiveMode::Exact, optimized.memo.adaptive_mode);
    assert!(!optimized.memo.degradation.any());
    let exact = optimize_with(&q, Algorithm::EaPrune, &opts(0));
    assert_eq!(
        exact.plan.cost.to_bits(),
        optimized.plan.cost.to_bits(),
        "completed exact rung must reproduce the EA-Prune optimum"
    );
    validate_complete_plan(&ctx, &memo, winner).unwrap();
}

/// Degenerate sizes run through the ladder too.
#[test]
fn tiny_queries() {
    for n in [1usize, 2] {
        let q = generate_query(&GenConfig::paper(n), 5);
        let (ctx, mut memo) = (OptContext::new(q.clone()), Memo::new());
        let (optimized, winner) = optimize_prepared(&ctx, Algorithm::Adaptive, &opts(0), &mut memo);
        validate_complete_plan(&ctx, &memo, winner).unwrap();
        assert_eq!(AdaptiveMode::Exact, optimized.memo.adaptive_mode);
    }
}

/// The ladder runs *in* the caller's memo: whatever the memo held, the
/// result and statistics equal a fresh run's, the memo comes back holding
/// the run's plans (so a pool books the footprint of the memo that did the work),
/// and a repeat of the same query grows nothing.
#[test]
fn pooled_memo_is_the_one_the_ladder_runs_in() {
    let mut memo = Memo::new();
    let mut warmed = 0;
    for (n, seed) in [(8usize, 1u64), (30, 2), (30, 2), (30, 2)] {
        let q = generate_query(&GenConfig::topology(n, Topology::Star), seed);
        let fresh = optimize_with(&q, Algorithm::Adaptive, &opts(20_000));
        let pooled = optimize_into(&q, Algorithm::Adaptive, &opts(20_000), &mut memo);
        assert_eq!(fresh.plan.cost.to_bits(), pooled.plan.cost.to_bits());
        assert_eq!(fresh.plans_built, pooled.plans_built);
        assert_eq!(fresh.memo, pooled.memo, "n={n}: pooled statistics diverge");
        assert_eq!(pooled.memo.arena_plans, memo.arena_len() as u64);
        memo.check_invariants().unwrap();
        if warmed != 0 {
            assert!(
                memo.footprint_bytes() <= warmed,
                "a repeat run grew the memo"
            );
        }
        if n == 30 {
            warmed = memo.footprint_bytes();
        }
    }
}
