//! Memory-budget robustness for the degradation ladder: no matter how
//! tight the byte budget, every run must return a structurally valid
//! plan that never beats the exact optimum, keep its live memo bytes
//! within one enumeration work unit of the budget, and attribute the
//! abort to memory in [`dpnext_core::MemoStats::degradation`]. The
//! mirror of `deadline.rs`, with the byte meter in place of the clock.

use dpnext_core::{
    optimize_prepared, optimize_with, validate_complete_plan, AdaptiveMode, Algorithm, Memo,
    OptContext, OptimizeOptions, ARENA_ROW_BYTES, UNIT_MAX_PLANS,
};
use dpnext_workload::{generate_query, GenConfig, Topology};
use proptest::prelude::*;

/// Budget overshoot tolerance: the byte meter is consulted once per
/// enumeration work unit, so a run may exceed its budget by at most one
/// unit's plans — [`UNIT_MAX_PLANS`] pairs of arena rows plus what each
/// plan appends to the lanes. A plan appends at most its whole payload
/// (visible attributes at 4 bytes, 8 bytes plus attributes per key, 16
/// bytes per aggregate position and count column; less when it shares an
/// input's span). The largest payload of any plan these queries produce is
/// 504 bytes (the 30-relation star: some 90 visible attributes); twice
/// that is allowed per plan.
const UNIT_SLACK: u64 = UNIT_MAX_PLANS * (ARENA_ROW_BYTES as u64 + 1024);

fn base() -> OptimizeOptions {
    OptimizeOptions {
        explain: false,
        ..OptimizeOptions::default()
    }
}

fn budgeted(bytes: u64) -> OptimizeOptions {
    OptimizeOptions {
        memory_budget: bytes,
        ..base()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Memory-budgeted runs on chains, stars and cliques return
    /// `validate_complete_plan`-clean plans that never beat the exact
    /// EA-Prune optimum, and their live-byte peak stays within one work
    /// unit of the budget — for budgets from "aborts mid-exact" to
    /// "ample". (Budgets start above any n≤9 greedy footprint, so the
    /// unchecked guaranteed rung cannot be the peak.)
    #[test]
    fn budgeted_plans_are_valid_bounded_and_never_beat_exact(
        topo_ix in 0usize..3,
        n in 4usize..=9,
        seed in 0u64..1_000,
        budget_kib in 256u64..4096,
    ) {
        let topo = [Topology::Chain, Topology::Star, Topology::Clique][topo_ix];
        let q = generate_query(&GenConfig::topology(n, topo), seed);
        let budget = budget_kib * 1024;
        let (ctx, mut memo) = (OptContext::new(q.clone()), Memo::new());
        let (optimized, winner) =
            optimize_prepared(&ctx, Algorithm::Adaptive, &budgeted(budget), &mut memo);
        if let Err(e) = validate_complete_plan(&ctx, &memo, winner) {
            prop_assert!(
                false,
                "invalid budgeted plan ({topo:?} n={n} seed={seed} mb={budget_kib}KiB): {e}"
            );
        }
        let stats = optimized.memo;
        prop_assert_eq!(budget, stats.memory_budget, "budget must be recorded");
        prop_assert!(
            stats.live_bytes_peak <= budget + UNIT_SLACK,
            "live-byte peak {} exceeds budget {} by more than one work unit \
             ({topo:?} n={n} seed={seed})",
            stats.live_bytes_peak, budget
        );
        let exact = optimize_with(&q, Algorithm::EaPrune, &base());
        let (a, e) = (optimized.plan.cost, exact.plan.cost);
        prop_assert!(
            a >= e * (1.0 - 1e-9),
            "budgeted cost {a} beats the exact optimum {e} \
             ({topo:?} n={n} seed={seed} mb={budget_kib}KiB)"
        );
    }
}

/// A budget the guaranteed rung alone fills ships the greedy plan and
/// says why: the ladder degrades, it never fails.
#[test]
fn exhausted_budget_ships_the_greedy_plan() {
    let q = generate_query(&GenConfig::topology(12, Topology::Star), 0);
    let (ctx, mut memo) = (OptContext::new(q.clone()), Memo::new());
    let (optimized, winner) = optimize_prepared(&ctx, Algorithm::Adaptive, &budgeted(1), &mut memo);
    let stats = optimized.memo;
    assert!(stats.degradation.memory_aborted);
    assert_eq!(AdaptiveMode::Greedy, stats.adaptive_mode);
    validate_complete_plan(&ctx, &memo, winner).unwrap();
}

/// With ample bytes a budget-only run completes the exact rung (it has no
/// plan limit, so the byte meter is the only binding resource) and
/// reproduces the unconstrained EA-Prune optimum bit for
/// bit, with no degradation recorded — the acceptance pin that a
/// non-binding budget changes nothing.
#[test]
fn ample_budget_stays_bit_identical_to_unconstrained() {
    let q = generate_query(&GenConfig::paper(6), 4);
    let optimized = optimize_with(&q, Algorithm::Adaptive, &budgeted(1 << 40));
    let stats = optimized.memo;
    assert_eq!(AdaptiveMode::Exact, stats.adaptive_mode);
    assert!(!stats.degradation.any());
    let exact = optimize_with(&q, Algorithm::EaPrune, &base());
    assert_eq!(
        exact.plan.cost.to_bits(),
        optimized.plan.cost.to_bits(),
        "completed exact rung under an ample budget must reproduce the optimum"
    );
}

/// The acceptance scenario: a 30-relation star (the expressible
/// enumeration worst case, `#ccp = 29·2^28`) under a 2 MiB budget
/// returns a valid plan whose live-byte peak honors the budget — the
/// exact rung is aborted mid-stream by the byte meter, not run to
/// exhaustion.
#[test]
fn thirty_relation_star_respects_memory_budget() {
    let q = generate_query(&GenConfig::topology(30, Topology::Star), 2);
    let budget = 2 << 20;
    let (ctx, mut memo) = (OptContext::new(q.clone()), Memo::new());
    let (optimized, winner) =
        optimize_prepared(&ctx, Algorithm::Adaptive, &budgeted(budget), &mut memo);
    let stats = optimized.memo;
    assert!(
        stats.degradation.memory_aborted,
        "exact DP cannot fit 29·2^28 pairs in 2 MiB of live plans"
    );
    validate_complete_plan(&ctx, &memo, winner).unwrap();
    assert!(
        stats.live_bytes_peak <= budget + UNIT_SLACK,
        "live-byte peak {} blew past the 2 MiB budget",
        stats.live_bytes_peak
    );
}

/// A byte budget buys what the arena holds, and the arena holds what the
/// classes keep. Under budgets at which a search that kept every refused
/// candidate stopped short, the 12-relation mixed query now sees the exact
/// rung through (it shipped a `linearized` / `memory-aborted` plan, 0.8%
/// costlier), and the 12-relation chain gets far enough to ship the
/// EA-Prune optimum, 31 451.21 (it shipped the greedy plan, 16.5% costlier).
#[test]
fn same_bytes_buy_a_deeper_rung() {
    let optimum = |q| optimize_with(q, Algorithm::EaPrune, &base()).plan.cost;

    let q = generate_query(&GenConfig::topology(12, Topology::Mixed), 1);
    let optimized = optimize_with(&q, Algorithm::Adaptive, &budgeted(512 << 10));
    let stats = optimized.memo;
    assert_eq!(AdaptiveMode::Exact, stats.adaptive_mode);
    assert!(!stats.degradation.any(), "{}", stats.degradation);
    assert_eq!(optimum(&q).to_bits(), optimized.plan.cost.to_bits());

    let q = generate_query(&GenConfig::topology(12, Topology::Chain), 1);
    let optimized = optimize_with(&q, Algorithm::Adaptive, &budgeted(256 << 10));
    assert_eq!(
        optimum(&q).to_bits(),
        optimized.plan.cost.to_bits(),
        "{} ({}, {})",
        optimized.plan.cost,
        optimized.memo.adaptive_mode,
        optimized.memo.degradation
    );
}
