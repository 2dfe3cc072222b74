//! Deadline robustness for the degradation ladder: no matter how tight
//! the clock (including already-expired deadlines, and deadlines that stop
//! an exact rung mid-stream), every run must return a structurally valid
//! plan that never beats the exact optimum, with the abort attributed to
//! the deadline in [`dpnext_core::MemoStats::degradation`].

use dpnext_core::{
    optimize, optimize_prepared, optimize_with, validate_complete_plan, AdaptiveMode, Algorithm,
    Memo, OptContext, OptimizeOptions,
};
use dpnext_workload::{generate_query, GenConfig, Topology};
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn deadlined(deadline: Duration) -> OptimizeOptions {
    OptimizeOptions {
        deadline: Some(deadline),
        ..OptimizeOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Deadline-aborted runs on chains, stars and cliques return
    /// `validate_complete_plan`-clean plans that never beat the exact
    /// EA-Prune optimum — for deadlines from "already expired" to
    /// "ample".
    #[test]
    fn deadlined_plans_are_valid_and_never_beat_exact(
        topo_ix in 0usize..3,
        n in 4usize..=9,
        seed in 0u64..1_000,
        deadline_micros in 0u64..2_000,
    ) {
        let topo = [Topology::Chain, Topology::Star, Topology::Clique][topo_ix];
        let q = generate_query(&GenConfig::topology(n, topo), seed);
        let o = deadlined(Duration::from_micros(deadline_micros));
        let (ctx, mut memo) = (OptContext::new(q.clone()), Memo::new());
        let (optimized, winner) =
            optimize_prepared(&ctx, Algorithm::Adaptive, &o, &mut memo);
        if let Err(e) = validate_complete_plan(&ctx, &memo, winner) {
            prop_assert!(
                false,
                "invalid deadlined plan ({topo:?} n={n} seed={seed} dl={deadline_micros}us): {e}"
            );
        }
        let exact = optimize(&q, Algorithm::EaPrune);
        let (a, e) = (optimized.plan.cost, exact.plan.cost);
        prop_assert!(
            a >= e * (1.0 - 1e-9),
            "deadlined cost {a} beats the exact optimum {e} \
             ({topo:?} n={n} seed={seed} dl={deadline_micros}us)"
        );
    }
}

/// An already-expired deadline ships the guaranteed greedy plan and says
/// why: the ladder degrades, it never fails.
#[test]
fn expired_deadline_ships_the_greedy_plan() {
    let q = generate_query(&GenConfig::topology(12, Topology::Star), 0);
    let (ctx, mut memo) = (OptContext::new(q.clone()), Memo::new());
    let (optimized, winner) = optimize_prepared(
        &ctx,
        Algorithm::Adaptive,
        &deadlined(Duration::ZERO),
        &mut memo,
    );
    let stats = optimized.memo;
    assert!(stats.degradation.deadline_aborted);
    assert_eq!(AdaptiveMode::Greedy, stats.adaptive_mode);
    validate_complete_plan(&ctx, &memo, winner).unwrap();
}

/// With ample time a deadline-only run completes the exact rung (it has
/// no plan limit, so the clock is the only binding resource) and
/// reproduces the EA-Prune optimum bit for bit, with no degradation
/// recorded.
#[test]
fn ample_deadline_still_reaches_the_exact_optimum() {
    let q = generate_query(&GenConfig::paper(6), 4);
    let optimized = optimize_with(&q, Algorithm::Adaptive, &deadlined(Duration::from_secs(60)));
    let stats = optimized.memo;
    assert_eq!(AdaptiveMode::Exact, stats.adaptive_mode);
    assert!(!stats.degradation.any());
    let exact = optimize(&q, Algorithm::EaPrune);
    assert_eq!(
        exact.plan.cost.to_bits(),
        optimized.plan.cost.to_bits(),
        "completed exact rung under a deadline must reproduce the optimum"
    );
}

/// The acceptance scenario: 30-relation chains, stars and cliques under
/// short deadlines return a valid plan close to the deadline. On the star
/// (the expressible enumeration worst case, `#ccp = 29·2^28`) the exact
/// rung can never finish in time: it is aborted mid-stream by the clock,
/// not run to exhaustion, and the clock is the recorded cause.
#[test]
fn thirty_relation_star_respects_its_deadline() {
    for topo in [Topology::Chain, Topology::Star, Topology::Clique] {
        for deadline_ms in [10, 50] {
            let q = generate_query(&GenConfig::topology(30, topo), 2);
            let deadline = Duration::from_millis(deadline_ms);
            let start = Instant::now();
            let (ctx, mut memo) = (OptContext::new(q.clone()), Memo::new());
            let (optimized, winner) =
                optimize_prepared(&ctx, Algorithm::Adaptive, &deadlined(deadline), &mut memo);
            let elapsed = start.elapsed();
            let stats = optimized.memo;
            if topo == Topology::Star {
                assert!(
                    stats.degradation.deadline_aborted,
                    "exact DP cannot finish 29·2^28 pairs in {deadline_ms}ms, got {}",
                    stats.degradation
                );
            }
            validate_complete_plan(&ctx, &memo, winner).unwrap_or_else(|e| {
                panic!("invalid deadlined plan ({topo:?} {deadline_ms}ms): {e}")
            });
            // Overshoot is bounded by one enumeration work unit plus
            // finalize; the bound here is deliberately loose (the measured
            // ratio is the benchmark's `adaptive.deadline_overshoot_ratio`).
            assert!(
                elapsed < deadline + Duration::from_millis(500),
                "30-relation {topo:?} blew far past its {deadline_ms}ms deadline: {elapsed:?}"
            );
        }
    }
}
