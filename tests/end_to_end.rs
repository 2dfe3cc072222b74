//! Workspace-level integration tests exercising the full public API
//! through the facade crate: query construction → conflict detection →
//! plan generation → compilation → execution.

use dpnext::workload::{generate_data, generate_query, GenConfig, OpWeights, Topology};
use dpnext::{AdaptiveMode, Algorithm, Memo, Optimized, Optimizer};
use dpnext_query::Query;
use dpnext_serve::{OptimizerService, ServiceConfig};
use std::time::Duration;

/// The workspace tests route through the `Optimizer` facade.
fn optimize(query: &Query, algo: Algorithm) -> Optimized {
    Optimizer::new(algo).optimize(query)
}

#[test]
fn facade_reexports_work_together() {
    let query = generate_query(&GenConfig::oracle(4), 1);
    let db = generate_data(&query, 8, 0.1, 1);
    let reference = query.canonical_plan().eval(&db);
    let opt = optimize(&query, Algorithm::EaPrune);
    assert!(opt.plan.root.eval(&db).bag_eq(&reference));
}

#[test]
fn optimization_is_deterministic() {
    let query = generate_query(&GenConfig::paper(9), 77);
    let a = optimize(&query, Algorithm::H2(1.03));
    let b = optimize(&query, Algorithm::H2(1.03));
    assert_eq!(a.plan.cost, b.plan.cost);
    assert_eq!(a.plans_built, b.plans_built);
    assert_eq!(format!("{}", a.plan.root), format!("{}", b.plan.root));
}

#[test]
fn all_algorithms_agree_on_results_across_sizes() {
    for n in [3usize, 5, 6] {
        let mut cfg = GenConfig::oracle(n);
        cfg.ops = OpWeights::mixed();
        for seed in 900..906 {
            let query = generate_query(&cfg, seed);
            let db = generate_data(&query, 7, 0.2, seed);
            let reference = query.canonical_plan().eval(&db);
            for algo in [Algorithm::DPhyp, Algorithm::H1, Algorithm::EaPrune] {
                let opt = optimize(&query, algo);
                assert!(
                    opt.plan.root.eval(&db).bag_eq(&reference),
                    "{} on n={n} seed={seed}",
                    algo.name()
                );
            }
        }
    }
}

/// The ladder's plans are *run*, not just validated: whatever rung a plan
/// comes from and whatever stopped the rungs above it, it must return what
/// the canonical plan returns. The configurations are chosen to reach
/// every shipping rung and every resource a budget can run out of, and the
/// test says so, so it cannot shrink to one rung unnoticed; it also counts
/// the reference results that have rows, because agreeing on empty bags
/// proves nothing.
#[test]
fn ladder_plans_agree_on_results_across_rungs_and_causes() {
    let adaptive = || Optimizer::new(Algorithm::Adaptive);
    let ea_prune = || Optimizer::new(Algorithm::EaPrune);
    let configs = [
        ("adaptive", adaptive()),
        ("greedy floor", adaptive().plan_budget(1)),
        ("tight plan budget", adaptive().plan_budget(2_000)),
        (
            "expired deadline",
            ea_prune().deadline(Some(Duration::ZERO)),
        ),
    ];
    let mut modes = Vec::new();
    let mut causes = dpnext::Degradation::default();
    let (mut references, mut with_rows) = (0, 0);
    for n in [4usize, 6, 8] {
        let mut cfg = GenConfig::oracle(n);
        cfg.ops = OpWeights::mixed();
        for seed in 900..906 {
            let query = generate_query(&cfg, seed);
            let db = generate_data(&query, 7, 0.2, seed);
            let reference = query.canonical_plan().eval(&db);
            references += 1;
            with_rows += usize::from(!reference.is_empty());
            for (name, optimizer) in &configs {
                let opt = optimizer.optimize(&query);
                let (mode, degradation) = (opt.memo.adaptive_mode, opt.memo.degradation);
                assert!(
                    opt.plan.root.eval(&db).bag_eq(&reference),
                    "{name} on n={n} seed={seed}: {mode} plan, {degradation}"
                );
                modes.push(mode);
                causes.budget_aborted |= degradation.budget_aborted;
                causes.deadline_aborted |= degradation.deadline_aborted;
            }
        }
    }
    for mode in [
        AdaptiveMode::Exact,
        AdaptiveMode::Linearized,
        AdaptiveMode::Greedy,
    ] {
        assert!(modes.contains(&mode), "no {mode} plan was run");
    }
    assert!(
        causes.budget_aborted && causes.deadline_aborted,
        "a cause was never reached: {causes}"
    );
    assert!(
        3 * with_rows >= references,
        "only {with_rows} of {references} reference results have rows"
    );
}

/// What the service's miss path serves is *run*, too. With the plan cache
/// off every request runs the optimizer in a pooled memo that last held
/// the previous request's plans; each exact algorithm, and a ladder whose
/// plan budget the gate refuses the exact rung, must return what the
/// canonical plan returns on every explicit topology and the oracle
/// generator at n ∈ {4, 6, 8} (EA-All at n ≤ 6: one 8-relation star takes
/// it minutes in a debug build). The complete-plan bound decides what
/// every search builds at the full set, so this executes its winners from
/// a recycled memo. Like the ladder test above, it says which paths it
/// took: a gated run, a memo reused by every request after the first,
/// reference results with rows.
#[test]
fn pooled_and_gated_plans_agree_on_results() {
    let mut optimizers: Vec<_> = [
        Algorithm::DPhyp,
        Algorithm::EaAll,
        Algorithm::EaPrune,
        Algorithm::H1,
        Algorithm::H2(1.03),
    ]
    .map(Optimizer::new)
    .into();
    optimizers.push(Optimizer::new(Algorithm::Adaptive).plan_budget(1));
    let uncached = ServiceConfig {
        cache_capacity: 0,
        ..ServiceConfig::default()
    };
    let mut services: Vec<_> = optimizers
        .into_iter()
        .map(|o| (OptimizerService::with_config(o, uncached), 0u64))
        .collect();
    let topologies = [
        Topology::Chain,
        Topology::Star,
        Topology::Clique,
        Topology::Mixed,
    ];
    let (mut gated, mut references, mut with_rows) = (false, 0, 0);
    for n in [4usize, 6, 8] {
        // Oracle-sized tables and no NULL join values, so the joins of the
        // generated data do not die out (outerjoins still pad with NULLs).
        let configs = topologies
            .map(|t| GenConfig {
                card_range: (2.0, 8.0),
                ..GenConfig::topology(n, t)
            })
            .into_iter()
            .chain([GenConfig::oracle(n)]);
        for (cfg, seed) in configs.flat_map(|cfg| (0..2).map(move |seed| (cfg.clone(), seed))) {
            let query = generate_query(&cfg, seed);
            let db = generate_data(&query, 8, 0.0, seed);
            let reference = query.canonical_plan().eval(&db);
            references += 1;
            with_rows += usize::from(!reference.is_empty());
            for (service, requests) in &mut services {
                let algorithm = service.optimizer().configured().0;
                if algorithm == Algorithm::EaAll && n > 6 {
                    continue;
                }
                let served = service.optimize(&query).expect("no faults injected");
                *requests += 1;
                let opt = &served.result;
                assert!(!served.cache_hit);
                assert!(
                    opt.plan.root.eval(&db).bag_eq(&reference),
                    "{} on {:?} n={n} seed={seed}: {} plan, {}",
                    algorithm.name(),
                    cfg.topology,
                    opt.memo.adaptive_mode,
                    opt.memo.degradation
                );
                gated |= opt.memo.degradation.budget_gated;
            }
        }
    }
    assert!(gated, "no adaptive run was budget-gated");
    for (service, requests) in &services {
        let pool = service.stats().pool;
        assert_eq!((1, requests - 1), (pool.created, pool.reused));
    }
    assert!(
        2 * with_rows >= references,
        "only {with_rows} of {references} reference results have rows"
    );
}

/// One `(Algorithm, OptimizeOptions)` value means one thing at every door:
/// the core entry point, the facade's re-export into a fresh memo, the
/// `Optimizer` in its scratch memo and in a caller's dirty one, and a
/// service miss all run the same search — exact or ladder — and report the
/// same cost bits, plan counts and memo statistics.
#[test]
fn every_door_runs_the_same_search() {
    let rows = |n: usize| {
        let new = Optimizer::new;
        let mut rows = vec![
            ("EaPrune", new(Algorithm::EaPrune)),
            ("H1", new(Algorithm::H1)),
            ("Adaptive", new(Algorithm::Adaptive)),
            (
                "Adaptive, 2000 plans",
                new(Algorithm::Adaptive).plan_budget(2_000),
            ),
            (
                "EaPrune, 1 h",
                new(Algorithm::EaPrune).deadline(Some(Duration::from_secs(3600))),
            ),
            (
                "EaPrune, expired deadline",
                new(Algorithm::EaPrune).deadline(Some(Duration::ZERO)),
            ),
            (
                "DPhyp, expired deadline",
                new(Algorithm::DPhyp).deadline(Some(Duration::ZERO)),
            ),
        ];
        if n == 4 {
            rows.push(("EaAll", new(Algorithm::EaAll)));
        }
        rows
    };
    let queries = [
        generate_query(&GenConfig::paper(4), 3),
        generate_query(&GenConfig::paper(8), 3),
        generate_query(&GenConfig::topology(8, Topology::Star), 3),
    ];
    // A caller's memo, holding an unrelated run's plans from the start.
    let mut dirty = Memo::new();
    Optimizer::new(Algorithm::H1).optimize_pooled(&queries[1], &mut dirty);
    let mut degraded = Vec::new();
    for query in &queries {
        let n = query.table_count();
        for (name, optimizer) in rows(n) {
            let (algo, opts) = optimizer.configured();
            let service = OptimizerService::new(optimizer.clone());
            let served = service.optimize(query).expect("no faults injected");
            assert!(!served.cache_hit);
            let doors = [
                (
                    "core::optimize_with",
                    dpnext::core::optimize_with(query, algo, &opts),
                ),
                (
                    "optimize_into",
                    dpnext::optimize_into(query, algo, &opts, &mut Memo::new()),
                ),
                ("Optimizer::optimize", optimizer.optimize(query)),
                (
                    "Optimizer::optimize_pooled",
                    optimizer.optimize_pooled(query, &mut dirty),
                ),
                ("OptimizerService", Optimized::clone(&served.result)),
            ];
            let pinned = |o: &Optimized| {
                (
                    o.plan.cost.to_bits(),
                    o.plans_built,
                    o.retained_plans,
                    o.memo,
                )
            };
            let want = pinned(&doors[0].1);
            for (door, got) in &doors[1..] {
                assert_eq!(want, pinned(got), "{name}, n={n}: {door}");
            }
            // Budgeted rows climbed the ladder, at every door; the rest did
            // not.
            let budgeted = algo == Algorithm::Adaptive || opts.deadline.is_some();
            assert_eq!(
                budgeted,
                want.3.adaptive_mode != AdaptiveMode::None,
                "{name}"
            );
            if want.3.degradation.any() {
                degraded.push(name);
            }
        }
    }
    for name in ["EaPrune, expired deadline", "DPhyp, expired deadline"] {
        assert!(degraded.contains(&name), "{name} never degraded");
    }
}

#[test]
fn costs_are_monotone_in_algorithm_strength() {
    // EA-Prune ≤ H2 ≤ ∞, EA-Prune ≤ H1, EA-Prune ≤ DPhyp on every query.
    for seed in 950..962 {
        let query = generate_query(&GenConfig::paper(7), seed);
        let opt = optimize(&query, Algorithm::EaPrune).plan.cost;
        for algo in [
            Algorithm::DPhyp,
            Algorithm::H1,
            Algorithm::H2(1.01),
            Algorithm::H2(1.1),
        ] {
            let c = optimize(&query, algo).plan.cost;
            assert!(
                opt <= c * (1.0 + 1e-9),
                "{}: {opt} > {c} (seed {seed})",
                algo.name()
            );
        }
    }
}

#[test]
fn larger_queries_stay_tractable_for_heuristics() {
    // 16 relations: the heuristics and the baseline must finish fast.
    let query = generate_query(&GenConfig::paper(16), 4711);
    for algo in [Algorithm::DPhyp, Algorithm::H1, Algorithm::H2(1.03)] {
        let opt = optimize(&query, algo);
        assert!(opt.plan.cost.is_finite());
        assert!(
            opt.elapsed.as_secs_f64() < 10.0,
            "{} too slow: {:?}",
            algo.name(),
            opt.elapsed
        );
    }
}

#[test]
fn pure_join_ordering_without_grouping() {
    // Queries without a grouping spec: plain join ordering must work and
    // all algorithms degrade to it gracefully.
    let mut cfg = GenConfig::oracle(4);
    cfg.with_grouping = false;
    for seed in 970..976 {
        let query = generate_query(&cfg, seed);
        let db = generate_data(&query, 6, 0.1, seed);
        let reference = query.canonical_plan().eval(&db);
        for algo in [Algorithm::DPhyp, Algorithm::H1, Algorithm::EaAll] {
            let opt = optimize(&query, algo);
            assert!(
                opt.plan.root.eval(&db).bag_eq(&reference),
                "{}",
                algo.name()
            );
            assert_eq!(
                0,
                opt.plan.root.grouping_count(),
                "no grouping should appear"
            );
        }
    }
}

#[test]
fn optimizer_facade_runs_sql_end_to_end() {
    // The whole pipeline in one call: SQL text → parse/bind (TPC-H
    // catalog) → conflicted query → memo DP → optimized plan.
    let opt = Optimizer::new(Algorithm::EaPrune)
        .optimize_sql(
            "select n.n_name, count(*) \
             from nation n join supplier s on n.n_nationkey = s.s_nationkey \
             group by n.n_name",
        )
        .expect("valid SQL");
    assert!(opt.plan.cost.is_finite());
    assert!(opt.plans_built > 0);
    assert!(opt.memo.arena_plans > 0);

    // Binding errors surface as Err, not panics.
    assert!(Optimizer::new(Algorithm::H1)
        .optimize_sql("select no_such_col from nowhere")
        .is_err());
}

#[test]
fn optimizer_facade_executes_bound_sql() {
    // `optimize_sql_bound` exposes the occurrences needed to generate
    // data; the optimized plan must agree with the canonical plan.
    let facade = Optimizer::new(Algorithm::EaPrune);
    let (bound, opt) = facade
        .optimize_sql_bound(
            "select n.n_name, count(*) \
             from nation n join supplier s on n.n_nationkey = s.s_nationkey \
             group by n.n_name",
        )
        .expect("valid SQL");
    let db = bound.database(0.01, 3);
    let reference = bound.query.canonical_plan().eval(&db);
    assert!(opt.plan.root.eval(&db).bag_eq(&reference));
}

#[test]
fn optimizer_facade_builder_knobs() {
    let query = generate_query(&GenConfig::paper(6), 123);
    // Memo statistics are collected on every run.
    let opt = Optimizer::new(Algorithm::EaPrune).optimize(&query);
    assert!(opt.memo.arena_plans > 0);
    assert!(opt.memo.prune_attempts > 0);
}

#[test]
fn optimizer_scratch_memo_changes_no_result() {
    // A big query, a small one, the big one again: the parked memo has
    // served a different query, and a larger one, before each rerun.
    let queries = [
        generate_query(&GenConfig::paper(6), 42),
        generate_query(&GenConfig::paper(3), 42),
        generate_query(&GenConfig::paper(6), 42),
    ];
    for algo in [Algorithm::EaAll, Algorithm::EaPrune, Algorithm::Adaptive] {
        let opt = Optimizer::new(algo);
        assert!(format!("{opt:?}").contains("Scratch(0 parked)"));
        for query in &queries {
            let parked = opt.optimize(query);
            let fresh = opt.optimize_pooled(query, &mut Memo::new());
            assert_eq!(fresh.plan.cost.to_bits(), parked.plan.cost.to_bits());
            assert_eq!(fresh.plans_built, parked.plans_built);
            assert_eq!(fresh.retained_plans, parked.retained_plans);
            assert_eq!(fresh.memo, parked.memo);
            assert_eq!(fresh.plan.root, parked.plan.root);
        }
        // One caller, one memo; it belongs to this optimizer alone.
        assert!(format!("{opt:?}").contains("Scratch(1 parked)"));
        assert!(format!("{:?}", opt.clone()).contains("Scratch(0 parked)"));
    }
}

#[test]
fn memo_stats_are_consistent() {
    let query = generate_query(&GenConfig::paper(7), 7);
    let all = optimize(&query, Algorithm::EaAll);
    let pruned = optimize(&query, Algorithm::EaPrune);
    // EA-All keeps every plan: no prune activity, wide classes.
    assert_eq!(0, all.memo.prune_attempts);
    assert!(all.memo.peak_class_width >= pruned.memo.peak_class_width);
    // The arena holds at least the retained DP state; its peak also
    // covers transient complete plans.
    assert!(all.memo.arena_plans >= all.retained_plans);
    assert!(all.memo.arena_peak >= all.memo.arena_plans);
    assert!(pruned.memo.prune_hit_rate() > 0.0);
    assert!(pruned.memo.prune_hit_rate() <= 1.0);
}

#[test]
fn tpch_smoke_optimized_plans_match_oracle() {
    // Workspace smoke test: on a small TPC-H-shaped instance (schema and
    // data from `dpnext_catalog::tpch`, query shape from the paper's Q3),
    // the plans of DPhyp and EA-Prune must execute to the same bag of
    // tuples as the canonical (unoptimized) plan.
    let q = dpnext::workload::q3();
    let db = q.bound.database(0.0015, 42);
    let reference = q.bound.query.canonical_plan().eval(&db);
    for algo in [Algorithm::DPhyp, Algorithm::EaPrune] {
        let opt = optimize(&q.bound.query, algo);
        assert!(
            opt.plan.root.eval(&db).bag_eq(&reference),
            "{} diverges from the oracle on TPC-H Q3",
            algo.name()
        );
    }
}
