//! Service-level correctness: cached results must be bit-identical to
//! cold optimizations across the golden parity grid, epoch bumps must
//! invalidate plans (and only plans), counters must stay consistent under
//! concurrent load, pooled memo reuse must not leak state between runs,
//! and a served plan must return the statement's result.

use dpnext::{Algorithm as A, Optimized, Optimizer};
use dpnext_serve::{OptimizerService, ServiceConfig, FRONT_TEXT_MAX};
use dpnext_workload::{generate_query, request_mix, GenConfig, MixConfig};
use std::sync::Arc;

fn assert_bit_identical(cold: &Optimized, served: &Optimized, what: &str) {
    assert_eq!(
        cold.plan.cost.to_bits(),
        served.plan.cost.to_bits(),
        "{what}: cost"
    );
    assert_eq!(
        cold.plan.card.to_bits(),
        served.plan.card.to_bits(),
        "{what}: card"
    );
    assert_eq!(cold.plans_built, served.plans_built, "{what}: plans_built");
    assert_eq!(
        cold.retained_plans, served.retained_plans,
        "{what}: retained"
    );
    assert_eq!(cold.memo, served.memo, "{what}: memo stats");
    assert_eq!(cold.explain, served.explain, "{what}: explain");
}

/// The 160-cell golden parity grid (same workloads and seeds as
/// `dpnext-core`'s parity suite): oracle n 2–5 × seeds 0–4 and paper
/// n 3–6 × seeds 1000–1002, across all five exact algorithms.
fn golden_grid() -> Vec<(GenConfig, u64)> {
    let mut grid = Vec::new();
    for n in 2..=5 {
        for seed in 0..=4 {
            grid.push((GenConfig::oracle(n), seed));
        }
    }
    for n in 3..=6 {
        for seed in 1000..=1002 {
            grid.push((GenConfig::paper(n), seed));
        }
    }
    grid
}

#[test]
fn golden_grid_cached_equals_cold() {
    for algo in [A::DPhyp, A::H1, A::H2(1.03), A::EaAll, A::EaPrune] {
        let service = OptimizerService::new(Optimizer::new(algo));
        for (cfg, seed) in golden_grid() {
            let what = format!("{} n={} seed={seed}", algo.name(), cfg.n_relations);
            let query = generate_query(&cfg, seed);
            let cold = service.optimizer().optimize(&query);
            let first = service.optimize(&query).expect("no faults injected");
            assert!(!first.cache_hit, "{what}: first request must miss");
            let second = service.optimize(&query).expect("no faults injected");
            assert!(second.cache_hit, "{what}: repeat request must hit");
            assert!(
                Arc::ptr_eq(&first.result, &second.result),
                "{what}: hit must return the published result"
            );
            assert_bit_identical(&cold, &first.result, &what);
        }
    }
}

#[test]
fn epoch_bump_forces_reoptimization() {
    let service = OptimizerService::new(Optimizer::new(A::EaPrune));
    let query = generate_query(&GenConfig::paper(4), 7);

    let r1 = service.optimize(&query).expect("no faults injected");
    let r2 = service.optimize(&query).expect("no faults injected");
    assert!(!r1.cache_hit);
    assert!(r2.cache_hit);
    assert_eq!(0, r1.epoch);

    let new_epoch = service.bump_stats_epoch();
    assert_eq!(1, new_epoch);

    let r3 = service.optimize(&query).expect("no faults injected");
    assert!(!r3.cache_hit, "epoch bump must force a miss");
    assert_eq!(1, r3.epoch);
    let r4 = service.optimize(&query).expect("no faults injected");
    assert!(r4.cache_hit, "the new epoch re-populates the cache");
    assert_bit_identical(&r1.result, &r3.result, "across epochs");

    let stats = service.stats();
    assert_eq!(4, stats.requests);
    assert_eq!(2, stats.cache.hits);
    assert_eq!(2, stats.cache.misses);
}

#[test]
fn concurrent_hammer_consistent_counters() {
    let threads = 4;
    let per_thread = 32;
    let mix = request_mix(&MixConfig::hot(6, 4), threads * per_thread, 99);
    let service = Arc::new(OptimizerService::new(Optimizer::new(A::EaPrune)));

    // Cold references, one per shape, from an identically configured
    // facade run outside the service.
    let refs: Vec<Optimized> = mix
        .shapes()
        .iter()
        .map(|q| service.optimizer().optimize(q))
        .collect();

    std::thread::scope(|scope| {
        for t in 0..threads {
            let service = &service;
            let mix = &mix;
            let refs = &refs;
            scope.spawn(move || {
                let chunk = &mix.schedule()[t * per_thread..(t + 1) * per_thread];
                for &shape in chunk {
                    let served = service
                        .optimize(&mix.shapes()[shape])
                        .expect("no faults injected");
                    assert_eq!(
                        refs[shape].plan.cost.to_bits(),
                        served.result.plan.cost.to_bits(),
                        "shape {shape}: served plan diverged from cold reference"
                    );
                    assert_eq!(refs[shape].plans_built, served.result.plans_built);
                }
            });
        }
    });

    let stats = service.stats();
    let total = (threads * per_thread) as u64;
    assert_eq!(total, stats.requests);
    assert_eq!(
        total,
        stats.cache.hits + stats.cache.misses,
        "every request is exactly one hit or one miss"
    );
    // Concurrent first arrivals of one shape may each miss, but the
    // cache converges: entries never exceed the distinct shapes served.
    let distinct = {
        let mut seen: Vec<usize> = mix.schedule().to_vec();
        seen.sort_unstable();
        seen.dedup();
        seen.len() as u64
    };
    assert!(stats.cache.misses >= distinct);
    assert!(stats.cache.entries <= distinct);
    assert!(stats.cache.hits > 0, "hot mix must produce hits");

    // Every shape the hammer served is warm now: one more pass over them
    // is all hits and runs no optimizer.
    for &shape in mix.schedule() {
        let warm = service.optimize(&mix.shapes()[shape]).unwrap();
        assert!(warm.cache_hit, "shape {shape}: a warmed shape must hit");
    }
    let warmed = service.stats();
    assert_eq!(stats.cache.hits + total, warmed.cache.hits);
    assert_eq!(stats.cache.misses, warmed.cache.misses);
    assert_eq!(stats.pool.created, warmed.pool.created);
}

#[test]
fn pooled_reoptimize_reports_fresh_stats() {
    // Cache off, pool on: every request runs the optimizer inside the
    // recycled memo. Any rollback/prune state leaking across reuses
    // would show up as diverging MemoStats.
    let service = OptimizerService::with_config(
        Optimizer::new(A::EaPrune),
        ServiceConfig {
            cache_capacity: 0,
            pool_capacity: 4,
            ..ServiceConfig::default()
        },
    );
    let queries: Vec<_> = (0..8)
        .map(|seed| generate_query(&GenConfig::paper(3 + (seed as usize % 4)), seed))
        .collect();
    let fresh: Vec<Optimized> = queries
        .iter()
        .map(|q| service.optimizer().optimize(q))
        .collect();

    // Twice over the set, so every query also runs in a memo previously
    // used by a *different* query.
    for round in 0..2 {
        for (i, q) in queries.iter().enumerate() {
            let served = service.optimize(q).expect("no faults injected");
            assert!(!served.cache_hit);
            assert_bit_identical(
                &fresh[i],
                &served.result,
                &format!("round {round} query {i}"),
            );
        }
    }

    let stats = service.stats();
    assert_eq!(
        1, stats.pool.created,
        "sequential load must reuse one memo after warmup"
    );
    assert_eq!(15, stats.pool.reused);
    assert!(stats.pool.bytes_peak > 0);
}

#[test]
fn sql_requests_share_cache_entries() {
    let service = OptimizerService::new(Optimizer::new(A::EaPrune));
    // Same bound query, different SQL spelling (whitespace).
    let a = service
        .optimize_sql(
            "select n.n_name, count(*) from nation n join supplier s \
             on n.n_nationkey = s.s_nationkey group by n.n_name",
        )
        .unwrap();
    let b = service
        .optimize_sql(
            "select n.n_name, count(*)   from nation n join supplier s \
             on n.n_nationkey = s.s_nationkey   group by n.n_name",
        )
        .unwrap();
    assert!(!a.cache_hit);
    assert!(b.cache_hit, "identically bound SQL must share the entry");
    assert!(service.optimize_sql("select broken from").is_err());
}

const NATION_SUPPLIER: &str = "select n.n_name, count(*) from nation n join supplier s \
                               on n.n_nationkey = s.s_nationkey group by n.n_name";

/// The three `dpnext_front_*` counters: (hits, misses, evictions).
fn front_counters(service: &OptimizerService) -> (u64, u64, u64) {
    let snapshot = service.registry().snapshot();
    (
        snapshot.counter_total("dpnext_front_hits_total"),
        snapshot.counter_total("dpnext_front_misses_total"),
        snapshot.counter_total("dpnext_front_evictions_total"),
    )
}

/// The two levels of the cache invalidate separately: the statistics epoch
/// is part of a plan's key and no part of a bound statement's, so after a
/// bump a repeat statement is re-optimized without being parsed again.
#[test]
fn epoch_bump_reoptimizes_and_does_not_rebind() {
    let service = OptimizerService::new(Optimizer::new(A::EaPrune));
    let (bound, cold) = service.optimize_sql_bound(NATION_SUPPLIER).unwrap();
    assert!(!cold.cache_hit);
    assert_eq!((0, 1, 0), front_counters(&service));

    service.bump_stats_epoch();
    let (rebound, bumped) = service.optimize_sql_bound(NATION_SUPPLIER).unwrap();
    assert!(
        !bumped.cache_hit,
        "a new epoch's first arrival re-optimizes"
    );
    assert_eq!(1, bumped.epoch);
    assert!(Arc::ptr_eq(&bound, &rebound), "and is not bound again");
    assert_eq!((1, 1, 0), front_counters(&service));
    assert_bit_identical(&cold.result, &bumped.result, "across epochs");

    let warm = service.optimize_sql(NATION_SUPPLIER).unwrap();
    assert!(warm.cache_hit);
    assert_eq!((2, 1, 0), front_counters(&service));
    assert_eq!((1, 2), {
        let cache = service.stats().cache;
        (cache.hits, cache.misses)
    });
}

/// The front map takes its size from `cache_capacity`, like the plan
/// cache: 0 switches both off, and a small one evicts.
#[test]
fn front_map_is_sized_by_cache_capacity() {
    let with_capacity = |cache_capacity| {
        OptimizerService::with_config(
            Optimizer::new(A::EaPrune),
            ServiceConfig {
                cache_capacity,
                ..ServiceConfig::default()
            },
        )
    };
    let off = with_capacity(0);
    for _ in 0..2 {
        assert!(!off.optimize_sql(NATION_SUPPLIER).unwrap().cache_hit);
    }
    assert_eq!((0, 0, 0), front_counters(&off));
    assert_eq!(0, off.stats().cache.entries);
    assert_eq!(2, off.stats().pool.created + off.stats().pool.reused);

    // 40 spellings of one statement: 40 front entries wanted, one plan.
    // One slot per shard holds at most 16 of them.
    let tiny = with_capacity(1);
    for pad in 0..40 {
        let text = NATION_SUPPLIER.replacen(' ', &" ".repeat(1 + pad), 1);
        assert_eq!(pad > 0, tiny.optimize_sql(&text).unwrap().cache_hit);
    }
    let (hits, misses, evictions) = front_counters(&tiny);
    assert_eq!((0, 40), (hits, misses));
    assert!(evictions > 0, "40 inserts into 16 slots must evict");
    assert!(misses - evictions <= 16, "{} entries", misses - evictions);
}

/// A statement longer than `FRONT_TEXT_MAX` is served, just not
/// remembered: it is parsed on every arrival, and still shares its plan.
#[test]
fn overlong_statements_are_served_and_not_remembered() {
    let service = OptimizerService::new(Optimizer::new(A::EaPrune));
    let padded = |len: usize| {
        let text = format!(
            "{NATION_SUPPLIER}{}",
            " ".repeat(len - NATION_SUPPLIER.len())
        );
        assert_eq!(len, text.len());
        text
    };
    let at_cap = padded(FRONT_TEXT_MAX);
    assert!(!service.optimize_sql(&at_cap).unwrap().cache_hit);
    assert!(service.optimize_sql(&at_cap).unwrap().cache_hit);
    assert_eq!((1, 1, 0), front_counters(&service));

    let over = padded(FRONT_TEXT_MAX + 1);
    for _ in 0..2 {
        assert!(service.optimize_sql(&over).unwrap().cache_hit);
    }
    assert_eq!((1, 3, 0), front_counters(&service), "bound both times");
}

/// Plans served through the service — the miss that optimizes in a pooled
/// memo and the hit that comes out of both caches — are *run*: on a
/// generated database each returns what the statement's canonical plan
/// returns. Three statements of the benchmark's corpus: the paper's
/// introductory query, the semi join and the outer-join chain.
#[test]
fn served_plans_return_the_canonical_result() {
    let corpus = [
        "select ns.n_name, nc.n_name, count(*) \
         from (nation ns join supplier s on ns.n_nationkey = s.s_nationkey) \
         full outer join (nation nc join customer c on nc.n_nationkey = c.c_nationkey) \
         on ns.n_nationkey = nc.n_nationkey group by ns.n_name, nc.n_name",
        "select n.n_name, count(*) from nation n semi join supplier s \
         on n.n_nationkey = s.s_nationkey group by n.n_name",
        "select n.n_name, min(l.l_shipdate), max(o.o_totalprice), count(c.c_custkey) \
         from nation n join supplier s on n.n_nationkey = s.s_nationkey \
         left outer join lineitem l on s.s_suppkey = l.l_suppkey \
         left outer join orders o on l.l_orderkey = o.o_orderkey \
         left outer join customer c on o.o_custkey = c.c_custkey group by n.n_name",
    ];
    let service = OptimizerService::new(Optimizer::new(A::EaPrune));
    for (seed, sql) in corpus.into_iter().enumerate() {
        let (bound, miss) = service.optimize_sql_bound(sql).unwrap();
        let (rebound, hit) = service.optimize_sql_bound(sql).unwrap();
        assert!(!miss.cache_hit && hit.cache_hit, "{sql}");
        assert!(Arc::ptr_eq(&bound, &rebound), "{sql}");
        let db = bound.database(0.002, seed as u64);
        let reference = bound.query.canonical_plan().eval(&db);
        assert!(
            !reference.is_empty(),
            "{sql}: an empty result checks nothing"
        );
        for served in [miss, hit] {
            assert!(
                served.result.plan.root.eval(&db).bag_eq(&reference),
                "{sql}"
            );
        }
    }
}
