//! Service-throughput smoke for CI: hammer a shared [`OptimizerService`]
//! for a fixed request count and fail (exit non-zero via panic) on any
//! inconsistency — counter mismatches, cached/cold divergence, pool
//! re-allocation after warmup, or a cached-hit path slower than 10× the
//! cold path. Runs in a few seconds; CI wraps it in `timeout`.

use dpnext::{Algorithm, Optimized, Optimizer};
use dpnext_serve::{OptimizerService, ServiceConfig};
use dpnext_workload::{generate_query, request_mix, GenConfig, MixConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const N: usize = 6;
const SEED: u64 = 42;
const THROUGHPUT_REQUESTS: usize = 64;
const HAMMER_THREADS: usize = 4;
const HAMMER_PER_THREAD: usize = 48;

fn main() {
    throughput_check();
    pool_warmup_check();
    hammer_check();
    println!("serve_smoke: OK");
}

/// Cached-hit path must beat the cold path by at least 10× plans/s on a
/// repeated shape (in practice the gap is orders of magnitude: a map
/// probe vs a full n=6 DP).
fn throughput_check() {
    let query = generate_query(&GenConfig::paper(N), SEED);

    let cold = OptimizerService::with_config(
        Optimizer::new(Algorithm::EaPrune).explain(false),
        ServiceConfig {
            cache_capacity: 0,
            pool_capacity: 0,
            deadline: None,
            ..ServiceConfig::default()
        },
    );
    let cold_pps = plans_per_sec(&cold, &query, THROUGHPUT_REQUESTS);

    let cached = OptimizerService::new(Optimizer::new(Algorithm::EaPrune).explain(false));
    cached.optimize(&query).unwrap(); // warm: the one and only miss
    let cached_pps = plans_per_sec(&cached, &query, THROUGHPUT_REQUESTS);

    let stats = cached.stats();
    assert_eq!(
        THROUGHPUT_REQUESTS as u64, stats.cache.hits,
        "warmed repeated shape must always hit"
    );
    assert!(
        cached_pps >= 10.0 * cold_pps,
        "cached-hit path too slow: {cached_pps:.0} plans/s vs cold {cold_pps:.0} plans/s"
    );
    println!(
        "serve_smoke: throughput cold={:.0} cached={:.0} plans/s ({:.0}x)",
        cold_pps,
        cached_pps,
        cached_pps / cold_pps.max(1.0)
    );
}

fn plans_per_sec(service: &OptimizerService, query: &dpnext_query::Query, requests: usize) -> f64 {
    let start = Instant::now();
    let mut plans = 0u64;
    for _ in 0..requests {
        plans += service.optimize(query).unwrap().result.plans_built;
    }
    plans as f64 / start.elapsed().as_secs_f64().max(1e-12)
}

/// After one warmup pass, a steady sequential load must never construct
/// another memo — the arena pool's high-water mark proves allocation
/// reuse.
fn pool_warmup_check() {
    let service = OptimizerService::with_config(
        Optimizer::new(Algorithm::EaPrune).explain(false),
        ServiceConfig {
            cache_capacity: 0,
            pool_capacity: 4,
            deadline: None,
            ..ServiceConfig::default()
        },
    );
    let mix = request_mix(&MixConfig::uniform(8, N), 8, SEED);
    for (_, query) in mix.iter() {
        service.optimize(query).unwrap();
    }
    let created_after_warmup = service.stats().pool.created;
    for _ in 0..3 {
        for (_, query) in mix.iter() {
            service.optimize(query).unwrap();
        }
    }
    let stats = service.stats();
    assert_eq!(
        created_after_warmup, stats.pool.created,
        "pool allocated a new arena after warmup"
    );
    println!(
        "serve_smoke: pool created={} reused={} arena_peak_capacity={}",
        stats.pool.created, stats.pool.reused, stats.pool.arena_peak_capacity
    );
}

/// Concurrent hammer: mixed hit/miss traffic from several threads, every
/// response checked against a cold reference, counters consistent.
fn hammer_check() {
    let total = HAMMER_THREADS * HAMMER_PER_THREAD;
    let mix = request_mix(&MixConfig::hot(6, 4), total, SEED);
    let service = Arc::new(OptimizerService::new(
        Optimizer::new(Algorithm::EaPrune).explain(false),
    ));
    let refs: Vec<Optimized> = mix
        .shapes()
        .iter()
        .map(|q| service.optimizer().optimize(q))
        .collect();

    let errors = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..HAMMER_THREADS {
            let (service, mix, refs, errors) = (&service, &mix, &refs, &errors);
            scope.spawn(move || {
                let chunk = &mix.schedule()[t * HAMMER_PER_THREAD..(t + 1) * HAMMER_PER_THREAD];
                for &shape in chunk {
                    let served = service
                        .optimize(&mix.shapes()[shape])
                        .expect("no faults injected");
                    if served.result.plan.cost.to_bits() != refs[shape].plan.cost.to_bits()
                        || served.result.plans_built != refs[shape].plans_built
                    {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    assert_eq!(0, errors.load(Ordering::Relaxed), "served plans diverged");
    let stats = service.stats();
    assert_eq!(total as u64, stats.requests);
    assert_eq!(
        total as u64,
        stats.cache.hits + stats.cache.misses,
        "hit/miss counters inconsistent"
    );
    println!(
        "serve_smoke: hammer requests={} hits={} misses={} entries={}",
        stats.requests, stats.cache.hits, stats.cache.misses, stats.cache.entries
    );
}
