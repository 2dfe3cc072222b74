//! The robustness layer end to end: panic isolation with memo
//! quarantine under a deterministic fault schedule, deadline degradation
//! at the service level, and the guarantee that unconstrained requests
//! are untouched by either mechanism.

use dpnext::{Algorithm as A, Optimizer};
use dpnext_serve::{Fault, FaultInjector, OptimizerService, ServeError, ServiceConfig};
use dpnext_workload::{generate_query, GenConfig, Topology};
use std::time::Duration;

fn quiet_optimizer(algo: A) -> Optimizer {
    Optimizer::new(algo).explain(false)
}

/// N requests with K injected panics next to injected slow enumerations,
/// under a service deadline that keeps the slow ones bounded: exactly N−K
/// succeed, every panic is contained to its own request, every memo live
/// during a panic is quarantined, and the pool never re-issues a poisoned
/// memo.
#[test]
fn fault_hammer_survives_and_quarantines() {
    let n_requests = 64u64;
    let inj = FaultInjector::new(0xBEEF, 250_000, 100_000, Duration::from_micros(50));
    let count = |kind: Fault| {
        (0..n_requests)
            .filter(|&i| inj.fault_for(i) == kind)
            .count() as u64
    };
    let expected_panics = count(Fault::Panic);
    assert!(
        expected_panics > 0 && count(Fault::Slow) > 0,
        "seed must schedule both fault kinds for the test to mean anything"
    );
    // Cache off so every request actually runs the optimizer (and can
    // fault); pool on so quarantine has a free list to protect.
    let service = OptimizerService::with_config(
        quiet_optimizer(A::EaPrune).deadline(Some(Duration::from_millis(25))),
        ServiceConfig {
            cache_capacity: 0,
            pool_capacity: 4,
            ..ServiceConfig::default()
        },
    )
    .with_fault_injection(inj);

    // The injected panics are expected: keep them off the test output.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (mut ok, mut panicked) = (0u64, 0u64);
    for i in 0..n_requests {
        // 6-10 relations over mixed topologies: small enough that clean
        // runs finish fast, big enough that a slow fault hits the ladder.
        let topo = [Topology::Chain, Topology::Star, Topology::Mixed][(i % 3) as usize];
        let q = generate_query(&GenConfig::topology(6 + (i as usize % 5), topo), i);
        match service.optimize(&q) {
            Ok(r) => {
                ok += 1;
                assert!(!r.cache_hit);
                assert!(r.result.plan.cost.is_finite(), "request {i}");
            }
            Err(ServeError::Panicked(msg)) => {
                panicked += 1;
                assert!(msg.contains("injected fault"), "unexpected panic: {msg}");
            }
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    }
    std::panic::set_hook(prev);

    assert_eq!(n_requests - expected_panics, ok);
    assert_eq!(expected_panics, panicked);
    let stats = service.stats();
    assert_eq!(n_requests, stats.requests);
    assert_eq!(expected_panics, stats.panics);
    assert_eq!(expected_panics, stats.pool.quarantined);
    // Each request checked out exactly one memo; reuses can only come
    // from cleanly parked memos, so a quarantine always forces the next
    // checkout to construct fresh — never to inherit poisoned state.
    assert_eq!(n_requests, stats.pool.created + stats.pool.reused);
    assert!(
        stats.pool.created <= expected_panics + 1,
        "sequential load must only re-create after a quarantine \
         (created {} for {} panics)",
        stats.pool.created,
        expected_panics
    );
    assert_eq!(0, stats.pool.rejected_invalid);
}

/// A deadline-pressured request returns a valid degraded plan (not an
/// error), is counted, and is kept out of the plan cache so a later
/// uncontended arrival re-optimizes.
#[test]
fn deadline_pressured_requests_degrade_and_skip_the_cache() {
    let q = generate_query(&GenConfig::topology(30, Topology::Star), 2);
    let service = OptimizerService::with_config(
        quiet_optimizer(A::EaPrune).deadline(Some(Duration::from_millis(10))),
        ServiceConfig {
            cache_capacity: 1024,
            pool_capacity: 4,
            ..ServiceConfig::default()
        },
    );
    let r = service.optimize(&q).expect("degradation is not an error");
    assert!(!r.cache_hit);
    assert!(
        r.result.memo.degradation.deadline_aborted,
        "a 30-relation star cannot finish exact DP in 10ms"
    );
    let stats = service.stats();
    assert_eq!(1, stats.deadline_degraded);
    assert_eq!(0, stats.cache.entries, "degraded plans must not be cached");
    let r2 = service.optimize(&q).expect("degradation is not an error");
    assert!(
        !r2.cache_hit,
        "a degraded plan must not serve later arrivals"
    );
}

/// An injected slow enumeration under a service deadline rides the
/// degradation ladder instead of blowing the latency budget.
#[test]
fn slow_fault_rides_the_degradation_ladder() {
    let inj = FaultInjector::new(1, 0, 1_000_000, Duration::from_micros(200));
    let q = generate_query(&GenConfig::topology(10, Topology::Chain), 0);
    let service = OptimizerService::with_config(
        quiet_optimizer(A::EaPrune).deadline(Some(Duration::from_millis(5))),
        ServiceConfig {
            cache_capacity: 0,
            pool_capacity: 2,
            ..ServiceConfig::default()
        },
    )
    .with_fault_injection(inj);
    let r = service
        .optimize(&q)
        .expect("slow requests degrade, not fail");
    assert!(
        r.result.memo.degradation.deadline_aborted,
        "200µs per work unit under a 5ms deadline must abort on the clock"
    );
    assert_eq!(1, service.stats().deadline_degraded);
}

/// With no deadline configured, the robustness layer is inert: the
/// service's result is bit-identical to a cold facade run of the same
/// algorithm, with no degradation attributed to the clock.
#[test]
fn unconstrained_requests_stay_bit_identical() {
    let q = generate_query(&GenConfig::topology(30, Topology::Star), 2);
    let opt = quiet_optimizer(A::Adaptive);
    let cold = opt.optimize(&q);
    let service = OptimizerService::with_config(
        opt,
        ServiceConfig {
            cache_capacity: 16,
            pool_capacity: 2,
            ..ServiceConfig::default()
        },
    );
    let served = service.optimize(&q).expect("no faults injected");
    assert_eq!(
        cold.plan.cost.to_bits(),
        served.result.plan.cost.to_bits(),
        "deadline-free serving must not perturb the plan"
    );
    assert_eq!(cold.plans_built, served.result.plans_built);
    assert!(!served.result.memo.degradation.deadline_aborted);
    assert_eq!(0, service.stats().deadline_degraded);
}
