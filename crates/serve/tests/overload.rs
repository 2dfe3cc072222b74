//! The resource-governance layer end to end: bounded admission under a
//! synchronized burst, and quarantined footprints staying accounted at
//! the service level.

use dpnext::{Algorithm as A, Optimizer};
use dpnext_serve::{FaultInjector, OptimizerService, ServeError, ServiceConfig};
use dpnext_workload::{generate_query, GenConfig, Topology};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// The acceptance identity: a synchronized burst of N requests over an
/// admission cap of 4 (2 concurrent + 2 queued) splits exactly into
/// admitted successes and fast `Overloaded` rejections — no request is
/// lost, none panics, and the wait queue never grows past its bound. Every
/// request runs under an expired deadline, so the admitted ones degrade
/// instead of failing and the pool's byte books stay under a generous leak
/// bound.
#[test]
fn burst_over_admission_cap_rejects_fast_and_serves_the_rest() {
    const N: usize = 16;
    // A leak bound, not a service cap: the 2 checked-out + 4 parked memos
    // of 9-relation runs peak far below it, so a breach can only mean the
    // accounting leaked.
    // The deadline has passed when the run starts, and the greedy rung
    // ignores the clock, so every admitted run ships its greedy plan as
    // deadline-aborted.
    const BYTES_CAP: u64 = 256 << 20;
    // Every admitted run stalls 10 ms in its gate slot before it runs, so it
    // outlasts the burst's arrival window on any machine and the rejection
    // below does not depend on scheduler timing.
    let inj = FaultInjector::new(0xCAFE, 0, 1_000_000, Duration::from_millis(10));
    let service = Arc::new(
        OptimizerService::with_config(
            Optimizer::new(A::EaPrune).deadline(Some(Duration::ZERO)),
            ServiceConfig {
                cache_capacity: 0, // every request must reach the gate
                pool_capacity: 4,
                max_concurrent: 2,
                max_queued: 2,
            },
        )
        .with_fault_injection(inj),
    );
    let barrier = Arc::new(Barrier::new(N));
    let handles: Vec<_> = (0..N)
        .map(|i| {
            let service = service.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                // Distinct shapes (cache off anyway) big enough that the
                // admitted runs overlap the rejected arrivals.
                let q = generate_query(&GenConfig::topology(9, Topology::Clique), i as u64);
                barrier.wait();
                match service.optimize(&q) {
                    Ok(r) => {
                        assert!(r.result.plan.cost.is_finite());
                        (1u64, 0u64)
                    }
                    Err(ServeError::Overloaded { retry_after_hint }) => {
                        assert!(retry_after_hint > Duration::ZERO);
                        (0, 1)
                    }
                    Err(e) => panic!("unexpected error kind: {e}"),
                }
            })
        })
        .collect();
    let (mut ok, mut rejected) = (0u64, 0u64);
    for h in handles {
        let (o, r) = h.join().expect("no escaping panics");
        ok += o;
        rejected += r;
    }
    assert_eq!(N as u64, ok + rejected, "every request must be accounted");
    assert!(
        rejected >= 1,
        "16 simultaneous arrivals over a 2+2 gate must reject someone"
    );
    let stats = service.stats();
    assert_eq!(0, stats.panics);
    assert_eq!(rejected, stats.gate.rejected);
    assert_eq!(ok, stats.gate.admitted);
    assert!(
        stats.gate.queued_peak <= 2,
        "wait queue grew past its bound: {}",
        stats.gate.queued_peak
    );
    assert!(
        stats.pool.bytes_peak <= BYTES_CAP,
        "pool byte peak {} breached the {BYTES_CAP}-byte leak bound",
        stats.pool.bytes_peak
    );
    assert_eq!(
        ok, stats.deadline_degraded,
        "every admitted request ran under the optimizer's expired deadline"
    );
    assert!(stats.deadline_degraded > 0);
}

/// Service-level regression for the quarantine accounting fix: a panic
/// destroys the request's memo, and its footprint is *released and
/// tallied* by the pool — it no longer vanishes from the books.
#[test]
fn quarantined_footprints_stay_on_the_ledger_books() {
    let inj = FaultInjector::new(0, 1_000_000, 0, Duration::ZERO).with_window(1, 2);
    let service = OptimizerService::with_config(
        Optimizer::new(A::EaPrune),
        ServiceConfig {
            cache_capacity: 0,
            pool_capacity: 4,
            ..ServiceConfig::default()
        },
    )
    .with_fault_injection(inj);
    let q = generate_query(&GenConfig::paper(5), 3);
    service.optimize(&q).expect("request 0 runs clean");
    let parked = service.stats().pool.bytes;
    assert!(parked > 0);

    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = service.optimize(&q);
    std::panic::set_hook(prev);
    assert!(matches!(err, Err(ServeError::Panicked(_))));

    let stats = service.stats();
    assert_eq!(1, stats.pool.quarantined);
    // The panicked request had checked out the parked memo, so the
    // quarantine destroyed exactly that footprint: the pool releases it
    // in full and tallies it — nothing vanishes, nothing lingers.
    assert_eq!(
        parked, stats.pool.quarantined_bytes,
        "the destroyed footprint must be tallied"
    );
    assert_eq!(
        0, stats.pool.bytes,
        "quarantine must release the destroyed memo's registered bytes"
    );
}
