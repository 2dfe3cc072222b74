//! Overload smoke: the CI gate for the resource-governance guarantees.
//!
//! Two parts, both loud failures (non-zero exit) when a guarantee breaks:
//!
//! * **Part A — burst admission.** A 200-request synchronized burst at a
//!   concurrency cap of 4 (plus a bounded wait queue) with injected
//!   memory-pressure faults: every request must resolve as an admitted
//!   success or a fast `Overloaded` rejection (nothing lost, nothing
//!   hung), the wait queue must never grow past its bound, the global
//!   byte ledger must stay under its cap, and no panic may escape.
//! * **Part B — breaker recovery.** A shape is driven into its circuit
//!   breaker by windowed memory-pressure faults, served from the greedy
//!   rung while open, and must close again via a half-open probe once
//!   the faults stop — a breaker that never closes starves the shape of
//!   full-quality plans forever.
//!
//! Run under `timeout 120` in CI: a hang is a failure too.

use dpnext::Optimizer;
use dpnext_core::Algorithm;
use dpnext_serve::{
    BurstSchedule, Fault, FaultInjector, OptimizerService, ServeError, ServiceConfig,
};
use dpnext_workload::{generate_query, GenConfig, Topology};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const BURST_REQUESTS: usize = 200;
const BURST_CONCURRENT: usize = 4;
const BURST_QUEUED: usize = 4;
/// Generous global cap: 8 registered memos (4 checked out + 4 parked) of
/// n≤9 arenas peak well under it, so a breach can only mean the
/// accounting leaked — a release path that stopped subtracting compounds
/// over 200 requests and blows straight past this bound.
const BURST_LEDGER_CAP: u64 = 256 << 20;
const PRESSURE_PER_MILLION: u32 = 300_000;
const PRESSURE_BUDGET: u64 = 64 << 10;

const BREAKER_THRESHOLD: u32 = 2;
const BREAKER_COOLDOWN: Duration = Duration::from_millis(20);

fn main() {
    burst_part();
    breaker_part();
    println!("OVERLOAD_OK");
}

fn quiet_optimizer() -> Optimizer {
    Optimizer::new(Algorithm::EaPrune).explain(false)
}

/// Part A: bounded admission and ledger accounting under a synchronized
/// fault-laden burst.
fn burst_part() {
    let inj = FaultInjector::new(0xCAFE, 0, 0, Duration::ZERO)
        .with_memory_pressure(PRESSURE_PER_MILLION, PRESSURE_BUDGET);
    let service = Arc::new(
        OptimizerService::with_config(
            quiet_optimizer(),
            ServiceConfig {
                cache_capacity: 0, // every request must reach the gate
                pool_capacity: 4,
                max_concurrent: BURST_CONCURRENT,
                max_queued: BURST_QUEUED,
                memory_cap_bytes: BURST_LEDGER_CAP,
                ..ServiceConfig::default()
            },
        )
        .with_fault_injection(inj),
    );
    // Four synchronized waves: the arrival schedule is pure arithmetic
    // (`BurstSchedule`), so the burst shape is pinned, not left to the
    // thread scheduler.
    let sched = BurstSchedule::new(50, Duration::from_millis(30));
    let waves = 1 + sched.burst_of((BURST_REQUESTS - 1) as u64) as usize;
    let barrier = Arc::new(Barrier::new(BURST_REQUESTS));
    let start = Instant::now();
    let handles: Vec<_> = (0..BURST_REQUESTS)
        .map(|i| {
            let service = service.clone();
            let barrier = barrier.clone();
            let offset = sched.arrival_offset(i as u64);
            std::thread::spawn(move || {
                let topo = [Topology::Chain, Topology::Star, Topology::Clique][i % 3];
                let q = generate_query(&GenConfig::topology(6 + i % 4, topo), i as u64);
                barrier.wait();
                std::thread::sleep(offset.saturating_sub(start.elapsed()));
                match service.optimize(&q) {
                    Ok(r) => {
                        assert!(
                            r.result.plan.cost.is_finite(),
                            "request {i}: served a non-finite plan cost"
                        );
                        (1u64, 0u64)
                    }
                    Err(ServeError::Overloaded { retry_after_hint }) => {
                        assert!(
                            retry_after_hint > Duration::ZERO,
                            "request {i}: rejection must carry a retry hint"
                        );
                        (0, 1)
                    }
                    Err(e) => panic!("request {i}: unexpected error kind: {e}"),
                }
            })
        })
        .collect();
    let (mut ok, mut rejected) = (0u64, 0u64);
    for h in handles {
        // An escaping panic surfaces here as a failed join — the hardest
        // possible failure, and exactly what this gate must catch.
        let (o, r) = h.join().expect("no panic may escape a service request");
        ok += o;
        rejected += r;
    }
    let elapsed = start.elapsed();

    assert_eq!(
        BURST_REQUESTS as u64,
        ok + rejected,
        "every burst request must resolve as a success or a fast rejection"
    );
    let stats = service.stats();
    assert_eq!(0, stats.panics, "no faults of the panic kind were injected");
    assert_eq!(rejected, stats.gate.rejected);
    assert_eq!(ok, stats.gate.admitted);
    assert!(
        stats.gate.queued_peak <= BURST_QUEUED as u64,
        "wait queue grew past its bound: {} > {BURST_QUEUED}",
        stats.gate.queued_peak
    );
    assert!(
        stats.ledger.peak <= BURST_LEDGER_CAP,
        "ledger peak {} breached the {BURST_LEDGER_CAP}-byte cap",
        stats.ledger.peak
    );
    assert!(
        stats.memory_degraded > 0,
        "the seeded pressure faults must degrade someone (got none in \
         {ok} admitted requests)"
    );
    println!(
        "burst: {BURST_REQUESTS} requests ({waves} waves) in {elapsed:?}: {ok} served, \
         {rejected} rejected fast, queue peak {}, {} memory-degraded, \
         ledger peak {} / cap {BURST_LEDGER_CAP}",
        stats.gate.queued_peak, stats.memory_degraded, stats.ledger.peak
    );
}

/// Part B: the circuit breaker trips under windowed pressure faults and
/// — the recovery guarantee — closes again once the faults stop.
fn breaker_part() {
    // Requests 0..THRESHOLD run under a 1-byte injected budget: each one
    // memory-aborts, so exactly THRESHOLD failures trip the breaker.
    let inj = FaultInjector::new(0, 0, 0, Duration::ZERO)
        .with_memory_pressure(1_000_000, 1)
        .with_window(0, BREAKER_THRESHOLD as u64);
    assert!(
        (0..BREAKER_THRESHOLD as u64).all(|i| inj.fault_for(i) == Fault::MemoryPressure),
        "the window must pressure every tripping request"
    );
    let service = OptimizerService::with_config(
        quiet_optimizer(),
        ServiceConfig {
            cache_capacity: 0, // every arrival must consult the breaker
            pool_capacity: 4,
            breaker_threshold: BREAKER_THRESHOLD,
            breaker_cooldown: BREAKER_COOLDOWN,
            ..ServiceConfig::default()
        },
    )
    .with_fault_injection(inj);
    let q = generate_query(&GenConfig::paper(6), 7);

    for i in 0..BREAKER_THRESHOLD as u64 {
        let r = service
            .optimize(&q)
            .unwrap_or_else(|e| panic!("pressured request {i} must degrade, not fail: {e}"));
        assert!(r.result.plan.cost.is_finite());
    }
    let stats = service.stats();
    assert_eq!(
        1, stats.breaker.trips,
        "{BREAKER_THRESHOLD} consecutive memory aborts must trip the breaker"
    );

    // Open: the shape is served from the greedy rung, not failed.
    let r = service.optimize(&q).expect("open serving must not error");
    assert!(r.result.plan.cost.is_finite());
    assert!(
        service.stats().breaker.open_served >= 1,
        "a tripped shape must be served from the greedy rung"
    );

    // Faults are over (the window passed); after the cooldown the next
    // arrival probes at full quality and must close the breaker.
    let recovery_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(BREAKER_COOLDOWN + Duration::from_millis(5));
        service
            .optimize(&q)
            .expect("post-window requests run clean");
        let b = service.stats().breaker;
        if b.closes >= 1 && b.open_shapes == 0 {
            break;
        }
        assert!(
            Instant::now() < recovery_deadline,
            "breaker never closed after the faults stopped: {b:?}"
        );
    }
    let stats = service.stats();
    println!(
        "breaker: tripped after {BREAKER_THRESHOLD} memory aborts, {} open-served, \
         {} probes, closed again ({} closes, {} open shapes remain)",
        stats.breaker.open_served,
        stats.breaker.probes,
        stats.breaker.closes,
        stats.breaker.open_shapes
    );
}
