//! Robustness smoke: the CI gate for the hardened serving guarantees.
//!
//! Two parts, both loud failures (non-zero exit) when a guarantee breaks:
//!
//! * **Part A — deadlines.** 30-relation chain/star/clique queries under
//!   tight wall-clock deadlines: every run must return a
//!   `validate_complete_plan`-clean plan, overshoot the deadline by at
//!   most `2 × SLACK`, and record a deadline abort whenever the clock
//!   (not the plan counter) cut the enumeration short.
//! * **Part B — fault hammer.** N service requests with K seeded faults
//!   (panics + slow enumerations) under a per-request deadline: exactly
//!   N − K(panic) requests succeed, every panic is contained and its
//!   memo quarantined, the pool never re-issues poisoned state, and no
//!   panic escapes the service (an escape kills the process — the
//!   hardest possible failure).
//!
//! Run under `timeout 120` in CI: a hang is a failure too.

use dpnext::adaptive::optimize_adaptive_run;
use dpnext::Optimizer;
use dpnext_core::{validate_complete_plan, Algorithm, OptimizeOptions};
use dpnext_serve::{Fault, FaultInjector, OptimizerService, ServeError, ServiceConfig};
use dpnext_workload::{generate_query, GenConfig, Topology};
use std::time::{Duration, Instant};

const DEADLINE_N: usize = 30;
const DEADLINES_MS: [u64; 2] = [10, 50];
/// Overshoot allowance per deadlined run: covers one enumeration work
/// unit plus finalize/stats on the plans built so far. The gate fails at
/// `deadline + 2 × SLACK`.
const SLACK: Duration = Duration::from_millis(100);

const HAMMER_REQUESTS: u64 = 200;
const HAMMER_PANIC_PER_MILLION: u32 = 150_000;
const HAMMER_SLOW_PER_MILLION: u32 = 50_000;
const HAMMER_UNIT_DELAY: Duration = Duration::from_micros(50);
const HAMMER_DEADLINE: Duration = Duration::from_millis(25);

fn main() {
    // Injected panics are expected traffic; everything else must stay
    // loud. (Even a silenced escaped panic still aborts the process —
    // the hook only controls the message, not the unwinding.)
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("injected fault"));
        if !injected {
            prev(info);
        }
    }));

    deadline_part();
    hammer_part();
    println!("ROBUSTNESS_OK");
}

/// Part A: graceful degradation under wall-clock deadlines.
fn deadline_part() {
    for (topo, tag) in [
        (Topology::Chain, "chain"),
        (Topology::Star, "star"),
        (Topology::Clique, "clique"),
    ] {
        for deadline_ms in DEADLINES_MS {
            let deadline = Duration::from_millis(deadline_ms);
            let q = generate_query(&GenConfig::topology(DEADLINE_N, topo), 2);
            let opts = OptimizeOptions {
                explain: false,
                deadline: Some(deadline),
                ..OptimizeOptions::default()
            };
            let start = Instant::now();
            let run = optimize_adaptive_run(&q, &opts);
            let elapsed = start.elapsed();
            validate_complete_plan(&run.ctx, &run.memo, run.winner)
                .unwrap_or_else(|e| panic!("deadlined {tag} plan is structurally invalid: {e}"));
            let overshoot = elapsed.saturating_sub(deadline);
            assert!(
                overshoot <= 2 * SLACK,
                "{tag} n={DEADLINE_N} deadline={deadline_ms}ms: overshoot {overshoot:?} \
                 exceeds 2x slack ({:?})",
                2 * SLACK
            );
            let stats = run.optimized.memo;
            if topo == Topology::Star {
                // The expressible worst case (#ccp = 29*2^28) can never
                // finish its exact rung inside these deadlines: the clock
                // must be the recorded cause.
                assert!(
                    stats.degradation.deadline_aborted,
                    "{tag} n={DEADLINE_N} deadline={deadline_ms}ms: \
                     expected a deadline abort, got {}",
                    stats.degradation
                );
            }
            println!(
                "deadline {tag:<7} n={DEADLINE_N} deadline={deadline_ms:>3}ms: \
                 elapsed={elapsed:?} overshoot={overshoot:?} mode={} degraded={}",
                stats.adaptive_mode, stats.degradation
            );
        }
    }
}

/// Part B: panic isolation and memo quarantine under a seeded fault
/// schedule, with a service deadline keeping slow faults bounded.
fn hammer_part() {
    let inj = FaultInjector::new(
        0xD15EA5E,
        HAMMER_PANIC_PER_MILLION,
        HAMMER_SLOW_PER_MILLION,
        HAMMER_UNIT_DELAY,
    );
    let schedule: Vec<Fault> = (0..HAMMER_REQUESTS).map(|i| inj.fault_for(i)).collect();
    let expected_panics = schedule.iter().filter(|f| **f == Fault::Panic).count() as u64;
    let expected_slow = schedule.iter().filter(|f| **f == Fault::Slow).count() as u64;
    assert!(
        expected_panics > 0 && expected_slow > 0,
        "seed must schedule both fault kinds (got {expected_panics} panics, \
         {expected_slow} slow)"
    );

    let service = OptimizerService::with_config(
        Optimizer::new(Algorithm::EaPrune).explain(false),
        ServiceConfig {
            cache_capacity: 0, // every request must actually run (and may fault)
            pool_capacity: 4,
            deadline: Some(HAMMER_DEADLINE),
            ..ServiceConfig::default()
        },
    )
    .with_fault_injection(inj);

    let (mut ok, mut panicked, mut degraded) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for i in 0..HAMMER_REQUESTS {
        // 6-10 relations over mixed topologies: small enough to finish
        // clean runs fast, big enough that a slow fault hits the ladder.
        let topo = [Topology::Chain, Topology::Star, Topology::Mixed][(i % 3) as usize];
        let q = generate_query(&GenConfig::topology(6 + (i as usize % 5), topo), i);
        match service.optimize(&q) {
            Ok(r) => {
                ok += 1;
                assert!(
                    r.result.plan.cost.is_finite(),
                    "request {i}: served a non-finite plan cost"
                );
                degraded += r.result.memo.degradation.deadline_aborted as u64;
            }
            Err(ServeError::Panicked(msg)) => {
                panicked += 1;
                assert!(
                    msg.contains("injected fault"),
                    "request {i}: unexpected panic escaped into the error: {msg}"
                );
            }
            Err(e) => panic!("request {i}: unexpected error kind: {e}"),
        }
    }
    let elapsed = start.elapsed();

    assert_eq!(
        HAMMER_REQUESTS - expected_panics,
        ok,
        "every non-panicking request must succeed"
    );
    assert_eq!(expected_panics, panicked);
    let stats = service.stats();
    assert_eq!(expected_panics, stats.panics);
    assert_eq!(
        expected_panics, stats.pool.quarantined,
        "every memo live during a panic must be quarantined"
    );
    assert_eq!(
        0, stats.pool.rejected_invalid,
        "clean runs must never park an invalid memo"
    );
    assert_eq!(
        HAMMER_REQUESTS,
        stats.pool.created + stats.pool.reused,
        "one checkout per request"
    );
    assert!(
        stats.pool.created <= expected_panics + 1,
        "pool re-created more memos ({}) than quarantines + warmup ({})",
        stats.pool.created,
        expected_panics + 1
    );
    println!(
        "hammer: {HAMMER_REQUESTS} requests in {elapsed:?}, {ok} ok \
         ({degraded} deadline-degraded), {panicked} isolated panics, \
         {} quarantined memos, {} pool creates",
        stats.pool.quarantined, stats.pool.created
    );
}
