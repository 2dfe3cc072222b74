//! The robustness layer end to end: panic isolation with memo
//! quarantine under a deterministic fault schedule, deadline degradation
//! at the service level, and the guarantee that unconstrained requests
//! are untouched by either mechanism.

use dpnext::{Algorithm as A, Optimizer};
use dpnext_serve::{Fault, FaultInjector, OptimizerService, ServeError, ServiceConfig};
use dpnext_workload::{generate_query, GenConfig, Topology};
use rand::{rngs::StdRng, Rng, SeedableRng};
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

/// The statements the SQL fuzz mutates: between them `join`, `semi` and
/// `anti join`, `left` and `full outer join`, nested parentheses, an `and`
/// condition, `avg`, `count(distinct ..)` and scalar aggregates.
const FUZZ_SEEDS: [&str; 7] = [
    "select ns.n_name, nc.n_name, count(*) \
     from (nation ns join supplier s on ns.n_nationkey = s.s_nationkey) \
     full outer join (nation nc join customer c on nc.n_nationkey = c.c_nationkey) \
     on ns.n_nationkey = nc.n_nationkey group by ns.n_name, nc.n_name",
    "select r.r_name, count(*), min(c.c_acctbal) \
     from region r join nation n on r.r_regionkey = n.n_regionkey \
     join (customer c anti join orders o on c.c_custkey = o.o_custkey) \
     on n.n_nationkey = c.c_nationkey group by r.r_name",
    "select n.n_name, count(*) from nation n semi join supplier s \
     on n.n_nationkey = s.s_nationkey group by n.n_name",
    "select c.c_mktsegment, count(o.o_orderkey), sum(l.l_quantity) \
     from customer c left outer join orders o on c.c_custkey = o.o_custkey \
     left outer join lineitem l on o.o_orderkey = l.l_orderkey group by c.c_mktsegment",
    "select c.c_mktsegment, max(s.s_acctbal) from customer c join supplier s \
     on c.c_nationkey = s.s_nationkey and c.c_acctbal = s.s_acctbal group by c.c_mktsegment",
    "select n.n_name, avg(s.s_acctbal), count(distinct s.s_nationkey) \
     from nation n join supplier s on n.n_nationkey = s.s_nationkey group by n.n_name",
    "select count(*), sum(l.l_quantity), max(o.o_totalprice) \
     from orders o join lineitem l on o.o_orderkey = l.l_orderkey \
     semi join customer c on o.o_custkey = c.c_custkey",
];

/// What the byte-level edits splice in: quotes, parentheses, a two-byte
/// letter, the no-break space and NEL (whitespace to Unicode, not to SQL),
/// a literal no integer type holds, and the punctuation of the grammar.
const FUZZ_SPLICES: [&str; 12] = [
    "'",
    "\"",
    "(",
    ")",
    "é",
    "\u{a0}",
    "\u{85}",
    "12345678901234567890",
    ",",
    ".",
    "*",
    "=",
];

/// Words (qualified names whole) and punctuation of `text`, in order,
/// whitespace dropped.
fn fuzz_tokens(text: &str) -> Vec<&str> {
    let word = |c: char| c.is_alphanumeric() || c == '_' || c == '.';
    let mut tokens = Vec::new();
    let mut rest = text.trim_start();
    while let Some(first) = rest.chars().next() {
        let len = if word(first) {
            rest.find(|c| !word(c)).unwrap_or(rest.len())
        } else {
            first.len_utf8()
        };
        tokens.push(&rest[..len]);
        rest = rest[len..].trim_start();
    }
    tokens
}

/// The SQL door fails closed: seeded token- and byte-level mutants of the
/// seed statements — most of them garbage, some of them other valid
/// statements — get a plan or a `ServeError::Sql` through the service,
/// never a panic, and every rejected text is on the books.
#[test]
fn mutated_sql_gets_a_plan_or_a_sql_error_never_a_panic() {
    const MUTANTS: u64 = 20_000;
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut below = move |n: usize| rng.gen_range(0..n);
    let service = OptimizerService::new(quiet_optimizer(A::EaPrune));
    let (mut planned, mut rejected) = (0u64, 0u64);
    for _ in 0..MUTANTS {
        let seed = FUZZ_SEEDS[below(FUZZ_SEEDS.len())];
        // Inserted and replacing tokens come from the statement itself, so
        // some mutants name its own tables and columns in new places.
        let pool = fuzz_tokens(seed);
        let mut text = seed.to_string();
        for _ in 0..1 + below(3) {
            // A char boundary of the current text, for the byte-level edits.
            let cut = text.floor_char_boundary(below(text.len() + 1));
            match below(7) {
                edit @ 0..=3 => {
                    let mut tokens = fuzz_tokens(&text);
                    if tokens.is_empty() {
                        continue;
                    }
                    let (at, other) = (below(tokens.len()), below(tokens.len()));
                    match edit {
                        0 => drop(tokens.remove(at)),
                        1 => tokens.insert(at, pool[below(pool.len())]),
                        2 => {
                            // Like for like (a qualified name, a word, a
                            // punctuation mark): stays near the grammar.
                            let kind =
                                |t: &str| (t.contains('.'), t.starts_with(char::is_alphabetic));
                            let like: Vec<_> = pool
                                .iter()
                                .filter(|t| kind(t) == kind(tokens[at]))
                                .collect();
                            if !like.is_empty() {
                                tokens[at] = like[below(like.len())];
                            }
                        }
                        _ => tokens.swap(at, other),
                    }
                    text = tokens.join(" ");
                }
                4 => text.truncate(cut),
                edit => {
                    // Splice in, or overwrite the char at `cut` with, a piece.
                    let until = match text[cut..].chars().next() {
                        Some(c) if edit == 5 => cut + c.len_utf8(),
                        _ => cut,
                    };
                    text.replace_range(cut..until, FUZZ_SPLICES[below(FUZZ_SPLICES.len())]);
                }
            }
        }
        match service.optimize_sql(&text) {
            Ok(reply) => {
                planned += 1;
                assert!(reply.result.plan.cost.is_finite(), "{text}");
            }
            Err(ServeError::Sql(_)) => rejected += 1,
            Err(e) => panic!("{text}: {e}"),
        }
    }
    println!("{planned} of {MUTANTS} mutants bound, {rejected} were SQL errors");
    assert!(
        100 * planned >= MUTANTS,
        "only {planned} of {MUTANTS} mutants bound: the generator has decayed into noise"
    );
    let stats = service.stats();
    assert_eq!(MUTANTS, stats.requests);
    assert_eq!(
        rejected,
        service
            .registry()
            .snapshot()
            .counter_total("dpnext_sql_errors_total")
    );
    assert_eq!((0, 0), (stats.panics, stats.pool.quarantined));
}
