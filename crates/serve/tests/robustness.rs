//! The robustness layer end to end: panic isolation with memo
//! quarantine under a deterministic fault schedule, deadline degradation
//! at the service level, and the guarantee that unconstrained requests
//! are untouched by either mechanism.

use dpnext::{Algorithm as A, Optimizer};
use dpnext_serve::{
    fingerprint_query, Fault, FaultInjector, OptimizerService, ServeError, ServiceConfig,
};
use dpnext_workload::{generate_query, GenConfig, Topology};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn quiet_optimizer(algo: A) -> Optimizer {
    Optimizer::new(algo).explain(false)
}

/// N requests with K injected panics next to injected stalls, under a
/// service deadline: exactly N−K succeed, every panic is contained to its
/// own request, every memo live during a panic is quarantined, and the pool
/// never re-issues a poisoned memo.
#[test]
fn fault_hammer_survives_and_quarantines() {
    let n_requests = 64u64;
    let stall = Duration::from_micros(50);
    let inj = FaultInjector::new(0xBEEF, 250_000, 100_000, stall);
    let count = |kind: Fault| {
        (0..n_requests)
            .filter(|&i| inj.fault_for(i) == kind)
            .count() as u64
    };
    let expected_panics = count(Fault::Panic);
    assert!(
        expected_panics > 0 && count(Fault::Slow(stall)) > 0,
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
        // 6-10 relations over mixed topologies: small enough that every
        // run, stalled or not, finishes fast.
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

/// A `Slow` fault stalls the request before its optimizer call under every
/// algorithm — an exact run as much as the ladder — and the request then
/// runs under its own limits and returns a plan.
#[test]
fn slow_fault_stalls_every_algorithm() {
    let stall = Duration::from_millis(20);
    let q = generate_query(&GenConfig::topology(8, Topology::Chain), 0);
    for algo in [A::DPhyp, A::EaPrune, A::Adaptive] {
        let service = OptimizerService::with_config(
            quiet_optimizer(algo),
            ServiceConfig {
                cache_capacity: 0,
                pool_capacity: 2,
                ..ServiceConfig::default()
            },
        )
        .with_fault_injection(FaultInjector::new(1, 0, 1_000_000, stall));
        let started = Instant::now();
        let r = service.optimize(&q).expect("a stalled request still runs");
        let took = started.elapsed();
        assert!(
            took >= stall,
            "{algo:?} returned in {took:?}, under the stall"
        );
        assert!(r.result.plan.cost.is_finite(), "{algo:?}");
        assert!(!r.result.memo.degradation.deadline_aborted, "{algo:?}");
    }
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

/// One seeded mutant of one of the [`FUZZ_SEEDS`]: one to three token- or
/// byte-level edits. Most mutants are garbage, some are other valid
/// statements.
fn fuzz_mutant(below: &mut impl FnMut(usize) -> usize) -> String {
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
                        let kind = |t: &str| (t.contains('.'), t.starts_with(char::is_alphabetic));
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
    text
}

/// The fuzz's mutant stream: the same 20,000 texts for every test that
/// draws it.
const MUTANTS: u64 = 20_000;

fn fuzz_mutants() -> impl Iterator<Item = String> {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut below = move |n: usize| rng.gen_range(0..n);
    (0..MUTANTS).map(move |_| fuzz_mutant(&mut below))
}

/// `select n0.n_name from nation n0 join nation n1 on ... join ...`: a
/// chain of `tables` occurrences of `nation`, each joined to the one
/// before it on the key. Every intermediate result has 25 rows.
fn nation_chain(tables: usize) -> String {
    let mut text = String::from("select n0.n_name from nation n0");
    for i in 1..tables {
        text += &format!(
            " join nation n{i} on n{}.n_nationkey = n{i}.n_nationkey",
            i - 1
        );
    }
    text
}

/// The SQL door fails closed: seeded token- and byte-level mutants of the
/// seed statements get a plan or a `ServeError::Sql` through the service,
/// never a panic, and every rejected text is on the books. Every mutant is
/// sent twice, which holds the front map to its contract: the second
/// arrival of a text gets what a cold parse + bind + optimize of the same
/// bytes gets — the very plan the first arrival got, without being parsed
/// — and a rejected text is rejected, and counted, again. Last, the texts
/// a parser must refuse by size: they used to overflow the stack (an
/// abort no `catch_unwind` contains) or reach the optimizer and panic there.
#[test]
fn mutated_sql_gets_a_plan_or_a_sql_error_never_a_panic() {
    let service = OptimizerService::new(quiet_optimizer(A::EaPrune));
    let counter = |name: &str| service.registry().snapshot().counter_total(name);
    // The registered cell itself (a registry hands out the existing handle
    // of a name): read twice per mutant, where a snapshot is too dear.
    let front_hits = service.registry().counter("dpnext_front_hits_total", "");
    let (mut planned, mut rejected) = (0u64, 0u64);
    for text in fuzz_mutants() {
        let first = service.optimize_sql_bound(&text);
        let hits = front_hits.get();
        let second = service.optimize_sql_bound(&text);
        match (first, second) {
            (Ok((bound, reply)), Ok((bound_again, again))) => {
                planned += 1;
                assert!(reply.result.plan.cost.is_finite(), "{text}");
                assert!(again.cache_hit, "{text}");
                assert!(Arc::ptr_eq(&reply.result, &again.result), "{text}");
                assert!(Arc::ptr_eq(&bound, &bound_again), "{text}");
                assert_eq!(hits + 1, front_hits.get(), "{text}");
                let cold = dpnext::sql::plan(&text, service.optimizer().catalog()).unwrap();
                assert_eq!(cold.output_names, bound.output_names, "{text}");
                assert_eq!(cold.occurrences, bound.occurrences, "{text}");
                assert_eq!(
                    service
                        .optimizer()
                        .optimize(&cold.query)
                        .plan
                        .cost
                        .to_bits(),
                    again.result.plan.cost.to_bits(),
                    "{text}"
                );
            }
            (Err(ServeError::Sql(e)), Err(ServeError::Sql(again))) => {
                rejected += 1;
                assert_eq!(e, again, "{text}");
                assert_eq!(hits, front_hits.get(), "{text}");
            }
            (first, second) => panic!(
                "{text}: {:?}, then {:?}",
                first.map(|(_, r)| r),
                second.map(|(_, r)| r)
            ),
        }
    }
    println!("{planned} of {MUTANTS} mutants bound, {rejected} were SQL errors");
    assert!(
        100 * planned >= MUTANTS,
        "only {planned} of {MUTANTS} mutants bound: the generator has decayed into noise"
    );
    let stats = service.stats();
    assert_eq!(2 * MUTANTS, stats.requests);
    assert_eq!(2 * rejected, counter("dpnext_sql_errors_total"));
    // Every SQL request probes the front map once. A rejected text is one
    // of its misses — it was sent to the parser — and is never entered.
    let (hits, misses) = (front_hits.get(), counter("dpnext_front_misses_total"));
    assert_eq!(stats.requests, hits + misses);
    assert!(hits >= planned && misses >= 2 * rejected);
    assert_eq!((0, 0), (stats.panics, stats.pool.quarantined));

    // Too deep and too long, on an eighth of a default thread's stack:
    // 10,000 parentheses, and 5,000 joins (a quarter of a megabyte of
    // text). And one table more than a node set holds.
    let deep = format!(
        "select n.n_name from {}nation n{}",
        "(".repeat(10_000),
        ")".repeat(10_000)
    );
    let oversized = [deep, nation_chain(5_001), nation_chain(65)];
    let before = (service.stats(), counter("dpnext_sql_errors_total"));
    std::thread::scope(|scope| {
        let small_stack = std::thread::Builder::new().stack_size(256 << 10);
        let sent = small_stack.spawn_scoped(scope, || {
            for text in &oversized {
                let reply = service.optimize_sql(text);
                assert!(matches!(reply, Err(ServeError::Sql(_))), "{reply:?}");
            }
        });
        sent.unwrap().join().unwrap();
    });
    let after = service.stats();
    assert_eq!(before.1 + 3, counter("dpnext_sql_errors_total"));
    assert_eq!(before.0.pool.created, after.pool.created);
    assert_eq!(before.0.gate.admitted, after.gate.admitted);
    assert_eq!((0, 0), (after.panics, after.pool.quarantined));
}

/// A text that is refused for its size never reaches the cache, the gate
/// or the pool — and the largest statement that is not refused, 64 tables,
/// still gets its plan.
#[test]
fn the_sql_door_fails_closed_on_size() {
    // A small plan budget keeps the 64-table run short in a debug build;
    // every join order of this chain costs the same.
    let service = OptimizerService::new(quiet_optimizer(A::Adaptive).plan_budget(2_000));
    let reply = service.optimize_sql(&nation_chain(65));
    assert!(matches!(reply, Err(ServeError::Sql(_))), "{reply:?}");
    let stats = service.stats();
    assert_eq!(
        (0, 0, 0),
        (stats.panics, stats.pool.created, stats.gate.admitted)
    );
    assert_eq!(0, stats.cache.hits + stats.cache.misses);

    let widest = service
        .optimize_sql(&nation_chain(64))
        .expect("64 tables bind");
    // 63 joins of 25 rows each.
    assert_eq!(63.0 * 25.0, widest.result.plan.cost);
    assert_eq!(1, service.stats().pool.created);
}

/// `text` spelled differently in the two ways the dialect ignores: every
/// run of ASCII whitespace becomes another run (and the text gains some at
/// both ends), and every keyword changes case.
fn respelled(text: &str) -> String {
    let mut out = String::from("\n ");
    let mut rest = text;
    while !rest.is_empty() {
        let space = rest
            .find(|c: char| !c.is_ascii_whitespace())
            .unwrap_or(rest.len());
        if space > 0 {
            out.push_str(" \t\r\n");
            rest = &rest[space..];
            continue;
        }
        let word = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if word == 0 {
            let c = rest.chars().next().unwrap();
            out.push(c);
            rest = &rest[c.len_utf8()..];
            continue;
        }
        // The parser's own list: matched in any case wherever they stand,
        // and never a table alias (no seed statement says `as`), so their
        // case cannot reach the bound query.
        let keyword = dpnext::sql::parser::RESERVED
            .iter()
            .any(|k| rest[..word].eq_ignore_ascii_case(k));
        for c in rest[..word].chars() {
            out.push(match c {
                c if !keyword => c,
                c if c.is_ascii_lowercase() => c.to_ascii_uppercase(),
                c => c.to_ascii_lowercase(),
            });
        }
        rest = &rest[word..];
    }
    out.push_str("\t ");
    out
}

/// The half of the shape's contract that faces SQL text: texts that differ
/// only in whitespace or keyword case bind to equal shapes (or are both
/// rejected), so they share one plan-cache entry however they are spelled.
/// What is *not* equal is the reason the service keys its front map on the
/// statement's bytes and normalises nothing: an alias's case is
/// `QueryTable::alias`, hence part of the shape, and table and column
/// names are matched exactly.
#[test]
fn respelled_sql_binds_to_the_same_shape() {
    let catalog = dpnext::catalog::tpch_catalog();
    let shape_of = |text: &str| {
        dpnext::sql::plan(text, &catalog)
            .ok()
            .map(|bound| fingerprint_query(&bound.query))
    };
    let mut bound = 0u64;
    for text in FUZZ_SEEDS
        .iter()
        .map(|s| s.to_string())
        .chain(fuzz_mutants())
    {
        let other = respelled(&text);
        assert_ne!(text, other);
        let (shape, respelled_shape) = (shape_of(&text), shape_of(&other));
        assert_eq!(shape, respelled_shape, "{text:?} vs {other:?}");
        bound += u64::from(shape.is_some());
    }
    assert!(bound >= FUZZ_SEEDS.len() as u64 + MUTANTS / 100);

    let shape = |text: &str| shape_of(text).unwrap_or_else(|| panic!("rejected: {text}"));
    let spelled = shape(FUZZ_SEEDS[2]);
    // The aggregate's name is matched like a keyword where it is one.
    assert_eq!(
        spelled,
        shape(&FUZZ_SEEDS[2].replace("count(*)", "COUNT ( * )"))
    );
    // An alias's case is the bound query's: a different shape.
    let upper_alias = FUZZ_SEEDS[2]
        .replace("n.", "N.")
        .replace("nation n ", "nation N ");
    assert_ne!(spelled, shape(&upper_alias));
    // A table's or a column's name in another case names nothing.
    assert_eq!(None, shape_of(&FUZZ_SEEDS[2].replace("nation", "NATION")));
    assert_eq!(None, shape_of(&FUZZ_SEEDS[2].replace("n_name", "N_NAME")));
}
