//! The traced run: the per-layer ledger, timed from outside.
//!
//! The program under test has no spans of its own switched on. Instead
//! every request of a pass is sent twice, back to back:
//!
//! 1. through the system's front door, untraced but for one span around
//!    the call (`e2e.hit` / `e2e.miss`);
//! 2. staged by the benchmark itself through the layers' public functions
//!    — parse, bind, fingerprint, cache probe, admission, memo checkout,
//!    optimize, check-in, cache insert — with a span around each call, the
//!    way `OptimizerService::optimize_sql` strings them together
//!    (`request.hit` / `request.miss` and their children).
//!
//! Stages that run *inside* the optimizer call (context build, ccp walk,
//! EXPLAIN rendering) are timed standalone on the same query under a third
//! root span, `decompose`, and subtracted. Sending the pair back to back
//! matters on a host whose speed drifts by tens of percent within seconds:
//! both halves see the same machine.
//!
//! glibc defers the consolidation of an optimizer run's freed plans to the
//! next allocation of 1 KiB or more (85 ms after the heaviest
//! `ea-prune-paper` query). Left alone, that cost lands on whichever span
//! allocates next, so the traced run makes such an allocation itself after
//! every optimizer run, in a span of its own: `alloc.settle`.
//!
//! Allocator calls are counted in one extra, untimed pass through the
//! front door: counting costs two atomic adds a call, a tenth of an
//! EA-All run.
//!
//! The ledger is robust the way the end-to-end metrics are: per (span
//! name, request) the best over the passes, then summed over requests with
//! the number of calls per pass as weight. The books close when the staged
//! layers add up to the front-door time (`trace.coverage`).

use crate::descriptor::PER_LAYER;
use crate::run::{correctness_gate, drive, measure, plan_cost_ratio, Outcome, Tally};
use crate::stats::{median, spread};
use crate::trace::{self_times, write_trace_file, Span, Tracer, NO_PARENT};
use crate::workloads::{
    reference_optimizer, setup, Input, Prepared, Workload, ADAPTIVE_PLAN_BUDGET,
};
use dpnext::core::{OptContext, UNIT_MAX_PLANS};
use dpnext::hypergraph::{count_ccps_capped, enumerate_ccps, stratify_ccps};
use dpnext::query::Query;
use dpnext::Optimizer;
use dpnext_serve::{fingerprint_query, AdmissionGate, CacheKey, MemoPool, PlanCache};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A traced run stops after this many passes, whatever the time left, so
/// the span file stays a few tens of MB.
const MAX_PASSES: usize = 8;
/// Deadline of the `adaptive.deadline_overshoot_ratio` side phase.
const SIDE_DEADLINE: Duration = Duration::from_millis(20);
/// The stages a cache hit runs: the `sql` and `serve` front end.
const FRONT_STAGES: [&str; 4] = [
    "sql.parse",
    "sql.bind",
    "serve.fingerprint",
    "serve.cache_lookup",
];

/// Make the allocator do its deferred work now, under a span of its own:
/// a request of 1 KiB or more makes glibc consolidate its fast bins.
fn settle(t: &mut Tracer, request: u32) {
    t.call("alloc.settle", NO_PARENT, request, || {
        drop(std::hint::black_box(Vec::<u8>::with_capacity(4096)));
    });
}

/// The service's parts, owned by the benchmark and wired as
/// `OptimizerService::with_config` wires them.
struct ServeParts {
    cache: PlanCache,
    pool: MemoPool,
    gate: AdmissionGate,
    epoch: AtomicU64,
}

struct Stager<'a> {
    prepared: &'a Prepared,
    optimizer: Optimizer,
    /// The same configuration with EXPLAIN rendering flipped.
    alternate: Optimizer,
    serve: Option<ServeParts>,
    /// Span names of the optimizer call and its EXPLAIN-flipped twin.
    optimize: &'static str,
    optimize_alt: &'static str,
}

/// What one client accumulates over its requests.
struct Client {
    tracer: Tracer,
    /// Counters read off the front door's replies.
    tally: Tally,
    /// Σ front-door time of the current pass, and of every finished one.
    pass_e2e_ns: u64,
    pass_e2e: Vec<f64>,
    sql_errors: u64,
    staged_requests: u64,
    staged_mismatches: u64,
    staged_plans: u64,
    ccp_pairs: u64,
}

impl<'a> Stager<'a> {
    fn new(prepared: &'a Prepared) -> Stager<'a> {
        let w = prepared.workload;
        let optimizer = prepared.system.optimizer().clone();
        let adaptive = w == Workload::AdaptiveLarge;
        Stager {
            prepared,
            alternate: optimizer.clone().explain(!w.explains()),
            optimizer,
            serve: w.service_config().map(|c| ServeParts {
                cache: PlanCache::new(c.cache_capacity),
                pool: MemoPool::new(c.pool_capacity),
                gate: AdmissionGate::new(c.max_concurrent, c.max_queued),
                epoch: AtomicU64::new(0),
            }),
            optimize: if adaptive {
                "adaptive.ladder"
            } else {
                "core.optimize"
            },
            optimize_alt: if adaptive {
                "adaptive.ladder_alt"
            } else {
                "core.optimize_alt"
            },
        }
    }

    /// The cap the ladder's gate counts csg-cmp-pairs up to: what half the
    /// budget buys at `UNIT_MAX_PLANS` plans a pair (the real gate's cap is
    /// lower by the greedy rung's plans, which only the ladder knows).
    const GATE_CAP: u64 = ADAPTIVE_PLAN_BUDGET / 2 / UNIT_MAX_PLANS;

    /// One request of a pass: through the front door and staged, back to
    /// back. Whichever half goes second finds the request's data warm in
    /// the caches, so the order alternates from pass to pass.
    fn pair(&self, c: &mut Client, index: u32) {
        if c.pass_e2e.len().is_multiple_of(2) {
            self.front_door(c, index);
            self.staged(c, index);
        } else {
            self.staged(c, index);
            self.front_door(c, index);
        }
    }

    fn front_door(&self, c: &mut Client, index: u32) {
        let p = self.prepared;
        let r = index as usize;
        let t = &mut c.tracer;
        let id = t.open("e2e", NO_PARENT, index);
        let reply = p.system.call(&p.requests[r].input);
        let ran = !matches!(&reply, Ok(reply) if reply.cache_hit());
        t.close_as(id, if ran { "e2e.miss" } else { "e2e.hit" });
        let wall_ns = t.spans()[id as usize].duration();
        c.pass_e2e_ns += wall_ns;
        c.tally.record(r, wall_ns, &reply, &p.warm[r]);
        drop(reply);
        if ran {
            settle(t, index);
        }
    }

    fn staged(&self, c: &mut Client, index: u32) {
        let req = &self.prepared.requests[index as usize];
        let t = &mut c.tracer;
        c.staged_requests += 1;
        let root = t.open("request", NO_PARENT, index);
        let bound;
        let query: &Query = match &req.input {
            Input::Query(q) => q,
            Input::Sql(text) => {
                let catalog = self.optimizer.catalog();
                let parsed = t.call("sql.parse", root, index, || dpnext::sql::parse(text));
                let b = parsed.and_then(|ast| {
                    t.call("sql.bind", root, index, || dpnext::sql::bind(&ast, catalog))
                });
                match b {
                    Ok(b) => {
                        bound = b;
                        &bound.query
                    }
                    Err(_) => {
                        c.sql_errors += 1;
                        t.close_as(root, "request.error");
                        return;
                    }
                }
            }
        };
        let (cost, ran) = match &self.serve {
            None => {
                let o = t.call(self.optimize, root, index, || {
                    self.optimizer.optimize(query)
                });
                (o.plan.cost, Some(o.plans_built))
            }
            Some(s) => {
                let shape = t.call("serve.fingerprint", root, index, || {
                    fingerprint_query(query)
                });
                let epoch = s.epoch.load(Ordering::Relaxed);
                let (key, hit) = t.call("serve.cache_lookup", root, index, || {
                    let key = CacheKey { epoch, shape };
                    let hit = s.cache.lookup(&key);
                    (key, hit)
                });
                match hit {
                    Some(o) => (o.plan.cost, None),
                    None => {
                        let permit = t.call("serve.gate_wait", root, index, || s.gate.admit());
                        let mut memo =
                            t.call("serve.pool_checkout", root, index, || s.pool.checkout());
                        let o = t.call(self.optimize, root, index, || {
                            self.optimizer.optimize_pooled(query, &mut memo)
                        });
                        t.call("serve.pool_checkin", root, index, || drop(memo));
                        let (cost, plans) = (o.plan.cost, o.plans_built);
                        t.call("serve.cache_insert", root, index, || {
                            s.cache.insert(key, Arc::new(o))
                        });
                        drop(permit);
                        (cost, Some(plans))
                    }
                }
            }
        };
        t.close_as(
            root,
            if ran.is_some() {
                "request.miss"
            } else {
                "request.hit"
            },
        );
        let cold = self.prepared.warm[index as usize].optimized();
        if cost.to_bits() != cold.plan.cost.to_bits() {
            c.staged_mismatches += 1;
        }
        if let Some(plans) = ran {
            c.staged_plans += plans;
            settle(t, index);
            c.ccp_pairs += self.decompose(t, index, query);
            settle(t, index);
        }
    }

    /// Time, standalone and on the same query, the stages the optimizer
    /// call runs inside itself. Returns the csg-cmp-pairs walked.
    fn decompose(&self, t: &mut Tracer, index: u32, query: &Query) -> u64 {
        let root = t.open("decompose", NO_PARENT, index);
        // `optimize_into` clones the query into its context too.
        let ctx = t.call("core.context", root, index, || {
            OptContext::new(query.clone())
        });
        let graph = &ctx.cq.graph;
        let pairs = t.call("hypergraph.ccp_walk", root, index, || {
            if self.prepared.workload == Workload::AdaptiveLarge {
                // The exact walk of a 30-relation star never ends; the
                // ladder itself only ever runs the capped count.
                count_ccps_capped(graph, Self::GATE_CAP).unwrap_or(Self::GATE_CAP)
            } else {
                let mut n = 0u64;
                enumerate_ccps(graph, |_, _| n += 1);
                n
            }
        });
        match &self.serve {
            None => {
                t.call(self.optimize_alt, root, index, || {
                    self.alternate.optimize(query)
                });
            }
            Some(s) => {
                let mut memo = s.pool.checkout();
                t.call(self.optimize_alt, root, index, || {
                    self.alternate.optimize_pooled(query, &mut memo)
                });
            }
        }
        t.close(root);
        pairs
    }
}

/// Measurements taken once per distinct request, outside the passes.
#[derive(Default)]
struct Side {
    stratify_ns: Vec<f64>,
    t1_ns: u64,
    t2_ns: u64,
    greedy_only_ns: Vec<f64>,
    greedy_only_plans: Vec<u64>,
    overshoot: Vec<f64>,
}

fn side_phases(p: &Prepared, t: &mut Tracer) -> Side {
    let mut side = Side::default();
    let root = t.open("side", NO_PARENT, u32::MAX);
    let last = |t: &Tracer| {
        t.spans()
            .last()
            .expect("a span was just recorded")
            .duration()
    };
    for (i, req) in p.requests.iter().enumerate() {
        let (i, query) = (i as u32, req.query());
        match p.workload {
            Workload::AdaptiveLarge => {
                let greedy = reference_optimizer(p.workload);
                let o = t.call("adaptive.greedy_only", root, i, || greedy.optimize(query));
                side.greedy_only_ns.push(last(t) as f64);
                side.greedy_only_plans.push(o.plans_built);
                settle(t, i);
                let deadlined = p.workload.optimizer().deadline(Some(SIDE_DEADLINE));
                t.call("adaptive.deadlined", root, i, || deadlined.optimize(query));
                side.overshoot
                    .push(last(t) as f64 / SIDE_DEADLINE.as_nanos() as f64);
                settle(t, i);
            }
            _ => {
                let ctx = OptContext::new(query.clone());
                t.call("hypergraph.stratify", root, i, || {
                    stratify_ccps(&ctx.cq.graph)
                });
                side.stratify_ns.push(last(t) as f64);
                // The layered engine's trial: the heavy half of each paper
                // workload at one and at two threads.
                let heavy = match p.workload {
                    Workload::EaPrunePaper => req.relations() >= 10,
                    Workload::EaAllPaper => req.relations() >= 6,
                    _ => false,
                };
                if heavy {
                    let base = p.workload.optimizer();
                    t.call("core.optimize_t1", root, i, || base.optimize(query));
                    side.t1_ns += last(t);
                    settle(t, i);
                    let two = base.threads(2);
                    t.call("core.optimize_t2", root, i, || two.optimize(query));
                    side.t2_ns += last(t);
                    settle(t, i);
                }
            }
        }
    }
    t.close(root);
    side
}

/// Every call of one span name on one request: durations and self times.
#[derive(Default)]
struct Cell {
    duration: Vec<f64>,
    self_time: Vec<f64>,
}

/// Per span name, per pass: calls, Σ duration and Σ self time in ns, each
/// request entering with its best (smallest) over the passes.
#[derive(Default, Clone, Copy)]
struct PerPass {
    calls: f64,
    duration: f64,
    self_time: f64,
}

fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

struct Ledger {
    cells: BTreeMap<(&'static str, u32), Cell>,
    passes: f64,
}

impl Ledger {
    fn new(tracers: &[Tracer], passes: usize) -> Ledger {
        let mut cells: BTreeMap<(&'static str, u32), Cell> = BTreeMap::new();
        for t in tracers {
            let spans: &[Span] = t.spans();
            for (s, own) in spans.iter().zip(self_times(spans)) {
                let cell = cells.entry((s.name, s.request)).or_default();
                cell.duration.push(s.duration() as f64);
                cell.self_time.push(own as f64);
            }
        }
        Ledger {
            cells,
            passes: passes as f64,
        }
    }

    fn cells_of<'l>(&'l self, name: &'static str) -> impl Iterator<Item = (u32, &'l Cell)> {
        self.cells
            .range((name, 0)..=(name, u32::MAX))
            .map(|((_, request), cell)| (*request, cell))
    }

    fn per_pass(&self, name: &'static str) -> PerPass {
        let mut out = PerPass::default();
        for (_, cell) in self.cells_of(name) {
            let calls = cell.duration.len() as f64 / self.passes;
            out.calls += calls;
            out.duration += calls * best(&cell.duration);
            out.self_time += calls * best(&cell.self_time);
        }
        out
    }

    /// Mean duration of one call in µs (the requests' bests, weighted).
    fn mean_us(&self, name: &'static str) -> f64 {
        let p = self.per_pass(name);
        if p.calls == 0.0 {
            0.0
        } else {
            p.duration / p.calls / 1e3
        }
    }

    /// The plain mean duration of a call in µs, over every call made: for
    /// a cost that strikes now and then, which best-of would hide.
    fn plain_mean_us(&self, name: &'static str) -> f64 {
        let (mut sum, mut calls) = (0.0, 0usize);
        for (_, cell) in self.cells_of(name) {
            sum += cell.duration.iter().sum::<f64>();
            calls += cell.duration.len();
        }
        if calls == 0 {
            0.0
        } else {
            sum / calls as f64 / 1e3
        }
    }

    /// The best duration of `name` on `request`, if it was ever called.
    fn best_ns(&self, name: &'static str, request: u32) -> Option<f64> {
        self.cells.get(&(name, request)).map(|c| best(&c.duration))
    }
}

/// A `--trace 1` run: set up once, check correctness, take the side
/// measurements, then run paired passes for `seconds` (at least one, at
/// most [`MAX_PASSES`]) and write the spans to
/// `<out_dir>/trace-<workload>.jsonl`.
pub fn layered(workload: Workload, seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let origin = Instant::now();
    let p = setup(workload, seed);
    let gate = correctness_gate(&p, seed);
    let mut side_tracer = Tracer::new(origin, u32::MAX, 8 * p.requests.len() + 1);
    let side = side_phases(&p, &mut side_tracer);

    let stager = Stager::new(&p);
    let n = p.requests.len();
    let clients: Vec<Client> = p
        .schedules
        .iter()
        .enumerate()
        .map(|(c, schedule)| Client {
            tracer: Tracer::new(origin, c as u32, 8 * schedule.len()),
            tally: Tally::new(n),
            pass_e2e_ns: 0,
            pass_e2e: Vec::new(),
            sql_errors: 0,
            staged_requests: 0,
            staged_mismatches: 0,
            staged_plans: 0,
            ccp_pairs: 0,
        })
        .collect();
    // One untimed pass through the front door counts allocator calls.
    let (counted_pass, _) = measure(&p, true, |_, _| false);
    let allocs = crate::alloc::counted();
    let service_before = p.system.service().map(|s| s.stats());
    let (clients, walls) = drive(
        &p,
        clients,
        || {
            p.before_pass();
            if let (true, Some(s)) = (workload.bumps_epoch(), &stager.serve) {
                s.epoch.fetch_add(1, Ordering::Relaxed);
            }
        },
        |client, request| stager.pair(client, request),
        |client| {
            client.pass_e2e.push(client.pass_e2e_ns as f64);
            client.pass_e2e_ns = 0;
        },
        |done, elapsed| done < MAX_PASSES && elapsed.as_secs_f64() < seconds,
    );
    let service_after = p.system.service().map(|s| s.stats());
    let passes = walls.len();

    // Add up the clients, then take their spans.
    let mut front_door = Tally::new(n);
    for c in &clients {
        front_door.merge(&c.tally);
    }
    let sum = |f: fn(&Client) -> u64| clients.iter().map(f).sum::<u64>();
    let staged_requests = sum(|c| c.staged_requests);
    let staged_mismatches = sum(|c| c.staged_mismatches);
    let staged_plans = sum(|c| c.staged_plans);
    let sql_errors = sum(|c| c.sql_errors);
    let ccp_pairs = sum(|c| c.ccp_pairs);
    // Each client's Σ front-door time per pass: the noise floor.
    let pass_spread = clients
        .iter()
        .map(|c| spread(&c.pass_e2e))
        .fold(0.0, f64::max);
    let mut tracers: Vec<Tracer> = clients.into_iter().map(|c| c.tracer).collect();
    let ledger = Ledger::new(&tracers, passes);
    tracers.push(side_tracer);
    let trace_path = out_dir.join(format!("trace-{workload}.jsonl"));
    let mut failures = gate.failures.clone();
    if let Err(e) = write_trace_file(&trace_path, &tracers) {
        failures.push(format!("writing {}: {e}", trace_path.display()));
    }
    let spans: usize = tracers.iter().map(|t| t.spans().len()).sum();

    let front_door_failures = front_door.failures() + counted_pass.failures();
    if front_door_failures > 0 {
        failures.push(format!(
            "{front_door_failures} front-door requests returned an error or a cost other than \
             their cold run's"
        ));
    }
    if staged_mismatches + sql_errors > 0 {
        failures.push(format!(
            "{staged_mismatches} staged requests differ in cost from their cold run, \
             {sql_errors} did not parse or bind"
        ));
    }
    let attempted = counted_pass.requests + front_door.requests + staged_requests + gate.checks;
    let failed = front_door_failures + staged_mismatches + sql_errors + gate.failures.len() as u64;

    // Derivations, all per pass.
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let per_pass = |v: u64| v as f64 / passes as f64;
    let mean_of = |v: &[f64]| ratio(v.iter().sum::<f64>(), v.len() as f64);
    let adaptive = workload == Workload::AdaptiveLarge;
    let serving = stager.serve.is_some();
    let requests_per_pass = per_pass(front_door.requests);

    let (e2e_hit, e2e_miss) = (ledger.per_pass("e2e.hit"), ledger.per_pass("e2e.miss"));
    let e2e_ns = e2e_hit.duration + e2e_miss.duration;
    let (staged_hit, staged_miss) = (
        ledger.per_pass("request.hit"),
        ledger.per_pass("request.miss"),
    );
    // The layers of the pipeline are the children of the `request` spans;
    // what is left of a `request` span is the harness's own gaps.
    let layers_ns =
        staged_hit.duration + staged_miss.duration - staged_hit.self_time - staged_miss.self_time;
    let optimize = ledger.per_pass(stager.optimize);

    // EXPLAIN on minus off, whichever of the two the pipeline runs. The
    // difference of two optimizer runs is noise on a heavy query, so the
    // metric is the median over requests, not the mean.
    let (explain_on, explain_off) = if workload.explains() {
        (stager.optimize, stager.optimize_alt)
    } else {
        (stager.optimize_alt, stager.optimize)
    };
    let mut explain_deltas: Vec<f64> = (0..n as u32)
        .filter_map(|r| Some(ledger.best_ns(explain_on, r)? - ledger.best_ns(explain_off, r)?))
        .collect();
    let explain_us = if explain_deltas.is_empty() {
        0.0
    } else {
        median(&mut explain_deltas) / 1e3
    };
    let off = ledger.per_pass(explain_off);
    let enumerate_self_ns = off.duration
        - ledger.per_pass("core.context").duration
        - ledger.per_pass("hypergraph.ccp_walk").duration;

    // Of a staged cache hit, the share spent in the `sql` and `serve`
    // stages (the rest is the harness's gaps between them).
    let hit_front_ns: f64 = ledger
        .cells_of("request.hit")
        .map(|(r, cell)| {
            let calls = cell.duration.len() as f64 / passes as f64;
            let front: f64 = FRONT_STAGES
                .iter()
                .filter_map(|s| ledger.best_ns(s, r))
                .sum();
            calls * front
        })
        .sum();

    let wasted_plans: u64 = if adaptive {
        // Plans above the greedy-only run's, spent by requests that then
        // shipped the greedy plan anyway (read off the cold replies).
        p.warm
            .iter()
            .zip(&side.greedy_only_plans)
            .filter(|(r, _)| r.optimized().memo.adaptive_mode == dpnext::AdaptiveMode::Greedy)
            .map(|(r, &g)| r.optimized().plans_built.saturating_sub(g))
            .sum()
    } else {
        0
    };
    let cold_plans: u64 = p.warm.iter().map(|r| r.optimized().plans_built).sum();

    let stats_delta = service_before.zip(service_after);
    let (hits, misses) = stats_delta.map_or((0, 0), |(b, a)| {
        (a.cache.hits - b.cache.hits, a.cache.misses - b.cache.misses)
    });
    let pool = service_after.map(|s| s.pool);
    let opt = &front_door.opt;

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |name: &'static str, v: f64| {
        assert!(values.insert(name, v).is_none(), "{name} set twice");
    };
    let when = |cond: bool, v: f64| if cond { v } else { 0.0 };
    put("sql.lex_parse_us", ledger.mean_us("sql.parse"));
    put("sql.bind_us", ledger.mean_us("sql.bind"));
    put("sql.statements", ledger.per_pass("sql.parse").calls);
    put("sql.errors", sql_errors as f64);
    put("core.context_us", ledger.mean_us("core.context"));
    put("hypergraph.ccp_pairs", per_pass(ccp_pairs));
    put(
        "hypergraph.ccp_walk_us",
        ledger.mean_us("hypergraph.ccp_walk"),
    );
    put(
        "hypergraph.ccps_per_s",
        ratio(
            per_pass(ccp_pairs),
            ledger.per_pass("hypergraph.ccp_walk").duration / 1e9,
        ),
    );
    put("hypergraph.stratify_us", mean_of(&side.stratify_ns) / 1e3);
    put(
        "core.optimize_us",
        when(!adaptive, ledger.mean_us(stager.optimize)),
    );
    put(
        "core.enumerate_self_us",
        when(!adaptive, ratio(enumerate_self_ns, off.calls) / 1e3),
    );
    put(
        "core.enumerate_share",
        when(!adaptive, ratio(enumerate_self_ns, e2e_ns)),
    );
    put(
        "core.ns_per_plan",
        ratio(optimize.duration, per_pass(staged_plans)),
    );
    put("core.plans_built", per_pass(opt.plans_built));
    put("core.retained_plans", per_pass(opt.retained_plans));
    put("core.arena_plans", per_pass(opt.arena_plans));
    put("core.peak_class_width", opt.peak_class_width as f64);
    put("core.prune_attempts", per_pass(opt.prune_attempts));
    put(
        "core.prune_hit_rate",
        ratio(opt.prune_useful as f64, opt.prune_attempts as f64),
    );
    put("core.live_bytes_peak", opt.live_bytes_peak as f64);
    put("core.explain_us", explain_us);
    put(
        "core.t2_speedup",
        ratio(side.t1_ns as f64, side.t2_ns as f64),
    );
    put(
        "adaptive.ladder_us",
        when(adaptive, ledger.mean_us(stager.optimize)),
    );
    put(
        "adaptive.greedy_only_us",
        mean_of(&side.greedy_only_ns) / 1e3,
    );
    put(
        "adaptive.plans_built",
        when(adaptive, ratio(opt.plans_built as f64, opt.runs as f64)),
    );
    put(
        "adaptive.budget_used_share",
        when(adaptive, ratio(opt.budget_used, opt.runs as f64)),
    );
    put(
        "adaptive.wasted_plan_share",
        ratio(wasted_plans as f64, cold_plans as f64),
    );
    for (name, rung) in [
        ("adaptive.rung.exact", 1),
        ("adaptive.rung.partial-exact", 2),
        ("adaptive.rung.linearized", 3),
        ("adaptive.rung.greedy", 4),
    ] {
        put(name, per_pass(opt.rungs[rung]));
    }
    put("adaptive.degraded.budget_gated", per_pass(opt.budget_gated));
    put(
        "adaptive.degraded.budget_aborted",
        per_pass(opt.budget_aborted),
    );
    put(
        "adaptive.cost_vs_greedy",
        when(adaptive, plan_cost_ratio(&p)),
    );
    put(
        "adaptive.deadline_overshoot_ratio",
        if side.overshoot.is_empty() {
            0.0
        } else {
            median(&mut side.overshoot.clone())
        },
    );
    put("serve.fingerprint_us", ledger.mean_us("serve.fingerprint"));
    put(
        "serve.cache_lookup_us",
        ledger.mean_us("serve.cache_lookup"),
    );
    put(
        "serve.cache_insert_us",
        ledger.mean_us("serve.cache_insert"),
    );
    put("serve.gate_wait_us", ledger.mean_us("serve.gate_wait"));
    put(
        "serve.pool_checkout_us",
        ledger.mean_us("serve.pool_checkout"),
    );
    put(
        "serve.pool_checkin_us",
        ledger.mean_us("serve.pool_checkin"),
    );
    put(
        "serve.hit_path_us",
        when(serving, ledger.mean_us("e2e.hit")),
    );
    put(
        "serve.miss_path_us",
        when(serving, ledger.mean_us("e2e.miss")),
    );
    put(
        "serve.overhead_us",
        when(serving, ratio(e2e_ns - layers_ns, requests_per_pass) / 1e3),
    );
    put(
        "serve.frontend_hit_share",
        ratio(hit_front_ns, staged_hit.duration),
    );
    put(
        "serve.cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    put("serve.pool_created", pool.map_or(0.0, |p| p.created as f64));
    put(
        "serve.pool_reuse_rate",
        pool.map_or(0.0, |p| {
            ratio(p.reused as f64, (p.created + p.reused) as f64)
        }),
    );
    put(
        "serve.rejected",
        stats_delta.map_or(0.0, |(b, a)| (a.gate.rejected - b.gate.rejected) as f64),
    );
    put(
        "serve.panics",
        stats_delta.map_or(0.0, |(b, a)| (a.panics - b.panics) as f64),
    );
    put(
        "alloc.count_per_req",
        ratio(allocs.0 as f64, counted_pass.requests as f64),
    );
    put(
        "alloc.bytes_per_req",
        ratio(allocs.1 as f64, counted_pass.requests as f64),
    );
    put("alloc.settle_us", ledger.plain_mean_us("alloc.settle"));
    put("algebra.oracle_checked", gate.oracle_checked as f64);
    put("algebra.oracle_failed", gate.oracle_failed as f64);
    put(
        "algebra.eval_us",
        ratio(gate.eval_ns as f64, gate.oracle_checked as f64) / 1e3,
    );
    put("trace.coverage", ratio(layers_ns, e2e_ns));
    put(
        "trace.overhead_ratio",
        ratio(staged_hit.duration + staged_miss.duration, e2e_ns),
    );
    put("trace.spans", spans as f64);
    put("bench.pass_spread", pass_spread);
    put("bench.samples", front_door.requests as f64);
    put("bench.passes", passes as f64);
    put("bench.failed_share", ratio(failed as f64, attempted as f64));

    eprintln!(
        "[{workload}] traced: {passes} paired passes of {:.3}s, {spans} spans -> {}",
        mean_of(&walls),
        trace_path.display()
    );
    assert_eq!(
        PER_LAYER.len(),
        values.len(),
        "a derived metric is not in the descriptor"
    );
    let metrics = PER_LAYER
        .iter()
        .map(|(name, _)| {
            let v = values
                .get(name)
                .unwrap_or_else(|| panic!("{name} not derived"));
            (*name, *v)
        })
        .collect();
    Outcome {
        metrics,
        attempted,
        failed,
        failures,
    }
}
