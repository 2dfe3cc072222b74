//! The closed-loop driver, the per-request tally, the correctness gate and
//! the end-to-end metrics of an untraced run.

use crate::stats::{geomean, median, spread, weighted_quantile};
use crate::workloads::{
    oracle_database, setup, Prepared, Reply, Schedule, Workload, EA_ALL_SIZES, ORACLE_MAX_RELATIONS,
};
use dpnext::core::{AdaptiveMode, Optimized};
use dpnext::{Algorithm, Optimizer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A `--trace 0` run sets up at least this often, and again until the
/// set-ups have taken `SETUP_MIN_SECONDS` together (a cheap set-up needs
/// more repeats for a steady median); `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
pub const SETUP_MIN_SECONDS: f64 = 3.0;
pub const SETUP_MAX_REPEATS: usize = 200;

/// Counters over the requests that ran the optimizer (everything but
/// cache hits), read from the public fields of their results.
#[derive(Default, Clone)]
pub struct OptCounts {
    pub runs: u64,
    pub plans_built: u64,
    pub retained_plans: u64,
    pub arena_plans: u64,
    pub peak_class_width: u64,
    pub prune_attempts: u64,
    pub prune_useful: u64,
    pub live_bytes_peak: u64,
    /// Indexed none, exact, partial-exact, linearized, greedy.
    pub rungs: [u64; 5],
    pub budget_gated: u64,
    pub budget_aborted: u64,
    /// Σ `plans_built / plan_budget` over budgeted runs.
    pub budget_used: f64,
}

impl OptCounts {
    fn add(&mut self, o: &Optimized) {
        self.runs += 1;
        self.plans_built += o.plans_built;
        self.retained_plans += o.retained_plans;
        self.arena_plans += o.memo.arena_plans;
        self.peak_class_width = self.peak_class_width.max(o.memo.peak_class_width);
        self.prune_attempts += o.memo.prune_attempts;
        self.prune_useful += o.memo.prune_rejected + o.memo.prune_evicted;
        self.live_bytes_peak = self.live_bytes_peak.max(o.memo.live_bytes_peak);
        self.rungs[match o.memo.adaptive_mode {
            AdaptiveMode::None => 0,
            AdaptiveMode::Exact => 1,
            AdaptiveMode::PartialExact => 2,
            AdaptiveMode::Linearized => 3,
            AdaptiveMode::Greedy => 4,
        }] += 1;
        self.budget_gated += u64::from(o.memo.degradation.budget_gated);
        self.budget_aborted += u64::from(o.memo.degradation.budget_aborted);
        if o.memo.plan_budget != 0 {
            self.budget_used += o.plans_built as f64 / o.memo.plan_budget as f64;
        }
    }

    fn merge(&mut self, other: &OptCounts) {
        self.runs += other.runs;
        self.plans_built += other.plans_built;
        self.retained_plans += other.retained_plans;
        self.arena_plans += other.arena_plans;
        self.peak_class_width = self.peak_class_width.max(other.peak_class_width);
        self.prune_attempts += other.prune_attempts;
        self.prune_useful += other.prune_useful;
        self.live_bytes_peak = self.live_bytes_peak.max(other.live_bytes_peak);
        for (a, b) in self.rungs.iter_mut().zip(other.rungs) {
            *a += b;
        }
        self.budget_gated += other.budget_gated;
        self.budget_aborted += other.budget_aborted;
        self.budget_used += other.budget_used;
    }
}

/// The best (smallest) latency of one kind of request and how often it
/// was sent.
#[derive(Clone, Copy)]
pub struct Best {
    pub calls: u64,
    pub ns: u64,
}

impl Best {
    const NONE: Best = Best {
        calls: 0,
        ns: u64::MAX,
    };

    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.ns = self.ns.min(ns);
    }

    fn merge(&mut self, other: &Best) {
        self.calls += other.calls;
        self.ns = self.ns.min(other.ns);
    }
}

/// What one client observed over its untraced requests.
///
/// The host's speed drifts by tens of percent over seconds and minutes
/// (clock states, neighbours), always to the slow side of what the machine
/// can do. A run therefore keeps, per kind of request — a distinct request
/// served from the cache, or run through the optimizer — the best latency
/// over all its passes: noise only ever adds time.
#[derive(Clone)]
pub struct Tally {
    /// Per distinct request, when served from the cache.
    pub hit: Vec<Best>,
    /// Per distinct request, when run through the optimizer.
    pub ran: Vec<Best>,
    pub requests: u64,
    /// Errors, panics and `Overloaded` replies.
    pub errors: u64,
    /// Replies whose cost bits differ from the request's cold run — for a
    /// cache hit, gate (c); for a re-optimization, lost determinism.
    pub cost_mismatches: u64,
    pub opt: OptCounts,
}

impl Tally {
    pub fn new(n_requests: usize) -> Tally {
        Tally {
            hit: vec![Best::NONE; n_requests],
            ran: vec![Best::NONE; n_requests],
            requests: 0,
            errors: 0,
            cost_mismatches: 0,
            opt: OptCounts::default(),
        }
    }

    pub fn record(
        &mut self,
        request: usize,
        wall_ns: u64,
        reply: &Result<Reply, String>,
        cold: &Reply,
    ) {
        self.requests += 1;
        match reply {
            Err(_) => self.errors += 1,
            Ok(reply) => {
                let o = reply.optimized();
                if o.plan.cost.to_bits() != cold.optimized().plan.cost.to_bits() {
                    self.cost_mismatches += 1;
                }
                if reply.cache_hit() {
                    self.hit[request].record(wall_ns);
                } else {
                    self.ran[request].record(wall_ns);
                    self.opt.add(o);
                }
            }
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        for (a, b) in self.hit.iter_mut().zip(&other.hit) {
            a.merge(b);
        }
        for (a, b) in self.ran.iter_mut().zip(&other.ran) {
            a.merge(b);
        }
        self.requests += other.requests;
        self.errors += other.errors;
        self.cost_mismatches += other.cost_mismatches;
        self.opt.merge(&other.opt);
    }

    pub fn failures(&self) -> u64 {
        self.errors + self.cost_mismatches
    }
}

/// The timing metrics of a run, each request kind entering with its best
/// latency and its calls per pass as weight.
pub struct BestCase {
    pub throughput_rps: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    pub latency_geomean_us: f64,
    pub plans_per_s: f64,
}

impl BestCase {
    /// `plans_built[r]` is what one optimizer run of request `r` builds;
    /// request `r` belongs to client `r % clients`.
    pub fn of(tally: &Tally, clients: usize, plans_built: &[u64], passes: usize) -> BestCase {
        // Per client: requests per pass and the time its best pass takes.
        let mut per_client = vec![(0.0f64, 0.0f64); clients];
        let mut kinds: Vec<(f64, f64)> = Vec::new();
        let mut usual: Vec<f64> = Vec::new();
        let (mut plans, mut optimizer_ns) = (0.0f64, 0.0f64);
        for (r, (hit, ran)) in tally.hit.iter().zip(&tally.ran).enumerate() {
            for (best, optimizes) in [(hit, false), (ran, true)] {
                if best.calls == 0 {
                    continue;
                }
                let weight = best.calls as f64 / passes as f64;
                kinds.push((best.ns as f64, weight));
                let c = &mut per_client[r % clients];
                c.0 += weight;
                c.1 += weight * best.ns as f64;
                if optimizes {
                    plans += weight * plans_built[r] as f64;
                    optimizer_ns += weight * best.ns as f64;
                }
            }
            // A request's usual outcome: the cache's where it serves it.
            let usually = if hit.calls >= ran.calls { hit } else { ran };
            if usually.calls > 0 {
                usual.push(usually.ns as f64 / 1e3);
            }
        }
        BestCase {
            throughput_rps: per_client
                .iter()
                .filter(|c| c.1 > 0.0)
                .map(|c| c.0 / (c.1 / 1e9))
                .sum(),
            latency_p50_us: weighted_quantile(&mut kinds, 0.5) / 1e3,
            latency_p99_us: weighted_quantile(&mut kinds, 0.99) / 1e3,
            latency_geomean_us: geomean(usual),
            plans_per_s: if optimizer_ns > 0.0 {
                plans / (optimizer_ns / 1e9)
            } else {
                0.0
            },
        }
    }
}

/// Run passes over the clients' schedules, one thread per client, each
/// sending its next request when the previous one has returned. Client 0
/// calls `before_pass` while the others wait; `each` handles one request
/// and `after_pass` closes a client's pass; `keep_going` is asked after
/// every pass with the number of passes done and the time since the first
/// one started. Returns the clients' states and every pass's wall time in
/// seconds.
pub fn drive<C: Send>(
    prepared: &Prepared,
    mut clients: Vec<C>,
    before_pass: impl Fn() + Sync,
    each: impl Fn(&mut C, u32) + Sync,
    after_pass: impl Fn(&mut C) + Sync,
    keep_going: impl Fn(usize, Duration) -> bool + Sync,
) -> (Vec<C>, Vec<f64>) {
    assert_eq!(clients.len(), prepared.schedules.len());
    let barrier = Barrier::new(clients.len());
    // SeqCst although the barrier already orders it: the flag is read once
    // per pass.
    let stop = AtomicBool::new(false);
    let mut walls = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&prepared.schedules)
            .enumerate()
            .map(|(c, (state, requests))| {
                let (barrier, stop) = (&barrier, &stop);
                let (before_pass, each) = (&before_pass, &each);
                let (after_pass, keep_going) = (&after_pass, &keep_going);
                scope.spawn(move || {
                    let mut walls = Vec::new();
                    let mut schedule = Schedule::new(requests, prepared.seed, c);
                    let started = Instant::now();
                    loop {
                        let order = schedule.next_pass();
                        if c == 0 {
                            before_pass();
                        }
                        barrier.wait();
                        let pass = Instant::now();
                        for &request in order {
                            each(state, request);
                        }
                        after_pass(state);
                        barrier.wait();
                        if c == 0 {
                            walls.push(pass.elapsed().as_secs_f64());
                            if !keep_going(walls.len(), started.elapsed()) {
                                stop.store(true, Ordering::SeqCst);
                            }
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            return walls;
                        }
                    }
                })
            })
            .collect();
        for (c, h) in handles.into_iter().enumerate() {
            let w = h.join().expect("client thread panicked");
            if c == 0 {
                walls = w;
            }
        }
    });
    (clients, walls)
}

/// Untraced passes through the system's front door until `keep_going`
/// says stop.
/// `count_allocs` counts the allocator calls made inside the system, at
/// the price of two atomic adds per call: never on a pass that is timed.
pub fn measure(
    prepared: &Prepared,
    count_allocs: bool,
    keep_going: impl Fn(usize, Duration) -> bool + Sync,
) -> (Tally, Vec<f64>) {
    let n = prepared.requests.len();
    let tallies = vec![Tally::new(n); prepared.schedules.len()];
    let (tallies, walls) = drive(
        prepared,
        tallies,
        || prepared.before_pass(),
        |tally, request| {
            let r = request as usize;
            let input = &prepared.requests[r].input;
            let t = Instant::now();
            let reply = if count_allocs {
                crate::alloc::counting(|| prepared.system.call(input))
            } else {
                prepared.system.call(input)
            };
            let wall_ns = t.elapsed().as_nanos() as u64;
            tally.record(r, wall_ns, &reply, &prepared.warm[r]);
        },
        |_| {},
        keep_going,
    );
    let mut total = Tally::new(n);
    for t in &tallies {
        total.merge(t);
    }
    (total, walls)
}

/// Outcome of the correctness gate.
#[derive(Default)]
pub struct Gate {
    pub checks: u64,
    pub failures: Vec<String>,
    pub oracle_checked: u64,
    pub oracle_failed: u64,
    pub eval_ns: u64,
}

impl Gate {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The correctness gate over the cold (warm-up) replies:
/// (a) execution oracle on every request of at most eight relations: the
///     chosen plan and the canonical plan give bag-equal results on a data
///     instance made from `seed` — the reference never comes from the
///     optimizer under test;
/// (b) `ea-all-paper`: EA-Prune's cost is bit-equal to EA-All's at n = 5, 6;
/// (d) `adaptive-large`: `plans_built` within the budget and the cost no
///     higher than the greedy rung's.
/// Gate (c), a hit's cost bits equal to its cold run's, is checked on
/// every measured reply by [`Tally`].
pub fn correctness_gate(p: &Prepared, seed: u64) -> Gate {
    let mut gate = Gate::default();
    let prune = Optimizer::new(Algorithm::EaPrune).explain(false).threads(1);
    for (i, (req, cold)) in p.requests.iter().zip(&p.warm).enumerate() {
        let o = cold.optimized();
        gate.check(o.plan.cost.is_finite() && o.plan.cost >= 0.0, || {
            format!("{}: cost {} is not a finite cost", req.label, o.plan.cost)
        });
        if p.workload != Workload::AdaptiveLarge && req.relations() <= ORACLE_MAX_RELATIONS {
            let db = oracle_database(req, seed.wrapping_add(i as u64));
            let t = Instant::now();
            let reference = req.query().canonical_plan().eval(&db);
            let ok = o.plan.root.eval(&db).bag_eq(&reference);
            gate.eval_ns += t.elapsed().as_nanos() as u64;
            gate.oracle_checked += 1;
            gate.oracle_failed += u64::from(!ok);
            gate.check(ok, || {
                format!(
                    "{}: plan result differs from the canonical plan's",
                    req.label
                )
            });
        }
        match p.workload {
            Workload::EaAllPaper if EA_ALL_SIZES.contains(&req.relations()) => {
                let pruned = prune.optimize(req.query()).plan.cost;
                gate.check(pruned.to_bits() == o.plan.cost.to_bits(), || {
                    format!(
                        "{}: EA-Prune cost {pruned} != EA-All cost {}",
                        req.label, o.plan.cost
                    )
                });
            }
            Workload::EaAllPaper | Workload::EaPrunePaper | Workload::ServeSqlHot => {
                // Both are optimal over a superset of DPhyp's plans.
                gate.check(o.plan.cost <= p.reference_cost[i] * (1.0 + 1e-9), || {
                    format!(
                        "{}: cost {} above DPhyp's {}",
                        req.label, o.plan.cost, p.reference_cost[i]
                    )
                });
            }
            Workload::AdaptiveLarge => {
                gate.check(o.plans_built <= o.memo.plan_budget, || {
                    format!(
                        "{}: {} plans over budget {}",
                        req.label, o.plans_built, o.memo.plan_budget
                    )
                });
                gate.check(o.plan.cost <= p.reference_cost[i], || {
                    format!(
                        "{}: cost {} above greedy's {}",
                        req.label, o.plan.cost, p.reference_cost[i]
                    )
                });
            }
        }
    }
    gate
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Geomean over requests of cold cost / reference cost.
pub fn plan_cost_ratio(p: &Prepared) -> f64 {
    geomean(
        p.warm
            .iter()
            .zip(&p.reference_cost)
            // A zero reference (a plan that moves no tuples) has ratio 1.
            .map(|(r, &c)| {
                if c > 0.0 {
                    r.optimized().plan.cost / c
                } else {
                    1.0
                }
            }),
    )
}

/// What a run prints: its metrics by name in the descriptor's order, how
/// many requests and checks it attempted, and which of them failed.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// A `--trace 0` run: set up several times, check correctness, then
/// measure whole passes for `seconds`. The timing metrics are
/// [`BestCase`]'s.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    while setups.len() < SETUP_REPEATS
        || (setups.iter().sum::<f64>() < SETUP_MIN_SECONDS && setups.len() < SETUP_MAX_REPEATS)
    {
        // The previous instance is gone before the next is built, as a
        // fresh process would find it.
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(setup(workload, seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("set up at least once");
    let gate = correctness_gate(&prepared, seed);
    let (tally, walls) = measure(&prepared, false, |_, elapsed| {
        elapsed.as_secs_f64() < seconds
    });

    let plans_built: Vec<u64> = prepared
        .warm
        .iter()
        .map(|r| r.optimized().plans_built)
        .collect();
    let best = BestCase::of(&tally, prepared.schedules.len(), &plans_built, walls.len());
    let cold_peak = prepared
        .warm
        .iter()
        .map(|r| r.optimized().memo.live_bytes_peak)
        .max()
        .unwrap_or(0);
    let attempted = tally.requests + gate.checks;
    let failed = tally.failures() + gate.failures.len() as u64;
    let mut failures = gate.failures;
    if tally.errors > 0 {
        failures.push(format!("{} requests returned an error", tally.errors));
    }
    if tally.cost_mismatches > 0 {
        failures.push(format!(
            "{} replies differ in cost from their cold run",
            tally.cost_mismatches
        ));
    }
    let metrics = vec![
        ("setup_s", median(&mut setups)),
        ("throughput_rps", best.throughput_rps),
        ("latency_p50_us", best.latency_p50_us),
        ("latency_p99_us", best.latency_p99_us),
        ("latency_geomean_us", best.latency_geomean_us),
        ("plans_per_s", best.plans_per_s),
        ("plan_cost_ratio", plan_cost_ratio(&prepared)),
        (
            "peak_live_bytes",
            cold_peak.max(tally.opt.live_bytes_peak) as f64,
        ),
        ("peak_rss_mb", peak_rss_mib()),
        ("ok_share", (attempted - failed) as f64 / attempted as f64),
    ];
    eprintln!(
        "[{workload}] {} set-ups, {} passes, {} samples, pass spread {:.2}%",
        setups.len(),
        walls.len(),
        tally.requests,
        100.0 * spread(&walls)
    );
    Outcome {
        metrics,
        attempted,
        failed,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn best(calls: u64, ns: u64) -> Best {
        Best { calls, ns }
    }

    #[test]
    fn best_case_weighs_every_kind_with_its_calls_per_pass() {
        // Two passes of a two-client workload. Request 0 (client 0): 399
        // hits at best 10 us and one optimizer run at best 500 us a pass.
        // Request 1 (client 1): 400 hits at best 20 us a pass.
        let mut tally = Tally::new(2);
        tally.hit[0] = best(798, 10_000);
        tally.ran[0] = best(2, 500_000);
        tally.hit[1] = best(800, 20_000);
        let b = BestCase::of(&tally, 2, &[1_000, 7], 2);
        // Client 0's best pass takes 399 x 10 us + 500 us = 4.49 ms for 400
        // requests, client 1's 400 x 20 us = 8 ms; they run side by side.
        let want = 400.0 / 4.49e-3 + 400.0 / 8e-3;
        assert!((b.throughput_rps / want - 1.0).abs() < 1e-12);
        // 399 + 1 + 400 requests a pass: the median is request 1's hit, the
        // 99th percentile too (the miss is the top 0.125%).
        assert_eq!(20.0, b.latency_p50_us);
        assert_eq!(20.0, b.latency_p99_us);
        // The geomean takes each request in its usual outcome, the hit.
        assert!((b.latency_geomean_us - (10.0f64 * 20.0).sqrt()).abs() < 1e-9);
        // Only request 0 runs the optimizer: 1000 plans in 500 us.
        assert!((b.plans_per_s / 2e6 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn best_keeps_the_minimum_and_merges() {
        let mut a = Best::NONE;
        for ns in [30, 10, 20] {
            a.record(ns);
        }
        let mut b = Best::NONE;
        b.record(5);
        a.merge(&b);
        assert_eq!((4, 5), (a.calls, a.ns));
        // A request that never ran the optimizer leaves no kind behind.
        let mut tally = Tally::new(1);
        tally.hit[0] = best(3, 1_000);
        let b = BestCase::of(&tally, 1, &[9], 3);
        assert_eq!(0.0, b.plans_per_s);
        assert_eq!(1.0, b.latency_p99_us);
    }
}
