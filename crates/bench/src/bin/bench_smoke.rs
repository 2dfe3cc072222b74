//! Bench smoke: one tiny fig15 configuration, emitted as machine-readable
//! JSON. `BENCH_smoke.json` is a CI smoke artifact — single-shot cells a
//! few milliseconds long, there to show that every surface still runs and
//! roughly how fast. The performance record is `BENCHMARK.json` +
//! `perfbench/`; no claim should rest on a number from this file.
//!
//! Usage: `bench_smoke [--out PATH] [--diff PREV_PATH]`.
//! Runs EA-Prune, EA-All and DPhyp through the same `run_sweep` harness as
//! the figure binaries (identical seed schedule) and records plans/sec,
//! mean runtime and memo statistics per `(algorithm, n)` cell; the
//! `Serve[*]`/`Overload[*]` cells run at 1 and `threads_max` client threads.
//!
//! `--diff` compares plans/sec against a previously archived file and
//! prints the deltas — **warn-only**: it never fails the run, it just
//! makes perf regressions visible in the CI log.

use dpnext::adaptive::optimize_adaptive_run;
use dpnext::Optimizer;
use dpnext_bench::{run_sweep, AlgoSpec};
use dpnext_core::{optimize_with, recost_plan, Algorithm, OptContext, OptimizeOptions};
use dpnext_serve::{FaultInjector, OptimizerService, ServeError, ServiceConfig};
use dpnext_workload::{
    generate_query, perturbed_pair, request_mix, GenConfig, MixConfig, Topology,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const SIZES: [usize; 4] = [3, 4, 5, 6];
const QUERIES: usize = 20;
const SEED: u64 = 42;

/// Large-query cells: the adaptive degradation ladder on explicit
/// topologies beyond exact-DP reach, with a pinned budget so plans/s and
/// the winning-rung mix stay comparable across PRs.
const LARGE_TOPOLOGIES: [(Topology, &str); 3] = [
    (Topology::Chain, "chain"),
    (Topology::Star, "star"),
    (Topology::Clique, "clique"),
];
const LARGE_SIZES: [usize; 2] = [20, 30];
const LARGE_QUERIES: usize = 5;
const LARGE_BUDGET: u64 = 50_000;

/// Serving cells: queries/s through `dpnext-serve` for three request
/// paths — `cold` (no cache, no pool: every request a full optimize in a
/// fresh memo), `pooled` (no cache, arena pool on: full optimize in a
/// recycled memo) and `cached` (one hot shape: all but the first request
/// served from the plan cache) — at client-thread counts 1 and max.
const SERVE_N: usize = 6;
const SERVE_SHAPES: usize = 8;
const SERVE_REQUESTS_PER_CLIENT: usize = 64;

/// Robustness cells: plan drift under statistics q-error. Each cell
/// optimizes queries whose statistics were perturbed by a controlled
/// q-error, re-costs the chosen plan under the *true* statistics
/// ([`recost_plan`]) and reports the drift ratio chosen-cost /
/// true-optimum — 1.0 means the misestimates did not change the plan's
/// true cost at all.
const ROBUST_N: usize = 10;
const ROBUST_SEEDS: u64 = 3;
const ROBUST_QS: [f64; 3] = [1.0, 2.0, 4.0];
const ROBUST_TOPOLOGIES: [(Topology, &str); 2] =
    [(Topology::Chain, "chain"), (Topology::Star, "star")];
/// Optimization strategies compared under misestimation, as plan budgets
/// for the adaptive ladder: practically unbounded (the exact optimum on
/// the perturbed stats), the default large-query budget, and a
/// floor-clamped budget that ships the greedy plan.
const ROBUST_STRATEGIES: [(&str, u64); 3] =
    [("exact", 1 << 40), ("adaptive", 50_000), ("greedy", 1)];

/// Overload cells: the governed request path under pressure — a bounded
/// admission gate (2 concurrent + 2 queued), a per-request memory budget
/// and seeded memory-pressure faults. Reports serving throughput of the
/// *admitted* requests plus the governance counters and the
/// degradation-cause mix (which `--diff` compares across PRs).
const OVERLOAD_REQUESTS_PER_CLIENT: usize = 64;
const OVERLOAD_CONCURRENT: usize = 2;
const OVERLOAD_QUEUED: usize = 2;
const OVERLOAD_MEMORY_BUDGET: u64 = 192 << 10;
const OVERLOAD_PRESSURE_PER_MILLION: u32 = 250_000;
const OVERLOAD_PRESSURE_BUDGET: u64 = 48 << 10;

/// One emitted `(algorithm, n, threads)` measurement.
struct SmokeCell {
    algo: String,
    n: usize,
    /// Client threads driving the cell (1 everywhere but the
    /// `Serve[*]`/`Overload[*]` cells).
    threads: usize,
    queries: usize,
    runtime_us: f64,
    plans_built: f64,
    plans_per_sec: f64,
    arena: f64,
    width: f64,
    hit_rate: f64,
    /// Plan budget enforced on the cell's runs (0 = unbudgeted exact
    /// algorithm).
    budget: u64,
    /// Winning adaptive-ladder rungs, as `exact:a,linearized:b,greedy:c`
    /// counts (empty for the exact algorithms).
    modes: String,
    /// Whole requests served per second (serving cells only, 0 elsewhere).
    queries_per_sec: f64,
    /// Geometric-mean plan drift under q-error (robustness cells only,
    /// 0 elsewhere).
    drift_geomean: f64,
    /// Preformatted extra JSON fields (serving cells append cache/pool
    /// counters here; empty elsewhere).
    extra: String,
    /// Degradation-cause counts as `[budget_gated, budget_aborted,
    /// deadline_aborted, memory_aborted]` (adaptive and overload cells
    /// only; `None` elsewhere). `--diff` compares the mix across PRs.
    degradation: Option<[u64; 4]>,
    /// p99 per-request latency in µs (serving and overload cells only,
    /// 0 elsewhere). `--diff` compares it warn-only — mean throughput
    /// can hold steady while the tail quietly grows.
    latency_p99_us: f64,
}

/// The `q`-th percentile of per-request latencies (nanoseconds in,
/// microseconds out), by rank on the sorted samples.
fn latency_percentile_us(sorted_nanos: &[u64], q: f64) -> f64 {
    if sorted_nanos.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_nanos.len() as f64).ceil() as usize).clamp(1, sorted_nanos.len()) - 1;
    sorted_nanos[rank] as f64 / 1e3
}

fn main() {
    let mut out_path = "BENCH_smoke.json".to_string();
    let mut diff_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out_path = it.next().expect("missing value for --out"),
            "--diff" => diff_path = Some(it.next().expect("missing value for --diff")),
            other => panic!("unknown flag {other} (supported: --out PATH, --diff PATH)"),
        }
    }

    let max_n = *SIZES.last().unwrap();
    let algos = [
        AlgoSpec::new(Algorithm::EaPrune, max_n),
        AlgoSpec::new(Algorithm::EaAll, max_n),
        AlgoSpec::new(Algorithm::DPhyp, max_n),
    ];
    let result = run_sweep(&SIZES, QUERIES, SEED, &algos, GenConfig::paper);

    let mut cells: Vec<SmokeCell> = Vec::new();
    for (ai, spec) in result.algos.iter().enumerate() {
        for (si, n) in result.sizes.iter().enumerate() {
            let Some(cell) = &result.cells[ai][si] else {
                continue;
            };
            let runtime_s = cell.mean_runtime.as_secs_f64();
            cells.push(SmokeCell {
                algo: spec.algo.name(),
                n: *n,
                threads: 1,
                queries: QUERIES,
                runtime_us: runtime_s * 1e6,
                plans_built: cell.mean_plans_built,
                plans_per_sec: cell.mean_plans_built / runtime_s.max(1e-12),
                arena: cell.mean_arena_plans,
                width: cell.mean_peak_class_width,
                hit_rate: cell.mean_prune_hit_rate,
                budget: 0,
                modes: String::new(),
                queries_per_sec: 0.0,
                drift_geomean: 0.0,
                extra: String::new(),
                degradation: None,
                latency_p99_us: 0.0,
            });
        }
    }

    for (topo, tag) in LARGE_TOPOLOGIES {
        for n in LARGE_SIZES {
            cells.push(adaptive_cell(topo, tag, n));
        }
    }

    // At least 4 clients even when the box has fewer cores: contention on
    // the shared service is what the multi-client cells are for.
    let t_max = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .max(4);
    for client_threads in [1usize, t_max] {
        for mode in [ServeMode::Cold, ServeMode::Pooled, ServeMode::Cached] {
            cells.push(serve_cell(mode, client_threads));
        }
    }

    for (strategy, budget) in ROBUST_STRATEGIES {
        for (topo, tag) in ROBUST_TOPOLOGIES {
            for q in ROBUST_QS {
                cells.push(robust_cell(strategy, budget, topo, tag, q));
            }
        }
    }

    for client_threads in [1usize, t_max] {
        cells.push(overload_cell(client_threads));
    }

    let mut json = String::from("{\n  \"workload\": \"fig15-smoke\",\n");
    let _ = writeln!(
        json,
        "  \"large_query\": {{ \"sizes\": {LARGE_SIZES:?}, \"queries_per_cell\": \
         {LARGE_QUERIES}, \"plan_budget\": {LARGE_BUDGET} }},"
    );
    let _ = writeln!(json, "  \"sizes\": {SIZES:?},");
    let _ = writeln!(json, "  \"queries_per_size\": {QUERIES},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"threads_max\": {t_max},");
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        let mut budget = if c.budget > 0 {
            format!(
                ", \"plan_budget\": {}, \"modes\": \"{}\"",
                c.budget, c.modes
            )
        } else {
            String::new()
        };
        if c.queries_per_sec > 0.0 {
            let _ = write!(budget, ", \"queries_per_sec\": {:.0}", c.queries_per_sec);
        }
        // Per-cell extra block (serving counters, drift, degradation mix).
        budget.push_str(&c.extra);
        let _ = write!(
            json,
            "    {{ \"algorithm\": \"{}\", \"n\": {}, \"threads\": {}, \
             \"queries\": {}, \"mean_runtime_us\": {:.3}, \
             \"mean_plans_built\": {:.1}, \"plans_per_sec\": {:.0}, \
             \"mean_arena_plans\": {:.1}, \"mean_peak_class_width\": {:.1}, \
             \"mean_prune_hit_rate\": {:.4}{budget} }}",
            c.algo,
            c.n,
            c.threads,
            c.queries,
            c.runtime_us,
            c.plans_built,
            c.plans_per_sec,
            c.arena,
            c.width,
            c.hit_rate
        );
    }
    json.push_str("\n  ]\n}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("{json}");
    eprintln!("wrote {out_path}");

    if let Some(prev) = diff_path {
        diff_against(&prev, &cells);
    }
}

/// One large-query cell: `Algorithm::Adaptive` over `LARGE_QUERIES` random
/// queries of one (topology, n) with the pinned `LARGE_BUDGET`.
fn adaptive_cell(topo: Topology, tag: &str, n: usize) -> SmokeCell {
    let cfg = GenConfig::topology(n, topo);
    let opt = Optimizer::new(Algorithm::Adaptive)
        .explain(false)
        .plan_budget(LARGE_BUDGET);
    let mut runtime = 0.0f64;
    let mut plans = 0.0f64;
    let mut arena = 0.0f64;
    let mut width = 0.0f64;
    let mut hits = 0.0f64;
    let mut modes = [0usize; 4]; // exact / partial-exact / linearized / greedy
    let mut degr = [0u64; 4]; // gated / budget-aborted / deadline-aborted / memory-aborted
    for q in 0..LARGE_QUERIES {
        let seed = SEED
            .wrapping_add(n as u64 * 1_000_003)
            .wrapping_add(q as u64 * 7_919);
        let query = generate_query(&cfg, seed);
        let r = opt.optimize(&query);
        assert!(
            r.plans_built <= r.memo.plan_budget,
            "budget violated: {} > {}",
            r.plans_built,
            r.memo.plan_budget
        );
        runtime += r.elapsed.as_secs_f64();
        plans += r.plans_built as f64;
        arena += r.memo.arena_plans as f64;
        width += r.memo.peak_class_width as f64;
        hits += r.memo.prune_hit_rate();
        match r.memo.adaptive_mode {
            dpnext::AdaptiveMode::Exact => modes[0] += 1,
            dpnext::AdaptiveMode::PartialExact => modes[1] += 1,
            dpnext::AdaptiveMode::Linearized => modes[2] += 1,
            dpnext::AdaptiveMode::Greedy => modes[3] += 1,
            dpnext::AdaptiveMode::None => unreachable!("adaptive run reported no mode"),
        }
        degr[0] += r.memo.degradation.budget_gated as u64;
        degr[1] += r.memo.degradation.budget_aborted as u64;
        degr[2] += r.memo.degradation.deadline_aborted as u64;
        degr[3] += r.memo.degradation.memory_aborted as u64;
    }
    let m = LARGE_QUERIES as f64;
    SmokeCell {
        algo: format!("Adaptive[{tag}]"),
        n,
        threads: 1,
        queries: LARGE_QUERIES,
        runtime_us: runtime / m * 1e6,
        plans_built: plans / m,
        plans_per_sec: plans / runtime.max(1e-12),
        arena: arena / m,
        width: width / m,
        hit_rate: hits / m,
        budget: LARGE_BUDGET,
        modes: format!(
            "exact:{},partial-exact:{},linearized:{},greedy:{}",
            modes[0], modes[1], modes[2], modes[3]
        ),
        queries_per_sec: 0.0,
        drift_geomean: 0.0,
        // Why the ladder fell short of the exact rung, split by cause
        // (counts over the cell's queries).
        extra: degradation_json(degr),
        degradation: Some(degr),
        latency_p99_us: 0.0,
    }
}

/// The degradation-cause mix of a cell as a JSON object fragment.
fn degradation_json(degr: [u64; 4]) -> String {
    format!(
        ", \"degradation\": {{ \"budget_gated\": {}, \"budget_aborted\": {}, \
         \"deadline_aborted\": {}, \"memory_aborted\": {} }}",
        degr[0], degr[1], degr[2], degr[3]
    )
}

/// One robustness cell: optimize `ROBUST_SEEDS` queries whose statistics
/// carry a log-uniform q-error (`dpnext_workload::perturbed_pair`), then
/// re-cost each chosen plan under the true statistics and compare against
/// the true EA-Prune optimum. `q = 1` is the control: the perturbation is
/// the identity, so the exact strategy's drift is exactly 1.
fn robust_cell(strategy: &str, budget: u64, topo: Topology, tag: &str, q: f64) -> SmokeCell {
    let cfg = GenConfig::topology(ROBUST_N, topo);
    let opts = OptimizeOptions {
        explain: false,
        plan_budget: budget,
        ..OptimizeOptions::default()
    };
    let mut runtime = 0.0f64;
    let mut plans = 0.0f64;
    let mut log_drift_sum = 0.0f64;
    let mut drift_max = 1.0f64;
    let exact_opts = OptimizeOptions {
        plan_budget: 0,
        ..opts
    };
    for s in 0..ROBUST_SEEDS {
        let mut seed = SEED.wrapping_add(s * 104_729).wrapping_add(ROBUST_N as u64);
        // Skip degenerate queries whose true optimum costs ~0 (a zero
        // selectivity or empty table makes every plan free, so a drift
        // ratio carries no signal); the walk is deterministic, so the
        // cell stays comparable across runs.
        let (truth, perturbed, true_opt) = loop {
            let (t, p) = perturbed_pair(&cfg, seed, q);
            let o = optimize_with(&t, Algorithm::EaPrune, &exact_opts);
            if o.plan.cost > 1e-6 {
                break (t, p, o);
            }
            seed = seed.wrapping_add(1);
        };
        // The strategy only ever sees the perturbed statistics.
        let run = optimize_adaptive_run(&perturbed, &opts);
        runtime += run.optimized.elapsed.as_secs_f64();
        plans += run.optimized.plans_built as f64;
        // What the chosen plan actually costs in the true world.
        let true_ctx = OptContext::new(truth);
        let recosted = recost_plan(&true_ctx, &run.memo, run.winner)
            .unwrap_or_else(|e| panic!("recost failed ({strategy} {tag} q={q} seed {s}): {e}"));
        let drift = (recosted.cost / true_opt.plan.cost.max(1e-300)).max(1.0);
        log_drift_sum += drift.ln();
        drift_max = drift_max.max(drift);
    }
    let m = ROBUST_SEEDS as f64;
    let drift_geomean = (log_drift_sum / m).exp();
    SmokeCell {
        algo: format!("Robust[{strategy}|{tag}|q{q:.0}]"),
        n: ROBUST_N,
        threads: 1,
        queries: ROBUST_SEEDS as usize,
        runtime_us: runtime / m * 1e6,
        plans_built: plans / m,
        plans_per_sec: plans / runtime.max(1e-12),
        arena: 0.0,
        width: 0.0,
        hit_rate: 0.0,
        budget,
        modes: String::new(),
        queries_per_sec: 0.0,
        drift_geomean,
        extra: format!(
            ", \"qerror\": {q:.0}, \"drift_geomean\": {drift_geomean:.4}, \
             \"drift_max\": {drift_max:.4}"
        ),
        degradation: None,
        latency_p99_us: 0.0,
    }
}

/// Which request path a serving cell measures.
#[derive(Clone, Copy)]
enum ServeMode {
    Cold,
    Pooled,
    Cached,
}

impl ServeMode {
    fn tag(self) -> &'static str {
        match self {
            ServeMode::Cold => "cold",
            ServeMode::Pooled => "pooled",
            ServeMode::Cached => "cached",
        }
    }
}

/// One serving-throughput cell: `client_threads` workers sharing one
/// [`OptimizerService`], each firing its slice of a deterministic
/// request mix.
fn serve_cell(mode: ServeMode, client_threads: usize) -> SmokeCell {
    let total = SERVE_REQUESTS_PER_CLIENT * client_threads;
    let mix_cfg = match mode {
        // One hot shape: everything after the first arrival is a hit.
        ServeMode::Cached => MixConfig::uniform(1, SERVE_N),
        // Uniform traffic over a shape pool; with the cache off every
        // request runs the DP, so cold vs pooled isolates the arena pool.
        _ => MixConfig::uniform(SERVE_SHAPES, SERVE_N),
    };
    let mix = request_mix(&mix_cfg, total, SEED);
    let config = match mode {
        ServeMode::Cold => ServiceConfig {
            cache_capacity: 0,
            pool_capacity: 0,
            deadline: None,
            ..ServiceConfig::default()
        },
        ServeMode::Pooled => ServiceConfig {
            cache_capacity: 0,
            pool_capacity: client_threads,
            deadline: None,
            ..ServiceConfig::default()
        },
        ServeMode::Cached => ServiceConfig::default(),
    };
    let service =
        OptimizerService::with_config(Optimizer::new(Algorithm::EaPrune).explain(false), config);

    let plans = AtomicU64::new(0);
    let latencies = std::sync::Mutex::new(Vec::with_capacity(total));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..client_threads {
            let (service, mix, plans, latencies) = (&service, &mix, &plans, &latencies);
            scope.spawn(move || {
                let chunk = &mix.schedule()
                    [t * SERVE_REQUESTS_PER_CLIENT..(t + 1) * SERVE_REQUESTS_PER_CLIENT];
                let mut local = Vec::with_capacity(chunk.len());
                for &shape in chunk {
                    let t0 = Instant::now();
                    let served = service
                        .optimize(&mix.shapes()[shape])
                        .expect("no faults injected");
                    local.push(t0.elapsed().as_nanos() as u64);
                    plans.fetch_add(served.result.plans_built, Ordering::Relaxed);
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let runtime = start.elapsed().as_secs_f64();
    let mut latencies = latencies.into_inner().unwrap();
    latencies.sort_unstable();
    let p50 = latency_percentile_us(&latencies, 0.50);
    let p99 = latency_percentile_us(&latencies, 0.99);

    let stats = service.stats();
    SmokeCell {
        algo: format!("Serve[{}]", mode.tag()),
        n: SERVE_N,
        threads: client_threads,
        queries: total,
        runtime_us: runtime / total as f64 * 1e6,
        plans_built: plans.load(Ordering::Relaxed) as f64 / total as f64,
        plans_per_sec: plans.load(Ordering::Relaxed) as f64 / runtime.max(1e-12),
        arena: 0.0,
        width: 0.0,
        hit_rate: 0.0,
        budget: 0,
        modes: String::new(),
        queries_per_sec: total as f64 / runtime.max(1e-12),
        drift_geomean: 0.0,
        extra: format!(
            ", \"cache_hits\": {}, \"cache_misses\": {}, \"pool_created\": {}, \
             \"pool_reused\": {}, \"latency_p50_us\": {p50:.1}, \"latency_p99_us\": {p99:.1}",
            stats.cache.hits, stats.cache.misses, stats.pool.created, stats.pool.reused
        ),
        degradation: None,
        latency_p99_us: p99,
    }
}

/// One overload cell: `client_threads` workers hammering a governed
/// service — bounded admission, a per-request memory budget and seeded
/// memory-pressure faults. Rejected requests are part of the measurement
/// (they are the governance working), so the cell reports both the
/// admitted throughput and the full counter set.
fn overload_cell(client_threads: usize) -> SmokeCell {
    let total = OVERLOAD_REQUESTS_PER_CLIENT * client_threads;
    let mix = request_mix(&MixConfig::uniform(SERVE_SHAPES, SERVE_N), total, SEED);
    let service = OptimizerService::with_config(
        Optimizer::new(Algorithm::EaPrune).explain(false),
        ServiceConfig {
            cache_capacity: 0, // every request must reach the gate
            pool_capacity: client_threads,
            memory_budget: OVERLOAD_MEMORY_BUDGET,
            max_concurrent: OVERLOAD_CONCURRENT,
            max_queued: OVERLOAD_QUEUED,
            ..ServiceConfig::default()
        },
    )
    .with_fault_injection(
        FaultInjector::new(SEED, 0, 0, std::time::Duration::ZERO)
            .with_memory_pressure(OVERLOAD_PRESSURE_PER_MILLION, OVERLOAD_PRESSURE_BUDGET),
    );

    let plans = AtomicU64::new(0);
    let ok = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let degr = [(); 4].map(|_| AtomicU64::new(0));
    // Admitted-request latencies only: a fast rejection is governance
    // working, not tail latency of the serving path.
    let latencies = std::sync::Mutex::new(Vec::with_capacity(total));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..client_threads {
            let (service, mix, plans, ok, rejected, degr, latencies) =
                (&service, &mix, &plans, &ok, &rejected, &degr, &latencies);
            scope.spawn(move || {
                let chunk = &mix.schedule()
                    [t * OVERLOAD_REQUESTS_PER_CLIENT..(t + 1) * OVERLOAD_REQUESTS_PER_CLIENT];
                let mut local = Vec::with_capacity(chunk.len());
                for &shape in chunk {
                    let t0 = Instant::now();
                    match service.optimize(&mix.shapes()[shape]) {
                        Ok(served) => {
                            local.push(t0.elapsed().as_nanos() as u64);
                            ok.fetch_add(1, Ordering::Relaxed);
                            plans.fetch_add(served.result.plans_built, Ordering::Relaxed);
                            let d = served.result.memo.degradation;
                            for (slot, hit) in degr.iter().zip([
                                d.budget_gated,
                                d.budget_aborted,
                                d.deadline_aborted,
                                d.memory_aborted,
                            ]) {
                                slot.fetch_add(hit as u64, Ordering::Relaxed);
                            }
                        }
                        Err(ServeError::Overloaded { .. }) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("overload cell: unexpected error kind: {e}"),
                    }
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let runtime = start.elapsed().as_secs_f64();
    let mut latencies = latencies.into_inner().unwrap();
    latencies.sort_unstable();
    let p50 = latency_percentile_us(&latencies, 0.50);
    let p99 = latency_percentile_us(&latencies, 0.99);
    let (ok, rejected) = (ok.load(Ordering::Relaxed), rejected.load(Ordering::Relaxed));
    assert_eq!(
        total as u64,
        ok + rejected,
        "every overload request must resolve as a success or a rejection"
    );
    let degr = [0, 1, 2, 3].map(|i| degr[i].load(Ordering::Relaxed));

    let stats = service.stats();
    let mut extra = format!(
        ", \"served\": {ok}, \"rejected\": {rejected}, \"queued_peak\": {}, \
         \"shed\": {}, \"memory_degraded\": {}, \"ledger_peak_bytes\": {}, \
         \"quarantined_bytes\": {}",
        stats.gate.queued_peak,
        stats.shed,
        stats.memory_degraded,
        stats.ledger.peak,
        stats.ledger.quarantined_bytes,
    );
    let _ = write!(
        extra,
        ", \"latency_p50_us\": {p50:.1}, \"latency_p99_us\": {p99:.1}"
    );
    extra.push_str(&degradation_json(degr));
    SmokeCell {
        algo: "Overload[burst]".to_string(),
        n: SERVE_N,
        threads: client_threads,
        queries: total,
        runtime_us: runtime / total as f64 * 1e6,
        plans_built: plans.load(Ordering::Relaxed) as f64 / ok.max(1) as f64,
        plans_per_sec: plans.load(Ordering::Relaxed) as f64 / runtime.max(1e-12),
        arena: 0.0,
        width: 0.0,
        hit_rate: 0.0,
        budget: 0,
        modes: String::new(),
        queries_per_sec: ok as f64 / runtime.max(1e-12),
        drift_geomean: 0.0,
        extra,
        degradation: Some(degr),
        latency_p99_us: p99,
    }
}

/// One parsed cell of a previously archived `BENCH_smoke.json`.
struct PrevCell {
    algo: String,
    n: usize,
    threads: usize,
    plans_per_sec: f64,
    /// `None` for non-robustness cells and pre-robustness archives.
    drift_geomean: Option<f64>,
    /// Degradation-cause counts in [`SmokeCell::degradation`] order;
    /// `None` for cells and archives without the mix.
    degradation: Option<[f64; 4]>,
    /// p99 request latency in µs; `None` for non-serving cells and
    /// pre-latency archives.
    latency_p99_us: Option<f64>,
}

/// The four degradation-cause JSON keys, in [`SmokeCell::degradation`]
/// order.
const DEGRADATION_KEYS: [&str; 4] = [
    "\"budget_gated\": ",
    "\"budget_aborted\": ",
    "\"deadline_aborted\": ",
    "\"memory_aborted\": ",
];

fn parse_degradation(line: &str) -> Option<[f64; 4]> {
    let mut out = [0.0f64; 4];
    for (slot, key) in out.iter_mut().zip(DEGRADATION_KEYS) {
        *slot = field_num(line, key)?;
    }
    Some(out)
}

/// Compare two degradation-cause mixes as shares of their own totals and
/// describe any cause whose share moved by more than 25 points — a shift
/// in *why* the ladder degrades (e.g. deadline aborts turning into memory
/// aborts) that raw throughput numbers hide. Warn-only, like every other
/// diff signal.
fn degradation_shift(old: [f64; 4], new: [u64; 4]) -> String {
    let old_total: f64 = old.iter().sum();
    let new_total: f64 = new.iter().map(|&v| v as f64).sum();
    if old_total <= 0.0 || new_total <= 0.0 {
        // One side never degraded; shares are undefined. Flag only the
        // appearance of degradation where there was none.
        return if old_total <= 0.0 && new_total > 0.0 {
            format!("  ⚠ cell started degrading ({new_total:.0} causes, had none)")
        } else {
            String::new()
        };
    }
    let names = [
        "budget_gated",
        "budget_aborted",
        "deadline_aborted",
        "memory_aborted",
    ];
    let mut out = String::new();
    for i in 0..4 {
        let old_share = 100.0 * old[i] / old_total;
        let new_share = 100.0 * new[i] as f64 / new_total;
        if (new_share - old_share).abs() > 25.0 {
            let _ = write!(
                out,
                ", {} share {old_share:.0}% → {new_share:.0}%  ⚠ degradation mix shifted",
                names[i]
            );
        }
    }
    out
}

/// Parse a previously archived `BENCH_smoke.json` (our own line-per-cell
/// format) and print warn-only plans/sec deltas. Cells of the archive
/// with no counterpart in this run are ignored.
fn diff_against(prev_path: &str, cells: &[SmokeCell]) {
    let Ok(prev) = std::fs::read_to_string(prev_path) else {
        eprintln!("perf-diff: cannot read {prev_path}; skipping comparison");
        return;
    };
    let mut old: Vec<PrevCell> = Vec::new();
    for line in prev.lines() {
        let Some(algo) = field_str(line, "\"algorithm\": \"") else {
            continue;
        };
        let (Some(n), Some(pps)) = (
            field_num(line, "\"n\": "),
            field_num(line, "\"plans_per_sec\": "),
        ) else {
            continue;
        };
        let threads = field_num(line, "\"threads\": ").unwrap_or(1.0);
        old.push(PrevCell {
            algo,
            n: n as usize,
            threads: threads as usize,
            plans_per_sec: pps,
            drift_geomean: field_num(line, "\"drift_geomean\": "),
            degradation: parse_degradation(line),
            latency_p99_us: field_num(line, "\"latency_p99_us\": "),
        });
    }
    if old.is_empty() {
        eprintln!("perf-diff: no cells found in {prev_path}; skipping comparison");
        return;
    }
    eprintln!("perf-diff vs {prev_path} (warn-only):");
    for c in cells {
        let Some(prev) = old
            .iter()
            .find(|p| p.algo == c.algo && p.n == c.n && p.threads == c.threads)
        else {
            // Warn-only by design: a cell absent from the archive is a
            // freshly added measurement (new algorithm or size), not a
            // regression — the next run's archive has it.
            eprintln!(
                "  {:<10} n={} threads={}: new cell, no baseline in the previous artifact",
                c.algo, c.n, c.threads
            );
            continue;
        };
        let delta = 100.0 * (c.plans_per_sec - prev.plans_per_sec) / prev.plans_per_sec.max(1.0);
        let marker = if delta <= -10.0 {
            "  ⚠ regression?"
        } else {
            ""
        };
        // Robustness trajectory: plan drift under q-error is a quality
        // property, so a growing geomean means the optimizer became more
        // sensitive to misestimation — worth a look even when plans/sec
        // moved the right way.
        let drift = match prev.drift_geomean {
            Some(old_drift) if c.drift_geomean > 0.0 => {
                let warn = if c.drift_geomean > old_drift * 1.05 {
                    "  ⚠ drift growing?"
                } else {
                    ""
                };
                format!(", drift {:.3} → {:.3}{warn}", old_drift, c.drift_geomean)
            }
            _ => String::new(),
        };
        // Degradation-cause mix: same-throughput cells can still have
        // swapped *why* they degrade (satellite of the governance work) —
        // compare cause shares when both sides carry the mix.
        let mix = match (prev.degradation, c.degradation) {
            (Some(old_mix), Some(new_mix)) => degradation_shift(old_mix, new_mix),
            _ => String::new(),
        };
        // Tail-latency trajectory (serving and overload cells): p99 can
        // regress while mean throughput holds, so compare it on its own.
        // Warn-only like everything else here.
        let tail = match prev.latency_p99_us {
            Some(old_p99) if c.latency_p99_us > 0.0 && old_p99 > 0.0 => {
                let warn = if c.latency_p99_us > old_p99 * 1.25 {
                    "  ⚠ p99 latency regression?"
                } else {
                    ""
                };
                format!(", p99 {old_p99:.0}µs → {:.0}µs{warn}", c.latency_p99_us)
            }
            _ => String::new(),
        };
        eprintln!(
            "  {:<10} n={} threads={}: {:.0}k → {:.0}k plans/s \
             ({delta:+.1}%){marker}{drift}{tail}{mix}",
            c.algo,
            c.n,
            c.threads,
            prev.plans_per_sec / 1e3,
            c.plans_per_sec / 1e3
        );
    }
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let end = line[start..]
        .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-')
        .map(|e| e + start)
        .unwrap_or(line.len());
    line[start..end].parse().ok()
}
