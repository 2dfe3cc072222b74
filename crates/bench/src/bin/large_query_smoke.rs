//! Large-query smoke: the CI canary for enumeration blowups. Runs
//! `Algorithm::Adaptive` on 30-relation queries of every explicit
//! topology — including the star, the expressible enumeration worst case
//! (`#ccp = 29·2^28`) — under a tight plan budget, and **fails hard**
//! (nonzero exit) when a budget is violated, a winning plan is invalid,
//! or any single optimization exceeds the wall-clock bound. The CI step
//! additionally wraps the whole run in a `timeout`, so even a hang inside
//! the enumerator (the exact failure mode the budget ladder exists to
//! prevent) surfaces as a fast red build instead of a stuck job.
//!
//! Usage: `large_query_smoke [--n N] [--budget B] [--limit-secs S]`.

use dpnext::adaptive::optimize_adaptive_run;
use dpnext::core::{validate_complete_plan, OptimizeOptions};
use dpnext_workload::{generate_query, GenConfig, Topology};
use std::time::Instant;

const TOPOLOGIES: [(Topology, &str); 4] = [
    (Topology::Chain, "chain"),
    (Topology::Star, "star"),
    (Topology::Clique, "clique"),
    (Topology::Mixed, "mixed"),
];

fn main() {
    let mut n = 30usize;
    let mut budget = 20_000u64;
    let mut limit_secs = 5.0f64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it
            .next()
            .unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--n" => n = v.parse().expect("--n"),
            "--budget" => budget = v.parse().expect("--budget"),
            "--limit-secs" => limit_secs = v.parse().expect("--limit-secs"),
            other => panic!("unknown flag {other} (supported: --n --budget --limit-secs)"),
        }
    }
    let opts = OptimizeOptions {
        explain: false,
        plan_budget: budget,
        ..OptimizeOptions::default()
    };
    let mut failures = 0usize;
    for (topo, tag) in TOPOLOGIES {
        for seed in 0..3u64 {
            let query = generate_query(&GenConfig::topology(n, topo), seed);
            let start = Instant::now();
            let run = optimize_adaptive_run(&query, &opts);
            let elapsed = start.elapsed().as_secs_f64();
            let stats = run.optimized.memo;
            let mut errs: Vec<String> = Vec::new();
            if run.optimized.plans_built > stats.plan_budget {
                errs.push(format!(
                    "plans_built {} > budget {}",
                    run.optimized.plans_built, stats.plan_budget
                ));
            }
            if let Err(e) = validate_complete_plan(&run.ctx, &run.memo, run.winner) {
                errs.push(format!("invalid plan: {e}"));
            }
            if elapsed > limit_secs {
                errs.push(format!("took {elapsed:.2}s (limit {limit_secs}s)"));
            }
            let verdict = if errs.is_empty() { "ok" } else { "FAIL" };
            println!(
                "{verdict}  {tag:<7} n={n} seed={seed}: mode={} plans={}/{} degraded={} \
                 cost={:.3e} {:.1}ms{}",
                stats.adaptive_mode,
                run.optimized.plans_built,
                stats.plan_budget,
                stats.degradation,
                run.optimized.plan.cost,
                elapsed * 1e3,
                if errs.is_empty() {
                    String::new()
                } else {
                    format!("  [{}]", errs.join("; "))
                }
            );
            failures += errs.len();
        }
    }
    if failures > 0 {
        eprintln!("large_query_smoke: {failures} failure(s)");
        std::process::exit(1);
    }
}
