//! Figure 16: optimization runtime of DPhyp, EA-Prune, EA-All and H1
//! (log scale in the paper). EA-All stops at 8 relations, EA-Prune at a
//! configurable cap (13 in the paper; 10 by default here).
//!
//! Usage: `fig16 [--queries N] [--min N] [--max N] [--seed S]`.

use dpnext_bench::{print_memo_table, print_table, run_sweep, AlgoSpec, Args};
use dpnext_core::Algorithm;
use dpnext_workload::GenConfig;

fn main() {
    let args = Args::parse(20, 3, 16);
    let ea_all_cap = 7.min(args.max_n);
    let ea_prune_cap = 10.min(args.max_n);
    let algos = [
        AlgoSpec::new(Algorithm::DPhyp, args.max_n),
        AlgoSpec::new(Algorithm::H1, args.max_n),
        AlgoSpec::new(Algorithm::EaPrune, ea_prune_cap),
        AlgoSpec::new(Algorithm::EaAll, ea_all_cap),
    ];
    let result = run_sweep(
        &args.sizes(),
        args.queries,
        args.seed,
        &algos,
        GenConfig::paper,
    );
    println!(
        "{}",
        print_table(
            "Fig. 16 — mean optimization runtime [µs]",
            &result,
            |c| { format!("{:.1}", c.mean_runtime.as_secs_f64() * 1e6) }
        )
    );
    println!(
        "{}",
        print_table(
            "Fig. 16 (supplement) — mean plans constructed",
            &result,
            |c| { format!("{:.0}", c.mean_plans_built) }
        )
    );
    println!("{}", print_memo_table(&result));
}
