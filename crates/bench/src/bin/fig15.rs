//! Figure 15: average plan cost of DPhyp relative to EA-Prune/EA-All
//! (the gain of eager aggregation), over random operator trees.
//!
//! Usage: `fig15 [--queries N] [--min N] [--max N] [--seed S]`.
//! Paper setting: 10 000 queries per size, sizes 3..13. Defaults are
//! laptop-friendly; pass larger values to tighten the averages.

use dpnext_bench::{print_memo_table, print_table, run_sweep, AlgoSpec, Args};
use dpnext_core::Algorithm;
use dpnext_workload::GenConfig;

fn main() {
    let args = Args::parse(50, 3, 10);
    let algos = [
        AlgoSpec::new(Algorithm::EaPrune, args.max_n), // reference = optimum
        AlgoSpec::new(Algorithm::DPhyp, args.max_n),
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
            "Fig. 15 — plan cost relative to EA-Prune (= EA-All), geometric mean",
            &result,
            |c| format!("{:.2}", c.mean_rel_cost),
        )
    );
    println!(
        "{}",
        print_table(
            "Fig. 15 — plan cost relative to EA-Prune, arithmetic mean (the paper's curve)",
            &result,
            |c| format!("{:.2}", c.arith_rel_cost),
        )
    );
    println!(
        "{}",
        print_table(
            "Fig. 15 (outliers) — worst per-query ratio vs EA-Prune",
            &result,
            |c| { format!("{:.0}", c.max_rel_cost) }
        )
    );
    println!("{}", print_memo_table(&result));
}
