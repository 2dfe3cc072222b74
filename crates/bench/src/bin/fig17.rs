//! Figure 17: plan quality of the heuristics — H1 and H2 with tolerance
//! factors F ∈ {1.01, 1.03, 1.05, 1.1} — relative to the optimum
//! (EA-Prune).
//!
//! Usage: `fig17 [--queries N] [--min N] [--max N] [--seed S]`.

use dpnext_bench::{print_memo_table, print_table, run_sweep, AlgoSpec, Args};
use dpnext_core::Algorithm;
use dpnext_workload::GenConfig;

fn main() {
    let args = Args::parse(50, 3, 10);
    let algos = [
        AlgoSpec::new(Algorithm::EaPrune, args.max_n), // reference
        AlgoSpec::new(Algorithm::H1, args.max_n),
        AlgoSpec::new(Algorithm::H2(1.01), args.max_n),
        AlgoSpec::new(Algorithm::H2(1.03), args.max_n),
        AlgoSpec::new(Algorithm::H2(1.05), args.max_n),
        AlgoSpec::new(Algorithm::H2(1.1), args.max_n),
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
            "Fig. 17 — heuristic plan cost relative to EA-Prune",
            &result,
            |c| { format!("{:.4}", c.mean_rel_cost) }
        )
    );
    println!(
        "{}",
        print_table(
            "Fig. 17 (outliers) — worst per-query ratio",
            &result,
            |c| { format!("{:.2}", c.max_rel_cost) }
        )
    );
    println!("{}", print_memo_table(&result));
}
