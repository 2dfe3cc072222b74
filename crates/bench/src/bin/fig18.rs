//! Figure 18: runtime of H2 relative to H1 (around 1.0; H2 is often
//! slightly faster because eager plans expose key constraints that make
//! the top grouping obsolete, §5.3).
//!
//! Usage: `fig18 [--queries N] [--min N] [--max N] [--seed S]`.

use dpnext_bench::{print_memo_table, run_sweep, AlgoSpec, Args};
use dpnext_core::Algorithm;
use dpnext_workload::GenConfig;

fn main() {
    let args = Args::parse(30, 3, 16);
    let algos = [
        AlgoSpec::new(Algorithm::H1, args.max_n),
        AlgoSpec::new(Algorithm::H2(1.03), args.max_n),
    ];
    let result = run_sweep(
        &args.sizes(),
        args.queries,
        args.seed,
        &algos,
        GenConfig::paper,
    );
    println!("# Fig. 18 — runtime of H1 and H2 (F = 1.03), and their ratio");
    println!(
        "{:>4} {:>14} {:>14} {:>10}",
        "n", "H1 [µs]", "H2 [µs]", "H2/H1"
    );
    for (si, n) in result.sizes.iter().enumerate() {
        let h1 = result.cells[0][si].as_ref().unwrap();
        let h2 = result.cells[1][si].as_ref().unwrap();
        let t1 = h1.mean_runtime.as_secs_f64() * 1e6;
        let t2 = h2.mean_runtime.as_secs_f64() * 1e6;
        println!("{n:>4} {t1:>14.1} {t2:>14.1} {:>10.3}", t2 / t1);
    }
    println!();
    println!("{}", print_memo_table(&result));
}
