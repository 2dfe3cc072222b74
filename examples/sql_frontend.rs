//! Drive the whole system from SQL text through the [`Optimizer`] facade:
//! parse, bind against the TPC-H catalog, optimize with every algorithm,
//! execute at a small scale.
//!
//! Run with `cargo run --example sql_frontend ["<query>"]`.

use dpnext::{Algorithm, Optimizer};

const DEFAULT: &str = "select ns.n_name, nc.n_name, count(*) \
    from (nation ns join supplier s on ns.n_nationkey = s.s_nationkey) \
    full outer join \
    (nation nc join customer c on nc.n_nationkey = c.c_nationkey) \
    on ns.n_nationkey = nc.n_nationkey \
    group by ns.n_name, nc.n_name";

fn main() {
    let sql = std::env::args()
        .nth(1)
        .unwrap_or_else(|| DEFAULT.to_string());
    println!("SQL> {sql}\n");

    // Parse/bind once; the loop below reuses the bound query.
    let (bound, best) = match Optimizer::new(Algorithm::EaPrune).optimize_sql_bound(&sql) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    for algo in [Algorithm::DPhyp, Algorithm::H1, Algorithm::H2(1.03)] {
        let opt = Optimizer::new(algo).optimize(&bound.query);
        println!(
            "{:<12} estimated C_out = {:>14.1}   optimization time = {:>8.1} µs",
            algo.name(),
            opt.plan.cost,
            opt.elapsed.as_secs_f64() * 1e6
        );
    }
    println!(
        "{:<12} estimated C_out = {:>14.1}   optimization time = {:>8.1} µs",
        Algorithm::EaPrune.name(),
        best.plan.cost,
        best.elapsed.as_secs_f64() * 1e6
    );

    println!(
        "\nbound: {} table occurrence(s), output columns: {:?}",
        bound.query.table_count(),
        bound.output_names
    );
    println!(
        "memo: {} rows held (peak {}), prune hit-rate {:.0}%",
        best.memo.arena_plans,
        best.memo.arena_peak,
        100.0 * best.memo.prune_hit_rate()
    );
    println!("\nbest plan:\n{}", best.plan.root);

    // Execute on a small synthetic instance.
    let db = bound.database(0.002, 7);
    let result = best.plan.root.eval(&db);
    println!("result ({} rows, scale 0.002):", result.len());
    println!("{}", bound.output_names.join("\t"));
    for row in result.tuples().iter().take(10) {
        let vals: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("{}", vals.join("\t"));
    }
    if result.len() > 10 {
        println!("… ({} more rows)", result.len() - 10);
    }
}
