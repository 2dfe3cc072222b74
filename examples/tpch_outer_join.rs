//! The paper's motivating scenario (§1): grouping above a full outerjoin.
//!
//! Reproduces the introductory query *Ex* end to end: optimize with and
//! without eager aggregation, execute both plans on synthetic TPC-H data
//! and report the speedup — the outerjoin is a reordering barrier for
//! classic optimizers, which is exactly what the paper's equivalences
//! remove.
//!
//! Run with `cargo run --release --example tpch_outer_join [scale]`.

use dpnext::workload::ex_query;
use dpnext::{Algorithm, Optimizer};
use std::time::Instant;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.01);
    let ex = ex_query();
    println!("query: {}\n", ex.sql);

    let db = ex.bound.database(scale, 7);
    println!(
        "data at scale {scale}: supplier = {}, customer = {} rows",
        db.get("s").unwrap().len(),
        db.get("c").unwrap().len()
    );

    let baseline = Optimizer::new(Algorithm::DPhyp).optimize(&ex.bound.query);
    let eager = Optimizer::new(Algorithm::EaPrune).optimize(&ex.bound.query);

    let t0 = Instant::now();
    let (res_base, cout_base) = baseline.plan.root.eval_counting(&db);
    let t_base = t0.elapsed();

    let t1 = Instant::now();
    let (res_eager, cout_eager) = eager.plan.root.eval_counting(&db);
    let t_eager = t1.elapsed();

    assert!(res_base.bag_eq(&res_eager), "plans disagree");

    println!("\nbaseline (grouping on top):");
    println!(
        "  measured C_out = {cout_base}, wall clock = {:.3} ms",
        t_base.as_secs_f64() * 1e3
    );
    println!("eager aggregation (grouping pushed through the outerjoin):");
    println!(
        "  measured C_out = {cout_eager}, wall clock = {:.3} ms",
        t_eager.as_secs_f64() * 1e3
    );
    println!(
        "\nspeedup: {:.1}x wall clock, {:.1}x C_out (paper: 2140 ms → 1.51 ms on HyPer)",
        t_base.as_secs_f64() / t_eager.as_secs_f64(),
        cout_base as f64 / cout_eager as f64
    );
    println!("\neager plan:\n{}", eager.plan.root);
}
