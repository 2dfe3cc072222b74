//! Quickstart: build a small query, optimize it with every algorithm,
//! execute the plans and verify they agree.
//!
//! Run with `cargo run --example quickstart`.

use dpnext::algebra::{AggCall, AggKind, Expr, JoinPred, Relation, Value};
use dpnext::core::{explain, optimize_prepared, OptContext};
use dpnext::query::{GroupSpec, OpKind, OpTree, Query, QueryTable};
use dpnext::{Algorithm, Memo, Optimizer};
use dpnext_algebra::{AttrGen, AttrId, Database};

fn main() {
    // Schema: orders(o_id, o_cust), items(i_order, i_price),
    // customers(c_id, c_region).
    let o_id = AttrId(0);
    let o_cust = AttrId(1);
    let i_order = AttrId(2);
    let i_price = AttrId(3);
    let c_id = AttrId(4);
    let c_region = AttrId(5);

    let orders = QueryTable::new("orders", vec![o_id, o_cust], 1_000.0)
        .with_distinct(vec![1_000.0, 100.0])
        .with_key(vec![o_id]);
    let items = QueryTable::new("items", vec![i_order, i_price], 10_000.0)
        .with_distinct(vec![1_000.0, 500.0]);
    let customers = QueryTable::new("customers", vec![c_id, c_region], 100.0)
        .with_distinct(vec![100.0, 5.0])
        .with_key(vec![c_id]);

    // select c_region, count(*), sum(i_price)
    // from (orders join items on o_id = i_order)
    //      join customers on o_cust = c_id
    // group by c_region
    let tree = OpTree::binary_sel(
        OpKind::Join,
        JoinPred::eq(o_cust, c_id),
        1.0 / 100.0,
        OpTree::binary_sel(
            OpKind::Join,
            JoinPred::eq(o_id, i_order),
            1.0 / 1_000.0,
            OpTree::rel(0),
            OpTree::rel(1),
        ),
        OpTree::rel(2),
    );
    let mut gen = AttrGen::new(100);
    let spec = GroupSpec::new(
        vec![c_region],
        vec![
            AggCall::count_star(AttrId(200)),
            AggCall::new(AttrId(201), AggKind::Sum, Expr::attr(i_price)),
        ],
        &mut gen,
    );
    let query = Query::new(vec![orders, items, customers], tree, Some(spec));

    // A tiny concrete database to execute against.
    let mut db = Database::new();
    db.insert(
        "orders",
        Relation::from_ints(
            vec![o_id, o_cust],
            &[
                &[Some(0), Some(0)],
                &[Some(1), Some(0)],
                &[Some(2), Some(1)],
            ],
        ),
    );
    db.insert(
        "items",
        Relation::from_ints(
            vec![i_order, i_price],
            &[
                &[Some(0), Some(10)],
                &[Some(0), Some(20)],
                &[Some(1), Some(5)],
                &[Some(2), Some(7)],
            ],
        ),
    );
    db.insert(
        "customers",
        Relation::from_ints(
            vec![c_id, c_region],
            &[&[Some(0), Some(1)], &[Some(1), Some(2)]],
        ),
    );

    let reference = query.canonical_plan().eval(&db);
    println!("canonical result:\n{reference}");

    for algo in [
        Algorithm::DPhyp,
        Algorithm::H1,
        Algorithm::H2(1.03),
        Algorithm::EaAll,
        Algorithm::EaPrune,
    ] {
        let opt = Optimizer::new(algo).optimize(&query);
        let result = opt.plan.root.eval(&db);
        assert!(result.bag_eq(&reference), "{} plan disagrees!", algo.name());
        println!(
            "{:<12} estimated C_out = {:>10.1}   plans built = {:>5}   groupings in plan = {}",
            algo.name(),
            opt.plan.cost,
            opt.plans_built,
            opt.plan.root.grouping_count(),
        );
    }

    // EXPLAIN is rendered on demand, from the memo the run leaves behind:
    // run the optimizer's configuration in a memo held here, then render
    // its winner.
    let (algo, opts) = Optimizer::new(Algorithm::EaPrune).configured();
    let (ctx, mut memo) = (OptContext::new(query), Memo::new());
    let (best, winner) = optimize_prepared(&ctx, algo, &opts, &mut memo);
    println!("\noptimal plan (EA-Prune):\n{}", best.plan.root);
    println!(
        "memo: {} rows held, peak class width {}, prune hit-rate {:.0}%",
        best.memo.arena_plans,
        best.memo.peak_class_width,
        100.0 * best.memo.prune_hit_rate()
    );
    println!("EXPLAIN:\n{}", explain(&ctx, &memo, winner));
    let _ = Value::Int(0); // silence unused import lint in minimal builds
}
