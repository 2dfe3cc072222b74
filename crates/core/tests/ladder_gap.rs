//! The adaptive ladder against the optimum, not the greedy plan, on the
//! requests of the benchmark's `adaptive-large` workload:
//! `GenConfig::topology(n, t)` for n ∈ {20, 30, 40}, t ∈ {Chain, Star,
//! Clique, Mixed} and generator seeds 0..4, under the plan budget that
//! workload sets (`Optimizer::plan_budget(50_000)`). The benchmark's
//! `plan_cost_ratio` compares the ladder's plan with the greedy plan, so it
//! cannot show how far the ladder is from the best plan; this test records
//! that gap, the way `evaluation.rs` records the heuristics' gap.
//!
//! Per request the record pins the ladder's cost over exact EA-Prune's (1
//! when both are 0), the plans the ladder built and the plans EA-Prune
//! built; any divergence means plan choice or the search's work changed
//! somewhere. To re-record after a *deliberate* change, copy the rows the
//! failing test prints. Run with `--nocapture` to read the summary.
//!
//! **Finding** (all 36 rows): the ladder ships the optimum to the bit on
//! 18 requests — all 12 cliques, `chain(20)` seeds 0 and 2, `chain(30)`
//! seed 1, `mixed(20)` seed 1, and `star(20)` seed 3 and `mixed(20)`
//! seed 0, whose plans cost 0 either way. Its cost is ×1.0000038 on
//! `star(20)` seed 2, ×1.097 on `chain(20)` seed 3, ×1.66 on `star(30)`
//! seed 2 and ×3.41 on `chain(40)` seed 1, the worst; the geomean is
//! ×1.114. On five requests exact EA-Prune builds fewer plans than the
//! ladder spent: `chain(20)` seeds 1 and 3, `star(20)` seed 3, `mixed(20)`
//! seed 0 and `mixed(40)` seed 1.
//!
//! Twelve requests are left out because exact EA-Prune does not finish
//! within ~10 s in release: `chain(40)` seed 3, `star(30)` seed 3,
//! `star(40)` seeds 0–3 (seed 3 takes 18 s and 43 M plans), `mixed(20)`
//! seed 2, `mixed(30)` seeds 0 and 1 (seed 1 takes ~63 s and 82 M plans),
//! and `mixed(40)` seeds 0, 2 and 3 (seed 0 takes 10–11 s, 26 M plans and
//! 0.7 GB).

use dpnext_core::{optimize_with, Algorithm, OptimizeOptions};
use dpnext_workload::{generate_query, GenConfig, Topology};

/// One request and its record: topology, n, generator seed, the ladder's
/// cost over the optimum, the plans the ladder built, the plans EA-Prune
/// built.
type Row = (Topology, usize, u64, f64, u64, u64);

/// The requests whose EA-Prune run takes about 10 ms or less in a debug
/// build.
#[rustfmt::skip]
const RECORDED: &[Row] = &[
    (Topology::Chain, 20, 3, 1.0967771630049679, 5065, 923),
    (Topology::Clique, 20, 0, 1.0, 122, 122),
    (Topology::Clique, 20, 1, 1.0, 228, 228),
    (Topology::Clique, 20, 2, 1.0, 166, 166),
    (Topology::Clique, 20, 3, 1.0, 180, 180),
];

/// The rest of the requests exact EA-Prune finishes: about 10 s in
/// release, 3 s of it `chain(40)` seed 2.
#[rustfmt::skip]
const RECORDED_SLOW: &[Row] = &[
    (Topology::Chain, 20, 0, 1.0, 8178, 8178),
    (Topology::Chain, 20, 1, 1.0281492707553423, 49906, 28694),
    (Topology::Chain, 20, 2, 1.0, 9615, 9615),
    (Topology::Chain, 30, 0, 1.0086472074950334, 49861, 388808),
    (Topology::Chain, 30, 1, 1.0, 16714, 16714),
    (Topology::Chain, 30, 2, 1.27522944631171, 48061, 56725),
    (Topology::Chain, 30, 3, 1.3410382188978713, 48996, 103693),
    (Topology::Chain, 40, 0, 1.955852495714841, 48580, 183087),
    (Topology::Chain, 40, 1, 3.409521490333614, 49580, 554306),
    (Topology::Chain, 40, 2, 1.1746444472937339, 49340, 909022),
    (Topology::Star, 20, 0, 1.1018614346447761, 759, 262820),
    (Topology::Star, 20, 1, 1.0000000000000395, 1841, 501626),
    (Topology::Star, 20, 2, 1.0000038499536825, 30255, 110369),
    (Topology::Star, 20, 3, 1.0, 1317, 118),
    (Topology::Star, 30, 0, 1.0174371912229863, 9827, 6862143),
    (Topology::Star, 30, 1, 1.2573795340082312, 8209, 5809286),
    (Topology::Star, 30, 2, 1.663254892440358, 11223, 369161),
    (Topology::Clique, 30, 0, 1.0, 196, 196),
    (Topology::Clique, 30, 1, 1.0, 324, 324),
    (Topology::Clique, 30, 2, 1.0, 212, 212),
    (Topology::Clique, 30, 3, 1.0, 240, 240),
    (Topology::Clique, 40, 0, 1.0, 276, 276),
    (Topology::Clique, 40, 1, 1.0, 364, 364),
    (Topology::Clique, 40, 2, 1.0, 296, 296),
    (Topology::Clique, 40, 3, 1.0, 302, 302),
    (Topology::Mixed, 20, 0, 1.0, 1371, 101),
    (Topology::Mixed, 20, 1, 1.0, 3490, 3490),
    (Topology::Mixed, 20, 3, 1.106267435268827, 1201, 195279),
    (Topology::Mixed, 30, 2, 1.0167640855525586, 40272, 1016015),
    (Topology::Mixed, 30, 3, 1.1625208209423534, 23354, 2493017),
    (Topology::Mixed, 40, 1, 1.0307434896567693, 49896, 28476),
];

/// Run the ladder and exact EA-Prune on each request of `recorded`,
/// checking that the ladder stays within its budget and never beats the
/// optimum, then compare the rows with the record; on a mismatch, fail
/// with the rows to record.
fn check(recorded: &[Row]) {
    let exact = OptimizeOptions {
        explain: false,
        ..OptimizeOptions::default()
    };
    let ladder = OptimizeOptions {
        plan_budget: 50_000,
        ..exact
    };
    let rows: Vec<Row> = recorded
        .iter()
        .map(|&(topology, n, seed, ..)| {
            let query = generate_query(&GenConfig::topology(n, topology), seed);
            let shipped = optimize_with(&query, Algorithm::Adaptive, &ladder);
            let optimum = optimize_with(&query, Algorithm::EaPrune, &exact);
            let (cost, best) = (shipped.plan.cost, optimum.plan.cost);
            let what = format!("{topology:?}({n}) seed {seed}");
            assert!(shipped.plans_built <= ladder.plan_budget, "{what}");
            assert!(
                cost >= best * (1.0 - 1e-9),
                "{what}: the ladder's {cost} beats the optimum {best}"
            );
            let ratio = if best > 0.0 { cost / best } else { 1.0 };
            let plans = (shipped.plans_built, optimum.plans_built);
            (topology, n, seed, ratio, plans.0, plans.1)
        })
        .collect();
    let ratios = || rows.iter().map(|r| r.3);
    let geomean = (ratios().map(f64::ln).sum::<f64>() / rows.len() as f64).exp();
    println!(
        "{} requests: {} at the optimum, geomean ×{geomean:.4}, worst ×{:.4}, \
         {} where EA-Prune builds fewer plans than the ladder",
        rows.len(),
        ratios().filter(|&r| r == 1.0).count(),
        ratios().fold(1.0, f64::max),
        rows.iter().filter(|r| r.5 < r.4).count(),
    );
    let matches = rows.len() == recorded.len()
        && rows.iter().zip(recorded).all(|(got, want)| {
            (got.0, got.1, got.2, got.4, got.5) == (want.0, want.1, want.2, want.4, want.5)
                && got.3.to_bits() == want.3.to_bits()
        });
    if !matches {
        let rows: String = rows
            .iter()
            .map(|(t, n, seed, ratio, ladder, exact)| {
                format!("    (Topology::{t:?}, {n}, {seed}, {ratio:?}, {ladder}, {exact}),\n")
            })
            .collect();
        panic!("the ladder's gap diverges from the record; it now reads:\n{rows}");
    }
}

#[test]
fn the_ladder_keeps_its_recorded_gap_to_the_optimum() {
    check(RECORDED);
}

#[test]
#[ignore = "about 10 s in release"]
fn the_ladder_keeps_its_recorded_gap_on_every_tractable_request() {
    check(RECORDED_SLOW);
}
