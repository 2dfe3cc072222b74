//! The paper's plan-quality evaluation (§5), checked instead of printed:
//! Fig. 15 (DPhyp's cost relative to the optimum, the gain of eager
//! aggregation) and Fig. 17 (the heuristics H1 and H2 at
//! F ∈ {1.01, 1.03, 1.05, 1.1} relative to the optimum), over random
//! operator trees from `GenConfig::paper`. The optimum is EA-Prune's plan,
//! whose cost equals EA-All's (`parity.rs`).
//!
//! One sweep serves both figures: per query size `n`, each query is
//! optimized once by EA-Prune and once by every other algorithm. Every
//! query checks that no algorithm beats the optimum. Per `(algorithm, n)`
//! the geometric mean of the per-query cost ratios is compared, to 1e-9
//! relative, with a recorded table. Any divergence means plan choice
//! changed somewhere. To re-record after a *deliberate* change, empty the
//! table and copy the rows the failing test prints. Run with
//! `--nocapture` to read the figures.
//!
//! **H2 against H1.** The paper reports H2's eagerness-adjusted comparison
//! finding plans at least as cheap as H1's. This reproduction does not
//! show that ordering, so it is recorded, not asserted: at paper scale
//! H2(F=1.01) is within 0.3% of H1 at every `n`, and H2(F=1.1) is worse
//! than H1 at every `n ≥ 4` (1.0942 against 1.0711 at `n = 10`).

use dpnext_core::{optimize_with, Algorithm, OptimizeOptions};
use dpnext_workload::{generate_query, GenConfig};
use std::ops::RangeInclusive;

/// The algorithms measured against the optimum: Fig. 15's DPhyp, then
/// Fig. 17's H1 and H2 at its four tolerance factors.
const ALGORITHMS: [Algorithm; 6] = [
    Algorithm::DPhyp,
    Algorithm::H1,
    Algorithm::H2(1.01),
    Algorithm::H2(1.03),
    Algorithm::H2(1.05),
    Algorithm::H2(1.1),
];

/// Per query size `n`, the geometric mean cost ratio against EA-Prune of
/// each of [`ALGORITHMS`], in that order.
type Row = (usize, [f64; 6]);

/// The default slice: n = 3..=8, 100 queries per `n`.
#[rustfmt::skip]
const RECORDED: &[Row] = &[
    (3, [2.1268703327039487, 1.0153246932297568, 1.0153942029432586, 1.0155578917722339, 1.0158469017815361, 1.0165125563615223]),
    (4, [2.281935569435929, 1.0416310927615804, 1.0416928778190142, 1.0426054159211675, 1.0433148054806254, 1.047090715304282]),
    (5, [2.6530813300387392, 1.0351327047646837, 1.0314985406017736, 1.0312967287308121, 1.0329558870442603, 1.0302535021028614]),
    (6, [2.268333892391944, 1.0164433081600717, 1.017163087893526, 1.0199314297590274, 1.0227427294055813, 1.0301105256671643]),
    (7, [2.5097787284380275, 1.0688290393783269, 1.0682418228256851, 1.0656941512076643, 1.066822058737356, 1.0761991196255964]),
    (8, [2.522946430459408, 1.0254542080241758, 1.0233846002605793, 1.0275977180992204, 1.0367064968606816, 1.0587996246554179]),
];

/// The paper-scale run: n = 3..=11, 1,000 queries per `n`.
#[rustfmt::skip]
const RECORDED_PAPER_SCALE: &[Row] = &[
    (3, [2.1217541289743687, 1.0176024836737767, 1.0175936426730563, 1.0164728856578622, 1.014834866893861, 1.0146337907223086]),
    (4, [2.27869469192204, 1.0240154345502885, 1.024126011555401, 1.0237473830430912, 1.0237211078924606, 1.0246226973309065]),
    (5, [2.486266175052796, 1.0397953716277308, 1.0392949990375195, 1.0385126108286484, 1.0399027805960053, 1.0437863722297527]),
    (6, [2.6359683958091495, 1.0369912130561254, 1.036070098345806, 1.0378242424460957, 1.0406190509479196, 1.0470831203216115]),
    (7, [2.83348891910854, 1.0452593736191587, 1.046153208846174, 1.0481959812103707, 1.0494383408126826, 1.0575856118604952]),
    (8, [2.74954725028233, 1.0414026958522595, 1.0424073870029849, 1.045799821015277, 1.0497782948597543, 1.0599020491733973]),
    (9, [3.1926577796626154, 1.0464723369425462, 1.0470400464862133, 1.051379537108631, 1.0562351321219832, 1.0718300910594323]),
    (10, [3.4163811386591325, 1.0710833146023846, 1.06831508976664, 1.069584807508603, 1.0769187874636421, 1.0941529527273195]),
    (11, [3.8318654901048963, 1.0525676117517968, 1.0532550208886204, 1.0577387715748445, 1.065350324564829, 1.083323405840128]),
];

/// The seed of the `q`-th query of size `n`.
fn seed(n: usize, q: usize) -> u64 {
    42 + n as u64 * 1_000_003 + q as u64 * 7_919
}

/// Run the sweep, checking every query against its optimum, and return
/// one [`Row`] per size.
fn sweep(sizes: RangeInclusive<usize>, queries: usize) -> Vec<Row> {
    let opts = OptimizeOptions {
        explain: false,
        ..OptimizeOptions::default()
    };
    sizes
        .map(|n| {
            let mut log_sums = [0.0f64; 6];
            for q in 0..queries {
                let query = generate_query(&GenConfig::paper(n), seed(n, q));
                let cost = |algo| optimize_with(&query, algo, &opts).plan.cost;
                let optimum = cost(Algorithm::EaPrune);
                for (algo, log_sum) in ALGORITHMS.iter().zip(&mut log_sums) {
                    let c = cost(*algo);
                    assert!(
                        c >= optimum - 1e-9 * optimum.max(1.0),
                        "{} beat the optimum (n={n}, q={q}): {c} < {optimum}",
                        algo.name()
                    );
                    let ratio = if optimum > 0.0 { c / optimum } else { 1.0 };
                    *log_sum += ratio.ln();
                }
            }
            (n, log_sums.map(|s| (s / queries as f64).exp()))
        })
        .collect()
}

/// Print `rows` (both figures, one column per algorithm), then compare
/// them with `recorded`; on a mismatch, fail with the rows to record.
fn check(rows: &[Row], recorded: &[Row]) {
    print!("{:>3}", "n");
    for algo in ALGORITHMS {
        print!(" {:>11}", algo.name());
    }
    println!();
    for (n, ratios) in rows {
        print!("{n:>3}");
        for r in ratios {
            print!(" {r:>11.4}");
        }
        println!();
    }
    let matches = rows.len() == recorded.len()
        && rows.iter().zip(recorded).all(|((n, got), (m, want))| {
            n == m
                && got
                    .iter()
                    .zip(want)
                    .all(|(g, w)| (g - w).abs() <= 1e-9 * w.abs())
        });
    if !matches {
        let rows: String = rows
            .iter()
            .map(|(n, r)| format!("    ({n}, {r:?}),\n"))
            .collect();
        panic!("the sweep diverges from the recorded table; it now produces:\n{rows}");
    }
}

#[test]
fn figs_15_and_17_reproduce_the_recorded_ratios() {
    check(&sweep(3..=8, 100), RECORDED);
}

/// The paper's sizes at 1,000 queries per size (the paper draws 10,000).
/// Fig. 15's shape holds as a trend: DPhyp falls further behind the
/// optimum on large queries than on small ones. It is not monotone step
/// by step at this sample size (n = 8 reads below n = 7).
#[test]
#[ignore = "paper scale: about 15 s in release"]
fn figs_15_and_17_at_paper_scale() {
    let rows = sweep(3..=11, 1_000);
    let dphyp_mean = |rows: &[Row]| rows.iter().map(|(_, r)| r[0]).sum::<f64>() / rows.len() as f64;
    // Rows 0..3 are n = 3..=5, rows 6..9 are n = 9..=11.
    let (small, large) = (dphyp_mean(&rows[..3]), dphyp_mean(&rows[6..]));
    assert!(
        large > small,
        "DPhyp's gap to the optimum does not grow with n: {small} (n 3..=5) vs {large} (n 9..=11)"
    );
    check(&rows, RECORDED_PAPER_SCALE);
}
