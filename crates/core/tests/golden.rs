//! Golden grid for the degradation ladder. The 160-cell parity grid in
//! `dpnext-core` pins the exact engines; this table pins what the ladder
//! does with a budget: which rung wins, why it degraded, how many plans it
//! built and how many bytes it held — chain/star/clique/mixed queries of
//! 8 to 30 relations under plan budgets from "clamped to the greedy floor"
//! to "exact DP fits".
//!
//! The values were recorded at commit `84e85da` (three hand-threaded
//! limits, the `1 << 42` plan-budget sentinel), before the limits became
//! one `Budget`. Any divergence means the ladder's split rule, its gate,
//! the abort attribution or the enumeration order changed. To re-record
//! after a *deliberate* change, empty the table and copy the rows the
//! failing test prints.
//!
//! The tenth column, `live_bytes_peak`, is the one that may be re-recorded
//! on its own, and only under this rule: the nine other columns of all 72
//! rows stay byte-identical to `84e85da`'s, and every new peak is at most
//! the one it replaces. It was, twice: when the search began popping a
//! refused candidate before building the next one (PR 21; ÷1.96 … ÷22.6,
//! geomean ÷4.25), and when a full-set work unit that cannot beat the best
//! complete plan stopped being built at all and a losing complete plan
//! began to be popped like any other refused tree (PR 25, the complete-plan
//! bound: 63 rows lower, 9 unchanged, none higher; ÷1.00 … ÷1.145, geomean
//! ÷1.024).

use dpnext_core::{optimize_into, optimize_with, Algorithm, Memo, OptimizeOptions, Optimized};
use dpnext_workload::{generate_query, GenConfig, Topology};
use std::time::Duration;

/// Which limits a row arms.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arm {
    /// A plan budget and nothing else.
    Plans(u64),
    /// A deadline no run comes near, no plan budget.
    AmpleDeadline,
    /// A byte budget no run comes near, no plan budget.
    AmpleBytes,
}

const AMPLE_DEADLINE: Duration = Duration::from_secs(3600);
const AMPLE_BYTES: u64 = 1 << 40;
/// Budgets whose rows are also run with [`AMPLE_DEADLINE`] and
/// [`AMPLE_BYTES`] armed on top.
const TIGHT: [u64; 2] = [1, 2_000];
const SEED: u64 = 1;

fn options(arm: Arm) -> OptimizeOptions {
    let base = OptimizeOptions {
        explain: false,
        ..OptimizeOptions::default()
    };
    match arm {
        Arm::Plans(plan_budget) => OptimizeOptions {
            plan_budget,
            ..base
        },
        Arm::AmpleDeadline => OptimizeOptions {
            deadline: Some(AMPLE_DEADLINE),
            ..base
        },
        Arm::AmpleBytes => OptimizeOptions {
            memory_budget: AMPLE_BYTES,
            ..base
        },
    }
}

/// `(cost bits, plans_built, retained_plans, plan_budget, adaptive_mode,
/// degradation, live_bytes_peak)`.
type Outcome = (u64, u64, u64, u64, String, String, u64);

fn outcome(o: &Optimized) -> Outcome {
    (
        o.plan.cost.to_bits(),
        o.plans_built,
        o.retained_plans,
        o.memo.plan_budget,
        o.memo.adaptive_mode.to_string(),
        o.memo.degradation.to_string(),
        o.memo.live_bytes_peak,
    )
}

use Arm::{AmpleBytes as B, AmpleDeadline as D, Plans as P};
use Topology::{Chain, Clique, Mixed, Star};

/// `(topology, relations, limits, cost bits, plans_built, retained_plans,
/// plan_budget, adaptive_mode, degradation, live_bytes_peak)`.
///
/// The `plan_budget` of the `D` and `B` rows is 0 — no plan limit. It is
/// the one column that was not taken from `84e85da`, which reported its
/// `1 << 42` stand-in for "no limit" there.
type Row = (
    Topology,
    usize,
    Arm,
    u64,
    u64,
    u64,
    u64,
    &'static str,
    &'static str,
    u64,
);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    (Chain, 8, P(1), 0x40d864af8873373c, 987, 72, 1024, "greedy", "budget-aborted", 33112),
    (Chain, 8, P(2000), 0x40d6c02a480f230a, 1995, 87, 2000, "partial-exact", "budget-aborted", 49804),
    (Chain, 8, P(20000), 0x40d1e133da50cef8, 1350, 87, 20000, "exact", "none", 49480),
    (Chain, 8, P(200000), 0x40d1e133da50cef8, 1350, 87, 200000, "exact", "none", 49480),
    (Chain, 8, D, 0x40d1e133da50cef8, 1350, 87, 0, "exact", "none", 49480),
    (Chain, 8, B, 0x40d1e133da50cef8, 1350, 87, 0, "exact", "none", 49480),
    (Chain, 12, P(1), 0x40dfcdc6284986fa, 1060, 71, 1536, "linearized", "budget-gated", 37068),
    (Chain, 12, P(2000), 0x40e1e50d4058d928, 1992, 161, 2000, "greedy", "budget-aborted", 62692),
    (Chain, 12, P(20000), 0x40deb6cd92d7dc88, 7564, 284, 20000, "exact", "none", 148844),
    (Chain, 12, P(200000), 0x40deb6cd92d7dc88, 7564, 284, 200000, "exact", "none", 148844),
    (Chain, 20, P(1), 0x40f339a78ef9284e, 2527, 202, 2560, "greedy", "budget-gated+budget-aborted", 86804),
    (Chain, 20, P(2000), 0x40f339a78ef9284e, 2527, 202, 2560, "greedy", "budget-gated+budget-aborted", 86804),
    (Chain, 20, P(20000), 0x40f339a78ef9284e, 19992, 571, 20000, "greedy", "budget-aborted", 399944),
    (Chain, 20, P(200000), 0x40f2bb3632a9ef3a, 185355, 1269, 200000, "linearized", "budget-aborted", 1904176),
    (Chain, 30, P(1), 0x40d71b8dd8125b4f, 3836, 258, 3840, "greedy", "budget-gated+budget-aborted", 134128),
    (Chain, 30, P(2000), 0x40d71b8dd8125b4f, 3836, 258, 3840, "greedy", "budget-gated+budget-aborted", 134128),
    (Chain, 30, P(20000), 0x40c52238fabe5bcd, 15965, 840, 20000, "linearized", "budget-aborted", 478900),
    (Chain, 30, P(200000), 0x40bc424459bbd0b2, 28463, 1242, 200000, "exact", "none", 934456),
    (Star, 8, P(1), 0x403c551be43b3c65, 249, 36, 1024, "linearized", "budget-gated", 16336),
    (Star, 8, P(2000), 0x403c551be43b3c65, 249, 36, 2000, "linearized", "budget-gated", 16336),
    (Star, 8, P(20000), 0x403c551be43b3c65, 10384, 882, 20000, "linearized", "budget-aborted", 528432),
    (Star, 8, P(200000), 0x403c551be43b3c65, 13361, 919, 200000, "exact", "none", 610988),
    (Star, 8, D, 0x403c551be43b3c65, 13361, 919, 0, "exact", "none", 610988),
    (Star, 8, B, 0x403c551be43b3c65, 13361, 919, 0, "exact", "none", 610988),
    (Star, 12, P(1), 0x403b2f4d98d300e9, 623, 85, 1536, "linearized", "budget-gated", 34488),
    (Star, 12, P(2000), 0x403b2f4d98d300e9, 623, 85, 2000, "linearized", "budget-gated", 34488),
    (Star, 12, P(20000), 0x403b2f4d98d300e9, 623, 85, 20000, "linearized", "budget-gated", 34488),
    (Star, 12, P(200000), 0x403aa633ddfc8dab, 101154, 6964, 200000, "linearized", "budget-aborted", 3103592),
    (Star, 20, P(1), 0x4018f265cc7ebab1, 1980, 242, 2560, "linearized", "budget-gated", 107636),
    (Star, 20, P(2000), 0x4018f265cc7ebab1, 1980, 242, 2560, "linearized", "budget-gated", 107636),
    (Star, 20, P(20000), 0x4018f265cc7ebab1, 1980, 242, 20000, "linearized", "budget-gated", 107636),
    (Star, 20, P(200000), 0x4018f265cc7ebab1, 1980, 242, 200000, "linearized", "budget-gated", 107636),
    (Star, 30, P(1), 0x40a8dd8eb040d53c, 3143, 603, 3840, "greedy", "budget-gated+budget-aborted", 254840),
    (Star, 30, P(2000), 0x40a8dd8eb040d53c, 3143, 603, 3840, "greedy", "budget-gated+budget-aborted", 254840),
    (Star, 30, P(20000), 0x40a8dd8eb040d53c, 8738, 1265, 20000, "linearized", "budget-gated", 485724),
    (Star, 30, P(200000), 0x40a8dd8eb040d53c, 8738, 1265, 200000, "linearized", "budget-gated", 485724),
    (Clique, 8, P(1), 0x409c90174f835062, 244, 25, 1024, "exact", "none", 11440),
    (Clique, 8, P(2000), 0x409c90174f835062, 244, 25, 2000, "exact", "none", 11440),
    (Clique, 8, P(20000), 0x409c90174f835062, 244, 25, 20000, "exact", "none", 11440),
    (Clique, 8, P(200000), 0x409c90174f835062, 244, 25, 200000, "exact", "none", 11440),
    (Clique, 8, D, 0x409c90174f835062, 244, 25, 0, "exact", "none", 11440),
    (Clique, 8, B, 0x409c90174f835062, 244, 25, 0, "exact", "none", 11440),
    (Clique, 12, P(1), 0x40801ba4b969490d, 632, 67, 1536, "exact", "none", 38524),
    (Clique, 12, P(2000), 0x40801ba4b969490d, 632, 67, 2000, "exact", "none", 38524),
    (Clique, 12, P(20000), 0x40801ba4b969490d, 632, 67, 20000, "exact", "none", 38524),
    (Clique, 12, P(200000), 0x40801ba4b969490d, 632, 67, 200000, "exact", "none", 38524),
    (Clique, 20, P(1), 0x40a6fa3e719f4d5d, 2488, 154, 2560, "greedy", "budget-aborted", 112784),
    (Clique, 20, P(2000), 0x40a6fa3e719f4d5d, 2488, 154, 2560, "greedy", "budget-aborted", 112784),
    (Clique, 20, P(20000), 0x40a6fa3e719f4d5d, 1370, 154, 20000, "exact", "none", 108152),
    (Clique, 20, P(200000), 0x40a6fa3e719f4d5d, 1370, 154, 200000, "exact", "none", 108152),
    (Clique, 30, P(1), 0x40c1c243812de6f3, 3828, 336, 3840, "greedy", "budget-aborted", 231808),
    (Clique, 30, P(2000), 0x40c1c243812de6f3, 3828, 336, 3840, "greedy", "budget-aborted", 231808),
    (Clique, 30, P(20000), 0x40c1c243812de6f3, 2718, 381, 20000, "exact", "none", 243904),
    (Clique, 30, P(200000), 0x40c1c243812de6f3, 2718, 381, 200000, "exact", "none", 243904),
    (Mixed, 8, P(1), 0x408e32004faf1224, 896, 72, 1024, "linearized", "budget-aborted", 31996),
    (Mixed, 8, P(2000), 0x408e32004faf1224, 1364, 110, 2000, "linearized", "budget-aborted", 48652),
    (Mixed, 8, P(20000), 0x408e32004faf1224, 2012, 119, 20000, "exact", "none", 58816),
    (Mixed, 8, P(200000), 0x408e32004faf1224, 2012, 119, 200000, "exact", "none", 58816),
    (Mixed, 8, D, 0x408e32004faf1224, 2012, 119, 0, "exact", "none", 58816),
    (Mixed, 8, B, 0x408e32004faf1224, 2012, 119, 0, "exact", "none", 58816),
    (Mixed, 12, P(1), 0x40ffbf207c3949b5, 1481, 135, 1536, "greedy", "budget-aborted", 45760),
    (Mixed, 12, P(2000), 0x40ffbf207c3949b5, 1996, 192, 2000, "greedy", "budget-aborted", 64996),
    (Mixed, 12, P(20000), 0x40ff80bec6d67eb8, 9495, 501, 20000, "exact", "none", 220308),
    (Mixed, 12, P(200000), 0x40ff80bec6d67eb8, 9495, 501, 200000, "exact", "none", 220308),
    (Mixed, 20, P(1), 0x40c2370b91c5bf6b, 2535, 114, 2560, "greedy", "budget-aborted", 66980),
    (Mixed, 20, P(2000), 0x40c2370b91c5bf6b, 2535, 114, 2560, "greedy", "budget-aborted", 66980),
    (Mixed, 20, P(20000), 0x40bf34bb65242ab0, 19997, 665, 20000, "linearized", "budget-aborted", 544784),
    (Mixed, 20, P(200000), 0x40b1b6fc33c9a955, 11761, 666, 200000, "exact", "none", 545728),
    (Mixed, 30, P(1), 0x4102ba4729cf8d12, 3830, 306, 3840, "greedy", "budget-gated+budget-aborted", 181040),
    (Mixed, 30, P(2000), 0x4102ba4729cf8d12, 3830, 306, 3840, "greedy", "budget-gated+budget-aborted", 181040),
    (Mixed, 30, P(20000), 0x4102ba4729cf8d12, 19067, 1350, 20000, "greedy", "budget-gated+budget-aborted", 1094044),
    (Mixed, 30, P(200000), 0x40f85562834af2fb, 23293, 1523, 200000, "linearized", "budget-gated", 1464896),
];

/// Every row runs in one caller-held memo, which must come back from each
/// run — whichever rung and cause ended it — structurally sound
/// ([`Memo::check_invariants`], a real check in release builds too).
#[test]
fn ladder_reproduces_the_recorded_grid() {
    let mut actual = Vec::new();
    let mut memo = Memo::new();
    for topo in [Chain, Star, Clique, Mixed] {
        for n in [8usize, 12, 20, 30] {
            let query = generate_query(&GenConfig::topology(n, topo), SEED);
            let mut arms = vec![P(1), P(2_000), P(20_000), P(200_000)];
            if n == 8 {
                arms.extend([D, B]);
            }
            for arm in arms {
                let run = optimize_into(&query, Algorithm::Adaptive, &options(arm), &mut memo);
                memo.check_invariants()
                    .unwrap_or_else(|e| panic!("{topo:?} n={n} {arm:?}: {e}"));
                let got = outcome(&run);
                match arm {
                    // The tight budget is what trips: arming a deadline and
                    // a byte budget that never bind changes nothing, and in
                    // particular adds no cause to the degradation.
                    P(budget) if TIGHT.contains(&budget) => {
                        let all = optimize_with(
                            &query,
                            Algorithm::Adaptive,
                            &OptimizeOptions {
                                deadline: Some(AMPLE_DEADLINE),
                                memory_budget: AMPLE_BYTES,
                                ..options(arm)
                            },
                        );
                        assert_eq!(got, outcome(&all), "{topo:?} n={n} {arm:?} + ample");
                        let d = all.memo.degradation;
                        assert!(!d.resource_aborted(), "{topo:?} n={n} {arm:?}: {d}");
                    }
                    P(_) => {}
                    // Limits that never bind: the exact rung completes and
                    // the result is the EA-Prune optimum.
                    D | B => {
                        let exact = optimize_with(&query, Algorithm::EaPrune, &options(P(0)));
                        assert_eq!(exact.plan.cost.to_bits(), got.0, "{topo:?} n={n} {arm:?}");
                        assert_eq!(("exact", "none"), (got.4.as_str(), got.5.as_str()));
                    }
                }
                actual.push((topo, n, arm, got));
            }
        }
    }
    let matches = actual.len() == GOLDEN.len()
        && actual.iter().zip(GOLDEN).all(|((t, n, arm, got), g)| {
            let want = (g.3, g.4, g.5, g.6, g.7.to_string(), g.8.to_string(), g.9);
            (*t, *n, *arm) == (g.0, g.1, g.2) && *got == want
        });
    if !matches {
        let rows: String = actual
            .iter()
            .map(|(t, n, arm, g)| {
                let arm = match arm {
                    P(b) => format!("P({b})"),
                    D => "D".to_string(),
                    B => "B".to_string(),
                };
                format!(
                    "    ({t:?}, {n}, {arm}, {:#018x}, {}, {}, {}, {:?}, {:?}, {}),\n",
                    g.0, g.1, g.2, g.3, g.4, g.5, g.6
                )
            })
            .collect();
        panic!("the ladder diverges from the recorded grid; it now produces:\n{rows}");
    }
}
