//! Golden grid for the degradation ladder. The 160-cell parity grid in
//! `dpnext-core` pins the exact engines; this table pins what the ladder
//! does with a budget: which rung wins, why it degraded, how many plans it
//! built and how many bytes it held — chain/star/clique/mixed queries of
//! 8 to 30 relations under plan budgets from "clamped to the greedy floor"
//! to "exact DP fits".
//!
//! Any divergence means the ladder's split rule, its gate, the abort
//! attribution, the enumeration order, what the search may skip or what a
//! work unit may reuse changed. To re-record after a *deliberate* change, empty the table,
//! copy the rows the failing test prints, and state here the rule the
//! new rows keep against the old.
//!
//! The values were first recorded at commit `84e85da` (three
//! hand-threaded limits, the `1 << 42` plan-budget sentinel), before the
//! limits became one `Budget`. Two re-records moved `live_bytes_peak`
//! alone, with every new peak at most the one it replaced: when the
//! search began popping a refused candidate before building the next one
//! (÷1.96 … ÷22.6, geomean ÷4.25), and when a full-set work unit that
//! cannot beat the best complete plan stopped being built (the
//! complete-plan bound; geomean ÷1.024).
//!
//! The **interior bound** re-recorded 50 of the 72 rows: the exact rung
//! skips an interior unit with `cost(t1) + cost(t2) ≥ best` and
//! refuses an interior candidate with `cost ≥ best`, `best` being the
//! greedy rung's plan until the walk finds a cheaper one. Its rule:
//! - no cost is higher (4 are lower), and no row gains a degradation cause;
//! - every `adaptive_mode` change is to `exact` with no degradation (11
//!   rows);
//! - `plans_built` is lower in 44 rows and higher in 4, each of which
//!   still aborts within its budget: the skipped units leave budget for
//!   more of the stream;
//! - `live_bytes_peak` is ÷2.32 lower in the geomean (÷0.93 … ÷63.5).
//!
//! **Shared groupings** came next: a pushed-down grouping
//! that survives its work unit is reused by the later units of its grid
//! row or column instead of being built again. 43 of the 72 rows moved,
//! under this rule:
//! - no cost is higher; Chain 8 P(1) is lower, because its greedy plan
//!   became a partial-exact one (`greedy` → `partial-exact`, still
//!   budget-aborted);
//! - no row gains a degradation cause;
//! - `plans_built` is lower in 37 rows and higher in 6, each of which is
//!   budget-aborted and still within its budget: the shared groupings
//!   leave budget for more of the stream;
//! - `live_bytes_peak` is ÷1.10 lower in the geomean of the moved rows
//!   (÷0.86 … ÷1.26). It is higher only in budget-aborted rows whose walk
//!   got further: Star 30 P(1) and P(2000) by 3.2%, Mixed 30 P(20000) by
//!   16%.
//!
//! The last four columns are the books of the dominance fold
//! (`prune_attempts`, `prune_rejected`, `prune_evicted`,
//! `peak_class_width`), recorded at commit `ff966df`, before the fold
//! searched a cost-sorted row array per class instead of the arena. How a
//! class is searched must not move what a fold decides, so these columns
//! move only with the relation or the enumeration order.
//!
//! The four `B` rows (an ample byte budget on each 8-relation query) went
//! with the byte budget itself, which left 68 rows; no remaining row was
//! edited.
//!
//! The **mirror rule** re-recorded all 68 rows: a dominance search settles
//! the second orientation of an inner join, the first one swapped, instead
//! of building it, because its trees tie their twins of the first
//! orientation and are all refused. Its rule:
//! - only `live_bytes_peak`, `prune_attempts` and `prune_rejected` move;
//!   every other column is byte-identical;
//! - `prune_attempts − prune_rejected` is identical on every row: the
//!   folds that stopped happening are exactly the refused mirror trees;
//! - no `live_bytes_peak` is higher (×0.795 … ×0.9993, geomean ×0.955):
//!   no mirror tree is ever live.
//!
//! The last re-record moved `live_bytes_peak` alone, on all 68 rows, when
//! a plan row stopped holding its visible attributes (a run of the
//! attribute lane) and its applied-operator mask (8 bytes of the hot row).
//! Its rule: every other column is string-identical, and every new peak
//! is lower than the one it replaced (×0.657 … ×0.805, geomean ×0.737).
//!
//! The last re-record moved `live_bytes_peak` alone, on all 68 rows, when
//! a key became a bit mask over the query's key attributes: a key costs
//! `8·W` bytes where it cost an 8-byte span plus 4 per attribute, and a
//! grouping's attributes are its one key instead of a run of their own.
//! Same rule: every other column is string-identical, and every new peak
//! is lower than the one it replaced (×0.796 … ×0.969, geomean ×0.897).

use dpnext_core::{
    optimize_into, optimize_with, Algorithm, Memo, MemoStats, OptimizeOptions, Optimized,
};
use dpnext_workload::{generate_query, GenConfig, Topology};
use std::time::Duration;

/// Which limits a row arms.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arm {
    /// A plan budget and nothing else.
    Plans(u64),
    /// A deadline no run comes near, no plan budget.
    AmpleDeadline,
}

const AMPLE_DEADLINE: Duration = Duration::from_secs(3600);
/// Budgets whose rows are also run with [`AMPLE_DEADLINE`] armed on top.
const TIGHT: [u64; 2] = [1, 2_000];
const SEED: u64 = 1;

fn options(arm: Arm) -> OptimizeOptions {
    match arm {
        Arm::Plans(plan_budget) => OptimizeOptions {
            plan_budget,
            ..OptimizeOptions::default()
        },
        Arm::AmpleDeadline => OptimizeOptions {
            deadline: Some(AMPLE_DEADLINE),
            ..OptimizeOptions::default()
        },
    }
}

/// `(cost bits, plans_built, retained_plans, plan_budget, adaptive_mode,
/// degradation, live_bytes_peak, prune_attempts, prune_rejected,
/// prune_evicted, peak_class_width)`.
type Outcome = (u64, u64, u64, u64, String, String, u64, u64, u64, u64, u64);

fn outcome(o: &Optimized) -> Outcome {
    (
        o.plan.cost.to_bits(),
        o.plans_built,
        o.retained_plans,
        o.memo.plan_budget,
        o.memo.adaptive_mode.to_string(),
        o.memo.degradation.to_string(),
        o.memo.live_bytes_peak,
        o.memo.prune_attempts,
        o.memo.prune_rejected,
        o.memo.prune_evicted,
        o.memo.peak_class_width,
    )
}

use Arm::{AmpleDeadline as D, Plans as P};
use Topology::{Chain, Clique, Mixed, Star};

/// `(topology, relations, limits, cost bits, plans_built, retained_plans,
/// plan_budget, adaptive_mode, degradation, live_bytes_peak,
/// prune_attempts, prune_rejected, prune_evicted, peak_class_width)`.
///
/// The `plan_budget` of the `D` rows is 0 — no plan limit. It is
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
    u64,
    u64,
    u64,
    u64,
);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    (Chain, 8, P(1), 0x40d6c02a480f230a, 972, 76, 1024, "partial-exact", "budget-aborted", 22464, 349, 248, 28, 22),
    (Chain, 8, P(2000), 0x40d1e133da50cef8, 716, 65, 2000, "exact", "none", 19720, 173, 85, 26, 18),
    (Chain, 8, P(20000), 0x40d1e133da50cef8, 716, 65, 20000, "exact", "none", 19720, 173, 85, 26, 18),
    (Chain, 8, P(200000), 0x40d1e133da50cef8, 716, 65, 200000, "exact", "none", 19720, 173, 85, 26, 18),
    (Chain, 8, D, 0x40d1e133da50cef8, 716, 65, 0, "exact", "none", 19720, 173, 85, 26, 18),
    (Chain, 12, P(1), 0x40dfcdc6284986fa, 1011, 71, 1536, "linearized", "budget-gated", 24016, 376, 291, 16, 9),
    (Chain, 12, P(2000), 0x40e1e50d4058d928, 1981, 159, 2000, "greedy", "budget-aborted", 41448, 716, 544, 15, 9),
    (Chain, 12, P(20000), 0x40deb6cd92d7dc88, 1578, 145, 20000, "exact", "none", 32608, 380, 229, 8, 7),
    (Chain, 12, P(200000), 0x40deb6cd92d7dc88, 1578, 145, 200000, "exact", "none", 32608, 380, 229, 8, 7),
    (Chain, 20, P(1), 0x40f339a78ef9284e, 2553, 205, 2560, "greedy", "budget-gated+budget-aborted", 54512, 935, 674, 56, 13),
    (Chain, 20, P(2000), 0x40f339a78ef9284e, 2553, 205, 2560, "greedy", "budget-gated+budget-aborted", 54512, 935, 674, 56, 13),
    (Chain, 20, P(20000), 0x40f339a78ef9284e, 19930, 494, 20000, "greedy", "budget-aborted", 178856, 7171, 6278, 399, 41),
    (Chain, 20, P(200000), 0x40f2b2e816a4b82d, 28694, 684, 200000, "exact", "none", 297696, 9890, 8303, 903, 61),
    (Chain, 30, P(1), 0x40d71b8dd8125b4f, 3787, 286, 3840, "greedy", "budget-gated+budget-aborted", 86600, 1609, 1212, 115, 17),
    (Chain, 30, P(2000), 0x40d71b8dd8125b4f, 3787, 286, 3840, "greedy", "budget-gated+budget-aborted", 86600, 1609, 1212, 115, 17),
    (Chain, 30, P(20000), 0x40c42f3a65d006f9, 16583, 781, 20000, "linearized", "budget-aborted", 268224, 5973, 4670, 526, 24),
    (Chain, 30, P(200000), 0x40bc424459bbd0b2, 16714, 913, 200000, "exact", "none", 328948, 6443, 4729, 805, 37),
    (Star, 8, P(1), 0x403c551be43b3c65, 237, 36, 1024, "linearized", "budget-gated", 10452, 78, 35, 6, 11),
    (Star, 8, P(2000), 0x403c551be43b3c65, 237, 36, 2000, "linearized", "budget-gated", 10452, 78, 35, 6, 11),
    (Star, 8, P(20000), 0x403c551be43b3c65, 1329, 89, 20000, "exact", "none", 18472, 243, 118, 35, 7),
    (Star, 8, P(200000), 0x403c551be43b3c65, 1329, 89, 200000, "exact", "none", 18472, 243, 118, 35, 7),
    (Star, 8, D, 0x403c551be43b3c65, 1329, 89, 0, "exact", "none", 18472, 243, 118, 35, 7),
    (Star, 12, P(1), 0x403b2f4d98d300e9, 585, 85, 1536, "linearized", "budget-gated", 20820, 224, 138, 0, 12),
    (Star, 12, P(2000), 0x403b2f4d98d300e9, 585, 85, 2000, "linearized", "budget-gated", 20820, 224, 138, 0, 12),
    (Star, 12, P(20000), 0x403b2f4d98d300e9, 585, 85, 20000, "linearized", "budget-gated", 20820, 224, 138, 0, 12),
    (Star, 12, P(200000), 0x403aa633ddfc8dab, 2214, 153, 200000, "exact", "none", 30700, 448, 258, 36, 5),
    (Star, 20, P(1), 0x4018f265cc7ebab1, 1841, 242, 2560, "linearized", "budget-gated", 51096, 654, 374, 34, 42),
    (Star, 20, P(2000), 0x4018f265cc7ebab1, 1841, 242, 2560, "linearized", "budget-gated", 51096, 654, 374, 34, 42),
    (Star, 20, P(20000), 0x4018f265cc7ebab1, 1841, 242, 20000, "linearized", "budget-gated", 51096, 654, 374, 34, 42),
    (Star, 20, P(200000), 0x4018f265cc7ebab1, 1841, 242, 200000, "linearized", "budget-gated", 51096, 654, 374, 34, 42),
    (Star, 30, P(1), 0x40a8dd8eb040d53c, 3529, 845, 3840, "greedy", "budget-gated+budget-aborted", 158152, 1896, 959, 86, 155),
    (Star, 30, P(2000), 0x40a8dd8eb040d53c, 3529, 845, 3840, "greedy", "budget-gated+budget-aborted", 158152, 1896, 959, 86, 155),
    (Star, 30, P(20000), 0x40a8dd8eb040d53c, 8209, 1265, 20000, "linearized", "budget-gated", 250668, 3388, 2009, 108, 155),
    (Star, 30, P(200000), 0x40a8dd8eb040d53c, 8209, 1265, 200000, "linearized", "budget-gated", 250668, 3388, 2009, 108, 155),
    (Clique, 8, P(1), 0x409c90174f835062, 114, 14, 1024, "exact", "none", 3984, 22, 9, 1, 3),
    (Clique, 8, P(2000), 0x409c90174f835062, 114, 14, 2000, "exact", "none", 3984, 22, 9, 1, 3),
    (Clique, 8, P(20000), 0x409c90174f835062, 114, 14, 20000, "exact", "none", 3984, 22, 9, 1, 3),
    (Clique, 8, P(200000), 0x409c90174f835062, 114, 14, 200000, "exact", "none", 3984, 22, 9, 1, 3),
    (Clique, 8, D, 0x409c90174f835062, 114, 14, 0, "exact", "none", 3984, 22, 9, 1, 3),
    (Clique, 12, P(1), 0x40801ba4b969490d, 150, 22, 1536, "exact", "none", 7536, 38, 17, 1, 3),
    (Clique, 12, P(2000), 0x40801ba4b969490d, 150, 22, 2000, "exact", "none", 7536, 38, 17, 1, 3),
    (Clique, 12, P(20000), 0x40801ba4b969490d, 150, 22, 20000, "exact", "none", 7536, 38, 17, 1, 3),
    (Clique, 12, P(200000), 0x40801ba4b969490d, 150, 22, 200000, "exact", "none", 7536, 38, 17, 1, 3),
    (Clique, 20, P(1), 0x40a6fa3e719f4d5d, 228, 38, 2560, "exact", "none", 14632, 64, 28, 2, 2),
    (Clique, 20, P(2000), 0x40a6fa3e719f4d5d, 228, 38, 2560, "exact", "none", 14632, 64, 28, 2, 2),
    (Clique, 20, P(20000), 0x40a6fa3e719f4d5d, 228, 38, 20000, "exact", "none", 14632, 64, 28, 2, 2),
    (Clique, 20, P(200000), 0x40a6fa3e719f4d5d, 228, 38, 200000, "exact", "none", 14632, 64, 28, 2, 2),
    (Clique, 30, P(1), 0x40c1c243812de6f3, 324, 58, 3840, "exact", "none", 24480, 92, 34, 6, 3),
    (Clique, 30, P(2000), 0x40c1c243812de6f3, 324, 58, 3840, "exact", "none", 24480, 92, 34, 6, 3),
    (Clique, 30, P(20000), 0x40c1c243812de6f3, 324, 58, 20000, "exact", "none", 24480, 92, 34, 6, 3),
    (Clique, 30, P(200000), 0x40c1c243812de6f3, 324, 58, 200000, "exact", "none", 24480, 92, 34, 6, 3),
    (Mixed, 8, P(1), 0x408e32004faf1224, 146, 17, 1024, "exact", "none", 4780, 33, 16, 3, 2),
    (Mixed, 8, P(2000), 0x408e32004faf1224, 146, 17, 2000, "exact", "none", 4780, 33, 16, 3, 2),
    (Mixed, 8, P(20000), 0x408e32004faf1224, 146, 17, 20000, "exact", "none", 4780, 33, 16, 3, 2),
    (Mixed, 8, P(200000), 0x408e32004faf1224, 146, 17, 200000, "exact", "none", 4780, 33, 16, 3, 2),
    (Mixed, 8, D, 0x408e32004faf1224, 146, 17, 0, "exact", "none", 4780, 33, 16, 3, 2),
    (Mixed, 12, P(1), 0x40ffbf207c3949b5, 1477, 147, 1536, "greedy", "budget-aborted", 31204, 524, 363, 16, 23),
    (Mixed, 12, P(2000), 0x40ffbf207c3949b5, 1974, 175, 2000, "greedy", "budget-aborted", 40148, 696, 497, 26, 25),
    (Mixed, 12, P(20000), 0x40ff80bec6d67eb8, 1767, 118, 20000, "exact", "none", 33056, 563, 413, 34, 9),
    (Mixed, 12, P(200000), 0x40ff80bec6d67eb8, 1767, 118, 200000, "exact", "none", 33056, 563, 413, 34, 9),
    (Mixed, 20, P(1), 0x40c2370b91c5bf6b, 2547, 140, 2560, "greedy", "budget-aborted", 42664, 966, 757, 68, 14),
    (Mixed, 20, P(2000), 0x40c2370b91c5bf6b, 2547, 140, 2560, "greedy", "budget-aborted", 42664, 966, 757, 68, 14),
    (Mixed, 20, P(20000), 0x40b1b6fc33c9a955, 3490, 255, 20000, "exact", "none", 77176, 1150, 739, 155, 42),
    (Mixed, 20, P(200000), 0x40b1b6fc33c9a955, 3490, 255, 200000, "exact", "none", 77176, 1150, 739, 155, 42),
    (Mixed, 30, P(1), 0x4102ba4729cf8d12, 3823, 301, 3840, "greedy", "budget-gated+budget-aborted", 97436, 1551, 1058, 195, 31),
    (Mixed, 30, P(2000), 0x4102ba4729cf8d12, 3823, 301, 3840, "greedy", "budget-gated+budget-aborted", 97436, 1551, 1058, 195, 31),
    (Mixed, 30, P(20000), 0x4102ba4729cf8d12, 19793, 1521, 20000, "greedy", "budget-gated+budget-aborted", 665088, 8806, 6454, 834, 210),
    (Mixed, 30, P(200000), 0x40f85562834af2fb, 21437, 1523, 200000, "linearized", "budget-gated", 666448, 8814, 6460, 834, 210),
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
                arms.push(D);
            }
            for arm in arms {
                let run = optimize_into(&query, Algorithm::Adaptive, &options(arm), &mut memo);
                memo.check_invariants()
                    .unwrap_or_else(|e| panic!("{topo:?} n={n} {arm:?}: {e}"));
                let got = outcome(&run);
                match arm {
                    // The tight budget is what trips: arming a deadline
                    // that never binds changes nothing, and in particular
                    // adds no cause to the degradation.
                    P(budget) if TIGHT.contains(&budget) => {
                        let all = optimize_with(
                            &query,
                            Algorithm::Adaptive,
                            &OptimizeOptions {
                                deadline: Some(AMPLE_DEADLINE),
                                ..options(arm)
                            },
                        );
                        assert_eq!(got, outcome(&all), "{topo:?} n={n} {arm:?} + ample");
                        let d = all.memo.degradation;
                        assert!(!d.deadline_aborted, "{topo:?} n={n} {arm:?}: {d}");
                    }
                    P(_) => {}
                    // A limit that never binds: the exact rung completes
                    // and the result is the EA-Prune optimum.
                    D => {
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
            let want = (
                g.3,
                g.4,
                g.5,
                g.6,
                g.7.to_string(),
                g.8.to_string(),
                g.9,
                g.10,
                g.11,
                g.12,
                g.13,
            );
            (*t, *n, *arm) == (g.0, g.1, g.2) && *got == want
        });
    if !matches {
        let rows: String = actual
            .iter()
            .map(|(t, n, arm, g)| {
                let arm = match arm {
                    P(b) => format!("P({b})"),
                    D => "D".to_string(),
                };
                format!(
                    "    ({t:?}, {n}, {arm}, {:#018x}, {}, {}, {}, {:?}, {:?}, {}, {}, {}, {}, {}),\n",
                    g.0, g.1, g.2, g.3, g.4, g.5, g.6, g.7, g.8, g.9, g.10
                )
            })
            .collect();
        panic!("the ladder diverges from the recorded grid; it now produces:\n{rows}");
    }
}

/// `(prune_attempts, prune_rejected, prune_evicted, widest class)` summed
/// (the width: maximised) over the runs of `queries` under `algo`.
fn fold_books(
    queries: impl Iterator<Item = dpnext_query::Query>,
    algo: Algorithm,
    plan_budget: u64,
) -> (u64, u64, u64, u64) {
    let opts = OptimizeOptions {
        plan_budget,
        ..options(P(0))
    };
    let mut memo = Memo::new();
    queries
        .map(|q| optimize_into(&q, algo, &opts, &mut memo).memo)
        .fold((0, 0, 0, 0), |(a, r, e, w), m: MemoStats| {
            (
                a + m.prune_attempts,
                r + m.prune_rejected,
                e + m.prune_evicted,
                w.max(m.peak_class_width),
            )
        })
}

/// The fold's books over two query sets of the repository benchmark, as
/// recorded at commit `ff966df`: EA-Prune on `paper(8..=11)` × seeds 0..24,
/// and the ladder under a 50,000-plan budget on 20-, 30- and 40-relation
/// chain/star/clique/mixed queries × seeds 0..4, whose classes run to a
/// thousand plans. The EA-Prune row was re-recorded when the greedy seed
/// began to estimate a full outer join's cut with the distinct counts of
/// its staged orientation (one rejection more, one eviction fewer; the
/// attempts, the width and the ladder row did not move). Both rows were
/// re-recorded when the mirror orientation of an inner join stopped being
/// built (EA-Prune 47,350 / 36,648 → 29,075 / 18,373 attempts / rejections,
/// the ladder 595,826 / 509,985 → 350,575 / 264,734): the folds that stopped
/// are refused ones, so `attempts − rejected`, the evictions and the width
/// did not move. Under a second in release; the CI `slow-oracle` job runs
/// it.
#[test]
#[ignore]
fn fold_books_of_the_benchmark_query_sets() {
    let paper = (8..=11usize)
        .flat_map(|n| (0..24u64).map(move |seed| generate_query(&GenConfig::paper(n), seed)));
    assert_eq!(
        (29_075, 18_373, 3_199, 60),
        fold_books(paper, Algorithm::EaPrune, 0),
        "EA-Prune, paper(8..=11)"
    );
    let large = [Chain, Star, Clique, Mixed].into_iter().flat_map(|topo| {
        [20usize, 30, 40].into_iter().flat_map(move |n| {
            (0..4u64).map(move |seed| generate_query(&GenConfig::topology(n, topo), seed))
        })
    });
    assert_eq!(
        (350_575, 264_734, 24_387, 1_216),
        fold_books(large, Algorithm::Adaptive, 50_000),
        "the ladder, 20-40 relations"
    );
}
