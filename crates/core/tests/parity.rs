//! Parity suite for the memo/engine refactor: the arena-backed engine
//! must reproduce the seed implementation bit for bit. The golden values
//! below (final-plan cost as raw f64 bits, `plans_built`,
//! `retained_plans`) were recorded by running the pre-refactor
//! `Rc<PlanData>`-based generators on the oracle and paper workload
//! seeds; any divergence means the enumeration order, cost model or
//! retention behavior changed.
//!
//! One deliberate change since: EA-Prune seeds its walk with the greedy
//! plan and skips every interior unit that plan's cost already beats. Its
//! `plans_built` and `retained_plans` cells were re-recorded under this
//! rule: the cost column is unedited, `retained_plans` is never higher, and
//! `plans_built` is higher only by the greedy's plans, at most
//! `budget_floor(n)` (16 of the 32 grid rows read higher, by at most 36,
//! and 11 lower). The paper rows at n = 8..11 came with it: their costs
//! are the unseeded walk's, their counts the seeded one's (paper(11) seed 4
//! built 211,311 plans unseeded, 6,930 seeded), so they fail if the bound
//! stops biting.
//!
//! A second one: a pushed-down grouping that survives its work unit is
//! reused by the later units of its grid row or column instead of being
//! built again. Its `plans_built` cells were re-recorded under this rule:
//! the cost column is unedited, `retained_plans` is unchanged, and
//! `plans_built` is lower in 27 rows (19 EA-All, 8 EA-Prune) and higher in
//! none. DPhyp, H1 and H2, whose classes hold one plan, do not move.
//! (paper(11) seed 4 now builds 6,848.)

use dpnext_core::ladder::budget_floor;
use dpnext_core::{
    all_subplans, optimize, optimize_into, optimize_with, AdaptiveMode, Algorithm as A, Memo,
    MemoStats, OptimizeOptions, PlanNode,
};
use dpnext_query::Query;
use dpnext_workload::{generate_query, GenConfig};
use proptest::prelude::*;
use std::time::Duration;

#[derive(Clone, Copy)]
enum Cfg {
    Oracle,
    Paper,
}

impl Cfg {
    fn config(self, n: usize) -> GenConfig {
        match self {
            Cfg::Oracle => GenConfig::oracle(n),
            Cfg::Paper => GenConfig::paper(n),
        }
    }
}

/// `(workload, n_relations, seed, algorithm, cost bits, plans_built,
/// retained_plans)` — recorded from the seed implementation.
#[rustfmt::skip]
const GOLDEN: &[(Cfg, usize, u64, A, u64, u64, u64)] = &[
    (Cfg::Oracle, 2, 0, A::DPhyp, 0x0000000000000000, 1, 2),
    (Cfg::Oracle, 2, 0, A::H1, 0x0000000000000000, 1, 2),
    (Cfg::Oracle, 2, 0, A::H2(1.03), 0x0000000000000000, 1, 2),
    (Cfg::Oracle, 2, 0, A::EaAll, 0x0000000000000000, 1, 2),
    (Cfg::Oracle, 2, 0, A::EaPrune, 0x0000000000000000, 1, 2),
    (Cfg::Oracle, 2, 1, A::DPhyp, 0x403738543a16a575, 2, 2),
    (Cfg::Oracle, 2, 1, A::H1, 0x403738543a16a575, 2, 2),
    (Cfg::Oracle, 2, 1, A::H2(1.03), 0x403738543a16a575, 2, 2),
    (Cfg::Oracle, 2, 1, A::EaAll, 0x403738543a16a575, 2, 2),
    (Cfg::Oracle, 2, 1, A::EaPrune, 0x403738543a16a575, 2, 2),
    (Cfg::Oracle, 2, 2, A::DPhyp, 0x4011e8ed460fd039, 2, 2),
    (Cfg::Oracle, 2, 2, A::H1, 0x4011e8ed460fd039, 12, 2),
    (Cfg::Oracle, 2, 2, A::H2(1.03), 0x4011e8ed460fd039, 12, 2),
    (Cfg::Oracle, 2, 2, A::EaAll, 0x4011e8ed460fd039, 12, 2),
    (Cfg::Oracle, 2, 2, A::EaPrune, 0x4011e8ed460fd039, 12, 2),
    (Cfg::Oracle, 2, 3, A::DPhyp, 0x4018000000000000, 1, 2),
    (Cfg::Oracle, 2, 3, A::H1, 0x4018000000000000, 1, 2),
    (Cfg::Oracle, 2, 3, A::H2(1.03), 0x4018000000000000, 1, 2),
    (Cfg::Oracle, 2, 3, A::EaAll, 0x4018000000000000, 1, 2),
    (Cfg::Oracle, 2, 3, A::EaPrune, 0x4018000000000000, 1, 2),
    (Cfg::Oracle, 2, 4, A::DPhyp, 0x40016b3af31ad178, 2, 2),
    (Cfg::Oracle, 2, 4, A::H1, 0x40016b3af31ad178, 12, 2),
    (Cfg::Oracle, 2, 4, A::H2(1.03), 0x40016b3af31ad178, 12, 2),
    (Cfg::Oracle, 2, 4, A::EaAll, 0x40016b3af31ad178, 12, 2),
    (Cfg::Oracle, 2, 4, A::EaPrune, 0x40016b3af31ad178, 12, 2),
    (Cfg::Oracle, 3, 0, A::DPhyp, 0x40266c485634b560, 4, 4),
    (Cfg::Oracle, 3, 0, A::H1, 0x40266c485634b560, 4, 4),
    (Cfg::Oracle, 3, 0, A::H2(1.03), 0x40266c485634b560, 4, 4),
    (Cfg::Oracle, 3, 0, A::EaAll, 0x40266c485634b560, 6, 5),
    (Cfg::Oracle, 3, 0, A::EaPrune, 0x40266c485634b560, 8, 4),
    (Cfg::Oracle, 3, 1, A::DPhyp, 0x403020188dc3a6a3, 4, 4),
    (Cfg::Oracle, 3, 1, A::H1, 0x403020188dc3a6a3, 18, 4),
    (Cfg::Oracle, 3, 1, A::H2(1.03), 0x403020188dc3a6a3, 18, 4),
    (Cfg::Oracle, 3, 1, A::EaAll, 0x403020188dc3a6a3, 54, 7),
    (Cfg::Oracle, 3, 1, A::EaPrune, 0x403020188dc3a6a3, 48, 5),
    (Cfg::Oracle, 3, 2, A::DPhyp, 0x0000000000000000, 4, 5),
    (Cfg::Oracle, 3, 2, A::H1, 0x0000000000000000, 18, 5),
    (Cfg::Oracle, 3, 2, A::H2(1.03), 0x0000000000000000, 18, 5),
    (Cfg::Oracle, 3, 2, A::EaAll, 0x0000000000000000, 33, 9),
    (Cfg::Oracle, 3, 2, A::EaPrune, 0x0000000000000000, 15, 4),
    (Cfg::Oracle, 3, 3, A::DPhyp, 0x40417c507c917f24, 4, 4),
    (Cfg::Oracle, 3, 3, A::H1, 0x4035faea846bafe8, 12, 4),
    (Cfg::Oracle, 3, 3, A::H2(1.03), 0x4035faea846bafe8, 12, 4),
    (Cfg::Oracle, 3, 3, A::EaAll, 0x4035faea846bafe8, 30, 7),
    (Cfg::Oracle, 3, 3, A::EaPrune, 0x4035faea846bafe8, 30, 5),
    (Cfg::Oracle, 3, 4, A::DPhyp, 0x403f830d794a3296, 6, 5),
    (Cfg::Oracle, 3, 4, A::H1, 0x403f830d794a3296, 36, 5),
    (Cfg::Oracle, 3, 4, A::H2(1.03), 0x403f830d794a3296, 36, 5),
    (Cfg::Oracle, 3, 4, A::EaAll, 0x4032d17052dad0bc, 108, 15),
    (Cfg::Oracle, 3, 4, A::EaPrune, 0x4032d17052dad0bc, 69, 7),
    (Cfg::Oracle, 4, 0, A::DPhyp, 0x400a87c766a7cdd9, 17, 9),
    (Cfg::Oracle, 4, 0, A::H1, 0x400a87c766a7cdd9, 39, 9),
    (Cfg::Oracle, 4, 0, A::H2(1.03), 0x400a87c766a7cdd9, 39, 9),
    (Cfg::Oracle, 4, 0, A::EaAll, 0x400a87c766a7cdd9, 167, 39),
    (Cfg::Oracle, 4, 0, A::EaPrune, 0x400a87c766a7cdd9, 51, 9),
    (Cfg::Oracle, 4, 1, A::DPhyp, 0x40151d7cf594afa8, 8, 7),
    (Cfg::Oracle, 4, 1, A::H1, 0x40151d7cf594afa8, 28, 7),
    (Cfg::Oracle, 4, 1, A::H2(1.03), 0x40151d7cf594afa8, 28, 7),
    (Cfg::Oracle, 4, 1, A::EaAll, 0x40151d7cf594afa8, 131, 32),
    (Cfg::Oracle, 4, 1, A::EaPrune, 0x40151d7cf594afa8, 53, 9),
    (Cfg::Oracle, 4, 2, A::DPhyp, 0x404ec6676d46810d, 6, 7),
    (Cfg::Oracle, 4, 2, A::H1, 0x40469be42724e66e, 36, 7),
    (Cfg::Oracle, 4, 2, A::H2(1.03), 0x40469be42724e66e, 36, 7),
    (Cfg::Oracle, 4, 2, A::EaAll, 0x403f3072b7c34c01, 358, 42),
    (Cfg::Oracle, 4, 2, A::EaPrune, 0x403f3072b7c34c01, 93, 13),
    (Cfg::Oracle, 4, 3, A::DPhyp, 0x4026d90e6f3f7d06, 7, 7),
    (Cfg::Oracle, 4, 3, A::H1, 0x4026d90e6f3f7d06, 9, 7),
    (Cfg::Oracle, 4, 3, A::H2(1.03), 0x4026d90e6f3f7d06, 9, 7),
    (Cfg::Oracle, 4, 3, A::EaAll, 0x4026d90e6f3f7d06, 15, 10),
    (Cfg::Oracle, 4, 3, A::EaPrune, 0x4026d90e6f3f7d06, 17, 8),
    (Cfg::Oracle, 4, 4, A::DPhyp, 0x403296dbe5250384, 6, 6),
    (Cfg::Oracle, 4, 4, A::H1, 0x403296dbe5250384, 24, 6),
    (Cfg::Oracle, 4, 4, A::H2(1.03), 0x403296dbe5250384, 24, 6),
    (Cfg::Oracle, 4, 4, A::EaAll, 0x403296dbe5250384, 178, 16),
    (Cfg::Oracle, 4, 4, A::EaPrune, 0x403296dbe5250384, 58, 8),
    (Cfg::Oracle, 5, 0, A::DPhyp, 0x4018812e8a45264c, 44, 16),
    (Cfg::Oracle, 5, 0, A::H1, 0x4018812e8a45264c, 62, 16),
    (Cfg::Oracle, 5, 0, A::H2(1.03), 0x4018812e8a45264c, 62, 16),
    (Cfg::Oracle, 5, 0, A::EaAll, 0x4018812e8a45264c, 403, 158),
    (Cfg::Oracle, 5, 0, A::EaPrune, 0x4018812e8a45264c, 86, 21),
    (Cfg::Oracle, 5, 1, A::DPhyp, 0x40055d3f0d8f4380, 19, 12),
    (Cfg::Oracle, 5, 1, A::H1, 0x40055d3f0d8f4380, 77, 12),
    (Cfg::Oracle, 5, 1, A::H2(1.03), 0x40055d3f0d8f4380, 77, 12),
    (Cfg::Oracle, 5, 1, A::EaAll, 0x40055d3f0d8f4380, 380, 79),
    (Cfg::Oracle, 5, 1, A::EaPrune, 0x40055d3f0d8f4380, 67, 9),
    (Cfg::Oracle, 5, 2, A::DPhyp, 0x403a5d0163b9e521, 22, 11),
    (Cfg::Oracle, 5, 2, A::H1, 0x40308be26b1c7244, 102, 11),
    (Cfg::Oracle, 5, 2, A::H2(1.03), 0x40308be26b1c7244, 102, 11),
    (Cfg::Oracle, 5, 2, A::EaAll, 0x4030451f42cea0b6, 14435, 569),
    (Cfg::Oracle, 5, 2, A::EaPrune, 0x4030451f42cea0b6, 240, 18),
    (Cfg::Oracle, 5, 3, A::DPhyp, 0x4037ae3fdb887c60, 12, 9),
    (Cfg::Oracle, 5, 3, A::H1, 0x4037ae3fdb887c60, 16, 9),
    (Cfg::Oracle, 5, 3, A::H2(1.03), 0x4037ae3fdb887c60, 16, 9),
    (Cfg::Oracle, 5, 3, A::EaAll, 0x4037ae3fdb887c60, 94, 33),
    (Cfg::Oracle, 5, 3, A::EaPrune, 0x4037ae3fdb887c60, 32, 10),
    (Cfg::Oracle, 5, 4, A::DPhyp, 0x4089b447e5e71040, 13, 10),
    (Cfg::Oracle, 5, 4, A::H1, 0x407b2b0434e53276, 78, 10),
    (Cfg::Oracle, 5, 4, A::H2(1.03), 0x407b2b0434e53276, 78, 10),
    (Cfg::Oracle, 5, 4, A::EaAll, 0x407b2b0434e53276, 4389, 297),
    (Cfg::Oracle, 5, 4, A::EaPrune, 0x407b2b0434e53276, 235, 18),
    (Cfg::Paper, 3, 1000, A::DPhyp, 0x40fc11999f96456c, 6, 5),
    (Cfg::Paper, 3, 1000, A::H1, 0x40c4563e03bf115f, 30, 5),
    (Cfg::Paper, 3, 1000, A::H2(1.03), 0x40c4563e03bf115f, 30, 5),
    (Cfg::Paper, 3, 1000, A::EaAll, 0x40c4563e03bf115f, 58, 13),
    (Cfg::Paper, 3, 1000, A::EaPrune, 0x40c4563e03bf115f, 42, 4),
    (Cfg::Paper, 3, 1001, A::DPhyp, 0x40c176fb4bcd7524, 8, 5),
    (Cfg::Paper, 3, 1001, A::H1, 0x4092300000000000, 22, 5),
    (Cfg::Paper, 3, 1001, A::H2(1.03), 0x4092300000000000, 22, 5),
    (Cfg::Paper, 3, 1001, A::EaAll, 0x4092300000000000, 47, 9),
    (Cfg::Paper, 3, 1001, A::EaPrune, 0x4092300000000000, 36, 5),
    (Cfg::Paper, 3, 1002, A::DPhyp, 0x40b0475a4a022ab3, 6, 5),
    (Cfg::Paper, 3, 1002, A::H1, 0x40b0475a4a022ab3, 18, 5),
    (Cfg::Paper, 3, 1002, A::H2(1.03), 0x40b0475a4a022ab3, 18, 5),
    (Cfg::Paper, 3, 1002, A::EaAll, 0x40b0475a4a022ab3, 25, 9),
    (Cfg::Paper, 3, 1002, A::EaPrune, 0x40b0475a4a022ab3, 24, 4),
    (Cfg::Paper, 4, 1000, A::DPhyp, 0x40668856e5b5eebc, 14, 9),
    (Cfg::Paper, 4, 1000, A::H1, 0x4062759f5f2ec52f, 75, 9),
    (Cfg::Paper, 4, 1000, A::H2(1.03), 0x4062759f5f2ec52f, 75, 9),
    (Cfg::Paper, 4, 1000, A::EaAll, 0x4062759f5f2ec52f, 471, 100),
    (Cfg::Paper, 4, 1000, A::EaPrune, 0x4062759f5f2ec52f, 60, 6),
    (Cfg::Paper, 4, 1001, A::DPhyp, 0x40a93ec91dc20ba2, 14, 10),
    (Cfg::Paper, 4, 1001, A::H1, 0x40a93ec91dc20ba2, 34, 10),
    (Cfg::Paper, 4, 1001, A::H2(1.03), 0x40a93ec91dc20ba2, 34, 10),
    (Cfg::Paper, 4, 1001, A::EaAll, 0x40a93ec91dc20ba2, 70, 26),
    (Cfg::Paper, 4, 1001, A::EaPrune, 0x40a93ec91dc20ba2, 52, 12),
    (Cfg::Paper, 4, 1002, A::DPhyp, 0x40d086e28b23981a, 20, 9),
    (Cfg::Paper, 4, 1002, A::H1, 0x40d086e28b23981a, 120, 9),
    (Cfg::Paper, 4, 1002, A::H2(1.03), 0x40d086e28b23981a, 120, 9),
    (Cfg::Paper, 4, 1002, A::EaAll, 0x40c2b43d3efb3237, 3873, 276),
    (Cfg::Paper, 4, 1002, A::EaPrune, 0x40c2b43d3efb3237, 280, 20),
    (Cfg::Paper, 5, 1000, A::DPhyp, 0x4084539a4ebdb686, 22, 11),
    (Cfg::Paper, 5, 1000, A::H1, 0x407ef01ca1f90506, 132, 11),
    (Cfg::Paper, 5, 1000, A::H2(1.03), 0x407ef01ca1f90506, 132, 11),
    (Cfg::Paper, 5, 1000, A::EaAll, 0x407ef01ca1f90506, 32560, 2781),
    (Cfg::Paper, 5, 1000, A::EaPrune, 0x407ef01ca1f90506, 210, 13),
    (Cfg::Paper, 5, 1001, A::DPhyp, 0x40616e38fe72b8a0, 50, 16),
    (Cfg::Paper, 5, 1001, A::H1, 0x40616e38fe72b8a0, 194, 16),
    (Cfg::Paper, 5, 1001, A::H2(1.03), 0x4061af94741ea668, 194, 16),
    (Cfg::Paper, 5, 1001, A::EaAll, 0x40616e38fe72b8a0, 13562, 1651),
    (Cfg::Paper, 5, 1001, A::EaPrune, 0x40616e38fe72b8a0, 140, 14),
    (Cfg::Paper, 5, 1002, A::DPhyp, 0x40bb6eb9a5bffb60, 19, 11),
    (Cfg::Paper, 5, 1002, A::H1, 0x40bb6eb9a5bffb60, 99, 11),
    (Cfg::Paper, 5, 1002, A::H2(1.03), 0x40bb6eb9a5bffb60, 99, 11),
    (Cfg::Paper, 5, 1002, A::EaAll, 0x40bb6eb9a5bffb60, 6207, 555),
    (Cfg::Paper, 5, 1002, A::EaPrune, 0x40bb6eb9a5bffb60, 161, 15),
    (Cfg::Paper, 6, 1000, A::DPhyp, 0x40eb25e8b9015b6c, 15, 12),
    (Cfg::Paper, 6, 1000, A::H1, 0x40eb1468af295929, 81, 12),
    (Cfg::Paper, 6, 1000, A::H2(1.03), 0x40eb1468af295929, 81, 12),
    (Cfg::Paper, 6, 1000, A::EaAll, 0x40eb1468af295929, 10373, 822),
    (Cfg::Paper, 6, 1000, A::EaPrune, 0x40eb1468af295929, 138, 14),
    (Cfg::Paper, 6, 1001, A::DPhyp, 0x41328e938db5f005, 13, 11),
    (Cfg::Paper, 6, 1001, A::H1, 0x40de8ceb53b8a0cc, 69, 11),
    (Cfg::Paper, 6, 1001, A::H2(1.03), 0x40decd9756d1ac00, 69, 11),
    (Cfg::Paper, 6, 1001, A::EaAll, 0x40de4f96b97657ce, 20542, 1086),
    (Cfg::Paper, 6, 1001, A::EaPrune, 0x40de4f96b97657ce, 217, 18),
    (Cfg::Paper, 6, 1002, A::DPhyp, 0x40b90206175c99ec, 24, 14),
    (Cfg::Paper, 6, 1002, A::H1, 0x40a4c5b3c08ee228, 138, 14),
    (Cfg::Paper, 6, 1002, A::H2(1.03), 0x40a4c5b3c08ee228, 138, 14),
    (Cfg::Paper, 6, 1002, A::EaAll, 0x40a4c5b3c08ee228, 61368, 7778),
    (Cfg::Paper, 6, 1002, A::EaPrune, 0x40a4c5b3c08ee228, 124, 12),
    (Cfg::Paper, 8, 4, A::EaPrune, 0x4044afd6bec18b39, 1746, 95),
    (Cfg::Paper, 9, 17, A::EaPrune, 0x4049b58c3f9be867, 2745, 206),
    (Cfg::Paper, 10, 20, A::EaPrune, 0x403535a7dbd97131, 378, 24),
    (Cfg::Paper, 11, 4, A::EaPrune, 0x406dabdb0d131cba, 6848, 364),
    (Cfg::Paper, 11, 5, A::EaPrune, 0x404d0a6805da23e3, 1198, 88),
];

/// Every row runs in one caller-held memo, which must come back from each
/// run structurally sound ([`Memo::check_invariants`] — a real check in
/// release builds too, where the `slow-oracle` job runs this).
#[test]
fn engine_matches_seed_goldens_bit_for_bit() {
    let mut memo = Memo::new();
    for &(cfg, n, seed, algo, cost_bits, plans_built, retained) in GOLDEN {
        let query = generate_query(&cfg.config(n), seed);
        let r = optimize_into(&query, algo, &OptimizeOptions::default(), &mut memo);
        memo.check_invariants()
            .unwrap_or_else(|e| panic!("n={n}, seed={seed}, {}: {e}", algo.name()));
        assert_eq!(
            cost_bits,
            r.plan.cost.to_bits(),
            "cost diverges from seed behavior (n={n}, seed={seed}, {}): {} vs {}",
            algo.name(),
            f64::from_bits(cost_bits),
            r.plan.cost
        );
        assert_eq!(
            plans_built,
            r.plans_built,
            "plans_built diverges (n={n}, seed={seed}, {})",
            algo.name()
        );
        assert_eq!(
            retained,
            r.retained_plans,
            "retained_plans diverges (n={n}, seed={seed}, {})",
            algo.name()
        );
    }
}

/// The books of the fold on every EA-Prune cell: the scans are seeded,
/// every other retained plan was an accepted dominance fold that was not
/// evicted since, nor dropped by the greedy seed when it shrank a class
/// to its representatives — `retained − scans + dropped = attempts −
/// rejected − evicted`. This is what keeps `prune_hit_rate` at most 1, and
/// what an arena rollback of rejected candidates has to preserve.
///
/// The shrink is not a dominance test, so no prune counter sees it:
/// `dropped` is read off the greedy pass alone, which is what a ladder
/// whose deadline has already passed ships — the same pass over the same
/// fresh memo, with the walk after it left out.
#[test]
fn ea_prune_fold_counters_balance_against_retained_plans() {
    let greedy_only = OptimizeOptions {
        deadline: Some(Duration::ZERO),
        ..OptimizeOptions::default()
    };
    for &(cfg, n, seed, algo, ..) in GOLDEN {
        if algo != A::EaPrune {
            continue;
        }
        let query = generate_query(&cfg.config(n), seed);
        let kept = |m: MemoStats| m.prune_attempts - m.prune_rejected - m.prune_evicted;
        // Two relations are not seeded: the stream is the greedy's merge.
        let dropped = if n >= 3 {
            let g = optimize_with(&query, A::Adaptive, &greedy_only);
            assert_eq!(g.memo.adaptive_mode, AdaptiveMode::Greedy);
            kept(g.memo) - (g.retained_plans - n as u64)
        } else {
            0
        };
        let r = optimize(&query, algo);
        let m = r.memo;
        assert_eq!(
            r.retained_plans - n as u64 + dropped,
            kept(m),
            "n={n}, seed={seed}: {m:?}"
        );
        assert!(m.prune_hit_rate() <= 1.0, "n={n}, seed={seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// §4.6 under the memo representation: dominance pruning never loses
    /// the optimal plan on random 2–6 table queries.
    #[test]
    fn ea_prune_cost_equals_ea_all(n in 2usize..=6, seed in 0u64..1_000_000) {
        let query = generate_query(&GenConfig::oracle(n), seed);
        let all = optimize(&query, A::EaAll);
        let pruned = optimize(&query, A::EaPrune);
        prop_assert!(
            (all.plan.cost - pruned.plan.cost).abs() <= 1e-9 * all.plan.cost.max(1.0),
            "EA-Prune lost optimality (n={}, seed={}): {} vs {}",
            n, seed, all.plan.cost, pruned.plan.cost
        );
        prop_assert!(pruned.retained_plans <= all.retained_plans);
        // EA-Prune's count includes its greedy seed's plans.
        prop_assert!(pruned.plans_built <= all.plans_built + budget_floor(n));
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant of the split (hot/cold) arena layout: the flag bits and
    /// the key signature the dominance fast path reads from the 40-byte
    /// hot row must be a faithful mirror of the cold row they were derived
    /// with, for every plan the engine builds — a stale or miscopied one
    /// would silently change pruning outcomes without failing any cost
    /// golden — and every cold row's spans must resolve inside the memo's
    /// lanes.
    #[test]
    fn hot_rows_mirror_cold_payload(n in 2usize..=6, seed in 0u64..1_000_000) {
        let query = generate_query(&GenConfig::oracle(n), seed);
        let (_ctx, memo, plans) = all_subplans(&query);
        prop_assert_eq!(Ok(()), memo.check_invariants());
        for &id in &plans {
            let plan = memo.plan(id);
            let (is_group, grouped_below) = match plan.cold.node {
                PlanNode::Scan { .. } => (false, false),
                PlanNode::Apply { left, right, .. } => {
                    (false, memo[left].has_grouping() || memo[right].has_grouping())
                }
                PlanNode::Group { .. } => (true, true),
            };
            prop_assert_eq!(
                (plan.hot.is_group(), plan.hot.has_grouping()), (is_group, grouped_below),
                "grouping flags diverge from the plan tree (n={}, seed={})",
                n, seed
            );
            // Only a grouping below can leave count columns or partials.
            prop_assert!(
                grouped_below || !plan.agg().is_grouped(),
                "count columns without a grouping (n={}, seed={})",
                n, seed
            );
            // A key claim is only ever used together with the dup-free
            // flag; a grouping's output has both.
            prop_assert!(!is_group || (plan.hot.duplicate_free() && plan.keys().len() == 1));
            // Dominance reads the key sets only where the signatures allow
            // an implication: a signature copied from the wrong input would
            // refuse evictions the key sets grant.
            prop_assert_eq!(
                plan.keys().signature(), plan.hot.key_sig(),
                "key signature diverges from the key set (n={}, seed={})",
                n, seed
            );
        }
    }
}

/// Pooled-memo regression: `optimize_into` on a recycled memo must
/// report exactly the same result and statistics as a fresh run — in
/// particular the rollback high-water mark (`arena_peak`) and the prune
/// counters, which a missed [`Memo::reset`] would leak from the
/// previous query.
#[test]
fn pooled_memo_reuse_matches_fresh_stats() {
    let opts = OptimizeOptions::default();
    let queries: Vec<Query> = (0..6)
        .map(|seed| generate_query(&GenConfig::paper(3 + (seed as usize % 3)), seed))
        .collect();
    for algo in [A::DPhyp, A::H1, A::EaAll, A::EaPrune] {
        let mut memo = Memo::new();
        // First pass dirties the memo with each query in turn; second
        // pass re-optimizes after the memo served a *different* query.
        for pass in 0..2 {
            for (i, query) in queries.iter().enumerate() {
                let fresh = optimize_with(query, algo, &opts);
                let pooled = optimize_into(query, algo, &opts, &mut memo);
                let what = format!("{} query {i} pass {pass}", algo.name());
                assert_eq!(
                    fresh.plan.cost.to_bits(),
                    pooled.plan.cost.to_bits(),
                    "{what}: cost"
                );
                assert_eq!(fresh.plans_built, pooled.plans_built, "{what}: plans_built");
                assert_eq!(
                    fresh.retained_plans, pooled.retained_plans,
                    "{what}: retained"
                );
                assert_eq!(
                    fresh.memo.arena_plans, pooled.memo.arena_plans,
                    "{what}: arena_plans"
                );
                assert_eq!(
                    fresh.memo.arena_peak, pooled.memo.arena_peak,
                    "{what}: arena_peak"
                );
                assert_eq!(
                    fresh.memo.peak_class_width, pooled.memo.peak_class_width,
                    "{what}: peak_class_width"
                );
                assert_eq!(
                    (
                        fresh.memo.prune_attempts,
                        fresh.memo.prune_rejected,
                        fresh.memo.prune_evicted
                    ),
                    (
                        pooled.memo.prune_attempts,
                        pooled.memo.prune_rejected,
                        pooled.memo.prune_evicted
                    ),
                    "{what}: prune counters"
                );
                assert_eq!(fresh.plan.root, pooled.plan.root, "{what}: plan");
            }
        }
        // The arena allocation really was recycled, not reallocated per
        // run: capacity stays at the high-water mark of the query set.
        assert!(memo.arena_capacity() > 0);
    }
}

/// A reused memo keeps what it grew: an outlier's arena capacity is
/// still there after a stream of small queries, and a rerun of the
/// outlier reports a fresh run's results and statistics and grows
/// nothing.
#[test]
fn a_reused_memo_keeps_its_capacity_through_small_runs() {
    let opts = OptimizeOptions::default();
    let big = generate_query(&GenConfig::paper(6), 42);
    let small = generate_query(&GenConfig::paper(3), 42);
    let mut memo = Memo::new();
    optimize_into(&big, A::EaAll, &opts, &mut memo);
    let (capacity, footprint) = (memo.arena_capacity(), memo.footprint_bytes());
    for _ in 0..12 {
        optimize_into(&small, A::EaAll, &opts, &mut memo);
    }
    assert_eq!(capacity, memo.arena_capacity());
    // (A small run may grow a class list the big one left short.)
    let settled = memo.footprint_bytes();
    assert!(settled >= footprint);

    let fresh = optimize_with(&big, A::EaAll, &opts);
    let again = optimize_into(&big, A::EaAll, &opts, &mut memo);
    assert_eq!(fresh.plan.cost.to_bits(), again.plan.cost.to_bits());
    assert_eq!(fresh.plans_built, again.plans_built);
    assert_eq!(fresh.memo.arena_peak, again.memo.arena_peak);
    assert_eq!(fresh.memo.live_bytes_peak, again.memo.live_bytes_peak);
    assert_eq!(settled, memo.footprint_bytes(), "the rerun grew nothing");
    memo.check_invariants()
        .expect("a reused memo stays consistent");
}
