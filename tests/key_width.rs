//! Key width: a key is a bit mask over the query's key attributes `U`
//! (its tables' declared key attributes and its `G⁺` candidates), `W =
//! max(1, ⌈|U| / 64⌉)` words wide, chosen per query. These tests record
//! how wide the keys of the repository's query families get, pin the
//! outcome of the widest family (`W = 3`) as it was before keys became
//! masks, and hold a memo reused across widths to what fresh memos give.

use dpnext::core::{explain, optimize_prepared, OptContext, OptimizeOptions};
use dpnext::query::Query;
use dpnext::workload::{ex_query, generate_query, q10, q3, q5, GenConfig, Topology};
use dpnext::{Algorithm, Memo, MemoStats};

/// The statements of the benchmark's SQL corpus, bound on the TPC-H
/// catalog.
fn sql_corpus() -> Vec<Query> {
    let text = include_str!("../perfbench/workloads/serve_sql_hot.sql");
    let code: Vec<&str> = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("--"))
        .collect();
    let catalog = dpnext::catalog::tpch_catalog();
    code.join("\n")
        .split(';')
        .filter(|s| !s.trim().is_empty())
        .map(|s| dpnext::sql::plan(s, &catalog).unwrap().query)
        .collect()
}

/// The largest `|U|` over `queries`, and how many of them need `W` = 1, 2
/// and 3 words.
fn widest(queries: impl IntoIterator<Item = Query>) -> (usize, [usize; 3]) {
    let mut out = (0, [0; 3]);
    for q in queries {
        let ctx = OptContext::new(q);
        out.0 = out.0.max(ctx.key_attrs.len());
        out.1[ctx.key_width() - 1] += 1;
    }
    out
}

const KINDS: [Topology; 4] = [
    Topology::Chain,
    Topology::Star,
    Topology::Clique,
    Topology::Mixed,
];

/// The paper's generator at `n`, seeds `0..seeds`.
fn paper(n: usize, seeds: u64) -> impl Iterator<Item = Query> {
    (0..seeds).map(move |s| generate_query(&GenConfig::paper(n), s))
}

/// `topology(n, kind)` for every kind, seeds `0..seeds`.
fn topology(n: usize, seeds: u64) -> impl Iterator<Item = Query> {
    KINDS
        .into_iter()
        .flat_map(move |t| (0..seeds).map(move |s| generate_query(&GenConfig::topology(n, t), s)))
}

/// The largest `|U|` and the count of queries per width, per family: the
/// four TPC-H queries, the SQL corpus, `paper(3..=13)` × 24 seeds and
/// `topology(20..=64)` × every kind × 4 seeds. Only the large topologies
/// need more than one word.
#[test]
fn key_width_of_every_query_family() {
    let tpch = widest([ex_query(), q3(), q5(), q10()].map(|q| q.bound.query));
    assert_eq!((12, [4, 0, 0]), tpch);
    assert_eq!((16, [16, 0, 0]), widest(sql_corpus()));
    assert_eq!(
        (28, [264, 0, 0]),
        widest((3..=13).flat_map(|n| paper(n, 24)))
    );
    let large = widest((20..=64).flat_map(|n| topology(n, 4)));
    assert_eq!((165, [235, 431, 54]), large);
}

/// A budgeted ladder request, as every outcome column the search decides.
fn ladder(query: &Query, plan_budget: u64, memo: &mut Memo) -> (u64, u64, MemoStats, String) {
    let ctx = OptContext::new(query);
    let opts = OptimizeOptions {
        plan_budget,
        ..OptimizeOptions::default()
    };
    let (o, winner) = optimize_prepared(&ctx, Algorithm::Adaptive, &opts, memo);
    memo.check_invariants().unwrap();
    let text = format!("{}{}", explain(&ctx, memo, winner), o.plan.root);
    (o.plan.cost.to_bits(), o.plans_built, o.memo, text)
}

/// `topology(64, Clique)` seeds 0 and 1 need three words per key. Under a
/// plan budget of 2,000 each run decides what it decided when keys were
/// sorted attribute runs: `(cost bits, plans_built, prune_attempts,
/// prune_rejected, prune_evicted, peak_class_width, rung)`, recorded at
/// the commit before the change.
#[test]
fn three_word_keys_decide_as_sorted_runs_did() {
    let recorded = [
        (0x403addb926ea557a, 452, 150, 36, 15, 3, "exact"),
        (0x40af07fb6c41c49b, 486, 155, 43, 13, 3, "exact"),
    ];
    for (seed, want) in (0..).zip(recorded) {
        let query = generate_query(&GenConfig::topology(64, Topology::Clique), seed);
        assert_eq!(3, OptContext::new(&query).key_width(), "seed {seed}");
        let (cost, built, m, _) = ladder(&query, 2_000, &mut Memo::new());
        let got = (
            cost,
            built,
            m.prune_attempts,
            m.prune_rejected,
            m.prune_evicted,
            m.peak_class_width,
            m.adaptive_mode.to_string(),
        );
        let want = (
            want.0,
            want.1,
            want.2,
            want.3,
            want.4,
            want.5,
            want.6.to_string(),
        );
        assert_eq!(want, got, "seed {seed}");
        assert!(!m.degradation.any(), "seed {seed}: {}", m.degradation);
    }
}

/// One memo serving one-, three- and one-word queries in turn gives every
/// run what a fresh memo gives it: the memo takes each run's width.
#[test]
fn a_pooled_memo_serves_every_width() {
    let one = generate_query(&GenConfig::paper(9), 3);
    let three = generate_query(&GenConfig::topology(64, Topology::Clique), 1);
    let two = generate_query(&GenConfig::topology(40, Topology::Mixed), 0);
    let mut pooled = Memo::new();
    for (query, width) in [(&one, 1), (&three, 3), (&one, 1), (&two, 2), (&three, 3)] {
        assert_eq!(width, OptContext::new(query).key_width());
        for budget in [1, 2_000, 50_000] {
            let fresh = ladder(query, budget, &mut Memo::new());
            assert_eq!(
                fresh,
                ladder(query, budget, &mut pooled),
                "W={width}, budget {budget}"
            );
        }
    }
}
