//! Micro-benchmarks of the memo's two inner loops of the enumeration.
//!
//! `memo_layout_fold`: the thinning step [`Memo::fold`] under dominance
//! (`PruneDominatedPlans`, Fig. 13) — every candidate plan is compared
//! against every resident of its class, reading only the 40-byte `PlanHot`
//! rows (and, once those hold, the key spans in the lanes). The `keyed`
//! class measures that key-set tail alone: cost and cardinality dominance
//! hold for every pair, the keys never imply, and the rows' key signatures
//! settle most pairs without reading the lanes.
//!
//! `memo_layout_construct`: plan construction — `apply_staged` over a
//! fixed 64×64 class pair, i.e. exactly the per-pair work of
//! the search's unit loop between staging a cut and folding its plans.
//!
//! Run with `cargo bench --bench memo_layout`; CI compiles it on every
//! PR (`cargo bench --no-run`) and smoke-runs it once, so the perf surface
//! cannot silently rot.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpnext_algebra::schema::AttrId;
use dpnext_algebra::{AggCall, AggKind, AttrGen, Expr, JoinPred};
use dpnext_core::aggstate::AggState;
use dpnext_core::memo::{Memo, PlanHot, PlanId, PlanNode, ThinBy};
use dpnext_core::{apply_staged, make_scan, stage_apply, OptContext, Scratch, StagedApply};
use dpnext_hypergraph::NodeSet;
use dpnext_keys::{KeyInfo, KeySet};
use dpnext_query::{GroupSpec, OpKind, OpTree, Query, QueryTable};

/// Deterministic multiplicative LCG (no external RNG in benches).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Push one made-up plan. Cost and cardinality are LCG-varied so dominance
/// is decided late (exercising the scan), and ~25% of the plans are
/// duplicate-free with small key sets so the dominance test's key-set
/// path fires realistically — unless `at` pins the plan to a `(cost, card)`
/// point, without grouping and keyed by `key` alone.
fn push_plan(
    memo: &mut Memo,
    rng: &mut Lcg,
    at: Option<(f64, f64)>,
    key: Option<AttrId>,
) -> PlanId {
    let r = rng.next();
    let keyinfo = match key {
        Some(a) => KeyInfo::base(KeySet::from_keys([vec![a]])),
        None if at.is_none() && r.is_multiple_of(4) => {
            KeyInfo::base(KeySet::from_keys([vec![AttrId((r % 7) as u32)]]))
        }
        None => KeyInfo::unknown(),
    };
    let (cost, card) = at.unwrap_or((
        ((r >> 16) % 100_000) as f64 + 1.0,
        (r % 10_000) as f64 + 1.0,
    ));
    let hot = PlanHot::new(
        NodeSet(1 + (r % 15)),
        card,
        cost,
        0b11,
        at.is_none() && r.is_multiple_of(8),
        keyinfo.duplicate_free,
        false,
    );
    let visible: Vec<AttrId> = (0..8).map(AttrId).collect();
    memo.push_plan(
        hot,
        PlanNode::Scan { table: 0 },
        keyinfo.keys.as_ref(),
        AggState::fresh(0).as_ref(),
        &visible,
    )
}

/// The `n` candidates of one class, in arrival order. In a real
/// enumeration one class's plans are interleaved with every other class's
/// in the shared arena — consecutive members sit at irregular offsets
/// (whatever the enumeration happened to build between them), not adjacent
/// and not on a fixed stride the hardware prefetcher could lock onto — so
/// each candidate follows a gap of 1..=15 other plans.
///
/// The `shape` decides what the candidates compare as. The two full-width
/// shapes make every candidate scan every resident:
/// - `Frontier` puts them on an anti-correlated cost/cardinality frontier
///   without keys, so no plan dominates any other on the row alone — the
///   wide-Pareto-class regime of the largest EA-Prune classes.
/// - `Keyed` makes each candidate costlier and larger than every earlier
///   one but keys it by an attribute of its own (`rank`, so the bits
///   `rank mod 32` collide), so each earlier resident dominates it on the
///   row and fails only on the keys — the regime of most key-set tests a
///   real enumeration runs.
///
/// `Mixed` is random: most candidates are rejected or evict someone.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    Mixed,
    Frontier,
    Keyed,
}

fn class_candidates(memo: &mut Memo, n: usize, seed: u64, shape: Shape) -> Vec<PlanId> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|rank| {
            for _ in 0..rng.next() % 15 + 1 {
                push_plan(memo, &mut rng, None, None);
            }
            let r = rank as f64 + 1.0;
            match shape {
                Shape::Mixed => push_plan(memo, &mut rng, None, None),
                Shape::Frontier => push_plan(memo, &mut rng, Some((r, (n - rank) as f64)), None),
                Shape::Keyed => push_plan(memo, &mut rng, Some((r, r)), Some(AttrId(rank as u32))),
            }
        })
        .collect()
}

fn bench_dominance_fold(c: &mut Criterion) {
    let mut group = c.benchmark_group("memo_layout_fold");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    for (label, n, shape) in [
        ("mixed512", 512usize, Shape::Mixed),
        ("mixed4096", 4096usize, Shape::Mixed),
        ("frontier256", 256usize, Shape::Frontier),
        ("frontier1024", 1024usize, Shape::Frontier),
        ("keyed1024", 1024usize, Shape::Keyed),
    ] {
        let by = ThinBy::Dominance {
            guard_groupjoin: true,
        };
        let mut memo = Memo::new();
        let ids = class_candidates(&mut memo, n, 42, shape);
        // Every pass folds the candidates into a class of its own, as the
        // enumeration meets every class: empty. Returns its width.
        let mut classes = 0u64;
        let mut fold_class = move || {
            classes += 1;
            let class = NodeSet(classes);
            for &id in black_box(&ids) {
                memo.fold(class, id, by);
            }
            memo.class(class).len()
        };
        // Sanity: nothing on a frontier, and no keyed plan, precedes
        // another.
        let width = fold_class();
        assert!(
            width > 0 && (shape == Shape::Mixed || width == n),
            "{label}: {width}"
        );

        group.bench_function(format!("fold_full_{label}"), |b| {
            b.iter(|| black_box(fold_class()))
        });
    }
    group.finish();
}

/// `r0(a0 key, a1, a2) ⋈_{a1 = a3} r1(a3, a4, a5 key)`, grouped by `a2`
/// with `count(*), sum(a4)` — a two-table query whose one cut the
/// construct group applies over and over.
fn construct_ctx() -> OptContext {
    let a = AttrId;
    let t0 = QueryTable::new("r0", vec![a(0), a(1), a(2)], 10_000.0)
        .with_distinct(vec![10_000.0, 100.0, 10.0])
        .with_key(vec![a(0)]);
    let t1 = QueryTable::new("r1", vec![a(3), a(4), a(5)], 5_000.0)
        .with_distinct(vec![100.0, 50.0, 5_000.0])
        .with_key(vec![a(5)]);
    let tree = OpTree::binary_sel(
        OpKind::Join,
        JoinPred::eq(a(1), a(3)),
        0.01,
        OpTree::rel(0),
        OpTree::rel(1),
    );
    let mut gen = AttrGen::new(100);
    let spec = GroupSpec::new(
        vec![a(2)],
        vec![
            AggCall::count_star(a(50)),
            AggCall::new(a(51), AggKind::Sum, Expr::attr(a(4))),
        ],
        &mut gen,
    );
    OptContext::new(Query::new(vec![t0, t1], tree, Some(spec)))
}

/// Plan construction as the search's unit loop runs it: the cut staged
/// once, then `apply_staged` across a 64×64 grid of scans (4,096 joins per
/// iteration), rolled back to the mark afterwards so every iteration
/// writes the same lane region — the steady state of a warmed-up memo.
fn bench_construct(c: &mut Criterion) {
    let mut group = c.benchmark_group("memo_layout_construct");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    let ctx = construct_ctx();
    let mut memo = Memo::new();
    let mut scratch = Scratch::new(&ctx);
    let class = |memo: &mut Memo, table| -> Vec<PlanId> {
        (0..64).map(|_| make_scan(&ctx, memo, table)).collect()
    };
    let (lefts, rights) = (class(&mut memo, 0), class(&mut memo, 1));
    let mut staged = StagedApply::default();
    stage_apply(&ctx, &mut memo, &mut staged, 0, &[], NodeSet::single(0));
    let mark = memo.mark();

    group.bench_function("apply_staged_64x64", |b| {
        b.iter(|| {
            let mut last = None;
            for &l in &lefts {
                for &r in &rights {
                    last = apply_staged(&ctx, &mut scratch, &mut memo, &staged, l, r);
                }
            }
            let built = memo.arena_len();
            memo.truncate(mark);
            black_box((last, built))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dominance_fold, bench_construct);
criterion_main!(benches);
