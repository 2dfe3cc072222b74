//! Micro-benchmarks of the memo's data layout, one group per inner loop
//! of the enumeration.
//!
//! `memo_layout_fold`: the dominance fold (`PruneDominatedPlans`,
//! Fig. 13) — every candidate plan is compared against every resident of
//! its class, reading only `set`/`card`/`cost`/flags. The SoA layout packs
//! exactly those fields into a 40-byte `PlanHot` row, so a fold scan
//! touches only the hot rows (and, for `Full` dominance, the key spans in
//! the lanes); the AoS reference below folds over [`FatPlan`] structs with
//! owned `KeyInfo`, `AggState` and visible-attribute vectors, the layout
//! the memo had before the split.
//!
//! `memo_layout_construct`: plan construction — `apply_staged` over a
//! fixed 64×64 class pair, i.e. exactly the per-pair work of
//! `process_pair` between staging a cut and folding its plans.
//!
//! Run with `cargo bench --bench memo_layout`; CI compiles it on every
//! PR (`cargo bench --no-run`) and archives the binary so the perf
//! surface cannot silently rot.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpnext_algebra::schema::AttrId;
use dpnext_algebra::{AggCall, AggKind, AttrGen, Expr, JoinPred};
use dpnext_core::aggstate::AggState;
use dpnext_core::memo::{
    prune_insert_ids, DominanceKind, Memo, MemoStats, PlanHot, PlanId, PlanNode,
};
use dpnext_core::{apply_staged, make_scan, stage_apply, OptContext, Scratch, StagedApply};
use dpnext_hypergraph::NodeSet;
use dpnext_keys::{KeyInfo, KeySet};
use dpnext_query::{GroupSpec, OpKind, OpTree, Query, QueryTable};

/// The array-of-structs reference: one plan with every payload owned
/// inline, as the memo stored plans before the hot/cold split.
#[derive(Clone)]
struct FatPlan {
    set: NodeSet,
    card: f64,
    cost: f64,
    keyinfo: KeyInfo,
    agg: AggState,
    visible: Vec<AttrId>,
    has_grouping: bool,
    applied: u64,
}

impl FatPlan {
    /// The same plan as rows + lane payload of `memo`.
    fn push_into(&self, memo: &mut Memo) -> PlanId {
        let hot = PlanHot::new(
            self.set,
            self.card,
            self.cost,
            self.applied,
            self.has_grouping,
            self.keyinfo.duplicate_free,
            false,
        );
        memo.push_plan(
            hot,
            PlanNode::Scan { table: 0 },
            self.keyinfo.keys.as_ref(),
            self.agg.as_ref(),
            &self.visible,
        )
    }
}

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

/// In a real enumeration one class's plans are interleaved with every
/// other class's in the shared arena — consecutive members of a class
/// sit at irregular offsets (whatever the enumeration happened to build
/// between them), not adjacent and not on a fixed stride the hardware
/// prefetcher could lock onto. The AoS fold pays that scatter on every
/// resident re-scan; the SoA fold reads 40-byte hot rows.
///
/// Cost and cardinality are LCG-varied so dominance is decided late
/// (exercising the scan); ~25% of plans are duplicate-free with small
/// key sets so the Full-dominance cold path fires realistically.
fn arena(n: usize, seed: u64) -> (Vec<FatPlan>, Vec<usize>) {
    let mut rng = Lcg(seed);
    let mut plans = Vec::new();
    let mut candidates = Vec::with_capacity(n);
    for _ in 0..n {
        // Irregular gap of 1..=15 other-class plans before each member.
        let gap = (rng.next() % 15) as usize + 1;
        for _ in 0..gap {
            plans.push(filler_plan(&mut rng));
        }
        candidates.push(plans.len());
        plans.push(filler_plan(&mut rng));
    }
    (plans, candidates)
}

fn filler_plan(rng: &mut Lcg) -> FatPlan {
    let r = rng.next();
    let keyinfo = if r.is_multiple_of(4) {
        KeyInfo::base(KeySet::from_keys([vec![AttrId((r % 7) as u32)]]))
    } else {
        KeyInfo::unknown()
    };
    FatPlan {
        set: NodeSet(1 + (r % 15)),
        card: (r % 10_000) as f64 + 1.0,
        cost: ((r >> 16) % 100_000) as f64 + 1.0,
        keyinfo,
        agg: AggState::fresh(0),
        visible: (0..8).map(AttrId).collect(),
        has_grouping: r.is_multiple_of(8),
        applied: 0b11,
    }
}

/// Like [`arena`], but the class's candidates sit on an anti-correlated
/// cost/cardinality frontier — no plan dominates any other, so the class
/// grows to full width and every candidate scans every resident. This is
/// the wide-Pareto-class regime EA-All's `MultiBest` policy produces.
fn frontier_arena(n: usize, seed: u64) -> (Vec<FatPlan>, Vec<usize>) {
    let (mut plans, candidates) = arena(n, seed);
    for (rank, &i) in candidates.iter().enumerate() {
        plans[i].cost = rank as f64 + 1.0;
        plans[i].card = (n - rank) as f64;
        plans[i].keyinfo = KeyInfo::unknown();
        plans[i].has_grouping = false;
    }
    (plans, candidates)
}

/// AoS reference dominance: identical predicate to the split test, but
/// reading every field through one fat struct.
fn dominates_fat(a: &FatPlan, b: &FatPlan, kind: DominanceKind) -> bool {
    if a.has_grouping && !b.has_grouping {
        return false;
    }
    if !(a.cost <= b.cost && a.card <= b.card) {
        return false;
    }
    match kind {
        DominanceKind::Full => {
            (a.keyinfo.duplicate_free || !b.keyinfo.duplicate_free)
                && a.keyinfo.keys.implies(&b.keyinfo.keys)
        }
        _ => true,
    }
}

/// AoS reference fold: same reject/evict/append order as
/// `prune_insert_ids`, over fat structs addressed by arena index.
fn fold_fat(plans: &[FatPlan], candidates: &[usize], kind: DominanceKind) -> usize {
    let mut class: Vec<usize> = Vec::new();
    'next: for &id in candidates {
        let new = &plans[id];
        for &old in &class {
            if dominates_fat(&plans[old], new, kind) {
                continue 'next;
            }
        }
        class.retain(|&old| !dominates_fat(new, &plans[old], kind));
        class.push(id);
    }
    class.len()
}

/// SoA fold: the memo's own `prune_insert_ids`, one candidate at a time
/// into the caller's (cleared) class vector.
fn fold_soa(memo: &Memo, class: &mut Vec<PlanId>, candidates: &[PlanId], kind: DominanceKind) {
    class.clear();
    let mut stats = MemoStats::default();
    for &id in candidates {
        prune_insert_ids(
            memo.hot_plans(),
            memo.cold_plans(),
            memo.lanes(),
            class,
            id,
            kind,
            true,
            &mut stats,
        );
    }
}

fn bench_dominance_fold(c: &mut Criterion) {
    let mut group = c.benchmark_group("memo_layout_fold");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    for (label, n, wide) in [
        ("mixed512", 512usize, false),
        ("mixed4096", 4096usize, false),
        ("frontier256", 256usize, true),
        ("frontier1024", 1024usize, true),
    ] {
        let (plans, aos_ids) = if wide {
            frontier_arena(n, 42)
        } else {
            arena(n, 42)
        };

        // SoA side: the same arena pushed through the split memo; the
        // class's candidate ids stride through it identically.
        let mut memo = Memo::new();
        let all_ids: Vec<PlanId> = plans.iter().map(|p| p.push_into(&mut memo)).collect();
        let ids: Vec<PlanId> = aos_ids.iter().map(|&i| all_ids[i]).collect();

        for (kname, kind) in [
            ("costcard", DominanceKind::CostCard),
            ("full", DominanceKind::Full),
        ] {
            // Sanity: both folds retain the same number of plans, so the
            // comparison below does identical dominance work.
            {
                let mut class = Vec::new();
                fold_soa(&memo, &mut class, &ids, kind);
                assert_eq!(class.len(), fold_fat(&plans, &aos_ids, kind));
            }

            group.bench_function(format!("aos_fat_struct_{kname}_{label}"), |b| {
                b.iter(|| black_box(fold_fat(black_box(&plans), &aos_ids, kind)))
            });

            group.bench_function(format!("soa_hot_rows_{kname}_{label}"), |b| {
                let mut class = Vec::new();
                b.iter(|| {
                    fold_soa(&memo, &mut class, black_box(&ids), kind);
                    black_box(class.len())
                })
            });
        }
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

/// Plan construction as `process_pair` runs it: the cut staged once, then
/// `apply_staged` across a 64×64 grid of scans (4,096 joins per
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
