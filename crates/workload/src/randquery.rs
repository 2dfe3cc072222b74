//! Random query generation following §5: "we first generated random
//! binary trees using the unranking procedure proposed by Liebehenschel.
//! Next, we randomly attached join operators to the internal nodes and
//! relations to the leaves. Then, the attributes for equality join
//! predicates and grouping are randomly selected. Finally, random
//! cardinalities and selectivities are generated."

use crate::unrank::{tree_count, unrank_tree, TreeShape};
use dpnext_algebra::{AggCall, AggKind, AttrGen, AttrId, CmpOp, Expr, JoinPred};
use dpnext_query::{GroupSpec, OpKind, OpTree, Query, QueryTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Relative weights for drawing the operator of an internal node.
#[derive(Debug, Clone, Copy)]
pub struct OpWeights {
    pub join: u32,
    pub left_outer: u32,
    pub full_outer: u32,
    pub semi: u32,
    pub anti: u32,
    pub groupjoin: u32,
}

impl OpWeights {
    /// Inner joins only.
    pub fn inner_only() -> Self {
        OpWeights {
            join: 1,
            left_outer: 0,
            full_outer: 0,
            semi: 0,
            anti: 0,
            groupjoin: 0,
        }
    }

    /// The default mix: mostly inner joins with a sprinkling of the
    /// non-inner operators whose reordering the paper enables.
    pub fn mixed() -> Self {
        OpWeights {
            join: 6,
            left_outer: 2,
            full_outer: 1,
            semi: 1,
            anti: 1,
            groupjoin: 0,
        }
    }

    /// Mix including groupjoins (Eqvs. 39–41).
    pub fn with_groupjoins() -> Self {
        OpWeights {
            join: 5,
            left_outer: 2,
            full_outer: 1,
            semi: 1,
            anti: 1,
            groupjoin: 2,
        }
    }

    fn draw(&self, rng: &mut StdRng) -> OpKind {
        let total =
            self.join + self.left_outer + self.full_outer + self.semi + self.anti + self.groupjoin;
        assert!(total > 0, "all operator weights are zero");
        let mut x = rng.gen_range(0..total);
        for (w, op) in [
            (self.join, OpKind::Join),
            (self.left_outer, OpKind::LeftOuter),
            (self.full_outer, OpKind::FullOuter),
            (self.semi, OpKind::Semi),
            (self.anti, OpKind::Anti),
            (self.groupjoin, OpKind::GroupJoin),
        ] {
            if x < w {
                return op;
            }
            x -= w;
        }
        unreachable!()
    }
}

/// Shape of the generated query graph. [`Topology::Paper`] reproduces the
/// paper's §5 methodology (random binary trees by unranking, predicates
/// between random visible attributes); the explicit topologies build
/// left-deep trees with controlled predicate anchors and scale to the
/// large-`n` regime (up to the engine's 64-relation `NodeSet` cap; the
/// budget ladder's tests and the benchmark's `adaptive-large` workload
/// use n up to 40) where the unranking counts would overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Random binary tree by Liebehenschel unranking (the §5 default).
    #[default]
    Paper,
    /// Path graph `r0 – r1 – … – r(n-1)`: each relation joined to its
    /// predecessor. The benign large-`n` shape (`#ccp` is `O(n³)`).
    Chain,
    /// Star graph with hub `r0`: every other relation joined to the hub.
    /// The expressible worst case for enumeration — `#ccp` is
    /// `(n-1)·2^(n-2)`, hopeless for exact DP from ~20 relations.
    Star,
    /// Every pair of relations carries a join predicate. Extra predicates
    /// are conjoined into the operator where both sides first meet, so the
    /// inner operators become hyperedges `({r0..rk-1}, {rk})`; operators
    /// are forced to inner joins (a conjunct spanning many relations has
    /// no outer-join reading here).
    Clique,
    /// Per-seed random draw: chain, star, or a random-attachment tree
    /// (each relation joined to a uniformly random earlier one).
    Mixed,
}

/// Configuration for the random query generator.
#[derive(Debug, Clone)]
pub struct GenConfig {
    pub n_relations: usize,
    /// Query-graph shape; see [`Topology`].
    pub topology: Topology,
    pub ops: OpWeights,
    /// Cardinalities are drawn log-uniformly from this range.
    pub card_range: (f64, f64),
    /// Attributes per relation (min, max).
    pub attrs_per_rel: (usize, usize),
    /// Number of aggregate functions in the select clause (min, max).
    pub n_aggs: (usize, usize),
    /// Probability that a relation declares its first attribute as key.
    pub key_probability: f64,
    /// Probability that each visible attribute joins the group-by list.
    pub group_attr_probability: f64,
    /// Generate a grouping at all (pure join-ordering queries otherwise).
    pub with_grouping: bool,
    /// Allow `avg` / `distinct` aggregates (they constrain pushability).
    pub exotic_aggs: bool,
}

impl GenConfig {
    /// The paper's evaluation setting for `n` relations.
    pub fn paper(n_relations: usize) -> Self {
        GenConfig {
            n_relations,
            topology: Topology::Paper,
            ops: OpWeights::mixed(),
            card_range: (10.0, 100_000.0),
            attrs_per_rel: (2, 3),
            n_aggs: (1, 3),
            key_probability: 0.5,
            group_attr_probability: 0.25,
            with_grouping: true,
            exotic_aggs: false,
        }
    }

    /// Tiny cardinalities for executor-backed correctness tests.
    pub fn oracle(n_relations: usize) -> Self {
        GenConfig {
            card_range: (2.0, 8.0),
            exotic_aggs: true,
            ..GenConfig::paper(n_relations)
        }
    }

    /// The paper setting with an explicit query-graph [`Topology`] — the
    /// configuration the large-query (adaptive) tests and the benchmark
    /// sweep at n up to 40.
    pub fn topology(n_relations: usize, topology: Topology) -> Self {
        GenConfig {
            topology,
            ..GenConfig::paper(n_relations)
        }
    }
}

/// Generate a random query. Deterministic in `(config, seed)`.
pub fn generate_query(config: &GenConfig, seed: u64) -> Query {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = config.n_relations;
    assert!(n >= 1);

    // 1. (Paper topology) Random tree shape by unranking a uniform rank —
    //    drawn before the tables so existing seeds stay bit-identical.
    let shape = (config.topology == Topology::Paper).then(|| {
        let rank = rng.gen_range(0..tree_count(n));
        unrank_tree(n, rank)
    });

    // 2. Tables with random cardinalities, distinct counts and keys.
    let mut gen = AttrGen::new(0);
    let mut tables = Vec::with_capacity(n);
    for i in 0..n {
        let n_attrs = rng.gen_range(config.attrs_per_rel.0..=config.attrs_per_rel.1);
        let attrs: Vec<AttrId> = (0..n_attrs).map(|_| gen.fresh()).collect();
        let card = log_uniform(&mut rng, config.card_range);
        let distinct: Vec<f64> = (0..n_attrs)
            .map(|k| {
                if k == 0 {
                    card // potential key column
                } else {
                    // At least ~sqrt(card) distinct values: grouping
                    // compresses, but not degenerately (keeps the cost
                    // ratios in the paper's regime).
                    log_uniform(&mut rng, (card.sqrt().max(2.0), card.max(2.0)))
                }
            })
            .collect();
        let mut t = QueryTable::new(format!("r{i}"), attrs.clone(), card).with_distinct(distinct);
        if rng.gen_bool(config.key_probability) {
            t = t.with_key(vec![attrs[0]]);
        }
        tables.push(t);
    }

    // 3. Operators, predicates and selectivities, bottom-up; leaves get
    //    relations in left-to-right order. Explicit topologies build a
    //    left-deep tree with controlled predicate anchors instead.
    let tree = match &shape {
        Some(shape) => {
            let mut next_leaf = 0usize;
            build(
                shape,
                &mut next_leaf,
                &tables,
                &config.ops,
                &mut gen,
                &mut rng,
            )
        }
        None => build_topology(config, &tables, &mut gen, &mut rng),
    };

    // 4. Grouping attributes and aggregates over visible attributes.
    // Groupjoin outputs are *not* used as grouping attributes or aggregate
    // arguments here: the generator keeps the top grouping expressible over
    // base attributes so the canonical plan stays the reference. (The
    // groupjoin outputs still flow to the final projection implicitly.)
    let grouping = config.with_grouping.then(|| {
        let table_attrs = |i: usize| tables[i].attrs.clone();
        let visible: Vec<AttrId> = tree
            .visible_attrs(&table_attrs)
            .into_iter()
            .filter(|a| tables.iter().any(|t| t.has_attr(*a)))
            .collect();
        let mut group_by: Vec<AttrId> = visible
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(config.group_attr_probability))
            .collect();
        if group_by.is_empty() {
            group_by.push(visible[rng.gen_range(0..visible.len())]);
        }
        let n_aggs = rng.gen_range(config.n_aggs.0..=config.n_aggs.1);
        let aggs = (0..n_aggs)
            .map(|_| random_agg(&mut rng, &visible, &mut gen, config.exotic_aggs))
            .collect();
        GroupSpec::new(group_by, aggs, &mut gen)
    });

    Query::new(tables, tree, grouping)
}

fn log_uniform(rng: &mut StdRng, (lo, hi): (f64, f64)) -> f64 {
    if hi <= lo {
        return lo;
    }
    (rng.gen_range(lo.ln()..=hi.ln())).exp().round().max(1.0)
}

fn random_agg(rng: &mut StdRng, visible: &[AttrId], gen: &mut AttrGen, exotic: bool) -> AggCall {
    let out = gen.fresh();
    let kinds: &[AggKind] = if exotic {
        &[
            AggKind::CountStar,
            AggKind::Count,
            AggKind::Sum,
            AggKind::Min,
            AggKind::Max,
            AggKind::Avg,
            AggKind::CountDistinct,
            AggKind::SumDistinct,
        ]
    } else {
        &[
            AggKind::CountStar,
            AggKind::Count,
            AggKind::Sum,
            AggKind::Min,
            AggKind::Max,
        ]
    };
    let kind = kinds[rng.gen_range(0..kinds.len())];
    if kind == AggKind::CountStar {
        AggCall::count_star(out)
    } else {
        let arg = visible[rng.gen_range(0..visible.len())];
        AggCall::new(out, kind, Expr::attr(arg))
    }
}

fn build(
    shape: &TreeShape,
    next_leaf: &mut usize,
    tables: &[QueryTable],
    ops: &OpWeights,
    gen: &mut AttrGen,
    rng: &mut StdRng,
) -> OpTree {
    match shape {
        TreeShape::Leaf => {
            let i = *next_leaf;
            *next_leaf += 1;
            OpTree::rel(i)
        }
        TreeShape::Node(l, r) => {
            let left = build(l, next_leaf, tables, ops, gen, rng);
            let right = build(r, next_leaf, tables, ops, gen, rng);
            let op = ops.draw(rng);
            // Pick equality-join attributes from each side's visible set.
            let table_attrs = |i: usize| tables[i].attrs.clone();
            let lvis = left.visible_attrs(&table_attrs);
            let rvis = right.visible_attrs(&table_attrs);
            let la = lvis[rng.gen_range(0..lvis.len())];
            let ra = rvis[rng.gen_range(0..rvis.len())];
            // Random selectivity anchored at the textbook equi-join
            // estimate 1/max(d_l, d_r), jittered log-uniformly: join sizes
            // stay in a realistic regime while still varying per query.
            let d = distinct_of(tables, la)
                .max(distinct_of(tables, ra))
                .max(1.0);
            let sel = (log_uniform_raw(rng, 0.25, 4.0) / d).min(1.0);
            if op == OpKind::GroupJoin {
                // The groupjoin aggregates right-side attributes; its
                // outputs become visible to the rest of the query.
                let arg = rvis[rng.gen_range(0..rvis.len())];
                let kinds = [
                    AggKind::CountStar,
                    AggKind::Sum,
                    AggKind::Min,
                    AggKind::Count,
                ];
                let kind = kinds[rng.gen_range(0..kinds.len())];
                let out = gen.fresh();
                let call = if kind == AggKind::CountStar {
                    AggCall::count_star(out)
                } else {
                    AggCall::new(out, kind, Expr::attr(arg))
                };
                OpTree::groupjoin(JoinPred::eq(la, ra), vec![call], left, right).with_sel(sel)
            } else {
                OpTree::binary_sel(op, JoinPred::eq(la, ra), sel, left, right)
            }
        }
    }
}

/// How the explicit topologies anchor the predicate of step `k` (the node
/// merging relation `k` into the left-deep spine).
#[derive(Clone, Copy)]
enum Anchor {
    /// To the previous relation `k-1` (chain).
    Prev,
    /// To the hub relation `0` (star).
    Hub,
    /// To a uniformly random earlier relation (random-attachment tree).
    Random,
    /// To every earlier relation (clique: one conjunct term per pair).
    All,
}

/// Left-deep construction for the explicit topologies: step `k` joins the
/// spine over `{r0..r(k-1)}` with `rk`, anchored per [`Topology`]. The
/// operator of each step is drawn from `config.ops` (clique steps force
/// inner joins — a conjunct spanning many relations has no outer-join
/// reading); semi/anti/groupjoin steps hide their right relation's
/// attributes, and later anchors fall back to the nearest still-visible
/// earlier relation.
fn build_topology(
    config: &GenConfig,
    tables: &[QueryTable],
    gen: &mut AttrGen,
    rng: &mut StdRng,
) -> OpTree {
    let n = tables.len();
    if n == 1 {
        return OpTree::rel(0);
    }
    let anchor = match config.topology {
        Topology::Chain => Anchor::Prev,
        Topology::Star => Anchor::Hub,
        Topology::Clique => Anchor::All,
        // One coherent shape per query: resolve the mixture up front.
        Topology::Mixed => [Anchor::Prev, Anchor::Hub, Anchor::Random][rng.gen_range(0..3usize)],
        Topology::Paper => unreachable!("paper shapes go through the unranking path"),
    };
    // Attributes of each relation still visible on the spine (semi, anti
    // and groupjoin steps project their right input away).
    let mut vis: Vec<&[AttrId]> = tables.iter().map(|t| t.attrs.as_slice()).collect();
    let term_sel = |rng: &mut StdRng, la: AttrId, ra: AttrId| {
        let d = distinct_of(tables, la)
            .max(distinct_of(tables, ra))
            .max(1.0);
        (log_uniform_raw(rng, 0.25, 4.0) / d).min(1.0)
    };
    let mut acc = OpTree::rel(0);
    for k in 1..n {
        let rattrs = &tables[k].attrs;
        let ra = rattrs[rng.gen_range(0..rattrs.len())];
        let (op, pred, sel) = if matches!(anchor, Anchor::All) {
            // Clique: one equality term per earlier relation, conjoined
            // into this step's predicate; selectivities multiply.
            let mut pred = JoinPred::default();
            let mut sel = 1.0f64;
            for jvis in vis.iter().take(k) {
                let la = jvis[rng.gen_range(0..jvis.len())];
                let ra = rattrs[rng.gen_range(0..rattrs.len())];
                sel *= term_sel(rng, la, ra);
                pred = pred.and(la, CmpOp::Eq, ra);
            }
            (OpKind::Join, pred, sel)
        } else {
            let j = match anchor {
                Anchor::Prev => k - 1,
                Anchor::Hub => 0,
                Anchor::Random => rng.gen_range(0..k),
                Anchor::All => unreachable!(),
            };
            // Fall back to the nearest earlier relation whose attributes
            // are still visible (r0 always is: it is never a right input).
            let j = if vis[j].is_empty() {
                (0..k).rev().find(|&i| !vis[i].is_empty()).unwrap()
            } else {
                j
            };
            let la = vis[j][rng.gen_range(0..vis[j].len())];
            let sel = term_sel(rng, la, ra);
            (config.ops.draw(rng), JoinPred::eq(la, ra), sel)
        };
        acc = if op == OpKind::GroupJoin {
            let arg = rattrs[rng.gen_range(0..rattrs.len())];
            let kinds = [
                AggKind::CountStar,
                AggKind::Sum,
                AggKind::Min,
                AggKind::Count,
            ];
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let out = gen.fresh();
            let call = if kind == AggKind::CountStar {
                AggCall::count_star(out)
            } else {
                AggCall::new(out, kind, Expr::attr(arg))
            };
            OpTree::groupjoin(pred, vec![call], acc, OpTree::rel(k)).with_sel(sel)
        } else {
            OpTree::binary_sel(op, pred, sel, acc, OpTree::rel(k))
        };
        if matches!(op, OpKind::Semi | OpKind::Anti | OpKind::GroupJoin) {
            vis[k] = &[];
        }
    }
    acc
}

fn log_uniform_raw(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    (rng.gen_range(lo.ln()..=hi.ln())).exp()
}

fn distinct_of(tables: &[QueryTable], attr: AttrId) -> f64 {
    tables
        .iter()
        .find(|t| t.has_attr(attr))
        .map(|t| t.distinct_of(attr))
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::paper(6);
        let q1 = generate_query(&cfg, 42);
        let q2 = generate_query(&cfg, 42);
        assert_eq!(q1.table_count(), q2.table_count());
        assert_eq!(format!("{:?}", q1.tree), format!("{:?}", q2.tree));
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GenConfig::paper(8);
        let q1 = generate_query(&cfg, 1);
        let q2 = generate_query(&cfg, 2);
        assert_ne!(format!("{:?}", q1.tree), format!("{:?}", q2.tree));
    }

    #[test]
    fn queries_validate_across_seeds() {
        // Query::new validates; just construct many.
        let cfg = GenConfig::paper(7);
        for seed in 0..50 {
            let q = generate_query(&cfg, seed);
            assert_eq!(7, q.table_count());
            assert!(q.grouping.is_some());
        }
    }

    #[test]
    fn inner_only_config() {
        let mut cfg = GenConfig::paper(5);
        cfg.ops = OpWeights::inner_only();
        for seed in 0..20 {
            let q = generate_query(&cfg, seed);
            q.tree.visit_ops(&mut |n| {
                if let OpTree::Binary { op, .. } = n {
                    assert_eq!(OpKind::Join, *op);
                }
            });
        }
    }

    #[test]
    fn oracle_config_has_small_tables() {
        let q = generate_query(&GenConfig::oracle(4), 9);
        for t in &q.tables {
            assert!(t.card <= 8.0);
        }
    }

    #[test]
    fn single_relation_query() {
        let q = generate_query(&GenConfig::paper(1), 3);
        assert_eq!(1, q.table_count());
    }

    /// The relations each join predicate connects, as (min side, max side)
    /// sets of table indices.
    fn predicate_links(q: &Query) -> Vec<(Vec<usize>, Vec<usize>)> {
        let origin = |attrs: Vec<AttrId>| -> Vec<usize> {
            let mut t: Vec<usize> = attrs
                .iter()
                .flat_map(|a| (0..q.table_count()).filter(|&i| q.tables[i].has_attr(*a)))
                .collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        let mut out = Vec::new();
        q.tree.visit_ops(&mut |n| {
            if let OpTree::Binary { pred, .. } = n {
                out.push((origin(pred.left_attrs()), origin(pred.right_attrs())));
            }
        });
        out
    }

    #[test]
    fn chain_topology_links_successive_relations() {
        let cfg = GenConfig::topology(12, Topology::Chain);
        let mut cfg = cfg;
        cfg.ops = OpWeights::inner_only(); // nothing hidden: pure chain
        for seed in 0..10 {
            let q = generate_query(&cfg, seed);
            let mut links = predicate_links(&q);
            links.sort();
            let want: Vec<_> = (1..12).map(|k| (vec![k - 1], vec![k])).collect();
            assert_eq!(want, links);
        }
    }

    #[test]
    fn star_topology_links_every_relation_to_the_hub() {
        let mut cfg = GenConfig::topology(20, Topology::Star);
        cfg.ops = OpWeights::inner_only();
        let q = generate_query(&cfg, 7);
        for (l, r) in predicate_links(&q) {
            assert_eq!(vec![0], l);
            assert_eq!(1, r.len());
        }
    }

    #[test]
    fn clique_topology_joins_every_pair() {
        let cfg = GenConfig::topology(9, Topology::Clique);
        let q = generate_query(&cfg, 3);
        // Step k carries one term per earlier relation: all pairs covered.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (ls, rs) in predicate_links(&q) {
            let &k = rs.first().unwrap();
            for &j in &ls {
                pairs.push((j, k));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(9 * 8 / 2, pairs.len());
    }

    #[test]
    fn large_n_topologies_generate_and_validate() {
        // The unranking path would overflow here; the explicit topologies
        // must not (Query::new validates on construction).
        for topo in [
            Topology::Chain,
            Topology::Star,
            Topology::Clique,
            Topology::Mixed,
        ] {
            let q = generate_query(&GenConfig::topology(50, topo), 11);
            assert_eq!(50, q.table_count());
        }
    }

    #[test]
    fn mixed_topology_is_deterministic_per_seed() {
        let cfg = GenConfig::topology(14, Topology::Mixed);
        let q1 = generate_query(&cfg, 5);
        let q2 = generate_query(&cfg, 5);
        assert_eq!(format!("{:?}", q1.tree), format!("{:?}", q2.tree));
    }

    #[test]
    fn paper_topology_unchanged_by_the_knob() {
        // Topology::Paper is the default: seeds must keep producing the
        // exact trees the parity goldens were recorded against.
        let q1 = generate_query(&GenConfig::paper(6), 42);
        let q2 = generate_query(&GenConfig::topology(6, Topology::Paper), 42);
        assert_eq!(format!("{:?}", q1.tree), format!("{:?}", q2.tree));
    }
}
