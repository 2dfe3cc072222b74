//! The query: tables + initial operator tree + grouping specification.

use crate::optree::{OpKind, OpTree};
use crate::table::QueryTable;
use dpnext_algebra::{AggCall, AggKind, AlgExpr, AttrGen, AttrId, Expr};
use dpnext_hypergraph::NodeSet;

/// The grouping part of a query: `select G, F(…) … group by G`.
///
/// Aggregation vectors are stored *normalized*: `avg` is decomposed into
/// `sum`/`count` partials recombined by a post-grouping map (§2.1 treats
/// `avg` exactly this way), so the optimizer only ever sees aggregates
/// whose decomposability is a simple per-function property.
#[derive(Debug, Clone, Default)]
pub struct GroupSpec {
    /// Grouping attributes `G`.
    pub group_by: Vec<AttrId>,
    /// Normalized aggregation vector `F`.
    pub aggs: Vec<AggCall>,
    /// Post-grouping computed columns (e.g. `avg = sum / countNN`).
    pub post: Vec<(AttrId, Expr)>,
    /// Final output attributes (grouping attrs + user-visible aggregates).
    pub output: Vec<AttrId>,
}

impl GroupSpec {
    /// Build a normalized spec from user-level aggregates.
    pub fn new(group_by: Vec<AttrId>, user_aggs: Vec<AggCall>, gen: &mut AttrGen) -> Self {
        let mut aggs = Vec::with_capacity(user_aggs.len());
        let mut post = Vec::new();
        let mut output: Vec<AttrId> = group_by.clone();
        for call in user_aggs {
            output.push(call.out);
            if call.kind == AggKind::Avg {
                let arg = call.arg.clone().expect("avg needs an argument");
                let s = gen.fresh();
                let c = gen.fresh();
                aggs.push(AggCall::new(s, AggKind::Sum, arg.clone()));
                aggs.push(AggCall::new(c, AggKind::Count, arg));
                post.push((call.out, Expr::attr(s).div(Expr::attr(c))));
            } else {
                aggs.push(call);
            }
        }
        GroupSpec {
            group_by,
            aggs,
            post,
            output,
        }
    }
}

/// Attribute → the node set that must be present for the attribute to
/// exist ([`Query::attr_origins`]): a dense table indexed by [`AttrId`], so
/// a lookup is an index. An id without an origin reads as the empty set,
/// which no attribute has.
#[derive(Debug, Clone)]
pub struct AttrOrigins(Vec<NodeSet>);

impl AttrOrigins {
    /// The origin of `a`, if it has one.
    #[inline]
    pub fn get(&self, a: AttrId) -> Option<NodeSet> {
        let org = self.0.get(a.0 as usize).copied()?;
        (!org.is_empty()).then_some(org)
    }

    /// The origin of `a`; panics on an id without one.
    #[inline]
    pub fn of(&self, a: AttrId) -> NodeSet {
        self.get(a)
            .unwrap_or_else(|| panic!("unknown attribute {a}"))
    }

    /// Give `a` the origin `org` (not empty), replacing any it had.
    pub fn insert(&mut self, a: AttrId, org: NodeSet) {
        assert!(!org.is_empty(), "attribute {a} given an empty origin");
        let i = a.0 as usize;
        if i >= self.0.len() {
            self.0.resize(i + 1, NodeSet::EMPTY);
        }
        self.0[i] = org;
    }

    /// The highest id with an origin, if any has one.
    pub fn max_attr(&self) -> Option<AttrId> {
        // Every index below the length came from a `u32` id.
        let last = self.0.len().checked_sub(1)?;
        Some(AttrId(last as u32))
    }
}

/// A complete query.
#[derive(Debug, Clone)]
pub struct Query {
    pub tables: Vec<QueryTable>,
    pub tree: OpTree,
    /// `None` for pure join-ordering queries without grouping.
    pub grouping: Option<GroupSpec>,
}

impl Query {
    pub fn new(tables: Vec<QueryTable>, tree: OpTree, grouping: Option<GroupSpec>) -> Self {
        let q = Query {
            tables,
            tree,
            grouping,
        };
        q.validate();
        q
    }

    /// Number of table occurrences.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Map every attribute to the node set that must be present for the
    /// attribute to exist: table attributes map to their occurrence,
    /// groupjoin outputs to the relations of the groupjoin's subtree.
    pub fn attr_origins(&self) -> AttrOrigins {
        let attrs = self.tables.iter().flat_map(|t| &t.attrs);
        let width = attrs.map(|a| a.0 as usize + 1).max().unwrap_or(0);
        let mut origins = AttrOrigins(vec![NodeSet::EMPTY; width]);
        for (i, t) in self.tables.iter().enumerate() {
            for &a in &t.attrs {
                origins.insert(a, NodeSet::single(i));
            }
        }
        self.tree.visit_ops(&mut |node| {
            if let OpTree::Binary {
                op: OpKind::GroupJoin,
                gj_aggs,
                left,
                right,
                ..
            } = node
            {
                let set = left.relations().union(right.relations());
                for call in gj_aggs {
                    origins.insert(call.out, set);
                }
            }
        });
        origins
    }

    /// The canonical (unoptimized) executable plan: the initial operator
    /// tree followed by the top grouping, post map and output projection —
    /// exactly how a system without grouping reordering would run it.
    pub fn canonical_plan(&self) -> AlgExpr {
        let scan_name = |i: usize| self.tables[i].alias.clone();
        let mut plan = self.tree.to_alg(&scan_name);
        if let Some(g) = &self.grouping {
            plan = AlgExpr::GroupBy {
                input: Box::new(plan),
                attrs: g.group_by.clone(),
                aggs: g.aggs.clone(),
            };
            if !g.post.is_empty() {
                plan = AlgExpr::Map {
                    input: Box::new(plan),
                    exts: g.post.clone(),
                };
            }
            plan = AlgExpr::Project {
                input: Box::new(plan),
                attrs: g.output.clone(),
                dedup: false,
            };
        }
        plan
    }

    /// Sanity checks: unique aliases, predicate sides match subtrees,
    /// grouping attributes visible at the top.
    fn validate(&self) {
        let mut aliases: Vec<&str> = self.tables.iter().map(|t| t.alias.as_str()).collect();
        aliases.sort_unstable();
        aliases
            .windows(2)
            .for_each(|w| assert_ne!(w[0], w[1], "duplicate table alias {}", w[0]));

        let origins = self.attr_origins();
        let table_attrs = |i: usize| self.tables[i].attrs.clone();
        self.tree.visit_ops(&mut |node| {
            if let OpTree::Binary {
                pred,
                left,
                right,
                gj_aggs,
                ..
            } = node
            {
                let lrels = left.relations();
                let rrels = right.relations();
                for &a in &pred.left_attrs() {
                    let org = origins.of(a);
                    assert!(
                        org.is_subset_of(lrels),
                        "pred attr {a} not from left subtree"
                    );
                }
                for &a in &pred.right_attrs() {
                    let org = origins.of(a);
                    assert!(
                        org.is_subset_of(rrels),
                        "pred attr {a} not from right subtree"
                    );
                }
                for call in gj_aggs {
                    for a in call.referenced() {
                        let org = origins.of(a);
                        assert!(
                            org.is_subset_of(rrels),
                            "groupjoin aggregate attr {a} not from right subtree"
                        );
                    }
                }
            }
        });

        if let Some(g) = &self.grouping {
            let visible = self.tree.visible_attrs(&table_attrs);
            for &a in &g.group_by {
                assert!(
                    visible.contains(&a),
                    "grouping attr {a} not visible at query top"
                );
            }
            for call in &g.aggs {
                for a in call.referenced() {
                    assert!(
                        visible.contains(&a),
                        "aggregate attr {a} not visible at query top"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpnext_algebra::{JoinPred, Relation};

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    fn two_table_query() -> Query {
        let t0 = QueryTable::new("r", vec![a(0), a(1)], 3.0).with_key(vec![a(0)]);
        let t1 = QueryTable::new("s", vec![a(2), a(3)], 3.0);
        let tree = OpTree::binary(
            OpKind::Join,
            JoinPred::eq(a(1), a(2)),
            OpTree::rel(0),
            OpTree::rel(1),
        );
        let mut gen = AttrGen::new(100);
        let spec = GroupSpec::new(
            vec![a(0)],
            vec![AggCall::new(a(50), AggKind::Sum, Expr::attr(a(3)))],
            &mut gen,
        );
        Query::new(vec![t0, t1], tree, Some(spec))
    }

    #[test]
    fn canonical_plan_executes() {
        let q = two_table_query();
        let mut db = dpnext_algebra::Database::new();
        db.insert(
            "r",
            Relation::from_ints(
                vec![a(0), a(1)],
                &[&[Some(1), Some(7)], &[Some(2), Some(8)]],
            ),
        );
        db.insert(
            "s",
            Relation::from_ints(
                vec![a(2), a(3)],
                &[&[Some(7), Some(10)], &[Some(7), Some(20)]],
            ),
        );
        let res = q.canonical_plan().eval(&db);
        let expect = Relation::from_ints(vec![a(0), a(50)], &[&[Some(1), Some(30)]]);
        assert!(res.bag_eq(&expect));
    }

    #[test]
    fn avg_is_normalized() {
        let mut gen = AttrGen::new(100);
        let spec = GroupSpec::new(
            vec![a(0)],
            vec![AggCall::new(a(50), AggKind::Avg, Expr::attr(a(3)))],
            &mut gen,
        );
        assert_eq!(2, spec.aggs.len());
        assert!(spec.aggs.iter().all(|c| c.kind != AggKind::Avg));
        assert_eq!(1, spec.post.len());
        assert_eq!(a(50), spec.post[0].0);
        assert_eq!(vec![a(0), a(50)], spec.output);
    }

    #[test]
    fn attr_origins_for_tables() {
        let q = two_table_query();
        let origins = q.attr_origins();
        assert_eq!(NodeSet::single(0), origins.of(a(1)));
        assert_eq!(NodeSet::single(1), origins.of(a(3)));
        assert_eq!(None, origins.get(a(50)));
        assert_eq!(None, origins.get(a(1_000)));
    }

    #[test]
    #[should_panic(expected = "not from left subtree")]
    fn validation_rejects_swapped_pred() {
        let t0 = QueryTable::new("r", vec![a(0)], 1.0);
        let t1 = QueryTable::new("s", vec![a(1)], 1.0);
        // Predicate sides are swapped relative to the subtrees.
        let tree = OpTree::binary(
            OpKind::Join,
            JoinPred::eq(a(1), a(0)),
            OpTree::rel(0),
            OpTree::rel(1),
        );
        Query::new(vec![t0, t1], tree, None);
    }

    #[test]
    #[should_panic(expected = "duplicate table alias")]
    fn validation_rejects_duplicate_alias() {
        let t0 = QueryTable::new("r", vec![a(0)], 1.0);
        let t1 = QueryTable::new("r", vec![a(1)], 1.0);
        let tree = OpTree::binary(
            OpKind::Join,
            JoinPred::eq(a(0), a(1)),
            OpTree::rel(0),
            OpTree::rel(1),
        );
        Query::new(vec![t0, t1], tree, None);
    }

    #[test]
    #[should_panic(expected = "not visible")]
    fn validation_rejects_grouping_on_semijoin_right() {
        let t0 = QueryTable::new("r", vec![a(0)], 1.0);
        let t1 = QueryTable::new("s", vec![a(1)], 1.0);
        let tree = OpTree::binary(
            OpKind::Semi,
            JoinPred::eq(a(0), a(1)),
            OpTree::rel(0),
            OpTree::rel(1),
        );
        let mut gen = AttrGen::new(100);
        let spec = GroupSpec::new(vec![a(1)], vec![], &mut gen);
        Query::new(vec![t0, t1], tree, Some(spec));
    }
}
