//! Name resolution and semantic analysis: AST → optimizable [`Query`].

use crate::ast::{AstFrom, AstItem, AstJoinKind, AstQuery, QName};
use crate::lexer::SqlError;
use dpnext_algebra::{AggCall, AggKind, AttrId, CmpOp, Database, Expr, JoinPred};
use dpnext_catalog::{generate_database, Catalog};
use dpnext_query::{GroupSpec, OpKind, OpTree, Query, QueryTable};
use std::collections::HashMap;

/// A bound query, ready for the optimizer, plus the metadata needed to
/// generate data or label output columns.
pub struct BoundQuery {
    pub query: Query,
    /// `(catalog table, alias, column mapping)` per occurrence, in table
    /// index order.
    pub occurrences: Vec<(String, String, HashMap<String, AttrId>)>,
    /// Human-readable labels of the select list, in item order. For a
    /// grouped statement they label the plan's output column for column
    /// ([`GroupSpec::output`] is the select list). An *ungrouped* statement
    /// has no projection at all (`Query::grouping` is `None`): its plan
    /// returns every visible column of the join, whatever the select list
    /// names, so there the labels do not line up with the result.
    pub output_names: Vec<String>,
}

impl BoundQuery {
    /// Generate a scaled synthetic instance of this query's occurrences:
    /// one relation per alias, filled by the TPC-H generators of the
    /// occurrence's catalog table (see [`generate_database`]).
    pub fn database(&self, scale: f64, seed: u64) -> Database {
        let occs: Vec<_> = self
            .occurrences
            .iter()
            .zip(&self.query.tables)
            .map(|((table, _, mapping), t)| (table.as_str(), t, mapping))
            .collect();
        generate_database(scale, seed, &occs)
    }
}

/// Parse and bind in one step.
pub fn plan(input: &str, catalog: &Catalog) -> Result<BoundQuery, SqlError> {
    let ast = crate::parser::parse(input)?;
    bind(&ast, catalog)
}

/// Bind a parsed query against a catalog.
///
/// Binding only reads the catalog; occurrence attributes come from a
/// query-local allocator seeded at the catalog's high-water mark. This
/// makes binding deterministic — the same text against the same catalog
/// always yields bit-identical attribute ids — and lets many binders
/// share one catalog concurrently.
pub fn bind(ast: &AstQuery, catalog: &Catalog) -> Result<BoundQuery, SqlError> {
    let gen = catalog.attr_gen();
    let mut binder = Binder {
        catalog,
        gen,
        tables: Vec::new(),
        occurrences: Vec::new(),
        hidden: Vec::new(),
    };
    let tree = binder.from(&ast.from)?;

    // Resolve grouping attributes.
    let group_by: Vec<AttrId> = ast
        .group_by
        .iter()
        .map(|q| binder.resolve(q))
        .collect::<Result<_, _>>()?;

    // Select list: aggregates and plain columns. The binder's allocator
    // continues past the occurrence attributes it just handed out.
    let mut gen = binder.gen.clone();
    let mut aggs: Vec<AggCall> = Vec::new();
    let mut output_names = Vec::new();
    let mut plain_columns: Vec<AttrId> = Vec::new();
    // The select list's attributes in item order: a plain column's id, an
    // aggregate's output.
    let mut select_list: Vec<AttrId> = Vec::new();
    for item in &ast.items {
        match item {
            AstItem::Column(q) => {
                let a = binder.resolve(q)?;
                plain_columns.push(a);
                select_list.push(a);
                output_names.push(q.to_string());
            }
            AstItem::Agg {
                func,
                distinct,
                arg,
                alias,
            } => {
                let kind = agg_kind(func, *distinct)?;
                let out = gen.fresh();
                select_list.push(out);
                let call = match arg {
                    None => AggCall::count_star(out),
                    Some(q) => AggCall::new(out, kind, Expr::attr(binder.resolve(q)?)),
                };
                output_names.push(alias.clone().unwrap_or_else(|| match arg {
                    None => "count(*)".to_string(),
                    Some(q) => format!("{func}({}{q})", if *distinct { "distinct " } else { "" }),
                }));
                aggs.push(call);
            }
        }
    }

    let has_grouping = !ast.group_by.is_empty() || !aggs.is_empty();
    let grouping = if has_grouping {
        // SQL rule: plain select columns must be grouping columns. Output
        // columns are identified by attribute, so each at most once.
        for (i, &c) in plain_columns.iter().enumerate() {
            if !group_by.contains(&c) {
                return Err(SqlError::new(format!(
                    "column {c} must appear in GROUP BY or inside an aggregate"
                )));
            }
            if plain_columns[..i].contains(&c) {
                return Err(SqlError::new(format!(
                    "column {c} appears twice in the select list"
                )));
            }
        }
        // `GroupSpec::new` lists GROUP BY order, then the aggregates; the
        // final projection yields the select list, in order, and nothing
        // else.
        let mut spec = GroupSpec::new(group_by, aggs, &mut gen);
        spec.output = select_list;
        Some(spec)
    } else {
        None
    };

    let query = Query::new(binder.tables, tree, grouping);
    Ok(BoundQuery {
        query,
        occurrences: binder.occurrences,
        output_names,
    })
}

fn agg_kind(func: &str, distinct: bool) -> Result<AggKind, SqlError> {
    Ok(match (func, distinct) {
        ("count*", _) => AggKind::CountStar,
        ("count", false) => AggKind::Count,
        ("count", true) => AggKind::CountDistinct,
        ("sum", false) => AggKind::Sum,
        ("sum", true) => AggKind::SumDistinct,
        ("avg", false) => AggKind::Avg,
        ("avg", true) => AggKind::AvgDistinct,
        // DISTINCT is a no-op for min/max.
        ("min", _) => AggKind::Min,
        ("max", _) => AggKind::Max,
        (other, _) => return Err(SqlError::new(format!("unknown aggregate function {other}"))),
    })
}

struct Binder<'a> {
    catalog: &'a Catalog,
    /// Query-local fresh-attribute allocator, seeded at the catalog's
    /// high-water mark; occurrence and aggregate-output ids come from
    /// here instead of mutating the shared catalog.
    gen: dpnext_algebra::AttrGen,
    tables: Vec<QueryTable>,
    occurrences: Vec<(String, String, HashMap<String, AttrId>)>,
    /// `(occurrences, join)` per semi-/antijoin bound so far: the
    /// occurrences of its right side, whose columns it hides from
    /// everything resolved after it — the joins above it, GROUP BY, the
    /// select list ([`OpTree::visible_attrs`] is the same rule on the
    /// bound tree, and `Query::new` asserts it).
    hidden: Vec<(std::ops::Range<usize>, &'static str)>,
}

impl Binder<'_> {
    /// Bind a FROM tree, returning the operator tree. Table indices are
    /// assigned left to right.
    fn from(&mut self, f: &AstFrom) -> Result<OpTree, SqlError> {
        match f {
            AstFrom::Table { name, alias } => {
                let alias = alias.clone().unwrap_or_else(|| name.clone());
                if self.occurrences.iter().any(|(_, a, _)| *a == alias) {
                    return Err(SqlError::new(format!("duplicate table alias {alias}")));
                }
                // Unknown tables surface as a catalog panic; map to error.
                if !self.catalog.relations().iter().any(|r| r.name == *name) {
                    return Err(SqlError::new(format!("unknown table {name}")));
                }
                let (table, mapping) = self.catalog.instantiate_with(&mut self.gen, name, &alias);
                let idx = self.tables.len();
                self.tables.push(table);
                self.occurrences.push((name.clone(), alias, mapping));
                Ok(OpTree::rel(idx))
            }
            AstFrom::Join {
                kind,
                condition,
                left,
                right,
            } => {
                let lstart = self.occurrences.len();
                let ltree = self.from(left)?;
                let lend = self.occurrences.len();
                let rtree = self.from(right)?;
                let rend = self.occurrences.len();

                let in_left = |i: usize| (lstart..lend).contains(&i);
                let in_right = |i: usize| (lend..rend).contains(&i);

                let mut pred = JoinPred::default();
                let mut sel = 1.0f64;
                for cmp in condition {
                    let (la, lo) = self.resolve_with_occ(&cmp.left)?;
                    let (ra, ro) = self.resolve_with_occ(&cmp.right)?;
                    let (l, op, r) = if in_left(lo) && in_right(ro) {
                        (la, cmp.op, ra)
                    } else if in_left(ro) && in_right(lo) {
                        (ra, cmp.op.flip(), la)
                    } else {
                        return Err(SqlError::new(format!(
                            "join condition {} {} does not connect the two sides",
                            cmp.left, cmp.right
                        )));
                    };
                    sel *= term_selectivity(&self.tables, l, r, op);
                    pred = pred.and(l, op, r);
                }
                if pred.terms.is_empty() {
                    return Err(SqlError::new("join requires an ON condition"));
                }
                let op = match kind {
                    AstJoinKind::Inner => OpKind::Join,
                    AstJoinKind::LeftOuter => OpKind::LeftOuter,
                    AstJoinKind::FullOuter => OpKind::FullOuter,
                    AstJoinKind::Semi => {
                        self.hidden.push((lend..rend, "a semi join"));
                        OpKind::Semi
                    }
                    AstJoinKind::Anti => {
                        self.hidden.push((lend..rend, "an anti join"));
                        OpKind::Anti
                    }
                };
                Ok(OpTree::binary_sel(op, pred, sel, ltree, rtree))
            }
        }
    }

    /// Resolve a (possibly qualified) column to an attribute.
    fn resolve(&self, q: &QName) -> Result<AttrId, SqlError> {
        self.resolve_with_occ(q).map(|(a, _)| a)
    }

    /// Resolve a column to its attribute and table occurrence. A column
    /// of an occurrence some already-bound semi- or antijoin has on its
    /// right side does not exist above that join: rejected.
    fn resolve_with_occ(&self, q: &QName) -> Result<(AttrId, usize), SqlError> {
        let (attr, occ) = self.lookup(q)?;
        match self.hidden.iter().find(|(occs, _)| occs.contains(&occ)) {
            Some((_, join)) => Err(SqlError::new(format!(
                "column {q} is not visible here: {} is on the right side of {join}",
                self.occurrences[occ].1
            ))),
            None => Ok((attr, occ)),
        }
    }

    fn lookup(&self, q: &QName) -> Result<(AttrId, usize), SqlError> {
        match &q.qualifier {
            Some(alias) => {
                let (i, (_, _, mapping)) = self
                    .occurrences
                    .iter()
                    .enumerate()
                    .find(|(_, (_, a, _))| a == alias)
                    .ok_or_else(|| SqlError::new(format!("unknown table alias {alias}")))?;
                let attr = mapping
                    .get(&q.name)
                    .ok_or_else(|| SqlError::new(format!("no column {} in {alias}", q.name)))?;
                Ok((*attr, i))
            }
            None => {
                let mut found = None;
                for (i, (_, alias, mapping)) in self.occurrences.iter().enumerate() {
                    if let Some(attr) = mapping.get(&q.name) {
                        if found.is_some() {
                            return Err(SqlError::new(format!(
                                "ambiguous column {} (qualify with an alias)",
                                q.name
                            )));
                        }
                        found = Some((*attr, i, alias.clone()));
                    }
                }
                found
                    .map(|(a, i, _)| (a, i))
                    .ok_or_else(|| SqlError::new(format!("unknown column {}", q.name)))
            }
        }
    }
}

/// The textbook selectivity for one predicate term: `1/max(d_l, d_r)` for
/// equality, a fixed `1/3` for inequalities.
fn term_selectivity(tables: &[QueryTable], l: AttrId, r: AttrId, op: CmpOp) -> f64 {
    if op != CmpOp::Eq {
        return 1.0 / 3.0;
    }
    let d = |a: AttrId| {
        tables
            .iter()
            .find(|t| t.has_attr(a))
            .map(|t| t.distinct_of(a))
            .unwrap_or(1.0)
    };
    1.0 / d(l).max(d(r)).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::plan;
    use dpnext_catalog::tpch_catalog;

    /// A semi- or antijoin's right side does not exist above the join. A
    /// text that names one of its columns there is a binder error naming
    /// the column and the join — it used to bind and trip an assertion of
    /// `Query::new` (grouped) or the optimizer (in a join condition), or be
    /// accepted silently (ungrouped).
    #[test]
    fn columns_hidden_by_a_semi_or_anti_join_are_rejected() {
        let catalog = tpch_catalog();
        for (text, column, join) in [
            (
                "select n.n_name, sum(s.s_acctbal) from nation n semi join supplier s \
                 on n.n_nationkey = s.s_nationkey group by n.n_name",
                "s.s_acctbal",
                "a semi join",
            ),
            (
                "select n.n_name, count(*) from region r anti join nation n \
                 on r.r_regionkey = n.n_regionkey group by n.n_name",
                "n.n_name",
                "an anti join",
            ),
            (
                "select s.s_acctbal from nation n semi join supplier s \
                 on n.n_nationkey = s.s_nationkey",
                "s.s_acctbal",
                "a semi join",
            ),
            (
                "select n.n_name from (nation n semi join supplier s \
                 on n.n_nationkey = s.s_nationkey) join customer c \
                 on s.s_nationkey = c.c_nationkey",
                "s.s_nationkey",
                "a semi join",
            ),
        ] {
            let Err(error) = plan(text, &catalog) else {
                panic!("bound: {text}")
            };
            let message = error.to_string();
            assert!(
                message.contains(column) && message.contains(join),
                "{text}: {message}"
            );
        }
        // The join's own condition and its left side stay nameable.
        plan(
            "select n.n_name, count(*) from nation n semi join supplier s \
             on n.n_nationkey = s.s_nationkey group by n.n_name",
            &catalog,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    /// A select list in "GROUP BY order, then the aggregates" form — the
    /// form of every statement in the benchmark's corpus — binds to the
    /// output `GroupSpec::new` builds by itself: grouping attributes, then
    /// each user-visible aggregate's output (`avg`'s is its post-map column).
    #[test]
    fn group_by_order_then_aggregates_is_the_default_output() {
        let bound = plan(
            "select n.n_name, n.n_regionkey, count(*), avg(s.s_acctbal) \
             from nation n join supplier s on n.n_nationkey = s.s_nationkey \
             group by n.n_name, n.n_regionkey",
            &tpch_catalog(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let g = bound.query.grouping.expect("grouped");
        let nation = &bound.occurrences[0].2;
        assert_eq!(vec![nation["n_name"], nation["n_regionkey"]], g.group_by);
        let mut default_output = g.group_by.clone();
        default_output.extend([g.aggs[0].out, g.post[0].0]);
        assert_eq!(default_output, g.output);
    }
}
