//! Executable operator trees and their interpreter.
//!
//! Optimized plans are compiled into [`AlgExpr`] trees and evaluated against
//! a [`Database`] of named base relations. This is the execution substrate
//! used in place of the paper's HyPer / commercial systems (see
//! `docs/ARCHITECTURE.md`).

use crate::agg::AggCall;
use crate::expr::{CmpOp, Expr, JoinPred};
use crate::ops::{self, Defaults};
use crate::relation::Relation;
use crate::schema::AttrId;
use std::collections::HashMap;
use std::fmt;

/// A database: named base relations.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: HashMap<String, Relation>,
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    pub fn insert(&mut self, name: impl Into<String>, rel: Relation) {
        self.relations.insert(name.into(), rel);
    }

    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }
}

/// An executable algebra tree.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgExpr {
    /// Scan of a named base relation.
    Scan(String),
    Cross(Box<AlgExpr>, Box<AlgExpr>),
    InnerJoin {
        left: Box<AlgExpr>,
        right: Box<AlgExpr>,
        pred: JoinPred,
    },
    SemiJoin {
        left: Box<AlgExpr>,
        right: Box<AlgExpr>,
        pred: JoinPred,
    },
    AntiJoin {
        left: Box<AlgExpr>,
        right: Box<AlgExpr>,
        pred: JoinPred,
    },
    LeftOuterJoin {
        left: Box<AlgExpr>,
        right: Box<AlgExpr>,
        pred: JoinPred,
        defaults: Defaults,
    },
    FullOuterJoin {
        left: Box<AlgExpr>,
        right: Box<AlgExpr>,
        pred: JoinPred,
        d1: Defaults,
        d2: Defaults,
    },
    GroupJoin {
        left: Box<AlgExpr>,
        right: Box<AlgExpr>,
        pred: JoinPred,
        aggs: Vec<AggCall>,
        empty_defaults: Defaults,
    },
    GroupBy {
        input: Box<AlgExpr>,
        attrs: Vec<AttrId>,
        aggs: Vec<AggCall>,
    },
    Map {
        input: Box<AlgExpr>,
        exts: Vec<(AttrId, Expr)>,
    },
    Project {
        input: Box<AlgExpr>,
        attrs: Vec<AttrId>,
        dedup: bool,
    },
    Select {
        input: Box<AlgExpr>,
        left: Expr,
        op: CmpOp,
        right: Expr,
    },
    UnionAll(Box<AlgExpr>, Box<AlgExpr>),
}

impl AlgExpr {
    pub fn scan(name: impl Into<String>) -> AlgExpr {
        AlgExpr::Scan(name.into())
    }

    /// Evaluate the tree bottom-up.
    ///
    /// Panics if a scanned relation is missing or an attribute is not in
    /// scope — both indicate a malformed plan, which tests must surface.
    pub fn eval(&self, db: &Database) -> Relation {
        let kids: Vec<Relation> = self.children().iter().map(|c| c.eval(db)).collect();
        self.eval_node(db, &kids)
    }

    /// Evaluate one operator given its children's already-computed results
    /// (in [`AlgExpr::children`] order). Shared by [`AlgExpr::eval`] and
    /// [`AlgExpr::eval_counting`] so each node is evaluated exactly once.
    fn eval_node(&self, db: &Database, kids: &[Relation]) -> Relation {
        match self {
            AlgExpr::Scan(name) => db
                .get(name)
                .unwrap_or_else(|| panic!("relation {name} not in database"))
                .clone(),
            AlgExpr::Cross(..) => ops::cross(&kids[0], &kids[1]),
            AlgExpr::InnerJoin { pred, .. } => ops::inner_join(&kids[0], &kids[1], pred),
            AlgExpr::SemiJoin { pred, .. } => ops::semi_join(&kids[0], &kids[1], pred),
            AlgExpr::AntiJoin { pred, .. } => ops::anti_join(&kids[0], &kids[1], pred),
            AlgExpr::LeftOuterJoin { pred, defaults, .. } => {
                ops::left_outer_join(&kids[0], &kids[1], pred, defaults)
            }
            AlgExpr::FullOuterJoin { pred, d1, d2, .. } => {
                ops::full_outer_join(&kids[0], &kids[1], pred, d1, d2)
            }
            AlgExpr::GroupJoin {
                pred,
                aggs,
                empty_defaults,
                ..
            } => ops::groupjoin_with_defaults(&kids[0], &kids[1], pred, aggs, empty_defaults),
            AlgExpr::GroupBy { attrs, aggs, .. } => {
                crate::grouping::group_by(&kids[0], attrs, aggs)
            }
            AlgExpr::Map { exts, .. } => ops::map(&kids[0], exts),
            AlgExpr::Project { attrs, dedup, .. } => ops::project(&kids[0], attrs, *dedup),
            AlgExpr::Select {
                left, op, right, ..
            } => ops::select(&kids[0], |schema, t| {
                op.test(&left.eval(schema, t), &right.eval(schema, t))
            }),
            AlgExpr::UnionAll(..) => ops::union_all(&kids[0], &kids[1]),
        }
    }

    /// Evaluate while recording the cardinality of every intermediate
    /// result (the *measured* `C_out`). Returns `(result, total C_out)`.
    /// Scans and the final projection are free, matching §4.4.
    pub fn eval_counting(&self, db: &Database) -> (Relation, u64) {
        let mut inner = 0u64;
        let kids: Vec<Relation> = self
            .children()
            .iter()
            .map(|child| {
                let (rel, c) = child.eval_counting(db);
                inner += c;
                rel
            })
            .collect();
        let result = self.eval_node(db, &kids);
        let own = match self {
            // Scans, the final projection and column extensions are free.
            AlgExpr::Scan(_) | AlgExpr::Project { .. } | AlgExpr::Map { .. } => 0,
            _ => result.len() as u64,
        };
        (result, inner + own)
    }

    fn children(&self) -> Vec<&AlgExpr> {
        match self {
            AlgExpr::Scan(_) => vec![],
            AlgExpr::Cross(l, r) | AlgExpr::UnionAll(l, r) => vec![l, r],
            AlgExpr::InnerJoin { left, right, .. }
            | AlgExpr::SemiJoin { left, right, .. }
            | AlgExpr::AntiJoin { left, right, .. }
            | AlgExpr::LeftOuterJoin { left, right, .. }
            | AlgExpr::FullOuterJoin { left, right, .. }
            | AlgExpr::GroupJoin { left, right, .. } => vec![left, right],
            AlgExpr::GroupBy { input, .. }
            | AlgExpr::Map { input, .. }
            | AlgExpr::Project { input, .. }
            | AlgExpr::Select { input, .. } => vec![input],
        }
    }

    /// Number of grouping operators (Γ) in the tree.
    pub fn grouping_count(&self) -> usize {
        let own = usize::from(matches!(self, AlgExpr::GroupBy { .. }));
        own + self
            .children()
            .iter()
            .map(|c| c.grouping_count())
            .sum::<usize>()
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            AlgExpr::Scan(name) => writeln!(f, "{pad}Scan({name})"),
            AlgExpr::Cross(l, r) => {
                writeln!(f, "{pad}Cross")?;
                l.fmt_indent(f, indent + 1)?;
                r.fmt_indent(f, indent + 1)
            }
            AlgExpr::InnerJoin { left, right, pred } => {
                writeln!(f, "{pad}Join[{pred}]")?;
                left.fmt_indent(f, indent + 1)?;
                right.fmt_indent(f, indent + 1)
            }
            AlgExpr::SemiJoin { left, right, pred } => {
                writeln!(f, "{pad}SemiJoin[{pred}]")?;
                left.fmt_indent(f, indent + 1)?;
                right.fmt_indent(f, indent + 1)
            }
            AlgExpr::AntiJoin { left, right, pred } => {
                writeln!(f, "{pad}AntiJoin[{pred}]")?;
                left.fmt_indent(f, indent + 1)?;
                right.fmt_indent(f, indent + 1)
            }
            AlgExpr::LeftOuterJoin {
                left,
                right,
                pred,
                defaults,
            } => {
                writeln!(f, "{pad}LeftOuterJoin[{pred}] defaults={defaults:?}")?;
                left.fmt_indent(f, indent + 1)?;
                right.fmt_indent(f, indent + 1)
            }
            AlgExpr::FullOuterJoin {
                left,
                right,
                pred,
                d1,
                d2,
            } => {
                writeln!(f, "{pad}FullOuterJoin[{pred}] d1={d1:?} d2={d2:?}")?;
                left.fmt_indent(f, indent + 1)?;
                right.fmt_indent(f, indent + 1)
            }
            AlgExpr::GroupJoin {
                left,
                right,
                pred,
                aggs,
                ..
            } => {
                writeln!(f, "{pad}GroupJoin[{pred}] aggs={}", aggs.len())?;
                left.fmt_indent(f, indent + 1)?;
                right.fmt_indent(f, indent + 1)
            }
            AlgExpr::GroupBy { input, attrs, aggs } => {
                writeln!(f, "{pad}GroupBy[{attrs:?}] aggs={}", aggs.len())?;
                input.fmt_indent(f, indent + 1)
            }
            AlgExpr::Map { input, exts } => {
                writeln!(f, "{pad}Map[{} exts]", exts.len())?;
                input.fmt_indent(f, indent + 1)
            }
            AlgExpr::Project {
                input,
                attrs,
                dedup,
            } => {
                writeln!(f, "{pad}Project[{attrs:?}] dedup={dedup}")?;
                input.fmt_indent(f, indent + 1)
            }
            AlgExpr::Select {
                input,
                left,
                op,
                right,
            } => {
                writeln!(f, "{pad}Select[{left} {op} {right}]")?;
                input.fmt_indent(f, indent + 1)
            }
            AlgExpr::UnionAll(l, r) => {
                writeln!(f, "{pad}UnionAll")?;
                l.fmt_indent(f, indent + 1)?;
                r.fmt_indent(f, indent + 1)
            }
        }
    }
}

impl fmt::Display for AlgExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggKind;

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.insert(
            "r",
            Relation::from_ints(
                vec![a(0), a(1)],
                &[&[Some(1), Some(10)], &[Some(2), Some(20)]],
            ),
        );
        db.insert(
            "s",
            Relation::from_ints(
                vec![a(2), a(3)],
                &[&[Some(1), Some(5)], &[Some(1), Some(6)]],
            ),
        );
        db
    }

    #[test]
    fn eval_join_group() {
        let tree = AlgExpr::GroupBy {
            input: Box::new(AlgExpr::InnerJoin {
                left: Box::new(AlgExpr::scan("r")),
                right: Box::new(AlgExpr::scan("s")),
                pred: JoinPred::eq(a(0), a(2)),
            }),
            attrs: vec![a(0)],
            aggs: vec![AggCall::new(a(9), AggKind::Sum, Expr::attr(a(3)))],
        };
        let res = tree.eval(&db());
        let expect = Relation::from_ints(vec![a(0), a(9)], &[&[Some(1), Some(11)]]);
        assert!(res.bag_eq(&expect));
    }

    #[test]
    fn eval_counting_matches_cout() {
        // Join yields 2 tuples, group 1 tuple → C_out = 3; scans free.
        let tree = AlgExpr::GroupBy {
            input: Box::new(AlgExpr::InnerJoin {
                left: Box::new(AlgExpr::scan("r")),
                right: Box::new(AlgExpr::scan("s")),
                pred: JoinPred::eq(a(0), a(2)),
            }),
            attrs: vec![a(0)],
            aggs: vec![AggCall::count_star(a(9))],
        };
        let (_, cost) = tree.eval_counting(&db());
        assert_eq!(3, cost);
    }

    #[test]
    fn select_filters() {
        let tree = AlgExpr::Select {
            input: Box::new(AlgExpr::scan("r")),
            left: Expr::attr(a(1)),
            op: CmpOp::Gt,
            right: Expr::int(15),
        };
        assert_eq!(1, tree.eval(&db()).len());
    }

    #[test]
    fn operator_counts() {
        let tree = AlgExpr::GroupBy {
            input: Box::new(AlgExpr::InnerJoin {
                left: Box::new(AlgExpr::scan("r")),
                right: Box::new(AlgExpr::scan("s")),
                pred: JoinPred::eq(a(0), a(2)),
            }),
            attrs: vec![a(0)],
            aggs: vec![],
        };
        assert_eq!(1, tree.grouping_count());
    }

    #[test]
    #[should_panic(expected = "not in database")]
    fn missing_relation_panics() {
        AlgExpr::scan("zzz").eval(&db());
    }

    #[test]
    fn display_renders_tree() {
        let tree = AlgExpr::InnerJoin {
            left: Box::new(AlgExpr::scan("r")),
            right: Box::new(AlgExpr::scan("s")),
            pred: JoinPred::eq(a(0), a(2)),
        };
        let s = tree.to_string();
        assert!(s.contains("Join"));
        assert!(s.contains("Scan(r)"));
    }
}
