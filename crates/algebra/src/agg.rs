//! Aggregate functions, their SQL evaluation, and the property of §2.1 of
//! the paper that the optimizer reads per function: decomposability
//! (Def. 2). Splittability (Def. 1) is a property of a plan's set, not of
//! a function; the optimizer decides it per set (`OptContext::can_group`
//! in `dpnext-core`).

use crate::expr::Expr;
use crate::schema::{AttrId, Schema, Tuple};
use crate::value::Value;
use std::collections::HashSet;
use std::fmt;

/// The aggregate functions supported by the system (SQL standard set plus
/// the `distinct` variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    CountStar,
    Count,
    Sum,
    Min,
    Max,
    Avg,
    CountDistinct,
    SumDistinct,
    AvgDistinct,
}

impl AggKind {
    /// Decomposable (Def. 2): `agg(X ∪ Y) = agg2(agg1(X), agg1(Y))`.
    ///
    /// `avg` is decomposable via `sum`/`countNN` — the query layer
    /// normalizes it away before plan generation, so it is reported as
    /// non-decomposable here to keep the optimizer honest.
    pub fn is_decomposable(self) -> bool {
        matches!(
            self,
            AggKind::CountStar | AggKind::Count | AggKind::Sum | AggKind::Min | AggKind::Max
        )
    }

    /// The inner function `agg1` of the decomposition.
    pub fn partial(self) -> AggKind {
        debug_assert!(self.is_decomposable());
        self
    }

    /// The outer (combining) function `agg2` of the decomposition:
    /// `min → min`, `max → max`, `sum/count/count(*) → sum`.
    pub fn combine(self) -> AggKind {
        debug_assert!(self.is_decomposable());
        match self {
            AggKind::Min => AggKind::Min,
            AggKind::Max => AggKind::Max,
            _ => AggKind::Sum,
        }
    }
}

impl fmt::Display for AggKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggKind::CountStar => "count(*)",
            AggKind::Count => "count",
            AggKind::Sum => "sum",
            AggKind::Min => "min",
            AggKind::Max => "max",
            AggKind::Avg => "avg",
            AggKind::CountDistinct => "count(distinct)",
            AggKind::SumDistinct => "sum(distinct)",
            AggKind::AvgDistinct => "avg(distinct)",
        };
        f.write_str(s)
    }
}

/// One entry of an aggregation vector: `out : kind(arg)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    pub out: AttrId,
    pub kind: AggKind,
    /// `None` only for `count(*)`.
    pub arg: Option<Expr>,
}

impl AggCall {
    pub fn count_star(out: AttrId) -> Self {
        AggCall {
            out,
            kind: AggKind::CountStar,
            arg: None,
        }
    }

    pub fn new(out: AttrId, kind: AggKind, arg: Expr) -> Self {
        debug_assert!(kind != AggKind::CountStar);
        AggCall {
            out,
            kind,
            arg: Some(arg),
        }
    }

    /// Attributes referenced by the argument (`F(F)` for splittability).
    pub fn referenced(&self) -> Vec<AttrId> {
        let mut out = Vec::new();
        if let Some(arg) = &self.arg {
            arg.referenced(&mut out);
        }
        out
    }

    /// Evaluate over a group of tuples, with SQL NULL semantics:
    /// `sum`/`min`/`max` ignore NULLs and yield NULL on empty input,
    /// `count` counts non-NULL values, `count(*)` counts tuples.
    pub fn eval_group(&self, schema: &Schema, group: &[&Tuple]) -> Value {
        match self.kind {
            AggKind::CountStar => Value::Int(group.len() as i64),
            AggKind::Count => {
                let arg = self.arg.as_ref().expect("count needs an argument");
                let n = group
                    .iter()
                    .filter(|t| !arg.eval(schema, t).is_null())
                    .count();
                Value::Int(n as i64)
            }
            AggKind::Sum => fold_nonnull(self.arg(), schema, group, |acc, v| acc.add(&v)),
            AggKind::Min => fold_nonnull(self.arg(), schema, group, |acc, v| {
                if v.total_cmp(&acc).is_lt() {
                    v
                } else {
                    acc
                }
            }),
            AggKind::Max => fold_nonnull(self.arg(), schema, group, |acc, v| {
                if v.total_cmp(&acc).is_gt() {
                    v
                } else {
                    acc
                }
            }),
            AggKind::Avg => {
                let arg = self.arg();
                let mut sum = Value::Null;
                let mut n = 0i64;
                for t in group {
                    let v = arg.eval(schema, t);
                    if !v.is_null() {
                        sum = if sum.is_null() { v } else { sum.add(&v) };
                        n += 1;
                    }
                }
                if n == 0 {
                    Value::Null
                } else {
                    sum.div(&Value::Int(n))
                }
            }
            AggKind::CountDistinct => {
                Value::Int(distinct_values(self.arg(), schema, group).len() as i64)
            }
            AggKind::SumDistinct => {
                let vals = distinct_values(self.arg(), schema, group);
                vals.into_iter().fold(
                    Value::Null,
                    |acc, v| if acc.is_null() { v } else { acc.add(&v) },
                )
            }
            AggKind::AvgDistinct => {
                let vals = distinct_values(self.arg(), schema, group);
                if vals.is_empty() {
                    return Value::Null;
                }
                let n = vals.len() as i64;
                let sum =
                    vals.into_iter().fold(
                        Value::Null,
                        |acc, v| if acc.is_null() { v } else { acc.add(&v) },
                    );
                sum.div(&Value::Int(n))
            }
        }
    }

    /// The value of this aggregate applied to the single null tuple
    /// `{⊥}` — `F¹({⊥})` in the paper, used as the default vector of
    /// generalized outerjoins (Eqvs. 11/12, 14/15, …).
    ///
    /// `count(*)({⊥}) = 1`, `count(a)({⊥}) = 0`, everything else NULL.
    pub fn eval_null_tuple(&self) -> Value {
        match self.kind {
            AggKind::CountStar => Value::Int(1),
            AggKind::Count | AggKind::CountDistinct => Value::Int(0),
            _ => Value::Null,
        }
    }

    fn arg(&self) -> &Expr {
        self.arg.as_ref().expect("aggregate needs an argument")
    }
}

fn fold_nonnull(
    arg: &Expr,
    schema: &Schema,
    group: &[&Tuple],
    f: impl Fn(Value, Value) -> Value,
) -> Value {
    let mut acc = Value::Null;
    for t in group {
        let v = arg.eval(schema, t);
        if v.is_null() {
            continue;
        }
        acc = if acc.is_null() { v } else { f(acc, v) };
    }
    acc
}

fn distinct_values(arg: &Expr, schema: &Schema, group: &[&Tuple]) -> Vec<Value> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for t in group {
        let v = arg.eval(schema, t);
        if !v.is_null() && seen.insert(v.clone()) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    fn group_of(rel: &Relation) -> Vec<&Tuple> {
        rel.tuples().iter().collect()
    }

    #[test]
    fn properties() {
        assert!(AggKind::CountStar.is_decomposable());
        assert!(!AggKind::SumDistinct.is_decomposable());
        assert_eq!(AggKind::Sum, AggKind::Count.combine());
        assert_eq!(AggKind::Min, AggKind::Min.combine());
    }

    #[test]
    fn sum_ignores_nulls() {
        let r = Relation::from_ints(vec![a(0)], &[&[Some(1)], &[None], &[Some(4)]]);
        let call = AggCall::new(a(9), AggKind::Sum, Expr::attr(a(0)));
        assert_eq!(Value::Int(5), call.eval_group(r.schema(), &group_of(&r)));
    }

    #[test]
    fn sum_of_all_nulls_is_null() {
        let r = Relation::from_ints(vec![a(0)], &[&[None], &[None]]);
        let call = AggCall::new(a(9), AggKind::Sum, Expr::attr(a(0)));
        assert!(call.eval_group(r.schema(), &group_of(&r)).is_null());
    }

    #[test]
    fn counts() {
        let r = Relation::from_ints(vec![a(0)], &[&[Some(1)], &[None], &[Some(1)]]);
        let star = AggCall::count_star(a(9));
        let cnt = AggCall::new(a(9), AggKind::Count, Expr::attr(a(0)));
        let cd = AggCall::new(a(9), AggKind::CountDistinct, Expr::attr(a(0)));
        let g = group_of(&r);
        assert_eq!(Value::Int(3), star.eval_group(r.schema(), &g));
        assert_eq!(Value::Int(2), cnt.eval_group(r.schema(), &g));
        assert_eq!(Value::Int(1), cd.eval_group(r.schema(), &g));
    }

    #[test]
    fn min_max() {
        let r = Relation::from_ints(vec![a(0)], &[&[Some(5)], &[None], &[Some(2)]]);
        let g = group_of(&r);
        let mn = AggCall::new(a(9), AggKind::Min, Expr::attr(a(0)));
        let mx = AggCall::new(a(9), AggKind::Max, Expr::attr(a(0)));
        assert_eq!(Value::Int(2), mn.eval_group(r.schema(), &g));
        assert_eq!(Value::Int(5), mx.eval_group(r.schema(), &g));
    }

    #[test]
    fn avg_and_distinct() {
        let r = Relation::from_ints(vec![a(0)], &[&[Some(1)], &[Some(2)], &[Some(2)], &[None]]);
        let g = group_of(&r);
        let avg = AggCall::new(a(9), AggKind::Avg, Expr::attr(a(0)));
        assert_eq!(
            Value::Int(1)
                .add(&Value::Int(2))
                .add(&Value::Int(2))
                .div(&Value::Int(3)),
            avg.eval_group(r.schema(), &g)
        );
        let sd = AggCall::new(a(9), AggKind::SumDistinct, Expr::attr(a(0)));
        assert_eq!(Value::Int(3), sd.eval_group(r.schema(), &g));
        let ad = AggCall::new(a(9), AggKind::AvgDistinct, Expr::attr(a(0)));
        assert_eq!(
            Value::Int(3).div(&Value::Int(2)),
            ad.eval_group(r.schema(), &g)
        );
    }

    #[test]
    fn null_tuple_defaults() {
        assert_eq!(Value::Int(1), AggCall::count_star(a(9)).eval_null_tuple());
        assert_eq!(
            Value::Int(0),
            AggCall::new(a(9), AggKind::Count, Expr::attr(a(0))).eval_null_tuple()
        );
        assert!(AggCall::new(a(9), AggKind::Sum, Expr::attr(a(0)))
            .eval_null_tuple()
            .is_null());
    }
}
