//! Scalar expressions and predicates.

use crate::schema::{AttrId, Schema, Tuple};
use crate::value::Value;
use std::fmt;

/// A scalar expression evaluated against a single tuple.
///
/// The language is intentionally small: it is exactly what the aggregation
/// rewrites of the paper need (`F ⊗ c` introduces products with count
/// columns, `count(e)` becomes `sum(e = NULL ? 0 : c)`, `avg` becomes a
/// division of two partials).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Attr(AttrId),
    Const(Value),
    Mul(Box<Expr>, Box<Expr>),
    Add(Box<Expr>, Box<Expr>),
    Div(Box<Expr>, Box<Expr>),
    /// `IfNull(a, then, else)`: evaluates `then` when attribute `a` is NULL,
    /// `else` otherwise (SQL `CASE WHEN a IS NULL THEN .. ELSE .. END`).
    IfNull(AttrId, Box<Expr>, Box<Expr>),
}

// The fluent constructors deliberately mirror the paper's arithmetic; they
// build expression trees rather than evaluating, so the std ops traits
// (which would require ownership juggling at every call site) are not a
// better fit.
#[allow(clippy::should_implement_trait)]
impl Expr {
    pub fn attr(a: AttrId) -> Expr {
        Expr::Attr(a)
    }

    pub fn int(v: i64) -> Expr {
        Expr::Const(Value::Int(v))
    }

    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }

    /// Evaluate against a tuple described by `schema`.
    pub fn eval(&self, schema: &Schema, tuple: &Tuple) -> Value {
        match self {
            Expr::Attr(a) => tuple[schema.pos_of(*a)].clone(),
            Expr::Const(v) => v.clone(),
            Expr::Mul(l, r) => l.eval(schema, tuple).mul(&r.eval(schema, tuple)),
            Expr::Add(l, r) => l.eval(schema, tuple).add(&r.eval(schema, tuple)),
            Expr::Div(l, r) => l.eval(schema, tuple).div(&r.eval(schema, tuple)),
            Expr::IfNull(a, then, els) => {
                if tuple[schema.pos_of(*a)].is_null() {
                    then.eval(schema, tuple)
                } else {
                    els.eval(schema, tuple)
                }
            }
        }
    }

    /// All attributes referenced by this expression (`F(e)` in the paper).
    pub fn referenced(&self, out: &mut Vec<AttrId>) {
        match self {
            Expr::Attr(a) => out.push(*a),
            Expr::Const(_) => {}
            Expr::Mul(l, r) | Expr::Add(l, r) | Expr::Div(l, r) => {
                l.referenced(out);
                r.referenced(out);
            }
            Expr::IfNull(a, t, e) => {
                out.push(*a);
                t.referenced(out);
                e.referenced(out);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Attr(a) => write!(f, "{a}"),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Mul(l, r) => write!(f, "({l}*{r})"),
            Expr::Add(l, r) => write!(f, "({l}+{r})"),
            Expr::Div(l, r) => write!(f, "({l}/{r})"),
            Expr::IfNull(a, t, e) => write!(f, "if_null({a},{t},{e})"),
        }
    }
}

/// Comparison operators for theta predicates (`θ ∈ {=, ≠, ≤, ≥, <, >}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Le,
    Ge,
    Lt,
    Gt,
}

impl CmpOp {
    pub fn test(self, l: &Value, r: &Value) -> bool {
        use std::cmp::Ordering::*;
        match self.and_then_cmp(l, r) {
            None => false,
            Some(ord) => match self {
                CmpOp::Eq => ord == Equal,
                CmpOp::Ne => ord != Equal,
                CmpOp::Le => ord != Greater,
                CmpOp::Ge => ord != Less,
                CmpOp::Lt => ord == Less,
                CmpOp::Gt => ord == Greater,
            },
        }
    }

    fn and_then_cmp(self, l: &Value, r: &Value) -> Option<std::cmp::Ordering> {
        l.sql_cmp(r)
    }

    /// The mirrored operator: `l θ r ⟺ r θ' l`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
        };
        f.write_str(s)
    }
}

/// A conjunctive join predicate over attribute comparisons.
///
/// `left` attributes come from the left input, `right` from the right input.
/// SQL semantics: a comparison involving NULL is unknown, so NULLs never
/// join (the predicates are *null rejecting* on both sides — the side
/// condition required by several reorderings of the conflict detector).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JoinPred {
    pub terms: Vec<(AttrId, CmpOp, AttrId)>,
}

impl JoinPred {
    pub fn eq(l: AttrId, r: AttrId) -> Self {
        JoinPred {
            terms: vec![(l, CmpOp::Eq, r)],
        }
    }

    pub fn and(mut self, l: AttrId, op: CmpOp, r: AttrId) -> Self {
        self.terms.push((l, op, r));
        self
    }

    /// Evaluate on a pair of tuples from the two inputs.
    pub fn matches(
        &self,
        lschema: &Schema,
        ltuple: &Tuple,
        rschema: &Schema,
        rtuple: &Tuple,
    ) -> bool {
        self.terms
            .iter()
            .all(|&(l, op, r)| op.test(&ltuple[lschema.pos_of(l)], &rtuple[rschema.pos_of(r)]))
    }

    /// True when every term is an equality.
    pub fn is_equi(&self) -> bool {
        self.terms.iter().all(|&(_, op, _)| op == CmpOp::Eq)
    }

    /// Attributes referenced from the left / right input.
    pub fn left_attrs(&self) -> Vec<AttrId> {
        self.terms.iter().map(|&(l, _, _)| l).collect()
    }

    pub fn right_attrs(&self) -> Vec<AttrId> {
        self.terms.iter().map(|&(_, _, r)| r).collect()
    }
}

impl fmt::Display for JoinPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (l, op, r)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{l}{op}{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    #[test]
    fn eval_arithmetic() {
        let s = Schema::new(vec![a(0), a(1)]);
        let t: Tuple = vec![Value::Int(3), Value::Int(4)].into_boxed_slice();
        let e = Expr::attr(a(0)).mul(Expr::attr(a(1))).add(Expr::int(1));
        assert_eq!(Value::Int(13), e.eval(&s, &t));
    }

    #[test]
    fn eval_if_null() {
        let s = Schema::new(vec![a(0), a(1)]);
        let t: Tuple = vec![Value::Null, Value::Int(7)].into_boxed_slice();
        let e = Expr::IfNull(a(0), Box::new(Expr::int(0)), Box::new(Expr::attr(a(1))));
        assert_eq!(Value::Int(0), e.eval(&s, &t));
        let t2: Tuple = vec![Value::Int(1), Value::Int(7)].into_boxed_slice();
        assert_eq!(Value::Int(7), e.eval(&s, &t2));
    }

    #[test]
    fn referenced_attrs() {
        let e = Expr::attr(a(2)).mul(Expr::attr(a(5)));
        let mut out = vec![];
        e.referenced(&mut out);
        assert_eq!(vec![a(2), a(5)], out);
    }

    #[test]
    fn cmp_null_is_unknown() {
        assert!(!CmpOp::Eq.test(&Value::Null, &Value::Null));
        assert!(!CmpOp::Ne.test(&Value::Null, &Value::Int(1)));
        assert!(CmpOp::Lt.test(&Value::Int(1), &Value::Int(2)));
        assert!(CmpOp::Ge.test(&Value::Int(2), &Value::Int(2)));
    }

    #[test]
    fn join_pred_matches() {
        let ls = Schema::new(vec![a(0)]);
        let rs = Schema::new(vec![a(1)]);
        let p = JoinPred::eq(a(0), a(1));
        let lt: Tuple = vec![Value::Int(5)].into_boxed_slice();
        let rt: Tuple = vec![Value::Int(5)].into_boxed_slice();
        assert!(p.matches(&ls, &lt, &rs, &rt));
        let rt2: Tuple = vec![Value::Null].into_boxed_slice();
        assert!(!p.matches(&ls, &lt, &rs, &rt2));
    }

    #[test]
    fn join_pred_attr_sides() {
        let p = JoinPred::eq(a(0), a(1)).and(a(2), CmpOp::Lt, a(3));
        assert_eq!(vec![a(0), a(2)], p.left_attrs());
        assert_eq!(vec![a(1), a(3)], p.right_attrs());
        assert!(!p.is_equi());
    }
}
