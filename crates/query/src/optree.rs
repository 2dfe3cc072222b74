//! Initial operator trees: the parsed query shape handed to the plan
//! generator (and the canonical, unoptimized execution plan).

use dpnext_algebra::{AggCall, AlgExpr, AttrId, JoinPred};
use dpnext_hypergraph::NodeSet;
use std::fmt;

/// The binary operators a query tree may contain (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Inner join `⋈`.
    Join,
    /// Left outerjoin `⟕`.
    LeftOuter,
    /// Full outerjoin `⟗`.
    FullOuter,
    /// Left semijoin `⋉`.
    Semi,
    /// Left antijoin `▷`.
    Anti,
    /// Left groupjoin `Z` with its own aggregation vector `F̄`.
    GroupJoin,
}

impl OpKind {
    /// Commutative operators may have their arguments swapped (Fig. 5,
    /// line 7).
    pub fn is_commutative(self) -> bool {
        matches!(self, OpKind::Join | OpKind::FullOuter)
    }

    /// Does the operator's result contain the attributes of the right
    /// input? Semijoin, antijoin and groupjoin only preserve the left side.
    pub fn preserves_right(self) -> bool {
        matches!(self, OpKind::Join | OpKind::LeftOuter | OpKind::FullOuter)
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Join => "⋈",
            OpKind::LeftOuter => "⟕",
            OpKind::FullOuter => "⟗",
            OpKind::Semi => "⋉",
            OpKind::Anti => "▷",
            OpKind::GroupJoin => "Z",
        };
        f.write_str(s)
    }
}

/// The initial operator tree. Leaves index into the query's table list.
#[derive(Debug, Clone)]
pub enum OpTree {
    /// A table occurrence (index into [`crate::Query::tables`]).
    Rel(usize),
    Binary {
        op: OpKind,
        /// Join predicate, canonicalized: left terms reference the left
        /// subtree, right terms the right subtree.
        pred: JoinPred,
        /// Estimated selectivity of `pred` (used by cardinality estimation;
        /// the workload generator draws it at random, §5).
        sel: f64,
        /// Aggregation vector of a groupjoin; empty otherwise.
        gj_aggs: Vec<AggCall>,
        left: Box<OpTree>,
        right: Box<OpTree>,
    },
}

impl OpTree {
    pub fn rel(i: usize) -> OpTree {
        OpTree::Rel(i)
    }

    pub fn binary(op: OpKind, pred: JoinPred, left: OpTree, right: OpTree) -> OpTree {
        OpTree::Binary {
            op,
            pred,
            sel: 1.0,
            gj_aggs: Vec::new(),
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    pub fn binary_sel(op: OpKind, pred: JoinPred, sel: f64, left: OpTree, right: OpTree) -> OpTree {
        OpTree::Binary {
            op,
            pred,
            sel,
            gj_aggs: Vec::new(),
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    pub fn groupjoin(pred: JoinPred, aggs: Vec<AggCall>, left: OpTree, right: OpTree) -> OpTree {
        OpTree::Binary {
            op: OpKind::GroupJoin,
            pred,
            sel: 1.0,
            gj_aggs: aggs,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Override the selectivity of the topmost operator.
    pub fn with_sel(mut self, s: f64) -> OpTree {
        if let OpTree::Binary { sel, .. } = &mut self {
            *sel = s;
        }
        self
    }

    /// Set of table occurrences below this node (`T(T)` in Fig. 6).
    pub fn relations(&self) -> NodeSet {
        match self {
            OpTree::Rel(i) => NodeSet::single(*i),
            OpTree::Binary { left, right, .. } => left.relations().union(right.relations()),
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.relations().len()
    }

    /// Number of binary operators.
    pub fn operator_count(&self) -> usize {
        match self {
            OpTree::Rel(_) => 0,
            OpTree::Binary { left, right, .. } => {
                1 + left.operator_count() + right.operator_count()
            }
        }
    }

    /// Visit every binary operator bottom-up.
    pub fn visit_ops<'a>(&'a self, f: &mut impl FnMut(&'a OpTree)) {
        if let OpTree::Binary { left, right, .. } = self {
            left.visit_ops(f);
            right.visit_ops(f);
            f(self);
        }
    }

    /// Compile this tree verbatim into an executable algebra expression,
    /// resolving leaves through `scan_name`.
    pub fn to_alg(&self, scan_name: &impl Fn(usize) -> String) -> AlgExpr {
        match self {
            OpTree::Rel(i) => AlgExpr::scan(scan_name(*i)),
            OpTree::Binary {
                op,
                pred,
                gj_aggs,
                left,
                right,
                ..
            } => {
                let l = Box::new(left.to_alg(scan_name));
                let r = Box::new(right.to_alg(scan_name));
                let pred = pred.clone();
                match op {
                    OpKind::Join => AlgExpr::InnerJoin {
                        left: l,
                        right: r,
                        pred,
                    },
                    OpKind::LeftOuter => AlgExpr::LeftOuterJoin {
                        left: l,
                        right: r,
                        pred,
                        defaults: vec![],
                    },
                    OpKind::FullOuter => AlgExpr::FullOuterJoin {
                        left: l,
                        right: r,
                        pred,
                        d1: vec![],
                        d2: vec![],
                    },
                    OpKind::Semi => AlgExpr::SemiJoin {
                        left: l,
                        right: r,
                        pred,
                    },
                    OpKind::Anti => AlgExpr::AntiJoin {
                        left: l,
                        right: r,
                        pred,
                    },
                    OpKind::GroupJoin => AlgExpr::GroupJoin {
                        left: l,
                        right: r,
                        pred,
                        aggs: gj_aggs.clone(),
                        empty_defaults: vec![],
                    },
                }
            }
        }
    }

    /// All attributes made visible by this subtree, given per-table
    /// attribute lists (right sides of ⋉/▷ vanish, groupjoins add their
    /// aggregate outputs).
    pub fn visible_attrs(&self, table_attrs: &impl Fn(usize) -> Vec<AttrId>) -> Vec<AttrId> {
        match self {
            OpTree::Rel(i) => table_attrs(*i),
            OpTree::Binary {
                op,
                gj_aggs,
                left,
                right,
                ..
            } => {
                let mut out = left.visible_attrs(table_attrs);
                match op {
                    OpKind::Semi | OpKind::Anti => {}
                    OpKind::GroupJoin => out.extend(gj_aggs.iter().map(|a| a.out)),
                    _ => out.extend(right.visible_attrs(table_attrs)),
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_properties() {
        assert!(OpKind::Join.is_commutative());
        assert!(OpKind::FullOuter.is_commutative());
        assert!(!OpKind::LeftOuter.is_commutative());
        assert!(!OpKind::Semi.preserves_right());
    }

    #[test]
    fn relations_and_counts() {
        let t = OpTree::binary(
            OpKind::Join,
            JoinPred::eq(AttrId(0), AttrId(1)),
            OpTree::rel(0),
            OpTree::binary(
                OpKind::LeftOuter,
                JoinPred::eq(AttrId(1), AttrId(2)),
                OpTree::rel(1),
                OpTree::rel(2),
            ),
        );
        assert_eq!(3, t.leaf_count());
        assert_eq!(2, t.operator_count());
        assert_eq!(NodeSet::full(3), t.relations());
    }

    #[test]
    fn visit_is_bottom_up() {
        let t = OpTree::binary(
            OpKind::Join,
            JoinPred::eq(AttrId(0), AttrId(1)),
            OpTree::binary(
                OpKind::Semi,
                JoinPred::eq(AttrId(0), AttrId(2)),
                OpTree::rel(0),
                OpTree::rel(2),
            ),
            OpTree::rel(1),
        );
        let mut ops = vec![];
        t.visit_ops(&mut |n| {
            if let OpTree::Binary { op, .. } = n {
                ops.push(*op);
            }
        });
        assert_eq!(vec![OpKind::Semi, OpKind::Join], ops);
    }

    #[test]
    fn visible_attrs_drops_semijoin_right() {
        let attrs = |i: usize| vec![AttrId(i as u32)];
        let t = OpTree::binary(
            OpKind::Semi,
            JoinPred::eq(AttrId(0), AttrId(1)),
            OpTree::rel(0),
            OpTree::rel(1),
        );
        assert_eq!(vec![AttrId(0)], t.visible_attrs(&attrs));
    }
}
