//! The conflict detector: computes SES/TES and conflict rules for every
//! operator of the initial tree and derives the query hypergraph
//! (components 2 and 3 of the plan generator, §4.1), and runs the
//! `Applicable` test every plan generator asks per csg-cmp-pair.
//!
//! This follows the CD approach of \[7\]: reordering conflicts are encoded
//! (a) in the hyperedge `(L-TES, R-TES)` handed to the DPhyp enumerator and
//! (b) in conflict rules `A → B` ("if the plan set touches `A` it must
//! contain all of `B`") checked by [`OperatorInfo::applicable`].

use crate::tables::{assoc, l_asscom, r_asscom};
use dpnext_algebra::{AggCall, AttrId, JoinPred};
use dpnext_hypergraph::{Hyperedge, Hypergraph, NodeSet};
use dpnext_query::{OpKind, OpTree, Query};

/// A conflict rule `when → then`: a plan set that touches `when` must
/// contain all of `then`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConflictRule {
    pub(crate) when: NodeSet,
    pub(crate) then: NodeSet,
}

/// Everything the plan generator needs to know about one operator of the
/// initial tree.
#[derive(Debug, Clone)]
pub struct OperatorInfo {
    /// The operator.
    pub op: OpKind,
    /// Its join predicate.
    pub(crate) pred: JoinPred,
    /// The predicate's selectivity.
    pub(crate) sel: f64,
    /// A groupjoin's aggregates (empty for every other operator).
    pub(crate) gj_aggs: Vec<AggCall>,
    /// Relations of the left subtree in the initial tree.
    pub(crate) left_rels: NodeSet,
    /// Relations of the right subtree in the initial tree.
    pub(crate) right_rels: NodeSet,
    /// Total eligibility set of the left side (`TES ∩ T(left)`).
    pub(crate) l_tes: NodeSet,
    /// Total eligibility set of the right side (`TES ∩ T(right)`).
    pub(crate) r_tes: NodeSet,
    /// The conflict rules the TES could not absorb.
    pub(crate) rules: Vec<ConflictRule>,
}

impl OperatorInfo {
    /// The applicability test (Fig. 5, line 5) for the pair `(s1, s2)`:
    /// whether the operator applies as `s1 ◦ s2` and as `s2 ◦ s1`. A
    /// commutative operator takes either orientation once its TES fits one
    /// (Fig. 5, lines 6–8); any other one only the orientation whose left
    /// input holds its L-TES.
    fn applicable(&self, s1: NodeSet, s2: NodeSet) -> [bool; 2] {
        let s = s1.union(s2);
        for rule in &self.rules {
            if rule.when.intersects(s) && !rule.then.is_subset_of(s) {
                return [false; 2];
            }
        }
        let normal = self.l_tes.is_subset_of(s1) && self.r_tes.is_subset_of(s2);
        let swapped = self.l_tes.is_subset_of(s2) && self.r_tes.is_subset_of(s1);
        if self.op.is_commutative() {
            [normal || swapped; 2]
        } else {
            [normal, swapped]
        }
    }
}

/// The result of conflict detection: per-operator info plus the query
/// hypergraph whose edges are the `(L-TES, R-TES)` hypernodes.
#[derive(Debug, Clone)]
pub struct ConflictedQuery {
    /// The operators of the initial tree, bottom-up; a hyperedge's label
    /// indexes this list.
    pub ops: Vec<OperatorInfo>,
    /// The query hypergraph, one `(L-TES, R-TES)` edge per operator.
    pub graph: Hypergraph,
}

/// Run conflict detection on a query's initial operator tree.
pub(crate) fn detect(query: &Query) -> ConflictedQuery {
    let origins = query.attr_origins();
    let origin = |a: AttrId| -> NodeSet {
        *origins
            .get(&a)
            .unwrap_or_else(|| panic!("unknown attribute {a}"))
    };

    // Collect operators bottom-up, remembering each subtree's operators.
    let mut ops: Vec<OperatorInfo> = Vec::new();
    // For each tree node (by post-order index) the operator indices below it.
    collect(&query.tree, &origin, &mut ops);

    let mut graph = Hypergraph::new(query.table_count());
    for (i, op) in ops.iter().enumerate() {
        graph.add_edge(Hyperedge::new(op.l_tes, op.r_tes, i));
    }
    ConflictedQuery { ops, graph }
}

/// Recursive walk; returns (relations, operator indices) of the subtree.
fn collect(
    tree: &OpTree,
    origin: &impl Fn(AttrId) -> NodeSet,
    ops: &mut Vec<OperatorInfo>,
) -> (NodeSet, Vec<usize>) {
    match tree {
        OpTree::Rel(i) => (NodeSet::single(*i), Vec::new()),
        OpTree::Binary {
            op,
            pred,
            sel,
            gj_aggs,
            left,
            right,
        } => {
            let (lrels, lops) = collect(left, origin, ops);
            let (rrels, rops) = collect(right, origin, ops);

            // SES: relations syntactically required by the predicate (and,
            // for groupjoins, by the aggregate arguments).
            let mut ses_left = NodeSet::EMPTY;
            for a in pred.left_attrs() {
                ses_left = ses_left.union(origin(a));
            }
            let mut ses_right = NodeSet::EMPTY;
            for a in pred.right_attrs() {
                ses_right = ses_right.union(origin(a));
            }
            for call in gj_aggs {
                for a in call.referenced() {
                    ses_right = ses_right.union(origin(a));
                }
            }
            // Degenerate predicates: anchor each side somewhere so the
            // hyperedge is well-formed.
            if ses_left.is_empty() {
                ses_left = NodeSet::single(lrels.min());
            }
            if ses_right.is_empty() {
                ses_right = NodeSet::single(rrels.min());
            }

            let mut l_tes = ses_left;
            let mut r_tes = ses_right;
            let mut rules: Vec<ConflictRule> = Vec::new();

            // Conflicts with operators in the left subtree (CR-1 / CR-2).
            for &ai in &lops {
                let a = &ops[ai];
                if !assoc(a.op, *op) {
                    rules.push(ConflictRule {
                        when: a.right_rels,
                        then: a.left_rels,
                    });
                }
                if !l_asscom(a.op, *op) {
                    rules.push(ConflictRule {
                        when: a.left_rels,
                        then: a.right_rels,
                    });
                }
            }
            // Conflicts with operators in the right subtree (CR-3 / CR-4).
            for &ai in &rops {
                let a = &ops[ai];
                if !assoc(*op, a.op) {
                    rules.push(ConflictRule {
                        when: a.left_rels,
                        then: a.right_rels,
                    });
                }
                if !r_asscom(*op, a.op) {
                    rules.push(ConflictRule {
                        when: a.right_rels,
                        then: a.left_rels,
                    });
                }
            }

            // Simplify rules that force whole sides into the TES (this is
            // the standard rule-absorption step: a rule whose `when` side
            // already intersects the TES can be folded into it).
            loop {
                let mut changed = false;
                rules.retain(|r| {
                    let tes = l_tes.union(r_tes);
                    if r.when.intersects(tes) && !r.then.is_subset_of(tes) {
                        // Fold: extend the side-TES containing `when`.
                        let extend = r.then;
                        if r.when.intersects(lrels) {
                            l_tes = l_tes.union(extend.intersect(lrels));
                            r_tes = r_tes.union(extend.intersect(rrels));
                        } else {
                            r_tes = r_tes.union(extend.intersect(rrels));
                            l_tes = l_tes.union(extend.intersect(lrels));
                        }
                        changed = true;
                        return false;
                    }
                    !(r.when.intersects(tes) && r.then.is_subset_of(tes))
                });
                if !changed {
                    break;
                }
            }
            // TES sides stay within their subtrees.
            l_tes = l_tes.intersect(lrels);
            r_tes = r_tes.intersect(rrels);

            let info = OperatorInfo {
                op: *op,
                pred: pred.clone(),
                sel: *sel,
                gj_aggs: gj_aggs.clone(),
                left_rels: lrels,
                right_rels: rrels,
                l_tes,
                r_tes,
                rules,
            };
            ops.push(info);
            let mut myops = lops;
            myops.extend(rops);
            myops.push(ops.len() - 1);
            (lrels.union(rrels), myops)
        }
    }
}

/// The operator that joins the csg-cmp-pair `(s1, s2)`, if it applies, and
/// in which of the orientations `(s1, s2)` and `(s2, s1)` it does. The
/// plan generator asks this once per csg-cmp-pair whose sides both have
/// plans.
///
/// Precondition: `s1` and `s2` are disjoint and each is *joinable* — a
/// single relation, or the union of a joinable pair that an edge connects,
/// as is the relation set of every plan. Then at most one edge of the
/// query graph connects them, since the graph holds one edge per operator
/// of the initial tree (ARCHITECTURE.md § "One operator per cut"), and
/// that edge's operator is the only one the pair can apply.
pub fn applicable_op(cq: &ConflictedQuery, s1: NodeSet, s2: NodeSet) -> Option<(usize, [bool; 2])> {
    let mut edges = cq.graph.connecting_edges(s1, s2);
    let op = edges.next()?.label;
    debug_assert!(edges.next().is_none(), "two edges connect {s1} and {s2}");
    let applies = cq.ops[op].applicable(s1, s2);
    applies.contains(&true).then_some((op, applies))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpnext_algebra::AttrId;
    use dpnext_query::QueryTable;

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    fn tables(n: usize) -> Vec<QueryTable> {
        (0..n)
            .map(|i| QueryTable::new(format!("r{i}"), vec![a(i as u32)], 10.0))
            .collect()
    }

    /// r0 ⋈ r1 ⋈ r2 — all inner: everything freely reorderable.
    #[test]
    fn inner_chain_has_no_conflicts() {
        let tree = OpTree::binary(
            OpKind::Join,
            JoinPred::eq(a(1), a(2)),
            OpTree::binary(
                OpKind::Join,
                JoinPred::eq(a(0), a(1)),
                OpTree::rel(0),
                OpTree::rel(1),
            ),
            OpTree::rel(2),
        );
        let q = Query::new(tables(3), tree, None);
        let cq = detect(&q);
        assert_eq!(2, cq.ops.len());
        assert!(cq.ops.iter().all(|o| o.rules.is_empty()));
        assert!(cq
            .ops
            .iter()
            .all(|o| o.l_tes.len() == 1 && o.r_tes.len() == 1));
        // All three "bushy" combinations of the top join are reachable.
        let top = &cq.ops[1];
        assert_eq!(
            [true, true],
            top.applicable(NodeSet::single(1), NodeSet::single(2))
        );
    }

    /// (r0 ⋈ r1) ⟗ r2: the inner join must not be pulled above the full
    /// outerjoin (assoc(⋈, ⟗) = false ⇒ rule).
    #[test]
    fn full_outer_blocks_join_pullup() {
        let tree = OpTree::binary(
            OpKind::FullOuter,
            JoinPred::eq(a(1), a(2)),
            OpTree::binary(
                OpKind::Join,
                JoinPred::eq(a(0), a(1)),
                OpTree::rel(0),
                OpTree::rel(1),
            ),
            OpTree::rel(2),
        );
        let q = Query::new(tables(3), tree, None);
        let cq = detect(&q);
        let outer = cq.ops.iter().find(|o| o.op == OpKind::FullOuter).unwrap();
        // Applying ⟗ on ({1}, {2}) would leave r0 to be joined above: must
        // be rejected.
        assert_eq!(
            [false, false],
            outer.applicable(NodeSet::single(1), NodeSet::single(2)),
        );
        // The full set on the left is fine.
        assert_ne!(
            [false, false],
            outer.applicable(NodeSet::from_iter([0, 1]), NodeSet::single(2)),
        );
    }

    /// r0 ⟕ (r1 ⟕ r2) — left outerjoins are associative; both plans valid.
    #[test]
    fn left_outer_chain_associative() {
        let tree = OpTree::binary(
            OpKind::LeftOuter,
            JoinPred::eq(a(0), a(1)),
            OpTree::rel(0),
            OpTree::binary(
                OpKind::LeftOuter,
                JoinPred::eq(a(1), a(2)),
                OpTree::rel(1),
                OpTree::rel(2),
            ),
        );
        let q = Query::new(tables(3), tree, None);
        let cq = detect(&q);
        let top = cq.ops.iter().find(|o| o.right_rels.len() == 2).unwrap();
        // ({0}, {1}): applying the top ⟕ early — allowed by assoc(⟕,⟕).
        assert_eq!(
            [true, false],
            top.applicable(NodeSet::single(0), NodeSet::single(1))
        );
        // With the pair given the other way round, the operator must be
        // applied with swapped arguments (it is not commutative).
        assert_eq!(
            [false, true],
            top.applicable(NodeSet::single(1), NodeSet::single(0))
        );
    }

    /// The introductory query shape: (n_s ⋈ s) ⟗ (n_c ⋈ c).
    #[test]
    fn intro_query_edges() {
        // tables: 0 = ns, 1 = s, 2 = nc, 3 = c
        let tree = OpTree::binary(
            OpKind::FullOuter,
            JoinPred::eq(a(0), a(2)),
            OpTree::binary(
                OpKind::Join,
                JoinPred::eq(a(0), a(1)),
                OpTree::rel(0),
                OpTree::rel(1),
            ),
            OpTree::binary(
                OpKind::Join,
                JoinPred::eq(a(2), a(3)),
                OpTree::rel(2),
                OpTree::rel(3),
            ),
        );
        let q = Query::new(tables(4), tree, None);
        let cq = detect(&q);
        assert_eq!(3, cq.ops.len());
        let outer = cq.ops.iter().find(|o| o.op == OpKind::FullOuter).unwrap();
        // The inner joins must complete before the outer join on each side.
        assert_eq!(
            [false, false],
            outer.applicable(NodeSet::single(0), NodeSet::single(2)),
        );
        assert_ne!(
            [false, false],
            outer.applicable(NodeSet::from_iter([0, 1]), NodeSet::from_iter([2, 3])),
        );
        // Commutative: both orientations valid on the full sides.
        assert_eq!(
            [true, true],
            outer.applicable(NodeSet::from_iter([0, 1]), NodeSet::from_iter([2, 3])),
        );
    }

    #[test]
    fn applicable_ops_helper() {
        let tree = OpTree::binary(
            OpKind::Join,
            JoinPred::eq(a(0), a(1)),
            OpTree::rel(0),
            OpTree::rel(1),
        );
        let q = Query::new(tables(2), tree, None);
        let cq = detect(&q);
        let (r0, r1) = (NodeSet::single(0), NodeSet::single(1));
        assert_eq!(Some((0, [true, true])), applicable_op(&cq, r0, r1));
        assert_eq!(None, applicable_op(&cq, r0, NodeSet::EMPTY));
    }
}
