//! The conflict detector: computes SES/TES and conflict rules for every
//! operator of the initial tree and derives the query hypergraph
//! (components 2 and 3 of the plan generator, §4.1).
//!
//! This follows the CD approach of \[7\]: reordering conflicts are encoded
//! (a) in the hyperedge `(L-TES, R-TES)` handed to the DPhyp enumerator and
//! (b) in conflict rules `A → B` ("if the plan set touches `A` it must
//! contain all of `B`") checked by [`OperatorInfo::applicable`].

use crate::tables::{assoc, l_asscom, r_asscom};
use dpnext_algebra::{AggCall, AttrId, JoinPred};
use dpnext_hypergraph::{Hyperedge, Hypergraph, NodeSet};
use dpnext_query::{OpKind, OpTree, Query};

/// A conflict rule `when → then`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictRule {
    pub when: NodeSet,
    pub then: NodeSet,
}

/// Everything the plan generator needs to know about one operator of the
/// initial tree.
#[derive(Debug, Clone)]
pub struct OperatorInfo {
    pub op: OpKind,
    pub pred: JoinPred,
    pub sel: f64,
    pub gj_aggs: Vec<AggCall>,
    /// Relations of the left / right subtree in the initial tree.
    pub left_rels: NodeSet,
    pub right_rels: NodeSet,
    /// Syntactic eligibility sets per side.
    pub ses_left: NodeSet,
    pub ses_right: NodeSet,
    /// Total eligibility sets per side (`TES ∩ T(left/right)`).
    pub l_tes: NodeSet,
    pub r_tes: NodeSet,
    pub rules: Vec<ConflictRule>,
}

/// How an operator may be applied to a csg-cmp-pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applicability {
    No,
    /// `(s1, s2)` as given (s1 is the operator's left input).
    Normal,
    /// Only with the arguments swapped (commutative operators).
    Swapped,
    /// Both orientations are valid (commutative operators).
    Both,
}

impl OperatorInfo {
    /// The applicability test (Fig. 5, line 5) for the pair `(s1, s2)`.
    pub fn applicable(&self, s1: NodeSet, s2: NodeSet) -> Applicability {
        let s = s1.union(s2);
        for rule in &self.rules {
            if rule.when.intersects(s) && !rule.then.is_subset_of(s) {
                return Applicability::No;
            }
        }
        let normal_split = self.l_tes.is_subset_of(s1) && self.r_tes.is_subset_of(s2);
        let swapped_split = self.l_tes.is_subset_of(s2) && self.r_tes.is_subset_of(s1);
        if self.op.is_commutative() {
            // Commutativity makes the physical orientation free: as long as
            // the TES constraint is satisfiable in either assignment, both
            // (s1 ◦ s2) and (s2 ◦ s1) are valid plans (Fig. 5, lines 6–8).
            if normal_split || swapped_split {
                Applicability::Both
            } else {
                Applicability::No
            }
        } else if normal_split {
            Applicability::Normal
        } else if swapped_split {
            // The operator's left input must be the set containing L-TES:
            // apply it as (s2 ◦ s1).
            Applicability::Swapped
        } else {
            Applicability::No
        }
    }
}

/// The result of conflict detection: per-operator info plus the query
/// hypergraph whose edges are the `(L-TES, R-TES)` hypernodes.
#[derive(Debug, Clone)]
pub struct ConflictedQuery {
    pub ops: Vec<OperatorInfo>,
    pub graph: Hypergraph,
}

/// Run conflict detection on a query's initial operator tree.
pub fn detect(query: &Query) -> ConflictedQuery {
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
                ses_left,
                ses_right,
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

/// Find the operators applicable to a csg-cmp-pair, with orientation, as
/// `(op index, swapped)` entries in a caller-provided scratch buffer: the
/// plan generator calls this once per csg-cmp-pair, so the enumeration hot
/// path must not allocate here. `out` is cleared first.
pub fn applicable_ops_into(
    cq: &ConflictedQuery,
    s1: NodeSet,
    s2: NodeSet,
    out: &mut Vec<(usize, bool)>,
) {
    out.clear();
    for e in cq.graph.connecting_edges(s1, s2) {
        let op = &cq.ops[e.label];
        match op.applicable(s1, s2) {
            Applicability::No => {}
            Applicability::Normal => out.push((e.label, false)),
            Applicability::Swapped => out.push((e.label, true)),
            Applicability::Both => {
                out.push((e.label, false));
                out.push((e.label, true));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
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
            Applicability::Both,
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
            Applicability::No,
            outer.applicable(NodeSet::single(1), NodeSet::single(2)),
        );
        // The full set on the left is fine.
        assert_ne!(
            Applicability::No,
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
            Applicability::Normal,
            top.applicable(NodeSet::single(0), NodeSet::single(1))
        );
        // With the pair given the other way round, the operator must be
        // applied with swapped arguments (it is not commutative).
        assert_eq!(
            Applicability::Swapped,
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
            Applicability::No,
            outer.applicable(NodeSet::single(0), NodeSet::single(2)),
        );
        assert_ne!(
            Applicability::No,
            outer.applicable(NodeSet::from_iter([0, 1]), NodeSet::from_iter([2, 3])),
        );
        // Commutative: both orientations valid on the full sides.
        assert_eq!(
            Applicability::Both,
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
        let mut found = vec![(9, true)];
        applicable_ops_into(&cq, NodeSet::single(0), NodeSet::single(1), &mut found);
        assert_eq!(vec![(0, false), (0, true)], found);
        applicable_ops_into(&cq, NodeSet::single(0), NodeSet::EMPTY, &mut found);
        assert!(found.is_empty());
    }
}
