//! Semantic validation of the reordering property tables: every entry
//! marked `true` in `assoc` / `l-asscom` / `r-asscom` is an *equivalence
//! claim* — here each claimed-true entry is checked on random relations by
//! executing both sides. (False entries are conservative: they only shrink
//! the search space, so they need no semantic proof.)
//!
//! Relations: `e1(a1, j1, h1)`, `e2(a2, j2, k2)`, `e3(a3, j3)`.
//! Predicates: `p_a : j1 = j2` (e1–e2), `p_bc : k2 = j3` (e2–e3),
//! `p_bl : h1 = j3` (e1–e3). All are null rejecting, matching the
//! side conditions under which the table entries hold.

use dpnext_algebra::ops::{
    anti_join, full_outer_join, groupjoin, inner_join, left_outer_join, semi_join,
};
use dpnext_algebra::{AggCall, AttrId, JoinPred, Relation, Value};
use dpnext_core::{assoc, l_asscom, r_asscom};
use dpnext_query::OpKind;
use proptest::prelude::*;

const A1: AttrId = AttrId(0);
const J1: AttrId = AttrId(1);
const H1: AttrId = AttrId(2);
const A2: AttrId = AttrId(10);
const J2: AttrId = AttrId(11);
const K2: AttrId = AttrId(12);
const A3: AttrId = AttrId(20);
const J3: AttrId = AttrId(21);
/// Groupjoin output attributes (distinct per operator position).
const GJ_A: AttrId = AttrId(30);
const GJ_B: AttrId = AttrId(31);

fn small_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0i64..3).prop_map(Value::Int),
        1 => Just(Value::Null),
    ]
}

fn rel(attrs: [AttrId; 3], max_rows: usize) -> impl Strategy<Value = Relation> {
    proptest::collection::vec([small_value(), small_value(), small_value()], 0..=max_rows).prop_map(
        move |rows| {
            Relation::from_rows(
                attrs.to_vec(),
                rows.into_iter().map(|r| r.to_vec()).collect(),
            )
        },
    )
}

/// Apply `op` with the given predicate; groupjoins count their partners
/// into `gj_out`.
fn apply(op: OpKind, l: &Relation, r: &Relation, pred: &JoinPred, gj_out: AttrId) -> Relation {
    match op {
        OpKind::Join => inner_join(l, r, pred),
        OpKind::Semi => semi_join(l, r, pred),
        OpKind::Anti => anti_join(l, r, pred),
        OpKind::LeftOuter => left_outer_join(l, r, pred, &vec![]),
        OpKind::FullOuter => full_outer_join(l, r, pred, &vec![], &vec![]),
        OpKind::GroupJoin => groupjoin(l, r, pred, &[AggCall::count_star(gj_out)]),
    }
}

const OPS: [OpKind; 6] = [
    OpKind::Join,
    OpKind::Semi,
    OpKind::Anti,
    OpKind::LeftOuter,
    OpKind::FullOuter,
    OpKind::GroupJoin,
];

/// The right input of `◦b` in the assoc shape `e1 ◦a (e2 ◦b e3)` must
/// still expose `e2`'s attributes for `p_a`; ops that drop or replace the
/// right side keep `e2` because it is their *left* input there.
fn assoc_sides_executable(a: OpKind, b: OpKind) -> bool {
    // On the LHS (e1 ◦a e2) ◦b e3, p_bc references k2: ◦a must preserve
    // its right input's attributes.
    let _ = b;
    a.preserves_right()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `assoc(a, b) = true` entry holds:
    /// `(e1 a e2) b e3 ≡ e1 a (e2 b e3)`.
    #[test]
    fn assoc_true_entries_hold(r1 in rel([A1, J1, H1], 5),
                               r2 in rel([A2, J2, K2], 5),
                               r3 in rel([A3, J3, A3.offset()], 5)) {
        let pa = JoinPred::eq(J1, J2);
        let pb = JoinPred::eq(K2, J3);
        for a in OPS {
            for b in OPS {
                if !assoc(a, b) {
                    continue;
                }
                prop_assert!(
                    assoc_sides_executable(a, b),
                    "assoc({a:?},{b:?}) = true but the shape is not executable"
                );
                let lhs = apply(b, &apply(a, &r1, &r2, &pa, GJ_A), &r3, &pb, GJ_B);
                let rhs = apply(a, &r1, &apply(b, &r2, &r3, &pb, GJ_B), &pa, GJ_A);
                prop_assert!(
                    lhs.bag_eq(&rhs),
                    "assoc({a:?},{b:?}) violated:\nlhs:\n{lhs}\nrhs:\n{rhs}"
                );
            }
        }
    }

    /// Every `l-asscom(a, b) = true` entry holds:
    /// `(e1 a e2) b e3 ≡ (e1 b e3) a e2`.
    #[test]
    fn l_asscom_true_entries_hold(r1 in rel([A1, J1, H1], 5),
                                  r2 in rel([A2, J2, K2], 5),
                                  r3 in rel([A3, J3, A3.offset()], 5)) {
        let pa = JoinPred::eq(J1, J2);
        let pb = JoinPred::eq(H1, J3);
        for a in OPS {
            for b in OPS {
                if !l_asscom(a, b) {
                    continue;
                }
                let lhs = apply(b, &apply(a, &r1, &r2, &pa, GJ_A), &r3, &pb, GJ_B);
                let rhs = apply(a, &apply(b, &r1, &r3, &pb, GJ_B), &r2, &pa, GJ_A);
                prop_assert!(
                    lhs.bag_eq(&rhs),
                    "l-asscom({a:?},{b:?}) violated:\nlhs:\n{lhs}\nrhs:\n{rhs}"
                );
            }
        }
    }

    /// Every `r-asscom(a, b) = true` entry holds:
    /// `e1 a (e2 b e3) ≡ e2 b (e1 a e3)`.
    #[test]
    fn r_asscom_true_entries_hold(r1 in rel([A1, J1, H1], 5),
                                  r2 in rel([A2, J2, K2], 5),
                                  r3 in rel([A3, J3, A3.offset()], 5)) {
        let pa = JoinPred::eq(H1, J3);
        let pb = JoinPred::eq(K2, J3);
        for a in OPS {
            for b in OPS {
                if !r_asscom(a, b) {
                    continue;
                }
                let lhs = apply(a, &r1, &apply(b, &r2, &r3, &pb, GJ_B), &pa, GJ_A);
                let rhs = apply(b, &r2, &apply(a, &r1, &r3, &pa, GJ_A), &pb, GJ_B);
                prop_assert!(
                    lhs.bag_eq(&rhs),
                    "r-asscom({a:?},{b:?}) violated:\nlhs:\n{lhs}\nrhs:\n{rhs}"
                );
            }
        }
    }
}

/// Helper trait: one extra distinct attribute for the 3-column builder.
trait Offset {
    fn offset(self) -> AttrId;
}
impl Offset for AttrId {
    fn offset(self) -> AttrId {
        AttrId(self.0 + 5)
    }
}

/// Documented counterexamples for a few *false* entries, pinning that the
/// table is not needlessly conservative there.
#[test]
fn false_entries_have_counterexamples() {
    // assoc(⋈, ⟗) = false: (e1 ⋈ e2) ⟗ e3 keeps unmatched e3 tuples with
    // NULL-padded e1∘e2, while e1 ⋈ (e2 ⟗ e3) drops them through the
    // null-rejecting p_a.
    let r1 = Relation::from_ints(vec![A1, J1, H1], &[&[Some(1), Some(9), Some(0)]]);
    let r2 = Relation::from_ints(vec![A2, J2, K2], &[&[Some(1), Some(9), Some(9)]]);
    let r3 = Relation::from_ints(vec![A3, J3, AttrId(25)], &[&[Some(7), Some(3), Some(0)]]);
    let pa = JoinPred::eq(J1, J2);
    let pb = JoinPred::eq(K2, J3);
    let lhs = full_outer_join(&inner_join(&r1, &r2, &pa), &r3, &pb, &vec![], &vec![]);
    let rhs = inner_join(&r1, &full_outer_join(&r2, &r3, &pb, &vec![], &vec![]), &pa);
    assert!(
        !lhs.bag_eq(&rhs),
        "expected a counterexample for assoc(⋈,⟗)"
    );

    // l-asscom(⋈, ⟗) = false: unmatched e3 tuples survive on the LHS only.
    let pb_l = JoinPred::eq(H1, J3);
    let lhs = full_outer_join(&inner_join(&r1, &r2, &pa), &r3, &pb_l, &vec![], &vec![]);
    let rhs = inner_join(
        &full_outer_join(&r1, &r3, &pb_l, &vec![], &vec![]),
        &r2,
        &pa,
    );
    assert!(
        !lhs.bag_eq(&rhs),
        "expected a counterexample for l-asscom(⋈,⟗)"
    );

    // assoc(⟕, ⋈) = false: the join result of the RHS retains e1 tuples
    // the LHS drops.
    let r2b = Relation::from_ints(vec![A2, J2, K2], &[&[Some(1), Some(4), Some(3)]]);
    let lhs = inner_join(&left_outer_join(&r1, &r2b, &pa, &vec![]), &r3, &pb);
    let rhs = left_outer_join(&r1, &inner_join(&r2b, &r3, &pb), &pa, &vec![]);
    assert!(
        !lhs.bag_eq(&rhs),
        "expected a counterexample for assoc(⟕,⋈)"
    );
}
