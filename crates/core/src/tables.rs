//! Operator reordering property tables: associativity, l-asscom and
//! r-asscom (Moerkotte, Fender & Eich, SIGMOD 2013 — cited as \[7\]).
//!
//! The entries assume **null-rejecting predicates that reference both
//! operands**, which is what every predicate in this system is (attribute
//! comparisons with SQL semantics: a NULL never satisfies the predicate).
//! Under that assumption the footnoted entries of the published table are
//! unconditionally valid, and every remaining `false` is required — the
//! executor-backed property tests in `tests/table_semantics.rs` exercise
//! exactly these entries against real data.
//!
//! The groupjoin rows/columns follow the same derivations: the groupjoin
//! aggregates the empty bag to `count = 0` while NULL-padding yields NULL,
//! so it never reorders across a padding side.

use dpnext_query::OpKind;

fn idx(op: OpKind) -> usize {
    match op {
        OpKind::Join => 0,
        OpKind::Semi => 1,
        OpKind::Anti => 2,
        OpKind::LeftOuter => 3,
        OpKind::FullOuter => 4,
        OpKind::GroupJoin => 5,
    }
}

/// `assoc(◦a, ◦b)`: `(e1 ◦a e2) ◦b e3 ≡ e1 ◦a (e2 ◦b e3)`.
#[rustfmt::skip]
const ASSOC: [[bool; 6]; 6] = [
    // b:   ⋈      ⋉      ▷      ⟕      ⟗      Z
    /*⋈*/ [true,  true,  true,  true,  false, true ],
    /*⋉*/ [false, false, false, false, false, false],
    /*▷*/ [false, false, false, false, false, false],
    /*⟕*/ [false, false, false, true,  false, false],
    /*⟗*/ [false, false, false, true,  true,  false],
    /*Z*/ [false, false, false, false, false, false],
];

/// `l-asscom(◦a, ◦b)`: `(e1 ◦a e2) ◦b e3 ≡ (e1 ◦b e3) ◦a e2`
/// (predicate of `◦b` references `e1` and `e3`).
#[rustfmt::skip]
const L_ASSCOM: [[bool; 6]; 6] = [
    // b:   ⋈      ⋉      ▷      ⟕      ⟗      Z
    /*⋈*/ [true,  true,  true,  true,  false, true ],
    /*⋉*/ [true,  true,  true,  true,  false, true ],
    /*▷*/ [true,  true,  true,  true,  false, true ],
    /*⟕*/ [true,  true,  true,  true,  true,  true ],
    /*⟗*/ [false, false, false, true,  true,  false],
    /*Z*/ [true,  true,  true,  true,  false, true ],
];

/// `r-asscom(◦a, ◦b)`: `e1 ◦a (e2 ◦b e3) ≡ e2 ◦b (e1 ◦a e3)`
/// (predicate of `◦a` references `e1` and `e3`).
#[rustfmt::skip]
const R_ASSCOM: [[bool; 6]; 6] = [
    // b:   ⋈      ⋉      ▷      ⟕      ⟗      Z
    /*⋈*/ [true,  false, false, false, false, false],
    /*⋉*/ [false, false, false, false, false, false],
    /*▷*/ [false, false, false, false, false, false],
    /*⟕*/ [false, false, false, false, false, false],
    /*⟗*/ [false, false, false, false, true,  false],
    /*Z*/ [false, false, false, false, false, false],
];

/// `assoc(a, b)`: may `(e1 a e2) b e3` be rewritten to `e1 a (e2 b e3)`?
pub fn assoc(a: OpKind, b: OpKind) -> bool {
    ASSOC[idx(a)][idx(b)]
}

/// `l-asscom(a, b)`: may the left arguments be exchanged?
pub fn l_asscom(a: OpKind, b: OpKind) -> bool {
    L_ASSCOM[idx(a)][idx(b)]
}

/// `r-asscom(a, b)`: may the right arguments be exchanged?
pub fn r_asscom(a: OpKind, b: OpKind) -> bool {
    R_ASSCOM[idx(a)][idx(b)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use OpKind::*;

    #[test]
    fn inner_join_is_fully_reorderable_with_itself() {
        assert!(assoc(Join, Join));
        assert!(l_asscom(Join, Join));
        assert!(r_asscom(Join, Join));
    }

    #[test]
    fn outerjoin_barriers() {
        // The classic barriers that make naive reordering incorrect.
        assert!(!assoc(Join, FullOuter));
        assert!(!assoc(FullOuter, Join));
        assert!(!assoc(LeftOuter, Join));
        assert!(assoc(LeftOuter, LeftOuter));
        assert!(assoc(FullOuter, FullOuter));
        assert!(assoc(FullOuter, LeftOuter));
        assert!(!assoc(LeftOuter, FullOuter));
    }

    #[test]
    fn l_asscom_symmetry_classes() {
        // l-asscom is symmetric in its arguments for this operator set
        // wherever both entries are defined the same way.
        assert!(l_asscom(LeftOuter, FullOuter));
        assert!(l_asscom(FullOuter, LeftOuter));
        assert!(!l_asscom(Join, FullOuter));
        assert!(!l_asscom(FullOuter, Join));
    }

    #[test]
    fn semijoin_never_associates() {
        for b in [Join, Semi, Anti, LeftOuter, FullOuter, GroupJoin] {
            assert!(!assoc(Semi, b));
            assert!(!assoc(Anti, b));
        }
    }

    #[test]
    fn r_asscom_is_sparse() {
        let ops = [Join, Semi, Anti, LeftOuter, FullOuter, GroupJoin];
        let mut count = 0;
        for a in ops {
            for b in ops {
                if r_asscom(a, b) {
                    count += 1;
                }
            }
        }
        assert_eq!(2, count); // (⋈,⋈) and (⟗,⟗)
    }

    #[test]
    fn groupjoin_blocked_by_padding() {
        assert!(!l_asscom(GroupJoin, FullOuter));
        assert!(!l_asscom(FullOuter, GroupJoin));
        assert!(l_asscom(GroupJoin, LeftOuter));
        assert!(l_asscom(LeftOuter, GroupJoin));
        assert!(assoc(Join, GroupJoin));
        assert!(!assoc(LeftOuter, GroupJoin));
    }
}
