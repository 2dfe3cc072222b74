//! Cardinality estimation and the `C_out` cost function of §4.4: the cost
//! of a plan is the sum of the cardinalities of all intermediate results
//! (scans and final projections are free).
//!
//! The estimates follow the standard textbook model the paper's
//! evaluation relies on: base cardinalities and predicate selectivities
//! are given (randomly generated in §5, derived from key/FK statistics for
//! TPC-H), join output sizes multiply through selectivities, and grouping
//! output sizes are bounded by the product of the grouping attributes'
//! distinct counts.

use dpnext_query::OpKind;

/// Probability that a tuple finds at least one partner on the other side,
/// based on the other side's **distinct join-attribute count** (not its
/// cardinality): duplicates and pre-aggregation on the other side do not
/// change whether a partner exists. Besides being semantically right,
/// this keeps every estimate *monotone in the input cardinalities*, which
/// the optimality proof of the dominance pruning (§4.6) relies on — with
/// a multiplicity-based probability, an antijoin's output would shrink
/// when its right input grows, breaking `|T1| ≤ |T2| ⇒ no worse later`.
#[inline]
fn match_probability(sel: f64, other_distinct: f64) -> f64 {
    if sel <= 0.0 {
        return 0.0; // avoid 0 · ∞ = NaN for unknown distinct counts
    }
    (sel * other_distinct).min(1.0)
}

/// Estimated output cardinality of `left op right` under `sel`.
/// `d_left`/`d_right` are the distinct counts of the join attributes on
/// each side (pass `f64::INFINITY` when unknown — every tuple then finds
/// a partner).
pub(crate) fn join_card(
    op: OpKind,
    lcard: f64,
    rcard: f64,
    sel: f64,
    d_left: f64,
    d_right: f64,
) -> f64 {
    let inner = lcard * rcard * sel;
    match op {
        OpKind::Join => inner,
        OpKind::LeftOuter => {
            let unmatched_l = lcard * (1.0 - match_probability(sel, d_right));
            inner + unmatched_l
        }
        OpKind::FullOuter => {
            let unmatched_l = lcard * (1.0 - match_probability(sel, d_right));
            let unmatched_r = rcard * (1.0 - match_probability(sel, d_left));
            inner + unmatched_l + unmatched_r
        }
        OpKind::Semi => lcard * match_probability(sel, d_right),
        OpKind::Anti => lcard * (1.0 - match_probability(sel, d_right)),
        // One output tuple per left tuple, by definition.
        OpKind::GroupJoin => lcard,
    }
}

/// Estimated number of groups of `Γ_G(e)`: the product of the grouping
/// attributes' distinct counts, capped by the input cardinality.
/// `distincts` are the per-attribute counts already capped by their own
/// relations; they are folded as they arrive, so callers pass the mapping
/// iterator itself instead of collecting it.
pub(crate) fn grouping_card(input_card: f64, distincts: impl IntoIterator<Item = f64>) -> f64 {
    let mut distincts = distincts.into_iter().peekable();
    if distincts.peek().is_none() {
        // Γ_∅ produces a single (global) group for non-empty input.
        return input_card.min(1.0);
    }
    let mut groups = 1.0f64;
    for d in distincts {
        groups *= d.max(1.0);
        if groups >= input_card {
            return input_card;
        }
    }
    groups.min(input_card)
}

/// Distinct count of an attribute within an intermediate result of
/// cardinality `card`: cannot exceed either the base distinct count or the
/// result size.
#[inline]
pub(crate) fn distinct_in(base_distinct: f64, card: f64) -> f64 {
    base_distinct.min(card).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: f64 = f64::INFINITY;

    #[test]
    fn inner_join_multiplies() {
        assert_eq!(50.0, join_card(OpKind::Join, 10.0, 100.0, 0.05, D, D));
    }

    #[test]
    fn left_outer_at_least_left() {
        // With tiny distinct counts nearly every left tuple is unmatched.
        let c = join_card(OpKind::LeftOuter, 100.0, 10.0, 0.0001, D, 10.0);
        assert!(c >= 100.0 * 0.99, "c = {c}");
        // With guaranteed matches it equals the inner join.
        let c2 = join_card(OpKind::LeftOuter, 100.0, 10.0, 0.5, D, 10.0);
        assert_eq!(join_card(OpKind::Join, 100.0, 10.0, 0.5, D, D), c2);
    }

    #[test]
    fn full_outer_adds_both_sides() {
        let c = join_card(OpKind::FullOuter, 100.0, 200.0, 0.0, D, D);
        assert_eq!(300.0, c);
    }

    /// Why the mirror rule of `Search::feed` is for inner joins alone: the
    /// mirror of a full outer join sums its two unmatched terms in the
    /// other order, and the rounded sums can differ. An inner join's
    /// product commutes bit for bit.
    #[test]
    fn full_outer_mirror_sums_in_another_order() {
        let card = |op, (l, r), (dl, dr)| join_card(op, l, r, 0.01, dl, dr);
        let (sizes, distincts) = ((3.0, 5.0), (10.0, 7.0));
        let mirror = |(a, b)| (b, a);
        assert_eq!(
            7.4399999999999995,
            card(OpKind::FullOuter, sizes, distincts)
        );
        assert_eq!(
            7.44,
            card(OpKind::FullOuter, mirror(sizes), mirror(distincts))
        );
        assert_eq!(
            card(OpKind::Join, sizes, distincts).to_bits(),
            card(OpKind::Join, mirror(sizes), mirror(distincts)).to_bits()
        );
    }

    #[test]
    fn semi_anti_partition_left() {
        let semi = join_card(OpKind::Semi, 100.0, 50.0, 0.01, D, 50.0);
        let anti = join_card(OpKind::Anti, 100.0, 50.0, 0.01, D, 50.0);
        assert!((semi + anti - 100.0).abs() < 1e-9);
    }

    #[test]
    fn groupjoin_preserves_left() {
        assert_eq!(42.0, join_card(OpKind::GroupJoin, 42.0, 1000.0, 0.5, D, D));
    }

    #[test]
    fn estimates_are_monotone_in_input_cards() {
        // The dominance-pruning prerequisite: growing an input never
        // shrinks the estimate (distinct counts held fixed).
        for op in [
            OpKind::Join,
            OpKind::LeftOuter,
            OpKind::FullOuter,
            OpKind::Semi,
            OpKind::Anti,
            OpKind::GroupJoin,
        ] {
            let mut prev = 0.0f64;
            for r in [1.0, 10.0, 100.0, 1000.0] {
                let c = join_card(op, 50.0, r, 0.01, 40.0, 30.0);
                assert!(c + 1e-9 >= prev, "{op:?} not monotone in rcard");
                prev = c;
            }
            let mut prev = 0.0f64;
            for l in [1.0, 10.0, 100.0, 1000.0] {
                let c = join_card(op, l, 50.0, 0.01, 40.0, 30.0);
                assert!(c + 1e-9 >= prev, "{op:?} not monotone in lcard");
                prev = c;
            }
        }
    }

    #[test]
    fn grouping_card_caps() {
        assert_eq!(10.0, grouping_card(1000.0, [10.0]));
        assert_eq!(100.0, grouping_card(1000.0, [10.0, 10.0]));
        assert_eq!(1000.0, grouping_card(1000.0, [100.0, 100.0]));
        assert_eq!(1.0, grouping_card(1000.0, []));
        assert_eq!(0.0, grouping_card(0.0, []));
    }

    #[test]
    fn distinct_capped_by_card() {
        assert_eq!(5.0, distinct_in(100.0, 5.0));
        assert_eq!(7.0, distinct_in(7.0, 100.0));
        assert_eq!(1.0, distinct_in(0.5, 0.2));
    }
}
