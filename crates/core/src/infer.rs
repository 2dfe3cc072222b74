//! Bottom-up key propagation through join operators (§2.3) and the
//! `NeedsGrouping` test (Fig. 7), both on key masks ([`crate::keyset`]):
//! the key sets the dominance pruning of §4.6 compares.

use crate::keyset::{KeySet, KeysRef};
use dpnext_query::OpKind;

/// Where the key set of a join result comes from (§2.3): two of the
/// rules hand an input's `κ` through unchanged, so a caller that stores
/// key sets by reference can share the input's instead of copying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinKeys {
    /// `κ(e1)`: the left input's keys survive as they are.
    Left,
    /// `κ(e2)`: the right input's keys survive as they are.
    Right,
    /// A combination of both sides' keys, written to the output buffer.
    Built,
}

/// Duplicate-freeness of `left op right`: semijoin / antijoin / groupjoin
/// emit each left tuple at most once, every other operator needs both
/// inputs duplicate-free.
#[inline]
pub(crate) fn join_duplicate_free(op: OpKind, left: bool, right: bool) -> bool {
    match op {
        OpKind::Join | OpKind::LeftOuter | OpKind::FullOuter => left && right,
        OpKind::Semi | OpKind::Anti | OpKind::GroupJoin => left,
    }
}

/// `κ` propagation for a binary operator (§2.3.1–§2.3.4), with the key
/// sets borrowed and the predicate pre-digested into two bits: `l_covers`
/// says that the predicate is a non-empty conjunction of equalities and
/// some key of `left` lies within its left attributes, `r_covers` the same
/// of `right` and its right attributes. Only then are the key-preserving
/// fast cases allowed; theta joins always fall back to pairwise
/// combination. The enumeration decides each bit once per plan of a cut's
/// side, not once per plan pair. A combined key set is written to `built`
/// (cleared first, its allocation reused); when an input's keys survive
/// unchanged `built` is not touched and the result names the input.
#[inline]
pub(crate) fn infer_join_keys(
    op: OpKind,
    left: KeysRef<'_>,
    right: KeysRef<'_>,
    l_covers: bool,
    r_covers: bool,
    built: &mut KeySet,
) -> JoinKeys {
    match (op, l_covers, r_covers) {
        // Both join-attribute sets contain keys: all keys survive.
        (OpKind::Join, true, true) => {
            built.assign_union(left, right);
            JoinKeys::Built
        }
        // A1 key, A2 not: every e2 tuple meets at most one e1 tuple.
        (OpKind::Join, true, false) => JoinKeys::Right,
        // If A2 is a key of e2, every e1 tuple appears exactly once.
        (OpKind::Join | OpKind::LeftOuter, _, true) => JoinKeys::Left,
        // The general rule — and the full outerjoin's only one,
        // regardless of the predicate: pairwise combination.
        (OpKind::Join | OpKind::LeftOuter | OpKind::FullOuter, _, _) => {
            built.assign_pairwise(left, right);
            JoinKeys::Built
        }
        // Semijoin / antijoin / groupjoin: the right side disappears and
        // no left tuple is duplicated: κ(e1) (§2.3.4).
        (OpKind::Semi | OpKind::Anti | OpKind::GroupJoin, _, _) => JoinKeys::Left,
    }
}

/// `NeedsGrouping(G, T)` (Fig. 7): grouping on `G` is needed unless some
/// key of `T` is contained in `G` *and* `T` is duplicate-free — then every
/// group holds exactly one tuple (§3.2). `group_attrs` is `G` as a key
/// mask (`G⁺(S)` is one by construction; the context masks the query's `G`
/// once).
#[inline]
pub(crate) fn needs_grouping(group_attrs: &[u64], duplicate_free: bool, keys: KeysRef<'_>) -> bool {
    !(duplicate_free && keys.some_key_within(group_attrs))
}

#[cfg(test)]
mod tests {
    //! Keys one word wide, with attribute `i` as bit `i`.

    use super::*;

    /// The mask of `attrs`.
    fn m(attrs: &[u32]) -> [u64; 1] {
        [attrs.iter().fold(0, |w, a| w | 1 << a)]
    }

    fn keyed(attr: u32) -> KeySet {
        let mut s = KeySet::new(1);
        s.insert(&m(&[attr]));
        s
    }

    /// Whether some key of `s` lies within `attrs`.
    fn within(s: &KeySet, attrs: &[u32]) -> bool {
        s.as_ref().some_key_within(&m(attrs))
    }

    /// `κ(left op right)` on the equality `l = r`.
    fn join(op: OpKind, left: &KeySet, right: &KeySet, (l, r): (u32, u32)) -> KeySet {
        let mut built = KeySet::new(1);
        let (l_covers, r_covers) = (within(left, &[l]), within(right, &[r]));
        let source = infer_join_keys(
            op,
            left.as_ref(),
            right.as_ref(),
            l_covers,
            r_covers,
            &mut built,
        );
        match source {
            JoinKeys::Left => left.clone(),
            JoinKeys::Right => right.clone(),
            JoinKeys::Built => built,
        }
    }

    #[test]
    fn inner_join_both_keys() {
        // Join on key = key: both sides' keys survive.
        let (l, r) = (keyed(0), keyed(1));
        let out = join(OpKind::Join, &l, &r, (0, 1));
        assert!(within(&out, &[0]));
        assert!(within(&out, &[1]));
        assert!(join_duplicate_free(OpKind::Join, true, true));
    }

    #[test]
    fn inner_join_fk_to_pk() {
        // e1.fk = e2.pk (pk key of e2): keys of e1 survive.
        let l = keyed(0); // key a0, join attr a5
        let r = keyed(1);
        let out = join(OpKind::Join, &l, &r, (5, 1));
        assert!(within(&out, &[0]));
        assert!(!within(&out, &[1]));
    }

    #[test]
    fn inner_join_general_pairwise() {
        let (l, r) = (keyed(0), keyed(1));
        // Join on non-key attributes.
        let out = join(OpKind::Join, &l, &r, (5, 6));
        assert!(!within(&out, &[0]));
        assert!(within(&out, &[0, 1]));
    }

    #[test]
    fn left_outer_key_on_right() {
        let (l, r) = (keyed(0), keyed(1));
        let out = join(OpKind::LeftOuter, &l, &r, (5, 1));
        assert!(within(&out, &[0]));
    }

    #[test]
    fn full_outer_always_pairwise() {
        let (l, r) = (keyed(0), keyed(1));
        let out = join(OpKind::FullOuter, &l, &r, (0, 1));
        assert!(!within(&out, &[0]));
        assert!(within(&out, &[0, 1]));
    }

    #[test]
    fn semijoin_keeps_left_keys() {
        // The right side is unknown: no keys, not duplicate-free.
        let (l, r) = (keyed(0), KeySet::new(1));
        for op in [OpKind::Semi, OpKind::Anti, OpKind::GroupJoin] {
            let out = join(op, &l, &r, (0, 1));
            assert!(within(&out, &[0]), "{op:?}");
            assert!(join_duplicate_free(op, true, false), "{op:?}");
        }
    }

    #[test]
    fn unknown_keys_stay_unknown() {
        let (l, r) = (KeySet::new(1), keyed(1));
        let out = join(OpKind::Join, &l, &r, (0, 1));
        // r covers its key, so left keys (empty) survive → still empty.
        assert_eq!(KeySet::new(1), out);
        assert!(!join_duplicate_free(OpKind::Join, false, true));
    }

    #[test]
    fn needs_grouping_tests() {
        // After `Γ_{a0,a1}`: the grouping attributes form a key, no duplicates.
        let mut keys = KeySet::new(1);
        keys.insert(&m(&[0, 1]));
        // G contains the key {a0,a1}: no grouping needed.
        assert!(!needs_grouping(&m(&[0, 1, 2]), true, keys.as_ref()));
        // G misses part of the key.
        assert!(needs_grouping(&m(&[0]), true, keys.as_ref()));
        // Duplicates possible: grouping needed even if key within G.
        assert!(needs_grouping(&m(&[0]), false, keyed(0).as_ref()));
    }
}
