//! Candidate key sets `κ(e)` and their propagation rules (§2.3).
//!
//! A key set is stored **flat**: one attribute vector holding every key
//! back to back plus one [`Span`] per key. The owned form is [`KeySet`];
//! [`KeysRef`] is the borrowed view every read-only operation runs on, so
//! the same code serves an owned set and a window into somebody else's
//! lanes (the optimizer's memo keeps the keys of all its plans in two
//! shared vectors). Building a derived key set reuses a caller-supplied
//! `KeySet` as the output buffer — no allocation once it has grown.

use dpnext_algebra::AttrId;
use std::ops::Range;

/// A candidate key: a sorted set of attributes.
pub type Key = Vec<AttrId>;

/// A `(start, len)` window into an append-only vector ("lane").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Index of the first element.
    pub start: u32,
    /// Number of elements.
    pub len: u32,
}

impl Span {
    /// The window `[start, start + len)`; panics when it does not fit `u32`.
    #[inline]
    pub fn new(start: usize, len: usize) -> Span {
        // `end` fitting implies both fields fit.
        u32::try_from(start + len).expect("lane overflows u32");
        Span {
            start: start as u32,
            len: len as u32,
        }
    }

    /// The index range this span covers.
    #[inline]
    pub fn range(self) -> Range<usize> {
        self.start as usize..self.end()
    }

    /// One past the last index covered.
    #[inline]
    pub fn end(self) -> usize {
        self.start as usize + self.len as usize
    }

    /// Whether the span covers nothing.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The elements of `lane` this span covers.
    #[inline]
    pub fn of<T>(self, lane: &[T]) -> &[T] {
        &lane[self.range()]
    }
}

fn normalize(mut k: Key) -> Key {
    k.sort_unstable();
    k.dedup();
    k
}

fn is_subset(a: &[AttrId], b: &[AttrId]) -> bool {
    // Both sorted.
    let mut bi = b.iter();
    'outer: for x in a {
        for y in bi.by_ref() {
            if y == x {
                continue 'outer;
            }
            if y > x {
                return false;
            }
        }
        return false;
    }
    true
}

/// The attribute mask of one key: bit `a mod 32` for each attribute `a`.
#[inline]
fn key_mask(key: &[AttrId]) -> u32 {
    key.iter().fold(0, |m, a| m | 1 << (a.0 % 32))
}

/// Whether two [`KeysRef::signature`]s allow `a.implies(b)`. A `false` is
/// a proof that it does not hold; a `true` decides nothing.
#[inline]
pub fn signature_may_imply(a: u32, b: u32) -> bool {
    a & !b == 0
}

/// A borrowed key set: `spans[i]` delimits key `i` inside `attrs`. `Copy`,
/// two slices wide.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeysRef<'a> {
    spans: &'a [Span],
    attrs: &'a [AttrId],
}

impl<'a> KeysRef<'a> {
    /// View the keys `spans` delimit inside `attrs`. Every key must be
    /// sorted and deduplicated and the set minimal — what [`KeySet`]
    /// maintains and what a copy of its keys preserves.
    #[inline]
    pub fn new(spans: &'a [Span], attrs: &'a [AttrId]) -> KeysRef<'a> {
        KeysRef { spans, attrs }
    }

    /// Number of keys.
    #[inline]
    pub fn len(self) -> usize {
        self.spans.len()
    }

    /// No key known.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.spans.is_empty()
    }

    /// The keys, in insertion order.
    #[inline]
    pub fn iter(self) -> impl ExactSizeIterator<Item = &'a [AttrId]> + Clone {
        self.spans.iter().map(move |s| s.of(self.attrs))
    }

    /// Is there a key contained in `attrs`? (`∃k ∈ κ(T), k ⊆ G` — the
    /// test of `NeedsGrouping`, Fig. 7.) `attrs` must be sorted and
    /// deduplicated; the enumeration normalizes a cut's join attributes
    /// and every `G⁺(S)` once and runs this per plan pair.
    pub fn some_key_within_sorted(self, attrs: &[AttrId]) -> bool {
        debug_assert!(
            attrs.windows(2).all(|w| w[0] < w[1]),
            "attrs not normalized"
        );
        self.iter().any(|k| is_subset(k, attrs))
    }

    /// Key-set implication: every key of `other` is implied by (a subset
    /// key in) `self`. Used as the practical weakening of the
    /// `FD⁺(T1) ⊇ FD⁺(T2)` dominance condition (§4.6).
    pub fn implies(self, other: KeysRef<'_>) -> bool {
        other
            .iter()
            .all(|ko| self.iter().any(|ks| is_subset(ks, ko)))
    }

    /// The set's 32-bit implication filter: the AND, over its keys, of
    /// each key's attribute mask (bit `a mod 32` for each attribute `a`);
    /// all-ones for a set with no key. Sound for
    /// [`signature_may_imply`]: if `a.implies(b)`, every key `kb` of `b`
    /// holds a key `ka ⊆ kb` of `a`, so `sig(a) ⊆ mask(ka) ⊆ mask(kb)`,
    /// and ANDing over `kb` gives `sig(a) ⊆ sig(b)`. (The subsumption
    /// signatures of SatELite, Eén & Biere, SAT 2005.)
    #[inline]
    pub fn signature(self) -> u32 {
        self.iter().fold(u32::MAX, |s, k| s & key_mask(k))
    }
}

/// An owned set of candidate keys, kept minimal (no key is a superset of
/// another).
///
/// `κ` is a set of sets; an empty `KeySet` means *no key known* — every
/// rule below degrades gracefully to that.
#[derive(Debug, Clone, Default)]
pub struct KeySet {
    spans: Vec<Span>,
    /// Key attributes back to back. An evicted key leaves its attributes
    /// behind as a hole; [`KeySet::clear`] reclaims them.
    attrs: Vec<AttrId>,
}

impl PartialEq for KeySet {
    fn eq(&self, other: &KeySet) -> bool {
        self.keys().eq(other.keys())
    }
}

impl Eq for KeySet {}

impl KeySet {
    pub fn empty() -> Self {
        KeySet::default()
    }

    pub fn from_keys(keys: impl IntoIterator<Item = Key>) -> Self {
        let mut s = KeySet::empty();
        for k in keys {
            s.insert(k);
        }
        s
    }

    /// Forget every key, keeping the allocation.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.attrs.clear();
    }

    /// Insert a key, maintaining minimality.
    pub fn insert(&mut self, key: Key) {
        self.insert_sorted(&normalize(key));
    }

    /// [`Self::insert`] for a key that is already sorted and deduplicated.
    pub fn insert_sorted(&mut self, key: &[AttrId]) {
        debug_assert!(key.windows(2).all(|w| w[0] < w[1]), "key not normalized");
        let start = self.attrs.len();
        self.attrs.extend_from_slice(key);
        self.admit_tail(start);
    }

    /// Insert `k1 ∪ k2` (both sorted and deduplicated).
    fn insert_union(&mut self, k1: &[AttrId], k2: &[AttrId]) {
        let start = self.attrs.len();
        let (mut i, mut j) = (0, 0);
        while i < k1.len() && j < k2.len() {
            let (x, y) = (k1[i], k2[j]);
            self.attrs.push(x.min(y));
            i += (x <= y) as usize;
            j += (y <= x) as usize;
        }
        self.attrs.extend_from_slice(&k1[i..]);
        self.attrs.extend_from_slice(&k2[j..]);
        self.admit_tail(start);
    }

    /// Make the candidate key `attrs[start..]` a member, or drop it when
    /// an existing key already implies it.
    fn admit_tail(&mut self, start: usize) {
        let (held, candidate) = self.attrs.split_at(start);
        if self.spans.iter().any(|s| is_subset(s.of(held), candidate)) {
            self.attrs.truncate(start);
            return;
        }
        self.spans.retain(|s| !is_subset(candidate, s.of(held)));
        self.spans.push(Span::new(start, candidate.len()));
    }

    /// The borrowed view all read-only operations run on.
    #[inline]
    pub fn as_ref(&self) -> KeysRef<'_> {
        KeysRef::new(&self.spans, &self.attrs)
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The keys, in insertion order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &[AttrId]> + Clone {
        self.as_ref().iter()
    }

    /// [`KeysRef::some_key_within_sorted`] for unnormalized `attrs`.
    pub fn some_key_within(&self, attrs: &[AttrId]) -> bool {
        self.as_ref()
            .some_key_within_sorted(&normalize(attrs.to_vec()))
    }

    /// See [`KeysRef::implies`].
    pub fn implies(&self, other: &KeySet) -> bool {
        self.as_ref().implies(other.as_ref())
    }

    /// Become `κ(e1) ∪ κ(e2)`: every key of either side stays a key
    /// (inner equi-join where both sides' join attributes contain keys).
    pub fn assign_union(&mut self, left: KeysRef<'_>, right: KeysRef<'_>) {
        self.clear();
        for k in left.iter().chain(right.iter()) {
            self.insert_sorted(k);
        }
    }

    /// Become `⋃_{k1,k2} k1 ∪ k2`: pairwise key combination (the general
    /// join rule). Empty if either side has no keys.
    pub fn assign_pairwise(&mut self, left: KeysRef<'_>, right: KeysRef<'_>) {
        self.clear();
        for k1 in left.iter() {
            for k2 in right.iter() {
                self.insert_union(k1, k2);
            }
        }
    }

    /// [`Self::assign_union`] into a new set.
    pub fn union(&self, other: &KeySet) -> KeySet {
        let mut out = KeySet::empty();
        out.assign_union(self.as_ref(), other.as_ref());
        out
    }

    /// [`Self::assign_pairwise`] into a new set.
    pub fn pairwise(&self, other: &KeySet) -> KeySet {
        let mut out = KeySet::empty();
        out.assign_pairwise(self.as_ref(), other.as_ref());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    #[test]
    fn minimality() {
        let mut s = KeySet::empty();
        s.insert(vec![a(0), a(1)]);
        s.insert(vec![a(0)]); // subsumes the first
        assert_eq!(1, s.len());
        assert_eq!(Some(&[a(0)][..]), s.keys().next());
        s.insert(vec![a(0), a(2)]); // already implied
        assert_eq!(1, s.len());
    }

    #[test]
    fn key_within() {
        let s = KeySet::from_keys([vec![a(1), a(2)]]);
        assert!(s.some_key_within(&[a(2), a(1), a(5)]));
        assert!(!s.some_key_within(&[a(1)]));
        assert!(!KeySet::empty().some_key_within(&[a(1)]));
    }

    #[test]
    fn pairwise_combination() {
        let l = KeySet::from_keys([vec![a(0)]]);
        let r = KeySet::from_keys([vec![a(1)], vec![a(2)]]);
        let p = l.pairwise(&r);
        assert_eq!(2, p.len());
        assert!(p.some_key_within(&[a(0), a(1)]));
        assert!(p.some_key_within(&[a(0), a(2)]));
        assert!(l.pairwise(&KeySet::empty()).is_empty());
    }

    #[test]
    fn implication() {
        let strong = KeySet::from_keys([vec![a(0)]]);
        let weak = KeySet::from_keys([vec![a(0), a(1)]]);
        assert!(strong.implies(&weak));
        assert!(!weak.implies(&strong));
        assert!(strong.implies(&KeySet::empty()));
        assert!(KeySet::empty().implies(&KeySet::empty()));
        assert!(!KeySet::empty().implies(&strong));
    }

    #[test]
    fn signature_never_refutes_an_implication() {
        // Attributes 0..96 wrap `mod 32` three times, so unrelated keys
        // share bits. Half the pairs derive `b` from `a` by widening every
        // key of `a` (so `a ⇒ b`) and adding keys of its own; the other
        // half are independent, empty sets included.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        // A key of 0..=3 attributes; one in nine is the empty key (at most
        // one row), which implies every key.
        let mut random_key = move || -> Key {
            let width = next(9).div_ceil(3);
            (0..width).map(|_| a(next(96) as u32)).collect()
        };
        let (mut implied, mut refuted) = (0, 0);
        for round in 0..4_000 {
            let mut key_a = KeySet::empty();
            for _ in 0..round % 5 {
                key_a.insert(random_key());
            }
            let mut key_b = KeySet::empty();
            if round % 2 == 0 {
                for k in key_a.keys() {
                    let mut wider = k.to_vec();
                    wider.extend(random_key());
                    key_b.insert(wider);
                }
            }
            for _ in 0..round % 3 {
                key_b.insert(random_key());
            }
            for (x, y) in [(&key_a, &key_b), (&key_b, &key_a)] {
                let may = signature_may_imply(x.as_ref().signature(), y.as_ref().signature());
                if x.implies(y) {
                    implied += 1;
                    assert!(may, "{x:?} implies {y:?}, but the signatures refute it");
                } else {
                    refuted += !may as u32;
                }
            }
        }
        // Both branches ran often enough to mean something.
        assert!(implied > 1_000 && refuted > 1_000, "{implied} / {refuted}");
        assert_eq!(u32::MAX, KeySet::empty().as_ref().signature());
        assert_eq!(
            1 << 1 | 1 << 3,
            KeySet::from_keys([vec![a(1), a(35)], vec![a(3), a(33)]])
                .as_ref()
                .signature()
        );
    }

    #[test]
    fn union_keeps_both() {
        let l = KeySet::from_keys([vec![a(0)]]);
        let r = KeySet::from_keys([vec![a(1)]]);
        let u = l.union(&r);
        assert!(u.some_key_within(&[a(0)]));
        assert!(u.some_key_within(&[a(1)]));
    }

    #[test]
    fn flat_storage_matches_key_by_key_semantics() {
        // Unsorted, duplicated input is normalized.
        let mut s = KeySet::empty();
        s.insert(vec![a(3), a(1), a(3), a(2)]);
        assert_eq!(vec![&[a(1), a(2), a(3)][..]], s.keys().collect::<Vec<_>>());
        // Evicting a key leaves a hole in the storage, not in the set:
        // equality and iteration see keys only.
        s.insert(vec![a(2)]);
        assert_eq!(KeySet::from_keys([vec![a(2)]]), s);
        // Pairwise combination merges sorted keys without duplicates and
        // keeps the result minimal.
        let l = KeySet::from_keys([vec![a(0), a(2)], vec![a(5)]]);
        let r = KeySet::from_keys([vec![a(2), a(4)], vec![a(5)]]);
        let p = l.pairwise(&r);
        assert_eq!(
            vec![&[a(0), a(2), a(4)][..], &[a(5)][..]],
            p.keys().collect::<Vec<_>>()
        );
        // A borrowed view over foreign storage behaves like the owned set.
        let attrs = [a(9), a(0), a(2), a(4), a(5)];
        let spans = [Span::new(1, 3), Span::new(4, 1)];
        let view = KeysRef::new(&spans, &attrs);
        assert!(view.implies(p.as_ref()) && p.as_ref().implies(view));
        assert!(view.some_key_within_sorted(&[a(1), a(5)]));
        assert!(!view.some_key_within_sorted(&[a(0), a(2)]));
    }
}
