//! Candidate key sets `κ(e)` and their propagation rules (§2.3).
//!
//! A key is a **bit mask** of `W` words ([`crate::OptContext::key_width`])
//! over the query's key attributes — its tables' declared key attributes
//! and every attribute `G⁺(S)` can hold, numbered in ascending id order by
//! [`crate::OptContext::new`] — so `k ⊆ G` is `k & !G == 0` word by word.
//! Every key is built from declared keys and `G⁺(S)`s, so an attribute
//! outside the numbering is in no key, and a mask tested against keys (a
//! cut's join attributes, `G`) leaves it out without changing an answer.
//!
//! A key set is stored **flat**, its keys back to back in insertion order:
//! [`KeySet`] owns one, [`KeysRef`] borrows one (an owned set or a window
//! into the memo's key lane) for every read-only operation. A derived key
//! set is built into a caller-supplied `KeySet`, reusing its allocation.

/// Is the key `a` within the mask `b`? Both are one key wide.
#[inline]
fn is_within(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

/// One key folded to 32 bits: bit `i mod 32` for each key attribute `i`,
/// the OR of every word's two halves. Monotone: `a ⊆ b` gives
/// `fold(a) ⊆ fold(b)`.
#[inline]
fn fold(key: &[u64]) -> u32 {
    key.iter().fold(0, |m, &w| m | w as u32 | (w >> 32) as u32)
}

/// The positions of the set bits of `mask`, ascending.
pub(crate) fn bits(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(i, &word)| {
        let mut w = word;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                i * 64 + b
            })
        })
    })
}

/// A borrowed key set: its keys, `width` words each, back to back. `Copy`.
#[derive(Debug, Clone, Copy)]
pub struct KeysRef<'a> {
    pub(crate) width: usize,
    pub(crate) words: &'a [u64],
}

impl<'a> KeysRef<'a> {
    /// View the keys of `width` words each in `words`. The set must be
    /// minimal — what [`KeySet`] maintains and what a copy of its words
    /// preserves.
    #[inline]
    pub(crate) fn new(width: usize, words: &'a [u64]) -> KeysRef<'a> {
        debug_assert!(words.len().is_multiple_of(width), "not whole keys");
        KeysRef { width, words }
    }

    /// Number of keys.
    #[inline]
    pub fn len(self) -> usize {
        self.words.len() / self.width
    }

    /// No key known.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.words.is_empty()
    }

    /// The keys as masks, in insertion order; decode one with
    /// [`crate::OptContext::decode_key`].
    #[inline]
    pub fn iter(self) -> impl ExactSizeIterator<Item = &'a [u64]> + Clone {
        self.words.chunks_exact(self.width)
    }

    /// Is there a key contained in the mask `attrs`? (`∃k ∈ κ(T), k ⊆ G` —
    /// the test of `NeedsGrouping`, Fig. 7.) The enumeration masks a cut's
    /// join attributes and every `G⁺(S)` once and runs this per plan.
    #[inline]
    pub(crate) fn some_key_within(self, attrs: &[u64]) -> bool {
        self.iter().any(|k| is_within(k, attrs))
    }

    /// Key-set implication: every key of `other` is implied by (a subset
    /// key in) `self`. Used as the practical weakening of the
    /// `FD⁺(T1) ⊇ FD⁺(T2)` dominance condition (§4.6).
    pub(crate) fn implies(self, other: KeysRef<'_>) -> bool {
        other
            .iter()
            .all(|ko| self.iter().any(|ks| is_within(ks, ko)))
    }

    /// The set's 32-bit implication filter: the AND, over its keys, of each
    /// key's 32-bit fold (bit `i mod 32` for each key attribute `i`);
    /// all-ones for a set with no key. A bit of `sig(a)` missing from
    /// `sig(b)` proves that `a.implies(b)` fails: if it holds, every key
    /// `kb` of `b` holds a key `ka ⊆ kb` of `a`, so
    /// `sig(a) ⊆ fold(ka) ⊆ fold(kb)` because the fold is monotone, and
    /// ANDing over `kb` gives `sig(a) ⊆ sig(b)`. (The subsumption
    /// signatures of SatELite, Eén & Biere, SAT 2005.)
    #[inline]
    pub fn signature(self) -> u32 {
        self.iter().fold(u32::MAX, |s, k| s & fold(k))
    }
}

/// An owned set of candidate keys, kept minimal (no key is a superset of
/// another).
///
/// `κ` is a set of sets; an empty `KeySet` means *no key known* — every
/// rule below degrades gracefully to that.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct KeySet {
    width: usize,
    /// The keys' words back to back, with no hole: evicting a key moves the
    /// later ones down.
    words: Vec<u64>,
}

impl KeySet {
    /// The set with no key known, over keys of `width` words.
    pub fn new(width: usize) -> Self {
        KeySet {
            width,
            words: Vec::new(),
        }
    }

    /// Forget every key, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Insert a key, maintaining minimality.
    pub fn insert(&mut self, key: &[u64]) {
        debug_assert_eq!(self.width, key.len(), "key of the wrong width");
        let start = self.words.len();
        self.words.extend_from_slice(key);
        self.admit_tail(start);
    }

    /// Make the candidate key `words[start..]` a member, or drop it when an
    /// existing key already implies it. The keys it implies go, and the
    /// rest keep their order.
    fn admit_tail(&mut self, start: usize) {
        let w = self.width;
        let (held, candidate) = self.words.split_at(start);
        if held.chunks_exact(w).any(|k| is_within(k, candidate)) {
            self.words.truncate(start);
            return;
        }
        // Every held key that stays moves down over the evicted ones, and
        // the candidate last; a key is only ever written at or below
        // where it was, so the candidate stays intact until it moves.
        let mut kept = 0;
        for at in (0..=start).step_by(w) {
            let (held, candidate) = self.words.split_at(start);
            if at == start || !is_within(candidate, &held[at..at + w]) {
                if kept != at {
                    self.words.copy_within(at..at + w, kept);
                }
                kept += w;
            }
        }
        self.words.truncate(kept);
    }

    /// The borrowed view all read-only operations run on.
    #[inline]
    pub fn as_ref(&self) -> KeysRef<'_> {
        KeysRef::new(self.width, &self.words)
    }

    /// Become `κ(e1) ∪ κ(e2)`: every key of either side stays a key
    /// (inner equi-join where both sides' join attributes contain keys).
    pub fn assign_union(&mut self, left: KeysRef<'_>, right: KeysRef<'_>) {
        self.width = left.width;
        self.clear();
        for k in left.iter().chain(right.iter()) {
            self.insert(k);
        }
    }

    /// Become `⋃_{k1,k2} k1 ∪ k2`: pairwise key combination (the general
    /// join rule). Empty if either side has no keys.
    pub fn assign_pairwise(&mut self, left: KeysRef<'_>, right: KeysRef<'_>) {
        self.width = left.width;
        self.clear();
        for k1 in left.iter() {
            for k2 in right.iter() {
                let start = self.words.len();
                self.words.extend(k1.iter().zip(k2).map(|(x, y)| x | y));
                self.admit_tail(start);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The mask operations against a reference that keeps a key as a
    //! sorted, deduplicated `Vec` of attribute numbers and tests subsets
    //! by merging, at one, two and three words per key.

    use super::*;

    /// A reference key: sorted, deduplicated attribute numbers.
    type RefKey = Vec<usize>;

    fn ref_within(a: &[usize], b: &[usize]) -> bool {
        let mut bi = b.iter();
        a.iter().all(|x| bi.by_ref().any(|y| y == x))
    }

    /// The reference insert: drop a key an existing one implies, else evict
    /// the keys it implies and append it.
    fn ref_insert(set: &mut Vec<RefKey>, key: RefKey) {
        if set.iter().any(|k| ref_within(k, &key)) {
            return;
        }
        set.retain(|k| !ref_within(&key, k));
        set.push(key);
    }

    fn ref_union(l: &[RefKey], r: &[RefKey]) -> Vec<RefKey> {
        let mut out = Vec::new();
        for k in l.iter().chain(r) {
            ref_insert(&mut out, k.clone());
        }
        out
    }

    fn ref_pairwise(l: &[RefKey], r: &[RefKey]) -> Vec<RefKey> {
        let mut out = Vec::new();
        for k1 in l {
            for k2 in r {
                let mut k: RefKey = k1.iter().chain(k2).copied().collect();
                k.sort_unstable();
                k.dedup();
                ref_insert(&mut out, k);
            }
        }
        out
    }

    fn ref_implies(x: &[RefKey], y: &[RefKey]) -> bool {
        y.iter().all(|ky| x.iter().any(|kx| ref_within(kx, ky)))
    }

    /// The mask of `attrs`, `width` words wide.
    fn mask(width: usize, attrs: &[usize]) -> Vec<u64> {
        let mut m = vec![0; width];
        for &a in attrs {
            m[a / 64] |= 1 << (a % 64);
        }
        m
    }

    fn keyset(width: usize, keys: &[RefKey]) -> KeySet {
        let mut s = KeySet::new(width);
        for k in keys {
            s.insert(&mask(width, k));
        }
        s
    }

    /// The keys of `s`, decoded, in order.
    fn decoded(s: KeysRef<'_>) -> Vec<RefKey> {
        s.iter().map(|k| bits(k).collect()).collect()
    }

    /// A deterministic generator of keys over `width * 64` attributes.
    struct Keys {
        state: u64,
        universe: usize,
    }

    impl Keys {
        fn new(width: usize, seed: u64) -> Keys {
            Keys {
                state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
                universe: width * 64,
            }
        }

        fn next(&mut self, bound: u64) -> u64 {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.state >> 33) % bound
        }

        /// A key of 0..=3 attributes; one in nine is the empty key (at most
        /// one row), which implies every key. Attributes are drawn from the
        /// low 24 and the top 40 of the universe, so keys overlap often and
        /// reach every word.
        fn key(&mut self) -> RefKey {
            let len = self.next(9).div_ceil(3);
            let mut k: RefKey = (0..len)
                .map(|_| {
                    let a = self.next(64) as usize;
                    if a < 24 {
                        a
                    } else {
                        self.universe - 64 + a
                    }
                })
                .collect();
            k.sort_unstable();
            k.dedup();
            k
        }

        fn set(&mut self, keys: usize) -> Vec<RefKey> {
            let mut s = Vec::new();
            for _ in 0..keys {
                ref_insert(&mut s, self.key());
            }
            s
        }

        /// A set every key of which is a key of `base` widened, plus keys of
        /// its own: `base` implies it whenever it adds none.
        fn widened(&mut self, base: &[RefKey], own: usize) -> Vec<RefKey> {
            let mut s = Vec::new();
            for k in base {
                let mut wider = k.clone();
                wider.extend(self.key());
                wider.sort_unstable();
                wider.dedup();
                ref_insert(&mut s, wider);
            }
            for _ in 0..own {
                ref_insert(&mut s, self.key());
            }
            s
        }
    }

    const WIDTHS: [usize; 3] = [1, 2, 3];

    #[test]
    fn minimality() {
        for w in WIDTHS {
            let top = 64 * w - 1;
            let mut s = KeySet::new(w);
            s.insert(&mask(w, &[0, top]));
            s.insert(&mask(w, &[top])); // subsumes the first
            assert_eq!(vec![vec![top]], decoded(s.as_ref()), "W={w}");
            s.insert(&mask(w, &[2, top])); // already implied
            assert_eq!(1, s.as_ref().len(), "W={w}");
            // Random insert sequences keep the reference's keys, in its
            // order.
            let mut gen = Keys::new(w, 7);
            for _ in 0..500 {
                let keys: Vec<RefKey> = (0..6).map(|_| gen.key()).collect();
                let mut reference = Vec::new();
                for k in &keys {
                    ref_insert(&mut reference, k.clone());
                }
                assert_eq!(reference, decoded(keyset(w, &keys).as_ref()), "W={w}");
            }
        }
    }

    #[test]
    fn key_within() {
        for w in WIDTHS {
            let top = 64 * w - 1;
            let s = keyset(w, &[vec![1, top]]);
            assert!(s.as_ref().some_key_within(&mask(w, &[1, 5, top])));
            assert!(!s.as_ref().some_key_within(&mask(w, &[1])));
            assert!(!KeySet::new(w).as_ref().some_key_within(&mask(w, &[1])));
            let mut gen = Keys::new(w, 11);
            for _ in 0..2_000 {
                let set = gen.set(3);
                let mut attrs: RefKey = (0..6).flat_map(|_| gen.key()).collect();
                attrs.sort_unstable();
                attrs.dedup();
                assert_eq!(
                    set.iter().any(|k| ref_within(k, &attrs)),
                    keyset(w, &set).as_ref().some_key_within(&mask(w, &attrs)),
                    "W={w}: {set:?} within {attrs:?}"
                );
            }
        }
    }

    #[test]
    fn pairwise_combination() {
        for w in WIDTHS {
            let top = 64 * w - 1;
            let mut out = KeySet::new(w);
            let l = keyset(w, &[vec![0]]);
            let r = keyset(w, &[vec![1], vec![top]]);
            out.assign_pairwise(l.as_ref(), r.as_ref());
            assert_eq!(vec![vec![0, 1], vec![0, top]], decoded(out.as_ref()));
            out.assign_pairwise(l.as_ref(), KeySet::new(w).as_ref());
            assert_eq!(KeySet::new(w), out);
            let mut gen = Keys::new(w, 13);
            for round in 0..1_000 {
                let (l, r) = (gen.set(round % 4), gen.set(round % 3 + 1));
                out.assign_pairwise(keyset(w, &l).as_ref(), keyset(w, &r).as_ref());
                assert_eq!(ref_pairwise(&l, &r), decoded(out.as_ref()), "W={w}");
            }
        }
    }

    #[test]
    fn implication() {
        for w in WIDTHS {
            let top = 64 * w - 1;
            let strong = keyset(w, &[vec![top]]);
            let weak = keyset(w, &[vec![0, top]]);
            let none = KeySet::new(w);
            let implies = |x: &KeySet, y: &KeySet| x.as_ref().implies(y.as_ref());
            assert!(implies(&strong, &weak));
            assert!(!implies(&weak, &strong));
            assert!(implies(&strong, &none));
            assert!(implies(&none, &none));
            assert!(!implies(&none, &strong));
            let mut gen = Keys::new(w, 17);
            let mut held = 0;
            for round in 0..2_000 {
                let x = gen.set(round % 4);
                let y = if round % 2 == 0 {
                    gen.widened(&x, round % 3)
                } else {
                    gen.set(round % 3)
                };
                for (p, q) in [(&x, &y), (&y, &x)] {
                    let want = ref_implies(p, q);
                    held += usize::from(want);
                    assert_eq!(
                        want,
                        keyset(w, p).as_ref().implies(keyset(w, q).as_ref()),
                        "W={w}: {p:?} ⇒ {q:?}"
                    );
                }
            }
            assert!(held > 1_000, "W={w}: only {held} implications hold");
        }
    }

    /// The signature `fold` gives a key set: the AND of its keys' folds.
    fn signature_by(keys: KeysRef<'_>, fold: fn(&[u64]) -> u32) -> u32 {
        keys.iter().fold(u32::MAX, |s, k| s & fold(k))
    }

    /// Over random pairs at every width — half of them `b` derived from `a`
    /// by widening every key of `a`, so `a ⇒ b` — how often the signatures
    /// `fold` gives refute an implication that holds, and how often they
    /// refute one that fails.
    fn refutations(fold: fn(&[u64]) -> u32) -> (u32, u32) {
        let (mut wrong, mut right) = (0, 0);
        for w in WIDTHS {
            let mut gen = Keys::new(w, 23);
            for round in 0..4_000 {
                let x = gen.set(round % 5);
                let y = if round % 2 == 0 {
                    gen.widened(&x, round % 3)
                } else {
                    gen.set(round % 3)
                };
                let (x, y) = (keyset(w, &x), keyset(w, &y));
                for (p, q) in [(&x, &y), (&y, &x)] {
                    let (sp, sq) = (
                        signature_by(p.as_ref(), fold),
                        signature_by(q.as_ref(), fold),
                    );
                    let refuted = sp & !sq != 0;
                    if p.as_ref().implies(q.as_ref()) {
                        wrong += u32::from(refuted);
                    } else {
                        right += u32::from(refuted);
                    }
                }
            }
        }
        (wrong, right)
    }

    #[test]
    fn signature_never_refutes_an_implication() {
        let (wrong, right) = refutations(fold);
        assert_eq!(0, wrong, "the signature refuted a holding implication");
        assert!(
            right > 1_000,
            "the signature refuted only {right} failing ones"
        );
        // `KeysRef::signature` is that fold's.
        let mut gen = Keys::new(2, 29);
        for _ in 0..200 {
            let s = keyset(2, &gen.set(3));
            assert_eq!(signature_by(s.as_ref(), fold), s.as_ref().signature());
        }
        assert_eq!(u32::MAX, KeySet::new(3).as_ref().signature());
        // Attributes 1 and 35 share bit 3 with 3 and 67 only through the
        // fold; the set's signature is what its two keys share.
        assert_eq!(
            1 << 1 | 1 << 3,
            keyset(2, &[vec![1, 3], vec![1, 35, 67]])
                .as_ref()
                .signature()
        );
        // A fold that is not monotone (XOR of the halves clears a bit a
        // superset sets twice) must be caught refuting an implication.
        let xor: fn(&[u64]) -> u32 = |k| k.iter().fold(0, |m, &w| m ^ w as u32 ^ (w >> 32) as u32);
        assert!(refutations(xor).0 > 0, "a non-monotone fold went unnoticed");
    }

    #[test]
    fn union_keeps_both() {
        for w in WIDTHS {
            let top = 64 * w - 1;
            let mut out = KeySet::new(w);
            let (l, r) = (keyset(w, &[vec![0]]), keyset(w, &[vec![top]]));
            out.assign_union(l.as_ref(), r.as_ref());
            assert_eq!(vec![vec![0], vec![top]], decoded(out.as_ref()));
            let mut gen = Keys::new(w, 31);
            for round in 0..1_000 {
                let (l, r) = (gen.set(round % 4), gen.set(round % 3));
                out.assign_union(keyset(w, &l).as_ref(), keyset(w, &r).as_ref());
                assert_eq!(ref_union(&l, &r), decoded(out.as_ref()), "W={w}");
            }
        }
    }

    #[test]
    fn flat_storage_matches_key_by_key_semantics() {
        for w in WIDTHS {
            let top = 64 * w - 1;
            // Evicting a key moves the later ones down: equality and
            // iteration see keys only, in insertion order.
            let mut s = keyset(w, &[vec![1, 2, top], vec![5], vec![2, 7]]);
            s.insert(&mask(w, &[2]));
            assert_eq!(keyset(w, &[vec![5], vec![2]]), s);
            // A borrowed view over foreign storage behaves like the owned
            // set.
            let mut lane = vec![u64::MAX; w];
            lane.extend(mask(w, &[0, 2, top]));
            lane.extend(mask(w, &[5]));
            let view = KeysRef::new(w, &lane[w..]);
            let owned = keyset(w, &[vec![0, 2, top], vec![5]]);
            assert_eq!(2, view.len());
            assert!(view.implies(owned.as_ref()) && owned.as_ref().implies(view));
            assert!(view.some_key_within(&mask(w, &[1, 5])));
            assert!(!view.some_key_within(&mask(w, &[0, 2])));
            assert_eq!(decoded(view), decoded(owned.as_ref()));
        }
    }
}
