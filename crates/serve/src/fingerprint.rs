//! Canonical query fingerprints: the exact, collision-free cache key.
//!
//! A [`Query`] is lowered to a flat word stream covering everything the
//! optimizer reads — table statistics, keys, operator tree, predicates,
//! selectivities and the grouping spec. Two queries get equal shapes iff
//! the optimizer cannot tell them apart, so a cache hit is always safe
//! to serve. The stream is hashed once, when the shape is built, with the
//! in-tree fxhash ([`dpnext::hypergraph::FxBuildHasher`]); the shape
//! carries that hash and hands it to every map it keys, so probing a map
//! never reads the stream again. The stream itself is kept in the key and
//! compared exactly, so hash collisions degrade to key comparisons, never
//! to wrong plans.

use dpnext::hypergraph::FxBuildHasher;
use dpnext_algebra::{AggCall, Expr, JoinPred, Value};
use dpnext_query::{OpTree, Query};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// The canonical shape of a query: an exact encoding of every
/// optimizer-visible detail, used as the plan-cache key.
///
/// Equality is exact (no hash truncation): two shapes are equal iff their
/// encodings are, word for word. `f64` statistics compare by bit pattern,
/// so `-0.0`/`0.0` and NaN payload differences are treated as distinct —
/// the conservative direction for a cache.
///
/// The encoding's hash is taken once, by [`fingerprint_query`], and stored
/// with it: hashing a shape writes that one word, whatever the query's
/// size, and comparing two shapes compares their hashes before their
/// words, so unequal shapes almost always differ at the first word read.
///
/// The encoding is shared, not owned: a clone is a reference count, so the
/// shape the service's front map stores with a bound statement becomes a
/// request's cache key without being copied.
#[derive(Debug, Clone)]
pub struct QueryShape {
    words: Arc<[u64]>,
    /// Fx hash of `words`, taken when the shape was built.
    hash: u64,
}

impl PartialEq for QueryShape {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.words == other.words
    }
}

impl Eq for QueryShape {}

impl Hash for QueryShape {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl QueryShape {
    /// Length of the canonical encoding in 64-bit words (diagnostic;
    /// roughly proportional to query size).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the encoding is empty (never true for a real query).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The encoding's Fx hash, taken once when the shape was built: the one
    /// word [`Hash`] writes, and the `shape_hash` a request's trace carries.
    pub(crate) fn hash_word(&self) -> u64 {
        self.hash
    }
}

/// Compute the [`QueryShape`] of a query.
///
/// Deterministic and pure: the same query value always yields the same
/// shape, on every thread.
///
/// ```
/// use dpnext_serve::fingerprint_query;
/// use dpnext_workload::{generate_query, GenConfig};
///
/// let a = generate_query(&GenConfig::paper(4), 7);
/// let b = generate_query(&GenConfig::paper(4), 7);
/// let c = generate_query(&GenConfig::paper(4), 8);
/// assert_eq!(fingerprint_query(&a), fingerprint_query(&b));
/// assert_ne!(fingerprint_query(&a), fingerprint_query(&c));
/// ```
pub fn fingerprint_query(query: &Query) -> QueryShape {
    let mut enc = Encoder {
        words: Vec::with_capacity(64),
    };
    enc.query(query);
    QueryShape {
        hash: FxBuildHasher::default().hash_one(&enc.words),
        words: enc.words.into(),
    }
}

struct Encoder {
    words: Vec<u64>,
}

impl Encoder {
    fn u(&mut self, v: u64) {
        self.words.push(v);
    }

    fn f(&mut self, v: f64) {
        self.u(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.u(u64::from_le_bytes(w));
        }
    }

    fn query(&mut self, q: &Query) {
        self.u(q.tables.len() as u64);
        for t in &q.tables {
            self.str(&t.alias);
            self.f(t.card);
            self.u(t.attrs.len() as u64);
            for (a, d) in t.attrs.iter().zip(&t.distinct) {
                self.u(a.0 as u64);
                self.f(*d);
            }
            self.u(t.keys.len() as u64);
            for key in &t.keys {
                self.u(key.len() as u64);
                for a in key {
                    self.u(a.0 as u64);
                }
            }
        }
        self.tree(&q.tree);
        match &q.grouping {
            None => self.u(0),
            Some(g) => {
                self.u(1);
                self.u(g.group_by.len() as u64);
                for a in &g.group_by {
                    self.u(a.0 as u64);
                }
                self.aggs(&g.aggs);
                self.u(g.post.len() as u64);
                for (out, e) in &g.post {
                    self.u(out.0 as u64);
                    self.expr(e);
                }
                self.u(g.output.len() as u64);
                for a in &g.output {
                    self.u(a.0 as u64);
                }
            }
        }
    }

    fn tree(&mut self, t: &OpTree) {
        match t {
            OpTree::Rel(i) => {
                self.u(0);
                self.u(*i as u64);
            }
            OpTree::Binary {
                op,
                pred,
                sel,
                gj_aggs,
                left,
                right,
            } => {
                self.u(1);
                self.u(*op as u64);
                self.pred(pred);
                self.f(*sel);
                self.aggs(gj_aggs);
                self.tree(left);
                self.tree(right);
            }
        }
    }

    fn pred(&mut self, p: &JoinPred) {
        self.u(p.terms.len() as u64);
        for (l, op, r) in &p.terms {
            self.u(l.0 as u64);
            self.u(*op as u64);
            self.u(r.0 as u64);
        }
    }

    fn aggs(&mut self, aggs: &[AggCall]) {
        self.u(aggs.len() as u64);
        for a in aggs {
            self.u(a.out.0 as u64);
            self.u(a.kind as u64);
            match &a.arg {
                None => self.u(0),
                Some(e) => {
                    self.u(1);
                    self.expr(e);
                }
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Attr(a) => {
                self.u(2);
                self.u(a.0 as u64);
            }
            Expr::Const(v) => {
                self.u(3);
                self.value(v);
            }
            Expr::Mul(l, r) => {
                self.u(4);
                self.expr(l);
                self.expr(r);
            }
            Expr::Add(l, r) => {
                self.u(5);
                self.expr(l);
                self.expr(r);
            }
            Expr::Div(l, r) => {
                self.u(6);
                self.expr(l);
                self.expr(r);
            }
            Expr::IfNull(a, t, f) => {
                self.u(7);
                self.u(a.0 as u64);
                self.expr(t);
                self.expr(f);
            }
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u(0),
            Value::Int(i) => {
                self.u(1);
                self.u(*i as u64);
            }
            Value::Dec(d) => {
                self.u(2);
                self.u(*d as u64);
            }
            Value::Str(s) => {
                self.u(3);
                self.str(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpnext_algebra::AggKind;
    use dpnext_workload::{generate_query, GenConfig, Topology};

    #[test]
    fn distinct_seeds_distinct_shapes() {
        let shapes: Vec<_> = (0..20)
            .map(|s| fingerprint_query(&generate_query(&GenConfig::paper(5), s)))
            .collect();
        for i in 0..shapes.len() {
            for j in i + 1..shapes.len() {
                assert_ne!(shapes[i], shapes[j], "seeds {i} and {j} collide");
            }
        }
    }

    #[test]
    fn statistics_are_part_of_the_shape() {
        let q = generate_query(&GenConfig::paper(4), 3);
        let mut tweaked = q.clone();
        tweaked.tables[0].card *= 2.0;
        assert_ne!(fingerprint_query(&q), fingerprint_query(&tweaked));
    }

    /// A `Hasher` that records the words it is given instead of mixing them.
    #[derive(Default)]
    struct Recorder(Vec<u64>);

    impl Hasher for Recorder {
        fn finish(&self) -> u64 {
            0
        }

        fn write(&mut self, _: &[u8]) {
            panic!("a shape hashes as one u64, not as bytes");
        }

        fn write_u64(&mut self, word: u64) {
            self.0.push(word);
        }
    }

    #[test]
    fn a_shape_hashes_as_the_one_word_taken_when_it_was_built() {
        for n in 3..=7 {
            let shape = fingerprint_query(&generate_query(&GenConfig::paper(n), 1));
            let mut recorder = Recorder::default();
            shape.hash(&mut recorder);
            let stream = FxBuildHasher::default().hash_one(&shape.words[..]);
            assert_eq!(recorder.0, [stream]);
            assert_eq!(shape.hash_word(), stream);
        }
    }

    /// `query` with one field changed, once per kind of field the encoding
    /// covers. A tweak that does not apply (no key to drop, a one-column
    /// output) returns the query unchanged, which the caller's `iff` covers
    /// from the other side. The results need not be valid queries: the
    /// fingerprint reads fields, it does not validate.
    fn single_field_tweaks(query: &Query) -> Vec<Query> {
        let tweak = |edit: &dyn Fn(&mut Query)| {
            let mut q = query.clone();
            edit(&mut q);
            q
        };
        let root = |q: &mut Query, edit: &dyn Fn(&mut JoinPred, &mut f64)| {
            if let OpTree::Binary { pred, sel, .. } = &mut q.tree {
                edit(pred, sel);
            }
        };
        vec![
            tweak(&|q| q.tables[0].card *= 2.0),
            tweak(&|q| *q.tables.last_mut().unwrap().distinct.last_mut().unwrap() += 1.0),
            tweak(&|q| root(q, &|_, sel| *sel *= 0.5)),
            tweak(&|q| {
                let t = &mut q.tables[0];
                t.keys.push(vec![*t.attrs.last().unwrap()]);
            }),
            tweak(&|q| {
                if let Some(t) = q.tables.iter_mut().find(|t| !t.keys.is_empty()) {
                    t.keys.pop();
                }
            }),
            tweak(&|q| q.tables[0].alias.push('x')),
            tweak(&|q| q.tables[0].alias = q.tables[0].alias.to_uppercase()),
            tweak(&|q| root(q, &|pred, _| pred.terms[0].1 = dpnext_algebra::CmpOp::Lt)),
            tweak(&|q| {
                let call = &mut q.grouping.as_mut().unwrap().aggs[0];
                call.kind = match call.kind {
                    AggKind::Min => AggKind::Max,
                    _ => AggKind::Min,
                };
            }),
            tweak(&|q| q.grouping = None),
            tweak(&|q| q.grouping.as_mut().unwrap().output.rotate_left(1)),
        ]
    }

    /// The shape's contract, which the plan cache and the service's front
    /// map both stand on: two queries get equal shapes **iff** they are the
    /// same query. `Query`'s derived `Debug` is the independent encoding of
    /// the same fields the shape is held against (`f64`'s `Debug` is the
    /// shortest text that round-trips, so distinct bits print distinctly).
    #[test]
    fn shapes_are_equal_iff_the_queries_are() {
        use std::collections::HashMap;
        let hash_of = |shape: &QueryShape| FxBuildHasher::default().hash_one(shape);
        let mut configs: Vec<GenConfig> = (3..=7).map(GenConfig::paper).collect();
        configs.extend(
            [
                Topology::Chain,
                Topology::Star,
                Topology::Clique,
                Topology::Mixed,
            ]
            .map(|t| GenConfig::topology(6, t)),
        );
        // Both directions at once, over every pair: a shape names one text
        // and a text names one shape.
        let mut text_of: HashMap<QueryShape, String> = HashMap::new();
        let mut shape_of: HashMap<String, QueryShape> = HashMap::new();
        let mut tweaked = 0;
        for config in &configs {
            for seed in 0..40 {
                let base = generate_query(config, seed);
                let variants = single_field_tweaks(&base);
                let base_text = format!("{base:?}");
                tweaked += variants
                    .iter()
                    .filter(|q| format!("{q:?}") != base_text)
                    .count();
                for query in std::iter::once(base).chain(variants) {
                    let (text, shape) = (format!("{query:?}"), fingerprint_query(&query));
                    let named = text_of.entry(shape.clone()).or_insert_with(|| text.clone());
                    assert_eq!(*named, text, "two queries share one shape");
                    let drawn = shape_of.entry(text).or_insert_with(|| shape.clone());
                    assert_eq!(*drawn, shape, "one query has two shapes");
                    assert_eq!(hash_of(drawn), hash_of(&shape), "equal shapes hash apart");
                }
            }
        }
        assert_eq!(text_of.len(), shape_of.len());
        // Nearly every tweak applies to nearly every query (a table without
        // a key and a one-column output are the exceptions).
        assert!(
            tweaked >= 10 * 9 * 40,
            "only {tweaked} tweaks changed a query"
        );
    }
}
