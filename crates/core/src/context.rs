//! Shared optimization context: the conflicted query, attribute statistics,
//! the numbering of the key attributes, grouping attributes `G⁺(S)` and
//! aggregate metadata.
//!
//! [`OptContext`] is immutable after construction. All per-run mutable
//! state — the fresh-attribute allocator, the memoized `G⁺(S)` cache and
//! the plans-built counter — lives in [`Scratch`], which the enumeration
//! owns next to its memo.

use crate::aggstate::AggState;
use crate::detect::{detect, ConflictedQuery};
use crate::keyset::{bits, KeySet};
use crate::memo::Span;
use dpnext_algebra::AttrId;
use dpnext_hypergraph::{FxHashMap, NodeSet};
use dpnext_query::{AttrOrigins, Query};
use std::borrow::Cow;

/// Context shared by all plan constructors during one optimization run.
///
/// It borrows its query when built from a `&Query` (what
/// [`crate::optimize_into`] does: no clone per request) and owns it when
/// built from a `Query`.
pub struct OptContext<'q> {
    /// The query being optimized.
    pub query: Cow<'q, Query>,
    /// Conflict-detection result (TES/SES sets) for the query's operators.
    pub cq: ConflictedQuery,
    /// Attribute → node set required for the attribute to exist, as one
    /// dense table: [`Query::attr_origins`] with every groupjoin output
    /// moved to its operator's hyperedge (see [`OptContext::new`]).
    pub(crate) origins: AttrOrigins,
    /// Base distinct count per table attribute, indexed by [`AttrId`]:
    /// infinite for every other id below the highest table attribute
    /// ([`OptContext::distinct`] answers the ids above it).
    distinct: Vec<f64>,
    /// The key attributes `U` — every attribute of a table's declared key
    /// and every `G⁺` candidate — sorted by id: `key_attrs[i]` is bit `i`
    /// of a key mask ([`OptContext::decode_key`]).
    pub key_attrs: Vec<AttrId>,
    /// The query's `G` as a key mask, what the top grouping's
    /// `NeedsGrouping` tests; its length is the key width.
    pub(crate) group_mask: Vec<u64>,
    /// Per normalized aggregate: the attributes its argument references.
    pub agg_args: Vec<Vec<AttrId>>,
    /// Per normalized aggregate: union of argument origins (empty for
    /// `count(*)`).
    pub agg_origin: Vec<NodeSet>,
    /// Every attribute `G⁺(S)` can hold, sorted by id: see
    /// [`OptContext::compute_gplus`].
    pub(crate) gplus_candidates: Vec<GplusCandidate>,
    /// Per table occurrence: its declared candidate keys, minimal — what a
    /// scan of it carries.
    pub(crate) table_keys: Vec<KeySet>,
    /// The aggregation state of a plan without groupings (a scan's): every
    /// aggregate raw, no count columns.
    pub fresh_agg: AggState,
    /// First attribute id above every catalog/query attribute — the base
    /// from which [`Scratch`] allocators hand out partial/count columns.
    first_fresh: u32,
}

/// One attribute `G⁺(S)` can hold — a grouping attribute, or one that an
/// operator's predicate or groupjoin aggregates read — with what decides
/// whether a set `S` keeps it.
pub(crate) struct GplusCandidate {
    /// The attribute's bit in a key mask.
    bit: u32,
    origin: NodeSet,
    /// Whether the attribute is in the query's `G`.
    in_group: bool,
    /// The operators that read it: bit `i` for `cq.ops[i]`.
    ops: u64,
}

/// The key attributes `U` of a query — its `G⁺` candidates and the
/// `keyed` attributes, sorted by id — and the candidates, numbered in `U`:
/// every attribute of `group_by`, of a predicate term and of `gj_args` (per
/// operator, what its groupjoin aggregates reference, [`gj_args`]) that
/// has an origin, once, sorted by id.
pub(crate) fn key_universe(
    cq: &ConflictedQuery,
    origins: &AttrOrigins,
    group_by: &[AttrId],
    gj_args: &[Vec<AttrId>],
    keyed: impl IntoIterator<Item = AttrId>,
) -> (Vec<AttrId>, Vec<GplusCandidate>) {
    // One slot per attribute id (its `bit` until `U` is known), marked with
    // what reads it; an id past the origin table has no origin, so it is
    // no candidate.
    let width = origins.max_attr().map_or(0, |a| a.0 + 1);
    let mut out: Vec<GplusCandidate> = (0..width)
        .map(|id| GplusCandidate {
            bit: id,
            origin: origins.get(AttrId(id)).unwrap_or(NodeSet::EMPTY),
            in_group: false,
            ops: 0,
        })
        .collect();
    let mut mark = |a: AttrId, in_group: bool, ops: u64| {
        if let Some(c) = out.get_mut(a.0 as usize) {
            c.in_group |= in_group;
            c.ops |= ops;
        }
    };
    for &a in group_by {
        mark(a, true, 0);
    }
    for (i, (op, args)) in cq.ops.iter().zip(gj_args).enumerate() {
        for &(l, _, r) in &op.pred.terms {
            mark(l, false, 1 << i);
            mark(r, false, 1 << i);
        }
        for &a in args {
            mark(a, false, 1 << i);
        }
    }
    out.retain(|c| !c.origin.is_empty() && (c.in_group || c.ops != 0));
    let mut universe: Vec<AttrId> = out.iter().map(|c| AttrId(c.bit)).chain(keyed).collect();
    universe.sort_unstable();
    universe.dedup();
    for c in &mut out {
        c.bit = universe.partition_point(|a| a.0 < c.bit) as u32;
    }
    (universe, out)
}

/// Make `mask` the key mask of `attrs` over the sorted key attributes
/// `key_attrs`, reusing its allocation. An attribute outside them is
/// dropped: no key holds one.
pub(crate) fn assign_key_mask<'a>(
    key_attrs: &[AttrId],
    mask: &mut Vec<u64>,
    attrs: impl IntoIterator<Item = &'a AttrId>,
) {
    mask.clear();
    mask.resize(key_attrs.len().div_ceil(64).max(1), 0);
    for a in attrs {
        if let Ok(i) = key_attrs.binary_search(a) {
            mask[i / 64] |= 1 << (i % 64);
        }
    }
}

/// Per operator of `cq`: the attributes its groupjoin aggregates reference
/// (empty for every other operator).
pub(crate) fn gj_args(cq: &ConflictedQuery) -> Vec<Vec<AttrId>> {
    cq.ops
        .iter()
        .map(|op| op.gj_aggs.iter().flat_map(|c| c.referenced()).collect())
        .collect()
}

impl<'q> OptContext<'q> {
    /// Derive the full optimization context (conflict detection,
    /// attribute origins, base statistics) for one query, owned or
    /// borrowed.
    pub fn new(query: impl Into<Cow<'q, Query>>) -> Self {
        let _span = dpnext_obs::span("core.context");
        let query = query.into();
        let mut origins = query.attr_origins();
        let cq = detect(&query, &origins);
        // Operator sets are u64 bitmasks (the operators reading a `G⁺`
        // candidate, those a validated plan applies); beyond 64 operators
        // the `1 << op_idx` shifts would wrap silently.
        assert!(
            cq.ops.len() <= 64,
            "query has {} operators; applied-operator tracking supports at most 64",
            cq.ops.len()
        );
        // A groupjoin's outputs exist as soon as the groupjoin is applied,
        // and that is wherever its hyperedge fits — which can be a smaller
        // set than its original subtree. `G⁺(S)` must see them from there
        // on, or a grouping pushed onto such an `S` drops an attribute a
        // later predicate still needs.
        for op in &cq.ops {
            for call in &op.gj_aggs {
                origins.insert(call.out, op.l_tes.union(op.r_tes));
            }
        }
        let table_attrs = query
            .tables
            .iter()
            .flat_map(|t| t.attrs.iter().zip(&t.distinct));
        let width = table_attrs.clone().map(|(a, _)| a.0 as usize + 1).max();
        let mut distinct = vec![f64::INFINITY; width.unwrap_or(0)];
        for (a, &d) in table_attrs {
            distinct[a.0 as usize] = d;
        }
        let mut max_attr = origins.max_attr().map_or(0, |a| a.0);
        let (group_by, aggs) = match &query.grouping {
            Some(g) => (g.group_by.as_slice(), g.aggs.as_slice()),
            None => (&[][..], &[][..]),
        };
        for call in aggs {
            max_attr = max_attr.max(call.out.0);
        }
        if let Some(g) = &query.grouping {
            for (a, _) in &g.post {
                max_attr = max_attr.max(a.0);
            }
        }
        let agg_args: Vec<Vec<AttrId>> = aggs.iter().map(|c| c.referenced()).collect();
        let agg_origin: Vec<NodeSet> = agg_args
            .iter()
            .map(|args| {
                args.iter().fold(NodeSet::EMPTY, |acc, a| {
                    acc.union(
                        origins
                            .get(*a)
                            .expect("aggregate argument attribute unknown"),
                    )
                })
            })
            .collect();
        let keyed = query.tables.iter().flat_map(|t| t.keys.iter().flatten());
        let (key_attrs, gplus_candidates) =
            key_universe(&cq, &origins, group_by, &gj_args(&cq), keyed.copied());
        let (mut group_mask, mut key) = (Vec::new(), Vec::new());
        assign_key_mask(&key_attrs, &mut group_mask, group_by);
        let table_keys: Vec<KeySet> = query
            .tables
            .iter()
            .map(|t| {
                let mut set = KeySet::new(group_mask.len());
                for k in &t.keys {
                    assign_key_mask(&key_attrs, &mut key, k);
                    set.insert(&key);
                }
                set
            })
            .collect();
        OptContext {
            key_attrs,
            group_mask,
            gplus_candidates,
            table_keys,
            fresh_agg: AggState::fresh(aggs.len()),
            query,
            cq,
            origins,
            distinct,
            agg_args,
            agg_origin,
            first_fresh: max_attr + 1,
        }
    }

    /// Words per key mask of this query's keys: `max(1, ⌈|U| / 64⌉)` for
    /// its key attributes `U`.
    #[inline]
    pub fn key_width(&self) -> usize {
        self.group_mask.len()
    }

    /// The attributes of the key mask `key`, ascending.
    #[inline]
    pub fn decode_key<'a>(&'a self, key: &'a [u64]) -> impl Iterator<Item = AttrId> + 'a {
        bits(key).map(|i| self.key_attrs[i])
    }

    /// The normalized aggregation vector of the query.
    #[inline]
    pub fn aggs(&self) -> &[dpnext_algebra::AggCall] {
        self.query
            .grouping
            .as_ref()
            .map(|g| g.aggs.as_slice())
            .unwrap_or(&[])
    }

    /// Whether the query has a `GROUP BY` (or scalar-aggregate) block.
    #[inline]
    pub fn has_grouping(&self) -> bool {
        self.query.grouping.is_some()
    }

    /// First id strictly above every query attribute; fresh-attribute
    /// allocators must start at or above this.
    pub fn first_fresh_attr(&self) -> u32 {
        self.first_fresh
    }

    /// Node set an attribute originates from — an index into the context's
    /// dense origin table; panics on unknown ids.
    #[inline]
    pub fn origin(&self, a: AttrId) -> NodeSet {
        self.origins.of(a)
    }

    /// Base distinct count of an attribute (infinite when unknown, e.g.
    /// groupjoin outputs — grouping on them then gives no reduction).
    #[inline]
    pub fn distinct(&self, a: AttrId) -> f64 {
        self.distinct
            .get(a.0 as usize)
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// `G⁺(S)` computed from scratch (the plan constructors read a mask
    /// memoized in their [`Scratch`]): the grouping attributes for a
    /// pushed-down grouping over the relation set `S` — the query's grouping
    /// attributes from `S` plus every attribute of `S` referenced by a
    /// predicate (or groupjoin aggregate) of an operator that is not fully
    /// contained in `S` (§4.2's `G⁺ᵢ = Gᵢ ∪ Jᵢ`, closed under the whole
    /// remaining query so the equivalences stay applicable above `S`).
    /// Sorted and duplicate-free.
    ///
    /// One pass over facts decided once per query: the operators whose
    /// hyperedge leaves `S` form a mask, and a candidate (an attribute of
    /// `G`, a predicate or a groupjoin aggregate, with its origin and the
    /// mask of operators that read it) stays when its origin lies in `S`
    /// and it is in `G` or read by an operator of the mask. `O(#operators +
    /// #candidates)`, no hashing and no sort: the candidates are sorted.
    pub fn compute_gplus(&self, s: NodeSet) -> Vec<AttrId> {
        let mut mask = Vec::new();
        self.push_gplus(s, &mut mask);
        self.decode_key(&mask).collect()
    }

    /// Append `G⁺(S)` ([`OptContext::compute_gplus`]) to `out` as a key
    /// mask and return where it landed.
    fn push_gplus(&self, s: NodeSet, out: &mut Vec<u64>) -> Span {
        let start = out.len();
        out.resize(start + self.key_width(), 0);
        let mask = &mut out[start..];
        // An operator is applied inside every plan for S as soon as its
        // hyperedge (L-TES ∪ R-TES) lies within S — that is its earliest
        // application point under reordering, not its original subtree
        // position. The others still read their attributes above S.
        let mut outside = 0u64;
        for (i, op) in self.cq.ops.iter().enumerate() {
            if !op.l_tes.union(op.r_tes).is_subset_of(s) {
                outside |= 1 << i;
            }
        }
        let kept = self
            .gplus_candidates
            .iter()
            .filter(|c| c.origin.is_subset_of(s) && (c.in_group || c.ops & outside != 0));
        for c in kept {
            mask[c.bit as usize / 64] |= 1 << (c.bit % 64);
        }
        Span::new(start, self.key_width())
    }

    /// May a plan covering `s` be grouped at all? Every aggregate whose
    /// arguments lie inside `s` must be decomposable (§2.1.2); aggregates
    /// split across the boundary (impossible for single-table arguments)
    /// also forbid grouping.
    #[inline]
    pub fn can_group(&self, s: NodeSet) -> bool {
        for (i, call) in self.aggs().iter().enumerate() {
            let org = self.agg_origin[i];
            if org.is_empty() {
                continue; // count(*) splits either way (special case S1)
            }
            if org.is_subset_of(s) {
                if !call.kind.is_decomposable() {
                    return false;
                }
            } else if org.intersects(s) {
                return false; // argument split across the boundary
            }
        }
        true
    }
}

/// Mutable state of one enumeration: the fresh-attribute allocator, the
/// memoized `G⁺(S)` cache and the plans-built counter. A clone continues
/// from the same fresh attribute, so two constructions from one starting
/// state can be compared value for value.
#[derive(Clone)]
pub struct Scratch {
    next_attr: u32,
    /// `S` → where `G⁺(S)` sits in `gplus_masks`.
    gplus_cache: FxHashMap<NodeSet, Span>,
    /// Every memoized `G⁺(S)` as a key mask, back to back.
    gplus_masks: Vec<u64>,
    /// Plans constructed (joins + groupings) by this scratch's owner.
    pub plans_built: u64,
}

impl Scratch {
    /// Scratch for one run: fresh attributes start right above the
    /// query's own.
    pub fn new(ctx: &OptContext) -> Scratch {
        Scratch {
            next_attr: ctx.first_fresh_attr(),
            gplus_cache: FxHashMap::default(),
            gplus_masks: Vec::new(),
            plans_built: 0,
        }
    }

    /// Allocate the next fresh attribute id.
    #[inline]
    pub fn fresh_attr(&mut self) -> AttrId {
        self.fresh_attrs(1)
    }

    /// Allocate `n` consecutive fresh attribute ids; returns the first.
    #[inline]
    pub(crate) fn fresh_attrs(&mut self, n: u32) -> AttrId {
        let id = AttrId(self.next_attr);
        self.next_attr = self
            .next_attr
            .checked_add(n)
            .expect("fresh-attribute space (u32) exhausted");
        id
    }

    /// Record one constructed plan in the scratch counter.
    #[inline]
    pub fn count_plan(&mut self) {
        self.plans_built += 1;
    }

    /// Where the memoized `G⁺(S)` mask sits (§4.2, [`OptContext::compute_gplus`]):
    /// a handle valid for the scratch's lifetime, so a grid probes the cache
    /// once per side and its units read it through [`Scratch::gplus_at`]. A
    /// miss appends one mask to the cache's one word vector.
    #[inline]
    pub(crate) fn gplus_span(&mut self, ctx: &OptContext, s: NodeSet) -> Span {
        let masks = &mut self.gplus_masks;
        *self
            .gplus_cache
            .entry(s)
            .or_insert_with(|| ctx.push_gplus(s, masks))
    }

    /// The `G⁺(S)` mask a [`Scratch::gplus_span`] names.
    #[inline]
    pub(crate) fn gplus_at(&self, span: Span) -> &[u64] {
        span.of(&self.gplus_masks)
    }
}
