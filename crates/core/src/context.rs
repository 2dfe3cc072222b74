//! Shared optimization context: the conflicted query, attribute statistics,
//! grouping attributes `G⁺(S)` and aggregate metadata.
//!
//! [`OptContext`] is immutable after construction. All per-run mutable
//! state — the fresh-attribute allocator, the memoized `G⁺(S)` cache and
//! the plans-built counter — lives in [`Scratch`], which the enumeration
//! owns next to its memo.

use crate::aggstate::AggState;
use crate::detect::{detect, ConflictedQuery};
use crate::keyset::KeySet;
use crate::memo::Span;
use dpnext_algebra::AttrId;
use dpnext_hypergraph::{FxHashMap, NodeSet};
use dpnext_query::{AttrOrigins, Query};

/// Context shared by all plan constructors during one optimization run.
pub struct OptContext {
    /// The query being optimized.
    pub query: Query,
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
    /// Grouping attributes `G` of the query as a set: sorted and
    /// deduplicated once here, so the per-plan `NeedsGrouping` test runs
    /// on it as it is (empty when no grouping). The query's own `group_by`
    /// keeps the written order for estimates and output.
    pub group_by: Vec<AttrId>,
    /// Per normalized aggregate: the attributes its argument references.
    pub agg_args: Vec<Vec<AttrId>>,
    /// Per normalized aggregate: union of argument origins (empty for
    /// `count(*)`).
    pub agg_origin: Vec<NodeSet>,
    /// Per operator: the attributes its groupjoin aggregates reference
    /// (empty for every other operator).
    pub gj_args: Vec<Vec<AttrId>>,
    /// Every attribute `G⁺(S)` can hold, sorted by id: see
    /// [`OptContext::compute_gplus`].
    pub(crate) gplus_candidates: Vec<GplusCandidate>,
    /// Per table occurrence: its declared candidate keys, normalized and
    /// minimal — what a scan of it carries.
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
    attr: AttrId,
    origin: NodeSet,
    /// Whether the attribute is in the query's `G`.
    in_group: bool,
    /// The operators that read it: bit `i` for `cq.ops[i]`.
    ops: u64,
}

/// The `G⁺` candidates of a query: every attribute of `group_by`, of a
/// predicate term and of `gj_args` that has an origin, once, sorted by id.
pub(crate) fn gplus_candidates(
    cq: &ConflictedQuery,
    origins: &AttrOrigins,
    group_by: &[AttrId],
    gj_args: &[Vec<AttrId>],
) -> Vec<GplusCandidate> {
    // One slot per attribute id, marked with what reads it; an id past the
    // origin table has no origin, so it is no candidate.
    let width = origins.max_attr().map_or(0, |a| a.0 + 1);
    let mut out: Vec<GplusCandidate> = (0..width)
        .map(|id| GplusCandidate {
            attr: AttrId(id),
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
    out
}

impl OptContext {
    /// Derive the full optimization context (conflict detection,
    /// attribute origins, base statistics) for one query.
    pub fn new(query: Query) -> Self {
        let mut origins = query.attr_origins();
        let cq = detect(&query, &origins);
        // Applied-operator tracking uses a u64 bitmask (`PlanHot::applied`);
        // beyond 64 operators the `1 << op_idx` shifts would wrap silently
        // and the all-operators-applied test (against `applied_ops_mask`)
        // could accept plans that dropped a predicate.
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
        let (mut group_by, aggs) = match &query.grouping {
            Some(g) => (g.group_by.clone(), g.aggs.clone()),
            None => (Vec::new(), Vec::new()),
        };
        group_by.sort_unstable();
        group_by.dedup();
        for call in &aggs {
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
        let table_keys = query
            .tables
            .iter()
            .map(|t| KeySet::from_keys(t.keys.iter().cloned()))
            .collect();
        let gj_args: Vec<Vec<AttrId>> = cq
            .ops
            .iter()
            .map(|op| op.gj_aggs.iter().flat_map(|c| c.referenced()).collect())
            .collect();
        OptContext {
            gplus_candidates: gplus_candidates(&cq, &origins, &group_by, &gj_args),
            gj_args,
            table_keys,
            fresh_agg: AggState::fresh(aggs.len()),
            query,
            cq,
            origins,
            distinct,
            group_by,
            agg_args,
            agg_origin,
            first_fresh: max_attr + 1,
        }
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

    /// `G⁺(S)` computed from scratch (see [`Scratch::gplus`] for the memoized
    /// variant the plan constructors use): the grouping attributes for a
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
        let mut attrs = Vec::new();
        self.push_gplus(s, &mut attrs);
        attrs
    }

    /// Append `G⁺(S)` ([`OptContext::compute_gplus`]) to `out` and return
    /// where it landed.
    fn push_gplus(&self, s: NodeSet, out: &mut Vec<AttrId>) -> Span {
        let start = out.len();
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
        out.extend(kept.map(|c| c.attr));
        Span::new(start, out.len() - start)
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
    /// `S` → where `G⁺(S)` sits in `gplus_attrs`.
    gplus_cache: FxHashMap<NodeSet, Span>,
    /// Every memoized `G⁺(S)`, back to back.
    gplus_attrs: Vec<AttrId>,
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
            gplus_attrs: Vec::new(),
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

    /// Memoized `G⁺(S)` (§4.2); see [`OptContext::compute_gplus`]. Sorted
    /// and duplicate-free.
    ///
    /// Returns a borrow of the cached attributes: a hit is one map probe,
    /// a miss one pass over the query's `G⁺` candidates that appends to the
    /// cache's one attribute vector — no allocation per set.
    #[inline]
    pub fn gplus(&mut self, ctx: &OptContext, s: NodeSet) -> &[AttrId] {
        let span = self.gplus_span(ctx, s);
        self.gplus_at(span)
    }

    /// Where [`Scratch::gplus`] keeps `G⁺(S)`: a handle that stays valid for
    /// the scratch's lifetime, so a grid probes the cache once per side and
    /// its units read the attributes through [`Scratch::gplus_at`].
    #[inline]
    pub(crate) fn gplus_span(&mut self, ctx: &OptContext, s: NodeSet) -> Span {
        let attrs = &mut self.gplus_attrs;
        *self
            .gplus_cache
            .entry(s)
            .or_insert_with(|| ctx.push_gplus(s, attrs))
    }

    /// The `G⁺(S)` a [`Scratch::gplus_span`] names.
    #[inline]
    pub(crate) fn gplus_at(&self, span: Span) -> &[AttrId] {
        span.of(&self.gplus_attrs)
    }
}
