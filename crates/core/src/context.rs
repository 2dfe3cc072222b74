//! Shared optimization context: the conflicted query, attribute statistics,
//! grouping attributes `G⁺(S)` and aggregate metadata.
//!
//! [`OptContext`] is immutable after construction. All per-run mutable
//! state — the fresh-attribute allocator, the memoized `G⁺(S)` cache, the
//! plans-built counter and the hot-path scratch buffers — lives in
//! [`Scratch`], which the enumeration owns next to its memo.

use crate::fxhash::FxHashMap;
use dpnext_algebra::{AttrId, CmpOp};
use dpnext_conflict::{detect, ConflictedQuery};
use dpnext_hypergraph::NodeSet;
use dpnext_query::Query;
use std::sync::Arc;

/// Context shared by all plan constructors during one optimization run.
pub struct OptContext {
    /// The query being optimized.
    pub query: Query,
    /// Conflict-detection result (TES/SES sets) for the query's operators.
    pub cq: ConflictedQuery,
    /// Attribute → node set required for the attribute to exist.
    pub origins: FxHashMap<AttrId, NodeSet>,
    /// Base distinct counts for table attributes.
    pub base_distinct: FxHashMap<AttrId, f64>,
    /// Grouping attributes `G` of the query (empty when no grouping).
    pub group_by: Vec<AttrId>,
    /// Per normalized aggregate: the attributes its argument references.
    pub agg_args: Vec<Vec<AttrId>>,
    /// Per normalized aggregate: union of argument origins (empty for
    /// `count(*)`).
    pub agg_origin: Vec<NodeSet>,
    /// First attribute id above every catalog/query attribute — the base
    /// from which [`Scratch`] allocators hand out partial/count columns.
    first_fresh: u32,
}

impl OptContext {
    /// Derive the full optimization context (conflict detection,
    /// attribute origins, base statistics) for one query.
    pub fn new(query: Query) -> Self {
        let cq = detect(&query);
        // Applied-operator tracking uses a u64 bitmask (`MemoPlan::applied`);
        // beyond 64 operators the `1 << op_idx` shifts would wrap silently
        // and `all_ops_applied` could accept plans that dropped a predicate.
        assert!(
            cq.ops.len() <= 64,
            "query has {} operators; applied-operator tracking supports at most 64",
            cq.ops.len()
        );
        let origins = query.attr_origins();
        let mut base_distinct = FxHashMap::default();
        for t in &query.tables {
            for (i, &a) in t.attrs.iter().enumerate() {
                base_distinct.insert(a, t.distinct[i]);
            }
        }
        let mut max_attr = 0u32;
        for &a in origins.keys() {
            max_attr = max_attr.max(a.0);
        }
        let (group_by, aggs) = match &query.grouping {
            Some(g) => (g.group_by.clone(), g.aggs.clone()),
            None => (Vec::new(), Vec::new()),
        };
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
                        *origins
                            .get(a)
                            .expect("aggregate argument attribute unknown"),
                    )
                })
            })
            .collect();
        OptContext {
            query,
            cq,
            origins,
            base_distinct,
            group_by,
            agg_args,
            agg_origin,
            first_fresh: max_attr + 1,
        }
    }

    /// The normalized aggregation vector of the query.
    pub fn aggs(&self) -> &[dpnext_algebra::AggCall] {
        self.query
            .grouping
            .as_ref()
            .map(|g| g.aggs.as_slice())
            .unwrap_or(&[])
    }

    /// Whether the query has a `GROUP BY` (or scalar-aggregate) block.
    pub fn has_grouping(&self) -> bool {
        self.query.grouping.is_some()
    }

    /// First id strictly above every query attribute; fresh-attribute
    /// allocators must start at or above this.
    pub fn first_fresh_attr(&self) -> u32 {
        self.first_fresh
    }

    /// Node set an attribute originates from; panics on unknown ids.
    pub fn origin(&self, a: AttrId) -> NodeSet {
        *self
            .origins
            .get(&a)
            .unwrap_or_else(|| panic!("unknown attribute {a}"))
    }

    /// Base distinct count of an attribute (infinite when unknown, e.g.
    /// groupjoin outputs — grouping on them then gives no reduction).
    pub fn distinct(&self, a: AttrId) -> f64 {
        self.base_distinct.get(&a).copied().unwrap_or(f64::INFINITY)
    }

    /// `G⁺(S)` computed from scratch (see [`Scratch::gplus`] for the memoized
    /// variant the plan constructors use): the grouping attributes for a
    /// pushed-down grouping over the relation set `S` — the query's grouping
    /// attributes from `S` plus every attribute of `S` referenced by a
    /// predicate (or groupjoin aggregate) of an operator that is not fully
    /// contained in `S` (§4.2's `G⁺ᵢ = Gᵢ ∪ Jᵢ`, closed under the whole
    /// remaining query so the equivalences stay applicable above `S`).
    pub fn compute_gplus(&self, s: NodeSet) -> Vec<AttrId> {
        let mut attrs: Vec<AttrId> = Vec::new();
        let mut push = |a: AttrId, origins: &FxHashMap<AttrId, NodeSet>| {
            if let Some(org) = origins.get(&a) {
                if org.is_subset_of(s) && !attrs.contains(&a) {
                    attrs.push(a);
                }
            }
        };
        for &a in &self.group_by {
            push(a, &self.origins);
        }
        for op in &self.cq.ops {
            // An operator is applied inside every plan for S as soon as its
            // hyperedge (L-TES ∪ R-TES) lies within S — that is its
            // earliest application point under reordering, not its original
            // subtree position.
            if op.l_tes.union(op.r_tes).is_subset_of(s) {
                continue;
            }
            for a in op.pred.all_attrs() {
                push(a, &self.origins);
            }
            for call in &op.gj_aggs {
                for a in call.referenced() {
                    push(a, &self.origins);
                }
            }
        }
        attrs.sort_unstable();
        attrs
    }

    /// May a plan covering `s` be grouped at all? Every aggregate whose
    /// arguments lie inside `s` must be decomposable (§2.1.2); aggregates
    /// split across the boundary (impossible for single-table arguments)
    /// also forbid grouping.
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
/// memoized `G⁺(S)` cache, the plans-built counter, and the predicate-term
/// scratch buffer of [`crate::plan::make_apply`].
pub struct Scratch {
    next_attr: u32,
    gplus_cache: FxHashMap<NodeSet, Arc<Vec<AttrId>>>,
    /// Plans constructed (joins + groupings) by this scratch's owner.
    pub plans_built: u64,
    /// Scratch for the oriented, merged predicate terms of `make_apply`:
    /// terms are staged here so failed applications allocate nothing.
    pub terms: Vec<(AttrId, CmpOp, AttrId)>,
}

impl Scratch {
    /// Scratch for one run: fresh attributes start right above the
    /// query's own.
    pub fn new(ctx: &OptContext) -> Scratch {
        Scratch {
            next_attr: ctx.first_fresh_attr(),
            gplus_cache: FxHashMap::default(),
            plans_built: 0,
            terms: Vec::new(),
        }
    }

    /// Allocate the next fresh attribute id.
    pub fn fresh_attr(&mut self) -> AttrId {
        let id = AttrId(self.next_attr);
        self.next_attr = self
            .next_attr
            .checked_add(1)
            .expect("fresh-attribute space (u32) exhausted");
        id
    }

    /// Record one constructed plan in the scratch counter.
    pub fn count_plan(&mut self) {
        self.plans_built += 1;
    }

    /// Memoized `G⁺(S)` (§4.2); see [`OptContext::compute_gplus`].
    ///
    /// Returns a borrow of the cached vector: a cache hit is one map
    /// probe — no `Arc` refcount traffic on the enumeration hot path.
    /// Callers that need the scratch again while holding the attributes
    /// use [`Scratch::gplus_arc`].
    pub fn gplus(&mut self, ctx: &OptContext, s: NodeSet) -> &[AttrId] {
        self.gplus_cache
            .entry(s)
            .or_insert_with(|| Arc::new(ctx.compute_gplus(s)))
    }

    /// Owning variant of [`Scratch::gplus`] for callers that must keep
    /// using the scratch (e.g. to allocate fresh attributes) while the
    /// grouping attributes are alive — clones the cache's `Arc`.
    pub fn gplus_arc(&mut self, ctx: &OptContext, s: NodeSet) -> Arc<Vec<AttrId>> {
        self.gplus_cache
            .entry(s)
            .or_insert_with(|| Arc::new(ctx.compute_gplus(s)))
            .clone()
    }
}
