//! Plan constructors: build scan / apply / grouping nodes with their
//! derived logical properties directly into the [`Memo`] arena. A
//! constructor appends the new plan's payload to the memo's lanes — or
//! copies an input's span where the derived property *is* the input's —
//! and pushes the two `Copy` rows last; nothing is allocated per plan
//! beyond the lanes' amortised growth.
//!
//! Operator applications are split into a **staging** step
//! ([`stage_apply`]: orient and merge the predicate terms, fold the
//! selectivities, take the distinct-count products, precompute the
//! applied-mask bits — everything that depends only on the cut, not on
//! the particular plan pair) and a per-pair **application** step
//! ([`apply_staged`]). The enumeration stages once per orientation and
//! then applies across the whole `t1 × t2` candidate grid, so the hot
//! loop does no per-plan predicate cloning or re-orientation.

use crate::aggstate::{merge_one, push_grouped_state, AggPos, AggRef};
use crate::context::{OptContext, Scratch};
use crate::memo::{Memo, PlanCold, PlanHot, PlanId, PlanNode, Span, Term};
use dpnext_algebra::{AttrId, CmpOp};
use dpnext_cost::{distinct_in, grouping_card, join_card};
use dpnext_hypergraph::NodeSet;
use dpnext_keys::{infer_join_keys_presorted, join_duplicate_free, JoinKeys, KeysRef};
use dpnext_query::OpKind;

/// Build a scan plan for table occurrence `i`.
pub fn make_scan(ctx: &OptContext, memo: &mut Memo, i: usize) -> PlanId {
    let t = &ctx.query.tables[i];
    let keys = ctx.table_keys[i].as_ref();
    let hot = PlanHot::new(
        NodeSet::single(i),
        t.card,
        0.0, // scans are free under C_out
        0,
        false,
        // SQL key declarations imply duplicate-freeness (§3.2 remark).
        !keys.is_empty(),
        false,
    );
    memo.push_plan(
        hot,
        PlanNode::Scan { table: i as u32 },
        keys,
        ctx.fresh_agg.as_ref(),
        &t.attrs,
    )
}

/// The key-implied bound of a key set: a duplicate-free result has at most
/// one tuple per key value, so it cannot exceed the product of any key's
/// distinct counts — the minimum over the keys of that product, infinite
/// when there is no key (or no key with known distinct counts).
/// [`apply_staged`] caps a duplicate-free result's estimate by the bound of
/// the key set it derives. Without the cap the estimate can contradict the
/// key info, and `NeedsGrouping` then elides a grouping the estimator still
/// thinks would shrink the input — which breaks the monotonicity argument
/// behind the §4.6 dominance pruning (a dominating keyed plan could forfeit
/// a reduction the dominated raw plan kept). The cap is constant in the
/// input cardinalities, so estimates stay monotone as the pruning proof
/// requires.
fn key_cap(ctx: &OptContext, keys: KeysRef<'_>) -> f64 {
    let mut cap = f64::INFINITY;
    for key in keys.iter() {
        // Unknown distinct counts are infinite: no cap from such keys.
        let bound: f64 = key.iter().map(|&a| ctx.distinct(a).max(1.0)).product();
        cap = cap.min(bound);
    }
    cap
}

/// Orient one predicate term so its left attribute comes from `left_set`.
fn orient_term(ctx: &OptContext, (l, op, r): Term, left_set: NodeSet) -> Term {
    if ctx.origin(l).is_subset_of(left_set) {
        (l, op, r)
    } else {
        debug_assert!(ctx.origin(r).is_subset_of(left_set));
        (r, op.flip(), l)
    }
}

/// The predicate terms crossing a cut — operator `op_idx`'s, then those
/// of the extra same-cut inner joins — each oriented so its left attribute
/// comes from `left_set`.
pub(crate) fn cut_terms<'a>(
    ctx: &'a OptContext,
    op_idx: usize,
    extra: &'a [usize],
    left_set: NodeSet,
) -> impl Iterator<Item = Term> + 'a {
    std::iter::once(op_idx)
        .chain(extra.iter().copied())
        .flat_map(move |i| ctx.cq.ops[i].pred.terms.iter())
        .map(move |&t| orient_term(ctx, t, left_set))
}

/// What a cut feeds [`join_card`], given its oriented `terms`
/// ([`cut_terms`]): the selectivity of operator `op_idx` times those of
/// the extra same-cut inner joins, and the products of the distinct
/// counts of the terms' left and of their right attributes (the match
/// probability's inputs). [`stage_apply`] stages these values, and the
/// greedy pass estimates a cut with them.
pub(crate) fn cut_estimate(
    ctx: &OptContext,
    op_idx: usize,
    extra: &[usize],
    terms: impl IntoIterator<Item = Term>,
) -> (f64, f64, f64) {
    let ops = &ctx.cq.ops;
    let sel = extra.iter().fold(ops[op_idx].sel, |s, &e| s * ops[e].sel);
    let (mut d_left, mut d_right) = (1.0, 1.0);
    for (l, _, r) in terms {
        d_left *= ctx.distinct(l);
        d_right *= ctx.distinct(r);
    }
    (sel, d_left, d_right)
}

/// The cut-level constants of one operator application: identical for
/// every plan pair of one orientation, filled in by [`stage_apply`]. The
/// value is reusable — staging the next cut overwrites it in place and
/// keeps its two attribute buffers.
pub struct StagedApply {
    /// Index of the primary operator into the conflicted query's list.
    pub op_idx: usize,
    /// Operator kind (join, outer join, groupjoin, ...).
    pub kind: OpKind,
    /// Oriented, merged predicate in the memo's term lane — every plan
    /// built from this staging carries the same span.
    pub pred: Span,
    /// Merged selectivity (primary × extra same-cut inner joins).
    pub sel: f64,
    /// Product of the left predicate attributes' distinct counts.
    pub d_left: f64,
    /// Product of the right predicate attributes' distinct counts.
    pub d_right: f64,
    /// Applied-mask bits this cut contributes (primary + extras).
    pub applied_bits: u64,
    /// Is the predicate a non-empty conjunction of equalities? Gates the
    /// key-preserving cases of the §2.3 propagation.
    pub pred_equi: bool,
    /// Left-side predicate attributes, sorted and deduplicated — the
    /// per-pair key inference runs its cover tests straight off these
    /// slices instead of re-collecting and re-sorting per plan.
    pub left_attrs: Vec<AttrId>,
    /// Right-side predicate attributes, sorted and deduplicated.
    pub right_attrs: Vec<AttrId>,
}

impl Default for StagedApply {
    /// A blank staging for [`stage_apply`] to fill.
    fn default() -> StagedApply {
        StagedApply {
            op_idx: 0,
            kind: OpKind::Join,
            pred: Span::default(),
            sel: 1.0,
            d_left: 1.0,
            d_right: 1.0,
            applied_bits: 0,
            pred_equi: false,
            left_attrs: Vec::new(),
            right_attrs: Vec::new(),
        }
    }
}

/// Stage operator `op_idx` (plus any extra inner-join edges crossing the
/// same cut, for cyclic queries) for application with `left_set` as the
/// physical left side, into `staged`: orient and merge all predicate terms
/// (appended to the memo's term lane), fold the selectivities and take the
/// per-side distinct products. Every plan of one orientation shares the
/// staged values — all plans in a class cover the same relation set, so
/// term orientation and attribute origins cannot differ across the
/// candidate grid.
pub fn stage_apply(
    ctx: &OptContext,
    memo: &mut Memo,
    staged: &mut StagedApply,
    op_idx: usize,
    extra: &[usize],
    left_set: NodeSet,
) {
    debug_assert!(
        extra.iter().all(|&e| ctx.cq.ops[e].op == OpKind::Join),
        "only inner joins may share a cut"
    );
    let lane = &mut memo.lanes.terms;
    let start = lane.len();
    // Merge and orient all predicates crossing this cut.
    lane.extend(cut_terms(ctx, op_idx, extra, left_set));
    let terms = &lane[start..];
    staged.op_idx = op_idx;
    staged.kind = ctx.cq.ops[op_idx].op;
    staged.pred = Span::new(start, terms.len());
    (staged.sel, staged.d_left, staged.d_right) =
        cut_estimate(ctx, op_idx, extra, terms.iter().copied());
    staged.applied_bits = extra.iter().fold(1u64 << op_idx, |b, &e| b | 1 << e);
    // Pre-digest the predicate for the per-pair key inference: equi
    // classification plus sorted, deduplicated per-side attribute sets.
    staged.pred_equi = !terms.is_empty() && terms.iter().all(|&(_, cmp, _)| cmp == CmpOp::Eq);
    assign_normalized(&mut staged.left_attrs, terms.iter().map(|t| t.0));
    assign_normalized(&mut staged.right_attrs, terms.iter().map(|t| t.2));
}

/// What an operator application reads of one input alone, given the cut
/// it is staged for ([`StagedApply::left_facts`],
/// [`StagedApply::right_facts`]): a grid decides it once per plan of a
/// side ([`crate::optrees::GridPlan`]), and once per side for a grouping
/// `Γ(t)` on it ([`crate::optrees::GridSide`]), so the plan pairs of the
/// grid read it instead of testing the input again.
#[derive(Debug, Clone, Copy, Default)]
pub struct SideFacts {
    /// The input exposes every predicate attribute of its side, and a right
    /// input every groupjoin argument too: the input's half of what
    /// [`apply_staged`] refuses.
    pub(crate) sees: bool,
    /// The predicate is a non-empty conjunction of equalities and some key
    /// of the input lies within its side's predicate attributes: the bit
    /// the §2.3 key propagation branches on.
    pub(crate) covers: bool,
    /// The key-implied bound of the input's own key set (`key_cap`):
    /// what caps a duplicate-free result that inherits that key set.
    pub(crate) cap: f64,
}

impl StagedApply {
    /// Would [`apply_staged`] refuse this cut on inputs with the facts
    /// `left` and `right`, the right one pre-aggregated iff
    /// `right_grouped`? It does when a groupjoin would consume a
    /// pre-aggregated right side (its aggregates would run over groups, not
    /// raw tuples), and — defensively, since structure prevents it — when
    /// a predicate attribute or a groupjoin argument is not visible on its
    /// side: per plan, not per cut, because a pushed-down grouping changes
    /// which attributes its side exposes. The test is a left half, a right
    /// half and the groupjoin term: a grid decides each half once per plan,
    /// and a work unit settled by the complete-plan bound combines them for
    /// the trees it does not build ([`crate::optrees::Grid::settle`]).
    #[inline]
    pub(crate) fn refuses(&self, left: SideFacts, right: SideFacts, right_grouped: bool) -> bool {
        (self.kind == OpKind::GroupJoin && right_grouped) || !left.sees || !right.sees
    }

    /// The facts of a left input exposing `visible` with the key set
    /// `keys`.
    #[inline]
    pub fn left_facts(&self, ctx: &OptContext, visible: &[AttrId], keys: KeysRef<'_>) -> SideFacts {
        let sees = self.left_attrs.iter().all(|a| visible.contains(a));
        self.facts(ctx, sees, &self.left_attrs, keys)
    }

    /// The facts of a right input exposing `visible` with the key set
    /// `keys`: it must expose every groupjoin argument as well.
    #[inline]
    pub fn right_facts(
        &self,
        ctx: &OptContext,
        visible: &[AttrId],
        keys: KeysRef<'_>,
    ) -> SideFacts {
        let sees = self.right_attrs.iter().all(|a| visible.contains(a))
            && ctx.gj_args[self.op_idx].iter().all(|a| visible.contains(a));
        self.facts(ctx, sees, &self.right_attrs, keys)
    }

    /// The facts of an input whose visibility test gave `sees`, on the side
    /// whose predicate attributes are `attrs`.
    #[inline]
    fn facts(
        &self,
        ctx: &OptContext,
        sees: bool,
        attrs: &[AttrId],
        keys: KeysRef<'_>,
    ) -> SideFacts {
        SideFacts {
            sees,
            covers: self.pred_equi && keys.some_key_within_sorted(attrs),
            cap: key_cap(ctx, keys),
        }
    }
}

/// Make `side` the sorted, deduplicated set of `attrs`.
fn assign_normalized(side: &mut Vec<AttrId>, attrs: impl Iterator<Item = AttrId>) {
    side.clear();
    side.extend(attrs);
    side.sort_unstable();
    side.dedup();
}

/// Apply a staged operator on two plans, each given with its
/// [`SideFacts`] for the cut. `left`/`right` are already in physical
/// orientation (the staging's `left_set` side). Returns `None` when
/// `StagedApply::refuses` the pair: a groupjoin over a pre-aggregated
/// right side, or an attribute it needs not visible.
#[inline]
pub fn apply_staged(
    ctx: &OptContext,
    scratch: &mut Scratch,
    memo: &mut Memo,
    staged: &StagedApply,
    (left_id, lfacts): (PlanId, SideFacts),
    (right_id, rfacts): (PlanId, SideFacts),
) -> Option<PlanId> {
    let op = &ctx.cq.ops[staged.op_idx];
    let kind = staged.kind;
    // The rows are `Copy`: take them out, then write the lanes freely.
    let (left, right) = (memo[left_id], memo[right_id]);
    if staged.refuses(lfacts, rfacts, right.has_grouping()) {
        return None;
    }
    let (lcold, rcold) = (*memo.plan(left_id).cold, *memo.plan(right_id).cold);
    let lanes = &mut memo.lanes;

    let raw_card = join_card(
        kind,
        left.card,
        right.card,
        staged.sel,
        staged.d_left,
        staged.d_right,
    );
    let (lkeys, rkeys) = (lanes.key_set(lcold.keys), lanes.key_set(rcold.keys));
    let source = infer_join_keys_presorted(
        kind,
        lkeys,
        rkeys,
        lfacts.covers,
        rfacts.covers,
        &mut memo.key_buf,
    );
    let duplicate_free = join_duplicate_free(kind, left.duplicate_free(), right.duplicate_free());
    let built = memo.key_buf.as_ref();
    let key_sig = match source {
        JoinKeys::Left => left.key_sig(),
        JoinKeys::Right => right.key_sig(),
        JoinKeys::Built => built.signature(),
    };
    // A duplicate-free result is capped by its key set's bound: an
    // inherited key set's is its side's fact, only a combination's is
    // taken here.
    let card = match source {
        _ if !duplicate_free => raw_card,
        JoinKeys::Left => raw_card.min(lfacts.cap),
        JoinKeys::Right => raw_card.min(rfacts.cap),
        JoinKeys::Built => raw_card.min(key_cap(ctx, built)),
    };
    let cost = left.cost + right.cost + card;
    // Where a derived property *is* an input's property the new row names
    // the input's span; only combinations are written out.
    let keys = match source {
        JoinKeys::Left => lcold.keys,
        JoinKeys::Right => rcold.keys,
        JoinKeys::Built => lanes.push_key_set(memo.key_buf.as_ref()),
    };
    let (agg_pos, counts) = if !kind.preserves_right() || !right.has_grouping() {
        // Semi/anti/groupjoin keep only left tuples, so the merged state
        // restricted to the left set collapses to the left state (left
        // scopes are subsets of `left.set` by construction, right scopes
        // are disjoint from it); and a right side without any grouping
        // contributes the fresh state, the identity of the merge.
        debug_assert!(if kind.preserves_right() {
            is_fresh(lanes.agg(&rcold))
        } else {
            confined_to(lanes.agg(&lcold), left.set)
        });
        (lcold.agg_pos, lcold.counts)
    } else if !left.has_grouping() {
        debug_assert!(is_fresh(lanes.agg(&lcold)));
        (rcold.agg_pos, rcold.counts)
    } else {
        let pos = &mut lanes.agg_pos;
        let merged = Span::new(pos.len(), lcold.agg_pos.len as usize);
        pos.reserve(merged.len as usize);
        for (l, r) in lcold.agg_pos.range().zip(rcold.agg_pos.range()) {
            let m = merge_one(pos[l], pos[r]);
            pos.push(m);
        }
        let start = lanes.counts.len();
        lanes.counts.extend_from_within(lcold.counts.range());
        lanes.counts.extend_from_within(rcold.counts.range());
        (merged, Span::new(start, lanes.counts.len() - start))
    };
    let visible = if kind.preserves_right() || !op.gj_aggs.is_empty() {
        let attrs = &mut lanes.attrs;
        let start = attrs.len();
        attrs.extend_from_within(lcold.visible.range());
        if kind.preserves_right() {
            attrs.extend_from_within(rcold.visible.range());
        }
        attrs.extend(op.gj_aggs.iter().map(|c| c.out));
        Span::new(start, attrs.len() - start)
    } else {
        lcold.visible
    };

    debug_assert_eq!(
        left.applied & right.applied,
        0,
        "operator applied twice across join inputs"
    );
    scratch.count_plan();
    let hot = PlanHot::new(
        left.set.union(right.set),
        card,
        cost,
        left.applied | right.applied | staged.applied_bits,
        left.has_grouping() || right.has_grouping(),
        duplicate_free,
        false,
    )
    .with_key_sig(key_sig);
    let cold = PlanCold {
        node: PlanNode::Apply {
            op: kind,
            op_idx: staged.op_idx as u8,
            pred: staged.pred,
            left: left_id,
            right: right_id,
        },
        keys,
        agg_pos,
        counts,
        visible,
    };
    Some(memo.push_row(hot, cold))
}

/// No aggregate partially computed, no count column: the state of a plan
/// without any grouping below it.
fn is_fresh(agg: AggRef<'_>) -> bool {
    agg.counts.is_empty() && agg.pos.iter().all(|p| *p == AggPos::Raw)
}

/// Every count column and partial aggregate was produced within `set`.
fn confined_to(agg: AggRef<'_>, set: NodeSet) -> bool {
    agg.counts.iter().all(|&(scope, _)| scope.is_subset_of(set))
        && agg.pos.iter().all(|p| match *p {
            AggPos::Raw => true,
            AggPos::Partial { scope, .. } => scope.is_subset_of(set),
        })
}

/// Apply operator `op_idx` (plus any extra inner-join edges crossing the
/// same cut) on two plans — the one-shot convenience form: stages and
/// applies in one call. The enumeration hot loop uses
/// [`stage_apply`] + [`apply_staged`] directly to amortize the staging
/// over a whole candidate grid.
pub fn make_apply(
    ctx: &OptContext,
    scratch: &mut Scratch,
    memo: &mut Memo,
    op_idx: usize,
    extra: &[usize],
    left_id: PlanId,
    right_id: PlanId,
) -> Option<PlanId> {
    let mut staged = StagedApply::default();
    stage_apply(ctx, memo, &mut staged, op_idx, extra, memo[left_id].set);
    let (left, right) = (memo.plan(left_id), memo.plan(right_id));
    let lfacts = staged.left_facts(ctx, left.visible(), left.keys());
    let rfacts = staged.right_facts(ctx, right.visible(), right.keys());
    apply_staged(
        ctx,
        scratch,
        memo,
        &staged,
        (left_id, lfacts),
        (right_id, rfacts),
    )
}

/// Wrap a plan in an eager-aggregation grouping over `G⁺(S)`.
///
/// Callers must have checked `ctx.can_group(input.set)` and the usefulness
/// condition (`NeedsGrouping`); this constructor only assembles the node.
pub fn make_group(
    ctx: &OptContext,
    scratch: &mut Scratch,
    memo: &mut Memo,
    input_id: PlanId,
) -> PlanId {
    let gplus = scratch.gplus_span(ctx, memo[input_id].set);
    group_over(ctx, scratch, memo, input_id, gplus)
}

/// [`make_group`] with `G⁺(S)` already looked up: `gplus` names it in
/// `scratch` ([`Scratch::gplus_span`]), as a grid takes it once per side.
#[inline]
pub(crate) fn group_over(
    ctx: &OptContext,
    scratch: &mut Scratch,
    memo: &mut Memo,
    input_id: PlanId,
    gplus: Span,
) -> PlanId {
    let input = memo[input_id];
    let icold = *memo.plan(input_id).cold;
    let s = input.set;
    let lanes = &mut memo.lanes;
    // One run of the attribute lane serves three purposes: `G⁺(S)` is the
    // node's grouping attributes, its single key, and — followed by the
    // count column and the partial aggregates — its visible attributes.
    let attrs = lanes.push_attrs(scratch.gplus_at(gplus));
    debug_assert!(
        attrs
            .of(&lanes.attrs)
            .iter()
            .all(|a| icold.visible.of(&lanes.attrs).contains(a)),
        "G⁺({s}) not fully visible"
    );
    let card = grouping_card(
        input.card,
        attrs
            .of(&lanes.attrs)
            .iter()
            .map(|&a| distinct_in(ctx.distinct(a), input.card)),
    );
    let (agg_pos, counts) = push_grouped_state(ctx, scratch, lanes, icold.agg_pos, s);
    let visible = Span::new(
        attrs.start as usize,
        lanes.attrs.len() - attrs.start as usize,
    );
    let keys = Span::new(lanes.keys.len(), 1);
    lanes.keys.push(attrs);
    let key_sig = lanes.key_set(keys).signature();
    scratch.count_plan();
    memo.push_row(
        PlanHot::new(s, card, input.cost + card, input.applied, true, true, true)
            .with_key_sig(key_sig),
        PlanCold {
            node: PlanNode::Group {
                attrs,
                input: input_id,
            },
            keys,
            agg_pos,
            counts,
            visible,
        },
    )
}
