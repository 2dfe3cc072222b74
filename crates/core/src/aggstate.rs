//! Aggregation-state rewriting: the mechanical core of the paper's
//! equivalences (Fig. 3), generalized to arbitrary nesting.
//!
//! Every plan carries, per original aggregate, a position
//! (`Raw` or `Partial{col, scope}`) plus the list of active *count columns*
//! `(scope, col)` with pairwise-disjoint scopes — two plain sequences the
//! memo keeps in its lanes ([`AggRef`] is the view over them). Introducing a grouping
//! applies `F¹ ∘ (c : count(*))` to its own side's aggregates and the
//! `F ⊗ c` duplicate adjustment of §2.1.3 to everything duplicate
//! sensitive:
//!
//! * the new count column is `count(*)`, or `sum(Π old counts)` when the
//!   input is already pre-aggregated (`count(*) ⊗ c = sum(c)`),
//! * a raw duplicate-sensitive aggregate is adjusted by the product of
//!   **all** active counts (each row stands for that many original tuples),
//! * a partial aggregate is adjusted by all counts **except its own
//!   scope's** — exactly `F² ⊗ c` of the Eager/Lazy Split equivalences
//!   (Eqvs. 34–36).

use crate::context::{OptContext, Scratch};
use crate::memo::{Lanes, Span};
use dpnext_algebra::{AggCall, AggKind, AttrId, Expr, Value};
use dpnext_hypergraph::NodeSet;

/// Where an original aggregate currently lives in a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggPos {
    /// Not yet (partially) computed; its argument attributes are visible.
    Raw,
    /// Partially aggregated into `col` by a grouping over `scope`.
    Partial {
        /// Attribute holding the partial aggregate.
        col: AttrId,
        /// Node set of the grouping that produced the partial.
        scope: NodeSet,
    },
}

/// The aggregation state of a plan, borrowed: two slices, wherever they
/// live (an owned [`AggState`] or the memo's lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggRef<'a> {
    /// Indexed like the query's normalized aggregation vector.
    /// `count(*)` aggregates stay `Raw` forever: their value is derived
    /// from the count columns (`count(*) = sum(Π cᵢ)`).
    pub pos: &'a [AggPos],
    /// Active count columns with pairwise-disjoint scopes.
    pub counts: &'a [(NodeSet, AttrId)],
}

impl AggRef<'_> {
    /// The multiplicity expression `Π cᵢ` over all count columns, if any.
    pub fn multiplier(&self) -> Option<Expr> {
        product(self.counts.iter().map(|&(_, c)| c))
    }

    /// `Π cᵢ` over all count columns except the one owning `scope`.
    pub fn multiplier_excluding(&self, scope: NodeSet) -> Option<Expr> {
        product(
            self.counts
                .iter()
                .filter(|(s, _)| *s != scope)
                .map(|&(_, c)| c),
        )
    }

    /// True when the plan was pre-aggregated anywhere.
    pub fn is_grouped(&self) -> bool {
        !self.counts.is_empty()
    }

    /// All columns (count + partial) this state materializes, with the
    /// default value each must take when the side is NULL-padded by an
    /// outerjoin: `F¹({⊥})` and `c : 1` (Eqvs. 11/12, 14/15, 20/21, …).
    pub fn padding_defaults(&self, aggs: &[AggCall]) -> Vec<(AttrId, Value)> {
        let mut out = Vec::new();
        for &(_, c) in self.counts {
            out.push((c, Value::Int(1)));
        }
        for (i, p) in self.pos.iter().enumerate() {
            if let AggPos::Partial { col, .. } = p {
                out.push((*col, aggs[i].eval_null_tuple()));
            }
        }
        out
    }
}

/// Where an aggregate lives after joining a plan holding it at `l` with
/// one holding it at `r` (disjoint relation sets).
#[inline]
pub(crate) fn merge_one(l: AggPos, r: AggPos) -> AggPos {
    match (l, r) {
        (p, AggPos::Raw) | (AggPos::Raw, p) => p,
        (AggPos::Partial { .. }, AggPos::Partial { .. }) => {
            unreachable!("aggregate partially computed on both sides of a join")
        }
    }
}

/// The aggregation state of a plan, owned — how the context holds a scan's
/// state and how tests write one down; the memo keeps the same
/// two sequences in its lanes ([`AggRef`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AggState {
    /// See [`AggRef::pos`].
    pub pos: Vec<AggPos>,
    /// See [`AggRef::counts`].
    pub counts: Vec<(NodeSet, AttrId)>,
}

impl AggState {
    /// The state of a base-table plan: every aggregate raw, no counts.
    pub fn fresh(n_aggs: usize) -> Self {
        AggState {
            pos: vec![AggPos::Raw; n_aggs],
            counts: Vec::new(),
        }
    }

    /// The borrowed view the read-only operations live on.
    pub fn as_ref(&self) -> AggRef<'_> {
        AggRef {
            pos: &self.pos,
            counts: &self.counts,
        }
    }
}

fn product(mut cols: impl Iterator<Item = AttrId>) -> Option<Expr> {
    let first = cols.next()?;
    Some(cols.fold(Expr::attr(first), |acc, c| acc.mul(Expr::attr(c))))
}

/// Multiply an expression by an optional multiplier.
fn times(e: Expr, m: Option<&Expr>) -> Expr {
    match m {
        Some(m) => e.mul(m.clone()),
        None => e,
    }
}

/// `count(arg) ⊗ c`: `sum(arg IS NULL ? 0 : c)`. Falls back to plain
/// `count(arg)` without counts.
fn count_times(arg: &Expr, m: Option<&Expr>, out: AttrId) -> AggCall {
    match m {
        None => AggCall::new(out, AggKind::Count, arg.clone()),
        Some(m) => {
            let attr = match arg {
                Expr::Attr(a) => *a,
                other => panic!("count(⊗) requires an attribute argument, got {other}"),
            };
            AggCall::new(
                out,
                AggKind::Sum,
                Expr::IfNull(attr, Box::new(Expr::int(0)), Box::new(m.clone())),
            )
        }
    }
}

/// Does a grouping over `s` rewrite original aggregate `i`? `count(*)` is
/// derived from the count columns, and an aggregate whose arguments lie
/// outside `s` is untouched.
fn grouped_here(ctx: &OptContext, i: usize, s: NodeSet) -> bool {
    if ctx.aggs()[i].kind == AggKind::CountStar {
        return false;
    }
    let org = ctx.agg_origin[i];
    if org.is_empty() || !org.is_subset_of(s) {
        debug_assert!(!org.intersects(s), "can_group must reject split aggregates");
        return false;
    }
    true
}

/// The fresh columns a grouping pushed onto a plan covering `s` takes: the
/// new count plus one per aggregate it rewrites. [`push_grouped_state`]
/// allocates exactly these, and a work unit settled by the complete-plan
/// bound advances the allocator by them for each grouping it does not
/// build ([`crate::optrees::Grid::settle`]).
#[inline]
pub(crate) fn grouping_columns(ctx: &OptContext, s: NodeSet) -> u32 {
    1 + (0..ctx.aggs().len())
        .filter(|&i| grouped_here(ctx, i, s))
        .count() as u32
}

/// Derive the aggregation state after a pushed-down grouping `Γ_{G⁺(S);
/// F¹ ∘ (c : count(*))}` over a plan covering `s` whose positions are the
/// run `input_pos` of the position lane, and append it to the lanes: one
/// fresh column for the new count, then one per rewritten aggregate in
/// vector order (`grouping_columns` consecutive ids). Returns the new
/// `(positions, counts)` spans. Only the state is derived here — the
/// enumeration never needs the aggregate *calls*; [`group_agg_calls`]
/// rebuilds them for a plan that is compiled.
#[inline]
pub fn push_grouped_state(
    ctx: &OptContext,
    scratch: &mut Scratch,
    lanes: &mut Lanes,
    input_pos: Span,
    s: NodeSet,
) -> (Span, Span) {
    let c_new = scratch.fresh_attrs(grouping_columns(ctx, s));
    let mut col = c_new;
    let counts = Span::new(lanes.counts.len(), 1);
    lanes.counts.push((s, c_new));
    let pos = Span::new(lanes.agg_pos.len(), input_pos.len as usize);
    lanes.agg_pos.reserve(pos.len as usize);
    for (i, at) in input_pos.range().enumerate() {
        let p = if grouped_here(ctx, i, s) {
            col.0 += 1;
            AggPos::Partial { col, scope: s }
        } else {
            lanes.agg_pos[at]
        };
        lanes.agg_pos.push(p);
    }
    (pos, counts)
}

/// The aggregation vector of the grouping node that took a plan covering
/// `s` from state `input` to state `output` (as [`push_grouped_state`]
/// derived it): the count column first, then the rewritten aggregates,
/// each landing in the column `output` recorded for it.
pub fn group_agg_calls(
    ctx: &OptContext,
    input: AggRef<'_>,
    output: AggRef<'_>,
    s: NodeSet,
) -> Vec<AggCall> {
    let &[(_, c_new)] = output.counts else {
        panic!("a grouping leaves exactly one count column");
    };
    let mut calls = vec![match input.multiplier() {
        None => AggCall::count_star(c_new),
        Some(m) => AggCall::new(c_new, AggKind::Sum, m),
    }];
    for (i, call) in ctx.aggs().iter().enumerate() {
        if !grouped_here(ctx, i, s) {
            continue;
        }
        let AggPos::Partial { col: out, .. } = output.pos[i] else {
            panic!("rewritten aggregate {i} has no partial column");
        };
        let arg = call
            .arg
            .as_ref()
            .expect("non-count(*) aggregate needs an argument");
        calls.push(match input.pos[i] {
            AggPos::Raw => {
                let m = input.multiplier();
                match call.kind {
                    AggKind::Min | AggKind::Max => AggCall::new(out, call.kind, arg.clone()),
                    AggKind::Sum => AggCall::new(out, AggKind::Sum, times(arg.clone(), m.as_ref())),
                    AggKind::Count => count_times(arg, m.as_ref(), out),
                    other => unreachable!("grouping over non-decomposable aggregate {other}"),
                }
            }
            AggPos::Partial { col, scope } => {
                let m = input.multiplier_excluding(scope);
                match call.kind.combine() {
                    AggKind::Min => AggCall::new(out, AggKind::Min, Expr::attr(col)),
                    AggKind::Max => AggCall::new(out, AggKind::Max, Expr::attr(col)),
                    _ => AggCall::new(out, AggKind::Sum, times(Expr::attr(col), m.as_ref())),
                }
            }
        });
    }
    calls
}

/// The final aggregation vector for the top grouping `Γ_G` over a plan in
/// state `state` — every aggregate lands in its original output attribute.
pub fn final_agg_vector(ctx: &OptContext, state: AggRef<'_>) -> Vec<AggCall> {
    let m = state.multiplier();
    let mut calls = Vec::with_capacity(ctx.aggs().len());
    for (i, call) in ctx.aggs().iter().enumerate() {
        let out = call.out;
        let built = match state.pos[i] {
            AggPos::Raw => match call.kind {
                AggKind::CountStar => match &m {
                    None => AggCall::count_star(out),
                    Some(m) => AggCall::new(out, AggKind::Sum, m.clone()),
                },
                AggKind::Sum => AggCall::new(
                    out,
                    AggKind::Sum,
                    times(call.arg.clone().unwrap(), m.as_ref()),
                ),
                AggKind::Count => count_times(call.arg.as_ref().unwrap(), m.as_ref(), out),
                // Duplicate-agnostic functions ignore multiplicities.
                AggKind::Min
                | AggKind::Max
                | AggKind::CountDistinct
                | AggKind::SumDistinct
                | AggKind::AvgDistinct => AggCall {
                    out,
                    kind: call.kind,
                    arg: call.arg.clone(),
                },
                AggKind::Avg => unreachable!("avg is normalized away"),
            },
            AggPos::Partial { col, scope } => {
                let m_ex = state.multiplier_excluding(scope);
                match call.kind.combine() {
                    AggKind::Min => AggCall::new(out, AggKind::Min, Expr::attr(col)),
                    AggKind::Max => AggCall::new(out, AggKind::Max, Expr::attr(col)),
                    _ => AggCall::new(out, AggKind::Sum, times(Expr::attr(col), m_ex.as_ref())),
                }
            }
        };
        calls.push(built);
    }
    calls
}

/// The per-row expressions replacing an *eliminated* top grouping
/// (Eqv. 42: `Γ_{G;F}(e) ≡ Π_C(χ_F̂(e))` when `G` contains a key and `e`
/// is duplicate-free): each group holds exactly one tuple, which may still
/// stand for `Π cᵢ` original tuples.
pub fn final_map_exprs(ctx: &OptContext, state: AggRef<'_>) -> Vec<(AttrId, Expr)> {
    let m = state.multiplier();
    let one_or_m = || m.clone().unwrap_or_else(|| Expr::int(1));
    let mut exts = Vec::with_capacity(ctx.aggs().len());
    for (i, call) in ctx.aggs().iter().enumerate() {
        let out = call.out;
        let expr = match state.pos[i] {
            AggPos::Raw => match call.kind {
                AggKind::CountStar => one_or_m(),
                AggKind::Sum => times(call.arg.clone().unwrap(), m.as_ref()),
                AggKind::Count | AggKind::CountDistinct => {
                    let attr = match call.arg.as_ref().unwrap() {
                        Expr::Attr(a) => *a,
                        other => panic!("count elimination requires attribute arg, got {other}"),
                    };
                    let v = if call.kind == AggKind::Count {
                        one_or_m()
                    } else {
                        Expr::int(1)
                    };
                    Expr::IfNull(attr, Box::new(Expr::int(0)), Box::new(v))
                }
                AggKind::Min | AggKind::Max | AggKind::SumDistinct => call.arg.clone().unwrap(),
                // `avg` of a single value, typed as a decimal.
                AggKind::AvgDistinct => call.arg.clone().unwrap().div(Expr::int(1)),
                AggKind::Avg => unreachable!("avg is normalized away"),
            },
            AggPos::Partial { col, scope } => {
                let m_ex = state.multiplier_excluding(scope);
                match call.kind.combine() {
                    AggKind::Min | AggKind::Max => Expr::attr(col),
                    _ => times(Expr::attr(col), m_ex.as_ref()),
                }
            }
        };
        exts.push((out, expr));
    }
    exts
}
