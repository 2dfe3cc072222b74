//! # dpnext-obs
//!
//! The in-tree observability layer: **span tracing** and **metrics** for
//! the optimizer and its serving layer, std-only with no crates.io
//! dependencies (same discipline as the fxhash and shim work — the build
//! box has no registry access).
//!
//! ## Tracing
//!
//! A [`Span`] is a named, monotonically timestamped interval with a
//! bounded set of tags, closed (and delivered to the installed
//! [`TraceSink`]) when its guard drops. Spans nest through a thread-local
//! parent id, so a request trace reconstructs as a tree:
//!
//! ```text
//! serve.request                       shape_hash=0x7c1f outcome=optimized
//! ├─ serve.bind                       (SQL door only: parse + bind)
//! ├─ serve.cache_probe
//! ├─ serve.admission                  (duration = queue wait)
//! └─ serve.optimize
//!    ├─ core.context
//!    └─ adaptive.optimize             n=20 plan_budget=50000
//!       ├─ adaptive.rung.greedy
//!       ├─ adaptive.rung.exact        outcome=budget-aborted
//!       │  ├─ adaptive.gate           cap=4151 gated=false pairs=287
//!       │  └─ engine.enumerate        ccps=230 units=5922 bounded=3198
//!       └─ adaptive.rung.linearized   outcome=budget-aborted
//! ```
//!
//! Tracing is **off by default** and the disabled path is deliberately
//! cheap: [`span`] performs one relaxed atomic load and returns an inert
//! guard — **zero allocations, no clock read, no lock** — so
//! instrumented code is bit-identical in behavior and unmeasurable in
//! cost when tracing is off (pinned by the `disabled_path` regression
//! test with a counting allocator). Tracing is on while a sink is
//! installed ([`install_sink`], [`clear_sink`]): [`RingSink`] keeps the
//! most recent spans in memory; anything else (a trace file, say) is a few
//! lines over the [`TraceSink`] trait.
//!
//! ## Metrics
//!
//! [`Counter`], [`Gauge`] and [`Histogram`] are lock-free `AtomicU64`
//! cells; histograms use fixed log2 buckets, so `observe` is two atomic
//! adds and a `leading_zeros`. A [`Registry`] names the handles (label
//! sets bounded by enum keys — never unbounded user input) and renders
//! point-in-time snapshots in Prometheus text format
//! ([`MetricsSnapshot::render_text`], checked by
//! [`lint_prometheus_text`]). Unlike tracing, metric updates are always
//! on: one relaxed atomic op costs nanoseconds, allocates nothing and
//! cannot change optimizer behavior.

#![warn(missing_docs)]

mod metrics;
mod trace;

pub use metrics::{
    lint_prometheus_text, Counter, FamilySnapshot, Gauge, Histogram, HistogramSnapshot, MetricKind,
    MetricValue, MetricsSnapshot, Registry, HIST_BUCKETS,
};
pub use trace::{
    clear_sink, install_sink, span, spans_closed, spans_opened, RingSink, Span, SpanRecord,
    TagValue, TraceSink,
};
