//! # dpnext-serve
//!
//! Optimizer-as-a-service: a concurrent frontend over the
//! [`dpnext::Optimizer`] facade for workloads that optimize many queries
//! back to back — potentially from many threads at once.
//!
//! The service adds two layers the one-shot facade does not have:
//!
//! * a **plan cache** ([`PlanCache`]) keyed on the canonical shape of
//!   the query ([`QueryShape`]) plus a catalog/statistics *epoch*, so a
//!   repeated query returns its previously optimized plan without
//!   running the DP at all, and
//! * a **memo arena pool** ([`MemoPool`]) so cache-missing
//!   optimizations reuse the plan arena of an earlier run instead of
//!   re-allocating it ([`dpnext_core::optimize_into`]).
//!
//! Both layers are observable: hit/miss/eviction counters on the cache,
//! created/reused/high-water counters on the pool, all surfaced by
//! [`OptimizerService::stats`].
//!
//! On top sits a **robustness layer** (PR 8): every optimizer call runs
//! inside `catch_unwind`, so a panic is contained to its request — the
//! request's memo is **quarantined** (destroyed, never parked back into
//! the pool) and only that caller sees [`ServeError::Panicked`]; an
//! optional per-request **deadline** ([`ServiceConfig::deadline`]) rides
//! the adaptive degradation ladder, so a pressured request returns a
//! valid-but-degraded plan instead of timing out; and a seeded
//! [`FaultInjector`] makes both paths deterministically testable in CI.
//!
//! PR 9 adds **resource governance** (the `govern` types): a per-request
//! **memory budget** ([`ServiceConfig::memory_budget`]) that aborts
//! enumeration when live memo bytes cross it (same ladder, new
//! `memory_aborted` cause); a process-wide **byte ledger**
//! ([`ResourceLedger`]) across pooled *and* checked-out memos —
//! quarantined footprints are released and tallied, never lost — with a
//! load-shed policy that tightens effective deadlines/budgets as the
//! ledger approaches [`ServiceConfig::memory_cap_bytes`]; a bounded
//! **admission gate** ([`AdmissionGate`]) rejecting excess arrivals fast
//! with [`ServeError::Overloaded`] and a retry hint; and a per-shape
//! **circuit breaker** ([`ShapeBreaker`]) that serves repeatedly failing
//! shapes from the greedy rung until a half-open probe succeeds.
//!
//! PR 10 makes all of it **observable** (see `docs/OBSERVABILITY.md`):
//! every counter above lives in a [`dpnext_obs::Registry`] cell shared
//! with [`ServiceStats`] — the two can never disagree — alongside
//! latency / queue-wait / byte **histograms**; the request path emits
//! **trace spans** (`serve.request` down to `engine.enumerate`) when a
//! [`dpnext_obs::TraceSink`] is installed, and is span-free and
//! allocation-free when not; an opt-in **scrape endpoint**
//! ([`MetricsServer`], [`ServiceConfig::metrics_addr`]) serves
//! `/metrics` (Prometheus text) and `/stats.json` from one blocking
//! thread; and the overload retry hint is now *measured* — p50 of the
//! service-time histogram times the gate's line length — instead of a
//! fixed per-request guess.
//!
//! ## Quickstart
//!
//! ```
//! use dpnext::{Algorithm, Optimizer};
//! use dpnext_serve::OptimizerService;
//! use std::sync::Arc;
//!
//! // Wrap a configured facade; Arc it to share across worker threads.
//! let service = Arc::new(OptimizerService::new(Optimizer::new(Algorithm::EaPrune)));
//!
//! let sql = "select n.n_name, count(*) \
//!            from nation n join supplier s on n.n_nationkey = s.s_nationkey \
//!            group by n.n_name";
//! let cold = service.optimize_sql(sql).unwrap();
//! let warm = service.optimize_sql(sql).unwrap();
//!
//! assert!(!cold.cache_hit);
//! assert!(warm.cache_hit);
//! // The cached result is the same plan, bit for bit.
//! assert_eq!(
//!     cold.result.plan.cost.to_bits(),
//!     warm.result.plan.cost.to_bits(),
//! );
//! ```
//!
//! ## Cache-key semantics
//!
//! The key is the *bound query*, not the SQL text: two texts that bind
//! to the same tables, predicates, cardinalities and grouping share one
//! entry (binding is deterministic since the catalog is never mutated
//! by it). Statistics changes are **not** detected — after updating
//! catalog statistics out of band, call
//! [`OptimizerService::bump_stats_epoch`], which moves every new lookup
//! to a fresh epoch and turns the first arrival of each shape into a
//! miss. Superseded entries age out of the FIFO shards.

#![warn(missing_docs)]

mod cache;
mod fault;
mod fingerprint;
mod govern;
mod pool;
mod scrape;
mod service;

pub use cache::{CacheKey, CacheStats, PlanCache};
pub use fault::{Fault, FaultInjector};
pub use fingerprint::{fingerprint_query, QueryShape};
pub use govern::{
    AdmissionGate, BreakerDecision, BreakerStats, GatePermit, GateStats, LedgerStats,
    ResourceLedger, ShapeBreaker,
};
pub use pool::{MemoPool, PoolStats, PooledMemo};
pub use scrape::{MetricsServer, SCRAPE_TIMEOUT};
pub use service::{
    OptimizerService, ServeError, ServeResult, ServiceConfig, ServiceStats, SHED_UTILIZATION,
};
