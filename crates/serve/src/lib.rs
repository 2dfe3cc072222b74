//! # dpnext-serve
//!
//! Optimizer-as-a-service: a concurrent frontend over the
//! [`dpnext::Optimizer`] facade for workloads that optimize many queries
//! back to back — potentially from many threads at once.
//!
//! Every request — [`OptimizerService::optimize`] on a bound query,
//! [`OptimizerService::optimize_sql`] on text — walks one pipeline. Each
//! stage below is one private method of the service; where a stage has a
//! trace span it is named, and so are the registry cells the stage owns
//! (every cell is shared with [`ServiceStats`], so `/metrics`,
//! `/stats.json` and [`OptimizerService::stats`] can never disagree; see
//! `docs/OBSERVABILITY.md`). A stage that ends the request returns early;
//! the later stages never see it.
//!
//! **Arrive.** The request is counted in (`dpnext_requests_total`; the
//! count before it is its index into a [`FaultInjector`] schedule), its
//! clock starts and its root span `serve.request` opens. Both live in one
//! private request value whose drop is the only code that tags the root's
//! `outcome` and observes `dpnext_request_latency_nanos` — so every way
//! out of the pipeline, an unwinding panic included, is on the books
//! exactly once.
//!
//! **Bind** (SQL door only; span `serve.bind`, tagged `front=hit|miss`).
//! The statement's exact bytes are looked up in the [`FrontMap`]
//! (`dpnext_front_{hits,misses,evictions}_total`). A hit hands back the
//! bound query and the [`QueryShape`] an earlier arrival of the same text
//! left there, and nothing is parsed. On a miss the text is parsed, bound
//! against the wrapped optimizer's catalog and fingerprinted, once, and
//! the three are published for the next arrival (unless the text is
//! longer than [`FRONT_TEXT_MAX`]: it is served, not remembered). A
//! rejected text ends the request as [`ServeError::Sql`], counted in
//! `dpnext_sql_errors_total`, before it reaches the cache, the gate or the
//! pool; errors are never entered into the map, so the text is parsed,
//! rejected and counted again every time it arrives. The other door,
//! [`OptimizerService::optimize`], has a query already and fingerprints it
//! on arrival.
//!
//! **Probe** (span `serve.cache_probe`). The shape the door computed or
//! found, plus the statistics epoch, is the [`CacheKey`], built once and
//! borrowed by every later stage. A hit in
//! the [`PlanCache`] (`dpnext_cache_{hits,misses}_total`) ends the request
//! with the previously optimized plan: it runs no DP and takes no gate
//! slot. A hit on a bound query allocates what its fingerprint allocates;
//! a hit on a repeat statement allocates nothing.
//!
//! **Admit** (span `serve.admission`, whose duration is the queue wait).
//! A miss takes a slot of the bounded [`AdmissionGate`]
//! (`dpnext_gate_{admitted,rejected}_total`, `dpnext_gate_queued`,
//! `dpnext_queue_wait_nanos`), waiting in line if [`ServiceConfig::max_queued`]
//! allows. A saturated gate ends the request fast as
//! [`ServeError::Overloaded`], with a retry hint priced from measured
//! service times.
//!
//! **Run** (span `serve.optimize`). One
//! [`dpnext::Optimizer::optimize_pooled`] call inside a memo checked out
//! of the [`MemoPool`] (`dpnext_pool_*`, whose `dpnext_pool_bytes` books
//! every memo the pool holds) and inside `catch_unwind`. The request runs
//! as the wrapped [`dpnext::Optimizer`] is configured — its algorithm,
//! plan budget and deadline; a request's limits are set there and
//! nowhere else, not on [`ServiceConfig`] and not by a fault. The
//! [`Fault`] a [`FaultInjector`] schedules for the request panics in
//! place of the call, or stalls before it while holding the gate slot and
//! the memo. A run whose deadline passes degrades down the adaptive
//! ladder and still returns a valid plan; a completed run observes
//! `dpnext_service_time_nanos`, `dpnext_plans_built` and
//! `dpnext_live_bytes_peak` and parks its memo. A panic is contained to
//! its request: the memo is **quarantined** (destroyed, its footprint
//! released from the pool's books and tallied in
//! `dpnext_pool_quarantined_bytes_total`, never parked again),
//! `dpnext_panics_total` counts it and only this caller sees
//! [`ServeError::Panicked`].
//!
//! **Publish.** The rung that produced the plan and any degradation are
//! counted (`dpnext_rung_total`, `dpnext_degraded_total`), and a
//! full-quality plan is inserted into the cache for later arrivals of the
//! shape (`dpnext_cache_evictions_total`). A plan the deadline cut short
//! is valid but stays out of the cache, so a later uncontended arrival
//! re-optimizes.
//!
//! Out of band, an opt-in scrape endpoint ([`MetricsServer::spawn`] on
//! the `Arc`'d service and an address) serves the registry as Prometheus
//! text and [`ServiceStats`] as JSON from one blocking thread the request
//! path never touches.
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
//! Two levels, two instances of one map ([`ShardedFifo`]), sized alike by
//! [`ServiceConfig::cache_capacity`].
//!
//! **Bytes → bound query + shape** (the [`FrontMap`]). The key is the
//! statement's text, byte for byte — no trimming, no case folding, nothing
//! to get wrong: two texts share an entry only if they are equal. An entry
//! is valid for the service's lifetime, *because* the catalog behind
//! [`dpnext::Optimizer::catalog`] is immutable (`Catalog` has no interior
//! mutability and the service holds its one `Arc`) and binding is a
//! deterministic function of the text and the catalog. This level knows
//! nothing of the statistics epoch.
//!
//! **(Epoch, shape) → plan** (the [`PlanCache`]). The key is the *bound
//! query*, not the SQL text: two texts that bind
//! to the same tables, predicates, cardinalities and grouping share one
//! plan, however they are spelled — whitespace and keyword case do not
//! reach the shape; an alias's case does. Statistics changes are **not**
//! detected — after updating
//! catalog statistics out of band, call
//! [`OptimizerService::bump_stats_epoch`], which moves every new lookup
//! to a fresh epoch and turns the first arrival of each shape into a
//! miss: it is re-optimized, never re-bound. Superseded entries age out
//! of the FIFO shards.

#![warn(missing_docs)]

mod cache;
mod fault;
mod fingerprint;
mod govern;
mod pool;
mod scrape;
mod service;

pub use cache::{CacheKey, CacheStats, FrontMap, PlanCache, ShardedFifo, FRONT_TEXT_MAX};
pub use fault::{Fault, FaultInjector};
pub use fingerprint::{fingerprint_query, QueryShape};
pub use govern::{AdmissionGate, GatePermit, GateStats};
pub use pool::{MemoPool, PoolStats, PooledMemo};
pub use scrape::{MetricsServer, SCRAPE_TIMEOUT};
pub use service::{OptimizerService, ServeError, ServeResult, ServiceConfig, ServiceStats};
