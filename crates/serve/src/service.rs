//! The optimizer service: cache, pool and resource governance wired
//! around a shared [`Optimizer`].

use crate::cache::{CacheKey, CacheStats, FrontMap, PlanCache, FRONT_TEXT_MAX};
use crate::fault::{Fault, FaultInjector};
use crate::fingerprint::{fingerprint_query, QueryShape};
use crate::govern::{AdmissionGate, GatePermit, GateStats};
use crate::pool::{MemoPool, PoolStats};
use dpnext::{Optimized, Optimizer};
use dpnext_core::AdaptiveMode;
use dpnext_obs::{Counter, Histogram, Registry, Span};
use dpnext_query::Query;
use dpnext_sql::{plan as bind_sql, BoundQuery, SqlError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Capacity and admission knobs of an [`OptimizerService`]. What one
/// request may spend — its plan budget and deadline — is not set here:
/// those are the limits of the [`Optimizer`] the service wraps
/// ([`Optimizer::plan_budget`], [`Optimizer::deadline`]).
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Plans the cache may hold, rounded up to a whole number per shard:
    /// up to `16 · ⌈cache_capacity / 16⌉` stay resident (see
    /// [`PlanCache::new`]); 0 disables caching. The [`FrontMap`] — bound
    /// statements by their text — holds as many entries and is off when
    /// the cache is.
    pub cache_capacity: usize,
    /// Idle memos the arena pool may park; 0 disables pooling. Sizing it
    /// at the worker-thread count keeps steady-state serving free of
    /// arena allocation.
    pub pool_capacity: usize,
    /// Admission control: at most this many requests optimize at once
    /// (0 = unlimited, the gate is transparent). Cache hits bypass the
    /// gate — they consume no optimizer resources.
    pub max_concurrent: usize,
    /// Requests allowed to wait for an admission slot before the service
    /// rejects further arrivals fast with [`ServeError::Overloaded`].
    /// Only meaningful with a non-zero `max_concurrent`.
    pub max_queued: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 1024,
            pool_capacity: 32,
            max_concurrent: 0,
            max_queued: 0,
        }
    }
}

/// Why a service request failed. Structurally valid degraded plans are
/// *not* errors — the service's whole job is returning them instead.
#[derive(Debug)]
pub enum ServeError {
    /// The optimizer panicked. The panic was contained to this request:
    /// its memo was quarantined (never returned to the pool) and the
    /// service keeps serving. Carries the panic payload's message.
    Panicked(String),
    /// SQL parsing or binding failed.
    Sql(SqlError),
    /// The admission gate was saturated: `max_concurrent` requests were
    /// already optimizing and `max_queued` more were waiting. The request
    /// was rejected *fast* — no memo, no optimizer work — with a hint
    /// derived from *measured* service times: the p50 of recent
    /// completions (the service-time histogram) times the current line
    /// length, clamped to [1 ms, 5 s]. Before any completion has been
    /// measured the service falls back to a fixed 10 ms-per-request
    /// estimate, clamped the same way. Retrying after the hint (with jitter) spreads the load
    /// instead of stampeding the gate.
    Overloaded {
        /// Suggested client back-off before retrying.
        retry_after_hint: Duration,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Panicked(msg) => write!(f, "optimizer panicked: {msg}"),
            ServeError::Sql(e) => write!(f, "sql error: {e}"),
            ServeError::Overloaded { retry_after_hint } => {
                write!(f, "service overloaded: retry after {retry_after_hint:?}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SqlError> for ServeError {
    fn from(e: SqlError) -> Self {
        ServeError::Sql(e)
    }
}

/// What one service request returns.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// The optimized plan — shared, since cache hits all return the same
    /// underlying result.
    pub result: Arc<Optimized>,
    /// Whether the plan came out of the cache (`false` = this request
    /// ran the optimizer).
    pub cache_hit: bool,
    /// The statistics epoch the plan belongs to.
    pub epoch: u64,
}

/// Point-in-time service counters ([`OptimizerService::stats`]).
#[derive(Debug, Clone, Copy)]
pub struct ServiceStats {
    /// Requests accepted (`optimize` + `optimize_sql` calls, including
    /// SQL texts that failed to parse or bind).
    pub requests: u64,
    /// Current statistics epoch.
    pub epoch: u64,
    /// Plan-cache counters.
    pub cache: CacheStats,
    /// Arena-pool counters, including the byte books: what the pool holds
    /// and the footprints of quarantined memos (released *and tallied*,
    /// never lost).
    pub pool: PoolStats,
    /// Requests whose optimizer call panicked (isolated by
    /// `catch_unwind`, memo quarantined, error returned to that caller
    /// only — the service kept serving).
    pub panics: u64,
    /// Requests that hit their deadline and shipped a degraded (but
    /// valid) plan; such plans bypass the cache.
    pub deadline_degraded: u64,
    /// Admission-gate counters (admitted / fast-rejected / queue peak).
    pub gate: GateStats,
}

/// A concurrent optimizer frontend: share one instance (behind an
/// [`Arc`]) between any number of threads; every method takes `&self`.
///
/// Each request is keyed by the canonical shape of its (bound) query
/// plus the current statistics epoch; a SQL statement seen before gets
/// its bound query and shape from the front map, by its text, instead of
/// being parsed again. Hits return the previously optimized result;
/// misses pass the admission gate, then run the wrapped [`Optimizer`]
/// inside a pooled memo and publish the result for later arrivals of the
/// same shape. See the crate docs for the cache-key semantics and the
/// governance layer.
pub struct OptimizerService {
    optimizer: Optimizer,
    front: FrontMap,
    cache: PlanCache,
    pool: MemoPool,
    gate: AdmissionGate,
    epoch: AtomicU64,
    registry: Arc<Registry>,
    requests: Arc<Counter>,
    panics: Arc<Counter>,
    /// `optimize_sql` calls whose text failed to parse or bind.
    sql_errors: Arc<Counter>,
    deadline_degraded: Arc<Counter>,
    /// Completed optimizer runs by final adaptive mode, indexed by
    /// [`rung_index`]. `dpnext_rung_total{mode=...}` in the registry.
    rungs: [Arc<Counter>; 5],
    /// End-to-end request latency, every return path (hit, miss,
    /// overload-reject, panic, SQL error). A SQL request's clock starts
    /// before its text is parsed.
    request_latency: Arc<Histogram>,
    /// Optimizer-call wall time of completed (non-cached, non-panicked)
    /// runs. Its p50 feeds the overload retry hint.
    service_time: Arc<Histogram>,
    /// Time admitted requests spent waiting at the gate.
    queue_wait: Arc<Histogram>,
    /// Plans built per completed optimizer run.
    plans_built: Arc<Histogram>,
    /// Peak live memo bytes per completed optimizer run.
    live_bytes_peak: Arc<Histogram>,
    faults: Option<FaultInjector>,
}

/// Index of an [`AdaptiveMode`] into [`OptimizerService::rungs`] (and
/// the label order used when registering `dpnext_rung_total`).
fn rung_index(mode: AdaptiveMode) -> usize {
    match mode {
        AdaptiveMode::None => 0,
        AdaptiveMode::Exact => 1,
        AdaptiveMode::PartialExact => 2,
        AdaptiveMode::Linearized => 3,
        AdaptiveMode::Greedy => 4,
    }
}

/// One request on the books, from arrival to reply.
/// [`OptimizerService::arrive`] counts it in; dropping it counts it out —
/// the only place the root span's `outcome` is tagged and
/// `dpnext_request_latency_nanos` is observed — so every way out of the
/// pipeline is counted exactly once, an unwind included.
struct Request<'s> {
    request_latency: &'s Histogram,
    /// Arrival order (`dpnext_requests_total` before this request), which
    /// is also the request's index into the fault schedule.
    index: u64,
    arrived: Instant,
    /// The `serve.request` root; every stage's span is its child.
    span: Span,
    /// The stage that ends the request names how it ended; `"aborted"`
    /// survives only an unwind outside `catch_unwind`.
    outcome: &'static str,
}

impl Drop for Request<'_> {
    fn drop(&mut self) {
        self.span.tag_str("outcome", self.outcome);
        let nanos = self.arrived.elapsed().as_nanos() as u64;
        self.request_latency.observe(nanos);
    }
}

/// Bounds on the measured overload retry hint.
const RETRY_HINT_MIN: Duration = Duration::from_millis(1);
const RETRY_HINT_MAX: Duration = Duration::from_secs(5);
/// Per-request fallback estimate while the service-time histogram is
/// still empty (the pre-measurement heuristic).
const RETRY_HINT_FALLBACK_PER_REQUEST: Duration = Duration::from_millis(10);

impl OptimizerService {
    /// A service over `optimizer` with default capacities
    /// ([`ServiceConfig::default`]).
    pub fn new(optimizer: Optimizer) -> OptimizerService {
        OptimizerService::with_config(optimizer, ServiceConfig::default())
    }

    /// A service with explicit capacities and admission knobs. Requests
    /// run under `optimizer`'s own plan budget and deadline.
    pub fn with_config(optimizer: Optimizer, config: ServiceConfig) -> OptimizerService {
        let front = FrontMap::new(config.cache_capacity);
        let cache = PlanCache::new(config.cache_capacity);
        let pool = MemoPool::new(config.pool_capacity);
        let gate = AdmissionGate::new(config.max_concurrent, config.max_queued);

        // One registry per service: component cells (cache, pool, gate)
        // are *adopted* so `ServiceStats` and the scrape endpoint
        // read the same memory and can never disagree.
        let registry = Arc::new(Registry::new());
        front.register_metrics(&registry);
        cache.register_metrics(&registry);
        pool.register_metrics(&registry);
        gate.register_metrics(&registry);
        // Field order below is registration order, which is the order the
        // families render in on `/metrics`.
        OptimizerService {
            optimizer,
            front,
            cache,
            pool,
            gate,
            epoch: AtomicU64::new(0),
            requests: registry.counter(
                "dpnext_requests_total",
                "Requests accepted (optimize + optimize_sql calls).",
            ),
            panics: registry.counter(
                "dpnext_panics_total",
                "Requests whose optimizer call panicked (contained and quarantined).",
            ),
            sql_errors: registry.counter(
                "dpnext_sql_errors_total",
                "optimize_sql calls whose text failed to parse or bind.",
            ),
            deadline_degraded: registry.counter_with(
                "dpnext_degraded_total",
                "Completed requests that shipped a degraded plan, by abort cause.",
                &[("cause", "deadline")],
            ),
            rungs: ["none", "exact", "partial-exact", "linearized", "greedy"].map(|mode| {
                registry.counter_with(
                    "dpnext_rung_total",
                    "Completed optimizer runs by final adaptive-ladder mode.",
                    &[("mode", mode)],
                )
            }),
            request_latency: registry.histogram(
                "dpnext_request_latency_nanos",
                "End-to-end optimize() latency in nanoseconds, every return path.",
            ),
            service_time: registry.histogram(
                "dpnext_service_time_nanos",
                "Optimizer-call wall time in nanoseconds of completed runs.",
            ),
            queue_wait: registry.histogram(
                "dpnext_queue_wait_nanos",
                "Nanoseconds admitted requests spent waiting at the admission gate.",
            ),
            plans_built: registry.histogram(
                "dpnext_plans_built",
                "Plans constructed (joins + groupings) by each completed optimizer run.",
            ),
            live_bytes_peak: registry.histogram(
                "dpnext_live_bytes_peak",
                "Peak live memo bytes per completed optimizer run.",
            ),
            registry,
            faults: None,
        }
    }

    /// Arm deterministic fault injection (see [`FaultInjector`]): each
    /// request consults the schedule by its request index, and its run
    /// stage may panic in place of the optimizer call or stall before it.
    /// The run itself keeps the wrapped [`Optimizer`]'s limits. For tests
    /// (`tests/robustness.rs`, `tests/overload.rs`,
    /// `tests/observability.rs`); never arm this in production.
    pub fn with_fault_injection(mut self, faults: FaultInjector) -> OptimizerService {
        self.faults = Some(faults);
        self
    }

    /// The wrapped facade (e.g. to reach its catalog for binding).
    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// The current statistics epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Declare the catalog statistics changed: moves every subsequent
    /// lookup to a fresh epoch, so the first arrival of each shape
    /// re-optimizes. Returns the new epoch. Entries of earlier epochs
    /// are unreachable and age out FIFO; they are deliberately not
    /// cleared (see [`CacheKey`]).
    ///
    /// A bump re-optimizes and never re-binds: the epoch is part of the
    /// plan-cache key only, and the front map's bound statements stay
    /// valid because the catalog they were bound against
    /// ([`Optimizer::catalog`]) cannot change under a running service.
    /// Whoever makes statistics swappable in place must give the front
    /// map the epoch too.
    pub fn bump_stats_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Optimize an already-bound [`Query`], serving from the cache when
    /// the shape was optimized before under the current epoch. A miss
    /// passes the admission gate (or is turned away with
    /// [`ServeError::Overloaded`]), runs under the wrapped [`Optimizer`]'s
    /// limits, and is published for later arrivals unless it was degraded
    /// on the way. A panic in the optimizer reaches only this caller, as
    /// [`ServeError::Panicked`]. The crate docs walk the stages.
    pub fn optimize(&self, query: &Query) -> Result<ServeResult, ServeError> {
        self.serve(self.arrive(), query, fingerprint_query(query))
    }

    /// Full pipeline from SQL text: parse, bind against the facade's
    /// catalog, then what [`OptimizerService::optimize`] does. A statement
    /// sent before, byte for byte, skips the parser and the binder (the
    /// front map has its bound query); the plan cache operates on the
    /// *bound* query, so differently spelled but identically bound texts
    /// share one plan.
    pub fn optimize_sql(&self, sql: &str) -> Result<ServeResult, ServeError> {
        self.optimize_sql_bound(sql).map(|(_, r)| r)
    }

    /// Like [`OptimizerService::optimize_sql`], additionally returning
    /// the bound query — shared with the front map — for callers that
    /// execute the plan.
    pub fn optimize_sql_bound(
        &self,
        sql: &str,
    ) -> Result<(Arc<BoundQuery>, ServeResult), ServeError> {
        let mut req = self.arrive();
        let (bound, shape) = self.bind(&mut req, sql)?;
        let result = self.serve(req, &bound.query, shape)?;
        Ok((bound, result))
    }

    /// The request pipeline both front doors enter, one stage per line,
    /// with the shape the door computed (or found). Every way out — a
    /// reply, a `?`, an unwind — drops `req`, which closes the books on the
    /// request.
    fn serve(
        &self,
        mut req: Request<'_>,
        query: &Query,
        shape: QueryShape,
    ) -> Result<ServeResult, ServeError> {
        let (key, hit) = self.probe(&mut req, shape);
        if let Some(result) = hit {
            req.outcome = "cache_hit";
            return Ok(ServeResult {
                result,
                cache_hit: true,
                epoch: key.epoch,
            });
        }
        let _permit = self.admit(&mut req)?;
        let ran = self.run(&mut req, query);
        self.publish(&mut req, key, ran)
    }

    /// Arrive: count the request in and open its root span. A SQL request
    /// arrives before its text is parsed.
    fn arrive(&self) -> Request<'_> {
        let arrived = Instant::now();
        let index = self.requests.fetch_inc();
        let mut span = dpnext_obs::span("serve.request");
        span.tag_u64("request", index);
        Request {
            request_latency: &self.request_latency,
            index,
            arrived,
            span,
            outcome: "aborted",
        }
    }

    /// Bind (SQL door only): the statement's bound query and shape — from
    /// the front map if these exact bytes were bound before, else by
    /// parsing the text, binding it against the catalog, fingerprinting the
    /// result and publishing all three for the next arrival of the text. A
    /// rejected text is still a request — counted, timed and traced — that
    /// ends here, before the cache, the gate or the pool; it is never
    /// entered, so it is rejected, and counted, every time it arrives.
    fn bind(
        &self,
        req: &mut Request<'_>,
        sql: &str,
    ) -> Result<(Arc<BoundQuery>, QueryShape), ServeError> {
        let mut span = dpnext_obs::span("serve.bind");
        if let Some(entry) = self.front.lookup(sql) {
            span.tag_str("front", "hit");
            return Ok(entry);
        }
        span.tag_str("front", "miss");
        let bound = bind_sql(sql, self.optimizer.catalog()).map_err(|e| {
            req.outcome = "sql_error";
            self.sql_errors.inc();
            ServeError::Sql(e)
        })?;
        let shape = fingerprint_query(&bound.query);
        let entry = (Arc::new(bound), shape);
        if sql.len() <= FRONT_TEXT_MAX {
            self.front.insert(Arc::from(sql), entry.clone());
        }
        Ok(entry)
    }

    /// Probe: the shape and the statistics epoch are the cache key; look
    /// it up. Hits consume no optimizer resources, so the cache comes
    /// before the gate: a burst of hits must never be turned away. The
    /// later stages borrow the key's shape.
    fn probe(
        &self,
        req: &mut Request<'_>,
        shape: QueryShape,
    ) -> (CacheKey, Option<Arc<Optimized>>) {
        let key = CacheKey {
            epoch: self.epoch(),
            shape,
        };
        if req.span.is_recording() {
            req.span.tag_u64("shape_hash", key.shape.hash_word());
        }
        let _span = dpnext_obs::span("serve.cache_probe");
        let hit = self.cache.lookup(&key);
        (key, hit)
    }

    /// Admit: take a gate slot, waiting in line for one if the queue has
    /// room; a saturated gate turns the request away fast.
    fn admit(&self, req: &mut Request<'_>) -> Result<GatePermit<'_>, ServeError> {
        let waited = Instant::now();
        let admitted = {
            let _span = dpnext_obs::span("serve.admission");
            self.gate.admit()
        };
        admitted
            .inspect(|_| self.queue_wait.observe(waited.elapsed().as_nanos() as u64))
            .map_err(|line| {
                req.outcome = "overloaded";
                req.span.tag_u64("line", u64::from(line));
                ServeError::Overloaded {
                    retry_after_hint: self.retry_hint(line),
                }
            })
    }

    /// Run: one [`Optimizer::optimize_pooled`] call — the wrapped
    /// optimizer's algorithm, plan budget and deadline, which are set
    /// there and nowhere else — inside a pooled memo and inside
    /// `catch_unwind`. An injected fault panics in place of the call, or
    /// stalls before it while holding the gate slot and the memo. A panic
    /// anywhere in enumeration is contained to this request: its memo is
    /// quarantined (footprint released from the pool's books and tallied,
    /// never parked again) and only this caller sees
    /// [`ServeError::Panicked`]. The memo of a completed run is parked
    /// when this stage returns, before anything is published.
    fn run(&self, req: &mut Request<'_>, query: &Query) -> Result<Optimized, ServeError> {
        let fault = self
            .faults
            .map_or(Fault::None, |inj| inj.fault_for(req.index));
        let mut memo = self.pool.checkout();
        let started = Instant::now();
        let mut span = dpnext_obs::span("serve.optimize");
        // The closure borrows the memo mutably; `AssertUnwindSafe` is
        // sound *because* of the quarantine below — on a panic the memo's
        // (possibly torn) state is destroyed, never observed again.
        let ran = catch_unwind(AssertUnwindSafe(|| {
            match fault {
                Fault::None => {}
                Fault::Panic => panic!("injected fault: optimizer panic (request {})", req.index),
                Fault::Slow(stall) => std::thread::sleep(stall),
            }
            self.optimizer.optimize_pooled(query, &mut memo)
        }));
        match ran {
            Ok(optimized) => {
                let stats = &optimized.memo;
                self.service_time
                    .observe(started.elapsed().as_nanos() as u64);
                self.plans_built.observe(optimized.plans_built);
                self.live_bytes_peak.observe(stats.live_bytes_peak);
                if span.is_recording() {
                    span.tag_str("outcome", "completed");
                    span.tag_text("mode", stats.adaptive_mode.to_string());
                    span.tag_text("degradation", stats.degradation.to_string());
                }
                Ok(optimized)
            }
            Err(payload) => {
                span.tag_str("outcome", "panicked");
                drop(span);
                memo.quarantine();
                self.panics.inc();
                req.outcome = "panicked";
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(ServeError::Panicked(msg))
            }
        }
    }

    /// Publish: count what the run shipped, and cache a full-quality plan
    /// for later arrivals of the shape.
    fn publish(
        &self,
        req: &mut Request<'_>,
        key: CacheKey,
        ran: Result<Optimized, ServeError>,
    ) -> Result<ServeResult, ServeError> {
        let optimized = ran?;
        let stats = &optimized.memo;
        let degradation = stats.degradation;
        self.rungs[rung_index(stats.adaptive_mode)].inc();
        if degradation.deadline_aborted {
            self.deadline_degraded.inc();
        }
        req.outcome = "optimized";
        if req.span.is_recording() {
            req.span.tag_text("degradation", degradation.to_string());
            req.span.tag_u64("plans_built", optimized.plans_built);
            req.span.tag_u64("live_bytes_peak", stats.live_bytes_peak);
        }
        let epoch = key.epoch;
        let result = Arc::new(optimized);
        // A plan the deadline cut short is valid but below full quality and
        // depends on the clock: keep it out of the cache so a later,
        // uncontended arrival re-optimizes. A plan-budget abort is the
        // same plan on every run, and is cached.
        if !degradation.deadline_aborted {
            self.cache.insert(key, result.clone());
        }
        Ok(ServeResult {
            result,
            cache_hit: false,
            epoch,
        })
    }

    /// Back-off suggestion for a rejected arrival: the p50 of measured
    /// service times multiplied by the gate's current line length (the
    /// expected drain time of everything ahead of a retry), clamped to
    /// [`RETRY_HINT_MIN`, `RETRY_HINT_MAX`]. Until the first completion is
    /// measured, a fixed per-request estimate stands in for the p50,
    /// clamped the same way.
    fn retry_hint(&self, line: u32) -> Duration {
        let snap = self.service_time.snapshot();
        let per_request = if snap.count == 0 {
            RETRY_HINT_FALLBACK_PER_REQUEST.as_nanos()
        } else {
            u128::from(snap.quantile(0.5))
        };
        let nanos = per_request * u128::from(line.max(1));
        Duration::from_nanos(nanos.min(RETRY_HINT_MAX.as_nanos()) as u64).max(RETRY_HINT_MIN)
    }

    /// Current counters across the request path, cache, pool and
    /// admission gate.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.requests.get(),
            epoch: self.epoch(),
            cache: self.cache.stats(),
            pool: self.pool.stats(),
            panics: self.panics.get(),
            deadline_degraded: self.deadline_degraded.get(),
            gate: self.gate.stats(),
        }
    }

    /// The service's metrics registry. Every cell behind
    /// [`OptimizerService::stats`] is registered here, plus the latency /
    /// byte histograms that have no `ServiceStats` equivalent.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The registry rendered in Prometheus text exposition format — what
    /// `GET /metrics` on the scrape endpoint serves.
    pub fn metrics_text(&self) -> String {
        self.registry.snapshot().render_text()
    }
}

impl ServiceStats {
    /// The stats as a flat JSON object — what `GET /stats.json` on the
    /// scrape endpoint serves.
    pub fn render_json(&self) -> String {
        format!(
            concat!(
                "{{\"requests\":{},\"epoch\":{},\"panics\":{},",
                "\"deadline_degraded\":{},",
                "\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{}}},",
                "\"pool\":{{\"created\":{},\"reused\":{},\"pooled\":{},\"pooled_peak\":{},",
                "\"bytes\":{},\"bytes_peak\":{},\"quarantined\":{},\"quarantined_bytes\":{},",
                "\"rejected_invalid\":{}}},",
                "\"gate\":{{\"admitted\":{},\"rejected\":{},\"queued_peak\":{}}}}}"
            ),
            self.requests,
            self.epoch,
            self.panics,
            self.deadline_degraded,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.entries,
            self.pool.created,
            self.pool.reused,
            self.pool.pooled,
            self.pool.pooled_peak,
            self.pool.bytes,
            self.pool.bytes_peak,
            self.pool.quarantined,
            self.pool.quarantined_bytes,
            self.pool.rejected_invalid,
            self.gate.admitted,
            self.gate.rejected,
            self.gate.queued_peak,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpnext::Algorithm;

    fn service() -> OptimizerService {
        OptimizerService::new(Optimizer::new(Algorithm::EaPrune))
    }

    /// The hint stays inside its documented bounds before any completion
    /// is measured, however long the line.
    #[test]
    fn unmeasured_retry_hint_is_clamped() {
        let service = service();
        assert_eq!(
            RETRY_HINT_MIN.max(RETRY_HINT_FALLBACK_PER_REQUEST),
            service.retry_hint(0)
        );
        assert!(service.retry_hint(1_000) <= RETRY_HINT_MAX);
        assert_eq!(RETRY_HINT_MAX, service.retry_hint(u32::MAX));
    }

    /// `/metrics` lists families in registration order, and the
    /// service-owned cells register as `with_config`'s struct literal
    /// evaluates: reordering its fields must not reshuffle the exposition.
    #[test]
    fn service_families_render_in_registration_order() {
        let text = service().metrics_text();
        let families: Vec<&str> = text
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .filter_map(|rest| rest.split(' ').next())
            .collect();
        let first = families
            .iter()
            .position(|name| *name == "dpnext_requests_total")
            .expect("dpnext_requests_total is registered");
        let front = families
            .iter()
            .position(|name| *name == "dpnext_front_hits_total")
            .expect("dpnext_front_hits_total is registered");
        assert_eq!(
            [
                "dpnext_front_hits_total",
                "dpnext_front_misses_total",
                "dpnext_front_evictions_total",
                "dpnext_cache_hits_total",
                "dpnext_cache_misses_total",
                "dpnext_cache_evictions_total",
            ],
            families[front..front + 6],
            "the statement map is probed before the plan cache and listed before it"
        );
        assert_eq!(
            [
                "dpnext_requests_total",
                "dpnext_panics_total",
                "dpnext_sql_errors_total",
                "dpnext_degraded_total",
                "dpnext_rung_total",
                "dpnext_request_latency_nanos",
                "dpnext_service_time_nanos",
                "dpnext_queue_wait_nanos",
                "dpnext_plans_built",
                "dpnext_live_bytes_peak",
            ],
            families[first..]
        );
    }

    /// Counted in means counted out, even when a panic unwinds through
    /// the service outside the run stage's `catch_unwind`.
    #[test]
    fn an_unwinding_request_is_counted_out() {
        let service = service();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _req = service.arrive();
            // Unwinds like a panic, without the hook's message.
            std::panic::resume_unwind(Box::new("between stages"));
        }));
        assert!(unwound.is_err());
        assert_eq!(1, service.requests.get());
        assert_eq!(1, service.request_latency.snapshot().count);
    }
}
