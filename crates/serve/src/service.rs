//! The optimizer service: cache, pool and resource governance wired
//! around a shared [`Optimizer`].

use crate::cache::{CacheKey, CacheStats, PlanCache};
use crate::fault::{Fault, FaultInjector};
use crate::fingerprint::fingerprint_query;
use crate::govern::{
    AdmissionGate, BreakerDecision, BreakerStats, GateStats, LedgerStats, ResourceLedger,
    ShapeBreaker,
};
use crate::pool::{MemoPool, PoolStats};
use crate::scrape::MetricsServer;
use dpnext::{Algorithm, Optimized, Optimizer};
use dpnext_core::{AdaptiveMode, FxBuildHasher, OptimizeOptions};
use dpnext_obs::{Counter, Histogram, Registry};
use dpnext_query::Query;
use dpnext_sql::{plan as bind_sql, BoundQuery, SqlError};
use std::hash::BuildHasher;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ledger utilization at which the load-shed policy engages: above this
/// fraction of [`ServiceConfig::memory_cap_bytes`], admitted requests run
/// under tightened deadlines and memory budgets so memory pressure
/// degrades plan quality before it degrades availability.
pub const SHED_UTILIZATION: f64 = 0.75;

/// Capacity knobs of an [`OptimizerService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Plans the cache may hold, rounded up to a whole number per shard:
    /// up to `16 · ⌈cache_capacity / 16⌉` stay resident (see
    /// [`PlanCache::new`]); 0 disables caching.
    pub cache_capacity: usize,
    /// Idle memos the arena pool may park; 0 disables pooling. Sizing it
    /// at the worker-thread count keeps steady-state serving free of
    /// arena allocation.
    pub pool_capacity: usize,
    /// Per-request wall-clock deadline. When set, every optimization runs
    /// through the adaptive degradation ladder (see
    /// [`Optimizer::deadline`]): a request that would blow the deadline
    /// *degrades* — exact → partial-exact → linearized → greedy — and
    /// still returns a structurally valid plan, with the degradation
    /// recorded in the result's `memo.degradation` and counted in
    /// [`ServiceStats::deadline_degraded`]. Deadline-degraded plans are
    /// not cached (a later uncontended request should get the full-quality
    /// plan). `None` (the default) leaves requests unconstrained and
    /// bit-identical to a service without the knob.
    pub deadline: Option<Duration>,
    /// Per-request memory budget in live memo bytes (see
    /// [`Optimizer::memory_budget`]). Like the deadline, a non-zero budget
    /// rides the degradation ladder: the request aborts enumeration the
    /// moment live bytes reach the budget and ships the best valid plan so
    /// far, counted in [`ServiceStats::memory_degraded`] and kept out of
    /// the cache. 0 (the default) leaves requests unconstrained.
    pub memory_budget: u64,
    /// Admission control: at most this many requests optimize at once
    /// (0 = unlimited, the gate is transparent). Cache hits bypass the
    /// gate — they consume no optimizer resources.
    pub max_concurrent: usize,
    /// Requests allowed to wait for an admission slot before the service
    /// rejects further arrivals fast with [`ServeError::Overloaded`].
    /// Only meaningful with a non-zero `max_concurrent`.
    pub max_queued: usize,
    /// Soft cap on process-wide memo bytes (parked + checked out),
    /// tracked by the service's [`ResourceLedger`]. When utilization
    /// crosses [`SHED_UTILIZATION`], the load-shed policy tightens the
    /// effective deadline (halved) and memory budget (halved, floored at
    /// the remaining headroom) of every admitted request. 0 (the default)
    /// disables shedding; the ledger still counts.
    pub memory_cap_bytes: u64,
    /// Consecutive failures (panic, deadline abort or memory abort) after
    /// which one query shape's circuit breaker trips open and arrivals of
    /// that shape are served straight from the greedy rung. 0 (the
    /// default) disables the breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before one arrival is
    /// promoted to a full-quality half-open probe (success closes the
    /// breaker, failure re-opens it).
    pub breaker_cooldown: Duration,
    /// Address for the scrape endpoint ([`MetricsServer`]): `GET
    /// /metrics` serves the registry in Prometheus text format, `GET
    /// /stats.json` the [`ServiceStats`] as JSON. Opt-in and out of band:
    /// the endpoint only exists after the owner calls
    /// [`OptimizerService::serve_metrics`] on the `Arc`'d service (one
    /// blocking thread; the request path never touches it). `None` (the
    /// default) disables it. Use port 0 to bind an ephemeral port.
    pub metrics_addr: Option<SocketAddr>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 1024,
            pool_capacity: 32,
            deadline: None,
            memory_budget: 0,
            max_concurrent: 0,
            max_queued: 0,
            memory_cap_bytes: 0,
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_millis(250),
            metrics_addr: None,
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
    /// estimate. Retrying after the hint (with jitter) spreads the load
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
    fn from(e: SqlError) -> ServeError {
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
    /// Arena-pool counters.
    pub pool: PoolStats,
    /// Requests whose optimizer call panicked (isolated by
    /// `catch_unwind`, memo quarantined, error returned to that caller
    /// only — the service kept serving).
    pub panics: u64,
    /// Requests that hit their deadline and shipped a degraded (but
    /// valid) plan; such plans bypass the cache.
    pub deadline_degraded: u64,
    /// Requests that hit their memory budget and shipped a degraded (but
    /// valid) plan; such plans bypass the cache.
    pub memory_degraded: u64,
    /// Admitted requests that ran under load-shed-tightened deadlines /
    /// memory budgets because ledger utilization crossed
    /// [`SHED_UTILIZATION`].
    pub shed: u64,
    /// Admission-gate counters (admitted / fast-rejected / queue peak).
    pub gate: GateStats,
    /// Process-wide memo byte accounting, including the footprints of
    /// quarantined memos (they are released *and tallied*, never lost).
    pub ledger: LedgerStats,
    /// Per-shape circuit-breaker counters.
    pub breaker: BreakerStats,
}

/// A concurrent optimizer frontend: share one instance (behind an
/// [`Arc`]) between any number of threads; every method takes `&self`.
///
/// Each request is keyed by the canonical shape of its (bound) query
/// plus the current statistics epoch. Hits return the previously
/// optimized result; misses pass the admission gate, consult the shape's
/// circuit breaker, then run the wrapped [`Optimizer`] inside a pooled
/// memo and publish the result for later arrivals of the same shape. See
/// the crate docs for the cache-key semantics and the governance layer.
pub struct OptimizerService {
    optimizer: Optimizer,
    config: ServiceConfig,
    cache: PlanCache,
    pool: MemoPool,
    ledger: Arc<ResourceLedger>,
    gate: AdmissionGate,
    breaker: ShapeBreaker,
    epoch: AtomicU64,
    registry: Arc<Registry>,
    requests: Arc<Counter>,
    panics: Arc<Counter>,
    /// `optimize_sql` calls whose text failed to parse or bind.
    sql_errors: Arc<Counter>,
    deadline_degraded: Arc<Counter>,
    memory_degraded: Arc<Counter>,
    shed: Arc<Counter>,
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

    /// A service with explicit capacities, per-request resource limits
    /// and governance knobs.
    pub fn with_config(optimizer: Optimizer, config: ServiceConfig) -> OptimizerService {
        let mut optimizer = match config.deadline {
            Some(d) => optimizer.deadline(Some(d)),
            None => optimizer,
        };
        if config.memory_budget != 0 {
            optimizer = optimizer.memory_budget(config.memory_budget);
        }
        let ledger = Arc::new(ResourceLedger::new(config.memory_cap_bytes));
        let cache = PlanCache::new(config.cache_capacity);
        let pool = MemoPool::with_ledger(config.pool_capacity, ledger.clone());
        let gate = AdmissionGate::new(config.max_concurrent, config.max_queued);
        let breaker = ShapeBreaker::new(config.breaker_threshold, config.breaker_cooldown);

        // One registry per service: component cells (cache, pool, ledger,
        // gate, breaker) are *adopted* so `ServiceStats` and the scrape
        // endpoint read the same memory and can never disagree.
        let registry = Arc::new(Registry::new());
        cache.register_metrics(&registry);
        pool.register_metrics(&registry);
        ledger.register_metrics(&registry);
        gate.register_metrics(&registry);
        breaker.register_metrics(&registry);
        registry.register_gauge(
            "dpnext_live_bytes_midrun",
            "Live memo bytes of in-flight optimizer runs, sampled at work-unit granularity.",
            &[],
            dpnext_obs::global_live_bytes(),
        );
        let requests = registry.counter(
            "dpnext_requests_total",
            "Requests accepted (optimize + optimize_sql calls).",
        );
        let panics = registry.counter(
            "dpnext_panics_total",
            "Requests whose optimizer call panicked (contained and quarantined).",
        );
        let sql_errors = registry.counter(
            "dpnext_sql_errors_total",
            "optimize_sql calls whose text failed to parse or bind.",
        );
        let shed = registry.counter(
            "dpnext_shed_total",
            "Admitted requests run under load-shed-tightened resource knobs.",
        );
        const DEGRADED_HELP: &str =
            "Completed requests that shipped a degraded plan, by abort cause.";
        let deadline_degraded = registry.counter_with(
            "dpnext_degraded_total",
            DEGRADED_HELP,
            &[("cause", "deadline")],
        );
        let memory_degraded = registry.counter_with(
            "dpnext_degraded_total",
            DEGRADED_HELP,
            &[("cause", "memory")],
        );
        const RUNG_HELP: &str = "Completed optimizer runs by final adaptive-ladder mode.";
        let rungs = [
            registry.counter_with("dpnext_rung_total", RUNG_HELP, &[("mode", "none")]),
            registry.counter_with("dpnext_rung_total", RUNG_HELP, &[("mode", "exact")]),
            registry.counter_with("dpnext_rung_total", RUNG_HELP, &[("mode", "partial-exact")]),
            registry.counter_with("dpnext_rung_total", RUNG_HELP, &[("mode", "linearized")]),
            registry.counter_with("dpnext_rung_total", RUNG_HELP, &[("mode", "greedy")]),
        ];
        let request_latency = registry.histogram(
            "dpnext_request_latency_nanos",
            "End-to-end optimize() latency in nanoseconds, every return path.",
        );
        let service_time = registry.histogram(
            "dpnext_service_time_nanos",
            "Optimizer-call wall time in nanoseconds of completed runs.",
        );
        let queue_wait = registry.histogram(
            "dpnext_queue_wait_nanos",
            "Nanoseconds admitted requests spent waiting at the admission gate.",
        );
        let plans_built = registry.histogram(
            "dpnext_plans_built",
            "Plans constructed (joins + groupings) by each completed optimizer run.",
        );
        let live_bytes_peak = registry.histogram(
            "dpnext_live_bytes_peak",
            "Peak live memo bytes per completed optimizer run.",
        );

        OptimizerService {
            optimizer,
            cache,
            pool,
            ledger,
            gate,
            breaker,
            config,
            epoch: AtomicU64::new(0),
            registry,
            requests,
            panics,
            sql_errors,
            deadline_degraded,
            memory_degraded,
            shed,
            rungs,
            request_latency,
            service_time,
            queue_wait,
            plans_built,
            live_bytes_peak,
            faults: None,
        }
    }

    /// Arm deterministic fault injection (see [`FaultInjector`]): each
    /// request consults the schedule by its request index and may run with
    /// an injected panic, an injected slow enumeration, or an injected
    /// memory-pressure budget. For tests (`tests/robustness.rs`,
    /// `tests/overload.rs`, `tests/observability.rs`); never arm this in
    /// production.
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
    pub fn bump_stats_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// What one admitted request runs as: the configured algorithm and
    /// options, tightened under memory pressure (`shed`), overridden by an
    /// injected fault — or, with the shape's breaker open, the greedy floor.
    fn request_limits(
        &self,
        open_served: bool,
        shed: bool,
        fault: Fault,
    ) -> (Algorithm, OptimizeOptions) {
        let (algorithm, mut opts) = self.optimizer.configured();
        if open_served {
            // The adaptive ladder with a plan budget of 1 clamps to the
            // greedy floor, needs no clock or byte meter, and cannot fail
            // the way the shape has been failing.
            opts.plan_budget = 1;
            opts.deadline = None;
            opts.memory_budget = 0;
            return (Algorithm::Adaptive, opts);
        }
        if shed {
            // The effective deadline halves, and the effective memory
            // budget becomes the smaller of half the configured budget and
            // the remaining headroom under the cap (floored at 1/16 of the
            // cap so a fully saturated ledger still leaves room for the
            // greedy rung).
            if let Some(d) = self.config.deadline {
                opts.deadline = Some(d / 2);
            }
            let cap = self.ledger.cap();
            let headroom = cap.saturating_sub(self.ledger.bytes()).max(cap / 16);
            opts.memory_budget = match self.config.memory_budget {
                0 => headroom,
                b => (b / 2).min(headroom),
            }
            .max(1);
        }
        match (fault, &self.faults) {
            (Fault::Slow, Some(inj)) => opts.fault_unit_delay = Some(inj.slow_unit_delay()),
            (Fault::MemoryPressure, Some(inj)) => opts.memory_budget = inj.pressure_budget_bytes(),
            _ => {}
        }
        (algorithm, opts)
    }

    /// Optimize an already-bound [`Query`], serving from the cache when
    /// the shape was optimized before under the current epoch.
    ///
    /// A cache miss walks the governance pipeline in order:
    ///
    /// 1. **Admission** — with `max_concurrent` configured, the request
    ///    takes a gate slot (or waits as one of `max_queued`); a
    ///    saturated gate rejects fast with [`ServeError::Overloaded`].
    /// 2. **Circuit breaker** — a shape with a tripped breaker is served
    ///    straight from the adaptive greedy rung (cheap, valid, skips the
    ///    cache) instead of failing the same way again.
    /// 3. **Load shed** — above [`SHED_UTILIZATION`] of the memory cap,
    ///    effective deadlines and memory budgets tighten.
    /// 4. **Isolation** — the optimizer call runs inside `catch_unwind`:
    ///    a panic anywhere in enumeration is contained to this request —
    ///    its memo is quarantined (footprint released from the ledger and
    ///    tallied), the panic is counted, and only this caller sees
    ///    [`ServeError::Panicked`]. Deadline- or memory-pressured
    ///    requests degrade down the adaptive ladder instead of timing out
    ///    (the result's `memo.degradation` says why; degraded plans skip
    ///    the cache).
    pub fn optimize(&self, query: &Query) -> Result<ServeResult, ServeError> {
        self.optimize_from(Instant::now(), query)
    }

    /// [`OptimizerService::optimize`] for a request that arrived at
    /// `started` (a SQL request arrives before it is parsed).
    fn optimize_from(&self, started: Instant, query: &Query) -> Result<ServeResult, ServeError> {
        let request = self.requests.fetch_inc();
        let mut req_span = dpnext_obs::span("serve.request");
        let epoch = self.epoch();
        let shape = fingerprint_query(query);
        if req_span.is_recording() {
            req_span.tag_u64("request", request);
            req_span.tag_u64("shape_hash", FxBuildHasher::default().hash_one(&shape));
        }
        let key = CacheKey {
            epoch,
            shape: shape.clone(),
        };
        // Cache first: hits consume no optimizer resources, so a burst of
        // hits must never be turned away by the gate.
        let probe = {
            let _probe_span = dpnext_obs::span("serve.cache_probe");
            self.cache.lookup(&key)
        };
        if let Some(result) = probe {
            req_span.tag_str("outcome", "cache_hit");
            self.request_latency
                .observe(started.elapsed().as_nanos() as u64);
            return Ok(ServeResult {
                result,
                cache_hit: true,
                epoch,
            });
        }
        let waited = Instant::now();
        let admitted = {
            let _wait_span = dpnext_obs::span("serve.admission");
            self.gate.admit()
        };
        let _permit = match admitted {
            Ok(permit) => {
                self.queue_wait.observe(waited.elapsed().as_nanos() as u64);
                permit
            }
            Err(line) => {
                let retry_after_hint = self.retry_hint(line);
                req_span.tag_str("outcome", "overloaded");
                req_span.tag_u64("line", u64::from(line));
                self.request_latency
                    .observe(started.elapsed().as_nanos() as u64);
                return Err(ServeError::Overloaded { retry_after_hint });
            }
        };
        let decision = self.breaker.decide(&shape);
        let open_served = decision == BreakerDecision::Open;
        let fault = match &self.faults {
            Some(inj) => inj.fault_for(request),
            None => Fault::None,
        };
        let shed =
            !open_served && self.ledger.cap() != 0 && self.ledger.utilization() >= SHED_UTILIZATION;
        if shed {
            self.shed.inc();
        }
        let mut memo = self.pool.checkout();
        let svc_started = Instant::now();
        let mut opt_span = dpnext_obs::span("serve.optimize");
        if opt_span.is_recording() {
            opt_span.tag_str(
                "breaker",
                match decision {
                    BreakerDecision::Closed => "closed",
                    BreakerDecision::Open => "open",
                    BreakerDecision::Probe => "probe",
                },
            );
            opt_span.tag_u64("shed", u64::from(shed));
        }
        // The closure borrows the memo mutably; `AssertUnwindSafe` is
        // sound *because* of the quarantine below — on a panic the memo's
        // (possibly torn) state is destroyed, never observed again.
        let (algorithm, options) = self.request_limits(open_served, shed, fault);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if fault == Fault::Panic {
                panic!("injected fault: optimizer panic (request {request})");
            }
            dpnext::optimize_into(query, algorithm, &options, &mut memo)
        }));
        match outcome {
            Ok(optimized) => {
                let svc_nanos = svc_started.elapsed().as_nanos() as u64;
                let degradation = optimized.memo.degradation;
                let stats = &optimized.memo;
                self.service_time.observe(svc_nanos);
                self.plans_built.observe(optimized.plans_built);
                self.live_bytes_peak.observe(stats.live_bytes_peak);
                self.rungs[rung_index(stats.adaptive_mode)].inc();
                if opt_span.is_recording() {
                    opt_span.tag_str("outcome", "completed");
                    opt_span.tag_text("mode", stats.adaptive_mode.to_string());
                    opt_span.tag_text("degradation", degradation.to_string());
                }
                drop(opt_span);
                drop(memo); // park the arena before publishing
                if !open_served {
                    self.breaker.report(
                        &shape,
                        decision == BreakerDecision::Probe,
                        !degradation.resource_aborted(),
                    );
                }
                if req_span.is_recording() {
                    req_span.tag_str("outcome", "optimized");
                    req_span.tag_text("degradation", degradation.to_string());
                    req_span.tag_u64("plans_built", optimized.plans_built);
                    req_span.tag_u64("live_bytes_peak", optimized.memo.live_bytes_peak);
                }
                let result = Arc::new(optimized);
                if degradation.deadline_aborted {
                    self.deadline_degraded.inc();
                }
                if degradation.memory_aborted {
                    self.memory_degraded.inc();
                }
                if open_served || degradation.resource_aborted() {
                    // A degraded plan is valid but below full quality:
                    // keep it out of the cache so a later, uncontended
                    // arrival re-optimizes.
                } else {
                    self.cache.insert(key, result.clone());
                }
                self.request_latency
                    .observe(started.elapsed().as_nanos() as u64);
                Ok(ServeResult {
                    result,
                    cache_hit: false,
                    epoch,
                })
            }
            Err(payload) => {
                opt_span.tag_str("outcome", "panicked");
                drop(opt_span);
                memo.quarantine();
                self.panics.inc();
                if !open_served {
                    self.breaker
                        .report(&shape, decision == BreakerDecision::Probe, false);
                }
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                req_span.tag_str("outcome", "panicked");
                self.request_latency
                    .observe(started.elapsed().as_nanos() as u64);
                Err(ServeError::Panicked(msg))
            }
        }
    }

    /// Back-off suggestion for a rejected arrival: the p50 of measured
    /// service times multiplied by the gate's current line length (the
    /// expected drain time of everything ahead of a retry), clamped to
    /// [`RETRY_HINT_MIN`, `RETRY_HINT_MAX`]. Falls back to a fixed
    /// per-request estimate until the first completion is measured.
    fn retry_hint(&self, line: u32) -> Duration {
        let line = line.max(1);
        let snap = self.service_time.snapshot();
        if snap.count == 0 {
            return RETRY_HINT_FALLBACK_PER_REQUEST * line;
        }
        let nanos = u128::from(snap.quantile(0.5)) * u128::from(line);
        if nanos >= RETRY_HINT_MAX.as_nanos() {
            RETRY_HINT_MAX
        } else {
            Duration::from_nanos(nanos as u64).max(RETRY_HINT_MIN)
        }
    }

    /// Full pipeline from SQL text: parse, bind against the facade's
    /// catalog, then [`OptimizerService::optimize`]. Caching operates on
    /// the *bound* query, so differently spelled but identically bound
    /// texts share one entry.
    pub fn optimize_sql(&self, sql: &str) -> Result<ServeResult, ServeError> {
        self.optimize_sql_bound(sql).map(|(_, r)| r)
    }

    /// Like [`OptimizerService::optimize_sql`], additionally returning
    /// the bound query for callers that execute the plan.
    pub fn optimize_sql_bound(&self, sql: &str) -> Result<(BoundQuery, ServeResult), ServeError> {
        let started = Instant::now();
        let bound = match bind_sql(sql, self.optimizer.catalog()) {
            Ok(bound) => bound,
            Err(e) => {
                // A rejected text is still a request: it is counted, timed
                // and traced like every other return path.
                let request = self.requests.fetch_inc();
                let mut req_span = dpnext_obs::span("serve.request");
                req_span.tag_u64("request", request);
                req_span.tag_str("outcome", "sql_error");
                self.sql_errors.inc();
                self.request_latency
                    .observe(started.elapsed().as_nanos() as u64);
                return Err(ServeError::Sql(e));
            }
        };
        let result = self.optimize_from(started, &bound.query)?;
        Ok((bound, result))
    }

    /// Current counters across the request path, cache, pool and the
    /// governance layer (gate, ledger, breaker).
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.requests.get(),
            epoch: self.epoch(),
            cache: self.cache.stats(),
            pool: self.pool.stats(),
            panics: self.panics.get(),
            deadline_degraded: self.deadline_degraded.get(),
            memory_degraded: self.memory_degraded.get(),
            shed: self.shed.get(),
            gate: self.gate.stats(),
            ledger: self.ledger.stats(),
            breaker: self.breaker.stats(),
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

    /// Start the scrape endpoint on [`ServiceConfig::metrics_addr`].
    /// Returns `None` when no address was configured. The server owns one
    /// blocking thread and stops when the returned handle drops.
    pub fn serve_metrics(self: &Arc<Self>) -> Option<std::io::Result<MetricsServer>> {
        self.config
            .metrics_addr
            .map(|addr| MetricsServer::spawn(self.clone(), addr))
    }
}

impl ServiceStats {
    /// The stats as a flat JSON object — what `GET /stats.json` on the
    /// scrape endpoint serves.
    pub fn render_json(&self) -> String {
        format!(
            concat!(
                "{{\"requests\":{},\"epoch\":{},\"panics\":{},",
                "\"deadline_degraded\":{},\"memory_degraded\":{},\"shed\":{},",
                "\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{}}},",
                "\"pool\":{{\"created\":{},\"reused\":{},\"pooled\":{},\"pooled_peak\":{},",
                "\"arena_peak_capacity\":{},\"quarantined\":{},\"rejected_invalid\":{}}},",
                "\"gate\":{{\"admitted\":{},\"rejected\":{},\"queued_peak\":{}}},",
                "\"ledger\":{{\"bytes\":{},\"peak\":{},\"cap\":{},",
                "\"quarantined_bytes\":{}}},",
                "\"breaker\":{{\"trips\":{},\"reopens\":{},\"open_served\":{},",
                "\"probes\":{},\"closes\":{},\"open_shapes\":{}}}}}"
            ),
            self.requests,
            self.epoch,
            self.panics,
            self.deadline_degraded,
            self.memory_degraded,
            self.shed,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.entries,
            self.pool.created,
            self.pool.reused,
            self.pool.pooled,
            self.pool.pooled_peak,
            self.pool.arena_peak_capacity,
            self.pool.quarantined,
            self.pool.rejected_invalid,
            self.gate.admitted,
            self.gate.rejected,
            self.gate.queued_peak,
            self.ledger.bytes,
            self.ledger.peak,
            self.ledger.cap,
            self.ledger.quarantined_bytes,
            self.breaker.trips,
            self.breaker.reopens,
            self.breaker.open_served,
            self.breaker.probes,
            self.breaker.closes,
            self.breaker.open_shapes,
        )
    }
}
