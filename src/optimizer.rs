//! The [`Optimizer`] facade: one builder-style entry point that runs the
//! full pipeline `SQL text → parse/bind → Query → memo DP → Optimized`.
//!
//! ```
//! use dpnext::{Algorithm, Optimizer};
//!
//! let opt = Optimizer::new(Algorithm::EaPrune)
//!     .optimize_sql(
//!         "select n.n_name, count(*) \
//!          from nation n join supplier s on n.n_nationkey = s.s_nationkey \
//!          group by n.n_name",
//!     )
//!     .unwrap();
//! assert!(opt.plan.cost.is_finite());
//! ```

use dpnext_catalog::{tpch_catalog, Catalog};
use dpnext_core::{optimize_into, Algorithm, Memo, OptimizeOptions, Optimized};
use dpnext_query::Query;
use dpnext_sql::{plan as bind_sql, BoundQuery, SqlError};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Builder-style facade over the whole workspace: pick an algorithm, set
/// its budgets and EXPLAIN rendering, then optimize [`Query`] values or SQL
/// text in one call.
///
/// The catalog used for SQL binding defaults to the TPC-H schema
/// ([`dpnext_catalog::tpch_catalog`]) and is built lazily on the first
/// `optimize_sql` call; supply your own with [`Optimizer::with_catalog`].
///
/// Every method takes `&self` and the catalog is held behind an [`Arc`],
/// so one configured `Optimizer` can be shared across threads (it is
/// `Send + Sync`) — the property the `dpnext-serve` service layer builds
/// on. Binding SQL does not mutate the catalog: the same text against
/// the same catalog always binds to bit-identical attribute ids.
///
/// [`Optimizer::optimize`] and the `optimize_sql*` calls run in a scratch
/// memo the optimizer parks between calls (one per concurrent caller), so
/// a request finds the arena and lanes at the capacity the largest earlier
/// request grew them to: it takes no page fault for memo growth and costs
/// the same whichever request ran before it. A parked memo keeps the
/// capacity of the largest run it served ([`Memo::reset`] keeps its
/// buffers), which is at most twice the memo footprint of the largest
/// query this optimizer has run; the scratch goes when the optimizer is
/// dropped, and a clone starts with none.
/// Callers that manage memos themselves use [`Optimizer::optimize_pooled`].
#[derive(Debug, Clone)]
pub struct Optimizer {
    algorithm: Algorithm,
    options: OptimizeOptions,
    catalog: OnceLock<Arc<Catalog>>,
    scratch: Scratch,
}

/// The memos parked between [`Optimizer::optimize`] calls.
#[derive(Default)]
struct Scratch(Mutex<Vec<Memo>>);

impl Scratch {
    fn parked(&self) -> std::sync::MutexGuard<'_, Vec<Memo>> {
        // A memo is only ever pushed or popped whole: nothing to repair.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for Scratch {
    fn clone(&self) -> Scratch {
        Scratch::default()
    }
}

impl fmt::Debug for Scratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scratch({} parked)", self.parked().len())
    }
}

impl Optimizer {
    /// A facade running `algorithm` with the default options: no budget
    /// and EXPLAIN rendering enabled.
    pub fn new(algorithm: Algorithm) -> Optimizer {
        Optimizer {
            algorithm,
            options: OptimizeOptions::default(),
            catalog: OnceLock::new(),
            scratch: Scratch::default(),
        }
    }

    // perfbench-only: the frozen benchmark still calls this setter (with 1
    // and 2); the enumeration has one engine, so the count is ignored.
    // Delete once perfbench retires `core.t2_speedup` (see ROADMAP).
    #[doc(hidden)]
    pub fn threads(self, _threads: usize) -> Optimizer {
        self
    }

    /// Plan budget of a ladder run ([`OptimizeOptions::plan_budget`]): the
    /// maximum number of plans the search may build across its exact →
    /// linearized → greedy degradation ladder. `0` (the default) uses
    /// [`dpnext_core::ladder::DEFAULT_PLAN_BUDGET`]; requests below the
    /// greedy floor are clamped up so a valid plan always fits. The stats
    /// on the result prove the cap: `memo.plan_budget` is the effective
    /// budget and `plans_built` never exceeds it.
    pub fn plan_budget(mut self, budget: u64) -> Optimizer {
        self.options.plan_budget = budget;
        self
    }

    /// Wall-clock deadline per optimization
    /// ([`OptimizeOptions::deadline`]). A deadline turns *any* algorithm
    /// choice into the adaptive degradation ladder: the run degrades exact
    /// → partial-exact → linearized → greedy as the clock runs out and
    /// always returns a structurally valid plan, with `memo.degradation`
    /// recording why.
    /// Overshoot past the deadline is bounded by one enumeration work
    /// unit. `None` (the default) changes nothing: unconstrained runs are
    /// bit-identical to an optimizer without the knob.
    pub fn deadline(mut self, deadline: Option<Duration>) -> Optimizer {
        self.options.deadline = deadline;
        self
    }

    /// Toggle EXPLAIN rendering on the result (disable for benchmarking
    /// loops; the memo statistics are always collected).
    pub fn explain(mut self, on: bool) -> Optimizer {
        self.options.explain = on;
        self
    }

    /// Bind SQL against this catalog instead of the TPC-H default.
    pub fn with_catalog(self, catalog: Catalog) -> Optimizer {
        self.with_shared_catalog(Arc::new(catalog))
    }

    /// Like [`Optimizer::with_catalog`], but sharing an existing
    /// [`Arc`]-held catalog (several optimizers, or an optimizer and a
    /// serving layer, can point at the same statistics).
    ///
    /// The catalog is fixed from here on: `Catalog` has no interior
    /// mutability and a built `Optimizer` offers no way to swap it. The
    /// serving layer relies on that — `dpnext_serve::OptimizerService`
    /// remembers a statement's bound query by its text for the service's
    /// lifetime, and only its plans carry a statistics epoch. Making the
    /// statistics behind a live optimizer swappable means keying that map
    /// by epoch as well.
    pub fn with_shared_catalog(mut self, catalog: Arc<Catalog>) -> Optimizer {
        self.catalog = OnceLock::from(catalog);
        self
    }

    /// The catalog SQL is bound against (the TPC-H schema, instantiated
    /// on first use, unless [`Optimizer::with_catalog`] supplied one).
    pub fn catalog(&self) -> &Arc<Catalog> {
        self.catalog.get_or_init(|| Arc::new(tpch_catalog()))
    }

    /// Optimize an already-constructed [`Query`], in this optimizer's
    /// scratch memo (see the type's documentation).
    pub fn optimize(&self, query: &Query) -> Optimized {
        let parked = self.scratch.parked().pop();
        let mut memo = parked.unwrap_or_default();
        // A panicking run unwinds past the push: its memo is dropped.
        let optimized = self.optimize_pooled(query, &mut memo);
        self.scratch.parked().push(memo);
        optimized
    }

    /// Full pipeline from SQL text: parse, bind, optimize.
    pub fn optimize_sql(&self, sql: &str) -> Result<Optimized, SqlError> {
        self.optimize_sql_bound(sql).map(|(_, opt)| opt)
    }

    /// Like [`Optimizer::optimize_sql`], additionally returning the bound
    /// query (table occurrences, output column names) for callers that
    /// execute the plan or generate data.
    pub fn optimize_sql_bound(&self, sql: &str) -> Result<(BoundQuery, Optimized), SqlError> {
        let bound = bind_sql(sql, self.catalog())?;
        let optimized = self.optimize(&bound.query);
        Ok((bound, optimized))
    }

    /// [`Optimizer::optimize`] running inside a caller-supplied [`Memo`]
    /// (see [`optimize_into`]): results and statistics are bit-identical to
    /// a fresh run, only the memo's allocations are reused — for every
    /// algorithm, the adaptive ladder included, so a pooled memo is the
    /// one the request actually ran in.
    pub fn optimize_pooled(&self, query: &Query, memo: &mut Memo) -> Optimized {
        optimize_into(query, self.algorithm, &self.options, memo)
    }

    /// The algorithm and options every run of this optimizer uses — what
    /// [`optimize_into`] takes to run exactly as this optimizer does.
    pub fn configured(&self) -> (Algorithm, OptimizeOptions) {
        (self.algorithm, self.options)
    }
}
