//! The memo arena pool: recycle plan-arena allocations across runs.

use crate::govern::ResourceLedger;
use dpnext::Memo;
use dpnext_obs::{Counter, Gauge, Registry};
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

/// Point-in-time pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Memos constructed from scratch. Once the pool is warmed up (as
    /// many parked memos as concurrent workers), this stops growing —
    /// the acceptance signal that steady-state serving allocates no new
    /// arenas.
    pub created: u64,
    /// Checkouts served from a parked memo (allocation reuse).
    pub reused: u64,
    /// Memos currently parked in the pool.
    pub pooled: u64,
    /// High-water mark of parked memos.
    pub pooled_peak: u64,
    /// Largest arena capacity (in plans) ever returned to the pool —
    /// the steady-state per-memo allocation footprint.
    pub arena_peak_capacity: u64,
    /// Memos destroyed instead of parked because they were live during a
    /// panic ([`PooledMemo::quarantine`], or a drop while the thread was
    /// unwinding). A quarantined memo is never handed out again.
    pub quarantined: u64,
    /// Memos discarded at check-in because they failed the structural
    /// validation ([`dpnext::Memo::check_invariants`]) — a half-reset or
    /// corrupted memo must never be reused silently. Debug builds panic
    /// instead of counting.
    pub rejected_invalid: u64,
}

/// A pool of reusable [`Memo`]s.
///
/// [`MemoPool::checkout`] hands out a parked memo when one is available
/// (its arena allocation intact) and constructs a fresh one otherwise;
/// dropping the [`PooledMemo`] parks it again, up to `capacity` parked
/// memos. The optimizer [`Memo::reset`]s the memo before every run, so
/// results are bit-identical whether the memo is fresh or recycled.
///
/// `capacity` = 0 disables pooling: every checkout constructs, every
/// return drops — the knob the unpooled benchmark cells use.
///
/// ```
/// use dpnext_serve::MemoPool;
///
/// let pool = MemoPool::new(8);
/// {
///     let _memo = pool.checkout(); // fresh construction
/// } // parked on drop
/// let _memo = pool.checkout(); // reused, no new arena
/// let stats = pool.stats();
/// assert_eq!((1, 1), (stats.created, stats.reused));
/// ```
pub struct MemoPool {
    free: Mutex<Vec<Memo>>,
    capacity: usize,
    ledger: Option<Arc<ResourceLedger>>,
    // Registry-backed cells (PR 10): `PoolStats` and the metrics registry
    // read the same cells. `pooled` mirrors the free-list length (its
    // peak is the old `pooled_peak`); `arena_capacity` holds the last
    // parked arena capacity (its peak is `arena_peak_capacity`).
    created: Arc<Counter>,
    reused: Arc<Counter>,
    pooled: Arc<Gauge>,
    arena_capacity: Arc<Gauge>,
    quarantined: Arc<Counter>,
    rejected_invalid: Arc<Counter>,
}

impl MemoPool {
    /// A pool parking at most `capacity` idle memos (0 disables pooling).
    pub fn new(capacity: usize) -> MemoPool {
        MemoPool {
            free: Mutex::new(Vec::new()),
            capacity,
            ledger: None,
            created: Arc::new(Counter::new()),
            reused: Arc::new(Counter::new()),
            pooled: Arc::new(Gauge::new()),
            arena_capacity: Arc::new(Gauge::new()),
            quarantined: Arc::new(Counter::new()),
            rejected_invalid: Arc::new(Counter::new()),
        }
    }

    /// Expose this pool's cells in `registry` (under `dpnext_pool_*`).
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter(
            "dpnext_pool_created_total",
            "Memos constructed from scratch.",
            &[],
            self.created.clone(),
        );
        registry.register_counter(
            "dpnext_pool_reused_total",
            "Checkouts served from a parked memo.",
            &[],
            self.reused.clone(),
        );
        registry.register_gauge(
            "dpnext_pool_parked",
            "Memos currently parked in the pool.",
            &[],
            self.pooled.clone(),
        );
        registry.register_gauge(
            "dpnext_pool_arena_capacity_plans",
            "Arena capacity (plans) of the most recently parked memo.",
            &[],
            self.arena_capacity.clone(),
        );
        registry.register_counter(
            "dpnext_pool_quarantined_total",
            "Memos destroyed instead of parked after a panic.",
            &[],
            self.quarantined.clone(),
        );
        registry.register_counter(
            "dpnext_pool_rejected_invalid_total",
            "Memos discarded at check-in for failing structural validation.",
            &[],
            self.rejected_invalid.clone(),
        );
    }

    /// Like [`MemoPool::new`], registering every memo footprint —
    /// parked *and* checked out — with a shared [`ResourceLedger`].
    ///
    /// Accounting happens at pool boundaries: checkout registers a fresh
    /// memo's footprint (a parked memo is already registered), check-in
    /// re-measures the memo after its run, and every exit path —
    /// over-capacity discard, check-in rejection, **quarantine** — releases
    /// the registered bytes. Quarantined footprints are additionally
    /// tallied in [`crate::LedgerStats::quarantined_bytes`], so a panic
    /// never makes bytes silently vanish from the global accounting.
    pub fn with_ledger(capacity: usize, ledger: Arc<ResourceLedger>) -> MemoPool {
        let mut pool = MemoPool::new(capacity);
        pool.ledger = Some(ledger);
        pool
    }

    /// Whether pooling is enabled (a non-zero capacity was configured).
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Take a memo out of the pool, constructing one if none is parked.
    pub fn checkout(&self) -> PooledMemo<'_> {
        let parked = if self.enabled() {
            self.free.lock().unwrap().pop()
        } else {
            None
        };
        let (memo, fresh) = match parked {
            Some(m) => {
                self.reused.inc();
                self.pooled.sub(1);
                (m, false)
            }
            None => {
                self.created.inc();
                (Memo::new(), true)
            }
        };
        // A parked memo is already registered with the ledger (at its
        // check-in footprint); only a fresh construction adds bytes.
        let accounted = memo.footprint_bytes();
        if fresh {
            if let Some(ledger) = &self.ledger {
                ledger.add(accounted);
            }
        }
        PooledMemo {
            memo: Some(memo),
            accounted,
            pool: self,
        }
    }

    fn park(&self, memo: Memo, accounted: u64) {
        // Check-in validation: a memo whose structural invariants broke
        // mid-run (half reset, classes referencing truncated plans) must
        // never be reused silently. Debug builds fail loudly; release
        // builds discard the memo and count the rejection.
        if let Err(violation) = memo.check_invariants() {
            debug_assert!(false, "memo failed check-in validation: {violation}");
            self.rejected_invalid.inc();
            self.release(accounted);
            return;
        }
        // `set` raises the gauge's peak, which is the stat reported as
        // `arena_peak_capacity`.
        self.arena_capacity.set(memo.arena_capacity() as u64);
        if !self.enabled() {
            self.release(accounted);
            return;
        }
        let mut free = self.free.lock().unwrap();
        if free.len() < self.capacity {
            // Re-measure: the run may have grown (or reset-shrunk) the
            // arena since checkout. The parked memo stays registered at
            // its new footprint until the next checkout re-adopts it.
            // The books are settled *before* the memo is published: once
            // it is on the free list another thread may check it out and
            // release it, and a (saturating) release that overtakes this
            // registration would be clamped and leave the ledger high.
            let parked_footprint = memo.footprint_bytes();
            if let Some(ledger) = &self.ledger {
                ledger.add(parked_footprint);
                ledger.sub(accounted);
            }
            self.pooled.add(1);
            free.push(memo);
        } else {
            drop(free);
            self.release(accounted);
        }
    }

    fn release(&self, accounted: u64) {
        if let Some(ledger) = &self.ledger {
            ledger.sub(accounted);
        }
    }

    fn quarantine_memo(&self, memo: &Memo, accounted: u64) {
        self.quarantined.inc();
        if let Some(ledger) = &self.ledger {
            // The footprint being destroyed right now (the run may have
            // grown it past the checked-out estimate) goes on the
            // quarantine tally; the ledger releases what was registered.
            ledger.record_quarantined(memo.footprint_bytes());
            ledger.sub(accounted);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            created: self.created.get(),
            reused: self.reused.get(),
            pooled: self.free.lock().unwrap().len() as u64,
            pooled_peak: self.pooled.peak(),
            arena_peak_capacity: self.arena_capacity.peak(),
            quarantined: self.quarantined.get(),
            rejected_invalid: self.rejected_invalid.get(),
        }
    }
}

/// A checked-out [`Memo`]; derefs to the memo and parks it back into
/// the pool on drop.
pub struct PooledMemo<'p> {
    memo: Option<Memo>,
    /// Footprint bytes this checkout holds registered in the pool's
    /// ledger (the memo's footprint as of checkout; growth during the
    /// run is settled at check-in).
    accounted: u64,
    pool: &'p MemoPool,
}

impl Deref for PooledMemo<'_> {
    type Target = Memo;

    fn deref(&self) -> &Memo {
        self.memo.as_ref().expect("present until drop")
    }
}

impl DerefMut for PooledMemo<'_> {
    fn deref_mut(&mut self) -> &mut Memo {
        self.memo.as_mut().expect("present until drop")
    }
}

impl PooledMemo<'_> {
    /// Destroy this memo instead of parking it: the poison path for a
    /// memo that was live while the optimizer panicked. Its DP state may
    /// be arbitrarily torn (a panic can interrupt any arena/class
    /// mutation), so it never re-enters the free list — the next checkout
    /// constructs fresh. Counted in [`PoolStats::quarantined`].
    pub fn quarantine(mut self) {
        if let Some(memo) = self.memo.take() {
            self.pool.quarantine_memo(&memo, self.accounted);
        }
    }
}

impl Drop for PooledMemo<'_> {
    fn drop(&mut self) {
        if let Some(memo) = self.memo.take() {
            // Defense in depth: a memo dropped while its thread unwinds
            // was live during the panic — quarantine it even if the owner
            // forgot to. (The service's catch_unwind path calls
            // `quarantine` explicitly; this catches everyone else.)
            if std::thread::panicking() {
                self.pool.quarantine_memo(&memo, self.accounted);
                return;
            }
            self.pool.park(memo, self.accounted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_then_steady_state() {
        let pool = MemoPool::new(4);
        drop(pool.checkout());
        let after_warmup = pool.stats().created;
        for _ in 0..10 {
            drop(pool.checkout());
        }
        let stats = pool.stats();
        assert_eq!(after_warmup, stats.created, "steady state re-created");
        assert_eq!(10, stats.reused);
        assert_eq!(1, stats.pooled);
    }

    #[test]
    fn capacity_bounds_parked_memos() {
        let pool = MemoPool::new(2);
        let (a, b, c) = (pool.checkout(), pool.checkout(), pool.checkout());
        drop(a);
        drop(b);
        drop(c); // over capacity: dropped, not parked
        let stats = pool.stats();
        assert_eq!(3, stats.created);
        assert_eq!(2, stats.pooled);
        assert_eq!(2, stats.pooled_peak);
    }

    #[test]
    fn reset_shrink_releases_outlier_arena_capacity() {
        use dpnext::Optimizer;
        use dpnext_core::Algorithm;
        use dpnext_workload::{generate_query, GenConfig};

        // One EA-All outlier pins a five-figure arena on the pooled memo;
        // the decaying high-water shrink in `Memo::reset` must then release
        // that footprint across a steady stream of small queries instead
        // of carrying it forever. This pins the shrink behavior: if reset
        // ever goes back to unconditional capacity retention, the final
        // bound below fails.
        let pool = MemoPool::new(1);
        let opt = Optimizer::new(Algorithm::EaAll).explain(false);
        let big = generate_query(&GenConfig::paper(6), 42);
        let small = generate_query(&GenConfig::paper(3), 42);

        let outlier_cap = {
            let mut memo = pool.checkout();
            opt.optimize_pooled(&big, &mut memo);
            memo.arena_capacity()
        };
        assert!(
            outlier_cap > 2048,
            "outlier run too small to exercise the shrink (capacity {outlier_cap})"
        );

        for _ in 0..12 {
            let mut memo = pool.checkout();
            opt.optimize_pooled(&small, &mut memo);
        }
        let (settled_cap, stats) = {
            let mut memo = pool.checkout();
            opt.optimize_pooled(&small, &mut memo);
            (memo.arena_capacity(), pool.stats())
        };
        assert!(
            settled_cap <= 2048,
            "arena capacity {settled_cap} still pinned after 12 small runs \
             (outlier was {outlier_cap})"
        );
        // The pool served every post-warmup request from the single parked
        // memo — the shrink happened in place, not by re-construction.
        assert_eq!(1, stats.created);
        assert_eq!(13, stats.reused);
        // The peak counter deliberately keeps the outlier: it reports the
        // worst footprint ever parked, not the current one.
        assert!(stats.arena_peak_capacity >= outlier_cap as u64);
    }

    #[test]
    fn quarantined_memo_is_never_handed_out_again() {
        let pool = MemoPool::new(4);
        pool.checkout().quarantine();
        let stats = pool.stats();
        assert_eq!(1, stats.quarantined);
        assert_eq!(0, stats.pooled, "quarantined memo must not be parked");
        drop(pool.checkout());
        let stats = pool.stats();
        assert_eq!(
            2, stats.created,
            "post-quarantine checkout must construct fresh"
        );
        assert_eq!(0, stats.reused);
    }

    #[test]
    fn drop_during_panic_quarantines() {
        let pool = MemoPool::new(4);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _memo = pool.checkout();
            panic!("injected: drop during unwind");
        }));
        assert!(unwound.is_err());
        let stats = pool.stats();
        assert_eq!(1, stats.quarantined);
        assert_eq!(0, stats.pooled);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "check-in validation"))]
    fn invalid_memo_is_rejected_at_check_in() {
        use dpnext::Optimizer;
        use dpnext_core::Algorithm;
        use dpnext_workload::{generate_query, GenConfig};

        let pool = MemoPool::new(2);
        let q = generate_query(&GenConfig::paper(3), 1);
        let opt = Optimizer::new(Algorithm::EaPrune).explain(false);
        {
            let mut memo = pool.checkout();
            opt.optimize_pooled(&q, &mut memo);
            // Corrupt the memo: the classes now reference plans past the
            // arena end, exactly the half-reset shape check-in must catch.
            memo.truncate(dpnext::Memo::new().mark());
        } // drop -> park -> validation (panics in debug builds)
        let stats = pool.stats();
        assert_eq!(1, stats.rejected_invalid);
        assert_eq!(0, stats.pooled, "invalid memo must not be parked");
        drop(pool.checkout());
        assert_eq!(2, pool.stats().created);
    }

    #[test]
    fn ledger_tracks_parked_and_live_footprints() {
        use dpnext::Optimizer;
        use dpnext_core::Algorithm;
        use dpnext_workload::{generate_query, GenConfig};

        let ledger = Arc::new(ResourceLedger::new());
        let pool = MemoPool::with_ledger(2, ledger.clone());
        let q = generate_query(&GenConfig::paper(4), 7);
        let opt = Optimizer::new(Algorithm::EaPrune).explain(false);
        let parked_footprint = {
            let mut memo = pool.checkout();
            opt.optimize_pooled(&q, &mut memo);
            memo.footprint_bytes()
        }; // parked: stays registered at its post-run footprint
        assert!(parked_footprint > 0);
        assert_eq!(
            parked_footprint,
            ledger.bytes(),
            "a parked memo must stay registered at its check-in footprint"
        );
        {
            let _live = pool.checkout(); // re-adopts the parked bytes
            assert_eq!(parked_footprint, ledger.bytes());
        }
        assert_eq!(parked_footprint, ledger.bytes());
    }

    #[test]
    fn quarantine_releases_ledger_bytes_and_tallies_them() {
        // The regression this pins: a quarantined memo's footprint used to
        // vanish from the accounting entirely — destroyed without a trace.
        // Now the ledger releases the registered bytes *and* records them
        // in `quarantined_bytes`.
        use dpnext::Optimizer;
        use dpnext_core::Algorithm;
        use dpnext_workload::{generate_query, GenConfig};

        let ledger = Arc::new(ResourceLedger::new());
        let pool = MemoPool::with_ledger(4, ledger.clone());
        let q = generate_query(&GenConfig::paper(4), 7);
        let opt = Optimizer::new(Algorithm::EaPrune).explain(false);
        let destroyed = {
            let mut memo = pool.checkout();
            opt.optimize_pooled(&q, &mut memo);
            let fp = memo.footprint_bytes();
            memo.quarantine();
            fp
        };
        assert!(destroyed > 0);
        let stats = ledger.stats();
        assert_eq!(0, stats.bytes, "quarantine must release registered bytes");
        assert_eq!(
            destroyed, stats.quarantined_bytes,
            "the destroyed footprint must be tallied, not vanish"
        );
        assert_eq!(1, pool.stats().quarantined);
    }

    #[test]
    fn disabled_pool_never_parks() {
        let pool = MemoPool::new(0);
        drop(pool.checkout());
        drop(pool.checkout());
        let stats = pool.stats();
        assert_eq!(2, stats.created);
        assert_eq!((0, 0), (stats.reused, stats.pooled));
    }
}
