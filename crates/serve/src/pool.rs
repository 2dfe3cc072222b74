//! The memo arena pool: recycle plan-arena allocations across runs, and
//! keep the books on the bytes they hold.

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
    /// Footprint bytes ([`Memo::footprint_bytes`]) of every memo the pool
    /// holds: the parked ones at their check-in footprint, the checked-out
    /// ones at their checkout footprint (growth during a run is settled at
    /// check-in). Zero once every memo has left the pool.
    pub bytes: u64,
    /// High-water mark of `bytes`. It keeps the worst outlier ever held,
    /// not the current footprint.
    pub bytes_peak: u64,
    /// Memos destroyed instead of parked because they were live during a
    /// panic ([`PooledMemo::quarantine`], or a drop while the thread was
    /// unwinding). A quarantined memo is never handed out again.
    pub quarantined: u64,
    /// Cumulative footprint bytes destroyed by quarantine. A quarantined
    /// memo leaves `bytes` the moment it is dropped and its footprint lands
    /// here, so a panic never makes bytes vanish from the books.
    pub quarantined_bytes: u64,
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
/// return drops.
///
/// A parked memo keeps the capacity of the largest run it served
/// ([`Memo::reset`] keeps its buffers, as the `dpnext::Optimizer`
/// facade's scratch memo does), so the pool holds at most `capacity`
/// memos of that footprint. One outlier request leaves its memo that big
/// until the pool drops it: on a 1-memo pool, 8 ladder chains of 20–40
/// relations, six EA-All `paper(7)` queries and 24 more chains leave
/// ~85 MB booked, where the chains alone book ~4 MB.
///
/// The pool books every memo it knows about, parked or checked out, by
/// its footprint ([`PoolStats::bytes`]): checkout books a fresh memo (a
/// parked one is booked already), check-in re-measures the memo after its
/// run, and every exit — over-capacity discard, check-in rejection,
/// quarantine — takes its bytes off the books, so they balance to zero
/// once every memo has left.
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
    // Registry-backed cells: `PoolStats` and the metrics registry read the
    // same cells. `pooled` mirrors the free-list length and moves under
    // its lock (its peak is `pooled_peak`); `bytes`' peak is `bytes_peak`.
    created: Arc<Counter>,
    reused: Arc<Counter>,
    pooled: Arc<Gauge>,
    bytes: Arc<Gauge>,
    quarantined: Arc<Counter>,
    quarantined_bytes: Arc<Counter>,
    rejected_invalid: Arc<Counter>,
}

impl MemoPool {
    /// A pool parking at most `capacity` idle memos (0 disables pooling).
    pub fn new(capacity: usize) -> MemoPool {
        MemoPool {
            free: Mutex::new(Vec::new()),
            capacity,
            created: Arc::new(Counter::new()),
            reused: Arc::new(Counter::new()),
            pooled: Arc::new(Gauge::new()),
            bytes: Arc::new(Gauge::new()),
            quarantined: Arc::new(Counter::new()),
            quarantined_bytes: Arc::new(Counter::new()),
            rejected_invalid: Arc::new(Counter::new()),
        }
    }

    /// Expose this pool's cells in `registry` (under `dpnext_pool_*`; the
    /// byte gauge's `_peak` companion carries the high-water mark).
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
            "dpnext_pool_bytes",
            "Footprint bytes of the memos the pool holds (parked + checked out).",
            &[],
            self.bytes.clone(),
        );
        registry.register_counter(
            "dpnext_pool_quarantined_total",
            "Memos destroyed instead of parked after a panic.",
            &[],
            self.quarantined.clone(),
        );
        registry.register_counter(
            "dpnext_pool_quarantined_bytes_total",
            "Footprint bytes destroyed via memo quarantine.",
            &[],
            self.quarantined_bytes.clone(),
        );
        registry.register_counter(
            "dpnext_pool_rejected_invalid_total",
            "Memos discarded at check-in for failing structural validation.",
            &[],
            self.rejected_invalid.clone(),
        );
    }

    /// Whether pooling is enabled (a non-zero capacity was configured).
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Take a memo out of the pool, constructing one if none is parked.
    pub fn checkout(&self) -> PooledMemo<'_> {
        let parked = if self.enabled() {
            // The gauge moves with the list, under its lock: a concurrent
            // park must not count its memo before this one is counted out.
            let mut free = self.free.lock().unwrap();
            free.pop().inspect(|_| self.pooled.sub(1))
        } else {
            None
        };
        let memo = match parked {
            Some(memo) => {
                self.reused.inc();
                memo
            }
            None => {
                self.created.inc();
                let memo = Memo::new();
                // A parked memo is booked already (at its check-in
                // footprint); only a fresh construction adds bytes.
                self.bytes.add(memo.footprint_bytes());
                memo
            }
        };
        PooledMemo {
            accounted: memo.footprint_bytes(),
            memo: Some(memo),
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
        } else if self.enabled() {
            let mut free = self.free.lock().unwrap();
            if free.len() < self.capacity {
                // Re-measure: the run may have grown the memo since
                // checkout. The books are settled before the memo is
                // published: once it is on the free list another
                // thread may check it out and release its new footprint,
                // and a (saturating) release that overtook this booking
                // would leave the books high.
                self.bytes.sub(accounted);
                self.bytes.add(memo.footprint_bytes());
                self.pooled.add(1);
                free.push(memo);
                return;
            }
        }
        self.bytes.sub(accounted);
    }

    fn quarantine_memo(&self, memo: &Memo, accounted: u64) {
        // The footprint destroyed now (the run may have grown it past its
        // checkout footprint) goes on the quarantine tally; the books
        // release what was booked.
        self.quarantined.inc();
        self.quarantined_bytes.add(memo.footprint_bytes());
        self.bytes.sub(accounted);
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            created: self.created.get(),
            reused: self.reused.get(),
            pooled: self.pooled.get(),
            pooled_peak: self.pooled.peak(),
            bytes: self.bytes.get(),
            bytes_peak: self.bytes.peak(),
            quarantined: self.quarantined.get(),
            quarantined_bytes: self.quarantined_bytes.get(),
            rejected_invalid: self.rejected_invalid.get(),
        }
    }
}

/// A checked-out [`Memo`]; derefs to the memo and parks it back into
/// the pool on drop.
pub struct PooledMemo<'p> {
    memo: Option<Memo>,
    /// Footprint bytes this checkout holds on the pool's books (the memo's
    /// footprint as of checkout; growth during the run is settled at
    /// check-in).
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
    use dpnext::Optimizer;
    use dpnext_core::Algorithm;
    use dpnext_workload::{generate_query, GenConfig};

    /// Run an EA-Prune query of `n` relations in `memo` and return the
    /// footprint the run leaves it with.
    fn grow(memo: &mut Memo, n: usize) -> u64 {
        let q = generate_query(&GenConfig::paper(n), 7);
        Optimizer::new(Algorithm::EaPrune).optimize_pooled(&q, memo);
        memo.footprint_bytes()
    }

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
        let (mut a, mut b, mut c) = (pool.checkout(), pool.checkout(), pool.checkout());
        let parked = grow(&mut a, 4) + grow(&mut b, 3);
        grow(&mut c, 5);
        drop(a);
        drop(b);
        drop(c); // over capacity: dropped, not parked
        let stats = pool.stats();
        assert_eq!(3, stats.created);
        assert_eq!(2, stats.pooled);
        assert_eq!(2, stats.pooled_peak);
        assert_eq!(
            parked, stats.bytes,
            "the books hold the parked memos and nothing of the discarded one"
        );
    }

    /// `pooled` moves under the free list's lock, so its peak never reads
    /// past the capacity however checkouts and check-ins interleave. (A
    /// decrement after the unlock lets a concurrent park count its memo
    /// first: the peak then reads 2–4 on a capacity of 1.)
    #[test]
    fn pooled_peak_never_exceeds_capacity_under_contention() {
        const THREADS: usize = 4;
        for capacity in [1, 2] {
            let pool = MemoPool::new(capacity);
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        start.wait();
                        for _ in 0..20_000 {
                            drop(pool.checkout());
                        }
                    });
                }
            });
            let stats = pool.stats();
            assert!(
                stats.pooled_peak <= capacity as u64,
                "pooled_peak {} over capacity {capacity}",
                stats.pooled_peak
            );
            assert_eq!(stats.pooled, pool.free.lock().unwrap().len() as u64);
        }
    }

    #[test]
    fn a_parked_memo_keeps_the_outlier_capacity_and_is_reused_in_place() {
        // One EA-All outlier grows a five-figure arena on the pooled memo,
        // and `Memo::reset` keeps it: the pool's bound is its capacity
        // times the footprint of the largest run a parked memo served. A
        // stream of small queries after the outlier then grows nothing and
        // runs in the one parked memo. An EA-Prune run after the outlier
        // leaves dominance rows in the memo's classes; no small EA-All run
        // fills any, so they go (the `rows_peak` rule).
        let pool = MemoPool::new(1);
        let opt = Optimizer::new(Algorithm::EaAll);
        let prune = Optimizer::new(Algorithm::EaPrune);
        let big = generate_query(&GenConfig::paper(6), 42);
        let small = generate_query(&GenConfig::paper(3), 42);

        let (outlier_cap, outlier_bytes, outlier_rows) = {
            let mut memo = pool.checkout();
            opt.optimize_pooled(&big, &mut memo);
            prune.optimize_pooled(&generate_query(&GenConfig::paper(11), 42), &mut memo);
            (
                memo.arena_capacity(),
                memo.footprint_bytes(),
                memo.class_row_capacity(),
            )
        };
        assert!(
            outlier_cap > 2048,
            "outlier run too small to tell from a small one (capacity {outlier_cap})"
        );
        assert!(
            outlier_rows > 100,
            "the EA-Prune run left too few rows to see released ({outlier_rows})"
        );

        let mut last_bytes = outlier_bytes;
        for _ in 0..12 {
            let mut memo = pool.checkout();
            opt.optimize_pooled(&small, &mut memo);
            assert_eq!(outlier_cap, memo.arena_capacity(), "the arena moved");
            let bytes = memo.footprint_bytes();
            assert!(bytes <= last_bytes, "a small run grew the memo");
            last_bytes = bytes;
        }
        let (settled_cap, settled_rows, settled_bytes) = {
            let mut memo = pool.checkout();
            opt.optimize_pooled(&small, &mut memo);
            (
                memo.arena_capacity(),
                memo.class_row_capacity(),
                memo.footprint_bytes(),
            )
        };
        let stats = pool.stats();
        assert_eq!(
            outlier_cap, settled_cap,
            "the parked memo lost its capacity"
        );
        // EA-All keeps no rows: whatever row capacity is left is the
        // EA-Prune run's.
        assert_eq!(
            0, settled_rows,
            "class rows still pinned after 12 small runs (were {outlier_rows})"
        );
        // The pool served every post-warmup request from the single parked
        // memo, and its books hold that memo at its footprint.
        assert_eq!(1, stats.created);
        assert_eq!(13, stats.reused);
        assert_eq!(settled_bytes, stats.bytes);
        assert!(stats.bytes_peak >= outlier_bytes);
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
        let pool = MemoPool::new(2);
        let q = generate_query(&GenConfig::paper(3), 1);
        let opt = Optimizer::new(Algorithm::EaPrune);
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
        assert_eq!(0, stats.bytes, "a rejected memo leaves the books");
        drop(pool.checkout());
        assert_eq!(2, pool.stats().created);
    }

    #[test]
    fn ledger_tracks_parked_and_live_footprints() {
        let pool = MemoPool::new(2);
        let parked_footprint = grow(&mut pool.checkout(), 4);
        // parked: stays booked at its post-run footprint
        assert!(parked_footprint > 0);
        assert_eq!(
            parked_footprint,
            pool.stats().bytes,
            "a parked memo must stay booked at its check-in footprint"
        );
        {
            let _live = pool.checkout(); // re-adopts the parked bytes
            assert_eq!(parked_footprint, pool.stats().bytes);
        }
        assert_eq!(parked_footprint, pool.stats().bytes);
    }

    #[test]
    fn quarantine_releases_ledger_bytes_and_tallies_them() {
        // The regression this pins: a quarantined memo's footprint used to
        // vanish from the accounting entirely — destroyed without a trace.
        // Now the pool releases the booked bytes *and* records them in
        // `quarantined_bytes`.
        let pool = MemoPool::new(4);
        let destroyed = {
            let mut memo = pool.checkout();
            let fp = grow(&mut memo, 4);
            memo.quarantine();
            fp
        };
        assert!(destroyed > 0);
        let stats = pool.stats();
        assert_eq!(0, stats.bytes, "quarantine must release booked bytes");
        assert_eq!(
            destroyed, stats.quarantined_bytes,
            "the destroyed footprint must be tallied, not vanish"
        );
        assert_eq!(1, stats.quarantined);
    }

    #[test]
    fn disabled_pool_never_parks() {
        let pool = MemoPool::new(0);
        for n in [3, 4] {
            assert!(grow(&mut pool.checkout(), n) > 0);
            assert_eq!(0, pool.stats().bytes, "a dropped memo leaves the books");
        }
        let stats = pool.stats();
        assert_eq!(2, stats.created);
        assert_eq!((0, 0), (stats.reused, stats.pooled));
    }
}
