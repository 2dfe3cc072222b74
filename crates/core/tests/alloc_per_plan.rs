//! Plan construction must not allocate per plan: a plan is two `Copy` rows
//! plus runs of the memo's lanes, so an optimization allocates only for
//! the amortised growth of those buffers — and a run in a warmed-up
//! (reset) memo hardly at all.
//!
//! This file holds exactly one test so the counting global allocator
//! sees no interference from parallel test threads.

use dpnext_core::{optimize_into, Algorithm, Memo, OptContext, OptimizeOptions};
use dpnext_workload::{generate_query, GenConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the count touches only an atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `f` and return how many allocator calls (`alloc` + `realloc`) it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCS.load(Ordering::SeqCst) - before, out)
}

#[test]
fn plan_construction_allocates_only_amortised_growth() {
    let opts = OptimizeOptions::default();
    // Seed 4 at n = 11 is the heaviest EA-Prune query of the benchmark's
    // paper mix: its greedy-seeded walk still builds thousands of plans.
    //
    // The EA-Prune runs pin case (b)'s counts as upper bounds: `(run,
    // context, result)` allocator calls of the warm run. At n = 11 the run
    // makes 163 calls, 70 of them the context's (the `OptContext` that
    // `optimize_into` builds over the borrowed query, whose table key sets
    // are one mask vector each) and 51 the result's (the returned plan
    // tree); at n = 8 it makes 113, with 47 and 37. The greedy seed's
    // component links live in fixed arrays and add none. A change that
    // adds a call on the warm path fails here; one that removes calls
    // lowers the pin.
    let runs = [
        (Algorithm::EaPrune, 11, Some((163, 70, 51))),
        (Algorithm::EaPrune, 8, Some((113, 47, 37))),
        (Algorithm::EaAll, 6, None),
    ];
    for (algo, n, pin) in runs {
        let query = generate_query(&GenConfig::paper(n), 4);
        let mut memo = Memo::new();

        // (a) A fresh memo grows its rows, lanes and class lists from
        // nothing: a few doublings each, nowhere near one call per plan.
        let (fresh, first) = allocations(|| optimize_into(&query, algo, &opts, &mut memo));
        assert!(
            fresh as f64 <= 0.25 * first.plans_built as f64,
            "{algo:?} n={n}: {fresh} allocations for {} plans on a fresh memo",
            first.plans_built
        );

        // (b) The same query again in the reset memo finds every buffer
        // already grown. What is left is the run's input and output —
        // building the context and the returned plan tree, both measured
        // here on their own — and the per-run scratch (`G⁺` cache, pair
        // buffers), a few doublings of a handful of small vectors.
        let (again, second) = allocations(|| optimize_into(&query, algo, &opts, &mut memo));
        let (context, _) = allocations(|| OptContext::new(&query));
        let (result, _) = allocations(|| second.plan.root.clone());
        assert_eq!(first.plan.cost.to_bits(), second.plan.cost.to_bits());
        assert_eq!(first.memo, second.memo);
        let counts = format!(
            "{algo:?} n={n}: {again} allocations in a warmed-up memo \
             ({context} of them for the context, {result} in the returned plan)"
        );
        assert!(again < 64 + context + result, "{counts}");
        if let Some((run, ctx, res)) = pin {
            assert!(
                again <= run && context <= ctx && result <= res,
                "{counts}; pinned at most ({run}, {ctx}, {res})"
            );
        }
    }
}
