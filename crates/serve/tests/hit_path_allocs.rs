//! A cache hit allocates what fingerprinting its query allocates, and
//! nothing more: the request path builds the cache key once and every
//! later stage borrows it.
//!
//! This file holds exactly one test so the counting global allocator
//! sees no interference from parallel test threads.

use dpnext::{Algorithm, Optimizer};
use dpnext_serve::{fingerprint_query, OptimizerService};
use dpnext_workload::{generate_query, GenConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn cache_hit_allocates_exactly_what_the_fingerprint_allocates() {
    let query = generate_query(&GenConfig::paper(6), 3);
    let service = OptimizerService::new(Optimizer::new(Algorithm::EaPrune));

    // Warm up: the miss that fills the cache, one hit, one fingerprint.
    assert!(!service.optimize(&query).expect("no faults").cache_hit);
    assert!(service.optimize(&query).expect("no faults").cache_hit);
    drop(fingerprint_query(&query));

    let before = ALLOCS.load(Ordering::SeqCst);
    let shape = fingerprint_query(&query);
    let fingerprint = ALLOCS.load(Ordering::SeqCst) - before;
    drop(shape);

    let before = ALLOCS.load(Ordering::SeqCst);
    let reply = service.optimize(&query);
    let hit = ALLOCS.load(Ordering::SeqCst) - before;

    assert!(reply.expect("no faults").cache_hit);
    assert!(fingerprint > 0, "the shape is an owned encoding");
    assert_eq!(
        fingerprint, hit,
        "a cache hit must allocate exactly what its fingerprint allocates"
    );
}
