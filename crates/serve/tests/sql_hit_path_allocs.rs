//! A repeat SQL statement's cache hit allocates nothing: the front map is
//! probed with the borrowed text, the shape it stored becomes the cache
//! key by reference count, and the plan comes out of the cache shared.
//!
//! This file holds exactly one test so the counting global allocator
//! sees no interference from parallel test threads (`hit_path_allocs.rs`
//! is the `Query` door's).

use dpnext::{Algorithm, Optimizer};
use dpnext_serve::OptimizerService;
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
fn repeat_sql_statement_hit_allocates_nothing() {
    let sql = "select n.n_name, count(*), sum(s.s_acctbal) \
               from nation n join supplier s on n.n_nationkey = s.s_nationkey \
               group by n.n_name";
    let service = OptimizerService::new(Optimizer::new(Algorithm::EaPrune));

    // Warm up: the miss that fills both maps, then one hit.
    assert!(!service.optimize_sql(sql).expect("binds").cache_hit);
    assert!(service.optimize_sql(sql).expect("binds").cache_hit);

    let before = ALLOCS.load(Ordering::SeqCst);
    let reply = service.optimize_sql(sql);
    let hit = ALLOCS.load(Ordering::SeqCst) - before;

    assert!(reply.expect("binds").cache_hit);
    assert_eq!(0, hit, "a repeat statement's hit must not allocate");
}
