//! The disabled path must be free: with tracing off, `span` and the
//! metric hot paths must not allocate at all.
//!
//! This file holds exactly one test so the counting global allocator
//! sees no interference from parallel test threads.

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
fn disabled_tracing_and_metric_hot_paths_allocate_nothing() {
    // Warm up everything that lazily allocates on first touch, so the
    // measured window sees only the steady-state hot paths.
    let gauge = dpnext_obs::Gauge::new();
    let counter = dpnext_obs::Counter::new();
    let histogram = dpnext_obs::Histogram::new();
    gauge.add(1);
    gauge.sub(1);
    {
        let mut warm = dpnext_obs::span("warmup");
        warm.tag_u64("i", 0);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for i in 0..1_000u64 {
        let mut s = dpnext_obs::span("test.disabled");
        s.tag_u64("i", i);
        s.tag_str("kind", "noop");
        assert!(!s.is_recording());
        drop(s);
        counter.inc();
        counter.add(i);
        histogram.observe(i);
        gauge.add(i);
        gauge.sub(i);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        before, after,
        "disabled tracing / metric hot paths must not allocate"
    );
    assert_eq!(
        dpnext_obs::spans_opened(),
        dpnext_obs::spans_closed(),
        "inert spans must not count as opened"
    );
}
