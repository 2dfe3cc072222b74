//! A counting global allocator for the `alloc` layer.
//!
//! Off (every `--trace 0` run, and a traced run outside the calls of its
//! untraced reference passes) it costs one relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

pub struct CountingAlloc;

// Relaxed everywhere: the counters are statistics and publish no data.
/// Client threads currently inside a counted call.
static COUNTING: AtomicU32 = AtomicU32::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn tally(size: usize) {
    if COUNTING.load(Ordering::Relaxed) != 0 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing realloc is one allocator call for the added bytes.
        tally(new_size.saturating_sub(layout.size()));
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Count the allocator calls made while `f` runs (by any thread: with two
/// clients, one's few harness allocations can land in the other's call).
pub fn counting<T>(f: impl FnOnce() -> T) -> T {
    COUNTING.fetch_add(1, Ordering::Relaxed);
    let out = f();
    COUNTING.fetch_sub(1, Ordering::Relaxed);
    out
}

/// `(calls, bytes)` requested from the allocator while counting was on.
pub fn counted() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}
