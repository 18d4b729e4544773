//! Exact allocation counters: the system allocator, counting.
//!
//! [`CountingAlloc`] forwards every call to [`std::alloc::System`] and
//! counts, process-wide, the blocks it hands out and the bytes they span.
//! A test or binary that wants exact per-phase allocation figures installs
//! it as its global allocator and reads [`AllocCounts::now`] around the
//! phase:
//!
//! ```
//! use telemetry::alloc::{AllocCounts, CountingAlloc};
//!
//! #[global_allocator]
//! static GLOBAL: CountingAlloc = CountingAlloc;
//!
//! fn main() {
//!     let before = AllocCounts::now();
//!     let buf: Vec<u64> = Vec::with_capacity(8);
//!     let spent = AllocCounts::now() - before;
//!     assert_eq!((spent.allocs, spent.bytes), (1, 64));
//!     drop(buf);
//! }
//! ```
//!
//! The counters are process-wide, so a figure is exact only while no other
//! thread allocates: a test that asserts one runs alone in its binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with two counters: allocations (fresh, zeroed and
/// reallocated blocks) and the bytes those blocks span. Frees are not
/// counted.
pub struct CountingAlloc;

#[inline]
fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is two relaxed
// atomic counters that never touch the allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was returned by `System` for `layout` (every path
        // above allocates through it) and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// A reading of the [`CountingAlloc`] counters. Both stay zero in a process
/// that did not install it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Blocks handed out: `alloc`, `alloc_zeroed` and `realloc` calls.
    pub allocs: u64,
    /// Bytes those blocks span (a `realloc` counts its new size).
    pub bytes: u64,
}

impl AllocCounts {
    /// The counters since the process started.
    pub fn now() -> Self {
        Self { allocs: ALLOCS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
    }
}

impl std::ops::Sub for AllocCounts {
    type Output = Self;

    fn sub(self, earlier: Self) -> Self {
        Self { allocs: self.allocs - earlier.allocs, bytes: self.bytes - earlier.bytes }
    }
}
