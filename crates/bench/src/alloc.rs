//! A counting global allocator, for the `perf` binary and
//! `tests/alloc_budget.rs`.
//!
//! What a control period allocates is a number with a budget (see
//! `docs/performance.md`, "What a control period allocates"); a binary
//! that wants it counted installs [`Counting`] with `#[global_allocator]`.
//! Counts are per thread, so a measurement sees only the work of the
//! thread that made it — test threads running side by side do not
//! disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(allocations, bytes requested)` by this thread. Const-initialised
    /// and without a destructor, so reading it never allocates and it
    /// outlives every other thread-local.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    let _ = COUNTS.try_with(|counts| {
        let (allocs, total) = counts.get();
        counts.set((allocs + 1, total + bytes as u64));
    });
}

/// The system allocator, counting every `alloc` and `realloc`; the bytes
/// of a `realloc` are booked only when it grows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never influence the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A shrink (`shrink_to_fit`) hands memory back; it requests none.
        let grows = new_size > layout.size();
        count(if grows { new_size } else { 0 });
        // SAFETY: `ptr`/`layout` came from `System`; the caller vouches
        // for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `work` and returns its result with the `(allocations, bytes
/// requested)` the calling thread made meanwhile — `(0, 0)` unless
/// [`Counting`] is the process's global allocator.
pub fn measure<T>(work: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocs, bytes) = COUNTS.get();
    let out = work();
    let (allocs_after, bytes_after) = COUNTS.get();
    (out, allocs_after - allocs, bytes_after - bytes)
}
