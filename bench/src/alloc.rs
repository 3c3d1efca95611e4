//! A counting `#[global_allocator]`.
//!
//! Counters are thread-local, so a client thread that samples them
//! before and after one call sees only the allocations that call made
//! on this thread — never the harness's or another client's. (Work the
//! codec fans out to scoped helper threads for ≥ 16 KiB shards is
//! therefore not counted; the helpers allocate nothing per byte.)
//!
//! The allocator is installed in every run, traced or not, so it is
//! identical on both sides of any comparison.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Delegates to the system allocator and counts requests.
pub struct CountingAlloc;

thread_local! {
    // `const` initialisers and no destructors: touching these from
    // inside the allocator can neither allocate nor observe a
    // torn-down slot.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// plain thread-local cells.
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
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from
        // `System`, and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// The calling thread's running totals: `(allocations, bytes requested)`.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_known_allocation_pattern_counts_exactly() {
        let (a0, b0) = snapshot();
        let first = std::hint::black_box(vec![0u8; 1000]);
        let mut second: Vec<u8> = std::hint::black_box(Vec::with_capacity(64));
        second.reserve_exact(4096); // one realloc to exactly 4096 bytes
        let (a1, b1) = snapshot();
        drop((first, second));
        assert_eq!(a1 - a0, 3, "alloc_zeroed + alloc + realloc");
        assert_eq!(b1 - b0, 1000 + 64 + 4096);
        // Frees are not requests.
        assert_eq!(snapshot(), (a1, b1));
    }

    #[test]
    fn other_threads_do_not_leak_into_this_threads_counters() {
        let before = snapshot();
        std::thread::scope(|s| {
            s.spawn(|| std::hint::black_box(vec![1u8; 1 << 16]));
        });
        // Spawning allocates on this thread (handle, packet), the
        // child's 64 KiB vector must not show up here.
        let (_, bytes) = snapshot();
        assert!(bytes - before.1 < 1 << 16, "child allocation leaked");
    }
}
