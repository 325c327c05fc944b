//! Heap-allocation meter for the allocation-budget regression test
//! (compiled only with the `bench-alloc` feature).
//!
//! Installs a counting [`GlobalAlloc`] wrapper around the system
//! allocator so a test can count the allocations a region of code
//! makes. Counters are process-global relaxed atomics; read deltas
//! around the region, one measured region at a time (concurrent
//! threads are attributed to whichever region is in flight), or count
//! only the calling thread's allocations with [`thread_allocs`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
thread_local! {
    // Const-initialised and without a destructor: touching it from
    // inside the allocator never allocates.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}
static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts allocation events and tracks
/// live / peak bytes.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
    let live = CURRENT_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    // Lossy peak update is fine: a stale read can only under-report
    // by another thread's in-flight delta, never corrupt the counter.
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.store(live, Ordering::Relaxed);
    }
}

fn on_dealloc(size: usize) {
    CURRENT_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Total allocation events since process start (monotonic; read
/// deltas around the region of interest).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocation events of the calling thread since it started: a region
/// measured by this is blind to what other threads allocate meanwhile.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Bytes currently live on the heap.
pub fn current_bytes() -> u64 {
    CURRENT_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of live heap bytes since process start.
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_move_when_the_heap_is_used() {
        let a0 = allocs();
        let v: Vec<u64> = (0..4096).collect();
        assert!(v.len() == 4096);
        let t0 = thread_allocs();
        let w: Vec<u64> = (0..16).collect();
        assert!(allocs() > a0, "a fresh Vec must register");
        assert_eq!(
            thread_allocs() - t0,
            1,
            "{w:?} is this thread's only allocation"
        );
        assert!(peak_bytes() >= 4096 * 8);
        drop(v);
        // current_bytes is shared across threads; just check it reads.
        let _ = current_bytes();
    }
}
