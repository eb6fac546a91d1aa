//! The counting global allocator: [`System`] plus three process-wide
//! counters — gross bytes ever requested, live bytes, and the live
//! high-water mark — for the memory regression tests and the scale
//! bench. A binary opts in with its own `#[global_allocator] static` of
//! type [`CountingAllocator`]; the counters being global, one measuring
//! from several threads (a test binary does, by default) serialises its
//! windows itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// [`System`], counting into process-wide statics.
pub struct CountingAllocator;

static GROSS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A block of `size` bytes came to life, `grown` of them new traffic.
fn on_alloc(size: usize, grown: usize) {
    GROSS.fetch_add(grown, Relaxed);
    PEAK.fetch_max(LIVE.fetch_add(size, Relaxed) + size, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// the allocator the caller's `Layout` contract was written against, and
// returns what `System` returns; the only additions are relaxed updates
// of three statistics counters, which touch no allocator state and
// allocate nothing themselves.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size(), layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout` (a non-zero size), which is `System.alloc`'s, and
        // `layout` is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`; every block this allocator hands out is
        // `System`'s (see `alloc`/`realloc`), so `System` frees it.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Gross traffic grows by what the block grew; live bytes count
        // the new block before releasing the old one — the real
        // allocator may briefly hold both.
        on_alloc(new_size, new_size.saturating_sub(layout.size()));
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout` — so from `System` — and a valid non-zero
        // `new_size`; all three are passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

impl CountingAllocator {
    /// Bytes ever requested (frees are not subtracted): the traffic a
    /// clone would add to.
    pub fn gross() -> usize {
        GROSS.load(Relaxed)
    }

    /// Bytes live right now.
    pub fn live() -> usize {
        LIVE.load(Relaxed)
    }

    /// Run `f`: its value, and the peak of live bytes *above* the live
    /// level at entry — what tells holding a payload from allocating
    /// it transiently.
    pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let live = CountingAllocator::live();
        PEAK.store(live, Relaxed);
        let value = f();
        (value, PEAK.load(Relaxed).saturating_sub(live))
    }
}
