//! A std-only counting global allocator.
//!
//! Wraps [`System`] and keeps three numbers: the bytes currently live,
//! the all-time high-water mark, and a high-water mark that the
//! benchmark resets at the start of each measured window. The counters
//! are statistics that publish no other data, so `Relaxed` suffices.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Byte-counting wrapper around the system allocator.
pub struct CountingAlloc {
    current: AtomicUsize,
    peak: AtomicUsize,
    window_peak: AtomicUsize,
}

impl CountingAlloc {
    /// A counter with nothing allocated.
    pub const fn new() -> CountingAlloc {
        CountingAlloc {
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            window_peak: AtomicUsize::new(0),
        }
    }

    /// Bytes live right now.
    pub fn current(&self) -> usize {
        self.current.load(Relaxed)
    }

    /// Highest live byte count since the process started.
    pub fn peak(&self) -> usize {
        self.peak.load(Relaxed)
    }

    /// Highest live byte count since the last [`CountingAlloc::reset_window`].
    pub fn window_peak(&self) -> usize {
        self.window_peak.load(Relaxed)
    }

    /// Start a new measuring window at the current live byte count.
    pub fn reset_window(&self) {
        self.window_peak.store(self.current(), Relaxed);
    }

    /// End the current window: return its high-water mark and start a
    /// new window at the current live byte count.
    pub fn take_window(&self) -> usize {
        self.window_peak.swap(self.current(), Relaxed)
    }

    fn grow(&self, bytes: usize) {
        let now = self.current.fetch_add(bytes, Relaxed) + bytes;
        self.peak.fetch_max(now, Relaxed);
        self.window_peak.fetch_max(now, Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.current.fetch_sub(bytes, Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: every method forwards the caller's layout and pointer unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counters are
// only updated after a successful allocation and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, and every block here came from `System`.
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block from this allocator and `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let old = layout.size();
            if new_size >= old {
                self.grow(new_size - old);
            } else {
                self.shrink(old - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 8).unwrap()
    }

    #[test]
    fn alloc_and_dealloc_balance() {
        let a = CountingAlloc::new();
        let sizes = [8usize, 24, 4096, 1, 100_000];
        let blocks: Vec<(*mut u8, Layout)> = sizes
            .iter()
            .map(|&s| {
                let l = layout(s);
                // SAFETY: non-zero size, freed below with the same layout.
                let p = unsafe { a.alloc(l) };
                assert!(!p.is_null());
                (p, l)
            })
            .collect();
        let total: usize = sizes.iter().sum();
        assert_eq!(a.current(), total);
        assert_eq!(a.peak(), total);
        for (p, l) in blocks {
            // SAFETY: allocated above by `a` with this layout.
            unsafe { a.dealloc(p, l) };
        }
        assert_eq!(a.current(), 0);
        assert_eq!(a.peak(), total, "the high-water mark survives frees");

        let z = layout(64);
        // SAFETY: non-zero size; freed right after.
        let p = unsafe { a.alloc_zeroed(z) };
        assert_eq!(a.current(), 64);
        // SAFETY: allocated above by `a` with this layout.
        unsafe { a.dealloc(p, z) };
        assert_eq!(a.current(), 0);
    }

    #[test]
    fn realloc_counts_only_the_size_change() {
        let a = CountingAlloc::new();
        let l = layout(100);
        // SAFETY: non-zero size.
        let p = unsafe { a.alloc(l) };
        // SAFETY: `p` is live with layout `l`; 1000 is a valid new size.
        let p = unsafe { a.realloc(p, l, 1000) };
        assert_eq!(a.current(), 1000);
        assert_eq!(a.peak(), 1000);
        // SAFETY: `p` is live with size 1000 after the grow.
        let p = unsafe { a.realloc(p, layout(1000), 10) };
        assert_eq!(a.current(), 10);
        assert_eq!(a.peak(), 1000);
        // SAFETY: `p` is live with size 10 after the shrink.
        unsafe { a.dealloc(p, layout(10)) };
        assert_eq!(a.current(), 0);
    }

    #[test]
    fn window_peak_resets_to_the_live_count() {
        let a = CountingAlloc::new();
        let big = layout(10_000);
        let small = layout(500);
        // SAFETY: non-zero sizes; both freed below with their layouts.
        let (pb, ps) = unsafe { (a.alloc(big), a.alloc(small)) };
        // SAFETY: allocated above with `big`.
        unsafe { a.dealloc(pb, big) };
        assert_eq!(a.window_peak(), 10_500);
        a.reset_window();
        assert_eq!(a.window_peak(), 500, "a window starts at the live bytes");
        let tmp = layout(2_000);
        // SAFETY: non-zero size; freed right after.
        let pt = unsafe { a.alloc(tmp) };
        // SAFETY: allocated above with `tmp`.
        unsafe { a.dealloc(pt, tmp) };
        assert_eq!(a.window_peak(), 2_500);
        assert_eq!(
            a.peak(),
            10_500,
            "resetting the window keeps the global peak"
        );
        // SAFETY: allocated above with `small`.
        unsafe { a.dealloc(ps, small) };
    }

    #[test]
    fn take_window_returns_the_peak_and_restarts_at_the_live_count() {
        let a = CountingAlloc::new();
        let big = layout(4_000);
        let small = layout(300);
        // SAFETY: non-zero sizes; both freed below with their layouts.
        let (pb, ps) = unsafe { (a.alloc(big), a.alloc(small)) };
        // SAFETY: allocated above with `big`.
        unsafe { a.dealloc(pb, big) };
        assert_eq!(a.take_window(), 4_300);
        assert_eq!(
            a.window_peak(),
            300,
            "the next window starts at the live bytes"
        );
        assert_eq!(a.take_window(), 300);
        // SAFETY: allocated above with `small`.
        unsafe { a.dealloc(ps, small) };
    }
}
