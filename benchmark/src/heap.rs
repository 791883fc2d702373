//! Peak live heap bytes, counted by the process's allocator.
//!
//! `VmHWM` was the first choice for the memory metric and does not repeat:
//! the same `hybrid16` run reads 78 or 86 MiB depending on whether glibc
//! happens to reuse a freed 8 MiB buffer or map a new one (arena count and
//! the dynamic mmap threshold both depend on thread timing). The bytes the
//! program has asked for and not yet returned do not depend on any of that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with two counters around it. The counters publish
/// no other data, so `Relaxed` is enough.
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counters never touch
// the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded; the caller guarantees a non-zero-sized layout.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded; the caller guarantees a non-zero-sized layout.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded; `ptr` came from this allocator with `layout`
        // and the caller guarantees `new_size` is valid for its alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Peak live heap of the process so far, MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1 << 20) as f64
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_peak_follows_a_large_allocation() {
        let before = super::peak_mib();
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        assert!(super::peak_mib() >= before.max(64.0));
    }
}
