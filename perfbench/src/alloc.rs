//! Process-wide counting allocator: tracks live and peak heap bytes so the
//! benchmark can report the peak live heap of its timed loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

pub struct PeakAlloc;

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size as isize, Ordering::SeqCst) + size as isize;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size as isize, Ordering::SeqCst);
}

// SAFETY: every method forwards to `System` with the arguments it was given,
// so `System`'s guarantees carry over; the counters never touch the memory.
unsafe impl GlobalAlloc for PeakAlloc {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which is
    // passed on unchanged to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout, same contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as for `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout, same contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `ptr` and `layout` come from an earlier call on this allocator,
    // which obtained them from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `ptr` and `layout` come from an earlier call on this allocator;
    // `new_size` is forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_dealloc(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start a new peak window at the current live level.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::SeqCst), Ordering::SeqCst);
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::SeqCst).max(0) as usize
}
