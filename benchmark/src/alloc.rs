//! The benchmark binary's allocator: the system allocator, with byte and call
//! accounting that can be switched on for one round.
//!
//! The repository's `CountingAlloc` accounts on every call. Installed for a
//! whole run it made `yueche-datawa`, which allocates about 4,400 times per
//! event, 40–60 % slower (4.1–5.4 s per session without it, 6.8–7.3 s with
//! it), which would have put the benchmark's own instrument into every
//! timing. So memory is measured like tracing is: in a round of its own (the
//! untimed warm-up round), and the timed rounds run on the bare system
//! allocator behind one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

/// Forwards to [`System`]; while measuring, also tracks the net bytes
/// allocated since measuring began, their high-water mark and the number of
/// allocations.
#[derive(Debug)]
pub struct RoundAlloc {
    measuring: AtomicBool,
    /// Net bytes since measuring began. Signed: a block from before the
    /// window may be freed inside it.
    live: AtomicIsize,
    high_water: AtomicIsize,
    allocations: AtomicUsize,
}

/// What one measured window saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measured {
    /// Largest net growth of the heap inside the window, in bytes.
    pub high_water_bytes: usize,
    pub allocations: usize,
}

impl Measured {
    pub fn high_water_mb(&self) -> f64 {
        self.high_water_bytes as f64 / 1e6
    }
}

impl RoundAlloc {
    /// The allocator, not measuring (const, so it can be a `static`).
    pub const fn new() -> RoundAlloc {
        RoundAlloc {
            measuring: AtomicBool::new(false),
            live: AtomicIsize::new(0),
            high_water: AtomicIsize::new(0),
            allocations: AtomicUsize::new(0),
        }
    }

    /// Starts a measured window from zero. Call between rounds, when nothing
    /// the window will free is still allocated.
    pub fn start(&self) {
        self.live.store(0, Ordering::SeqCst);
        self.high_water.store(0, Ordering::SeqCst);
        self.allocations.store(0, Ordering::SeqCst);
        self.measuring.store(true, Ordering::SeqCst);
    }

    /// Ends the window.
    pub fn stop(&self) -> Measured {
        self.measuring.store(false, Ordering::SeqCst);
        Measured {
            high_water_bytes: self.high_water.load(Ordering::SeqCst).max(0) as usize,
            allocations: self.allocations.load(Ordering::SeqCst),
        }
    }

    // The counters are statistics that publish no other data, hence Relaxed.
    #[inline]
    fn on_alloc(&self, size: usize) {
        if self.measuring.load(Ordering::Relaxed) {
            self.allocations.fetch_add(1, Ordering::Relaxed);
            let live = self.live.fetch_add(size as isize, Ordering::Relaxed) + size as isize;
            self.high_water.fetch_max(live, Ordering::Relaxed);
        }
    }

    #[inline]
    fn on_dealloc(&self, size: usize) {
        if self.measuring.load(Ordering::Relaxed) {
            self.live.fetch_sub(size as isize, Ordering::Relaxed);
        }
    }
}

impl Default for RoundAlloc {
    fn default() -> RoundAlloc {
        RoundAlloc::new()
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns what `System` returned; the
// counters are only ever read as statistics and never influence a pointer,
// a size or a layout.
unsafe impl GlobalAlloc for RoundAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator, which handed
        // out exactly what `System` returned for that layout.
        unsafe { System.dealloc(ptr, layout) };
        self.on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            self.on_dealloc(layout.size());
            self.on_alloc(new_size);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_inside_a_window() {
        // Exercised directly, not installed globally.
        let shim = RoundAlloc::new();
        let layout = Layout::from_size_align(4096, 8).expect("layout");
        // SAFETY: each block is allocated with `layout` (or the size passed
        // to `realloc`) and freed once with the layout it then has.
        unsafe {
            let before = shim.alloc(layout);
            shim.start();
            let inside = shim.alloc(layout);
            let grown = shim.realloc(inside, layout, 8192);
            // A block from before the window is freed inside it.
            shim.dealloc(before, layout);
            let seen = shim.stop();
            assert_eq!(seen.allocations, 2);
            assert_eq!(seen.high_water_bytes, 8192);
            shim.dealloc(grown, Layout::from_size_align(8192, 8).expect("layout"));
            assert_eq!(shim.stop(), seen, "nothing is counted outside a window");
        }
    }
}
