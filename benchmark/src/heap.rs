//! A global allocator that counts live heap bytes and their high-water
//! mark. Only `seqavf-benchmark-server` installs it.
//!
//! The server reports its peak memory this way rather than as `VmHWM`.
//! glibc gives each server worker thread its own malloc arena, and an
//! arena keeps the memory freed in it. So the server's `VmHWM` depended on
//! which worker happened to run which design update: 112–134 MiB across
//! runs of the same serve-mixed inputs. The live-heap peak depends only on
//! what the server allocates.
//!
//! The library workloads run in `seqavf-benchmark`, which keeps the plain
//! system allocator: wrapping it there, even with counting switched off,
//! made the cold sweep 0–4% slower in four runs made side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// The system allocator, counting live bytes.
pub struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Records a change of `delta` live bytes.
fn changed(delta: isize) {
    let now = LIVE.fetch_add(delta, Relaxed) + delta;
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns `System`'s result; the
// counting touches only atomics and never the memory itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            changed(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            changed(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        changed(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`, `layout` and `new_size` meet `System.realloc`'s
        // requirements, as the caller guarantees.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            changed(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// The most heap bytes live at once in this process, in MiB; 0 unless
/// [`Counting`] is the global allocator.
pub fn peak_mib() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}
