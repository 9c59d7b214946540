//! A counting [`GlobalAlloc`] for the test binaries that pin allocation
//! counts (`httpipe-core`'s count table, `tests/count_table/mod.rs`, and
//! `httpwire`'s `tests/declared_length.rs`).
//!
//! The simulator's determinism crates (`netsim`, `bytes`) forbid
//! `unsafe`, so the one `unsafe impl` a counting allocator needs lives
//! here, in a crate nothing links against except those test binaries:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc::new();
//!
//! let before = counting_alloc::allocations();
//! run_workload();
//! let allocs = counting_alloc::allocations() - before;
//! ```
//!
//! Counters are process-global relaxed atomics: cheap enough to leave
//! enabled (a few `fetch_add`s per malloc), and exact for single-threaded
//! measured regions, which is how the count table uses them.
//!
//! Frees are counted too, so that memory — not only allocation pressure —
//! can be pinned: [`live_bytes`] is what is allocated and not
//! yet freed, [`peak_live_bytes`] its high-water mark since the last
//! [`reset_peak`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(by: usize) {
    let by = by as u64;
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(by, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(by: usize) {
    LIVE_BYTES.fetch_sub(by as u64, Ordering::Relaxed);
}

/// Forwards to the system allocator, counting every allocation and
/// every free.
///
/// `realloc` counts as one allocation of the new size (it may move) and
/// one free of the old.
pub struct CountingAlloc;

impl CountingAlloc {
    /// A new counting allocator (const, for `#[global_allocator]`).
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: pure pass-through to `System`, plus relaxed counter bumps
// that cannot alias or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total heap allocations since process start (monotonic).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total bytes requested from the allocator since process start
/// (monotonic; freed bytes are not subtracted).
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Bytes allocated and not yet freed.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Highest value [`live_bytes`] has had since the last [`reset_peak`]
/// (since process start if there was none).
pub fn peak_live_bytes() -> u64 {
    PEAK_LIVE_BYTES.load(Ordering::Relaxed)
}

/// Restart the high-water mark from the current live bytes, which it
/// returns: the next [`peak_live_bytes`] less this is what the region in
/// between added at its worst.
pub fn reset_peak() -> u64 {
    let live = live_bytes();
    PEAK_LIVE_BYTES.store(live, Ordering::Relaxed);
    live
}

#[cfg(test)]
mod tests {
    // The counters only tick when this allocator is installed as
    // `#[global_allocator]`, which a unit test inside the library can't
    // do without imposing it on every dependent; install it here for the
    // test binary only.
    #[global_allocator]
    static ALLOC: super::CountingAlloc = super::CountingAlloc::new();

    #[test]
    fn counts_allocations() {
        let before = (super::allocations(), super::allocated_bytes());
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        let after = (super::allocations(), super::allocated_bytes());
        assert!(after.0 > before.0, "allocation not counted");
        assert!(after.1 >= before.1 + 4096, "bytes not counted");
    }

    #[test]
    fn a_freed_buffer_raises_the_peak_but_not_the_live_count() {
        // The other test's 4 KiB may come and go meanwhile: allow for it.
        const MIB: u64 = 1 << 20;
        const SLACK: u64 = 1 << 14;
        let base = super::reset_peak();
        let buf = std::hint::black_box(vec![0xA5u8; MIB as usize]);
        let held = super::live_bytes();
        drop(buf);
        let (after, peak) = (super::live_bytes(), super::peak_live_bytes());
        assert!(held >= base + MIB - SLACK, "the held buffer is live");
        assert!(after <= base + SLACK, "the freed buffer is not");
        assert!(peak >= base + MIB - SLACK, "the peak remembers it");
    }
}
