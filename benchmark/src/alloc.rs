//! The ledger's global allocator: forwards to the system allocator and
//! counts allocations, requested bytes, live bytes and the live-byte
//! high-water mark of the calling thread.
//!
//! The in-tree `counting-alloc` ignores `dealloc`, so it can report
//! allocation pressure but not host memory; `peak_live_bytes` needs the
//! frees as well. Counters are per thread: every counted region of the
//! ledger runs on the thread that reads them, so the one multi-threaded
//! probe (and, under `cargo test`, the other tests) cannot disturb a
//! count. Memory freed by a thread that did not allocate it is booked
//! against the freeing thread, hence the wrapping arithmetic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without destructors: reading them from
    // inside the allocator neither allocates nor registers a destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

/// Pass-through allocator that keeps the four counters above.
pub struct LedgerAlloc;

fn grew(by: u64) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + by));
    let live = LIVE.with(|c| {
        c.set(c.get().wrapping_add(by));
        c.get()
    });
    // A wrapped ("negative") live count never becomes the peak.
    if live < u64::MAX / 2 {
        PEAK.with(|c| c.set(c.get().max(live)));
    }
}

fn shrank(by: u64) {
    LIVE.with(|c| c.set(c.get().wrapping_sub(by)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter updates touch
// only this module's thread-local cells and can neither unwind nor
// allocate.
unsafe impl GlobalAlloc for LedgerAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size() as u64);
        System.dealloc(ptr, layout)
    }

    // One allocation of the new size (it may move), as the in-tree
    // counter books it, so `allocs_per_packet` continues that series.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size() as u64);
        grew(new_size as u64);
        System.realloc(ptr, layout, new_size)
    }
}

/// A reading of the calling thread's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
    /// Bytes allocated and not yet freed.
    pub live: u64,
    /// Highest value `live` has had since [`reset_peak`].
    pub peak: u64,
}

impl Snapshot {
    /// Allocations and bytes requested since `earlier`; `live` and
    /// `peak` are this reading's own.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
            ..self
        }
    }
}

/// Read all four counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.get(),
        bytes: BYTES.get(),
        live: LIVE.get(),
        peak: PEAK.get(),
    }
}

/// Restart the high-water mark from the current live bytes, so the next
/// reading's `peak` belongs to the region that follows.
pub fn reset_peak() {
    PEAK.set(LIVE.get());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_freed_buffer_raises_the_peak_but_not_the_live_count() {
        const MIB: u64 = 1 << 20;
        let before = snapshot();
        reset_peak();
        let buf = std::hint::black_box(vec![0xA5u8; MIB as usize]);
        let held = snapshot();
        drop(buf);
        let after = snapshot();

        assert_eq!(held.live, before.live + MIB, "the held buffer is live");
        assert_eq!(after.since(before).allocs, 1);
        assert_eq!(after.since(before).bytes, MIB);
        assert_eq!(after.live, before.live, "the freed buffer is not");
        assert_eq!(after.peak, before.live + MIB, "the peak remembers it");
    }
}
