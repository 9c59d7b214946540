//! The kernel's event queue: a binary heap of `(time, sequence)` keys
//! over a slab of parked events, with an exact pop-order contract.
//!
//! # Ordering contract
//!
//! [`EventQueue`] pops events in strictly increasing `(at, seq)` order,
//! where `seq` is a sequence number the queue hands out: a
//! [`push`](EventQueue::push) takes the next one, and
//! [`reserve_seq`](EventQueue::reserve_seq) takes one for an event placed
//! later with [`push_at_seq`](EventQueue::push_at_seq) or moved there with
//! [`reschedule`](EventQueue::reschedule). Earlier deadlines pop first;
//! among equal deadlines the smaller sequence number does. A deadline may
//! be earlier than the last event popped; it still pops in `(at, seq)`
//! order among what is queued. Every digest-gated artifact depends on
//! this order and on nothing else about the queue.
//!
//! # Handles
//!
//! A push returns an [`EventHandle`] naming the event until it pops or is
//! [`remove`](EventQueue::remove)d; after that its slot is reused, so the
//! holder must forget it. The kernel keeps one per socket and timer kind,
//! which is what lets a re-armed timer move its one entry and a cancelled
//! one leave instead of popping later as a no-op.
//!
//! # Why a heap of keys
//!
//! A sift moves 24-byte `(at, seq, slot)` keys and records where each
//! landed in its slot; the event itself (about 200 bytes in the kernel)
//! is written once when pushed and read once when popped. When the heap
//! held whole events and every timer re-arm pushed another, the ledger's
//! `bulk` ran at two thirds of its speed now. A hierarchical timer wheel
//! is faster per operation and, measured on the ledger, no faster end to
//! end, while every `Simulator` pays for its 704 empty slots in
//! allocations and peak memory.
//! DESIGN.md "Hot path & memory" has both tables.

use crate::time::SimTime;
use std::num::NonZeroU32;

/// Names one queued event from its push until it pops or is removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle(NonZeroU32);

impl EventHandle {
    fn new(slot: usize) -> Self {
        let id = u32::try_from(slot + 1).expect("fewer than 2^32 queued events");
        EventHandle(NonZeroU32::new(id).expect("slot + 1 is non-zero"))
    }

    fn slot(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// What the heap orders: deadline, sequence number, and the slab slot
/// the event is parked in.
#[derive(Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    #[inline]
    fn before(&self, other: &Key) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// A slab slot: a parked event and the heap index of its key, or, while
/// vacant, the next vacant slot.
struct Parked<T> {
    item: Option<T>,
    link: u32,
}

/// No vacant slot.
const NONE: u32 = u32::MAX;

/// The first reservation of the heap and of the slab: a small cell's
/// queue never grows past it, where doubling from `Vec`'s first four
/// entries would take each vector five allocations to get there.
const FIRST_CAPACITY: usize = 64;

/// A queue of `(deadline, payload)` events popped in `(at, seq)` order.
pub struct EventQueue<T> {
    heap: Vec<Key>,
    slab: Vec<Parked<T>>,
    /// First vacant slab slot, or [`NONE`].
    free: u32,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue. Allocates nothing until the first push.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slab: Vec::new(),
            free: NONE,
            next_seq: 0,
        }
    }

    /// Alias of [`EventQueue::new`], kept because `benchmark/src/surface.rs`
    /// calls the queue by this name (benchmark/README.md §Surface); the
    /// next benchmark PR renames the call and this goes.
    pub fn wheel() -> Self {
        Self::new()
    }

    /// Schedule `item` at `at`. Events with equal `at` pop in push order.
    #[inline]
    pub fn push(&mut self, at: SimTime, item: T) -> EventHandle {
        let seq = self.reserve_seq();
        self.push_at_seq(at, seq, item)
    }

    /// Take the next sequence number without queueing anything: the
    /// place in push order of an event queued (or moved) later.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Schedule `item` at `(at, seq)`, `seq` reserved with
    /// [`EventQueue::reserve_seq`] and used once.
    pub fn push_at_seq(&mut self, at: SimTime, seq: u64, item: T) -> EventHandle {
        debug_assert!(seq <= self.next_seq, "seq {seq} was never reserved");
        let slot = self.park(item);
        if self.heap.capacity() == 0 {
            self.heap.reserve_exact(FIRST_CAPACITY);
        }
        let key = Key {
            at,
            seq,
            slot: slot as u32,
        };
        self.heap.push(key);
        self.sift_up(self.heap.len() - 1, key);
        EventHandle::new(slot)
    }

    /// Move a queued event to `(at, seq)`, `seq` reserved as for
    /// [`EventQueue::push_at_seq`].
    pub fn reschedule(&mut self, handle: EventHandle, at: SimTime, seq: u64) {
        debug_assert!(seq <= self.next_seq, "seq {seq} was never reserved");
        let slot = handle.slot();
        let i = self.heap_index(slot);
        let key = Key {
            at,
            seq,
            slot: slot as u32,
        };
        if key.before(&self.heap[i]) {
            self.sift_up(i, key);
        } else {
            self.sift_down(i, key);
        }
    }

    /// Take a queued event out without popping it.
    pub fn remove(&mut self, handle: EventHandle) -> T {
        let slot = handle.slot();
        let i = self.heap_index(slot);
        let gone = self.heap[i];
        let last = self.heap.pop().expect("a queued event has a key");
        if i < self.heap.len() {
            if last.before(&gone) {
                self.sift_up(i, last);
            } else {
                self.sift_down(i, last);
            }
        }
        self.vacate(slot)
    }

    /// The payload of a queued event.
    pub(crate) fn get_mut(&mut self, handle: EventHandle) -> &mut T {
        let parked = &mut self.slab[handle.slot()];
        parked.item.as_mut().expect("handle names a queued event")
    }

    /// Pop the earliest event, or `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_before(SimTime::MAX)
    }

    /// Pop the earliest event only if its deadline is `<= deadline`.
    #[inline]
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        let top = *self.heap.first()?;
        if top.at > deadline {
            return None;
        }
        let last = self.heap.pop().expect("peeked key");
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
        Some((top.at, self.vacate(top.slot as usize)))
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Every queued payload, in no particular order (for tests).
    #[cfg(test)]
    pub(crate) fn items(&self) -> impl Iterator<Item = &T> {
        self.slab.iter().filter_map(|p| p.item.as_ref())
    }

    /// The deadline of the next event to pop (for tests).
    #[cfg(test)]
    pub(crate) fn next_at(&self) -> Option<SimTime> {
        self.heap.first().map(|k| k.at)
    }

    /// Park `item` in a vacant slot, or a new one.
    fn park(&mut self, item: T) -> usize {
        if self.free != NONE {
            let slot = self.free as usize;
            let parked = &mut self.slab[slot];
            self.free = parked.link;
            parked.item = Some(item);
            return slot;
        }
        if self.slab.capacity() == 0 {
            self.slab.reserve_exact(FIRST_CAPACITY);
        }
        self.slab.push(Parked {
            item: Some(item),
            link: 0,
        });
        self.slab.len() - 1
    }

    /// Take the event out of `slot` and put the slot on the free list.
    fn vacate(&mut self, slot: usize) -> T {
        let parked = &mut self.slab[slot];
        let item = parked.item.take().expect("slot holds a queued event");
        parked.link = self.free;
        self.free = slot as u32;
        item
    }

    /// Where the key of the event in `slot` sits in the heap.
    fn heap_index(&self, slot: usize) -> usize {
        let parked = &self.slab[slot];
        debug_assert!(parked.item.is_some(), "handle names a queued event");
        parked.link as usize
    }

    /// Write `key` at heap index `i` and record the index in its slot.
    #[inline]
    fn place(&mut self, i: usize, key: Key) {
        self.heap[i] = key;
        self.slab[key.slot as usize].link = i as u32;
    }

    /// Settle `key` into the hole at `i` by moving parents down.
    fn sift_up(&mut self, mut i: usize, key: Key) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let above = self.heap[parent];
            if !key.before(&above) {
                break;
            }
            self.place(i, above);
            i = parent;
        }
        self.place(i, key);
    }

    /// Settle `key` into the hole at `i` by moving children up.
    fn sift_down(&mut self, mut i: usize, key: Key) {
        let len = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.heap[child + 1].before(&self.heap[child]) {
                child += 1;
            }
            let below = self.heap[child];
            if !below.before(&key) {
                break;
            }
            self.place(i, below);
            i = child;
        }
        self.place(i, key);
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn keys_are_24_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    #[test]
    fn fifo_at_equal_timestamps() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(t(500), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((t(500), i)));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn fresh_queue_allocates_nothing_until_first_push() {
        // Every `Simulator` builds one; the matrix workloads build
        // thousands, so construction must stay free.
        let mut q = EventQueue::new();
        assert_eq!((q.heap.capacity(), q.slab.capacity()), (0, 0));
        assert_eq!(q.pop_before(t(u64::MAX)), None::<(SimTime, u8)>);
        let _ = q.reserve_seq();
        assert_eq!((q.heap.capacity(), q.slab.capacity()), (0, 0));
        q.push(t(1), 0u8);
        assert_eq!(
            (q.heap.capacity(), q.slab.capacity()),
            (FIRST_CAPACITY, FIRST_CAPACITY)
        );
    }

    #[test]
    fn a_popped_or_removed_slot_is_reused() {
        let mut q = EventQueue::new();
        let a = q.push(t(10), 'a');
        let b = q.push(t(20), 'b');
        assert_eq!(q.pop(), Some((t(10), 'a')));
        let c = q.push(t(30), 'c');
        assert_eq!(c, a, "the popped slot is the next one taken");
        assert_eq!(q.remove(b), 'b');
        let d = q.push(t(5), 'd');
        assert_eq!(d, b, "the removed slot is the next one taken");
        assert_eq!(q.slab.len(), 2, "no slot was added");
        assert_eq!(q.pop(), Some((t(5), 'd')));
        assert_eq!(q.pop(), Some((t(30), 'c')));
        assert!(q.is_empty());
    }

    #[test]
    fn orders_across_levels() {
        // Deadlines nanoseconds, microseconds and seconds out.
        let mut q = EventQueue::new();
        q.push(t(1_000_000_000), "far");
        q.push(t(3), "near");
        q.push(t(70_000), "mid");
        assert_eq!(q.pop(), Some((t(3), "near")));
        assert_eq!(q.pop(), Some((t(70_000), "mid")));
        assert_eq!(q.pop(), Some((t(1_000_000_000), "far")));
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(t(100), 1);
        q.push(t(200), 2);
        assert_eq!(q.pop_before(t(150)), Some((t(100), 1)));
        assert_eq!(q.pop_before(t(150)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(t(200)), Some((t(200), 2)));
    }

    #[test]
    fn push_behind_elapsed_still_pops_in_heap_order() {
        let mut q = EventQueue::new();
        q.push(t(1_000_000), 1);
        assert_eq!(q.pop_before(t(500_000)), None);
        // Deadlines behind a failed bounded pop's horizon are ordinary.
        q.push(t(10), 2);
        q.push(t(5), 3);
        assert_eq!(q.pop(), Some((t(5), 3)));
        assert_eq!(q.pop(), Some((t(10), 2)));
        assert_eq!(q.pop(), Some((t(1_000_000), 1)));
    }

    #[test]
    fn push_during_drain_of_same_nanosecond() {
        let mut q = EventQueue::new();
        q.push(t(64), 1);
        q.push(t(64), 2);
        assert_eq!(q.pop(), Some((t(64), 1)));
        // Pushed mid-drain at the nanosecond being drained: pops after
        // already-queued peers (it has the larger seq).
        q.push(t(64), 3);
        assert_eq!(q.pop(), Some((t(64), 2)));
        assert_eq!(q.pop(), Some((t(64), 3)));
    }

    #[test]
    fn heap_reference_same_order() {
        // The pop stream is the stable sort of the pushes by deadline.
        let mut q = EventQueue::new();
        let times = [5u64, 5, 900_000_000_000, 64, 65, 64, 0, 1 << 40, 5];
        for (i, &ns) in times.iter().enumerate() {
            q.push(t(ns), i);
        }
        let mut want: Vec<(SimTime, usize)> = times
            .iter()
            .enumerate()
            .map(|(i, &ns)| (t(ns), i))
            .collect();
        want.sort_by_key(|&(at, _)| at);
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn len_tracks_both_stores() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(t(1000), 1);
        let _ = q.pop_before(t(10));
        let h = q.push(t(1), 2); // behind the failed pop's deadline
        q.push(t(3), 3);
        assert_eq!(q.len(), 3);
        q.remove(h);
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }
}
