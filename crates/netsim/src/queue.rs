//! The kernel's event queue: a binary heap with an exact
//! `(time, push-order)` contract.
//!
//! # Ordering contract
//!
//! [`EventQueue`] pops events in strictly increasing `(at, seq)` order,
//! where `seq` is the push sequence number the queue assigns internally:
//! earlier deadlines first, FIFO among events with the same deadline. A
//! push may carry any deadline, including one earlier than the last
//! event popped; it still pops in `(at, seq)` order among what is
//! queued. Every digest-gated artifact depends on this order and on
//! nothing else about the queue.
//!
//! # Why a heap
//!
//! A hierarchical timer wheel is faster per operation (about 30 ns on
//! each of a packet's two events) and, measured on the ledger, no faster
//! end to end, while every `Simulator` pays for its 704 empty slots in
//! allocations and peak memory. DESIGN.md "Hot path & memory" has the
//! ablation table.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One stored event: deadline, push sequence, payload. Compared on
/// `(at, seq)` only.
struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A queue of `(deadline, payload)` events popped in `(at, seq)` order.
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue. Allocates nothing until the first push.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
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
    pub fn push(&mut self, at: SimTime, item: T) {
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            at,
            seq: self.next_seq,
            item,
        }));
    }

    /// Pop the earliest event, or `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_before(SimTime::MAX)
    }

    /// Pop the earliest event only if its deadline is `<= deadline`.
    #[inline]
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        if self.heap.peek()?.0.at > deadline {
            return None;
        }
        let Reverse(e) = self.heap.pop().expect("peeked entry");
        Some((e.at, e.item))
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        assert_eq!(q.heap.capacity(), 0);
        assert_eq!(q.pop_before(t(u64::MAX)), None::<(SimTime, u8)>);
        assert_eq!(q.heap.capacity(), 0);
        q.push(t(1), 0u8);
        assert!(q.heap.capacity() > 0);
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
        q.push(t(1), 2); // behind the failed pop's deadline
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }
}
