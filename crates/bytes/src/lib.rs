//! Workspace-local stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! implements the small part of the `bytes` 1.x API the workspace uses:
//! [`Bytes`] (a cheaply cloneable, sliceable, immutable byte buffer) and
//! [`BytesMut`] (a growable buffer appended at the back and consumed from
//! the front through a read cursor). Semantics match the real crate for
//! this surface; `clone`, `slice` and `advance` are O(1).
//!
//! # Pooled buffers
//!
//! On top of the `bytes` API this stand-in decides where buffer storage
//! comes from, by one policy — *storage follows bytes*:
//!
//! 1. **An empty buffer owns nothing.** A [`BytesMut`] that empties
//!    (`advance` to the end, `clear`, `split_to_pooled` of everything)
//!    hands its vector to a thread-local pool; its next write takes one
//!    sized for that write. Connections that are closed or idle therefore
//!    pin no memory, however long their owners keep them.
//! 2. **The pool hands storage out by size.** Free lists are kept per
//!    power-of-two class, 64 B … 64 KiB, each bounded in bytes; a request
//!    takes the smallest class that holds it, so a pooled buffer never
//!    holds more than twice what was asked of it. Storage past the largest
//!    class is never pooled: it is an ordinary `Vec` that stays with its
//!    owner.
//! 3. **Growth goes through the pool.** A buffer that must grow takes the
//!    next class that fits, copies its live bytes and returns the old
//!    vector; past the largest class it grows by `Vec::reserve`.
//!
//! [`Bytes::pooled_copy_from_slice`], [`BytesMut::split_to_pooled`] and
//! [`BytesMut::freeze_pooled`] give out `Bytes` backed by such a vector;
//! it returns to the pool of whichever thread drops the last reference.
//! Pooled and shared buffers are observationally identical (equality and
//! hashing go through the byte contents), so pooling can never change
//! simulation results — it only recycles storage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::{Arc, OnceLock};

/// Smallest storage class; a shorter write still takes this much.
const POOL_MIN_CAP: usize = 1 << 6;
/// Largest storage class. Storage with more capacity is never pooled
/// (one giant reassembled body must not pin memory for the rest of the
/// run): it stays with its owner and grows by `Vec::reserve`.
const POOL_MAX_CAP: usize = 1 << 16;
/// Power-of-two classes from [`POOL_MIN_CAP`] to [`POOL_MAX_CAP`].
const POOL_CLASSES: usize = (POOL_MAX_CAP / POOL_MIN_CAP).trailing_zeros() as usize + 1;
/// Bytes one class's free list may hold per thread; beyond this,
/// returned vectors are freed.
const POOL_CLASS_BYTES: usize = 1 << 20;

thread_local! {
    /// One free list per class; every vector on list `c` has capacity
    /// exactly `POOL_MIN_CAP << c`.
    static POOL: RefCell<[Vec<Vec<u8>>; POOL_CLASSES]> =
        const { RefCell::new([const { Vec::new() }; POOL_CLASSES]) };
}

/// The free list a vector of exactly `cap` bytes belongs on.
fn class_of(cap: usize) -> usize {
    (cap / POOL_MIN_CAP).trailing_zeros() as usize
}

/// An empty vector with room for `min` bytes (at most [`POOL_MAX_CAP`]):
/// the smallest class that holds them, from this thread's pool if it has
/// one, so storage is never more than twice what was asked for.
fn pool_take(min: usize) -> Vec<u8> {
    let cap = min.max(POOL_MIN_CAP).next_power_of_two();
    POOL.with(|p| p.borrow_mut()[class_of(cap)].pop())
        .unwrap_or_else(|| Vec::with_capacity(cap))
}

/// Return a vector to this thread's pool. Anything that is not exactly a
/// class's size, or that would take the class past its byte bound, is
/// freed instead.
fn pool_put(mut v: Vec<u8>) {
    let cap = v.capacity();
    if !cap.is_power_of_two() || !(POOL_MIN_CAP..=POOL_MAX_CAP).contains(&cap) {
        return;
    }
    v.clear();
    // `try_with`: the last reference may drop while the thread's locals
    // are being torn down, and then the vector is simply freed.
    let _ = POOL.try_with(|p| {
        let list = &mut p.borrow_mut()[class_of(cap)];
        if (list.len() + 1) * cap <= POOL_CLASS_BYTES {
            list.push(v);
        }
    });
}

/// A pooled allocation: hands its vector back to the free list of
/// whichever thread drops the last reference.
struct PoolChunk {
    buf: Vec<u8>,
}

impl Drop for PoolChunk {
    fn drop(&mut self) {
        pool_put(std::mem::take(&mut self.buf));
    }
}

/// Backing storage of a [`Bytes`].
#[derive(Clone)]
enum Repr {
    /// A plain shared slice.
    Shared(Arc<[u8]>),
    /// A pool-recycled vector (see the module docs).
    Pooled(Arc<PoolChunk>),
}

impl Repr {
    #[inline]
    fn as_slice(&self) -> &[u8] {
        match self {
            Repr::Shared(a) => a,
            Repr::Pooled(c) => &c.buf,
        }
    }
}

/// The process-wide empty buffer: `Bytes::new` bumps a refcount instead
/// of allocating a fresh zero-length `Arc` header per call.
fn empty_shared() -> Arc<[u8]> {
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from(&[][..])).clone()
}

/// A cheaply cloneable, immutable slice of bytes.
///
/// Clones and sub-slices share one reference-counted allocation.
#[derive(Clone)]
pub struct Bytes {
    data: Repr,
    start: usize,
    end: usize,
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes {
            data: Repr::Shared(empty_shared()),
            start: 0,
            end: 0,
        }
    }
}

impl Bytes {
    /// Create a new, empty instance.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Copy `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Copy `data` into a pool-recycled buffer: the backing storage
    /// comes from (and on final drop returns to) a bounded thread-local
    /// free list. Indistinguishable from [`Bytes::copy_from_slice`]
    /// except for allocator traffic; meant for per-segment payloads.
    pub fn pooled_copy_from_slice(data: &[u8]) -> Bytes {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(data);
        buf.freeze_pooled()
    }

    /// Wrap a static slice (copied here; the real crate borrows it, but
    /// the observable behaviour is identical).
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when no bytes are contained.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Discard the first `at` bytes.
    pub fn advance(&mut self, at: usize) {
        assert!(at <= self.len(), "advance {at} past {} bytes", self.len());
        self.start += at;
    }

    /// A sub-slice sharing the same allocation. Panics when the range is
    /// out of bounds, like slice indexing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of range"
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data.as_slice()[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Repr::Shared(v.into()),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&&self[..], f)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

/// A growable byte buffer appended at the back and consumed from the
/// front.
///
/// This is the one place that decides how consumed bytes leave a buffer
/// and where a buffer's storage comes from. The live bytes are
/// `vec[head..]`, and consuming moves the cursor `head` instead of
/// shifting the remainder down; the dead prefix is reclaimed when an
/// append would otherwise have to grow the allocation. Storage follows
/// the bytes (see the module docs): a buffer that empties hands its
/// vector to the pool, and the next write takes one sized for that write.
#[derive(Clone, Default)]
pub struct BytesMut {
    vec: Vec<u8>,
    /// Read cursor: `vec[..head]` has been consumed.
    head: usize,
}

impl BytesMut {
    /// Create a new, empty instance. It owns no storage.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty accumulator with room for `cap` bytes (the caller states
    /// the size it expects, so a body written in pieces grows at most
    /// once); finish it with [`BytesMut::freeze_pooled`].
    pub fn pooled(cap: usize) -> BytesMut {
        let mut buf = BytesMut::new();
        buf.reserve(cap);
        buf
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.vec.len() - self.head
    }

    /// True when no bytes are contained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of storage the buffer owns: what it can hold without
    /// reallocating, 0 once it has emptied.
    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    /// Make room for `additional` more bytes, so that a message written
    /// in pieces grows the buffer at most once.
    pub fn reserve(&mut self, additional: usize) {
        if self.vec.len() + additional <= self.vec.capacity() {
            return;
        }
        let need = self.len() + additional;
        if need <= self.vec.capacity() || need > POOL_MAX_CAP {
            // The reclaim: shift the live bytes down rather than grow;
            // past the largest class, grow in place where the allocator
            // can.
            self.vec.drain(..self.head);
            self.vec.reserve(additional);
        } else {
            // Growth goes through the pool: the next class up takes the
            // live bytes and the old vector goes back.
            let mut grown = pool_take(need);
            grown.extend_from_slice(self);
            pool_put(std::mem::replace(&mut self.vec, grown));
        }
        self.head = 0;
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.reserve(data.len());
        self.vec.extend_from_slice(data);
    }

    /// Discard the first `at` bytes. The remainder stays where it is.
    pub fn advance(&mut self, at: usize) {
        assert!(at <= self.len(), "advance {at} past {} bytes", self.len());
        self.head += at;
        if self.head == self.vec.len() {
            self.clear();
        }
    }

    /// Remove and return the first `at` bytes as a pool-backed
    /// [`Bytes`]: taking everything moves the whole vector into the
    /// pooled buffer and leaves this one owning nothing; taking a prefix
    /// copies it into a pooled buffer of its size and advances past it.
    pub fn split_to_pooled(&mut self, at: usize) -> Bytes {
        if at == self.len() {
            std::mem::take(self).freeze_pooled()
        } else {
            let head = Bytes::pooled_copy_from_slice(&self[..at]);
            self.advance(at);
            head
        }
    }

    /// Drop all accumulated contents. The storage goes to the pool;
    /// storage the pool would refuse stays, for the owner's next write.
    pub fn clear(&mut self) {
        self.head = 0;
        if self.vec.capacity() > POOL_MAX_CAP {
            self.vec.clear();
        } else {
            pool_put(std::mem::take(&mut self.vec));
        }
    }

    /// Convert into an immutable pool-backed [`Bytes`] without copying;
    /// the storage joins the free list when the last reference drops.
    pub fn freeze_pooled(self) -> Bytes {
        Bytes {
            start: self.head,
            end: self.vec.len(),
            data: Repr::Pooled(Arc::new(PoolChunk { buf: self.vec })),
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec[self.head..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec[self.head..]
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &BytesMut) -> bool {
        self[..] == other[..]
    }
}
impl Eq for BytesMut {}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&&self[..], f)
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(vec: Vec<u8>) -> BytesMut {
        BytesMut { vec, head: 0 }
    }
}

impl From<BytesMut> for Vec<u8> {
    /// The live bytes; a buffer nothing was consumed from gives up its
    /// vector as it is.
    fn from(mut buf: BytesMut) -> Vec<u8> {
        buf.vec.drain(..buf.head);
        buf.vec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_slice_shares_and_bounds() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let mid = b.slice(1..4);
        assert_eq!(&mid[..], &[2, 3, 4]);
        let tail = mid.slice(1..);
        assert_eq!(&tail[..], &[3, 4]);
        assert_eq!(b.len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bytes_slice_checks_bounds() {
        let b = Bytes::from(vec![1u8, 2]);
        let _ = b.slice(..3);
    }

    #[test]
    fn bytesmut_roundtrip() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"hello world");
        m.advance(6);
        assert_eq!(&m[..], b"world");
        m[0] = b'W';
        assert_eq!(m.as_ref(), b"World");
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn pooled_bytes_behave_like_shared() {
        let p = Bytes::pooled_copy_from_slice(b"hello world");
        let s = Bytes::copy_from_slice(b"hello world");
        assert_eq!(p, s);
        let mid = p.slice(6..);
        assert_eq!(&mid[..], b"world");
        let clone = p.clone();
        drop(p);
        assert_eq!(&clone[..], b"hello world");
    }

    #[test]
    fn pool_recycles_buffers() {
        // Drain whatever the pool holds, then verify round-tripping.
        let b = Bytes::pooled_copy_from_slice(&[1u8; 1000]);
        drop(b);
        let b2 = Bytes::pooled_copy_from_slice(&[2u8; 500]);
        assert_eq!(&b2[..], &[2u8; 500][..]);
    }

    #[test]
    fn bytesmut_advance_and_split_to_pooled() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"abcdef");
        m.advance(2);
        assert_eq!(&m[..], b"cdef");
        let head = m.split_to_pooled(2);
        assert_eq!(&head[..], b"cd");
        assert_eq!(&m[..], b"ef");
        let rest = m.split_to_pooled(2);
        assert_eq!(&rest[..], b"ef");
        assert!(m.is_empty());
    }

    #[test]
    fn advance_leaves_the_remainder_in_place() {
        let mut m = BytesMut::new();
        m.extend_from_slice(&[7u8; 4096]);
        let before = m.as_ptr();
        m.advance(1000);
        assert_eq!(m.as_ptr(), before.wrapping_add(1000));
        assert_eq!(m.len(), 3096);
        // Emptying the buffer gives the storage up: the next append is
        // sized for itself.
        m.advance(3096);
        assert_eq!(m.capacity(), 0);
        m.extend_from_slice(b"x");
        assert_eq!(m.capacity(), POOL_MIN_CAP);
    }

    #[test]
    fn a_drained_buffer_owns_nothing() {
        let filled = || {
            let mut m = BytesMut::new();
            m.extend_from_slice(&[1u8; 3000]);
            assert_eq!(m.capacity(), 4096);
            m
        };
        let mut m = filled();
        m.advance(3000);
        assert_eq!(m.capacity(), 0);
        let mut m = filled();
        m.clear();
        assert_eq!(m.capacity(), 0);
        let mut m = filled();
        assert_eq!(m.split_to_pooled(3000).len(), 3000);
        assert_eq!(m.capacity(), 0);
        // A prefix taken leaves the rest, and its storage, where it was.
        let mut m = filled();
        assert_eq!(m.split_to_pooled(1000).len(), 1000);
        assert_eq!((m.len(), m.capacity()), (2000, 4096));
    }

    /// Bytes of storage behind a pooled `Bytes`.
    fn held(b: &Bytes) -> usize {
        match &b.data {
            Repr::Pooled(chunk) => chunk.buf.capacity(),
            Repr::Shared(_) => panic!("not pooled"),
        }
    }

    #[test]
    fn a_payload_holds_at_most_twice_its_size() {
        // Put the largest vectors there are on the free lists first.
        let big: Vec<Bytes> = (0..4)
            .map(|_| Bytes::pooled_copy_from_slice(&[0u8; POOL_MAX_CAP]))
            .collect();
        drop(big);
        let payloads: Vec<Bytes> = (0..8)
            .map(|_| Bytes::pooled_copy_from_slice(&[9u8; 1460]))
            .collect();
        assert!(payloads.iter().all(|p| held(p) == 2048));
        assert_eq!(held(&Bytes::pooled_copy_from_slice(&[9u8; 40_000])), 65_536);
        assert_eq!(held(&Bytes::pooled_copy_from_slice(b"x")), POOL_MIN_CAP);
    }

    #[test]
    fn a_free_list_stops_at_its_byte_bound() {
        let listed = |cap: usize| POOL.with(|p| p.borrow()[class_of(cap)].len());
        for cap in [POOL_MIN_CAP, 2048, POOL_MAX_CAP] {
            let bound = POOL_CLASS_BYTES / cap;
            let all: Vec<Bytes> = (0..bound + 3)
                .map(|_| Bytes::pooled_copy_from_slice(&vec![0u8; cap]))
                .collect();
            drop(all);
            assert_eq!(listed(cap), bound, "class of {cap}");
        }
    }

    #[test]
    fn growth_goes_through_the_classes() {
        let mut m = BytesMut::new();
        for (len, cap) in [(1, 64), (64, 64), (65, 128), (5000, 8192), (65_536, 65_536)] {
            m.extend_from_slice(&vec![3u8; len - m.len()]);
            assert_eq!((m.len(), m.capacity()), (len, cap));
        }
        assert!(m.iter().all(|&b| b == 3));
        // A dead prefix is not carried into the next class.
        let mut m = BytesMut::new();
        m.extend_from_slice(&[1u8; 64]);
        m.advance(60);
        m.extend_from_slice(&[2u8; 70]);
        assert_eq!((m.len(), m.capacity()), (74, 128));
        assert_eq!((&m[..4], &m[4..]), (&[1u8; 4][..], &[2u8; 70][..]));
    }

    #[test]
    fn storage_past_the_largest_class_stays_with_its_owner() {
        let mut m = BytesMut::new();
        m.extend_from_slice(&vec![5u8; POOL_MAX_CAP + 1]);
        let cap = m.capacity();
        assert!(cap > POOL_MAX_CAP);
        let pooled = || POOL.with(|p| p.borrow().iter().map(Vec::len).sum::<usize>());
        let before = pooled();
        m.clear();
        assert_eq!((m.len(), m.capacity(), pooled()), (0, cap, before));
        m.extend_from_slice(&[6u8; 100]);
        m.advance(100);
        assert_eq!((m.len(), m.capacity(), pooled()), (0, cap, before));
    }

    #[test]
    fn append_reclaims_the_dead_prefix_before_growing() {
        let mut m = BytesMut::from(Vec::with_capacity(64));
        m.extend_from_slice(&[1u8; 64]);
        let cap = m.vec.capacity();
        m.advance(40);
        // 24 live + 40 new fit only once the 40 dead bytes are reclaimed.
        m.extend_from_slice(&[2u8; 40]);
        assert_eq!(m.vec.capacity(), cap);
        assert_eq!(m.len(), 64);
        assert_eq!(&m[..24], &[1u8; 24]);
        assert_eq!(&m[24..], &[2u8; 40]);
    }

    #[test]
    fn dead_prefix_is_unobservable() {
        let mut m = BytesMut::from(b"abcdef".to_vec());
        m.advance(2);
        assert_eq!(m, BytesMut::from(b"cdef".to_vec()));
        assert_eq!(format!("{m:?}"), format!("{:?}", b"cdef"));
        assert_eq!(m.clone().freeze_pooled(), Bytes::from_static(b"cdef"));
        assert_eq!(m.split_to_pooled(4), Bytes::from_static(b"cdef"));
        assert!(m.is_empty());
        let mut m = BytesMut::from(b"abcdef".to_vec());
        m.advance(2);
        assert_eq!(Vec::from(m), b"cdef");
    }

    #[test]
    fn pooled_accumulator_round_trips() {
        let mut m = BytesMut::pooled(100);
        assert!(m.vec.capacity() >= 100);
        m.extend_from_slice(b"body");
        assert_eq!(&m.freeze_pooled()[..], b"body");
    }

    #[test]
    fn equality_and_hash() {
        use std::collections::HashSet;
        let a = Bytes::from(vec![7u8; 3]);
        let b = Bytes::from(vec![7u8; 3]).slice(..);
        assert_eq!(a, b);
        assert_eq!(a, vec![7u8; 3]);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
