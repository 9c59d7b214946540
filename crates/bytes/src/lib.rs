//! Workspace-local stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! implements the small part of the `bytes` 1.x API the workspace uses:
//! [`Bytes`] (a cheaply cloneable, sliceable, immutable byte buffer) and
//! [`BytesMut`] (a growable buffer appended at the back and consumed from
//! the front through a read cursor). Semantics match the real crate for
//! this surface; `clone`, `slice` and `advance` are O(1). [`BytesQueue`]
//! (below) is this workspace's own.
//!
//! # Pooled buffers
//!
//! On top of the `bytes` API this stand-in decides where buffer storage
//! comes from, by one policy — *storage follows bytes*:
//!
//! 1. **An empty buffer owns nothing.** A [`BytesMut`] that empties
//!    (`advance` to the end, `clear`) hands its vector to a thread-local
//!    pool; its next write takes one sized for that write. Connections
//!    that are closed or idle therefore pin no memory, however long their
//!    owners keep them.
//! 2. **The pool hands storage out by size.** Free lists are kept per
//!    power-of-two class, 64 B … 64 KiB, each bounded in bytes; a request
//!    takes the smallest class that holds it, so a pooled buffer never
//!    holds more than twice what was asked of it. Storage past the largest
//!    class is never pooled: it is an ordinary `Vec` of the size asked
//!    for, freed when its buffer empties.
//! 3. **Growth goes through the pool.** A buffer that must grow takes at
//!    least twice its storage — the next class that fits — copies its
//!    live bytes and returns the old vector.
//!
//! Every [`Bytes`] is a view of one reference-counted vector, which goes
//! to the pool of whichever thread drops the last reference (kept there
//! only if it is exactly a class's size);
//! [`Bytes::pooled_copy_from_slice`] and [`BytesMut::freeze_pooled`] give
//! out `Bytes` whose vector came from the pool. Pooled and other buffers
//! are observationally identical (equality and hashing go through the
//! byte contents), so pooling can never change simulation results — it
//! only recycles storage.
//!
//! # Queued bytes
//!
//! Bytes that wait — for a socket to take them, for a window to open,
//! for an acknowledgement, for the application to read — wait in a
//! [`BytesQueue`]: the `Bytes` chunks as they were handed over, first
//! chunk inline (one chunk queued costs no deque), the rest in a
//! `VecDeque` behind it. Every socket-side buffer of the workspace is
//! one, and so is every message body and every bit of a byte stream no
//! parser has claimed yet, so a body byte moves from the store to a
//! segment payload, from an arriving payload to the reader, and from
//! the reader into the message, by reference:
//!
//! * `push` queues a `Bytes` as it is, joined onto the chunk before it
//!   when the two are adjacent views of one storage: the segments of one
//!   body, sent by reference, arrive as one chunk again.
//!   `extend_from_slice` is the copying way in (one pooled chunk per
//!   call) for a caller with only a slice.
//! * `advance` drops the chunks it covers — nothing shifts — and
//!   `drain_into` moves a prefix to another queue, sharing the one chunk
//!   it may end inside.
//! * `slice(off, len)` is a refcounted view when the range lies inside
//!   one chunk and a pooled gather copy only when it crosses a chunk
//!   edge; `with_prefix` lends the front bytes as one slice the same way,
//!   gathering into pooled storage it hands back at once. Those are the
//!   places a queued byte can be copied, and what decides it is where the
//!   chunks happen to end, nothing else.
//! * A queue that empties holds no reference to any chunk; `clear` also
//!   gives up the deque, so a cleared queue owns nothing. An empty chunk
//!   is never queued, so clearing a queue that owns nothing already is
//!   one test — a closing socket clears both of its queues.
//! * Queues compare, and clone, by content: how the bytes are chunked is
//!   never observable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::{Arc, OnceLock};

/// Smallest storage class; a shorter write still takes this much.
const POOL_MIN_CAP: usize = 1 << 6;
/// Largest storage class. Storage with more capacity is never pooled
/// (one giant buffer must not pin memory for the rest of the run): it is
/// allocated at the size asked for and freed when it empties.
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

/// An empty vector with room for `min` bytes: the smallest class that
/// holds them, from this thread's pool if it has one, so storage is never
/// more than twice what was asked for; past the largest class, exactly
/// `min`.
fn pool_take(min: usize) -> Vec<u8> {
    if min > POOL_MAX_CAP {
        return Vec::with_capacity(min);
    }
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

/// The storage behind a [`Bytes`]: a vector, handed to the free list of
/// whichever thread drops the last reference (which keeps it only if it
/// is exactly a class's size).
struct Chunk {
    buf: Vec<u8>,
}

impl Drop for Chunk {
    fn drop(&mut self) {
        pool_put(std::mem::take(&mut self.buf));
    }
}

/// The process-wide empty buffer: `Bytes::new` bumps a refcount instead
/// of allocating a fresh chunk per call.
fn empty_chunk() -> Arc<Chunk> {
    static EMPTY: OnceLock<Arc<Chunk>> = OnceLock::new();
    EMPTY
        .get_or_init(|| Arc::new(Chunk { buf: Vec::new() }))
        .clone()
}

/// A cheaply cloneable, immutable slice of bytes.
///
/// Clones and sub-slices share one reference-counted allocation.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Chunk>,
    start: usize,
    end: usize,
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes {
            data: empty_chunk(),
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

    /// Grow over `next` when it is the view of the same storage that
    /// starts where this one ends; returns whether it did.
    fn join(&mut self, next: &Bytes) -> bool {
        let joins = Arc::ptr_eq(&self.data, &next.data) && self.end == next.start;
        if joins {
            self.end = next.end;
        }
        joins
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data.buf[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// The vector becomes the storage as it is, without a copy.
impl From<Vec<u8>> for Bytes {
    fn from(buf: Vec<u8>) -> Bytes {
        let end = buf.len();
        Bytes {
            data: Arc::new(Chunk { buf }),
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
    /// the size it expects, so what it writes in pieces never makes it
    /// grow); finish it with [`BytesMut::freeze_pooled`].
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
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        if self.vec.len() + additional > self.vec.capacity() {
            self.make_room(additional);
        }
    }

    /// [`BytesMut::reserve`] when the room is not there already: reclaim
    /// the dead prefix or grow.
    fn make_room(&mut self, additional: usize) {
        let need = self.len() + additional;
        if need <= self.vec.capacity() {
            // The reclaim: shift the live bytes down rather than grow.
            self.vec.drain(..self.head);
        } else {
            // Growth goes through the pool: at least twice the storage,
            // the next class up, takes the live bytes and the old vector
            // goes back.
            let mut grown = pool_take(need.max(2 * self.vec.capacity()));
            grown.extend_from_slice(self);
            pool_put(std::mem::replace(&mut self.vec, grown));
        }
        self.head = 0;
    }

    /// Append a slice.
    #[inline]
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

    /// Drop all accumulated contents, and the storage with them: to the
    /// pool, or freed where the pool refuses it.
    pub fn clear(&mut self) {
        self.head = 0;
        pool_put(std::mem::take(&mut self.vec));
    }

    /// Convert into an immutable pool-backed [`Bytes`] without copying;
    /// the storage joins the free list when the last reference drops.
    pub fn freeze_pooled(self) -> Bytes {
        Bytes {
            start: self.head,
            end: self.vec.len(),
            data: Arc::new(Chunk { buf: self.vec }),
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

/// Bytes waiting to be sent or read, or a message body, held by
/// reference: the chunks as they were queued, consumed from the front.
/// Nothing is copied on the way in, nothing shifts on the way out, and a
/// range that lies inside one chunk is handed out as a view of it (see
/// "Queued bytes" in the module docs).
#[derive(Clone, Default)]
pub struct BytesQueue {
    /// What is left of the first chunk (empty: nothing is queued). Apart
    /// from `later`, so that one chunk queued costs no deque.
    front: Bytes,
    /// The chunks behind it, none of them empty.
    later: VecDeque<Bytes>,
    /// Bytes queued over all chunks.
    len: usize,
}

impl BytesQueue {
    /// Create a new, empty instance. It owns nothing.
    pub fn new() -> BytesQueue {
        BytesQueue::default()
    }

    /// Number of bytes queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bytes are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue `data` behind what is there, by reference: joined onto the
    /// last chunk when it is the view of the same storage that starts
    /// where that chunk ends. An empty `data` is not kept, so an empty
    /// first chunk never holds storage.
    pub fn push(&mut self, data: Bytes) {
        if data.is_empty() {
            return;
        }
        self.len += data.len();
        let last = match self.later.back_mut() {
            Some(last) => last,
            None => &mut self.front,
        };
        if last.is_empty() {
            *last = data;
        } else if !last.join(&data) {
            self.later.push_back(data);
        }
    }

    /// Queue a copy of `data`, as one pooled chunk: the way in for a
    /// caller that holds only a slice.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        if !data.is_empty() {
            self.push(Bytes::pooled_copy_from_slice(data));
        }
    }

    /// The first chunk: the longest run of queued bytes that is one
    /// slice (empty when nothing is queued).
    pub fn chunk(&self) -> &[u8] {
        &self.front
    }

    /// The queued chunks, front to back.
    pub fn chunks(&self) -> impl Iterator<Item = &Bytes> {
        let front = (!self.front.is_empty()).then_some(&self.front);
        front.into_iter().chain(&self.later)
    }

    /// Discard the first `n` bytes: chunks they cover are dropped, the
    /// rest stay where they are.
    pub fn advance(&mut self, mut n: usize) {
        assert!(n <= self.len, "advance {n} past {} bytes", self.len);
        self.len -= n;
        while n > 0 {
            let take = self.front.len().min(n);
            self.front.advance(take);
            n -= take;
            if self.front.is_empty() {
                self.front = self.later.pop_front().unwrap_or_default();
            }
        }
    }

    /// Move the first `n` bytes to the back of `out`, by reference: a
    /// chunk they end inside is shared between the two queues.
    pub fn drain_into(&mut self, mut n: usize, out: &mut BytesQueue) {
        assert!(n <= self.len, "drain {n} of {} bytes", self.len);
        self.len -= n;
        while n > 0 {
            if n < self.front.len() {
                out.push(self.front.slice(..n));
                self.front.advance(n);
                return;
            }
            n -= self.front.len();
            let next = self.later.pop_front().unwrap_or_default();
            out.push(std::mem::replace(&mut self.front, next));
        }
    }

    /// The `len` bytes starting `off` bytes into the queue: a view of
    /// the chunk that holds them, or — only when the range crosses a
    /// chunk edge — a pooled copy gathered from the chunks it covers.
    pub fn slice(&self, off: usize, len: usize) -> Bytes {
        assert!(
            off <= self.len && len <= self.len - off,
            "slice {off}+{len} of {} bytes",
            self.len
        );
        if len == 0 {
            return Bytes::new();
        }
        let mut chunks = self.chunks();
        let mut skip = off;
        let first = loop {
            let chunk = chunks.next().expect("the range lies in the queue");
            if skip < chunk.len() {
                break chunk;
            }
            skip -= chunk.len();
        };
        if len <= first.len() - skip {
            return first.slice(skip..skip + len);
        }
        let mut gathered = BytesMut::pooled(len);
        gathered.extend_from_slice(&first[skip..]);
        gather(&mut gathered, chunks, len);
        gathered.freeze_pooled()
    }

    /// Call `f` with the first `len` bytes as one slice: the first
    /// chunk's own bytes when it holds them, else a copy gathered into
    /// pooled storage, which goes back to the pool when `f` returns.
    pub fn with_prefix<R>(&self, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        assert!(len <= self.len, "prefix {len} of {} bytes", self.len);
        if len <= self.front.len() {
            return f(&self.front[..len]);
        }
        let mut gathered = BytesMut::pooled(len);
        gather(&mut gathered, self.chunks(), len);
        let out = f(&gathered);
        gathered.clear();
        out
    }

    /// A copy of every queued byte, in one vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        self.chunks().for_each(|chunk| out.extend_from_slice(chunk));
        out
    }

    /// Drop everything queued, and the deque with it: a cleared queue
    /// owns nothing. Clearing one that already owns nothing costs a test.
    pub fn clear(&mut self) {
        if !self.front.is_empty() || self.later.capacity() > 0 {
            *self = BytesQueue::default();
        }
    }

    /// Bytes of storage the queue's own bookkeeping holds: the deque
    /// behind the first chunk (for tests of who gives it up).
    #[doc(hidden)]
    pub fn bookkeeping_bytes(&self) -> usize {
        self.later.capacity() * std::mem::size_of::<Bytes>()
    }
}

/// Append the front of `chunks` to `out` until it holds `len` bytes.
fn gather<'a>(out: &mut BytesMut, mut chunks: impl Iterator<Item = &'a Bytes>, len: usize) {
    while out.len() < len {
        let chunk = chunks.next().expect("the range lies in the queue");
        let take = chunk.len().min(len - out.len());
        out.extend_from_slice(&chunk[..take]);
    }
}

impl From<Bytes> for BytesQueue {
    fn from(data: Bytes) -> BytesQueue {
        let mut queue = BytesQueue::new();
        queue.push(data);
        queue
    }
}

impl From<Vec<u8>> for BytesQueue {
    fn from(data: Vec<u8>) -> BytesQueue {
        Bytes::from(data).into()
    }
}

impl fmt::Debug for BytesQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.chunks().flat_map(|chunk| chunk.iter()))
            .finish()
    }
}

/// Queues are equal when their bytes are, however they are chunked.
impl PartialEq for BytesQueue {
    fn eq(&self, other: &BytesQueue) -> bool {
        let mut theirs = other.chunks();
        let mut pending: &[u8] = &[];
        self.len == other.len
            && self.chunks().all(|chunk| {
                let mut mine = &chunk[..];
                while !mine.is_empty() {
                    if pending.is_empty() {
                        pending = theirs.next().expect("the lengths are equal");
                    }
                    let n = mine.len().min(pending.len());
                    if mine[..n] != pending[..n] {
                        return false;
                    }
                    (mine, pending) = (&mine[n..], &pending[n..]);
                }
                true
            })
    }
}
impl Eq for BytesQueue {}

impl PartialEq<[u8]> for BytesQueue {
    fn eq(&self, mut other: &[u8]) -> bool {
        self.len == other.len()
            && self.chunks().all(|chunk| {
                let (head, rest) = other.split_at(chunk.len());
                other = rest;
                head == &chunk[..]
            })
    }
}

impl PartialEq<Vec<u8>> for BytesQueue {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self == other[..]
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
        assert_eq!(std::mem::take(&mut m).freeze_pooled().len(), 3000);
        assert_eq!(m.capacity(), 0);
        // A prefix consumed leaves the rest, and its storage, where it was.
        let mut m = filled();
        m.advance(1000);
        assert_eq!((m.len(), m.capacity()), (2000, 4096));
    }

    /// Bytes of storage behind a pooled `Bytes`.
    fn held(b: &Bytes) -> usize {
        b.data.buf.capacity()
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
    fn storage_past_the_largest_class_is_sized_and_freed_like_any_other() {
        // Taken at the size asked for, grown to at least twice itself.
        let mut m = BytesMut::new();
        m.extend_from_slice(&vec![5u8; POOL_MAX_CAP + 1]);
        assert_eq!(m.capacity(), POOL_MAX_CAP + 1);
        m.extend_from_slice(&[5u8; 10]);
        assert_eq!(m.capacity(), 2 * (POOL_MAX_CAP + 1));
        assert!(m.iter().all(|&b| b == 5));
        // Emptied, it owns nothing, and the pool did not take it.
        let pooled = || POOL.with(|p| p.borrow().iter().map(Vec::len).sum::<usize>());
        let before = pooled();
        m.clear();
        assert_eq!((m.len(), m.capacity(), pooled()), (0, 0, before));
        m.extend_from_slice(&vec![6u8; 2 * POOL_MAX_CAP]);
        m.advance(2 * POOL_MAX_CAP);
        assert_eq!((m.len(), m.capacity(), pooled()), (0, 0, before));
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

    /// How many `Bytes` share the storage behind `b`, itself included.
    fn refs(b: &Bytes) -> usize {
        Arc::strong_count(&b.data)
    }

    #[test]
    fn a_slice_inside_one_chunk_shares_its_storage() {
        let body = Bytes::from((0..=255u8).cycle().take(10_000).collect::<Vec<u8>>());
        let mut q = BytesQueue::new();
        q.extend_from_slice(b"head");
        q.push(body.clone());
        let pooled = || POOL.with(|p| p.borrow().iter().map(Vec::len).sum::<usize>());
        let before = pooled();
        let view = q.slice(4 + 1460, 1460);
        assert_eq!(view.as_ptr(), body[1460..].as_ptr());
        assert_eq!((view.len(), refs(&body), pooled()), (1460, 3, before));
        // The same range once the chunks in front of it are gone.
        q.advance(4 + 1460);
        assert_eq!(q.slice(0, 1460).as_ptr(), view.as_ptr());
        assert_eq!(q.chunk().as_ptr(), view.as_ptr());
    }

    #[test]
    fn a_slice_across_a_chunk_edge_is_gathered_into_its_class() {
        let mut q = BytesQueue::new();
        let mut model = Vec::new();
        for (i, len) in [200usize, 0, 700, 1, 3000].into_iter().enumerate() {
            let piece = vec![i as u8 + 1; len];
            q.push(Bytes::from(piece.clone()));
            model.extend_from_slice(&piece);
        }
        assert_eq!(q.chunks().count(), 4, "the empty piece is not queued");
        // Head and the first body bytes of a response: one segment.
        let seg = q.slice(0, 1460);
        assert_eq!(seg, Bytes::copy_from_slice(&model[..1460]));
        assert_eq!(held(&seg), 2048);
        let seg = q.slice(150, 800);
        assert_eq!(seg, Bytes::copy_from_slice(&model[150..950]));
        assert_eq!(held(&seg), 1024);
        assert!(q.slice(901, 0).is_empty() && q.slice(model.len(), 0).is_empty());
    }

    #[test]
    fn a_drained_queue_holds_no_reference_and_a_cleared_one_no_deque() {
        let a = Bytes::from(vec![1u8; 100]);
        let b = Bytes::from(vec![2u8; 100]);
        let filled = || {
            let mut q = BytesQueue::new();
            q.push(a.clone());
            q.push(b.slice(10..));
            assert_eq!((q.len(), refs(&a), refs(&b)), (190, 2, 2));
            q
        };
        let mut q = filled();
        q.advance(100);
        assert_eq!((q.len(), refs(&a), refs(&b)), (90, 1, 2));
        q.advance(90);
        assert_eq!((q.len(), refs(&a), refs(&b)), (0, 1, 1));
        assert!(q.chunk().is_empty() && q.chunks().next().is_none());
        // Moved whole, a chunk changes hands; cut, it is shared, and the
        // two pieces are one chunk again once they meet.
        let (mut q, mut out) = (filled(), BytesQueue::new());
        q.drain_into(150, &mut out);
        assert_eq!((q.len(), out.len(), refs(&a), refs(&b)), (40, 150, 2, 3));
        q.drain_into(40, &mut out);
        assert_eq!((q.len(), out.len(), refs(&a), refs(&b)), (0, 190, 2, 2));
        assert_eq!(out.chunks().count(), 2);
        out.clear();
        assert_eq!((out.len(), refs(&a), refs(&b)), (0, 1, 1));
        assert_eq!(out.later.capacity(), 0);
        // One chunk queued never had a deque.
        let mut q = BytesQueue::new();
        q.push(a.clone());
        assert_eq!(q.later.capacity(), 0);
    }

    #[test]
    fn equality_and_hash() {
        let a = Bytes::from(vec![7u8; 3]);
        let b = Bytes::from(vec![7u8; 3]).slice(..);
        assert_eq!(a, b);
        assert_eq!(a, vec![7u8; 3]);
        #[expect(
            clippy::disallowed_types,
            reason = "checks that Hash agrees with Eq; no order is read"
        )]
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
