//! The repo's one stable hash: FNV-1a, 64 bit.
//!
//! Gate pins (see [`crate::gate`]) and the impairment seeds of the
//! robustness grid are values of this function, so it must never change:
//! a different hash would re-seed every lossy cell and move every pinned
//! digest at once.

use crate::result::{CellResult, Table};

const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// An FNV-1a state; feed it byte strings in a fixed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET)
    }
}

impl Fnv1a {
    /// A fresh state (the FNV offset basis).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold `bytes` into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one byte string.
pub fn of(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Digest of rendered tables, in order — two runs of the same grid must
/// agree bit-for-bit, regardless of thread count.
pub fn tables(tables: &[Table]) -> u64 {
    let mut h = Fnv1a::new();
    for t in tables {
        h.write(t.render().as_bytes());
    }
    h.finish()
}

/// Digest of every field of every cell (its `Debug` rendering), in order.
pub fn cells(cells: &[CellResult]) -> u64 {
    let mut h = Fnv1a::new();
    for c in cells {
        h.write(format!("{c:?}").as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn writes_concatenate() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), of(b"foobar"));
    }
}
