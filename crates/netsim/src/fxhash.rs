//! A multiply-rotate hasher (rustc's "Fx" hash) for the workspace's
//! lookup-only maps: the kernel's, keyed by a few small integers looked
//! up on every arrival and transmit, and the client cache's and server
//! store's, keyed by a path looked up on every request. Nothing iterates
//! them in an order that reaches a result, so std's SipHash and per-map
//! random seed buy nothing there but time. The keys are the simulation's
//! own host ids, ports and site paths, never outside input, so there is
//! no one to craft collisions.

use std::hash::{BuildHasherDefault, Hasher};

/// The lookup-only maps: every one of them is read and written by key,
/// and none is iterated in an order that reaches a result.
#[expect(
    clippy::disallowed_types,
    reason = "lookup by key only: no iteration order reaches a result"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Folds each word in with a rotate, an xor and a multiply.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    /// Every key field is a `u16` (`HostId`, a port): one fold each.
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}
