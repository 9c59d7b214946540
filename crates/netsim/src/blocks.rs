//! Append-only tables that grow by fixed-size blocks and never move what
//! they hold: the storage of the flight recorders (the trace's records,
//! the telemetry sink's scopes, series, points and buckets).
//!
//! A table's first block holds `B / 8` items, so a table that stays small
//! stays small; every later block holds `B`. A block is allocated at its
//! full size and never grows, so a table never reallocates and never
//! copies what it holds, and an item's position is its address for the
//! table's life. Only the list of blocks grows by doubling: one pointer
//! per block.

use std::ops::{Index, IndexMut};

/// An append-only table of `T` in blocks of `B` items (the first of
/// `B / 8`).
#[derive(Debug)]
pub(crate) struct Blocks<T, const B: usize> {
    blocks: Vec<Vec<T>>,
    len: usize,
}

impl<T, const B: usize> Default for Blocks<T, B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const B: usize> Blocks<T, B> {
    /// Items the first block holds.
    const FIRST: usize = B / 8;

    /// An empty table: no block is allocated until the first push.
    pub(crate) const fn new() -> Self {
        Blocks {
            blocks: Vec::new(),
            len: 0,
        }
    }

    /// Items in the table.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The block that holds item `i`, and its place there.
    fn locate(i: usize) -> (usize, usize) {
        match i.checked_sub(Self::FIRST) {
            None => (0, i),
            Some(j) => (1 + j / B, j % B),
        }
    }

    /// Items block `block` holds when full.
    fn capacity(block: usize) -> usize {
        if block == 0 {
            Self::FIRST
        } else {
            B
        }
    }

    /// Append `item` and return its position.
    pub(crate) fn push(&mut self, item: T) -> usize {
        let (block, at) = Self::locate(self.len);
        if at == 0 {
            self.blocks.push(Vec::with_capacity(Self::capacity(block)));
        }
        self.blocks[block].push(item);
        self.len += 1;
        self.len - 1
    }

    /// Append `n` copies of `item` that lie in one block, and return the
    /// first one's position. When the last block has no room for all `n`,
    /// its tail is filled with copies no one reads, and the run opens the
    /// next block. `n` is at most `B / 8`.
    pub(crate) fn push_run(&mut self, n: usize, item: T) -> usize
    where
        T: Clone,
    {
        debug_assert!(n <= Self::FIRST, "a run of {n} fits no first block");
        let (block, at) = Self::locate(self.len);
        if at > 0 && at + n > Self::capacity(block) {
            for _ in at..Self::capacity(block) {
                self.push(item.clone());
            }
        }
        let start = self.len;
        for _ in 0..n {
            self.push(item.clone());
        }
        start
    }

    /// The `n` items from position `at`, which lie in one block (as those
    /// of a [`Blocks::push_run`] do).
    pub(crate) fn run(&self, at: usize, n: usize) -> &[T] {
        let (block, i) = Self::locate(at);
        &self.blocks[block][i..i + n]
    }

    /// [`Blocks::run`], writable.
    pub(crate) fn run_mut(&mut self, at: usize, n: usize) -> &mut [T] {
        let (block, i) = Self::locate(at);
        &mut self.blocks[block][i..i + n]
    }

    /// Every item in position order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.blocks.iter().flatten()
    }

    /// The blocks themselves: the first `B / 8` long, every other but the
    /// last `B` long.
    pub(crate) fn blocks(&self) -> &[Vec<T>] {
        &self.blocks
    }

    /// Drop every item and free every block.
    pub(crate) fn clear(&mut self) {
        self.blocks.clear();
        self.len = 0;
    }
}

impl<T, const B: usize> Index<usize> for Blocks<T, B> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        let (block, at) = Self::locate(i);
        &self.blocks[block][at]
    }
}

impl<T, const B: usize> IndexMut<usize> for Blocks<T, B> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        let (block, at) = Self::locate(i);
        &mut self.blocks[block][at]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Positions, reads and block sizes across the first block's end and
    /// a later block's: no block ever holds more than it was made for.
    #[test]
    fn items_stay_where_they_were_put() {
        let mut t: Blocks<u32, 16> = Blocks::new();
        for i in 0..100u32 {
            assert_eq!(t.push(i), i as usize);
        }
        assert_eq!(t.len(), 100);
        assert!((0..100).all(|i| t[i] == i as u32));
        assert!(t.iter().copied().eq(0..100));
        let sizes: Vec<(usize, usize)> =
            t.blocks().iter().map(|b| (b.len(), b.capacity())).collect();
        assert_eq!(sizes[0], (2, 2));
        assert!(sizes[1..sizes.len() - 1].iter().all(|&s| s == (16, 16)));
        assert_eq!(sizes.len(), 1 + 98usize.div_ceil(16));
        t[50] = 7;
        assert_eq!(t[50], 7);
        t.clear();
        assert_eq!((t.len(), t.blocks().len()), (0, 0));
    }

    /// A run never straddles two blocks: one that does not fit in the
    /// last block's room opens the next.
    #[test]
    fn a_run_lies_in_one_block() {
        let mut t: Blocks<u8, 32> = Blocks::new();
        assert_eq!(t.push_run(3, 1), 0);
        // The first block holds 4: a run of 2 skips its last slot.
        assert_eq!(t.push_run(2, 2), 4);
        assert_eq!(t.run(4, 2), &[2, 2]);
        t.run_mut(4, 2)[1] = 9;
        assert_eq!(t[5], 9);
        assert_eq!(t.push_run(4, 3), 6);
        assert_eq!(t.blocks().len(), 2);
        assert!(t.blocks().iter().all(|b| b.len() <= b.capacity()));
    }
}
