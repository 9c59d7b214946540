//! The server's connection table: the connections in service in a dense
//! `Vec`, found through an index by socket slot — the shape of the
//! kernel's own table of `Tcb`s. Nothing iterates it, so the order of the
//! dense entries is free to change when one leaves. A finished connection
//! leaves the `Vec` before its socket closes, and is counted until then.

use netsim::SocketId;

/// `ConnTable::index` entry of a slot with no connection in service.
const VACANT: u32 = u32::MAX;

/// `ConnTable::index` entry of a slot whose connection was retired.
const RETIRED: u32 = u32::MAX - 1;

/// Room a dense table that empties keeps: a server of a few clients never
/// outgrows it, so it never gives storage back only to grow again.
const MIN_ROOM: usize = 64;

/// Connections in service, by socket.
#[derive(Debug)]
pub(super) struct ConnTable<T> {
    /// Each connection in service and the socket it belongs to.
    dense: Vec<(SocketId, T)>,
    /// By `SocketId::slot`: where that socket's connection is in `dense`,
    /// or [`VACANT`], or [`RETIRED`].
    index: Vec<u32>,
    /// Connections retired and not yet removed.
    retired: usize,
}

impl<T> ConnTable<T> {
    pub(super) fn new() -> Self {
        ConnTable {
            dense: Vec::new(),
            index: Vec::new(),
            retired: 0,
        }
    }

    /// Connections in service, retired ones included.
    pub(super) fn len(&self) -> usize {
        self.dense.len() + self.retired
    }

    /// Where `sock`'s connection is in `dense`. The stored id is compared
    /// whole, so a socket of another host never finds one.
    fn position(&self, sock: SocketId) -> Option<usize> {
        let i = *self.index.get(sock.slot as usize)? as usize;
        self.dense.get(i).filter(|(id, _)| *id == sock).map(|_| i)
    }

    pub(super) fn contains(&self, sock: SocketId) -> bool {
        self.position(sock).is_some()
    }

    pub(super) fn get(&self, sock: SocketId) -> Option<&T> {
        self.position(sock).map(|i| &self.dense[i].1)
    }

    pub(super) fn get_mut(&mut self, sock: SocketId) -> Option<&mut T> {
        self.position(sock).map(|i| &mut self.dense[i].1)
    }

    /// Put `sock`'s connection in service; it must not be already.
    pub(super) fn insert(&mut self, sock: SocketId, conn: T) {
        debug_assert!(!self.contains(sock), "{sock:?} is already in service");
        let slot = sock.slot as usize;
        if self.index.len() <= slot {
            self.index.resize(slot + 1, VACANT);
        }
        self.index[slot] = self.dense.len() as u32;
        self.dense.push((sock, conn));
    }

    /// The connection at `i` in `dense`, taken out: the last entry moves
    /// into its place.
    fn take(&mut self, i: usize) -> T {
        let (_, conn) = self.dense.swap_remove(i);
        if let Some((moved, _)) = self.dense.get(i) {
            self.index[moved.slot as usize] = i as u32;
        }
        conn
    }

    /// Drop `sock`'s finished connection, which no lookup finds again,
    /// but count it in [`ConnTable::len`] until its socket closes.
    pub(super) fn retire(&mut self, sock: SocketId) {
        if let Some(i) = self.position(sock) {
            self.take(i);
            self.index[sock.slot as usize] = RETIRED;
            self.retired += 1;
        }
    }

    /// Take `sock`'s connection out of service, or stop counting it if it
    /// was retired (then there is nothing to return; a retired slot is
    /// known by number only, so `sock` must be this host's). A table that
    /// empties gives back room beyond [`MIN_ROOM`]: a fleet's server has
    /// thousands of connections in service at its busiest and none once
    /// its clients are done, while the finished simulator stays alive for
    /// the observers.
    pub(super) fn remove(&mut self, sock: SocketId) -> Option<T> {
        let slot = sock.slot as usize;
        let conn = if self.index.get(slot) == Some(&RETIRED) {
            self.retired -= 1;
            None
        } else {
            let i = self.position(sock)?;
            Some(self.take(i))
        };
        self.index[slot] = VACANT;
        if self.len() == 0 && self.dense.capacity() > MIN_ROOM {
            self.dense = Vec::new();
        }
        conn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::HostId;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    /// Open, look up, retire and close connections at random against a
    /// `BTreeMap<SocketId, _>` and a `BTreeSet` of the retired, with up
    /// to 512 in service. Sockets are numbered as a host numbers them,
    /// never reusing a slot; lookups also ask for closed and retired
    /// sockets, slots never used, and the same slot on another host.
    /// After every step every answer agrees with the model.
    #[test]
    fn matches_an_ordered_map() {
        let mut rng = SmallRng::seed_from_u64(0xc044_7ab1e);
        let host = HostId(1);
        let sock = |slot| SocketId { host, slot };
        let mut table = ConnTable::new();
        let mut reference = BTreeMap::new();
        let mut retired = BTreeSet::new();
        let mut next_slot = 0u32;
        for step in 0..12_000u64 {
            let live = reference.len();
            if live < 512 && (live == 0 || rng.gen_bool(0.5)) {
                table.insert(sock(next_slot), step);
                reference.insert(sock(next_slot), step);
                next_slot += 1;
            } else if rng.gen_bool(0.3) {
                let slot = rng.gen_range(0..next_slot);
                table.retire(sock(slot));
                if reference.remove(&sock(slot)).is_some() {
                    retired.insert(sock(slot));
                }
            } else {
                let slot = rng.gen_range(0..next_slot);
                let was_retired = retired.remove(&sock(slot));
                let want = reference.remove(&sock(slot));
                assert_eq!(table.remove(sock(slot)), want);
                assert!(!(was_retired && want.is_some()));
            }
            let probe = |id: SocketId| {
                assert_eq!(table.get(id), reference.get(&id), "{id:?}");
                assert_eq!(table.contains(id), reference.contains_key(&id));
            };
            for _ in 0..8 {
                let slot = rng.gen_range(0..next_slot + 4);
                probe(sock(slot));
                probe(SocketId {
                    host: HostId(2),
                    slot,
                });
            }
            if let Some((&id, &value)) = reference.iter().nth(rng.gen_range(0..live.max(1))) {
                *table.get_mut(id).expect("in service") += 1;
                *reference.get_mut(&id).expect("in service") += 1;
                assert_eq!(table.get(id), Some(&(value + 1)));
            }
            assert_eq!(table.len(), reference.len() + retired.len());
            if table.len() == 0 {
                assert!(table.dense.capacity() <= MIN_ROOM);
            }
            for &(id, value) in &table.dense {
                assert_eq!(reference.get(&id), Some(&value), "stored {id:?}");
                assert_eq!(
                    table.index[id.slot as usize] as usize,
                    table.position(id).unwrap()
                );
            }
        }
        // Closing the last connection gives the busy table's room back.
        assert!(table.dense.capacity() > MIN_ROOM);
        assert!(!retired.is_empty(), "some closed retired");
        for id in reference.keys() {
            assert!(table.remove(*id).is_some());
        }
        for id in &retired {
            assert_eq!(table.remove(*id), None);
        }
        assert_eq!((table.len(), table.dense.capacity()), (0, 0));
        assert!(reference.keys().all(|&id| table.get(id).is_none()));
    }
}
