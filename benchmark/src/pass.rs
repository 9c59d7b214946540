//! What one pass produced, in the ledger's own terms, and the
//! `failed_share` accounting over it. Pure: `surface.rs` fills the
//! facts in, the tests below feed synthetic ones.

use crate::digest::Fnv;

/// One client's results, copied out of the repository's result record.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientFacts {
    pub packets: u64,
    pub wire_bytes: u64,
    pub sim_secs: f64,
    /// Objects the client completed.
    pub fetched: u64,
    /// Entity bytes it received, decoded.
    pub body_bytes: u64,
    /// Requests that needed a second try.
    pub retries: u64,
    /// TCP connections it opened.
    pub sockets_used: u64,
}

/// What a correct client must have received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub objects: u64,
    pub body_bytes: u64,
}

/// Everything observable from outside about one item of a pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ItemFacts {
    /// One entry per client (one for a cell, N for a fleet).
    pub clients: Vec<ClientFacts>,
    /// Conformance violations found (0 when the item is not observed).
    pub violations: u64,
    /// The pcapng round trip failed or lost packets.
    pub pcap_failed: bool,
    /// Records handed to the stall attribution.
    pub probe_records: u64,
    /// FNV of the `Debug` rendering of every result record.
    pub digest: u64,
}

impl ItemFacts {
    pub fn packets(&self) -> u64 {
        self.clients.iter().map(|c| c.packets).sum()
    }

    pub fn sim_secs(&self) -> f64 {
        self.clients.iter().map(|c| c.sim_secs).sum()
    }

    /// Objects attempted and objects failed. A client short of objects
    /// or body bytes fails all its objects; a conformance violation or a
    /// pcapng failure fails every object of the item.
    pub fn objects(&self, expect: Expect) -> Tally {
        let attempted = expect.objects * self.clients.len() as u64;
        if self.violations > 0 || self.pcap_failed {
            return Tally {
                attempted,
                failed: attempted,
            };
        }
        let short = self
            .clients
            .iter()
            .filter(|c| c.fetched < expect.objects || c.body_bytes < expect.body_bytes)
            .count() as u64;
        Tally {
            attempted,
            failed: short * expect.objects,
        }
    }
}

/// Objects attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The facts of one full sweep, in plan order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassFacts {
    pub items: Vec<ItemFacts>,
}

impl PassFacts {
    pub fn packets(&self) -> u64 {
        self.items.iter().map(ItemFacts::packets).sum()
    }

    pub fn sim_secs(&self) -> f64 {
        self.items.iter().map(ItemFacts::sim_secs).sum()
    }

    /// Digest of the item digests, in order.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for item in &self.items {
            h.write(&item.digest.to_le_bytes());
        }
        h.finish()
    }

    /// Tally this pass against `expect` (one entry per item). A pass
    /// whose digest differs from `reference` fails all its objects: the
    /// program was not deterministic, so nothing it delivered is trusted.
    pub fn tally(&self, expect: &[Expect], reference: u64) -> Tally {
        assert_eq!(expect.len(), self.items.len(), "one expectation per item");
        let mut tally = Tally::default();
        for (item, &e) in self.items.iter().zip(expect) {
            tally.add(item.objects(e));
        }
        if reference != self.digest() {
            tally.failed = tally.attempted;
        }
        tally
    }

    /// Indices of items that failed at least one object.
    pub fn failing_items(&self, expect: &[Expect]) -> Vec<usize> {
        self.items
            .iter()
            .zip(expect)
            .enumerate()
            .filter(|(_, (item, &e))| item.objects(e).failed > 0)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SITE: Expect = Expect {
        objects: 43,
        body_bytes: 170_000,
    };

    fn good_client() -> ClientFacts {
        ClientFacts {
            packets: 200,
            wire_bytes: 190_000,
            sim_secs: 0.5,
            fetched: 43,
            body_bytes: 170_000,
            retries: 0,
            sockets_used: 1,
        }
    }

    fn item(clients: Vec<ClientFacts>, digest: u64) -> ItemFacts {
        ItemFacts {
            clients,
            digest,
            ..Default::default()
        }
    }

    fn three_item_pass() -> PassFacts {
        PassFacts {
            items: vec![
                item(vec![good_client()], 1),
                item(vec![good_client(); 4], 2),
                item(vec![good_client()], 3),
            ],
        }
    }

    #[test]
    fn a_clean_pass_fails_nothing() {
        let pass = three_item_pass();
        let tally = pass.tally(&[SITE; 3], pass.digest());
        assert_eq!(
            tally,
            Tally {
                attempted: 6 * 43,
                failed: 0
            }
        );
        assert_eq!(tally.failed_share(), 0.0);
        assert_eq!(pass.packets(), 1200);
        assert!(pass.failing_items(&[SITE; 3]).is_empty());
    }

    #[test]
    fn a_client_short_of_objects_or_bytes_fails_all_its_objects() {
        let mut pass = three_item_pass();
        pass.items[0].clients[0].fetched = 42;
        pass.items[1].clients[2].body_bytes -= 1;
        let tally = pass.tally(&[SITE; 3], pass.digest());
        assert_eq!(tally.attempted, 6 * 43);
        assert_eq!(
            tally.failed,
            2 * 43,
            "one cell and one of four fleet clients"
        );
        assert_eq!(tally.failed_share(), 2.0 / 6.0);
        assert_eq!(pass.failing_items(&[SITE; 3]), vec![0, 1]);
    }

    #[test]
    fn a_violation_or_a_pcap_failure_fails_the_whole_item() {
        let mut pass = three_item_pass();
        pass.items[1].violations = 1;
        assert_eq!(pass.tally(&[SITE; 3], pass.digest()).failed, 4 * 43);
        pass.items[1].violations = 0;
        pass.items[2].pcap_failed = true;
        assert_eq!(pass.tally(&[SITE; 3], pass.digest()).failed, 43);
    }

    #[test]
    fn a_pass_that_differs_from_the_counted_pass_fails_everything() {
        let reference = three_item_pass().digest();
        let mut pass = three_item_pass();
        pass.items[2].digest ^= 1;
        let tally = pass.tally(&[SITE; 3], reference);
        assert_eq!(tally.failed, tally.attempted);
        assert_eq!(tally.failed_share(), 1.0);
    }

    #[test]
    fn an_empty_tally_has_share_zero() {
        assert_eq!(Tally::default().failed_share(), 0.0);
    }
}
