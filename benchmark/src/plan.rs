//! The five workloads, written out cell by cell in the ledger's own
//! vocabulary. Nothing here names a repository API (`surface.rs` turns a
//! plan into specs) and nothing here reads a grid from
//! `experiments::*`: a later change that adds an experiment cannot
//! change the work measured.

use crate::digest::{splitmix, Fnv};

/// A row of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Env {
    Lan,
    Wan,
    Ppp,
}

/// Server profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Server {
    Jigsaw,
    Apache,
}

/// Client transport setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Setup {
    Http10,
    Http11,
    Pipelined,
    PipelinedDeflate,
    Mux,
}

/// What the client fetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Content {
    /// The Microscape page and its 42 images, empty cache.
    FirstTime,
    /// The same 43 objects, revalidated from a primed cache.
    Revalidate,
    /// The eight seeded bulk objects, by explicit list.
    Bulk,
}

/// Congestion control on both hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cc {
    Reno,
    NewReno,
    Sack,
    Cubic,
}

/// How loss events are spread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LossShape {
    /// Independent per packet.
    Bernoulli,
    /// Gilbert–Elliott, mean burst four packets.
    Burst4,
}

/// A link impairment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loss {
    /// Mean loss in tenths of a percent (5 = 0.5 %).
    pub permille: u32,
    pub shape: LossShape,
    /// Impairment RNG seed, derived from `--seed`.
    pub seed: u64,
}

/// One single-client simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    pub env: Env,
    pub server: Server,
    pub setup: Setup,
    pub content: Content,
    pub loss: Option<Loss>,
    pub cc: Cc,
    /// Probe, telemetry and a full trace on, followed by the
    /// conformance check, stall attribution and a pcapng round trip.
    pub observed: bool,
}

impl Cell {
    /// An Apache cell on a clean link under Reno, observers off.
    pub fn clean(env: Env, setup: Setup, content: Content) -> Cell {
        Cell {
            env,
            server: Server::Apache,
            setup,
            content,
            loss: None,
            cc: Cc::Reno,
            observed: false,
        }
    }
}

/// One N-client simulation behind a shared bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fleet {
    pub env: Env,
    pub setup: Setup,
    pub clients: u32,
    /// Telemetry and a full trace on, followed by the conformance check
    /// and the CSV rendering.
    pub observed: bool,
}

/// One unit of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Item {
    Cell(Cell),
    Fleet(Fleet),
}

impl Item {
    /// Compact description for span labels and failure messages.
    pub fn label(&self) -> String {
        match self {
            Item::Cell(c) => {
                let mut s = format!(
                    "{:?}/{:?}/{:?}/{:?}/{:?}",
                    c.env, c.server, c.setup, c.content, c.cc
                );
                if let Some(l) = c.loss {
                    s.push_str(&format!(
                        "/loss={}.{}%{:?}/seed={:#x}",
                        l.permille / 10,
                        l.permille % 10,
                        l.shape,
                        l.seed
                    ));
                }
                if c.observed {
                    s.push_str("/observed");
                }
                s
            }
            Item::Fleet(f) => format!(
                "{:?}/{:?}/N={}{}",
                f.env,
                f.setup,
                f.clients,
                if f.observed { "/observed" } else { "" }
            ),
        }
    }
}

/// A workload's name and the reason it exists (shown by `run.sh` and
/// repeated in `BENCHMARK.json`).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// The workloads, in the order they run.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "matrix",
        why: "44 tiny clean cells of Tables 4-9: simulator build/teardown, HTTP heads and per-request robot/server work dominate",
    },
    Workload {
        name: "lossgrid",
        why: "132 lossy first-time cells: impairment RNG, RTO/fast-retransmit/SACK recovery and stale far-future timers, same HTTP share",
    },
    Workload {
        name: "fleet",
        why: "three N=256 fleets: kernel at scale (slab and port churn, shared-link pump, deep timer wheel), least HTTP work per packet",
    },
    Workload {
        name: "bulk",
        why: "8 cells fetching 8 MiB of seeded objects: the per-byte body/copy path, header parsing negligible",
    },
    Workload {
        name: "observed",
        why: "matrix traffic plus one N=128 fleet with every observer and checker on: the cost of the observation spine",
    },
];

const ENVS: [Env; 3] = [Env::Lan, Env::Wan, Env::Ppp];

/// The 44 cells of Tables 4–9 in table order. PPP has no HTTP/1.0 row,
/// as in the paper.
pub fn matrix(observed: bool) -> Vec<Item> {
    let mut items = Vec::with_capacity(44);
    for env in ENVS {
        for server in [Server::Jigsaw, Server::Apache] {
            for setup in [
                Setup::Http10,
                Setup::Http11,
                Setup::Pipelined,
                Setup::PipelinedDeflate,
            ] {
                if env == Env::Ppp && setup == Setup::Http10 {
                    continue;
                }
                for content in [Content::FirstTime, Content::Revalidate] {
                    items.push(Item::Cell(Cell {
                        server,
                        observed,
                        ..Cell::clean(env, setup, content)
                    }));
                }
            }
        }
    }
    items
}

/// 132 lossy first-time Apache cells. The impairment seed comes from
/// `seed` and the cell's coordinates but not from its congestion
/// control, so Reno and SACK face the same draws.
pub fn lossgrid(seed: u64) -> Vec<Item> {
    let mut items = Vec::with_capacity(132);
    let mut coordinate = 0u64;
    for env in ENVS {
        for setup in [Setup::Http10, Setup::Http11, Setup::Pipelined, Setup::Mux] {
            if env == Env::Ppp && setup == Setup::Http10 {
                continue;
            }
            for permille in [5, 20, 50] {
                for shape in [LossShape::Bernoulli, LossShape::Burst4] {
                    coordinate += 1;
                    let loss = Loss {
                        permille,
                        shape,
                        seed: splitmix(seed ^ splitmix(coordinate)),
                    };
                    for cc in [Cc::Reno, Cc::Sack] {
                        items.push(Item::Cell(Cell {
                            loss: Some(loss),
                            cc,
                            ..Cell::clean(env, setup, Content::FirstTime)
                        }));
                    }
                }
            }
        }
    }
    items
}

/// Clients in each `fleet` run.
pub const FLEET_CLIENTS: u32 = 256;
/// Clients in the `observed` fleet.
pub const OBSERVED_FLEET_CLIENTS: u32 = 128;

/// Three fleets that load the kernel differently: thousands of
/// short-lived connections overflowing the SYN backlog, long pipelined
/// flows over a long fat link, and a deep round-robin bottleneck queue.
pub fn fleet() -> Vec<Item> {
    [
        (Env::Lan, Setup::Http10),
        (Env::Wan, Setup::Pipelined),
        (Env::Ppp, Setup::Mux),
    ]
    .into_iter()
    .map(|(env, setup)| {
        Item::Fleet(Fleet {
            env,
            setup,
            clients: FLEET_CLIENTS,
            observed: false,
        })
    })
    .collect()
}

/// Eight clean cells moving the bulk objects.
pub fn bulk() -> Vec<Item> {
    let mut items = Vec::with_capacity(8);
    for env in [Env::Lan, Env::Wan] {
        for setup in [Setup::Http10, Setup::Http11, Setup::Pipelined, Setup::Mux] {
            items.push(Item::Cell(Cell::clean(env, setup, Content::Bulk)));
        }
    }
    items
}

/// The matrix cells and one fleet with every observer engaged.
pub fn observed() -> Vec<Item> {
    let mut items = matrix(true);
    items.push(Item::Fleet(Fleet {
        env: Env::Lan,
        setup: Setup::Http10,
        clients: OBSERVED_FLEET_CLIENTS,
        observed: true,
    }));
    items
}

/// The items of workload `name` for `seed`, or `None` for an unknown name.
pub fn items(name: &str, seed: u64) -> Option<Vec<Item>> {
    Some(match name {
        "matrix" => matrix(false),
        "lossgrid" => lossgrid(seed),
        "fleet" => fleet(),
        "bulk" => bulk(),
        "observed" => observed(),
        _ => return None,
    })
}

/// Sizes of the bulk objects: 4 × 256 KiB, 3 × 1 MiB, 1 × 4 MiB.
pub const BULK_SIZES: [usize; 8] = [
    256 << 10,
    256 << 10,
    256 << 10,
    256 << 10,
    1 << 20,
    1 << 20,
    1 << 20,
    4 << 20,
];

/// Incompressible bytes from `seed` (`index` separates objects).
pub fn seeded_bytes(seed: u64, index: u64, len: usize) -> Vec<u8> {
    let mut state = splitmix(seed ^ splitmix(0xB01C_0000 + index));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = splitmix(state);
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The bulk objects for `seed`, each `1/scale` of its full size
/// (`scale` is 1 except in tests), as `(path, body)`.
pub fn bulk_objects(seed: u64, scale: usize) -> Vec<(String, Vec<u8>)> {
    BULK_SIZES
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            (
                format!("/bulk/{i}-{}k.bin", len >> 10),
                seeded_bytes(seed, i as u64, len / scale),
            )
        })
        .collect()
}

/// Whether any item fetches the bulk objects.
pub fn uses_bulk(items: &[Item]) -> bool {
    items.iter().any(|i| {
        matches!(
            i,
            Item::Cell(Cell {
                content: Content::Bulk,
                ..
            })
        )
    })
}

/// FNV digest of a plan: the items and, if it fetches them, the bulk
/// object bytes.
pub fn plan_digest(items: &[Item], objects: &[(String, Vec<u8>)]) -> u64 {
    let mut h = Fnv::new();
    for item in items {
        h.write(format!("{item:?}").as_bytes());
    }
    if uses_bulk(items) {
        for (path, body) in objects {
            h.write(path.as_bytes());
            h.write(body);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loss_seeds(items: &[Item]) -> Vec<u64> {
        items
            .iter()
            .filter_map(|i| match i {
                Item::Cell(c) => c.loss.map(|l| l.seed),
                Item::Fleet(_) => None,
            })
            .collect()
    }

    #[test]
    fn workload_sizes_are_the_documented_ones() {
        assert_eq!(matrix(false).len(), 44);
        assert_eq!(lossgrid(1997).len(), 132);
        assert_eq!(fleet().len(), 3);
        assert_eq!(bulk().len(), 8);
        assert_eq!(observed().len(), 45);
        assert_eq!(BULK_SIZES.iter().sum::<usize>(), 8 << 20);
        for w in &WORKLOADS {
            assert!(items(w.name, 1).is_some(), "{} has a plan", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(items("experiments_md", 1).is_none());
    }

    #[test]
    fn the_same_seed_gives_the_same_plan_and_digest() {
        for w in &WORKLOADS {
            let a = items(w.name, 1997).unwrap();
            let b = items(w.name, 1997).unwrap();
            assert_eq!(a, b, "{}", w.name);
            let objects = bulk_objects(1997, 64);
            assert_eq!(
                plan_digest(&a, &objects),
                plan_digest(&b, &bulk_objects(1997, 64))
            );
        }
    }

    #[test]
    fn another_seed_changes_impairment_seeds_and_bulk_bytes_only() {
        let (a, b) = (lossgrid(1997), lossgrid(7));
        let (sa, sb) = (loss_seeds(&a), loss_seeds(&b));
        assert_eq!(sa.len(), 132);
        assert!(sa.iter().zip(&sb).all(|(x, y)| x != y), "every seed moved");
        // Reno and SACK at one coordinate share their draws; coordinates differ.
        assert!(sa.chunks(2).all(|pair| pair[0] == pair[1]));
        let mut distinct = sa.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 66);

        let (oa, ob) = (bulk_objects(1997, 64), bulk_objects(7, 64));
        for ((pa, ba), (pb, bb)) in oa.iter().zip(&ob) {
            assert_eq!(pa, pb, "paths do not depend on the seed");
            assert_eq!(ba.len(), bb.len(), "nor do sizes");
            assert_ne!(ba, bb, "bytes do");
        }
        assert_ne!(plan_digest(&bulk(), &oa), plan_digest(&bulk(), &ob));
        assert_ne!(plan_digest(&a, &[]), plan_digest(&b, &[]));

        // The clean workloads are the same work under every seed.
        for name in ["matrix", "fleet", "observed"] {
            assert_eq!(items(name, 1997), items(name, 7), "{name}");
        }
    }

    #[test]
    fn seeded_bytes_are_not_compressible_by_repetition() {
        let bytes = seeded_bytes(1, 0, 4096);
        assert_eq!(bytes.len(), 4096);
        let mut counts = [0u32; 256];
        for &b in &bytes {
            counts[b as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c < 64), "no byte value dominates");
        assert_ne!(seeded_bytes(1, 0, 64), seeded_bytes(1, 1, 64));
    }
}
