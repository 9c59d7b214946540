//! The paper's experiments, one module per table/figure group, and the
//! one registry that names them.
//!
//! Each [`REGISTRY`] entry is one section of EXPERIMENTS.md, rendered by
//! the section function in its experiment's module; [`document`] is the
//! whole file. The `repro` binary prints either.

use crate::env::NetEnv;
use crate::result::CellResult;
use httpserver::ServerKind;

pub mod ablations;
pub mod browsers;
pub mod cc;
pub mod closemgmt;
pub mod compression;
pub mod content;
pub mod mux;
pub mod nagle;
pub mod paper;
pub mod probe;
pub mod protocol_matrix;
pub mod ranges;
pub mod robustness;
pub mod scale;
pub mod summary;
pub mod telemetry;
pub mod verbosity;

/// One section of EXPERIMENTS.md.
#[derive(Debug)]
pub struct Experiment {
    /// The `repro` argument that prints this section.
    pub id: &'static str,
    /// One line on what it shows.
    pub title: &'static str,
    /// Run the experiment and render its markdown, heading first, ending
    /// in a newline.
    pub section: fn() -> String,
}

/// Every section of EXPERIMENTS.md, in document order.
pub static REGISTRY: &[Experiment] = &[
    Experiment {
        id: "table3",
        title: "Initial (untuned) LAN cache revalidation, Jigsaw",
        section: protocol_matrix::table3_section,
    },
    Experiment {
        id: "table4",
        title: "Jigsaw, LAN: protocol matrix",
        section: || protocol_matrix::matrix_section(NetEnv::Lan, ServerKind::Jigsaw),
    },
    Experiment {
        id: "table5",
        title: "Apache, LAN: protocol matrix",
        section: || protocol_matrix::matrix_section(NetEnv::Lan, ServerKind::Apache),
    },
    Experiment {
        id: "table6",
        title: "Jigsaw, WAN: protocol matrix",
        section: || protocol_matrix::matrix_section(NetEnv::Wan, ServerKind::Jigsaw),
    },
    Experiment {
        id: "table7",
        title: "Apache, WAN: protocol matrix",
        section: || protocol_matrix::matrix_section(NetEnv::Wan, ServerKind::Apache),
    },
    Experiment {
        id: "table8",
        title: "Jigsaw, PPP: protocol matrix",
        section: || protocol_matrix::matrix_section(NetEnv::Ppp, ServerKind::Jigsaw),
    },
    Experiment {
        id: "table9",
        title: "Apache, PPP: protocol matrix",
        section: || protocol_matrix::matrix_section(NetEnv::Ppp, ServerKind::Apache),
    },
    Experiment {
        id: "table10",
        title: "Jigsaw, PPP: Navigator vs Internet Explorer",
        section: || browsers::section(ServerKind::Jigsaw),
    },
    Experiment {
        id: "table11",
        title: "Apache, PPP: Navigator vs Internet Explorer",
        section: || browsers::section(ServerKind::Apache),
    },
    Experiment {
        id: "modem",
        title: "Deflate vs V.42bis modem compression (single HTML GET)",
        section: compression::modem_section,
    },
    Experiment {
        id: "deflate",
        title: "HTML transport compression and the tag-case effect",
        section: compression::deflate_section,
    },
    Experiment {
        id: "figure1",
        title: "The 'solutions' GIF vs HTML+CSS, CSS analysis and end-to-end browse",
        section: content::figure1_section,
    },
    Experiment {
        id: "png",
        title: "GIF->PNG and GIF->MNG conversion study",
        section: content::png_section,
    },
    Experiment {
        id: "nagle",
        title: "Nagle algorithm x write buffering interaction",
        section: nagle::section,
    },
    Experiment {
        id: "closerst",
        title: "Connection management: naive close vs independent half-close",
        section: closemgmt::section,
    },
    Experiment {
        id: "ranges",
        title: "Poor man's multiplexing: leading-range revisit of a revised site",
        section: ranges::section,
    },
    Experiment {
        id: "verbosity",
        title: "HTTP request redundancy and the compact-encoding headroom",
        section: verbosity::section,
    },
    Experiment {
        id: "ablations",
        title: "Design-choice sweeps: buffer threshold, flush timer, app flush, initial cwnd",
        section: ablations::section,
    },
    Experiment {
        id: "summary",
        title: "Back-of-envelope: all techniques vs HTTP/1.0 over a modem",
        section: summary::section,
    },
    Experiment {
        id: "robustness",
        title: "Protocol matrix under packet loss + jitter/reordering study",
        section: robustness::section,
    },
    Experiment {
        id: "scale",
        title: "Many-client fleets on one bottleneck: fairness, peak server connections, SYN drops",
        section: scale::section,
    },
    Experiment {
        id: "probe",
        title: "Where the time goes: elapsed time attributed to nine stall causes",
        section: probe::section,
    },
    Experiment {
        id: "mux",
        title: "Multiplexing + server push: matrix, loss shared fate, fleets, stall probe",
        section: mux::section,
    },
    Experiment {
        id: "cc",
        title: "Loss grid under Reno/NewReno/SACK/CUBIC recovery + per-variant stall probe",
        section: cc::section,
    },
    Experiment {
        id: "telemetry",
        title: "Fleet observatory: SYN-burst and RTO-stall timelines, telemetry volume",
        section: telemetry::section,
    },
    Experiment {
        id: "speed",
        title: "Where the simulator's speed is measured",
        section: speed_section,
    },
];

/// The registry entry named `id`.
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// EXPERIMENTS.md: the preamble, then every section, blank-line
/// separated.
pub fn document() -> String {
    let sections = REGISTRY.iter().map(|e| (e.section)());
    std::iter::once(PREAMBLE.to_string())
        .chain(sections)
        .collect::<Vec<_>>()
        .join("\n")
}

const PREAMBLE: &str = "# EXPERIMENTS — paper vs measured\n\n\
Every table and figure of *Network Performance Effects of HTTP/1.1, CSS1,\n\
and PNG* (SIGCOMM '97), reproduced by deterministic simulation. Regenerate\n\
any entry with `cargo run --release -p httpipe-bench --bin repro -- <id>`;\n\
regenerate this file with `... --bin repro > EXPERIMENTS.md`.\n\n\
The goal is *shape*, not absolute equality: orderings, crossovers and\n\
rough factors. The paper measured real 1997 hosts over the live Internet\n\
(5-run averages, hence fractional packets); we measure one deterministic\n\
run of a simulated TCP whose mechanics — connection setup/teardown, slow\n\
start, delayed ACKs, Nagle, buffering, service times — are the quantities\n\
that drive the published numbers.\n";

// A pointer, not numbers: wall-clock figures vary run to run, and
// regenerating EXPERIMENTS.md must leave it byte-identical on an
// unchanged tree.
fn speed_section() -> String {
    "## Simulator speed (`benchmark/`)\n\n\
     Beyond the paper: how fast the simulator that produced every number\n\
     above runs is recorded by the performance ledger, not here. Its\n\
     workloads, metrics (simulated packets per second, allocations per\n\
     packet, per-layer costs) and the measured baseline are in\n\
     `benchmark/README.md`; `benchmark/run.sh` re-measures them. The\n\
     deterministic half \u{2014} the digests quoted above, plus the matrix\n\
     and 16-client-fleet digests \u{2014} is pinned in `httpipe_core::gate` and\n\
     checked by `cargo run --release -p httpipe-bench --bin gate`; exact\n\
     allocation counts are one table, `crates/core/tests/count_table/mod.rs`,\n\
     checked by `cargo test`.\n"
        .to_string()
}

/// One `| label | paper | measured |` row of a comparison table.
fn row(label: &str, paper: &str, measured: &str) -> String {
    format!("| {label} | {paper} | {measured} |\n")
}

/// A cell's `Pa / Bytes / Sec`, as the measured column prints it.
fn triplet(c: &CellResult) -> String {
    format!("{} / {} / {:.2}", c.packets(), c.bytes, c.secs)
}

/// Text blocks inside one fenced code block, blank-line separated.
fn fenced(blocks: &[String]) -> String {
    format!("```\n{}```\n", blocks.join("\n"))
}
