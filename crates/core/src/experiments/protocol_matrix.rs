//! Tables 1 and 3–9: the protocol matrix.
//!
//! Table 3 is the paper's *initial* (untuned) LAN revalidation test —
//! 1-second flush timer, no application-driven flush — whose pipelined
//! row beat HTTP/1.0 on packets but lost on elapsed time, prompting the
//! buffer-tuning section. Tables 4–9 are the final tuned measurements
//! over {Jigsaw, Apache} × {LAN, WAN, PPP} × four protocol setups ×
//! {first-time, revalidation}.

use super::paper::{self, PaperError, Published};
use super::{row, triplet};
use crate::env::NetEnv;
use crate::harness::{matrix_spec, run_cells, CellSpec, ProtocolSetup, Scenario};
use crate::result::{CellResult, Table};
use httpserver::ServerKind;
use netsim::SimDuration;

/// Table 1: the tested network environments (static configuration).
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1 - Tested Network Environments",
        &["Connection", "RTT", "MSS"],
    );
    for env in NetEnv::ALL {
        t.push_row(
            env.channel(),
            vec![
                env.connection().to_string(),
                format!("{}", env.rtt()),
                env.mss().to_string(),
            ],
        );
    }
    t
}

/// Table 3's rows: protocol setup and row label.
const TABLE3: [(ProtocolSetup, &str); 3] = [
    (ProtocolSetup::Http10, "HTTP/1.0"),
    (ProtocolSetup::Http11, "HTTP/1.1 persistent"),
    (
        ProtocolSetup::Http11Pipelined,
        "HTTP/1.1 pipelined (untuned)",
    ),
];

/// Table 3: the initial (untuned) high-bandwidth low-latency cache
/// revalidation test against Jigsaw, before any of the paper's tuning:
///
/// * the server is the initial, slower Jigsaw;
/// * the HTTP/1.1 client uses the disk-backed persistent cache (two
///   files per object) that later proved to be a bottleneck;
/// * the pipelined client has a 1-second flush timer and no
///   application-driven flush;
/// * the HTTP/1.0 row is the older libwww 4.1D with no persistent cache
///   at all (hence its HEAD-based revalidation and small CPU costs).
///
/// The cells come in row order: HTTP/1.0, persistent, pipelined.
pub fn table3_cells() -> Vec<CellResult> {
    let specs = TABLE3
        .iter()
        .map(|&(setup, _)| {
            let mut spec =
                matrix_spec(NetEnv::Lan, ServerKind::Jigsaw, setup, Scenario::Revalidate);
            spec.server = httpserver::ServerConfig::jigsaw_initial(80);
            if setup != ProtocolSetup::Http10 {
                spec.client = spec.client.with_disk_cache();
            }
            if setup == ProtocolSetup::Http11Pipelined {
                // The untuned configuration of the initial investigation.
                spec.client = spec
                    .client
                    .with_app_flush(false)
                    .with_flush_timeout(SimDuration::from_millis(1000));
            }
            spec
        })
        .collect();
    run_cells(specs)
}

/// The Table 3 section of EXPERIMENTS.md.
pub(crate) fn table3_section() -> String {
    let mut out = String::from(
        "## Table 3 — initial (untuned) LAN revalidation, Jigsaw (`repro table3`)\n\n\
         | Row | Paper (sockets / packets / secs) | Measured |\n|---|---|---|\n",
    );
    for ((setup, label), c) in TABLE3.iter().zip(table3_cells()) {
        let p = paper::find("table3", &format!("{setup:?}"), "Revalidate");
        let socks = p.sockets.expect("Table 3 reports sockets");
        out += &row(
            label,
            &format!("{socks:.0} / {:.0} / {:.2}", p.packets, p.seconds),
            &format!("{} / {} / {:.2}", c.sockets_used, c.packets(), c.secs),
        );
    }
    out + "\nShape reproduced: dramatic packet savings from persistence and again from\n\
           pipelining, while *elapsed time* inverts — the serialized client and the\n\
           untuned pipeline (1 s flush timer, disk-backed cache) lose to HTTP/1.0.\n\
           Our persistent row shows fewer packets than the paper's 223 because our\n\
           initial server already buffers each response into one segment.\n"
}

/// The cells of one of Tables 4–9: every protocol setup for one
/// (environment, server) pair, both scenarios, run in parallel. PPP
/// (Tables 8–9) omits HTTP/1.0, exactly as the paper does.
pub fn matrix_cells(
    env: NetEnv,
    server: ServerKind,
) -> Vec<(ProtocolSetup, CellResult, CellResult)> {
    let setups = matrix_setups(env);
    let specs = setups
        .iter()
        .flat_map(|&setup| {
            [
                matrix_spec(env, server, setup, Scenario::FirstTime),
                matrix_spec(env, server, setup, Scenario::Revalidate),
            ]
        })
        .collect();
    let cells = run_cells(specs);
    setups
        .iter()
        .zip(cells.chunks_exact(2))
        .map(|(&setup, pair)| (setup, pair[0], pair[1]))
        .collect()
}

/// The protocol setups one of Tables 4–9 includes for `env`.
pub fn matrix_setups(env: NetEnv) -> &'static [ProtocolSetup] {
    if env == NetEnv::Ppp {
        &ProtocolSetup::ALL[1..]
    } else {
        &ProtocolSetup::ALL
    }
}

/// The (environment, server, setup, scenario) of every cell of Tables
/// 4–9 in table order: environment, then Jigsaw before Apache, then
/// protocol row, then first-time before revalidation.
pub(crate) fn matrix_keys() -> impl Iterator<Item = (NetEnv, ServerKind, ProtocolSetup, Scenario)> {
    NetEnv::ALL.into_iter().flat_map(|env| {
        [ServerKind::Jigsaw, ServerKind::Apache]
            .into_iter()
            .flat_map(move |server| {
                matrix_setups(env).iter().flat_map(move |&setup| {
                    [Scenario::FirstTime, Scenario::Revalidate]
                        .map(|scenario| (env, server, setup, scenario))
                })
            })
    })
}

/// Every cell of Tables 4–9 (44 specs) in table order, stats-only.
pub fn all_specs() -> Vec<CellSpec> {
    matrix_keys()
        .map(|(env, server, setup, scenario)| matrix_spec(env, server, setup, scenario))
        .collect()
}

/// The published row of one cell of Tables 4–9.
fn paper_row(
    env: NetEnv,
    server: ServerKind,
    setup: ProtocolSetup,
    scenario: Scenario,
) -> &'static Published {
    let id = format!("table{}", table_number(env, server));
    paper::find(&id, &format!("{setup:?}"), &format!("{scenario:?}"))
}

/// The distance of the 44 cells of Tables 4–9 from the paper: the
/// ledger's `paper_err_pct` and its three quantities.
pub fn paper_error() -> PaperError {
    let cells = run_cells(all_specs());
    let rows =
        matrix_keys().map(|(env, srv, setup, scenario)| paper_row(env, srv, setup, scenario));
    paper::error(rows.zip(&cells))
}

/// The paper's table number for a (env, server) pair.
pub fn table_number(env: NetEnv, server: ServerKind) -> u8 {
    match (env, server) {
        (NetEnv::Lan, ServerKind::Jigsaw) => 4,
        (NetEnv::Lan, ServerKind::Apache) => 5,
        (NetEnv::Wan, ServerKind::Jigsaw) => 6,
        (NetEnv::Wan, ServerKind::Apache) => 7,
        (NetEnv::Ppp, ServerKind::Jigsaw) => 8,
        (NetEnv::Ppp, ServerKind::Apache) => 9,
    }
}

/// The section of EXPERIMENTS.md for one of Tables 4–9.
pub(crate) fn matrix_section(env: NetEnv, server: ServerKind) -> String {
    let cells = matrix_cells(env, server);
    let table = |heading: &str, scenario: Scenario| {
        let mut out = format!(
            "### {heading} (Pa / Bytes / Sec)\n\n| Protocol | Paper | Measured |\n|---|---|---|\n"
        );
        for &(setup, first, reval) in &cells {
            let cell = if scenario == Scenario::FirstTime {
                first
            } else {
                reval
            };
            let paper = paper_row(env, server, setup, scenario);
            out += &row(setup.label(), &paper.triplet(), &triplet(&cell));
        }
        out
    };
    format!(
        "## Table {n} — {server:?}, {} (`repro table{n}`)\n\n{}\n{}",
        env.channel(),
        table("First-time retrieval", Scenario::FirstTime),
        table("Cache validation", Scenario::Revalidate),
        n = table_number(env, server),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_three_environments() {
        let t = table1();
        assert_eq!(t.rows.len(), 3);
        assert!(t.render().contains("28.8k"));
    }

    #[test]
    fn matrix_cells_first_byte_within_elapsed() {
        for (setup, first, reval) in matrix_cells(NetEnv::Lan, ServerKind::Apache) {
            for cell in [first, reval] {
                assert!(
                    cell.first_byte_secs > 0.0 && cell.first_byte_secs <= cell.secs,
                    "{setup:?}: first byte {} outside (0, {}]",
                    cell.first_byte_secs,
                    cell.secs
                );
            }
        }
    }

    #[test]
    fn table3_shape_matches_paper() {
        // The paper's observations for the *untuned* pipelined client:
        // dramatic packet savings over HTTP/1.0, but persistent (serial)
        // HTTP/1.1 costs elapsed time.
        let rows = table3_cells();
        assert_eq!(rows.len(), 3);
        let (http10, persistent, pipelined) = (&rows[0], &rows[1], &rows[2]);

        // Socket counts: 43 vs 1 vs 1.
        assert!(http10.sockets_used >= 40);
        assert_eq!(persistent.sockets_used, 1);
        assert_eq!(pipelined.sockets_used, 1);

        // Packet ordering (paper: 497 / 223 / 83).
        assert!(persistent.packets() < http10.packets() / 2);
        assert!(pipelined.packets() < persistent.packets());

        // Elapsed-time ordering (paper: 1.85 / 4.13 / 3.02): persistent
        // slowest, untuned pipelining in between or better.
        assert!(
            persistent.secs > http10.secs,
            "serialized HTTP/1.1 must lose on elapsed time: {:.2} vs {:.2}",
            persistent.secs,
            http10.secs
        );
        assert!(pipelined.secs < persistent.secs);
    }
}
