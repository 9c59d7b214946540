//! Tables 1 and 3–9: the protocol matrix.
//!
//! Table 3 is the paper's *initial* (untuned) LAN revalidation test —
//! 1-second flush timer, no application-driven flush — whose pipelined
//! row beat HTTP/1.0 on packets but lost on elapsed time, prompting the
//! buffer-tuning section. Tables 4–9 are the final tuned measurements
//! over {Jigsaw, Apache} × {LAN, WAN, PPP} × four protocol setups ×
//! {first-time, revalidation}.

use crate::env::NetEnv;
use crate::harness::{matrix_spec, run_cells, CellSpec, ProtocolSetup, Scenario};
use crate::result::{CellResult, Table};
use httpserver::ServerKind;
use netsim::{SimDuration, TraceMode};

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

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Protocol row label.
    pub label: &'static str,
    /// Metrics of the run.
    pub cell: CellResult,
}

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
pub fn table3_cells() -> Vec<Table3Row> {
    let setups = [
        ProtocolSetup::Http10,
        ProtocolSetup::Http11,
        ProtocolSetup::Http11Pipelined,
    ];
    let specs = setups
        .iter()
        .map(|&setup| {
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
    setups
        .iter()
        .zip(run_cells(specs))
        .map(|(setup, cell)| Table3Row {
            label: setup.label(),
            cell,
        })
        .collect()
}

/// Render Table 3 in the paper's layout.
pub fn table3() -> Table {
    let rows = table3_cells();
    let mut t = Table::new(
        "Table 3 - Jigsaw - Initial High Bandwidth, Low Latency Cache Revalidation Test",
        &[
            "Max sockets",
            "Sockets used",
            "Pkts c>s",
            "Pkts s>c",
            "Total pkts",
            "Secs",
        ],
    );
    for row in rows {
        t.push_row(
            row.label,
            vec![
                row.cell.max_sockets.to_string(),
                row.cell.sockets_used.to_string(),
                row.cell.packets_c2s.to_string(),
                row.cell.packets_s2c.to_string(),
                row.cell.packets().to_string(),
                format!("{:.2}", row.cell.secs),
            ],
        );
    }
    t
}

/// The cells of one of Tables 4–9: every protocol setup for one
/// (environment, server) pair, both scenarios, run in parallel. PPP
/// (Tables 8–9) omits HTTP/1.0, exactly as the paper does.
pub fn matrix_cells(
    env: NetEnv,
    server: ServerKind,
) -> Vec<(&'static str, CellResult, CellResult)> {
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
        .map(|(&setup, pair)| (setup.label(), pair[0], pair[1]))
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

/// Every cell of Tables 4–9 (44 specs) in table order — environment,
/// then Jigsaw before Apache, then protocol row, then first-time before
/// revalidation — with the given trace retention.
pub fn all_specs(trace_mode: TraceMode) -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for env in NetEnv::ALL {
        for server in [ServerKind::Jigsaw, ServerKind::Apache] {
            for &setup in matrix_setups(env) {
                for scenario in [Scenario::FirstTime, Scenario::Revalidate] {
                    let mut spec = matrix_spec(env, server, setup, scenario);
                    spec.trace_mode = trace_mode;
                    specs.push(spec);
                }
            }
        }
    }
    specs
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

/// Render one of Tables 4–9.
pub fn matrix_table(env: NetEnv, server: ServerKind) -> Table {
    let n = table_number(env, server);
    let server_name = match server {
        ServerKind::Jigsaw => "Jigsaw",
        ServerKind::Apache => "Apache",
    };
    let mut t = Table::new(
        &format!("Table {n} - {server_name} - {}", env.channel()),
        &[
            "FT Pa", "FT Bytes", "FT Sec", "FT 1stB", "FT %ov", "CV Pa", "CV Bytes", "CV Sec",
            "CV 1stB", "CV %ov",
        ],
    );
    for (label, first, reval) in matrix_cells(env, server) {
        let mut cols = Vec::with_capacity(10);
        for cell in [&first, &reval] {
            let mut group = Table::cell_columns(cell);
            // Slot the first-response-byte latency between Sec and %ov.
            group.insert(3, format!("{:.2}", cell.first_byte_secs));
            cols.extend(group);
        }
        t.push_row(label, cols);
    }
    t
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
    fn matrix_table_surfaces_first_byte() {
        let t = matrix_table(NetEnv::Lan, ServerKind::Apache);
        assert_eq!(t.columns.len(), 10);
        assert_eq!(t.columns[3], "FT 1stB");
        assert_eq!(t.columns[8], "CV 1stB");
        for (label, vals) in &t.rows {
            let first_byte: f64 = vals[3].parse().unwrap();
            let secs: f64 = vals[2].parse().unwrap();
            assert!(
                first_byte > 0.0 && first_byte <= secs,
                "{label}: first byte {first_byte} outside (0, {secs}]"
            );
        }
    }

    #[test]
    fn table3_shape_matches_paper() {
        // The paper's observations for the *untuned* pipelined client:
        // dramatic packet savings over HTTP/1.0, but persistent (serial)
        // HTTP/1.1 costs elapsed time.
        let rows = table3_cells();
        assert_eq!(rows.len(), 3);
        let http10 = &rows[0].cell;
        let persistent = &rows[1].cell;
        let pipelined = &rows[2].cell;

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
