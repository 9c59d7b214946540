//! Beyond the paper: framed stream multiplexing with server push as a
//! fourth transport setup.
//!
//! The paper's future-work section points at exactly this design space —
//! a binary framing layer that removes pipelining's FIFO constraint and
//! lets the server volunteer the inline objects it knows the page needs.
//! This family reruns the repo's experiment surfaces with the `httpmux`
//! setups appended: the Tables 4–9 matrix, the robustness loss grid, the
//! many-client fleet matrix and the stall-attribution probe.
//!
//! The interesting shapes:
//!
//! * On clean links, multiplexing matches pipelining's packet counts
//!   (one connection, batched frames) and push removes the image-request
//!   round trip entirely — `requests_sent` collapses to 1 on a
//!   first-time page load.
//! * Under loss the single multiplexed connection is a shared-fate
//!   domain: every drop stalls *all* streams behind it, so elapsed-time
//!   inflation per lost packet exceeds HTTP/1.0's four parallel
//!   connections (which localize each loss) — the same head-of-line
//!   argument the robustness family makes for pipelining, sharpened by
//!   push putting even more bytes behind the same loss.

use crate::env::NetEnv;
use crate::experiments::robustness::{self, LossShape, RobustnessCell, RobustnessPoint};
use crate::experiments::{probe, scale};
use crate::harness::{matrix_spec, run_cells, ProtocolSetup, Scenario};
use crate::result::{CellResult, Table};
use httpserver::ServerKind;

/// Setups of the mux comparison tables: the paper's best setup
/// (pipelining) against multiplexing with and without push.
pub const SETUPS: [ProtocolSetup; 3] = [
    ProtocolSetup::Http11Pipelined,
    ProtocolSetup::Multiplexed,
    ProtocolSetup::MultiplexedPush,
];

/// Setups of the loss grid: HTTP/1.0's four parallel connections are the
/// shared-fate counterpoint, so they run alongside the single-connection
/// setups.
pub const LOSS_SETUPS: [ProtocolSetup; 4] = [
    ProtocolSetup::Http10,
    ProtocolSetup::Http11Pipelined,
    ProtocolSetup::Multiplexed,
    ProtocolSetup::MultiplexedPush,
];

// ---------------------------------------------------------------------
// Matrix (Tables 4–9 with the mux setups)
// ---------------------------------------------------------------------

/// The cells of one mux matrix table: every [`SETUPS`] entry for one
/// (environment, server) pair, both scenarios, run in parallel.
pub fn matrix_cells(
    env: NetEnv,
    server: ServerKind,
) -> Vec<(&'static str, CellResult, CellResult)> {
    let specs = SETUPS
        .iter()
        .flat_map(|&setup| {
            [
                matrix_spec(env, server, setup, Scenario::FirstTime),
                matrix_spec(env, server, setup, Scenario::Revalidate),
            ]
        })
        .collect();
    let cells = run_cells(specs);
    SETUPS
        .iter()
        .zip(cells.chunks_exact(2))
        .map(|(&setup, pair)| (setup.label(), pair[0], pair[1]))
        .collect()
}

/// Render one mux matrix table. The extra `PushB` column is the bytes
/// the server volunteered on promised streams (zero for non-push rows);
/// `CxlB` is the push DATA bytes already in flight when the client
/// cancelled the stream — pure wire waste.
pub fn matrix_table(env: NetEnv, server: ServerKind) -> Table {
    let server_name = match server {
        ServerKind::Jigsaw => "Jigsaw",
        ServerKind::Apache => "Apache",
    };
    let mut t = Table::new(
        &format!("Multiplexing - {server_name} - {}", env.channel()),
        &[
            "FT Pa", "FT Bytes", "FT Sec", "FT PushB", "FT CxlB", "CV Pa", "CV Bytes", "CV Sec",
            "CV PushB", "CV CxlB",
        ],
    );
    for (label, first, reval) in matrix_cells(env, server) {
        let mut cols = Vec::with_capacity(10);
        for cell in [&first, &reval] {
            cols.push(cell.packets().to_string());
            cols.push(cell.bytes.to_string());
            cols.push(format!("{:.2}", cell.secs));
            cols.push(cell.pushed_bytes.to_string());
            cols.push(cell.cancelled_push_bytes.to_string());
        }
        t.push_row(label, cols);
    }
    t
}

// ---------------------------------------------------------------------
// Loss grid and shared fate
// ---------------------------------------------------------------------

/// The mux loss grid: every environment, the full loss ladder, both
/// shapes, [`LOSS_SETUPS`], first-time retrieval (84 cells). Reuses the
/// robustness machinery point for point, so every cell is reproducible
/// in isolation from its coordinate-derived seed.
pub fn loss_grid() -> Vec<RobustnessPoint> {
    robustness::grid(
        &NetEnv::ALL,
        &robustness::LOSS_GRID_PCT,
        &LOSS_SETUPS,
        &[Scenario::FirstTime],
    )
}

/// A reduced WAN-only loss grid for the `mux` gate (12 cells).
pub fn reduced_loss_grid() -> Vec<RobustnessPoint> {
    robustness::grid(
        &[NetEnv::Wan],
        &[0.0, 2.0],
        &LOSS_SETUPS,
        &[Scenario::FirstTime],
    )
}

/// One shared-fate comparison point: elapsed-time inflation over the
/// zero-loss baseline for HTTP/1.0×4 versus multiplexed, same loss rate
/// and shape.
#[derive(Debug, Clone, Copy)]
pub struct SharedFate {
    /// Mean packet loss in percent.
    pub loss_pct: f64,
    /// Loss distribution shape.
    pub shape: LossShape,
    /// HTTP/1.0×4 inflation over its zero-loss row, percent.
    pub http10_infl: f64,
    /// Multiplexed inflation over its zero-loss row, percent.
    pub mux_infl: f64,
}

/// Extract the shared-fate comparison from a set of loss-grid cells for
/// one environment: every lossy (rate, shape) where both the HTTP/1.0
/// and multiplexed rows (and their zero-loss baselines) are present.
pub fn shared_fate(cells: &[RobustnessCell], env: NetEnv) -> Vec<SharedFate> {
    let infl = |setup: ProtocolSetup, loss_pct: f64, shape: LossShape| -> Option<f64> {
        let cell = cells.iter().find(|c| {
            c.point.env == env
                && c.point.setup == setup
                && c.point.loss_pct == loss_pct
                && c.point.shape == shape
        })?;
        robustness::inflation_pct(cells, cell)
    };
    let mut out = Vec::new();
    for &loss_pct in &robustness::LOSS_GRID_PCT {
        if loss_pct == 0.0 {
            continue;
        }
        for shape in LossShape::ALL {
            if let (Some(h), Some(m)) = (
                infl(ProtocolSetup::Http10, loss_pct, shape),
                infl(ProtocolSetup::Multiplexed, loss_pct, shape),
            ) {
                out.push(SharedFate {
                    loss_pct,
                    shape,
                    http10_infl: h,
                    mux_infl: m,
                });
            }
        }
    }
    out
}

/// Render the shared-fate comparison for one environment.
pub fn shared_fate_table(cells: &[RobustnessCell], env: NetEnv) -> Table {
    let mut t = Table::new(
        &format!(
            "Shared fate - Apache - {} first-time - inflation per loss point",
            env.name()
        ),
        &["HTTP/1.0x4 Infl%", "HTTP/mux Infl%"],
    );
    for sf in shared_fate(cells, env) {
        t.push_row(
            &format!("{:.1}% {}", sf.loss_pct, sf.shape.label()),
            vec![
                format!("{:+.1}", sf.http10_infl),
                format!("{:+.1}", sf.mux_infl),
            ],
        );
    }
    t
}

// ---------------------------------------------------------------------
// Fleet and probe grids
// ---------------------------------------------------------------------

/// The mux fleet matrix: every environment × both mux setups × the
/// standard fleet sizes (30 fleets). [`scale::ScalePoint::spec`] wires
/// the push-enabled server config for the push setup.
pub fn fleet_grid() -> Vec<scale::ScalePoint> {
    scale::grid(&NetEnv::ALL, &ProtocolSetup::MUX, &scale::N_GRID)
}

/// The mux stall-attribution grid: every environment × both mux setups,
/// first-time retrieval (6 cells).
pub fn probe_grid() -> Vec<probe::ProbePoint> {
    let mut points = Vec::new();
    for env in NetEnv::ALL {
        for &setup in &ProtocolSetup::MUX {
            points.push(probe::ProbePoint {
                env,
                setup,
                scenario: Scenario::FirstTime,
            });
        }
    }
    points
}

/// A reduced LAN-only probe grid for the `mux` gate (2 cells).
pub fn reduced_probe_grid() -> Vec<probe::ProbePoint> {
    probe_grid()
        .into_iter()
        .filter(|p| p.env == NetEnv::Lan)
        .collect()
}

// ---------------------------------------------------------------------
// Reduced report
// ---------------------------------------------------------------------

/// The reduced mux report for CI: the LAN Apache matrix table, the
/// reduced WAN loss grid with its shared-fate extract, and the LAN probe
/// decomposition. Cheap enough to run twice back to back.
pub fn reduced_report() -> Vec<Table> {
    let mut tables = vec![matrix_table(NetEnv::Lan, ServerKind::Apache)];
    let loss_cells = robustness::run_points(&reduced_loss_grid());
    tables.extend(robustness::report(&loss_cells));
    tables.push(shared_fate_table(&loss_cells, NetEnv::Wan));
    tables.push(probe::report(&probe::run_points(&reduced_probe_grid())));
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes() {
        assert_eq!(loss_grid().len(), 84);
        assert_eq!(reduced_loss_grid().len(), 12);
        assert_eq!(fleet_grid().len(), 30);
        assert_eq!(probe_grid().len(), 6);
        assert_eq!(reduced_probe_grid().len(), 2);
    }

    #[test]
    fn lan_matrix_shows_push_bytes() {
        let cells = matrix_cells(NetEnv::Lan, ServerKind::Apache);
        assert_eq!(cells.len(), 3);
        let (_, pipelined_ft, _) = &cells[0];
        let (_, mux_ft, _) = &cells[1];
        let (_, push_ft, _) = &cells[2];
        assert_eq!(pipelined_ft.pushed_bytes, 0);
        assert_eq!(mux_ft.pushed_bytes, 0);
        assert!(
            push_ft.pushed_bytes > 0,
            "push setup volunteered no bytes at all"
        );
        // Everything still arrives: same order of magnitude of payload.
        assert!(push_ft.bytes > 0 && mux_ft.bytes > 0);
    }
}
