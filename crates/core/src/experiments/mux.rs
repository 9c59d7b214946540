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

use super::Size;
use crate::env::NetEnv;
use crate::experiments::robustness::{self, LossShape, RobustnessCell, RobustnessPoint};
use crate::experiments::{probe, scale};
use crate::harness::{matrix_spec, run_cells_threaded, ProtocolSetup, Scenario};
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

/// One cell of a mux matrix table.
type MatrixKey = (NetEnv, ServerKind, ProtocolSetup, Scenario);

/// The cells of the matrix tables for `envs` × `servers`: one table per
/// pair, [`SETUPS`] × both scenarios each.
fn matrix_keys(envs: &[NetEnv], servers: &[ServerKind]) -> Vec<MatrixKey> {
    let mut keys = Vec::new();
    for &env in envs {
        for &server in servers {
            for setup in SETUPS {
                for scenario in [Scenario::FirstTime, Scenario::Revalidate] {
                    keys.push((env, server, setup, scenario));
                }
            }
        }
    }
    keys
}

fn run_matrix(keys: &[MatrixKey], threads: Option<usize>) -> Vec<(MatrixKey, CellResult)> {
    let specs = keys
        .iter()
        .map(|&(env, server, setup, scenario)| matrix_spec(env, server, setup, scenario))
        .collect();
    keys.iter()
        .copied()
        .zip(run_cells_threaded(specs, threads))
        .collect()
}

/// Render one mux matrix table from its cells, in [`matrix_keys`] order.
/// The extra `PushB` column is the bytes the server volunteered on
/// promised streams (zero for non-push rows); `CxlB` is the push DATA
/// bytes already in flight when the client cancelled the stream — pure
/// wire waste.
fn render_matrix(cells: &[(MatrixKey, CellResult)]) -> Table {
    let (env, server, ..) = cells[0].0;
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
    for pair in cells.chunks_exact(2) {
        let mut cols = Vec::with_capacity(10);
        for (_, cell) in pair {
            cols.push(cell.packets().to_string());
            cols.push(cell.bytes.to_string());
            cols.push(format!("{:.2}", cell.secs));
            cols.push(cell.pushed_bytes.to_string());
            cols.push(cell.cancelled_push_bytes.to_string());
        }
        t.push_row(pair[0].0 .2.label(), cols);
    }
    t
}

/// Run and render the mux matrix table of one (environment, server).
pub fn matrix_table(env: NetEnv, server: ServerKind) -> Table {
    render_matrix(&run_matrix(&matrix_keys(&[env], &[server]), None))
}

// ---------------------------------------------------------------------
// Loss grid and shared fate
// ---------------------------------------------------------------------

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
                && c.point.loss_pct.to_bits() == loss_pct.to_bits()
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
// The family's points
// ---------------------------------------------------------------------

/// The family's points at one size, one list per kind of table.
pub(crate) struct Points {
    /// The matrix tables' cells ([`matrix_keys`]).
    pub(crate) matrix: Vec<MatrixKey>,
    /// The loss grid: [`LOSS_SETUPS`], first-time retrieval.
    pub(crate) loss: Vec<RobustnessPoint>,
    /// The fleets: both mux setups. [`scale::ScalePoint::spec`] wires the
    /// push-enabled server config for the push setup.
    pub(crate) fleets: Vec<scale::ScalePoint>,
    /// The stall-attribution grid: both mux setups, first-time retrieval.
    pub(crate) probe: Vec<probe::ProbePoint>,
}

/// What [`run_points`] measured, list for list.
pub(crate) struct Cells {
    pub(crate) matrix: Vec<(MatrixKey, CellResult)>,
    pub(crate) loss: Vec<RobustnessCell>,
    pub(crate) fleets: Vec<scale::ScaleCell>,
    pub(crate) probe: Vec<probe::ProbeCell>,
}

/// The points at `size`. Full: the matrix over every environment and
/// both servers (36 cells), the loss grid over every environment, the
/// full loss ladder and both shapes (84 cells), 30 fleets and 6 probe
/// cells. Gate: the LAN Apache matrix (6 cells), WAN at {0, 2}%
/// (12 cells), no fleets and the LAN probe (2 cells). The loss points
/// reuse the robustness machinery, so every cell is reproducible in
/// isolation from its coordinate-derived seed.
pub(crate) fn points(size: Size) -> Points {
    let loss = |envs: &[NetEnv], losses: &[f64]| {
        robustness::grid(envs, losses, &LOSS_SETUPS, &[Scenario::FirstTime])
    };
    match size {
        Size::Gate => Points {
            matrix: matrix_keys(&[NetEnv::Lan], &[ServerKind::Apache]),
            loss: loss(&[NetEnv::Wan], &[0.0, 2.0]),
            fleets: Vec::new(),
            probe: probe::grid(&[NetEnv::Lan], &ProtocolSetup::MUX),
        },
        Size::Full => Points {
            matrix: matrix_keys(&NetEnv::ALL, &[ServerKind::Jigsaw, ServerKind::Apache]),
            loss: loss(&NetEnv::ALL, &robustness::LOSS_GRID_PCT),
            fleets: scale::grid(&NetEnv::ALL, &ProtocolSetup::MUX, &scale::N_GRID),
            probe: probe::grid(&NetEnv::ALL, &ProtocolSetup::MUX),
        },
    }
}

/// Run every list of `points` on the cell pool (`threads` as in
/// [`run_cells_threaded`]).
pub(crate) fn run_points(points: &Points, threads: Option<usize>) -> Cells {
    Cells {
        matrix: run_matrix(&points.matrix, threads),
        loss: robustness::run_points(&points.loss, threads),
        fleets: scale::run_points(&points.fleets, threads),
        probe: probe::run_points(&points.probe, threads),
    }
}

/// The family's tables: a matrix table per (environment, server), the
/// loss grid with a shared-fate table per environment it covers, the
/// fleets and the stall probe.
pub(crate) fn report(cells: &Cells) -> Vec<Table> {
    let per_table = 2 * SETUPS.len();
    let mut tables: Vec<Table> = cells.matrix.chunks(per_table).map(render_matrix).collect();
    tables.extend(robustness::report(&cells.loss));
    let lossy_envs = NetEnv::ALL
        .into_iter()
        .filter(|&env| cells.loss.iter().any(|c| c.point.env == env));
    tables.extend(lossy_envs.map(|env| shared_fate_table(&cells.loss, env)));
    tables.extend(scale::report(&cells.fleets));
    tables.push(probe::report(&cells.probe));
    tables
}

/// The multiplexing section of EXPERIMENTS.md: the mux matrix, the loss
/// grid and its shared-fate tables, the fleets and the stall probe.
pub(crate) fn section() -> String {
    let cells = run_points(&points(Size::Full), None);
    let blocks: Vec<String> = report(&cells).iter().map(Table::render).collect();
    format!(
        "## Multiplexing and server push (`repro mux`)\n\n\
         Beyond the paper, twenty years forward: a binary-framed multiplexed\n\
         transport (HEADERS / DATA / SETTINGS / WINDOW_UPDATE / RST_STREAM /\n\
         PUSH_PROMISE over one connection, HTTP/2-style but simplified — see\n\
         DESIGN.md) joins HTTP/1.0\u{d7}4, persistent and pipelined as a fourth\n\
         setup, with an optional server push policy (inline images and CSS\n\
         discovered in served HTML are pushed alongside it). `FT`/`CV`\n\
         columns are the first-time and cache-validation scenarios; `PushB`\n\
         is pushed payload bytes. The shapes to notice: on the unimpaired\n\
         matrix mux tracks pipelining closely (framing overhead is noise)\n\
         and push pays only on first-time retrieval, where it collapses the\n\
         HTML-parse discovery round trip; under loss the single multiplexed\n\
         connection shares fate — every stream stalls behind each drop, so\n\
         its elapsed-time inflation exceeds HTTP/1.0\u{d7}4's at 2%+ loss in\n\
         the shared-fate tables (the SPDY-era finding, and the gated\n\
         `shared_fate_mux_degrades_more_than_parallel_connections` test);\n\
         and in fleets one connection per client holds server state at ~N\n\
         while matching pipelining's aggregate packet economy.\n\n{}",
        super::fenced(&blocks)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes() {
        let lens = |p: Points| [p.matrix.len(), p.loss.len(), p.fleets.len(), p.probe.len()];
        assert_eq!(lens(points(Size::Full)), [36, 84, 30, 6]);
        assert_eq!(lens(points(Size::Gate)), [6, 12, 0, 2]);
    }

    #[test]
    fn lan_matrix_shows_push_bytes() {
        let cells = run_matrix(&matrix_keys(&[NetEnv::Lan], &[ServerKind::Apache]), None);
        assert_eq!(cells.len(), 6);
        let first_time = |i: usize| cells[2 * i].1;
        let (pipelined_ft, mux_ft, push_ft) = (first_time(0), first_time(1), first_time(2));
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
