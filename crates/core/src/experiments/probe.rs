//! "Where the time goes": the flight-recorder stall decomposition over
//! the canonical protocol-matrix cells.
//!
//! The paper explains its elapsed-time tables mechanistically — slow
//! start here, a delayed-ACK interaction there, a Nagle stall in the
//! untuned pipeline — but every explanation came from a human reading
//! tcpdump output. This family re-runs the canonical cells with the
//! [`netsim::probe`] flight recorder enabled and reports the automatic
//! [`netsim::StallBuckets`] decomposition: nine disjoint causes that sum
//! to the measured elapsed time, plus the typed [`netsim::Diagnosis`]
//! pathologies.

use crate::digest::Fnv1a;
use crate::env::NetEnv;
use crate::harness::{matrix_spec, run_cells_map, run_spec, ProtocolSetup, Scenario};
use crate::result::Table;
use httpserver::ServerKind;
use netsim::ProbeAnalysis;

/// Protocol setups the stall study decomposes (deflate changes byte
/// counts, not stall mechanics).
pub const SETUPS: [ProtocolSetup; 3] = [
    ProtocolSetup::Http10,
    ProtocolSetup::Http11,
    ProtocolSetup::Http11Pipelined,
];

/// One coordinate of the stall study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbePoint {
    /// Network environment.
    pub env: NetEnv,
    /// Protocol setup.
    pub setup: ProtocolSetup,
    /// Client scenario.
    pub scenario: Scenario,
}

impl ProbePoint {
    /// Stable identifier used in row labels and `PROBE_*.json` names.
    pub fn id(&self) -> String {
        let setup = match self.setup {
            ProtocolSetup::Http10 => "http10x4",
            ProtocolSetup::Http11 => "persistent",
            ProtocolSetup::Http11Pipelined => "pipelined",
            ProtocolSetup::Http11PipelinedDeflate => "pipelined_deflate",
            ProtocolSetup::Multiplexed => "mux",
            ProtocolSetup::MultiplexedPush => "mux_push",
        };
        let scenario = match self.scenario {
            Scenario::FirstTime => "first",
            Scenario::Revalidate => "reval",
        };
        format!("{}_{setup}_{scenario}", self.env.name().to_lowercase())
    }

    /// Row label used in the report table.
    pub fn label(&self) -> String {
        format!("{} {}", self.env.name(), self.setup.label())
    }

    /// The cell specification: the standard Apache protocol-matrix cell
    /// with the flight recorder switched on.
    pub fn spec(&self) -> crate::harness::CellSpec {
        let mut spec = matrix_spec(self.env, ServerKind::Apache, self.setup, self.scenario);
        spec.probe = true;
        spec
    }
}

/// One analysed cell: the coordinate plus the full attribution.
#[derive(Debug, Clone)]
pub struct ProbeCell {
    /// The coordinate.
    pub point: ProbePoint,
    /// Elapsed seconds of the run (trace-derived, same as `CellResult::secs`).
    pub secs: f64,
    /// The full stall attribution.
    pub analysis: ProbeAnalysis,
}

/// The canonical grid: {LAN, WAN, PPP} × {HTTP/1.0×4, persistent,
/// pipelined}, first-time retrieval (9 cells).
pub fn canonical_grid() -> Vec<ProbePoint> {
    let mut points = Vec::new();
    for env in NetEnv::ALL {
        for setup in SETUPS {
            points.push(ProbePoint {
                env,
                setup,
                scenario: Scenario::FirstTime,
            });
        }
    }
    points
}

/// A reduced LAN-only grid for the `probe` gate (3 cells).
pub fn reduced_grid() -> Vec<ProbePoint> {
    canonical_grid()
        .into_iter()
        .filter(|p| p.env == NetEnv::Lan)
        .collect()
}

/// Run a set of probe points on the work-stealing cell pool.
pub fn run_points(points: &[ProbePoint]) -> Vec<ProbeCell> {
    run_points_threaded(points, None)
}

/// [`run_points`] with an explicit thread count (`None` = automatic;
/// the determinism tests compare serial and parallel output).
pub fn run_points_threaded(points: &[ProbePoint], threads: Option<usize>) -> Vec<ProbeCell> {
    let specs = points.iter().map(|p| p.spec()).collect();
    let outputs = run_cells_map(specs, threads, |spec| {
        let out = run_spec(spec);
        (out.cell.secs, out.probe.expect("probe was enabled"))
    });
    points
        .iter()
        .zip(outputs)
        .map(|(&point, (secs, analysis))| ProbeCell {
            point,
            secs,
            analysis,
        })
        .collect()
}

/// Run one probe point.
pub fn run_point(point: ProbePoint) -> ProbeCell {
    run_points(&[point]).remove(0)
}

/// Render the "where the time goes" table: one row per cell, one column
/// per stall bucket, plus the bucket sum and the measured elapsed time.
pub fn report(cells: &[ProbeCell]) -> Table {
    let mut t = Table::new(
        "Where the time goes - Apache - first-time retrieval (secs)",
        &[
            "Conn", "SlowSt", "Nagle", "DelAck", "RTO", "RecvW", "Server", "Wire", "Idle", "Sum",
            "Sec",
        ],
    );
    for c in cells {
        let b = &c.analysis.report.buckets;
        t.push_row(
            &c.point.label(),
            vec![
                format!("{:.2}", b.connection_setup),
                format!("{:.2}", b.slow_start),
                format!("{:.2}", b.nagle_hold),
                format!("{:.2}", b.delayed_ack_wait),
                format!("{:.2}", b.rto_recovery),
                format!("{:.2}", b.recv_window),
                format!("{:.2}", b.server_think),
                format!("{:.2}", b.serialization),
                format!("{:.2}", b.idle),
                format!("{:.2}", b.sum()),
                format!("{:.2}", c.secs),
            ],
        );
    }
    t
}

/// A stable digest over the rendered report table *and* every cell's
/// `PROBE_*.json` document — two runs of the same grid must agree
/// bit-for-bit, regardless of thread count.
pub fn report_digest(cells: &[ProbeCell]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(report(cells).render().as_bytes());
    for c in cells {
        h.write(c.analysis.render_json(&c.point.id()).as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes_and_ids() {
        let grid = canonical_grid();
        assert_eq!(grid.len(), 9);
        assert_eq!(reduced_grid().len(), 3);
        assert_eq!(grid[0].id(), "lan_http10x4_first");
        let ids: std::collections::BTreeSet<String> = grid.iter().map(|p| p.id()).collect();
        assert_eq!(ids.len(), 9, "ids are unique");
    }

    #[test]
    fn lan_pipelined_buckets_sum_to_elapsed() {
        let cell = run_point(ProbePoint {
            env: NetEnv::Lan,
            setup: ProtocolSetup::Http11Pipelined,
            scenario: Scenario::FirstTime,
        });
        let sum = cell.analysis.report.buckets.sum();
        assert!(
            (sum - cell.secs).abs() <= cell.secs * 0.01,
            "buckets {sum} vs elapsed {}",
            cell.secs
        );
        assert!(cell.analysis.report.connections >= 1);
        assert_eq!(cell.analysis.report.requests, 43);
    }

    #[test]
    fn report_has_one_row_per_cell() {
        let cells = run_points(&reduced_grid());
        let t = report(&cells);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.columns.len(), 11);
    }
}
