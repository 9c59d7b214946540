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

use super::Size;
use crate::digest::Fnv1a;
use crate::env::NetEnv;
use crate::harness::{matrix_spec, run_cells_map, run_spec, ProtocolSetup, Scenario};
use crate::result::{CellResult, Table};
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
    /// The run's measurements (its `probe` is the analysis's report).
    pub cell: CellResult,
    /// The full stall attribution.
    pub analysis: ProbeAnalysis,
}

/// Build a first-time retrieval grid over the given axes, env-major.
pub fn grid(envs: &[NetEnv], setups: &[ProtocolSetup]) -> Vec<ProbePoint> {
    let scenario = Scenario::FirstTime;
    envs.iter()
        .flat_map(|&env| setups.iter().map(move |&setup| (env, setup)))
        .map(|(env, setup)| ProbePoint {
            env,
            setup,
            scenario,
        })
        .collect()
}

/// The grid at `size`: {LAN, WAN, PPP} × {HTTP/1.0×4, persistent,
/// pipelined}, first-time retrieval (9 cells); for the gate, LAN only
/// (3 cells).
pub fn points(size: Size) -> Vec<ProbePoint> {
    match size {
        Size::Gate => grid(&[NetEnv::Lan], &SETUPS),
        Size::Full => grid(&NetEnv::ALL, &SETUPS),
    }
}

/// Run a set of probe points on the work-stealing cell pool (`threads`
/// as in [`run_cells_map`]).
pub fn run_points(points: &[ProbePoint], threads: Option<usize>) -> Vec<ProbeCell> {
    let specs = points.iter().map(|p| p.spec()).collect();
    let outputs = run_cells_map(specs, threads, |spec| {
        let out = run_spec(spec);
        (out.cell, out.probe.expect("probe was enabled"))
    });
    points
        .iter()
        .zip(outputs)
        .map(|(&point, (cell, analysis))| ProbeCell {
            point,
            cell,
            analysis,
        })
        .collect()
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
                format!("{:.2}", c.cell.secs),
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

/// The stall-attribution section of EXPERIMENTS.md: the canonical grid.
pub(crate) fn section() -> String {
    let cells = run_points(&points(Size::Full), None);
    format!(
        "## Where the time goes (`repro probe`)\n\n\
         Beyond the paper: the elapsed-time columns above, decomposed by cause.\n\
         The paper explained its timings by hand from tcpdump output; the\n\
         `netsim::probe` flight recorder automates that analysis, attributing\n\
         every wall-clock nanosecond of a run to exactly one of nine causes —\n\
         connection setup, slow-start/RTT waits, Nagle holds, delayed-ACK\n\
         waits, RTO recovery, receiver-window backpressure, server think time,\n\
         wire serialization, or idle — so the buckets sum to the elapsed time\n\
         (`Sum` = `Sec` on every row). The shape to notice: the WAN rows are\n\
         dominated by connection setup + slow start (exactly the paper's case\n\
         for persistence and pipelining), while PPP is wire-serialization\n\
         bound, which is why compression is the only lever that helps there.\n\
         The PPP HTTP/1.0 row also books real RTO time: four parallel\n\
         connections push the modem's queueing delay past the 3 s initial\n\
         RTO, a spurious-retransmission regime the single-connection setups\n\
         never enter (one more reason the paper dropped that row).\n\
         Full per-request timelines and machine-readable `PROBE_*.json`\n\
         documents come from `repro diagnose`.\n\n{}",
        super::fenced(&[report(&cells).render()])
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes_and_ids() {
        let grid = points(Size::Full);
        assert_eq!(grid.len(), 9);
        assert_eq!(points(Size::Gate).len(), 3);
        assert_eq!(grid[0].id(), "lan_http10x4_first");
        let ids: std::collections::BTreeSet<String> = grid.iter().map(|p| p.id()).collect();
        assert_eq!(ids.len(), 9, "ids are unique");
    }

    #[test]
    fn lan_pipelined_buckets_sum_to_elapsed() {
        let point = ProbePoint {
            env: NetEnv::Lan,
            setup: ProtocolSetup::Http11Pipelined,
            scenario: Scenario::FirstTime,
        };
        let cell = run_points(&[point], None).remove(0);
        let (sum, secs) = (cell.analysis.report.buckets.sum(), cell.cell.secs);
        assert!(
            (sum - secs).abs() <= secs * 0.01,
            "buckets {sum} vs elapsed {secs}"
        );
        assert!(cell.analysis.report.connections >= 1);
        assert_eq!(cell.analysis.report.requests, 43);
    }

    #[test]
    fn report_has_one_row_per_cell() {
        let cells = run_points(&points(Size::Gate), None);
        let t = report(&cells);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.columns.len(), 11);
    }
}
