//! The fleet/scale matrix: N concurrent clients behind one shared
//! bottleneck against one server.
//!
//! The paper's central argument for HTTP/1.1 is *server* scalability —
//! persistent and pipelined connections cut per-client connection and
//! packet counts so one server carries far more users — but its tables
//! measure a single robot on a private link. This family sweeps
//! N ∈ {1, 4, 16, 64, 256} clients × three protocol setups × the three
//! Table 1 environments, every client fetching the Microscape site
//! first-time through one shared bottleneck, and reports the quantities
//! the single-client tables cannot see: the per-client elapsed-time
//! distribution (p50/p95/p99), Jain's fairness index across clients,
//! the server's peak concurrent connection count, SYN-queue drops at the
//! listen socket, and aggregate packets.
//!
//! The N=1 column doubles as a regression anchor: with one client the
//! fleet topology is host-for-host the single-client matrix topology,
//! and its row must reproduce the unimpaired protocol-matrix numbers
//! exactly.

use super::Size;
use crate::digest;
use crate::env::NetEnv;
use crate::harness::{
    microscape_store, run_cells_map, run_fleet, FleetOutput, FleetSpec, ProtocolSetup,
};
use crate::result::{CellResult, Table};
use httpclient::Workload;
use httpserver::ServerConfig;
use netsim::{SimDuration, TraceMode};

/// Fleet sizes of the matrix.
pub const N_GRID: [usize; 5] = [1, 4, 16, 64, 256];

/// Protocol setups the scale matrix compares (deflate adds nothing to a
/// contention study).
pub const SETUPS: [ProtocolSetup; 3] = [
    ProtocolSetup::Http10,
    ProtocolSetup::Http11,
    ProtocolSetup::Http11Pipelined,
];

/// SYN-queue depth of the fleet server's listen socket. Deep enough that
/// fleets up to 64 clients handshake without loss; the 256-client burst
/// overflows it and must recover by SYN retransmission.
pub const LISTEN_BACKLOG: u32 = 64;

/// One coordinate of the scale matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalePoint {
    /// Network environment of the shared bottleneck.
    pub env: NetEnv,
    /// Protocol setup every client runs.
    pub setup: ProtocolSetup,
    /// Number of concurrent clients.
    pub n_clients: usize,
}

impl ScalePoint {
    /// Bottleneck buffer for this environment: comfortably above one
    /// client's maximum in-flight backlog (a 64 KB receive window), so
    /// the N=1 anchor never drops, while bounding the queue once many
    /// clients contend.
    pub fn buffer_bytes(&self) -> u64 {
        match self.env {
            // Fast links: a generous router buffer.
            NetEnv::Lan | NetEnv::Wan => 256 * 1024,
            // The modem's serial buffer was the scarce resource; keep it
            // above the single-flow window but far below N windows.
            NetEnv::Ppp => 128 * 1024,
        }
    }

    /// The fleet specification for this point.
    pub fn spec(&self) -> FleetSpec {
        let site = webcontent::microscape::site();
        FleetSpec {
            n_clients: self.n_clients,
            env: self.env,
            setup: self.setup,
            server: ServerConfig::apache(80)
                .with_listen_backlog(LISTEN_BACKLOG)
                .with_mux_push(self.setup.push()),
            store: microscape_store(site),
            workload: Workload::Browse {
                start: site.html_path().into(),
            },
            buffer_bytes: Some(self.buffer_bytes()),
            reset_backoff: SimDuration::ZERO,
            tcp: None,
            trace_mode: TraceMode::StatsOnly,
            telemetry: false,
        }
    }

    /// Row label used in reports and digests.
    pub fn label(&self) -> String {
        format!("{} @ N={}", self.setup.label(), self.n_clients)
    }
}

/// The aggregated outcome of one scale cell.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// The coordinate.
    pub point: ScalePoint,
    /// Per-client results, in client order.
    pub per_client: Vec<CellResult>,
    /// Median per-client elapsed time.
    pub p50: f64,
    /// 95th-percentile per-client elapsed time.
    pub p95: f64,
    /// 99th-percentile per-client elapsed time.
    pub p99: f64,
    /// Jain's fairness index over per-client elapsed times.
    pub jain: f64,
    /// Server peak concurrent connections (application-level).
    pub peak_connections: u64,
    /// SYNs dropped at the server's listen queue.
    pub syn_drops: u64,
    /// Aggregate packets across all clients, both directions.
    pub packets: u64,
    /// Aggregate TCP retransmissions across all clients.
    pub retransmits: u64,
    /// Total objects fetched across the fleet.
    pub fetched: u64,
}

/// Nearest-rank percentile (q in 0..=1) of an unsorted sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("comparable elapsed times"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Jain's fairness index (Σx)² / (n·Σx²): 1.0 when every client took the
/// same time, approaching 1/n as one client dominates.
pub fn jain_index(samples: &[f64]) -> f64 {
    let n = samples.len() as f64;
    let sum: f64 = samples.iter().sum();
    let sq: f64 = samples.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n * sq)
}

/// Reduce one fleet run to its scale-cell summary.
pub fn summarize(point: ScalePoint, out: FleetOutput) -> ScaleCell {
    let client_secs: Vec<f64> = out.per_client.iter().map(|c| c.secs).collect();
    ScaleCell {
        point,
        p50: percentile(&client_secs, 0.50),
        p95: percentile(&client_secs, 0.95),
        p99: percentile(&client_secs, 0.99),
        jain: jain_index(&client_secs),
        peak_connections: out.server_stats.peak_connections,
        syn_drops: out.server_sockets.syn_drops,
        packets: out.per_client.iter().map(|c| c.packets()).sum(),
        retransmits: out.per_client.iter().map(|c| c.retransmits).sum(),
        fetched: out.per_client.iter().map(|c| c.fetched).sum(),
        per_client: out.per_client,
    }
}

/// Build a matrix over the given axes, env-major then setup then N.
pub fn grid(envs: &[NetEnv], setups: &[ProtocolSetup], ns: &[usize]) -> Vec<ScalePoint> {
    let mut points = Vec::new();
    for &env in envs {
        for &setup in setups {
            for &n_clients in ns {
                points.push(ScalePoint {
                    env,
                    setup,
                    n_clients,
                });
            }
        }
    }
    points
}

/// The matrix at `size`: 3 environments × 3 setups × 5 fleet sizes
/// (45 cells); for the gate, LAN+WAN × N ∈ {1, 16, 64} (18 cells).
pub fn points(size: Size) -> Vec<ScalePoint> {
    match size {
        Size::Gate => grid(&[NetEnv::Lan, NetEnv::Wan], &SETUPS, &[1, 16, 64]),
        Size::Full => grid(&NetEnv::ALL, &SETUPS, &N_GRID),
    }
}

/// Run a set of scale points. Fleet cells vary wildly in weight (N=256
/// PPP versus N=1 LAN), so they fan out on the same work-stealing pool
/// the cell runner uses, one fleet per worker (`threads` as in
/// [`run_cells_map`]).
pub fn run_points(points: &[ScalePoint], threads: Option<usize>) -> Vec<ScaleCell> {
    run_cells_map(points.to_vec(), threads, |p| {
        summarize(p, run_fleet(p.spec()))
    })
}

/// Render one table per environment present in `cells`, in grid order.
pub fn report(cells: &[ScaleCell]) -> Vec<Table> {
    let mut tables = Vec::new();
    for env in NetEnv::ALL {
        let group: Vec<&ScaleCell> = cells.iter().filter(|c| c.point.env == env).collect();
        if group.is_empty() {
            continue;
        }
        let mut t = Table::new(
            &format!(
                "Scale - Apache - {} shared bottleneck - first-time fleet",
                env.name()
            ),
            &[
                "P50s", "P95s", "P99s", "Jain", "PeakC", "SynDrop", "Pa", "Rexmit",
            ],
        );
        for c in group {
            t.push_row(
                &c.point.label(),
                vec![
                    format!("{:.2}", c.p50),
                    format!("{:.2}", c.p95),
                    format!("{:.2}", c.p99),
                    format!("{:.3}", c.jain),
                    c.peak_connections.to_string(),
                    c.syn_drops.to_string(),
                    c.packets.to_string(),
                    c.retransmits.to_string(),
                ],
            );
        }
        tables.push(t);
    }
    tables
}

/// A stable digest of a rendered scale report — two runs of the same
/// grid must agree bit-for-bit, regardless of thread count.
pub fn report_digest(cells: &[ScaleCell]) -> u64 {
    digest::tables(&report(cells))
}

/// The many-client section of EXPERIMENTS.md: the full fleet grid.
pub(crate) fn section() -> String {
    let cells = run_points(&points(Size::Full), None);
    let tables: String = report(&cells).iter().map(|t| t.render() + "\n").collect();
    format!(
        "## Many-client scale (`repro scale`)\n\n\
         Beyond the paper: the argument for HTTP/1.1 was always *server*\n\
         scalability, but the paper measures one robot on a private link. Here\n\
         N robots share one bottleneck against one Apache (64-deep listen\n\
         queue, bounded link buffer), every client fetching the site first\n\
         time. Columns: per-client elapsed-time percentiles, Jain's fairness\n\
         index over per-client times, the server's peak simultaneous\n\
         connection count, SYNs dropped at the listen queue, and aggregate\n\
         packets/retransmissions. The shape to notice: HTTP/1.0×4's peak\n\
         connection count scales ~4N while persistent and pipelined hold ~N,\n\
         so pipelining carries 256 clients with several times less server\n\
         state — and the 256-client SYN burst is the only place the listen\n\
         queue overflows.\n\n```\n{tables}```\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes() {
        assert_eq!(points(Size::Full).len(), 45);
        assert_eq!(points(Size::Gate).len(), 18);
    }

    #[test]
    #[expect(
        clippy::float_cmp,
        reason = "a percentile picks one of its inputs, so it is exact"
    )]
    fn percentiles_and_jain() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.50), 2.0);
        assert_eq!(percentile(&xs, 0.95), 4.0);
        assert_eq!(percentile(&xs, 0.99), 4.0);
        let even = [2.0, 2.0, 2.0];
        assert!((jain_index(&even) - 1.0).abs() < 1e-12);
        // One dominant client drags Jain toward 1/n.
        let skew = [1.0, 0.0, 0.0, 0.0];
        assert!((jain_index(&skew) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[expect(
        clippy::float_cmp,
        reason = "one client's p50 and p99 are the same sample"
    )]
    fn single_client_lan_fleet_completes() {
        let point = ScalePoint {
            env: NetEnv::Lan,
            setup: ProtocolSetup::Http11Pipelined,
            n_clients: 1,
        };
        let cell = run_points(&[point], None).remove(0);
        assert_eq!(cell.fetched, 43);
        assert_eq!(cell.syn_drops, 0);
        assert!(
            (cell.jain - 1.0).abs() < 1e-12,
            "one client is trivially fair"
        );
        assert_eq!(cell.p50, cell.p99);
    }

    #[test]
    fn contention_slows_the_fleet_but_everyone_finishes() {
        let points = grid(&[NetEnv::Wan], &[ProtocolSetup::Http11Pipelined], &[1, 16]);
        let [base, fleet] = <[ScaleCell; 2]>::try_from(run_points(&points, None)).unwrap();
        assert_eq!(fleet.fetched, 16 * 43, "every client fetched the site");
        assert!(
            fleet.p99 > base.p50,
            "16 clients on one bottleneck must be slower than one ({} vs {})",
            fleet.p99,
            base.p50
        );
    }
}
