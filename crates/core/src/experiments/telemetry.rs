//! The fleet observatory: render telemetry time-series as ASCII
//! sparkline timelines, and package the deterministic smoke artifacts
//! (JSON, CSV, pcapng) the `telemetry` gate compares byte-for-byte.
//!
//! Two scenes anchor the report:
//!
//! * **SYN burst** — the scale family's N=256 HTTP/1.0 LAN fleet slams
//!   a 64-entry listen backlog; the timeline shows the server's accept
//!   curve, the SYN-drop counter climbing during the burst, and the
//!   bottleneck queue draining.
//! * **RTO stall** — the robustness family's WAN pipelined 2%-loss cell
//!   run per congestion-control variant; cwnd timelines make the
//!   difference visible that the elapsed-time tables only imply (Reno's
//!   collapse vs NewReno/SACK riding through), and the same run exports
//!   a pcapng capture Wireshark opens directly.
//!
//! All rendering is integer arithmetic over the sink's tick/point data,
//! so the report is deterministic byte-for-byte.

use crate::env::NetEnv;
use crate::harness::{run_fleet, run_spec, ProtocolSetup, Scenario};
use crate::result::Table;
use netsim::telemetry::{Point, Points, SeriesData, TelemetrySink};
use netsim::{CcVariant, HostId, Metric, Scope};
use std::path::{Path, PathBuf};

use super::robustness::{LossShape, RobustnessPoint};
use super::scale::ScalePoint;

/// Timeline width in columns.
pub const COLS: usize = 64;

const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render values as a Unicode block sparkline, scaled against the
/// maximum with integer arithmetic (`level = v·7 / max`).
pub fn sparkline(values: &[u64]) -> String {
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| BLOCKS[(v * 7).checked_div(max).unwrap_or(0) as usize])
        .collect()
}

/// Resample a gauge's sample-and-hold points, in tick order, onto `cols`
/// columns covering ticks `0..ticks`: each column shows the gauge's value
/// at the end of its tick range (0 before the first point).
pub fn resample_gauge(
    points: impl IntoIterator<Item = Point>,
    ticks: u64,
    cols: usize,
) -> Vec<u64> {
    let ticks = ticks.max(1);
    let mut points = points.into_iter().peekable();
    let mut held = 0;
    (0..cols)
        .map(|c| {
            // End tick of this column, exclusive.
            let end = (c as u64 + 1) * ticks / cols as u64;
            while let Some(p) = points.next_if(|p| p.tick < end) {
                held = p.value;
            }
            held
        })
        .collect()
}

/// Resample a counter's cumulative points onto `cols` columns as
/// per-column increments (a rate view of the counter).
pub fn resample_counter(
    points: impl IntoIterator<Item = Point>,
    ticks: u64,
    cols: usize,
) -> Vec<u64> {
    let totals = resample_gauge(points, ticks, cols);
    let mut out = Vec::with_capacity(cols);
    let mut prev = 0;
    for t in totals {
        out.push(t - prev);
        prev = t;
    }
    out
}

/// Highest tick index recorded in any time series of the sink.
pub fn last_tick(sink: &TelemetrySink) -> u64 {
    sink.series()
        .iter()
        .flat_map(|s| s.data.points().last())
        .map(|p| p.tick)
        .max()
        .unwrap_or(0)
}

fn timeline_row(out: &mut String, label: &str, values: &[u64], unit: &str) {
    let max = values.iter().copied().max().unwrap_or(0);
    out.push_str(&format!(
        "  {label:<26} {}  peak {max}{unit}\n",
        sparkline(values)
    ));
}

fn gauge_points(sink: &TelemetrySink, scope: Scope, metric: Metric) -> Points<'_> {
    sink.get(scope, metric)
        .map_or_else(Points::default, SeriesData::points)
}

/// The SYN-burst scene: N clients slam the server's bounded listen
/// backlog. Returns the rendered timeline block.
pub fn syn_burst_timeline(n_clients: usize) -> String {
    let point = ScalePoint {
        env: NetEnv::Lan,
        setup: ProtocolSetup::Http10,
        n_clients,
    };
    let mut spec = point.spec();
    spec.telemetry = true;
    let out = run_fleet(spec);
    let sink = out.sim.telemetry();
    let server = out.server_host;
    let ticks = last_tick(sink) + 1;
    let tick_ms = netsim::telemetry::DEFAULT_TICK.as_nanos() / 1_000_000;

    let mut s = String::new();
    s.push_str(&format!(
        "--- SYN burst: {} HTTP/1.0 clients vs listen backlog {} (LAN, {} ticks x {} ms) ---\n",
        n_clients,
        super::scale::LISTEN_BACKLOG,
        ticks,
        tick_ms,
    ));
    timeline_row(
        &mut s,
        "server connections",
        &resample_gauge(
            gauge_points(sink, Scope::Host(server), Metric::ServerConnections),
            ticks,
            COLS,
        ),
        "",
    );
    timeline_row(
        &mut s,
        "syn drops (per col)",
        &resample_counter(
            gauge_points(sink, Scope::Host(server), Metric::SynDrops),
            ticks,
            COLS,
        ),
        "",
    );
    // The shared bottleneck is kernel link 0; spokes sit on the `a`
    // side, so a>b is client->server (the SYN direction) and b>a the
    // response direction.
    for (dir, a_to_b) in [("queue c->s bytes", true), ("queue s->c bytes", false)] {
        timeline_row(
            &mut s,
            dir,
            &resample_gauge(
                gauge_points(sink, Scope::Link { link: 0, a_to_b }, Metric::QueueBytes),
                ticks,
                COLS,
            ),
            "B",
        );
    }
    timeline_row(
        &mut s,
        "server buffered bytes",
        &resample_gauge(
            gauge_points(sink, Scope::Host(server), Metric::ServerBufferedBytes),
            ticks,
            COLS,
        ),
        "B",
    );
    let total_syn_drops = out.server_sockets.syn_drops;
    s.push_str(&format!("  total SYN drops: {total_syn_drops}\n"));
    s
}

/// The congestion-control variants the RTO-stall scene compares.
pub const RTO_VARIANTS: [CcVariant; 3] = [CcVariant::Reno, CcVariant::NewReno, CcVariant::Sack];

/// The RTO-stall coordinate: WAN pipelined first fetch at 2% uniform
/// loss (the robustness family's head-of-line-blocking showcase).
pub fn rto_point(cc: CcVariant) -> RobustnessPoint {
    RobustnessPoint {
        env: NetEnv::Wan,
        setup: ProtocolSetup::Http11Pipelined,
        scenario: Scenario::FirstTime,
        loss_pct: 2.0,
        shape: LossShape::Uniform,
        cc,
    }
}

/// First connection of `host` carrying the given per-connection metric,
/// in key order.
fn first_conn_points(sink: &TelemetrySink, host: HostId, metric: Metric) -> Points<'_> {
    sink.series()
        .iter()
        .find(|s| {
            s.key.metric == metric
                && matches!(s.key.scope, Scope::Conn { host: h, .. } if h == host)
        })
        .map_or_else(Points::default, |s| s.data.points())
}

/// The RTO-stall scene: one cwnd timeline per congestion-control
/// variant over the identical loss draw sequence, plus recovery-episode
/// counts. Returns the rendered block.
pub fn rto_stall_timeline() -> String {
    let mut s = String::new();
    s.push_str("--- RTO stall: WAN pipelined @ 2.0% uniform loss, client cwnd by CC variant ---\n");
    for cc in RTO_VARIANTS {
        let mut spec = rto_point(cc).spec();
        spec.telemetry = true;
        let out = run_spec(spec);
        let sink = out.sim.telemetry();
        let ticks = last_tick(sink) + 1;
        let cwnd = resample_gauge(
            first_conn_points(sink, out.client_host, Metric::Cwnd),
            ticks,
            COLS,
        );
        let recoveries = sink
            .get(Scope::Global, Metric::CcRecoveries(cc))
            .map_or(0, |d| match d {
                SeriesData::Counter { total, .. } => total,
                _ => 0,
            });
        let max = cwnd.iter().copied().max().unwrap_or(0);
        s.push_str(&format!(
            "  cwnd {:<8} {}  peak {}B, {} recoveries, {:.2}s\n",
            cc.label(),
            sparkline(&cwnd),
            max,
            recoveries,
            out.cell.secs,
        ));
    }
    s
}

/// The full observatory report for EXPERIMENTS.md.
pub fn report(n_clients: usize) -> String {
    let mut s = String::new();
    s.push_str(&syn_burst_timeline(n_clients));
    s.push('\n');
    s.push_str(&rto_stall_timeline());
    s
}

/// A summary table of telemetry volume for a handful of representative
/// cells — demonstrates the `CellResult` roll-up.
pub fn volume_table() -> Table {
    let mut t = Table::new(
        "Telemetry volume (series / points / histogram samples)",
        &["Series", "Points", "HistSamples"],
    );
    for cc in RTO_VARIANTS {
        let mut spec = rto_point(cc).spec();
        spec.telemetry = true;
        let out = run_spec(spec);
        let sum = out.cell.telemetry.expect("telemetry enabled");
        t.push_row(
            &format!("WAN pipelined 2% [{}]", cc.label()),
            vec![
                sum.series.to_string(),
                sum.points.to_string(),
                sum.hist_samples.to_string(),
            ],
        );
    }
    t
}

/// The deterministic artifacts the `telemetry` gate compares with its
/// goldens: JSON and pcapng from a single WAN loss cell, CSV from a small
/// fleet.
pub struct SmokeArtifacts {
    /// Telemetry series of the WAN cell, rendered as JSON.
    pub json: String,
    /// Telemetry series of the N=8 LAN fleet, rendered as CSV.
    pub csv: String,
    /// pcapng capture of the WAN cell.
    pub pcapng: Vec<u8>,
}

impl SmokeArtifacts {
    /// Golden file name and bytes of each artifact, in digest order.
    pub fn files(&self) -> [(&'static str, &[u8]); 3] {
        [
            ("smoke.json", self.json.as_bytes()),
            ("smoke.csv", self.csv.as_bytes()),
            ("smoke.pcapng", &self.pcapng),
        ]
    }
}

/// Where the committed goldens of [`smoke_artifacts`] live: the gate
/// reads them, `repro bless` rewrites them.
pub fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/goldens/telemetry")
}

/// Produce the smoke artifacts (reduced grid: one cell + one small
/// fleet). Two invocations must agree byte-for-byte.
pub fn smoke_artifacts() -> SmokeArtifacts {
    let mut spec = rto_point(CcVariant::NewReno).spec();
    spec.telemetry = true;
    spec.trace_mode = netsim::TraceMode::Full;
    let cell = run_spec(spec);
    let json = cell
        .sim
        .telemetry()
        .render_json("wan-pipelined-2.0-newreno");
    let pcapng = netsim::pcapng::export_trace(cell.sim.trace()).expect("full trace");

    // Pipelined clients keep one connection each, so the CSV golden
    // stays small while still covering fleet/link/server series.
    let mut fleet_spec = ScalePoint {
        env: NetEnv::Lan,
        setup: ProtocolSetup::Http11Pipelined,
        n_clients: 8,
    }
    .spec();
    fleet_spec.telemetry = true;
    let fleet = run_fleet(fleet_spec);
    let csv = fleet.sim.telemetry().render_csv();

    SmokeArtifacts { json, csv, pcapng }
}

/// The fleet-observatory section of EXPERIMENTS.md: the N=256 scenes and
/// the telemetry volume table.
pub(crate) fn section() -> String {
    format!(
        "## Fleet observatory (`repro telemetry`)\n\n\
         Beyond the paper: the tables above are endpoints \u{2014} one number per\n\
         run. The telemetry subsystem records how those numbers came to be:\n\
         per-connection cwnd/ssthresh/flight/RTO, per-link-direction queue\n\
         depth and drops by reason, and server accept/backlog/memory gauges,\n\
         all sampled on 10 ms sim-time ticks into deterministic integer\n\
         series (zero overhead and bit-identical results when disabled \u{2014}\n\
         differential-tested). Timelines are rendered below as sparklines,\n\
         each column one slice of the run. The first scene replays the scale\n\
         family's listen-backlog overflow: 256 HTTP/1.0 clients connect at\n\
         once, the accept curve saturates, SYN drops burst, the bottleneck\n\
         queue drains. The second replays the congestion-control story: the\n\
         same 2%-loss WAN pipelined cell per variant, where Reno's cwnd\n\
         collapses into RTO stalls that NewReno/SACK ride through. The same\n\
         runs export pcapng (`repro capture` writes `TELEMETRY_*.json/csv/\n\
         pcapng`), so any simulated connection opens in Wireshark/tcptrace\n\
         with real checksums, RFC 2018 SACK options and nanosecond\n\
         timestamps.\n\n{}\n\
         `gate`'s `telemetry` entry renders the reduced scene twice and\n\
         byte-compares JSON/CSV/pcapng across passes and against the goldens\n\
         committed under `crates/bench/goldens/telemetry/`.\n",
        super::fenced(&[report(256), volume_table().render()])
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_by_integer_levels() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        assert_eq!(sparkline(&[0, 7, 14]), "▁▄█");
        assert_eq!(sparkline(&[1, 1]), "██");
    }

    #[test]
    fn resample_holds_and_carries_gauge_values() {
        let points = [Point { tick: 0, value: 5 }, Point { tick: 10, value: 9 }];
        // 20 ticks over 4 columns: boundaries at tick 5, 10, 15, 20.
        assert_eq!(resample_gauge(points, 20, 4), vec![5, 5, 9, 9]);
        // Before any point: zero.
        let late = [Point { tick: 15, value: 3 }];
        assert_eq!(resample_gauge(late, 20, 4), vec![0, 0, 0, 3]);
    }

    #[test]
    fn resample_counter_yields_increments() {
        let points = [Point { tick: 0, value: 2 }, Point { tick: 12, value: 7 }];
        assert_eq!(resample_counter(points, 16, 4), vec![2, 0, 0, 5]);
    }

    #[test]
    fn rto_cell_records_conn_series_and_exports_pcap() {
        let mut spec = rto_point(CcVariant::Reno).spec();
        spec.telemetry = true;
        spec.trace_mode = netsim::TraceMode::Full;
        let out = run_spec(spec);
        let sink = out.sim.telemetry();
        assert!(!first_conn_points(sink, out.client_host, Metric::Cwnd).is_empty());
        assert!(out.cell.telemetry.expect("summary").series > 0);
        let pcap = netsim::pcapng::export_trace(out.sim.trace()).expect("full trace");
        let packets = netsim::pcapng::parse(&pcap).expect("round trip");
        assert_eq!(packets.len(), out.sim.trace().records().len());
    }

    #[test]
    fn smoke_artifacts_are_deterministic() {
        let a = smoke_artifacts();
        let b = smoke_artifacts();
        assert_eq!(a.json, b.json);
        assert_eq!(a.csv, b.csv);
        assert_eq!(a.pcapng, b.pcapng);
        assert!(a.json.contains("\"metric\": \"cwnd_bytes\""));
        assert!(a.csv.contains("syn") || a.csv.contains("server_connections"));
        assert!(!a.pcapng.is_empty());
    }
}
