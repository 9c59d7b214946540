//! What reading a finished trace costs the allocator, and what the flight
//! recorders cost to fill it, pinned as the `check_alloc` group of the
//! count table (`count_table/mod.rs`):
//!
//! * `check …`: the conformance checker over the traces of the cells
//!   `body_alloc` counts. It holds the streams it reassembles as views of
//!   the captured payloads, so a 1 MiB body costs it its share of the
//!   records the replay keeps per packet and, on a multiplexed
//!   connection, of a chunk reference per segment: frame headers
//!   interleave with the body there, so segments are gathered copies
//!   that never rejoin into one view;
//! * `fleet10 …`: a 16-client LAN HTTP/1.0 fleet, bare, with the
//!   telemetry sink, and with the full trace, whose retained bytes are
//!   whole blocks of records;
//! * `check fleet10`: the checker over that trace, replaying one
//!   connection at a time, so its live heap is bounded by the largest
//!   connection, not the trace;
//! * `pcapng fleet10`: the exporter, one allocation of exactly the
//!   capture's size.
//!
//! One test, so nothing else in the process allocates while a row is
//! counted.

#[path = "count_table/body_cells.rs"]
mod body_cells;
mod count_table;

use conformance::{check_trace, CheckConfig, Report};
use count_table::{measure, Cost, Measured};
use counting_alloc::CountingAlloc;
use httpipe_core::experiments::scale;
use httpipe_core::harness::{check_config_for, run_fleet, FleetOutput};
use httpipe_core::prelude::*;
use netsim::trace::RECORDS_PER_BLOCK;
use netsim::{HostId, TcpConfig, Trace, TraceMode, TraceRecord};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Records a finished trace holds, dropped packets included.
fn records(trace: &Trace) -> u64 {
    (trace.records().len() + trace.drop_records().len()) as u64
}

/// Check `trace`, count it as `name` and require a clean report.
fn check(table: &mut Measured, name: &str, trace: &Trace, cfg: &CheckConfig) -> Report {
    let (report, cost) = measure(
        || (),
        |()| check_trace(trace.records(), trace.drop_records(), cfg),
    );
    assert!(report.is_clean(), "{name}: {}", report.summary());
    table.row(name, records(trace), cost);
    report
}

#[test]
fn the_checkers_read_the_trace_where_it_lies() {
    let mut table = Measured::new("check_alloc");
    for (label, spec, _) in body_cells::cells() {
        let cfg = check_config_for(&spec());
        let out = run_spec(spec());
        check(&mut table, &format!("check {label}"), out.sim.trace(), &cfg);
    }

    let point = scale::grid(&[NetEnv::Lan], &[ProtocolSetup::Http10], &[16]).remove(0);
    let fleet = |trace_mode, telemetry| -> (u64, FleetOutput, Cost) {
        let (out, cost) = measure(
            || {
                let mut spec = point.spec();
                spec.trace_mode = trace_mode;
                spec.telemetry = telemetry;
                spec
            },
            run_fleet,
        );
        let packets = out.per_client.iter().map(CellResult::packets).sum();
        (packets, out, cost)
    };
    let (packets, _, bare) = fleet(TraceMode::StatsOnly, false);
    let bare_bytes = bare.bytes;
    table.row("fleet10", packets, bare);
    let (packets, _, cost) = fleet(TraceMode::StatsOnly, true);
    table.row("fleet10 sink", packets, cost);
    let (packets, out, cost) = fleet(TraceMode::Full, false);
    let retained = cost.bytes - bare_bytes;
    table.row("fleet10 trace", packets, cost);
    let trace = out.sim.trace();
    let spec = point.spec();
    let client = ClientConfig::robot(spec.setup.mode(), SockAddr::new(HostId(0), 80));
    let cfg = CheckConfig {
        tcp: TcpConfig::default(),
        client_nodelay: client.nodelay,
        server_nodelay: spec.server.nodelay,
        server_port: spec.server.port,
        http: true,
    };
    let report = check(&mut table, "check fleet10", trace, &cfg);
    assert_eq!(report.connections, 16 * 43, "one connection per request");
    let (capture, cost) = measure(|| (), |()| netsim::pcapng::export_trace(trace));
    let capture = capture.expect("a full trace");
    assert_eq!(capture.capacity(), capture.len());
    table.row("pcapng fleet10", records(trace), cost);
    table.verify();

    // The trace keeps its records in whole blocks, the first of 32 and
    // the rest of 256, plus the block list's doublings (4 + 8 + … + 64
    // pointers of 24 B: 2 976 B).
    let kept = trace.records().len();
    let first = RECORDS_PER_BLOCK / 8;
    let slots = first + (kept - first).div_ceil(RECORDS_PER_BLOCK) * RECORDS_PER_BLOCK;
    assert_eq!(
        retained,
        (slots * size_of::<TraceRecord>()) as u64 + 2_976,
        "bytes the trace retains for {kept} records"
    );
}
