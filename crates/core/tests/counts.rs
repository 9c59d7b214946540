//! Every exact count the workspace pins on the allocator, measured against
//! the count table (`count_table/mod.rs`). One test measures the table's
//! groups in table order, each on a fresh thread, so every group starts
//! with empty thread-local buffer pools and nothing else in the process
//! allocates while a row is counted. A defect that costs one allocation
//! per packet, per message or per object moves a row by thousands, and
//! one that copies a body moves its bytes.

mod count_table;

use bytes::{Bytes, BytesMut};
use conformance::{check_trace, CheckConfig, Report};
use count_table::{measure, Cost, Measured};
use counting_alloc::CountingAlloc;
use httpipe_core::experiments::{cc, protocol_matrix, scale, Size};
use httpipe_core::harness::{check_config_for, run_cells_threaded, run_fleet, FleetOutput};
use httpipe_core::prelude::*;
use httpmux::{MuxConn, MuxEvent};
use httpwire::{Method, Request, RequestParser, Response, ResponseParser, StatusCode, Version};
use netsim::trace::RECORDS_PER_BLOCK;
use netsim::{HostId, TcpConfig, Trace, TraceMode, TraceRecord};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn every_count_matches_the_table() {
    let groups: [fn() -> Measured; 5] = [alloc_budget, counts, head_alloc, body_alloc, check_alloc];
    let measured: Vec<Measured> = groups
        .into_iter()
        .map(|group| {
            std::thread::spawn(group)
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
        .collect();
    count_table::verify(&measured);
}

/// Packets a set of cells carried.
fn packets(cells: &[CellResult]) -> u64 {
    cells.iter().map(CellResult::packets).sum()
}

/// What a message costs: a head is one buffer from the buffer pool
/// however many fields it has, it goes back there when the message drops,
/// and an engine writes it into a buffer it already owns. The rows are
/// measured while the buffer pools hold only what they return.
fn alloc_budget() -> Measured {
    let mut table = Measured::new("alloc_budget");
    // The response round trip costs its wire image (handed out as a
    // `Vec`, so it leaves the pool), the parser's expectation queue and
    // the handle of the copy `feed` takes; a request is built in a pooled
    // buffer and written into a buffer the connection owns, and parsed
    // from the bytes as received.
    let resp = gif_response();
    let (headers, cost) = measure(
        || (),
        |()| {
            let wire = resp.to_bytes();
            let mut parser = ResponseParser::new();
            parser.expect(Method::Get);
            parser.feed(&wire);
            parser
                .next()
                .expect("parses")
                .expect("complete")
                .headers
                .len()
        },
    );
    assert_eq!(headers, 6);
    table.row("wire round trip", 0, cost);
    let mut conn = BytesMut::new();
    let ((), cost) = measure(
        || (),
        |()| {
            conn.clear();
            robot_request().write_to(&mut conn);
        },
    );
    table.row("wire build", 0, cost);
    let (_, cost) = measure(|| (), |()| robot_request().to_bytes());
    table.row("wire to_bytes", 0, cost);
    let mut parser = RequestParser::new();
    let received = Bytes::copy_from_slice(&conn);
    let (target, cost) = measure(
        || received.clone(),
        |bytes| {
            parser.push(bytes);
            let req = parser.next().expect("parses").expect("complete");
            req.target().len()
        },
    );
    assert_eq!(target, "/images/banner.gif".len());
    table.row("wire parse", 0, cost);
    // The written bytes of a hand-off are sealed once however many DATA
    // frames they head, a DATA payload arrives as a view of what was
    // handed over, and a field block's map is pooled.
    let body = vec![0xC3u8; 8 * 1024];
    let (delivered, cost) = measure(|| (), |()| mux_exchange(64, &body));
    assert_eq!(delivered, 64 * body.len());
    table.row("mux 64 streams", 0, cost);
    table
}

/// The six-header response the ledger's `httpwire.allocs_per_message`
/// round-trips.
fn gif_response() -> Response {
    Response::new(Version::Http11, StatusCode::OK)
        .with_header("Date", "Mon, 27 Oct 1997 12:00:00 GMT")
        .with_header("Server", "Jigsaw/1.0beta2")
        .with_header("Content-Type", "image/gif")
        .with_header("ETag", "\"697-1761566400\"")
        .with_header("Last-Modified", "Fri, 24 Oct 1997 12:00:00 GMT")
        .with_header("Content-Length", 697)
        .with_body(vec![0u8; 697])
}

fn robot_request() -> Request {
    let host = "microscape.example";
    RequestStyle::Robot.request(Method::Get, "/images/banner.gif", Version::Http11, host)
}

/// Everything `from` has queued for the wire, handed to `to` chunk by
/// chunk and by reference, as a socket would deliver it.
fn shuttle(from: &mut MuxConn, to: &mut MuxConn) {
    let wire = from.outgoing();
    while !wire.is_empty() {
        let chunk = wire.slice(0, wire.chunk().len());
        wire.advance(chunk.len());
        to.push(chunk);
    }
}

/// `streams` requests answered with `body` bytes each, between two
/// engines, until both are idle; returns the body bytes delivered.
fn mux_exchange(streams: u32, body: &[u8]) -> usize {
    let req = Request::new(Method::Get, "/x", Version::Http11);
    let resp = Response::new(Version::Http11, StatusCode::OK);
    let mut client = MuxConn::client(false);
    let mut server = MuxConn::server();
    for _ in 0..streams {
        client.open_stream(&req, true);
    }
    let (mut answered, mut delivered) = (0, 0);
    while answered < streams || !(client.idle() && server.idle()) {
        shuttle(&mut client, &mut server);
        while let Some(event) = server.poll_event() {
            if let MuxEvent::Headers { stream, .. } = event {
                server.send_headers(stream, &resp, false);
                server.send_data(stream, body, true);
                answered += 1;
            }
        }
        shuttle(&mut server, &mut client);
        while let Some(event) = client.poll_event() {
            if let MuxEvent::Data { data, .. } = event {
                delivered += data.len();
            }
        }
    }
    delivered
}

/// What the simulated runs the gate digests cost: the 44 cells of Tables
/// 4–9, stats-only and serial; two 16-client WAN fleets, pipelined and
/// multiplexed; and the congestion-control lab's 24 cells, half of them
/// at 2 % loss, serial, so every variant's recovery path runs.
fn counts() -> Measured {
    let mut table = Measured::new("counts");
    let specs = || protocol_matrix::all_specs(TraceMode::StatsOnly);
    let (cells, cost) = measure(specs, |specs| run_cells_threaded(specs, Some(1)));
    table.row("matrix", packets(&cells), cost);
    let fleets = || {
        let setups = [ProtocolSetup::Http11Pipelined, ProtocolSetup::Multiplexed];
        let points = scale::grid(&[NetEnv::Wan], &setups, &[16]);
        points.iter().map(|p| p.spec()).collect::<Vec<_>>()
    };
    let run_fleets = |specs: Vec<_>| -> Vec<CellResult> {
        specs
            .into_iter()
            .flat_map(|s| run_fleet(s).per_client)
            .collect()
    };
    let (cells, cost) = measure(fleets, run_fleets);
    table.row("fleet16", packets(&cells), cost);
    let lossy = || cc::points(Size::Gate).iter().map(|p| p.spec()).collect();
    let (cells, cost) = measure(lossy, |specs| run_cells_threaded(specs, Some(1)));
    table.row("cc lossy", packets(&cells), cost);
    table
}

/// What a run's message heads and the robot's per-object state cost:
/// three clean LAN cells of 43 requests — pipelined HTTP/1.1 and the
/// multiplexed transport, first time, and HTTP/1.0 revalidation with
/// `HEAD`s, whose 43 answers are each a 200 written to a cache shared
/// with the primed one.
///
/// A head takes its one buffer from the pool and hands it back, so a
/// `String` made for a header value, a map that frees its buffer, or a
/// second buffer per head moves these counts by one per message. A client
/// makes each object's path once, when something first names it, and not
/// at all when the primed cache holds it; a cache shared with the primed
/// one writes beside it and copies none of it. A second copy of a path, or
/// a write that copies the primed entries, moves them by one per object.
fn head_alloc() -> Measured {
    let mut table = Measured::new("head_alloc");
    for (name, setup, scenario) in [
        (
            "head pipelined",
            ProtocolSetup::Http11Pipelined,
            Scenario::FirstTime,
        ),
        ("head mux", ProtocolSetup::Multiplexed, Scenario::FirstTime),
        (
            "head revalidate",
            ProtocolSetup::Http10,
            Scenario::Revalidate,
        ),
    ] {
        let spec = || matrix_spec(NetEnv::Lan, ServerKind::Apache, setup, scenario);
        let (out, cost) = measure(spec, run_spec);
        assert_eq!(out.client_stats.requests_sent, 43, "{name}");
        table.row(name, out.cell.packets(), cost);
    }
    table
}

const SMALL: usize = 1 << 10;
const BIG: usize = 1 << 20;

/// The cells `body_alloc` counts and whose traces `check_alloc` checks,
/// in table order: one clean LAN cell fetching a 1 KiB or a 1 MiB object
/// over HTTP/1.1, pipelined and multiplexed, with the full trace. Each is
/// the label its rows carry (`1.1 1K`, …), the spec, built afresh for
/// each run, and the body bytes fetched.
fn body_cells() -> Vec<(String, impl Fn() -> CellSpec, usize)> {
    let object = |len: usize| (0..len).map(|i| (i * 7 % 251) as u8).collect::<Vec<u8>>();
    let store = custom_store(&[
        ("/big.bin".into(), object(BIG), "application/octet-stream"),
        (
            "/small.bin".into(),
            object(SMALL),
            "application/octet-stream",
        ),
    ]);
    let mut cells = Vec::new();
    for (label, setup) in [
        ("1.1", ProtocolSetup::Http11),
        ("pipelined", ProtocolSetup::Http11Pipelined),
        ("mux", ProtocolSetup::Multiplexed),
    ] {
        for (size, path, len) in [("1K", "/small.bin", SMALL), ("1M", "/big.bin", BIG)] {
            let store = store.clone();
            let spec = move || {
                let mut spec =
                    matrix_spec(NetEnv::Lan, ServerKind::Apache, setup, Scenario::FirstTime);
                spec.store = store.clone();
                spec.workload = Workload::FetchList {
                    paths: vec![path.into()],
                };
                spec.trace_mode = TraceMode::Full;
                spec
            };
            cells.push((format!("{label} {size}"), spec, len));
        }
    }
    cells
}

/// What a received body costs. The body travels from the store to the
/// client's response by reference, so the 1 MiB cell costs the allocator
/// a few hundred KiB more than the 1 KiB one, most of it the trace's
/// records; a copy of the body moves its row's bytes by a MiB.
fn body_alloc() -> Measured {
    let mut table = Measured::new("body_alloc");
    for (label, spec, len) in body_cells() {
        let (out, cost) = measure(&spec, run_spec);
        assert_eq!(out.client_stats.body_bytes(), len, "{label}");
        table.row(format!("body {label}"), out.cell.packets(), cost);
    }
    table
}

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

/// What reading a finished trace costs, and what the flight recorders
/// cost to fill it:
///
/// * `check …`: the conformance checker over the traces of the body
///   cells. It holds the streams it reassembles as views of the captured
///   payloads, so a 1 MiB body costs it its share of the records the
///   replay keeps per packet and, on a multiplexed connection, of a chunk
///   reference per segment: frame headers interleave with the body there,
///   so segments are gathered copies that never rejoin into one view;
/// * `fleet10 …`: a 16-client LAN HTTP/1.0 fleet, bare, with the
///   telemetry sink, and with the full trace, whose retained bytes are
///   whole blocks of records;
/// * `check fleet10`: the checker over that trace, replaying one
///   connection at a time, so its live heap is bounded by the largest
///   connection, not the trace;
/// * `pcapng fleet10`: the exporter, one allocation of exactly the
///   capture's size.
fn check_alloc() -> Measured {
    let mut table = Measured::new("check_alloc");
    for (label, spec, _) in body_cells() {
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
    table
}
