//! What reading a finished trace costs the allocator, pinned as counts:
//!
//! * the conformance checker, per body byte: one clean LAN cell fetching
//!   a 1 MiB object, against the same cell fetching a 1 KiB one, over
//!   HTTP/1.1, pipelined and multiplexed. The checker holds the streams
//!   it reassembles as views of the captured payloads, so what a body
//!   byte costs it is its share of the records the replay keeps per
//!   packet (about 110 B a packet, each vector sized once) and, on a
//!   multiplexed connection, of a chunk reference per segment: frame
//!   headers interleave with the body there, so segments are gathered
//!   copies that never rejoin into one view;
//! * the checker's live heap at its worst, per captured packet, over a
//!   16-client LAN HTTP/1.0 fleet: it replays one connection at a time,
//!   so what it holds is bounded by the largest connection, not the trace;
//! * the pcapng exporter: one allocation, of exactly the capture's size;
//! * what the flight recorders themselves cost on the same fleet, as
//!   exact counts: the telemetry sink's allocations (on minus off), and
//!   the bytes the trace retains (`Full` minus `StatsOnly`), which are
//!   whole blocks of records.
//!
//! One test, so nothing else in the process allocates while a count runs.

use conformance::{check_trace, CheckConfig, Report};
use counting_alloc::{allocated_bytes, allocations, peak_live_bytes, reset_peak, CountingAlloc};
use httpipe_core::experiments::scale;
use httpipe_core::harness::{check_config_for, run_fleet};
use httpipe_core::prelude::*;
use netsim::trace::RECORDS_PER_BLOCK;
use netsim::{HostId, TcpConfig, Trace, TraceMode, TraceRecord};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const BIG: usize = 1 << 20;
const SMALL: usize = 1 << 10;

/// Check `trace` twice, the first time to warm the buffer pools, and
/// return the second report with the bytes that check allocated.
fn counted_check(trace: &Trace, cfg: &CheckConfig) -> (Report, u64) {
    check_trace(trace.records(), trace.drop_records(), cfg);
    let before = allocated_bytes();
    let report = check_trace(trace.records(), trace.drop_records(), cfg);
    (report, allocated_bytes() - before)
}

#[test]
fn the_checkers_read_the_trace_where_it_lies() {
    // (a) Bytes the checker allocates per body byte.
    let object = |len: usize| (0..len).map(|i| (i * 7 % 251) as u8).collect::<Vec<u8>>();
    let store = custom_store(&[
        ("/big.bin".into(), object(BIG), "application/octet-stream"),
        (
            "/small.bin".into(),
            object(SMALL),
            "application/octet-stream",
        ),
    ]);
    for (setup, bound) in [
        (ProtocolSetup::Http11, 1.0 / 8.0),
        (ProtocolSetup::Http11Pipelined, 1.0 / 8.0),
        (ProtocolSetup::Multiplexed, 1.0 / 4.0),
    ] {
        let allocated = |path: &str| {
            let mut spec = matrix_spec(NetEnv::Lan, ServerKind::Apache, setup, Scenario::FirstTime);
            spec.store = store.clone();
            spec.workload = Workload::FetchList {
                paths: vec![path.into()],
            };
            spec.trace_mode = TraceMode::Full;
            let cfg = check_config_for(&spec);
            let out = run_spec(spec);
            let (report, bytes) = counted_check(out.sim.trace(), &cfg);
            assert!(report.is_clean(), "{setup:?} {path}: {}", report.summary());
            bytes
        };
        let (small, big) = (allocated("/small.bin"), allocated("/big.bin"));
        let per_body_byte = big.saturating_sub(small) as f64 / (BIG - SMALL) as f64;
        assert!(
            per_body_byte <= bound,
            "{setup:?}: the checker allocates {per_body_byte:.4} bytes per body byte \
             ({small} B for {SMALL} B of body, {big} B for {BIG} B)"
        );
    }

    // (b) The checker's peak live heap per captured packet, over a fleet.
    let point = scale::grid(&[NetEnv::Lan], &[ProtocolSetup::Http10], &[16]).remove(0);
    let mut spec = point.spec();
    spec.trace_mode = TraceMode::Full;
    let cfg = CheckConfig {
        tcp: TcpConfig::default(),
        client_nodelay: ClientConfig::robot(
            spec.setup.mode(),
            SockAddr::new(HostId(0), spec.server.port),
        )
        .nodelay,
        server_nodelay: spec.server.nodelay,
        server_port: spec.server.port,
        http: true,
    };
    let out = run_fleet(spec);
    let trace = out.sim.trace();
    let captured = (trace.records().len() + trace.drop_records().len()) as u64;
    let live = reset_peak();
    let report = check_trace(trace.records(), trace.drop_records(), &cfg);
    let peak = peak_live_bytes() - live;
    assert!(report.is_clean(), "fleet: {}", report.summary());
    assert_eq!(report.connections, 16 * 43, "one connection per request");
    assert!(
        peak <= 48 * captured,
        "the checker's live heap peaked {peak} B above its start: {} B per captured packet \
         ({captured} captured)",
        peak / captured
    );

    // (c) The exporter writes one buffer of exactly the capture's size.
    let before = allocations();
    let capture = netsim::pcapng::export_trace(trace).expect("a full trace");
    assert_eq!(allocations() - before, 1, "allocations of one export");
    assert_eq!(capture.capacity(), capture.len());
    drop(out);

    // (d) What the two flight recorders cost the allocator on the same
    // fleet: the sink's allocations, and the bytes the trace retains.
    let run = |trace_mode, telemetry| {
        let mut spec = point.spec();
        spec.trace_mode = trace_mode;
        spec.telemetry = telemetry;
        let before = (allocations(), allocated_bytes());
        let out = run_fleet(spec);
        let counts = (allocations() - before.0, allocated_bytes() - before.1);
        (counts, out.sim.trace().records().len())
    };
    run(TraceMode::StatsOnly, false);
    let ((bare, bare_bytes), _) = run(TraceMode::StatsOnly, false);
    let ((with_sink, _), _) = run(TraceMode::StatsOnly, true);
    let ((_, full_bytes), records) = run(TraceMode::Full, false);
    // The sink's 8 264 series on this fleet take no allocation of their
    // own: what it allocates is its tables' blocks, its index and the
    // kernel's scope-id tables (a `Vec` per series would add one a
    // series).
    assert_eq!(with_sink - bare, 347, "allocations the sink adds");
    // The trace keeps its 9 198 records in whole blocks: the first of
    // 32, the rest of 256 (37 blocks, 1 479 680 B), plus the block
    // list's doublings (4 + 8 + … + 64 pointers of 24 B: 2 976 B).
    assert_eq!(records, 9_198);
    let first = RECORDS_PER_BLOCK / 8;
    let slots = first + (records - first).div_ceil(RECORDS_PER_BLOCK) * RECORDS_PER_BLOCK;
    let retained = full_bytes - bare_bytes;
    assert_eq!(
        retained,
        (slots * size_of::<TraceRecord>()) as u64 + 2_976,
        "bytes the trace retains"
    );
}
