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
//! * the pcapng exporter: one allocation, of exactly the capture's size.
//!
//! One test, so nothing else in the process allocates while a count runs.

use conformance::{check_trace, CheckConfig, Report};
use counting_alloc::{allocated_bytes, allocations, peak_live_bytes, reset_peak, CountingAlloc};
use httpipe_core::experiments::scale;
use httpipe_core::harness::{check_config_for, run_fleet};
use httpipe_core::prelude::*;
use netsim::{HostId, TcpConfig, Trace, TraceMode};

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
}
