//! Mutation tests: every [`InvariantKind`] is demonstrated by a
//! synthetic trace that deliberately breaks it — and nothing else fires
//! on the clean baseline exchange. These are the proof that each
//! invariant has teeth; the proof they don't fire spuriously is the
//! `conformance` entry of `httpipe_core::gate`, over the whole matrix.

use bytes::Bytes;
use conformance::{check_trace, CheckConfig, InvariantKind, Report};
use netsim::trace::{DropRecord, Records, TraceRecord};
use netsim::{HostId, SackBlocks, Segment, SimTime, SockAddr, TcpFlags};

const WIN: usize = 65535;
const REQ: &[u8] = b"GET / HTTP/1.1\r\nHost: example.org\r\n\r\n";
const RESP: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";

fn client() -> SockAddr {
    SockAddr::new(HostId(0), 1000)
}

fn server() -> SockAddr {
    SockAddr::new(HostId(1), 80)
}

fn t(us: u64) -> SimTime {
    SimTime::from_nanos(us * 1_000)
}

fn fl(syn: bool, ack: bool, fin: bool, rst: bool) -> TcpFlags {
    TcpFlags {
        syn,
        ack,
        fin,
        rst,
        psh: false,
    }
}

fn seg(c2s: bool, seq: u32, ack: u32, flags: TcpFlags, payload: &[u8], window: usize) -> Segment {
    let (src, dst) = if c2s {
        (client(), server())
    } else {
        (server(), client())
    };
    Segment {
        src,
        dst,
        seq,
        ack,
        flags,
        window,
        sack: SackBlocks::NONE,
        payload: Bytes::from(payload.to_vec()),
    }
}

fn rec(sent_us: u64, recv_us: u64, segment: Segment) -> TraceRecord {
    let physical_bytes = segment.wire_len();
    TraceRecord {
        sent: t(sent_us),
        received: t(recv_us),
        segment,
        physical_bytes,
    }
}

/// SYN, SYN-ACK, ACK with ISS 0 on both sides (like the simulated TCB).
fn handshake() -> Vec<TraceRecord> {
    vec![
        rec(
            0,
            1000,
            seg(true, 0, 0, fl(true, false, false, false), &[], WIN),
        ),
        rec(
            1000,
            2000,
            seg(false, 0, 1, fl(true, true, false, false), &[], WIN),
        ),
        rec(
            2000,
            3000,
            seg(true, 1, 1, fl(false, true, false, false), &[], WIN),
        ),
    ]
}

/// A complete clean exchange: handshake, one request, one response,
/// orderly FIN close in both directions.
fn baseline() -> Vec<TraceRecord> {
    let r = REQ.len() as u32;
    let p = RESP.len() as u32;
    let mut v = handshake();
    // Request, acked by the response within the delayed-ACK deadline.
    v.push(rec(
        2500,
        3500,
        seg(true, 1, 1, fl(false, true, false, false), REQ, WIN),
    ));
    v.push(rec(
        4000,
        5000,
        seg(false, 1, 1 + r, fl(false, true, false, false), RESP, WIN),
    ));
    // Client acks the response, then closes.
    v.push(rec(
        5500,
        6500,
        seg(true, 1 + r, 1 + p, fl(false, true, false, false), &[], WIN),
    ));
    v.push(rec(
        6500,
        7500,
        seg(true, 1 + r, 1 + p, fl(false, true, true, false), &[], WIN),
    ));
    // Server acks the FIN and closes its side; client's final ack.
    v.push(rec(
        8000,
        9000,
        seg(false, 1 + p, 2 + r, fl(false, true, true, false), &[], WIN),
    ));
    v.push(rec(
        9000,
        10000,
        seg(true, 2 + r, 2 + p, fl(false, true, false, false), &[], WIN),
    ));
    v
}

fn check(recs: &[TraceRecord]) -> Report {
    check_trace(recs.into(), Records::default(), &CheckConfig::default())
}

fn check_tcp(recs: &[TraceRecord]) -> Report {
    let cfg = CheckConfig {
        http: false,
        ..CheckConfig::default()
    };
    check_trace(recs.into(), Records::default(), &cfg)
}

#[track_caller]
fn assert_fires(report: &Report, kind: InvariantKind) {
    assert!(
        report.has(kind),
        "expected a {kind} violation, got: {:?}",
        report.violations.iter().map(|v| v.kind).collect::<Vec<_>>()
    );
}

#[test]
fn clean_baseline_has_no_violations() {
    let report = check(&baseline());
    assert!(
        report.is_clean(),
        "baseline violations:\n{:#?}",
        report.violations
    );
    assert_eq!(report.connections, 1);
    assert_eq!(report.http_requests, 1);
}

#[test]
fn every_invariant_kind_is_enumerated() {
    assert_eq!(InvariantKind::ALL.len(), 34);
}

#[test]
fn mutation_syn_first() {
    // A connection whose opening segment is plain data, no SYN anywhere.
    let recs = vec![rec(
        0,
        1000,
        seg(true, 1, 1, fl(false, true, false, false), b"hi", WIN),
    )];
    assert_fires(&check_tcp(&recs), InvariantKind::SynFirst);
}

#[test]
fn mutation_handshake_ordering() {
    // The SYN is lost on the wire (a drop, not an arrival), yet the
    // server answers with a SYN-ACK it cannot have solicited.
    let drops = vec![DropRecord {
        at: t(0),
        segment: seg(true, 0, 0, fl(true, false, false, false), &[], WIN),
        reason: netsim::impair::DropReason::Loss,
    }];
    let recs = vec![rec(
        1000,
        2000,
        seg(false, 0, 1, fl(true, true, false, false), &[], WIN),
    )];
    let cfg = CheckConfig {
        http: false,
        ..CheckConfig::default()
    };
    let report = check_trace((&recs).into(), (&drops).into(), &cfg);
    assert_fires(&report, InvariantKind::HandshakeOrdering);
}

#[test]
fn mutation_synack_acks_iss() {
    let mut recs = handshake();
    // SYN-ACK acknowledges 5; the peer's ISS is 0, so it must ack 1.
    recs[1].segment.ack = 5;
    assert_fires(&check_tcp(&recs), InvariantKind::SynAckAcksIss);
}

#[test]
fn mutation_seq_contiguous() {
    let mut recs = handshake();
    // Request data starts at seq 10: a gap above snd_max = 1.
    recs.push(rec(
        2500,
        3500,
        seg(true, 10, 1, fl(false, true, false, false), REQ, WIN),
    ));
    recs.push(rec(
        4000,
        5000,
        seg(false, 1, 1, fl(false, true, false, false), &[], WIN),
    ));
    assert_fires(&check_tcp(&recs), InvariantKind::SeqContiguous);
}

#[test]
fn mutation_ack_monotonic() {
    let mut recs = handshake();
    // After acking 1, the client's next ack goes back to 0.
    recs.push(rec(
        3000,
        4000,
        seg(true, 1, 0, fl(false, true, false, false), &[], WIN),
    ));
    assert_fires(&check_tcp(&recs), InvariantKind::AckMonotonic);
}

#[test]
fn mutation_ack_no_unsent_data() {
    let mut recs = handshake();
    // The handshake ack acknowledges 100 bytes the server never sent.
    recs[2].segment.ack = 100;
    assert_fires(&check_tcp(&recs), InvariantKind::AckNoUnsentData);
}

#[test]
fn mutation_mss_respect() {
    let mut recs = handshake();
    let jumbo = vec![0u8; 2000]; // default MSS is 1460
    recs.push(rec(
        2500,
        3500,
        seg(true, 1, 1, fl(false, true, false, false), &jumbo, WIN),
    ));
    recs.push(rec(
        4000,
        5000,
        seg(false, 1, 2001, fl(false, true, false, false), &[], WIN),
    ));
    assert_fires(&check_tcp(&recs), InvariantKind::MssRespect);
}

#[test]
fn mutation_window_respect() {
    let mut recs = handshake();
    // The server advertises a 10-byte window; the request overruns it.
    recs[1].segment.window = 10;
    recs.push(rec(
        2500,
        3500,
        seg(true, 1, 1, fl(false, true, false, false), REQ, WIN),
    ));
    recs.push(rec(
        4000,
        5000,
        seg(
            false,
            1,
            1 + REQ.len() as u32,
            fl(false, true, false, false),
            &[],
            WIN,
        ),
    ));
    assert_fires(&check_tcp(&recs), InvariantKind::WindowRespect);
}

#[test]
fn mutation_window_edge_no_shrink() {
    let r = REQ.len() as u32;
    let mut recs = handshake();
    recs.push(rec(
        2500,
        3500,
        seg(true, 1, 1, fl(false, true, false, false), REQ, WIN),
    ));
    // The server's ack pulls its advertised right edge back from
    // 1 + 65535 to (1 + r) + 100.
    recs.push(rec(
        4000,
        5000,
        seg(false, 1, 1 + r, fl(false, true, false, false), &[], 100),
    ));
    assert_fires(&check_tcp(&recs), InvariantKind::WindowEdgeNoShrink);
}

#[test]
fn mutation_cwnd_respect() {
    // Four full segments burst into a cwnd bound of
    // initial (2 MSS) + one MSS per advancing ack (the SYN-ACK) = 4380.
    let mss = 1460usize;
    let payload = vec![0u8; mss];
    let mut recs = handshake();
    for i in 0..4u64 {
        recs.push(rec(
            2500 + i * 100,
            3500 + i * 100,
            seg(
                true,
                1 + i as u32 * mss as u32,
                1,
                fl(false, true, false, false),
                &payload,
                WIN,
            ),
        ));
    }
    // Acks keep the delayed-ACK invariants satisfied.
    recs.push(rec(
        3650,
        4650,
        seg(
            false,
            1,
            1 + 2 * mss as u32,
            fl(false, true, false, false),
            &[],
            WIN,
        ),
    ));
    recs.push(rec(
        4500,
        5500,
        seg(
            false,
            1,
            1 + 4 * mss as u32,
            fl(false, true, false, false),
            &[],
            WIN,
        ),
    ));
    let report = check_tcp(&recs);
    assert_fires(&report, InvariantKind::CwndRespect);
    // Only the fourth segment oversteps the bound.
    assert_eq!(
        report
            .violations
            .iter()
            .filter(|v| v.kind == InvariantKind::CwndRespect)
            .count(),
        1
    );
}

#[test]
fn mutation_delayed_ack_deadline() {
    let mut recs = handshake();
    // The request arrives and the server never acknowledges it.
    recs.push(rec(
        2500,
        3500,
        seg(true, 1, 1, fl(false, true, false, false), REQ, WIN),
    ));
    assert_fires(&check_tcp(&recs), InvariantKind::DelayedAckDeadline);
}

#[test]
fn mutation_delayed_ack_force() {
    // Three deliveries pass without any ack departing; the eventual ack
    // still meets every 200 ms deadline, so only the force rule fires.
    let mut recs = handshake();
    for i in 0..3u64 {
        recs.push(rec(
            2500 + i * 100,
            3500 + i * 100,
            seg(
                true,
                1 + i as u32 * 100,
                1,
                fl(false, true, false, false),
                &[0u8; 100],
                WIN,
            ),
        ));
    }
    recs.push(rec(
        10_000,
        11_000,
        seg(false, 1, 301, fl(false, true, false, false), &[], WIN),
    ));
    let report = check_tcp(&recs);
    assert_fires(&report, InvariantKind::DelayedAckForce);
    assert!(!report.has(InvariantKind::DelayedAckDeadline));
}

#[test]
fn mutation_nagle_hold() {
    // With Nagle enabled on the client, a second small segment departs
    // while the first is still unacknowledged.
    let r = REQ.len() as u32;
    let mut recs = handshake();
    recs.push(rec(
        2500,
        3500,
        seg(true, 1, 1, fl(false, true, false, false), REQ, WIN),
    ));
    recs.push(rec(
        2600,
        3600,
        seg(
            true,
            1 + r,
            1,
            fl(false, true, false, false),
            b"more bytes",
            WIN,
        ),
    ));
    recs.push(rec(
        4000,
        5000,
        seg(false, 1, 11 + r, fl(false, true, false, false), &[], WIN),
    ));
    let cfg = CheckConfig {
        client_nodelay: false,
        http: false,
        ..CheckConfig::default()
    };
    let report = check_trace((&recs).into(), Records::default(), &cfg);
    assert_fires(&report, InvariantKind::NagleHold);
    // The same trace is legal with TCP_NODELAY set.
    assert!(check_tcp(&recs).is_clean());
}

#[test]
fn mutation_data_after_fin() {
    let r = REQ.len() as u32;
    let mut recs = handshake();
    recs.push(rec(
        2500,
        3500,
        seg(true, 1, 1, fl(false, true, false, false), REQ, WIN),
    ));
    recs.push(rec(
        4000,
        5000,
        seg(false, 1, 1 + r, fl(false, true, false, false), &[], WIN),
    ));
    recs.push(rec(
        5000,
        6000,
        seg(true, 1 + r, 1, fl(false, true, true, false), &[], WIN),
    ));
    // New sequence space beyond the FIN.
    recs.push(rec(
        5500,
        6500,
        seg(
            true,
            2 + r,
            1,
            fl(false, true, false, false),
            b"late data",
            WIN,
        ),
    ));
    assert_fires(&check_tcp(&recs), InvariantKind::DataAfterFin);
}

#[test]
fn mutation_fin_seq_stable() {
    let r = REQ.len() as u32;
    let mut recs = handshake();
    recs.push(rec(
        2500,
        3500,
        seg(true, 1, 1, fl(false, true, false, false), REQ, WIN),
    ));
    recs.push(rec(
        4000,
        5000,
        seg(false, 1, 1 + r, fl(false, true, false, false), &[], WIN),
    ));
    recs.push(rec(
        5000,
        6000,
        seg(true, 1 + r, 1, fl(false, true, true, false), &[], WIN),
    ));
    // A FIN "retransmission" (a full RTO later, so the rexmit itself is
    // justified) at a different sequence number.
    recs.push(rec(
        600_000,
        601_000,
        seg(true, r - 4, 1, fl(false, true, true, false), &[], WIN),
    ));
    assert_fires(&check_tcp(&recs), InvariantKind::FinSeqStable);
}

#[test]
fn mutation_rst_with_payload() {
    let mut recs = handshake();
    recs.push(rec(
        3000,
        4000,
        seg(true, 1, 0, fl(false, false, false, true), b"abort", WIN),
    ));
    assert_fires(&check_tcp(&recs), InvariantKind::RstWithPayload);
}

#[test]
fn mutation_rst_not_first() {
    let recs = vec![rec(
        0,
        1000,
        seg(true, 0, 0, fl(false, false, false, true), &[], 0),
    )];
    assert_fires(&check_tcp(&recs), InvariantKind::RstNotFirst);
}

#[test]
fn mutation_silence_after_rst_sent() {
    let mut recs = handshake();
    recs.push(rec(
        3000,
        4000,
        seg(true, 1, 0, fl(false, false, false, true), &[], 0),
    ));
    // Data from the endpoint that just reset the connection.
    recs.push(rec(
        4000,
        5000,
        seg(true, 1, 1, fl(false, true, false, false), b"zombie", WIN),
    ));
    assert_fires(&check_tcp(&recs), InvariantKind::SilenceAfterRstSent);
}

#[test]
fn mutation_silence_after_rst_recvd() {
    let mut recs = handshake();
    recs.push(rec(
        3000,
        4000,
        seg(false, 1, 0, fl(false, false, false, true), &[], 0),
    ));
    // The client keeps talking after the server's RST arrived at 4 ms.
    recs.push(rec(
        5000,
        6000,
        seg(true, 1, 1, fl(false, true, false, false), b"zombie", WIN),
    ));
    assert_fires(&check_tcp(&recs), InvariantKind::SilenceAfterRstRecvd);
}

#[test]
fn mutation_rexmit_justified() {
    let r = REQ.len() as u32;
    let mut recs = handshake();
    recs.push(rec(
        2500,
        3500,
        seg(true, 1, 1, fl(false, true, false, false), REQ, WIN),
    ));
    recs.push(rec(
        5000,
        6000,
        seg(false, 1, 1 + r, fl(false, true, false, false), &[], WIN),
    ));
    // Identical copy 7.5 ms after the original: far below the 500 ms
    // minimum RTO, and with zero duplicate acks.
    recs.push(rec(
        10_000,
        11_000,
        seg(true, 1, 1, fl(false, true, false, false), REQ, WIN),
    ));
    assert_fires(&check_tcp(&recs), InvariantKind::RexmitJustified);
}

#[test]
fn mutation_http_request_parse() {
    let garbage = b"\x01\x02 this is not HTTP\r\n\r\n";
    let mut recs = handshake();
    recs.push(rec(
        2500,
        3500,
        seg(true, 1, 1, fl(false, true, false, false), garbage, WIN),
    ));
    recs.push(rec(
        4000,
        5000,
        seg(
            false,
            1,
            1 + garbage.len() as u32,
            fl(false, true, false, false),
            &[],
            WIN,
        ),
    ));
    assert_fires(&check(&recs), InvariantKind::HttpRequestParse);
}

#[test]
fn mutation_http_response_parse() {
    let r = REQ.len() as u32;
    let garbage = b"\x01\x02 this is not HTTP either\r\n\r\n";
    let mut recs = handshake();
    recs.push(rec(
        2500,
        3500,
        seg(true, 1, 1, fl(false, true, false, false), REQ, WIN),
    ));
    recs.push(rec(
        4000,
        5000,
        seg(false, 1, 1 + r, fl(false, true, false, false), garbage, WIN),
    ));
    recs.push(rec(
        5500,
        6500,
        seg(
            true,
            1 + r,
            1 + garbage.len() as u32,
            fl(false, true, false, false),
            &[],
            WIN,
        ),
    ));
    assert_fires(&check(&recs), InvariantKind::HttpResponseParse);
}

#[test]
fn mutation_response_before_request() {
    let r = REQ.len() as u32;
    let p = RESP.len() as u32;
    let mut recs = handshake();
    // The request departs at 2.5 ms and completes arrival at 3.5 ms —
    // but the server's response already departed at 3.0 ms.
    recs.push(rec(
        2500,
        3500,
        seg(true, 1, 1, fl(false, true, false, false), REQ, WIN),
    ));
    recs.push(rec(
        3000,
        4000,
        seg(false, 1, 1, fl(false, true, false, false), RESP, WIN),
    ));
    recs.push(rec(
        5000,
        6000,
        seg(false, 1 + p, 1 + r, fl(false, true, false, false), &[], WIN),
    ));
    recs.push(rec(
        5500,
        6500,
        seg(true, 1 + r, 1 + p, fl(false, true, false, false), &[], WIN),
    ));
    assert_fires(&check(&recs), InvariantKind::ResponseBeforeRequest);
}

#[test]
fn mutation_pipeline_order() {
    let r = REQ.len() as u32;
    let p = RESP.len() as u32;
    let second = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nworld";
    let mut recs = handshake();
    recs.push(rec(
        2500,
        3500,
        seg(true, 1, 1, fl(false, true, false, false), REQ, WIN),
    ));
    recs.push(rec(
        4000,
        5000,
        seg(false, 1, 1 + r, fl(false, true, false, false), RESP, WIN),
    ));
    // A second response to a connection that only ever saw one request.
    recs.push(rec(
        4100,
        5100,
        seg(
            false,
            1 + p,
            1 + r,
            fl(false, true, false, false),
            second,
            WIN,
        ),
    ));
    recs.push(rec(
        5500,
        6500,
        seg(
            true,
            1 + r,
            1 + p + second.len() as u32,
            fl(false, true, false, false),
            &[],
            WIN,
        ),
    ));
    assert_fires(&check(&recs), InvariantKind::PipelineOrder);
}

#[test]
fn mutation_stream_leftover() {
    let r = REQ.len() as u32;
    let mut recs = handshake();
    recs.push(rec(
        2500,
        3500,
        seg(true, 1, 1, fl(false, true, false, false), REQ, WIN),
    ));
    // A truncated second request, then a clean FIN: unparsed bytes left.
    recs.push(rec(
        2600,
        3600,
        seg(
            true,
            1 + r,
            1,
            fl(false, true, false, false),
            b"GET / HT",
            WIN,
        ),
    ));
    recs.push(rec(
        5000,
        6000,
        seg(true, 9 + r, 1, fl(false, true, true, false), &[], WIN),
    ));
    recs.push(rec(
        6000,
        7000,
        seg(false, 1, 10 + r, fl(false, true, false, false), &[], WIN),
    ));
    assert_fires(&check(&recs), InvariantKind::StreamLeftover);
}

#[test]
fn mutation_connection_close_respected() {
    let close_resp = b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 5\r\n\r\nhello";
    let r = REQ.len() as u32;
    let p = close_resp.len() as u32;
    let mut recs = handshake();
    recs.push(rec(
        2500,
        3500,
        seg(true, 1, 1, fl(false, true, false, false), REQ, WIN),
    ));
    recs.push(rec(
        4000,
        5000,
        seg(
            false,
            1,
            1 + r,
            fl(false, true, false, false),
            close_resp,
            WIN,
        ),
    ));
    // The close response fully arrived at 5 ms; a second request departs
    // at 6 ms anyway.
    recs.push(rec(
        6000,
        7000,
        seg(true, 1 + r, 1 + p, fl(false, true, false, false), REQ, WIN),
    ));
    recs.push(rec(
        7100,
        8100,
        seg(
            false,
            1 + p,
            1 + 2 * r,
            fl(false, true, false, false),
            &[],
            WIN,
        ),
    ));
    assert_fires(&check(&recs), InvariantKind::ConnectionCloseRespected);
}

// --- Multiplexed (httpmux) invariants -----------------------------------
//
// The same synthetic-trace machinery, with frame-encoded payloads: the
// client segment carries the preface plus its frames, the server segment
// carries its frames, and the TCP envelope mirrors `baseline()` exactly.

use httpmux::{
    Frame, FramePayload, FLAG_END_STREAM, PREFACE, SETTING_ENABLE_PUSH, SETTING_INITIAL_WINDOW,
};

fn fr(stream: u32, flags: u8, payload: FramePayload) -> Vec<u8> {
    Frame {
        stream,
        flags,
        payload,
    }
    .encode()
}

fn field_block(fields: &[(&str, &str)]) -> httpwire::HeaderMap {
    let mut block = httpwire::HeaderMap::new();
    for (name, value) in fields {
        block.append(name, value);
    }
    block
}

fn headers(fields: &[(&str, &str)]) -> FramePayload {
    FramePayload::Headers(field_block(fields))
}

/// Client bytes: preface + SETTINGS + the given frames.
fn mux_client(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut v = PREFACE.to_vec();
    v.extend(fr(
        0,
        0,
        FramePayload::Settings(vec![
            (SETTING_ENABLE_PUSH, 1),
            (SETTING_INITIAL_WINDOW, 65_535),
        ]),
    ));
    for f in frames {
        v.extend_from_slice(f);
    }
    v
}

/// Server bytes: SETTINGS + the given frames.
fn mux_server(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut v = fr(
        0,
        0,
        FramePayload::Settings(vec![(SETTING_INITIAL_WINDOW, 65_535)]),
    );
    for f in frames {
        v.extend_from_slice(f);
    }
    v
}

/// A clean TCP envelope around one client payload and one server payload:
/// `baseline()` with the HTTP messages swapped for frame bytes.
fn mux_trace(client_bytes: &[u8], server_bytes: &[u8]) -> Vec<TraceRecord> {
    let r = client_bytes.len() as u32;
    let p = server_bytes.len() as u32;
    let mut v = handshake();
    v.push(rec(
        2500,
        3500,
        seg(true, 1, 1, fl(false, true, false, false), client_bytes, WIN),
    ));
    v.push(rec(
        4000,
        5000,
        seg(
            false,
            1,
            1 + r,
            fl(false, true, false, false),
            server_bytes,
            WIN,
        ),
    ));
    v.push(rec(
        5500,
        6500,
        seg(true, 1 + r, 1 + p, fl(false, true, false, false), &[], WIN),
    ));
    v.push(rec(
        6500,
        7500,
        seg(true, 1 + r, 1 + p, fl(false, true, true, false), &[], WIN),
    ));
    v.push(rec(
        8000,
        9000,
        seg(false, 1 + p, 2 + r, fl(false, true, true, false), &[], WIN),
    ));
    v.push(rec(
        9000,
        10000,
        seg(true, 2 + r, 2 + p, fl(false, true, false, false), &[], WIN),
    ));
    v
}

#[test]
fn clean_mux_exchange_has_no_violations() {
    let client = mux_client(&[fr(
        1,
        FLAG_END_STREAM,
        headers(&[(":method", "GET"), (":path", "/")]),
    )]);
    let server = mux_server(&[
        fr(1, 0, headers(&[(":status", "200")])),
        fr(
            1,
            FLAG_END_STREAM,
            FramePayload::Data(b"hello".to_vec().into()),
        ),
    ]);
    let report = check(&mux_trace(&client, &server));
    assert!(
        report.is_clean(),
        "clean mux violations:\n{:#?}",
        report.violations
    );
    assert_eq!(report.http_requests, 1, "HEADERS counted as a request");
}

#[test]
fn mutation_mux_frame_parse() {
    // Nine 0xFF bytes after the preface: an impossible length prefix.
    let mut client = PREFACE.to_vec();
    client.extend_from_slice(&[0xFF; 9]);
    let server = mux_server(&[]);
    assert_fires(
        &check(&mux_trace(&client, &server)),
        InvariantKind::MuxFrameParse,
    );
}

#[test]
fn mutation_mux_stream_id_monotonic() {
    // Client opens stream 3, then stream 1: ids must increase.
    let client = mux_client(&[
        fr(3, FLAG_END_STREAM, headers(&[(":path", "/a")])),
        fr(1, FLAG_END_STREAM, headers(&[(":path", "/b")])),
    ]);
    let server = mux_server(&[]);
    assert_fires(
        &check(&mux_trace(&client, &server)),
        InvariantKind::MuxStreamIdMonotonic,
    );
}

#[test]
fn mutation_mux_even_stream_from_client() {
    let client = mux_client(&[fr(2, FLAG_END_STREAM, headers(&[(":path", "/a")]))]);
    let server = mux_server(&[]);
    assert_fires(
        &check(&mux_trace(&client, &server)),
        InvariantKind::MuxStreamIdMonotonic,
    );
}

#[test]
fn mutation_mux_window_non_negative() {
    // The client's SETTINGS allow only 10 bytes per stream; the server
    // sends a 100-byte DATA frame regardless.
    let mut client = PREFACE.to_vec();
    client.extend(fr(
        0,
        0,
        FramePayload::Settings(vec![(SETTING_INITIAL_WINDOW, 10)]),
    ));
    client.extend(fr(1, FLAG_END_STREAM, headers(&[(":path", "/")])));
    let server = mux_server(&[
        fr(1, 0, headers(&[(":status", "200")])),
        fr(
            1,
            FLAG_END_STREAM,
            FramePayload::Data(vec![0u8; 100].into()),
        ),
    ]);
    assert_fires(
        &check(&mux_trace(&client, &server)),
        InvariantKind::MuxWindowNonNegative,
    );
}

#[test]
fn mutation_mux_data_after_end_stream() {
    let client = mux_client(&[fr(1, FLAG_END_STREAM, headers(&[(":path", "/")]))]);
    let server = mux_server(&[
        fr(1, 0, headers(&[(":status", "200")])),
        fr(
            1,
            FLAG_END_STREAM,
            FramePayload::Data(b"hi".to_vec().into()),
        ),
        fr(
            1,
            FLAG_END_STREAM,
            FramePayload::Data(b"more".to_vec().into()),
        ),
    ]);
    assert_fires(
        &check(&mux_trace(&client, &server)),
        InvariantKind::MuxDataAfterEndStream,
    );
}

#[test]
fn mutation_mux_push_promise_invalid() {
    // PUSH_PROMISE tied to stream 5, which the client never opened.
    let client = mux_client(&[fr(1, FLAG_END_STREAM, headers(&[(":path", "/")]))]);
    let server = mux_server(&[
        fr(
            5,
            0,
            FramePayload::PushPromise {
                promised: 2,
                fields: field_block(&[(":path", "/a.gif")]),
            },
        ),
        fr(1, FLAG_END_STREAM, headers(&[(":status", "200")])),
    ]);
    assert_fires(
        &check(&mux_trace(&client, &server)),
        InvariantKind::MuxPushPromiseInvalid,
    );
}

#[test]
fn mutation_mux_push_promise_from_client() {
    let client = mux_client(&[
        fr(1, FLAG_END_STREAM, headers(&[(":path", "/")])),
        fr(
            1,
            0,
            FramePayload::PushPromise {
                promised: 2,
                fields: field_block(&[(":path", "/a.gif")]),
            },
        ),
    ]);
    let server = mux_server(&[]);
    assert_fires(
        &check(&mux_trace(&client, &server)),
        InvariantKind::MuxPushPromiseInvalid,
    );
}

// ---------------------------------------------------------------------
// Congestion-control invariants (NewReno / SACK / CUBIC)
// ---------------------------------------------------------------------

use netsim::impair::DropReason;
use netsim::{CcVariant, TcpConfig};

const MSS: u32 = 1460;

fn check_cc(recs: &[TraceRecord], drops: &[DropRecord], cc: CcVariant) -> Report {
    let cfg = CheckConfig {
        http: false,
        tcp: TcpConfig {
            cc,
            ..TcpConfig::default()
        },
        ..CheckConfig::default()
    };
    check_trace(recs.into(), drops.into(), &cfg)
}

fn drop_at(us: u64, segment: Segment) -> DropRecord {
    DropRecord {
        at: t(us),
        segment,
        reason: DropReason::Loss,
    }
}

fn sack_of(blocks: &[(u32, u32)]) -> SackBlocks {
    let mut sb = SackBlocks::NONE;
    for &(s, e) in blocks {
        assert!(sb.push(s, e), "more than four SACK blocks in a test");
    }
    sb
}

/// The shared prologue of the NewReno partial-ACK traces: handshake, two
/// acked warm-up segments (growing the checker's cwnd cap to 5 MSS),
/// then a five-segment flight losing the 1st and 3rd, three duplicate
/// ACKs, the fast retransmit, and the server's partial ACK covering only
/// up to the second hole. Returns the records and the hole's sequence.
fn newreno_recovery_prologue(drops: &mut Vec<DropRecord>) -> (Vec<TraceRecord>, u32) {
    let data = vec![0u8; MSS as usize];
    let f = fl(false, true, false, false);
    let mut recs = handshake();
    // Warm-up: two segments, each acknowledged (cwnd cap -> 5 MSS).
    recs.push(rec(2500, 3500, seg(true, 1, 1, f, &data, WIN)));
    recs.push(rec(4000, 5000, seg(false, 1, 1 + MSS, f, &[], WIN)));
    recs.push(rec(5500, 6500, seg(true, 1 + MSS, 1, f, &data, WIN)));
    recs.push(rec(7000, 8000, seg(false, 1, 1 + 2 * MSS, f, &[], WIN)));
    let base = 1 + 2 * MSS;
    // Five-segment flight: A and C are lost on the wire.
    drops.push(drop_at(8500, seg(true, base, 1, f, &data, WIN)));
    recs.push(rec(8600, 9600, seg(true, base + MSS, 1, f, &data, WIN)));
    drops.push(drop_at(8700, seg(true, base + 2 * MSS, 1, f, &data, WIN)));
    recs.push(rec(8800, 9800, seg(true, base + 3 * MSS, 1, f, &data, WIN)));
    recs.push(rec(8900, 9900, seg(true, base + 4 * MSS, 1, f, &data, WIN)));
    // Three duplicate ACKs open fast recovery.
    recs.push(rec(9700, 10_700, seg(false, 1, base, f, &[], WIN)));
    recs.push(rec(9900, 10_900, seg(false, 1, base, f, &[], WIN)));
    recs.push(rec(10_000, 11_000, seg(false, 1, base, f, &[], WIN)));
    // Fast retransmit of A; the server then acks through B only: a
    // partial ACK exposing the second hole at C.
    recs.push(rec(11_100, 12_100, seg(true, base, 1, f, &data, WIN)));
    recs.push(rec(
        12_200,
        13_200,
        seg(false, 1, base + 2 * MSS, f, &[], WIN),
    ));
    (recs, base + 2 * MSS)
}

#[test]
fn mutation_newreno_partial_ack() {
    // The sender ignores the partial ACK and only fills the hole after a
    // full RTO-scale stall — the slow-start re-entry NewReno forbids.
    let data = vec![0u8; MSS as usize];
    let f = fl(false, true, false, false);
    let mut drops = Vec::new();
    let (mut recs, hole) = newreno_recovery_prologue(&mut drops);
    recs.push(rec(613_200, 614_200, seg(true, hole, 1, f, &data, WIN)));
    recs.push(rec(
        614_300,
        615_300,
        seg(false, 1, hole + 3 * MSS, f, &[], WIN),
    ));
    let report = check_cc(&recs, &drops, CcVariant::NewReno);
    assert_fires(&report, InvariantKind::NewRenoPartialAck);
}

#[test]
fn newreno_prompt_partial_ack_fill_is_clean() {
    // The conformant counterpart: the hole is filled promptly (RFC 6582)
    // — and the partial-ACK retransmission needs neither an RTO wait nor
    // three fresh duplicate ACKs to be justified.
    let data = vec![0u8; MSS as usize];
    let f = fl(false, true, false, false);
    let mut drops = Vec::new();
    let (mut recs, hole) = newreno_recovery_prologue(&mut drops);
    recs.push(rec(13_300, 14_300, seg(true, hole, 1, f, &data, WIN)));
    recs.push(rec(
        14_400,
        15_400,
        seg(false, 1, hole + 3 * MSS, f, &[], WIN),
    ));
    let report = check_cc(&recs, &drops, CcVariant::NewReno);
    assert!(
        report.is_clean(),
        "prompt hole fill violations:\n{:#?}",
        report.violations
    );
}

#[test]
fn mutation_sack_rexmit_sacked() {
    // The peer SACKed C, yet the sender retransmits it anyway.
    let data = vec![0u8; MSS as usize];
    let f = fl(false, true, false, false);
    let mut recs = handshake();
    // A arrives, B is lost, C arrives out of order.
    recs.push(rec(2500, 3500, seg(true, 1, 1, f, &data, WIN)));
    let drops = vec![drop_at(2600, seg(true, 1 + MSS, 1, f, &data, WIN))];
    recs.push(rec(2700, 3700, seg(true, 1 + 2 * MSS, 1, f, &data, WIN)));
    // Cumulative ACK of A, then a duplicate ACK carrying the SACK block
    // for C.
    recs.push(rec(4000, 5000, seg(false, 1, 1 + MSS, f, &[], WIN)));
    let mut dup = seg(false, 1, 1 + MSS, f, &[], WIN);
    dup.sack = sack_of(&[(1 + 2 * MSS, 1 + 3 * MSS)]);
    recs.push(rec(4100, 5100, dup));
    // A full RTO later the sender retransmits the SACKed C instead of
    // (or in addition to) the hole at B.
    recs.push(rec(
        600_000,
        601_000,
        seg(true, 1 + 2 * MSS, 1, f, &data, WIN),
    ));
    let report = check_cc(&recs, &drops, CcVariant::Sack);
    assert_fires(&report, InvariantKind::SackRexmitSacked);
}

#[test]
fn sack_hole_rexmit_is_clean() {
    // Retransmitting the un-SACKed hole B is conformant.
    let data = vec![0u8; MSS as usize];
    let f = fl(false, true, false, false);
    let mut recs = handshake();
    recs.push(rec(2500, 3500, seg(true, 1, 1, f, &data, WIN)));
    let drops = vec![drop_at(2600, seg(true, 1 + MSS, 1, f, &data, WIN))];
    recs.push(rec(2700, 3700, seg(true, 1 + 2 * MSS, 1, f, &data, WIN)));
    recs.push(rec(4000, 5000, seg(false, 1, 1 + MSS, f, &[], WIN)));
    let mut dup = seg(false, 1, 1 + MSS, f, &[], WIN);
    dup.sack = sack_of(&[(1 + 2 * MSS, 1 + 3 * MSS)]);
    recs.push(rec(4100, 5100, dup));
    recs.push(rec(600_000, 601_000, seg(true, 1 + MSS, 1, f, &data, WIN)));
    recs.push(rec(
        601_100,
        602_100,
        seg(false, 1, 1 + 3 * MSS, f, &[], WIN),
    ));
    let report = check_cc(&recs, &drops, CcVariant::Sack);
    assert!(
        report.is_clean(),
        "hole retransmission violations:\n{:#?}",
        report.violations
    );
}

#[test]
fn mutation_cubic_growth_bound() {
    // Ten acknowledged round trips inflate the slow-start cwnd cap to 13
    // MSS, then a loss with only one segment in flight pins the CUBIC
    // wmax estimate at 2 MSS — so an 8-MSS burst right after recovery is
    // fine by the slow-start bound but far above the cubic window.
    let data = vec![0u8; MSS as usize];
    let f = fl(false, true, false, false);
    let mut recs = handshake();
    for i in 0..10u64 {
        let seq = 1 + i as u32 * MSS;
        let at = 2500 + i * 3000;
        recs.push(rec(at, at + 1000, seg(true, seq, 1, f, &data, WIN)));
        recs.push(rec(
            at + 1500,
            at + 2500,
            seg(false, 1, seq + MSS, f, &[], WIN),
        ));
    }
    let lost = 1 + 10 * MSS;
    let drops = vec![drop_at(35_000, seg(true, lost, 1, f, &data, WIN))];
    // RTO-style recovery: the retransmission stamps the congestion
    // epoch with wmax = 2 MSS.
    recs.push(rec(600_000, 601_000, seg(true, lost, 1, f, &data, WIN)));
    recs.push(rec(
        601_500,
        602_500,
        seg(false, 1, lost + MSS, f, &[], WIN),
    ));
    // 8-MSS burst 1 ms into the epoch: the cubic window is still near
    // 0.7 * wmax, so flight must not approach 8 MSS.
    for i in 0..8u64 {
        let seq = lost + MSS + i as u32 * MSS;
        recs.push(rec(
            603_000 + i * 50,
            604_000 + i * 50,
            seg(true, seq, 1, f, &data, WIN),
        ));
    }
    recs.push(rec(
        604_500,
        605_500,
        seg(false, 1, lost + 9 * MSS, f, &[], WIN),
    ));
    let report = check_cc(&recs, &drops, CcVariant::Cubic);
    assert_fires(&report, InvariantKind::CubicGrowthBound);
    // The same burst is within the plain slow-start cap: the violation
    // is CUBIC-specific.
    assert!(!report.has(InvariantKind::CwndRespect));
    let reno = check_cc(&recs, &drops, CcVariant::Reno);
    assert!(!reno.has(InvariantKind::CubicGrowthBound));
}

#[test]
fn baseline_is_clean_under_every_cc_variant() {
    for cc in CcVariant::ALL {
        let report = check_cc(&baseline(), &[], cc);
        assert!(
            report.is_clean(),
            "baseline violations under {}:\n{:#?}",
            cc.label(),
            report.violations
        );
    }
}
