//! One cell's trace under every TCP and HTTP conformance invariant, and
//! a lossy cell's trace moved across the 32-bit sequence wrap. The
//! whole unimpaired matrix, the impaired robustness grid and the jitter
//! grid are checked by `gate`'s `conformance` entry.

use conformance::check_trace;
use httpipe_core::env::NetEnv;
use httpipe_core::experiments::telemetry;
use httpipe_core::harness::{check_config_for, matrix_spec, run_spec, run_spec_checked, Scenario};
use httpserver::ServerKind;
use netsim::seq::Seq;
use netsim::{pcapng, CcVariant, SackBlocks, Segment, Trace, TraceMode};

#[test]
fn lan_pipelined_first_time_is_conformant() {
    let spec = matrix_spec(
        NetEnv::Lan,
        ServerKind::Apache,
        httpipe_core::harness::ProtocolSetup::Http11Pipelined,
        Scenario::FirstTime,
    );
    let (_, report) = run_spec_checked(spec);
    assert!(
        report.is_clean(),
        "violations in LAN pipelined first-time run:\n{}",
        report.summary()
    );
    assert!(report.connections > 0);
    assert!(report.http_requests >= 43);
}

/// `trace` observed anew with every sequence number, ack and SACK edge
/// moved `by` along the 32-bit circle.
fn shifted(trace: &Trace, by: usize) -> Trace {
    let shift = |seg: &Segment| {
        let moved = |raw: u32| (Seq::new(raw) + by).raw();
        let mut sack = SackBlocks::NONE;
        for (start, end) in seg.sack.iter() {
            assert!(sack.push(moved(start), moved(end)));
        }
        Segment {
            seq: moved(seg.seq),
            ack: if seg.flags.ack {
                moved(seg.ack)
            } else {
                seg.ack
            },
            sack,
            ..seg.clone()
        }
    };
    let mut out = Trace::new();
    for rec in trace.records() {
        out.observe(
            rec.sent,
            rec.received,
            &shift(&rec.segment),
            rec.physical_bytes,
        );
    }
    for drop in trace.drop_records() {
        out.observe_drop(drop.at, &shift(&drop.segment), drop.reason);
    }
    out
}

/// The checker, the trace's retransmission count, its time-sequence
/// points and pcapng all read the wire's 32-bit sequence space: a lossy
/// SACK cell's capture, moved to start 3 000 below 2³², reads as the
/// capture itself, and exports and parses back exactly.
#[test]
fn a_capture_moved_across_the_wrap_reads_the_same() {
    let mut spec = telemetry::rto_point(CcVariant::Sack).spec();
    spec.trace_mode = TraceMode::Full;
    let cfg = check_config_for(&spec);
    let out = run_spec(spec);
    let (client, server) = (out.client_host, out.server_host);
    let (base, wrapped) = (
        shifted(out.sim.trace(), 0),
        shifted(out.sim.trace(), (1 << 32) - 3_000),
    );

    let kinds = |trace: &Trace| {
        let report = check_trace(trace.records(), trace.drop_records(), &cfg);
        let kinds: Vec<_> = report.violations.iter().map(|v| v.kind).collect();
        (
            kinds,
            report.connections,
            report.segments,
            report.http_requests,
        )
    };
    assert_eq!(kinds(&wrapped), kinds(&base));
    assert!(kinds(&base).3 > 0, "the checker read the HTTP streams");

    let rexmits = |trace: &Trace| trace.stats(client, server).retransmitted_packets;
    assert!(rexmits(&base) > 0, "the cell lost packets");
    assert_eq!(rexmits(&wrapped), rexmits(&base));
    for host in [client, server] {
        assert_eq!(wrapped.time_sequence(host), base.time_sequence(host));
    }

    let packets = pcapng::parse(&pcapng::export_trace(&wrapped).unwrap()).unwrap();
    assert!(packets.iter().any(|p| p.seq < 3_000) && packets.iter().any(|p| !p.sack.is_empty()));
    for (packet, rec) in packets.iter().zip(wrapped.records()) {
        let seg = &rec.segment;
        assert_eq!(
            (packet.seq, packet.ack, packet.sack),
            (seg.seq, seg.ack, seg.sack)
        );
    }
}
