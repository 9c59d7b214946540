//! `pcapng::parse` on input it did not write, driven by a seeded PRNG as
//! `netsim/tests/proptest_delivery.rs` is: every truncation and 10 000
//! single-byte flips of a real 16-client fleet capture, and random byte
//! strings, must each come back `Ok` or a `PcapError`, never a panic;
//! and 1 000 random segments, stretching every field the mapping
//! documents, must read back as the mapping says.

use httpipe_core::experiments::scale;
use httpipe_core::harness::{custom_store, run_fleet};
use httpipe_core::prelude::*;
use netsim::pcapng::{export, parse, PcapPacket};
use netsim::{HostId, SackBlocks, Segment, SimTime, TcpFlags, TraceMode, TraceRecord};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The capture of a 16-client LAN HTTP/1.0 fleet, each client fetching
/// one small object: every block kind and every connection phase, in a
/// capture small enough to parse once per truncation.
fn fleet_capture() -> Vec<u8> {
    let point = scale::grid(&[NetEnv::Lan], &[ProtocolSetup::Http10], &[16]).remove(0);
    let mut spec = point.spec();
    let object = (0..300).map(|i| (i * 7 % 251) as u8).collect();
    spec.store = custom_store(&[("/o.bin".into(), object, "application/octet-stream")]);
    spec.workload = Workload::FetchList {
        paths: vec!["/o.bin".into()],
    };
    spec.trace_mode = TraceMode::Full;
    let out = run_fleet(spec);
    assert!(
        out.per_client.iter().all(|c| c.fetched == 1),
        "every client fetched"
    );
    netsim::pcapng::export_trace(out.sim.trace()).expect("a full trace")
}

/// Where each block of a capture ends.
fn block_ends(capture: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0;
    while at < capture.len() {
        at += u32::from_le_bytes(capture[at + 4..at + 8].try_into().unwrap()) as usize;
        ends.push(at);
    }
    ends
}

#[test]
fn every_truncation_and_flip_of_a_fleet_capture_parses_or_errs() {
    let capture = fleet_capture();
    let whole = parse(&capture).expect("the export parses");
    let ends = block_ends(&capture);
    assert_eq!(ends.last(), Some(&capture.len()));
    // Section header, interface description, then one block a packet.
    assert_eq!(ends.len(), 2 + whole.len());

    // A prefix parses exactly when it ends on a block boundary past the
    // section header, and then yields the packets of its whole blocks.
    for cut in 0..=capture.len() {
        let blocks = ends.iter().take_while(|&&end| end <= cut).count();
        match parse(&capture[..cut]) {
            Ok(packets) => {
                assert!(blocks > 0 && ends[blocks - 1] == cut, "{cut}: Ok mid-block");
                assert_eq!(packets[..], whole[..blocks.saturating_sub(2)], "{cut}");
            }
            Err(_) => assert!(
                blocks == 0 || ends[blocks - 1] != cut,
                "{cut}: Err on a boundary"
            ),
        }
    }

    let mut rng = SmallRng::seed_from_u64(1997);
    let mut flipped = capture.clone();
    let mut refused = 0;
    for _ in 0..10_000 {
        let at = rng.gen_range(0..flipped.len());
        let mask = rng.gen_range(1..=255u8);
        flipped[at] ^= mask;
        refused += usize::from(parse(&flipped).is_err());
        flipped[at] ^= mask;
    }
    // A flip in a checksummed header or payload, or in a length, is
    // refused; one in a MAC address, a timestamp or padding parses.
    assert!(
        (1..10_000).contains(&refused),
        "{refused} of 10 000 flips refused"
    );
}

#[test]
fn random_bytes_parse_or_err() {
    let mut rng = SmallRng::seed_from_u64(7);
    let shb = &export(Default::default())[..28];
    for i in 0..2_000 {
        let len = rng.gen_range(0..512usize);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        // Half behind a valid section header, so the noise reaches the
        // block and frame parsers.
        if i % 2 == 0 {
            bytes.splice(0..0, shb.iter().copied());
        }
        let _ = parse(&bytes);
    }
}

/// A sequence number within 3 000 of the 32-bit wrap, on either side.
fn near_wrap(rng: &mut SmallRng) -> u32 {
    rng.gen_range(0..6_000u32).wrapping_sub(3_000)
}

/// A segment with every field drawn across the range the mapping
/// documents: 0–4 SACK blocks, windows past 65 535, sequence and ack
/// numbers and SACK blocks at the 32-bit wrap, payloads of 0–1 460
/// bytes.
fn random_record(rng: &mut SmallRng) -> TraceRecord {
    let addr = |rng: &mut SmallRng| SockAddr::new(HostId(rng.gen()), rng.gen());
    let mut sack = SackBlocks::NONE;
    for _ in 0..rng.gen_range(0..=4usize) {
        let start = near_wrap(rng);
        assert!(sack.push(start, start.wrapping_add(rng.gen_range(1..=3_000))));
    }
    let flags = TcpFlags {
        syn: rng.gen(),
        ack: rng.gen(),
        fin: rng.gen(),
        rst: rng.gen(),
        psh: rng.gen(),
    };
    let segment = Segment {
        src: addr(rng),
        dst: addr(rng),
        seq: near_wrap(rng),
        ack: near_wrap(rng),
        flags,
        window: rng.gen_range(0..1usize << 20),
        sack,
        payload: (0..rng.gen_range(0..=1460usize))
            .map(|_| rng.gen::<u8>())
            .collect::<Vec<u8>>()
            .into(),
    };
    let received = SimTime::from_nanos(rng.gen());
    TraceRecord {
        sent: received,
        received,
        physical_bytes: segment.wire_len(),
        segment,
    }
}

#[test]
fn random_segments_round_trip_under_the_documented_mapping() {
    let mut rng = SmallRng::seed_from_u64(2026);
    let records: Vec<TraceRecord> = (0..1_000).map(|_| random_record(&mut rng)).collect();
    let packets = parse(&export((&records).into())).expect("the export parses");
    assert_eq!(packets.len(), records.len());
    for (packet, rec) in packets.iter().zip(&records) {
        let seg = &rec.segment;
        let expected = PcapPacket {
            ts_ns: rec.received.as_nanos(),
            src: seg.src,
            dst: seg.dst,
            seq: seg.seq,
            ack: seg.ack,
            flags: seg.flags,
            window: seg.window.min(0xffff) as u16,
            payload_len: seg.payload.len(),
            sack: seg.sack,
        };
        assert_eq!(packet, &expected);
    }
    let stretched = |f: fn(&Segment) -> bool| records.iter().any(|r| f(&r.segment));
    assert!(stretched(|s| s.seq > u32::MAX - 3_000 && s.ack < 3_000));
    assert!(stretched(|s| s.seq < 3_000 && s.ack > u32::MAX - 3_000));
    assert!(stretched(|s| s.sack.iter().any(|(start, end)| end < start)));
    assert!(stretched(|s| s.window > 0xffff));
    assert!(stretched(|s| s.sack.len() == 4));
    assert!(stretched(
        |s| s.payload.len() == 1460 || s.payload.is_empty()
    ));
}
