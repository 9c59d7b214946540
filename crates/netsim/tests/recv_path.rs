//! The receive path holds arriving payloads by reference: a read is a
//! view of the segment that brought the bytes, and what the application
//! and the peer see depends on the bytes, never on how they arrived.

use bytes::Bytes;
use netsim::tcp::{Effects, State, Tcb, TcpConfig};
use netsim::{HostId, SackBlocks, Segment, SimTime, SockAddr, TcpFlags};

const CLIENT: SockAddr = SockAddr::new(HostId(0), 40_000);
const SERVER: SockAddr = SockAddr::new(HostId(1), 80);
const NOW: SimTime = SimTime::ZERO;

/// An established pair; the server advertises `recv_window`.
fn handshake(recv_window: usize) -> (Tcb, Tcb) {
    let server_cfg = TcpConfig {
        recv_window,
        ..TcpConfig::default()
    };
    let mut cfx = Effects::default();
    let mut client = Tcb::open_active(CLIENT, SERVER, TcpConfig::default(), NOW, &mut cfx);
    let syn = cfx.segments.pop().unwrap();
    let mut sfx = Effects::default();
    let mut server = Tcb::open_passive(SERVER, CLIENT, server_cfg, &syn, NOW, &mut sfx);
    let synack = sfx.segments.pop().unwrap();
    let mut cfx = Effects::default();
    client.on_segment(NOW, &synack, &mut cfx);
    let ack = cfx.segments.pop().unwrap();
    server.on_segment(NOW, &ack, &mut Effects::default());
    assert_eq!(client.state(), State::Established);
    assert_eq!(server.state(), State::Established);
    (client, server)
}

#[test]
fn a_read_is_the_segment_payload() {
    let (mut client, mut server) = handshake(65_535);
    let mut fx = Effects::default();
    client.app_send(NOW, &[0x5A; 4000], &mut fx);
    assert_eq!(fx.segments.len(), 2);
    // Read per arrival, as an application answering `Readable` does:
    // each read hands out the very bytes the segment carried.
    for seg in &fx.segments {
        server.on_segment(NOW, seg, &mut Effects::default());
        let read = server.app_recv(usize::MAX, &mut Effects::default());
        assert_eq!(read.len(), 1460);
        assert_eq!(read.as_ptr(), seg.payload.as_ptr());
        assert_eq!(server.readable_bytes(), 0);
    }
    // A shorter read is a view of the front of it, the next one of the
    // rest. Two arrivals that are adjacent views of one buffer, as these
    // two segments of one write are, are one chunk again: a read across
    // them is a view too.
    for seg in &fx.segments {
        server.on_segment(
            NOW,
            &data(seg.seq + 2920, &seg.payload),
            &mut Effects::default(),
        );
    }
    let read = server.app_recv(1000, &mut Effects::default());
    assert_eq!(read.as_ptr(), fx.segments[0].payload.as_ptr());
    let read = server.app_recv(1000, &mut Effects::default());
    assert_eq!(read.len(), 1000);
    assert_eq!(read.as_ptr(), fx.segments[0].payload[1000..].as_ptr());
    let read = server.app_recv(usize::MAX, &mut Effects::default());
    assert_eq!(read.as_ptr(), fx.segments[1].payload[540..].as_ptr());
    // Only a read across two arrivals from different buffers is gathered.
    let copies: Vec<Bytes> = fx
        .segments
        .iter()
        .map(|seg| Bytes::copy_from_slice(&seg.payload))
        .collect();
    for (seg, copy) in fx.segments.iter().zip(&copies) {
        server.on_segment(NOW, &data(seg.seq + 5840, copy), &mut Effects::default());
    }
    let read = server.app_recv(2000, &mut Effects::default());
    assert_eq!((read.len(), server.readable_bytes()), (2000, 920));
    assert!(!copies[0].as_ptr_range().contains(&read.as_ptr()));
}

/// A data segment from the client at `seq`.
fn data(seq: u32, payload: &Bytes) -> Segment {
    Segment {
        src: CLIENT,
        dst: SERVER,
        seq,
        ack: 1,
        flags: TcpFlags::ACK,
        window: 65_535,
        sack: SackBlocks::NONE,
        payload: payload.clone(),
    }
}

/// What one step showed: bytes read (or none, for an arrival), bytes
/// left to read, and every segment it made the receiver emit as
/// (ack, advertised window).
type Step = (Vec<u8>, usize, Vec<(u32, usize)>);

fn emitted(fx: &Effects) -> Vec<(u32, usize)> {
    fx.segments.iter().map(|s| (s.ack, s.window)).collect()
}

/// Deliver `arrivals` (offset into `bytes`, length) to a receiver with a
/// four-segment window, then read by `reads`; every step's outcome.
fn receive(bytes: &[u8], arrivals: &[(usize, usize)], reads: &[usize]) -> (Vec<Step>, Vec<Step>) {
    let (_, mut server) = handshake(4 * 1460);
    let whole = Bytes::copy_from_slice(bytes);
    let mut arrived = Vec::new();
    for &(off, len) in arrivals {
        let mut fx = Effects::default();
        let seg = data(1 + off as u32, &whole.slice(off..off + len));
        server.on_segment(NOW, &seg, &mut fx);
        arrived.push((Vec::new(), server.readable_bytes(), emitted(&fx)));
    }
    let mut read = Vec::new();
    for &max in reads {
        let mut fx = Effects::default();
        let got = server.app_recv(max, &mut fx);
        read.push((got.to_vec(), server.readable_bytes(), emitted(&fx)));
    }
    (arrived, read)
}

#[test]
fn reads_do_not_depend_on_how_bytes_arrived() {
    let bytes: Vec<u8> = (0..4 * 1460u32).map(|i| (i % 239) as u8).collect();
    let in_order = [(0, 1460), (1460, 1460), (2920, 1460), (4380, 1460)];
    // The tail first, then a retransmission that overlaps what is
    // already held, then the head: everything comes out of reassembly,
    // the overlap trimmed.
    let out_of_order = [
        (2920, 1460),
        (4380, 1460),
        (1460, 1460),
        (1000, 1460),
        (0, 1460),
    ];
    let ragged = [
        (0, 1),
        (1, 999),
        (1000, 1460),
        (2460, 460),
        (2920, 2000),
        (4920, 920),
    ];
    for reads in [
        // Opens the shut window at once: a window update goes out.
        &[3000, 100, 1, usize::MAX][..],
        // Creeps: shorter than any chunk, then across chunk edges.
        &[100, 1360, 1, 1459, 2000, usize::MAX][..],
    ] {
        let (arrived, want) = receive(&bytes, &in_order, reads);
        let total: Vec<u8> = want.iter().flat_map(|step| step.0.clone()).collect();
        assert!(total == bytes, "reads return the bytes in order");
        // The window shut as the fourth segment arrived…
        assert_eq!(arrived.last().unwrap().2.last(), Some(&(5841, 0)));
        // …and only a read that takes it from under one segment to two
        // or more says so.
        let updates: usize = want.iter().map(|step| step.2.len()).sum();
        assert_eq!(updates, usize::from(reads[0] >= 2920));
        for arrivals in [&out_of_order[..], &ragged[..]] {
            let (arrived, got) = receive(&bytes, arrivals, reads);
            assert_eq!(arrived.last().unwrap().1, bytes.len());
            assert!(got == want, "{arrivals:?} read by {reads:?}");
        }
    }
}
