//! The send path holds what the application queued by reference: a data
//! segment is a view of those bytes, and what goes on the wire depends on
//! the bytes and on when they were written, never on how they were
//! chunked.

use bytes::{Bytes, BytesQueue};
use netsim::sim::{App, AppEvent, Ctx};
use netsim::tcp::{Effects, State, Tcb, TcpConfig, TimerKind};
use netsim::{
    CcVariant, HostId, ImpairConfig, LinkConfig, LossModel, SimDuration, SimTime, Simulator,
    SockAddr, SocketId, TcpFlags, TraceStats,
};

const CLIENT: SockAddr = SockAddr::new(HostId(0), 40_000);
const SERVER: SockAddr = SockAddr::new(HostId(1), 80);

fn handshake() -> (Tcb, Tcb) {
    let now = SimTime::ZERO;
    let mut cfx = Effects::default();
    let mut client = Tcb::open_active(CLIENT, SERVER, TcpConfig::default(), now, &mut cfx);
    let syn = cfx.segments.pop().unwrap();
    let mut sfx = Effects::default();
    let mut server = Tcb::open_passive(SERVER, CLIENT, TcpConfig::default(), &syn, now, &mut sfx);
    let synack = sfx.segments.pop().unwrap();
    let mut cfx = Effects::default();
    client.on_segment(now, &synack, &mut cfx);
    let ack = cfx.segments.pop().unwrap();
    server.on_segment(now, &ack, &mut Effects::default());
    assert_eq!(client.state(), State::Established);
    assert_eq!(server.state(), State::Established);
    (client, server)
}

#[test]
fn a_data_segment_shares_the_bytes_the_application_queued() {
    let (mut client, mut server) = handshake();
    let now = SimTime::ZERO;
    let body = Bytes::from(payload(10_000));
    let mut queue = BytesQueue::new();
    queue.push(body.clone());
    let mut fx = Effects::default();
    assert_eq!(client.app_send_from(now, &mut queue, &mut fx), 10_000);
    assert!(queue.is_empty());
    // The initial window: two full segments, each a view of the body.
    assert_eq!(fx.segments.len(), 2);
    for (i, seg) in fx.segments.iter().enumerate() {
        assert_eq!(seg.payload.len(), 1460);
        assert_eq!(seg.payload.as_ptr(), body[i * 1460..].as_ptr());
    }
    // So is what the acknowledgement lets out, and a retransmission.
    let mut acks = Effects::default();
    for seg in &fx.segments {
        server.on_segment(now, seg, &mut acks);
    }
    let mut more = Effects::default();
    client.on_segment(now, &acks.segments[0], &mut more);
    assert_eq!(more.segments[0].payload.as_ptr(), body[2920..].as_ptr());
    let rto = more.timers.iter().rev().find(|t| t.0 == TimerKind::Rto);
    let (kind, at, epoch) = *rto.expect("RTO armed");
    let mut again = Effects::default();
    client.on_timer(at, kind, epoch, &mut again);
    assert_eq!(again.segments[0].seq, more.segments[0].seq);
    assert_eq!(again.segments[0].payload.as_ptr(), body[2920..].as_ptr());
}

// ---------------------------------------------------------------------
// The same bytes, queued three ways, through a simulator
// ---------------------------------------------------------------------

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ (i >> 9) as u8).collect()
}

#[derive(Clone, Copy, Debug)]
enum How {
    /// `Ctx::send(&[u8])` of everything not yet accepted, until the
    /// socket takes no more: the copying front door.
    Whole,
    /// One queue filled by ragged `extend_from_slice` calls.
    Ragged,
    /// One queue of views: a head, then a body in two chunks, each a
    /// slice of a larger buffer.
    Chunks,
}

struct Sender {
    server: SockAddr,
    how: How,
    data: Vec<u8>,
    /// `Whole`: bytes of `data` the socket has accepted.
    accepted: usize,
    queue: BytesQueue,
    done: bool,
}

impl Sender {
    fn new(server: SockAddr, how: How, data: &[u8]) -> Sender {
        let mut queue = BytesQueue::new();
        match how {
            How::Whole => {}
            How::Ragged => {
                let mut rest = data;
                for len in [1, 0, 299, 1460, 7, 65_535, 2, 40_000].into_iter().cycle() {
                    let (piece, tail) = rest.split_at(len.min(rest.len()));
                    queue.extend_from_slice(piece);
                    rest = tail;
                    if rest.is_empty() {
                        break;
                    }
                }
            }
            How::Chunks => {
                let padded = Bytes::from([&[0xEE; 64][..], data, &[0xEE; 64][..]].concat());
                for (lo, hi) in [(0, 300), (300, 65_836), (65_836, data.len())] {
                    queue.push(padded.slice(64 + lo..64 + hi));
                }
            }
        }
        Sender {
            server,
            how,
            data: data.to_vec(),
            accepted: 0,
            queue,
            done: false,
        }
    }

    fn write(&mut self, ctx: &mut Ctx<'_>, s: SocketId) {
        if self.done {
            return;
        }
        match self.how {
            How::Whole => {
                while self.accepted < self.data.len() {
                    let n = ctx.send(s, &self.data[self.accepted..]);
                    if n == 0 {
                        return;
                    }
                    self.accepted += n;
                }
            }
            How::Ragged | How::Chunks => {
                ctx.send_from(s, &mut self.queue);
                if !self.queue.is_empty() {
                    return;
                }
            }
        }
        self.done = true;
        ctx.shutdown_write(s);
    }
}

impl App for Sender {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => {
                ctx.connect(self.server);
            }
            AppEvent::Connected(s) | AppEvent::SendSpace(s) => self.write(ctx, s),
            _ => {}
        }
    }
}

/// Reads what arrives; with `hold`, not before that long after accepting.
struct Sink {
    hold: Option<SimDuration>,
    sock: Option<SocketId>,
    received: Vec<u8>,
}

impl App for Sink {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => ctx.listen(80),
            AppEvent::Accepted { socket, .. } => {
                self.sock = Some(socket);
                if let Some(hold) = self.hold {
                    ctx.set_timer(1, hold);
                }
            }
            AppEvent::Timer(_) => {
                self.hold = None;
                let s = self.sock.expect("accepted");
                self.received.extend_from_slice(&ctx.recv(s, usize::MAX));
            }
            AppEvent::Readable(s) if self.hold.is_none() => {
                self.received.extend_from_slice(&ctx.recv(s, usize::MAX));
            }
            AppEvent::PeerFin(s) => {
                self.received.extend_from_slice(&ctx.recv(s, usize::MAX));
                ctx.shutdown_write(s);
            }
            _ => {}
        }
    }
}

/// One packet as the wire saw it; `arrived` is false for a dropped one.
type WireRow = (SimTime, SockAddr, u32, u32, TcpFlags, Vec<u8>, bool);

struct Setup {
    link: LinkConfig,
    cc: CcVariant,
    recv_window: usize,
    hold: Option<SimDuration>,
}

fn run(how: How, data: &[u8], setup: &Setup) -> (Vec<WireRow>, TraceStats) {
    let mut sim = Simulator::new();
    let client = sim.add_host("client");
    let server = sim.add_host("server");
    sim.add_link(client, server, setup.link.clone());
    let cfg = TcpConfig {
        cc: setup.cc,
        recv_window: setup.recv_window,
        ..TcpConfig::default()
    };
    sim.set_tcp_config(client, cfg.clone());
    sim.set_tcp_config(server, cfg);
    let sink = Sink {
        hold: setup.hold,
        sock: None,
        received: Vec::new(),
    };
    sim.install_app(server, Box::new(sink));
    let sender = Sender::new(SockAddr::new(server, 80), how, data);
    sim.install_app(client, Box::new(sender));
    sim.run_until_idle();
    assert!(
        sim.app_mut::<Sink>(server).unwrap().received == data,
        "{how:?}: delivered bytes differ"
    );
    let trace = sim.trace();
    let arrived = trace.records().iter().map(|r| (r.sent, &r.segment, true));
    let dropped = trace
        .drop_records()
        .iter()
        .map(|d| (d.at, &d.segment, false));
    let mut rows: Vec<WireRow> = arrived
        .chain(dropped)
        .map(|(at, seg, ok)| {
            let payload = seg.payload.to_vec();
            (at, seg.src, seg.seq, seg.ack, seg.flags, payload, ok)
        })
        .collect();
    // Stable: packets sent at one instant keep their capture order.
    rows.sort_by_key(|row| (row.0, row.6));
    (rows, sim.stats(client, server))
}

/// The wire of `Whole`, after checking the other two ways give the same.
fn same_wire_every_way(data: &[u8], setup: &Setup) -> (Vec<WireRow>, TraceStats) {
    let (whole, stats) = run(How::Whole, data, setup);
    for how in [How::Ragged, How::Chunks] {
        let (rows, _) = run(how, data, setup);
        assert_eq!(rows.len(), whole.len(), "{how:?}: packet count");
        for (i, (row, want)) in rows.iter().zip(&whole).enumerate() {
            assert!(
                row == want,
                "{how:?}: packet {i} differs: {row:?} != {want:?}"
            );
        }
    }
    (whole, stats)
}

#[test]
fn the_wire_does_not_depend_on_how_bytes_were_queued() {
    let data = payload(200_000);
    let clean = Setup {
        link: LinkConfig::wan(),
        cc: CcVariant::Reno,
        recv_window: 65_535,
        hold: None,
    };
    let (rows, stats) = same_wire_every_way(&data, &clean);
    assert_eq!(stats.retransmitted_packets, 0);
    assert!(rows.len() > 200_000 / 1460);

    for cc in [
        CcVariant::Reno,
        CcVariant::NewReno,
        CcVariant::Sack,
        CcVariant::Cubic,
    ] {
        let loss = ImpairConfig::none()
            .with_seed(0x5EED_0024)
            .with_loss(LossModel::Bernoulli { p: 0.02 });
        let lossy = Setup {
            link: LinkConfig::wan().with_impairment(loss),
            cc,
            ..clean
        };
        let (rows, stats) = same_wire_every_way(&data, &lossy);
        assert!(stats.retransmitted_packets > 0, "{cc:?}: nothing was lost");
        assert!(rows.iter().any(|row| !row.6), "{cc:?}: no drop recorded");
    }

    // A receiver that reads nothing for a minute: the window shuts and
    // the sender probes it one byte at a time.
    let stalled = Setup {
        recv_window: 8_192,
        hold: Some(SimDuration::from_secs(60)),
        ..clean
    };
    let (rows, _) = same_wire_every_way(&data, &stalled);
    let probes = rows
        .iter()
        .filter(|row| row.1.host == HostId(0) && row.5.len() == 1)
        .count();
    assert!(probes >= 2, "persist probes: {probes}");
}
