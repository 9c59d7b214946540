//! Edge-case tests for the TCP machine: zero-window persistence, duplicate
//! SYNs, TIME_WAIT accounting, window updates after reads, and abortive
//! closes — the corners a long-lived simulator must get right.

use bytes::Bytes;
use netsim::sim::{App, AppEvent, Ctx};
use netsim::tcp::{Effects, SockNotify, State, Tcb, TcpConfig, TimerKind};
use netsim::{
    HostId, LinkConfig, SackBlocks, Segment, SimDuration, SimTime, Simulator, SockAddr, SocketId,
    TcpFlags,
};

const CLIENT: SockAddr = SockAddr::new(HostId(0), 40_000);
const SERVER: SockAddr = SockAddr::new(HostId(1), 80);

fn fx() -> Effects {
    Effects::default()
}

fn handshake(client_cfg: TcpConfig, server_cfg: TcpConfig) -> (Tcb, Tcb) {
    let now = SimTime::ZERO;
    let mut cfx = fx();
    let mut client = Tcb::open_active(CLIENT, SERVER, client_cfg, now, &mut cfx);
    let syn = cfx.segments.pop().unwrap();
    let mut sfx = fx();
    let mut server = Tcb::open_passive(SERVER, CLIENT, server_cfg, &syn, now, &mut sfx);
    let synack = sfx.segments.pop().unwrap();
    let mut cfx = fx();
    client.on_segment(now, &synack, &mut cfx);
    let ack = cfx.segments.pop().unwrap();
    let mut sfx = fx();
    server.on_segment(now, &ack, &mut sfx);
    assert_eq!(client.state(), State::Established);
    assert_eq!(server.state(), State::Established);
    (client, server)
}

#[test]
fn zero_window_stalls_then_persist_probe_resumes() {
    // A receiver that never reads: its advertised window shrinks to zero
    // and the sender must stop, then probe.
    let recv_cfg = TcpConfig {
        recv_window: 4096, // tiny receive buffer
        ..TcpConfig::default()
    };
    let (mut c, mut s) = handshake(TcpConfig::default(), recv_cfg);
    let now = SimTime::ZERO;

    // Client floods 16 KB; server never reads.
    let mut e = fx();
    c.app_send(now, &vec![9u8; 16_384], &mut e);
    let mut outgoing: Vec<Segment> = e.segments.drain(..).collect();
    let mut acks: Vec<Segment> = Vec::new();
    for _ in 0..20 {
        let mut sfx = fx();
        for seg in outgoing.drain(..) {
            s.on_segment(now, &seg, &mut sfx);
        }
        acks.append(&mut sfx.segments);
        let mut cfx = fx();
        for ack in acks.drain(..) {
            c.on_segment(now, &ack, &mut cfx);
        }
        outgoing.append(&mut cfx.segments);
        if outgoing.is_empty() {
            break;
        }
    }
    // The server buffered at most its receive window.
    assert!(s.readable_bytes() <= 4096);
    assert!(
        c.unacked_bytes() > 0 || s.readable_bytes() == 4096,
        "sender must be window-blocked"
    );

    // Server app finally reads everything: its window update lets the
    // sender resume (possibly via the persist path).
    let mut sfx = fx();
    let drained = s.app_recv(usize::MAX, &mut sfx);
    assert!(!drained.is_empty());
    assert!(
        !sfx.segments.is_empty(),
        "reading after a closed window must emit a window update"
    );
}

#[test]
fn duplicate_syn_retransmits_synack() {
    let now = SimTime::ZERO;
    let mut cfx = fx();
    let mut _client = Tcb::open_active(CLIENT, SERVER, TcpConfig::default(), now, &mut cfx);
    let syn = cfx.segments.pop().unwrap();
    let mut sfx = fx();
    let mut server = Tcb::open_passive(SERVER, CLIENT, TcpConfig::default(), &syn, now, &mut sfx);
    let first_synack = sfx.segments.pop().unwrap();

    // The SYN is retransmitted (client's RTO fired, say).
    let mut sfx = fx();
    server.on_segment(now, &syn, &mut sfx);
    let second_synack = sfx.segments.pop().expect("dup SYN re-answered");
    assert!(second_synack.flags.syn && second_synack.flags.ack);
    assert_eq!(second_synack.seq, first_synack.seq);
}

#[test]
fn time_wait_expires_and_closes_socket() {
    let (mut c, mut s) = handshake(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    // Full graceful close initiated by the client.
    let mut e = fx();
    c.app_shutdown_write(now, &mut e);
    let fin1 = e.segments.pop().unwrap();
    let mut sfx = fx();
    s.on_segment(now, &fin1, &mut sfx);
    let ack1 = sfx.segments.pop().unwrap();
    let mut e = fx();
    c.on_segment(now, &ack1, &mut e);
    let mut sfx = fx();
    s.app_shutdown_write(now, &mut sfx);
    let fin2 = sfx.segments.pop().unwrap();
    let mut e = fx();
    c.on_segment(now, &fin2, &mut e);
    assert_eq!(c.state(), State::TimeWait);
    let (kind, at, epoch) = *e
        .timers
        .iter()
        .find(|(k, _, _)| *k == TimerKind::TimeWait)
        .expect("time-wait timer armed");
    // A retransmitted FIN during TIME_WAIT is re-acked.
    let mut e2 = fx();
    c.on_segment(now, &fin2, &mut e2);
    assert_eq!(e2.segments.len(), 1);
    assert!(e2.segments[0].flags.ack);
    // Expiry closes the socket.
    let mut e3 = fx();
    c.on_timer(at, kind, epoch, &mut e3);
    assert_eq!(c.state(), State::Closed);
    assert!(e3.notifications.contains(&SockNotify::Closed));
}

#[test]
fn abort_sends_rst_and_peer_discards() {
    let (mut c, mut s) = handshake(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    let mut sfx = fx();
    s.app_send(now, b"already received but unread", &mut sfx);
    let data = sfx.segments.pop().unwrap();
    let mut cfx = fx();
    c.on_segment(now, &data, &mut cfx);
    assert!(c.readable_bytes() > 0);

    let mut cfx = fx();
    c.app_abort(&mut cfx);
    let rst = cfx.segments.pop().unwrap();
    assert!(rst.flags.rst);
    assert_eq!(c.state(), State::Closed);

    let mut sfx = fx();
    s.on_segment(now, &rst, &mut sfx);
    assert!(s.was_reset);
    assert!(sfx.notifications.contains(&SockNotify::Reset));
}

#[test]
fn stale_timer_epochs_are_ignored() {
    let (mut c, _s) = handshake(TcpConfig::default(), TcpConfig::default());
    let now = SimTime::ZERO;
    let mut e = fx();
    c.app_send(now, b"payload", &mut e);
    let (kind, at, epoch) = *e
        .timers
        .iter()
        .find(|(k, _, _)| *k == TimerKind::Rto)
        .unwrap();
    // Ack everything; the RTO should be lazily cancelled.
    let ack = Segment {
        src: SERVER,
        dst: CLIENT,
        seq: 1,
        ack: 8,
        flags: TcpFlags::ACK,
        window: 65_535,
        sack: SackBlocks::NONE,
        payload: Bytes::new(),
    };
    let mut e2 = fx();
    c.on_segment(now, &ack, &mut e2);
    let mut e3 = fx();
    c.on_timer(at, kind, epoch, &mut e3);
    assert!(
        e3.segments.is_empty(),
        "stale RTO must not retransmit after the data was acked"
    );
    assert_eq!(c.segments_retransmitted, 0);
}

/// After a zero-window stall, the receiver's window update must actually
/// restart transmission, and the rest of the stream must arrive.
#[test]
fn window_update_reopens_zero_window_and_sender_resumes() {
    let recv_cfg = TcpConfig {
        recv_window: 4096,
        ..TcpConfig::default()
    };
    let (mut c, mut s) = handshake(TcpConfig::default(), recv_cfg);
    let now = SimTime::ZERO;
    let total = 8192usize;

    let mut e = fx();
    c.app_send(now, &vec![5u8; total], &mut e);
    let mut outgoing: Vec<Segment> = e.segments.drain(..).collect();
    for _ in 0..20 {
        let mut sfx = fx();
        for seg in outgoing.drain(..) {
            s.on_segment(now, &seg, &mut sfx);
        }
        let mut cfx = fx();
        for ack in sfx.segments.drain(..) {
            c.on_segment(now, &ack, &mut cfx);
        }
        outgoing = cfx.segments.drain(..).collect();
        if outgoing.is_empty() {
            break;
        }
    }
    assert_eq!(s.readable_bytes(), 4096, "receiver buffer filled exactly");

    // The application drains the buffer; the resulting window update must
    // make the blocked sender transmit the remainder.
    let mut sfx = fx();
    let drained = s.app_recv(usize::MAX, &mut sfx);
    assert_eq!(drained.len(), 4096);
    let update = sfx.segments.pop().expect("window update emitted");
    assert!(!update.has_payload());
    assert!(
        update.window >= 4096,
        "window reopened, got {}",
        update.window
    );

    let mut cfx = fx();
    c.on_segment(now, &update, &mut cfx);
    assert!(
        cfx.segments.iter().any(|g| g.has_payload()),
        "sender must resume after the window update"
    );
    let mut delivered = drained.len();
    let mut outgoing: Vec<Segment> = cfx.segments.drain(..).collect();
    for _ in 0..20 {
        let mut sfx = fx();
        for seg in outgoing.drain(..) {
            s.on_segment(now, &seg, &mut sfx);
        }
        let mut rfx = fx();
        delivered += s.app_recv(usize::MAX, &mut rfx).len();
        let mut cfx = fx();
        for ack in sfx.segments.drain(..).chain(rfx.segments.drain(..)) {
            c.on_segment(now, &ack, &mut cfx);
        }
        outgoing = cfx.segments.drain(..).collect();
        if outgoing.is_empty() {
            break;
        }
    }
    assert_eq!(delivered, total, "entire stream arrives after the reopen");
}

/// A RST answering our SYN (closed port, admission-control abort) must kill
/// the attempt in SYN-SENT: no reply, no retransmissions, a Reset
/// notification to the application.
#[test]
fn rst_in_syn_sent_aborts_the_attempt() {
    let now = SimTime::ZERO;
    let mut cfx = fx();
    let mut client = Tcb::open_active(CLIENT, SERVER, TcpConfig::default(), now, &mut cfx);
    let syn = cfx.segments.pop().unwrap();
    assert_eq!(client.state(), State::SynSent);
    let (kind, at, epoch) = *cfx
        .timers
        .iter()
        .find(|(k, _, _)| *k == TimerKind::Rto)
        .expect("SYN retransmission timer armed");

    let rst = Segment::rst(SERVER, CLIENT, syn.seq + 1);
    let mut cfx = fx();
    client.on_segment(now, &rst, &mut cfx);
    assert_eq!(client.state(), State::Closed);
    assert!(client.was_reset);
    assert!(cfx.notifications.contains(&SockNotify::Reset));
    assert!(cfx.segments.is_empty(), "an RST draws no reply");

    // The already-armed SYN RTO is stale and must stay silent.
    let mut cfx = fx();
    client.on_timer(at, kind, epoch, &mut cfx);
    assert!(cfx.segments.is_empty(), "no SYN retransmit after the reset");
}

/// End-to-end: sockets_used and max_simultaneous reflect reality for a
/// burst of short connections.
struct Burst {
    server: SockAddr,
    remaining: u32,
    active: u32,
}

impl App for Burst {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => {
                for _ in 0..4u32.min(self.remaining) {
                    ctx.connect(self.server);
                    self.remaining -= 1;
                    self.active += 1;
                }
            }
            AppEvent::Connected(s) => {
                ctx.send(s, b"x");
                ctx.shutdown_write(s);
            }
            AppEvent::PeerFin(_) => {}
            AppEvent::Closed(_) => {
                self.active -= 1;
                if self.remaining > 0 {
                    ctx.connect(self.server);
                    self.remaining -= 1;
                    self.active += 1;
                }
            }
            _ => {}
        }
    }
}

struct OneByteEcho;

impl App for OneByteEcho {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => ctx.listen(80),
            AppEvent::Readable(s) => {
                let _ = ctx.recv(s, usize::MAX);
            }
            AppEvent::PeerFin(s) => ctx.shutdown_write(s),
            _ => {}
        }
    }
}

/// Opens connections strictly one after another, starting the next as soon
/// as the server's FIN arrives — so finished sockets still sit in
/// TIME_WAIT (with live demux claims on their ports) while new ones open.
struct Serial {
    server: SockAddr,
    remaining: u32,
    completed: u32,
}

impl App for Serial {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => {
                ctx.connect(self.server);
                self.remaining -= 1;
            }
            AppEvent::Connected(s) => {
                ctx.send(s, b"x");
                ctx.shutdown_write(s);
            }
            AppEvent::PeerFin(_) if self.remaining > 0 => {
                ctx.connect(self.server);
                self.remaining -= 1;
            }
            AppEvent::Closed(_) => self.completed += 1,
            _ => {}
        }
    }
}

/// Regression for fleet-scale port allocation: >4k sequential connections
/// from one host must all establish and close cleanly, with the allocator
/// skipping ports still held by TIME_WAIT sockets instead of colliding or
/// exhausting.
#[test]
fn four_thousand_sequential_connections_allocate_cleanly() {
    const CONNS: u32 = 4200;
    let mut sim = Simulator::new();
    let c = sim.add_host("client");
    let s = sim.add_host("server");
    let cfg = TcpConfig {
        time_wait: SimDuration::from_millis(50),
        ..TcpConfig::default()
    };
    sim.set_tcp_config(c, cfg.clone());
    sim.set_tcp_config(s, cfg);
    sim.add_link(c, s, LinkConfig::lan());
    sim.install_app(s, Box::new(OneByteEcho));
    sim.install_app(
        c,
        Box::new(Serial {
            server: SockAddr::new(s, 80),
            remaining: CONNS,
            completed: 0,
        }),
    );
    sim.run_until_idle();
    assert_eq!(sim.app_mut::<Serial>(c).unwrap().completed, CONNS);
    let stats = sim.socket_stats(c);
    assert_eq!(stats.sockets_used as u32, CONNS);
    assert_eq!(sim.socket_stats(s).sockets_used as u32, CONNS);
}

#[test]
fn socket_accounting_over_connection_burst() {
    let mut sim = Simulator::new();
    let c = sim.add_host("client");
    let s = sim.add_host("server");
    // Short TIME_WAIT so sockets actually close during the run.
    let cfg = TcpConfig {
        time_wait: SimDuration::from_millis(50),
        ..TcpConfig::default()
    };
    sim.set_tcp_config(c, cfg.clone());
    sim.set_tcp_config(s, cfg);
    sim.add_link(c, s, LinkConfig::lan());
    sim.install_app(s, Box::new(OneByteEcho));
    sim.install_app(
        c,
        Box::new(Burst {
            server: SockAddr::new(s, 80),
            remaining: 12,
            active: 0,
        }),
    );
    sim.run_until_idle();
    let stats = sim.socket_stats(c);
    assert_eq!(stats.sockets_used, 12, "every connection counted");
    assert!(
        stats.max_simultaneous <= 6,
        "at most 4 active plus closing stragglers, got {}",
        stats.max_simultaneous
    );
    let _ = SocketId { host: c, slot: 0 };
}
