//! A finished connection pins nothing: the kernel drops a `Tcb` once its
//! application has handled the socket's `Closed` or `Reset` event. The
//! one it keeps — a socket its own application aborted, which gets no
//! such event — holds no buffer storage until the simulator drops.

use netsim::sim::{App, AppEvent, Ctx};
use netsim::tcp::Tcb;
use netsim::{
    HostId, ImpairConfig, LinkConfig, Segment, SimDuration, SimTime, Simulator, SockAddr, SocketId,
    TcpConfig, TcpFlags, TraceMode, TraceRecord,
};

/// Answers each request with `reply` bytes and closes, HTTP/1.0 style.
struct Server {
    reply: usize,
}

impl App for Server {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => ctx.listen(80),
            AppEvent::Readable(s) if !ctx.recv(s, usize::MAX).is_empty() => {
                ctx.send(s, &vec![0x5A; self.reply]);
                ctx.shutdown_write(s);
            }
            _ => {}
        }
    }
}

/// Connect, send 200 bytes, read the reply to the end, close; again.
struct Churn {
    server: SockAddr,
    remaining: u32,
    completed: u32,
}

impl Churn {
    fn next(&mut self, ctx: &mut Ctx<'_>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.connect(self.server);
        }
    }
}

impl App for Churn {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => self.next(ctx),
            AppEvent::Connected(s) => {
                ctx.send(s, &[0xA5; 200]);
            }
            AppEvent::Readable(s) => {
                let _ = ctx.recv(s, usize::MAX);
            }
            AppEvent::PeerFin(s) => {
                let _ = ctx.recv(s, usize::MAX);
                ctx.close(s);
                self.completed += 1;
                self.next(ctx);
            }
            _ => {}
        }
    }
}

#[test]
fn churned_connections_hold_nothing_once_closed() {
    const CLIENTS: usize = 8;
    const ROUNDS: u32 = 50;
    let mut sim = Simulator::new();
    let server = sim.add_host("server");
    sim.install_app(server, Box::new(Server { reply: 3000 }));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let c = sim.add_host(&format!("client{i}"));
            sim.add_link(c, server, LinkConfig::lan());
            let churn = Churn {
                server: SockAddr::new(server, 80),
                remaining: ROUNDS,
                completed: 0,
            };
            sim.install_app(c, Box::new(churn));
            c
        })
        .collect();
    sim.run_until_idle();
    for &c in &clients {
        assert_eq!(sim.app_mut::<Churn>(c).unwrap().completed, ROUNDS);
    }
    // Both ends of every connection, all through TIME_WAIT by now, and
    // all reaped.
    let sockets = 2 * CLIENTS * ROUNDS as usize;
    assert_eq!(sim.held_sockets(), 0);
    assert_eq!(sim.closed_socket_storage(), (sockets, 0));
}

/// Aborts its one connection on the first bytes of a long reply.
struct Quitter {
    server: SockAddr,
    sock: Option<SocketId>,
}

impl App for Quitter {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => self.sock = Some(ctx.connect(self.server)),
            AppEvent::Connected(s) => {
                ctx.send(s, &[0xA5; 200]);
            }
            // Unread data in the receive buffer, a full send buffer at
            // the other end, segments in flight.
            AppEvent::Readable(s) => ctx.abort(s),
            _ => {}
        }
    }
}

#[test]
fn a_reset_mid_transfer_leaves_nothing_behind() {
    let mut sim = Simulator::new();
    let server = sim.add_host("server");
    let client = sim.add_host("client");
    sim.add_link(client, server, LinkConfig::wan());
    sim.install_app(server, Box::new(Server { reply: 60_000 }));
    let quitter = Quitter {
        server: SockAddr::new(server, 80),
        sock: None,
    };
    sim.install_app(client, Box::new(quitter));
    sim.run_until_idle();
    assert!(sim.app_mut::<Quitter>(client).unwrap().sock.is_some());
    // The server's end was reaped at its `Reset`; the client's own abort
    // is the one `Tcb` held, and it holds nothing.
    assert_eq!(sim.held_sockets(), 1);
    assert_eq!(sim.closed_socket_storage(), (2, 0));
}

/// What the kernel pays per held connection.
#[test]
fn a_tcb_stays_within_its_size() {
    assert!(std::mem::size_of::<Tcb>() <= 480);
}

/// Sends a request and reads the reply to the end once the connection
/// has closed — or, with `read_first`, before it closes, and not after.
struct LateReader {
    server: SockAddr,
    read_first: bool,
    read: usize,
    closed: bool,
}

impl LateReader {
    fn drain(&mut self, ctx: &mut Ctx<'_>, s: SocketId) {
        loop {
            let got = ctx.recv(s, 1000).len();
            if got == 0 {
                break;
            }
            self.read += got;
        }
    }
}

impl App for LateReader {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => {
                ctx.connect(self.server);
            }
            AppEvent::Connected(s) => {
                ctx.send(s, &[0xA5; 200]);
            }
            AppEvent::PeerFin(s) => {
                if self.read_first {
                    self.drain(ctx, s);
                }
                // Half-close, not close: unread bytes then outlive the
                // connection instead of drawing a reset.
                ctx.shutdown_write(s);
            }
            AppEvent::Closed(s) => {
                self.closed = true;
                if !self.read_first {
                    self.drain(ctx, s);
                }
            }
            _ => {}
        }
    }
}

#[test]
fn a_receive_queue_read_to_the_end_after_reassembly_holds_no_deque() {
    const REPLY: usize = 30_000;
    for read_first in [false, true] {
        let mut sim = Simulator::new();
        let server = sim.add_host("server");
        let client = sim.add_host("client");
        // Every fifth packet lost: later segments wait in reassembly and
        // join the receive queue behind the retransmission that fills the
        // hole, so the queue grows a deque.
        sim.add_link(client, server, LinkConfig::lan().with_drop_every(5));
        sim.install_app(server, Box::new(Server { reply: REPLY }));
        let reader = LateReader {
            server: SockAddr::new(server, 80),
            read_first,
            read: 0,
            closed: false,
        };
        sim.install_app(client, Box::new(reader));
        sim.run_until_idle();
        assert!(
            sim.stats(client, server).retransmitted_packets > 0,
            "loss was repaired"
        );
        let reader = sim.app_mut::<LateReader>(client).unwrap();
        assert!(reader.closed, "read_first {read_first}: closed gracefully");
        assert_eq!(reader.read, REPLY, "read_first {read_first}");
        assert_eq!(
            sim.closed_socket_storage(),
            (2, 0),
            "read_first {read_first}"
        );
    }
}

/// Answers a request with 3 000 bytes and closes, as `Server` does,
/// and notes when each of its sockets ended, and how.
struct Noting {
    ended: Vec<(SimTime, AppEvent)>,
}

impl App for Noting {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Closed(_) | AppEvent::Reset(_) => self.ended.push((ctx.now(), ev)),
            _ => Server { reply: 3000 }.on_event(ctx, ev),
        }
    }
}

/// Reads the reply and closes; aborts `abort_after` later, if set.
struct Closer {
    server: SockAddr,
    abort_after: Option<SimDuration>,
}

impl App for Closer {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => {
                ctx.connect(self.server);
            }
            AppEvent::Connected(s) => {
                ctx.send(s, &[0xA5; 200]);
            }
            AppEvent::Readable(s) => {
                let _ = ctx.recv(s, usize::MAX);
            }
            AppEvent::PeerFin(s) => {
                ctx.close(s);
                if let Some(after) = self.abort_after {
                    ctx.set_timer(u64::from(s.slot), after);
                }
            }
            AppEvent::Timer(slot) => ctx.abort(SocketId {
                host: ctx.host(),
                slot: slot as u32,
            }),
            _ => {}
        }
    }
}

/// One HTTP/1.0-style exchange on a 1 ms link whose outage (if any)
/// covers `outage`; the server closes first and waits in TIME_WAIT.
fn exchange(outage: Option<(SimTime, SimTime)>, abort_after: Option<SimDuration>) -> Simulator {
    let mut sim = Simulator::new();
    let server = sim.add_host("server");
    let client = sim.add_host("client");
    let mut impair = ImpairConfig::none();
    if let Some((start, end)) = outage {
        impair = impair.with_outage(start, end);
    }
    let link = LinkConfig::ideal(SimDuration::from_millis(1)).with_impairment(impair);
    sim.add_link(client, server, link);
    sim.install_app(server, Box::new(Noting { ended: Vec::new() }));
    let server = SockAddr::new(server, 80);
    sim.install_app(
        client,
        Box::new(Closer {
            server,
            abort_after,
        }),
    );
    sim.set_trace_mode(TraceMode::Full);
    sim.run_until_idle();
    sim
}

/// The client's FIN reaches the server, whose ACK to it is lost, so the
/// retransmitted FIN reaches the server's socket quiet in TIME_WAIT: it
/// answers with the ACK its `Tcb` sent, and closes at the 2MSL deadline
/// the first FIN set (RFC 9293 §3.10.7.4 would restart it; the kernel
/// keeps it, a known deviation).
#[test]
fn a_retransmitted_fin_into_time_wait_gets_the_same_ack() {
    let clean = exchange(None, None);
    let fin_in = |sim: &Simulator| -> Vec<TraceRecord> {
        let c2s = sim
            .trace()
            .records()
            .iter()
            .filter(|r| r.segment.src.port != 80);
        c2s.filter(|r| r.segment.flags.fin).cloned().collect()
    };
    let first_fin = fin_in(&clean)[0].received;
    let deadline = first_fin + TcpConfig::default().time_wait;
    let outage = (first_fin, first_fin + SimDuration::from_micros(1));
    let mut lossy = exchange(Some(outage), None);

    let dropped: Vec<_> = lossy.trace().drop_records().iter().cloned().collect();
    let [lost] = &dropped[..] else {
        panic!("only the final ACK is lost: {dropped:?}")
    };
    let fins = fin_in(&lossy);
    assert_eq!(fins.len(), 2, "the FIN was retransmitted");
    let re_ack = lossy.trace().records().iter().find(|r| {
        r.segment.src.port == 80 && r.sent == fins[1].received && r.segment.flags == TcpFlags::ACK
    });
    let re_ack = &re_ack.expect("the retransmitted FIN was answered").segment;
    let fields = |s: &Segment| (s.seq, s.ack, s.window, s.flags, s.sack);
    assert_eq!(fields(re_ack), fields(&lost.segment));
    let ended = &lossy.app_mut::<Noting>(HostId(0)).unwrap().ended;
    assert!(matches!(ended[..], [(at, AppEvent::Closed(_))] if at == deadline));
    assert_eq!(lossy.held_sockets(), 0);
}

/// The same lost ACK, and the client gives up on its FIN and aborts:
/// its RST ends the server's socket quiet in TIME_WAIT with `Reset`.
#[test]
fn a_reset_into_time_wait_ends_it_with_reset() {
    let clean = exchange(None, None);
    let c2s = clean
        .trace()
        .records()
        .iter()
        .filter(|r| r.segment.src.port != 80);
    let first_fin = c2s
        .filter(|r| r.segment.flags.fin)
        .map(|r| r.received)
        .next();
    let first_fin = first_fin.expect("the client closed");
    let outage = (first_fin, first_fin + SimDuration::from_micros(1));
    let wait = SimDuration::from_millis(100);
    let mut lossy = exchange(Some(outage), Some(wait));
    let rst = lossy.trace().records().iter().find(|r| r.segment.flags.rst);
    let rst_in = rst.expect("the abort reached the server").received;
    assert_eq!(rst_in, first_fin + wait);
    let ended = &lossy.app_mut::<Noting>(HostId(0)).unwrap().ended;
    assert!(matches!(ended[..], [(at, AppEvent::Reset(_))] if at == rst_in));
    // The client's own abort is the one socket held.
    assert_eq!(lossy.held_sockets(), 1);
}
