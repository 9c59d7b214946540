//! A finished connection pins nothing: the kernel drops a `Tcb` once its
//! application has handled the socket's `Closed` or `Reset` event. The
//! one it keeps — a socket its own application aborted, which gets no
//! such event — holds no buffer storage until the simulator drops.

use netsim::sim::{App, AppEvent, Ctx};
use netsim::tcp::Tcb;
use netsim::{LinkConfig, Simulator, SockAddr, SocketId};

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
    assert_eq!(sim.held_tcbs(), 0);
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
    assert_eq!(sim.held_tcbs(), 1);
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
