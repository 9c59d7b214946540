//! A finished connection pins no buffer storage: the kernel keeps every
//! `Tcb` it ever made (a host's socket table never shrinks), so whatever
//! a `Closed` one still holds is held until the simulator drops.

use netsim::sim::{App, AppEvent, Ctx};
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
    // Both ends of every connection, all through TIME_WAIT by now.
    let sockets = 2 * CLIENTS * ROUNDS as usize;
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
    assert_eq!(sim.closed_socket_storage(), (2, 0));
}
