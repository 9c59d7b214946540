//! TCP loss-recovery behaviour under the impairment pipeline: RTO
//! exponential backoff with Karn's algorithm, fast retransmit provoked by
//! network reordering, outage/flap survival, duplication and queue-drop
//! tolerance. These are the mechanisms that determine how the paper's
//! protocol comparisons shift once the link is no longer perfect.

use netsim::sim::{App, AppEvent, Ctx};
use netsim::tcp::{Effects, State, Tcb, TcpConfig, TimerKind, INITIAL_RTO};
use netsim::{
    HostId, ImpairConfig, JitterModel, LinkConfig, LossModel, SimDuration, SimTime, Simulator,
    SockAddr,
};

const CLIENT: SockAddr = SockAddr::new(HostId(0), 40_000);
const SERVER: SockAddr = SockAddr::new(HostId(1), 80);

fn fx() -> Effects {
    Effects::default()
}

/// Handshake two TCBs at t=0.
fn handshake() -> (Tcb, Tcb) {
    let now = SimTime::ZERO;
    let mut cfx = fx();
    let mut client = Tcb::open_active(CLIENT, SERVER, TcpConfig::default(), now, &mut cfx);
    let syn = cfx.segments.pop().unwrap();
    let mut sfx = fx();
    let mut server = Tcb::open_passive(SERVER, CLIENT, TcpConfig::default(), &syn, now, &mut sfx);
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

fn rto_timer(e: &Effects) -> (TimerKind, SimTime, u64) {
    *e.timers
        .iter()
        .rev()
        .find(|(k, _, _)| *k == TimerKind::Rto)
        .expect("RTO timer armed")
}

fn ms(v: u64) -> SimTime {
    SimTime::from_nanos(v * 1_000_000)
}

/// Repeated timeouts double the retransmission timer (up to the cap) and
/// Karn's algorithm keeps the ambiguous ACK of a retransmitted segment
/// from polluting the RTT estimate.
#[test]
fn rto_backs_off_exponentially_and_karn_ignores_ambiguous_ack() {
    let (mut c, mut s) = handshake();
    // No RTT sample exists yet (the handshake does not take one), so the
    // base timeout is the initial RTO of 3 s.
    let base = INITIAL_RTO;
    assert_eq!(base, SimDuration::from_millis(3_000));

    // t=1s: send one segment; the network eats it.
    let t0 = ms(1_000);
    let mut e = fx();
    c.app_send(t0, b"lost in transit", &mut e);
    assert_eq!(e.segments.len(), 1);
    let original = e.segments.pop().unwrap();
    let (kind, at, epoch) = rto_timer(&e);
    assert_eq!(at, t0 + base, "first RTO uses the un-backed-off timeout");

    // First timeout: retransmit, and the next deadline doubles.
    let mut e = fx();
    c.on_timer(at, kind, epoch, &mut e);
    assert_eq!(c.segments_retransmitted, 1);
    let rexmit = e.segments.pop().expect("timeout retransmits");
    assert_eq!(rexmit.seq, original.seq);
    assert_eq!(rexmit.payload, original.payload);
    let (kind2, at2, epoch2) = rto_timer(&e);
    assert_eq!(at2, at + base.saturating_mul(2), "backoff doubles: 2x");

    // Second timeout: doubles again (4x base).
    let mut e = fx();
    c.on_timer(at2, kind2, epoch2, &mut e);
    assert_eq!(c.segments_retransmitted, 2);
    let rexmit2 = e.segments.pop().expect("second retransmission");
    assert_eq!(rexmit2.seq, original.seq);
    let (_, at3, _) = rto_timer(&e);
    assert_eq!(at3, at2 + base.saturating_mul(4), "backoff doubles: 4x");

    // The second retransmission finally gets through, 19 s after the
    // original send. Karn's algorithm must NOT take that span (or any
    // span) as an RTT sample — the ACK is ambiguous.
    let t_ack = ms(20_000);
    let mut sfx = fx();
    s.on_segment(t_ack, &rexmit2, &mut sfx);
    let ack = sfx
        .segments
        .iter()
        .find(|seg| seg.ack > original.seq)
        .cloned()
        .or_else(|| {
            // Delayed-ACK path: force it out via the timer.
            let (k, at, ep) = sfx
                .timers
                .iter()
                .rev()
                .find(|(k, _, _)| *k == TimerKind::DelAck)
                .copied()?;
            let mut e = fx();
            s.on_timer(at, k, ep, &mut e);
            e.segments.pop()
        })
        .expect("retransmitted data is acknowledged");
    let mut e = fx();
    c.on_segment(t_ack, &ack, &mut e);
    assert_eq!(c.unacked_bytes(), 0);

    // New data after recovery: the ACK also reset the backoff, and because
    // the ambiguous sample was discarded the timeout is still exactly
    // `base` — not something derived from the 19 s ambiguous span.
    let t1 = ms(21_000);
    let mut e = fx();
    c.app_send(t1, b"fresh", &mut e);
    let (_, at_fresh, _) = rto_timer(&e);
    assert_eq!(
        at_fresh,
        t1 + base,
        "Karn: ambiguous ACK must not inflate the RTO, and backoff resets"
    );
}

// ---------------------------------------------------------------------
// End-to-end transfers through an impaired link
// ---------------------------------------------------------------------

struct Sender {
    server: SockAddr,
    payload: Vec<u8>,
    offset: usize,
}

impl Sender {
    fn pump(&mut self, ctx: &mut Ctx<'_>, s: netsim::SocketId) {
        while self.offset < self.payload.len() {
            let n = ctx.send(s, &self.payload[self.offset..]);
            if n == 0 {
                return;
            }
            self.offset += n;
        }
        ctx.shutdown_write(s);
    }
}

impl App for Sender {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => {
                ctx.connect(self.server);
            }
            AppEvent::Connected(s) | AppEvent::SendSpace(s) => self.pump(ctx, s),
            _ => {}
        }
    }
}

struct Receiver {
    received: Vec<u8>,
    peer_closed: bool,
}

impl App for Receiver {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => ctx.listen(80),
            AppEvent::Readable(s) => {
                let data = ctx.recv(s, usize::MAX);
                self.received.extend_from_slice(&data);
            }
            AppEvent::PeerFin(s) => {
                let data = ctx.recv(s, usize::MAX);
                self.received.extend_from_slice(&data);
                self.peer_closed = true;
                ctx.shutdown_write(s);
            }
            _ => {}
        }
    }
}

/// Runs a one-way transfer over `link`; returns (received, peer_closed,
/// stats).
fn transfer(payload: &[u8], link: LinkConfig) -> (Vec<u8>, bool, netsim::TraceStats) {
    let mut sim = Simulator::new();
    let client = sim.add_host("client");
    let server = sim.add_host("server");
    sim.add_link(client, server, link);
    sim.install_app(
        server,
        Box::new(Receiver {
            received: Vec::new(),
            peer_closed: false,
        }),
    );
    sim.install_app(
        client,
        Box::new(Sender {
            server: SockAddr::new(server, 80),
            payload: payload.to_vec(),
            offset: 0,
        }),
    );
    sim.run_until_idle();
    let stats = sim.stats(client, server);
    let rx = sim.app_mut::<Receiver>(server).unwrap();
    (rx.received.clone(), rx.peer_closed, stats)
}

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// Bursty (Gilbert–Elliott) loss at 5% mean: data still arrives intact
/// and in order, and the trace shows both the drops and the recovery
/// retransmissions.
#[test]
fn bursty_loss_recovers_with_retransmissions() {
    // Big enough that the Gilbert–Elliott chain is all but certain to
    // visit its bad state at 5% mean loss.
    let data = payload(250_000);
    let link = LinkConfig::wan().with_impairment(
        ImpairConfig::none()
            .with_seed(0x000B_00B5)
            .with_loss(LossModel::bursty(0.05, 4.0)),
    );
    let (received, closed, stats) = transfer(&data, link);
    assert_eq!(received, data);
    assert!(closed);
    assert!(stats.drops_loss > 0, "bursty model must actually drop");
    assert!(
        stats.retransmitted_packets > 0,
        "drops must be repaired by retransmissions"
    );
    assert_eq!(stats.drops_outage, 0);
    assert_eq!(stats.drops_queue, 0);
}

/// Jitter with reordering enabled but zero loss: enough packets overtake
/// each other to trigger dup-ACK fast retransmits, yet delivery stays
/// correct and nothing is counted as dropped.
#[test]
fn reordering_triggers_fast_retransmit_without_loss() {
    let data = payload(120_000);
    let link = LinkConfig {
        bits_per_sec: Some(10_000_000),
        propagation: SimDuration::from_millis(5),
        impair: ImpairConfig::none()
            .with_seed(0x0DD5EED)
            .with_jitter(JitterModel::Uniform {
                min: SimDuration::ZERO,
                max: SimDuration::from_millis(12),
            })
            .with_reorder(true),
        buffer_bytes: None,
    };
    let (received, closed, stats) = transfer(&data, link);
    assert_eq!(received, data);
    assert!(closed);
    assert_eq!(stats.drops(), 0, "no packets were dropped");
    assert!(stats.reordered_packets > 0, "jitter must actually reorder");
    assert!(
        stats.retransmitted_packets > 0,
        "reorder-induced dup ACKs must trigger fast retransmit"
    );
}

/// A mid-transfer outage stalls the connection; RTO backoff rides it out
/// and the transfer completes once the link returns.
#[test]
fn outage_is_survived_by_backoff() {
    let data = payload(40_000);
    let link = LinkConfig::wan().with_impairment(
        ImpairConfig::none()
            .with_seed(1)
            .with_outage(ms(100), ms(2_000)),
    );
    let (received, closed, stats) = transfer(&data, link);
    assert_eq!(received, data);
    assert!(closed);
    assert!(stats.drops_outage > 0, "outage window must swallow packets");
    assert!(stats.retransmitted_packets > 0);
}

/// Repeated short flaps: every outage loses packets, every recovery makes
/// progress, and the transfer still completes exactly.
#[test]
fn link_flaps_are_survived() {
    let data = payload(40_000);
    let link = LinkConfig::wan().with_impairment(ImpairConfig::none().with_seed(2).with_flaps(
        ms(50),
        SimDuration::from_millis(400),
        SimDuration::from_millis(1_500),
        4,
    ));
    let (received, closed, stats) = transfer(&data, link);
    assert_eq!(received, data);
    assert!(closed);
    assert!(stats.drops_outage > 0);
}

/// Network-level duplication is invisible to the application: duplicates
/// are counted in the trace as duplicates (never as drops) and the byte
/// stream is unaffected. Note that, as in real TCP, a burst of duplicate
/// segments can still provoke *spurious* fast retransmits — each stale
/// copy elicits a duplicate ACK — so `retransmitted_packets` may be
/// nonzero even though nothing was lost.
#[test]
fn duplication_is_harmless() {
    let data = payload(30_000);
    let link =
        LinkConfig::lan().with_impairment(ImpairConfig::none().with_seed(3).with_duplication(0.2));
    let (received, closed, stats) = transfer(&data, link);
    assert_eq!(received, data);
    assert!(closed);
    assert!(stats.dup_packets > 0, "duplication must actually duplicate");
    assert_eq!(stats.drops(), 0);
}

/// A tight queue bound on a slow link tail-drops bursts; TCP recovers and
/// the stream is still delivered intact.
#[test]
fn queue_overflow_drops_are_recovered() {
    let data = payload(60_000);
    let link = LinkConfig {
        bits_per_sec: Some(1_000_000),
        propagation: SimDuration::from_millis(10),
        ..LinkConfig::lan()
    }
    .with_buffer_bytes(6_000);
    let (received, closed, stats) = transfer(&data, link);
    assert_eq!(received, data);
    assert!(closed);
    assert!(stats.drops_queue > 0, "queue bound must tail-drop");
    assert!(stats.retransmitted_packets > 0);
    assert_eq!(stats.drops_loss, 0);
}

/// The full gauntlet at once — bursty loss, jitter+reorder, duplication
/// and a flap — still yields exact in-order delivery, and identical seeds
/// give identical traces.
#[test]
fn combined_impairments_deterministic_and_reliable() {
    let data = payload(50_000);
    let mk = || {
        LinkConfig::wan().with_impairment(
            ImpairConfig::none()
                .with_seed(0xC0FFEE)
                .with_loss(LossModel::bursty(0.02, 3.0))
                .with_jitter(JitterModel::Exponential {
                    mean: SimDuration::from_millis(4),
                    cap: SimDuration::from_millis(40),
                })
                .with_reorder(true)
                .with_duplication(0.05)
                .with_flaps(
                    ms(500),
                    SimDuration::from_millis(200),
                    SimDuration::from_millis(3_000),
                    2,
                ),
        )
    };
    let (rx1, closed1, stats1) = transfer(&data, mk());
    let (rx2, closed2, stats2) = transfer(&data, mk());
    assert_eq!(rx1, data);
    assert_eq!(rx2, data);
    assert!(closed1 && closed2);
    assert!(stats1.drops() > 0);
    assert_eq!(stats1, stats2, "identical seeds give identical traces");
}
