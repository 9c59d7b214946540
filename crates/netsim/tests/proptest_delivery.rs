//! Property-style tests for the TCP simulator, driven by a deterministic
//! seeded PRNG (the build environment has no crates.io access, so
//! `proptest` is unavailable): reliable in-order delivery must hold for
//! arbitrary payloads, arbitrary link parameters, deterministic loss
//! patterns, and arbitrary application write chunkings.

use netsim::sim::{App, AppEvent, Ctx};
use netsim::{LinkConfig, SimDuration, Simulator, SockAddr, TcpConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Sends `payload` in the given chunk sizes, then half-closes.
struct ChunkSender {
    server: SockAddr,
    payload: Vec<u8>,
    chunks: Vec<usize>,
    offset: usize,
    chunk_idx: usize,
}

impl ChunkSender {
    fn pump(&mut self, ctx: &mut Ctx<'_>, s: netsim::SocketId) {
        while self.offset < self.payload.len() {
            let chunk = self
                .chunks
                .get(self.chunk_idx)
                .copied()
                .unwrap_or(1024)
                .max(1)
                .min(self.payload.len() - self.offset);
            let n = ctx.send(s, &self.payload[self.offset..self.offset + chunk]);
            if n == 0 {
                return;
            }
            self.offset += n;
            self.chunk_idx += 1;
        }
        ctx.shutdown_write(s);
    }
}

impl App for ChunkSender {
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

/// Collects everything it reads; half-closes back on FIN.
struct Collector {
    received: Vec<u8>,
    peer_closed: bool,
}

impl App for Collector {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::Start => ctx.listen(80),
            AppEvent::Readable(s) => {
                let data = ctx.recv(s, usize::MAX);
                self.received.extend_from_slice(&data);
            }
            AppEvent::PeerFin(s) => {
                self.peer_closed = true;
                // Drain anything still buffered, then close.
                let data = ctx.recv(s, usize::MAX);
                self.received.extend_from_slice(&data);
                ctx.shutdown_write(s);
            }
            _ => {}
        }
    }
}

fn run_transfer(
    payload: Vec<u8>,
    chunks: Vec<usize>,
    link: LinkConfig,
    tcp: TcpConfig,
) -> (Vec<u8>, bool) {
    let mut sim = Simulator::new();
    let client = sim.add_host("client");
    let server = sim.add_host("server");
    sim.set_tcp_config(client, tcp.clone());
    sim.set_tcp_config(server, tcp);
    sim.add_link(client, server, link);
    sim.install_app(
        server,
        Box::new(Collector {
            received: Vec::new(),
            peer_closed: false,
        }),
    );
    sim.install_app(
        client,
        Box::new(ChunkSender {
            server: SockAddr::new(server, 80),
            payload,
            chunks,
            offset: 0,
            chunk_idx: 0,
        }),
    );
    sim.run_until_idle();
    let collector = sim.app_mut::<Collector>(server).unwrap();
    (collector.received.clone(), collector.peer_closed)
}

fn random_bytes(rng: &mut SmallRng, lo: usize, hi: usize) -> Vec<u8> {
    let len = rng.gen_range(lo..hi);
    (0..len).map(|_| rng.gen()).collect()
}

#[test]
fn reliable_delivery_arbitrary_payload() {
    let mut rng = SmallRng::seed_from_u64(0x0007_C901);
    for case in 0..48 {
        let payload = random_bytes(&mut rng, 0, 40_000);
        let chunks: Vec<usize> = (0..rng.gen_range(0..40usize))
            .map(|_| rng.gen_range(1..4096usize))
            .collect();
        let tcp = TcpConfig {
            nodelay: rng.gen(),
            ..TcpConfig::default()
        };
        let (received, closed) = run_transfer(payload.clone(), chunks, LinkConfig::lan(), tcp);
        assert_eq!(received, payload, "case {case}");
        assert!(closed, "case {case}");
    }
}

#[test]
fn reliable_delivery_under_loss() {
    let mut rng = SmallRng::seed_from_u64(0x0007_C902);
    for case in 0..48 {
        let payload = random_bytes(&mut rng, 1, 20_000);
        let drop_every = rng.gen_range(2u64..40);
        let link = LinkConfig::lan().with_drop_every(drop_every);
        let (received, closed) = run_transfer(payload.clone(), vec![], link, TcpConfig::default());
        assert_eq!(received, payload, "case {case} drop_every {drop_every}");
        assert!(closed, "case {case}");
    }
}

#[test]
fn reliable_delivery_any_link_speed() {
    let mut rng = SmallRng::seed_from_u64(0x0007_C903);
    for case in 0..48 {
        let payload = random_bytes(&mut rng, 1, 8_000);
        let kbps = rng.gen_range(16u64..10_000);
        let delay_ms = rng.gen_range(0u64..300);
        let link = LinkConfig {
            bits_per_sec: Some(kbps * 1000),
            propagation: SimDuration::from_millis(delay_ms),
            impair: netsim::ImpairConfig::none(),
            buffer_bytes: None,
        };
        let (received, _) = run_transfer(payload.clone(), vec![], link, TcpConfig::default());
        assert_eq!(
            received, payload,
            "case {case} kbps {kbps} delay {delay_ms}"
        );
    }
}

#[test]
fn reliable_delivery_small_windows() {
    let mut rng = SmallRng::seed_from_u64(0x0007_C904);
    for case in 0..48 {
        let payload = random_bytes(&mut rng, 1, 10_000);
        let window_kb = rng.gen_range(2usize..32);
        let mss = if rng.gen() { 536usize } else { 1460 };
        let tcp = TcpConfig {
            recv_window: window_kb * 1024,
            send_buffer: window_kb * 1024,
            mss,
            ..TcpConfig::default()
        };
        let (received, _) = run_transfer(payload.clone(), vec![], LinkConfig::lan(), tcp);
        assert_eq!(
            received, payload,
            "case {case} window {window_kb}K mss {mss}"
        );
    }
}

#[test]
fn reliable_delivery_under_impairment() {
    use netsim::{ImpairConfig, JitterModel, LossModel};
    let mut rng = SmallRng::seed_from_u64(0x0007_C906);
    for case in 0..32 {
        let payload = random_bytes(&mut rng, 1, 25_000);
        let loss = match rng.gen_range(0u32..3) {
            0 => LossModel::None,
            1 => LossModel::Bernoulli {
                p: rng.gen_range(1u64..100) as f64 / 1000.0, // up to 10%
            },
            _ => LossModel::bursty(rng.gen_range(1u64..80) as f64 / 1000.0, 4.0),
        };
        let mut impair = ImpairConfig::none()
            .with_seed(rng.gen())
            .with_loss(loss)
            .with_duplication(rng.gen_range(0u64..100) as f64 / 1000.0);
        if rng.gen() {
            impair = impair
                .with_jitter(JitterModel::Uniform {
                    min: SimDuration::ZERO,
                    max: SimDuration::from_millis(rng.gen_range(1u64..30)),
                })
                .with_reorder(rng.gen());
        }
        let link = LinkConfig::wan().with_impairment(impair.clone());
        let (received, closed) = run_transfer(payload.clone(), vec![], link, TcpConfig::default());
        assert_eq!(received, payload, "case {case} impair {impair:?}");
        assert!(closed, "case {case} impair {impair:?}");
    }
}

#[test]
fn determinism() {
    let mut rng = SmallRng::seed_from_u64(0x0007_C905);
    for case in 0..48 {
        let payload = random_bytes(&mut rng, 0, 5_000);
        let a = run_transfer(
            payload.clone(),
            vec![],
            LinkConfig::wan(),
            TcpConfig::default(),
        );
        let b = run_transfer(payload, vec![], LinkConfig::wan(), TcpConfig::default());
        assert_eq!(a, b, "case {case}");
    }
}
