//! The only file of the ledger that names repository APIs. Everything
//! else speaks the ledger's own vocabulary (`plan`, `pass`, `span`), so
//! a change that collapses or renames the repository's entry points has
//! one file to migrate — and until a benchmark change migrates it, the
//! names used here must survive as thin wrappers (README, "Surface").
//!
//! Two halves: running plan items through the harness with a span around
//! every call, and the bodies of the per-layer probes (`layers.rs` owns
//! their names, repetitions and timing).

use crate::digest::{splitmix, Fnv};
use crate::pass::{ClientFacts, Expect, ItemFacts};
use crate::plan::{self, Cc, Cell, Content, Env, Fleet, Item, LossShape, Server, Setup};
use crate::span::Tracer;

use httpclient::{ClientConfig, RequestStyle, Workload};
use httpipe_core::env::NetEnv;
use httpipe_core::harness::{
    check_config_for, custom_store, matrix_spec, microscape_store, primed_cache,
    run_cells_threaded, run_fleet, run_spec, CellSpec, FleetSpec, ProtocolSetup, RunOutput,
    Scenario,
};
use httpipe_core::result::CellResult;
use httpmux::{MuxConn, MuxEvent};
use httpserver::{ServerConfig, ServerKind, SiteStore};
use httpwire::{Method, Request, RequestParser, Response, ResponseParser, StatusCode, Version};
use netsim::queue::EventQueue;
use netsim::sim::{App, AppEvent, Ctx};
use netsim::tcp::{Effects, SockNotify, Tcb, TimerKind};
use netsim::{
    CcVariant, HostId, ImpairConfig, JitterModel, Link, LinkConfig, LossModel, Metric, SackBlocks,
    Scope, Segment, SimDuration, SimTime, Simulator, SockAddr, SocketId, TcpConfig, TcpFlags,
    TelemetrySink, TraceMode, Transmit,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use webcontent::microscape::Microscape;

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// Inputs the ledger generates itself and hands to the program as
/// finished stores and path lists.
pub struct Inputs {
    bulk_store: Arc<SiteStore>,
    bulk_paths: Vec<String>,
    bulk_bytes: u64,
}

impl Inputs {
    /// No bulk objects: all that a plan without bulk cells needs.
    pub fn empty() -> Inputs {
        Inputs::new(Vec::new())
    }

    /// Wrap the bulk objects into a server store.
    pub fn new(objects: Vec<(String, Vec<u8>)>) -> Inputs {
        let bulk_paths = objects.iter().map(|(p, _)| p.clone()).collect();
        let bulk_bytes = objects.iter().map(|(_, b)| b.len() as u64).sum();
        let typed: Vec<(String, Vec<u8>, &'static str)> = objects
            .into_iter()
            .map(|(p, b)| (p, b, "application/octet-stream"))
            .collect();
        Inputs {
            bulk_store: custom_store(&typed),
            bulk_paths,
            bulk_bytes,
        }
    }
}

/// Build the Microscape inputs from nothing, as a process that had
/// cached none of them would: generate the site, build its store (which
/// deflates the HTML) and prime a client cache. Returns a size so the
/// work cannot be optimised away.
pub fn build_site_inputs() -> usize {
    let site = Microscape::generate();
    // A site other than the canonical one bypasses the harness's memo.
    let store = microscape_store(&site);
    let cache = primed_cache(&site);
    black_box(store.total_bytes() + cache.len())
}

// ---------------------------------------------------------------------
// Plan → spec
// ---------------------------------------------------------------------

fn env(e: Env) -> NetEnv {
    match e {
        Env::Lan => NetEnv::Lan,
        Env::Wan => NetEnv::Wan,
        Env::Ppp => NetEnv::Ppp,
    }
}

fn setup(s: Setup) -> ProtocolSetup {
    match s {
        Setup::Http10 => ProtocolSetup::Http10,
        Setup::Http11 => ProtocolSetup::Http11,
        Setup::Pipelined => ProtocolSetup::Http11Pipelined,
        Setup::PipelinedDeflate => ProtocolSetup::Http11PipelinedDeflate,
        Setup::Mux => ProtocolSetup::Multiplexed,
    }
}

fn cc(c: Cc) -> CcVariant {
    match c {
        Cc::Reno => CcVariant::Reno,
        Cc::NewReno => CcVariant::NewReno,
        Cc::Sack => CcVariant::Sack,
        Cc::Cubic => CcVariant::Cubic,
    }
}

fn loss_model(permille: u32, shape: LossShape) -> LossModel {
    let p = f64::from(permille) / 1000.0;
    match shape {
        LossShape::Bernoulli => LossModel::Bernoulli { p },
        LossShape::Burst4 => LossModel::bursty(p, 4.0),
    }
}

fn cell_spec(cell: &Cell, inputs: &Inputs, tr: &mut Tracer) -> CellSpec {
    let span = tr.enter("harness.matrix_spec", String::new);
    let mut spec = matrix_spec(
        env(cell.env),
        match cell.server {
            Server::Jigsaw => ServerKind::Jigsaw,
            Server::Apache => ServerKind::Apache,
        },
        setup(cell.setup),
        match cell.content {
            Content::Revalidate => Scenario::Revalidate,
            Content::FirstTime | Content::Bulk => Scenario::FirstTime,
        },
    );
    tr.exit(span, 1);
    if cell.content == Content::Bulk {
        spec.store = Arc::clone(&inputs.bulk_store);
        spec.workload = Workload::FetchList {
            paths: inputs.bulk_paths.clone(),
        };
    }
    if let Some(loss) = cell.loss {
        spec.impair = Some(
            ImpairConfig::none()
                .with_seed(loss.seed)
                .with_loss(loss_model(loss.permille, loss.shape)),
        );
    }
    if cell.cc != Cc::Reno {
        spec.tcp = Some(TcpConfig {
            cc: cc(cell.cc),
            ..TcpConfig::default()
        });
    }
    if cell.observed {
        spec.trace_mode = TraceMode::Full;
        spec.probe = true;
        spec.telemetry = true;
    }
    spec
}

/// SYN-queue depth of the fleet server and bottleneck buffer per
/// environment: the scale experiment's `ScalePoint` parameters, written
/// out so that a change to that experiment cannot change this workload.
const FLEET_LISTEN_BACKLOG: u32 = 64;

fn fleet_buffer_bytes(e: Env) -> u64 {
    match e {
        Env::Lan | Env::Wan => 256 * 1024,
        Env::Ppp => 128 * 1024,
    }
}

fn fleet_spec(fleet: &Fleet) -> FleetSpec {
    let site = webcontent::microscape::site();
    FleetSpec {
        n_clients: fleet.clients as usize,
        env: env(fleet.env),
        setup: setup(fleet.setup),
        server: ServerConfig::apache(80).with_listen_backlog(FLEET_LISTEN_BACKLOG),
        store: microscape_store(site),
        workload: Workload::Browse {
            start: site.html_path().into(),
        },
        buffer_bytes: Some(fleet_buffer_bytes(fleet.env)),
        reset_backoff: SimDuration::ZERO,
        tcp: None,
        trace_mode: if fleet.observed {
            TraceMode::Full
        } else {
            TraceMode::StatsOnly
        },
        telemetry: fleet.observed,
    }
}

/// What every client of `item` must end up with.
pub fn expect(item: &Item, inputs: &Inputs) -> Expect {
    let site = webcontent::microscape::site();
    let html = site.html.len() as u64;
    let images: u64 = site.images.iter().map(|o| o.body.len() as u64).sum();
    let objects = 1 + site.images.len() as u64;
    match item {
        Item::Fleet(_) => Expect {
            objects,
            body_bytes: html + images,
        },
        Item::Cell(c) => match c.content {
            Content::FirstTime => Expect {
                objects,
                body_bytes: html + images,
            },
            // The HTTP/1.0 robot has no validators: it GETs the page
            // again and HEADs the images. Everyone else gets 43 × 304.
            Content::Revalidate => Expect {
                objects,
                body_bytes: if c.setup == Setup::Http10 { html } else { 0 },
            },
            Content::Bulk => Expect {
                objects: inputs.bulk_paths.len() as u64,
                body_bytes: inputs.bulk_bytes,
            },
        },
    }
}

// ---------------------------------------------------------------------
// Running an item
// ---------------------------------------------------------------------

/// An item's results as the repository returned them. Turning them into
/// [`ItemFacts`] renders every record, so it happens after the pass
/// timer has stopped.
pub struct Raw {
    cells: Vec<CellResult>,
    violations: u64,
    pcap_failed: bool,
    probe_records: u64,
}

impl Raw {
    pub fn packets(&self) -> u64 {
        self.cells.iter().map(CellResult::packets).sum()
    }

    pub fn facts(&self) -> ItemFacts {
        let mut h = Fnv::new();
        for c in &self.cells {
            h.write(format!("{c:?}").as_bytes());
        }
        ItemFacts {
            clients: self
                .cells
                .iter()
                .map(|c| ClientFacts {
                    packets: c.packets(),
                    wire_bytes: c.bytes,
                    sim_secs: c.secs,
                    fetched: c.fetched,
                    body_bytes: c.body_bytes,
                    retries: c.retries,
                    sockets_used: c.sockets_used,
                })
                .collect(),
            violations: self.violations,
            pcap_failed: self.pcap_failed,
            probe_records: self.probe_records,
            digest: h.finish(),
        }
    }
}

/// Run one plan item: build its spec, run it, and — when it is observed
/// — run every checker and exporter over what it left behind.
pub fn run_item(item: &Item, inputs: &Inputs, tr: &mut Tracer) -> Raw {
    let span = tr.enter("cell", || item.label());
    let raw = match item {
        Item::Cell(cell) => run_cell(cell, inputs, tr),
        Item::Fleet(fleet) => run_one_fleet(fleet, tr),
    };
    tr.exit(span, raw.packets());
    raw
}

fn run_cell(cell: &Cell, inputs: &Inputs, tr: &mut Tracer) -> Raw {
    let spec = cell_spec(cell, inputs, tr);
    let check = cell.observed.then(|| check_config_for(&spec));

    let span = tr.enter("harness.run_spec", String::new);
    let out = run_spec(spec);
    tr.exit(span, out.cell.packets());

    let mut raw = Raw {
        cells: vec![out.cell],
        violations: 0,
        pcap_failed: false,
        probe_records: 0,
    };
    let Some(check) = check else {
        drop_sim(out.sim, tr);
        return raw;
    };

    let trace = out.sim.trace();
    let span = tr.enter("conformance.check_trace", String::new);
    let report = conformance::check_trace(trace.records(), trace.drop_records(), &check);
    tr.exit(span, report.segments as u64);
    raw.violations = report.violations.len() as u64;

    let stats = out.sim.stats(out.client_host, out.server_host);
    let start = stats.first.unwrap_or(SimTime::ZERO);
    let records = out.sim.probe_records();
    let span = tr.enter("probe.attribute", String::new);
    black_box(netsim::probe::attribute(
        records,
        start,
        stats.last.unwrap_or(start),
    ));
    tr.exit(span, records.len() as u64);
    raw.probe_records = records.len() as u64;

    let span = tr.enter("pcapng.export_trace", String::new);
    let capture = netsim::pcapng::export_trace(trace);
    tr.exit(span, trace.len() as u64);
    let span = tr.enter("pcapng.parse", String::new);
    let parsed = capture
        .as_deref()
        .ok()
        .map(|bytes| netsim::pcapng::parse(bytes).map(|packets| packets.len()));
    tr.exit(span, trace.len() as u64);
    raw.pcap_failed = parsed != Some(Ok(trace.len()));
    drop_sim(out.sim, tr);
    raw
}

/// Tearing a simulator down frees every socket, buffer and retained
/// record: part of the pass, and a span of its own.
fn drop_sim(sim: Simulator, tr: &mut Tracer) {
    let span = tr.enter("sim.drop", String::new);
    drop(sim);
    tr.exit(span, 1);
}

fn run_one_fleet(fleet: &Fleet, tr: &mut Tracer) -> Raw {
    let spec = fleet_spec(fleet);
    // The configuration `run_fleet_checked` judges a fleet trace by.
    let check = fleet.observed.then(|| conformance::CheckConfig {
        tcp: TcpConfig::default(),
        client_nodelay: ClientConfig::robot(
            spec.setup.mode(),
            SockAddr::new(HostId(0), spec.server.port),
        )
        .nodelay,
        server_nodelay: spec.server.nodelay,
        server_port: spec.server.port,
        http: true,
    });

    let span = tr.enter("harness.run_fleet", String::new);
    let out = run_fleet(spec);
    tr.exit(span, out.per_client.iter().map(CellResult::packets).sum());

    let mut violations = 0;
    if let Some(check) = check {
        let trace = out.sim.trace();
        let span = tr.enter("conformance.check_trace", String::new);
        let report = conformance::check_trace(trace.records(), trace.drop_records(), &check);
        tr.exit(span, report.segments as u64);
        violations = report.violations.len() as u64;

        let span = tr.enter("telemetry.render_csv", String::new);
        let csv = out.sim.telemetry().render_csv();
        tr.exit(span, csv.len() as u64);
        black_box(csv);
    }
    drop_sim(out.sim, tr);
    Raw {
        cells: out.per_client,
        violations,
        pcap_failed: false,
        probe_records: 0,
    }
}

// =====================================================================
// Layer probe bodies. Each runs a fixed amount of work against one
// layer's public functions and returns the number of operations it
// performed; `layers.rs` times them.
// =====================================================================

const CLIENT: SockAddr = SockAddr::new(HostId(0), 40_000);
const SERVER: SockAddr = SockAddr::new(HostId(1), 80);

// ---------------------------------------------------------------------
// netsim::queue
// ---------------------------------------------------------------------

/// `n` pushes at most 2 ms ahead, a pop after every second push, then a
/// drain: the arrival/ACK traffic of a busy cell. Returns pushes + pops.
pub fn queue_near(n: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::wheel();
    let (mut state, mut now) = (7u64, 0u64);
    for i in 0..n {
        state = splitmix(state);
        q.push(SimTime::from_nanos(now + state % 2_000_000), i);
        if i % 2 == 0 {
            if let Some((at, _)) = q.pop_before(SimTime::MAX) {
                now = at.as_nanos();
            }
        }
    }
    while let Some(e) = q.pop_before(SimTime::MAX) {
        black_box(e);
    }
    2 * n
}

/// Retransmission-timer traffic at fleet scale: `pending` entries stay
/// queued throughout, and every eighth push lands 0.2–3 s ahead, where
/// most such timers go stale before they fire. Returns pushes + pops
/// after the prefill.
pub fn queue_timers(n: u64, pending: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::wheel();
    let (mut state, mut now) = (11u64, 0u64);
    let far = |state: &mut u64| {
        *state = splitmix(*state);
        200_000_000 + *state % 2_800_000_000
    };
    for i in 0..pending {
        q.push(SimTime::from_nanos(far(&mut state)), i);
    }
    for i in 0..n {
        let delta = if i % 8 == 0 {
            far(&mut state)
        } else {
            state = splitmix(state);
            state % 2_000_000
        };
        q.push(SimTime::from_nanos(now + delta), i);
        let (at, e) = q.pop_before(SimTime::MAX).expect("the queue stays full");
        now = at.as_nanos();
        black_box(e);
    }
    assert_eq!(q.len() as u64, pending);
    2 * n
}

// ---------------------------------------------------------------------
// netsim::link + impair
// ---------------------------------------------------------------------

fn mss_segment() -> Segment {
    Segment {
        src: CLIENT,
        dst: SERVER,
        seq: 1,
        ack: 1,
        flags: TcpFlags::ACK,
        window: 65_535,
        sack: SackBlocks::NONE,
        payload: bytes::Bytes::pooled_copy_from_slice(&[0u8; 1460]),
    }
}

/// `n` full-size segments through a LAN link; with `impaired`, through
/// 2 % Bernoulli loss and up to 5 ms of jitter. Returns `(n, drops)`.
pub fn link_transmit(n: u64, impaired: bool) -> (u64, u64) {
    let mut config = LinkConfig::lan();
    if impaired {
        config = config.with_impairment(
            ImpairConfig::none()
                .with_seed(42)
                .with_loss(LossModel::Bernoulli { p: 0.02 })
                .with_jitter(JitterModel::Uniform {
                    min: SimDuration::ZERO,
                    max: SimDuration::from_millis(5),
                }),
        );
    }
    let mut link = Link::new(CLIENT.host, SERVER.host, config);
    let seg = mss_segment();
    let (mut now, mut drops) = (SimTime::ZERO, 0);
    for _ in 0..n {
        match link.transmit(now, CLIENT.host, &seg).0 {
            Transmit::Dropped(_) => drops += 1,
            other => {
                black_box(other);
            }
        }
        // Offer packets at line rate so the serialisation queue stays short.
        now += SimDuration::transmission(seg.wire_len(), 10_000_000);
    }
    (n, drops)
}

// ---------------------------------------------------------------------
// netsim::tcp + cc: two sans-IO TCBs joined by a driver, no kernel
// ---------------------------------------------------------------------

/// One-way delay between the two TCBs.
const PAIR_DELAY: SimDuration = SimDuration::from_millis(5);
/// Bytes the sending application writes at a time.
const PAIR_WRITE: usize = 16 * 1024;

struct TcbPair {
    /// `[sender, receiver]`; the receiver exists once the SYN arrives.
    tcbs: [Option<Tcb>; 2],
    cfg: TcpConfig,
    /// In flight, in arrival order (one delay, so sends are ordered).
    wire: VecDeque<(SimTime, usize, Segment)>,
    /// Latest arming of each timer per side; an older one is stale.
    timers: [[Option<(SimTime, u64)>; TimerKind::COUNT]; 2],
    notes: VecDeque<(usize, SockNotify)>,
    now: SimTime,
    segments: u64,
    data_segments: u64,
    drop_every: Option<u64>,
    to_send: usize,
    sent: usize,
    received: usize,
}

const TIMER_KINDS: [TimerKind; TimerKind::COUNT] = [
    TimerKind::Rto,
    TimerKind::DelAck,
    TimerKind::TimeWait,
    TimerKind::Persist,
];

impl TcbPair {
    fn absorb(&mut self, side: usize, fx: &mut Effects) {
        for seg in fx.segments.drain(..) {
            self.segments += 1;
            if seg.has_payload() {
                self.data_segments += 1;
                if self
                    .drop_every
                    .is_some_and(|n| self.data_segments.is_multiple_of(n))
                {
                    continue;
                }
            }
            self.wire.push_back((self.now + PAIR_DELAY, 1 - side, seg));
        }
        for (kind, at, epoch) in fx.timers.drain(..) {
            self.timers[side][kind.index()] = Some((at, epoch));
        }
        for note in fx.notifications.drain(..) {
            self.notes.push_back((side, note));
        }
    }

    fn write_more(&mut self, fx: &mut Effects) {
        static ZEROS: [u8; PAIR_WRITE] = [0; PAIR_WRITE];
        let tcb = self.tcbs[0].as_mut().expect("sender exists");
        while self.sent < self.to_send {
            let want = PAIR_WRITE.min(self.to_send - self.sent);
            let took = tcb.app_send(self.now, &ZEROS[..want], fx);
            self.sent += took;
            if took < want {
                break;
            }
        }
        if self.sent == self.to_send {
            tcb.app_shutdown_write(self.now, fx);
        }
        self.absorb(0, fx);
    }

    /// The two applications: the sender writes until done and then
    /// half-closes; the receiver reads everything and closes after the
    /// sender's FIN.
    fn run_apps(&mut self, fx: &mut Effects) {
        while let Some((side, note)) = self.notes.pop_front() {
            match (side, note) {
                (0, SockNotify::Connected | SockNotify::SendSpace) => self.write_more(fx),
                (1, SockNotify::Readable) => {
                    let tcb = self.tcbs[1].as_mut().expect("receiver exists");
                    self.received += tcb.app_recv(usize::MAX, fx).len();
                    self.absorb(1, fx);
                }
                (1, SockNotify::PeerFin) => {
                    let tcb = self.tcbs[1].as_mut().expect("receiver exists");
                    tcb.app_shutdown_write(self.now, fx);
                    self.absorb(1, fx);
                }
                _ => {}
            }
        }
    }

    fn next_timer(&self) -> Option<(SimTime, usize, usize)> {
        let mut best = None;
        for side in 0..2 {
            for kind in 0..TimerKind::COUNT {
                if let Some((at, _)) = self.timers[side][kind] {
                    if best.is_none_or(|(b, _, _)| at < b) {
                        best = Some((at, side, kind));
                    }
                }
            }
        }
        best
    }
}

/// Open a connection, move `bytes` from one TCB to the other under
/// congestion control `variant`, and close both ways. The driver loses
/// every `drop_every`-th data segment. Returns segments emitted.
pub fn tcp_transfer(variant: Cc, bytes: usize, drop_every: Option<u64>) -> u64 {
    let cfg = TcpConfig {
        cc: cc(variant),
        ..TcpConfig::default()
    };
    let mut fx = Effects::default();
    let mut pair = TcbPair {
        tcbs: [None, None],
        cfg: cfg.clone(),
        wire: VecDeque::new(),
        timers: [[None; TimerKind::COUNT]; 2],
        notes: VecDeque::new(),
        now: SimTime::ZERO,
        segments: 0,
        data_segments: 0,
        drop_every,
        to_send: bytes,
        sent: 0,
        received: 0,
    };
    pair.tcbs[0] = Some(Tcb::open_active(CLIENT, SERVER, cfg, pair.now, &mut fx));
    pair.absorb(0, &mut fx);
    loop {
        let arrival = pair.wire.front().map(|w| w.0);
        let timer = pair.next_timer();
        match (arrival, timer) {
            (None, None) => break,
            (Some(at), t) if t.is_none_or(|(due, _, _)| at <= due) => {
                let (_, to, seg) = pair.wire.pop_front().expect("front exists");
                pair.now = at;
                match pair.tcbs[to].as_mut() {
                    Some(tcb) => tcb.on_segment(at, &seg, &mut fx),
                    None => {
                        let cfg = pair.cfg.clone();
                        pair.tcbs[to] =
                            Some(Tcb::open_passive(SERVER, CLIENT, cfg, &seg, at, &mut fx));
                    }
                }
                pair.absorb(to, &mut fx);
            }
            (_, Some((due, side, kind))) => {
                let (_, epoch) = pair.timers[side][kind].take().expect("armed");
                pair.now = due;
                let tcb = pair.tcbs[side].as_mut().expect("armed timers have a TCB");
                tcb.on_timer(due, TIMER_KINDS[kind], epoch, &mut fx);
                pair.absorb(side, &mut fx);
            }
            (Some(_), None) => unreachable!("covered by the guarded arm"),
        }
        pair.run_apps(&mut fx);
    }
    assert_eq!(pair.received, bytes, "every byte crossed the pair");
    assert!(
        pair.tcbs.iter().flatten().all(Tcb::fully_closed),
        "both ends closed"
    );
    pair.segments
}

// ---------------------------------------------------------------------
// netsim::sim: source and sink applications, no HTTP
// ---------------------------------------------------------------------

/// Opens `conns` connections one after another, writes `per_conn` bytes
/// on each and half-closes; the next one starts when the sink's FIN
/// arrives.
struct Source {
    sink: SockAddr,
    conns: u32,
    per_conn: usize,
    sent: usize,
}

impl Source {
    fn write_more(&mut self, ctx: &mut Ctx<'_>, sock: SocketId) {
        static ZEROS: [u8; PAIR_WRITE] = [0; PAIR_WRITE];
        while self.sent < self.per_conn {
            let want = PAIR_WRITE.min(self.per_conn - self.sent);
            let took = ctx.send(sock, &ZEROS[..want]);
            self.sent += took;
            if took < want {
                return;
            }
        }
        ctx.shutdown_write(sock);
    }
}

impl App for Source {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: AppEvent) {
        match event {
            AppEvent::Start => {
                ctx.connect(self.sink);
            }
            AppEvent::Connected(s) | AppEvent::SendSpace(s) => self.write_more(ctx, s),
            AppEvent::PeerFin(_) => {
                self.conns -= 1;
                if self.conns > 0 {
                    self.sent = 0;
                    ctx.connect(self.sink);
                }
            }
            _ => {}
        }
    }
}

/// Reads everything, closes when the peer does.
#[derive(Default)]
struct Sink {
    received: u64,
}

impl App for Sink {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: AppEvent) {
        match event {
            AppEvent::Start => ctx.listen(80),
            AppEvent::Readable(s) => self.received += ctx.recv(s, usize::MAX).len() as u64,
            AppEvent::PeerFin(s) => ctx.close(s),
            _ => {}
        }
    }
}

/// Packets and kernel events of one source/sink simulation.
pub struct SimRun {
    pub packets: u64,
    pub events: u64,
    pub conns: u64,
}

/// `spokes` sources behind one link to one sink, each opening `conns`
/// connections of `per_conn` bytes. One spoke is the two-host topology
/// of a matrix cell; many share the link as a fleet's clients do.
pub fn sim_transfer(spokes: u16, conns: u32, per_conn: usize) -> SimRun {
    let mut sim = Simulator::new();
    let sources: Vec<HostId> = (0..spokes)
        .map(|i| sim.add_host(&format!("source{i}")))
        .collect();
    let sink = sim.add_host("sink");
    if spokes == 1 {
        sim.add_link(sources[0], sink, LinkConfig::lan());
    } else {
        sim.add_shared_link(
            &sources,
            sink,
            LinkConfig::lan().with_buffer_bytes(fleet_buffer_bytes(Env::Lan)),
        );
    }
    sim.install_app(sink, Box::new(Sink::default()));
    for &s in &sources {
        sim.install_app(
            s,
            Box::new(Source {
                sink: SockAddr::new(sink, 80),
                conns,
                per_conn,
                sent: 0,
            }),
        );
    }
    let events = sim.run_until_idle();
    let expected = u64::from(spokes) * u64::from(conns) * per_conn as u64;
    let received = sim.app_mut::<Sink>(sink).expect("sink app").received;
    assert_eq!(received, expected, "the sink received every byte");
    SimRun {
        packets: sources
            .iter()
            .map(|&s| sim.stats(s, sink).total_packets())
            .sum(),
        events,
        conns: u64::from(spokes) * u64::from(conns),
    }
}

/// Build and drop `n` empty two-host simulations.
pub fn sim_build(n: u64) -> u64 {
    for _ in 0..n {
        let mut sim = Simulator::new();
        let a = sim.add_host("client");
        let b = sim.add_host("server");
        sim.add_link(a, b, LinkConfig::lan());
        black_box(&mut sim);
    }
    n
}

// ---------------------------------------------------------------------
// Observers: netsim::trace, probe, telemetry, pcapng — and conformance
// ---------------------------------------------------------------------

/// Which observer a matrix sweep switches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observer {
    None,
    FullTrace,
    Probe,
    Telemetry,
}

/// The 44 matrix cells with one observer on. Returns packets.
pub fn matrix_sweep(observer: Observer) -> u64 {
    let inputs = Inputs::empty();
    let mut off = Tracer::off();
    let mut packets = 0;
    for item in plan::matrix(false) {
        let Item::Cell(cell) = item else {
            unreachable!()
        };
        let mut spec = cell_spec(&cell, &inputs, &mut off);
        match observer {
            Observer::None => {}
            Observer::FullTrace => spec.trace_mode = TraceMode::Full,
            Observer::Probe => spec.probe = true,
            Observer::Telemetry => spec.telemetry = true,
        }
        packets += run_spec(spec).cell.packets();
    }
    packets
}

/// One LAN HTTP/1.0 fleet of `clients`, telemetry on or off. Returns packets.
pub fn telemetry_fleet(clients: u32, telemetry: bool) -> u64 {
    let mut spec = fleet_spec(&Fleet {
        env: Env::Lan,
        setup: Setup::Http10,
        clients,
        observed: false,
    });
    spec.telemetry = telemetry;
    let out = run_fleet(spec);
    out.per_client.iter().map(CellResult::packets).sum()
}

/// `per_series` gauge writes to each of `k` connection scopes, visited
/// in a scattered order as a fleet's connections are. Returns writes.
pub fn telemetry_gauge(k: u32, per_series: u32) -> u64 {
    assert!(k.is_power_of_two());
    let mut sink = TelemetrySink::default();
    sink.enable();
    for round in 0..per_series {
        let now = SimTime::from_nanos(u64::from(round) * 20_000_000);
        for i in 0..k {
            let j = i.wrapping_mul(0x9E37_79B1) & (k - 1);
            let host = HostId((j % 256) as u16);
            let scope = Scope::Conn {
                host,
                local: SockAddr::new(host, 1024 + (j / 256) as u16),
                remote: SERVER,
            };
            sink.gauge(now, scope, Metric::Cwnd, u64::from(round * 1460 + j));
        }
    }
    assert_eq!(sink.series().len(), k as usize);
    u64::from(k) * u64::from(per_series)
}

/// Finished runs that the observer, conformance and content probes read
/// again and again. Built once, outside any timing.
pub struct Fixture {
    run: RunOutput,
    check: conformance::CheckConfig,
    capture: Vec<u8>,
    fleet_sink: Simulator,
    site: Microscape,
    bulk: Inputs,
    bulk_kib: u64,
}

/// Objects in the `http.bulk_us_per_kib.*` cells.
const HTTP_BULK_OBJECTS: u64 = 4;

impl Fixture {
    /// `fleet_clients` sizes the telemetry fleet whose sink is rendered;
    /// `bulk_object_bytes` the four objects of the per-KiB cells.
    pub fn new(fleet_clients: u32, bulk_object_bytes: usize) -> Fixture {
        let cell = Cell {
            observed: true,
            ..Cell::clean(Env::Wan, Setup::Http10, Content::FirstTime)
        };
        let spec = cell_spec(&cell, &Inputs::empty(), &mut Tracer::off());
        let check = check_config_for(&spec);
        let run = run_spec(spec);
        let capture = netsim::pcapng::export_trace(run.sim.trace()).expect("a full trace");
        let mut fleet = fleet_spec(&Fleet {
            env: Env::Lan,
            setup: Setup::Http10,
            clients: fleet_clients,
            observed: false,
        });
        fleet.telemetry = true;
        let objects = (0..HTTP_BULK_OBJECTS)
            .map(|i| {
                (
                    format!("/big/{i}.bin"),
                    plan::seeded_bytes(5, i, bulk_object_bytes),
                )
            })
            .collect();
        Fixture {
            run,
            check,
            capture,
            fleet_sink: run_fleet(fleet).sim,
            site: Microscape::generate(),
            bulk: Inputs::new(objects),
            bulk_kib: HTTP_BULK_OBJECTS * bulk_object_bytes as u64 / 1024,
        }
    }

    /// Packets in the retained trace.
    pub fn trace_packets(&self) -> u64 {
        self.run.sim.trace().len() as u64
    }

    /// Check the retained trace `iters` times. Returns `(segments, violations)`.
    pub fn conformance_check(&self, iters: u64) -> (u64, u64) {
        let trace = self.run.sim.trace();
        let (mut segments, mut violations) = (0, 0);
        for _ in 0..iters {
            let report =
                conformance::check_trace(trace.records(), trace.drop_records(), &self.check);
            segments += report.segments as u64;
            violations += report.violations.len() as u64;
        }
        (segments, violations)
    }

    /// Attribute the retained probe records `iters` times. Returns records.
    pub fn probe_attribute(&self, iters: u64) -> u64 {
        let stats = self
            .run
            .sim
            .stats(self.run.client_host, self.run.server_host);
        let start = stats.first.expect("the run sent packets");
        let end = stats.last.expect("the run sent packets");
        let records = self.run.sim.probe_records();
        for _ in 0..iters {
            black_box(netsim::probe::attribute(records, start, end));
        }
        iters * records.len() as u64
    }

    /// Export the retained trace `iters` times. Returns packets.
    pub fn pcap_export(&self, iters: u64) -> u64 {
        for _ in 0..iters {
            black_box(netsim::pcapng::export_trace(self.run.sim.trace()).expect("a full trace"));
        }
        iters * self.trace_packets()
    }

    /// Parse the exported capture `iters` times. Returns packets.
    pub fn pcap_parse(&self, iters: u64) -> u64 {
        let mut packets = 0;
        for _ in 0..iters {
            packets += netsim::pcapng::parse(&self.capture)
                .expect("the export parses")
                .len() as u64;
        }
        assert_eq!(packets, iters * self.trace_packets());
        packets
    }

    /// Render the fleet's telemetry as JSON. Returns bytes rendered.
    pub fn telemetry_render_json(&self) -> u64 {
        black_box(self.fleet_sink.telemetry().render_json("fleet")).len() as u64
    }

    // -----------------------------------------------------------------
    // httpclient + httpserver, reachable only through a simulation
    // -----------------------------------------------------------------

    /// The LAN/Apache/pipelined cell `iters` times. Returns requests.
    pub fn http_cell(&self, content: Content, iters: u64) -> u64 {
        let cell = Cell::clean(Env::Lan, Setup::Pipelined, content);
        let mut requests = 0;
        for _ in 0..iters {
            let spec = cell_spec(&cell, &self.bulk, &mut Tracer::off());
            requests += run_spec(spec).cell.fetched;
        }
        requests
    }

    /// One LAN cell fetching the four big objects. Returns body KiB.
    pub fn http_bulk(&self, setup: Setup) -> u64 {
        let cell = Cell::clean(Env::Lan, setup, Content::Bulk);
        let out = run_spec(cell_spec(&cell, &self.bulk, &mut Tracer::off()));
        assert_eq!(
            out.cell.body_bytes,
            self.bulk_kib * 1024,
            "bodies arrived whole"
        );
        self.bulk_kib
    }

    /// Prime a client cache from the site `iters` times.
    pub fn cache_prime(&self, iters: u64) -> u64 {
        for _ in 0..iters {
            black_box(primed_cache(&self.site));
        }
        iters
    }

    /// Scan the page for inline images `iters` times. Returns KiB scanned.
    pub fn discover(&self, iters: u64) -> f64 {
        for _ in 0..iters {
            black_box(webcontent::html::inline_image_sources(&self.site.html));
        }
        iters as f64 * self.site.html.len() as f64 / 1024.0
    }

    /// Build the server store (deflating the page) `iters` times.
    pub fn store_build(&self, iters: u64) -> u64 {
        for _ in 0..iters {
            black_box(microscape_store(&self.site));
        }
        iters
    }

    // -----------------------------------------------------------------
    // flate, webcontent
    // -----------------------------------------------------------------

    /// Deflate the page `iters` times. Returns `(bytes in, bytes out)`.
    pub fn deflate(&self, iters: u64) -> (u64, u64) {
        let mut out = 0;
        for _ in 0..iters {
            out += flate::deflate(self.site.html.as_bytes(), flate::Level::Default).len() as u64;
        }
        (iters * self.site.html.len() as u64, out)
    }

    /// Inflate the deflated page `iters` times. Returns bytes out.
    pub fn inflate(&self, iters: u64) -> u64 {
        let packed = flate::deflate(self.site.html.as_bytes(), flate::Level::Default);
        let mut out = 0;
        for _ in 0..iters {
            out += flate::inflate(&packed).expect("own output inflates").len() as u64;
        }
        assert_eq!(out, iters * self.site.html.len() as u64);
        out
    }

    /// Convert every image to PNG or MNG. Returns images.
    pub fn convert_site(&self) -> u64 {
        black_box(webcontent::convert::convert_site(&self.site.images)).len() as u64
    }
}

/// Generate the Microscape site from nothing. Returns objects.
pub fn site_build() -> u64 {
    black_box(Microscape::generate()).images.len() as u64 + 1
}

// ---------------------------------------------------------------------
// httpwire
// ---------------------------------------------------------------------

fn gif_response(body: usize) -> Response {
    Response::new(Version::Http11, StatusCode::OK)
        .with_header("Date", "Mon, 27 Oct 1997 12:00:00 GMT")
        .with_header("Server", "Jigsaw/1.0beta2")
        .with_header("Content-Type", "image/gif")
        .with_header("ETag", "\"697-1761566400\"")
        .with_header("Last-Modified", "Fri, 24 Oct 1997 12:00:00 GMT")
        .with_header("Content-Length", body.to_string())
        .with_body(vec![0u8; body])
}

fn robot_request() -> Request {
    RequestStyle::Robot.request(
        Method::Get,
        "/images/banner.gif",
        Version::Http11,
        "microscape.example",
    )
}

/// Build and serialise `n` robot requests.
pub fn wire_request_build(n: u64) -> u64 {
    for _ in 0..n {
        black_box(robot_request().to_bytes());
    }
    n
}

/// Parse `n` robot requests.
pub fn wire_request_parse(n: u64) -> u64 {
    let wire = robot_request().to_bytes();
    let mut parser = RequestParser::new();
    for _ in 0..n {
        parser.feed(&wire);
        black_box(parser.next().expect("parses").expect("complete"));
    }
    n
}

/// Build `n` response heads with six headers and serialise them.
pub fn wire_response_head(n: u64) -> u64 {
    for _ in 0..n {
        black_box(gif_response(0).head_to_bytes());
    }
    n
}

/// Parse `n` responses carrying a 697-byte GIF.
pub fn wire_response_parse(n: u64) -> u64 {
    let wire = gif_response(697).to_bytes();
    let mut parser = ResponseParser::new();
    for _ in 0..n {
        parser.expect(Method::Get);
        parser.feed(&wire);
        black_box(parser.next().expect("parses").expect("complete"));
    }
    n
}

/// Serialise and parse `n` such responses: the message whose allocation
/// count `BENCH_netsim.json` has tracked (20 per message).
pub fn wire_round_trip(n: u64) -> u64 {
    let resp = gif_response(697);
    for _ in 0..n {
        let wire = resp.to_bytes();
        let mut parser = ResponseParser::new();
        parser.expect(Method::Get);
        parser.feed(&wire);
        black_box(parser.next().expect("parses").expect("complete"));
    }
    n
}

/// Feed one response with a `body`-byte entity to the parser in
/// segment-sized pieces, asking for a message after each, as the client
/// does. Returns KiB of body.
pub fn wire_body(body: usize, chunked: bool) -> f64 {
    let wire = if chunked {
        let mut resp = gif_response(0);
        resp.headers.remove("Content-Length");
        let mut wire = resp
            .with_header("Transfer-Encoding", "chunked")
            .head_to_bytes();
        wire.extend_from_slice(&httpwire::chunked::encode(&vec![0u8; body], 4096));
        wire
    } else {
        gif_response(body).to_bytes()
    };
    let mut parser = ResponseParser::new();
    parser.expect(Method::Get);
    let mut done = None;
    for piece in wire.chunks(1460) {
        parser.feed(piece);
        done = parser.next().expect("parses");
    }
    assert_eq!(done.expect("complete").body.len(), body);
    body as f64 / 1024.0
}

// ---------------------------------------------------------------------
// httpmux
// ---------------------------------------------------------------------

/// `streams` requests, each answered with `body` bytes, shuttled between
/// two sans-IO endpoints until both are idle. Returns streams answered.
pub fn mux_exchange(streams: u64, body: usize) -> u64 {
    let payload = vec![0xC3u8; body];
    let req = vec![
        (":method".to_string(), "GET".to_string()),
        (":path".to_string(), "/x".to_string()),
    ];
    let resp = vec![(":status".to_string(), "200".to_string())];
    let mut wire = Vec::with_capacity(64 * 1024);
    let mut client = MuxConn::client(false);
    let mut server = MuxConn::server();
    for _ in 0..streams {
        client.open_stream(&req, true);
    }
    let (mut answered, mut delivered) = (0, 0);
    loop {
        let mut moved = false;
        wire.clear();
        if client.take_output(usize::MAX, &mut wire) > 0 {
            server.feed(&wire);
            moved = true;
        }
        while let Some(ev) = server.poll_event() {
            if let MuxEvent::Headers { stream, .. } = ev {
                server.send_headers(stream, &resp, false);
                server.send_data(stream, &payload, true);
                answered += 1;
            }
        }
        wire.clear();
        if server.take_output(usize::MAX, &mut wire) > 0 {
            client.feed(&wire);
            moved = true;
        }
        while let Some(ev) = client.poll_event() {
            if let MuxEvent::Data { data, .. } = ev {
                delivered += data.len();
            }
        }
        if !moved && client.idle() && server.idle() {
            break;
        }
    }
    assert_eq!(answered, streams, "every stream answered once");
    assert_eq!(delivered, streams as usize * body, "every body delivered");
    streams
}

// ---------------------------------------------------------------------
// core::harness
// ---------------------------------------------------------------------

/// Build `n` matrix specs for the LAN/Apache/pipelined cell.
pub fn matrix_specs(content: Content, n: u64) -> u64 {
    let cell = Cell::clean(Env::Lan, Setup::Pipelined, content);
    let inputs = Inputs::empty();
    for _ in 0..n {
        black_box(cell_spec(&cell, &inputs, &mut Tracer::off()));
    }
    n
}

/// The `lossgrid` plan for `seed` on the harness's own thread pool.
/// Returns packets.
pub fn threaded_lossgrid(seed: u64, threads: usize) -> u64 {
    let inputs = Inputs::empty();
    let specs = plan::lossgrid(seed)
        .iter()
        .map(|item| {
            let Item::Cell(cell) = item else {
                unreachable!()
            };
            cell_spec(cell, &inputs, &mut Tracer::off())
        })
        .collect();
    run_cells_threaded(specs, Some(threads))
        .iter()
        .map(CellResult::packets)
        .sum()
}
