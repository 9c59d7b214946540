//! The discrete-event simulator: hosts, sockets, the event loop, and the
//! application programming model.
//!
//! One [`App`] runs per host and is driven purely by events: socket readiness
//! notifications and application timers. The API mirrors a classic BSD
//! socket interface (`connect` / `listen` / `send` / `recv` / `shutdown` /
//! `close`) so the HTTP client and server crates read like ordinary
//! event-driven network programs.

use crate::fxhash::FxHashMap;
use crate::impair::DropReason;
use crate::link::{Link, LinkConfig, Transmit};
use crate::packet::{HostId, Segment, SockAddr};
use crate::probe::{ProbeEventKind, ProbeRecord, ProbeSink, SpanEvent};
use crate::queue::{EventHandle, EventQueue};
use crate::tcp::{Effects, SockNotify, State, Tcb, TcpConfig, TimerKind};
use crate::telemetry::{Metric, Scope, ScopeId, TelemetrySink};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceMode, TraceStats};
use bytes::{Bytes, BytesQueue};
use std::any::Any;
use std::collections::VecDeque;

/// Identifies one socket on one host.
///
/// A `SocketId` names its socket until the application has handled the
/// socket's [`AppEvent::Closed`] or [`AppEvent::Reset`]; the kernel then
/// drops the connection, and a syscall on the id after that panics,
/// naming the socket. Slots are never reused, so an id never comes to
/// name a second socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketId {
    /// Host the socket lives on.
    pub host: HostId,
    /// The host's socket slot: sockets are numbered in the order they
    /// were opened.
    pub slot: u32,
}

/// Events delivered to applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppEvent {
    /// Delivered once when the simulation starts.
    Start,
    /// An active open completed.
    Connected(SocketId),
    /// A passive open completed on the listener at `listener_port`.
    Accepted {
        /// The newly created connection.
        socket: SocketId,
        /// The listening port that accepted it.
        listener_port: u16,
    },
    /// Buffered data is available to read.
    Readable(SocketId),
    /// The peer half-closed; no data beyond what is buffered will arrive.
    PeerFin(SocketId),
    /// Send-buffer space freed up after a short write.
    SendSpace(SocketId),
    /// The connection was reset by the peer. This is the socket's last
    /// event: once it has been handled, the socket cannot be used again.
    Reset(SocketId),
    /// The connection closed gracefully. This is the socket's last event:
    /// read what is still buffered while handling it, because afterwards
    /// the socket cannot be used again.
    Closed(SocketId),
    /// An application timer set with [`Ctx::set_timer`] fired.
    Timer(u64),
}

/// A simulated application bound to one host.
///
/// `Any` is a supertrait so results can be extracted after a run via
/// [`Simulator::app_mut`].
pub trait App: Any {
    /// Handle one delivered event.
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: AppEvent);
}

/// Per-host socket-usage statistics (the paper's Table 3 reports both).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketStats {
    /// Total TCP connections created over the run.
    pub sockets_used: u64,
    /// Peak number of simultaneously open (non-CLOSED) sockets.
    pub max_simultaneous: u64,
    /// SYNs silently discarded because a listener's backlog was full.
    pub syn_drops: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueuedKind {
    Arrival,
    TcpTimer {
        slot: u32,
        kind: TimerKind,
        epoch: u64,
    },
    AppTimer {
        token: u64,
    },
}

/// The payload of one queued event. Its delivery time and FIFO tie-break
/// live in the [`EventQueue`]; the payload carries everything else.
struct QueuedEvent {
    host: HostId,
    kind: QueuedKind,
    /// Only for arrivals.
    segment: Option<Segment>,
    sent: SimTime,
    physical: usize,
    /// True for the second copy of a network-duplicated packet.
    dup: bool,
}

impl QueuedEvent {
    /// A timer: an event that carries no segment.
    fn timer(host: HostId, kind: QueuedKind) -> Self {
        QueuedEvent {
            host,
            kind,
            segment: None,
            sent: SimTime::ZERO,
            physical: 0,
            dup: false,
        }
    }
}

struct HostState {
    name: String,
    tcp_config: TcpConfig,
    /// The connections an application can still name, in no particular
    /// order: each slot's `SlotState::tcb` says where its own is.
    tcbs: Vec<Live>,
    /// (local port, remote addr) → socket slot.
    demux: FxHashMap<(u16, SockAddr), u32>,
    /// Listening ports.
    listeners: FxHashMap<u16, Listener>,
    next_ephemeral: u16,
    stats: SocketStats,
    /// Number of currently open sockets, maintained incrementally so peak
    /// tracking stays O(1) with thousands of fleet connections.
    open_now: u64,
    /// One per socket ever opened, indexed by `SocketId::slot`: what the
    /// kernel keeps beside each `Tcb`, and after it.
    slots: Vec<SlotState>,
    /// This host's telemetry scope, once something was recorded in it.
    scope: Option<ScopeId>,
    /// Parallel to `slots` as far as it reaches: each connection's
    /// telemetry scope, resolved at its first sample. It grows only while
    /// the sink is on, so a socket opened before that has no entry yet.
    conn_scopes: Vec<Option<ScopeId>>,
}

#[derive(Default)]
struct Listener {
    /// SYN-queue bound (`None` accepts unconditionally).
    backlog: Option<u32>,
    /// Sockets on this port still mid-handshake, maintained incrementally:
    /// a scan per SYN would cost as much as the host's connections.
    syn_queue: u32,
}

/// A connection not yet reaped, and the slot that names it.
struct Live {
    slot: u32,
    tcb: Tcb,
}

/// `SlotState::tcb` of a slot whose connection was reaped.
const REAPED: u32 = u32::MAX;

/// What the kernel keeps per socket slot beside its `Tcb`.
#[derive(Clone, Copy)]
struct SlotState {
    /// Where the slot's `Tcb` is in `HostState::tcbs`, or [`REAPED`] once
    /// its application has handled its `Closed` or `Reset` event.
    tcb: u32,
    /// Which incremental counts the slot is still part of.
    counted: Counted,
    /// The queue entry of each timer kind, there only while it carries
    /// the kind's current epoch.
    timers: [Option<EventHandle>; TimerKind::COUNT],
}

/// The incremental counts a socket slot is still part of.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Counted {
    /// A passive open mid-handshake: in `open_now` and in its listener's
    /// `syn_queue`.
    SynQueue,
    /// In `open_now` only.
    Open,
    /// In neither.
    Closed,
}

impl HostState {
    fn open_sockets(&self) -> u64 {
        self.tcbs.iter().filter(|l| l.tcb.state().is_open()).count() as u64
    }

    /// Sockets on `port` still mid-handshake — the listener's SYN queue.
    fn syn_queue_len(&self, port: u16) -> u32 {
        let len = self.listeners.get(&port).map_or(0, |l| l.syn_queue);
        debug_assert_eq!(
            len,
            self.tcbs
                .iter()
                .filter(|l| l.tcb.state() == State::SynRcvd && l.tcb.local.port == port)
                .count() as u32
        );
        len
    }

    /// Where the `Tcb` of `sock`, one of this host's sockets, is in
    /// `tcbs`.
    fn live(&self, sock: SocketId) -> usize {
        let i = self.slots[sock.slot as usize].tcb;
        assert!(
            i != REAPED,
            "socket {sock:?} used after its Closed/Reset event"
        );
        i as usize
    }

    fn tcb(&self, sock: SocketId) -> &Tcb {
        &self.tcbs[self.live(sock)].tcb
    }

    fn tcb_mut(&mut self, sock: SocketId) -> &mut Tcb {
        let i = self.live(sock);
        &mut self.tcbs[i].tcb
    }
}

/// The simulation kernel: owns hosts, links, the event queue and the trace.
pub struct Kernel {
    now: SimTime,
    queue: EventQueue<QueuedEvent>,
    hosts: Vec<HostState>,
    links: Vec<Link>,
    link_index: FxHashMap<(HostId, HostId), usize>,
    trace: Trace,
    probe: ProbeSink,
    telemetry: TelemetrySink,
    /// Parallel to `links` as far as it reaches: the telemetry scopes of
    /// each link's b→a and a→b directions, resolved at first use.
    link_scopes: Vec<[Option<ScopeId>; 2]>,
    /// The telemetry scope of the simulation as a whole.
    global_scope: Option<ScopeId>,
    pending: VecDeque<(HostId, AppEvent)>,
    /// Recycled [`Effects`] scratch: every event handler borrows one and
    /// returns it drained, so the per-event effect lists keep their
    /// capacities instead of re-allocating.
    fx_pool: Vec<Effects>,
    events_processed: u64,
    /// Safety valve against runaway simulations.
    max_events: u64,
}

/// The id the kernel keeps beside the thing a telemetry scope describes:
/// resolved through the sink's index the first time the thing is sampled
/// while the sink is on — whenever that is — and never again.
fn scope_id(kept: &mut Option<ScopeId>, sink: &mut TelemetrySink, scope: Scope) -> ScopeId {
    *kept.get_or_insert_with(|| sink.resolve(scope))
}

/// `table[i]`, the table grown with defaults to reach it.
fn grown_to<T: Default>(table: &mut Vec<T>, i: usize) -> &mut T {
    if table.len() <= i {
        table.resize_with(i + 1, T::default);
    }
    &mut table[i]
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            hosts: Vec::new(),
            links: Vec::new(),
            link_index: FxHashMap::default(),
            trace: Trace::new(),
            probe: ProbeSink::default(),
            telemetry: TelemetrySink::default(),
            link_scopes: Vec::new(),
            global_scope: None,
            pending: VecDeque::new(),
            fx_pool: Vec::new(),
            events_processed: 0,
            max_events: 200_000_000,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn push_arrival(
        &mut self,
        at: SimTime,
        host: HostId,
        segment: Segment,
        sent: SimTime,
        physical: usize,
        dup: bool,
    ) {
        self.queue.push(
            at,
            QueuedEvent {
                host,
                kind: QueuedKind::Arrival,
                segment: Some(segment),
                sent,
                physical,
                dup,
            },
        );
    }

    fn host(&mut self, id: HostId) -> &mut HostState {
        &mut self.hosts[id.0 as usize]
    }

    /// Borrow a drained [`Effects`] from the pool (capacities retained).
    fn take_fx(&mut self) -> Effects {
        self.fx_pool.pop().unwrap_or_default()
    }

    /// Return an [`Effects`] to the pool. `apply_effects` drains every
    /// list, but clear anyway so a partially-used scratch can't leak
    /// stale effects into its next borrower.
    fn recycle_fx(&mut self, mut fx: Effects) {
        fx.clear();
        self.fx_pool.push(fx);
        if self.telemetry.enabled() {
            let held = self.fx_pool.len() as u64;
            let global = self.global_scope();
            self.telemetry
                .gauge_in(self.now, global, Metric::PoolEffects, held);
        }
    }

    fn global_scope(&mut self) -> ScopeId {
        scope_id(&mut self.global_scope, &mut self.telemetry, Scope::Global)
    }

    fn host_scope(&mut self, host: HostId) -> ScopeId {
        let kept = &mut self.hosts[host.0 as usize].scope;
        scope_id(kept, &mut self.telemetry, Scope::Host(host))
    }

    /// Sample per-link-direction telemetry after a submission:
    /// drop counters by reason, the instantaneous backlog, and its
    /// distribution.
    fn telemetry_link(&mut self, link: usize, from: HostId, dropped: Option<DropReason>) {
        if !self.telemetry.enabled() {
            return;
        }
        let a_to_b = from != self.links[link].b;
        let scope = scope_id(
            &mut grown_to(&mut self.link_scopes, link)[usize::from(a_to_b)],
            &mut self.telemetry,
            Scope::Link {
                link: link as u32,
                a_to_b,
            },
        );
        let now = self.now;
        if let Some(reason) = dropped {
            self.telemetry
                .counter_add_in(now, scope, Metric::for_drop(reason), 1);
        }
        let queued = self.links[link].queued_bytes(now, from);
        self.telemetry
            .gauge_in(now, scope, Metric::QueueBytes, queued);
        self.telemetry
            .observe_in(scope, Metric::QueueBytesHist, queued);
    }

    /// Sample a connection's congestion state after its TCB ran: cwnd,
    /// ssthresh, flight, RTO, and recovery-episode edges.
    fn telemetry_conn_sample(&mut self, host: HostId, slot: u32) {
        if !self.telemetry.enabled() {
            return;
        }
        let h = &mut self.hosts[host.0 as usize];
        let tcb = &h.tcbs[h.live(SocketId { host, slot })].tcb;
        let scope = scope_id(
            grown_to(&mut h.conn_scopes, slot as usize),
            &mut self.telemetry,
            Scope::Conn {
                host,
                local: tcb.local,
                remote: tcb.remote,
            },
        );
        let cwnd = tcb.cwnd() as u64;
        let ssthresh = tcb.ssthresh() as u64;
        let flight = tcb.bytes_in_flight();
        let rto = tcb.rto().as_nanos();
        let in_recovery = tcb.cc_in_recovery();
        let variant = tcb.cc_variant();
        let now = self.now;
        self.telemetry.gauge_in(now, scope, Metric::Cwnd, cwnd);
        self.telemetry
            .gauge_in(now, scope, Metric::Ssthresh, ssthresh);
        self.telemetry
            .gauge_in(now, scope, Metric::FlightBytes, flight);
        self.telemetry.gauge_in(now, scope, Metric::RtoNs, rto);
        self.telemetry.observe_in(scope, Metric::FlightHist, flight);
        let level = u64::from(in_recovery);
        if self
            .telemetry
            .gauge_changed_in(now, scope, Metric::CcRecoveryActive, level)
            && in_recovery
        {
            let global = self.global_scope();
            self.telemetry
                .counter_add_in(now, global, Metric::CcRecoveries(variant), 1);
        }
    }

    /// Record a wire-transmit probe event for a segment the link accepted.
    /// The serialization interval is reconstructed from the link's rate and
    /// propagation delay; rate-free links serialize instantaneously.
    fn probe_wire_tx(&mut self, seg: &Segment, physical: usize, arrival: SimTime, link: usize) {
        if !self.probe.enabled() {
            return;
        }
        let cfg = self.links[link].config();
        let serialize_end = SimTime::from_nanos(
            arrival
                .as_nanos()
                .saturating_sub(cfg.propagation.as_nanos()),
        );
        let tx_ns = match cfg.bits_per_sec {
            Some(bps) => SimDuration::transmission(physical, bps).as_nanos(),
            None => 0,
        };
        let serialize_start = SimTime::from_nanos(serialize_end.as_nanos().saturating_sub(tx_ns));
        self.probe.record(ProbeRecord {
            at: self.now,
            host: seg.src.host,
            local: seg.src,
            remote: seg.dst,
            kind: ProbeEventKind::WireTx {
                bytes: physical,
                payload: seg.has_payload(),
                serialize_start,
                serialize_end,
                arrival,
            },
        });
    }

    /// Transmit a segment onto the link towards its destination.
    fn transmit(&mut self, seg: Segment) {
        let from = seg.src.host;
        let to = seg.dst.host;
        let idx = *self
            .link_index
            .get(&(from, to))
            .unwrap_or_else(|| panic!("no link between h{} and h{}", from.0, to.0));
        let now = self.now;
        let (outcome, physical) = self.links[idx].transmit(now, from, &seg);
        let mut dropped = None;
        match outcome {
            Transmit::Arrives(at) => {
                self.probe_wire_tx(&seg, physical, at, idx);
                self.push_arrival(at, to, seg, now, physical, false)
            }
            Transmit::Duplicated(at, dup_at) => {
                self.probe_wire_tx(&seg, physical, at, idx);
                self.push_arrival(at, to, seg.clone(), now, physical, false);
                self.push_arrival(dup_at, to, seg, now, physical, true);
            }
            // The tracer must see drops too: they are invisible as
            // arrivals but the paper-style summaries report them.
            Transmit::Dropped(reason) => {
                self.trace.observe_drop(now, &seg, reason);
                dropped = Some(reason);
            }
        }
        self.telemetry_link(idx, from, dropped);
    }

    /// Apply the side effects a TCB produced.
    fn apply_effects(&mut self, host: HostId, slot: u32, fx: &mut Effects) {
        self.telemetry_conn_sample(host, slot);
        let sock = SocketId { host, slot };
        if !fx.probe.is_empty() {
            let tcb = self.hosts[host.0 as usize].tcb(sock);
            let (local, remote) = (tcb.local, tcb.remote);
            let now = self.now;
            for ev in fx.probe.drain(..) {
                self.probe.record(ProbeRecord {
                    at: now,
                    host,
                    local,
                    remote,
                    kind: ProbeEventKind::Tcp(ev),
                });
            }
        }
        for seg in fx.segments.drain(..) {
            self.transmit(seg);
        }
        self.queue_timers(host, slot, &mut fx.timers);
        let mut any_close = false;
        for n in fx.notifications.drain(..) {
            let ev = match n {
                SockNotify::Connected => AppEvent::Connected(sock),
                SockNotify::Accepted => {
                    let port = self.hosts[host.0 as usize].tcb(sock).local.port;
                    AppEvent::Accepted {
                        socket: sock,
                        listener_port: port,
                    }
                }
                SockNotify::Readable => AppEvent::Readable(sock),
                SockNotify::PeerFin => AppEvent::PeerFin(sock),
                SockNotify::SendSpace => AppEvent::SendSpace(sock),
                SockNotify::Reset => {
                    any_close = true;
                    AppEvent::Reset(sock)
                }
                SockNotify::Closed => {
                    any_close = true;
                    AppEvent::Closed(sock)
                }
            };
            self.pending.push_back((host, ev));
        }
        // Keep the incremental SYN-queue and open-socket counts in step
        // with any state transition out of SYN-RCVD and to CLOSED
        // (including notification-free aborts).
        let h = self.host(host);
        let tcb = &h.tcbs[h.live(sock)].tcb;
        let counted = &mut h.slots[slot as usize].counted;
        if *counted == Counted::SynQueue && tcb.state() != State::SynRcvd {
            *counted = Counted::Open;
            let listener = h.listeners.get_mut(&tcb.local.port);
            listener.expect("passive open has a listener").syn_queue -= 1;
        }
        if *counted == Counted::Open && !tcb.state().is_open() {
            *counted = Counted::Closed;
            h.open_now -= 1;
        }
        if any_close {
            // Remove closed sockets from the demux table so the 4-tuple can
            // be reused.
            let h = self.host(host);
            let tcb = h.tcb(sock);
            if !tcb.state().is_open() {
                let key = (tcb.local.port, tcb.remote);
                h.demux.remove(&key);
            }
        }
    }

    /// Install a freshly opened TCB on `host` — probe record, socket slot,
    /// demux entry, open-socket accounting — then apply the effects its
    /// opening produced. Shared by the active and the passive open.
    fn install_tcb(
        &mut self,
        host: HostId,
        mut tcb: Tcb,
        opened: ProbeEventKind,
        mut fx: Effects,
    ) -> SocketId {
        let (local, remote) = (tcb.local, tcb.remote);
        if self.probe.enabled() {
            tcb.set_probe_enabled(true);
            self.probe.record(ProbeRecord {
                at: self.now,
                host,
                local,
                remote,
                kind: opened,
            });
        }
        let h = self.host(host);
        let slot = h.slots.len() as u32;
        let counted = if tcb.state() == State::SynRcvd {
            let listener = h.listeners.get_mut(&local.port);
            listener.expect("passive open has a listener").syn_queue += 1;
            Counted::SynQueue
        } else {
            Counted::Open
        };
        if h.slots.capacity() == 0 {
            // Eight up front, where a `Vec` of 24-byte entries starts at
            // four: a client's handful of sockets then grows it no more
            // often than its socket count needs.
            h.slots.reserve_exact(8);
        }
        h.slots.push(SlotState {
            tcb: h.tcbs.len() as u32,
            counted,
            timers: [None; TimerKind::COUNT],
        });
        h.tcbs.push(Live { slot, tcb });
        let prev = h.demux.insert((local.port, remote), slot);
        debug_assert!(
            prev.is_none(),
            "open clobbered live demux entry ({}, {remote:?})",
            local.port
        );
        h.stats.sockets_used += 1;
        h.open_now += 1;
        self.apply_effects(host, slot, &mut fx);
        self.recycle_fx(fx);
        self.update_peak(host);
        SocketId { host, slot }
    }

    fn update_peak(&mut self, host: HostId) {
        let h = self.host(host);
        debug_assert_eq!(h.open_now, h.open_sockets());
        if h.open_now > h.stats.max_simultaneous {
            h.stats.max_simultaneous = h.open_now;
        }
    }

    fn handle_arrival(
        &mut self,
        host: HostId,
        seg: Segment,
        sent: SimTime,
        physical: usize,
        dup: bool,
    ) {
        // Borrow-only capture: in stats-only mode this is a pure
        // accumulation, with no per-packet clone or allocation.
        if dup {
            self.trace.observe_dup(sent, self.now, &seg, physical);
        } else {
            self.trace.observe(sent, self.now, &seg, physical);
        }

        let key = (seg.dst.port, seg.src);
        let h = &self.hosts[host.0 as usize];
        if let Some(&slot) = h.demux.get(&key) {
            let mut fx = self.take_fx();
            let now = self.now;
            let tcb = self.host(host).tcb_mut(SocketId { host, slot });
            tcb.on_segment(now, &seg, &mut fx);
            self.apply_effects(host, slot, &mut fx);
            self.recycle_fx(fx);
            self.update_peak(host);
            return;
        }

        // No connection. A SYN to a listening port performs a passive open —
        // unless the listener's SYN queue is full, in which case the SYN is
        // silently discarded and the client's retransmission timer must
        // recover (classic listen-backlog overflow).
        if seg.flags.syn && !seg.flags.ack {
            if let Some(listener) = h.listeners.get(&seg.dst.port) {
                if let Some(cap) = listener.backlog {
                    if h.syn_queue_len(seg.dst.port) >= cap {
                        self.host(host).stats.syn_drops += 1;
                        if self.telemetry.enabled() {
                            let scope = self.host_scope(host);
                            self.telemetry
                                .counter_add_in(self.now, scope, Metric::SynDrops, 1);
                        }
                        return;
                    }
                }
                let local = SockAddr::new(host, seg.dst.port);
                let remote = seg.src;
                let cfg = h.tcp_config.clone();
                let mut fx = self.take_fx();
                let now = self.now;
                let tcb = Tcb::open_passive(local, remote, cfg, &seg, now, &mut fx);
                self.install_tcb(host, tcb, ProbeEventKind::ConnAccepted, fx);
                return;
            }
        }

        // Anything else aimed at a closed port draws a RST (unless it *is*
        // a RST).
        if !seg.flags.rst {
            let rst = Segment::rst(seg.dst, seg.src, seg.ack);
            self.transmit(rst);
        }
    }

    /// The one owner of TCP timer entries. After a TCB call on `slot`
    /// arms `timers`, each kind has at most one queued entry, there only
    /// if it carries the kind's current epoch: the one entry an eager
    /// push of every arm would have left live, at the `(at, seq)` that
    /// push would have given it, so live events pop in the same order.
    fn queue_timers(
        &mut self,
        host: HostId,
        slot: u32,
        timers: &mut Vec<(TimerKind, SimTime, u64)>,
    ) {
        // Every arm takes its sequence number in list order, after the
        // segments this call transmitted; only a kind's last arm can
        // still be current.
        let mut last = [None; TimerKind::COUNT];
        for (kind, at, epoch) in timers.drain(..) {
            last[kind.index()] = Some((at, self.queue.reserve_seq(), epoch));
        }
        let h = &mut self.hosts[host.0 as usize];
        let tcb = &h.tcbs[h.live(SocketId { host, slot })].tcb;
        let held = &mut h.slots[slot as usize].timers;
        for (i, kind) in TimerKind::ALL.into_iter().enumerate() {
            let live = tcb.timer_epoch(kind);
            match (held[i], last[i]) {
                // Re-armed: the entry moves to the last arm's place.
                (Some(entry), Some((at, seq, epoch))) if epoch == live => {
                    self.queue.reschedule(entry, at, seq);
                    let ev = self.queue.get_mut(entry);
                    ev.kind = QueuedKind::TcpTimer { slot, kind, epoch };
                }
                (None, Some((at, seq, epoch))) if epoch == live => {
                    let ev = QueuedEvent::timer(host, QueuedKind::TcpTimer { slot, kind, epoch });
                    held[i] = Some(self.queue.push_at_seq(at, seq, ev));
                }
                // Cancelled, or re-armed and cancelled since: it leaves.
                (Some(entry), _) => {
                    let ev = self.queue.get_mut(entry);
                    if !matches!(ev.kind, QueuedKind::TcpTimer { epoch, .. } if epoch == live) {
                        self.queue.remove(entry);
                        held[i] = None;
                    }
                }
                // An arm cancelled within the call never enters the queue.
                (None, _) => {}
            }
        }
    }

    fn handle_tcp_timer(&mut self, host: HostId, slot: u32, kind: TimerKind, epoch: u64) {
        // Its entry just popped.
        self.host(host).slots[slot as usize].timers[kind.index()] = None;
        let mut fx = self.take_fx();
        let now = self.now;
        let tcb = self.host(host).tcb_mut(SocketId { host, slot });
        debug_assert_eq!(tcb.timer_epoch(kind), epoch, "only live timers are queued");
        tcb.on_timer(now, kind, epoch, &mut fx);
        self.apply_effects(host, slot, &mut fx);
        self.recycle_fx(fx);
    }

    // --- socket syscalls used by Ctx -----------------------------------

    fn sock(&mut self, id: SocketId) -> &mut Tcb {
        self.host(id.host).tcb_mut(id)
    }

    /// Drop the `Tcb` of `sock`, whose application has just handled its
    /// `Closed` or `Reset` event. The last held `Tcb` moves into its place.
    fn reap(&mut self, sock: SocketId) {
        let h = self.host(sock.host);
        let i = h.live(sock);
        let state = &mut h.slots[sock.slot as usize];
        debug_assert_eq!(state.counted, Counted::Closed);
        debug_assert!(state.timers.iter().all(Option::is_none), "no timer queued");
        state.tcb = REAPED;
        h.tcbs.swap_remove(i);
        if let Some(moved) = h.tcbs.get(i) {
            h.slots[moved.slot as usize].tcb = i as u32;
        }
    }

    /// Ephemeral ports count up from 40000, wrapping back there after
    /// 65535.
    fn next_ephemeral_after(port: u16) -> u16 {
        port.wrapping_add(1).max(40_000)
    }

    fn connect(&mut self, host: HostId, remote: SockAddr) -> SocketId {
        let cfg = self.host(host).tcp_config.clone();
        let h = self.host(host);
        // Skip ports whose (port, remote) 4-tuple is still claimed by a
        // live socket — a previous connection to the same peer may linger
        // in TIME_WAIT long after the application closed it.
        let mut port = h.next_ephemeral;
        let mut scanned: u32 = 0;
        while h.demux.contains_key(&(port, remote)) {
            port = Self::next_ephemeral_after(port);
            scanned += 1;
            assert!(
                scanned <= u16::MAX as u32,
                "ephemeral ports to {remote:?} exhausted"
            );
        }
        h.next_ephemeral = Self::next_ephemeral_after(port);
        let local = SockAddr::new(host, port);
        let mut fx = self.take_fx();
        let now = self.now;
        let tcb = Tcb::open_active(local, remote, cfg, now, &mut fx);
        self.install_tcb(host, tcb, ProbeEventKind::ConnOpen, fx)
    }

    fn listen(&mut self, host: HostId, port: u16, backlog: Option<u32>) {
        // Re-listening changes the bound; handshakes in progress stay counted.
        let listeners = &mut self.host(host).listeners;
        listeners.entry(port).or_default().backlog = backlog;
    }
}

/// The API surface applications use to act on the world.
pub struct Ctx<'a> {
    kernel: &'a mut Kernel,
    host: HostId,
}

impl<'a> Ctx<'a> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// This application's host.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Begin an active open to `remote`. Completion is signalled by
    /// [`AppEvent::Connected`].
    pub fn connect(&mut self, remote: SockAddr) -> SocketId {
        self.kernel.connect(self.host, remote)
    }

    /// Accept connections on `port`; each is signalled by
    /// [`AppEvent::Accepted`].
    pub fn listen(&mut self, port: u16) {
        self.kernel.listen(self.host, port, None);
    }

    /// Like [`Ctx::listen`], but with a bounded SYN queue: while `backlog`
    /// connections sit in SYN-RCVD on `port`, further SYNs are silently
    /// dropped (counted in [`SocketStats::syn_drops`]) and must be
    /// retransmitted by the peer.
    pub fn listen_with_backlog(&mut self, port: u16, backlog: u32) {
        self.kernel.listen(self.host, port, Some(backlog));
    }

    /// Queue a copy of `data` for transmission; returns the number of
    /// bytes accepted (bounded by the socket send buffer).
    pub fn send(&mut self, sock: SocketId, data: &[u8]) -> usize {
        self.call(sock, |tcb, now, fx| tcb.app_send(now, data, fx))
    }

    /// Move bytes off the front of `from` into the socket, by reference,
    /// until it is empty or the socket accepts no more (resume on
    /// [`AppEvent::SendSpace`]).
    pub fn send_from(&mut self, sock: SocketId, from: &mut BytesQueue) {
        if from.is_empty() {
            return;
        }
        let n = self.call(sock, |tcb, now, fx| tcb.app_send_from(now, from, fx));
        if n > 0 && !from.is_empty() {
            // The socket took part of it and is now full. The loop this
            // replaces found that out by writing once more, and that
            // write, though it accepts nothing, runs `try_send` and
            // `apply_effects`: telemetry samples flight size per
            // `apply_effects` and the probe records the blocked send, so
            // goldens see it. Kept until ROADMAP item 7 decides whether
            // such an artefact may go.
            self.call(sock, |tcb, now, fx| tcb.app_send_from(now, from, fx));
        }
    }

    /// The `Tcb` behind `sock`, which must be one of this host's sockets
    /// and not yet past its `Closed` or `Reset` event.
    fn tcb(&mut self, sock: SocketId) -> &mut Tcb {
        assert_eq!(sock.host, self.host, "socket {sock:?} is another host's");
        self.kernel.sock(sock)
    }

    /// The one syscall path into a socket: run `call` on its `Tcb` and
    /// apply what it caused.
    fn call<R>(
        &mut self,
        sock: SocketId,
        call: impl FnOnce(&mut Tcb, SimTime, &mut Effects) -> R,
    ) -> R {
        let mut fx = self.kernel.take_fx();
        let now = self.kernel.now;
        let r = call(self.tcb(sock), now, &mut fx);
        self.kernel.apply_effects(sock.host, sock.slot, &mut fx);
        self.kernel.recycle_fx(fx);
        r
    }

    /// Read up to `max` buffered bytes.
    pub fn recv(&mut self, sock: SocketId, max: usize) -> Bytes {
        self.call(sock, |tcb, _, fx| tcb.app_recv(max, fx))
    }

    /// Bytes currently buffered for reading.
    pub fn readable_bytes(&mut self, sock: SocketId) -> usize {
        self.tcb(sock).readable_bytes()
    }

    /// Half-close the sending direction (graceful FIN after queued data).
    pub fn shutdown_write(&mut self, sock: SocketId) {
        self.call(sock, |tcb, now, fx| tcb.app_shutdown_write(now, fx));
        self.kernel.update_peak(sock.host);
    }

    /// Full close: also declares the application will never read again, so
    /// late-arriving data triggers a RST (the naive-close hazard).
    pub fn close(&mut self, sock: SocketId) {
        self.call(sock, |tcb, now, fx| tcb.app_close(now, fx));
        self.kernel.update_peak(sock.host);
    }

    /// Abortive close: RST immediately.
    pub fn abort(&mut self, sock: SocketId) {
        self.call(sock, |tcb, _, fx| tcb.app_abort(fx));
        self.kernel.update_peak(sock.host);
    }

    /// Set or clear TCP_NODELAY (the Nagle algorithm).
    pub fn set_nodelay(&mut self, sock: SocketId, nodelay: bool) {
        self.tcb(sock).set_nodelay(nodelay);
    }

    /// Whether the probe flight recorder is collecting. Lets callers skip
    /// building span payloads entirely while the probe is off.
    pub fn probe_enabled(&self) -> bool {
        self.kernel.probe.enabled()
    }

    /// Record an HTTP-layer request-lifecycle span mark against `sock`.
    /// No-op unless the simulator's probe was enabled.
    pub fn probe_span(&mut self, sock: SocketId, ev: SpanEvent) {
        if !self.kernel.probe.enabled() {
            return;
        }
        let tcb = self.tcb(sock);
        let (local, remote) = (tcb.local, tcb.remote);
        let at = self.kernel.now;
        self.kernel.probe.record(ProbeRecord {
            at,
            host: sock.host,
            local,
            remote,
            kind: ProbeEventKind::Span(ev),
        });
    }

    /// Whether the telemetry sink is collecting. Lets applications skip
    /// computing gauge values entirely while the subsystem is off.
    pub fn telemetry_enabled(&self) -> bool {
        self.kernel.telemetry.enabled()
    }

    /// Record an application-level gauge in this host's scope (e.g.
    /// server concurrency or buffered memory). No-op unless the
    /// simulator's telemetry was enabled.
    pub fn telemetry_gauge(&mut self, metric: Metric, value: u64) {
        if !self.kernel.telemetry.enabled() {
            return;
        }
        let scope = self.kernel.host_scope(self.host);
        let now = self.kernel.now;
        self.kernel.telemetry.gauge_in(now, scope, metric, value);
    }

    /// Arm an application timer; fires as [`AppEvent::Timer`] with `token`.
    /// Timers are one-shot; arming the same token again schedules another
    /// independent firing.
    pub fn set_timer(&mut self, token: u64, delay: SimDuration) {
        let at = self.kernel.now + delay;
        let ev = QueuedEvent::timer(self.host, QueuedKind::AppTimer { token });
        self.kernel.queue.push(at, ev);
    }
}

/// The top-level simulator owning the kernel and the applications.
pub struct Simulator {
    kernel: Kernel,
    apps: Vec<Option<Box<dyn App>>>,
    started: bool,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        Simulator {
            kernel: Kernel::new(),
            apps: Vec::new(),
            started: false,
        }
    }

    /// Add a host with default TCP configuration.
    pub fn add_host(&mut self, name: &str) -> HostId {
        let id = HostId(self.kernel.hosts.len() as u16);
        self.kernel.hosts.push(HostState {
            name: name.to_string(),
            tcp_config: TcpConfig::default(),
            tcbs: Vec::new(),
            demux: FxHashMap::default(),
            listeners: FxHashMap::default(),
            next_ephemeral: 40_000,
            stats: SocketStats::default(),
            open_now: 0,
            slots: Vec::new(),
            scope: None,
            conn_scopes: Vec::new(),
        });
        self.apps.push(None);
        id
    }

    /// Override the TCP parameters new sockets on `host` will use.
    pub fn set_tcp_config(&mut self, host: HostId, cfg: TcpConfig) {
        self.kernel.host(host).tcp_config = cfg;
    }

    /// Connect two hosts with a link: a shared link with one spoke.
    pub fn add_link(&mut self, a: HostId, b: HostId, config: LinkConfig) {
        self.add_shared_link(&[a], b, config);
    }

    /// Multiplex every `spokes` host onto ONE shared link to `hub`: all
    /// spoke→hub traffic contends for the same transmitter (and hub→spoke
    /// for the reverse one), modelling N clients behind a bottleneck
    /// router; packets serialize in submission order regardless of spoke.
    pub fn add_shared_link(&mut self, spokes: &[HostId], hub: HostId, config: LinkConfig) {
        assert!(!spokes.is_empty(), "a shared link needs at least one spoke");
        let idx = self.kernel.links.len();
        self.kernel.links.push(Link::new(spokes[0], hub, config));
        for &s in spokes {
            assert_ne!(s, hub, "hub cannot be its own spoke");
            self.kernel.link_index.insert((s, hub), idx);
            self.kernel.link_index.insert((hub, s), idx);
        }
    }

    /// Mutable access to the link between two hosts (e.g. to install a
    /// modem codec).
    pub fn link_mut(&mut self, a: HostId, b: HostId) -> &mut Link {
        let idx = self.kernel.link_index[&(a, b)];
        &mut self.kernel.links[idx]
    }

    /// Install the application driving `host`.
    pub fn install_app(&mut self, host: HostId, app: Box<dyn App>) {
        self.apps[host.0 as usize] = Some(app);
    }

    /// Borrow an installed application, downcast to its concrete type.
    pub fn app_mut<T: App>(&mut self, host: HostId) -> Option<&mut T> {
        let app = self.apps[host.0 as usize].as_mut()?;
        let any: &mut dyn Any = app.as_mut();
        any.downcast_mut::<T>()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// The packet capture of the run so far.
    pub fn trace(&self) -> &Trace {
        &self.kernel.trace
    }

    /// Select how much of each packet the trace retains. Set this before
    /// traffic flows: packets already observed stay in whatever form the
    /// previous mode kept.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.kernel.trace.set_mode(mode);
    }

    /// The current trace capture mode.
    pub fn trace_mode(&self) -> TraceMode {
        self.kernel.trace.mode()
    }

    /// Turn on the probe flight recorder. Do this before traffic flows:
    /// sockets created while the probe was off never emit events.
    pub fn enable_probe(&mut self) {
        self.kernel.probe.enable();
    }

    /// Whether the probe flight recorder is collecting.
    pub fn probe_enabled(&self) -> bool {
        self.kernel.probe.enabled()
    }

    /// The probe records collected so far (always empty unless
    /// [`Simulator::enable_probe`] was called).
    pub fn probe_records(&self) -> &[ProbeRecord] {
        self.kernel.probe.records()
    }

    /// Turn on the telemetry time-series sink with the default 10 ms
    /// tick. Series start at the instant this is called: do it before
    /// traffic flows to cover the whole run.
    pub fn enable_telemetry(&mut self) {
        self.kernel.telemetry.enable();
    }

    /// Whether the telemetry sink is collecting.
    pub fn telemetry_enabled(&self) -> bool {
        self.kernel.telemetry.enabled()
    }

    /// The telemetry series collected so far (empty unless
    /// [`Simulator::enable_telemetry`] was called).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.kernel.telemetry
    }

    /// Statistics over all packets between `client` and `server`.
    pub fn stats(&self, client: HostId, server: HostId) -> TraceStats {
        self.kernel.trace.stats(client, server)
    }

    /// Per-host socket usage (sockets used / max simultaneous).
    pub fn socket_stats(&self, host: HostId) -> SocketStats {
        self.kernel.hosts[host.0 as usize].stats
    }

    /// The display name the host was created with.
    pub fn host_name(&self, host: HostId) -> &str {
        &self.kernel.hosts[host.0 as usize].name
    }

    /// How many sockets, over all hosts, are `Closed`, and the buffer
    /// storage they still hold between them (for tests: a finished
    /// connection pins none). A reaped socket counts, holding nothing.
    #[doc(hidden)]
    pub fn closed_socket_storage(&self) -> (usize, usize) {
        let hosts = &self.kernel.hosts;
        let slots = hosts.iter().flat_map(|h| &h.slots);
        let reaped = slots.filter(|s| s.tcb == REAPED).count();
        let held = hosts.iter().flat_map(|h| &h.tcbs).map(|l| &l.tcb);
        held.filter(|t| t.state() == State::Closed)
            .fold((reaped, 0), |(n, bytes), t| {
                (n + 1, bytes + t.held_storage())
            })
    }

    /// How many `Tcb`s the kernel holds, over all hosts: the sockets an
    /// application can still name (for tests: a finished run holds only
    /// the sockets their own application aborted).
    #[doc(hidden)]
    pub fn held_tcbs(&self) -> usize {
        self.kernel.hosts.iter().map(|h| h.tcbs.len()).sum()
    }

    fn dispatch_pending(&mut self) {
        while let Some((host, ev)) = self.kernel.pending.pop_front() {
            if let Some(mut app) = self.apps[host.0 as usize].take() {
                let mut ctx = Ctx {
                    kernel: &mut self.kernel,
                    host,
                };
                app.on_event(&mut ctx, ev);
                self.apps[host.0 as usize] = Some(app);
            }
            // The socket's last event is handled: nothing names it again.
            // (A socket its own application aborted gets no event, and is
            // held to the end: the application may still name it from an
            // event queued before the abort.)
            if let AppEvent::Closed(sock) | AppEvent::Reset(sock) = ev {
                self.kernel.reap(sock);
            }
        }
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.apps.len() {
            let host = HostId(i as u16);
            if self.apps[i].is_some() {
                self.kernel.pending.push_back((host, AppEvent::Start));
            }
        }
        self.dispatch_pending();
    }

    /// Run until the event queue drains or `deadline` passes. Returns the
    /// number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.start_if_needed();
        let mut processed = 0;
        while let Some((at, ev)) = self.kernel.queue.pop_before(deadline) {
            self.kernel.now = at;
            self.kernel.events_processed += 1;
            processed += 1;
            assert!(
                self.kernel.events_processed < self.kernel.max_events,
                "simulation exceeded {} events — runaway?",
                self.kernel.max_events
            );
            match ev.kind {
                QueuedKind::Arrival => {
                    let seg = ev.segment.expect("arrival carries a segment");
                    self.kernel
                        .handle_arrival(ev.host, seg, ev.sent, ev.physical, ev.dup);
                }
                QueuedKind::TcpTimer { slot, kind, epoch } => {
                    self.kernel.handle_tcp_timer(ev.host, slot, kind, epoch);
                }
                QueuedKind::AppTimer { token } => {
                    self.kernel
                        .pending
                        .push_back((ev.host, AppEvent::Timer(token)));
                }
            }
            self.dispatch_pending();
        }
        processed
    }

    /// Run until no more events remain (including lingering TIME_WAIT
    /// timers, which merely advance the clock).
    pub fn run_until_idle(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use QueuedKind::{AppTimer, Arrival, TcpTimer};

    /// Echo server: accepts connections and echoes every byte back; closes
    /// when the peer half-closes.
    struct Echo {
        port: u16,
        echoed: usize,
    }

    impl App for Echo {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
            match ev {
                AppEvent::Start => ctx.listen(self.port),
                AppEvent::Readable(s) => {
                    let data = ctx.recv(s, usize::MAX);
                    self.echoed += data.len();
                    ctx.send(s, &data);
                }
                AppEvent::PeerFin(s) => ctx.shutdown_write(s),
                _ => {}
            }
        }
    }

    /// Client that sends a payload (handling short writes), waits for the
    /// echo, then closes.
    struct EchoClient {
        server: SockAddr,
        payload: Vec<u8>,
        sent: usize,
        received: Vec<u8>,
        done: bool,
        sock: Option<SocketId>,
    }

    impl EchoClient {
        fn pump_send(&mut self, ctx: &mut Ctx<'_>, s: SocketId) {
            while self.sent < self.payload.len() {
                let n = ctx.send(s, &self.payload[self.sent..]);
                if n == 0 {
                    break;
                }
                self.sent += n;
            }
        }
    }

    impl App for EchoClient {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
            match ev {
                AppEvent::Start => {
                    self.sock = Some(ctx.connect(self.server));
                }
                AppEvent::Connected(s) | AppEvent::SendSpace(s) => {
                    self.pump_send(ctx, s);
                }
                AppEvent::Readable(s) => {
                    let data = ctx.recv(s, usize::MAX);
                    self.received.extend_from_slice(&data);
                    if self.received.len() == self.payload.len() {
                        self.done = true;
                        ctx.shutdown_write(s);
                    }
                }
                _ => {}
            }
        }
    }

    fn echo_roundtrip(cfg: LinkConfig, payload_len: usize) -> (Simulator, HostId, HostId) {
        echo_roundtrip_mode(cfg, payload_len, TraceMode::Full)
    }

    fn echo_roundtrip_mode(
        cfg: LinkConfig,
        payload_len: usize,
        mode: TraceMode,
    ) -> (Simulator, HostId, HostId) {
        let (mut sim, client, server) = echo_sim(cfg, payload_len);
        sim.set_trace_mode(mode);
        sim.run_until_idle();
        (sim, client, server)
    }

    /// An echo client and server on one link, not yet run.
    fn echo_sim(cfg: LinkConfig, payload_len: usize) -> (Simulator, HostId, HostId) {
        let mut sim = Simulator::new();
        let client = sim.add_host("client");
        let server = sim.add_host("server");
        sim.add_link(client, server, cfg);
        sim.install_app(
            server,
            Box::new(Echo {
                port: 80,
                echoed: 0,
            }),
        );
        sim.install_app(
            client,
            Box::new(EchoClient {
                server: SockAddr::new(server, 80),
                payload: (0..payload_len).map(|i| (i % 251) as u8).collect(),
                sent: 0,
                received: Vec::new(),
                done: false,
                sock: None,
            }),
        );
        (sim, client, server)
    }

    #[test]
    fn echo_small_payload_lan() {
        let (mut sim, client, _server) = echo_roundtrip(LinkConfig::lan(), 100);
        let app = sim.app_mut::<EchoClient>(client).unwrap();
        assert!(app.done, "echo completed");
        assert_eq!(app.received.len(), 100);
    }

    #[test]
    fn echo_large_payload_wan() {
        let (mut sim, client, server) = echo_roundtrip(LinkConfig::wan(), 100_000);
        let app = sim.app_mut::<EchoClient>(client).unwrap();
        assert!(app.done);
        assert_eq!(app.received.len(), 100_000);
        let stats = sim.stats(client, server);
        // 200 KB of payload at 1460 MSS in both directions: at least 138
        // data segments, and the handshake.
        assert!(stats.total_packets() > 140);
        assert!(stats.syns == 2);
    }

    #[test]
    fn echo_over_lossy_link_still_completes() {
        let (mut sim, client, _server) =
            echo_roundtrip(LinkConfig::lan().with_drop_every(7), 50_000);
        let app = sim.app_mut::<EchoClient>(client).unwrap();
        assert!(app.done, "retransmission recovered all losses");
        assert_eq!(app.received.len(), 50_000);
    }

    #[test]
    fn connection_to_closed_port_resets() {
        struct Probe {
            server: SockAddr,
            reset: bool,
        }
        impl App for Probe {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
                match ev {
                    AppEvent::Start => {
                        ctx.connect(self.server);
                    }
                    AppEvent::Reset(_) => self.reset = true,
                    _ => {}
                }
            }
        }
        let mut sim = Simulator::new();
        let client = sim.add_host("client");
        let server = sim.add_host("server");
        sim.add_link(client, server, LinkConfig::lan());
        sim.install_app(
            client,
            Box::new(Probe {
                server: SockAddr::new(server, 81), // nothing listens there
                reset: false,
            }),
        );
        sim.run_until_idle();
        assert!(sim.app_mut::<Probe>(client).unwrap().reset);
    }

    #[test]
    fn socket_stats_track_usage() {
        let (sim, client, server) = echo_roundtrip(LinkConfig::lan(), 10);
        assert_eq!(sim.socket_stats(client).sockets_used, 1);
        assert_eq!(sim.socket_stats(server).sockets_used, 1);
        assert!(sim.socket_stats(client).max_simultaneous >= 1);
    }

    #[test]
    fn app_timer_fires() {
        struct TimerApp {
            fired: Vec<u64>,
        }
        impl App for TimerApp {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
                match ev {
                    AppEvent::Start => {
                        ctx.set_timer(7, SimDuration::from_millis(50));
                        ctx.set_timer(8, SimDuration::from_millis(10));
                    }
                    AppEvent::Timer(t) => self.fired.push(t),
                    _ => {}
                }
            }
        }
        let mut sim = Simulator::new();
        let h = sim.add_host("solo");
        sim.install_app(h, Box::new(TimerApp { fired: Vec::new() }));
        sim.run_until_idle();
        assert_eq!(sim.app_mut::<TimerApp>(h).unwrap().fired, vec![8, 7]);
    }

    #[test]
    fn elapsed_time_reflects_link_latency() {
        let (sim, client, server) = echo_roundtrip(LinkConfig::wan(), 1000);
        let stats = sim.stats(client, server);
        // Handshake + request + echo + close takes several RTTs at 90 ms.
        assert!(stats.elapsed_secs() > 0.15, "got {}", stats.elapsed_secs());
    }

    #[test]
    fn trace_dump_contains_syn() {
        let (sim, _c, _s) = echo_roundtrip(LinkConfig::lan(), 10);
        let dump = sim.trace().dump();
        assert!(dump.contains("[S]"), "dump:\n{dump}");
    }

    /// The same simulation observed in both trace modes must report
    /// identical statistics, while the stats-only run retains no records.
    #[test]
    fn stats_only_simulation_matches_full() {
        for cfg in [
            LinkConfig::lan(),
            LinkConfig::wan(),
            LinkConfig::lan().with_drop_every(7),
        ] {
            let (full, c1, s1) = echo_roundtrip_mode(cfg.clone(), 30_000, TraceMode::Full);
            let (lean, c2, s2) = echo_roundtrip_mode(cfg, 30_000, TraceMode::StatsOnly);
            assert_eq!(full.stats(c1, s1), lean.stats(c2, s2));
            assert_eq!(full.trace().len(), lean.trace().len());
            assert!(!full.trace().records().is_empty());
            assert!(lean.trace().records().is_empty());
            assert_eq!(lean.trace_mode(), TraceMode::StatsOnly);
        }
    }

    /// Ephemeral allocation must skip (port, remote) 4-tuples still
    /// claimed by live sockets instead of silently clobbering their demux
    /// entries.
    #[test]
    fn ephemeral_port_allocation_skips_live_tuples() {
        let mut sim = Simulator::new();
        let client = sim.add_host("client");
        let server = sim.add_host("server");
        sim.add_link(client, server, LinkConfig::lan());
        let remote = SockAddr::new(server, 80);
        // Claim the first two candidate ports, as lingering TIME_WAIT
        // connections to the same peer would.
        sim.kernel.host(client).demux.insert((40_000, remote), 1000);
        sim.kernel.host(client).demux.insert((40_001, remote), 1001);
        let sock = sim.kernel.connect(client, remote);
        let local = sim.kernel.sock(sock).local;
        assert_eq!(local.port, 40_002, "first free port is chosen");
        // A connection to a different peer is unaffected by those claims.
        let other = SockAddr::new(server, 8080);
        let sock2 = sim.kernel.connect(client, other);
        assert_eq!(sim.kernel.sock(sock2).local.port, 40_003);
    }

    #[test]
    fn ephemeral_ports_wrap_back_to_forty_thousand() {
        assert_eq!(Kernel::next_ephemeral_after(40_000), 40_001);
        assert_eq!(Kernel::next_ephemeral_after(u16::MAX), 40_000);
        assert_eq!(Kernel::next_ephemeral_after(39_999), 40_000);
    }

    /// Force the allocator to the top of the ephemeral range: it must wrap
    /// to 40000 mid-burst without panicking or clobbering live tuples.
    #[test]
    fn ephemeral_allocation_survives_wraparound() {
        let mut sim = Simulator::new();
        let client = sim.add_host("client");
        let server = sim.add_host("server");
        sim.add_link(client, server, LinkConfig::lan());
        let remote = SockAddr::new(server, 80);
        sim.kernel.host(client).next_ephemeral = u16::MAX - 2;
        let mut ports = Vec::new();
        for _ in 0..6 {
            let sock = sim.kernel.connect(client, remote);
            ports.push(sim.kernel.sock(sock).local.port);
        }
        assert_eq!(
            ports,
            vec![65533, 65534, 65535, 40_000, 40_001, 40_002],
            "wraps past 65535 back into the ephemeral range"
        );
    }

    /// N spoke hosts on one shared FIFO bottleneck: traffic from different
    /// clients serializes behind the same transmitter, so each transfer is
    /// slower than it would be on a private link, yet all complete.
    #[test]
    fn shared_bottleneck_serializes_competing_clients() {
        let run = |shared: bool| -> (f64, Vec<usize>) {
            let mut sim = Simulator::new();
            let clients: Vec<HostId> = (0..4).map(|i| sim.add_host(&format!("c{i}"))).collect();
            let server = sim.add_host("server");
            if shared {
                sim.add_shared_link(&clients, server, LinkConfig::ppp());
            } else {
                for &c in &clients {
                    sim.add_link(c, server, LinkConfig::ppp());
                }
            }
            sim.install_app(
                server,
                Box::new(Echo {
                    port: 80,
                    echoed: 0,
                }),
            );
            for &c in &clients {
                sim.install_app(
                    c,
                    Box::new(EchoClient {
                        server: SockAddr::new(server, 80),
                        payload: vec![7u8; 20_000],
                        sent: 0,
                        received: Vec::new(),
                        done: false,
                        sock: None,
                    }),
                );
            }
            sim.run_until_idle();
            let elapsed = clients
                .iter()
                .map(|&c| sim.stats(c, server).elapsed_secs())
                .fold(0.0f64, f64::max);
            let received = clients
                .iter()
                .map(|&c| {
                    let app = sim.app_mut::<EchoClient>(c).unwrap();
                    assert!(app.done, "every client finishes");
                    app.received.len()
                })
                .collect();
            (elapsed, received)
        };
        let (private_t, private_rx) = run(false);
        let (shared_t, shared_rx) = run(true);
        assert_eq!(private_rx, shared_rx);
        assert!(
            shared_t > 3.0 * private_t,
            "4 clients behind one 28.8k modem should take ~4x as long \
             (private {private_t:.2}s shared {shared_t:.2}s)"
        );
    }

    /// A 4-tuple opened again after its first connection closed takes a new
    /// socket slot and continues the series its first life began.
    #[test]
    fn a_reopened_four_tuple_continues_its_series() {
        let (mut sim, client, server) = echo_sim(LinkConfig::lan(), 5_000);
        sim.enable_telemetry();
        sim.run_until_idle();
        let first_life = sim.telemetry().summary();

        let remote = SockAddr::new(server, 80);
        sim.kernel.host(client).next_ephemeral = 40_000;
        let sock = sim.kernel.connect(client, remote);
        assert_eq!((sock.slot, sim.kernel.sock(sock).local.port), (1, 40_000));
        sim.run_until_idle();

        let both_lives = sim.telemetry().summary();
        assert_eq!(both_lives.series, first_life.series, "no series made twice");
        assert!(both_lives.hist_samples > first_life.hist_samples);
        let keys: Vec<_> = sim.telemetry().series().iter().map(|s| s.key).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "one series per key");
        let scope = Scope::Conn {
            host: client,
            local: SockAddr::new(client, 40_000),
            remote,
        };
        let rto = sim.telemetry().get(scope, Metric::RtoNs).expect("recorded");
        let ticks: Vec<u64> = rto.points().iter().map(|p| p.tick).collect();
        assert!(
            ticks.windows(2).all(|w| w[0] < w[1]),
            "one timeline: {ticks:?}"
        );
    }

    /// The sink may be enabled mid-run: sockets, links and hosts already in
    /// use are resolved at their next sample, and every gauge then reads as
    /// the always-on run's does from that instant — its held value first,
    /// the same points after.
    #[test]
    fn enabling_late_records_from_that_instant() {
        let run = |enable_at: Option<SimTime>| {
            let (mut sim, client, _) = echo_sim(LinkConfig::wan(), 100_000);
            if let Some(at) = enable_at {
                sim.run_until(at);
                assert!(sim.socket_stats(client).sockets_used > 0, "traffic flowed");
            }
            sim.enable_telemetry();
            sim.run_until_idle();
            sim
        };
        let enable_at = SimTime::from_nanos(500_000_000);
        let whole = run(None);
        let late = run(Some(enable_at));
        let first_tick = enable_at.as_nanos() / crate::telemetry::DEFAULT_TICK.as_nanos();

        let mut gauges = 0;
        for s in late.telemetry().series() {
            let whole_data = whole.telemetry().get(s.key.scope, s.key.metric);
            let whole_points: Vec<_> = whole_data
                .expect("filed under the key it always had")
                .points()
                .iter()
                .collect();
            if s.key.metric.kind() != crate::telemetry::SeriesKind::Gauge {
                continue;
            }
            gauges += 1;
            let mut points = s.data.points().iter();
            let first = points.next().expect("a series has a point");
            assert!(first.tick >= first_tick, "{:?}", s.key);
            let held = whole_points.iter().rev().find(|p| p.tick <= first.tick);
            assert_eq!(held.map(|p| p.value), Some(first.value), "{:?}", s.key);
            let after = whole_points.iter().filter(|p| p.tick > first.tick);
            assert!(points.eq(after.copied()), "{:?}", s.key);
        }
        // Both ends of the connection opened before the sink was on, both
        // link directions and the effects pool: cwnd, ssthresh, flight, RTO
        // and recovery on each end, two queues, one pool.
        assert_eq!(gauges, 13);
    }

    /// The queued timer entries of one socket and kind.
    fn queued_timers(kernel: &Kernel, sock: SocketId, kind: TimerKind) -> usize {
        let of_sock = |ev: &&QueuedEvent| match ev.kind {
            TcpTimer { slot, kind: k, .. } => {
                ev.host == sock.host && slot == sock.slot && k == kind
            }
            _ => false,
        };
        kernel.queue.items().filter(of_sock).count()
    }

    fn timers_fired(sim: &Simulator, only: Option<TimerKind>) -> usize {
        let fired = |r: &&ProbeRecord| match r.kind {
            ProbeEventKind::Tcp(crate::probe::TcpProbeEvent::TimerFired { kind }) => {
                only.is_none_or(|k| k == kind)
            }
            _ => false,
        };
        sim.probe_records().iter().filter(fired).count()
    }

    /// Every event the kernel pops does work: an arrival, or a timer
    /// that fires. Re-armed timers moved their one entry and cancelled
    /// ones left, so no socket ever has two entries of one kind queued.
    #[test]
    fn a_clean_bulk_transfer_queues_only_live_events() {
        let (mut sim, client, _) = echo_sim(LinkConfig::wan(), 100_000);
        sim.enable_probe();
        let mut processed = sim.run_until(SimTime::ZERO);
        let mut instants = 0;
        while let Some(at) = sim.kernel.queue.next_at() {
            processed += sim.run_until(at);
            instants += 1;
            let mut timers: Vec<_> = (sim.kernel.queue.items())
                .filter_map(|ev| match ev.kind {
                    TcpTimer { slot, kind, .. } => Some((ev.host, slot, kind.index())),
                    _ => None,
                })
                .collect();
            let queued = timers.len();
            timers.sort_unstable();
            timers.dedup();
            assert_eq!(
                timers.len(),
                queued,
                "one entry per (socket, kind) after {at:?}"
            );
        }
        assert!(sim.app_mut::<EchoClient>(client).unwrap().done);
        assert!(instants > 100, "stepped through the run: {instants}");
        let arrivals = sim.trace().len();
        let fired = timers_fired(&sim, None);
        assert!(fired > 0, "TIME_WAIT at least");
        assert_eq!(processed as usize, arrivals + fired, "no app timers here");
        assert_eq!(processed, sim.kernel.events_processed);
    }

    /// Answers each request at once, so the answer carries the ACK the
    /// request's delayed-ACK timer was waiting to send; records the queue
    /// around that write.
    struct Answer {
        /// (queue length, delayed-ACK entries of the socket) before and
        /// after each write.
        seen: Vec<((usize, usize), (usize, usize))>,
    }

    impl App for Answer {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
            match ev {
                AppEvent::Start => ctx.listen(80),
                AppEvent::Readable(s) => {
                    let data = ctx.recv(s, usize::MAX);
                    let look = |k: &Kernel| (k.queue.len(), queued_timers(k, s, TimerKind::DelAck));
                    let before = look(ctx.kernel);
                    ctx.send(s, &data);
                    self.seen.push((before, look(ctx.kernel)));
                }
                AppEvent::PeerFin(s) => ctx.shutdown_write(s),
                _ => {}
            }
        }
    }

    #[test]
    fn a_cancelled_timer_never_reaches_the_tcb() {
        let (mut sim, client, server) = echo_sim(LinkConfig::wan(), 100);
        sim.install_app(server, Box::new(Answer { seen: Vec::new() }));
        sim.enable_probe();
        sim.run_until_idle();
        assert!(sim.app_mut::<EchoClient>(client).unwrap().done);
        let seen = &sim.app_mut::<Answer>(server).unwrap().seen;
        let [((before, delack_before), (after, delack_after))] = seen[..] else {
            panic!("one request, one answer: {seen:?}");
        };
        assert_eq!((delack_before, delack_after), (1, 0));
        // The write sends one segment (its arrival queued) and arms the
        // retransmission timer; the delayed ACK it flushes leaves, where
        // an eager queue would have kept it to pop as a no-op.
        assert_eq!(after, before + 1);
        let records = sim.probe_records();
        let count =
            |want: fn(&ProbeEventKind) -> bool| records.iter().filter(|r| want(&r.kind)).count();
        let arms = count(|k| {
            matches!(
                k,
                ProbeEventKind::Tcp(crate::probe::TcpProbeEvent::DelAckArm { .. })
            )
        });
        let flushes = count(|k| {
            matches!(
                k,
                ProbeEventKind::Tcp(crate::probe::TcpProbeEvent::DelAckFlush)
            )
        });
        assert!(arms >= 2, "both ends armed one: {arms}");
        assert_eq!(flushes, arms, "every arm was flushed by a piggy-backed ACK");
        assert_eq!(timers_fired(&sim, Some(TimerKind::DelAck)), 0);
    }

    /// What popped, without running it.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    enum Popped {
        Arrival(HostId),
        Timer(u32, TimerKind, u64),
    }

    /// Pop the next event and forget its handle, as `run_until` does,
    /// without handling it.
    fn pop_unhandled(sim: &mut Simulator) -> Option<(SimTime, Popped)> {
        let (at, ev) = sim.kernel.queue.pop()?;
        let popped = match ev.kind {
            Arrival => Popped::Arrival(ev.host),
            TcpTimer { slot, kind, epoch } => {
                sim.kernel.host(ev.host).slots[slot as usize].timers[kind.index()] = None;
                Popped::Timer(slot, kind, epoch)
            }
            AppTimer { .. } => unreachable!("no app timers here"),
        };
        Some((at, popped))
    }

    /// Timers of two sockets tie with arrivals at one nanosecond and are
    /// re-armed (later, earlier, within one call), cancelled and armed
    /// again in interleaved calls: live events pop exactly as from an
    /// eager queue that pushes every arm and skips stale ones.
    #[test]
    fn a_rearm_keeps_the_eager_order() {
        #[derive(Clone, Copy)]
        enum Op {
            Send,
            Arm(TimerKind, u64),
            Cancel(TimerKind),
        }
        use Op::*;
        use TimerKind::{DelAck, Persist, Rto};

        let d = SimDuration::from_micros(250);
        let mut sim = Simulator::new();
        let a = sim.add_host("a");
        let b = sim.add_host("b");
        sim.add_link(a, b, LinkConfig::ideal(d));
        let socks = [80, 81].map(|port| sim.kernel.connect(a, SockAddr::new(b, port)));
        while pop_unhandled(&mut sim).is_some() {}

        let t0 = SimTime::from_nanos(1_000_000_000);
        sim.kernel.now = t0;
        let tie = (t0 + d).as_nanos();
        // (socket, what one TCB call does), in call order.
        let script: [(usize, &[Op]); 9] = [
            (0, &[Send, Arm(Rto, tie), Arm(DelAck, tie)]),
            (1, &[Arm(Rto, tie), Send]),
            (0, &[Arm(Rto, tie)]),
            (1, &[Arm(DelAck, tie), Cancel(DelAck), Arm(DelAck, tie)]),
            (0, &[Cancel(DelAck), Send]),
            (1, &[Arm(Rto, tie + 1)]),
            (0, &[Arm(Persist, tie), Arm(Rto, tie - 1), Send]),
            (1, &[Arm(Rto, tie), Arm(DelAck, tie), Arm(DelAck, tie - 1)]),
            (0, &[Arm(DelAck, tie), Cancel(Persist), Arm(Rto, tie)]),
        ];
        // The eager reference: every arrival and every arm pushed, in
        // the kernel's order — a call's segments, then its timers.
        let mut eager: Vec<(SimTime, u64, Popped)> = Vec::new();
        let mut seq = 0;
        let mut push = |eager: &mut Vec<_>, at: SimTime, what: Popped| {
            seq += 1;
            eager.push((at, seq, what));
        };
        for (i, ops) in script {
            let sock = socks[i];
            let mut fx = Effects::default();
            let tcb = sim.kernel.sock(sock);
            for &op in ops {
                match op {
                    Send => fx.segments.push(Segment::rst(tcb.local, tcb.remote, 0)),
                    Arm(kind, ns) => tcb.arm_timer(kind, SimTime::from_nanos(ns), &mut fx),
                    Cancel(kind) => tcb.cancel_timer(kind),
                }
            }
            for _ in &fx.segments {
                push(&mut eager, t0 + d, Popped::Arrival(b));
            }
            for &(kind, at, epoch) in &fx.timers {
                push(&mut eager, at, Popped::Timer(sock.slot, kind, epoch));
            }
            sim.kernel.apply_effects(a, sock.slot, &mut fx);
        }
        eager.sort_by_key(|&(at, seq, _)| (at, seq));
        let pushed = eager.len();
        let live = |sim: &mut Simulator, what: &Popped| match *what {
            Popped::Arrival(_) => true,
            Popped::Timer(slot, kind, epoch) => {
                sim.kernel
                    .sock(SocketId { host: a, slot })
                    .timer_epoch(kind)
                    == epoch
            }
        };
        let want: Vec<_> = eager
            .into_iter()
            .filter(|(_, _, what)| live(&mut sim, what))
            .map(|(at, _, what)| (at, what))
            .collect();
        assert_eq!(
            sim.kernel.queue.len(),
            want.len(),
            "only live events are queued"
        );
        let got: Vec<_> = std::iter::from_fn(|| pop_unhandled(&mut sim)).collect();
        assert_eq!(got, want);
        assert!(
            pushed > want.len() + 8,
            "most arms were superseded: {want:?}"
        );
    }

    /// Counts every call it makes into its socket.
    struct Calls {
        server: Option<SockAddr>,
        made: usize,
    }

    impl App for Calls {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
            match (ev, self.server) {
                (AppEvent::Start, Some(server)) => {
                    ctx.connect(server);
                    self.made += 1;
                }
                (AppEvent::Start, None) => ctx.listen(80),
                (AppEvent::Connected(s), _) => {
                    ctx.send(s, &[7; 40_000]);
                    ctx.shutdown_write(s);
                    self.made += 2;
                }
                (AppEvent::Readable(s), _) => {
                    ctx.recv(s, usize::MAX);
                    self.made += 1;
                }
                (AppEvent::PeerFin(s), None) => {
                    ctx.send(s, &[9; 20_000]);
                    ctx.shutdown_write(s);
                    self.made += 2;
                }
                _ => {}
            }
        }
    }

    /// The flight-size histogram takes one sample per TCB call that ran
    /// — a segment delivered, a timer fired, an application call — and
    /// none for a timer entry superseded before it was due.
    #[test]
    fn flight_hist_counts_tcb_calls_not_queue_entries() {
        let mut sim = Simulator::new();
        let client = sim.add_host("client");
        let server = sim.add_host("server");
        sim.add_link(client, server, LinkConfig::wan());
        let to = SockAddr::new(server, 80);
        sim.install_app(
            client,
            Box::new(Calls {
                server: Some(to),
                made: 0,
            }),
        );
        sim.install_app(
            server,
            Box::new(Calls {
                server: None,
                made: 0,
            }),
        );
        sim.enable_probe();
        sim.enable_telemetry();
        sim.run_until_idle();
        let samples: u64 = (sim.telemetry().series())
            .iter()
            .filter(|s| s.key.metric == Metric::FlightHist)
            .map(|s| match s.data {
                crate::telemetry::SeriesData::Histogram(h) => h.total(),
                _ => unreachable!("a histogram"),
            })
            .sum();
        let calls: usize = [client, server]
            .map(|h| sim.app_mut::<Calls>(h).unwrap().made)
            .iter()
            .sum();
        let arrivals = sim.trace().len();
        let fired = timers_fired(&sim, None);
        assert_eq!(samples as usize, arrivals + fired + calls);
        assert!(fired > 0 && calls > 10, "fired {fired}, calls {calls}");
    }

    /// A bounded listen backlog silently drops overflow SYNs; clients
    /// recover via SYN retransmission, so every connection still
    /// establishes eventually.
    #[test]
    fn listen_backlog_overflow_drops_syns_then_recovers() {
        struct BacklogEcho {
            port: u16,
            backlog: u32,
            accepted: u64,
        }
        impl App for BacklogEcho {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
                match ev {
                    AppEvent::Start => ctx.listen_with_backlog(self.port, self.backlog),
                    AppEvent::Accepted { .. } => self.accepted += 1,
                    AppEvent::Readable(s) => {
                        let data = ctx.recv(s, usize::MAX);
                        ctx.send(s, &data);
                    }
                    AppEvent::PeerFin(s) => ctx.shutdown_write(s),
                    _ => {}
                }
            }
        }
        let mut sim = Simulator::new();
        let clients: Vec<HostId> = (0..8).map(|i| sim.add_host(&format!("c{i}"))).collect();
        let server = sim.add_host("server");
        // High-latency link: SYN-RCVD entries linger a full RTT, so eight
        // simultaneous SYNs overflow a backlog of two.
        sim.add_shared_link(&clients, server, LinkConfig::wan());
        sim.install_app(
            server,
            Box::new(BacklogEcho {
                port: 80,
                backlog: 2,
                accepted: 0,
            }),
        );
        for &c in &clients {
            sim.install_app(
                c,
                Box::new(EchoClient {
                    server: SockAddr::new(server, 80),
                    payload: vec![1u8; 100],
                    sent: 0,
                    received: Vec::new(),
                    done: false,
                    sock: None,
                }),
            );
        }
        sim.run_until_idle();
        let stats = sim.socket_stats(server);
        assert!(
            stats.syn_drops > 0,
            "backlog of 2 must shed some of 8 simultaneous SYNs"
        );
        assert_eq!(stats.sockets_used, 8, "retransmitted SYNs all land");
        for &c in &clients {
            assert!(sim.app_mut::<EchoClient>(c).unwrap().done);
        }
    }

    /// Echoes like [`Echo`], keeps the id of the socket whose `Closed` it
    /// handled, and reads from it again on a timer.
    struct ReadsAfterClosed {
        closed: Option<SocketId>,
    }

    impl App for ReadsAfterClosed {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
            match ev {
                AppEvent::Start => ctx.listen(80),
                AppEvent::Readable(s) => {
                    let data = ctx.recv(s, usize::MAX);
                    ctx.send(s, &data);
                }
                AppEvent::PeerFin(s) => ctx.shutdown_write(s),
                AppEvent::Closed(s) => {
                    // Still its socket while the event is handled.
                    assert!(ctx.recv(s, usize::MAX).is_empty());
                    self.closed = Some(s);
                    ctx.set_timer(0, SimDuration::from_millis(1));
                }
                AppEvent::Timer(_) => {
                    ctx.recv(self.closed.expect("closed first"), 1);
                }
                _ => {}
            }
        }
    }

    #[test]
    #[should_panic(expected = "after its Closed/Reset event")]
    fn a_socket_used_after_its_closed_event_panics() {
        let (mut sim, _, server) = echo_sim(LinkConfig::lan(), 100);
        sim.install_app(server, Box::new(ReadsAfterClosed { closed: None }));
        sim.run_until_idle();
    }

    #[test]
    #[should_panic(expected = "is another host's")]
    fn a_socket_of_another_host_cannot_be_used() {
        struct Trespasser(SocketId);
        impl App for Trespasser {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
                if let AppEvent::Connected(_) = ev {
                    ctx.readable_bytes(self.0);
                }
            }
        }
        let (mut sim, client, server) = echo_sim(LinkConfig::lan(), 100);
        sim.kernel.connect(client, SockAddr::new(server, 80));
        // By the time the client hears `Connected`, the server holds the
        // other end in its slot 0.
        let theirs = SocketId {
            host: server,
            slot: 0,
        };
        sim.install_app(client, Box::new(Trespasser(theirs)));
        sim.run_until_idle();
    }

    /// What the kernel keeps per socket: the `Tcb` while it is held, and
    /// a slot for the whole run.
    #[test]
    fn socket_table_entries_stay_small() {
        assert!(std::mem::size_of::<SlotState>() <= 24);
        assert!(std::mem::size_of::<Live>() <= std::mem::size_of::<Tcb>() + 8);
    }
}
