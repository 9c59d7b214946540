//! A TCP state machine faithful enough to reproduce the protocol mechanics
//! the paper measures: three-way handshake, slow start and congestion
//! avoidance, delayed acknowledgements, the Nagle algorithm, independent
//! half-close, RST semantics on data-after-close, retransmission with
//! Jacobson RTO estimation, and fast retransmit.
//!
//! The machine is *pure*: every entry point takes the current time and an
//! [`Effects`] sink into which it pushes segments to transmit, timers to arm
//! and application notifications. The surrounding kernel (see
//! [`crate::sim`]) owns delivery, which keeps this module directly
//! unit-testable.

use crate::cc::{self, CcContext, CcCtl, CcSignal, CcVariant, CongestionControl};
use crate::packet::{SackBlocks, Segment, SockAddr, TcpFlags};
use crate::probe::{BlockReason, TcpProbeEvent};
use crate::seq::Seq;
use crate::time::{SimDuration, SimTime};
use bytes::{Bytes, BytesQueue};
use std::collections::BTreeMap;

/// Every connection's initial send sequence number: every pinned figure
/// was measured from 0, and no arithmetic depends on it.
const ISS: Seq = Seq::new(0);

/// The slow-start threshold before any loss, in bytes.
const INITIAL_SSTHRESH: usize = 65_535;

/// The retransmission timeout before any RTT measurement exists: the
/// classic BSD initial RTO of 3 s (RFC 1122). A smaller value causes
/// spurious retransmission storms when several connections share a slow
/// modem link — a real 1990s failure mode, but not one the paper's traces
/// show.
pub const INITIAL_RTO: SimDuration = SimDuration::from_millis(3_000);

/// The lower bound on the retransmission timeout.
pub const MIN_RTO: SimDuration = SimDuration::from_millis(500);

/// Tunable parameters of a TCP endpoint.
///
/// Defaults model a mid-1990s BSD-derived stack as used in the paper's
/// testbed: 1460-byte MSS, 200 ms delayed-ACK timer, Nagle enabled, initial
/// congestion window of two segments.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per segment).
    pub mss: usize,
    /// Receive buffer / advertised window in bytes.
    pub recv_window: usize,
    /// Send buffer capacity in bytes; writes beyond it are truncated and the
    /// application is notified when space frees up.
    pub send_buffer: usize,
    /// Initial congestion window, in segments.
    pub initial_cwnd_segments: u32,
    /// Disable the Nagle algorithm (TCP_NODELAY).
    pub nodelay: bool,
    /// Delayed-ACK timeout; an ACK is also forced every second full segment.
    pub delayed_ack: SimDuration,
    /// How long a socket lingers in TIME_WAIT (2·MSL).
    pub time_wait: SimDuration,
    /// Which congestion-control algorithm drives the window (see
    /// [`crate::cc`]). [`CcVariant::Sack`] also turns on receiver-side
    /// SACK block generation.
    pub cc: CcVariant,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            recv_window: 65_535,
            send_buffer: 65_535,
            initial_cwnd_segments: 2,
            nodelay: false,
            delayed_ack: SimDuration::from_millis(200),
            time_wait: SimDuration::from_secs(60),
            cc: CcVariant::Reno,
        }
    }
}

/// TCP connection states (RFC 793), minus LISTEN which is handled by the
/// kernel's port table rather than a TCB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Syn sent.
    SynSent,
    /// Syn rcvd.
    SynRcvd,
    /// Established.
    Established,
    /// Fin wait1.
    FinWait1,
    /// Fin wait2.
    FinWait2,
    /// Close wait.
    CloseWait,
    /// Last ack.
    LastAck,
    /// Closing.
    Closing,
    /// Time wait.
    TimeWait,
    /// Closed.
    Closed,
}

impl State {
    /// Whether the endpoint still occupies a socket slot visible to
    /// `netstat` (used for the paper's "max simultaneous sockets" metric).
    pub fn is_open(self) -> bool {
        !matches!(self, State::Closed)
    }
}

/// Every transition a [`Tcb`] may take, as (from, to); from `None` is
/// from any state. It is the RFC 793 §3.2 diagram restricted to the paths
/// this simulator models: a TCB is born in SYN-SENT ([`Tcb::open_active`])
/// or SYN-RECEIVED ([`Tcb::open_passive`]), LISTEN is the kernel's port
/// table, and there is no simultaneous open. [`Tcb::enter`] panics on any
/// other edge.
const RFC793: [(Option<State>, State); 13] = {
    use State::*;
    [
        (Some(SynSent), Established),   // SYN-ACK received, ACK sent
        (Some(SynRcvd), Established),   // ACK of our SYN-ACK received
        (Some(Established), FinWait1),  // local close, FIN sent
        (Some(Established), CloseWait), // FIN received
        (Some(CloseWait), LastAck),     // local close, FIN sent
        (Some(FinWait1), FinWait2),     // our FIN acked
        (Some(FinWait1), Closing),      // FIN received before our FIN acked
        (Some(FinWait1), TimeWait),     // peer FIN consumed by a segment acking ours
        (Some(FinWait2), TimeWait),     // FIN received
        (Some(Closing), TimeWait),      // our FIN acked
        (Some(LastAck), Closed),        // our FIN acked
        (Some(TimeWait), Closed),       // 2MSL timer expiry
        (None, Closed),                 // RST received or local abort (§3.4)
    ]
};

#[cfg(test)]
thread_local! {
    /// The edges TCBs on this thread have taken, each once, for the test
    /// that every row of [`RFC793`] is exercised.
    static TAKEN: std::cell::RefCell<Vec<(State, State)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Per-connection timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Retransmission timeout.
    Rto,
    /// Delayed-ACK timeout.
    DelAck,
    /// TIME_WAIT expiry.
    TimeWait,
    /// Zero-window persist probe.
    Persist,
}

impl TimerKind {
    /// Number of distinct timer kinds.
    pub const COUNT: usize = 4;
    /// Every kind, in [`TimerKind::index`] order.
    pub(crate) const ALL: [TimerKind; TimerKind::COUNT] = [
        TimerKind::Rto,
        TimerKind::DelAck,
        TimerKind::TimeWait,
        TimerKind::Persist,
    ];
    /// Stable array index for this timer kind.
    pub fn index(self) -> usize {
        match self {
            TimerKind::Rto => 0,
            TimerKind::DelAck => 1,
            TimerKind::TimeWait => 2,
            TimerKind::Persist => 3,
        }
    }
}

/// Notifications surfaced to the owning application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockNotify {
    /// Active open completed (SYN-ACK received).
    Connected,
    /// Passive open completed (handshake ACK received).
    Accepted,
    /// New data is available to read.
    Readable,
    /// The peer sent FIN: no more data will arrive after the buffered bytes.
    PeerFin,
    /// Send-buffer space freed after the application hit the cap.
    SendSpace,
    /// The connection was reset by the peer; unread data was discarded.
    Reset,
    /// The connection has fully closed gracefully.
    Closed,
}

/// Side effects produced by driving the state machine.
#[derive(Debug, Default)]
pub struct Effects {
    /// Segments to transmit, in order.
    pub segments: Vec<Segment>,
    /// Timers to arm: (kind, deadline, epoch). A timer fires only if its
    /// epoch still matches the TCB's current epoch for that kind.
    pub timers: Vec<(TimerKind, SimTime, u64)>,
    /// Events to surface to the owning application.
    pub notifications: Vec<SockNotify>,
    /// Probe events for the flight recorder (empty unless the owning
    /// kernel enabled its [`crate::probe::ProbeSink`]).
    pub probe: Vec<TcpProbeEvent>,
}

impl Effects {
    /// Drop all accumulated contents.
    pub fn clear(&mut self) {
        self.segments.clear();
        self.timers.clear();
        self.notifications.clear();
        self.probe.clear();
    }
}

/// Congestion-control and round-trip estimation state. Window policy
/// is delegated to the pluggable [`CcCtl`]; the RTT estimator and RTO
/// backoff are variant-independent and stay here.
#[derive(Debug)]
struct CongestionState {
    ctl: CcCtl,
    /// Smoothed RTT and variance (Jacobson/Karels), in nanoseconds.
    srtt_ns: Option<u64>,
    rttvar_ns: u64,
    rto: SimDuration,
    rto_backoff: u32,
    /// Outstanding RTT measurement: (sequence that must be acked, send time).
    rtt_sample: Option<(Seq, SimTime)>,
}

/// A TCP control block.
#[derive(Debug)]
pub struct Tcb {
    /// This endpoint's address.
    pub local: SockAddr,
    /// The peer's address.
    pub remote: SockAddr,
    /// Current RFC 793 connection state; only [`Tcb::enter`] changes it.
    state: State,
    cfg: TcpConfig,

    // --- send side ---
    /// First unacknowledged sequence number.
    snd_una: Seq,
    /// Next sequence number to send.
    snd_nxt: Seq,
    /// Unacknowledged and unsent data, as the application queued it;
    /// `buf_base` is the sequence number of its first byte.
    send_buf: BytesQueue,
    buf_base: Seq,
    /// Peer's advertised receive window.
    peer_window: usize,
    fin_queued: bool,
    fin_sent: bool,
    fin_seq: Option<Seq>,
    /// Application hit the send-buffer cap and wants a SendSpace notify.
    send_blocked: bool,

    // --- receive side ---
    /// Next expected in-order sequence number.
    rcv_nxt: Seq,
    /// In-order data awaiting application reads: the payloads as they
    /// arrived.
    recv_buf: BytesQueue,
    /// Out-of-order segments keyed by sequence number, as the wire
    /// value. A map orders its keys as integers, not on the circle:
    /// [`Tcb::queued`] reads them in sequence order.
    reassembly: BTreeMap<u32, Bytes>,
    /// Full segments received since the last ACK we sent (delayed-ACK rule:
    /// ack at least every second segment).
    unacked_segments: u32,
    delack_armed: bool,
    peer_fin_seq: Option<Seq>,
    peer_fin_delivered: bool,
    /// The application will never read again (it called `close`); data
    /// arriving now triggers a RST, reproducing the paper's
    /// connection-management hazard.
    no_more_reads: bool,

    cc: CongestionState,
    /// Timer epochs for lazy cancellation.
    timer_epochs: [u64; TimerKind::COUNT],
    /// Set once the TCB has been reset (either direction).
    pub was_reset: bool,
    /// When false (the default), probe emission is a single branch.
    probe_enabled: bool,

    // --- statistics ---
    /// Segments this endpoint transmitted.
    pub segments_sent: u64,
    /// Retransmissions among them.
    pub segments_retransmitted: u64,
    /// Payload bytes transmitted.
    pub bytes_sent: u64,
    /// Payload bytes received in order.
    pub bytes_received: u64,
}

impl Tcb {
    /// Create a TCB performing an active open; emits the initial SYN.
    pub fn open_active(
        local: SockAddr,
        remote: SockAddr,
        cfg: TcpConfig,
        now: SimTime,
        fx: &mut Effects,
    ) -> Tcb {
        Tcb::open(ISS, local, remote, cfg, None, now, fx)
    }

    /// Create a TCB from a received SYN (passive open); emits the SYN-ACK.
    pub fn open_passive(
        local: SockAddr,
        remote: SockAddr,
        cfg: TcpConfig,
        syn: &Segment,
        now: SimTime,
        fx: &mut Effects,
    ) -> Tcb {
        Tcb::open(ISS, local, remote, cfg, Some(syn), now, fx)
    }

    /// Open at initial sequence number `iss`: actively, emitting the SYN,
    /// or from the peer's `syn`, emitting the SYN-ACK.
    fn open(
        iss: Seq,
        local: SockAddr,
        remote: SockAddr,
        cfg: TcpConfig,
        syn: Option<&Segment>,
        now: SimTime,
        fx: &mut Effects,
    ) -> Tcb {
        let state = syn.map_or(State::SynSent, |_| State::SynRcvd);
        let mut tcb = Tcb::new(local, remote, cfg, state, iss);
        let mut flags = TcpFlags::SYN;
        if let Some(syn) = syn {
            debug_assert!(syn.flags.syn && !syn.flags.ack);
            tcb.rcv_nxt = Seq::new(syn.seq) + 1;
            tcb.peer_window = syn.window;
            flags = TcpFlags::SYN_ACK;
        }
        let seg = Segment {
            src: local,
            dst: remote,
            seq: iss.raw(),
            ack: tcb.rcv_nxt.raw(),
            flags,
            window: tcb.advertised_window(),
            sack: SackBlocks::NONE,
            payload: Bytes::new(),
        };
        tcb.snd_nxt = iss + 1;
        tcb.segments_sent += 1;
        fx.segments.push(seg);
        tcb.arm_rto(now, fx);
        tcb
    }

    fn new(local: SockAddr, remote: SockAddr, cfg: TcpConfig, state: State, iss: Seq) -> Tcb {
        let cwnd = cfg.mss * cfg.initial_cwnd_segments as usize;
        let cc_variant = cfg.cc;
        Tcb {
            local,
            remote,
            state,
            cfg,
            snd_una: iss,
            snd_nxt: iss,
            send_buf: BytesQueue::new(),
            buf_base: iss + 1,
            peer_window: 0,
            fin_queued: false,
            fin_sent: false,
            fin_seq: None,
            send_blocked: false,
            rcv_nxt: Seq::new(0),
            recv_buf: BytesQueue::new(),
            reassembly: BTreeMap::new(),
            unacked_segments: 0,
            delack_armed: false,
            peer_fin_seq: None,
            peer_fin_delivered: false,
            no_more_reads: false,
            cc: CongestionState {
                ctl: CcCtl::new(cc_variant, cwnd, INITIAL_SSTHRESH),
                srtt_ns: None,
                rttvar_ns: 0,
                rto: INITIAL_RTO,
                rto_backoff: 0,
                rtt_sample: None,
            },
            timer_epochs: [0; TimerKind::COUNT],
            was_reset: false,
            probe_enabled: false,
            segments_sent: 0,
            segments_retransmitted: 0,
            bytes_sent: 0,
            bytes_received: 0,
        }
    }

    /// The parameters this endpoint runs with.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Current RFC 793 connection state.
    pub fn state(&self) -> State {
        self.state
    }

    /// Move to state `to`: the one place the state changes. Panics on an
    /// edge [`RFC793`] does not list.
    fn enter(&mut self, to: State) {
        let from = self.state;
        assert!(
            RFC793.contains(&(Some(from), to)) || RFC793.contains(&(None, to)),
            "TCB {} -> {} took {from:?} -> {to:?}, a transition RFC 793 does not allow",
            self.local,
            self.remote
        );
        #[cfg(test)]
        TAKEN.with(|taken| {
            let mut taken = taken.borrow_mut();
            if !taken.contains(&(from, to)) {
                taken.push((from, to));
            }
        });
        self.state = to;
    }

    /// A Closed TCB sends nothing but the RST [`Tcb::reset`] builds.
    fn assert_may_send(&self) {
        assert!(
            self.state.is_open(),
            "TCB {} -> {} sent a segment after Closed",
            self.local,
            self.remote
        );
    }

    /// Enable or disable probe-event emission into [`Effects::probe`].
    /// Disabled by default; the flight recorder costs one branch per
    /// potential event while off.
    pub fn set_probe_enabled(&mut self, enabled: bool) {
        self.probe_enabled = enabled;
    }

    #[inline]
    fn probe(&self, fx: &mut Effects, ev: TcpProbeEvent) {
        if self.probe_enabled {
            fx.probe.push(ev);
        }
    }

    /// Emit a congestion-control sample reflecting the current state.
    fn probe_sample(&self, fx: &mut Effects) {
        if self.probe_enabled {
            fx.probe.push(TcpProbeEvent::Sample {
                cwnd: self.cc.ctl.cwnd() as u64,
                ssthresh: self.cc.ctl.ssthresh() as u64,
                srtt_ns: self.cc.srtt_ns,
                rto_ns: self.cc.rto.as_nanos(),
                in_flight: self.snd_nxt.since(self.snd_una),
            });
        }
    }

    /// Emit a window-blocked event naming whichever window binds.
    fn probe_send_blocked(&self, unsent: usize, fx: &mut Effects) {
        if self.probe_enabled {
            let reason = if self.peer_window < self.cc.ctl.cwnd() {
                BlockReason::PeerWindow
            } else {
                BlockReason::Cwnd
            };
            fx.probe.push(TcpProbeEvent::SendBlocked {
                reason,
                pending: unsent as u64,
            });
        }
    }

    /// Set or clear TCP_NODELAY (the Nagle algorithm).
    pub fn set_nodelay(&mut self, nodelay: bool) {
        self.cfg.nodelay = nodelay;
    }

    /// Current congestion window in bytes (exposed for tests/diagnostics).
    pub fn cwnd(&self) -> usize {
        self.cc.ctl.cwnd()
    }

    /// Current slow-start threshold in bytes (tests/diagnostics).
    pub fn ssthresh(&self) -> usize {
        self.cc.ctl.ssthresh()
    }

    /// Whether the congestion controller is inside fast recovery
    /// (always false for Reno/Cubic, which keep no recovery state).
    pub fn cc_in_recovery(&self) -> bool {
        self.cc.ctl.in_recovery()
    }

    /// Bytes sent but not yet acknowledged — the in-flight estimate the
    /// congestion controller paces against (tests/diagnostics).
    pub fn bytes_in_flight(&self) -> u64 {
        self.snd_nxt.since(self.snd_una)
    }

    /// Current retransmission timeout (tests/diagnostics).
    pub fn rto(&self) -> SimDuration {
        self.cc.rto
    }

    /// The congestion-control variant this socket was configured with.
    pub fn cc_variant(&self) -> CcVariant {
        self.cfg.cc
    }

    /// Snapshot of the TCB state the congestion controller may consult.
    /// `sack` carries the triggering segment's SACK option (or
    /// [`SackBlocks::NONE`] for segment-less events like an RTO).
    fn cc_ctx<'a>(&self, now: SimTime, sack: &'a SackBlocks) -> CcContext<'a> {
        CcContext {
            mss: self.cfg.mss,
            now,
            snd_una: self.snd_una,
            snd_nxt: self.snd_nxt,
            sack,
        }
    }

    /// Bytes of payload queued but not yet acknowledged.
    pub fn unacked_bytes(&self) -> usize {
        self.send_limit().since(self.snd_una) as usize
    }

    /// Bytes available for the application to read.
    pub fn readable_bytes(&self) -> usize {
        self.recv_buf.len()
    }

    /// True once our FIN has been sent *and* acknowledged and the peer's FIN
    /// has been consumed — i.e. the connection ran to graceful completion.
    pub fn fully_closed(&self) -> bool {
        self.state == State::Closed && !self.was_reset
    }

    fn advertised_window(&self) -> usize {
        self.cfg.recv_window.saturating_sub(self.recv_buf.len())
    }

    fn send_limit(&self) -> Seq {
        self.buf_base + self.send_buf.len()
    }

    /// Bytes of buffer storage this connection keeps alive: what its
    /// send and receive queues and its out-of-order payloads refer to,
    /// and the queues' own deques.
    pub(crate) fn held_storage(&self) -> usize {
        let reassembly: usize = self.reassembly.values().map(Bytes::len).sum();
        let deques = self.send_buf.bookkeeping_bytes() + self.recv_buf.bookkeeping_bytes();
        self.send_buf.len() + self.recv_buf.len() + reassembly + deques
    }

    // ------------------------------------------------------------------
    // Application entry points
    // ------------------------------------------------------------------

    /// Queue a copy of application data for transmission. Returns how
    /// many bytes were accepted (bounded by the send-buffer cap).
    pub fn app_send(&mut self, now: SimTime, data: &[u8], fx: &mut Effects) -> usize {
        self.write(now, data.len(), fx, |buf, take| {
            buf.extend_from_slice(&data[..take])
        })
    }

    /// Queue application data for transmission by reference: what the
    /// send-buffer cap admits moves off the front of `from`. Returns how
    /// many bytes that was.
    pub fn app_send_from(
        &mut self,
        now: SimTime,
        from: &mut BytesQueue,
        fx: &mut Effects,
    ) -> usize {
        self.write(now, from.len(), fx, |buf, take| from.drain_into(take, buf))
    }

    /// The one write path: of `offered` bytes, `queue` puts as many as
    /// the send buffer has room for onto it, and one `try_send` follows.
    fn write(
        &mut self,
        now: SimTime,
        offered: usize,
        fx: &mut Effects,
        queue: impl FnOnce(&mut BytesQueue, usize),
    ) -> usize {
        if !matches!(
            self.state,
            State::SynSent | State::SynRcvd | State::Established | State::CloseWait
        ) || self.fin_queued
        {
            return 0;
        }
        let space = self.cfg.send_buffer.saturating_sub(self.unacked_bytes());
        let take = offered.min(space);
        if take < offered {
            self.send_blocked = true;
        }
        queue(&mut self.send_buf, take);
        if matches!(self.state, State::Established | State::CloseWait) {
            self.try_send(now, fx);
        }
        take
    }

    /// Half-close: no more application data will be sent. Queues a FIN after
    /// any buffered data; the receive side stays open.
    pub fn app_shutdown_write(&mut self, now: SimTime, fx: &mut Effects) {
        if self.fin_queued || !self.state.is_open() {
            return;
        }
        self.fin_queued = true;
        if matches!(self.state, State::Established | State::CloseWait) {
            self.try_send(now, fx);
        }
    }

    /// Full close: half-close the send side *and* declare that the
    /// application will not read again. If unread or future data exists the
    /// connection is reset — the naive close the paper warns servers about.
    pub fn app_close(&mut self, now: SimTime, fx: &mut Effects) {
        if !self.state.is_open() {
            return;
        }
        self.no_more_reads = true;
        if !self.recv_buf.is_empty() || !self.reassembly.is_empty() {
            // Unread data: BSD-style close sends RST immediately.
            self.reset(fx, true);
            return;
        }
        self.app_shutdown_write(now, fx);
    }

    /// Abortive close: send RST, discard everything.
    pub fn app_abort(&mut self, fx: &mut Effects) {
        if self.state.is_open() {
            self.reset(fx, true);
        }
    }

    /// Read up to `max` buffered bytes: a view of the payload they
    /// arrived in, unless the read spans more than one.
    pub fn app_recv(&mut self, max: usize, fx: &mut Effects) -> Bytes {
        let take = self.recv_buf.len().min(max);
        let before = self.advertised_window();
        let data = self.recv_buf.slice(0, take);
        self.recv_buf.advance(take);
        self.release_recv_buf();
        // If the window had effectively closed and reading reopened it,
        // send a window update so the sender does not stall.
        let after = self.advertised_window();
        if before < self.cfg.mss && after >= 2 * self.cfg.mss && self.state.is_open() {
            self.emit_ack(fx);
        }
        data
    }

    /// A closed connection's receive queue, once read to the end, gives
    /// up its deque too: nothing will be queued behind it again. (Unread
    /// bytes outlive the connection; the read that takes the last of them
    /// lets the deque go.)
    fn release_recv_buf(&mut self) {
        if !self.state.is_open() && self.recv_buf.is_empty() {
            self.recv_buf.clear();
        }
    }

    // ------------------------------------------------------------------
    // Segment arrival
    // ------------------------------------------------------------------

    /// Process an incoming segment.
    pub fn on_segment(&mut self, now: SimTime, seg: &Segment, fx: &mut Effects) {
        if !self.state.is_open() {
            return;
        }
        if seg.flags.rst {
            self.handle_rst(fx);
            return;
        }

        match self.state {
            State::SynSent => {
                if seg.flags.syn && seg.flags.ack && Seq::new(seg.ack) == self.snd_nxt {
                    self.rcv_nxt = Seq::new(seg.seq) + 1;
                    self.peer_window = seg.window;
                    self.snd_una = self.snd_nxt;
                    self.enter(State::Established);
                    self.buf_base = self.snd_nxt;
                    self.take_rtt_sample(now, self.snd_una);
                    self.cancel_timer(TimerKind::Rto);
                    self.probe(fx, TcpProbeEvent::Established);
                    self.probe_sample(fx);
                    self.emit_ack(fx);
                    fx.notifications.push(SockNotify::Connected);
                    self.try_send(now, fx);
                }
                return;
            }
            State::SynRcvd => {
                if seg.flags.ack && Seq::new(seg.ack) == self.snd_nxt {
                    self.snd_una = self.snd_nxt;
                    self.enter(State::Established);
                    self.buf_base = self.snd_nxt;
                    self.peer_window = seg.window;
                    self.take_rtt_sample(now, self.snd_una);
                    self.cancel_timer(TimerKind::Rto);
                    self.probe(fx, TcpProbeEvent::Established);
                    fx.notifications.push(SockNotify::Accepted);
                    // Fall through to process any data on the ACK.
                } else if seg.flags.syn && !seg.flags.ack {
                    // Duplicate SYN: retransmit the SYN-ACK.
                    self.retransmit(now, fx);
                    return;
                } else {
                    return;
                }
            }
            State::TimeWait => {
                // Retransmitted FIN from the peer: re-ACK it.
                if seg.flags.fin {
                    self.emit_ack(fx);
                }
                return;
            }
            _ => {}
        }

        self.peer_window = seg.window;
        if seg.flags.ack {
            self.handle_ack(now, seg, fx);
        }
        if seg.has_payload() || seg.flags.fin {
            self.handle_data(now, seg, fx);
        }
        // Our FIN acked with the peer's FIN still unconsumed, perhaps
        // behind a hole: the peer may send more.
        if self.state == State::FinWait1 && self.fin_acked() {
            self.enter(State::FinWait2);
        }
        if self.state.is_open() {
            self.try_send(now, fx);
        }
    }

    fn handle_rst(&mut self, fx: &mut Effects) {
        // Data already buffered but not yet read by the application is
        // discarded: the paper's observation that a server RST destroys
        // responses the client TCP had successfully received.
        self.reset(fx, false);
        fx.notifications.push(SockNotify::Reset);
    }

    /// Abort from any state: discard every buffer and, if `notify_peer`,
    /// send the peer a RST.
    fn reset(&mut self, fx: &mut Effects, notify_peer: bool) {
        if notify_peer {
            fx.segments
                .push(Segment::rst(self.local, self.remote, self.snd_nxt.raw()));
            self.segments_sent += 1;
        }
        self.recv_buf.clear();
        self.reassembly.clear();
        self.send_buf.clear();
        self.was_reset = true;
        self.enter(State::Closed);
        self.cancel_all_timers();
    }

    /// Close gracefully (our FIN acked in LAST-ACK, or TIME-WAIT over):
    /// all sent data is acknowledged, so the send queue's deque goes too.
    fn finish(&mut self, fx: &mut Effects) {
        self.enter(State::Closed);
        self.cancel_all_timers();
        self.send_buf.clear();
        self.release_recv_buf();
        fx.notifications.push(SockNotify::Closed);
    }

    fn handle_ack(&mut self, now: SimTime, seg: &Segment, fx: &mut Effects) {
        let ack = Seq::new(seg.ack);
        if ack.after(self.snd_nxt) {
            return; // acks data we never sent; ignore
        }
        if ack.after(self.snd_una) {
            let newly_acked = ack.since(self.snd_una) as usize;
            self.snd_una = ack;
            self.cc.rto_backoff = 0;
            self.take_rtt_sample(now, ack);
            let ctx = self.cc_ctx(now, &seg.sack);
            let sig = self.cc.ctl.on_ack(&ctx, newly_acked);

            // Trim acknowledged bytes from the retransmission buffer. The
            // FIN, if ours was acked, occupies one unit past the data.
            let data_acked = ack.earlier(self.send_limit());
            if data_acked.after(self.buf_base) {
                let drop = data_acked.since(self.buf_base) as usize;
                self.send_buf.advance(drop);
                self.buf_base = data_acked;
            }
            if self.send_blocked && self.unacked_bytes() < self.cfg.send_buffer {
                self.send_blocked = false;
                fx.notifications.push(SockNotify::SendSpace);
            }

            // FIN_WAIT_1 leaves once the segment's data is handled: see
            // `on_segment`.
            if self.fin_acked() {
                match self.state {
                    State::Closing => self.enter_time_wait(now, fx),
                    State::LastAck => self.finish(fx),
                    _ => {}
                }
            }

            if self.snd_una == self.snd_nxt {
                self.cancel_timer(TimerKind::Rto);
            } else {
                self.arm_rto(now, fx);
            }
            // NewReno/SACK partial-ACK recovery: the controller asked
            // for the next hole to be retransmitted right away.
            if sig == CcSignal::Retransmit && self.snd_nxt.after(self.snd_una) {
                self.probe(fx, TcpProbeEvent::FastRetransmit);
                self.retransmit(now, fx);
            }
            self.probe_sample(fx);
        } else if ack == self.snd_una
            && !seg.has_payload()
            && !seg.flags.syn
            && !seg.flags.fin
            && self.snd_nxt.after(self.snd_una)
        {
            // Duplicate ACK while data is outstanding.
            let ctx = self.cc_ctx(now, &seg.sack);
            match self.cc.ctl.on_dup_ack(&ctx) {
                CcSignal::Loss => {
                    // Loss inferred from the third duplicate ACK: let
                    // the controller collapse its windows, then fast
                    // retransmit.
                    let ctx = self.cc_ctx(now, &seg.sack);
                    self.cc.ctl.on_loss(&ctx);
                    self.probe(fx, TcpProbeEvent::FastRetransmit);
                    self.retransmit(now, fx);
                }
                CcSignal::Retransmit => {
                    self.probe(fx, TcpProbeEvent::FastRetransmit);
                    self.retransmit(now, fx);
                }
                CcSignal::None => {}
            }
        }

        // Zero-window handling: arm the persist timer if data waits.
        if self.peer_window == 0 && self.send_limit().after(self.snd_nxt) {
            self.probe(fx, TcpProbeEvent::ZeroWindow);
            self.arm_timer(TimerKind::Persist, now + self.cc.rto, fx);
        }
    }

    fn handle_data(&mut self, now: SimTime, seg: &Segment, fx: &mut Effects) {
        let mut seq = Seq::new(seg.seq);
        // A `Bytes` clone is a refcount bump sharing the pooled buffer,
        // not a copy.
        let mut payload = seg.payload.clone();

        // Trim any portion we already have.
        if seq.before(self.rcv_nxt) {
            let overlap = self.rcv_nxt.since(seq) as usize;
            if overlap >= payload.len() && !seg.flags.fin {
                // Entirely a duplicate: re-ACK immediately to resync.
                self.emit_ack(fx);
                return;
            }
            payload = payload.slice(overlap.min(payload.len())..);
            seq = self.rcv_nxt;
        }

        // A FIN occupies the last unit of the segment's sequence space.
        let fin_seq = seg
            .flags
            .fin
            .then(|| Seq::new(seg.seq) + (seg.seq_space() - 1));
        if seq.after(self.rcv_nxt) {
            // Out of order: stash and send an immediate duplicate ACK.
            if !payload.is_empty() {
                self.reassembly.entry(seq.raw()).or_insert(payload);
            }
            if fin_seq.is_some() {
                self.peer_fin_seq = fin_seq;
            }
            self.emit_ack(fx);
            return;
        }

        // In-order data.
        let mut delivered = false;
        if !payload.is_empty() {
            self.bytes_received += payload.len() as u64;
            self.rcv_nxt += payload.len();
            self.recv_buf.push(payload);
            delivered = true;
        }
        if fin_seq.is_some() {
            self.peer_fin_seq = fin_seq;
        }

        // Drain the reassembly queue.
        loop {
            let next = self.queued().next().map(|(s, _)| s);
            let Some(s) = next.filter(|s| s.at_or_before(self.rcv_nxt)) else {
                break;
            };
            let data = self.reassembly.remove(&s.raw()).expect("a queued start");
            let skip = self.rcv_nxt.since(s) as usize;
            if skip < data.len() {
                let fresh = data.slice(skip..);
                self.bytes_received += fresh.len() as u64;
                self.rcv_nxt += fresh.len();
                self.recv_buf.push(fresh);
                delivered = true;
            }
        }

        if self.no_more_reads && delivered {
            // Data arrived for a fully closed application: reset, as real
            // stacks do. This is what turns a naive server close into lost
            // responses at the client.
            self.reset(fx, true);
            return;
        }

        let mut fin_consumed = false;
        if let Some(fin_seq) = self.peer_fin_seq {
            if self.rcv_nxt == fin_seq {
                self.rcv_nxt = fin_seq + 1;
                fin_consumed = true;
            }
        }

        if delivered && !self.peer_fin_delivered {
            fx.notifications.push(SockNotify::Readable);
        }

        if fin_consumed && !self.peer_fin_delivered {
            self.peer_fin_delivered = true;
            fx.notifications.push(SockNotify::PeerFin);
            match self.state {
                State::Established => self.enter(State::CloseWait),
                // This segment acked our FIN too (RFC 9293 §3.10.7.4).
                State::FinWait1 if self.fin_acked() => self.enter_time_wait(now, fx),
                // Our FIN is still unacked.
                State::FinWait1 => self.enter(State::Closing),
                State::FinWait2 => self.enter_time_wait(now, fx),
                _ => {}
            }
            // FIN is acknowledged immediately.
            self.emit_ack(fx);
            return;
        }

        if delivered {
            self.unacked_segments += 1;
            let force = self.unacked_segments >= 2;
            if force {
                self.emit_ack(fx);
            } else if !self.delack_armed {
                self.delack_armed = true;
                let deadline = now + self.cfg.delayed_ack;
                self.probe(fx, TcpProbeEvent::DelAckArm { deadline });
                self.arm_timer(TimerKind::DelAck, deadline, fx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Drive a timer expiry. `epoch` must match the epoch the timer was
    /// armed with, otherwise the timer was cancelled or superseded.
    pub fn on_timer(&mut self, now: SimTime, kind: TimerKind, epoch: u64, fx: &mut Effects) {
        if self.timer_epochs[kind.index()] != epoch || !self.state.is_open() {
            return;
        }
        self.probe(fx, TcpProbeEvent::TimerFired { kind });
        match kind {
            TimerKind::DelAck => {
                self.delack_armed = false;
                if self.unacked_segments > 0 {
                    self.emit_ack(fx);
                }
            }
            TimerKind::Rto => {
                if self.snd_nxt.after(self.snd_una) {
                    // Timeout: multiplicative back-off, collapse cwnd, go
                    // back into slow start (RFC 2001).
                    let ctx = self.cc_ctx(now, &SackBlocks::NONE);
                    self.cc.ctl.on_rto(&ctx);
                    self.cc.rto_backoff += 1;
                    self.cc.rtt_sample = None; // Karn's algorithm
                    self.probe(fx, TcpProbeEvent::RtoFire);
                    self.retransmit(now, fx);
                }
            }
            TimerKind::TimeWait => self.finish(fx),
            TimerKind::Persist => {
                if self.peer_window == 0 && self.send_limit().after(self.snd_nxt) {
                    // One-byte window probe.
                    let off = self.snd_nxt.since(self.buf_base) as usize;
                    let payload = self.send_buf.slice(off, 1);
                    self.emit_data_segment(self.snd_nxt, payload, false, fx);
                    self.arm_timer(TimerKind::Persist, now + self.cc.rto, fx);
                }
            }
        }
    }

    /// The epoch a queued timer of `kind` must carry to fire: one armed
    /// before the latest arm or cancel of that kind carries an older one.
    pub(crate) fn timer_epoch(&self, kind: TimerKind) -> u64 {
        self.timer_epochs[kind.index()]
    }

    pub(crate) fn arm_timer(&mut self, kind: TimerKind, at: SimTime, fx: &mut Effects) {
        let e = &mut self.timer_epochs[kind.index()];
        *e += 1;
        fx.timers.push((kind, at, *e));
    }

    pub(crate) fn cancel_timer(&mut self, kind: TimerKind) {
        self.timer_epochs[kind.index()] += 1;
    }

    fn cancel_all_timers(&mut self) {
        for e in &mut self.timer_epochs {
            *e += 1;
        }
    }

    fn arm_rto(&mut self, now: SimTime, fx: &mut Effects) {
        let rto = self
            .cc
            .rto
            .saturating_mul(1u64 << self.cc.rto_backoff.min(6));
        self.arm_timer(TimerKind::Rto, now + rto, fx);
    }

    /// Whether the peer has acked our FIN.
    fn fin_acked(&self) -> bool {
        self.fin_seq.is_some_and(|f| self.snd_una.after(f))
    }

    fn enter_time_wait(&mut self, now: SimTime, fx: &mut Effects) {
        self.enter(State::TimeWait);
        let tw = self.cfg.time_wait;
        self.arm_timer(TimerKind::TimeWait, now + tw, fx);
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    fn take_rtt_sample(&mut self, now: SimTime, ack: Seq) {
        if let Some((seq, sent)) = self.cc.rtt_sample {
            if ack.at_or_after(seq) {
                let sample = now.since(sent).as_nanos();
                match self.cc.srtt_ns {
                    None => {
                        self.cc.srtt_ns = Some(sample);
                        self.cc.rttvar_ns = sample / 2;
                    }
                    Some(srtt) => {
                        let err = sample.abs_diff(srtt);
                        self.cc.rttvar_ns = (3 * self.cc.rttvar_ns + err) / 4;
                        self.cc.srtt_ns = Some((7 * srtt + sample) / 8);
                    }
                }
                let rto_ns = self.cc.srtt_ns.unwrap() + (4 * self.cc.rttvar_ns).max(10_000_000);
                self.cc.rto = SimDuration::from_nanos(rto_ns).max(MIN_RTO);
                self.cc.rtt_sample = None;
            }
        }
    }

    /// The SACK option for an outgoing ACK: the receiver's out-of-order
    /// spans, merged, when this endpoint runs SACK; empty otherwise.
    fn sack_for_ack(&self) -> SackBlocks {
        if self.cfg.cc != CcVariant::Sack || self.reassembly.is_empty() {
            return SackBlocks::NONE;
        }
        cc::wire_sack_blocks(self.queued().map(|(s, p)| (s, s + p.len())), self.rcv_nxt)
    }

    /// The reassembly queue in sequence order: every start lies within
    /// 2³¹ of `rcv_nxt`, so that order is the integer keys from the point
    /// opposite `rcv_nxt` upward, then those below it.
    fn queued(&self) -> impl Iterator<Item = (Seq, &Bytes)> {
        let cut = (self.rcv_nxt + (1 << 31)).raw();
        let (below, above) = (self.reassembly.range(..cut), self.reassembly.range(cut..));
        above.chain(below).map(|(&s, p)| (Seq::new(s), p))
    }

    fn emit_ack(&mut self, fx: &mut Effects) {
        self.assert_may_send();
        if self.delack_armed {
            self.probe(fx, TcpProbeEvent::DelAckFlush);
        }
        self.unacked_segments = 0;
        self.cancel_timer(TimerKind::DelAck);
        self.delack_armed = false;
        fx.segments.push(self.ack_segment());
        self.segments_sent += 1;
    }

    fn ack_segment(&self) -> Segment {
        Segment {
            src: self.local,
            dst: self.remote,
            seq: self.snd_nxt.raw(),
            ack: self.rcv_nxt.raw(),
            flags: TcpFlags::ACK,
            window: self.advertised_window(),
            sack: self.sack_for_ack(),
            payload: Bytes::new(),
        }
    }

    /// The ACK this endpoint answers a retransmitted FIN with, once
    /// nothing it sends or reports can change any more: in TIME_WAIT,
    /// with nothing unread, queued out of order or in flight. With it,
    /// whether the endpoint records probe events. `None` otherwise.
    pub(crate) fn time_wait_ack(&self) -> Option<(Segment, bool)> {
        let quiet = self.state == State::TimeWait
            && self.recv_buf.is_empty()
            && self.reassembly.is_empty()
            && self.snd_una == self.snd_nxt;
        quiet.then(|| (self.ack_segment(), self.probe_enabled))
    }

    fn emit_data_segment(&mut self, seq: Seq, payload: Bytes, fin: bool, fx: &mut Effects) {
        self.assert_may_send();
        let flags = TcpFlags {
            syn: false,
            ack: true,
            fin,
            rst: false,
            psh: payload.len() < self.cfg.mss || fin,
        };
        // Data segments piggyback the current ACK.
        if self.delack_armed {
            self.probe(fx, TcpProbeEvent::DelAckFlush);
        }
        self.unacked_segments = 0;
        self.cancel_timer(TimerKind::DelAck);
        self.delack_armed = false;
        self.bytes_sent += payload.len() as u64;
        self.segments_sent += 1;
        fx.segments.push(Segment {
            src: self.local,
            dst: self.remote,
            seq: seq.raw(),
            ack: self.rcv_nxt.raw(),
            flags,
            window: self.advertised_window(),
            sack: self.sack_for_ack(),
            payload,
        });
    }

    /// Transmit whatever the congestion window, peer window, Nagle and
    /// buffered data allow.
    fn try_send(&mut self, now: SimTime, fx: &mut Effects) {
        if !matches!(
            self.state,
            State::Established
                | State::CloseWait
                | State::FinWait1
                | State::Closing
                | State::LastAck
        ) {
            return;
        }
        let mut sent_any = false;
        loop {
            if self.fin_sent {
                break;
            }
            let in_flight = self.snd_nxt.since(self.snd_una) as usize;
            let wnd = self.cc.ctl.cwnd().min(self.peer_window);
            let avail = wnd.saturating_sub(in_flight);
            let unsent = self.send_limit().since(self.snd_nxt) as usize;
            let len = unsent.min(self.cfg.mss).min(avail);
            let fin_now = self.fin_queued && (self.snd_nxt + len) == self.send_limit();

            if len == 0 && !fin_now {
                if unsent > 0 {
                    self.probe_send_blocked(unsent, fx);
                }
                break;
            }
            if len == 0 && fin_now && in_flight > 0 && unsent > 0 {
                // Window-blocked with data still queued before the FIN.
                self.probe_send_blocked(unsent, fx);
                break;
            }
            // Nagle: hold sub-MSS segments while data is in flight, unless
            // this segment also carries our FIN.
            if len > 0 && len < self.cfg.mss && in_flight > 0 && !self.cfg.nodelay && !fin_now {
                self.probe(
                    fx,
                    TcpProbeEvent::SendBlocked {
                        reason: BlockReason::Nagle,
                        pending: unsent as u64,
                    },
                );
                break;
            }

            let off = self.snd_nxt.since(self.buf_base) as usize;
            let payload = self.send_buf.slice(off, len);
            if self.cc.rtt_sample.is_none() && (len > 0 || fin_now) {
                self.cc.rtt_sample = Some((self.snd_nxt + len + usize::from(fin_now), now));
            }
            self.emit_data_segment(self.snd_nxt, payload, fin_now, fx);
            self.snd_nxt += len;
            if fin_now {
                self.fin_seq = Some(self.snd_nxt);
                self.snd_nxt += 1;
                self.fin_sent = true;
                match self.state {
                    State::Established => self.enter(State::FinWait1),
                    State::CloseWait => self.enter(State::LastAck),
                    _ => {}
                }
            }
            sent_any = true;
            if fin_now {
                break;
            }
        }
        if sent_any {
            self.arm_rto(now, fx);
            self.probe_sample(fx);
        }
    }

    /// Retransmit the first unacknowledged segment (and FIN/SYN-ACK where
    /// appropriate).
    fn retransmit(&mut self, now: SimTime, fx: &mut Effects) {
        self.segments_retransmitted += 1;
        match self.state {
            State::SynSent => {
                fx.segments.push(Segment {
                    src: self.local,
                    dst: self.remote,
                    seq: 0,
                    ack: 0,
                    flags: TcpFlags::SYN,
                    window: self.advertised_window(),
                    sack: SackBlocks::NONE,
                    payload: Bytes::new(),
                });
                self.segments_sent += 1;
            }
            State::SynRcvd => {
                fx.segments.push(Segment {
                    src: self.local,
                    dst: self.remote,
                    seq: 0,
                    ack: self.rcv_nxt.raw(),
                    flags: TcpFlags::SYN_ACK,
                    window: self.advertised_window(),
                    sack: SackBlocks::NONE,
                    payload: Bytes::new(),
                });
                self.segments_sent += 1;
            }
            _ => {
                let data_start = self.snd_una.later(self.buf_base);
                let data_end = self.send_limit();
                if data_start.before(data_end) {
                    let off = data_start.since(self.buf_base) as usize;
                    let mut len = (data_end.since(data_start) as usize).min(self.cfg.mss);
                    // SACK: stop short of the first range the peer
                    // already holds — never resend a SACKed octet.
                    if let Some(cap) = self.cc.ctl.rexmit_cap(data_start) {
                        if cap.after(data_start) {
                            len = len.min(cap.since(data_start) as usize);
                        }
                    }
                    let payload = self.send_buf.slice(off, len);
                    let fin = self.fin_sent && self.fin_seq == Some(data_start + len);
                    self.emit_data_segment(data_start, payload, fin, fx);
                } else if self.fin_sent && self.fin_seq == Some(self.snd_una) {
                    // Retransmit a bare FIN.
                    self.emit_data_segment(self.snd_una, Bytes::new(), true, fx);
                }
            }
        }
        self.arm_rto(now, fx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::HostId;

    const CLIENT: SockAddr = SockAddr::new(HostId(0), 40_000);
    const SERVER: SockAddr = SockAddr::new(HostId(1), 80);

    fn fx() -> Effects {
        Effects::default()
    }

    /// Drive a full handshake, returning (client, server) TCBs in
    /// Established state.
    fn established() -> (Tcb, Tcb) {
        established_from(ISS)
    }

    /// [`established`], both ends starting at sequence number `iss`.
    fn established_from(iss: Seq) -> (Tcb, Tcb) {
        let now = SimTime::ZERO;
        let cfg = TcpConfig::default();
        let mut cfx = fx();
        let mut client = Tcb::open(iss, CLIENT, SERVER, cfg.clone(), None, now, &mut cfx);
        let syn = cfx.segments.pop().unwrap();
        assert!(syn.flags.syn && !syn.flags.ack);

        let mut sfx = fx();
        let mut server = Tcb::open(iss, SERVER, CLIENT, cfg, Some(&syn), now, &mut sfx);
        let synack = sfx.segments.pop().unwrap();
        assert!(synack.flags.syn && synack.flags.ack);

        let mut cfx = fx();
        client.on_segment(now, &synack, &mut cfx);
        assert_eq!(client.state(), State::Established);
        assert!(cfx.notifications.contains(&SockNotify::Connected));
        let ack = cfx.segments.pop().unwrap();

        let mut sfx = fx();
        server.on_segment(now, &ack, &mut sfx);
        assert_eq!(server.state(), State::Established);
        assert!(sfx.notifications.contains(&SockNotify::Accepted));
        (client, server)
    }

    /// Shuttle segments between the two TCBs until both sides quiesce.
    /// Timers are not simulated; returns the total number of segments
    /// exchanged.
    fn pump(a: &mut Tcb, b: &mut Tcb, now: SimTime) -> usize {
        let mut from_a: Vec<Segment> = Vec::new();
        let mut from_b: Vec<Segment> = Vec::new();
        let mut count = 0;
        loop {
            let mut progressed = false;
            let mut e = fx();
            for seg in from_a.drain(..) {
                count += 1;
                b.on_segment(now, &seg, &mut e);
            }
            from_b.append(&mut e.segments);
            let mut e = fx();
            for seg in from_b.drain(..) {
                count += 1;
                a.on_segment(now, &seg, &mut e);
            }
            from_a.append(&mut e.segments);
            if !from_a.is_empty() || !from_b.is_empty() {
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        count
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let (c, s) = established();
        assert_eq!(c.state(), State::Established);
        assert_eq!(s.state(), State::Established);
    }

    #[test]
    fn data_transfer_and_read() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        assert_eq!(c.app_send(now, b"hello world", &mut e), 11);
        let seg = e.segments.pop().unwrap();
        assert_eq!(&seg.payload[..], b"hello world");

        let mut e = fx();
        s.on_segment(now, &seg, &mut e);
        assert!(e.notifications.contains(&SockNotify::Readable));
        let mut e2 = fx();
        assert_eq!(&s.app_recv(1024, &mut e2)[..], b"hello world");
    }

    #[test]
    fn large_write_segments_at_mss() {
        let (mut c, _s) = established();
        let mut e = fx();
        let data = vec![0xAB; 4000];
        c.app_send(SimTime::ZERO, &data, &mut e);
        // cwnd = 2 * MSS: exactly two full segments go out now.
        assert_eq!(e.segments.len(), 2);
        assert!(e.segments.iter().all(|s| s.payload.len() == 1460));
    }

    #[test]
    fn slow_start_doubles_window() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        let data = vec![0u8; 64_000];
        c.app_send(now, &data, &mut e);
        assert_eq!(e.segments.len(), 2, "initial cwnd is two segments");
        // Deliver them; server acks (second segment forces an ACK).
        let mut sfx = fx();
        for seg in e.segments.drain(..) {
            s.on_segment(now, &seg, &mut sfx);
        }
        let acks: Vec<_> = sfx.segments.drain(..).collect();
        assert_eq!(acks.len(), 1, "delayed ack: one ACK per two segments");
        let mut e = fx();
        c.on_segment(now, &acks[0], &mut e);
        // cwnd grew by up to one MSS per acked MSS -> 2 more in flight
        // than before; after one full-window ack, 2 * 1460 acked, cwnd
        // grows by min(acked, mss) = 1460 -> 3 segments, plus the window
        // slid by 2: 4 new segments may depart... at minimum more than 2.
        assert!(
            e.segments.len() >= 3,
            "window opened: got {}",
            e.segments.len()
        );
    }

    #[test]
    fn nagle_holds_small_segment_with_data_in_flight() {
        let (mut c, _s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_send(now, b"first", &mut e);
        assert_eq!(e.segments.len(), 1, "no data in flight: sends immediately");
        let mut e = fx();
        c.app_send(now, b"second", &mut e);
        assert_eq!(e.segments.len(), 0, "Nagle holds the second small write");
    }

    #[test]
    fn nodelay_disables_nagle() {
        let (mut c, _s) = established();
        c.set_nodelay(true);
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_send(now, b"first", &mut e);
        c.app_send(now, b"second", &mut e);
        assert_eq!(e.segments.len(), 2);
    }

    #[test]
    fn nagle_releases_on_ack() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_send(now, b"first", &mut e);
        let first = e.segments.pop().unwrap();
        let mut e = fx();
        c.app_send(now, b"second", &mut e);
        assert!(e.segments.is_empty());

        // Server receives and (eventually) acks.
        let mut sfx = fx();
        s.on_segment(now, &first, &mut sfx);
        // Only one small segment: ack comes from the delack timer.
        let (kind, at, epoch) = sfx.timers[0];
        assert_eq!(kind, TimerKind::DelAck);
        let mut sfx2 = fx();
        s.on_timer(at, kind, epoch, &mut sfx2);
        let ack = sfx2.segments.pop().expect("delayed ack fired");

        let mut e = fx();
        c.on_segment(now, &ack, &mut e);
        assert_eq!(e.segments.len(), 1, "held segment released by ACK");
        assert_eq!(&e.segments[0].payload[..], b"second");
    }

    #[test]
    fn delayed_ack_every_second_segment() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_send(now, &vec![0u8; 2920], &mut e);
        assert_eq!(e.segments.len(), 2);
        let mut sfx = fx();
        s.on_segment(now, &e.segments[0], &mut sfx);
        assert!(sfx.segments.is_empty(), "first segment: ack deferred");
        s.on_segment(now, &e.segments[1], &mut sfx);
        assert_eq!(sfx.segments.len(), 1, "second segment forces ack");
    }

    #[test]
    fn graceful_close_both_ways() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_shutdown_write(now, &mut e);
        let finseg = e.segments.pop().unwrap();
        assert!(finseg.flags.fin);
        assert_eq!(c.state(), State::FinWait1);

        let mut sfx = fx();
        s.on_segment(now, &finseg, &mut sfx);
        assert_eq!(s.state(), State::CloseWait);
        assert!(sfx.notifications.contains(&SockNotify::PeerFin));
        let ack = sfx.segments.pop().unwrap();

        let mut e = fx();
        c.on_segment(now, &ack, &mut e);
        assert_eq!(c.state(), State::FinWait2);

        // Server closes its half.
        let mut sfx = fx();
        s.app_shutdown_write(now, &mut sfx);
        assert_eq!(s.state(), State::LastAck);
        let fin2 = sfx.segments.pop().unwrap();
        let mut e = fx();
        c.on_segment(now, &fin2, &mut e);
        assert_eq!(c.state(), State::TimeWait);
        let last_ack = e.segments.pop().unwrap();
        let mut sfx = fx();
        s.on_segment(now, &last_ack, &mut sfx);
        assert_eq!(s.state(), State::Closed);
        assert!(sfx.notifications.contains(&SockNotify::Closed));
        assert!(s.fully_closed());

        // 2MSL later the client's TIME_WAIT ends.
        let epoch = c.timer_epoch(TimerKind::TimeWait);
        let mut e = fx();
        c.on_timer(now + c.cfg.time_wait, TimerKind::TimeWait, epoch, &mut e);
        assert_eq!(c.state(), State::Closed);
        assert!(e.notifications.contains(&SockNotify::Closed));
    }

    /// Both ends close at once: the crossing FINs take each side through
    /// CLOSING into TIME_WAIT — neither sees the other's ACK first.
    #[test]
    fn simultaneous_close_passes_through_closing() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut cfx = fx();
        c.app_shutdown_write(now, &mut cfx);
        let fin_c = cfx.segments.pop().unwrap();
        let mut sfx = fx();
        s.app_shutdown_write(now, &mut sfx);
        let fin_s = sfx.segments.pop().unwrap();
        assert!(fin_c.flags.fin && fin_s.flags.fin);
        assert_eq!(c.state(), State::FinWait1);
        assert_eq!(s.state(), State::FinWait1);

        // The FINs cross in flight: each side sees the peer's FIN before any
        // ACK of its own.
        let mut cfx = fx();
        c.on_segment(now, &fin_s, &mut cfx);
        assert_eq!(c.state(), State::Closing);
        let ack_c = cfx.segments.pop().expect("peer FIN is acked");
        let mut sfx = fx();
        s.on_segment(now, &fin_c, &mut sfx);
        assert_eq!(s.state(), State::Closing);
        let ack_s = sfx.segments.pop().expect("peer FIN is acked");

        // The crossing ACKs complete both closes into TIME_WAIT.
        let mut cfx = fx();
        c.on_segment(now, &ack_s, &mut cfx);
        assert_eq!(c.state(), State::TimeWait);
        let mut sfx = fx();
        s.on_segment(now, &ack_c, &mut sfx);
        assert_eq!(s.state(), State::TimeWait);
    }

    /// The peer's FIN arrives ahead of a lost data segment, so it is
    /// seen but not yet consumed. The retransmission that fills the gap
    /// also acks our FIN: FIN_WAIT_1 goes straight to TIME_WAIT, and every
    /// byte and the FIN still reach the application.
    #[test]
    fn gap_filled_with_the_ack_of_our_fin_goes_to_time_wait() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut sfx = fx();
        s.app_send(now, b"abc", &mut sfx);
        s.app_shutdown_write(now, &mut sfx);
        let fin_s = sfx.segments.pop().unwrap();
        assert!(
            fin_s.flags.fin && !fin_s.has_payload(),
            "a bare FIN follows the data"
        );
        let mut cfx = fx();
        c.app_shutdown_write(now, &mut cfx);
        let fin_c = cfx.segments.pop().unwrap();

        // The data segment is lost; the client sees the server's FIN out
        // of order and the server sees the client's FIN, whose ACK is lost.
        let mut cfx = fx();
        c.on_segment(now, &fin_s, &mut cfx);
        assert_eq!(c.state(), State::FinWait1);
        let mut sfx = fx();
        s.on_segment(now, &fin_c, &mut sfx);
        assert_eq!(s.state(), State::Closing);

        // The server's RTO resends the data, now acking the client's FIN.
        let epoch = s.timer_epoch(TimerKind::Rto);
        let mut sfx = fx();
        s.on_timer(now, TimerKind::Rto, epoch, &mut sfx);
        let resent = sfx.segments.pop().unwrap();
        let mut cfx = fx();
        c.on_segment(now, &resent, &mut cfx);
        assert_eq!(c.state(), State::TimeWait);
        assert!(cfx.notifications.contains(&SockNotify::PeerFin));
        assert_eq!(c.readable_bytes(), 3);
    }

    /// As above, but the ACK of our FIN arrives on its own before the gap
    /// fills. The peer's FIN is seen but not consumed, so FIN_WAIT_1 goes
    /// to FIN_WAIT_2, which still takes the resent bytes and the FIN.
    #[test]
    fn ack_of_our_fin_ahead_of_the_gap_waits_in_fin_wait_2() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut sfx = fx();
        s.app_send(now, b"abc", &mut sfx);
        s.app_shutdown_write(now, &mut sfx);
        let fin_s = sfx.segments.pop().unwrap();
        let mut cfx = fx();
        c.app_shutdown_write(now, &mut cfx);
        let fin_c = cfx.segments.pop().unwrap();

        // The data segment is lost; the server's FIN reaches the client
        // out of order, and the server's ACK of the client's FIN arrives.
        let mut cfx = fx();
        c.on_segment(now, &fin_s, &mut cfx);
        let mut sfx = fx();
        s.on_segment(now, &fin_c, &mut sfx);
        let ack_s = sfx.segments.pop().unwrap();
        assert!(!ack_s.has_payload() && !ack_s.flags.fin);
        let mut cfx = fx();
        c.on_segment(now, &ack_s, &mut cfx);
        assert_eq!(c.state(), State::FinWait2);
        assert!(!cfx.notifications.contains(&SockNotify::PeerFin));

        // The server's RTO resends the data: it and the FIN are delivered.
        let epoch = s.timer_epoch(TimerKind::Rto);
        let mut sfx = fx();
        s.on_timer(now, TimerKind::Rto, epoch, &mut sfx);
        let resent = sfx.segments.pop().unwrap();
        let mut cfx = fx();
        c.on_segment(now, &resent, &mut cfx);
        assert_eq!(c.state(), State::TimeWait);
        assert!(cfx.notifications.contains(&SockNotify::PeerFin));
        assert_eq!(c.readable_bytes(), 3);
    }

    /// Every row of [`RFC793`] is taken by a scenario of this module, each
    /// edge from its real state: the (any, Closed) row by an abort from a
    /// state no other row leaves for Closed.
    #[test]
    fn every_rfc793_transition_is_taken() {
        TAKEN.with(|taken| taken.borrow_mut().clear());
        handshake_establishes_both_sides();
        graceful_close_both_ways();
        simultaneous_close_passes_through_closing();
        gap_filled_with_the_ack_of_our_fin_goes_to_time_wait();
        close_with_unread_data_sends_rst();
        let rows: Vec<usize> = TAKEN.with(|taken| {
            taken
                .borrow()
                .iter()
                .filter_map(|&(from, to)| {
                    let row = |from| RFC793.iter().position(|&r| r == (from, to));
                    row(Some(from)).or_else(|| row(None))
                })
                .collect()
        });
        let missing: Vec<String> = (0..RFC793.len())
            .filter(|i| !rows.contains(i))
            .map(|i| format!("{:?} -> {:?}", RFC793[i].0, RFC793[i].1))
            .collect();
        assert!(missing.is_empty(), "no scenario takes {missing:?}");
    }

    /// The edge a broken machine might take: a reopen from ESTABLISHED.
    #[test]
    #[should_panic(expected = "took Established -> SynSent")]
    fn a_transition_outside_the_table_panics() {
        let (mut c, _) = established();
        c.enter(State::SynSent);
    }

    #[test]
    #[should_panic(expected = "sent a segment after Closed")]
    fn a_closed_tcb_sends_nothing_but_its_rst() {
        let (mut c, _) = established();
        let mut e = fx();
        c.app_abort(&mut e);
        assert!(e.segments.len() == 1 && e.segments[0].flags.rst);
        c.emit_ack(&mut e);
    }

    #[test]
    fn fin_piggybacks_on_last_data() {
        let (mut c, _s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_send(now, b"bye", &mut e);
        e.segments.clear();
        // Buffered write followed by shutdown: next segment carries FIN.
        let mut c2 = established().0;
        let mut e = fx();
        c2.app_send(now, b"xyz", &mut e);
        c2.app_shutdown_write(now, &mut e);
        assert_eq!(e.segments.len(), 2);
        // Under Nagle the 3-byte payload went out alone first; FIN follows
        // separately since fin may always be sent.
        assert!(e.segments[1].flags.fin);
    }

    #[test]
    fn close_with_unread_data_sends_rst() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_send(now, b"request", &mut e);
        let seg = e.segments.pop().unwrap();
        let mut sfx = fx();
        s.on_segment(now, &seg, &mut sfx);
        // Server closes without reading: RST.
        let mut sfx = fx();
        s.app_close(now, &mut sfx);
        assert_eq!(sfx.segments.len(), 1);
        assert!(sfx.segments[0].flags.rst);
        assert_eq!(s.state(), State::Closed);
    }

    #[test]
    fn data_after_close_resets_and_client_loses_buffered_responses() {
        // The paper's connection-management hazard: server closes after N
        // responses; late requests hit the closed socket, the RST destroys
        // data the client had not yet read.
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;

        // Server sends a response, then closes naively.
        let mut sfx = fx();
        s.app_send(now, b"response-1", &mut sfx);
        let resp = sfx.segments.pop().unwrap();
        let mut sfx = fx();
        s.app_close(now, &mut sfx); // no unread data -> graceful FIN
        let _fin = sfx.segments.pop().unwrap();

        // Response arrives at the client but the app has not read it yet.
        let mut cfx = fx();
        c.on_segment(now, &resp, &mut cfx);
        assert_eq!(c.readable_bytes(), 10);

        // Client pipelines another request; it arrives after the server
        // app closed -> server resets.
        let mut cfx = fx();
        c.app_send(now, b"request-2", &mut cfx);
        let req2 = cfx.segments.pop().unwrap();
        let mut sfx = fx();
        s.on_segment(now, &req2, &mut sfx);
        assert!(
            sfx.segments.iter().any(|seg| seg.flags.rst),
            "server must reset on data after close"
        );
        let rst = sfx
            .segments
            .iter()
            .find(|seg| seg.flags.rst)
            .unwrap()
            .clone();

        // The RST destroys the client's buffered response.
        let mut cfx = fx();
        c.on_segment(now, &rst, &mut cfx);
        assert!(cfx.notifications.contains(&SockNotify::Reset));
        assert_eq!(c.readable_bytes(), 0, "buffered response was discarded");
        assert!(c.was_reset);
    }

    #[test]
    fn retransmission_on_rto() {
        let (mut c, _s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_send(now, b"lost data", &mut e);
        let orig = e.segments.pop().unwrap();
        let (kind, at, epoch) = *e
            .timers
            .iter()
            .find(|(k, _, _)| *k == TimerKind::Rto)
            .expect("rto armed");
        let mut e = fx();
        c.on_timer(at, kind, epoch, &mut e);
        let rtx = e.segments.pop().expect("retransmission");
        assert_eq!(rtx.seq, orig.seq);
        assert_eq!(rtx.payload, orig.payload);
        assert_eq!(c.segments_retransmitted, 1);
        assert_eq!(c.cwnd(), 1460, "cwnd collapses to one MSS on timeout");
    }

    #[test]
    fn fast_retransmit_on_three_dup_acks() {
        let (mut c, _s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.app_send(now, &vec![1u8; 2920], &mut e);
        assert_eq!(e.segments.len(), 2);
        let dup = Segment {
            src: SERVER,
            dst: CLIENT,
            seq: 1,
            ack: 1, // nothing new
            flags: TcpFlags::ACK,
            window: 65_535,
            sack: SackBlocks::NONE,
            payload: Bytes::new(),
        };
        let mut e = fx();
        for _ in 0..2 {
            c.on_segment(now, &dup, &mut e);
        }
        assert!(e.segments.is_empty());
        c.on_segment(now, &dup, &mut e);
        let rtx: Vec<_> = e.segments.iter().filter(|s| s.has_payload()).collect();
        assert_eq!(rtx.len(), 1, "third dup-ack triggers fast retransmit");
        assert_eq!(rtx[0].seq, 1);
    }

    #[test]
    fn out_of_order_reassembly() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.set_nodelay(true);
        c.app_send(now, b"AAAA", &mut e);
        c.app_send(now, b"BBBB", &mut e);
        assert_eq!(e.segments.len(), 2);
        let (a, b) = (e.segments[0].clone(), e.segments[1].clone());

        // Deliver out of order.
        let mut sfx = fx();
        s.on_segment(now, &b, &mut sfx);
        assert_eq!(s.readable_bytes(), 0);
        assert_eq!(sfx.segments.len(), 1, "immediate dup-ack on gap");
        assert_eq!(sfx.segments[0].ack, 1);
        let mut sfx = fx();
        s.on_segment(now, &a, &mut sfx);
        assert_eq!(s.readable_bytes(), 8);
        let mut e2 = fx();
        assert_eq!(&s.app_recv(64, &mut e2)[..], b"AAAABBBB");
    }

    #[test]
    fn send_buffer_cap_and_sendspace_notify() {
        let cfg = TcpConfig {
            send_buffer: 1000,
            ..TcpConfig::default()
        };
        let now = SimTime::ZERO;
        let mut cfx = fx();
        let mut c = Tcb::open_active(CLIENT, SERVER, cfg.clone(), now, &mut cfx);
        let syn = cfx.segments.pop().unwrap();
        let mut sfx = fx();
        let mut s = Tcb::open_passive(SERVER, CLIENT, TcpConfig::default(), &syn, now, &mut sfx);
        let synack = sfx.segments.pop().unwrap();
        let mut cfx = fx();
        c.on_segment(now, &synack, &mut cfx);
        let ack = cfx
            .segments
            .drain(..)
            .find(|s| s.flags.ack && !s.flags.syn)
            .unwrap();
        let mut sfx = fx();
        s.on_segment(now, &ack, &mut sfx);

        let mut e = fx();
        let taken = c.app_send(now, &vec![0u8; 2000], &mut e);
        assert_eq!(taken, 1000, "write truncated at the send-buffer cap");
        // Deliver everything; the single sub-MSS segment is acked by the
        // delayed-ACK timer, after which SendSpace must appear.
        let segs: Vec<_> = e.segments.drain(..).collect();
        let mut sfx = fx();
        for seg in &segs {
            s.on_segment(now, seg, &mut sfx);
        }
        let (kind, at, epoch) = *sfx
            .timers
            .iter()
            .find(|(k, _, _)| *k == TimerKind::DelAck)
            .expect("delack armed for the lone segment");
        let mut sfx2 = fx();
        s.on_timer(at, kind, epoch, &mut sfx2);
        let mut notified = false;
        for ackseg in sfx.segments.drain(..).chain(sfx2.segments.drain(..)) {
            let mut cfx = fx();
            c.on_segment(now, &ackseg, &mut cfx);
            notified |= cfx.notifications.contains(&SockNotify::SendSpace);
        }
        assert!(notified);
    }

    #[test]
    fn pump_full_conversation() {
        let (mut c, mut s) = established();
        let now = SimTime::ZERO;
        let mut e = fx();
        c.set_nodelay(true);
        s.set_nodelay(true);
        c.app_send(now, &vec![7u8; 10_000], &mut e);
        // Feed initial burst through the pump.
        let mut first: Vec<Segment> = e.segments.drain(..).collect();
        let mut sfx = fx();
        for seg in first.drain(..) {
            s.on_segment(now, &seg, &mut sfx);
        }
        for seg in sfx.segments.drain(..).collect::<Vec<_>>() {
            let mut cfx = fx();
            c.on_segment(now, &seg, &mut cfx);
            let mut sfx2 = fx();
            for seg2 in cfx.segments.drain(..) {
                s.on_segment(now, &seg2, &mut sfx2);
            }
            for seg3 in sfx2.segments.drain(..).collect::<Vec<_>>() {
                let mut cfx2 = fx();
                c.on_segment(now, &seg3, &mut cfx2);
                let mut tail = cfx2.segments.drain(..).collect::<Vec<_>>();
                let mut sfx3 = fx();
                while let Some(seg4) = tail.pop() {
                    s.on_segment(now, &seg4, &mut sfx3);
                }
                for seg5 in sfx3.segments.drain(..).collect::<Vec<_>>() {
                    let mut cfx3 = fx();
                    c.on_segment(now, &seg5, &mut cfx3);
                    // At this point the window is large enough to finish.
                    let mut sfx4 = fx();
                    for seg6 in cfx3.segments.drain(..) {
                        s.on_segment(now, &seg6, &mut sfx4);
                    }
                }
            }
        }
        let _ = pump(&mut c, &mut s, now);
        assert_eq!(s.bytes_received, 10_000);
        let mut e2 = fx();
        assert_eq!(s.app_recv(20_000, &mut e2).len(), 10_000);
    }

    /// Out-of-order data queued on both sides of the wrap drains in
    /// sequence order once the hole before it fills: the queue's integer
    /// keys put `[0, 100)` first, and a drain in key order stalls there.
    #[test]
    fn a_hole_before_the_wrap_drains_the_data_past_it() {
        // The client's data starts 2 000 below 2³².
        let iss = Seq::new(u32::MAX - 2_000);
        let (_, mut s) = established_from(iss);
        let data = |seq: u32, len: usize| Segment {
            src: CLIENT,
            dst: SERVER,
            seq,
            ack: (iss + 1).raw(),
            flags: TcpFlags::ACK,
            window: 65_535,
            sack: SackBlocks::NONE,
            payload: Bytes::from(vec![7u8; len]),
        };
        let (now, mut e) = (SimTime::ZERO, fx());
        s.on_segment(now, &data(u32::MAX - 999, 1_000), &mut e);
        s.on_segment(now, &data(0, 100), &mut e);
        assert_eq!(s.readable_bytes(), 0, "both wait behind the hole");
        s.on_segment(now, &data(u32::MAX - 1_999, 1_000), &mut e);
        assert_eq!(s.readable_bytes(), 2_100);
        assert_eq!(s.rcv_nxt, Seq::new(100));
    }

    /// What one [`transfer`] left: every segment either end emitted, in
    /// order; each end's counters; the bytes the server read; and the
    /// emission numbers of the data segments in the order they arrived.
    struct Transfer {
        segments: Vec<Segment>,
        counters: [[u64; 4]; 2],
        delivered: usize,
        arrivals: Vec<usize>,
    }

    /// Move `len` bytes from a client to a server, both at sequence
    /// number `iss` and running SACK, 5 ms apart, and close both ways.
    /// The 2nd data segment is lost and the 6th arrives 1 ms late;
    /// every timer fires when due.
    fn transfer(iss: Seq, len: usize) -> Transfer {
        enum Ev {
            Arrive(usize, Segment, usize),
            Timer(usize, TimerKind, u64),
        }
        let delay = SimDuration::from_millis(5);
        let cfg = TcpConfig {
            cc: CcVariant::Sack,
            ..TcpConfig::default()
        };
        let bytes = vec![0x5a; len];
        let mut queue: BTreeMap<(SimTime, usize), Ev> = BTreeMap::new();
        let mut tcbs: [Option<Tcb>; 2] = [None, None];
        let mut e = fx();
        let mut run = Transfer {
            segments: Vec::new(),
            counters: [[0; 4]; 2],
            delivered: 0,
            arrivals: Vec::new(),
        };
        let (mut now, mut side, mut sent, mut data_segments, mut order) =
            (SimTime::ZERO, 0, 0, 0, 0);
        tcbs[0] = Some(Tcb::open(
            iss,
            CLIENT,
            SERVER,
            cfg.clone(),
            None,
            now,
            &mut e,
        ));
        loop {
            // What `side` emitted goes on the wire or the timer queue;
            // its application answers each notification.
            while !(e.segments.is_empty() && e.timers.is_empty() && e.notifications.is_empty()) {
                for seg in e.segments.drain(..) {
                    run.segments.push(seg.clone());
                    let mut at = now + delay;
                    if seg.has_payload() {
                        data_segments += 1;
                        at += SimDuration::from_millis(u64::from(data_segments == 6));
                        if data_segments == 2 {
                            continue;
                        }
                    }
                    order += 1;
                    queue.insert((at, order), Ev::Arrive(1 - side, seg, data_segments));
                }
                for (kind, at, epoch) in e.timers.drain(..) {
                    order += 1;
                    queue.insert((at, order), Ev::Timer(side, kind, epoch));
                }
                let tcb = tcbs[side].as_mut().expect("the end that emitted");
                for note in std::mem::take(&mut e.notifications) {
                    match (side, note) {
                        (0, SockNotify::Connected | SockNotify::SendSpace) if sent < len => {
                            sent += tcb.app_send(now, &bytes[sent..], &mut e);
                            if sent == len {
                                tcb.app_shutdown_write(now, &mut e);
                            }
                        }
                        (1, SockNotify::Readable) => {
                            run.delivered += tcb.app_recv(usize::MAX, &mut e).len();
                        }
                        (1, SockNotify::PeerFin) => tcb.app_shutdown_write(now, &mut e),
                        _ => {}
                    }
                }
            }
            let Some(((at, _), ev)) = queue.pop_first() else {
                break;
            };
            now = at;
            match ev {
                Ev::Arrive(to, seg, n) => {
                    side = to;
                    if seg.has_payload() {
                        run.arrivals.push(n);
                    }
                    match tcbs[to].as_mut() {
                        Some(tcb) => tcb.on_segment(now, &seg, &mut e),
                        None => {
                            let syn = Some(&seg);
                            let tcb = Tcb::open(iss, SERVER, CLIENT, cfg.clone(), syn, now, &mut e);
                            tcbs[to] = Some(tcb);
                        }
                    }
                }
                Ev::Timer(at_side, kind, epoch) => {
                    side = at_side;
                    let tcb = tcbs[side].as_mut().expect("a timer's end");
                    tcb.on_timer(now, kind, epoch, &mut e);
                }
            }
        }
        for (counters, tcb) in run.counters.iter_mut().zip(&tcbs) {
            let tcb = tcb.as_ref().expect("both ends opened");
            assert!(tcb.fully_closed());
            *counters = [
                tcb.segments_sent,
                tcb.segments_retransmitted,
                tcb.bytes_sent,
                tcb.bytes_received,
            ];
        }
        run
    }

    /// A connection whose sequence numbers start 3 000 below 2³² behaves
    /// as one starting at 0, loss, reordering and SACK included: every
    /// segment is the ISS-0 run's, its sequence fields moved by the ISS.
    #[test]
    fn a_transfer_across_the_wrap_is_the_transfer_from_zero() {
        const LEN: usize = 64 * 1024 + 100;
        let iss = Seq::new(u32::MAX - 2_999);
        let (base, wrapped) = (transfer(ISS, LEN), transfer(iss, LEN));
        assert_eq!(base.delivered, LEN);
        assert!(base.counters[0][1] > 0, "the loss was repaired");
        let (late, next) = (
            base.arrivals.iter().position(|&n| n == 6),
            base.arrivals.iter().position(|&n| n == 7),
        );
        assert!(late > next, "the 6th data segment arrived after the 7th");
        assert!(base.segments.iter().any(|s| !s.sack.is_empty()));
        assert!(wrapped
            .segments
            .iter()
            .any(|s| Seq::new(s.seq_end()).after(Seq::new(s.seq)) && s.seq_end() < s.seq));

        let moved = |raw: u32| (Seq::new(raw) + iss.since(ISS) as usize).raw();
        let fields = |s: &Segment| {
            (
                s.src,
                s.dst,
                s.seq,
                s.ack,
                s.flags,
                s.window,
                s.sack,
                s.payload.clone(),
            )
        };
        assert_eq!(wrapped.segments.len(), base.segments.len());
        for (w, b) in wrapped.segments.iter().zip(&base.segments) {
            let mut sack = SackBlocks::NONE;
            for (start, end) in b.sack.iter() {
                sack.push(moved(start), moved(end));
            }
            let b = Segment {
                seq: moved(b.seq),
                ack: if b.flags.ack { moved(b.ack) } else { b.ack },
                sack,
                ..b.clone()
            };
            assert_eq!(fields(w), fields(&b));
        }
        assert_eq!(wrapped.counters, base.counters);
        assert_eq!(wrapped.delivered, base.delivered);
        assert_eq!(wrapped.arrivals, base.arrivals);
    }
}
