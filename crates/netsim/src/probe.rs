//! The flight recorder: deterministic observability for simulation runs.
//!
//! The paper's headline findings — the Nagle/pipelining deadlock, the
//! delayed-ACK interaction with slow start, the buffer-flush bug that cost
//! a full RTT — were all discovered by a human staring at tcpdump/xplot
//! output. This module automates that analysis:
//!
//! * **instrumentation** — a zero-overhead-when-disabled [`ProbeSink`]
//!   collects [`ProbeRecord`]s from the TCP state machine (congestion
//!   samples, Nagle holds, delayed-ACK deadlines, zero-window events,
//!   timer fires), from the kernel (connection opens, wire serialization
//!   intervals) and from the HTTP layers (request lifecycle spans);
//! * **analysis** — [`attribute`] walks the event stream and decomposes
//!   the run's wall-clock time into the named [`StallBuckets`], plus
//!   automatic detection of the paper's pathologies as typed
//!   [`Diagnosis`] values;
//! * **reporting** — [`ProbeAnalysis::render_json`] emits a stable,
//!   machine-readable document; the `Copy` summary [`ProbeReport`] rides
//!   along with cell results.
//!
//! Everything here is deterministic: records are appended in event-queue
//! order, every collection iterated for output is a `Vec` or `BTreeMap`,
//! and no wall-clock time is ever read. The module forbids clippy's
//! `disallowed_types` and `disallowed_methods`, so the workspace's bans
//! on hash collections and the wall clock admit no exception here.
//!
//! ## Attribution model
//!
//! [`attribute`] reduces the record stream to *intervals* (a Nagle hold
//! from the blocked send to the next payload segment leaving that socket;
//! a delayed-ACK wait from timer arm to ack emission; a wire-serialization
//! busy period; …), splits `[start, end]` at every interval endpoint, and
//! assigns each resulting gap to exactly **one** bucket by fixed priority:
//!
//! 1. RTO recovery, 2. link serialization, 3. Nagle hold,
//! 4. receiver-window/backpressure, 5. connection setup, 6. server think,
//! 7. delayed-ACK wait (only while no payload is in flight),
//! 8. slow-start/round-trip wait (payload in flight or cwnd-blocked),
//! 9. idle (client CPU, inter-request gaps).
//!
//! Because the gaps are disjoint and exhaustive, the buckets sum to the
//! elapsed time exactly (up to floating-point rounding in the final
//! nanosecond→second conversions) — the 1%-tolerance cross-check in the
//! test suite is a guard against accounting bugs, not an approximation.

#![forbid(clippy::disallowed_types, clippy::disallowed_methods)]

use crate::packet::{HostId, SockAddr};
use crate::tcp::TimerKind;
use crate::time::{SimDuration, SimTime};
use std::sync::Arc;

/// Why a sender with pending data did not emit a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Sub-MSS data held back by the Nagle algorithm while earlier data
    /// is unacknowledged.
    Nagle,
    /// The congestion window is full (waiting for acknowledgements).
    Cwnd,
    /// The peer's advertised receive window is full (backpressure).
    PeerWindow,
}

impl BlockReason {
    /// Stable lower-case name used in traces and JSON.
    pub fn name(self) -> &'static str {
        match self {
            BlockReason::Nagle => "nagle",
            BlockReason::Cwnd => "cwnd",
            BlockReason::PeerWindow => "peer_window",
        }
    }
}

/// An event emitted by the TCP state machine into [`crate::tcp::Effects`].
///
/// These carry no timestamp or address: the kernel stamps them with the
/// current simulated time and the owning socket's four-tuple when it
/// drains the effects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpProbeEvent {
    /// The connection reached the `Established` state.
    Established,
    /// A congestion-control sample, emitted whenever cwnd, ssthresh, the
    /// RTT estimate or the amount in flight changes.
    Sample {
        /// Congestion window, bytes.
        cwnd: u64,
        /// Slow-start threshold, bytes.
        ssthresh: u64,
        /// Smoothed RTT estimate in nanoseconds, if a sample exists.
        srtt_ns: Option<u64>,
        /// Current retransmission timeout, nanoseconds.
        rto_ns: u64,
        /// Unacknowledged bytes in flight.
        in_flight: u64,
    },
    /// The sender has pending data but emitted nothing.
    SendBlocked {
        /// What is holding the data back.
        reason: BlockReason,
        /// Buffered bytes not yet sent.
        pending: u64,
    },
    /// A delayed-ACK timer was armed.
    DelAckArm {
        /// When the timer will force the acknowledgement out.
        deadline: SimTime,
    },
    /// The pending delayed ACK left (piggybacked, forced by a second
    /// segment, or cancelled); the wait is over.
    DelAckFlush,
    /// A TCP timer fired and was acted upon (stale epochs never reach
    /// this point).
    TimerFired {
        /// Which timer fired.
        kind: TimerKind,
    },
    /// The retransmission timeout fired: slow start restarts.
    RtoFire,
    /// Three duplicate ACKs triggered a fast retransmit.
    FastRetransmit,
    /// The peer advertised a zero receive window.
    ZeroWindow,
}

/// A request-lifecycle span mark emitted by the HTTP layers via
/// [`crate::sim::Ctx::probe_span`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanEvent {
    /// The client generated a request and appended it to the connection's
    /// output buffer.
    RequestQueued {
        /// Request target path.
        path: Arc<str>,
    },
    /// Buffered requests were handed to the socket.
    RequestWritten {
        /// How many queued-but-unwritten requests this write covers.
        count: u32,
        /// Which policy triggered the flush.
        cause: FlushCause,
    },
    /// The first response byte for the connection's oldest outstanding
    /// request arrived.
    FirstByte,
    /// A full response was parsed off the wire.
    BodyComplete {
        /// Request target path the response answers.
        path: Arc<str>,
    },
    /// The server CPU will be busy servicing a request over the given
    /// interval (emitted at scheduling time; `start` may be later than
    /// the emission time when requests queue behind one CPU).
    ServerThink {
        /// When the CPU starts on this request.
        start: SimTime,
        /// When the response is generated.
        end: SimTime,
    },
}

/// What triggered a client-side request flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushCause {
    /// The pipeline buffer threshold was reached.
    Buffer,
    /// The application forced the flush (first request, or discovery
    /// complete with nothing pending).
    App,
    /// The backstop flush timer fired — the application *missed* a flush
    /// and paid the timer latency (the paper's extra-RTT bug).
    Timer,
}

impl FlushCause {
    /// Stable lower-case name used in traces and JSON.
    pub fn name(self) -> &'static str {
        match self {
            FlushCause::Buffer => "buffer",
            FlushCause::App => "app",
            FlushCause::Timer => "timer",
        }
    }
}

/// The payload of one probe record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeEventKind {
    /// An active open was initiated (client side; the SYN leaves now).
    ConnOpen,
    /// A passive open accepted a SYN (server side).
    ConnAccepted,
    /// An event from the TCP state machine.
    Tcp(TcpProbeEvent),
    /// A segment was handed to the link.
    WireTx {
        /// Bytes occupied on the physical wire (after link compression).
        bytes: usize,
        /// Whether the segment carries application payload.
        payload: bool,
        /// When the link starts serializing the segment.
        serialize_start: SimTime,
        /// When the last bit leaves the transmitter.
        serialize_end: SimTime,
        /// When the segment reaches the far end.
        arrival: SimTime,
    },
    /// An HTTP-layer span mark.
    Span(SpanEvent),
}

/// One timestamped, addressed probe event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeRecord {
    /// When the event happened (simulated clock).
    pub at: SimTime,
    /// The host the event belongs to (the sender for [`ProbeEventKind::WireTx`]).
    pub host: HostId,
    /// Local address of the owning socket.
    pub local: SockAddr,
    /// Remote address of the owning socket.
    pub remote: SockAddr,
    /// What happened.
    pub kind: ProbeEventKind,
}

/// The kernel-owned event collector. Disabled by default: recording a
/// disabled sink is a single branch and the record vector never
/// allocates, so runs without the probe are bit-identical to builds
/// before it existed.
#[derive(Debug, Default)]
pub struct ProbeSink {
    enabled: bool,
    records: Vec<ProbeRecord>,
}

impl ProbeSink {
    /// Whether the sink is collecting.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start collecting.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Append a record (no-op while disabled).
    pub fn record(&mut self, rec: ProbeRecord) {
        if self.enabled {
            self.records.push(rec);
        }
    }

    /// The records collected so far, in event order.
    pub fn records(&self) -> &[ProbeRecord] {
        &self.records
    }
}

/// Elapsed seconds decomposed by cause. Buckets are disjoint and sum to
/// the attributed window (see the module docs for the priority order).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StallBuckets {
    /// SYN handshakes: active open to `Established`.
    pub connection_setup: f64,
    /// Round-trip waits with payload in flight or the congestion window
    /// exhausted — the slow-start ramp and steady-state RTT cost.
    pub slow_start: f64,
    /// Sub-MSS data held by the Nagle algorithm.
    pub nagle_hold: f64,
    /// A receiver sat on an acknowledgement (delayed-ACK timer armed,
    /// nothing in flight).
    pub delayed_ack_wait: f64,
    /// Retransmission-timeout and fast-retransmit recovery.
    pub rto_recovery: f64,
    /// Sender blocked on the peer's advertised window (backpressure).
    pub recv_window: f64,
    /// The server CPU was the bottleneck.
    pub server_think: f64,
    /// The wire was actually busy serializing bits.
    pub serialization: f64,
    /// None of the above: client CPU and genuine idle gaps.
    pub idle: f64,
}

impl StallBuckets {
    /// Sum of all buckets (should equal the attributed elapsed time).
    pub fn sum(&self) -> f64 {
        self.connection_setup
            + self.slow_start
            + self.nagle_hold
            + self.delayed_ack_wait
            + self.rto_recovery
            + self.recv_window
            + self.server_think
            + self.serialization
            + self.idle
    }

    /// `(name, seconds)` pairs in the fixed reporting order.
    pub fn entries(&self) -> [(&'static str, f64); 9] {
        [
            ("connection_setup", self.connection_setup),
            ("slow_start", self.slow_start),
            ("nagle_hold", self.nagle_hold),
            ("delayed_ack_wait", self.delayed_ack_wait),
            ("rto_recovery", self.rto_recovery),
            ("recv_window", self.recv_window),
            ("server_think", self.server_think),
            ("serialization", self.serialization),
            ("idle", self.idle),
        ]
    }
}

/// An automatically detected pathology from the paper.
#[derive(Debug, Clone, PartialEq)]
pub enum Diagnosis {
    /// The Nagle algorithm held sub-MSS pipelined data while the peer's
    /// delayed-ACK timer counted down — the paper's pipelining deadlock.
    NaglePipelining {
        /// Local address of the held socket.
        local: SockAddr,
        /// Remote address of the held socket.
        remote: SockAddr,
        /// Total time the hold overlapped a pending delayed ACK, seconds.
        stall_secs: f64,
    },
    /// A request sat in the output buffer until the backstop flush timer
    /// fired — the application missed a flush and paid the timer latency
    /// (the paper's "lost" RTT).
    MissedFlushExtraRtt {
        /// How many timer-triggered flushes occurred.
        count: u32,
        /// The worst queued→written gap over those flushes, seconds.
        worst_gap_secs: f64,
    },
}

/// The fixed-size, `Copy` summary that rides along with a cell result.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeReport {
    /// The stall decomposition.
    pub buckets: StallBuckets,
    /// The attributed window, seconds (equals the trace's elapsed time).
    pub elapsed: f64,
    /// Connections observed (active opens).
    pub connections: u32,
    /// Requests observed (queue marks).
    pub requests: u32,
    /// Number of [`Diagnosis::NaglePipelining`] findings.
    pub nagle_pipelining: u32,
    /// Number of timer-triggered (missed) flushes.
    pub missed_flushes: u32,
}

/// Lifecycle of one request as seen by the probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpan {
    /// Request target path.
    pub path: Arc<str>,
    /// Local address of the connection that carried it.
    pub local: SockAddr,
    /// Remote address of the connection that carried it.
    pub remote: SockAddr,
    /// When the client generated the request.
    pub queued: SimTime,
    /// When it was handed to the socket.
    pub written: Option<SimTime>,
    /// When the first response byte arrived.
    pub first_byte: Option<SimTime>,
    /// When the full response was parsed.
    pub complete: Option<SimTime>,
}

/// Per-connection summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnSummary {
    /// Local address.
    pub local: SockAddr,
    /// Remote address.
    pub remote: SockAddr,
    /// When the active open was initiated.
    pub opened: SimTime,
    /// When the connection established, if it did.
    pub established: Option<SimTime>,
}

/// The full output of [`attribute`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeAnalysis {
    /// The `Copy` summary.
    pub report: ProbeReport,
    /// Start of the attributed window.
    pub start: SimTime,
    /// End of the attributed window.
    pub end: SimTime,
    /// Client connections, in open order.
    pub connections: Vec<ConnSummary>,
    /// Request spans, in queue order.
    pub requests: Vec<RequestSpan>,
    /// Detected pathologies.
    pub diagnoses: Vec<Diagnosis>,
}

/// A set of half-open `[start, end)` nanosecond intervals with merge and
/// point-membership queries.
#[derive(Debug, Default)]
struct Intervals(Vec<(u64, u64)>);

impl Intervals {
    fn push(&mut self, s: u64, e: u64, lo: u64, hi: u64) {
        let s = s.clamp(lo, hi);
        let e = e.clamp(lo, hi);
        if e > s {
            self.0.push((s, e));
        }
    }

    /// Sort and merge into disjoint intervals.
    fn normalize(&mut self) {
        self.0.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.0.len());
        for &(s, e) in &self.0 {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        self.0 = merged;
    }

    /// Whether `t` falls inside any interval (requires `normalize`).
    fn covers(&self, t: u64) -> bool {
        match self.0.partition_point(|&(s, _)| s <= t) {
            0 => false,
            i => t < self.0[i - 1].1,
        }
    }

    fn endpoints<'a>(&'a self) -> impl Iterator<Item = u64> + 'a {
        self.0.iter().flat_map(|&(s, e)| [s, e])
    }
}

/// A socket identity as the probe keys it: owner host plus four-tuple.
type ConnKey = (HostId, SockAddr, SockAddr);

/// A small deterministic map over the handful of live connections.
#[derive(Debug, Default)]
struct PendingMap(Vec<(ConnKey, u64)>);

impl PendingMap {
    /// Set the start mark unless one is already pending.
    fn set(&mut self, key: ConnKey, at: u64) {
        if !self.0.iter().any(|(k, _)| *k == key) {
            self.0.push((key, at));
        }
    }

    /// Remove and return the pending start, if any.
    fn clear(&mut self, key: ConnKey) -> Option<u64> {
        let i = self.0.iter().position(|(k, _)| *k == key)?;
        Some(self.0.swap_remove(i).1)
    }

    /// Drain everything (used to extend unresolved holds to window end).
    fn drain(&mut self) -> Vec<(ConnKey, u64)> {
        std::mem::take(&mut self.0)
    }
}

/// Decompose the window `[start, end]` of a finished run into
/// [`StallBuckets`], request spans, connection summaries and
/// [`Diagnosis`] findings. `records` must be in recording order (as
/// [`ProbeSink`] yields them).
pub fn attribute(records: &[ProbeRecord], start: SimTime, end: SimTime) -> ProbeAnalysis {
    let lo = start.as_nanos();
    let hi = end.as_nanos().max(lo);

    let mut handshake = Intervals::default();
    let mut nagle = Intervals::default();
    let mut rwnd = Intervals::default();
    let mut rto = Intervals::default();
    let mut delack = Intervals::default();
    let mut server = Intervals::default();
    let mut wire = Intervals::default();
    let mut flight = Intervals::default();

    // Per-connection interval lists kept for the Nagle×delayed-ACK
    // overlap diagnosis.
    let mut nagle_per_conn: Vec<(ConnKey, u64, u64)> = Vec::new();
    let mut delack_per_conn: Vec<(ConnKey, u64, u64)> = Vec::new();

    let mut pending_handshake = PendingMap::default();
    let mut pending_nagle = PendingMap::default();
    let mut pending_rwnd = PendingMap::default();
    let mut pending_cwnd = PendingMap::default();
    let mut pending_rto = PendingMap::default();
    let mut pending_delack = PendingMap::default();
    // Sample-driven in-flight spans: (key, since) while in_flight > 0.
    let mut pending_flight = PendingMap::default();

    let mut connections: Vec<ConnSummary> = Vec::new();
    let mut requests: Vec<RequestSpan> = Vec::new();
    let mut missed_flushes = 0u32;
    let mut worst_missed_gap = 0u64;

    for rec in records {
        let t = rec.at.as_nanos();
        let key: ConnKey = (rec.host, rec.local, rec.remote);
        match &rec.kind {
            ProbeEventKind::ConnOpen => {
                pending_handshake.set(key, t);
                connections.push(ConnSummary {
                    local: rec.local,
                    remote: rec.remote,
                    opened: rec.at,
                    established: None,
                });
            }
            ProbeEventKind::ConnAccepted => {}
            ProbeEventKind::Tcp(ev) => match ev {
                TcpProbeEvent::Established => {
                    if let Some(s) = pending_handshake.clear(key) {
                        handshake.push(s, t, lo, hi);
                        if let Some(c) = connections
                            .iter_mut()
                            .rev()
                            .find(|c| c.local == rec.local && c.remote == rec.remote)
                        {
                            c.established = Some(rec.at);
                        }
                    }
                }
                TcpProbeEvent::Sample { in_flight, .. } => {
                    // A new acknowledgement (or send) sample ends any
                    // recovery period and refreshes the in-flight span.
                    if let Some(s) = pending_rto.clear(key) {
                        rto.push(s, t, lo, hi);
                    }
                    if let Some(s) = pending_cwnd.clear(key) {
                        flight.push(s, t, lo, hi);
                    }
                    if *in_flight > 0 {
                        pending_flight.set(key, t);
                    } else if let Some(s) = pending_flight.clear(key) {
                        flight.push(s, t, lo, hi);
                    }
                }
                TcpProbeEvent::SendBlocked { reason, .. } => match reason {
                    BlockReason::Nagle => pending_nagle.set(key, t),
                    BlockReason::Cwnd => pending_cwnd.set(key, t),
                    BlockReason::PeerWindow => pending_rwnd.set(key, t),
                },
                TcpProbeEvent::ZeroWindow => pending_rwnd.set(key, t),
                TcpProbeEvent::DelAckArm { .. } => pending_delack.set(key, t),
                TcpProbeEvent::DelAckFlush => {
                    if let Some(s) = pending_delack.clear(key) {
                        delack.push(s, t, lo, hi);
                        delack_per_conn.push((key, s, t));
                    }
                }
                TcpProbeEvent::TimerFired { kind } => {
                    if *kind == TimerKind::DelAck {
                        if let Some(s) = pending_delack.clear(key) {
                            delack.push(s, t, lo, hi);
                            delack_per_conn.push((key, s, t));
                        }
                    }
                }
                TcpProbeEvent::RtoFire | TcpProbeEvent::FastRetransmit => {
                    pending_rto.set(key, t);
                }
            },
            ProbeEventKind::WireTx {
                payload,
                serialize_start,
                serialize_end,
                arrival,
                ..
            } => {
                wire.push(serialize_start.as_nanos(), serialize_end.as_nanos(), lo, hi);
                if *payload {
                    flight.push(serialize_start.as_nanos(), arrival.as_nanos(), lo, hi);
                    // A payload segment leaving this socket ends any
                    // send-side hold on it.
                    if let Some(s) = pending_nagle.clear(key) {
                        nagle.push(s, t, lo, hi);
                        nagle_per_conn.push((key, s, t));
                    }
                    if let Some(s) = pending_rwnd.clear(key) {
                        rwnd.push(s, t, lo, hi);
                    }
                    if let Some(s) = pending_cwnd.clear(key) {
                        flight.push(s, t, lo, hi);
                    }
                }
            }
            ProbeEventKind::Span(span) => match span {
                SpanEvent::RequestQueued { path } => requests.push(RequestSpan {
                    path: path.clone(),
                    local: rec.local,
                    remote: rec.remote,
                    queued: rec.at,
                    written: None,
                    first_byte: None,
                    complete: None,
                }),
                SpanEvent::RequestWritten { count, cause } => {
                    let mut oldest_gap = 0u64;
                    let mut left = *count;
                    for r in requests.iter_mut() {
                        if left == 0 {
                            break;
                        }
                        if r.local == rec.local && r.remote == rec.remote && r.written.is_none() {
                            r.written = Some(rec.at);
                            oldest_gap = oldest_gap.max(t - r.queued.as_nanos().min(t));
                            left -= 1;
                        }
                    }
                    if *cause == FlushCause::Timer {
                        missed_flushes += 1;
                        worst_missed_gap = worst_missed_gap.max(oldest_gap);
                    }
                }
                SpanEvent::FirstByte => {
                    if let Some(r) = requests.iter_mut().find(|r| {
                        r.local == rec.local && r.remote == rec.remote && r.complete.is_none()
                    }) {
                        if r.first_byte.is_none() {
                            r.first_byte = Some(rec.at);
                        }
                    }
                }
                SpanEvent::BodyComplete { .. } => {
                    if let Some(r) = requests.iter_mut().find(|r| {
                        r.local == rec.local && r.remote == rec.remote && r.complete.is_none()
                    }) {
                        if r.first_byte.is_none() {
                            r.first_byte = Some(rec.at);
                        }
                        r.complete = Some(rec.at);
                    }
                }
                SpanEvent::ServerThink { start, end } => {
                    server.push(start.as_nanos(), end.as_nanos(), lo, hi);
                }
            },
        }
    }

    // Unresolved holds extend to the end of the window.
    for (_, s) in pending_handshake.drain() {
        handshake.push(s, hi, lo, hi);
    }
    for (key, s) in pending_nagle.drain() {
        nagle.push(s, hi, lo, hi);
        nagle_per_conn.push((key, s, hi));
    }
    for (_, s) in pending_rwnd.drain() {
        rwnd.push(s, hi, lo, hi);
    }
    for (_, s) in pending_cwnd.drain() {
        flight.push(s, hi, lo, hi);
    }
    for (_, s) in pending_rto.drain() {
        rto.push(s, hi, lo, hi);
    }
    for (key, s) in pending_delack.drain() {
        delack.push(s, hi, lo, hi);
        delack_per_conn.push((key, s, hi));
    }
    for (_, s) in pending_flight.drain() {
        flight.push(s, hi, lo, hi);
    }

    for iv in [
        &mut handshake,
        &mut nagle,
        &mut rwnd,
        &mut rto,
        &mut delack,
        &mut server,
        &mut wire,
        &mut flight,
    ] {
        iv.normalize();
    }

    // Split the window at every interval endpoint and classify each gap.
    let mut bounds: Vec<u64> = Vec::new();
    bounds.push(lo);
    bounds.push(hi);
    for iv in [
        &handshake, &nagle, &rwnd, &rto, &delack, &server, &wire, &flight,
    ] {
        bounds.extend(iv.endpoints().filter(|&t| t >= lo && t <= hi));
    }
    bounds.sort_unstable();
    bounds.dedup();

    let mut buckets = StallBuckets::default();
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        let mid = a + (b - a) / 2;
        let secs = SimDuration::from_nanos(b - a).as_secs_f64();
        if rto.covers(mid) {
            buckets.rto_recovery += secs;
        } else if wire.covers(mid) {
            buckets.serialization += secs;
        } else if nagle.covers(mid) {
            buckets.nagle_hold += secs;
        } else if rwnd.covers(mid) {
            buckets.recv_window += secs;
        } else if handshake.covers(mid) {
            buckets.connection_setup += secs;
        } else if server.covers(mid) {
            buckets.server_think += secs;
        } else if delack.covers(mid) && !flight.covers(mid) {
            buckets.delayed_ack_wait += secs;
        } else if flight.covers(mid) {
            buckets.slow_start += secs;
        } else {
            buckets.idle += secs;
        }
    }

    // Diagnoses. Nagle×delayed-ACK: a send-side hold overlapping a
    // pending delayed ACK on the *peer* side of the same connection.
    let mut diagnoses: Vec<Diagnosis> = Vec::new();
    let mut nagle_conns: Vec<(ConnKey, u64)> = Vec::new();
    for &((host, local, remote), s, e) in &nagle_per_conn {
        let mut overlap = 0u64;
        for &((peer_host, peer_local, peer_remote), s2, e2) in &delack_per_conn {
            if peer_host != host && peer_local == remote && peer_remote == local {
                let o = e.min(e2).saturating_sub(s.max(s2));
                overlap += o;
            }
        }
        if overlap > 0 {
            match nagle_conns
                .iter_mut()
                .find(|(k, _)| k.1 == local && k.2 == remote)
            {
                Some((_, total)) => *total += overlap,
                None => nagle_conns.push(((host, local, remote), overlap)),
            }
        }
    }
    for ((_, local, remote), total) in nagle_conns {
        diagnoses.push(Diagnosis::NaglePipelining {
            local,
            remote,
            stall_secs: SimDuration::from_nanos(total).as_secs_f64(),
        });
    }
    if missed_flushes > 0 {
        diagnoses.push(Diagnosis::MissedFlushExtraRtt {
            count: missed_flushes,
            worst_gap_secs: SimDuration::from_nanos(worst_missed_gap).as_secs_f64(),
        });
    }

    let report = ProbeReport {
        buckets,
        elapsed: SimDuration::from_nanos(hi - lo).as_secs_f64(),
        connections: connections.len() as u32,
        requests: requests.len() as u32,
        nagle_pipelining: diagnoses
            .iter()
            .filter(|d| matches!(d, Diagnosis::NaglePipelining { .. }))
            .count() as u32,
        missed_flushes,
    };

    ProbeAnalysis {
        report,
        start,
        end,
        connections,
        requests,
        diagnoses,
    }
}

use crate::json::escape as json_escape;

/// Seconds as a JSON number: shortest representation that round-trips
/// exactly (see [`crate::json::number`]).
fn json_secs(secs: f64) -> String {
    crate::json::number(secs)
}

fn json_time(t: SimTime) -> String {
    json_secs(t.as_secs_f64())
}

fn json_opt_time(t: Option<SimTime>) -> String {
    match t {
        Some(t) => json_time(t),
        None => "null".to_string(),
    }
}

impl ProbeAnalysis {
    /// Render the analysis as a stable, hand-rolled JSON document.
    /// Field order and float formatting are fixed, so identical runs
    /// produce byte-identical output.
    pub fn render_json(&self, label: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"cell\": \"{}\",\n", json_escape(label)));
        out.push_str(&format!(
            "  \"elapsed_secs\": {},\n",
            json_secs(self.report.elapsed)
        ));
        out.push_str("  \"buckets\": {\n");
        let entries = self.report.buckets.entries();
        for (i, (name, secs)) in entries.iter().enumerate() {
            let comma = if i + 1 < entries.len() { "," } else { "" };
            out.push_str(&format!("    \"{name}\": {}{comma}\n", json_secs(*secs)));
        }
        out.push_str("  },\n");
        out.push_str(&format!(
            "  \"bucket_sum_secs\": {},\n",
            json_secs(self.report.buckets.sum())
        ));
        out.push_str("  \"connections\": [\n");
        for (i, c) in self.connections.iter().enumerate() {
            let comma = if i + 1 < self.connections.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!(
                "    {{\"local\": \"{}\", \"remote\": \"{}\", \"opened\": {}, \"established\": {}}}{comma}\n",
                c.local,
                c.remote,
                json_time(c.opened),
                json_opt_time(c.established),
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"requests\": [\n");
        for (i, r) in self.requests.iter().enumerate() {
            let comma = if i + 1 < self.requests.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"path\": \"{}\", \"conn\": \"{}>{}\", \"queued\": {}, \"written\": {}, \"first_byte\": {}, \"complete\": {}}}{comma}\n",
                json_escape(&r.path),
                r.local,
                r.remote,
                json_time(r.queued),
                json_opt_time(r.written),
                json_opt_time(r.first_byte),
                json_opt_time(r.complete),
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"diagnoses\": [\n");
        for (i, d) in self.diagnoses.iter().enumerate() {
            let comma = if i + 1 < self.diagnoses.len() {
                ","
            } else {
                ""
            };
            match d {
                Diagnosis::NaglePipelining {
                    local,
                    remote,
                    stall_secs,
                } => out.push_str(&format!(
                    "    {{\"kind\": \"nagle_pipelining\", \"conn\": \"{local}>{remote}\", \"stall_secs\": {}}}{comma}\n",
                    json_secs(*stall_secs)
                )),
                Diagnosis::MissedFlushExtraRtt {
                    count,
                    worst_gap_secs,
                } => out.push_str(&format!(
                    "    {{\"kind\": \"missed_flush_extra_rtt\", \"count\": {count}, \"worst_gap_secs\": {}}}{comma}\n",
                    json_secs(*worst_gap_secs)
                )),
            }
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn key() -> (HostId, SockAddr, SockAddr) {
        (
            HostId(0),
            SockAddr::new(HostId(0), 1000),
            SockAddr::new(HostId(1), 80),
        )
    }

    fn rec(at: SimTime, kind: ProbeEventKind) -> ProbeRecord {
        let (host, local, remote) = key();
        ProbeRecord {
            at,
            host,
            local,
            remote,
            kind,
        }
    }

    fn peer_rec(at: SimTime, kind: ProbeEventKind) -> ProbeRecord {
        let (_, local, remote) = key();
        ProbeRecord {
            at,
            host: remote.host,
            local: remote,
            remote: local,
            kind,
        }
    }

    #[test]
    fn intervals_merge_and_cover() {
        let mut iv = Intervals::default();
        iv.push(10, 20, 0, 100);
        iv.push(15, 30, 0, 100);
        iv.push(50, 60, 0, 100);
        iv.normalize();
        assert_eq!(iv.0, vec![(10, 30), (50, 60)]);
        assert!(iv.covers(10));
        assert!(iv.covers(29));
        assert!(!iv.covers(30));
        assert!(!iv.covers(40));
        assert!(iv.covers(55));
        assert!(!iv.covers(60));
        assert!(!iv.covers(5));
    }

    #[test]
    fn buckets_sum_to_elapsed_on_synthetic_stream() {
        // 0–10ms handshake, 10–20ms serialization, 20–120ms Nagle hold,
        // rest idle.
        let records = vec![
            rec(t(0), ProbeEventKind::ConnOpen),
            rec(t(10), ProbeEventKind::Tcp(TcpProbeEvent::Established)),
            rec(
                t(10),
                ProbeEventKind::WireTx {
                    bytes: 100,
                    payload: false,
                    serialize_start: t(10),
                    serialize_end: t(20),
                    arrival: t(20),
                },
            ),
            rec(
                t(20),
                ProbeEventKind::Tcp(TcpProbeEvent::SendBlocked {
                    reason: BlockReason::Nagle,
                    pending: 100,
                }),
            ),
            rec(
                t(120),
                ProbeEventKind::WireTx {
                    bytes: 140,
                    payload: true,
                    serialize_start: t(120),
                    serialize_end: t(120),
                    arrival: t(120),
                },
            ),
        ];
        let a = attribute(&records, t(0), t(200));
        let b = a.report.buckets;
        assert!((b.sum() - 0.2).abs() < 1e-9, "sum {} != 0.2", b.sum());
        assert!((b.connection_setup - 0.01).abs() < 1e-9);
        assert!((b.serialization - 0.01).abs() < 1e-9);
        assert!((b.nagle_hold - 0.1).abs() < 1e-9);
        assert!((b.idle - 0.08).abs() < 1e-9);
        assert_eq!(a.report.connections, 1);
    }

    #[test]
    fn nagle_delack_overlap_diagnosed() {
        let records = vec![
            rec(t(0), ProbeEventKind::ConnOpen),
            rec(t(1), ProbeEventKind::Tcp(TcpProbeEvent::Established)),
            // Client holds sub-MSS data from 10ms.
            rec(
                t(10),
                ProbeEventKind::Tcp(TcpProbeEvent::SendBlocked {
                    reason: BlockReason::Nagle,
                    pending: 190,
                }),
            ),
            // Server's delayed-ACK timer armed over the same period.
            peer_rec(
                t(12),
                ProbeEventKind::Tcp(TcpProbeEvent::DelAckArm { deadline: t(212) }),
            ),
            peer_rec(
                t(212),
                ProbeEventKind::Tcp(TcpProbeEvent::TimerFired {
                    kind: TimerKind::DelAck,
                }),
            ),
            rec(
                t(213),
                ProbeEventKind::WireTx {
                    bytes: 230,
                    payload: true,
                    serialize_start: t(213),
                    serialize_end: t(213),
                    arrival: t(214),
                },
            ),
        ];
        let a = attribute(&records, t(0), t(250));
        assert_eq!(a.report.nagle_pipelining, 1);
        let Some(Diagnosis::NaglePipelining { stall_secs, .. }) = a
            .diagnoses
            .iter()
            .find(|d| matches!(d, Diagnosis::NaglePipelining { .. }))
        else {
            panic!("expected a NaglePipelining diagnosis: {:?}", a.diagnoses);
        };
        assert!((stall_secs - 0.2).abs() < 1e-6, "overlap ~200ms");
        assert!(a.report.buckets.nagle_hold > 0.19);
    }

    #[test]
    fn delack_wait_without_flight_is_bucketed() {
        let records = vec![
            rec(
                t(10),
                ProbeEventKind::Tcp(TcpProbeEvent::DelAckArm { deadline: t(210) }),
            ),
            rec(
                t(210),
                ProbeEventKind::Tcp(TcpProbeEvent::TimerFired {
                    kind: TimerKind::DelAck,
                }),
            ),
        ];
        let a = attribute(&records, t(0), t(300));
        assert!((a.report.buckets.delayed_ack_wait - 0.2).abs() < 1e-9);
        assert!((a.report.buckets.sum() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn missed_flush_diagnosed_from_timer_cause() {
        let records = vec![
            rec(
                t(0),
                ProbeEventKind::Span(SpanEvent::RequestQueued { path: "/a".into() }),
            ),
            rec(
                t(1000),
                ProbeEventKind::Span(SpanEvent::RequestWritten {
                    count: 1,
                    cause: FlushCause::Timer,
                }),
            ),
        ];
        let a = attribute(&records, t(0), t(1500));
        assert_eq!(a.report.missed_flushes, 1);
        let Some(Diagnosis::MissedFlushExtraRtt {
            count,
            worst_gap_secs,
        }) = a.diagnoses.first()
        else {
            panic!("expected MissedFlushExtraRtt");
        };
        assert_eq!(*count, 1);
        assert!((worst_gap_secs - 1.0).abs() < 1e-9);
        assert_eq!(a.requests.len(), 1);
        assert_eq!(a.requests[0].written, Some(t(1000)));
    }

    #[test]
    fn request_spans_pair_in_order() {
        let records = vec![
            rec(
                t(0),
                ProbeEventKind::Span(SpanEvent::RequestQueued { path: "/a".into() }),
            ),
            rec(
                t(1),
                ProbeEventKind::Span(SpanEvent::RequestQueued { path: "/b".into() }),
            ),
            rec(
                t(2),
                ProbeEventKind::Span(SpanEvent::RequestWritten {
                    count: 2,
                    cause: FlushCause::App,
                }),
            ),
            rec(t(5), ProbeEventKind::Span(SpanEvent::FirstByte)),
            rec(
                t(6),
                ProbeEventKind::Span(SpanEvent::BodyComplete { path: "/a".into() }),
            ),
            rec(
                t(8),
                ProbeEventKind::Span(SpanEvent::BodyComplete { path: "/b".into() }),
            ),
        ];
        let a = attribute(&records, t(0), t(10));
        assert_eq!(a.requests.len(), 2);
        assert_eq!(a.requests[0].first_byte, Some(t(5)));
        assert_eq!(a.requests[0].complete, Some(t(6)));
        assert_eq!(a.requests[1].written, Some(t(2)));
        // The second response's arrival doubles as its first byte.
        assert_eq!(a.requests[1].first_byte, Some(t(8)));
        assert_eq!(a.requests[1].complete, Some(t(8)));
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = ProbeSink::default();
        assert!(!sink.enabled());
        sink.record(rec(t(0), ProbeEventKind::ConnOpen));
        assert!(sink.records().is_empty());
        sink.enable();
        sink.record(rec(t(0), ProbeEventKind::ConnOpen));
        assert_eq!(sink.records().len(), 1);
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let records = vec![
            rec(t(0), ProbeEventKind::ConnOpen),
            rec(t(1), ProbeEventKind::Tcp(TcpProbeEvent::Established)),
            rec(
                t(2),
                ProbeEventKind::Span(SpanEvent::RequestQueued {
                    path: "/we\"ird".into(),
                }),
            ),
        ];
        let a = attribute(&records, t(0), t(10));
        let one = a.render_json("lan/pipelined");
        let two = a.render_json("lan/pipelined");
        assert_eq!(one, two);
        assert!(one.contains("\"cell\": \"lan/pipelined\""));
        assert!(one.contains("/we\\\"ird"));
        assert!(one.contains("\"bucket_sum_secs\""));
    }
}
