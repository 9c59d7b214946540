//! Trace-invariant checker for the simulator's TCP and HTTP behaviour.
//!
//! The paper's measurements are only meaningful if the protocol stacks
//! under test are *correct*: a Nagle interaction, a premature close or a
//! broken delayed-ACK timer all show up as performance numbers that look
//! plausible but measure a bug. This crate consumes a full packet trace
//! ([`netsim::TraceRecord`]s plus [`netsim::DropRecord`]s) and verifies a
//! set of machine-checked invariants against every connection it finds:
//! handshake ordering, sequence/ack discipline, window, MSS and
//! congestion-window respect, delayed-ACK deadlines, the Nagle rule,
//! FIN/RST semantics, retransmission justification, and — above TCP —
//! HTTP message framing, pipelining order and persistent-connection
//! rules over the reassembled byte streams.
//!
//! The checker is *causal*: it replays departures and arrivals in time
//! order and only ever holds an endpoint to information that had reached
//! it. Dropped packets count as departures (the sender did emit them);
//! network-duplicated deliveries are folded back into one emission.
//!
//! It reads the trace where it lies. One sorted index of `(connection,
//! capture number)` groups the captures, and the connections are
//! replayed one at a time, in key order, over scratch state each reuses
//! from the last; a packet is a reference to its capture, and a
//! reassembled stream is a [`bytes::BytesQueue`] of views of the
//! captured payloads, handed to the `httpwire` and `httpmux` parsers a
//! chunk at a time. What a check allocates is therefore per packet, not
//! per payload byte, and what it holds at once is bounded by its index
//! and its largest connection (the `check …` rows of `httpipe-core`'s
//! count table, `tests/count_table/mod.rs`, pin both).
//!
//! Entry point: [`check_trace`]. The harness runs a cell under it with
//! `httpipe-core::harness::run_spec_checked`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod http;
mod mux;

pub use check::check_trace;

use netsim::{SimTime, SockAddr, TcpConfig};
use std::fmt;

/// Every invariant the checker can report. Each variant is exercised by a
/// mutation test in `tests/mutations.rs` that deliberately breaks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // the labels below document each variant
pub enum InvariantKind {
    /// An endpoint's first segment on a connection must carry SYN (or be
    /// a kernel RST reply to a closed port).
    SynFirst,
    /// No ACK-bearing segment may depart before anything arrived from the
    /// peer — you cannot acknowledge what you have not heard.
    HandshakeOrdering,
    /// A SYN-ACK must acknowledge exactly the peer's ISS + 1.
    SynAckAcksIss,
    /// Sequence space is used contiguously: no departure starts beyond
    /// the highest sequence already sent (no gaps).
    SeqContiguous,
    /// Cumulative acknowledgements never move backwards.
    AckMonotonic,
    /// An acknowledgement never covers sequence space the peer has not
    /// causally delivered to this endpoint.
    AckNoUnsentData,
    /// No segment carries more payload than the MSS.
    MssRespect,
    /// Data never exceeds the peer's advertised window right edge
    /// (one-byte zero-window probes exempt).
    WindowRespect,
    /// The advertised window right edge (ack + window) never shrinks.
    WindowEdgeNoShrink,
    /// Bytes in flight never exceed the slow-start upper bound on the
    /// congestion window.
    CwndRespect,
    /// In-order data is acknowledged within the delayed-ACK timeout.
    DelayedAckDeadline,
    /// An ACK is forced at least every second full segment: three
    /// deliveries never pass without an acknowledgement departing.
    DelayedAckForce,
    /// With Nagle enabled, no fresh sub-MSS segment departs while data is
    /// in flight (zero-window probes and FIN-bearing segments exempt).
    NagleHold,
    /// No new sequence space is used after the FIN (retransmission of the
    /// FIN itself is allowed).
    DataAfterFin,
    /// Every FIN retransmission occupies the same sequence number.
    FinSeqStable,
    /// An RST carries no payload, SYN or FIN.
    RstWithPayload,
    /// An RST never opens a connection: some segment must precede it.
    RstNotFirst,
    /// After sending an RST an endpoint sends nothing further (more RSTs
    /// from the kernel for stray arrivals are allowed).
    SilenceAfterRstSent,
    /// After an RST arrives an endpoint sends nothing further.
    SilenceAfterRstRecvd,
    /// Re-covering already-sent sequence space is only legitimate after a
    /// retransmission timeout or three duplicate ACKs.
    RexmitJustified,
    /// The client→server byte stream parses as well-formed HTTP requests.
    HttpRequestParse,
    /// The server→client byte stream parses as well-formed HTTP
    /// responses with framing (Content-Length / chunked) matching the
    /// body.
    HttpResponseParse,
    /// No byte of response *i* departs the server before request *i* has
    /// fully arrived.
    ResponseBeforeRequest,
    /// A connection never carries more responses than requests.
    PipelineOrder,
    /// A cleanly closed stream leaves no unparsed trailing bytes.
    StreamLeftover,
    /// After a `Connection: close` response arrives, the client sends no
    /// further request on that connection.
    ConnectionCloseRespected,
    /// A multiplexed connection's byte streams parse as well-formed
    /// `httpmux` frames (preface, length prefixes, payload shapes), with
    /// no trailing bytes at a clean close.
    MuxFrameParse,
    /// Stream identifiers are monotonic per initiator: client-opened
    /// streams are odd and strictly increasing, server-promised streams
    /// are even and strictly increasing.
    MuxStreamIdMonotonic,
    /// Flow-control windows never go negative: no DATA departs beyond
    /// the per-stream or connection credit its sender has received.
    MuxWindowNonNegative,
    /// No DATA or HEADERS departs on a stream after its sender signalled
    /// END_STREAM (reset streams exempt).
    MuxDataAfterEndStream,
    /// PUSH_PROMISE only travels server→client and must reference an
    /// open client-initiated stream.
    MuxPushPromiseInvalid,
    /// A NewReno/SACK sender in fast recovery must not re-enter slow
    /// start on a partial ACK: the retransmission answering a partial
    /// ACK departs without collapsing the congestion window to one
    /// segment (RFC 6582 §3.2).
    NewRenoPartialAck,
    /// A sender never retransmits sequence space the peer has already
    /// reported received in a SACK block (RFC 2018 §8: data covered by
    /// a SACK need not be retransmitted before the scoreboard clears).
    SackRexmitSacked,
    /// Under CUBIC, bytes in flight stay bounded by the cubic window
    /// function of time since the last congestion event (RFC 8312 §4.1),
    /// with slack for the in-flight measurement granularity.
    CubicGrowthBound,
}

impl InvariantKind {
    /// Every invariant, for enumeration in reports and tests.
    pub const ALL: [InvariantKind; 34] = [
        InvariantKind::SynFirst,
        InvariantKind::HandshakeOrdering,
        InvariantKind::SynAckAcksIss,
        InvariantKind::SeqContiguous,
        InvariantKind::AckMonotonic,
        InvariantKind::AckNoUnsentData,
        InvariantKind::MssRespect,
        InvariantKind::WindowRespect,
        InvariantKind::WindowEdgeNoShrink,
        InvariantKind::CwndRespect,
        InvariantKind::DelayedAckDeadline,
        InvariantKind::DelayedAckForce,
        InvariantKind::NagleHold,
        InvariantKind::DataAfterFin,
        InvariantKind::FinSeqStable,
        InvariantKind::RstWithPayload,
        InvariantKind::RstNotFirst,
        InvariantKind::SilenceAfterRstSent,
        InvariantKind::SilenceAfterRstRecvd,
        InvariantKind::RexmitJustified,
        InvariantKind::HttpRequestParse,
        InvariantKind::HttpResponseParse,
        InvariantKind::ResponseBeforeRequest,
        InvariantKind::PipelineOrder,
        InvariantKind::StreamLeftover,
        InvariantKind::ConnectionCloseRespected,
        InvariantKind::MuxFrameParse,
        InvariantKind::MuxStreamIdMonotonic,
        InvariantKind::MuxWindowNonNegative,
        InvariantKind::MuxDataAfterEndStream,
        InvariantKind::MuxPushPromiseInvalid,
        InvariantKind::NewRenoPartialAck,
        InvariantKind::SackRexmitSacked,
        InvariantKind::CubicGrowthBound,
    ];

    /// Short stable identifier for reports.
    pub fn label(self) -> &'static str {
        match self {
            InvariantKind::SynFirst => "syn-first",
            InvariantKind::HandshakeOrdering => "handshake-ordering",
            InvariantKind::SynAckAcksIss => "synack-acks-iss",
            InvariantKind::SeqContiguous => "seq-contiguous",
            InvariantKind::AckMonotonic => "ack-monotonic",
            InvariantKind::AckNoUnsentData => "ack-no-unsent-data",
            InvariantKind::MssRespect => "mss-respect",
            InvariantKind::WindowRespect => "window-respect",
            InvariantKind::WindowEdgeNoShrink => "window-edge-no-shrink",
            InvariantKind::CwndRespect => "cwnd-respect",
            InvariantKind::DelayedAckDeadline => "delayed-ack-deadline",
            InvariantKind::DelayedAckForce => "delayed-ack-force",
            InvariantKind::NagleHold => "nagle-hold",
            InvariantKind::DataAfterFin => "data-after-fin",
            InvariantKind::FinSeqStable => "fin-seq-stable",
            InvariantKind::RstWithPayload => "rst-with-payload",
            InvariantKind::RstNotFirst => "rst-not-first",
            InvariantKind::SilenceAfterRstSent => "silence-after-rst-sent",
            InvariantKind::SilenceAfterRstRecvd => "silence-after-rst-recvd",
            InvariantKind::RexmitJustified => "rexmit-justified",
            InvariantKind::HttpRequestParse => "http-request-parse",
            InvariantKind::HttpResponseParse => "http-response-parse",
            InvariantKind::ResponseBeforeRequest => "response-before-request",
            InvariantKind::PipelineOrder => "pipeline-order",
            InvariantKind::StreamLeftover => "stream-leftover",
            InvariantKind::ConnectionCloseRespected => "connection-close-respected",
            InvariantKind::MuxFrameParse => "mux-frame-parse",
            InvariantKind::MuxStreamIdMonotonic => "mux-stream-id-monotonic",
            InvariantKind::MuxWindowNonNegative => "mux-window-non-negative",
            InvariantKind::MuxDataAfterEndStream => "mux-data-after-end-stream",
            InvariantKind::MuxPushPromiseInvalid => "mux-push-promise-invalid",
            InvariantKind::NewRenoPartialAck => "newreno-partial-ack",
            InvariantKind::SackRexmitSacked => "sack-rexmit-sacked",
            InvariantKind::CubicGrowthBound => "cubic-growth-bound",
        }
    }
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One invariant violation found in a trace.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant was broken.
    pub kind: InvariantKind,
    /// The connection's endpoint pair (lower address first).
    pub conn: (SockAddr, SockAddr),
    /// Simulated time of the offending event.
    pub at: SimTime,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {}<->{}: {}",
            self.kind, self.at, self.conn.0, self.conn.1, self.detail
        )
    }
}

/// What the checker needs to know about the configuration a trace was
/// produced under.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// TCP parameters both hosts ran with (MSS, delayed-ACK timeout,
    /// minimum RTO, initial cwnd).
    pub tcp: TcpConfig,
    /// Whether the client side set TCP_NODELAY (disables the Nagle
    /// check for its segments).
    pub client_nodelay: bool,
    /// Whether the server side set TCP_NODELAY.
    pub server_nodelay: bool,
    /// The server's listening port: identifies the server side of each
    /// connection and the direction of the HTTP streams.
    pub server_port: u16,
    /// Run the HTTP-level checks (parse/reassemble every stream).
    pub http: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            tcp: TcpConfig::default(),
            client_nodelay: true,
            server_nodelay: true,
            server_port: 80,
            http: true,
        }
    }
}

/// The outcome of checking one trace (or, merged, many traces).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every violation found, in deterministic (connection, time) order.
    pub violations: Vec<Violation>,
    /// Connections examined.
    pub connections: usize,
    /// Unique segment emissions examined (network duplicates folded).
    pub segments: usize,
    /// HTTP requests successfully parsed from the traces.
    pub http_requests: usize,
}

impl Report {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether a violation of `kind` is present.
    pub fn has(&self, kind: InvariantKind) -> bool {
        self.violations.iter().any(|v| v.kind == kind)
    }

    /// Fold another report into this one (for multi-cell sweeps).
    pub fn merge(&mut self, other: Report) {
        self.violations.extend(other.violations);
        self.connections += other.connections;
        self.segments += other.segments;
        self.http_requests += other.http_requests;
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{} connections, {} segments, {} http requests: {}",
            self.connections,
            self.segments,
            self.http_requests,
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} violations", self.violations.len())
            }
        )
    }
}
