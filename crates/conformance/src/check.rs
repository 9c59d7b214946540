//! The causal replay engine: groups a trace's captures by connection
//! through one sorted index, replays each connection's departures and
//! arrivals in time order, and checks the TCP invariants. HTTP-level
//! checks over the reassembled streams live in [`crate::http`].

use crate::{CheckConfig, InvariantKind, Report, Violation};
use bytes::{Bytes, BytesQueue};
use netsim::seq::Seq;
use netsim::{CcVariant, DropRecord, HostId, Records, Segment, SimTime, SockAddr};
use std::collections::BTreeMap;

/// A connection: its endpoint pair, lower address first.
type ConnKey = (SockAddr, SockAddr);

/// Check every connection in a trace against the full invariant set.
///
/// `records` are the arrival-ordered captures from
/// [`netsim::Trace::records`] (requires [`netsim::TraceMode::Full`]);
/// `drops` are the link-dropped packets from
/// [`netsim::Trace::drop_records`] — they still count as departures.
///
/// Nothing is copied out of the trace: both are read where they lie,
/// as [`Records`] views. One index of `(connection,
/// capture number)`, sorted, lists each connection's captures in trace
/// order, records before drops, and connections in key order. Each
/// connection is then replayed on its own, over scratch state the next
/// one reuses.
pub fn check_trace(
    records: Records<'_>,
    drops: Records<'_, DropRecord>,
    cfg: &CheckConfig,
) -> Report {
    let trace = Captures { records, drops };
    let captures = u32::try_from(records.len() + drops.len()).expect("at most u32::MAX captures");
    let mut index: Vec<(ConnKey, u32)> = (0..captures)
        .map(|n| (conn_key(trace.get(n).1), n))
        .collect();
    index.sort_unstable();

    let mut report = Report::default();
    let mut replay = Replay::new(cfg);
    let mut rest = &mut index[..];
    while let Some(&(key, _)) = rest.first() {
        let len = rest.iter().take_while(|&&(k, _)| k == key).count();
        let (run, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        report.connections += 1;
        replay.check_conn(trace, key, run, cfg, &mut report);
    }
    report
}

/// Normalized connection key: the endpoint pair, lower address first.
fn conn_key(seg: &Segment) -> ConnKey {
    if seg.src <= seg.dst {
        (seg.src, seg.dst)
    } else {
        (seg.dst, seg.src)
    }
}

/// A trace's captures, numbered: capture `n` is `records[n]`, or
/// `drops[n - records.len()]` past them.
#[derive(Clone, Copy)]
struct Captures<'a> {
    records: Records<'a>,
    drops: Records<'a, DropRecord>,
}

impl<'a> Captures<'a> {
    /// When capture `n` departed, the segment, and when it arrived
    /// (`None`: the link dropped it).
    fn get(self, n: u32) -> (SimTime, &'a Segment, Option<SimTime>) {
        let n = n as usize;
        match self.records.get(n) {
            Some(rec) => (rec.sent, &rec.segment, Some(rec.received)),
            None => {
                let d = self
                    .drops
                    .get(n - self.records.len())
                    .expect("a capture number");
                (d.at, &d.segment, None)
            }
        }
    }
}

/// Identity of one emission: (sent-nanos, src, seq, ack, flag bits,
/// payload length, window). Two captures matching on all of these are
/// network copies of the same packet.
type EmissionKey = (u64, SockAddr, u32, u32, u8, usize, usize);

fn emission_key(sent: SimTime, seg: &Segment) -> EmissionKey {
    let f = &seg.flags;
    let flagbits = (f.syn as u8)
        | (f.ack as u8) << 1
        | (f.fin as u8) << 2
        | (f.rst as u8) << 3
        | (f.psh as u8) << 4;
    (
        sent.as_nanos(),
        seg.src,
        seg.seq,
        seg.ack,
        flagbits,
        seg.payload.len(),
        seg.window,
    )
}

/// One connection's replay, and the scratch state every connection of a
/// trace reuses in turn: each is cleared, not freed, so a whole check
/// allocates what its largest connection needs.
struct Replay {
    /// The replay timeline.
    events: Vec<Event>,
    /// The two endpoints, lower address first.
    ends: [EndState; 2],
}

/// One endpoint's sequence space, read as [`Seq::offset`]s from the
/// sequence number of its first departure but a RST (its ISS): the replay
/// runs on these, so a connection starting near 2³² checks as one at 0.
#[derive(Clone, Copy, Default)]
struct Space {
    origin: Option<Seq>,
    near: u64,
}

impl Space {
    /// The offset of wire value `raw`.
    fn offset(&mut self, raw: u32) -> u64 {
        let origin = self.origin.unwrap_or(Seq::new(0));
        self.near = Seq::new(raw).offset(origin, self.near);
        self.near
    }
}

/// `seg`'s sequence number and end in its `sender`'s space, and its ack
/// (0 without the ACK flag) in the other.
fn offsets(seg: &Segment, spaces: &mut [Space; 2], sender: usize) -> (u64, u64, u64) {
    let ours = &mut spaces[sender];
    let (seq, end) = (ours.offset(seg.seq), ours.offset(seg.seq_end()));
    let ack = seg.flags.ack.then(|| spaces[1 - sender].offset(seg.ack));
    (seq, end, ack.unwrap_or(0))
}

impl Replay {
    fn new(cfg: &CheckConfig) -> Self {
        // Each end is reset to its connection's address before use.
        let unset = SockAddr::new(HostId(0), 0);
        Replay {
            events: Vec::new(),
            ends: [EndState::new(unset, cfg), EndState::new(unset, cfg)],
        }
    }

    /// Check connection `key`, whose captures are `run`.
    fn check_conn(
        &mut self,
        trace: Captures<'_>,
        key: ConnKey,
        run: &mut [(ConnKey, u32)],
        cfg: &CheckConfig,
        report: &mut Report,
    ) {
        let (packets, mut spaces) = self.load(trace, key, run, cfg);
        report.segments += packets;
        let Replay { events, ends } = self;
        // Arrivals before departures at equal instants; then by emission
        // order (seq, seq_space) so same-instant batches replay as the TCB
        // emitted them; packet last, so that only identical events (one
        // emission's copies arriving together) tie. Packets order as
        // their first copies were captured.
        events.sort_unstable_by_key(|e| {
            let p = match *e {
                Event::Arrive { pkt, .. } | Event::Depart { pkt, .. } => pkt,
            };
            let seg = trace.get(p).1;
            let origin = spaces[usize::from(seg.src != key.0)].origin;
            let seq = Seq::new(seg.seq).since(origin.unwrap_or(Seq::new(0)));
            (e.at(), e.rank(), seq, seg.seq_space(), p)
        });
        replay(key, trace, events, ends, &mut spaces, cfg, report);
    }

    /// Load connection `key` from its captures `run`, which this
    /// reorders: lay out its timeline, and reset both endpoints with
    /// room for what the replay will record. Network copies of one
    /// emission fold into one packet, named by the copy captured first:
    /// one departure, and an arrival per copy that arrived. Returns how
    /// many packets there are, and both endpoints' sequence spaces.
    fn load(
        &mut self,
        trace: Captures<'_>,
        key: ConnKey,
        run: &mut [(ConnKey, u32)],
        cfg: &CheckConfig,
    ) -> (usize, [Space; 2]) {
        // Copies of one emission sort together, first capture first.
        run.sort_unstable_by_key(|&(_, n)| {
            let (sent, seg, _) = trace.get(n);
            (emission_key(sent, seg), n)
        });
        self.events.clear();
        self.events.reserve_exact(2 * run.len());
        let mut spaces = [Space::default(); 2];
        let mut sizes = [Sizes::default(); 2];
        let mut packets = 0;
        let mut last: Option<(EmissionKey, u32)> = None;
        for &(_, n) in run.iter() {
            let (sent, seg, arrived) = trace.get(n);
            let emission = emission_key(sent, seg);
            let pkt = match last {
                Some((k, pkt)) if k == emission => pkt,
                _ => {
                    packets += 1;
                    last = Some((emission, n));
                    self.events.push(Event::Depart { at: sent, pkt: n });
                    let side = usize::from(seg.src != key.0);
                    sizes[side].departure(seg);
                    if !seg.flags.rst {
                        spaces[side].origin.get_or_insert(Seq::new(seg.seq));
                    }
                    n
                }
            };
            if let Some(at) = arrived {
                self.events.push(Event::Arrive { at, pkt });
                sizes[usize::from(seg.dst != key.0)].deliveries += usize::from(seg.has_payload());
            }
        }
        self.ends[0].reset(key.0, sizes[0], cfg);
        self.ends[1].reset(key.1, sizes[1], cfg);
        (packets, spaces)
    }
}

/// Bounds on how many entries one endpoint's per-packet records take
/// over a connection, counted as it is loaded, so that each is sized
/// once.
#[derive(Clone, Copy, Default)]
struct Sizes {
    txs: usize,
    fresh_sent: usize,
    ack_departures: usize,
    deliveries: usize,
}

impl Sizes {
    fn departure(&mut self, seg: &Segment) {
        self.txs += usize::from(seg.seq_space() > 0);
        self.fresh_sent += usize::from(seg.has_payload());
        self.ack_departures += usize::from(seg.flags.ack);
    }
}

/// The replay timeline: arrivals are processed before departures at the
/// same instant, matching the TCB (a segment arriving at `t` is handled
/// before anything the TCB emits at `t`). A packet is named by the
/// capture number of its first copy.
#[derive(Clone, Copy)]
enum Event {
    Arrive { at: SimTime, pkt: u32 },
    Depart { at: SimTime, pkt: u32 },
}

impl Event {
    fn at(&self) -> SimTime {
        match *self {
            Event::Arrive { at, .. } | Event::Depart { at, .. } => at,
        }
    }
    fn rank(&self) -> u8 {
        match self {
            Event::Arrive { .. } => 0,
            Event::Depart { .. } => 1,
        }
    }
}

/// Everything the replay tracks about one endpoint (one direction's
/// sender, the opposite direction's receiver).
struct EndState {
    addr: SockAddr,
    /// --- sender-side ---
    departed_any: bool,
    snd_max: u64,
    /// First FIN's sequence end (the FIN octet is `fin_end - 1`).
    fin_end: Option<u64>,
    sent_rst: bool,
    rst_arrived: Option<SimTime>,
    last_ack_departed: u64,
    last_edge_departed: u64,
    last_syn_tx: Option<SimTime>,
    syn_arrived_since_syn_tx: bool,
    /// Data-bearing transmissions `(start, end, at, payload_len)` in
    /// emission order, for retransmission justification.
    txs: Vec<(u64, u64, SimTime, usize)>,
    /// Fresh payload first-emission ranges `(stream_start, stream_end,
    /// at)` in stream-offset space, for the HTTP timing checks.
    fresh_sent: Vec<(u64, u64, SimTime)>,
    /// ACK-bearing departures `(at, ack)`, for the delayed-ACK checks of
    /// the opposite direction.
    ack_departures: Vec<(SimTime, u64)>,
    /// --- info that has causally arrived here from the peer ---
    first_arrival: Option<SimTime>,
    arrived_seq_max: u64,
    arrived_syn_seq: Option<u64>,
    max_ack_arrived: u64,
    /// Upper bound on the peer-facing congestion window: initial cwnd
    /// plus one MSS per window-advancing ACK (slow start's growth rate;
    /// congestion avoidance grows slower, losses only shrink it).
    cwnd_cap: usize,
    max_right_edge: u64,
    last_arr_window: Option<usize>,
    dup_acks: u32,
    /// --- congestion-control recovery tracking ---
    /// Highest outstanding sequence when fast recovery last began
    /// (0 = not in recovery).
    recovery_high: u64,
    /// A partial ACK observed during fast recovery: `(hole start,
    /// when)`. Cleared by the retransmission that fills the hole.
    partial_ack_pending: Option<(u64, SimTime)>,
    /// Sender-facing SACK scoreboard: disjoint ascending ranges the peer
    /// reported received above the cumulative ACK.
    sacked: Vec<(u64, u64)>,
    /// Last congestion event observed at this sender: `(when, wmax
    /// estimate in bytes, CUBIC K in ms)`.
    cubic_epoch: Option<(SimTime, usize, u64)>,
    /// --- receiver-side stream reassembly ---
    rcv_nxt: Option<u64>,
    peer_fin_seq: Option<u64>,
    stash: BTreeMap<u64, Bytes>,
    /// The contiguous stream: views of the segments' own payloads.
    stream: BytesQueue,
    /// `(at, total stream bytes contiguous)` per advancing delivery.
    deliveries: Vec<(SimTime, u64)>,
}

impl EndState {
    fn new(addr: SockAddr, cfg: &CheckConfig) -> Self {
        EndState {
            addr,
            departed_any: false,
            snd_max: 0,
            fin_end: None,
            sent_rst: false,
            rst_arrived: None,
            last_ack_departed: 0,
            last_edge_departed: 0,
            last_syn_tx: None,
            syn_arrived_since_syn_tx: false,
            txs: Vec::new(),
            fresh_sent: Vec::new(),
            ack_departures: Vec::new(),
            first_arrival: None,
            arrived_seq_max: 0,
            arrived_syn_seq: None,
            max_ack_arrived: 0,
            cwnd_cap: cfg.tcp.initial_cwnd_segments as usize * cfg.tcp.mss,
            max_right_edge: 0,
            last_arr_window: None,
            dup_acks: 0,
            recovery_high: 0,
            partial_ack_pending: None,
            sacked: Vec::new(),
            cubic_epoch: None,
            rcv_nxt: None,
            peer_fin_seq: None,
            stash: BTreeMap::new(),
            stream: BytesQueue::new(),
            deliveries: Vec::new(),
        }
    }

    /// Start over as endpoint `addr` of the next connection, keeping the
    /// vectors' storage and making room for `sizes` entries.
    fn reset(&mut self, addr: SockAddr, sizes: Sizes, cfg: &CheckConfig) {
        fn sized<T>(mut v: Vec<T>, n: usize) -> Vec<T> {
            v.clear();
            v.reserve_exact(n);
            v
        }
        let old = std::mem::replace(self, EndState::new(addr, cfg));
        self.txs = sized(old.txs, sizes.txs);
        self.fresh_sent = sized(old.fresh_sent, sizes.fresh_sent);
        self.ack_departures = sized(old.ack_departures, sizes.ack_departures);
        self.deliveries = sized(old.deliveries, sizes.deliveries);
        self.sacked = sized(old.sacked, 0);
    }

    /// Receiver-side reassembly of the peer's byte stream: append what
    /// `seg`, at offset `seq` and arriving at `at`, makes contiguous, as
    /// views of the payloads themselves. Data ahead of a hole waits.
    fn reassemble(&mut self, at: SimTime, seq: u64, seg: &Segment) {
        let Some(mut nxt) = self.rcv_nxt else { return };
        if seg.payload.is_empty() {
            return;
        }
        let mut advanced = false;
        if seq <= nxt {
            let skip = (nxt - seq) as usize;
            if skip < seg.payload.len() {
                self.stream.push(seg.payload.slice(skip..));
                nxt += (seg.payload.len() - skip) as u64;
                advanced = true;
            }
        } else {
            self.stash.entry(seq).or_insert_with(|| seg.payload.clone());
        }
        // Drain any stashed out-of-order data that became contiguous.
        while let Some(first) = self.stash.first_entry() {
            if *first.key() > nxt {
                break;
            }
            let (s, mut data) = first.remove_entry();
            let skip = (nxt - s) as usize;
            if skip < data.len() {
                data.advance(skip);
                nxt += data.len() as u64;
                self.stream.push(data);
                advanced = true;
            }
        }
        self.rcv_nxt = Some(nxt);
        if advanced {
            self.deliveries.push((at, self.stream.len() as u64));
        }
    }

    fn nodelay(&self, cfg: &CheckConfig) -> bool {
        if self.addr.port == cfg.server_port {
            cfg.server_nodelay
        } else {
            cfg.client_nodelay
        }
    }
}

/// Insert `(start, end)` into a disjoint ascending range set, coalescing
/// overlapping or touching ranges.
fn merge_sacked(v: &mut Vec<(u64, u64)>, start: u64, end: u64) {
    if start >= end {
        return;
    }
    let mut new = (start, end);
    let mut i = 0;
    while i < v.len() {
        let (s, e) = v[i];
        if e < new.0 {
            i += 1;
            continue;
        }
        if s > new.1 {
            break;
        }
        new.0 = new.0.min(s);
        new.1 = new.1.max(e);
        v.remove(i);
    }
    v.insert(i, new);
}

/// The replay proper: walk `events` over the two endpoints' state,
/// checking each departure against what had causally reached its
/// sender, then the timer and HTTP checks over what the walk recorded.
fn replay(
    key: ConnKey,
    trace: Captures<'_>,
    events: &[Event],
    ends: &mut [EndState; 2],
    spaces: &mut [Space; 2],
    cfg: &CheckConfig,
    report: &mut Report,
) {
    let mut any_packet_seen = false;
    let mut first_rst: Option<SimTime> = None;
    let v = |report: &mut Report, kind, at, detail: String| {
        report.violations.push(Violation {
            kind,
            conn: key,
            at,
            detail,
        });
    };

    for ev in events {
        match *ev {
            Event::Arrive { at, pkt } => {
                let seg = trace.get(pkt).1;
                // The receiver is the endpoint the segment is addressed to.
                let side = usize::from(seg.dst != key.0);
                let e = &mut ends[side];
                if e.first_arrival.is_none() {
                    e.first_arrival = Some(at);
                }
                if seg.flags.rst {
                    if e.rst_arrived.is_none() {
                        e.rst_arrived = Some(at);
                    }
                    first_rst = Some(first_rst.map_or(at, |t| t.min(at)));
                    continue;
                }
                let (seq, end, ack) = offsets(seg, spaces, 1 - side);
                e.arrived_seq_max = e.arrived_seq_max.max(end);
                e.last_arr_window = Some(seg.window);
                if seg.flags.syn {
                    e.arrived_syn_seq = Some(seq);
                    e.syn_arrived_since_syn_tx = true;
                    e.rcv_nxt.get_or_insert(seq + 1);
                }
                if seg.flags.ack {
                    e.max_right_edge = e.max_right_edge.max(ack + seg.window as u64);
                    // Sender-facing SACK scoreboard: ranges the peer
                    // reports received need never be retransmitted.
                    for (s, end) in seg.sack.iter() {
                        let own = &mut spaces[side];
                        merge_sacked(&mut e.sacked, own.offset(s), own.offset(end));
                    }
                    if ack > e.max_ack_arrived {
                        e.max_ack_arrived = ack;
                        e.cwnd_cap += cfg.tcp.mss;
                        e.dup_acks = 0;
                        e.sacked.retain(|&(_, end)| end > ack);
                        if let Some(first) = e.sacked.first_mut() {
                            first.0 = first.0.max(ack);
                        }
                        // Fast-recovery bookkeeping (RFC 6582): an ACK
                        // covering everything outstanding at loss time
                        // ends recovery; anything less is a partial ACK
                        // whose hole must be filled promptly.
                        if e.recovery_high > 0 {
                            if ack >= e.recovery_high {
                                e.recovery_high = 0;
                                e.partial_ack_pending = None;
                            } else {
                                e.partial_ack_pending = Some((ack, at));
                            }
                        }
                    } else if ack == e.max_ack_arrived
                        && !seg.has_payload()
                        && !seg.flags.syn
                        && !seg.flags.fin
                        && e.snd_max > ack
                    {
                        e.dup_acks += 1;
                        // RFC 6582 window inflation: NewReno/SACK
                        // senders grow cwnd by one MSS per duplicate
                        // ACK once fast retransmit triggers, so the
                        // envelope must credit the same allowance.
                        if matches!(cfg.tcp.cc, CcVariant::NewReno | CcVariant::Sack)
                            && e.dup_acks >= 3
                        {
                            e.cwnd_cap += if e.dup_acks == 3 {
                                3 * cfg.tcp.mss
                            } else {
                                cfg.tcp.mss
                            };
                        }
                    }
                }
                if seg.flags.fin {
                    e.peer_fin_seq = Some(end - 1);
                }
                e.reassemble(at, seq, seg);
            }
            Event::Depart { at, pkt } => {
                let seg = trace.get(pkt).1;
                let side = usize::from(seg.src != key.0);
                let mss = cfg.tcp.mss;

                // RST semantics first: an RST is exempt from the
                // sequence/ack discipline (a kernel reply echoes the
                // stray segment's ack as its seq).
                if seg.flags.rst {
                    first_rst = Some(first_rst.map_or(at, |t| t.min(at)));
                    if seg.has_payload() || seg.flags.syn || seg.flags.fin {
                        v(
                            report,
                            InvariantKind::RstWithPayload,
                            at,
                            format!("RST carries payload/SYN/FIN: {seg}"),
                        );
                    }
                    if !any_packet_seen {
                        v(
                            report,
                            InvariantKind::RstNotFirst,
                            at,
                            "RST is the first segment of the connection".into(),
                        );
                    }
                    let e = &mut ends[side];
                    if let Some(t) = e.rst_arrived {
                        if at > t {
                            v(
                                report,
                                InvariantKind::SilenceAfterRstRecvd,
                                at,
                                format!("RST sent after an RST arrived at {t}"),
                            );
                        }
                    }
                    e.sent_rst = true;
                    e.departed_any = true;
                    any_packet_seen = true;
                    continue;
                }

                let (seq, end, ack) = offsets(seg, spaces, side);
                // Immutable cross-side reads before borrowing mutably.
                let e = &ends[side];
                if !e.departed_any && !seg.flags.syn {
                    v(
                        report,
                        InvariantKind::SynFirst,
                        at,
                        format!("first segment lacks SYN: {seg}"),
                    );
                }
                if e.sent_rst {
                    v(
                        report,
                        InvariantKind::SilenceAfterRstSent,
                        at,
                        format!("segment after this endpoint sent RST: {seg}"),
                    );
                }
                if let Some(t) = e.rst_arrived {
                    if at > t {
                        v(
                            report,
                            InvariantKind::SilenceAfterRstRecvd,
                            at,
                            format!("segment sent after an RST arrived at {t}: {seg}"),
                        );
                    }
                }
                if seg.flags.ack {
                    if e.first_arrival.is_none() {
                        v(
                            report,
                            InvariantKind::HandshakeOrdering,
                            at,
                            format!("ACK-bearing segment before anything arrived: {seg}"),
                        );
                    }
                    if ack > e.arrived_seq_max {
                        v(
                            report,
                            InvariantKind::AckNoUnsentData,
                            at,
                            format!(
                                "ack {} exceeds causally delivered sequence end {}",
                                ack, e.arrived_seq_max
                            ),
                        );
                    }
                    if ack < e.last_ack_departed {
                        v(
                            report,
                            InvariantKind::AckMonotonic,
                            at,
                            format!("ack {ack} after ack {}", e.last_ack_departed),
                        );
                    }
                    let edge = ack + seg.window as u64;
                    if edge < e.last_edge_departed {
                        v(
                            report,
                            InvariantKind::WindowEdgeNoShrink,
                            at,
                            format!(
                                "advertised right edge shrank {} -> {edge}",
                                e.last_edge_departed
                            ),
                        );
                    }
                    if seg.flags.syn {
                        // SYN-ACK: must acknowledge the peer's ISS + 1.
                        match e.arrived_syn_seq {
                            Some(iss) if ack == iss + 1 => {}
                            Some(iss) => v(
                                report,
                                InvariantKind::SynAckAcksIss,
                                at,
                                format!("SYN-ACK acks {ack} (peer ISS {iss})"),
                            ),
                            None => v(
                                report,
                                InvariantKind::HandshakeOrdering,
                                at,
                                "SYN-ACK before any SYN arrived".into(),
                            ),
                        }
                    }
                }
                if seg.payload.len() > mss {
                    v(
                        report,
                        InvariantKind::MssRespect,
                        at,
                        format!("payload {} exceeds MSS {mss}", seg.payload.len()),
                    );
                }

                if seg.seq_space() > 0 {
                    let fresh = seq >= e.snd_max;
                    let is_probe = seg.payload.len() == 1 && e.last_arr_window == Some(0);
                    // A segment may re-cover old space or extend it, but
                    // never *start* beyond snd_max (sequence gap).
                    if seq > e.snd_max {
                        v(
                            report,
                            InvariantKind::SeqContiguous,
                            at,
                            format!("seq {seq} leaves a gap above snd_max {}", e.snd_max),
                        );
                    }
                    if let Some(fin_end) = e.fin_end {
                        if end > fin_end {
                            v(
                                report,
                                InvariantKind::DataAfterFin,
                                at,
                                format!("sequence space {}..{} beyond FIN end {fin_end}", seq, end),
                            );
                        }
                        if seg.flags.fin && end != fin_end {
                            v(
                                report,
                                InvariantKind::FinSeqStable,
                                at,
                                format!("FIN moved from {fin_end} to {end}"),
                            );
                        }
                    }
                    if !seg.payload.is_empty() && !is_probe {
                        let payload_end = seq + seg.payload.len() as u64;
                        if payload_end > e.max_right_edge && e.max_right_edge > 0 {
                            v(
                                report,
                                InvariantKind::WindowRespect,
                                at,
                                format!(
                                    "payload end {payload_end} beyond advertised right edge {}",
                                    e.max_right_edge
                                ),
                            );
                        }
                    }
                    if end > e.snd_max {
                        // Extending flight: check the congestion bound.
                        // +2 covers the SYN/FIN sequence units which are
                        // not payload subject to cwnd.
                        let in_flight = (end - e.max_ack_arrived) as usize;
                        if in_flight > e.cwnd_cap + 2 {
                            v(
                                report,
                                InvariantKind::CwndRespect,
                                at,
                                format!(
                                    "{in_flight} bytes in flight exceeds cwnd bound {}",
                                    e.cwnd_cap
                                ),
                            );
                        }
                        // Under CUBIC, flight past a congestion event is
                        // additionally bounded by the cubic window of
                        // elapsed time (RFC 8312 §4.1). Slack of 4 MSS
                        // covers slow-start overshoot and the SYN/FIN
                        // sequence units.
                        if cfg.tcp.cc == CcVariant::Cubic {
                            if let Some((t0, wmax, k_ms)) = e.cubic_epoch {
                                let elapsed_ms = at.since(t0).as_nanos() / 1_000_000;
                                let bound =
                                    netsim::cubic_window(wmax, mss, elapsed_ms, k_ms) + 4 * mss;
                                if in_flight > bound {
                                    v(
                                        report,
                                        InvariantKind::CubicGrowthBound,
                                        at,
                                        format!(
                                            "{in_flight} bytes in flight exceeds cubic bound \
                                             {bound} ({elapsed_ms}ms after loss, wmax {wmax})",
                                        ),
                                    );
                                }
                            }
                        }
                    }
                    // Nagle: a *fresh* sub-MSS data segment may not depart
                    // while earlier data is unacknowledged (FIN-bearing
                    // segments and zero-window probes are exempt).
                    if fresh
                        && !seg.payload.is_empty()
                        && seg.payload.len() < mss
                        && !seg.flags.fin
                        && !seg.flags.syn
                        && !e.nodelay(cfg)
                        && !is_probe
                        && e.snd_max > e.max_ack_arrived
                    {
                        v(
                            report,
                            InvariantKind::NagleHold,
                            at,
                            format!(
                                "fresh {}-byte segment with {} bytes in flight under Nagle",
                                seg.payload.len(),
                                e.snd_max - e.max_ack_arrived
                            ),
                        );
                    }
                    // Retransmission justification for re-covered space.
                    if !fresh {
                        // A NewReno/SACK sender fills the hole a partial
                        // ACK exposed without waiting for timeout or
                        // fresh duplicate ACKs (RFC 6582 §3.2).
                        let cc_partial = matches!(cfg.tcp.cc, CcVariant::NewReno | CcVariant::Sack);
                        let partial_answer = cc_partial
                            && e.partial_ack_pending.is_some_and(|(hole, _)| hole == seq);
                        if let Some((hole, t_set)) = e.partial_ack_pending {
                            if cc_partial && hole == seq && at.since(t_set) >= cfg.tcp.min_rto {
                                v(
                                    report,
                                    InvariantKind::NewRenoPartialAck,
                                    at,
                                    format!(
                                        "partial ACK {hole} answered only {} later — the \
                                         sender fell back to timeout slow start instead of \
                                         filling the hole in recovery",
                                        at.since(t_set)
                                    ),
                                );
                            }
                        }
                        // Never retransmit sequence space the peer has
                        // already reported received in a SACK block
                        // (RFC 2018 §8).
                        if !seg.payload.is_empty() && !is_probe {
                            let p_end = seq + seg.payload.len() as u64;
                            if let Some(&(bs, be)) = e
                                .sacked
                                .iter()
                                .find(|&&(bs, be)| bs.max(seq) < be.min(p_end))
                            {
                                v(
                                    report,
                                    InvariantKind::SackRexmitSacked,
                                    at,
                                    format!(
                                        "retransmission {}..{p_end} overlaps SACKed range \
                                         {bs}..{be}",
                                        seq
                                    ),
                                );
                            }
                        }
                        let octet = seq;
                        let last_tx = e
                            .txs
                            .iter()
                            .rev()
                            .find(|&&(s, end, _, _)| s <= octet && octet < end);
                        if let Some(&(_, _, last_at, last_len)) = last_tx {
                            let waited = at.since(last_at) >= cfg.tcp.min_rto;
                            let fast = e.dup_acks >= 3;
                            let probe_recover = last_len == 1;
                            let syn_answer = seg.flags.syn && e.syn_arrived_since_syn_tx;
                            if !(waited
                                || fast
                                || probe_recover
                                || is_probe
                                || syn_answer
                                || partial_answer)
                            {
                                v(
                                    report,
                                    InvariantKind::RexmitJustified,
                                    at,
                                    format!(
                                        "seq {} re-sent {} after previous copy with {} dup-acks",
                                        seq,
                                        at.since(last_at),
                                        e.dup_acks
                                    ),
                                );
                            }
                        }
                    }
                }

                // State updates after the checks.
                let prev_snd_max = ends[side].snd_max;
                let e = &mut ends[side];
                e.departed_any = true;
                any_packet_seen = true;
                if seg.flags.syn {
                    e.last_syn_tx = Some(at);
                    e.syn_arrived_since_syn_tx = false;
                }
                if seg.flags.ack {
                    e.last_ack_departed = ack;
                    e.last_edge_departed = e.last_edge_departed.max(ack + seg.window as u64);
                    e.ack_departures.push((at, ack));
                }
                if seg.seq_space() > 0 {
                    // Congestion-recovery bookkeeping. A data
                    // retransmission is either RTO-style (a full
                    // min_rto elapsed since the previous copy — closes
                    // any fast recovery, RFC 6582 §3.2 step 1) or a
                    // fast/partial-ACK retransmit (opens recovery under
                    // >= 3 duplicate ACKs, clears the pending hole).
                    // Either way it is a congestion event for the CUBIC
                    // bound. Zero-window probes are exempt.
                    let is_probe = seg.payload.len() == 1 && e.last_arr_window == Some(0);
                    if seq < prev_snd_max && !seg.payload.is_empty() && !is_probe {
                        let rto_style = e
                            .txs
                            .iter()
                            .rev()
                            .find(|&&(s, end, _, _)| s <= seq && seq < end)
                            .is_some_and(|&(_, _, last_at, _)| {
                                at.since(last_at) >= cfg.tcp.min_rto
                            });
                        if rto_style {
                            e.recovery_high = 0;
                            e.partial_ack_pending = None;
                        } else {
                            if e.dup_acks >= 3 && e.recovery_high == 0 {
                                e.recovery_high = prev_snd_max;
                            }
                            if e.partial_ack_pending.is_some_and(|(hole, _)| hole == seq) {
                                e.partial_ack_pending = None;
                            }
                        }
                        let wmax = ((prev_snd_max - e.max_ack_arrived) as usize).max(2 * mss);
                        e.cubic_epoch = Some((at, wmax, netsim::cubic_k_ms(wmax, mss)));
                    }
                    e.txs.push((seq, end, at, seg.payload.len()));
                    if !seg.payload.is_empty() {
                        // Fresh payload range in stream offsets (data
                        // stream starts one past the SYN octet).
                        let payload_end = seq + seg.payload.len() as u64;
                        let fresh_from = seq.max(prev_snd_max.max(1));
                        if fresh_from < payload_end && fresh_from >= 1 {
                            e.fresh_sent.push((fresh_from - 1, payload_end - 1, at));
                        }
                    }
                    if seg.flags.fin && e.fin_end.is_none() {
                        e.fin_end = Some(end);
                    }
                    e.snd_max = e.snd_max.max(end);
                }
            }
        }
    }

    // Delayed-ACK checks: every advancing delivery at an endpoint must be
    // covered by an ACK departing within the delayed-ACK timeout, and no
    // three deliveries may pass without *any* ACK departing. Connections
    // that end in an RST are only held to deadlines that expired before
    // the reset.
    for recv in ends.iter() {
        let iss_off = recv.rcv_nxt.map(|_| 1u64).unwrap_or(0);
        let deadline_cap = cfg.tcp.delayed_ack;
        for &(t, covered) in &recv.deliveries {
            let deadline = t + deadline_cap;
            if let Some(rst) = first_rst {
                if deadline >= rst {
                    continue;
                }
            }
            let need_ack = covered + iss_off; // stream bytes -> seq space
            let acked_in_time = recv
                .ack_departures
                .iter()
                .any(|&(s, a)| a >= need_ack && s <= deadline);
            if !acked_in_time {
                v(
                    report,
                    InvariantKind::DelayedAckDeadline,
                    t,
                    format!(
                        "data delivered at {t} not acknowledged to {need_ack} within {}",
                        deadline_cap
                    ),
                );
            }
        }
        for w in recv.deliveries.windows(3) {
            let (t1, t3) = (w[0].0, w[2].0);
            if let Some(rst) = first_rst {
                if t3 >= rst {
                    continue;
                }
            }
            let any_ack = recv.ack_departures.iter().any(|&(s, _)| s >= t1 && s <= t3);
            if !any_ack {
                v(
                    report,
                    InvariantKind::DelayedAckForce,
                    t3,
                    format!("three data deliveries {t1}..{t3} without an ACK departing"),
                );
            }
        }
    }

    if cfg.http {
        check_streams(key, ends, first_rst, cfg, report);
    }
}

/// The HTTP-level checks over the two reassembled streams.
fn check_streams(
    key: ConnKey,
    ends: &[EndState; 2],
    first_rst: Option<SimTime>,
    cfg: &CheckConfig,
    report: &mut Report,
) {
    let Some((req, resp)) = http_sides(key, ends, cfg.server_port) else {
        return;
    };
    // A multiplexed connection announces itself with the httpmux
    // preface; everything else is judged as HTTP/1.x.
    let preface = httpmux::PREFACE.len();
    if req.stream.len() >= preface && req.stream.with_prefix(preface, httpmux::preface_candidate) {
        crate::mux::check_mux(key, req, resp, first_rst, report);
    } else {
        crate::http::check_http(key, req, resp, first_rst, report);
    }
}

/// One HTTP direction as the checker sees it: the reassembled byte
/// stream, when each prefix became contiguous at the receiver, and when
/// each byte first departed the sender.
pub(crate) struct HttpSide<'a> {
    /// The stream, as views of the segments that carried it.
    pub stream: &'a BytesQueue,
    /// `(at, contiguous stream bytes)` per advancing delivery at the
    /// receiver, in time order.
    pub deliveries: &'a [(SimTime, u64)],
    /// `(stream_start, stream_end, at)` first-emission ranges at the
    /// sender, in increasing offset order.
    pub fresh_sent: &'a [(u64, u64, SimTime)],
    /// Whether the sender half-closed this direction with a FIN.
    pub fin_seen: bool,
}

impl<'a> HttpSide<'a> {
    /// The stream, to hand to a parser a chunk at a time.
    pub fn feed(&self) -> Feed<impl Iterator<Item = &'a Bytes>> {
        Feed {
            chunks: self.stream.chunks(),
            fed: 0,
        }
    }

    /// When the byte at `off` became contiguous at the receiver.
    pub fn covered_at(&self, off: u64) -> Option<SimTime> {
        self.deliveries
            .iter()
            .find(|&&(_, covered)| covered > off)
            .map(|&(t, _)| t)
    }

    /// When the byte at `off` first departed the sender.
    pub fn first_sent_at(&self, off: u64) -> Option<SimTime> {
        self.fresh_sent
            .iter()
            .find(|&&(s, e, _)| s <= off && off < e)
            .map(|&(_, _, t)| t)
    }
}

/// A stream handed to a parser one chunk at a time, each when the parser
/// has run out, so that the parser holds no more than the message it is
/// on.
pub(crate) struct Feed<I> {
    chunks: I,
    /// Stream bytes handed over so far: a message that leaves `n` bytes
    /// buffered ends at offset `fed - n`.
    pub fed: u64,
}

impl<'a, I: Iterator<Item = &'a Bytes>> Feed<I> {
    /// Hand the next chunk, by reference, to `push`; false once the
    /// stream is spent.
    pub fn more(&mut self, push: impl FnOnce(Bytes)) -> bool {
        let Some(chunk) = self.chunks.next() else {
            return false;
        };
        self.fed += chunk.len() as u64;
        push(chunk.clone());
        true
    }
}

fn http_sides<'a>(
    key: ConnKey,
    ends: &'a [EndState; 2],
    server_port: u16,
) -> Option<(HttpSide<'a>, HttpSide<'a>)> {
    // Identify the server endpoint by port; the request stream is what
    // the *server side* reassembled, the response stream is what the
    // client side reassembled.
    let server_side = if key.0.port == server_port {
        0
    } else if key.1.port == server_port {
        1
    } else {
        return None;
    };
    let client_side = 1 - server_side;
    let req = HttpSide {
        stream: &ends[server_side].stream,
        deliveries: &ends[server_side].deliveries,
        fresh_sent: &ends[client_side].fresh_sent,
        fin_seen: ends[client_side].fin_end.is_some(),
    };
    let resp = HttpSide {
        stream: &ends[client_side].stream,
        deliveries: &ends[client_side].deliveries,
        fresh_sent: &ends[server_side].fresh_sent,
        fin_seen: ends[server_side].fin_end.is_some(),
    };
    Some((req, resp))
}

#[cfg(test)]
mod tests {
    //! Reassembly holds views of the segments' own payloads. Each case
    //! checks that it yields exactly the bytes a reassembly copying every
    //! payload into one vector yields, and the last two that the parsers
    //! read a stream across the chunk edges views leave.

    use super::*;
    use httpmux::{Frame, FramePayload, FLAG_END_STREAM, PREFACE};
    use httpwire::HeaderMap;
    use netsim::{SackBlocks, TcpFlags};

    const DATA: &[u8] = b"0123456789abcdefghij";

    fn client() -> SockAddr {
        SockAddr::new(HostId(0), 1000)
    }

    fn server() -> SockAddr {
        SockAddr::new(HostId(1), 80)
    }

    /// A segment carrying `payload`; reassembly reads its offset apart.
    fn segment(src: SockAddr, dst: SockAddr, payload: Bytes) -> Segment {
        Segment {
            src,
            dst,
            seq: 0,
            ack: 1,
            flags: TcpFlags::ACK,
            window: 65_535,
            sack: SackBlocks::NONE,
            payload,
        }
    }

    /// The stream the same arrivals make when every payload is copied
    /// into one vector, as reassembly once did.
    fn copied(arrivals: &[(u64, Bytes)]) -> Vec<u8> {
        let mut stream = Vec::new();
        let mut stash: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut nxt = 1;
        for (seq, payload) in arrivals {
            if *seq <= nxt {
                let skip = (nxt - seq) as usize;
                if skip < payload.len() {
                    stream.extend_from_slice(&payload[skip..]);
                    nxt += (payload.len() - skip) as u64;
                }
            } else {
                stash.entry(*seq).or_insert_with(|| payload.to_vec());
            }
            while let Some((&s, _)) = stash.first_key_value() {
                if s > nxt {
                    break;
                }
                let (s, data) = stash.pop_first().expect("non-empty stash");
                let skip = (nxt - s) as usize;
                if skip < data.len() {
                    stream.extend_from_slice(&data[skip..]);
                    nxt += (data.len() - skip) as u64;
                }
            }
        }
        stream
    }

    /// Endpoint `to`, past a handshake in which the peer's ISS was 0,
    /// after `arrivals` (sequence number, payload) from `from`, checked
    /// against the copying reassembly and against `expected`.
    #[track_caller]
    fn reassembled(
        from: SockAddr,
        to: SockAddr,
        arrivals: &[(u64, Bytes)],
        expected: &[u8],
    ) -> EndState {
        let mut end = EndState::new(to, &CheckConfig::default());
        end.rcv_nxt = Some(1);
        for (at, (seq, payload)) in arrivals.iter().enumerate() {
            let seg = segment(from, to, payload.clone());
            end.reassemble(SimTime::from_nanos(at as u64), *seq, &seg);
        }
        assert_eq!(end.stream.to_vec(), copied(arrivals));
        assert_eq!(end.stream.to_vec(), expected);
        end
    }

    fn data(range: std::ops::Range<usize>) -> Bytes {
        Bytes::copy_from_slice(&DATA[range])
    }

    #[test]
    fn an_overlapping_retransmission_adds_only_its_new_bytes() {
        let arrivals = [(1, data(0..10)), (6, data(5..15)), (16, data(15..20))];
        let end = reassembled(server(), client(), &arrivals, DATA);
        assert_eq!(end.deliveries.len(), 3);
        assert_eq!(end.rcv_nxt, Some(21));
    }

    #[test]
    fn stashed_data_drains_across_a_partial_overlap() {
        // 11..21 arrives ahead of the hole; 1..16 fills it and overlaps
        // the stashed segment's first five bytes.
        let arrivals = [(11, data(10..20)), (1, data(0..15))];
        let end = reassembled(server(), client(), &arrivals, DATA);
        assert!(end.stash.is_empty());
        assert_eq!(end.deliveries.len(), 1, "one arrival advanced the stream");
    }

    #[test]
    fn a_network_duplicate_adds_nothing() {
        let first = data(0..10);
        let arrivals = [(1, first.clone()), (1, first), (11, data(10..20))];
        let end = reassembled(server(), client(), &arrivals, DATA);
        assert_eq!(end.deliveries.len(), 2, "the duplicate did not advance");
    }

    /// Both endpoints of a connection whose client sent `request` and
    /// whose server sent `response`, each as the given segments, both
    /// directions closed cleanly.
    fn connection(request: &[Bytes], response: &[Bytes]) -> [EndState; 2] {
        // Segments in order from sequence number 1, and their bytes.
        let in_order = |segments: &[Bytes]| {
            let mut seq = 1;
            let arrivals: Vec<(u64, Bytes)> = segments
                .iter()
                .map(|payload| {
                    seq += payload.len() as u64;
                    (seq - payload.len() as u64, payload.clone())
                })
                .collect();
            let bytes: Vec<&[u8]> = segments.iter().map(|b| &b[..]).collect();
            (arrivals, bytes.concat(), seq)
        };
        let (req, req_bytes, req_fin) = in_order(request);
        let (resp, resp_bytes, resp_fin) = in_order(response);
        let mut ends = [
            reassembled(server(), client(), &resp, &resp_bytes),
            reassembled(client(), server(), &req, &req_bytes),
        ];
        ends[0].fin_end = Some(req_fin + 1);
        ends[1].fin_end = Some(resp_fin + 1);
        ends
    }

    fn check(ends: &[EndState; 2]) -> Report {
        let mut report = Report::default();
        check_streams(
            (client(), server()),
            ends,
            None,
            &CheckConfig::default(),
            &mut report,
        );
        report
    }

    #[test]
    fn a_response_parses_across_a_chunk_edge_inside_its_body() {
        // The first segment gathers the head and the body's first four
        // bytes; the second is a view of the stored entity, so the
        // response stream is two chunks and the edge falls mid-body.
        let head = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n";
        let entity = Bytes::copy_from_slice(&DATA[..10]);
        let first = Bytes::from([&head[..], &entity[..4]].concat());
        let request = Bytes::copy_from_slice(b"GET / HTTP/1.1\r\nHost: example.org\r\n\r\n");
        let ends = connection(&[request], &[first, entity.slice(4..)]);
        assert_eq!(ends[0].stream.chunks().count(), 2);
        let report = check(&ends);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.http_requests, 1);
    }

    #[test]
    fn a_mux_preface_split_across_segments_is_recognised() {
        let mut fields = HeaderMap::new();
        fields.append(":method", "GET");
        fields.append(":path", "/");
        let headers = Frame {
            stream: 1,
            flags: FLAG_END_STREAM,
            payload: FramePayload::Headers(fields),
        };
        let request = [
            Bytes::copy_from_slice(&PREFACE[..5]),
            Bytes::from([&PREFACE[5..], &headers.encode()[..]].concat()),
        ];
        let ends = connection(&request, &[]);
        assert_eq!(ends[1].stream.chunks().count(), 2);
        let report = check(&ends);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(
            report.http_requests, 1,
            "judged as mux, its HEADERS counted"
        );
    }
}
