//! Packet trace capture and the statistics the paper reports.
//!
//! Every packet that arrives (i.e. was not dropped) is recorded, mimicking a
//! `tcpdump` capture on a shared medium. The paper's tables report, per run:
//! packets client→server, packets server→client, total packets, total bytes
//! on the wire, elapsed seconds, and the percentage of bytes that are TCP/IP
//! header overhead — [`TraceStats`] computes all of these.
//!
//! Every packet is folded into per-host-pair [`TraceStats`] at arrival time,
//! whatever the [`TraceMode`], so [`Trace::stats`] is one O(1) lookup.
//! [`TraceMode::StatsOnly`] stores nothing else: no `Segment` clone, no
//! unbounded record vector — the memory cost is O(host pairs) instead of
//! O(packets), which is what the batch experiment matrix wants.
//! [`TraceMode::Full`] only *adds* retention: every packet is also kept as a
//! [`TraceRecord`] (required for [`Trace::dump`], [`Trace::xplot`] and
//! [`Trace::time_sequence`]).
//!
//! Retained records lie in blocks of [`RECORDS_PER_BLOCK`] that never
//! move (the first holds an eighth as many): a capture grows by one block
//! at a time and never copies what it holds. Readers get a [`Records`]
//! view of the blocks, read where they lie.

use crate::blocks::Blocks;
use crate::fxhash::FxHashMap;
use crate::impair::DropReason;
use crate::packet::{HostId, Segment, SockAddr, TCP_IP_HEADER_BYTES};
use crate::seq::Seq;
use crate::time::SimTime;
use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;
use std::ops::Index;

/// Records per block of a trace's retained captures; the first block
/// holds an eighth as many, so a short capture stays small.
pub const RECORDS_PER_BLOCK: usize = 256;

/// A capture's retained records or drops, in capture order: its blocks,
/// or any slice, borrowed where they lie.
pub struct Records<'a, T = TraceRecord> {
    /// The first block, or the whole slice.
    first: &'a [T],
    /// Every later block: each [`RECORDS_PER_BLOCK`] long but the last.
    rest: &'a [Vec<T>],
    len: usize,
}

impl<'a, T> Records<'a, T> {
    fn of(store: &'a Blocks<T, RECORDS_PER_BLOCK>) -> Self {
        let blocks = store.blocks();
        Records {
            first: blocks.first().map_or(&[], Vec::as_slice),
            rest: blocks.get(1..).unwrap_or(&[]),
            len: store.len(),
        }
    }

    /// Number of records.
    pub fn len(self) -> usize {
        self.len
    }

    /// True when there are none.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Record `i`, if there are more than `i`.
    pub fn get(self, i: usize) -> Option<&'a T> {
        match i.checked_sub(self.first.len()) {
            None => self.first.get(i),
            Some(j) => self
                .rest
                .get(j / RECORDS_PER_BLOCK)?
                .get(j % RECORDS_PER_BLOCK),
        }
    }

    /// The first record.
    pub fn first(self) -> Option<&'a T> {
        self.get(0)
    }

    /// The last record.
    pub fn last(self) -> Option<&'a T> {
        self.get(self.len.checked_sub(1)?)
    }

    /// Every record in capture order (and, with `.rev()`, backwards).
    pub fn iter(self) -> RecordsIter<'a, T> {
        self.first.iter().chain(self.rest.iter().flatten())
    }
}

/// The iterator of [`Records::iter`].
pub type RecordsIter<'a, T> =
    std::iter::Chain<std::slice::Iter<'a, T>, std::iter::Flatten<std::slice::Iter<'a, Vec<T>>>>;

// Manual impls: a view is a copy of three words whatever `T` is.
impl<T> Clone for Records<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Records<'_, T> {}

impl<T> Default for Records<'_, T> {
    fn default() -> Self {
        Records {
            first: &[],
            rest: &[],
            len: 0,
        }
    }
}

impl<'a, T, S: AsRef<[T]> + ?Sized> From<&'a S> for Records<'a, T> {
    fn from(records: &'a S) -> Self {
        let first = records.as_ref();
        Records {
            first,
            rest: &[],
            len: first.len(),
        }
    }
}

impl<T> Index<usize> for Records<'_, T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        match self.get(i) {
            Some(rec) => rec,
            None => panic!("record {i} of {}", self.len),
        }
    }
}

impl<'a, T> IntoIterator for Records<'a, T> {
    type Item = &'a T;
    type IntoIter = RecordsIter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// How much of each captured packet the trace retains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TraceMode {
    /// Also keep every packet as a [`TraceRecord`] (tcpdump-style capture).
    #[default]
    Full,
    /// Keep only the per-host-pair aggregate [`TraceStats`].
    StatsOnly,
}

/// One captured packet.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Time the packet was handed to the link (departure).
    pub sent: SimTime,
    /// Time the packet arrived at the receiving host.
    pub received: SimTime,
    /// The captured segment itself.
    pub segment: Segment,
    /// Bytes the packet occupied on the physical wire (after any link
    /// compression); equals `segment.wire_len()` on uncompressed links.
    pub physical_bytes: usize,
}

/// One packet the link refused to deliver (retained in
/// [`TraceMode::Full`] so dumps can show the loss pattern).
#[derive(Debug, Clone)]
pub struct DropRecord {
    /// Time the packet was submitted to the link.
    pub at: SimTime,
    /// The discarded segment.
    pub segment: Segment,
    /// Why the link dropped it.
    pub reason: DropReason,
}

/// Everything the trace keeps per host pair: the aggregates
/// [`Trace::stats`] returns, plus what detecting reorderings and
/// retransmissions online needs to remember between packets.
#[derive(Debug, Default)]
struct PairState {
    /// `packets_c2s` counts the low→high host direction.
    stats: TraceStats,
    /// Latest departure time seen per direction (index 1 = low→high
    /// host); an arrival whose departure precedes it was reordered.
    last_sent: [Option<SimTime>; 2],
    /// Latest sequence-space end seen per flow; a data segment starting
    /// before it re-covers already-sent octets: a retransmission.
    max_seq: FxHashMap<(SockAddr, SockAddr), Seq>,
}

/// A full capture of a simulation run.
#[derive(Debug, Default)]
pub struct Trace {
    mode: TraceMode,
    records: Blocks<TraceRecord, RECORDS_PER_BLOCK>,
    /// Online per-pair state, keyed by the (low, high) host pair.
    pairs: FxHashMap<(HostId, HostId), PairState>,
    /// Dropped packets, retained only in [`TraceMode::Full`].
    dropped: Blocks<DropRecord, RECORDS_PER_BLOCK>,
    /// Packets observed regardless of mode.
    observed: u64,
    /// Drops observed regardless of mode.
    drops: u64,
}

impl Trace {
    /// Create a new, empty instance in [`TraceMode::Full`].
    pub fn new() -> Self {
        Trace::default()
    }

    /// Create a new, empty instance in the given mode.
    pub fn with_mode(mode: TraceMode) -> Self {
        Trace {
            mode,
            ..Trace::default()
        }
    }

    /// The capture mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Switch capture mode. Only retention changes: packets observed from
    /// now on are (or are no longer) kept as records, while the statistics
    /// keep folding across the switch.
    pub fn set_mode(&mut self, mode: TraceMode) {
        self.mode = mode;
    }

    /// Observe one packet without taking ownership of it: fold it into the
    /// per-pair aggregates — the hot path the simulator uses — and, in
    /// [`TraceMode::Full`], clone the segment into a stored [`TraceRecord`].
    pub fn observe(
        &mut self,
        sent: SimTime,
        received: SimTime,
        segment: &Segment,
        physical_bytes: usize,
    ) {
        self.capture(sent, received, segment, physical_bytes, false);
    }

    /// Observe the second arrival of a network-duplicated packet. Counted
    /// as a normal on-the-wire packet, plus a duplication event; excluded
    /// from reorder/retransmission detection (the copy is not a TCP-level
    /// retransmission).
    pub fn observe_dup(
        &mut self,
        sent: SimTime,
        received: SimTime,
        segment: &Segment,
        physical_bytes: usize,
    ) {
        self.capture(sent, received, segment, physical_bytes, true);
    }

    fn capture(
        &mut self,
        sent: SimTime,
        received: SimTime,
        seg: &Segment,
        physical_bytes: usize,
        dup: bool,
    ) {
        self.observed += 1;
        let (key, forward) = pair_key(seg.src.host, seg.dst.host);
        let pair = self.pairs.entry(key).or_default();
        pair.track_wire(sent, seg, forward, dup);
        pair.stats
            .fold_packet(seg, forward, sent, received, physical_bytes);
        if self.mode == TraceMode::Full {
            self.records.push(TraceRecord {
                sent,
                received,
                segment: seg.clone(),
                physical_bytes,
            });
        }
    }

    /// Record a packet the link dropped instead of delivering. Feeds the
    /// per-pair drop counters in both modes; [`TraceMode::Full`]
    /// additionally retains a [`DropRecord`] for [`Trace::dump`].
    pub fn observe_drop(&mut self, at: SimTime, segment: &Segment, reason: DropReason) {
        self.drops += 1;
        let (key, _) = pair_key(segment.src.host, segment.dst.host);
        let stats = &mut self.pairs.entry(key).or_default().stats;
        match reason {
            DropReason::Loss => stats.drops_loss += 1,
            DropReason::Outage => stats.drops_outage += 1,
            DropReason::Queue => stats.drops_queue += 1,
        }
        if self.mode == TraceMode::Full {
            self.dropped.push(DropRecord {
                at,
                segment: segment.clone(),
                reason,
            });
        }
    }

    /// Append a captured packet ([`observe`] for callers that hold a
    /// finished record; kept for tests and external captures).
    ///
    /// [`observe`]: Trace::observe
    pub fn record(&mut self, rec: TraceRecord) {
        self.observe(rec.sent, rec.received, &rec.segment, rec.physical_bytes);
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.observed == 0
    }

    /// Number of packets observed (in either mode).
    pub fn len(&self) -> usize {
        self.observed as usize
    }

    /// All captured packets in arrival order. Empty in
    /// [`TraceMode::StatsOnly`], which does not retain records.
    pub fn records(&self) -> Records<'_> {
        Records::of(&self.records)
    }

    /// Dropped packets in submission order (retained only in
    /// [`TraceMode::Full`]; the per-pair drop *counters* in
    /// [`TraceStats`] work in both modes).
    pub fn drop_records(&self) -> Records<'_, DropRecord> {
        Records::of(&self.dropped)
    }

    /// Drop all accumulated contents.
    pub fn clear(&mut self) {
        self.records.clear();
        self.pairs.clear();
        self.dropped.clear();
        self.observed = 0;
        self.drops = 0;
    }

    /// Statistics over all packets flowing in either direction between the
    /// two hosts, with `client` defining the "client → server" direction.
    pub fn stats(&self, client: HostId, server: HostId) -> TraceStats {
        let (key, forward) = pair_key(client, server);
        let mut s = self.pairs.get(&key).map(|p| p.stats).unwrap_or_default();
        if !forward {
            std::mem::swap(&mut s.packets_c2s, &mut s.packets_s2c);
            std::mem::swap(&mut s.first_payload_c2s, &mut s.first_payload_s2c);
        }
        s
    }

    /// Renders the capture in a compact tcpdump-like text form (useful when
    /// debugging protocol behaviour in tests). Requires [`TraceMode::Full`];
    /// empty otherwise.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for rec in self.records() {
            let _ = writeln!(out, "{} {}", rec.sent, rec.segment);
        }
        let dropped = self.drop_records();
        if !dropped.is_empty() {
            let _ = writeln!(out, "--- {} dropped ---", dropped.len());
            for d in dropped {
                let _ = writeln!(out, "{} DROP({}) {}", d.at, d.reason, d.segment);
            }
        }
        out
    }

    /// The retained records, provided they are the whole capture: the
    /// trace is in [`TraceMode::Full`] and was in it for every packet and
    /// drop it observed.
    ///
    /// # Errors
    /// [`TraceModeError`] otherwise: a rendering of the records would
    /// silently lack what was not retained.
    pub(crate) fn complete_records(&self) -> Result<Records<'_>, TraceModeError> {
        let retained_all =
            self.records.len() as u64 == self.observed && self.dropped.len() as u64 == self.drops;
        match self.mode {
            TraceMode::Full if retained_all => Ok(self.records()),
            _ => Err(TraceModeError),
        }
    }

    /// Time-sequence points for data flowing out of `from`: one
    /// `(seconds, sequence-end)` pair per data-bearing segment, in
    /// capture order — the series Shepard's `xplot` draws and the paper
    /// used to find its implementation bugs. Each end is a [`Seq::offset`]
    /// from its flow's first captured segment (its SYN).
    ///
    /// # Errors
    /// [`TraceModeError`] unless the whole capture ran in
    /// [`TraceMode::Full`]: the result would silently lack every packet
    /// not retained.
    pub fn time_sequence(&self, from: HostId) -> Result<Vec<(f64, u64)>, TraceModeError> {
        let records = self.complete_records()?;
        let (mut flows, mut points) = (FxHashMap::default(), Vec::new());
        for r in records.iter().filter(|r| r.segment.src.host == from) {
            let seg = &r.segment;
            let flow = flows.entry((seg.src, seg.dst));
            let (origin, near) = flow.or_insert((Seq::new(seg.seq), 0));
            if seg.has_payload() {
                *near = Seq::new(seg.seq_end()).offset(*origin, *near);
                points.push((r.sent.as_secs_f64(), *near));
            }
        }
        Ok(points)
    }

    /// Serialize the capture in xplot(1) format: data segments from
    /// `from` as green lines (retransmissions in red) and the returning
    /// ACK series as yellow ticks.
    ///
    /// # Errors
    /// [`TraceModeError`] unless the whole capture ran in
    /// [`TraceMode::Full`] (the plot would silently miss packets).
    pub fn xplot(&self, from: HostId, title: &str) -> Result<String, TraceModeError> {
        let records = self.complete_records()?;
        let mut out = String::new();
        out.push_str("timeval unsigned\n");
        let _ = writeln!(out, "title\n{title}");
        out.push_str("xlabel\ntime\nylabel\nsequence number\n");
        let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
        for rec in records {
            let seg = &rec.segment;
            if seg.src.host == from && seg.has_payload() {
                let fresh = seen.insert((seg.seq, seg.seq_end()));
                let color = if fresh { "green" } else { "red" };
                let _ = writeln!(
                    out,
                    "{color}\nline {:.6} {} {:.6} {}",
                    rec.sent.as_secs_f64(),
                    seg.seq,
                    rec.sent.as_secs_f64(),
                    seg.seq_end(),
                );
            } else if seg.dst.host == from && seg.flags.ack {
                let _ = writeln!(
                    out,
                    "yellow\ntick {:.6} {}",
                    rec.received.as_secs_f64(),
                    seg.ack
                );
            }
        }
        out.push_str("go\n");
        Ok(out)
    }
}

impl PairState {
    /// Online reorder / retransmission / duplication detection (arrival
    /// records alone cannot distinguish a network duplicate from a TCP
    /// retransmission).
    fn track_wire(&mut self, sent: SimTime, seg: &Segment, forward: bool, dup: bool) {
        if dup {
            self.stats.dup_packets += 1;
            return;
        }
        // Arrivals are observed in arrival order: a packet that departed
        // before the latest departure already seen arrived out of order.
        let last_sent = &mut self.last_sent[forward as usize];
        let reordered = matches!(*last_sent, Some(prev) if sent < prev);
        if reordered {
            self.stats.reordered_packets += 1;
        } else {
            *last_sent = Some(sent);
        }
        // Sequence-space tracking per flow (SYN/FIN octets included). A
        // reordered fresh segment also starts below the high-water mark,
        // so only in-order arrivals count as retransmissions.
        if seg.seq_space() > 0 {
            let seq = Seq::new(seg.seq);
            let high = self.max_seq.entry((seg.src, seg.dst)).or_insert(seq);
            if !reordered && seq.before(*high) {
                self.stats.retransmitted_packets += 1;
            }
            *high = high.later(Seq::new(seg.seq_end()));
        }
    }
}

/// The (low, high) key a host pair's aggregates live under, and whether
/// `from → to` is that key's forward (low→high) direction.
fn pair_key(from: HostId, to: HostId) -> ((HostId, HostId), bool) {
    if from <= to {
        ((from, to), true)
    } else {
        ((to, from), false)
    }
}

/// A record-backed trace rendering was requested from a capture that did
/// not retain every packet it observed: it ran in [`TraceMode::StatsOnly`]
/// for all of the run or for part of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceModeError;

impl fmt::Display for TraceModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace was captured in TraceMode::StatsOnly for some or all of \
             the run and lacks per-packet records; re-run with \
             TraceMode::Full throughout"
        )
    }
}

impl std::error::Error for TraceModeError {}

/// Aggregate statistics for one client/server pair — the paper's metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceStats {
    /// Packets from the client toward the server.
    pub packets_c2s: u64,
    /// Packets from the server toward the client.
    pub packets_s2c: u64,
    /// Total bytes including 40-byte TCP/IP headers (pre-link-compression).
    pub bytes: u64,
    /// Bytes after link-level (modem) compression, if any.
    pub physical_bytes: u64,
    /// TCP/IP header bytes across all packets.
    pub header_bytes: u64,
    /// Application payload bytes across all packets.
    pub payload_bytes: u64,
    /// Segments carrying SYN.
    pub syns: u64,
    /// Segments carrying FIN.
    pub fins: u64,
    /// Segments carrying RST.
    pub rsts: u64,
    /// Bare acknowledgements (no payload, no flags).
    pub pure_acks: u64,
    /// Departure time of the first packet.
    pub first: Option<SimTime>,
    /// Arrival time of the last packet.
    pub last: Option<SimTime>,
    /// Arrival time of the first payload-bearing packet travelling
    /// client→server.
    pub first_payload_c2s: Option<SimTime>,
    /// Arrival time of the first payload-bearing packet travelling
    /// server→client — the first response byte the user perceives.
    pub first_payload_s2c: Option<SimTime>,
    /// Packets discarded by the loss model (never reached the wire).
    pub drops_loss: u64,
    /// Packets discarded during scheduled link outages.
    pub drops_outage: u64,
    /// Packets tail-dropped by a bounded link queue.
    pub drops_queue: u64,
    /// Extra copies delivered by network duplication.
    pub dup_packets: u64,
    /// Packets that arrived out of departure order.
    pub reordered_packets: u64,
    /// Data-bearing segments re-covering already-sent sequence space —
    /// TCP retransmissions observed on the wire.
    pub retransmitted_packets: u64,
}

impl TraceStats {
    /// Fold one packet into the aggregates. `c2s` says whether it travels
    /// in the client→server direction.
    fn fold_packet(
        &mut self,
        seg: &Segment,
        c2s: bool,
        sent: SimTime,
        received: SimTime,
        physical_bytes: usize,
    ) {
        if c2s {
            self.packets_c2s += 1;
        } else {
            self.packets_s2c += 1;
        }
        self.bytes += seg.wire_len() as u64;
        self.physical_bytes += physical_bytes as u64;
        self.header_bytes += TCP_IP_HEADER_BYTES as u64;
        self.payload_bytes += seg.payload.len() as u64;
        if seg.flags.syn {
            self.syns += 1;
        }
        if seg.flags.fin {
            self.fins += 1;
        }
        if seg.flags.rst {
            self.rsts += 1;
        }
        if seg.payload.is_empty() && !seg.flags.syn && !seg.flags.fin && !seg.flags.rst {
            self.pure_acks += 1;
        }
        self.first = Some(self.first.map_or(sent, |f: SimTime| f.min(sent)));
        self.last = Some(self.last.map_or(received, |l: SimTime| l.max(received)));
        if !seg.payload.is_empty() {
            let slot = if c2s {
                &mut self.first_payload_c2s
            } else {
                &mut self.first_payload_s2c
            };
            *slot = Some(slot.map_or(received, |t: SimTime| t.min(received)));
        }
    }

    /// Packets in both directions.
    pub fn total_packets(&self) -> u64 {
        self.packets_c2s + self.packets_s2c
    }

    /// Percentage of wire bytes that are TCP/IP header overhead — the
    /// paper's `%ov` column.
    #[expect(
        clippy::cast_precision_loss,
        reason = "a report-edge ratio of byte counts, exact below 2^53"
    )]
    pub fn overhead_pct(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.header_bytes as f64 * 100.0 / self.bytes as f64
        }
    }

    /// Packets dropped by the link for any reason.
    pub fn drops(&self) -> u64 {
        self.drops_loss + self.drops_outage + self.drops_queue
    }

    /// Wall-clock span from the first departure to the last arrival.
    pub fn elapsed_secs(&self) -> f64 {
        match (self.first, self.last) {
            (Some(f), Some(l)) => l.since(f).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Seconds from the first departure to the arrival of the first
    /// response payload byte (server→client) — the perceived latency the
    /// paper reports alongside totals. Zero when no payload ever flowed.
    pub fn first_byte_secs(&self) -> f64 {
        match (self.first, self.first_payload_s2c) {
            (Some(f), Some(b)) => b.since(f).as_secs_f64(),
            _ => 0.0,
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pkts ({} c2s / {} s2c), {} bytes, {:.1}% ov, {:.2}s",
            self.total_packets(),
            self.packets_c2s,
            self.packets_s2c,
            self.bytes,
            self.overhead_pct(),
            self.elapsed_secs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{SockAddr, TcpFlags};
    use bytes::Bytes;

    fn rec(from: u16, to: u16, flags: TcpFlags, len: usize, t_ns: u64) -> TraceRecord {
        let seg = Segment {
            src: SockAddr::new(HostId(from), 1000),
            dst: SockAddr::new(HostId(to), 80),
            seq: 0,
            ack: 0,
            flags,
            window: 0,
            sack: crate::packet::SackBlocks::NONE,
            payload: Bytes::from(vec![0u8; len]),
        };
        let physical = seg.wire_len();
        TraceRecord {
            sent: SimTime::from_nanos(t_ns),
            received: SimTime::from_nanos(t_ns + 100),
            segment: seg,
            physical_bytes: physical,
        }
    }

    #[test]
    fn stats_count_directions() {
        let mut t = Trace::new();
        t.record(rec(0, 1, TcpFlags::SYN, 0, 0));
        t.record(rec(1, 0, TcpFlags::SYN_ACK, 0, 10));
        t.record(rec(0, 1, TcpFlags::ACK, 100, 20));
        let s = t.stats(HostId(0), HostId(1));
        assert_eq!(s.packets_c2s, 2);
        assert_eq!(s.packets_s2c, 1);
        assert_eq!(s.total_packets(), 3);
        assert_eq!(s.bytes, 40 + 40 + 140);
        assert_eq!(s.syns, 2);
        assert_eq!(s.payload_bytes, 100);
    }

    #[test]
    fn overhead_percentage() {
        let mut t = Trace::new();
        t.record(rec(0, 1, TcpFlags::ACK, 360, 0)); // 400 wire bytes, 40 header
        let s = t.stats(HostId(0), HostId(1));
        assert!((s.overhead_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn elapsed_spans_first_to_last() {
        let mut t = Trace::new();
        t.record(rec(0, 1, TcpFlags::ACK, 1, 1_000_000_000));
        t.record(rec(1, 0, TcpFlags::ACK, 1, 3_000_000_000));
        let s = t.stats(HostId(0), HostId(1));
        assert!((s.elapsed_secs() - 2.0000001).abs() < 1e-6);
    }

    #[test]
    fn other_host_pairs_excluded() {
        let mut t = Trace::new();
        t.record(rec(0, 1, TcpFlags::ACK, 1, 0));
        t.record(rec(2, 1, TcpFlags::ACK, 1, 0));
        let s = t.stats(HostId(0), HostId(1));
        assert_eq!(s.total_packets(), 1);
    }

    #[test]
    fn time_sequence_monotone_without_loss() {
        let mut t = Trace::new();
        for (i, len) in [(0u64, 100usize), (1, 200), (2, 300)] {
            t.record(rec(0, 1, TcpFlags::ACK, len, i * 1000));
        }
        let ts = t.time_sequence(HostId(0)).unwrap();
        assert_eq!(ts.len(), 3);
        assert!(ts.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn xplot_marks_retransmissions_red() {
        let mut t = Trace::new();
        let mut seg = rec(0, 1, TcpFlags::ACK, 100, 0);
        seg.segment.seq = 50;
        t.record(seg.clone());
        seg.sent = SimTime::from_nanos(5_000_000);
        t.record(seg); // identical sequence range: a retransmission
        let plot = t.xplot(HostId(0), "demo").unwrap();
        assert!(plot.contains("green\n"));
        assert!(plot.contains("red\n"), "{plot}");
        assert!(plot.starts_with("timeval unsigned\n"));
        assert!(plot.ends_with("go\n"));
    }

    #[test]
    fn pure_ack_classification() {
        let mut t = Trace::new();
        t.record(rec(0, 1, TcpFlags::ACK, 0, 0));
        t.record(rec(0, 1, TcpFlags::ACK, 5, 0));
        t.record(rec(0, 1, TcpFlags::FIN_ACK, 0, 0));
        let s = t.stats(HostId(0), HostId(1));
        assert_eq!(s.pure_acks, 1);
        assert_eq!(s.fins, 1);
    }

    /// Every packet pattern must produce identical statistics in both
    /// modes; StatsOnly just computes them online.
    #[test]
    fn stats_only_matches_full() {
        let traffic = [
            rec(0, 1, TcpFlags::SYN, 0, 0),
            rec(1, 0, TcpFlags::SYN_ACK, 0, 10),
            rec(0, 1, TcpFlags::ACK, 100, 20),
            rec(1, 0, TcpFlags::ACK, 1460, 30),
            rec(1, 0, TcpFlags::ACK, 0, 40),
            rec(2, 1, TcpFlags::ACK, 7, 50), // unrelated pair
            rec(1, 0, TcpFlags::FIN_ACK, 0, 60),
            rec(0, 1, TcpFlags::RST, 0, 70),
        ];
        let mut full = Trace::with_mode(TraceMode::Full);
        let mut lean = Trace::with_mode(TraceMode::StatsOnly);
        for r in &traffic {
            full.record(r.clone());
            lean.observe(r.sent, r.received, &r.segment, r.physical_bytes);
        }
        assert_eq!(
            full.stats(HostId(0), HostId(1)),
            lean.stats(HostId(0), HostId(1))
        );
        assert_eq!(
            full.stats(HostId(2), HostId(1)),
            lean.stats(HostId(2), HostId(1))
        );
        // Swapped direction also agrees.
        assert_eq!(
            full.stats(HostId(1), HostId(0)),
            lean.stats(HostId(1), HostId(0))
        );
        assert_eq!(lean.len(), traffic.len());
        assert!(lean.records().is_empty(), "StatsOnly retains no records");
    }

    /// Switching modes mid-capture changes retention only: the packets
    /// seen before the switch stay in the statistics.
    #[test]
    fn stats_survive_a_mode_switch() {
        let traffic = [
            rec(0, 1, TcpFlags::SYN, 0, 0),
            rec(1, 0, TcpFlags::SYN_ACK, 0, 10),
            rec(0, 1, TcpFlags::ACK, 100, 20),
            rec(1, 0, TcpFlags::ACK, 1460, 30),
            rec(1, 0, TcpFlags::FIN_ACK, 0, 40),
            rec(0, 1, TcpFlags::FIN_ACK, 0, 50),
        ];
        let mut single = Trace::with_mode(TraceMode::StatsOnly);
        let mut switched = Trace::with_mode(TraceMode::Full);
        for (i, r) in traffic.iter().enumerate() {
            if i == traffic.len() / 2 {
                switched.set_mode(TraceMode::StatsOnly);
            }
            single.record(r.clone());
            switched.record(r.clone());
        }
        assert_eq!(
            switched.stats(HostId(0), HostId(1)),
            single.stats(HostId(0), HostId(1))
        );
        assert_eq!(switched.records().len(), traffic.len() / 2);
    }

    #[test]
    fn drops_counted_with_reason_in_both_modes() {
        for mode in [TraceMode::Full, TraceMode::StatsOnly] {
            let mut t = Trace::with_mode(mode);
            let r = rec(0, 1, TcpFlags::ACK, 100, 0);
            t.observe(r.sent, r.received, &r.segment, r.physical_bytes);
            t.observe_drop(SimTime::from_nanos(5), &r.segment, DropReason::Loss);
            t.observe_drop(SimTime::from_nanos(6), &r.segment, DropReason::Loss);
            t.observe_drop(SimTime::from_nanos(7), &r.segment, DropReason::Outage);
            t.observe_drop(SimTime::from_nanos(8), &r.segment, DropReason::Queue);
            let s = t.stats(HostId(0), HostId(1));
            assert_eq!(s.drops_loss, 2);
            assert_eq!(s.drops_outage, 1);
            assert_eq!(s.drops_queue, 1);
            assert_eq!(s.drops(), 4);
            // Dropped packets never count as observed on the wire.
            assert_eq!(s.total_packets(), 1);
            if mode == TraceMode::Full {
                assert_eq!(t.drop_records().len(), 4);
                let dump = t.dump();
                assert!(dump.contains("--- 4 dropped ---"), "{dump}");
                assert!(dump.contains("DROP(loss)"), "{dump}");
                assert!(dump.contains("DROP(outage)"), "{dump}");
            } else {
                assert!(t.drop_records().is_empty());
            }
        }
    }

    #[test]
    fn reordering_detected_from_departure_times() {
        for mode in [TraceMode::Full, TraceMode::StatsOnly] {
            let mut t = Trace::with_mode(mode);
            // Departures at 0, 1000, 2000 — but the middle one arrives last.
            let mut a = rec(0, 1, TcpFlags::ACK, 10, 0);
            let mut b = rec(0, 1, TcpFlags::ACK, 10, 1_000);
            let mut c = rec(0, 1, TcpFlags::ACK, 10, 2_000);
            a.segment.seq = 0;
            b.segment.seq = 10;
            c.segment.seq = 20;
            for r in [&a, &c, &b] {
                t.observe(r.sent, r.received, &r.segment, r.physical_bytes);
            }
            let s = t.stats(HostId(0), HostId(1));
            assert_eq!(s.reordered_packets, 1, "mode {mode:?}");
            assert_eq!(s.retransmitted_packets, 0, "fresh data is not a rexmit");
        }
    }

    #[test]
    fn retransmissions_detected_from_sequence_space() {
        let mut t = Trace::with_mode(TraceMode::StatsOnly);
        let first = rec(0, 1, TcpFlags::ACK, 100, 0);
        let mut again = first.clone();
        again.sent = SimTime::from_nanos(9_000);
        again.received = SimTime::from_nanos(9_100);
        t.observe(first.sent, first.received, &first.segment, 140);
        t.observe(again.sent, again.received, &again.segment, 140);
        let s = t.stats(HostId(0), HostId(1));
        assert_eq!(s.retransmitted_packets, 1);
        assert_eq!(s.reordered_packets, 0);
    }

    #[test]
    fn network_duplicates_counted_separately() {
        let mut t = Trace::with_mode(TraceMode::StatsOnly);
        let r = rec(0, 1, TcpFlags::ACK, 100, 0);
        t.observe(r.sent, r.received, &r.segment, r.physical_bytes);
        t.observe_dup(
            r.sent,
            SimTime::from_nanos(500),
            &r.segment,
            r.physical_bytes,
        );
        let s = t.stats(HostId(0), HostId(1));
        assert_eq!(s.dup_packets, 1);
        assert_eq!(
            s.retransmitted_packets, 0,
            "a network duplicate is not a TCP retransmission"
        );
        assert_eq!(s.total_packets(), 2, "both copies crossed the wire");
    }

    /// Record-backed renderings must refuse to produce silently-empty
    /// output when the capture kept no records.
    #[test]
    fn stats_only_rejects_record_backed_renderings() {
        let mut t = Trace::with_mode(TraceMode::StatsOnly);
        let r = rec(0, 1, TcpFlags::ACK, 100, 0);
        t.observe(r.sent, r.received, &r.segment, r.physical_bytes);
        assert_eq!(t.time_sequence(HostId(0)), Err(TraceModeError));
        assert_eq!(t.xplot(HostId(0), "demo"), Err(TraceModeError));
        let msg = TraceModeError.to_string();
        assert!(msg.contains("StatsOnly"), "{msg}");
        // Full mode still succeeds on the same traffic.
        let mut full = Trace::with_mode(TraceMode::Full);
        full.record(r);
        assert!(full.time_sequence(HostId(0)).is_ok());
        assert!(full.xplot(HostId(0), "demo").is_ok());
    }

    /// A capture that missed packets or drops — retention switched on
    /// after traffic flowed, or off for a while — refuses every
    /// record-backed rendering; one that was `Full` throughout does not.
    #[test]
    fn a_capture_that_missed_packets_refuses_to_render() {
        let r = rec(0, 1, TcpFlags::ACK, 100, 0);
        let renders = |t: &Trace| {
            [
                t.time_sequence(HostId(0)).err(),
                t.xplot(HostId(0), "demo").err(),
                crate::pcapng::export_trace(t).err(),
            ]
        };
        let refused = [Some(TraceModeError); 3];
        let switched = |modes: &[TraceMode], drop_at: usize| {
            let mut t = Trace::with_mode(modes[0]);
            for (i, &mode) in modes.iter().enumerate() {
                t.set_mode(mode);
                if i == drop_at {
                    t.observe_drop(r.sent, &r.segment, DropReason::Queue);
                } else {
                    t.record(r.clone());
                }
            }
            t
        };
        use TraceMode::{Full, StatsOnly};
        let none = usize::MAX;
        // On after traffic flowed.
        assert_eq!(renders(&switched(&[StatsOnly, Full, Full], none)), refused);
        // Off after traffic flowed, and on again.
        assert_eq!(renders(&switched(&[Full, StatsOnly], none)), refused);
        assert_eq!(renders(&switched(&[Full, StatsOnly, Full], none)), refused);
        // Every packet retained, but a drop was not.
        assert_eq!(renders(&switched(&[Full, StatsOnly, Full], 1)), refused);
        // Full throughout, a drop included; and off only while idle.
        assert_eq!(renders(&switched(&[Full, Full, Full], 1)), [None; 3]);
        let mut idle = switched(&[Full], none);
        idle.set_mode(StatsOnly);
        idle.set_mode(Full);
        idle.record(r.clone());
        assert_eq!(renders(&idle), [None; 3]);
    }

    /// The block view reads as the `Vec` it replaced, on both sides of
    /// the first block's end and of a full block's.
    #[test]
    fn records_read_as_a_vec_does() {
        const B: usize = RECORDS_PER_BLOCK;
        const F: usize = B / 8;
        let stamp = |r: &TraceRecord| (r.sent, r.received);
        for n in [0, 1, F - 1, F, F + 1, B - 1, B, B + 1, F + B, 3 * B + 7] {
            let mut trace = Trace::new();
            let mut vec = Vec::new();
            for i in 0..n as u64 {
                let r = rec(0, 1, TcpFlags::ACK, 0, i * 1_000);
                trace.record(r.clone());
                vec.push(r);
            }
            for records in [trace.records(), Records::from(&vec)] {
                assert_eq!(records.len(), n);
                assert_eq!(records.is_empty(), n == 0);
                for i in 0..n + 2 {
                    assert_eq!(records.get(i).map(stamp), vec.get(i).map(stamp), "{n}: {i}");
                }
                assert!(records.iter().map(stamp).eq(vec.iter().map(stamp)));
                assert!(records
                    .iter()
                    .rev()
                    .map(stamp)
                    .eq(vec.iter().rev().map(stamp)));
                assert_eq!(records.first().map(stamp), vec.first().map(stamp));
                assert_eq!(records.last().map(stamp), vec.last().map(stamp));
                assert_eq!(records.iter().last().map(stamp), vec.last().map(stamp));
                if let Some(i) = n.checked_sub(1) {
                    assert_eq!(stamp(&records[i]), stamp(&vec[i]));
                }
            }
            let blocks = trace.records.blocks();
            let sizes: Vec<usize> = blocks.iter().map(Vec::capacity).collect();
            let full = n.saturating_sub(F).div_ceil(B);
            let expected: Vec<usize> = (n > 0)
                .then_some(F)
                .into_iter()
                .chain([B].repeat(full))
                .collect();
            assert_eq!(sizes, expected, "{n} records: whole blocks, never regrown");
        }
    }

    #[test]
    fn first_byte_tracks_first_server_payload() {
        for mode in [TraceMode::Full, TraceMode::StatsOnly] {
            let mut t = Trace::with_mode(mode);
            let traffic = [
                rec(0, 1, TcpFlags::SYN, 0, 0),
                rec(1, 0, TcpFlags::SYN_ACK, 0, 1_000),
                rec(0, 1, TcpFlags::ACK, 120, 2_000),  // request
                rec(1, 0, TcpFlags::ACK, 1460, 5_000), // first response byte
                rec(1, 0, TcpFlags::ACK, 1460, 9_000),
            ];
            for r in &traffic {
                t.observe(r.sent, r.received, &r.segment, r.physical_bytes);
            }
            let s = t.stats(HostId(0), HostId(1));
            assert_eq!(s.first_payload_c2s, Some(SimTime::from_nanos(2_100)));
            assert_eq!(s.first_payload_s2c, Some(SimTime::from_nanos(5_100)));
            // first departure at t=0, first response payload arrives 5_100.
            assert!(
                (s.first_byte_secs() - 5_100e-9).abs() < 1e-15,
                "mode {mode:?}"
            );
            // Swapped query direction swaps the payload marks too.
            let rev = t.stats(HostId(1), HostId(0));
            assert_eq!(rev.first_payload_c2s, Some(SimTime::from_nanos(5_100)));
            assert_eq!(rev.first_payload_s2c, Some(SimTime::from_nanos(2_100)));
        }
    }

    #[test]
    #[expect(
        clippy::float_cmp,
        reason = "with no payload the first byte is the literal 0.0"
    )]
    fn first_byte_zero_without_payload() {
        let mut t = Trace::new();
        t.record(rec(0, 1, TcpFlags::SYN, 0, 0));
        assert_eq!(t.stats(HostId(0), HostId(1)).first_byte_secs(), 0.0);
        assert_eq!(TraceStats::default().first_byte_secs(), 0.0);
    }

    #[test]
    fn stats_only_retains_nothing_per_packet() {
        let mut t = Trace::with_mode(TraceMode::StatsOnly);
        for i in 0..10_000 {
            t.record(rec(0, 1, TcpFlags::ACK, 100, i * 10));
        }
        assert_eq!(t.len(), 10_000);
        assert!(t.records().is_empty());
        assert_eq!(t.stats(HostId(0), HostId(1)).packets_c2s, 10_000);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.stats(HostId(0), HostId(1)), TraceStats::default());
    }
}
