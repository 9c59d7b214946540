//! pcapng export of simulated captures, plus an in-tree reader for
//! round-trip tests.
//!
//! The paper's evidence was tcpdump captures read in packet analyzers;
//! this module closes that loop for the simulator: a [`Trace`] captured
//! in [`crate::TraceMode::Full`] exports to a pcapng file that Wireshark,
//! tshark and tcptrace open directly, with Ethernet/IPv4/TCP framing
//! synthesized around the simulator's abstract [`Segment`]s.
//!
//! ## Mapping (and its caveats)
//!
//! * **Addresses.** [`HostId`] `n` becomes IPv4 address `10.0.hi.lo`
//!   (`hi = n >> 8`, `lo = n & 0xff`) and MAC `02:00:00:00:hi:lo`; TCP
//!   ports carry over verbatim. The mapping is a bijection, so the
//!   reader recovers host ids exactly.
//! * **Timestamps.** The capture point is the *receiving* NIC: each
//!   packet is stamped with [`TraceRecord::received`] in nanoseconds
//!   (the interface block declares `if_tsresol = 9`). Trace records are
//!   appended in delivery order, so timestamps are already monotone.
//!   One-way delay is therefore visible as gaps between data and ACK
//!   streams, but a Wireshark RTT graph measures sim RTT, not a
//!   sender-side capture's RTT.
//! * **Windows.** The simulated window is bytes without scaling; values
//!   above 65535 clamp to 65535 on the wire (no SYN window-scale option
//!   is synthesized).
//! * **SACK.** Blocks go out as [`SackBlocks::encode`] writes them (two
//!   NOPs, then kind 5 with 32-bit edges, RFC 2018), so Wireshark
//!   dissects them, and come back through [`SackBlocks::decode`].
//! * **Checksums.** IPv4 and TCP checksums are computed for real —
//!   strict analyzers see a clean capture.

use crate::packet::{HostId, SackBlocks, Segment, SockAddr, TcpFlags};
use crate::trace::{Records, Trace, TraceModeError, TraceRecord};

const ETHERTYPE_IPV4: u16 = 0x0800;
const LINKTYPE_ETHERNET: u16 = 1;
const BYTE_ORDER_MAGIC: u32 = 0x1A2B_3C4D;

/// IPv4 address for a simulated host: `10.0.hi.lo`.
pub fn host_ip(host: HostId) -> [u8; 4] {
    [10, 0, (host.0 >> 8) as u8, (host.0 & 0xff) as u8]
}

/// Locally-administered MAC for a simulated host: `02:00:00:00:hi:lo`.
pub fn host_mac(host: HostId) -> [u8; 6] {
    [0x02, 0, 0, 0, (host.0 >> 8) as u8, (host.0 & 0xff) as u8]
}

fn ip_to_host(ip: [u8; 4]) -> Option<HostId> {
    if ip[0] == 10 && ip[1] == 0 {
        Some(HostId(((ip[2] as u16) << 8) | ip[3] as u16))
    } else {
        None
    }
}

/// RFC 1071 ones-complement sum over 16-bit words.
fn checksum(chunks: &[&[u8]]) -> u16 {
    let mut sum: u32 = 0;
    let mut carry: Option<u8> = None;
    for chunk in chunks {
        let mut bytes = chunk.iter().copied();
        if let Some(hi) = carry.take() {
            let lo = bytes.next().unwrap_or(0);
            sum += u32::from(u16::from_be_bytes([hi, lo]));
        }
        while let Some(hi) = bytes.next() {
            match bytes.next() {
                Some(lo) => sum += u32::from(u16::from_be_bytes([hi, lo])),
                None => {
                    carry = Some(hi);
                    break;
                }
            }
        }
    }
    if let Some(hi) = carry {
        sum += u32::from(u16::from_be_bytes([hi, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

fn flags_byte(f: TcpFlags) -> u8 {
    let mut b = 0u8;
    if f.fin {
        b |= 0x01;
    }
    if f.syn {
        b |= 0x02;
    }
    if f.rst {
        b |= 0x04;
    }
    if f.psh {
        b |= 0x08;
    }
    if f.ack {
        b |= 0x10;
    }
    b
}

fn flags_from_byte(b: u8) -> TcpFlags {
    TcpFlags {
        fin: b & 0x01 != 0,
        syn: b & 0x02 != 0,
        rst: b & 0x04 != 0,
        psh: b & 0x08 != 0,
        ack: b & 0x10 != 0,
    }
}

/// Bytes of the Ethernet frame synthesized for a segment.
fn frame_len(seg: &Segment) -> usize {
    14 + 20 + 20 + seg.sack.encoded_len() + seg.payload.len()
}

/// Append the Ethernet frame for a segment to `out`. `ip_id` is the
/// value for the IPv4 identification field. Each checksum is computed
/// over the bytes already written and patched into its placeholder.
fn write_frame(out: &mut Vec<u8>, seg: &Segment, ip_id: u16) {
    let src_ip = host_ip(seg.src.host);
    let dst_ip = host_ip(seg.dst.host);
    let options = seg.sack.encoded_len();
    let tcp_len = 20 + options + seg.payload.len();

    out.extend_from_slice(&host_mac(seg.dst.host));
    out.extend_from_slice(&host_mac(seg.src.host));
    out.extend_from_slice(&ETHERTYPE_IPV4.to_be_bytes());

    let ip = out.len();
    out.push(0x45); // version 4, IHL 5
    out.push(0); // DSCP/ECN
    out.extend_from_slice(&((20 + tcp_len) as u16).to_be_bytes());
    out.extend_from_slice(&ip_id.to_be_bytes());
    out.extend_from_slice(&0x4000u16.to_be_bytes()); // DF
    out.push(64); // TTL
    out.push(6); // protocol: TCP
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    out.extend_from_slice(&src_ip);
    out.extend_from_slice(&dst_ip);
    let ip_csum = checksum(&[&out[ip..]]);
    out[ip + 10..ip + 12].copy_from_slice(&ip_csum.to_be_bytes());

    let tcp = out.len();
    out.extend_from_slice(&seg.src.port.to_be_bytes());
    out.extend_from_slice(&seg.dst.port.to_be_bytes());
    out.extend_from_slice(&seg.seq.to_be_bytes());
    out.extend_from_slice(&seg.ack.to_be_bytes());
    out.push(((5 + options / 4) as u8) << 4); // data offset, words
    out.push(flags_byte(seg.flags));
    let window = seg.window.min(0xffff) as u16;
    out.extend_from_slice(&window.to_be_bytes());
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    out.extend_from_slice(&[0, 0]); // urgent pointer
    seg.sack.encode(out);
    out.extend_from_slice(&seg.payload);
    let pseudo = {
        let mut p = [0u8; 12];
        p[..4].copy_from_slice(&src_ip);
        p[4..8].copy_from_slice(&dst_ip);
        p[9] = 6;
        p[10..].copy_from_slice(&(tcp_len as u16).to_be_bytes());
        p
    };
    let tcp_csum = checksum(&[&pseudo, &out[tcp..]]);
    out[tcp + 16..tcp + 18].copy_from_slice(&tcp_csum.to_be_bytes());
}

const BLOCK_SHB: u32 = 0x0A0D_0D0A;
const BLOCK_IDB: u32 = 0x0000_0001;
const BLOCK_EPB: u32 = 0x0000_0006;
/// Body bytes of the section header and interface description blocks,
/// and of an enhanced packet block ahead of its frame.
const SHB_BODY: usize = 16;
const IDB_BODY: usize = 20;
const EPB_HEAD: usize = 20;

/// Padding that brings a block body of `body` bytes to a multiple of 4.
fn pad(body: usize) -> usize {
    (4 - body % 4) % 4
}

/// Bytes a block with a `body`-byte body takes, framing included.
fn block_len(body: usize) -> usize {
    12 + body + pad(body)
}

/// Append one block: its type and length, the `body` bytes
/// `write_body` appends, padding, and the length again.
fn write_block(
    out: &mut Vec<u8>,
    block_type: u32,
    body: usize,
    write_body: impl FnOnce(&mut Vec<u8>),
) {
    let total = (block_len(body) as u32).to_le_bytes();
    out.extend_from_slice(&block_type.to_le_bytes());
    out.extend_from_slice(&total);
    let start = out.len();
    write_body(out);
    debug_assert_eq!(out.len() - start, body);
    out.extend_from_slice(&[0u8; 3][..pad(body)]);
    out.extend_from_slice(&total);
}

/// Serialize trace records to a pcapng capture (little-endian section,
/// one Ethernet interface with nanosecond timestamps). The records are
/// read where they lie; the capture's length is added up first, and
/// every block is written straight into the one buffer of exactly that
/// size.
pub fn export(records: Records<'_>) -> Vec<u8> {
    let epb_len = |rec: &TraceRecord| block_len(EPB_HEAD + frame_len(&rec.segment));
    let total =
        block_len(SHB_BODY) + block_len(IDB_BODY) + records.iter().map(epb_len).sum::<usize>();
    let mut out = Vec::with_capacity(total);

    write_block(&mut out, BLOCK_SHB, SHB_BODY, |out| {
        out.extend_from_slice(&BYTE_ORDER_MAGIC.to_le_bytes());
        out.extend_from_slice(&1u16.to_le_bytes()); // major
        out.extend_from_slice(&0u16.to_le_bytes()); // minor
        out.extend_from_slice(&(-1i64).to_le_bytes()); // section length: unknown
    });

    // Interface Description Block: Ethernet, unlimited snaplen,
    // if_tsresol option (code 9) = 9 → timestamps in nanoseconds.
    write_block(&mut out, BLOCK_IDB, IDB_BODY, |out| {
        out.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved
        out.extend_from_slice(&0u32.to_le_bytes()); // snaplen: no limit
        out.extend_from_slice(&9u16.to_le_bytes()); // option: if_tsresol
        out.extend_from_slice(&1u16.to_le_bytes()); // length 1
        out.extend_from_slice(&[9, 0, 0, 0]); // value 9, padded
        out.extend_from_slice(&0u16.to_le_bytes()); // opt_endofopt
        out.extend_from_slice(&0u16.to_le_bytes());
    });

    // Enhanced Packet Blocks. The IPv4 id is a per-capture wrapping
    // counter, like a real stack's.
    let mut ip_id: u16 = 0;
    for rec in records {
        let data = frame_len(&rec.segment);
        let ts = rec.received.as_nanos();
        write_block(&mut out, BLOCK_EPB, EPB_HEAD + data, |out| {
            out.extend_from_slice(&0u32.to_le_bytes()); // interface 0
            out.extend_from_slice(&((ts >> 32) as u32).to_le_bytes());
            out.extend_from_slice(&(ts as u32).to_le_bytes());
            out.extend_from_slice(&(data as u32).to_le_bytes()); // captured
            out.extend_from_slice(&(data as u32).to_le_bytes()); // original
            write_frame(out, &rec.segment, ip_id);
        });
        ip_id = ip_id.wrapping_add(1);
    }
    debug_assert_eq!(out.len(), total);
    out
}

/// Export a [`Trace`]'s packet records.
///
/// # Errors
/// [`TraceModeError`] unless the trace ran in
/// [`crate::TraceMode::Full`] for every packet and drop it observed: a
/// capture of what it retained would silently lack the rest.
pub fn export_trace(trace: &Trace) -> Result<Vec<u8>, TraceModeError> {
    Ok(export(trace.complete_records()?))
}

/// One packet decoded from a pcapng capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapPacket {
    /// Capture timestamp, nanoseconds.
    pub ts_ns: u64,
    /// Source endpoint (host recovered from the `10.0.x.y` mapping).
    pub src: SockAddr,
    /// Destination endpoint.
    pub dst: SockAddr,
    /// Wire sequence number (32-bit).
    pub seq: u32,
    /// Wire acknowledgment number (32-bit).
    pub ack: u32,
    /// Decoded TCP flags.
    pub flags: TcpFlags,
    /// Advertised window as carried on the wire.
    pub window: u16,
    /// TCP payload length in bytes.
    pub payload_len: usize,
    /// SACK blocks decoded from options.
    pub sack: SackBlocks,
}

/// Why a capture failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcapError {
    /// The byte stream is not a well-formed little-endian pcapng section.
    Malformed(&'static str),
    /// A frame inside the capture is not the Ethernet/IPv4/TCP shape
    /// this exporter produces.
    UnsupportedFrame(&'static str),
    /// An IPv4 or TCP checksum failed verification.
    BadChecksum(&'static str),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Malformed(what) => write!(f, "malformed pcapng: {what}"),
            PcapError::UnsupportedFrame(what) => write!(f, "unsupported frame: {what}"),
            PcapError::BadChecksum(what) => write!(f, "checksum mismatch: {what}"),
        }
    }
}

impl std::error::Error for PcapError {}

fn take<'a>(buf: &mut &'a [u8], n: usize, what: &'static str) -> Result<&'a [u8], PcapError> {
    if buf.len() < n {
        return Err(PcapError::Malformed(what));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn u32le(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn parse_frame(data: &[u8]) -> Result<PcapPacket, PcapError> {
    if data.len() < 14 + 20 + 20 {
        return Err(PcapError::UnsupportedFrame("frame shorter than headers"));
    }
    let (eth, rest) = data.split_at(14);
    if u16::from_be_bytes([eth[12], eth[13]]) != ETHERTYPE_IPV4 {
        return Err(PcapError::UnsupportedFrame("not IPv4"));
    }
    if rest[0] != 0x45 {
        return Err(PcapError::UnsupportedFrame("IPv4 options unexpected"));
    }
    let (ip, after_ip) = rest.split_at(20);
    if checksum(&[ip]) != 0 {
        return Err(PcapError::BadChecksum("IPv4 header"));
    }
    if ip[9] != 6 {
        return Err(PcapError::UnsupportedFrame("not TCP"));
    }
    let tot_len = u16::from_be_bytes([ip[2], ip[3]]) as usize;
    if tot_len < 40 || tot_len - 20 > after_ip.len() {
        return Err(PcapError::Malformed("IPv4 total length"));
    }
    let src_ip = [ip[12], ip[13], ip[14], ip[15]];
    let dst_ip = [ip[16], ip[17], ip[18], ip[19]];
    let src_host =
        ip_to_host(src_ip).ok_or(PcapError::UnsupportedFrame("source IP outside 10.0.0.0/16"))?;
    let dst_host = ip_to_host(dst_ip).ok_or(PcapError::UnsupportedFrame(
        "destination IP outside 10.0.0.0/16",
    ))?;

    let tcp_seg = &after_ip[..tot_len - 20];
    let pseudo = {
        let mut p = [0u8; 12];
        p[..4].copy_from_slice(&src_ip);
        p[4..8].copy_from_slice(&dst_ip);
        p[9] = 6;
        p[10..].copy_from_slice(&(tcp_seg.len() as u16).to_be_bytes());
        p
    };
    if checksum(&[&pseudo, tcp_seg]) != 0 {
        return Err(PcapError::BadChecksum("TCP segment"));
    }
    let data_offset = (tcp_seg[12] >> 4) as usize * 4;
    if data_offset < 20 || data_offset > tcp_seg.len() {
        return Err(PcapError::Malformed("TCP data offset"));
    }

    // Walk the options: skip NOPs and every option but one SACK.
    let mut sack = SackBlocks::NONE;
    let mut opts = &tcp_seg[20..data_offset];
    while let Some(&kind) = opts.first() {
        match kind {
            0 => break,
            1 => opts = &opts[1..],
            _ => {
                let len = *opts
                    .get(1)
                    .ok_or(PcapError::Malformed("truncated TCP option"))?
                    as usize;
                if len < 2 || len > opts.len() {
                    return Err(PcapError::Malformed("TCP option length"));
                }
                if kind == SackBlocks::KIND {
                    sack = SackBlocks::decode(&opts[..len])
                        .filter(|_| sack.is_empty())
                        .ok_or(PcapError::Malformed("SACK option"))?;
                }
                opts = &opts[len..];
            }
        }
    }

    Ok(PcapPacket {
        ts_ns: 0, // filled by the block parser
        src: SockAddr::new(src_host, u16::from_be_bytes([tcp_seg[0], tcp_seg[1]])),
        dst: SockAddr::new(dst_host, u16::from_be_bytes([tcp_seg[2], tcp_seg[3]])),
        seq: u32::from_be_bytes([tcp_seg[4], tcp_seg[5], tcp_seg[6], tcp_seg[7]]),
        ack: u32::from_be_bytes([tcp_seg[8], tcp_seg[9], tcp_seg[10], tcp_seg[11]]),
        flags: flags_from_byte(tcp_seg[13]),
        window: u16::from_be_bytes([tcp_seg[14], tcp_seg[15]]),
        payload_len: tcp_seg.len() - data_offset,
        sack,
    })
}

/// Parse a little-endian pcapng capture produced by [`export`],
/// verifying IPv4 and TCP checksums along the way.
pub fn parse(bytes: &[u8]) -> Result<Vec<PcapPacket>, PcapError> {
    let mut buf = bytes;
    let mut packets = Vec::new();
    let mut saw_shb = false;
    while !buf.is_empty() {
        let header = take(&mut buf, 8, "block header")?;
        let block_type = u32le(&header[..4]);
        let total = u32le(&header[4..]) as usize;
        if total < 12 || total % 4 != 0 {
            return Err(PcapError::Malformed("block length"));
        }
        let body = take(&mut buf, total - 12, "block body")?;
        let trailer = take(&mut buf, 4, "block trailer")?;
        if u32le(trailer) as usize != total {
            return Err(PcapError::Malformed("trailing block length"));
        }
        match block_type {
            BLOCK_SHB => {
                if body.len() < 16 || u32le(&body[..4]) != BYTE_ORDER_MAGIC {
                    return Err(PcapError::Malformed("section header"));
                }
                saw_shb = true;
            }
            BLOCK_EPB => {
                if !saw_shb {
                    return Err(PcapError::Malformed("packet before section header"));
                }
                if body.len() < 20 {
                    return Err(PcapError::Malformed("packet block"));
                }
                let ts = (u64::from(u32le(&body[4..8])) << 32) | u64::from(u32le(&body[8..12]));
                let captured = u32le(&body[12..16]) as usize;
                if 20 + captured > body.len() {
                    return Err(PcapError::Malformed("captured length"));
                }
                let mut pkt = parse_frame(&body[20..20 + captured])?;
                pkt.ts_ns = ts;
                packets.push(pkt);
            }
            _ => {} // IDB and anything else: skipped
        }
    }
    if !saw_shb {
        return Err(PcapError::Malformed("no section header"));
    }
    Ok(packets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use bytes::Bytes;

    fn record(
        src: SockAddr,
        dst: SockAddr,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        payload_len: usize,
        at_ns: u64,
    ) -> TraceRecord {
        let segment = Segment {
            src,
            dst,
            seq,
            ack,
            flags,
            window: 32 * 1024,
            sack: Default::default(),
            payload: Bytes::from(vec![0xA5u8; payload_len]),
        };
        TraceRecord {
            sent: SimTime::from_nanos(at_ns.saturating_sub(1_000_000)),
            received: SimTime::from_nanos(at_ns),
            physical_bytes: segment.wire_len(),
            segment,
        }
    }

    #[test]
    fn checksum_matches_rfc1071_example() {
        // Classic example from RFC 1071 §3.
        let words = [0x0001u16, 0xf203, 0xf4f5, 0xf6f7];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        assert_eq!(checksum(&[&bytes]), !0xddf2);
    }

    #[test]
    fn checksum_handles_odd_and_split_chunks() {
        let whole = [1u8, 2, 3, 4, 5];
        let split: &[&[u8]] = &[&whole[..3], &whole[3..]];
        assert_eq!(checksum(&[&whole]), checksum(split));
    }

    #[test]
    fn round_trip_preserves_headers() {
        let c = SockAddr::new(HostId(2), 40_000);
        let s = SockAddr::new(HostId(0), 80);
        let records = vec![
            record(c, s, 0, 0, TcpFlags::SYN, 0, 5_000_000),
            record(s, c, 0, 1, TcpFlags::SYN_ACK, 0, 10_000_000),
            record(c, s, 1, 1, TcpFlags::ACK, 0, 15_000_000),
            record(c, s, 1, 1, TcpFlags::ACK, 120, 16_000_000),
            record(s, c, 1, 121, TcpFlags::ACK, 1460, 22_000_000),
            record(
                s,
                c,
                1461,
                121,
                TcpFlags {
                    fin: true,
                    ack: true,
                    psh: true,
                    ..Default::default()
                },
                500,
                30_000_000,
            ),
        ];
        let bytes = export((&records).into());
        let packets = parse(&bytes).expect("capture parses");
        assert_eq!(packets.len(), records.len());
        for (pkt, rec) in packets.iter().zip(&records) {
            assert_eq!(pkt.ts_ns, rec.received.as_nanos());
            assert_eq!(pkt.src, rec.segment.src);
            assert_eq!(pkt.dst, rec.segment.dst);
            assert_eq!(pkt.seq, rec.segment.seq);
            assert_eq!(pkt.ack, rec.segment.ack);
            assert_eq!(pkt.flags, rec.segment.flags);
            assert_eq!(pkt.payload_len, rec.segment.payload.len());
            assert_eq!(pkt.window, rec.segment.window.min(0xffff) as u16);
        }
    }

    #[test]
    fn sack_blocks_survive_the_wire() {
        let c = SockAddr::new(HostId(1), 40_000);
        let s = SockAddr::new(HostId(0), 80);
        let mut rec = record(c, s, 100, 5000, TcpFlags::ACK, 0, 1_000_000);
        assert!(rec.segment.sack.push(7300, 8760));
        assert!(rec.segment.sack.push(11_680, 13_140));
        let sack = rec.segment.sack;
        let packets = parse(&export((&[rec]).into())).expect("capture parses");
        assert_eq!(packets[0].sack, sack);
    }

    #[test]
    fn an_inverted_sack_block_is_malformed() {
        let c = SockAddr::new(HostId(1), 40_000);
        let s = SockAddr::new(HostId(0), 80);
        let mut rec = record(c, s, 100, 5000, TcpFlags::ACK, 0, 1_000_000);
        assert!(rec.segment.sack.push(7300, 8760));
        let mut bytes = export((&[rec]).into());
        // Swap the block's edges. The TCP checksum sums 16-bit words, so
        // it still verifies: only the option decoder can refuse this.
        let block = [7300u32.to_be_bytes(), 8760u32.to_be_bytes()].concat();
        let at = bytes.windows(8).position(|w| w == block).unwrap();
        bytes[at..at + 8].rotate_left(4);
        assert_eq!(parse(&bytes), Err(PcapError::Malformed("SACK option")));
    }

    #[test]
    fn window_clamps_to_u16() {
        let c = SockAddr::new(HostId(1), 40_000);
        let s = SockAddr::new(HostId(0), 80);
        let mut rec = record(c, s, 0, 0, TcpFlags::ACK, 0, 1_000_000);
        rec.segment.window = 1 << 20;
        let packets = parse(&export((&[rec]).into())).expect("capture parses");
        assert_eq!(packets[0].window, 0xffff);
    }

    #[test]
    fn corrupted_byte_fails_checksum() {
        let c = SockAddr::new(HostId(1), 40_000);
        let s = SockAddr::new(HostId(0), 80);
        let rec = record(c, s, 0, 0, TcpFlags::ACK, 64, 1_000_000);
        let mut bytes = export((&[rec]).into());
        // Flip one payload byte inside the packet block.
        let last = bytes.len() - 8;
        bytes[last] ^= 0xff;
        assert!(matches!(parse(&bytes), Err(PcapError::BadChecksum(_))));
    }

    #[test]
    fn stats_only_trace_is_rejected() {
        let mut trace = Trace::default();
        trace.set_mode(crate::TraceMode::StatsOnly);
        assert!(export_trace(&trace).is_err());
    }

    #[test]
    fn export_is_deterministic() {
        let c = SockAddr::new(HostId(1), 40_000);
        let s = SockAddr::new(HostId(0), 80);
        let recs = vec![
            record(c, s, 0, 0, TcpFlags::SYN, 0, 1_000_000),
            record(s, c, 0, 1, TcpFlags::SYN_ACK, 0, 2_000_000),
        ];
        assert_eq!(export((&recs).into()), export((&recs).into()));
    }
}
