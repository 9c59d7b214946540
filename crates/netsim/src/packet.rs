//! The wire unit of the simulator: a TCP segment with an IP-level address.
//!
//! The simulator does not serialize real byte-level headers; instead each
//! [`Segment`] carries structured fields and the byte accounting assumes the
//! classic 40-byte TCP/IP header (20 bytes IPv4 + 20 bytes TCP, no options),
//! which is how the paper computes its `%ov` overhead column.

use crate::seq::Seq;
use bytes::Bytes;
use std::fmt;

/// Identifies a simulated host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u16);

/// A transport address: host plus TCP port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SockAddr {
    /// The host part of the address.
    pub host: HostId,
    /// The TCP port.
    pub port: u16,
}

impl SockAddr {
    /// Construct from host and port.
    pub const fn new(host: HostId, port: u16) -> Self {
        SockAddr { host, port }
    }
}

impl fmt::Display for SockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}:{}", self.host.0, self.port)
    }
}

/// TCP header flags carried by a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Synchronize: opens a connection.
    pub syn: bool,
    /// The acknowledgement number is valid.
    pub ack: bool,
    /// No more data from the sender (half-close).
    pub fin: bool,
    /// Abort the connection.
    pub rst: bool,
    /// Push: deliver promptly to the application.
    pub psh: bool,
}

impl TcpFlags {
    /// A bare SYN (active open).
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };
    /// SYN+ACK (passive-open reply).
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// A plain acknowledgement.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// FIN piggybacked on an acknowledgement.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
        psh: false,
    };
    /// A bare reset.
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
        psh: false,
    };
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (set, c) in [
            (self.syn, 'S'),
            (self.fin, 'F'),
            (self.rst, 'R'),
            (self.psh, 'P'),
            (self.ack, '.'),
        ] {
            if set {
                write!(f, "{c}")?;
                any = true;
            }
        }
        if !any {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// Size in bytes of the combined IPv4 + TCP headers without options.
pub const TCP_IP_HEADER_BYTES: usize = 40;

/// Selective-acknowledgement blocks carried as a TCP option (RFC 2018).
///
/// Up to four `[start, end)` ranges of sequence space the receiver holds
/// above its cumulative ACK, in sequence order. [`SackBlocks::encode`]
/// and [`SackBlocks::decode`] are the option's one codec, with the
/// wire's 8-byte blocks. Empty on every segment unless the sender's
/// congestion control is `CcVariant::Sack`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SackBlocks {
    len: u8,
    blocks: [(u32, u32); 4],
}

impl SackBlocks {
    /// No blocks: the option is absent from the segment.
    pub const NONE: SackBlocks = SackBlocks {
        len: 0,
        blocks: [(0, 0); 4],
    };

    /// TCP option kind byte for SACK (RFC 2018).
    pub const KIND: u8 = 5;

    /// True when no blocks are carried.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks carried (0..=4).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Append a block, keeping sequence order; returns false (and drops
    /// the block) once four are held — the option space is full.
    pub fn push(&mut self, start: u32, end: u32) -> bool {
        debug_assert!(Seq::new(start).before(Seq::new(end)), "empty SACK block");
        if self.len as usize == self.blocks.len() {
            return false;
        }
        self.blocks[self.len as usize] = (start, end);
        self.len += 1;
        true
    }

    /// The carried `[start, end)` ranges, in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.blocks[..self.len as usize].iter().copied()
    }

    /// Bytes of TCP option space [`Segment::wire_len`] charges for the
    /// option: zero when empty, otherwise 2 + 16·n rounded up to the
    /// 4-byte option boundary. That is twice the wire's 8-byte blocks,
    /// kept because every pinned SACK digest was measured under it;
    /// charging the 4 + 8·n bytes [`SackBlocks::encode`] writes is a
    /// fidelity change that re-pins them.
    pub fn wire_bytes(&self) -> usize {
        if self.len == 0 {
            return 0;
        }
        let raw = 2 + 16 * self.len as usize;
        raw.div_ceil(4) * 4
    }

    /// Bytes [`SackBlocks::encode`] writes: 4 + 8·n, a multiple of four,
    /// or none when empty.
    pub fn encoded_len(&self) -> usize {
        if self.len == 0 {
            return 0;
        }
        4 + 8 * self.len()
    }

    /// Append the option as it goes on the wire (RFC 2018): two NOPs
    /// (0x01) for alignment, kind, length 2 + 8·n, and each block as two
    /// big-endian 32-bit edges. Nothing when empty.
    pub fn encode(&self, out: &mut Vec<u8>) {
        if self.len == 0 {
            return;
        }
        out.extend_from_slice(&[1, 1, Self::KIND, 2 + 8 * self.len]);
        for (start, end) in self.iter() {
            out.extend_from_slice(&start.to_be_bytes());
            out.extend_from_slice(&end.to_be_bytes());
        }
    }

    /// Parse one option as [`SackBlocks::encode`] writes it: leading
    /// NOPs, then kind 5 and exactly its length of bytes. An empty
    /// slice is no option. Returns `None` on a wrong kind or length, on
    /// no blocks or more than four, and on a block that is empty or
    /// inverted on the sequence circle.
    pub fn decode(bytes: &[u8]) -> Option<SackBlocks> {
        let nops = bytes.iter().take_while(|&&b| b == 1).count();
        let [kind, len, blocks @ ..] = &bytes[nops..] else {
            return bytes.is_empty().then_some(SackBlocks::NONE);
        };
        if *kind != Self::KIND || usize::from(*len) != bytes.len() - nops || blocks.len() % 8 != 0 {
            return None;
        }
        let mut out = SackBlocks::NONE;
        for block in blocks.chunks_exact(8) {
            let edge = |at: usize| {
                u32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
            };
            let (start, end) = (edge(0), edge(4));
            if !Seq::new(start).before(Seq::new(end)) || !out.push(start, end) {
                return None;
            }
        }
        (!out.is_empty()).then_some(out)
    }
}

impl fmt::Display for SackBlocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (start, end)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{start}-{end}")?;
        }
        Ok(())
    }
}

/// A simulated TCP segment in flight.
///
/// Sequence and acknowledgement numbers are the wire's 32-bit values;
/// [`crate::seq::Seq`] is their arithmetic.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Sender address.
    pub src: SockAddr,
    /// Destination address.
    pub dst: SockAddr,
    /// First sequence number this segment occupies.
    pub seq: u32,
    /// Cumulative acknowledgement (next expected octet).
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window advertised by the sender, in bytes.
    pub window: usize,
    /// Selective-acknowledgement option blocks (empty unless the sender
    /// runs SACK congestion control).
    pub sack: SackBlocks,
    /// Application bytes carried.
    pub payload: Bytes,
}

impl Segment {
    /// Total bytes this segment occupies on the wire, headers included
    /// (plus SACK option bytes when the option is present).
    pub fn wire_len(&self) -> usize {
        TCP_IP_HEADER_BYTES + self.sack.wire_bytes() + self.payload.len()
    }

    /// The amount of sequence space this segment consumes
    /// (payload bytes, plus one for SYN and one for FIN).
    pub fn seq_space(&self) -> usize {
        self.payload.len() + usize::from(self.flags.syn) + usize::from(self.flags.fin)
    }

    /// The sequence number of the octet just past this segment.
    pub fn seq_end(&self) -> u32 {
        (Seq::new(self.seq) + self.seq_space()).raw()
    }

    /// True if the segment carries application payload.
    pub fn has_payload(&self) -> bool {
        !self.payload.is_empty()
    }

    /// A pure RST segment aborting the connection identified by `src`/`dst`.
    pub fn rst(src: SockAddr, dst: SockAddr, seq: u32) -> Segment {
        Segment {
            src,
            dst,
            seq,
            ack: 0,
            flags: TcpFlags::RST,
            window: 0,
            sack: SackBlocks::NONE,
            payload: Bytes::new(),
        }
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} > {} [{}] seq {} ack {} win {} len {}",
            self.src,
            self.dst,
            self.flags,
            self.seq,
            self.ack,
            self.window,
            self.payload.len()
        )?;
        if !self.sack.is_empty() {
            write!(f, " sack {}", self.sack)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(flags: TcpFlags, len: usize) -> Segment {
        Segment {
            src: SockAddr::new(HostId(0), 1000),
            dst: SockAddr::new(HostId(1), 80),
            seq: 100,
            ack: 0,
            flags,
            window: 32768,
            sack: SackBlocks::NONE,
            payload: Bytes::from(vec![0u8; len]),
        }
    }

    #[test]
    fn wire_len_includes_headers() {
        assert_eq!(seg(TcpFlags::ACK, 0).wire_len(), 40);
        assert_eq!(seg(TcpFlags::ACK, 1460).wire_len(), 1500);
    }

    #[test]
    fn seq_space_counts_syn_and_fin() {
        assert_eq!(seg(TcpFlags::SYN, 0).seq_space(), 1);
        assert_eq!(seg(TcpFlags::FIN_ACK, 0).seq_space(), 1);
        assert_eq!(seg(TcpFlags::ACK, 10).seq_space(), 10);
        let mut s = seg(TcpFlags::FIN_ACK, 10);
        s.flags.syn = false;
        assert_eq!(s.seq_space(), 11);
        assert_eq!(s.seq_end(), 111);
    }

    #[test]
    fn flags_display() {
        assert_eq!(format!("{}", TcpFlags::SYN), "S");
        assert_eq!(format!("{}", TcpFlags::SYN_ACK), "S.");
        assert_eq!(format!("{}", TcpFlags::FIN_ACK), "F.");
        assert_eq!(format!("{}", TcpFlags::default()), "-");
    }

    #[test]
    fn segment_display_is_tcpdump_like() {
        let s = seg(TcpFlags::SYN, 0);
        assert_eq!(
            format!("{s}"),
            "h0:1000 > h1:80 [S] seq 100 ack 0 win 32768 len 0"
        );
    }

    #[test]
    fn sack_wire_bytes_follow_option_padding() {
        let mut b = SackBlocks::NONE;
        assert_eq!(b.wire_bytes(), 0);
        b.push(100, 200);
        assert_eq!(b.wire_bytes(), 20); // 2 + 16, padded to 20
        b.push(300, 400);
        assert_eq!(b.wire_bytes(), 36); // 2 + 32, padded to 36
        b.push(500, 600);
        assert_eq!(b.wire_bytes(), 52);
        assert!(b.push(700, 800));
        assert_eq!(b.wire_bytes(), 68);
        assert!(!b.push(900, 1000), "fifth block must be rejected");
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn sack_option_encodes_and_decodes_round_trip() {
        let mut b = SackBlocks::NONE;
        b.push(1461, 2921);
        b.push(4381, 5841);
        let mut wire = Vec::new();
        b.encode(&mut wire);
        assert_eq!(wire[..4], [1, 1, SackBlocks::KIND, 18]);
        assert_eq!(wire.len(), 4 + 8 * b.len());
        assert_eq!(wire.len(), b.encoded_len());
        assert_eq!(SackBlocks::decode(&wire), Some(b));
        assert_eq!(SackBlocks::decode(&wire[2..]), Some(b), "NOPs are optional");
        assert_eq!(SackBlocks::decode(&[]), Some(SackBlocks::NONE));
        assert_eq!(SackBlocks::decode(&[7, 18]), None, "wrong option kind");
        assert_eq!(SackBlocks::decode(&wire[..10]), None, "truncated");
    }

    #[test]
    fn sack_decode_refuses_what_push_would_not_hold() {
        let option = |blocks: &[(u32, u32)]| {
            let mut out = vec![SackBlocks::KIND, 2 + 8 * blocks.len() as u8];
            for (start, end) in blocks {
                out.extend_from_slice(&start.to_be_bytes());
                out.extend_from_slice(&end.to_be_bytes());
            }
            out
        };
        assert_eq!(SackBlocks::decode(&option(&[])), None, "no blocks");
        assert_eq!(SackBlocks::decode(&option(&[(9, 9)])), None, "empty block");
        assert_eq!(
            SackBlocks::decode(&option(&[(9, 5)])),
            None,
            "inverted block"
        );
        assert_eq!(
            SackBlocks::decode(&option(&[(1, 2); 5])),
            None,
            "five blocks"
        );
        // A block across the wrap is a block.
        let wrapped = SackBlocks::decode(&option(&[(u32::MAX - 9, 10)])).unwrap();
        assert_eq!(wrapped.iter().collect::<Vec<_>>(), [(u32::MAX - 9, 10)]);
    }

    #[test]
    fn seq_end_wraps_at_the_top_of_the_space() {
        let mut s = seg(TcpFlags::ACK, 1000);
        s.seq = u32::MAX - 999;
        assert_eq!(s.seq_end(), 0);
        s.flags.fin = true;
        assert_eq!(s.seq_end(), 1);
    }

    #[test]
    fn sack_segment_accounting_and_display() {
        let mut s = seg(TcpFlags::ACK, 0);
        s.sack.push(1461, 2921);
        assert_eq!(s.wire_len(), 60); // 40 header + 20 option
        assert_eq!(
            format!("{s}"),
            "h0:1000 > h1:80 [.] seq 100 ack 0 win 32768 len 0 sack 1461-2921"
        );
    }
}
