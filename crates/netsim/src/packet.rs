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
/// above its cumulative ACK, ascending and disjoint. The simulator's
/// sequence numbers are 64-bit, so the modelled option is kind 5 with
/// 16-byte blocks (2 + 16·n option bytes, NOP-padded to a 4-byte
/// boundary) rather than the wire's 8-byte blocks — the byte accounting
/// in [`Segment::wire_len`] reflects that. Empty on every segment unless
/// the sender's congestion control is `CcVariant::Sack`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SackBlocks {
    len: u8,
    blocks: [(u64, u64); 4],
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

    /// Append a block, keeping ascending order; returns false (and drops
    /// the block) once four are held — the option space is full.
    pub fn push(&mut self, start: u64, end: u64) -> bool {
        debug_assert!(Seq::new(start).before(Seq::new(end)), "empty SACK block");
        if self.len as usize == self.blocks.len() {
            return false;
        }
        self.blocks[self.len as usize] = (start, end);
        self.len += 1;
        true
    }

    /// The carried `[start, end)` ranges, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.blocks[..self.len as usize].iter().copied()
    }

    /// Bytes of TCP option space this option occupies on the wire:
    /// zero when empty, otherwise 2 + 16·n rounded up to the 4-byte
    /// option boundary with NOP padding.
    pub fn wire_bytes(&self) -> usize {
        if self.len == 0 {
            return 0;
        }
        let raw = 2 + 16 * self.len as usize;
        raw.div_ceil(4) * 4
    }

    /// Serialize as option bytes: kind, length, big-endian `u64` pairs,
    /// NOP (0x01) padding to the 4-byte boundary.
    pub fn encode(&self, out: &mut Vec<u8>) {
        if self.len == 0 {
            return;
        }
        let raw = 2 + 16 * self.len as usize;
        out.push(Self::KIND);
        out.push(raw as u8);
        for (start, end) in self.iter() {
            out.extend_from_slice(&start.to_be_bytes());
            out.extend_from_slice(&end.to_be_bytes());
        }
        for _ in raw..self.wire_bytes() {
            out.push(0x01); // NOP
        }
    }

    /// Parse option bytes produced by [`SackBlocks::encode`]. Returns
    /// `None` on a malformed option (bad kind, length not 2 + 16·n,
    /// n > 4, or truncated input).
    pub fn decode(bytes: &[u8]) -> Option<SackBlocks> {
        if bytes.is_empty() {
            return Some(SackBlocks::NONE);
        }
        if bytes.len() < 2 || bytes[0] != Self::KIND {
            return None;
        }
        let raw = bytes[1] as usize;
        if raw < 2 + 16 || (raw - 2) % 16 != 0 || raw > bytes.len() {
            return None;
        }
        let n = (raw - 2) / 16;
        if n > 4 {
            return None;
        }
        let mut out = SackBlocks::NONE;
        for i in 0..n {
            let at = 2 + 16 * i;
            let start = u64::from_be_bytes(bytes[at..at + 8].try_into().ok()?);
            let end = u64::from_be_bytes(bytes[at + 8..at + 16].try_into().ok()?);
            out.push(start, end);
        }
        Some(out)
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
/// Sequence and acknowledgement numbers are absolute `u64` offsets from the
/// connection's initial sequence number; a simulator has no need to model
/// 32-bit wraparound and absolute numbers make traces easy to read.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Sender address.
    pub src: SockAddr,
    /// Destination address.
    pub dst: SockAddr,
    /// First sequence number this segment occupies.
    pub seq: u64,
    /// Cumulative acknowledgement (next expected octet).
    pub ack: u64,
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
    pub fn seq_space(&self) -> u64 {
        self.payload.len() as u64 + u64::from(self.flags.syn) + u64::from(self.flags.fin)
    }

    /// The sequence number of the octet just past this segment.
    pub fn seq_end(&self) -> u64 {
        self.seq + self.seq_space()
    }

    /// True if the segment carries application payload.
    pub fn has_payload(&self) -> bool {
        !self.payload.is_empty()
    }

    /// A pure RST segment aborting the connection identified by `src`/`dst`.
    pub fn rst(src: SockAddr, dst: SockAddr, seq: u64) -> Segment {
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
        assert_eq!(wire.len(), b.wire_bytes());
        assert_eq!(wire[0], SackBlocks::KIND);
        assert_eq!(SackBlocks::decode(&wire), Some(b));
        assert_eq!(SackBlocks::decode(&[]), Some(SackBlocks::NONE));
        assert_eq!(SackBlocks::decode(&[7, 18]), None, "wrong option kind");
        assert_eq!(SackBlocks::decode(&wire[..10]), None, "truncated");
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
