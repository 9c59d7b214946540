//! Point-to-point link model.
//!
//! A [`Link`] connects two hosts with independent per-direction state:
//! bandwidth (serialization delay), propagation delay, a composable
//! impairment pipeline ([`crate::impair`]: loss, jitter, reordering,
//! duplication, outages, queue bounds), and an optional link-level
//! compressor modelling V.42bis modem compression.
//!
//! The link is a FIFO per direction: a packet begins transmission when the
//! previous one has finished serializing, and arrives one propagation delay
//! after its serialization completes. This reproduces the queueing that makes
//! a 28.8 kbps modem downlink the bottleneck in the paper's PPP tests.
//! Jitter can add extra delay on top, and — only when reordering is
//! explicitly enabled — break the FIFO property.

use crate::impair::{DropReason, ImpairConfig, ImpairState, LossModel};
use crate::packet::{HostId, Segment};
use crate::time::{SimDuration, SimTime};

/// A stateful link-level compressor applied to each packet's bytes to decide
/// how long the packet occupies the wire.
///
/// This models modem data compression (ITU V.42bis): the packet still exists
/// as a packet (counts are unchanged) but its serialization time shrinks when
/// the payload is compressible. Implementations keep dictionary state across
/// packets in one direction, as a real modem does for the whole PPP byte
/// stream.
pub trait LinkCodec: Send {
    /// Returns the number of bytes actually sent on the wire for a packet of
    /// `wire_bytes` whose application payload is `payload`.
    ///
    /// Headers are assumed incompressible; implementations typically compress
    /// only the payload portion and add back `wire_bytes - payload.len()`.
    fn wire_bytes(&mut self, wire_bytes: usize, payload: &[u8]) -> usize;

    /// A short human-readable name used in traces.
    fn name(&self) -> &'static str;
}

/// Configuration for one link between two hosts (symmetric by default).
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Bandwidth in bits per second; `None` means infinitely fast
    /// serialization (useful for idealized tests).
    pub bits_per_sec: Option<u64>,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Impairments applied to each direction (independent random streams).
    pub impair: ImpairConfig,
    /// Tail-drop buffer bound in bytes per direction; `None` means the
    /// queue is unbounded. Only payload-bearing packets are dropped, the
    /// same courtesy the loss models extend to pure ACKs.
    pub buffer_bytes: Option<u64>,
}

impl LinkConfig {
    /// 10 Mbit/s Ethernet LAN, sub-millisecond RTT (Table 1, row 1).
    pub fn lan() -> Self {
        LinkConfig {
            bits_per_sec: Some(10_000_000),
            propagation: SimDuration::from_micros(250),
            impair: ImpairConfig::none(),
            buffer_bytes: None,
        }
    }

    /// Transcontinental WAN: high bandwidth, ~90 ms RTT (Table 1, row 2).
    pub fn wan() -> Self {
        LinkConfig {
            bits_per_sec: Some(10_000_000),
            propagation: SimDuration::from_millis(45),
            impair: ImpairConfig::none(),
            buffer_bytes: None,
        }
    }

    /// 28.8 kbps dialup PPP, ~150 ms RTT (Table 1, row 3).
    pub fn ppp() -> Self {
        LinkConfig {
            bits_per_sec: Some(28_800),
            propagation: SimDuration::from_millis(75),
            impair: ImpairConfig::none(),
            buffer_bytes: None,
        }
    }

    /// An ideal link: no serialization delay, fixed propagation.
    pub fn ideal(propagation: SimDuration) -> Self {
        LinkConfig {
            bits_per_sec: None,
            propagation,
            impair: ImpairConfig::none(),
            buffer_bytes: None,
        }
    }

    /// Returns a copy dropping every `n`-th data packet per direction — a
    /// thin constructor over [`LossModel::EveryNth`], kept for the
    /// deterministic loss/retransmission tests.
    pub fn with_drop_every(mut self, n: u64) -> Self {
        assert!(n > 0, "drop interval must be positive");
        self.impair.loss = LossModel::EveryNth { n };
        self
    }

    /// Returns a copy with the given impairment pipeline installed.
    pub fn with_impairment(mut self, impair: ImpairConfig) -> Self {
        self.impair = impair;
        self
    }

    /// Returns a copy with a tail-drop buffer bound of `bytes` per direction.
    pub fn with_buffer_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "buffer bound must be positive");
        self.buffer_bytes = Some(bytes);
        self
    }
}

/// Per-direction dynamic state.
struct Direction {
    /// Time at which the transmitter becomes free.
    busy_until: SimTime,
    /// Impairment pipeline state; `None` when the config is a pass-through.
    impair: Option<ImpairState>,
    codec: Option<Box<dyn LinkCodec>>,
}

impl Direction {
    fn new(cfg: &LinkConfig, index: u64) -> Self {
        Direction {
            busy_until: SimTime::ZERO,
            impair: ImpairState::new(&cfg.impair, index),
            codec: None,
        }
    }
}

/// The outcome of submitting a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transmit {
    /// The packet will arrive at the given time.
    Arrives(SimTime),
    /// The packet was duplicated in flight: the original and the copy
    /// arrive at the two given times.
    Duplicated(SimTime, SimTime),
    /// The packet was dropped for the given reason.
    Dropped(DropReason),
}

/// A full-duplex point-to-point link between hosts `a` and `b`.
pub struct Link {
    /// The a.
    pub a: HostId,
    /// The b.
    pub b: HostId,
    config: LinkConfig,
    a_to_b: Direction,
    b_to_a: Direction,
}

impl Link {
    /// Create a new, empty instance.
    pub fn new(a: HostId, b: HostId, config: LinkConfig) -> Self {
        let a_to_b = Direction::new(&config, 0);
        let b_to_a = Direction::new(&config, 1);
        Link {
            a,
            b,
            config,
            a_to_b,
            b_to_a,
        }
    }

    /// The link parameters.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Install a link-level compressor on both directions, constructed per
    /// direction by `make` (the dictionaries of the two directions are
    /// independent, as in a real modem pair).
    pub fn set_codec(&mut self, mut make: impl FnMut() -> Box<dyn LinkCodec>) {
        self.a_to_b.codec = Some(make());
        self.b_to_a.codec = Some(make());
    }

    /// Bytes currently queued for serialization in one direction at `now`:
    /// the backlog the tail-drop bound is compared against.
    fn backlog_bytes(busy_until: SimTime, now: SimTime, bits_per_sec: Option<u64>) -> u64 {
        match bits_per_sec {
            Some(bps) => {
                let ns = busy_until.since(now).as_nanos() as u128;
                (ns * bps as u128 / 8_000_000_000) as u64
            }
            None => 0,
        }
    }

    /// Bytes waiting to serialize in the direction a packet from `from`
    /// would take, observed at `now`: the transmitter backlog implied by
    /// `busy_until`. This is the quantity the tail-drop bound compares
    /// against, exposed for the telemetry queue-depth gauge.
    pub fn queued_bytes(&self, now: SimTime, from: HostId) -> u64 {
        let dir = if from == self.b {
            &self.b_to_a
        } else {
            &self.a_to_b
        };
        Self::backlog_bytes(dir.busy_until, now, self.config.bits_per_sec)
    }

    /// Submit `segment` for transmission at time `now`: returns the arrival
    /// time at the far end (or `Dropped` / `Duplicated`), plus the number
    /// of bytes the packet occupied on the physical wire after any link
    /// compression. Competing senders on a shared link serialize in
    /// submission order.
    pub fn transmit(&mut self, now: SimTime, from: HostId, segment: &Segment) -> (Transmit, usize) {
        let Link {
            config,
            a_to_b,
            b_to_a,
            ..
        } = self;
        // Any spoke of a shared link sits on the `a` side; only the hub
        // itself transmits in the b→a direction.
        let dir = if from == self.b { b_to_a } else { a_to_b };

        if segment.has_payload() {
            if let Some(cap) = config.buffer_bytes {
                let backlog = Self::backlog_bytes(dir.busy_until, now, config.bits_per_sec);
                if backlog + segment.wire_len() as u64 > cap {
                    return (Transmit::Dropped(DropReason::Queue), 0);
                }
            }
        }

        if let Some(st) = dir.impair.as_mut() {
            if let Some(reason) = st.pre_wire(&config.impair, now, segment.has_payload()) {
                return (Transmit::Dropped(reason), 0);
            }
        }

        let raw = segment.wire_len();
        let physical = match dir.codec.as_mut() {
            Some(codec) => codec.wire_bytes(raw, &segment.payload),
            None => raw,
        };

        let start = dir.busy_until.max(now);
        let tx = match config.bits_per_sec {
            Some(bps) => SimDuration::transmission(physical, bps),
            None => SimDuration::ZERO,
        };
        let done = start + tx;
        dir.busy_until = done;
        let nominal = done + config.propagation;

        match dir.impair.as_mut() {
            Some(st) => {
                // Duplicate copies trail the original by a fraction of the
                // propagation delay, as a copy taking a marginally longer
                // path would.
                let gap = SimDuration::from_nanos(config.propagation.as_nanos() / 8)
                    .max(SimDuration::from_micros(1));
                match st.post_wire(&config.impair, nominal, gap) {
                    (at, Some(dup_at)) => (Transmit::Duplicated(at, dup_at), physical),
                    (at, None) => (Transmit::Arrives(at), physical),
                }
            }
            None => (Transmit::Arrives(nominal), physical),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impair::JitterModel;
    use crate::packet::{SockAddr, TcpFlags};
    use bytes::Bytes;

    fn seg(len: usize) -> Segment {
        Segment {
            src: SockAddr::new(HostId(0), 1),
            dst: SockAddr::new(HostId(1), 2),
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 0,
            sack: crate::packet::SackBlocks::NONE,
            payload: Bytes::from(vec![b'x'; len]),
        }
    }

    #[test]
    fn fifo_serialization() {
        // Two 1460-byte packets on 10 Mbit/s: second arrives one
        // serialization time after the first.
        let mut link = Link::new(HostId(0), HostId(1), LinkConfig::lan());
        let (t1, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(1460));
        let (t2, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(1460));
        let (Transmit::Arrives(t1), Transmit::Arrives(t2)) = (t1, t2) else {
            panic!("expected arrivals");
        };
        let tx = SimDuration::transmission(1500, 10_000_000);
        assert_eq!(t2.since(t1), tx);
    }

    #[test]
    fn directions_are_independent() {
        let mut link = Link::new(HostId(0), HostId(1), LinkConfig::ppp());
        let (a, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(512));
        let (b, _) = link.transmit(SimTime::ZERO, HostId(1), &seg(512));
        assert_eq!(
            a, b,
            "full duplex: reverse direction does not queue behind forward"
        );
    }

    #[test]
    fn ideal_link_has_only_propagation() {
        let mut link = Link::new(
            HostId(0),
            HostId(1),
            LinkConfig::ideal(SimDuration::from_millis(10)),
        );
        let (t, _) = link.transmit(SimTime::from_nanos(5), HostId(0), &seg(100_000));
        assert_eq!(
            t,
            Transmit::Arrives(SimTime::from_nanos(5) + SimDuration::from_millis(10))
        );
    }

    #[test]
    fn deterministic_drop_model() {
        let mut link = Link::new(HostId(0), HostId(1), LinkConfig::lan().with_drop_every(3));
        let mut outcomes = Vec::new();
        for _ in 0..6 {
            let (o, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(100));
            outcomes.push(matches!(o, Transmit::Dropped(_)));
        }
        assert_eq!(outcomes, vec![false, false, true, false, false, true]);
    }

    #[test]
    fn pure_acks_never_dropped() {
        let mut link = Link::new(HostId(0), HostId(1), LinkConfig::lan().with_drop_every(1));
        let (o, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(0));
        assert!(matches!(o, Transmit::Arrives(_)));
    }

    #[test]
    fn drop_reason_reported() {
        let mut link = Link::new(HostId(0), HostId(1), LinkConfig::lan().with_drop_every(1));
        let (o, wire) = link.transmit(SimTime::ZERO, HostId(0), &seg(10));
        assert_eq!(o, Transmit::Dropped(DropReason::Loss));
        assert_eq!(wire, 0, "dropped packets never touch the wire");
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn outage_drops_then_recovers() {
        let cfg = LinkConfig::lan()
            .with_impairment(ImpairConfig::none().with_outage(at_ms(10), at_ms(20)));
        let mut link = Link::new(HostId(0), HostId(1), cfg);
        let (up, _) = link.transmit(at_ms(5), HostId(0), &seg(100));
        assert!(matches!(up, Transmit::Arrives(_)));
        let (down, _) = link.transmit(at_ms(15), HostId(0), &seg(100));
        assert_eq!(down, Transmit::Dropped(DropReason::Outage));
        let (later, _) = link.transmit(at_ms(25), HostId(0), &seg(100));
        assert!(matches!(later, Transmit::Arrives(_)));
    }

    #[test]
    fn duplication_produces_two_arrivals() {
        let cfg = LinkConfig::lan().with_impairment(ImpairConfig::none().with_duplication(1.0));
        let mut link = Link::new(HostId(0), HostId(1), cfg);
        let (o, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(100));
        let Transmit::Duplicated(first, second) = o else {
            panic!("expected duplication, got {o:?}");
        };
        assert!(second > first);
    }

    #[test]
    fn jitter_without_reorder_stays_fifo() {
        let cfg =
            LinkConfig::lan().with_impairment(ImpairConfig::none().with_seed(77).with_jitter(
                JitterModel::Uniform {
                    min: SimDuration::ZERO,
                    max: SimDuration::from_millis(20),
                },
            ));
        let mut link = Link::new(HostId(0), HostId(1), cfg);
        let mut last = SimTime::ZERO;
        for i in 0..200u64 {
            let now = SimTime::from_nanos(i * 10_000);
            let (o, _) = link.transmit(now, HostId(0), &seg(100));
            let Transmit::Arrives(at) = o else {
                panic!("no loss configured")
            };
            assert!(at >= last, "packet {i} overtook its predecessor");
            last = at;
        }
    }

    struct HalfCodec;
    impl LinkCodec for HalfCodec {
        fn wire_bytes(&mut self, wire: usize, payload: &[u8]) -> usize {
            wire - payload.len() + payload.len() / 2
        }
        fn name(&self) -> &'static str {
            "half"
        }
    }

    #[test]
    fn fifo_buffer_bound_tail_drops() {
        // 10 Mbit/s with a 3000-byte buffer: the third 1460-byte packet
        // submitted at the same instant exceeds the bound and is dropped.
        let mut link = Link::new(
            HostId(0),
            HostId(1),
            LinkConfig::lan().with_buffer_bytes(3_000),
        );
        let (t1, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(1460));
        assert!(matches!(t1, Transmit::Arrives(_)));
        let (t2, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(1460));
        assert!(matches!(t2, Transmit::Arrives(_)));
        let (t3, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(1460));
        assert_eq!(t3, Transmit::Dropped(DropReason::Queue));
        // Pure ACKs pass even when the buffer is full.
        let (ack, _) = link.transmit(SimTime::ZERO, HostId(0), &seg(0));
        assert!(matches!(ack, Transmit::Arrives(_)));
    }

    #[test]
    fn codec_shrinks_wire_time() {
        let mut plain = Link::new(HostId(0), HostId(1), LinkConfig::ppp());
        let mut compressed = Link::new(HostId(0), HostId(1), LinkConfig::ppp());
        compressed.set_codec(|| Box::new(HalfCodec));
        let (outcome_p, raw) = plain.transmit(SimTime::ZERO, HostId(0), &seg(1000));
        let (outcome_c, small) = compressed.transmit(SimTime::ZERO, HostId(0), &seg(1000));
        let Transmit::Arrives(tp) = outcome_p else {
            panic!()
        };
        let Transmit::Arrives(tc) = outcome_c else {
            panic!()
        };
        assert!(tc < tp);
        assert_eq!(raw, 1040);
        assert_eq!(small, 540);
    }
}
