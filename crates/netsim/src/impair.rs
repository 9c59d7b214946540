//! Deterministic network impairment and fault injection.
//!
//! The paper measures protocols over clean links, but the interesting
//! protocol mechanics (slow start, fast retransmit, RTO backoff) only show
//! their character when the network misbehaves. This module provides a
//! composable impairment pipeline attached to each link direction:
//!
//! * **loss** — deterministic every-n-th, independent Bernoulli, or
//!   Gilbert–Elliott two-state bursty loss ([`LossModel`]);
//! * **jitter** — seeded random extra delay with a configurable
//!   distribution ([`JitterModel`]), optionally allowed to reorder packets;
//! * **duplication** — a delivered packet occasionally arrives twice;
//! * **outages** — scheduled down intervals during which every packet is
//!   dropped ([`Outage`]), including periodic link flaps.
//!
//! The tail-drop buffer in front of the link is not an impairment: it is
//! [`crate::LinkConfig::buffer_bytes`], enforced by the link itself.
//!
//! ## Determinism contract
//!
//! All randomness comes from one xoshiro256++ generator per link direction,
//! seeded from [`ImpairConfig::seed`] (each direction derives its own
//! stream, so forward and reverse impairments are independent but both
//! reproducible). Identical seeds and identical traffic yield byte-identical
//! traces — impairment decisions are part of the discrete-event state, never
//! wall-clock dependent. A configuration where every model is disabled draws
//! no random numbers at all and leaves packet timing bit-identical to an
//! unimpaired link. The pipeline degrades deterministically instead of
//! panicking: its non-test code may not `unwrap()`.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Why the link dropped a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The configured [`LossModel`] discarded it.
    Loss,
    /// It was sent while the link was inside a scheduled [`Outage`].
    Outage,
    /// The serialization backlog exceeded the configured queue bound.
    Queue,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DropReason::Loss => "loss",
            DropReason::Outage => "outage",
            DropReason::Queue => "queue",
        })
    }
}

/// Packet-loss models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No loss.
    None,
    /// Drop every `n`-th **data-bearing** packet per direction; pure ACKs
    /// are never dropped. This is the deterministic counting model the
    /// retransmission tests rely on (see `LinkConfig::with_drop_every`).
    EveryNth {
        /// The drop interval (`n = 1` drops every data packet).
        n: u64,
    },
    /// Independent (uniform) loss: every packet is dropped with
    /// probability `p`, ACKs included.
    Bernoulli {
        /// Per-packet drop probability in `[0, 1]`.
        p: f64,
    },
    /// Gilbert–Elliott two-state bursty loss. The chain starts in the good
    /// state, takes one transition step per packet, then drops the packet
    /// with the loss probability of the current state.
    GilbertElliott {
        /// Per-packet probability of moving good → bad.
        p_enter_bad: f64,
        /// Per-packet probability of moving bad → good.
        p_exit_bad: f64,
        /// Drop probability while in the good state (usually 0).
        loss_good: f64,
        /// Drop probability while in the bad state (1.0 for hard bursts).
        loss_bad: f64,
    },
}

impl LossModel {
    /// A Gilbert–Elliott parameterization from two intuitive knobs: the
    /// long-run mean loss fraction and the mean burst length in packets.
    /// Losses happen only in the bad state (with probability 1), so
    /// `p_exit_bad = 1 / mean_burst` and the stationary bad-state
    /// probability equals `mean_loss`.
    pub fn bursty(mean_loss: f64, mean_burst: f64) -> LossModel {
        assert!(
            (0.0..1.0).contains(&mean_loss),
            "mean loss must be in [0, 1)"
        );
        assert!(mean_burst >= 1.0, "mean burst length must be >= 1 packet");
        if mean_loss == 0.0 {
            return LossModel::None;
        }
        let p_exit_bad = 1.0 / mean_burst;
        let p_enter_bad = p_exit_bad * mean_loss / (1.0 - mean_loss);
        assert!(
            p_enter_bad <= 1.0,
            "mean loss {mean_loss} unreachable with burst length {mean_burst}"
        );
        LossModel::GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }

    fn is_none(&self) -> bool {
        matches!(self, LossModel::None)
    }
}

/// Distributions for the extra delay added to each delivered packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JitterModel {
    /// No extra delay.
    None,
    /// Uniform extra delay in `[min, max]`.
    Uniform {
        /// Smallest extra delay.
        min: SimDuration,
        /// Largest extra delay.
        max: SimDuration,
    },
    /// Exponentially distributed extra delay with the given mean,
    /// truncated at `cap` (a heavy-ish tail without unbounded stalls).
    Exponential {
        /// Mean of the untruncated distribution.
        mean: SimDuration,
        /// Hard upper bound on one sample.
        cap: SimDuration,
    },
}

impl JitterModel {
    fn is_none(&self) -> bool {
        matches!(self, JitterModel::None)
    }
}

/// One scheduled link-down window: packets submitted at `start <= t < end`
/// are dropped with [`DropReason::Outage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// First instant of the outage.
    pub start: SimTime,
    /// First instant after the outage.
    pub end: SimTime,
}

/// The full impairment description for one link. The same configuration is
/// applied to both directions, each with an independent random stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpairConfig {
    /// Seed for the per-direction random streams.
    pub seed: u64,
    /// The loss model.
    pub loss: LossModel,
    /// The jitter (extra delay) model.
    pub jitter: JitterModel,
    /// When false (the default), jittered arrivals are clamped so the link
    /// stays FIFO; when true, a lightly delayed packet may overtake a
    /// heavily delayed predecessor, producing genuine reordering.
    pub reorder: bool,
    /// Probability that a delivered packet arrives twice.
    pub duplicate: f64,
    /// Scheduled down windows, sorted by start time.
    pub outages: Vec<Outage>,
}

impl Default for ImpairConfig {
    fn default() -> Self {
        ImpairConfig {
            seed: 0,
            loss: LossModel::None,
            jitter: JitterModel::None,
            reorder: false,
            duplicate: 0.0,
            outages: Vec::new(),
        }
    }
}

impl ImpairConfig {
    /// An impairment-free configuration (every model disabled).
    pub fn none() -> Self {
        ImpairConfig::default()
    }

    /// True when every model is disabled: the pipeline is a no-op, draws
    /// no random numbers and never perturbs packet timing.
    pub fn is_passthrough(&self) -> bool {
        self.loss.is_none()
            && self.jitter.is_none()
            && self.duplicate == 0.0
            && self.outages.is_empty()
    }

    /// Replace the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the loss model.
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        if let LossModel::Bernoulli { p } = loss {
            assert!(
                (0.0..=1.0).contains(&p),
                "loss probability must be in [0,1]"
            );
        }
        self.loss = loss;
        self
    }

    /// Replace the jitter model.
    pub fn with_jitter(mut self, jitter: JitterModel) -> Self {
        if let JitterModel::Uniform { min, max } = jitter {
            assert!(min <= max, "jitter min must not exceed max");
        }
        self.jitter = jitter;
        self
    }

    /// Allow (or forbid) jitter-induced packet reordering.
    pub fn with_reorder(mut self, reorder: bool) -> Self {
        self.reorder = reorder;
        self
    }

    /// Set the per-packet duplication probability.
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplication probability must be in [0,1]"
        );
        self.duplicate = p;
        self
    }

    /// Append one scheduled outage window.
    pub fn with_outage(mut self, start: SimTime, end: SimTime) -> Self {
        assert!(start < end, "outage must have positive length");
        self.outages.push(Outage { start, end });
        self.outages.sort_by_key(|o| (o.start, o.end));
        self
    }

    /// Append `count` periodic link flaps: the link goes down for `down`
    /// starting at `first`, then again every `period`.
    pub fn with_flaps(
        mut self,
        first: SimTime,
        down: SimDuration,
        period: SimDuration,
        count: u32,
    ) -> Self {
        assert!(down < period, "flap down-time must be shorter than period");
        let mut start = first;
        for _ in 0..count {
            self = self.with_outage(start, start + down);
            start += period;
        }
        self
    }
}

/// Per-direction runtime state of the impairment pipeline.
#[derive(Debug)]
pub(crate) struct ImpairState {
    rng: SmallRng,
    /// Gilbert–Elliott chain state: currently in the bad state?
    bad: bool,
    /// Data-bearing packets seen (drives [`LossModel::EveryNth`]).
    data_packets: u64,
    /// Latest scheduled arrival, for FIFO clamping when reordering is off.
    last_arrival: SimTime,
    /// Cursor into the (sorted) outage list; submission times are
    /// monotone, so expired windows are skipped exactly once.
    outage_idx: usize,
}

impl ImpairState {
    /// Build the runtime state for one direction, or `None` when the
    /// configuration is a pass-through (the hot path skips the pipeline
    /// entirely and no RNG is ever seeded).
    pub(crate) fn new(cfg: &ImpairConfig, direction: u64) -> Option<ImpairState> {
        if cfg.is_passthrough() {
            return None;
        }
        // Give each direction its own stream: mix the direction index in
        // with an odd constant so seeds 0/1 don't collide with each other.
        let stream = cfg.seed ^ direction.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Some(ImpairState {
            rng: SmallRng::seed_from_u64(stream),
            bad: false,
            data_packets: 0,
            last_arrival: SimTime::ZERO,
            outage_idx: 0,
        })
    }

    /// Decisions made before the packet touches the wire: outage, loss.
    /// Returns the drop reason, or `None` to deliver.
    pub(crate) fn pre_wire(
        &mut self,
        cfg: &ImpairConfig,
        now: SimTime,
        has_payload: bool,
    ) -> Option<DropReason> {
        while self.outage_idx < cfg.outages.len() && cfg.outages[self.outage_idx].end <= now {
            self.outage_idx += 1;
        }
        if let Some(o) = cfg.outages.get(self.outage_idx) {
            if o.start <= now && now < o.end {
                return Some(DropReason::Outage);
            }
        }

        let lost = match cfg.loss {
            LossModel::None => false,
            LossModel::EveryNth { n } => {
                if has_payload {
                    self.data_packets += 1;
                    self.data_packets % n == 0
                } else {
                    false
                }
            }
            LossModel::Bernoulli { p } => p > 0.0 && self.rng.gen_bool(p),
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                if self.bad {
                    if p_exit_bad > 0.0 && self.rng.gen_bool(p_exit_bad) {
                        self.bad = false;
                    }
                } else if p_enter_bad > 0.0 && self.rng.gen_bool(p_enter_bad) {
                    self.bad = true;
                }
                let p = if self.bad { loss_bad } else { loss_good };
                p > 0.0 && self.rng.gen_bool(p)
            }
        };
        lost.then_some(DropReason::Loss)
    }

    /// Decisions made after serialization: jitter the nominal arrival time
    /// (clamped to FIFO order unless reordering is enabled) and roll for
    /// duplication. Returns the arrival time plus the optional time a
    /// duplicate copy arrives (`dup_gap` spaces the two copies).
    pub(crate) fn post_wire(
        &mut self,
        cfg: &ImpairConfig,
        nominal: SimTime,
        dup_gap: SimDuration,
    ) -> (SimTime, Option<SimTime>) {
        let mut arrival = nominal;
        if !cfg.jitter.is_none() {
            arrival += self.jitter_sample(&cfg.jitter);
            if !cfg.reorder {
                arrival = arrival.max(self.last_arrival);
            }
            self.last_arrival = self.last_arrival.max(arrival);
        }
        let dup = if cfg.duplicate > 0.0 && self.rng.gen_bool(cfg.duplicate) {
            let at = arrival + dup_gap;
            self.last_arrival = self.last_arrival.max(at);
            Some(at)
        } else {
            None
        };
        (arrival, dup)
    }

    #[expect(
        clippy::cast_precision_loss,
        reason = "inverse-transform sampling needs the mean in float ticks: \
                  the sampler is the ns-to-float boundary, and going through \
                  SimTime ops would change every seeded digest downstream"
    )]
    fn jitter_sample(&mut self, jitter: &JitterModel) -> SimDuration {
        match *jitter {
            JitterModel::None => SimDuration::ZERO,
            JitterModel::Uniform { min, max } => {
                SimDuration::from_nanos(self.rng.gen_range(min.as_nanos()..=max.as_nanos()))
            }
            JitterModel::Exponential { mean, cap } => {
                let u: f64 = self.rng.gen();
                let ns = -(mean.as_nanos() as f64) * (1.0 - u).ln();
                SimDuration::from_nanos((ns as u64).min(cap.as_nanos()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(cfg: &ImpairConfig) -> ImpairState {
        ImpairState::new(cfg, 0).expect("active config")
    }

    #[test]
    fn passthrough_detection() {
        assert!(ImpairConfig::none().is_passthrough());
        assert!(ImpairConfig::default().with_seed(7).is_passthrough());
        assert!(!ImpairConfig::default()
            .with_loss(LossModel::Bernoulli { p: 0.01 })
            .is_passthrough());
        assert!(ImpairState::new(&ImpairConfig::none(), 0).is_none());
    }

    #[test]
    fn bernoulli_rate_roughly_matches() {
        let cfg = ImpairConfig::default()
            .with_seed(42)
            .with_loss(LossModel::Bernoulli { p: 0.1 });
        let mut st = state(&cfg);
        let dropped = (0..100_000)
            .filter(|_| st.pre_wire(&cfg, SimTime::ZERO, true).is_some())
            .count();
        assert!((8_000..12_000).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    #[expect(
        clippy::cast_precision_loss,
        reason = "counts of at most 200 000 are exact in f64"
    )]
    fn bursty_loss_clusters() {
        // 10% loss in bursts of mean length 8: the number of distinct
        // burst starts must be far below the number of losses.
        let cfg = ImpairConfig::default()
            .with_seed(9)
            .with_loss(LossModel::bursty(0.10, 8.0));
        let mut st = state(&cfg);
        let outcomes: Vec<bool> = (0..200_000)
            .map(|_| st.pre_wire(&cfg, SimTime::ZERO, true).is_some())
            .collect();
        let losses = outcomes.iter().filter(|&&l| l).count();
        let bursts = outcomes.windows(2).filter(|w| !w[0] && w[1]).count().max(1);
        let mean_burst = losses as f64 / bursts as f64;
        assert!(
            (0.06..0.14).contains(&(losses as f64 / outcomes.len() as f64)),
            "loss rate off: {losses}"
        );
        assert!(mean_burst > 4.0, "bursts too short: {mean_burst}");
    }

    #[test]
    fn identical_seeds_identical_streams() {
        let cfg = ImpairConfig::default()
            .with_seed(0xFEED)
            .with_loss(LossModel::Bernoulli { p: 0.2 })
            .with_jitter(JitterModel::Uniform {
                min: SimDuration::ZERO,
                max: SimDuration::from_millis(5),
            })
            .with_reorder(true)
            .with_duplication(0.05);
        let run = |cfg: &ImpairConfig| {
            let mut st = state(cfg);
            (0..1000)
                .map(|i| {
                    let drop = st.pre_wire(cfg, SimTime::from_nanos(i), true);
                    let (at, dup) =
                        st.post_wire(cfg, SimTime::from_nanos(i), SimDuration::from_micros(1));
                    (drop, at, dup)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&cfg), run(&cfg));
    }

    #[test]
    fn directions_have_independent_streams() {
        let cfg = ImpairConfig::default()
            .with_seed(1)
            .with_loss(LossModel::Bernoulli { p: 0.5 });
        let mut fwd = ImpairState::new(&cfg, 0).unwrap();
        let mut rev = ImpairState::new(&cfg, 1).unwrap();
        let a: Vec<bool> = (0..64)
            .map(|_| fwd.pre_wire(&cfg, SimTime::ZERO, true).is_some())
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|_| rev.pre_wire(&cfg, SimTime::ZERO, true).is_some())
            .collect();
        assert_ne!(a, b, "directions must not share one stream");
    }

    #[test]
    fn outage_windows_drop_everything_inside() {
        let cfg =
            ImpairConfig::default().with_outage(SimTime::from_nanos(100), SimTime::from_nanos(200));
        let mut st = state(&cfg);
        assert_eq!(st.pre_wire(&cfg, SimTime::from_nanos(50), true), None);
        assert_eq!(
            st.pre_wire(&cfg, SimTime::from_nanos(100), false),
            Some(DropReason::Outage)
        );
        assert_eq!(
            st.pre_wire(&cfg, SimTime::from_nanos(199), true),
            Some(DropReason::Outage)
        );
        assert_eq!(st.pre_wire(&cfg, SimTime::from_nanos(200), true), None);
    }

    #[test]
    fn flaps_expand_to_periodic_outages() {
        let cfg = ImpairConfig::default().with_flaps(
            SimTime::from_nanos(1_000),
            SimDuration::from_nanos(100),
            SimDuration::from_nanos(500),
            3,
        );
        assert_eq!(cfg.outages.len(), 3);
        assert_eq!(cfg.outages[1].start, SimTime::from_nanos(1_500));
        assert_eq!(cfg.outages[2].end, SimTime::from_nanos(2_100));
        let mut st = state(&cfg);
        assert_eq!(
            st.pre_wire(&cfg, SimTime::from_nanos(1_550), true),
            Some(DropReason::Outage)
        );
        // After the last flap the link stays up.
        assert_eq!(st.pre_wire(&cfg, SimTime::from_nanos(9_999), true), None);
    }

    #[test]
    fn fifo_clamp_prevents_reordering() {
        let cfg = ImpairConfig::default()
            .with_seed(3)
            .with_jitter(JitterModel::Uniform {
                min: SimDuration::ZERO,
                max: SimDuration::from_millis(50),
            });
        let mut st = state(&cfg);
        let mut last = SimTime::ZERO;
        for i in 0..500u64 {
            let nominal = SimTime::from_nanos(i * 1_000);
            let (at, _) = st.post_wire(&cfg, nominal, SimDuration::from_micros(1));
            assert!(at >= last, "FIFO violated at packet {i}");
            last = at;
        }
    }

    #[test]
    fn reorder_allows_overtaking() {
        let cfg = ImpairConfig::default()
            .with_seed(3)
            .with_jitter(JitterModel::Uniform {
                min: SimDuration::ZERO,
                max: SimDuration::from_millis(50),
            })
            .with_reorder(true);
        let mut st = state(&cfg);
        let mut last = SimTime::ZERO;
        let mut overtakes = 0;
        for i in 0..500u64 {
            let nominal = SimTime::from_nanos(i * 1_000);
            let (at, _) = st.post_wire(&cfg, nominal, SimDuration::from_micros(1));
            if at < last {
                overtakes += 1;
            }
            last = at;
        }
        assert!(
            overtakes > 50,
            "expected frequent reordering, got {overtakes}"
        );
    }

    #[test]
    fn duplication_emits_later_copy() {
        let cfg = ImpairConfig::default().with_seed(5).with_duplication(1.0);
        let mut st = state(&cfg);
        let (at, dup) = st.post_wire(&cfg, SimTime::from_nanos(100), SimDuration::from_nanos(7));
        assert_eq!(at, SimTime::from_nanos(100));
        assert_eq!(dup, Some(SimTime::from_nanos(107)));
    }

    #[test]
    fn exponential_jitter_capped() {
        let cfg = ImpairConfig::default()
            .with_seed(11)
            .with_jitter(JitterModel::Exponential {
                mean: SimDuration::from_millis(2),
                cap: SimDuration::from_millis(10),
            })
            .with_reorder(true);
        let mut st = state(&cfg);
        for _ in 0..10_000 {
            let (at, _) = st.post_wire(&cfg, SimTime::ZERO, SimDuration::ZERO);
            assert!(at.as_nanos() <= SimDuration::from_millis(10).as_nanos());
        }
    }

    #[test]
    fn bursty_constructor_zero_loss_is_none() {
        assert_eq!(LossModel::bursty(0.0, 4.0), LossModel::None);
    }
}
