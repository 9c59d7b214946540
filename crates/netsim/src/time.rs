//! Simulated time.
//!
//! The simulator uses a nanosecond-resolution virtual clock represented as a
//! `u64`. All delays, bandwidth computations and timers are expressed in
//! [`SimDuration`]; absolute points on the virtual clock are [`SimTime`].
//! Using integers keeps the simulation fully deterministic — there is no
//! floating-point accumulation anywhere on the timing path.
//!
//! This module owns the conversions to float seconds, which report
//! results and never feed back into the timing path.
#![expect(
    clippy::cast_precision_loss,
    reason = "the tick-to-seconds conversions live here"
)]

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant on the simulated clock, in nanoseconds since the start
/// of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// A time later than any time a simulation will reach.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The time as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to nanoseconds).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s >= 0.0 && s.is_finite(),
            "duration must be finite and non-negative"
        );
        SimDuration((s * 1e9).round() as u64)
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating multiplication by an integer factor.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// The time needed to serialize `bytes` onto a link of `bits_per_sec`.
    ///
    /// Rounds up to the next nanosecond so that back-to-back packets never
    /// overlap on the wire.
    pub fn transmission(bytes: usize, bits_per_sec: u64) -> SimDuration {
        assert!(bits_per_sec > 0, "link bandwidth must be positive");
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(bits_per_sec as u128);
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_duration_to_time() {
        let t = SimTime::from_nanos(5) + SimDuration::from_nanos(7);
        assert_eq!(t.as_nanos(), 12);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(b.since(a).as_nanos(), 4);
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn transmission_time_ethernet() {
        // 1500 bytes at 10 Mbit/s = 1.2 ms.
        let d = SimDuration::transmission(1500, 10_000_000);
        assert_eq!(d.as_nanos(), 1_200_000);
    }

    #[test]
    fn transmission_time_modem() {
        // 576 bytes at 28.8 kbit/s = 160 ms.
        let d = SimDuration::transmission(576, 28_800);
        assert_eq!(d.as_nanos(), 160_000_000);
    }

    #[test]
    fn transmission_rounds_up() {
        // 1 byte at 3 bit/s: 8/3 s = 2.666..s, must round up.
        let d = SimDuration::transmission(1, 3);
        assert_eq!(d.as_nanos(), 2_666_666_667);
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_millis(200).as_nanos(), 200_000_000);
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert!((SimDuration::from_secs_f64(0.09).as_secs_f64() - 0.09).abs() < 1e-9);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(50)), "50.000ms");
        assert_eq!(format!("{}", SimDuration::from_nanos(17)), "17ns");
    }
}
