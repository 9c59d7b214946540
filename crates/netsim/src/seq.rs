//! Sequence numbers as a type.
//!
//! TCP sequence numbers live on a circle (RFC 793 §3.3; RFC 1982 serial
//! arithmetic): "a is before b" must mean "a is behind b on the circle",
//! which a direct integer comparison gets wrong once the counter wraps.
//! [`Seq`] holds the same 32-bit value the wire types
//! ([`crate::Segment`], [`crate::SackBlocks`]) carry and orders only
//! through its serial methods: it has no `PartialOrd`, `Ord` or `Sub`,
//! so a direct comparison or subtraction of two sequence numbers does
//! not compile.
//!
//! ```compile_fail,E0369
//! use netsim::seq::Seq;
//! let (a, b) = (Seq::new(1), Seq::new(2));
//! let _ = a < b;
//! ```
//!
//! ```compile_fail,E0369
//! use netsim::seq::Seq;
//! let (a, b) = (Seq::new(1), Seq::new(2));
//! let _ = b - a;
//! ```
//!
//! The space is the wire's 32 bits, so a connection starting near 2³²
//! wraps within its first bytes; the methods hold at any distance under
//! 2³¹, and `+` wraps. [`Seq::offset`] reads a value as a 64-bit stream
//! offset, for analyses that want plain integers.

use std::fmt;
use std::ops::{Add, AddAssign};

/// A point in TCP sequence space. `a` is before `b` when the signed
/// distance `a - b` is negative, i.e. `a` is at most half the space
/// behind `b`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Seq(u32);

impl Seq {
    /// The sequence number the wire value `raw` names.
    #[inline]
    pub const fn new(raw: u32) -> Seq {
        Seq(raw)
    }

    /// The wire value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// `self` precedes `other` on the sequence circle.
    #[inline]
    pub fn before(self, other: Seq) -> bool {
        (self.0.wrapping_sub(other.0) as i32) < 0
    }

    /// `self` follows `other` on the sequence circle.
    #[inline]
    pub fn after(self, other: Seq) -> bool {
        other.before(self)
    }

    /// `self` precedes or equals `other`.
    #[inline]
    pub fn at_or_before(self, other: Seq) -> bool {
        !self.after(other)
    }

    /// `self` follows or equals `other`.
    #[inline]
    pub fn at_or_after(self, other: Seq) -> bool {
        !self.before(other)
    }

    /// The later of `self` and `other` on the circle.
    #[inline]
    pub fn later(self, other: Seq) -> Seq {
        if other.after(self) {
            other
        } else {
            self
        }
    }

    /// The earlier of `self` and `other` on the circle.
    #[inline]
    pub fn earlier(self, other: Seq) -> Seq {
        if other.before(self) {
            other
        } else {
            self
        }
    }

    /// Distance forward from `earlier` to `self` (callers guarantee
    /// `self.at_or_after(earlier)`).
    #[inline]
    pub fn since(self, earlier: Seq) -> u64 {
        u64::from(self.0.wrapping_sub(earlier.0))
    }

    /// `self` as a 64-bit offset from `origin` (a stream's ISS): of the
    /// offsets agreeing with it mod 2³², the one nearest `near`, a recent
    /// offset of the stream. One before the origin reads 0.
    #[inline]
    pub fn offset(self, origin: Seq, near: u64) -> u64 {
        let step = self.0.wrapping_sub(origin.0).wrapping_sub(near as u32) as i32;
        near.saturating_add_signed(i64::from(step))
    }
}

/// `len` units further on, wrapping around the circle.
impl Add<usize> for Seq {
    type Output = Seq;

    #[inline]
    fn add(self, len: usize) -> Seq {
        Seq(self.0.wrapping_add(len as u32))
    }
}

impl AddAssign<usize> for Seq {
    #[inline]
    fn add_assign(&mut self, len: usize) {
        *self = *self + len;
    }
}

/// The bare wire value, so a `Seq` prints as the number a trace shows.
impl fmt::Debug for Seq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrees_with_direct_ops_in_normal_range() {
        let pairs = [
            (0u32, 0u32),
            (0, 1),
            (1, 0),
            (5, 1_000_000),
            (u32::MAX / 2, 3),
        ];
        for (a, b) in pairs {
            let (sa, sb) = (Seq::new(a), Seq::new(b));
            assert_eq!(sa.before(sb), a < b, "before {a} {b}");
            assert_eq!(sa.at_or_before(sb), a <= b, "at_or_before {a} {b}");
            assert_eq!(sa.after(sb), a > b, "after {a} {b}");
            assert_eq!(sa.at_or_after(sb), a >= b, "at_or_after {a} {b}");
            assert_eq!(sa.later(sb).raw(), a.max(b), "later {a} {b}");
            assert_eq!(sa.earlier(sb).raw(), a.min(b), "earlier {a} {b}");
        }
        assert_eq!(Seq::new(7).since(Seq::new(3)), 4);
        assert_eq!((Seq::new(7) + 3).raw(), 10);
    }

    #[test]
    fn correct_across_wraparound() {
        // Just past the wrap: MAX is "behind" 1.
        let before = Seq::new(u32::MAX);
        let after = Seq::new(1);
        assert!(before.before(after));
        assert!(after.after(before));
        assert!(!before.at_or_after(after));
        assert_eq!(before.later(after), after);
        assert_eq!(after.earlier(before), before);
        // Distance still measures forward across the wrap, and adding
        // wraps instead of overflowing.
        assert_eq!(after.since(before), 2);
        assert_eq!(before + 2, after);
        // Direct operators on the wire values get these wrong — that is
        // the point.
        assert!(before.raw() > after.raw());
    }

    #[test]
    fn offsets_count_from_the_origin_across_the_wrap() {
        let origin = Seq::new(u32::MAX - 99);
        // From the origin, the first values read as plain distances...
        assert_eq!(origin.offset(origin, 0), 0);
        assert_eq!((origin + 1).offset(origin, 0), 1);
        // ...and keep counting where the wire value wraps to 0.
        assert_eq!(Seq::new(0).offset(origin, 99), 100);
        assert_eq!(Seq::new(50).offset(origin, 100), 150);
        // A whole lap on, the value nearest the reference wins, behind
        // it as well as ahead.
        let lap = 1u64 << 32;
        assert_eq!((origin + 10).offset(origin, lap), lap + 10);
        assert_eq!((origin + 10).offset(origin, lap + 20), lap + 10);
        // A value behind the origin reads 0 rather than wrapping below it.
        assert_eq!(Seq::new(u32::MAX - 200).offset(origin, 0), 0);
        // From origin 0, an offset is the wire value itself.
        assert_eq!(Seq::new(77).offset(Seq::new(0), 0), 77);
    }

    #[test]
    fn equality_is_symmetric() {
        let s = Seq::new(9);
        assert!(s.at_or_before(s));
        assert!(s.at_or_after(s));
        assert!(!s.before(s));
        assert!(!s.after(s));
        assert_eq!(s.later(s), s);
        assert_eq!(s.earlier(s), s);
    }
}
