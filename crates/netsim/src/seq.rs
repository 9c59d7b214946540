//! Wrapping sequence-space arithmetic.
//!
//! TCP sequence numbers live on a circle (RFC 793 §3.3; RFC 1982 serial
//! arithmetic): `a < b` must mean "a is behind b on the circle", which a
//! direct integer comparison gets wrong once the counter wraps. The sim
//! uses 64-bit sequence numbers, so a wrap takes ~2^63 bytes and these
//! helpers are behavior-identical to the direct operators for every
//! reachable distance — but the `seq-wrap` simlint rule still requires
//! them in `tcp.rs` so the TCB stays correct if sequence numbers are
//! ever narrowed to the wire's 32 bits, as a packed per-connection TCB
//! layout would.
//!
//! All comparisons are strict serial-number comparisons: `a` is "less
//! than" `b` when the signed distance `a - b` is negative, i.e. `a` is
//! at most half the space behind `b`.

/// `a` precedes `b` on the sequence circle.
#[inline]
pub fn seq_lt(a: u64, b: u64) -> bool {
    (a.wrapping_sub(b) as i64) < 0
}

/// `a` precedes or equals `b` on the sequence circle.
#[inline]
pub fn seq_le(a: u64, b: u64) -> bool {
    !seq_gt(a, b)
}

/// `a` follows `b` on the sequence circle.
#[inline]
pub fn seq_gt(a: u64, b: u64) -> bool {
    (b.wrapping_sub(a) as i64) < 0
}

/// `a` follows or equals `b` on the sequence circle.
#[inline]
pub fn seq_ge(a: u64, b: u64) -> bool {
    !seq_lt(a, b)
}

/// Distance from `b` forward to `a` (callers guarantee `seq_ge(a, b)`).
#[inline]
pub fn seq_sub(a: u64, b: u64) -> u64 {
    a.wrapping_sub(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrees_with_direct_ops_in_normal_range() {
        let pairs = [
            (0u64, 0u64),
            (0, 1),
            (1, 0),
            (5, 1_000_000),
            (u64::MAX / 2, 3),
        ];
        for (a, b) in pairs {
            assert_eq!(seq_lt(a, b), a < b, "lt {a} {b}");
            assert_eq!(seq_le(a, b), a <= b, "le {a} {b}");
            assert_eq!(seq_gt(a, b), a > b, "gt {a} {b}");
            assert_eq!(seq_ge(a, b), a >= b, "ge {a} {b}");
        }
        assert_eq!(seq_sub(7, 3), 4);
    }

    #[test]
    fn correct_across_wraparound() {
        // Just past the wrap: MAX is "behind" 1.
        let before = u64::MAX;
        let after = 1u64;
        assert!(seq_lt(before, after));
        assert!(seq_gt(after, before));
        assert!(!seq_ge(before, after));
        // Distance still measures forward across the wrap.
        assert_eq!(seq_sub(after, before), 2);
        // Direct operators get all of these wrong — that is the point.
        assert!(before > after);
    }

    #[test]
    fn equality_is_symmetric() {
        assert!(seq_le(9, 9));
        assert!(seq_ge(9, 9));
        assert!(!seq_lt(9, 9));
        assert!(!seq_gt(9, 9));
    }
}
