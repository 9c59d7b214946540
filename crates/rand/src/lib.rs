//! Workspace-local stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! implements the part of the `rand` 0.8 API the workspace uses:
//! [`rngs::SmallRng`] (the xoshiro256++ generator rand 0.8 uses on
//! 64-bit platforms), [`SeedableRng::seed_from_u64`] (SplitMix64 seeding)
//! and the [`Rng`] sampling methods `gen`, `gen_range` and `gen_bool`.
//!
//! The algorithms — xoshiro256++, SplitMix64 seeding, Lemire's widening
//! multiply for integer ranges, the 1..2 mantissa trick for float ranges
//! and the 64-bit-scaled Bernoulli — follow rand 0.8.5 exactly, so a
//! given seed reproduces the byte streams the workspace's synthetic
//! content was built with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// The raw generator interface: a source of uniform random words.
pub trait RngCore {
    /// The next 32 uniform random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 uniform random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction of generators from seeds.
pub trait SeedableRng: Sized {
    /// The per-generator seed type.
    type Seed;

    /// Construct from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a `u64` via SplitMix64 expansion.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable uniformly over their whole domain (`Rng::gen`).
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_via_u32 {
    ($($ty:ty),*) => {$(
        impl Standard for $ty {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u32() as $ty
            }
        }
    )*};
}
standard_via_u32!(u8, i8, u16, i16, u32, i32);

macro_rules! standard_via_u64 {
    ($($ty:ty),*) => {$(
        impl Standard for $ty {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $ty
            }
        }
    )*};
}
standard_via_u64!(u64, i64, usize, isize);

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // rand 0.8: a sign test on the most significant bit of a u32.
        (rng.next_u32() as i32) < 0
    }
}

/// Types supporting uniform sampling from half-open and inclusive ranges.
pub trait SampleUniform: Sized {
    /// Sample uniformly from `[low, high)`.
    fn sample_single<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    /// Sample uniformly from `[low, high]`.
    fn sample_single_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

/// 32x32→64 widening multiply, split into (high, low) words.
fn wmul32(a: u32, b: u32) -> (u32, u32) {
    let t = a as u64 * b as u64;
    ((t >> 32) as u32, t as u32)
}

/// 64x64→128 widening multiply, split into (high, low) words.
fn wmul64(a: u64, b: u64) -> (u64, u64) {
    let t = a as u128 * b as u128;
    ((t >> 64) as u64, t as u64)
}

macro_rules! uniform_int_impl {
    ($ty:ty, $unsigned:ty, $u_large:ty, $wmul:ident) => {
        impl SampleUniform for $ty {
            fn sample_single<R: RngCore + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                assert!(low < high, "gen_range: low >= high");
                let range = high.wrapping_sub(low) as $unsigned as $u_large;
                // rand 0.8's single-sample fast path approximates the
                // rejection zone from the leading zeros; only the inclusive
                // path below uses the exact modulus.
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = <$u_large as Standard>::sample(rng);
                    let (hi, lo) = $wmul(v, range);
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }

            fn sample_single_inclusive<R: RngCore + ?Sized>(
                low: $ty,
                high: $ty,
                rng: &mut R,
            ) -> $ty {
                assert!(low <= high, "gen_range: low > high");
                let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned as $u_large;
                if range == 0 {
                    // The full domain: every word is acceptable.
                    return <$ty as Standard>::sample(rng);
                }
                // rand 0.8 has no single-sample fast path for inclusive
                // ranges: it builds a `Uniform` whose zone is exact
                // (`MAX - (MAX - range + 1) % range`), unlike the half-open
                // path's leading-zeros approximation above.
                let zone = <$u_large>::MAX - (<$u_large>::MAX - range + 1) % range;
                loop {
                    let v = <$u_large as Standard>::sample(rng);
                    let (hi, lo) = $wmul(v, range);
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }
        }
    };
}

uniform_int_impl!(u8, u8, u32, wmul32);
uniform_int_impl!(i8, u8, u32, wmul32);
uniform_int_impl!(u16, u16, u32, wmul32);
uniform_int_impl!(i16, u16, u32, wmul32);
uniform_int_impl!(u32, u32, u32, wmul32);
uniform_int_impl!(i32, u32, u32, wmul32);
uniform_int_impl!(u64, u64, u64, wmul64);
uniform_int_impl!(i64, u64, u64, wmul64);
uniform_int_impl!(usize, usize, u64, wmul64);
uniform_int_impl!(isize, usize, u64, wmul64);

macro_rules! uniform_float_impl {
    ($ty:ty, $uty:ty, $bits_to_discard:expr, $exponent_bias:expr, $fraction_bits:expr) => {
        impl SampleUniform for $ty {
            fn sample_single<R: RngCore + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                assert!(low < high, "gen_range: low >= high");
                let mut scale = high - low;
                loop {
                    // A uniform value in [1, 2): fill the mantissa, pin the
                    // exponent to 0.
                    let mantissa = <$uty as Standard>::sample(rng) >> $bits_to_discard;
                    let value1_2 =
                        <$ty>::from_bits(mantissa | (($exponent_bias as $uty) << $fraction_bits));
                    // rand 0.8 maps to [0, 1) before scaling so the product
                    // cannot overflow, then rejects the (rounding-induced)
                    // case where the result lands exactly on `high`.
                    let value0_1 = value1_2 - 1.0;
                    let res = value0_1 * scale + low;
                    if res < high {
                        return res;
                    }
                    // Shave one ulp off the scale and retry, as rand's
                    // `decrease_masked` does for a positive finite scale.
                    scale = <$ty>::from_bits(scale.to_bits() - 1);
                }
            }

            fn sample_single_inclusive<R: RngCore + ?Sized>(
                low: $ty,
                high: $ty,
                rng: &mut R,
            ) -> $ty {
                // rand treats inclusive float ranges like half-open ones.
                Self::sample_single(low, high, rng)
            }
        }
    };
}

uniform_float_impl!(f64, u64, 12, 1023u64, 52);
uniform_float_impl!(f32, u32, 9, 127u32, 23);

/// Range arguments accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_single(self.start, self.end, rng)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_single_inclusive(*self.start(), *self.end(), rng)
    }
}

/// High-level sampling methods, available on every generator.
pub trait Rng: RngCore {
    /// A uniform value over the whole domain of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        // Exactly 1.0 is the one probability the 64-bit scaling below
        // cannot hold, so it is decided before scaling, as rand does.
        if p.to_bits() == 1.0f64.to_bits() {
            return true;
        }
        // p scaled to the full 64-bit domain, as rand's Bernoulli does.
        let p_int = (p * (2.0 * (1u64 << 63) as f64)) as u64;
        self.next_u64() < p_int
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// The bundled generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The small, fast generator: xoshiro256++, exactly as `rand` 0.8
    /// uses for `SmallRng` on 64-bit platforms.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SmallRng {
        #[inline]
        fn step(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            // The lowest bits have linear dependencies; use the upper.
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.step()
        }
    }

    impl SeedableRng for SmallRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> SmallRng {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            assert!(s.iter().any(|&w| w != 0), "xoshiro seed must be non-zero");
            SmallRng { s }
        }

        fn seed_from_u64(mut state: u64) -> SmallRng {
            // SplitMix64 expansion, as rand's xoshiro seeding does.
            let mut seed = [0u8; 32];
            for chunk in seed.chunks_exact_mut(8) {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                chunk.copy_from_slice(&z.to_le_bytes());
            }
            SmallRng::from_seed(seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::*;

    /// Reference vector from the xoshiro256++ reference implementation
    /// (and rand 0.8.5's own test), seed s = [1, 2, 3, 4].
    #[test]
    fn xoshiro256plusplus_reference() {
        let mut seed = [0u8; 32];
        seed[0] = 1;
        seed[8] = 2;
        seed[16] = 3;
        seed[24] = 4;
        let mut rng = SmallRng::from_seed(seed);
        let expected: [u64; 10] = [
            41_943_041,
            58_720_359,
            3_588_806_011_781_223,
            3_591_011_842_654_386,
            9_228_616_714_210_784_205,
            9_973_669_472_204_895_162,
            14_011_001_112_246_962_877,
            12_406_186_145_184_390_807,
            15_849_039_046_786_891_736,
            10_450_023_813_501_588_000,
        ];
        for &e in &expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn seed_from_u64_is_deterministic_and_spread() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let xa: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let xb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let xc: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn gen_range_int_in_bounds_and_covers() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let v = rng.gen_range(3..9usize);
            assert!((3..9).contains(&v));
            seen[v - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of 3..9 drawn");
        for _ in 0..1000 {
            let v = rng.gen_range(1..=5u32);
            assert!((1..=5).contains(&v));
        }
    }

    #[test]
    fn gen_range_float_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..1000 {
            let v = rng.gen_range(0.3..2.5f64);
            assert!((0.3..2.5).contains(&v), "{v}");
            let w = rng.gen_range(-0.5..0.5f64);
            assert!((-0.5..0.5).contains(&w), "{w}");
        }
    }

    #[test]
    fn gen_bool_matches_probability_roughly() {
        let mut rng = SmallRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.8)).count();
        assert!((7_700..8_300).contains(&hits), "{hits}");
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
    }

    #[test]
    fn gen_u64_is_raw_stream() {
        let mut a = SmallRng::seed_from_u64(3);
        let mut b = SmallRng::seed_from_u64(3);
        assert_eq!(a.gen::<u64>(), b.next_u64());
    }
}
