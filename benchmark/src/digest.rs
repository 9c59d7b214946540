//! FNV-1a digests (the discipline the repository's smoke binaries use)
//! and the splitmix64 step that turns `--seed` into inputs.

/// Streaming 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One splitmix64 output for state `x`.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_vectors() {
        let digest = |s: &str| {
            let mut h = Fnv::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(digest("a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(digest("foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn splitmix_spreads_neighbouring_states() {
        assert_ne!(splitmix(1), splitmix(2));
        assert_eq!(splitmix(1), splitmix(1));
        assert!((splitmix(1) ^ splitmix(2)).count_ones() > 8);
    }
}
