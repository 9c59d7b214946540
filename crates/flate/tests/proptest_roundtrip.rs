//! Property-style tests for the DEFLATE implementation, driven by a
//! deterministic seeded PRNG (the build environment has no crates.io
//! access, so `proptest` is unavailable): every input must survive a
//! compress/decompress roundtrip at every level, in both the raw and
//! zlib framings, and compressed output must respect the format's
//! worst-case bounds.

use flate::{deflate, inflate, Inflater, Level};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const LEVELS: [Level; 4] = [Level::Store, Level::Fast, Level::Default, Level::Best];

fn random_bytes(rng: &mut SmallRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| rng.gen()).collect()
}

#[test]
fn raw_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x0F1A_7E01);
    for case in 0..64 {
        let data = random_bytes(&mut rng, 8192);
        let level = LEVELS[case % LEVELS.len()];
        let compressed = deflate(&data, level);
        let restored = inflate(&compressed).expect("inflate");
        assert_eq!(restored, data, "case {case} level {level:?}");
    }
}

#[test]
fn zlib_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x0F1A_7E02);
    for case in 0..64 {
        let data = random_bytes(&mut rng, 4096);
        let level = LEVELS[case % LEVELS.len()];
        let z = flate::zlib::compress(&data, level);
        let restored = flate::zlib::decompress(&z).expect("zlib decompress");
        assert_eq!(restored, data, "case {case} level {level:?}");
    }
}

#[test]
fn structured_text_roundtrip() {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz<>/=\" ";
    let mut rng = SmallRng::seed_from_u64(0x0F1A_7E03);
    for case in 0..64 {
        let words = rng.gen_range(0..400usize);
        let mut text = String::new();
        for _ in 0..words {
            let word_len = rng.gen_range(1..=12usize);
            for _ in 0..word_len {
                text.push(ALPHABET[rng.gen_range(0..ALPHABET.len())] as char);
            }
        }
        let level = LEVELS[case % LEVELS.len()];
        let compressed = deflate(text.as_bytes(), level);
        assert_eq!(inflate(&compressed).unwrap(), text.as_bytes());
        // Repetitive tag-like text must actually compress once it is big
        // enough to amortize headers.
        if text.len() > 2048 && level != Level::Store {
            assert!(compressed.len() < text.len(), "case {case}");
        }
    }
}

#[test]
fn expansion_is_bounded() {
    let mut rng = SmallRng::seed_from_u64(0x0F1A_7E04);
    for case in 0..64 {
        let data = random_bytes(&mut rng, 4096);
        let level = LEVELS[case % LEVELS.len()];
        // DEFLATE's stored fallback bounds expansion: 5 bytes per 64K
        // block plus a few bits of framing.
        let compressed = deflate(&data, level);
        assert!(
            compressed.len() <= data.len() + 64,
            "expanded {} -> {}",
            data.len(),
            compressed.len()
        );
    }
}

#[test]
fn truncation_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0x0F1A_7E05);
    for _ in 0..64 {
        let data = random_bytes(&mut rng, 2048);
        let compressed = deflate(&data, Level::Default);
        let cut = rng.gen_range(0..2048usize).min(compressed.len());
        // Must return (Ok or Err), never panic.
        let _ = inflate(&compressed[..cut]);
        let _ = Inflater::default().advance(&compressed[..cut], |_| {});
    }
}

#[test]
fn garbage_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0x0F1A_7E06);
    for _ in 0..64 {
        let data = random_bytes(&mut rng, 512);
        let _ = inflate(&data);
        let _ = flate::zlib::decompress(&data);
        // The resumable reader, fed the garbage in two pieces: a typed
        // error or short output, never a panic.
        let mut reader = flate::zlib::Decompressor::default();
        let _ = reader.advance(&data[..data.len() / 2], false, |_| {});
        let _ = reader.advance(&data, false, |_| {});
        let _ = reader.advance(&data, true, |_| {});
    }
}

#[test]
fn prefix_decode_is_a_prefix() {
    let mut rng = SmallRng::seed_from_u64(0x0F1A_7E07);
    for _ in 0..64 {
        let len = rng.gen_range(1..4096usize);
        let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let compressed = deflate(&data, Level::Default);
        let cut_pct = rng.gen_range(10..100usize);
        let cut = compressed.len() * cut_pct / 100;
        let (mut inflater, mut out) = (Inflater::default(), Vec::new());
        let prefix = inflater.advance(&compressed[..cut], |run| out.extend_from_slice(run));
        prefix.expect("only short");
        assert_eq!(out, &data[..out.len()]);
        // Resumed over the whole stream it ends where `inflate` does.
        let whole = inflater.advance(&compressed, |run| out.extend_from_slice(run));
        assert_eq!(whole, Ok(true));
        assert_eq!(out, data);
    }
}

#[test]
fn checksums_detect_single_bit_flips() {
    let mut rng = SmallRng::seed_from_u64(0x0F1A_7E08);
    for _ in 0..64 {
        let len = rng.gen_range(1..512usize);
        let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let mut copy = data.clone();
        let idx = rng.gen_range(0..copy.len());
        let bit = rng.gen_range(0..8u8);
        copy[idx] ^= 1 << bit;
        assert_ne!(flate::adler32(&data), flate::adler32(&copy));
        assert_ne!(flate::crc32(&data), flate::crc32(&copy));
    }
}
