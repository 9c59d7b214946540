//! Canonical Huffman coding: length-limited code construction (encoder) and
//! canonical decoding tables (decoder), per RFC 1951 §3.2.2.

use crate::bitio::{reverse_bits, BitReader, UnexpectedEof};

/// Build length-limited Huffman code lengths from symbol frequencies.
///
/// Uses the standard heap-based Huffman construction followed by the
/// depth-limiting adjustment zlib uses: overlong codes are shortened and the
/// Kraft inequality restored by demoting shorter codes. The result is
/// optimal or near-optimal and always valid.
///
/// Symbols with zero frequency receive length 0 (no code). If only one
/// symbol has nonzero frequency it receives length 1, as DEFLATE requires at
/// least one bit per coded symbol.
pub fn build_lengths(freqs: &[u32], max_len: u32) -> Vec<u32> {
    let n = freqs.len();
    let mut lengths = vec![0u32; n];
    let active: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    match active.len() {
        0 => return lengths,
        1 => {
            lengths[active[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Heap-based Huffman tree; node = (freq, tie, index). `tie` keeps the
    // construction deterministic.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Node {
        freq: u64,
        tie: u32,
        idx: usize,
    }
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    // Tree storage: leaves 0..n, internal nodes appended after.
    let mut parent = vec![usize::MAX; n];
    let mut heap = BinaryHeap::new();
    let mut tie = 0u32;
    for &i in &active {
        heap.push(Reverse(Node {
            freq: freqs[i] as u64,
            tie: {
                tie += 1;
                tie
            },
            idx: i,
        }));
    }
    let mut next_idx = n;
    while heap.len() > 1 {
        let Reverse(a) = heap.pop().unwrap();
        let Reverse(b) = heap.pop().unwrap();
        parent.push(usize::MAX);
        parent[a.idx] = next_idx;
        parent[b.idx] = next_idx;
        heap.push(Reverse(Node {
            freq: a.freq + b.freq,
            tie: {
                tie += 1;
                tie
            },
            idx: next_idx,
        }));
        next_idx += 1;
    }

    // Depth of each leaf.
    let mut bl_count = vec![0u32; (max_len + 1) as usize];
    for &i in &active {
        let mut d = 0;
        let mut j = i;
        while parent[j] != usize::MAX {
            j = parent[j];
            d += 1;
        }
        let d = d.min(max_len);
        lengths[i] = d;
        bl_count[d as usize] += 1;
    }

    // Restore the Kraft sum if the depth clamp overflowed it.
    // Kraft sum in units of 2^-max_len.
    let full = 1u64 << max_len;
    let mut kraft: u64 = active.iter().map(|&i| full >> lengths[i]).sum();
    while kraft > full {
        // Take a code at the deepest level that has room to grow... in the
        // clamped case we must *lengthen* some code to reduce its weight:
        // find a symbol with length < max_len whose subtree weight we can
        // reduce by moving it one level down. zlib's approach: find the
        // longest length l < max_len with bl_count[l] > 0, move one code
        // from l to l+1? That *reduces* kraft by 2^-(l+1)... we need the
        // standard fix: repeatedly find a leaf at depth < max_len,
        // increment its length.
        let mut best: Option<usize> = None;
        for &i in &active {
            if lengths[i] < max_len {
                match best {
                    None => best = Some(i),
                    Some(b) => {
                        // Prefer lengthening the least frequent symbol.
                        if (freqs[i], i) < (freqs[b], b) {
                            best = Some(i);
                        }
                    }
                }
            }
        }
        let i = best.expect("kraft overflow must be fixable");
        kraft -= full >> lengths[i];
        lengths[i] += 1;
        kraft += full >> lengths[i];
    }

    lengths
}

/// Assign canonical code values to a set of code lengths (RFC 1951
/// §3.2.2). Returns, per symbol, the code value (0 where length is 0).
pub fn assign_codes(lengths: &[u32]) -> Vec<u32> {
    let max_len = lengths.iter().copied().max().unwrap_or(0);
    let mut bl_count = vec![0u32; (max_len + 1) as usize];
    for &l in lengths {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u32; (max_len + 2) as usize];
    let mut code = 0u32;
    for bits in 1..=max_len {
        code = (code + bl_count[(bits - 1) as usize]) << 1;
        next_code[bits as usize] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                c
            }
        })
        .collect()
}

/// A canonical Huffman decoder: a table of `N` entries (a power of two)
/// for the codes short enough to index it, over the canonical bit-serial
/// walk that reads any code. The literal/length alphabet takes the
/// default, 512 entries (9 bits); `inflate` gives distances 64 and code
/// lengths 128.
#[derive(Debug, Clone)]
pub struct Decoder<const N: usize = 512> {
    /// Indexed by the stream's next `log2 N` bits (the first in the
    /// lowest): `symbol << 4 | length` of the code they start with, or 0
    /// where that code is longer, or no code starts so — where the walk
    /// decides.
    fast: [u16; N],
    /// Codes of each length 1..=15.
    count: [u16; 16],
    /// Symbols ordered by (length, symbol) — canonical order.
    symbols: Vec<u16>,
}

/// Error constructing or using a Huffman decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HuffError {
    /// The code-length set violates the Kraft inequality (over-subscribed).
    Oversubscribed,
    /// No symbols were assigned codes.
    Empty,
    /// The bit stream contained a code not present in the table.
    BadCode,
}

impl<const N: usize> Decoder<N> {
    /// Bits of the stream the table is indexed by.
    const BITS: u32 = N.trailing_zeros();

    /// Build a decoder from per-symbol code lengths.
    ///
    /// Incomplete codes (Kraft sum < 1) are accepted — RFC 1951 permits the
    /// single-symbol case and some encoders emit incomplete distance
    /// tables — but over-subscribed tables are rejected.
    pub fn new(lengths: &[u32]) -> Result<Decoder<N>, HuffError> {
        debug_assert!(N.is_power_of_two() && Self::BITS <= 15);
        let mut count = [0u16; 16];
        for &l in lengths {
            if l > 15 {
                return Err(HuffError::Oversubscribed);
            }
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        if count.iter().all(|&c| c == 0) {
            return Err(HuffError::Empty);
        }
        // Kraft check.
        let mut left = 1i64;
        for &c in &count[1..=15] {
            left <<= 1;
            left -= c as i64;
            if left < 0 {
                return Err(HuffError::Oversubscribed);
            }
        }

        // Where each length's codes start in canonical order.
        let mut next = [0usize; 16];
        for len in 1..15 {
            next[len + 1] = next[len] + count[len] as usize;
        }
        let mut symbols = vec![0u16; next[15] + count[15] as usize];
        for (sym, &l) in lengths.iter().enumerate() {
            if l > 0 {
                symbols[next[l as usize]] = sym as u16;
                next[l as usize] += 1;
            }
        }

        // Each short code fills every entry whose low bits are its bits
        // in stream order (the code reversed); codes of a length are
        // consecutive, from the first code of that length.
        let mut fast = [0u16; N];
        let (mut code, mut index) = (0u32, 0usize);
        for len in 1..=Self::BITS {
            for &sym in &symbols[index..index + count[len as usize] as usize] {
                let stream = reverse_bits(code, len) as usize;
                for slot in fast.iter_mut().skip(stream).step_by(1 << len) {
                    *slot = sym << 4 | len as u16;
                }
                code += 1;
            }
            index += count[len as usize] as usize;
            code <<= 1;
        }

        Ok(Decoder {
            fast,
            count,
            symbols,
        })
    }

    /// Decode one symbol from `r`: through the table when `r` holds as
    /// many more bits as index it and they start a code that short, else
    /// by the walk. Either way the symbol and the bits consumed are the
    /// walk's, and input that ends inside a code is `UnexpectedEof`.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<Result<u16, HuffError>, UnexpectedEof> {
        if let Some(bits) = r.peek(Self::BITS) {
            let entry = self.fast[bits as usize];
            if entry != 0 {
                r.consume(u32::from(entry & 15));
                return Ok(Ok(entry >> 4));
            }
        }
        self.walk(r)
    }

    /// The canonical bit-serial walk: one bit at a time, MSB of the code
    /// first, until the code so far is one of its length (the first code
    /// of a length is the last one of the length before, plus one, times
    /// two).
    fn walk(&self, r: &mut BitReader<'_>) -> Result<Result<u16, HuffError>, UnexpectedEof> {
        let (mut code, mut first, mut index) = (0u32, 0u32, 0u32);
        for &count in &self.count[1..] {
            code |= r.read_bit()?;
            let count = u32::from(count);
            if code < first + count {
                return Ok(Ok(self.symbols[(index + code - first) as usize]));
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Ok(Err(HuffError::BadCode))
    }

    /// This decoder with an empty table: every symbol by the walk, the
    /// reference the table is tested against.
    #[cfg(test)]
    pub(crate) fn serial(mut self) -> Decoder<N> {
        self.fast = [0; N];
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;

    #[test]
    fn canonical_codes_rfc_example() {
        // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4)
        // -> codes 010,011,100,101,110,00,1110,1111.
        let lengths = [3, 3, 3, 3, 3, 2, 4, 4];
        let codes = assign_codes(&lengths);
        assert_eq!(
            codes,
            vec![0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111]
        );
    }

    #[test]
    fn build_lengths_simple() {
        // Frequencies heavily skewed: most frequent symbol gets the
        // shortest code.
        let freqs = [100, 10, 10, 1];
        let lengths = build_lengths(&freqs, 15);
        assert!(lengths[0] < lengths[3]);
        // Kraft equality for a complete code.
        let kraft: f64 = lengths.iter().map(|&l| 0.5f64.powi(l as i32)).sum();
        assert!((kraft - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let freqs = [0, 7, 0];
        let lengths = build_lengths(&freqs, 15);
        assert_eq!(lengths, vec![0, 1, 0]);
    }

    #[test]
    fn length_limit_respected() {
        // Fibonacci-ish frequencies force deep trees; limit to 5 bits.
        let freqs: Vec<u32> = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89].to_vec();
        let lengths = build_lengths(&freqs, 5);
        assert!(lengths.iter().all(|&l| l <= 5 && l > 0));
        let full = 1u32 << 5;
        let kraft: u32 = lengths.iter().map(|&l| full >> l).sum();
        assert!(kraft <= full, "kraft must hold after limiting");
    }

    /// Decode every coded symbol of `lengths` from a stream of its code,
    /// by a table of each size and by the walk alone.
    fn roundtrip_each_symbol(lengths: &[u32]) {
        roundtrip_with::<512>(lengths);
        roundtrip_with::<64>(lengths);
    }

    fn roundtrip_with<const N: usize>(lengths: &[u32]) {
        let codes = assign_codes(lengths);
        let dec = Decoder::<N>::new(lengths).unwrap();
        for sym in (0..lengths.len()).filter(|&sym| lengths[sym] > 0) {
            let mut w = BitWriter::new();
            w.write_code(codes[sym], lengths[sym]);
            w.write_bits(0, 16);
            let stream = w.finish();
            for dec in [dec.clone(), dec.clone().serial()] {
                let mut r = BitReader::at_bit(&stream, 0);
                assert_eq!(dec.decode(&mut r), Ok(Ok(sym as u16)));
                assert_eq!(r.bit_position(), lengths[sym] as usize, "symbol {sym}");
            }
        }
    }

    #[test]
    fn decoder_roundtrip() {
        roundtrip_each_symbol(&[3, 3, 3, 3, 3, 2, 4, 4]);
    }

    #[test]
    fn a_code_longer_than_the_table_is_walked() {
        // Codes of 1 to 15 bits: the last six go past the table.
        let mut lengths: Vec<u32> = (1..=15).collect();
        lengths.push(15);
        roundtrip_each_symbol(&lengths);
        // Fewer bits left than the table reads: the walk decodes a short
        // code, and input that ends inside a code is the end of input.
        let dec: Decoder = Decoder::new(&lengths).unwrap();
        let mut r = BitReader::at_bit(&[0b0000_0010], 0);
        assert_eq!(dec.decode(&mut r), Ok(Ok(0)));
        assert_eq!(dec.decode(&mut r), Ok(Ok(1)));
        assert_eq!(r.bit_position(), 3);
        let mut r = BitReader::at_bit(&[0xFF], 0);
        assert_eq!(dec.decode(&mut r), Err(UnexpectedEof));
    }

    #[test]
    fn oversubscribed_rejected() {
        // Three 1-bit codes is impossible.
        assert_eq!(
            Decoder::<512>::new(&[1, 1, 1]).unwrap_err(),
            HuffError::Oversubscribed
        );
    }

    #[test]
    fn encoder_decoder_agree_on_random_frequencies() {
        // Deterministic pseudo-random frequencies.
        let mut x = 0x2545F491u64;
        let freqs: Vec<u32> = (0..100)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 1000) as u32
            })
            .collect();
        roundtrip_each_symbol(&build_lengths(&freqs, 15));
    }
}
