//! Bit-level I/O with DEFLATE's packing conventions.
//!
//! DEFLATE packs bits LSB-first within each byte. Huffman codes are the one
//! exception: they are stored most-significant-code-bit first, which callers
//! handle by reversing the code's bits before calling [`BitWriter::write_bits`].

/// Writes a bit stream LSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Bits accumulated but not yet flushed (low bits are oldest).
    bit_buf: u64,
    bit_count: u32,
}

impl BitWriter {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Append the low `count` bits of `bits`, LSB first.
    pub fn write_bits(&mut self, bits: u32, count: u32) {
        debug_assert!(count <= 32);
        debug_assert!(count == 32 || bits < (1 << count), "value wider than count");
        self.bit_buf |= (bits as u64) << self.bit_count;
        self.bit_count += count;
        while self.bit_count >= 8 {
            self.out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf >>= 8;
            self.bit_count -= 8;
        }
    }

    /// Append a Huffman code of `len` bits: DEFLATE stores these with the
    /// first (most significant) code bit first, so the code is bit-reversed
    /// into LSB-first order.
    pub fn write_code(&mut self, code: u32, len: u32) {
        debug_assert!(len <= 15 && len > 0);
        let rev = reverse_bits(code, len);
        self.write_bits(rev, len);
    }

    /// Pad with zero bits to the next byte boundary.
    pub fn align_byte(&mut self) {
        if self.bit_count > 0 {
            self.out.push((self.bit_buf & 0xFF) as u8);
            self.bit_buf = 0;
            self.bit_count = 0;
        }
    }

    /// Append raw bytes; the stream must be byte-aligned.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        debug_assert_eq!(self.bit_count, 0, "write_bytes requires byte alignment");
        self.out.extend_from_slice(bytes);
    }

    /// Finish the stream, flushing any partial byte.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.out
    }
}

/// Reads a bit stream LSB-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte index.
    pos: usize,
    bit_buf: u64,
    bit_count: u32,
}

/// Error returned when the input ends mid-stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnexpectedEof;

impl<'a> BitReader<'a> {
    /// A reader positioned `bit` bits into `data` (at its end, if `data`
    /// is shorter than that).
    pub fn at_bit(data: &'a [u8], bit: usize) -> Self {
        let mut r = BitReader {
            data,
            pos: bit / 8,
            bit_buf: 0,
            bit_count: 0,
        };
        // Past the end there is nothing to skip, and nothing to read after.
        let _ = r.read_bits((bit % 8) as u32);
        r
    }

    /// Bits of `data` consumed so far.
    #[inline]
    pub fn bit_position(&self) -> usize {
        self.pos * 8 - self.bit_count as usize
    }

    /// Load whole bytes while they fit: eight at a time where eight
    /// remain, else one by one.
    fn fill(&mut self) {
        let room = (64 - self.bit_count) / 8;
        if room == 0 {
            return;
        }
        if let Some(word) = self.data.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
            let kept = word & (u64::MAX >> (64 - 8 * room));
            self.bit_buf |= kept << self.bit_count;
            self.pos += room as usize;
            self.bit_count += 8 * room;
            return;
        }
        while self.bit_count <= 56 && self.pos < self.data.len() {
            self.bit_buf |= (self.data[self.pos] as u64) << self.bit_count;
            self.pos += 1;
            self.bit_count += 8;
        }
    }

    /// The next `count` bits, LSB first, without consuming them; `None`
    /// when fewer remain.
    #[inline]
    pub fn peek(&mut self, count: u32) -> Option<u32> {
        debug_assert!(count <= 32);
        if self.bit_count < count {
            self.fill();
        }
        (self.bit_count >= count).then(|| (self.bit_buf & ((1u64 << count) - 1)) as u32)
    }

    /// Consume `count` bits that [`BitReader::peek`] showed.
    #[inline]
    pub fn consume(&mut self, count: u32) {
        debug_assert!(count <= self.bit_count);
        self.bit_buf >>= count;
        self.bit_count -= count;
    }

    /// Read `count` bits, LSB first.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u32, UnexpectedEof> {
        debug_assert!(count <= 32);
        if self.bit_count < count {
            self.fill();
        }
        if self.bit_count < count {
            return Err(UnexpectedEof);
        }
        let v = (self.bit_buf & ((1u64 << count) - 1)) as u32;
        self.bit_buf >>= count;
        self.bit_count -= count;
        Ok(v)
    }

    /// Read a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<u32, UnexpectedEof> {
        self.read_bits(1)
    }

    /// Discard bits up to the next byte boundary.
    pub fn align_byte(&mut self) {
        let drop = self.bit_count % 8;
        self.bit_buf >>= drop;
        self.bit_count -= drop;
    }

    /// Read `n` raw bytes in place; the stream must be byte-aligned.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], UnexpectedEof> {
        debug_assert_eq!(self.bit_count % 8, 0);
        let start = self.pos - self.bit_count as usize / 8;
        let bytes = self.data.get(start..start + n).ok_or(UnexpectedEof)?;
        (self.pos, self.bit_buf, self.bit_count) = (start + n, 0, 0);
        Ok(bytes)
    }
}

/// Reverse the low `len` bits of `v`.
pub fn reverse_bits(v: u32, len: u32) -> u32 {
    let mut r = 0;
    for i in 0..len {
        r |= ((v >> i) & 1) << (len - 1 - i);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b11110000, 8);
        w.write_bits(0b1, 1);
        w.write_bits(12345, 20);
        let bytes = w.finish();
        let mut r = BitReader::at_bit(&bytes, 0);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(8).unwrap(), 0b11110000);
        assert_eq!(r.read_bits(1).unwrap(), 0b1);
        assert_eq!(r.read_bits(20).unwrap(), 12345);
    }

    #[test]
    fn lsb_first_packing() {
        let mut w = BitWriter::new();
        // 1, then 0, then 1: byte should be 0b...101 = 0x05.
        w.write_bits(1, 1);
        w.write_bits(0, 1);
        w.write_bits(1, 1);
        assert_eq!(w.finish(), vec![0x05]);
    }

    #[test]
    fn align_and_raw_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.align_byte();
        w.write_bytes(b"AB");
        let bytes = w.finish();
        assert_eq!(bytes, vec![0x01, b'A', b'B']);
        let mut r = BitReader::at_bit(&bytes, 0);
        r.read_bit().unwrap();
        r.align_byte();
        assert_eq!(r.read_bytes(2).unwrap(), b"AB");
    }

    #[test]
    fn reverse() {
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b10000000, 8), 0b00000001);
    }

    #[test]
    fn resumes_at_a_bit_position() {
        let bytes = [0b1010_1100, 0xF0, 0x0F];
        let mut r = BitReader::at_bit(&bytes, 0);
        r.read_bits(11).unwrap();
        assert_eq!(r.bit_position(), 11);
        let mut resumed = BitReader::at_bit(&bytes, 11);
        assert_eq!(resumed.read_bits(9).unwrap(), r.read_bits(9).unwrap());
        resumed.align_byte();
        assert_eq!(resumed.bit_position(), 24);
        // A position past the data reads as end of input.
        assert!(BitReader::at_bit(&bytes[..1], 11).read_bit().is_err());
    }

    #[test]
    fn eof_detection() {
        let mut r = BitReader::at_bit(&[0xFF], 0);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn code_written_msb_first() {
        let mut w = BitWriter::new();
        // A 3-bit code 0b110 must appear as bits 1,1,0 in stream order,
        // i.e. LSB-first packing of 0b011.
        w.write_code(0b110, 3);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b011]);
    }
}
