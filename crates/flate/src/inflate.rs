//! The DEFLATE decompressor (RFC 1951).

use crate::bitio::{BitReader, UnexpectedEof};
use crate::huffman::{Decoder, HuffError};
use crate::tables::{
    fixed_dist_lengths, fixed_litlen_lengths, CLC_ORDER, DIST_TABLE, LENGTH_TABLE,
};

/// Errors the decompressor can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InflateError {
    /// Input ended before the final block completed.
    UnexpectedEof,
    /// Reserved block type 0b11.
    BadBlockType,
    /// Stored block LEN/NLEN mismatch.
    BadStoredLength,
    /// Invalid Huffman table in a dynamic header.
    BadHuffmanTable,
    /// A code read from the stream does not exist in the table.
    BadCode,
    /// A back-reference points before the start of output.
    BadDistance,
    /// A length/distance symbol outside the valid range.
    BadSymbol,
}

impl From<UnexpectedEof> for InflateError {
    fn from(_: UnexpectedEof) -> Self {
        InflateError::UnexpectedEof
    }
}

impl std::fmt::Display for InflateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            InflateError::UnexpectedEof => "unexpected end of input",
            InflateError::BadBlockType => "reserved block type",
            InflateError::BadStoredLength => "stored block length check failed",
            InflateError::BadHuffmanTable => "invalid huffman table",
            InflateError::BadCode => "invalid huffman code in stream",
            InflateError::BadDistance => "back-reference before start of output",
            InflateError::BadSymbol => "symbol out of range",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for InflateError {}

/// DEFLATE's history: no back-reference reaches further (RFC 1951
/// §3.2.5), so a decoder needs no more of its output than this.
pub(crate) const WINDOW: usize = 32 * 1024;

/// The last [`WINDOW`] bytes of output, written round and round: the one
/// copy of the output a decoder keeps. The bytes new since the last
/// hand-over are `buf[from..at]`; they go to the caller when the window
/// fills (before they are written over) and when the caller asks.
struct Window {
    buf: Box<[u8]>,
    /// Where the next byte goes.
    at: usize,
    /// The first byte not yet handed over.
    from: usize,
    /// Bytes written before the current lap: a multiple of [`WINDOW`].
    lapped: usize,
}

impl Default for Window {
    fn default() -> Self {
        Window {
            buf: vec![0; WINDOW].into_boxed_slice(),
            at: 0,
            from: 0,
            lapped: 0,
        }
    }
}

impl std::fmt::Debug for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let held = self.at - self.from;
        write!(f, "Window {{ written: {}, held: {held} }}", self.written())
    }
}

/// Where a decoder hands its output.
type Emit<'a> = dyn FnMut(&[u8]) + 'a;

impl Window {
    /// Bytes written in all.
    fn written(&self) -> usize {
        self.lapped + self.at
    }

    /// Hand over what is new, then start the next lap at the front.
    #[cold]
    fn lap(&mut self, emit: &mut Emit<'_>) {
        emit(&self.buf[self.from..]);
        (self.at, self.from) = (0, 0);
        self.lapped += WINDOW;
    }

    /// `n` bytes have just been written at `at`.
    #[inline]
    fn wrote(&mut self, n: usize, emit: &mut Emit<'_>) {
        self.at += n;
        if self.at == WINDOW {
            self.lap(emit);
        }
    }

    #[inline]
    fn push(&mut self, byte: u8, emit: &mut Emit<'_>) {
        self.buf[self.at] = byte;
        self.wrote(1, emit);
    }

    fn extend(&mut self, mut bytes: &[u8], emit: &mut Emit<'_>) {
        while !bytes.is_empty() {
            let n = bytes.len().min(WINDOW - self.at);
            self.buf[self.at..self.at + n].copy_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            self.wrote(n, emit);
        }
    }

    /// Repeat the `len` bytes that start `dist` back, a stretch between
    /// the window's edges at a time. A stretch no longer than `dist` is
    /// one copy — its source lies behind it, or ahead of it in the window
    /// (the lap before), where a forward copy reads only bytes it has not
    /// written yet; a longer one overlaps its own output and repeats its
    /// first `dist` bytes.
    fn repeat(&mut self, dist: usize, len: usize, emit: &mut Emit<'_>) -> Result<(), InflateError> {
        if dist > self.written() {
            return Err(InflateError::BadDistance);
        }
        let mut src = (self.at + WINDOW - dist) % WINDOW;
        let mut left = len;
        while left > 0 {
            let n = left.min(WINDOW - self.at).min(WINDOW - src);
            if dist >= n {
                self.buf.copy_within(src..src + n, self.at);
            } else {
                for k in 0..n {
                    self.buf[self.at + k] = self.buf[src + k];
                }
            }
            src = (src + n) % WINDOW;
            left -= n;
            self.wrote(n, emit);
        }
        Ok(())
    }

    /// Hand over what is new.
    fn release(&mut self, emit: &mut Emit<'_>) {
        if self.from < self.at {
            emit(&self.buf[self.from..self.at]);
            self.from = self.at;
        }
    }
}

/// A resumable DEFLATE decompressor, for a stream that is still arriving
/// — e.g. a browser parsing compressed HTML as it comes. A symbol (a
/// literal, or a length with its distance), a stored block, and a block
/// header with its code tables are each decoded whole or not at all: input
/// that ends inside one leaves the cursor at its start.
///
/// The decoder keeps no output but DEFLATE's 32 KiB window, allocated once:
/// it hands each run of new bytes to its caller, when the window fills
/// and when a call ends without error.
#[derive(Debug, Default)]
pub struct Inflater {
    window: Window,
    /// Stream position, in bits, of the first item not yet decoded.
    bit_pos: usize,
    /// Inside a Huffman block: its two tables, and whether it is the last.
    block: Option<(Decoder, DistDecoder, bool)>,
    done: bool,
}

impl Inflater {
    /// Bytes of the stream the cursor is past (the last maybe in part).
    pub fn consumed(&self) -> usize {
        self.bit_pos.div_ceil(8)
    }

    /// Decode what is new in `stream_so_far` — the stream from its first
    /// byte — handing `emit` every decoded byte in order, and say whether
    /// the final block has ended. Truncation is expected, not an error;
    /// any other error repeats on every later call, and `emit` gets none
    /// of what the failing call decoded after the window last filled.
    pub fn advance(
        &mut self,
        stream_so_far: &[u8],
        mut emit: impl FnMut(&[u8]),
    ) -> Result<bool, InflateError> {
        let done = self.advance_held(stream_so_far, &mut emit)?;
        self.window.release(&mut emit);
        Ok(done)
    }

    /// [`Inflater::advance`], but the bytes decoded since the window last
    /// filled stay [`Inflater::held`] until [`Inflater::release`].
    pub(crate) fn advance_held(
        &mut self,
        stream_so_far: &[u8],
        emit: &mut Emit<'_>,
    ) -> Result<bool, InflateError> {
        let mut r = BitReader::at_bit(stream_so_far, self.bit_pos);
        match self.decode(&mut r, emit) {
            Ok(()) | Err(InflateError::UnexpectedEof) => Ok(self.done),
            Err(e) => Err(e),
        }
    }

    /// Decoded bytes not yet handed over.
    pub(crate) fn held(&self) -> &[u8] {
        &self.window.buf[self.window.from..self.window.at]
    }

    /// Hand over the bytes held.
    pub(crate) fn release(&mut self, emit: &mut Emit<'_>) {
        self.window.release(emit);
    }

    /// Decode items to the end of the stream or of the input; `bit_pos`
    /// moves only past items decoded whole.
    fn decode(&mut self, r: &mut BitReader<'_>, emit: &mut Emit<'_>) -> Result<(), InflateError> {
        while !self.done {
            let Some((lit, dist, last)) = &self.block else {
                let last = r.read_bit()? == 1;
                let tables = match r.read_bits(2)? {
                    0b00 => {
                        stored_block(r, &mut self.window, emit)?;
                        self.done = last;
                        None
                    }
                    0b01 => {
                        let lit = decoder(&fixed_litlen_lengths())
                            .map_err(|_| InflateError::BadHuffmanTable)?;
                        let dist = decoder(&fixed_dist_lengths())
                            .map_err(|_| InflateError::BadHuffmanTable)?;
                        Some((lit, dist))
                    }
                    0b10 => Some(dynamic_tables(r)?),
                    _ => return Err(InflateError::BadBlockType),
                };
                self.block = tables.map(|(lit, dist)| (lit, dist, last));
                self.bit_pos = r.bit_position();
                continue;
            };
            while symbol(r, &mut self.window, lit, dist, emit)? {
                self.bit_pos = r.bit_position();
            }
            self.bit_pos = r.bit_position();
            self.done = *last;
            self.block = None;
        }
        Ok(())
    }
}

/// Decompress a raw DEFLATE stream.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    let mut out = Vec::new();
    let done = Inflater::default().advance(data, |run| out.extend_from_slice(run))?;
    match done {
        true => Ok(out),
        false => Err(InflateError::UnexpectedEof),
    }
}

fn stored_block(
    r: &mut BitReader<'_>,
    out: &mut Window,
    emit: &mut Emit<'_>,
) -> Result<(), InflateError> {
    r.align_byte();
    let len = r.read_bits(16)? as u16;
    let nlen = r.read_bits(16)? as u16;
    if len != !nlen {
        return Err(InflateError::BadStoredLength);
    }
    out.extend(r.read_bytes(len as usize)?, emit);
    Ok(())
}

/// A distance decoder: its alphabet is 30 symbols (32 in a fixed block),
/// so a 64-entry table keeps a block's two tables small where they lie,
/// in the [`Inflater`].
type DistDecoder = Decoder<64>;

/// The decoder for a set of code lengths (in this crate's tests, on a
/// thread that asks for it, without its table: the bit-serial reference).
fn decoder<const N: usize>(lengths: &[u32]) -> Result<Decoder<N>, HuffError> {
    let decoder = Decoder::new(lengths);
    #[cfg(test)]
    let decoder = decoder.map(|d| match tests::SERIAL.get() {
        true => d.serial(),
        false => d,
    });
    decoder
}

fn decode_symbol<const N: usize>(
    r: &mut BitReader<'_>,
    dec: &Decoder<N>,
) -> Result<u16, InflateError> {
    match dec.decode(r)? {
        Ok(sym) => Ok(sym),
        Err(HuffError::BadCode) => Err(InflateError::BadCode),
        Err(_) => Err(InflateError::BadHuffmanTable),
    }
}

fn dynamic_tables(r: &mut BitReader<'_>) -> Result<(Decoder, DistDecoder), InflateError> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(InflateError::BadHuffmanTable);
    }

    let mut clc_lengths = [0u32; 19];
    for &at in &CLC_ORDER[..hclen] {
        clc_lengths[at] = r.read_bits(3)?;
    }
    // Code-length codes are at most 7 bits: the table reads every one.
    let clc: Decoder<128> = decoder(&clc_lengths).map_err(|_| InflateError::BadHuffmanTable)?;

    // Both tables' lengths, on the stack; a repeat that would run past
    // them is a bad table.
    let total = hlit + hdist;
    let mut lengths = [0u32; 286 + 30];
    let mut n = 0;
    while n < total {
        let (value, rep) = match decode_symbol(r, &clc)? {
            sym @ 0..=15 => (sym as u32, 1),
            16 => {
                let prev = n.checked_sub(1).ok_or(InflateError::BadHuffmanTable)?;
                (lengths[prev], r.read_bits(2)? as usize + 3)
            }
            17 => (0, r.read_bits(3)? as usize + 3),
            18 => (0, r.read_bits(7)? as usize + 11),
            _ => return Err(InflateError::BadSymbol),
        };
        if n + rep > total {
            return Err(InflateError::BadHuffmanTable);
        }
        lengths[n..n + rep].fill(value);
        n += rep;
    }

    let lit = decoder(&lengths[..hlit]).map_err(|_| InflateError::BadHuffmanTable)?;
    // An empty distance table is legal when the block has no matches; use a
    // single-symbol placeholder in that case.
    let dist = match decoder(&lengths[hlit..total]) {
        Ok(d) => d,
        Err(HuffError::Empty) => decoder(&[1]).unwrap(),
        Err(_) => return Err(InflateError::BadHuffmanTable),
    };
    Ok((lit, dist))
}

/// Decode one symbol of a Huffman block into `out`; false at the
/// end-of-block symbol. `out` changes only once the whole symbol is read.
fn symbol(
    r: &mut BitReader<'_>,
    out: &mut Window,
    lit: &Decoder,
    dist: &DistDecoder,
    emit: &mut Emit<'_>,
) -> Result<bool, InflateError> {
    let sym = decode_symbol(r, lit)?;
    match sym {
        0..=255 => out.push(sym as u8, emit),
        256 => return Ok(false),
        257..=285 => {
            let (extra, base) = LENGTH_TABLE[(sym - 257) as usize];
            let len = base as usize + r.read_bits(extra)? as usize;

            let dsym = decode_symbol(r, dist)?;
            if dsym as usize >= DIST_TABLE.len() {
                return Err(InflateError::BadSymbol);
            }
            let (dextra, dbase) = DIST_TABLE[dsym as usize];
            let d = dbase as usize + r.read_bits(dextra)? as usize;
            out.repeat(d, len, emit)?;
        }
        _ => return Err(InflateError::BadSymbol),
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::{deflate, Level};
    use std::cell::Cell;

    thread_local! {
        /// Whether decoders built on this thread go without their table.
        pub(super) static SERIAL: Cell<bool> = const { Cell::new(false) };
    }

    #[test]
    fn known_fixed_block() {
        // A canonical fixed-Huffman block for "abc" produced by zlib:
        // literals 'a'(0x61): code 0x91 len 8, etc. Easier: roundtrip
        // against our encoder is covered elsewhere; here decode a
        // hand-assembled stored block.
        let raw = [0x01u8, 0x03, 0x00, 0xFC, 0xFF, b'a', b'b', b'c'];
        assert_eq!(inflate(&raw).unwrap(), b"abc");
    }

    #[test]
    fn truncated_input_errors() {
        let ok = deflate(b"hello hello hello hello", Level::Default);
        for cut in 0..ok.len() {
            let err = inflate(&ok[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_block_type() {
        // BFINAL=1, BTYPE=11.
        let raw = [0b0000_0111u8];
        assert_eq!(inflate(&raw).unwrap_err(), InflateError::BadBlockType);
    }

    #[test]
    fn bad_stored_nlen() {
        let raw = [0x01u8, 0x03, 0x00, 0x00, 0x00, b'a', b'b', b'c'];
        assert_eq!(inflate(&raw).unwrap_err(), InflateError::BadStoredLength);
    }

    #[test]
    fn distance_before_start_rejected() {
        // Build a fixed block whose first symbol is a match — invalid.
        use crate::bitio::BitWriter;
        use crate::huffman::assign_codes;
        use crate::tables::fixed_litlen_lengths;
        let lens = fixed_litlen_lengths();
        let codes = assign_codes(&lens);
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        // Length symbol 257 (len 3), distance symbol 0 (dist 1) into empty
        // output.
        w.write_code(codes[257], lens[257]);
        w.write_code(0, 5);
        let raw = w.finish();
        assert_eq!(inflate(&raw).unwrap_err(), InflateError::BadDistance);
    }

    /// `prefix` in stored blocks, then a last, fixed block of the matches
    /// `(dist, len)` in turn; and the bytes it decodes to, repeated a byte
    /// at a time.
    fn with_matches(prefix: &[u8], matches: &[(usize, usize)]) -> (Vec<u8>, Vec<u8>) {
        use crate::bitio::BitWriter;
        use crate::huffman::assign_codes;
        use crate::tables::{dist_to_symbol, length_to_symbol};
        let mut w = BitWriter::new();
        for block in prefix.chunks(usize::from(u16::MAX)) {
            w.write_bits(0, 1);
            w.write_bits(0b00, 2);
            w.align_byte();
            w.write_bits(block.len() as u32, 16);
            w.write_bits(!(block.len() as u32) & 0xFFFF, 16);
            w.write_bytes(block);
        }
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        let (lit, dist) = (fixed_litlen_lengths(), fixed_dist_lengths());
        let (lit_codes, dist_codes) = (assign_codes(&lit), assign_codes(&dist));
        let mut want = prefix.to_vec();
        for &(d, len) in matches {
            let (sym, extra, value) = length_to_symbol(len as u16);
            w.write_code(lit_codes[sym as usize], lit[sym as usize]);
            w.write_bits(value, extra);
            let (sym, extra, value) = dist_to_symbol(d as u16);
            w.write_code(dist_codes[sym as usize], dist[sym as usize]);
            w.write_bits(value, extra);
            // (No bytes for a reference before the first byte.)
            for _ in 0..len {
                want.extend(want.len().checked_sub(d).map(|at| want[at]));
            }
        }
        w.write_code(lit_codes[256], lit[256]);
        (w.finish(), want)
    }

    #[test]
    fn back_references_reach_a_whole_window_back_across_its_edge() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(32_768);
        let data: Vec<u8> = (0..2 * WINDOW + 300).map(|_| rng.gen()).collect();
        // Matches that write across the window's edge, reading exactly a
        // window back (the byte about to be written over), a byte less,
        // from inside the match itself, and from the lap before.
        let matches = [
            (WINDOW, 258),
            (WINDOW - 1, 258),
            (1, 258),
            (300, 258),
            (WINDOW, 3),
        ];
        for prefix in [
            WINDOW,
            WINDOW + 1,
            2 * WINDOW - 300,
            2 * WINDOW - 1,
            2 * WINDOW + 5,
        ] {
            let (stream, want) = with_matches(&data[..prefix], &matches);
            assert_eq!(
                inflate(&stream).as_deref(),
                Ok(&want[..]),
                "prefix {prefix}"
            );
            for piece in [1, 1000] {
                let (mut inflater, mut out, mut len) = (Inflater::default(), Vec::new(), 0);
                while len < stream.len() {
                    len = (len + piece).min(stream.len());
                    let done = inflater.advance(&stream[..len], |run| out.extend_from_slice(run));
                    assert_eq!(done, Ok(len == stream.len()), "prefix {prefix}, {len}");
                }
                assert!(out == want, "prefix {prefix}, pieces of {piece}");
            }
        }
        // A window back is as far as a reference may reach, and never
        // before the first byte.
        let (stream, _) = with_matches(&data[..WINDOW - 1], &[(WINDOW, 3)]);
        assert_eq!(inflate(&stream), Err(InflateError::BadDistance));
    }

    #[test]
    fn empty_stream_is_eof() {
        assert_eq!(inflate(&[]).unwrap_err(), InflateError::UnexpectedEof);
    }

    #[test]
    fn prefix_inflation_yields_partial_output() {
        let text = b"the leading text is recoverable from a prefix ".repeat(40);
        let full = deflate(&text, Level::Default);
        // Feeding ~60% of the compressed stream must reproduce a healthy
        // prefix of the original.
        let cut = full.len() * 6 / 10;
        let mut inflater = Inflater::default();
        let mut out = Vec::new();
        let mut keep = |run: &[u8]| out.extend_from_slice(run);
        assert_eq!(inflater.advance(&full[..cut], &mut keep), Ok(false));
        let partial = out.len();
        assert!(0 < partial && partial < text.len());
        assert_eq!(out, &text[..partial]);
        // The rest of the stream completes it from where it stopped.
        let mut keep = |run: &[u8]| out.extend_from_slice(run);
        assert_eq!(inflater.advance(&full, &mut keep), Ok(true));
        assert_eq!(out, text);
        assert_eq!(inflater.consumed(), full.len());
        // Non-EOF corruption still errors, on every call.
        let mut bad = Inflater::default();
        assert_eq!(
            bad.advance(&[0b0000_0111u8], |_| {}),
            Err(InflateError::BadBlockType)
        );
        assert_eq!(
            bad.advance(&[0b0000_0111u8, 0], |_| {}),
            Err(InflateError::BadBlockType)
        );
    }

    /// Grow the stream a byte at a time: each call hands over what it
    /// decoded (nothing when it fails), and at the end one `Inflater` has
    /// handed over exactly what `inflate` makes of the whole.
    fn check_every_prefix(stream: &[u8]) {
        let mut inflater = Inflater::default();
        let mut out = Vec::new();
        let mut last = Ok(false);
        for len in 0..=stream.len() {
            let (before, decoded) = (out.len(), inflater.window.written());
            let now = inflater.advance(&stream[..len], |run| out.extend_from_slice(run));
            assert!(last.is_ok() || now == last, "an error must repeat");
            if now.is_ok() {
                assert_eq!(out.len() - before, inflater.window.written() - decoded);
            }
            assert!(inflater.consumed() <= len);
            last = now;
        }
        match inflate(stream) {
            Ok(bytes) => assert_eq!((last, &out[..]), (Ok(true), &bytes[..])),
            Err(InflateError::UnexpectedEof) => assert_eq!(last, Ok(false)),
            Err(e) => assert_eq!(last, Err(e)),
        }
    }

    #[test]
    fn every_prefix_of_stored_fixed_and_dynamic_streams() {
        let text = b"<TD ALIGN=LEFT><IMG SRC=\"/images/dot.gif\"></TD> body text ".repeat(60);
        for (input, level, btype) in [
            (&text[..], Level::Store, 0b00),
            (&b"abcabcabcabcabcabc fixed"[..], Level::Fast, 0b01),
            (&text[..], Level::Default, 0b10),
        ] {
            let stream = deflate(input, level);
            assert_eq!((stream[0] >> 1) & 0b11, btype, "{level:?}");
            check_every_prefix(&stream);
        }
        // Streams that are wrong, not short: reserved block type after a
        // good block, a stored length check, a distance before the start.
        let mut bad = deflate(b"ok", Level::Store);
        bad[0] &= !1; // not the last block after all
        bad.push(0b0000_0111);
        check_every_prefix(&bad);
        check_every_prefix(&[0x01, 0x03, 0x00, 0x00, 0x00, b'a', b'b', b'c']);
    }

    /// What one inflater makes of `stream` handed to it a byte longer at a
    /// time, raw or zlib-wrapped: after each prefix, the bytes decoded,
    /// the bits consumed and the verdict; then the whole output. `serial`
    /// builds every decoder without its table.
    fn prefix_trace(stream: &[u8], zlib: bool, serial: bool) -> (Vec<String>, Vec<u8>) {
        SERIAL.set(serial);
        let (mut raw, mut wrapped) = (Inflater::default(), crate::zlib::Decompressor::default());
        let (mut trace, mut out) = (Vec::new(), Vec::new());
        for len in 0..=stream.len() {
            let keep = |run: &[u8]| out.extend_from_slice(run);
            let verdict = match zlib {
                false => format!("{:?}", raw.advance(&stream[..len], keep)),
                true => format!(
                    "{:?}",
                    wrapped.advance(&stream[..len], len == stream.len(), keep)
                ),
            };
            let inflater = if zlib { &wrapped.inflater } else { &raw };
            trace.push(format!(
                "{len}: {} {} {verdict}",
                inflater.window.written(),
                inflater.bit_pos
            ));
        }
        SERIAL.set(false);
        (trace, out)
    }

    #[test]
    fn the_table_decodes_every_prefix_of_the_page_as_the_bit_serial_walk_does() {
        let html = webcontent::microscape::Microscape::generate().html;
        for level in [Level::Store, Level::Fast, Level::Default, Level::Best] {
            for zlib in [false, true] {
                let stream = match zlib {
                    false => deflate(html.as_bytes(), level),
                    true => crate::zlib::compress(html.as_bytes(), level),
                };
                let (table, out) = prefix_trace(&stream, zlib, false);
                let (walk, reference) = prefix_trace(&stream, zlib, true);
                for (new, old) in table.iter().zip(&walk) {
                    assert_eq!(new, old, "{level:?}, zlib {zlib}");
                }
                assert_eq!((out.len(), &out[..]), (html.len(), &reference[..]));
                let done = if zlib { "Ok(())" } else { "Ok(true)" };
                assert!(table.last().unwrap().ends_with(done), "{level:?}");
            }
        }
    }
}
