//! A GIF87a/89a codec with a real LZW implementation.
//!
//! Writes single-image GIF87a files and multi-frame GIF89a animations
//! (Netscape looping extension + per-frame graphic control blocks), and
//! reads back everything it writes. This is the baseline image format the
//! paper's test page uses: 40 static GIFs (103,299 bytes) and 2 animations
//! (24,988 bytes).

use crate::image::{Animation, Frame, IndexedImage, Rgb};

/// Maximum LZW code value in GIF (12-bit codes).
const MAX_CODE: u16 = 4096;

/// Errors reading a GIF stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GifError {
    /// Bad signature.
    BadSignature,
    /// Truncated.
    Truncated,
    /// Bad lzw code.
    BadLzwCode,
    /// Interlaced images are not produced by this encoder and unsupported.
    Unsupported(&'static str),
}

impl std::fmt::Display for GifError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GifError::BadSignature => f.write_str("not a GIF file"),
            GifError::Truncated => f.write_str("truncated GIF stream"),
            GifError::BadLzwCode => f.write_str("invalid LZW code"),
            GifError::Unsupported(what) => write!(f, "unsupported GIF feature: {what}"),
        }
    }
}

impl std::error::Error for GifError {}

// ---------------------------------------------------------------------
// LZW
// ---------------------------------------------------------------------

/// GIF-flavoured LZW compression of `data` with the given minimum code
/// size. Returns the raw code stream (before sub-block framing).
pub fn lzw_compress(data: &[u8], min_code_size: u32) -> Vec<u8> {
    let clear: u16 = 1 << min_code_size;
    let eoi: u16 = clear + 1;

    let mut out = BitPacker::new();
    let mut width = min_code_size + 1;
    out.push(clear, width);
    let Some((&first, rest)) = data.split_first() else {
        out.push(eoi, width);
        return out.finish();
    };
    // The dictionary maps (prefix code, byte) to a code through one flat
    // table indexed by `prefix << min_code_size | byte`; 0 is absent, as
    // every dictionary code is above `eoi`. A prefix is below `next`,
    // which a stream of n bytes takes no further than `eoi + n`. A reset
    // clears only the entries it drops, from `added`.
    let codes = (MAX_CODE as usize).min(eoi as usize + data.len());
    let mut dict: Vec<u16> = vec![0; codes << min_code_size];
    let mut added: Vec<u32> = Vec::with_capacity(codes - eoi as usize);
    let mut next: u16 = eoi + 1;
    let mut cur: u16 = first as u16;

    for &k in rest {
        let key = (cur as u32) << min_code_size | k as u32;
        let c = dict[key as usize];
        if c != 0 {
            cur = c;
            continue;
        }
        out.push(cur, width);
        if next < MAX_CODE {
            dict[key as usize] = next;
            added.push(key);
            next += 1;
            if next == (1 << width) && width < 12 {
                width += 1;
            }
            if next == MAX_CODE {
                out.push(clear, width);
                for key in added.drain(..) {
                    dict[key as usize] = 0;
                }
                next = eoi + 1;
                width = min_code_size + 1;
            }
        }
        cur = k as u16;
    }
    out.push(cur, width);
    out.push(eoi, width);
    out.finish()
}

/// The encoder as first written, over a SipHash map: the reference the
/// flat table must match byte for byte.
#[cfg(test)]
fn lzw_compress_reference(data: &[u8], min_code_size: u32) -> Vec<u8> {
    let clear: u16 = 1 << min_code_size;
    let eoi: u16 = clear + 1;

    let mut out = BitPacker::new();
    let mut width = min_code_size + 1;
    let mut dict: std::collections::HashMap<(u16, u8), u16> = std::collections::HashMap::new();
    let mut next: u16 = eoi + 1;

    out.push(clear, width);
    let Some((&first, rest)) = data.split_first() else {
        out.push(eoi, width);
        return out.finish();
    };
    let mut cur: u16 = first as u16;

    for &k in rest {
        if let Some(&c) = dict.get(&(cur, k)) {
            cur = c;
            continue;
        }
        out.push(cur, width);
        if next < MAX_CODE {
            dict.insert((cur, k), next);
            next += 1;
            if next == (1 << width) && width < 12 {
                width += 1;
            }
            if next == MAX_CODE {
                out.push(clear, width);
                dict.clear();
                next = eoi + 1;
                width = min_code_size + 1;
            }
        }
        cur = k as u16;
    }
    out.push(cur, width);
    out.push(eoi, width);
    out.finish()
}

/// GIF-flavoured LZW decompression.
pub fn lzw_decompress(data: &[u8], min_code_size: u32) -> Result<Vec<u8>, GifError> {
    let clear: u16 = 1 << min_code_size;
    let eoi: u16 = clear + 1;

    let mut reader = BitUnpacker::new(data);
    let mut width = min_code_size + 1;
    // Dictionary of byte strings; entries < clear are single bytes.
    let mut dict: Vec<Vec<u8>> = (0..clear).map(|i| vec![i as u8]).collect();
    dict.push(Vec::new()); // clear
    dict.push(Vec::new()); // eoi
    let mut out = Vec::new();
    let mut prev: Option<u16> = None;

    loop {
        let Some(code) = reader.pull(width) else {
            // Streams are allowed to end right after EOI; anything else is
            // a truncation. Tolerate missing EOI like most readers.
            return Ok(out);
        };
        if code == clear {
            dict.truncate((eoi + 1) as usize);
            width = min_code_size + 1;
            prev = None;
            continue;
        }
        if code == eoi {
            return Ok(out);
        }
        let entry: Vec<u8> = match prev {
            None => {
                if (code as usize) >= dict.len() {
                    return Err(GifError::BadLzwCode);
                }
                dict[code as usize].clone()
            }
            Some(p) => {
                let prev_str = dict.get(p as usize).cloned().ok_or(GifError::BadLzwCode)?;
                let entry = if (code as usize) < dict.len() {
                    dict[code as usize].clone()
                } else if code as usize == dict.len() {
                    // The KwKwK case.
                    let mut e = prev_str.clone();
                    e.push(prev_str[0]);
                    e
                } else {
                    return Err(GifError::BadLzwCode);
                };
                if dict.len() < MAX_CODE as usize {
                    let mut new_entry = prev_str;
                    new_entry.push(entry[0]);
                    dict.push(new_entry);
                    // "Early change": the decoder runs one dictionary entry
                    // behind the encoder, so it widens one entry early to
                    // stay in sync with the encoder's width schedule.
                    if dict.len() + 1 == (1usize << width) && width < 12 {
                        width += 1;
                    }
                }
                entry
            }
        };
        out.extend_from_slice(&entry);
        prev = Some(code);
    }
}

/// Packs LZW codes LSB-first (GIF convention).
struct BitPacker {
    out: Vec<u8>,
    buf: u32,
    bits: u32,
}

impl BitPacker {
    fn new() -> Self {
        BitPacker {
            out: Vec::new(),
            buf: 0,
            bits: 0,
        }
    }

    fn push(&mut self, code: u16, width: u32) {
        self.buf |= (code as u32) << self.bits;
        self.bits += width;
        while self.bits >= 8 {
            self.out.push((self.buf & 0xFF) as u8);
            self.buf >>= 8;
            self.bits -= 8;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.bits > 0 {
            self.out.push((self.buf & 0xFF) as u8);
        }
        self.out
    }
}

struct BitUnpacker<'a> {
    data: &'a [u8],
    pos: usize,
    buf: u32,
    bits: u32,
}

impl<'a> BitUnpacker<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitUnpacker {
            data,
            pos: 0,
            buf: 0,
            bits: 0,
        }
    }

    fn pull(&mut self, width: u32) -> Option<u16> {
        while self.bits < width {
            if self.pos >= self.data.len() {
                return None;
            }
            self.buf |= (self.data[self.pos] as u32) << self.bits;
            self.pos += 1;
            self.bits += 8;
        }
        let v = (self.buf & ((1 << width) - 1)) as u16;
        self.buf >>= width;
        self.bits -= width;
        Some(v)
    }
}

// ---------------------------------------------------------------------
// Container
// ---------------------------------------------------------------------

fn palette_table_bits(n: usize) -> u32 {
    // GIF color tables are sized 2^(k+1); find smallest k covering n.
    let mut bits = 1;
    while (1usize << bits) < n {
        bits += 1;
    }
    bits as u32
}

fn write_palette(out: &mut Vec<u8>, palette: &[Rgb]) {
    let bits = palette_table_bits(palette.len());
    for rgb in palette {
        out.extend_from_slice(rgb);
    }
    for _ in palette.len()..(1 << bits) {
        out.extend_from_slice(&[0, 0, 0]);
    }
}

fn write_sub_blocks(out: &mut Vec<u8>, data: &[u8]) {
    for chunk in data.chunks(255) {
        out.push(chunk.len() as u8);
        out.extend_from_slice(chunk);
    }
    out.push(0);
}

fn write_image_data(out: &mut Vec<u8>, img: &IndexedImage) {
    // Image descriptor.
    out.push(0x2C);
    out.extend_from_slice(&0u16.to_le_bytes()); // left
    out.extend_from_slice(&0u16.to_le_bytes()); // top
    out.extend_from_slice(&(img.width as u16).to_le_bytes());
    out.extend_from_slice(&(img.height as u16).to_le_bytes());
    out.push(0); // no local color table, not interlaced
    let mcs = img.bit_depth().max(2);
    out.push(mcs as u8);
    let lzw = lzw_compress(&img.pixels, mcs);
    write_sub_blocks(out, &lzw);
}

/// Encode a single-image GIF87a file.
pub fn encode(img: &IndexedImage) -> Vec<u8> {
    img.validate().expect("valid image");
    let mut out = Vec::new();
    out.extend_from_slice(b"GIF87a");
    write_screen_descriptor(&mut out, img.width, img.height, &img.palette);
    write_image_data(&mut out, img);
    out.push(0x3B);
    out
}

fn write_screen_descriptor(out: &mut Vec<u8>, w: u32, h: u32, palette: &[Rgb]) {
    out.extend_from_slice(&(w as u16).to_le_bytes());
    out.extend_from_slice(&(h as u16).to_le_bytes());
    let bits = palette_table_bits(palette.len());
    // Global color table present; color resolution = bits.
    out.push(0x80 | (((bits - 1) as u8) << 4) | ((bits - 1) as u8));
    out.push(0); // background color index
    out.push(0); // aspect ratio
    write_palette(out, palette);
}

/// Encode a looping GIF89a animation. All frames use the global palette of
/// the first frame.
pub fn encode_animation(anim: &Animation) -> Vec<u8> {
    let first = &anim.frames[0].image;
    let mut out = Vec::new();
    out.extend_from_slice(b"GIF89a");
    write_screen_descriptor(&mut out, first.width, first.height, &first.palette);

    // Netscape looping extension (loop forever).
    out.extend_from_slice(&[0x21, 0xFF, 0x0B]);
    out.extend_from_slice(b"NETSCAPE2.0");
    out.extend_from_slice(&[0x03, 0x01, 0x00, 0x00, 0x00]);

    for frame in &anim.frames {
        // Graphic control extension with the frame delay.
        out.extend_from_slice(&[0x21, 0xF9, 0x04, 0x00]);
        out.extend_from_slice(&frame.delay_cs.to_le_bytes());
        out.extend_from_slice(&[0x00, 0x00]);
        write_image_data(&mut out, &frame.image);
    }
    out.push(0x3B);
    out
}

/// A decoded GIF: one or more frames plus the screen palette.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedGif {
    /// Decoded frames in display order.
    pub frames: Vec<Frame>,
    /// True if the file was GIF89a with animation extensions.
    pub animated: bool,
}

/// Decode a GIF written by [`encode`] or [`encode_animation`] (plus the
/// common subset of files from other tools: no interlace, no local color
/// tables).
pub fn decode(data: &[u8]) -> Result<DecodedGif, GifError> {
    let mut r = Cursor { data, pos: 0 };
    let sig = r.take(6)?;
    if sig != b"GIF87a" && sig != b"GIF89a" {
        return Err(GifError::BadSignature);
    }
    let width = r.u16()? as u32;
    let height = r.u16()? as u32;
    let packed = r.u8()?;
    let _bg = r.u8()?;
    let _aspect = r.u8()?;
    let mut palette = Vec::new();
    if packed & 0x80 != 0 {
        let n = 1usize << ((packed & 0x07) + 1);
        for _ in 0..n {
            let rgb = r.take(3)?;
            palette.push([rgb[0], rgb[1], rgb[2]]);
        }
    }

    let mut frames = Vec::new();
    let mut animated = false;
    let mut pending_delay: u16 = 0;
    loop {
        match r.u8()? {
            0x3B => break,
            0x21 => {
                let label = r.u8()?;
                if label == 0xF9 {
                    animated = true;
                    let block = r.sub_blocks()?;
                    if block.len() >= 4 {
                        pending_delay = u16::from_le_bytes([block[1], block[2]]);
                    }
                } else {
                    let _ = r.sub_blocks()?;
                }
            }
            0x2C => {
                let _left = r.u16()?;
                let _top = r.u16()?;
                let w = r.u16()? as u32;
                let h = r.u16()? as u32;
                let ipacked = r.u8()?;
                if ipacked & 0x40 != 0 {
                    return Err(GifError::Unsupported("interlace"));
                }
                let local_palette = if ipacked & 0x80 != 0 {
                    let n = 1usize << ((ipacked & 0x07) + 1);
                    let mut p = Vec::with_capacity(n);
                    for _ in 0..n {
                        let rgb = r.take(3)?;
                        p.push([rgb[0], rgb[1], rgb[2]]);
                    }
                    Some(p)
                } else {
                    None
                };
                let mcs = r.u8()? as u32;
                let lzw = r.sub_blocks()?;
                let pixels = lzw_decompress(&lzw, mcs)?;
                if pixels.len() != (w * h) as usize {
                    return Err(GifError::Truncated);
                }
                let pal = local_palette.unwrap_or_else(|| palette.clone());
                frames.push(Frame {
                    image: IndexedImage {
                        width: w,
                        height: h,
                        palette: pal,
                        pixels,
                    },
                    delay_cs: pending_delay,
                });
                pending_delay = 0;
            }
            _ => return Err(GifError::Unsupported("unknown block")),
        }
    }
    if frames.is_empty() {
        return Err(GifError::Truncated);
    }
    let _ = (width, height);
    Ok(DecodedGif { frames, animated })
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], GifError> {
        if self.pos + n > self.data.len() {
            return Err(GifError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, GifError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, GifError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    fn sub_blocks(&mut self) -> Result<Vec<u8>, GifError> {
        let mut out = Vec::new();
        loop {
            let len = self.u8()? as usize;
            if len == 0 {
                return Ok(out);
            }
            out.extend_from_slice(self.take(len)?);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{small_palette, IndexedImage};

    fn checker(w: u32, h: u32, colors: usize) -> IndexedImage {
        let mut img = IndexedImage::solid(w, h, small_palette(colors));
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, (((x / 4) + (y / 4)) % colors as u32) as u8);
            }
        }
        img
    }

    #[test]
    fn lzw_roundtrip_simple() {
        for mcs in 2..=8 {
            let data: Vec<u8> = (0..500u32).map(|i| (i % (1 << mcs.min(4))) as u8).collect();
            let c = lzw_compress(&data, mcs);
            assert_eq!(lzw_decompress(&c, mcs).unwrap(), data, "mcs={mcs}");
        }
    }

    #[test]
    fn lzw_roundtrip_empty_and_single() {
        let c = lzw_compress(&[], 2);
        assert_eq!(lzw_decompress(&c, 2).unwrap(), Vec::<u8>::new());
        let c = lzw_compress(&[3], 2);
        assert_eq!(lzw_decompress(&c, 2).unwrap(), vec![3]);
    }

    #[test]
    fn lzw_kwkwk_case() {
        // "aaaa..." exercises the code == next (KwKwK) path immediately.
        let data = vec![1u8; 100];
        let c = lzw_compress(&data, 2);
        assert_eq!(lzw_decompress(&c, 2).unwrap(), data);
    }

    #[test]
    fn lzw_dictionary_overflow_reset() {
        // Enough distinct material to fill the 4096-entry dictionary.
        let mut x = 7u64;
        let data: Vec<u8> = (0..200_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect();
        let c = lzw_compress(&data, 8);
        assert_eq!(lzw_decompress(&c, 8).unwrap(), data);
    }

    /// Panics naming the case and the first byte where the flat-table
    /// encoder leaves the map encoder's output; returns that output.
    fn matches_reference(data: &[u8], mcs: u32, case: &str) -> Vec<u8> {
        let want = lzw_compress_reference(data, mcs);
        let got = lzw_compress(data, mcs);
        if got != want {
            let at = got.iter().zip(&want).take_while(|(a, b)| a == b).count();
            panic!(
                "{case}, mcs={mcs}, {} input bytes: output differs from byte {at} \
                 ({} vs {} bytes)",
                data.len(),
                got.len(),
                want.len()
            );
        }
        got
    }

    #[test]
    fn flat_table_matches_the_map_encoder() {
        // Between two clear codes the encoder emits MAX_CODE - eoi - 1
        // codes of at most 12 bits, so past this many bytes a stream has
        // crossed at least three dictionary resets.
        let three_resets = 3 * (MAX_CODE as usize * 12 / 8);
        let mut x = 0x5EED_u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        for mcs in 2..=8u32 {
            let symbols = 1u32 << mcs;
            matches_reference(&[], mcs, "empty");
            for s in 0..symbols {
                matches_reference(&[s as u8], mcs, "one byte");
            }
            for len in [2, 3, 4, 10, 100, 1_000] {
                let s = (next() % symbols) as u8;
                matches_reference(&vec![s; len], mcs, "single-symbol run");
            }
            let uniform: Vec<u8> = (0..100_000).map(|_| (next() % symbols) as u8).collect();
            let c = matches_reference(&uniform, mcs, "uniform");
            assert!(c.len() > three_resets, "mcs={mcs}: only {} bytes", c.len());
            let mut runs = Vec::new();
            while runs.len() < 100_000 {
                let s = (next() % symbols) as u8;
                runs.resize(runs.len() + 1 + next() as usize % 8, s);
            }
            matches_reference(&runs, mcs, "runs");
        }
    }

    #[test]
    fn lzw_compresses_repetitive_data() {
        let data = b"webwebwebweb".repeat(100);
        let c = lzw_compress(&data, 8);
        assert!(c.len() < data.len() / 4);
    }

    #[test]
    fn gif_roundtrip() {
        let img = checker(33, 17, 5);
        let bytes = encode(&img);
        assert_eq!(&bytes[..6], b"GIF87a");
        assert_eq!(*bytes.last().unwrap(), 0x3B);
        let dec = decode(&bytes).unwrap();
        assert!(!dec.animated);
        assert_eq!(dec.frames.len(), 1);
        assert_eq!(dec.frames[0].image.pixels, img.pixels);
        assert_eq!(dec.frames[0].image.width, 33);
        assert_eq!(dec.frames[0].image.height, 17);
        // Palette is padded to a power of two: compare the leading entries.
        assert_eq!(&dec.frames[0].image.palette[..5], &img.palette[..]);
    }

    #[test]
    fn tiny_one_by_one() {
        let img = IndexedImage::solid(1, 1, small_palette(2));
        let dec = decode(&encode(&img)).unwrap();
        assert_eq!(dec.frames[0].image.pixels, vec![0]);
    }

    #[test]
    fn animation_roundtrip() {
        let frames: Vec<Frame> = (0..4)
            .map(|i| {
                let mut img = checker(16, 16, 4);
                img.set(i, 0, 3);
                Frame {
                    image: img,
                    delay_cs: 10 + i as u16,
                }
            })
            .collect();
        let anim = Animation::new(frames.clone());
        let bytes = encode_animation(&anim);
        assert_eq!(&bytes[..6], b"GIF89a");
        let dec = decode(&bytes).unwrap();
        assert!(dec.animated);
        assert_eq!(dec.frames.len(), 4);
        for (got, want) in dec.frames.iter().zip(&frames) {
            assert_eq!(got.image.pixels, want.image.pixels);
            assert_eq!(got.delay_cs, want.delay_cs);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode(b"NOTAGIF").unwrap_err(), GifError::BadSignature);
        assert_eq!(decode(b"GIF87a").unwrap_err(), GifError::Truncated);
    }

    #[test]
    fn overhead_is_small_for_tiny_images() {
        // The fixed cost of a 2-color 1x1 GIF: header(6) + LSD(7) +
        // palette(6) + descriptor(10) + mcs(1) + data + trailer(1) ≈ 35B.
        let img = IndexedImage::solid(1, 1, small_palette(2));
        let n = encode(&img).len();
        assert!(n < 50, "tiny GIF is {n} bytes");
    }
}
