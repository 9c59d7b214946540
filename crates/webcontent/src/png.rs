//! A PNG codec (RFC 2083) for palette-indexed images.
//!
//! Implements the subset relevant to the paper's GIF→PNG conversion study:
//! indexed-color images at bit depths 1/2/4/8, all five scanline filters,
//! zlib-compressed IDAT (via the from-scratch `flate` crate), and the
//! `gAMA` chunk — which the paper calls out as adding 16 bytes per image
//! so converted images display identically on all platforms.

use crate::image::{IndexedImage, Rgb};
use flate::checksum::crc32;
use flate::Level;

/// PNG signature bytes.
pub const SIGNATURE: [u8; 8] = [0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A];

/// Errors reading a PNG stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PngError {
    /// Bad signature.
    BadSignature,
    /// Truncated.
    Truncated,
    /// Bad crc.
    BadCrc,
    /// Bad chunk order.
    BadChunkOrder,
    /// Bad filter.
    BadFilter(u8),
    /// Bad idat.
    BadIdat,
    /// Unsupported.
    Unsupported(&'static str),
}

impl std::fmt::Display for PngError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PngError::BadSignature => f.write_str("not a PNG file"),
            PngError::Truncated => f.write_str("truncated PNG stream"),
            PngError::BadCrc => f.write_str("chunk CRC mismatch"),
            PngError::BadChunkOrder => f.write_str("chunks out of order"),
            PngError::BadFilter(t) => write!(f, "unknown filter type {t}"),
            PngError::BadIdat => f.write_str("IDAT data corrupt"),
            PngError::Unsupported(what) => write!(f, "unsupported PNG feature: {what}"),
        }
    }
}

impl std::error::Error for PngError {}

/// Encoding options.
#[derive(Debug, Clone, Copy)]
pub struct PngOptions {
    /// Include a gAMA chunk (adds exactly 16 bytes), as the paper's
    /// conversion did.
    pub gamma: bool,
    /// DEFLATE effort for the IDAT stream.
    pub level: Level,
}

impl Default for PngOptions {
    fn default() -> Self {
        PngOptions {
            gamma: true,
            level: Level::Default,
        }
    }
}

fn chunk(out: &mut Vec<u8>, kind: &[u8; 4], data: &[u8]) {
    out.extend_from_slice(&(data.len() as u32).to_be_bytes());
    out.extend_from_slice(kind);
    out.extend_from_slice(data);
    let mut crc_input = Vec::with_capacity(4 + data.len());
    crc_input.extend_from_slice(kind);
    crc_input.extend_from_slice(data);
    out.extend_from_slice(&crc32(&crc_input).to_be_bytes());
}

/// Pack one scanline of indexed pixels at the given bit depth (MSB-first
/// within each byte, per PNG).
fn pack_scanline(pixels: &[u8], depth: u32) -> Vec<u8> {
    match depth {
        8 => pixels.to_vec(),
        1 | 2 | 4 => {
            let per_byte = 8 / depth as usize;
            let mut out = vec![0u8; pixels.len().div_ceil(per_byte)];
            for (i, &p) in pixels.iter().enumerate() {
                let byte = i / per_byte;
                let slot = i % per_byte;
                let shift = 8 - depth as usize * (slot + 1);
                out[byte] |= p << shift;
            }
            out
        }
        _ => unreachable!("indexed depth is 1/2/4/8"),
    }
}

fn unpack_scanline(bytes: &[u8], depth: u32, width: usize) -> Vec<u8> {
    match depth {
        8 => bytes[..width].to_vec(),
        1 | 2 | 4 => {
            let per_byte = 8 / depth as usize;
            let mask = (1u16 << depth) as u8 - 1;
            (0..width)
                .map(|i| {
                    let byte = bytes[i / per_byte];
                    let slot = i % per_byte;
                    let shift = 8 - depth as usize * (slot + 1);
                    (byte >> shift) & mask
                })
                .collect()
        }
        _ => unreachable!(),
    }
}

fn paeth(a: u8, b: u8, c: u8) -> u8 {
    let (a, b, c) = (a as i16, b as i16, c as i16);
    let p = a + b - c;
    let (pa, pb, pc) = ((p - a).abs(), (p - b).abs(), (p - c).abs());
    if pa <= pb && pa <= pc {
        a as u8
    } else if pb <= pc {
        b as u8
    } else {
        c as u8
    }
}

/// Apply filter `ft` to a raw scanline. `prev` is the previous raw line
/// (zeros for the first). Indexed images have one byte per filter unit.
fn filter_line(ft: u8, line: &[u8], prev: &[u8]) -> Vec<u8> {
    let n = line.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let raw = line[i];
        let a = if i > 0 { line[i - 1] } else { 0 };
        let b = prev[i];
        let c = if i > 0 { prev[i - 1] } else { 0 };
        let v = match ft {
            0 => raw,
            1 => raw.wrapping_sub(a),
            2 => raw.wrapping_sub(b),
            3 => raw.wrapping_sub(((a as u16 + b as u16) / 2) as u8),
            4 => raw.wrapping_sub(paeth(a, b, c)),
            _ => unreachable!(),
        };
        out.push(v);
    }
    out
}

fn unfilter_line(ft: u8, line: &mut [u8], prev: &[u8]) -> Result<(), PngError> {
    for i in 0..line.len() {
        let a = if i > 0 { line[i - 1] } else { 0 };
        let b = prev[i];
        let c = if i > 0 { prev[i - 1] } else { 0 };
        line[i] = match ft {
            0 => line[i],
            1 => line[i].wrapping_add(a),
            2 => line[i].wrapping_add(b),
            3 => line[i].wrapping_add(((a as u16 + b as u16) / 2) as u8),
            4 => line[i].wrapping_add(paeth(a, b, c)),
            t => return Err(PngError::BadFilter(t)),
        };
    }
    Ok(())
}

/// Encode an indexed image as a PNG file.
pub fn encode(img: &IndexedImage, opts: PngOptions) -> Vec<u8> {
    img.validate().expect("valid image");
    let depth = match img.bit_depth() {
        1 => 1,
        2 => 2,
        3 | 4 => 4,
        _ => 8,
    };

    let mut out = Vec::new();
    out.extend_from_slice(&SIGNATURE);

    // IHDR
    let mut ihdr = Vec::with_capacity(13);
    ihdr.extend_from_slice(&img.width.to_be_bytes());
    ihdr.extend_from_slice(&img.height.to_be_bytes());
    ihdr.push(depth as u8);
    ihdr.push(3); // indexed color
    ihdr.push(0); // deflate
    ihdr.push(0); // adaptive filtering
    ihdr.push(0); // no interlace
    chunk(&mut out, b"IHDR", &ihdr);

    if opts.gamma {
        // sRGB-era default: gamma 1/2.2 → 45455 in PNG's fixed point.
        chunk(&mut out, b"gAMA", &45_455u32.to_be_bytes());
    }

    // PLTE
    let mut plte = Vec::with_capacity(img.palette.len() * 3);
    for rgb in &img.palette {
        plte.extend_from_slice(rgb);
    }
    chunk(&mut out, b"PLTE", &plte);

    // IDAT: filter each packed scanline with the minimum-sum heuristic.
    let w = img.width as usize;
    let mut raw = Vec::new();
    let mut prev_line: Vec<u8> = Vec::new();
    for y in 0..img.height as usize {
        let line = pack_scanline(&img.pixels[y * w..(y + 1) * w], depth);
        if prev_line.is_empty() {
            prev_line = vec![0u8; line.len()];
        }
        let mut best: Option<(u8, Vec<u8>, u64)> = None;
        for ft in 0..=4u8 {
            let cand = filter_line(ft, &line, &prev_line);
            let score: u64 = cand.iter().map(|&b| (b as i8).unsigned_abs() as u64).sum();
            if best.as_ref().is_none_or(|(_, _, s)| score < *s) {
                best = Some((ft, cand, score));
            }
        }
        let (ft, filtered, _) = best.unwrap();
        raw.push(ft);
        raw.extend_from_slice(&filtered);
        prev_line = line;
    }
    let idat = flate::zlib::compress(&raw, opts.level);
    chunk(&mut out, b"IDAT", &idat);
    chunk(&mut out, b"IEND", &[]);
    out
}

/// A decoded PNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedPng {
    /// The decoded bitmap.
    pub image: IndexedImage,
    /// The gAMA value if present (PNG fixed-point: gamma × 100000).
    pub gamma: Option<u32>,
}

/// Decode an indexed-color PNG.
pub fn decode(data: &[u8]) -> Result<DecodedPng, PngError> {
    if data.len() < 8 || data[..8] != SIGNATURE {
        return Err(PngError::BadSignature);
    }
    let mut pos = 8;
    let mut width = 0u32;
    let mut height = 0u32;
    let mut depth = 0u32;
    let mut palette: Vec<Rgb> = Vec::new();
    let mut idat: Vec<u8> = Vec::new();
    let mut gamma = None;
    let mut seen_ihdr = false;
    let mut seen_iend = false;

    while pos + 8 <= data.len() {
        let len =
            u32::from_be_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]) as usize;
        let kind = &data[pos + 4..pos + 8];
        if pos + 8 + len + 4 > data.len() {
            return Err(PngError::Truncated);
        }
        let body = &data[pos + 8..pos + 8 + len];
        let crc_expect = u32::from_be_bytes([
            data[pos + 8 + len],
            data[pos + 8 + len + 1],
            data[pos + 8 + len + 2],
            data[pos + 8 + len + 3],
        ]);
        let mut crc_input = Vec::with_capacity(4 + len);
        crc_input.extend_from_slice(kind);
        crc_input.extend_from_slice(body);
        if crc32(&crc_input) != crc_expect {
            return Err(PngError::BadCrc);
        }
        match kind {
            b"IHDR" => {
                if body.len() != 13 {
                    return Err(PngError::Truncated);
                }
                width = u32::from_be_bytes([body[0], body[1], body[2], body[3]]);
                height = u32::from_be_bytes([body[4], body[5], body[6], body[7]]);
                depth = body[8] as u32;
                if body[9] != 3 {
                    return Err(PngError::Unsupported("non-indexed color type"));
                }
                if body[12] != 0 {
                    return Err(PngError::Unsupported("interlace"));
                }
                seen_ihdr = true;
            }
            b"PLTE" => {
                if !seen_ihdr {
                    return Err(PngError::BadChunkOrder);
                }
                palette = body.chunks(3).map(|c| [c[0], c[1], c[2]]).collect();
            }
            b"IDAT" => {
                if palette.is_empty() {
                    return Err(PngError::BadChunkOrder);
                }
                idat.extend_from_slice(body);
            }
            b"gAMA" if body.len() == 4 => {
                gamma = Some(u32::from_be_bytes([body[0], body[1], body[2], body[3]]));
            }
            b"IEND" => {
                seen_iend = true;
                break;
            }
            _ => {} // ancillary chunks ignored
        }
        pos += 8 + len + 4;
    }
    if !seen_ihdr || !seen_iend {
        return Err(PngError::Truncated);
    }

    let raw = flate::zlib::decompress(&idat).map_err(|_| PngError::BadIdat)?;
    let line_bytes = (width as usize * depth as usize).div_ceil(8);
    if raw.len() != (line_bytes + 1) * height as usize {
        return Err(PngError::BadIdat);
    }

    let mut pixels = Vec::with_capacity((width * height) as usize);
    let mut prev = vec![0u8; line_bytes];
    for y in 0..height as usize {
        let row = &raw[y * (line_bytes + 1)..(y + 1) * (line_bytes + 1)];
        let ft = row[0];
        let mut line = row[1..].to_vec();
        unfilter_line(ft, &mut line, &prev)?;
        pixels.extend(unpack_scanline(&line, depth, width as usize));
        prev = line;
    }

    let image = IndexedImage {
        width,
        height,
        palette,
        pixels,
    };
    image.validate().map_err(|_| PngError::BadIdat)?;
    Ok(DecodedPng { image, gamma })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{small_palette, IndexedImage};

    fn gradient(w: u32, h: u32, colors: usize) -> IndexedImage {
        let mut img = IndexedImage::solid(w, h, small_palette(colors));
        for y in 0..h {
            for x in 0..w {
                img.set(
                    x,
                    y,
                    (((x + y) * colors as u32 / (w + h)) % colors as u32) as u8,
                );
            }
        }
        img
    }

    #[test]
    fn roundtrip_various_depths() {
        for colors in [2, 3, 4, 9, 17, 200] {
            let img = gradient(37, 23, colors);
            let bytes = encode(&img, PngOptions::default());
            let dec = decode(&bytes).unwrap();
            assert_eq!(dec.image.pixels, img.pixels, "colors={colors}");
            assert_eq!(dec.image.width, 37);
            assert_eq!(&dec.image.palette[..colors], &img.palette[..]);
        }
    }

    #[test]
    fn gamma_chunk_is_exactly_16_bytes() {
        let img = gradient(10, 10, 4);
        let with = encode(
            &img,
            PngOptions {
                gamma: true,
                level: Level::Default,
            },
        );
        let without = encode(
            &img,
            PngOptions {
                gamma: false,
                level: Level::Default,
            },
        );
        assert_eq!(
            with.len() - without.len(),
            16,
            "the paper: gamma adds 16 bytes"
        );
        let dec = decode(&with).unwrap();
        assert_eq!(dec.gamma, Some(45_455));
        assert_eq!(decode(&without).unwrap().gamma, None);
    }

    #[test]
    fn crc_corruption_detected() {
        let img = gradient(8, 8, 4);
        let mut bytes = encode(&img, PngOptions::default());
        // Flip a bit inside the IHDR body.
        bytes[17] ^= 0x01;
        assert_eq!(decode(&bytes).unwrap_err(), PngError::BadCrc);
    }

    #[test]
    fn signature_checked() {
        assert_eq!(decode(b"JFIF....").unwrap_err(), PngError::BadSignature);
    }

    #[test]
    fn filters_roundtrip_each_type() {
        // Force specific content shapes that favour different filters.
        // Horizontal gradient favours Sub; vertical favours Up.
        let mut img = IndexedImage::solid(64, 64, small_palette(256));
        for y in 0..64 {
            for x in 0..64 {
                img.set(x, y, ((x * 4) % 256) as u8);
            }
        }
        let dec = decode(&encode(&img, PngOptions::default())).unwrap();
        assert_eq!(dec.image.pixels, img.pixels);

        for y in 0..64 {
            for x in 0..64 {
                img.set(x, y, ((y * 4) % 256) as u8);
            }
        }
        let dec = decode(&encode(&img, PngOptions::default())).unwrap();
        assert_eq!(dec.image.pixels, img.pixels);
    }

    #[test]
    fn one_by_one() {
        let img = IndexedImage::solid(1, 1, small_palette(2));
        let dec = decode(&encode(&img, PngOptions::default())).unwrap();
        assert_eq!(dec.image.pixels, vec![0]);
    }

    #[test]
    fn png_beats_gif_on_larger_images() {
        // The paper's central PNG claim: PNG is usually smaller than GIF
        // for non-tiny images.
        let img = gradient(120, 80, 32);
        let png = encode(&img, PngOptions::default()).len();
        let gif = crate::gif::encode(&img).len();
        assert!(
            png < gif,
            "PNG ({png}) should beat GIF ({gif}) on a 120x80 image"
        );
    }

    #[test]
    fn png_loses_to_gif_on_tiny_images() {
        // ...but "PNG does not perform as well on the very low bit depth
        // images in the sub-200 byte category" — fixed chunk overhead.
        let img = IndexedImage::solid(12, 12, small_palette(2));
        let png = encode(&img, PngOptions::default()).len();
        let gif = crate::gif::encode(&img).len();
        assert!(png > gif, "tiny PNG ({png}) should exceed tiny GIF ({gif})");
    }

    #[test]
    fn paeth_predictor_reference() {
        // From the PNG spec's definition.
        assert_eq!(paeth(0, 0, 0), 0);
        assert_eq!(paeth(10, 20, 10), 20);
        assert_eq!(paeth(20, 10, 10), 20);
        assert_eq!(paeth(10, 10, 30), 10);
    }
}
