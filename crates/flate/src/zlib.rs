//! The zlib container format (RFC 1950): a 2-byte header, a DEFLATE stream,
//! and an Adler-32 trailer. This is the `deflate` content-coding HTTP/1.1
//! actually negotiates (RFC 2068 defines "deflate" as the zlib format).

use crate::checksum::{adler32, Adler32};
use crate::deflate::{deflate, Level};
use crate::inflate::{InflateError, Inflater};

/// Errors specific to the zlib wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZlibError {
    /// Header malformed or using an unsupported method/window.
    BadHeader,
    /// FCHECK failed: CMF/FLG is not a multiple of 31.
    BadHeaderCheck,
    /// A preset dictionary was requested (unsupported).
    NeedsDictionary,
    /// The embedded DEFLATE stream is invalid.
    Deflate(InflateError),
    /// Adler-32 of the decompressed data does not match the trailer.
    BadChecksum,
    /// Stream ends before the 4-byte trailer.
    Truncated,
}

impl std::fmt::Display for ZlibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZlibError::BadHeader => f.write_str("bad zlib header"),
            ZlibError::BadHeaderCheck => f.write_str("zlib header check failed"),
            ZlibError::NeedsDictionary => f.write_str("preset dictionary unsupported"),
            ZlibError::Deflate(e) => write!(f, "deflate error: {e}"),
            ZlibError::BadChecksum => f.write_str("adler32 mismatch"),
            ZlibError::Truncated => f.write_str("truncated zlib stream"),
        }
    }
}

impl std::error::Error for ZlibError {}

/// Compress into the zlib format.
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    // CMF: method 8 (deflate), window 32K (CINFO=7).
    let cmf: u8 = 0x78;
    // FLG: FLEVEL from the level; FCHECK makes (CMF<<8 | FLG) % 31 == 0.
    let flevel: u8 = match level {
        Level::Store | Level::Fast => 0,
        Level::Default => 2,
        Level::Best => 3,
    };
    let mut flg = flevel << 6;
    let rem = ((cmf as u16) << 8 | flg as u16) % 31;
    if rem != 0 {
        flg += (31 - rem) as u8;
    }
    debug_assert_eq!(((cmf as u16) << 8 | flg as u16) % 31, 0);

    let mut out = vec![cmf, flg];
    out.extend_from_slice(&deflate(data, level));
    out.extend_from_slice(&adler32(data).to_be_bytes());
    out
}

/// A resumable zlib reader: checks the two header bytes once, then drives
/// an [`Inflater`] over the DEFLATE stream behind them — for consumers
/// that inspect the data before the stream completes. It keeps no output
/// but the inflater's window, and checks the trailer against a running
/// Adler-32 of what it has handed over.
#[derive(Debug, Default)]
pub struct Decompressor {
    /// Bytes of the stream read so far; 0 until the header has been checked.
    consumed: usize,
    pub(crate) inflater: Inflater,
    /// Adler-32 of every byte handed over so far.
    adler: Adler32,
}

impl Decompressor {
    /// Bytes of the stream read so far, header and trailer included.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Decompress what is new in `stream`, the stream from its first byte
    /// as far as it has arrived, handing `emit` each decoded byte in
    /// order. Short of `at_end` a stream that merely stops short is not
    /// an error; at the end it is, and the Adler-32 trailer must match
    /// everything decompressed. A bad header or invalid data is an error
    /// on this and every later call. A call that fails hands over none
    /// of what it decoded after the window last filled — at the end, so
    /// a bad trailer or a short stream withholds the call's last run.
    pub fn advance(
        &mut self,
        stream: &[u8],
        at_end: bool,
        mut emit: impl FnMut(&[u8]),
    ) -> Result<(), ZlibError> {
        // A whole stream ends in four bytes that are not DEFLATE data.
        if at_end && stream.len() < 6 {
            return Err(ZlibError::Truncated);
        }
        let (framed, trailer) = stream.split_at(stream.len() - if at_end { 4 } else { 0 });
        let [cmf, flg, deflated @ ..] = framed else {
            return Ok(());
        };
        if self.consumed == 0 {
            if cmf & 0x0F != 8 || (cmf >> 4) > 7 {
                return Err(ZlibError::BadHeader);
            }
            if ((*cmf as u16) << 8 | *flg as u16) % 31 != 0 {
                return Err(ZlibError::BadHeaderCheck);
            }
            if flg & 0x20 != 0 {
                return Err(ZlibError::NeedsDictionary);
            }
        }
        let adler = &mut self.adler;
        let done = self
            .inflater
            .advance_held(deflated, &mut |run| {
                adler.update(run);
                emit(run)
            })
            .map_err(ZlibError::Deflate)?;
        self.consumed = 2 + self.inflater.consumed();
        if at_end {
            if !done {
                return Err(ZlibError::Deflate(InflateError::UnexpectedEof));
            }
            let mut whole = self.adler;
            whole.update(self.inflater.held());
            if trailer != whole.finish().to_be_bytes() {
                return Err(ZlibError::BadChecksum);
            }
            self.consumed = stream.len();
        }
        let adler = &mut self.adler;
        self.inflater.release(&mut |run| {
            adler.update(run);
            emit(run)
        });
        Ok(())
    }
}

/// Decompress a zlib stream.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, ZlibError> {
    let mut out = Vec::new();
    Decompressor::default().advance(data, true, |run| out.extend_from_slice(run))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_levels() {
        let data = b"zlib container roundtrip test data ".repeat(50);
        for level in [Level::Store, Level::Fast, Level::Default, Level::Best] {
            let z = compress(&data, level);
            assert_eq!(decompress(&z).unwrap(), data);
        }
    }

    #[test]
    fn header_is_standard() {
        let z = compress(b"x", Level::Default);
        assert_eq!(z[0], 0x78, "CMF: deflate with 32K window");
        assert_eq!(((z[0] as u16) << 8 | z[1] as u16) % 31, 0);
    }

    #[test]
    fn corrupted_checksum_detected() {
        let mut z = compress(b"checksum matters", Level::Default);
        let n = z.len();
        z[n - 1] ^= 0xFF;
        assert_eq!(decompress(&z).unwrap_err(), ZlibError::BadChecksum);
    }

    #[test]
    fn corrupted_header_detected() {
        let mut z = compress(b"data", Level::Default);
        z[0] = 0x79; // method 9
        assert_eq!(decompress(&z).unwrap_err(), ZlibError::BadHeader);
        let mut z = compress(b"data", Level::Default);
        z[1] ^= 0x01;
        assert_eq!(decompress(&z).unwrap_err(), ZlibError::BadHeaderCheck);
    }

    /// Hand `reader` the stream so far, keeping what it hands over.
    fn feed(
        reader: &mut Decompressor,
        out: &mut Vec<u8>,
        stream: &[u8],
        at_end: bool,
    ) -> Result<(), ZlibError> {
        reader.advance(stream, at_end, |run| out.extend_from_slice(run))
    }

    #[test]
    fn prefix_decompress_streams() {
        let data = b"partial zlib payloads decode as a prefix ".repeat(30);
        let z = compress(&data, Level::Default);
        let (mut reader, mut out) = (Decompressor::default(), Vec::new());
        feed(&mut reader, &mut out, &[], false).unwrap();
        feed(&mut reader, &mut out, &z[..1], false).unwrap();
        assert_eq!((out.len(), reader.consumed()), (0, 0));
        feed(&mut reader, &mut out, &z[..z.len() / 2], false).unwrap();
        let partial = out.len();
        assert!(partial > 0);
        assert_eq!(out, &data[..partial]);
        // The same reader finishes the stream: every byte read once, the
        // trailer checked against all of the output.
        feed(&mut reader, &mut out, &z, true).unwrap();
        assert_eq!(out, data);
        assert_eq!(reader.consumed(), z.len());
        assert_eq!(
            Decompressor::default().advance(&[0x79, 0x9C, 1], false, |_| {}),
            Err(ZlibError::BadHeader)
        );
        // A bad trailer: the call that finds it hands over nothing.
        let mut flipped = z.clone();
        *flipped.last_mut().unwrap() ^= 0xFF;
        let (mut reader, mut out) = (Decompressor::default(), Vec::new());
        feed(&mut reader, &mut out, &flipped[..flipped.len() / 2], false).unwrap();
        let before = out.len();
        let verdict = feed(&mut reader, &mut out, &flipped, true);
        assert_eq!((verdict, out.len()), (Err(ZlibError::BadChecksum), before));
        // A stream cut short is fine until it is said to be whole.
        let (mut reader, mut out) = (Decompressor::default(), Vec::new());
        feed(&mut reader, &mut out, &z[..z.len() - 5], false).unwrap();
        let before = out.len();
        assert_eq!(
            feed(&mut reader, &mut out, &z[..z.len() - 1], true),
            Err(ZlibError::Deflate(InflateError::UnexpectedEof))
        );
        assert_eq!(out.len(), before);
    }

    #[test]
    fn the_running_adler_covers_every_byte_handed_over_once() {
        let html = webcontent::microscape::Microscape::generate().html;
        let z = compress(html.as_bytes(), Level::Default);
        for piece in [1, 7, 536, 1460, z.len()] {
            let (mut reader, mut out) = (Decompressor::default(), Vec::new());
            let mut len = 0;
            while len < z.len() {
                len = (len + piece).min(z.len());
                feed(&mut reader, &mut out, &z[..len], len == z.len()).unwrap();
                assert_eq!(reader.adler.finish(), adler32(&out), "{piece} {len}");
            }
            assert_eq!(reader.adler.finish(), adler32(html.as_bytes()));
            assert_eq!(out, html.as_bytes());
        }
    }

    #[test]
    fn truncated_stream_detected() {
        let z = compress(b"data", Level::Default);
        assert_eq!(decompress(&z[..3]).unwrap_err(), ZlibError::Truncated);
    }
}
