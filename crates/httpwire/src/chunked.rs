//! The HTTP/1.1 chunked transfer coding (RFC 2068 §3.6).
//!
//! Chunked coding is what lets an HTTP/1.1 server stream a response of
//! unknown length over a persistent connection — without it the server
//! would have to close the connection to delimit the body, defeating
//! persistence. The paper's servers send `Content-Length` for static
//! objects, but dynamic responses need chunking, so the stack supports it.

use bytes::BytesQueue;

/// Encode `body` as a chunked stream with chunks of at most `chunk_size`.
pub fn encode(body: &[u8], chunk_size: usize) -> Vec<u8> {
    assert!(chunk_size > 0, "chunk size must be positive");
    let mut out = Vec::with_capacity(body.len() + 64);
    for chunk in body.chunks(chunk_size) {
        out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    out
}

/// Error decoding a chunked stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkError {
    /// Chunk size line is not valid hex.
    BadSize,
    /// Missing CRLF after chunk data.
    BadDelimiter,
}

/// Incremental chunked-body decoder.
///
/// Feed bytes with [`ChunkedDecoder::feed`] in pieces of any size: every
/// byte offered is consumed (a size line split across feeds is held
/// here) until the terminal chunk and trailer have been seen, after which
/// nothing more is. Unconsumed input beyond the terminal chunk is left to
/// the caller so a pipelined parser can continue with the next message.
/// The first error is sticky.
#[derive(Debug, Default)]
pub struct ChunkedDecoder {
    state: State,
    /// The size line being read, up to its LF.
    line: Vec<u8>,
}

#[derive(Debug, Default, Clone, Copy, PartialEq)]
enum State {
    #[default]
    SizeLine,
    Data {
        remaining: usize,
    },
    DataCrlf {
        seen_cr: bool,
    },
    /// After the 0-size chunk: consume the final CRLF (no trailers are
    /// generated by any component here, but a lone trailer-less CRLF is
    /// required).
    Trailer {
        seen_cr: bool,
    },
    Done,
    Failed(ChunkError),
}

/// The chunk size a complete size line (without its LF) declares.
fn parse_size_line(line: &[u8]) -> Result<usize, ChunkError> {
    let line = std::str::from_utf8(line).map_err(|_| ChunkError::BadSize)?;
    // Chunk extensions after ';' are ignored per RFC.
    let size_part = line.split(';').next().unwrap_or("").trim();
    usize::from_str_radix(size_part, 16).map_err(|_| ChunkError::BadSize)
}

impl ChunkedDecoder {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        ChunkedDecoder::default()
    }

    /// True once the last chunk and trailer CRLF have been consumed.
    pub fn done(&self) -> bool {
        self.state == State::Done
    }

    /// Consume bytes from `input`, appending a copy of the body bytes they
    /// carry to `out`; returns how many bytes were consumed.
    pub fn feed(&mut self, input: &[u8], out: &mut BytesQueue) -> Result<usize, ChunkError> {
        if let State::Failed(e) = self.state {
            return Err(e);
        }
        self.step(input, out)
            .inspect_err(|&e| self.state = State::Failed(e))
    }

    fn step(&mut self, input: &[u8], out: &mut BytesQueue) -> Result<usize, ChunkError> {
        let mut pos = 0;
        while pos < input.len() {
            match self.state {
                State::Done | State::Failed(_) => break,
                State::SizeLine => {
                    let rest = &input[pos..];
                    let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                        self.line.extend_from_slice(rest);
                        return Ok(input.len());
                    };
                    self.line.extend_from_slice(&rest[..nl]);
                    let size = parse_size_line(&self.line)?;
                    self.line.clear();
                    pos += nl + 1;
                    self.state = if size == 0 {
                        State::Trailer { seen_cr: false }
                    } else {
                        State::Data { remaining: size }
                    };
                }
                State::Data { remaining } => {
                    let take = remaining.min(input.len() - pos);
                    out.extend_from_slice(&input[pos..pos + take]);
                    pos += take;
                    if take == remaining {
                        self.state = State::DataCrlf { seen_cr: false };
                    } else {
                        self.state = State::Data {
                            remaining: remaining - take,
                        };
                    }
                }
                State::DataCrlf { seen_cr } => {
                    let b = input[pos];
                    pos += 1;
                    match (seen_cr, b) {
                        (false, b'\r') => self.state = State::DataCrlf { seen_cr: true },
                        (true, b'\n') => self.state = State::SizeLine,
                        (false, b'\n') => self.state = State::SizeLine, // tolerate bare LF
                        _ => return Err(ChunkError::BadDelimiter),
                    }
                }
                State::Trailer { seen_cr } => {
                    let b = input[pos];
                    pos += 1;
                    match (seen_cr, b) {
                        (false, b'\r') => self.state = State::Trailer { seen_cr: true },
                        (true, b'\n') | (false, b'\n') => self.state = State::Done,
                        _ => return Err(ChunkError::BadDelimiter),
                    }
                }
            }
        }
        Ok(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(data: &[u8]) -> (Vec<u8>, usize) {
        let mut d = ChunkedDecoder::new();
        let mut out = BytesQueue::new();
        let used = d.feed(data, &mut out).expect("decode");
        assert!(d.done());
        (out.to_vec(), used)
    }

    #[test]
    fn roundtrip_simple() {
        let body = b"The quick brown fox jumps over the lazy dog";
        let enc = encode(body, 10);
        let (dec, used) = decode_all(&enc);
        assert_eq!(dec, body);
        assert_eq!(used, enc.len());
    }

    #[test]
    fn encode_format() {
        let enc = encode(b"hello", 16);
        assert_eq!(enc, b"5\r\nhello\r\n0\r\n\r\n".to_vec());
    }

    #[test]
    fn empty_body() {
        let enc = encode(b"", 16);
        assert_eq!(enc, b"0\r\n\r\n".to_vec());
        let (dec, _) = decode_all(&enc);
        assert!(dec.is_empty());
    }

    #[test]
    fn trailing_pipelined_data_not_consumed() {
        let mut enc = encode(b"abc", 16);
        enc.extend_from_slice(b"HTTP/1.1 200 OK\r\n");
        let (_, used) = decode_all(&enc);
        assert_eq!(&enc[used..], b"HTTP/1.1 200 OK\r\n");
    }

    #[test]
    fn byte_at_a_time() {
        let body: Vec<u8> = (0..100u8).collect();
        let enc = encode(&body, 7);
        let mut d = ChunkedDecoder::new();
        let mut out = BytesQueue::new();
        for &b in &enc {
            assert_eq!(d.feed(&[b], &mut out), Ok(1));
        }
        assert!(d.done());
        assert_eq!(out, body);
        assert_eq!(d.feed(b"next", &mut out), Ok(0), "nothing past the end");
    }

    #[test]
    fn chunk_extensions_ignored() {
        let data = b"5;ext=1\r\nhello\r\n0\r\n\r\n";
        let (dec, _) = decode_all(data);
        assert_eq!(dec, b"hello");
    }

    #[test]
    fn bad_hex_rejected() {
        let mut d = ChunkedDecoder::new();
        let mut out = BytesQueue::new();
        assert_eq!(d.feed(b"zz\r\n", &mut out), Err(ChunkError::BadSize));
        assert_eq!(d.feed(b"0\r\n\r\n", &mut out), Err(ChunkError::BadSize));
    }

    #[test]
    fn bad_delimiter_rejected() {
        let mut d = ChunkedDecoder::new();
        let mut out = BytesQueue::new();
        assert_eq!(
            d.feed(b"3\r\nabcXY", &mut out),
            Err(ChunkError::BadDelimiter)
        );
    }
}
