//! Wire format: a 9-byte frame header (u24 payload length, u8 type,
//! u8 flags, u32 stream id, all big-endian) followed by the payload.
//! Header blocks are length-prefixed name/value lists (u16 field count,
//! then per field u16 name length + name bytes + u16 value length +
//! value bytes). Pseudo-headers `:method` / `:path` / `:status` carry
//! the request/response line.

use bytes::{Bytes, BytesMut, BytesQueue};
use httpwire::{Fields, HeaderMap};

/// Client connection preface, sent before any frame. Chosen so the first
/// byte can never begin a valid HTTP/1.x method token parse on our
/// servers ("HMUX" is not a known method and the line ends without a
/// version), letting endpoints sniff the protocol family.
pub const PREFACE: &[u8] = b"HMUX/1\r\nSM\r\n";

/// Fixed frame header size in bytes.
pub const FRAME_HEADER_LEN: usize = 9;

/// Largest payload a single frame may carry. DATA above this is chunked
/// by the sender; anything larger on the wire is a framing error.
pub const MAX_FRAME_PAYLOAD: usize = 16 * 1024;

/// Initial per-stream and connection-level flow-control window.
pub const DEFAULT_WINDOW: u32 = 65_535;

/// HEADERS / DATA: no further frames from this direction on the stream.
pub const FLAG_END_STREAM: u8 = 0x1;
/// SETTINGS: acknowledges the peer's settings.
pub const FLAG_ACK: u8 = 0x1;

/// SETTINGS identifier: peer accepts PUSH_PROMISE (value 0 or 1).
pub const SETTING_ENABLE_PUSH: u16 = 0x2;
/// SETTINGS identifier: initial per-stream window for streams the
/// *sender of the setting* receives on.
pub const SETTING_INITIAL_WINDOW: u16 = 0x4;

/// RST_STREAM error codes.
pub const ERR_PROTOCOL: u32 = 0x1;
pub const ERR_FLOW_CONTROL: u32 = 0x3;
pub const ERR_CANCEL: u32 = 0x8;

/// Frame type octet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    Data,
    Headers,
    RstStream,
    Settings,
    PushPromise,
    WindowUpdate,
}

impl FrameType {
    pub fn code(self) -> u8 {
        match self {
            FrameType::Data => 0x0,
            FrameType::Headers => 0x1,
            FrameType::RstStream => 0x3,
            FrameType::Settings => 0x4,
            FrameType::PushPromise => 0x5,
            FrameType::WindowUpdate => 0x8,
        }
    }

    pub fn from_code(code: u8) -> Option<FrameType> {
        match code {
            0x0 => Some(FrameType::Data),
            0x1 => Some(FrameType::Headers),
            0x3 => Some(FrameType::RstStream),
            0x4 => Some(FrameType::Settings),
            0x5 => Some(FrameType::PushPromise),
            0x8 => Some(FrameType::WindowUpdate),
            _ => None,
        }
    }
}

/// A decoded frame payload. DATA is the chunks it arrived in, by
/// reference, as an HTTP/1.x body is; the control frames are decoded into
/// their structured forms. A header block is the HTTP/1.x engines' own
/// [`HeaderMap`], pseudo-fields included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FramePayload {
    Data(BytesQueue),
    Headers(HeaderMap),
    RstStream(u32),
    Settings(Vec<(u16, u32)>),
    PushPromise { promised: u32, fields: HeaderMap },
    WindowUpdate(u32),
}

impl FramePayload {
    pub fn frame_type(&self) -> FrameType {
        match self {
            FramePayload::Data(_) => FrameType::Data,
            FramePayload::Headers(_) => FrameType::Headers,
            FramePayload::RstStream(_) => FrameType::RstStream,
            FramePayload::Settings(_) => FrameType::Settings,
            FramePayload::PushPromise { .. } => FrameType::PushPromise,
            FramePayload::WindowUpdate(_) => FrameType::WindowUpdate,
        }
    }
}

/// One mux frame: stream id, flags, decoded payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub stream: u32,
    pub flags: u8,
    pub payload: FramePayload,
}

impl Frame {
    pub fn frame_type(&self) -> FrameType {
        self.payload.frame_type()
    }

    pub fn end_stream(&self) -> bool {
        matches!(
            self.payload.frame_type(),
            FrameType::Data | FrameType::Headers
        ) && self.flags & FLAG_END_STREAM != 0
    }

    /// Serialize onto `out`. Debug-asserts the payload fits one frame;
    /// callers chunk DATA and keep header blocks small.
    pub fn encode_into(&self, out: &mut BytesMut) {
        let frame_type = self.frame_type();
        write_frame(
            frame_type,
            self.flags,
            self.stream,
            out,
            |out| match &self.payload {
                FramePayload::Data(data) => {
                    data.chunks().for_each(|chunk| out.extend_from_slice(chunk))
                }
                FramePayload::Headers(fields) => encode_fields(fields, out),
                FramePayload::RstStream(code) => out.extend_from_slice(&code.to_be_bytes()),
                FramePayload::Settings(items) => {
                    for (id, value) in items {
                        out.extend_from_slice(&id.to_be_bytes());
                        out.extend_from_slice(&value.to_be_bytes());
                    }
                }
                FramePayload::PushPromise { promised, fields } => {
                    out.extend_from_slice(&promised.to_be_bytes());
                    encode_fields(fields, out);
                }
                FramePayload::WindowUpdate(increment) => {
                    out.extend_from_slice(&increment.to_be_bytes())
                }
            },
        );
    }

    pub fn encode(&self) -> Vec<u8> {
        // Convenience for tests and the conformance checker; the engine
        // appends with `encode_into`.
        let mut out = BytesMut::new();
        self.encode_into(&mut out);
        out.to_vec()
    }
}

/// A header block onto `out`, whatever holds it: the engine never owns
/// the block it sends. (The field count is known once they are walked.)
pub(crate) fn encode_fields(fields: &(impl Fields + ?Sized), out: &mut BytesMut) {
    let count_at = out.len();
    out.extend_from_slice(&[0, 0]);
    let mut count = 0u16;
    fields.each_field(&mut |name, value| {
        count += 1;
        out.extend_from_slice(&(name.len() as u16).to_be_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(value.len() as u16).to_be_bytes());
        out.extend_from_slice(value.as_bytes());
    });
    out[count_at..count_at + 2].copy_from_slice(&count.to_be_bytes());
}

/// The header of a frame whose payload is `len` bytes, onto `out`.
pub(crate) fn write_frame_header(
    frame_type: FrameType,
    flags: u8,
    stream: u32,
    len: usize,
    out: &mut BytesMut,
) {
    debug_assert!(len <= MAX_FRAME_PAYLOAD, "frame payload {len} too large");
    let [_, hi, mid, lo] = (len as u32).to_be_bytes();
    out.extend_from_slice(&[hi, mid, lo, frame_type.code(), flags]);
    out.extend_from_slice(&stream.to_be_bytes());
}

/// One frame onto `out`: the header, what `payload` writes, then the
/// length patched in.
pub(crate) fn write_frame(
    frame_type: FrameType,
    flags: u8,
    stream: u32,
    out: &mut BytesMut,
    payload: impl FnOnce(&mut BytesMut),
) {
    let hdr = out.len();
    write_frame_header(frame_type, flags, stream, 0, out);
    payload(out);
    let len = out.len() - hdr - FRAME_HEADER_LEN;
    debug_assert!(len <= MAX_FRAME_PAYLOAD, "frame payload {len} too large");
    out[hdr] = (len >> 16) as u8;
    out[hdr + 1] = (len >> 8) as u8;
    out[hdr + 2] = len as u8;
}

/// Why a byte stream failed to decode as frames. All errors are fatal to
/// the connection: framing has no resync point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Unknown frame type octet.
    UnknownType(u8),
    /// Declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversize(usize),
    /// Payload bytes do not decode as the declared type.
    BadPayload(FrameType),
    /// Expected the connection preface and saw something else.
    BadPreface,
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::UnknownType(t) => write!(f, "unknown frame type 0x{t:x}"),
            FrameError::Oversize(n) => write!(f, "frame payload {n} exceeds max"),
            FrameError::BadPayload(t) => write!(f, "malformed {t:?} payload"),
            FrameError::BadPreface => write!(f, "bad connection preface"),
        }
    }
}

/// Incremental frame decoder. Give it byte chunks of any size, pull
/// complete frames: a DATA payload is the chunks it arrived in, moved out
/// by reference. Never panics on hostile input; the first error is sticky.
#[derive(Debug, Default)]
pub struct FrameParser {
    /// Bytes no frame has claimed yet.
    buf: BytesQueue,
    expect_preface: bool,
    failed: bool,
}

impl FrameParser {
    /// Parser that expects raw frames from the first byte.
    pub fn new() -> FrameParser {
        FrameParser::default()
    }

    /// Parser that first consumes (and validates) the client preface.
    pub fn with_preface() -> FrameParser {
        FrameParser {
            expect_preface: true,
            ..FrameParser::default()
        }
    }

    /// Bytes from the connection, by reference.
    pub fn push(&mut self, data: Bytes) {
        self.buf.push(data);
    }

    /// A copy of bytes from the connection, for a caller that holds only
    /// a slice.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Next complete frame, `Ok(None)` if more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.failed {
            return Err(FrameError::BadPreface);
        }
        if self.expect_preface {
            let have = self.buf.len().min(PREFACE.len());
            if !self.buf.with_prefix(have, |got| got == &PREFACE[..have]) {
                self.failed = true;
                return Err(FrameError::BadPreface);
            }
            if self.buf.len() < PREFACE.len() {
                return Ok(None);
            }
            self.buf.advance(PREFACE.len());
            self.expect_preface = false;
        }
        if self.buf.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let head: [u8; FRAME_HEADER_LEN] = self.buf.with_prefix(FRAME_HEADER_LEN, |head| {
            head.try_into().expect("a whole header")
        });
        let len = ((head[0] as usize) << 16) | ((head[1] as usize) << 8) | head[2] as usize;
        if len > MAX_FRAME_PAYLOAD {
            self.failed = true;
            return Err(FrameError::Oversize(len));
        }
        let Some(ftype) = FrameType::from_code(head[3]) else {
            self.failed = true;
            return Err(FrameError::UnknownType(head[3]));
        };
        if self.buf.len() < FRAME_HEADER_LEN + len {
            return Ok(None);
        }
        let flags = head[4];
        let stream = u32::from_be_bytes([head[5], head[6], head[7], head[8]]);
        self.buf.advance(FRAME_HEADER_LEN);
        let decoded = if ftype == FrameType::Data {
            let mut data = BytesQueue::new();
            self.buf.drain_into(len, &mut data);
            Some(FramePayload::Data(data))
        } else {
            let decoded = self
                .buf
                .with_prefix(len, |payload| decode_control(ftype, payload));
            self.buf.advance(len);
            decoded
        };
        match decoded {
            Some(payload) => Ok(Some(Frame {
                stream,
                flags,
                payload,
            })),
            None => {
                self.failed = true;
                Err(FrameError::BadPayload(ftype))
            }
        }
    }
}

/// A control frame's payload, decoded from its bytes.
fn decode_control(ftype: FrameType, payload: &[u8]) -> Option<FramePayload> {
    match ftype {
        FrameType::Data => unreachable!("a DATA payload is moved, not decoded"),
        FrameType::Headers => decode_fields(payload).map(FramePayload::Headers),
        FrameType::RstStream => {
            let code = exact_u32(payload)?;
            Some(FramePayload::RstStream(code))
        }
        FrameType::Settings => {
            if payload.len() % 6 != 0 {
                return None;
            }
            let mut items = Vec::with_capacity(payload.len() / 6);
            for chunk in payload.chunks_exact(6) {
                let id = u16::from_be_bytes([chunk[0], chunk[1]]);
                let value = u32::from_be_bytes([chunk[2], chunk[3], chunk[4], chunk[5]]);
                items.push((id, value));
            }
            Some(FramePayload::Settings(items))
        }
        FrameType::PushPromise => {
            if payload.len() < 4 {
                return None;
            }
            let promised = u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]]);
            let fields = decode_fields(&payload[4..])?;
            Some(FramePayload::PushPromise { promised, fields })
        }
        FrameType::WindowUpdate => {
            let increment = exact_u32(payload)?;
            if increment == 0 {
                return None;
            }
            Some(FramePayload::WindowUpdate(increment))
        }
    }
}

fn exact_u32(payload: &[u8]) -> Option<u32> {
    if payload.len() != 4 {
        return None;
    }
    Some(u32::from_be_bytes([
        payload[0], payload[1], payload[2], payload[3],
    ]))
}

/// Decode a header block into a map sized from it; `None` on any length
/// overrun, trailing garbage, non-UTF-8 field bytes, or a field no map
/// can hold (an empty name, a line feed).
fn decode_fields(mut bytes: &[u8]) -> Option<HeaderMap> {
    if bytes.len() < 2 {
        return None;
    }
    let count = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
    bytes = &bytes[2..];
    // A field is four length bytes on the wire and four of punctuation
    // in the map.
    let mut fields = HeaderMap::with_capacity(bytes.len());
    for _ in 0..count {
        let (name, rest) = take_str(bytes)?;
        let (value, rest) = take_str(rest)?;
        bytes = rest;
        if !HeaderMap::can_hold(name, value) {
            return None;
        }
        fields.append(name, value);
    }
    bytes.is_empty().then_some(fields)
}

fn take_str(bytes: &[u8]) -> Option<(&str, &[u8])> {
    if bytes.len() < 2 {
        return None;
    }
    let len = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
    let rest = &bytes[2..];
    if rest.len() < len {
        return None;
    }
    Some((core::str::from_utf8(&rest[..len]).ok()?, &rest[len..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field_block(fields: &[(&str, &str)]) -> HeaderMap {
        let mut block = HeaderMap::new();
        for (name, value) in fields {
            block.append(name, value);
        }
        block
    }

    fn roundtrip(frame: Frame) {
        let mut parser = FrameParser::new();
        parser.feed(&frame.encode());
        assert_eq!(parser.next_frame().unwrap().unwrap(), frame);
        assert!(parser.next_frame().unwrap().is_none());
    }

    #[test]
    fn roundtrips_every_frame_type() {
        roundtrip(Frame {
            stream: 1,
            flags: FLAG_END_STREAM,
            payload: FramePayload::Data(b"hello".to_vec().into()),
        });
        roundtrip(Frame {
            stream: 3,
            flags: 0,
            payload: FramePayload::Headers(field_block(&[
                (":method", "GET"),
                (":path", "/index.html"),
            ])),
        });
        roundtrip(Frame {
            stream: 5,
            flags: 0,
            payload: FramePayload::RstStream(ERR_CANCEL),
        });
        roundtrip(Frame {
            stream: 0,
            flags: 0,
            payload: FramePayload::Settings(vec![
                (SETTING_ENABLE_PUSH, 1),
                (SETTING_INITIAL_WINDOW, 65_535),
            ]),
        });
        roundtrip(Frame {
            stream: 1,
            flags: 0,
            payload: FramePayload::PushPromise {
                promised: 2,
                fields: field_block(&[(":path", "/a.gif")]),
            },
        });
        roundtrip(Frame {
            stream: 0,
            flags: 0,
            payload: FramePayload::WindowUpdate(32_768),
        });
    }

    #[test]
    fn preface_is_consumed_then_frames_follow() {
        let mut parser = FrameParser::with_preface();
        let mut wire = PREFACE.to_vec();
        let frame = Frame {
            stream: 0,
            flags: 0,
            payload: FramePayload::Settings(vec![(SETTING_ENABLE_PUSH, 0)]),
        };
        wire.extend_from_slice(&frame.encode());
        // Feed one byte at a time: incremental parsing must hold.
        for b in wire {
            parser.feed(&[b]);
        }
        assert_eq!(parser.next_frame().unwrap().unwrap(), frame);
    }

    #[test]
    fn bad_preface_is_sticky() {
        let mut parser = FrameParser::with_preface();
        parser.feed(b"GET / HTTP/1.0\r\n");
        assert_eq!(parser.next_frame(), Err(FrameError::BadPreface));
        assert!(parser.next_frame().is_err());
    }

    #[test]
    fn rejects_unknown_type_oversize_and_bad_payloads() {
        let mut parser = FrameParser::new();
        parser.feed(&[0, 0, 0, 0x7, 0, 0, 0, 0, 1]);
        assert_eq!(parser.next_frame(), Err(FrameError::UnknownType(0x7)));

        let mut parser = FrameParser::new();
        parser.feed(&[0xff, 0xff, 0xff, 0x0, 0, 0, 0, 0, 1]);
        assert!(matches!(parser.next_frame(), Err(FrameError::Oversize(_))));

        // RST_STREAM payload must be exactly 4 bytes.
        let mut parser = FrameParser::new();
        parser.feed(&[0, 0, 2, 0x3, 0, 0, 0, 0, 1, 0xde, 0xad]);
        assert_eq!(
            parser.next_frame(),
            Err(FrameError::BadPayload(FrameType::RstStream))
        );

        // WINDOW_UPDATE increment of zero is meaningless.
        let mut wire = vec![0, 0, 4, 0x8, 0, 0, 0, 0, 0];
        wire.extend_from_slice(&0u32.to_be_bytes());
        let mut parser = FrameParser::new();
        parser.feed(&wire);
        assert_eq!(
            parser.next_frame(),
            Err(FrameError::BadPayload(FrameType::WindowUpdate))
        );
    }

    #[test]
    fn header_block_overrun_is_rejected() {
        // Declares 1 field with a 1000-byte name but supplies 2 bytes.
        let mut wire = vec![0, 0, 6, 0x1, 0, 0, 0, 0, 1];
        wire.extend_from_slice(&1u16.to_be_bytes());
        wire.extend_from_slice(&1000u16.to_be_bytes());
        wire.extend_from_slice(b"ab");
        let mut parser = FrameParser::new();
        parser.feed(&wire);
        assert_eq!(
            parser.next_frame(),
            Err(FrameError::BadPayload(FrameType::Headers))
        );
    }
}
