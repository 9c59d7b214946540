//! Request and response messages with wire serialization: a request
//! straight into a connection's `BytesMut`, a response onto its output
//! queue (the head written, the body by reference), or (`to_bytes`,
//! `head_to_bytes`) the same writers over a buffer of the message's own,
//! sized from its `wire_len`. A body is a [`BytesQueue`]: the chunks it
//! was stored or received in, never copied into one.

use crate::headers::{Fields, HeaderMap, LINES_ROOM};
use crate::types::{Method, StatusCode, Version};
use bytes::{Bytes, BytesMut, BytesQueue};

/// `n` in decimal, written into `digits` from the back.
fn decimal(mut n: u64, digits: &mut [u8; 20]) -> &str {
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&digits[at..]).expect("ASCII digits")
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Protocol version on the wire.
    pub version: Version,
    /// Header block, order-preserving. Its buffer also holds the
    /// request-target, so a request keeps this map for life.
    pub headers: HeaderMap,
    /// Entity body (empty when none).
    pub body: BytesQueue,
}

/// The `Content-Length` line a bodied request gains when it has none.
const IMPLICIT_LENGTH: &str = "Content-Length: ";

impl Request {
    /// Create a new, empty instance.
    pub fn new(method: Method, target: impl AsRef<str>, version: Version) -> Self {
        Request {
            method,
            version,
            headers: HeaderMap::with_lead(target.as_ref(), LINES_ROOM),
            body: BytesQueue::new(),
        }
    }

    /// Request-target (origin-form path).
    pub fn target(&self) -> &str {
        self.headers.lead()
    }

    /// Builder-style header append.
    pub fn with_header(mut self, name: &str, value: impl std::fmt::Display) -> Self {
        self.headers.append(name, value);
        self
    }

    /// The body length an implicit `Content-Length` line must carry.
    fn implicit_length(&self) -> Option<u64> {
        (!self.body.is_empty() && !self.headers.contains("Content-Length"))
            .then_some(self.body.len() as u64)
    }

    /// Serialize onto `out`, which grows at most once. A bodied request
    /// gains a `Content-Length` header when none was set.
    pub fn write_to(&self, out: &mut BytesMut) {
        out.reserve(self.wire_len());
        let (method, version) = (self.method.as_str(), self.version.as_str());
        for part in [method, " ", self.target(), " ", version, "\r\n"] {
            out.extend_from_slice(part.as_bytes());
        }
        self.headers.write_to(out);
        if let Some(len) = self.implicit_length() {
            out.extend_from_slice(IMPLICIT_LENGTH.as_bytes());
            out.extend_from_slice(decimal(len, &mut [0; 20]).as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        self.body
            .chunks()
            .for_each(|chunk| out.extend_from_slice(chunk));
    }

    /// Serialize into a buffer of its own.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = BytesMut::new();
        self.write_to(&mut out);
        out.into()
    }

    /// Size on the wire: two spaces and two CRLFs around the parts.
    pub fn wire_len(&self) -> usize {
        let implicit = self.implicit_length().map_or(0, |len| {
            IMPLICIT_LENGTH.len() + decimal(len, &mut [0; 20]).len() + 2
        });
        let first_line = self.method.as_str().len() + self.target().len() + 8;
        first_line + 6 + self.headers.wire_len() + implicit + self.body.len()
    }

    /// Whether the sender wants the connection kept open after this
    /// request (HTTP/1.1 default-persistent semantics, HTTP/1.0
    /// `Connection: keep-alive` opt-in).
    pub fn wants_keep_alive(&self) -> bool {
        if self.headers.has_token("Connection", "close") {
            return false;
        }
        self.version.persistent_by_default() || self.headers.has_token("Connection", "keep-alive")
    }
}

/// A request as a framed transport's field block.
impl Fields for Request {
    fn each_field(&self, f: &mut dyn FnMut(&str, &str)) {
        f(":method", self.method.as_str());
        f(":path", self.target());
        self.headers.each_field(f);
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Protocol version on the wire.
    pub version: Version,
    /// Status code and reason.
    pub status: StatusCode,
    /// Header block, order-preserving.
    pub headers: HeaderMap,
    /// Entity body (empty when none).
    pub body: BytesQueue,
}

impl Response {
    /// Create a new, empty instance.
    pub fn new(version: Version, status: StatusCode) -> Self {
        Response {
            version,
            status,
            headers: HeaderMap::new(),
            body: BytesQueue::new(),
        }
    }

    /// Builder-style header append.
    pub fn with_header(mut self, name: &str, value: impl std::fmt::Display) -> Self {
        self.headers.append(name, value);
        self
    }

    /// Builder-style body assignment: the body is `body`'s bytes, by
    /// reference.
    pub fn with_body(mut self, body: impl Into<Bytes>) -> Self {
        self.body = body.into().into();
        self
    }

    /// Serialize the status line and headers only onto `out` (the body
    /// follows as-is unless chunked coding is applied by the caller).
    fn write_head_to(&self, out: &mut BytesMut) {
        out.reserve(self.head_len());
        let mut digits = [0; 20];
        let status = decimal(self.status.0.into(), &mut digits);
        for part in [
            self.version.as_str(),
            " ",
            status,
            " ",
            self.status.reason(),
            "\r\n",
        ] {
            out.extend_from_slice(part.as_bytes());
        }
        self.headers.write_to(out);
        out.extend_from_slice(b"\r\n");
    }

    /// Size of the head: two spaces and two CRLFs around the parts.
    fn head_len(&self) -> usize {
        let status = decimal(self.status.0.into(), &mut [0; 20]).len();
        8 + status + self.status.reason().len() + 6 + self.headers.wire_len()
    }

    /// Serialize the status line and headers into a buffer of their own.
    pub fn head_to_bytes(&self) -> Vec<u8> {
        let mut out = BytesMut::new();
        self.write_head_to(&mut out);
        out.into()
    }

    /// Queue head plus body onto `out`: the head written into one pooled
    /// chunk, the body's chunks behind it by reference.
    pub fn queue_onto(&self, out: &mut BytesQueue) {
        let mut head = BytesMut::new();
        self.write_head_to(&mut head);
        out.push(head.freeze_pooled());
        self.body.chunks().for_each(|chunk| out.push(chunk.clone()));
    }

    /// Serialize head plus body into a buffer of its own, which grows at
    /// most once.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = BytesMut::pooled(self.wire_len());
        self.write_head_to(&mut out);
        self.body
            .chunks()
            .for_each(|chunk| out.extend_from_slice(chunk));
        out.into()
    }

    /// Serialized size in bytes.
    pub fn wire_len(&self) -> usize {
        self.head_len() + self.body.len()
    }

    /// Whether the connection persists after this response.
    pub fn keeps_alive(&self) -> bool {
        if self.headers.has_token("Connection", "close") {
            return false;
        }
        self.version.persistent_by_default() || self.headers.has_token("Connection", "keep-alive")
    }
}

/// A response as a framed transport's field block.
impl Fields for Response {
    fn each_field(&self, f: &mut dyn FnMut(&str, &str)) {
        f(":status", decimal(self.status.0.into(), &mut [0; 20]));
        self.headers.each_field(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_serialization() {
        let req = Request::new(Method::Get, "/index.html", Version::Http11)
            .with_header("Host", "microscape.example");
        let bytes = req.to_bytes();
        assert_eq!(
            bytes,
            b"GET /index.html HTTP/1.1\r\nHost: microscape.example\r\n\r\n".to_vec()
        );
        assert_eq!(req.wire_len(), bytes.len());
    }

    #[test]
    fn request_with_body_gets_content_length() {
        let mut req = Request::new(Method::Post, "/submit", Version::Http11);
        req.body = b"a=1".to_vec().into();
        let s = String::from_utf8(req.to_bytes()).unwrap();
        assert!(s.contains("Content-Length: 3\r\n"));
        assert!(s.ends_with("\r\n\r\na=1"));
    }

    #[test]
    fn wire_len_is_the_serialized_length_without_serializing() {
        let bodiless = Request::new(Method::Get, "/a/b.gif", Version::Http10)
            .with_header("Host", "x")
            .with_header("If-Modified-Since", crate::HttpDate(877_694_400));
        assert_eq!(bodiless.wire_len(), bodiless.to_bytes().len());
        for body_len in [1, 9, 10, 99_999, 100_000] {
            // The implicit `Content-Length` line grows with its digits.
            let mut bodied = bodiless.clone();
            bodied.method = Method::Post;
            bodied.body = vec![b'x'; body_len].into();
            assert_eq!(bodied.wire_len(), bodied.to_bytes().len(), "{body_len}");
            // An explicit one takes its place.
            let explicit = bodied.clone().with_header("content-length", body_len);
            assert_eq!(explicit.wire_len(), explicit.to_bytes().len());
            assert_eq!(explicit.wire_len(), bodied.wire_len());
        }
        let resp = Response::new(Version::Http11, StatusCode::NOT_FOUND)
            .with_header("Content-Length", 3)
            .with_body(&b"404"[..]);
        assert_eq!(resp.wire_len(), resp.to_bytes().len());
        assert_eq!(resp.wire_len() - 3, resp.head_to_bytes().len());
        // Pooled storage: at least the head, less than twice it.
        let head = resp.head_to_bytes();
        assert!((head.len()..2 * head.len()).contains(&head.capacity()));
    }

    #[test]
    fn a_message_is_its_framed_field_block() {
        let req = Request::new(Method::Head, "/x.gif", Version::Http11)
            .with_header("If-None-Match", "\"v1\"")
            .with_header("Range", "bytes=0-9");
        let mut block = HeaderMap::new();
        req.each_field(&mut |name, value| block.append(name, value));
        let names: Vec<_> = block.iter().map(|(name, _)| name).collect();
        assert_eq!(names, [":method", ":path", "If-None-Match", "Range"]);
        assert_eq!(block.get(":path"), Some(req.target()));

        let resp =
            Response::new(Version::Http11, StatusCode::NOT_MODIFIED).with_header("ETag", "\"v1\"");
        let mut block = HeaderMap::new();
        resp.each_field(&mut |name, value| block.append(name, value));
        let lines: Vec<_> = block.iter().collect();
        assert_eq!(lines, [(":status", "304"), ("ETag", "\"v1\"")]);
    }

    #[test]
    fn response_serialization() {
        let resp = Response::new(Version::Http11, StatusCode::OK)
            .with_header("Content-Length", "5")
            .with_body(&b"hello"[..]);
        let bytes = resp.to_bytes();
        let s = String::from_utf8(bytes).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.ends_with("\r\n\r\nhello"));
    }

    #[test]
    fn keep_alive_semantics() {
        let r10 = Request::new(Method::Get, "/", Version::Http10);
        assert!(!r10.wants_keep_alive());
        let r10ka =
            Request::new(Method::Get, "/", Version::Http10).with_header("Connection", "Keep-Alive");
        assert!(r10ka.wants_keep_alive());
        let r11 = Request::new(Method::Get, "/", Version::Http11);
        assert!(r11.wants_keep_alive());
        let r11c =
            Request::new(Method::Get, "/", Version::Http11).with_header("Connection", "close");
        assert!(!r11c.wants_keep_alive());

        let resp = Response::new(Version::Http11, StatusCode::OK);
        assert!(resp.keeps_alive());
        let resp_close =
            Response::new(Version::Http11, StatusCode::OK).with_header("Connection", "close");
        assert!(!resp_close.keeps_alive());
    }

    #[test]
    fn compact_robot_request_is_small() {
        // The paper: "an average request size of around 190 bytes".
        let req = Request::new(Method::Get, "/images/logo.gif", Version::Http11)
            .with_header("Host", "www.microscape.example")
            .with_header("User-Agent", "libwww-robot/5.1")
            .with_header("Accept", "*/*")
            .with_header("If-None-Match", "\"2ca3-1a7b-33a1c7f2\"")
            .with_header("Accept-Encoding", "deflate");
        let n = req.wire_len();
        assert!(
            (150..=250).contains(&n),
            "compact request is ~190B, got {n}"
        );
    }
}
