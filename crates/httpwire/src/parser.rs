//! Incremental, pipelining-safe HTTP message parsers.
//!
//! Both parsers hold the bytes they are given by reference and yield
//! complete messages on demand; a message's body is the chunks it arrived
//! in. Because HTTP/1.1 pipelining packs many messages into single TCP
//! segments, the parsers are careful to consume exactly one message at a
//! time and leave trailing bytes untouched.

use crate::chunked::ChunkedDecoder;
use crate::headers::HeaderMap;
use crate::message::{Request, Response};
use crate::types::{Method, StatusCode, Version};
use bytes::{find_byte, Bytes, BytesQueue};

/// Parse failures. In a real server these map to `400 Bad Request`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Bad request line.
    BadRequestLine,
    /// Bad status line.
    BadStatusLine,
    /// Bad header.
    BadHeader,
    /// Bad chunk.
    BadChunk,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ParseError::BadRequestLine => "malformed request line",
            ParseError::BadStatusLine => "malformed status line",
            ParseError::BadHeader => "malformed header",
            ParseError::BadChunk => "malformed chunked body",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ParseError {}

/// Find the end of the header block (`\r\n\r\n`) in `buf`, whatever its
/// chunks; returns the offset just past it. Tolerates bare-LF line
/// endings like most deployed servers (`\n\n` and `\n\r\n` end a head).
/// Between line feeds the search runs a word at a time.
fn find_head_end(buf: &BytesQueue) -> Option<usize> {
    // Bytes of a terminator seen so far: 0, `\n`, or `\n\r`.
    let mut seen = 0;
    let mut base = 0;
    for chunk in buf.chunks() {
        let mut at = 0;
        while at < chunk.len() {
            if seen == 0 {
                match find_byte(&chunk[at..], b'\n') {
                    Some(lf) => (at, seen) = (at + lf + 1, 1),
                    None => at = chunk.len(),
                }
                continue;
            }
            seen = match (seen, chunk[at]) {
                (_, b'\n') => return Some(base + at + 1),
                (1, b'\r') => 2,
                _ => 0,
            };
            at += 1;
        }
        base += chunk.len();
    }
    None
}

/// How the body of a message is delimited, and where its reader stands.
#[derive(Debug)]
enum Framing {
    /// This many body bytes are still to arrive (0: the message has no
    /// body, or all of it is in).
    Length(u64),
    Chunked(ChunkedDecoder),
    /// Body runs until the peer closes the connection (HTTP/1.0 style).
    ToClose,
}

impl Framing {
    /// The framing a header block declares, if it declares one:
    /// `Transfer-Encoding: chunked` over any length, else the
    /// `Content-Length` (RFC 9112 §6.3: every line `1*DIGIT`, and all of
    /// them the same value, or the head is bad).
    fn declared(headers: &HeaderMap) -> Result<Option<Framing>, ParseError> {
        if headers.has_token("Transfer-Encoding", "chunked") {
            return Ok(Some(Framing::Chunked(ChunkedDecoder::new())));
        }
        let mut length = None;
        for value in headers.get_all("Content-Length") {
            let digits = value.bytes().all(|b| b.is_ascii_digit());
            let n = value.parse().ok().filter(|_| digits);
            if n.is_none() || length.is_some_and(|first| Some(first) != n) {
                return Err(ParseError::BadHeader);
            }
            length = n;
        }
        Ok(length.map(Framing::Length))
    }
}

/// A message whose body is filled in where it will be handed out.
trait Message {
    fn body(&mut self) -> &mut BytesQueue;
}

impl Message for Request {
    fn body(&mut self) -> &mut BytesQueue {
        &mut self.body
    }
}

impl Message for Response {
    fn body(&mut self) -> &mut BytesQueue {
        &mut self.body
    }
}

/// Where the body of the message whose head has been parsed stands: the
/// one reader both parsers share. A `Content-Length` or close-delimited
/// body is the chunks it arrived in, moved into the message by
/// reference; a chunked one is its decoded copy.
#[derive(Debug)]
struct BodyReader {
    framing: Framing,
    /// Wire bytes of this message (head included) taken so far.
    wire: usize,
}

impl BodyReader {
    /// Move what `data` starts with of this body onto `body`. A chunked
    /// body's first error is sticky.
    fn read(&mut self, data: &mut BytesQueue, body: &mut BytesQueue) -> Result<(), ParseError> {
        let used = match &mut self.framing {
            Framing::Length(left) => {
                let take = (*left).min(data.len() as u64) as usize;
                *left -= take as u64;
                data.drain_into(take, body);
                take
            }
            Framing::Chunked(dec) => {
                let mut used = 0;
                for chunk in data.chunks() {
                    let n = dec.feed(chunk, body).map_err(|_| ParseError::BadChunk)?;
                    used += n;
                    if n < chunk.len() {
                        break;
                    }
                }
                data.advance(used);
                used
            }
            Framing::ToClose => {
                let all = data.len();
                data.drain_into(all, body);
                all
            }
        };
        self.wire += used;
        Ok(())
    }

    /// Whether the body is all in; a close-delimited one only `at_eof`.
    fn complete(&self, at_eof: bool) -> bool {
        match &self.framing {
            Framing::Length(left) => *left == 0,
            Framing::Chunked(dec) => dec.done(),
            Framing::ToClose => at_eof,
        }
    }
}

/// What both parsers are: the bytes no message has claimed yet (a head
/// under assembly, or pipelined successors), held by reference, and the
/// message whose head has been parsed out of them and whose body is
/// under assembly.
#[derive(Debug)]
struct Assembly<M> {
    buf: BytesQueue,
    current: Option<(M, BodyReader)>,
}

impl<M> Default for Assembly<M> {
    fn default() -> Self {
        Assembly {
            buf: BytesQueue::new(),
            current: None,
        }
    }
}

impl<M: Message> Assembly<M> {
    /// Bytes fed and not yet returned in a message.
    fn buffered(&self) -> usize {
        self.buf.len() + self.current.as_ref().map_or(0, |(_, body)| body.wire)
    }

    /// Parse the head once per message (`parse_head` gets the header
    /// block as text; it is read where it lies unless it spans chunks)
    /// and take it out of `buf`, then move what `buf` holds of the body.
    /// `Ok(false)` until the message is complete.
    fn poll(
        &mut self,
        at_eof: bool,
        bad_head: ParseError,
        parse_head: impl FnOnce(&str) -> Result<(M, Framing), ParseError>,
    ) -> Result<bool, ParseError> {
        if self.current.is_none() {
            let Some(head_end) = find_head_end(&self.buf) else {
                return Ok(false);
            };
            let (message, framing) = self.buf.with_prefix(head_end, |head| {
                parse_head(std::str::from_utf8(head).map_err(|_| bad_head)?)
            })?;
            self.buf.advance(head_end);
            let reader = BodyReader {
                framing,
                wire: head_end,
            };
            self.current = Some((message, reader));
        }
        let (message, reader) = self.current.as_mut().expect("filled above");
        reader.read(&mut self.buf, message.body())?;
        Ok(reader.complete(at_eof))
    }

    /// The completed message.
    fn take(&mut self) -> M {
        self.current.take().expect("a message is complete").0
    }
}

/// Split a header block into its first line and the header lines.
fn split_first_line(head: &str) -> (&str, &str) {
    let (first, rest) = head.split_once('\n').unwrap_or((head, ""));
    (first.trim_end_matches('\r'), rest)
}

// ---------------------------------------------------------------------
// Request parser (server side)
// ---------------------------------------------------------------------

/// Incremental parser for a stream of requests on one connection.
#[derive(Debug, Default)]
pub struct RequestParser {
    stream: Assembly<Request>,
}

impl RequestParser {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        RequestParser::default()
    }

    /// Bytes from the connection, by reference: a body among them
    /// becomes part of its request as it is.
    pub fn push(&mut self, data: Bytes) {
        self.stream.buf.push(data);
    }

    /// A copy of bytes from the connection, for a caller that holds only
    /// a slice.
    pub fn feed(&mut self, data: &[u8]) {
        self.stream.buf.extend_from_slice(data);
    }

    /// Bytes fed but not yet returned in a message.
    pub fn buffered(&self) -> usize {
        self.stream.buffered()
    }

    /// Try to parse the next complete request. Empty lines before a
    /// request-line are skipped (RFC 9112 §2.2), as a stray CRLF after a
    /// bodied request is.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Request>, ParseError> {
        if self.stream.current.is_none() {
            let buf = &mut self.stream.buf;
            let empty = buf.chunks().flat_map(|chunk| chunk.iter());
            let skip = empty.take_while(|&&b| b == b'\r' || b == b'\n').count();
            buf.advance(skip);
        }
        let complete = self
            .stream
            .poll(false, ParseError::BadRequestLine, Self::parse_head)?;
        if !complete {
            return Ok(None);
        }
        Ok(Some(self.stream.take()))
    }

    fn parse_head(head: &str) -> Result<(Request, Framing), ParseError> {
        let (request_line, rest) = split_first_line(head);
        let mut parts = request_line.split_ascii_whitespace();
        let method: Method = parts
            .next()
            .ok_or(ParseError::BadRequestLine)?
            .parse()
            .map_err(|_| ParseError::BadRequestLine)?;
        let target = parts.next().ok_or(ParseError::BadRequestLine)?;
        let version: Version = parts
            .next()
            .ok_or(ParseError::BadRequestLine)?
            .parse()
            .map_err(|_| ParseError::BadRequestLine)?;
        if parts.next().is_some() {
            return Err(ParseError::BadRequestLine);
        }
        // The target and the header lines: the head's one copy.
        let headers = HeaderMap::parse(target, rest).ok_or(ParseError::BadHeader)?;
        // Requests must have a determinate length.
        let framing = Framing::declared(&headers)?.unwrap_or(Framing::Length(0));
        let req = Request {
            method,
            version,
            headers,
            body: BytesQueue::new(),
        };
        Ok((req, framing))
    }
}

// ---------------------------------------------------------------------
// Response parser (client side)
// ---------------------------------------------------------------------

/// Incremental parser for a stream of responses on one connection.
///
/// Pipelined HTTP requires the client to remember which request each
/// response answers: a response to `HEAD` has headers describing a body
/// that is *not* sent. Register each outgoing request's method with
/// [`ResponseParser::expect`] before (or as) it is transmitted.
///
/// The head is parsed once per message, so feeding a large body segment
/// by segment costs O(segment) per poll — the client polls once per
/// arriving segment.
#[derive(Debug, Default)]
pub struct ResponseParser {
    stream: Assembly<Response>,
    expectations: std::collections::VecDeque<Method>,
}

impl ResponseParser {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        ResponseParser::default()
    }

    /// Register that a request with `method` was sent; responses are
    /// matched to expectations in FIFO order.
    pub fn expect(&mut self, method: Method) {
        self.expectations.push_back(method);
    }

    /// Number of responses still outstanding.
    pub fn outstanding(&self) -> usize {
        self.expectations.len()
    }

    /// Bytes from the connection, by reference: a body among them
    /// becomes part of its response as it is.
    pub fn push(&mut self, data: Bytes) {
        self.stream.buf.push(data);
    }

    /// A copy of bytes from the connection, for a caller that holds only
    /// a slice.
    pub fn feed(&mut self, data: &[u8]) {
        self.stream.buf.extend_from_slice(data);
    }

    /// Bytes fed but not yet returned in a message.
    pub fn buffered(&self) -> usize {
        self.stream.buffered()
    }

    /// Try to parse the next complete response. Close-delimited responses
    /// are only returned by [`ResponseParser::finish`].
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Response>, ParseError> {
        self.parse(false)
    }

    /// Peek at the *in-progress* response: its headers plus however much
    /// of its decoded body has arrived, as the chunks it arrived in.
    /// Returns `None` until the header block is complete (or if the
    /// message is malformed). This is what lets a streaming client start
    /// parsing HTML (and issuing pipelined image requests) before the
    /// document finishes arriving. Repeated peeks are allocation-free.
    pub fn in_progress(&mut self) -> Option<(&HeaderMap, &BytesQueue)> {
        self.poll(false).ok()?;
        let (resp, _) = self.stream.current.as_ref()?;
        Some((&resp.headers, &resp.body))
    }

    /// The peer closed the connection: flush a close-delimited response if
    /// one is pending.
    pub fn finish(&mut self) -> Result<Option<Response>, ParseError> {
        self.parse(true)
    }

    fn poll(&mut self, at_eof: bool) -> Result<bool, ParseError> {
        let method = self.expectations.front().copied().unwrap_or(Method::Get);
        self.stream.poll(at_eof, ParseError::BadStatusLine, |head| {
            Self::parse_head(head, method)
        })
    }

    fn parse(&mut self, at_eof: bool) -> Result<Option<Response>, ParseError> {
        if !self.poll(at_eof)? {
            return Ok(None);
        }
        self.expectations.pop_front();
        Ok(Some(self.stream.take()))
    }

    fn parse_head(head: &str, method: Method) -> Result<(Response, Framing), ParseError> {
        let (status_line, rest) = split_first_line(head);
        let mut parts = status_line.splitn(3, ' ');
        let version: Version = parts
            .next()
            .ok_or(ParseError::BadStatusLine)?
            .parse()
            .map_err(|_| ParseError::BadStatusLine)?;
        // A status code is exactly three digits (RFC 9112 §4).
        let status = match parts.next().map(str::as_bytes) {
            Some(&[a, b, c]) if [a, b, c].iter().all(u8::is_ascii_digit) => StatusCode(
                u16::from(a - b'0') * 100 + u16::from(b - b'0') * 10 + u16::from(c - b'0'),
            ),
            _ => return Err(ParseError::BadStatusLine),
        };
        let headers = HeaderMap::parse("", rest).ok_or(ParseError::BadHeader)?;
        let framing = if !method.response_has_body() || status.bodyless() {
            Framing::Length(0)
        } else {
            Framing::declared(&headers)?.unwrap_or(Framing::ToClose)
        };
        let resp = Response {
            version,
            status,
            headers,
            body: BytesQueue::new(),
        };
        Ok((resp, framing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_request() {
        let mut p = RequestParser::new();
        p.feed(b"GET /index.html HTTP/1.1\r\nHost: a.example\r\n\r\n");
        let req = p.next().unwrap().unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.target(), "/index.html");
        assert_eq!(req.version, Version::Http11);
        assert_eq!(req.headers.get("host"), Some("a.example"));
        assert!(p.next().unwrap().is_none());
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let mut p = RequestParser::new();
        let wire = b"GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\nHEAD /c HTTP/1.1\r\nHost: x\r\n\r\n";
        p.feed(wire);
        let a = p.next().unwrap().unwrap();
        let b = p.next().unwrap().unwrap();
        let c = p.next().unwrap().unwrap();
        assert_eq!(a.target(), "/a");
        assert_eq!(b.target(), "/b");
        assert_eq!(c.method, Method::Head);
        assert!(p.next().unwrap().is_none());
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn empty_lines_before_a_request_line_are_skipped() {
        let wire = b"GET /a HTTP/1.1\r\n\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        for at in 0..=wire.len() {
            let mut p = RequestParser::new();
            let mut targets = Vec::new();
            for piece in [&wire[..at], &wire[at..]] {
                p.feed(piece);
                while let Some(req) = p.next().expect("well-formed") {
                    targets.push(req.target().to_string());
                }
            }
            assert_eq!(targets, ["/a", "/b"], "split at {at}");
            assert_eq!(p.buffered(), 0, "split at {at}");
        }
        // A status line gets no such leniency.
        let mut p = ResponseParser::new();
        p.feed(b"\r\nHTTP/1.1 304 Not Modified\r\n\r\n");
        assert_eq!(p.next().unwrap_err(), ParseError::BadStatusLine);
    }

    #[test]
    fn request_arrives_byte_by_byte() {
        let wire = b"GET /slow HTTP/1.0\r\nUser-Agent: test\r\n\r\n";
        let mut p = RequestParser::new();
        for (i, &b) in wire.iter().enumerate() {
            p.feed(&[b]);
            let r = p.next().unwrap();
            if i + 1 < wire.len() {
                assert!(r.is_none(), "complete too early at {i}");
            } else {
                assert_eq!(r.unwrap().target(), "/slow");
            }
        }
    }

    #[test]
    fn request_with_body() {
        let mut p = RequestParser::new();
        p.feed(b"POST /f HTTP/1.1\r\nContent-Length: 4\r\n\r\nwxyz");
        let req = p.next().unwrap().unwrap();
        assert_eq!(req.body, b"wxyz"[..]);
    }

    #[test]
    fn chunked_request_body() {
        let mut p = RequestParser::new();
        p.feed(b"POST /f HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n");
        let req = p.next().unwrap().unwrap();
        assert_eq!(req.body, b"abc"[..]);
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn bad_request_line() {
        let mut p = RequestParser::new();
        p.feed(b"FROB / HTTP/1.1\r\n\r\n");
        assert_eq!(p.next().unwrap_err(), ParseError::BadRequestLine);
    }

    #[test]
    fn parse_simple_response() {
        let mut p = ResponseParser::new();
        p.expect(Method::Get);
        p.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello");
        let resp = p.next().unwrap().unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.body, b"hello"[..]);
        assert_eq!(p.outstanding(), 0);
    }

    #[test]
    fn head_response_has_no_body() {
        let mut p = ResponseParser::new();
        p.expect(Method::Head);
        p.expect(Method::Get);
        // HEAD response advertises Content-Length but sends no body; the
        // next response follows immediately.
        p.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 999\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
        let head = p.next().unwrap().unwrap();
        assert!(head.body.is_empty());
        assert_eq!(head.headers.get_int("Content-Length"), Some(999));
        let get = p.next().unwrap().unwrap();
        assert_eq!(get.body, b"ok"[..]);
    }

    #[test]
    fn not_modified_has_no_body() {
        let mut p = ResponseParser::new();
        p.expect(Method::Get);
        p.expect(Method::Get);
        p.feed(
            b"HTTP/1.1 304 Not Modified\r\nETag: \"x\"\r\n\r\nHTTP/1.1 304 Not Modified\r\n\r\n",
        );
        assert_eq!(p.next().unwrap().unwrap().status, StatusCode::NOT_MODIFIED);
        assert_eq!(p.next().unwrap().unwrap().status, StatusCode::NOT_MODIFIED);
    }

    #[test]
    fn pipelined_responses() {
        let mut p = ResponseParser::new();
        for _ in 0..3 {
            p.expect(Method::Get);
        }
        let mut wire = Vec::new();
        for i in 0..3 {
            wire.extend_from_slice(
                format!("HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n{i}").as_bytes(),
            );
        }
        p.feed(&wire);
        for i in 0..3u8 {
            let r = p.next().unwrap().unwrap();
            assert_eq!(r.body, [b'0' + i][..]);
        }
        assert!(p.next().unwrap().is_none());
    }

    #[test]
    fn chunked_response() {
        let mut p = ResponseParser::new();
        p.expect(Method::Get);
        p.feed(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nwiki\r\n5\r\npedia\r\n0\r\n\r\n");
        let r = p.next().unwrap().unwrap();
        assert_eq!(r.body, b"wikipedia"[..]);
    }

    #[test]
    fn close_delimited_response() {
        let mut p = ResponseParser::new();
        p.expect(Method::Get);
        p.feed(b"HTTP/1.0 200 OK\r\nContent-Type: text/html\r\n\r\npartial body");
        assert!(p.next().unwrap().is_none(), "no length: wait for close");
        p.feed(b" more");
        assert!(p.next().unwrap().is_none());
        let r = p.finish().unwrap().unwrap();
        assert_eq!(r.body, b"partial body more"[..]);
    }

    #[test]
    fn incomplete_fixed_body_waits() {
        let mut p = ResponseParser::new();
        p.expect(Method::Get);
        p.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n12345");
        assert!(p.next().unwrap().is_none());
        p.feed(b"67890");
        assert_eq!(p.next().unwrap().unwrap().body, b"1234567890"[..]);
    }

    #[test]
    fn in_progress_exposes_partial_body() {
        let mut p = ResponseParser::new();
        p.expect(Method::Get);
        p.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npartial body so far");
        let (headers, body) = p.in_progress().expect("head complete");
        assert_eq!(headers.get_int("Content-Length"), Some(100));
        assert_eq!(*body, b"partial body so far"[..]);
        // Not yet a complete response.
        assert!(p.next().unwrap().is_none());

        let mut p = ResponseParser::new();
        p.feed(b"HTTP/1.1 200 OK\r\nContent-");
        assert!(p.in_progress().is_none(), "head incomplete");
    }

    #[test]
    fn in_progress_decodes_a_half_arrived_chunked_body() {
        let html = b"<html><img src=\"/a.gif\"><img src=\"/b.gif\"></html>";
        let mut wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        let head_len = wire.len();
        wire.extend_from_slice(&crate::chunked::encode(html, 8));
        let mut p = ResponseParser::new();
        p.expect(Method::Get);
        // Three whole 13-byte chunks ("8\r\n" + 8 + "\r\n"), then cut
        // inside the fourth chunk's size line.
        let cut = head_len + 3 * 13 + 1;
        p.feed(&wire[..cut]);
        let (_, body) = p.in_progress().expect("head complete");
        assert_eq!(*body, html[..24], "decoded bytes, no chunk framing");
        assert!(p.next().unwrap().is_none());
        p.feed(&wire[cut..]);
        assert_eq!(p.next().unwrap().unwrap().body, html[..]);
    }

    #[test]
    fn truncated_trailing_response_stays_buffered() {
        let mut p = ResponseParser::new();
        p.expect(Method::Get);
        p.expect(Method::Get);
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\ntrunc";
        p.feed(wire);
        assert!(p.next().unwrap().is_some());
        assert!(p.next().unwrap().is_none());
        // Head and partial body have left the parse buffer but were
        // never returned in a message.
        assert_eq!(p.buffered(), wire.len() - 40);
        assert!(p.finish().unwrap().is_none());
        assert_eq!(p.buffered(), wire.len() - 40);
    }

    #[test]
    fn feeding_a_body_piecewise_equals_feeding_it_whole() {
        let body: Vec<u8> = (0..5000u32).map(|i| (i % 253) as u8).collect();
        let next = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        let length = [
            &b"HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n"[..],
            &body,
            next,
        ]
        .concat();
        let chunked = [
            &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
            &crate::chunked::encode(&body, 1000),
            next,
        ]
        .concat();
        let to_close = [&b"HTTP/1.0 200 OK\r\n\r\n"[..], &body].concat();
        // (wire, wire length of each message in it)
        let cases = [
            (&length, vec![length.len() - next.len(), next.len()]),
            (&chunked, vec![chunked.len() - next.len(), next.len()]),
            (&to_close, vec![to_close.len()]),
        ];
        for (wire, message_lens) in cases {
            // Fed in pieces and polled after each, a body's bytes go
            // straight to it; the successor's first bytes come in the
            // piece that ends the body.
            let run = |piece: usize| {
                let mut p = ResponseParser::new();
                let (mut fed, mut returned, mut out) = (0, 0, Vec::new());
                for part in wire.chunks(piece) {
                    p.feed(part);
                    fed += part.len();
                    while let Some(resp) = p.next().expect("well-formed") {
                        returned += message_lens[out.len()];
                        out.push(resp);
                    }
                    assert_eq!(p.buffered(), fed - returned, "piece {piece} at {fed}");
                    if let Some((_, so_far)) = p.in_progress() {
                        let so_far = so_far.to_vec();
                        assert!(body.starts_with(&so_far) || b"ok".starts_with(&so_far));
                    }
                }
                out.extend(p.finish().expect("well-formed"));
                assert_eq!(out.len(), message_lens.len(), "piece {piece}");
                out
            };
            let whole = run(wire.len());
            assert_eq!(whole[0].body, body);
            for piece in [1, 7, 1460, 4999] {
                assert!(run(piece) == whole, "piece {piece}");
            }
        }

        // A chunk that goes bad in bytes handed straight to the body is
        // reported by the next poll, and by every one after it.
        let mut p = ResponseParser::new();
        p.feed(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc");
        assert_eq!(p.next(), Ok(None));
        p.feed(b"XY3\r\nabc\r\n");
        assert_eq!(p.next(), Err(ParseError::BadChunk));
        assert_eq!(p.next(), Err(ParseError::BadChunk));
    }

    /// What each parser makes of a message whose head carries `lines`,
    /// followed by `rest`: the request and the response, or their errors.
    fn framed_by(lines: &str, rest: &[u8]) -> [Result<Option<BytesQueue>, ParseError>; 2] {
        let mut rp = RequestParser::new();
        rp.feed(format!("POST /f HTTP/1.1\r\n{lines}\r\n").as_bytes());
        rp.feed(rest);
        let mut sp = ResponseParser::new();
        sp.expect(Method::Get);
        sp.feed(format!("HTTP/1.1 200 OK\r\n{lines}\r\n").as_bytes());
        sp.feed(rest);
        [
            rp.next().map(|req| req.map(|req| req.body)),
            sp.next().map(|resp| resp.map(|resp| resp.body)),
        ]
    }

    #[test]
    fn a_content_length_is_digits_only() {
        for value in ["+5", "-5", "0x5", "5.0", "5e0", "five", "5,5", "5 5", ""] {
            let lines = format!("Content-Length: {value}\r\n");
            for side in framed_by(&lines, b"hello") {
                assert_eq!(side, Err(ParseError::BadHeader), "{value:?}");
            }
        }
        // Leading zeros are digits.
        for side in framed_by("Content-Length: 005\r\n", b"hello") {
            assert_eq!(side, Ok(Some(BytesQueue::from(b"hello".to_vec()))));
        }
    }

    #[test]
    fn differing_content_lengths_are_an_error() {
        let differing = "Content-Length: 5\r\nContent-Length: 3\r\n";
        for side in framed_by(differing, b"hello") {
            assert_eq!(side, Err(ParseError::BadHeader));
        }
        let repeated = "Content-Length: 5\r\ncontent-length: 5\r\n";
        for side in framed_by(repeated, b"hello") {
            assert_eq!(side, Ok(Some(BytesQueue::from(b"hello".to_vec()))));
        }
    }

    #[test]
    fn an_invalid_content_length_frames_nothing_on_either_side() {
        // Read as no length, the request's body would be the next request
        // and the response's would run to the close; neither happens.
        let smuggled = b"GET /admin HTTP/1.1\r\n\r\n";
        for value in ["abc", "18446744073709551616"] {
            let lines = format!("Content-Length: {value}\r\n");
            for side in framed_by(&lines, smuggled) {
                assert_eq!(side, Err(ParseError::BadHeader), "{value:?}");
            }
        }
        // The largest length there is parses, and waits.
        for side in framed_by("Content-Length: 18446744073709551615\r\n", b"body") {
            assert_eq!(side, Ok(None));
        }
    }

    #[test]
    fn chunked_wins_over_a_content_length() {
        for length in ["3", "+3", "abc"] {
            let lines = format!("Content-Length: {length}\r\nTransfer-Encoding: chunked\r\n");
            for side in framed_by(&lines, b"5\r\nhello\r\n0\r\n\r\n") {
                assert_eq!(
                    side,
                    Ok(Some(BytesQueue::from(b"hello".to_vec()))),
                    "{length}"
                );
            }
        }
    }

    #[test]
    fn bad_status_line() {
        let mut p = ResponseParser::new();
        p.expect(Method::Get);
        p.feed(b"SMTP/1.0 garbage\r\n\r\n");
        assert_eq!(p.next().unwrap_err(), ParseError::BadStatusLine);
    }

    #[test]
    fn a_status_code_is_exactly_three_digits() {
        for code in ["+20", "2000", "20", "-20", "2 0", "", "20x", "\u{665}00"] {
            let mut p = ResponseParser::new();
            p.feed(format!("HTTP/1.1 {code} OK\r\n\r\n").as_bytes());
            assert_eq!(p.next().unwrap_err(), ParseError::BadStatusLine, "{code:?}");
        }
        let mut p = ResponseParser::new();
        p.feed(b"HTTP/1.1 099 Low\r\nContent-Length: 0\r\n\r\nHTTP/1.0 599\r\n\r\n");
        assert_eq!(p.next().unwrap().unwrap().status, StatusCode(99));
        assert_eq!(p.finish().unwrap().unwrap().status, StatusCode(599));
    }

    #[test]
    fn the_head_ends_at_the_first_blank_line_across_chunks() {
        let wire = b"HTTP/1.1 200 OK\nA: b\r\n\r\r\nC: d\n\r\nrest";
        let end = wire.len() - 4;
        for at in 0..=wire.len() {
            let mut buf = BytesQueue::new();
            buf.extend_from_slice(&wire[..at]);
            buf.extend_from_slice(&wire[at..]);
            assert_eq!(find_head_end(&buf), Some(end), "split at {at}");
            let mut short = BytesQueue::new();
            short.extend_from_slice(&wire[..at.min(end - 1)]);
            assert_eq!(find_head_end(&short), None, "split at {at}");
        }
        let mut bare = BytesQueue::new();
        bare.extend_from_slice(b"GET / HTTP/1.0\n\nx");
        assert_eq!(find_head_end(&bare), Some(16));
    }

    #[test]
    fn header_parsing_edge_cases() {
        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/1.1\r\nX-Multi: a\r\nX-Multi: b\r\nX-Spacey:    v   \r\n\r\n");
        let req = p.next().unwrap().unwrap();
        assert_eq!(
            req.headers.get_all("x-multi").collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert_eq!(req.headers.get("x-spacey"), Some("v"));
    }

    #[test]
    fn a_header_name_must_be_a_token() {
        for bad in ["Ho\tst: x", "Ho st: x", ": x", "H\u{1}st: x", "Host : x"] {
            let mut p = RequestParser::new();
            p.feed(format!("GET / HTTP/1.1\r\n{bad}\r\n\r\n").as_bytes());
            assert_eq!(p.next().unwrap_err(), ParseError::BadHeader, "{bad:?}");
            let mut p = ResponseParser::new();
            p.feed(format!("HTTP/1.1 200 OK\r\n{bad}\r\n\r\n").as_bytes());
            assert_eq!(p.next().unwrap_err(), ParseError::BadHeader, "{bad:?}");
        }
    }
}
