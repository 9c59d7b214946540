//! An ordered, case-insensitive header map: one buffer and a span table.
//!
//! Header order matters for wire-size measurements (the paper's request
//! profiles differ mostly in which headers products emit and how verbose
//! they are), so insertion order is preserved exactly.
//!
//! The buffer holds the lines in canonical wire form (`Name: value\r\n`
//! each, so writing the block out is one copy), the table one span per
//! line. The names the engines branch on ([`KNOWN`]) resolve to a one-byte
//! tag once, when a line is appended or parsed, and a lookup by one of them
//! compares that tag; any other name is compared ASCII-case-insensitively
//! where it lies.

use bytes::BytesMut;
use std::fmt::{self, Write as _};

/// Room a map built line by line takes at its first line, in bytes and in
/// lines: the heads the engines build fit, so building one is two
/// allocations. (A parsed head is sized from the wire instead.)
pub(crate) const LINES_ROOM: usize = 320;
pub(crate) const FIELDS_ROOM: usize = 10;

/// The header names the engines look up, in their canonical spelling. A
/// line's tag is the position of its name here — [`OTHER`] for any other
/// name — resolved once, when the line is appended or parsed.
const KNOWN: [&str; 12] = [
    "ETag",
    "Range",
    "If-Range",
    "Connection",
    "Content-Type",
    "If-None-Match",
    "Last-Modified",
    "Content-Length",
    "Accept-Encoding",
    "Content-Encoding",
    "If-Modified-Since",
    "Transfer-Encoding",
];
const OTHER: u8 = KNOWN.len() as u8;

/// The tag `name` resolves to: one length comparison per known name,
/// and a look at the text only where the length matches.
fn tag_of(name: &str) -> u8 {
    let known = |k: &&str| k.len() == name.len() && k.eq_ignore_ascii_case(name);
    KNOWN.iter().position(known).map_or(OTHER, |i| i as u8)
}

/// Is `name` an RFC 7230 `token` (one or more `tchar`s)?
fn is_token(name: &str) -> bool {
    let tchar = |b: u8| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b);
    !name.is_empty() && name.bytes().all(tchar)
}

/// Where one line lies in the buffer: `name`, `": "`, `value`, CRLF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start: u32,
    name_len: u32,
    value_len: u32,
    tag: u8,
}

impl Span {
    fn name<'a>(&self, buf: &'a str) -> &'a str {
        &buf[self.start as usize..][..self.name_len as usize]
    }

    fn value<'a>(&self, buf: &'a str) -> &'a str {
        &buf[(self.start + self.name_len) as usize + 2..][..self.value_len as usize]
    }

    /// Is this a line named `name`, which resolved to `tag`?
    fn named(&self, buf: &str, name: &str, tag: u8) -> bool {
        self.tag == tag && (tag != OTHER || self.name(buf).eq_ignore_ascii_case(name))
    }
}

/// Ordered multimap of headers with case-insensitive name lookup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderMap {
    /// `lead` bytes that belong to the message that owns the map (a
    /// request's target), then the lines.
    buf: String,
    lead: u32,
    spans: Vec<Span>,
}

/// Header fields in order, for an encoder that is handed a [`HeaderMap`],
/// a message, or a caller's own `(name, value)` pairs.
pub trait Fields {
    /// Call `f` with each `(name, value)`, in order.
    fn each_field(&self, f: &mut dyn FnMut(&str, &str));
}

impl Fields for HeaderMap {
    fn each_field(&self, f: &mut dyn FnMut(&str, &str)) {
        self.iter().for_each(|(name, value)| f(name, value));
    }
}

impl<T: AsRef<[(String, String)]> + ?Sized> Fields for T {
    fn each_field(&self, f: &mut dyn FnMut(&str, &str)) {
        self.as_ref()
            .iter()
            .for_each(|(name, value)| f(name, value));
    }
}

impl HeaderMap {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        HeaderMap::default()
    }

    /// An empty map with room for `fields` lines of `bytes` bytes in all
    /// (each line is its name, its value and four bytes of punctuation).
    pub fn with_capacity(fields: usize, bytes: usize) -> Self {
        HeaderMap::with_lead("", fields, bytes)
    }

    /// A map whose buffer starts with `lead`, which is not a header line.
    pub(crate) fn with_lead(lead: &str, fields: usize, bytes: usize) -> Self {
        let mut buf = String::with_capacity(lead.len() + bytes);
        buf.push_str(lead);
        HeaderMap {
            buf,
            lead: u32::try_from(lead.len()).expect("a head is far below 4 GiB"),
            spans: Vec::with_capacity(fields),
        }
    }

    pub(crate) fn lead(&self) -> &str {
        &self.buf[..self.lead as usize]
    }

    /// Append a header, preserving any existing ones with the same name.
    /// The value is written straight into the buffer.
    pub fn append(&mut self, name: &str, value: impl fmt::Display) {
        let tag = tag_of(name);
        self.push(name, tag, |buf| {
            write!(buf, "{value}").expect("writing to a String");
        });
    }

    /// A line whose name resolved to `tag`; `value` writes its value.
    fn push(&mut self, name: &str, tag: u8, value: impl FnOnce(&mut String)) {
        if self.buf.capacity() == self.buf.len() {
            self.buf.reserve(LINES_ROOM);
        }
        if self.spans.capacity() == self.spans.len() {
            self.spans.reserve(FIELDS_ROOM);
        }
        let start = self.buf.len();
        self.buf.push_str(name);
        self.buf.push_str(": ");
        value(&mut self.buf);
        self.buf.push_str("\r\n");
        // Every offset and length of a head fits once its end does.
        u32::try_from(self.buf.len()).expect("a head is far below 4 GiB");
        self.spans.push(Span {
            start: start as u32,
            name_len: name.len() as u32,
            value_len: (self.buf.len() - start - name.len() - 4) as u32,
            tag,
        });
    }

    /// Replace all headers named `name` with a single value.
    pub fn set(&mut self, name: &str, value: impl fmt::Display) {
        self.remove(name);
        self.append(name, value);
    }

    /// Remove all headers named `name`; returns whether any existed.
    pub fn remove(&mut self, name: &str) -> bool {
        let tag = tag_of(name);
        let before = self.spans.len();
        let mut cut = 0;
        self.spans.retain_mut(|span| {
            span.start -= cut;
            let hit = span.named(&self.buf, name, tag);
            if hit {
                let len = span.name_len + span.value_len + 4;
                let line = span.start as usize..(span.start + len) as usize;
                self.buf.replace_range(line, "");
                cut += len;
            }
            !hit
        });
        self.spans.len() != before
    }

    /// First value for `name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        let tag = tag_of(name);
        let span = self.spans.iter().find(|s| s.named(&self.buf, name, tag))?;
        Some(span.value(&self.buf))
    }

    /// All values for `name` in order.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        let tag = tag_of(name);
        let named = move |span: &&Span| span.named(&self.buf, name, tag);
        self.spans.iter().filter(named).map(|s| s.value(&self.buf))
    }

    /// Whether an entry with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Parse a header's value as a decimal integer.
    pub fn get_int(&self, name: &str) -> Option<u64> {
        self.get(name).and_then(|v| v.trim().parse().ok())
    }

    /// True if any `name` header contains `token` as a comma-separated,
    /// case-insensitive list element (e.g. `Connection: keep-alive, close`).
    pub fn has_token(&self, name: &str, token: &str) -> bool {
        self.get_all(name)
            .flat_map(|v| v.split(','))
            .any(|t| t.trim().eq_ignore_ascii_case(token))
    }

    /// Iterate over the `(name, value)` lines in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        let line = |s: &Span| (s.name(&self.buf), s.value(&self.buf));
        self.spans.iter().map(line)
    }

    /// Number of contained elements.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing is contained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Serialized size in bytes, including each `: ` and CRLF.
    pub fn wire_len(&self) -> usize {
        self.buf.len() - self.lead as usize
    }

    /// Write all header lines (without the terminating blank line).
    pub fn write_to(&self, out: &mut BytesMut) {
        out.extend_from_slice(&self.buf.as_bytes()[self.lead as usize..]);
    }

    /// The header block of a received head, every line but the first:
    /// one copy into a map sized from the block, after `lead`. Bare LF
    /// ends a line as CRLF does; `None` when a line has no colon or its
    /// name is not an RFC 7230 token.
    pub(crate) fn parse(lead: &str, block: &str) -> Option<HeaderMap> {
        let lines = || {
            block
                .split('\n')
                .map(|line| line.trim_end_matches('\r'))
                .filter(|line| !line.is_empty())
                .map(|line| line.split_once(':').map(|(n, v)| (n, v.trim())))
        };
        let (mut fields, mut bytes) = (0, 0);
        for line in lines() {
            let (name, value) = line?;
            fields += 1;
            bytes += name.len() + value.len() + 4;
        }
        let mut map = HeaderMap::with_lead(lead, fields, bytes);
        for (name, value) in lines().flatten() {
            if !is_token(name) {
                return None;
            }
            map.push(name, tag_of(name), |buf| buf.push_str(value));
        }
        Some(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(h: &HeaderMap) -> String {
        let mut out = BytesMut::new();
        h.write_to(&mut out);
        String::from_utf8(out.to_vec()).unwrap()
    }

    #[test]
    fn case_insensitive_lookup() {
        let mut h = HeaderMap::new();
        h.append("Content-Length", "42");
        assert_eq!(h.get("content-length"), Some("42"));
        assert_eq!(h.get("CONTENT-LENGTH"), Some("42"));
        assert_eq!(h.get_int("Content-Length"), Some(42));
        assert!(h.contains("content-LENGTH"));
        assert!(!h.contains("Content-Type"));
        // A name the engines do not branch on is compared where it lies.
        h.append("X-Cache", "hit");
        assert_eq!(h.get("x-cache"), Some("hit"));
        assert!(!h.contains("X-Cach"));
    }

    #[test]
    fn order_preserved() {
        let mut h = HeaderMap::new();
        h.append("B", "2");
        h.append("A", "1");
        h.append("B", "3");
        let names: Vec<_> = h.iter().map(|(name, _)| name).collect();
        assert_eq!(names, vec!["B", "A", "B"]);
        let values: Vec<_> = h.get_all("b").collect();
        assert_eq!(values, vec!["2", "3"]);
    }

    #[test]
    fn set_replaces_all() {
        let mut h = HeaderMap::new();
        h.append("X", "1");
        h.append("Range", "bytes=0-1");
        h.append("X", "2");
        h.set("x", "3");
        assert_eq!(h.get_all("X").count(), 1);
        assert_eq!(h.get("X"), Some("3"));
        assert_eq!(wire(&h), "Range: bytes=0-1\r\nx: 3\r\n");
        assert!(h.remove("RANGE") && !h.remove("Range"));
        assert_eq!(h.iter().collect::<Vec<_>>(), [("x", "3")]);
    }

    #[test]
    fn token_lists() {
        let mut h = HeaderMap::new();
        h.append("Connection", "Keep-Alive, Close");
        assert!(h.has_token("connection", "close"));
        assert!(h.has_token("Connection", "keep-alive"));
        assert!(!h.has_token("Connection", "upgrade"));
    }

    #[test]
    fn wire_len_matches_serialization() {
        let mut h = HeaderMap::new();
        h.append("Host", "www.example.com");
        h.append("Accept", "*/*");
        h.append("Content-Length", 1234);
        let mut out = BytesMut::new();
        h.write_to(&mut out);
        assert_eq!(out.len(), h.wire_len());
        assert_eq!(
            &out[..],
            b"Host: www.example.com\r\nAccept: */*\r\nContent-Length: 1234\r\n"
        );
    }

    #[test]
    fn every_known_name_resolves_in_any_case_and_nothing_else_does() {
        for (tag, spelling) in KNOWN.iter().enumerate() {
            assert_eq!(tag_of(spelling), tag as u8);
            assert_eq!(tag_of(&spelling.to_uppercase()), tag as u8);
            assert_eq!(tag_of(&spelling[1..]), OTHER);
            assert!(is_token(spelling));
        }
        for name in ["", "Ho\tst", "Content Length", ":path", "H\u{e9}"] {
            assert_eq!((tag_of(name), is_token(name)), (OTHER, false), "{name:?}");
        }
    }

    #[test]
    fn a_parsed_block_is_one_exactly_sized_copy_in_canonical_form() {
        let block = "Host:a.example\r\nX-Spacey:    v   \nETag: \"x\"\r\n\r\n";
        let h = HeaderMap::parse("/lead", block).unwrap();
        assert_eq!(h.lead(), "/lead");
        assert_eq!(
            wire(&h),
            "Host: a.example\r\nX-Spacey: v\r\nETag: \"x\"\r\n"
        );
        assert_eq!(h.buf.capacity(), h.buf.len());
        assert_eq!(h.spans.capacity(), 3);
        assert_eq!(h.get("etag"), Some("\"x\""));
        assert!(HeaderMap::parse("", "no colon here\r\n").is_none());
        assert!(HeaderMap::parse("", "Ho\tst: x\r\n").is_none());
        assert!(HeaderMap::parse("", ": x\r\n").is_none());
    }
}
