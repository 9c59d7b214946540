//! An ordered, case-insensitive header map: one pooled buffer and an
//! index of the names the engines read.
//!
//! Header order matters for wire-size measurements (the paper's request
//! profiles differ mostly in which headers products emit and how verbose
//! they are), so insertion order is preserved exactly.
//!
//! The buffer holds the lines in canonical wire form (`Name: value\r\n`
//! each, so writing the block out is one copy); its storage comes from
//! `bytes`' size-class pool and goes back there when the map drops. The
//! names the engines branch on ([`KNOWN`]) are indexed: the map keeps the
//! offset of the first line of each, so a lookup by one starts there. Any
//! other name is found by walking the lines, comparing it
//! ASCII-case-insensitively where it lies.

use bytes::{find_byte, BytesMut};
use std::fmt::{self, Write as _};

/// Room a map built line by line takes at its first line: the heads the
/// engines build fit, so building one takes one buffer from the pool. (A
/// parsed head is sized from the wire instead.)
pub(crate) const LINES_ROOM: usize = 320;

/// The header names the engines look up, in their canonical spelling. The
/// map's index has one slot per name, in this order.
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

/// An index slot whose name has no line.
const NONE: u32 = u32::MAX;

/// The slot `name` has in the index, if it is a known name: one length
/// comparison per known name, and a look at the text only where the
/// length matches.
fn known(name: &[u8]) -> Option<usize> {
    KNOWN
        .iter()
        .position(|k| k.as_bytes().eq_ignore_ascii_case(name))
}

/// The bytes a header name is made of: RFC 9110 §5.6.2 `tchar`.
const TCHAR: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric()
            || matches!(
                c,
                b'!' | b'#'
                    | b'$'
                    | b'%'
                    | b'&'
                    | b'\''
                    | b'*'
                    | b'+'
                    | b'-'
                    | b'.'
                    | b'^'
                    | b'_'
                    | b'`'
                    | b'|'
                    | b'~'
            );
        b += 1;
    }
    table
};

/// Is `name` an RFC 9110 `token` (one or more `tchar`s)?
fn is_token(name: &[u8]) -> bool {
    !name.is_empty() && name.iter().all(|&b| TCHAR[b as usize])
}

/// Optional whitespace (RFC 9110 §5.6.3 OWS): what a value loses at
/// either edge, and nothing else does.
fn is_ows(b: u8) -> bool {
    b == b' ' || b == b'\t'
}

/// `value` without the OWS at either edge.
fn trim_ows(value: &[u8]) -> &[u8] {
    let start = value
        .iter()
        .position(|&b| !is_ows(b))
        .unwrap_or(value.len());
    let end = value
        .iter()
        .rposition(|&b| !is_ows(b))
        .map_or(start, |i| i + 1);
    &value[start..end]
}

/// The line of `block` at `at` if it is canonical — `Name: value\r\n`,
/// a token name and a value with no OWS at its edges and no CR at its
/// end, so normalising it would give it back byte for byte — as where
/// its name ends and where the next line starts.
fn canonical_line(block: &[u8], at: usize) -> Option<(usize, usize)> {
    let line = &block[at..];
    let name = line.iter().position(|&b| !TCHAR[b as usize])?;
    if name == 0 || line.get(name + 1) != Some(&b' ') || line[name] != b':' {
        return None;
    }
    let end = name + 2 + find_byte(&line[name + 2..], b'\n')?;
    let value = line[name + 2..end].strip_suffix(b"\r")?;
    if let (Some(&head), Some(&tail)) = (value.first(), value.last()) {
        if is_ows(head) || is_ows(tail) || tail == b'\r' {
            return None;
        }
    }
    Some((at + name, at + end + 1))
}

/// Walk the canonical lines at the front of `block` up to its end or to a
/// blank line (`\r\n`), giving each known name with no slot in `first`
/// yet its line's offset plus `base`: where the walk stopped, or `None`
/// at a line that is not canonical.
fn index_canonical(block: &[u8], base: usize, first: &mut [u32; KNOWN.len()]) -> Option<usize> {
    let mut at = 0;
    while at < block.len() && !block[at..].starts_with(b"\r\n") {
        let (name_end, next) = canonical_line(block, at)?;
        if let Some(slot) = known(&block[at..name_end]) {
            if first[slot] == NONE {
                first[slot] = (base + at) as u32;
            }
        }
        at = next;
    }
    Some(at)
}

/// The lines of a block as [`HeaderMap::parse`] reads them: each line
/// (ended by LF or by the block) that is not empty once its trailing CRs
/// go, as its name and its value without OWS; `None` for a line with no
/// colon or whose name is not a token.
fn field_lines(block: &[u8]) -> impl Iterator<Item = Option<(&[u8], &[u8])>> {
    block
        .split(|&b| b == b'\n')
        .map(|line| {
            let end = line.iter().rposition(|&b| b != b'\r').map_or(0, |i| i + 1);
            &line[..end]
        })
        .filter(|line| !line.is_empty())
        .map(|line| {
            let colon = find_byte(line, b':')?;
            let name = &line[..colon];
            is_token(name).then(|| (name, trim_ows(&line[colon + 1..])))
        })
}

/// Bytes the map wrote from `&str`s and cut only at ASCII bytes, as text.
fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("a head holds the text it was given")
}

/// Just past the line feed at or after `from`: where the next line
/// starts.
fn line_end(buf: &[u8], from: usize) -> usize {
    let off = find_byte(&buf[from..], b'\n');
    from + off.expect("every line ends in a line feed") + 1
}

/// Is the line at `at` named `name`? A line's name has no colon past its
/// first byte, so it is `name` exactly when a colon follows that much of
/// the line and that much matches.
fn named(buf: &[u8], at: usize, name: &[u8]) -> bool {
    buf.get(at + name.len()) == Some(&b':') && buf[at..at + name.len()].eq_ignore_ascii_case(name)
}

/// The line that starts at `at`: where its name ends (at its first colon
/// past its first byte, so `:path` is a name) and where the next line
/// starts.
fn split_line(buf: &[u8], at: usize) -> (usize, usize) {
    let off = find_byte(&buf[at + 1..], b':');
    let name_end = at + 1 + off.expect("every line is `name: value\\r\\n`");
    (name_end, line_end(buf, name_end))
}

/// The lines from an offset on, each as its offset, name and value.
struct Lines<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Iterator for Lines<'a> {
    type Item = (usize, &'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.at == self.buf.len() {
            return None;
        }
        let start = self.at;
        let (name_end, next) = split_line(self.buf, start);
        self.at = next;
        Some((
            start,
            &self.buf[start..name_end],
            &self.buf[name_end + 2..next - 2],
        ))
    }
}

/// A [`fmt::Write`] over a map's buffer, so that a value is written where
/// it will lie.
struct Sink<'a>(&'a mut BytesMut);

impl fmt::Write for Sink<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Ordered multimap of headers with case-insensitive name lookup.
#[derive(Clone, PartialEq, Eq)]
pub struct HeaderMap {
    /// `lead` bytes that belong to the message that owns the map (a
    /// request's target), then the lines. Pooled storage.
    buf: BytesMut,
    lead: u32,
    /// Where in `buf` the first line of each known name starts, or
    /// [`NONE`].
    first: [u32; KNOWN.len()],
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

impl Default for HeaderMap {
    fn default() -> Self {
        HeaderMap::with_lead("", 0)
    }
}

/// The storage goes back to the pool (a dropped `BytesMut` would free it).
impl Drop for HeaderMap {
    fn drop(&mut self) {
        self.buf.clear();
    }
}

impl fmt::Debug for HeaderMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lead > 0 {
            write!(f, "{:?} ", self.lead())?;
        }
        f.debug_list().entries(self.iter()).finish()
    }
}

impl HeaderMap {
    /// Create a new, empty instance. It owns no storage until its first
    /// line.
    pub fn new() -> Self {
        HeaderMap::default()
    }

    /// An empty map with room for `bytes` bytes of lines (each line is its
    /// name, its value and four bytes of punctuation).
    pub fn with_capacity(bytes: usize) -> Self {
        HeaderMap::with_lead("", bytes)
    }

    /// A map whose buffer starts with `lead`, which is not a header line,
    /// with room for `bytes` bytes of lines after it.
    pub(crate) fn with_lead(lead: &str, bytes: usize) -> Self {
        let mut buf = BytesMut::pooled(lead.len() + bytes);
        buf.extend_from_slice(lead.as_bytes());
        HeaderMap {
            buf,
            lead: u32::try_from(lead.len()).expect("a head is far below 4 GiB"),
            first: [NONE; KNOWN.len()],
        }
    }

    pub(crate) fn lead(&self) -> &str {
        text(&self.buf[..self.lead as usize])
    }

    /// Whether a line `name: value` can be held: `name` is not empty and
    /// has no colon past its first byte, and neither has a line feed. (A
    /// parsed line always can; a decoder of another framing checks.)
    pub fn can_hold(name: &str, value: &str) -> bool {
        let lf = |s: &str| s.contains('\n');
        !name.is_empty() && !name.as_bytes()[1..].contains(&b':') && !lf(name) && !lf(value)
    }

    /// Append a header, preserving any existing ones with the same name.
    /// The value is written straight into the buffer. The line must be one
    /// the map can hold ([`HeaderMap::can_hold`]); a debug build checks.
    pub fn append(&mut self, name: &str, value: impl fmt::Display) {
        debug_assert!(Self::can_hold(name, ""), "header name {name:?}");
        let at = self.buf.len() + name.len() + 2;
        self.push(name, |buf| {
            write!(Sink(buf), "{value}").expect("writing to a buffer");
        });
        let value = &self.buf[at..self.buf.len() - 2];
        debug_assert!(!value.contains(&b'\n'), "a header value holds a line feed");
    }

    /// A line named `name`; `value` writes its value.
    fn push(&mut self, name: &str, value: impl FnOnce(&mut BytesMut)) {
        if self.buf.capacity() == 0 {
            self.buf.reserve(LINES_ROOM);
        }
        let start = self.buf.len();
        self.buf.extend_from_slice(name.as_bytes());
        self.buf.extend_from_slice(b": ");
        value(&mut self.buf);
        self.buf.extend_from_slice(b"\r\n");
        // Every offset of a head fits once its end does.
        u32::try_from(self.buf.len()).expect("a head is far below 4 GiB");
        if let Some(slot) = known(name.as_bytes()) {
            if self.first[slot] == NONE {
                self.first[slot] = start as u32;
            }
        }
    }

    /// Replace all headers named `name` with a single value.
    pub fn set(&mut self, name: &str, value: impl fmt::Display) {
        self.remove(name);
        self.append(name, value);
    }

    /// Remove all headers named `name`; returns whether any existed. The
    /// lines after a cut one move up, and the index is rebuilt in one
    /// walk.
    pub fn remove(&mut self, name: &str) -> bool {
        let Some(from) = self.first_of(name) else {
            return false;
        };
        let mut buf = Vec::from(std::mem::take(&mut self.buf));
        let (mut read, mut kept) = (from, from);
        while read < buf.len() {
            let next = line_end(&buf, read);
            if !named(&buf, read, name.as_bytes()) {
                buf.copy_within(read..next, kept);
                kept += next - read;
            }
            read = next;
        }
        let removed = kept < buf.len();
        buf.truncate(kept);
        self.buf = buf.into();
        if removed {
            let mut first = [NONE; KNOWN.len()];
            for (start, name, _) in self.lines() {
                if let Some(slot) = known(name) {
                    if first[slot] == NONE {
                        first[slot] = start as u32;
                    }
                }
            }
            self.first = first;
        }
        removed
    }

    /// Where the first line named `name` can start: for a known name, its
    /// line's offset (`None`: there is none); for any other, the first
    /// line's (`None` for a name no line can have).
    fn first_of(&self, name: &str) -> Option<usize> {
        match known(name.as_bytes()) {
            Some(slot) => (self.first[slot] != NONE).then_some(self.first[slot] as usize),
            None => Self::can_hold(name, "").then_some(self.lead as usize),
        }
    }

    /// The first line named `name` from `at` on: where its value starts
    /// and where the line ends.
    fn find(&self, name: &[u8], mut at: usize) -> Option<(usize, usize)> {
        let buf: &[u8] = &self.buf;
        while at < buf.len() {
            if named(buf, at, name) {
                let value = at + name.len() + 2;
                return Some((value, line_end(buf, value)));
            }
            at = line_end(buf, at);
        }
        None
    }

    fn lines(&self) -> Lines<'_> {
        Lines {
            buf: &self.buf,
            at: self.lead as usize,
        }
    }

    /// First value for `name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        let (value, end) = self.find(name.as_bytes(), self.first_of(name)?)?;
        Some(text(&self.buf[value..end - 2]))
    }

    /// All values for `name` in order.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        let first = self
            .first_of(name)
            .and_then(|at| self.find(name.as_bytes(), at));
        std::iter::successors(first, move |&(_, end)| self.find(name.as_bytes(), end))
            .map(|(value, end)| text(&self.buf[value..end - 2]))
    }

    /// Whether an entry with this name exists: for a known name, a look at
    /// the index.
    pub fn contains(&self, name: &str) -> bool {
        match known(name.as_bytes()) {
            Some(slot) => self.first[slot] != NONE,
            None => self.get(name).is_some(),
        }
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
        self.lines()
            .map(|(_, name, value)| (text(name), text(value)))
    }

    /// Number of contained elements.
    pub fn len(&self) -> usize {
        self.buf[self.lead as usize..]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
    }

    /// True when nothing is contained.
    pub fn is_empty(&self) -> bool {
        self.wire_len() == 0
    }

    /// Serialized size in bytes, including each `: ` and CRLF.
    pub fn wire_len(&self) -> usize {
        self.buf.len() - self.lead as usize
    }

    /// Write all header lines (without the terminating blank line).
    pub fn write_to(&self, out: &mut BytesMut) {
        out.extend_from_slice(&self.buf[self.lead as usize..]);
    }

    /// The header block of a received head, every line but the first,
    /// after `lead`, in pooled storage sized from the block. Bare LF ends
    /// a line as CRLF does, a line that is empty once its trailing CRs go
    /// is skipped, and a value loses the OWS at its edges; `None` when a
    /// line has no colon or its name is not a token.
    ///
    /// A block already in canonical form (every line `Name: value\r\n`,
    /// then at most the blank line: what every engine here writes) is
    /// checked and indexed in one walk and copied in whole; any other
    /// block is rewritten line by line.
    pub(crate) fn parse(lead: &str, block: &str) -> Option<HeaderMap> {
        let block = block.as_bytes();
        HeaderMap::canonical(lead, block).or_else(|| HeaderMap::normalise(lead, block))
    }

    /// [`HeaderMap::parse`] for a canonical block, indexed as it is walked
    /// and copied whole into storage of its size; `None` for any other.
    fn canonical(lead: &str, block: &[u8]) -> Option<HeaderMap> {
        let mut first = [NONE; KNOWN.len()];
        let end = index_canonical(block, lead.len(), &mut first)?;
        let rest = &block[end..];
        if !(rest.is_empty() || rest == b"\r\n") {
            return None;
        }
        let mut map = HeaderMap::with_lead(lead, end);
        map.buf.extend_from_slice(&block[..end]);
        u32::try_from(map.buf.len()).expect("a head is far below 4 GiB");
        map.first = first;
        Some(map)
    }

    /// [`HeaderMap::parse`] for a block that is not canonical: two walks
    /// over its lines, one to size the map and one to write it.
    fn normalise(lead: &str, block: &[u8]) -> Option<HeaderMap> {
        let mut bytes = 0;
        for line in field_lines(block) {
            let (name, value) = line?;
            bytes += name.len() + value.len() + 4;
        }
        let mut map = HeaderMap::with_lead(lead, bytes);
        for (name, value) in field_lines(block).flatten() {
            map.push(text(name), |buf| buf.extend_from_slice(value));
        }
        Some(map)
    }
}

#[cfg(test)]
#[path = "../tests/reference/heads.rs"]
mod reference;

#[cfg(test)]
#[path = "../tests/reference/soup.rs"]
mod soup;

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
        for (slot, spelling) in KNOWN.iter().enumerate() {
            assert_eq!(known(spelling.as_bytes()), Some(slot));
            assert_eq!(known(spelling.to_uppercase().as_bytes()), Some(slot));
            assert_eq!(known(&spelling.as_bytes()[1..]), None);
            assert!(is_token(spelling.as_bytes()));
        }
        for name in ["", "Ho\tst", "Content Length", ":path", "H\u{e9}"] {
            assert_eq!(
                (known(name.as_bytes()), is_token(name.as_bytes())),
                (None, false),
                "{name:?}"
            );
        }
    }

    #[test]
    fn the_index_points_at_the_first_line_of_each_known_name() {
        let mut h = HeaderMap::with_lead("/lead", 0);
        h.append(":path", "/x: y");
        h.append("etag", "\"a\"");
        h.append("Range", "bytes=0-1");
        h.append("ETag", "\"b\"");
        let slot = |name: &str| h.first[known(name.as_bytes()).unwrap()];
        assert_eq!(
            (slot("ETag"), slot("Range"), slot("Connection")),
            (19, 30, NONE)
        );
        assert_eq!(h.get(":path"), Some("/x: y"));
        assert_eq!(h.get_all("ETAG").collect::<Vec<_>>(), ["\"a\"", "\"b\""]);
        // Cutting a line moves the ones after it, and the index with them.
        assert!(h.remove(":PATH"));
        assert_eq!((h.first[0], h.first[1]), (5, 16));
        assert!(h.remove("etag"));
        assert_eq!((h.first[0], h.first[1]), (NONE, 5));
        assert!(!h.remove("Connection"));
        assert_eq!(h.lead(), "/lead");
        assert_eq!(wire(&h), "Range: bytes=0-1\r\n");
    }

    #[test]
    fn a_line_that_could_not_be_read_back_is_refused_and_never_found() {
        assert!(HeaderMap::can_hold(":path", "/a:b"));
        assert!(HeaderMap::can_hold("X", ""));
        for (name, value) in [("", "v"), ("Ho:st", "v"), ("X\nY", "v"), ("X", "a\nb")] {
            assert!(!HeaderMap::can_hold(name, value), "{name:?}: {value:?}");
        }
        // Nor is a name no line can have ever found.
        let mut h = HeaderMap::new();
        h.append("X", "a: b");
        assert_eq!(
            (h.get("X"), h.get("X: a"), h.get("")),
            (Some("a: b"), None, None)
        );
    }

    #[test]
    fn a_parsed_block_is_one_pooled_copy_in_canonical_form() {
        let block = "Host:a.example\r\nX-Spacey:    v   \nETag: \"x\"\r\n\r\n";
        let h = HeaderMap::parse("/lead", block).unwrap();
        assert_eq!(h.lead(), "/lead");
        assert_eq!(
            wire(&h),
            "Host: a.example\r\nX-Spacey: v\r\nETag: \"x\"\r\n"
        );
        // Sized from the block: the smallest class that holds it.
        assert_eq!((h.buf.len(), h.buf.capacity()), (46, 64));
        assert_eq!(h.get("etag"), Some("\"x\""));
        assert!(HeaderMap::parse("", "no colon here\r\n").is_none());
        assert!(HeaderMap::parse("", "Ho\tst: x\r\n").is_none());
        assert!(HeaderMap::parse("", ": x\r\n").is_none());
    }

    /// What `parse` and the reference make of `block`.
    fn both(block: &str) -> [Option<HeaderMap>; 2] {
        [HeaderMap::parse("", block), reference::parse(block)]
    }

    #[test]
    fn the_parser_agrees_with_the_reference_on_head_soup() {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x4ead_5009);
        let (mut accepted, mut rejected, mut copied) = (0, 0, 0);
        for i in 0..12_000 {
            let block = soup::block(&mut rng);
            let (new, old) = (HeaderMap::parse("", &block), reference::parse(&block));
            assert_eq!(new, old, "block {i}: {block:?}");
            let Some(new) = new else {
                rejected += 1;
                continue;
            };
            let old = old.expect("equal to a map");
            for name in KNOWN {
                let spelled = name.to_ascii_lowercase();
                assert_eq!(new.get(&spelled), old.get(&spelled), "{name} in {block:?}");
                let all = |h: &HeaderMap| h.get_all(name).map(str::to_owned).collect::<Vec<_>>();
                assert_eq!(all(&new), all(&old), "{name} in {block:?}");
            }
            accepted += 1;
            let mut wire = BytesMut::new();
            new.write_to(&mut wire);
            copied += usize::from(block.as_bytes().starts_with(&wire) && !wire.is_empty());
        }
        // The soup reaches both paths and both verdicts.
        assert!(
            accepted > 3_000 && rejected > 3_000,
            "{accepted} / {rejected}"
        );
        assert!(copied > 2_000, "{copied} canonical blocks");
    }

    #[test]
    fn a_value_loses_only_sp_and_htab_at_its_edges() {
        let value = |block: &str| both(block).map(|h| h.unwrap().get("X").unwrap().to_owned());
        assert_eq!(value("X: \t a b \t\r\n"), ["a b", "a b"]);
        // VT, FF and NO-BREAK SPACE are not OWS (RFC 9110 §5.6.3).
        for kept in ["\u{b}a\u{b}", "\u{c}a\u{c}", "\u{a0}a\u{a0}"] {
            let block = format!("X: {kept}\r\n\r\n");
            assert_eq!(value(&block), [kept, kept], "{kept:?}");
        }
    }

    #[test]
    fn a_canonical_block_is_copied_and_indexed_as_it_lies() {
        let block = "ETag: \"a\"\r\nX: \r\nContent-Length: 5\r\netag: \"b\"\r\n\r\n";
        let h = HeaderMap::parse("/t", block).unwrap();
        assert_eq!(wire(&h), block[..block.len() - 2]);
        let slot = |name: &str| h.first[known(name.as_bytes()).unwrap()];
        assert_eq!((slot("ETag"), slot("Content-Length")), (2, 18));
        assert_eq!(h.get("x"), Some(""));
        // Any line that normalises to other bytes takes the other path,
        // to the same map the reference builds.
        for odd in ["X:v", "X:  v", "X: v ", "X: v\r", "X: v\n", "\r\nX: v"] {
            let block = format!("ETag: \"a\"\r\n{odd}\r\n\r\n");
            let [new, old] = both(&block);
            assert_eq!(new, old, "{odd:?}");
            assert!(new.is_some_and(|h| wire(&h) == "ETag: \"a\"\r\nX: v\r\n"));
        }
    }

    #[test]
    fn a_dropped_map_hands_its_storage_back() {
        let h = HeaderMap::parse("", "Host: a.example\r\n").unwrap();
        let storage = h.buf.as_ptr();
        drop(h);
        let mut again = HeaderMap::with_capacity(20);
        again.append("Host", "b.example");
        assert_eq!(again.buf.as_ptr(), storage);
    }
}
