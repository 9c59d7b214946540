//! Byte-range requests (RFC 2068 §14.36).
//!
//! The paper argues range requests are how an HTTP/1.1 browser gets image
//! metadata early over a single connection ("poor man's multiplexing"):
//! a revalidation combines `If-None-Match` with `If-Range` plus a small
//! leading range so changed objects return only their first bytes.

/// One byte-range specifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteRange {
    /// `first-last` (inclusive) or `first-` (to end).
    FromTo(u64, Option<u64>),
    /// `-suffix`: the final `suffix` bytes.
    Suffix(u64),
}

impl ByteRange {
    /// Resolve against an entity of `len` bytes into a concrete
    /// `(offset, length)` of at least one byte, or `None` when
    /// unsatisfiable (every range of an empty entity is).
    pub fn resolve(self, len: u64) -> Option<(u64, u64)> {
        match self {
            ByteRange::FromTo(first, last) => {
                if first >= len {
                    return None;
                }
                let last = last.map_or(len - 1, |l| l.min(len - 1));
                if last < first {
                    return None;
                }
                Some((first, last - first + 1))
            }
            ByteRange::Suffix(n) => {
                let n = n.min(len);
                (n > 0).then(|| (len - n, n))
            }
        }
    }

    /// Serialize as a range-spec token.
    pub fn to_spec(self) -> String {
        match self {
            ByteRange::FromTo(a, Some(b)) => format!("{a}-{b}"),
            ByteRange::FromTo(a, None) => format!("{a}-"),
            ByteRange::Suffix(n) => format!("-{n}"),
        }
    }
}

/// Parse a `Range: bytes=...` header value. Returns `None` for a malformed
/// header (servers then ignore the header, per the RFC).
pub fn parse_range_header(value: &str) -> Option<Vec<ByteRange>> {
    let spec = value.trim().strip_prefix("bytes=")?;
    let mut out = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if let Some(suffix) = part.strip_prefix('-') {
            out.push(ByteRange::Suffix(suffix.parse().ok()?));
        } else {
            let (first, last) = part.split_once('-')?;
            let first: u64 = first.parse().ok()?;
            let last = if last.is_empty() {
                None
            } else {
                Some(last.parse().ok()?)
            };
            if let Some(l) = last {
                if l < first {
                    return None;
                }
            }
            out.push(ByteRange::FromTo(first, last));
        }
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

/// Build a `Range` header value from range specs.
pub fn format_range_header(ranges: &[ByteRange]) -> String {
    let specs: Vec<String> = ranges.iter().map(|r| r.to_spec()).collect();
    format!("bytes={}", specs.join(","))
}

/// Build a `Content-Range` response header for a satisfied range.
pub fn content_range(offset: u64, len: u64, total: u64) -> String {
    format!("bytes {}-{}/{}", offset, offset + len - 1, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        assert_eq!(
            parse_range_header("bytes=0-255"),
            Some(vec![ByteRange::FromTo(0, Some(255))])
        );
        assert_eq!(
            parse_range_header("bytes=500-"),
            Some(vec![ByteRange::FromTo(500, None)])
        );
        assert_eq!(
            parse_range_header("bytes=-128"),
            Some(vec![ByteRange::Suffix(128)])
        );
        assert_eq!(
            parse_range_header("bytes=0-0,-1"),
            Some(vec![ByteRange::FromTo(0, Some(0)), ByteRange::Suffix(1)])
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(parse_range_header("bits=0-1"), None);
        assert_eq!(parse_range_header("bytes=5-2"), None);
        assert_eq!(parse_range_header("bytes="), None);
        assert_eq!(parse_range_header("bytes=abc"), None);
    }

    #[test]
    fn resolve_ranges() {
        assert_eq!(
            ByteRange::FromTo(0, Some(255)).resolve(1000),
            Some((0, 256))
        );
        assert_eq!(ByteRange::FromTo(0, Some(255)).resolve(100), Some((0, 100)));
        assert_eq!(ByteRange::FromTo(990, None).resolve(1000), Some((990, 10)));
        assert_eq!(ByteRange::FromTo(1000, None).resolve(1000), None);
        assert_eq!(ByteRange::Suffix(10).resolve(1000), Some((990, 10)));
        assert_eq!(ByteRange::Suffix(5000).resolve(1000), Some((0, 1000)));
        assert_eq!(ByteRange::Suffix(0).resolve(1000), None);
    }

    #[test]
    fn no_range_of_an_empty_entity_resolves() {
        assert_eq!(ByteRange::Suffix(10).resolve(0), None);
        assert_eq!(ByteRange::FromTo(0, None).resolve(0), None);
        assert_eq!(ByteRange::FromTo(0, Some(9)).resolve(0), None);
    }

    #[test]
    fn header_roundtrip() {
        let ranges = vec![ByteRange::FromTo(0, Some(511)), ByteRange::Suffix(64)];
        let hdr = format_range_header(&ranges);
        assert_eq!(hdr, "bytes=0-511,-64");
        assert_eq!(parse_range_header(&hdr), Some(ranges));
    }

    #[test]
    fn content_range_format() {
        assert_eq!(content_range(0, 256, 1000), "bytes 0-255/1000");
        assert_eq!(content_range(990, 10, 1000), "bytes 990-999/1000");
    }
}
