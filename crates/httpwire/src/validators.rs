//! Cache validators and conditional-request evaluation (RFC 2068 §13/§14).
//!
//! HTTP/1.1 adds *entity tags* — opaque, guaranteed-unique version
//! identifiers — alongside HTTP/1.0's date-based `Last-Modified`
//! validation. The paper's HTTP/1.1 robot issues conditional GETs with
//! `If-None-Match`; the HTTP/1.0 robot can only use `HEAD` or
//! `If-Modified-Since`.

use crate::date::{parse_http_date, HttpDate};
use crate::headers::HeaderMap;
use std::fmt;

/// An entity tag. Strong unless marked weak (`W/"..."`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ETag {
    /// Weak validators compare loosely (`W/` prefix).
    pub weak: bool,
    /// The opaque tag between the quotes.
    pub opaque: String,
}

impl ETag {
    /// A strong validator with the given opaque value.
    pub fn strong(opaque: impl Into<String>) -> Self {
        ETag {
            weak: false,
            opaque: opaque.into(),
        }
    }

    /// A weak validator.
    pub fn weak(opaque: impl Into<String>) -> Self {
        ETag {
            weak: true,
            opaque: opaque.into(),
        }
    }

    /// Derive a deterministic strong ETag from entity bytes and a
    /// modification time, mimicking Apache's inode-size-mtime format.
    pub fn derive(body: &[u8], mtime: u64) -> Self {
        // FNV-1a over the body stands in for the inode number.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in body {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        ETag::strong(format!(
            "{:x}-{:x}-{:x}",
            h & 0xFFFF_FFFF,
            body.len(),
            mtime
        ))
    }

    /// Whether a single entity-tag token is weak, and its opaque value,
    /// still borrowed from the header it came in.
    fn parts(s: &str) -> Option<(bool, &str)> {
        let s = s.trim();
        let (weak, rest) = match s.strip_prefix("W/") {
            Some(r) => (true, r),
            None => (false, s),
        };
        Some((weak, rest.strip_prefix('"')?.strip_suffix('"')?))
    }

    /// Parse a single entity-tag token.
    pub fn parse(s: &str) -> Option<ETag> {
        let (weak, opaque) = ETag::parts(s)?;
        Some(ETag {
            weak,
            opaque: opaque.to_string(),
        })
    }

    /// Strong comparison: both strong and identical.
    pub fn strong_eq(&self, other: &ETag) -> bool {
        !self.weak && !other.weak && self.opaque == other.opaque
    }

    /// Weak comparison: identical opaque values regardless of weakness.
    pub fn weak_eq(&self, other: &ETag) -> bool {
        self.opaque == other.opaque
    }
}

/// With quotes (and `W/` prefix when weak), as a header value has it.
impl fmt::Display for ETag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let weak = if self.weak { "W/" } else { "" };
        write!(f, "{weak}\"{}\"", self.opaque)
    }
}

/// The validators attached to one stored entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Validators {
    /// Entity tag, if the server assigned one.
    pub etag: Option<ETag>,
    /// Last modification time, epoch seconds.
    pub last_modified: Option<u64>,
}

impl Validators {
    /// A value carrying no validators.
    pub fn none() -> Self {
        Validators {
            etag: None,
            last_modified: None,
        }
    }

    /// Write validator headers into a response header map.
    pub fn write_headers(&self, headers: &mut HeaderMap) {
        if let Some(etag) = &self.etag {
            headers.set("ETag", etag);
        }
        if let Some(lm) = self.last_modified {
            headers.set("Last-Modified", HttpDate(lm));
        }
    }
}

/// The outcome of evaluating a conditional request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondResult {
    /// Serve the full entity (200).
    Serve,
    /// The client's copy is current (304 Not Modified).
    NotModified,
}

/// Evaluate `If-None-Match` / `If-Modified-Since` request headers against
/// an entity's validators, per RFC 2068 §14.25/14.26.
pub fn evaluate_conditional(request_headers: &HeaderMap, entity: &Validators) -> CondResult {
    // If-None-Match takes precedence when present.
    if let Some(inm) = request_headers.get("If-None-Match") {
        if inm.trim() == "*" {
            return CondResult::NotModified;
        }
        if let Some(etag) = &entity.etag {
            let matched = inm
                .split(',')
                .filter_map(ETag::parts)
                // Weak comparison is permitted for GET conditionals.
                .any(|(_, opaque)| opaque == etag.opaque);
            if matched {
                return CondResult::NotModified;
            }
        }
        return CondResult::Serve;
    }

    if let Some(ims) = request_headers.get("If-Modified-Since") {
        if let (Some(since), Some(lm)) = (parse_http_date(ims), entity.last_modified) {
            if lm <= since {
                return CondResult::NotModified;
            }
        }
        return CondResult::Serve;
    }

    CondResult::Serve
}

/// Evaluate `If-Range` (RFC 2068 §14.27): ranges may only be honoured when
/// the entity is unchanged, otherwise the full entity is returned.
pub fn if_range_matches(request_headers: &HeaderMap, entity: &Validators) -> bool {
    let Some(val) = request_headers.get("If-Range") else {
        return true; // no If-Range: the Range header stands on its own
    };
    if let Some((weak, opaque)) = ETag::parts(val) {
        let strong_eq = |e: &ETag| !weak && !e.weak && e.opaque == opaque;
        return entity.etag.as_ref().is_some_and(strong_eq);
    }
    if let (Some(date), Some(lm)) = (parse_http_date(val), entity.last_modified) {
        return lm <= date;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn etag_serialization() {
        assert_eq!(ETag::strong("abc").to_string(), "\"abc\"");
        assert_eq!(ETag::weak("abc").to_string(), "W/\"abc\"");
        assert_eq!(ETag::parse("\"abc\"").unwrap(), ETag::strong("abc"));
        assert_eq!(ETag::parse("W/\"abc\"").unwrap(), ETag::weak("abc"));
        assert!(ETag::parse("abc").is_none());
    }

    #[test]
    fn etag_comparisons() {
        let s = ETag::strong("v1");
        let w = ETag::weak("v1");
        assert!(s.strong_eq(&ETag::strong("v1")));
        assert!(!s.strong_eq(&w));
        assert!(s.weak_eq(&w));
        assert!(!s.weak_eq(&ETag::strong("v2")));
    }

    #[test]
    fn derive_is_deterministic_and_distinct() {
        let a = ETag::derive(b"content-a", 100);
        let b = ETag::derive(b"content-a", 100);
        let c = ETag::derive(b"content-b", 100);
        let d = ETag::derive(b"content-a", 200);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn if_none_match_hit() {
        let entity = Validators {
            etag: Some(ETag::strong("v1")),
            last_modified: Some(1000),
        };
        let mut req = HeaderMap::new();
        req.set("If-None-Match", "\"v1\"");
        assert_eq!(evaluate_conditional(&req, &entity), CondResult::NotModified);
        req.set("If-None-Match", "\"v0\", \"v1\"");
        assert_eq!(evaluate_conditional(&req, &entity), CondResult::NotModified);
        req.set("If-None-Match", "\"v2\"");
        assert_eq!(evaluate_conditional(&req, &entity), CondResult::Serve);
        req.set("If-None-Match", "*");
        assert_eq!(evaluate_conditional(&req, &entity), CondResult::NotModified);
    }

    #[test]
    fn if_modified_since() {
        let entity = Validators {
            etag: None,
            last_modified: Some(784_111_777),
        };
        let mut req = HeaderMap::new();
        req.set("If-Modified-Since", "Sun, 06 Nov 1994 08:49:37 GMT");
        assert_eq!(evaluate_conditional(&req, &entity), CondResult::NotModified);
        req.set("If-Modified-Since", "Sun, 06 Nov 1994 08:49:36 GMT");
        assert_eq!(evaluate_conditional(&req, &entity), CondResult::Serve);
        req.set("If-Modified-Since", "garbage");
        assert_eq!(evaluate_conditional(&req, &entity), CondResult::Serve);
    }

    #[test]
    fn inm_takes_precedence_over_ims() {
        let entity = Validators {
            etag: Some(ETag::strong("v2")),
            last_modified: Some(1000),
        };
        let mut req = HeaderMap::new();
        req.set("If-None-Match", "\"v1\"");
        req.set("If-Modified-Since", HttpDate(2000));
        // ETag mismatch: serve even though the date would say 304.
        assert_eq!(evaluate_conditional(&req, &entity), CondResult::Serve);
    }

    #[test]
    fn unconditional_serves() {
        let entity = Validators::none();
        assert_eq!(
            evaluate_conditional(&HeaderMap::new(), &entity),
            CondResult::Serve
        );
    }

    #[test]
    fn if_range_semantics() {
        let entity = Validators {
            etag: Some(ETag::strong("v1")),
            last_modified: Some(1000),
        };
        let mut req = HeaderMap::new();
        assert!(if_range_matches(&req, &entity), "absent If-Range passes");
        req.set("If-Range", "\"v1\"");
        assert!(if_range_matches(&req, &entity));
        req.set("If-Range", "\"v2\"");
        assert!(!if_range_matches(&req, &entity));
        req.set("If-Range", HttpDate(1500));
        assert!(if_range_matches(&req, &entity));
        req.set("If-Range", HttpDate(500));
        assert!(!if_range_matches(&req, &entity));
    }

    #[test]
    fn validators_write_headers() {
        let v = Validators {
            etag: Some(ETag::strong("x")),
            last_modified: Some(0),
        };
        let mut h = HeaderMap::new();
        v.write_headers(&mut h);
        assert_eq!(h.get("ETag"), Some("\"x\""));
        assert_eq!(
            h.get("Last-Modified"),
            Some("Thu, 01 Jan 1970 00:00:00 GMT")
        );
    }
}
