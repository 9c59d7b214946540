//! The paper's future-work back-of-envelope: HTTP's text protocol is
//! verbose, and pipelined requests are highly redundant — "the actual
//! number of bytes that changes between requests can be as small as 10%.
//! Therefore, a more compact wire representation for HTTP could increase
//! pipelining's benefit for cache revalidation further up to an
//! additional factor of five or ten."
//!
//! This module quantifies that on the reproduction's own request stream:
//! the byte-level redundancy between consecutive requests, and what a
//! shared-dictionary compressor (deflate over the whole batch) achieves.

use flate::{deflate, Level};
use httpclient::{ClientConfig, ProtocolMode, RequestStyle};
use httpwire::{ETag, Method, Version};
use netsim::{HostId, SockAddr};

/// The redundancy analysis of one request batch.
#[derive(Debug, Clone, PartialEq)]
pub struct VerbosityStudy {
    /// Requests analyzed.
    pub requests: usize,
    /// Total request bytes on the wire.
    pub total_bytes: usize,
    /// Bytes that differ from the previous request (positional diff),
    /// summed over the batch — the paper's "bytes that change".
    pub changed_bytes: usize,
    /// The whole batch deflated with one shared dictionary.
    pub deflated_bytes: usize,
}

impl VerbosityStudy {
    /// Fraction of bytes that actually change between requests.
    pub fn change_fraction(&self) -> f64 {
        self.changed_bytes as f64 / self.total_bytes as f64
    }

    /// The compaction factor a dictionary coder achieves on the batch.
    pub fn compaction_factor(&self) -> f64 {
        self.total_bytes as f64 / self.deflated_bytes as f64
    }
}

/// Line-wise diff: bytes of `b`'s header lines that do not appear
/// verbatim in `a` — the natural unit of HTTP-request redundancy (most
/// header lines repeat exactly; the request line and validators differ).
fn diff_bytes(a: &[u8], b: &[u8]) -> usize {
    use std::collections::BTreeMap;
    let mut available: BTreeMap<&[u8], usize> = BTreeMap::new();
    for line in a.split(|&c| c == b'\n') {
        *available.entry(line).or_insert(0) += 1;
    }
    let mut changed = 0;
    for line in b.split(|&c| c == b'\n') {
        match available.get_mut(line) {
            Some(n) if *n > 0 => *n -= 1,
            _ => changed += line.len() + 1,
        }
    }
    changed
}

/// Build the 43 revalidation requests the pipelined robot sends and
/// analyze their redundancy.
pub fn revalidation_request_study(style: RequestStyle) -> VerbosityStudy {
    let site = webcontent::microscape::site();
    let addr = SockAddr::new(HostId(1), 80);
    let cfg = ClientConfig::robot(ProtocolMode::Http11Pipelined, addr).with_style(style);

    let mut wires: Vec<Vec<u8>> = Vec::new();
    let mut paths = vec![site.html_path().to_string()];
    paths.extend(webcontent::html::inline_image_sources(&site.html));
    for path in &paths {
        let obj = site.object(path).expect("site object");
        let etag = ETag::derive(&obj.body, obj.mtime);
        let req = cfg
            .style
            .request(Method::Get, path, Version::Http11, &cfg.host)
            .with_header("If-None-Match", &etag);
        wires.push(req.to_bytes());
    }

    let total_bytes: usize = wires.iter().map(|w| w.len()).sum();
    let mut changed_bytes = wires[0].len(); // the first has no predecessor
    for pair in wires.windows(2) {
        changed_bytes += diff_bytes(&pair[0], &pair[1]);
    }
    let concatenated: Vec<u8> = wires.concat();
    let deflated_bytes = deflate(&concatenated, Level::Default).len();

    VerbosityStudy {
        requests: wires.len(),
        total_bytes,
        changed_bytes,
        deflated_bytes,
    }
}

/// The request-verbosity section of EXPERIMENTS.md: the robot and both
/// browser header profiles.
pub(crate) fn section() -> String {
    let mut out = String::from(
        "## Request verbosity (`repro verbosity`)\n\n\
         The future-work back-of-envelope: \"the actual number of bytes that\n\
         changes between requests can be as small as 10%\", suggesting 5-10x\n\
         headroom for a compact HTTP encoding.\n\n\
         | Profile | Total B | Changed | Deflated | Compaction |\n|---|---|---|---|---|\n",
    );
    for (label, style) in [
        ("libwww robot", RequestStyle::Robot),
        ("Navigator", RequestStyle::Navigator),
        ("MSIE", RequestStyle::Explorer),
    ] {
        let s = revalidation_request_study(style);
        out += &format!(
            "| {label} | {} | {:.0}% | {} | {:.1}x |\n",
            s.total_bytes,
            s.change_fraction() * 100.0,
            s.deflated_bytes,
            s.compaction_factor()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_highly_redundant() {
        let s = revalidation_request_study(RequestStyle::Robot);
        assert_eq!(s.requests, 43);
        // The paper: as little as ~10% of bytes change request-to-request.
        // Ours vary by path + ETag; the fraction must still be small.
        assert!(
            s.change_fraction() < 0.45,
            "change fraction {:.2}",
            s.change_fraction()
        );
        // With verbose product headers the fraction approaches the
        // paper's ~10%.
        let ie = revalidation_request_study(RequestStyle::Explorer);
        assert!(
            ie.change_fraction() < 0.30,
            "IE change fraction {:.2}",
            ie.change_fraction()
        );
        assert!(ie.change_fraction() < s.change_fraction());
    }

    #[test]
    fn dictionary_coding_gains_factor_five_or_more() {
        // "...could increase pipelining's benefit ... up to an additional
        // factor of five or ten".
        let s = revalidation_request_study(RequestStyle::Robot);
        assert!(
            s.compaction_factor() >= 3.0,
            "compaction {:.1}x",
            s.compaction_factor()
        );
    }

    #[test]
    fn verbose_browsers_compact_even_better() {
        // More boilerplate per request = more redundancy for the
        // dictionary to exploit.
        let robot = revalidation_request_study(RequestStyle::Robot);
        let ie = revalidation_request_study(RequestStyle::Explorer);
        assert!(ie.total_bytes > robot.total_bytes);
        assert!(ie.compaction_factor() > robot.compaction_factor());
    }

    #[test]
    fn diff_bytes_behaviour() {
        assert_eq!(diff_bytes(b"abc\ndef\n", b"abc\ndef\n"), 0);
        // One changed line costs its length (+1 for the newline unit).
        assert_eq!(diff_bytes(b"abc\ndef\n", b"abc\ndXf\n"), 4);
        // Reordered identical lines cost nothing.
        assert_eq!(diff_bytes(b"abc\ndef\n", b"def\nabc\n"), 0);
    }
}
