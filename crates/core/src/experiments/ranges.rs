//! "Poor man's multiplexing": the paper's range-request idiom.
//!
//! §"Range Requests and Validation" argues that an HTTP/1.1 browser
//! revisiting a page where content *changed* should combine cache
//! validation with `If-Range` plus a small leading `Range`, so a changed
//! object returns only its metadata-bearing first bytes instead of
//! monopolizing the single connection with a full transfer. The browser
//! can then progressively fetch the rest, interleaved as it pleases.
//!
//! The experiment: the site is revised (every image's bytes and
//! validators change), and the client revalidates. A naive client's
//! conditional GETs all miss and re-download everything; a range-savvy
//! client gets 206s of the first 256 bytes and learns every object's
//! metadata in a fraction of the bytes and time.

use crate::env::NetEnv;
use crate::harness::{matrix_spec, run_spec, ProtocolSetup, Scenario};
use crate::result::CellResult;
use httpserver::{Entity, ServerKind, SiteStore};
use webcontent::microscape::SITE_MTIME;

/// Build the *revised* site: same paths, all bodies perturbed so every
/// validator misses. (A realistic revision: one byte appended.)
fn revised_store() -> std::sync::Arc<SiteStore> {
    let site = webcontent::microscape::site();
    let mut store = SiteStore::new();
    let mut html = site.html.clone().into_bytes();
    html.extend_from_slice(b"<!-- rev2 -->");
    store.insert(
        site.html_path(),
        Entity::new(html, "text/html", SITE_MTIME + 86_400).with_deflate(),
    );
    for obj in &site.images {
        let mut body = obj.body.clone();
        body.push(0x3B); // still a valid GIF suffix-wise for our decoder's purposes
        store.insert(
            &obj.path,
            Entity::new(body, obj.content_type, SITE_MTIME + 86_400),
        );
    }
    store.into_shared()
}

/// The two client idioms under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevisitIdiom {
    /// Plain conditional GETs: every miss transfers the full entity.
    FullOnChange,
    /// Conditional GET + `Range: bytes=0-255`: every miss transfers only
    /// the leading bytes (metadata), per the paper's idiom.
    RangeMetadata,
}

impl RevisitIdiom {
    /// Row label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RevisitIdiom::FullOnChange => "Conditional GET (full on change)",
            RevisitIdiom::RangeMetadata => "Conditional GET + leading 256B range",
        }
    }
}

/// Run a revised-site revalidation with the given idiom over `env`: the
/// pipelined revalidation cell of the matrix, served the revised site.
pub fn run_revisit_cell(env: NetEnv, idiom: RevisitIdiom) -> CellResult {
    let mut spec = matrix_spec(
        env,
        ServerKind::Apache,
        ProtocolSetup::Http11Pipelined,
        Scenario::Revalidate,
    );
    spec.store = revised_store();
    if idiom == RevisitIdiom::RangeMetadata {
        // If-None-Match still yields 304 on unchanged entities; on
        // changed ones the bare Range applies and returns a 206 of the
        // leading bytes. (Adding If-Range with the *stale* validator
        // would correctly force full transfers — the opposite of the
        // idiom — so the range is sent unconditionally.)
        spec.client.extra_headers = vec![("Range".to_string(), "bytes=0-255".to_string())];
    }
    run_spec(spec).cell
}

/// The range-request section of EXPERIMENTS.md (PPP).
pub(crate) fn section() -> String {
    let mut out = String::from(
        "## Poor man's multiplexing (`repro ranges`)\n\n\
         The paper's §\"Range Requests and Validation\" idiom, exercised on a\n\
         *revised* site (every validator misses):\n\n\
         | Idiom (PPP, pipelined) | Pa | Bytes | Sec | Body bytes |\n|---|---|---|---|---|\n",
    );
    for idiom in [RevisitIdiom::FullOnChange, RevisitIdiom::RangeMetadata] {
        let c = run_revisit_cell(NetEnv::Ppp, idiom);
        out += &format!(
            "| {} | {} | {} | {:.1} | {} |\n",
            idiom.label(),
            c.packets(),
            c.bytes,
            c.secs,
            c.body_bytes
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn revised_site_misses_every_validator() {
        let c = run_revisit_cell(NetEnv::Lan, RevisitIdiom::FullOnChange);
        assert_eq!(c.fetched, 43);
        assert_eq!(c.validated, 0, "every object changed");
        assert!(c.body_bytes > 160_000, "full re-download");
    }

    #[test]
    fn range_idiom_fetches_only_metadata() {
        let c = run_revisit_cell(NetEnv::Lan, RevisitIdiom::RangeMetadata);
        assert_eq!(c.fetched, 43);
        assert_eq!(c.validated, 0);
        // 43 objects x <=256 bytes of leading data.
        assert!(
            c.body_bytes <= 43 * 256,
            "only metadata moves: {} bytes",
            c.body_bytes
        );
    }

    #[test]
    fn range_idiom_wins_on_the_modem() {
        let full = run_revisit_cell(NetEnv::Ppp, RevisitIdiom::FullOnChange);
        let range = run_revisit_cell(NetEnv::Ppp, RevisitIdiom::RangeMetadata);
        assert!(
            range.secs < full.secs / 3.0,
            "ranges should transform revisit latency: {:.1}s vs {:.1}s",
            range.secs,
            full.secs
        );
        assert!(range.bytes < full.bytes / 3);
    }
}
