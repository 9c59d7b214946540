//! The compression experiments:
//!
//! * §"Changing Web Content Representation": deflating the Microscape
//!   HTML with default settings ("compressed more than a factor of three
//!   from 42K to 11K", ≈19% of the total payload);
//! * §"Further Compression Experiments": a single HTML GET over real
//!   28.8 k modems with V.42bis-style link compression, uncompressed vs
//!   pre-deflated ("Saved using compression: 68.7% of packets, ~64% of
//!   time"), and the tag-case study (lowercase tags compress to ≈.27,
//!   mixed case to ≈.35).

use super::{paper, row};
use crate::env::NetEnv;
use crate::harness::{matrix_spec, run_spec, ProtocolSetup, Scenario};
use crate::result::CellResult;
use flate::{deflate, Level};
use httpclient::Workload;
use httpserver::ServerKind;
use netsim::ModemCompressor;

/// Deflate statistics for the Microscape HTML — the paper's headline
/// compression claim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HtmlDeflateStudy {
    /// Size of the page as served.
    pub html_bytes: usize,
    /// Size after deflate at the default level.
    pub deflated_bytes: usize,
    /// Compression ratio of the page as authored (mixed-case tags).
    pub ratio_mixed: f64,
    /// Ratio after rewriting every tag to lowercase.
    pub ratio_lowercase: f64,
    /// Total payload reduction across the whole page fetch.
    pub payload_saving_pct: f64,
}

/// Run the HTML deflate study on the Microscape page.
pub fn html_deflate_study() -> HtmlDeflateStudy {
    let site = webcontent::microscape::site();
    let html = &site.html;
    let deflated = deflate(html.as_bytes(), Level::Default);
    let lowercase = site.html_lowercase();
    let deflated_lower = deflate(lowercase.as_bytes(), Level::Default);

    let total_payload = html.len() + site.images.iter().map(|o| o.body.len()).sum::<usize>();
    let saving = html.len() - deflated.len();

    HtmlDeflateStudy {
        html_bytes: html.len(),
        deflated_bytes: deflated.len(),
        ratio_mixed: deflated.len() as f64 / html.len() as f64,
        ratio_lowercase: deflated_lower.len() as f64 / lowercase.len() as f64,
        payload_saving_pct: saving as f64 * 100.0 / total_payload as f64,
    }
}

/// The §8.2.1 modem experiment against Apache: a single GET of the HTML
/// over a 28.8k modem *with V.42bis link compression active* — once with
/// the plain HTML, once with the pre-deflated entity.
pub fn modem_cells() -> (CellResult, CellResult) {
    let run_one = |setup| {
        let mut spec = matrix_spec(NetEnv::Ppp, ServerKind::Apache, setup, Scenario::FirstTime);
        spec.workload = Workload::FetchList {
            paths: vec![webcontent::microscape::site().html_path().to_string()],
        };
        // The modem pair compresses the PPP stream either way.
        spec.link_codec = Some(|| Box::new(ModemCompressor::new()));
        run_spec(spec).cell
    };
    (
        run_one(ProtocolSetup::Http11Pipelined),
        run_one(ProtocolSetup::Http11PipelinedDeflate),
    )
}

/// The §8.2.1 section of EXPERIMENTS.md (Apache).
pub(crate) fn modem_section() -> String {
    let (plain, deflated) = modem_cells();
    let mut out = String::from(
        "## §8.2.1 — deflate vs V.42bis modem compression (`repro modem`)\n\n\
         | Case | Paper (Pa / Sec, Apache) | Measured |\n|---|---|---|\n",
    );
    for (label, key, c) in [
        ("Uncompressed HTML", "Uncompressed", plain),
        ("Compressed HTML", "Compressed", deflated),
    ] {
        let p = paper::find("modem", key, "FirstTime");
        out += &row(
            label,
            &format!("{:.0} / {:.2}", p.packets, p.seconds),
            &format!("{} / {:.2}", c.packets(), c.secs),
        );
    }
    let saved = |d: f64, p: f64| (1.0 - d / p) * 100.0;
    out + &row(
        "Saved",
        "68.7% / 64.5%",
        &format!(
            "{:.1}% / {:.1}%",
            saved(deflated.packets() as f64, plain.packets() as f64),
            saved(deflated.secs, plain.secs)
        ),
    )
}

/// The HTML deflate section of EXPERIMENTS.md.
pub(crate) fn deflate_section() -> String {
    let d = html_deflate_study();
    String::from(
        "## HTML transport compression (`repro deflate`)\n\n\
         | Quantity | Paper | Measured |\n|---|---|---|\n",
    ) + &row(
        "HTML compression",
        "42K -> 11K (>3x)",
        &format!(
            "{} -> {} ({:.1}x)",
            d.html_bytes,
            d.deflated_bytes,
            d.html_bytes as f64 / d.deflated_bytes as f64
        ),
    ) + &row(
        "Share of total payload",
        "~19%",
        &format!("{:.1}%", d.payload_saving_pct),
    ) + &row(
        "Tag-case ratios (lower vs mixed)",
        ".27 vs .35",
        &format!("{:.2} vs {:.2}", d.ratio_lowercase, d.ratio_mixed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn html_compresses_roughly_3x() {
        let s = html_deflate_study();
        assert!(
            s.ratio_mixed < 0.40,
            "paper: 42K -> ~11K; got ratio {:.3}",
            s.ratio_mixed
        );
        // ~19% of the total payload in the paper; ours depends on the
        // synthetic page but must be in the same region.
        assert!(
            (10.0..30.0).contains(&s.payload_saving_pct),
            "payload saving {:.1}%",
            s.payload_saving_pct
        );
    }

    #[test]
    fn lowercase_tags_compress_better() {
        let s = html_deflate_study();
        assert!(
            s.ratio_lowercase < s.ratio_mixed,
            "paper: .27 vs .35; got {:.3} vs {:.3}",
            s.ratio_lowercase,
            s.ratio_mixed
        );
    }

    #[test]
    fn deflate_beats_modem_compression() {
        // Paper: ~68.7% packet saving, ~64% elapsed-time saving even
        // though the modem compresses the plain HTML too.
        let (plain, deflated) = modem_cells();
        assert!(plain.packets() > 0 && deflated.packets() > 0);
        let pkt_saving = 1.0 - deflated.packets() as f64 / plain.packets() as f64;
        let sec_saving = 1.0 - deflated.secs / plain.secs;
        assert!(
            pkt_saving > 0.40,
            "packet saving should be large, got {:.2}",
            pkt_saving
        );
        assert!(
            sec_saving > 0.35,
            "time saving should be large, got {:.2}",
            sec_saving
        );
        // And the modem did help the plain run (physical < nominal bytes).
        assert!(plain.physical_bytes < plain.bytes);
    }
}
