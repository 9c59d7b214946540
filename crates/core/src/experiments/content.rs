//! The content-change experiments: Figure 1 and the CSS replacement
//! analysis, the GIF→PNG / GIF→MNG conversion study, and a full
//! end-to-end browse of the CSS-converted page.

use super::row;
use crate::env::NetEnv;
use crate::harness::{custom_store, microscape_store, run_spec, CellSpec};
use crate::result::CellResult;
use httpclient::{ClientCache, ClientConfig, ProtocolMode, Workload};
use httpserver::ServerConfig;
use netsim::{HostId, SockAddr, TraceMode};
use webcontent::convert::{convert_site, ConversionReport};
use webcontent::css;
use webcontent::synth::ImageRole;

/// Figure 1: the 682-byte "solutions" GIF and its ~150-byte HTML+CSS
/// replacement.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureOne {
    /// Size of the generated banner GIF.
    pub gif_bytes: usize,
    /// The stylesheet rule, serialized compactly.
    pub css_rule: String,
    /// The in-document replacement markup.
    pub markup: String,
    /// CSS rule plus markup, total bytes.
    pub replacement_bytes: usize,
}

/// Reproduce Figure 1 with the generated "solutions" banner.
pub fn figure1() -> FigureOne {
    let site = webcontent::microscape::site();
    let obj = site
        .object("/images/solutions.gif")
        .expect("solutions banner exists");
    let rule = css::banner_rule("banner");
    let css_rule = css::serialize(&css::Stylesheet { rules: vec![rule] });
    let markup = css::replacement_markup(ImageRole::TextBanner, "banner", "solutions")
        .expect("banners are replaceable");
    FigureOne {
        gif_bytes: obj.body.len(),
        replacement_bytes: css_rule.len() + markup.len(),
        css_rule,
        markup,
    }
}

/// The Figure 1 + CSS section of EXPERIMENTS.md.
pub(crate) fn figure1_section() -> String {
    let f = figure1();
    let analysis = webcontent::microscape::site().css_analysis();
    let (orig, conv) = css_browse_cells();
    String::from(
        "## Figure 1 + CSS analysis (`repro figure1`)\n\n\
         | Quantity | Paper | Measured |\n|---|---|---|\n",
    ) + &row(
        "'solutions' GIF vs HTML+CSS",
        "682 B vs ~150 B (>4x)",
        &format!(
            "{} B vs {} B ({:.1}x)",
            f.gif_bytes,
            f.replacement_bytes,
            f.gif_bytes as f64 / f.replacement_bytes as f64
        ),
    ) + &row(
        "Replaceable images / requests saved",
        "'many' of 40",
        &format!(
            "{} of 42, {} bytes net",
            analysis.replaced_count(),
            analysis.bytes_saved()
        ),
    ) + &row(
        "End-to-end browse, PPP pipelined (Pa/Sec)",
        "(not measured end-to-end in the paper)",
        &format!(
            "{}/{:.1}s -> {}/{:.1}s",
            orig.packets(),
            orig.secs,
            conv.packets(),
            conv.secs
        ),
    )
}

/// The GIF→PNG / GIF→MNG conversion report.
pub fn conversion_report() -> ConversionReport {
    let site = webcontent::microscape::site();
    ConversionReport::from_conversions(&convert_site(&site.images))
}

/// The GIF→PNG / GIF→MNG section of EXPERIMENTS.md.
pub(crate) fn png_section() -> String {
    let r = conversion_report();
    let change = |from: usize, to: usize| (to as f64 / from as f64 - 1.0) * 100.0;
    String::from(
        "## GIF→PNG / GIF→MNG (`repro png`)\n\n| Quantity | Paper | Measured |\n|---|---|---|\n",
    ) + &row(
        "40 static GIFs -> PNG",
        "103,299 -> 92,096 B (-11%)",
        &format!(
            "{} -> {} B ({:+.1}%)",
            r.static_gif_bytes,
            r.static_png_bytes,
            change(r.static_gif_bytes, r.static_png_bytes)
        ),
    ) + &row(
        "2 animations -> MNG",
        "24,988 -> 16,329 B (-35%)",
        &format!(
            "{} -> {} B ({:+.1}%)",
            r.anim_gif_bytes,
            r.anim_mng_bytes,
            change(r.anim_gif_bytes, r.anim_mng_bytes)
        ),
    ) + &row(
        "Tiny images grow under PNG",
        "'sub-200 byte category' grows",
        &format!("{} images grew", r.grew),
    )
}

/// Simulated browse of the original vs the CSS-converted page over PPP,
/// pipelined HTTP/1.1 both times: what style sheets buy end-to-end.
pub fn css_browse_cells() -> (CellResult, CellResult) {
    let site = webcontent::microscape::site();
    let addr = SockAddr::new(HostId(1), 80);

    let original = {
        let spec = CellSpec {
            env: NetEnv::Ppp,
            server: ServerConfig::apache(80),
            store: microscape_store(site),
            client: ClientConfig::robot(ProtocolMode::Http11Pipelined, addr),
            workload: Workload::Browse {
                start: site.html_path().into(),
            },
            cache: ClientCache::new(),
            link_codec: None,
            impair: None,
            tcp: None,
            trace_mode: TraceMode::StatsOnly,
            probe: false,
            telemetry: false,
        };
        run_spec(spec).cell
    };

    let converted = {
        let variant = site.css_variant();
        let mut objects: Vec<(String, Vec<u8>, &'static str)> = vec![(
            "/index.html".to_string(),
            variant.html.clone().into_bytes(),
            "text/html",
        )];
        for obj in &variant.kept {
            objects.push((obj.path.clone(), obj.body.clone(), "image/gif"));
        }
        let spec = CellSpec {
            env: NetEnv::Ppp,
            server: ServerConfig::apache(80),
            store: custom_store(&objects),
            client: ClientConfig::robot(ProtocolMode::Http11Pipelined, addr),
            workload: Workload::Browse {
                start: "/index.html".into(),
            },
            cache: ClientCache::new(),
            link_codec: None,
            impair: None,
            tcp: None,
            trace_mode: TraceMode::StatsOnly,
            probe: false,
            telemetry: false,
        };
        run_spec(spec).cell
    };
    (original, converted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_reduction_factor() {
        let f = figure1();
        // Paper: 682-byte GIF vs ~150 bytes of HTML+CSS — a factor > 4.
        assert!(
            f.gif_bytes as f64 / f.replacement_bytes as f64 >= 3.0,
            "{} / {}",
            f.gif_bytes,
            f.replacement_bytes
        );
        assert!(f.css_rule.contains("P.banner"));
        assert!(f.markup.contains("solutions"));
    }

    #[test]
    fn conversion_matches_paper_direction() {
        let r = conversion_report();
        assert!(r.static_saved() > 0, "PNG saves overall");
        assert!(
            r.anim_saved() as f64 / r.anim_gif_bytes as f64 > 0.2,
            "MNG saves substantially"
        );
        assert!(r.grew > 0, "tiny images grow (the sub-200-byte effect)");
    }

    #[test]
    fn css_page_saves_requests_and_time() {
        let (orig, conv) = css_browse_cells();
        assert_eq!(orig.fetched, 43);
        assert!(
            conv.fetched < orig.fetched,
            "CSS removes requests: {} -> {}",
            orig.fetched,
            conv.fetched
        );
        assert!(conv.bytes < orig.bytes);
        assert!(conv.secs < orig.secs);
        assert!(conv.packets() < orig.packets());
    }
}
