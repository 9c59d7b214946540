//! The paper's back-of-the-envelope conclusion: applying *all* the
//! techniques — HTTP/1.1 pipelining, transport compression, CSS image
//! replacement, and PNG/MNG conversion — downloads the test page over a
//! modem "in approximately 60% of the time of HTTP/1.0 browsers without
//! significant change to the visual appearance".

use super::row;
use crate::env::NetEnv;
use crate::harness::{custom_store, matrix_spec, run_spec, ProtocolSetup, Scenario};
use crate::result::CellResult;
use httpclient::Workload;
use httpserver::ServerKind;
use webcontent::convert::{gif_to_mng, gif_to_png};
use webcontent::synth::ImageRole;

/// Baseline: an HTTP/1.0 browser (4 parallel connections) fetching the
/// original page over PPP, Table 9's HTTP/1.0 first-time cell.
pub fn baseline_cell() -> CellResult {
    let setup = ProtocolSetup::Http10;
    run_spec(matrix_spec(
        NetEnv::Ppp,
        ServerKind::Apache,
        setup,
        Scenario::FirstTime,
    ))
    .cell
}

/// Everything applied: the CSS-converted page (fewer images), remaining
/// images converted to PNG/MNG, served deflated over pipelined HTTP/1.1.
pub fn all_techniques_cell() -> CellResult {
    let site = webcontent::microscape::site();
    let variant = site.css_variant();

    // Convert the surviving images. Image references keep their paths —
    // servers of the era served PNG under any name; content type is what
    // matters.
    let mut objects: Vec<(String, Vec<u8>, &'static str)> = vec![(
        "/index.html".to_string(),
        variant.html.clone().into_bytes(),
        "text/html",
    )];
    for obj in &variant.kept {
        let (body, ct): (Vec<u8>, &'static str) = if obj.role == Some(ImageRole::Animation) {
            (
                gif_to_mng(&obj.body).expect("animation converts"),
                "video/x-mng",
            )
        } else {
            let png = gif_to_png(&obj.body).expect("image converts");
            // The paper notes PNG *loses* on tiny images; a sensible
            // deployment keeps whichever is smaller.
            if png.len() < obj.body.len() {
                (png, "image/png")
            } else {
                (obj.body.clone(), "image/gif")
            }
        };
        objects.push((obj.path.clone(), body, ct));
    }

    let setup = ProtocolSetup::Http11PipelinedDeflate;
    let mut spec = matrix_spec(NetEnv::Ppp, ServerKind::Apache, setup, Scenario::FirstTime);
    spec.store = custom_store(&objects);
    spec.workload = Workload::Browse {
        start: "/index.html".into(),
    };
    run_spec(spec).cell
}

/// The back-of-the-envelope section of EXPERIMENTS.md.
pub(crate) fn section() -> String {
    let (base, all) = (baseline_cell(), all_techniques_cell());
    String::from(
        "## Back of the envelope (`repro summary`)\n\n\
         | Configuration | Paper | Measured |\n|---|---|---|\n",
    ) + &row(
        "All techniques vs HTTP/1.0, modem download time",
        "~60%",
        &format!("{:.0}%", all.secs / base.secs * 100.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_techniques_approach_the_papers_sixty_percent() {
        let base = baseline_cell();
        let all = all_techniques_cell();
        assert_eq!(base.fetched, 43);
        assert!(all.fetched < base.fetched);
        let fraction = all.secs / base.secs;
        assert!(
            (0.35..=0.80).contains(&fraction),
            "paper: ~60% of the HTTP/1.0 download time; got {:.0}%",
            fraction * 100.0
        );
        assert!(all.bytes < base.bytes);
        assert!(all.packets() < base.packets());
    }
}
