//! Tables 10–11: shipping browsers (Netscape Navigator 4 and Microsoft
//! Internet Explorer 4 betas) over the PPP link against both servers.
//!
//! The browsers are HTTP/1.0 clients with four parallel Keep-Alive
//! connections and much more verbose request headers than the robot.
//! Their revalidation behaviour differs: Navigator conditionally GETs
//! everything with `If-Modified-Since`; IE re-fetches the page body
//! unconditionally and conditions only the images (the paper's Table 10
//! additionally caught an IE/Jigsaw interaction that re-transferred the
//! images too — see EXPERIMENTS.md for why we reproduce only the common
//! behaviour).

use super::{paper, row, triplet};
use crate::env::NetEnv;
use crate::harness::{microscape_store, primed_cache, run_cells, run_spec, CellSpec};
use crate::result::CellResult;
use httpclient::{
    ClientCache, ClientConfig, ProtocolMode, RequestStyle, RevalidationStyle, Workload,
};
use httpserver::{ServerConfig, ServerKind};
use netsim::{HostId, SockAddr, TraceMode};

/// The browser under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Browser {
    /// Netscape Navigator 4.0b5.
    Navigator,
    /// Microsoft Internet Explorer 4.0b1.
    Explorer,
}

impl Browser {
    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            Browser::Navigator => "Netscape Navigator",
            Browser::Explorer => "Internet Explorer",
        }
    }

    fn style(self) -> RequestStyle {
        match self {
            Browser::Navigator => RequestStyle::Navigator,
            Browser::Explorer => RequestStyle::Explorer,
        }
    }

    fn revalidation(self) -> RevalidationStyle {
        // Both browsers use If-Modified-Since conditionals against a
        // well-behaved server (Tables 10/11's Apache rows). The paper's
        // IE-vs-Jigsaw anomaly (full re-transfers from a validator
        // incompatibility) is intentionally not modelled; see
        // EXPERIMENTS.md. `ConditionalGetDateFullHtml` remains available
        // on the client for studying that behaviour.
        RevalidationStyle::ConditionalGetDate
    }
}

/// Build the browser client spec for one scenario.
fn browser_spec(browser: Browser, server_kind: ServerKind, first_time: bool) -> CellSpec {
    let site = webcontent::microscape::site();
    let store = microscape_store(site);
    let server = match server_kind {
        ServerKind::Jigsaw => ServerConfig::jigsaw(80),
        ServerKind::Apache => ServerConfig::apache(80),
    };
    let addr = SockAddr::new(HostId(1), 80);
    let client = ClientConfig::robot(ProtocolMode::Http10Parallel { max_connections: 4 }, addr)
        .with_style(browser.style());

    let (workload, cache) = if first_time {
        (
            Workload::Browse {
                start: site.html_path().into(),
            },
            ClientCache::new(),
        )
    } else {
        (
            Workload::Revalidate {
                start: site.html_path().into(),
                style: browser.revalidation(),
            },
            primed_cache(site),
        )
    };

    CellSpec {
        env: NetEnv::Ppp,
        server,
        store,
        client,
        workload,
        cache,
        link_codec: None,
        impair: None,
        tcp: None,
        trace_mode: TraceMode::StatsOnly,
        probe: false,
        telemetry: false,
    }
}

/// Run one browser cell.
pub fn run_browser_cell(browser: Browser, server: ServerKind, first_time: bool) -> CellResult {
    run_spec(browser_spec(browser, server, first_time)).cell
}

/// All cells of Table 10 (Jigsaw) or Table 11 (Apache), run in parallel.
pub fn browser_cells(server: ServerKind) -> Vec<(Browser, CellResult, CellResult)> {
    let browsers = [Browser::Navigator, Browser::Explorer];
    let specs = browsers
        .into_iter()
        .flat_map(|b| {
            [
                browser_spec(b, server, true),
                browser_spec(b, server, false),
            ]
        })
        .collect();
    let cells = run_cells(specs);
    browsers
        .into_iter()
        .zip(cells.chunks_exact(2))
        .map(|(b, pair)| (b, pair[0], pair[1]))
        .collect()
}

/// The Table 10 (Jigsaw) or Table 11 (Apache) section of EXPERIMENTS.md.
pub(crate) fn section(server: ServerKind) -> String {
    let n = if server == ServerKind::Jigsaw { 10 } else { 11 };
    let mut out = format!(
        "## Table {n} — {server:?}, browsers over PPP (`repro table{n}`)\n\n\
         | Browser / scenario | Paper | Measured |\n|---|---|---|\n"
    );
    for (b, first, reval) in browser_cells(server) {
        for (what, scenario, cell) in [
            ("first time", "FirstTime", first),
            ("revalidation", "Revalidate", reval),
        ] {
            let paper = paper::find(&format!("table{n}"), &format!("{b:?}"), scenario);
            out += &row(
                &format!("{} — {what}", b.label()),
                &paper.triplet(),
                &triplet(&cell),
            );
        }
    }
    if server == ServerKind::Jigsaw {
        out += "\nNot reproduced: the paper's Table 10 IE-vs-Jigsaw revalidation anomaly\n\
                (301 packets / 61 009 bytes) came from an IE/Jigsaw validator\n\
                incompatibility that re-transferred the images; we model IE's common\n\
                behaviour (unconditional page GET + conditional image GETs), which is\n\
                what its Apache row shows.\n";
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn browsers_complete_first_time_fetch() {
        for b in [Browser::Navigator, Browser::Explorer] {
            let cell = run_browser_cell(b, ServerKind::Apache, true);
            assert_eq!(cell.fetched, 43, "{b:?}");
            assert!(cell.body_bytes > 160_000, "{b:?}");
        }
    }

    #[test]
    fn navigator_revalidation_transfers_no_bodies() {
        let cell = run_browser_cell(Browser::Navigator, ServerKind::Apache, false);
        assert_eq!(cell.fetched, 43);
        assert_eq!(cell.validated, 43);
        assert_eq!(cell.body_bytes, 0);
    }

    #[test]
    fn explorer_revalidates_like_navigator_but_chattier() {
        let ie = run_browser_cell(Browser::Explorer, ServerKind::Apache, false);
        let nav = run_browser_cell(Browser::Navigator, ServerKind::Apache, false);
        assert_eq!(ie.fetched, 43);
        assert_eq!(ie.validated, 43);
        assert!(
            ie.bytes > nav.bytes,
            "IE's headers cost bytes: {} vs {}",
            ie.bytes,
            nav.bytes
        );
    }

    #[test]
    fn explorer_is_chattier_than_navigator() {
        // Table 10/11: IE's verbose headers cost bytes.
        let nav = run_browser_cell(Browser::Navigator, ServerKind::Apache, true);
        let ie = run_browser_cell(Browser::Explorer, ServerKind::Apache, true);
        assert!(
            ie.bytes > nav.bytes,
            "IE ({}) vs Nav ({})",
            ie.bytes,
            nav.bytes
        );
    }

    #[test]
    fn browsers_lose_to_pipelined_robot_on_revalidation() {
        // The paper's implicit comparison: Table 10/11 CV vs Tables 8/9
        // CV pipelined — the browsers use several times the packets.
        let nav = run_browser_cell(Browser::Navigator, ServerKind::Apache, false);
        let robot = crate::harness::run_matrix_cell(
            NetEnv::Ppp,
            ServerKind::Apache,
            crate::harness::ProtocolSetup::Http11Pipelined,
            crate::harness::Scenario::Revalidate,
        );
        assert!(nav.packets() > robot.packets() * 3);
    }
}
