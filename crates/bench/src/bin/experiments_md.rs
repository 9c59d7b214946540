//! Generate `EXPERIMENTS.md`: run every reproduced experiment and record
//! paper-published versus measured values side by side.
//!
//! ```text
//! cargo run --release -p httpipe-bench --bin experiments_md > EXPERIMENTS.md
//! ```

use httpipe_core::digest;
use httpipe_core::env::NetEnv;
use httpipe_core::experiments::{
    ablations, browsers, cc, closemgmt, compression, content, mux, nagle, probe, protocol_matrix,
    ranges, robustness, scale, summary, telemetry, verbosity,
};
use httpipe_core::harness::ProtocolSetup;
use httpipe_core::result::CellResult;
use httpserver::ServerKind;

/// Paper values for one protocol row of Tables 4–9:
/// (FT Pa, FT Bytes, FT Sec, CV Pa, CV Bytes, CV Sec).
type PaperRow = (f64, f64, f64, f64, f64, f64);

fn paper_matrix(env: NetEnv, server: ServerKind) -> Vec<(ProtocolSetup, PaperRow)> {
    use ProtocolSetup::*;
    match (env, server) {
        (NetEnv::Lan, ServerKind::Jigsaw) => vec![
            (Http10, (510.2, 216_289.0, 0.97, 374.8, 61_117.0, 0.78)),
            (Http11, (281.0, 191_843.0, 1.25, 133.4, 17_694.0, 0.89)),
            (
                Http11Pipelined,
                (181.8, 191_551.0, 0.68, 32.8, 17_694.0, 0.54),
            ),
            (
                Http11PipelinedDeflate,
                (148.8, 159_654.0, 0.71, 32.6, 17_687.0, 0.54),
            ),
        ],
        (NetEnv::Lan, ServerKind::Apache) => vec![
            (Http10, (489.4, 215_536.0, 0.72, 365.4, 60_605.0, 0.41)),
            (Http11, (244.2, 189_023.0, 0.81, 98.4, 14_009.0, 0.40)),
            (
                Http11Pipelined,
                (175.8, 189_607.0, 0.49, 29.2, 14_009.0, 0.23),
            ),
            (
                Http11PipelinedDeflate,
                (139.8, 156_834.0, 0.41, 28.4, 14_002.0, 0.23),
            ),
        ],
        (NetEnv::Wan, ServerKind::Jigsaw) => vec![
            (Http10, (565.8, 251_913.0, 4.17, 389.2, 62_348.0, 2.96)),
            (Http11, (304.0, 193_595.0, 6.64, 137.0, 18_065.6, 4.95)),
            (
                Http11Pipelined,
                (214.2, 193_887.0, 2.33, 34.8, 18_233.2, 1.10),
            ),
            (
                Http11PipelinedDeflate,
                (183.2, 161_698.0, 2.09, 35.4, 19_102.2, 1.15),
            ),
        ],
        (NetEnv::Wan, ServerKind::Apache) => vec![
            (Http10, (559.6, 248_655.2, 4.09, 370.0, 61_887.0, 2.64)),
            (Http11, (309.4, 191_436.0, 6.14, 104.2, 14_255.0, 4.43)),
            (
                Http11Pipelined,
                (221.4, 191_180.6, 2.23, 29.8, 15_352.0, 0.86),
            ),
            (
                Http11PipelinedDeflate,
                (182.0, 159_170.0, 2.11, 29.0, 15_088.0, 0.83),
            ),
        ],
        (NetEnv::Ppp, ServerKind::Jigsaw) => vec![
            (Http11, (309.6, 190_687.0, 63.8, 89.2, 17_528.0, 12.9)),
            (
                Http11Pipelined,
                (284.4, 190_735.0, 53.3, 31.0, 17_598.0, 5.4),
            ),
            (
                Http11PipelinedDeflate,
                (234.2, 159_449.0, 47.4, 31.0, 17_591.0, 5.4),
            ),
        ],
        (NetEnv::Ppp, ServerKind::Apache) => vec![
            (Http11, (308.6, 187_869.0, 65.6, 89.0, 13_843.0, 11.1)),
            (
                Http11Pipelined,
                (281.4, 187_918.0, 53.4, 26.0, 13_912.0, 3.4),
            ),
            (
                Http11PipelinedDeflate,
                (233.0, 157_214.0, 47.2, 26.0, 13_905.0, 3.4),
            ),
        ],
    }
}

fn row(label: &str, paper: &[String], measured: &[String]) -> String {
    format!(
        "| {} | {} | {} |\n",
        label,
        paper.join(" / "),
        measured.join(" / ")
    )
}

fn fmt_cell_triplet(pa: f64, bytes: f64, secs: f64) -> Vec<String> {
    vec![
        format!("{pa:.0}"),
        format!("{bytes:.0}"),
        format!("{secs:.2}"),
    ]
}

fn fmt_measured(c: &CellResult) -> Vec<String> {
    vec![
        format!("{}", c.packets()),
        format!("{}", c.bytes),
        format!("{:.2}", c.secs),
    ]
}

fn main() {
    let mut out = String::new();
    out.push_str(
        "# EXPERIMENTS — paper vs measured\n\n\
         Every table and figure of *Network Performance Effects of HTTP/1.1, CSS1,\n\
         and PNG* (SIGCOMM '97), reproduced by deterministic simulation. Regenerate\n\
         any entry with `cargo run --release -p httpipe-bench --bin repro -- <id>`;\n\
         regenerate this file with `... --bin experiments_md > EXPERIMENTS.md`.\n\n\
         The goal is *shape*, not absolute equality: orderings, crossovers and\n\
         rough factors. The paper measured real 1997 hosts over the live Internet\n\
         (5-run averages, hence fractional packets); we measure one deterministic\n\
         run of a simulated TCP whose mechanics — connection setup/teardown, slow\n\
         start, delayed ACKs, Nagle, buffering, service times — are the quantities\n\
         that drive the published numbers.\n\n",
    );

    // ---- Table 3 ----------------------------------------------------
    out.push_str("## Table 3 — initial (untuned) LAN revalidation, Jigsaw (`repro table3`)\n\n");
    out.push_str("| Row | Paper (sockets / packets / secs) | Measured |\n|---|---|---|\n");
    let paper3: [(&str, (u64, u64, f64)); 3] = [
        ("HTTP/1.0", (40, 497, 1.85)),
        ("HTTP/1.1 persistent", (1, 223, 4.13)),
        ("HTTP/1.1 pipelined (untuned)", (1, 83, 3.02)),
    ];
    for (rowdata, (label, (socks, pkts, secs))) in
        protocol_matrix::table3_cells().iter().zip(paper3)
    {
        out.push_str(&row(
            label,
            &[socks.to_string(), pkts.to_string(), format!("{secs:.2}")],
            &[
                rowdata.cell.sockets_used.to_string(),
                rowdata.cell.packets().to_string(),
                format!("{:.2}", rowdata.cell.secs),
            ],
        ));
    }
    out.push_str(
        "\nShape reproduced: dramatic packet savings from persistence and again from\n\
         pipelining, while *elapsed time* inverts — the serialized client and the\n\
         untuned pipeline (1 s flush timer, disk-backed cache) lose to HTTP/1.0.\n\
         Our persistent row shows fewer packets than the paper's 223 because our\n\
         initial server already buffers each response into one segment.\n\n",
    );

    // ---- Tables 4-9 --------------------------------------------------
    for env in [NetEnv::Lan, NetEnv::Wan, NetEnv::Ppp] {
        for server in [ServerKind::Jigsaw, ServerKind::Apache] {
            let n = protocol_matrix::table_number(env, server);
            let sname = match server {
                ServerKind::Jigsaw => "Jigsaw",
                ServerKind::Apache => "Apache",
            };
            out.push_str(&format!(
                "## Table {n} — {sname}, {} (`repro table{n}`)\n\n",
                env.channel()
            ));
            let paper = paper_matrix(env, server);
            let cells = protocol_matrix::matrix_cells(env, server);
            assert_eq!(paper.len(), cells.len());
            out.push_str("### First-time retrieval (Pa / Bytes / Sec)\n\n");
            out.push_str("| Protocol | Paper | Measured |\n|---|---|---|\n");
            for ((setup, (fpa, fby, fse, _, _, _)), (label, first, _)) in
                paper.iter().zip(cells.iter())
            {
                assert_eq!(setup.label(), *label);
                out.push_str(&row(
                    setup.label(),
                    &fmt_cell_triplet(*fpa, *fby, *fse),
                    &fmt_measured(first),
                ));
            }
            out.push_str("\n### Cache validation (Pa / Bytes / Sec)\n\n");
            out.push_str("| Protocol | Paper | Measured |\n|---|---|---|\n");
            for ((setup, (_, _, _, cpa, cby, cse)), (_, _, reval)) in paper.iter().zip(cells.iter())
            {
                out.push_str(&row(
                    setup.label(),
                    &fmt_cell_triplet(*cpa, *cby, *cse),
                    &fmt_measured(reval),
                ));
            }
            out.push('\n');
        }
    }

    // ---- Tables 10/11 ------------------------------------------------
    for server in [ServerKind::Jigsaw, ServerKind::Apache] {
        let (n, sname, paper): (u8, &str, [(&str, PaperRow); 2]) = match server {
            ServerKind::Jigsaw => (
                10,
                "Jigsaw",
                [
                    (
                        "Netscape Navigator",
                        (339.4, 201_807.0, 58.8, 108.0, 19_282.0, 14.9),
                    ),
                    (
                        "Internet Explorer",
                        (360.3, 199_934.0, 63.0, 301.0, 61_009.0, 17.0),
                    ),
                ],
            ),
            ServerKind::Apache => (
                11,
                "Apache",
                [
                    (
                        "Netscape Navigator",
                        (334.3, 199_243.0, 58.7, 103.3, 23_741.0, 5.9),
                    ),
                    (
                        "Internet Explorer",
                        (381.3, 204_219.0, 60.6, 117.0, 23_056.0, 8.3),
                    ),
                ],
            ),
        };
        out.push_str(&format!(
            "## Table {n} — {sname}, browsers over PPP (`repro table{n}`)\n\n"
        ));
        out.push_str("| Browser / scenario | Paper | Measured |\n|---|---|---|\n");
        let cells = browsers::browser_cells(server);
        for ((b, first, reval), (label, p)) in cells.iter().zip(paper.iter()) {
            let _ = b;
            out.push_str(&row(
                &format!("{label} — first time"),
                &fmt_cell_triplet(p.0, p.1, p.2),
                &fmt_measured(first),
            ));
            out.push_str(&row(
                &format!("{label} — revalidation"),
                &fmt_cell_triplet(p.3, p.4, p.5),
                &fmt_measured(reval),
            ));
        }
        if n == 10 {
            out.push_str(
                "\nNot reproduced: the paper's Table 10 IE-vs-Jigsaw revalidation anomaly\n\
                 (301 packets / 61 009 bytes) came from an IE/Jigsaw validator\n\
                 incompatibility that re-transferred the images; we model IE's common\n\
                 behaviour (unconditional page GET + conditional image GETs), which is\n\
                 what its Apache row shows.\n",
            );
        }
        out.push('\n');
    }

    // ---- Modem compression -------------------------------------------
    out.push_str("## §8.2.1 — deflate vs V.42bis modem compression (`repro modem`)\n\n");
    out.push_str("| Case | Paper (Pa / Sec, Apache) | Measured |\n|---|---|---|\n");
    let (plain, deflated) = compression::modem_cells(ServerKind::Apache);
    out.push_str(&row(
        "Uncompressed HTML",
        &["67".into(), "12.13".into()],
        &[plain.packets().to_string(), format!("{:.2}", plain.secs)],
    ));
    out.push_str(&row(
        "Compressed HTML",
        &["21".into(), "4.43".into()],
        &[
            deflated.packets().to_string(),
            format!("{:.2}", deflated.secs),
        ],
    ));
    out.push_str(&row(
        "Saved",
        &["68.7%".into(), "64.5%".into()],
        &[
            format!(
                "{:.1}%",
                (1.0 - deflated.packets() as f64 / plain.packets() as f64) * 100.0
            ),
            format!("{:.1}%", (1.0 - deflated.secs / plain.secs) * 100.0),
        ],
    ));

    // ---- Deflate study -----------------------------------------------
    let d = compression::html_deflate_study();
    out.push_str("\n## HTML transport compression (`repro deflate`)\n\n");
    out.push_str("| Quantity | Paper | Measured |\n|---|---|---|\n");
    out.push_str(&row(
        "HTML compression",
        &["42K -> 11K (>3x)".into()],
        &[format!(
            "{} -> {} ({:.1}x)",
            d.html_bytes,
            d.deflated_bytes,
            d.html_bytes as f64 / d.deflated_bytes as f64
        )],
    ));
    out.push_str(&row(
        "Share of total payload",
        &["~19%".into()],
        &[format!("{:.1}%", d.payload_saving_pct)],
    ));
    out.push_str(&row(
        "Tag-case ratios (lower vs mixed)",
        &[".27 vs .35".into()],
        &[format!("{:.2} vs {:.2}", d.ratio_lowercase, d.ratio_mixed)],
    ));

    // ---- Figure 1 + CSS -----------------------------------------------
    let f = content::figure1();
    out.push_str("\n## Figure 1 + CSS analysis (`repro figure1 css`)\n\n");
    out.push_str("| Quantity | Paper | Measured |\n|---|---|---|\n");
    out.push_str(&row(
        "'solutions' GIF vs HTML+CSS",
        &["682 B vs ~150 B (>4x)".into()],
        &[format!(
            "{} B vs {} B ({:.1}x)",
            f.gif_bytes,
            f.replacement_bytes,
            f.gif_bytes as f64 / f.replacement_bytes as f64
        )],
    ));
    let site = webcontent::microscape::site();
    let analysis = site.css_analysis();
    out.push_str(&row(
        "Replaceable images / requests saved",
        &["'many' of 40".into()],
        &[format!(
            "{} of 42, {} bytes net",
            analysis.replaced_count(),
            analysis.bytes_saved()
        )],
    ));
    let (orig, conv) = content::css_browse_cells(true);
    out.push_str(&row(
        "End-to-end browse, PPP pipelined (Pa/Sec)",
        &["(not measured end-to-end in the paper)".into()],
        &[format!(
            "{}/{:.1}s -> {}/{:.1}s",
            orig.packets(),
            orig.secs,
            conv.packets(),
            conv.secs
        )],
    ));

    // ---- PNG/MNG ------------------------------------------------------
    let r = content::conversion_report();
    out.push_str("\n## GIF→PNG / GIF→MNG (`repro png`)\n\n");
    out.push_str("| Quantity | Paper | Measured |\n|---|---|---|\n");
    out.push_str(&row(
        "40 static GIFs -> PNG",
        &["103,299 -> 92,096 B (-11%)".into()],
        &[format!(
            "{} -> {} B ({:+.1}%)",
            r.static_gif_bytes,
            r.static_png_bytes,
            (r.static_png_bytes as f64 / r.static_gif_bytes as f64 - 1.0) * 100.0
        )],
    ));
    out.push_str(&row(
        "2 animations -> MNG",
        &["24,988 -> 16,329 B (-35%)".into()],
        &[format!(
            "{} -> {} B ({:+.1}%)",
            r.anim_gif_bytes,
            r.anim_mng_bytes,
            (r.anim_mng_bytes as f64 / r.anim_gif_bytes as f64 - 1.0) * 100.0
        )],
    ));
    out.push_str(&row(
        "Tiny images grow under PNG",
        &["'sub-200 byte category' grows".into()],
        &[format!("{} images grew", r.grew)],
    ));

    // ---- Nagle / close -------------------------------------------------
    out.push_str("\n## Nagle interaction (`repro nagle`)\n\n");
    out.push_str("| Case (Jigsaw, LAN revalidation) | Measured Pa / Sec |\n|---|---|\n");
    for (case, cell) in nagle::nagle_cells(NetEnv::Lan) {
        out.push_str(&format!(
            "| {} | {} / {:.3}s |\n",
            case.label(),
            cell.packets(),
            cell.secs
        ));
    }
    out.push_str(
        "\nPaper: the two buffering algorithms \"tend to interfere, and using them\n\
         together will often cause very significant performance degradation\" —\n\
         the buffered/Nagle-on row shows the ~200 ms delayed-ACK stall, and the\n\
         recommendation (TCP_NODELAY for buffered implementations) removes it.\n\
         The per-request rows show the flip side: Nagle exists precisely to\n\
         coalesce small writes, which is why the paper's *initial* tests saw no\n\
         problem until buffering strategies changed.\n",
    );

    out.push_str("\n## Connection management (`repro closerst`)\n\n");
    let (unlimited, graceful, naive) = closemgmt::close_study(NetEnv::Ppp, 5);
    out.push_str(
        "| Server behaviour | Pa | Sec | Conns | Retries | RSTs |\n|---|---|---|---|---|---|\n",
    );
    for (label, c) in [
        ("No request limit", &unlimited),
        ("Limit 5, independent half-close", &graceful.cell),
        ("Limit 5, naive close", &naive.cell),
    ] {
        out.push_str(&format!(
            "| {} | {} | {:.1} | {} | {} | {} |\n",
            label,
            c.packets(),
            c.secs,
            c.sockets_used,
            c.retries,
            c.resets
        ));
    }

    // ---- Ranges ----------------------------------------------------------
    out.push_str("\n## Poor man's multiplexing (`repro ranges`)\n\n");
    out.push_str(
        "The paper's §\"Range Requests and Validation\" idiom, exercised on a\n\
         *revised* site (every validator misses):\n\n",
    );
    out.push_str(
        "| Idiom (PPP, pipelined) | Pa | Bytes | Sec | Body bytes |\n|---|---|---|---|---|\n",
    );
    for idiom in [
        ranges::RevisitIdiom::FullOnChange,
        ranges::RevisitIdiom::RangeMetadata,
    ] {
        let c = ranges::run_revisit_cell(NetEnv::Ppp, idiom);
        out.push_str(&format!(
            "| {} | {} | {} | {:.1} | {} |\n",
            idiom.label(),
            c.packets(),
            c.bytes,
            c.secs,
            c.body_bytes
        ));
    }

    // ---- Verbosity --------------------------------------------------------
    out.push_str("\n## Request verbosity (`repro verbosity`)\n\n");
    out.push_str(
        "The future-work back-of-envelope: \"the actual number of bytes that\n\
         changes between requests can be as small as 10%\", suggesting 5-10x\n\
         headroom for a compact HTTP encoding.\n\n",
    );
    out.push_str(
        "| Profile | Total B | Changed | Deflated | Compaction |\n|---|---|---|---|---|\n",
    );
    for (label, style) in [
        ("libwww robot", httpclient::RequestStyle::Robot),
        ("Navigator", httpclient::RequestStyle::Navigator),
        ("MSIE", httpclient::RequestStyle::Explorer),
    ] {
        let s = verbosity::revalidation_request_study(style);
        out.push_str(&format!(
            "| {} | {} | {:.0}% | {} | {:.1}x |\n",
            label,
            s.total_bytes,
            s.change_fraction() * 100.0,
            s.deflated_bytes,
            s.compaction_factor()
        ));
    }

    // ---- Ablations --------------------------------------------------------
    out.push_str("\n## Design-choice ablations (`repro ablations`)\n\n");
    out.push_str("```\n");
    for t in ablations::ablation_tables() {
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str("```\n");

    // ---- Summary --------------------------------------------------------
    let base = summary::baseline_cell();
    let all = summary::all_techniques_cell();
    out.push_str("\n## Back of the envelope (`repro summary`)\n\n");
    out.push_str("| Configuration | Paper | Measured |\n|---|---|---|\n");
    out.push_str(&row(
        "All techniques vs HTTP/1.0, modem download time",
        &["~60%".into()],
        &[format!("{:.0}%", all.secs / base.secs * 100.0)],
    ));

    // ---- Robustness under loss and jitter --------------------------------
    out.push_str("\n## Robustness under packet loss and jitter (`repro robustness`)\n\n");
    out.push_str(
        "Beyond the paper: the same protocol matrix (Apache) rerun over impaired\n\
         links — seeded-deterministic Bernoulli and Gilbert–Elliott (burst) loss\n\
         at 0.5/2/5%, plus a jitter/reordering study. `Infl%` is elapsed-time\n\
         inflation over the zero-loss row of the same protocol. The shape to\n\
         notice: pipelining concentrates the page on one TCP connection, so each\n\
         lost packet stalls *everything* behind it (head-of-line blocking) and\n\
         costs more inflation per drop than HTTP/1.0's four parallel connections\n\
         — yet at moderate loss rates pipelining still wins outright, because it\n\
         has far fewer packets to lose and no per-object handshake tax.\n\n",
    );
    out.push_str("```\n");
    let rob_cells = robustness::run_points(&robustness::full_grid());
    for t in robustness::report(&rob_cells) {
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(&robustness::jitter_table(&robustness::jitter_study()).render());
    out.push_str("```\n");
    out.push_str(&format!(
        "\nReport digest of the full grid above (the reduced grid's is pinned by\n\
         `gate`'s `robustness` entry): `{:#018x}`.\n",
        robustness::report_digest(&rob_cells)
    ));

    // ---- Many-client scale -----------------------------------------------
    out.push_str("\n## Many-client scale (`repro scale`)\n\n");
    out.push_str(
        "Beyond the paper: the argument for HTTP/1.1 was always *server*\n\
         scalability, but the paper measures one robot on a private link. Here\n\
         N robots share one bottleneck against one Apache (64-deep listen\n\
         queue, bounded link buffer), every client fetching the site first\n\
         time. Columns: per-client elapsed-time percentiles, Jain's fairness\n\
         index over per-client times, the server's peak simultaneous\n\
         connection count, SYNs dropped at the listen queue, and aggregate\n\
         packets/retransmissions. The shape to notice: HTTP/1.0×4's peak\n\
         connection count scales ~4N while persistent and pipelined hold ~N,\n\
         so pipelining carries 256 clients with several times less server\n\
         state — and the 256-client SYN burst is the only place the listen\n\
         queue overflows.\n\n",
    );
    out.push_str("```\n");
    let scale_cells = scale::run_points(&scale::full_grid());
    for t in scale::report(&scale_cells) {
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str("```\n");
    out.push_str(&format!(
        "\nReport digest of the full grid above (the reduced grid's is pinned by\n\
         `gate`'s `scale` entry): `{:#018x}`.\n",
        scale::report_digest(&scale_cells)
    ));

    // ---- Where the time goes ---------------------------------------------
    out.push_str("\n## Where the time goes (`diagnose`)\n\n");
    out.push_str(
        "Beyond the paper: the elapsed-time columns above, decomposed by cause.\n\
         The paper explained its timings by hand from tcpdump output; the\n\
         `netsim::probe` flight recorder automates that analysis, attributing\n\
         every wall-clock nanosecond of a run to exactly one of nine causes —\n\
         connection setup, slow-start/RTT waits, Nagle holds, delayed-ACK\n\
         waits, RTO recovery, receiver-window backpressure, server think time,\n\
         wire serialization, or idle — so the buckets sum to the elapsed time\n\
         (`Sum` = `Sec` on every row). The shape to notice: the WAN rows are\n\
         dominated by connection setup + slow start (exactly the paper's case\n\
         for persistence and pipelining), while PPP is wire-serialization\n\
         bound, which is why compression is the only lever that helps there.\n\
         The PPP HTTP/1.0 row also books real RTO time: four parallel\n\
         connections push the modem's queueing delay past the 3 s initial\n\
         RTO, a spurious-retransmission regime the single-connection setups\n\
         never enter (one more reason the paper dropped that row).\n\
         Full per-request timelines and machine-readable `PROBE_*.json`\n\
         documents come from `cargo run --release -p httpipe-bench --bin\n\
         diagnose`.\n\n",
    );
    out.push_str("```\n");
    let probe_cells = probe::run_points(&probe::canonical_grid());
    out.push_str(&probe::report(&probe_cells).render());
    out.push_str("```\n");
    out.push_str(&format!(
        "\nReport digest of the full grid above (the reduced grid's is pinned by\n\
         `gate`'s `probe` entry): `{:#018x}`.\n",
        probe::report_digest(&probe_cells)
    ));

    // ---- Multiplexing and server push ------------------------------------
    out.push_str("\n## Multiplexing and server push (`repro mux`)\n\n");
    out.push_str(
        "Beyond the paper, twenty years forward: a binary-framed multiplexed\n\
         transport (HEADERS / DATA / SETTINGS / WINDOW_UPDATE / RST_STREAM /\n\
         PUSH_PROMISE over one connection, HTTP/2-style but simplified — see\n\
         DESIGN.md) joins HTTP/1.0\u{d7}4, persistent and pipelined as a fourth\n\
         setup, with an optional server push policy (inline images and CSS\n\
         discovered in served HTML are pushed alongside it). `FT`/`CV`\n\
         columns are the first-time and cache-validation scenarios; `PushB`\n\
         is pushed payload bytes. The shapes to notice: on the unimpaired\n\
         matrix mux tracks pipelining closely (framing overhead is noise)\n\
         and push pays only on first-time retrieval, where it collapses the\n\
         HTML-parse discovery round trip; under loss the single multiplexed\n\
         connection shares fate — every stream stalls behind each drop, so\n\
         its elapsed-time inflation exceeds HTTP/1.0\u{d7}4's at 2%+ loss in\n\
         the shared-fate tables (the SPDY-era finding, and the gated\n\
         `shared_fate_mux_degrades_more_than_parallel_connections` test);\n\
         and in fleets one connection per client holds server state at ~N\n\
         while matching pipelining's aggregate packet economy.\n\n",
    );
    out.push_str("```\n");
    for env in [NetEnv::Lan, NetEnv::Wan, NetEnv::Ppp] {
        for server in [ServerKind::Jigsaw, ServerKind::Apache] {
            out.push_str(&mux::matrix_table(env, server).render());
            out.push('\n');
        }
    }
    let mux_loss = robustness::run_points(&mux::loss_grid());
    for t in robustness::report(&mux_loss) {
        out.push_str(&t.render());
        out.push('\n');
    }
    for env in [NetEnv::Lan, NetEnv::Wan, NetEnv::Ppp] {
        out.push_str(&mux::shared_fate_table(&mux_loss, env).render());
        out.push('\n');
    }
    let mux_fleets = scale::run_points(&mux::fleet_grid());
    for t in scale::report(&mux_fleets) {
        out.push_str(&t.render());
        out.push('\n');
    }
    let mux_probes = probe::run_points(&mux::probe_grid());
    out.push_str(&probe::report(&mux_probes).render());
    out.push_str("```\n");
    let mux_reduced = mux::reduced_report();
    out.push_str(&format!(
        "\nReport digest of the reduced mux report (pinned by `gate`'s `mux`\n\
         entry): `{:#018x}`.\n",
        digest::tables(&mux_reduced)
    ));

    // ---- Congestion-control sensitivity ----------------------------------
    out.push_str("\n## Recovery matters (`repro cc`)\n\n");
    out.push_str(
        "Beyond the paper: every loss number above was measured under exactly\n\
         one loss-recovery algorithm \u{2014} the Reno-style slow start + fast\n\
         retransmit of 1997 stacks. Here the WAN first-time loss grid reruns\n\
         under four pluggable `CongestionControl` variants on both endpoints:\n\
         Reno (RFC 5681, bit-identical to the seed and digest-gated), NewReno\n\
         (RFC 6582 partial-ACK recovery with window inflation), SACK\n\
         (RFC 2018/6675 scoreboard \u{2014} holes only, never data the peer\n\
         already holds) and a CUBIC-shaped grower on integer sim-time\n\
         (RFC 8312, \u{3b2} = 0.7). Every variant at a coordinate faces the\n\
         identical impairment draw sequence, so differences are recovery\n\
         behavior, not luck. The shape to notice: recovery sophistication\n\
         pays precisely where the paper's preferred transport concentrates\n\
         traffic \u{2014} on HTTP/1.0's four short parallel connections the\n\
         fast-retransmit variants are indistinguishable, while on the single\n\
         pipelined connection NewReno/SACK cut Reno's inflation from +355%\n\
         to +211% at 2% loss and to a quarter at 5% (the `cc_gate`\n\
         ordering) by filling holes on partial ACKs\n\
         instead of stalling into retransmission timeouts \u{2014} the probe\n\
         decomposition below books the difference almost entirely against\n\
         the `RTO` bucket.\n\n",
    );
    out.push_str("```\n");
    let cc_cells = robustness::run_points(&cc::full_grid());
    out.push_str(&cc::recovery_table(&cc_cells).render());
    out.push('\n');
    out.push_str(&cc::probe_table(&cc::probe_rows()).render());
    out.push_str("```\n");
    out.push_str(&format!(
        "\nReport digest of the reduced grid (pinned by `gate`'s `cc` entry):\n\
         `{:#018x}`.\n",
        digest::tables(&cc::report(&robustness::run_points(&cc::reduced_grid())))
    ));

    // ---- Fleet observatory -----------------------------------------------
    out.push_str("\n## Fleet observatory (`telemetry`)\n\n");
    out.push_str(
        "Beyond the paper: the tables above are endpoints \u{2014} one number per\n\
         run. The telemetry subsystem records how those numbers came to be:\n\
         per-connection cwnd/ssthresh/flight/RTO, per-link-direction queue\n\
         depth and drops by reason, and server accept/backlog/memory gauges,\n\
         all sampled on 10 ms sim-time ticks into deterministic integer\n\
         series (zero overhead and bit-identical results when disabled \u{2014}\n\
         differential-tested). Timelines are rendered below as sparklines,\n\
         each column one slice of the run. The first scene replays the scale\n\
         family's listen-backlog overflow: 256 HTTP/1.0 clients connect at\n\
         once, the accept curve saturates, SYN drops burst, the bottleneck\n\
         queue drains. The second replays the congestion-control story: the\n\
         same 2%-loss WAN pipelined cell per variant, where Reno's cwnd\n\
         collapses into RTO stalls that NewReno/SACK ride through. The same\n\
         runs export pcapng (`--bin telemetry` writes `TELEMETRY_*.json/csv/\n\
         pcapng`), so any simulated connection opens in Wireshark/tcptrace\n\
         with real checksums, RFC 2018 SACK options and nanosecond\n\
         timestamps.\n\n",
    );
    out.push_str("```\n");
    out.push_str(&telemetry::report(256));
    out.push('\n');
    out.push_str(&telemetry::volume_table().render());
    out.push_str("```\n");
    out.push_str(
        "\n`gate`'s `telemetry` entry renders the reduced scene twice and\n\
         byte-compares JSON/CSV/pcapng across passes and against the goldens\n\
         committed under `crates/bench/goldens/telemetry/`.\n",
    );

    // ---- Simulator speed ---------------------------------------------------
    // A pointer, not numbers: wall-clock figures vary run to run, and
    // regenerating this file must leave it byte-identical on an unchanged
    // tree.
    out.push_str(
        "\n## Simulator speed (`benchmark/`)\n\n\
         Beyond the paper: how fast the simulator that produced every number\n\
         above runs is recorded by the performance ledger, not here. Its\n\
         workloads, metrics (simulated packets per second, allocations per\n\
         packet, per-layer costs) and the measured baseline are in\n\
         `benchmark/README.md`; `benchmark/run.sh` re-measures them. The\n\
         deterministic half \u{2014} the digests quoted above, plus the matrix\n\
         and 16-client-fleet digests and their allocations-per-packet\n\
         ceilings \u{2014} is pinned in `httpipe_core::gate` and checked by\n\
         `cargo run --release -p httpipe-bench --bin gate`.\n",
    );

    print!("{out}");
}
