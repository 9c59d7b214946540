//! Integration tests asserting the paper's headline claims end-to-end,
//! across every crate in the workspace: the abstract's numbers, the
//! "Observations on HTTP/1.0 and 1.1 Data" section, and the conclusions.

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::paper::{self, Published};
use httpipe_core::experiments::protocol_matrix;
use httpipe_core::harness::{run_matrix_cell, ProtocolSetup, Scenario};
use httpipe_core::result::CellResult;
use httpserver::ServerKind;

fn cell(env: NetEnv, setup: ProtocolSetup, scenario: Scenario) -> CellResult {
    run_matrix_cell(env, ServerKind::Apache, setup, scenario)
}

#[test]
fn abstract_claim_packet_savings_at_least_2x_everywhere() {
    // "The savings were at least a factor of two, and sometimes as much as
    // a factor of ten, in terms of packets transmitted" — pipelined 1.1
    // vs 1.0-with-parallel-connections, all environments (1.0 not
    // measured on PPP in the paper; we check LAN and WAN).
    for env in [NetEnv::Lan, NetEnv::Wan] {
        for scenario in [Scenario::FirstTime, Scenario::Revalidate] {
            let p10 = cell(env, ProtocolSetup::Http10, scenario);
            let pipe = cell(env, ProtocolSetup::Http11Pipelined, scenario);
            assert!(
                pipe.packets() * 2 <= p10.packets(),
                "{env:?}/{scenario:?}: {} vs {}",
                pipe.packets(),
                p10.packets()
            );
        }
    }
}

#[test]
fn observation_revalidation_under_one_tenth_of_http10_packets() {
    // "our HTTP/1.1 with buffered pipelining implementation uses less
    // than 1/10 of the total number of packets that HTTP/1.0 does" for
    // revisiting a cached page.
    let p10 = cell(NetEnv::Wan, ProtocolSetup::Http10, Scenario::Revalidate);
    let pipe = cell(
        NetEnv::Wan,
        ProtocolSetup::Http11Pipelined,
        Scenario::Revalidate,
    );
    assert!(
        pipe.packets() * 10 <= p10.packets(),
        "pipelined {} vs 1.0 {}",
        pipe.packets(),
        p10.packets()
    );
}

#[test]
fn observation_nonpipelined_http11_loses_elapsed_time() {
    // "An HTTP/1.1 implementation that does not implement pipelining will
    // perform worse (have higher elapsed time) than an HTTP/1.0
    // implementation using multiple connections."
    for env in [NetEnv::Lan, NetEnv::Wan] {
        for scenario in [Scenario::FirstTime, Scenario::Revalidate] {
            let p10 = cell(env, ProtocolSetup::Http10, scenario);
            let pers = cell(env, ProtocolSetup::Http11, scenario);
            assert!(
                pers.secs > p10.secs,
                "{env:?}/{scenario:?}: persistent {:.2}s must exceed 1.0 {:.2}s",
                pers.secs,
                p10.secs
            );
        }
    }
}

#[test]
fn observation_pipelining_beats_http10_elapsed_time() {
    // "HTTP/1.1 implemented with pipelining outperformed HTTP/1.0, even
    // when the HTTP/1.0 implementation uses multiple connections in
    // parallel, under all circumstances tested."
    for env in [NetEnv::Lan, NetEnv::Wan] {
        for scenario in [Scenario::FirstTime, Scenario::Revalidate] {
            let p10 = cell(env, ProtocolSetup::Http10, scenario);
            let pipe = cell(env, ProtocolSetup::Http11Pipelined, scenario);
            assert!(
                pipe.secs < p10.secs,
                "{env:?}/{scenario:?}: pipelined {:.2}s vs 1.0 {:.2}s",
                pipe.secs,
                p10.secs
            );
        }
    }
}

#[test]
fn observation_first_time_bandwidth_saving_is_only_a_few_percent() {
    // "For the first time retrieval test, bandwidth savings due to
    // pipelining and persistent connections of HTTP/1.1 is only a few
    // percent" — the payload dominates.
    let p10 = cell(NetEnv::Lan, ProtocolSetup::Http10, Scenario::FirstTime);
    let pipe = cell(
        NetEnv::Lan,
        ProtocolSetup::Http11Pipelined,
        Scenario::FirstTime,
    );
    let saving = 1.0 - pipe.bytes as f64 / p10.bytes as f64;
    assert!(
        (0.0..0.15).contains(&saving),
        "byte saving should be modest, got {:.1}%",
        saving * 100.0
    );
}

#[test]
fn observation_mean_packet_size_roughly_doubles() {
    // "The mean size of a packet in our traffic roughly doubled."
    let p10 = cell(NetEnv::Lan, ProtocolSetup::Http10, Scenario::FirstTime);
    let pipe = cell(
        NetEnv::Lan,
        ProtocolSetup::Http11Pipelined,
        Scenario::FirstTime,
    );
    let mean10 = p10.bytes as f64 / p10.packets() as f64;
    let mean11 = pipe.bytes as f64 / pipe.packets() as f64;
    assert!(
        mean11 > mean10 * 1.7,
        "mean packet size {mean10:.0} -> {mean11:.0}"
    );
}

#[test]
fn conclusion_compression_gives_largest_first_time_bandwidth_saving() {
    // "The addition of transport compression in HTTP/1.1 provided the
    // largest bandwidth savings" among the studied techniques for the
    // first-time fetch.
    let pipe = cell(
        NetEnv::Ppp,
        ProtocolSetup::Http11Pipelined,
        Scenario::FirstTime,
    );
    let defl = cell(
        NetEnv::Ppp,
        ProtocolSetup::Http11PipelinedDeflate,
        Scenario::FirstTime,
    );
    let saved = pipe.bytes.saturating_sub(defl.bytes);
    // The paper saw ~31KB of HTML savings (~19% of payload).
    assert!(
        saved > 20_000,
        "deflate should save tens of KB, got {saved}"
    );
    // And elapsed time improves markedly on the modem link (paper: 53.3
    // -> 47.4 for Jigsaw; ours compresses HTML only too).
    assert!(defl.secs < pipe.secs);
}

#[test]
fn compression_saves_packets_and_time_on_first_fetch() {
    // Paper summary of the first-time test: "about 16% of the packets
    // and 12% of the elapsed time" saved by compression (PPP numbers are
    // larger). Check direction and rough scale on the LAN.
    let pipe = cell(
        NetEnv::Lan,
        ProtocolSetup::Http11Pipelined,
        Scenario::FirstTime,
    );
    let defl = cell(
        NetEnv::Lan,
        ProtocolSetup::Http11PipelinedDeflate,
        Scenario::FirstTime,
    );
    let pkt_saving = 1.0 - defl.packets() as f64 / pipe.packets() as f64;
    assert!(
        (0.05..0.40).contains(&pkt_saving),
        "packet saving {:.2}",
        pkt_saving
    );
}

#[test]
fn wan_latency_amplifies_http11_wins() {
    // "For the WAN test however, the higher the latency, the better
    // HTTP/1.1 performed": the elapsed-time ratio (1.0 / pipelined) must
    // be larger on the WAN than on the LAN for revalidation.
    let lan10 = cell(NetEnv::Lan, ProtocolSetup::Http10, Scenario::Revalidate);
    let lanp = cell(
        NetEnv::Lan,
        ProtocolSetup::Http11Pipelined,
        Scenario::Revalidate,
    );
    let wan10 = cell(NetEnv::Wan, ProtocolSetup::Http10, Scenario::Revalidate);
    let wanp = cell(
        NetEnv::Wan,
        ProtocolSetup::Http11Pipelined,
        Scenario::Revalidate,
    );
    let lan_ratio = lan10.secs / lanp.secs;
    let wan_ratio = wan10.secs / wanp.secs;
    assert!(
        wan_ratio > lan_ratio,
        "WAN ratio {wan_ratio:.2} should exceed LAN ratio {lan_ratio:.2}"
    );
}

#[test]
fn http10_connection_inventory() {
    // 43 requests = 43 connections; the 1.1 modes use exactly one.
    let p10 = cell(NetEnv::Lan, ProtocolSetup::Http10, Scenario::FirstTime);
    assert_eq!(p10.sockets_used, 43);
    for setup in [ProtocolSetup::Http11, ProtocolSetup::Http11Pipelined] {
        let c = cell(NetEnv::Lan, setup, Scenario::FirstTime);
        assert_eq!(c.sockets_used, 1, "{setup:?}");
    }
}

#[test]
fn overhead_percentages_match_paper_bands() {
    // The %ov column: ~8-10% for 1.0 first-time, ~19-23% for 1.0
    // revalidation, dropping to ~4-8% with pipelining.
    let p10f = cell(NetEnv::Lan, ProtocolSetup::Http10, Scenario::FirstTime);
    assert!(
        (7.0..13.0).contains(&p10f.overhead_pct),
        "1.0 FT %ov {:.1}",
        p10f.overhead_pct
    );
    let p10r = cell(NetEnv::Lan, ProtocolSetup::Http10, Scenario::Revalidate);
    assert!(
        (16.0..28.0).contains(&p10r.overhead_pct),
        "1.0 CV %ov {:.1}",
        p10r.overhead_pct
    );
    let pipef = cell(
        NetEnv::Lan,
        ProtocolSetup::Http11Pipelined,
        Scenario::FirstTime,
    );
    assert!(
        (2.0..7.0).contains(&pipef.overhead_pct),
        "pipelined FT %ov {:.1}",
        pipef.overhead_pct
    );
    let piper = cell(
        NetEnv::Lan,
        ProtocolSetup::Http11Pipelined,
        Scenario::Revalidate,
    );
    assert!(
        (4.0..12.0).contains(&piper.overhead_pct),
        "pipelined CV %ov {:.1}",
        piper.overhead_pct
    );
}

#[test]
fn ppp_first_time_is_bandwidth_bound() {
    // ~190-200KB over 28.8kbps ≈ 53-62s for every 1.1 variant; deflate
    // cuts it into the 40s (paper: 65.6 / 53.4 / 47.2 for Apache).
    let pers = cell(NetEnv::Ppp, ProtocolSetup::Http11, Scenario::FirstTime);
    let pipe = cell(
        NetEnv::Ppp,
        ProtocolSetup::Http11Pipelined,
        Scenario::FirstTime,
    );
    let defl = cell(
        NetEnv::Ppp,
        ProtocolSetup::Http11PipelinedDeflate,
        Scenario::FirstTime,
    );
    assert!(
        (50.0..75.0).contains(&pers.secs),
        "persistent {:.1}",
        pers.secs
    );
    assert!(
        (45.0..60.0).contains(&pipe.secs),
        "pipelined {:.1}",
        pipe.secs
    );
    assert!(
        (35.0..48.0).contains(&defl.secs),
        "deflate {:.1}",
        defl.secs
    );
    assert!(defl.secs < pipe.secs && pipe.secs < pers.secs);
}

#[test]
fn ppp_revalidation_times_match_paper_band() {
    // Paper Apache: 11.1s persistent, 3.4s pipelined.
    let pers = cell(NetEnv::Ppp, ProtocolSetup::Http11, Scenario::Revalidate);
    let pipe = cell(
        NetEnv::Ppp,
        ProtocolSetup::Http11Pipelined,
        Scenario::Revalidate,
    );
    assert!(
        (8.0..16.0).contains(&pers.secs),
        "persistent {:.1}",
        pers.secs
    );
    assert!(
        (2.0..6.0).contains(&pipe.secs),
        "pipelined {:.1}",
        pipe.secs
    );
}

#[test]
fn deterministic_experiments() {
    // Same cell, byte-identical results (the basis of every other test).
    let a = cell(
        NetEnv::Wan,
        ProtocolSetup::Http11Pipelined,
        Scenario::FirstTime,
    );
    let b = cell(
        NetEnv::Wan,
        ProtocolSetup::Http11Pipelined,
        Scenario::FirstTime,
    );
    assert_eq!(a, b);
}

#[test]
fn distance_from_tables_4_to_9_is_pinned() {
    // The ledger's `paper_err_pct` and its three quantities, scored from
    // the workspace's copy of the published numbers.
    let e = protocol_matrix::paper_error();
    assert_eq!(e.cells, 44);
    let pct = |x: f64| format!("{x:.2}");
    assert_eq!(
        [pct(e.packets_pct), pct(e.bytes_pct), pct(e.seconds_pct)],
        ["11.93", "7.54", "25.71"]
    );
    assert_eq!(format!("{:.3}", e.overall_pct()), "15.058");
}

#[test]
fn the_ledger_reference_matches_the_published_tables_4_to_9() {
    // `benchmark/reference/paper_tables_4_9.tsv` is the ledger's copy of
    // the same 44 rows; the two must not drift apart.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../benchmark/reference/paper_tables_4_9.tsv"
    );
    let ledger = std::fs::read_to_string(path).expect("read the ledger's reference");
    let ledger: Vec<Vec<&str>> = ledger
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.split('\t').collect())
        .collect();
    let ours: Vec<&Published> = paper::published()
        .iter()
        .filter(|p| (4..=9).any(|n| p.id == format!("table{n}")))
        .collect();
    assert_eq!((ledger.len(), ours.len()), (44, 44));
    for (l, p) in ledger.iter().zip(ours) {
        let server = if l[1] == "Jigsaw" {
            ServerKind::Jigsaw
        } else {
            ServerKind::Apache
        };
        let env = match l[0] {
            "LAN" => NetEnv::Lan,
            "WAN" => NetEnv::Wan,
            _ => NetEnv::Ppp,
        };
        let setup = match l[2] {
            "Pipelined" => "Http11Pipelined",
            "PipelinedDeflate" => "Http11PipelinedDeflate",
            other => other,
        };
        let id = format!("table{}", protocol_matrix::table_number(env, server));
        let num = |s: &str| -> f64 { s.parse().unwrap() };
        assert_eq!(
            (id.as_str(), setup, l[3]),
            (p.id, p.row, p.scenario),
            "{l:?}"
        );
        assert_eq!(
            (num(l[4]), Some(num(l[5])), num(l[6])),
            (p.packets, p.bytes, p.seconds),
            "{l:?}"
        );
    }
}
