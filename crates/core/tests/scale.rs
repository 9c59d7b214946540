//! Integration tests for the many-client scale engine: the N=1 anchor
//! against the single-client protocol matrix, the stats-mode differential
//! check, the conformance gate over multi-connection fleet
//! traces, and the headline scalability claim — pipelining needs several
//! times fewer simultaneous server connections than HTTP/1.0×4 under a
//! 256-client burst.

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::scale::{self, ScalePoint, N_GRID, SETUPS};
use httpipe_core::experiments::Size;
use httpipe_core::harness::{
    run_fleet, run_fleet_checked, run_matrix_cell, ProtocolSetup, Scenario,
};
use httpserver::ServerKind;
use netsim::TraceMode;

/// The number of objects in a first-time Microscape retrieval.
const SITE_OBJECTS: u64 = 43;

/// Acceptance anchor: a one-client fleet is host-for-host the
/// single-client matrix topology, and every N=1 scale cell must
/// reproduce the unimpaired matrix row *exactly* — the shared-link
/// scheduler, the bounded bottleneck buffer, and the listen backlog may
/// not perturb an uncontended run by a single bit.
#[test]
fn one_client_fleet_reproduces_the_matrix_exactly() {
    for env in NetEnv::ALL {
        for setup in SETUPS {
            let point = ScalePoint {
                env,
                setup,
                n_clients: 1,
            };
            let fleet = run_fleet(point.spec());
            assert_eq!(fleet.per_client.len(), 1);
            let clean = run_matrix_cell(env, ServerKind::Apache, setup, Scenario::FirstTime);
            assert_eq!(
                fleet.per_client[0],
                clean,
                "{} {}: N=1 fleet cell must equal the matrix cell",
                env.name(),
                setup.label()
            );
            assert_eq!(fleet.server_sockets.syn_drops, 0);
        }
    }
}

/// Differential: a fleet traced in `StatsOnly` mode and the same fleet
/// traced in `Full` mode must report identical per-client results and
/// server counters.
#[test]
fn stats_only_and_full_fleet_traces_agree() {
    for (env, setup, n) in [
        (NetEnv::Lan, ProtocolSetup::Http10, 16),
        (NetEnv::Wan, ProtocolSetup::Http11Pipelined, 16),
        (NetEnv::Wan, ProtocolSetup::Http11, 4),
    ] {
        let point = ScalePoint {
            env,
            setup,
            n_clients: n,
        };
        let stats_only = run_fleet(point.spec());
        let full = {
            let mut spec = point.spec();
            spec.trace_mode = TraceMode::Full;
            run_fleet(spec)
        };
        assert_eq!(
            stats_only.per_client,
            full.per_client,
            "{} {} N={n}: StatsOnly and Full runs must agree",
            env.name(),
            setup.label()
        );
        assert_eq!(
            stats_only.server_stats.peak_connections,
            full.server_stats.peak_connections
        );
        assert_eq!(
            stats_only.server_sockets.syn_drops,
            full.server_sockets.syn_drops
        );
    }
}

/// Conformance gate: a 64-client fleet trace — hundreds of interleaved
/// connections through one bottleneck — passes every TCP and HTTP
/// invariant, for all three protocol setups.
#[test]
fn sixty_four_client_fleet_traces_are_conformant() {
    for setup in SETUPS {
        let point = ScalePoint {
            env: NetEnv::Lan,
            setup,
            n_clients: 64,
        };
        let (out, report) = run_fleet_checked(point.spec());
        assert!(
            report.is_clean(),
            "{} N=64 fleet trace: {}",
            setup.label(),
            report.summary()
        );
        assert!(
            report.connections >= 64,
            "every client's connections checked"
        );
        let fetched: u64 = out.per_client.iter().map(|c| c.fetched).sum();
        assert_eq!(fetched, 64 * SITE_OBJECTS, "{}", setup.label());
    }
}

/// The headline scalability claim, under conformance checking: at 256
/// clients on the LAN, HTTP/1.0×4 needs at least three times more
/// simultaneous server connections than buffered pipelining, the SYN
/// burst overflows the 64-deep listen queue (and is repaired by
/// retransmission), every client still retrieves the whole site, and
/// the kernel ends holding no connection.
#[test]
fn pipelining_cuts_peak_server_connections_three_fold_at_256_clients() {
    let run = |setup: ProtocolSetup| {
        let point = ScalePoint {
            env: NetEnv::Lan,
            setup,
            n_clients: 256,
        };
        let (out, report) = run_fleet_checked(point.spec());
        assert!(
            report.is_clean(),
            "{} N=256 fleet trace: {}",
            setup.label(),
            report.summary()
        );
        let fetched: u64 = out.per_client.iter().map(|c| c.fetched).sum();
        assert_eq!(fetched, 256 * SITE_OBJECTS, "{}", setup.label());
        out
    };
    let h10 = run(ProtocolSetup::Http10);
    let pipe = run(ProtocolSetup::Http11Pipelined);
    // Thousands of connections opened and closed; once the run is idle
    // the kernel holds none of them.
    assert!(h10.server_sockets.sockets_used > 10_000);
    assert_eq!(h10.sim.held_sockets(), 0);

    assert!(
        h10.server_sockets.syn_drops > 0,
        "a 256-client SYN burst must overflow the 64-deep listen queue"
    );
    assert!(
        h10.server_stats.peak_connections >= 3 * pipe.server_stats.peak_connections,
        "HTTP/1.0×4 peak {} vs pipelined peak {} — expected ≥3×",
        h10.server_stats.peak_connections,
        pipe.server_stats.peak_connections
    );
}

/// The grid constants the experiment and its gate both rely on.
#[test]
fn matrix_axes_match_the_design() {
    assert_eq!(N_GRID, [1, 4, 16, 64, 256]);
    assert_eq!(SETUPS.len(), 3);
    assert_eq!(scale::points(Size::Full).len(), 45);
}
