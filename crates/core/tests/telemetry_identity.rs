//! Telemetry zero-overhead invariance: with the subsystem compiled in
//! but disabled, every measurement is bit-identical to a build that
//! never had it — proven differentially by field-for-field `CellResult`
//! equality and by rendered-report equality between telemetry-on and
//! telemetry-off runs of the same grids.

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::{mux, robustness, scale, telemetry, Size};
use httpipe_core::harness::{matrix_spec, run_fleet, run_spec, ProtocolSetup, Scenario};
use httpserver::ServerKind;
use netsim::CcVariant;

/// Enabling telemetry changes no measured metric: the `CellResult` of a
/// telemetry-on run equals the telemetry-off run field for field, on
/// clean and lossy cells alike.
#[test]
fn telemetry_is_invisible_to_the_measurements() {
    // Clean matrix cells.
    for (setup, scenario) in [
        (ProtocolSetup::Http11Pipelined, Scenario::FirstTime),
        (ProtocolSetup::Http10, Scenario::Revalidate),
    ] {
        let off = run_spec(matrix_spec(
            NetEnv::Wan,
            ServerKind::Apache,
            setup,
            scenario,
        ))
        .cell;
        let mut spec = matrix_spec(NetEnv::Wan, ServerKind::Apache, setup, scenario);
        spec.telemetry = true;
        let mut on = run_spec(spec).cell;
        assert!(on.telemetry.is_some());
        on.telemetry = None;
        assert_eq!(on, off, "{setup:?}/{scenario:?}");
    }
    // A lossy cell per CC variant (drops, retransmits, recoveries live).
    for cc in [CcVariant::Reno, CcVariant::Sack] {
        let point = telemetry::rto_point(cc);
        let off = run_spec(point.spec()).cell;
        let mut spec = point.spec();
        spec.telemetry = true;
        let mut on = run_spec(spec).cell;
        assert!(on.telemetry.is_some());
        on.telemetry = None;
        assert_eq!(on, off, "lossy cell [{}]", cc.label());
    }
}

/// Same invariance for fleet runs: every per-client cell and the server
/// counters agree between a telemetry-on and a telemetry-off fleet.
#[test]
fn telemetry_is_invisible_to_fleet_runs() {
    let point = scale::ScalePoint {
        env: NetEnv::Lan,
        setup: ProtocolSetup::Http10,
        n_clients: 8,
    };
    let off = run_fleet(point.spec());
    let mut spec = point.spec();
    spec.telemetry = true;
    let on = run_fleet(spec);
    assert_eq!(on.per_client.len(), off.per_client.len());
    for (a, b) in on.per_client.iter().zip(&off.per_client) {
        let mut a = *a;
        assert!(a.telemetry.is_some());
        a.telemetry = None;
        assert_eq!(&a, b);
    }
    assert_eq!(on.server_stats, off.server_stats);
    assert_eq!(on.server_sockets, off.server_sockets);
}

/// Recording does not search: over a fleet the sink's index is consulted
/// once per scope — each connection end, link direction and host — however
/// many samples those scopes then take. (The count exists in debug builds.)
#[cfg(debug_assertions)]
#[test]
fn a_fleet_resolves_each_scope_once() {
    let mut spec = scale::ScalePoint {
        env: NetEnv::Lan,
        setup: ProtocolSetup::Http10,
        n_clients: 32,
    }
    .spec();
    spec.telemetry = true;
    let out = run_fleet(spec);
    let sink = out.sim.telemetry();
    let mut scopes: Vec<_> = sink.series().iter().map(|s| s.key.scope).collect();
    scopes.dedup();
    assert_eq!(sink.resolutions(), scopes.len() as u64);
    let summary = sink.summary();
    let samples = summary.points + summary.hist_samples;
    assert!(scopes.len() > 2 * 32 * 40, "a scope per connection end");
    assert!(samples > 20 * scopes.len() as u64, "{samples} samples");
}

/// The robustness report (the digest CI gates on) renders identically
/// whether the cells ran with telemetry enabled or disabled.
#[test]
fn robustness_report_is_unchanged_by_telemetry() {
    let points: Vec<_> = robustness::points(Size::Gate).into_iter().take(6).collect();
    let off = robustness::run_points(&points, None);
    let on: Vec<_> = points
        .iter()
        .map(|p| {
            let mut spec = p.spec();
            spec.telemetry = true;
            robustness::RobustnessCell {
                point: *p,
                cell: run_spec(spec).cell,
            }
        })
        .collect();
    let render = |cells: &[robustness::RobustnessCell]| {
        robustness::report(cells)
            .iter()
            .map(|t| t.render())
            .collect::<String>()
    };
    assert_eq!(render(&on), render(&off));
    assert_eq!(
        robustness::report_digest(&on),
        robustness::report_digest(&off)
    );
}

/// The mux matrix table (with its new cancelled-push-bytes columns)
/// renders deterministically and carries the CxlB columns.
#[test]
fn mux_matrix_table_reports_cancelled_push_bytes() {
    let a = mux::matrix_table(NetEnv::Wan, ServerKind::Apache).render();
    let b = mux::matrix_table(NetEnv::Wan, ServerKind::Apache).render();
    assert_eq!(a, b);
    assert!(a.contains("FT CxlB"));
    assert!(a.contains("CV CxlB"));
}
