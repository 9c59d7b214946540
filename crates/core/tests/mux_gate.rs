//! Gates for the multiplexed transport: every mux cell must satisfy the
//! frame-level conformance invariants, push must actually replace
//! requests, fleets must complete, and the shared-fate prediction —
//! one multiplexed connection degrades more per lost packet than
//! HTTP/1.0's four parallel connections — must hold under loss.

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::{mux, robustness, scale};
use httpipe_core::harness::{
    matrix_spec, run_cells_map, run_spec_checked, ProtocolSetup, Scenario,
};
use httpserver::ServerKind;

#[test]
fn mux_matrix_is_conformant() {
    let mut specs = Vec::new();
    for env in NetEnv::ALL {
        for server in [ServerKind::Apache, ServerKind::Jigsaw] {
            for &setup in &ProtocolSetup::MUX {
                for scenario in [Scenario::FirstTime, Scenario::Revalidate] {
                    specs.push(matrix_spec(env, server, setup, scenario));
                }
            }
        }
    }
    let n = specs.len();
    let reports = run_cells_map(specs, None, |spec| run_spec_checked(spec).1);
    assert_eq!(reports.len(), n);
    let mut report = conformance::Report::default();
    for checked in reports {
        report.merge(checked);
    }
    assert!(
        report.is_clean(),
        "violations across the {n}-cell mux matrix:\n{}",
        report.summary()
    );
}

#[test]
fn mux_push_first_time_is_conformant_and_pushes() {
    let spec = matrix_spec(
        NetEnv::Lan,
        ServerKind::Apache,
        ProtocolSetup::MultiplexedPush,
        Scenario::FirstTime,
    );
    let (out, report) = run_spec_checked(spec);
    assert!(
        report.is_clean(),
        "violations in LAN mux+push first-time run:\n{}",
        report.summary()
    );
    assert!(out.cell.pushed_responses > 0, "server never pushed");
    assert!(out.cell.pushed_bytes > 0);
    assert_eq!(out.cell.cancelled_pushes, 0, "clean run cancelled pushes");
}

#[test]
fn shared_fate_mux_degrades_more_than_parallel_connections() {
    // The head-of-line prediction, as a gate: on the WAN at >=2% loss,
    // the single multiplexed connection inflates elapsed time more than
    // HTTP/1.0x4, whose independent connections localize each drop.
    let points = robustness::grid(
        &[NetEnv::Wan],
        &[0.0, 2.0, 5.0],
        &[ProtocolSetup::Http10, ProtocolSetup::Multiplexed],
        &[Scenario::FirstTime],
    );
    let cells = robustness::run_points(&points, None);
    let fates = mux::shared_fate(&cells, NetEnv::Wan);
    assert_eq!(fates.len(), 4, "2% and 5%, both shapes");
    for sf in fates {
        assert!(
            sf.mux_infl > sf.http10_infl,
            "at {:.1}% {} loss mux inflated {:+.1}% vs HTTP/1.0x4 {:+.1}% — \
             shared fate should cost the multiplexed connection more",
            sf.loss_pct,
            sf.shape.label(),
            sf.mux_infl,
            sf.http10_infl
        );
    }
}

#[test]
fn mux_fleets_complete_and_push_scales() {
    let points = scale::grid(&[NetEnv::Wan], &ProtocolSetup::MUX, &[16]);
    let [plain, push] = <[_; 2]>::try_from(scale::run_points(&points, None)).unwrap();
    assert_eq!(plain.fetched, 16 * 43, "every client fetched the site");
    assert_eq!(push.fetched, 16 * 43);
    // One connection per client in both modes.
    assert!(plain.peak_connections <= 16);
    assert!(push.peak_connections <= 16);
}
