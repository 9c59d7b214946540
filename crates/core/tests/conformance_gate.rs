//! Gate: every unimpaired protocol-matrix cell must produce a trace
//! that satisfies all TCP and HTTP conformance invariants.

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::protocol_matrix;
use httpipe_core::harness::{matrix_spec, run_cells_checked, run_spec_checked, Scenario};
use httpserver::ServerKind;
use netsim::TraceMode;

#[test]
fn lan_pipelined_first_time_is_conformant() {
    let spec = matrix_spec(
        NetEnv::Lan,
        ServerKind::Apache,
        httpipe_core::harness::ProtocolSetup::Http11Pipelined,
        Scenario::FirstTime,
    );
    let (_, report) = run_spec_checked(spec);
    assert!(
        report.is_clean(),
        "violations in LAN pipelined first-time run:\n{}",
        report.summary()
    );
    assert!(report.connections > 0);
    assert!(report.http_requests >= 43);
}

#[test]
fn full_unimpaired_matrix_is_conformant() {
    let specs = protocol_matrix::all_specs(TraceMode::Full);
    let n = specs.len();
    let (cells, report) = run_cells_checked(specs);
    assert_eq!(cells.len(), n);
    assert!(
        report.is_clean(),
        "violations across the {n}-cell unimpaired matrix:\n{}",
        report.summary()
    );
}

#[test]
fn impaired_reduced_grid_is_conformant() {
    use httpipe_core::experiments::robustness;
    let specs: Vec<_> = robustness::reduced_grid()
        .iter()
        .map(|p| p.spec())
        .collect();
    let n = specs.len();
    let (cells, report) = run_cells_checked(specs);
    assert_eq!(cells.len(), n);
    assert!(
        report.is_clean(),
        "violations across the {n}-cell impaired grid:\n{}",
        report.summary()
    );
}
