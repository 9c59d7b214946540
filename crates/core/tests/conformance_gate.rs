//! One cell's trace under every TCP and HTTP conformance invariant. The
//! whole unimpaired matrix, the impaired robustness grid and the jitter
//! grid are checked by `gate`'s `conformance` entry.

use httpipe_core::env::NetEnv;
use httpipe_core::harness::{matrix_spec, run_spec_checked, Scenario};
use httpserver::ServerKind;

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
