//! Differential gate for the congestion-control extraction: routing the
//! seed TCB's window arithmetic through the [`netsim::CongestionControl`]
//! trait (default variant: Reno) must be invisible. The seed digests it
//! reproduces are the `robustness`, `mux` and `scale` pins of
//! `httpipe_core::gate::REGISTRY`, which `gates.rs::every_gate_passes`
//! runs; what stays here is the inertness of the override plumbing.

use httpipe_core::env::NetEnv;
use httpipe_core::harness::{matrix_spec, run_spec, ProtocolSetup, Scenario};
use httpserver::ServerKind;
use netsim::{CcVariant, TcpConfig};

/// An explicit `TcpConfig::default()` override (which selects
/// [`CcVariant::Reno`]) must produce the identical cell to no override
/// at all — the override plumbing itself is inert.
#[test]
fn default_tcp_override_is_inert() {
    assert_eq!(TcpConfig::default().cc, CcVariant::Reno);
    for setup in [ProtocolSetup::Http10, ProtocolSetup::Http11Pipelined] {
        let base = matrix_spec(NetEnv::Wan, ServerKind::Apache, setup, Scenario::FirstTime);
        let mut overridden =
            matrix_spec(NetEnv::Wan, ServerKind::Apache, setup, Scenario::FirstTime);
        overridden.tcp = Some(TcpConfig::default());
        assert_eq!(
            run_spec(base).cell,
            run_spec(overridden).cell,
            "Some(TcpConfig::default()) differs from None for {setup:?}"
        );
    }
}
