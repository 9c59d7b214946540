//! Differential gates for the congestion-control extraction: routing the
//! seed TCB's window arithmetic through the [`netsim::CongestionControl`]
//! trait (default variant: Reno) must be invisible. The `robustness`,
//! `mux` and `scale` pins in `httpipe_core::gate::REGISTRY` were captured
//! on the seed before the trait existed; a mismatch means the refactor
//! changed behavior somewhere in the impairment grid, the framed
//! transports or the fleet engine.

use httpipe_core::env::NetEnv;
use httpipe_core::gate;
use httpipe_core::harness::{matrix_spec, run_spec, ProtocolSetup, Scenario};
use httpserver::ServerKind;
use netsim::{CcVariant, TcpConfig};

fn assert_gate_passes(name: &str, what: &str) {
    let gate = gate::select(&[name.to_string()]).expect("registered gate")[0];
    let verdict = gate.run(None);
    assert!(
        verdict.ok(),
        "Reno-through-the-trait changed {what}: {verdict}"
    );
}

/// The reduced robustness grid (loss/reorder/outage impairments over
/// three setups).
#[test]
fn reno_via_trait_reproduces_seed_robustness_digest() {
    assert_gate_passes("robustness", "the robustness grid");
}

/// The reduced mux report (framed transports + push).
#[test]
fn reno_via_trait_reproduces_seed_mux_digest() {
    assert_gate_passes("mux", "the mux transports");
}

/// The reduced scale report (fleets to 64 clients).
#[test]
fn reno_via_trait_reproduces_seed_scale_digest() {
    assert_gate_passes("scale", "the fleet engine");
}

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
