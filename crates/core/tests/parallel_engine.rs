//! Determinism and equivalence guarantees of the parallel experiment
//! engine:
//!
//! * the same `CellSpec` always produces bit-identical `CellResult`s
//!   (pooled against serial is `gate`'s `matrix` entry);
//! * stats-only tracing reports the same `TraceStats` as full tracing
//!   for every cell of the matrix.

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::protocol_matrix::all_specs;
use httpipe_core::harness::{matrix_spec, run_spec, Scenario};
use httpserver::ServerKind;
use netsim::TraceMode;

#[test]
fn same_spec_is_bit_identical_across_runs() {
    for (env, scenario) in [
        (NetEnv::Lan, Scenario::FirstTime),
        (NetEnv::Wan, Scenario::Revalidate),
        (NetEnv::Ppp, Scenario::FirstTime),
    ] {
        let spec = || {
            matrix_spec(
                env,
                ServerKind::Apache,
                httpipe_core::harness::ProtocolSetup::Http11Pipelined,
                scenario,
            )
        };
        let a = run_spec(spec()).cell;
        let b = run_spec(spec()).cell;
        assert_eq!(a, b, "{env:?} {scenario:?} not deterministic");
    }
}

#[test]
fn stats_only_matches_full_trace_across_matrix() {
    for (lean_spec, full_spec) in all_specs(TraceMode::StatsOnly)
        .into_iter()
        .zip(all_specs(TraceMode::Full))
    {
        let lean = run_spec(lean_spec);
        let full = run_spec(full_spec);
        assert_eq!(lean.cell, full.cell);
        assert_eq!(
            lean.sim.trace().stats(lean.client_host, lean.server_host),
            full.sim.trace().stats(full.client_host, full.server_host),
        );
        assert!(
            lean.sim.trace().records().is_empty(),
            "stats-only must retain no per-packet records"
        );
        assert!(!full.sim.trace().records().is_empty());
    }
}
