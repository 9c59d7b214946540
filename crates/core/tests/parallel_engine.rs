//! Determinism and equivalence guarantees of the parallel experiment
//! engine:
//!
//! * the same `CellSpec` always produces bit-identical `CellResult`s;
//! * `run_cells` (threaded) agrees with a serial `run_spec` loop
//!   cell-for-cell across the full Tables 4–9 matrix;
//! * stats-only tracing reports the same `TraceStats` as full tracing
//!   for every cell of the matrix.

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::protocol_matrix::all_specs;
use httpipe_core::harness::{matrix_spec, run_cells, run_cells_threaded, run_spec, Scenario};
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
fn parallel_matrix_equals_serial_loop() {
    let serial: Vec<_> = all_specs(TraceMode::StatsOnly)
        .into_iter()
        .map(|spec| run_spec(spec).cell)
        .collect();

    // Default thread policy (may be serial on a 1-core host) ...
    let parallel = run_cells(all_specs(TraceMode::StatsOnly));
    assert_eq!(serial, parallel);

    // ... and a forced 4-worker pool, so the threaded executor and its
    // input-order result reassembly are exercised regardless of host.
    let threaded = run_cells_threaded(all_specs(TraceMode::StatsOnly), Some(4));
    assert_eq!(serial, threaded);
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
