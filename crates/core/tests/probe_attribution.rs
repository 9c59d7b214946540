//! Integration tests for the flight recorder: accounting completeness
//! over the whole protocol matrix, zero-overhead invariance when
//! disabled, and the mutation checks for the automatic diagnoses. The
//! probe output's determinism is `gate`'s `probe` entry.

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::protocol_matrix;
use httpipe_core::harness::{
    matrix_spec, run_cells_map, run_spec, CellSpec, ProtocolSetup, Scenario,
};
use httpserver::ServerKind;
use netsim::{Diagnosis, SimDuration, TcpConfig};

/// Every unimpaired protocol-matrix cell, probe enabled.
fn all_matrix_specs() -> Vec<CellSpec> {
    let mut specs = protocol_matrix::all_specs();
    for spec in &mut specs {
        spec.probe = true;
    }
    specs
}

/// The acceptance gate: on every one of the 44 unimpaired matrix cells
/// the nine stall buckets sum to the measured elapsed time within 1%.
#[test]
fn buckets_sum_to_elapsed_on_all_44_matrix_cells() {
    let specs = all_matrix_specs();
    assert_eq!(specs.len(), 44);
    let cells = run_cells_map(specs, None, |spec| run_spec(spec).cell);
    for (i, cell) in cells.iter().enumerate() {
        let report = cell.probe.expect("probe was enabled");
        let sum = report.buckets.sum();
        assert!(
            (sum - cell.secs).abs() <= cell.secs * 0.01 + 1e-9,
            "cell {i}: buckets sum {sum} vs elapsed {} ({:?})",
            cell.secs,
            report.buckets
        );
        assert!(
            (report.elapsed - cell.secs).abs() <= 1e-9,
            "cell {i}: attributed window {} vs elapsed {}",
            report.elapsed,
            cell.secs
        );
    }
}

/// Enabling the probe changes no measured metric: the `CellResult` of a
/// probe-on run equals the probe-off run field for field.
#[test]
fn probe_is_invisible_to_the_measurements() {
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
        spec.probe = true;
        let mut on = run_spec(spec).cell;
        assert!(on.probe.is_some());
        on.probe = None;
        assert_eq!(on, off, "{setup:?}/{scenario:?}");
    }
}

/// The Nagle×pipelining cell from the paper's tuning story: pipelined
/// revalidation against a buffering Jigsaw with Nagle left on.
fn nagle_on_spec() -> CellSpec {
    let mut spec = matrix_spec(
        NetEnv::Lan,
        ServerKind::Jigsaw,
        ProtocolSetup::Http11Pipelined,
        Scenario::Revalidate,
    );
    spec.client = spec.client.with_nodelay(false);
    spec.server = spec.server.with_nodelay(false);
    spec.probe = true;
    spec
}

/// Mutation check: with Nagle enabled on a pipelined cell the attributor
/// books nonzero `nagle_hold` time and diagnoses the paper's
/// Nagle×pipelining interaction.
#[test]
#[expect(
    clippy::float_cmp,
    reason = "an empty stall bucket sums no intervals and is exactly zero"
)]
fn nagle_mutation_is_attributed_and_diagnosed() {
    let out = run_spec(nagle_on_spec());
    let analysis = out.probe.expect("probe enabled");
    assert!(
        analysis.report.buckets.nagle_hold > 0.1,
        "Nagle-on pipelining must book the ~200ms stall, got {:?}",
        analysis.report.buckets
    );
    assert!(
        analysis
            .diagnoses
            .iter()
            .any(|d| matches!(d, Diagnosis::NaglePipelining { .. })),
        "expected a NaglePipelining diagnosis, got {:?}",
        analysis.diagnoses
    );

    // The tuned cell (TCP_NODELAY, the paper's fix) books no Nagle time
    // and raises no such diagnosis.
    let mut tuned = matrix_spec(
        NetEnv::Lan,
        ServerKind::Jigsaw,
        ProtocolSetup::Http11Pipelined,
        Scenario::Revalidate,
    );
    tuned.probe = true;
    let fixed = run_spec(tuned).probe.expect("probe enabled");
    assert_eq!(fixed.report.buckets.nagle_hold, 0.0);
    assert_eq!(fixed.report.nagle_pipelining, 0);
}

/// Mutation check: turning the delayed-ACK timer off zeroes the
/// `delayed_ack_wait` bucket and cures the Nagle stall (the held tail
/// is released by the now-immediate ACK).
#[test]
#[expect(
    clippy::float_cmp,
    reason = "an empty stall bucket sums no intervals and is exactly zero"
)]
fn disabling_delayed_ack_zeroes_the_wait_bucket() {
    let baseline = run_spec(nagle_on_spec());
    let base_analysis = baseline.probe.expect("probe enabled");

    let mut spec = nagle_on_spec();
    spec.tcp = Some(TcpConfig {
        delayed_ack: SimDuration::ZERO,
        ..TcpConfig::default()
    });
    let out = run_spec(spec);
    let analysis = out.probe.expect("probe enabled");
    assert_eq!(
        analysis.report.buckets.delayed_ack_wait, 0.0,
        "no delayed-ACK timer, no delayed-ACK wait: {:?}",
        analysis.report.buckets
    );
    assert!(
        out.cell.secs + 0.1 < baseline.cell.secs,
        "immediate ACKs release the Nagle hold: {:.3}s vs {:.3}s",
        out.cell.secs,
        baseline.cell.secs
    );
    assert!(
        analysis.report.buckets.nagle_hold < base_analysis.report.buckets.nagle_hold,
        "the booked Nagle time shrinks without the ACK delay"
    );
}
