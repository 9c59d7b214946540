//! Congestion-control sensitivity: does the paper's loss-grid headline
//! survive a change of recovery algorithm?
//!
//! The robustness family measures the protocol comparison under packet
//! loss with exactly one loss-recovery algorithm — the Reno-style slow
//! start + fast retransmit the seed hard-coded in `netsim::tcp`. This
//! family reruns the WAN first-time loss grid under all four
//! [`CcVariant`]s (Reno, NewReno per RFC 6582, SACK per RFC 2018/6675,
//! CUBIC per RFC 8312) on both endpoints, plus a stall-attribution probe
//! pass, so the per-lost-packet penalty of pipelining's single
//! connection becomes a CC-sensitivity result.
//!
//! Every variant at a given coordinate faces the identical impairment
//! draw sequence ([`RobustnessPoint::seed`] ignores the variant), so
//! measured differences are recovery behavior, not luck. The shape to
//! notice: SACK-based recovery retransmits only the holes, recovering
//! part of pipelining's per-lost-packet penalty relative to Reno at 2%+
//! loss — the gated ordering in `crates/core/tests/cc_gate.rs`.

use crate::env::NetEnv;
use crate::experiments::robustness::{self, LossShape, RobustnessCell, RobustnessPoint};
use crate::harness::{matrix_spec, run_cells_map, run_spec, ProtocolSetup, Scenario};
use crate::result::Table;
use httpserver::ServerKind;
use netsim::{CcVariant, ImpairConfig, LossModel};

/// Every congestion-control variant, in comparison order.
pub const VARIANTS: [CcVariant; 4] = CcVariant::ALL;

/// Loss rates of the CC grid, in percent (uniform shape only — the
/// variant axis replaces the shape axis as the interesting dimension).
pub const LOSS_PCT: [f64; 3] = [0.0, 2.0, 5.0];

/// Build the CC grid over the given loss rates: WAN first-time
/// retrieval, the three robustness setups, uniform loss only, every
/// variant on both endpoints.
pub fn grid(losses_pct: &[f64]) -> Vec<RobustnessPoint> {
    let mut points = Vec::new();
    for &cc in &VARIANTS {
        for mut p in robustness::grid(
            &[NetEnv::Wan],
            losses_pct,
            &robustness::SETUPS,
            &[Scenario::FirstTime],
        ) {
            if p.shape != LossShape::Uniform {
                continue;
            }
            p.cc = cc;
            points.push(p);
        }
    }
    points
}

/// The full CC grid: 3 setups × {0, 2, 5}% uniform × 4 variants
/// (36 cells).
pub fn full_grid() -> Vec<RobustnessPoint> {
    grid(&LOSS_PCT)
}

/// A reduced grid for the `cc` gate: 3 setups × {0, 2}% uniform ×
/// 4 variants (24 cells).
pub fn reduced_grid() -> Vec<RobustnessPoint> {
    grid(&[0.0, 2.0])
}

/// Elapsed-time inflation of the (setup, loss, variant) cell over its
/// own zero-loss baseline, in percent.
pub fn variant_inflation(
    cells: &[RobustnessCell],
    setup: ProtocolSetup,
    loss_pct: f64,
    cc: CcVariant,
) -> Option<f64> {
    let cell = cells
        .iter()
        .find(|c| c.point.setup == setup && c.point.loss_pct == loss_pct && c.point.cc == cc)?;
    robustness::inflation_pct(cells, cell)
}

/// The comparison table: one row per lossy (setup, loss) coordinate,
/// one inflation column per variant.
pub fn recovery_table(cells: &[RobustnessCell]) -> Table {
    let mut t = Table::new(
        "Recovery matters - Apache - WAN first-time - inflation per CC variant",
        &["Reno Infl%", "NewReno Infl%", "SACK Infl%", "CUBIC Infl%"],
    );
    for c in cells {
        if c.point.cc != CcVariant::Reno || c.point.loss_pct == 0.0 {
            continue;
        }
        let cols = VARIANTS
            .iter()
            .map(|&cc| {
                variant_inflation(cells, c.point.setup, c.point.loss_pct, cc)
                    .map(|v| format!("{v:+.1}"))
                    .unwrap_or_else(|| "-".to_string())
            })
            .collect();
        t.push_row(
            &format!(
                "{} @ {:.1}% uniform",
                c.point.setup.label(),
                c.point.loss_pct
            ),
            cols,
        );
    }
    t
}

/// The full report: the per-variant grid tables (robustness rendering,
/// rows labelled with the variant) followed by the comparison table.
pub fn report(cells: &[RobustnessCell]) -> Vec<Table> {
    let mut tables = robustness::report(cells);
    tables.push(recovery_table(cells));
    tables
}

// ---------------------------------------------------------------------
// Per-variant stall attribution
// ---------------------------------------------------------------------

/// Run the stall-attribution probe for pipelined WAN first-time
/// retrieval at 2% uniform loss under every variant: the
/// `rto_recovery`/`slow_start` buckets become per-variant comparable.
pub fn probe_rows() -> Vec<(CcVariant, f64, netsim::ProbeAnalysis)> {
    let specs = VARIANTS
        .iter()
        .map(|&cc| {
            let mut spec = matrix_spec(
                NetEnv::Wan,
                ServerKind::Apache,
                ProtocolSetup::Http11Pipelined,
                Scenario::FirstTime,
            );
            let seed = RobustnessPoint {
                env: NetEnv::Wan,
                setup: ProtocolSetup::Http11Pipelined,
                scenario: Scenario::FirstTime,
                loss_pct: 2.0,
                shape: LossShape::Uniform,
                cc,
            }
            .seed();
            spec.impair = Some(
                ImpairConfig::none()
                    .with_seed(seed)
                    .with_loss(LossModel::Bernoulli { p: 0.02 }),
            );
            spec.tcp = Some(netsim::TcpConfig {
                cc,
                ..Default::default()
            });
            spec.probe = true;
            spec
        })
        .collect();
    let outputs = run_cells_map(specs, None, |spec| {
        let out = run_spec(spec);
        (out.cell.secs, out.probe.expect("probe was enabled"))
    });
    VARIANTS
        .iter()
        .zip(outputs)
        .map(|(&cc, (secs, analysis))| (cc, secs, analysis))
        .collect()
}

/// Render the per-variant probe decomposition.
pub fn probe_table(rows: &[(CcVariant, f64, netsim::ProbeAnalysis)]) -> Table {
    let mut t = Table::new(
        "Recovery matters - pipelined WAN @ 2.0% uniform - where the time goes (secs)",
        &["Conn", "SlowSt", "RTO", "Wire", "Idle", "Sum", "Sec"],
    );
    for (cc, secs, analysis) in rows {
        let b = &analysis.report.buckets;
        let other = b.nagle_hold + b.delayed_ack_wait + b.recv_window + b.server_think;
        t.push_row(
            cc.label(),
            vec![
                format!("{:.2}", b.connection_setup),
                format!("{:.2}", b.slow_start),
                format!("{:.2}", b.rto_recovery),
                format!("{:.2}", b.serialization),
                format!("{:.2}", b.idle + other),
                format!("{:.2}", b.sum()),
                format!("{secs:.2}"),
            ],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes() {
        assert_eq!(full_grid().len(), 36);
        assert_eq!(reduced_grid().len(), 24);
    }

    #[test]
    fn reno_points_match_seed_robustness_cells() {
        for p in reduced_grid() {
            if p.cc == CcVariant::Reno {
                // Reno rows must be spec-identical to the seed grid: no
                // TCP override, no variant suffix in the label.
                assert!(p.spec().tcp.is_none());
                assert!(!p.label().contains('['));
            } else {
                assert_eq!(p.spec().tcp.unwrap().cc, p.cc);
                assert!(p.label().ends_with(&format!("[{}]", p.cc.label())));
            }
        }
    }

    #[test]
    fn seeds_ignore_variant() {
        let g = reduced_grid();
        for p in &g {
            let mut reno = *p;
            reno.cc = CcVariant::Reno;
            assert_eq!(
                p.seed(),
                reno.seed(),
                "variants face the identical impairment draw sequence"
            );
        }
    }
}
