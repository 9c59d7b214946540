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
//! loss — the ordering `gate`'s `cc` entry asserts.

use super::Size;
use crate::env::NetEnv;
use crate::experiments::robustness::{self, LossShape, RobustnessCell, RobustnessPoint};
use crate::harness::{run_cells_map, run_spec, ProtocolSetup, Scenario};
use crate::result::Table;
use netsim::CcVariant;

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

/// The CC grid at `size`: 3 setups × {0, 2, 5}% uniform × 4 variants
/// (36 cells); for the gate, {0, 2}% (24 cells). Run it with
/// [`robustness::run_points`].
pub fn points(size: Size) -> Vec<RobustnessPoint> {
    match size {
        Size::Gate => grid(&[0.0, 2.0]),
        Size::Full => grid(&LOSS_PCT),
    }
}

/// Elapsed-time inflation of the (setup, loss, variant) cell over its
/// own zero-loss baseline, in percent.
pub fn variant_inflation(
    cells: &[RobustnessCell],
    setup: ProtocolSetup,
    loss_pct: f64,
    cc: CcVariant,
) -> Option<f64> {
    let cell = cells.iter().find(|c| {
        // A grid key copied from `LOSS_PCT`, never computed.
        c.point.setup == setup
            && c.point.loss_pct.to_bits() == loss_pct.to_bits()
            && c.point.cc == cc
    })?;
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
            let mut spec = RobustnessPoint {
                env: NetEnv::Wan,
                setup: ProtocolSetup::Http11Pipelined,
                scenario: Scenario::FirstTime,
                loss_pct: 2.0,
                shape: LossShape::Uniform,
                cc,
            }
            .spec();
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

/// The recovery section of EXPERIMENTS.md: the full grid's recovery
/// table and the per-variant stall probe.
pub(crate) fn section() -> String {
    let cells = robustness::run_points(&points(Size::Full), None);
    let blocks = [
        recovery_table(&cells).render(),
        probe_table(&probe_rows()).render(),
    ];
    format!(
        "## Recovery matters (`repro cc`)\n\n\
         Beyond the paper: every loss number above was measured under exactly\n\
         one loss-recovery algorithm \u{2014} the Reno-style slow start + fast\n\
         retransmit of 1997 stacks. Here the WAN first-time loss grid reruns\n\
         under four pluggable `CongestionControl` variants on both endpoints:\n\
         Reno (RFC 5681, bit-identical to the seed and digest-gated), NewReno\n\
         (RFC 6582 partial-ACK recovery with window inflation), SACK\n\
         (RFC 2018/6675 scoreboard \u{2014} holes only, never data the peer\n\
         already holds) and a CUBIC-shaped grower on integer sim-time\n\
         (RFC 8312, \u{3b2} = 0.7). Every variant at a coordinate faces the\n\
         identical impairment draw sequence, so differences are recovery\n\
         behavior, not luck. The shape to notice: recovery sophistication\n\
         pays precisely where the paper's preferred transport concentrates\n\
         traffic \u{2014} on HTTP/1.0's four short parallel connections the\n\
         fast-retransmit variants are indistinguishable, while on the single\n\
         pipelined connection NewReno/SACK cut Reno's inflation from +355%\n\
         to +211% at 2% loss and to a quarter at 5% (the ordering `gate`'s\n\
         `cc` entry asserts) by filling holes on partial ACKs\n\
         instead of stalling into retransmission timeouts \u{2014} the probe\n\
         decomposition below books the difference almost entirely against\n\
         the `RTO` bucket.\n\n{}",
        super::fenced(&blocks)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes() {
        assert_eq!(points(Size::Full).len(), 36);
        assert_eq!(points(Size::Gate).len(), 24);
    }

    #[test]
    fn reno_points_match_seed_robustness_cells() {
        for p in points(Size::Gate) {
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
        let g = points(Size::Gate);
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
