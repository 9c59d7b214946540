//! Loss/jitter robustness: how the paper's protocol comparison shifts
//! once the network stops being perfect.
//!
//! The paper measured HTTP/1.0 (4 parallel connections), serialized
//! HTTP/1.1 and pipelined HTTP/1.1 over clean links. This family reruns
//! that matrix across a grid of packet-loss rates (uniform Bernoulli and
//! Gilbert–Elliott bursts) and a jitter/reordering study, reporting
//! elapsed-time inflation relative to the zero-loss baseline together
//! with the retransmission and drop counts behind it.
//!
//! Pipelining concentrates the whole page on a single TCP connection, so
//! every loss event stalls *all* outstanding objects (head-of-line
//! blocking), whereas HTTP/1.0's four parallel connections localize each
//! loss — the interesting question is at what loss rate that redundancy
//! overtakes pipelining's packet savings.
//!
//! Everything is seeded-deterministic: each grid point derives its
//! impairment seed from its own coordinates, so any cell can be re-run
//! bit-identically in isolation.

use crate::digest;
use crate::env::NetEnv;
use crate::harness::{matrix_spec, run_cells, CellSpec, ProtocolSetup, Scenario};
use crate::result::{CellResult, Table};
use httpserver::ServerKind;
use netsim::{CcVariant, ImpairConfig, JitterModel, LossModel, SimDuration};

/// Loss rates of the grid, in percent.
pub const LOSS_GRID_PCT: [f64; 4] = [0.0, 0.5, 2.0, 5.0];

/// Mean burst length (packets) of the Gilbert–Elliott shape.
pub const BURST_LEN: f64 = 4.0;

/// Protocol setups the robustness grid compares (deflate adds nothing to
/// a loss study).
pub const SETUPS: [ProtocolSetup; 3] = [
    ProtocolSetup::Http10,
    ProtocolSetup::Http11,
    ProtocolSetup::Http11Pipelined,
];

/// Both client scenarios.
pub const SCENARIOS: [Scenario; 2] = [Scenario::FirstTime, Scenario::Revalidate];

/// How loss events are distributed over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LossShape {
    /// Independent per-packet (Bernoulli) loss.
    Uniform,
    /// Gilbert–Elliott bursts with mean length [`BURST_LEN`].
    Burst,
}

impl LossShape {
    /// Both shapes.
    pub const ALL: [LossShape; 2] = [LossShape::Uniform, LossShape::Burst];

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            LossShape::Uniform => "uniform",
            LossShape::Burst => "burst",
        }
    }

    /// The loss model for a mean loss rate in percent.
    pub fn model(self, loss_pct: f64) -> LossModel {
        match self {
            LossShape::Uniform => LossModel::Bernoulli {
                p: loss_pct / 100.0,
            },
            LossShape::Burst => LossModel::bursty(loss_pct / 100.0, BURST_LEN),
        }
    }
}

/// One coordinate of the robustness grid.
#[derive(Debug, Clone, Copy)]
pub struct RobustnessPoint {
    /// Network environment.
    pub env: NetEnv,
    /// Protocol setup under test.
    pub setup: ProtocolSetup,
    /// First fetch or cache validation.
    pub scenario: Scenario,
    /// Mean packet loss in percent.
    pub loss_pct: f64,
    /// Loss distribution shape.
    pub shape: LossShape,
    /// Congestion-control variant on both endpoints. [`CcVariant::Reno`]
    /// is the seed behavior and leaves seeds, labels and specs untouched
    /// so existing grid digests stay bit-identical.
    pub cc: CcVariant,
}

impl RobustnessPoint {
    /// A stable per-point impairment seed derived from the coordinates,
    /// so any cell can be reproduced in isolation.
    /// The seed deliberately ignores [`Self::cc`]: variants compared at
    /// the same coordinate face the identical impairment draw sequence,
    /// so measured differences are recovery behavior, not luck.
    pub fn seed(&self) -> u64 {
        let key = format!(
            "{}|{}|{}|{:.3}|{}",
            self.env.name(),
            self.setup.label(),
            self.scenario.label(),
            self.loss_pct,
            self.shape.label(),
        );
        digest::of(key.as_bytes())
    }

    /// The impairment pipeline for this point. Zero loss still installs
    /// an (inert) pipeline — `Bernoulli {{ p: 0 }}` draws per packet but
    /// never drops — so the baseline row exercises the same code path.
    pub fn impairment(&self) -> ImpairConfig {
        ImpairConfig::none()
            .with_seed(self.seed())
            .with_loss(self.shape.model(self.loss_pct))
    }

    /// The cell specification: the standard Apache protocol-matrix cell
    /// with this point's impairment on the link.
    pub fn spec(&self) -> CellSpec {
        let mut spec = matrix_spec(self.env, ServerKind::Apache, self.setup, self.scenario);
        spec.impair = Some(self.impairment());
        if self.cc != CcVariant::Reno {
            spec.tcp = Some(netsim::TcpConfig {
                cc: self.cc,
                ..Default::default()
            });
        }
        spec
    }

    /// Row label used in reports and digests.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{} @ {:.1}% {}",
            self.setup.label(),
            self.loss_pct,
            self.shape.label()
        );
        if self.cc != CcVariant::Reno {
            label.push_str(&format!(" [{}]", self.cc.label()));
        }
        label
    }
}

/// One measured grid point.
#[derive(Debug, Clone, Copy)]
pub struct RobustnessCell {
    /// The coordinate.
    pub point: RobustnessPoint,
    /// Its measurements.
    pub cell: CellResult,
}

/// Build a grid over the given axes. Zero-loss points appear once
/// (uniform shape only): with no loss events the shape is meaningless
/// and duplicate baselines would skew the tables.
pub fn grid(
    envs: &[NetEnv],
    losses_pct: &[f64],
    setups: &[ProtocolSetup],
    scenarios: &[Scenario],
) -> Vec<RobustnessPoint> {
    let mut points = Vec::new();
    for &env in envs {
        for &scenario in scenarios {
            for &setup in setups {
                for &loss_pct in losses_pct {
                    let shapes: &[LossShape] = if loss_pct == 0.0 {
                        &[LossShape::Uniform]
                    } else {
                        &LossShape::ALL
                    };
                    for &shape in shapes {
                        points.push(RobustnessPoint {
                            env,
                            setup,
                            scenario,
                            loss_pct,
                            shape,
                            cc: CcVariant::Reno,
                        });
                    }
                }
            }
        }
    }
    points
}

/// The full grid: every environment, every loss rate, both shapes, three
/// protocol setups, both scenarios (126 cells).
pub fn full_grid() -> Vec<RobustnessPoint> {
    grid(&NetEnv::ALL, &LOSS_GRID_PCT, &SETUPS, &SCENARIOS)
}

/// A reduced WAN-only grid for the `robustness` gate (18 cells).
pub fn reduced_grid() -> Vec<RobustnessPoint> {
    grid(&[NetEnv::Wan], &[0.0, 2.0], &SETUPS, &SCENARIOS)
}

/// Run a set of grid points (parallel via [`run_cells`]).
pub fn run_points(points: &[RobustnessPoint]) -> Vec<RobustnessCell> {
    let specs = points.iter().map(|p| p.spec()).collect();
    points
        .iter()
        .zip(run_cells(specs))
        .map(|(&point, cell)| RobustnessCell { point, cell })
        .collect()
}

/// Elapsed-time inflation of `cell` relative to the zero-loss baseline
/// for the same (env, setup, scenario), in percent. `None` when the
/// baseline is missing from the set.
pub fn inflation_pct(cells: &[RobustnessCell], of: &RobustnessCell) -> Option<f64> {
    let base = cells.iter().find(|c| {
        c.point.env == of.point.env
            && c.point.setup == of.point.setup
            && c.point.scenario == of.point.scenario
            && c.point.cc == of.point.cc
            && c.point.loss_pct == 0.0
    })?;
    (base.cell.secs > 0.0).then(|| (of.cell.secs / base.cell.secs - 1.0) * 100.0)
}

/// Render one table per (environment, scenario) present in `cells`, in
/// grid order: packet count, retransmissions, drops (total and split by
/// reason, loss/outage/queue), elapsed seconds and inflation over the
/// zero-loss row.
pub fn report(cells: &[RobustnessCell]) -> Vec<Table> {
    let mut tables = Vec::new();
    for env in NetEnv::ALL {
        for scenario in SCENARIOS {
            let group: Vec<&RobustnessCell> = cells
                .iter()
                .filter(|c| c.point.env == env && c.point.scenario == scenario)
                .collect();
            if group.is_empty() {
                continue;
            }
            let mut t = Table::new(
                &format!(
                    "Robustness - Apache - {} - {} under packet loss",
                    env.name(),
                    scenario.label()
                ),
                &["Pa", "Rexmit", "Drops", "L/O/Q", "Sec", "Infl%"],
            );
            for c in group {
                let infl = inflation_pct(cells, c)
                    .map(|v| format!("{v:+.1}"))
                    .unwrap_or_else(|| "-".to_string());
                t.push_row(
                    &c.point.label(),
                    vec![
                        c.cell.packets().to_string(),
                        c.cell.retransmits.to_string(),
                        c.cell.drops.to_string(),
                        format!(
                            "{}/{}/{}",
                            c.cell.drops_loss, c.cell.drops_outage, c.cell.drops_queue
                        ),
                        format!("{:.2}", c.cell.secs),
                        infl,
                    ],
                );
            }
            tables.push(t);
        }
    }
    tables
}

/// A stable digest of a rendered robustness report — two runs of the
/// same grid must agree bit-for-bit, regardless of thread count.
pub fn report_digest(cells: &[RobustnessCell]) -> u64 {
    digest::tables(&report(cells))
}

// ---------------------------------------------------------------------
// Jitter / reordering study
// ---------------------------------------------------------------------

/// Jitter magnitudes of the study, in milliseconds (uniform 0..max, with
/// reordering allowed).
pub const JITTER_GRID_MS: [u64; 3] = [0, 5, 25];

/// One coordinate of the jitter study: WAN first-time retrieval with
/// uniform delay jitter and reordering enabled, zero loss.
#[derive(Debug, Clone, Copy)]
pub struct JitterPoint {
    /// Protocol setup under test.
    pub setup: ProtocolSetup,
    /// Maximum extra per-packet delay, in milliseconds.
    pub jitter_ms: u64,
}

impl JitterPoint {
    /// Stable per-point seed.
    pub fn seed(&self) -> u64 {
        let key = format!("jitter|{}|{}", self.setup.label(), self.jitter_ms);
        digest::of(key.as_bytes())
    }

    /// The cell specification.
    pub fn spec(&self) -> CellSpec {
        let mut spec = matrix_spec(
            NetEnv::Wan,
            ServerKind::Apache,
            self.setup,
            Scenario::FirstTime,
        );
        let mut impair = ImpairConfig::none().with_seed(self.seed());
        if self.jitter_ms > 0 {
            impair = impair
                .with_jitter(JitterModel::Uniform {
                    min: SimDuration::ZERO,
                    max: SimDuration::from_millis(self.jitter_ms),
                })
                .with_reorder(true);
        }
        spec.impair = Some(impair);
        spec
    }
}

/// The jitter grid: every setup × every jitter magnitude (9 cells).
pub fn jitter_grid() -> Vec<JitterPoint> {
    SETUPS
        .iter()
        .flat_map(|&setup| {
            JITTER_GRID_MS
                .iter()
                .map(move |&jitter_ms| JitterPoint { setup, jitter_ms })
        })
        .collect()
}

/// Run the jitter study over [`jitter_grid`].
pub fn jitter_study() -> Vec<(JitterPoint, CellResult)> {
    let points = jitter_grid();
    let specs = points.iter().map(|p| p.spec()).collect();
    points.into_iter().zip(run_cells(specs)).collect()
}

/// Render the jitter study.
pub fn jitter_table(results: &[(JitterPoint, CellResult)]) -> Table {
    let mut t = Table::new(
        "Robustness - Apache - WAN first-time retrieval under jitter/reordering",
        &["Pa", "Rexmit", "Reorders", "Sec"],
    );
    for (p, cell) in results {
        t.push_row(
            &format!("{} @ jitter 0..{}ms", p.setup.label(), p.jitter_ms),
            vec![
                cell.packets().to_string(),
                cell.retransmits.to_string(),
                cell.reorders.to_string(),
                format!("{:.2}", cell.secs),
            ],
        );
    }
    t
}

/// The robustness section of EXPERIMENTS.md: the full loss grid and the
/// jitter study.
pub(crate) fn section() -> String {
    let cells = run_points(&full_grid());
    let mut blocks: Vec<String> = report(&cells).iter().map(Table::render).collect();
    blocks.push(jitter_table(&jitter_study()).render());
    format!(
        "## Robustness under packet loss and jitter (`repro robustness`)\n\n\
         Beyond the paper: the same protocol matrix (Apache) rerun over impaired\n\
         links — seeded-deterministic Bernoulli and Gilbert–Elliott (burst) loss\n\
         at 0.5/2/5%, plus a jitter/reordering study. `Infl%` is elapsed-time\n\
         inflation over the zero-loss row of the same protocol. The shape to\n\
         notice: pipelining concentrates the page on one TCP connection, so each\n\
         lost packet stalls *everything* behind it (head-of-line blocking) and\n\
         costs more inflation per drop than HTTP/1.0's four parallel connections\n\
         — yet at moderate loss rates pipelining still wins outright, because it\n\
         has far fewer packets to lose and no per-object handshake tax.\n\n{}\n\
         Report digest of the full grid above (the reduced grid's is pinned by\n\
         `gate`'s `robustness` entry): `{:#018x}`.\n",
        super::fenced(&blocks),
        report_digest(&cells)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_shape() {
        let g = full_grid();
        // 3 envs x 2 scenarios x 3 setups x (1 + 3*2) loss-shape combos.
        assert_eq!(g.len(), 126);
        // Zero-loss points exist exactly once per (env, scenario, setup).
        let zeros = g.iter().filter(|p| p.loss_pct == 0.0).count();
        assert_eq!(zeros, 18);
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let g = reduced_grid();
        let seeds: Vec<u64> = g.iter().map(|p| p.seed()).collect();
        let again: Vec<u64> = g.iter().map(|p| p.seed()).collect();
        assert_eq!(seeds, again, "seed derivation is pure");
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "every point gets its own seed");
    }

    #[test]
    fn zero_loss_impairment_is_inert_but_installed() {
        let p = RobustnessPoint {
            env: NetEnv::Wan,
            setup: ProtocolSetup::Http11Pipelined,
            scenario: Scenario::FirstTime,
            loss_pct: 0.0,
            shape: LossShape::Uniform,
            cc: CcVariant::Reno,
        };
        let imp = p.impairment();
        assert!(
            !imp.is_passthrough(),
            "zero-loss rows still run the pipeline"
        );
        assert_eq!(imp.loss, LossModel::Bernoulli { p: 0.0 });
    }
}
