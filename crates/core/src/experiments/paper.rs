//! The paper's published numbers as data, and the reproduction's
//! distance from them.
//!
//! `paper.tsv` holds every measured cell of Tables 3–11 and of the
//! §8.2.1 modem test, keyed by experiment id, row and scenario. The
//! sections of EXPERIMENTS.md print these rows beside the measured
//! cells; [`error`] scores measured cells against them.

use crate::result::CellResult;
use std::sync::OnceLock;

const TSV: &str = include_str!("paper.tsv");

/// One published cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Published {
    /// The experiment's id in [`super::REGISTRY`].
    pub id: &'static str,
    /// Protocol setup, browser or HTML variant, e.g. `Http11Pipelined`.
    pub row: &'static str,
    /// `FirstTime` or `Revalidate`.
    pub scenario: &'static str,
    /// Sockets used (Table 3 only).
    pub sockets: Option<f64>,
    /// Packets in both directions (5-run means, hence fractions).
    pub packets: f64,
    /// Wire bytes (not reported by Table 3 or the modem test).
    pub bytes: Option<f64>,
    /// Elapsed seconds.
    pub seconds: f64,
}

impl Published {
    /// `Pa / Bytes / Sec` as EXPERIMENTS.md prints the paper's column.
    pub(crate) fn triplet(&self) -> String {
        let bytes = self.bytes.expect("the row reports bytes");
        format!("{:.0} / {bytes:.0} / {:.2}", self.packets, self.seconds)
    }
}

/// Every published row, in file order.
pub fn published() -> &'static [Published] {
    static ROWS: OnceLock<Vec<Published>> = OnceLock::new();
    ROWS.get_or_init(|| {
        TSV.lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|line| {
                let cols: Vec<&'static str> = line.split('\t').collect();
                assert_eq!(cols.len(), 7, "a published row has seven columns: {line}");
                let num = |s: &str| -> Option<f64> {
                    (s != "-").then(|| s.parse().expect("published numbers parse"))
                };
                Published {
                    id: cols[0],
                    row: cols[1],
                    scenario: cols[2],
                    sockets: num(cols[3]),
                    packets: num(cols[4]).expect("every row reports packets"),
                    bytes: num(cols[5]),
                    seconds: num(cols[6]).expect("every row reports seconds"),
                }
            })
            .collect()
    })
}

/// The published row of one cell. Panics if the paper has none: the
/// sections and `paper.tsv` are committed together.
pub(crate) fn find(id: &str, row: &str, scenario: &str) -> &'static Published {
    published()
        .iter()
        .find(|p| p.id == id && p.row == row && p.scenario == scenario)
        .unwrap_or_else(|| panic!("no published row {id} {row} {scenario}"))
}

/// Mean absolute relative error against the published numbers, in
/// percent, per quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperError {
    /// Packets.
    pub packets_pct: f64,
    /// Wire bytes.
    pub bytes_pct: f64,
    /// Elapsed seconds.
    pub seconds_pct: f64,
    /// Cells scored.
    pub cells: usize,
}

impl PaperError {
    /// The mean of the three quantities: the ledger's `paper_err_pct`.
    pub fn overall_pct(&self) -> f64 {
        (self.packets_pct + self.bytes_pct + self.seconds_pct) / 3.0
    }
}

/// Score measured cells against their published rows: per quantity, the
/// mean over the cells of |measured − published| / published.
pub(crate) fn error<'a>(
    pairs: impl IntoIterator<Item = (&'a Published, &'a CellResult)>,
) -> PaperError {
    let rel = |sim: f64, paper: f64| ((sim - paper) / paper).abs() * 100.0;
    let (mut packets, mut bytes, mut seconds, mut n) = (0.0, 0.0, 0.0, 0);
    for (paper, cell) in pairs {
        packets += rel(cell.packets() as f64, paper.packets);
        bytes += rel(
            cell.bytes as f64,
            paper.bytes.expect("scored rows report bytes"),
        );
        seconds += rel(cell.secs, paper.seconds);
        n += 1;
    }
    let mean = |sum: f64| sum / n as f64;
    PaperError {
        packets_pct: mean(packets),
        bytes_pct: mean(bytes),
        seconds_pct: mean(seconds),
        cells: n,
    }
}
