//! The model's distance from its reference: simulated packets, bytes
//! and seconds of the 44 matrix cells against the paper's Tables 4–9.
//! Simulated quantities only — host speed does not enter.

use crate::pass::PassFacts;
use crate::plan::{Cell, Item};

const TABLES: &str = include_str!("../reference/paper_tables_4_9.tsv");

/// One row of the reference.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperRow {
    pub env: String,
    pub server: String,
    pub setup: String,
    pub scenario: String,
    pub packets: f64,
    pub bytes: f64,
    pub seconds: f64,
}

impl PaperRow {
    fn is_for(&self, cell: &Cell) -> bool {
        let same = |col: &str, debug: String| col.eq_ignore_ascii_case(&debug);
        same(&self.env, format!("{:?}", cell.env))
            && same(&self.server, format!("{:?}", cell.server))
            && same(&self.setup, format!("{:?}", cell.setup))
            && same(&self.scenario, format!("{:?}", cell.content))
    }
}

/// Parse the committed reference table.
pub fn reference() -> Vec<PaperRow> {
    TABLES
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|line| {
            let cols: Vec<&str> = line.split('\t').collect();
            assert_eq!(cols.len(), 7, "reference row has seven columns: {line}");
            let num = |s: &str| -> f64 { s.parse().expect("reference numbers parse") };
            PaperRow {
                env: cols[0].into(),
                server: cols[1].into(),
                setup: cols[2].into(),
                scenario: cols[3].into(),
                packets: num(cols[4]),
                bytes: num(cols[5]),
                seconds: num(cols[6]),
            }
        })
        .collect()
}

/// Mean absolute relative error, in percent, per quantity and overall.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperError {
    pub packets_pct: f64,
    pub bytes_pct: f64,
    pub seconds_pct: f64,
    pub cells: usize,
}

impl PaperError {
    /// The mean of the three components: the `paper_err_pct` metric.
    pub fn overall_pct(&self) -> f64 {
        (self.packets_pct + self.bytes_pct + self.seconds_pct) / 3.0
    }
}

/// Compare a pass over the matrix plan against the reference. Panics if
/// a reference row has no cell or a cell no row: the two are committed
/// together.
pub fn error(items: &[Item], pass: &PassFacts) -> PaperError {
    let rows = reference();
    assert_eq!(rows.len(), items.len(), "one reference row per matrix cell");
    let (mut packets, mut bytes, mut seconds) = (0.0, 0.0, 0.0);
    for (item, facts) in items.iter().zip(&pass.items) {
        let Item::Cell(cell) = item else {
            panic!("the matrix plan holds cells only")
        };
        let row = rows
            .iter()
            .find(|r| r.is_for(cell))
            .unwrap_or_else(|| panic!("no reference row for {}", item.label()));
        let got = facts.clients[0];
        let rel = |sim: f64, paper: f64| ((sim - paper) / paper).abs() * 100.0;
        packets += rel(got.packets as f64, row.packets);
        bytes += rel(got.wire_bytes as f64, row.bytes);
        seconds += rel(got.sim_secs, row.seconds);
    }
    let n = items.len() as f64;
    PaperError {
        packets_pct: packets / n,
        bytes_pct: bytes / n,
        seconds_pct: seconds / n,
        cells: items.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan;

    #[test]
    fn the_reference_has_44_distinct_rows_matching_the_matrix_plan() {
        let rows = reference();
        assert_eq!(rows.len(), 44);
        for item in plan::matrix(false) {
            let Item::Cell(cell) = item else {
                unreachable!()
            };
            let hits = rows.iter().filter(|r| r.is_for(&cell)).count();
            assert_eq!(hits, 1, "{}", item.label());
        }
        assert!(rows
            .iter()
            .all(|r| r.packets > 0.0 && r.bytes > 0.0 && r.seconds > 0.0));
    }
}
