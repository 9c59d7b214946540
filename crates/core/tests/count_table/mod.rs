//! Every exact count the workspace pins on the allocator, in one table,
//! and the harness that measures a row.
//!
//! A row is one measured run: the packets it carried (or, for a reader of
//! a finished trace, the records it read; 0 where no packet is involved)
//! and what the run cost the allocator — allocations, bytes requested,
//! and the live heap it added at its worst. Each run is counted on its
//! group's thread after one warm-up run of the same thing, which primes
//! code paths and the thread-local buffer pools. The simulation is
//! deterministic and `counts.rs` measures the groups in a fixed order, so
//! every count repeats exactly, in debug and release builds alike.
//!
//! The table is grouped by what the rows measure, and each group by the
//! function of the same name in `counts.rs`, which says what its rows
//! cost and what moves them. A mismatch names the first row that moved
//! in each group and its fields, then prints the group as measured in
//! [`TABLE`]'s syntax: a change meant to move a count replaces the group
//! with it.

use counting_alloc::{allocated_bytes, allocations, peak_live_bytes, reset_peak};
use std::fmt::Write;

/// Group, then its rows: name, then `[packets, allocations, allocated
/// bytes, peak live bytes]`.
type Group = (&'static str, &'static [(&'static str, [u64; 4])]);

const TABLE: &[Group] = &[
    (
        "alloc_budget",
        &[
            ("wire round trip", [0, 3, 1_072, 1_072]),
            ("wire build", [0, 0, 0, 0]),
            ("wire to_bytes", [0, 1, 256, 256]),
            ("wire parse", [0, 0, 0, 0]),
            ("mux 64 streams", [0, 131, 78_160, 48_904]),
        ],
    ),
    (
        "counts",
        &[
            ("matrix", [8_870, 10_905, 3_353_896, 76_515]),
            ("fleet16", [8_384, 10_155, 3_536_380, 933_189]),
            ("cc lossy", [8_287, 8_763, 2_127_752, 67_260]),
        ],
    ),
    (
        "head_alloc",
        &[
            ("head pipelined", [210, 287, 87_455, 56_819]),
            ("head mux", [281, 369, 79_583, 51_301]),
            ("head revalidate", [429, 302, 84_951, 53_187]),
        ],
    ),
    (
        "body_alloc",
        &[
            ("body 1.1 1K", [9, 50, 32_572, 32_032]),
            ("body 1.1 1M", [1_109, 57, 186_455, 185_723]),
            ("body pipelined 1K", [9, 50, 32_572, 32_032]),
            ("body pipelined 1M", [1_109, 57, 186_455, 185_723]),
            ("body mux 1K", [13, 64, 36_460, 34_967]),
            ("body mux 1M", [1_196, 274, 219_519, 201_615]),
        ],
    ),
    (
        "check_alloc",
        &[
            ("check 1.1 1K", [9, 13, 2_212, 2_212]),
            ("check 1.1 1M", [1_109, 15, 121_180, 121_180]),
            ("check pipelined 1K", [9, 13, 2_212, 2_212]),
            ("check pipelined 1M", [1_109, 15, 121_180, 121_180]),
            ("check mux 1K", [13, 23, 3_764, 3_380]),
            ("check mux 1M", [1_196, 114, 261_400, 203_520]),
            ("fleet10", [9_198, 7_417, 1_798_770, 822_437]),
            ("fleet10 sink", [9_198, 7_764, 2_787_410, 1_794_565]),
            ("fleet10 trace", [9_198, 7_459, 2_911_506, 1_987_445]),
            ("check fleet10", [9_198, 2_778, 1_156_928, 116_744]),
            ("pcapng fleet10", [9_198, 1, 3_818_700, 3_818_700]),
        ],
    ),
];

const FIELDS: [&str; 4] = ["packets", "allocations", "bytes", "peak"];

/// What the allocator saw over one counted run.
pub struct Cost {
    pub allocations: u64,
    pub bytes: u64,
    pub peak: u64,
}

/// Run `run` on what `make` builds twice, the first time to warm up, and
/// return the second run's output and cost. What `make` builds, and
/// dropping the output, are not counted.
pub fn measure<S, T>(mut make: impl FnMut() -> S, mut run: impl FnMut(S) -> T) -> (T, Cost) {
    drop(run(make()));
    let input = make();
    let live = reset_peak();
    let before = (allocations(), allocated_bytes());
    let out = run(input);
    let cost = Cost {
        allocations: allocations() - before.0,
        bytes: allocated_bytes() - before.1,
        peak: peak_live_bytes() - live,
    };
    (out, cost)
}

/// One group of the table as measured, in measuring order.
pub struct Measured {
    group: &'static str,
    rows: Vec<(String, [u64; 4])>,
}

impl Measured {
    /// An empty measurement of [`TABLE`]'s `group`.
    pub fn new(group: &'static str) -> Self {
        Measured {
            group,
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, name: impl Into<String>, packets: u64, cost: Cost) {
        let counts = [packets, cost.allocations, cost.bytes, cost.peak];
        self.rows.push((name.into(), counts));
    }

    fn mismatch(&self) -> Option<String> {
        let (_, table) = TABLE
            .iter()
            .find(|(group, _)| *group == self.group)
            .expect("a group of the table");
        let rows = self.rows.len().max(table.len());
        let mut why = (0..rows).find_map(|i| match (self.rows.get(i), table.get(i)) {
            (Some((name, _)), Some((pinned, _))) if name != pinned => Some(format!(
                "row {i} measured `{name}`; the table has `{pinned}`"
            )),
            (Some((name, counts)), Some((_, pinned))) if counts != pinned => {
                let moved: Vec<String> = FIELDS
                    .iter()
                    .zip(pinned.iter().zip(counts))
                    .filter(|(_, (was, is))| was != is)
                    .map(|(field, (was, is))| {
                        format!("{field} {} -> {}", grouped(*was), grouped(*is))
                    })
                    .collect();
                Some(format!("row `{name}` moved: {}", moved.join(", ")))
            }
            (Some((name, _)), None) => Some(format!("row `{name}` is not in the table")),
            (None, Some((name, _))) => Some(format!("row `{name}` was not measured")),
            _ => None,
        })?;
        let _ = writeln!(
            why,
            "\nmeasured:\n    (\n        \"{}\",\n        &[",
            self.group
        );
        for (name, counts) in &self.rows {
            let counts: Vec<String> = counts.iter().map(|&c| grouped(c)).collect();
            let _ = writeln!(why, "            (\"{name}\", [{}]),", counts.join(", "));
        }
        why.push_str("        ],\n    ),");
        Some(why)
    }
}

/// Panic unless `measured` holds [`TABLE`]'s groups in order, each as
/// pinned, naming every group that differs.
pub fn verify(measured: &[Measured]) {
    let groups: Vec<&str> = measured.iter().map(|m| m.group).collect();
    let pinned: Vec<&str> = TABLE.iter().map(|(group, _)| *group).collect();
    assert_eq!(groups, pinned, "the groups measured");
    let why: Vec<String> = measured.iter().filter_map(Measured::mismatch).collect();
    assert!(why.is_empty(), "{}", why.join("\n\n"));
}

/// `1234567` as `1_234_567`.
fn grouped(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push('_');
        }
        out.push(c);
    }
    out
}
