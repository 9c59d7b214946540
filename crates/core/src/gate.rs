//! The one gate: a registry of experiments run at [`Size::Gate`], each
//! with a pinned digest, and the runner they share.
//!
//! A gate is a function that runs its points once on a given number of
//! threads, makes whatever assertions the digest cannot (lossy cells
//! really retransmit, the checker really saw traffic, …) and reduces the
//! results to one digest and one digest per grid point. [`check`] runs it
//! twice: on the cell pool (at least two workers; `HTTPIPE_THREADS` sets
//! the size), then serially. The passes must agree point for point — the
//! first point that differs is named — *and* equal the digest pinned in
//! [`REGISTRY`], so a change that moves a number cannot pass by merely
//! being repeatable. A pass that panics fails its gate with the panic's
//! message; the other gates still run. The pins live here and nowhere
//! else; a deliberate behaviour change re-pins one line.
//!
//! `cargo run --release -p httpipe-bench --bin gate [NAME…]` runs the
//! registry (CI's one gate step); `tests/gates.rs` runs it under tier-1.

use crate::digest::{self, Fnv1a};
use crate::env::NetEnv;
use crate::experiments::probe::ProbeCell;
use crate::experiments::robustness::RobustnessCell;
use crate::experiments::scale::ScaleCell;
use crate::experiments::{cc, mux, probe, protocol_matrix, robustness, scale, telemetry, Size};
use crate::harness::{
    panic_message, run_cells_map, run_cells_threaded, run_spec_checked, worker_threads,
    ProtocolSetup,
};
use crate::result::CellResult;
use netsim::{CcVariant, TraceMode};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What one pass of a gate produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pass {
    /// Digest of the pass's results: the number [`REGISTRY`] pins.
    pub digest: u64,
    /// One `(label, digest)` per grid point, in grid order: the point's
    /// coordinates, and every field of the results behind it.
    pub points: Vec<(String, u64)>,
    /// Free-form figures for the log line (may vary with pool warmth, so
    /// they are kept out of the JSON summary).
    pub detail: String,
}

/// One registry entry.
pub struct Gate {
    /// Name on the command line and in the summary.
    pub name: &'static str,
    /// The digest both passes must produce.
    pub pinned: u64,
    /// Run the gate's points once on this many threads; `Err` is a failed
    /// assertion.
    pub pass: fn(usize) -> Result<Pass, String>,
}

/// Why a gate failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// An assertion inside a pass failed, or the pass panicked.
    Check(String),
    /// The pooled and serial passes differ.
    PassesDiffer {
        /// The first grid point whose digests differ (one past the last
        /// when only the whole-grid digests do).
        index: usize,
        /// That point's label.
        label: String,
    },
    /// The passes agree with each other but not with the pin.
    PinMismatch,
}

/// The outcome of running one gate through [`check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The gate's name.
    pub name: &'static str,
    /// The digest the registry pins.
    pub pinned: u64,
    /// The pooled pass (empty if a pass failed an assertion).
    pub pass: Pass,
    /// `None` when the gate passed.
    pub failure: Option<Failure>,
}

impl Verdict {
    /// Whether the gate passed.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Verdict { name, pinned, .. } = self;
        let Pass { digest, detail, .. } = &self.pass;
        match &self.failure {
            None => {
                let cells = self.pass.points.len();
                write!(f, "ok   {name:<11} {cells:>2} cells  {digest:#018x}")?;
                if !detail.is_empty() {
                    write!(f, "  {detail}")?;
                }
                Ok(())
            }
            Some(Failure::Check(why)) => write!(f, "FAIL {name}: {why}"),
            Some(Failure::PassesDiffer { index, label }) => write!(
                f,
                "FAIL {name}: nondeterministic, the pooled and serial passes differ first at \
                 point {index} ({label})"
            ),
            Some(Failure::PinMismatch) => write!(
                f,
                "FAIL {name}: digest {digest:#018x} on both passes != pinned {pinned:#018x}"
            ),
        }
    }
}

/// The shared runner: a pooled and a serial pass that must agree point
/// for point and equal the pin. A panic in either pass is a
/// [`Failure::Check`].
pub fn check(
    name: &'static str,
    pinned: u64,
    pass: impl Fn(usize) -> Result<Pass, String>,
) -> Verdict {
    let run = |threads| {
        catch_unwind(AssertUnwindSafe(|| pass(threads)))
            .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_message(&*payload))))
    };
    let pool = worker_threads(usize::MAX).max(2);
    let (pooled, failure) = match run(pool).and_then(|pooled| Ok((pooled, run(1)?))) {
        Err(why) => (Pass::default(), Some(Failure::Check(why))),
        Ok((pooled, serial)) => {
            let failure = match first_difference(&pooled, &serial) {
                Some((index, label)) => Some(Failure::PassesDiffer { index, label }),
                None if pooled.digest != pinned => Some(Failure::PinMismatch),
                None => None,
            };
            (pooled, failure)
        }
    };
    Verdict {
        name,
        pinned,
        pass: pooled,
        failure,
    }
}

/// The first grid point at which two passes differ: its index and label.
fn first_difference(a: &Pass, b: &Pass) -> Option<(usize, String)> {
    let index = match a.points.iter().zip(&b.points).position(|(x, y)| x != y) {
        Some(index) => index,
        None if a.points.len() == b.points.len() && a.digest == b.digest => return None,
        None => a.points.len().min(b.points.len()),
    };
    let label = a.points.get(index).or(b.points.get(index));
    let label = label.map_or("the grid as a whole", |(label, _)| label);
    Some((index, label.to_string()))
}

impl Gate {
    /// Run this gate through [`check`].
    pub fn run(&self) -> Verdict {
        check(self.name, self.pinned, self.pass)
    }
}

/// Resolve command-line names to registry entries (all of them when
/// `names` is empty). An unknown name is an error listing the valid ones.
pub fn select(names: &[String]) -> Result<Vec<&'static Gate>, String> {
    if names.is_empty() {
        return Ok(REGISTRY.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            REGISTRY.iter().find(|g| g.name == name).ok_or_else(|| {
                let valid: Vec<&str> = REGISTRY.iter().map(|g| g.name).collect();
                format!("no gate named `{name}`; valid names: {}", valid.join(" "))
            })
        })
        .collect()
}

/// The one-line JSON summary: deterministic fields only, so two runs of
/// an unchanged tree under the same thread count print the same line
/// whatever the host. `threads` is [`crate::harness::worker_threads`]'s
/// pool size for an unbounded grid; `cells` counts the grid points.
pub fn summary_json(threads: usize, verdicts: &[Verdict]) -> String {
    let gates: Vec<String> = verdicts
        .iter()
        .map(|v| {
            format!(
                "{{\"name\": \"{}\", \"cells\": {}, \"digest\": \"{:#018x}\", \
                 \"pinned\": \"{:#018x}\", \"ok\": {}}}",
                v.name,
                v.pass.points.len(),
                v.pass.digest,
                v.pinned,
                v.ok()
            )
        })
        .collect();
    format!(
        "{{\"threads\": {threads}, \"gates\": [{}]}}",
        gates.join(", ")
    )
}

/// Every gate, in the order they run.
///
/// `robustness`, `mux` and `scale` carry the seed's digests, captured
/// before `netsim::cc` existed (`cc_differential.rs`); the first two were
/// re-pinned once each when their reports grew a column (drops by reason;
/// cancelled push bytes) — rendering only, the cells behind them are
/// covered by the telemetry identity tests and the unchanged scale digest.
/// `telemetry` was re-pinned once when a timer re-armed or cancelled
/// since it was queued stopped running `apply_effects` (PR 25): its
/// `flight_bytes_hist` rows counted those no-ops, and nothing else moved.
pub static REGISTRY: [Gate; 9] = [
    Gate {
        name: "robustness",
        pinned: 0x7c6c_bcfa_68ca_f65b,
        pass: robustness_pass,
    },
    Gate {
        name: "conformance",
        pinned: 0x8a04_986a_f899_d1df,
        pass: conformance_pass,
    },
    Gate {
        name: "scale",
        pinned: 0x4dd4_ba02_5900_c56e,
        pass: scale_pass,
    },
    Gate {
        name: "mux",
        pinned: 0xb978_ca3e_2c17_9e3d,
        pass: mux_pass,
    },
    Gate {
        name: "cc",
        pinned: 0xc1b4_e534_0e81_f033,
        pass: cc_pass,
    },
    Gate {
        name: "probe",
        pinned: 0x7cc6_33dc_7b6b_9847,
        pass: probe_pass,
    },
    Gate {
        name: "telemetry",
        pinned: 0xede9_2141_86d6_32f7,
        pass: telemetry_pass,
    },
    Gate {
        name: "matrix",
        pinned: 0xbcfa_8af8_8a22_6233,
        pass: matrix_pass,
    },
    Gate {
        name: "fleet16",
        pinned: 0x12ee_f1b8_1b43_c839,
        pass: fleet16_pass,
    },
];

fn ensure(holds: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(why())
    }
}

fn ensure_clean(report: &conformance::Report, what: &str) -> Result<(), String> {
    ensure(report.is_clean(), || {
        let mut why = format!("{what}: {}", report.summary());
        for v in &report.violations {
            why.push_str(&format!("\n  {v}"));
        }
        why
    })
}

/// One [`Pass::points`] entry: the coordinate's `Debug` text, and the
/// digest of every field of the cells behind it followed by `extra`.
fn point(at: &dyn fmt::Debug, cells: &[CellResult], extra: &[u8]) -> (String, u64) {
    let mut h = Fnv1a::new();
    h.write(&digest::cells(cells).to_le_bytes());
    h.write(extra);
    (format!("{at:?}"), h.finish())
}

fn robustness_points(cells: &[RobustnessCell]) -> Vec<(String, u64)> {
    cells
        .iter()
        .map(|c| point(&c.point, &[c.cell], &[]))
        .collect()
}

/// A fleet's clients, and the server's peak connections and SYN drops.
fn scale_point(c: &ScaleCell) -> (String, u64) {
    let server = [c.peak_connections, c.syn_drops].map(u64::to_le_bytes);
    point(&c.point, &c.per_client, &server.concat())
}

/// A cell, and its `PROBE_*.json` document.
fn probe_point(c: &ProbeCell) -> (String, u64) {
    let json = c.analysis.render_json(&c.point.id());
    point(&c.point, &[c.cell], json.as_bytes())
}

/// The impairment pipeline: the robustness grid (18 cells), whose lossy
/// cells must actually lose and repair packets.
fn robustness_pass(threads: usize) -> Result<Pass, String> {
    let cells = robustness::run_points(&robustness::points(Size::Gate), Some(threads));
    let lossy_rexmit: u64 = cells
        .iter()
        .filter(|c| c.point.loss_pct > 0.0)
        .map(|c| c.cell.retransmits)
        .sum();
    ensure(lossy_rexmit > 0, || {
        "lossy cells produced no retransmissions at all".into()
    })?;
    Ok(Pass {
        digest: robustness::report_digest(&cells),
        points: robustness_points(&cells),
        detail: format!("{lossy_rexmit} lossy-cell retransmissions"),
    })
}

/// Every TCP and HTTP invariant over the full unimpaired matrix, the
/// robustness gate grid and the jitter/reordering grid (44 + 18 + 9
/// cells). The digest is over the checker's traffic counts.
fn conformance_pass(threads: usize) -> Result<Pass, String> {
    let keys: Vec<_> = protocol_matrix::matrix_keys().collect();
    let lossy = robustness::points(Size::Gate);
    let jitter = robustness::jitter_grid();
    let mut specs = protocol_matrix::all_specs(TraceMode::Full);
    specs.extend(lossy.iter().map(|p| p.spec()));
    specs.extend(jitter.iter().map(|p| p.spec()));
    let checked = run_cells_map(specs, Some(threads), |spec| {
        let (out, report) = run_spec_checked(spec);
        (out.cell, report)
    });
    let mut report = conformance::Report::default();
    let mut cells = Vec::with_capacity(checked.len());
    for (cell, checked) in checked {
        report.merge(checked);
        cells.push(cell);
    }
    ensure_clean(&report, "conformance violations")?;
    ensure(
        report.connections > 0 && report.segments > 0 && report.http_requests > 0,
        || "checker saw no traffic: trace plumbing is broken".into(),
    )?;
    let mut h = Fnv1a::new();
    for count in [report.connections, report.segments, report.http_requests] {
        h.write(&(count as u64).to_le_bytes());
    }
    let coordinates = (keys.iter().map(|k| k as &dyn fmt::Debug))
        .chain(lossy.iter().map(|p| p as &dyn fmt::Debug))
        .chain(jitter.iter().map(|p| p as &dyn fmt::Debug));
    Ok(Pass {
        digest: h.finish(),
        points: coordinates
            .zip(&cells)
            .map(|(at, c)| point(at, &[*c], &[]))
            .collect(),
        detail: report.summary(),
    })
}

/// The fleet engine: LAN+WAN × three setups × N ∈ {1, 16, 64}. The
/// contended cells must really contend — at N=64 the slowest client is
/// slower than a lone one — yet everyone fetches the whole site.
fn scale_pass(threads: usize) -> Result<Pass, String> {
    let cells = scale::run_points(&scale::points(Size::Gate), Some(threads));
    for big in cells.iter().filter(|c| c.point.n_clients == 64) {
        let lone = cells
            .iter()
            .find(|c| {
                c.point.env == big.point.env
                    && c.point.setup == big.point.setup
                    && c.point.n_clients == 1
            })
            .ok_or_else(|| format!("{:?}: no N=1 anchor in the grid", big.point))?;
        ensure(big.p99 > lone.p50, || {
            format!("{:?}: 64 contending clients no slower than one", big.point)
        })?;
        ensure(big.fetched == 64 * lone.fetched, || {
            format!("{:?}: some client fell short of the full site", big.point)
        })?;
    }
    Ok(Pass {
        digest: scale::report_digest(&cells),
        points: cells.iter().map(scale_point).collect(),
        detail: String::new(),
    })
}

/// The framed transports: LAN matrix table, WAN loss grid with its
/// shared-fate extract, LAN stall probe. The push row must be live, the
/// lossy cells must retransmit, and every loss cell must still move more
/// than 100 000 bytes.
fn mux_pass(threads: usize) -> Result<Pass, String> {
    let cells = mux::run_points(&mux::points(Size::Gate), Some(threads));
    let tables = mux::report(&cells);
    let matrix = tables[0].render();
    ensure(
        matrix.contains(ProtocolSetup::MultiplexedPush.label()),
        || format!("matrix table lost its push row:\n{matrix}"),
    )?;
    let lossy = cells.loss.iter().filter(|c| c.point.loss_pct > 0.0);
    ensure(lossy.map(|c| c.cell.retransmits).sum::<u64>() > 0, || {
        "lossy mux cells never retransmitted".into()
    })?;
    if let Some(c) = cells.loss.iter().find(|c| c.cell.bytes <= 100_000) {
        return Err(format!(
            "{} moved only {} bytes",
            c.point.label(),
            c.cell.bytes
        ));
    }
    let mut points: Vec<_> = cells
        .matrix
        .iter()
        .map(|(k, c)| point(k, &[*c], &[]))
        .collect();
    points.extend(robustness_points(&cells.loss));
    points.extend(cells.fleets.iter().map(scale_point));
    points.extend(cells.probe.iter().map(probe_point));
    Ok(Pass {
        digest: digest::tables(&tables),
        points,
        detail: format!("{} tables", tables.len()),
    })
}

/// The congestion-control lab: 3 setups × {0, 2}% loss × 4 variants. Each
/// variant's lossy pipelined cell retransmits and is replayed clean under
/// the full conformance checker (per-variant invariants included), and
/// the 2% recovery ordering holds.
fn cc_pass(threads: usize) -> Result<Pass, String> {
    let cells = robustness::run_points(&cc::points(Size::Gate), Some(threads));
    let lossy_pipelined: Vec<&RobustnessCell> = cells
        .iter()
        .filter(|c| c.point.loss_pct > 0.0 && c.point.setup == ProtocolSetup::Http11Pipelined)
        .collect();
    let specs = lossy_pipelined.iter().map(|c| c.point.spec()).collect();
    let reports = run_cells_map(specs, Some(threads), |spec| run_spec_checked(spec).1);
    for (c, report) in lossy_pipelined.iter().zip(&reports) {
        let variant = c.point.cc.label();
        ensure_clean(report, variant)?;
        ensure(c.cell.retransmits > 0, || {
            format!("{variant}: lossy pipelined cell had no retransmissions")
        })?;
    }
    recovery_ordering(&cells)?;
    Ok(Pass {
        digest: digest::tables(&cc::report(&cells)),
        points: robustness_points(&cells),
        detail: format!("{} variants checked clean", reports.len()),
    })
}

/// The measured ordering at 2% WAN loss (every variant faces the same
/// impairment draws): on the single pipelined connection NewReno and SACK
/// beat Reno's inflation by over 50 points and CUBIC by over 20, and SACK
/// is no worse than NewReno; on HTTP/1.0's four short connections Reno
/// and NewReno are within 5 points. Recovery pays precisely where the
/// paper's preferred transport concentrates traffic.
fn recovery_ordering(cells: &[RobustnessCell]) -> Result<(), String> {
    let inflation = |setup, cc: CcVariant| {
        cc::variant_inflation(cells, setup, 2.0, cc)
            .ok_or_else(|| format!("no 2% {setup:?} cell for {}", cc.label()))
    };
    let pipelined = |cc| inflation(ProtocolSetup::Http11Pipelined, cc);
    let [reno, newreno, sack, cubic] = [
        pipelined(CcVariant::Reno)?,
        pipelined(CcVariant::NewReno)?,
        pipelined(CcVariant::Sack)?,
        pipelined(CcVariant::Cubic)?,
    ];
    let http10_gap = (inflation(ProtocolSetup::Http10, CcVariant::Reno)?
        - inflation(ProtocolSetup::Http10, CcVariant::NewReno)?)
    .abs();
    ensure(
        reno - newreno > 50.0
            && reno - sack > 50.0
            && reno - cubic > 20.0
            && sack <= newreno + 1.0
            && http10_gap < 5.0,
        || {
            format!(
                "2% recovery ordering broken: pipelined inflation Reno {reno:.1}, NewReno \
                 {newreno:.1}, SACK {sack:.1}, CUBIC {cubic:.1}; HTTP/1.0 Reno-NewReno gap \
                 {http10_gap:.1}"
            )
        },
    )
}

/// The flight recorder: LAN × three setups; report table and every
/// `PROBE_*.json` document digested, buckets summing to elapsed ± 1 %.
fn probe_pass(threads: usize) -> Result<Pass, String> {
    let cells = probe::run_points(&probe::points(Size::Gate), Some(threads));
    for c in &cells {
        let (sum, secs) = (c.analysis.report.buckets.sum(), c.cell.secs);
        ensure((sum - secs).abs() <= secs * 0.01, || {
            format!("{:?}: buckets {sum} vs elapsed {secs}", c.point)
        })?;
    }
    Ok(Pass {
        digest: probe::report_digest(&cells),
        points: cells.iter().map(probe_point).collect(),
        detail: String::new(),
    })
}

/// The telemetry artefacts (JSON, CSV, pcapng), byte-for-byte against the
/// committed goldens; the capture must re-parse. Its two points are the
/// WAN cell (JSON and pcapng) and the N=8 fleet (CSV); it runs nothing
/// on the pool.
fn telemetry_pass(_threads: usize) -> Result<Pass, String> {
    let art = telemetry::smoke_artifacts();
    let dir = telemetry::goldens_dir();
    let mut h = Fnv1a::new();
    for (name, bytes) in art.files() {
        let path = dir.join(name);
        let golden = std::fs::read(&path)
            .map_err(|e| format!("cannot read golden {}: {e}", path.display()))?;
        ensure(bytes == golden.as_slice(), || {
            format!(
                "{name} differs from golden {} ({} vs {} bytes); run `repro bless` \
                 after an intentional change",
                path.display(),
                bytes.len(),
                golden.len()
            )
        })?;
        h.write(bytes);
    }
    let packets = netsim::pcapng::parse(&art.pcapng)
        .map_err(|e| format!("exported pcapng does not re-parse: {e:?}"))?;
    ensure(!packets.is_empty(), || "exported capture is empty".into())?;
    let cell = digest::of(&[art.json.as_bytes(), &art.pcapng].concat());
    Ok(Pass {
        digest: h.finish(),
        points: vec![
            ("WAN cell: smoke.json, smoke.pcapng".into(), cell),
            (
                "N=8 fleet: smoke.csv".into(),
                digest::of(art.csv.as_bytes()),
            ),
        ],
        detail: format!("{} packets re-parsed", packets.len()),
    })
}

/// The 44 cells of Tables 4–9, stats-only: every field of every cell
/// digested.
fn matrix_pass(threads: usize) -> Result<Pass, String> {
    let specs = protocol_matrix::all_specs(TraceMode::StatsOnly);
    let cells = run_cells_threaded(specs, Some(threads));
    let keys = protocol_matrix::matrix_keys();
    Ok(Pass {
        digest: digest::cells(&cells),
        points: keys
            .zip(&cells)
            .map(|(k, c)| point(&k, &[*c], &[]))
            .collect(),
        detail: String::new(),
    })
}

/// The scale engine's hot path: two 16-client WAN fleets (pipelined and
/// multiplexed) through the shared bottleneck, every client's cell
/// digested.
fn fleet16_pass(threads: usize) -> Result<Pass, String> {
    let points = scale::grid(
        &[NetEnv::Wan],
        &[ProtocolSetup::Http11Pipelined, ProtocolSetup::Multiplexed],
        &[16],
    );
    let cells = scale::run_points(&points, Some(threads));
    let clients: Vec<CellResult> = cells.iter().flat_map(|c| c.per_client.clone()).collect();
    Ok(Pass {
        digest: digest::cells(&clients),
        points: cells.iter().map(scale_point).collect(),
        detail: String::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(digest: u64) -> Result<Pass, String> {
        let points = ["p0", "p1", "p2"].map(|p| (p.to_string(), digest::of(p.as_bytes())));
        Ok(Pass {
            digest,
            points: points.to_vec(),
            detail: String::new(),
        })
    }

    #[test]
    fn agreeing_passes_at_the_pin_pass() {
        let v = check("fake", 0xabc, |_| fixed(0xabc));
        assert!(v.ok(), "{v}");
        assert_eq!(
            (v.pass.points.len(), v.pass.digest, v.pinned),
            (3, 0xabc, 0xabc)
        );
    }

    #[test]
    fn wrong_pin_names_the_gate_and_prints_both_digests() {
        let v = check("fake", 0xdef, |_| fixed(0xabc));
        assert_eq!(v.failure, Some(Failure::PinMismatch));
        let line = v.to_string();
        assert!(line.contains("FAIL fake"), "{line}");
        assert!(line.contains("0x0000000000000abc"), "{line}");
        assert!(line.contains("0x0000000000000def"), "{line}");
    }

    #[test]
    fn passes_that_disagree_fail_even_when_one_hits_the_pin() {
        let v = check("fake", 0xabc, |threads| {
            let mut pass = fixed(0xabc)?;
            pass.points[2].1 ^= threads as u64;
            Ok(pass)
        });
        let label = "p2".to_string();
        assert_eq!(v.failure, Some(Failure::PassesDiffer { index: 2, label }));
        let line = v.to_string();
        assert!(line.starts_with("FAIL fake: nondeterministic"), "{line}");
        assert!(line.ends_with("at point 2 (p2)"), "{line}");
    }

    #[test]
    fn a_failed_assertion_is_reported_verbatim() {
        let v = check("fake", 0xabc, |_| Err("no retransmissions".into()));
        assert_eq!(v.failure, Some(Failure::Check("no retransmissions".into())));
        assert_eq!(v.to_string(), "FAIL fake: no retransmissions");
    }

    #[test]
    fn a_panicking_pass_is_a_failed_verdict() {
        let v = check("fake", 0xabc, |_| -> Result<Pass, String> {
            panic!("boom")
        });
        assert_eq!(v.failure, Some(Failure::Check("panicked: boom".into())));
        // A cell that panics on a pool worker, re-raised by the pool.
        let v = check("fake", 0xabc, |threads| {
            run_cells_map((0..4).collect(), Some(threads), |i| {
                assert!(i != 2, "cell {i}")
            });
            fixed(0xabc)
        });
        let why = "panicked: job 2 of 4 panicked: cell 2";
        assert_eq!(v.failure, Some(Failure::Check(why.into())));
        assert!(summary_json(2, &[v]).ends_with("\"ok\": false}]}"));
    }

    #[test]
    fn selection_defaults_to_all_and_rejects_unknown_names() {
        assert_eq!(select(&[]).unwrap().len(), REGISTRY.len());
        let picked = select(&["mux".into(), "cc".into()]).unwrap();
        assert_eq!(
            picked.iter().map(|g| g.name).collect::<Vec<_>>(),
            ["mux", "cc"]
        );
        let err = select(&["no-such-name".into()]).err().unwrap();
        for gate in &REGISTRY {
            assert!(err.contains(gate.name), "{err}");
        }
    }

    #[test]
    fn summary_holds_only_the_deterministic_fields() {
        let v = check("fake", 0xdef, |_| fixed(0xabc));
        assert_eq!(
            summary_json(8, &[v]),
            "{\"threads\": 8, \"gates\": [{\"name\": \"fake\", \"cells\": 3, \
             \"digest\": \"0x0000000000000abc\", \"pinned\": \"0x0000000000000def\", \
             \"ok\": false}]}"
        );
    }

    /// So `repro | cmp EXPERIMENTS.md` covers every cell a gate runs.
    #[test]
    fn gate_points_are_full_points() {
        fn within<T: PartialEq + fmt::Debug>(gate: Vec<T>, full: Vec<T>) {
            for p in &gate {
                assert!(full.contains(p), "{p:?} is not a Size::Full point");
            }
        }
        within(
            robustness::points(Size::Gate),
            robustness::points(Size::Full),
        );
        within(cc::points(Size::Gate), cc::points(Size::Full));
        within(scale::points(Size::Gate), scale::points(Size::Full));
        within(probe::points(Size::Gate), probe::points(Size::Full));
        let (gate, full) = (mux::points(Size::Gate), mux::points(Size::Full));
        within(gate.matrix, full.matrix);
        within(gate.loss, full.loss);
        within(gate.fleets, full.fleets);
        within(gate.probe, full.probe);
    }
}
