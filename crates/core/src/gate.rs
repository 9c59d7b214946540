//! The one gate: a registry of reduced grids, each with a pinned digest,
//! and the runner they share.
//!
//! A gate is a function that runs its reduced grid once, makes whatever
//! assertions the digest cannot (lossy cells really retransmit, the
//! checker really saw traffic, …) and reduces the results to one digest.
//! [`check`] runs it twice: the passes must agree with each other —
//! determinism under whatever thread count `HTTPIPE_THREADS` selects —
//! *and* with the digest pinned in [`REGISTRY`], so a change that moves a
//! number cannot pass by merely being repeatable. The pins live here and
//! nowhere else; a deliberate behaviour change re-pins one line.
//!
//! `cargo run --release -p httpipe-bench --bin gate [NAME…]` runs the
//! registry (CI's one gate step); `tests/gates.rs` runs it under tier-1.

use crate::digest::{self, Fnv1a};
use crate::env::NetEnv;
use crate::experiments::{cc, mux, probe, protocol_matrix, robustness, scale, telemetry};
use crate::harness::{
    run_cells_checked, run_cells_threaded, run_fleet, run_spec_checked, ProtocolSetup,
};
use crate::result::CellResult;
use netsim::{CcVariant, TraceMode};
use std::fmt;

/// What one pass of a gate produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pass {
    /// Grid points behind the digest.
    pub cells: usize,
    /// Digest of the pass's results.
    pub digest: u64,
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
    /// Run the reduced grid once; `Err` is a failed assertion.
    pub pass: fn() -> Result<Pass, String>,
}

/// Why a gate failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// An assertion inside a pass failed.
    Check(String),
    /// The two passes produced different digests.
    PassesDiffer {
        /// Digest of the second pass (the verdict carries the first).
        second: u64,
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
    /// The first pass (all zero if it failed an assertion).
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
        let Pass {
            cells,
            digest,
            detail,
        } = &self.pass;
        match &self.failure {
            None => {
                write!(f, "ok   {name:<11} {cells:>2} cells  {digest:#018x}")?;
                if !detail.is_empty() {
                    write!(f, "  {detail}")?;
                }
                Ok(())
            }
            Some(Failure::Check(why)) => write!(f, "FAIL {name}: {why}"),
            Some(Failure::PassesDiffer { second }) => write!(
                f,
                "FAIL {name}: nondeterministic, pass 1 {digest:#018x} != pass 2 {second:#018x}"
            ),
            Some(Failure::PinMismatch) => write!(
                f,
                "FAIL {name}: digest {digest:#018x} on both passes != pinned {pinned:#018x}"
            ),
        }
    }
}

/// The shared runner: two passes that must agree and equal the pin.
pub fn check(
    name: &'static str,
    pinned: u64,
    mut pass: impl FnMut() -> Result<Pass, String>,
) -> Verdict {
    let passes = pass().and_then(|first| Ok((first, pass()?)));
    let (first, failure) = match passes {
        Err(why) => (Pass::default(), Some(Failure::Check(why))),
        Ok((first, second)) if first.digest != second.digest => {
            let second = second.digest;
            (first, Some(Failure::PassesDiffer { second }))
        }
        Ok((first, _)) if first.digest != pinned => (first, Some(Failure::PinMismatch)),
        Ok((first, _)) => (first, None),
    };
    Verdict {
        name,
        pinned,
        pass: first,
        failure,
    }
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
/// pool size for an unbounded grid.
pub fn summary_json(threads: usize, verdicts: &[Verdict]) -> String {
    let gates: Vec<String> = verdicts
        .iter()
        .map(|v| {
            format!(
                "{{\"name\": \"{}\", \"cells\": {}, \"digest\": \"{:#018x}\", \
                 \"pinned\": \"{:#018x}\", \"ok\": {}}}",
                v.name,
                v.pass.cells,
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

/// The impairment pipeline: the reduced WAN loss grid (18 cells), whose
/// lossy cells must actually lose and repair packets.
fn robustness_pass() -> Result<Pass, String> {
    let cells = robustness::run_points(&robustness::reduced_grid());
    let lossy_rexmit: u64 = cells
        .iter()
        .filter(|c| c.point.loss_pct > 0.0)
        .map(|c| c.cell.retransmits)
        .sum();
    ensure(lossy_rexmit > 0, || {
        "lossy cells produced no retransmissions at all".into()
    })?;
    Ok(Pass {
        cells: cells.len(),
        digest: robustness::report_digest(&cells),
        detail: format!("{lossy_rexmit} lossy-cell retransmissions"),
    })
}

/// Every TCP and HTTP invariant over the full unimpaired matrix, the
/// reduced loss grid and the jitter/reordering grid (44 + 18 + 9 cells).
/// The digest is over the checker's traffic counts.
fn conformance_pass() -> Result<Pass, String> {
    let mut specs = protocol_matrix::all_specs(TraceMode::Full);
    specs.extend(robustness::reduced_grid().iter().map(|p| p.spec()));
    specs.extend(robustness::jitter_grid().iter().map(|p| p.spec()));
    let (cells, report) = run_cells_checked(specs);
    ensure_clean(&report, "conformance violations")?;
    ensure(
        report.connections > 0 && report.segments > 0 && report.http_requests > 0,
        || "checker saw no traffic: trace plumbing is broken".into(),
    )?;
    let mut h = Fnv1a::new();
    for count in [report.connections, report.segments, report.http_requests] {
        h.write(&(count as u64).to_le_bytes());
    }
    Ok(Pass {
        cells: cells.len(),
        digest: h.finish(),
        detail: report.summary(),
    })
}

/// The fleet engine: LAN+WAN × three setups × N ∈ {1, 16, 64}. The
/// contended cells must really contend — at N=64 the slowest client is
/// slower than a lone one — yet everyone fetches the whole site.
fn scale_pass() -> Result<Pass, String> {
    let cells = scale::run_points(&scale::reduced_grid());
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
        cells: cells.len(),
        digest: scale::report_digest(&cells),
        detail: String::new(),
    })
}

/// The framed transports: LAN matrix table, reduced WAN loss grid with
/// its shared-fate extract, LAN stall probe. The push row must be live.
fn mux_pass() -> Result<Pass, String> {
    let tables = mux::reduced_report();
    let matrix = tables[0].render();
    ensure(
        matrix.contains(ProtocolSetup::MultiplexedPush.label()),
        || format!("matrix table lost its push row:\n{matrix}"),
    )?;
    Ok(Pass {
        cells: 2 * mux::SETUPS.len()
            + mux::reduced_loss_grid().len()
            + mux::reduced_probe_grid().len(),
        digest: digest::tables(&tables),
        detail: format!("{} tables", tables.len()),
    })
}

/// The congestion-control lab: 3 setups × {0, 2}% loss × 4 variants,
/// plus one lossy pipelined cell per variant replayed under the full
/// conformance checker (per-variant invariants included).
fn cc_pass() -> Result<Pass, String> {
    let cells = robustness::run_points(&cc::reduced_grid());
    for variant in cc::VARIANTS {
        let point = cells
            .iter()
            .map(|c| c.point)
            .find(|p| {
                p.cc == variant && p.loss_pct > 0.0 && p.setup == ProtocolSetup::Http11Pipelined
            })
            .ok_or_else(|| format!("no lossy pipelined cell for {}", variant.label()))?;
        let (_, report) = run_spec_checked(point.spec());
        ensure_clean(&report, variant.label())?;
    }
    let non_reno_rexmit: u64 = cells
        .iter()
        .filter(|c| c.point.cc != CcVariant::Reno && c.point.loss_pct > 0.0)
        .map(|c| c.cell.retransmits)
        .sum();
    ensure(non_reno_rexmit > 0, || {
        "non-Reno lossy cells produced no retransmissions at all".into()
    })?;
    Ok(Pass {
        cells: cells.len(),
        digest: digest::tables(&cc::report(&cells)),
        detail: format!("{} variants checked clean", cc::VARIANTS.len()),
    })
}

/// The flight recorder: LAN × three setups; report table and every
/// `PROBE_*.json` document digested, buckets summing to elapsed ± 1 %.
fn probe_pass() -> Result<Pass, String> {
    let cells = probe::run_points(&probe::reduced_grid());
    for cell in &cells {
        let sum = cell.analysis.report.buckets.sum();
        ensure((sum - cell.secs).abs() <= cell.secs * 0.01, || {
            format!("{:?}: buckets {sum} vs elapsed {}", cell.point, cell.secs)
        })?;
    }
    Ok(Pass {
        cells: cells.len(),
        digest: probe::report_digest(&cells),
        detail: String::new(),
    })
}

/// The telemetry artefacts (JSON, CSV, pcapng), byte-for-byte against the
/// committed goldens; the capture must re-parse.
fn telemetry_pass() -> Result<Pass, String> {
    let art = telemetry::smoke_artifacts();
    let dir = telemetry::goldens_dir();
    let mut h = Fnv1a::new();
    for (name, bytes) in art.files() {
        let path = dir.join(name);
        let golden = std::fs::read(&path)
            .map_err(|e| format!("cannot read golden {}: {e}", path.display()))?;
        ensure(bytes == golden.as_slice(), || {
            format!(
                "{name} differs from golden {} ({} vs {} bytes); run `telemetry --bless` \
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
    Ok(Pass {
        cells: 2,
        digest: h.finish(),
        detail: format!("{} packets re-parsed", packets.len()),
    })
}

/// The 44 cells of Tables 4–9, stats-only: every field of every cell
/// digested, serial and threaded executors agreeing.
fn matrix_pass() -> Result<Pass, String> {
    let specs = || protocol_matrix::all_specs(TraceMode::StatsOnly);
    let cells = run_cells_threaded(specs(), Some(1));
    ensure(run_cells_threaded(specs(), None) == cells, || {
        "threaded executor disagrees with the serial one".into()
    })?;
    Ok(Pass {
        cells: cells.len(),
        digest: digest::cells(&cells),
        detail: String::new(),
    })
}

/// The scale engine's hot path: two 16-client WAN fleets (pipelined and
/// multiplexed) through the shared bottleneck, every client's cell
/// digested.
fn fleet16_pass() -> Result<Pass, String> {
    let points = scale::grid(
        &[NetEnv::Wan],
        &[ProtocolSetup::Http11Pipelined, ProtocolSetup::Multiplexed],
        &[16],
    );
    let cells: Vec<CellResult> = points
        .iter()
        .flat_map(|p| run_fleet(p.spec()).per_client)
        .collect();
    Ok(Pass {
        cells: points.len(),
        digest: digest::cells(&cells),
        detail: String::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn fixed(digest: u64) -> Result<Pass, String> {
        Ok(Pass {
            cells: 3,
            digest,
            detail: String::new(),
        })
    }

    #[test]
    fn agreeing_passes_at_the_pin_pass() {
        let v = check("fake", 0xabc, || fixed(0xabc));
        assert!(v.ok(), "{v}");
        assert_eq!((v.pass.cells, v.pass.digest, v.pinned), (3, 0xabc, 0xabc));
    }

    #[test]
    fn wrong_pin_names_the_gate_and_prints_both_digests() {
        let v = check("fake", 0xdef, || fixed(0xabc));
        assert_eq!(v.failure, Some(Failure::PinMismatch));
        let line = v.to_string();
        assert!(line.contains("FAIL fake"), "{line}");
        assert!(line.contains("0x0000000000000abc"), "{line}");
        assert!(line.contains("0x0000000000000def"), "{line}");
    }

    #[test]
    fn passes_that_disagree_fail_even_when_one_hits_the_pin() {
        let calls = AtomicU64::new(0);
        let v = check("fake", 0xabc, || {
            fixed(0xabc + calls.fetch_add(1, Ordering::Relaxed))
        });
        assert_eq!(v.failure, Some(Failure::PassesDiffer { second: 0xabd }));
        assert!(v.to_string().contains("FAIL fake: nondeterministic"));
    }

    #[test]
    fn a_failed_assertion_is_reported_verbatim() {
        let v = check("fake", 0xabc, || Err("no retransmissions".into()));
        assert_eq!(v.failure, Some(Failure::Check("no retransmissions".into())));
        assert_eq!(v.to_string(), "FAIL fake: no retransmissions");
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
        let v = check("fake", 0xdef, || fixed(0xabc));
        assert_eq!(
            summary_json(8, &[v]),
            "{\"threads\": 8, \"gates\": [{\"name\": \"fake\", \"cells\": 3, \
             \"digest\": \"0x0000000000000abc\", \"pinned\": \"0x0000000000000def\", \
             \"ok\": false}]}"
        );
    }
}
