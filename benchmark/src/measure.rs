//! One workload, measured: set-up, a warm-up pass, a counted pass, timed
//! passes, and — on request — traced passes. Closed loop, one generator
//! thread, one cell or fleet at a time.

use crate::alloc;
use crate::paper::{self, PaperError};
use crate::pass::{Expect, PassFacts, Tally};
use crate::plan::{self, Item};
use crate::span::{Span, Tracer};
use crate::stats::{self, Summary};
use crate::surface::{self, Inputs, Raw};
use std::time::Instant;

/// Fresh input builds per run; `setup_s` is their median.
pub const SETUP_BUILDS: usize = 5;
/// Timed passes are added until there are at least this many …
pub const MIN_PASSES: usize = 7;
/// Traced passes per workload.
pub const TRACED_PASSES: usize = 2;

/// How much to measure.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// … and until the timed passes add up to this many seconds.
    pub seconds: f64,
    /// One set-up build and one sweep, counted and timed, whatever
    /// `seconds` says.
    pub quick: bool,
    pub trace: bool,
}

/// Everything measured on one workload.
pub struct Report {
    pub name: &'static str,
    pub items: Vec<Item>,
    /// Seconds per fresh input build.
    pub setup: Summary,
    /// Seconds per untraced timed pass.
    pub pass: Summary,
    /// The counted pass (every other pass must equal it).
    pub facts: PassFacts,
    /// Digest of the plan (items, seeds, bulk bytes) and of the results.
    pub digest: u64,
    /// Allocator counters over the counted pass.
    pub counted: alloc::Snapshot,
    /// Objects attempted and failed over every pass run.
    pub tally: Tally,
    /// Plan labels of items that failed objects, and passes that differed.
    pub failures: Vec<String>,
    pub paper: PaperError,
    pub traced: Option<Traced>,
}

/// The traced passes of one workload.
pub struct Traced {
    pub spans: Vec<Span>,
    /// Seconds per traced pass.
    pub pass: Summary,
}

impl Report {
    pub fn packets(&self) -> u64 {
        self.facts.packets()
    }

    pub fn sim_packets_per_s(&self) -> f64 {
        self.packets() as f64 / self.pass.median
    }

    pub fn allocs_per_packet(&self) -> f64 {
        self.counted.allocs as f64 / self.packets() as f64
    }

    pub fn alloc_bytes_per_packet(&self) -> f64 {
        self.counted.bytes as f64 / self.packets() as f64
    }

    /// Traced against untraced median pass, in percent.
    pub fn trace_overhead_pct(&self) -> Option<f64> {
        self.traced
            .as_ref()
            .map(|t| (t.pass.median / self.pass.median - 1.0) * 100.0)
    }
}

/// Build every input from nothing `builds` times. Returns the build
/// times, the inputs of the last build and the plan digest.
fn set_up(items: &[Item], seed: u64, builds: usize) -> (Summary, Inputs, u64) {
    // Bookkeeping of the ledger's, not input building: off the clock.
    let digest = plan::plan_digest(items, &plan::bulk_objects(seed, 1));
    let mut secs = Vec::with_capacity(builds);
    let mut inputs = Inputs::empty();
    for _ in 0..builds {
        let start = Instant::now();
        surface::build_site_inputs();
        inputs = Inputs::new(plan::bulk_objects(seed, 1));
        secs.push(start.elapsed().as_secs_f64());
    }
    // A plan without bulk cells does not keep 8 MiB alive under its
    // `peak_live_bytes`; it still pays (and reports) the same set-up.
    if !plan::uses_bulk(items) {
        inputs = Inputs::empty();
    }
    (stats::summarize(&secs), inputs, digest)
}

/// One sweep of the plan. Only the sweep itself is timed; rendering the
/// results into facts happens after the clock has stopped.
fn sweep(items: &[Item], inputs: &Inputs, tr: &mut Tracer) -> (PassFacts, f64) {
    let span = tr.enter("pass", String::new);
    let start = Instant::now();
    let raws: Vec<Raw> = items
        .iter()
        .map(|item| surface::run_item(item, inputs, tr))
        .collect();
    let secs = start.elapsed().as_secs_f64();
    tr.exit(span, raws.iter().map(Raw::packets).sum());
    let facts = PassFacts {
        items: raws.iter().map(Raw::facts).collect(),
    };
    (facts, secs)
}

/// The model's error against the paper, from one sweep of the matrix plan.
pub fn paper_error(inputs: &Inputs) -> PaperError {
    let items = plan::matrix(false);
    let (facts, _) = sweep(&items, inputs, &mut Tracer::off());
    paper::error(&items, &facts)
}

/// Measure workload `name`.
pub fn run(name: &'static str, opts: Options) -> Report {
    let items = plan::items(name, opts.seed).expect("a known workload");
    let builds = if opts.quick { 1 } else { SETUP_BUILDS };
    let (setup, inputs, plan_digest) = set_up(&items, opts.seed, builds);
    let mut off = Tracer::off();
    // Every pass other than the counted one, kept to be checked against it.
    let mut others: Vec<(String, PassFacts)> = Vec::new();

    // Warm-up: fills the process-wide site and store memos and the
    // thread-local buffer pools, so the counted pass is steady state.
    // `--quick` does without: its one sweep is counted and timed, and
    // checked against its expectations but not against a second sweep.
    if !opts.quick {
        others.push(("warm-up pass".into(), sweep(&items, &inputs, &mut off).0));
    }

    alloc::reset_peak();
    let before = alloc::snapshot();
    let (facts, counted_secs) = sweep(&items, &inputs, &mut off);
    let counted = alloc::snapshot().since(before);

    let mut secs = Vec::new();
    if opts.quick {
        secs.push(counted_secs);
    }
    while !opts.quick && (secs.len() < MIN_PASSES || secs.iter().sum::<f64>() < opts.seconds) {
        let (pass, s) = sweep(&items, &inputs, &mut off);
        secs.push(s);
        others.push((format!("timed pass {}", secs.len()), pass));
    }

    let traced = opts.trace.then(|| {
        let mut tr = Tracer::on();
        let workload = tr.enter("workload", || name.to_string());
        let mut traced_secs = Vec::new();
        for n in 0..TRACED_PASSES {
            let (pass, s) = sweep(&items, &inputs, &mut tr);
            traced_secs.push(s);
            others.push((format!("traced pass {}", n + 1), pass));
        }
        tr.exit(workload, facts.packets() * TRACED_PASSES as u64);
        Traced {
            spans: tr.spans().to_vec(),
            pass: stats::summarize(&traced_secs),
        }
    });

    let expect: Vec<Expect> = items.iter().map(|i| surface::expect(i, &inputs)).collect();
    let reference = facts.digest();
    let mut tally = Tally::default();
    let mut failures = Vec::new();
    let counted_pass = ("counted pass", &facts);
    let others = others.iter().map(|(what, pass)| (what.as_str(), pass));
    for (what, pass) in std::iter::once(counted_pass).chain(others) {
        tally.add(pass.tally(&expect, reference));
        for i in pass.failing_items(&expect) {
            failures.push(format!("{what}: {}", items[i].label()));
        }
        if pass.digest() != reference {
            failures.push(format!("{what}: differs from the counted pass"));
        }
    }

    let paper = paper_error(&inputs);
    let mut h = crate::digest::Fnv::new();
    h.write(&plan_digest.to_le_bytes());
    h.write(&reference.to_le_bytes());
    Report {
        name,
        items,
        setup,
        pass: stats::summarize(&secs),
        facts,
        digest: h.finish(),
        counted,
        tally,
        failures,
        paper,
        traced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;

    #[test]
    fn paper_error_prints_15_06_with_its_three_components() {
        let e = paper_error(&Inputs::empty());
        assert_eq!(e.cells, 44);
        assert_eq!(format!("{:.2}", e.overall_pct()), "15.06");
        assert_eq!(
            format!(
                "{:.2} {:.2} {:.2}",
                e.packets_pct, e.bytes_pct, e.seconds_pct
            ),
            "11.93 7.54 25.71"
        );
    }

    #[test]
    fn a_quick_matrix_run_delivers_everything_and_sits_on_its_fixed_point() {
        let r = run(
            "matrix",
            Options {
                seed: 1997,
                seconds: 1.0,
                quick: true,
                trace: true,
            },
        );
        assert_eq!(r.packets(), 8870, "continuity with BENCH_netsim.json");
        assert_eq!(r.tally.attempted, (1 + TRACED_PASSES as u64) * 44 * 43);
        assert_eq!((r.tally.failed, r.failures.len()), (0, 0));
        assert_eq!(report::fixed_point_status(&r, 1997), "same");
        assert!(report::fixed_point_status(&r, 7).starts_with("not pinned"));

        let traced = r.traced.as_ref().expect("traced passes were asked for");
        let cells = traced.spans.iter().filter(|s| s.name == "cell").count();
        assert_eq!(cells, TRACED_PASSES * 44);
        let run_spec: u64 = traced
            .spans
            .iter()
            .filter(|s| s.name == "harness.run_spec")
            .map(|s| s.count)
            .sum();
        assert_eq!(run_spec, TRACED_PASSES as u64 * 8870, "spans carry packets");

        let line = report::result_line(&r, true, &report::end_to_end(&r));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(line.contains("\"setup_s\": {\"value\": "));
        assert!(!line.contains('\n'));
    }
}
