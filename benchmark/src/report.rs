//! What the ledger prints and writes: the end-to-end table of a
//! workload, the per-layer table, the budget table, the driver's result
//! line, `result.json` and `trace.json`. JSON is written by hand; the
//! repository carries no serialisation crate.

use crate::budget::{self, Budget};
use crate::layers::{self, Better, Metric};
use crate::measure::Report;
use crate::plan::WORKLOADS;
use crate::span::{self, Span};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An end-to-end metric: name, unit, direction, and the share of the
/// parent's median by which it may worsen before a change is rejected.
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("setup_s", "s", Better::Lower, 0.25),
    ("sim_packets_per_s", "packets/s", Better::Higher, 0.25),
    ("sim_packets_per_s_best", "packets/s", Better::Higher, 0.2),
    ("pass_ms_p50", "ms", Better::Lower, 0.25),
    ("allocs_per_packet", "count", Better::Lower, 0.03),
    ("alloc_bytes_per_packet", "B", Better::Lower, 0.035),
    ("peak_live_bytes", "B", Better::Lower, 0.2),
    ("paper_err_pct", "%", Better::Lower, 0.001),
];

/// Span names whose self time the traced run reports, as
/// `span.<name>.self_ms`; the ledger's own `workload`, `pass` and `cell`
/// spans are summed under `span.ledger.self_ms`.
pub const TRACED_SPANS: &[&str] = &[
    "harness.matrix_spec",
    "harness.run_spec",
    "harness.run_fleet",
    "sim.drop",
    "conformance.check_trace",
    "probe.attribute",
    "pcapng.export_trace",
    "pcapng.parse",
    "telemetry.render_csv",
];

/// Per-workload metrics of the traced run, after the probe metrics.
pub fn traced_metric_names() -> Vec<String> {
    let mut names = vec!["trace_overhead_pct".to_string()];
    names.extend(TRACED_SPANS.iter().map(|s| format!("span.{s}.self_ms")));
    names.push("span.ledger.self_ms".to_string());
    names.push("budget.residual_pct".to_string());
    names
}

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Value, sample count and (for a timing) the samples' summary of the
/// end-to-end metric `name` on `r`.
fn measured(r: &Report, name: &str) -> (f64, usize, Option<Summary>) {
    match name {
        "setup_s" => (r.setup.median, r.setup.n, Some(r.setup)),
        "sim_packets_per_s" => (r.sim_packets_per_s(), r.pass.n, None),
        "sim_packets_per_s_best" => (r.packets() as f64 / r.pass.min, r.pass.n, None),
        "pass_ms_p50" => (r.pass.median * 1e3, r.pass.n, Some(r.pass)),
        "allocs_per_packet" => (r.allocs_per_packet(), 1, None),
        "alloc_bytes_per_packet" => (r.alloc_bytes_per_packet(), 1, None),
        "peak_live_bytes" => (r.counted.peak as f64, 1, None),
        "paper_err_pct" => (r.paper.overall_pct(), r.paper.cells, None),
        other => panic!("{other} is not an end-to-end metric"),
    }
}

/// The end-to-end metrics of `r`, in [`END_TO_END`] order.
pub fn end_to_end(r: &Report) -> Vec<Value> {
    END_TO_END
        .iter()
        .map(|&(name, unit, ..)| Value {
            name: name.to_string(),
            unit,
            value: measured(r, name).0,
        })
        .collect()
}

/// The traced run's per-workload metrics: tracing overhead, self time
/// per span name and pass, and the budget's residual.
pub fn traced_metrics(r: &Report, budget: &Budget) -> Vec<Value> {
    let traced = r.traced.as_ref().expect("a traced run");
    let passes = traced.pass.n as f64;
    let by_name = span::self_time_by_name(&traced.spans);
    let self_ms = |names: &[&str]| -> f64 {
        by_name
            .iter()
            .filter(|(n, ..)| names.contains(n))
            .map(|(_, ns, ..)| *ns)
            .sum::<u64>() as f64
            / 1e6
            / passes
    };
    let mut out = vec![Value {
        name: "trace_overhead_pct".into(),
        unit: "%",
        value: r.trace_overhead_pct().expect("a traced run"),
    }];
    for s in TRACED_SPANS {
        out.push(Value {
            name: format!("span.{s}.self_ms"),
            unit: "ms",
            value: self_ms(&[s]),
        });
    }
    out.push(Value {
        name: "span.ledger.self_ms".into(),
        unit: "ms",
        value: self_ms(&["workload", "pass", "cell"]),
    });
    out.push(Value {
        name: "budget.residual_pct".into(),
        unit: "%",
        value: budget.residual_pct(),
    });
    out
}

/// The budget of `r` under the measured layer costs.
pub fn budget_for(r: &Report, layer_metrics: &[Metric]) -> Budget {
    let by_name: BTreeMap<&str, f64> = layer_metrics.iter().map(|m| (m.name, m.value)).collect();
    budget::budget(&budget::ops(&r.items, &r.facts), &by_name, r.pass.median)
}

// ---------------------------------------------------------------------
// Fixed points
// ---------------------------------------------------------------------

const FIXED_POINTS: &str = include_str!("../reference/fixed_points.tsv");

/// `same`, `changed`, or why there is nothing to compare with.
pub fn fixed_point_status(r: &Report, seed: u64) -> String {
    let pinned = FIXED_POINTS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split('\t').collect::<Vec<_>>())
        .find(|c| c.len() == 5 && c[0] == r.name && c[1] == seed.to_string());
    match pinned {
        None => format!("not pinned for seed {seed}"),
        Some(c) => {
            let now = [
                r.packets().to_string(),
                format!("{:.6}", r.facts.sim_secs()),
                format!("{:#018x}", r.digest),
            ];
            if c[2..] == now {
                "same".into()
            } else {
                format!("changed (pinned: {} packets, {} s, {})", c[2], c[3], c[4])
            }
        }
    }
}

/// The workload's line for `reference/fixed_points.tsv` (tab-separated).
pub fn fixed_point_line(r: &Report, seed: u64) -> String {
    format!(
        "{}\t{seed}\t{}\t{:.6}\t{:#018x}",
        r.name,
        r.packets(),
        r.facts.sim_secs(),
        r.digest
    )
}

// ---------------------------------------------------------------------
// Text
// ---------------------------------------------------------------------

/// The end-to-end table of one workload.
pub fn workload_text(r: &Report, seed: u64) -> String {
    let why = WORKLOADS
        .iter()
        .find(|w| w.name == r.name)
        .map_or("", |w| w.why);
    let mut s = String::new();
    let _ = writeln!(s, "== {} == {} items, seed {seed}", r.name, r.items.len());
    let _ = writeln!(s, "   {why}");
    let _ = writeln!(
        s,
        "   fixed point (workload, seed, packets, simulated s, digest): {}",
        fixed_point_line(r, seed).replace('\t', "  ")
    );
    let _ = writeln!(s, "   fixed_point: {}", fixed_point_status(r, seed));
    let _ = writeln!(
        s,
        "   {:<24} {:>16} {:<10} {:>7} {:>8}  spread",
        "metric", "value", "unit", "bound", "samples"
    );
    for &(name, unit, _, bound) in END_TO_END {
        let (value, samples, spread) = measured(r, name);
        let _ = write!(
            s,
            "   {name:<24} {value:>16.4} {unit:<10} {:>5} % {samples:>8}",
            bound * 100.0
        );
        if let Some(t) = spread {
            let _ = write!(
                s,
                "  {:.2} % (q1 {:.4} q3 {:.4} min {:.4} max {:.4} s)",
                t.spread() * 100.0,
                t.q1,
                t.q3,
                t.min,
                t.max
            );
        }
        s.push('\n');
    }
    let _ = writeln!(
        s,
        "   {:<24} {:>16.4} {:<10} {:>7} {:>8}  {} of {} objects failed",
        "failed_share",
        r.tally.failed_share(),
        "ratio",
        "0",
        r.tally.attempted,
        r.tally.failed,
        r.tally.attempted
    );
    let _ = writeln!(
        s,
        "   paper_err_pct components: packets {:.2} %, bytes {:.2} %, seconds {:.2} % (simulated, {} matrix cells)",
        r.paper.packets_pct, r.paper.bytes_pct, r.paper.seconds_pct, r.paper.cells
    );
    for f in &r.failures {
        let _ = writeln!(s, "   FAILED {f}");
    }
    s
}

/// The per-layer table.
pub fn layers_text(metrics: &[Metric]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== per-layer metrics == median of the samples; counts exact"
    );
    let _ = writeln!(
        s,
        "   {:<40} {:>14} {:<6} {:<7} {:>7}",
        "metric", "value", "unit", "better", "samples"
    );
    for m in metrics {
        let _ = writeln!(
            s,
            "   {:<40} {:>14.3} {:<6} {:<7} {:>7}",
            m.name,
            m.value,
            m.unit,
            m.better.as_str(),
            m.samples
        );
    }
    s
}

/// The traced passes of one workload: self time per span name, the
/// budget table and the per-workload traced metrics.
pub fn traced_text(r: &Report, budget: &Budget, metrics: &[Value]) -> String {
    let traced = r.traced.as_ref().expect("a traced run");
    let passes = traced.pass.n as f64;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== {} traced == {} traced passes, median {:.4} s against {:.4} s untraced",
        r.name, traced.pass.n, traced.pass.median, r.pass.median
    );
    let _ = writeln!(
        s,
        "   {:<28} {:>12} {:>9} {:>12}   per pass",
        "span", "self ms", "calls", "count"
    );
    for (name, self_ns, count, calls) in span::self_time_by_name(&traced.spans) {
        let _ = writeln!(
            s,
            "   {:<28} {:>12.3} {:>9.1} {:>12.0}",
            name,
            self_ns as f64 / 1e6 / passes,
            calls as f64 / passes,
            count as f64 / passes
        );
    }
    let _ = writeln!(
        s,
        "   budget: median pass {:.3} ms against layer unit cost x operations seen from outside",
        budget.pass_secs * 1e3
    );
    for row in &budget.rows {
        let _ = writeln!(
            s,
            "   {:<32} {:>10.3} ms {:>6.1} %   {}",
            row.layer,
            row.secs * 1e3,
            row.secs / budget.pass_secs * 100.0,
            row.formula
        );
    }
    let _ = writeln!(
        s,
        "   {:<32} {:>10.3} ms {:>6.1} %   client + server + dispatch, not separable from outside",
        "residual",
        (budget.pass_secs - budget.explained_secs()) * 1e3,
        budget.residual_pct()
    );
    for v in metrics {
        let _ = writeln!(s, "   {:<40} {:>14.3} {}", v.name, v.value, v.unit);
    }
    s
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` with all its digits; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metrics are finite");
    format!("{v}")
}

fn metrics_object(values: &[Value]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&v.name),
                json_number(v.value),
                json_string(v.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The driver's result line: one JSON object, the last line of output.
pub fn result_line(r: &Report, correct: bool, metrics: &[Value]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct,
        r.tally.attempted,
        r.tally.failed,
        metrics_object(metrics)
    )
}

/// Probe metrics as [`Value`]s.
pub fn layer_values(metrics: &[Metric]) -> Vec<Value> {
    metrics
        .iter()
        .map(|m| Value {
            name: m.name.to_string(),
            unit: m.unit,
            value: m.value,
        })
        .collect()
}

/// What the run was: recorded beside the results so that a verdict can
/// be read against its conditions.
pub struct Manifest {
    pub git_rev: String,
    pub rustc: String,
    pub cores: usize,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub trace: bool,
}

/// `result.json`: the manifest, then every workload and layer metric.
pub fn result_json(
    manifest: &Manifest,
    reports: &[Report],
    layer_metrics: &[Metric],
    traced: &[(Budget, Vec<Value>)],
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"manifest\": {{\"git_rev\": {}, \"rustc\": {}, \"cores\": {}, \"seed\": {}, \"seconds\": {}, \"quick\": {}, \"trace\": {}}},",
        json_string(&manifest.git_rev),
        json_string(&manifest.rustc),
        manifest.cores,
        manifest.seed,
        json_number(manifest.seconds),
        manifest.quick,
        manifest.trace
    );
    s.push_str("  \"workloads\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let mut values = end_to_end(r);
        values.push(Value {
            name: "failed_share".into(),
            unit: "ratio",
            value: r.tally.failed_share(),
        });
        let _ = write!(
            s,
            "    {{\"name\": {}, \"items\": {}, \"passes\": {}, \"setup_builds\": {}, \"packets\": {}, \"sim_secs\": {}, \"digest\": \"{:#018x}\", \"fixed_point\": {}, \"attempted\": {}, \"failed\": {}, \"pass_s\": {{\"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}}}, \"paper_err\": {{\"packets_pct\": {}, \"bytes_pct\": {}, \"seconds_pct\": {}}}, \"metrics\": {}",
            json_string(r.name),
            r.items.len(),
            r.pass.n,
            r.setup.n,
            r.packets(),
            json_number(r.facts.sim_secs()),
            r.digest,
            json_string(&fixed_point_status(r, manifest.seed)),
            r.tally.attempted,
            r.tally.failed,
            json_number(r.pass.min),
            json_number(r.pass.q1),
            json_number(r.pass.median),
            json_number(r.pass.q3),
            json_number(r.pass.max),
            json_number(r.paper.packets_pct),
            json_number(r.paper.bytes_pct),
            json_number(r.paper.seconds_pct),
            metrics_object(&values)
        );
        if let Some((budget, values)) = traced.get(i) {
            let rows: Vec<String> = budget
                .rows
                .iter()
                .map(|row| {
                    format!(
                        "{{\"layer\": {}, \"secs\": {}, \"inside\": {}, \"formula\": {}}}",
                        json_string(row.layer.trim()),
                        json_number(row.secs),
                        row.inside,
                        json_string(&row.formula)
                    )
                })
                .collect();
            let _ = write!(
                s,
                ", \"traced\": {}, \"budget\": [{}]",
                metrics_object(values),
                rows.join(", ")
            );
        }
        s.push('}');
        s.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"layers\": {}",
        metrics_object(&layer_values(layer_metrics))
    );
    s.push_str("}\n");
    s
}

fn spans_json(spans: &[Span]) -> String {
    let selfs = span::self_times(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(selfs)
        .map(|(sp, self_ns)| {
            format!(
                "      {{\"id\": {}, \"parent\": {}, \"name\": {}, \"label\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"count\": {}}}",
                sp.id,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                json_string(sp.name),
                json_string(&sp.label),
                sp.start_ns,
                sp.end_ns,
                self_ns,
                sp.count
            )
        })
        .collect();
    rows.join(",\n")
}

/// `trace.json`: one group of spans per traced workload and one for the
/// layer probes. Ids and times are local to a group.
pub fn trace_json(groups: &[(&str, &[Span])]) -> String {
    let mut s = String::from("{\n  \"groups\": [\n");
    for (i, (name, spans)) in groups.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"group\": {}, \"spans\": [\n{}\n    ]}}",
            json_string(name),
            spans_json(spans)
        );
        s.push_str(if i + 1 < groups.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// `BENCHMARK.json` as the tables in this package define it. The file at
/// the repository root is this function's output (`ledger
/// --benchmark-json`); a test compares the two.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name),
                json_string(w.why)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(name),
                json_string(unit),
                json_string(better.as_str()),
                json_number(bound)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let mut rows: Vec<String> = layers::PROBE_METRICS
        .iter()
        .map(|&(name, unit, better)| per_layer_row(name, unit, better))
        .collect();
    for name in traced_metric_names() {
        let unit = if name.ends_with("_pct") { "%" } else { "ms" };
        rows.push(per_layer_row(&name, unit, Better::Lower));
    }
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

fn per_layer_row(name: &str, unit: &str, better: Better) -> String {
    format!(
        "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
        json_string(name),
        json_string(unit),
        json_string(better.as_str())
    )
}

/// Seconds of timed passes per run, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u32 = 8;

/// Every metric name the ledger can print, for `--quick` and the README.
pub fn all_metric_names() -> Vec<String> {
    let mut names: Vec<String> = END_TO_END.iter().map(|(n, ..)| n.to_string()).collect();
    names.push("failed_share".into());
    names.extend(layers::PROBE_METRICS.iter().map(|(n, ..)| n.to_string()));
    names.extend(traced_metric_names());
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_is_what_this_package_defines() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate it: ledger --benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn benchmark_json_stays_inside_the_limits_of_the_driver() {
        let text = benchmark_json();
        assert!(text.len() <= 64 * 1024);
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        let per_layer = layers::PROBE_METRICS.len() + traced_metric_names().len();
        assert!((1..=128).contains(&per_layer));
        let mut names = all_metric_names();
        names.retain(|n| n != "failed_share");
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert_eq!(
                text.matches(&format!("\"name\": \"{n}\"")).count(),
                1,
                "{n}"
            );
        }
        for &(_, unit, ..) in END_TO_END {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd\u{1}"), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(0.1063), "0.1063");
        assert_eq!(json_number(142014.25), "142014.25");
        assert_eq!(json_number(7.0), "7");
    }

    #[test]
    fn setup_has_the_largest_bound_and_no_bound_exceeds_a_quarter() {
        let setup = END_TO_END[0];
        assert_eq!((setup.0, setup.1, setup.2), ("setup_s", "s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3 && m.3 <= 0.25));
    }
}
