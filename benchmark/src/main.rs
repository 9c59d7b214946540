//! `ledger` — the repository's layered performance ledger.
//!
//! Run it through `benchmark/run.sh`, which builds it in release mode:
//!
//! ```text
//! benchmark/run.sh                         # five workloads, end-to-end metrics
//! benchmark/run.sh --trace                 # + traced passes, layer probes, budget
//! benchmark/run.sh --quick                 # the CI smoke: one sweep each, probes at 1/16
//! benchmark/run.sh --workload bulk --seed 7 --seconds 8 --trace 0   # as the driver runs it
//! ```
//!
//! With exactly one `--workload` the last line of output is the driver's
//! JSON result. See `benchmark/README.md` for every name printed.

mod alloc;
mod budget;
mod digest;
mod layers;
mod measure;
mod paper;
mod pass;
mod plan;
mod report;
mod span;
mod stats;
mod surface;

use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::LedgerAlloc = alloc::LedgerAlloc;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

/// Where `result.json` and `trace.json` go, from the repository root
/// (`run.sh` starts the ledger there).
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage: ledger [--workload NAME]... [--seed N] [--seconds S] \
[--trace [0|1]] [--quick] [--benchmark-json]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1997,
        seconds: f64::from(report::RUN_SECONDS),
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = plan::WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or(format!("unknown workload {name}"))?;
                args.workloads.push(known.name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                // The driver passes 0 or 1; by hand the flag alone means 1.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--benchmark-json" => {
                print!("{}", report::benchmark_json());
                std::process::exit(0);
            }
            "--quick" => args.quick = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = plan::WORKLOADS.iter().map(|w| w.name).collect();
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let manifest = report::Manifest {
        git_rev: std::env::var("LEDGER_GIT_REV").unwrap_or_else(|_| "unknown".into()),
        rustc: std::env::var("LEDGER_RUSTC").unwrap_or_else(|_| "unknown".into()),
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        trace: args.trace,
    };
    println!(
        "ledger: rev {}, {}, {} cores, seed {}, {} s per workload{}{}",
        manifest.git_rev,
        manifest.rustc,
        manifest.cores,
        manifest.seed,
        manifest.seconds,
        if args.quick { ", quick" } else { "" },
        if args.trace { ", traced" } else { "" }
    );

    let opts = measure::Options {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        trace: args.trace,
    };
    let mut reports = Vec::new();
    for &name in &args.workloads {
        let r = measure::run(name, opts);
        print!("{}", report::workload_text(&r, args.seed));
        reports.push(r);
    }

    // The layer probes run once, after every workload has been measured
    // untraced, and are themselves spans of the traced run. `--quick`
    // runs them too, so that one command exercises every metric.
    let mut probe_tracer = span::Tracer::on();
    let mut layer_metrics = Vec::new();
    let mut traced = Vec::new();
    if args.trace || args.quick {
        layer_metrics = layers::run(&mut probe_tracer, args.quick, args.seed);
        print!("{}", report::layers_text(&layer_metrics));
    }
    if args.trace {
        for r in &reports {
            let budget = report::budget_for(r, &layer_metrics);
            let values = report::traced_metrics(r, &budget);
            print!("{}", report::traced_text(r, &budget, &values));
            traced.push((budget, values));
        }
    }
    if args.quick {
        println!("metric names: {}", report::all_metric_names().join(" "));
    }

    if let Err(e) = write_outputs(
        &args,
        &manifest,
        &reports,
        &layer_metrics,
        &traced,
        &probe_tracer,
    ) {
        eprintln!("ledger: cannot write to {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }

    let correct = reports
        .iter()
        .all(|r| r.tally.failed == 0 && r.failures.is_empty())
        && layer_metrics
            .iter()
            .all(|m| m.name != "conformance.violations" || m.value == 0.0);
    if let [r] = reports.as_slice() {
        let metrics = if args.trace {
            let mut m = report::layer_values(&layer_metrics);
            m.extend(traced[0].1.iter().cloned());
            m
        } else {
            report::end_to_end(r)
        };
        println!("{}", report::result_line(r, correct, &metrics));
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("ledger: outputs were not correct (see FAILED lines above)");
        ExitCode::FAILURE
    }
}

fn write_outputs(
    args: &Args,
    manifest: &report::Manifest,
    reports: &[measure::Report],
    layer_metrics: &[layers::Metric],
    traced: &[(budget::Budget, Vec<report::Value>)],
    probe_tracer: &span::Tracer,
) -> std::io::Result<()> {
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out)?;
    std::fs::write(
        out.join("result.json"),
        report::result_json(manifest, reports, layer_metrics, traced),
    )?;
    if args.trace {
        let mut groups: Vec<(&str, &[span::Span])> = reports
            .iter()
            .filter_map(|r| r.traced.as_ref().map(|t| (r.name, t.spans.as_slice())))
            .collect();
        groups.push(("layers", probe_tracer.spans()));
        std::fs::write(out.join("trace.json"), report::trace_json(&groups))?;
    }
    Ok(())
}
