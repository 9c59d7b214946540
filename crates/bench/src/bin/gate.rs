//! `gate` — the one CI gate: every entry of `httpipe_core::gate`'s
//! registry, or the ones named on the command line.
//!
//! Each gate runs its experiment's `Size::Gate` points twice: on the cell
//! pool (at least two workers; `HTTPIPE_THREADS` sets the size, as in
//! CI), then serially. The passes must agree point for point, produce the
//! digest pinned in the registry and satisfy the gate's own assertions; a
//! pass that panics fails its gate and the rest still run. One line per
//! gate, then — as the last line of stdout — one JSON summary holding
//! only deterministic fields, so two runs of an unchanged tree print the
//! same line. Exit 0 when every gate passed, 1 when one failed, 2 for an
//! unknown gate name.
//!
//! ```text
//! HTTPIPE_THREADS=8 cargo run --release -p httpipe-bench --bin gate
//! cargo run --release -p httpipe-bench --bin gate -- matrix fleet16
//! ```

use httpipe_core::gate;
use httpipe_core::harness::worker_threads;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let gates = match gate::select(&names) {
        Ok(gates) => gates,
        Err(why) => {
            eprintln!("gate: {why}");
            return ExitCode::from(2);
        }
    };
    let verdicts: Vec<gate::Verdict> = gates
        .iter()
        .map(|g| {
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock progress reporting, kept out of the summary"
            )]
            let start = Instant::now();
            let verdict = g.run();
            let secs = start.elapsed().as_secs_f64();
            if verdict.ok() {
                println!("{verdict}  ({secs:.2}s)");
            } else {
                eprintln!("{verdict}");
            }
            verdict
        })
        .collect();
    let threads = worker_threads(usize::MAX);
    println!("{}", gate::summary_json(threads, &verdicts));
    if verdicts.iter().all(gate::Verdict::ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
