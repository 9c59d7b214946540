//! `diagnose` — run the canonical protocol-matrix cells with the
//! flight recorder on and explain where the elapsed time went.
//!
//! For every cell of {LAN, WAN, PPP} × {HTTP/1.0×4, persistent,
//! pipelined} (Apache, first-time retrieval) this prints the
//! stall-bucket decomposition, a per-connection/per-request timeline,
//! any automatic diagnoses, and writes the full machine-readable
//! attribution to `PROBE_<cell>.json` in the working directory.
//!
//! ```text
//! cargo run --release -p httpipe-bench --bin diagnose
//! ```
//!
//! The determinism of these reports and documents is gated by the `probe`
//! entry of `gate` (reduced LAN-only grid, digest pinned).

use httpipe_core::experiments::probe::{self, ProbeCell};
use httpipe_core::experiments::Size;
use netsim::Diagnosis;

fn fmt_opt(t: Option<netsim::SimTime>, start: netsim::SimTime) -> String {
    match t {
        Some(t) => format!("{:8.3}", t.since(start).as_secs_f64()),
        None => "       -".to_string(),
    }
}

fn print_cell(cell: &ProbeCell) {
    let a = &cell.analysis;
    let start = a.start;
    println!("--- {} ({}) ---", cell.point.label(), cell.point.id());
    print!("  buckets:");
    for (name, secs) in a.report.buckets.entries() {
        if secs > 0.0005 {
            print!(" {name} {secs:.2}");
        }
    }
    println!(
        "  (sum {:.2}, elapsed {:.2})",
        a.report.buckets.sum(),
        cell.cell.secs
    );
    println!(
        "  connections: {} open, {} requests",
        a.report.connections, a.report.requests
    );
    for c in &a.connections {
        println!(
            "    {} > {}  opened {:8.3}  established {}",
            c.local,
            c.remote,
            c.opened.since(start).as_secs_f64(),
            fmt_opt(c.established, start),
        );
    }
    println!("  requests (secs since first packet: queued / written / first byte / complete):");
    for r in &a.requests {
        println!(
            "    {:32} {:8.3} {} {} {}",
            r.path,
            r.queued.since(start).as_secs_f64(),
            fmt_opt(r.written, start),
            fmt_opt(r.first_byte, start),
            fmt_opt(r.complete, start),
        );
    }
    if a.diagnoses.is_empty() {
        println!("  diagnoses: none");
    } else {
        for d in &a.diagnoses {
            match d {
                Diagnosis::NaglePipelining {
                    local,
                    remote,
                    stall_secs,
                } => println!(
                    "  diagnosis: Nagle x pipelining stall on {local} > {remote} ({stall_secs:.3}s)"
                ),
                Diagnosis::MissedFlushExtraRtt {
                    count,
                    worst_gap_secs,
                } => println!(
                    "  diagnosis: {count} missed flush(es), worst extra latency {worst_gap_secs:.3}s"
                ),
            }
        }
    }
}

fn main() {
    let cells = probe::run_points(&probe::points(Size::Full), None);
    println!("{}", probe::report(&cells).render());
    for cell in &cells {
        print_cell(cell);
        let path = format!("PROBE_{}.json", cell.point.id());
        std::fs::write(&path, cell.analysis.render_json(&cell.point.id()))
            .expect("write probe json");
        println!("  wrote {path}");
        println!();
    }
}
