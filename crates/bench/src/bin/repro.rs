//! `repro` — regenerate EXPERIMENTS.md, or any of its sections, and write
//! the files behind them.
//!
//! ```text
//! repro > EXPERIMENTS.md  # the whole document
//! repro table3 table8     # those sections
//! repro list              # the section ids, and the commands below
//! repro table1            # Table 1, the tested network environments
//! repro xplot             # xplot time-sequence graphs, written to xplot_*.xpl
//! repro diagnose          # the probe grid's per-request timelines, and PROBE_*.json
//! repro capture           # the telemetry scene's artefacts, written to TELEMETRY_*
//! repro bless             # rewrite the telemetry goldens `gate` compares against
//! ```
//!
//! Files are written to the working directory, except `bless`'s. An
//! unknown argument is a usage error: exit status 2, nothing on stdout,
//! the valid arguments on stderr.

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::probe::{self, ProbeCell};
use httpipe_core::experiments::{self, protocol_matrix, telemetry, Size, REGISTRY};
use httpipe_core::harness::{matrix_spec, run_spec, ProtocolSetup, Scenario};
use httpserver::ServerKind;
use netsim::{Diagnosis, SimTime};

/// The arguments that are not EXPERIMENTS.md sections.
const COMMANDS: [(&str, &str, fn()); 5] = [
    ("table1", "Tested network environments", table1),
    (
        "xplot",
        "Write xplot-format time-sequence graphs (the paper's debugging tool)",
        xplot,
    ),
    (
        "diagnose",
        "Print the probe grid's per-request timelines and write PROBE_*.json",
        diagnose,
    ),
    (
        "capture",
        "Write the telemetry scene's JSON, CSV and pcapng to TELEMETRY_*",
        capture,
    ),
    (
        "bless",
        "Rewrite the telemetry goldens after an intentional change",
        bless,
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print!("{}", experiments::document());
        return;
    }
    if args.iter().any(|a| a == "list") {
        print!("{}", listing());
        return;
    }
    let command = |a: &str| COMMANDS.iter().find(|c| c.0 == a).map(|c| c.2);
    let known = |a: &String| experiments::find(a).is_some() || command(a).is_some();
    if let Some(unknown) = args.iter().find(|a| !known(a)) {
        eprint!(
            "unknown experiment '{unknown}'; valid arguments:\n{}",
            listing()
        );
        std::process::exit(2);
    }
    for (i, arg) in args.iter().enumerate() {
        if i > 0 {
            println!();
        }
        match command(arg) {
            Some(run) => run(),
            None => print!(
                "{}",
                (experiments::find(arg)
                    .expect("arguments are checked above")
                    .section)()
            ),
        }
    }
}

/// One line per section id, then the other commands.
fn listing() -> String {
    let entries = REGISTRY.iter().map(|e| (e.id, e.title));
    entries
        .chain(COMMANDS.map(|(id, what, _)| (id, what)))
        .map(|(id, what)| format!("  {id:<10} {what}\n"))
        .collect()
}

fn table1() {
    print!("{}", protocol_matrix::table1().render());
}

/// Write server→client time-sequence graphs of the first-time WAN cell
/// for HTTP/1.0 and pipelining.
fn xplot() {
    for (name, setup) in [
        ("http10", ProtocolSetup::Http10),
        ("pipelined", ProtocolSetup::Http11Pipelined),
    ] {
        let mut spec = matrix_spec(NetEnv::Wan, ServerKind::Apache, setup, Scenario::FirstTime);
        // The matrix defaults to stats-only tracing; xplot needs the
        // per-packet records.
        spec.trace_mode = netsim::TraceMode::Full;
        let out = run_spec(spec);
        let plot = out
            .sim
            .trace()
            .xplot(out.server_host, &format!("{name} first-time WAN"))
            .expect("trace captured in Full mode");
        let path = format!("xplot_{name}.xpl");
        std::fs::write(&path, plot).expect("write xplot file");
        println!("wrote {path} (server->client time-sequence)");
    }
}

/// For every cell of the `probe` section's grid, print its stall buckets,
/// connection and request timelines and diagnoses, and write its full
/// attribution to `PROBE_<cell>.json`. The `probe` entry of `gate` pins
/// the reduced grid's documents.
fn diagnose() {
    for cell in &probe::run_points(&probe::points(Size::Full), None) {
        print_cell(cell);
        let path = format!("PROBE_{}.json", cell.point.id());
        std::fs::write(&path, cell.analysis.render_json(&cell.point.id()))
            .expect("write probe json");
        println!("  wrote {path}");
        println!();
    }
}

fn fmt_opt(t: Option<SimTime>, start: SimTime) -> String {
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
    }
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

/// Write the telemetry scene's artefacts: the WAN 2 %-loss pipelined
/// cell's series as JSON and its packet capture as pcapng (Wireshark,
/// tshark and tcptrace open it), and the N=8 LAN fleet's series as CSV.
fn capture() {
    let art = telemetry::smoke_artifacts();
    let files = [
        ("TELEMETRY_wan_rto.json", art.json.as_bytes()),
        ("TELEMETRY_fleet.csv", art.csv.as_bytes()),
        ("TELEMETRY_wan_rto.pcapng", &art.pcapng),
    ];
    for (path, bytes) in files {
        std::fs::write(path, bytes).expect("write telemetry artefact");
        println!("wrote {path} ({}B)", bytes.len());
    }
}

/// Rewrite the goldens under `crates/bench/goldens/telemetry/` that the
/// `telemetry` entry of `gate` compares byte for byte.
fn bless() {
    let art = telemetry::smoke_artifacts();
    let dir = telemetry::goldens_dir();
    std::fs::create_dir_all(&dir).expect("create goldens dir");
    for (name, bytes) in art.files() {
        std::fs::write(dir.join(name), bytes).expect("write golden");
    }
    println!(
        "blessed goldens in {} (json {}B, csv {}B, pcapng {}B)",
        dir.display(),
        art.json.len(),
        art.csv.len(),
        art.pcapng.len()
    );
}
