//! `repro` — regenerate EXPERIMENTS.md, or any of its sections.
//!
//! ```text
//! repro > EXPERIMENTS.md  # the whole document
//! repro table3 table8     # those sections
//! repro list              # the section ids, and the two commands below
//! repro table1            # Table 1, the tested network environments
//! repro xplot             # xplot time-sequence graphs, written to xplot_*.xpl
//! ```
//!
//! An unknown argument is a usage error: exit status 2, nothing on
//! stdout, the valid arguments on stderr.

use httpipe_core::env::NetEnv;
use httpipe_core::experiments::{self, protocol_matrix, REGISTRY};
use httpipe_core::harness::{matrix_spec, run_spec, ProtocolSetup, Scenario};
use httpserver::ServerKind;

/// The arguments that are not EXPERIMENTS.md sections.
const COMMANDS: [(&str, &str); 2] = [
    ("table1", "Tested network environments"),
    (
        "xplot",
        "Write xplot-format time-sequence graphs (the paper's debugging tool)",
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
    let known = |a: &String| experiments::find(a).is_some() || COMMANDS.iter().any(|c| c.0 == a);
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
        match arg.as_str() {
            "table1" => print!("{}", protocol_matrix::table1().render()),
            "xplot" => xplot(),
            id => print!(
                "{}",
                (experiments::find(id)
                    .expect("arguments are checked above")
                    .section)()
            ),
        }
    }
}

/// One line per section id, then the two other commands.
fn listing() -> String {
    let entries = REGISTRY.iter().map(|e| (e.id, e.title));
    entries
        .chain(COMMANDS)
        .map(|(id, what)| format!("  {id:<10} {what}\n"))
        .collect()
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
