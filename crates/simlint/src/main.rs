//! `cargo run -p simlint -- [--json PATH]` lints every crate of the
//! workspace and exits nonzero on any diagnostic at severity warn or
//! above. CI runs the same command, with `--json` to keep the
//! machine-readable report as a build artifact.
//!
//! Suppressions:
//! - line-granular: a trailing comment on the offending line naming the
//!   rule, e.g. `// simlint: allow(<rule-id>)` with a real rule id;
//! - function-granular: the same marker in the comment block above a
//!   function signature covers the whole body.
//!
//! Every suppression must still fire: a marker that no longer matches
//! anything is itself reported (`stale-allow`), so dead exemptions
//! cannot linger and mask future regressions. See DESIGN.md ("Static
//! analysis") for the rule catalog and how to add a rule.

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json_path: Option<PathBuf> = None;
    let mut args = env::args().skip(1);
    while let Some(a) = args.next() {
        match (a.as_str(), args.next()) {
            ("--json", Some(p)) => json_path = Some(PathBuf::from(p)),
            _ => {
                eprintln!("usage: cargo run -p simlint -- [--json PATH]");
                return ExitCode::FAILURE;
            }
        }
    }

    // Run from the workspace root regardless of invocation directory.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("simlint lives two levels below the workspace root");

    let report = match simlint::lint_workspace(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: failed to read workspace: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = json_path {
        if let Err(e) = fs::write(&path, report.to_json()) {
            eprintln!("simlint: failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    for d in &report.diagnostics {
        eprintln!("{d}");
    }
    if report.clean() {
        eprintln!("simlint: {} files clean", report.files_scanned);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "simlint: {} diagnostic(s) across {} files",
            report.diagnostics.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}
