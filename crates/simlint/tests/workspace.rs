//! The workspace lint: every `.rs` file under `crates/` (integration
//! tests and build output aside) passes simlint's rules, and every allow
//! marker still suppresses something. A failure lists each diagnostic
//! as `file:line:col [rule] message`.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("simlint lives two levels below the workspace root");
    let report = simlint::lint_workspace(root).expect("the workspace's sources are readable");
    assert!(report.files_scanned > 0, "no source files under crates/");
    let listing: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        listing.is_empty(),
        "{} diagnostic(s) across {} files:\n{}",
        listing.len(),
        report.files_scanned,
        listing.join("\n")
    );
}
