//! The workspace lint: every `.rs` file under `crates/` (integration
//! tests and build output aside) passes simlint's rules, and every member
//! crate inherits the workspace's clippy lints. A failure lists each
//! diagnostic as `file:line:col [rule] message`.

use std::fs;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("simlint lives two levels below the workspace root")
}

#[test]
fn workspace_is_lint_clean() {
    let report = simlint::lint_workspace(root()).expect("the workspace's sources are readable");
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

/// The entries of `manifest`'s `[name]` table, blank and comment lines
/// aside.
fn table<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// `float_cmp` is denied through `[workspace.lints]`, so a crate that
/// does not inherit them opts out of it unseen.
#[test]
fn every_member_inherits_workspace_lints() {
    let root_manifest = fs::read_to_string(root().join("Cargo.toml")).expect("Cargo.toml");
    assert!(
        table(&root_manifest, "workspace.lints.clippy").contains(&"float_cmp = \"deny\""),
        "the workspace no longer denies clippy::float_cmp"
    );
    let mut members = 0;
    let mut missing = Vec::new();
    for entry in fs::read_dir(root().join("crates")).expect("crates/") {
        let manifest = entry.expect("directory entry").path().join("Cargo.toml");
        let Ok(text) = fs::read_to_string(&manifest) else {
            continue;
        };
        members += 1;
        if table(&text, "lints") != ["workspace = true"] {
            missing.push(manifest.display().to_string());
        }
    }
    assert!(members > 0, "no member manifests under crates/");
    assert!(
        missing.is_empty(),
        "these manifests do not say `[lints] workspace = true`:\n{}",
        missing.join("\n")
    );
}
