//! DESIGN.md cites only what exists: every file it names in backticks is
//! a file of the workspace, every test it cites as `file.rs::name` is a
//! `fn name` in a file of that name, and every kebab-case name it puts
//! in backticks is a simlint rule, a conformance invariant or a crate.
//! Fenced code blocks are skipped; so are globs (`PROBE_*.json`) and
//! templates (`PROBE_<cell>.json`).

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("simlint lives two levels below the workspace root")
        .to_path_buf()
}

/// Every file and directory of the workspace, `/`-separated and relative
/// to the root, without build output.
fn workspace_paths(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if matches!(name.as_ref(), "target" | ".git" | "out" | ".bench_build") {
                continue;
            }
            let rel = path.strip_prefix(root).expect("below the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            if path.is_dir() {
                stack.push(path);
            }
            out.push(rel);
        }
    }
    out
}

/// The inline code spans of a Markdown document, outside fenced blocks.
fn code_spans(doc: &str) -> Vec<(usize, &str)> {
    let mut fenced = false;
    let mut spans = Vec::new();
    for (i, line) in doc.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            spans.extend(line.split('`').skip(1).step_by(2).map(|s| (i + 1, s)));
        }
    }
    spans
}

/// Does `span` name a file or directory: a root directory, a directory
/// (`…/`) or a name with one of the extensions the workspace holds?
fn is_path(span: &str) -> bool {
    const EXTENSIONS: [&str; 9] = [
        ".rs", ".md", ".json", ".toml", ".tsv", ".sh", ".yml", ".csv", ".pcapng",
    ];
    let plain = span
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || "_-./".contains(c));
    plain
        && (span.starts_with("crates/")
            || span.starts_with("benchmark/")
            || span.ends_with('/')
            || EXTENSIONS.iter().any(|ext| span.ends_with(ext)))
}

fn is_kebab(span: &str) -> bool {
    let mut words = span.split('-');
    let word = |w: &str| {
        !w.is_empty()
            && w.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
    };
    span.contains('-') && words.all(word)
}

/// Every package name declared under `crates/`.
fn crate_names(root: &Path) -> Vec<String> {
    let mut names = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates/") {
        let manifest = entry.expect("directory entry").path().join("Cargo.toml");
        let Ok(text) = fs::read_to_string(&manifest) else {
            continue;
        };
        let name = text
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .and_then(|rest| rest.strip_suffix('"'))
            .expect("a package name");
        names.push(name.to_string());
    }
    names
}

#[test]
fn design_md_cites_only_what_exists() {
    let root = root();
    let doc = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let files = workspace_paths(&root);
    let crates = crate_names(&root);
    let invariants: Vec<&str> = conformance::InvariantKind::ALL
        .iter()
        .map(|kind| kind.label())
        .collect();
    let mut stale = Vec::new();
    for (line, span) in code_spans(&doc) {
        // A test is cited as `file.rs::test_name`.
        let (span, test) = match span.split_once("::") {
            Some((file, name)) if file.ends_with(".rs") => (file, Some(name)),
            _ => (span.split("::").next().unwrap_or(span), None),
        };
        if is_path(span) {
            let path = span.trim_end_matches('/');
            let found: Vec<&String> = files
                .iter()
                .filter(|f| *f == path || f.ends_with(&format!("/{path}")))
                .collect();
            let defines = |name: &str| {
                let def = format!("fn {name}(");
                found
                    .iter()
                    .any(|f| fs::read_to_string(root.join(f)).is_ok_and(|text| text.contains(&def)))
            };
            if found.is_empty() {
                stale.push(format!("DESIGN.md:{line}: no file `{span}`"));
            } else if let Some(name) = test.filter(|name| !defines(name)) {
                stale.push(format!("DESIGN.md:{line}: no `fn {name}` in `{span}`"));
            }
        } else if is_kebab(span)
            && !simlint::rules::RULE_IDS.contains(&span)
            && !invariants.contains(&span)
            && !crates.iter().any(|c| c == span)
        {
            stale.push(format!(
                "DESIGN.md:{line}: `{span}` is no rule, invariant or crate"
            ));
        }
    }
    assert!(stale.is_empty(), "{}", stale.join("\n"));
}
