//! The docs cite only what exists. In DESIGN.md, every file named in
//! backticks is a file of the workspace, every test cited as
//! `file.rs::name` is a `fn name` in a file of that name, and every
//! kebab-case name in backticks is a source rule, a conformance invariant
//! or a crate. In DESIGN.md and README.md, every `repro <id>` names a
//! section or a command of `repro`, and every `gate <name>` an entry of
//! the gate registry. Fenced code blocks are skipped; so are globs
//! (`PROBE_*.json`) and templates (`PROBE_<cell>.json`).

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("core lives two levels below the workspace root")
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

/// The inline code spans of a Markdown document, outside fenced blocks,
/// each with the line it starts on. A span may wrap onto the next line.
fn code_spans(doc: &str) -> Vec<(usize, String)> {
    let mut fenced = false;
    let prose: Vec<&str> = doc
        .lines()
        .map(|line| {
            let fence = line.trim_start().starts_with("```");
            fenced ^= fence;
            if fenced || fence {
                ""
            } else {
                line
            }
        })
        .collect();
    let (mut line, mut spans) = (1, Vec::new());
    for (i, part) in prose.join("\n").split('`').enumerate() {
        if i % 2 == 1 {
            spans.push((line, part.replace('\n', " ")));
        }
        line += part.matches('\n').count();
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

/// The names of the source rules: the `name:` fields of `RULES` in
/// `source_rules.rs`, the one list that test runs.
fn rule_names(root: &Path) -> Vec<String> {
    let rules = fs::read_to_string(root.join("crates/core/tests/source_rules.rs")).expect("rules");
    let names: Vec<String> = rules
        .lines()
        .filter_map(|l| l.trim().strip_prefix("name: \"")?.strip_suffix("\","))
        .map(str::to_string)
        .collect();
    assert!(!names.is_empty(), "no rule names in source_rules.rs");
    names
}

#[test]
fn design_md_cites_only_what_exists() {
    let root = root();
    let doc = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let files = workspace_paths(&root);
    let crates = crate_names(&root);
    let rules = rule_names(&root);
    let invariants: Vec<&str> = conformance::InvariantKind::ALL
        .iter()
        .map(|kind| kind.label())
        .collect();
    let mut stale = Vec::new();
    for (line, span) in code_spans(&doc) {
        let span = span.as_str();
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
            && !rules.iter().any(|r| r == span)
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

/// `repro X Y…` and `gate X Y…` in backticks: every lowercase word after
/// the binary's name is a section or command of `repro`, or an entry of
/// `gate`'s registry. A placeholder (`repro <id>`) or a flag ends the list.
#[test]
fn docs_cite_only_commands_that_exist() {
    let root = root();
    let repro = fs::read_to_string(root.join("crates/bench/src/bin/repro.rs")).expect("repro.rs");
    let commands = repro
        .split("const COMMANDS")
        .nth(1)
        .and_then(|c| c.split("];").next());
    let commands = commands.expect("repro's COMMANDS");
    let repro_knows = |word: &str| {
        let command = word == "list" || commands.contains(&format!("\"{word}\""));
        command || httpipe_core::experiments::find(word).is_some()
    };
    let gate_knows = |word: &str| httpipe_core::gate::REGISTRY.iter().any(|g| g.name == word);
    let mut stale = Vec::new();
    for doc in ["DESIGN.md", "README.md"] {
        let text = fs::read_to_string(root.join(doc)).expect("a doc");
        for (line, span) in code_spans(&text) {
            let mut words = span.split_whitespace();
            let knows: &dyn Fn(&str) -> bool = match words.next() {
                Some("repro") => &repro_knows,
                Some("gate") => &gate_knows,
                _ => continue,
            };
            let lowercase = |w: &&str| {
                w.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
            };
            for word in words.take_while(lowercase).filter(|w| !knows(w)) {
                stale.push(format!("{doc}:{line}: `{}` cites no `{word}`", span.trim()));
            }
        }
    }
    assert!(stale.is_empty(), "{}", stale.join("\n"));
}
