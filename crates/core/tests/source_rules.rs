//! The source rules: three properties of the byte path and the flight
//! recorders that no type, count or stock lint states, each a plain text
//! scan of the files it guards. A scan reads the whole file, so comments,
//! strings and test code count too, and whitespace or newlines inside a
//! pattern do not hide it. Each rule's test plants its violations in
//! snippets and shows that the near misses stay silent. Also here: every
//! member crate inherits the workspace's lints.

use std::fs;
use std::path::{Path, PathBuf};

/// A rule: its name, the paths below `crates/` it reads (a directory
/// stands for every `.rs` file below it), and the scan that finds the line
/// of each hit.
struct Rule {
    name: &'static str,
    paths: &'static str,
    scan: fn(&str) -> Vec<usize>,
}

/// Every rule. `design_doc.rs` reads the names from this list.
const RULES: [Rule; 3] = [
    // `.drain(..n)` gives up a queue's front by shifting everything behind
    // `n`, a memmove no allocation count sees. Bytes leave the front of a
    // `BytesMut` or a `BytesQueue`, which advance a cursor.
    Rule {
        name: "front-drain",
        paths: "netsim/src httpwire/src httpmux/src httpclient/src httpserver/src",
        scan: |s| hits(s, &[".drain(.."], |rest| !rest.starts_with(')')),
    },
    // A flight recorder is written on every event, so what it holds is
    // appended to and addressed by position: a search or an insert there
    // grows with the run, and costs no allocation.
    Rule {
        name: "recorder-search",
        paths: "netsim/src/probe.rs netsim/src/telemetry.rs",
        scan: |s| hits(s, &["binary_search", ".insert("], |_| true),
    },
    // Telemetry series are integer ticks and raw values end to end; floats
    // render at the report edge. Clippy's float lints see arithmetic, casts
    // and comparisons, not a float that is merely stored.
    Rule {
        name: "telemetry-integer",
        paths: "netsim/src/telemetry.rs",
        scan: floats,
    },
];

/// The lines where `s`, its whitespace removed, holds one of `needles`
/// followed by a rest that `then` accepts.
fn hits(s: &str, needles: &[&str], then: fn(&str) -> bool) -> Vec<usize> {
    let (mut text, mut lines, mut line) = (String::new(), Vec::new(), 1);
    for c in s.chars() {
        line += usize::from(c == '\n');
        if !c.is_whitespace() {
            text.push(c);
            lines.resize(text.len(), line);
        }
    }
    let found = needles.iter().flat_map(|n| text.match_indices(n));
    let found = found.filter(|(at, n)| then(&text[at + n.len()..]));
    found.map(|(at, _)| lines[at]).collect()
}

/// The line of every whole-word `f32`, `f64`, `as_secs_f32` or
/// `as_secs_f64` in `s`.
fn floats(s: &str) -> Vec<usize> {
    let float = |w: &&str| ["f32", "f64", "as_secs_f32", "as_secs_f64"].contains(w);
    let ident = |c: char| c == '_' || c.is_alphanumeric();
    let count = |line: &str| line.split(|c| !ident(c)).filter(float).count();
    let line_hits = |(i, line): (usize, &str)| vec![i + 1; count(line)];
    s.lines().enumerate().flat_map(line_hits).collect()
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("core lives two levels below the workspace root")
}

/// `path` if it is a file, else every `.rs` file below it.
fn rust_files(path: PathBuf) -> Vec<PathBuf> {
    if !path.is_dir() {
        return vec![path];
    }
    let entries = fs::read_dir(&path).expect("readable directory");
    let below = entries.map(|e| e.expect("directory entry").path());
    let kept = below.filter(|p| p.is_dir() || p.extension().is_some_and(|x| x == "rs"));
    kept.flat_map(rust_files).collect()
}

#[test]
fn the_tree_keeps_every_rule() {
    let mut hits = Vec::new();
    for rule in &RULES {
        let paths = rule.paths.split(' ').map(|p| root().join("crates").join(p));
        for file in paths.flat_map(rust_files) {
            let text = fs::read_to_string(&file).expect("a readable source file");
            let rel = file.strip_prefix(root()).expect("below the root").display();
            for line in (rule.scan)(&text) {
                hits.push(format!("{rel}:{line} [{}]", rule.name));
            }
        }
    }
    assert!(hits.is_empty(), "{}", hits.join("\n"));
}

/// The lines of `text` where the rule named `name` fires.
fn fires(name: &str, text: &str) -> Vec<usize> {
    let mut lines = (RULES.iter().find(|r| r.name == name).expect("a rule").scan)(text);
    lines.sort_unstable();
    lines
}

#[test]
fn front_drain_fires() {
    let server = "fn f(out: &mut Vec<u8>, n: usize, k: usize) {\n    out.drain(..n);\n    out.drain(n..);\n    out.drain(..);\n    out.drain(..=k);\n    // out.drain(..n) in prose\n}\n";
    assert_eq!(fires("front-drain", server), [2, 5, 6]);
    let full =
        "fn f(out: &mut Vec<u8>) {\n    out . drain( .. ) ;\n    out.drain(\n    ..\n    );\n}";
    assert!(fires("front-drain", full).is_empty());
}

#[test]
fn violation_hidden_by_reformatting_still_fires() {
    let split = "fn f(out: &mut Vec<u8>, n: usize) {\n    out.\n        drain(\n        ..n);\n}\n";
    assert_eq!(fires("front-drain", split), [2]);
}

#[test]
fn recorder_search_fires() {
    // The telemetry sink's first `slot`: a search of every series of the
    // run on each record, and a mid-`Vec` insert on each new one.
    let slot = "\
fn slot(&mut self, key: SeriesKey) -> &mut SeriesData {
    let idx = self.series.binary_search_by(|s| s.key.cmp(&key));
    let idx = idx.unwrap_or_else(|i| { self.series.insert(i, Series::new(key)); i });
    self.index.insert(key.scope);
    &mut self.series[idx].data
}
";
    assert_eq!(fires("recorder-search", slot), [2, 3, 4]);
    assert!(fires("recorder-search", "fn f(v: &mut Vec<u8>) { v.push(1); }").is_empty());
}

#[test]
fn telemetry_integer_fires() {
    let stored = "fn f(d: SimDuration) {\n    let s = d.as_secs_f64();\n    let _ = s;\n}\n";
    assert_eq!(fires("telemetry-integer", stored), [2]);
    let cast = "fn f(v: u64) -> f64 {\n    v as f32 as f64\n}\n";
    assert_eq!(fires("telemetry-integer", cast), [1, 2, 2]);
    let near = "fn f(buf64: u64, f64_bits: u64) -> u64 {\n    buf64 + f64_bits\n}\n";
    assert!(fires("telemetry-integer", near).is_empty());
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
