//! Mutation tests: every rule is proven live by planting one violation
//! in a synthetic snippet and asserting the exact diagnostic (rule id,
//! file, line). A rule that silently stops firing fails here before it
//! can fail to protect the tree.

use simlint::{lint_sources, SourceFile};

fn one(path: &str, text: &str) -> Vec<simlint::Diagnostic> {
    lint_sources(&[SourceFile {
        path: path.to_string(),
        text: text.to_string(),
    }])
    .diagnostics
}

/// Assert exactly one diagnostic with the given rule, path and line.
fn assert_fires(path: &str, text: &str, rule: &str, line: u32) {
    let diags = one(path, text);
    assert_eq!(
        diags.len(),
        1,
        "expected exactly one diagnostic for {rule}, got {diags:?}"
    );
    let d = &diags[0];
    assert_eq!(d.rule, rule);
    assert_eq!(d.path, path);
    assert_eq!(d.line, line, "wrong line for {rule}: {d}");
}

#[test]
fn telemetry_integer_fires() {
    assert_fires(
        "crates/netsim/src/telemetry.rs",
        "fn f(d: SimDuration) {\n    let s = d.as_secs_f64();\n    let _ = s;\n}\n",
        "telemetry-integer",
        2,
    );
}

#[test]
fn front_drain_fires() {
    assert_fires(
        "crates/httpserver/src/server.rs",
        "fn f(out: &mut Vec<u8>, n: usize) {\n    out.drain(..n);\n    out.drain(n..);\n    out.drain(..);\n}\n",
        "front-drain",
        2,
    );
    // `bytes` is where the one implementation lives.
    assert!(one(
        "crates/bytes/src/lib.rs",
        "fn f(v: &mut Vec<u8>, n: usize) {\n    v.drain(..n);\n}\n"
    )
    .is_empty());
}

#[test]
fn recorder_search_fires() {
    // The telemetry sink's first `slot`: a search of every series of the
    // run on each record, a mid-`Vec` insert on each new one.
    let slot = "\
fn slot(&mut self, key: SeriesKey) -> &mut SeriesData {
    let idx = match self.series.binary_search_by(|s| s.key.cmp(&key)) {
        Ok(i) => i,
        Err(i) => {
            self.series.insert(i, Series::new(key));
            i
        }
    };
    self.index.insert(key.scope);
    &mut self.series[idx].data
}
";
    let diags = one("crates/netsim/src/telemetry.rs", slot);
    let hits: Vec<(&str, u32)> = diags.iter().map(|d| (d.rule, d.line)).collect();
    assert_eq!(
        hits,
        vec![("recorder-search", 2), ("recorder-search", 5)],
        "{diags:?}"
    );
    // Only the flight recorders are held to it.
    assert!(one("crates/netsim/src/trace.rs", slot).is_empty());
}

// --- Scoper precision: the properties the regex lint could not have ---

#[test]
fn violation_hidden_by_reformatting_still_fires() {
    // Split across lines, extra whitespace, and a comment in between.
    assert_fires(
        "crates/netsim/src/sim.rs",
        "fn f(out: &mut Vec<u8>, n: usize) {\n    out\n        . /* sneaky */\n        drain(\n            ..n);\n}\n",
        "front-drain",
        4,
    );
}

#[test]
fn needle_inside_string_or_comment_is_silent() {
    let diags = one(
        "crates/netsim/src/sim.rs",
        "fn f() {\n    // out.drain(..n) binary_search\n    let s = \"out.drain(..n)\";\n    let r = r#\"v.drain(..1)\"#;\n}\n",
    );
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}

#[test]
fn test_code_never_fires() {
    let diags = one(
        "crates/netsim/src/sim.rs",
        "#[cfg(test)]\nmod tests {\n    fn t(v: &mut Vec<u8>) {\n        v.drain(..1);\n    }\n}\n",
    );
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}
