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
fn float_time_cmp_fires() {
    assert_fires(
        "crates/netsim/src/trace2.rs",
        "fn f(d: SimDuration) {\n    if d.as_secs_f64() == 1.5 {}\n}\n",
        "float-time-cmp",
        2,
    );
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
fn telemetry_float_ban_is_unsuppressible() {
    // An allow marker cannot bless a float in the telemetry sink.
    let diags = one(
        "crates/netsim/src/telemetry.rs",
        "// simlint: allow(telemetry-integer)\nfn f(v: u64) -> f64 {\n    v as f64\n}\n",
    );
    assert!(
        diags.iter().any(|d| d.rule == "telemetry-integer"),
        "allow marker must not suppress: {diags:?}"
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

#[test]
fn seq_wrap_fires() {
    assert_fires(
        "crates/netsim/src/tcp.rs",
        "fn f(&self, ack: u64) -> bool {\n    ack > self.snd_una\n}\n",
        "seq-wrap",
        2,
    );
}

#[test]
fn time_unit_fires() {
    assert_fires(
        "crates/netsim/src/link.rs",
        "fn f(d: SimDuration) -> f64 {\n    d.as_nanos() as f64\n}\n",
        "time-unit",
        2,
    );
}

#[test]
fn stale_allow_fires_for_marker() {
    assert_fires(
        "crates/netsim/src/sim.rs",
        "fn f() {\n    let x = 1; // simlint: allow(time-unit)\n}\n",
        "stale-allow",
        2,
    );
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
        "fn f() {\n    // out.drain(..n) as_nanos() as f64\n    let s = \"out.drain(..n) 1e9\";\n    let r = r#\"d.as_nanos() as f64\"#;\n}\n",
    );
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}

#[test]
fn fn_granular_allow_covers_body_but_not_neighbors() {
    let text = "\
// Shifting the front is this helper's purpose.
// simlint: allow(front-drain)
fn shift(v: &mut Vec<u8>) {
    v.drain(..1);
    v.drain(..2);
}

fn unblessed(v: &mut Vec<u8>) {
    v.drain(..3);
}
";
    let diags = one("crates/httpwire/src/parser.rs", text);
    assert_eq!(
        diags.len(),
        1,
        "only the unblessed fn should fire: {diags:?}"
    );
    assert_eq!(diags[0].rule, "front-drain");
    assert_eq!(diags[0].line, 9);
}

#[test]
fn test_code_never_fires() {
    let diags = one(
        "crates/netsim/src/sim.rs",
        "#[cfg(test)]\nmod tests {\n    fn t(v: &mut Vec<u8>, d: SimDuration) {\n        v.drain(..1);\n        let x = d.as_nanos() as f64;\n    }\n}\n",
    );
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}
