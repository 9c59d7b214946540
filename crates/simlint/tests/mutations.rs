//! Mutation tests: every rule is proven live by planting one violation
//! in a synthetic snippet and asserting the exact diagnostic (rule id,
//! file, line). A rule that silently stops firing fails here before it
//! can fail to protect the tree.

use simlint::{lint_sources, SourceFile};

fn one(path: &str, text: &str) -> Vec<simlint::report::Diagnostic> {
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
fn hash_collections_fires() {
    assert_fires(
        "crates/netsim/src/store.rs",
        "fn f() {\n    let m = HashMap::with_capacity(4);\n    let _ = m;\n}\n",
        "hash-collections",
        2,
    );
}

#[test]
fn wall_clock_fires() {
    assert_fires(
        "crates/core/src/robot.rs",
        "fn f() {\n    let t = Instant::now();\n}\n",
        "wall-clock",
        2,
    );
}

#[test]
fn thread_rng_fires() {
    assert_fires(
        "crates/netsim/src/impair2.rs",
        "fn f() {\n    let r = thread_rng();\n}\n",
        "thread-rng",
        2,
    );
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
fn probe_determinism_fires() {
    assert_fires(
        "crates/netsim/src/probe.rs",
        "use std::collections::HashSet;\n",
        "probe-determinism",
        1,
    );
}

#[test]
fn probe_determinism_fires_in_telemetry() {
    assert_fires(
        "crates/netsim/src/telemetry.rs",
        "fn f() {\n    let t = Instant::now();\n}\n",
        "probe-determinism",
        2,
    );
}

#[test]
fn probe_determinism_float_ban_fires_in_telemetry() {
    assert_fires(
        "crates/netsim/src/telemetry.rs",
        "fn f(d: SimDuration) {\n    let s = d.as_secs_f64();\n    let _ = s;\n}\n",
        "probe-determinism",
        2,
    );
}

#[test]
fn telemetry_float_ban_is_unsuppressible() {
    // An allow marker cannot bless a float in the telemetry sink.
    let diags = one(
        "crates/netsim/src/telemetry.rs",
        "// simlint: allow(probe-determinism)\nfn f(v: u64) -> f64 {\n    v as f64\n}\n",
    );
    assert!(
        diags.iter().any(|d| d.rule == "probe-determinism"),
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
        "fn f() {\n    let x = 1; // simlint: allow(wall-clock)\n}\n",
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
        "fn f() {\n    let t = Instant\n        :: /* sneaky */\n        now();\n}\n",
        "wall-clock",
        2,
    );
}

#[test]
fn needle_inside_string_or_comment_is_silent() {
    let diags = one(
        "crates/netsim/src/sim.rs",
        "fn f() {\n    // Instant::now() HashMap thread_rng\n    let s = \"Instant::now() HashMap\";\n    let r = r#\"SystemTime\"#;\n}\n",
    );
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}

#[test]
fn fn_granular_allow_covers_body_but_not_neighbors() {
    let text = "\
// Timing the real run is this helper's purpose.
// simlint: allow(wall-clock)
fn timed() {
    let a = Instant::now();
    let b = Instant::now();
}

fn unblessed() {
    let c = Instant::now();
}
";
    let diags = one("crates/bench/src/lib.rs", text);
    assert_eq!(
        diags.len(),
        1,
        "only the unblessed fn should fire: {diags:?}"
    );
    assert_eq!(diags[0].rule, "wall-clock");
    assert_eq!(diags[0].line, 9);
}

#[test]
fn test_code_never_fires() {
    let diags = one(
        "crates/netsim/src/sim.rs",
        "#[cfg(test)]\nmod tests {\n    fn t() {\n        let t = Instant::now();\n        let m = HashMap::new();\n    }\n}\n",
    );
    assert!(diags.is_empty(), "unexpected: {diags:?}");
}
