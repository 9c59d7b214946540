//! The rule catalog.
//!
//! Every rule walks the token stream of a [`ScopedFile`], so needles in
//! comments and string literals can never fire, reformatting cannot hide
//! a violation (`.drain(\n ..n)` still matches), and test-only code
//! is skipped via the scoper's per-token mask.
//!
//! A ban on naming a type or calling a method belongs in the root
//! `clippy.toml`, which resolves paths and covers test code too; the
//! rules here are the token patterns clippy cannot state.
//!
//! To add a rule: pick an id, add it to [`RULE_IDS`], emit diagnostics
//! from [`lint_scoped`], and plant a violation for it in
//! `tests/mutations.rs` so the rule is proven live. A defect that costs
//! the allocator belongs in `httpipe-core`'s count table instead:
//! a rule rejects one spelling of it, a count catches every spelling.

use crate::lexer::TokKind;
use crate::scope::ScopedFile;
use crate::Diagnostic;

/// Every rule id.
pub const RULE_IDS: &[&str] = &["front-drain", "recorder-search", "telemetry-integer"];

/// Crates whose byte queues give up their front through
/// `bytes::BytesMut` (the one implementation lives in `bytes`).
const BYTE_PATH_CRATES: &[&str] = &["netsim", "httpwire", "httpmux", "httpclient", "httpserver"];

/// Crate name from a workspace-relative path ("crates/netsim/src/…" ->
/// "netsim"); empty when undeterminable (synthetic test inputs).
fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
}

fn file_of(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// True when `path` belongs to one of `crates`, or the crate cannot be
/// determined (keeps synthetic snippets lintable in tests).
fn crate_in(path: &str, crates: &[&str]) -> bool {
    let c = crate_of(path);
    c.is_empty() || crates.contains(&c)
}

/// Run every rule over one scoped file.
pub fn lint_scoped(sf: &ScopedFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let path = sf.path.as_str();
    let file = file_of(path);
    let toks = &sf.toks;
    let n = toks.len();

    let mut push = |rule: &'static str, line: u32, col: u32, message: String| {
        out.push(Diagnostic {
            rule,
            path: path.to_string(),
            line,
            col,
            message,
        });
    };

    // The recorders are netsim's probe and its telemetry sink, which
    // shares the probe's flight-recorder discipline. Files of the same
    // names elsewhere (the bench bin, the experiments modules) are
    // ordinary consumer code.
    let in_netsim = crate_of(path) == "netsim";
    let is_probe = file == "probe.rs" && in_netsim;
    let is_telemetry = file == "telemetry.rs" && in_netsim;
    let is_recorder = is_probe || is_telemetry;

    for i in 0..n {
        if sf.is_test_tok(i) {
            continue;
        }
        let t = &toks[i];

        // --- telemetry-integer: series are integer ticks and raw values
        // end to end, so any float type or float sim-time conversion
        // means a lossy representation snuck into the recorder. (The
        // probe is exempt — it owns the float-seconds *rendering* at the
        // report edge.)
        if is_telemetry
            && t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "f32" | "f64" | "as_secs_f32" | "as_secs_f64"
            )
        {
            push(
                "telemetry-integer",
                t.line,
                t.col,
                format!(
                    "`{}` in the telemetry sink: series are integer-only (ticks and raw values); render floats at the report edge",
                    t.text
                ),
            );
        }

        // --- front-drain: `.drain(..n)` shifts everything behind `n`
        // (`.drain(..)` takes everything and shifts nothing). The shift is
        // a memmove, not an allocation, so no allocation count sees it.
        if t.is_ident("drain")
            && i > 0
            && toks[i - 1].is_op(".")
            && i + 3 < n
            && toks[i + 1].is_op("(")
            && matches!(toks[i + 2].text.as_str(), ".." | "..=")
            && !toks[i + 3].is_op(")")
            && crate_in(path, BYTE_PATH_CRATES)
        {
            push(
                "front-drain",
                t.line,
                t.col,
                "`.drain(..n)` consumes from the front by shifting the rest; queue bytes in a `BytesMut` and `advance`"
                    .to_string(),
            );
        }

        // --- recorder-search: a flight recorder is written on every
        // event, so what it has recorded is addressed by position and
        // appended to; a search or a positional insert there grows with
        // the run. A search or a shift costs time and no allocation, so no
        // allocation count sees it. (A map's two-argument `insert` reads
        // the same to a lexer; the recorders keep no such map.)
        if is_recorder && i > 0 && toks[i - 1].is_op(".") && i + 1 < n && toks[i + 1].is_op("(") {
            let searches = t.kind == TokKind::Ident && t.text.starts_with("binary_search");
            if searches || (t.is_ident("insert") && call_has_two_args(sf, i + 1)) {
                push(
                    "recorder-search",
                    t.line,
                    t.col,
                    format!(
                        "`.{}(…)` in `{}`: a recorder's write path must not search or shift what it has recorded; resolve once, keep the position, append",
                        t.text, file
                    ),
                );
            }
        }
    }

    out
}

/// Index of the `)` closing the call whose `(` is token `open` (the end
/// of the file when it never closes).
fn call_end(sf: &ScopedFile, open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in sf.toks.iter().enumerate().skip(open) {
        if t.kind != TokKind::Op {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    sf.toks.len()
}

/// Does the call whose `(` is token `open` have a comma between its
/// arguments? `v.insert(i, x)` places at a position; a set's
/// `insert(x)` does not.
fn call_has_two_args(sf: &ScopedFile, open: usize) -> bool {
    let mut depth = 0i32;
    for t in &sf.toks[open..call_end(sf, open)] {
        if t.kind != TokKind::Op {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 1 => return true,
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::scope_file;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_scoped(&scope_file(path, lex(src)))
    }

    #[test]
    fn needle_in_string_or_comment_never_fires() {
        let src = "fn f() {\n    // out.drain(..n) in prose\n    let s = \"out.drain(..n)\";\n}\n";
        assert!(diags("crates/netsim/src/lib.rs", src).is_empty());
    }

    #[test]
    fn reformatted_call_still_fires() {
        let src =
            "fn f(out: &mut Vec<u8>, n: usize) {\n    out.\n        drain(\n        ..n);\n}\n";
        let d = diags("crates/netsim/src/lib.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "front-drain");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(v: &mut Vec<u8>) { v.drain(..1); }\n}\n";
        assert!(diags("crates/netsim/src/lib.rs", src).is_empty());
    }

    #[test]
    fn telemetry_sink_shares_the_probe_discipline() {
        // The recorder write path is held to `recorder-search` in the
        // probe and in netsim's telemetry.rs...
        let src = "fn f(&mut self, k: u64) {\n    let _ = self.keys.binary_search(&k);\n}\n";
        for path in [
            "crates/netsim/src/probe.rs",
            "crates/netsim/src/telemetry.rs",
        ] {
            let d = diags(path, src);
            assert_eq!(d.len(), 1, "{path}: {d:?}");
            assert_eq!(d[0].rule, "recorder-search");
        }
        // ...but the bench bin and experiments module of the same name
        // are ordinary code.
        assert!(diags("crates/bench/src/bin/telemetry.rs", src).is_empty());
        assert!(diags("crates/core/src/experiments/telemetry.rs", src).is_empty());
    }

    #[test]
    fn only_netsims_probe_is_a_recorder() {
        let src = "fn f(&mut self, k: u64) {\n    let _ = self.keys.binary_search(&k);\n}\n";
        let d = diags("crates/netsim/src/probe.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "recorder-search");
        // The experiments module of that name reads the probe's records.
        assert!(diags("crates/core/src/experiments/probe.rs", src).is_empty());
    }

    #[test]
    fn telemetry_sink_bans_floats_but_probe_keeps_them() {
        let src = "fn f(v: u64) -> f64 {\n    v as f64\n}\n";
        let d = diags("crates/netsim/src/telemetry.rs", src);
        // One hit per `f64` token (return type + cast).
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|x| x.rule == "telemetry-integer"));
        // Only netsim's sink: same-named consumer files render floats.
        assert!(diags("crates/bench/src/bin/telemetry.rs", src).is_empty());
        assert!(diags("crates/core/src/experiments/telemetry.rs", src).is_empty());
        // The probe renders float seconds at the report edge; no ban.
        assert!(diags("crates/netsim/src/probe.rs", src).is_empty());
    }
}
