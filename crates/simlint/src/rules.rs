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

/// Every valid rule id. Allow markers naming anything else are treated
/// as prose and ignored.
pub const RULE_IDS: &[&str] = &[
    "float-time-cmp",
    "telemetry-integer",
    "front-drain",
    "recorder-search",
    "seq-wrap",
    "time-unit",
    "stale-allow",
];

/// Rules that cannot be suppressed by allow markers.
pub const UNSUPPRESSIBLE: &[&str] = &["telemetry-integer", "stale-allow"];

/// Crates where raw nanosecond arithmetic must go through SimTime ops.
const TIME_CRATES: &[&str] = &["netsim", "httpmux"];

/// Crates whose byte queues give up their front through
/// `bytes::BytesMut` (the one implementation lives in `bytes`).
const BYTE_PATH_CRATES: &[&str] = &["netsim", "httpwire", "httpmux", "httpclient", "httpserver"];

/// Identifiers holding TCP sequence-space values in `tcp.rs` and the
/// congestion-control module `cc.rs`. Direct ordering or subtraction on
/// these must go through the `netsim::seq` wrapping helpers.
const SEQ_NAMES: &[&str] = &[
    "seq",
    "ack",
    "snd_nxt",
    "snd_una",
    "rcv_nxt",
    "buf_base",
    "fin_seq",
    "peer_fin_seq",
    "seq_end",
    "send_limit",
    "data_acked",
];

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

/// Run every rule over one scoped file. Allow markers are NOT applied
/// here — the caller resolves suppression so it can also report stale
/// markers.
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

    let is_probe = file == "probe.rs";
    // The telemetry sink shares the probe's flight-recorder discipline.
    // Only netsim's telemetry.rs qualifies: the bench bin and the
    // experiments module of the same name are ordinary consumer code.
    let is_telemetry = file == "telemetry.rs" && crate_of(path) == "netsim";
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

        // --- float-time-cmp: exact equality where an operand is a
        // float-seconds conversion, or a float literal compared in the
        // same statement as one.
        if t.kind == TokKind::Op && matches!(t.text.as_str(), "==" | "!=") {
            let left_conv = left_operand_name(sf, i) == Some("as_secs_f64");
            let right_conv = right_operand_name(sf, i) == Some("as_secs_f64");
            let adj_float = (i > 0 && is_float_literal(&toks[i - 1]))
                || (i + 1 < n && is_float_literal(&toks[i + 1]));
            let stmt_has_conv = || {
                let (lo, hi) = statement_bounds(sf, i);
                toks[lo..hi].iter().any(|t| t.is_ident("as_secs_f64"))
            };
            if left_conv || right_conv || (adj_float && stmt_has_conv()) {
                push(
                    "float-time-cmp",
                    t.line,
                    t.col,
                    "float equality on converted seconds; compare SimTime/SimDuration values instead"
                        .to_string(),
                );
            }
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
        // the same to a lexer: one that belongs there takes an allow
        // marker.)
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

        // --- seq-wrap: direct ordering/subtraction on sequence-space
        // values must use the netsim::seq wrapping helpers.
        if (file == "tcp.rs" || (file == "cc.rs" && crate_of(path) == "netsim"))
            && t.kind == TokKind::Op
            && matches!(t.text.as_str(), "<" | ">" | "<=" | ">=" | "-")
            && is_binary_op(sf, i)
        {
            let left = left_operand_name(sf, i);
            let right = right_operand_name(sf, i);
            let seq_left = left.map(|s| SEQ_NAMES.contains(&s)).unwrap_or(false);
            let seq_right = right.map(|s| SEQ_NAMES.contains(&s)).unwrap_or(false);
            if seq_left || seq_right {
                push(
                    "seq-wrap",
                    t.line,
                    t.col,
                    format!(
                        "direct `{}` on sequence-space value; use netsim::seq wrapping helpers",
                        t.text
                    ),
                );
            }
        }

        // --- time-unit: raw nanosecond arithmetic mixed with float or
        // seconds constants outside the SimTime ops module.
        if file != "time.rs" && crate_in(path, TIME_CRATES) {
            // `as_nanos() as f64` — converting ticks to float by hand.
            if t.is_ident("as_nanos")
                && i + 4 < n
                && toks[i + 1].is_op("(")
                && toks[i + 2].is_op(")")
                && toks[i + 3].is_ident("as")
                && toks[i + 4].is_ident("f64")
            {
                push(
                    "time-unit",
                    t.line,
                    t.col,
                    "raw ns-to-float conversion; use SimTime/SimDuration::as_secs_f64".to_string(),
                );
            }
            // Float literal in the same statement as a tick extraction.
            if t.is_ident("as_nanos") {
                let (lo, hi) = statement_bounds(sf, i);
                for tok in &toks[lo..hi] {
                    if is_float_literal(tok) {
                        push(
                            "time-unit",
                            tok.line,
                            tok.col,
                            "float constant mixed with raw nanosecond ticks; use SimTime ops"
                                .to_string(),
                        );
                    }
                }
            }
            // A bare 10^9 literal is a hand-rolled seconds conversion.
            if t.kind == TokKind::Num && is_ns_per_sec_literal(&t.text) {
                push(
                    "time-unit",
                    t.line,
                    t.col,
                    "hand-rolled ns/sec constant; use SimTime/SimDuration conversions".to_string(),
                );
            }
        }
    }

    // Dedup time-unit hits that fired via more than one sub-pattern on
    // the same token position.
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out.dedup_by(|a, b| a.rule == b.rule && a.line == b.line && a.col == b.col);

    out
}

/// Token range [lo, hi) of the statement containing token `i`, bounded
/// by `;`, `{`, or `}`.
fn statement_bounds(sf: &ScopedFile, i: usize) -> (usize, usize) {
    let toks = &sf.toks;
    let mut lo = i;
    while lo > 0 {
        let t = &toks[lo - 1];
        if t.kind == TokKind::Op && matches!(t.text.as_str(), ";" | "{" | "}") {
            break;
        }
        lo -= 1;
    }
    let mut hi = i;
    while hi < toks.len() {
        let t = &toks[hi];
        if t.kind == TokKind::Op && matches!(t.text.as_str(), ";" | "{" | "}") {
            break;
        }
        hi += 1;
    }
    (lo, hi)
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

fn is_float_literal(t: &crate::lexer::Tok) -> bool {
    t.kind == TokKind::Num
        && !t.text.starts_with("0x")
        && (t.text.contains('.') || t.text.contains('e') || t.text.contains('E'))
}

fn is_ns_per_sec_literal(text: &str) -> bool {
    let clean: String = text.chars().filter(|&c| c != '_').collect();
    clean == "1000000000" || clean == "1e9" || clean == "1e9f64"
}

/// Is the operator at `i` binary (has a value-producing token on its
/// left)? Filters out unary minus and generics-free noise.
fn is_binary_op(sf: &ScopedFile, i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let p = &sf.toks[i - 1];
    match p.kind {
        TokKind::Ident | TokKind::Num | TokKind::Str | TokKind::Char => true,
        TokKind::Op => matches!(p.text.as_str(), ")" | "]"),
        TokKind::Lifetime => false,
    }
}

/// Name of the value immediately left of operator `i`: a plain
/// identifier, or for a call chain `foo(…) OP`, the called identifier.
fn left_operand_name(sf: &ScopedFile, i: usize) -> Option<&str> {
    let toks = &sf.toks;
    let mut j = i.checked_sub(1)?;
    if toks[j].is_op(")") {
        // Walk back to the matching `(`, then the ident before it.
        let mut depth = 0i32;
        loop {
            let t = &toks[j];
            if t.is_op(")") {
                depth += 1;
            } else if t.is_op("(") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j = j.checked_sub(1)?;
        }
        j = j.checked_sub(1)?;
    }
    if toks[j].kind == TokKind::Ident {
        Some(toks[j].text.as_str())
    } else {
        None
    }
}

/// Name of the value immediately right of operator `i`, walking
/// through `self .`-style field chains to the final identifier.
fn right_operand_name(sf: &ScopedFile, i: usize) -> Option<&str> {
    let toks = &sf.toks;
    let mut j = i + 1;
    while j + 2 < toks.len() && toks[j].kind == TokKind::Ident && toks[j + 1].is_op(".") {
        j += 2;
    }
    if j < toks.len() && toks[j].kind == TokKind::Ident {
        Some(toks[j].text.as_str())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::scope_file;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_scoped(&scope_file(path, lex(src), RULE_IDS))
    }

    #[test]
    fn needle_in_string_or_comment_never_fires() {
        let src = "fn f() {\n    // out.drain(..n) and as_nanos() as f64 in prose\n    let s = \"out.drain(..n) 1e9\";\n}\n";
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

    #[test]
    fn seq_wrap_sees_call_chain_and_field_chain() {
        let src = "fn f(&self) {\n    let a = self.send_limit() - self.snd_nxt;\n    if seq < self.rcv_nxt {}\n}\n";
        let d = diags("crates/netsim/src/tcp.rs", src);
        let rules: Vec<&str> = d.iter().map(|x| x.rule).collect();
        assert_eq!(rules, vec!["seq-wrap", "seq-wrap"]);
    }

    #[test]
    fn seq_wrap_covers_cc_module() {
        let src = "fn f(&self, ctx: &CcContext) {\n    let gap = ctx.snd_nxt - ctx.snd_una;\n}\n";
        let d = diags("crates/netsim/src/cc.rs", src);
        assert!(d.iter().any(|x| x.rule == "seq-wrap"));
    }

    #[test]
    fn seq_wrap_ignores_unary_minus_and_generics() {
        let src = "fn f(x: Option<u64>) {\n    let y = -(1i64);\n    let z: Vec<u64> = Vec::with_capacity(0);\n}\n";
        assert!(diags("crates/netsim/src/tcp.rs", src)
            .iter()
            .all(|d| d.rule != "seq-wrap"));
    }

    #[test]
    fn float_cmp_is_statement_bounded() {
        // Conversion and comparison in different statements: clean.
        let src =
            "fn f(d: SimDuration) {\n    let secs = d.as_secs_f64();\n    if secs == 0.0 {}\n}\n";
        assert!(diags("crates/bench/src/lib.rs", src).is_empty());
        // Same statement: fires.
        let src2 = "fn f(d: SimDuration) {\n    let b = d.as_secs_f64() == 0.0;\n}\n";
        let d = diags("crates/bench/src/lib.rs", src2);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "float-time-cmp");
    }

    #[test]
    fn time_unit_subpatterns_fire_once_per_site() {
        let src = "fn f(d: SimDuration) {\n    let x = d.as_nanos() as f64 / 1e9;\n}\n";
        let d = diags("crates/netsim/src/impair.rs", src);
        let tu: Vec<_> = d.iter().filter(|x| x.rule == "time-unit").collect();
        // One hit at as_nanos (pattern A), one at the 1e9 literal.
        assert_eq!(tu.len(), 2);
    }

    #[test]
    fn time_unit_exempts_time_rs() {
        let src = "fn f(self) -> f64 { self.0 as f64 / 1e9 }\n";
        assert!(diags("crates/netsim/src/time.rs", src).is_empty());
    }
}
