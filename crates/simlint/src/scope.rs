//! Brace/item-aware scoping on top of the token stream.
//!
//! The scoper turns a [`Lexed`] file into a [`ScopedFile`]: every token
//! knows whether it sits inside test-only code (`#[cfg(test)]` items or a
//! `mod tests` block) and which function body (if any) encloses it. Allow markers are extracted from comments here too,
//! because their meaning ("this line", "this function") depends on scope.

use crate::lexer::{Comment, Lexed, Tok, TokKind};

/// One function found in the file. `item_start_line` includes the
/// attributes and qualifiers above the `fn` keyword so a marker placed
/// on the signature (or its doc block) covers the whole body.
#[derive(Debug, Clone)]
pub struct FnScope {
    pub name: String,
    pub item_start_line: u32,
    pub body_start_line: u32,
    pub end_line: u32,
    /// Token index of the body's opening `{`.
    pub body_start_tok: usize,
    /// Token index of the body's closing `}`.
    pub body_end_tok: usize,
}

/// Where an allow marker applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllowScope {
    /// The single source line (for trailing markers and markers above a
    /// plain statement).
    Line(u32),
    /// A whole function body, by index into `ScopedFile::fns`.
    Fn(usize),
}

#[derive(Debug, Clone)]
pub struct AllowMarker {
    pub rule: String,
    /// Line of the comment that carries the marker (for stale reporting).
    pub line: u32,
    pub scope: AllowScope,
    pub in_test: bool,
}

pub struct ScopedFile {
    pub path: String,
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
    pub fns: Vec<FnScope>,
    /// Per-token: true when the token is inside test-only code.
    pub test: Vec<bool>,
    pub allows: Vec<AllowMarker>,
}

impl ScopedFile {
    /// Index into `fns` of the innermost function containing token `ti`.
    pub fn enclosing_fn(&self, ti: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (fi, f) in self.fns.iter().enumerate() {
            if f.body_start_tok < ti && ti < f.body_end_tok {
                let better = match best {
                    None => true,
                    Some(b) => self.fns[b].body_start_tok < f.body_start_tok,
                };
                if better {
                    best = Some(fi);
                }
            }
        }
        best
    }

    pub fn is_test_tok(&self, ti: usize) -> bool {
        self.test.get(ti).copied().unwrap_or(false)
    }
}

/// For each `{` token index, the index of its matching `}` (usize::MAX
/// when unbalanced).
fn brace_partners(toks: &[Tok]) -> Vec<usize> {
    let mut close = vec![usize::MAX; toks.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_op("{") {
            stack.push(i);
        } else if t.is_op("}") {
            if let Some(open) = stack.pop() {
                close[open] = i;
            }
        }
    }
    close
}

/// Qualifier identifiers that may precede `fn` in an item signature.
const FN_QUALIFIERS: &[&str] = &[
    "pub", "const", "unsafe", "async", "extern", "crate", "in", "self", "super",
];

pub fn scope_file(path: &str, lexed: Lexed, known_rules: &[&str]) -> ScopedFile {
    let toks = lexed.toks;
    let comments = lexed.comments;
    let n = toks.len();

    let match_close = brace_partners(&toks);

    // --- Function detection ---------------------------------------------
    let mut fns: Vec<FnScope> = Vec::new();
    for i in 0..n {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "fn") {
            continue;
        }
        // Name follows `fn`.
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        // Walk forward to the body `{`, skipping the parameter list,
        // generics, return type, and where-clause. Angle depth tracks
        // generics; `->`/`=>` are not closers. A `;` at depth 0 means a
        // bodyless declaration (trait method / extern), so skip it.
        let mut j = i + 2;
        let mut paren = 0i32;
        let mut angle = 0i32;
        let mut body_open: Option<usize> = None;
        while j < n {
            let t = &toks[j];
            if t.kind == TokKind::Op {
                match t.text.as_str() {
                    "(" | "[" => paren += 1,
                    ")" | "]" => paren -= 1,
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "<<" => angle += 2,
                    ">>" => angle -= 2,
                    ";" if paren == 0 && angle <= 0 => break,
                    "{" if paren == 0 && angle <= 0 => {
                        body_open = Some(j);
                        break;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(open) = body_open else { continue };
        let close = match_close[open];
        if close == usize::MAX {
            continue;
        }
        // Walk back over qualifiers and attributes to find the item start
        // line, so markers above the signature cover the body.
        let mut k = i;
        while k > 0 {
            let p = &toks[k - 1];
            let is_qual = p.kind == TokKind::Ident && FN_QUALIFIERS.contains(&p.text.as_str());
            // `pub(crate)` / `pub(in path)` pieces.
            let is_vis_punct =
                p.kind == TokKind::Op && (p.text == ")" || p.text == "(" || p.text == "::");
            let is_vis_path = p.kind == TokKind::Ident
                && k >= 2
                && toks[k - 2].kind == TokKind::Op
                && (toks[k - 2].text == "(" || toks[k - 2].text == "::");
            if is_qual || is_vis_punct || is_vis_path {
                k -= 1;
                continue;
            }
            // Attribute `#[…]` directly above: include it.
            if p.is_op("]") {
                // Scan back to the matching `#[`.
                let mut depth = 0i32;
                let mut m = k - 1;
                loop {
                    let t = &toks[m];
                    if t.is_op("]") {
                        depth += 1;
                    } else if t.is_op("[") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if m == 0 {
                        break;
                    }
                    m -= 1;
                }
                if m > 0 && toks[m - 1].is_op("#") {
                    k = m - 1;
                    continue;
                }
            }
            break;
        }
        fns.push(FnScope {
            name: name_tok.text.clone(),
            item_start_line: toks[k].line,
            body_start_line: toks[open].line,
            end_line: toks[close].line,
            body_start_tok: open,
            body_end_tok: close,
        });
    }

    // --- Test masking ----------------------------------------------------
    // `#[cfg(test)]` marks the next item's brace range as test-only;
    // `mod tests {` likewise.
    let mut test = vec![false; n];
    let mut i = 0;
    while i < n {
        let mut test_range: Option<(usize, usize)> = None;
        // #[cfg(test)] — tokens: # [ cfg ( test ) ]
        if toks[i].is_op("#")
            && i + 6 < n
            && toks[i + 1].is_op("[")
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_op("(")
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_op(")")
            && toks[i + 6].is_op("]")
        {
            // Find the next `{` at this item level and take its range.
            let mut j = i + 7;
            let mut paren = 0i32;
            while j < n {
                let t = &toks[j];
                if t.kind == TokKind::Op {
                    match t.text.as_str() {
                        "(" | "[" => paren += 1,
                        ")" | "]" => paren -= 1,
                        ";" if paren == 0 => break, // e.g. `#[cfg(test)] use …;`
                        "{" if paren == 0 => {
                            let close = match_close[j];
                            if close != usize::MAX {
                                test_range = Some((i, close));
                            }
                            break;
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
            if test_range.is_none() {
                // Bodyless item (a test-only use/decl): mask to the `;`.
                test_range = Some((i, j.min(n - 1)));
            }
        }
        // `mod tests {` without the attribute (belt and braces).
        if toks[i].is_ident("mod")
            && i + 2 < n
            && toks[i + 1].is_ident("tests")
            && toks[i + 2].is_op("{")
        {
            let close = match_close[i + 2];
            if close != usize::MAX {
                test_range = Some((i, close));
            }
        }
        if let Some((a, bnd)) = test_range {
            for m in test.iter_mut().take(bnd + 1).skip(a) {
                *m = true;
            }
        }
        i += 1;
    }

    // --- Allow markers ----------------------------------------------------
    // Syntax inside any comment: `simlint: allow(rule)`. Unknown rule
    // names are treated as prose and ignored.
    let mut allows: Vec<AllowMarker> = Vec::new();
    // Last code line per line number: we need "next code line after L".
    let code_lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
    let mut sf = ScopedFile {
        path: path.to_string(),
        toks,
        comments,
        fns,
        test,
        allows: Vec::new(),
    };
    for c in &sf.comments {
        for rule in extract_marker_rules(&c.text, known_rules) {
            let target_line = if c.trailing {
                c.line
            } else {
                // Standalone comment: applies to the next code line after
                // the comment block ends.
                match code_lines.iter().copied().find(|&l| l > c.end_line) {
                    Some(l) => l,
                    None => continue,
                }
            };
            // If the target line is a function's signature/attribute
            // region (at or above its body brace), the marker is
            // function-granular.
            let mut scope = AllowScope::Line(target_line);
            for (fi, f) in sf.fns.iter().enumerate() {
                if target_line >= f.item_start_line && target_line <= f.body_start_line {
                    scope = AllowScope::Fn(fi);
                    break;
                }
            }
            // Is the marker inside test code? Use the nearest token at or
            // after the target line.
            let in_test = sf
                .toks
                .iter()
                .position(|t| t.line >= target_line)
                .map(|ti| sf.is_test_tok(ti))
                .unwrap_or(false);
            allows.push(AllowMarker {
                rule,
                line: c.line,
                scope,
                in_test,
            });
        }
    }
    sf.allows = allows;
    sf
}

/// Pull every `allow(rule)` marker out of one comment's text. The rule
/// name must match a known rule id; anything else is prose.
fn extract_marker_rules(text: &str, known_rules: &[&str]) -> Vec<String> {
    const MARKER: &str = "simlint:";
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(MARKER) {
        rest = &rest[pos + MARKER.len()..];
        let after = rest.trim_start();
        if let Some(args) = after.strip_prefix("allow(") {
            if let Some(end) = args.find(')') {
                for part in args[..end].split(',') {
                    let rule = part.trim();
                    if known_rules.contains(&rule) {
                        out.push(rule.to_string());
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const RULES: &[&str] = &["time-unit", "front-drain"];

    fn scoped(src: &str) -> ScopedFile {
        scope_file("test.rs", lex(src), RULES)
    }

    #[test]
    fn finds_function_bounds() {
        let sf = scoped("pub fn alpha<T: Ord>(x: T) -> bool {\n    x < x\n}\nfn beta() {}\n");
        assert_eq!(sf.fns.len(), 2);
        assert_eq!(sf.fns[0].name, "alpha");
        assert_eq!(sf.fns[0].body_start_line, 1);
        assert_eq!(sf.fns[0].end_line, 3);
        assert_eq!(sf.fns[1].name, "beta");
    }

    #[test]
    fn nested_fn_resolves_to_innermost() {
        let sf = scoped("fn outer() {\n    fn inner() {\n        work();\n    }\n}\n");
        let ti = sf.toks.iter().position(|t| t.is_ident("work")).unwrap();
        let fi = sf.enclosing_fn(ti).unwrap();
        assert_eq!(sf.fns[fi].name, "inner");
    }

    #[test]
    fn cfg_test_masks_tokens() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { boom(); }\n}\n";
        let sf = scoped(src);
        let boom = sf.toks.iter().position(|t| t.is_ident("boom")).unwrap();
        assert!(sf.is_test_tok(boom));
        let live = sf.toks.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(!sf.is_test_tok(live));
    }

    #[test]
    fn mod_tests_without_attr_is_masked() {
        let sf = scoped("mod tests {\n    fn t() { boom(); }\n}\n");
        let boom = sf.toks.iter().position(|t| t.is_ident("boom")).unwrap();
        assert!(sf.is_test_tok(boom));
    }

    #[test]
    fn trailing_marker_is_line_scoped() {
        let sf = scoped("fn f() {\n    let t = now(); // simlint: allow(time-unit)\n}\n");
        assert_eq!(sf.allows.len(), 1);
        assert_eq!(sf.allows[0].rule, "time-unit");
        assert_eq!(sf.allows[0].scope, AllowScope::Line(2));
    }

    #[test]
    fn marker_above_fn_is_fn_scoped() {
        let src = "// Timing harness, exempt by design.\n// simlint: allow(time-unit)\npub fn bench() {\n    let t = now();\n}\n";
        let sf = scoped(src);
        assert_eq!(sf.allows.len(), 1);
        assert_eq!(sf.allows[0].scope, AllowScope::Fn(0));
    }

    #[test]
    fn marker_above_statement_is_next_line_scoped() {
        let src = "fn f() {\n    // simlint: allow(front-drain)\n    out.drain(..n);\n}\n";
        let sf = scoped(src);
        assert_eq!(sf.allows.len(), 1);
        assert_eq!(sf.allows[0].scope, AllowScope::Line(3));
    }

    #[test]
    fn unknown_rule_names_are_prose() {
        let sf = scoped("// simlint: allow(made-up-rule)\nfn f() {}\n");
        assert!(sf.allows.is_empty());
    }
}
