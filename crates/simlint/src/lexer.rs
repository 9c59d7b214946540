//! A minimal Rust lexer: just enough token structure for the lint rules.
//!
//! The old xtask lint worked on raw lines with comments stripped, which
//! meant a violation could hide behind reformatting (`.drain(` on one
//! line, `..n)` on the next) and a needle inside a string literal was a
//! false positive waiting to happen. The lexer removes both failure
//! modes: comments never reach the token stream, and a string or char
//! literal is one token whose contents no rule reads.
//!
//! It handles the syntax this workspace actually uses: line and
//! (nested) block comments, string / raw string / byte string / char
//! literals, lifetimes, numbers with underscores and exponents, and the
//! multi-character operators. It does not try to be a full Rust lexer —
//! unknown bytes degrade to single-character operator tokens, which is
//! safe for linting (worst case a rule sees an extra punct token).

/// Classification of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including `_`).
    Ident,
    /// Numeric literal (`1460`, `1_000_000_000`, `1e9`, `0xfff`).
    Num,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Operator / punctuation, possibly multi-character (`::`, `=>`).
    Op,
}

/// One code token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token's exact source text.
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub col: u32,
}

impl Tok {
    /// Shorthand: is this an identifier with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Shorthand: is this an operator with exactly this text?
    pub fn is_op(&self, s: &str) -> bool {
        self.kind == TokKind::Op && self.text == s
    }
}

/// Operators longer than one character, longest-match-first.
const MULTI_OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

/// Lex `src` into its code tokens, comments skipped. Never fails:
/// malformed input degrades to operator tokens rather than aborting the
/// lint.
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! advance {
        ($n:expr) => {{
            for _ in 0..$n {
                if i < b.len() {
                    if b[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        }};
    }

    while i < b.len() {
        let c = b[i];
        let (tline, tcol) = (line, col);

        // Whitespace.
        if c.is_ascii_whitespace() {
            advance!(1);
            continue;
        }

        // Line comment.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                advance!(1);
            }
            continue;
        }

        // Block comment (nested).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    advance!(2);
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    advance!(2);
                    if depth == 0 {
                        break;
                    }
                } else {
                    advance!(1);
                }
            }
            continue;
        }

        // Raw / byte string prefixes: r"…", r#"…"#, br"…", b"…". Decide
        // without consuming anything, so `rst`/`bits`/`r#raw_ident`
        // still lex as identifiers.
        if c == b'r' || c == b'b' {
            let mut j = i;
            if b[j] == b'b' {
                j += 1;
            }
            let has_r = j < b.len() && b[j] == b'r';
            if has_r {
                j += 1;
            }
            let mut hashes = 0usize;
            while has_r && j < b.len() && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            let is_string = j < b.len() && b[j] == b'"' && (has_r || c == b'b');
            if is_string {
                let start = i;
                advance!(j - i + 1); // prefix plus the opening quote
                if has_r {
                    // Scan to `"` followed by `hashes` hash marks.
                    'scan: while i < b.len() {
                        if b[i] == b'"' {
                            let mut k = 0usize;
                            while k < hashes && i + 1 + k < b.len() && b[i + 1 + k] == b'#' {
                                k += 1;
                            }
                            if k == hashes {
                                advance!(1 + hashes);
                                break 'scan;
                            }
                        }
                        advance!(1);
                    }
                } else {
                    while i < b.len() && b[i] != b'"' {
                        if b[i] == b'\\' {
                            advance!(1);
                        }
                        advance!(1);
                    }
                    advance!(1); // closing quote
                }
                out.push(Tok {
                    kind: TokKind::Str,
                    text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                    line: tline,
                    col: tcol,
                });
                continue;
            }
        }

        // Plain string literal.
        if c == b'"' {
            let start = i;
            advance!(1);
            while i < b.len() && b[i] != b'"' {
                if b[i] == b'\\' {
                    advance!(1);
                }
                advance!(1);
            }
            advance!(1);
            out.push(Tok {
                kind: TokKind::Str,
                text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                line: tline,
                col: tcol,
            });
            continue;
        }

        // Char literal vs lifetime.
        if c == b'\'' {
            let start = i;
            // Lifetime: `'ident` not followed by a closing quote.
            let is_lifetime = i + 1 < b.len()
                && (b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_')
                && !(i + 2 < b.len() && b[i + 2] == b'\'');
            if is_lifetime {
                advance!(1);
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    advance!(1);
                }
                out.push(Tok {
                    kind: TokKind::Lifetime,
                    text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                    line: tline,
                    col: tcol,
                });
            } else {
                advance!(1);
                if i < b.len() && b[i] == b'\\' {
                    advance!(1);
                    // Escapes may span several chars (\n, \u{..}, \x41).
                    while i < b.len() && b[i] != b'\'' {
                        advance!(1);
                    }
                } else if i < b.len() {
                    // One scalar, which may be multi-byte UTF-8 ('▁'):
                    // consume the lead byte plus its continuation bytes.
                    advance!(1);
                    while i < b.len() && (b[i] & 0xC0) == 0x80 {
                        advance!(1);
                    }
                }
                if i < b.len() && b[i] == b'\'' {
                    advance!(1);
                }
                out.push(Tok {
                    kind: TokKind::Char,
                    text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                    line: tline,
                    col: tcol,
                });
            }
            continue;
        }

        // Number.
        if c.is_ascii_digit() {
            let start = i;
            advance!(1);
            while i < b.len() {
                let d = b[i];
                if d.is_ascii_alphanumeric() || d == b'_' {
                    advance!(1);
                } else if d == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit() {
                    // `1.5` continues the number; `1..2` / `1.max()` do not.
                    advance!(1);
                } else if (d == b'+' || d == b'-')
                    && i > start
                    && (b[i - 1] == b'e' || b[i - 1] == b'E')
                    && !String::from_utf8_lossy(&b[start..i]).starts_with("0x")
                {
                    // Signed exponent: 1e-9.
                    advance!(1);
                } else {
                    break;
                }
            }
            out.push(Tok {
                kind: TokKind::Num,
                text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                line: tline,
                col: tcol,
            });
            continue;
        }

        // Identifier / keyword.
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                advance!(1);
            }
            out.push(Tok {
                kind: TokKind::Ident,
                text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                line: tline,
                col: tcol,
            });
            continue;
        }

        // Multi-char operator, longest match first. Matched on bytes so
        // a cursor resting on a stray non-ASCII byte cannot panic the
        // `&str` slice on a char boundary.
        let rest = &b[i..];
        let mut matched = false;
        for op in MULTI_OPS {
            if rest.starts_with(op.as_bytes()) {
                out.push(Tok {
                    kind: TokKind::Op,
                    text: (*op).to_string(),
                    line: tline,
                    col: tcol,
                });
                advance!(op.len());
                matched = true;
                break;
            }
        }
        if matched {
            continue;
        }

        // Single-char operator / punctuation (also any stray byte).
        out.push(Tok {
            kind: TokKind::Op,
            text: (c as char).to_string(),
            line: tline,
            col: tcol,
        });
        advance!(1);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_ops_and_positions() {
        let l = lex("let x = a::b;\nx += 1;");
        let t: Vec<&str> = l.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            t,
            ["let", "x", "=", "a", "::", "b", ";", "x", "+=", "1", ";"]
        );
        assert_eq!(l[7].line, 2);
        assert_eq!(l[7].col, 1);
    }

    #[test]
    fn strings_are_single_tokens() {
        assert_eq!(
            texts(r#"f("HashMap :: new { }")"#),
            ["f", "(", "\"HashMap :: new { }\"", ")"]
        );
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = "let s = r#\"a \" b\"#; done";
        let t = texts(src);
        assert_eq!(t[3], "r#\"a \" b\"#");
        assert_eq!(t[5], "done");
    }

    #[test]
    fn nested_block_comments_excluded() {
        let l = lex("a /* x /* y */ z */ b");
        let t: Vec<&str> = l.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(t, ["a", "b"]);
    }

    #[test]
    fn lifetime_vs_char() {
        let l = lex("fn f<'a>(x: &'a u8) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = l.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars: Vec<&Tok> = l.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars.len(), 2);
        assert_eq!(chars[0].text, "'x'");
    }

    #[test]
    fn multibyte_char_literal_lexes_whole_scalar() {
        // Sparkline block chars are 3-byte UTF-8 scalars; the char
        // literal must consume the whole scalar, not one byte of it.
        let l = lex("const B: [char; 2] = ['▁', '█'];\nlet x = HashMap::new();");
        let chars: Vec<&Tok> = l.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(chars.len(), 2);
        assert_eq!(chars[0].text, "'▁'");
        assert_eq!(chars[1].text, "'█'");
        // Lexing continues correctly past the literals.
        assert!(l.iter().any(|t| t.is_ident("HashMap")));
    }

    #[test]
    fn numbers_with_underscores_and_exponents() {
        let l = lex("1_000_000_000 + 1e9 + 1.5e-3 + 0xff_u64 + 1..2");
        let nums: Vec<&str> = l
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(
            nums,
            ["1_000_000_000", "1e9", "1.5e-3", "0xff_u64", "1", "2"]
        );
    }

    #[test]
    fn trailing_vs_standalone_comment() {
        // Neither kind of comment leaves a token, and lines still count.
        let l = lex("code(); // trailing\n// standalone\nmore();");
        let t: Vec<&str> = l.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(t, ["code", "(", ")", ";", "more", "(", ")", ";"]);
        assert_eq!(l[4].line, 3);
    }

    #[test]
    fn split_across_lines_still_tokenizes() {
        // The reformatting trick that beat the old line lint.
        let t = texts("Instant::\n    now()");
        assert_eq!(t, ["Instant", "::", "now", "(", ")"]);
    }
}
