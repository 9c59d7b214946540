//! Test masking on top of the token stream.
//!
//! The scoper turns a file's tokens into a [`ScopedFile`] in which every
//! token knows whether it sits inside test-only code (`#[cfg(test)]`
//! items or a `mod tests` block), which no rule lints.

use crate::lexer::{Tok, TokKind};

pub struct ScopedFile {
    pub path: String,
    pub toks: Vec<Tok>,
    /// Per-token: true when the token is inside test-only code.
    pub test: Vec<bool>,
}

impl ScopedFile {
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

pub fn scope_file(path: &str, toks: Vec<Tok>) -> ScopedFile {
    let n = toks.len();
    let match_close = brace_partners(&toks);

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

    ScopedFile {
        path: path.to_string(),
        toks,
        test,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scoped(src: &str) -> ScopedFile {
        scope_file("test.rs", lex(src))
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
}
