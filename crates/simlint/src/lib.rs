//! simlint: token-pattern lints for the simulator workspace.
//!
//! A dependency-free lint engine built from a minimal Rust lexer
//! ([`lexer`]), a test-code mask ([`scope`]) and a rule catalog
//! ([`rules`]). Because rules run over tokens — not lines — needles in
//! comments and string literals never fire and reformatting cannot hide
//! a violation. It holds only the patterns no type or stock lint can
//! state: the determinism bans are clippy's (`clippy.toml`), exact float
//! comparison and lossy time casts are clippy's `float_cmp` and
//! `cast_precision_loss`, and sequence-number order is
//! `netsim::seq::Seq`'s.
//!
//! Entry points: [`lint_workspace`] for the real tree (run by
//! `tests/workspace.rs`, so `cargo test -p simlint` lints the
//! workspace), [`lint_sources`] for in-memory inputs (used by the
//! mutation tests). No rule can be suppressed in place: a site a rule
//! should not cover is excluded by the rule itself, where review sees
//! it.

pub mod lexer;
pub mod rules;
pub mod scope;

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// An in-memory source file, path workspace-relative with `/` separators.
pub struct SourceFile {
    pub path: String,
    pub text: String,
}

/// One rule violation at a source position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{} [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// The diagnostics of one lint pass, sorted by path, line, col, rule.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub diagnostics: Vec<Diagnostic>,
}

/// Lint a set of in-memory sources.
pub fn lint_sources(files: &[SourceFile]) -> Report {
    let mut diagnostics: Vec<Diagnostic> = files
        .iter()
        .flat_map(|f| rules::lint_scoped(&scope::scope_file(&f.path, lexer::lex(&f.text))))
        .collect();
    diagnostics.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Report {
        files_scanned: files.len(),
        diagnostics,
    }
}

/// Lint every `crates/**/*.rs` file under `root` (skipping `target/`
/// and integration-test `tests/` directories).
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut stack = vec![crates_dir];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(|e| e.file_name());
        for e in entries {
            let path = e.path();
            let name = e.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if name == "target" || name == "tests" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push(SourceFile {
                    path: rel,
                    text: fs::read_to_string(&path)?,
                });
            }
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));

    Ok(lint_sources(&files))
}
