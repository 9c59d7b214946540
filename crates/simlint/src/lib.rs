//! simlint: scope-aware static analysis for the simulator workspace.
//!
//! A dependency-free lint engine built from a minimal Rust lexer
//! ([`lexer`]), a brace/item-aware scoper ([`scope`]) and a typed rule
//! catalog ([`rules`]). Because rules run over tokens — not lines —
//! needles in comments and string literals never fire, reformatting
//! cannot hide a violation, and allow markers can be function-granular.
//!
//! Entry points: [`lint_workspace`] for the real tree (invoked by
//! `cargo run -p simlint`), [`lint_sources`] for in-memory inputs
//! (used by the mutation tests).

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;

use std::fs;
use std::io;
use std::path::Path;

use report::{Diagnostic, Report, Severity};
use scope::AllowScope;

/// An in-memory source file, path workspace-relative with `/` separators.
pub struct SourceFile {
    pub path: String,
    pub text: String,
}

/// Lint a set of in-memory sources, applying inline allow markers and
/// reporting the stale ones.
pub fn lint_sources(files: &[SourceFile]) -> Report {
    let mut report = Report {
        files_scanned: files.len(),
        diagnostics: Vec::new(),
    };

    for f in files {
        let sf = scope::scope_file(&f.path, lexer::lex(&f.text), rules::RULE_IDS);
        let raw = rules::lint_scoped(&sf);
        let mut marker_used = vec![false; sf.allows.len()];

        for d in raw {
            let suppressible = !rules::UNSUPPRESSIBLE.contains(&d.rule);
            let mut suppressed = false;
            if suppressible {
                for (mi, m) in sf.allows.iter().enumerate() {
                    if m.rule != d.rule {
                        continue;
                    }
                    let covers = match m.scope {
                        AllowScope::Line(l) => l == d.line,
                        AllowScope::Fn(fi) => {
                            let f = &sf.fns[fi];
                            f.item_start_line <= d.line && d.line <= f.end_line
                        }
                    };
                    if covers {
                        marker_used[mi] = true;
                        suppressed = true;
                    }
                }
            }
            if !suppressed {
                report.diagnostics.push(d);
            }
        }

        // Markers that suppressed nothing are themselves violations —
        // they would silently mask future regressions. Test code is not
        // linted, so markers there are ignored rather than stale.
        for (mi, m) in sf.allows.iter().enumerate() {
            if !marker_used[mi] && !m.in_test {
                report.diagnostics.push(Diagnostic {
                    rule: "stale-allow",
                    severity: Severity::Warn,
                    path: f.path.clone(),
                    line: m.line,
                    col: 1,
                    message: format!(
                        "allow({}) marker no longer suppresses anything; remove it",
                        m.rule
                    ),
                });
            }
        }
    }

    report.sort();
    report
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

#[cfg(test)]
mod tests {
    use super::*;

    fn src(path: &str, text: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            text: text.to_string(),
        }
    }

    #[test]
    fn line_marker_suppresses_and_is_not_stale() {
        let f = src(
            "crates/netsim/src/sim.rs",
            "fn f() {\n    let t = Instant::now(); // simlint: allow(wall-clock)\n}\n",
        );
        let r = lint_sources(&[f]);
        assert!(r.clean(), "unexpected: {:?}", r.diagnostics);
    }

    #[test]
    fn fn_marker_suppresses_whole_body() {
        let f = src(
            "crates/bench/src/lib.rs",
            "// Timing harness: real clocks are the point here.\n// simlint: allow(wall-clock)\npub fn bench() {\n    let a = Instant::now();\n    let b = Instant::now();\n}\n",
        );
        let r = lint_sources(&[f]);
        assert!(r.clean(), "unexpected: {:?}", r.diagnostics);
    }

    #[test]
    fn unused_marker_is_stale() {
        let f = src(
            "crates/netsim/src/sim.rs",
            "fn f() {\n    let x = 1; // simlint: allow(wall-clock)\n}\n",
        );
        let r = lint_sources(&[f]);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, "stale-allow");
        assert_eq!(r.diagnostics[0].severity, Severity::Warn);
    }

    #[test]
    fn probe_rule_is_unsuppressible() {
        let f = src(
            "crates/netsim/src/probe.rs",
            "fn f() {\n    let t = Instant::now(); // simlint: allow(probe-determinism)\n}\n",
        );
        let r = lint_sources(&[f]);
        assert!(r.diagnostics.iter().any(|d| d.rule == "probe-determinism"));
    }
}
