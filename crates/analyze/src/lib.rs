#![forbid(unsafe_code)]
//! `hoga-analyze`: a self-contained workspace linter and invariant auditor.
//!
//! A hand-rolled Rust [`lexer`] feeds a [`rules`] engine that walks every
//! `.rs` file in the workspace (see [`workspace`]) and emits
//! `file:line:col` diagnostics with stable rule ids. Because matching
//! happens on tokens, occurrences inside string literals and comments are
//! never flagged.
//!
//! One pipeline runs over the workspace. Each file is lexed,
//! comment-filtered and item-parsed ([`parser`]) once into a borrowed
//! `rules::FileView`; the token-level rules and the call-graph fact
//! extraction ([`callgraph`], which splits each function body into
//! statements on the token stream) read that view and leave one in-memory
//! [`rules::FileFacts`] per file. Two pure resolvers then turn the facts of
//! all files into the cross-file findings: *flow* (R13 over the call
//! graph) and *dead-API* (liveness on the [`symbols`] graph). Analyzing a
//! single source is the same path over a one-file slice. Nothing is
//! persisted between runs.
//!
//! Rule catalogue (details in `docs/STATIC_ANALYSIS.md`):
//!
//! * `panic-free-paths` — no `panic!`/`.unwrap()`/`.expect(`/`unreachable!`
//!   in hardened modules.
//! * `lossy-cast` — no bare `as u32`/`as usize`/`as i64` in decode paths.
//! * `test-panic-ok` — not a diagnostic: `panic-free-paths` and
//!   `lossy-cast` auto-relax inside `#[cfg(test)]` items and `tests/`
//!   directories.
//! * `dead-public-api` — a `pub` item the workspace symbol graph proves is
//!   never used outside its defining crate.
//! * `float-equality` — `==`/`!=` against float literals on numeric paths;
//!   use `hoga_tensor::approx_eq`.
//! * `thread-hygiene` — every `spawn` handle is joined; no bare
//!   `std::thread::spawn` in `eval`.
//! * `panic-reachability` — a `pub` API in a hardened module must not
//!   *transitively* reach a panic site elsewhere in the workspace; each
//!   finding renders a shortest call-graph witness path ([`callgraph`]).
//!
//! Every rule shows a catch on a seeded copy of the real workspace
//! (`tests/zoo.rs`). The `unsafe` allowlist
//! ([`workspace::UNSAFE_ALLOWLIST`] — currently the AVX2 kernel backend)
//! and the crate-root `forbid`/`deny(unsafe_code)` attributes are enforced
//! by `tests/unsafe_policy.rs` and by rustc, not by a rule.
//!
//! Findings are suppressed inline with a justified directive:
//!
//! ```text
//! // analyze: allow(panic-free-paths) — documented panicking wrapper
//! ```
//!
//! The justification is mandatory and suppressions that match nothing are
//! themselves errors (`unused-suppression`), so stale allows cannot
//! accumulate.

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod symbols;
pub mod workspace;

pub use callgraph::CallGraph;
pub use rules::{analyze_file, FileFacts, FileProfile, Finding};
pub use workspace::{analyze_workspace, AnalysisStats};

/// Renders findings one per line as `file:line:col: [rule] message`.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    out
}

/// Renders findings as a JSON array of objects with `file`, `line`,
/// `col`, `rule`, `severity`, `symbol` (string or `null`), and `message`
/// fields — the schema CI archives as an artifact.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let symbol = match &f.symbol {
            Some(s) => json_string(s),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "\n  {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"severity\": {}, \
             \"symbol\": {}, \"message\": {}}}",
            json_string(&f.file),
            f.line,
            f.col,
            json_string(f.rule),
            json_string(f.severity()),
            symbol,
            json_string(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// CI gate: the workspace this crate lives in must be clean. Run with
/// `cargo test -p hoga-analyze`; the same check is exposed as a binary
/// for humans (`cargo run -p hoga-analyze`).
#[cfg(test)]
mod gate {
    use std::path::{Path, PathBuf};

    use crate::workspace::{DECODE_MODULES, HARDENED_MODULES, NUMERIC_MODULES, UNSAFE_ALLOWLIST};

    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
    }

    /// A renamed file un-hardens itself without a finding: every path the
    /// lint configuration mentions must still exist in the workspace it
    /// configures.
    #[test]
    fn lint_configuration_names_things_that_exist() {
        let root = root();
        for list in [HARDENED_MODULES, DECODE_MODULES, NUMERIC_MODULES, UNSAFE_ALLOWLIST] {
            for entry in list {
                let path = root.join(entry);
                let exists = if entry.ends_with('/') { path.is_dir() } else { path.is_file() };
                assert!(exists, "module list entry `{entry}` matches nothing under the root");
            }
        }
    }

    #[test]
    fn workspace_is_clean() {
        let root = root();
        let (findings, ..) = crate::analyze_workspace(&root).expect("workspace walk failed");
        assert!(
            findings.is_empty(),
            "hoga-analyze found {} violation(s):\n{}",
            findings.len(),
            crate::render_text(&findings)
        );
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            file: "crates/x/src/lib.rs".to_string(),
            line: 3,
            col: 9,
            rule: "panic-free-paths",
            message: "say \"no\"\tto panics".to_string(),
            symbol: None,
        }]
    }

    #[test]
    fn text_format_is_one_line_per_finding() {
        let text = render_text(&sample());
        assert_eq!(text, "crates/x/src/lib.rs:3:9: [panic-free-paths] say \"no\"\tto panics\n");
    }

    #[test]
    fn json_escapes_quotes_and_control_chars() {
        let json = render_json(&sample());
        assert!(json.contains("\\\"no\\\""), "quotes escaped: {json}");
        assert!(json.contains("\\t"), "tab escaped: {json}");
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    }

    #[test]
    fn json_empty_is_empty_array() {
        assert_eq!(render_json(&[]), "[]\n");
    }

    #[test]
    fn json_has_severity_and_symbol_fields() {
        let mut findings = sample();
        findings[0].symbol = Some("dead_fn".to_string());
        let json = render_json(&findings);
        assert!(json.contains("\"severity\": \"error\""), "severity present: {json}");
        assert!(json.contains("\"symbol\": \"dead_fn\""), "symbol present: {json}");
        let none = render_json(&sample());
        assert!(none.contains("\"symbol\": null"), "null symbol: {none}");
    }

    #[test]
    fn severity_splits_warnings_from_errors() {
        assert_eq!(rules::severity_of("dead-public-api"), "warning");
        assert_eq!(rules::severity_of("float-equality"), "error");
        assert_eq!(rules::severity_of("panic-reachability"), "error");
    }
}
