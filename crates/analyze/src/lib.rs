#![forbid(unsafe_code)]
//! `hoga-analyze`: a self-contained workspace linter and invariant auditor.
//!
//! A hand-rolled Rust [`lexer`] feeds a [`rules`] engine that walks every
//! `.rs` file in the workspace (see [`workspace`]) and emits
//! `file:line:col` diagnostics with stable rule ids. Because matching
//! happens on tokens, occurrences inside string literals and comments are
//! never flagged.
//!
//! Three layers run over the workspace: token-level rules; graph-aware
//! rules on a [`symbols::SymbolGraph`] assembled from the item-level
//! [`parser`] (defs, refs and liveness edges across all crates); and
//! flow-aware rules on per-function [`cfg`] lowerings driven to fixpoint
//! by the [`dataflow`] worklist engine ([`det`]). Per-file results are
//! cacheable as content-hash-keyed artifacts ([`cache`]), and reports
//! can be gated against an archived [`baseline`].
//!
//! Rule catalogue (details in `docs/STATIC_ANALYSIS.md`):
//!
//! * `panic-free-paths` — no `panic!`/`.unwrap()`/`.expect(`/`unreachable!`
//!   in hardened modules.
//! * `lossy-cast` — no bare `as u32`/`as usize`/`as i64` in decode paths.
//! * `unsafe-forbidden` — every crate root carries `#![forbid(unsafe_code)]`
//!   (a root owning an audited unsafe module instead carries
//!   `#![deny(unsafe_code)]`), and the `unsafe`
//!   keyword itself may appear **only** in the audited allowlist
//!   ([`workspace::UNSAFE_ALLOWLIST`] — currently the AVX2 kernel backend).
//! * `todo-tracker` — `TODO`/`FIXME`/`HACK` must cite an issue: `TODO(#123)`.
//! * `test-panic-ok` — not a diagnostic: `panic-free-paths` and
//!   `lossy-cast` auto-relax inside `#[cfg(test)]` items and `tests/`
//!   directories.
//! * `dead-public-api` — a `pub` item the workspace symbol graph proves is
//!   never used outside its defining crate.
//! * `float-equality` — `==`/`!=` against float literals on numeric paths;
//!   use `hoga_tensor::approx_eq`.
//! * `lock-discipline` — `.lock().unwrap()` is a poisoning hazard;
//!   recover with `PoisonError::into_inner` or propagate a typed error.
//! * `thread-hygiene` — every `spawn` handle is joined; no bare
//!   `std::thread::spawn` in `eval`.
//! * `determinism-taint` — values influenced by clocks, env reads, or
//!   unordered-container iteration must not reach persisted sinks
//!   (checkpoints, manifests, the job event stream); error severity in
//!   hardened modules.
//! * `unchecked-index` — arithmetic-derived indices in decode paths must
//!   be bounds-checked (or `.get`/modulo/`min`/`clamp` bounded) before
//!   `[...]`.
//! * `swallowed-result` — a persisted-sink call's `Result` must be
//!   propagated or handled, never `let _ =` / `.ok()`-discarded.
//! * `panic-reachability` — a `pub` API in a hardened module must not
//!   *transitively* reach a panic site elsewhere in the workspace; each
//!   finding renders a shortest call-graph witness path ([`callgraph`]).
//! * `lock-order` — the flow-aware must-lockset pass checks every
//!   acquisition against the declared order (`rules::LOCK_ORDER`),
//!   flags re-acquisition of a held lock, and reports any cycle in the
//!   discovered workspace lock-order graph.
//! * `blocking-under-lock` — no thread join, channel receive, sleep,
//!   file I/O, or bounded SAT check (directly or through a call chain)
//!   while a lock guard is must-held.
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

pub mod baseline;
pub mod cache;
pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod det;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod symbols;
pub mod workspace;

pub use callgraph::CallGraph;
pub use rules::{analyze_source, FileProfile, Finding};
pub use symbols::SymbolGraph;
pub use workspace::{
    analyze_workspace, analyze_workspace_graph, analyze_workspace_with, AnalysisStats,
    AnalyzeOptions,
};

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

/// Renders findings as a SARIF 2.1.0 log (one run, the full rule
/// catalogue in the tool driver, one result per finding) so reports
/// surface in GitHub code scanning.
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/\
         Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"hoga-analyze\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, id) in rules::RULE_IDS.iter().enumerate() {
        let level = match rules::severity_of(id) {
            "warning" => "warning",
            _ => "error",
        };
        out.push_str(&format!(
            "            {{\"id\": {}, \"defaultConfiguration\": {{\"level\": \"{level}\"}}}}{}\n",
            json_string(id),
            if i + 1 == rules::RULE_IDS.len() { "" } else { "," }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "        {{\"ruleId\": {}, \"level\": {}, \"message\": {{\"text\": {}}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
             \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}]}}{}\n",
            json_string(f.rule),
            json_string(f.severity()),
            json_string(&f.message),
            json_string(&f.file),
            f.line,
            f.col,
            if i + 1 == findings.len() { "" } else { "," }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
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
    use std::path::Path;

    #[test]
    fn workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
        let findings = crate::analyze_workspace(&root).expect("workspace walk failed");
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
            severity_override: None,
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
        assert_eq!(rules::severity_of("todo-tracker"), "warning");
        assert_eq!(rules::severity_of("lock-discipline"), "error");
        assert_eq!(rules::severity_of("float-equality"), "error");
        assert_eq!(rules::severity_of("panic-reachability"), "error");
        assert_eq!(rules::severity_of("lock-order"), "error");
        assert_eq!(rules::severity_of("blocking-under-lock"), "error");
    }

    #[test]
    fn sarif_has_required_toplevel_shape() {
        let sarif = render_sarif(&sample());
        for key in [
            "\"$schema\"",
            "sarif-schema-2.1.0.json",
            "\"version\": \"2.1.0\"",
            "\"runs\"",
            "\"tool\"",
            "\"driver\"",
            "\"name\": \"hoga-analyze\"",
            "\"rules\"",
            "\"results\"",
        ] {
            assert!(sarif.contains(key), "missing {key}: {sarif}");
        }
        // Balanced braces/brackets — a cheap structural validity check for
        // a renderer that never emits braces inside strings unescaped.
        let opens = sarif.matches('{').count();
        let closes = sarif.matches('}').count();
        assert_eq!(opens, closes, "unbalanced braces: {sarif}");
        assert_eq!(sarif.matches('[').count(), sarif.matches(']').count());
    }

    #[test]
    fn sarif_result_carries_rule_level_message_and_location() {
        let sarif = render_sarif(&sample());
        assert!(sarif.contains("\"ruleId\": \"panic-free-paths\""), "{sarif}");
        assert!(sarif.contains("\"level\": \"error\""), "{sarif}");
        assert!(sarif.contains("\"uri\": \"crates/x/src/lib.rs\""), "{sarif}");
        assert!(sarif.contains("\"startLine\": 3"), "{sarif}");
        assert!(sarif.contains("\"startColumn\": 9"), "{sarif}");
        assert!(sarif.contains("say \\\"no\\\""), "message escaped: {sarif}");
    }

    #[test]
    fn sarif_declares_every_rule_in_the_driver() {
        let sarif = render_sarif(&[]);
        for id in ["panic-reachability", "lock-order", "blocking-under-lock", "lossy-cast"] {
            assert!(sarif.contains(&format!("\"id\": \"{id}\"")), "missing rule {id}: {sarif}");
        }
    }
}
