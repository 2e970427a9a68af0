//! Workspace-wide unsafe-allowlist audit (R3).
//!
//! The static-analysis contract is that the `unsafe` keyword appears in
//! exactly one audited module — the AVX2 kernel backend —
//! and nowhere else. The rule engine enforces this per file; this test
//! pins the *global* property against the real workspace by lexing every
//! `.rs` file directly, so a rule-dispatch regression (e.g. a profile
//! that stops scanning) cannot silently reopen the door.

use hoga_analyze::lexer::{lex, TokKind};
use hoga_analyze::workspace::{workspace_rs_files, UNSAFE_ALLOWLIST};
use std::fs;
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[test]
fn unsafe_keyword_appears_only_in_the_audited_allowlist() {
    let root = workspace_root();
    let files = workspace_rs_files(&root).expect("workspace walk failed");
    assert!(!files.is_empty(), "workspace walk found no Rust files");
    let mut offenders = Vec::new();
    for (rel, path) in &files {
        if UNSAFE_ALLOWLIST.contains(&rel.as_str()) {
            continue;
        }
        let src = fs::read_to_string(path).expect("readable source");
        for t in lex(&src) {
            if t.kind == TokKind::Ident && t.text(&src) == "unsafe" {
                offenders.push(format!("{rel}:{}:{}", t.line, t.col));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "`unsafe` outside the audited allowlist {UNSAFE_ALLOWLIST:?}:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn allowlisted_modules_exist_and_opt_in_explicitly() {
    // A stale allowlist entry would silently grant unsafe budget to a
    // future file created at that path; require the file to exist and to
    // carry its own module-level `allow(unsafe_code)` opt-in plus at
    // least one actual unsafe occurrence (otherwise the entry is dead
    // and should be removed).
    let root = workspace_root();
    for rel in UNSAFE_ALLOWLIST {
        let path = root.join(rel);
        let src = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("allowlisted module {rel} unreadable: {e}"));
        let toks = lex(&src);
        let code: Vec<_> = toks
            .iter()
            .filter(|t| {
                !matches!(t.kind, TokKind::LineComment { .. } | TokKind::BlockComment { .. })
            })
            .collect();
        let has_allow = code.windows(4).any(|w| {
            w[0].kind == TokKind::Ident
                && w[0].text(&src) == "allow"
                && matches!(w[1].kind, TokKind::Punct('('))
                && w[2].kind == TokKind::Ident
                && w[2].text(&src) == "unsafe_code"
                && matches!(w[3].kind, TokKind::Punct(')'))
        });
        assert!(has_allow, "{rel}: audited module must carry `#![allow(unsafe_code)]`");
        let uses_unsafe = code.iter().any(|t| t.kind == TokKind::Ident && t.text(&src) == "unsafe");
        assert!(uses_unsafe, "{rel}: allowlist entry is stale (no unsafe occurrences)");
    }
}

#[test]
fn unsafe_owning_crate_root_denies_unsafe_code() {
    let root = workspace_root();
    let src = fs::read_to_string(root.join("crates/tensor/src/lib.rs")).expect("tensor root");
    let toks = lex(&src);
    let code: Vec<_> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment { .. } | TokKind::BlockComment { .. }))
        .collect();
    let present = code.windows(4).any(|w| {
        w[0].kind == TokKind::Ident
            && w[0].text(&src) == "deny"
            && matches!(w[1].kind, TokKind::Punct('('))
            && w[2].kind == TokKind::Ident
            && w[2].text(&src) == "unsafe_code"
            && matches!(w[3].kind, TokKind::Punct(')'))
    });
    assert!(present, "tensor crate root is missing `#![deny(unsafe_code)]`");
}
