//! True-positive / true-negative fixtures for the interprocedural rule
//! (R13 panic-reachability).
//!
//! The rule resolves over the *workspace* call graph, so every fixture
//! is a small scratch workspace on disk, analyzed in-process through the
//! same `analyze_workspace` entry point the binary uses. Assertions
//! filter to the rule under test: scratch code may legitimately trip
//! unrelated warnings (`dead-public-api` on an unused planted API) and
//! those must not couple these fixtures to other rules' behavior.

use std::fs;
use std::path::{Path, PathBuf};

use hoga_analyze::{analyze_workspace, Finding};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hoga-analyze-cg-{}-{name}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Lays down the given `(relative path, source)` files, then runs the
/// full analysis.
fn analyze(dir: &Path, files: &[(&str, &str)]) -> Vec<Finding> {
    for (rel, src) in files {
        let path = dir.join(rel);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).expect("mkdir fixture dir");
        }
        fs::write(path, src).expect("write fixture file");
    }
    let (findings, ..) = analyze_workspace(dir).expect("analyze scratch");
    findings
}

fn of<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

// ---------------------------------------------------------------------------
// R13: panic-reachability
// ---------------------------------------------------------------------------

/// Non-hardened decode helpers: `decode_blob` forwards to `parse_head`,
/// which carries a hard panic seed (`.unwrap()`).
const DECODE: &str = "pub(crate) fn decode_blob(bytes: &[u8]) -> u32 {\n\
                          parse_head(bytes)\n\
                      }\n\
                      fn parse_head(bytes: &[u8]) -> u32 {\n\
                          u32::from(bytes.first().copied().unwrap())\n\
                      }\n";

/// A hardened module's public API calling into the decode helpers.
/// `crates/tensor/src/matrix.rs` is on the hardened list, so R13 owns it.
const HARDENED_API: &str = "pub fn load_weights(bytes: &[u8]) -> u32 {\n\
                                decode_blob(bytes)\n\
                            }\n";

#[test]
fn r13_hardened_api_reaching_cross_file_panic_is_flagged_with_witness() {
    let dir = scratch("r13-tp");
    let findings =
        analyze(&dir, &[("crates/tensor/src/matrix.rs", HARDENED_API), ("src/decode.rs", DECODE)]);
    let hits = of(&findings, "panic-reachability");
    assert_eq!(hits.len(), 1, "findings: {findings:#?}");
    let f = hits[0];
    assert_eq!(f.file, "crates/tensor/src/matrix.rs", "flagged at the hardened API, not the seed");
    assert_eq!(f.symbol.as_deref(), Some("load_weights"));
    assert_eq!(f.severity(), "error");
    assert!(
        f.message.contains("load_weights -> decode_blob -> parse_head"),
        "witness path missing: {}",
        f.message
    );
    assert!(f.message.contains("panic site src/decode.rs"), "seed site missing: {}", f.message);
    assert!(f.message.contains("`.unwrap()`"), "seed kind missing: {}", f.message);
}

#[test]
fn r13_suppression_at_the_seed_site_silences_the_distant_finding() {
    // The finding lands in `matrix.rs`, but the justification belongs next
    // to the panic — an allow on the seed line stops it from seeding the
    // graph at all.
    let suppressed = DECODE.replace(
        "u32::from(bytes.first().copied().unwrap())",
        "// analyze: allow(panic-reachability) — callers length-check the blob first\n\
         u32::from(bytes.first().copied().unwrap())",
    );
    assert_ne!(suppressed, DECODE, "the replace must have planted the allow");
    let dir = scratch("r13-allow");
    let findings = analyze(
        &dir,
        &[("crates/tensor/src/matrix.rs", HARDENED_API), ("src/decode.rs", &suppressed)],
    );
    assert_eq!(of(&findings, "panic-reachability").len(), 0, "findings: {findings:#?}");
    assert_eq!(
        of(&findings, "unused-suppression").len(),
        0,
        "a seed-consuming allow must count as used: {findings:#?}"
    );
}

#[test]
fn r13_quiet_when_the_caller_is_not_hardened() {
    let dir = scratch("r13-plain");
    let findings = analyze(&dir, &[("src/api.rs", HARDENED_API), ("src/decode.rs", DECODE)]);
    assert_eq!(of(&findings, "panic-reachability").len(), 0, "findings: {findings:#?}");
}

#[test]
fn r13_quiet_when_the_panic_lives_in_test_code() {
    let test_only = "pub(crate) fn decode_blob(bytes: &[u8]) -> u32 {\n\
                         u32::from(bytes.len() as u8)\n\
                     }\n\
                     #[cfg(test)]\n\
                     mod tests {\n\
                         fn parse_head(bytes: &[u8]) -> u32 {\n\
                             u32::from(bytes.first().copied().unwrap())\n\
                         }\n\
                     }\n";
    let dir = scratch("r13-test");
    let findings = analyze(
        &dir,
        &[("crates/tensor/src/matrix.rs", HARDENED_API), ("src/decode.rs", test_only)],
    );
    assert_eq!(of(&findings, "panic-reachability").len(), 0, "findings: {findings:#?}");
}
