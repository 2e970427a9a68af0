//! True-positive / true-negative fixtures for the interprocedural rules
//! (R13 panic-reachability, R14 lock-order, R15 blocking-under-lock).
//!
//! These rules resolve over the *workspace* call graph, so every fixture
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

/// Lays down the workspace skeleton (manifest + crate root) and the given
/// `(relative path, source)` files, then runs the full analysis.
fn analyze(dir: &Path, files: &[(&str, &str)]) -> Vec<Finding> {
    fs::write(
        dir.join("Cargo.toml"),
        "[package]\nname = \"scratch\"\nversion = \"0.1.0\"\nedition = \"2021\"\n",
    )
    .expect("write manifest");
    fs::create_dir_all(dir.join("src")).expect("mkdir src");
    fs::write(dir.join("src/lib.rs"), "#![forbid(unsafe_code)]\n").expect("write lib.rs");
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

// ---------------------------------------------------------------------------
// R14: lock-order
// ---------------------------------------------------------------------------

#[test]
fn r14_declared_order_inversion_is_flagged() {
    // `LOCK_ORDER` declares grad_slots before event_log; acquiring
    // grad_slots while event_log is held inverts it.
    let src = "pub(crate) fn tick(shared: &Shared) {\n\
                   let log = shared.event_log.lock();\n\
                   let slots = shared.grad_slots.lock();\n\
                   use_both(log, slots);\n\
               }\n";
    let dir = scratch("r14-tp");
    let findings = analyze(&dir, &[("src/sched.rs", src)]);
    let hits = of(&findings, "lock-order");
    assert_eq!(hits.len(), 1, "findings: {findings:#?}");
    assert_eq!(hits[0].symbol.as_deref(), Some("grad_slots"));
    assert!(hits[0].message.contains("inverts the declared workspace lock order"));
}

#[test]
fn r14_declared_order_respected_is_quiet() {
    let src = "pub(crate) fn tick(shared: &Shared) {\n\
                   let slots = shared.grad_slots.lock();\n\
                   let log = shared.event_log.lock();\n\
                   use_both(log, slots);\n\
               }\n";
    let dir = scratch("r14-ok");
    let findings = analyze(&dir, &[("src/sched.rs", src)]);
    assert_eq!(of(&findings, "lock-order").len(), 0, "findings: {findings:#?}");
}

#[test]
fn r14_scoped_release_then_acquire_is_quiet() {
    // The first guard dies with its block, so the second acquisition
    // happens lock-free — no edge, no inversion.
    let src = "pub(crate) fn tick(shared: &Shared) {\n\
                   {\n\
                       let log = shared.event_log.lock();\n\
                       note(log);\n\
                   }\n\
                   let slots = shared.grad_slots.lock();\n\
                   use_slots(slots);\n\
               }\n";
    let dir = scratch("r14-scope");
    let findings = analyze(&dir, &[("src/sched.rs", src)]);
    assert_eq!(of(&findings, "lock-order").len(), 0, "findings: {findings:#?}");
}

#[test]
fn r14_drop_release_then_acquire_is_quiet() {
    let src = "pub(crate) fn tick(shared: &Shared) {\n\
                   let log = shared.event_log.lock();\n\
                   note(&log);\n\
                   drop(log);\n\
                   let slots = shared.grad_slots.lock();\n\
                   use_slots(slots);\n\
               }\n";
    let dir = scratch("r14-drop");
    let findings = analyze(&dir, &[("src/sched.rs", src)]);
    assert_eq!(of(&findings, "lock-order").len(), 0, "findings: {findings:#?}");
}

#[test]
fn r14_reacquiring_a_held_lock_is_flagged() {
    let src = "pub(crate) fn tick(shared: &Shared) {\n\
                   let a = shared.event_log.lock();\n\
                   let b = shared.event_log.lock();\n\
                   use_both(a, b);\n\
               }\n";
    let dir = scratch("r14-reacquire");
    let findings = analyze(&dir, &[("src/sched.rs", src)]);
    let hits = of(&findings, "lock-order");
    assert_eq!(hits.len(), 1, "findings: {findings:#?}");
    assert!(hits[0].message.contains("re-acquires a non-reentrant lock"));
}

#[test]
fn r14_cross_file_lock_order_cycle_is_flagged() {
    // Two locks outside the declared order, acquired in opposite orders
    // in two files: only the workspace lock-order graph can see the cycle.
    let ab = "pub(crate) fn forward(shared: &Shared) {\n\
                  let a = shared.alpha_mu.lock();\n\
                  let b = shared.beta_mu.lock();\n\
                  use_both(a, b);\n\
              }\n";
    let ba = "pub(crate) fn backward(shared: &Shared) {\n\
                  let b = shared.beta_mu.lock();\n\
                  let a = shared.alpha_mu.lock();\n\
                  use_both(a, b);\n\
              }\n";
    let dir = scratch("r14-cycle");
    let findings = analyze(&dir, &[("src/fwd.rs", ab), ("src/bwd.rs", ba)]);
    let hits = of(&findings, "lock-order");
    assert_eq!(hits.len(), 1, "one finding per cycle, not per edge: {findings:#?}");
    let f = hits[0];
    assert!(f.message.contains("workspace lock-order cycle"), "message: {}", f.message);
    assert!(f.message.contains("alpha_mu -> beta_mu"), "message: {}", f.message);
    assert!(f.message.contains("beta_mu -> alpha_mu"), "message: {}", f.message);
}

#[test]
fn r14_same_order_in_both_files_is_quiet() {
    let ab = "pub(crate) fn forward(shared: &Shared) {\n\
                  let a = shared.alpha_mu.lock();\n\
                  let b = shared.beta_mu.lock();\n\
                  use_both(a, b);\n\
              }\n";
    let ab2 = "pub(crate) fn backward(shared: &Shared) {\n\
                   let a = shared.alpha_mu.lock();\n\
                   let b = shared.beta_mu.lock();\n\
                   use_both(a, b);\n\
               }\n";
    let dir = scratch("r14-consistent");
    let findings = analyze(&dir, &[("src/fwd.rs", ab), ("src/bwd.rs", ab2)]);
    assert_eq!(of(&findings, "lock-order").len(), 0, "findings: {findings:#?}");
}

// ---------------------------------------------------------------------------
// R15: blocking-under-lock
// ---------------------------------------------------------------------------

#[test]
fn r15_direct_file_read_under_held_guard_is_flagged() {
    let src = "pub(crate) fn reload(shared: &Shared, f: &mut File) {\n\
                   let log = shared.event_log.lock();\n\
                   let mut buf = Vec::new();\n\
                   f.read_to_end(&mut buf);\n\
                   apply(log, buf);\n\
               }\n";
    let dir = scratch("r15-direct");
    let findings = analyze(&dir, &[("src/reload.rs", src)]);
    let hits = of(&findings, "blocking-under-lock");
    assert_eq!(hits.len(), 1, "findings: {findings:#?}");
    let f = hits[0];
    assert_eq!(f.symbol.as_deref(), Some("reload"));
    assert!(f.message.contains("file/stream I/O"), "message: {}", f.message);
    assert!(f.message.contains("guard(s) `event_log`"), "message: {}", f.message);
}

#[test]
fn r15_transitive_blocking_callee_is_flagged_at_the_call_site() {
    // The blocking op lives in another file; only the call graph connects
    // the held guard to it.
    let caller = "pub(crate) fn persist(shared: &Shared) {\n\
                      let log = shared.event_log.lock();\n\
                      store_bytes();\n\
                      note(log);\n\
                  }\n";
    let callee = "pub(crate) fn store_bytes() {\n\
                      let _data = std::fs::read(\"weights.bin\");\n\
                  }\n";
    let dir = scratch("r15-transitive");
    let findings = analyze(&dir, &[("src/persist.rs", caller), ("src/store.rs", callee)]);
    let hits = of(&findings, "blocking-under-lock");
    assert_eq!(hits.len(), 1, "findings: {findings:#?}");
    let f = hits[0];
    assert_eq!(f.file, "src/persist.rs", "flagged at the under-lock call site");
    assert!(f.message.contains("call to `store_bytes`"), "message: {}", f.message);
    assert!(f.message.contains("may block"), "message: {}", f.message);
    assert!(f.message.contains("blocking site src/store.rs"), "message: {}", f.message);
}

#[test]
fn r15_blocking_after_drop_is_quiet() {
    let src = "pub(crate) fn reload(shared: &Shared, f: &mut File) {\n\
                   let log = shared.event_log.lock();\n\
                   note(&log);\n\
                   drop(log);\n\
                   let mut buf = Vec::new();\n\
                   f.read_to_end(&mut buf);\n\
               }\n";
    let dir = scratch("r15-drop");
    let findings = analyze(&dir, &[("src/reload.rs", src)]);
    assert_eq!(of(&findings, "blocking-under-lock").len(), 0, "findings: {findings:#?}");
}

#[test]
fn r15_suppressed_seed_site_is_quiet() {
    let caller = "pub(crate) fn persist(shared: &Shared) {\n\
                      let log = shared.event_log.lock();\n\
                      store_bytes();\n\
                      note(log);\n\
                  }\n";
    let callee = "pub(crate) fn store_bytes() {\n\
                      // analyze: allow(blocking-under-lock) — reads a 16-byte header, bounded\n\
                      let _data = std::fs::read(\"weights.bin\");\n\
                  }\n";
    let dir = scratch("r15-allow");
    let findings = analyze(&dir, &[("src/persist.rs", caller), ("src/store.rs", callee)]);
    assert_eq!(of(&findings, "blocking-under-lock").len(), 0, "findings: {findings:#?}");
    assert_eq!(of(&findings, "unused-suppression").len(), 0, "findings: {findings:#?}");
}
