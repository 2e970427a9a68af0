//! The seeded-defect zoo: every rule the analyzer keeps shows, on a copy of
//! the real workspace, that it still catches the defect it exists for.
//!
//! Each case copies every file `workspace_rs_files` lists into a scratch
//! directory, applies one text edit to one file, runs `analyze_workspace`
//! on the copy, and demands findings that all carry the rule under test —
//! a catch no other rule makes. The seeded text never has to compile: the
//! analyzer does not type-check. A rule that cannot earn a case here has
//! no evidence of weight and goes (docs/STATIC_ANALYSIS.md, "Rule
//! evidence").

use std::fs;
use std::path::Path;

use hoga_analyze::workspace::workspace_rs_files;
use hoga_analyze::{analyze_workspace, render_text, Finding};

/// One text edit to one file of the copy.
enum Seed<'a> {
    /// Replace `anchor`, which must occur exactly once in the file.
    Replace { anchor: &'a str, with: &'a str },
    /// Append text to the end of the file.
    Append(&'a str),
}

/// Copies the real workspace into a scratch directory named after `case`,
/// applies `edit` (if any), and returns the findings on the copy.
fn analyze_copy(case: &str, edit: Option<(&str, Seed<'_>)>) -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let dir = std::env::temp_dir().join(format!("hoga-analyze-zoo-{}-{case}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    for (rel, path) in workspace_rs_files(&root).expect("workspace walk failed") {
        let dest = dir.join(&rel);
        fs::create_dir_all(dest.parent().expect("a file has a parent")).expect("mkdir");
        fs::copy(&path, &dest).expect("copy source");
    }
    if let Some((file, seed)) = edit {
        let path = dir.join(file);
        let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{case}: {file}: {e}"));
        let seeded = match seed {
            Seed::Replace { anchor, with } => {
                let n = src.matches(anchor).count();
                assert_eq!(n, 1, "{case}: anchor `{anchor}` occurs {n} times in {file}");
                src.replacen(anchor, with, 1)
            }
            Seed::Append(text) => src + text,
        };
        fs::write(&path, seeded).expect("write seeded file");
    }
    let (findings, ..) = analyze_workspace(&dir).expect("analyze the copy");
    fs::remove_dir_all(&dir).expect("remove scratch dir");
    findings
}

/// Seeds `file`, asserts the copy is caught, by `rule` alone, and returns
/// the findings.
fn assert_unique_catch(rule: &str, case: &str, file: &str, seed: Seed<'_>) -> Vec<Finding> {
    let findings = analyze_copy(case, Some((file, seed)));
    assert!(!findings.is_empty(), "{case}: `{rule}` missed the defect seeded into {file}");
    assert!(
        findings.iter().all(|f| f.rule == rule),
        "{case}: the catch is not `{rule}`'s alone:\n{}",
        render_text(&findings)
    );
    findings
}

/// The harness guard: an unseeded copy is as clean as the tree it copies,
/// so every finding below comes from its seed.
#[test]
fn unseeded_copy_is_clean() {
    let findings = analyze_copy("clean", None);
    assert!(findings.is_empty(), "the unseeded copy has findings:\n{}", render_text(&findings));
}

const GET_LEN: &str =
    r#"usize::try_from(buf.get_u64()).map_err(|_| err(format!("{what} does not fit in usize")))"#;

#[test]
fn r1_panic_free_paths() {
    let seed =
        Seed::Replace { anchor: GET_LEN, with: "Ok(usize::try_from(buf.get_u64()).unwrap())" };
    assert_unique_catch("panic-free-paths", "r1", "crates/datasets/src/io.rs", seed);
}

#[test]
fn r2_lossy_cast() {
    let seed = Seed::Replace { anchor: GET_LEN, with: "Ok(buf.get_u64() as usize)" };
    assert_unique_catch("lossy-cast", "r2", "crates/datasets/src/io.rs", seed);
}

#[test]
fn r6_dead_public_api() {
    let seed = Seed::Append("\npub fn zoo_never_called(depth: usize) -> usize {\n    depth\n}\n");
    assert_unique_catch("dead-public-api", "r6", "crates/circuit/src/topo.rs", seed);
}

#[test]
fn r7_float_equality() {
    let seed = Seed::Replace {
        anchor: "!hoga_tensor::approx_eq_eps(y, 0.0, f32::EPSILON)",
        with: "y != 0.0",
    };
    assert_unique_catch("float-equality", "r7", "crates/eval/src/metrics.rs", seed);
}

#[test]
fn r9_thread_hygiene() {
    let seed = Seed::Replace {
        anchor: "handles.push(s.spawn(move || with_threads(1, || run.into_iter().for_each(f))));",
        with: "s.spawn(move || with_threads(1, || run.into_iter().for_each(f)));",
    };
    assert_unique_catch("thread-hygiene", "r9", "crates/tensor/src/parallel.rs", seed);
}

/// Pinned to the exact set of flagged APIs, not only "some R13 finding":
/// a change to how R13 harvests seeds and calls must reproduce it.
#[test]
fn r13_panic_reachability() {
    let seed = Seed::Replace {
        anchor: "let d = hops[0].cols();",
        with: "let d = hops.first().expect(\"need at least X^(0)\").cols();",
    };
    let findings =
        assert_unique_catch("panic-reachability", "r13", "crates/hoga/src/hopfeat.rs", seed);
    let flagged: Vec<(&str, &str)> =
        findings.iter().map(|f| (f.file.as_str(), f.symbol.as_deref().unwrap_or(""))).collect();
    let trainer = "crates/eval/src/trainer.rs";
    let expected = [
        (trainer, "train_reasoning"),
        (trainer, "try_train_reasoning"),
        (trainer, "step"),
        (trainer, "eval_reasoning"),
        (trainer, "predict_reasoning"),
        (trainer, "train_qor"),
        (trainer, "train_qor_with_target"),
        (trainer, "try_train_qor_with_target"),
        (trainer, "hoga_step"),
        (trainer, "eval_qor"),
        (trainer, "eval_qor_with_target"),
        ("crates/serve/src/registry.rs", "open"),
        ("crates/serve/src/registry.rs", "reload"),
        ("crates/serve/src/server.rs", "start"),
    ];
    assert_eq!(flagged, expected, "r13: the flagged APIs moved:\n{}", render_text(&findings));
}
