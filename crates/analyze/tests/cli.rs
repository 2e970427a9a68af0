//! End-to-end exercise of the `hoga-analyze` binary: exit codes, the two
//! console formats, the atomic `--report` artifact, and usage errors.
//! Runs the real binary (`CARGO_BIN_EXE_hoga-analyze`) against scratch
//! workspaces, the same way CI invokes it.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hoga-analyze-cli-{}-{name}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

const DISCARDED: &str = "pub(crate) fn fan_out() {\n\
                             std::thread::scope(|s| {\n\
                                 s.spawn(|| work());\n\
                             });\n\
                         }\n";

/// One-finding workspace: a scoped spawn whose handle is discarded.
fn write_dirty_workspace(root: &Path) {
    fs::create_dir_all(root.join("src")).expect("mkdir src");
    fs::write(
        root.join("Cargo.toml"),
        "[package]\nname = \"scratch\"\nversion = \"0.1.0\"\nedition = \"2021\"\n",
    )
    .expect("write manifest");
    fs::write(root.join("src/lib.rs"), "#![forbid(unsafe_code)]\nmod worker;\n")
        .expect("write lib.rs");
    fs::write(root.join("src/worker.rs"), DISCARDED).expect("write worker.rs");
}

fn write_clean_workspace(root: &Path) {
    fs::create_dir_all(root.join("src")).expect("mkdir src");
    fs::write(
        root.join("Cargo.toml"),
        "[package]\nname = \"scratch\"\nversion = \"0.1.0\"\nedition = \"2021\"\n",
    )
    .expect("write manifest");
    fs::write(
        root.join("src/lib.rs"),
        "#![forbid(unsafe_code)]\npub(crate) fn id(x: u32) -> u32 { x }\n",
    )
    .expect("write lib.rs");
}

fn analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hoga-analyze"))
        .args(args)
        .output()
        .expect("spawn hoga-analyze")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("binary exited without a code")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn clean_workspace_exits_zero() {
    let dir = scratch("clean");
    let root = dir.join("ws");
    write_clean_workspace(&root);
    let out = analyze(&["--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("workspace clean"));
}

#[test]
fn findings_without_baseline_exit_one() {
    let dir = scratch("dirty");
    let root = dir.join("ws");
    write_dirty_workspace(&root);
    let out = analyze(&["--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(code(&out), 1, "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("thread-hygiene"), "stdout: {stdout}");
}

#[test]
fn json_format_emits_the_report_schema() {
    let dir = scratch("json");
    let root = dir.join("ws");
    write_dirty_workspace(&root);
    let out = analyze(&["--root", root.to_str().expect("utf-8 path"), "--format", "json"]);
    assert_eq!(code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.starts_with('['), "stdout: {stdout}");
    for key in ["\"file\"", "\"line\"", "\"col\"", "\"rule\"", "\"severity\"", "\"message\""] {
        assert!(stdout.contains(key), "missing {key}: {stdout}");
    }
}

#[test]
fn help_documents_every_accepted_flag() {
    // The binary generates --help from its flag table; this pins the
    // other direction: every flag the parser accepts must appear in the
    // help text, so adding a flag without documenting it fails CI.
    let out = analyze(&["--help"]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let help = String::from_utf8_lossy(&out.stdout).into_owned();
    for flag in ["--root", "--format", "--report", "--stats", "--help"] {
        assert!(help.contains(flag), "help must document {flag}: {help}");
    }
    assert!(help.contains("text|json"), "help must list every format: {help}");
}

#[test]
fn removed_flags_are_usage_errors() {
    // The cache, the baseline ratchet, SARIF and the call-graph dump are
    // gone; a CI script still passing one of their flags must fail loudly
    // (exit 2), not run an ungated analysis that looks like a pass.
    let dir = scratch("removed");
    let root = dir.join("ws");
    write_clean_workspace(&root);
    let root = root.to_str().expect("utf-8 path");
    for args in [
        &["--cache", "x"][..],
        &["--baseline", "x"],
        &["--fail-on-new"],
        &["--write-baseline", "x"],
        &["--callgraph", "x"],
        &["--format", "sarif"],
    ] {
        let out = analyze(&[&["--root", root], args].concat());
        assert_eq!(code(&out), 2, "{args:?} must be rejected; stderr: {}", stderr(&out));
        assert!(stderr(&out).contains("USAGE:"), "{args:?}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "{args:?} must not analyze anything");
    }
}

#[test]
fn report_is_a_pure_function_of_file_contents() {
    // Two workspaces with the same files, created in opposite orders (so
    // directory order and timestamps differ), render byte-identically.
    let dir = scratch("order");
    let mut files = [
        ("Cargo.toml", "[package]\nname = \"scratch\"\nversion = \"0.1.0\"\nedition = \"2021\"\n"),
        ("src/lib.rs", "#![forbid(unsafe_code)]\nmod worker;\npub fn unused() {}\n"),
        ("src/worker.rs", DISCARDED),
        ("src/zeta.rs", "pub(crate) fn top(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n"),
    ];
    let render = |name: &str, files: &[(&str, &str)]| {
        let root = dir.join(name);
        fs::create_dir_all(root.join("src")).expect("mkdir src");
        for (rel, text) in files {
            fs::write(root.join(rel), text).expect("write file");
        }
        let out = analyze(&["--root", root.to_str().expect("utf-8 path"), "--format", "json"]);
        assert_eq!(code(&out), 1, "stderr: {}", stderr(&out));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let forward = render("fwd", &files);
    files.reverse();
    let backward = render("rev", &files);
    assert!(forward.contains("thread-hygiene") && forward.contains("dead-public-api"));
    assert_eq!(forward, backward, "file-creation order must not reach the report");
}

#[test]
fn report_matches_stdout_json_byte_for_byte() {
    let dir = scratch("report-eq");
    let root = dir.join("ws");
    write_dirty_workspace(&root);
    let report = dir.join("findings.json");
    let out = analyze(&[
        "--root",
        root.to_str().expect("utf-8 path"),
        "--format",
        "json",
        "--report",
        report.to_str().expect("utf-8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let archived = fs::read_to_string(&report).expect("read report");
    assert_eq!(stdout, archived, "--report must archive exactly what --format json prints");
    assert!(!dir.join("findings.tmp").exists(), "atomic write leaves no temp file");
}
