//! Exit-code regression tests driving the real `hoga-repro` binary: every
//! subcommand returns through one dispatch path, so usage errors are
//! always 2, runtime failures are always 1, and success is always 0.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hoga-repro")).args(args).output().expect("spawn binary")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("binary must exit, not die on a signal")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hoga-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn usage_errors_exit_2_and_print_usage() {
    for args in [
        &[] as &[&str],
        &["frobnicate"],
        &["table1", "--scale"],         // dangling flag
        &["table1", "bare-value"],      // not a flag
        &["synth"],                     // missing --design
        &["synth", "--design", "nope"], // unknown design
        &["qor-dataset"],               // missing --out
        &["train"],                     // missing --checkpoint
        &["train", "--checkpoint", "x", "--target", "frob"],
        &["qor-dataset", "--out", "d", "--inject", "bogus"],
        &["qor-dataset", "--out", "d", "--inject-job", "bogus"],
        // Refused before any dataset is built or checkpoint written.
        &["train", "--checkpoint", "x", "--inject-job", "attempt:4294967297:panic"],
        &["train", "--checkpoint", "x", "--inject-job", "step:1:0:0:boom"],
    ] {
        let out = run(args);
        assert_eq!(exit_code(&out), 2, "{args:?} must be a usage error: {}", stderr(&out));
        assert!(stderr(&out).contains("usage:"), "{args:?} must print usage");
    }
}

#[test]
fn runtime_failures_exit_1_without_usage() {
    // --out pointing at a regular file: well-formed invocation, doomed work.
    let dir = fresh_dir("runtime");
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, b"occupied").expect("write blocker");
    let out = run(&["qor-dataset", "--out", blocker.to_str().expect("utf-8 path")]);
    assert_eq!(exit_code(&out), 1, "runtime failure must exit 1: {}", stderr(&out));
    assert!(stderr(&out).contains("error:"));
    assert!(!stderr(&out).contains("usage:"), "runtime failures must not dump usage");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sched_succeeds_and_reports_both_policies() {
    let out = run(&["sched", "--workers", "2", "--max-schedules", "2"]);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("shard-order"), "{stdout}");
    assert!(stdout.contains("completion-order"), "{stdout}");
}

#[test]
fn qor_dataset_succeeds_and_writes_the_event_stream() {
    let dir = fresh_dir("events");
    let out_dir = dir.join("sweep");
    let events = dir.join("events.log");
    let out = run(&[
        "qor-dataset",
        "--out",
        out_dir.to_str().expect("utf-8 path"),
        "--scale",
        "64",
        "--max-nodes",
        "300",
        "--recipes",
        "1",
        "--recipe-len",
        "3",
        "--stop-after",
        "1",
        "--events",
        events.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("qor-dataset:"), "{stdout}");
    let log = std::fs::read_to_string(&events).expect("event log written");
    assert!(log.contains("submitted"), "{log}");
    assert!(log.contains("started (attempt 1)"), "{log}");
    assert!(log.contains("completed"), "{log}");
    // The heartbeat also streams to stderr as the run progresses.
    assert!(stderr(&out).contains("[job]"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}
