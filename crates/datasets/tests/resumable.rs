//! End-to-end tests of the resumable QoR sweep: kill/resume determinism,
//! miscompile quarantine, and corrupt-record regeneration.

use hoga_datasets::manifest::{
    read_record, SampleRecord, SampleStatus, MANIFEST_DIR, QUARANTINE_DIR,
};
use hoga_datasets::openabcd::{
    build_qor_dataset_resumable, QorBuildError, QorDatasetConfig, QorFault, QorSweepOptions,
};
use hoga_gen::ipgen::OPENABCD_DESIGNS;
use hoga_synth::{FaultKind, GuardConfig, PassBudget};
use std::collections::BTreeMap;
use std::path::Path;

/// A sweep small enough for CI: the two smallest surviving designs, two
/// recipes each.
fn test_cfg() -> QorDatasetConfig {
    QorDatasetConfig {
        recipes_per_design: 2,
        recipe_len: 4,
        max_scaled_nodes: 500,
        ..QorDatasetConfig::tiny()
    }
}

/// Name of the first design the sweep visits under `cfg` (Table-1 order).
fn first_design(cfg: &QorDatasetConfig) -> &'static str {
    OPENABCD_DESIGNS
        .iter()
        .find(|s| s.nodes / cfg.scale_divisor <= cfg.max_scaled_nodes)
        .expect("test config keeps at least one design")
        .name
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hoga-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Every record file under `dir` (both subdirectories), relative path →
/// raw bytes.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for sub in [MANIFEST_DIR, QUARANTINE_DIR] {
        let sub_dir = dir.join(sub);
        let Ok(entries) = std::fs::read_dir(&sub_dir) else { continue };
        for entry in entries {
            let entry = entry.expect("dir entry");
            let bytes = std::fs::read(entry.path()).expect("read record");
            out.insert(format!("{sub}/{}", entry.file_name().to_string_lossy()), bytes);
        }
    }
    out
}

#[test]
fn killed_and_resumed_sweep_is_byte_identical_to_uninterrupted() {
    let cfg = test_cfg();
    let opts = QorSweepOptions::default();

    // Reference: one uninterrupted run.
    let full_dir = fresh_dir("full");
    let full = build_qor_dataset_resumable(&cfg, &full_dir, &opts).expect("full run");
    assert!(full.complete(), "uninterrupted run must complete: {full:?}");
    assert!(full.total >= 4, "test sweep too small to be meaningful: {full:?}");
    assert_eq!(full.written, full.total);
    assert_eq!(full.quarantined, 0);

    // Killed mid-sweep after 2 samples, then resumed.
    let resumed_dir = fresh_dir("resumed");
    let killed = build_qor_dataset_resumable(
        &cfg,
        &resumed_dir,
        &QorSweepOptions { stop_after: Some(2), ..QorSweepOptions::default() },
    )
    .expect("interrupted run");
    assert!(killed.interrupted);
    assert_eq!(killed.written, 2);
    let resumed = build_qor_dataset_resumable(&cfg, &resumed_dir, &opts).expect("resume");
    assert!(resumed.complete(), "resume must finish the sweep: {resumed:?}");
    assert_eq!(resumed.skipped, 2, "resume must skip the records already on disk");
    assert_eq!(resumed.written, full.total - 2);

    // The two manifests are byte-identical, file for file.
    let a = snapshot(&full_dir);
    let b = snapshot(&resumed_dir);
    assert_eq!(a.len(), full.total);
    assert_eq!(a, b, "resumed manifest differs from uninterrupted manifest");

    // A third invocation is a no-op (idempotent resume).
    let noop = build_qor_dataset_resumable(&cfg, &resumed_dir, &opts).expect("no-op");
    assert_eq!(noop.written, 0);
    assert_eq!(noop.skipped, noop.total);
    assert_eq!(snapshot(&resumed_dir), b, "no-op resume must not rewrite records");

    std::fs::remove_dir_all(&full_dir).ok();
    std::fs::remove_dir_all(&resumed_dir).ok();
}

#[test]
fn injected_miscompile_is_quarantined_and_sweep_completes() {
    let cfg = test_cfg();
    let victim = first_design(&cfg);
    let dir = fresh_dir("quarantine");
    let opts = QorSweepOptions {
        stop_after: None,
        faults: vec![QorFault {
            design: victim.to_string(),
            recipe_index: 0,
            step: 1,
            kind: FaultKind::Corrupt,
        }],
    };
    let report = build_qor_dataset_resumable(&cfg, &dir, &opts).expect("sweep");
    // Graceful degradation: the whole sweep still completes.
    assert!(report.complete(), "miscompile must not abort the sweep: {report:?}");
    assert_eq!(report.quarantined, 1);

    // The poisoned sample is in quarantine with a typed incident, and NOT
    // in the clean manifest.
    let file = SampleRecord::file_name(victim, 0);
    assert!(!dir.join(MANIFEST_DIR).join(&file).exists(), "poisoned sample leaked into manifest");
    let record = read_record(&dir.join(QUARANTINE_DIR).join(&file)).expect("quarantined record");
    assert_eq!(record.status, SampleStatus::Quarantined);
    assert_eq!(record.design, victim);
    assert!(
        record.incidents.iter().any(|i| i.starts_with("step 1") && i.contains("refuted")),
        "incident must identify the refuted step: {:?}",
        record.incidents
    );

    // Unaffected samples of the same design stay clean.
    let sibling = SampleRecord::file_name(victim, 1);
    let clean = read_record(&dir.join(MANIFEST_DIR).join(&sibling)).expect("clean sibling record");
    assert_eq!(clean.status, SampleStatus::Ok);
    assert!(clean.incidents.is_empty());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_record_is_regenerated_on_resume() {
    let cfg = test_cfg();
    let dir = fresh_dir("corrupt");
    let opts = QorSweepOptions::default();
    build_qor_dataset_resumable(&cfg, &dir, &opts).expect("initial run");
    let reference = snapshot(&dir);

    // Truncate one record (as a crash between write and rename never
    // could, but a disk error or manual edit can).
    let victim = dir.join(MANIFEST_DIR).join(SampleRecord::file_name(first_design(&cfg), 0));
    let bytes = std::fs::read(&victim).expect("read");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate");

    let report = build_qor_dataset_resumable(&cfg, &dir, &opts).expect("resume");
    assert_eq!(report.written, 1, "exactly the corrupt record is regenerated");
    assert_eq!(report.skipped, report.total - 1);
    assert_eq!(snapshot(&dir), reference, "regenerated record must match the original bytes");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stall_fault_times_out_deterministically_and_quarantines() {
    let cfg = test_cfg();
    let victim = first_design(&cfg);
    let dir = fresh_dir("stall");
    let opts = QorSweepOptions {
        stop_after: None,
        faults: vec![QorFault {
            design: victim.to_string(),
            recipe_index: 1,
            step: 0,
            kind: FaultKind::Stall { millis: 0 },
        }],
    };
    let report = build_qor_dataset_resumable(&cfg, &dir, &opts).expect("sweep");
    assert!(report.complete());
    assert_eq!(report.quarantined, 1);
    let file = SampleRecord::file_name(victim, 1);
    let record = read_record(&dir.join(QUARANTINE_DIR).join(&file)).expect("record");
    assert!(
        record.incidents.iter().any(|i| i.contains("budget exhausted")),
        "stall must surface as a budget incident: {:?}",
        record.incidents
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_guard_and_out_of_range_fault_are_typed_errors() {
    let dir = fresh_dir("errors");
    let mut cfg = test_cfg();
    cfg.guard = GuardConfig { sim_rounds: 0, ..GuardConfig::default() };
    match build_qor_dataset_resumable(&cfg, &dir, &QorSweepOptions::default()) {
        Err(QorBuildError::Synth(_)) => {}
        other => panic!("expected typed config error, got {other:?}"),
    }

    let cfg = test_cfg();
    let opts = QorSweepOptions {
        stop_after: None,
        faults: vec![QorFault {
            design: first_design(&cfg).to_string(),
            recipe_index: 0,
            step: cfg.recipe_len + 5,
            kind: FaultKind::Corrupt,
        }],
    };
    match build_qor_dataset_resumable(&cfg, &dir, &opts) {
        Err(QorBuildError::Synth(_)) => {}
        other => panic!("expected typed fault-range error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn work_budgets_quarantine_instead_of_hanging() {
    // A one-unit work budget times out every pass: all samples complete,
    // all are quarantined, none hang.
    let mut cfg = test_cfg();
    cfg.guard = GuardConfig { budget: PassBudget::with_max_work(1), ..GuardConfig::default() };
    let dir = fresh_dir("budget");
    let report =
        build_qor_dataset_resumable(&cfg, &dir, &QorSweepOptions::default()).expect("sweep");
    assert!(report.complete());
    assert_eq!(report.quarantined, report.total, "every pass must trip the 1-unit budget");
    std::fs::remove_dir_all(&dir).ok();
}
