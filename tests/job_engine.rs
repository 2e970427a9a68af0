//! Engine-managed resume is byte-identical: a training run or dataset
//! sweep that loses attempts to injected panics (the same isolation path
//! a mid-run SIGKILL exercises via a fresh process — see the
//! `job-engine-smoke` CI job) must leave artifacts on disk that are
//! bit-for-bit equal to an uninterrupted run's, with a bounded number of
//! attempts.

use hoga_repro::datasets::manifest::{MANIFEST_DIR, QUARANTINE_DIR};
use hoga_repro::datasets::openabcd::{build_qor_dataset, QorDatasetConfig, QorSweepOptions};
use hoga_repro::eval::trainer::{QorModelKind, QorTarget, TrainConfig, TrainStats};
use hoga_repro::jobs::{
    backoff_delay, CancelToken, Engine, EngineConfig, EventLog, FaultKind, FaultSite, JobEvent,
    JobFaultPlan, RetryPolicy,
};
use hoga_repro::pipeline::{QorDatasetJob, TrainJob};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn ds_cfg() -> QorDatasetConfig {
    QorDatasetConfig {
        recipes_per_design: 2,
        recipe_len: 4,
        max_scaled_nodes: 500,
        ..QorDatasetConfig::tiny()
    }
}

fn engine_cfg(max_attempts: u32) -> EngineConfig {
    EngineConfig {
        workers: 1,
        queue_capacity: 4,
        retry: RetryPolicy { max_attempts, base_delay_ms: 1, max_delay_ms: 4, jitter_pct: 0 },
        deadline_ms: 0,
        seed: 0x1057,
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hoga-engine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn started_attempts(log: &EventLog) -> usize {
    log.snapshot().iter().filter(|e| matches!(e, JobEvent::Started { .. })).count()
}

const TRAIN_EPOCHS: usize = 4;

/// Runs one TrainJob on a fresh engine; returns the event log and the
/// stats of the attempt that completed.
fn run_train(ckpt: &Path, plan: JobFaultPlan, max_attempts: u32) -> (Arc<EventLog>, TrainStats) {
    let cfg = ds_cfg();
    let num_hops = cfg.num_hops;
    let ds = Arc::new(build_qor_dataset(&cfg));
    let job = TrainJob {
        ds,
        kind: QorModelKind::Hoga { num_hops },
        target: QorTarget::GateCount,
        cfg: TrainConfig {
            hidden_dim: 8,
            epochs: TRAIN_EPOCHS,
            checkpoint_to: Some(ckpt.to_path_buf()),
            checkpoint_every: 1,
            ..TrainConfig::default()
        },
    };
    let log = Arc::new(EventLog::new());
    let engine = Engine::with_sink(engine_cfg(max_attempts), log.clone()).expect("engine");
    let handle = engine.submit(job, plan).expect("submit");
    let (_, stats) = handle.wait().expect("train job completes");
    engine.shutdown();
    (log, stats)
}

fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for sub in [MANIFEST_DIR, QUARANTINE_DIR] {
        let Ok(entries) = std::fs::read_dir(dir.join(sub)) else { continue };
        for entry in entries {
            let entry = entry.expect("dir entry");
            out.insert(
                format!("{sub}/{}", entry.file_name().to_string_lossy()),
                std::fs::read(entry.path()).expect("read record"),
            );
        }
    }
    out
}

/// Runs one QorDatasetJob on a fresh engine; returns the event log.
fn run_sweep(dir: &Path, chunk: usize, plan: JobFaultPlan, max_attempts: u32) -> Arc<EventLog> {
    let job = QorDatasetJob {
        config: ds_cfg(),
        out_dir: dir.to_path_buf(),
        opts: QorSweepOptions::default(),
        chunk,
    };
    let log = Arc::new(EventLog::new());
    let engine = Engine::with_sink(engine_cfg(max_attempts), log.clone()).expect("engine");
    let handle = engine.submit(job, plan).expect("submit");
    let report = handle.wait().expect("sweep completes");
    engine.shutdown();
    assert!(report.complete(), "aggregate report must describe a finished sweep: {report:?}");
    log
}

#[test]
fn backoff_schedule_is_a_pure_function_of_the_job_seed() {
    // Determinism contract: the retry schedule depends only on (policy,
    // job seed, attempt) — two independent walks produce the same delays.
    let policy = RetryPolicy::with_attempts(5);
    let schedule = |seed: u64| -> Vec<u64> {
        (1..policy.max_attempts)
            .map(|a| backoff_delay(&policy, seed, a).as_millis() as u64)
            .collect()
    };
    assert_eq!(schedule(0xDEAD_BEEF), schedule(0xDEAD_BEEF));
    assert_ne!(schedule(0xDEAD_BEEF), schedule(0xDEAD_BEF0), "seed must perturb the jitter");
    assert_eq!(RetryPolicy::no_retry().max_attempts, 1);
}

#[test]
fn cancel_token_clones_share_one_flag() {
    let token = CancelToken::new();
    let observer = token.clone();
    assert!(!observer.is_cancelled());
    token.cancel();
    assert!(observer.is_cancelled());
}

#[test]
fn train_resumes_byte_identically_after_injected_panics() {
    let dir = fresh_dir("train");

    // Reference: uninterrupted run.
    let reference = dir.join("ck-ref.bin");
    let (log, stats) = run_train(&reference, JobFaultPlan::none(), 1);
    assert_eq!(started_attempts(&log), 1);
    // One trainer call per checkpoint stage; the report covers all of them.
    assert_eq!(stats.epochs_run, TRAIN_EPOCHS, "staged stats must cover the whole run");
    assert!(stats.steps >= TRAIN_EPOCHS && stats.train_time >= stats.optim_time);
    let want = std::fs::read(&reference).expect("reference checkpoint");

    // An attempt-level panic: the engine injects it before attempt 1 runs
    // the job body, so attempt 2 finds no checkpoint and trains from
    // epoch 0 — the whole run replays inside one process.
    let attempt = dir.join("ck-attempt.bin");
    let (log, attempt_stats) = run_train(
        &attempt,
        JobFaultPlan::none().inject(FaultSite::Attempt { attempt: 1 }, FaultKind::Panic),
        3,
    );
    assert_eq!(started_attempts(&log), 2, "one panic costs exactly one attempt");
    assert_eq!(attempt_stats.epochs_run, TRAIN_EPOCHS, "attempt 2 replays every epoch");
    assert_eq!(attempt_stats.steps, stats.steps);
    assert_eq!(attempt_stats.final_loss.to_bits(), stats.final_loss.to_bits());
    assert!(
        log.snapshot().iter().any(|e| matches!(e, JobEvent::FaultInjected { .. })),
        "the injected fault must be visible in the event stream"
    );
    assert_eq!(std::fs::read(&attempt).expect("checkpoint"), want);

    // A step-level panic at the epoch-2 stage boundary: epochs 0–1 are
    // already checkpointed, so attempt 2 resumes mid-run from epoch 2.
    let step = dir.join("ck-step.bin");
    let (log, step_stats) = run_train(
        &step,
        JobFaultPlan::none()
            .inject(FaultSite::Step { unit: 2, step: 0, lane: 0 }, FaultKind::Panic),
        3,
    );
    assert_eq!(started_attempts(&log), 2);
    assert_eq!(step_stats.epochs_run, TRAIN_EPOCHS - 2, "attempt 2 ran the epochs left");
    let rendered = log.render();
    assert!(
        rendered.contains("checkpointed"),
        "stage checkpoints must be visible before the fault: {rendered}"
    );
    assert_eq!(
        std::fs::read(&step).expect("checkpoint"),
        want,
        "mid-run resume must converge to the uninterrupted bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chunked_sweep_resumes_byte_identically_after_injected_panic() {
    let ref_dir = fresh_dir("sweep-ref");
    let log = run_sweep(&ref_dir, 0, JobFaultPlan::none(), 1);
    assert_eq!(started_attempts(&log), 1);
    let reference = snapshot(&ref_dir);
    assert!(!reference.is_empty());

    // Chunked run with a panic between chunks 1 and 2: attempt 1 writes
    // one chunk of records, dies, and attempt 2's first chunk skip-resumes
    // over them.
    let dir = fresh_dir("sweep-faulty");
    let log = run_sweep(
        &dir,
        1,
        JobFaultPlan::none()
            .inject(FaultSite::Step { unit: 1, step: 0, lane: 0 }, FaultKind::Panic),
        3,
    );
    assert_eq!(started_attempts(&log), 2, "one panic costs exactly one attempt");
    assert_eq!(snapshot(&dir), reference, "resumed sweep bytes must match the reference");

    // A corrupt-kind fault surfaces as a retryable incident, not a panic.
    let dir2 = fresh_dir("sweep-corrupt");
    let log = run_sweep(
        &dir2,
        1,
        JobFaultPlan::none()
            .inject(FaultSite::Step { unit: 1, step: 0, lane: 0 }, FaultKind::Corrupt),
        3,
    );
    assert_eq!(started_attempts(&log), 2);
    assert_eq!(snapshot(&dir2), reference);

    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}
