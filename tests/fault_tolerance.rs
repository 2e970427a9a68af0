//! Acceptance test for fault-tolerant training.
//!
//! A NaN loss does not abort the process: the resilient loop rolls back to
//! the start of the epoch, backs the learning rate off, completes, and
//! records the recovery in its [`TrainReport`](hoga_repro::eval::fault::TrainReport).
//! A lost process is the job engine's to retry and resume
//! (`tests/job_engine.rs`).

use hoga_repro::datasets::gamora::{build_reasoning_graph, MultiplierKind, ReasoningConfig};
use hoga_repro::eval::fault::{RecoveryEvent, RecoveryPolicy};
use hoga_repro::eval::resilient::train_reasoning_resilient;
use hoga_repro::eval::trainer::TrainConfig;
use hoga_repro::hoga::model::HogaModel;
use hoga_repro::jobs::{FaultKind, FaultSite, JobFaultPlan};

fn tiny_graph() -> hoga_repro::datasets::gamora::ReasoningGraph {
    build_reasoning_graph(
        MultiplierKind::Csa,
        4,
        &ReasoningConfig { tech_map: false, lut_k: 4, num_hops: 8, label_k: 3 },
    )
}

fn tiny_cfg() -> TrainConfig {
    TrainConfig {
        hidden_dim: 64,
        epochs: 3,
        lr: 3e-3,
        batch_nodes: 96,
        batch_samples: 4,
        seed: 23,
        ..TrainConfig::default()
    }
}

fn flat_params(model: &HogaModel) -> Vec<f32> {
    model.params.iter().flat_map(|(_, _, m)| m.as_slice().to_vec()).collect()
}

#[test]
fn nan_loss_rolls_back_backs_off_and_completes() {
    let graph = tiny_graph();
    let cfg = tiny_cfg();
    let plan =
        JobFaultPlan::none().inject(FaultSite::Loss { unit: 1, step: 0 }, FaultKind::Corrupt);
    let (model, _, stats, report) =
        train_reasoning_resilient(&graph, &cfg, &RecoveryPolicy::default(), &plan)
            .expect("resilient run completes despite the NaN");

    assert_eq!(report.retries, 1);
    assert!(stats.final_loss.is_finite());
    assert!(flat_params(&model).iter().all(|v| v.is_finite()));
    // First the divergence, then the rollback it triggered.
    assert!(matches!(report.events[0], RecoveryEvent::NonFiniteLoss { epoch: 1, step: 0, .. }));
    assert!(matches!(report.events[1], RecoveryEvent::RolledBack { to_epoch: 1, retry: 1 }));
    // The learning rate stayed backed off for the rest of the run.
    assert!(report.final_lr < cfg.lr, "final lr {} !< base lr {}", report.final_lr, cfg.lr);
    // The human-readable rendering mentions the recovery.
    let rendered = report.render();
    assert!(rendered.contains("NonFiniteLoss"), "render omitted the event: {rendered}");
    assert!(rendered.contains("1 retries"), "render omitted the retry count: {rendered}");
}
