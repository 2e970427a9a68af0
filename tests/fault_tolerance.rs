//! Acceptance tests for fault-tolerant training.
//!
//! Three end-to-end guarantees from the robustness work:
//!
//! 1. A worker that panics mid-epoch does not change the result: the
//!    supervisor recomputes the lost shard and the run converges to the
//!    exact model the fault-free run produces.
//! 2. A NaN loss no longer aborts the process: the resilient loop rolls
//!    back to the last good state, backs the learning rate off, completes,
//!    and records the recovery in its [`TrainReport`].
//! 3. A whole random fault barrage (panics, delays, corrupted gradients)
//!    is absorbed without perturbing the trained weights.

use hoga_repro::datasets::gamora::{build_reasoning_graph, MultiplierKind, ReasoningConfig};
use hoga_repro::eval::fault::{random_worker_faults, RecoveryEvent, RecoveryPolicy};
use hoga_repro::eval::parallel_train::train_reasoning_parallel_supervised;
use hoga_repro::eval::resilient::train_reasoning_resilient;
use hoga_repro::eval::trainer::TrainConfig;
use hoga_repro::hoga::model::HogaModel;
use hoga_repro::jobs::{FaultKind, FaultSite, JobFaultPlan};

fn tiny_graph() -> hoga_repro::datasets::gamora::ReasoningGraph {
    build_reasoning_graph(
        MultiplierKind::Csa,
        4,
        &ReasoningConfig { tech_map: false, lut_k: 4, num_hops: 3, label_k: 3 },
    )
}

fn tiny_cfg() -> TrainConfig {
    TrainConfig {
        hidden_dim: 16,
        epochs: 3,
        lr: 3e-3,
        batch_nodes: 64,
        batch_samples: 4,
        seed: 23,
        ..TrainConfig::default()
    }
}

fn flat_params(model: &HogaModel) -> Vec<f32> {
    model.params.iter().flat_map(|(_, _, m)| m.as_slice().to_vec()).collect()
}

#[test]
fn panicked_worker_converges_to_the_fault_free_model() {
    let graph = tiny_graph();
    let cfg = tiny_cfg();
    let workers = 2;

    let (clean_model, _, _, clean_report) =
        train_reasoning_parallel_supervised(&graph, &cfg, workers, &JobFaultPlan::none())
            .expect("fault-free run");
    assert_eq!(clean_report.recoveries(), 0);

    let plan = JobFaultPlan::none()
        .inject(FaultSite::Step { unit: 1, step: 0, lane: 0 }, FaultKind::Panic);
    let (model, _, _, report) = train_reasoning_parallel_supervised(&graph, &cfg, workers, &plan)
        .expect("supervised run survives a worker panic");

    assert_eq!(report.recoveries(), 1, "the panic must be recorded");
    assert!(
        report
            .events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::WorkerPanicked { epoch: 1, step: 0, worker: 0 })),
        "missing WorkerPanicked event: {:?}",
        report.events
    );
    assert_eq!(
        flat_params(&model),
        flat_params(&clean_model),
        "recomputed shard must reproduce the fault-free gradients bitwise"
    );
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

#[test]
fn random_fault_barrage_does_not_perturb_the_model() {
    let graph = tiny_graph();
    let cfg = tiny_cfg();
    let workers = 3;

    let (clean_model, _, _, _) =
        train_reasoning_parallel_supervised(&graph, &cfg, workers, &JobFaultPlan::none())
            .expect("fault-free run");

    // Six deterministic faults cycling panic → delay → corrupt across the
    // run. Same seed ⇒ same plan ⇒ reproducible test.
    let plan = random_worker_faults(0xFA117, cfg.epochs, 1, workers, 6);
    assert_eq!(plan.faults().len(), 6);
    let (model, _, _, report) = train_reasoning_parallel_supervised(&graph, &cfg, workers, &plan)
        .expect("supervised run absorbs the barrage");

    // Delays are logged but are not recoveries; panics and corruptions
    // are. Random coordinates may collide (two faults on one worker/step
    // merge into a single recovery), so the exact count is bounded, not
    // fixed.
    let injected_recoveries =
        plan.faults().iter().filter(|f| !matches!(f.kind, FaultKind::Stall { .. })).count();
    let recovered = report.recoveries();
    assert!(
        (1..=injected_recoveries).contains(&recovered),
        "expected 1..={injected_recoveries} recoveries, saw {recovered}: {:?}",
        report.events
    );
    assert_eq!(
        flat_params(&model),
        flat_params(&clean_model),
        "every recovery path must preserve bitwise gradient equality"
    );
}
