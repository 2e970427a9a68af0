//! Divergence-recovering HOGA training.
//!
//! The plain loops in [`crate::trainer`] are correct but fail-fast: a
//! non-finite loss (numeric blow-up at a too-hot learning rate, a bad
//! batch) would poison every subsequent step. This module wraps the HOGA
//! reasoning loop in a recovery supervisor: each epoch ends with an
//! in-memory snapshot of `(params, optimizer state)`, and when a step
//! produces a non-finite loss or an exploding gradient norm the run rolls
//! back to the last good snapshot, multiplies the learning rate by
//! [`RecoveryPolicy::lr_backoff`], and retries — up to
//! [`RecoveryPolicy::max_retries`] times before giving up with
//! [`TrainError::Diverged`]. Every action is recorded in a
//! [`TrainReport`].
//!
//! Determinism: minibatch order is a pure function of `(seed, epoch)`, so
//! a rolled-back epoch replays the same batches at the reduced rate, and a
//! fault-free resilient run is bitwise-identical to
//! [`crate::trainer::train_reasoning`] with the same config.

use hoga_autograd::optim::{Adam, Optimizer};
use hoga_autograd::Tape;
use hoga_core::heads::NodeClassifier;
use hoga_core::hopfeat::hop_stack;
use hoga_core::model::{HogaConfig, HogaModel};
use hoga_datasets::gamora::ReasoningGraph;
use hoga_datasets::splits::minibatches;
use hoga_gen::reason::NodeClass;
use std::time::Instant;

use crate::fault::{
    FaultInjector, FaultPlan, RecoveryEvent, RecoveryPolicy, TrainError, TrainReport,
};
use crate::trainer::{
    maybe_checkpoint, reasoning_class_weights, resume_state, timed, TrainConfig, TrainStats,
};

/// The learning rate the run *wants* at `epoch`, before any divergence
/// backoff: the schedule's rate when one is configured, the base rate
/// otherwise.
fn base_lr_at(cfg: &TrainConfig, epoch: usize) -> f32 {
    match &cfg.schedule {
        Some(s) => s.lr_at(epoch),
        None => cfg.lr,
    }
}

/// Trains HOGA for node classification, recovering from divergence instead
/// of aborting.
///
/// `plan` may inject NaN losses at chosen `(epoch, step)` coordinates
/// (each fires once) to exercise the recovery path; pass
/// [`FaultPlan::default`] for a production run, where the same machinery
/// catches organic blow-ups. Honors the config's `schedule`,
/// `resume_from` and `checkpoint_to` exactly like
/// [`crate::trainer::try_train_reasoning`].
///
/// # Errors
///
/// [`TrainError::Diverged`] once `policy.max_retries` rollbacks are
/// exhausted; checkpoint errors as in
/// [`crate::trainer::try_train_reasoning`].
pub fn train_reasoning_resilient(
    graph: &ReasoningGraph,
    cfg: &TrainConfig,
    policy: &RecoveryPolicy,
    plan: &FaultPlan,
) -> Result<(HogaModel, NodeClassifier, TrainStats, TrainReport), TrainError> {
    let labels = graph.label_indices();
    let weights = reasoning_class_weights(&labels);
    let n = graph.aig.num_nodes();
    let hcfg = HogaConfig::new(graph.features.cols(), cfg.hidden_dim, graph.hops.len() - 1);
    let mut model = HogaModel::new(&hcfg, cfg.seed);
    let cls =
        NodeClassifier::new(&mut model.params, cfg.hidden_dim, NodeClass::COUNT, cfg.seed ^ 0xC);
    let mut opt = Adam::new(cfg.lr);
    let (start_epoch, mut lr_scale) = resume_state(cfg, &mut model.params, &mut opt)?;

    let injector = FaultInjector::new(plan);
    let mut report = TrainReport {
        resumed_from_epoch: (start_epoch > 0).then_some(start_epoch),
        ..TrainReport::default()
    };
    // The last good state: (next epoch to run, params, optimizer state).
    let mut snapshot = (start_epoch, model.params.clone(), opt.state_bytes());
    let mut retries = 0usize;
    let mut epoch = start_epoch;
    let mut stats = TrainStats::default();
    let start = Instant::now();

    'training: while epoch < cfg.epochs {
        opt.set_learning_rate(base_lr_at(cfg, epoch) * lr_scale);
        for (step, batch) in
            minibatches(n, cfg.batch_nodes, cfg.seed, epoch as u64).into_iter().enumerate()
        {
            let stack = hop_stack(&graph.hops, &batch);
            let batch_labels: Vec<usize> = batch.iter().map(|&i| labels[i]).collect();
            let mut tape = Tape::new();
            let loss = timed(&mut stats.forward_time, || {
                let out = model.forward(&mut tape, &stack, batch.len());
                let logits = cls.logits(&mut tape, &model.params, out.representations);
                tape.cross_entropy_weighted(logits, &batch_labels, &weights)
            });
            let mut loss_val = tape.value(loss)[(0, 0)];
            if injector.nan_loss(epoch, step) {
                loss_val = f32::NAN;
            }
            let grads = timed(&mut stats.backward_time, || tape.backward(loss));
            let grad_norm = grads.global_norm();
            let diverged = !loss_val.is_finite()
                || !grad_norm.is_finite()
                || grad_norm > policy.grad_norm_limit;
            if diverged {
                if retries >= policy.max_retries {
                    return Err(TrainError::Diverged { epoch, retries, last_loss: loss_val });
                }
                retries += 1;
                let lr_before = opt.learning_rate();
                let lr_after = lr_before * policy.lr_backoff;
                lr_scale *= policy.lr_backoff;
                if loss_val.is_finite() {
                    report.events.push(RecoveryEvent::GradientExplosion {
                        epoch,
                        step,
                        norm: grad_norm,
                        lr_before,
                        lr_after,
                    });
                } else {
                    report.events.push(RecoveryEvent::NonFiniteLoss {
                        epoch,
                        step,
                        lr_before,
                        lr_after,
                    });
                }
                model.params = snapshot.1.clone();
                opt.restore_state(&snapshot.2)
                    .map_err(|e| TrainError::CheckpointMismatch(e.to_string()))?;
                epoch = snapshot.0;
                report.events.push(RecoveryEvent::RolledBack { to_epoch: epoch, retry: retries });
                continue 'training;
            }
            timed(&mut stats.optim_time, || opt.step(&mut model.params, &grads));
            stats.final_loss = loss_val;
            stats.steps += 1;
        }
        if maybe_checkpoint(cfg, epoch, &model.params, &opt, lr_scale)? {
            report.checkpoints_written += 1;
        }
        snapshot = (epoch + 1, model.params.clone(), opt.state_bytes());
        epoch += 1;
        // Counts completed epoch passes, so rolled-back re-runs add passes.
        stats.epochs_run += 1;
    }

    report.retries = retries;
    report.final_lr = opt.learning_rate();
    stats.train_time = start.elapsed();
    Ok((model, cls, stats, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use crate::trainer::{train_reasoning, ReasonModel, ReasonModelKind};
    use hoga_core::model::Aggregator;
    use hoga_datasets::gamora::{build_reasoning_graph, MultiplierKind, ReasoningConfig};

    fn tiny_graph() -> ReasoningGraph {
        build_reasoning_graph(
            MultiplierKind::Csa,
            4,
            &ReasoningConfig { tech_map: false, lut_k: 4, num_hops: 3, label_k: 3 },
        )
    }

    fn tiny_cfg() -> TrainConfig {
        TrainConfig {
            hidden_dim: 16,
            epochs: 4,
            lr: 3e-3,
            batch_nodes: 64,
            batch_samples: 4,
            seed: 5,
            ..TrainConfig::default()
        }
    }

    fn flat_params(model: &HogaModel) -> Vec<f32> {
        model.params.iter().flat_map(|(_, _, m)| m.as_slice().to_vec()).collect()
    }

    #[test]
    fn fault_free_run_matches_plain_trainer_bitwise() {
        let g = tiny_graph();
        let cfg = tiny_cfg();
        let (model, _, stats, report) =
            train_reasoning_resilient(&g, &cfg, &RecoveryPolicy::default(), &FaultPlan::default())
                .expect("clean run");
        assert!(report.events.is_empty());
        assert_eq!(report.retries, 0);
        let (plain, plain_stats) =
            train_reasoning(&g, ReasonModelKind::Hoga(Aggregator::GatedSelfAttention), &cfg);
        let ReasonModel::Hoga(plain_model, _) = &plain else { unreachable!() };
        assert_eq!(flat_params(&model), flat_params(plain_model));
        assert_eq!(stats.final_loss, plain_stats.final_loss);
        assert_eq!(stats.steps, plain_stats.steps);
    }

    #[test]
    fn nan_loss_rolls_back_and_completes() {
        let g = tiny_graph();
        let cfg = tiny_cfg();
        let plan = FaultPlan::new(vec![Fault::NanLoss { epoch: 2, step: 0 }]);
        let (model, _, stats, report) =
            train_reasoning_resilient(&g, &cfg, &RecoveryPolicy::default(), &plan)
                .expect("run must survive the injected NaN");
        assert!(stats.final_loss.is_finite());
        assert_eq!(report.retries, 1);
        assert!(matches!(report.events[0], RecoveryEvent::NonFiniteLoss { epoch: 2, step: 0, .. }));
        assert!(matches!(report.events[1], RecoveryEvent::RolledBack { to_epoch: 2, retry: 1 }));
        // The backoff stuck: the run finished below the base rate.
        assert!(report.final_lr < cfg.lr);
        assert!(flat_params(&model).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn retries_are_bounded() {
        let g = tiny_graph();
        let cfg = tiny_cfg();
        // An impossible gradient-norm limit diverges every step.
        let policy =
            RecoveryPolicy { max_retries: 2, grad_norm_limit: 1e-12, ..RecoveryPolicy::default() };
        match train_reasoning_resilient(&g, &cfg, &policy, &FaultPlan::default()) {
            Err(TrainError::Diverged { retries, .. }) => assert_eq!(retries, 2),
            other => panic!("expected Diverged, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn rollback_restores_optimizer_state_exactly() {
        // A NaN injected at the very first step of an epoch must leave the
        // final model identical to a run where the same epoch simply ran at
        // the backed-off rate from its start — i.e. rollback must restore
        // params AND Adam moments, not just params.
        let g = tiny_graph();
        let cfg = tiny_cfg();
        let plan = FaultPlan::new(vec![Fault::NanLoss { epoch: 0, step: 0 }]);
        let (model, _, _, report) =
            train_reasoning_resilient(&g, &cfg, &RecoveryPolicy::default(), &plan)
                .expect("survives");
        assert_eq!(report.retries, 1);
        // Reference: a clean run whose lr is pre-backed-off the same way.
        let mut halved = cfg.clone();
        halved.lr *= RecoveryPolicy::default().lr_backoff;
        let (reference, _, _, ref_report) = train_reasoning_resilient(
            &g,
            &halved,
            &RecoveryPolicy::default(),
            &FaultPlan::default(),
        )
        .expect("clean run");
        assert!(ref_report.events.is_empty());
        assert_eq!(flat_params(&model), flat_params(&reference));
    }
}
