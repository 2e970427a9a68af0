//! Fault-tolerant HOGA training under an explicit policy: the guarded loop
//! every trainer runs ([`crate::trainer`]), with the [`RecoveryPolicy`] and
//! [`JobFaultPlan`] chosen by the caller and the [`TrainReport`] of every
//! rollback handed back.

use hoga_core::heads::NodeClassifier;
use hoga_core::model::{Aggregator, HogaModel};
use hoga_datasets::gamora::ReasoningGraph;

use crate::fault::{RecoveryPolicy, TrainError, TrainReport};
use crate::trainer::{fit_hopwise, reasoning_hoga, TrainConfig, TrainStats};
use hoga_jobs::JobFaultPlan;

/// Trains HOGA for node classification, recovering from divergence as
/// `policy` says: a non-finite loss or a gradient norm above the limit
/// rolls the epoch back, scales the learning rate by `policy.lr_backoff`
/// and replays the same batches. `plan` may inject NaN losses at chosen
/// `Loss { epoch, step }` sites (each fires once) to exercise that path;
/// no other site is read. A run that never diverges is bitwise-identical to
/// [`crate::trainer::train_reasoning`].
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
    plan: &JobFaultPlan,
) -> Result<(HogaModel, NodeClassifier, TrainStats, TrainReport), TrainError> {
    let (mut model, cls) = reasoning_hoga(graph, cfg, Aggregator::GatedSelfAttention);
    let (stats, report) = fit_hopwise(graph, &mut model, &cls, cfg, policy, plan)?;
    Ok((model, cls, stats, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RecoveryEvent;
    use crate::testutil::nan_loss;
    use crate::trainer::{eval_reasoning, ReasonModel};
    use hoga_core::infer::block_nodes;
    use hoga_datasets::gamora::{build_reasoning_graph, MultiplierKind, ReasoningConfig};
    use hoga_tensor::with_threads;

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
    fn nan_loss_rolls_back_and_completes() {
        let g = tiny_graph();
        let cfg = tiny_cfg();
        let plan = nan_loss(2, 0);
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
    fn a_too_high_learning_rate_rolls_back_and_completes() {
        // No fault plan: at 1e9 the first steps' gradients overflow to inf
        // or NaN while the loss stays finite, and four halvings bring the
        // run back (the decades 1e-1 to 1e8 never trip the guard, 1e10 and
        // up exhaust it).
        let (g, cfg) = (block_graph(), TrainConfig { lr: 1e9, ..block_cfg() });
        let (model, _, stats, report) = run(1, &g, &cfg, &JobFaultPlan::none());
        let rolled_back =
            report.events.iter().any(|e| matches!(e, RecoveryEvent::RolledBack { .. }));
        assert!(rolled_back, "{:?}", report.events);
        assert!(report.final_lr < cfg.lr, "final lr {} !< base lr {}", report.final_lr, cfg.lr);
        assert!(stats.final_loss.is_finite());
        assert!(flat_params(&model).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn retries_are_bounded() {
        let g = tiny_graph();
        let cfg = tiny_cfg();
        // An impossible gradient-norm limit diverges every step.
        let policy =
            RecoveryPolicy { max_retries: 2, grad_norm_limit: 1e-12, ..RecoveryPolicy::default() };
        match train_reasoning_resilient(&g, &cfg, &policy, &JobFaultPlan::none()) {
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
        let plan = nan_loss(0, 0);
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
            &JobFaultPlan::none(),
        )
        .expect("clean run");
        assert!(ref_report.events.is_empty());
        assert_eq!(flat_params(&model), flat_params(&reference));
    }

    // At `K = 8`, `d = 64` a block is 32 nodes, so a 96-node batch is three
    // blocks, one per worker at three threads.

    fn block_graph() -> ReasoningGraph {
        build_reasoning_graph(
            MultiplierKind::Csa,
            4,
            &ReasoningConfig { tech_map: false, lut_k: 4, num_hops: 8, label_k: 3 },
        )
    }

    fn block_cfg() -> TrainConfig {
        TrainConfig { hidden_dim: 64, epochs: 2, batch_nodes: 96, ..tiny_cfg() }
    }

    /// Blocks of a full batch of [`block_cfg`] over [`block_graph`].
    fn blocks_per_batch(graph: &ReasoningGraph, cfg: &TrainConfig) -> usize {
        assert!(graph.aig.num_nodes() > cfg.batch_nodes, "step 0 must be a full batch");
        cfg.batch_nodes.div_ceil(block_nodes(graph.hops.len(), cfg.hidden_dim))
    }

    type Run = (HogaModel, NodeClassifier, TrainStats, TrainReport);

    /// [`train_reasoning_resilient`] inside a `threads`-thread scope.
    fn run(threads: usize, graph: &ReasoningGraph, cfg: &TrainConfig, plan: &JobFaultPlan) -> Run {
        let policy = RecoveryPolicy::default();
        with_threads(threads, || train_reasoning_resilient(graph, cfg, &policy, plan))
            .expect("a clean run never diverges")
    }

    /// What a run ends on: the final loss and every parameter, as bits.
    fn bits(run: &Run) -> (u32, Vec<u32>) {
        let params = flat_params(&run.0).iter().map(|v| v.to_bits()).collect();
        (run.2.final_loss.to_bits(), params)
    }

    #[test]
    fn parallel_training_produces_working_model() {
        let g = block_graph();
        let cfg = TrainConfig { epochs: 6, ..block_cfg() };
        let (model, cls, stats, _) = run(2, &g, &cfg, &JobFaultPlan::none());
        assert!(stats.final_loss.is_finite());
        let acc = eval_reasoning(&ReasonModel::Hoga(Box::new(model), cls), &g);
        assert!(acc > 0.3, "accuracy {acc} unreasonably low");
    }

    #[test]
    fn gradient_equivalence_across_thread_counts() {
        // Which worker runs a block never enters its arithmetic, so the
        // trained bits are the same at every thread count, a repeated
        // one-thread run included.
        let (g, cfg) = (block_graph(), block_cfg());
        assert_eq!(blocks_per_batch(&g, &cfg), 3);
        let want = bits(&run(1, &g, &cfg, &JobFaultPlan::none()));
        for threads in [1, 2, 3, 4] {
            let got = bits(&run(threads, &g, &cfg, &JobFaultPlan::none()));
            assert!(got == want, "{threads} threads moved the trained bits");
        }
    }
}
