//! Thread-based data-parallel HOGA training (Figure 5), with a
//! fault-tolerant supervisor.
//!
//! The paper trains HOGA with PyTorch `DistributedDataParallel` on up to
//! 4 GPUs and observes near-linear speedup, *because* hop-wise learning has
//! no inter-node dependencies. We reproduce the same scaling law with OS
//! threads: every worker computes gradients on a shard of the node
//! minibatch against a shared read-only parameter snapshot; gradients are
//! summed (all-reduce) and a single Adam step is applied. The math is
//! bitwise-identical to single-worker training up to floating-point
//! reassociation.
//!
//! The supervisor makes the all-reduce crash-safe: a worker that panics or
//! returns a non-finite gradient shard does not kill the run — the
//! supervisor catches the unwind at `join`, recomputes the lost shard
//! in-place, and accumulates in the original shard order, so the resulting
//! gradient is *bitwise-identical* to the fault-free run. Faults can be
//! injected deterministically via [`FaultPlan`] to test exactly that.

use hoga_autograd::optim::{Adam, Optimizer};
use hoga_autograd::{Gradients, Tape};
use hoga_core::heads::NodeClassifier;
use hoga_core::hopfeat::hop_stack;
use hoga_core::model::{HogaConfig, HogaModel};
use hoga_datasets::gamora::ReasoningGraph;
use hoga_datasets::splits::{minibatches, shard_ranges};
use hoga_gen::reason::NodeClass;
use std::time::{Duration, Instant};

use crate::fault::{
    gradients_finite, Fault, FaultInjector, FaultPlan, RecoveryEvent, TrainError, TrainReport,
};
use crate::trainer::{apply_epoch_lr, maybe_checkpoint, resume_state, TrainConfig};

/// Result of a (possibly multi-worker) training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelRunStats {
    /// Worker count used.
    pub workers: usize,
    /// Wall-clock optimization time.
    pub train_time: Duration,
    /// Final training loss.
    pub final_loss: f32,
    /// Wall-clock time of the one-off hop-feature generation equivalent
    /// (measured separately; the paper reports 13 min vs hours of training).
    pub hop_feature_time: Duration,
}

/// Forward + backward over one shard of a node minibatch; `weight` is the
/// shard's share of the batch's total sample weight. Used both by the
/// spawned workers and by the supervisor when it recomputes a shard lost
/// to a panic or corruption.
pub(crate) fn shard_grad(
    graph: &ReasoningGraph,
    model: &HogaModel,
    cls: &NodeClassifier,
    labels: &[usize],
    weights: &[f32],
    nodes: &[usize],
    weight: f32,
) -> (f32, Gradients) {
    let stack = hop_stack(&graph.hops, nodes);
    let node_labels: Vec<usize> = nodes.iter().map(|&i| labels[i]).collect();
    let mut tape = Tape::new();
    let out = model.forward(&mut tape, &stack, nodes.len());
    let logits = cls.logits(&mut tape, &model.params, out.representations);
    let loss = tape.cross_entropy_weighted(logits, &node_labels, weights);
    // Weight by the shard's sample-weight share so the all-reduced gradient
    // equals the single-worker full-batch gradient.
    let scaled = tape.scale(loss, weight);
    let loss_val = tape.value(scaled)[(0, 0)];
    (loss_val, tape.backward(scaled))
}

/// Trains HOGA for node classification with `workers` data-parallel
/// workers; returns the trained model and timing statistics.
///
/// With `workers == 1` this is exactly the sequential loop. Determinism: the
/// shard decomposition is fixed, so results are reproducible for a given
/// worker count (floating-point summation order differs *across* worker
/// counts, as it does across GPU counts in the paper). Worker panics are
/// survived — the supervisor recomputes the lost shard.
///
/// # Errors
///
/// [`TrainError::NoWorkers`] when `workers == 0`; checkpoint errors as in
/// [`crate::trainer::try_train_reasoning`].
pub fn train_reasoning_parallel(
    graph: &ReasoningGraph,
    cfg: &TrainConfig,
    workers: usize,
) -> Result<(HogaModel, NodeClassifier, ParallelRunStats), TrainError> {
    let (model, cls, stats, _) =
        train_reasoning_parallel_supervised(graph, cfg, workers, &FaultPlan::default())?;
    Ok((model, cls, stats))
}

/// [`train_reasoning_parallel`] with deterministic fault injection and a
/// [`TrainReport`] of every recovery the supervisor performed.
///
/// The injected faults (and any organic worker failures) never change the
/// result: a panicked worker's shard and a corrupted (non-finite) gradient
/// shard are both recomputed by the supervisor in the original
/// accumulation order, so the trained model is bitwise-identical to the
/// fault-free run at the same worker count. Delayed workers only cost
/// wall-clock time.
///
/// # Errors
///
/// [`TrainError::NoWorkers`] when `workers == 0`; checkpoint errors as in
/// [`crate::trainer::try_train_reasoning`].
pub fn train_reasoning_parallel_supervised(
    graph: &ReasoningGraph,
    cfg: &TrainConfig,
    workers: usize,
    plan: &FaultPlan,
) -> Result<(HogaModel, NodeClassifier, ParallelRunStats, TrainReport), TrainError> {
    if workers == 0 {
        return Err(TrainError::NoWorkers);
    }
    // Measure the Phase-1 cost on this graph for the ratio the paper quotes.
    let hop_t0 = Instant::now();
    let _ = hoga_core::hopfeat::hop_features(&graph.adj, &graph.features, graph.hops.len() - 1);
    let hop_feature_time = hop_t0.elapsed();

    let labels = graph.label_indices();
    let weights = crate::trainer::reasoning_class_weights(&labels);
    let n = graph.aig.num_nodes();
    let hcfg = HogaConfig::new(graph.features.cols(), cfg.hidden_dim, graph.hops.len() - 1);
    let mut model = HogaModel::new(&hcfg, cfg.seed);
    let cls =
        NodeClassifier::new(&mut model.params, cfg.hidden_dim, NodeClass::COUNT, cfg.seed ^ 0xC);
    let mut opt = Adam::new(cfg.lr);
    let (start_epoch, lr_scale) = resume_state(cfg, &mut model.params, &mut opt)?;
    let injector = FaultInjector::new(plan);
    let mut report = TrainReport {
        resumed_from_epoch: (start_epoch > 0).then_some(start_epoch),
        ..TrainReport::default()
    };

    // Workers get the whole kernel-thread budget divided between them, so
    // speedup comes from parallelism across nodes, not oversubscription.
    let _kernel_threads = SingleThreadedKernels::enter();

    let start = Instant::now();
    let mut final_loss = 0.0f32;
    for epoch in start_epoch..cfg.epochs {
        apply_epoch_lr(cfg, &mut opt, epoch, lr_scale);
        for (step, batch) in
            minibatches(n, cfg.batch_nodes, cfg.seed, epoch as u64).into_iter().enumerate()
        {
            let shards = shard_ranges(batch.len(), workers);
            // With a class-weighted loss, shards combine by their share of
            // the total *sample weight*, not by node count — this keeps the
            // all-reduced gradient identical to the single-worker gradient.
            let batch_weight: f32 = batch.iter().map(|&i| weights[labels[i]]).sum();
            let events = &mut report.events;
            let (loss_sum, grads) = crossbeam::scope(|s| {
                let mut handles = Vec::with_capacity(workers);
                for (worker, &(lo, hi)) in shards.iter().enumerate() {
                    if lo == hi {
                        continue;
                    }
                    let nodes = &batch[lo..hi];
                    let model_ref = &model;
                    let labels_ref = &labels[..];
                    let weights_ref = &weights[..];
                    let shard_weight: f32 = nodes.iter().map(|&i| weights[labels[i]]).sum();
                    let weight = shard_weight / batch_weight.max(1e-12);
                    // Claim injected faults on the supervisor thread at
                    // spawn time so the claim order is deterministic.
                    let mut delay_ms = 0u64;
                    let mut inject_panic = false;
                    let mut inject_corrupt = false;
                    for f in injector.worker_faults(epoch, step, worker) {
                        match f {
                            Fault::WorkerDelay { millis, .. } => {
                                delay_ms = millis;
                                events.push(RecoveryEvent::WorkerDelayed {
                                    epoch,
                                    step,
                                    worker,
                                    millis,
                                });
                            }
                            Fault::WorkerPanic { .. } => inject_panic = true,
                            Fault::CorruptGradient { .. } => inject_corrupt = true,
                            Fault::NanLoss { .. } => {}
                        }
                    }
                    let handle = s.spawn(move |_| {
                        if delay_ms > 0 {
                            std::thread::sleep(Duration::from_millis(delay_ms));
                        }
                        if inject_panic {
                            // analyze: allow(panic-free-paths) — deliberate fault injection for resilience tests
                            panic!("injected worker panic (fault plan)");
                        }
                        let (loss_val, mut g) = shard_grad(
                            graph,
                            model_ref,
                            &cls,
                            labels_ref,
                            weights_ref,
                            nodes,
                            weight,
                        );
                        if inject_corrupt {
                            g.scale(f32::NAN);
                        }
                        (loss_val, g)
                    });
                    handles.push((worker, handle, nodes, weight));
                }
                let mut total = Gradients::new();
                let mut loss_sum = 0.0f32;
                for (worker, h, nodes, weight) in handles {
                    let (l, g) = match h.join() {
                        Ok((l, g)) if l.is_finite() && gradients_finite(&g) => (l, g),
                        Ok(_) => {
                            // Finiteness check caught a corrupted shard:
                            // recompute it from the shared snapshot.
                            events.push(RecoveryEvent::ShardCorrupted { epoch, step, worker });
                            shard_grad(graph, &model, &cls, &labels, &weights, nodes, weight)
                        }
                        Err(_) => {
                            // The worker unwound; its shard is recomputed by
                            // the supervisor, preserving accumulation order.
                            events.push(RecoveryEvent::WorkerPanicked { epoch, step, worker });
                            shard_grad(graph, &model, &cls, &labels, &weights, nodes, weight)
                        }
                    };
                    loss_sum += l;
                    total.accumulate(&g);
                }
                (loss_sum, total)
            })
            // analyze: allow(panic-free-paths) — scope result is Ok by construction: every join is consumed above
            .expect("all worker panics are consumed via join");
            final_loss = loss_sum;
            opt.step(&mut model.params, &grads);
        }
        if maybe_checkpoint(cfg, epoch, &model.params, &opt, lr_scale)? {
            report.checkpoints_written += 1;
        }
    }
    let train_time = start.elapsed();
    report.final_lr = opt.learning_rate();

    Ok((model, cls, ParallelRunStats { workers, train_time, final_loss, hop_feature_time }, report))
}

/// Pins the process-global kernel thread count to 1 and puts the previous
/// count back on drop, so a checkpoint error (`?`) or an unwind out of the
/// epoch loop cannot leave every later kernel in the process — a retried
/// job attempt, the next CLI stage — single-threaded.
struct SingleThreadedKernels {
    previous: usize,
}

impl SingleThreadedKernels {
    fn enter() -> Self {
        let previous = hoga_tensor::available_threads();
        hoga_tensor::set_threads(1);
        Self { previous }
    }
}

impl Drop for SingleThreadedKernels {
    fn drop(&mut self) {
        hoga_tensor::set_threads(self.previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{eval_reasoning, ReasonModel};
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
            epochs: 6,
            lr: 3e-3,
            batch_nodes: 64,
            batch_samples: 4,
            seed: 3,
            ..TrainConfig::default()
        }
    }

    fn params_of(model: &HogaModel) -> Vec<(String, Vec<f32>)> {
        model.params.iter().map(|(_, n, m)| (n.to_string(), m.as_slice().to_vec())).collect()
    }

    #[test]
    fn parallel_training_produces_working_model() {
        let g = tiny_graph();
        let (model, cls, stats) = train_reasoning_parallel(&g, &tiny_cfg(), 2).expect("2 workers");
        assert_eq!(stats.workers, 2);
        assert!(stats.final_loss.is_finite());
        let wrapped = ReasonModel::Hoga(Box::new(model), cls);
        let acc = eval_reasoning(&wrapped, &g);
        assert!(acc > 0.3, "accuracy {acc} unreasonably low");
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let g = tiny_graph();
        match train_reasoning_parallel(&g, &tiny_cfg(), 0) {
            Err(TrainError::NoWorkers) => {}
            Err(other) => panic!("expected NoWorkers, got {other:?}"),
            Ok(_) => panic!("expected NoWorkers, got a trained model"),
        }
    }

    #[test]
    fn single_worker_matches_sequential_semantics() {
        // workers=1 must produce a deterministic, finite run.
        let g = tiny_graph();
        let (_, _, s1) = train_reasoning_parallel(&g, &tiny_cfg(), 1).expect("1 worker");
        let (_, _, s2) = train_reasoning_parallel(&g, &tiny_cfg(), 1).expect("1 worker");
        assert_eq!(s1.final_loss, s2.final_loss, "single-worker run must be deterministic");
    }

    #[test]
    fn gradient_equivalence_across_worker_counts() {
        // One step with 1 vs 2 workers must give (nearly) identical loss,
        // since sharding only reassociates the loss average.
        let g = tiny_graph();
        let mut cfg = tiny_cfg();
        cfg.epochs = 1;
        cfg.batch_nodes = 0; // single full batch
        let (_, _, a) = train_reasoning_parallel(&g, &cfg, 1).expect("1 worker");
        let (_, _, b) = train_reasoning_parallel(&g, &cfg, 2).expect("2 workers");
        assert!(
            (a.final_loss - b.final_loss).abs() < 1e-3,
            "losses diverged: {} vs {}",
            a.final_loss,
            b.final_loss
        );
    }

    #[test]
    fn hop_feature_time_is_small_fraction() {
        let g = tiny_graph();
        let mut cfg = tiny_cfg();
        cfg.epochs = 10;
        let (_, _, stats) = train_reasoning_parallel(&g, &cfg, 1).expect("1 worker");
        assert!(
            stats.hop_feature_time < stats.train_time,
            "hop features {:?} !< training {:?}",
            stats.hop_feature_time,
            stats.train_time
        );
    }

    #[test]
    fn corrupted_shard_is_recomputed_bitwise_identically() {
        let g = tiny_graph();
        let mut cfg = tiny_cfg();
        cfg.epochs = 2;
        let clean = train_reasoning_parallel_supervised(&g, &cfg, 2, &FaultPlan::default())
            .expect("clean run");
        let plan = FaultPlan::new(vec![Fault::CorruptGradient { epoch: 1, step: 0, worker: 1 }]);
        let faulted = train_reasoning_parallel_supervised(&g, &cfg, 2, &plan).expect("faulted run");
        assert_eq!(
            faulted.3.events,
            vec![RecoveryEvent::ShardCorrupted { epoch: 1, step: 0, worker: 1 }]
        );
        assert_eq!(
            params_of(&clean.0),
            params_of(&faulted.0),
            "recovered run must match the fault-free run bitwise"
        );
        assert_eq!(clean.2.final_loss, faulted.2.final_loss);
    }

    #[test]
    fn delayed_worker_changes_nothing_but_time() {
        let g = tiny_graph();
        let mut cfg = tiny_cfg();
        cfg.epochs = 1;
        let clean = train_reasoning_parallel_supervised(&g, &cfg, 2, &FaultPlan::default())
            .expect("clean run");
        let plan =
            FaultPlan::new(vec![Fault::WorkerDelay { epoch: 0, step: 0, worker: 0, millis: 10 }]);
        let faulted = train_reasoning_parallel_supervised(&g, &cfg, 2, &plan).expect("delayed run");
        assert_eq!(faulted.3.events.len(), 1);
        assert_eq!(faulted.3.recoveries(), 0, "a delay needs no recovery");
        assert_eq!(params_of(&clean.0), params_of(&faulted.0));
    }
}
