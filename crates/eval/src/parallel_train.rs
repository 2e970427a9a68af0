//! Thread-based data-parallel HOGA training (Figure 5), with a
//! fault-tolerant supervisor.
//!
//! The paper trains HOGA with PyTorch `DistributedDataParallel` on up to
//! 4 GPUs and observes near-linear speedup, *because* hop-wise learning has
//! no inter-node dependencies. We reproduce the same scaling law with OS
//! threads: every worker computes gradients on a shard of the node
//! minibatch against a shared read-only parameter snapshot; gradients are
//! summed (all-reduce) and handed to the one training loop of
//! [`crate::trainer`], which applies a single Adam step. The math is
//! bitwise-identical to single-worker training up to floating-point
//! reassociation.
//!
//! The supervisor makes the all-reduce crash-safe: a worker that panics or
//! returns a non-finite gradient shard does not kill the run — the
//! supervisor catches the unwind at `join`, recomputes the lost shard
//! in-place, and accumulates in the original shard order, so the resulting
//! gradient is *bitwise-identical* to the fault-free run. Faults can be
//! injected deterministically at a [`JobFaultPlan`]'s
//! `Step { epoch, step, worker }` sites to test exactly that.

use hoga_autograd::Gradients;
use hoga_core::heads::NodeClassifier;
use hoga_core::hopfeat::hop_stack;
use hoga_core::model::{Aggregator, HogaModel};
use hoga_datasets::gamora::ReasoningGraph;
use hoga_datasets::splits::shard_ranges;
use hoga_jobs::{FaultKind, JobFaultPlan};
use std::time::Duration;

use crate::fault::{gradients_finite, RecoveryEvent, RecoveryPolicy, TrainError, TrainReport};
use crate::trainer::{
    fit, hoga_reps, reasoning_class_weights, reasoning_hoga, tape_step, Step, TrainConfig,
    TrainStats,
};

/// Result of a (possibly multi-worker) training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelRunStats {
    /// Worker count used.
    pub workers: usize,
    /// The run's statistics. Forward and backward time add up every
    /// shard's, so they are worker time (constant across worker counts when
    /// work is conserved) while `train_time` is wall time.
    pub train: TrainStats,
}

/// What every shard of a step reads: the graph, the shared parameter
/// snapshot and the class-weighted labels.
#[derive(Clone, Copy)]
pub(crate) struct ShardTask<'a> {
    pub graph: &'a ReasoningGraph,
    pub model: &'a HogaModel,
    pub cls: &'a NodeClassifier,
    pub labels: &'a [usize],
    pub weights: &'a [f32],
}

impl ShardTask<'_> {
    /// `nodes`' share of the minibatch's total sample weight. With a
    /// class-weighted loss, shards combine by that share, not by node
    /// count — this keeps the all-reduced gradient identical to the
    /// single-worker full-batch gradient.
    pub(crate) fn share(&self, nodes: &[usize], batch: &[usize]) -> f32 {
        let weight_of =
            |nodes: &[usize]| nodes.iter().map(|&i| self.weights[self.labels[i]]).sum::<f32>();
        weight_of(nodes) / weight_of(batch).max(1e-12)
    }

    /// Forward + backward over one shard of a node minibatch, its loss
    /// scaled by the shard's `share`. Used both by the spawned workers and
    /// by the supervisor when it recomputes a shard lost to a panic or
    /// corruption.
    pub(crate) fn grad(
        &self,
        nodes: &[usize],
        share: f32,
        stats: &mut TrainStats,
    ) -> (f32, Gradients) {
        let stack = hop_stack(&self.graph.hops, nodes);
        let node_labels: Vec<usize> = nodes.iter().map(|&i| self.labels[i]).collect();
        tape_step(stats, |tape| {
            let reps = hoga_reps(self.model, tape, &stack, nodes.len());
            let logits = self.cls.logits(tape, &self.model.params, reps);
            let loss = tape.cross_entropy_weighted(logits, &node_labels, self.weights);
            tape.scale(loss, share)
        })
    }
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
/// [`TrainError::NoWorkers`] when `workers == 0`; otherwise as
/// [`crate::trainer::try_train_reasoning`].
pub fn train_reasoning_parallel(
    graph: &ReasoningGraph,
    cfg: &TrainConfig,
    workers: usize,
) -> Result<(HogaModel, NodeClassifier, ParallelRunStats), TrainError> {
    let (model, cls, stats, _) =
        train_reasoning_parallel_supervised(graph, cfg, workers, &JobFaultPlan::none())?;
    Ok((model, cls, stats))
}

/// [`train_reasoning_parallel`] with deterministic fault injection and a
/// [`TrainReport`] of every recovery the supervisor performed.
///
/// The injected worker faults (and any organic worker failures) never
/// change the result: a panicked worker's shard and a corrupted
/// (non-finite) gradient shard are both recomputed by the supervisor in the
/// original accumulation order, so the trained model is bitwise-identical
/// to the fault-free run at the same worker count. Delayed workers only
/// cost wall-clock time.
///
/// # Errors
///
/// [`TrainError::NoWorkers`] when `workers == 0`; otherwise as
/// [`crate::trainer::try_train_reasoning`].
pub fn train_reasoning_parallel_supervised(
    graph: &ReasoningGraph,
    cfg: &TrainConfig,
    workers: usize,
    plan: &JobFaultPlan,
) -> Result<(HogaModel, NodeClassifier, ParallelRunStats, TrainReport), TrainError> {
    if workers == 0 {
        return Err(TrainError::NoWorkers);
    }
    let labels = graph.label_indices();
    let weights = reasoning_class_weights(&labels);
    let (mut model, cls) = reasoning_hoga(graph, cfg, Aggregator::GatedSelfAttention);
    let policy = RecoveryPolicy::default();
    let (train, report) =
        fit(&mut model, cfg, labels.len(), cfg.batch_nodes, &policy, plan, |model, run| {
            let task = ShardTask { graph, model, cls: &cls, labels: &labels, weights: &weights };
            all_reduce(task, workers, run)
        })?;
    Ok((model, cls, ParallelRunStats { workers, train }, report))
}

/// One data-parallel step: a scoped worker per non-empty shard of the
/// minibatch, joined and summed in shard order.
fn all_reduce(task: ShardTask<'_>, workers: usize, run: &mut Step<'_>) -> (f32, Gradients) {
    let (epoch, step, batch) = (run.epoch, run.step, run.batch);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for (worker, &(lo, hi)) in shard_ranges(batch.len(), workers).iter().enumerate() {
            if lo == hi {
                continue;
            }
            let nodes = &batch[lo..hi];
            let share = task.share(nodes, batch);
            // Claim injected faults on the supervisor thread at spawn time
            // so the claim order is deterministic.
            let (mut delay_ms, mut inject_panic, mut inject_corrupt) = (0u64, false, false);
            while let Some(kind) = run.faults.claim_step(epoch as u64, step as u64, worker as u64) {
                match kind {
                    FaultKind::Stall { millis } => {
                        delay_ms = millis;
                        run.events.push(RecoveryEvent::WorkerDelayed {
                            epoch,
                            step,
                            worker,
                            millis,
                        });
                    }
                    FaultKind::Panic => inject_panic = true,
                    FaultKind::Corrupt => inject_corrupt = true,
                }
            }
            let handle = s.spawn(move || {
                if delay_ms > 0 {
                    std::thread::sleep(Duration::from_millis(delay_ms));
                }
                if inject_panic {
                    // analyze: allow(panic-free-paths) — deliberate fault injection for resilience tests
                    panic!("injected worker panic (fault plan)");
                }
                let mut spent = TrainStats::default();
                // Each shard's kernels run on its own worker, so speedup comes
                // from parallelism across nodes, not oversubscription — and no
                // other thread of the process is pinned along with it.
                let (loss, mut grads) =
                    hoga_tensor::inline_kernels(|| task.grad(nodes, share, &mut spent));
                if inject_corrupt {
                    grads.scale(f32::NAN);
                }
                (loss, grads, spent)
            });
            handles.push((worker, handle, nodes, share));
        }
        let mut total = Gradients::new();
        let mut loss_sum = 0.0f32;
        // Every handle is joined here, so the scope has no panic left to
        // re-raise when it ends.
        for (worker, handle, nodes, share) in handles {
            let (loss, grads) = match handle.join() {
                Ok((loss, grads, spent)) if loss.is_finite() && gradients_finite(&grads) => {
                    run.stats.forward_time += spent.forward_time;
                    run.stats.backward_time += spent.backward_time;
                    (loss, grads)
                }
                // The finiteness check caught a corrupted shard, or the
                // worker unwound: the supervisor recomputes the shard from
                // the shared snapshot, preserving accumulation order.
                lost => {
                    run.events.push(match lost {
                        Ok(_) => RecoveryEvent::ShardCorrupted { epoch, step, worker },
                        Err(_) => RecoveryEvent::WorkerPanicked { epoch, step, worker },
                    });
                    task.grad(nodes, share, run.stats)
                }
            };
            loss_sum += loss;
            total.accumulate(&grads);
        }
        (loss_sum, total)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{eval_reasoning, ReasonModel};
    use hoga_datasets::gamora::{build_reasoning_graph, MultiplierKind, ReasoningConfig};
    use hoga_jobs::FaultSite;

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
        assert!(stats.train.final_loss.is_finite());
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
        assert_eq!(
            s1.train.final_loss, s2.train.final_loss,
            "single-worker run must be deterministic"
        );
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
            (a.train.final_loss - b.train.final_loss).abs() < 1e-3,
            "losses diverged: {} vs {}",
            a.train.final_loss,
            b.train.final_loss
        );
    }

    #[test]
    fn corrupted_shard_is_recomputed_bitwise_identically() {
        let g = tiny_graph();
        let mut cfg = tiny_cfg();
        cfg.epochs = 2;
        let clean = train_reasoning_parallel_supervised(&g, &cfg, 2, &JobFaultPlan::none())
            .expect("clean run");
        let plan = JobFaultPlan::none()
            .inject(FaultSite::Step { unit: 1, step: 0, lane: 1 }, FaultKind::Corrupt);
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
        assert_eq!(clean.2.train.final_loss, faulted.2.train.final_loss);
    }

    #[test]
    fn delayed_worker_changes_nothing_but_time() {
        let g = tiny_graph();
        let mut cfg = tiny_cfg();
        cfg.epochs = 1;
        let clean = train_reasoning_parallel_supervised(&g, &cfg, 2, &JobFaultPlan::none())
            .expect("clean run");
        let plan = JobFaultPlan::none()
            .inject(FaultSite::Step { unit: 0, step: 0, lane: 0 }, FaultKind::Stall { millis: 10 });
        let faulted = train_reasoning_parallel_supervised(&g, &cfg, 2, &plan).expect("delayed run");
        assert_eq!(faulted.3.events.len(), 1);
        assert_eq!(faulted.3.recoveries(), 0, "a delay needs no recovery");
        assert_eq!(params_of(&clean.0), params_of(&faulted.0));
    }
}
