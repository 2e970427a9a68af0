//! The training loop for both EDA tasks, and the entry points around it.
//!
//! Mirrors the paper's controlled setup (Figure 3): the task pipeline is
//! fixed and only the representation model varies — HOGA vs the baselines
//! of `hoga-baselines`. Hop-wise learning has no inter-node dependencies
//! (§III), so a training step is a pure function of (parameters, batch)
//! whatever the model, the thread count or the supervisor around it: `fit` is
//! the one epoch loop — resume, schedule, divergence guard, Adam step,
//! checkpoint — and each entry point hands it the one thing that differs,
//! how a batch becomes a loss and its gradients. Every run is deterministic
//! in its seed.

use hoga_autograd::optim::{Adam, LrSchedule, Optimizer};
use hoga_autograd::{
    BlockFold, BlockGrads, Gradients, NodeBlock, Ops, ParamSet, Tape, Var, WeightedCrossEntropy,
};
use hoga_baselines::gcn::Gcn;
use hoga_baselines::sage::GraphSage;
use hoga_baselines::saint::random_walk_sample;
use hoga_baselines::sign::Sign;
use hoga_core::heads::{GraphRegressor, NodeClassifier};
use hoga_core::hopfeat::hop_stack;
use hoga_core::infer::{block_nodes, NoTape, Precision};
use hoga_core::model::{Aggregator, HogaConfig, HogaModel};
use hoga_datasets::gamora::ReasoningGraph;
use hoga_datasets::io::{load_checkpoint, save_checkpoint, Checkpoint, CheckpointError};
use hoga_datasets::openabcd::{QorDataset, QorDesign, QorSample, RECIPE_ENCODING_WIDTH};
use hoga_datasets::splits::minibatches;
use hoga_gen::reason::NodeClass;
use hoga_tensor::recycle::Pool;
use hoga_tensor::{parallel_blocks, Matrix};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::fault::{RecoveryEvent, RecoveryPolicy, TrainError, TrainReport};
use crate::metrics::{accuracy, argmax_rows, mape};
use hoga_jobs::{FaultInjector, FaultKind, JobFaultPlan};

/// Common hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Hidden width `d` (paper: 256; CPU default 64).
    pub hidden_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate (paper: 1e-4; our smaller models tolerate more).
    pub lr: f32,
    /// Node minibatch size for hop-based models.
    pub batch_nodes: usize,
    /// Sample minibatch size for QoR training.
    pub batch_samples: usize,
    /// Master seed.
    pub seed: u64,
    /// Optional per-epoch learning-rate schedule. When set, the schedule's
    /// `lr_at(epoch)` overrides [`TrainConfig::lr`] at the start of every
    /// epoch — including the first epoch after a resume, so a resumed run
    /// trains at the *scheduled* rate for the saved epoch, not the base
    /// rate.
    pub schedule: Option<LrSchedule>,
    /// Resume from this checkpoint file before the first epoch. The
    /// checkpoint must come from a run with the same seed and
    /// architecture; training then continues bitwise-identically to the
    /// uninterrupted run (minibatch order is a pure function of
    /// `(seed, epoch)`).
    pub resume_from: Option<PathBuf>,
    /// Persist an atomic, CRC-checked checkpoint to this path at epoch
    /// boundaries (overwritten in place via write-temp-then-rename).
    pub checkpoint_to: Option<PathBuf>,
    /// Checkpoint every this many epochs (0 is treated as 1). The final
    /// epoch is always checkpointed when [`TrainConfig::checkpoint_to`]
    /// is set.
    pub checkpoint_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 64,
            epochs: 30,
            lr: 1e-3,
            batch_nodes: 512,
            batch_samples: 8,
            seed: 7,
            schedule: None,
            resume_from: None,
            checkpoint_to: None,
            checkpoint_every: 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/resume plumbing
// ---------------------------------------------------------------------------

/// Loads `cfg.resume_from` (when set) into `params`/`opt` after checking it
/// belongs to this run; returns `(start_epoch, lr_scale)` — `(0, 1.0)` for a
/// fresh run.
fn resume_state(
    cfg: &TrainConfig,
    params: &mut ParamSet,
    opt: &mut dyn Optimizer,
) -> Result<(usize, f32), TrainError> {
    let Some(path) = &cfg.resume_from else { return Ok((0, 1.0)) };
    let ck = load_checkpoint(path)?;
    if ck.seed != cfg.seed {
        return Err(TrainError::CheckpointMismatch(format!(
            "checkpoint seed {} != config seed {}",
            ck.seed, cfg.seed
        )));
    }
    if ck.epoch as usize > cfg.epochs {
        return Err(TrainError::CheckpointMismatch(format!(
            "checkpoint is at epoch {} but the config trains only {} epochs",
            ck.epoch, cfg.epochs
        )));
    }
    if ck.params.len() != params.len() {
        return Err(TrainError::CheckpointMismatch(format!(
            "checkpoint holds {} params, model has {}",
            ck.params.len(),
            params.len()
        )));
    }
    for (id, name, value) in ck.params.iter() {
        if params.name(id) != name {
            return Err(TrainError::CheckpointMismatch(format!(
                "param {} is {:?} in the checkpoint but {:?} in the model",
                id.index(),
                name,
                params.name(id)
            )));
        }
        let dst = params.value_mut(id);
        if dst.shape() != value.shape() {
            return Err(TrainError::CheckpointMismatch(format!(
                "param {:?} has shape {:?} in the checkpoint but {:?} in the model",
                name,
                value.shape(),
                dst.shape()
            )));
        }
        *dst = value.clone();
    }
    opt.restore_state(&ck.opt_state).map_err(|e| TrainError::CheckpointMismatch(e.to_string()))?;
    Ok((ck.epoch as usize, ck.lr_scale))
}

/// The learning rate the run *wants* at `epoch`, before any divergence
/// backoff: the schedule's rate when one is configured, the base rate
/// otherwise.
fn base_lr_at(cfg: &TrainConfig, epoch: usize) -> f32 {
    match &cfg.schedule {
        Some(s) => s.lr_at(epoch),
        None => cfg.lr,
    }
}

/// Persists an end-of-epoch checkpoint when the config asks for one.
/// Returns whether a checkpoint was written.
fn maybe_checkpoint(
    cfg: &TrainConfig,
    epoch: usize,
    params: &ParamSet,
    opt: &dyn Optimizer,
    lr_scale: f32,
) -> Result<bool, TrainError> {
    let Some(path) = &cfg.checkpoint_to else { return Ok(false) };
    let next = epoch + 1;
    if !next.is_multiple_of(cfg.checkpoint_every.max(1)) && next != cfg.epochs {
        return Ok(false);
    }
    let ck = Checkpoint {
        epoch: next as u64,
        seed: cfg.seed,
        lr_scale,
        params: params.clone(),
        opt_state: opt.state_bytes(),
    };
    save_checkpoint(path, &ck).map_err(CheckpointError::Io)?;
    Ok(true)
}

/// Wall-clock statistics of a training run. `fit` and the gradient
/// providers fill it in as they go; nothing timed here reaches a
/// checkpoint, manifest or job event.
///
/// Forward and backward are worker time. A model over hop features (HOGA,
/// SIGN) trains on node blocks that run in one parallel region
/// ([`HopwiseTask::step`]): each block's forward and backward are timed on
/// the worker that ran it and summed over every block, so on two workers
/// they can add up to twice the region's wall time, and the reduction
/// after the region, which finishes the parameter gradients, counts as
/// backward.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrainStats {
    /// Total optimization time (excludes dataset construction).
    pub train_time: Duration,
    /// Time recording the forward pass and the loss (or, for a node block,
    /// the loss's gradient) on the tape, summed over steps, blocks and
    /// workers. On one worker, it and the two phases below account for
    /// `train_time` up to batching, the hop-stack gather, the epoch
    /// snapshot and checkpoint writes.
    pub forward_time: Duration,
    /// Time in the tape's backward sweep, summed over steps, blocks and
    /// workers, plus a blocked step's reduction of its blocks' gradients.
    pub backward_time: Duration,
    /// Time in the optimizer update, summed over steps.
    pub optim_time: Duration,
    /// Final training loss.
    pub final_loss: f32,
    /// Number of optimizer steps taken (steps of a rolled-back epoch pass
    /// included).
    pub steps: usize,
    /// Number of epoch passes completed in this process: a resumed run
    /// counts only the epochs it ran itself, a rolled-back pass counts once
    /// it has been re-run to its end.
    pub epochs_run: usize,
    /// Divergence rollbacks the run needed (0 for a run that never saw a
    /// non-finite loss or an exploding gradient).
    pub retries: usize,
}

impl TrainStats {
    /// Where the steps' time went, as the one line the CLI prints; names the
    /// divergence rollbacks when there were any. Forward and backward are
    /// worker time summed over blocks (see [`TrainStats`]), so together
    /// they can exceed the training wall time the line ends on.
    pub fn phases_line(&self) -> String {
        let mut line = format!(
            "phases: forward {:.1?} backward {:.1?} optim {:.1?} (forward and backward summed \
             over blocks and workers; of {:.1?} training)",
            self.forward_time, self.backward_time, self.optim_time, self.train_time
        );
        if self.retries > 0 {
            line.push_str(&format!(", {} divergence rollback(s)", self.retries));
        }
        line
    }

    /// Folds in the stats of the run that continued this one from its
    /// checkpoint: counts and times add up, the final loss is `next`'s.
    pub fn absorb(&mut self, next: &TrainStats) {
        self.train_time += next.train_time;
        self.forward_time += next.forward_time;
        self.backward_time += next.backward_time;
        self.optim_time += next.optim_time;
        self.final_loss = next.final_loss;
        self.steps += next.steps;
        self.epochs_run += next.epochs_run;
        self.retries += next.retries;
    }
}

/// Runs `f` and adds its wall time to `phase`, one of [`TrainStats`]'s
/// per-phase sums.
fn timed<T>(phase: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *phase += start.elapsed();
    out
}

// ---------------------------------------------------------------------------
// The one training loop
// ---------------------------------------------------------------------------

/// What `fit` needs of a model: where its parameters live.
pub(crate) trait Trainable {
    /// The model's parameters (any head registered in the same set).
    fn params(&self) -> &ParamSet;
    /// The parameters, for the optimizer step, resume and rollback.
    fn params_mut(&mut self) -> &mut ParamSet;
}

macro_rules! trainable {
    ($($model:ty),*) => {$(
        impl Trainable for $model {
            fn params(&self) -> &ParamSet {
                &self.params
            }
            fn params_mut(&mut self) -> &mut ParamSet {
                &mut self.params
            }
        }
    )*};
}
trainable!(HogaModel, Sign, GraphSage, Gcn);

/// One optimizer step as a gradient provider sees it.
pub struct Step<'a> {
    /// Epoch of the step.
    pub epoch: usize,
    /// Index of the step within its epoch.
    pub step: usize,
    /// The step's minibatch: indices into whatever `fit` was told to split.
    pub batch: &'a [usize],
    /// The run's statistics; providers add their forward and backward time.
    pub stats: &'a mut TrainStats,
    /// The run's recovery log, for providers that recover on their own.
    pub events: &'a mut Vec<RecoveryEvent>,
    /// The run's armed fault plan.
    pub faults: &'a FaultInjector,
    /// The run's recycled storage: `fit` runs every step in one of its
    /// lists, and a blocked step runs each block in one.
    pub pool: &'a Pool,
}

/// Records `forward` on a fresh tape, reads the loss it returns and
/// backpropagates from it, timing the two phases into `stats`.
pub(crate) fn tape_step(
    stats: &mut TrainStats,
    forward: impl FnOnce(&mut Tape) -> Var,
) -> (f32, Gradients) {
    let mut tape = Tape::new();
    let loss = timed(&mut stats.forward_time, || forward(&mut tape));
    let value = tape.value(loss)[(0, 0)];
    (value, timed(&mut stats.backward_time, || tape.backward(loss)))
}

/// Trains `model` with Adam for `cfg.epochs` epochs of minibatches over
/// `items` indices; `grad` turns a step's batch into its loss and gradients.
/// Every `grad` call runs in one [`Pool`] the run owns (`Step::pool`), so a
/// step is built in the storage the step before it gave back.
///
/// The loop owns everything the trainers share. It resumes from
/// `cfg.resume_from`, sets each epoch's rate to the scheduled (or base)
/// rate times the backoff scale, and checkpoints at epoch boundaries. Every
/// step is guarded: on a non-finite loss, a non-finite gradient norm or a
/// norm above `policy.grad_norm_limit` it restores the in-memory snapshot
/// taken when the epoch began, scales the rate by `policy.lr_backoff` and
/// runs the epoch again — the same batches, since their order is a pure
/// function of `(seed, epoch)`. A `Loss { epoch, step }` site in `plan` makes
/// that step's loss read NaN (each fires once) to exercise that path; its
/// `Step` sites are the gradient provider's to claim.
///
/// # Errors
///
/// [`TrainError::Diverged`] once `policy.max_retries` rollbacks are spent;
/// [`TrainError::Checkpoint`] when `cfg.resume_from` cannot be read or
/// `cfg.checkpoint_to` cannot be written; [`TrainError::CheckpointMismatch`]
/// when a loaded checkpoint belongs to a different run (seed, parameter
/// names/shapes, or optimizer type differ).
pub(crate) fn fit<M: Trainable>(
    model: &mut M,
    cfg: &TrainConfig,
    items: usize,
    batch_size: usize,
    policy: &RecoveryPolicy,
    plan: &JobFaultPlan,
    mut grad: impl FnMut(&M, &mut Step<'_>) -> (f32, Gradients),
) -> Result<(TrainStats, TrainReport), TrainError> {
    let mut opt = Adam::new(cfg.lr);
    let (start_epoch, mut lr_scale) = resume_state(cfg, model.params_mut(), &mut opt)?;
    let faults = FaultInjector::new(plan);
    let pool = Pool::default();
    let mut report = TrainReport {
        resumed_from_epoch: (start_epoch > 0).then_some(start_epoch),
        ..TrainReport::default()
    };
    let mut stats = TrainStats::default();
    let start = Instant::now();
    let mut epoch = start_epoch;
    'training: while epoch < cfg.epochs {
        // The state a divergence inside this epoch rolls back to.
        let snapshot = (model.params().clone(), opt.state_bytes());
        opt.set_learning_rate(base_lr_at(cfg, epoch) * lr_scale);
        for (step, batch) in
            minibatches(items, batch_size, cfg.seed, epoch as u64).iter().enumerate()
        {
            let mut run = Step {
                epoch,
                step,
                batch,
                stats: &mut stats,
                events: &mut report.events,
                faults: &faults,
                pool: &pool,
            };
            let (mut loss, grads) = pool.run(|| grad(model, &mut run));
            if faults.claim_loss(epoch as u64, step as u64).is_some() {
                loss = f32::NAN;
            }
            let norm = grads.global_norm();
            if !loss.is_finite() || !norm.is_finite() || norm > policy.grad_norm_limit {
                if report.retries >= policy.max_retries {
                    return Err(TrainError::Diverged {
                        epoch,
                        retries: report.retries,
                        last_loss: loss,
                    });
                }
                report.retries += 1;
                let lr_before = opt.learning_rate();
                let lr_after = lr_before * policy.lr_backoff;
                lr_scale *= policy.lr_backoff;
                report.events.push(if loss.is_finite() {
                    RecoveryEvent::GradientExplosion { epoch, step, norm, lr_before, lr_after }
                } else {
                    RecoveryEvent::NonFiniteLoss { epoch, step, lr_before, lr_after }
                });
                *model.params_mut() = snapshot.0;
                opt.restore_state(&snapshot.1)
                    .map_err(|e| TrainError::CheckpointMismatch(e.to_string()))?;
                report
                    .events
                    .push(RecoveryEvent::RolledBack { to_epoch: epoch, retry: report.retries });
                continue 'training;
            }
            timed(&mut stats.optim_time, || opt.step(model.params_mut(), &grads));
            stats.final_loss = loss;
            stats.steps += 1;
        }
        if maybe_checkpoint(cfg, epoch, model.params(), &opt, lr_scale)? {
            report.checkpoints_written += 1;
        }
        epoch += 1;
        stats.epochs_run += 1;
    }
    report.final_lr = opt.learning_rate();
    stats.retries = report.retries;
    stats.train_time = start.elapsed();
    Ok((stats, report))
}

// ---------------------------------------------------------------------------
// Functional reasoning (Figure 6)
// ---------------------------------------------------------------------------

/// Model selection for the reasoning task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReasonModelKind {
    /// HOGA with the given aggregator ([`Aggregator::GatedSelfAttention`]
    /// is the paper's model; others are the §III-B ablations).
    Hoga(Aggregator),
    /// SIGN: MLP over hop features.
    Sign,
    /// GraphSAGE trained full-graph (the Gamora baseline).
    Sage,
    /// GraphSAGE trained on GraphSAINT random-walk subgraphs.
    Saint,
}

/// A trained reasoning model.
pub enum ReasonModel {
    /// HOGA + linear classifier.
    Hoga(Box<HogaModel>, NodeClassifier),
    /// SIGN + linear classifier.
    Sign(Box<Sign>, NodeClassifier),
    /// GraphSAGE + linear classifier (used for both Sage and Saint).
    Sage(Box<GraphSage>, NodeClassifier),
}

/// Square-root inverse-frequency class weights
/// `w_c = sqrt(n / (C · count_c))`, capped at 4 — functional classes are
/// heavily imbalanced (plain nodes dominate) and an unweighted loss lets
/// small models collapse to the majority class, while full inverse
/// frequency over-corrects and collapses the majority instead. The square
/// root is the standard middle ground.
pub(crate) fn reasoning_class_weights(labels: &[usize]) -> Vec<f32> {
    let mut counts = [0usize; NodeClass::COUNT];
    for &l in labels {
        counts[l] += 1;
    }
    let n = labels.len() as f32;
    let classes = NodeClass::COUNT as f32;
    counts
        .iter()
        .map(|&c| if c == 0 { 1.0 } else { (n / (classes * c as f32)).sqrt().min(4.0) })
        .collect()
}

/// Registers the node classifier every reasoning trainer puts on top of its
/// model, in the model's own parameter set.
pub(crate) fn with_classifier<M: Trainable>(
    mut model: M,
    cfg: &TrainConfig,
) -> (M, NodeClassifier) {
    let cls =
        NodeClassifier::new(model.params_mut(), cfg.hidden_dim, NodeClass::COUNT, cfg.seed ^ 0xC);
    (model, cls)
}

/// HOGA sized for `graph`, with its node classifier, as every HOGA
/// reasoning trainer builds the pair.
pub(crate) fn reasoning_hoga(
    graph: &ReasoningGraph,
    cfg: &TrainConfig,
    aggregator: Aggregator,
) -> (HogaModel, NodeClassifier) {
    let hcfg = HogaConfig::new(graph.features.cols(), cfg.hidden_dim, graph.hops.len() - 1)
        .with_aggregator(aggregator);
    with_classifier(HogaModel::new(&hcfg, cfg.seed), cfg)
}

/// A model over hop features (HOGA, SIGN): its node representations of a
/// hop stack, recorded on a tape or computed tape-free.
pub trait Hopwise: Sync {
    /// The representations' width `d`; with `K` it sizes the node blocks.
    fn hidden_dim(&self) -> usize;

    /// The `(batch, d)` representations of the `batch` nodes of `stack`.
    fn reps<'m, O: Ops<'m>>(&'m self, ops: &mut O, stack: &Matrix, batch: usize) -> O::Var;
}

impl Hopwise for HogaModel {
    fn hidden_dim(&self) -> usize {
        self.config().hidden_dim
    }

    fn reps<'m, O: Ops<'m>>(&'m self, ops: &mut O, stack: &Matrix, batch: usize) -> O::Var {
        self.forward(ops, stack, batch).representations
    }
}

impl Hopwise for Sign {
    fn hidden_dim(&self) -> usize {
        Sign::hidden_dim(self)
    }

    fn reps<'m, O: Ops<'m>>(&'m self, ops: &mut O, stack: &Matrix, batch: usize) -> O::Var {
        self.forward(ops, stack, batch)
    }
}

/// Trains a reasoning model on one labeled graph (the paper trains on the
/// 8-bit multiplier only).
///
/// # Panics
///
/// Panics on any [`TrainError`] (bad `resume_from` checkpoint, unwritable
/// `checkpoint_to` path, unrecoverable divergence). Use
/// [`try_train_reasoning`] for typed errors.
pub fn train_reasoning(
    graph: &ReasoningGraph,
    kind: ReasonModelKind,
    cfg: &TrainConfig,
) -> (ReasonModel, TrainStats) {
    // analyze: allow(panic-free-paths) — documented panicking wrapper; fallible callers use try_train_reasoning
    try_train_reasoning(graph, kind, cfg).expect("training failed")
}

/// Fallible [`train_reasoning`]: checkpoint, resume and divergence problems
/// surface as [`TrainError`] instead of panicking.
///
/// # Errors
///
/// As `fit`, under the default [`RecoveryPolicy`].
pub fn try_train_reasoning(
    graph: &ReasoningGraph,
    kind: ReasonModelKind,
    cfg: &TrainConfig,
) -> Result<(ReasonModel, TrainStats), TrainError> {
    let (policy, plan) = (RecoveryPolicy::default(), JobFaultPlan::none());
    match kind {
        ReasonModelKind::Hoga(aggregator) => {
            let (mut model, cls) = reasoning_hoga(graph, cfg, aggregator);
            let (stats, _) = fit_hopwise(graph, &mut model, &cls, cfg, &policy, &plan)?;
            Ok((ReasonModel::Hoga(Box::new(model), cls), stats))
        }
        ReasonModelKind::Sign => {
            let (feat_dim, num_hops) = (graph.features.cols(), graph.hops.len() - 1);
            let (mut model, cls) =
                with_classifier(Sign::new(feat_dim, cfg.hidden_dim, num_hops, cfg.seed), cfg);
            let (stats, _) = fit_hopwise(graph, &mut model, &cls, cfg, &policy, &plan)?;
            Ok((ReasonModel::Sign(Box::new(model), cls), stats))
        }
        ReasonModelKind::Sage | ReasonModelKind::Saint => {
            // As many layers as the graph has hops: the same receptive field K.
            let (feat_dim, layers) = (graph.features.cols(), graph.hops.len() - 1);
            let (mut model, cls) =
                with_classifier(GraphSage::new(feat_dim, cfg.hidden_dim, layers, cfg.seed), cfg);
            let sampled = kind == ReasonModelKind::Saint;
            let (stats, _) = fit_sage(graph, &mut model, &cls, sampled, cfg, &policy, &plan)?;
            Ok((ReasonModel::Sage(Box::new(model), cls), stats))
        }
    }
}

/// `fit` for a model over hop features (HOGA, SIGN): every step is
/// [`HopwiseTask::step`], a loop over node blocks.
pub(crate) fn fit_hopwise<M: Trainable + Hopwise>(
    graph: &ReasoningGraph,
    model: &mut M,
    cls: &NodeClassifier,
    cfg: &TrainConfig,
    policy: &RecoveryPolicy,
    plan: &JobFaultPlan,
) -> Result<(TrainStats, TrainReport), TrainError> {
    let labels = graph.label_indices();
    let weights = reasoning_class_weights(&labels);
    fit(model, cfg, graph.aig.num_nodes(), cfg.batch_nodes, policy, plan, |model, step| {
        let task = HopwiseTask {
            model,
            params: model.params(),
            cls,
            hops: &graph.hops,
            labels: &labels,
            class_weights: &weights,
        };
        let out = task.step(step);
        (out.loss, out.grads)
    })
}

/// A model over hop features (HOGA, SIGN) with its node classifier and its
/// graph's data, as the training step sees them.
pub struct HopwiseTask<'a, M> {
    /// The model.
    pub model: &'a M,
    /// Its parameters, the classifier's included.
    pub params: &'a ParamSet,
    /// The node classifier on top of it.
    pub cls: &'a NodeClassifier,
    /// The graph's hop features `X⁽⁰⁾ … X⁽ᴷ⁾`.
    pub hops: &'a [Matrix],
    /// Every node's class label.
    pub labels: &'a [usize],
    /// The loss's class weights.
    pub class_weights: &'a [f32],
}

/// What [`HopwiseTask::step`] hands back.
#[derive(Debug, Clone)]
pub struct BlockedStep {
    /// The batch's class-weighted cross-entropy.
    pub loss: f32,
    /// The batch's parameter gradients.
    pub grads: Gradients,
    /// Parameter gradients the blocks handed back as in-block `aᵀ · dY`
    /// chunk partials (`Matrix::matmul_tn_chunk`), summed over blocks; the
    /// rest came back as rows.
    pub chunk_partials: usize,
}

/// One block's outputs: its gradient parts and its rows' label probabilities.
type BlockOut = (BlockGrads, Matrix);

impl<M: Hopwise> HopwiseTask<'_, M> {
    /// One training step on the nodes `run.batch`, run as a loop over
    /// blocks of [`block_nodes`] nodes in parallel regions of up to
    /// sixteen blocks, each block built in a list of `run.pool`.
    ///
    /// After Eq. 3 nothing couples nodes but the loss: its weight sum,
    /// fixed by the batch's labels before any forward, and the sums over
    /// rows that make the parameter gradients. So each block runs gather,
    /// forward, classifier, the loss's gradient and
    /// [`Tape::backward_block`] back to back on one tape, and after each
    /// region [`BlockFold`] folds its blocks' parts, which
    /// [`WeightedCrossEntropy::loss`] and the fold finish in the
    /// whole-batch order. Loss and gradients are one whole-batch tape's bit
    /// for bit, at any batch and thread count. The blocks' forward and
    /// backward time, summed over workers, and the reduction's time, as
    /// backward, go to `run.stats`.
    ///
    /// A `Step { epoch, step, lane }` fault of `run`'s plan hits block
    /// `lane`, claimed here in block order before the first region (a stall
    /// is logged then, slept in its block). A block that unwound or handed
    /// back non-finite parts is recomputed after its region in block order,
    /// one event each, so a fault costs time, never a bit. Blocks are
    /// scanned only when a fault was claimed or a block unwound; a block
    /// whose own arithmetic went non-finite is left to `fit`'s guard.
    ///
    /// # Panics
    ///
    /// Panics if the batch names a node without a label or hop rows.
    pub fn step(&self, run: &mut Step<'_>) -> BlockedStep {
        let batch_labels: Vec<usize> = run.batch.iter().map(|&i| self.labels[i]).collect();
        let ce = WeightedCrossEntropy::new(&batch_labels, self.class_weights, self.cls.num_classes);
        let seed = Seed::Labels(self.cls, &ce);
        NodeBlocks { model: self.model, params: self.params, hops: self.hops, seed }.step(run)
    }
}

/// Where a block's sweep starts, and the step's loss.
enum Seed<'s> {
    /// The classifier's logits, seeded with the cross-entropy's rows.
    Labels(&'s NodeClassifier, &'s WeightedCrossEntropy<'s>),
    /// The representations, every row seeded with a pooled head's `grad`.
    Pooled { loss: f32, grad: &'s [f32] },
}

/// Blocks per parallel region of a step: a step holds the rows its blocks
/// hand back for at most this many blocks at once. A 512-node reasoning
/// batch at the paper's shapes, sixteen 32-node blocks, is one region.
const WAVE_BLOCKS: usize = 16;

/// [`HopwiseTask::step`]'s blocks, for any [`Seed`].
struct NodeBlocks<'a, M> {
    model: &'a M,
    params: &'a ParamSet,
    hops: &'a [Matrix],
    seed: Seed<'a>,
}

impl<M: Hopwise> NodeBlocks<'_, M> {
    /// [`HopwiseTask::step`].
    fn step(&self, run: &mut Step<'_>) -> BlockedStep {
        let (batch, epoch, step) = (run.batch, run.epoch, run.step);
        let size = block_nodes(self.hops.len(), self.model.hidden_dim());
        let blocks: Vec<NodeBlock> = NodeBlock::cover(batch.len(), size).collect();
        let (e, s) = (epoch as u64, step as u64);
        let mut faults: Vec<Vec<FaultKind>> = Vec::with_capacity(blocks.len());
        for block in 0..blocks.len() {
            faults.push(std::iter::from_fn(|| run.faults.claim_step(e, s, block as u64)).collect());
            for &kind in &faults[block] {
                if let FaultKind::Stall { millis } = kind {
                    run.events.push(RecoveryEvent::BlockDelayed { epoch, step, block, millis });
                }
            }
        }
        let (mut fold, mut label_probs, mut chunk_partials) = (BlockFold::default(), vec![], 0);
        for (wave, wave_faults) in blocks.chunks(WAVE_BLOCKS).zip(faults.chunks(WAVE_BLOCKS)) {
            let work = wave.iter().copied().zip(wave_faults).collect();
            let mut outs = blocked(run, work, |(block, kinds)| {
                for &kind in kinds {
                    if let FaultKind::Stall { millis } = kind {
                        std::thread::sleep(Duration::from_millis(millis));
                    } else if kind == FaultKind::Panic {
                        // analyze: allow(panic-free-paths) — deliberate fault injection; the step catches the unwind and recomputes the block
                        panic!("injected block panic (fault plan)");
                    }
                }
                let ((mut grads, label_probs), times) = self.block(block, batch);
                if kinds.contains(&FaultKind::Corrupt) {
                    grads.scale(f32::NAN);
                }
                ((grads, label_probs), times)
            });
            if wave_faults.iter().any(|kinds| !kinds.is_empty()) || outs.iter().any(Option::is_none)
            {
                self.recover(run, wave, &mut outs);
            }
            reduced(run.stats, outs, |outs| {
                for (grads, probs) in outs {
                    chunk_partials += grads.chunk_partials();
                    fold.push(grads);
                    label_probs.push(probs);
                }
            });
        }
        timed(&mut run.stats.backward_time, || {
            let loss = match self.seed {
                Seed::Labels(_, ce) => {
                    ce.loss(label_probs.iter().flat_map(|probs| probs.as_slice().iter().copied()))
                }
                Seed::Pooled { loss, .. } => loss,
            };
            BlockedStep { loss, grads: fold.finish(), chunk_partials }
        })
    }

    /// Recomputes here, in block order, each block that unwound or handed
    /// back non-finite parts, and logs those it recovers (a block whose own
    /// arithmetic went non-finite is left to `fit`'s guard).
    fn recover(&self, run: &mut Step<'_>, blocks: &[NodeBlock], outs: &mut [Option<BlockOut>]) {
        let finite = |(grads, probs): &BlockOut| grads.is_finite() && probs.is_finite();
        let (epoch, step) = (run.epoch, run.step);
        for (&block, out) in blocks.iter().zip(outs) {
            let event = match out {
                None => RecoveryEvent::BlockPanicked { epoch, step, block: block.index },
                Some(out) if !finite(out) => {
                    RecoveryEvent::BlockCorrupted { epoch, step, block: block.index }
                }
                Some(_) => continue,
            };
            let (fresh, [forward, backward]) = run.pool.run(|| self.block(block, run.batch));
            run.stats.forward_time += forward;
            run.stats.backward_time += backward;
            if out.is_none() || finite(&fresh) {
                run.events.push(event);
            }
            *out = Some(fresh);
        }
    }

    /// One block of a step: its gradient parts and its rows' probabilities
    /// of their labels, and its forward and backward time (the hop-stack
    /// gather is neither).
    fn block(&self, block: NodeBlock, batch: &[usize]) -> (BlockOut, [Duration; 2]) {
        let nodes = block.nodes();
        let stack = hop_stack(self.hops, &batch[nodes.clone()]);
        let start = Instant::now();
        let mut tape = Tape::new();
        let reps = self.model.reps(&mut tape, &stack, nodes.len());
        let (from, seed, label_probs) = match self.seed {
            Seed::Labels(cls, ce) => {
                let logits = cls.logits(&mut tape, self.params, reps);
                let (seed, label_probs) = ce.rows(tape.value(logits), nodes);
                (logits, seed, label_probs)
            }
            Seed::Pooled { grad, .. } => {
                let seed = Matrix::from_fn(nodes.len(), grad.len(), |_, c| grad[c]);
                (reps, seed, Matrix::zeros(0, 0))
            }
        };
        let forward = start.elapsed();
        let start = Instant::now();
        let grads = tape.backward_block(from, seed, block);
        ((grads, label_probs), [forward, start.elapsed()])
    }
}

/// Runs every block in one parallel region, each in a list of `run.pool`
/// and under `catch_unwind` (an unwind cannot take its worker's other
/// blocks down), and hands back their outputs in block order, `None` for one
/// that unwound; their forward and backward time go to `run.stats`, summed.
fn blocked<T: Send, B: Send>(
    run: &mut Step<'_>,
    blocks: Vec<T>,
    block_out: impl Fn(T) -> (B, [Duration; 2]) + Sync,
) -> Vec<Option<B>> {
    let mut outs: Vec<Option<(B, [Duration; 2])>> = blocks.iter().map(|_| None).collect();
    let work = blocks.into_iter().zip(outs.iter_mut()).collect();
    let pool = run.pool;
    parallel_blocks(work, |(block, out)| {
        *out = pool.run(|| catch_unwind(AssertUnwindSafe(|| block_out(block)))).ok();
    });
    let mut phases = |(out, [forward, backward]): (B, [Duration; 2])| {
        run.stats.forward_time += forward;
        run.stats.backward_time += backward;
        out
    };
    outs.into_iter().map(|out| out.map(&mut phases)).collect()
}

/// `reduce` on the blocks' outputs in block order, on the caller, once
/// every block is recovered; its time counts as backward.
fn reduced<B, R>(
    stats: &mut TrainStats,
    outs: Vec<Option<B>>,
    reduce: impl FnOnce(Vec<B>) -> R,
) -> R {
    let outs = outs.into_iter().flatten().collect();
    timed(&mut stats.backward_time, || reduce(outs))
}

/// `fit` for GraphSAGE: a full-graph step, or with `sampled` a GraphSAINT
/// random-walk subgraph per step (functionality-severing by construction,
/// §II-A). Either way an epoch takes as many optimizer steps as the
/// hop-based models' `ceil(n / batch_nodes)`, whose node batches it ignores.
fn fit_sage(
    graph: &ReasoningGraph,
    model: &mut GraphSage,
    cls: &NodeClassifier,
    sampled: bool,
    cfg: &TrainConfig,
    policy: &RecoveryPolicy,
    plan: &JobFaultPlan,
) -> Result<(TrainStats, TrainReport), TrainError> {
    let labels = graph.label_indices();
    let weights = reasoning_class_weights(&labels);
    let n = graph.aig.num_nodes();
    let mean_adj = Arc::new(hoga_circuit::adjacency::normalized_mean(&graph.aig));
    let mean_adj_t = Arc::new(mean_adj.transpose());
    let undirected = sampled.then(|| hoga_circuit::adjacency::undirected(&graph.aig));
    let steps_per_epoch = if cfg.batch_nodes == 0 { 1 } else { n.div_ceil(cfg.batch_nodes) };
    fit(model, cfg, n, cfg.batch_nodes, policy, plan, |model, step| {
        let sub = undirected.as_ref().map(|undirected| {
            let sub = random_walk_sample(
                undirected,
                (cfg.batch_nodes / 8).max(8),
                4,
                cfg.seed ^ ((step.epoch * steps_per_epoch + step.step) as u64) << 16,
            );
            let sub_labels: Vec<usize> = sub.nodes.iter().map(|&i| labels[i]).collect();
            let feats = graph.features.select_rows(&sub.nodes);
            (Arc::new(sub.mean_adj.clone()), Arc::new(sub.mean_adj_t.clone()), feats, sub_labels)
        });
        let (adj, adj_t, feats, step_labels) = match &sub {
            Some((adj, adj_t, feats, sub_labels)) => (adj, adj_t, feats, &sub_labels[..]),
            None => (&mean_adj, &mean_adj_t, &graph.features, &labels[..]),
        };
        tape_step(step.stats, |tape| {
            let reps = model.forward(tape, adj, adj_t, feats);
            let logits = cls.logits(tape, &model.params, reps);
            tape.cross_entropy_weighted(logits, step_labels, &weights)
        })
    })
}

/// Evaluates node-classification accuracy on a graph (full-graph inference;
/// the hop-based models run it on node blocks), tape-free at `Exact`.
pub fn eval_reasoning(model: &ReasonModel, graph: &ReasoningGraph) -> f32 {
    let labels = graph.label_indices();
    let pred = predict_reasoning(model, graph);
    accuracy(&labels, &pred)
}

/// Predicted class index per node.
pub fn predict_reasoning(model: &ReasonModel, graph: &ReasoningGraph) -> Vec<usize> {
    match model {
        ReasonModel::Hoga(m, cls) => predict_hopwise(graph, &**m, cls),
        ReasonModel::Sign(m, cls) => predict_hopwise(graph, &**m, cls),
        ReasonModel::Sage(m, cls) => {
            let mean_adj = Arc::new(hoga_circuit::adjacency::normalized_mean(&graph.aig));
            let mean_adj_t = Arc::new(mean_adj.transpose());
            // In a pool, so each value the holder gives back after its last
            // reader is storage for a later one.
            Pool::default().run(|| {
                let mut ops = NoTape::new();
                let reps = m.forward(&mut ops, &mean_adj, &mean_adj_t, &graph.features);
                let logits = cls.logits(&mut ops, &m.params, reps);
                argmax_rows(ops.value(logits))
            })
        }
    }
}

/// Every node's predicted class under a model over hop features:
/// [`HopwiseTask::step`]'s blocks without the backward. Blocks of
/// [`block_nodes`] nodes run in one parallel region, each in a list of one
/// pool, and each gathers its hop rows, runs forward and classifier on a
/// [`NoTape`] at `Exact` — the training arithmetic — and takes the argmax.
/// Predictions are per node, so neither the blocks nor the thread count
/// can change one.
fn predict_hopwise<M: Trainable + Hopwise>(
    graph: &ReasoningGraph,
    model: &M,
    cls: &NodeClassifier,
) -> Vec<usize> {
    let n = graph.aig.num_nodes();
    let blocks: Vec<NodeBlock> =
        NodeBlock::cover(n, block_nodes(graph.hops.len(), model.hidden_dim())).collect();
    let mut pred = vec![0; n];
    let work = blocks.iter().copied().zip(NodeBlock::runs(&blocks, &mut pred, 1)).collect();
    let pool = Pool::default();
    parallel_blocks(work, |(block, pred)| {
        pool.run(|| {
            let stack = hop_stack(&graph.hops, &block.nodes().collect::<Vec<_>>());
            let mut ops = NoTape::new();
            let reps = model.reps(&mut ops, &stack, pred.len());
            let logits = cls.logits(&mut ops, model.params(), reps);
            pred.copy_from_slice(&argmax_rows(ops.value(logits)));
        });
    });
    pred
}

// ---------------------------------------------------------------------------
// QoR prediction (Table 2 / Figure 4)
// ---------------------------------------------------------------------------

/// Which QoR metric to learn. The paper predicts optimized gate count;
/// depth (delay) is this reproduction's extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QorTarget {
    /// Optimized AND-gate count (the paper's target).
    #[default]
    GateCount,
    /// Optimized circuit depth in AND levels.
    Depth,
}

impl QorTarget {
    fn ratio(self, s: &QorSample) -> f32 {
        match self {
            QorTarget::GateCount => s.ratio(),
            QorTarget::Depth => s.depth_ratio(),
        }
    }

    fn initial(self, s: &QorSample) -> f32 {
        match self {
            QorTarget::GateCount => s.initial_ands as f32,
            QorTarget::Depth => s.initial_depth as f32,
        }
    }

    fn truth(self, s: &QorSample) -> f32 {
        match self {
            QorTarget::GateCount => s.final_ands as f32,
            QorTarget::Depth => s.final_depth as f32,
        }
    }
}

/// Model selection for QoR prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QorModelKind {
    /// The OpenABC-D baseline: a GCN with the given layer count (paper: 5).
    Gcn {
        /// Message-passing depth.
        layers: usize,
    },
    /// HOGA with the given hop count (2 and 5 in Table 2).
    Hoga {
        /// Number of hops `K`.
        num_hops: usize,
    },
}

/// A trained QoR model.
pub enum QorModel {
    /// GCN + pooled regressor.
    Gcn(Box<Gcn>, GraphRegressor),
    /// HOGA + pooled regressor.
    Hoga(Box<HogaModel>, GraphRegressor),
}

/// Trains a QoR model on the dataset's training split for the paper's
/// gate-count target. See [`train_qor_with_target`] for depth prediction.
///
/// # Panics
///
/// Panics if a HOGA hop count exceeds the dataset's precomputed hops.
pub fn train_qor(ds: &QorDataset, kind: QorModelKind, cfg: &TrainConfig) -> (QorModel, TrainStats) {
    train_qor_with_target(ds, kind, cfg, QorTarget::GateCount)
}

/// Trains a QoR model for an explicit [`QorTarget`].
///
/// # Panics
///
/// Panics on any [`TrainError`] — a HOGA hop count exceeding the dataset's
/// precomputed hops, an empty dataset, a checkpoint problem, unrecoverable
/// divergence. Use [`try_train_qor_with_target`] for typed errors.
pub fn train_qor_with_target(
    ds: &QorDataset,
    kind: QorModelKind,
    cfg: &TrainConfig,
    target: QorTarget,
) -> (QorModel, TrainStats) {
    // analyze: allow(panic-free-paths) — documented panicking wrapper; fallible callers use try_train_qor_with_target
    try_train_qor_with_target(ds, kind, cfg, target).expect("training failed")
}

/// Fallible [`train_qor_with_target`].
///
/// # Errors
///
/// [`TrainError::InvalidConfig`] when the dataset has no designs or no
/// training samples, or the requested hop count exceeds what the dataset
/// precomputed; otherwise as `fit`, under the default [`RecoveryPolicy`].
pub fn try_train_qor_with_target(
    ds: &QorDataset,
    kind: QorModelKind,
    cfg: &TrainConfig,
    target: QorTarget,
) -> Result<(QorModel, TrainStats), TrainError> {
    let Some(first) = ds.designs.first() else {
        return Err(TrainError::InvalidConfig("the dataset has no designs".into()));
    };
    let feat_dim = first.features.cols();
    let (policy, plan) = (RecoveryPolicy::default(), JobFaultPlan::none());
    match kind {
        QorModelKind::Hoga { num_hops } => {
            if num_hops + 1 > first.hops.len() {
                return Err(TrainError::InvalidConfig(format!(
                    "requested {} hops but the dataset precomputed only {}",
                    num_hops,
                    first.hops.len().saturating_sub(1)
                )));
            }
            let hcfg = HogaConfig::new(feat_dim, cfg.hidden_dim, num_hops);
            let mut model = HogaModel::new(&hcfg, cfg.seed);
            let (reg, stats, _) =
                fit_qor(ds, &mut model, cfg, target, &policy, &plan, |m, run, head| {
                    let out = head.hoga_step(m, run);
                    (out.loss, out.grads)
                })?;
            Ok((QorModel::Hoga(Box::new(model), reg), stats))
        }
        QorModelKind::Gcn { layers } => {
            let mut model = Gcn::new(feat_dim, cfg.hidden_dim, layers, cfg.seed);
            let (reg, stats, _) = fit_qor(ds, &mut model, cfg, target, &policy, &plan, gcn_step)?;
            Ok((QorModel::Gcn(Box::new(model), reg), stats))
        }
    }
}

/// `samples` grouped by the design they were run on, in design order.
fn group_by_design<'a>(
    samples: impl IntoIterator<Item = &'a QorSample>,
) -> BTreeMap<usize, Vec<&'a QorSample>> {
    let mut by_design: BTreeMap<usize, Vec<&QorSample>> = BTreeMap::new();
    for s in samples {
        by_design.entry(s.design).or_default().push(s);
    }
    by_design
}

/// `fit` for a QoR model: registers the pooled regressor on `model` and
/// trains both on minibatches of training samples. A step groups its
/// samples by design, in design order, and sums `design_step`'s loss and
/// gradients over the designs' [`DesignHead`]s.
fn fit_qor<M: Trainable>(
    ds: &QorDataset,
    model: &mut M,
    cfg: &TrainConfig,
    target: QorTarget,
    policy: &RecoveryPolicy,
    plan: &JobFaultPlan,
    design_step: impl Fn(&M, &mut Step<'_>, &DesignHead<'_>) -> (f32, Gradients),
) -> Result<(GraphRegressor, TrainStats, TrainReport), TrainError> {
    if ds.train.is_empty() {
        return Err(TrainError::InvalidConfig("the dataset's training split is empty".into()));
    }
    let reg = GraphRegressor::new(
        model.params_mut(),
        cfg.hidden_dim + RECIPE_ENCODING_WIDTH,
        cfg.hidden_dim,
        cfg.seed ^ 0xD,
    );
    let (stats, report) =
        fit(model, cfg, ds.train.len(), cfg.batch_samples, policy, plan, |model, step| {
            let by_design = group_by_design(step.batch.iter().map(|&i| &ds.train[i]));
            let weight = 1.0 / by_design.len() as f32;
            let mut total_loss = 0.0f32;
            let mut total_grads = Gradients::new();
            for (design_idx, group) in by_design {
                let design = &ds.designs[design_idx];
                let target = Matrix::from_fn(group.len(), 1, |r, _| target.ratio(group[r]));
                let extra = recipe_rows(&group);
                let head = DesignHead { reg: &reg, design, extra, target, weight };
                let (loss, grads) = design_step(model, step, &head);
                total_loss += loss;
                total_grads.accumulate(&grads);
            }
            (total_loss, total_grads)
        })?;
    Ok((reg, stats, report))
}

/// The encoded recipes of `group`, one row per sample.
fn recipe_rows(group: &[&QorSample]) -> Matrix {
    Matrix::from_fn(group.len(), RECIPE_ENCODING_WIDTH, |r, c| group[r].recipe_encoding[c])
}

/// One design's share of a QoR step: its samples' recipes and targets.
pub struct DesignHead<'a> {
    /// The pooled regressor.
    pub reg: &'a GraphRegressor,
    /// The design.
    pub design: &'a QorDesign,
    /// The encoded recipe of each sample.
    pub extra: Matrix,
    /// Their target ratios, one column.
    pub target: Matrix,
    /// The weight of their loss in the step's.
    pub weight: f32,
}

impl DesignHead<'_> {
    /// The weighted loss over the design's `n` node representations: each
    /// sample pools every node (one `(0, n)` segment each).
    fn record(&self, tape: &mut Tape, params: &ParamSet, reps: Var, n: usize) -> Var {
        let segments = vec![(0, n); self.extra.rows()];
        let pred = self.reg.predict_with_extra(tape, params, reps, segments, &self.extra);
        let loss = tape.mse_loss(pred, &self.target);
        tape.scale(loss, self.weight)
    }

    /// HOGA's share, over the design's pooled nodes (every node by default)
    /// with no tape larger than one node block. Pass one runs the forward
    /// tape-free at `Exact` in the model's blocks (the tape's bits) and
    /// records the head alone over those rows; [`Tape::backward_to`] hands
    /// back the gradient that reaches them, one row summed over the samples
    /// in a whole-design tape's order. Pass two is [`HopwiseTask::step`]'s
    /// blocks, every row seeded with that row. Loss and gradients are the
    /// whole-design tape's bit for bit. The blocks take `run`'s epoch, step,
    /// statistics and events, not its batch, and claim no `Step` fault site.
    pub fn hoga_step(&self, model: &HogaModel, run: &mut Step<'_>) -> BlockedStep {
        let batch = &self.design.pooled_nodes;
        let reps = timed(&mut run.stats.forward_time, || design_reps(model, self.design, batch));
        let n = reps.rows();
        let mut tape = Tape::new();
        let reps = tape.constant(reps);
        let loss =
            timed(&mut run.stats.forward_time, || self.record(&mut tape, &model.params, reps, n));
        let loss_value = tape.value(loss)[(0, 0)];
        let (head_grads, grad) =
            timed(&mut run.stats.backward_time, || tape.backward_to(loss, reps));
        let seed = Seed::Pooled { loss: loss_value, grad: grad.row(0) };
        let hops = &self.design.hops[..=model.config().num_hops];
        let blocks = NodeBlocks { model, params: &model.params, hops, seed };
        let faults = &FaultInjector::new(&JobFaultPlan::none());
        let (epoch, step, stats, events) = (run.epoch, run.step, &mut *run.stats, &mut *run.events);
        let pool = run.pool;
        let mut out = blocks.step(&mut Step { epoch, step, batch, stats, events, faults, pool });
        out.grads.accumulate(&head_grads);
        out
    }
}

/// GCN's share of a QoR step: one tape over the whole design (full-graph
/// message passing, the paper's baseline).
fn gcn_step(model: &Gcn, run: &mut Step<'_>, head: &DesignHead<'_>) -> (f32, Gradients) {
    tape_step(run.stats, |tape| {
        let reps = model.forward(tape, &head.design.adj, &head.design.features);
        head.record(tape, &model.params, reps, head.design.aig.num_nodes())
    })
}

/// The representations of `nodes` of `design` under HOGA, tape-free at
/// `Exact` in the model's node blocks: the tape's bits.
fn design_reps(model: &HogaModel, design: &QorDesign, nodes: &[usize]) -> Matrix {
    let stack = hop_stack(&design.hops[..=model.config().num_hops], nodes);
    let out = model.try_infer(&stack, nodes.len(), Precision::Exact);
    // analyze: allow(panic-free-paths) — the stack is cut from the design's own hops at the model's hop count, so its shape is the model's
    out.expect("a design's hop stack fits the model trained on it").representations
}

/// Per-design evaluation record: `(design name, truths, predictions)` in
/// gate counts (used for both Table 2 MAPE and the Figure 4 scatter).
#[derive(Debug, Clone)]
pub struct QorEval {
    /// Design name.
    pub name: String,
    /// Ground-truth optimized gate counts.
    pub truth: Vec<f32>,
    /// Predicted optimized gate counts.
    pub pred: Vec<f32>,
}

impl QorEval {
    /// MAPE over this design's samples.
    pub fn mape(&self) -> f32 {
        mape(&self.truth, &self.pred)
    }
}

/// Evaluates a QoR model over the dataset's test designs (or train designs
/// with `use_train = true`), grouped per design.
pub fn eval_qor(ds: &QorDataset, model: &QorModel, use_train: bool) -> Vec<QorEval> {
    eval_qor_with_target(ds, model, use_train, QorTarget::GateCount)
}

/// Evaluates a QoR model for an explicit [`QorTarget`], tape-free at
/// `Exact`: each design's representations of every node, `fit_qor`'s
/// forward without the tape, are pooled once and scored against each
/// sample's recipe by [`GraphRegressor::score`], as serving scores a
/// circuit, so a prediction is the served ratio and, unless
/// `nodes_per_graph` samples the training mean, the training arithmetic's.
pub fn eval_qor_with_target(
    ds: &QorDataset,
    model: &QorModel,
    use_train: bool,
    target: QorTarget,
) -> Vec<QorEval> {
    let samples = if use_train { &ds.train } else { &ds.test };
    let mut out = Vec::new();
    // The GCN's whole-design forwards run in one pool, as the HOGA blocks
    // run in the model's.
    let pool = Pool::default();
    for (design_idx, group) in group_by_design(samples) {
        let design = &ds.designs[design_idx];
        let (reps, reg, params) = match model {
            QorModel::Hoga(m, reg) => {
                let every_node: Vec<usize> = (0..design.aig.num_nodes()).collect();
                (design_reps(m, design, &every_node), reg, &m.params)
            }
            QorModel::Gcn(m, reg) => {
                let reps = pool.run(|| {
                    let mut ops = NoTape::new();
                    let reps = m.forward(&mut ops, &design.adj, &design.features);
                    ops.value(reps).clone()
                });
                (reps, reg, &m.params)
            }
        };
        let scored = reg.score(params, &reps, &recipe_rows(&group));
        // analyze: allow(panic-free-paths) — the trainer built the head for the model's width plus the recipe encoding
        let pred_ratios = scored.expect("the head takes the model's pooled width");
        let truth: Vec<f32> = group.iter().map(|s| target.truth(s)).collect();
        let pred: Vec<f32> = group
            .iter()
            .enumerate()
            .map(|(i, s)| pred_ratios[(i, 0)].clamp(0.0, 1.5) * target.initial(s))
            .collect();
        out.push(QorEval { name: design.spec.name.to_string(), truth, pred });
    }
    out
}

/// Average MAPE across designs (the paper's "Average" column).
pub fn average_mape(evals: &[QorEval]) -> f32 {
    if evals.is_empty() {
        return 0.0;
    }
    evals.iter().map(QorEval::mape).sum::<f32>() / evals.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::nan_loss;
    use hoga_datasets::gamora::{build_reasoning_graph, MultiplierKind, ReasoningConfig};
    use hoga_datasets::openabcd::{build_qor_dataset, QorDatasetConfig};

    fn tiny_cfg() -> TrainConfig {
        TrainConfig {
            hidden_dim: 16,
            epochs: 4,
            lr: 3e-3,
            batch_nodes: 128,
            batch_samples: 4,
            seed: 5,
            ..TrainConfig::default()
        }
    }

    fn tiny_graph() -> ReasoningGraph {
        build_reasoning_graph(
            MultiplierKind::Csa,
            4,
            &ReasoningConfig { tech_map: false, lut_k: 4, num_hops: 4, label_k: 3 },
        )
    }

    #[test]
    fn hoga_reasoning_beats_majority_class_on_train_graph() {
        let g = tiny_graph();
        let mut cfg = tiny_cfg();
        cfg.epochs = 30;
        let (model, stats) =
            train_reasoning(&g, ReasonModelKind::Hoga(Aggregator::GatedSelfAttention), &cfg);
        assert!(stats.steps > 0);
        let acc = eval_reasoning(&model, &g);
        // Majority-class (plain) baseline on this graph:
        let labels = g.label_indices();
        let plain = labels.iter().filter(|&&l| l == 3).count() as f32 / labels.len() as f32;
        assert!(acc > plain, "accuracy {acc} <= majority baseline {plain}");
    }

    #[test]
    fn all_reasoning_models_train_and_eval() {
        let g = tiny_graph();
        let cfg = tiny_cfg();
        for kind in [
            ReasonModelKind::Hoga(Aggregator::GatedSelfAttention),
            ReasonModelKind::Hoga(Aggregator::Sum),
            ReasonModelKind::Sign,
            ReasonModelKind::Sage,
            ReasonModelKind::Saint,
        ] {
            let (model, _) = train_reasoning(&g, kind, &cfg);
            let acc = eval_reasoning(&model, &g);
            assert!((0.0..=1.0).contains(&acc), "{kind:?}: bad accuracy {acc}");
        }
    }

    #[test]
    fn predictions_are_the_whole_batch_tapes_argmax_at_every_thread_count() {
        // 1 632 nodes: 51 blocks of 32, the last partial, against one
        // whole-batch tape over every node.
        let g = build_reasoning_graph(MultiplierKind::Csa, 8, &ReasoningConfig::default());
        let cfg = TrainConfig { epochs: 1, ..tiny_cfg() };
        let nodes: Vec<usize> = (0..g.aig.num_nodes()).collect();
        let stack = hop_stack(&g.hops, &nodes);
        for kind in [ReasonModelKind::Hoga(Aggregator::GatedSelfAttention), ReasonModelKind::Sign] {
            let (model, _) = train_reasoning(&g, kind, &cfg);
            let mut tape = Tape::new();
            let logits = match &model {
                ReasonModel::Hoga(m, cls) => {
                    let reps = m.reps(&mut tape, &stack, nodes.len());
                    cls.logits(&mut tape, &m.params, reps)
                }
                ReasonModel::Sign(m, cls) => {
                    let reps = m.reps(&mut tape, &stack, nodes.len());
                    cls.logits(&mut tape, &m.params, reps)
                }
                ReasonModel::Sage(..) => unreachable!("not a hop-based kind"),
            };
            let whole = argmax_rows(tape.value(logits));
            for threads in [1, 2, 3] {
                let got = hoga_tensor::with_threads(threads, || predict_reasoning(&model, &g));
                assert_eq!(got, whole, "{kind:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn qor_models_train_and_eval_on_tiny_dataset() {
        let ds = crate::testutil::tiny_qor_dataset();
        if ds.train.is_empty() || ds.test.is_empty() {
            // Tiny config may filter out all test designs on some scale.
            return;
        }
        let cfg = tiny_cfg();
        for kind in [QorModelKind::Hoga { num_hops: 2 }, QorModelKind::Gcn { layers: 2 }] {
            let (model, stats) = train_qor(ds, kind, &cfg);
            assert!(stats.steps > 0);
            let evals = eval_qor(ds, &model, false);
            assert!(!evals.is_empty());
            for e in &evals {
                assert_eq!(e.truth.len(), e.pred.len());
                assert!(e.mape().is_finite());
            }
            let avg = average_mape(&evals);
            assert!(avg >= 0.0);
        }
    }

    #[test]
    fn depth_target_trains_and_evaluates() {
        let ds = crate::testutil::tiny_qor_dataset();
        if ds.train.is_empty() || ds.test.is_empty() {
            return;
        }
        let cfg = tiny_cfg();
        let (model, stats) =
            train_qor_with_target(ds, QorModelKind::Hoga { num_hops: 2 }, &cfg, QorTarget::Depth);
        assert!(stats.final_loss.is_finite());
        let evals = eval_qor_with_target(ds, &model, false, QorTarget::Depth);
        assert!(!evals.is_empty());
        for e in &evals {
            assert!(e.truth.iter().all(|&t| t >= 0.0), "depths are non-negative");
            assert!(e.mape().is_finite());
        }
        // Depth labels genuinely differ from gate-count labels.
        let gc = eval_qor(ds, &model, false);
        assert_ne!(gc[0].truth, evals[0].truth);
    }

    #[test]
    fn hoga_qor_training_reduces_loss() {
        let ds = crate::testutil::tiny_qor_dataset();
        if ds.train.len() < 4 {
            return;
        }
        let mut cfg = tiny_cfg();
        cfg.epochs = 1;
        let (_, stats1) = train_qor(ds, QorModelKind::Hoga { num_hops: 2 }, &cfg);
        cfg.epochs = 12;
        let (_, stats2) = train_qor(ds, QorModelKind::Hoga { num_hops: 2 }, &cfg);
        assert!(
            stats2.final_loss <= stats1.final_loss * 1.5,
            "loss diverged: {} -> {}",
            stats1.final_loss,
            stats2.final_loss
        );
    }
    #[test]
    fn qor_training_rejects_an_empty_design_list_and_an_empty_training_split() {
        let tiny =
            QorDatasetConfig { recipes_per_design: 1, recipe_len: 2, ..QorDatasetConfig::tiny() };
        let mut ds = build_qor_dataset(&tiny);
        ds.train.clear();
        let kinds = [QorModelKind::Hoga { num_hops: 2 }, QorModelKind::Gcn { layers: 2 }];
        for kind in kinds {
            match try_train_qor_with_target(&ds, kind, &tiny_cfg(), QorTarget::GateCount) {
                Err(TrainError::InvalidConfig(why)) => assert!(why.contains("training split")),
                other => panic!("{kind:?}: expected InvalidConfig, got {:?}", other.map(|_| ())),
            }
        }
        ds.designs.clear();
        for kind in kinds {
            match try_train_qor_with_target(&ds, kind, &tiny_cfg(), QorTarget::GateCount) {
                Err(TrainError::InvalidConfig(why)) => assert!(why.contains("no designs")),
                other => panic!("{kind:?}: expected InvalidConfig, got {:?}", other.map(|_| ())),
            }
        }
    }

    type GuardedRun = Result<(TrainStats, TrainReport, ParamSet), TrainError>;

    /// The divergence guard's contract for one trainer, given as
    /// `run(cfg, policy, plan)`: an injected NaN loss rolls back parameters
    /// *and* Adam moments, the backoff sticks, the run completes; a run that
    /// keeps diverging gives up after `max_retries`.
    fn assert_guarded(run: impl Fn(&TrainConfig, &RecoveryPolicy, &JobFaultPlan) -> GuardedRun) {
        let cfg = tiny_cfg();
        let policy = RecoveryPolicy::default();
        let flat = |p: &ParamSet| -> Vec<u32> {
            p.iter().flat_map(|(_, _, m)| m.as_slice().iter().map(|v| v.to_bits())).collect()
        };

        // A NaN at the very first step: the finished run must be the clean
        // run that started at the backed-off rate.
        let plan = nan_loss(0, 0);
        let (stats, report, params) = run(&cfg, &policy, &plan).expect("survives the NaN");
        assert_eq!((stats.retries, report.retries), (1, 1));
        assert_eq!(stats.epochs_run, cfg.epochs);
        assert!(stats.final_loss.is_finite());
        assert!(matches!(report.events[0], RecoveryEvent::NonFiniteLoss { epoch: 0, step: 0, .. }));
        assert!(matches!(report.events[1], RecoveryEvent::RolledBack { to_epoch: 0, retry: 1 }));
        assert_eq!(report.final_lr, cfg.lr * policy.lr_backoff);
        let halved = TrainConfig { lr: cfg.lr * policy.lr_backoff, ..cfg.clone() };
        let (clean_stats, clean_report, clean_params) =
            run(&halved, &policy, &JobFaultPlan::none()).expect("clean run");
        assert!(clean_report.events.is_empty());
        assert_eq!(clean_stats.retries, 0);
        assert_eq!(flat(&params), flat(&clean_params), "rollback must restore params and moments");
        assert_eq!(stats.final_loss.to_bits(), clean_stats.final_loss.to_bits());

        // Mid-run: the rollback goes to the start of the faulted epoch.
        let plan = nan_loss(2, 0);
        let (stats, report, params) = run(&cfg, &policy, &plan).expect("survives the NaN");
        assert!(matches!(report.events[1], RecoveryEvent::RolledBack { to_epoch: 2, retry: 1 }));
        assert_eq!(stats.epochs_run, cfg.epochs);
        assert!(flat(&params).iter().all(|&b| f32::from_bits(b).is_finite()));

        // An impossible gradient-norm limit diverges every step.
        let strict = RecoveryPolicy { max_retries: 2, grad_norm_limit: 1e-12, ..policy };
        match run(&cfg, &strict, &JobFaultPlan::none()) {
            Err(TrainError::Diverged { epoch: 0, retries: 2, last_loss }) => {
                assert!(last_loss.is_finite(), "the norm exploded, not the loss");
            }
            other => panic!("expected Diverged, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn sign_sage_and_saint_are_guarded() {
        let g = tiny_graph();
        let (feat_dim, hops) = (g.features.cols(), g.hops.len() - 1);
        assert_guarded(|cfg, policy, plan| {
            let (mut model, cls) =
                with_classifier(Sign::new(feat_dim, cfg.hidden_dim, hops, cfg.seed), cfg);
            let (stats, report) = fit_hopwise(&g, &mut model, &cls, cfg, policy, plan)?;
            Ok((stats, report, model.params))
        });
        for sampled in [false, true] {
            assert_guarded(|cfg, policy, plan| {
                let (mut model, cls) =
                    with_classifier(GraphSage::new(feat_dim, cfg.hidden_dim, hops, cfg.seed), cfg);
                let (stats, report) = fit_sage(&g, &mut model, &cls, sampled, cfg, policy, plan)?;
                Ok((stats, report, model.params))
            });
        }
    }

    #[test]
    fn qor_hoga_and_gcn_are_guarded() {
        let ds = crate::testutil::tiny_qor_dataset();
        assert!(!ds.train.is_empty());
        let feat_dim = ds.designs[0].features.cols();
        let target = QorTarget::GateCount;
        assert_guarded(|cfg, policy, plan| {
            let mut model = HogaModel::new(&HogaConfig::new(feat_dim, cfg.hidden_dim, 2), cfg.seed);
            let (_, stats, report) =
                fit_qor(ds, &mut model, cfg, target, policy, plan, |m, run, head| {
                    let out = head.hoga_step(m, run);
                    (out.loss, out.grads)
                })?;
            Ok((stats, report, model.params))
        });
        assert_guarded(|cfg, policy, plan| {
            let mut model = Gcn::new(feat_dim, cfg.hidden_dim, 2, cfg.seed);
            let (_, stats, report) = fit_qor(ds, &mut model, cfg, target, policy, plan, gcn_step)?;
            Ok((stats, report, model.params))
        });
    }

    #[test]
    fn blocked_steps_report_both_phases_and_count_the_reduction_as_backward() {
        let (mut stats, mut events) = (TrainStats::default(), vec![]);
        let (forward, backward) = (Duration::from_millis(2), Duration::from_millis(3));
        let reduction = Duration::from_millis(20);
        let mut run = Step {
            epoch: 0,
            step: 0,
            batch: &[],
            stats: &mut stats,
            events: &mut events,
            faults: &FaultInjector::new(&JobFaultPlan::none()),
            pool: &Pool::default(),
        };
        let block = |i: u32| {
            assert!(i != 3, "block {i} unwinds");
            (i, [forward, backward])
        };
        let outs = hoga_tensor::with_threads(2, || blocked(&mut run, (1..=4).collect(), block));
        assert_eq!(outs, [Some(1), Some(2), None, Some(4)], "the unwind took no other block down");
        assert_eq!(stats.forward_time, forward * 3, "the blocks' forward, summed over workers");
        assert_eq!(stats.backward_time, backward * 3);
        let reduce = |outs: Vec<u32>| {
            std::thread::sleep(reduction);
            outs.iter().sum::<u32>()
        };
        assert_eq!(reduced(&mut stats, outs, reduce), 7, "every output reaches the reduction");
        let least = backward * 3 + reduction;
        assert!(stats.backward_time >= least, "the reduction is backward: {stats:?}");

        let cfg = TrainConfig { epochs: 1, ..tiny_cfg() };
        for kind in [ReasonModelKind::Hoga(Aggregator::GatedSelfAttention), ReasonModelKind::Sign] {
            let (_, stats) = train_reasoning(&tiny_graph(), kind, &cfg);
            let both = stats.forward_time > Duration::ZERO && stats.backward_time > Duration::ZERO;
            assert!(both, "{kind:?}: {}", stats.phases_line());
        }
    }

    #[test]
    fn fit_builds_every_step_in_the_storage_the_step_before_gave_back() {
        let cfg = TrainConfig { epochs: 3, ..tiny_cfg() };
        let mut model = Sign::new(4, cfg.hidden_dim, 2, cfg.seed);
        let (policy, plan) = (RecoveryPolicy::default(), JobFaultPlan::none());
        let (mut given_back, mut decoys) = (None, vec![]);
        let (stats, _) = fit(&mut model, &cfg, 4, 1, &policy, &plan, |_, _| {
            let m = Matrix::zeros(64, 64);
            let at = m.as_slice().as_ptr();
            if let Some(before) = given_back {
                assert_eq!(at, before, "a step's storage went to the allocator");
            }
            given_back = Some(at);
            hoga_tensor::recycle::give_back(m);
            // Storage the allocator got back would be taken here.
            decoys.push(vec![1.0f32; 64 * 64]);
            (1.0, Gradients::new())
        })
        .expect("nothing diverges");
        assert_eq!(stats.steps, 12);
    }

    #[test]
    fn staged_stats_add_up() {
        let stage = |steps, loss| TrainStats {
            train_time: Duration::from_millis(10),
            forward_time: Duration::from_millis(4),
            backward_time: Duration::from_millis(5),
            optim_time: Duration::from_millis(1),
            final_loss: loss,
            steps,
            epochs_run: 1,
            retries: 1,
        };
        let mut total = TrainStats::default();
        total.absorb(&stage(3, 0.5));
        total.absorb(&stage(2, 0.25));
        assert_eq!(
            total,
            TrainStats {
                train_time: Duration::from_millis(20),
                forward_time: Duration::from_millis(8),
                backward_time: Duration::from_millis(10),
                optim_time: Duration::from_millis(2),
                final_loss: 0.25,
                steps: 5,
                epochs_run: 2,
                retries: 2,
            }
        );
        assert!(total.phases_line().ends_with("2 divergence rollback(s)"));
        assert!(!TrainStats::default().phases_line().contains("rollback"));
    }
}
