//! The training loop for both EDA tasks, and the entry points around it.
//!
//! Mirrors the paper's controlled setup (Figure 3): the task pipeline is
//! fixed and only the representation model varies — HOGA vs the baselines
//! of `hoga-baselines`. Hop-wise learning has no inter-node dependencies
//! (§III), so a training step is a pure function of (parameters, batch)
//! whatever the model, the sharding or the supervisor around it: [`fit`] is
//! the one epoch loop — resume, schedule, divergence guard, Adam step,
//! checkpoint — and each entry point hands it the one thing that differs,
//! how a batch becomes a loss and its gradients. Every run is deterministic
//! in its seed.

use hoga_autograd::optim::{Adam, LrSchedule, Optimizer};
use hoga_autograd::{Gradients, ParamSet, Tape, Var};
use hoga_baselines::gcn::Gcn;
use hoga_baselines::sage::GraphSage;
use hoga_baselines::saint::random_walk_sample;
use hoga_baselines::sign::Sign;
use hoga_core::heads::{GraphRegressor, NodeClassifier};
use hoga_core::hopfeat::hop_stack;
use hoga_core::model::{Aggregator, HogaConfig, HogaModel};
use hoga_datasets::gamora::ReasoningGraph;
use hoga_datasets::io::{load_checkpoint, save_checkpoint, Checkpoint, CheckpointError};
use hoga_datasets::openabcd::{QorDataset, QorDesign, QorSample, RECIPE_ENCODING_WIDTH};
use hoga_datasets::splits::minibatches;
use hoga_gen::reason::NodeClass;
use hoga_tensor::Matrix;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::fault::{RecoveryEvent, RecoveryPolicy, TrainError, TrainReport};
use crate::metrics::{accuracy, argmax_rows, mape};
use hoga_jobs::{FaultInjector, JobFaultPlan};

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

/// Wall-clock statistics of a training run. [`fit`] and the gradient
/// providers fill it in as they go; nothing timed here reaches a
/// checkpoint, manifest or job event.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrainStats {
    /// Total optimization time (excludes dataset construction).
    pub train_time: Duration,
    /// Time recording the forward pass and loss on the tape, summed over
    /// steps. With the two phases below it accounts for `train_time` up to
    /// batching, the node minibatch's hop-stack gather, the epoch snapshot
    /// and checkpoint writes.
    pub forward_time: Duration,
    /// Time in [`Tape::backward`], summed over steps.
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
    /// divergence rollbacks when there were any.
    pub fn phases_line(&self) -> String {
        let mut line = format!(
            "phases: forward {:.1?} backward {:.1?} optim {:.1?} (of {:.1?} training)",
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

/// What [`fit`] needs of a model: where its parameters live.
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
pub(crate) struct Step<'a> {
    /// Epoch of the step.
    pub epoch: usize,
    /// Index of the step within its epoch.
    pub step: usize,
    /// The step's minibatch: indices into whatever [`fit`] was told to split.
    pub batch: &'a [usize],
    /// The run's statistics; providers add their forward and backward time.
    pub stats: &'a mut TrainStats,
    /// The run's recovery log, for providers that recover on their own.
    pub events: &'a mut Vec<RecoveryEvent>,
    /// The run's armed fault plan.
    pub faults: &'a FaultInjector,
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
            let (mut loss, grads) = grad(
                model,
                &mut Step {
                    epoch,
                    step,
                    batch,
                    stats: &mut stats,
                    events: &mut report.events,
                    faults: &faults,
                },
            );
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

/// HOGA's node representations of a hop stack.
pub(crate) fn hoga_reps(model: &HogaModel, tape: &mut Tape, stack: &Matrix, batch: usize) -> Var {
    model.forward(tape, stack, batch).representations
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
/// As [`fit`], under the default [`RecoveryPolicy`].
pub fn try_train_reasoning(
    graph: &ReasoningGraph,
    kind: ReasonModelKind,
    cfg: &TrainConfig,
) -> Result<(ReasonModel, TrainStats), TrainError> {
    let (policy, plan) = (RecoveryPolicy::default(), JobFaultPlan::none());
    match kind {
        ReasonModelKind::Hoga(aggregator) => {
            let (mut model, cls) = reasoning_hoga(graph, cfg, aggregator);
            let (stats, _) = fit_hopwise(graph, &mut model, &cls, hoga_reps, cfg, &policy, &plan)?;
            Ok((ReasonModel::Hoga(Box::new(model), cls), stats))
        }
        ReasonModelKind::Sign => {
            let (feat_dim, num_hops) = (graph.features.cols(), graph.hops.len() - 1);
            let (mut model, cls) =
                with_classifier(Sign::new(feat_dim, cfg.hidden_dim, num_hops, cfg.seed), cfg);
            let (stats, _) =
                fit_hopwise(graph, &mut model, &cls, Sign::forward, cfg, &policy, &plan)?;
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

/// [`fit`] for a model over hop features (HOGA, SIGN): one tape per step
/// over the node minibatch's hop stack.
pub(crate) fn fit_hopwise<M: Trainable>(
    graph: &ReasoningGraph,
    model: &mut M,
    cls: &NodeClassifier,
    forward: impl Fn(&M, &mut Tape, &Matrix, usize) -> Var,
    cfg: &TrainConfig,
    policy: &RecoveryPolicy,
    plan: &JobFaultPlan,
) -> Result<(TrainStats, TrainReport), TrainError> {
    let labels = graph.label_indices();
    let weights = reasoning_class_weights(&labels);
    fit(model, cfg, graph.aig.num_nodes(), cfg.batch_nodes, policy, plan, |model, step| {
        let stack = hop_stack(&graph.hops, step.batch);
        let batch_labels: Vec<usize> = step.batch.iter().map(|&i| labels[i]).collect();
        tape_step(step.stats, |tape| {
            let reps = forward(model, tape, &stack, step.batch.len());
            let logits = cls.logits(tape, model.params(), reps);
            tape.cross_entropy_weighted(logits, &batch_labels, &weights)
        })
    })
}

/// [`fit`] for GraphSAGE: a full-graph step, or with `sampled` a GraphSAINT
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

/// Evaluates node-classification accuracy on a graph (full-graph inference,
/// chunked for the hop-based models to bound memory).
pub fn eval_reasoning(model: &ReasonModel, graph: &ReasoningGraph) -> f32 {
    let labels = graph.label_indices();
    let pred = predict_reasoning(model, graph);
    accuracy(&labels, &pred)
}

/// Predicted class index per node.
pub fn predict_reasoning(model: &ReasonModel, graph: &ReasoningGraph) -> Vec<usize> {
    match model {
        ReasonModel::Hoga(m, cls) => {
            predict_hopwise(graph, &**m, cls, hoga_reps, PREDICT_CHUNK_NODES)
        }
        ReasonModel::Sign(m, cls) => {
            predict_hopwise(graph, &**m, cls, Sign::forward, PREDICT_CHUNK_NODES)
        }
        ReasonModel::Sage(m, cls) => {
            let mean_adj = Arc::new(hoga_circuit::adjacency::normalized_mean(&graph.aig));
            let mean_adj_t = Arc::new(mean_adj.transpose());
            let mut tape = Tape::new();
            let reps = m.forward(&mut tape, &mean_adj, &mean_adj_t, &graph.features);
            let logits = cls.logits(&mut tape, &m.params, reps);
            argmax_rows(tape.value(logits))
        }
    }
}

/// Nodes per evaluation tape of the hop-based models: the training step's
/// default node count, so that evaluating between or after epochs builds
/// its tapes in the buffers the step left on the thread
/// (`hoga_tensor::recycle`) instead of founding — and then retaining — a
/// size class eight times larger. Predictions are per node, so the chunk
/// size cannot change them.
const PREDICT_CHUNK_NODES: usize = 512;

fn predict_hopwise<M: Trainable>(
    graph: &ReasoningGraph,
    model: &M,
    cls: &NodeClassifier,
    forward: impl Fn(&M, &mut Tape, &Matrix, usize) -> Var,
    chunk_nodes: usize,
) -> Vec<usize> {
    let nodes: Vec<usize> = (0..graph.aig.num_nodes()).collect();
    let mut pred = Vec::with_capacity(nodes.len());
    for chunk in nodes.chunks(chunk_nodes) {
        let stack = hop_stack(&graph.hops, chunk);
        let mut tape = Tape::new();
        let reps = forward(model, &mut tape, &stack, chunk.len());
        let logits = cls.logits(&mut tape, model.params(), reps);
        pred.extend(argmax_rows(tape.value(logits)));
    }
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
/// precomputed; otherwise as [`fit`], under the default [`RecoveryPolicy`].
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
                fit_qor(ds, &mut model, hoga_design_reps, cfg, target, &policy, &plan)?;
            Ok((QorModel::Hoga(Box::new(model), reg), stats))
        }
        QorModelKind::Gcn { layers } => {
            let mut model = Gcn::new(feat_dim, cfg.hidden_dim, layers, cfg.seed);
            let (reg, stats, _) =
                fit_qor(ds, &mut model, gcn_design_reps, cfg, target, &policy, &plan)?;
            Ok((QorModel::Gcn(Box::new(model), reg), stats))
        }
    }
}

/// HOGA's representations of a design's pooled nodes, and how many there
/// are.
fn hoga_design_reps(model: &HogaModel, tape: &mut Tape, design: &QorDesign) -> (Var, usize) {
    let n = design.pooled_nodes.len();
    let stack = hop_stack(&design.hops[..=model.config().num_hops], &design.pooled_nodes);
    (hoga_reps(model, tape, &stack, n), n)
}

/// GCN's representations of all of a design's nodes (full-graph message
/// passing), and how many there are.
fn gcn_design_reps(model: &Gcn, tape: &mut Tape, design: &QorDesign) -> (Var, usize) {
    (model.forward(tape, &design.adj, &design.features), design.aig.num_nodes())
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

/// Records the predicted ratio of every sample in `group`, all of them
/// recipes run on `design`, as one column.
fn predict_group<M: Trainable>(
    tape: &mut Tape,
    model: &M,
    reg: &GraphRegressor,
    design_reps: impl Fn(&M, &mut Tape, &QorDesign) -> (Var, usize),
    design: &QorDesign,
    group: &[&QorSample],
) -> Var {
    let (reps, n) = design_reps(model, tape, design);
    // All samples of the group share the node representations; each gets
    // its own recipe vector via identical pooling segments.
    let segments: Vec<(usize, usize)> = group.iter().map(|_| (0, n)).collect();
    let extra =
        Matrix::from_fn(group.len(), RECIPE_ENCODING_WIDTH, |r, c| group[r].recipe_encoding[c]);
    reg.predict_with_extra(tape, model.params(), reps, segments, &extra)
}

/// [`fit`] for a QoR model: registers the pooled regressor on `model` and
/// trains both on minibatches of training samples — one tape per involved
/// design, gradients summed (identical math to a single joint tape).
fn fit_qor<M: Trainable>(
    ds: &QorDataset,
    model: &mut M,
    design_reps: impl Fn(&M, &mut Tape, &QorDesign) -> (Var, usize),
    cfg: &TrainConfig,
    target: QorTarget,
    policy: &RecoveryPolicy,
    plan: &JobFaultPlan,
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
                let target_m = Matrix::from_fn(group.len(), 1, |r, _| target.ratio(group[r]));
                let (loss, grads) = tape_step(step.stats, |tape| {
                    let pred = predict_group(tape, model, &reg, &design_reps, design, &group);
                    let loss = tape.mse_loss(pred, &target_m);
                    tape.scale(loss, weight)
                });
                total_loss += loss;
                total_grads.accumulate(&grads);
            }
            (total_loss, total_grads)
        })?;
    Ok((reg, stats, report))
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

/// Evaluates a QoR model for an explicit [`QorTarget`].
pub fn eval_qor_with_target(
    ds: &QorDataset,
    model: &QorModel,
    use_train: bool,
    target: QorTarget,
) -> Vec<QorEval> {
    let samples = if use_train { &ds.train } else { &ds.test };
    let mut out = Vec::new();
    for (design_idx, group) in group_by_design(samples) {
        let design = &ds.designs[design_idx];
        let mut tape = Tape::new();
        let pred = match model {
            QorModel::Hoga(m, reg) => {
                predict_group(&mut tape, &**m, reg, hoga_design_reps, design, &group)
            }
            QorModel::Gcn(m, reg) => {
                predict_group(&mut tape, &**m, reg, gcn_design_reps, design, &group)
            }
        };
        let pred_ratios = tape.value(pred);
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
    fn predictions_do_not_depend_on_the_evaluation_chunk() {
        // 1 632 nodes: one 4 096-node chunk (what evaluation used to build)
        // against four chunks of the training step's size, the last partial.
        let g = build_reasoning_graph(MultiplierKind::Csa, 8, &ReasoningConfig::default());
        assert!(g.aig.num_nodes() > 3 * PREDICT_CHUNK_NODES);
        let cfg = TrainConfig { epochs: 1, ..tiny_cfg() };
        for kind in [ReasonModelKind::Hoga(Aggregator::GatedSelfAttention), ReasonModelKind::Sign] {
            let (model, _) = train_reasoning(&g, kind, &cfg);
            let predict = |chunk_nodes| match &model {
                ReasonModel::Hoga(m, cls) => predict_hopwise(&g, &**m, cls, hoga_reps, chunk_nodes),
                ReasonModel::Sign(m, cls) => {
                    predict_hopwise(&g, &**m, cls, Sign::forward, chunk_nodes)
                }
                ReasonModel::Sage(..) => unreachable!("not a hop-based kind"),
            };
            let whole = predict(4096);
            assert_eq!(whole.len(), g.aig.num_nodes());
            assert_eq!(whole, predict(PREDICT_CHUNK_NODES), "{kind:?}");
            assert_eq!(whole, predict_reasoning(&model, &g), "{kind:?}");
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
            let (stats, report) =
                fit_hopwise(&g, &mut model, &cls, Sign::forward, cfg, policy, plan)?;
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
        assert_guarded(|cfg, policy, plan| {
            let mut model = HogaModel::new(&HogaConfig::new(feat_dim, cfg.hidden_dim, 2), cfg.seed);
            let target = QorTarget::GateCount;
            let (_, stats, report) =
                fit_qor(ds, &mut model, hoga_design_reps, cfg, target, policy, plan)?;
            Ok((stats, report, model.params))
        });
        assert_guarded(|cfg, policy, plan| {
            let mut model = Gcn::new(feat_dim, cfg.hidden_dim, 2, cfg.seed);
            let target = QorTarget::GateCount;
            let (_, stats, report) =
                fit_qor(ds, &mut model, gcn_design_reps, cfg, target, policy, plan)?;
            Ok((stats, report, model.params))
        });
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
