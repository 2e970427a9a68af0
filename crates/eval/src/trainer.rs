//! Training loops for both EDA tasks.
//!
//! Mirrors the paper's controlled setup (Figure 3): the task pipeline is
//! fixed and only the representation model varies — HOGA vs the baselines
//! of `hoga-baselines`. All loops use Adam (§IV-A) and are deterministic in
//! their seed.

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
use hoga_datasets::openabcd::{QorDataset, QorSample, RECIPE_ENCODING_WIDTH};
use hoga_datasets::splits::minibatches;
use hoga_gen::reason::NodeClass;
use hoga_tensor::Matrix;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::fault::TrainError;
use crate::metrics::{accuracy, argmax_rows, mape};

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
// Checkpoint/resume plumbing shared by all training loops
// ---------------------------------------------------------------------------

/// Installs a loaded checkpoint into freshly built training state and
/// returns `(start_epoch, lr_scale)`.
pub(crate) fn restore_from_checkpoint(
    ck: &Checkpoint,
    cfg: &TrainConfig,
    params: &mut ParamSet,
    opt: &mut dyn Optimizer,
) -> Result<(usize, f32), TrainError> {
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

/// Loads `cfg.resume_from` (when set) into `params`/`opt`; returns
/// `(start_epoch, lr_scale)` — `(0, 1.0)` for a fresh run.
pub(crate) fn resume_state(
    cfg: &TrainConfig,
    params: &mut ParamSet,
    opt: &mut dyn Optimizer,
) -> Result<(usize, f32), TrainError> {
    match &cfg.resume_from {
        None => Ok((0, 1.0)),
        Some(path) => {
            let ck = load_checkpoint(path)?;
            restore_from_checkpoint(&ck, cfg, params, opt)
        }
    }
}

/// Applies the scheduled learning rate (scaled by any divergence backoff)
/// at the start of `epoch`. Without a schedule the optimizer keeps its
/// current rate — which after a resume is the restored one.
pub(crate) fn apply_epoch_lr(
    cfg: &TrainConfig,
    opt: &mut dyn Optimizer,
    epoch: usize,
    lr_scale: f32,
) {
    if let Some(s) = &cfg.schedule {
        opt.set_learning_rate(s.lr_at(epoch) * lr_scale);
    }
}

/// Persists an end-of-epoch checkpoint when the config asks for one.
/// Returns whether a checkpoint was written.
pub(crate) fn maybe_checkpoint(
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

/// Wall-clock statistics of a training run. The trainers fill it in as
/// they go; nothing timed here reaches a checkpoint, manifest or job event.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrainStats {
    /// Total optimization time (excludes dataset construction).
    pub train_time: Duration,
    /// Time recording the forward pass and loss on the tape, summed over
    /// steps. With the two phases below it accounts for `train_time` up to
    /// batching, the hop-stack gather and checkpoint writes.
    pub forward_time: Duration,
    /// Time in [`Tape::backward`], summed over steps.
    pub backward_time: Duration,
    /// Time in the optimizer update, summed over steps.
    pub optim_time: Duration,
    /// Final training loss.
    pub final_loss: f32,
    /// Number of optimizer steps taken.
    pub steps: usize,
    /// Number of epoch passes actually executed (resumed runs count only the
    /// epochs run in this process; divergence-recovery retries count each
    /// re-run pass).
    pub epochs_run: usize,
}

impl TrainStats {
    /// Where the steps' time went, as the one line the CLI prints.
    pub fn phases_line(&self) -> String {
        format!(
            "phases: forward {:.1?} backward {:.1?} optim {:.1?} (of {:.1?} training)",
            self.forward_time, self.backward_time, self.optim_time, self.train_time
        )
    }
}

/// Runs `f` and adds its wall time to `phase`, one of [`TrainStats`]'s
/// per-phase sums.
pub(crate) fn timed<T>(phase: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *phase += start.elapsed();
    out
}

/// The tail every single-tape step shares: reads the loss off the tape,
/// backpropagates and applies the update, timing the two phases.
fn finish_step(
    stats: &mut TrainStats,
    mut tape: Tape,
    loss: Var,
    params: &mut ParamSet,
    opt: &mut dyn Optimizer,
) {
    stats.final_loss = tape.value(loss)[(0, 0)];
    let grads = timed(&mut stats.backward_time, || tape.backward(loss));
    timed(&mut stats.optim_time, || opt.step(params, &grads));
    stats.steps += 1;
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
    class_weights(labels, NodeClass::COUNT)
}

fn class_weights(labels: &[usize], num_classes: usize) -> Vec<f32> {
    let mut counts = vec![0usize; num_classes];
    for &l in labels {
        counts[l] += 1;
    }
    let n = labels.len() as f32;
    counts
        .iter()
        .map(|&c| if c == 0 { 1.0 } else { (n / (num_classes as f32 * c as f32)).sqrt().min(4.0) })
        .collect()
}

/// Trains a reasoning model on one labeled graph (the paper trains on the
/// 8-bit multiplier only).
///
/// # Panics
///
/// Panics on any [`TrainError`] (bad `resume_from` checkpoint, unwritable
/// `checkpoint_to` path). Use [`try_train_reasoning`] for typed errors.
pub fn train_reasoning(
    graph: &ReasoningGraph,
    kind: ReasonModelKind,
    cfg: &TrainConfig,
) -> (ReasonModel, TrainStats) {
    // analyze: allow(panic-free-paths) — documented panicking wrapper; fallible callers use try_train_reasoning
    try_train_reasoning(graph, kind, cfg).expect("training failed")
}

/// Fallible [`train_reasoning`]: checkpoint and resume problems surface as
/// [`TrainError`] instead of panicking.
///
/// # Errors
///
/// [`TrainError::Checkpoint`] when `cfg.resume_from` cannot be read or
/// `cfg.checkpoint_to` cannot be written; [`TrainError::CheckpointMismatch`]
/// when a loaded checkpoint belongs to a different run (seed, parameter
/// names/shapes, or optimizer type differ).
pub fn try_train_reasoning(
    graph: &ReasoningGraph,
    kind: ReasonModelKind,
    cfg: &TrainConfig,
) -> Result<(ReasonModel, TrainStats), TrainError> {
    let labels = graph.label_indices();
    let weights = class_weights(&labels, NodeClass::COUNT);
    let n = graph.aig.num_nodes();
    let start = Instant::now();
    let mut stats = TrainStats::default();
    let model = match kind {
        ReasonModelKind::Hoga(aggregator) => {
            let hcfg = HogaConfig::new(graph.features.cols(), cfg.hidden_dim, graph.hops.len() - 1)
                .with_aggregator(aggregator);
            let mut model = HogaModel::new(&hcfg, cfg.seed);
            let cls = NodeClassifier::new(
                &mut model.params,
                cfg.hidden_dim,
                NodeClass::COUNT,
                cfg.seed ^ 0xC,
            );
            let mut opt = Adam::new(cfg.lr);
            let (start_epoch, lr_scale) = resume_state(cfg, &mut model.params, &mut opt)?;
            for epoch in start_epoch..cfg.epochs {
                apply_epoch_lr(cfg, &mut opt, epoch, lr_scale);
                for batch in minibatches(n, cfg.batch_nodes, cfg.seed, epoch as u64) {
                    let stack = hop_stack(&graph.hops, &batch);
                    let batch_labels: Vec<usize> = batch.iter().map(|&i| labels[i]).collect();
                    let mut tape = Tape::new();
                    let loss = timed(&mut stats.forward_time, || {
                        let out = model.forward(&mut tape, &stack, batch.len());
                        let logits = cls.logits(&mut tape, &model.params, out.representations);
                        tape.cross_entropy_weighted(logits, &batch_labels, &weights)
                    });
                    finish_step(&mut stats, tape, loss, &mut model.params, &mut opt);
                }
                stats.epochs_run += 1;
                maybe_checkpoint(cfg, epoch, &model.params, &opt, lr_scale)?;
            }
            ReasonModel::Hoga(Box::new(model), cls)
        }
        ReasonModelKind::Sign => {
            let mut model =
                Sign::new(graph.features.cols(), cfg.hidden_dim, graph.hops.len() - 1, cfg.seed);
            let cls = {
                let mut p = std::mem::take(&mut model.params);
                let cls =
                    NodeClassifier::new(&mut p, cfg.hidden_dim, NodeClass::COUNT, cfg.seed ^ 0xC);
                model.params = p;
                cls
            };
            let mut opt = Adam::new(cfg.lr);
            let (start_epoch, lr_scale) = resume_state(cfg, &mut model.params, &mut opt)?;
            for epoch in start_epoch..cfg.epochs {
                apply_epoch_lr(cfg, &mut opt, epoch, lr_scale);
                for batch in minibatches(n, cfg.batch_nodes, cfg.seed, epoch as u64) {
                    let stack = hop_stack(&graph.hops, &batch);
                    let batch_labels: Vec<usize> = batch.iter().map(|&i| labels[i]).collect();
                    let mut tape = Tape::new();
                    let loss = timed(&mut stats.forward_time, || {
                        let reps = model.forward(&mut tape, &stack, batch.len());
                        let logits = cls.logits(&mut tape, &model.params, reps);
                        tape.cross_entropy_weighted(logits, &batch_labels, &weights)
                    });
                    finish_step(&mut stats, tape, loss, &mut model.params, &mut opt);
                }
                stats.epochs_run += 1;
                maybe_checkpoint(cfg, epoch, &model.params, &opt, lr_scale)?;
            }
            ReasonModel::Sign(Box::new(model), cls)
        }
        ReasonModelKind::Sage | ReasonModelKind::Saint => {
            let mean_adj = Arc::new(hoga_circuit::adjacency::normalized_mean(&graph.aig));
            let mean_adj_t = Arc::new(mean_adj.transpose());
            let undirected = hoga_circuit::adjacency::undirected(&graph.aig);
            let layers = graph.hops.len() - 1; // match receptive field K
            let mut model = GraphSage::new(graph.features.cols(), cfg.hidden_dim, layers, cfg.seed);
            let cls = {
                let mut p = std::mem::take(&mut model.params);
                let cls =
                    NodeClassifier::new(&mut p, cfg.hidden_dim, NodeClass::COUNT, cfg.seed ^ 0xC);
                model.params = p;
                cls
            };
            let mut opt = Adam::new(cfg.lr);
            // Match the hop-based models' optimizer-step budget: they take
            // ceil(n / batch_nodes) steps per epoch, full-graph SAGE takes
            // the same number of (full-batch) steps.
            let steps_per_epoch =
                if cfg.batch_nodes == 0 { 1 } else { n.div_ceil(cfg.batch_nodes) };
            let (start_epoch, lr_scale) = resume_state(cfg, &mut model.params, &mut opt)?;
            for epoch in start_epoch..cfg.epochs {
                apply_epoch_lr(cfg, &mut opt, epoch, lr_scale);
                match kind {
                    ReasonModelKind::Sage => {
                        for _ in 0..steps_per_epoch {
                            let mut tape = Tape::new();
                            let loss = timed(&mut stats.forward_time, || {
                                let reps = model.forward(
                                    &mut tape,
                                    &mean_adj,
                                    &mean_adj_t,
                                    &graph.features,
                                );
                                let logits = cls.logits(&mut tape, &model.params, reps);
                                tape.cross_entropy_weighted(logits, &labels, &weights)
                            });
                            finish_step(&mut stats, tape, loss, &mut model.params, &mut opt);
                        }
                    }
                    ReasonModelKind::Saint => {
                        // One sampled subgraph per step; functionality-severing
                        // by construction (§II-A).
                        for step in 0..steps_per_epoch {
                            let sub = random_walk_sample(
                                &undirected,
                                (cfg.batch_nodes / 8).max(8),
                                4,
                                cfg.seed ^ ((epoch * steps_per_epoch + step) as u64) << 16,
                            );
                            let sub_adj = Arc::new(sub.mean_adj.clone());
                            let sub_adj_t = Arc::new(sub.mean_adj_t.clone());
                            let feats = graph.features.select_rows(&sub.nodes);
                            let sub_labels: Vec<usize> =
                                sub.nodes.iter().map(|&i| labels[i]).collect();
                            let mut tape = Tape::new();
                            let loss = timed(&mut stats.forward_time, || {
                                let reps = model.forward(&mut tape, &sub_adj, &sub_adj_t, &feats);
                                let logits = cls.logits(&mut tape, &model.params, reps);
                                tape.cross_entropy_weighted(logits, &sub_labels, &weights)
                            });
                            finish_step(&mut stats, tape, loss, &mut model.params, &mut opt);
                        }
                    }
                    // analyze: allow(panic-free-paths) — kind is matched exhaustively by the enclosing dispatch
                    _ => unreachable!(),
                }
                stats.epochs_run += 1;
                maybe_checkpoint(cfg, epoch, &model.params, &opt, lr_scale)?;
            }
            ReasonModel::Sage(Box::new(model), cls)
        }
    };
    stats.train_time = start.elapsed();
    Ok((model, stats))
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
    let n = graph.aig.num_nodes();
    match model {
        ReasonModel::Hoga(m, cls) => {
            let mut pred = Vec::with_capacity(n);
            for chunk in (0..n).collect::<Vec<_>>().chunks(4096) {
                let stack = hop_stack(&graph.hops, chunk);
                let mut tape = Tape::new();
                let out = m.forward(&mut tape, &stack, chunk.len());
                let logits = cls.logits(&mut tape, &m.params, out.representations);
                pred.extend(argmax_rows(tape.value(logits)));
            }
            pred
        }
        ReasonModel::Sign(m, cls) => {
            let mut pred = Vec::with_capacity(n);
            for chunk in (0..n).collect::<Vec<_>>().chunks(4096) {
                let stack = hop_stack(&graph.hops, chunk);
                let mut tape = Tape::new();
                let reps = m.forward(&mut tape, &stack, chunk.len());
                let logits = cls.logits(&mut tape, &m.params, reps);
                pred.extend(argmax_rows(tape.value(logits)));
            }
            pred
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
/// precomputed hops, or a checkpoint problem. Use
/// [`try_train_qor_with_target`] for typed errors.
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
/// [`TrainError::InvalidConfig`] when the requested hop count exceeds what
/// the dataset precomputed; [`TrainError::Checkpoint`] /
/// [`TrainError::CheckpointMismatch`] for resume/checkpoint problems as in
/// [`try_train_reasoning`].
pub fn try_train_qor_with_target(
    ds: &QorDataset,
    kind: QorModelKind,
    cfg: &TrainConfig,
    target: QorTarget,
) -> Result<(QorModel, TrainStats), TrainError> {
    let feat_dim = ds.designs[0].features.cols();
    let start = Instant::now();
    let mut stats = TrainStats::default();
    match kind {
        QorModelKind::Hoga { num_hops } => {
            if num_hops + 1 > ds.designs[0].hops.len() {
                return Err(TrainError::InvalidConfig(format!(
                    "requested {} hops but the dataset precomputed only {}",
                    num_hops,
                    ds.designs[0].hops.len() - 1
                )));
            }
            let hcfg = HogaConfig::new(feat_dim, cfg.hidden_dim, num_hops);
            let mut model = HogaModel::new(&hcfg, cfg.seed);
            let reg = GraphRegressor::new(
                &mut model.params,
                cfg.hidden_dim + RECIPE_ENCODING_WIDTH,
                cfg.hidden_dim,
                cfg.seed ^ 0xD,
            );
            let mut opt = Adam::new(cfg.lr);
            let (start_epoch, lr_scale) = resume_state(cfg, &mut model.params, &mut opt)?;
            for epoch in start_epoch..cfg.epochs {
                apply_epoch_lr(cfg, &mut opt, epoch, lr_scale);
                for batch in minibatches(ds.train.len(), cfg.batch_samples, cfg.seed, epoch as u64)
                {
                    let samples: Vec<&QorSample> = batch.iter().map(|&i| &ds.train[i]).collect();
                    let grads =
                        hoga_qor_step(ds, &model, &reg, num_hops, &samples, target, &mut stats);
                    timed(&mut stats.optim_time, || opt.step(&mut model.params, &grads));
                    stats.steps += 1;
                }
                stats.epochs_run += 1;
                maybe_checkpoint(cfg, epoch, &model.params, &opt, lr_scale)?;
            }
            stats.train_time = start.elapsed();
            Ok((QorModel::Hoga(Box::new(model), reg), stats))
        }
        QorModelKind::Gcn { layers } => {
            let mut model = Gcn::new(feat_dim, cfg.hidden_dim, layers, cfg.seed);
            let reg = {
                let mut p = std::mem::take(&mut model.params);
                let reg = GraphRegressor::new(
                    &mut p,
                    cfg.hidden_dim + RECIPE_ENCODING_WIDTH,
                    cfg.hidden_dim,
                    cfg.seed ^ 0xD,
                );
                model.params = p;
                reg
            };
            let mut opt = Adam::new(cfg.lr);
            let (start_epoch, lr_scale) = resume_state(cfg, &mut model.params, &mut opt)?;
            for epoch in start_epoch..cfg.epochs {
                apply_epoch_lr(cfg, &mut opt, epoch, lr_scale);
                for batch in minibatches(ds.train.len(), cfg.batch_samples, cfg.seed, epoch as u64)
                {
                    let samples: Vec<&QorSample> = batch.iter().map(|&i| &ds.train[i]).collect();
                    let grads = gcn_qor_step(ds, &model, &reg, &samples, target, &mut stats);
                    timed(&mut stats.optim_time, || opt.step(&mut model.params, &grads));
                    stats.steps += 1;
                }
                stats.epochs_run += 1;
                maybe_checkpoint(cfg, epoch, &model.params, &opt, lr_scale)?;
            }
            stats.train_time = start.elapsed();
            Ok((QorModel::Gcn(Box::new(model), reg), stats))
        }
    }
}

/// One HOGA QoR step over a sample minibatch: one tape per involved design,
/// gradients summed (identical math to a single joint tape). Leaves the
/// step's loss and its forward/backward time in `stats`.
fn hoga_qor_step(
    ds: &QorDataset,
    model: &HogaModel,
    reg: &GraphRegressor,
    num_hops: usize,
    samples: &[&QorSample],
    target: QorTarget,
    stats: &mut TrainStats,
) -> Gradients {
    let mut by_design: BTreeMap<usize, Vec<&QorSample>> = BTreeMap::new();
    for s in samples {
        by_design.entry(s.design).or_default().push(s);
    }
    let mut total_grads = Gradients::new();
    let mut total_loss = 0.0f32;
    let weight = 1.0 / by_design.len() as f32;
    for (design_idx, group) in by_design {
        let design = &ds.designs[design_idx];
        let stack = hop_stack(&design.hops[..=num_hops], &design.pooled_nodes);
        let mut tape = Tape::new();
        let n = design.pooled_nodes.len();
        // All samples of the group share the node representations; each gets
        // its own recipe vector via identical pooling segments.
        let segments: Vec<(usize, usize)> = group.iter().map(|_| (0, n)).collect();
        let extra =
            Matrix::from_fn(group.len(), RECIPE_ENCODING_WIDTH, |r, c| group[r].recipe_encoding[c]);
        let target_m = Matrix::from_fn(group.len(), 1, |r, _| target.ratio(group[r]));
        let scaled = timed(&mut stats.forward_time, || {
            let reps = model.forward(&mut tape, &stack, n).representations;
            let pred = reg.predict_with_extra(&mut tape, &model.params, reps, segments, &extra);
            let loss = tape.mse_loss(pred, &target_m);
            tape.scale(loss, weight)
        });
        total_loss += tape.value(scaled)[(0, 0)];
        let grads = timed(&mut stats.backward_time, || tape.backward(scaled));
        total_grads.accumulate(&grads);
    }
    stats.final_loss = total_loss;
    total_grads
}

/// One GCN QoR step (full-graph message passing per involved design);
/// `stats` as in [`hoga_qor_step`].
fn gcn_qor_step(
    ds: &QorDataset,
    model: &Gcn,
    reg: &GraphRegressor,
    samples: &[&QorSample],
    target: QorTarget,
    stats: &mut TrainStats,
) -> Gradients {
    let mut by_design: BTreeMap<usize, Vec<&QorSample>> = BTreeMap::new();
    for s in samples {
        by_design.entry(s.design).or_default().push(s);
    }
    let mut total_grads = Gradients::new();
    let mut total_loss = 0.0f32;
    let weight = 1.0 / by_design.len() as f32;
    for (design_idx, group) in by_design {
        let design = &ds.designs[design_idx];
        let mut tape = Tape::new();
        let n = design.aig.num_nodes();
        let segments: Vec<(usize, usize)> = group.iter().map(|_| (0, n)).collect();
        let extra =
            Matrix::from_fn(group.len(), RECIPE_ENCODING_WIDTH, |r, c| group[r].recipe_encoding[c]);
        let target_m = Matrix::from_fn(group.len(), 1, |r, _| target.ratio(group[r]));
        let scaled = timed(&mut stats.forward_time, || {
            let reps = model.forward(&mut tape, &design.adj, &design.features);
            let pred = reg.predict_with_extra(&mut tape, &model.params, reps, segments, &extra);
            let loss = tape.mse_loss(pred, &target_m);
            tape.scale(loss, weight)
        });
        total_loss += tape.value(scaled)[(0, 0)];
        let grads = timed(&mut stats.backward_time, || tape.backward(scaled));
        total_grads.accumulate(&grads);
    }
    stats.final_loss = total_loss;
    total_grads
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
    let mut by_design: BTreeMap<usize, Vec<&QorSample>> = BTreeMap::new();
    for s in samples {
        by_design.entry(s.design).or_default().push(s);
    }
    let mut out = Vec::new();
    for (design_idx, group) in by_design {
        let design = &ds.designs[design_idx];
        let extra =
            Matrix::from_fn(group.len(), RECIPE_ENCODING_WIDTH, |r, c| group[r].recipe_encoding[c]);
        let pred_ratios: Matrix = match model {
            QorModel::Hoga(m, reg) => {
                let num_hops = m.config().num_hops;
                let stack = hop_stack(&design.hops[..=num_hops], &design.pooled_nodes);
                let mut tape = Tape::new();
                let o = m.forward(&mut tape, &stack, design.pooled_nodes.len());
                let n = design.pooled_nodes.len();
                let segments: Vec<(usize, usize)> = group.iter().map(|_| (0, n)).collect();
                let pred = reg.predict_with_extra(
                    &mut tape,
                    &m.params,
                    o.representations,
                    segments,
                    &extra,
                );
                tape.value(pred).clone()
            }
            QorModel::Gcn(m, reg) => {
                let mut tape = Tape::new();
                let reps = m.forward(&mut tape, &design.adj, &design.features);
                let n = design.aig.num_nodes();
                let segments: Vec<(usize, usize)> = group.iter().map(|_| (0, n)).collect();
                let pred = reg.predict_with_extra(&mut tape, &m.params, reps, segments, &extra);
                tape.value(pred).clone()
            }
        };
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
    use hoga_datasets::gamora::{build_reasoning_graph, MultiplierKind, ReasoningConfig};

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
}
