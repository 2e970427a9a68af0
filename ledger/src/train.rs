//! `train_reasoning`: the paper's Fig. 5/6 training loop — hop-stack gather,
//! tape forward, backward, Adam — on the 8-bit CSA multiplier the paper
//! trains on (tech-mapped, K = 8, hidden 64, 512-node batches). It reaches
//! the `tensor` kernels through autograd (exact only, forward and backward),
//! where the serve workloads use them tape-free.

use crate::common::{end_to_end, repeat_setup, Args, Measured, Outcome};
use crate::span::Tracer;
use crate::stats::median;
use hoga_autograd::optim::{Adam, Optimizer};
use hoga_autograd::Tape;
use hoga_circuit::{adjacency, features};
use hoga_core::heads::NodeClassifier;
use hoga_core::hopfeat::{hop_features, hop_stack};
use hoga_core::model::{Aggregator, HogaConfig, HogaModel};
use hoga_datasets::gamora::{
    build_reasoning_graph, MultiplierKind, ReasoningConfig, ReasoningGraph,
};
use hoga_datasets::splits::minibatches;
use hoga_eval::trainer::{train_reasoning, ReasonModelKind, TrainConfig};
use hoga_gen::multiplier::csa_multiplier;
use hoga_gen::reason::{label_nodes, NodeClass};
use hoga_gen::techmap::lut_map;
use std::time::Instant;

const WIDTH: usize = 8;
/// Request ids of set-up spans: far above any operation's id, and small
/// enough to survive the trip through a JSON number.
pub const BUILD_IDS: u64 = 1 << 52;
/// One epoch per call, so a 10-second run yields a few dozen samples.
const EPOCHS_PER_CALL: usize = 1;

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        hidden_dim: 64,
        epochs: EPOCHS_PER_CALL,
        lr: 3e-3,
        batch_nodes: 512,
        seed,
        ..TrainConfig::default()
    }
}

const KIND: ReasonModelKind = ReasonModelKind::Hoga(Aggregator::GatedSelfAttention);

/// Graph build plus one warm-up call; returns the graph and the warm-up
/// call's final loss, which every measured call must repeat bit for bit
/// (same seed, same graph).
fn setup(cfg: &TrainConfig) -> (ReasoningGraph, u32) {
    let graph = build_reasoning_graph(MultiplierKind::Csa, WIDTH, &ReasoningConfig::default());
    let (_, stats) = train_reasoning(&graph, KIND, cfg);
    (graph, stats.final_loss.to_bits())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = train_config(args.seed);
    let ((graph, expected_loss), setup_s) = repeat_setup(|| Ok(setup(&cfg)), drop)?;
    let mut outcome = Outcome::default();
    let mut latencies_ms = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        outcome.attempted += 1;
        let (_, stats) = train_reasoning(&graph, KIND, &cfg);
        let loss = stats.final_loss.to_bits();
        if loss != expected_loss || stats.epochs_run != EPOCHS_PER_CALL {
            outcome.failed += 1;
            outcome.error(format!(
                "call {}: final_loss bits {loss:08x} differ from the warm-up call's \
                 {expected_loss:08x}, or {} epochs ran",
                outcome.attempted, stats.epochs_run
            ));
            continue;
        }
        latencies_ms.push(stats.train_time.as_secs_f64() * 1e3 / stats.epochs_run as f64);
    }
    let wall_s = start.elapsed().as_secs_f64();

    let replica = replica_epochs(&graph, &cfg, &mut Tracer::off(), 0);
    outcome.check(expected_loss == replica.final_loss.to_bits(), || {
        format!(
            "replica loop ended at loss bits {:08x}, the product at {expected_loss:08x}",
            replica.final_loss.to_bits()
        )
    });
    end_to_end(&mut outcome, &Measured { setup_s, latencies_ms, wall_s });
    Ok(outcome)
}

struct ReplicaRun {
    final_loss: f32,
    steps: u64,
    tape_len: usize,
}

/// The trainer's class weights (private there): `sqrt(n / (C · count))`
/// capped at 4, 1 for an absent class.
fn class_weights(labels: &[usize]) -> Vec<f32> {
    let mut counts = [0usize; NodeClass::COUNT];
    for &l in labels {
        counts[l] += 1;
    }
    let n = labels.len() as f32;
    counts
        .iter()
        .map(
            |&c| {
                if c == 0 {
                    1.0
                } else {
                    (n / (NodeClass::COUNT as f32 * c as f32)).sqrt().min(4.0)
                }
            },
        )
        .collect()
}

/// `try_train_reasoning`'s HOGA arm rebuilt from the same public calls in
/// the same order, with a span around each stage of a step. The product's
/// final loss checks it bit for bit.
fn replica_epochs(
    graph: &ReasoningGraph,
    cfg: &TrainConfig,
    tracer: &mut Tracer,
    id_base: u64,
) -> ReplicaRun {
    let labels = graph.label_indices();
    let weights = class_weights(&labels);
    let hcfg = HogaConfig::new(graph.features.cols(), cfg.hidden_dim, graph.hops.len() - 1)
        .with_aggregator(Aggregator::GatedSelfAttention);
    let mut model = HogaModel::new(&hcfg, cfg.seed);
    let cls =
        NodeClassifier::new(&mut model.params, cfg.hidden_dim, NodeClass::COUNT, cfg.seed ^ 0xC);
    let mut opt = Adam::new(cfg.lr);
    let mut run = ReplicaRun { final_loss: 0.0, steps: 0, tape_len: 0 };
    for epoch in 0..cfg.epochs {
        for batch in minibatches(graph.aig.num_nodes(), cfg.batch_nodes, cfg.seed, epoch as u64) {
            let id = id_base + run.steps;
            let step = tracer.begin("train.step", None, id);
            let parent = Some(step);
            let stack =
                tracer.time("hoga.hop_stack", parent, id, || hop_stack(&graph.hops, &batch));
            let batch_labels: Vec<usize> = batch.iter().map(|&i| labels[i]).collect();
            let mut tape = Tape::new();
            let loss = tracer.time("hoga.forward", parent, id, || {
                let out = model.forward(&mut tape, &stack, batch.len());
                let logits = cls.logits(&mut tape, &model.params, out.representations);
                tape.cross_entropy_weighted(logits, &batch_labels, &weights)
            });
            run.final_loss = tape.value(loss)[(0, 0)];
            run.tape_len = tape.len();
            let grads = tracer.time("autograd.backward", parent, id, || tape.backward(loss));
            tracer.time("autograd.adam", parent, id, || opt.step(&mut model.params, &grads));
            tracer.end(step);
            run.steps += 1;
        }
    }
    run
}

/// A leaf span whose duration also lands in `sink`, in milliseconds.
pub fn timed_ms<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: Option<usize>,
    id: u64,
    sink: &mut Vec<f64>,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = tracer.time(name, parent, id, f);
    sink.push(start.elapsed().as_secs_f64() * 1e3);
    out
}

/// The set-up's own stages — the calls `build_reasoning_graph` makes — timed
/// over three repetitions; the medians are the `gen.*` and hop-precompute
/// layer metrics that `setup_s` should follow.
pub fn trace_graph_build(width: usize, tracer: &mut Tracer, outcome: &mut Outcome) {
    let config = ReasoningConfig::default();
    let (mut multiplier, mut techmap, mut label, mut hops) = (vec![], vec![], vec![], vec![]);
    for rep in 0..3 {
        let id = BUILD_IDS + rep;
        let root = tracer.begin("datasets.build_reasoning_graph", None, id);
        let parent = Some(root);
        let traced = timed_ms(tracer, "gen.multiplier", parent, id, &mut multiplier, || {
            csa_multiplier(width)
        });
        let aig = timed_ms(tracer, "gen.techmap", parent, id, &mut techmap, || {
            lut_map(&traced.aig, config.lut_k).aig
        });
        timed_ms(tracer, "gen.label", parent, id, &mut label, || label_nodes(&aig, config.label_k));
        // Adjacency and raw features stay in the root's self time.
        let adj = adjacency::normalized_symmetric(&aig);
        let feats = features::node_features(&aig);
        timed_ms(tracer, "hoga.hop_features", parent, id, &mut hops, || {
            hop_features(&adj, &feats, config.num_hops)
        });
        tracer.end(root);
    }
    outcome.set("gen.multiplier_ms", median(&multiplier));
    outcome.set("gen.techmap_ms", median(&techmap));
    outcome.set("gen.label_ms", median(&label));
    outcome.set("hoga.hop_features_ms", median(&hops));
}

pub fn trace(args: &Args) -> Result<(Outcome, Tracer), String> {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new();
    trace_graph_build(WIDTH, &mut tracer, &mut outcome);
    let cfg = train_config(args.seed);
    let (graph, _) = setup(&cfg);

    // Each iteration runs the product's call untraced, then the replica
    // under spans, so both see the same machine state; the replica's stages
    // must add up to the product's own time per step.
    let mut product_step_us = Vec::new();
    let mut tape_len = 0;
    let mut calls = 0u64;
    let mut replica_s = 0.0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        outcome.attempted += 1;
        let (_, stats) = train_reasoning(&graph, KIND, &cfg);
        product_step_us.push(stats.train_time.as_secs_f64() * 1e6 / stats.steps.max(1) as f64);
        let began = Instant::now();
        // Offset the step ids so spans of different calls share none.
        let run = replica_epochs(&graph, &cfg, &mut tracer, calls << 32);
        replica_s += began.elapsed().as_secs_f64();
        tape_len = run.tape_len;
        if run.final_loss.to_bits() != stats.final_loss.to_bits() {
            outcome.failed += 1;
            outcome.error(format!(
                "call {calls}: replica loss bits {:08x}, product {:08x}",
                run.final_loss.to_bits(),
                stats.final_loss.to_bits()
            ));
        }
        calls += 1;
    }
    let product_step_us = median(&product_step_us);
    outcome.traced_s = replica_s;

    let medians = tracer.median_us();
    let med = |name: &str| medians.get(name).copied().unwrap_or(0.0);
    let per_step = tracer.per_request_us();
    let stages = [
        ("hoga.hop_stack", "hoga.hop_stack_us"),
        ("hoga.forward", "hoga.forward_us"),
        ("autograd.backward", "autograd.backward_us"),
        ("autograd.adam", "autograd.adam_us"),
    ];
    let mut staged = 0.0;
    for (span, metric) in stages {
        outcome.set(metric, med(span));
        staged += med(span);
    }
    outcome.set("autograd.tape_len", tape_len as f64);
    // Steps differ in size (the last batch of an epoch is partial), so the
    // residual compares means per step, not medians.
    let mean_us = |span: &str| {
        per_step.get(span).map_or(0.0, |by| by.values().sum::<f64>() / by.len().max(1) as f64)
    };
    let mean_staged: f64 = stages.iter().map(|(span, _)| mean_us(span)).sum();
    let unattributed = product_step_us - mean_staged;
    outcome.set("eval.unattributed_us", unattributed);
    outcome.notes.push(format!(
        "product step {product_step_us:.1} us (mean over an epoch) = replica stages \
         {mean_staged:.1} + unattributed {unattributed:.1} ({:.1} % of the product's step)",
        100.0 * unattributed / product_step_us.max(1e-9)
    ));
    for (span, _) in stages {
        outcome.notes.push(format!(
            "  {span:<20} median {:>10.1} us {:>5.1} % of the staged median",
            med(span),
            100.0 * med(span) / staged.max(1e-9)
        ));
    }
    Ok((outcome, tracer))
}
