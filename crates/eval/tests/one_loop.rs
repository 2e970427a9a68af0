//! Every training entry point runs one loop (`trainer::fit`), so comparing
//! two entry points compares that loop with itself. These tests compare it
//! with loops written out by hand from public calls only — model forward,
//! `Tape`, `Adam`, `minibatches` — and demand the same bits: every trained
//! parameter and the final loss. Evaluation records no tape, so its
//! predictions are compared with forwards recorded on one here.

use hoga_autograd::optim::{Adam, LrSchedule, Optimizer};
use hoga_autograd::{Gradients, ParamSet, Tape, Var};
use hoga_baselines::gcn::Gcn;
use hoga_baselines::sign::Sign;
use hoga_circuit::adjacency::normalized_mean;
use hoga_core::heads::{GraphRegressor, NodeClassifier};
use hoga_core::hopfeat::hop_stack;
use hoga_core::model::{Aggregator, HogaConfig, HogaModel};
use hoga_datasets::gamora::{
    build_reasoning_graph, MultiplierKind, ReasoningConfig, ReasoningGraph,
};
use hoga_datasets::openabcd::{
    build_qor_dataset, QorDataset, QorDatasetConfig, QorDesign, QorSample, RECIPE_ENCODING_WIDTH,
};
use hoga_datasets::splits::minibatches;
use hoga_eval::fault::RecoveryPolicy;
use hoga_eval::metrics::argmax_rows;
use hoga_eval::resilient::train_reasoning_resilient;
use hoga_eval::trainer::{
    eval_qor, predict_reasoning, train_qor, train_reasoning, QorModel, QorModelKind, ReasonModel,
    ReasonModelKind, TrainConfig,
};
use hoga_gen::reason::NodeClass;
use hoga_jobs::JobFaultPlan;
use hoga_tensor::{with_threads, Matrix};
use std::collections::BTreeMap;
use std::sync::Arc;

const GATED: ReasonModelKind = ReasonModelKind::Hoga(Aggregator::GatedSelfAttention);

fn graph() -> ReasoningGraph {
    build_reasoning_graph(
        MultiplierKind::Csa,
        4,
        &ReasoningConfig { tech_map: false, lut_k: 4, num_hops: 3, label_k: 3 },
    )
}

fn cfg() -> TrainConfig {
    TrainConfig {
        hidden_dim: 16,
        epochs: 3,
        lr: 3e-3,
        batch_nodes: 64,
        batch_samples: 4,
        seed: 19,
        ..TrainConfig::default()
    }
}

/// What a run ends on: the final loss and every parameter, as bits.
fn bits(final_loss: f32, params: &ParamSet) -> (u32, Vec<u32>) {
    let values =
        params.iter().flat_map(|(_, _, m)| m.as_slice().iter().map(|v| v.to_bits())).collect();
    (final_loss.to_bits(), values)
}

/// `sqrt(n / (C · count))` capped at 4, 1 for an absent class.
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

/// The reasoning loop for a model over hop stacks, by hand: per epoch the
/// scheduled rate, per minibatch one tape, backward, one Adam step.
/// `params` and `forward` say where `M` keeps its parameters and how it
/// encodes a hop stack.
fn reference_hopwise<M>(
    graph: &ReasoningGraph,
    cfg: &TrainConfig,
    mut model: M,
    params: fn(&mut M) -> &mut ParamSet,
    forward: fn(&M, &mut Tape, &Matrix, usize) -> Var,
) -> (u32, Vec<u32>) {
    let labels = graph.label_indices();
    let weights = class_weights(&labels);
    let cls =
        NodeClassifier::new(params(&mut model), cfg.hidden_dim, NodeClass::COUNT, cfg.seed ^ 0xC);
    let mut opt = Adam::new(cfg.lr);
    let mut final_loss = f32::NAN;
    for epoch in 0..cfg.epochs {
        if let Some(schedule) = &cfg.schedule {
            opt.set_learning_rate(schedule.lr_at(epoch));
        }
        for batch in minibatches(graph.aig.num_nodes(), cfg.batch_nodes, cfg.seed, epoch as u64) {
            let stack = hop_stack(&graph.hops, &batch);
            let batch_labels: Vec<usize> = batch.iter().map(|&i| labels[i]).collect();
            let mut tape = Tape::new();
            let reps = forward(&model, &mut tape, &stack, batch.len());
            let logits = cls.logits(&mut tape, params(&mut model), reps);
            let loss = tape.cross_entropy_weighted(logits, &batch_labels, &weights);
            final_loss = tape.value(loss)[(0, 0)];
            let grads = tape.backward(loss);
            opt.step(params(&mut model), &grads);
        }
    }
    bits(final_loss, params(&mut model))
}

fn hoga_params(model: &mut HogaModel) -> &mut ParamSet {
    &mut model.params
}

fn hoga_forward(model: &HogaModel, tape: &mut Tape, stack: &Matrix, batch: usize) -> Var {
    model.forward(tape, stack, batch).representations
}

fn sign_forward(model: &Sign, tape: &mut Tape, stack: &Matrix, batch: usize) -> Var {
    model.forward(tape, stack, batch)
}

fn reference_hoga(graph: &ReasoningGraph, cfg: &TrainConfig) -> (u32, Vec<u32>) {
    let hcfg = HogaConfig::new(graph.features.cols(), cfg.hidden_dim, graph.hops.len() - 1);
    reference_hopwise(graph, cfg, HogaModel::new(&hcfg, cfg.seed), hoga_params, hoga_forward)
}

#[test]
fn hoga_entry_points_match_the_hand_written_loop() {
    let (g, cfg) = (graph(), cfg());
    let want = reference_hoga(&g, &cfg);

    let (model, stats) = train_reasoning(&g, GATED, &cfg);
    let ReasonModel::Hoga(model, _) = &model else { unreachable!() };
    assert_eq!(bits(stats.final_loss, &model.params), want, "train_reasoning");

    let (model, _, stats, report) =
        train_reasoning_resilient(&g, &cfg, &RecoveryPolicy::default(), &JobFaultPlan::none())
            .expect("clean run");
    assert!(report.events.is_empty());
    assert_eq!(bits(stats.final_loss, &model.params), want, "train_reasoning_resilient");

    // Figure 5's workers are the step's threads: the thread count decides
    // which worker runs a block, never what it computes.
    for threads in [1, 3] {
        let (model, stats) = with_threads(threads, || train_reasoning(&g, GATED, &cfg));
        let ReasonModel::Hoga(model, _) = &model else { unreachable!() };
        assert_eq!(bits(stats.final_loss, &model.params), want, "{threads} threads");
    }
}

#[test]
fn sign_matches_the_hand_written_loop() {
    let (g, cfg) = (graph(), cfg());
    fn sign_params(model: &mut Sign) -> &mut ParamSet {
        &mut model.params
    }
    let model = Sign::new(g.features.cols(), cfg.hidden_dim, g.hops.len() - 1, cfg.seed);
    let want = reference_hopwise(&g, &cfg, model, sign_params, sign_forward);
    let (model, stats) = train_reasoning(&g, ReasonModelKind::Sign, &cfg);
    let ReasonModel::Sign(model, _) = &model else { unreachable!() };
    assert_eq!(bits(stats.final_loss, &model.params), want);
}

#[test]
fn kill_and_resume_under_a_schedule_matches_the_hand_written_loop() {
    // The decay boundary (epoch 2) and the kill point (epoch 3) both sit
    // inside the run; the reference never stops.
    let g = graph();
    let full = TrainConfig {
        epochs: 6,
        schedule: Some(LrSchedule::Step { base: 3e-3, step_epochs: 2, gamma: 0.5 }),
        ..cfg()
    };
    let want = reference_hoga(&g, &full);

    let dir = std::env::temp_dir().join(format!("hoga-one-loop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    let path = dir.join("train.ck");
    let killed = TrainConfig { epochs: 3, checkpoint_to: Some(path.clone()), ..full.clone() };
    let _ = train_reasoning(&g, GATED, &killed);
    let resumed = TrainConfig { resume_from: Some(path), ..full };
    let (model, stats) = train_reasoning(&g, GATED, &resumed);
    let ReasonModel::Hoga(model, _) = &model else { unreachable!() };
    assert_eq!(stats.epochs_run, 3, "the resumed run trains only the missing epochs");
    assert_eq!(bits(stats.final_loss, &model.params), want);
    std::fs::remove_dir_all(&dir).ok();
}

/// The QoR loop by hand: minibatches of training samples, one tape per
/// involved design with its loss scaled by `1 / designs`, gradients summed,
/// one Adam step. `reps` records a design's node representations and says
/// how many rows they have.
fn reference_qor<M>(
    ds: &QorDataset,
    cfg: &TrainConfig,
    mut model: M,
    params: fn(&mut M) -> &mut ParamSet,
    reps: impl Fn(&M, &mut Tape, &QorDesign) -> (Var, usize),
) -> (u32, Vec<u32>) {
    let reg = GraphRegressor::new(
        params(&mut model),
        cfg.hidden_dim + RECIPE_ENCODING_WIDTH,
        cfg.hidden_dim,
        cfg.seed ^ 0xD,
    );
    let mut opt = Adam::new(cfg.lr);
    let mut final_loss = f32::NAN;
    for epoch in 0..cfg.epochs {
        for batch in minibatches(ds.train.len(), cfg.batch_samples, cfg.seed, epoch as u64) {
            let mut by_design: BTreeMap<usize, Vec<&QorSample>> = BTreeMap::new();
            for &i in &batch {
                by_design.entry(ds.train[i].design).or_default().push(&ds.train[i]);
            }
            let weight = 1.0 / by_design.len() as f32;
            let mut total = Gradients::new();
            final_loss = 0.0;
            for (design, group) in by_design {
                let design = &ds.designs[design];
                let mut tape = Tape::new();
                let (node_reps, n) = reps(&model, &mut tape, design);
                let pred = taped_head(&mut tape, &reg, params(&mut model), node_reps, n, &group);
                let truth = Matrix::from_fn(group.len(), 1, |r, _| group[r].ratio());
                let loss = tape.mse_loss(pred, &truth);
                let scaled = tape.scale(loss, weight);
                final_loss += tape.value(scaled)[(0, 0)];
                total.accumulate(&tape.backward(scaled));
            }
            opt.step(params(&mut model), &total);
        }
    }
    bits(final_loss, params(&mut model))
}

/// A design's node count and the hop stack of every node, for HOGA-2.
fn every_node(design: &QorDesign) -> (usize, Matrix) {
    let n = design.aig.num_nodes();
    (n, hop_stack(&design.hops[..=2], &(0..n).collect::<Vec<_>>()))
}

#[test]
fn qor_trainers_match_the_hand_written_loop() {
    let ds = build_qor_dataset(&QorDatasetConfig::tiny());
    assert!(ds.train.len() > 4, "the tiny dataset must fill more than one minibatch");
    let cfg = cfg();
    let feat_dim = ds.designs[0].features.cols();

    let hoga = HogaModel::new(&HogaConfig::new(feat_dim, cfg.hidden_dim, 2), cfg.seed);
    let want = reference_qor(&ds, &cfg, hoga, hoga_params, |model, tape, design| {
        let (n, stack) = every_node(design);
        (model.forward(tape, &stack, n).representations, n)
    });
    let (model, stats) = train_qor(&ds, QorModelKind::Hoga { num_hops: 2 }, &cfg);
    let QorModel::Hoga(model, _) = &model else { unreachable!() };
    assert_eq!(bits(stats.final_loss, &model.params), want, "HOGA-2");

    fn gcn_params(model: &mut Gcn) -> &mut ParamSet {
        &mut model.params
    }
    let gcn = Gcn::new(feat_dim, cfg.hidden_dim, 2, cfg.seed);
    let want = reference_qor(&ds, &cfg, gcn, gcn_params, |model, tape, design| {
        (model.forward(tape, &design.adj, &design.features), design.aig.num_nodes())
    });
    let (model, stats) = train_qor(&ds, QorModelKind::Gcn { layers: 2 }, &cfg);
    let QorModel::Gcn(model, _) = &model else { unreachable!() };
    assert_eq!(bits(stats.final_loss, &model.params), want, "GCN-2");
}

/// `eval_qor`'s predicted gate counts written out by hand: per design in
/// design order, one tape records `predict` over the group of samples run
/// on it, whose ratios are clamped and scaled by each initial gate count.
fn taped_qor_predictions(
    ds: &QorDataset,
    samples: &[QorSample],
    predict: impl Fn(&mut Tape, &QorDesign, &[&QorSample]) -> Var,
) -> Vec<Vec<u32>> {
    let mut by_design: BTreeMap<usize, Vec<&QorSample>> = BTreeMap::new();
    for s in samples {
        by_design.entry(s.design).or_default().push(s);
    }
    let scaled = |ratio: f32, s: &QorSample| ratio.clamp(0.0, 1.5) * s.initial_ands as f32;
    by_design
        .into_iter()
        .map(|(design, group)| {
            let mut tape = Tape::new();
            let pred = predict(&mut tape, &ds.designs[design], &group);
            let ratios = tape.value(pred);
            group.iter().enumerate().map(|(i, s)| scaled(ratios[(i, 0)], s).to_bits()).collect()
        })
        .collect()
}

/// The regressor over `n` rows of representations, one recipe per sample.
fn taped_head(
    tape: &mut Tape,
    reg: &GraphRegressor,
    params: &ParamSet,
    reps: Var,
    n: usize,
    group: &[&QorSample],
) -> Var {
    let extra =
        Matrix::from_fn(group.len(), RECIPE_ENCODING_WIDTH, |r, c| group[r].recipe_encoding[c]);
    reg.predict_with_extra(tape, params, reps, vec![(0, n); group.len()], &extra)
}

#[test]
fn tape_free_evaluation_has_the_tapes_bits() {
    let ds = build_qor_dataset(&QorDatasetConfig::tiny());
    let cfg = TrainConfig { epochs: 1, ..cfg() };
    let evaluated = |model: &QorModel, use_train: bool| -> Vec<Vec<u32>> {
        let evals = eval_qor(&ds, model, use_train);
        evals.iter().map(|e| e.pred.iter().map(|p| p.to_bits()).collect()).collect()
    };
    let splits = [(false, &ds.test), (true, &ds.train)];

    let (hoga, _) = train_qor(&ds, QorModelKind::Hoga { num_hops: 2 }, &cfg);
    let QorModel::Hoga(model, reg) = &hoga else { unreachable!() };
    for (use_train, samples) in splits {
        let want = taped_qor_predictions(&ds, samples, |tape, design, group| {
            let (n, stack) = every_node(design);
            let reps = model.forward(tape, &stack, n).representations;
            taped_head(tape, reg, &model.params, reps, n, group)
        });
        assert_eq!(evaluated(&hoga, use_train), want, "HOGA-2, use_train {use_train}");
    }

    let (gcn, _) = train_qor(&ds, QorModelKind::Gcn { layers: 2 }, &cfg);
    let QorModel::Gcn(model, reg) = &gcn else { unreachable!() };
    for (use_train, samples) in splits {
        let want = taped_qor_predictions(&ds, samples, |tape, design, group| {
            let reps = model.forward(tape, &design.adj, &design.features);
            taped_head(tape, reg, &model.params, reps, design.aig.num_nodes(), group)
        });
        assert_eq!(evaluated(&gcn, use_train), want, "GCN-2, use_train {use_train}");
    }

    let g = graph();
    let (sage, _) = train_reasoning(&g, ReasonModelKind::Sage, &cfg);
    let ReasonModel::Sage(model, cls) = &sage else { unreachable!() };
    let mean_adj = Arc::new(normalized_mean(&g.aig));
    let mean_adj_t = Arc::new(mean_adj.transpose());
    let mut tape = Tape::new();
    let reps = model.forward(&mut tape, &mean_adj, &mean_adj_t, &g.features);
    let logits = cls.logits(&mut tape, &model.params, reps);
    assert_eq!(predict_reasoning(&sage, &g), argmax_rows(tape.value(logits)), "GraphSAGE");
}
