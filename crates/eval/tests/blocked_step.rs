//! The node-blocked training step against one whole-batch tape, bit for
//! bit: the loss and every parameter gradient.
//!
//! HOGA × 3 aggregators, and SIGN, at the paper's reasoning shapes (CSA-8,
//! `K = 8`, `d = 64`), on batches of 512 nodes (sixteen 32-node blocks, each
//! one of `Gemm::TN`'s chunks), 96 (an epoch's partial last batch), 33 (a
//! one-node last block), 1 and 1000, at 1, 2 and 3 kernel threads. Each case
//! prints how many parameter gradients its blocks handed back as in-block
//! chunk partials; CI checks that the 512-node cases take them, so the suite
//! cannot pass by always falling back to rows.

use hoga_autograd::{Gradients, ParamSet, Tape};
use hoga_baselines::sign::Sign;
use hoga_core::heads::NodeClassifier;
use hoga_core::hopfeat::hop_stack;
use hoga_core::model::{Aggregator, HogaConfig, HogaModel};
use hoga_datasets::gamora::{
    build_reasoning_graph, MultiplierKind, ReasoningConfig, ReasoningGraph,
};
use hoga_datasets::splits::minibatches;
use hoga_eval::trainer::{Hopwise, HopwiseTask, Step, TrainStats};
use hoga_gen::reason::NodeClass;
use hoga_tensor::recycle::Pool;
use hoga_tensor::with_threads;

const HIDDEN: usize = 64;
const BATCHES: [usize; 5] = [512, 96, 33, 1, 1000];

/// `sqrt(n / (C · count))` capped at 4, 1 for an absent class.
fn class_weights(labels: &[usize]) -> Vec<f32> {
    let mut counts = [0usize; NodeClass::COUNT];
    for &l in labels {
        counts[l] += 1;
    }
    let n = labels.len() as f32;
    let weight = |c: usize| (n / (NodeClass::COUNT as f32 * c as f32)).sqrt().min(4.0);
    counts.iter().map(|&c| if c == 0 { 1.0 } else { weight(c) }).collect()
}

/// A step's loss and every gradient, as bits.
type Bits = (u32, Vec<(usize, Vec<u32>)>);

fn bits(loss: f32, grads: &Gradients) -> Bits {
    let grads = grads
        .iter()
        .map(|(id, g)| (id.index(), g.as_slice().iter().map(|v| v.to_bits()).collect()))
        .collect();
    (loss.to_bits(), grads)
}

/// Runs every batch size at every thread count through the blocked step
/// and demands the whole-batch tape's bits.
fn check<M: Hopwise>(
    name: &str,
    graph: &ReasoningGraph,
    model: &M,
    params: &ParamSet,
    cls: &NodeClassifier,
) {
    let labels = graph.label_indices();
    let weights = class_weights(&labels);
    let task = HopwiseTask {
        model,
        params,
        cls,
        hops: &graph.hops,
        labels: &labels,
        class_weights: &weights,
    };
    let pool = Pool::default();
    for (salt, n) in BATCHES.into_iter().enumerate() {
        let batch = minibatches(graph.aig.num_nodes(), n, salt as u64, 0).swap_remove(0);
        assert_eq!(batch.len(), n);
        let whole = {
            let stack = hop_stack(&graph.hops, &batch);
            let batch_labels: Vec<usize> = batch.iter().map(|&i| labels[i]).collect();
            let mut tape = Tape::new();
            let reps = model.reps(&mut tape, &stack, n);
            let logits = cls.logits(&mut tape, params, reps);
            let loss = tape.cross_entropy_weighted(logits, &batch_labels, &weights);
            let value = tape.value(loss)[(0, 0)];
            bits(value, &tape.backward(loss))
        };
        for threads in [1, 2, 3] {
            let (stats, pool) = (&mut TrainStats::default(), &pool);
            let mut run = Step { epoch: 0, step: 0, batch: &batch, stats, pool };
            let out = with_threads(threads, || task.step(&mut run));
            println!("{name} batch {n} threads {threads}: {} chunk partials", out.chunk_partials);
            assert!(
                bits(out.loss, &out.grads) == whole,
                "{name} batch {n} threads {threads}: the blocked step moved a bit"
            );
        }
    }
}

#[test]
fn blocked_step_is_bitwise_the_whole_batch_tape() {
    let graph = build_reasoning_graph(MultiplierKind::Csa, 8, &ReasoningConfig::default());
    assert!(graph.aig.num_nodes() >= 1000, "the 1000-node batch needs the nodes");
    let (feat, hops) = (graph.features.cols(), graph.hops.len() - 1);
    let aggregators = [
        ("gated-attn", Aggregator::GatedSelfAttention),
        ("gate-only", Aggregator::GateOnly),
        ("sum", Aggregator::Sum),
    ];
    for (agg_name, aggregator) in aggregators {
        let config = HogaConfig::new(feat, HIDDEN, hops).with_aggregator(aggregator);
        let mut model = HogaModel::new(&config, 11);
        let cls = NodeClassifier::new(&mut model.params, HIDDEN, NodeClass::COUNT, 12);
        check(&format!("hoga-{agg_name}"), &graph, &model, &model.params, &cls);
    }
    let mut sign = Sign::new(feat, HIDDEN, hops, 13);
    let cls = NodeClassifier::new(&mut sign.params, HIDDEN, NodeClass::COUNT, 14);
    check("sign", &graph, &sign, &sign.params, &cls);
}
