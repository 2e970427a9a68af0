//! HOGA's QoR step in node blocks against one whole-design tape, bit for
//! bit: the loss and every parameter gradient.
//!
//! The reference is the tape the QoR trainer recorded before it pooled in
//! blocks: HOGA's forward over every node of the design, the regressor over
//! one `(0, n)` segment per sample, and the weighted mean-squared error.
//! HOGA-2 and HOGA-5 × the three aggregators, on designs of one node fewer
//! than a block, one block, three blocks and a ragged tail, and sixteen
//! blocks (each one of `Gemm::TN`'s chunks), pooling every node, and on
//! the sixteen-block design pooling every third node (a
//! `nodes_per_graph` sample), at 1, 2 and 3 kernel threads.
//! Each case prints its blocks and how many parameter gradients they handed
//! back as in-block chunk partials; CI checks that a design of more than
//! one block takes some, so the suite cannot pass by always falling back to
//! rows.

use hoga_autograd::{Gradients, Tape};
use hoga_circuit::{adjacency, features, Aig};
use hoga_core::heads::GraphRegressor;
use hoga_core::hopfeat::{hop_features, hop_stack};
use hoga_core::infer::block_nodes;
use hoga_core::model::{Aggregator, HogaConfig, HogaModel};
use hoga_datasets::openabcd::{QorDesign, RECIPE_ENCODING_WIDTH};
use hoga_eval::trainer::{DesignHead, Step, TrainStats};
use hoga_gen::ipgen::OPENABCD_DESIGNS;
use hoga_tensor::recycle::Pool;
use hoga_tensor::{with_threads, Init, Matrix};
use std::sync::Arc;

const HIDDEN: usize = 64;
const SAMPLES: usize = 3;

/// A step's loss and every gradient, as bits.
type Bits = (u32, Vec<(usize, Vec<u32>)>);

fn bits(loss: f32, grads: &Gradients) -> Bits {
    let grads = grads
        .iter()
        .map(|(id, g)| (id.index(), g.as_slice().iter().map(|v| v.to_bits()).collect()))
        .collect();
    (loss.to_bits(), grads)
}

/// A design of exactly `nodes` nodes: eight inputs and pseudo-random AND
/// gates over earlier literals, with hop features up to `hops`, pooling
/// every `stride`-th node.
fn design(nodes: usize, hops: usize, stride: usize) -> QorDesign {
    let mut aig = Aig::new(8);
    let mut lits: Vec<_> = (0..8).map(|i| aig.pi_lit(i)).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    while aig.num_nodes() < nodes {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let pick = |shift: u32| lits[(state >> shift) as usize % lits.len()];
        let (a, b) = (pick(33), pick(13));
        let lit = aig.and(if state & 1 == 1 { !a } else { a }, b);
        lits.push(lit);
    }
    aig.add_po(lits[lits.len() - 1]);
    let adj = Arc::new(adjacency::normalized_symmetric(&aig));
    let features = features::node_features(&aig);
    let hops = hop_features(&adj, &features, hops);
    let pooled_nodes = (0..nodes).step_by(stride).collect();
    QorDesign { spec: OPENABCD_DESIGNS[0], aig, adj, features, hops, pooled_nodes }
}

/// The whole-design tape's loss and gradients.
fn whole_design(model: &HogaModel, head: &DesignHead<'_>) -> Bits {
    let nodes = &head.design.pooled_nodes;
    let n = nodes.len();
    let stack = hop_stack(&head.design.hops[..=model.config().num_hops], nodes);
    let mut tape = Tape::new();
    let reps = model.forward(&mut tape, &stack, n).representations;
    let segments = vec![(0, n); head.extra.rows()];
    let pred = head.reg.predict_with_extra(&mut tape, &model.params, reps, segments, &head.extra);
    let loss = tape.mse_loss(pred, &head.target);
    let scaled = tape.scale(loss, head.weight);
    let value = tape.value(scaled)[(0, 0)];
    bits(value, &tape.backward(scaled))
}

#[test]
fn blocked_qor_step_is_bitwise_the_whole_design_tape() {
    let aggregators = [
        ("gated-attn", Aggregator::GatedSelfAttention),
        ("gate-only", Aggregator::GateOnly),
        ("sum", Aggregator::Sum),
    ];
    let pool = Pool::default();
    for hops in [2, 5] {
        let block = block_nodes(hops + 1, HIDDEN);
        let designs: Vec<QorDesign> =
            [(block - 1, 1), (block, 1), (3 * block + 5, 1), (16 * block, 1), (16 * block, 3)]
                .map(|(n, stride)| design(n, hops, stride))
                .into();
        for (agg_name, aggregator) in aggregators {
            let feat = designs[0].features.cols();
            let config = HogaConfig::new(feat, HIDDEN, hops).with_aggregator(aggregator);
            let mut model = HogaModel::new(&config, 21);
            let reg =
                GraphRegressor::new(&mut model.params, HIDDEN + RECIPE_ENCODING_WIDTH, 32, 22);
            for design in &designs {
                let head = DesignHead {
                    reg: &reg,
                    design,
                    extra: Init::SmallUniform.matrix(SAMPLES, RECIPE_ENCODING_WIDTH, 23),
                    target: Matrix::from_fn(SAMPLES, 1, |r, _| 0.5 + 0.1 * r as f32),
                    weight: 0.5,
                };
                let (n, pooled) = (design.aig.num_nodes(), design.pooled_nodes.len());
                let want = whole_design(&model, &head);
                for threads in [1, 2, 3] {
                    let (stats, pool) = (&mut TrainStats::default(), &pool);
                    let mut run = Step { epoch: 0, step: 0, batch: &[], stats, pool };
                    let out = with_threads(threads, || head.hoga_step(&model, &mut run));
                    let name = format!("hoga-{hops}-{agg_name} nodes {n} pooled {pooled}");
                    let blocks = pooled.div_ceil(block);
                    println!(
                        "{name} blocks {blocks} threads {threads}: {} chunk partials",
                        out.chunk_partials
                    );
                    assert!(
                        bits(out.loss, &out.grads) == want,
                        "{name} threads {threads}: the blocked step moved a bit"
                    );
                }
            }
        }
    }
}
