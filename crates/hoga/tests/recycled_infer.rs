//! The tape-free forward builds its node blocks in storage its model keeps
//! from call to call (`hoga_tensor::recycle::Pool`). Whatever earlier calls
//! left there — rows of NaN, another precision, a ragged last block — no
//! later output reads it: every clean call on a model that has served
//! before equals the same call on a freshly built model bit for bit, and
//! `Exact` still equals the tape forward.

use hoga_autograd::Tape;
use hoga_core::infer::{block_nodes, Int8Plan, Precision};
use hoga_core::model::{Aggregator, HogaConfig, HogaModel};
use hoga_tensor::{Init, Matrix};

const INPUT: usize = 5;
const HIDDEN: usize = 32;
const HOPS: usize = 5;
const K1: usize = HOPS + 1;

/// The paper's model with the given aggregator, and its int8 plan.
fn model(aggregator: Aggregator) -> (HogaModel, Int8Plan) {
    let cfg = HogaConfig::new(INPUT, HIDDEN, HOPS).with_aggregator(aggregator);
    let model = HogaModel::new(&cfg, 7);
    let plan = model.int8_plan();
    (model, plan)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Representation and readout-score bits of the `Exact`, `Fast` and `Int8`
/// forwards, in that order.
fn all_modes((model, plan): &(HogaModel, Int8Plan), stack: &Matrix) -> [(Vec<u32>, Vec<u32>); 3] {
    let batch = stack.rows() / K1;
    [
        model.try_infer(stack, batch, Precision::Exact),
        model.try_infer(stack, batch, Precision::Fast),
        model.try_infer_int8(plan, stack, batch),
    ]
    .map(|out| {
        let out = out.expect("valid shapes");
        (bits(&out.representations), out.readout_scores.as_ref().map(bits).unwrap_or_default())
    })
}

/// A hop stack of `nodes` nodes, every seventh row replaced by `junk`.
fn stack(nodes: usize, seed: u64, junk: Option<f32>) -> Matrix {
    let mut stack = Init::SmallUniform.matrix(nodes * K1, INPUT, seed);
    if let Some(junk) = junk {
        for r in (3..stack.rows()).step_by(7) {
            stack.row_mut(r).fill(junk);
        }
    }
    stack
}

#[test]
fn an_inference_on_recycled_storage_is_bitwise_one_on_a_fresh_model() {
    let block = block_nodes(K1, HIDDEN);
    for aggregator in [Aggregator::GatedSelfAttention, Aggregator::GateOnly, Aggregator::Sum] {
        let served = model(aggregator);
        // First the junk: NaN rows through every precision. Debug builds
        // refuse a NaN attention logit, and Int8 carries a NaN row through
        // as NaN as the f32 modes do, so the attention model gets rows of
        // 1e16 instead, which stay finite through its softmax.
        let junk = match aggregator {
            Aggregator::GatedSelfAttention => stack(4 * block, 3, Some(1e16)),
            Aggregator::GateOnly | Aggregator::Sum => stack(4 * block, 3, Some(f32::NAN)),
        };
        served.0.try_infer_int8(&served.1, &junk, 4 * block).expect("valid shapes");
        for precision in [Precision::Exact, Precision::Fast] {
            served.0.try_infer(&junk, 4 * block, precision).expect("valid shapes");
        }
        // Then clean stacks: full blocks, a ragged last block, full again.
        for (i, nodes) in [4 * block, block + 5, 4 * block].into_iter().enumerate() {
            let clean = stack(nodes, 11 + i as u64, None);
            let got = all_modes(&served, &clean);
            let fresh = all_modes(&model(aggregator), &clean);
            assert_eq!(got, fresh, "{aggregator:?}, call {i} ({nodes} nodes)");
            let mut tape = Tape::new();
            let trained = served.0.forward(&mut tape, &clean, nodes);
            assert_eq!(got[0].0, bits(tape.value(trained.representations)), "{aggregator:?}");
            let scores = trained.readout_scores.map(|s| bits(tape.value(s))).unwrap_or_default();
            assert_eq!(got[0].1, scores, "{aggregator:?}: scores against the tape");
        }
    }
}
