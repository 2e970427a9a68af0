//! The tape records Eq. 10 as one op: the twin of `infer.rs`'s
//! `the_tape_free_readout_builds_no_concat` for `Tape`. At the paper's
//! shapes (a 32-node block, `K = 8`, `d = 64`) no value a tape holds for a
//! HOGA forward is the `B·K × 2d` concat `[Ĥ₀ ‖ Ĥₖ]`, and the readout
//! records three nodes (`α`, the scores, `y`) where its op-by-op recording
//! took ten (three gathers, the concat, `α`, the product, a reshape, the
//! softmax, the batched product and the add).

use hoga_autograd::Tape;
use hoga_core::infer::block_nodes;
use hoga_core::model::{Aggregator, HogaConfig, HogaModel};
use hoga_tensor::{Init, Matrix};

const INPUT: usize = 5;
/// Nodes a gated-attention forward records before its readout: the hop
/// stack, `W_in` and `b_in` and their two ops, `W_U`, `W_V`, `W_Q`, `W_K`
/// and their four products, `QKᵀ`, the softmax, `S·V`, the gate, `γ`,
/// `β`, the LayerNorm and the ReLU.
const BEFORE_READOUT: usize = 21;
/// The op-by-op readout's nodes, and the ones the fused op keeps.
const OP_BY_OP: usize = 10;
const FUSED: usize = 3;

#[test]
fn the_tape_readout_builds_no_concat() {
    let (k1, d) = (9, 64);
    let nodes = block_nodes(k1, d);
    let cfg = HogaConfig::new(INPUT, d, k1 - 1).with_aggregator(Aggregator::GatedSelfAttention);
    let model = HogaModel::new(&cfg, 5);
    let stack = Init::SmallUniform.matrix(nodes * k1, INPUT, 6);
    let mut tape = Tape::new();
    let out = model.forward(&mut tape, &stack, nodes);
    assert!(out.readout_scores.is_some());
    let shapes: Vec<(usize, usize)> = tape.values().map(Matrix::shape).collect();
    let concat = (nodes * (k1 - 1), 2 * d);
    assert!(!shapes.contains(&concat), "the tape holds {concat:?}: {shapes:?}");
    assert_eq!(
        tape.len(),
        BEFORE_READOUT + FUSED,
        "the readout records {FUSED} nodes, {} fewer than op by op: {shapes:?}",
        OP_BY_OP - FUSED
    );
    // The last three are `α`, the scores and `y`.
    assert_eq!(&shapes[BEFORE_READOUT..], [(2 * d, 1), (nodes, k1 - 1), (nodes, d)]);
}
