//! End-to-end bitwise determinism of a training loop across kernel thread
//! counts.
//!
//! The tensor crate's contract is that every kernel output is a pure function
//! of its inputs, never of `set_threads`. This test drives a miniature
//! HOGA-style model (linear projection → per-node QKᵀ attention → readout)
//! through real forward/backward/Adam steps at 1 and at 8 threads and
//! requires the *loss trajectories and final parameters to match bit for
//! bit*. Parameters are initialized with closed-form values (no RNG) so the
//! two runs start identical by construction.

use hoga_autograd::optim::{Adam, Optimizer};
use hoga_autograd::{Gradients, Ops, ParamSet, Tape};
use hoga_tensor::{set_threads, Matrix};

const BATCH: usize = 256; // nodes per step
const HOPS: usize = 5; // K+1 hop rows per node
const IN_DIM: usize = 32;
const HIDDEN: usize = 64;
const STEPS: usize = 4;

/// Deterministic, RNG-free pseudo-random init in roughly [-0.1, 0.1].
fn init(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = r.wrapping_mul(2654435761).wrapping_add(c.wrapping_mul(40503)).wrapping_add(salt);
        ((h % 1000) as f32 / 1000.0 - 0.5) * 0.2
    })
}

struct MiniModel {
    params: ParamSet,
    w_in: hoga_autograd::ParamId,
    wq: hoga_autograd::ParamId,
    wk: hoga_autograd::ParamId,
    w_out: hoga_autograd::ParamId,
}

impl MiniModel {
    fn new() -> Self {
        let mut params = ParamSet::new();
        let w_in = params.add("w_in", init(IN_DIM, HIDDEN, 1));
        let wq = params.add("wq", init(HIDDEN, HIDDEN, 2));
        let wk = params.add("wk", init(HIDDEN, HIDDEN, 3));
        let w_out = params.add("w_out", init(HIDDEN, 1, 4));
        Self { params, w_in, wq, wk, w_out }
    }
}

/// One forward/backward pass at the shapes where every `gemm` the tape runs
/// — `a·b`, `a·bᵀ`, the chunked `aᵀ·b`, and the batched products — takes
/// its parallel path.
fn loss_and_grads(model: &MiniModel, stack: &Matrix, target: &Matrix) -> (f32, Gradients) {
    let mut tape = Tape::new();
    let x = tape.constant(stack.clone());
    let w_in = tape.param(&model.params, model.w_in);
    let h = tape.matmul(x, w_in);
    let wq = tape.param(&model.params, model.wq);
    let wk = tape.param(&model.params, model.wk);
    let q = tape.matmul(h, wq);
    let k = tape.matmul(h, wk);
    let logits = tape.batched_matmul_nt(q, k, BATCH);
    let s = tape.softmax_rows(logits);
    let attended = tape.batched_matmul(s, h, BATCH);
    let act = tape.relu(attended);
    let w_out = tape.param(&model.params, model.w_out);
    let pred = tape.matmul(act, w_out);
    let loss = tape.mse_loss(pred, target);
    let loss_val = tape.value(loss)[(0, 0)];
    let grads = tape.backward(loss);
    (loss_val, grads)
}

/// Trains the mini model for `STEPS` Adam steps, returning the per-step loss
/// bits and the final parameter bits.
fn run_training() -> (Vec<u32>, Vec<u32>) {
    let mut model = MiniModel::new();
    let stack = init(BATCH * HOPS, IN_DIM, 99).scale(10.0);
    let target = init(BATCH * HOPS, 1, 7);
    let mut opt = Adam::new(1e-2);
    let mut losses = Vec::with_capacity(STEPS);
    for _ in 0..STEPS {
        let (loss, grads) = loss_and_grads(&model, &stack, &target);
        losses.push(loss.to_bits());
        opt.step(&mut model.params, &grads);
    }
    let mut param_bits = Vec::new();
    for (_, _, value) in model.params.iter() {
        param_bits.extend(value.as_slice().iter().map(|v| v.to_bits()));
    }
    (losses, param_bits)
}

#[test]
fn training_trajectory_is_bitwise_identical_across_thread_counts() {
    set_threads(1);
    let (loss_1t, params_1t) = run_training();
    set_threads(8);
    let (loss_8t, params_8t) = run_training();
    set_threads(0);
    assert_eq!(
        loss_1t, loss_8t,
        "loss trajectory diverged between 1 and 8 kernel threads: {loss_1t:?} vs {loss_8t:?}"
    );
    assert_eq!(params_1t, params_8t, "final parameters differ bitwise across thread counts");
    // Sanity: training actually did something.
    assert_ne!(loss_1t.first(), loss_1t.last(), "loss never moved; test exercises nothing");
}
