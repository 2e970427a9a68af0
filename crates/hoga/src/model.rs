//! Phase 2 of HOGA: gated self-attention over hop-wise features.
//!
//! Implements Eqs. 5–10 of the paper:
//!
//! * linear input projection to the hidden dimension,
//! * one gated self-attention layer with one head —
//!   `Ĥ = ReLU(LayerNorm(U ⊙ (softmax(QKᵀ) V)))` with
//!   `Q = HW_Q, K = HW_K, U = HW_U, V = HW_V` (Eq. 9),
//! * the attentive readout `y = Ĥ₀ + Σₖ cₖ Ĥₖ` with
//!   `cₖ = softmax_k(αᵀ [Ĥ₀ ‖ Ĥₖ])` (Eq. 10), one [`Ops::readout`]: a tape
//!   records it op by op (gathers, the concat `[Ĥ₀ ‖ Ĥₖ]`, two products),
//!   and the tape-free [`NoTape`] computes the same bits reading `Ĥ` in
//!   place.
//!
//! The §III-B ablations are first-class: [`Aggregator::GateOnly`] drops the
//! attention matrix (Eq. 6 only) and [`Aggregator::Sum`] drops the module
//! entirely (`y = Σₖ Hₖ`), which the paper argues cannot capture high-order
//! interactions.

use crate::infer::NoTape;
use hoga_autograd::{Ops, ParamId, ParamSet, Var};
use hoga_tensor::recycle::Pool;
use hoga_tensor::{Init, Matrix};
use serde::{Deserialize, Serialize};

/// Hop-aggregation strategy (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Aggregator {
    /// The full gated self-attention module (Eqs. 7–9) — HOGA proper.
    GatedSelfAttention,
    /// The plain gated layer of Eq. 6 (`U ⊙ V`, no cross-hop interactions).
    GateOnly,
    /// Uniform summation `y = Σₖ Hₖ` (no trainable aggregation at all).
    Sum,
}

/// Hyperparameters of a [`HogaModel`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HogaConfig {
    /// Width of the raw node features.
    pub input_dim: usize,
    /// Hidden dimension `d` (the paper uses 256; our CPU default is 64).
    pub hidden_dim: usize,
    /// Number of hops `K` (5 for QoR prediction, 8 for reasoning in the
    /// paper).
    pub num_hops: usize,
    /// Aggregation strategy; [`Aggregator::GatedSelfAttention`] is HOGA.
    pub aggregator: Aggregator,
}

impl HogaConfig {
    /// Creates the paper's configuration (one gated self-attention layer)
    /// with the given feature width, hidden width and hop count.
    pub fn new(input_dim: usize, hidden_dim: usize, num_hops: usize) -> Self {
        Self { input_dim, hidden_dim, num_hops, aggregator: Aggregator::GatedSelfAttention }
    }

    /// Replaces the aggregator (for the §III-B ablations).
    pub fn with_aggregator(mut self, aggregator: Aggregator) -> Self {
        self.aggregator = aggregator;
        self
    }
}

/// The HOGA model: input projection, one gated self-attention layer,
/// attentive readout. See the [crate-level example](crate).
pub struct HogaModel {
    /// All trainable parameters (optimizers operate on this set).
    pub params: ParamSet,
    pub(crate) config: HogaConfig,
    pub(crate) w_in: ParamId,
    pub(crate) b_in: ParamId,
    pub(crate) wq: ParamId,
    pub(crate) wk: ParamId,
    pub(crate) wu: ParamId,
    pub(crate) wv: ParamId,
    pub(crate) gamma: ParamId,
    pub(crate) beta: ParamId,
    pub(crate) alpha: ParamId,
    /// The storage the tape-free forward's node blocks are built in, kept
    /// warm from block to block and call to call; freed with the model.
    pub(crate) pool: Pool,
}

/// Forward-pass outputs, as handles of the holder the forward ran on (a
/// [`hoga_autograd::Tape`]'s [`Var`]s by default).
#[derive(Debug, Clone, Copy)]
pub struct HogaOutput<V = Var> {
    /// Final node representations `Y`, shape `(batch, hidden_dim)`.
    pub representations: V,
    /// Readout attention scores `cₖ`, shape `(batch, K)` — the quantity
    /// visualized in Figure 7. `None` for the [`Aggregator::Sum`] ablation.
    pub readout_scores: Option<V>,
}

impl HogaModel {
    /// Initializes a model with Xavier weights derived from `seed`.
    ///
    /// The parameter names are the checkpoint format: the attention weights
    /// keep their `layer0.h0.` prefix so that every saved checkpoint loads.
    ///
    /// # Panics
    ///
    /// Panics if any dimension in `config` is zero.
    pub fn new(config: &HogaConfig, seed: u64) -> Self {
        assert!(config.input_dim > 0 && config.hidden_dim > 0, "dims must be positive");
        assert!(config.num_hops > 0, "need at least one hop");
        let d = config.hidden_dim;
        let mut params = ParamSet::new();
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            s
        };
        let w_in = params.add("input.w", Init::XavierUniform.matrix(config.input_dim, d, next()));
        let b_in = params.add("input.b", Init::Zeros.matrix(1, d, next()));
        let wq = params.add("layer0.h0.wq", Init::XavierUniform.matrix(d, d, next()));
        let wk = params.add("layer0.h0.wk", Init::XavierUniform.matrix(d, d, next()));
        let wu = params.add("layer0.h0.wu", Init::XavierUniform.matrix(d, d, next()));
        let wv = params.add("layer0.h0.wv", Init::XavierUniform.matrix(d, d, next()));
        let gamma = params.add("layer0.gamma", Init::Ones.matrix(1, d, next()));
        let beta = params.add("layer0.beta", Init::Zeros.matrix(1, d, next()));
        let alpha = params.add("readout.alpha", Init::SmallUniform.matrix(2 * d, 1, next()));
        Self {
            params,
            config: *config,
            w_in,
            b_in,
            wq,
            wk,
            wu,
            wv,
            gamma,
            beta,
            alpha,
            pool: Pool::default(),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &HogaConfig {
        &self.config
    }

    /// Runs the forward pass on a batched hop stack (from
    /// [`crate::hopfeat::hop_stack`]) of `batch` nodes, recorded on a
    /// [`hoga_autograd::Tape`] or computed on the tape-free holder
    /// ([`crate::infer::NoTape`]).
    ///
    /// # Panics
    ///
    /// Panics if `hop_stack.rows() != batch * (num_hops + 1)` or the feature
    /// width differs from the configuration.
    pub fn forward<'m, O: Ops<'m>>(
        &'m self,
        ops: &mut O,
        hop_stack: &Matrix,
        batch: usize,
    ) -> HogaOutput<O::Var> {
        let k1 = self.config.num_hops + 1;
        assert_eq!(hop_stack.rows(), batch * k1, "hop stack row mismatch");
        assert_eq!(hop_stack.cols(), self.config.input_dim, "feature width mismatch");
        let x = ops.constant(hop_stack.clone());
        self.forward_var(ops, x, batch)
    }

    /// Eqs. 5–10 over a hop stack `x` the holder already holds: the one
    /// transcription of the model, which training records and inference,
    /// evaluation and Figure 7 run tape-free.
    pub(crate) fn forward_var<'m, O: Ops<'m>>(
        &'m self,
        ops: &mut O,
        x: O::Var,
        batch: usize,
    ) -> HogaOutput<O::Var> {
        let k1 = self.config.num_hops + 1;

        // Input projection H = X W_in + b_in. Each value is released after
        // its last reader, which lets a tape-free holder reuse its storage.
        let w_in = ops.param(&self.params, self.w_in);
        let b_in = ops.param(&self.params, self.b_in);
        let xw = ops.matmul(x, w_in);
        let mut h = ops.add_bias(xw, b_in);
        ops.release(&[x, xw]);

        // The gated self-attention layer (Eqs. 5-9).
        if self.config.aggregator != Aggregator::Sum {
            let wu = ops.param(&self.params, self.wu);
            let wv = ops.param(&self.params, self.wv);
            let u = ops.matmul(h, wu);
            let v = ops.matmul(h, wv);
            // What U gates: S·V under attention, V itself without.
            let mixed = match self.config.aggregator {
                Aggregator::GatedSelfAttention => {
                    let wq = ops.param(&self.params, self.wq);
                    let wk = ops.param(&self.params, self.wk);
                    let q = ops.matmul(h, wq);
                    let kk = ops.matmul(h, wk);
                    // Per-node QKᵀ and S·V (Eq. 7) run on the block-parallel
                    // batched kernels; see docs/PERFORMANCE.md for the
                    // threading scheme.
                    let logits = ops.batched_matmul_nt(q, kk, batch);
                    ops.release(&[q, kk]);
                    let s = ops.softmax_rows(logits);
                    let sv = ops.batched_matmul(s, v, batch);
                    ops.release(&[logits, s, v]);
                    sv
                }
                // `Sum` skips the layer and never gets here.
                Aggregator::GateOnly | Aggregator::Sum => v,
            };
            let gated = ops.hadamard(u, mixed);
            ops.release(&[u, mixed, h]);
            let gamma = ops.param(&self.params, self.gamma);
            let beta = ops.param(&self.params, self.beta);
            let normed = ops.layer_norm(gated, gamma, beta);
            h = ops.relu(normed);
            ops.release(&[gated, normed]);
        }

        // Readout (Eq. 10).
        if self.config.aggregator == Aggregator::Sum {
            // y = Σₖ Hₖ (uniform combination, the paper's strawman).
            let idx0: Vec<usize> = (0..batch).map(|b| b * k1).collect();
            let mut y = ops.select_rows(h, idx0);
            for hop in 1..k1 {
                let idx: Vec<usize> = (0..batch).map(|b| b * k1 + hop).collect();
                let hk = ops.select_rows(h, idx);
                let sum = ops.add(y, hk);
                ops.release(&[y, hk]);
                y = sum;
            }
            ops.release(&[h]);
            return HogaOutput { representations: y, readout_scores: None };
        }
        let (y, scores) = ops.readout(h, &self.params, self.alpha, batch, k1);
        HogaOutput { representations: y, readout_scores: Some(scores) }
    }

    /// Extracts the readout attention scores `cₖ` for the given nodes
    /// without a tape ([`NoTape`] at `Exact`, so the tape's bits) — the
    /// data behind Figure 7.
    ///
    /// Returns a `(batch, K)` matrix of per-hop scores.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`HogaModel::forward`], or if the
    /// aggregator is [`Aggregator::Sum`] (which has no scores).
    pub fn attention_scores(&self, hop_stack: &Matrix, batch: usize) -> Matrix {
        let mut ops = NoTape::new();
        let out = self.forward(&mut ops, hop_stack, batch);
        let scores = out.readout_scores.expect("Sum aggregator has no attention scores");
        ops.value(scores).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoga_autograd::optim::{Adam, Optimizer};
    use hoga_autograd::Tape;
    use hoga_tensor::Init;

    fn toy_stack(batch: usize, k1: usize, d: usize, seed: u64) -> Matrix {
        Init::SmallUniform.matrix(batch * k1, d, seed)
    }

    #[test]
    fn forward_shapes_are_correct() {
        let cfg = HogaConfig::new(7, 16, 5);
        let model = HogaModel::new(&cfg, 1);
        let stack = toy_stack(4, 6, 7, 2);
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &stack, 4);
        assert_eq!(tape.value(out.representations).shape(), (4, 16));
        let scores = out.readout_scores.expect("scores");
        assert_eq!(tape.value(scores).shape(), (4, 5));
    }

    /// The parameters' names, shapes and order are the checkpoint format
    /// (serving's registry matches a checkpoint to its skeleton by name), and
    /// the order is the seed order every trained bit depends on.
    #[test]
    fn parameters_register_in_the_checkpoint_order() {
        let want = [
            ("input.w", (7, 16)),
            ("input.b", (1, 16)),
            ("layer0.h0.wq", (16, 16)),
            ("layer0.h0.wk", (16, 16)),
            ("layer0.h0.wu", (16, 16)),
            ("layer0.h0.wv", (16, 16)),
            ("layer0.gamma", (1, 16)),
            ("layer0.beta", (1, 16)),
            ("readout.alpha", (32, 1)),
        ];
        for agg in [Aggregator::GatedSelfAttention, Aggregator::GateOnly, Aggregator::Sum] {
            let model = HogaModel::new(&HogaConfig::new(7, 16, 5).with_aggregator(agg), 1);
            let got: Vec<_> = model.params.iter().map(|(_, name, m)| (name, m.shape())).collect();
            assert_eq!(got, want, "{agg:?}");
        }
    }

    #[test]
    fn readout_scores_sum_to_one() {
        let cfg = HogaConfig::new(5, 8, 4);
        let model = HogaModel::new(&cfg, 3);
        let stack = toy_stack(3, 5, 5, 4);
        let scores = model.attention_scores(&stack, 3);
        for r in 0..3 {
            let s: f32 = scores.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    #[test]
    fn nodes_are_independent() {
        // The paper's central claim: a node's representation depends only on
        // its own hop stack. Changing node 1's features must not affect
        // node 0's output.
        let cfg = HogaConfig::new(6, 12, 3);
        let model = HogaModel::new(&cfg, 5);
        let stack_a = toy_stack(2, 4, 6, 6);
        let mut stack_b = stack_a.clone();
        for r in 4..8 {
            // Perturb node 1's block only.
            for c in 0..6 {
                stack_b[(r, c)] += 0.5;
            }
        }
        let mut t1 = Tape::new();
        let o1 = model.forward(&mut t1, &stack_a, 2);
        let mut t2 = Tape::new();
        let o2 = model.forward(&mut t2, &stack_b, 2);
        let r1 = t1.value(o1.representations);
        let r2 = t2.value(o2.representations);
        assert_eq!(r1.row(0), r2.row(0), "node 0 changed");
        assert_ne!(r1.row(1), r2.row(1), "node 1 should change");
    }

    #[test]
    fn batch_composition_is_irrelevant() {
        // Running nodes separately or together gives identical outputs.
        let cfg = HogaConfig::new(4, 8, 2);
        let model = HogaModel::new(&cfg, 7);
        let stack = toy_stack(3, 3, 4, 8);
        let mut t_all = Tape::new();
        let all = model.forward(&mut t_all, &stack, 3);
        let all_reps = t_all.value(all.representations).clone();
        for b in 0..3 {
            let single = stack.select_rows(&(b * 3..(b + 1) * 3).collect::<Vec<_>>());
            let mut t = Tape::new();
            let one = model.forward(&mut t, &single, 1);
            assert!(
                t.value(one.representations).max_abs_diff(&all_reps.select_rows(&[b])) < 1e-5,
                "node {b} differs when batched"
            );
        }
    }

    #[test]
    fn all_aggregators_run_and_differ() {
        let stack = toy_stack(2, 4, 5, 9);
        let reps: Vec<Matrix> =
            [Aggregator::GatedSelfAttention, Aggregator::GateOnly, Aggregator::Sum]
                .iter()
                .map(|&agg| {
                    let cfg = HogaConfig::new(5, 8, 3).with_aggregator(agg);
                    let model = HogaModel::new(&cfg, 11);
                    let mut tape = Tape::new();
                    let out = model.forward(&mut tape, &stack, 2);
                    assert_eq!(out.readout_scores.is_none(), agg == Aggregator::Sum);
                    tape.value(out.representations).clone()
                })
                .collect();
        assert!(reps[0].max_abs_diff(&reps[1]) > 1e-7);
        assert!(reps[1].max_abs_diff(&reps[2]) > 1e-7);
    }

    #[test]
    fn model_trains_on_toy_regression() {
        // Distinguish two synthetic node populations by their hop profiles.
        let cfg = HogaConfig::new(3, 8, 3);
        let mut model = HogaModel::new(&cfg, 17);
        let batch = 8;
        let k1 = 4;
        let stack = Matrix::from_fn(batch * k1, 3, |r, c| {
            let node = r / k1;
            let hop = r % k1;
            if node % 2 == 0 {
                ((hop * 3 + c) as f32 * 0.2).sin()
            } else {
                ((hop + c) as f32 * 0.4).cos()
            }
        });
        let target = Matrix::from_fn(batch, 1, |r, _| if r % 2 == 0 { 1.0 } else { -1.0 });
        let mut head = ParamSet::new();
        // Tiny linear head folded into the model params for the test.
        let w_out = model.params.add("head.w", Init::XavierUniform.matrix(8, 1, 18));
        let _ = &mut head;
        let mut opt = Adam::new(5e-3);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..60 {
            let mut tape = Tape::new();
            let out = model.forward(&mut tape, &stack, batch);
            let w = tape.param(&model.params, w_out);
            let pred = tape.matmul(out.representations, w);
            let loss = tape.mse_loss(pred, &target);
            last_loss = tape.value(loss)[(0, 0)];
            first_loss.get_or_insert(last_loss);
            let grads = tape.backward(loss);
            opt.step(&mut model.params, &grads);
        }
        let first = first_loss.expect("ran");
        assert!(last_loss < first * 0.2, "training failed to reduce loss: {first} -> {last_loss}");
    }
}
