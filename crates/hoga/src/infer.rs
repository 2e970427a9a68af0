//! Tape-free inference entry points with selectable numeric precision.
//!
//! Training goes through [`crate::model::HogaModel::forward`], which records
//! every op on an autograd tape. Deployment-style scoring needs none of
//! that bookkeeping, so this module re-runs the identical mathematical
//! pipeline directly on [`Matrix`] values at one of three precisions:
//!
//! * [`Precision::Exact`] — replays the tape ops verbatim (same kernels,
//!   same order), so the representations are **bitwise identical** to
//!   `forward`'s. This is the oracle the differential tests pin the other
//!   modes against.
//! * [`Precision::Fast`] — routes the matmul family through the `*_fast`
//!   kernels (fused multiply-add, lane-parallel reductions) and the
//!   softmax/LayerNorm rows through their fast variants. Results carry the
//!   documented ULP-level bound of `docs/PERFORMANCE.md` instead of bit
//!   equality.
//! * [`Precision::Int8`] — quantizes activations per row and weights per
//!   column ([`hoga_tensor::QuantizedMatrix`] /
//!   [`hoga_tensor::QuantizedWeights`]), runs every hidden projection as an
//!   `i8×i8→i32` product, and dequantizes before the nonlinearities. The
//!   hop stack is quantized **once per layer** and shared by all four
//!   (×heads) projections. The tiny readout (`α` scoring, softmax,
//!   weighted hop sum) stays in f32 — see [`Int8Plan`].
//!
//! Weights quantize once per model via [`HogaModel::int8_plan`]; reusing a
//! plan across calls is deterministic (bitwise-identical outputs for
//! identical inputs).

use crate::model::{Aggregator, HogaModel};
use hoga_autograd::ParamId;
use hoga_tensor::{
    layernorm_forward, layernorm_rows_fast, parallel_blocks, qmatmul, softmax_rows,
    softmax_rows_fast, Matrix, QuantizedMatrix, QuantizedWeights,
};
use std::error::Error;
use std::fmt;

/// Typed shape/plan mismatch from the inference entry points
/// ([`HogaModel::try_infer`] / [`HogaModel::try_infer_int8`]). The serving
/// layer maps these to HTTP 4xx instead of unwinding a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// `hop_stack.rows() != batch * (num_hops + 1)`.
    HopStackRows {
        /// Rows the model geometry requires for the claimed batch.
        expect: usize,
        /// Rows the hop stack actually has.
        got: usize,
    },
    /// `hop_stack.cols() != input_dim`.
    FeatureWidth {
        /// The model's input feature dimension.
        expect: usize,
        /// Columns the hop stack actually has.
        got: usize,
    },
    /// [`Precision::Int8`] passed to [`HogaModel::try_infer`]: int8 needs a
    /// prebuilt [`Int8Plan`] so the quantization cost is explicit.
    NeedsInt8Plan,
    /// The [`Int8Plan`] was built for a model with different geometry.
    PlanGeometry {
        /// Human-readable description of the first mismatch found.
        detail: String,
    },
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::HopStackRows { expect, got } => {
                write!(f, "hop stack row mismatch: expected {expect} rows, got {got}")
            }
            Self::FeatureWidth { expect, got } => {
                write!(f, "feature width mismatch: expected {expect} cols, got {got}")
            }
            Self::NeedsInt8Plan => {
                write!(f, "int8 inference needs a weight plan: use int8_plan() + try_infer_int8()")
            }
            Self::PlanGeometry { detail } => write!(f, "int8 plan geometry mismatch: {detail}"),
        }
    }
}

impl Error for InferError {}

/// Resolved numeric mode for one `infer_impl` call: `Int8` has already
/// been paired with its validated plan, so the hot path carries no
/// `Option` to unwrap.
#[derive(Clone, Copy)]
enum Mode<'a> {
    Exact,
    Fast,
    Int8(&'a Int8Plan),
}

impl Mode<'_> {
    fn is_exact(&self) -> bool {
        matches!(self, Mode::Exact)
    }
}

/// Numeric contract of an inference pass; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Bitwise-identical replay of the training forward pass.
    Exact,
    /// Fused/lane-parallel f32 kernels, ULP-bounded against `Exact`.
    Fast,
    /// Row-quantized int8 projections, dequantized at each nonlinearity.
    Int8,
}

/// Outputs of an inference pass (the tape-free analogue of
/// [`crate::model::HogaOutput`]).
#[derive(Debug, Clone)]
pub struct InferOutput {
    /// Final node representations `Y`, shape `(batch, hidden_dim)`.
    pub representations: Matrix,
    /// Readout attention scores `cₖ`, shape `(batch, K)`; `None` for the
    /// [`Aggregator::Sum`] ablation.
    pub readout_scores: Option<Matrix>,
}

/// Per-head int8 weights.
struct Int8Head {
    wq: QuantizedWeights,
    wk: QuantizedWeights,
    wu: QuantizedWeights,
    wv: QuantizedWeights,
}

/// Per-layer int8 weights (LayerNorm's `γ`/`β` stay f32).
struct Int8Layer {
    heads: Vec<Int8Head>,
}

/// Column-quantized copies of every projection weight, built once per model
/// by [`HogaModel::int8_plan`] and reused across
/// [`HogaModel::try_infer_int8`] calls.
///
/// Only the hidden projections (`W_in`, `W_Q`, `W_K`, `W_U`, `W_V`) are
/// quantized: they dominate the MAC count. Biases, LayerNorm parameters and
/// the readout vector `α` remain f32 — the readout is a `(B·K) × 2d` by
/// `2d × 1` product, far too small to be worth the accuracy loss.
pub struct Int8Plan {
    w_in: QuantizedWeights,
    layers: Vec<Int8Layer>,
}

impl HogaModel {
    /// Quantizes the projection weights for [`Precision::Int8`] inference.
    ///
    /// Deterministic: the plan is a pure function of the current parameter
    /// values, so building it twice yields identical quantized tensors.
    pub fn int8_plan(&self) -> Int8Plan {
        let qw = |id: ParamId| QuantizedWeights::quantize(self.params.value(id));
        Int8Plan {
            w_in: qw(self.w_in),
            layers: self
                .layers
                .iter()
                .map(|layer| Int8Layer {
                    heads: layer
                        .heads
                        .iter()
                        .map(|h| Int8Head {
                            wq: qw(h.wq),
                            wk: qw(h.wk),
                            wu: qw(h.wu),
                            wv: qw(h.wv),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Tape-free forward pass at the requested f32 precision.
    ///
    /// `Precision::Exact` is bitwise identical to
    /// [`HogaModel::forward`][crate::model::HogaModel::forward];
    /// `Precision::Fast` is ULP-bounded against it. Shapes are validated up
    /// front, so a mismatch is a typed [`InferError`], never a panic.
    ///
    /// # Errors
    ///
    /// [`InferError::NeedsInt8Plan`] for [`Precision::Int8`] (use
    /// [`HogaModel::try_infer_int8`]); the shape variants when the hop
    /// stack disagrees with the model geometry.
    pub fn try_infer(
        &self,
        hop_stack: &Matrix,
        batch: usize,
        precision: Precision,
    ) -> Result<InferOutput, InferError> {
        let mode = match precision {
            Precision::Exact => Mode::Exact,
            Precision::Fast => Mode::Fast,
            Precision::Int8 => return Err(InferError::NeedsInt8Plan),
        };
        self.check_shapes(hop_stack, batch)?;
        Ok(self.infer_impl(hop_stack, batch, mode))
    }

    /// Tape-free int8 forward pass using a prebuilt [`Int8Plan`]: validates
    /// the hop-stack shapes and the plan geometry (layer/head counts and
    /// projection dimensions) up front, so the hot loop below indexes the
    /// plan without any reachable panic.
    ///
    /// # Errors
    ///
    /// The [`InferError`] shape variants, or
    /// [`InferError::PlanGeometry`] when `plan` was built for a different
    /// model.
    pub fn try_infer_int8(
        &self,
        plan: &Int8Plan,
        hop_stack: &Matrix,
        batch: usize,
    ) -> Result<InferOutput, InferError> {
        self.check_shapes(hop_stack, batch)?;
        self.check_plan(plan)?;
        Ok(self.infer_impl(hop_stack, batch, Mode::Int8(plan)))
    }

    fn check_shapes(&self, hop_stack: &Matrix, batch: usize) -> Result<(), InferError> {
        let k1 = self.config.num_hops + 1;
        if hop_stack.rows() != batch * k1 {
            return Err(InferError::HopStackRows { expect: batch * k1, got: hop_stack.rows() });
        }
        if hop_stack.cols() != self.config.input_dim {
            return Err(InferError::FeatureWidth {
                expect: self.config.input_dim,
                got: hop_stack.cols(),
            });
        }
        Ok(())
    }

    /// Every plan index and dimension used by `infer_impl` is checked here,
    /// which is what makes the int8 hot loop panic-free for validated
    /// inputs.
    fn check_plan(&self, plan: &Int8Plan) -> Result<(), InferError> {
        let geom = |detail: String| InferError::PlanGeometry { detail };
        if plan.w_in.k() != self.config.input_dim {
            return Err(geom(format!(
                "w_in expects {} input features, model has {}",
                plan.w_in.k(),
                self.config.input_dim
            )));
        }
        if plan.layers.len() != self.layers.len() {
            return Err(geom(format!(
                "plan has {} layers, model has {}",
                plan.layers.len(),
                self.layers.len()
            )));
        }
        for (li, (pl, ml)) in plan.layers.iter().zip(&self.layers).enumerate() {
            if pl.heads.len() != ml.heads.len() {
                return Err(geom(format!(
                    "layer {li}: plan has {} heads, model has {}",
                    pl.heads.len(),
                    ml.heads.len()
                )));
            }
            let head_dim = self.config.hidden_dim / self.config.num_heads.max(1);
            for (hi, ph) in pl.heads.iter().enumerate() {
                for (name, w) in [("wq", &ph.wq), ("wk", &ph.wk), ("wu", &ph.wu), ("wv", &ph.wv)] {
                    if w.k() != self.config.hidden_dim || w.n() != head_dim {
                        return Err(geom(format!(
                            "layer {li} head {hi} {name}: plan is {}x{}, model needs {}x{}",
                            w.k(),
                            w.n(),
                            self.config.hidden_dim,
                            head_dim
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// The forward is a loop over independent node blocks (the paper's
    /// §III: a node's `(K+1) × d` sequence goes through Eqs. 5–10 alone).
    /// Each block of [`block_nodes`] nodes takes its contiguous rows of the
    /// hop stack through [`Self::infer_block`] and writes its rows of the
    /// outputs, inside one parallel region with every kernel inline on its
    /// worker. Every step is row- or node-local, so block boundaries cannot
    /// change a bit of the result.
    fn infer_impl(&self, hop_stack: &Matrix, batch: usize, mode: Mode<'_>) -> InferOutput {
        let (k1, d, width) = (self.config.num_hops + 1, self.config.hidden_dim, hop_stack.cols());
        // The Sum ablation has no readout scores: zero score columns.
        let scored = self.config.aggregator != Aggregator::Sum;
        let k = if scored { self.config.num_hops } else { 0 };
        let block = block_nodes(k1, d);
        let gather = readout_gather(block.min(batch), k1);
        let mut reps = Matrix::zeros(batch, d);
        let mut scores = Matrix::zeros(batch, k);
        // One item per block: its first node and its rows of the two outputs.
        let mut score_rows = scores.as_mut_slice().chunks_mut((block * k).max(1));
        let blocks = reps.as_mut_slice().chunks_mut(block * d).enumerate();
        let blocks =
            blocks.map(|(i, rows)| (i * block, rows, score_rows.next().unwrap_or_default()));
        parallel_blocks(blocks.collect(), |(first, reps, scores)| {
            let nodes = reps.len() / d;
            let rows = first * k1 * width..(first + nodes) * k1 * width;
            let rows = hop_stack.as_slice().get(rows).unwrap_or_default();
            let stack = Matrix::from_vec(nodes * k1, width, rows.to_vec());
            let out = self.infer_block(&stack, nodes, mode, &gather);
            reps.copy_from_slice(out.representations.as_slice());
            if let Some(s) = out.readout_scores {
                scores.copy_from_slice(s.as_slice());
            }
        });
        InferOutput { representations: reps, readout_scores: scored.then_some(scores) }
    }

    /// Eqs. 5–10 for one block of `batch ≤ block_nodes` nodes: the tape
    /// ops replayed verbatim on intermediates small enough to stay
    /// cache-resident and be recycled by the allocator's bins.
    fn infer_block(
        &self,
        hop_stack: &Matrix,
        batch: usize,
        mode: Mode<'_>,
        gather: &[Vec<usize>; 3],
    ) -> InferOutput {
        let k1 = self.config.num_hops + 1;
        let k = self.config.num_hops;

        let value = |id: ParamId| self.params.value(id);

        // Input projection H = X W_in + b_in. Int8 quantizes the raw hop
        // stack once and projects in integer arithmetic.
        let mut h = match mode {
            Mode::Exact => hop_stack.matmul(value(self.w_in)),
            Mode::Fast => hop_stack.matmul_fast(value(self.w_in)),
            Mode::Int8(plan) => qmatmul(&QuantizedMatrix::quantize(hop_stack), &plan.w_in),
        };
        add_bias_rows(&mut h, value(self.b_in));

        // Gated self-attention stack (Eqs. 5-9), mirroring forward_var.
        if self.config.aggregator != Aggregator::Sum {
            for (li, layer) in self.layers.iter().enumerate() {
                // Int8: quantize the layer input once; all per-head
                // projections share the same quantized activations.
                let qh = match mode {
                    Mode::Int8(_) => Some(QuantizedMatrix::quantize(&h)),
                    _ => None,
                };
                let project =
                    |w: ParamId, qw: fn(&Int8Head) -> &QuantizedWeights, hi: usize| match mode {
                        Mode::Exact => h.matmul(value(w)),
                        Mode::Fast => h.matmul_fast(value(w)),
                        Mode::Int8(plan) => match (plan.layers.get(li), qh.as_ref()) {
                            // check_plan proved the geometry; an absent
                            // entry reduces to the f32 path rather than
                            // introducing a panic site.
                            (Some(pl), Some(q)) => match pl.heads.get(hi) {
                                Some(head) => qmatmul(q, qw(head)),
                                None => h.matmul(value(w)),
                            },
                            _ => h.matmul(value(w)),
                        },
                    };
                let mut head_outputs = Vec::with_capacity(layer.heads.len());
                for (hi, head) in layer.heads.iter().enumerate() {
                    let u = project(head.wu, |p| &p.wu, hi);
                    let v = project(head.wv, |p| &p.wv, hi);
                    let gated = match self.config.aggregator {
                        Aggregator::GatedSelfAttention => {
                            let q = project(head.wq, |p| &p.wq, hi);
                            let kk = project(head.wk, |p| &p.wk, hi);
                            // Attention itself stays f32 in every mode: the
                            // score tile is (K+1)², a rounding-sensitive
                            // softmax input and a negligible MAC share.
                            let (logits, s, sv);
                            if mode.is_exact() {
                                logits = q.batched_matmul_nt(&kk, batch);
                                s = softmax_rows(&logits);
                                sv = s.batched_matmul(&v, batch);
                            } else {
                                logits = q.batched_matmul_nt_fast(&kk, batch);
                                s = softmax_rows_fast(&logits);
                                sv = s.batched_matmul_fast(&v, batch);
                            }
                            u.hadamard(&sv)
                        }
                        // GateOnly gates without attention; Sum never
                        // enters this loop (guarded above), so the gate
                        // expression is the only non-attention shape.
                        Aggregator::GateOnly | Aggregator::Sum => u.hadamard(&v),
                    };
                    head_outputs.push(gated);
                }
                // A single head's output moves out; a layer without heads
                // (HogaModel::new refuses one) would be the identity.
                let Some(cat) = head_outputs.into_iter().reduce(|cat, ho| cat.concat_cols(&ho))
                else {
                    continue;
                };
                let gamma = value(layer.gamma);
                let beta = value(layer.beta);
                let normed = if mode.is_exact() {
                    layernorm_forward(&cat, gamma.row(0), beta.row(0)).0
                } else {
                    layernorm_rows_fast(&cat, gamma.row(0), beta.row(0))
                };
                h = normed.map(|a| a.max(0.0));
            }
        }

        // Readout (Eq. 10), always f32 — Int8 dequantized above. The gather
        // lists are node-major, so a ragged last block uses their prefixes.
        let [idx0, idx0_rep, idx_rest] = gather;
        let idx0 = idx0.get(..batch).unwrap_or_default();
        let h0 = h.select_rows(idx0);
        if self.config.aggregator == Aggregator::Sum {
            let mut y = h0;
            for hop in 1..k1 {
                let idx: Vec<usize> = idx0.iter().map(|&first| first + hop).collect();
                y = &y + &h.select_rows(&idx);
            }
            return InferOutput { representations: y, readout_scores: None };
        }

        let h0_rep = h.select_rows(idx0_rep.get(..batch * k).unwrap_or_default());
        let h_rest = h.select_rows(idx_rest.get(..batch * k).unwrap_or_default());
        let cat = h0_rep.concat_cols(&h_rest);
        let alpha = value(self.alpha);
        let (scores, weighted);
        if mode.is_exact() {
            let logits = Matrix::from_vec(batch, k, cat.matmul(alpha).into_vec());
            scores = softmax_rows(&logits);
            weighted = scores.batched_matmul(&h_rest, batch);
        } else {
            let logits = Matrix::from_vec(batch, k, cat.matmul_fast(alpha).into_vec());
            scores = softmax_rows_fast(&logits);
            weighted = scores.batched_matmul_fast(&h_rest, batch);
        }
        let y = &h0 + &weighted;
        InferOutput { representations: y, readout_scores: Some(scores) }
    }
}

/// Floats in one block-sized `(block · (K+1)) × hidden_dim` intermediate:
/// 72 KiB, so the handful a block keeps live stay cache-resident and under
/// the allocator's `mmap` threshold (no page-fault/trim cycle per kernel).
const BLOCK_ELEMS: usize = 18 * 1024;

/// Nodes per block of the forward — a pure function of the shapes (32 at
/// the paper's `K = 8`, `d = 64`), never of the thread count, the batch or
/// any setting. `docs/PERFORMANCE.md` records the sweep behind the size.
fn block_nodes(k1: usize, hidden_dim: usize) -> usize {
    (BLOCK_ELEMS / (k1 * hidden_dim).max(1)).max(1)
}

/// Row indices of the readout gathers for one full block, built once per
/// call: `Ĥ₀`, `Ĥ₀` repeated `K` times, and `Ĥ₁..Ĥ_K`.
fn readout_gather(batch: usize, k1: usize) -> [Vec<usize>; 3] {
    [
        (0..batch).map(|b| b * k1).collect(),
        (0..batch).flat_map(|b| std::iter::repeat_n(b * k1, k1 - 1)).collect(),
        (0..batch).flat_map(|b| (1..k1).map(move |hop| b * k1 + hop)).collect(),
    ]
}

/// Adds a `1 × d` bias row to every row of `x`, in the same element order
/// as the tape's `add_bias` (required for the `Exact` bitwise contract).
fn add_bias_rows(x: &mut Matrix, bias: &Matrix) {
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(bias.cols(), x.cols(), "bias width mismatch");
    for r in 0..x.rows() {
        for (o, &b) in x.row_mut(r).iter_mut().zip(bias.row(0)) {
            *o += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::HogaConfig;
    use hoga_autograd::Tape;
    use hoga_tensor::{set_threads, Init};
    use std::ops::Range;

    const INPUT: usize = 5;
    const HIDDEN: usize = 32;
    const HOPS: usize = 5;
    const K1: usize = HOPS + 1;

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The hop-stack rows of a contiguous node range.
    fn rows_of(stack: &Matrix, nodes: Range<usize>) -> Matrix {
        let rows = &stack.as_slice()[nodes.start * K1 * INPUT..nodes.end * K1 * INPUT];
        Matrix::from_vec(nodes.len() * K1, INPUT, rows.to_vec())
    }

    /// Representation and readout-score bits (none under `Sum`) of the
    /// `Exact`, `Fast` and `Int8` forwards, in that order.
    fn all_modes(
        (model, plan): &(HogaModel, Int8Plan),
        stack: &Matrix,
        batch: usize,
    ) -> [(Vec<u32>, Vec<u32>); 3] {
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

    /// {1, 4 heads} × {1, 2 layers} × the three aggregators, each model
    /// with its int8 plan.
    fn grid() -> Vec<(HogaModel, Int8Plan)> {
        let mut models = Vec::new();
        for aggregator in [Aggregator::GatedSelfAttention, Aggregator::GateOnly, Aggregator::Sum] {
            for (heads, layers) in [(1, 1), (4, 1), (1, 2), (4, 2)] {
                let cfg = HogaConfig::new(INPUT, HIDDEN, HOPS)
                    .with_heads(heads)
                    .with_layers(layers)
                    .with_aggregator(aggregator);
                let model = HogaModel::new(&cfg, 17 + models.len() as u64);
                let plan = model.int8_plan();
                models.push((model, plan));
            }
        }
        models
    }

    /// Node independence (the paper's §III) as a property: a batch is, row
    /// for row and bit for bit, its nodes inferred alone — below, at, just
    /// past and several times past one block, with a ragged last block.
    #[test]
    fn a_batch_is_bitwise_its_nodes_alone_across_block_boundaries() {
        let block = block_nodes(K1, HIDDEN);
        let most = 3 * block + 5;
        let stack = Init::SmallUniform.matrix(most * K1, INPUT, 7);
        for (mi, model) in grid().iter().enumerate() {
            // Every node alone, concatenated per mode.
            let mut alone: [(Vec<u32>, Vec<u32>); 3] = Default::default();
            for node in 0..most {
                let one = all_modes(model, &rows_of(&stack, node..node + 1), 1);
                for (all, one) in alone.iter_mut().zip(one) {
                    all.0.extend(one.0);
                    all.1.extend(one.1);
                }
            }
            for batch in [1, block - 1, block, block + 1, most] {
                let sub = rows_of(&stack, 0..batch);
                let got = all_modes(model, &sub, batch);
                for (mode, (got, alone)) in got.iter().zip(&alone).enumerate() {
                    let k = got.1.len() / batch;
                    assert_eq!(
                        got.0,
                        alone.0[..batch * HIDDEN],
                        "model {mi} mode {mode} batch {batch}"
                    );
                    assert_eq!(
                        got.1,
                        alone.1[..batch * k],
                        "model {mi} mode {mode} batch {batch}: scores"
                    );
                }
                // And `Exact` is still the training forward, bit for bit.
                let mut tape = Tape::new();
                let trained = model.0.forward(&mut tape, &sub, batch);
                assert_eq!(
                    got[0].0,
                    bits(tape.value(trained.representations)),
                    "model {mi} batch {batch}"
                );
                let scores =
                    trained.readout_scores.map(|s| bits(tape.value(s))).unwrap_or_default();
                assert_eq!(got[0].1, scores, "model {mi} batch {batch}: scores vs tape");
            }
        }
    }

    /// Which worker runs a block depends on the thread count; what the
    /// block computes does not.
    #[test]
    fn blocked_forward_is_bitwise_identical_at_every_thread_count() {
        let batch = 3 * block_nodes(K1, HIDDEN) + 5;
        let stack = Init::SmallUniform.matrix(batch * K1, INPUT, 9);
        for (mi, model) in grid().iter().enumerate() {
            set_threads(1);
            let want = all_modes(model, &stack, batch);
            for threads in [2, 3, 8] {
                set_threads(threads);
                assert_eq!(all_modes(model, &stack, batch), want, "model {mi}, {threads} threads");
            }
        }
        set_threads(0);
    }

    #[test]
    fn block_size_is_a_function_of_the_shapes_alone() {
        assert_eq!(block_nodes(9, 64), 32, "the paper's K = 8, d = 64");
        assert_eq!(block_nodes(9, 64) * 9 * 64, BLOCK_ELEMS);
        assert_eq!(block_nodes(4, 8), 576);
        // Never zero, however wide the model.
        assert_eq!(block_nodes(65, 1024), 1);
    }
}
