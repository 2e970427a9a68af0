//! Tape-free inference: the model's one forward
//! (`HogaModel::forward_var`, Eqs. 5–10) run on [`NoTape`], a holder that
//! computes each op without recording it, at one of three precisions:
//!
//! * [`Precision::Exact`] — the tape's kernels, so the representations are
//!   **bitwise identical** to `forward`'s on a tape. This is the oracle the
//!   differential tests pin the other modes against.
//! * [`Precision::Fast`] — every dense product fused (`Gemm::fused`:
//!   fused multiply-add, lane-parallel reductions) and the
//!   softmax/LayerNorm rows through their fast variants. Results carry the
//!   documented ULP-level bound of `docs/PERFORMANCE.md` instead of bit
//!   equality.
//! * [`Precision::Int8`] — `Fast`, except that every product with a weight
//!   of the model's [`Int8Plan`] (`W_in`, `W_Q`, `W_K`, `W_U`, `W_V`) is an
//!   `i8×i8→i32` product ([`hoga_tensor::qmatmul`]) dequantized before the
//!   nonlinearities: the weight quantized per column, the left operand per
//!   row and only once however many weights it meets, so the layer's input
//!   is quantized once for all four projections. The tiny readout
//!   (`α` scoring, softmax, weighted hop sum) stays in f32.
//!
//! At every precision the readout of Eq. 10 reads `Ĥ` in place
//! ([`hoga_tensor::readout_logits`], [`hoga_tensor::readout_sum`]): its two
//! products run the exact chain in every mode, so they give the tape's
//! bits, and only its softmax follows the mode.
//!
//! Weights quantize once per model via [`HogaModel::int8_plan`]; reusing a
//! plan across calls is deterministic (bitwise-identical outputs for
//! identical inputs).

use crate::model::{Aggregator, HogaModel};
use hoga_autograd::{NodeBlock, Ops, ParamId, ParamSet};
use hoga_tensor::recycle::{give_back, retire};
use hoga_tensor::{
    layernorm_rows, layernorm_rows_fast, parallel_blocks, qmatmul, readout_logits, readout_sum,
    softmax_rows, softmax_rows_fast, CsrMatrix, Gemm, Matrix, QuantizedMatrix, QuantizedWeights,
};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

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

/// The kernels a [`NoTape`] runs: `Int8` has already been paired with its
/// validated plan.
#[derive(Clone, Copy, Default)]
enum Mode<'a> {
    #[default]
    Exact,
    Fast,
    Int8(&'a Int8Plan),
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

/// Column-quantized copies of every projection weight, built once per model
/// by [`HogaModel::int8_plan`] and reused across
/// [`HogaModel::try_infer_int8`] calls.
///
/// Only the hidden projections (`W_in`, `W_Q`, `W_K`, `W_U`, `W_V`) are
/// quantized: they dominate the MAC count. Biases, LayerNorm parameters and
/// the readout vector `α` remain f32 — the readout's two products are
/// `2d` and `K` multiply-adds an output, far too few to be worth the
/// accuracy loss.
pub struct Int8Plan {
    /// Each projection weight with its quantized copy, in
    /// [`HogaModel::projections`] order.
    weights: Vec<(ParamId, QuantizedWeights)>,
}

impl HogaModel {
    /// The projection weights an [`Int8Plan`] quantizes, in plan order.
    fn projections(&self) -> [ParamId; 5] {
        [self.w_in, self.wq, self.wk, self.wu, self.wv]
    }

    /// Quantizes the projection weights for [`Precision::Int8`] inference.
    ///
    /// Deterministic: the plan is a pure function of the current parameter
    /// values, so building it twice yields identical quantized tensors.
    pub fn int8_plan(&self) -> Int8Plan {
        let quantize = |id| (id, QuantizedWeights::quantize(self.params.value(id)));
        Int8Plan { weights: self.projections().into_iter().map(quantize).collect() }
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
    /// the hop-stack shapes and the plan geometry (weight count and
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

    /// The plan must quantize exactly this model's projections, each at its
    /// shape, so every weight the int8 forward multiplies has its copy.
    fn check_plan(&self, plan: &Int8Plan) -> Result<(), InferError> {
        let geom = |detail: String| InferError::PlanGeometry { detail };
        let want = self.projections();
        if plan.weights.len() != want.len() {
            return Err(geom(format!(
                "plan quantizes {} weights, model has {}",
                plan.weights.len(),
                want.len()
            )));
        }
        for ((id, w), &want) in plan.weights.iter().zip(&want) {
            let shape = self.params.value(want).shape();
            if *id != want || (w.k(), w.n()) != shape {
                return Err(geom(format!(
                    "{}: plan is {}x{}, model needs {}x{}",
                    self.params.name(want),
                    w.k(),
                    w.n(),
                    shape.0,
                    shape.1
                )));
            }
        }
        Ok(())
    }

    /// The forward is a loop over independent node blocks (the paper's
    /// §III: a node's `(K+1) × d` sequence goes through Eqs. 5–10 alone).
    /// Each block of [`block_nodes`] nodes takes its contiguous rows of the
    /// hop stack through [`HogaModel::forward_var`] on a [`NoTape`] and
    /// writes its rows of the outputs, inside one parallel region with
    /// every kernel inline on its worker. Every step is row- or node-local,
    /// so block boundaries cannot change a bit of the result.
    ///
    /// A block is built in one of the model's pool lists (`Pool::run`): it
    /// copies its hop rows into pooled storage, and its holder gives every
    /// value back and retires once the outputs are copied out, so the next
    /// block — on whichever worker, in this call or the next — finds the
    /// same buffers.
    fn infer_impl(&self, hop_stack: &Matrix, batch: usize, mode: Mode<'_>) -> InferOutput {
        let (k1, d, width) = (self.config.num_hops + 1, self.config.hidden_dim, hop_stack.cols());
        // The Sum ablation has no readout scores: zero score columns.
        let scored = self.config.aggregator != Aggregator::Sum;
        let k = if scored { self.config.num_hops } else { 0 };
        let blocks: Vec<NodeBlock> = NodeBlock::cover(batch, block_nodes(k1, d)).collect();
        let mut reps = Matrix::zeros(batch, d);
        let mut scores = Matrix::zeros(batch, k);
        // One item per block: its nodes and its rows of the two outputs.
        let (reps_runs, score_runs) = (
            NodeBlock::runs(&blocks, reps.as_mut_slice(), d),
            NodeBlock::runs(&blocks, scores.as_mut_slice(), k),
        );
        let work = blocks.into_iter().zip(reps_runs).zip(score_runs).collect();
        parallel_blocks(work, |((block, reps), scores)| {
            self.pool.run(|| {
                let (first, nodes) = (block.nodes().start, block.nodes().len());
                let rows = first * k1 * width..(first + nodes) * k1 * width;
                let rows = hop_stack.as_slice().get(rows).unwrap_or_default();
                // `zeros` draws from the lent list; a `to_vec` would not.
                let mut stack = Matrix::zeros(nodes * k1, width);
                stack.as_mut_slice().copy_from_slice(rows);
                let mut ops = NoTape::new();
                ops.mode = mode;
                let x = ops.constant(stack);
                let out = self.forward_var(&mut ops, x, nodes);
                reps.copy_from_slice(ops.value(out.representations).as_slice());
                if let Some(s) = out.readout_scores {
                    scores.copy_from_slice(ops.value(s).as_slice());
                }
            });
        });
        InferOutput { representations: reps, readout_scores: scored.then_some(scores) }
    }
}

/// The tape-free holder: each [`Ops`] call computes its value at the
/// holder's precision (see the [module docs](self)) without recording
/// anything, and parameters are borrowed, never copied. A value's storage
/// is given back (`hoga_tensor::recycle`) when the forward releases it
/// after its last reader; what is left is given back when the holder drops,
/// and the holder retires, as a [`hoga_autograd::Tape`] does. Inside a
/// `Pool::run` that storage goes on the lent list; outside one it is freed.
/// [`NoTape::new`] computes at `Exact`, so a forward on it has the tape's
/// bits: evaluation runs GCN, GraphSAGE and the graph heads on it that way.
/// The sparse product and the segment mean run the tape's kernels at every
/// precision, and the readout ([`Ops::readout`]) reads `Ĥ` in place with
/// the tape's bits.
#[derive(Default)]
pub struct NoTape<'p> {
    values: Vec<Value<'p>>,
    mode: Mode<'p>,
    /// The shape of every value the holder took, in order.
    #[cfg(test)]
    shapes: Vec<(usize, usize)>,
}

/// Handle to a value a [`NoTape`] holds.
#[derive(Debug, Clone, Copy)]
pub struct Slot(usize);

/// A value a [`NoTape`] holds.
struct Value<'p> {
    /// An op's result, or a parameter's borrowed value.
    matrix: Cow<'p, Matrix>,
    /// The plan's column-quantized copy of this weight (`Int8` only).
    columns: Option<&'p QuantizedWeights>,
    /// This value's row-quantized copy, made for its first int8 product.
    rows: Option<QuantizedMatrix>,
}

impl<'p> NoTape<'p> {
    /// An empty holder computing at [`Precision::Exact`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The value of `v`.
    pub fn value(&self, v: Slot) -> &Matrix {
        &self.values[v.0].matrix
    }

    fn push(&mut self, matrix: Cow<'p, Matrix>, columns: Option<&'p QuantizedWeights>) -> Slot {
        #[cfg(test)]
        self.shapes.push(matrix.shape());
        self.values.push(Value { matrix, columns, rows: None });
        Slot(self.values.len() - 1)
    }

    fn computed(&mut self, matrix: Matrix) -> Slot {
        self.push(Cow::Owned(matrix), None)
    }

    fn exact(&self) -> bool {
        matches!(self.mode, Mode::Exact)
    }
}

impl Drop for NoTape<'_> {
    fn drop(&mut self) {
        for value in self.values.drain(..) {
            if let Cow::Owned(matrix) = value.matrix {
                give_back(matrix);
            }
        }
        retire();
    }
}

impl<'p> Ops<'p> for NoTape<'p> {
    type Var = Slot;

    fn constant(&mut self, value: Matrix) -> Slot {
        self.computed(value)
    }

    fn param(&mut self, params: &'p ParamSet, id: ParamId) -> Slot {
        let columns = match self.mode {
            Mode::Int8(plan) => plan.weights.iter().find(|(w, _)| *w == id).map(|(_, q)| q),
            Mode::Exact | Mode::Fast => None,
        };
        self.push(Cow::Borrowed(params.value(id)), columns)
    }

    fn add(&mut self, a: Slot, b: Slot) -> Slot {
        let v = self.value(a) + self.value(b);
        self.computed(v)
    }

    fn hadamard(&mut self, a: Slot, b: Slot) -> Slot {
        let v = self.value(a).hadamard(self.value(b));
        self.computed(v)
    }

    fn add_bias(&mut self, x: Slot, bias: Slot) -> Slot {
        let mut v = self.value(x).clone();
        v.add_bias(self.value(bias));
        self.computed(v)
    }

    fn gemm(&mut self, a: Slot, b: Slot, g: Gemm) -> Slot {
        let v = match self.values[b.0].columns {
            Some(w) if g == Gemm::NN => {
                let a = &mut self.values[a.0];
                qmatmul(a.rows.get_or_insert_with(|| QuantizedMatrix::quantize(&a.matrix)), w)
            }
            _ => self.value(a).gemm(self.value(b), Gemm { fused: g.fused || !self.exact(), ..g }),
        };
        self.computed(v)
    }

    fn relu(&mut self, x: Slot) -> Slot {
        let v = self.value(x).map(|a| a.max(0.0));
        self.computed(v)
    }

    fn softmax_rows(&mut self, x: Slot) -> Slot {
        let x = self.value(x);
        let v = if self.exact() { softmax_rows(x) } else { softmax_rows_fast(x) };
        self.computed(v)
    }

    fn layer_norm(&mut self, x: Slot, gamma: Slot, beta: Slot) -> Slot {
        let (x, gamma, beta) = (self.value(x), self.value(gamma), self.value(beta));
        assert_eq!((gamma.rows(), beta.rows()), (1, 1), "gamma/beta must be row vectors");
        let v = if self.exact() {
            layernorm_rows(x, gamma.row(0), beta.row(0))
        } else {
            layernorm_rows_fast(x, gamma.row(0), beta.row(0))
        };
        self.computed(v)
    }

    fn concat_cols(&mut self, a: Slot, b: Slot) -> Slot {
        let v = self.value(a).concat_cols(self.value(b));
        self.computed(v)
    }

    fn select_rows(&mut self, x: Slot, indices: Vec<usize>) -> Slot {
        let v = self.value(x).select_rows(&indices);
        self.computed(v)
    }

    fn reshape(&mut self, x: Slot, rows: usize, cols: usize) -> Slot {
        let x = self.value(x);
        assert_eq!(rows * cols, x.len(), "reshape element count mismatch");
        let v = Matrix::from_vec(rows, cols, x.clone().into_vec());
        self.computed(v)
    }

    fn spmm(&mut self, adj: &Arc<CsrMatrix>, _adj_t: &Arc<CsrMatrix>, x: Slot) -> Slot {
        let v = adj.spmm(self.value(x));
        self.computed(v)
    }

    fn segment_mean(&mut self, x: Slot, segments: Vec<(usize, usize)>) -> Slot {
        let v = self.value(x).segment_mean(&segments);
        self.computed(v)
    }

    /// Eq. 10 on `h` in place ([`readout_logits`], [`readout_sum`]): no
    /// gather, no `[Ĥ₀ ‖ Ĥₖ]`, and the default body's bits at every
    /// precision, since both of its products run the exact chain in every
    /// mode. The softmax is this holder's own, exact or fast.
    fn readout(
        &mut self,
        h: Slot,
        params: &'p ParamSet,
        alpha: ParamId,
        batch: usize,
        k1: usize,
    ) -> (Slot, Slot) {
        assert_eq!(self.value(h).rows(), batch * k1, "readout: hop stack row mismatch");
        let logits = readout_logits(self.value(h), params.value(alpha).as_slice(), k1);
        let logits = self.computed(logits);
        let scores = self.softmax_rows(logits);
        let y = readout_sum(self.value(h), self.value(scores), k1);
        self.release(&[h, logits]);
        (self.computed(y), scores)
    }

    fn release(&mut self, done: &[Slot]) {
        for v in done {
            let value = &mut self.values[v.0];
            value.rows = None;
            let empty = Cow::Owned(Matrix::from_vec(0, 0, Vec::new()));
            if let Cow::Owned(matrix) = std::mem::replace(&mut value.matrix, empty) {
                give_back(matrix);
            }
        }
    }
}

/// Floats in one block-sized `(block · (K+1)) × hidden_dim` intermediate:
/// 72 KiB, so the handful a block keeps live stay cache-resident and under
/// the allocator's `mmap` threshold (128 KiB by default); the model's pool
/// keeps them from block to block. It is the largest value of the tape-free
/// forward, whose readout reads `Ĥ` in place. A tape's readout still builds
/// `(block · K) × 2·hidden_dim` values, 128 KiB at the paper's shapes: the
/// concat `[Ĥ₀ ‖ Ĥₖ]` forward and its gradient backward.
const BLOCK_ELEMS: usize = 18 * 1024;

/// Nodes per block of the forward, tape-free here and recorded in the
/// node-blocked training step — a pure function of the shapes (32 at the
/// paper's `K = 8`, `d = 64`), never of the thread count, the batch or any
/// setting. `docs/PERFORMANCE.md` records the sweep behind the size.
pub fn block_nodes(k1: usize, hidden_dim: usize) -> usize {
    (BLOCK_ELEMS / (k1 * hidden_dim).max(1)).max(1)
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

    /// The three aggregators, each model with its int8 plan.
    fn grid() -> Vec<(HogaModel, Int8Plan)> {
        [Aggregator::GatedSelfAttention, Aggregator::GateOnly, Aggregator::Sum]
            .into_iter()
            .zip(17..)
            .map(|(aggregator, seed)| {
                let cfg = HogaConfig::new(INPUT, HIDDEN, HOPS).with_aggregator(aggregator);
                let model = HogaModel::new(&cfg, seed);
                let plan = model.int8_plan();
                (model, plan)
            })
            .collect()
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

    /// The tape-free readout reads `Ĥ` in place: at the paper's shapes, in
    /// every mode, no value the holder takes in a block's forward is the
    /// tape's `B·K × 2d` concat `[Ĥ₀ ‖ Ĥₖ]`, and none outgrows a block's
    /// `B·(K+1) × d` intermediates.
    #[test]
    fn the_tape_free_readout_builds_no_concat() {
        let (k1, d) = (9, 64);
        let nodes = block_nodes(k1, d);
        let model = HogaModel::new(&HogaConfig::new(INPUT, d, k1 - 1), 5);
        let plan = model.int8_plan();
        let stack = Init::SmallUniform.matrix(nodes * k1, INPUT, 6);
        for (name, mode) in
            [("exact", Mode::Exact), ("fast", Mode::Fast), ("int8", Mode::Int8(&plan))]
        {
            let mut ops = NoTape::new();
            ops.mode = mode;
            let x = ops.constant(stack.clone());
            assert!(model.forward_var(&mut ops, x, nodes).readout_scores.is_some());
            let concat = (nodes * (k1 - 1), 2 * d);
            assert!(!ops.shapes.contains(&concat), "{name}: holds {concat:?}: {:?}", ops.shapes);
            let largest = ops.shapes.iter().map(|(r, c)| r * c).max();
            assert_eq!(largest, Some(BLOCK_ELEMS), "{name}: {:?}", ops.shapes);
        }
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
