//! The ops a model's forward is written in, once, for every holder of its
//! values.

use crate::params::{ParamId, ParamSet};
use hoga_tensor::{CsrMatrix, Gemm, Matrix};
use std::sync::Arc;

/// The forward ops of the models, over a holder of their values (dfdx's
/// tape-holder idiom): a [`Tape`](crate::Tape) records each op for the
/// backward sweep, and the tape-free holder of `hoga_core::infer` only
/// computes it. A forward generic over `Ops` is therefore one transcription
/// that trains and serves.
///
/// A holder hands out cheap [`Ops::Var`] handles to the values it holds,
/// meaningful only to that holder, and may borrow a parameter's value for
/// `'p`. Every op panics when its operands' shapes disagree, and
/// [`Ops::param`] when `id` does not belong to `params`.
pub trait Ops<'p> {
    /// Handle to a value the holder holds.
    type Var: Copy;

    /// Holds a non-trainable input.
    fn constant(&mut self, value: Matrix) -> Self::Var;

    /// Holds trainable parameter `id` at its current value.
    fn param(&mut self, params: &'p ParamSet, id: ParamId) -> Self::Var;

    /// Element-wise sum.
    fn add(&mut self, a: Self::Var, b: Self::Var) -> Self::Var;

    /// Element-wise (Hadamard) product — the gating `U ⊙ V` of Eq. 6.
    fn hadamard(&mut self, a: Self::Var, b: Self::Var) -> Self::Var;

    /// Adds the `1 × d` bias row `bias` to every row of `x`.
    fn add_bias(&mut self, x: Self::Var, bias: Self::Var) -> Self::Var;

    /// The dense product `g` describes — `a · b`, `a · bᵀ` or `aᵀ · b`, of
    /// the whole operands or of stacked blocks (see [`Matrix::gemm`]). A
    /// tape's backward runs exact products whatever `g.fused` says.
    fn gemm(&mut self, a: Self::Var, b: Self::Var, g: Gemm) -> Self::Var;

    /// Matrix product `a · b` (the projections of Eq. 5).
    fn matmul(&mut self, a: Self::Var, b: Self::Var) -> Self::Var {
        self.gemm(a, b, Gemm::NN)
    }

    /// Batched block-diagonal product `a_i · b_i` — Eq. 7's `S·V`.
    fn batched_matmul(&mut self, a: Self::Var, b: Self::Var, batch: usize) -> Self::Var {
        self.gemm(a, b, Gemm::NN.batched(batch))
    }

    /// Batched product `a_i · b_iᵀ` — the per-node attention logits `QKᵀ` of
    /// Eq. 7.
    fn batched_matmul_nt(&mut self, a: Self::Var, b: Self::Var, batch: usize) -> Self::Var {
        self.gemm(a, b, Gemm::NT.batched(batch))
    }

    /// Rectified linear unit.
    fn relu(&mut self, x: Self::Var) -> Self::Var;

    /// Row-wise softmax (Eq. 7 / Eq. 10 of the paper).
    fn softmax_rows(&mut self, x: Self::Var) -> Self::Var;

    /// Row-wise LayerNorm with trainable `1 × d` rows `gamma` and `beta`.
    fn layer_norm(&mut self, x: Self::Var, gamma: Self::Var, beta: Self::Var) -> Self::Var;

    /// Horizontal concatenation `[a ‖ b]` (the readout concat of Eq. 10).
    fn concat_cols(&mut self, a: Self::Var, b: Self::Var) -> Self::Var;

    /// Gathers rows of `x` by index (duplicates allowed).
    fn select_rows(&mut self, x: Self::Var, indices: Vec<usize>) -> Self::Var;

    /// A `rows × cols` copy of `x`'s elements in the same row-major order.
    fn reshape(&mut self, x: Self::Var, rows: usize, cols: usize) -> Self::Var;

    /// Sparse–dense product `adj · x`; a tape's backward multiplies by
    /// `adj_t = adjᵀ` (pass the same handle twice for a symmetric `Â`).
    fn spmm(&mut self, adj: &Arc<CsrMatrix>, adj_t: &Arc<CsrMatrix>, x: Self::Var) -> Self::Var;

    /// The mean of each contiguous row segment `segments[i].0 ..
    /// segments[i].1` of `x` (see [`Matrix::segment_mean`]) — the
    /// graph-level pooling of the QoR heads. Panics on an empty segment.
    fn segment_mean(&mut self, x: Self::Var, segments: Vec<(usize, usize)>) -> Self::Var;

    /// The attentive readout of Eq. 10 over the node-major hop stack `h`,
    /// `batch` nodes of `k1` rows: `y = Ĥ₀ + Σₖ cₖ Ĥₖ` with
    /// `cₖ = softmax_k(αᵀ [Ĥ₀ ‖ Ĥₖ])`, `α` being parameter `alpha` of
    /// `params`. Returns `y` (`batch × d`) and the scores `cₖ`
    /// (`batch × (k1 − 1)`), and releases `h`.
    ///
    /// Both holders run it as one op on `h` in place, with the kernels
    /// `hoga_tensor::readout_logits` and `readout_sum` around the softmax,
    /// and give the bits of its op-by-op composition: the gathers of `Ĥ₀`,
    /// of `Ĥ₀` repeated `K` times and of `Ĥ₁..Ĥ_K`, their concat, its
    /// product with `α`, the softmax, the batched `(1 × K) · (K × d)`
    /// product and the add. A [`Tape`](crate::Tape) also gives that
    /// composition's gradients, of the scores too.
    fn readout(
        &mut self,
        h: Self::Var,
        params: &'p ParamSet,
        alpha: ParamId,
        batch: usize,
        k1: usize,
    ) -> (Self::Var, Self::Var);

    /// Marks the values `done` as read for the last time. A tape keeps
    /// every value for its backward sweep, so by default nothing happens; a
    /// tape-free holder hands their storage to the next op.
    fn release(&mut self, done: &[Self::Var]) {
        let _ = done;
    }
}
