//! The reverse-mode tape: an arena of operation nodes plus the backward sweep.

use crate::block::{BlockGrads, NodeBlock, ParamSum, RowSum};
use crate::loss::{gradient_weight_sum, logits_grad, mean_nll, nll_term, row_weights};
use crate::ops::Ops;
use crate::params::{ParamId, ParamSet};
use hoga_tensor::recycle::{give_back, retire};
use hoga_tensor::{
    layernorm_backward, layernorm_backward_dx, layernorm_forward, readout_alpha_grad,
    readout_hops_grad, readout_logits, readout_scores_grad, readout_sum, softmax_backward_rows,
    softmax_rows, CsrMatrix, Gemm, LayerNormCache, Layout, Matrix,
};
use std::ops::Range;
use std::sync::Arc;

/// Handle to a value recorded on a [`Tape`].
///
/// `Var`s are cheap copyable indices; they are only meaningful for the tape
/// that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// Per-parameter gradients produced by [`Tape::backward`].
///
/// Indexed by [`ParamId`]; parameters that did not participate in the loss
/// have no entry. Worker gradients are merged with [`Gradients::accumulate`]
/// (the all-reduce step of data-parallel training).
#[derive(Debug, Clone, Default)]
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Creates an empty gradient store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The gradient of parameter `id`, if it received one.
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        self.grads.get(id.index()).and_then(|g| g.as_ref())
    }

    fn slot(&mut self, idx: usize) -> &mut Option<Matrix> {
        if self.grads.len() <= idx {
            self.grads.resize(idx + 1, None);
        }
        &mut self.grads[idx]
    }

    pub(crate) fn add(&mut self, id: ParamId, delta: Matrix) {
        accumulate(self.slot(id.index()), delta);
    }

    /// Sums another worker's gradients into this one (all-reduce).
    pub fn accumulate(&mut self, other: &Gradients) {
        for (idx, g) in other.grads.iter().enumerate() {
            if let Some(g) = g {
                match self.slot(idx) {
                    Some(mine) => mine.axpy(1.0, g),
                    slot @ None => *slot = Some(g.clone()),
                }
            }
        }
    }

    /// Multiplies every gradient by `s` (e.g. `1/num_workers` averaging).
    pub fn scale(&mut self, s: f32) {
        for g in self.grads.iter_mut().flatten() {
            g.map_inplace(|x| x * s);
        }
    }

    /// Global L2 norm across all gradients.
    pub fn global_norm(&self) -> f32 {
        self.grads
            .iter()
            .flatten()
            .map(|g| {
                let n = g.norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Iterates over `(ParamId, gradient)` pairs that received gradients.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.grads.iter().enumerate().filter_map(|(i, g)| g.as_ref().map(|g| (ParamId(i), g)))
    }
}

/// Adds `delta` to the gradient in `slot`. An empty slot takes `delta`
/// itself; a full one sums it in and hands its storage back for the next
/// allocation of the sweep.
pub(crate) fn accumulate(slot: &mut Option<Matrix>, delta: Matrix) {
    match slot {
        Some(g) => {
            g.axpy(1.0, &delta);
            give_back(delta);
        }
        None => *slot = Some(delta),
    }
}

/// A recorded op. Eq. 10's readout is two nodes over the hop stack `h`
/// (`k1` rows a node) and `α`: `ReadoutScores` holds the scores `cₖ`, and
/// `Readout` holds `y` over them; the backward of `Readout` is the whole
/// readout's, scores included.
enum Op {
    Constant,
    Param(ParamId),
    Add(Var, Var),
    Hadamard(Var, Var),
    Scale(Var, f32),
    AddBias { x: Var, bias: Var },
    Gemm { a: Var, b: Var, g: Gemm },
    Relu(Var),
    Sigmoid(Var),
    SoftmaxRows(Var),
    LayerNorm { x: Var, gamma: Var, beta: Var, cache: LayerNormCache },
    ConcatCols(Var, Var),
    SelectRows { x: Var, indices: Vec<usize> },
    Reshape(Var),
    Spmm { adj_t: Arc<CsrMatrix>, x: Var },
    SegmentMean { x: Var, segments: Vec<(usize, usize)> },
    ReadoutScores { h: Var, alpha: Var, k1: usize },
    Readout { scores: Var, h: Var, alpha: Var, k1: usize },
    SumAll(Var),
    MseLoss { pred: Var, target: Matrix },
    CrossEntropyMean { logits: Var, labels: Vec<usize>, probs: Matrix, weights: Vec<f32> },
}

impl Op {
    /// The tape values this op reads.
    fn inputs(&self) -> impl Iterator<Item = Var> {
        let vars = match *self {
            Op::Constant | Op::Param(_) => [None, None, None],
            Op::Scale(x, _)
            | Op::Relu(x)
            | Op::Sigmoid(x)
            | Op::SoftmaxRows(x)
            | Op::Reshape(x)
            | Op::SumAll(x)
            | Op::SelectRows { x, .. }
            | Op::Spmm { x, .. }
            | Op::SegmentMean { x, .. }
            | Op::Readout { scores: x, .. }
            | Op::MseLoss { pred: x, .. }
            | Op::CrossEntropyMean { logits: x, .. } => [Some(x), None, None],
            Op::Add(a, b)
            | Op::Hadamard(a, b)
            | Op::Gemm { a, b, .. }
            | Op::ConcatCols(a, b)
            | Op::AddBias { x: a, bias: b }
            | Op::ReadoutScores { h: a, alpha: b, .. } => [Some(a), Some(b), None],
            Op::LayerNorm { x, gamma, beta, .. } => [Some(x), Some(gamma), Some(beta)],
        };
        vars.into_iter().flatten()
    }
}

struct Node {
    value: Matrix,
    op: Op,
    /// Whether a parameter is reachable from this node, i.e. whether
    /// [`Tape::backward`] has any use for a gradient with respect to it.
    needs_grad: bool,
}

/// A single-use computation tape.
///
/// Build the forward pass by calling the op methods, then call
/// [`Tape::backward`] once on the final scalar. See the
/// [crate-level docs](crate) for a complete example.
///
/// A tape keeps its memory warm inside a [`hoga_tensor::recycle::Pool`]
/// run: when it drops, the storage of its values and op caches goes to the
/// lent list rather than to the allocator, and the next tape in the pool —
/// a training step repeats its shapes — is built in the same buffers.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Drop for Tape {
    fn drop(&mut self) {
        for node in self.nodes.drain(..) {
            give_back(node.value);
            match node.op {
                Op::LayerNorm { cache, .. } => give_back(cache.normalized),
                Op::CrossEntropyMean { probs, .. } => give_back(probs),
                Op::MseLoss { target, .. } => give_back(target),
                _ => {}
            }
        }
        retire();
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Every recorded value, in recording order.
    pub fn values(&self) -> impl Iterator<Item = &Matrix> {
        self.nodes.iter().map(|node| &node.value)
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        let needs_grad =
            matches!(op, Op::Param(_)) || op.inputs().any(|v| self.nodes[v.0].needs_grad);
        self.nodes.push(Node { value, op, needs_grad });
        Var(self.nodes.len() - 1)
    }

    /// Multiplies by scalar `s`.
    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        let v = self.nodes[x.0].value.scale(s);
        self.push(v, Op::Scale(x, s))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let v = self.nodes[x.0].value.map(|a| 1.0 / (1.0 + (-a).exp()));
        self.push(v, Op::Sigmoid(x))
    }

    /// Sum of all elements, as a `1 × 1` scalar.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let v = Matrix::full(1, 1, self.nodes[x.0].value.sum());
        self.push(v, Op::SumAll(x))
    }

    /// Mean-squared-error loss against a constant target, as a `1 × 1`
    /// scalar (mean over all elements).
    ///
    /// # Panics
    ///
    /// Panics if `target` shape differs from the prediction.
    pub fn mse_loss(&mut self, pred: Var, target: &Matrix) -> Var {
        let pm = &self.nodes[pred.0].value;
        assert_eq!(pm.shape(), target.shape(), "mse target shape mismatch");
        let n = pm.len().max(1) as f32;
        let loss = pm
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&p, &t)| (p - t) * (p - t))
            .sum::<f32>()
            / n;
        self.push(Matrix::full(1, 1, loss), Op::MseLoss { pred, target: target.clone() })
    }

    /// Mean cross-entropy of row-wise logits against integer class labels,
    /// as a `1 × 1` scalar.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != logits.rows()` or a label is out of range.
    pub fn cross_entropy_mean(&mut self, logits: Var, labels: &[usize]) -> Var {
        self.cross_entropy_weighted(logits, labels, &[])
    }

    /// Class-weighted cross-entropy:
    /// `loss = Σᵢ w(yᵢ)·nllᵢ / Σᵢ w(yᵢ)`, as a `1 × 1` scalar.
    ///
    /// Pass an empty slice for uniform weights. Weighting counteracts class
    /// imbalance (e.g. the plain-node majority in functional reasoning).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != logits.rows()`, a label is out of range,
    /// or `class_weights` is non-empty but shorter than the class count.
    pub fn cross_entropy_weighted(
        &mut self,
        logits: Var,
        labels: &[usize],
        class_weights: &[f32],
    ) -> Var {
        let lm = &self.nodes[logits.0].value;
        assert_eq!(labels.len(), lm.rows(), "label count mismatch");
        let weights = row_weights(labels, class_weights, lm.cols());
        let probs = softmax_rows(lm);
        let terms = labels.iter().zip(&weights).enumerate();
        let loss = mean_nll(terms.map(|(r, (&lab, &w))| nll_term(probs[(r, lab)], w)), &weights);
        self.push(
            Matrix::full(1, 1, loss),
            Op::CrossEntropyMean { logits, labels: labels.to_vec(), probs, weights },
        )
    }

    /// Runs the reverse sweep from scalar `loss` and returns parameter
    /// gradients.
    ///
    /// Each node's incoming gradient is owned by the sweep, so wherever an
    /// input's gradient has the same shape it is computed in that storage
    /// or is that storage, moved; what is left over goes back to
    /// [`hoga_tensor::recycle`] for the next allocation of the sweep.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a `1 × 1` value on this tape.
    pub fn backward(&mut self, loss: Var) -> Gradients {
        assert_eq!(self.nodes[loss.0].value.shape(), (1, 1), "loss must be scalar");
        self.sweep(loss, Matrix::full(1, 1, 1.0), None).0
    }

    /// [`Tape::backward`], also handing back the gradient that reaches
    /// `constant` (zeros if none does): the sweep treats it as a value with
    /// a parameter upstream, so it gets that value's bits.
    pub fn backward_to(&mut self, loss: Var, constant: Var) -> (Gradients, Matrix) {
        assert!(matches!(self.nodes[constant.0].op, Op::Constant), "not a constant");
        self.nodes[constant.0].needs_grad = true;
        for i in constant.0 + 1..self.nodes.len() {
            self.nodes[i].needs_grad |=
                self.nodes[i].op.inputs().any(|v| self.nodes[v.0].needs_grad);
        }
        let (grads, _, reached) = self.sweep(loss, Matrix::full(1, 1, 1.0), None);
        let (rows, cols) = self.nodes[constant.0].value.shape();
        (grads, reached.unwrap_or_else(|| Matrix::zeros(rows, cols)))
    }

    /// Runs the reverse sweep of one node block of a batch from `from`,
    /// given the loss's gradient with respect to it, `seed`, and hands back
    /// each parameter's gradient unreduced.
    ///
    /// The tape must hold a node-wise forward over `block`'s nodes (HOGA's,
    /// SIGN's: every value `r` rows per node, no row mixing nodes), and its
    /// parameters must enter only as an unbatched `a · b`'s right operand,
    /// a bias, or LayerNorm's gain and shift. Then every parameter's
    /// gradient is a sum over the batch's rows, and the sweep leaves that sum
    /// to [`BlockFold`](crate::BlockFold): for a weight it hands back the block's chunk
    /// partial of the batch's `aᵀ · dY` ([`Gemm::TN`]) when the block is
    /// one of its chunks ([`Matrix::matmul_tn_chunk`]), and the block's
    /// rows of both operands otherwise; for a column sum, the block's rows.
    /// Eq. 10's `α` ([`Ops::readout`]) counts as the right operand of the
    /// concat product the readout's scores are defined by.
    /// Everything else is per row, so it is computed here exactly as the
    /// whole-batch sweep computes those rows.
    ///
    /// # Panics
    ///
    /// Panics if `seed` does not have `from`'s shape, or the tape breaks
    /// the contract above.
    pub fn backward_block(&mut self, from: Var, seed: Matrix, block: NodeBlock) -> BlockGrads {
        assert_eq!(self.nodes[from.0].value.shape(), seed.shape(), "seed shape mismatch");
        BlockGrads { sums: self.sweep(from, seed, Some(block)).1 }
    }

    /// The reverse sweep from `from`, seeded with `seed`. A whole-batch
    /// sweep (`block` is `None`) reduces every parameter's gradient into
    /// the returned [`Gradients`]; a block sweep returns each one's
    /// [`RowSum`] instead, in the order the whole-batch sweep sums them.
    /// Last comes the gradient that reached a constant, if one did.
    fn sweep(
        &mut self,
        from: Var,
        seed: Matrix,
        block: Option<NodeBlock>,
    ) -> (Gradients, Vec<ParamSum>, Option<Matrix>) {
        let mut grads: Vec<Option<Matrix>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[from.0] = Some(seed);
        let mut out = Gradients::new();
        let mut sums = Vec::new();
        let mut reached = None;

        for i in (0..self.nodes.len()).rev() {
            let Some(mut gy) = grads[i].take() else { continue };
            // Accumulates `delta` into node `j`; `$delta` is evaluated only
            // when a parameter sits upstream of `j`, so the gradient of a
            // constant (the hop stack, a feature matrix) is never computed.
            macro_rules! acc {
                ($j:expr, $delta:expr) => {{
                    let j: Var = $j;
                    if self.nodes[j.0].needs_grad {
                        accumulate(&mut grads[j.0], $delta);
                    }
                }};
            }
            // `acc!` for a delta that is `gy` itself and has a later use:
            // summed in by reference, copied only into an empty slot.
            macro_rules! acc_shared {
                ($j:expr) => {{
                    let j: Var = $j;
                    if self.nodes[j.0].needs_grad {
                        match &mut grads[j.0] {
                            Some(g) => g.axpy(1.0, &gy),
                            slot @ None => *slot = Some(gy.clone()),
                        }
                    }
                }};
            }
            // `acc!` for the last use of an owned gradient: moved into node
            // `j`'s slot, or handed back when `j` has no use for it.
            macro_rules! acc_last {
                ($j:expr, $owned:expr) => {{
                    let (j, owned): (Var, Matrix) = ($j, $owned);
                    if self.nodes[j.0].needs_grad {
                        accumulate(&mut grads[j.0], owned);
                    } else {
                        give_back(owned);
                    }
                }};
            }
            // Hands a block's part of parameter node `j`'s sum over the
            // batch's rows back to the caller.
            macro_rules! hand_back {
                ($j:expr, $part:expr) => {{
                    let j: Var = $j;
                    let op = &self.nodes[j.0].op;
                    assert!(
                        matches!(op, Op::Param(_)),
                        "a block sweep sums rows into parameters only"
                    );
                    if let Op::Param(id) = *op {
                        sums.push(ParamSum { node: j.0, id, part: $part });
                    }
                }};
            }
            // A parameter's sum over the batch's rows into node `j`: `$whole`
            // in a whole-batch sweep, `$part` handed back in a block sweep.
            macro_rules! row_sum {
                ($j:expr, $whole:expr, $part:expr) => {{
                    let j: Var = $j;
                    if self.nodes[j.0].needs_grad {
                        match block {
                            None => accumulate(&mut grads[j.0], $whole),
                            Some(_) => hand_back!(j, $part),
                        }
                    }
                }};
            }
            match &self.nodes[i].op {
                Op::Constant => reached = Some(gy),
                Op::Param(id) => {
                    assert!(
                        block.is_none(),
                        "a block sweep reached parameter {} other than through an unbatched \
                         a·b's right operand, a bias, or LayerNorm's gain and shift",
                        id.index()
                    );
                    out.add(*id, gy);
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    if self.nodes[b.0].needs_grad {
                        acc_shared!(a);
                        acc_last!(b, gy);
                    } else {
                        acc_last!(a, gy);
                    }
                }
                Op::Hadamard(a, b) => {
                    let (a, b) = (*a, *b);
                    acc!(a, gy.hadamard(&self.nodes[b.0].value));
                    gy.zip_map_inplace(&self.nodes[a.0].value, |g, v| g * v);
                    acc_last!(b, gy);
                }
                Op::Scale(x, s) => {
                    let (x, s) = (*x, *s);
                    gy.map_inplace(|g| g * s);
                    acc_last!(x, gy);
                }
                Op::AddBias { x, bias } => {
                    let (x, bias) = (*x, *bias);
                    row_sum!(bias, gy.col_sums(), RowSum::Cols(gy.clone()));
                    acc_last!(x, gy);
                }
                Op::Gemm { a, b, g } => {
                    let (a, b, g) = (*a, *b, *g);
                    let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
                    // Both gradients are exact products over the forward's
                    // blocks: y = a·b gives dA = gy·bᵀ and dB = aᵀ·gy,
                    // y = a·bᵀ gives dA = gy·b and dB = gyᵀ·a, and y = aᵀ·b
                    // gives dA = b·gyᵀ and dB = a·gy.
                    let of = |layout| Gemm { layout, batch: g.batch, fused: false };
                    match g.layout {
                        Layout::Nn => {
                            acc!(a, gy.gemm(bv, of(Layout::Nt)));
                            // An unbatched weight's gradient is a sum over
                            // the batch's rows: a block hands its part back.
                            let weight = g.batch.is_none() && self.nodes[b.0].needs_grad;
                            match block.filter(|_| weight) {
                                Some(block) => hand_back!(b, RowSum::matmul(av, gy, block)),
                                None => {
                                    acc!(b, av.gemm(&gy, of(Layout::Tn)));
                                    give_back(gy);
                                }
                            }
                        }
                        Layout::Nt => {
                            acc!(a, gy.gemm(bv, of(Layout::Nn)));
                            acc!(b, gy.gemm(av, of(Layout::Tn)));
                            give_back(gy);
                        }
                        Layout::Tn => {
                            acc!(a, bv.gemm(&gy, of(Layout::Nt)));
                            acc!(b, av.gemm(&gy, of(Layout::Nn)));
                            give_back(gy);
                        }
                    }
                }
                Op::Relu(x) => {
                    let x = *x;
                    gy.zip_map_inplace(
                        &self.nodes[x.0].value,
                        |g, v| if v > 0.0 { g } else { 0.0 },
                    );
                    acc_last!(x, gy);
                }
                Op::Sigmoid(x) => {
                    let x = *x;
                    gy.zip_map_inplace(&self.nodes[i].value, |g, y| g * y * (1.0 - y));
                    acc_last!(x, gy);
                }
                Op::SoftmaxRows(x) => {
                    let x = *x;
                    let dx = softmax_backward_rows(&self.nodes[i].value, &gy);
                    acc!(x, dx);
                    give_back(gy);
                }
                Op::LayerNorm { x, gamma, beta, cache } => {
                    let (x, gamma, beta) = (*x, *gamma, *beta);
                    let gm = self.nodes[gamma.0].value.row(0);
                    if block.is_none() {
                        let (dx, dg, db) = layernorm_backward(&gy, gm, cache);
                        acc!(x, dx);
                        acc!(gamma, Matrix::from_vec(1, dg.len(), dg));
                        acc!(beta, Matrix::from_vec(1, db.len(), db));
                        give_back(gy);
                    } else {
                        // A block hands back the rows the kernel sums down,
                        // `dy · x̂` and `dy` (as itself), so only `dx` is
                        // computed here.
                        acc!(x, layernorm_backward_dx(&gy, gm, cache));
                        if self.nodes[gamma.0].needs_grad {
                            hand_back!(gamma, RowSum::Cols(gy.hadamard(&cache.normalized)));
                        }
                        if self.nodes[beta.0].needs_grad {
                            hand_back!(beta, RowSum::Cols(gy));
                        } else {
                            give_back(gy);
                        }
                    }
                }
                Op::ConcatCols(a, b) => {
                    let (a, b) = (*a, *b);
                    let ca = self.nodes[a.0].value.cols();
                    let cols = |range: Range<usize>| {
                        let mut d = Matrix::zeros(gy.rows(), range.len());
                        for r in 0..gy.rows() {
                            d.row_mut(r).copy_from_slice(&gy.row(r)[range.clone()]);
                        }
                        d
                    };
                    acc!(a, cols(0..ca));
                    acc!(b, cols(ca..gy.cols()));
                    give_back(gy);
                }
                Op::SelectRows { x, indices } => {
                    let x = *x;
                    let mut dx =
                        Matrix::zeros(self.nodes[x.0].value.rows(), self.nodes[x.0].value.cols());
                    dx.scatter_add_rows(indices, &gy);
                    acc!(x, dx);
                    give_back(gy);
                }
                Op::Reshape(x) => {
                    let x = *x;
                    let (r, c) = self.nodes[x.0].value.shape();
                    acc_last!(x, Matrix::from_vec(r, c, gy.into_vec()));
                }
                Op::Spmm { adj_t, x } => {
                    let x = *x;
                    let dx = adj_t.spmm(&gy);
                    acc!(x, dx);
                    give_back(gy);
                }
                Op::SegmentMean { x, segments } => {
                    let x = *x;
                    let xm = &self.nodes[x.0].value;
                    let mut dx = Matrix::zeros(xm.rows(), xm.cols());
                    for (s, &(lo, hi)) in segments.iter().enumerate() {
                        let w = 1.0 / (hi - lo) as f32;
                        for r in lo..hi {
                            let drow = dx.row_mut(r);
                            for (d, &g) in drow.iter_mut().zip(gy.row(s)) {
                                *d += w * g;
                            }
                        }
                    }
                    acc!(x, dx);
                    give_back(gy);
                }
                Op::ReadoutScores { h, alpha, k1 } | Op::Readout { h, alpha, k1, .. } => {
                    let (h, alpha, k1) = (*h, *alpha, *k1);
                    let (hv, av) = (&self.nodes[h.0].value, &self.nodes[alpha.0].value);
                    // At `y`, with `dy` and whatever reached the scores; at
                    // the scores only when nothing reached `y`. The scores'
                    // gradient is their readers' plus the batched
                    // product's, as the op-by-op sweep sums them.
                    let (scores, dy, dscores) = match self.nodes[i].op {
                        Op::Readout { scores, .. } => {
                            let from_y = readout_scores_grad(hv, &gy, k1);
                            let dscores = match grads[scores.0].take() {
                                Some(mut sum) => {
                                    sum.axpy(1.0, &from_y);
                                    give_back(from_y);
                                    sum
                                }
                                None => from_y,
                            };
                            (scores, Some(gy), dscores)
                        }
                        _ => (Var(i), None, gy),
                    };
                    let sv = &self.nodes[scores.0].value;
                    let dlogits = softmax_backward_rows(sv, &dscores);
                    give_back(dscores);
                    if self.nodes[h.0].needs_grad {
                        let (rows, cols) = hv.shape();
                        let mut dh =
                            grads[h.0].take().unwrap_or_else(|| Matrix::full(rows, cols, -0.0));
                        readout_hops_grad(
                            hv,
                            av.as_slice(),
                            sv,
                            dy.as_ref(),
                            &dlogits,
                            k1,
                            &mut dh,
                        );
                        grads[h.0] = Some(dh);
                    }
                    if let Some(dy) = dy {
                        give_back(dy);
                    }
                    match block {
                        None => {
                            acc!(alpha, readout_alpha_grad(hv, &dlogits, k1));
                            give_back(dlogits);
                        }
                        Some(block) => hand_back!(alpha, RowSum::readout(hv, dlogits, k1, block)),
                    }
                }
                Op::SumAll(x) => {
                    let x = *x;
                    let (r, c) = self.nodes[x.0].value.shape();
                    acc!(x, Matrix::full(r, c, gy[(0, 0)]));
                }
                Op::MseLoss { pred, target } => {
                    let pred = *pred;
                    let pm = &self.nodes[pred.0].value;
                    let n = pm.len().max(1) as f32;
                    let scale = 2.0 * gy[(0, 0)] / n;
                    let dp = pm.zip_map(target, |p, t| scale * (p - t));
                    acc!(pred, dp);
                }
                Op::CrossEntropyMean { logits, labels, probs, weights } => {
                    let base = gy[(0, 0)] / gradient_weight_sum(weights);
                    acc!(*logits, logits_grad(probs.clone(), labels, weights, base));
                }
            }
        }
        (out, sums, reached)
    }
}

impl<'p> Ops<'p> for Tape {
    type Var = Var;

    fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Constant)
    }

    fn param(&mut self, params: &'p ParamSet, id: ParamId) -> Var {
        self.push(params.value(id).clone(), Op::Param(id))
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        let v = &self.nodes[a.0].value + &self.nodes[b.0].value;
        self.push(v, Op::Add(a, b))
    }

    fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.hadamard(&self.nodes[b.0].value);
        self.push(v, Op::Hadamard(a, b))
    }

    fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let mut v = self.nodes[x.0].value.clone();
        v.add_bias(&self.nodes[bias.0].value);
        self.push(v, Op::AddBias { x, bias })
    }

    fn gemm(&mut self, a: Var, b: Var, g: Gemm) -> Var {
        let v = self.nodes[a.0].value.gemm(&self.nodes[b.0].value, g);
        self.push(v, Op::Gemm { a, b, g })
    }

    fn relu(&mut self, x: Var) -> Var {
        let v = self.nodes[x.0].value.map(|a| a.max(0.0));
        self.push(v, Op::Relu(x))
    }

    fn softmax_rows(&mut self, x: Var) -> Var {
        let v = softmax_rows(&self.nodes[x.0].value);
        self.push(v, Op::SoftmaxRows(x))
    }

    fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var) -> Var {
        let xm = &self.nodes[x.0].value;
        let gm = &self.nodes[gamma.0].value;
        let bm = &self.nodes[beta.0].value;
        assert_eq!((gm.rows(), bm.rows()), (1, 1), "gamma/beta must be row vectors");
        let (v, cache) = layernorm_forward(xm, gm.row(0), bm.row(0));
        self.push(v, Op::LayerNorm { x, gamma, beta, cache })
    }

    fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.concat_cols(&self.nodes[b.0].value);
        self.push(v, Op::ConcatCols(a, b))
    }

    fn select_rows(&mut self, x: Var, indices: Vec<usize>) -> Var {
        let v = self.nodes[x.0].value.select_rows(&indices);
        self.push(v, Op::SelectRows { x, indices })
    }

    fn reshape(&mut self, x: Var, rows: usize, cols: usize) -> Var {
        let xm = &self.nodes[x.0].value;
        assert_eq!(rows * cols, xm.len(), "reshape element count mismatch");
        let v = Matrix::from_vec(rows, cols, xm.clone().into_vec());
        self.push(v, Op::Reshape(x))
    }

    fn spmm(&mut self, adj: &Arc<CsrMatrix>, adj_t: &Arc<CsrMatrix>, x: Var) -> Var {
        assert_eq!(adj.rows(), adj_t.cols(), "adj/adj_t shape mismatch");
        assert_eq!(adj.cols(), adj_t.rows(), "adj/adj_t shape mismatch");
        let v = adj.spmm(&self.nodes[x.0].value);
        self.push(v, Op::Spmm { adj_t: Arc::clone(adj_t), x })
    }

    fn segment_mean(&mut self, x: Var, segments: Vec<(usize, usize)>) -> Var {
        let v = self.nodes[x.0].value.segment_mean(&segments);
        self.push(v, Op::SegmentMean { x, segments })
    }

    /// Eq. 10 as one fused op: the tape-free kernels
    /// ([`readout_logits`], the exact softmax, [`readout_sum`]) on `h` in
    /// place, recorded as `α`'s parameter node, the scores and `y`. No
    /// gather, no `[Ĥ₀ ‖ Ĥₖ]`: the backward reads `h` in place as well
    /// ([`readout_scores_grad`], [`readout_hops_grad`],
    /// [`readout_alpha_grad`]), and gives the gradients of the op-by-op
    /// recording bit for bit, scores included.
    fn readout(
        &mut self,
        h: Var,
        params: &'p ParamSet,
        alpha: ParamId,
        batch: usize,
        k1: usize,
    ) -> (Var, Var) {
        let (rows, d) = self.nodes[h.0].value.shape();
        assert_eq!(rows, batch * k1, "readout: hop stack row mismatch");
        let alpha = self.param(params, alpha);
        let (hv, av) = (&self.nodes[h.0].value, &self.nodes[alpha.0].value);
        assert_eq!(av.shape(), (2 * d, 1), "readout: alpha must be a 2d column");
        let logits = readout_logits(hv, av.as_slice(), k1);
        let scores = softmax_rows(&logits);
        give_back(logits);
        let y = readout_sum(hv, &scores, k1);
        let scores = self.push(scores, Op::ReadoutScores { h, alpha, k1 });
        let y = self.push(y, Op::Readout { scores, h, alpha, k1 });
        (y, scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoga_tensor::Init;

    #[test]
    fn linear_regression_gradient_is_correct() {
        // loss = mean((xW - t)^2); closed-form gradient check.
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::from_rows(&[&[0.5], &[-0.5]]));
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let t = Matrix::from_rows(&[&[1.0], &[2.0]]);

        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let wv = tape.param(&params, w);
        let pred = tape.matmul(xv, wv);
        let loss = tape.mse_loss(pred, &t);
        let grads = tape.backward(loss);

        // d/dW mean((xW - t)^2) = (2/n) x^T (xW - t)
        let resid = &x.matmul(params.value(w)) - &t;
        let expected = x.gemm(&resid, Gemm::TN).scale(2.0 / 2.0);
        assert!(grads.get(w).expect("grad").max_abs_diff(&expected) < 1e-5);
    }

    #[test]
    fn unused_param_gets_no_gradient() {
        let mut params = ParamSet::new();
        let used = params.add("used", Matrix::identity(2));
        let unused = params.add("unused", Matrix::identity(2));
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[1.0, 2.0]]));
        let wv = tape.param(&params, used);
        let y = tape.matmul(x, wv);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert!(grads.get(used).is_some());
        assert!(grads.get(unused).is_none());
    }

    #[test]
    fn param_used_twice_accumulates() {
        // loss = sum(w) + sum(w)  =>  dw = 2
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::full(2, 2, 3.0));
        let mut tape = Tape::new();
        let w1 = tape.param(&params, w);
        let w2 = tape.param(&params, w);
        let s = tape.add(w1, w2);
        let loss = tape.sum_all(s);
        let grads = tape.backward(loss);
        assert!(grads.get(w).expect("grad").max_abs_diff(&Matrix::full(2, 2, 2.0)) < 1e-6);
    }

    #[test]
    fn cross_entropy_gradient_is_probs_minus_onehot() {
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::identity(3));
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]));
        let wv = tape.param(&params, w);
        let logits = tape.matmul(x, wv);
        let labels = vec![0usize, 2usize];
        let loss = tape.cross_entropy_mean(logits, &labels);
        let loss_val = tape.value(loss)[(0, 0)];
        assert!(loss_val > 0.0);
        let grads = tape.backward(loss);
        assert!(grads.get(w).is_some());
    }

    #[test]
    fn weighted_cross_entropy_prioritizes_minority_class() {
        // Gradient magnitude on a minority-class row must grow with its
        // class weight; uniform weights must reproduce cross_entropy_mean.
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::identity(2));
        let labels = vec![0usize, 1, 1, 1];
        let x = Matrix::from_rows(&[&[0.1, 0.0], &[0.0, 0.1], &[0.1, 0.0], &[0.0, 0.2]]);
        let run = |params: &ParamSet, cw: &[f32]| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let wv = tape.param(params, w);
            let logits = tape.matmul(xv, wv);
            let loss = if cw.is_empty() {
                tape.cross_entropy_mean(logits, &labels)
            } else {
                tape.cross_entropy_weighted(logits, &labels, cw)
            };
            let l = tape.value(loss)[(0, 0)];
            (l, tape.backward(loss))
        };
        let (l_uniform, g_uniform) = run(&params, &[]);
        let (l_ones, g_ones) = run(&params, &[1.0, 1.0]);
        assert!((l_uniform - l_ones).abs() < 1e-6, "uniform weights must be a no-op");
        assert!(g_uniform.get(w).expect("grad").max_abs_diff(g_ones.get(w).expect("grad")) < 1e-6);
        // Upweighting class 0 increases the loss contribution of row 0.
        let (l_weighted, _) = run(&params, &[3.0, 1.0]);
        assert!(l_weighted.is_finite());
        assert_ne!(l_weighted, l_uniform);
    }

    #[test]
    fn weighted_cross_entropy_gradcheck() {
        use crate::gradcheck::check_gradients;
        let mut params = ParamSet::new();
        let w = params.add("w", hoga_tensor::Init::SmallUniform.matrix(3, 3, 77));
        let labels = vec![0usize, 2, 1];
        let cw = [2.0f32, 0.5, 1.5];
        let report = check_gradients(&mut params, 1e-2, |tape, params| {
            let x = tape.constant(Matrix::identity(3));
            let wv = tape.param(params, w);
            let logits = tape.matmul(x, wv);
            tape.cross_entropy_weighted(logits, &labels, &cw)
        });
        assert!(report.passes(2e-2), "{report:?}");
    }

    fn needs_grad(tape: &Tape, v: Var) -> bool {
        tape.nodes[v.0].needs_grad
    }

    #[test]
    fn needs_grad_follows_parameters_through_every_op_family() {
        type Unary = Box<dyn Fn(&mut Tape, Var) -> Var>;
        type Binary = Box<dyn Fn(&mut Tape, Var, Var) -> Var>;
        let mut params = ParamSet::new();
        let w = params.add("w", Init::SmallUniform.matrix(4, 4, 1));
        let row = params.add("row", Init::SmallUniform.matrix(1, 4, 2));
        let adj = Arc::new(CsrMatrix::from_coo(4, 4, &[(0, 1, 1.0), (2, 3, 0.5)]));

        let mut t = Tape::new();
        let c = t.constant(Init::SmallUniform.matrix(4, 4, 3));
        let crow = t.constant(Matrix::full(1, 4, 1.0));
        let p = t.param(&params, w);
        let prow = t.param(&params, row);
        assert!(!needs_grad(&t, c) && !needs_grad(&t, crow));
        assert!(needs_grad(&t, p) && needs_grad(&t, prow));

        let unary: Vec<(&str, Unary)> = vec![
            ("scale", Box::new(|t, x| t.scale(x, 0.5))),
            ("relu", Box::new(|t, x| t.relu(x))),
            ("sigmoid", Box::new(|t, x| t.sigmoid(x))),
            ("softmax_rows", Box::new(|t, x| t.softmax_rows(x))),
            ("select_rows", Box::new(|t, x| t.select_rows(x, vec![3, 0, 0]))),
            ("reshape", Box::new(|t, x| t.reshape(x, 2, 8))),
            ("spmm", Box::new(move |t, x| t.spmm(&adj, &adj, x))),
            ("segment_mean", Box::new(|t, x| t.segment_mean(x, vec![(0, 1), (1, 4)]))),
            ("sum_all", Box::new(|t, x| t.sum_all(x))),
            ("mse_loss", Box::new(|t, x| t.mse_loss(x, &Matrix::zeros(4, 4)))),
            ("cross_entropy", Box::new(|t, x| t.cross_entropy_mean(x, &[0, 1, 2, 3]))),
        ];
        for (name, op) in &unary {
            let of_constant = op(&mut t, c);
            let of_param = op(&mut t, p);
            assert!(!needs_grad(&t, of_constant), "{name}(constant) asks for a gradient");
            assert!(needs_grad(&t, of_param), "{name}(param) lost its gradient");
            // Depth two: the flag rides through an intermediate node.
            let deeper = t.sum_all(of_constant);
            assert!(!needs_grad(&t, deeper), "sum_all({name}(constant)) asks for a gradient");
        }

        let binary: Vec<(&str, Binary)> = vec![
            ("add", Box::new(|t, a, b| t.add(a, b))),
            ("hadamard", Box::new(|t, a, b| t.hadamard(a, b))),
            ("matmul", Box::new(|t, a, b| t.matmul(a, b))),
            ("batched_matmul", Box::new(|t, a, b| t.batched_matmul(a, b, 1))),
            ("batched_matmul_nt", Box::new(|t, a, b| t.batched_matmul_nt(a, b, 2))),
            ("gemm a·bᵀ", Box::new(|t, a, b| t.gemm(a, b, Gemm::NT))),
            ("gemm aᵀ·b", Box::new(|t, a, b| t.gemm(a, b, Gemm::TN))),
            ("gemm batched aᵀ·b", Box::new(|t, a, b| t.gemm(a, b, Gemm::TN.batched(2)))),
            ("concat_cols", Box::new(|t, a, b| t.concat_cols(a, b))),
        ];
        for (name, op) in &binary {
            let cc = op(&mut t, c, c);
            let pc = op(&mut t, p, c);
            let cp = op(&mut t, c, p);
            assert!(!needs_grad(&t, cc), "{name}(constant, constant) asks for a gradient");
            assert!(needs_grad(&t, pc), "{name}(param, constant) lost its gradient");
            assert!(needs_grad(&t, cp), "{name}(constant, param) lost its gradient");
        }

        let bias_cc = t.add_bias(c, crow);
        let bias_cp = t.add_bias(c, prow);
        let bias_pc = t.add_bias(p, crow);
        assert!(!needs_grad(&t, bias_cc));
        assert!(needs_grad(&t, bias_cp) && needs_grad(&t, bias_pc));

        let ln_ccc = t.layer_norm(c, crow, crow);
        let ln_pcc = t.layer_norm(p, crow, crow);
        let ln_cpc = t.layer_norm(c, prow, crow);
        let ln_ccp = t.layer_norm(c, crow, prow);
        assert!(!needs_grad(&t, ln_ccc));
        assert!(needs_grad(&t, ln_pcc) && needs_grad(&t, ln_cpc) && needs_grad(&t, ln_ccp));
    }

    #[test]
    fn constant_branch_is_bitwise_a_pre_evaluated_constant() {
        // A feature pipeline made of constants only (the hop stack of a
        // model, a baseline's feature matrix) feeds a parameter branch at
        // every kind of join. Skipping the gradients of that pipeline must
        // not move a bit of the parameter gradients: the same graph with
        // the pipeline folded into one constant is the oracle.
        let adj = Arc::new(CsrMatrix::from_coo(
            6,
            6,
            &[(0, 1, 0.5), (1, 0, 0.5), (2, 5, 1.0), (3, 3, 0.25), (5, 2, -1.0)],
        ));
        let features = |tape: &mut Tape| {
            let x = tape.constant(Init::SmallUniform.matrix(6, 4, 21).scale(3.0));
            let mix = tape.constant(Init::SmallUniform.matrix(4, 4, 22).scale(3.0));
            let ones = tape.constant(Matrix::full(1, 4, 1.0));
            let zeros = tape.constant(Matrix::zeros(1, 4));
            let ax = tape.spmm(&adj, &adj, x);
            let picked = tape.select_rows(ax, vec![5, 0, 1, 1, 3, 2]);
            let mixed = tape.matmul(picked, mix);
            let normed = tape.layer_norm(mixed, ones, zeros);
            tape.relu(normed)
        };
        let folded = {
            let mut tape = Tape::new();
            let f = features(&mut tape);
            tape.value(f).clone()
        };

        let mut params = ParamSet::new();
        let w = params.add("w", Init::SmallUniform.matrix(4, 4, 31).scale(3.0));
        let gamma = params.add("gamma", Init::SmallUniform.matrix(1, 4, 32));
        let beta = params.add("beta", Init::SmallUniform.matrix(1, 4, 33));
        let head = params.add("head", Init::SmallUniform.matrix(8, 3, 34).scale(3.0));
        let run = |fold: bool| {
            let mut tape = Tape::new();
            let f = if fold { tape.constant(folded.clone()) } else { features(&mut tape) };
            let wv = tape.param(&params, w);
            let gv = tape.param(&params, gamma);
            let bv = tape.param(&params, beta);
            let hv = tape.param(&params, head);
            let h = tape.matmul(f, wv); // constant lhs
            let gate = tape.sigmoid(h);
            let gated = tape.hadamard(f, gate); // constant operand
            let scores = tape.batched_matmul_nt(gated, f, 2); // constant rhs, (6, 3)
            let scores = tape.softmax_rows(scores);
            let attended = tape.batched_matmul(scores, f, 2); // constant rhs, (6, 4)
            let own = tape.layer_norm(f, gv, bv); // constant x
            let sum = tape.add(attended, own);
            let cat = tape.concat_cols(f, sum); // constant half
            let logits = tape.matmul(cat, hv);
            let loss = tape.cross_entropy_mean(logits, &[0, 1, 2, 0, 1, 2]);
            let loss_bits = tape.value(loss)[(0, 0)].to_bits();
            let grads = tape.backward(loss);
            let grad_bits: Vec<(usize, Vec<u32>)> = grads
                .iter()
                .map(|(id, g)| (id.index(), g.as_slice().iter().map(|v| v.to_bits()).collect()))
                .collect();
            (loss_bits, grad_bits)
        };
        let (inline, pre_evaluated) = (run(false), run(true));
        assert_eq!(inline.1.len(), 4, "every parameter must receive a gradient");
        assert_eq!(inline, pre_evaluated);
    }

    #[test]
    fn gradients_accumulate_and_scale() {
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::full(1, 2, 1.0));
        let run = |params: &ParamSet| {
            let mut tape = Tape::new();
            let wv = tape.param(params, w);
            let loss = tape.sum_all(wv);
            tape.backward(loss)
        };
        let mut g1 = run(&params);
        let g2 = run(&params);
        g1.accumulate(&g2);
        assert!(g1.get(w).expect("grad").max_abs_diff(&Matrix::full(1, 2, 2.0)) < 1e-6);
        g1.scale(0.5);
        assert!(g1.get(w).expect("grad").max_abs_diff(&Matrix::full(1, 2, 1.0)) < 1e-6);
    }

    #[test]
    fn spmm_backward_uses_transpose() {
        // y = A x with A asymmetric; check dL/dx = A^T dy for L = sum(y).
        let a = Arc::new(CsrMatrix::from_coo(2, 2, &[(0, 1, 3.0)]));
        let at = Arc::new(a.transpose());
        let mut params = ParamSet::new();
        let x = params.add("x", Matrix::from_rows(&[&[1.0], &[2.0]]));
        let mut tape = Tape::new();
        let xv = tape.param(&params, x);
        let y = tape.spmm(&a, &at, xv);
        assert_eq!(tape.value(y).as_slice(), &[6.0, 0.0]);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        // dL/dx = A^T * ones = [0, 3]^T
        assert_eq!(grads.get(x).expect("grad").as_slice(), &[0.0, 3.0]);
    }

    #[test]
    fn segment_mean_backward_distributes() {
        let mut params = ParamSet::new();
        let x = params.add("x", Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32));
        let mut tape = Tape::new();
        let xv = tape.param(&params, x);
        let pooled = tape.segment_mean(xv, vec![(0, 2), (2, 4)]);
        assert_eq!(tape.value(pooled).shape(), (2, 2));
        let loss = tape.sum_all(pooled);
        let grads = tape.backward(loss);
        // Mean over 2 rows: each row receives 1/2.
        assert!(grads.get(x).expect("grad").max_abs_diff(&Matrix::full(4, 2, 0.5)) < 1e-6);
    }

    #[test]
    fn a_constant_receives_the_gradient_a_computed_value_would() {
        // The head over `x = input · w` on one tape, and over `x` as a
        // constant on another: the constant's gradient finishes `w`'s as
        // the first sweep does, and the head's own gradients agree.
        let mut params = ParamSet::new();
        let w = params.add("w", Init::SmallUniform.matrix(3, 4, 5));
        let head = params.add("head", Init::SmallUniform.matrix(4, 2, 6));
        let input = Init::SmallUniform.matrix(5, 3, 7);
        let tail = |tape: &mut Tape, x: Var| {
            let pooled = tape.segment_mean(x, vec![(0, 5), (0, 5), (1, 4)]);
            let hv = tape.param(&params, head);
            let out = tape.matmul(pooled, hv);
            tape.mse_loss(out, &Matrix::full(3, 2, 0.25))
        };
        let mut whole = Tape::new();
        let (iv, wv) = (whole.constant(input.clone()), whole.param(&params, w));
        let x = whole.matmul(iv, wv);
        let x_value = whole.value(x).clone();
        let loss = tail(&mut whole, x);
        let want = whole.backward(loss);
        let mut split = Tape::new();
        let xv = split.constant(x_value);
        let loss = tail(&mut split, xv);
        let (grads, dx) = split.backward_to(loss, xv);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&input.gemm(&dx, Gemm::TN)), bits(want.get(w).expect("w")));
        assert_eq!(bits(grads.get(head).expect("head")), bits(want.get(head).expect("head")));
        assert!(grads.get(w).is_none());
    }

    #[test]
    fn reshape_preserves_gradient_layout() {
        let mut params = ParamSet::new();
        let x = params.add("x", Init::SmallUniform.matrix(2, 6, 1));
        let mut tape = Tape::new();
        let xv = tape.param(&params, x);
        let r = tape.reshape(xv, 3, 4);
        let sm = tape.softmax_rows(r);
        let loss = tape.sum_all(sm);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).expect("grad").shape(), (2, 6));
    }
}
