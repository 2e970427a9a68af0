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
    layernorm_forward, layernorm_rows_fast, qmatmul, softmax_rows, softmax_rows_fast, Matrix,
    QuantizedMatrix, QuantizedWeights,
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

    fn infer_impl(&self, hop_stack: &Matrix, batch: usize, mode: Mode<'_>) -> InferOutput {
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
                let mut cat = head_outputs[0].clone();
                for ho in &head_outputs[1..] {
                    cat = cat.concat_cols(ho);
                }
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

        // Readout (Eq. 10), always f32 — Int8 dequantized above.
        let idx0: Vec<usize> = (0..batch).map(|b| b * k1).collect();
        let h0 = h.select_rows(&idx0);
        if self.config.aggregator == Aggregator::Sum {
            let mut y = h0;
            for hop in 1..k1 {
                let idx: Vec<usize> = (0..batch).map(|b| b * k1 + hop).collect();
                y = &y + &h.select_rows(&idx);
            }
            return InferOutput { representations: y, readout_scores: None };
        }

        let idx0_rep: Vec<usize> =
            (0..batch).flat_map(|b| std::iter::repeat_n(b * k1, k)).collect();
        let idx_rest: Vec<usize> =
            (0..batch).flat_map(|b| (1..k1).map(move |hop| b * k1 + hop)).collect();
        let h0_rep = h.select_rows(&idx0_rep);
        let h_rest = h.select_rows(&idx_rest);
        let cat = h0_rep.concat_cols(&h_rest);
        let alpha = value(self.alpha);
        let (scores, weighted);
        if mode.is_exact() {
            let logits_flat = cat.matmul(alpha);
            let logits = Matrix::from_vec(batch, k, logits_flat.as_slice().to_vec());
            scores = softmax_rows(&logits);
            weighted = scores.batched_matmul(&h_rest, batch);
        } else {
            let logits_flat = cat.matmul_fast(alpha);
            let logits = Matrix::from_vec(batch, k, logits_flat.as_slice().to_vec());
            scores = softmax_rows_fast(&logits);
            weighted = scores.batched_matmul_fast(&h_rest, batch);
        }
        let y = &h0 + &weighted;
        InferOutput { representations: y, readout_scores: Some(scores) }
    }
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
