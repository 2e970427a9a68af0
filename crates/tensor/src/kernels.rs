//! Row-wise neural-network kernels: softmax and LayerNorm, with exact
//! backward passes for the autograd layer, and the tape-free readout of
//! Eq. 10 ([`readout_logits`], [`readout_sum`]), which reads a hop stack in
//! place.
//!
//! Inner loops dispatch through [`crate::backend::KernelBackend`]; the
//! training entry points are bitwise identical across backends, while the
//! `*_fast` inference variants trade the ascending reduction order for
//! lane-parallel reductions within a documented ULP bound (see
//! `docs/PERFORMANCE.md`).
//!
//! # NaN contract
//!
//! A NaN logit is a *caller* bug (a diverged model or a corrupt feature),
//! but the kernels still define what happens: the affected row comes back
//! **entirely NaN** on every backend — mirroring how fully-masked rows get
//! a deterministic uniform fallback — and a `debug_assert` trips in debug
//! builds so the bug surfaces at the kernel boundary instead of three
//! layers downstream. Before this contract, `softmax_rows` scanned the max
//! with `f32::max` (which drops NaN), so a single NaN logit slipped past
//! the masked-row check and poisoned the row *silently* — and, worse, the
//! poisoning pattern depended on where the NaN sat in the row.

use crate::backend::{dispatch, KernelBackend};
use crate::recycle::give_back;
use crate::Matrix;

const LN_EPS: f32 = 1e-5;

/// What a single scan of a logit row found (the shared classifier behind
/// the softmax kernels' masked-row and NaN contracts; backend-independent
/// by construction, so every backend honors the same edge cases).
#[derive(Debug, Clone, Copy, PartialEq)]
enum RowScan {
    /// At least one finite logit; carries the row maximum.
    Finite(f32),
    /// Every logit is `-inf` (a fully masked attention row).
    AllMasked,
    /// At least one NaN logit.
    HasNan,
}

/// Classifies a non-empty logit row in one pass. Unlike a `f32::max`
/// fold, NaN is detected rather than dropped.
fn scan_logits(row: &[f32]) -> RowScan {
    let mut max = f32::NEG_INFINITY;
    let mut has_nan = false;
    for &x in row {
        if x.is_nan() {
            has_nan = true;
        } else if x > max {
            max = x;
        }
    }
    if has_nan {
        RowScan::HasNan
    } else if max.is_infinite() && max.is_sign_negative() {
        RowScan::AllMasked
    } else {
        RowScan::Finite(max)
    }
}

/// Row-wise numerically stable softmax.
///
/// Each row of the result sums to 1. Used for the attention matrix
/// `S = softmax(QKᵀ)` (Eq. 7 of the paper) and the readout scores `c_k`
/// (Eq. 10).
///
/// # Examples
///
/// ```
/// use hoga_tensor::{softmax_rows, Matrix};
///
/// let s = softmax_rows(&Matrix::from_rows(&[&[0.0, 0.0], &[100.0, 0.0]]));
/// assert!((s[(0, 0)] - 0.5).abs() < 1e-6);
/// assert!(s[(1, 0)] > 0.999);
/// ```
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    dispatch!(B => softmax_rows_impl::<B, false>(logits))
}

/// Inference-only softmax: identical edge-case contract to
/// [`softmax_rows`], but the normalizing sum runs through the backend's
/// lane-parallel fast reduction. Output is within a documented ULP bound
/// of [`softmax_rows`] (see `docs/PERFORMANCE.md`); for a fixed backend
/// it is still a pure function of its inputs.
pub fn softmax_rows_fast(logits: &Matrix) -> Matrix {
    dispatch!(B => softmax_rows_impl::<B, true>(logits))
}

fn softmax_rows_impl<B: KernelBackend, const FAST: bool>(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    let width = out.cols();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        if row.is_empty() {
            continue;
        }
        match scan_logits(row) {
            RowScan::HasNan => {
                // A NaN logit means the *inputs* are already broken; make
                // the whole row deterministically NaN (position-independent)
                // and trip loudly in debug builds. See the module docs.
                debug_assert!(
                    row.iter().all(|x| !x.is_nan()),
                    "NaN logit reached softmax_rows (row {r}); \
                     release builds propagate a whole-NaN row"
                );
                row.fill(f32::NAN);
            }
            RowScan::AllMasked => {
                // Fully masked row (every logit is -inf): `x - max` would be
                // NaN for each entry. Fall back to the uniform distribution,
                // matching the limit of softmax as all logits go to -inf
                // together.
                row.fill(1.0 / width as f32);
            }
            RowScan::Finite(max) => {
                for x in row.iter_mut() {
                    *x = (*x - max).exp();
                }
                let sum = if FAST { B::sum_fast(row) } else { B::sum(row) };
                B::scale(row, 1.0 / sum);
            }
        }
    }
    out
}

/// Backward pass of [`softmax_rows`].
///
/// Given the forward output `y` and the upstream gradient `dy`, returns the
/// gradient with respect to the logits:
/// `dx_i = y_i * (dy_i - Σ_j dy_j y_j)` per row.
///
/// # Panics
///
/// Panics if the shapes of `y` and `dy` differ.
pub fn softmax_backward_rows(y: &Matrix, dy: &Matrix) -> Matrix {
    assert_eq!(y.shape(), dy.shape(), "softmax backward shape mismatch");
    let mut out = Matrix::zeros(y.rows(), y.cols());
    for r in 0..y.rows() {
        let yr = y.row(r);
        let dyr = dy.row(r);
        let dot: f32 = yr.iter().zip(dyr).map(|(&a, &b)| a * b).sum();
        let orow = out.row_mut(r);
        for ((o, &yv), &dyv) in orow.iter_mut().zip(yr).zip(dyr) {
            *o = yv * (dyv - dot);
        }
    }
    out
}

/// Saved statistics from [`layernorm_forward`] needed by the backward pass.
#[derive(Debug, Clone)]
pub struct LayerNormCache {
    /// Per-row inverse standard deviation `1 / sqrt(var + eps)`.
    pub inv_std: Vec<f32>,
    /// The normalized activations `x̂ = (x - mean) * inv_std`.
    pub normalized: Matrix,
}

/// Row-wise LayerNorm with learnable `gamma` (scale) and `beta` (shift).
///
/// Normalizes each row to zero mean / unit variance, then applies the affine
/// transform. Returns the output and a [`LayerNormCache`] for the backward
/// pass. This implements the `LayerNorm` of Eq. 9 in the paper.
///
/// # Panics
///
/// Panics if `gamma` or `beta` length differs from `x.cols()`.
pub fn layernorm_forward(x: &Matrix, gamma: &[f32], beta: &[f32]) -> (Matrix, LayerNormCache) {
    let mut normalized = Matrix::zeros(x.rows(), x.cols());
    let (out, inv_std) =
        dispatch!(B => layernorm_impl::<B, false>(x, gamma, beta, Some(&mut normalized)));
    (out, LayerNormCache { inv_std, normalized })
}

/// Tape-free LayerNorm: the output of [`layernorm_forward`], bit for bit,
/// without building the backward cache.
///
/// # Panics
///
/// Panics if `gamma` or `beta` length differs from `x.cols()`.
pub fn layernorm_rows(x: &Matrix, gamma: &[f32], beta: &[f32]) -> Matrix {
    dispatch!(B => layernorm_impl::<B, false>(x, gamma, beta, None)).0
}

/// Inference-only LayerNorm: identical contract to [`layernorm_forward`]
/// but with lane-parallel mean/variance reductions and no backward cache.
/// Output is within a documented ULP bound of the training kernel.
pub fn layernorm_rows_fast(x: &Matrix, gamma: &[f32], beta: &[f32]) -> Matrix {
    dispatch!(B => layernorm_impl::<B, true>(x, gamma, beta, None)).0
}

/// Rows of eight whose statistics [`layernorm_impl`] reduces abreast.
const LN_ROWS: usize = 8;

/// The LayerNorm forward: the output and each row's `inv_std`, with `x̂`
/// written to `normalized` when the caller keeps it for the backward pass.
/// Per row the statistics are ascending, `-0.0`-seeded chains — the sum,
/// then `Σ (x - mean)²` — which the training path runs eight rows abreast
/// on a transposed block ([`KernelBackend::sum8`],
/// [`KernelBackend::sq_diff_sum8`]); each row keeps its own chain, so its
/// bits do not depend on the row's position. `FAST` takes the lane-tree
/// reductions one row at a time.
fn layernorm_impl<B: KernelBackend, const FAST: bool>(
    x: &Matrix,
    gamma: &[f32],
    beta: &[f32],
    mut normalized: Option<&mut Matrix>,
) -> (Matrix, Vec<f32>) {
    let (rows, d) = x.shape();
    assert_eq!(gamma.len(), d, "gamma length mismatch");
    assert_eq!(beta.len(), d, "beta length mismatch");
    let mut out = Matrix::zeros(rows, d);
    if d == 0 {
        // Width-0 rows have no features to normalize; `sum / d` would make
        // mean (and then inv_std) NaN. Mirror the softmax kernels and make
        // this a well-defined no-op: empty rows out, a finite placeholder
        // inv_std so the backward pass stays NaN-free.
        return (out, vec![1.0; rows]);
    }
    let over_d = |v: f32| v / d as f32;
    let inv_std_of = |sq: f32| 1.0 / (over_d(sq) + LN_EPS).sqrt();
    let mut inv_std = Vec::with_capacity(rows);
    let mut xt = if FAST { Vec::new() } else { vec![0.0f32; LN_ROWS * d] };
    let mut xhat = if normalized.is_some() { Vec::new() } else { vec![0.0f32; d] };
    for r0 in (0..rows).step_by(LN_ROWS) {
        let n = LN_ROWS.min(rows - r0);
        let (mut mean, mut is) = ([0.0f32; LN_ROWS], [0.0f32; LN_ROWS]);
        if FAST {
            for i in 0..n {
                let row = x.row(r0 + i);
                mean[i] = over_d(B::sum_fast(row));
                is[i] = inv_std_of(B::sq_diff_sum_fast(row, mean[i]));
            }
        } else {
            // Lanes from `n` on hold the previous block's rows (or zeros);
            // their statistics are computed and dropped.
            B::transpose(&x.as_slice()[r0 * d..(r0 + n) * d], n, d, &mut xt, LN_ROWS);
            mean = B::sum8(&xt).map(over_d);
            is = B::sq_diff_sum8(&xt, mean).map(inv_std_of);
        }
        for i in 0..n {
            let r = r0 + i;
            let xh = match normalized.as_deref_mut() {
                Some(m) => m.row_mut(r),
                None => &mut xhat[..],
            };
            B::normalize_row(xh, x.row(r), mean[i], is[i]);
            B::affine_row(out.row_mut(r), xh, gamma, beta);
        }
        inv_std.extend_from_slice(&is[..n]);
    }
    (out, inv_std)
}

/// Backward pass of [`layernorm_forward`].
///
/// Returns `(dx, dgamma, dbeta)` given the upstream gradient `dy` and the
/// forward cache.
///
/// # Panics
///
/// Panics if shapes disagree with the cached forward pass.
pub fn layernorm_backward(
    dy: &Matrix,
    gamma: &[f32],
    cache: &LayerNormCache,
) -> (Matrix, Vec<f32>, Vec<f32>) {
    let d = dy.cols();
    assert_eq!(gamma.len(), d, "gamma length mismatch");
    assert_eq!(cache.normalized.shape(), dy.shape(), "cache shape mismatch");
    let n_rows = dy.rows();
    if d == 0 {
        // Width-0 forward was a no-op; the backward has no feature axis to
        // reduce over either (and `1.0 / d` below would be inf).
        return (Matrix::zeros(n_rows, 0), Vec::new(), Vec::new());
    }
    let mut dx = Matrix::zeros(n_rows, d);
    let mut dgamma = vec![0.0f32; d];
    let mut dbeta = vec![0.0f32; d];
    for r in 0..n_rows {
        let dyr = dy.row(r);
        let xhat = cache.normalized.row(r);
        let is = cache.inv_std[r];
        // dL/dxhat_c = dy_c * gamma_c
        // dx = (1/D) * inv_std * (D*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat))
        let mut sum_dxhat = 0.0f32;
        let mut sum_dxhat_xhat = 0.0f32;
        for c in 0..d {
            let dxhat = dyr[c] * gamma[c];
            sum_dxhat += dxhat;
            sum_dxhat_xhat += dxhat * xhat[c];
            dgamma[c] += dyr[c] * xhat[c];
            dbeta[c] += dyr[c];
        }
        let drow = dx.row_mut(r);
        let inv_d = 1.0 / d as f32;
        for c in 0..d {
            let dxhat = dyr[c] * gamma[c];
            drow[c] = is * (dxhat - inv_d * sum_dxhat - inv_d * xhat[c] * sum_dxhat_xhat);
        }
    }
    (dx, dgamma, dbeta)
}

/// The readout logits of Eq. 10, `αᵀ [Ĥ₀ ‖ Ĥₖ]` for every node and hop
/// `k ≥ 1`, read from the node-major hop stack `h` in place: node `i`'s
/// hops are rows `i·k1 .. (i+1)·k1` of `h`, `α` is the `2d` column of the
/// readout, and the result is `nodes × (k1 − 1)`.
///
/// Each logit is bitwise its row of the product `[Ĥ₀ ‖ Ĥₖ] · α` by
/// [`Matrix::gemm`] at `Gemm::NN`, exact or fused (both run one chain per
/// row of a one-column product): `+0.0`, then one fused multiply-add per
/// column of the concat, ascending, a bitwise-zero coefficient skipped. The
/// first `d` steps of a node's `K` rows are the same, so each node's hop-0
/// chain over `α[..d]` runs once, on the hop-0 lanes only, and every hop
/// continues it over `α[d..]`. `h` is transposed once, one row per (hop,
/// column) with node `i` in lane `i`, and each step is one
/// `KernelBackend::fma_lanes`: over the nodes' lanes for hop 0, over the
/// lanes of every node and hop from 1 on for the others.
///
/// # Panics
///
/// Panics if `k1` is zero or does not divide `h.rows()`, or `alpha` is not
/// `2 · h.cols()` long.
pub fn readout_logits(h: &Matrix, alpha: &[f32], k1: usize) -> Matrix {
    let (nodes, d) = hop_stack_shape(h, k1);
    assert_eq!(alpha.len(), 2 * d, "readout alpha length mismatch");
    let (k, (alpha0, alpha_k)) = (k1 - 1, alpha.split_at(d));
    let mut logits = Matrix::zeros(nodes, k);
    if logits.is_empty() || d == 0 {
        return logits;
    }
    // `ht` row `hop·d + c` is column `c` of every node's hop `hop`; `chains`
    // row 0 is the hop-0 chain and row `hop` hop `hop`'s logit, per node;
    // `lanes` holds one column of every hop from 1 on, in `chains`' order.
    let mut ht = Matrix::zeros(k1 * d, nodes);
    let mut chains = Matrix::zeros(k1, nodes);
    let mut lanes = Matrix::zeros(k, nodes);
    dispatch!(B => {
        B::transpose(h.as_slice(), nodes, k1 * d, ht.as_mut_slice(), nodes);
        let (hop0, hops) = chains.as_mut_slice().split_at_mut(nodes);
        for (column, &a) in ht.as_slice().chunks_exact(nodes).zip(alpha0) {
            B::fma_lanes(hop0, column, a);
        }
        for chain in hops.chunks_exact_mut(nodes) {
            chain.copy_from_slice(hop0);
        }
        // Each column's step of all `K` hop chains is one call.
        let hop_rows = &ht.as_slice()[d * nodes..];
        for (c, &a) in alpha_k.iter().enumerate() {
            let columns = hop_rows[c * nodes..].chunks(d * nodes);
            for (lane, column) in lanes.as_mut_slice().chunks_exact_mut(nodes).zip(columns) {
                lane.copy_from_slice(&column[..nodes]);
            }
            B::fma_lanes(hops, lanes.as_slice(), a);
        }
        B::transpose(hops, k, nodes, logits.as_mut_slice(), k);
    });
    give_back(ht);
    give_back(chains);
    give_back(lanes);
    logits
}

/// The readout sum of Eq. 10, `y = Ĥ₀ + Σₖ cₖ Ĥₖ` per node, read from the
/// node-major hop stack `h` in place with the `nodes × (k1 − 1)` scores.
/// Bitwise the batched `(1 × K) · (K × d)` product of [`Matrix::gemm`]
/// (`Gemm::NN.batched`, exact or fused) — per element `+0.0`, then one
/// `KernelBackend::fma_row` step per hop, ascending, a zero score
/// skipped — followed by the element-wise `Ĥ₀ + ·`.
///
/// # Panics
///
/// Panics if `k1` is zero or does not divide `h.rows()`, or `scores` is not
/// `nodes × (k1 − 1)`.
pub fn readout_sum(h: &Matrix, scores: &Matrix, k1: usize) -> Matrix {
    let (nodes, d) = hop_stack_shape(h, k1);
    assert_eq!(scores.shape(), (nodes, k1 - 1), "readout scores shape mismatch");
    let mut y = Matrix::zeros(nodes, d);
    if y.is_empty() {
        return y;
    }
    dispatch!(B => for (i, yrow) in y.as_mut_slice().chunks_exact_mut(d).enumerate() {
        let (h0, hops) = h.as_slice()[i * k1 * d..(i + 1) * k1 * d].split_at(d);
        for (&c, hk) in scores.row(i).iter().zip(hops.chunks_exact(d)) {
            B::fma_row(yrow, c, hk);
        }
        for (y, &h0) in yrow.iter_mut().zip(h0) {
            *y += h0;
        }
    });
    y
}

/// `(nodes, d)` of a node-major hop stack of `k1` rows a node.
fn hop_stack_shape(h: &Matrix, k1: usize) -> (usize, usize) {
    assert!(
        k1 > 0 && h.rows().is_multiple_of(k1),
        "{} rows are not whole nodes of {k1} hops",
        h.rows()
    );
    (h.rows() / k1, h.cols())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Matrix::from_fn(4, 6, |r, c| ((r * 6 + c) as f32).sin() * 3.0);
        let y = softmax_rows(&x);
        for r in 0..4 {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
            assert!(y.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let x = Matrix::from_rows(&[&[1000.0, -1000.0], &[-1000.0, -1000.0]]);
        let y = softmax_rows(&x);
        assert!(y.is_finite());
        assert!((y[(0, 0)] - 1.0).abs() < 1e-6);
        assert!((y[(1, 0)] - 0.5).abs() < 1e-6);
    }

    /// Regression: a fully masked row (all `-inf`, as produced by attention
    /// masks) used to come back all-NaN because `x - max` was `-inf - -inf`.
    #[test]
    fn softmax_fully_masked_row_is_uniform() {
        let x = Matrix::from_rows(&[
            &[f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY],
            &[0.0, f32::NEG_INFINITY, 0.0],
        ]);
        let y = softmax_rows(&x);
        assert!(y.is_finite(), "masked softmax produced non-finite output: {y:?}");
        for &v in y.row(0) {
            assert!((v - 1.0 / 3.0).abs() < 1e-6, "masked row not uniform: {:?}", y.row(0));
        }
        // Partially masked rows keep the usual semantics: -inf entries get
        // zero mass and the rest renormalizes.
        assert!((y[(1, 0)] - 0.5).abs() < 1e-6);
        assert!(y[(1, 1)].abs() < 1e-9);
        assert!((y[(1, 2)] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn scan_classifies_rows() {
        assert_eq!(scan_logits(&[1.0, -2.0]), RowScan::Finite(1.0));
        assert_eq!(scan_logits(&[f32::NEG_INFINITY, 3.0]), RowScan::Finite(3.0));
        assert_eq!(scan_logits(&[f32::NEG_INFINITY, f32::NEG_INFINITY]), RowScan::AllMasked);
        // The old `f32::max` fold dropped NaN, so `[NaN, 0.0]` looked like a
        // normal row with max 0.0 and the NaN slipped through undetected.
        assert_eq!(scan_logits(&[f32::NAN, 0.0]), RowScan::HasNan);
        assert_eq!(scan_logits(&[0.0, f32::NAN]), RowScan::HasNan);
        assert_eq!(scan_logits(&[f32::NAN, f32::NEG_INFINITY]), RowScan::HasNan);
        assert_eq!(scan_logits(&[f32::INFINITY, f32::NAN]), RowScan::HasNan);
    }

    /// Regression: a single NaN logit must not slip past the masked-row
    /// check. In debug builds the kernels trip a `debug_assert` right at the
    /// kernel boundary; in release they return a deterministic whole-NaN
    /// row (pinned by `scan_classifies_rows` + the release-only test below).
    #[test]
    #[cfg(debug_assertions)]
    fn nan_logit_trips_debug_assert() {
        for kernel in [softmax_rows, softmax_rows_fast] {
            let x = Matrix::from_rows(&[&[0.0, f32::NAN, 1.0]]);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| kernel(&x)))
                .expect_err("NaN logit must panic in debug builds");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(msg.contains("NaN logit"), "unexpected panic message: {msg}");
        }
    }

    /// The release half of the NaN contract: the whole row is NaN no matter
    /// where the NaN sat, and clean rows are untouched.
    #[test]
    #[cfg(not(debug_assertions))]
    fn nan_logit_poisons_whole_row_deterministically() {
        for kernel in [softmax_rows, softmax_rows_fast] {
            let x = Matrix::from_rows(&[&[0.0, f32::NAN, 1.0], &[0.5, 0.25, -1.0]]);
            let y = kernel(&x);
            assert!(y.row(0).iter().all(|v| v.is_nan()), "row 0 not fully NaN: {y:?}");
            assert!(y.row(1).iter().all(|v| v.is_finite()), "clean row corrupted: {y:?}");
            // Position independence: NaN elsewhere gives the same row 0.
            let x2 = Matrix::from_rows(&[&[f32::NAN, 0.0, 1.0], &[0.5, 0.25, -1.0]]);
            let y2 = kernel(&x2);
            assert!(y2.row(0).iter().all(|v| v.is_nan()));
            assert_eq!(y.row(1), y2.row(1));
        }
    }

    /// Regression: width-0 rows used to hit `1.0 / 0.0`; they must now be
    /// well-defined no-ops.
    #[test]
    fn softmax_width_zero_rows_are_noops() {
        let x = Matrix::zeros(3, 0);
        let y = softmax_rows(&x);
        assert_eq!(y.shape(), (3, 0));
        assert!(y.is_finite());
    }

    /// Finite-difference check of the softmax Jacobian.
    #[test]
    fn softmax_backward_matches_finite_difference() {
        let x = Matrix::from_fn(2, 4, |r, c| (r as f32 + c as f32 * 0.3).cos());
        let dy = Matrix::from_fn(2, 4, |r, c| ((r + 2 * c) as f32 * 0.17).sin());
        let y = softmax_rows(&x);
        let dx = softmax_backward_rows(&y, &dy);
        let eps = 1e-3;
        for r in 0..2 {
            for c in 0..4 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let lp: f32 = softmax_rows(&xp)
                    .as_slice()
                    .iter()
                    .zip(dy.as_slice())
                    .map(|(&a, &b)| a * b)
                    .sum();
                let lm: f32 = softmax_rows(&xm)
                    .as_slice()
                    .iter()
                    .zip(dy.as_slice())
                    .map(|(&a, &b)| a * b)
                    .sum();
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - dx[(r, c)]).abs() < 1e-3,
                    "({r},{c}): fd={fd} analytic={}",
                    dx[(r, c)]
                );
            }
        }
    }

    /// Regression: width-0 matrices used to hit `sum / 0` → NaN mean and
    /// NaN `inv_std`; forward and backward must now be well-defined no-ops
    /// like the softmax kernels.
    #[test]
    fn layernorm_width_zero_is_noop_forward_and_backward() {
        let x = Matrix::zeros(3, 0);
        let (y, cache) = layernorm_forward(&x, &[], &[]);
        assert_eq!(y.shape(), (3, 0));
        assert!(y.is_finite());
        assert_eq!(cache.inv_std.len(), 3);
        assert!(cache.inv_std.iter().all(|v| v.is_finite()), "NaN inv_std: {cache:?}");
        let dy = Matrix::zeros(3, 0);
        let (dx, dgamma, dbeta) = layernorm_backward(&dy, &[], &cache);
        assert_eq!(dx.shape(), (3, 0));
        assert!(dx.is_finite());
        assert!(dgamma.is_empty());
        assert!(dbeta.is_empty());
    }

    /// The fast kernels share the scalar edge-case contract exactly.
    #[test]
    fn fast_kernels_handle_masked_and_empty_rows() {
        let x = Matrix::from_rows(&[
            &[f32::NEG_INFINITY, f32::NEG_INFINITY],
            &[2.0, f32::NEG_INFINITY],
        ]);
        let y = softmax_rows_fast(&x);
        assert!(y.is_finite());
        assert!((y[(0, 0)] - 0.5).abs() < 1e-6);
        assert!((y[(1, 0)] - 1.0).abs() < 1e-6);
        assert_eq!(softmax_rows_fast(&Matrix::zeros(2, 0)).shape(), (2, 0));
        let z = Matrix::zeros(2, 0);
        assert_eq!(layernorm_rows_fast(&z, &[], &[]).shape(), (2, 0));
    }

    /// The fast variants stay numerically close to the training kernels.
    #[test]
    fn fast_kernels_track_training_kernels() {
        let x = Matrix::from_fn(5, 37, |r, c| ((r * 37 + c) as f32 * 0.13).sin() * 2.0);
        assert!(softmax_rows(&x).max_abs_diff(&softmax_rows_fast(&x)) < 1e-6);
        let gamma: Vec<f32> = (0..37).map(|i| 0.5 + 0.01 * i as f32).collect();
        let beta: Vec<f32> = (0..37).map(|i| 0.02 * i as f32).collect();
        let (y, _) = layernorm_forward(&x, &gamma, &beta);
        assert!(y.max_abs_diff(&layernorm_rows_fast(&x, &gamma, &beta)) < 1e-4);
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let x = Matrix::from_fn(3, 8, |r, c| (r * 8 + c) as f32 * 1.5 + 2.0);
        let gamma = vec![1.0; 8];
        let beta = vec![0.0; 8];
        let (y, _) = layernorm_forward(&x, &gamma, &beta);
        for r in 0..3 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 8.0;
            let var: f32 = y.row(r).iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {r} var {var}");
        }
    }

    #[test]
    fn layernorm_affine_applies_gamma_beta() {
        let x = Matrix::from_fn(2, 4, |r, c| (r + c) as f32);
        let gamma = vec![2.0; 4];
        let beta = vec![5.0; 4];
        let (y, _) = layernorm_forward(&x, &gamma, &beta);
        let (y0, _) = layernorm_forward(&x, &[1.0; 4], &[0.0; 4]);
        assert!(y.max_abs_diff(&y0.map(|v| v * 2.0 + 5.0)) < 1e-5);
    }

    #[test]
    fn layernorm_backward_matches_finite_difference() {
        let x = Matrix::from_fn(2, 5, |r, c| ((r * 5 + c) as f32 * 0.37).sin() * 2.0);
        let gamma: Vec<f32> = (0..5).map(|i| 0.5 + 0.2 * i as f32).collect();
        let beta: Vec<f32> = (0..5).map(|i| 0.1 * i as f32).collect();
        let dy = Matrix::from_fn(2, 5, |r, c| ((r + c) as f32 * 0.23).cos());
        let (_, cache) = layernorm_forward(&x, &gamma, &beta);
        let (dx, dgamma, dbeta) = layernorm_backward(&dy, &gamma, &cache);

        let loss = |xx: &Matrix, gg: &[f32], bb: &[f32]| -> f32 {
            let (y, _) = layernorm_forward(xx, gg, bb);
            y.as_slice().iter().zip(dy.as_slice()).map(|(&a, &b)| a * b).sum()
        };
        let eps = 1e-2;
        for r in 0..2 {
            for c in 0..5 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let fd = (loss(&xp, &gamma, &beta) - loss(&xm, &gamma, &beta)) / (2.0 * eps);
                assert!(
                    (fd - dx[(r, c)]).abs() < 2e-2,
                    "dx({r},{c}): fd={fd} analytic={}",
                    dx[(r, c)]
                );
            }
        }
        for c in 0..5 {
            let mut gp = gamma.clone();
            gp[c] += eps;
            let mut gm = gamma.clone();
            gm[c] -= eps;
            let fd = (loss(&x, &gp, &beta) - loss(&x, &gm, &beta)) / (2.0 * eps);
            assert!((fd - dgamma[c]).abs() < 2e-2, "dgamma[{c}]: fd={fd} vs {}", dgamma[c]);
            let mut bp = beta.clone();
            bp[c] += eps;
            let mut bm = beta.clone();
            bm[c] -= eps;
            let fd = (loss(&x, &gamma, &bp) - loss(&x, &gamma, &bm)) / (2.0 * eps);
            assert!((fd - dbeta[c]).abs() < 2e-2, "dbeta[{c}]: fd={fd} vs {}", dbeta[c]);
        }
    }
}
