//! Finite-difference gradient checking.
//!
//! Every exotic op in the tape (every dense product layout, LayerNorm,
//! segment pooling, the readout gather) is validated against central
//! differences here and in the model crates' test suites.

use crate::{ParamSet, Tape, Var};
use hoga_tensor::Matrix;

/// Result of a gradient check: the worst absolute and relative deviation
/// observed over all checked coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheckReport {
    /// Largest `|analytic - numeric|`.
    pub max_abs_err: f32,
    /// Largest `|analytic - numeric| / max(1, |analytic|, |numeric|)`.
    pub max_rel_err: f32,
    /// Number of scalar coordinates compared.
    pub coords_checked: usize,
}

impl GradCheckReport {
    /// Whether both deviations are below `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_abs_err < tol && self.max_rel_err < tol
    }
}

/// Checks the analytic gradients of `f` against central finite differences.
///
/// `f` must build a forward pass on the provided tape, using the provided
/// parameter set, and return the scalar loss `Var`. The check perturbs every
/// coordinate of every parameter by `±eps` (f32 arithmetic, so use
/// `eps ≈ 1e-2` and tolerances ≈ `1e-2`).
///
/// # Examples
///
/// ```
/// use hoga_autograd::{gradcheck::check_gradients, Ops, ParamSet, Tape};
/// use hoga_tensor::{Init, Matrix};
///
/// let mut params = ParamSet::new();
/// let w = params.add("w", Init::SmallUniform.matrix(3, 3, 0));
/// let report = check_gradients(&mut params, 1e-2, |tape, params| {
///     let x = tape.constant(Matrix::identity(3));
///     let wv = tape.param(params, w);
///     let y = tape.matmul(x, wv);
///     let r = tape.sigmoid(y);
///     tape.sum_all(r)
/// });
/// assert!(report.passes(1e-2));
/// ```
pub fn check_gradients(
    params: &mut ParamSet,
    eps: f32,
    f: impl Fn(&mut Tape, &ParamSet) -> Var,
) -> GradCheckReport {
    // Analytic pass.
    let mut tape = Tape::new();
    let loss = f(&mut tape, params);
    let grads = tape.backward(loss);

    let mut report = GradCheckReport { max_abs_err: 0.0, max_rel_err: 0.0, coords_checked: 0 };
    let ids: Vec<_> = params.iter().map(|(id, _, _)| id).collect();
    for id in ids {
        let shape = params.value(id).shape();
        let analytic = grads.get(id).cloned().unwrap_or_else(|| Matrix::zeros(shape.0, shape.1));
        for r in 0..shape.0 {
            for c in 0..shape.1 {
                let orig = params.value(id)[(r, c)];
                params.value_mut(id)[(r, c)] = orig + eps;
                let mut tp = Tape::new();
                let lp = f(&mut tp, params);
                let lp = tp.value(lp)[(0, 0)] as f64;
                params.value_mut(id)[(r, c)] = orig - eps;
                let mut tm = Tape::new();
                let lm = f(&mut tm, params);
                let lm = tm.value(lm)[(0, 0)] as f64;
                params.value_mut(id)[(r, c)] = orig;

                let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
                let a = analytic[(r, c)];
                let abs = (a - numeric).abs();
                let rel = abs / 1.0f32.max(a.abs()).max(numeric.abs());
                report.max_abs_err = report.max_abs_err.max(abs);
                report.max_rel_err = report.max_rel_err.max(rel);
                report.coords_checked += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ops;
    use hoga_tensor::{CsrMatrix, Gemm, Init, Layout};
    use std::sync::Arc;

    #[test]
    fn mlp_with_bias_and_relu_checks() {
        let mut params = ParamSet::new();
        let w1 = params.add("w1", Init::SmallUniform.matrix(4, 6, 1));
        let b1 = params.add("b1", Init::SmallUniform.matrix(1, 6, 2));
        let w2 = params.add("w2", Init::SmallUniform.matrix(6, 2, 3));
        let x = Init::SmallUniform.matrix(5, 4, 4);
        let t = Init::SmallUniform.matrix(5, 2, 5);
        let report = check_gradients(&mut params, 1e-2, |tape, params| {
            let xv = tape.constant(x.clone());
            let w1v = tape.param(params, w1);
            let b1v = tape.param(params, b1);
            let w2v = tape.param(params, w2);
            let h = tape.matmul(xv, w1v);
            let h = tape.add_bias(h, b1v);
            let h = tape.relu(h);
            let y = tape.matmul(h, w2v);
            tape.mse_loss(y, &t)
        });
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn gated_attention_block_checks() {
        // The exact computation of Eqs. 5-9: U ⊙ softmax(QK^T) V with
        // LayerNorm+ReLU, in batched per-node form.
        let (batch, hops, d) = (3, 4, 5);
        let mut params = ParamSet::new();
        let wq = params.add("wq", Init::SmallUniform.matrix(d, d, 10));
        let wk = params.add("wk", Init::SmallUniform.matrix(d, d, 11));
        let wu = params.add("wu", Init::SmallUniform.matrix(d, d, 12));
        let wv = params.add("wv", Init::SmallUniform.matrix(d, d, 13));
        let gamma = params.add("gamma", Init::Ones.matrix(1, d, 0));
        // Offset beta so ReLU operates away from its kink (finite differences
        // are meaningless at the kink) and scale H so LayerNorm's epsilon is
        // negligible next to the row variance.
        let beta = params.add("beta", Init::Ones.matrix(1, d, 0).scale(0.5));
        let h = Init::SmallUniform.matrix(batch * hops, d, 14).scale(10.0);
        let report = check_gradients(&mut params, 1e-2, |tape, params| {
            let hv = tape.constant(h.clone());
            let q = {
                let w = tape.param(params, wq);
                tape.matmul(hv, w)
            };
            let k = {
                let w = tape.param(params, wk);
                tape.matmul(hv, w)
            };
            let u = {
                let w = tape.param(params, wu);
                tape.matmul(hv, w)
            };
            let v = {
                let w = tape.param(params, wv);
                tape.matmul(hv, w)
            };
            let logits = tape.batched_matmul_nt(q, k, batch);
            let s = tape.softmax_rows(logits);
            let sv = tape.batched_matmul(s, v, batch);
            let gated = tape.hadamard(u, sv);
            let g = tape.param(params, gamma);
            let b = tape.param(params, beta);
            let normed = tape.layer_norm(gated, g, b);
            // Sigmoid instead of the model's ReLU: finite differences are
            // meaningless at ReLU kinks, which LayerNorm centres activations
            // onto. ReLU's backward is covered by the MLP check above.
            let out = tape.sigmoid(normed);
            tape.sum_all(out)
        });
        assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn every_gemm_layout_checks() {
        // One gradient table serves every layout, unbatched and over
        // blocks, with a parameter on each side of the product.
        for (batch, rows, cols) in [(None, 4, 4), (Some(2), 4, 2)] {
            for layout in [Layout::Nn, Layout::Nt, Layout::Tn] {
                let g = Gemm { layout, batch, fused: false };
                let mut params = ParamSet::new();
                let a = params.add("a", Init::SmallUniform.matrix(rows, cols, 50).scale(5.0));
                let b = params.add("b", Init::SmallUniform.matrix(rows, cols, 51).scale(5.0));
                let report = check_gradients(&mut params, 1e-2, |tape, params| {
                    let (av, bv) = (tape.param(params, a), tape.param(params, b));
                    let y = tape.gemm(av, bv, g);
                    let s = tape.sigmoid(y);
                    tape.sum_all(s)
                });
                assert!(report.passes(2e-2), "{g:?}: {report:?}");
            }
        }
    }

    #[test]
    fn readout_gather_and_segment_pool_check() {
        let mut params = ParamSet::new();
        let w = params.add("w", Init::SmallUniform.matrix(3, 3, 20));
        let x = Init::SmallUniform.matrix(6, 3, 21);
        let report = check_gradients(&mut params, 1e-2, |tape, params| {
            let xv = tape.constant(x.clone());
            let wv = tape.param(params, w);
            let h = tape.matmul(xv, wv);
            let picked = tape.select_rows(h, vec![0, 2, 2, 5]);
            let cat = tape.concat_cols(picked, picked);
            let pooled = tape.segment_mean(cat, vec![(0, 2), (2, 4)]);
            tape.sum_all(pooled)
        });
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn spmm_gcn_layer_checks() {
        let adj = Arc::new(CsrMatrix::from_coo(
            4,
            4,
            &[(0, 1, 0.5), (1, 0, 0.5), (1, 2, 0.3), (2, 1, 0.3), (3, 3, 1.0)],
        ));
        let adj_t = Arc::new(adj.transpose());
        let mut params = ParamSet::new();
        let w = params.add("w", Init::SmallUniform.matrix(3, 2, 30));
        let x = Init::SmallUniform.matrix(4, 3, 31);
        let labels = vec![0usize, 1, 0, 1];
        let report = check_gradients(&mut params, 1e-2, |tape, params| {
            let xv = tape.constant(x.clone());
            let wv = tape.param(params, w);
            let xw = tape.matmul(xv, wv);
            let agg = tape.spmm(&adj, &adj_t, xw);
            tape.cross_entropy_mean(agg, &labels)
        });
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn sigmoid_check() {
        let mut params = ParamSet::new();
        let w = params.add("w", Init::SmallUniform.matrix(4, 4, 40));
        let x = Init::SmallUniform.matrix(3, 4, 41);
        let report = check_gradients(&mut params, 1e-2, |tape, params| {
            let xv = tape.constant(x.clone());
            let wv = tape.param(params, w);
            let y = tape.matmul(xv, wv);
            let s = tape.sigmoid(y);
            tape.sum_all(s)
        });
        assert!(report.passes(2e-2), "{report:?}");
    }
}
