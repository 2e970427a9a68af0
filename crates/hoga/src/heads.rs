//! Task heads on top of HOGA (or baseline) node representations.
//!
//! The paper keeps the surrounding task pipelines of OpenABC-D and Gamora
//! and only swaps the representation model (Figure 3). These heads mirror
//! those pipelines: a linear node classifier for functional reasoning, and
//! a pooled MLP regressor for graph-level QoR prediction.

use crate::infer::NoTape;
use hoga_autograd::{Ops, ParamId, ParamSet};
use hoga_tensor::{Init, Matrix};
use std::error::Error;
use std::fmt;

/// Typed shape mismatch from the tape-free head entry point
/// ([`GraphRegressor::infer`]); the serving layer maps it to a request
/// error instead of unwinding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadShapeError {
    /// Input width the head was constructed for.
    pub expect: usize,
    /// Width of the matrix actually passed.
    pub got: usize,
}

impl fmt::Display for HeadShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "head input width mismatch: head expects {}, got {}", self.expect, self.got)
    }
}

impl Error for HeadShapeError {}

/// Linear per-node classifier (the Gamora pipeline's output stage).
#[derive(Debug, Clone, Copy)]
pub struct NodeClassifier {
    w: ParamId,
    b: ParamId,
    /// Number of classes.
    pub num_classes: usize,
}

impl NodeClassifier {
    /// Registers classifier parameters in `params`.
    pub fn new(params: &mut ParamSet, in_dim: usize, num_classes: usize, seed: u64) -> Self {
        let w = params.add("cls.w", Init::XavierUniform.matrix(in_dim, num_classes, seed));
        let b = params.add("cls.b", Init::Zeros.matrix(1, num_classes, seed ^ 1));
        Self { w, b, num_classes }
    }

    /// Produces `(batch, num_classes)` logits from node representations, on
    /// a tape or tape-free.
    pub fn logits<'p, O: Ops<'p>>(
        &self,
        ops: &mut O,
        params: &'p ParamSet,
        reps: O::Var,
    ) -> O::Var {
        let w = ops.param(params, self.w);
        let b = ops.param(params, self.b);
        let z = ops.matmul(reps, w);
        ops.add_bias(z, b)
    }
}

/// Graph-level regression head: mean-pool node representations per graph,
/// then a two-layer MLP to a scalar (the OpenABC-D pipeline's output stage).
#[derive(Debug, Clone, Copy)]
pub struct GraphRegressor {
    mlp: Mlp,
}

impl GraphRegressor {
    /// Registers regressor parameters in `params`.
    pub fn new(params: &mut ParamSet, in_dim: usize, hidden: usize, seed: u64) -> Self {
        Self { mlp: Mlp::new(params, "reg", [in_dim, hidden, 1], seed) }
    }

    /// Predicts one scalar per graph, on a tape or tape-free: mean-pools
    /// each graph's node representations, concatenates its side
    /// information (the encoded synthesis recipe, following the OpenABC-D
    /// pipeline) and runs the MLP.
    ///
    /// `segments[g]` is the contiguous row range of graph `g`'s nodes inside
    /// `reps`, `extra` is `(num_graphs, e)`, and the head must have been
    /// constructed with `in_dim = rep_dim + e`. Returns `(num_graphs, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `extra.rows() != segments.len()` or a segment is empty.
    pub fn predict_with_extra<'p, O: Ops<'p>>(
        &self,
        ops: &mut O,
        params: &'p ParamSet,
        reps: O::Var,
        segments: Vec<(usize, usize)>,
        extra: &Matrix,
    ) -> O::Var {
        assert_eq!(extra.rows(), segments.len(), "one extra row per graph required");
        let pooled = ops.segment_mean(reps, segments);
        let extra = ops.constant(extra.clone());
        let cat = ops.concat_cols(pooled, extra);
        self.mlp.run(ops, params, cat)
    }

    /// Tape-free scoring: the MLP of [`GraphRegressor::predict_with_extra`]
    /// on a [`NoTape`] at `Exact`. `pooled_with_extra` is the mean-pooled
    /// graph embedding ([`Matrix::segment_mean`]) with any side information
    /// (encoded recipe) already concatenated, one row per graph; the result
    /// is `(rows, 1)` scores, bitwise identical to
    /// [`GraphRegressor::predict_with_extra`] over the same node set.
    ///
    /// # Errors
    ///
    /// [`HeadShapeError`] when the input width disagrees with the width the
    /// head was constructed for (never panics: this sits on the server's
    /// request path).
    pub fn infer(
        &self,
        params: &ParamSet,
        pooled_with_extra: &Matrix,
    ) -> Result<Matrix, HeadShapeError> {
        let expect = params.value(self.mlp.0[0]).rows();
        if pooled_with_extra.cols() != expect {
            return Err(HeadShapeError { expect, got: pooled_with_extra.cols() });
        }
        let mut ops = NoTape::new();
        let x = ops.constant(pooled_with_extra.clone());
        let out = self.mlp.run(&mut ops, params, x);
        Ok(ops.value(out).clone())
    }

    /// [`GraphRegressor::infer`] of one graph against each row of `extra`
    /// (one encoded recipe a row), pooling the graph's node representations
    /// `reps` once: row `r` is [`GraphRegressor::predict_with_extra`]'s over
    /// one `(0, reps.rows())` segment, bit for bit. Evaluation, serving and
    /// the reload canary score through here.
    ///
    /// # Errors
    ///
    /// As [`GraphRegressor::infer`]; panics if `reps` has no rows.
    pub fn score(
        &self,
        params: &ParamSet,
        reps: &Matrix,
        extra: &Matrix,
    ) -> Result<Matrix, HeadShapeError> {
        let pooled = reps.segment_mean(&[(0, reps.rows())]);
        self.infer(params, &pooled.select_rows(&vec![0; extra.rows()]).concat_cols(extra))
    }
}

/// `relu(x W₁ + b₁) W₂ + b₂`, the two-layer MLP of the graph-level heads:
/// `W₁`, `b₁`, `W₂`, `b₂`.
#[derive(Debug, Clone, Copy)]
struct Mlp([ParamId; 4]);

impl Mlp {
    /// Registers `{name}.w1` … `{name}.b2` for `in → hidden → out`.
    fn new(params: &mut ParamSet, name: &str, [i, h, o]: [usize; 3], seed: u64) -> Self {
        Mlp([
            params.add(format!("{name}.w1"), Init::XavierUniform.matrix(i, h, seed)),
            params.add(format!("{name}.b1"), Init::Zeros.matrix(1, h, seed ^ 1)),
            params.add(format!("{name}.w2"), Init::XavierUniform.matrix(h, o, seed ^ 2)),
            params.add(format!("{name}.b2"), Init::Zeros.matrix(1, o, seed ^ 3)),
        ])
    }

    fn run<'p, O: Ops<'p>>(self, ops: &mut O, params: &'p ParamSet, x: O::Var) -> O::Var {
        let [w1, b1, w2, b2] = self.0.map(|id| ops.param(params, id));
        let h = ops.matmul(x, w1);
        let h = ops.add_bias(h, b1);
        let h = ops.relu(h);
        let out = ops.matmul(h, w2);
        ops.add_bias(out, b2)
    }
}

/// Graph-level classification head: mean-pool node representations per
/// graph, then a two-layer MLP to class logits. Used by the design-category
/// classification example (an extra task beyond the paper, demonstrating
/// that HOGA embeddings carry design-family information).
#[derive(Debug, Clone, Copy)]
pub struct GraphClassifier {
    mlp: Mlp,
    /// Number of classes.
    pub num_classes: usize,
}

impl GraphClassifier {
    /// Registers classifier parameters in `params`.
    pub fn new(
        params: &mut ParamSet,
        in_dim: usize,
        hidden: usize,
        num_classes: usize,
        seed: u64,
    ) -> Self {
        Self { mlp: Mlp::new(params, "gcls", [in_dim, hidden, num_classes], seed), num_classes }
    }

    /// Produces `(num_graphs, num_classes)` logits, on a tape or
    /// tape-free; `segments[g]` is the contiguous row range of graph `g`'s
    /// nodes inside `reps`.
    pub fn logits<'p, O: Ops<'p>>(
        &self,
        ops: &mut O,
        params: &'p ParamSet,
        reps: O::Var,
        segments: Vec<(usize, usize)>,
    ) -> O::Var {
        let pooled = ops.segment_mean(reps, segments);
        self.mlp.run(ops, params, pooled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoga_autograd::optim::{Adam, Optimizer};
    use hoga_autograd::Tape;

    #[test]
    fn classifier_shapes_and_training() {
        let mut params = ParamSet::new();
        let cls = NodeClassifier::new(&mut params, 6, 4, 0);
        let reps_data = Init::SmallUniform.matrix(10, 6, 1);
        // Labels follow a linear rule so the classifier can fit them.
        let labels: Vec<usize> = (0..10).map(|i| i % 4).collect();
        let mut opt = Adam::new(5e-2);
        let mut last = f32::MAX;
        for _ in 0..200 {
            let mut tape = Tape::new();
            let reps = tape.constant(reps_data.clone());
            let logits = cls.logits(&mut tape, &params, reps);
            assert_eq!(tape.value(logits).shape(), (10, 4));
            let loss = tape.cross_entropy_mean(logits, &labels);
            last = tape.value(loss)[(0, 0)];
            let grads = tape.backward(loss);
            opt.step(&mut params, &grads);
        }
        // A linear head on 10 random points is not perfectly separable;
        // require a clear drop below the ln(4) ≈ 1.386 uniform baseline.
        assert!(last < 1.0, "classifier failed to fit memorizable labels: {last}");
    }

    #[test]
    fn regressor_pools_and_predicts_per_graph() {
        let mut params = ParamSet::new();
        let reg = GraphRegressor::new(&mut params, 4 + 1, 8, 2);
        let reps_data = Matrix::from_fn(7, 4, |r, c| (r + c) as f32 * 0.1);
        let extra = Matrix::from_rows(&[&[0.5], &[-0.5]]);
        let mut tape = Tape::new();
        let reps = tape.constant(reps_data);
        let pred = reg.predict_with_extra(&mut tape, &params, reps, vec![(0, 3), (3, 7)], &extra);
        assert_eq!(tape.value(pred).shape(), (2, 1));
        assert!(tape.value(pred).is_finite());
    }

    #[test]
    fn graph_classifier_separates_pooled_means() {
        let mut params = ParamSet::new();
        let cls = GraphClassifier::new(&mut params, 3, 8, 2, 9);
        // Two graph populations with distinct pooled means.
        let reps_data = Matrix::from_fn(12, 3, |r, _| if (r / 3) % 2 == 0 { 0.4 } else { -0.4 });
        let segments: Vec<(usize, usize)> = (0..4).map(|g| (g * 3, (g + 1) * 3)).collect();
        let labels = vec![0usize, 1, 0, 1];
        let mut opt = Adam::new(2e-2);
        let mut last = f32::MAX;
        for _ in 0..120 {
            let mut tape = Tape::new();
            let reps = tape.constant(reps_data.clone());
            let logits = cls.logits(&mut tape, &params, reps, segments.clone());
            assert_eq!(tape.value(logits).shape(), (4, 2));
            let loss = tape.cross_entropy_mean(logits, &labels);
            last = tape.value(loss)[(0, 0)];
            let grads = tape.backward(loss);
            opt.step(&mut params, &grads);
        }
        assert!(last < 0.1, "graph classifier failed to separate: {last}");
    }

    #[test]
    fn tape_free_head_matches_tape_head_bitwise() {
        let mut params = ParamSet::new();
        let reg = GraphRegressor::new(&mut params, 4 + 2, 8, 6);
        let reps_data = Matrix::from_fn(6, 4, |r, c| ((r * 3 + c) as f32).sin() * 0.3);
        let extra = Matrix::from_fn(2, 2, |r, c| (r + c) as f32 * 0.5 - 0.4);
        let segments = vec![(0usize, 3usize), (3, 6)];
        let mut tape = Tape::new();
        let reps = tape.constant(reps_data.clone());
        let pred = reg.predict_with_extra(&mut tape, &params, reps, segments.clone(), &extra);
        let want = tape.value(pred).clone();
        // Mean-pool by hand, concat extra, run the tape-free MLP.
        let mut pooled = Matrix::zeros(2, 6);
        for (g, &(lo, hi)) in segments.iter().enumerate() {
            // Multiply by the reciprocal, exactly like Matrix::segment_mean,
            // so the bitwise comparison below is fair.
            let inv = 1.0 / (hi - lo) as f32;
            for c in 0..4 {
                let s: f32 = (lo..hi).map(|r| reps_data[(r, c)]).sum();
                pooled[(g, c)] = s * inv;
            }
            for c in 0..2 {
                pooled[(g, 4 + c)] = extra[(g, c)];
            }
        }
        let got = reg.infer(&params, &pooled).expect("widths agree");
        assert_eq!(want.shape(), got.shape());
        let want_bits: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
        let got_bits: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(want_bits, got_bits, "tape-free head drifted from the tape head");
    }

    #[test]
    fn tape_free_head_rejects_wrong_width() {
        let mut params = ParamSet::new();
        let reg = GraphRegressor::new(&mut params, 5, 8, 7);
        let wrong = Matrix::zeros(2, 4);
        assert_eq!(reg.infer(&params, &wrong), Err(HeadShapeError { expect: 5, got: 4 }));
    }

    #[test]
    fn regressor_fits_mean_feature_target() {
        let mut params = ParamSet::new();
        let reg = GraphRegressor::new(&mut params, 3 + 1, 8, 4);
        // Two graphs with controllable means and the same side input.
        let reps_data = Matrix::from_fn(8, 3, |r, _| if r < 4 { 0.2 } else { -0.4 });
        let extra = Matrix::full(2, 1, 1.0);
        let target = Matrix::from_rows(&[&[1.0], &[-1.0]]);
        let mut opt = Adam::new(1e-2);
        let mut last = f32::MAX;
        for _ in 0..150 {
            let mut tape = Tape::new();
            let reps = tape.constant(reps_data.clone());
            let pred =
                reg.predict_with_extra(&mut tape, &params, reps, vec![(0, 4), (4, 8)], &extra);
            let loss = tape.mse_loss(pred, &target);
            last = tape.value(loss)[(0, 0)];
            let grads = tape.backward(loss);
            opt.step(&mut params, &grads);
        }
        assert!(last < 1e-2, "regressor failed to fit: {last}");
    }
}
