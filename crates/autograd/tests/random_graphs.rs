//! Property-based gradient checking on randomly composed computation
//! graphs — the autograd analogue of fuzzing.

use hoga_autograd::gradcheck::check_gradients;
use hoga_autograd::{ParamSet, Tape, Var};
use proptest::prelude::*;

/// A random sequence of smooth ops applied to a parameter matrix; the
/// `*Constant*` ops bring in a second kind of leaf, a `constant`, so the
/// graphs mix branches that need a gradient with branches that do not.
// LayerNorm is deliberately absent: on low-variance rows its Jacobian is
// dominated by the epsilon regularizer and f32 central differences are
// meaningless (its gradient is checked under controlled conditioning in
// the kernel and gradcheck test suites instead).
#[derive(Debug, Clone, Copy)]
enum SmoothOp {
    Sigmoid,
    ScaleHalf,
    AddSelf,
    MatmulSelfT,
    SoftmaxRows,
    /// `h ⊙ σ(C)`: a constant-only branch (leaf and op) joins by product.
    GateByConstant,
    /// `h + C`.
    AddConstant,
    /// `h · C`: only the left gradient exists.
    MatmulConstant,
    /// `C · h`: only the right gradient exists.
    ConstantMatmul,
}

fn arb_ops() -> impl Strategy<Value = Vec<SmoothOp>> {
    proptest::collection::vec(
        prop_oneof![
            Just(SmoothOp::Sigmoid),
            Just(SmoothOp::ScaleHalf),
            Just(SmoothOp::AddSelf),
            Just(SmoothOp::MatmulSelfT),
            Just(SmoothOp::SoftmaxRows),
            Just(SmoothOp::GateByConstant),
            Just(SmoothOp::AddConstant),
            Just(SmoothOp::MatmulConstant),
            Just(SmoothOp::ConstantMatmul),
        ],
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any composition of smooth ops must pass a finite-difference check.
    #[test]
    fn random_smooth_graphs_gradcheck(
        ops in arb_ops(),
        rows in 2..4usize,
        cols in 2..4usize,
        seed in 0..1000u64,
    ) {
        let mut params = ParamSet::new();
        let w = params.add(
            "w",
            hoga_tensor::Init::SmallUniform.matrix(rows, cols, seed).scale(5.0),
        );
        let square = rows == cols;
        let report = check_gradients(&mut params, 1e-2, |tape: &mut Tape, params| {
            // Bound the activations first: LayerNorm applied directly to a
            // raw parameter is too ill-conditioned for f32 central
            // differences (its Jacobian scales with 1/std of the row).
            let raw: Var = tape.param(params, w);
            let mut h: Var = tape.sigmoid(raw);
            for (i, &op) in ops.iter().enumerate() {
                let constant = |tape: &mut Tape, r: usize, c: usize| {
                    let seed = seed * 31 + i as u64 + 1;
                    tape.constant(hoga_tensor::Init::SmallUniform.matrix(r, c, seed).scale(5.0))
                };
                h = match op {
                    SmoothOp::Sigmoid => tape.sigmoid(h),
                    SmoothOp::ScaleHalf => tape.scale(h, 0.5),
                    SmoothOp::AddSelf => tape.add(h, h),
                    SmoothOp::MatmulSelfT if square => {
                        // h · h is only shape-valid for square h; otherwise skip.
                        tape.matmul(h, h)
                    }
                    SmoothOp::MatmulSelfT => h,
                    SmoothOp::SoftmaxRows => tape.softmax_rows(h),
                    SmoothOp::GateByConstant => {
                        let c = constant(tape, rows, cols);
                        let gate = tape.sigmoid(c);
                        tape.hadamard(h, gate)
                    }
                    SmoothOp::AddConstant => {
                        let c = constant(tape, rows, cols);
                        tape.add(h, c)
                    }
                    SmoothOp::MatmulConstant => {
                        let c = constant(tape, cols, cols);
                        tape.matmul(h, c)
                    }
                    SmoothOp::ConstantMatmul => {
                        let c = constant(tape, rows, rows);
                        tape.matmul(c, h)
                    }
                };
            }
            let s = tape.sigmoid(h);
            tape.sum_all(s)
        });
        prop_assert!(
            report.max_rel_err < 8e-2,
            "ops {:?} failed: {:?}", ops, report
        );
    }

    /// Gradient accumulation is linear: grad(a·L1 + b·L2) = a·g1 + b·g2.
    #[test]
    fn backward_is_linear_in_the_loss(seed in 0..500u64, a in 0.1f32..3.0, b in 0.1f32..3.0) {
        let mut params = ParamSet::new();
        let w = params.add("w", hoga_tensor::Init::SmallUniform.matrix(3, 3, seed));
        let run = |params: &ParamSet, ca: f32, cb: f32| {
            let mut tape = Tape::new();
            let wv = tape.param(params, w);
            let s1 = tape.sigmoid(wv);
            let l1 = tape.sum_all(s1);
            let sq = tape.hadamard(wv, wv);
            let l2 = tape.sum_all(sq);
            let l1s = tape.scale(l1, ca);
            let l2s = tape.scale(l2, cb);
            let loss = tape.add(l1s, l2s);
            tape.backward(loss)
        };
        let g_combined = run(&params, a, b);
        let g1 = run(&params, 1.0, 0.0);
        let g2 = run(&params, 0.0, 1.0);
        let combined = g_combined.get(w).expect("grad");
        let mut expect = g1.get(w).expect("grad").scale(a);
        expect.axpy(b, g2.get(w).expect("grad"));
        prop_assert!(combined.max_abs_diff(&expect) < 1e-4);
    }
}
