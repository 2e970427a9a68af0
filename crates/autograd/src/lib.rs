//! Reverse-mode automatic differentiation for the HOGA reproduction.
//!
//! The paper trains HOGA and its baselines with PyTorch; this crate replaces
//! that dependency with a small, safe, tape-based autodiff engine over
//! [`hoga_tensor::Matrix`]:
//!
//! * [`ParamSet`] holds named, trainable parameters outside any tape.
//! * [`Ops`] is the forward's vocabulary (e.g. [`Ops::matmul`],
//!   [`Ops::softmax_rows`], [`Ops::layer_norm`], [`Ops::batched_matmul_nt`]),
//!   written once over a holder of values: a model generic over it trains
//!   on a tape and serves on `hoga_core::infer`'s tape-free holder. Every
//!   dense product is one required op, [`Ops::gemm`] over a
//!   [`hoga_tensor::Gemm`] descriptor; `matmul` and the batched products
//!   are provided on top of it, so a model still reads as the paper's
//!   equations, and a holder implements one product.
//! * [`Tape`] records a computation graph as an arena of nodes; every op
//!   on the tape appends one node and returns a lightweight [`Var`] handle.
//! * [`Tape::backward`] runs the reverse sweep from a scalar loss and returns
//!   [`Gradients`] keyed by [`ParamId`]; gradients from data-parallel workers
//!   can be summed with [`Gradients::accumulate`], which is exactly the
//!   all-reduce of PyTorch DDP.
//! * [`Tape::backward_block`] runs the sweep of one node block of a batch
//!   from its logits and hands each parameter's gradient back unreduced;
//!   [`BlockFold`] finishes them block by block in the whole-batch sweep's
//!   order, so a batch trained block by block ([`WeightedCrossEntropy`]
//!   for its loss) gets the whole-batch gradients bit for bit.
//! * [`Tape::backward_to`] also hands back the gradient that reaches one
//!   chosen constant, so a head recorded over values computed elsewhere
//!   can seed the blocks that computed them.
//! * [`optim`] provides Adam and SGD; [`gradcheck`] provides a
//!   finite-difference checker used heavily by this crate's tests.
//!
//! # Examples
//!
//! Train `y = xW` one step toward a target:
//!
//! ```
//! use hoga_autograd::{Ops, ParamSet, Tape, optim::{Adam, Optimizer}};
//! use hoga_tensor::{Init, Matrix};
//!
//! let mut params = ParamSet::new();
//! let w = params.add("w", Init::XavierUniform.matrix(2, 1, 0));
//! let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let target = Matrix::from_rows(&[&[1.0], &[0.0]]);
//!
//! let mut tape = Tape::new();
//! let xv = tape.constant(x);
//! let wv = tape.param(&params, w);
//! let pred = tape.matmul(xv, wv);
//! let loss = tape.mse_loss(pred, &target);
//! let grads = tape.backward(loss);
//!
//! let mut opt = Adam::new(1e-2);
//! opt.step(&mut params, &grads);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod gradcheck;
mod loss;
mod ops;
pub mod optim;
mod params;
mod tape;

pub use block::{BlockFold, BlockGrads, NodeBlock};
pub use loss::WeightedCrossEntropy;
pub use ops::Ops;
pub use params::{ParamId, ParamSet};
pub use tape::{Gradients, Tape, Var};
