//! Dense `f32` tensor kernels for the HOGA reproduction.
//!
//! This crate is the lowest layer of the stack: a small, safe, CPU-only
//! linear-algebra library providing exactly the operations the HOGA model
//! ([Deng et al., DAC 2024]) and its baselines need:
//!
//! * a row-major [`Matrix`] type with shape-checked constructors,
//! * blocked, multi-threaded matrix multiplication ([`Matrix::matmul`]),
//! * batched (block-diagonal) matrix products used by per-node attention,
//! * row-wise `softmax` and `LayerNorm` kernels with their exact Jacobians
//!   exposed for the autograd layer,
//! * deterministic random initializers (Xavier/Glorot, Kaiming/He).
//!
//! Parallelism uses `std::thread::scope` over disjoint row (or block, or
//! k-) chunks. Every *training-path* kernel's output is a pure function of
//! its inputs — never of the thread count or the [`Backend`]
//! the CPU resolved to — because chunk decompositions depend only on shapes,
//! partial results are reduced in a fixed order, and SIMD lanes replay the
//! identical per-element operations — one fused multiply-add per `k` in
//! every dense product (see `docs/PERFORMANCE.md`). The
//! inference-only fused kernels (`Gemm::fused`, the `*_fast` rows) trade
//! that bitwise contract for lane-parallel reductions (and fused
//! multiply-adds where the exact kernels keep a separate multiply and
//! add) with a documented ULP bound against the naive oracles
//! (`Matrix::gemm_reference` for every dense product).
//!
//! Unsafe code is confined to one audited module: only `src/simd.rs`
//! (runtime-detected AVX2 and AVX-512 intrinsics) opts out of the crate-level `deny`.
//!
//! # Examples
//!
//! ```
//! use hoga_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```
//!
//! [Deng et al., DAC 2024]: https://arxiv.org/abs/2403.01317

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod approx;
mod backend;
mod error;
mod init;
mod kernels;
mod matrix;
mod parallel;
mod quant;
pub mod recycle;
#[cfg(target_arch = "x86_64")]
mod simd;
mod sparse;

pub use approx::{approx_eq, approx_eq_eps, approx_eq_ulps};
pub use backend::{active_backend, set_backend, Backend};
pub use error::ShapeError;
pub use init::Init;
pub use kernels::{
    layernorm_backward, layernorm_backward_dx, layernorm_forward, layernorm_rows,
    layernorm_rows_fast, readout_alpha_grad, readout_alpha_grad_chunk, readout_hops_grad,
    readout_logits, readout_scores_grad, readout_sum, softmax_backward_rows, softmax_rows,
    softmax_rows_fast, LayerNormCache,
};
pub use matrix::{Gemm, Layout, Matrix, TnFold};
pub use parallel::{available_threads, parallel_blocks, set_threads, with_threads};
pub use quant::{qmatmul, QuantizedMatrix, QuantizedWeights};
pub use sparse::CsrMatrix;
