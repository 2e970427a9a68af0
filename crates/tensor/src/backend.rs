//! Kernel backend selection: the CPU picks the inner loops.
//!
//! Every hot kernel in this crate ([`crate::Matrix::matmul`] and friends,
//! `softmax_rows`, `layernorm_forward`) routes its inner loop through the
//! [`KernelBackend`] trait. Two implementations exist:
//!
//! * [`ScalarKernels`] — the plain loops (the trait defaults); the
//!   semantic reference for everything else, and what runs on a CPU
//!   without AVX2.
//! * `Avx2Kernels` (in `crate::simd`, compiled on `x86_64`) — `std::arch`
//!   AVX2 intrinsics, selected at runtime when the CPU reports `avx2` +
//!   `fma`.
//!
//! # Determinism contract per path
//!
//! Training-path methods (`fma_row`, `fma_row4`, `fma_panel6`, `dot`,
//! `sum`, `sq_diff_sum`, and the element-wise ops) are **bitwise
//! identical** across both backends: element-wise lanes perform exactly
//! the scalar `mul` + `add` per element (never a fused multiply-add) and
//! reductions keep the scalar ascending order. The
//! `*_fast` methods are inference-only: they reduce through a fixed
//! 8-lane tree and fuse multiply-adds, which reassociates the float sums
//! within a documented ULP bound of the training-path result (see
//! `docs/PERFORMANCE.md`). No backend overrides them — the trait
//! defaults are their one implementation, as the scalar loop in
//! `qmatmul` is the int8 product's — so they too are a pure function of
//! their inputs, never of the machine or thread count.
//!
//! [`resolved`] observes the CPU; nothing selects a backend in product
//! code. [`set_backend`] exists so the differential suites can pin the
//! scalar loops as the bitwise reference.

use std::sync::atomic::{AtomicBool, Ordering};

/// Which kernel backend the process requests (see [`set_backend`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The plain scalar loops: the reference the differential tests pin.
    Scalar,
    /// AVX2 when the CPU reports `avx2` + `fma`, the scalar loops
    /// otherwise (default).
    Simd,
}

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Selects the kernel backend for all subsequent kernel calls.
///
/// Results are bitwise identical across backends (module docs), so this
/// affects wall-clock time only; it is the differential tests' handle on
/// the scalar reference loops.
pub fn set_backend(b: Backend) {
    FORCE_SCALAR.store(b == Backend::Scalar, Ordering::Relaxed);
}

/// The name of the implementation kernels currently run on: `"scalar"`
/// or `"simd-avx2"`. Benchmark reports and the server record this so a
/// number is never attributed to a backend the CPU did not provide.
pub fn active_backend() -> &'static str {
    dispatch!(B => B::NAME)
}

/// The backend implementation kernels run on, on this CPU.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ResolvedBackend {
    /// [`ScalarKernels`].
    Scalar,
    /// `crate::simd::Avx2Kernels`.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

/// AVX2 when the CPU reports `avx2` + `fma` (and no test pinned the
/// scalar reference), the scalar loops otherwise.
pub(crate) fn resolved() -> ResolvedBackend {
    #[cfg(target_arch = "x86_64")]
    if !FORCE_SCALAR.load(Ordering::Relaxed) && crate::simd::avx2_available() {
        return ResolvedBackend::Avx2;
    }
    ResolvedBackend::Scalar
}

/// Monomorphizes `$body` over the resolved backend: `dispatch!(B =>
/// expr)` binds the type alias `B` to the selected [`KernelBackend`]
/// implementation. One match per *kernel call*, so per-row loops carry no
/// dispatch overhead.
macro_rules! dispatch {
    ($B:ident => $body:expr) => {
        match $crate::backend::resolved() {
            $crate::backend::ResolvedBackend::Scalar => {
                type $B = $crate::backend::ScalarKernels;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            $crate::backend::ResolvedBackend::Avx2 => {
                type $B = $crate::simd::Avx2Kernels;
                $body
            }
        }
    };
}
pub(crate) use dispatch;

/// The inner-loop primitives every backend provides. Default method
/// bodies are the scalar semantics; [`ScalarKernels`] uses them verbatim,
/// so the defaults double as the reference implementation an overriding
/// backend must match bitwise.
pub(crate) trait KernelBackend {
    /// Implementation name for bench/report labels.
    const NAME: &'static str;

    /// `acc[i] += a * b[i]` (training path; exactly one multiply and one
    /// add per element, in index order). Skips the whole row when `a` is
    /// bitwise zero — the sparsity fast path the matmul family relies on;
    /// the skip must live here because adding `±0.0 * b[i]` is *not* a
    /// bitwise no-op (`-0.0 + 0.0 == +0.0`, and `b[i]` may be non-finite).
    fn fma_row(acc: &mut [f32], a: f32, b: &[f32]) {
        // analyze: allow(float-equality) — exact-zero sparsity fast path; skipping only bitwise zeros cannot change the accumulated sum
        if a == 0.0 {
            return;
        }
        for (x, &y) in acc.iter_mut().zip(b) {
            *x += a * y;
        }
    }

    /// Four consecutive [`KernelBackend::fma_row`] steps with one
    /// accumulator load/store per element: per element the operation
    /// sequence `(((acc + a0·b0) + a1·b1) + a2·b2) + a3·b3` is exactly
    /// the four separate passes, so results stay bitwise identical while
    /// the memory traffic on `acc` drops 4×.
    fn fma_row4(acc: &mut [f32], a: [f32; 4], b: [&[f32]; 4]) {
        if a.contains(&0.0) {
            // Rare mixed case: fall back to the per-step skip semantics.
            for (&av, &bv) in a.iter().zip(&b) {
                Self::fma_row(acc, av, bv);
            }
            return;
        }
        let (b0, b1, b2, b3) = (b[0], b[1], b[2], b[3]);
        for (j, x) in acc.iter_mut().enumerate() {
            *x = (((*x + a[0] * b0[j]) + a[1] * b1[j]) + a[2] * b2[j]) + a[3] * b3[j];
        }
    }

    /// Inference-only `acc[i] += a * b[i]` that may fuse the multiply and
    /// add (`f32::mul_add`, correctly rounded). Keeps the bitwise-zero
    /// skip.
    fn fma_row_fast(acc: &mut [f32], a: f32, b: &[f32]) {
        // analyze: allow(float-equality) — exact-zero sparsity fast path; skipping only bitwise zeros cannot change the accumulated sum
        if a == 0.0 {
            return;
        }
        for (x, &y) in acc.iter_mut().zip(b) {
            *x = a.mul_add(y, *x);
        }
    }

    /// One k-panel step of the row-blocked matmul: for each of six
    /// output rows, `acc_r[j] += Σ_dk a_r[dk] · b[dk·n + j]` with `dk`
    /// ascending. `b` is the `a[0].len() × n` row-major panel shared by
    /// all six rows — blocking rows over one panel is what lets a SIMD
    /// override keep the accumulators in registers for the whole panel
    /// instead of spilling them every few k-steps. Per output element the
    /// operation sequence is still one mul + one add per `dk` in
    /// ascending order (with the bitwise-zero skip), so every
    /// implementation is bitwise identical to six
    /// [`KernelBackend::fma_row`] sweeps.
    fn fma_panel6(acc: [&mut [f32]; 6], a: [&[f32]; 6], b: &[f32], n: usize) {
        let klen = a[0].len();
        for (accr, arow) in acc.into_iter().zip(a) {
            let mut dk = 0;
            while dk + 4 <= klen {
                let a4 = [arow[dk], arow[dk + 1], arow[dk + 2], arow[dk + 3]];
                let b4 = [
                    &b[dk * n..(dk + 1) * n],
                    &b[(dk + 1) * n..(dk + 2) * n],
                    &b[(dk + 2) * n..(dk + 3) * n],
                    &b[(dk + 3) * n..(dk + 4) * n],
                ];
                Self::fma_row4(accr, a4, b4);
                dk += 4;
            }
            for (off, &av) in arow[dk..].iter().enumerate() {
                let kk = dk + off;
                Self::fma_row(accr, av, &b[kk * n..(kk + 1) * n]);
            }
        }
    }

    /// Ascending-order dot product (training path).
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(&x, &y)| x * y).sum()
    }

    /// Inference-only dot product: 8 lane accumulators with fused
    /// multiply-adds, reduced through [`reduce_lanes8`], scalar-FMA tail.
    /// Within a documented ULP bound of [`KernelBackend::dot`].
    fn dot_fast(a: &[f32], b: &[f32]) -> f32 {
        let ca = a.chunks_exact(8);
        let cb = b.chunks_exact(8);
        let (ta, tb) = (ca.remainder(), cb.remainder());
        let mut lanes = [0.0f32; 8];
        for (x8, y8) in ca.zip(cb) {
            for i in 0..8 {
                lanes[i] = x8[i].mul_add(y8[i], lanes[i]);
            }
        }
        let mut acc = reduce_lanes8(lanes);
        for (&x, &y) in ta.iter().zip(tb) {
            acc = x.mul_add(y, acc);
        }
        acc
    }

    /// Ascending-order sum (training path).
    fn sum(xs: &[f32]) -> f32 {
        xs.iter().sum()
    }

    /// Inference-only sum: 8 lane accumulators + fixed tree + tail.
    fn sum_fast(xs: &[f32]) -> f32 {
        let chunks = xs.chunks_exact(8);
        let tail = chunks.remainder();
        let mut lanes = [0.0f32; 8];
        for x8 in chunks {
            for i in 0..8 {
                lanes[i] += x8[i];
            }
        }
        let mut acc = reduce_lanes8(lanes);
        for &x in tail {
            acc += x;
        }
        acc
    }

    /// Ascending-order `Σ (x - mean)²` (training path; the LayerNorm
    /// variance reduction).
    fn sq_diff_sum(xs: &[f32], mean: f32) -> f32 {
        xs.iter().map(|&v| (v - mean) * (v - mean)).sum()
    }

    /// Inference-only `Σ (x - mean)²` through the fixed lane tree.
    fn sq_diff_sum_fast(xs: &[f32], mean: f32) -> f32 {
        let chunks = xs.chunks_exact(8);
        let tail = chunks.remainder();
        let mut lanes = [0.0f32; 8];
        for x8 in chunks {
            for i in 0..8 {
                let d = x8[i] - mean;
                lanes[i] = d.mul_add(d, lanes[i]);
            }
        }
        let mut acc = reduce_lanes8(lanes);
        for &x in tail {
            let d = x - mean;
            acc = d.mul_add(d, acc);
        }
        acc
    }

    /// `row[i] *= s` (element-wise, bitwise identical on every backend).
    fn scale(row: &mut [f32], s: f32) {
        for x in row {
            *x *= s;
        }
    }

    /// `dst[i] = (x[i] - mean) * inv_std` (element-wise).
    fn normalize_row(dst: &mut [f32], x: &[f32], mean: f32, inv_std: f32) {
        for (d, &v) in dst.iter_mut().zip(x) {
            *d = (v - mean) * inv_std;
        }
    }

    /// `dst[i] = xhat[i] * gamma[i] + beta[i]` (element-wise; separate
    /// multiply and add, never fused, on the training path).
    fn affine_row(dst: &mut [f32], xhat: &[f32], gamma: &[f32], beta: &[f32]) {
        for ((d, &xh), (&g, &bt)) in dst.iter_mut().zip(xhat).zip(gamma.iter().zip(beta)) {
            *d = xh * g + bt;
        }
    }
}

/// Reduces 8 lane accumulators in one fixed order,
/// `((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))` — the order a 256-bit
/// horizontal add produces, so a vector implementation of the `*_fast`
/// reductions can match these bits.
#[inline]
fn reduce_lanes8(l: [f32; 8]) -> f32 {
    let s0 = l[0] + l[4];
    let s1 = l[1] + l[5];
    let s2 = l[2] + l[6];
    let s3 = l[3] + l[7];
    (s0 + s2) + (s1 + s3)
}

/// The plain scalar loops — the semantic reference backend. Every method
/// is the trait default.
pub(crate) struct ScalarKernels;

impl KernelBackend for ScalarKernels {
    const NAME: &'static str = "scalar";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..n).map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.37).collect();
        let b: Vec<f32> = (0..n).map(|i| ((i * 53 % 23) as f32 - 11.0) * 0.21).collect();
        (a, b)
    }

    #[test]
    fn fma_row4_equals_four_fma_rows_bitwise() {
        for n in [1, 7, 8, 13, 32] {
            let (x, y) = vecs(n);
            let coeffs = [0.3f32, -1.25, 0.875, 2.5];
            let rows: Vec<Vec<f32>> =
                (0..4).map(|s| y.iter().map(|v| v * (s as f32 + 0.5)).collect()).collect();
            let refs = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
            let mut via4 = x.clone();
            ScalarKernels::fma_row4(&mut via4, coeffs, refs);
            let mut via1 = x.clone();
            for (s, r) in refs.iter().enumerate() {
                ScalarKernels::fma_row(&mut via1, coeffs[s], r);
            }
            assert_eq!(
                via4.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                via1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "width {n}"
            );
        }
    }

    #[test]
    fn fma_row_skips_bitwise_zero_scale() {
        // The skip is semantic, not an optimization: with an infinite b
        // entry, 0.0 * inf would be NaN if the row were not skipped.
        let mut acc = vec![1.0f32, 2.0];
        ScalarKernels::fma_row(&mut acc, 0.0, &[f32::INFINITY, 1.0]);
        assert_eq!(acc, vec![1.0, 2.0]);
        ScalarKernels::fma_row(&mut acc, -0.0, &[f32::INFINITY, 1.0]);
        assert_eq!(acc, vec![1.0, 2.0]);
    }

    #[test]
    fn fast_reductions_are_close_and_tree_is_fixed() {
        let (a, b) = vecs(1000);
        let exact: f64 = a.iter().zip(&b).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum();
        let fast = ScalarKernels::dot_fast(&a, &b);
        assert!((f64::from(fast) - exact).abs() < 1e-2, "dot_fast drifted: {fast} vs {exact}");
        // The lane tree is a fixed reassociation: same inputs, same bits,
        // independent of how the caller chunks its rows.
        assert_eq!(fast.to_bits(), ScalarKernels::dot_fast(&a, &b).to_bits());
        let s = ScalarKernels::sum_fast(&a);
        let s_exact: f64 = a.iter().map(|&x| f64::from(x)).sum();
        assert!((f64::from(s) - s_exact).abs() < 1e-2);
    }

    /// The only test in this binary that calls `set_backend`, so its first
    /// line sees the process as a product binary does.
    #[test]
    fn backend_request_roundtrip() {
        #[cfg(target_arch = "x86_64")]
        let cpu_has_avx2 = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
        #[cfg(not(target_arch = "x86_64"))]
        let cpu_has_avx2 = false;
        let cpu_choice = if cpu_has_avx2 { "simd-avx2" } else { "scalar" };
        assert_eq!(active_backend(), cpu_choice, "default backend must be what the CPU reports");
        set_backend(Backend::Scalar);
        assert_eq!(active_backend(), "scalar");
        set_backend(Backend::Simd);
        assert_eq!(active_backend(), cpu_choice);
    }
}
