//! Kernel backend selection: the CPU picks the inner loops.
//!
//! Every hot kernel in this crate (every dense product, [`crate::Matrix::gemm`];
//! `softmax_rows`, `layernorm_forward`) routes its inner loop through the
//! [`KernelBackend`] trait. Three implementations exist:
//!
//! * [`ScalarKernels`] — the plain loops (the trait defaults); the
//!   semantic reference for everything else, and what runs on a CPU
//!   without AVX2.
//! * `Avx2Kernels` (in `crate::simd`, compiled on `x86_64`) — `std::arch`
//!   AVX2 intrinsics, selected at runtime when the CPU reports `avx2` +
//!   `fma`.
//! * `Avx512Kernels` (the same module) — `Avx2Kernels` with zmm in front:
//!   a 6 × 32 register tile before the matmul panel's 16-column ymm tile,
//!   and 64-column groups before the int8 product row's 32-column ones,
//!   selected at runtime when the CPU also reports `avx512f` and
//!   `avx512bw`.
//!
//! # Determinism contract per path
//!
//! Training-path methods (`fma_row`, `fma_row4`, `fma_panel6`,
//! `score_tile`, `transpose`, `sum`, the eight-lane `sum8`,
//! `sq_diff_sum8` and `matvec8`, and the element-wise ops) are **bitwise
//! identical** across all backends. A dense product's step is one
//! correctly rounded fused multiply-add per `k` (`f32::mul_add` here,
//! `vfmadd` in the SIMD lanes), in ascending `k`; the element-wise ops
//! and the LayerNorm reductions keep a separate multiply and add, and
//! every reduction keeps the scalar ascending order. The
//! `*_fast` methods are inference-only: they reduce through a fixed
//! 8-lane tree and fuse multiply-adds, which reassociates the float sums
//! within a documented ULP bound of the training-path result (see
//! `docs/PERFORMANCE.md`). No backend overrides them — the trait
//! defaults are their one implementation — so they too are a pure
//! function of their inputs, never of the machine or thread count.
//!
//! The int8 methods (`qdot_row`, `quantize_row`) are bitwise identical
//! across backends as well: the product row sums exact `i32` products, and
//! the quantizer's divide, round-half-away-from-zero, zero-point add and
//! saturation are each one IEEE operation or an exact selection per lane.
//!
//! [`resolved`] observes the CPU; nothing selects a backend in product
//! code. [`set_backend`] exists so the differential suites can pin the
//! scalar loops as the bitwise reference, and the AVX2 tile on a CPU that
//! would pick the AVX-512 one.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel backend the process requests (see [`set_backend`]). Each
/// request is a ceiling: the CPU still has to report what a backend needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Backend {
    /// The plain scalar loops: the reference the differential tests pin.
    Scalar,
    /// AVX2 when the CPU reports `avx2` + `fma`, even if it also reports
    /// `avx512f`; the scalar loops otherwise. The differential suites'
    /// handle on the AVX2 tile of an AVX-512 host.
    Avx2,
    /// The widest backend the CPU reports: AVX-512, AVX2 or the scalar
    /// loops (default).
    Simd,
}

static REQUEST: AtomicU8 = AtomicU8::new(Backend::Simd as u8);

/// Selects the kernel backend for all subsequent kernel calls.
///
/// Results are bitwise identical across backends (module docs), so this
/// affects wall-clock time only; it is the differential tests' handle on
/// the scalar reference loops and the AVX2 tile.
pub fn set_backend(b: Backend) {
    REQUEST.store(b as u8, Ordering::Relaxed);
}

/// The name of the implementation kernels currently run on: `"scalar"`,
/// `"simd-avx2"` or `"simd-avx512"`. Benchmark reports and the server
/// record this so a number is never attributed to a backend the CPU did
/// not provide.
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
    /// `crate::simd::Avx512Kernels`.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// The widest backend both the CPU and the [`set_backend`] request allow:
/// AVX-512 when the CPU reports `avx512f` and `avx512bw` besides `avx2` +
/// `fma`, AVX2 when it reports those two, the scalar loops otherwise.
pub(crate) fn resolved() -> ResolvedBackend {
    #[cfg(target_arch = "x86_64")]
    {
        let request = REQUEST.load(Ordering::Relaxed);
        if request == Backend::Simd as u8 && crate::simd::avx512_available() {
            return ResolvedBackend::Avx512;
        }
        if request != Backend::Scalar as u8 && crate::simd::avx2_available() {
            return ResolvedBackend::Avx2;
        }
    }
    ResolvedBackend::Scalar
}

/// Tile edge of the cache-blocked [`KernelBackend::transpose`].
pub(crate) const TRANSPOSE_TILE: usize = 32;

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
            #[cfg(target_arch = "x86_64")]
            $crate::backend::ResolvedBackend::Avx512 => {
                type $B = $crate::simd::Avx512Kernels;
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

    /// `acc[i] = a.mul_add(b[i], acc[i])` (training path; exactly one
    /// fused multiply-add, one rounding, per element). Skips the whole row when `a` is
    /// bitwise zero — the sparsity fast path the matmul family relies on;
    /// the skip must live here because adding `±0.0 * b[i]` is *not* a
    /// bitwise no-op (`-0.0 + 0.0 == +0.0`, and `b[i]` may be non-finite).
    fn fma_row(acc: &mut [f32], a: f32, b: &[f32]) {
        // analyze: allow(float-equality) — exact-zero sparsity fast path; skipping only bitwise zeros cannot change the accumulated sum
        if a == 0.0 {
            return;
        }
        for (x, &y) in acc.iter_mut().zip(b) {
            *x = a.mul_add(y, *x);
        }
    }

    /// Four consecutive [`KernelBackend::fma_row`] steps with one
    /// accumulator load/store per element: per element the chain of four
    /// fused steps, `a0·b0 + acc` first and `a3·b3 + …` last, is exactly
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
            let x01 = a[1].mul_add(b1[j], a[0].mul_add(b0[j], *x));
            *x = a[3].mul_add(b3[j], a[2].mul_add(b2[j], x01));
        }
    }

    /// Inference-only `acc[i] += a * b[i]`, fused (`f32::mul_add`,
    /// correctly rounded), with the bitwise-zero skip: the chain of
    /// [`KernelBackend::fma_row`], kept as the fused product's own row.
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
    /// operation sequence is still one fused multiply-add per `dk` in
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

    /// One block of the batched `Q·Kᵀ` (Eq. 7's score tile; training
    /// path). `out` is `rows × cols`, `q` is `rows × d`, and `kt` is the
    /// block's K transposed: `d` rows of `stride` floats, tile column `j`
    /// in lane `j`. Each output element is `+0.0`, then `q.mul_add(k, ..)`
    /// for each `kk` in ascending order — one fused multiply-add and **no
    /// zero skip** — so every implementation is
    /// bitwise the naive `Matrix::gemm_reference` of `Gemm::NT.batched(..)`, NaN and ∞
    /// included. `stride` is a multiple of 8 and at least `cols`, so a SIMD
    /// override can load whole 8-lane groups; lanes from `cols` on are
    /// read, never stored.
    fn score_tile(out: &mut [f32], cols: usize, q: &[f32], d: usize, kt: &[f32], stride: usize) {
        for (i, orow) in out.chunks_exact_mut(cols).enumerate() {
            orow.fill(0.0);
            for kk in 0..d {
                let qv = q[i * d + kk];
                for (o, &kv) in orow.iter_mut().zip(&kt[kk * stride..]) {
                    *o = qv.mul_add(kv, *o);
                }
            }
        }
    }

    /// Inference-only dot product: 8 lane accumulators with fused
    /// multiply-adds, reduced through [`reduce_lanes8`], scalar-FMA tail.
    /// Within a documented ULP bound of the ascending-order dot product.
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

    /// Writes the transpose of the row-major `rows × cols` matrix `src`
    /// into `dst`, whose rows are `stride ≥ rows` floats apart:
    /// `dst[c · stride + r] = src[r · cols + c]`, lanes from `rows` on left
    /// as they are. A pure data move, so every implementation is exact. The
    /// loop walks `TRANSPOSE_TILE²` tiles so both sides stay
    /// cache-resident, and inside a tile writes along `dst`'s rows: along
    /// `src`'s rows instead, a destination stride of a few KiB maps a
    /// tile's 32 destination rows onto two L1 sets, and a 4608 × 64
    /// transpose took 7× as long.
    fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32], stride: usize) {
        for rb in (0..rows).step_by(TRANSPOSE_TILE) {
            let rend = (rb + TRANSPOSE_TILE).min(rows);
            for cb in (0..cols).step_by(TRANSPOSE_TILE) {
                for c in cb..(cb + TRANSPOSE_TILE).min(cols) {
                    let drow = &mut dst[c * stride + rb..c * stride + rend];
                    for (r, slot) in drow.iter_mut().enumerate() {
                        *slot = src[(rb + r) * cols + c];
                    }
                }
            }
        }
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

    /// Eight ascending-order sums abreast (training path): `xt` is a block
    /// of eight rows transposed, `xt.len() / 8` rows of eight lanes with
    /// source row `r` in lane `r`, and lane `r` of the result is
    /// [`KernelBackend::sum`] of row `r` — the same `-0.0`-seeded chain.
    fn sum8(xt: &[f32]) -> [f32; 8] {
        let mut sums = [-0.0f32; 8];
        for x8 in xt.chunks_exact(8) {
            for (s, &v) in sums.iter_mut().zip(x8) {
                *s += v;
            }
        }
        sums
    }

    /// The LayerNorm variance reductions of eight rows abreast (training
    /// path), over a transposed block as in [`KernelBackend::sum8`]: lane
    /// `r` is the ascending, `-0.0`-seeded `Σ (x - mean[r])²` of row `r`.
    fn sq_diff_sum8(xt: &[f32], mean: [f32; 8]) -> [f32; 8] {
        let mut sums = [-0.0f32; 8];
        for x8 in xt.chunks_exact(8) {
            for ((s, &v), &m) in sums.iter_mut().zip(x8).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        sums
    }

    /// Eight rows of a one-column product (training path): `at` is the
    /// rows' transpose, `x.len()` rows of eight lanes with row `r` in lane
    /// `r`, and `acc[r] = at[kk·8 + r].mul_add(x[kk], acc[r])` for each `kk`
    /// ascending — one fused multiply-add, bitwise-zero coefficients skipped, the
    /// chain of [`KernelBackend::fma_row`] down one output column.
    fn matvec8(acc: &mut [f32; 8], at: &[f32], x: &[f32]) {
        for (a8, &xv) in at.chunks_exact(8).zip(x) {
            for (s, &av) in acc.iter_mut().zip(a8) {
                // analyze: allow(float-equality) — exact-zero sparsity fast path; skipping only bitwise zeros cannot change the accumulated sum
                if av != 0.0 {
                    *s = av.mul_add(xv, *s);
                }
            }
        }
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

    /// One output row of the int8 product, `acc[j] = Σ_kk qa[kk] · q[kk][j]`
    /// for `j < acc.len() = n`, over weights packed in pairs of rows:
    /// `pairs[(p·n + j)·2 + t] = q[2p + t][j]`, zero-padded to an even `k`.
    /// Each pair step is two `i16` products and their sum, the shape of
    /// `vpmaddwd`; every partial fits an `i32` (module docs of `quant`), so
    /// the sum is exact in any order and every implementation gives these
    /// bits.
    fn qdot_row(acc: &mut [i32], qa: &[i8], pairs: &[i16]) {
        let n = acc.len();
        acc.fill(0);
        if n == 0 {
            return;
        }
        for (a2, prow) in qa.chunks(2).zip(pairs.chunks_exact(2 * n)) {
            let (a0, a1) = split_pair(a2);
            for (x, w2) in acc.iter_mut().zip(prow.chunks_exact(2)) {
                *x += a0 * i32::from(w2[0]) + a1 * i32::from(w2[1]);
            }
        }
    }

    /// Quantizes one activation row into `q` and returns its `(scale,
    /// zero_point)`: the range scan, then [`quant_params`], then
    /// [`quantize_value`] per element. A row holding NaN or ±∞ gets a NaN
    /// scale (its codes are all 0), so its products are NaN, as the f32
    /// product's are.
    fn quantize_row(q: &mut [i8], row: &[f32]) -> (f32, i32) {
        let (mut lo, mut hi, mut finite) = (0.0f32, 0.0f32, true);
        for &v in row {
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
            finite &= v.is_finite();
        }
        let (s, zp) = quant_params(lo, hi, finite);
        for (qv, &v) in q.iter_mut().zip(row) {
            *qv = quantize_value(v, s, zp as f32);
        }
        (s, zp)
    }
}

/// The two activation codes of one pair step, widened; an odd row's last
/// step pairs its code with 0.
#[inline]
pub(crate) fn split_pair(a2: &[i8]) -> (i32, i32) {
    let mut it = a2.iter().map(|&v| i32::from(v));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// A row's affine map from its range scan: `lo ≤ 0 ≤ hi` (the range widened
/// through zero, so zero quantizes exactly) onto `[-128, 127]`, as
/// `(scale, zero_point)`. A constant row (`hi == lo == 0`) gets `(1, 0)`; a
/// row that is not all finite gets `(NaN, 0)`. The zero point saturates
/// into `i8` range, which bounds it only for scales that underflowed to 0.
pub(crate) fn quant_params(lo: f32, hi: f32, finite: bool) -> (f32, i32) {
    if !finite {
        return (f32::NAN, 0);
    }
    let span = hi - lo;
    if span > 0.0 {
        let s = span / 255.0;
        // analyze: allow(panic-reachability) — f32 division: s = span/255 ≥ 0, and float /0 is inf or NaN, never a panic
        (s, i32::from((-128.0 - lo / s).round() as i8))
    } else {
        (1.0, 0)
    }
}

/// One activation code: `round(v / s) + zp`, rounded half away from zero
/// (`f32::round`), saturated into `[-128, 127]`, NaN to 0 (`as i8`). For a
/// finite `v` in its row's range `|v / s| ≤ 255`, so the sum is exact.
#[inline]
pub(crate) fn quantize_value(v: f32, s: f32, zp: f32) -> i8 {
    // analyze: allow(panic-reachability) — f32 division: float /0 is inf or NaN, never a panic
    ((v / s).round() + zp) as i8
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
    /// line sees the process as a product binary does. The expected names
    /// follow what the CPU reports, so an AVX-512 host and an AVX2 one
    /// both check their own default.
    #[test]
    fn backend_request_roundtrip() {
        #[cfg(target_arch = "x86_64")]
        let (cpu_has_avx2, cpu_has_avx512) = {
            let avx2 = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            let avx512 = std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw");
            (avx2, avx2 && avx512)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let (cpu_has_avx2, cpu_has_avx512) = (false, false);
        let avx2_choice = if cpu_has_avx2 { "simd-avx2" } else { "scalar" };
        let cpu_choice = if cpu_has_avx512 { "simd-avx512" } else { avx2_choice };
        assert_eq!(active_backend(), cpu_choice, "default backend must be what the CPU reports");
        set_backend(Backend::Scalar);
        assert_eq!(active_backend(), "scalar");
        set_backend(Backend::Avx2);
        assert_eq!(active_backend(), avx2_choice);
        set_backend(Backend::Simd);
        assert_eq!(active_backend(), cpu_choice);
    }
}
