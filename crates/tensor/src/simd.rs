//! AVX2 kernel backend: what `backend::resolved()` picks on an `x86_64`
//! CPU that reports `avx2` + `fma`.
//!
//! This is the **only module in the workspace allowed to contain
//! `unsafe`** — it is the audited entry in `hoga-analyze`'s R3
//! unsafe-allowlist, and the crate root pairs it with
//! `#![deny(unsafe_code)]` so nothing else in the crate can follow suit.
//!
//! # Safety audit
//!
//! Every `unsafe` block here is one of exactly three shapes:
//!
//! 1. A call to a `#[target_feature(...)]` function. Sound because the
//!    only call sites are behind [`avx2_available`], which caches
//!    `is_x86_feature_detected!("avx2") && ("fma")` — the instructions
//!    are never executed on a CPU that lacks them.
//! 2. `_mm256_loadu_ps` / `_mm256_storeu_ps` on pointers derived from
//!    `chunks_exact(8)` / `chunks_exact_mut(8)` slices. Sound because the
//!    iterator guarantees exactly 8 in-bounds, initialized `f32`s, and
//!    the unaligned variants carry no alignment requirement.
//! 3. Unaligned loads/stores at explicitly computed offsets inside the
//!    register-tiled kernel ([`fma_panel6_avx2`]), each carrying a
//!    `SAFETY:` comment proving the offset plus the vector width stays
//!    inside the borrowed slice.
//!
//! # Scope and determinism
//!
//! The backend overrides the training-path methods only, with
//! `_mm256_mul_ps` + `_mm256_add_ps` — the same two IEEE roundings per
//! element as the scalar loops, in the same per-element order — so every
//! override is bitwise identical to
//! [`ScalarKernels`](crate::backend::ScalarKernels). The inference-only
//! `*_fast` methods and the int8 product are not overridden: they have
//! one implementation, the scalar one (`docs/PERFORMANCE.md`, "What the
//! AVX2 backend covers").

#![allow(unsafe_code)]

use crate::backend::KernelBackend;
use std::arch::x86_64::{
    _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps, _mm256_sub_ps,
};
use std::sync::OnceLock;

/// Whether this CPU can run the AVX2 backend (`avx2` + `fma`), cached
/// after the first query.
pub(crate) fn avx2_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

/// The AVX2 implementation of the kernel inner loops.
pub(crate) struct Avx2Kernels;

impl KernelBackend for Avx2Kernels {
    const NAME: &'static str = "simd-avx2";

    fn fma_row(acc: &mut [f32], a: f32, b: &[f32]) {
        // analyze: allow(float-equality) — exact-zero sparsity fast path; skipping only bitwise zeros cannot change the accumulated sum
        if a == 0.0 {
            return;
        }
        // SAFETY: gated on avx2_available() by backend::resolved().
        unsafe { fma_row_avx2(acc, a, b) }
    }

    fn fma_row4(acc: &mut [f32], a: [f32; 4], b: [&[f32]; 4]) {
        if a.contains(&0.0) {
            for (&av, &bv) in a.iter().zip(&b) {
                Self::fma_row(acc, av, bv);
            }
            return;
        }
        // SAFETY: gated on avx2_available() by backend::resolved().
        unsafe { fma_row4_avx2(acc, a, b) }
    }

    fn fma_panel6(acc: [&mut [f32]; 6], a: [&[f32]; 6], b: &[f32], n: usize) {
        // SAFETY: gated on avx2_available() by backend::resolved().
        unsafe { fma_panel6_avx2(acc, a, b, n) }
    }

    fn scale(row: &mut [f32], s: f32) {
        // SAFETY: gated on avx2_available() by backend::resolved().
        unsafe { scale_avx2(row, s) }
    }

    fn normalize_row(dst: &mut [f32], x: &[f32], mean: f32, inv_std: f32) {
        // SAFETY: gated on avx2_available() by backend::resolved().
        unsafe { normalize_row_avx2(dst, x, mean, inv_std) }
    }

    fn affine_row(dst: &mut [f32], xhat: &[f32], gamma: &[f32], beta: &[f32]) {
        // SAFETY: gated on avx2_available() by backend::resolved().
        unsafe { affine_row_avx2(dst, xhat, gamma, beta) }
    }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn fma_row_avx2(acc: &mut [f32], a: f32, b: &[f32]) {
    let va = _mm256_set1_ps(a);
    let ca = acc.chunks_exact_mut(8);
    let cb = b.chunks_exact(8);
    let tb = cb.remainder();
    let mut tail_at = 0;
    for (x8, y8) in ca.zip(cb) {
        // SAFETY: both chunks are exactly 8 contiguous f32s.
        let x = _mm256_loadu_ps(x8.as_ptr());
        let y = _mm256_loadu_ps(y8.as_ptr());
        // mul + add (not fmadd): two roundings, matching the scalar loop.
        _mm256_storeu_ps(x8.as_mut_ptr(), _mm256_add_ps(x, _mm256_mul_ps(va, y)));
        tail_at += 8;
    }
    for (x, &y) in acc[tail_at..].iter_mut().zip(tb) {
        *x += a * y;
    }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn fma_row4_avx2(acc: &mut [f32], a: [f32; 4], b: [&[f32]; 4]) {
    let va0 = _mm256_set1_ps(a[0]);
    let va1 = _mm256_set1_ps(a[1]);
    let va2 = _mm256_set1_ps(a[2]);
    let va3 = _mm256_set1_ps(a[3]);
    let (b0, b1, b2, b3) = (b[0], b[1], b[2], b[3]);
    let mut j = 0;
    while j + 8 <= acc.len() {
        // SAFETY: j + 8 <= len for acc and the equally long b rows.
        let mut x = _mm256_loadu_ps(acc.as_ptr().add(j));
        x = _mm256_add_ps(x, _mm256_mul_ps(va0, _mm256_loadu_ps(b0.as_ptr().add(j))));
        x = _mm256_add_ps(x, _mm256_mul_ps(va1, _mm256_loadu_ps(b1.as_ptr().add(j))));
        x = _mm256_add_ps(x, _mm256_mul_ps(va2, _mm256_loadu_ps(b2.as_ptr().add(j))));
        x = _mm256_add_ps(x, _mm256_mul_ps(va3, _mm256_loadu_ps(b3.as_ptr().add(j))));
        _mm256_storeu_ps(acc.as_mut_ptr().add(j), x);
        j += 8;
    }
    while j < acc.len() {
        acc[j] = (((acc[j] + a[0] * b0[j]) + a[1] * b1[j]) + a[2] * b2[j]) + a[3] * b3[j];
        j += 1;
    }
}

/// The register-tiled heart of the row-blocked training matmul: a 6-row ×
/// 16-column accumulator tile lives in twelve ymm registers for the whole
/// k-panel, so the output touches memory once per panel instead of once
/// per four k-steps. Each element still sees exactly one mul + one add
/// per k in ascending order, and the
/// bitwise-zero skip branches per `(row, k)` — identical semantics to
/// six [`KernelBackend::fma_row`] sweeps, load/store traffic 16× lower.
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_panel6_avx2(mut acc: [&mut [f32]; 6], a: [&[f32]; 6], b: &[f32], n: usize) {
    let klen = a[0].len();
    for ar in &a {
        assert_eq!(ar.len(), klen, "fma_panel6: uneven a-row lengths");
    }
    // One zero-scan per panel instead of six compares per k-step: bit dk
    // of the mask is set when any of the six a-values at that k is a
    // bitwise zero, sending only those (rare, for dense operands) k-steps
    // down the per-row skip branch.
    assert!(klen <= 512, "fma_panel6: k-panel longer than the zero-mask (512)");
    let mut zmask = [0u64; 8];
    for dk in 0..klen {
        // analyze: allow(float-equality) — exact-zero sparsity fast path; skipping only bitwise zeros cannot change the accumulated sum
        if a.iter().any(|ar| ar[dk] == 0.0) {
            zmask[dk / 64] |= 1 << (dk % 64);
        }
    }
    let ap =
        [a[0].as_ptr(), a[1].as_ptr(), a[2].as_ptr(), a[3].as_ptr(), a[4].as_ptr(), a[5].as_ptr()];
    // The 6×16 accumulator tile must live in twelve *named* ymm registers:
    // with `[__m256; 6]` arrays the allocator spills the tile to the stack
    // and the kernel runs at half speed, so the unroll is written out.
    macro_rules! tile_step {
        ($av:expr, $b0:ident, $b1:ident, $lo:ident, $hi:ident) => {{
            let va = _mm256_set1_ps($av);
            $lo = _mm256_add_ps($lo, _mm256_mul_ps(va, $b0));
            $hi = _mm256_add_ps($hi, _mm256_mul_ps(va, $b1));
        }};
    }
    macro_rules! tile_step_skip_zero {
        ($r:literal, $dk:ident, $b0:ident, $b1:ident, $lo:ident, $hi:ident) => {{
            // SAFETY: $dk < klen and every a row is klen long.
            let av = *ap[$r].add($dk);
            // analyze: allow(float-equality) — exact-zero sparsity fast path; skipping only bitwise zeros cannot change the accumulated sum
            if av != 0.0 {
                tile_step!(av, $b0, $b1, $lo, $hi);
            }
        }};
    }
    let mut j = 0;
    while j + 16 <= n {
        // SAFETY: j + 16 <= n and every acc row is exactly n long.
        let mut lo0 = _mm256_loadu_ps(acc[0].as_ptr().add(j));
        let mut hi0 = _mm256_loadu_ps(acc[0].as_ptr().add(j + 8));
        let mut lo1 = _mm256_loadu_ps(acc[1].as_ptr().add(j));
        let mut hi1 = _mm256_loadu_ps(acc[1].as_ptr().add(j + 8));
        let mut lo2 = _mm256_loadu_ps(acc[2].as_ptr().add(j));
        let mut hi2 = _mm256_loadu_ps(acc[2].as_ptr().add(j + 8));
        let mut lo3 = _mm256_loadu_ps(acc[3].as_ptr().add(j));
        let mut hi3 = _mm256_loadu_ps(acc[3].as_ptr().add(j + 8));
        let mut lo4 = _mm256_loadu_ps(acc[4].as_ptr().add(j));
        let mut hi4 = _mm256_loadu_ps(acc[4].as_ptr().add(j + 8));
        let mut lo5 = _mm256_loadu_ps(acc[5].as_ptr().add(j));
        let mut hi5 = _mm256_loadu_ps(acc[5].as_ptr().add(j + 8));
        // Iterate maximal zero-free runs of k so the hot loop is twelve
        // unconditional multiply-adds with no branch diamond — a per-step
        // flag test makes the allocator shuffle the tile through the
        // stack. Flagged k-steps (some a-value is bitwise zero) run one
        // at a time between runs with the per-row skip.
        let mut dk = 0;
        while dk < klen {
            let end = dk + clean_run(&zmask, dk, klen);
            for kk in dk..end {
                // SAFETY: b holds klen * n floats, so row kk spans
                // [kk * n, kk * n + n) and j + 16 <= n keeps both loads
                // inside it; kk < klen and every a row is klen long.
                let brow = b.as_ptr().add(kk * n + j);
                let b0 = _mm256_loadu_ps(brow);
                let b1 = _mm256_loadu_ps(brow.add(8));
                tile_step!(*ap[0].add(kk), b0, b1, lo0, hi0);
                tile_step!(*ap[1].add(kk), b0, b1, lo1, hi1);
                tile_step!(*ap[2].add(kk), b0, b1, lo2, hi2);
                tile_step!(*ap[3].add(kk), b0, b1, lo3, hi3);
                tile_step!(*ap[4].add(kk), b0, b1, lo4, hi4);
                tile_step!(*ap[5].add(kk), b0, b1, lo5, hi5);
            }
            dk = end;
            if dk < klen {
                // SAFETY: same bounds as above for row dk.
                let brow = b.as_ptr().add(dk * n + j);
                let b0 = _mm256_loadu_ps(brow);
                let b1 = _mm256_loadu_ps(brow.add(8));
                tile_step_skip_zero!(0, dk, b0, b1, lo0, hi0);
                tile_step_skip_zero!(1, dk, b0, b1, lo1, hi1);
                tile_step_skip_zero!(2, dk, b0, b1, lo2, hi2);
                tile_step_skip_zero!(3, dk, b0, b1, lo3, hi3);
                tile_step_skip_zero!(4, dk, b0, b1, lo4, hi4);
                tile_step_skip_zero!(5, dk, b0, b1, lo5, hi5);
                dk += 1;
            }
        }
        // SAFETY: same bounds as the loads above.
        _mm256_storeu_ps(acc[0].as_mut_ptr().add(j), lo0);
        _mm256_storeu_ps(acc[0].as_mut_ptr().add(j + 8), hi0);
        _mm256_storeu_ps(acc[1].as_mut_ptr().add(j), lo1);
        _mm256_storeu_ps(acc[1].as_mut_ptr().add(j + 8), hi1);
        _mm256_storeu_ps(acc[2].as_mut_ptr().add(j), lo2);
        _mm256_storeu_ps(acc[2].as_mut_ptr().add(j + 8), hi2);
        _mm256_storeu_ps(acc[3].as_mut_ptr().add(j), lo3);
        _mm256_storeu_ps(acc[3].as_mut_ptr().add(j + 8), hi3);
        _mm256_storeu_ps(acc[4].as_mut_ptr().add(j), lo4);
        _mm256_storeu_ps(acc[4].as_mut_ptr().add(j + 8), hi4);
        _mm256_storeu_ps(acc[5].as_mut_ptr().add(j), lo5);
        _mm256_storeu_ps(acc[5].as_mut_ptr().add(j + 8), hi5);
        j += 16;
    }
    // Column tail (< 16): scalar k-ascending chains, one element at a time
    // through a register — bitwise the same chain as the vector tile.
    for (accr, arow) in acc.iter_mut().zip(a) {
        for jj in j..n {
            let mut x = accr[jj];
            for (dk, &av) in arow.iter().enumerate() {
                // analyze: allow(float-equality) — exact-zero sparsity fast path; skipping only bitwise zeros cannot change the accumulated sum
                if av == 0.0 {
                    continue;
                }
                x += av * b[dk * n + jj];
            }
            accr[jj] = x;
        }
    }
}

/// Length of the run of consecutive unflagged (zero-free) k-steps
/// starting at `start` in the panel's zero mask.
#[inline(always)]
fn clean_run(zmask: &[u64; 8], start: usize, klen: usize) -> usize {
    let mut dk = start;
    while dk < klen {
        let word = zmask[dk / 64] >> (dk % 64);
        if word != 0 {
            dk += word.trailing_zeros() as usize;
            break;
        }
        dk = (dk / 64 + 1) * 64;
    }
    dk.min(klen) - start
}

#[target_feature(enable = "avx2,fma")]
unsafe fn scale_avx2(row: &mut [f32], s: f32) {
    let vs = _mm256_set1_ps(s);
    let chunks = row.chunks_exact_mut(8);
    let mut tail_at = 0;
    for x8 in chunks {
        // SAFETY: the chunk is exactly 8 contiguous f32s.
        let x = _mm256_loadu_ps(x8.as_ptr());
        _mm256_storeu_ps(x8.as_mut_ptr(), _mm256_mul_ps(x, vs));
        tail_at += 8;
    }
    for x in &mut row[tail_at..] {
        *x *= s;
    }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn normalize_row_avx2(dst: &mut [f32], x: &[f32], mean: f32, inv_std: f32) {
    let vmean = _mm256_set1_ps(mean);
    let vis = _mm256_set1_ps(inv_std);
    let cd = dst.chunks_exact_mut(8);
    let cx = x.chunks_exact(8);
    let tx = cx.remainder();
    let mut tail_at = 0;
    for (d8, x8) in cd.zip(cx) {
        // SAFETY: both chunks are exactly 8 contiguous f32s.
        let v = _mm256_sub_ps(_mm256_loadu_ps(x8.as_ptr()), vmean);
        _mm256_storeu_ps(d8.as_mut_ptr(), _mm256_mul_ps(v, vis));
        tail_at += 8;
    }
    for (d, &v) in dst[tail_at..].iter_mut().zip(tx) {
        *d = (v - mean) * inv_std;
    }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn affine_row_avx2(dst: &mut [f32], xhat: &[f32], gamma: &[f32], beta: &[f32]) {
    let mut j = 0;
    while j + 8 <= dst.len() {
        // SAFETY: j + 8 <= len for dst and the equally long operand rows.
        let xh = _mm256_loadu_ps(xhat.as_ptr().add(j));
        let g = _mm256_loadu_ps(gamma.as_ptr().add(j));
        let b = _mm256_loadu_ps(beta.as_ptr().add(j));
        // mul + add (not fmadd): matches the scalar training-path rounding.
        _mm256_storeu_ps(dst.as_mut_ptr().add(j), _mm256_add_ps(_mm256_mul_ps(xh, g), b));
        j += 8;
    }
    while j < dst.len() {
        dst[j] = xhat[j] * gamma[j] + beta[j];
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ScalarKernels;

    fn vecs(n: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..n).map(|i| ((i * 41 % 17) as f32 - 8.0) * 0.43).collect();
        let b: Vec<f32> = (0..n).map(|i| ((i * 29 % 13) as f32 - 6.0) * 0.31).collect();
        (a, b)
    }

    #[test]
    fn avx2_training_ops_match_scalar_bitwise() {
        if !avx2_available() {
            return;
        }
        for n in [0, 1, 3, 7, 8, 9, 15, 16, 17, 64, 100] {
            let (a, b) = vecs(n);
            let mut acc_s = a.clone();
            let mut acc_v = a.clone();
            ScalarKernels::fma_row(&mut acc_s, -0.625, &b);
            Avx2Kernels::fma_row(&mut acc_v, -0.625, &b);
            assert_eq!(
                acc_s.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                acc_v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "fma_row width {n}"
            );
            let rows: Vec<Vec<f32>> =
                (0..4).map(|s| b.iter().map(|v| v + s as f32).collect()).collect();
            let refs = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
            let coeffs = [0.5f32, -1.5, 0.25, 3.0];
            let mut r4_s = a.clone();
            let mut r4_v = a.clone();
            ScalarKernels::fma_row4(&mut r4_s, coeffs, refs);
            Avx2Kernels::fma_row4(&mut r4_v, coeffs, refs);
            assert_eq!(
                r4_s.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                r4_v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "fma_row4 width {n}"
            );
            let mut sc_s = a.clone();
            let mut sc_v = a.clone();
            ScalarKernels::scale(&mut sc_s, 0.77);
            Avx2Kernels::scale(&mut sc_v, 0.77);
            assert_eq!(sc_s, sc_v, "scale width {n}");
            let mut nr_s = vec![0.0; n];
            let mut nr_v = vec![0.0; n];
            ScalarKernels::normalize_row(&mut nr_s, &a, 0.3, 1.7);
            Avx2Kernels::normalize_row(&mut nr_v, &a, 0.3, 1.7);
            assert_eq!(nr_s, nr_v, "normalize width {n}");
            let mut af_s = vec![0.0; n];
            let mut af_v = vec![0.0; n];
            ScalarKernels::affine_row(&mut af_s, &a, &b, &a);
            Avx2Kernels::affine_row(&mut af_v, &a, &b, &a);
            assert_eq!(
                af_s.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                af_v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "affine width {n}"
            );
        }
    }

    #[test]
    fn avx2_fma_panel6_matches_scalar_bitwise_at_awkward_shapes() {
        if !avx2_available() {
            return;
        }
        for (klen, n) in [(1usize, 5usize), (3, 16), (4, 15), (7, 37), (64, 33), (64, 48)] {
            let bpanel: Vec<f32> =
                (0..klen * n).map(|i| ((i * 31 % 29) as f32 - 14.0) * 0.27).collect();
            let arows: Vec<Vec<f32>> = (0..6)
                .map(|r| {
                    (0..klen)
                        .map(|dk| {
                            // Sprinkle exact zeros so the skip path runs.
                            if (dk + r) % 5 == 0 {
                                0.0
                            } else {
                                ((dk * 13 + r * 7) % 11) as f32 * 0.61 - 3.0
                            }
                        })
                        .collect()
                })
                .collect();
            let a6 = [
                &arows[0][..],
                &arows[1][..],
                &arows[2][..],
                &arows[3][..],
                &arows[4][..],
                &arows[5][..],
            ];
            let start: Vec<f32> = (0..n).map(|j| (j as f32) * 0.11 - 1.0).collect();
            let mut scalar_rows = vec![start.clone(); 6];
            let mut avx_rows = vec![start.clone(); 6];
            fn split6(rows: &mut [Vec<f32>]) -> [&mut [f32]; 6] {
                let (r0, rest) = rows.split_at_mut(1);
                let (r1, rest) = rest.split_at_mut(1);
                let (r2, rest) = rest.split_at_mut(1);
                let (r3, rest) = rest.split_at_mut(1);
                let (r4, r5) = rest.split_at_mut(1);
                [&mut r0[0], &mut r1[0], &mut r2[0], &mut r3[0], &mut r4[0], &mut r5[0]]
            }
            ScalarKernels::fma_panel6(split6(&mut scalar_rows), a6, &bpanel, n);
            Avx2Kernels::fma_panel6(split6(&mut avx_rows), a6, &bpanel, n);
            for r in 0..6 {
                assert_eq!(
                    scalar_rows[r].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    avx_rows[r].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "fma_panel6 klen={klen} n={n} row {r}"
                );
            }
        }
    }
}
