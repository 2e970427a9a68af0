//! AVX2 and AVX-512 kernel backends: what `backend::resolved()` picks on
//! an `x86_64` CPU that reports `avx2` + `fma`, and `avx512f` + `avx512bw`
//! besides.
//!
//! This is the **only module in the workspace allowed to contain
//! `unsafe`** — it is the audited entry in `hoga-analyze`'s
//! `UNSAFE_ALLOWLIST`, which `crates/analyze/tests/unsafe_policy.rs`
//! enforces, and the crate root pairs it with
//! `#![deny(unsafe_code)]` so nothing else in the crate can follow suit.
//!
//! # Safety audit
//!
//! Every `unsafe` block here is one of exactly three shapes:
//!
//! 1. A call to a `#[target_feature(...)]` function. Sound because the
//!    only call sites are behind one of two detection gates:
//!    [`avx2_available`], which caches `is_x86_feature_detected!("avx2")
//!    && ("fma")`, for the `avx2,fma` functions, and [`avx512_available`],
//!    which caches that and `is_x86_feature_detected!("avx512f") &&
//!    ("avx512bw")`, for the two AVX-512 ones ([`fma_panel6_avx512`] and
//!    [`qdot_row_avx512`], reached only through [`Avx512Kernels`], which
//!    `backend::resolved()` returns only when the second gate holds). The
//!    instructions are never executed on a CPU that lacks them.
//! 2. Unaligned loads/stores on pointers derived from `chunks_exact(8)` /
//!    `chunks_exact_mut(8)` slices (`f32` lanes, and the eight `i8` codes
//!    `_mm_storel_epi64` writes in [`quantize_row_avx2`]). Sound because
//!    the iterator guarantees exactly 8 in-bounds, initialized elements,
//!    and the unaligned variants carry no alignment requirement.
//! 3. Unaligned loads/stores at explicitly computed offsets inside the
//!    register-tiled kernels (`panel6_tile!`, `qdot_cols!`, [`score_rows`],
//!    [`transpose8x8`], [`lanes8_avx2`]), each carrying a `SAFETY:` comment
//!    proving the offset plus the vector width stays inside the borrowed
//!    slice, after an assertion on the operand shapes ([`panel6_operands`],
//!    [`qdot_operands`] and the kernels' own).
//!
//! # Scope and determinism
//!
//! The backends override the dense-product methods with `vfmadd` (ymm,
//! and zmm in the AVX-512 panel tile) — one correctly rounded fused
//! multiply-add per element and `k`, as the scalar loops' `f32::mul_add`,
//! in the same per-element order (a masked lane keeps its value exactly
//! as the scalar zero skip does) — and the element-wise and LayerNorm
//! methods with `vmulps`, `vaddps` and `vsubps` as the scalar loops
//! spell them (the transpose only moves floats), so every override is
//! bitwise identical to [`ScalarKernels`](crate::backend::ScalarKernels).
//!
//! They override the two int8 methods as well, bit for bit on every
//! input:
//! - `qdot_row`, the integer product row, runs `vpmaddwd` + `vpaddd` over
//!   the pair-packed weights (ymm, and zmm groups in front on AVX-512);
//!   every partial sum is an exact `i32`.
//! - `quantize_row` scans the row with `vminps`/`vmaxps`, then per lane
//!   divides, rounds half away from zero (truncate, then a blended step of
//!   ±1 on the exact fraction), adds the zero point and saturates.
//!
//! The inference-only `*_fast` methods are not overridden: they have one
//! implementation, the scalar one (`docs/PERFORMANCE.md`, "What the SIMD
//! backends cover").

#![allow(unsafe_code)]

use crate::backend::{quant_params, quantize_value, split_pair, KernelBackend, TRANSPOSE_TILE};
use std::arch::x86_64::{
    _mm256_add_epi32, _mm256_add_ps, _mm256_and_ps, _mm256_andnot_ps, _mm256_blendv_ps,
    _mm256_castsi256_si128, _mm256_cmp_ps, _mm256_cvtps_epi32, _mm256_div_ps, _mm256_fmadd_ps,
    _mm256_loadu_ps, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_max_ps, _mm256_min_ps,
    _mm256_mul_ps, _mm256_or_ps, _mm256_packs_epi16, _mm256_packs_epi32, _mm256_permute2f128_ps,
    _mm256_permutevar8x32_epi32, _mm256_round_ps, _mm256_set1_epi32, _mm256_set1_ps,
    _mm256_setr_epi32, _mm256_setzero_ps, _mm256_setzero_si256, _mm256_shuffle_ps,
    _mm256_storeu_ps, _mm256_storeu_si256, _mm256_sub_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps,
    _mm512_add_epi32, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_loadu_si512, _mm512_madd_epi16,
    _mm512_set1_epi32, _mm512_set1_ps, _mm512_setzero_si512, _mm512_storeu_ps, _mm512_storeu_si512,
    _mm_storel_epi64, _CMP_GE_OQ, _CMP_NEQ_UQ, _CMP_ORD_Q, _MM_FROUND_NO_EXC, _MM_FROUND_TO_ZERO,
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

/// Whether this CPU can run the AVX-512 backend (`avx512f` for the panel
/// tile and `avx512bw` for the int8 product row, besides
/// [`avx2_available`]), cached after the first query.
pub(crate) fn avx512_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        avx2_available()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
    })
}

/// The SIMD implementations of the kernel inner loops: `ZMM` puts a 6 × 32
/// zmm tile in front of [`KernelBackend::fma_panel6`]'s ymm tile and
/// 64-column zmm groups in front of [`KernelBackend::qdot_row`]'s ymm ones;
/// every other method is the AVX2 one.
pub(crate) struct SimdKernels<const ZMM: bool>;

/// The AVX2 backend (gate: [`avx2_available`]).
pub(crate) type Avx2Kernels = SimdKernels<false>;

/// The AVX-512 backend (gate: [`avx512_available`]).
pub(crate) type Avx512Kernels = SimdKernels<true>;

impl<const ZMM: bool> KernelBackend for SimdKernels<ZMM> {
    const NAME: &'static str = if ZMM { "simd-avx512" } else { "simd-avx2" };

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
        if ZMM {
            // SAFETY: SimdKernels<true> is gated on avx512_available() by
            // backend::resolved().
            unsafe { fma_panel6_avx512(acc, a, b, n) }
        } else {
            // SAFETY: gated on avx2_available() by backend::resolved().
            unsafe { fma_panel6_avx2(acc, a, b, n) }
        }
    }

    fn score_tile(out: &mut [f32], cols: usize, q: &[f32], d: usize, kt: &[f32], stride: usize) {
        // SAFETY: gated on avx2_available() by backend::resolved().
        unsafe { score_tile_avx2(out, cols, q, d, kt, stride) }
    }

    fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32], stride: usize) {
        // SAFETY: gated on avx2_available() by backend::resolved().
        unsafe { transpose_avx2(src, rows, cols, dst, stride) }
    }

    fn sum8(xt: &[f32]) -> [f32; 8] {
        // SAFETY: gated on avx2_available() by backend::resolved().
        unsafe { lanes8_avx2::<false>(xt, [0.0; 8]) }
    }

    fn sq_diff_sum8(xt: &[f32], mean: [f32; 8]) -> [f32; 8] {
        // SAFETY: gated on avx2_available() by backend::resolved().
        unsafe { lanes8_avx2::<true>(xt, mean) }
    }

    fn matvec8(acc: &mut [f32; 8], at: &[f32], x: &[f32]) {
        // SAFETY: gated on avx2_available() by backend::resolved().
        unsafe { matvec8_avx2(acc, at, x) }
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

    fn qdot_row(acc: &mut [i32], qa: &[i8], pairs: &[i16]) {
        if ZMM {
            // SAFETY: SimdKernels<true> is gated on avx512_available() by
            // backend::resolved().
            unsafe { qdot_row_avx512(acc, qa, pairs) }
        } else {
            // SAFETY: gated on avx2_available() by backend::resolved().
            unsafe { qdot_row_avx2(acc, qa, pairs) }
        }
    }

    fn quantize_row(q: &mut [i8], row: &[f32]) -> (f32, i32) {
        // SAFETY: gated on avx2_available() by backend::resolved().
        unsafe { quantize_row_avx2(q, row) }
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
        // One rounding per element, as the scalar loop's mul_add.
        _mm256_storeu_ps(x8.as_mut_ptr(), _mm256_fmadd_ps(va, y, x));
        tail_at += 8;
    }
    for (x, &y) in acc[tail_at..].iter_mut().zip(tb) {
        *x = a.mul_add(y, *x);
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
        x = _mm256_fmadd_ps(va0, _mm256_loadu_ps(b0.as_ptr().add(j)), x);
        x = _mm256_fmadd_ps(va1, _mm256_loadu_ps(b1.as_ptr().add(j)), x);
        x = _mm256_fmadd_ps(va2, _mm256_loadu_ps(b2.as_ptr().add(j)), x);
        x = _mm256_fmadd_ps(va3, _mm256_loadu_ps(b3.as_ptr().add(j)), x);
        _mm256_storeu_ps(acc.as_mut_ptr().add(j), x);
        j += 8;
    }
    while j < acc.len() {
        let x01 = a[1].mul_add(b1[j], a[0].mul_add(b0[j], acc[j]));
        acc[j] = a[3].mul_add(b3[j], a[2].mul_add(b2[j], x01));
        j += 1;
    }
}

/// One `+= a · b` step of a tile row: two vectors of `b` times one
/// broadcast a-value, each one fused multiply-add.
macro_rules! tile_step {
    ($set1:ident, $fmadd:ident; $av:expr, $b0:ident, $b1:ident, $lo:ident, $hi:ident) => {{
        let va = $set1($av);
        $lo = $fmadd(va, $b0, $lo);
        $hi = $fmadd(va, $b1, $hi);
    }};
}

/// [`tile_step!`] for row `$r` at a flagged k-step: skipped when that
/// row's a-value is a bitwise zero.
macro_rules! tile_step_skip_zero {
    ($set1:ident, $fmadd:ident; $ap:ident, $r:literal, $dk:ident,
     $b0:ident, $b1:ident, $lo:ident, $hi:ident) => {{
        // SAFETY: $dk < klen and every a row is klen long.
        let av = *$ap[$r].add($dk);
        // analyze: allow(float-equality) — exact-zero sparsity fast path; skipping only bitwise zeros cannot change the accumulated sum
        if av != 0.0 {
            tile_step!($set1, $fmadd; av, $b0, $b1, $lo, $hi);
        }
    }};
}

/// Advances `$j` over every whole `2 · $lanes`-column group of the panel
/// from `$j` on, each through a 6-row × `2 · $lanes`-column accumulator
/// tile in twelve registers of `$lanes` floats, loaded once and stored
/// once per panel. Expanded in a function that enables the intrinsics'
/// target features, after [`panel6_operands`] has checked the shapes.
///
/// The tile must live in twelve *named* registers: with `[__m256; 6]`
/// arrays the allocator spills the tile to the stack and the kernel runs
/// at half speed, so the unroll is written out.
macro_rules! panel6_tile {
    ($lanes:literal, $load:ident, $store:ident, $set1:ident, $fmadd:ident;
     $acc:ident, $ap:ident, $zmask:ident, $klen:ident, $b:ident, $n:ident, $j:ident) => {
        while $j + 2 * $lanes <= $n {
            let j = $j;
            // SAFETY: j + 2·lanes <= n and every acc row is exactly n long.
            let mut lo0 = $load($acc[0].as_ptr().add(j));
            let mut hi0 = $load($acc[0].as_ptr().add(j + $lanes));
            let mut lo1 = $load($acc[1].as_ptr().add(j));
            let mut hi1 = $load($acc[1].as_ptr().add(j + $lanes));
            let mut lo2 = $load($acc[2].as_ptr().add(j));
            let mut hi2 = $load($acc[2].as_ptr().add(j + $lanes));
            let mut lo3 = $load($acc[3].as_ptr().add(j));
            let mut hi3 = $load($acc[3].as_ptr().add(j + $lanes));
            let mut lo4 = $load($acc[4].as_ptr().add(j));
            let mut hi4 = $load($acc[4].as_ptr().add(j + $lanes));
            let mut lo5 = $load($acc[5].as_ptr().add(j));
            let mut hi5 = $load($acc[5].as_ptr().add(j + $lanes));
            // Iterate maximal zero-free runs of k so the hot loop is twelve
            // unconditional fused multiply-adds with no branch diamond — a per-step
            // flag test makes the allocator shuffle the tile through the
            // stack. Flagged k-steps (some a-value is bitwise zero) run one
            // at a time between runs with the per-row skip.
            let mut dk = 0;
            while dk < $klen {
                let end = dk + clean_run(&$zmask, dk, $klen);
                for kk in dk..end {
                    // SAFETY: b holds klen * n floats, so row kk spans
                    // [kk * n, kk * n + n) and j + 2·lanes <= n keeps both
                    // loads inside it; kk < klen and every a row is klen long.
                    let brow = $b.as_ptr().add(kk * $n + j);
                    let b0 = $load(brow);
                    let b1 = $load(brow.add($lanes));
                    tile_step!($set1, $fmadd; *$ap[0].add(kk), b0, b1, lo0, hi0);
                    tile_step!($set1, $fmadd; *$ap[1].add(kk), b0, b1, lo1, hi1);
                    tile_step!($set1, $fmadd; *$ap[2].add(kk), b0, b1, lo2, hi2);
                    tile_step!($set1, $fmadd; *$ap[3].add(kk), b0, b1, lo3, hi3);
                    tile_step!($set1, $fmadd; *$ap[4].add(kk), b0, b1, lo4, hi4);
                    tile_step!($set1, $fmadd; *$ap[5].add(kk), b0, b1, lo5, hi5);
                }
                dk = end;
                if dk < $klen {
                    // SAFETY: same bounds as above for row dk.
                    let brow = $b.as_ptr().add(dk * $n + j);
                    let b0 = $load(brow);
                    let b1 = $load(brow.add($lanes));
                    tile_step_skip_zero!($set1, $fmadd; $ap, 0, dk, b0, b1, lo0, hi0);
                    tile_step_skip_zero!($set1, $fmadd; $ap, 1, dk, b0, b1, lo1, hi1);
                    tile_step_skip_zero!($set1, $fmadd; $ap, 2, dk, b0, b1, lo2, hi2);
                    tile_step_skip_zero!($set1, $fmadd; $ap, 3, dk, b0, b1, lo3, hi3);
                    tile_step_skip_zero!($set1, $fmadd; $ap, 4, dk, b0, b1, lo4, hi4);
                    tile_step_skip_zero!($set1, $fmadd; $ap, 5, dk, b0, b1, lo5, hi5);
                    dk += 1;
                }
            }
            // SAFETY: same bounds as the loads above.
            $store($acc[0].as_mut_ptr().add(j), lo0);
            $store($acc[0].as_mut_ptr().add(j + $lanes), hi0);
            $store($acc[1].as_mut_ptr().add(j), lo1);
            $store($acc[1].as_mut_ptr().add(j + $lanes), hi1);
            $store($acc[2].as_mut_ptr().add(j), lo2);
            $store($acc[2].as_mut_ptr().add(j + $lanes), hi2);
            $store($acc[3].as_mut_ptr().add(j), lo3);
            $store($acc[3].as_mut_ptr().add(j + $lanes), hi3);
            $store($acc[4].as_mut_ptr().add(j), lo4);
            $store($acc[4].as_mut_ptr().add(j + $lanes), hi4);
            $store($acc[5].as_mut_ptr().add(j), lo5);
            $store($acc[5].as_mut_ptr().add(j + $lanes), hi5);
            $j += 2 * $lanes;
        }
    };
}

/// The register-tiled heart of the row-blocked training matmul: a 6-row ×
/// 16-column accumulator tile lives in twelve ymm registers for the whole
/// k-panel, so the output touches memory once per panel instead of once
/// per four k-steps. Each element still sees exactly one fused
/// multiply-add per k in ascending order, and the
/// bitwise-zero skip branches per `(row, k)` — identical semantics to
/// six [`KernelBackend::fma_row`] sweeps, load/store traffic 16× lower.
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_panel6_avx2(mut acc: [&mut [f32]; 6], a: [&[f32]; 6], b: &[f32], n: usize) {
    let (ap, zmask, klen) = panel6_operands(&acc, &a, b, n);
    let mut j = 0;
    panel6_tile!(
        8, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps, _mm256_fmadd_ps;
        acc, ap, zmask, klen, b, n, j
    );
    panel6_columns(&mut acc, &a, b, n, j);
}

/// [`fma_panel6_avx2`] with a 6-row × 32-column tile in twelve zmm
/// registers in front: the same chains, the same zero-run mask and skip,
/// twice the columns per `vfmadd`. The ymm tile takes a
/// 16-column group left over, and the scalar chains the last columns.
///
/// # Safety
///
/// The CPU has AVX-512F besides AVX2 and FMA ([`avx512_available`]).
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn fma_panel6_avx512(mut acc: [&mut [f32]; 6], a: [&[f32]; 6], b: &[f32], n: usize) {
    let (ap, zmask, klen) = panel6_operands(&acc, &a, b, n);
    let mut j = 0;
    panel6_tile!(
        16, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_set1_ps, _mm512_fmadd_ps;
        acc, ap, zmask, klen, b, n, j
    );
    panel6_tile!(
        8, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps, _mm256_fmadd_ps;
        acc, ap, zmask, klen, b, n, j
    );
    panel6_columns(&mut acc, &a, b, n, j);
}

/// Checks a panel's shapes for the tiles' unchecked loads and returns the
/// six row pointers of `a`, the panel's zero mask and its length. One
/// zero-scan per panel instead of six compares per k-step: bit dk of the
/// mask is set when any of the six a-values at that k is a bitwise zero,
/// sending only those (rare, for dense operands) k-steps down the per-row
/// skip branch. Inlined, like [`panel6_columns`], into the tile functions
/// and their target features.
#[inline(always)]
fn panel6_operands(
    acc: &[&mut [f32]; 6],
    a: &[&[f32]; 6],
    b: &[f32],
    n: usize,
) -> ([*const f32; 6], [u64; 8], usize) {
    let klen = a[0].len();
    for ar in a {
        assert_eq!(ar.len(), klen, "fma_panel6: uneven a-row lengths");
    }
    assert!(acc.iter().all(|r| r.len() == n), "fma_panel6: acc rows are not n long");
    assert!(b.len() >= klen * n, "fma_panel6: b holds fewer than klen rows of n");
    assert!(klen <= 512, "fma_panel6: k-panel longer than the zero-mask (512)");
    let mut zmask = [0u64; 8];
    for dk in 0..klen {
        // analyze: allow(float-equality) — exact-zero sparsity fast path; skipping only bitwise zeros cannot change the accumulated sum
        if a.iter().any(|ar| ar[dk] == 0.0) {
            zmask[dk / 64] |= 1 << (dk % 64);
        }
    }
    (a.map(<[f32]>::as_ptr), zmask, klen)
}

/// Columns `j..n` of a panel (fewer than one tile): scalar k-ascending
/// chains, one element at a time through a register — bitwise the same
/// chain as the vector tiles.
#[inline(always)]
fn panel6_columns(acc: &mut [&mut [f32]; 6], a: &[&[f32]; 6], b: &[f32], n: usize, j: usize) {
    for (accr, arow) in acc.iter_mut().zip(a) {
        for jj in j..n {
            let mut x = accr[jj];
            for (dk, &av) in arow.iter().enumerate() {
                // analyze: allow(float-equality) — exact-zero sparsity fast path; skipping only bitwise zeros cannot change the accumulated sum
                if av == 0.0 {
                    continue;
                }
                x = av.mul_add(b[dk * n + jj], x);
            }
            accr[jj] = x;
        }
    }
}

/// The score tile (`KernelBackend::score_tile`): output columns sit in the
/// lanes of one or two ymm registers per row — a 16-column group, the
/// whole tile at K + 1 ≤ 16 — and three rows advance abreast, so each `kk`
/// loads its slice of `kt` once for six independent add chains. Every
/// element starts at `+0.0` and takes one `vfmadd` per `kk`, ascending,
/// with no zero skip: the scalar default's chain.
///
/// # Safety
///
/// The CPU has AVX2 and FMA. Operand shapes are asserted here, once, for
/// the two functions below.
#[target_feature(enable = "avx2,fma")]
unsafe fn score_tile_avx2(
    out: &mut [f32],
    cols: usize,
    q: &[f32],
    d: usize,
    kt: &[f32],
    stride: usize,
) {
    let rows = out.len() / cols;
    assert!(
        out.len() == rows * cols
            && q.len() >= rows * d
            && stride.is_multiple_of(8)
            && stride >= cols
            && kt.len() >= d * stride,
        "score_tile: operand shapes"
    );
    let mut j0 = 0;
    while j0 < cols {
        if cols - j0 > 8 {
            score_group::<2>(out, cols, j0, rows, q, d, kt, stride);
        } else {
            score_group::<1>(out, cols, j0, rows, q, d, kt, stride);
        }
        j0 += 16;
    }
}

/// Every row of the `V`-vector column group starting at `j0`, three rows at
/// a time and then the one or two left over.
///
/// # Safety
///
/// As [`score_rows`], for every row of `out`.
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn score_group<const V: usize>(
    out: &mut [f32],
    cols: usize,
    j0: usize,
    rows: usize,
    q: &[f32],
    d: usize,
    kt: &[f32],
    stride: usize,
) {
    let mut i = 0;
    while i + 3 <= rows {
        score_rows::<3, V>(out, cols, j0, i, q, d, kt, stride);
        i += 3;
    }
    match rows - i {
        2 => score_rows::<2, V>(out, cols, j0, i, q, d, kt, stride),
        1 => score_rows::<1, V>(out, cols, j0, i, q, d, kt, stride),
        _ => {}
    }
}

/// Rows `i0 .. i0 + R` of one column group: an `R × V` block of ymm
/// accumulators, fully unrolled over the constant `R` and `V` so the block
/// lives in registers for the whole `kk` sweep.
///
/// # Safety
///
/// The CPU has AVX2 and FMA; `score_tile_avx2`'s shape assertion holds,
/// `i0 + R` rows fit in `out`, `j0` is a multiple of 16 below `cols`, and
/// `V = 2` only when more than 8 columns remain from `j0`.
#[target_feature(enable = "avx2,fma")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn score_rows<const R: usize, const V: usize>(
    out: &mut [f32],
    cols: usize,
    j0: usize,
    i0: usize,
    q: &[f32],
    d: usize,
    kt: &[f32],
    stride: usize,
) {
    let mut acc = [[_mm256_setzero_ps(); V]; R];
    let qp = q.as_ptr().add(i0 * d);
    let kp = kt.as_ptr().add(j0);
    for kk in 0..d {
        // SAFETY: the group's vector v starts at lane j0 + 8v, a multiple
        // of 8 below `cols` (V = 2 only when more than 8 columns remain),
        // so j0 + 8v + 8 <= stride; kk < d and kt holds d * stride floats.
        let mut kv = [_mm256_setzero_ps(); V];
        for (v, lanes) in kv.iter_mut().enumerate() {
            *lanes = _mm256_loadu_ps(kp.add(kk * stride + 8 * v));
        }
        for (r, row) in acc.iter_mut().enumerate() {
            // SAFETY: i0 + r < rows and q holds rows * d floats.
            let qv = _mm256_set1_ps(*qp.add(r * d + kk));
            for (a, &k) in row.iter_mut().zip(&kv) {
                *a = _mm256_fmadd_ps(qv, k, *a);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let orow = &mut out[(i0 + r) * cols + j0..(i0 + r + 1) * cols];
        for (v, &a) in row.iter().enumerate() {
            let lanes = (orow.len() - 8 * v).min(8);
            if lanes == 8 {
                // SAFETY: 8v + 8 <= orow.len().
                _mm256_storeu_ps(orow.as_mut_ptr().add(8 * v), a);
            } else {
                let mut spill = [0.0f32; 8];
                _mm256_storeu_ps(spill.as_mut_ptr(), a);
                orow[8 * v..8 * v + lanes].copy_from_slice(&spill[..lanes]);
            }
        }
    }
}

/// `KernelBackend::transpose`: the same cache tiles as the scalar loop,
/// each whole 8 × 8 block of them through registers (unpack, shuffle,
/// lane permute), and the rows and columns past the last whole block one
/// element at a time.
///
/// # Safety
///
/// The CPU has AVX2 and FMA. Operand shapes are asserted here.
#[target_feature(enable = "avx2,fma")]
unsafe fn transpose_avx2(src: &[f32], rows: usize, cols: usize, dst: &mut [f32], stride: usize) {
    assert!(
        src.len() >= rows * cols
            && stride >= rows
            && (cols == 0 || dst.len() >= (cols - 1) * stride + rows),
        "transpose: operand shapes"
    );
    let (rows8, cols8) = (rows / 8 * 8, cols / 8 * 8);
    for rb in (0..rows8).step_by(TRANSPOSE_TILE) {
        for cb in (0..cols8).step_by(TRANSPOSE_TILE) {
            for c0 in (cb..(cb + TRANSPOSE_TILE).min(cols8)).step_by(8) {
                for r0 in (rb..(rb + TRANSPOSE_TILE).min(rows8)).step_by(8) {
                    // SAFETY: r0 + 8 <= rows and c0 + 8 <= cols, so the
                    // block's 8 source rows are inside `src` and its 8
                    // destination rows, c0..c0 + 8, inside `dst` (asserted
                    // above).
                    transpose8x8(
                        src.as_ptr().add(r0 * cols + c0),
                        cols,
                        dst.as_mut_ptr().add(c0 * stride + r0),
                        stride,
                    );
                }
            }
        }
    }
    for r in 0..rows {
        let done = if r < rows8 { cols8 } else { 0 };
        for c in done..cols {
            dst[c * stride + r] = src[r * cols + c];
        }
    }
}

/// One 8 × 8 block: eight rows `ld` floats apart at `src` become eight
/// rows `stride` floats apart at `dst`.
///
/// # Safety
///
/// The CPU has AVX2 and FMA; `src + i·ld .. + 8` is readable and
/// `dst + i·stride .. + 8` writable, for every `i < 8`.
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn transpose8x8(src: *const f32, ld: usize, dst: *mut f32, stride: usize) {
    let r0 = _mm256_loadu_ps(src);
    let r1 = _mm256_loadu_ps(src.add(ld));
    let r2 = _mm256_loadu_ps(src.add(2 * ld));
    let r3 = _mm256_loadu_ps(src.add(3 * ld));
    let r4 = _mm256_loadu_ps(src.add(4 * ld));
    let r5 = _mm256_loadu_ps(src.add(5 * ld));
    let r6 = _mm256_loadu_ps(src.add(6 * ld));
    let r7 = _mm256_loadu_ps(src.add(7 * ld));
    // Per 128-bit lane: interleave row pairs, then gather four-row
    // columns; the lane permute joins the two halves of each column.
    let (t0, t1) = (_mm256_unpacklo_ps(r0, r1), _mm256_unpackhi_ps(r0, r1));
    let (t2, t3) = (_mm256_unpacklo_ps(r2, r3), _mm256_unpackhi_ps(r2, r3));
    let (t4, t5) = (_mm256_unpacklo_ps(r4, r5), _mm256_unpackhi_ps(r4, r5));
    let (t6, t7) = (_mm256_unpacklo_ps(r6, r7), _mm256_unpackhi_ps(r6, r7));
    let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    _mm256_storeu_ps(dst, _mm256_permute2f128_ps::<0x20>(s0, s4));
    _mm256_storeu_ps(dst.add(stride), _mm256_permute2f128_ps::<0x20>(s1, s5));
    _mm256_storeu_ps(dst.add(2 * stride), _mm256_permute2f128_ps::<0x20>(s2, s6));
    _mm256_storeu_ps(dst.add(3 * stride), _mm256_permute2f128_ps::<0x20>(s3, s7));
    _mm256_storeu_ps(dst.add(4 * stride), _mm256_permute2f128_ps::<0x31>(s0, s4));
    _mm256_storeu_ps(dst.add(5 * stride), _mm256_permute2f128_ps::<0x31>(s1, s5));
    _mm256_storeu_ps(dst.add(6 * stride), _mm256_permute2f128_ps::<0x31>(s2, s6));
    _mm256_storeu_ps(dst.add(7 * stride), _mm256_permute2f128_ps::<0x31>(s3, s7));
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
        // Separate multiply and add: the scalar affine rounds twice.
        _mm256_storeu_ps(dst.as_mut_ptr().add(j), _mm256_add_ps(_mm256_mul_ps(xh, g), b));
        j += 8;
    }
    while j < dst.len() {
        dst[j] = xhat[j] * gamma[j] + beta[j];
        j += 1;
    }
}

/// `KernelBackend::sum8` (`SQ = false`) and `sq_diff_sum8` (`SQ = true`):
/// lane `r` of one ymm register carries row `r`'s chain from `-0.0`, one
/// `vaddps` per row of the transposed block (after `vsubps` + `vmulps` of
/// `mean[r]` under `SQ`) — the scalar default's per-lane chain.
///
/// # Safety
///
/// The CPU has AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
unsafe fn lanes8_avx2<const SQ: bool>(xt: &[f32], mean: [f32; 8]) -> [f32; 8] {
    let vmean = _mm256_loadu_ps(mean.as_ptr());
    let mut acc = _mm256_set1_ps(-0.0);
    for x8 in xt.chunks_exact(8) {
        // SAFETY: the chunk is exactly 8 contiguous f32s.
        let mut v = _mm256_loadu_ps(x8.as_ptr());
        if SQ {
            v = _mm256_sub_ps(v, vmean);
            v = _mm256_mul_ps(v, v);
        }
        acc = _mm256_add_ps(acc, v);
    }
    let mut out = [0.0f32; 8];
    _mm256_storeu_ps(out.as_mut_ptr(), acc);
    out
}

/// `KernelBackend::matvec8`: the eight rows' accumulators in one ymm
/// register, one `vfmadd` per `kk`, and a blend that keeps the
/// old value in every lane whose coefficient is a bitwise zero (`±0.0`
/// compares equal to zero, NaN does not) — the scalar skip, lane by lane.
///
/// # Safety
///
/// The CPU has AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
unsafe fn matvec8_avx2(acc: &mut [f32; 8], at: &[f32], x: &[f32]) {
    let zero = _mm256_setzero_ps();
    let mut v = _mm256_loadu_ps(acc.as_ptr());
    for (a8, &xv) in at.chunks_exact(8).zip(x) {
        // SAFETY: the chunk is exactly 8 contiguous f32s.
        let a = _mm256_loadu_ps(a8.as_ptr());
        let sum = _mm256_fmadd_ps(a, _mm256_set1_ps(xv), v);
        v = _mm256_blendv_ps(v, sum, _mm256_cmp_ps::<_CMP_NEQ_UQ>(a, zero));
    }
    _mm256_storeu_ps(acc.as_mut_ptr(), v);
}

/// Advances `$j` over every whole `$v · $lanes`-column group of an int8
/// product row from `$j` on (`ymm`: 8 lanes, `zmm`: 16): `$v` registers of
/// `$lanes` `i32` sums, one `vpmaddwd` + `vpaddd` per register per pair of
/// k-steps, stored once per group. Expanded in a function that enables the
/// intrinsics' target features, after [`qdot_operands`] has checked the
/// shapes.
macro_rules! qdot_cols {
    (ymm, $v:literal; $($operands:tt)*) => {
        qdot_cols!(8, $v, _mm256_setzero_si256, _mm256_set1_epi32, _mm256_loadu_si256,
            _mm256_storeu_si256, _mm256_madd_epi16, _mm256_add_epi32; $($operands)*)
    };
    (zmm, $v:literal; $($operands:tt)*) => {
        qdot_cols!(16, $v, _mm512_setzero_si512, _mm512_set1_epi32, _mm512_loadu_si512,
            _mm512_storeu_si512, _mm512_madd_epi16, _mm512_add_epi32; $($operands)*)
    };
    ($lanes:literal, $v:literal, $zero:ident, $set1:ident, $load:ident, $store:ident,
     $madd:ident, $add:ident; $acc:ident, $qa:ident, $pairs:ident, $j:ident) => {
        let n = $acc.len();
        while $j + $v * $lanes <= n {
            let mut sums = [$zero(); $v];
            for (p, a2) in $qa.chunks(2).enumerate() {
                let va = $set1(pair_word(a2));
                // SAFETY: pairs holds ceil(k/2) rows of 2n i16, so pair row p
                // spans [2pn, 2pn + 2n); register v reads 2·lanes i16 from
                // 2(pn + j + lanes·v), inside it since j + v·lanes + lanes <= n.
                let row = $pairs.as_ptr().add(2 * (p * n + $j));
                for (v, sum) in sums.iter_mut().enumerate() {
                    *sum = $add(*sum, $madd(va, $load(row.add(2 * $lanes * v).cast())));
                }
            }
            for (v, sum) in sums.iter().enumerate() {
                // SAFETY: j + lanes·v + lanes <= n = acc.len().
                $store($acc.as_mut_ptr().add($j + $lanes * v).cast(), *sum);
            }
            $j += $v * $lanes;
        }
    };
}

/// `KernelBackend::qdot_row` on ymm: 32-column groups of four registers,
/// then 8-column ones, then the scalar columns. Every sum is exact, so the
/// order of the additions does not show in the bits.
///
/// # Safety
///
/// The CPU has AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
unsafe fn qdot_row_avx2(acc: &mut [i32], qa: &[i8], pairs: &[i16]) {
    qdot_operands(acc, qa, pairs);
    let mut j = 0;
    qdot_cols!(ymm, 4; acc, qa, pairs, j);
    qdot_cols!(ymm, 1; acc, qa, pairs, j);
    qdot_columns(acc, qa, pairs, j);
}

/// [`qdot_row_avx2`] with 64- and 16-column zmm groups in front.
///
/// # Safety
///
/// The CPU has AVX-512F and AVX-512BW besides AVX2 and FMA
/// ([`avx512_available`]).
#[target_feature(enable = "avx512f,avx512bw,avx2,fma")]
unsafe fn qdot_row_avx512(acc: &mut [i32], qa: &[i8], pairs: &[i16]) {
    qdot_operands(acc, qa, pairs);
    let mut j = 0;
    qdot_cols!(zmm, 4; acc, qa, pairs, j);
    qdot_cols!(zmm, 1; acc, qa, pairs, j);
    qdot_cols!(ymm, 1; acc, qa, pairs, j);
    qdot_columns(acc, qa, pairs, j);
}

/// Checks an int8 product row's shapes for [`qdot_cols!`]'s unchecked
/// loads.
#[inline(always)]
fn qdot_operands(acc: &[i32], qa: &[i8], pairs: &[i16]) {
    assert!(
        pairs.len() >= qa.len().div_ceil(2) * 2 * acc.len(),
        "qdot_row: pairs hold fewer than k/2 pair rows of n"
    );
}

/// Columns `j0..n` of an int8 product row (fewer than one vector): the
/// scalar pair sums, column by column.
#[inline(always)]
fn qdot_columns(acc: &mut [i32], qa: &[i8], pairs: &[i16], j0: usize) {
    let n = acc.len();
    for (j, x) in acc.iter_mut().enumerate().skip(j0) {
        *x = 0;
        for (p, a2) in qa.chunks(2).enumerate() {
            let (a0, a1) = split_pair(a2);
            let at = 2 * (p * n + j);
            *x += a0 * i32::from(pairs[at]) + a1 * i32::from(pairs[at + 1]);
        }
    }
}

/// One pair step's two activation codes as `vpmaddwd` reads them from each
/// 32-bit lane: the first in the low `i16`, the second in the high one.
#[inline(always)]
fn pair_word(a2: &[i8]) -> i32 {
    let (a0, a1) = split_pair(a2);
    i32::from(a0 as i16 as u16) | i32::from(a1 as i16 as u16) << 16
}

/// `KernelBackend::quantize_row`, eight lanes at a time, the tail through
/// the scalar helpers:
/// - the range scan keeps `vminps(v, lo)` / `vmaxps(v, hi)`, which return
///   the accumulator for NaN and for equal zeros as the scalar `v < lo` /
///   `v > hi` tests do, and `Σ v·0`, which turns NaN on the first NaN or ±∞;
/// - each code is `vdivps`, then `f32::round` as truncate plus a step of
///   ±1 where the exact fraction `x − trunc(x)` is at least one half
///   (blended, so `−0.0` stays `−0.0`), then the zero-point add, NaN to 0
///   and the clamp, which leave an integral value `vcvtps2dq` converts
///   exactly.
///
/// # Safety
///
/// The CPU has AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
unsafe fn quantize_row_avx2(q: &mut [i8], row: &[f32]) -> (f32, i32) {
    assert_eq!(q.len(), row.len(), "quantize_row: code and value rows differ in length");
    let zero = _mm256_setzero_ps();
    let (mut lo8, mut hi8, mut nan8) = (zero, zero, zero);
    let chunks = row.chunks_exact(8);
    let tail = chunks.remainder();
    for x8 in chunks {
        // SAFETY: the chunk is exactly 8 contiguous f32s.
        let v = _mm256_loadu_ps(x8.as_ptr());
        lo8 = _mm256_min_ps(v, lo8);
        hi8 = _mm256_max_ps(v, hi8);
        nan8 = _mm256_add_ps(nan8, _mm256_mul_ps(v, zero));
    }
    let [mut lanes_lo, mut lanes_hi, mut lanes_nan] = [[0.0f32; 8]; 3];
    // SAFETY: each array holds exactly 8 f32s.
    _mm256_storeu_ps(lanes_lo.as_mut_ptr(), lo8);
    _mm256_storeu_ps(lanes_hi.as_mut_ptr(), hi8);
    _mm256_storeu_ps(lanes_nan.as_mut_ptr(), nan8);
    let (mut lo, mut hi, mut finite) = (0.0f32, 0.0f32, true);
    for ((&l, &h), &z) in lanes_lo.iter().zip(&lanes_hi).zip(&lanes_nan) {
        lo = if l < lo { l } else { lo };
        hi = if h > hi { h } else { hi };
        finite &= !z.is_nan();
    }
    for &v in tail {
        lo = if v < lo { v } else { lo };
        hi = if v > hi { v } else { hi };
        finite &= v.is_finite();
    }
    let (s, zp) = quant_params(lo, hi, finite);
    let (vs, vzp) = (_mm256_set1_ps(s), _mm256_set1_ps(zp as f32));
    let (sign, one, half) = (_mm256_set1_ps(-0.0), _mm256_set1_ps(1.0), _mm256_set1_ps(0.5));
    let (qmin, qmax) = (_mm256_set1_ps(-128.0), _mm256_set1_ps(127.0));
    let gather = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
    let mut tail_at = 0;
    for (q8, x8) in q.chunks_exact_mut(8).zip(row.chunks_exact(8)) {
        // SAFETY: the chunk is exactly 8 contiguous f32s.
        let x = _mm256_div_ps(_mm256_loadu_ps(x8.as_ptr()), vs);
        let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(x);
        let away = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_andnot_ps(sign, _mm256_sub_ps(x, t)), half);
        let step = _mm256_or_ps(_mm256_and_ps(x, sign), one);
        let y = _mm256_add_ps(_mm256_blendv_ps(t, _mm256_add_ps(t, step), away), vzp);
        let y = _mm256_and_ps(y, _mm256_cmp_ps::<_CMP_ORD_Q>(y, y));
        let codes = _mm256_cvtps_epi32(_mm256_max_ps(_mm256_min_ps(y, qmax), qmin));
        // After the two packs the low half's first dword holds the codes of
        // lanes 0-3 and the high half's those of lanes 4-7; the permute
        // puts the two dwords side by side.
        let words = _mm256_packs_epi32(codes, codes);
        let bytes = _mm256_permutevar8x32_epi32(_mm256_packs_epi16(words, words), gather);
        // SAFETY: the chunk is exactly 8 contiguous i8s, and the store
        // writes the low 8 bytes of the register.
        _mm_storel_epi64(q8.as_mut_ptr().cast(), _mm256_castsi256_si128(bytes));
        tail_at += 8;
    }
    for (qv, &v) in q[tail_at..].iter_mut().zip(&row[tail_at..]) {
        *qv = quantize_value(v, s, zp as f32);
    }
    (s, zp)
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
    fn avx2_transpose_and_score_tile_match_scalar_bitwise() {
        if !avx2_available() {
            return;
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // (rows, cols): whole 8 × 8 blocks, edges on either side, more than
        // one 32-wide tile, and a destination stride past `rows`.
        let shapes: [(usize, usize); 7] =
            [(0, 5), (1, 1), (8, 8), (9, 64), (17, 33), (40, 71), (64, 7)];
        for (rows, cols) in shapes {
            let src: Vec<f32> = (0..rows * cols).map(|i| i as f32 * 0.5 - 3.0).collect();
            let stride = rows.next_multiple_of(8) + 8;
            let len = cols * stride;
            let (mut scalar, mut avx) = (vec![-1.0f32; len], vec![-1.0f32; len]);
            ScalarKernels::transpose(&src, rows, cols, &mut scalar, stride);
            Avx2Kernels::transpose(&src, rows, cols, &mut avx, stride);
            assert_eq!(bits(&scalar), bits(&avx), "transpose {rows}x{cols}");
            for c in 0..cols {
                for r in 0..stride {
                    let want = if r < rows { src[r * cols + c] } else { -1.0 };
                    assert_eq!(scalar[c * stride + r].to_bits(), want.to_bits(), "({r}, {c})");
                }
            }
        }
        // Score tiles: 1..=2 vector groups, row remainders 0..=2, and a
        // non-finite entry in either operand.
        let tiles: [(usize, usize, usize); 5] =
            [(1, 1, 0), (5, 5, 7), (9, 9, 64), (4, 17, 65), (7, 24, 3)];
        for (rows, cols, d) in tiles {
            let mut q: Vec<f32> =
                (0..rows * d).map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.37).collect();
            let mut k: Vec<f32> =
                (0..cols * d).map(|i| ((i * 53 % 23) as f32 - 11.0) * 0.21).collect();
            if d > 2 {
                k[2] = f32::INFINITY;
                q[d + 1] = f32::NEG_INFINITY;
            }
            let stride = cols.next_multiple_of(8);
            let mut kt = vec![0.0f32; d * stride];
            ScalarKernels::transpose(&k, cols, d, &mut kt, stride);
            let (mut scalar, mut avx) = (vec![f32::NAN; rows * cols], vec![f32::NAN; rows * cols]);
            ScalarKernels::score_tile(&mut scalar, cols, &q, d, &kt, stride);
            Avx2Kernels::score_tile(&mut avx, cols, &q, d, &kt, stride);
            assert_eq!(bits(&scalar), bits(&avx), "score_tile {rows}x{cols}x{d}");
        }
    }

    #[test]
    fn simd_fma_panel6_matches_scalar_bitwise_at_awkward_shapes() {
        if !avx2_available() {
            return;
        }
        // Widths with no whole tile, one ymm tile, a zmm group and the
        // ymm tile and scalar columns behind it, and two zmm groups.
        let shapes: [(usize, usize); 10] = [
            (1, 5),
            (3, 16),
            (4, 15),
            (7, 37),
            (64, 33),
            (64, 48),
            (9, 63),
            (64, 64),
            (5, 80),
            (64, 95),
        ];
        for (klen, n) in shapes {
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
            fn split6(rows: &mut [Vec<f32>]) -> [&mut [f32]; 6] {
                let (r0, rest) = rows.split_at_mut(1);
                let (r1, rest) = rest.split_at_mut(1);
                let (r2, rest) = rest.split_at_mut(1);
                let (r3, rest) = rest.split_at_mut(1);
                let (r4, r5) = rest.split_at_mut(1);
                [&mut r0[0], &mut r1[0], &mut r2[0], &mut r3[0], &mut r4[0], &mut r5[0]]
            }
            type Panel6 = fn([&mut [f32]; 6], [&[f32]; 6], &[f32], usize);
            let run = |panel6: Panel6| {
                let mut rows = vec![start.clone(); 6];
                panel6(split6(&mut rows), a6, &bpanel, n);
                rows.iter().map(|r| r.iter().map(|x| x.to_bits()).collect()).collect::<Vec<_>>()
            };
            let scalar: Vec<Vec<u32>> = run(ScalarKernels::fma_panel6);
            assert_eq!(scalar, run(Avx2Kernels::fma_panel6), "avx2 klen={klen} n={n}");
            if avx512_available() {
                assert_eq!(scalar, run(Avx512Kernels::fma_panel6), "avx512 klen={klen} n={n}");
            }
        }
    }

    #[test]
    fn avx2_row_abreast_reductions_match_scalar_bitwise() {
        if !avx2_available() {
            return;
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for d in [0, 1, 7, 8, 33, 64] {
            let (a, b) = vecs(8 * d);
            // Lane 0 all -0.0, lane 1 with a non-finite entry and a NaN
            // coefficient, lane 2 all +0.0 coefficients.
            let mut xt = a.clone();
            let mut at = b.clone();
            for kk in 0..d {
                xt[kk * 8] = -0.0;
                at[kk * 8 + 2] = 0.0;
                at[kk * 8 + 3] = if kk % 3 == 0 { -0.0 } else { at[kk * 8 + 3] };
            }
            if d > 2 {
                at[8 + 1] = f32::INFINITY;
                at[16 + 1] = f32::NAN;
                xt[8 + 5] = f32::NEG_INFINITY;
            }
            let mean = [0.25f32, -1.5, 0.0, -0.0, 3.0, 0.5, -0.75, 1.0];
            let x: Vec<f32> = (0..d).map(|i| (i as f32) * 0.37 - 2.0).collect();
            assert_eq!(bits(&ScalarKernels::sum8(&xt)), bits(&Avx2Kernels::sum8(&xt)), "sum8 {d}");
            assert_eq!(
                bits(&ScalarKernels::sq_diff_sum8(&xt, mean)),
                bits(&Avx2Kernels::sq_diff_sum8(&xt, mean)),
                "sq_diff_sum8 {d}"
            );
            let start = [1.0f32, -0.0, 0.0, -2.5, 0.125, 7.0, -0.0, 0.0];
            let (mut acc_s, mut acc_v) = (start, start);
            ScalarKernels::matvec8(&mut acc_s, &at, &x);
            Avx2Kernels::matvec8(&mut acc_v, &at, &x);
            assert_eq!(bits(&acc_s), bits(&acc_v), "matvec8 {d}");
        }
    }
}
