//! Int8 row-quantized inference kernels.
//!
//! This module implements the quantization scheme behind the `Int8`
//! inference precision (see `docs/PERFORMANCE.md` for the full contract):
//!
//! * **Activations** ([`QuantizedMatrix`]) are quantized *per row* with an
//!   asymmetric affine map `x ≈ scale · (q − zero_point)`, `q ∈ [-128, 127]`.
//!   Per-row parameters track the wildly different dynamic ranges of
//!   hop-wise embeddings within one batch.
//! * **Weights** ([`QuantizedWeights`]) are quantized *per column* with a
//!   symmetric map `w ≈ scale · q`, `q ∈ [-127, 127]`, and carry
//!   precomputed per-column sums of the quantized values.
//! * [`qmatmul`] multiplies the two in pure `i32` arithmetic and
//!   dequantizes at the end:
//!
//!   ```text
//!   y[i][j] = sa[i] · sw[j] · ( Σ_k qa[i][k]·qw[k][j]  −  za[i] · colsum[j] )
//!   ```
//!
//!   The `za·colsum` correction folds the activation zero-point out of the
//!   inner loop, so the hot loop is a plain `i8×i8 → i32` dot product.
//!
//! The `i32` accumulator is exact: `|qa·qw| ≤ 128·127`, so overflow needs
//! `k > i32::MAX / 16256 ≈ 1.3e5` — far beyond any HOGA hop-stack width.
//! Like every kernel in this crate, the output is a pure function of the
//! inputs: quantization parameters derive only from the data, and the i32
//! dot product is exact regardless of association, so results never depend
//! on the thread count. The quantizer row and the product row are
//! [`KernelBackend`] methods (`quantize_row`, `qdot_row`): the scalar
//! defaults are the reference, and the AVX2 and AVX-512 overrides in
//! `simd.rs` match them bit for bit on every input, NaN and ±∞ included.

use crate::backend::{dispatch, KernelBackend};
use crate::matrix::Matrix;
use crate::parallel::parallel_chunks;

/// An activation matrix quantized row-wise to `i8` with an asymmetric
/// affine map `x ≈ scale[r] · (q − zero_point[r])`.
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    q: Vec<i8>,
    rows: usize,
    cols: usize,
    scale: Vec<f32>,
    zero_point: Vec<i32>,
}

impl QuantizedMatrix {
    /// Quantizes `x` row by row.
    ///
    /// Each row maps its `[min, max]` range (always widened to include
    /// `0.0`, so the zero-point is exact) onto `[-128, 127]`. A row of
    /// zeros gets scale `1.0` and zero-point `0`. A row holding NaN or ±∞
    /// gets a NaN scale, so its products with [`qmatmul`] are NaN, as the
    /// f32 product's are. One kernel backend runs every row.
    pub fn quantize(x: &Matrix) -> Self {
        dispatch!(B => Self::quantize_impl::<B>(x))
    }

    fn quantize_impl<B: KernelBackend>(x: &Matrix) -> Self {
        let (rows, cols) = (x.rows(), x.cols());
        let mut q = vec![0i8; rows * cols];
        let mut scale = Vec::with_capacity(rows);
        let mut zero_point = Vec::with_capacity(rows);
        for r in 0..rows {
            let (s, zp) = B::quantize_row(&mut q[r * cols..(r + 1) * cols], x.row(r));
            scale.push(s);
            zero_point.push(zp);
        }
        Self { q, rows, cols, scale, zero_point }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row `r`'s codes, scale and zero point.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_codes(&self, r: usize) -> (&[i8], f32, i32) {
        (&self.q[r * self.cols..(r + 1) * self.cols], self.scale[r], self.zero_point[r])
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reconstructs the `f32` matrix `scale[r] · (q − zero_point[r])`, for
    /// the tests below to measure round-trip error; the inference path
    /// never rematerializes activations.
    #[cfg(test)]
    fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |r, c| {
            let (codes, s, zp) = self.row_codes(r);
            s * (i32::from(codes[c]) - zp) as f32
        })
    }
}

/// A `k × n` weight matrix quantized column-wise to `i8` with a symmetric
/// map `w ≈ scale[c] · q`, plus precomputed per-column sums of `q` for the
/// zero-point correction in [`qmatmul`].
///
/// The codes are stored once, packed in pairs of rows for the product row
/// (`vpmaddwd` multiplies two `i16` pairs and adds them):
/// `pairs[(p·n + j)·2 + t] = q[2p + t][j]`, zero-padded to an even `k`.
#[derive(Debug, Clone)]
pub struct QuantizedWeights {
    pairs: Vec<i16>,
    k: usize,
    n: usize,
    scale: Vec<f32>,
    col_sums: Vec<i32>,
}

impl QuantizedWeights {
    /// Quantizes a `k × n` weight matrix column by column.
    ///
    /// Symmetric per-column scales (`max |w| / 127`); an all-zero column
    /// gets scale `1.0`. Weights quantize once per model load, so this is
    /// deliberately simple.
    pub fn quantize(w: &Matrix) -> Self {
        let (k, n) = (w.rows(), w.cols());
        let mut max_abs = vec![0.0f32; n];
        for r in 0..k {
            for (c, &v) in w.row(r).iter().enumerate() {
                let a = v.abs();
                if a > max_abs[c] {
                    max_abs[c] = a;
                }
            }
        }
        let scale: Vec<f32> =
            max_abs.iter().map(|&m| if m > 0.0 { m / 127.0 } else { 1.0 }).collect();
        let mut pairs = vec![0i16; k.div_ceil(2) * 2 * n];
        let mut col_sums = vec![0i32; n];
        for r in 0..k {
            for (c, &v) in w.row(r).iter().enumerate() {
                let qv = ((v / scale[c]).round() as i32).clamp(-127, 127);
                pairs[((r / 2) * n + c) * 2 + r % 2] = qv as i16;
                col_sums[c] += qv;
            }
        }
        Self { pairs, k, n, scale, col_sums }
    }

    /// Shared (inner) dimension `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output dimension `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reconstructs the `f32` weight matrix `scale[c] · q` (test-only, as
    /// [`QuantizedMatrix::dequantize`]).
    #[cfg(test)]
    fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.k, self.n, |r, c| {
            self.scale[c] * f32::from(self.pairs[((r / 2) * self.n + c) * 2 + r % 2])
        })
    }
}

/// Int8 matrix product `a · w` with dequantized `f32` output.
///
/// Each output row is one `KernelBackend::qdot_row` — `i8 × i8`
/// products accumulated in `i32`, exact (see the module docs) — followed
/// by the per-row/per-column affine correction once per element. Rows of
/// the output are independent, so the product parallelizes over row
/// chunks exactly like `Matrix::matmul`; the integer accumulation is
/// association-free, making the result thread-count and backend invariant
/// bit for bit. The backend is resolved once per call.
///
/// # Panics
///
/// Panics if `a.cols() != w.k()`.
pub fn qmatmul(a: &QuantizedMatrix, w: &QuantizedWeights) -> Matrix {
    assert_eq!(
        a.cols, w.k,
        "shape mismatch in qmatmul: ({}, {}) x ({}, {})",
        a.rows, a.cols, w.k, w.n
    );
    dispatch!(B => qmatmul_impl::<B>(a, w))
}

fn qmatmul_impl<B: KernelBackend>(a: &QuantizedMatrix, w: &QuantizedWeights) -> Matrix {
    let (m, k, n) = (a.rows, a.cols, w.n);
    let mut out = Matrix::zeros(m, n);
    if m * n == 0 {
        return out;
    }
    let work = |row_start: usize, chunk: &mut [f32]| {
        let mut acc = vec![0i32; n];
        for (i, orow) in chunk.chunks_exact_mut(n).enumerate() {
            let r = row_start + i;
            B::qdot_row(&mut acc, &a.q[r * k..(r + 1) * k], &w.pairs);
            let (sa, za) = (a.scale[r], a.zero_point[r]);
            let columns = w.scale.iter().zip(&w.col_sums);
            for ((o, &x), (&sw, &cs)) in orow.iter_mut().zip(&acc).zip(columns) {
                *o = sa * sw * (x - za * cs) as f32;
            }
        }
    };
    parallel_chunks(out.as_mut_slice(), n, m * k * n, work);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::matrix::Gemm;

    fn sample(rows: usize, cols: usize, seed: u64) -> Matrix {
        Init::XavierUniform.matrix(rows, cols, seed)
    }

    #[test]
    fn activation_roundtrip_error_is_bounded_by_half_step() {
        let x = sample(7, 33, 11);
        let qx = QuantizedMatrix::quantize(&x);
        let back = qx.dequantize();
        for r in 0..x.rows() {
            let row = x.row(r);
            let span = row.iter().fold(0.0f32, |m, &v| m.max(v.abs())) * 2.0;
            let step = span / 255.0;
            for (a, b) in row.iter().zip(back.row(r)) {
                assert!((a - b).abs() <= 0.5 * step + 1e-6, "row {r}: {a} vs {b} (step {step})");
            }
        }
    }

    #[test]
    fn zero_quantizes_exactly() {
        let x = Matrix::from_rows(&[&[0.0, 1.5, -2.0, 0.0], &[0.0, 0.0, 0.0, 0.0]]);
        let back = QuantizedMatrix::quantize(&x).dequantize();
        assert_eq!(back.row(0)[0], 0.0);
        assert_eq!(back.row(0)[3], 0.0);
        for &v in back.row(1) {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn qmatmul_tracks_f32_matmul() {
        let a = sample(9, 48, 3);
        let w = sample(48, 24, 4);
        let exact = a.matmul(&w);
        let approx = qmatmul(&QuantizedMatrix::quantize(&a), &QuantizedWeights::quantize(&w));
        let scale = exact.as_slice().iter().fold(1e-6f32, |m, &v| m.max(v.abs()));
        for (e, g) in exact.as_slice().iter().zip(approx.as_slice()) {
            assert!(
                (e - g).abs() <= 0.02 * scale,
                "int8 matmul drifted: {e} vs {g} (scale {scale})"
            );
        }
    }

    #[test]
    fn qmatmul_equals_dequantized_reference_product() {
        // The int8 product must be *exactly* the f32 product of the
        // dequantized operands up to the final rounding: verify against
        // a float emulation of the same affine algebra.
        let a = sample(5, 16, 8);
        let w = sample(16, 6, 9);
        let qa = QuantizedMatrix::quantize(&a);
        let qw = QuantizedWeights::quantize(&w);
        let got = qmatmul(&qa, &qw);
        let emulated = qa.dequantize().gemm_reference(&qw.dequantize(), Gemm::NN);
        for (e, g) in emulated.as_slice().iter().zip(got.as_slice()) {
            assert!(
                crate::approx::approx_eq_eps(*e, *g, 1e-4),
                "affine algebra mismatch: {e} vs {g}"
            );
        }
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    /// A row holding NaN or ±∞ quantizes to a NaN scale, so its product
    /// row is NaN, where the f32 product's is not finite either; the other
    /// rows keep the bits they have alone. Scanning past the NaN once read
    /// it as a 0 and returned a finite row.
    #[test]
    fn a_non_finite_row_multiplies_to_nan_and_leaves_the_others_alone() {
        let w = sample(4, 3, 2);
        let qw = QuantizedWeights::quantize(&w);
        let clean: &[f32] = &[0.125, -0.75, 0.5, 0.25];
        let alone = qmatmul(&QuantizedMatrix::quantize(&Matrix::from_rows(&[clean])), &qw);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let x = Matrix::from_rows(&[&[0.5, bad, -0.25, 1.0], clean]);
            let qx = QuantizedMatrix::quantize(&x);
            let (codes, s, zp) = qx.row_codes(0);
            assert!(s.is_nan() && zp == 0 && codes == [0; 4], "{bad}: ({codes:?}, {s}, {zp})");
            let got = qmatmul(&qx, &qw);
            assert!(got.row(0).iter().all(|v| v.is_nan()), "{bad}: {:?}", got.row(0));
            assert!(x.matmul(&w).row(0).iter().all(|v| !v.is_finite()), "{bad}: f32 product");
            assert_eq!(bits(got.row(1)), bits(alone.row(0)), "{bad}: the clean row moved");
        }
    }

    #[test]
    fn empty_shapes_are_noops() {
        let a = Matrix::zeros(0, 4);
        let w = Matrix::zeros(4, 3);
        let out = qmatmul(&QuantizedMatrix::quantize(&a), &QuantizedWeights::quantize(&w));
        assert_eq!((out.rows(), out.cols()), (0, 3));
        let a = Matrix::zeros(2, 0);
        let w = Matrix::zeros(0, 3);
        let out = qmatmul(&QuantizedMatrix::quantize(&a), &QuantizedWeights::quantize(&w));
        assert_eq!((out.rows(), out.cols()), (2, 3));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }
}
