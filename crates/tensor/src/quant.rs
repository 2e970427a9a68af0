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
//! on the thread count.

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
    /// `0.0`, so the zero-point is exact) onto `[-128, 127]`. A constant
    /// row degenerates to a symmetric map so that the single value is
    /// still representable.
    pub fn quantize(x: &Matrix) -> Self {
        let (rows, cols) = (x.rows(), x.cols());
        let mut q = vec![0i8; rows * cols];
        let mut scale = vec![1.0f32; rows];
        let mut zero_point = vec![0i32; rows];
        for r in 0..rows {
            let row = x.row(r);
            // Widen the range to include zero so zero quantizes exactly —
            // ReLU outputs and padded rows stay exactly zero after
            // round-tripping.
            let (mut lo, mut hi) = (0.0f32, 0.0f32);
            for &v in row {
                if v < lo {
                    lo = v;
                }
                if v > hi {
                    hi = v;
                }
            }
            let span = hi - lo;
            let (s, zp) = if span > 0.0 {
                let s = span / 255.0;
                // zero_point = qmin − lo/s, rounded; lo ≤ 0 ≤ hi keeps it
                // inside [-128, 127].
                // analyze: allow(panic-reachability) — f32 division: s = span/255 > 0 here, and float /0 is inf, never a panic
                (s, (-128.0 - lo / s).round() as i32)
            } else {
                // Constant row: hi == lo == 0 here because the range was
                // widened through zero, so everything quantizes to 0.
                (1.0, 0)
            };
            scale[r] = s;
            zero_point[r] = zp;
            let qrow = &mut q[r * cols..(r + 1) * cols];
            for (qv, &v) in qrow.iter_mut().zip(row) {
                // analyze: allow(panic-reachability) — f32 division: s > 0 on both branches above; float /0 is inf, never a panic
                let t = (v / s).round() as i32 + zp;
                *qv = t.clamp(-128, 127) as i8;
            }
        }
        Self { q, rows, cols, scale, zero_point }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
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
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let qrow = &self.q[r * self.cols..(r + 1) * self.cols];
            let (s, zp) = (self.scale[r], self.zero_point[r]);
            for (o, &qv) in out.row_mut(r).iter_mut().zip(qrow) {
                *o = s * (qv as i32 - zp) as f32;
            }
        }
        out
    }
}

/// A `k × n` weight matrix quantized column-wise to `i8` with a symmetric
/// map `w ≈ scale[c] · q`, plus precomputed per-column sums of `q` for the
/// zero-point correction in [`qmatmul`].
#[derive(Debug, Clone)]
pub struct QuantizedWeights {
    q: Vec<i8>,
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
        let mut q = vec![0i8; k * n];
        let mut col_sums = vec![0i32; n];
        for r in 0..k {
            let wrow = w.row(r);
            let qrow = &mut q[r * n..(r + 1) * n];
            for c in 0..n {
                let t = (wrow[c] / scale[c]).round() as i32;
                let qv = t.clamp(-127, 127) as i8;
                qrow[c] = qv;
                col_sums[c] += qv as i32;
            }
        }
        Self { q, k, n, scale, col_sums }
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
        let mut out = Matrix::zeros(self.k, self.n);
        for r in 0..self.k {
            let qrow = &self.q[r * self.n..(r + 1) * self.n];
            for (c, (o, &qv)) in out.row_mut(r).iter_mut().zip(qrow).enumerate() {
                *o = self.scale[c] * qv as f32;
            }
        }
        out
    }
}

/// Int8 matrix product `a · w` with dequantized `f32` output.
///
/// The inner loop accumulates `i8 × i8` products in `i32` (exact — see the
/// module docs), then applies the per-row/per-column affine correction
/// once per output element. Rows of the output are independent, so the
/// product parallelizes over row chunks exactly like `Matrix::matmul`;
/// the integer accumulation is association-free, making the result
/// thread-count invariant bit for bit.
///
/// The same loop runs on every CPU: the AVX2 backend covers the
/// bitwise-pinned training-path kernels only (`docs/PERFORMANCE.md`).
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
    let (m, k, n) = (a.rows, a.cols, w.n);
    let mut out = Matrix::zeros(m, n);
    if m * n == 0 {
        return out;
    }
    let work = |row_start: usize, chunk: &mut [f32]| {
        let rows_here = chunk.len() / n;
        let mut acc = vec![0i32; n];
        for i in 0..rows_here {
            let r = row_start + i;
            let qarow = &a.q[r * k..(r + 1) * k];
            acc.fill(0);
            for (kk, &qa) in qarow.iter().enumerate() {
                if qa == 0 {
                    continue;
                }
                let qa = qa as i32;
                let wrow = &w.q[kk * n..(kk + 1) * n];
                for (av, &qw) in acc.iter_mut().zip(wrow) {
                    *av += qa * qw as i32;
                }
            }
            let (sa, za) = (a.scale[r], a.zero_point[r]);
            let orow = &mut chunk[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                *o = sa * w.scale[j] * (acc[j] - za * w.col_sums[j]) as f32;
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
        let emulated = qa.dequantize().matmul_reference(&qw.dequantize());
        for (e, g) in emulated.as_slice().iter().zip(got.as_slice()) {
            assert!(
                crate::approx::approx_eq_eps(*e, *g, 1e-4),
                "affine algebra mismatch: {e} vs {g}"
            );
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
