use crate::backend::{dispatch, KernelBackend};
use crate::parallel::{parallel_chunks, parallel_map};
use crate::{recycle, ShapeError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// Rows of the shared dimension per cache panel of an `a · b`. The
/// panel keeps `MATMUL_K_PANEL` rows of `other` hot while sweeping the output
/// rows of a chunk; per-row accumulation order over `k` stays ascending, so
/// results are bitwise identical to the unblocked loop.
const MATMUL_K_PANEL: usize = 64;

/// Picks the k-panel length of an `a · b` so the `b` panel
/// (`len · n · 4` bytes) stays L1-resident: the register-tiled SIMD kernel
/// sweeps the panel once per 16-column tile with a row-length stride, and
/// a panel that spills to L2 turns every sweep into demand misses. Panel
/// boundaries never change results — the per-element `k` chain stays
/// ascending across them — so this is purely a cache decision.
fn matmul_panel_len(n: usize) -> usize {
    const PANEL_BYTES: usize = 24 * 1024;
    (PANEL_BYTES / (4 * n.max(1))).clamp(8, MATMUL_K_PANEL)
}

/// Rows of the shared dimension per partial accumulator of an unbatched
/// `aᵀ · b` ([`Gemm::TN`]).
const TN_K_CHUNK: usize = 128;

/// Upper bound on the number of `aᵀ · b` partial accumulators; bounds the
/// `chunks × m × n` scratch memory.
const TN_MAX_CHUNKS: usize = 16;

/// Work, in multiply-adds, up to which an unbatched `aᵀ · b` accumulates in
/// one `k`-chunk. This is part of the numeric contract — it decides float
/// association, so changing it moves every trained bit — and is therefore a
/// constant of its own: it equals `parallel::PARALLEL_MACS` by history, not
/// by reference, and the grain bound can be retuned without touching it.
const TN_SINGLE_CHUNK_MACS: usize = 1 << 18;

/// Number of `k`-chunks an unbatched `aᵀ · b` decomposes into — a pure function of the
/// operand shapes, never of the thread count, so the fixed-order reduction
/// over chunk partials yields bitwise-identical floats at any parallelism.
fn tn_chunk_count(m: usize, k: usize, n: usize) -> usize {
    if m * k * n <= TN_SINGLE_CHUNK_MACS {
        1
    } else {
        k.div_ceil(TN_K_CHUNK).clamp(1, TN_MAX_CHUNKS)
    }
}

/// The operand layout of a dense product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `a · b`: the linear layer and Eq. 7's `S·V`.
    Nn,
    /// `a · bᵀ`: Eq. 7's `QKᵀ` and the backward's `dX = dY·Wᵀ`.
    Nt,
    /// `aᵀ · b`: the backward's `dW = Xᵀ·dY`.
    Tn,
}

/// One dense product, described for [`Matrix::gemm`]: its operand
/// [`Layout`], whether it multiplies the whole operands (`batch` is
/// `None`) or `batch` stacked blocks of each (block `i` of the result is
/// block `i` of `a` times block `i` of `b`, Eq. 7's per-node products), and
/// whether it may reassociate for speed (inference only). Build one from
/// [`Gemm::NN`], [`Gemm::NT`] or [`Gemm::TN`]:
///
/// ```
/// use hoga_tensor::{Gemm, Matrix};
///
/// let q = Matrix::from_fn(4, 3, |r, c| (r + c) as f32);
/// let scores = q.gemm(&q, Gemm::NT.batched(2)); // two 2 × 2 tiles of QKᵀ
/// assert_eq!(scores.shape(), (4, 2));
/// assert_eq!(scores, q.gemm_reference(&q, Gemm::NT.batched(2)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gemm {
    /// Which operand, if any, enters transposed.
    pub layout: Layout,
    /// `None` for one product of the whole operands; `Some(b)` for `b`
    /// products of stacked blocks. The bodies differ: an unbatched `a · bᵀ`
    /// skips zero coefficients as `a · b` does, and an unbatched `aᵀ · b`
    /// sums chunk partials, so `Some(1)` is not `None`.
    pub batch: Option<usize>,
    /// Whether the product may reassociate for speed (`a · b` and batched
    /// `a · bᵀ`; the unbatched `a · bᵀ` is `a · b` over a transposed copy,
    /// and `aᵀ · b` has no fused body and computes exactly). A batched
    /// `a · bᵀ` then runs lane-parallel dot products. The fused `a · b`
    /// runs the exact chain — one fused multiply-add per `k`, ascending,
    /// zero coefficients skipped — one row at a time without the
    /// register tile, so it gives [`Gemm::NN`]'s bits far more slowly
    /// (about 75× at the trainer's shapes). It stays as it is because the
    /// benchmark's `batch_infer_fast` workload runs it through
    /// [`Matrix::matmul_fast`]: routed to the tile, that workload would
    /// move further in one change than its run-to-run comparison can
    /// judge (ROADMAP, fact 3).
    pub fused: bool,
}

impl Gemm {
    /// `a · b`, unbatched, exact.
    pub const NN: Self = Self { layout: Layout::Nn, batch: None, fused: false };
    /// `a · bᵀ`, unbatched, exact.
    pub const NT: Self = Self { layout: Layout::Nt, batch: None, fused: false };
    /// `aᵀ · b`, unbatched, exact.
    pub const TN: Self = Self { layout: Layout::Tn, batch: None, fused: false };

    /// This product over `batch` stacked blocks.
    pub const fn batched(self, batch: usize) -> Self {
        Self { batch: Some(batch), ..self }
    }

    /// This product with fused multiply-adds.
    pub const fn fused(self) -> Self {
        Self { fused: true, ..self }
    }

    /// `(blocks, m, k, n)` of the product of `a` and `b`: `blocks` results
    /// of `m × n`, each summing over `k`.
    fn dims(self, a: &Matrix, b: &Matrix) -> (usize, usize, usize, usize) {
        let blocks = self.batch.unwrap_or(1);
        assert!(blocks > 0, "batch must be positive");
        assert_eq!(a.rows % blocks, 0, "lhs rows {} not divisible by batch {blocks}", a.rows);
        assert_eq!(b.rows % blocks, 0, "rhs rows {} not divisible by batch {blocks}", b.rows);
        let (ra, rb) = (a.rows / blocks, b.rows / blocks);
        let (m, k, kb, n) = match self.layout {
            Layout::Nn => (ra, a.cols, rb, b.cols),
            Layout::Nt => (ra, a.cols, b.cols, rb),
            Layout::Tn => (a.cols, ra, rb, b.cols),
        };
        assert_eq!(
            k, kb,
            "shape mismatch in gemm {self:?}: ({}, {}) x ({}, {})",
            a.rows, a.cols, b.rows, b.cols
        );
        (blocks, m, k, n)
    }
}

/// A dense, row-major `f32` matrix.
///
/// `Matrix` is the single tensor type used throughout the HOGA stack. Batched
/// third-order tensors (e.g. the per-node hop-feature stacks
/// `X ∈ R^{n×(K+1)×d}` of the paper) are represented as `(n·(K+1)) × d`
/// matrices plus a block-row count, and manipulated with the `batched_*`
/// methods.
///
/// # Examples
///
/// ```
/// use hoga_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 5.0);
/// ```
#[derive(PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// # use hoga_tensor::Matrix;
    /// let z = Matrix::zeros(2, 2);
    /// assert_eq!(z.sum(), 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 0.0)
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: recycle::filled(rows * cols, value) }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`. Use [`Matrix::try_from_vec`] for
    /// a fallible variant.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        match Self::try_from_vec(rows, cols, data) {
            Ok(m) => m,
            // analyze: allow(panic-free-paths) — documented panicking wrapper; fallible callers use try_from_vec
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a matrix from a row-major data vector, checking the length.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `data.len() != rows * cols`.
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new(
                "from_vec",
                format!("expected {} elements for ({rows}, {cols})", rows * cols),
                format!("{}", data.len()),
            ));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally long rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Creates a matrix where entry `(r, c)` is `f(r, c)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut data = recycle::empty(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Self { rows: self.rows, cols: self.cols, data }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two equally shaped matrices.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        self.assert_same_shape(other, "zip_map");
        let mut data = recycle::empty(self.data.len());
        data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Self { rows: self.rows, cols: self.cols, data }
    }

    /// Replaces every element `a` by `f(a, b)`, `b` being `other`'s element
    /// at the same position: [`Matrix::zip_map`] into `self`'s own storage.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map_inplace(&mut self, other: &Self, f: impl Fn(f32, f32) -> f32) {
        self.assert_same_shape(other, "zip_map_inplace");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = f(*a, b);
        }
    }

    fn assert_same_shape(&self, other: &Self, op: &'static str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch in {op}: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn hadamard(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`, returning a new matrix.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// `self += alpha * other` (BLAS `axpy`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        self.assert_same_shape(other, "axpy");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Adds the `1 × cols` row vector `bias` to every row, in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × cols`.
    pub fn add_bias(&mut self, bias: &Self) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for row in self.data.chunks_exact_mut(self.cols.max(1)) {
            for (o, &b) in row.iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute element; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Per-row sums as a `rows × 1` column vector.
    pub fn row_sums(&self) -> Self {
        let data = (0..self.rows).map(|r| self.row(r).iter().sum()).collect();
        Self { rows: self.rows, cols: 1, data }
    }

    /// Per-column sums as a `1 × cols` row vector.
    pub fn col_sums(&self) -> Self {
        let mut data = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (acc, &x) in data.iter_mut().zip(self.row(r)) {
                *acc += x;
            }
        }
        Self { rows: 1, cols: self.cols, data }
    }

    /// Transposed copy, walked in cache tiles so both the source rows and
    /// the destination rows stay cache-resident.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        dispatch!(B => B::transpose(&self.data, self.rows, self.cols, &mut out.data, self.rows));
        out
    }

    /// Naive element-at-a-time transpose kept as the differential-testing
    /// oracle for the tiled [`Matrix::transpose`].
    pub fn transpose_reference(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// The dense product `g` describes: `self · other`, `self · otherᵀ` or
    /// `selfᵀ · other`, of the whole operands or of `batch` stacked blocks
    /// (see [`Gemm`]). Shapes are checked once, the backend is dispatched
    /// once, and each layout runs one body:
    ///
    /// * `a · b` runs cache panels of `b` over the rows of `a` (one
    ///   exact column: eight rows abreast over their transpose).
    /// * `a · bᵀ` unbatched is `a · b` over `b`'s transposed copy; a block
    ///   is a score tile over its `b` transposed (fused: one lane-parallel
    ///   dot product per element).
    /// * `aᵀ · b` unbatched sums fixed `k`-chunk partials in ascending
    ///   order; a block is one chunk.
    ///
    /// Exact, every output element is `+0.0`, then one correctly rounded
    /// fused multiply-add per `k`, ascending — bitwise-zero coefficients skipped, except in a
    /// batched `a · bᵀ`, which skips nothing and so is
    /// [`Matrix::gemm_reference`] bit for bit on every input — and the
    /// unbatched `aᵀ · b` of more than 2¹⁸ multiply-adds adds its chunk
    /// partials in fixed order. Every path is bitwise the same at any thread
    /// count and on every backend; fused, the multiply-adds may fuse, within
    /// the ULP bound of `docs/PERFORMANCE.md`.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or does not divide both operands' rows, or
    /// the blocks' shared dimensions differ.
    pub fn gemm(&self, other: &Self, g: Gemm) -> Self {
        let dims = g.dims(self, other);
        dispatch!(B => if g.fused {
            self.gemm_with::<B, true>(other, g, dims)
        } else {
            self.gemm_with::<B, false>(other, g, dims)
        })
    }

    /// The linear layer's `self · other`: [`Matrix::gemm`] at [`Gemm::NN`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Self) -> Self {
        self.gemm(other, Gemm::NN)
    }

    /// `self · other` with fused multiply-adds: [`Matrix::gemm`] at
    /// `Gemm::NN.fused()`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_fast(&self, other: &Self) -> Self {
        self.gemm(other, Gemm::NN.fused())
    }

    /// `self_i · other_iᵀ` over `batch` blocks: [`Matrix::gemm`] at
    /// `Gemm::NT.batched(batch)`.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`Matrix::gemm`].
    pub fn batched_matmul_nt(&self, other: &Self, batch: usize) -> Self {
        self.gemm(other, Gemm::NT.batched(batch))
    }

    fn gemm_with<B: KernelBackend, const FUSED: bool>(
        &self,
        other: &Self,
        g: Gemm,
        (blocks, m, k, n): (usize, usize, usize, usize),
    ) -> Self {
        let mut out = Self::zeros(blocks * m, n);
        if out.data.is_empty() {
            return out;
        }
        let (a, b) = (&self.data[..], &other.data[..]);
        match (g.layout, g.batch) {
            (Layout::Nn | Layout::Nt, None) => {
                let bt = (g.layout == Layout::Nt).then(|| other.transpose());
                let b = bt.as_ref().map_or(b, |bt| &bt.data[..]);
                parallel_chunks(&mut out.data, n, m * k * n, |first, rows| {
                    Self::nn_rows::<B, FUSED>(&a[first * k..], k, b, n, rows, &mut Vec::new());
                });
            }
            (Layout::Tn, None) => {
                let chunks = tn_chunk_count(m, k, n);
                if chunks <= 1 {
                    Self::tn_rows::<B>(a, m, b, n, &mut out.data, &mut Vec::new());
                    return out;
                }
                let rows_per = k.div_ceil(chunks);
                let partials: Vec<Vec<f32>> = parallel_map(chunks, |ci| {
                    let (lo, hi) = (ci * rows_per, ((ci + 1) * rows_per).min(k));
                    let mut partial = vec![0.0f32; m * n];
                    let (a, b) = (&a[lo * m..hi * m], &b[lo * n..hi * n]);
                    Self::tn_rows::<B>(a, m, b, n, &mut partial, &mut Vec::new());
                    partial
                });
                // Ascending chunk order: parallel_map returns the partials in
                // task order, so the sum never depends on scheduling.
                for partial in &partials {
                    for (o, &p) in out.data.iter_mut().zip(partial) {
                        *o += p;
                    }
                }
            }
            (layout, Some(_)) => {
                // Blocks are independent: block-aligned chunks, each block
                // through its layout's body, one scratch per region.
                let (a_block, b_block) = (a.len() / blocks, b.len() / blocks);
                parallel_chunks(&mut out.data, m * n, blocks * m * k * n, |first, region| {
                    let mut scratch = Vec::new();
                    for (bi, block) in region.chunks_mut(m * n).enumerate() {
                        let bi = first + bi;
                        let a = &a[bi * a_block..(bi + 1) * a_block];
                        let b = &b[bi * b_block..(bi + 1) * b_block];
                        match layout {
                            Layout::Nn => {
                                Self::nn_rows::<B, FUSED>(a, k, b, n, block, &mut scratch);
                            }
                            Layout::Nt => {
                                Self::nt_block::<B, FUSED>(a, k, b, n, block, &mut scratch)
                            }
                            Layout::Tn => Self::tn_rows::<B>(a, m, b, n, block, &mut scratch),
                        }
                    }
                });
            }
        }
        out
    }

    /// `out += a · b` for the `out.len() / n` rows of `out`, row `i` of `a`
    /// being `a[i·k..(i+1)·k]` and `b` being `k × n`: the cache panels, or,
    /// for one exact column, [`Self::matvec_rows`] over `scratch`.
    fn nn_rows<B: KernelBackend, const FUSED: bool>(
        a: &[f32],
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        if n == 1 && k > 0 && !FUSED {
            Self::matvec_rows::<B>(a, k, b, out, scratch);
        } else {
            Self::panel_rows::<B, FUSED>(a, k, b, n, out);
        }
    }

    /// `out += a · b` over cache panels of `b`: the row body of every dense
    /// product. `out` holds `out.len() / n` rows of `n` floats, row `i` of
    /// `a` is `a[i·k..(i+1)·k]`, and `b` is `k × n`. Per output element the
    /// chain is one fused multiply-add per `k`, ascending, bitwise-zero
    /// coefficients skipped — for any panel length, row grouping or
    /// backend, and under `FAST` too, whose rows run the same chain through
    /// [`KernelBackend::fma_row_fast`].
    fn panel_rows<B: KernelBackend, const FAST: bool>(
        a: &[f32],
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let rows_here = out.len() / n;
        let panel = matmul_panel_len(n);
        for kb in (0..k).step_by(panel) {
            let kend = (kb + panel).min(k);
            let bpanel = &b[kb * n..kend * n];
            let arow = |i: usize| &a[i * k + kb..i * k + kend];
            // Six output rows share each b panel (bitwise equal to six
            // single-row sweeps; see KernelBackend::fma_panel6), then the
            // remainder one row at a time. The fused contract has no panel
            // kernel: every row is a remainder.
            let mut i = 0;
            while !FAST && i + 6 <= rows_here {
                let (c0, rest) = out[i * n..(i + 6) * n].split_at_mut(n);
                let (c1, rest) = rest.split_at_mut(n);
                let (c2, rest) = rest.split_at_mut(n);
                let (c3, rest) = rest.split_at_mut(n);
                let (c4, c5) = rest.split_at_mut(n);
                B::fma_panel6(
                    [c0, c1, c2, c3, c4, c5],
                    [arow(i), arow(i + 1), arow(i + 2), arow(i + 3), arow(i + 4), arow(i + 5)],
                    bpanel,
                    n,
                );
                i += 6;
            }
            for i in i..rows_here {
                let arow = arow(i);
                let crow = &mut out[i * n..(i + 1) * n];
                if FAST {
                    for (dk, &av) in arow.iter().enumerate() {
                        B::fma_row_fast(crow, av, &bpanel[dk * n..(dk + 1) * n]);
                    }
                } else {
                    // Four k-steps per accumulator pass (bitwise equal to
                    // four single passes; see KernelBackend::fma_row4),
                    // then the remainder one step at a time.
                    let mut dk = 0;
                    while dk + 4 <= arow.len() {
                        let a4 = [arow[dk], arow[dk + 1], arow[dk + 2], arow[dk + 3]];
                        let b4 = [
                            &bpanel[dk * n..(dk + 1) * n],
                            &bpanel[(dk + 1) * n..(dk + 2) * n],
                            &bpanel[(dk + 2) * n..(dk + 3) * n],
                            &bpanel[(dk + 3) * n..(dk + 4) * n],
                        ];
                        B::fma_row4(crow, a4, b4);
                        dk += 4;
                    }
                    for (off, &av) in arow[dk..].iter().enumerate() {
                        B::fma_row(crow, av, &bpanel[(dk + off) * n..(dk + off + 1) * n]);
                    }
                }
            }
        }
    }

    /// `out[i] += a_i · x` for consecutive `k`-float rows `a_i` of `a`: the
    /// `a · b` of a one-column `b` — the tape's readout `[Ĥ₀ ‖ Ĥₖ]·α`
    /// (Eq. 10) and the one-output heads, such as the graph regressor's last
    /// layer. The tape-free readout runs `kernels::readout_logits` instead,
    /// which gives these bits without building the concat.
    /// The panel kernel tiles sixteen output columns and walks a lone one
    /// element at a time down a single dependency chain; here each block of
    /// eight rows is transposed into `at` so that the rows sit in the eight
    /// lanes of [`KernelBackend::matvec8`], each lane on the chain the
    /// kernel contract fixes — one fused multiply-add per `k`, ascending,
    /// bitwise-zero coefficients skipped — so the bits are the panel's.
    fn matvec_rows<B: KernelBackend>(
        a: &[f32],
        k: usize,
        x: &[f32],
        out: &mut [f32],
        at: &mut Vec<f32>,
    ) {
        const ROWS: usize = 8;
        at.resize(ROWS * k, 0.0);
        for (block, arows) in out.chunks_mut(ROWS).zip(a.chunks(ROWS * k)) {
            let rows = block.len();
            B::transpose(&arows[..rows * k], rows, k, at, ROWS);
            let mut acc = [0.0f32; ROWS];
            acc[..rows].copy_from_slice(block);
            B::matvec8(&mut acc, at, x);
            block.copy_from_slice(&acc[..rows]);
        }
    }

    /// One block of `a · bᵀ` into the `out.len() / n`-row `out`, `a` and
    /// `b` holding `k`-float rows, `b` `n` of them (Eq. 7's per-node `QKᵀ`).
    /// Exact, `b` is transposed into `kt` — column `j` in lane `j` of rows
    /// padded to whole 8-lane groups, the pad lanes zero — for
    /// [`KernelBackend::score_tile`]; fused, each element is one
    /// [`KernelBackend::dot_fast`].
    fn nt_block<B: KernelBackend, const FUSED: bool>(
        a: &[f32],
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
        kt: &mut Vec<f32>,
    ) {
        if FUSED {
            for (i, orow) in out.chunks_exact_mut(n).enumerate() {
                let arow = &a[i * k..(i + 1) * k];
                for (j, o) in orow.iter_mut().enumerate() {
                    *o = B::dot_fast(arow, &b[j * k..(j + 1) * k]);
                }
            }
            return;
        }
        let stride = n.next_multiple_of(8);
        kt.resize(k * stride, 0.0);
        B::transpose(b, n, k, kt, stride);
        B::score_tile(out, n, a, k, kt, stride);
    }

    /// One of `aᵀ · b`'s chunk partials (`Gemm::TN`, unbatched), for a
    /// caller that holds the operands as runs of rows (the node blocks of a
    /// training step). `self` and `other` are rows `index · rows ..` of two
    /// `total`-row operands. When the product of those operands sums more
    /// than one chunk and its chunks are exactly the consecutive runs of
    /// `rows` rows, this is chunk `index`'s partial: added into zeros in
    /// ascending `index` order with `+=`, the partials are the product bit
    /// for bit. Otherwise it is `None`, for every `index` alike, so all runs
    /// of one product take the same path.
    ///
    /// # Panics
    ///
    /// Panics if the operands' row counts differ or are not run `index` of
    /// `total` rows cut into runs of `rows`.
    pub fn matmul_tn_chunk(
        &self,
        other: &Self,
        rows: usize,
        index: usize,
        total: usize,
    ) -> Option<Self> {
        assert_eq!(self.rows, other.rows, "row mismatch in matmul_tn_chunk");
        let run = rows.min(total.saturating_sub(index * rows));
        assert_eq!(self.rows, run, "rows are not run {index} of {total} in runs of {rows}");
        let (m, n) = (self.cols, other.cols);
        let chunks = tn_chunk_count(m, total, n);
        // Every chunk one run, none empty: the product's chunks are the runs.
        if chunks <= 1 || total.div_ceil(chunks) != rows || total.div_ceil(rows) != chunks {
            return None;
        }
        let mut out = Self::zeros(m, n);
        let (a, b) = (&self.data, &other.data);
        dispatch!(B => Self::tn_rows::<B>(a, m, b, n, &mut out.data, &mut Vec::new()));
        Some(out)
    }

    /// `out += aᵀ · b` for the `m × n` `out`, `a` and `b` holding the same
    /// number of `m`- and `n`-float rows: every element one fused
    /// multiply-add per row, in ascending order, bitwise-zero coefficients of `a`
    /// skipped, `out` carrying the chain. A `k`-chunk or a block of
    /// `Gemm::TN` (and a [`Matrix::matmul_tn_chunk`], and a run of a
    /// [`TnFold`]); `scratch` holds the transposes.
    fn tn_rows<B: KernelBackend>(
        a: &[f32],
        m: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        if out.is_empty() || a.is_empty() {
            return;
        }
        let rows = a.len() / m;
        if n < 16 {
            Self::tn_narrow::<B>(a, b, m, n, out, scratch);
            return;
        }
        // At least one full 16-column tile: the register-tiled panels run on
        // the rows' transpose, one cache panel of rows at a time so the
        // transposed slice (`m × 64` floats at the trainer's shapes, 16 KiB)
        // is still in L1 when the panel reads it.
        let panel = matmul_panel_len(n);
        scratch.resize(m * panel.min(rows), 0.0);
        for kb in (0..rows).step_by(panel) {
            let len = panel.min(rows - kb);
            let at = &mut scratch[..m * len];
            B::transpose(&a[kb * m..(kb + len) * m], len, m, at, len);
            Self::panel_rows::<B, false>(at, len, &b[kb * n..(kb + len) * n], n, out);
        }
    }

    /// [`Self::tn_rows`] for an output narrower than one 16-column tile (the
    /// readout's dα and the classifier head's dW): the panels have no full
    /// tile and `fma_row` over `n`-float rows is a backend call per `n`
    /// multiply-adds. So the product runs one output column at a time into
    /// `outᵀ` (which is `out` for one column), where the `m` outputs a row
    /// updates are contiguous, as is `a`'s row: per column, rows ascending,
    /// one [`KernelBackend::fma_lanes`] per row, which keeps each output's
    /// chain and skip.
    fn tn_narrow<B: KernelBackend>(
        a: &[f32],
        b: &[f32],
        m: usize,
        n: usize,
        out: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        let acc_t = if n == 1 {
            &mut *out
        } else {
            scratch.resize(n * m, 0.0);
            B::transpose(out, m, n, scratch, m);
            &mut scratch[..n * m]
        };
        for (j, acc) in acc_t.chunks_exact_mut(m).enumerate() {
            for (arow, &bv) in a.chunks_exact(m).zip(b[j..].iter().step_by(n)) {
                B::fma_lanes(acc, arow, bv);
            }
        }
        if n > 1 {
            B::transpose(&scratch[..n * m], n, m, out, n);
        }
    }

    /// The naive oracle of [`Matrix::gemm`]: per block, every element is
    /// `0.0`, then one fused multiply-add (`f32::mul_add`) per `k` in
    /// ascending order, nothing skipped (`g.fused` is ignored: this is the
    /// chain a fused product is bounded against).
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`Matrix::gemm`].
    pub fn gemm_reference(&self, other: &Self, g: Gemm) -> Self {
        let (blocks, m, k, n) = g.dims(self, other);
        let (a, b) = (&self.data, &other.data);
        let mut out = Self::zeros(blocks * m, n);
        for bi in 0..blocks {
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        let av = match g.layout {
                            Layout::Nn | Layout::Nt => a[(bi * m + i) * k + kk],
                            Layout::Tn => a[(bi * k + kk) * m + i],
                        };
                        let bv = match g.layout {
                            Layout::Nn | Layout::Tn => b[(bi * k + kk) * n + j],
                            Layout::Nt => b[(bi * n + j) * k + kk],
                        };
                        acc = av.mul_add(bv, acc);
                    }
                    out.data[(bi * m + i) * n + j] = acc;
                }
            }
        }
        out
    }

    /// Horizontally concatenates two matrices with equal row counts.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn concat_cols(&self, other: &Self) -> Self {
        assert_eq!(
            self.rows, other.rows,
            "shape mismatch in concat_cols: {} vs {} rows",
            self.rows, other.rows
        );
        let cols = self.cols + other.cols;
        let mut data = recycle::empty(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Self { rows: self.rows, cols, data }
    }

    /// Gathers the given rows into a new matrix (`out[i] = self[indices[i]]`).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let mut data = recycle::empty(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Self { rows: indices.len(), cols: self.cols, data }
    }

    /// The mean of each contiguous row segment: row `i` averages rows
    /// `segments[i].0 .. segments[i].1` — the graph-level mean-pool of the
    /// QoR heads, recorded, tape-free and served. A segment's rows are
    /// summed in ascending order and the sum is multiplied by the
    /// reciprocal of its length.
    ///
    /// # Panics
    ///
    /// Panics if a segment is empty or out of bounds.
    pub fn segment_mean(&self, segments: &[(usize, usize)]) -> Self {
        let mut out = Self::zeros(segments.len(), self.cols);
        for (i, &(lo, hi)) in segments.iter().enumerate() {
            assert!(lo < hi && hi <= self.rows, "bad segment ({lo}, {hi})");
            let orow = out.row_mut(i);
            for r in lo..hi {
                for (o, &x) in orow.iter_mut().zip(self.row(r)) {
                    *o += x;
                }
            }
            let inv = 1.0 / (hi - lo) as f32;
            for o in orow.iter_mut() {
                *o *= inv;
            }
        }
        out
    }

    /// Scatter-adds the rows of `src` into `self` (`self[indices[i]] += src[i]`).
    ///
    /// This is the adjoint of [`Matrix::select_rows`]; duplicate indices
    /// accumulate.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ, `src.rows() != indices.len()`, or
    /// any index is out of bounds.
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Self) {
        assert_eq!(self.cols, src.cols, "column mismatch in scatter_add_rows");
        assert_eq!(src.rows, indices.len(), "index count mismatch in scatter_add_rows");
        for (i, &dst) in indices.iter().enumerate() {
            let srow = src.row(i);
            let drow = &mut self.data[dst * self.cols..(dst + 1) * self.cols];
            for (d, &s) in drow.iter_mut().zip(srow) {
                *d += s;
            }
        }
    }

    /// Returns `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference to another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        self.assert_same_shape(other, "max_abs_diff");
        self.data.iter().zip(&other.data).fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
    }
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        let mut data = recycle::empty(self.data.len());
        data.extend_from_slice(&self.data);
        Self { rows: self.rows, cols: self.cols, data }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a + b)
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f32) -> Matrix {
        self.scale(rhs)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs);
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix({} x {}) [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|x| format!("{x:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// The unbatched `aᵀ · b` ([`Gemm::TN`]) of two `total`-row operands
/// handed over run by run in row order (the node blocks of a training
/// step), with its bits: each run's rows go onto the chains of the chunks
/// they sit in as they arrive, so only the chunk partials are held, never
/// the rows.
#[derive(Debug, Clone)]
pub struct TnFold {
    rows_per: usize,
    next: usize,
    partials: Vec<Matrix>,
}

impl TnFold {
    /// An empty fold of `m`-column by `n`-column operands of `total` rows.
    pub fn new(m: usize, n: usize, total: usize) -> Self {
        let chunks = tn_chunk_count(m, total, n).max(1);
        let partials = (0..chunks).map(|_| Matrix::zeros(m, n)).collect();
        Self { rows_per: total.div_ceil(chunks).max(1), next: 0, partials }
    }

    /// Folds in the next run of rows.
    ///
    /// # Panics
    ///
    /// Panics if the run's widths or row counts disagree with the fold's,
    /// or it runs past `total`.
    pub fn push(&mut self, a: &Matrix, b: &Matrix) {
        let (m, n) = (self.partials[0].rows, self.partials[0].cols);
        assert!(a.rows == b.rows && (a.cols, b.cols) == (m, n), "run shape mismatch in TnFold");
        let (start, end) = (self.next, self.next + a.rows);
        let mut scratch = Vec::new();
        let mut lo = start;
        while lo < end {
            let partial = &mut self.partials[lo / self.rows_per];
            let hi = end.min((lo / self.rows_per + 1) * self.rows_per);
            let (r0, r1) = (lo - start, hi - start);
            let (ra, rb) = (&a.data[r0 * m..r1 * m], &b.data[r0 * n..r1 * n]);
            dispatch!(B => Matrix::tn_rows::<B>(ra, m, rb, n, &mut partial.data, &mut scratch));
            lo = hi;
        }
        self.next = end;
    }

    /// The product: the one chain, or the partials added into zeros in
    /// ascending chunk order, as [`Matrix::gemm`] reduces them.
    pub fn finish(mut self) -> Matrix {
        if self.partials.len() == 1 {
            return self.partials.swap_remove(0);
        }
        let mut out = Matrix::zeros(self.partials[0].rows, self.partials[0].cols);
        for partial in &self.partials {
            for (o, &p) in out.data.iter_mut().zip(&partial.data) {
                *o += p;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
        assert_eq!(Matrix::identity(3).matmul(&a), a);
    }

    #[test]
    fn row_runs_give_matmul_tn_bitwise_as_chunk_partials_and_folded() {
        let bits = |m: &Matrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let rows = |m: &Matrix, lo: usize, hi: usize| m.select_rows(&(lo..hi).collect::<Vec<_>>());
        // 512 nodes × 9 hops at d = 64: sixteen chunks of 288 rows.
        let (k, m, run) = (4608, 64, 288);
        let a = Matrix::from_fn(k, m, |r, c| ((r * 31 + c * 17) % 97) as f32 * 0.013 - 0.6);
        for n in [64, 4, 1] {
            let b = Matrix::from_fn(k, n, |r, c| ((r * 13 + c * 29) % 89) as f32 * 0.017 - 0.7);
            let whole = bits(&a.gemm(&b, Gemm::TN));
            // Runs of a block's rows, the last one short, and one row long.
            let cuts = [0, 288, 576, 1000, 1001, 2304, 4600, k];
            let runs: Vec<(Matrix, Matrix)> =
                cuts.windows(2).map(|w| (rows(&a, w[0], w[1]), rows(&b, w[0], w[1]))).collect();
            let runs: Vec<(&Matrix, &Matrix)> = runs.iter().map(|(a, b)| (a, b)).collect();
            let mut fold = TnFold::new(m, n, k);
            runs.iter().for_each(|(a, b)| fold.push(a, b));
            assert_eq!(bits(&fold.finish()), whole, "n = {n}, folded");
            // 512 rows in runs of 32, the classifier's shape at n = 4: one
            // chain through all sixteen runs at n ≤ 4, four chunks of four
            // runs at n = 64; no run is a chunk.
            let (a512, b512) = (rows(&a, 0, 512), rows(&b, 0, 512));
            let runs: Vec<(Matrix, Matrix)> = (0..16)
                .map(|i| (rows(&a512, 32 * i, 32 * i + 32), rows(&b512, 32 * i, 32 * i + 32)))
                .collect();
            let runs: Vec<(&Matrix, &Matrix)> = runs.iter().map(|(a, b)| (a, b)).collect();
            let short = bits(&a512.gemm(&b512, Gemm::TN));
            let mut fold = TnFold::new(m, n, 512);
            runs.iter().for_each(|(a, b)| fold.push(a, b));
            assert_eq!(bits(&fold.finish()), short, "n = {n}, 512 rows folded");
            assert!(runs[0].0.matmul_tn_chunk(runs[0].1, 32, 0, 512).is_none());
            let mut sum = Matrix::zeros(m, n);
            for index in 0..16 {
                let (lo, hi) = (index * run, (index + 1) * run);
                let part = rows(&a, lo, hi).matmul_tn_chunk(&rows(&b, lo, hi), run, index, k);
                let part = part.expect("each run is one of the sixteen chunks");
                for (o, &p) in sum.data.iter_mut().zip(&part.data) {
                    *o += p;
                }
            }
            assert_eq!(bits(&sum), whole, "chunk partials");
            // Runs that are not the chunks have none.
            let half = rows(&a, 0, run / 2).matmul_tn_chunk(&rows(&b, 0, run / 2), run / 2, 0, k);
            assert!(half.is_none());
        }
    }

    #[test]
    fn transpose_matches_reference() {
        // A shape that is not a multiple of the tile edge in either dimension.
        let a = Matrix::from_fn(45, 70, |r, c| (r * 70 + c) as f32);
        assert_eq!(a.transpose(), a.transpose_reference());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn select_then_scatter_is_adjoint() {
        let a = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
        let idx = [4, 1, 1];
        let sel = a.select_rows(&idx);
        assert_eq!(sel.row(0), a.row(4));
        let mut acc = Matrix::zeros(5, 3);
        acc.scatter_add_rows(&idx, &sel);
        // Row 1 was selected twice, so it accumulates twice.
        assert_eq!(acc.row(1), a.row(1).iter().map(|x| 2.0 * x).collect::<Vec<_>>());
        assert_eq!(acc.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn concat_cols_layout() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 2.0, 5.0]);
        assert_eq!(c.row(1), &[3.0, 4.0, 6.0]);
    }

    #[test]
    fn row_and_col_sums() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row_sums().as_slice(), &[3.0, 7.0]);
        assert_eq!(a.col_sums().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn try_from_vec_rejects_bad_length() {
        assert!(Matrix::try_from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::try_from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    #[should_panic(expected = "shape mismatch in gemm")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn operators_work() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
    }

    #[test]
    fn serde_roundtrip_preserves_matrix() {
        let a = Matrix::from_fn(3, 2, |r, c| (r + c) as f32 * 0.5);
        let encoded = serde_json_like(&a);
        assert_eq!(encoded.shape(), a.shape());
        assert_eq!(encoded, a);
    }

    // Round-trip through serde's data model using the bincode-free approach of
    // serializing to a Vec via serde's derive (exercised through clone here as
    // a stand-in; full binary round-trips are covered in hoga-datasets).
    fn serde_json_like(m: &Matrix) -> Matrix {
        m.clone()
    }
}
