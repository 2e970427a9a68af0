//! Compressed sparse row (CSR) matrices and sparse–dense products.
//!
//! The hop-wise feature generation of HOGA (Eq. 3, `X^(k) = Â X^(k-1)`) and
//! the message-passing baselines (GCN/GraphSAGE) are all built on one kernel:
//! multiplying a sparse adjacency matrix by a dense feature matrix
//! ([`CsrMatrix::spmm`]). Row parallelism makes this the fastest part of the
//! pipeline, matching the paper's observation that feature generation is
//! negligible next to training.
//!
//! Two constructors: [`CsrMatrix::from_coo`] is the general one (any triplet
//! order, duplicates summed); [`CsrMatrix::from_csr`] takes rows a caller has
//! already laid out — the circuit adjacency builders count, prefix-sum and
//! scatter straight from the gate list — and checks them instead of sorting.

use crate::parallel::{kernel_threads, parallel_chunks, parallel_map};
use crate::Matrix;
use serde::{Deserialize, Serialize};

/// Triplet count above which [`CsrMatrix::from_coo`] parallelizes its
/// counting and per-row merge phases.
const PARALLEL_NNZ: usize = 1 << 14;

/// Output columns [`CsrMatrix::spmm`] sums in one register tile: the width of
/// the narrow group left over after the whole groups of this many columns.
const LANES: usize = 8;

/// Column indices are stored as `u32`; a wider matrix would have them wrap.
fn assert_cols_fit(cols: usize) {
    assert!(
        u32::try_from(cols).is_ok(),
        "CsrMatrix stores u32 column indices: {cols} columns exceed u32::MAX"
    );
}

/// Sorts one row's `(col, value)` entries by column and merges duplicate
/// columns in place, summing their values.
///
/// Self-contained by construction: the merge only ever inspects this row's
/// own entries, never state accumulated from previous rows, so rows can be
/// merged independently and in parallel.
fn merge_row(row: &mut Vec<(u32, f32)>) {
    row.sort_unstable_by_key(|&(c, _)| c);
    let mut write = 0usize;
    for read in 0..row.len() {
        if write > 0 && row[write - 1].0 == row[read].0 {
            row[write - 1].1 += row[read].1;
        } else {
            row[write] = row[read];
            write += 1;
        }
    }
    row.truncate(write);
}

/// A sparse `f32` matrix in compressed-sparse-row format.
///
/// # Examples
///
/// ```
/// use hoga_tensor::{CsrMatrix, Matrix};
///
/// // 2x2 matrix [[0, 1], [2, 0]] from COO triplets.
/// let a = CsrMatrix::from_coo(2, 2, &[(0, 1, 1.0), (1, 0, 2.0)]);
/// let x = Matrix::from_rows(&[&[10.0], &[20.0]]);
/// let y = a.spmm(&x);
/// assert_eq!(y.as_slice(), &[20.0, 20.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from COO `(row, col, value)` triplets.
    ///
    /// Duplicate coordinates are summed. Triplet order does not matter.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds, or if `cols > u32::MAX`.
    pub fn from_coo(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        assert_cols_fit(cols);
        let parallel = triplets.len() >= PARALLEL_NNZ;
        // Phase 1: bounds-check and count entries per row. Sharded over the
        // triplet list for large inputs; per-shard counts merge by integer
        // addition, which is order-independent, so the shard count can never
        // change the result.
        let count_shards = if parallel { kernel_threads().min(triplets.len().max(1)) } else { 1 };
        let mut counts = vec![0usize; rows + 1];
        if count_shards > 1 {
            let per = triplets.len().div_ceil(count_shards);
            let shard_counts = parallel_map(count_shards, |si| {
                let lo = (si * per).min(triplets.len());
                let hi = ((si + 1) * per).min(triplets.len());
                let mut c = vec![0usize; rows + 1];
                for &(r, col, _) in &triplets[lo..hi] {
                    assert!(
                        r < rows && col < cols,
                        "triplet ({r}, {col}) out of bounds for ({rows}, {cols})"
                    );
                    c[r + 1] += 1;
                }
                c
            });
            for shard in &shard_counts {
                for (acc, &v) in counts.iter_mut().zip(shard) {
                    *acc += v;
                }
            }
        } else {
            for &(r, c, _) in triplets {
                assert!(
                    r < rows && c < cols,
                    "triplet ({r}, {c}) out of bounds for ({rows}, {cols})"
                );
                counts[r + 1] += 1;
            }
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let indptr_raw = counts;
        // Phase 2: scatter triplets into their row segments, preserving input
        // order within each row.
        let mut indices = vec![0u32; triplets.len()];
        let mut values = vec![0.0f32; triplets.len()];
        let mut cursor = indptr_raw.clone();
        for &(r, c, v) in triplets {
            let pos = cursor[r];
            indices[pos] = c as u32;
            values[pos] = v;
            cursor[r] += 1;
        }
        // Phase 3: sort each row by column and merge duplicates. merge_row is
        // self-contained per row, so contiguous row ranges merge in parallel;
        // shard outputs are concatenated in ascending-row order, making the
        // result independent of the shard count.
        let merge_shards = if parallel && rows > 1 { kernel_threads().min(rows) } else { 1 };
        let rows_per = rows.div_ceil(merge_shards).max(1);
        let shards: Vec<(Vec<usize>, Vec<u32>, Vec<f32>)> = parallel_map(merge_shards, |si| {
            let r_lo = (si * rows_per).min(rows);
            let r_hi = ((si + 1) * rows_per).min(rows);
            let mut lens = Vec::with_capacity(r_hi - r_lo);
            let mut idx = Vec::new();
            let mut vals = Vec::new();
            let mut scratch: Vec<(u32, f32)> = Vec::new();
            for r in r_lo..r_hi {
                let (lo, hi) = (indptr_raw[r], indptr_raw[r + 1]);
                scratch.clear();
                scratch.extend(indices[lo..hi].iter().copied().zip(values[lo..hi].iter().copied()));
                merge_row(&mut scratch);
                lens.push(scratch.len());
                for &(c, v) in &scratch {
                    idx.push(c);
                    vals.push(v);
                }
            }
            (lens, idx, vals)
        });
        let mut out_indptr = Vec::with_capacity(rows + 1);
        out_indptr.push(0);
        let mut out_indices = Vec::with_capacity(indices.len());
        let mut out_values = Vec::with_capacity(values.len());
        let mut total = 0usize;
        for (lens, idx, vals) in shards {
            for len in lens {
                total += len;
                out_indptr.push(total);
            }
            out_indices.extend(idx);
            out_values.extend(vals);
        }
        Self { rows, cols, indptr: out_indptr, indices: out_indices, values: out_values }
    }

    /// Builds a CSR matrix from rows the caller has already laid out: row `r`
    /// holds `indices[indptr[r]..indptr[r + 1]]` with the matching `values`.
    /// Nothing is sorted or merged; everything the kernels rely on is checked.
    ///
    /// # Panics
    ///
    /// Panics if `cols > u32::MAX`; if `indptr` does not have `rows + 1`
    /// entries rising monotonically from `0` to `indices.len()`; if
    /// `indices.len() != values.len()`; or if a row's columns are not
    /// strictly ascending and below `cols`.
    pub fn from_csr(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_cols_fit(cols);
        assert_eq!(indptr.len(), rows + 1, "indptr needs one entry per row and one more");
        assert_eq!(indices.len(), values.len(), "one value per column index");
        assert_eq!(indptr[0], 0, "indptr must start at 0");
        assert_eq!(indptr[rows], indices.len(), "indptr must end at the entry count");
        for (r, w) in indptr.windows(2).enumerate() {
            assert!(w[0] <= w[1], "indptr falls at row {r}");
            // indptr rises to its last entry, so `w[1]` is within `indices`.
            let row = &indices[w[0]..w[1]];
            assert!(row.windows(2).all(|c| c[0] < c[1]), "row {r}: columns not strictly ascending");
            assert!(
                row.last().is_none_or(|&c| (c as usize) < cols),
                "row {r}: column out of bounds for ({rows}, {cols})"
            );
        }
        Self { rows, cols, indptr, indices, values }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structural) nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over the `(column, value)` entries of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        // analyze: allow(panic-reachability) — documented contract: r < rows, and indptr has rows+1 entries
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        self.indices[lo..hi].iter().zip(&self.values[lo..hi]).map(|(&c, &v)| (c as usize, v))
    }

    /// Sparse × dense product `self · x`, parallelized over output rows when
    /// its `nnz · d` multiply-adds exceed the crate's grain bound.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != x.rows()`.
    pub fn spmm(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            x.rows(),
            "shape mismatch in spmm: ({}, {}) x ({}, {})",
            self.rows,
            self.cols,
            x.rows(),
            x.cols()
        );
        let d = x.cols();
        let mut out = Matrix::zeros(self.rows, d);
        if d == 0 || self.rows == 0 {
            return out;
        }
        let xs = x.as_slice();
        parallel_chunks(out.as_mut_slice(), d, self.nnz() * d, |start_row, chunk| {
            self.spmm_rows(xs, d, start_row, chunk)
        });
        out
    }

    /// Rows `start_row..` of `self · x` into `chunk`, which arrives zeroed;
    /// `xs` is `x` row-major, `d` columns wide.
    ///
    /// Whole groups of [`LANES`] columns go through the axpy loop. The narrow
    /// group left over (all of a 7-wide row) would be that loop's scalar
    /// remainder, so it is summed in a register tile and stored once per row.
    /// Either way each output element is `((0 + v₀x₀) + v₁x₁) + …` in stored
    /// entry order.
    fn spmm_rows(&self, xs: &[f32], d: usize, start_row: usize, chunk: &mut [f32]) {
        let (indptr, indices, values) = (&self.indptr[start_row..], &self.indices, &self.values);
        let full = d - d % LANES;
        let narrow_width = d - full;
        for (orow, entries) in chunk.chunks_mut(d).zip(indptr.windows(2)) {
            let (ohead, otail) = orow.split_at_mut(full);
            let mut tile = [0.0f32; LANES];
            let row = entries[0]..entries[1];
            for (&c, &v) in indices[row.clone()].iter().zip(&values[row]) {
                let at = c as usize * d;
                for (o, &xv) in ohead.iter_mut().zip(&xs[at..at + full]) {
                    *o += v * xv;
                }
                if narrow_width > 0 {
                    // A full group where the buffer has one (lanes past the
                    // row's end are never stored); at the buffer's end the
                    // exact width, padded, so the tile has one shape and
                    // stays in registers.
                    let narrow = &xs[at + full..];
                    let group = match narrow.first_chunk::<LANES>() {
                        Some(group) => *group,
                        None => {
                            let mut padded = [0.0f32; LANES];
                            padded[..narrow_width].copy_from_slice(&narrow[..narrow_width]);
                            padded
                        }
                    };
                    for (t, xv) in tile.iter_mut().zip(group) {
                        *t += v * xv;
                    }
                }
            }
            for (o, t) in otail.iter_mut().zip(tile) {
                *o = t;
            }
        }
    }

    /// Transposed copy (CSR of `selfᵀ`): a counting sort by column. Rows are
    /// visited in ascending order, so every output row comes out ascending.
    pub fn transpose(&self) -> Self {
        assert_cols_fit(self.rows);
        let mut indptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            indptr[c + 1] += indptr[c];
        }
        let mut cursor = indptr.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.rows {
            for pos in self.indptr[r]..self.indptr[r + 1] {
                let slot = &mut cursor[self.indices[pos] as usize];
                indices[*slot] = r as u32;
                values[*slot] = self.values[pos];
                *slot += 1;
            }
        }
        Self { rows: self.cols, cols: self.rows, indptr, indices, values }
    }

    /// Dense copy (for tests and small matrices).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                m[(r, c)] += v;
            }
        }
        m
    }

    /// Per-row count of structural nonzeros (out-degree for adjacency use).
    pub fn row_nnz(&self) -> Vec<usize> {
        self.indptr.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Scales row `r` entries by `s` for every row (`diag(s) · self`), in
    /// place.
    ///
    /// # Panics
    ///
    /// Panics if `scales.len() != self.rows()`.
    pub fn scale_rows(mut self, scales: &[f32]) -> Self {
        assert_eq!(scales.len(), self.rows, "scale length mismatch");
        for (w, &s) in self.indptr.windows(2).zip(scales) {
            for v in &mut self.values[w[0]..w[1]] {
                *v *= s;
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_coo(
            3,
            4,
            &[(0, 1, 2.0), (0, 3, 1.0), (1, 0, -1.0), (2, 2, 4.0), (2, 2, 1.0)],
        )
    }

    #[test]
    fn from_coo_merges_duplicates_and_sorts() {
        let a = sample();
        assert_eq!(a.nnz(), 4);
        let row2: Vec<_> = a.row_entries(2).collect();
        assert_eq!(row2, vec![(2, 5.0)]);
        let row0: Vec<_> = a.row_entries(0).collect();
        assert_eq!(row0, vec![(1, 2.0), (3, 1.0)]);
    }

    #[test]
    fn spmm_matches_dense() {
        let a = sample();
        let x = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 1.0);
        let sparse = a.spmm(&x);
        let dense = a.to_dense().matmul(&x);
        assert!(sparse.max_abs_diff(&dense) < 1e-6);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let a = sample();
        assert!(a.transpose().to_dense().max_abs_diff(&a.to_dense().transpose()) < 1e-6);
    }

    /// The route `transpose` used to take: every entry as a `(col, row,
    /// value)` triplet through `from_coo`.
    fn transpose_via_coo(a: &CsrMatrix) -> CsrMatrix {
        let mut triplets = Vec::with_capacity(a.nnz());
        for r in 0..a.rows() {
            triplets.extend(a.row_entries(r).map(|(c, v)| (c, r, v)));
        }
        CsrMatrix::from_coo(a.cols(), a.rows(), &triplets)
    }

    #[test]
    fn transpose_is_bit_equal_to_the_triplet_route() {
        let mut cases =
            vec![sample(), CsrMatrix::from_coo(0, 0, &[]), CsrMatrix::from_coo(3, 0, &[])];
        // Empty rows and columns, a dense row, and enough entries to thread.
        let mut state = 0x9E37_79B9u32;
        let mut next = |bound: usize| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as usize % bound
        };
        for (rows, cols, nnz) in [(1, 9, 9), (40, 7, 60), (300, 450, 20_000)] {
            let triplets: Vec<_> =
                (0..nnz).map(|_| (next(rows), next(cols), next(64) as f32 * 0.37 - 11.0)).collect();
            cases.push(CsrMatrix::from_coo(rows, cols, &triplets));
        }
        for a in &cases {
            let (t, old) = (a.transpose(), transpose_via_coo(a));
            assert_eq!((t.rows, t.cols), (a.cols, a.rows));
            assert_eq!(t.indptr, old.indptr);
            assert_eq!(t.indices, old.indices);
            let bits = |m: &CsrMatrix| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&t), bits(&old));
        }
    }

    #[test]
    fn scale_rows_scales_in_place() {
        let sr = sample().scale_rows(&[2.0, 3.0, 0.5]);
        assert_eq!(sr.row_entries(0).collect::<Vec<_>>(), vec![(1, 4.0), (3, 2.0)]);
        assert_eq!(sr.row_entries(1).collect::<Vec<_>>(), vec![(0, -3.0)]);
        assert_eq!(sr.row_entries(2).collect::<Vec<_>>(), vec![(2, 2.5)]);
    }

    #[test]
    #[should_panic(expected = "exceed u32::MAX")]
    fn more_columns_than_a_u32_index_can_name_are_refused() {
        CsrMatrix::from_coo(0, u32::MAX as usize + 1, &[]);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let a = CsrMatrix::from_coo(0, 0, &[]);
        assert_eq!(a.nnz(), 0);
        let y = a.spmm(&Matrix::zeros(0, 5));
        assert_eq!(y.shape(), (0, 5));
    }

    #[test]
    fn large_spmm_parallel_matches_dense() {
        let mut triplets = Vec::new();
        for r in 0..200 {
            for k in 0..5 {
                triplets.push((r, (r * 7 + k * 13) % 150, ((r + k) % 5) as f32 - 2.0));
            }
        }
        let a = CsrMatrix::from_coo(200, 150, &triplets);
        let x = Matrix::from_fn(150, 40, |r, c| ((r + c) % 9) as f32 * 0.25);
        assert!(a.spmm(&x).max_abs_diff(&a.to_dense().matmul(&x)) < 1e-4);
    }
}
