//! Compressed sparse row (CSR) matrices and sparse–dense products.
//!
//! The hop-wise feature generation of HOGA (Eq. 3, `X^(k) = Â X^(k-1)`) and
//! the message-passing baselines (GCN/GraphSAGE) are all built on one kernel:
//! multiplying a sparse adjacency matrix by a dense feature matrix
//! ([`CsrMatrix::spmm`]). Row parallelism makes this the fastest part of the
//! pipeline, matching the paper's observation that feature generation is
//! negligible next to training.

use crate::parallel::{kernel_threads, parallel_chunks, parallel_map};
use crate::Matrix;
use serde::{Deserialize, Serialize};

/// Triplet count above which [`CsrMatrix::from_coo`] parallelizes its
/// counting and per-row merge phases.
const PARALLEL_NNZ: usize = 1 << 14;

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
    /// Panics if any coordinate is out of bounds.
    pub fn from_coo(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
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
        let indptr = &self.indptr;
        let indices = &self.indices;
        let values = &self.values;
        let xs = x.as_slice();
        parallel_chunks(out.as_mut_slice(), d, self.nnz() * d, |start_row, chunk| {
            for (i, orow) in chunk.chunks_mut(d).enumerate() {
                let r = start_row + i;
                for pos in indptr[r]..indptr[r + 1] {
                    let c = indices[pos] as usize;
                    let v = values[pos];
                    let xrow = &xs[c * d..(c + 1) * d];
                    for (o, &xv) in orow.iter_mut().zip(xrow) {
                        *o += v * xv;
                    }
                }
            }
        });
        out
    }

    /// Sparse × dense vector product.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != x.len()`.
    // analyze: allow(dead-public-api) — sparse mat-vec product of the public CSR API; covered by tests
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(self.cols, x.len(), "shape mismatch in spmv");
        (0..self.rows).map(|r| self.row_entries(r).map(|(c, v)| v * x[c]).sum()).collect()
    }

    /// Transposed copy (CSR of `selfᵀ`).
    pub fn transpose(&self) -> Self {
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                triplets.push((c, r, v));
            }
        }
        Self::from_coo(self.cols, self.rows, &triplets)
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

    /// Scales row `r` entries by `s` for every row (`diag(s) · self`).
    ///
    /// # Panics
    ///
    /// Panics if `scales.len() != self.rows()`.
    pub fn scale_rows(&self, scales: &[f32]) -> Self {
        assert_eq!(scales.len(), self.rows, "scale length mismatch");
        let mut out = self.clone();
        for (r, &s) in scales.iter().enumerate() {
            for pos in self.indptr[r]..self.indptr[r + 1] {
                out.values[pos] *= s;
            }
        }
        out
    }

    /// Scales column `c` entries by `s` for every column (`self · diag(s)`).
    ///
    /// # Panics
    ///
    /// Panics if `scales.len() != self.cols()`.
    pub fn scale_cols(&self, scales: &[f32]) -> Self {
        assert_eq!(scales.len(), self.cols, "scale length mismatch");
        let mut out = self.clone();
        for (idx, v) in out.values.iter_mut().enumerate() {
            *v *= scales[out.indices[idx] as usize];
        }
        out
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
    fn spmv_matches_spmm() {
        let a = sample();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = a.spmv(&x);
        let ym = a.spmm(&Matrix::from_vec(4, 1, x));
        assert_eq!(y, ym.into_vec());
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let a = sample();
        assert!(a.transpose().to_dense().max_abs_diff(&a.to_dense().transpose()) < 1e-6);
    }

    #[test]
    fn scale_rows_cols() {
        let a = sample();
        let sr = a.scale_rows(&[2.0, 3.0, 0.5]);
        assert_eq!(sr.row_entries(0).collect::<Vec<_>>(), vec![(1, 4.0), (3, 2.0)]);
        let sc = a.scale_cols(&[10.0, 1.0, 1.0, 2.0]);
        assert_eq!(sc.row_entries(1).collect::<Vec<_>>(), vec![(0, -10.0)]);
        assert_eq!(sc.row_entries(0).collect::<Vec<_>>(), vec![(1, 2.0), (3, 2.0)]);
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
