//! Property-based tests of the tensor kernels: algebraic laws that must
//! hold for arbitrary shapes and values.

use hoga_check::cases;
use hoga_tensor::{softmax_rows, CsrMatrix, Gemm, Matrix};
use rand::Rng;

/// A matrix with bounded dimensions and tame values.
fn matrix(rng: &mut impl Rng, max_r: usize, max_c: usize) -> Matrix {
    let (r, c) = (rng.gen_range(1..=max_r), rng.gen_range(1..=max_c));
    Matrix::from_fn(r, c, |_, _| rng.gen_range(-4.0..4.0))
}

/// A pair of matrices with a shared inner dimension.
fn matmul_pair(rng: &mut impl Rng) -> (Matrix, Matrix) {
    let (m, k, n) = (rng.gen_range(1..=6), rng.gen_range(1..=6), rng.gen_range(1..=6));
    let a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-3.0..3.0));
    (a, Matrix::from_fn(k, n, |_, _| rng.gen_range(-3.0..3.0)))
}

#[test]
fn transpose_is_involution() {
    cases(256, |rng| {
        let a = matrix(rng, 8, 8);
        assert_eq!(a.transpose().transpose(), a);
    });
}

#[test]
fn matmul_transpose_identity() {
    cases(256, |rng| {
        let (a, b) = matmul_pair(rng);
        // (AB)^T == B^T A^T
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    });
}

#[test]
fn matmul_nt_tn_consistency() {
    cases(256, |rng| {
        let (a, b) = matmul_pair(rng);
        let nt = a.gemm(&b.transpose(), Gemm::NT);
        let direct = a.matmul(&b);
        assert!(nt.max_abs_diff(&direct) < 1e-4);
        let tn = a.transpose().gemm(&b, Gemm::TN);
        assert!(tn.max_abs_diff(&direct) < 1e-4);
    });
}

#[test]
fn matmul_distributes_over_addition() {
    cases(256, |rng| {
        let (a, b) = matmul_pair(rng);
        let b2 = b.map(|v| v * 0.5 - 1.0);
        let sum_first = a.matmul(&(&b + &b2));
        let dist = &a.matmul(&b) + &a.matmul(&b2);
        assert!(sum_first.max_abs_diff(&dist) < 1e-3);
    });
}

#[test]
fn softmax_rows_are_distributions() {
    cases(256, |rng| {
        let s = softmax_rows(&matrix(rng, 6, 8));
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    });
}

#[test]
fn softmax_is_shift_invariant() {
    cases(256, |rng| {
        let a = matrix(rng, 4, 6);
        let shift = rng.gen_range(-10.0f32..10.0);
        let s1 = softmax_rows(&a);
        let s2 = softmax_rows(&a.map(|v| v + shift));
        assert!(s1.max_abs_diff(&s2) < 1e-4);
    });
}

#[test]
fn select_rows_then_scatter_is_projection() {
    cases(256, |rng| {
        let a = matrix(rng, 6, 4);
        // Scatter of a full selection back into zeros reproduces selected rows.
        let idx: Vec<usize> = (0..a.rows()).collect();
        let sel = a.select_rows(&idx);
        let mut out = Matrix::zeros(a.rows(), a.cols());
        out.scatter_add_rows(&idx, &sel);
        assert!(out.max_abs_diff(&a) < 1e-6);
    });
}

#[test]
fn batched_matmul_equals_per_block() {
    cases(256, |rng| {
        let (a, b) = matmul_pair(rng);
        let batch = rng.gen_range(1..4usize);
        // Tile the pair `batch` times and compare against the blockwise result.
        let ba = Matrix::from_vec(batch * a.rows(), a.cols(), a.as_slice().repeat(batch));
        let bb = Matrix::from_vec(batch * b.rows(), b.cols(), b.as_slice().repeat(batch));
        let out = ba.gemm(&bb, Gemm::NN.batched(batch));
        let single = a.matmul(&b);
        for bi in 0..batch {
            let rows: Vec<usize> = (bi * a.rows()..(bi + 1) * a.rows()).collect();
            assert!(out.select_rows(&rows).max_abs_diff(&single) < 1e-4);
        }
    });
}

#[test]
fn csr_roundtrips_through_dense() {
    cases(256, |rng| {
        let a = matrix(rng, 6, 6);
        // Sparsify (threshold), convert to CSR, and check spmm == dense matmul.
        let sparse_src = a.map(|v| if v.abs() < 2.0 { 0.0 } else { v });
        let mut triplets = Vec::new();
        for r in 0..sparse_src.rows() {
            for c in 0..sparse_src.cols() {
                if sparse_src[(r, c)] != 0.0 {
                    triplets.push((r, c, sparse_src[(r, c)]));
                }
            }
        }
        let csr = CsrMatrix::from_coo(sparse_src.rows(), sparse_src.cols(), &triplets);
        assert!(csr.to_dense().max_abs_diff(&sparse_src) < 1e-6);
        let x = Matrix::identity(sparse_src.cols());
        assert!(csr.spmm(&x).max_abs_diff(&sparse_src) < 1e-6);
    });
}

#[test]
fn row_and_col_sums_agree_with_total() {
    cases(256, |rng| {
        let a = matrix(rng, 7, 7);
        let total = a.sum();
        let via_rows: f32 = a.row_sums().as_slice().iter().sum();
        let via_cols: f32 = a.col_sums().as_slice().iter().sum();
        assert!((total - via_rows).abs() < 1e-3);
        assert!((total - via_cols).abs() < 1e-3);
    });
}
