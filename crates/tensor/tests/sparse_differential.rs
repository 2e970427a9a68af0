//! `CsrMatrix::spmm` against a scalar reference, bit for bit, and the checked
//! constructor against every malformed input it documents.
//!
//! The kernel sums whole 8-column groups with an axpy loop and the narrow
//! group left over in a register tile that reads a full group where the
//! buffer has one. The cases here sit on those seams: every width around the
//! group size, entries naming the **last** row of `x` (where a full group
//! would run off the buffer), empty rows, no rows, no columns — at one, two
//! and three kernel threads.

use hoga_tensor::{set_threads, CsrMatrix, Matrix};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// `a · x` one multiply and one add at a time, in stored entry order.
fn spmm_reference(a: &CsrMatrix, x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), x.cols());
    for r in 0..a.rows() {
        for (c, v) in a.row_entries(r) {
            for j in 0..x.cols() {
                out[(r, j)] += v * x[(c, j)];
            }
        }
    }
    out
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A deterministic stream of small integers.
fn lcg(seed: u64) -> impl FnMut(usize) -> usize {
    let mut state = seed;
    move |bound| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % bound
    }
}

/// `rows × cols` with up to `per_row` entries a row; every fifth row is
/// empty and every third names the last column.
fn sparse(rows: usize, cols: usize, per_row: usize, seed: u64) -> CsrMatrix {
    let mut next = lcg(seed);
    let mut triplets = Vec::new();
    for r in (0..rows).filter(|r| r % 5 != 4) {
        for _ in 0..per_row {
            triplets.push((r, next(cols), next(41) as f32 * 0.137 - 2.5));
        }
        if r % 3 == 0 {
            triplets.push((r, cols - 1, 0.75));
        }
    }
    CsrMatrix::from_coo(rows, cols, &triplets)
}

fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut next = lcg(seed);
    Matrix::from_fn(rows, cols, |_, _| next(2001) as f32 * 0.0173 - 17.0)
}

#[test]
fn spmm_is_bit_equal_to_the_scalar_reference_at_every_width_and_thread_count() {
    let matrices = [
        // Large enough (≈ 42 k entries) that widths from 7 up split across threads.
        sparse(3000, 900, 16, 1),
        sparse(40, 40, 3, 2),
        // Only the last row of `x`, which is shorter than one group.
        CsrMatrix::from_coo(1, 1, &[(0, 0, -1.5)]),
        CsrMatrix::from_coo(3, 2, &[(0, 1, 2.0), (2, 0, 0.5), (2, 1, -3.0)]),
        // Nothing stored; no rows at all.
        CsrMatrix::from_coo(6, 4, &[]),
        CsrMatrix::from_coo(0, 5, &[]),
    ];
    let widths = (0..=17).chain([24, 64, 71]);
    for d in widths {
        for (which, a) in matrices.iter().enumerate() {
            let x = dense(a.cols(), d, 7 + d as u64);
            let expected = spmm_reference(a, &x);
            for threads in [1, 2, 3] {
                set_threads(threads);
                let got = a.spmm(&x);
                assert_eq!(got.shape(), (a.rows(), d));
                assert_eq!(bits(&got), bits(&expected), "matrix {which}, d {d}, {threads} threads");
            }
        }
    }
    set_threads(0);
}

#[test]
fn lanes_read_past_a_row_of_x_never_reach_the_output() {
    // No entry names row 1 of `x`, which sits right behind row 0 and is all
    // NaN and infinity: a full-group read of row 0's narrow tail covers it.
    let a = CsrMatrix::from_coo(2, 3, &[(0, 0, 2.0), (1, 0, -1.0), (1, 2, 4.0)]);
    for d in [1, 3, 7, 9, 15] {
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let x = Matrix::from_fn(3, d, |r, c| if r == 1 { poison[c % 3] } else { (r + c) as f32 });
        let got = a.spmm(&x);
        assert!(got.as_slice().iter().all(|v| v.is_finite()), "d {d}: {:?}", got.as_slice());
        assert_eq!(bits(&got), bits(&spmm_reference(&a, &x)), "d {d}");
    }
}

#[test]
fn from_csr_accepts_laid_out_rows_and_equals_from_coo() {
    let built = CsrMatrix::from_csr(3, 4, vec![0, 2, 2, 3], vec![1, 3, 0], vec![2.0, 1.0, -1.0]);
    assert_eq!(built, CsrMatrix::from_coo(3, 4, &[(0, 3, 1.0), (2, 0, -1.0), (0, 1, 2.0)]));
    assert_eq!(CsrMatrix::from_csr(0, 0, vec![0], vec![], vec![]), CsrMatrix::from_coo(0, 0, &[]));
}

#[test]
fn from_csr_refuses_every_malformed_input_it_documents() {
    type Parts = (usize, usize, Vec<usize>, Vec<u32>, Vec<f32>);
    let cases: [(&str, Parts); 9] = [
        ("exceed u32::MAX", (0, u32::MAX as usize + 1, vec![0], vec![], vec![])),
        ("one entry per row", (2, 2, vec![0, 1], vec![0], vec![1.0])),
        ("one value per column", (1, 2, vec![0, 1], vec![0], vec![])),
        ("start at 0", (1, 2, vec![1, 1], vec![0], vec![1.0])),
        ("end at the entry count", (1, 2, vec![0, 1], vec![0, 1], vec![1.0, 1.0])),
        ("indptr falls at row 1", (3, 2, vec![0, 2, 1, 2], vec![0, 1], vec![1.0, 1.0])),
        ("not strictly ascending", (1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0])),
        ("not strictly ascending", (1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0])),
        ("column out of bounds", (2, 2, vec![0, 1, 2], vec![0, 2], vec![1.0, 1.0])),
    ];
    for (expected, (rows, cols, indptr, indices, values)) in cases {
        let refused = catch_unwind(AssertUnwindSafe(|| {
            CsrMatrix::from_csr(rows, cols, indptr, indices, values)
        }))
        .expect_err(expected);
        let message = refused.downcast_ref::<String>().expect("a formatted panic message");
        assert!(message.contains(expected), "`{message}` does not say `{expected}`");
    }
}
