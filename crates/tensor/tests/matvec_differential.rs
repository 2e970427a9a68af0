//! A one-column right-hand side takes its own loops in `Matrix::matmul`
//! (eight rows abreast) and `Matrix::matmul_tn` (no backend call per
//! multiply-add). The kernel contract fixes every output element's chain —
//! one multiply and one add per `k`, ascending, bitwise-zero coefficients
//! skipped — so those loops must reproduce, bit for bit, column 0 of the same
//! product with a second column appended, which runs the general kernels.

use hoga_tensor::{set_backend, set_threads, Backend, Matrix};

/// Irregular values with exact zeros of both signs sprinkled in.
fn rough(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = r.wrapping_mul(53).wrapping_add(c.wrapping_mul(19)).wrapping_add(salt * 211);
        match h % 13 {
            0 => 0.0,
            1 => -0.0,
            _ => ((h % 23) as f32) * 0.137 - 1.41,
        }
    })
}

fn column_bits(m: &Matrix, col: usize) -> Vec<u32> {
    (0..m.rows()).map(|r| m[(r, col)].to_bits()).collect()
}

#[test]
fn one_column_products_are_bitwise_column_zero_of_the_general_kernels() {
    // (rows, k) of the left operand: remainders of the eight-row blocks, the
    // trainer's readout (4096 × 128, chunked in `matmul_tn` with one column
    // and with two), an inner dimension of one, and empty operands.
    for (m, k) in [(1, 1), (7, 5), (8, 64), (29, 70), (4096, 128), (5, 1), (0, 4), (6, 0)] {
        let a = rough(m, k, m + k);
        let mut x = rough(k, 1, 3);
        let mut g = rough(m, 1, 5);
        // A non-finite entry reaches only the rows whose coefficient is not
        // a bitwise zero: the skip is part of the contract.
        if k > 2 {
            x[(2, 0)] = f32::INFINITY;
        }
        if m > 3 {
            g[(3, 0)] = f32::NAN;
        }
        let widen = |v: &Matrix| v.concat_cols(&rough(v.rows(), 1, 7));
        let (x2, g2) = (widen(&x), widen(&g));

        set_backend(Backend::Scalar);
        set_threads(1);
        let want_mv = column_bits(&a.matmul(&x2), 0);
        let want_tn = column_bits(&a.matmul_tn(&g2), 0);
        for backend in [Backend::Scalar, Backend::Simd] {
            for threads in [1, 3, 8] {
                set_backend(backend);
                set_threads(threads);
                let label = format!("{m}x{k} at {backend:?} x {threads} threads");
                assert_eq!(column_bits(&a.matmul(&x), 0), want_mv, "matmul, {label}");
                assert_eq!(column_bits(&a.matmul_tn(&g), 0), want_tn, "matmul_tn, {label}");
                // `matmul_nt` against a one-row matrix is the same product.
                assert_eq!(
                    column_bits(&a.matmul_nt(&x.transpose()), 0),
                    want_mv,
                    "matmul_nt, {label}"
                );
            }
        }
    }
    set_backend(Backend::Simd);
    set_threads(0);
}
