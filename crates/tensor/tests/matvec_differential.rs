//! A one-column right-hand side takes its own loops in `Matrix::matmul`
//! (eight rows abreast, in the lanes of one vector over the rows'
//! transpose) and `Matrix::gemm` at `Gemm::TN` (no backend call per
//! multiply-add). The kernel contract fixes every output element's chain —
//! one multiply and one add per `k`, ascending, bitwise-zero coefficients
//! skipped — so those loops must reproduce, bit for bit, column 0 of the same
//! product with a second column appended, which runs the general kernels.

use hoga_tensor::{set_backend, set_threads, Backend, Gemm, Matrix};
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests here: backend and thread count are process-global.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// The scalar loops, the AVX2 tile, and the default: the widest tile the
/// CPU reports (each falls back to the next narrower one it has).
const BACKENDS: [Backend; 3] = [Backend::Scalar, Backend::Avx2, Backend::Simd];

fn column_bits(m: &Matrix, col: usize) -> Vec<u32> {
    (0..m.rows()).map(|r| m[(r, col)].to_bits()).collect()
}

#[test]
fn one_column_products_are_bitwise_column_zero_of_the_general_kernels() {
    let _guard = lock();
    // (rows, k) of the left operand: remainders of the eight-row blocks, the
    // trainer's readout (4096 × 128, chunked in `Gemm::TN` with one column
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
        let want_tn = column_bits(&a.gemm(&g2, Gemm::TN), 0);
        for backend in BACKENDS {
            for threads in [1, 3, 8] {
                set_backend(backend);
                set_threads(threads);
                let label = format!("{m}x{k} at {backend:?} x {threads} threads");
                assert_eq!(column_bits(&a.matmul(&x), 0), want_mv, "matmul, {label}");
                assert_eq!(column_bits(&a.gemm(&g, Gemm::TN), 0), want_tn, "Gemm::TN, {label}");
                // `Gemm::NT` against a one-row matrix is the same product.
                assert_eq!(
                    column_bits(&a.gemm(&x.transpose(), Gemm::NT), 0),
                    want_mv,
                    "Gemm::NT, {label}"
                );
            }
        }
    }
    set_backend(Backend::Simd);
    set_threads(0);
}

#[test]
fn one_column_matmul_is_bitwise_the_reference_with_zeros_and_non_finite_rows() {
    let _guard = lock();
    // `gemm_reference` adds every product to a `+0.0` accumulator with no
    // skip. With a finite, non-zero right-hand side a skipped `±0.0 · x` is
    // a bitwise no-op there (the accumulator is never `-0.0`), so the
    // reference is the one-column kernel's bits even for rows of zeros of
    // either sign, and `±∞` and NaN propagate the same way in both.
    let k = 37;
    let x = Matrix::from_fn(k, 1, |r, _| ((r * 29 % 17) as f32) * 0.173 - 1.37 + 0.01);
    assert!(x.as_slice().iter().all(|&v| v != 0.0 && v.is_finite()));
    for m in [1, 7, 8, 9, 17, 240] {
        let mut a = rough(m, k, m);
        for r in 0..m {
            let row = a.row_mut(r);
            match r % 8 {
                1 => row.fill(0.0),
                2 => row.fill(-0.0),
                3 => row[r % k] = f32::INFINITY,
                4 => row[(r * 3) % k] = f32::NEG_INFINITY,
                5 => row[(r * 5) % k] = f32::NAN,
                _ => {}
            }
        }
        let want = column_bits(&a.gemm_reference(&x, Gemm::NN), 0);
        for backend in BACKENDS {
            for threads in [1, 3, 8] {
                set_backend(backend);
                set_threads(threads);
                let got = column_bits(&a.matmul(&x), 0);
                assert_eq!(got, want, "{m}x{k} at {backend:?} x {threads} threads");
            }
        }
    }
    set_backend(Backend::Simd);
    set_threads(0);
}
