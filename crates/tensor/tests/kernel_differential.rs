//! Differential tests of the optimized matmul-family and LayerNorm kernels
//! against their naive `*_reference` oracles, plus bitwise
//! thread-count-invariance checks.
//!
//! The determinism contract under test: every kernel's output is a pure
//! function of its inputs — chunk decompositions depend only on shapes and
//! partial results reduce in fixed order — so running with 1 thread and with
//! 8 threads must produce *bitwise identical* floats.

use hoga_check::cases;
use hoga_tensor::{
    active_backend, approx_eq_eps, approx_eq_ulps, layernorm_forward, layernorm_rows, qmatmul,
    set_backend, set_threads, Backend, CsrMatrix, Matrix, QuantizedMatrix, QuantizedWeights,
};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, Once};

/// Serializes tests that toggle the global thread override or the global
/// kernel backend so they cannot observe each other's `set_threads` /
/// `set_backend` calls.
fn thread_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Runs `op` at 1, 3, and 8 threads, asserts the results are bitwise
/// identical, restores auto-detection, and returns the single-thread result.
fn assert_thread_invariant(label: &str, op: impl Fn() -> Matrix) -> Matrix {
    let _guard = thread_lock();
    set_threads(1);
    let single = op();
    for threads in [3usize, 8] {
        set_threads(threads);
        let multi = op();
        assert_eq!(
            bits(&single),
            bits(&multi),
            "{label}: output at {threads} threads differs bitwise from 1 thread"
        );
    }
    set_threads(0);
    single
}

/// Deterministic dense test matrix with values in roughly [-2, 2] and a
/// sprinkling of exact zeros to exercise the sparsity fast paths.
fn dense(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = r.wrapping_mul(31).wrapping_add(c.wrapping_mul(7)).wrapping_add(salt * 131);
        if h % 11 == 0 {
            0.0
        } else {
            ((h % 17) as f32) * 0.25 - 2.0
        }
    })
}

// ---------------------------------------------------------------------------
// Parallel kernels vs naive references at trainer-like shapes
// ---------------------------------------------------------------------------

#[test]
fn matmul_parallel_is_thread_invariant_and_matches_reference() {
    let a = dense(130, 70, 1);
    let b = dense(70, 90, 2);
    let out = assert_thread_invariant("matmul", || a.matmul(&b));
    assert!(out.max_abs_diff(&a.matmul_reference(&b)) < 1e-3);
}

#[test]
fn matmul_nt_parallel_is_thread_invariant_and_matches_reference() {
    let a = dense(130, 70, 3);
    let b = dense(90, 70, 4);
    let out = assert_thread_invariant("matmul_nt", || a.matmul_nt(&b));
    assert!(out.max_abs_diff(&a.matmul_nt_reference(&b)) < 1e-3);
}

#[test]
fn matmul_tn_chunked_is_thread_invariant_and_matches_reference() {
    // 40 × 600 · 600 × 44 exceeds the parallel threshold, so the shared
    // 600-row dimension splits into several fixed k-chunks.
    let a = dense(600, 40, 5);
    let b = dense(600, 44, 6);
    let out = assert_thread_invariant("matmul_tn", || a.matmul_tn(&b));
    assert!(out.max_abs_diff(&a.matmul_tn_reference(&b)) < 2e-2);
}

#[test]
fn batched_matmul_at_trainer_shape_is_thread_invariant() {
    // The S·V product of Eq. 7 at trainer shape: batch 512, K+1 = 5, d = 64.
    let batch = 512;
    let s = dense(batch * 5, 5, 7);
    let v = dense(batch * 5, 64, 8);
    let out = assert_thread_invariant("batched_matmul", || s.batched_matmul(&v, batch));
    assert!(out.max_abs_diff(&s.batched_matmul_reference(&v, batch)) < 1e-3);
}

#[test]
fn batched_matmul_nt_at_trainer_shape_is_thread_invariant() {
    // The QKᵀ product of Eq. 7 at trainer shape: batch 512, K+1 = 5, d = 64.
    let batch = 512;
    let q = dense(batch * 5, 64, 9);
    let k = dense(batch * 5, 64, 10);
    let out = assert_thread_invariant("batched_matmul_nt", || q.batched_matmul_nt(&k, batch));
    assert!(out.max_abs_diff(&q.batched_matmul_nt_reference(&k, batch)) < 1e-3);
}

#[test]
fn batched_matmul_tn_at_trainer_shape_is_thread_invariant() {
    let batch = 512;
    let s = dense(batch * 5, 5, 11);
    let dy = dense(batch * 5, 64, 12);
    let out = assert_thread_invariant("batched_matmul_tn", || s.batched_matmul_tn(&dy, batch));
    assert!(out.max_abs_diff(&s.batched_matmul_tn_reference(&dy, batch)) < 1e-3);
}

/// A `rows × 300` adjacency with five entries a row.
fn banded_csr(rows: usize) -> CsrMatrix {
    let mut triplets = Vec::new();
    for r in 0..rows {
        for k in 0..5 {
            triplets.push((r, (r * 7 + k * 13) % 300, ((r + k) % 5) as f32 - 2.0));
        }
    }
    CsrMatrix::from_coo(rows, 300, &triplets)
}

#[test]
fn spmm_is_thread_invariant() {
    // 2 000 rows × 5 entries × 48 columns = 480 k multiply-adds: above the
    // grain bound (1 << 18), so the 3- and 8-thread runs really split rows.
    let a = banded_csr(2000);
    let x = dense(300, 48, 13);
    let out = assert_thread_invariant("spmm", || a.spmm(&x));
    assert!(out.max_abs_diff(&a.to_dense().matmul_reference(&x)) < 1e-3);
}

#[test]
fn spmm_is_bitwise_the_row_by_row_reference_on_both_sides_of_the_grain_bound() {
    // 1 092 rows × 5 × 48 = 262 080 multiply-adds runs on the caller; one
    // more row (262 320) crosses 1 << 18 and splits across the workers.
    // Either way a row is the same ascending sum over its entries.
    let x = dense(300, 48, 14);
    for rows in [1092usize, 1093] {
        let a = banded_csr(rows);
        assert_eq!(a.nnz(), rows * 5, "the band never merges entries");
        let mut want = Matrix::zeros(rows, 48);
        for r in 0..rows {
            for (c, v) in a.row_entries(r) {
                for j in 0..48 {
                    want[(r, j)] += v * x[(c, j)];
                }
            }
        }
        let out = assert_thread_invariant("spmm at the grain bound", || a.spmm(&x));
        assert_eq!(bits(&out), bits(&want), "{rows} rows");
    }
}

#[test]
fn transpose_tiled_matches_reference_on_awkward_shapes() {
    for (r, c) in [(1, 1), (31, 33), (32, 32), (64, 1), (1, 64), (45, 70), (100, 3)] {
        let a = dense(r, c, r * 100 + c);
        assert_eq!(a.transpose(), a.transpose_reference(), "transpose mismatch at ({r}, {c})");
    }
}

// ---------------------------------------------------------------------------
// Zero-dimension edges
// ---------------------------------------------------------------------------

#[test]
fn matmul_family_handles_zero_dims() {
    // (0, 5) · (5, 3) → (0, 3)
    assert_eq!(Matrix::zeros(0, 5).matmul(&dense(5, 3, 1)).shape(), (0, 3));
    // (5, 0) · (0, 3) → all-zero (5, 3)
    let z = Matrix::zeros(5, 0).matmul(&Matrix::zeros(0, 3));
    assert_eq!(z.shape(), (5, 3));
    assert_eq!(z, Matrix::zeros(5, 3));
    // (5, 3) · (3, 0) → (5, 0)
    assert_eq!(dense(5, 3, 2).matmul(&Matrix::zeros(3, 0)).shape(), (5, 0));

    // matmul_nt: (0, 4) · (6, 4)ᵀ and (3, 0) · (2, 0)ᵀ
    assert_eq!(Matrix::zeros(0, 4).matmul_nt(&dense(6, 4, 3)).shape(), (0, 6));
    let znt = dense(3, 0, 4).matmul_nt(&Matrix::zeros(2, 0));
    assert_eq!(znt.shape(), (3, 2));
    assert_eq!(znt, Matrix::zeros(3, 2));
    // `==` cannot see the sign of a zero: an empty sum must be `+0.0`, as
    // it is for matmul, matmul_tn and the reference.
    assert_eq!(bits(&znt), bits(&Matrix::zeros(3, 2)), "empty matmul_nt sum is not +0.0");
    assert_eq!(bits(&znt), bits(&dense(3, 0, 4).matmul_nt_reference(&Matrix::zeros(2, 0))));

    // matmul_tn: (5, 0)ᵀ · (5, 4) → (0, 4); (5, 3)ᵀ · (5, 0) → (3, 0);
    // (0, 3)ᵀ · (0, 4) → all-zero (3, 4).
    assert_eq!(Matrix::zeros(5, 0).matmul_tn(&dense(5, 4, 5)).shape(), (0, 4));
    assert_eq!(dense(5, 3, 6).matmul_tn(&Matrix::zeros(5, 0)).shape(), (3, 0));
    let ztn = Matrix::zeros(0, 3).matmul_tn(&Matrix::zeros(0, 4));
    assert_eq!(ztn.shape(), (3, 4));
    assert_eq!(ztn, Matrix::zeros(3, 4));
}

#[test]
fn batched_family_handles_zero_dims() {
    let batch = 4;
    // Zero-width value matrix → (batch·br_a, 0).
    let s = dense(batch * 3, 3, 7);
    let v = Matrix::zeros(batch * 3, 0);
    assert_eq!(s.batched_matmul(&v, batch).shape(), (batch * 3, 0));
    // Zero-row blocks on both sides.
    let e = Matrix::zeros(0, 5);
    assert_eq!(e.batched_matmul_nt(&Matrix::zeros(0, 5), batch).shape(), (0, 0));
    // Zero-width features with rows, and a row whose every product is
    // −0.0: both sums are +0.0, as in the reference and the rest of the
    // family (`f32: Sum` starts at −0.0, and the old dot loop used it).
    // `==` cannot see the sign of a zero, so compare bits.
    let (q0, k0) = (dense(batch * 3, 0, 9), Matrix::zeros(batch * 2, 0));
    let empty = q0.batched_matmul_nt(&k0, batch);
    assert_eq!(bits(&empty), bits(&Matrix::zeros(batch * 3, 2)), "empty score is not +0.0");
    assert_eq!(bits(&empty), bits(&q0.batched_matmul_nt_reference(&k0, batch)));
    let mut q = dense(batch * 3, 4, 10);
    q.row_mut(0).fill(-0.0);
    let k = Matrix::full(batch * 2, 4, 0.5);
    let scores = q.batched_matmul_nt(&k, batch);
    assert_eq!(bits(&scores), bits(&q.batched_matmul_nt_reference(&k, batch)));
    assert_eq!(&bits(&scores)[..2], &[0, 0], "an all-(−0.0) score is not +0.0");
    // Zero-column lhs in the tn product → (0, n).
    let a0 = Matrix::zeros(batch * 3, 0);
    let b0 = dense(batch * 3, 4, 8);
    assert_eq!(a0.batched_matmul_tn(&b0, batch).shape(), (0, 4));
    // transpose of degenerate shapes.
    assert_eq!(Matrix::zeros(0, 5).transpose().shape(), (5, 0));
    assert_eq!(Matrix::zeros(5, 0).transpose().shape(), (0, 5));
}

// ---------------------------------------------------------------------------
// from_coo: self-contained per-row merge (regression + differential)
// ---------------------------------------------------------------------------

/// Dense oracle for `from_coo` built on a `BTreeMap<(row, col), f32>`.
fn coo_oracle(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Matrix {
    let mut map: BTreeMap<(usize, usize), f32> = BTreeMap::new();
    for &(r, c, v) in triplets {
        *map.entry((r, c)).or_insert(0.0) += v;
    }
    let mut out = Matrix::zeros(rows, cols);
    for ((r, c), v) in map {
        out[(r, c)] = v;
    }
    out
}

/// Regression for the old cross-row merge guard: consecutive rows ending and
/// starting on the same column, with duplicates on both sides of the row
/// boundary, must merge strictly within their own rows.
#[test]
fn from_coo_merges_within_rows_only() {
    let triplets = [(0, 2, 1.0), (0, 2, 2.0), (1, 2, 3.0), (1, 2, 4.0), (3, 0, 5.0), (3, 0, -5.0)];
    let a = CsrMatrix::from_coo(4, 3, &triplets);
    assert_eq!(a.row_entries(0).collect::<Vec<_>>(), vec![(2, 3.0)]);
    assert_eq!(a.row_entries(1).collect::<Vec<_>>(), vec![(2, 7.0)]);
    assert_eq!(a.row_entries(2).count(), 0, "empty row must stay empty");
    // A duplicate summing to zero stays a structural nonzero.
    assert_eq!(a.row_entries(3).collect::<Vec<_>>(), vec![(0, 0.0)]);
    assert_eq!(a.nnz(), 3);
}

#[test]
fn from_coo_large_input_is_thread_invariant_and_matches_oracle() {
    // Above PARALLEL_NNZ (2^14) so both the sharded count and the sharded
    // per-row merge run; heavy duplication exercises the merge everywhere.
    let rows = 300;
    let cols = 300;
    let mut triplets = Vec::with_capacity(20_000);
    for i in 0..20_000usize {
        let r = (i * 37) % rows;
        let c = (i * 101) % cols;
        // Half-integer values keep duplicate sums exact in f32, so the CSR
        // and the BTreeMap oracle agree bitwise regardless of sum order.
        let v = ((i % 9) as f32) * 0.5 - 2.0;
        triplets.push((r, c, v));
    }
    let _guard = thread_lock();
    set_threads(1);
    let single = CsrMatrix::from_coo(rows, cols, &triplets);
    set_threads(8);
    let multi = CsrMatrix::from_coo(rows, cols, &triplets);
    set_threads(0);
    assert_eq!(single, multi, "from_coo output depends on thread count");
    assert_eq!(bits(&single.to_dense()), bits(&coo_oracle(rows, cols, &triplets)));
}

// ---------------------------------------------------------------------------
// Backend differentials: SIMD vs scalar
// ---------------------------------------------------------------------------

/// Dense matrix with values that are NOT exactly representable sums (unlike
/// [`dense`], whose quarter-integer entries make every accumulation exact and
/// would let a broken reduction tree pass bitwise checks vacuously).
fn dense_rough(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = r.wrapping_mul(53).wrapping_add(c.wrapping_mul(19)).wrapping_add(salt * 211);
        if h % 13 == 0 {
            0.0
        } else {
            ((h % 23) as f32) * 0.137 - 1.41
        }
    })
}

/// The sides of every cross-backend comparison below: the pinned scalar
/// reference, then every SIMD tile this host can run — the AVX2 one when
/// the default resolves wider — ending on the default, which the CPU
/// resolves. Prints what the sides resolved to once per run (call with
/// [`thread_lock`] held), so a scalar-vs-scalar — vacuous — grid on a host
/// without AVX2 is visible in the log. Callers leave the default,
/// [`Backend::Simd`], selected.
fn backends() -> Vec<Backend> {
    static PRINTED: Once = Once::new();
    let name = |backend| {
        set_backend(backend);
        active_backend()
    };
    let mut sides = vec![Backend::Scalar];
    if name(Backend::Avx2) != name(Backend::Simd) {
        sides.push(Backend::Avx2);
    }
    sides.push(Backend::Simd);
    PRINTED.call_once(|| {
        let names: Vec<_> = sides.iter().map(|&b| name(b)).collect();
        eprintln!("cross-backend grids compare {}", names.join(" vs "));
    });
    set_backend(Backend::Simd);
    sides
}

/// Runs `op` under every backend request and asserts bitwise-identical
/// output — the training-path contract: the backend may change *how* a row
/// is computed, never *what* is computed.
fn assert_backend_invariant(label: &str, op: impl Fn() -> Matrix) -> Matrix {
    let _guard = thread_lock();
    // In order, so the default (`Backend::Simd`) is what stays selected.
    let mut runs = backends().into_iter().map(|backend| {
        set_backend(backend);
        (backend, op())
    });
    let (_, scalar) = runs.next().expect("the scalar reference runs first");
    for (backend, simd) in runs {
        assert_eq!(
            bits(&scalar),
            bits(&simd),
            "{label}: {backend:?} backend output differs bitwise from scalar on the training path"
        );
    }
    scalar
}

/// Asserts `got` is within the documented fast-path tolerance of `want`:
/// a ULP budget for well-scaled values with an absolute epsilon fallback
/// after cancellation near zero.
fn assert_fast_close(label: &str, want: &Matrix, got: &Matrix) {
    assert_eq!(want.shape(), got.shape(), "{label}: shape mismatch");
    for (i, (&w, &g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert!(
            approx_eq_ulps(w, g, 1024) || approx_eq_eps(w, g, 1e-5),
            "{label}: element {i} outside fast-path tolerance: {w} vs {g}"
        );
    }
}

#[test]
fn training_matmul_family_is_backend_invariant_bitwise() {
    // Awkward widths (not multiples of the 8-wide lane count) exercise the
    // SIMD remainder loops; `dense_rough` values make reassociation visible.
    let a = dense_rough(37, 70, 1);
    let b = dense_rough(70, 51, 2);
    assert_backend_invariant("matmul", || a.matmul(&b));
    let bt = dense_rough(51, 70, 3);
    assert_backend_invariant("matmul_nt", || a.matmul_nt(&bt));
    let a2 = dense_rough(70, 37, 4);
    assert_backend_invariant("matmul_tn", || a2.matmul_tn(&b));

    let batch = 16;
    let s = dense_rough(batch * 5, 5, 5);
    let v = dense_rough(batch * 5, 27, 6);
    assert_backend_invariant("batched_matmul", || s.batched_matmul(&v, batch));
    let q = dense_rough(batch * 5, 27, 7);
    assert_backend_invariant("batched_matmul_nt", || q.batched_matmul_nt(&v, batch));
    assert_backend_invariant("batched_matmul_tn", || s.batched_matmul_tn(&v, batch));
}

#[test]
fn matmul_nt_is_bitwise_the_reference_and_matmul_of_the_transpose() {
    // `matmul_nt` is `matmul` over a transposed copy, and `matmul` adds one
    // product per k, ascending, to a +0.0 accumulator, skipping only
    // bitwise-zero multipliers — on finite inputs that is the naive oracle
    // bit for bit, at every thread count and on both backends. Shapes are
    // m × k × n for (m × k)·(n × k)ᵀ; the last is the trainer's dX = dY·Wᵀ.
    let shapes = [(1, 1, 1), (7, 13, 5), (33, 1, 128), (5, 64, 3), (130, 70, 90), (4608, 64, 64)];
    for (m, k, n) in shapes {
        for (name, make) in [("dense", dense as fn(_, _, _) -> _), ("dense_rough", dense_rough)] {
            let a = make(m, k, m + n);
            let b = make(n, k, k + n + 1);
            let label = format!("matmul_nt {m}x{k}x{n} on {name} operands");
            let want = bits(&a.matmul_nt_reference(&b));
            let threaded = assert_thread_invariant(&label, || a.matmul_nt(&b));
            assert_eq!(bits(&threaded), want, "{label}: differs bitwise from the reference");
            let scalar = assert_backend_invariant(&label, || a.matmul_nt(&b));
            assert_eq!(bits(&scalar), want, "{label}: scalar differs bitwise from the reference");
            assert_eq!(
                bits(&a.matmul(&b.transpose())),
                want,
                "{label}: matmul of the transpose differs bitwise"
            );
        }
    }
}

#[test]
fn training_path_is_backend_and_thread_invariant_jointly() {
    // The full grid: {scalar, each SIMD tile} × {1, 3, 8 threads} must agree
    // bitwise — lane-level and thread-level partitioning compose without
    // changing a single bit on the training path.
    let a = dense_rough(130, 70, 8);
    let b = dense_rough(70, 90, 9);
    let _guard = thread_lock();
    set_backend(Backend::Scalar);
    set_threads(1);
    let baseline = a.matmul(&b);
    for backend in backends() {
        for threads in [1usize, 3, 8] {
            set_backend(backend);
            set_threads(threads);
            let got = a.matmul(&b);
            assert_eq!(
                bits(&baseline),
                bits(&got),
                "matmul at {backend:?} × {threads} threads differs from scalar × 1"
            );
        }
    }
    set_backend(Backend::Simd);
    set_threads(0);
}

/// LayerNorm one row at a time, as its contract states it: the sum and
/// then `Σ (x - mean)²`, each an ascending `-0.0`-seeded `Iterator::sum`,
/// divided by `d`; `inv_std = 1 / sqrt(var + 1e-5)`; `x̂ = (x - mean) ·
/// inv_std`; `y = x̂ · γ + β`. Returns `(y, inv_std, x̂)`.
fn layernorm_per_row(x: &Matrix, gamma: &[f32], beta: &[f32]) -> (Matrix, Vec<f32>, Matrix) {
    let d = x.cols();
    let (mut out, mut normalized) = (Matrix::zeros(x.rows(), d), Matrix::zeros(x.rows(), d));
    let mut inv_std = Vec::new();
    for r in 0..x.rows() {
        let row = x.row(r);
        let mean = row.iter().sum::<f32>() / d as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let is = 1.0 / (var + 1e-5).sqrt();
        inv_std.push(is);
        for c in 0..d {
            let xh = (row[c] - mean) * is;
            normalized[(r, c)] = xh;
            out[(r, c)] = xh * gamma[c] + beta[c];
        }
    }
    (out, inv_std, normalized)
}

#[test]
fn layernorm_is_bitwise_the_per_row_reference_on_every_backend() {
    // Row counts around the eight rows the statistics reduce abreast, and
    // widths around the 8-wide lanes; row 2 is all `-0.0` (its sum stays
    // `-0.0` only on a `-0.0`-seeded chain), row 3 all `+0.0` and row 4
    // constant.
    for rows in [1, 3, 7, 8, 9, 17, 23] {
        for d in [1, 5, 8, 32, 37, 64] {
            let mut x = dense_rough(rows, d, rows * 7 + d);
            for (r, fill) in [(2, -0.0f32), (3, 0.0), (4, 1.75)] {
                if r < rows {
                    x.row_mut(r).fill(fill);
                }
            }
            let gamma: Vec<f32> = (0..d).map(|c| 0.5 + 0.03 * c as f32).collect();
            let beta: Vec<f32> = (0..d).map(|c| 0.02 * c as f32 - 0.3).collect();
            let (want, want_inv_std, want_xhat) = layernorm_per_row(&x, &gamma, &beta);
            let label = format!("layernorm {rows}x{d}");
            let _guard = thread_lock();
            for backend in backends() {
                set_backend(backend);
                let (out, cache) = layernorm_forward(&x, &gamma, &beta);
                assert_eq!(bits(&out), bits(&want), "{label} at {backend:?}: output");
                assert_eq!(bits(&cache.normalized), bits(&want_xhat), "{label} at {backend:?}: x̂");
                let inv_std: Vec<u32> = cache.inv_std.iter().map(|v| v.to_bits()).collect();
                let want_inv: Vec<u32> = want_inv_std.iter().map(|v| v.to_bits()).collect();
                assert_eq!(inv_std, want_inv, "{label} at {backend:?}: inv_std");
                let tape_free = layernorm_rows(&x, &gamma, &beta);
                assert_eq!(bits(&tape_free), bits(&want), "{label} at {backend:?}: tape-free");
            }
        }
    }
    // Width 0: no features to normalize, a finite placeholder inv_std.
    let _guard = thread_lock();
    for backend in backends() {
        set_backend(backend);
        let x = Matrix::zeros(9, 0);
        let (out, cache) = layernorm_forward(&x, &[], &[]);
        assert_eq!((out.shape(), cache.normalized.shape()), ((9, 0), (9, 0)));
        assert_eq!(cache.inv_std, vec![1.0; 9], "width 0 at {backend:?}");
        assert_eq!(layernorm_rows(&x, &[], &[]).shape(), (9, 0));
    }
}

#[test]
fn int8_qmatmul_is_backend_and_thread_invariant_bitwise() {
    // The int8 product accumulates exactly in i32 and dequantizes with one
    // fixed float expression, so *every* backend × thread combination must
    // agree bitwise — a stronger contract than the f32 training path, which
    // only promises invariance for a fixed association order. One loop
    // implements it on every backend today; the grid stays so a backend
    // that ever overrides it meets the contract. Sizes cross the parallel
    // threshold.
    let qa = QuantizedMatrix::quantize(&dense_rough(67, 70, 13));
    let qw = QuantizedWeights::quantize(&dense_rough(70, 51, 14));
    let _guard = thread_lock();
    set_backend(Backend::Scalar);
    set_threads(1);
    let baseline = qmatmul(&qa, &qw);
    for backend in backends() {
        for threads in [1usize, 3, 8] {
            set_backend(backend);
            set_threads(threads);
            let got = qmatmul(&qa, &qw);
            assert_eq!(
                bits(&baseline),
                bits(&got),
                "qmatmul at {backend:?} × {threads} threads differs from scalar × 1"
            );
        }
    }
    set_backend(Backend::Simd);
    set_threads(0);
}

#[test]
fn fast_kernels_are_ulp_bounded_against_references() {
    let a = dense_rough(33, 70, 10);
    let b = dense_rough(70, 41, 11);
    let batch = 8;
    let s = dense_rough(batch * 5, 5, 13);
    let v = dense_rough(batch * 5, 21, 14);
    let _guard = thread_lock();
    for backend in backends() {
        set_backend(backend);
        assert_fast_close("matmul_fast", &a.matmul_reference(&b), &a.matmul_fast(&b));
        assert_fast_close(
            "batched_matmul_fast",
            &s.batched_matmul_reference(&v, batch),
            &s.batched_matmul_fast(&v, batch),
        );
        assert_fast_close(
            "batched_matmul_nt_fast",
            &v.batched_matmul_nt_reference(&v, batch),
            &v.batched_matmul_nt_fast(&v, batch),
        );
    }
    set_backend(Backend::Simd);
}

#[test]
fn fast_kernels_are_thread_invariant_for_fixed_backend() {
    // The fast path gives up bit equality with the training path, NOT
    // determinism: the lane reduction tree is fixed, so thread count still
    // cannot change a bit. Both shapes cross the parallel threshold.
    let a = dense_rough(130, 70, 15);
    let b = dense_rough(70, 90, 16);
    let batch = 512;
    let q = dense_rough(batch * 5, 64, 17);
    let _guard = thread_lock();
    for backend in backends() {
        set_backend(backend);
        for (label, op) in [
            ("matmul_fast", Box::new(|| a.matmul_fast(&b)) as Box<dyn Fn() -> Matrix>),
            ("batched_matmul_nt_fast", Box::new(|| q.batched_matmul_nt_fast(&q, batch))),
        ] {
            set_threads(1);
            let single = op();
            for threads in [3usize, 8] {
                set_threads(threads);
                assert_eq!(
                    bits(&single),
                    bits(&op()),
                    "{label} at {backend:?} × {threads} threads differs from 1 thread"
                );
            }
        }
    }
    set_backend(Backend::Simd);
    set_threads(0);
}

// ---------------------------------------------------------------------------
// Property-based differentials vs the naive references
// ---------------------------------------------------------------------------

/// A pair of matrices with a shared inner dimension.
fn matmul_pair(rng: &mut impl Rng) -> (Matrix, Matrix) {
    let (m, k, n) = (rng.gen_range(1..=8), rng.gen_range(1..=8), rng.gen_range(1..=8));
    let a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-3.0..3.0));
    (a, Matrix::from_fn(k, n, |_, _| rng.gen_range(-3.0..3.0)))
}

#[test]
fn matmul_matches_reference() {
    cases(256, |rng| {
        let (a, b) = matmul_pair(rng);
        assert!(a.matmul(&b).max_abs_diff(&a.matmul_reference(&b)) < 1e-4);
    });
}

#[test]
fn matmul_nt_matches_reference() {
    cases(256, |rng| {
        let (a, b) = matmul_pair(rng);
        let bt = b.transpose();
        assert!(a.matmul_nt(&bt).max_abs_diff(&a.matmul_nt_reference(&bt)) < 1e-4);
    });
}

#[test]
fn matmul_tn_matches_reference() {
    cases(256, |rng| {
        let (a, b) = matmul_pair(rng);
        let at = a.transpose();
        assert!(at.matmul_tn(&b).max_abs_diff(&at.matmul_tn_reference(&b)) < 1e-4);
    });
}

#[test]
fn batched_kernels_match_references() {
    cases(256, |rng| {
        let (a, b) = matmul_pair(rng);
        let batch = rng.gen_range(1..4usize);
        let ba = Matrix::from_vec(batch * a.rows(), a.cols(), a.as_slice().repeat(batch));
        let bb = Matrix::from_vec(batch * b.rows(), b.cols(), b.as_slice().repeat(batch));
        let pairs = [
            (ba.batched_matmul(&bb, batch), ba.batched_matmul_reference(&bb, batch)),
            // nt/tn need equal block-row counts; reuse `ba` against itself.
            (ba.batched_matmul_nt(&ba, batch), ba.batched_matmul_nt_reference(&ba, batch)),
            (ba.batched_matmul_tn(&ba, batch), ba.batched_matmul_tn_reference(&ba, batch)),
        ];
        for (kernel, reference) in pairs {
            assert!(kernel.max_abs_diff(&reference) < 1e-4);
        }
    });
}

/// Every width class around the lane boundaries (remainders 0..=7 of the
/// 8-wide ymm and the 16-wide zmm lanes) and every row remainder of the
/// six-row panel must keep the scalar-vs-SIMD training contract bitwise
/// and the fast path inside tolerance. Up to 80 columns, one product can
/// run a 32-column zmm group, a 16-column ymm tile and the scalar tail.
#[test]
fn backend_contract_holds_at_any_lane_remainder() {
    cases(256, |rng| {
        let (m, k, n) = (rng.gen_range(1..=14), rng.gen_range(1..=80), rng.gen_range(1..=80));
        let seed = rng.gen_range(0..1000usize);
        let (a, b) = (dense_rough(m, k, seed), dense_rough(k, n, seed + 1));
        let _guard = thread_lock();
        // In order, so the default (`Backend::Simd`) is what stays selected.
        let runs: Vec<_> = backends()
            .into_iter()
            .map(|backend| {
                set_backend(backend);
                (backend, a.matmul(&b), a.matmul_fast(&b))
            })
            .collect();
        drop(_guard);
        let reference = a.matmul_reference(&b);
        for (backend, train, fast) in &runs {
            assert_eq!(bits(&runs[0].1), bits(train), "{m}x{k}x{n} at {backend:?}");
            for (&w, &g) in reference.as_slice().iter().zip(fast.as_slice()) {
                assert!(
                    approx_eq_ulps(w, g, 1024) || approx_eq_eps(w, g, 1e-5),
                    "{backend:?} fast path outside tolerance: {w} vs {g}"
                );
            }
        }
    });
}

/// CSR assembly of COO triplets with half-integer values (exact duplicate
/// sums) matches a sorted-map oracle.
#[test]
fn from_coo_matches_btreemap_oracle() {
    cases(256, |rng| {
        let (rows, cols) = (rng.gen_range(1..=6), rng.gen_range(1..=6));
        let mut triplets = Vec::new();
        for _ in 0..rng.gen_range(0..40) {
            let (r, c) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
            triplets.push((r, c, rng.gen_range(-8i32..8) as f32 * 0.5));
        }
        let csr = CsrMatrix::from_coo(rows, cols, &triplets);
        let dense_oracle = coo_oracle(rows, cols, &triplets);
        assert_eq!(bits(&csr.to_dense()), bits(&dense_oracle));
        // Columns within each row are strictly ascending (duplicates merged).
        for r in 0..rows {
            let row_cols: Vec<usize> = csr.row_entries(r).map(|(c, _)| c).collect();
            assert!(row_cols.windows(2).all(|w| w[0] < w[1]), "row {} not sorted/merged", r);
        }
    });
}
