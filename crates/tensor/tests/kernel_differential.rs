//! Differential tests of the dense products (`Matrix::gemm`, against its
//! one naive oracle `Matrix::gemm_reference`), the LayerNorm, sparse and
//! int8 kernels, plus bitwise thread-count- and backend-invariance checks.
//!
//! The determinism contract under test: every kernel's output is a pure
//! function of its inputs — chunk decompositions depend only on shapes and
//! partial results reduce in fixed order — so running with 1 thread and with
//! 8 threads must produce *bitwise identical* floats.

use hoga_check::cases;
use hoga_tensor::{
    active_backend, approx_eq_eps, approx_eq_ulps, layernorm_forward, layernorm_rows, qmatmul,
    readout_logits, readout_sum, set_backend, set_threads, with_threads, Backend, CsrMatrix, Gemm,
    Layout, Matrix, QuantizedMatrix, QuantizedWeights,
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
// Every dense product against the one oracle
// ---------------------------------------------------------------------------

/// `to_bits` of every element with every NaN read as one pattern: which
/// NaN an operation returns is the code generator's choice, so "bitwise"
/// fixes where NaNs are, not their payloads.
fn canonical_bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() }).collect()
}

/// `(rows, cols)` of `a` and of `b` for `blocks` blocks of an `m × n`
/// product over `k` at `layout`.
fn operand_shapes(
    layout: Layout,
    blocks: usize,
    (m, k, n): (usize, usize, usize),
) -> ((usize, usize), (usize, usize)) {
    match layout {
        Layout::Nn => ((blocks * m, k), (blocks * k, n)),
        Layout::Nt => ((blocks * m, k), (blocks * n, k)),
        Layout::Tn => ((blocks * k, m), (blocks * k, n)),
    }
}

/// Asserts `a.gemm(b, g)` is bitwise the same at 1, 3 and 8 threads and
/// is `gemm_reference` — bit for bit (NaN positions included) when
/// `tolerance` is 0, within it otherwise.
fn assert_is_the_oracle(g: Gemm, a: &Matrix, b: &Matrix, tolerance: f32) {
    let label = format!("{g:?} of {:?} and {:?}", a.shape(), b.shape());
    let got = assert_thread_invariant(&label, || a.gemm(b, g));
    let want = a.gemm_reference(b, g);
    assert_eq!(got.shape(), want.shape(), "{label}: shape");
    if tolerance == 0.0 {
        assert_eq!(canonical_bits(&got), canonical_bits(&want), "{label}");
    } else {
        assert!(got.max_abs_diff(&want) < tolerance, "{label}");
    }
}

/// Asserts the fused `a · b` of `g` is its exact one bit for bit, NaN
/// positions included: both run one fused multiply-add per `k`, ascending,
/// bitwise-zero coefficients skipped — the fused one row at a time, the
/// exact one through the register tile, or eight rows abreast at `n = 1`.
fn assert_fused_nn_is_exact(g: Gemm, a: &Matrix, b: &Matrix) {
    let label = format!("{:?} of {:?} and {:?}", g.fused(), a.shape(), b.shape());
    let fused = assert_thread_invariant(&label, || a.gemm(b, g.fused()));
    assert_eq!(canonical_bits(&fused), canonical_bits(&a.gemm(b, g)), "{label}");
}

/// One property over layout × batch × shape. An exact product adds one
/// fused product per `k`, ascending, to a `+0.0` accumulator; its zero skip is a
/// bitwise no-op on finite operands (whose products here never underflow,
/// so the accumulator is never `−0.0`), so
/// there every exact product is the naive oracle bit for bit — except an
/// unbatched `aᵀ · b` of more than 2¹⁸ multiply-adds, which sums chunk
/// partials (within today's 2e-2 at 600 rows). A batched `a · bᵀ` skips
/// nothing, so it is the oracle on every input, `−0.0` rows, `±∞` and NaN
/// included. Each product is also checked at 1, 3 and 8 threads: the
/// trainer's shapes here cross the parallel threshold. Every `a · b` is
/// also checked against its fused form, which must give the same bits on
/// every input — one output column, `±0.0` rows, `±∞` and NaN included.
/// The trainer's narrow `aᵀ · b` must give the scalar backend's bits on
/// every backend, on those inputs too.
#[test]
fn gemm_is_the_oracle_on_every_layout_batch_and_shape() {
    // The trainer's shapes: a linear layer, its dX = dY·Wᵀ and its
    // chunked dW = Xᵀ·dY, and Eq. 7's products at batch 512, K + 1 = 5,
    // d = 64.
    let trainer = [
        (Gemm::NN, dense(130, 70, 1), dense(70, 90, 2), 0.0),
        (Gemm::NT, dense(130, 70, 3), dense(90, 70, 4), 0.0),
        (Gemm::TN, dense(600, 40, 5), dense(600, 44, 6), 2e-2),
        (Gemm::NN.batched(512), dense(512 * 5, 5, 7), dense(512 * 5, 64, 8), 0.0),
        (Gemm::NT.batched(512), dense(512 * 5, 64, 9), dense(512 * 5, 64, 10), 0.0),
        (Gemm::TN.batched(512), dense(512 * 5, 5, 11), dense(512 * 5, 64, 12), 0.0),
    ];
    for (g, a, b, tolerance) in &trainer {
        assert_is_the_oracle(*g, a, b, *tolerance);
        if g.layout == Layout::Nn {
            assert_fused_nn_is_exact(*g, a, b);
        }
    }
    // One output column (the readout's `[Ĥ₀ ‖ Ĥₖ]·α`): the exact product
    // runs eight rows abreast, the fused one the row body; with rows of
    // `0.0` and `−0.0` and a `+∞`, `−∞` and NaN in either operand.
    for (g, (m, k)) in [(Gemm::NN, (70, 130)), (Gemm::NN, (13, 5)), (Gemm::NN.batched(3), (9, 7))] {
        let ((ar, ac), (br, bc)) = operand_shapes(g.layout, g.batch.unwrap_or(1), (m, k, 1));
        let (mut a, mut b) = (dense(ar, ac, ar + 3), dense(br, bc, ac + 4));
        assert_fused_nn_is_exact(g, &a, &b);
        a.row_mut(1).fill(0.0);
        a.row_mut(2).fill(-0.0);
        a[(3, 1)] = f32::INFINITY;
        a[(4, 0)] = f32::NEG_INFINITY;
        a[(5, 2)] = f32::NAN;
        b[(0, 0)] = -0.0;
        b[(2, 0)] = f32::INFINITY;
        b[(4, 0)] = f32::NAN;
        assert_fused_nn_is_exact(g, &a, &b);
    }
    // The trainer's narrow `aᵀ · b` (fewer than 16 output columns): a
    // block's readout dα and classifier dW, then the whole batch's. At 4 608
    // rows the product sums chunk partials, exactly here (quarter-integer
    // operands). Then, on every backend at 1 and 8 threads, `0.0` and
    // `−0.0` rows and a `+∞`, `−∞` and NaN in either operand.
    for (k, m, n) in [(256, 128, 1), (32, 64, 4), (4608, 128, 1), (512, 64, 4)] {
        let (mut a, mut b) = (dense(k, m, k + m), dense(k, n, k + n + 1));
        assert_is_the_oracle(Gemm::TN, &a, &b, 0.0);
        a.row_mut(1).fill(0.0);
        a.row_mut(2).fill(-0.0);
        a[(3, 1)] = f32::INFINITY;
        a[(4, 0)] = f32::NEG_INFINITY;
        a[(5, m - 1)] = f32::NAN;
        b.row_mut(6).fill(-0.0);
        b[(7, 0)] = f32::INFINITY;
        b[(8, n - 1)] = f32::NEG_INFINITY;
        b[(9, 0)] = f32::NAN;
        let label = format!("special TN of {:?} and {:?}", a.shape(), b.shape());
        let at = |threads| {
            assert_backend_invariant(&format!("{label} at {threads} threads"), || {
                with_threads(threads, || a.gemm(&b, Gemm::TN))
            })
        };
        assert_eq!(canonical_bits(&at(1)), canonical_bits(&at(8)), "{label}: 1 vs 8 threads");
    }
    // Small fixed shapes on every layout, unbatched and batched: a 9-wide
    // product crosses the 8-lane remainder, and the blocks are not square.
    let small = [
        (Gemm::NN, (7, 5, 9)),
        (Gemm::NT, (4, 6, 5)),
        (Gemm::TN, (6, 4, 3)),
        (Gemm::NN.batched(3), (2, 4, 3)),
        (Gemm::NT.batched(2), (3, 4, 3)),
        (Gemm::TN.batched(2), (4, 3, 4)),
    ];
    for (g, mkn) in small {
        let ((ar, ac), (br, bc)) = operand_shapes(g.layout, g.batch.unwrap_or(1), mkn);
        assert_is_the_oracle(g, &dense(ar, ac, ar + 1), &dense(br, bc, bc + 2), 0.0);
    }
    let forms = |layout| {
        let g = Gemm { layout, batch: None, fused: false };
        [g, g.batched(1), g.batched(4)]
    };
    // Zero dimensions: an empty sum is `+0.0`, and an empty side gives an
    // empty result of the right shape.
    let sizes = [0usize, 2, 3, 4, 5, 6];
    let shapes = sizes.map(|m| sizes.map(|k| sizes.map(|n| (m, k, n))));
    for layout in [Layout::Nn, Layout::Nt, Layout::Tn] {
        for g in forms(layout) {
            for (m, k, n) in shapes.as_flattened().as_flattened() {
                if m * k * n > 0 {
                    continue;
                }
                let ((ar, ac), (br, bc)) =
                    operand_shapes(layout, g.batch.unwrap_or(1), (*m, *k, *n));
                assert_is_the_oracle(g, &dense(ar, ac, m + k), &dense(br, bc, *n), 0.0);
            }
        }
    }
    cases(256, |rng| {
        let layout = [Layout::Nn, Layout::Nt, Layout::Tn][rng.gen_range(0..3)];
        let g = forms(layout)[rng.gen_range(0..3)];
        let g = if g.batch == Some(4) { g.batched(rng.gen_range(2..4)) } else { g };
        let (m, k, n) = (rng.gen_range(1..=8), rng.gen_range(1..=8), rng.gen_range(1..=8));
        let ((ar, ac), (br, bc)) = operand_shapes(layout, g.batch.unwrap_or(1), (m, k, n));
        let a = Matrix::from_fn(ar, ac, |_, _| rng.gen_range(-3.0..3.0));
        let b = Matrix::from_fn(br, bc, |_, _| rng.gen_range(-3.0..3.0));
        assert_is_the_oracle(g, &a, &b, 0.0);
        if layout == Layout::Nn {
            assert_fused_nn_is_exact(g, &a, &b);
        }
        if layout == Layout::Nn || (layout == Layout::Nt && g.batch.is_some()) {
            // Signed-zero rows and non-finite entries, on both sides.
            let mut special = |m: &Matrix| {
                let mut m = m.clone();
                let r = rng.gen_range(0..m.rows());
                let fill = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
                m.row_mut(r).fill(fill[rng.gen_range(0..2)]);
                let (r, c) = (rng.gen_range(0..m.rows()), rng.gen_range(0..m.cols()));
                m[(r, c)] = fill[rng.gen_range(0..5)];
                m
            };
            let (a, b) = (special(&a), special(&b));
            if layout == Layout::Nn {
                assert_fused_nn_is_exact(g, &a, &b);
            } else {
                assert_is_the_oracle(g, &a, &b, 0.0);
            }
        }
    });
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
    assert!(out.max_abs_diff(&a.to_dense().gemm_reference(&x, Gemm::NN)) < 1e-3);
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
    for (r, c) in [(0, 5), (5, 0), (1, 1), (31, 33), (32, 32), (64, 1), (1, 64), (45, 70), (100, 3)]
    {
        let a = dense(r, c, r * 100 + c);
        assert_eq!(a.transpose(), a.transpose_reference(), "transpose mismatch at ({r}, {c})");
    }
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
    assert_backend_invariant("Gemm::NT", || a.gemm(&bt, Gemm::NT));
    let a2 = dense_rough(70, 37, 4);
    assert_backend_invariant("Gemm::TN", || a2.gemm(&b, Gemm::TN));

    let batch = 16;
    let s = dense_rough(batch * 5, 5, 5);
    let v = dense_rough(batch * 5, 27, 6);
    assert_backend_invariant("Gemm::NN.batched", || s.gemm(&v, Gemm::NN.batched(batch)));
    let q = dense_rough(batch * 5, 27, 7);
    assert_backend_invariant("Gemm::NT.batched", || q.gemm(&v, Gemm::NT.batched(batch)));
    assert_backend_invariant("Gemm::TN.batched", || s.gemm(&v, Gemm::TN.batched(batch)));
}

#[test]
fn matmul_nt_is_bitwise_the_reference_and_matmul_of_the_transpose() {
    // `Gemm::NT` is `matmul` over a transposed copy, and `matmul` adds one
    // product per k, ascending, to a +0.0 accumulator, skipping only
    // bitwise-zero multipliers — on finite inputs that is the naive oracle
    // bit for bit, at every thread count and on both backends. Shapes are
    // m × k × n for (m × k)·(n × k)ᵀ; the last is the trainer's dX = dY·Wᵀ.
    let shapes = [(1, 1, 1), (7, 13, 5), (33, 1, 128), (5, 64, 3), (130, 70, 90), (4608, 64, 64)];
    for (m, k, n) in shapes {
        for (name, make) in [("dense", dense as fn(_, _, _) -> _), ("dense_rough", dense_rough)] {
            let a = make(m, k, m + n);
            let b = make(n, k, k + n + 1);
            let label = format!("Gemm::NT {m}x{k}x{n} on {name} operands");
            let want = bits(&a.gemm_reference(&b, Gemm::NT));
            let threaded = assert_thread_invariant(&label, || a.gemm(&b, Gemm::NT));
            assert_eq!(bits(&threaded), want, "{label}: differs bitwise from the reference");
            let scalar = assert_backend_invariant(&label, || a.gemm(&b, Gemm::NT));
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

/// Eq. 10's two tape-free kernels are the ops the tape records, bit for bit
/// (NaN positions, not payloads), on every backend: `readout_logits` is the
/// gathered `[Ĥ₀ ‖ Ĥₖ] · α` (`select_rows`, `concat_cols`, `Gemm::NN`) and
/// `readout_sum` the batched `(1 × K) · (K × d)` product of the scores and
/// `Ĥ₁..Ĥ_K` plus `Ĥ₀` — exact and fused alike — for `d` from one column
/// to the ledger's 64 and `K` of 1, 5 and 8. The special inputs put a
/// `+0.0` and a `−0.0` hop row where `α` holds `±∞` and NaN (every lane
/// there skipped), `±∞` and NaN in `h`, and `±0.0`, `±∞` and NaN in the
/// scores.
#[test]
fn readout_kernels_are_backend_invariant_and_the_ops_they_replace_bitwise() {
    let nodes = 11;
    for d in [1, 7, 16, 64] {
        for k in [1, 5, 8] {
            let k1 = k + 1;
            for specials in [false, true] {
                let mut h = dense_rough(nodes * k1, d, d + k);
                let mut alpha = dense_rough(2 * d, 1, d * k + 1);
                let mut scores = dense_rough(nodes, k, d + 2 * k);
                if specials {
                    h.row_mut(1).fill(0.0);
                    h.row_mut(k1).fill(-0.0);
                    h[(3 * k1, d - 1)] = f32::INFINITY;
                    h[(4 * k1 + k, 0)] = f32::NEG_INFINITY;
                    h[(5 * k1 + 1, d / 2)] = f32::NAN;
                    for (row, v) in [
                        (0, f32::NEG_INFINITY),
                        (d - 1, f32::INFINITY),
                        (d, -0.0),
                        (2 * d - 1, f32::NAN),
                    ] {
                        alpha[(row, 0)] = v;
                    }
                    for (node, hop, v) in [
                        (6, 0, 0.0),
                        (7, k - 1, -0.0),
                        (8, 0, f32::INFINITY),
                        (9, k / 2, f32::NAN),
                        (10, k - 1, f32::NEG_INFINITY),
                    ] {
                        scores[(node, hop)] = v;
                    }
                }
                let label =
                    format!("readout d {d} K {k}{}", if specials { ", specials" } else { "" });
                let idx0: Vec<usize> = (0..nodes).map(|b| b * k1).collect();
                let idx0_rep: Vec<usize> =
                    (0..nodes).flat_map(|b| std::iter::repeat_n(b * k1, k)).collect();
                let idx_rest: Vec<usize> =
                    (0..nodes).flat_map(|b| (1..k1).map(move |hop| b * k1 + hop)).collect();
                let (h0, h_rest) = (h.select_rows(&idx0), h.select_rows(&idx_rest));
                let cat = h.select_rows(&idx0_rep).concat_cols(&h_rest);
                let logits =
                    assert_backend_invariant(&label, || readout_logits(&h, alpha.as_slice(), k1));
                let y = assert_backend_invariant(&label, || readout_sum(&h, &scores, k1));
                for g in [Gemm::NN, Gemm::NN.fused()] {
                    let want = cat.gemm(&alpha, g);
                    let want = Matrix::from_vec(nodes, k, want.as_slice().to_vec());
                    assert_eq!(canonical_bits(&logits), canonical_bits(&want), "{label}: {g:?}");
                    let want = &h0 + &scores.gemm(&h_rest, g.batched(nodes));
                    assert_eq!(canonical_bits(&y), canonical_bits(&want), "{label}: {g:?} sum");
                }
            }
        }
    }
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
    // only promises invariance for a fixed association order. Sizes cross
    // the parallel threshold.
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

/// The int8 product row on every backend over the shapes around its
/// vector groups: `k` odd and even (a zero-padded last pair), `n` on both
/// sides of the 8-, 16-, 32- and 64-column groups, an all-zero row (every
/// code 0) and an all-`−1` row (every code `−128`). Every sum is an exact
/// `i32`, so the scalar loop is the reference bit for bit.
#[test]
fn int8_product_rows_are_backend_invariant_bitwise() {
    for k in [0usize, 1, 2, 7, 63, 64, 65, 1024] {
        for n in [1usize, 7, 15, 16, 17, 31, 32, 64, 65] {
            let mut a = dense_rough(5, k, k + n);
            a.row_mut(1).fill(0.0);
            a.row_mut(3).fill(-1.0);
            let qa = QuantizedMatrix::quantize(&a);
            let qw = QuantizedWeights::quantize(&dense_rough(k, n, 7 * k + n));
            assert_backend_invariant(&format!("qmatmul {k}x{n}"), || qmatmul(&qa, &qw));
        }
    }
    // The extreme codes, −128 × −127, at every step of k = 1024: the widest
    // sum a HOGA width meets, exact in i32, and a·w = 1024 back in f32.
    let qa = QuantizedMatrix::quantize(&Matrix::from_fn(3, 1024, |_, _| -1.0));
    let qw = QuantizedWeights::quantize(&Matrix::from_fn(1024, 65, |_, _| -1.0));
    assert!(qa.row_codes(2).0.iter().all(|&c| c == -128), "−1 is the row minimum, code −128");
    let got = assert_backend_invariant("qmatmul extreme codes", || qmatmul(&qa, &qw));
    for &v in got.as_slice() {
        assert!((v - 1024.0).abs() < 1e-3, "extreme codes dequantize to {v}, not 1024");
    }
}

/// Quantizer rows whose codes a vector lane could get wrong, each cycled
/// to widths on both sides of the 8-lane vector: exact `.5` ties after
/// the divide (`f32::round` rounds them away from zero), `±0.0`,
/// subnormals (alone, a scale that underflows to 0), a span that overflows
/// to `∞`, `±∞` and NaN in the body and in the tail, constant and all-zero
/// rows. Codes, scale bits and zero point agree on every backend.
#[test]
fn int8_quantizer_rows_are_backend_invariant_bitwise() {
    let tiny = f32::from_bits(1);
    let (inf, nan) = (f32::INFINITY, f32::NAN);
    let patterns: [&[f32]; 12] = [
        &[127.5, -127.5, 0.5, -0.5, 2.5, -2.5, 126.5, 1.5, -1.5, 0.0, -0.0],
        &[255.0, -255.0, 1.0, -1.0, 3.0, -5.0, 7.0, 253.0, -253.0],
        &[0.0, -0.0],
        &[0.0],
        &[3.0],
        &[-2.0, -2.0, -2.0],
        &[tiny, -tiny, 0.0, 3.0 * tiny],
        &[f32::MIN_POSITIVE, tiny, -f32::MIN_POSITIVE / 3.0, 1e-30],
        &[f32::MAX, -f32::MAX, 1.0],
        &[1.0, -0.5, inf, 0.25],
        &[-inf, 0.75],
        &[0.5, nan, -0.125],
    ];
    let widths = [1usize, 7, 8, 9, 15, 16, 17, 31, 33, 64, 65];
    for width in widths {
        let mut rows: Vec<Vec<f32>> =
            patterns.iter().map(|p| (0..width).map(|i| p[i % p.len()]).collect()).collect();
        // A NaN at every position of a rough row: in a vector body or a tail.
        let rough = dense_rough(1, width, width);
        for at in 0..width {
            let mut row = rough.row(0).to_vec();
            row[at] = nan;
            rows.push(row);
        }
        rows.push(rough.row(0).to_vec());
        let m = Matrix::from_fn(rows.len(), width, |r, c| rows[r][c]);
        let quantized = |q: &QuantizedMatrix| -> Vec<(Vec<i8>, u32, i32)> {
            (0..q.rows())
                .map(|r| q.row_codes(r))
                .map(|(c, s, z)| (c.to_vec(), s.to_bits(), z))
                .collect()
        };
        let _guard = thread_lock();
        let mut runs = backends().into_iter().map(|backend| {
            set_backend(backend);
            (backend, quantized(&QuantizedMatrix::quantize(&m)))
        });
        let (_, scalar) = runs.next().expect("the scalar reference runs first");
        for (backend, simd) in runs {
            for (r, (want, got)) in scalar.iter().zip(&simd).enumerate() {
                assert_eq!(want, got, "width {width} row {r} {:?} at {backend:?}", rows[r]);
            }
        }
        // Ties round away from zero: with ±127.5 both in the row, scale 1
        // and zero point round(−0.5) = −1.
        if width >= 2 {
            let ties = [127i8, -128, 0, -2, 2, -4, 126, 1, -3, -1, -1];
            assert_eq!(scalar[0].0, ties.iter().cycle().take(width).copied().collect::<Vec<_>>());
            assert_eq!((f32::from_bits(scalar[0].1), scalar[0].2), (1.0, -1));
        }
        for (r, (codes, scale, zp)) in scalar.iter().enumerate() {
            if !rows[r].iter().all(|v| v.is_finite()) {
                assert!(f32::from_bits(*scale).is_nan() && *zp == 0, "row {r}: {:?}", rows[r]);
                assert!(codes.iter().all(|&c| c == 0), "row {r}: {codes:?}");
            }
        }
    }
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
        assert_fast_close(
            "matmul_fast",
            &a.gemm_reference(&b, Gemm::NN),
            &a.gemm(&b, Gemm::NN.fused()),
        );
        assert_fast_close(
            "batched_matmul_fast",
            &s.gemm_reference(&v, Gemm::NN.batched(batch)),
            &s.gemm(&v, Gemm::NN.batched(batch).fused()),
        );
        assert_fast_close(
            "batched_matmul_nt_fast",
            &v.gemm_reference(&v, Gemm::NT.batched(batch)),
            &v.gemm(&v, Gemm::NT.batched(batch).fused()),
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
            ("matmul_fast", Box::new(|| a.gemm(&b, Gemm::NN.fused())) as Box<dyn Fn() -> Matrix>),
            ("batched_matmul_nt_fast", Box::new(|| q.gemm(&q, Gemm::NT.batched(batch).fused()))),
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
                (backend, a.matmul(&b), a.gemm(&b, Gemm::NN.fused()))
            })
            .collect();
        drop(_guard);
        let reference = a.gemm_reference(&b, Gemm::NN);
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

// ---------------------------------------------------------------------------
// The product bits, pinned
// ---------------------------------------------------------------------------

/// `a` op `b` at `layout`: one product of the whole operands (`batch` is
/// `None`) or of `batch` stacked blocks, fused where `fused`. `None` for a
/// combination with no fused body (unbatched `a · bᵀ`, and `aᵀ · b`).
fn pinned_product(
    layout: Layout,
    batch: Option<usize>,
    fused: bool,
    a: &Matrix,
    b: &Matrix,
) -> Option<Matrix> {
    let has_body = !fused || layout == Layout::Nn || (layout == Layout::Nt && batch.is_some());
    has_body.then(|| a.gemm(b, Gemm { layout, batch, fused }))
}

/// Irregular values with signed zeros sprinkled in and, when `specials`,
/// rows of `0.0`, rows of `−0.0`, and rows holding one `+∞`, `−∞` or NaN.
fn pinned_operand(rows: usize, cols: usize, salt: usize, specials: bool) -> Matrix {
    let mut m = Matrix::from_fn(rows, cols, |r, c| {
        let h = r.wrapping_mul(53).wrapping_add(c.wrapping_mul(19)).wrapping_add(salt * 211);
        match h % 29 {
            0 => 0.0,
            1 => -0.0,
            _ => ((h % 23) as f32) * 0.137 - 1.41,
        }
    });
    if specials && cols > 0 {
        for r in 0..rows {
            let at = (r * 7 + salt) % cols;
            match (r + salt) % 13 {
                1 => m.row_mut(r).fill(0.0),
                2 => m.row_mut(r).fill(-0.0),
                3 => m[(r, at)] = f32::INFINITY,
                4 => m[(r, at)] = f32::NEG_INFINITY,
                5 => m[(r, at)] = f32::NAN,
                _ => {}
            }
        }
    }
    m
}

/// FNV-1a over the shape and the output bits of every product the crate
/// exposes: the three layouts, unbatched and in 1, 3 and 64 blocks, exact
/// and fused where a fused form exists, at widths n ∈ {1, 7, 16, 33} and
/// shared dimensions k ∈ {0, 1, 5, 130}, on finite operands and on
/// operands with signed-zero rows, ±∞ and NaN, plus one unbatched `aᵀ · b`
/// above the 2¹⁸-multiply-add chunk bound. Every NaN hashes as one
/// pattern, so the hash fixes where NaNs are, not their payloads.
fn product_hash() -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u32| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut eat_matrix = |m: &Matrix| {
        eat(m.rows() as u32);
        eat(m.cols() as u32);
        for v in m.as_slice() {
            eat(if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() });
        }
    };
    for specials in [false, true] {
        for n in [1usize, 7, 16, 33] {
            for k in [0usize, 1, 5, 130] {
                for batch in [None, Some(1usize), Some(3), Some(64)] {
                    // Rows of one block of `a · b`: unbatched products run
                    // the six-row panels and their remainder and split
                    // across threads at the largest shapes.
                    let (blocks, m) = match batch {
                        None => (1, 70),
                        Some(batch) => (batch, 7),
                    };
                    let salt = n * 1000 + k * 10 + blocks;
                    for layout in [Layout::Nn, Layout::Nt, Layout::Tn] {
                        let (a, b) = match layout {
                            Layout::Nn => ((blocks * m, k), (blocks * k, n)),
                            Layout::Nt => ((blocks * m, k), (blocks * n, k)),
                            Layout::Tn => ((blocks * k, m), (blocks * k, n)),
                        };
                        let a = pinned_operand(a.0, a.1, salt, specials);
                        let b = pinned_operand(b.0, b.1, salt + 1, specials);
                        for fused in [false, true] {
                            if let Some(out) = pinned_product(layout, batch, fused, &a, &b) {
                                eat_matrix(&out);
                            }
                        }
                    }
                }
            }
        }
        // 40 · 600 · 44 multiply-adds: five k-chunks.
        let a = pinned_operand(600, 40, 5, specials);
        let b = pinned_operand(600, 44, 6, specials);
        eat_matrix(&pinned_product(Layout::Tn, None, false, &a, &b).expect("exact"));
    }
    hash
}

/// The product bits, fixed on every backend at one and at eight threads.
#[test]
fn product_bits_are_pinned_and_backend_invariant() {
    const PINNED: u64 = 0x33cb_3203_a266_e8a6;
    let _guard = thread_lock();
    for backend in backends() {
        for threads in [1usize, 8] {
            set_backend(backend);
            set_threads(threads);
            let got = product_hash();
            assert_eq!(got, PINNED, "{backend:?} x {threads} threads: {got:#018x}");
        }
    }
    set_backend(Backend::Simd);
    set_threads(0);
}
