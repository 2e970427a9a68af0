//! The backward kernels against the chains they promise, bit for bit.
//!
//! `Gemm::TN` runs each `k`-chunk through `matmul`'s register-tiled panels
//! (on the chunk's transpose) or, for outputs narrower than one 16-column
//! tile, through a loop of its own; both must reproduce the loop they
//! replaced — kept here as `tn_parent` — on every input: the same
//! `tn_chunk_count` decomposition, per element one multiply and one add per
//! `k`, ascending, bitwise-zero coefficients skipped, and the partials
//! summed in ascending chunk order. `Gemm::NT.batched(b)` runs each block
//! through a score tile that must be `gemm_reference`'s exactly:
//! `+0.0`, then `+= q·k` per `k`, ascending, no fused multiply-add and no
//! zero skip. Both are checked at 1, 2 and 3 kernel threads on the scalar
//! backend, the AVX2 one and the default (the widest the CPU reports), with
//! signed zeros, infinities and NaNs in either operand.

use hoga_tensor::{set_backend, set_threads, Backend, Gemm, Matrix};
use std::ops::Range;
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `to_bits` of every element, with every NaN read as one pattern: Rust
/// leaves the payload of a NaN result unspecified (which of two NaN
/// operands an add returns is the code generator's choice), so "bitwise"
/// here means every non-NaN bit pattern, signed zeros included, and NaN
/// exactly where the oracle has NaN.
fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() }).collect()
}

/// Irregular values (not exactly representable sums) with both signed
/// zeros sprinkled in and, when `specials`, an occasional ±∞ or NaN.
fn operand(rows: usize, cols: usize, salt: usize, specials: bool) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = r.wrapping_mul(53).wrapping_add(c.wrapping_mul(19)).wrapping_add(salt * 211);
        match h % 257 {
            0..=9 => 0.0,
            10..=19 => -0.0,
            20 if specials => f32::INFINITY,
            21 if specials => f32::NEG_INFINITY,
            22 if specials => f32::NAN,
            _ => ((h % 23) as f32) * 0.137 - 1.41,
        }
    })
}

/// Runs `op` on every backend request at 1, 2 and 3 kernel threads and asserts
/// every run is bitwise `want`.
fn assert_grid(label: &str, want: &Matrix, op: impl Fn() -> Matrix) {
    let _guard = lock();
    for backend in [Backend::Scalar, Backend::Avx2, Backend::Simd] {
        for threads in [1, 2, 3] {
            set_backend(backend);
            set_threads(threads);
            let got = op();
            assert_eq!(got.shape(), want.shape(), "{label}: shape");
            assert_eq!(bits(&got), bits(want), "{label} at {backend:?} x {threads} threads");
        }
    }
    set_backend(Backend::Simd);
    set_threads(0);
}

/// The parent's chunk count: one chunk up to 2¹⁸ multiply-adds, else one
/// per 128 rows of the shared dimension, at most 16.
fn tn_chunk_count(m: usize, k: usize, n: usize) -> usize {
    if m * k * n <= 1 << 18 {
        1
    } else {
        k.div_ceil(128).clamp(1, 16)
    }
}

/// The loop `Gemm::TN` replaced: `fma_row` per `(kk, i)` into a `+0.0` partial
/// per chunk, partials summed in ascending chunk order.
fn tn_parent(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.cols(), a.rows(), b.cols());
    let chunk = |range: Range<usize>| {
        let mut acc = vec![0.0f32; m * n];
        for kk in range {
            for i in 0..m {
                let av = a[(kk, i)];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    acc[i * n + j] += av * b[(kk, j)];
                }
            }
        }
        acc
    };
    let chunks = tn_chunk_count(m, k, n);
    if chunks == 1 {
        return Matrix::from_vec(m, n, chunk(0..k));
    }
    let rows_per = k.div_ceil(chunks);
    let mut out = vec![0.0f32; m * n];
    for ci in 0..chunks {
        for (o, p) in out.iter_mut().zip(chunk(ci * rows_per..((ci + 1) * rows_per).min(k))) {
            *o += p;
        }
    }
    Matrix::from_vec(m, n, out)
}

/// A shared dimension giving `(m, n)` exactly `chunks` chunks, if one
/// exists: 2 needs 129–256 rows *and* more than 2¹⁸ multiply-adds.
fn k_for(m: usize, n: usize, chunks: usize) -> Option<usize> {
    let over = (1usize << 18) / (m * n) + 1;
    let k = match chunks {
        1 => 45,
        2 => over.max(129),
        _ => over.max(15 * 128 + 1),
    };
    (tn_chunk_count(m, k, n) == chunks).then_some(k)
}

#[test]
fn matmul_tn_is_bitwise_the_parents_chunk_loop() {
    let mut seen = [0usize; 3];
    for m in [1, 5, 6, 7, 13, 64] {
        for n in [1, 2, 4, 8, 9, 15, 16, 17, 64] {
            for (slot, chunks) in [1, 2, 16].into_iter().enumerate() {
                let Some(k) = k_for(m, n, chunks) else { continue };
                seen[slot] += 1;
                for specials in [false, true] {
                    let a = operand(k, m, m * 31 + n, specials);
                    let b = operand(k, n, n * 17 + m + 1, specials);
                    let label = format!("Gemm::TN {k}x{m}ᵀ·{k}x{n} ({chunks} chunks)");
                    assert_grid(&label, &tn_parent(&a, &b), || a.gemm(&b, Gemm::TN));
                }
            }
        }
    }
    // Every (m, n) has a one- and a sixteen-chunk shape; two chunks need
    // 256 rows to carry more than 2¹⁸ multiply-adds (m·n > 1024), which
    // here is 64 × 17 and 64 × 64.
    assert_eq!(seen, [54, 2, 54]);
}

#[test]
fn matmul_tn_keeps_non_finite_values_out_of_skipped_rows() {
    // A zero coefficient skips its whole row of `b`: an ∞ or NaN there
    // must not reach the output (0·∞ would be NaN), on either side of the
    // 16-column split.
    for n in [4, 16, 40] {
        let mut a = operand(300, 9, n, false);
        let mut b = operand(300, n, n + 1, false);
        for kk in [0, 7, 150, 299] {
            a[(kk, 3)] = if kk % 2 == 0 { 0.0 } else { -0.0 };
            b[(kk, n / 2)] = if kk == 150 { f32::NAN } else { f32::INFINITY };
        }
        let want = tn_parent(&a, &b);
        assert_grid(&format!("Gemm::TN skip, n = {n}"), &want, || a.gemm(&b, Gemm::TN));
        let mut hit = 0;
        for i in 0..9 {
            hit += usize::from(!want[(i, n / 2)].is_finite());
        }
        assert!(want.row(3).iter().all(|v| v.is_finite()), "row 3 skipped every non-finite");
        assert!(hit > 0, "the non-finite entries reach the rows that do not skip them");
    }
}

#[test]
fn batched_matmul_nt_is_bitwise_the_reference() {
    let batch = 40;
    for tile in [1, 5, 6, 9, 17] {
        for d in [0, 1, 7, 8, 64, 65] {
            for specials in [false, true] {
                let q = operand(batch * tile, d, tile * 7 + d, specials);
                let k = operand(batch * tile, d, tile + d * 3 + 1, specials);
                let label = format!("Gemm::NT.batched({batch}) {tile}x{d}");
                let want = q.gemm_reference(&k, Gemm::NT.batched(batch));
                assert_grid(&label, &want, || q.gemm(&k, Gemm::NT.batched(batch)));
            }
        }
    }
    // Blocks of different heights on the two sides: the tile is
    // `rows × cols`, not square.
    let (q, k) = (operand(batch * 3, 33, 5, true), operand(batch * 11, 33, 6, true));
    let want = q.gemm_reference(&k, Gemm::NT.batched(batch));
    assert_grid("Gemm::NT.batched(40) 3 x 11 blocks", &want, || {
        q.gemm(&k, Gemm::NT.batched(batch))
    });
}
