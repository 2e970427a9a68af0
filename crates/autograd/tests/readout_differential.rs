//! Eq. 10's readout as the tape records it — one fused op over the hop
//! stack in place (`Tape`'s `Ops::readout`) — against the op-by-op
//! recording it replaced (`readout_reference` below: three gathers, the
//! `[Ĥ₀ ‖ Ĥₖ]` concat, its product with `α`, a reshape, the softmax, the
//! batched `(1 × K) · (K × d)` product and the add), bit for bit:
//!
//! * both values, `y` and the scores `cₖ`;
//! * `Tape::backward`'s gradients of `Ĥ` and `α`, with the gradient
//!   reaching `y`, the scores, both, and a later reader of `Ĥ` as well;
//! * `Tape::backward_block`'s parts, folded per block and per batch, on
//!   full batches whose blocks are `Gemm::TN`'s chunks (chunk partials) and
//!   on a partial last batch (the rows themselves, for `TnFold`).
//!
//! `d` ∈ {1, 7, 16, 64} × `K` ∈ {1, 5, 8}, with `±0.0` rows in `Ĥ` and in
//! every seed, a subnormal row in every seed, and `±∞`/NaN in `α` where `Ĥ` is held at `±0.0` (so the
//! logits stay finite and the gradients carry them); at 1 and 8 kernel
//! threads on the scalar backend, the AVX2 one and the default. "Bit for
//! bit" reads every NaN as one pattern (Rust leaves a NaN result's payload
//! unspecified), signed zeros included.

use hoga_autograd::{BlockFold, Gradients, NodeBlock, Ops, ParamId, ParamSet, Tape, Var};
use hoga_tensor::{active_backend, set_backend, set_threads, Backend, Matrix};
use std::sync::{Mutex, MutexGuard, Once};

/// The op-by-op readout: what `Ops::readout` recorded on a tape before the
/// tape ran Eq. 10 as one op, moved here verbatim as the reference.
fn readout_reference<'p, O: Ops<'p>>(
    ops: &mut O,
    h: O::Var,
    params: &'p ParamSet,
    alpha: ParamId,
    batch: usize,
    k1: usize,
) -> (O::Var, O::Var) {
    let k = k1 - 1;
    let idx0: Vec<usize> = (0..batch).map(|b| b * k1).collect();
    let h0 = ops.select_rows(h, idx0);
    // Gather Ĥ₀ repeated K times alongside Ĥ₁..Ĥ_K.
    let idx0_rep: Vec<usize> = (0..batch).flat_map(|b| std::iter::repeat_n(b * k1, k)).collect();
    let idx_rest: Vec<usize> =
        (0..batch).flat_map(|b| (1..k1).map(move |hop| b * k1 + hop)).collect();
    let h0_rep = ops.select_rows(h, idx0_rep);
    let h_rest = ops.select_rows(h, idx_rest);
    let cat = ops.concat_cols(h0_rep, h_rest);
    let alpha = ops.param(params, alpha);
    let logits_flat = ops.matmul(cat, alpha); // (B*K, 1)
    let logits = ops.reshape(logits_flat, batch, k);
    let scores = ops.softmax_rows(logits); // (B, K) — the cₖ of Eq. 10.
    ops.release(&[h, h0_rep, cat, logits_flat, logits]);
    // y = Ĥ₀ + Σₖ cₖ Ĥₖ  as a batched (1,K)·(K,d) product.
    let weighted = ops.batched_matmul(scores, h_rest, batch); // (B, d)
    let y = ops.add(h0, weighted);
    ops.release(&[h_rest, h0, weighted]);
    (y, scores)
}

/// The readout under test (`fused`) or the reference.
fn readout(
    tape: &mut Tape,
    fused: bool,
    h: Var,
    params: &ParamSet,
    alpha: ParamId,
    batch: usize,
    k1: usize,
) -> (Var, Var) {
    if fused {
        tape.readout(h, params, alpha, batch, k1)
    } else {
        readout_reference(tape, h, params, alpha, batch, k1)
    }
}

const DIMS: [usize; 4] = [1, 7, 16, 64];
const HOPS: [usize; 3] = [1, 5, 8];
/// Input width of the projection that makes `Ĥ` in the block sweeps.
const INPUT: usize = 8;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every backend request this host resolves differently, scalar first and
/// the default (`Backend::Simd`) last; prints what they resolved to once.
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
        eprintln!("readout differential compares {}", names.join(" vs "));
    });
    set_backend(Backend::Simd);
    sides
}

/// Runs `case` on every backend at 1 and 8 kernel threads, asserting each
/// run gives the first one's bits, leaves the defaults behind and returns
/// the first run's result.
fn on_every_backend<T: PartialEq + std::fmt::Debug>(label: &str, case: impl Fn() -> T) -> T {
    let _guard = lock();
    let mut first: Option<T> = None;
    for backend in backends() {
        for threads in [1, 8] {
            set_backend(backend);
            set_threads(threads);
            let got = case();
            match &first {
                None => first = Some(got),
                Some(want) => assert_eq!(&got, want, "{label}: {backend:?} × {threads} threads"),
            }
        }
    }
    set_backend(Backend::Simd);
    set_threads(0);
    first.expect("at least one backend runs")
}

/// Every element's bits, every NaN read as one pattern.
fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() }).collect()
}

fn grad_bits(grads: &Gradients) -> Vec<(usize, Vec<u32>)> {
    grads.iter().map(|(id, g)| (id.index(), bits(g))).collect()
}

/// Irregular values with both signed zeros sprinkled in.
fn values(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = r.wrapping_mul(53).wrapping_add(c.wrapping_mul(19)).wrapping_add(salt * 211);
        match h % 97 {
            0..=2 => 0.0,
            3..=5 => -0.0,
            v => (v as f32) * 0.0137 - 0.71,
        }
    })
}

/// A seed: rows `0` and `1` of `m` held at `+0.0` and `−0.0`, and row 2
/// scaled down to a few subnormal steps, so that products of it round to
/// `±0.0` and the scatter's `0.0 + g` has a `−0.0` to turn into `+0.0`.
fn seed_rows(mut m: Matrix) -> Matrix {
    for (r, zero) in [(0, 0.0), (1, -0.0)] {
        if r < m.rows() {
            m.row_mut(r).fill(zero);
        }
    }
    if m.rows() > 2 {
        m.row_mut(2).iter_mut().for_each(|v| *v *= 1e-44);
    }
    m
}

/// A hop stack of `nodes` nodes: node 0's hop-1 row held at `+0.0`, node
/// 1's hop-0 row at `−0.0`, and, with `specials`, column `d − 1` (and
/// column 0 from `d = 7` on) held at `±0.0` in every row.
fn stack(nodes: usize, k1: usize, d: usize, salt: usize, specials: bool) -> Matrix {
    let mut h = values(nodes * k1, d, salt);
    h.row_mut(1).fill(0.0);
    if nodes > 1 {
        h.row_mut(k1).fill(-0.0);
    }
    if specials {
        for r in 0..h.rows() {
            let zero = if r % 3 == 0 { -0.0 } else { 0.0 };
            h[(r, d - 1)] = zero;
            if d >= 7 {
                h[(r, 0)] = -zero;
            }
        }
    }
    h
}

/// `α`, `2d × 1`; with `specials`, `−∞` and NaN on the columns `stack`
/// holds at zero, and `+∞` and `−0.0` too from `d = 7` on.
fn alpha(d: usize, salt: usize, specials: bool) -> Matrix {
    let mut a = values(2 * d, 1, salt);
    if specials {
        a[(d - 1, 0)] = f32::NEG_INFINITY;
        a[(2 * d - 1, 0)] = f32::NAN;
        if d >= 7 {
            a[(0, 0)] = f32::INFINITY;
            a[(d, 0)] = -0.0;
        }
    }
    a
}

/// Which values the whole-batch loss reads.
#[derive(Debug, Clone, Copy)]
enum Reads {
    /// `y` only, the training step's shape.
    Y,
    /// `y` and the scores.
    YScores,
    /// The scores only: no gradient reaches `y`.
    Scores,
    /// `y`, the scores and `Ĥ` itself, recorded after the readout.
    All,
}

type WholeBits = (Vec<u32>, Vec<u32>, u32, Vec<(usize, Vec<u32>)>);

/// Values, loss and every gradient of one whole-batch tape over the
/// readout; `Ĥ` is a parameter (so its gradient is handed back) unless
/// `constant`.
fn whole(
    fused: bool,
    nodes: usize,
    d: usize,
    k: usize,
    specials: bool,
    reads: Reads,
    constant: bool,
) -> WholeBits {
    let k1 = k + 1;
    let mut params = ParamSet::new();
    let hp = params.add("h", stack(nodes, k1, d, d + k, specials));
    let ap = params.add("alpha", alpha(d, d * k + 1, specials));
    let mut tape = Tape::new();
    let h =
        if constant { tape.constant(params.value(hp).clone()) } else { tape.param(&params, hp) };
    let (y, scores) = readout(&mut tape, fused, h, &params, ap, nodes, k1);
    let mut terms = Vec::new();
    let mut read = |tape: &mut Tape, v: Var, seed: Matrix| {
        let seed = tape.constant(seed);
        let product = tape.hadamard(v, seed);
        terms.push(tape.sum_all(product));
    };
    if !matches!(reads, Reads::Scores) {
        read(&mut tape, y, seed_rows(values(nodes, d, 3)));
    }
    if !matches!(reads, Reads::Y) {
        read(&mut tape, scores, seed_rows(values(nodes, k, 5)));
    }
    if matches!(reads, Reads::All) {
        read(&mut tape, h, seed_rows(values(nodes * k1, d, 7)));
    }
    let loss = terms.iter().skip(1).fold(terms[0], |sum, &t| tape.add(sum, t));
    let loss_bits = tape.value(loss)[(0, 0)].to_bits();
    let (yb, sb) = (bits(tape.value(y)), bits(tape.value(scores)));
    let grads = tape.backward(loss);
    assert!(grads.get(ap).is_some(), "α received no gradient");
    assert_eq!(grads.get(hp).is_some(), !constant, "Ĥ's gradient");
    (yb, sb, loss_bits, grad_bits(&grads))
}

#[test]
fn fused_readout_values_and_gradients_are_the_op_by_op_recordings_bitwise() {
    for d in DIMS {
        for k in HOPS {
            for specials in [false, true] {
                // 40 nodes for every shape; 512 at the ledger's, where the
                // whole batch's dα sums sixteen chunk partials.
                let batches: &[usize] = if d == 64 && k == 8 { &[40, 512] } else { &[40] };
                for &nodes in batches {
                    for reads in [Reads::Y, Reads::YScores, Reads::Scores, Reads::All] {
                        for constant in [false, true] {
                            let label = format!(
                                "d {d} K {k} nodes {nodes} specials {specials} {reads:?} \
                                 constant Ĥ {constant}"
                            );
                            on_every_backend(&label, || {
                                let got = whole(true, nodes, d, k, specials, reads, constant);
                                let want = whole(false, nodes, d, k, specials, reads, constant);
                                assert_eq!(got, want, "{label}");
                                got
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Per block, its parts folded on their own and the number it handed
/// back as chunk partials; then the batch's fold.
type BlockBits = (Vec<(Vec<(usize, Vec<u32>)>, usize)>, Vec<(usize, Vec<u32>)>);

/// A batch run block by block: `Ĥ = x · W` over each block's nodes (`W`
/// `INPUT × d`, with `stack`'s zero rows and columns), the
/// readout, and a sweep from `[y ‖ cₖ ‖ Ĥ]` (`y` alone unless `all`)
/// seeded with the block's rows of one seed.
fn blocked(
    fused: bool,
    batch: usize,
    size: usize,
    d: usize,
    k: usize,
    specials: bool,
    all: bool,
) -> BlockBits {
    let k1 = k + 1;
    let mut params = ParamSet::new();
    // `W` holds `stack`'s zero columns, so `Ĥ = x · W` has them too.
    let w = params.add("w", stack(1, INPUT, d, d + 2 * k, specials));
    let ap = params.add("alpha", alpha(d, d * k + 1, specials));
    let x = stack(batch, k1, INPUT, d + k, false);
    let width = if all { d + k + k1 * d } else { d };
    let seed = seed_rows(values(batch, width, 11));
    let sweep = |block: NodeBlock| {
        let nodes = block.nodes();
        let mut tape = Tape::new();
        let rows = Matrix::from_fn(nodes.len() * k1, INPUT, |r, c| x[(nodes.start * k1 + r, c)]);
        let xv = tape.constant(rows);
        let wv = tape.param(&params, w);
        let h = tape.matmul(xv, wv);
        let (y, scores) = readout(&mut tape, fused, h, &params, ap, nodes.len(), k1);
        let from = if all {
            let flat = tape.reshape(h, nodes.len(), k1 * d);
            let ys = tape.concat_cols(y, scores);
            tape.concat_cols(ys, flat)
        } else {
            y
        };
        let seed = Matrix::from_fn(nodes.len(), width, |r, c| seed[(nodes.start + r, c)]);
        tape.backward_block(from, seed, block)
    };
    let (mut per_block, mut fold) = (Vec::new(), BlockFold::default());
    for block in NodeBlock::cover(batch, size) {
        let grads = sweep(block);
        let mut own = BlockFold::default();
        let partials = grads.chunk_partials();
        own.push(grads);
        per_block.push((grad_bits(&own.finish()), partials));
        fold.push(sweep(block));
    }
    (per_block, grad_bits(&fold.finish()))
}

#[test]
fn fused_readout_block_sums_are_the_op_by_op_recordings_bitwise() {
    for d in DIMS {
        for k in HOPS {
            // (batch, block size): a partial last block everywhere; at
            // `d = 64` the ledger's 512-node batches in 32-node blocks —
            // `Gemm::TN`'s chunks from `K = 5` on — and a 300-node batch,
            // whose blocks are no product's chunks.
            let batches: &[(usize, usize)] =
                if d == 64 { &[(40, 16), (512, 32), (300, 32)] } else { &[(40, 16)] };
            for &(batch, size) in batches {
                for specials in [false, true] {
                    for all in [false, true] {
                        let label = format!(
                            "d {d} K {k} batch {batch} in {size}s specials {specials} all {all}"
                        );
                        let (per_block, _) = on_every_backend(&label, || {
                            let got = blocked(true, batch, size, d, k, specials, all);
                            let want = blocked(false, batch, size, d, k, specials, all);
                            assert_eq!(got, want, "{label}");
                            got
                        });
                        let partials: usize = per_block.iter().map(|(_, n)| n).sum();
                        // `W` and `α` both sum chunk partials on the full
                        // ledger-shaped batches, and neither does elsewhere.
                        let chunked = batch == 512 && k >= 5;
                        let blocks = batch.div_ceil(size);
                        assert_eq!(partials, if chunked { 2 * blocks } else { 0 }, "{label}");
                        if !specials && !all {
                            eprintln!("readout {label}: {partials} chunk partials");
                        }
                    }
                }
            }
        }
    }
}
