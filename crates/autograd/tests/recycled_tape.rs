//! Inside `hoga_tensor::recycle::Pool::run` the tape hands its storage to
//! the lent list and the next tape in the run is built in it. Two
//! properties keep that invisible: nothing a previous owner wrote is ever
//! read, and reuse really happens.
//!
//! Every scenario runs in a fresh pool on a thread of its own, i.e. against
//! an empty list.

use hoga_autograd::gradcheck::check_gradients;
use hoga_autograd::{Ops, ParamId, ParamSet, Tape, Var};
use hoga_tensor::recycle::{give_back, Pool};
use hoga_tensor::{CsrMatrix, Init, Matrix};
use std::collections::BTreeSet;
use std::sync::Arc;

const ROWS: usize = 1024;
const COLS: usize = 32;
/// Attention blocks: `ROWS / BATCH` rows each, so a score tile row is as
/// wide as a feature row.
const BATCH: usize = 32;
const SEGMENTS: usize = 256;

fn isolated<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(|| Pool::default().run(f)).join().expect("scenario panicked")
}

/// Puts NaN-filled buffers of every size the graphs below allocate (and a
/// few between) on the lent list, several of each.
fn poison_the_list() {
    for floats in [ROWS * COLS, ROWS * COLS + 1, ROWS * COLS * 3 / 2, 2 * ROWS * COLS] {
        for _ in 0..12 {
            give_back(Matrix::full(1, floats, f32::NAN));
        }
    }
}

struct Model {
    params: ParamSet,
    w: ParamId,
    w2: ParamId,
    bias: ParamId,
    gamma: ParamId,
    beta: ParamId,
}

fn model() -> Model {
    let mut params = ParamSet::new();
    let w = params.add("w", Init::XavierUniform.matrix(COLS, COLS, 1));
    let w2 = params.add("w2", Init::XavierUniform.matrix(COLS, COLS, 2));
    let bias = params.add("bias", Init::SmallUniform.matrix(1, COLS, 3));
    let gamma = params.add("gamma", Init::Ones.matrix(1, COLS, 4));
    let beta = params.add("beta", Init::SmallUniform.matrix(1, COLS, 5));
    Model { params, w, w2, bias, gamma, beta }
}

/// One graph through every op of the tape, every intermediate but the
/// pooled tail `ROWS × COLS` or larger. Returns the loss and every recorded
/// `Var`.
fn every_op(tape: &mut Tape, m: &Model) -> (Var, Vec<Var>) {
    let mut vars = Vec::new();
    let mut keep = |v: Var| {
        vars.push(v);
        v
    };
    let adj = Arc::new(CsrMatrix::from_coo(
        ROWS,
        ROWS,
        &(0..ROWS).map(|r| (r, (r * 7 + 3) % ROWS, 0.5)).collect::<Vec<_>>(),
    ));
    let adj_t = Arc::new(adj.transpose());
    let x = keep(tape.constant(Init::SmallUniform.matrix(ROWS, COLS, 11).scale(4.0)));
    let mask = Matrix::from_fn(ROWS, COLS, |r, c| if (r + c) % 3 == 0 { 0.0 } else { 1.5 });
    let mask = keep(tape.constant(mask));
    let target = Init::SmallUniform.matrix(SEGMENTS, COLS, 12);
    let w = keep(tape.param(&m.params, m.w));
    let w2 = keep(tape.param(&m.params, m.w2));
    let bias = keep(tape.param(&m.params, m.bias));
    let gamma = keep(tape.param(&m.params, m.gamma));
    let beta = keep(tape.param(&m.params, m.beta));

    let h = keep(tape.matmul(x, w));
    let h = keep(tape.add_bias(h, bias));
    let u = keep(tape.matmul(h, w2));
    let gate = keep(tape.sigmoid(u));
    let gated = keep(tape.hadamard(h, gate));
    let diff = keep(tape.add(gated, x)); // constant on the right
    let diff = keep(tape.hadamard(x, diff)); // constant on the left
    let logits = keep(tape.batched_matmul_nt(diff, h, BATCH)); // (ROWS, COLS)
    let s = keep(tape.softmax_rows(logits));
    let sv = keep(tape.batched_matmul(s, h, BATCH));
    let sum = keep(tape.add(sv, gated));
    let sum = keep(tape.add(sum, x)); // constant operand: the gradient moves
    let normed = keep(tape.layer_norm(sum, gamma, beta));
    let act = keep(tape.relu(normed));
    let act = keep(tape.hadamard(act, mask));
    let act = keep(tape.scale(act, 0.25));
    let spread = keep(tape.spmm(&adj, &adj_t, act));
    let cat = keep(tape.concat_cols(spread, act)); // (ROWS, 2 COLS)
    let picked = keep(tape.select_rows(cat, (0..ROWS).map(|r| (r * 5) % ROWS).collect()));
    let flat = keep(tape.reshape(picked, 2 * ROWS, COLS));
    let pooled = keep(tape.segment_mean(flat, (0..SEGMENTS).map(|b| (8 * b, 8 * b + 8)).collect()));
    let mse = keep(tape.mse_loss(pooled, &target));
    let ce =
        keep(tape.cross_entropy_mean(flat, &(0..2 * ROWS).map(|r| r % COLS).collect::<Vec<_>>()));
    let total = keep(tape.sum_all(act));
    let total = keep(tape.scale(total, 1e-3));
    let loss = keep(tape.add(mse, ce));
    let loss = keep(tape.add(loss, total));
    (loss, vars)
}

/// Loss bits and every gradient's bits of one forward and backward.
fn step_bits(m: &Model) -> (u32, Vec<Vec<u32>>) {
    let mut tape = Tape::new();
    let (loss, vars) = every_op(&mut tape, m);
    for &v in &vars {
        assert!(tape.value(v).is_finite(), "a forward value picked up stale data");
    }
    let loss_bits = tape.value(loss)[(0, 0)].to_bits();
    let grads = tape.backward(loss);
    let grad_bits: Vec<Vec<u32>> =
        grads.iter().map(|(_, g)| g.as_slice().iter().map(|v| v.to_bits()).collect()).collect();
    assert_eq!(grad_bits.len(), 5, "every parameter receives a gradient");
    (loss_bits, grad_bits)
}

#[test]
fn stale_storage_never_reaches_a_value_or_a_gradient() {
    let clean = isolated(|| step_bits(&model()));
    let (first, second, third) = isolated(|| {
        poison_the_list();
        let m = model();
        // The first step draws on the poisoned buffers, the later ones on
        // what the step before them left behind as well.
        (step_bits(&m), step_bits(&m), step_bits(&m))
    });
    for g in clean.1.iter().flatten() {
        assert!(f32::from_bits(*g).is_finite());
    }
    assert_eq!(clean, first);
    assert_eq!(clean, second);
    assert_eq!(clean, third);
}

#[test]
fn gradcheck_holds_on_recycled_storage() {
    // `COLS × 4` parameters keep the check to a few hundred forwards; every
    // intermediate is `ROWS × COLS` floats.
    let run = |poison: bool| {
        isolated(move || {
            if poison {
                poison_the_list();
            }
            let mut params = ParamSet::new();
            let w = params.add("w", Init::XavierUniform.matrix(COLS, 4, 21));
            let x = Init::SmallUniform.matrix(8 * ROWS, COLS, 22).scale(3.0);
            let report = check_gradients(&mut params, 1e-2, |tape, params| {
                let xv = tape.constant(x.clone());
                let wv = tape.param(params, w);
                let h = tape.matmul(xv, wv); // (8 ROWS, 4) = ROWS × COLS floats
                let a = tape.sigmoid(h);
                let b = tape.relu(h);
                let ab = tape.hadamard(a, b);
                let d = tape.add(ab, a);
                let s = tape.softmax_rows(d);
                let sq = tape.hadamard(s, s);
                let total = tape.sum_all(sq);
                tape.scale(total, 1e-2)
            });
            (report.max_abs_err.to_bits(), report.max_rel_err.to_bits(), report.passes(2e-2))
        })
    };
    let (clean, recycled) = (run(false), run(true));
    assert!(clean.2, "gradcheck fails on fresh storage: {clean:?}");
    assert_eq!(clean, recycled);
}

#[test]
fn the_next_tape_is_built_in_the_previous_tapes_storage() {
    isolated(|| {
        let m = model();
        let big_value_addresses = || {
            let mut tape = Tape::new();
            let (loss, vars) = every_op(&mut tape, &m);
            let addresses: BTreeSet<usize> = vars
                .iter()
                .map(|&v| tape.value(v))
                .filter(|value| value.len() >= ROWS * COLS)
                .map(|value| value.as_slice().as_ptr() as usize)
                .collect();
            tape.backward(loss);
            addresses
        };
        let first = big_value_addresses();
        assert!(first.len() >= 20, "the graph has {} big values", first.len());
        // Had the first tape freed its storage, these allocations — plain
        // vectors, which the list never serves — would now sit in it, and
        // the second tape could not.
        let decoys: Vec<Vec<f32>> = (0..2 * first.len()).map(|_| vec![1.0; ROWS * COLS]).collect();
        let second = big_value_addresses();
        assert!(decoys.iter().all(|d| !second.contains(&(d.as_ptr() as usize))));
        // Not all of them: a value may land where the first tape kept a
        // gradient, and a constant is storage the test brought along.
        let shared = first.intersection(&second).count();
        assert!(
            4 * shared >= 3 * first.len(),
            "only {shared} of the second tape's {} big values sit where the first tape's did",
            second.len()
        );
    });
}
