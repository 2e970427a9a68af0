//! Differential tests of the tape-free inference path against the training
//! forward pass.
//!
//! The contract under test (see `hoga_core::infer`):
//!
//! * `Precision::Exact` replays the tape ops verbatim → **bitwise** equal
//!   representations and readout scores, for every aggregator.
//! * `Precision::Fast` swaps in the fused/lane-parallel kernels → close to
//!   the exact path within a small absolute tolerance.
//! * `Precision::Int8` quantizes the hidden projections → loosely bounded
//!   against the f32 oracle, deterministic under plan reuse.
//!
//! The tolerances above would let a `Fast` or `Int8` kernel change go
//! unnoticed, so both are also pinned bit for bit by hash.

use hoga_autograd::Tape;
use hoga_core::infer::{block_nodes, InferError, InferOutput, Int8Plan, Precision};
use hoga_core::model::{Aggregator, HogaConfig, HogaModel};
use hoga_tensor::{active_backend, set_backend, with_threads, Backend, Init, Matrix};

fn toy_stack(batch: usize, k1: usize, d: usize, seed: u64) -> Matrix {
    Init::SmallUniform.matrix(batch * k1, d, seed)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn infer(model: &HogaModel, stack: &Matrix, batch: usize, precision: Precision) -> InferOutput {
    model.try_infer(stack, batch, precision).expect("valid shapes")
}

fn infer_int8(model: &HogaModel, plan: &Int8Plan, stack: &Matrix, batch: usize) -> InferOutput {
    model.try_infer_int8(plan, stack, batch).expect("valid shapes and plan")
}

fn tape_forward(model: &HogaModel, stack: &Matrix, batch: usize) -> (Matrix, Option<Matrix>) {
    let mut tape = Tape::new();
    let out = model.forward(&mut tape, stack, batch);
    let reps = tape.value(out.representations).clone();
    let scores = out.readout_scores.map(|s| tape.value(s).clone());
    (reps, scores)
}

/// `to_bits` of every element with every NaN read as one pattern: which NaN
/// an operation returns is the code generator's choice, so "bitwise" fixes
/// where NaNs are, not their payloads.
fn canonical_bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() }).collect()
}

/// The model `cfg` builds from `seed`, its readout `α` holding `±0.0`, `±∞`
/// and NaN. LayerNorm's gain 0 and shift −1 hold `Ĥ`'s columns 0 and 1 at
/// ReLU's `+0.0`, and there `α` holds NaN and `±∞` on both halves: every
/// lane that meets them must be skipped, or a logit turns NaN. Column 2
/// meets a live `+∞` on the hop-0 half (a node whose `Ĥ₀` is positive there
/// gets `+∞` logits and NaN scores), and column 3 meets `−0.0` and `+0.0`.
fn special_alpha_model(cfg: &HogaConfig, seed: u64) -> HogaModel {
    let d = cfg.hidden_dim;
    let mut model = HogaModel::new(cfg, seed);
    let id = |model: &HogaModel, name| model.params.find(name).expect("HOGA parameter");
    let (gamma, beta, alpha) =
        (id(&model, "layer0.gamma"), id(&model, "layer0.beta"), id(&model, "readout.alpha"));
    for c in 0..2 {
        model.params.value_mut(gamma)[(0, c)] = 0.0;
        model.params.value_mut(beta)[(0, c)] = -1.0;
    }
    let alpha = model.params.value_mut(alpha);
    for (row, v) in [
        (0, f32::NAN),
        (d, f32::NEG_INFINITY),
        (1, f32::INFINITY),
        (d + 1, f32::NAN),
        (2, f32::INFINITY),
        (3, -0.0),
        (d + 3, 0.0),
    ] {
        alpha[(row, 0)] = v;
    }
    model
}

/// `Exact` is the tape's forward bit for bit — representations and readout
/// scores, for every aggregator; at the ledger's shape (`K = 8`, `d = 64`)
/// over two and a half blocks; at `K = 1`; and with `±0.0`, `±∞` and NaN in
/// the readout's `α` (NaN positions compared, not payloads) — at 1 and 8
/// threads on every kernel backend.
#[test]
fn exact_inference_is_bitwise_identical_to_tape_forward() {
    let small = HogaConfig::new(7, 16, 5);
    let ledger = HogaConfig::new(7, 64, 8);
    let cases = [
        (HogaModel::new(&small, 3), 4),
        (HogaModel::new(&small.with_aggregator(Aggregator::GateOnly), 4), 4),
        (HogaModel::new(&small.with_aggregator(Aggregator::Sum), 5), 4),
        (HogaModel::new(&ledger, 6), 5 * block_nodes(9, 64) / 2),
        (HogaModel::new(&HogaConfig::new(7, 16, 1), 7), 9),
        (HogaModel::new(&HogaConfig::new(7, 16, 1).with_aggregator(Aggregator::GateOnly), 8), 9),
        (special_alpha_model(&small, 9), 20),
    ];
    let special = cases.len() - 1;
    for (i, (model, batch)) in cases.iter().enumerate() {
        let cfg = model.config();
        let stack = toy_stack(*batch, cfg.num_hops + 1, cfg.input_dim, 40 + i as u64);
        let (want_reps, want_scores) = tape_forward(model, &stack, *batch);
        let bits = if i == special { canonical_bits } else { bits };
        for backend in [Backend::Scalar, Backend::Avx2, Backend::Simd] {
            set_backend(backend);
            for threads in [1, 8] {
                let got = with_threads(threads, || infer(model, &stack, *batch, Precision::Exact));
                let at = format!("case {i} on {} at {threads} threads", active_backend());
                assert_eq!(
                    bits(&want_reps),
                    bits(&got.representations),
                    "{at}: exact inference differs bitwise from the tape forward"
                );
                match (&want_scores, &got.readout_scores) {
                    (Some(w), Some(g)) => assert_eq!(bits(w), bits(g), "{at}: scores differ"),
                    (None, None) => {}
                    _ => panic!("{at}: score presence mismatch"),
                }
            }
        }
    }
    // The special case is not vacuous: a lane met `+∞`, and every NaN
    // that met a live lane would have reached the scores.
    let (model, batch) = &cases[special];
    let stack = toy_stack(*batch, 6, 7, 40 + special as u64);
    let scores = infer(model, &stack, *batch, Precision::Exact).readout_scores.expect("scores");
    let nan_rows = (0..*batch).filter(|&r| scores.row(r).iter().any(|v| v.is_nan())).count();
    assert!(0 < nan_rows && nan_rows < *batch, "{nan_rows} of {batch} score rows are NaN");
}

#[test]
fn fast_inference_tracks_exact_within_tolerance() {
    let cfg = HogaConfig::new(9, 24, 4);
    let model = HogaModel::new(&cfg, 11);
    let batch = 6;
    let stack = toy_stack(batch, 5, 9, 12);
    let exact = infer(&model, &stack, batch, Precision::Exact);
    let fast = infer(&model, &stack, batch, Precision::Fast);
    assert!(
        exact.representations.max_abs_diff(&fast.representations) < 1e-4,
        "fast representations drifted: {}",
        exact.representations.max_abs_diff(&fast.representations)
    );
    let (es, fs) = (exact.readout_scores.unwrap(), fast.readout_scores.unwrap());
    assert!(es.max_abs_diff(&fs) < 1e-4, "fast scores drifted: {}", es.max_abs_diff(&fs));
}

#[test]
fn int8_inference_is_loosely_bounded_and_scores_normalized() {
    let cfg = HogaConfig::new(9, 24, 4);
    let model = HogaModel::new(&cfg, 21);
    let batch = 6;
    let stack = toy_stack(batch, 5, 9, 22);
    let exact = infer(&model, &stack, batch, Precision::Exact);
    let plan = model.int8_plan();
    let int8 = infer_int8(&model, &plan, &stack, batch);
    // Per-row/per-column 8-bit quantization through one attention layer:
    // loose but meaningful bound relative to the representation scale.
    let scale = exact.representations.as_slice().iter().fold(1e-6f32, |m, &v| m.max(v.abs()));
    let delta = exact.representations.max_abs_diff(&int8.representations);
    assert!(
        delta <= 0.15 * scale,
        "int8 drifted too far: delta {delta} vs representation scale {scale}"
    );
    let scores = int8.readout_scores.unwrap();
    assert!(scores.is_finite());
    for r in 0..batch {
        let s: f32 = scores.row(r).iter().sum();
        assert!((s - 1.0).abs() < 1e-5, "int8 scores row {r} sums to {s}");
    }
}

#[test]
fn int8_plan_reuse_is_deterministic() {
    let cfg = HogaConfig::new(6, 16, 3);
    let model = HogaModel::new(&cfg, 31);
    let batch = 3;
    let stack = toy_stack(batch, 4, 6, 32);
    let plan_a = model.int8_plan();
    let plan_b = model.int8_plan();
    let r1 = infer_int8(&model, &plan_a, &stack, batch);
    let r2 = infer_int8(&model, &plan_a, &stack, batch);
    let r3 = infer_int8(&model, &plan_b, &stack, batch);
    assert_eq!(bits(&r1.representations), bits(&r2.representations), "plan reuse nondeterministic");
    assert_eq!(bits(&r1.representations), bits(&r3.representations), "plan rebuild drifted");
}

/// One NaN in one node's hop rows reaches that node and no other. Int8
/// leaves NaN exactly where Exact does: under the `Sum` aggregator that is
/// the node's whole representation; the attention aggregators pass it
/// through ReLU (`f32::max(NaN, 0) = 0`) and may end finite. Every other
/// node's representation is finite and bitwise what the clean stack gives.
/// Int8 once read the NaN as a 0 and returned a finite `Sum` representation.
#[test]
fn a_nan_hop_row_poisons_its_node_only() {
    let (batch, k1, poisoned_node) = (5, 5, 2);
    // The attention aggregators pass the NaN through a softmax, which trips
    // a debug assertion by design (`hoga_tensor::softmax_rows`), so they run
    // in release builds only (`cargo test --release`).
    let aggregators: &[Aggregator] = if cfg!(debug_assertions) {
        &[Aggregator::Sum]
    } else {
        &[Aggregator::Sum, Aggregator::GatedSelfAttention, Aggregator::GateOnly]
    };
    let nan_at = |row: &[f32]| row.iter().map(|v| v.is_nan()).collect::<Vec<_>>();
    for (i, &aggregator) in aggregators.iter().enumerate() {
        let cfg = HogaConfig::new(7, 16, k1 - 1).with_aggregator(aggregator);
        let model = HogaModel::new(&cfg, 51 + i as u64);
        let plan = model.int8_plan();
        let clean = toy_stack(batch, k1, 7, 52);
        let mut stack = clean.clone();
        stack.row_mut(poisoned_node * k1 + 3)[1] = f32::NAN;
        let exact = |s| infer(&model, s, batch, Precision::Exact).representations;
        let int8 = |s| infer_int8(&model, &plan, s, batch).representations;
        for (label, want, got) in
            [("exact", exact(&clean), exact(&stack)), ("int8", int8(&clean), int8(&stack))]
        {
            for node in (0..batch).filter(|&node| node != poisoned_node) {
                let (w, g) =
                    (Matrix::from_rows(&[want.row(node)]), Matrix::from_rows(&[got.row(node)]));
                assert!(g.is_finite(), "{aggregator:?} {label}: node {node} is not finite");
                assert_eq!(bits(&w), bits(&g), "{aggregator:?} {label}: node {node} moved");
            }
        }
        let (e, q) = (exact(&stack), int8(&stack));
        let (e, q) = (e.row(poisoned_node), q.row(poisoned_node));
        assert_eq!(nan_at(e), nan_at(q), "{aggregator:?}: exact {e:?}, int8 {q:?}");
        if aggregator == Aggregator::Sum {
            assert!(q.iter().all(|v| v.is_nan()), "Sum int8: {q:?}");
        }
    }
}

#[test]
fn exact_inference_covers_sum_ablation_end_to_end() {
    let cfg = HogaConfig::new(5, 8, 3).with_aggregator(Aggregator::Sum);
    let model = HogaModel::new(&cfg, 41);
    let batch = 3;
    let stack = toy_stack(batch, 4, 5, 42);
    let out = infer(&model, &stack, batch, Precision::Fast);
    assert_eq!(out.representations.shape(), (batch, 8));
    assert!(out.readout_scores.is_none());
    assert!(out.representations.is_finite());
}

#[test]
fn try_infer_returns_typed_errors_instead_of_panicking() {
    let cfg = HogaConfig::new(5, 8, 3);
    let model = HogaModel::new(&cfg, 71);
    let good = toy_stack(2, 4, 5, 72);
    // Wrong row count for the claimed batch.
    let err = model.try_infer(&good, 3, Precision::Exact).unwrap_err();
    assert_eq!(err, InferError::HopStackRows { expect: 12, got: 8 });
    // Wrong feature width.
    let wide = toy_stack(2, 4, 6, 73);
    let err = model.try_infer(&wide, 2, Precision::Exact).unwrap_err();
    assert_eq!(err, InferError::FeatureWidth { expect: 5, got: 6 });
    // Int8 without a plan is a typed error on the fallible path.
    let err = model.try_infer(&good, 2, Precision::Int8).unwrap_err();
    assert_eq!(err, InferError::NeedsInt8Plan);
    // Errors render a message the serving layer can return as-is.
    assert!(err.to_string().contains("int8"));
}

#[test]
fn try_infer_int8_rejects_a_foreign_plan() {
    let cfg = HogaConfig::new(5, 8, 3);
    let model = HogaModel::new(&cfg, 81);
    let stack = toy_stack(2, 4, 5, 83);
    // A plan of a differently-shaped model is caught before any product.
    let narrow = HogaModel::new(&HogaConfig::new(5, 4, 3), 84);
    match model.try_infer_int8(&narrow.int8_plan(), &stack, 2) {
        Err(InferError::PlanGeometry { .. }) => {}
        other => panic!("expected PlanGeometry, got {other:?}"),
    }
}

/// FNV-1a over the bits of every element of `matrices`, in order.
fn fnv1a<'a>(matrices: impl IntoIterator<Item = &'a Matrix>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in matrices.into_iter().flat_map(|m| m.as_slice()) {
        for byte in v.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The `(Fast, Int8)` hashes of [`fast_and_int8_bits_are_pinned`]'s grid,
/// model by model.
const PINNED: [(u64, u64); 3] = [
    (0x6440d4aca18d2f2e, 0xdc7d4e8473230bf3),
    (0xe39d6a51fdc88c5a, 0x880ac3ae1161c6d2),
    (0x11605e2880c75c26, 0x10d1a3991389654c),
];

/// `Fast` and `Int8` are pure functions of their inputs (the kernels'
/// determinism contract), so their outputs are pinned by hash: per model of
/// the grid — the three aggregators, each with its own seed — the
/// representations and readout scores at a batch of one node and at one
/// past a full block, a ragged second block. The paper's `K = 8`: a fast
/// reduction over fewer than eight values has no lane tree and sums as the
/// exact one does, so at `K = 5` the softmax rows could not tell the two
/// kernels apart.
#[test]
fn fast_and_int8_bits_are_pinned() {
    const INPUT: usize = 5;
    const HIDDEN: usize = 32;
    const HOPS: usize = 8;
    let block = block_nodes(HOPS + 1, HIDDEN);
    let mut got = Vec::new();
    let grid =
        [(Aggregator::GatedSelfAttention, 17), (Aggregator::GateOnly, 21), (Aggregator::Sum, 25)];
    for (aggregator, seed) in grid {
        let cfg = HogaConfig::new(INPUT, HIDDEN, HOPS).with_aggregator(aggregator);
        let model = HogaModel::new(&cfg, seed);
        let plan = model.int8_plan();
        let (mut fast, mut int8) = (Vec::new(), Vec::new());
        for batch in [1, block + 5] {
            let stack = toy_stack(batch, HOPS + 1, INPUT, 90 + batch as u64);
            fast.push(infer(&model, &stack, batch, Precision::Fast));
            int8.push(infer_int8(&model, &plan, &stack, batch));
        }
        let hash = |outs: &[InferOutput]| {
            fnv1a(
                outs.iter().flat_map(|o| [&o.representations].into_iter().chain(&o.readout_scores)),
            )
        };
        got.push((hash(&fast), hash(&int8)));
    }
    let table: Vec<String> = got.iter().map(|(f, i)| format!("({f:#018x}, {i:#018x}),")).collect();
    assert_eq!(got, PINNED, "Fast or Int8 moved a bit; now:\n{}", table.join("\n"));
}
