//! Differential tests of the tape-free inference path against the training
//! forward pass.
//!
//! The contract under test (see `hoga_core::infer`):
//!
//! * `Precision::Exact` replays the tape ops verbatim → **bitwise** equal
//!   representations and readout scores, for every aggregator and head
//!   count.
//! * `Precision::Fast` swaps in the fused/lane-parallel kernels → close to
//!   the exact path within a small absolute tolerance.
//! * `Precision::Int8` quantizes the hidden projections → loosely bounded
//!   against the f32 oracle, deterministic under plan reuse.

use hoga_autograd::Tape;
use hoga_core::infer::{InferError, InferOutput, Int8Plan, Precision};
use hoga_core::model::{Aggregator, HogaConfig, HogaModel};
use hoga_tensor::{Init, Matrix};

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

#[test]
fn exact_inference_is_bitwise_identical_to_tape_forward() {
    let configs = [
        HogaConfig::new(7, 16, 5),
        HogaConfig::new(7, 16, 5).with_heads(4),
        HogaConfig::new(7, 16, 5).with_layers(2),
        HogaConfig::new(7, 16, 5).with_aggregator(Aggregator::GateOnly),
        HogaConfig::new(7, 16, 5).with_aggregator(Aggregator::Sum),
    ];
    for (i, cfg) in configs.iter().enumerate() {
        let model = HogaModel::new(cfg, 3 + i as u64);
        let batch = 4;
        let stack = toy_stack(batch, cfg.num_hops + 1, cfg.input_dim, 40 + i as u64);
        let (want_reps, want_scores) = tape_forward(&model, &stack, batch);
        let got = infer(&model, &stack, batch, Precision::Exact);
        assert_eq!(
            bits(&want_reps),
            bits(&got.representations),
            "config {i}: exact inference differs bitwise from the tape forward"
        );
        match (want_scores, got.readout_scores) {
            (Some(w), Some(g)) => assert_eq!(bits(&w), bits(&g), "config {i}: scores differ"),
            (None, None) => {}
            _ => panic!("config {i}: score presence mismatch"),
        }
    }
}

#[test]
fn fast_inference_tracks_exact_within_tolerance() {
    let cfg = HogaConfig::new(9, 24, 4).with_heads(2);
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
    let cfg = HogaConfig::new(6, 16, 3).with_heads(2);
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
    let other = HogaModel::new(&HogaConfig::new(5, 8, 3).with_layers(2), 82);
    let stack = toy_stack(2, 4, 5, 83);
    let foreign = other.int8_plan();
    match model.try_infer_int8(&foreign, &stack, 2) {
        Err(InferError::PlanGeometry { detail }) => {
            assert!(detail.contains("layers"), "detail: {detail}")
        }
        other => panic!("expected PlanGeometry, got {other:?}"),
    }
    // A differently-shaped projection is also caught, not just layer count.
    let narrow = HogaModel::new(&HogaConfig::new(5, 4, 3), 84);
    match model.try_infer_int8(&narrow.int8_plan(), &stack, 2) {
        Err(InferError::PlanGeometry { .. }) => {}
        other => panic!("expected PlanGeometry, got {other:?}"),
    }
}
