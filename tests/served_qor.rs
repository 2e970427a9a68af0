//! A served ratio is the evaluated one. For every training design of the
//! tiny QoR dataset and every recipe run on it, `/v1/predict` — checkpoint
//! written and loaded, the design framed and decoded, hop features
//! recomputed, the forward in node blocks, every node pooled, the head
//! scored — answers with the ratio `eval_qor` predicted, bit for bit, once
//! both sides take the same clamp and gate count.

use hoga_repro::datasets::io::{encode_aig, save_checkpoint, Checkpoint};
use hoga_repro::datasets::openabcd::{build_qor_dataset, QorDatasetConfig};
use hoga_repro::eval::trainer::{eval_qor, train_qor, QorModel, QorModelKind, TrainConfig};
use hoga_repro::serve::{HttpClient, Server, ServerConfig};
use std::collections::BTreeSet;
use std::time::Duration;

const HOPS: usize = 2;

/// The `ratio_bits` field of a `/v1/predict` response, as the ratio.
fn served_ratio(body: &str) -> f32 {
    let (_, rest) = body.split_once("\"ratio_bits\":\"").expect("ratio_bits in the response");
    f32::from_bits(u32::from_str_radix(&rest[..8], 16).expect("eight hex digits"))
}

#[test]
fn a_served_ratio_is_the_evaluated_prediction_bit_for_bit() {
    let ds = build_qor_dataset(&QorDatasetConfig::tiny());
    let cfg = TrainConfig {
        hidden_dim: 16,
        epochs: 2,
        lr: 3e-3,
        batch_samples: 4,
        seed: 5,
        ..TrainConfig::default()
    };
    let (model, _) = train_qor(&ds, QorModelKind::Hoga { num_hops: HOPS }, &cfg);
    let QorModel::Hoga(hoga, _) = &model else { unreachable!() };
    // One entry per training design, in design order.
    let evals = eval_qor(&ds, &model, true);
    let designs: BTreeSet<usize> = ds.train.iter().map(|s| s.design).collect();
    assert_eq!(evals.len(), designs.len());

    let checkpoint =
        std::env::temp_dir().join(format!("hoga-served-qor-{}.bin", std::process::id()));
    let ck = Checkpoint {
        epoch: cfg.epochs as u64,
        seed: cfg.seed,
        lr_scale: 1.0,
        params: hoga.params.clone(),
        opt_state: Vec::new(),
    };
    save_checkpoint(&checkpoint, &ck).expect("write checkpoint");
    let config =
        ServerConfig { checkpoint: checkpoint.clone(), num_hops: HOPS, ..ServerConfig::default() };
    let handle = Server::start(config).expect("server starts on the trained checkpoint");
    let client = HttpClient::new(handle.addr(), Duration::from_secs(30));

    for (eval, design) in evals.iter().zip(designs) {
        assert_eq!(eval.name, ds.designs[design].spec.name);
        let body = encode_aig(&ds.designs[design].aig).to_vec();
        let samples = ds.train.iter().filter(|s| s.design == design);
        for (sample, &evaluated) in samples.zip(&eval.pred) {
            let recipe = sample.recipe.to_string();
            let r = client.post("/v1/predict", &[("X-Recipe", &recipe)], &body).expect("served");
            let text = r.text();
            assert_eq!(r.status, 200, "{text}");
            let served = served_ratio(&text).clamp(0.0, 1.5) * sample.initial_ands as f32;
            assert_eq!(
                served.to_bits(),
                evaluated.to_bits(),
                "{} under {recipe}: served {served}, evaluated {evaluated}",
                eval.name
            );
        }
    }
    handle.shutdown();
    let _ = std::fs::remove_file(&checkpoint);
}
