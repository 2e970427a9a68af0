//! Prints the bits a training run ends on, for every model kind.
//!
//! A change to the training path that is placement, not arithmetic, must
//! leave this output identical: build the example at the parent commit and
//! at the change and `diff` the two outputs. One line per (kind, seed):
//! the final loss as `f32::to_bits` and an FNV-1a hash over every trained
//! parameter (names and value bits, in registration order).
//!
//! ```text
//! cargo run --release --example trained_bits
//! ```

use hoga_repro::autograd::ParamSet;
use hoga_repro::datasets::gamora::{build_reasoning_graph, MultiplierKind, ReasoningConfig};
use hoga_repro::datasets::openabcd::{build_qor_dataset, QorDatasetConfig};
use hoga_repro::eval::trainer::{
    train_qor, train_reasoning, QorModel, QorModelKind, ReasonModel, ReasonModelKind, TrainConfig,
};
use hoga_repro::hoga::model::Aggregator;

const SEEDS: [u64; 3] = [1, 2, 7];

fn fnv1a(params: &ParamSet) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (_, name, value) in params.iter() {
        eat(name.as_bytes());
        for v in value.as_slice() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

fn report(label: &str, seed: u64, final_loss: f32, params: &ParamSet) {
    println!(
        "{label:<18} seed {seed}  loss {:08x}  params {:016x}",
        final_loss.to_bits(),
        fnv1a(params)
    );
}

fn main() {
    let graph = build_reasoning_graph(
        MultiplierKind::Csa,
        4,
        &ReasoningConfig { tech_map: false, lut_k: 4, num_hops: 3, label_k: 3 },
    );
    let gated = ReasonModelKind::Hoga(Aggregator::GatedSelfAttention);
    let reasoning = [
        ("hoga-gated-attn", gated),
        ("hoga-gate-only", ReasonModelKind::Hoga(Aggregator::GateOnly)),
        ("hoga-sum", ReasonModelKind::Hoga(Aggregator::Sum)),
        ("sign", ReasonModelKind::Sign),
        ("sage", ReasonModelKind::Sage),
        ("saint", ReasonModelKind::Saint),
    ];
    for (label, kind) in reasoning {
        for seed in SEEDS {
            let cfg = TrainConfig {
                hidden_dim: 16,
                epochs: 3,
                lr: 3e-3,
                batch_nodes: 64,
                seed,
                ..TrainConfig::default()
            };
            let (model, stats) = train_reasoning(&graph, kind, &cfg);
            let params = match &model {
                ReasonModel::Hoga(m, _) => &m.params,
                ReasonModel::Sign(m, _) => &m.params,
                ReasonModel::Sage(m, _) => &m.params,
            };
            report(label, seed, stats.final_loss, params);
        }
    }

    // The ledger's `train_reasoning` call; seed 1 ends on loss `3f9ad3a8`.
    let ledger_graph = build_reasoning_graph(MultiplierKind::Csa, 8, &ReasoningConfig::default());
    for seed in SEEDS {
        let cfg = TrainConfig {
            hidden_dim: 64,
            epochs: 1,
            lr: 3e-3,
            batch_nodes: 512,
            seed,
            ..TrainConfig::default()
        };
        let (model, stats) = train_reasoning(&ledger_graph, gated, &cfg);
        if let ReasonModel::Hoga(m, _) = &model {
            report("hoga-ledger", seed, stats.final_loss, &m.params);
        }
    }

    let ds = build_qor_dataset(&QorDatasetConfig::tiny());
    let qor = [
        ("qor-hoga-2", QorModelKind::Hoga { num_hops: 2 }),
        ("qor-gcn-2", QorModelKind::Gcn { layers: 2 }),
    ];
    for (label, kind) in qor {
        for seed in SEEDS {
            let cfg = TrainConfig {
                hidden_dim: 16,
                epochs: 3,
                lr: 3e-3,
                batch_samples: 4,
                seed,
                ..TrainConfig::default()
            };
            let (model, stats) = train_qor(&ds, kind, &cfg);
            let params = match &model {
                QorModel::Hoga(m, _) => &m.params,
                QorModel::Gcn(m, _) => &m.params,
            };
            report(label, seed, stats.final_loss, params);
        }
    }
}
