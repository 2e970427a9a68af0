//! Table 2 — QoR prediction: GCN vs HOGA-2 vs HOGA-5.
//!
//! Trains the three models on the 20 training designs and reports per-test-
//! design MAPE, the average, and wall-clock training time, exactly the
//! columns of the paper's Table 2. Expected *shape*: both HOGA variants
//! beat the GCN on unseen designs, HOGA-5 ≤ HOGA-2 in error, HOGA-2 much
//! faster to train than HOGA-5/GCN.

use crate::trainer::{
    average_mape, eval_qor, train_qor, QorEval, QorModel, QorModelKind, TrainConfig, TrainStats,
};
use hoga_datasets::openabcd::{build_qor_dataset, QorDataset, QorDatasetConfig};

/// Configuration for the Table-2 experiment.
#[derive(Debug, Clone)]
pub struct Table2Config {
    /// Dataset construction parameters.
    pub dataset: QorDatasetConfig,
    /// Shared training hyperparameters.
    pub train: TrainConfig,
    /// GCN depth (paper: 5).
    pub gcn_layers: usize,
}

impl Default for Table2Config {
    fn default() -> Self {
        Self {
            dataset: QorDatasetConfig {
                scale_divisor: 16,
                recipes_per_design: 12,
                max_scaled_nodes: 4000,
                ..QorDatasetConfig::default()
            },
            train: TrainConfig { epochs: 60, lr: 3e-3, ..TrainConfig::default() },
            gcn_layers: 5,
        }
    }
}

impl Table2Config {
    /// A miniature configuration for tests.
    pub fn tiny() -> Self {
        Self {
            dataset: QorDatasetConfig::tiny(),
            train: TrainConfig {
                hidden_dim: 16,
                epochs: 4,
                lr: 3e-3,
                batch_nodes: 128,
                batch_samples: 4,
                seed: 5,
                ..TrainConfig::default()
            },
            gcn_layers: 2,
        }
    }
}

/// One model's row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Model label (`GCN`, `HOGA-2`, `HOGA-5`).
    pub model: String,
    /// Per-test-design evaluations (name, truth, predictions).
    pub evals: Vec<QorEval>,
    /// Average MAPE over test designs (the paper's `Average` column).
    pub average_mape: f32,
    /// Statistics of the training run behind the row.
    pub train: TrainStats,
}

/// The full experiment result, including the trained models so that the
/// Figure-4 driver can reuse them without retraining.
pub struct Table2 {
    /// One row per model, in paper order.
    pub rows: Vec<Table2Row>,
    /// The dataset used (shared with Figure 4).
    pub dataset: QorDataset,
    /// The trained models, parallel to `rows`.
    pub models: Vec<QorModel>,
}

/// Runs the experiment.
pub fn run(cfg: &Table2Config) -> Table2 {
    let dataset = build_qor_dataset(&cfg.dataset);
    let kinds = [
        ("GCN".to_string(), QorModelKind::Gcn { layers: cfg.gcn_layers }),
        ("HOGA-2".to_string(), QorModelKind::Hoga { num_hops: 2 }),
        (
            format!("HOGA-{}", cfg.dataset.num_hops),
            QorModelKind::Hoga { num_hops: cfg.dataset.num_hops },
        ),
    ];
    let mut rows = Vec::new();
    let mut models = Vec::new();
    for (label, kind) in kinds {
        let (model, train) = train_qor(&dataset, kind, &cfg.train);
        let evals = eval_qor(&dataset, &model, false);
        rows.push(Table2Row { model: label, average_mape: average_mape(&evals), evals, train });
        models.push(model);
    }
    Table2 { rows, dataset, models }
}

impl Table2 {
    /// Renders the table in the paper's layout (designs as columns).
    pub fn render(&self) -> String {
        let mut out = String::from("Table 2: model");
        if let Some(first) = self.rows.first() {
            for e in &first.evals {
                out.push_str(&format!(" | {}", e.name));
            }
        }
        out.push_str(" | Average | Training Time\n");
        for row in &self.rows {
            out.push_str(&format!("{:<8}", row.model));
            for e in &row.evals {
                out.push_str(&format!(" | {:>6.2}%", e.mape()));
            }
            out.push_str(&format!(
                " | {:>6.2}% | {:.1?}\n",
                row.average_mape, row.train.train_time
            ));
        }
        for row in &self.rows {
            out.push_str(&format!("{:<8} {}\n", row.model, row.train.phases_line()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_table2_runs_end_to_end() {
        let t = run(&Table2Config::tiny());
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            assert!(row.average_mape.is_finite());
        }
        let rendered = t.render();
        assert!(rendered.contains("GCN"));
        assert!(rendered.contains("HOGA-2"));
        assert!(rendered.contains("Average"));
    }
}
