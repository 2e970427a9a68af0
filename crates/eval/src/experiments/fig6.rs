//! Figure 6 — functional-reasoning accuracy vs multiplier bitwidth.
//!
//! Trains HOGA, GraphSAGE, GraphSAINT and SIGN on one small multiplier and
//! evaluates node-classification accuracy on multipliers of growing
//! bitwidth, for both CSA and Booth architectures — the paper's hardest
//! generalization test. Expected shape: HOGA ≥ SIGN on Booth; HOGA clearly
//! ahead of everything on CSA; GraphSAINT worst.

use crate::trainer::{eval_reasoning, train_reasoning, ReasonModelKind, TrainConfig, TrainStats};
use hoga_core::model::Aggregator;
use hoga_datasets::gamora::{build_reasoning_benchmark, MultiplierKind, ReasoningConfig};

/// Configuration for the Figure-6 experiment.
#[derive(Debug, Clone)]
pub struct Fig6Config {
    /// Training multiplier width (paper: 8).
    pub train_width: usize,
    /// Evaluation widths (paper: 64..768; CPU default 16..96).
    pub eval_widths: Vec<usize>,
    /// Graph construction (tech mapping etc.).
    pub graph: ReasoningConfig,
    /// Training hyperparameters.
    pub train: TrainConfig,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Self {
            train_width: 8,
            eval_widths: vec![16, 32, 64, 96],
            graph: ReasoningConfig::default(),
            train: TrainConfig { epochs: 100, lr: 3e-3, ..TrainConfig::default() },
        }
    }
}

impl Fig6Config {
    /// Miniature config for tests.
    pub fn tiny() -> Self {
        Self {
            train_width: 4,
            eval_widths: vec![6, 8],
            graph: ReasoningConfig { tech_map: true, lut_k: 4, num_hops: 4, label_k: 4 },
            train: TrainConfig {
                hidden_dim: 16,
                epochs: 8,
                lr: 3e-3,
                batch_nodes: 256,
                batch_samples: 4,
                seed: 11,
                ..TrainConfig::default()
            },
        }
    }
}

/// Accuracy series of one model on one multiplier family.
#[derive(Debug, Clone)]
pub struct AccuracySeries {
    /// Model label.
    pub model: String,
    /// `(bitwidth, accuracy)` points.
    pub points: Vec<(usize, f32)>,
    /// Wall time of the training run behind the series.
    pub train: TrainStats,
}

/// One panel (CSA or Booth) of the figure.
#[derive(Debug, Clone)]
pub struct Fig6Panel {
    /// The multiplier family.
    pub kind: MultiplierKind,
    /// One series per model.
    pub series: Vec<AccuracySeries>,
}

/// The figure's data: both panels.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// CSA and Booth panels.
    pub panels: Vec<Fig6Panel>,
}

/// The four models the paper compares (HOGA last so it renders last).
fn model_suite() -> Vec<(String, ReasonModelKind)> {
    vec![
        ("GraphSAGE".into(), ReasonModelKind::Sage),
        ("GraphSAINT".into(), ReasonModelKind::Saint),
        ("SIGN".into(), ReasonModelKind::Sign),
        ("HOGA".into(), ReasonModelKind::Hoga(Aggregator::GatedSelfAttention)),
    ]
}

/// Runs both panels.
pub fn run(cfg: &Fig6Config) -> Fig6 {
    let panels = [MultiplierKind::Csa, MultiplierKind::Booth]
        .into_iter()
        .map(|kind| run_panel(kind, cfg))
        .collect();
    Fig6 { panels }
}

/// Runs a single panel (the `functional_reasoning` example prints the two
/// panels separately).
pub fn run_panel(kind: MultiplierKind, cfg: &Fig6Config) -> Fig6Panel {
    let (train_graph, eval_graphs) =
        build_reasoning_benchmark(kind, cfg.train_width, &cfg.eval_widths, &cfg.graph);
    let mut series = Vec::new();
    for (label, mkind) in model_suite() {
        let (model, train) = train_reasoning(&train_graph, mkind, &cfg.train);
        let points = eval_graphs.iter().map(|g| (g.width, eval_reasoning(&model, g))).collect();
        series.push(AccuracySeries { model: label, points, train });
    }
    Fig6Panel { kind, series }
}

impl Fig6 {
    /// Renders both panels as the paper's series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for panel in &self.panels {
            out.push_str(&format!("Figure 6 ({:?} multipliers): width", panel.kind));
            if let Some(first) = panel.series.first() {
                for (w, _) in &first.points {
                    out.push_str(&format!(" | {w}"));
                }
            }
            out.push('\n');
            for s in &panel.series {
                out.push_str(&format!("{:<10}", s.model));
                for (_, acc) in &s.points {
                    out.push_str(&format!(" | {:>6.2}%", acc * 100.0));
                }
                out.push('\n');
            }
            for s in &panel.series {
                out.push_str(&format!("{:<10} {}\n", s.model, s.train.phases_line()));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_panel_runs_all_models() {
        let cfg = Fig6Config::tiny();
        let panel = run_panel(MultiplierKind::Csa, &cfg);
        assert_eq!(panel.series.len(), 4);
        for s in &panel.series {
            assert_eq!(s.points.len(), cfg.eval_widths.len());
            for &(_, acc) in &s.points {
                assert!((0.0..=1.0).contains(&acc), "{}: bad accuracy {acc}", s.model);
            }
        }
    }
}
