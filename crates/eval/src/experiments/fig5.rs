//! Figure 5 — multi-worker training-time scaling.
//!
//! Trains HOGA with 1, 2 and 4 data-parallel workers (threads standing in
//! for the paper's GPUs) on a fixed workload and reports wall-clock
//! training time per worker count, plus the one-off hop-feature-generation
//! time (the paper quotes 13 minutes against hours of training). Expected
//! shape: time decreases near-linearly with worker count.

use crate::parallel_train::train_reasoning_parallel;
use crate::trainer::{TrainConfig, TrainStats};
use hoga_core::hopfeat::hop_features;
use hoga_datasets::gamora::{build_reasoning_graph, MultiplierKind, ReasoningConfig};
use std::time::{Duration, Instant};

/// Configuration for the scaling experiment.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Multiplier width of the training workload.
    pub width: usize,
    /// Reasoning-graph construction parameters.
    pub graph: ReasoningConfig,
    /// Training hyperparameters (epochs set the workload size).
    pub train: TrainConfig,
    /// Worker counts to sweep (paper: 1, 2, 4 GPUs).
    pub worker_counts: [usize; 3],
}

impl Default for Fig5Config {
    fn default() -> Self {
        Self {
            width: 24,
            graph: ReasoningConfig::default(),
            train: TrainConfig { epochs: 3, ..TrainConfig::default() },
            worker_counts: [1, 2, 4],
        }
    }
}

impl Fig5Config {
    /// Miniature config for tests.
    pub fn tiny() -> Self {
        Self {
            width: 6,
            graph: ReasoningConfig { tech_map: false, lut_k: 4, num_hops: 3, label_k: 3 },
            train: TrainConfig {
                hidden_dim: 16,
                epochs: 2,
                lr: 3e-3,
                batch_nodes: 128,
                batch_samples: 4,
                seed: 3,
                ..TrainConfig::default()
            },
            worker_counts: [1, 2, 4],
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Worker (thread) count.
    pub workers: usize,
    /// The run's statistics: `train_time` is wall time, the forward and
    /// backward phases are worker time summed over shards.
    pub train: TrainStats,
    /// Speedup relative to 1 worker.
    pub speedup: f64,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// One point per worker count.
    pub points: Vec<ScalingPoint>,
    /// One-off hop-feature-generation time on the same graph.
    pub hop_feature_time: Duration,
}

/// Runs the sweep.
pub fn run(cfg: &Fig5Config) -> Fig5 {
    let graph = build_reasoning_graph(MultiplierKind::Booth, cfg.width, &cfg.graph);
    // The Phase-1 cost on this graph, for the ratio the paper quotes.
    let hop_start = Instant::now();
    let _ = hop_features(&graph.adj, &graph.features, graph.hops.len() - 1);
    let hop_feature_time = hop_start.elapsed();
    let mut points = Vec::new();
    let mut base = None;
    for &w in &cfg.worker_counts {
        let (_, _, stats) =
            train_reasoning_parallel(&graph, &cfg.train, w).expect("worker count is positive");
        let train_time = stats.train.train_time;
        let base_time = *base.get_or_insert(train_time);
        points.push(ScalingPoint {
            workers: w,
            train: stats.train,
            speedup: base_time.as_secs_f64() / train_time.as_secs_f64().max(1e-9),
        });
    }
    Fig5 { points, hop_feature_time }
}

impl Fig5 {
    /// Renders the series the paper plots.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 5: workers | train time | speedup\n");
        for p in &self.points {
            out.push_str(&format!(
                "{:>7} | {:>10.2?} | {:>5.2}x\n",
                p.workers, p.train.train_time, p.speedup
            ));
        }
        // Forward and backward are worker time summed over shards, so they
        // stay level across worker counts while the wall time falls.
        for p in &self.points {
            out.push_str(&format!("{:>7} | {}\n", p.workers, p.train.phases_line()));
        }
        out.push_str(&format!("hop-feature generation (one-off): {:.2?}\n", self.hop_feature_time));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scaling_sweep_runs() {
        let f = run(&Fig5Config::tiny());
        assert_eq!(f.points.len(), 3);
        assert_eq!(f.points[0].workers, 1);
        assert!((f.points[0].speedup - 1.0).abs() < 1e-9);
        for p in &f.points {
            assert!(p.train.train_time > Duration::ZERO);
            assert!(p.train.forward_time > Duration::ZERO, "shard phases reach the stats");
        }
        assert!(f.hop_feature_time > Duration::ZERO);
        let rendered = f.render();
        assert!(rendered.contains("workers"));
        assert_eq!(rendered.matches("phases:").count(), 3, "one phases line per worker count");
    }
}
