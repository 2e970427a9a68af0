//! The Gamora-style functional-reasoning benchmark.
//!
//! Following §IV-A/§IV-C of the paper: train on an AIG of an **8-bit
//! multiplier** and evaluate on multipliers of growing bitwidth, all after
//! technology mapping (our k-LUT remap standing in for ASAP 7nm). The task
//! is 4-class node classification (MAJ / XOR / shared / plain).

use hoga_circuit::{adjacency, features, Aig};
use hoga_gen::multiplier::{booth_multiplier, csa_multiplier};
use hoga_gen::reason::{label_nodes, NodeClass};
use hoga_gen::techmap::lut_map;
use hoga_tensor::{CsrMatrix, Matrix};
use std::sync::Arc;

/// Multiplier architecture (the two panels of Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultiplierKind {
    /// Carry-save array multiplier.
    Csa,
    /// Radix-4 Booth multiplier.
    Booth,
}

/// Configuration for [`build_reasoning_graph`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReasoningConfig {
    /// Apply the k-LUT technology mapper before labeling (the paper's
    /// "most challenging" setting).
    pub tech_map: bool,
    /// LUT size for the mapper (4 mirrors a standard cell sweep).
    pub lut_k: usize,
    /// Hops `K` for hop features (paper: 8).
    pub num_hops: usize,
    /// Cut size the functional labeler enumerates at (3 to 6). The labels
    /// are the same for every value — the labeler classifies cuts of at
    /// most three leaves, which every size enumerates alike — so a value
    /// above 3 only costs enumeration time (see `label_nodes`).
    pub label_k: usize,
}

impl Default for ReasoningConfig {
    fn default() -> Self {
        Self { tech_map: true, lut_k: 4, num_hops: 8, label_k: 4 }
    }
}

/// One prepared reasoning graph.
pub struct ReasoningGraph {
    /// Multiplier architecture.
    pub kind: MultiplierKind,
    /// Operand bitwidth.
    pub width: usize,
    /// The (possibly technology-mapped) circuit.
    pub aig: Aig,
    /// Ground-truth class per node.
    pub labels: Vec<NodeClass>,
    /// Symmetric normalized adjacency.
    pub adj: Arc<CsrMatrix>,
    /// Raw node features.
    pub features: Matrix,
    /// Precomputed hop features.
    pub hops: Vec<Matrix>,
}

impl ReasoningGraph {
    /// Class labels as bare indices (for cross-entropy).
    pub fn label_indices(&self) -> Vec<usize> {
        self.labels.iter().map(|l| l.index()).collect()
    }
}

/// Builds one labeled reasoning graph.
///
/// # Panics
///
/// Panics if `width < 2`.
pub fn build_reasoning_graph(
    kind: MultiplierKind,
    width: usize,
    config: &ReasoningConfig,
) -> ReasoningGraph {
    let traced = match kind {
        MultiplierKind::Csa => csa_multiplier(width),
        MultiplierKind::Booth => booth_multiplier(width),
    };
    let aig = if config.tech_map {
        lut_map(&traced.aig, config.lut_k).aig
    } else {
        let mut a = traced.aig;
        a.compact();
        a
    };
    let labels = label_nodes(&aig, config.label_k);
    let adj = Arc::new(adjacency::normalized_symmetric(&aig));
    let feats = features::node_features(&aig);
    let hops = hoga_core::hopfeat::hop_features(&adj, &feats, config.num_hops);
    ReasoningGraph { kind, width, aig, labels, adj, features: feats, hops }
}

/// Builds the paper's benchmark: one training graph (8-bit) and evaluation
/// graphs at each width in `eval_widths`.
pub fn build_reasoning_benchmark(
    kind: MultiplierKind,
    train_width: usize,
    eval_widths: &[usize],
    config: &ReasoningConfig,
) -> (ReasoningGraph, Vec<ReasoningGraph>) {
    let train = build_reasoning_graph(kind, train_width, config);
    let evals = eval_widths.iter().map(|&w| build_reasoning_graph(kind, w, config)).collect();
    (train, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoga_gen::reason::class_histogram;

    fn small_cfg() -> ReasoningConfig {
        ReasoningConfig { tech_map: true, lut_k: 4, num_hops: 4, label_k: 4 }
    }

    #[test]
    fn csa_graph_has_all_key_classes() {
        let g = build_reasoning_graph(MultiplierKind::Csa, 6, &small_cfg());
        let h = class_histogram(&g.labels);
        assert!(h[NodeClass::Maj.index()] > 0, "{h:?}");
        assert!(h[NodeClass::Xor.index()] > 0, "{h:?}");
        assert!(h[NodeClass::Plain.index()] > 0, "{h:?}");
        assert_eq!(g.labels.len(), g.aig.num_nodes());
    }

    #[test]
    fn booth_graph_builds_with_mapping() {
        let g = build_reasoning_graph(MultiplierKind::Booth, 4, &small_cfg());
        assert_eq!(g.hops.len(), 5);
        assert_eq!(g.features.rows(), g.aig.num_nodes());
    }

    #[test]
    fn unmapped_graph_differs_from_mapped() {
        let mut cfg = small_cfg();
        let mapped = build_reasoning_graph(MultiplierKind::Csa, 4, &cfg);
        cfg.tech_map = false;
        let raw = build_reasoning_graph(MultiplierKind::Csa, 4, &cfg);
        assert_ne!(mapped.aig, raw.aig, "mapping must restructure");
    }

    #[test]
    fn benchmark_produces_requested_widths() {
        let (train, evals) =
            build_reasoning_benchmark(MultiplierKind::Csa, 4, &[6, 8], &small_cfg());
        assert_eq!(train.width, 4);
        let widths: Vec<usize> = evals.iter().map(|g| g.width).collect();
        assert_eq!(widths, vec![6, 8]);
        // Larger multipliers have more nodes.
        assert!(evals[1].aig.num_nodes() > evals[0].aig.num_nodes());
        assert!(evals[0].aig.num_nodes() > train.aig.num_nodes());
    }

    #[test]
    fn class_distribution_is_imbalanced_toward_plain() {
        // Sanity: plain nodes dominate, as in real netlists.
        let g = build_reasoning_graph(MultiplierKind::Csa, 8, &small_cfg());
        let h = class_histogram(&g.labels);
        let plain = h[NodeClass::Plain.index()];
        assert!(plain * 2 > g.labels.len(), "plain not dominant: {h:?}");
    }
}
