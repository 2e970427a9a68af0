//! Per-node input features `X`.
//!
//! Mirrors the OpenABC-D featurization: a node-type one-hot (constant / PI /
//! AND / PO-driver) plus a one-hot of the number of inverted fanin edges
//! (0, 1 or 2). The paper feeds these raw features to Eq. 3; richer task
//! conditioning (e.g. the synthesis recipe for QoR prediction) is appended
//! downstream by `hoga-datasets`.

use crate::topo::{drives_po, inverted_fanin_counts};
use crate::{Aig, NodeKind};
use hoga_tensor::Matrix;

/// Width of the node feature vector produced by [`node_features`].
pub const NODE_FEATURE_DIM: usize = 7;

/// Builds the `num_nodes × NODE_FEATURE_DIM` feature matrix:
///
/// | cols | meaning |
/// |------|---------|
/// | 0–2  | one-hot node type: constant, PI, AND |
/// | 3    | 1.0 if the node drives a primary output |
/// | 4–6  | one-hot inverted-fanin count: 0, 1, 2 |
///
/// # Examples
///
/// ```
/// use hoga_circuit::{features::node_features, Aig};
///
/// let mut g = Aig::new(2);
/// let x = {
///     let (a, b) = (g.pi_lit(0), g.pi_lit(1));
///     g.and(a, !b)
/// };
/// g.add_po(x);
/// let f = node_features(&g);
/// assert_eq!(f.rows(), g.num_nodes());
/// assert_eq!(f[(x.node() as usize, 5)], 1.0); // one inverted fanin
/// ```
pub fn node_features(aig: &Aig) -> Matrix {
    let inv = inverted_fanin_counts(aig);
    let po = drives_po(aig);
    let mut m = Matrix::zeros(aig.num_nodes(), NODE_FEATURE_DIM);
    for i in 0..aig.num_nodes() {
        let row = m.row_mut(i);
        match aig.node(i as u32) {
            NodeKind::Const0 => row[0] = 1.0,
            NodeKind::Pi(_) => row[1] = 1.0,
            NodeKind::And(_, _) => row[2] = 1.0,
        }
        if po[i] {
            row[3] = 1.0;
        }
        row[4 + inv[i] as usize] = 1.0;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_rows_are_valid_one_hots() {
        let mut g = Aig::new(3);
        let (a, b, c) = (g.pi_lit(0), g.pi_lit(1), g.pi_lit(2));
        let s = g.xor(a, b);
        let t = g.maj(a, b, c);
        g.add_po(s);
        g.add_po(t);
        let f = node_features(&g);
        for r in 0..f.rows() {
            let type_sum: f32 = f.row(r)[0..3].iter().sum();
            let inv_sum: f32 = f.row(r)[4..7].iter().sum();
            assert_eq!(type_sum, 1.0, "row {r} node type not one-hot");
            assert_eq!(inv_sum, 1.0, "row {r} inversion not one-hot");
        }
    }

    #[test]
    fn pi_and_const_have_zero_inverted_fanins() {
        let g = Aig::new(2);
        let f = node_features(&g);
        assert_eq!(f[(0, 0)], 1.0); // const
        assert_eq!(f[(1, 1)], 1.0); // pi
        assert_eq!(f[(0, 4)], 1.0);
        assert_eq!(f[(1, 4)], 1.0);
    }
}
