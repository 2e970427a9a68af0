//! Topological utilities over AIGs.
//!
//! Nodes inside an [`Aig`] are already stored in topological order; these
//! helpers derive per-node structural quantities used by the feature
//! extractor, the synthesis passes, and the generators.

use crate::Aig;

/// Logic level of every node (PIs and the constant at level 0; an AND is one
/// more than its deepest fanin).
///
/// # Examples
///
/// ```
/// use hoga_circuit::{levels, Aig};
///
/// let mut g = Aig::new(2);
/// let (a, b) = (g.pi_lit(0), g.pi_lit(1));
/// let x = g.xor(a, b);
/// g.add_po(x);
/// let lv = levels(&g);
/// assert_eq!(lv[x.node() as usize], 2); // xor = two AND levels
/// ```
pub fn levels(aig: &Aig) -> Vec<u32> {
    let mut lv = vec![0u32; aig.num_nodes()];
    for (id, a, b) in aig.and_gates() {
        lv[id as usize] = 1 + lv[a.node() as usize].max(lv[b.node() as usize]);
    }
    lv
}

/// Number of gate fanouts of every node (PO references not counted).
pub fn fanout_counts(aig: &Aig) -> Vec<u32> {
    let mut fo = vec![0u32; aig.num_nodes()];
    for (_, a, b) in aig.and_gates() {
        fo[a.node() as usize] += 1;
        fo[b.node() as usize] += 1;
    }
    fo
}

/// The maximum logic level over the PO drivers (circuit depth).
pub fn depth(aig: &Aig) -> u32 {
    let lv = levels(aig);
    aig.pos().iter().map(|po| lv[po.node() as usize]).max().unwrap_or(0)
}

/// Per-node count of complemented fanin edges (0, 1 or 2 for AND gates).
pub(crate) fn inverted_fanin_counts(aig: &Aig) -> Vec<u8> {
    let mut counts = vec![0u8; aig.num_nodes()];
    for (id, a, b) in aig.and_gates() {
        counts[id as usize] = a.is_complemented() as u8 + b.is_complemented() as u8;
    }
    counts
}

/// Whether each node drives at least one primary output.
pub(crate) fn drives_po(aig: &Aig) -> Vec<bool> {
    let mut out = vec![false; aig.num_nodes()];
    for po in aig.pos() {
        out[po.node() as usize] = true;
    }
    out
}

/// Structural summary of an AIG, used by dataset statistics tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AigStats {
    /// Total node count (constant + PIs + ANDs).
    pub nodes: usize,
    /// Directed fanin edges.
    pub edges: usize,
    /// AND-gate count.
    pub ands: usize,
    /// Primary inputs.
    pub pis: usize,
    /// Primary outputs.
    pub pos: usize,
    /// Circuit depth in AND levels.
    pub depth: u32,
}

impl std::fmt::Display for AigStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} nodes, {} edges, {} ANDs, {} PIs, {} POs, depth {}",
            self.nodes, self.edges, self.ands, self.pis, self.pos, self.depth
        )
    }
}

/// Computes an [`AigStats`] summary.
pub fn stats(aig: &Aig) -> AigStats {
    AigStats {
        nodes: aig.num_nodes(),
        edges: aig.num_edges(),
        ands: aig.num_ands(),
        pis: aig.num_pis(),
        pos: aig.num_pos(),
        depth: depth(aig),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder() -> Aig {
        let mut g = Aig::new(3);
        let (a, b, c) = (g.pi_lit(0), g.pi_lit(1), g.pi_lit(2));
        let x = g.xor(a, b);
        let s = g.xor(x, c);
        let carry = g.maj(a, b, c);
        g.add_po(s);
        g.add_po(carry);
        g
    }

    #[test]
    fn levels_monotonic_along_edges() {
        let g = adder();
        let lv = levels(&g);
        for (id, a, b) in g.and_gates() {
            assert!(lv[id as usize] > lv[a.node() as usize]);
            assert!(lv[id as usize] > lv[b.node() as usize]);
        }
    }

    #[test]
    fn depth_of_full_adder() {
        let g = adder();
        assert_eq!(depth(&g), 4); // two chained xors = 4 AND levels
    }

    #[test]
    fn fanout_counts_sum_to_edge_count() {
        let g = adder();
        let fo = fanout_counts(&g);
        let total: u32 = fo.iter().sum();
        assert_eq!(total as usize, g.num_edges());
    }

    #[test]
    fn inverted_fanin_counts_bounded_by_two() {
        let g = adder();
        assert!(inverted_fanin_counts(&g).iter().all(|&c| c <= 2));
    }

    #[test]
    fn drives_po_marks_exactly_po_nodes() {
        let g = adder();
        let d = drives_po(&g);
        let marked = d.iter().filter(|&&b| b).count();
        assert_eq!(marked, 2);
    }

    #[test]
    fn stats_consistent() {
        let g = adder();
        let s = stats(&g);
        assert_eq!(s.ands * 2, s.edges);
        assert_eq!(s.nodes, 1 + s.pis + s.ands);
        assert_eq!(s.pos, 2);
    }
}
