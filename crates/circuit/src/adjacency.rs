//! Graph-matrix views of an AIG.
//!
//! HOGA's hop-wise features (Eq. 3) and the GCN baseline both consume the
//! symmetrically normalized adjacency `Â = D^{-1/2} (A + I) D^{-1/2}` of the
//! *undirected* circuit graph; GraphSAGE-style mean aggregation consumes the
//! row-normalized `D^{-1} A`.
//!
//! All four views share one structure builder that goes from the gate list
//! to CSR arrays in one counting pass and one scatter pass — no triplet list,
//! no sort — and hands them to the checked [`CsrMatrix::from_csr`].

use crate::{Aig, NodeId, NodeKind};
use hoga_tensor::CsrMatrix;

/// Which entries a row of the structure holds.
#[derive(Clone, Copy, PartialEq)]
enum Rows {
    /// A gate's row names its fanins.
    Fanins,
    /// Every node's row names its fanins and its fanouts.
    Neighbours,
    /// Fanins, the node itself, fanouts: the pattern of `A + I`.
    NeighboursAndSelf,
}

/// The distinct fanin nodes of node `id`, ascending: none for an input or the
/// constant, one for a gate that reads the same node twice. The undirected
/// views also drop a gate naming itself, which would be a self-loop.
fn fanins(aig: &Aig, id: NodeId, rows: Rows) -> ([NodeId; 2], usize) {
    let (mut nodes, mut count) = ([0; 2], 0);
    if let NodeKind::And(a, b) = aig.node(id) {
        for f in [a.node().min(b.node()), a.node().max(b.node())] {
            let repeated = count == 1 && nodes[0] == f;
            let self_loop = rows != Rows::Fanins && f == id;
            if !repeated && !self_loop {
                nodes[count] = f;
                count += 1;
            }
        }
    }
    (nodes, count)
}

/// CSR structure (`indptr`, `indices`) of one view of the AIG: count row
/// lengths, prefix-sum them into row starts, scatter in node order. One entry
/// per *distinct* neighbour, so the graph stays unweighted where a gate reads
/// one node twice.
///
/// Nodes are stored in topological order, so a row filled in node order is
/// already ascending: its fanins (smaller ids, written when the row's own node
/// is visited), then the node itself, then its fanouts (larger ids, each
/// written when that gate is visited). A row that is not — only an AIG that
/// breaks the order can produce one — is sorted before it is handed on.
fn structure(aig: &Aig, rows: Rows) -> (Vec<usize>, Vec<u32>) {
    let n = aig.num_nodes();
    let (both_ways, with_self) = (rows != Rows::Fanins, rows == Rows::NeighboursAndSelf);
    let mut indptr = vec![0usize; n + 1];
    for id in 0..n {
        let (fanin, count) = fanins(aig, id as NodeId, rows);
        indptr[id + 1] += count + usize::from(with_self);
        if both_ways {
            for &f in &fanin[..count] {
                indptr[f as usize + 1] += 1;
            }
        }
    }
    for r in 0..n {
        indptr[r + 1] += indptr[r];
    }
    let mut indices = vec![0u32; indptr[n]];
    let mut cursor = indptr[..n].to_vec();
    let mut push = |row: usize, col: NodeId| {
        indices[cursor[row]] = col;
        cursor[row] += 1;
    };
    for id in 0..n {
        let (fanin, count) = fanins(aig, id as NodeId, rows);
        for &f in &fanin[..count] {
            push(id, f);
            if both_ways {
                push(f as usize, id as NodeId);
            }
        }
        if with_self {
            push(id, id as NodeId);
        }
    }
    sort_unsorted_rows(&indptr, &mut indices);
    (indptr, indices)
}

/// Sorts every row that is not already strictly ascending. Entries are
/// distinct by construction, so sorting is all such a row needs.
fn sort_unsorted_rows(indptr: &[usize], indices: &mut [u32]) {
    for w in indptr.windows(2) {
        let row = &mut indices[w[0]..w[1]];
        if !row.windows(2).all(|c| c[0] < c[1]) {
            row.sort_unstable();
        }
    }
}

/// The unweighted matrix of one view: every stored entry is `1.0`.
fn unweighted(aig: &Aig, rows: Rows) -> CsrMatrix {
    let n = aig.num_nodes();
    let (indptr, indices) = structure(aig, rows);
    let values = vec![1.0; indices.len()];
    CsrMatrix::from_csr(n, n, indptr, indices, values)
}

/// Undirected, unweighted adjacency of the AIG (each fanin edge contributes
/// both directions; no self-loops; parallel edges merged).
pub fn undirected(aig: &Aig) -> CsrMatrix {
    unweighted(aig, Rows::Neighbours)
}

/// Directed fanin→gate adjacency (rows = destinations), used by
/// direction-aware models and by the random-walk sampler.
pub fn directed(aig: &Aig) -> CsrMatrix {
    unweighted(aig, Rows::Fanins)
}

/// Symmetric GCN normalization `Â = D^{-1/2} (A + I) D^{-1/2}` over the
/// undirected graph — the operator iterated in Eq. 3 of the paper.
///
/// The result is symmetric, so it serves as its own transpose in backward
/// passes.
pub fn normalized_symmetric(aig: &Aig) -> CsrMatrix {
    let n = aig.num_nodes();
    let (indptr, indices) = structure(aig, Rows::NeighboursAndSelf);
    let deg: Vec<f32> = indptr.windows(2).map(|w| 1.0 / ((w[1] - w[0]) as f32).sqrt()).collect();
    let mut values = Vec::with_capacity(indices.len());
    for (w, &scale) in indptr.windows(2).zip(&deg) {
        values.extend(indices[w[0]..w[1]].iter().map(|&c| scale * deg[c as usize]));
    }
    CsrMatrix::from_csr(n, n, indptr, indices, values)
}

/// Row (mean) normalization `D^{-1} A` over the undirected graph, used by
/// the GraphSAGE baseline's neighbor-mean aggregator.
pub fn normalized_mean(aig: &Aig) -> CsrMatrix {
    let adj = undirected(aig);
    let deg: Vec<f32> =
        adj.row_nnz().iter().map(|&d| if d == 0 { 0.0 } else { 1.0 / d as f32 }).collect();
    adj.scale_rows(&deg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Aig;

    fn sample() -> Aig {
        let mut g = Aig::new(3);
        let (a, b, c) = (g.pi_lit(0), g.pi_lit(1), g.pi_lit(2));
        let x = g.xor(a, b);
        let y = g.and(x, c);
        g.add_po(y);
        g
    }

    #[test]
    fn undirected_is_symmetric_binary() {
        let g = sample();
        let a = undirected(&g);
        let d = a.to_dense();
        assert!(d.max_abs_diff(&d.transpose()) < 1e-6);
        assert!(d.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        // No self loops.
        for i in 0..g.num_nodes() {
            assert_eq!(d[(i, i)], 0.0);
        }
    }

    #[test]
    fn directed_has_two_entries_per_gate() {
        let g = sample();
        let a = directed(&g);
        assert_eq!(a.nnz(), g.num_edges());
    }

    #[test]
    fn symmetric_normalization_rows_bounded() {
        let g = sample();
        let n = normalized_symmetric(&g);
        let d = n.to_dense();
        assert!(d.max_abs_diff(&d.transpose()) < 1e-6, "must stay symmetric");
        // Eigenvalues of the normalized adjacency lie in [-1, 1]; a quick
        // sanity proxy: every entry is in (0, 1].
        for r in 0..g.num_nodes() {
            for (_, v) in n.row_entries(r) {
                assert!(v > 0.0 && v <= 1.0, "entry {v} out of range");
            }
        }
        // Self-loops present.
        for i in 0..g.num_nodes() {
            assert!(d[(i, i)] > 0.0);
        }
    }

    #[test]
    fn mean_normalization_rows_sum_to_one() {
        let g = sample();
        let n = normalized_mean(&g);
        for r in 0..g.num_nodes() {
            let s: f32 = n.row_entries(r).map(|(_, v)| v).sum();
            if s > 0.0 {
                assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
            }
        }
    }

    #[test]
    fn double_fanin_from_same_node_stays_binary() {
        // `Aig::and` folds `x ∧ x` and `x ∧ ¬x` away and hashes a repeated
        // gate; the AIGER reader keeps all three. x = node 1, y = node 2,
        // node 3 = x ∧ x, node 4 = x ∧ ¬x, nodes 5 and 6 = 3 ∧ y, twice.
        let text = "aag 6 2 0 2 4\n2\n4\n10\n12\n6 2 2\n8 2 3\n10 6 4\n12 6 4\n";
        let g = crate::aiger::read_ascii_aiger(text.as_bytes()).expect("valid aag");
        assert_eq!(g.num_ands(), 4, "the reader must not fold or hash");
        let neighbours: [&[usize]; 7] = [&[], &[3, 4], &[5, 6], &[1, 5, 6], &[1], &[2, 3], &[2, 3]];
        let fanins: [&[usize]; 7] = [&[], &[], &[], &[1], &[1], &[2, 3], &[2, 3]];
        let columns = |m: &CsrMatrix, r| m.row_entries(r).map(|(c, _)| c).collect::<Vec<_>>();

        let (u, d) = (undirected(&g), directed(&g));
        let (sym, mean) = (normalized_symmetric(&g), normalized_mean(&g));
        for r in 0..7 {
            // One unit entry per distinct neighbour, whatever the gate repeats.
            assert_eq!(columns(&u, r), neighbours[r], "undirected row {r}");
            assert_eq!(columns(&d, r), fanins[r], "directed row {r}");
            assert!(u.row_entries(r).chain(d.row_entries(r)).all(|(_, v)| v == 1.0));
            assert_eq!(columns(&mean, r), neighbours[r], "mean row {r}");
            assert!(mean.row_entries(r).all(|(_, v)| v == 1.0 / neighbours[r].len() as f32));
            // Â adds the node itself; degrees count distinct neighbours + 1.
            let mut with_self = neighbours[r].to_vec();
            with_self.push(r);
            with_self.sort_unstable();
            assert_eq!(columns(&sym, r), with_self, "normalized row {r}");
            for (c, v) in sym.row_entries(r) {
                let degrees = ((neighbours[r].len() + 1) * (neighbours[c].len() + 1)) as f32;
                assert!((v - 1.0 / degrees.sqrt()).abs() < 1e-6, "Â[{r}, {c}] = {v}");
            }
        }
        for m in [&u, &sym] {
            let dense = m.to_dense();
            assert_eq!(dense.as_slice(), dense.transpose().as_slice(), "must be symmetric");
        }
        // The mean view shares the undirected pattern; only its weights are
        // row-wise.
        assert_eq!(mean.row_nnz(), u.row_nnz());
    }

    #[test]
    fn rows_out_of_order_are_sorted_and_ordered_rows_left_alone() {
        let indptr = [0, 3, 3, 5, 6];
        let mut indices = [4, 0, 2, 1, 3, 0];
        sort_unsorted_rows(&indptr, &mut indices);
        assert_eq!(indices, [0, 2, 4, 1, 3, 0]);
    }
}
