//! Graphviz DOT export for AIGs.
//!
//! Handy for debugging generators, synthesis passes and the functional
//! labeler: `dot -Tsvg circuit.dot` renders the circuit with inverted
//! edges dashed (the usual AIG drawing convention, cf. Figure 3a of the
//! paper).

use crate::{Aig, NodeKind};
use std::io::Write;

/// Writes the AIG as a Graphviz digraph.
///
/// * PIs are boxes, AND gates ellipses, the constant a diamond.
/// * Complemented fanin edges are dashed.
/// * `labels`, if provided, annotates node names (one string per node id,
///   e.g. the `hoga_gen`-style class names).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Panics
///
/// Panics if `labels` is `Some` but shorter than the node count.
// analyze: allow(dead-public-api) — Graphviz export is a debugging surface for humans, not the pipeline; covered by tests
pub fn write_dot(aig: &Aig, labels: Option<&[String]>, mut w: impl Write) -> std::io::Result<()> {
    if let Some(l) = labels {
        assert!(l.len() >= aig.num_nodes(), "need one label per node");
    }
    writeln!(w, "digraph aig {{")?;
    writeln!(w, "  rankdir=BT;")?;
    for id in 0..aig.num_nodes() {
        let extra = labels.map_or(String::new(), |l| format!("\\n{}", l[id]));
        match aig.node(id as u32) {
            NodeKind::Const0 => writeln!(w, "  n{id} [shape=diamond, label=\"0{extra}\"];")?,
            NodeKind::Pi(k) => writeln!(w, "  n{id} [shape=box, label=\"x{k}{extra}\"];")?,
            NodeKind::And(_, _) => writeln!(w, "  n{id} [shape=ellipse, label=\"∧{id}{extra}\"];")?,
        }
    }
    for (id, a, b) in aig.and_gates() {
        for f in [a, b] {
            let style = if f.is_complemented() { " [style=dashed]" } else { "" };
            writeln!(w, "  n{} -> n{id}{style};", f.node())?;
        }
    }
    for (i, po) in aig.pos().iter().enumerate() {
        let style = if po.is_complemented() { ", style=dashed" } else { "" };
        writeln!(w, "  po{i} [shape=plaintext, label=\"y{i}\"];")?;
        writeln!(w, "  n{} -> po{i} [arrowhead=normal{style}];", po.node())?;
    }
    writeln!(w, "}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Aig {
        let mut g = Aig::new(2);
        let (a, b) = (g.pi_lit(0), g.pi_lit(1));
        let x = g.xor(a, b);
        g.add_po(!x);
        g
    }

    #[test]
    fn dot_contains_every_node_and_edge() {
        let g = sample();
        let mut buf = Vec::new();
        write_dot(&g, None, &mut buf).expect("write");
        let s = String::from_utf8(buf).expect("utf8");
        assert!(s.starts_with("digraph aig {"));
        assert!(s.ends_with("}\n"));
        for id in 0..g.num_nodes() {
            assert!(s.contains(&format!("n{id} [")), "node {id} missing");
        }
        // One dashed PO edge (the complemented output).
        assert!(s.contains("style=dashed"));
        // Edge count: 2 per gate + 1 per PO.
        let edges = s.matches("->").count();
        assert_eq!(edges, g.num_edges() + g.num_pos());
    }

    #[test]
    fn labels_are_embedded() {
        let g = sample();
        let labels: Vec<String> = (0..g.num_nodes()).map(|i| format!("L{i}")).collect();
        let mut buf = Vec::new();
        write_dot(&g, Some(&labels), &mut buf).expect("write");
        let s = String::from_utf8(buf).expect("utf8");
        assert!(s.contains("L0"));
        assert!(s.contains(&format!("L{}", g.num_nodes() - 1)));
    }
}
