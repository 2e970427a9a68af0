//! The structurally hashed And-Inverter Graph.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Index of a node inside an [`Aig`] (`0` is the constant-false node).
pub type NodeId = u32;

/// A literal: a node reference with an optional complement bit, encoded
/// ABC-style as `node_id << 1 | complement`.
///
/// # Examples
///
/// ```
/// use hoga_circuit::Lit;
///
/// let a = Lit::from_node(3, false);
/// assert_eq!(a.node(), 3);
/// assert!(!a.is_complemented());
/// assert!((!a).is_complemented());
/// assert_eq!(!!a, a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Lit(u32);

impl Lit {
    /// The constant-false literal.
    pub const FALSE: Lit = Lit(0);
    /// The constant-true literal.
    pub const TRUE: Lit = Lit(1);

    /// Builds a literal from a node index and a complement flag.
    pub fn from_node(node: NodeId, complemented: bool) -> Self {
        Lit(node << 1 | complemented as u32)
    }

    /// The node this literal refers to.
    pub fn node(self) -> NodeId {
        self.0 >> 1
    }

    /// Whether the literal is complemented (an inverted edge).
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// Whether this is one of the two constant literals.
    pub fn is_const(self) -> bool {
        self.node() == 0
    }

    /// The raw `node << 1 | c` encoding.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a literal from its raw encoding.
    pub fn from_raw(raw: u32) -> Self {
        Lit(raw)
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complemented() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

/// The role of a node inside an [`Aig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// The constant-false node (always node 0).
    Const0,
    /// Primary input number `.0`.
    Pi(u32),
    /// Two-input AND gate over the given fanin literals.
    And(Lit, Lit),
}

/// An ABC-style And-Inverter Graph.
///
/// Nodes are stored in topological order by construction (a gate's fanins
/// always precede it). Gate creation goes through [`Aig::and`], which applies
/// constant folding, the trivial identities, and structural hashing, so
/// equivalent `(f0, f1)` pairs share one node.
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Aig {
    nodes: Vec<NodeKind>,
    pos: Vec<Lit>,
    num_pis: usize,
    #[serde(skip)]
    strash: HashMap<(u32, u32), NodeId>,
}

impl PartialEq for Aig {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.pos == other.pos && self.num_pis == other.num_pis
    }
}

impl Aig {
    /// Creates an AIG with `num_pis` primary inputs and no gates.
    pub fn new(num_pis: usize) -> Self {
        let mut nodes = Vec::with_capacity(num_pis + 1);
        nodes.push(NodeKind::Const0);
        for i in 0..num_pis {
            nodes.push(NodeKind::Pi(i as u32));
        }
        Self { nodes, pos: Vec::new(), num_pis, strash: HashMap::new() }
    }

    /// The positive literal of primary input `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.num_pis()`.
    pub fn pi_lit(&self, idx: usize) -> Lit {
        assert!(idx < self.num_pis, "PI index {idx} out of range");
        Lit::from_node(idx as NodeId + 1, false)
    }

    /// Appends a fresh primary input and returns its positive literal.
    ///
    /// # Panics
    ///
    /// Panics if any AND gate already exists (PIs must precede gates to keep
    /// node order topological).
    // analyze: allow(dead-public-api) — incremental-construction entry of the public AIG builder API; generators use with_pis, tests use this path
    pub fn add_pi(&mut self) -> Lit {
        assert_eq!(self.nodes.len(), self.num_pis + 1, "PIs must be added before any gate");
        self.nodes.push(NodeKind::Pi(self.num_pis as u32));
        self.num_pis += 1;
        Lit::from_node(self.nodes.len() as NodeId - 1, false)
    }

    /// Creates (or reuses) the AND of two literals.
    ///
    /// Applies constant folding (`x·0 = 0`, `x·1 = x`), idempotence
    /// (`x·x = x`), complementation (`x·!x = 0`), canonical fanin ordering,
    /// and structural hashing.
    ///
    /// # Panics
    ///
    /// Panics if either literal refers to a node that does not exist yet.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        assert!((a.node() as usize) < self.nodes.len(), "literal {a} out of range");
        assert!((b.node() as usize) < self.nodes.len(), "literal {b} out of range");
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if a == Lit::FALSE {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if a == b {
            return a;
        }
        if a == !b {
            return Lit::FALSE;
        }
        if let Some(&n) = self.strash.get(&(a.raw(), b.raw())) {
            return Lit::from_node(n, false);
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push(NodeKind::And(a, b));
        self.strash.insert((a.raw(), b.raw()), id);
        Lit::from_node(id, false)
    }

    /// Appends an AND gate *exactly as given*, bypassing constant folding
    /// and structural hashing — used by the AIGER reader so round-trips are
    /// bit-exact. The gate is still registered for future hashing.
    ///
    /// # Errors
    ///
    /// Returns an error if either fanin references a node that does not
    /// exist yet (which would break topological order).
    pub(crate) fn and_raw(&mut self, a: Lit, b: Lit) -> Result<Lit, String> {
        if a.node() as usize >= self.nodes.len() || b.node() as usize >= self.nodes.len() {
            return Err(format!("fanin {a} or {b} out of range"));
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let id = self.nodes.len() as NodeId;
        self.nodes.push(NodeKind::And(a, b));
        self.strash.entry((a.raw(), b.raw())).or_insert(id);
        Ok(Lit::from_node(id, false))
    }

    /// `a OR b` via De Morgan.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// `a XOR b` (three AND gates).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let n_ab = self.and(a, !b);
        let n_ba = self.and(!a, b);
        self.or(n_ab, n_ba)
    }

    /// Majority of three literals — the carry function of a full adder.
    pub fn maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and(a, b);
        let ac = self.and(a, c);
        let bc = self.and(b, c);
        let t = self.or(ab, ac);
        self.or(t, bc)
    }

    /// If-then-else `cond ? then_ : else_`.
    pub fn mux(&mut self, cond: Lit, then_: Lit, else_: Lit) -> Lit {
        let t = self.and(cond, then_);
        let e = self.and(!cond, else_);
        self.or(t, e)
    }

    /// Registers a primary output.
    pub fn add_po(&mut self, lit: Lit) {
        assert!((lit.node() as usize) < self.nodes.len(), "PO literal {lit} out of range");
        self.pos.push(lit);
    }

    /// Number of primary inputs.
    pub fn num_pis(&self) -> usize {
        self.num_pis
    }

    /// Number of primary outputs.
    pub fn num_pos(&self) -> usize {
        self.pos.len()
    }

    /// Total node count (constant + PIs + ANDs).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND gates — the paper's "gate count" QoR metric.
    pub fn num_ands(&self) -> usize {
        self.nodes.len() - 1 - self.num_pis
    }

    /// Number of directed fanin edges (2 per AND gate).
    pub fn num_edges(&self) -> usize {
        self.num_ands() * 2
    }

    /// The kind of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> NodeKind {
        self.nodes[id as usize]
    }

    /// The primary-output literals.
    pub fn pos(&self) -> &[Lit] {
        &self.pos
    }

    /// Replaces primary output `idx` (used by rewriting passes).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or `lit` refers to a missing node.
    pub fn set_po(&mut self, idx: usize, lit: Lit) {
        assert!((lit.node() as usize) < self.nodes.len(), "PO literal {lit} out of range");
        self.pos[idx] = lit;
    }

    /// Iterates over `(id, f0, f1)` for every AND gate, in topological order.
    pub fn and_gates(&self) -> impl Iterator<Item = (NodeId, Lit, Lit)> + '_ {
        self.nodes.iter().enumerate().filter_map(|(i, n)| match n {
            NodeKind::And(a, b) => Some((i as NodeId, *a, *b)),
            _ => None,
        })
    }

    /// Marks the nodes reachable from the POs (transitive fanin).
    pub(crate) fn live_nodes(&self) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        live[0] = true;
        let mut stack: Vec<NodeId> = self.pos.iter().map(|l| l.node()).collect();
        while let Some(n) = stack.pop() {
            if live[n as usize] {
                continue;
            }
            live[n as usize] = true;
            if let NodeKind::And(a, b) = self.nodes[n as usize] {
                stack.push(a.node());
                stack.push(b.node());
            }
        }
        // PIs always remain part of the graph even if dangling.
        for l in live.iter_mut().take(self.num_pis + 1) {
            *l = true;
        }
        live
    }

    /// Removes dangling AND gates, renumbering nodes; returns the old→new
    /// node map (`None` for removed nodes).
    ///
    /// Structural hashing is rebuilt, so subsequent [`Aig::and`] calls keep
    /// deduplicating.
    pub fn compact(&mut self) -> Vec<Option<NodeId>> {
        let live = self.live_nodes();
        let mut remap: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut new_nodes = Vec::with_capacity(self.nodes.len());
        for (i, kind) in self.nodes.iter().enumerate() {
            if !live[i] {
                continue;
            }
            let new_id = new_nodes.len() as NodeId;
            remap[i] = Some(new_id);
            let mapped = match *kind {
                NodeKind::And(a, b) => {
                    let ma = remap[a.node() as usize].expect("fanin must be live");
                    let mb = remap[b.node() as usize].expect("fanin must be live");
                    NodeKind::And(
                        Lit::from_node(ma, a.is_complemented()),
                        Lit::from_node(mb, b.is_complemented()),
                    )
                }
                k => k,
            };
            new_nodes.push(mapped);
        }
        self.nodes = new_nodes;
        for po in &mut self.pos {
            let m = remap[po.node() as usize].expect("PO driver must be live");
            *po = Lit::from_node(m, po.is_complemented());
        }
        self.strash.clear();
        for (i, kind) in self.nodes.iter().enumerate() {
            if let NodeKind::And(a, b) = kind {
                self.strash.insert((a.raw(), b.raw()), i as NodeId);
            }
        }
        remap
    }

    /// Directed fanin→gate edge list as `(src, dst, src_complemented)`.
    pub fn edges(&self) -> Vec<(NodeId, NodeId, bool)> {
        let mut out = Vec::with_capacity(self.num_edges());
        for (id, a, b) in self.and_gates() {
            out.push((a.node(), id, a.is_complemented()));
            out.push((b.node(), id, b.is_complemented()));
        }
        out
    }

    /// Validates internal invariants (fanins precede gates, POs in range).
    ///
    /// Intended for tests and debug assertions.
    pub fn check(&self) -> Result<(), String> {
        if self.nodes.is_empty() || self.nodes[0] != NodeKind::Const0 {
            return Err("node 0 must be Const0".into());
        }
        for (i, kind) in self.nodes.iter().enumerate() {
            match *kind {
                NodeKind::Const0 if i != 0 => return Err(format!("Const0 at index {i}")),
                NodeKind::Pi(k) if i != k as usize + 1 => {
                    return Err(format!("PI {k} at wrong index {i}"))
                }
                NodeKind::And(a, b) if a.node() as usize >= i || b.node() as usize >= i => {
                    return Err(format!("gate {i} has forward fanin"))
                }
                _ => {}
            }
        }
        for po in &self.pos {
            if po.node() as usize >= self.nodes.len() {
                return Err(format!("PO {po} out of range"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding_roundtrips() {
        for node in [0u32, 1, 5, 1000] {
            for c in [false, true] {
                let l = Lit::from_node(node, c);
                assert_eq!(l.node(), node);
                assert_eq!(l.is_complemented(), c);
                assert_eq!(Lit::from_raw(l.raw()), l);
            }
        }
        assert_eq!(!Lit::FALSE, Lit::TRUE);
    }

    #[test]
    fn and_constant_folding() {
        let mut g = Aig::new(1);
        let a = g.pi_lit(0);
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(a, Lit::TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), Lit::FALSE);
        assert_eq!(g.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_dedups() {
        let mut g = Aig::new(2);
        let (a, b) = (g.pi_lit(0), g.pi_lit(1));
        let x = g.and(a, b);
        let y = g.and(b, a); // commuted
        assert_eq!(x, y);
        assert_eq!(g.num_ands(), 1);
        let z = g.and(!a, b);
        assert_ne!(x, z);
        assert_eq!(g.num_ands(), 2);
    }

    #[test]
    fn xor_or_maj_mux_gate_counts() {
        let mut g = Aig::new(3);
        let (a, b, c) = (g.pi_lit(0), g.pi_lit(1), g.pi_lit(2));
        let x = g.xor(a, b);
        assert_eq!(g.num_ands(), 3);
        let _ = g.or(x, c);
        let before = g.num_ands();
        let _ = g.or(x, c); // strashed
        assert_eq!(g.num_ands(), before);
        let _ = g.maj(a, b, c);
        let _ = g.mux(a, b, c);
        assert!(g.check().is_ok());
    }

    #[test]
    fn compact_removes_dangling_gates() {
        let mut g = Aig::new(2);
        let (a, b) = (g.pi_lit(0), g.pi_lit(1));
        let keep = g.and(a, b);
        let _dangling = g.and(!a, !b);
        g.add_po(keep);
        assert_eq!(g.num_ands(), 2);
        let remap = g.compact();
        assert_eq!(g.num_ands(), 1);
        assert!(g.check().is_ok());
        assert_eq!(remap[keep.node() as usize].map(|n| g.node(n)), Some(g.node(g.pos()[0].node())));
    }

    #[test]
    fn compact_preserves_pi_identity() {
        let mut g = Aig::new(3);
        let c = g.pi_lit(2);
        g.add_po(!c);
        g.compact();
        assert_eq!(g.num_pis(), 3);
        assert_eq!(g.pos()[0], !g.pi_lit(2));
    }

    #[test]
    fn strash_works_after_compact() {
        let mut g = Aig::new(2);
        let (a, b) = (g.pi_lit(0), g.pi_lit(1));
        let x = g.and(a, b);
        g.add_po(x);
        g.compact();
        let (a, b) = (g.pi_lit(0), g.pi_lit(1));
        let y = g.and(a, b);
        assert_eq!(y, g.pos()[0]);
        assert_eq!(g.num_ands(), 1);
    }

    #[test]
    fn edges_report_inversion() {
        let mut g = Aig::new(2);
        let (a, b) = (g.pi_lit(0), g.pi_lit(1));
        let x = g.and(!a, b);
        g.add_po(x);
        let edges = g.edges();
        assert_eq!(edges.len(), 2);
        let inverted: Vec<bool> = edges.iter().map(|&(_, _, c)| c).collect();
        assert_eq!(inverted.iter().filter(|&&c| c).count(), 1);
    }

    #[test]
    fn add_pi_after_gate_panics() {
        let mut g = Aig::new(1);
        let a = g.pi_lit(0);
        let _ = g.and(a, !a); // folded, no gate created
        let _ = g.add_pi(); // still fine
        let b = g.pi_lit(1);
        let _ = g.and(a, b);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g2 = g.clone();
            g2.add_pi();
        }));
        assert!(result.is_err());
    }

    #[test]
    fn check_catches_forward_reference() {
        let mut g = Aig::new(1);
        g.add_po(Lit::from_node(1, false));
        assert!(g.check().is_ok());
    }
}
