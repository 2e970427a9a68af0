//! K-feasible cut computation and local truth tables.
//!
//! A *cut* of node `n` is a set of nodes (leaves) such that every path from
//! the PIs to `n` passes through a leaf. Cuts are the workhorse of cut-based
//! resynthesis ([`crate::refactor`]), LUT technology mapping
//! (`hoga_gen::techmap`), and cut-function reasoning (`hoga_gen::reason`).
//!
//! We compute one *priority cut set* per node by merging fanin cuts and
//! keeping the `CUTS_PER_NODE` smallest, plus the trivial cut `{n}`.
//!
//! # Storage and allocation
//!
//! A [`CutSet`] is one flat arena: a single `Vec` of leaves, one
//! `(start, len, signature)` entry per cut, and one range of entries per
//! node. [`CutSet::cuts_of`] hands out borrowed [`CutRef`]s into it, and
//! enumeration reads a node's fanin cuts in place. A trial merge writes
//! into a fixed six-leaf buffer on the stack, so enumeration allocates
//! nothing per cut or per merge: only the arena and one reused candidate
//! list grow. The signature sets bit `leaf % 64` for every leaf; the
//! popcount of a union's signature is a lower bound on the union's size,
//! and a cut whose signature has a bit outside another's is not its
//! subset, so both checks only reject what the leaf walks they guard would
//! reject too, and skip those walks.
//!
//! The cone between a root and a cut is walked by a [`ConeWalk`] that a
//! pass creates once and reuses for every node: visit marks are a `Vec` of
//! stamps indexed by node, and a walk bumps the stamp instead of clearing
//! them, so each walk touches only its own cone. Truth tables are evaluated
//! over the walked cone in ascending node id, which is topological order.

use hoga_circuit::{Aig, NodeId, NodeKind};

/// Maximum number of non-trivial cuts kept per node. Sixteen keeps the
/// small (2–3 leaf) cuts that functional detection needs from being crowded
/// out on reconvergent structures like carry-save adders.
const CUTS_PER_NODE: usize = 16;

/// The largest cut size: truth tables stop at six leaves.
const MAX_LEAVES: usize = 6;

/// Truth tables of the six leaf variables (bit `p` = value of leaf `i`
/// under assignment `p`).
pub(crate) const TT_MASKS: [u64; MAX_LEAVES] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// An owned cut: sorted leaf node ids. Only callers that keep a chosen cut
/// past the [`CutSet`] it came from need one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cut {
    leaves: Vec<NodeId>,
}

impl Cut {
    /// Builds a cut from explicit leaves (sorted and deduplicated).
    pub fn from_leaves(mut leaves: Vec<NodeId>) -> Self {
        leaves.sort_unstable();
        leaves.dedup();
        Self { leaves }
    }

    /// The sorted leaf node ids.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }
}

/// A cut borrowed from a [`CutSet`]: sorted leaves and their signature.
#[derive(Debug, Clone, Copy)]
pub struct CutRef<'a> {
    leaves: &'a [NodeId],
    sig: u64,
}

impl<'a> CutRef<'a> {
    /// The cut over sorted `leaves`, with its signature.
    fn new(leaves: &'a [NodeId]) -> Self {
        Self { leaves, sig: leaves.iter().fold(0, |s, &l| s | 1 << (l % 64)) }
    }

    /// The sorted leaf node ids.
    pub fn leaves(&self) -> &'a [NodeId] {
        self.leaves
    }

    /// Number of leaves.
    pub fn size(&self) -> usize {
        self.leaves.len()
    }

    /// An owned copy, for a caller that keeps the cut.
    pub fn to_cut(&self) -> Cut {
        Cut { leaves: self.leaves.to_vec() }
    }

    /// Whether `self`'s leaves are a subset of `other`'s (i.e. `self`
    /// dominates `other` and `other` is redundant).
    fn dominates(&self, other: &CutRef<'_>) -> bool {
        if self.leaves.len() > other.leaves.len() || self.sig & !other.sig != 0 {
            return false;
        }
        let mut j = 0;
        for &l in self.leaves {
            while j < other.leaves.len() && other.leaves[j] < l {
                j += 1;
            }
            if j == other.leaves.len() || other.leaves[j] != l {
                return false;
            }
        }
        true
    }
}

/// A cut under construction: up to six sorted leaves held inline.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    leaves: [NodeId; MAX_LEAVES],
    len: u8,
    sig: u64,
}

impl Candidate {
    fn as_ref(&self) -> CutRef<'_> {
        CutRef { leaves: &self.leaves[..self.len as usize], sig: self.sig }
    }

    /// Merges two sorted leaf sets; `None` if the union exceeds `k`.
    fn merge(a: &CutRef<'_>, b: &CutRef<'_>, k: usize) -> Option<Candidate> {
        let sig = a.sig | b.sig;
        if sig.count_ones() as usize > k {
            return None;
        }
        let (x, y) = (a.leaves, b.leaves);
        let mut out = Candidate { leaves: [0; MAX_LEAVES], len: 0, sig };
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < x.len() || j < y.len() {
            let next = if j == y.len() || (i < x.len() && x[i] < y[j]) {
                i += 1;
                x[i - 1]
            } else if i == x.len() || y[j] < x[i] {
                j += 1;
                y[j - 1]
            } else {
                i += 1;
                j += 1;
                x[i - 1]
            };
            if n == k {
                return None;
            }
            out.leaves[n] = next;
            n += 1;
        }
        out.len = n as u8;
        Some(out)
    }
}

/// Where one cut's leaves sit in the arena, and their signature.
#[derive(Debug, Clone, Copy)]
struct Entry {
    start: u32,
    len: u32,
    sig: u64,
}

/// Per-node cut sets for the whole AIG, in one flat arena.
#[derive(Debug, Clone)]
pub struct CutSet {
    /// Every cut's leaves, back to back.
    leaves: Vec<NodeId>,
    /// One entry per cut; a node's cuts are contiguous, best first.
    cuts: Vec<Entry>,
    /// `nodes[n]` is the range of `cuts` holding node `n`'s non-trivial
    /// cuts. The trivial cut is implicit.
    nodes: Vec<(u32, u32)>,
    k: usize,
}

impl CutSet {
    /// The non-trivial cuts of `node`, best (smallest) first.
    pub fn cuts_of(&self, node: NodeId) -> impl ExactSizeIterator<Item = CutRef<'_>> {
        let (lo, hi) = self.nodes[node as usize];
        self.cuts[lo as usize..hi as usize].iter().map(|e| CutRef {
            leaves: &self.leaves[e.start as usize..(e.start + e.len) as usize],
            sig: e.sig,
        })
    }

    /// The cut-size limit `k` this set was computed with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Appends `node`'s cuts: `candidates` in a stable sort by size, cut
    /// to the first `CUTS_PER_NODE`.
    fn push_node(&mut self, node: NodeId, candidates: &[Candidate]) {
        let lo = self.cuts.len();
        'sizes: for size in 1..=self.k {
            for c in candidates.iter().filter(|c| c.len as usize == size) {
                if self.cuts.len() - lo == CUTS_PER_NODE {
                    break 'sizes;
                }
                let start = self.leaves.len() as u32;
                self.leaves.extend_from_slice(&c.leaves[..size]);
                self.cuts.push(Entry { start, len: size as u32, sig: c.sig });
            }
        }
        self.nodes[node as usize] = (lo as u32, self.cuts.len() as u32);
    }
}

/// Computes k-feasible priority cuts for every node.
///
/// # Panics
///
/// Panics if `k < 2` or `k > 6`.
pub fn enumerate_cuts(aig: &Aig, k: usize) -> CutSet {
    assert!((2..=MAX_LEAVES).contains(&k), "cut size must be in 2..=6");
    let mut set =
        CutSet { leaves: Vec::new(), cuts: Vec::new(), nodes: vec![(0, 0); aig.num_nodes()], k };
    let mut mine: Vec<Candidate> = Vec::new();
    for (id, a, b) in aig.and_gates() {
        mine.clear();
        // Each fanin's cuts, then its trivial cut.
        let (a, b) = ([a.node()], [b.node()]);
        for x in set.cuts_of(a[0]).chain([CutRef::new(&a)]) {
            for y in set.cuts_of(b[0]).chain([CutRef::new(&b)]) {
                let Some(merged) = Candidate::merge(&x, &y, k) else { continue };
                let merged_ref = merged.as_ref();
                if mine.iter().any(|c| c.as_ref().dominates(&merged_ref)) {
                    continue;
                }
                mine.retain(|c| !merged_ref.dominates(&c.as_ref()));
                mine.push(merged);
            }
        }
        set.push_node(id, &mine);
    }
    set
}

/// Reusable buffers for walking the cone between a root and a cut.
///
/// A pass creates one and passes it to every walk: visit marks are stamps
/// indexed by node, bumped per walk, so no walk clears or hashes anything.
#[derive(Debug, Default)]
pub struct ConeWalk {
    marks: Vec<u32>,
    stamp: u32,
    stack: Vec<NodeId>,
    cone: Vec<NodeId>,
    values: Vec<u64>,
}

impl ConeWalk {
    /// Starts a walk: a fresh stamp, with `leaves` already marked so the
    /// walk stops at them.
    fn begin(&mut self, aig: &Aig, leaves: &[NodeId]) {
        if self.marks.len() < aig.num_nodes() {
            self.marks.resize(aig.num_nodes(), 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.marks.fill(0);
            self.stamp = 1;
        }
        for &l in leaves {
            self.marks[l as usize] = self.stamp;
        }
        self.cone.clear();
    }

    /// Collects the cone of `root` above the marked leaves into `cone`, in
    /// depth-first order, stopping once it holds `cap` nodes.
    fn walk(&mut self, aig: &Aig, root: NodeId, cap: usize) {
        self.stack.clear();
        self.stack.push(root);
        while let Some(n) = self.stack.pop() {
            let mark = &mut self.marks[n as usize];
            if *mark == self.stamp {
                continue;
            }
            *mark = self.stamp;
            self.cone.push(n);
            if self.cone.len() >= cap {
                return;
            }
            if let NodeKind::And(a, b) = aig.node(n) {
                self.stack.push(a.node());
                self.stack.push(b.node());
            }
        }
    }

    /// Size of the cone between `root` and `leaves`, with traversal capped
    /// at `cap` nodes (cheap volume heuristic for cut selection).
    pub fn cone_size_capped(
        &mut self,
        aig: &Aig,
        root: NodeId,
        leaves: &[NodeId],
        cap: usize,
    ) -> usize {
        self.begin(aig, leaves);
        self.walk(aig, root, cap);
        self.cone.len()
    }

    /// The nodes strictly inside the cone between `root` and `leaves`
    /// (excluding the leaves, including the root).
    pub fn cone_nodes(&mut self, aig: &Aig, root: NodeId, leaves: &[NodeId]) -> &[NodeId] {
        self.begin(aig, leaves);
        self.walk(aig, root, usize::MAX);
        &self.cone
    }

    /// Computes the truth table of `root` as a function of `leaves`
    /// (supports up to 6 leaves; bit `p` = output under leaf assignment
    /// `p`).
    ///
    /// # Panics
    ///
    /// Panics if there are more than 6 leaves or they do not actually cut
    /// `root` off from the PIs.
    pub fn truth_table(&mut self, aig: &Aig, root: NodeId, leaves: &[NodeId]) -> u64 {
        assert!(leaves.len() <= MAX_LEAVES, "truth tables support at most 6 leaves");
        if self.values.len() < aig.num_nodes() {
            self.values.resize(aig.num_nodes(), 0);
        }
        for (&l, &mask) in leaves.iter().zip(&TT_MASKS) {
            self.values[l as usize] = mask;
        }
        self.begin(aig, leaves);
        self.walk(aig, root, usize::MAX);
        // Every fanin of a cone node is a leaf or a lower-numbered cone node.
        self.cone.sort_unstable();
        for &n in &self.cone {
            self.values[n as usize] = match aig.node(n) {
                NodeKind::Const0 => 0,
                NodeKind::Pi(_) => panic!("reached PI {n} not in cut — invalid cut"),
                NodeKind::And(a, b) => {
                    let value = |l: hoga_circuit::Lit| {
                        let v = self.values[l.node() as usize];
                        if l.is_complemented() {
                            !v
                        } else {
                            v
                        }
                    };
                    value(a) & value(b)
                }
            };
        }
        let tt = self.values[root as usize];
        let bits = 1u32 << leaves.len();
        if bits == 64 {
            tt
        } else {
            tt & ((1u64 << bits) - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoga_circuit::Aig;

    fn full_adder() -> (Aig, hoga_circuit::Lit, hoga_circuit::Lit) {
        let mut g = Aig::new(3);
        let (a, b, c) = (g.pi_lit(0), g.pi_lit(1), g.pi_lit(2));
        let x = g.xor(a, b);
        let s = g.xor(x, c);
        let carry = g.maj(a, b, c);
        g.add_po(s);
        g.add_po(carry);
        (g, s, carry)
    }

    #[test]
    fn cut_merge_respects_k() {
        let a = CutRef::new(&[1, 2, 3]);
        let b = CutRef::new(&[3, 4, 5]);
        let merged = Candidate::merge(&a, &b, 5).expect("five leaves fit k = 5");
        assert_eq!(merged.as_ref().leaves(), &[1, 2, 3, 4, 5]);
        assert_eq!(merged.sig, 0b11_1110);
        assert!(Candidate::merge(&a, &b, 4).is_none());
        // Leaves 64 apart share a signature bit: the popcount only bounds
        // the union from below, and the merge itself rejects it.
        let c = CutRef::new(&[1, 2]);
        let d = CutRef::new(&[65, 66, 130]);
        assert_eq!((c.sig | d.sig).count_ones(), 2);
        assert!(Candidate::merge(&c, &d, 4).is_none());
        assert_eq!(Candidate::merge(&c, &d, 5).unwrap().as_ref().leaves(), &[1, 2, 65, 66, 130]);
    }

    #[test]
    fn domination_filters_supersets() {
        let small = CutRef::new(&[1, 3]);
        let big = CutRef::new(&[1, 2, 3]);
        assert!(small.dominates(&big));
        assert!(!big.dominates(&small));
        assert!(small.dominates(&small));
        // Same signature, different leaves: the subset walk decides.
        let alias = CutRef::new(&[1, 67]);
        assert_eq!(alias.sig, small.sig);
        assert!(!alias.dominates(&big));
    }

    #[test]
    fn full_adder_sum_has_pi_cut_with_xor3_function() {
        let (g, sum, carry) = full_adder();
        let cuts = enumerate_cuts(&g, 4);
        // The 3-PI cut must appear for both outputs and evaluate to XOR3/MAJ3
        // (modulo output complementation of the PO literal).
        let pi_nodes: Vec<NodeId> = (0..3).map(|i| g.pi_lit(i).node()).collect();
        let find_pi_cut = |n: NodeId| {
            cuts.cuts_of(n).find(|c| c.leaves() == pi_nodes.as_slice()).expect("3-PI cut present")
        };
        let mut walk = ConeWalk::default();
        let mut output_tt = |lit: hoga_circuit::Lit| {
            let tt = walk.truth_table(&g, lit.node(), find_pi_cut(lit.node()).leaves());
            if lit.is_complemented() {
                !tt & 0xFF
            } else {
                tt & 0xFF
            }
        };
        assert_eq!(output_tt(sum), 0x96, "sum must be XOR3");
        assert_eq!(output_tt(carry), 0xE8, "carry must be MAJ3");
    }

    #[test]
    fn trivial_cut_truth_table_is_identity() {
        let (g, sum, _) = full_adder();
        let tt = ConeWalk::default().truth_table(&g, sum.node(), &[sum.node()]);
        assert_eq!(tt, 0xAAAA_AAAA_AAAA_AAAA & 0x3);
    }

    #[test]
    fn cone_nodes_counts_inner_gates() {
        let (g, sum, _) = full_adder();
        let pi_cut: Vec<NodeId> = (0..3).map(|i| g.pi_lit(i).node()).collect();
        let mut walk = ConeWalk::default();
        let cone = walk.cone_nodes(&g, sum.node(), &pi_cut).to_vec();
        // Sum cone: two stacked xors = 6 AND gates.
        assert_eq!(cone.len(), 6);
        assert!(cone.contains(&sum.node()));
        assert_eq!(walk.cone_size_capped(&g, sum.node(), &pi_cut, 64), 6);
        assert_eq!(walk.cone_size_capped(&g, sum.node(), &pi_cut, 4), 4);
        // A later walk over the same scratch sees none of this one's marks.
        assert_eq!(walk.cone_nodes(&g, sum.node(), &pi_cut), cone.as_slice());
    }

    #[test]
    fn cut_sets_stay_bounded() {
        // Deep chain: cut counts must stay <= CUTS_PER_NODE.
        let mut g = Aig::new(10);
        let mut acc = g.pi_lit(0);
        for i in 1..10 {
            let p = g.pi_lit(i);
            acc = g.xor(acc, p);
        }
        g.add_po(acc);
        let cuts = enumerate_cuts(&g, 4);
        for n in 0..g.num_nodes() as NodeId {
            assert!(cuts.cuts_of(n).len() <= CUTS_PER_NODE);
            for c in cuts.cuts_of(n) {
                assert!(c.size() <= 4);
            }
        }
    }
}
