//! Gamora-style functional labeling of AIG nodes.
//!
//! Gamora (Wu et al., DAC 2023) formulates adder extraction on Boolean
//! networks as 4-way node classification; HOGA adopts the same setting
//! (§IV-C). The classes, in this reproduction:
//!
//! | class | meaning |
//! |-------|---------|
//! | [`NodeClass::Maj`]    | root of a MAJ3 function (a full-adder *carry-out*) |
//! | [`NodeClass::Xor`]    | root of an XOR2/XOR3 function (an adder *sum*) |
//! | [`NodeClass::Shared`] | interior node lying in both a MAJ cone and an XOR cone |
//! | [`NodeClass::Plain`]  | everything else (PIs, plain AND logic) |
//!
//! Labels are produced by **exhaustive cut-function detection**: for every
//! node we enumerate its k-feasible cuts, compute each cut's truth table,
//! and test NPN-equivalence against XOR2/XOR3/MAJ3. This mirrors the exact
//! symbolic procedure Gamora distills into a GNN, and works on *any* AIG —
//! including the technology-mapped ones where constructive traces are no
//! longer available.

use hoga_circuit::{Aig, NodeId, NodeKind};
use hoga_synth::cuts::{enumerate_cuts, ConeWalk};
use serde::{Deserialize, Serialize};

/// Functional class of a node (the prediction target of the reasoning task).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeClass {
    /// Root of a majority-of-three function (full-adder carry).
    Maj,
    /// Root of an exclusive-or function (adder sum).
    Xor,
    /// Node shared between a MAJ cone and an XOR cone.
    Shared,
    /// Any other node.
    Plain,
}

impl NodeClass {
    /// Class index used as the classification label (0..4).
    pub fn index(self) -> usize {
        match self {
            NodeClass::Maj => 0,
            NodeClass::Xor => 1,
            NodeClass::Shared => 2,
            NodeClass::Plain => 3,
        }
    }

    /// Inverse of [`NodeClass::index`].
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 4`. Use the [`TryFrom<usize>`] impl for a
    /// fallible variant.
    pub fn from_index(idx: usize) -> Self {
        Self::try_from(idx).expect("class index out of range")
    }

    /// Number of classes.
    pub const COUNT: usize = 4;
}

/// Error returned when converting an out-of-range index to a [`NodeClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassIndexError {
    /// The rejected index (valid indices are `0..NodeClass::COUNT`).
    pub index: usize,
}

impl std::fmt::Display for ClassIndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "class index {} out of range (expected 0..{})", self.index, NodeClass::COUNT)
    }
}

impl std::error::Error for ClassIndexError {}

impl TryFrom<usize> for NodeClass {
    type Error = ClassIndexError;

    fn try_from(idx: usize) -> Result<Self, ClassIndexError> {
        match idx {
            0 => Ok(NodeClass::Maj),
            1 => Ok(NodeClass::Xor),
            2 => Ok(NodeClass::Shared),
            3 => Ok(NodeClass::Plain),
            _ => Err(ClassIndexError { index: idx }),
        }
    }
}

impl std::fmt::Display for NodeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            NodeClass::Maj => "MAJ",
            NodeClass::Xor => "XOR",
            NodeClass::Shared => "shared",
            NodeClass::Plain => "plain",
        };
        write!(f, "{name}")
    }
}

/// XOR2 truth table over 2 vars.
const TT_XOR2: u64 = 0x6;
/// XOR3 truth table over 3 vars.
const TT_XOR3: u64 = 0x96;
/// MAJ3 truth table over 3 vars.
const TT_MAJ3: u64 = 0xE8;

/// Checks whether `tt` over `n` vars equals the target function up to
/// input and output complementation (an NP-class check; permutations are
/// unnecessary because XOR3 and MAJ3 are symmetric functions). Input-phase
/// matching is essential: adder operands arrive as complemented AIG
/// literals, and `MAJ(!a, b, c)` has a different raw truth table than
/// `MAJ(a, b, c)`.
fn matches_function(tt: u64, n: usize, target: u64) -> bool {
    let mask = (1u64 << (1 << n)) - 1;
    let tt = tt & mask;
    for phase in 0..(1u64 << n) {
        let variant = flip_inputs(target, n, phase) & mask;
        if tt == variant || tt == !variant & mask {
            return true;
        }
    }
    false
}

/// Complements the inputs selected by `phase`: bit `p` of the result is bit
/// `p ^ phase` of `tt`.
fn flip_inputs(tt: u64, n: usize, phase: u64) -> u64 {
    let bits = 1u64 << n;
    let mut out = 0u64;
    for p in 0..bits {
        if tt >> (p ^ phase) & 1 == 1 {
            out |= 1 << p;
        }
    }
    out
}

/// Labels every node of `aig` by exhaustive cut-function detection.
///
/// Returns one [`NodeClass`] per node. `k` is the cut size used for
/// detection; 3 suffices for XOR3/MAJ3 and larger values only add cost
/// (4 is a good default after technology mapping, where a sum root's
/// minimal cut can have an extra leaf).
///
/// # Panics
///
/// Panics if `k > 6`.
pub fn label_nodes(aig: &Aig, k: usize) -> Vec<NodeClass> {
    let cuts = enumerate_cuts(aig, k.max(3));
    let mut walk = ConeWalk::default();
    let n = aig.num_nodes();
    let mut is_maj_root = vec![false; n];
    let mut is_xor_root = vec![false; n];
    let mut in_maj_cone = vec![false; n];
    let mut in_xor_cone = vec![false; n];

    for id in 0..n as NodeId {
        if !matches!(aig.node(id), NodeKind::And(_, _)) {
            continue;
        }
        for cut in cuts.cuts_of(id) {
            if cut.size() > 3 || cut.leaves().contains(&id) {
                continue;
            }
            let tt = walk.truth_table(aig, id, cut.leaves());
            let (xor_hit, maj_hit) = match cut.size() {
                2 => (matches_function(tt, 2, TT_XOR2), false),
                3 => (matches_function(tt, 3, TT_XOR3), matches_function(tt, 3, TT_MAJ3)),
                _ => (false, false),
            };
            if xor_hit || maj_hit {
                if xor_hit {
                    is_xor_root[id as usize] = true;
                }
                if maj_hit {
                    is_maj_root[id as usize] = true;
                }
                for &inner in walk.cone_nodes(aig, id, cut.leaves()) {
                    if inner != id {
                        if xor_hit {
                            in_xor_cone[inner as usize] = true;
                        }
                        if maj_hit {
                            in_maj_cone[inner as usize] = true;
                        }
                    }
                }
            }
        }
    }

    (0..n)
        .map(|i| {
            if is_maj_root[i] && is_xor_root[i] {
                NodeClass::Shared
            } else if is_maj_root[i] {
                NodeClass::Maj
            } else if is_xor_root[i] {
                NodeClass::Xor
            } else if in_maj_cone[i] && in_xor_cone[i] {
                NodeClass::Shared
            } else {
                NodeClass::Plain
            }
        })
        .collect()
}

/// Per-class node counts (diagnostic and class-balance reporting).
pub fn class_histogram(labels: &[NodeClass]) -> [usize; NodeClass::COUNT] {
    let mut h = [0usize; NodeClass::COUNT];
    for &l in labels {
        h[l.index()] += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::{booth_multiplier, csa_multiplier};
    use crate::techmap::lut_map;
    use hoga_circuit::Aig;

    #[test]
    fn full_adder_roots_are_detected() {
        let mut g = Aig::new(3);
        let (a, b, c) = (g.pi_lit(0), g.pi_lit(1), g.pi_lit(2));
        let x = g.xor(a, b);
        let s = g.xor(x, c);
        let carry = g.maj(a, b, c);
        g.add_po(s);
        g.add_po(carry);
        let labels = label_nodes(&g, 3);
        assert_eq!(labels[s.node() as usize], NodeClass::Xor);
        assert_eq!(labels[carry.node() as usize], NodeClass::Maj);
        // The inner xor(a, b) is itself an XOR root.
        assert_eq!(labels[x.node() as usize], NodeClass::Xor);
        // PIs are plain.
        assert_eq!(labels[g.pi_lit(0).node() as usize], NodeClass::Plain);
    }

    #[test]
    fn detection_agrees_with_constructive_traces_on_csa() {
        // Construction traces are *mostly* XOR/MAJ roots, but boundary adder
        // cells with correlated operands (e.g. carry-in equal to the AND of
        // the other two inputs) functionally degenerate — e.g.
        // MAJ(x, y, x·y) = x·y — and the truth-table detector rightly calls
        // those plain. Agreement is therefore asserted statistically, on a
        // width where interior (non-boundary) cells dominate.
        let tc = csa_multiplier(6);
        let labels = label_nodes(&tc.aig, 3);
        let (mut sum_hits, mut sum_total) = (0usize, 0usize);
        let (mut carry_hits, mut carry_total) = (0usize, 0usize);
        for t in &tc.adders {
            sum_total += 1;
            if matches!(labels[t.sum.node() as usize], NodeClass::Xor | NodeClass::Shared) {
                sum_hits += 1;
            }
            if t.kind == crate::adders::AdderKind::Full {
                carry_total += 1;
                if matches!(labels[t.carry.node() as usize], NodeClass::Maj | NodeClass::Shared) {
                    carry_hits += 1;
                }
            }
        }
        assert!(
            sum_hits * 10 >= sum_total * 8,
            "only {sum_hits}/{sum_total} sum roots detected as XOR"
        );
        assert!(
            carry_hits * 10 >= carry_total * 8,
            "only {carry_hits}/{carry_total} carry roots detected as MAJ"
        );
    }

    #[test]
    fn plain_conjunction_has_no_adder_labels() {
        let mut g = Aig::new(4);
        let mut acc = g.pi_lit(0);
        for i in 1..4 {
            let p = g.pi_lit(i);
            acc = g.and(acc, p);
        }
        g.add_po(acc);
        let labels = label_nodes(&g, 3);
        assert!(labels.iter().all(|&l| l == NodeClass::Plain));
    }

    #[test]
    fn labels_survive_technology_mapping() {
        // After LUT mapping + re-decomposition, the detector must still find
        // a healthy population of XOR/MAJ roots in a multiplier (this is the
        // core premise of evaluating reasoning on mapped netlists).
        let tc = csa_multiplier(6);
        let mapped = lut_map(&tc.aig, 4);
        let labels = label_nodes(&mapped.aig, 4);
        let h = class_histogram(&labels);
        assert!(h[NodeClass::Maj.index()] > 0, "no MAJ roots after mapping: {h:?}");
        assert!(h[NodeClass::Xor.index()] > 0, "no XOR roots after mapping: {h:?}");
        assert!(h[NodeClass::Plain.index()] > 0);
    }

    #[test]
    fn booth_multiplier_has_all_plain_and_adder_classes() {
        let tc = booth_multiplier(6);
        let labels = label_nodes(&tc.aig, 3);
        let h = class_histogram(&labels);
        assert!(h[NodeClass::Maj.index()] > 0, "{h:?}");
        assert!(h[NodeClass::Xor.index()] > 0, "{h:?}");
        assert!(h[NodeClass::Plain.index()] > 0, "{h:?}");
    }

    #[test]
    fn histogram_sums_to_node_count() {
        let tc = csa_multiplier(4);
        let labels = label_nodes(&tc.aig, 3);
        let h = class_histogram(&labels);
        assert_eq!(h.iter().sum::<usize>(), tc.aig.num_nodes());
    }

    #[test]
    fn phase_matching_detects_complemented_maj() {
        // MAJ(!a, b, c): flip var 0 of 0xE8.
        let maj_na = super::flip_inputs(0xE8, 3, 0b001);
        assert_ne!(maj_na & 0xFF, 0xE8, "flip must change the raw table");
        assert!(super::matches_function(maj_na, 3, 0xE8));
        assert!(super::matches_function(!maj_na, 3, 0xE8));
        // AND3 is not in MAJ3's NP class.
        assert!(!super::matches_function(0x80, 3, 0xE8));
    }

    #[test]
    fn class_index_roundtrips() {
        for idx in 0..NodeClass::COUNT {
            assert_eq!(NodeClass::from_index(idx).index(), idx);
            assert_eq!(NodeClass::try_from(idx).unwrap().index(), idx);
        }
    }

    #[test]
    fn class_index_out_of_range_is_typed_error() {
        let err = NodeClass::try_from(NodeClass::COUNT).unwrap_err();
        assert_eq!(err, ClassIndexError { index: 4 });
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn class_display_is_stable() {
        assert_eq!(NodeClass::Maj.to_string(), "MAJ");
        assert_eq!(NodeClass::Xor.to_string(), "XOR");
        assert_eq!(NodeClass::Shared.to_string(), "shared");
        assert_eq!(NodeClass::Plain.to_string(), "plain");
    }
}
