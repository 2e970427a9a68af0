//! K-LUT technology mapping with AIG re-decomposition.
//!
//! The paper evaluates functional reasoning on AIGs produced "by ABC with
//! complex ASAP 7nm technology mapping", whose role is to *restructure* the
//! network so that adder boundaries are no longer syntactically obvious.
//! This module reproduces that effect end-to-end:
//!
//! 1. enumerate k-feasible cuts ([`hoga_synth::cuts`]),
//! 2. select a LUT cover greedily from the POs (fewest-leaves cut first),
//! 3. compute each LUT's truth table, and
//! 4. rebuild a fresh AIG from the LUT network via Shannon decomposition
//!    ([`hoga_synth::build_from_tt`]).
//!
//! The mapped AIG computes the same function (verified by simulation in the
//! tests) but its local structure — and therefore the naive structural
//! signature of every adder — is rewritten, exactly the obfuscation the
//! Gamora setting needs.

use hoga_circuit::{Aig, Lit, NodeId, NodeKind};
use hoga_synth::build_from_tt;
use hoga_synth::cuts::{enumerate_cuts, ConeWalk, Cut};
use std::collections::HashMap;

/// Result of technology mapping.
#[derive(Debug, Clone)]
pub struct MappedCircuit {
    /// The re-decomposed AIG.
    pub aig: Aig,
    /// Old LUT-root node → literal in the new AIG. Only covered roots (plus
    /// PIs and the constant) appear; interior nodes of LUTs are dissolved.
    pub root_map: HashMap<NodeId, Lit>,
    /// Number of LUTs in the cover (the "mapped cell count").
    pub num_luts: usize,
}

/// Maps `aig` onto `k`-input LUTs and re-decomposes the result into a fresh
/// AIG.
///
/// # Panics
///
/// Panics if `k` is not in `2..=6`.
pub fn lut_map(aig: &Aig, k: usize) -> MappedCircuit {
    assert!((2..=6).contains(&k), "LUT size must be in 2..=6");
    let cuts = enumerate_cuts(aig, k);
    let mut walk = ConeWalk::default();

    // Phase 1: choose the cover. A node is "needed" if it drives a PO or is
    // a leaf of a chosen LUT. Process in reverse topological order so every
    // needed node sees its final status before being covered.
    let mut needed = vec![false; aig.num_nodes()];
    for po in aig.pos() {
        needed[po.node() as usize] = true;
    }
    let mut chosen: Vec<Option<Cut>> = vec![None; aig.num_nodes()];
    for id in (0..aig.num_nodes() as NodeId).rev() {
        if !needed[id as usize] || !matches!(aig.node(id), NodeKind::And(_, _)) {
            continue;
        }
        // A LUT wants to swallow as much logic as possible: choose the cut
        // covering the largest cone, breaking ties toward fewer leaves
        // (deterministic). This is what makes larger k give coarser covers.
        let cut = cuts
            .cuts_of(id)
            .filter(|c| !c.leaves().contains(&id))
            .max_by_key(|c| (walk.cone_size_capped(aig, id, c.leaves(), 64), usize::MAX - c.size()))
            .map(|c| c.to_cut())
            .unwrap_or_else(|| {
                // Fall back to the fanin cut.
                let NodeKind::And(a, b) = aig.node(id) else { unreachable!() };
                let mut leaves = vec![a.node(), b.node()];
                leaves.sort_unstable();
                leaves.dedup();
                Cut::from_leaves(leaves)
            });
        for &leaf in cut.leaves() {
            needed[leaf as usize] = true;
        }
        chosen[id as usize] = Some(cut);
    }

    // Phase 2: rebuild bottom-up.
    let mut out = Aig::new(aig.num_pis());
    let mut root_map: HashMap<NodeId, Lit> = HashMap::new();
    root_map.insert(0, Lit::FALSE);
    for i in 0..aig.num_pis() {
        root_map.insert(aig.pi_lit(i).node(), out.pi_lit(i));
    }
    let mut memo: HashMap<(u64, Vec<Lit>), Lit> = HashMap::new();
    let mut num_luts = 0;
    for id in 0..aig.num_nodes() as NodeId {
        let Some(cut) = &chosen[id as usize] else { continue };
        let leaf_lits: Vec<Lit> = cut
            .leaves()
            .iter()
            .map(|&l| *root_map.get(&l).expect("leaf is a covered root or PI"))
            .collect();
        let tt = walk.truth_table(aig, id, cut.leaves());
        let lit = build_from_tt(&mut out, tt, &leaf_lits, &mut memo);
        root_map.insert(id, lit);
        num_luts += 1;
    }
    for &po in aig.pos() {
        let base = *root_map.get(&po.node()).expect("PO driver covered");
        out.add_po(if po.is_complemented() { !base } else { base });
    }
    // Compaction renumbers nodes; translate the root map through the remap,
    // dropping roots whose logic turned out to be dead in the new AIG.
    let remap = out.compact();
    let root_map = root_map
        .into_iter()
        .filter_map(|(old, lit)| {
            remap[lit.node() as usize].map(|new| (old, Lit::from_node(new, lit.is_complemented())))
        })
        .collect();
    MappedCircuit { aig: out, root_map, num_luts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::csa_multiplier;
    use hoga_circuit::simulate::probably_equivalent;

    fn full_adder_aig() -> Aig {
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
    fn mapping_preserves_function() {
        let g = full_adder_aig();
        for k in [2, 3, 4, 6] {
            let mapped = lut_map(&g, k);
            assert!(probably_equivalent(&g, &mapped.aig, 4, k as u64), "k={k} broke function");
        }
    }

    #[test]
    fn mapping_restructures_multiplier() {
        let tc = csa_multiplier(4);
        let mapped = lut_map(&tc.aig, 4);
        assert!(probably_equivalent(&tc.aig, &mapped.aig, 4, 0));
        // Structure must actually change for the obfuscation to be real.
        assert_ne!(tc.aig, mapped.aig);
        assert!(mapped.num_luts > 0);
        assert!(mapped.num_luts < tc.aig.num_ands(), "LUT cover must be coarser than gates");
    }

    #[test]
    fn trivial_circuits_map_cleanly() {
        let mut g = Aig::new(2);
        let (a, b) = (g.pi_lit(0), g.pi_lit(1));
        let x = g.and(a, !b);
        g.add_po(x);
        g.add_po(!a);
        let mapped = lut_map(&g, 4);
        assert!(probably_equivalent(&g, &mapped.aig, 4, 9));
    }

    #[test]
    fn mapping_is_deterministic() {
        let tc = csa_multiplier(4);
        let m1 = lut_map(&tc.aig, 4);
        let m2 = lut_map(&tc.aig, 4);
        assert_eq!(m1.aig, m2.aig);
        assert_eq!(m1.num_luts, m2.num_luts);
    }

    #[test]
    fn larger_k_gives_coarser_cover() {
        let tc = csa_multiplier(6);
        let m2 = lut_map(&tc.aig, 2);
        let m6 = lut_map(&tc.aig, 6);
        assert!(m6.num_luts < m2.num_luts, "{} !< {}", m6.num_luts, m2.num_luts);
    }
}
