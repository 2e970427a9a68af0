//! Simulation-driven resubstitution (ABC `resub`).
//!
//! Two nodes whose simulation signatures agree are merged: the later node's
//! fanouts are redirected to the earlier one (or its complement), and
//! dead-code removal reclaims the duplicate cone. What a merge rests on
//! depends on the AIG's input count:
//! - up to [`EXHAUSTIVE_PI_LIMIT`] inputs the signatures cover every input
//!   pattern, so each merge is proven, and the pass is checked exhaustively;
//! - above that limit a merge rests on 512 random patterns (8 × 64,
//!   near-constant signatures excluded), and the pass is re-checked on 512
//!   fresh ones and rolled back if any output changed. That is a filter,
//!   not a proof: cones that differ only where no sample looked are merged.
//!
//! A recipe's result then meets the label guard (`crate::guard`): 2 × 64
//! more random patterns, and a SAT miter only when its conflict budget is
//! set, which it is not by default. ROADMAP item 18 found default Table 2
//! labels computed on circuits a SAT miter refutes at an `rs` step.

use crate::guard::{PassExhausted, WorkMeter};
use hoga_circuit::simulate::{
    exhaustive_equivalent, exhaustive_node_signatures, node_signature, probably_equivalent,
    EXHAUSTIVE_PI_LIMIT,
};
use hoga_circuit::{Aig, Lit};
use std::collections::HashMap;

/// Number of independent signature rounds required before merging
/// (8 × 64 = 512 random patterns per node).
const SIGNATURE_ROUNDS: usize = 8;

/// Signatures with fewer than this many 0s or 1s across all rounds are
/// *near-constant*: deep AND cones are almost always 0 on random patterns,
/// so two functionally different cones can share a near-constant signature.
/// Merging such nodes is the dominant unsound-resubstitution failure mode,
/// so near-constant classes are never merged.
const MIN_SIGNATURE_ACTIVITY: u32 = 8;

/// Returns a resubstituted copy of `aig` (PI/PO interface preserved).
///
/// `seed` controls the random simulation patterns; different seeds may
/// find different merges. Above [`EXHAUSTIVE_PI_LIMIT`] inputs the result
/// is checked on random patterns only (see the module docs).
pub fn resub(aig: &Aig, seed: u64) -> Aig {
    let mut meter = WorkMeter::unlimited();
    resub_bounded(aig, seed, &mut meter).unwrap_or_else(|_| unreachable!("unlimited meter"))
}

/// [`resub`] under a work budget: one unit per node per signature round
/// plus one per node classified.
pub(crate) fn resub_bounded(
    aig: &Aig,
    seed: u64,
    meter: &mut WorkMeter,
) -> Result<Aig, PassExhausted> {
    // Small input spaces are covered exhaustively — merges become *proofs*.
    // Sampled signatures are only used when the space is too large, where a
    // sparse discrepancy is correspondingly unlikely to matter and the
    // final verification still guards the result.
    let exhaustive = aig.num_pis() <= EXHAUSTIVE_PI_LIMIT;
    // Signature simulation sweeps every node once per round.
    meter.charge((aig.num_nodes() as u64).saturating_mul(SIGNATURE_ROUNDS as u64))?;
    let sigs: Vec<Vec<u64>> = if exhaustive {
        Vec::new()
    } else {
        (0..SIGNATURE_ROUNDS)
            .map(|r| {
                node_signature(
                    aig,
                    seed.wrapping_add((r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                )
            })
            .collect()
    };
    let exhaustive_sigs: Vec<Vec<u64>> =
        if exhaustive { exhaustive_node_signatures(aig) } else { Vec::new() };
    let key = |n: usize| -> Vec<u64> {
        if exhaustive {
            exhaustive_sigs[n].clone()
        } else {
            sigs.iter().map(|s| s[n]).collect()
        }
    };

    // Representative per signature class; complement handled by also
    // indexing the bitwise-NOT signature.
    let mut repr: HashMap<Vec<u64>, Lit> = HashMap::new();
    let mut replacement: Vec<Lit> =
        (0..aig.num_nodes()).map(|i| Lit::from_node(i as u32, false)).collect();

    let total_bits =
        if exhaustive { 1u32 << aig.num_pis() } else { (SIGNATURE_ROUNDS * 64) as u32 };
    for (i, slot) in replacement.iter_mut().enumerate() {
        meter.charge(1)?;
        let k = key(i);
        let ones: u32 = k.iter().map(|w| w.count_ones()).sum();
        // Near-constant sampled signatures are unsafe to merge on; with
        // exhaustive signatures every merge is sound, so no filter applies.
        if !exhaustive
            && (ones < MIN_SIGNATURE_ACTIVITY || ones > total_bits - MIN_SIGNATURE_ACTIVITY)
        {
            continue;
        }
        // Complement within the valid-pattern mask: exhaustive signatures
        // on fewer than 6 PIs only occupy the low 2^pis bits of each word.
        let sig_mask = if exhaustive && aig.num_pis() < 6 {
            (1u64 << (1 << aig.num_pis())) - 1
        } else {
            u64::MAX
        };
        let kc: Vec<u64> = k.iter().map(|&w| !w & sig_mask).collect();
        if let Some(&earlier) = repr.get(&k) {
            *slot = earlier;
        } else if let Some(&earlier) = repr.get(&kc) {
            *slot = !earlier;
        } else {
            repr.insert(k, Lit::from_node(i as u32, false));
        }
    }

    // Rebuild with fanins redirected through `replacement`.
    let mut out = Aig::new(aig.num_pis());
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    for i in 0..aig.num_pis() {
        map[aig.pi_lit(i).node() as usize] = out.pi_lit(i);
    }
    let resolve = |map: &[Lit], replacement: &[Lit], l: Lit| -> Lit {
        let r = replacement[l.node() as usize];
        let base = map[r.node() as usize];
        let flips = l.is_complemented() ^ r.is_complemented();
        if flips {
            !base
        } else {
            base
        }
    };
    for (id, a, b) in aig.and_gates() {
        // Nodes that were replaced still get *translated* (they may be the
        // class representative for later nodes only via `replacement`).
        let na = resolve(&map, &replacement, a);
        let nb = resolve(&map, &replacement, b);
        map[id as usize] = out.and(na, nb);
    }
    for &po in aig.pos() {
        out.add_po(resolve(&map, &replacement, po));
    }
    out.compact();

    // Hard safeguard: exhaustive (definitive) for small input spaces,
    // fresh random patterns otherwise; roll back on any discrepancy.
    let verified = if exhaustive {
        exhaustive_equivalent(aig, &out)
    } else {
        probably_equivalent(aig, &out, 8, seed ^ 0xABCD_EF01)
    };
    if verified {
        Ok(out)
    } else {
        let mut fallback = aig.clone();
        fallback.compact();
        Ok(fallback)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_duplicate_cones() {
        // Same xor built twice from different literal orders; strash cannot
        // see it, signatures can.
        let mut g = Aig::new(2);
        let (a, b) = (g.pi_lit(0), g.pi_lit(1));
        let x1 = {
            let p = g.and(a, !b);
            let q = g.and(!a, b);
            g.or(p, q)
        };
        // xnor = !xor, built structurally differently.
        let x2 = {
            let p = g.and(a, b);
            let q = g.and(!a, !b);
            g.or(p, q)
        };
        g.add_po(x1);
        g.add_po(x2);
        let before = g.num_ands();
        let r = resub(&g, 3);
        assert!(r.num_ands() < before, "{} !< {before}", r.num_ands());
        assert!(probably_equivalent(&g, &r, 4, 17));
    }

    #[test]
    fn identity_on_irredundant_circuit() {
        let mut g = Aig::new(3);
        let (a, b, c) = (g.pi_lit(0), g.pi_lit(1), g.pi_lit(2));
        let x = g.and(a, b);
        let y = g.and(x, c);
        g.add_po(y);
        let r = resub(&g, 5);
        assert_eq!(r.num_ands(), 2);
        assert!(probably_equivalent(&g, &r, 4, 18));
    }

    #[test]
    fn merges_complement_pairs() {
        let mut g = Aig::new(2);
        let (a, b) = (g.pi_lit(0), g.pi_lit(1));
        let nand = {
            let t = g.and(a, b);
            !t
        };
        // or(!a, !b) == nand(a, b): structurally distinct complement pair.
        let or_form = g.or(!a, !b);
        g.add_po(nand);
        g.add_po(or_form);
        let r = resub(&g, 7);
        assert_eq!(r.num_ands(), 1);
        assert!(probably_equivalent(&g, &r, 4, 19));
    }

    #[test]
    fn deterministic_per_seed() {
        let mut g = Aig::new(3);
        let (a, b, c) = (g.pi_lit(0), g.pi_lit(1), g.pi_lit(2));
        let x = g.maj(a, b, c);
        let y = g.xor(a, b);
        g.add_po(x);
        g.add_po(y);
        let r1 = resub(&g, 42);
        let r2 = resub(&g, 42);
        assert_eq!(r1, r2);
    }

    /// Regression for the false-merge bug: two cones differing on a single
    /// rare minterm must never be merged on a small input space (resub is
    /// exhaustive there). Random signatures missed this ~36% of the time.
    #[test]
    fn never_merges_rare_minterm_divergent_cones() {
        let n = 12;
        let mut g = Aig::new(n);
        // f = AND of all PIs' complements except PI0 (near-constant-0 cone).
        let mut f = g.pi_lit(0);
        for i in 1..n {
            let p = g.pi_lit(i);
            f = g.and(f, p);
        }
        // h = f OR rare-minterm: functionally differs from f on one input.
        let mut rare = g.pi_lit(0);
        for i in 1..n {
            let p = g.pi_lit(i);
            rare = g.and(rare, !p);
        }
        let h = g.or(f, rare);
        g.add_po(f);
        g.add_po(h);
        for seed in 0..10 {
            let r = resub(&g, seed);
            assert!(
                hoga_circuit::simulate::exhaustive_equivalent(&g, &r),
                "seed {seed} produced a non-equivalent resubstitution"
            );
        }
    }
}
