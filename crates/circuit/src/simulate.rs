//! Bit-parallel AIG simulation.
//!
//! Simulating 64 input patterns per machine word gives a cheap semantic
//! signature per node. The synthesis passes in `hoga-synth` use signatures
//! as a *functionality oracle*: a transform that changes any PO signature on
//! random patterns is certainly wrong (the property tests exploit this), and
//! the functional labeler in `hoga-gen` uses exact exhaustive simulation on
//! small cuts.

use crate::{Aig, Lit, NodeKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Evaluates every node on the given per-PI input words.
///
/// Bit `j` of word `i` is the value of PI `i` in pattern `j`. Returns one
/// word per node (node 0 is constant false = all zeros).
///
/// # Panics
///
/// Panics if `pi_words.len() != aig.num_pis()`.
pub fn simulate_words(aig: &Aig, pi_words: &[u64]) -> Vec<u64> {
    assert_eq!(pi_words.len(), aig.num_pis(), "one input word per PI required");
    let mut vals = vec![0u64; aig.num_nodes()];
    for i in 0..aig.num_nodes() {
        vals[i] = match aig.node(i as u32) {
            NodeKind::Const0 => 0,
            NodeKind::Pi(k) => pi_words[k as usize],
            NodeKind::And(a, b) => lit_value(&vals, a) & lit_value(&vals, b),
        };
    }
    vals
}

fn lit_value(vals: &[u64], lit: Lit) -> u64 {
    let v = vals[lit.node() as usize];
    if lit.is_complemented() {
        !v
    } else {
        v
    }
}

/// Evaluates the primary outputs on the given per-PI input words.
///
/// # Panics
///
/// Panics if `pi_words.len() != aig.num_pis()`.
pub fn simulate_pos(aig: &Aig, pi_words: &[u64]) -> Vec<u64> {
    let vals = simulate_words(aig, pi_words);
    aig.pos().iter().map(|&po| lit_value(&vals, po)).collect()
}

/// Random 64-pattern signature of every *node* (used by resubstitution to
/// find candidate equivalences).
pub fn node_signature(aig: &Aig, seed: u64) -> Vec<u64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pi_words: Vec<u64> = (0..aig.num_pis()).map(|_| rng.gen()).collect();
    simulate_words(aig, &pi_words)
}

/// Checks functional equivalence of two AIGs on `rounds * 64` random
/// patterns (a probabilistic check; inequality is definitive, equality is
/// high-confidence for the generated circuit classes).
///
/// # Panics
///
/// Panics if the PI or PO counts differ — those are interface mismatches,
/// not functional differences.
pub fn probably_equivalent(a: &Aig, b: &Aig, rounds: usize, seed: u64) -> bool {
    assert_eq!(a.num_pis(), b.num_pis(), "PI count mismatch");
    assert_eq!(a.num_pos(), b.num_pos(), "PO count mismatch");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..rounds {
        let pi_words: Vec<u64> = (0..a.num_pis()).map(|_| rng.gen()).collect();
        if simulate_pos(a, &pi_words) != simulate_pos(b, &pi_words) {
            return false;
        }
    }
    true
}

/// Maximum PI count for which exhaustive equivalence checking is offered
/// (2^16 patterns = 1024 simulation words).
pub const EXHAUSTIVE_PI_LIMIT: usize = 16;

/// Builds the PI words for exhaustive block `block` (patterns
/// `block*64 .. block*64+63`): bit `j` of word `i` is bit `i` of the
/// assignment index `block*64 + j`.
fn exhaustive_block_words(num_pis: usize, block: u64) -> Vec<u64> {
    (0..num_pis)
        .map(|i| {
            let mut w = 0u64;
            for j in 0..64u64 {
                let assignment = block * 64 + j;
                if assignment >> i & 1 == 1 {
                    w |= 1 << j;
                }
            }
            w
        })
        .collect()
}

/// *Exhaustively* checks functional equivalence of two AIGs over all
/// `2^num_pis` input assignments — a definitive verdict, unlike
/// [`probably_equivalent`].
///
/// # Panics
///
/// Panics if the interfaces differ or there are more than
/// [`EXHAUSTIVE_PI_LIMIT`] PIs.
pub fn exhaustive_equivalent(a: &Aig, b: &Aig) -> bool {
    assert_eq!(a.num_pis(), b.num_pis(), "PI count mismatch");
    assert_eq!(a.num_pos(), b.num_pos(), "PO count mismatch");
    assert!(
        a.num_pis() <= EXHAUSTIVE_PI_LIMIT,
        "exhaustive check limited to {EXHAUSTIVE_PI_LIMIT} PIs"
    );
    let blocks = 1u64 << a.num_pis().saturating_sub(6);
    let tail_mask = if a.num_pis() >= 6 { u64::MAX } else { (1u64 << (1 << a.num_pis())) - 1 };
    for block in 0..blocks {
        let words = exhaustive_block_words(a.num_pis(), block);
        let pa = simulate_pos(a, &words);
        let pb = simulate_pos(b, &words);
        for (x, y) in pa.iter().zip(&pb) {
            if (x ^ y) & tail_mask != 0 {
                return false;
            }
        }
    }
    true
}

/// Exhaustive per-node signatures over all `2^num_pis` assignments
/// (one `Vec<u64>` of `2^max(pis-6,0)` words per node). Two nodes with
/// equal exhaustive signatures are *provably* equivalent.
///
/// # Panics
///
/// Panics if there are more than [`EXHAUSTIVE_PI_LIMIT`] PIs.
pub fn exhaustive_node_signatures(aig: &Aig) -> Vec<Vec<u64>> {
    assert!(
        aig.num_pis() <= EXHAUSTIVE_PI_LIMIT,
        "exhaustive signatures limited to {EXHAUSTIVE_PI_LIMIT} PIs"
    );
    let blocks = 1u64 << aig.num_pis().saturating_sub(6);
    let tail_mask = if aig.num_pis() >= 6 { u64::MAX } else { (1u64 << (1 << aig.num_pis())) - 1 };
    let mut sigs: Vec<Vec<u64>> = vec![Vec::with_capacity(blocks as usize); aig.num_nodes()];
    for block in 0..blocks {
        let words = exhaustive_block_words(aig.num_pis(), block);
        let vals = simulate_words(aig, &words);
        for (sig, v) in sigs.iter_mut().zip(vals) {
            sig.push(v & tail_mask);
        }
    }
    sigs
}

/// Exhaustively evaluates output `po_idx` as a truth table over up to 6 PIs.
///
/// Bit `p` of the result is the output value when PI `i` takes bit `i` of
/// pattern index `p`.
///
/// # Panics
///
/// Panics if the AIG has more than 6 PIs or `po_idx` is out of range.
pub fn exhaustive_truth_table(aig: &Aig, po_idx: usize) -> u64 {
    assert!(aig.num_pis() <= 6, "exhaustive simulation supports at most 6 PIs");
    assert!(po_idx < aig.num_pos(), "PO index out of range");
    // Standard truth-table input words: PI i alternates in blocks of 2^i.
    const MASKS: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    let pi_words: Vec<u64> = (0..aig.num_pis()).map(|i| MASKS[i]).collect();
    let out = simulate_pos(aig, &pi_words)[po_idx];
    let bits = 1u32 << aig.num_pis();
    if bits == 64 {
        out
    } else {
        out & ((1u64 << bits) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Aig {
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
    fn full_adder_truth_tables() {
        let g = full_adder();
        let sum = exhaustive_truth_table(&g, 0);
        let carry = exhaustive_truth_table(&g, 1);
        // XOR3 over 3 variables: 0x96; MAJ3: 0xE8.
        assert_eq!(sum & 0xFF, 0x96);
        assert_eq!(carry & 0xFF, 0xE8);
    }

    #[test]
    fn simulate_words_matches_exhaustive_per_pattern() {
        let g = full_adder();
        for pattern in 0u64..8 {
            let pi_words: Vec<u64> = (0..3).map(|i| (pattern >> i) & 1).collect();
            let pos = simulate_pos(&g, &pi_words);
            let a = pattern & 1;
            let b = (pattern >> 1) & 1;
            let c = (pattern >> 2) & 1;
            assert_eq!(pos[0] & 1, a ^ b ^ c, "sum at {pattern}");
            assert_eq!(pos[1] & 1, (a & b) | (a & c) | (b & c), "carry at {pattern}");
        }
    }

    #[test]
    fn equivalence_check_accepts_identical_and_rejects_mutant() {
        let g = full_adder();
        assert!(probably_equivalent(&g, &g, 4, 99));
        // Mutant: complement one PO.
        let mut h = g.clone();
        let po0 = h.pos()[0];
        h.set_po(0, !po0);
        assert!(!probably_equivalent(&g, &h, 4, 99));
    }

    #[test]
    fn equivalence_is_structural_independent() {
        // Build sum a different way: s = (a xor b) xor c vs a xor (b xor c).
        let g = full_adder();
        let mut h = Aig::new(3);
        let (a, b, c) = (h.pi_lit(0), h.pi_lit(1), h.pi_lit(2));
        let y = h.xor(b, c);
        let s = h.xor(a, y);
        let carry = h.maj(c, a, b);
        h.add_po(s);
        h.add_po(carry);
        assert!(probably_equivalent(&g, &h, 4, 5));
    }

    #[test]
    fn exhaustive_equivalence_catches_single_minterm_difference() {
        // f = AND of 10 PIs; g = f OR (all PIs = specific pattern) differs
        // on exactly one of 1024 minterms — random sampling almost never
        // sees it, the exhaustive check must.
        let n = 10;
        let mut f = Aig::new(n);
        let mut acc = f.pi_lit(0);
        for i in 1..n {
            let p = f.pi_lit(i);
            acc = f.and(acc, p);
        }
        f.add_po(acc);
        let mut g = Aig::new(n);
        let mut acc2 = g.pi_lit(0);
        for i in 1..n {
            let p = g.pi_lit(i);
            acc2 = g.and(acc2, p);
        }
        // The extra minterm: all PIs low except PI0.
        let mut rare = g.pi_lit(0);
        for i in 1..n {
            let p = g.pi_lit(i);
            rare = g.and(rare, !p);
        }
        let out = g.or(acc2, rare);
        g.add_po(out);
        assert!(!exhaustive_equivalent(&f, &g), "one-minterm difference missed");
        // And two identical builds are exhaustively equal.
        assert!(exhaustive_equivalent(&f, &f));
    }

    #[test]
    fn exhaustive_signatures_prove_node_equality() {
        let g = full_adder();
        let sigs = exhaustive_node_signatures(&g);
        assert_eq!(sigs.len(), g.num_nodes());
        // Constant node: all-zero signature.
        assert!(sigs[0].iter().all(|&w| w == 0));
        // Distinct PIs have distinct signatures.
        assert_ne!(sigs[1], sigs[2]);
        // Each word is masked to the 8 relevant patterns (3 PIs).
        for sig in &sigs {
            for &w in sig {
                assert_eq!(w & !0xFF, 0, "bits beyond 2^3 patterns must be clear");
            }
        }
    }

    #[test]
    fn exhaustive_agrees_with_truth_table() {
        let g = full_adder();
        let mut h = g.clone();
        let po = h.pos()[0];
        h.set_po(0, !po);
        assert!(exhaustive_equivalent(&g, &g.clone()));
        assert!(!exhaustive_equivalent(&g, &h));
    }

    #[test]
    fn constant_node_is_all_zero() {
        let g = full_adder();
        let vals = simulate_words(&g, &[u64::MAX, u64::MAX, u64::MAX]);
        assert_eq!(vals[0], 0);
    }
}
