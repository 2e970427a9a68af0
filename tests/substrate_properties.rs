//! Property-based integration tests over the circuit/synthesis substrates.
//!
//! These are the repository's strongest correctness guarantees: every
//! synthesis pass and the technology mapper must preserve circuit
//! functionality on *arbitrary* random circuits, and the multiplier
//! generators must agree with native integer arithmetic.

use hoga_check::cases;
use hoga_repro::circuit::simulate::{probably_equivalent, simulate_pos};
use hoga_repro::circuit::{Aig, Lit, NodeId};
use hoga_repro::gen::multiplier::{booth_multiplier, csa_multiplier};
use hoga_repro::gen::reason::{class_histogram, label_nodes};
use hoga_repro::gen::techmap::lut_map;
use hoga_repro::synth::cuts::enumerate_cuts;
use hoga_repro::synth::{balance, refactor, resub, rewrite, run_recipe, Recipe};
use rand::Rng;

/// A random AIG over `pis` inputs with 1 to `max_gates - 1` gates over
/// earlier literals, possibly complemented.
fn random_aig(rng: &mut impl Rng, pis: usize, max_gates: usize) -> Aig {
    let mut aig = Aig::new(pis);
    let mut pool: Vec<Lit> = (0..pis).map(|i| aig.pi_lit(i)).collect();
    for _ in 0..rng.gen_range(1..max_gates) {
        let a = pool[rng.gen_range(0..pool.len())];
        let b = pool[rng.gen_range(0..pool.len())];
        let a = if rng.gen() { !a } else { a };
        let b = if rng.gen() { !b } else { b };
        let l = aig.and(a, b);
        pool.push(l);
    }
    // Last few pool entries become outputs.
    let take = pool.len().min(3);
    for &l in &pool[pool.len() - take..] {
        aig.add_po(l);
    }
    aig
}

/// Runs `property` on 24 random AIGs from [`random_aig`].
fn random_aigs(pis: usize, max_gates: usize, property: impl Fn(&Aig)) {
    cases(24, |rng| property(&random_aig(rng, pis, max_gates)));
}

#[test]
fn balance_preserves_function() {
    random_aigs(6, 60, |aig| assert!(probably_equivalent(aig, &balance(aig), 3, 1)));
}

#[test]
fn rewrite_preserves_function_and_never_grows() {
    random_aigs(6, 60, |aig| {
        let mut r = rewrite(aig, false);
        r.compact();
        let mut base = aig.clone();
        base.compact();
        assert!(probably_equivalent(aig, &r, 3, 2));
        assert!(r.num_ands() <= base.num_ands());
    });
}

#[test]
fn refactor_preserves_function_and_never_grows() {
    random_aigs(6, 50, |aig| {
        let r = refactor(aig, false);
        let mut base = aig.clone();
        base.compact();
        assert!(probably_equivalent(aig, &r, 3, 3));
        assert!(r.num_ands() <= base.num_ands());
    });
}

#[test]
fn resub_preserves_function() {
    random_aigs(6, 60, |aig| assert!(probably_equivalent(aig, &resub(aig, 99), 3, 4)));
}

#[test]
fn full_recipe_preserves_function() {
    random_aigs(5, 40, |aig| {
        let result = run_recipe(aig, &Recipe::resyn2());
        assert!(probably_equivalent(aig, &result.aig, 3, 5));
        assert!(result.final_ands <= result.initial_ands);
    });
}

#[test]
fn lut_mapping_preserves_function() {
    random_aigs(6, 50, |aig| assert!(probably_equivalent(aig, &lut_map(aig, 4).aig, 3, 6)));
}

#[test]
fn compact_preserves_function() {
    random_aigs(6, 60, |aig| {
        let mut c = aig.clone();
        c.compact();
        assert!(probably_equivalent(aig, &c, 3, 7));
        assert!(c.num_ands() <= aig.num_ands());
    });
}

/// The priority-cut algorithm written plainly: every node merges each
/// fanin cut (plus the fanin's trivial cut) with each of the other fanin's,
/// drops unions over `k` leaves, keeps a union only if no kept cut is a
/// subset of it (and drops the kept cuts it is a subset of), then keeps the
/// 16 smallest in a stable sort by size.
fn reference_cuts(aig: &Aig, k: usize) -> Vec<Vec<Vec<NodeId>>> {
    let subset = |s: &[NodeId], t: &[NodeId]| s.iter().all(|l| t.contains(l));
    let mut cuts: Vec<Vec<Vec<NodeId>>> = vec![Vec::new(); aig.num_nodes()];
    for (id, a, b) in aig.and_gates() {
        let with_trivial = |n: NodeId| {
            let mut v = cuts[n as usize].clone();
            v.push(vec![n]);
            v
        };
        let (ca, cb) = (with_trivial(a.node()), with_trivial(b.node()));
        let mut mine: Vec<Vec<NodeId>> = Vec::new();
        for x in &ca {
            for y in &cb {
                let mut merged: Vec<NodeId> = x.iter().chain(y).copied().collect();
                merged.sort_unstable();
                merged.dedup();
                if merged.len() > k || mine.iter().any(|c| subset(c, &merged)) {
                    continue;
                }
                mine.retain(|c| !subset(&merged, c));
                mine.push(merged);
            }
        }
        mine.sort_by_key(Vec::len);
        mine.truncate(16);
        cuts[id as usize] = mine;
    }
    cuts
}

/// The cut engine returns the reference's cuts, in its order, for every
/// node and every cut size its callers use.
#[test]
fn priority_cuts_match_the_naive_reference() {
    cases(24, |rng| {
        let aig = random_aig(rng, 8, 150);
        for k in [2, 3, 4, 6] {
            let cuts = enumerate_cuts(&aig, k);
            for (n, want) in reference_cuts(&aig, k).iter().enumerate() {
                let mut got: Vec<Vec<NodeId>> = Vec::new();
                for cut in cuts.cuts_of(n as NodeId) {
                    got.push(cut.leaves().to_vec());
                }
                assert_eq!(&got, want, "node {n} at k = {k}");
            }
        }
    });
}

/// The CSA multiplier agrees with `u64` multiplication for arbitrary
/// widths and random operands (beyond the unit tests' fixed widths).
#[test]
fn csa_multiplier_matches_integer_product() {
    cases(8, |rng| {
        let width = rng.gen_range(2..7);
        let tc = csa_multiplier(width);
        let words: Vec<u64> = (0..2 * width).map(|_| rng.gen()).collect();
        let pos = simulate_pos(&tc.aig, &words);
        for pattern in 0..64 {
            let bit = |w: u64| (w >> pattern) & 1;
            let av: u64 = (0..width).map(|i| bit(words[i]) << i).sum();
            let bv: u64 = (0..width).map(|i| bit(words[width + i]) << i).sum();
            let got: u64 = (0..2 * width).map(|i| bit(pos[i]) << i).sum();
            assert_eq!(got, (av * bv) & ((1u64 << (2 * width)) - 1));
        }
    });
}

/// Booth (signed) and CSA (unsigned) multipliers agree whenever both
/// operands are non-negative (top bits clear) — they are *not*
/// equivalent on all inputs, because the signed product modulo `2^{2w}`
/// differs once an operand's sign bit is set.
#[test]
fn booth_equals_csa_on_nonnegative_operands() {
    cases(8, |rng| {
        let width = rng.gen_range(3..6);
        let a = csa_multiplier(width);
        let b = booth_multiplier(width);
        let mut words: Vec<u64> = (0..2 * width).map(|_| rng.gen()).collect();
        // Clear both sign bits.
        words[width - 1] = 0;
        words[2 * width - 1] = 0;
        assert_eq!(simulate_pos(&a.aig, &words), simulate_pos(&b.aig, &words));
    });
}

/// A random circuit of AND, XOR and MAJ gates over earlier literals,
/// possibly complemented: [`random_aig`] with the adder functions the
/// labeler looks for mixed in.
fn random_adder_soup(rng: &mut impl Rng, pis: usize, gates: usize) -> Aig {
    fn pick(rng: &mut impl Rng, pool: &[Lit]) -> Lit {
        let l = pool[rng.gen_range(0..pool.len())];
        if rng.gen() {
            !l
        } else {
            l
        }
    }
    let mut aig = Aig::new(pis);
    let mut pool: Vec<Lit> = (0..pis).map(|i| aig.pi_lit(i)).collect();
    for _ in 0..gates {
        let (a, b, c) = (pick(rng, &pool), pick(rng, &pool), pick(rng, &pool));
        let l = match rng.gen_range(0..3) {
            0 => aig.and(a, b),
            1 => aig.xor(a, b),
            _ => aig.maj(a, b, c),
        };
        pool.push(l);
    }
    for &l in &pool[pool.len() - pool.len().min(3)..] {
        aig.add_po(l);
    }
    aig
}

/// `label_nodes` classifies cuts of at most three leaves only, and a cut
/// of three leaves or fewer merges from children's cuts that small, which
/// every `k` enumerates first: so the cut size passed in never changes a
/// label. Checked on random AND/XOR/MAJ circuits and on 4-LUT-mapped CSA
/// and Booth multipliers (where every class occurs).
#[test]
fn labels_do_not_depend_on_the_cut_size() {
    let same_for_every_k = |aig: &Aig| {
        let at3 = label_nodes(aig, 3);
        for k in 4..=6 {
            assert!(label_nodes(aig, k) == at3, "labels at k = {k} differ from k = 3");
        }
        at3
    };
    cases(24, |rng| {
        let aig = random_adder_soup(rng, 6, 80);
        same_for_every_k(&aig);
    });
    for width in [4usize, 6] {
        for traced in [csa_multiplier(width), booth_multiplier(width)] {
            let labels = same_for_every_k(&lut_map(&traced.aig, 4).aig);
            assert!(class_histogram(&labels).iter().all(|&c| c > 0), "width {width}");
        }
    }
}
