//! Cut-based cone resynthesis (ABC `refactor`).
//!
//! For every node on a PO cone we take its best k-feasible cut (k ≤ 6),
//! compute the cone's truth table, and rebuild the function from the cut
//! leaves with a memoized Shannon decomposition. The globally resynthesized
//! AIG is accepted only if it has fewer gates than the input after dead-node
//! removal, making `refactor` monotone in gate count.

use crate::cuts::{enumerate_cuts, ConeWalk, CutRef, CutSet, TT_MASKS};
use crate::guard::{PassExhausted, WorkMeter};
use hoga_circuit::{Aig, Lit, NodeId};
use std::collections::HashMap;

/// Returns a refactored copy of `aig`, never with more gates than a
/// compacted copy of the input.
///
/// `zero_cost` accepts the resynthesis even at equal gate count (mirrors
/// ABC's `refactor -z`, which diversifies structure for later passes).
pub fn refactor(aig: &Aig, zero_cost: bool) -> Aig {
    let mut meter = WorkMeter::unlimited();
    refactor_bounded(aig, zero_cost, &mut meter).unwrap_or_else(|_| unreachable!("unlimited meter"))
}

/// [`refactor`] under a work budget: one unit per node for cut enumeration
/// plus one per AND gate resynthesized.
pub(crate) fn refactor_bounded(
    aig: &Aig,
    zero_cost: bool,
    meter: &mut WorkMeter,
) -> Result<Aig, PassExhausted> {
    let mut candidate = resynthesize_all(aig, meter)?;
    candidate.compact();
    let mut baseline = aig.clone();
    baseline.compact();
    let better = candidate.num_ands() < baseline.num_ands()
        || (zero_cost && candidate.num_ands() == baseline.num_ands());
    debug_assert!(
        hoga_circuit::simulate::probably_equivalent(aig, &candidate, 2, 0xDEC0DE),
        "refactor changed circuit function"
    );
    if better {
        Ok(candidate)
    } else {
        Ok(baseline)
    }
}

/// Rebuilds the whole AIG from PO cones using cut truth tables.
fn resynthesize_all(aig: &Aig, meter: &mut WorkMeter) -> Result<Aig, PassExhausted> {
    // Cut enumeration walks every node once before resynthesis begins.
    meter.charge(aig.num_nodes() as u64)?;
    let cuts = enumerate_cuts(aig, 6);
    let mut out = Aig::new(aig.num_pis());
    let mut map: Vec<Option<Lit>> = vec![None; aig.num_nodes()];
    map[0] = Some(Lit::FALSE);
    for i in 0..aig.num_pis() {
        map[aig.pi_lit(i).node() as usize] = Some(out.pi_lit(i));
    }
    let mut tt_memo: HashMap<(u64, Vec<Lit>), Lit> = HashMap::new();
    let mut walk = ConeWalk::default();
    // Nodes are in topo order; build every node bottom-up so leaves are
    // always mapped before roots.
    for (id, a, b) in aig.and_gates() {
        meter.charge(1)?;
        let lit = match best_cut(aig, id, &cuts, &mut walk) {
            Some(cut) => {
                let leaf_lits: Vec<Lit> = cut
                    .leaves()
                    .iter()
                    .map(|&l| map[l as usize].expect("leaf precedes root in topo order"))
                    .collect();
                let tt = walk.truth_table(aig, id, cut.leaves());
                build_from_tt(&mut out, tt, &leaf_lits, &mut tt_memo)
            }
            // Fall back to direct translation.
            None => {
                let tr = |l: Lit| {
                    let base = map[l.node() as usize].expect("fanin mapped");
                    if l.is_complemented() {
                        !base
                    } else {
                        base
                    }
                };
                out.and(tr(a), tr(b))
            }
        };
        map[id as usize] = Some(lit);
    }
    for &po in aig.pos() {
        let m = map[po.node() as usize].expect("PO driver mapped");
        out.add_po(if po.is_complemented() { !m } else { m });
    }
    Ok(out)
}

/// The cut of `id` to resynthesize from, if it has one with two or more
/// leaves.
fn best_cut<'a>(
    aig: &Aig,
    id: NodeId,
    cuts: &'a CutSet,
    walk: &mut ConeWalk,
) -> Option<CutRef<'a>> {
    // Prefer the cut covering the largest cone — the deepest resynthesis
    // scope — rather than the one with the most leaves (an or-tree root's
    // 6-leaf cut of its immediate operands covers almost nothing).
    cuts.cuts_of(id)
        .filter(|c| c.size() >= 2 && !c.leaves().contains(&id))
        .max_by_key(|c| walk.cone_size_capped(aig, id, c.leaves(), 24))
}

/// Builds the function `tt` over `vars` via memoized Shannon decomposition.
///
/// The `memo` map may be shared across calls on the same output AIG to
/// maximize structural sharing (the technology mapper in `hoga-gen` relies
/// on this).
///
/// # Panics
///
/// Panics if more than 6 variables are supplied.
pub fn build_from_tt(
    aig: &mut Aig,
    tt: u64,
    vars: &[Lit],
    memo: &mut HashMap<(u64, Vec<Lit>), Lit>,
) -> Lit {
    assert!(vars.len() <= 6, "at most 6 variables supported");
    let nbits = 1u32 << vars.len();
    let full: u64 = if nbits == 64 { u64::MAX } else { (1u64 << nbits) - 1 };
    let tt = tt & full;
    if tt == 0 {
        return Lit::FALSE;
    }
    if tt == full {
        return Lit::TRUE;
    }
    // Single-literal detection.
    for (i, &v) in vars.iter().enumerate() {
        let m = TT_MASKS[i] & full;
        if tt == m {
            return v;
        }
        if tt == (!TT_MASKS[i]) & full {
            return !v;
        }
    }
    let key = (tt, vars.to_vec());
    if let Some(&l) = memo.get(&key) {
        return l;
    }
    // Split on the highest variable actually in the support.
    let split = (0..vars.len())
        .rev()
        .find(|&i| {
            let m = TT_MASKS[i];
            let shift = 1u32 << i;
            let ones = (tt & m) >> shift;
            let zeros = tt & !m;
            ones & !m & full != zeros & !m & full
        })
        .unwrap_or(vars.len() - 1);
    let m = TT_MASKS[split];
    let shift = 1u32 << split;
    let tt1 = {
        let hi = tt & m;
        (hi | (hi >> shift)) & full
    };
    let tt0 = {
        let lo = tt & !m;
        (lo | (lo << shift)) & full
    };
    let f1 = build_from_tt(aig, tt1, vars, memo);
    let f0 = build_from_tt(aig, tt0, vars, memo);
    let v = vars[split];
    let result = aig.mux(v, f1, f0);
    memo.insert(key, result);
    result
}

/// Support helper used by `build_from_tt`'s split choice. A variable is in
/// the support iff its two cofactors differ.
#[allow(dead_code)]
fn in_support(tt: u64, var: usize, nvars: usize) -> bool {
    let nbits = 1u32 << nvars;
    let full: u64 = if nbits == 64 { u64::MAX } else { (1u64 << nbits) - 1 };
    let m = TT_MASKS[var];
    let shift = 1u32 << var;
    let c1 = ((tt & m) >> shift) & !m & full;
    let c0 = tt & !m & full;
    c1 != c0
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoga_circuit::simulate::{exhaustive_truth_table, probably_equivalent};
    use hoga_circuit::Aig;
    use rand::{Rng, SeedableRng};

    #[test]
    fn build_from_tt_exhaustive_3vars() {
        // Every 3-variable function must be rebuilt exactly.
        for tt in 0u64..256 {
            let mut g = Aig::new(3);
            let vars: Vec<Lit> = (0..3).map(|i| g.pi_lit(i)).collect();
            let mut memo = HashMap::new();
            let f = build_from_tt(&mut g, tt, &vars, &mut memo);
            g.add_po(f);
            assert_eq!(exhaustive_truth_table(&g, 0), tt, "function 0x{tt:02x} broken");
        }
    }

    #[test]
    fn build_from_tt_random_5vars() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        for _ in 0..40 {
            let tt: u64 = rng.gen::<u64>() & 0xFFFF_FFFF;
            let mut g = Aig::new(5);
            let vars: Vec<Lit> = (0..5).map(|i| g.pi_lit(i)).collect();
            let mut memo = HashMap::new();
            let f = build_from_tt(&mut g, tt, &vars, &mut memo);
            g.add_po(f);
            assert_eq!(exhaustive_truth_table(&g, 0), tt);
        }
    }

    #[test]
    fn memo_shares_common_subfunctions() {
        let mut g = Aig::new(4);
        let vars: Vec<Lit> = (0..4).map(|i| g.pi_lit(i)).collect();
        let mut memo = HashMap::new();
        // XOR4 twice: second build must add zero gates.
        let tt_xor4 = {
            let mut t = 0u64;
            for p in 0..16u64 {
                if (p.count_ones() & 1) == 1 {
                    t |= 1 << p;
                }
            }
            t
        };
        let _ = build_from_tt(&mut g, tt_xor4, &vars, &mut memo);
        let n1 = g.num_ands();
        let _ = build_from_tt(&mut g, tt_xor4, &vars, &mut memo);
        assert_eq!(g.num_ands(), n1);
    }

    #[test]
    fn refactor_reduces_redundant_cone() {
        // Build sum-of-minterms form of XOR3 (8 gates worth of redundancy).
        let mut g = Aig::new(3);
        let (a, b, c) = (g.pi_lit(0), g.pi_lit(1), g.pi_lit(2));
        let mut terms = Vec::new();
        for (pa, pb, pc) in
            [(false, false, true), (false, true, false), (true, false, false), (true, true, true)]
        {
            let la = if pa { a } else { !a };
            let lb = if pb { b } else { !b };
            let lc = if pc { c } else { !c };
            let t1 = g.and(la, lb);
            terms.push(g.and(t1, lc));
        }
        let mut acc = terms[0];
        for &t in &terms[1..] {
            acc = g.or(acc, t);
        }
        g.add_po(acc);
        let before = g.num_ands();
        let r = refactor(&g, false);
        assert!(r.num_ands() < before, "{} !< {before}", r.num_ands());
        assert!(probably_equivalent(&g, &r, 4, 0));
    }

    #[test]
    fn refactor_is_identity_when_no_gain() {
        let mut g = Aig::new(2);
        let (a, b) = (g.pi_lit(0), g.pi_lit(1));
        let x = g.and(a, b);
        g.add_po(x);
        let r = refactor(&g, false);
        assert_eq!(r.num_ands(), 1);
        assert!(probably_equivalent(&g, &r, 2, 1));
    }

    #[test]
    fn refactor_random_circuits_preserve_function_and_never_grow() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        for trial in 0..8 {
            let n_pis = 6;
            let mut g = Aig::new(n_pis);
            let mut pool: Vec<Lit> = (0..n_pis).map(|i| g.pi_lit(i)).collect();
            for _ in 0..60 {
                let x = pool[rng.gen_range(0..pool.len())];
                let y = pool[rng.gen_range(0..pool.len())];
                let x = if rng.gen() { !x } else { x };
                let y = if rng.gen() { !y } else { y };
                let l = g.and(x, y);
                pool.push(l);
            }
            for _ in 0..2 {
                let l = pool[rng.gen_range(0..pool.len())];
                g.add_po(l);
            }
            let mut baseline = g.clone();
            baseline.compact();
            let r = refactor(&g, false);
            assert!(r.num_ands() <= baseline.num_ands(), "trial {trial} grew");
            assert!(probably_equivalent(&g, &r, 4, trial as u64), "trial {trial} broke function");
        }
    }
}
