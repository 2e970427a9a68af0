//! SAT-based combinational equivalence checking.
//!
//! Random simulation ([`crate::simulate::probably_equivalent`]) can only
//! *refute* equivalence with certainty; this module *proves* it: the two
//! circuits are joined into a miter (XOR of corresponding outputs, ORed
//! together), Tseitin-encoded into CNF, and handed to a small DPLL solver
//! with unit propagation. UNSAT ⇒ the circuits are equivalent on every
//! input. This mirrors how ABC's `cec` command underwrites synthesis —
//! and how Gamora's symbolic-reasoning ground truth is justified.
//!
//! The solver is intentionally simple (no clause learning); a conflict
//! budget keeps worst cases bounded, returning `SatResult::Unknown`
//! instead of hanging. Multiplier-sized miters (the hard case for SAT)
//! should use the simulation check instead; everything the synthesis test
//! suite proves is comfortably in range.

use crate::{Aig, Lit, NodeKind};

/// Outcome of a SAT query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SatResult {
    /// A satisfying assignment of the primary inputs was found.
    Sat(Vec<bool>),
    /// The formula is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted.
    Unknown,
}

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// Proven equivalent on all inputs.
    Equivalent,
    /// A counterexample input assignment (per PI).
    Inequivalent(Vec<bool>),
    /// Conflict budget exhausted before a verdict.
    Unknown,
}

/// A CNF formula under construction (DIMACS-style signed literals).
struct Cnf {
    num_vars: usize,
    clauses: Vec<Vec<i32>>,
}

impl Cnf {
    fn new() -> Self {
        Self { num_vars: 0, clauses: Vec::new() }
    }

    fn fresh(&mut self) -> i32 {
        self.num_vars += 1;
        self.num_vars as i32
    }

    fn clause(&mut self, lits: &[i32]) {
        debug_assert!(lits.iter().all(|&l| l != 0 && l.unsigned_abs() as usize <= self.num_vars));
        self.clauses.push(lits.to_vec());
    }

    /// Encodes `c ↔ a ∧ b`.
    fn and_gate(&mut self, c: i32, a: i32, b: i32) {
        self.clause(&[-c, a]);
        self.clause(&[-c, b]);
        self.clause(&[c, -a, -b]);
    }

    /// Encodes `c ↔ a ⊕ b`.
    fn xor_gate(&mut self, c: i32, a: i32, b: i32) {
        self.clause(&[-c, a, b]);
        self.clause(&[-c, -a, -b]);
        self.clause(&[c, -a, b]);
        self.clause(&[c, a, -b]);
    }
}

/// Tseitin-encodes an AIG into `cnf`, given per-PI variables and a constant
/// false variable. Returns the signed CNF literal of every node output.
fn encode_aig(aig: &Aig, cnf: &mut Cnf, pi_vars: &[i32], const_false: i32) -> Vec<i32> {
    let mut node_lit = vec![0i32; aig.num_nodes()];
    for id in 0..aig.num_nodes() {
        node_lit[id] = match aig.node(id as u32) {
            NodeKind::Const0 => const_false,
            NodeKind::Pi(k) => pi_vars[k as usize],
            NodeKind::And(a, b) => {
                let la = signed(&node_lit, a);
                let lb = signed(&node_lit, b);
                let c = cnf.fresh();
                cnf.and_gate(c, la, lb);
                c
            }
        };
    }
    node_lit
}

fn signed(node_lit: &[i32], l: Lit) -> i32 {
    let v = node_lit[l.node() as usize];
    if l.is_complemented() {
        -v
    } else {
        v
    }
}

/// Checks combinational equivalence of two AIGs with identical PI/PO
/// interfaces.
///
/// # Budget contract
///
/// `conflict_budget` bounds the DPLL search (counted in backtracks):
/// the solver returns [`Equivalence::Unknown`] as soon as the number of
/// conflicts exceeds the budget — it never spins past it, so callers can
/// rely on bounded work regardless of miter hardness. `Unknown` is a
/// resource verdict, not a correctness one: `Equivalent` and
/// `Inequivalent` answers are always sound whatever the budget. Budgets
/// of a few hundred thousand decide every circuit in this repository's
/// test suite; a budget of `0` gives up at the first conflict (trivial
/// miters that unit-propagate to a verdict are still decided).
///
/// # Panics
///
/// Panics if the PI or PO counts differ.
pub fn check_equivalence(a: &Aig, b: &Aig, conflict_budget: u64) -> Equivalence {
    assert_eq!(a.num_pis(), b.num_pis(), "PI count mismatch");
    assert_eq!(a.num_pos(), b.num_pos(), "PO count mismatch");
    let mut cnf = Cnf::new();
    let const_false = cnf.fresh();
    cnf.clause(&[-const_false]);
    let pi_vars: Vec<i32> = (0..a.num_pis()).map(|_| cnf.fresh()).collect();
    let lits_a = encode_aig(a, &mut cnf, &pi_vars, const_false);
    let lits_b = encode_aig(b, &mut cnf, &pi_vars, const_false);
    // Miter: OR over XORs of corresponding POs must hold.
    let mut miter = Vec::with_capacity(a.num_pos());
    for (pa, pb) in a.pos().iter().zip(b.pos()) {
        let la = signed(&lits_a, *pa);
        let lb = signed(&lits_b, *pb);
        let x = cnf.fresh();
        cnf.xor_gate(x, la, lb);
        miter.push(x);
    }
    cnf.clause(&miter);
    match solve(&cnf, conflict_budget) {
        SatResult::Unsat => Equivalence::Equivalent,
        SatResult::Sat(model) => {
            let cex = pi_vars.iter().map(|&v| model[v as usize - 1]).collect();
            Equivalence::Inequivalent(cex)
        }
        SatResult::Unknown => Equivalence::Unknown,
    }
}

/// DPLL with unit propagation and chronological backtracking.
fn solve(cnf: &Cnf, conflict_budget: u64) -> SatResult {
    let n = cnf.num_vars;
    // Assignment: 0 = unassigned, 1 = true, -1 = false.
    let mut assign = vec![0i8; n + 1];
    // Trail of (var, was_decision).
    let mut trail: Vec<(usize, bool)> = Vec::new();
    let mut conflicts = 0u64;

    // Occurrence lists: clauses containing each literal polarity.
    let mut occur_pos: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    let mut occur_neg: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    for (ci, clause) in cnf.clauses.iter().enumerate() {
        for &l in clause {
            if l > 0 {
                occur_pos[l as usize].push(ci);
            } else {
                occur_neg[(-l) as usize].push(ci);
            }
        }
    }

    let value = |assign: &[i8], l: i32| -> i8 {
        let v = assign[l.unsigned_abs() as usize];
        if l > 0 {
            v
        } else {
            -v
        }
    };

    // Propagate all unit clauses from the queue start; returns false on
    // conflict.
    fn propagate(
        cnf: &Cnf,
        assign: &mut [i8],
        trail: &mut Vec<(usize, bool)>,
        mut head: usize,
        occur_pos: &[Vec<usize>],
        occur_neg: &[Vec<usize>],
    ) -> bool {
        let value = |assign: &[i8], l: i32| -> i8 {
            let v = assign[l.unsigned_abs() as usize];
            if l > 0 {
                v
            } else {
                -v
            }
        };
        while head < trail.len() {
            let (var, _) = trail[head];
            head += 1;
            // The literal that became FALSE triggers clause checks.
            let falsified: &[usize] =
                if assign[var] == 1 { &occur_neg[var] } else { &occur_pos[var] };
            for &ci in falsified {
                let clause = &cnf.clauses[ci];
                let mut unassigned: Option<i32> = None;
                let mut satisfied = false;
                let mut count_unassigned = 0;
                for &l in clause {
                    match value(assign, l) {
                        1 => {
                            satisfied = true;
                            break;
                        }
                        0 => {
                            count_unassigned += 1;
                            unassigned = Some(l);
                        }
                        _ => {}
                    }
                }
                if satisfied {
                    continue;
                }
                match count_unassigned {
                    0 => return false, // conflict
                    1 => {
                        let l = unassigned.expect("one unassigned literal");
                        let v = l.unsigned_abs() as usize;
                        assign[v] = if l > 0 { 1 } else { -1 };
                        trail.push((v, false));
                    }
                    _ => {}
                }
            }
        }
        true
    }

    // Initial unit clauses.
    for clause in &cnf.clauses {
        if clause.len() == 1 {
            let l = clause[0];
            let v = l.unsigned_abs() as usize;
            let want = if l > 0 { 1 } else { -1 };
            if assign[v] == -want {
                return SatResult::Unsat;
            }
            if assign[v] == 0 {
                assign[v] = want;
                trail.push((v, false));
            }
        }
    }
    if !propagate(cnf, &mut assign, &mut trail, 0, &occur_pos, &occur_neg) {
        return SatResult::Unsat;
    }

    loop {
        // Pick the next unassigned variable.
        let decision = (1..=n).find(|&v| assign[v] == 0);
        let Some(var) = decision else {
            // Full assignment — verify (debug) and return the model.
            debug_assert!(cnf.clauses.iter().all(|c| c.iter().any(|&l| value(&assign, l) == 1)));
            let model = (1..=n).map(|v| assign[v] == 1).collect();
            return SatResult::Sat(model);
        };
        // Decide: try FALSE first (miter outputs want to be true; negative
        // phase finds UNSAT faster on equivalence problems in practice).
        assign[var] = -1;
        let level_mark = trail.len();
        trail.push((var, true));
        if propagate(cnf, &mut assign, &mut trail, level_mark, &occur_pos, &occur_neg) {
            continue;
        }
        // Conflict: backtrack chronologically, flipping the most recent
        // decision that still has an untried phase.
        loop {
            conflicts += 1;
            if conflicts > conflict_budget {
                return SatResult::Unknown;
            }
            // Undo to the most recent decision.
            let mut flipped = None;
            while let Some((v, is_decision)) = trail.pop() {
                if is_decision {
                    flipped = Some(v);
                    break;
                }
                assign[v] = 0;
            }
            let Some(v) = flipped else {
                return SatResult::Unsat; // no decisions left
            };
            if assign[v] == -1 {
                // Try the other phase as an implied (non-decision) value.
                assign[v] = 1;
                let mark = trail.len();
                trail.push((v, false));
                if propagate(cnf, &mut assign, &mut trail, mark, &occur_pos, &occur_neg) {
                    break;
                }
                // Both phases fail at this level: continue backtracking,
                // undoing this variable too.
                assign[v] = 0;
                // Remove the pushed entry if still present.
                while trail.len() > mark {
                    let (u, _) = trail.pop().expect("non-empty");
                    assign[u] = 0;
                }
            } else {
                assign[v] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::probably_equivalent;

    fn full_adder(order: bool) -> Aig {
        let mut g = Aig::new(3);
        let (a, b, c) = (g.pi_lit(0), g.pi_lit(1), g.pi_lit(2));
        let s = if order {
            let t = g.xor(a, b);
            g.xor(t, c)
        } else {
            let t = g.xor(b, c);
            g.xor(a, t)
        };
        let carry = if order { g.maj(a, b, c) } else { g.maj(c, a, b) };
        g.add_po(s);
        g.add_po(carry);
        g
    }

    #[test]
    fn proves_structurally_different_adders_equivalent() {
        let a = full_adder(true);
        let b = full_adder(false);
        assert_eq!(check_equivalence(&a, &b, 100_000), Equivalence::Equivalent);
    }

    #[test]
    fn finds_counterexample_for_mutated_circuit() {
        let a = full_adder(true);
        let mut b = full_adder(true);
        let po = b.pos()[1];
        b.set_po(1, !po);
        match check_equivalence(&a, &b, 100_000) {
            Equivalence::Inequivalent(cex) => {
                assert_eq!(cex.len(), 3);
                // Verify the counterexample by simulation.
                let words: Vec<u64> = cex.iter().map(|&x| if x { 1 } else { 0 }).collect();
                let pa = crate::simulate::simulate_pos(&a, &words);
                let pb = crate::simulate::simulate_pos(&b, &words);
                assert_ne!(
                    pa.iter().map(|w| w & 1).collect::<Vec<_>>(),
                    pb.iter().map(|w| w & 1).collect::<Vec<_>>(),
                    "counterexample does not distinguish the circuits"
                );
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn agrees_with_simulation_on_random_circuits() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        for trial in 0..12 {
            let n_pis = 4;
            let build = |rng: &mut rand_chacha::ChaCha8Rng| {
                let mut g = Aig::new(n_pis);
                let mut pool: Vec<Lit> = (0..n_pis).map(|i| g.pi_lit(i)).collect();
                for _ in 0..20 {
                    let x = pool[rng.gen_range(0..pool.len())];
                    let y = pool[rng.gen_range(0..pool.len())];
                    let x = if rng.gen() { !x } else { x };
                    let l = g.and(x, y);
                    pool.push(l);
                }
                let last = *pool.last().expect("non-empty");
                g.add_po(last);
                g
            };
            let a = build(&mut rng);
            let b = build(&mut rng);
            let sim = probably_equivalent(&a, &b, 4, trial);
            match check_equivalence(&a, &b, 200_000) {
                Equivalence::Equivalent => assert!(sim, "SAT says equal, simulation differs"),
                Equivalence::Inequivalent(_) => {
                    assert!(!sim || a.num_pis() > 6, "SAT found cex, simulation says equal")
                }
                Equivalence::Unknown => {}
            }
        }
    }

    #[test]
    fn proves_synthesis_passes_exactly_correct() {
        // The strongest guarantee in the repo: SAT-prove that a synthesized
        // circuit equals its input.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(43);
        let mut g = Aig::new(5);
        let mut pool: Vec<Lit> = (0..5).map(|i| g.pi_lit(i)).collect();
        for _ in 0..40 {
            let x = pool[rng.gen_range(0..pool.len())];
            let y = pool[rng.gen_range(0..pool.len())];
            let x = if rng.gen() { !x } else { x };
            let y = if rng.gen() { !y } else { y };
            let l = g.and(x, y);
            pool.push(l);
        }
        for k in 0..2 {
            g.add_po(pool[pool.len() - 1 - k]);
        }
        let mut h = g.clone();
        h.compact();
        assert_eq!(check_equivalence(&g, &h, 500_000), Equivalence::Equivalent);
    }

    #[test]
    fn trivial_cases() {
        // Constant-output circuits.
        let mut a = Aig::new(1);
        a.add_po(Lit::TRUE);
        let mut b = Aig::new(1);
        b.add_po(Lit::TRUE);
        assert_eq!(check_equivalence(&a, &b, 1_000), Equivalence::Equivalent);
        let mut c = Aig::new(1);
        c.add_po(Lit::FALSE);
        assert!(matches!(check_equivalence(&a, &c, 1_000), Equivalence::Inequivalent(_)));
    }
}
