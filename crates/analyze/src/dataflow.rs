//! Worklist fixpoint engine for forward may-analyses over a [`crate::cfg::Cfg`].
//!
//! An [`Analysis`] supplies the lattice (a fact type with a deterministic
//! `join`) and the transfer function; [`forward_fixpoint`] iterates blocks
//! in a FIFO worklist until the facts stabilize. Facts must only grow
//! under `join` (a may-analysis over a finite lattice), which bounds the
//! iteration; a safety cap turns a non-monotone transfer function into a
//! loud failure instead of a hang.
//!
//! Determinism: blocks are seeded in index order, the worklist is a FIFO
//! dequeued front-first, and successors are enqueued in edge order — the
//! fixpoint (and the iteration count `--stats` reports) is a
//! pure function of the CFG and the analysis.

use std::collections::VecDeque;

use crate::cfg::{BlockId, Cfg};

/// A forward may-analysis: the fact lattice and transfer function.
pub trait Analysis {
    /// The dataflow fact attached to each block entry.
    type Fact: Clone + PartialEq;

    /// The lattice bottom — the fact for an unvisited block entry.
    fn bottom(&self) -> Self::Fact;

    /// The fact at the function entry (e.g. tainted parameters).
    fn entry(&self) -> Self::Fact;

    /// Least upper bound; must be commutative, associative, idempotent,
    /// and only ever grow the fact.
    fn join(&self, into: &mut Self::Fact, other: &Self::Fact);

    /// Applies block `id`'s statements to `fact` in place.
    fn transfer(&mut self, cfg: &Cfg, id: BlockId, fact: &mut Self::Fact);
}

/// The stabilized result of a fixpoint run.
pub struct Fixpoint<F> {
    /// Fact at each block's entry, indexed by [`BlockId`].
    pub entry_facts: Vec<F>,
    /// Number of block transfers executed before stabilizing (the unit
    /// `--stats` reports as fixpoint iterations).
    pub iterations: u64,
}

/// Runs `analysis` to fixpoint over `cfg` and returns per-block entry
/// facts plus the iteration count.
///
/// # Panics
///
/// Panics if the fact set fails to stabilize within `64 * blocks + 256`
/// transfers — impossible for a monotone analysis over this CFG (every
/// block re-runs only when a predecessor's exit fact grew), so tripping
/// the cap means the `Analysis` implementation is broken.
pub fn forward_fixpoint<A: Analysis>(cfg: &Cfg, analysis: &mut A) -> Fixpoint<A::Fact> {
    let n = cfg.blocks.len();
    let mut entry_facts: Vec<A::Fact> = (0..n).map(|_| analysis.bottom()).collect();
    if n == 0 {
        return Fixpoint { entry_facts, iterations: 0 };
    }
    entry_facts[0] = analysis.entry();
    // Seed every block, not just the entry: a block must be transferred
    // at least once even when its entry fact never grows past bottom,
    // otherwise its effects on successors are silently skipped.
    let mut queued = vec![true; n];
    let mut work: VecDeque<BlockId> = (0..n).collect();
    let mut iterations: u64 = 0;
    let cap = 64 * (n as u64) + 256;
    while let Some(id) = work.pop_front() {
        queued[id] = false;
        iterations += 1;
        assert!(
            iterations <= cap,
            "dataflow fixpoint failed to stabilize in {} of fn {} ({} blocks)",
            cap,
            cfg.name,
            n
        );
        let mut fact = entry_facts[id].clone();
        analysis.transfer(cfg, id, &mut fact);
        for &(succ, _) in &cfg.blocks[id].succs {
            let mut merged = entry_facts[succ].clone();
            analysis.join(&mut merged, &fact);
            if merged != entry_facts[succ] {
                entry_facts[succ] = merged;
                if !queued[succ] {
                    queued[succ] = true;
                    work.push_back(succ);
                }
            }
        }
    }
    Fixpoint { entry_facts, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use std::collections::BTreeSet;

    fn build(src: &str) -> Vec<crate::cfg::Cfg> {
        let tokens = lex(src);
        crate::rules::FileView::new("fixture.rs", src, &tokens, Default::default()).cfgs
    }

    /// Reachability as a trivial may-analysis: fact = "block was reached".
    struct Reach;
    impl Analysis for Reach {
        type Fact = bool;
        fn bottom(&self) -> bool {
            false
        }
        fn entry(&self) -> bool {
            true
        }
        fn join(&self, into: &mut bool, other: &bool) {
            *into = *into || *other;
        }
        fn transfer(&mut self, _cfg: &Cfg, _id: BlockId, _fact: &mut bool) {}
    }

    /// Collects block ids seen on any path (set-union lattice) — exercises
    /// growth through loops.
    struct Trace;
    impl Analysis for Trace {
        type Fact = BTreeSet<usize>;
        fn bottom(&self) -> Self::Fact {
            BTreeSet::new()
        }
        fn entry(&self) -> Self::Fact {
            BTreeSet::new()
        }
        fn join(&self, into: &mut Self::Fact, other: &Self::Fact) {
            into.extend(other.iter().copied());
        }
        fn transfer(&mut self, _cfg: &Cfg, id: BlockId, fact: &mut Self::Fact) {
            fact.insert(id);
        }
    }

    #[test]
    fn every_block_reached_in_branchy_fn() {
        let src = "fn f(x: u8) -> u8 { if x > 1 { match x { 2 => 1, _ => 2 } } else { 3 } }\n";
        let cfg = &build(src)[0];
        let fx = forward_fixpoint(cfg, &mut Reach);
        assert!(fx.entry_facts.iter().all(|r| *r), "{:?}", fx.entry_facts);
        assert!(fx.iterations >= cfg.blocks.len() as u64);
    }

    #[test]
    fn loop_fixpoint_stabilizes_with_growing_facts() {
        let src = "fn f() { let mut i = 0; loop { i += 1; if i > 3 { break; } } }\n";
        let cfg = &build(src)[0];
        let fx = forward_fixpoint(cfg, &mut Trace);
        // The exit block's entry fact contains every block on a path to it.
        assert!(fx.entry_facts[cfg.exit].len() >= 2, "{:?}", fx.entry_facts);
    }

    #[test]
    fn iteration_count_is_deterministic() {
        let src = "fn f(n: usize) { let mut i = 0; while i < n { if i % 2 == 0 { i += 2; } else { i += 1; } } }\n";
        let cfg = &build(src)[0];
        let a = forward_fixpoint(cfg, &mut Trace).iterations;
        let b = forward_fixpoint(cfg, &mut Trace).iterations;
        assert_eq!(a, b);
    }
}
