//! Seeded inputs: every workload's circuits, recipes and checkpoint are a
//! pure function of `--seed`, generated here and nowhere else.

use hoga_circuit::{Aig, Lit};

/// SplitMix64. The benchmark owns its generator so inputs do not depend on
/// which `rand` the product crates were built against.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `bound` (`bound > 0`); the modulo bias is far
    /// below anything a benchmark input could notice.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Mixes a workload seed with up to two stream coordinates (client,
/// counter) into one generator seed.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ a.wrapping_mul(0xA076_1D64_78BD_642F));
    rng.next_u64() ^ SplitMix64::new(b.wrapping_add(0xE703_7ED1_A0B4_28DB)).next_u64()
}

/// A random, strash-canonical AIG with exactly `target_nodes` nodes
/// (constant + PIs + ANDs). Fanins are drawn mostly from a sliding window of
/// recent nodes so depth grows with size, as in a real netlist, and every
/// node without fanout becomes a primary output so no gate is dead.
pub fn random_aig(target_nodes: usize, seed: u64) -> Aig {
    let num_pis = (target_nodes / 12).clamp(4, 64);
    assert!(target_nodes > num_pis + 1, "target of {target_nodes} nodes leaves no room for gates");
    let mut rng = SplitMix64::new(seed);
    let mut aig = Aig::new(num_pis);
    let mut has_fanout = vec![false; target_nodes];
    while aig.num_nodes() < target_nodes {
        let n = aig.num_nodes();
        let window = n.min(48);
        // Node 0 is the constant; literals start at node 1.
        let near = n - 1 - rng.below(window.min(n - 1));
        let far = 1 + rng.below(n - 1);
        let a = Lit::from_node(near as u32, rng.next_u64() & 1 == 1);
        let b = Lit::from_node(far as u32, rng.next_u64() & 1 == 1);
        let before = aig.num_nodes();
        aig.and(a, b);
        if aig.num_nodes() > before {
            has_fanout[near] = true;
            has_fanout[far] = true;
        }
    }
    for (node, used) in has_fanout.iter().enumerate().skip(num_pis + 1) {
        if !used {
            aig.add_po(Lit::from_node(node as u32, rng.next_u64() & 1 == 1));
        }
    }
    aig
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoga_datasets::io::{encode_aig, structural_hash};
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_identical_bytes_and_other_seeds_differ() {
        let a = encode_aig(&random_aig(600, 42)).to_vec();
        let b = encode_aig(&random_aig(600, 42)).to_vec();
        let c = encode_aig(&random_aig(600, 43)).to_vec();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn node_count_hits_the_target_and_the_graph_is_well_formed() {
        for (target, seed) in [(30, 1), (120, 2), (600, 3), (5000, 4)] {
            let aig = random_aig(target, seed);
            let off = aig.num_nodes().abs_diff(target) as f64 / target as f64;
            assert!(off <= 0.02, "{} nodes for a target of {target}", aig.num_nodes());
            assert_eq!(aig.check(), Ok(()));
            assert!(aig.num_pos() > 0);
        }
    }

    #[test]
    fn a_thousand_seeds_give_a_thousand_structural_hashes() {
        let hashes: HashSet<u64> =
            (0..1000).map(|i| structural_hash(&random_aig(120, mix(1, 0, i)))).collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn mix_separates_its_coordinates() {
        let all: HashSet<u64> = (0..4).flat_map(|a| (0..256).map(move |b| mix(7, a, b))).collect();
        assert_eq!(all.len(), 4 * 256);
        assert_ne!(mix(7, 1, 2), mix(8, 1, 2));
        assert_ne!(mix(7, 1, 2), mix(7, 2, 1));
    }
}
