//! Bitwise differential test of the adjacency builders.
//!
//! `hoga_circuit::adjacency` builds CSR arrays straight from the gate list.
//! The oracle here is the construction it replaced — COO triplets through
//! `CsrMatrix::from_coo`, a clamp back to unit weights, `+ I`, then row and
//! column scaling — kept verbatim so that every structure and every value bit
//! of the four builders is pinned on multipliers, random AIGs, and AIGER
//! inputs whose gates read one node twice.

use hoga_repro::circuit::aiger::read_ascii_aiger;
use hoga_repro::circuit::{adjacency, Aig, Lit};
use hoga_repro::gen::multiplier::{booth_multiplier, csa_multiplier};
use hoga_repro::tensor::CsrMatrix;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

mod oracle {
    use super::*;

    pub fn undirected(aig: &Aig) -> CsrMatrix {
        let n = aig.num_nodes();
        let mut triplets = Vec::new();
        for (id, a, b) in aig.and_gates() {
            for f in [a.node(), b.node()] {
                if f != id {
                    triplets.push((f as usize, id as usize, 1.0));
                    triplets.push((id as usize, f as usize, 1.0));
                }
            }
        }
        clamp_binary(CsrMatrix::from_coo(n, n, &triplets))
    }

    pub fn directed(aig: &Aig) -> CsrMatrix {
        let n = aig.num_nodes();
        let mut triplets = Vec::new();
        for (id, a, b) in aig.and_gates() {
            triplets.push((id as usize, a.node() as usize, 1.0));
            triplets.push((id as usize, b.node() as usize, 1.0));
        }
        clamp_binary(CsrMatrix::from_coo(n, n, &triplets))
    }

    /// Duplicate-merged entries have value 2; back to 1.
    fn clamp_binary(m: CsrMatrix) -> CsrMatrix {
        rebuilt(&m, |_, _, _| 1.0)
    }

    /// `m` with every value replaced by `value(row, col, old)`.
    fn rebuilt(m: &CsrMatrix, value: impl Fn(usize, usize, f32) -> f32) -> CsrMatrix {
        let mut triplets = Vec::with_capacity(m.nnz());
        for r in 0..m.rows() {
            triplets.extend(m.row_entries(r).map(|(c, v)| (r, c, value(r, c, v))));
        }
        CsrMatrix::from_coo(m.rows(), m.cols(), &triplets)
    }

    pub fn normalized_symmetric(aig: &Aig) -> CsrMatrix {
        let n = aig.num_nodes();
        let adj = undirected(aig);
        let mut triplets = Vec::with_capacity(adj.nnz() + n);
        for r in 0..n {
            triplets.push((r, r, 1.0));
            triplets.extend(adj.row_entries(r).map(|(c, v)| (r, c, v)));
        }
        let a_plus_i = CsrMatrix::from_coo(n, n, &triplets);
        let deg: Vec<f32> = a_plus_i.row_nnz().iter().map(|&d| 1.0 / (d as f32).sqrt()).collect();
        // Rows scaled first, then columns, as two passes used to.
        rebuilt(&a_plus_i, |r, c, v| (v * deg[r]) * deg[c])
    }

    pub fn normalized_mean(aig: &Aig) -> CsrMatrix {
        let adj = undirected(aig);
        let deg: Vec<f32> =
            adj.row_nnz().iter().map(|&d| if d == 0 { 0.0 } else { 1.0 / d as f32 }).collect();
        rebuilt(&adj, |r, _, v| v * deg[r])
    }
}

/// Row lengths, and every entry as `(column, value bits)`: `indptr`,
/// `indices` and the value bits, read through the public accessors.
fn bits(m: &CsrMatrix) -> (usize, usize, Vec<usize>, Vec<(usize, u32)>) {
    let entries = (0..m.rows()).flat_map(|r| m.row_entries(r).map(|(c, v)| (c, v.to_bits())));
    (m.rows(), m.cols(), m.row_nnz(), entries.collect())
}

fn assert_builders_match_oracle(aig: &Aig, what: &str) {
    let pairs = [
        ("undirected", adjacency::undirected(aig), oracle::undirected(aig)),
        ("directed", adjacency::directed(aig), oracle::directed(aig)),
        ("symmetric", adjacency::normalized_symmetric(aig), oracle::normalized_symmetric(aig)),
        ("mean", adjacency::normalized_mean(aig), oracle::normalized_mean(aig)),
    ];
    for (builder, built, expected) in pairs {
        assert_eq!(bits(&built), bits(&expected), "{builder}, {what}");
    }
}

#[test]
fn multipliers_match_the_triplet_construction_bit_for_bit() {
    for width in [4, 8, 16] {
        assert_builders_match_oracle(&csa_multiplier(width).aig, &format!("csa {width}"));
        assert_builders_match_oracle(&booth_multiplier(width).aig, &format!("booth {width}"));
    }
}

/// A random AIG through `Aig::and`: folded and structurally hashed.
fn random_hashed_aig(rng: &mut ChaCha8Rng) -> Aig {
    let pis = rng.gen_range(1..8);
    let mut aig = Aig::new(pis);
    let mut pool: Vec<Lit> = (0..pis).map(|i| aig.pi_lit(i)).collect();
    for _ in 0..rng.gen_range(0..150) {
        let a = pool[rng.gen_range(0..pool.len())];
        let b = pool[rng.gen_range(0..pool.len())];
        let gate = aig.and(if rng.gen() { !a } else { a }, if rng.gen() { !b } else { b });
        pool.push(gate);
    }
    aig
}

/// A random `aag` text with nothing folded: fanins are any earlier literal,
/// the constants included, so `x ∧ x`, `x ∧ ¬x` and repeated gates all occur.
fn random_raw_aag(rng: &mut ChaCha8Rng) -> String {
    let (pis, gates) = (rng.gen_range(1..6usize), rng.gen_range(1..120usize));
    let mut text = format!("aag {} {pis} 0 1 {gates}\n", pis + gates);
    for i in 1..=pis {
        text += &format!("{}\n", 2 * i);
    }
    text += &format!("{}\n", 2 * (pis + gates));
    for g in 0..gates {
        let node = pis + 1 + g;
        let first = rng.gen_range(0..2 * node);
        // One gate in three reads its first fanin's node again.
        let second = match rng.gen_range(0..3) {
            0 => first ^ usize::from(rng.gen::<bool>()),
            _ => rng.gen_range(0..2 * node),
        };
        text += &format!("{} {first} {second}\n", 2 * node);
    }
    text
}

#[test]
fn random_aigs_match_the_triplet_construction_bit_for_bit() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xAD1A_CE47);
    for case in 0..40 {
        assert_builders_match_oracle(&random_hashed_aig(&mut rng), &format!("hashed {case}"));
    }
    for case in 0..40 {
        let text = random_raw_aag(&mut rng);
        let aig = read_ascii_aiger(text.as_bytes()).expect("generated aag parses");
        assert_builders_match_oracle(&aig, &format!("raw {case}:\n{text}"));
    }
}

#[test]
fn doubled_fanins_match_the_triplet_construction_bit_for_bit() {
    // Node 3 = x ∧ x, node 4 = x ∧ ¬x, nodes 5 and 6 the same gate twice.
    let text = "aag 6 2 0 2 4\n2\n4\n10\n12\n6 2 2\n8 2 3\n10 6 4\n12 6 4\n";
    let aig = read_ascii_aiger(text.as_bytes()).expect("valid aag");
    assert_eq!(aig.num_ands(), 4, "the reader must not fold or hash");
    assert_builders_match_oracle(&aig, "doubled fanins");
}
