//! Pins the bits of the cut engine and of the three passes built on it.
//!
//! One FNV-1a hash covers, on CSA and Booth multipliers of widths 6 and 12,
//! each raw and LUT-mapped:
//!
//! - every node's priority cuts (leaves and order) for k = 3, 4 and 6;
//! - the functional labels (`label_nodes(·, 4)`);
//! - the encoded LUT-mapped AIG (`lut_map(·, 4)`);
//! - the encoded refactored AIG (`refactor`, with and without zero-cost
//!   acceptance).
//!
//! A change to the cut engine that keeps its output must keep this literal.

use hoga_repro::circuit::{Aig, NodeId};
use hoga_repro::datasets::io::encode_aig;
use hoga_repro::gen::multiplier::{booth_multiplier, csa_multiplier};
use hoga_repro::gen::reason::label_nodes;
use hoga_repro::gen::techmap::lut_map;
use hoga_repro::synth::cuts::enumerate_cuts;
use hoga_repro::synth::refactor;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
}

/// CSA and Booth at widths 6 and 12, each raw and mapped onto 4-LUTs.
fn pinned_graphs() -> Vec<Aig> {
    let mut graphs = Vec::new();
    for width in [6, 12] {
        for raw in [csa_multiplier(width).aig, booth_multiplier(width).aig] {
            let mapped = lut_map(&raw, 4).aig;
            graphs.push(raw);
            graphs.push(mapped);
        }
    }
    graphs
}

#[test]
fn cut_engine_and_its_passes_keep_their_bits() {
    let mut h = Fnv::new();
    for aig in pinned_graphs() {
        for k in [3, 4, 6] {
            let cuts = enumerate_cuts(&aig, k);
            for n in 0..aig.num_nodes() as NodeId {
                let mut count = 0;
                for cut in cuts.cuts_of(n) {
                    h.u32(cut.leaves().len() as u32);
                    for &leaf in cut.leaves() {
                        h.u32(leaf);
                    }
                    count += 1;
                }
                h.u32(count);
            }
        }
        for class in label_nodes(&aig, 4) {
            h.u32(class.index() as u32);
        }
        h.bytes(&encode_aig(&lut_map(&aig, 4).aig));
        h.bytes(&encode_aig(&refactor(&aig, false)));
        h.bytes(&encode_aig(&refactor(&aig, true)));
    }
    assert_eq!(h.0, 0x6ebb_448f_b4d3_a1d9, "cut engine bits moved: hash {:#018x}", h.0);
}
