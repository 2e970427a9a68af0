//! And-Inverter Graph (AIG) circuit infrastructure.
//!
//! Both EDA tasks in the HOGA paper operate on AIGs: the OpenABC-D QoR
//! benchmark stores synthesized AIGs, and the Gamora functional-reasoning
//! task classifies AIG nodes. This crate provides the shared substrate:
//!
//! * [`Aig`] — an ABC-style structurally hashed AIG with complemented
//!   edges ([`Lit`] literals), constant folding, and mark-and-sweep
//!   [`Aig::compact`].
//! * [`simulate`] — 64-pattern-per-word bit-parallel simulation used as a
//!   cheap semantic signature to *prove* that synthesis transforms preserve
//!   functionality.
//! * [`adjacency`] — conversion to sparse [`hoga_tensor::CsrMatrix`]
//!   adjacency with the symmetric normalization `Â = D^{-1/2} (A + I)
//!   D^{-1/2}` (Eq. 3 of the paper) and the row normalization used by
//!   mean-aggregating baselines.
//! * [`features`] — the per-node input features `X` (node-type one-hots and
//!   inverted-fanin counts, after OpenABC-D).
//!
//! # Examples
//!
//! Build a 1-bit full adder and count its gates:
//!
//! ```
//! use hoga_circuit::Aig;
//!
//! let mut aig = Aig::new(3);
//! let (a, b, cin) = (aig.pi_lit(0), aig.pi_lit(1), aig.pi_lit(2));
//! let axb = aig.xor(a, b);
//! let sum = aig.xor(axb, cin);
//! let carry = aig.maj(a, b, cin);
//! aig.add_po(sum);
//! aig.add_po(carry);
//! assert!(aig.num_ands() <= 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
mod aig;
pub mod aiger;
pub mod dot;
pub mod features;
pub mod sat;
pub mod simulate;
mod topo;

pub use aig::{Aig, Lit, NodeId, NodeKind};
pub use topo::{depth, fanout_counts, levels, stats, AigStats};
