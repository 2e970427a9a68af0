//! An ABC-like logic-synthesis simulator over AIGs.
//!
//! The OpenABC-D benchmark that HOGA is evaluated on labels each
//! (design, recipe) pair with the gate count obtained by running the recipe
//! through the ABC synthesis tool. ABC is C code we cannot link here, so
//! this crate implements the same *class* of functionality-preserving AIG
//! optimizations from scratch:
//!
//! * [`balance`] — AND-tree collapsing and depth-balanced reconstruction
//!   (ABC `balance`).
//! * [`rewrite`] — local rule-based rewriting with structural hashing
//!   (ABC `rewrite`).
//! * [`refactor`] — cut-based cone resynthesis via Shannon decomposition,
//!   accepted only when it reduces gates (ABC `refactor`).
//! * [`resub`] — simulation-signature-driven resubstitution, with a whole-
//!   pass equivalence safeguard (ABC `resub`).
//! * [`recipe`] — an ABC-script-like recipe language (`"b; rw; rf; rs"`),
//!   plus the random-recipe generator used to emulate OpenABC-D's 1500
//!   synthesis flows per design.
//! * [`cuts`] — k-feasible cut computation shared with the technology
//!   mapper in `hoga-gen`.
//!
//! Every pass returns a *new* AIG and is verified against the input with
//! 64-bit random simulation in this crate's test-suite. The runner itself
//! is *guarded*: [`run_recipe_guarded`] verifies every step against its
//! input (random-simulation filter plus an optional bounded SAT arbiter),
//! rolls back refuted or over-budget steps, and records each rejection as
//! a structured [`Incident`] instead of panicking. [`run_recipe`] is the
//! same runner with the default guard. The guarded runner also takes a
//! fault plan ([`JobFaultPlan`], the workspace's one vocabulary) whose step
//! sites deliberately miscompile or stall a pass, so the guard's detection
//! path is itself testable end to end.
//!
//! # Examples
//!
//! ```
//! use hoga_circuit::Aig;
//! use hoga_synth::{run_recipe, Recipe};
//!
//! let mut aig = Aig::new(4);
//! let lits: Vec<_> = (0..4).map(|i| aig.pi_lit(i)).collect();
//! // A skewed AND chain: balance will shorten it, strash will dedup it.
//! let mut acc = lits[0];
//! for &l in &lits[1..] {
//!     acc = aig.and(acc, l);
//! }
//! aig.add_po(acc);
//!
//! let recipe: Recipe = "b; rw; rf".parse()?;
//! let result = run_recipe(&aig, &recipe);
//! assert!(result.final_ands <= result.initial_ands);
//! # Ok::<(), hoga_synth::ParseRecipeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balance;
pub mod cuts;
pub mod guard;
pub mod recipe;
mod refactor;
mod resub;
mod rewrite;
mod runner;

pub use balance::balance;
pub use guard::{
    GuardConfig, Incident, IncidentKind, PassBudget, PassOutcome, SynthError, Verification,
};
/// The fault vocabulary [`run_recipe_guarded`] reads, re-exported for
/// callers that reach `hoga-jobs` only through this crate.
pub use hoga_jobs::{FaultKind, FaultSite, JobFaultPlan};
pub use recipe::{
    random_recipe, ParseRecipeError, Recipe, RecipeLint, SynthStep, RESUB_SEED_BASE, STEP_BUDGET,
};
pub use refactor::{build_from_tt, refactor};
pub use resub::resub;
pub use rewrite::rewrite;
pub use runner::{run_recipe, run_recipe_guarded, GuardedRun, SynthesisResult};
