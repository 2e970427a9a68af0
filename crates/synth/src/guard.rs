//! Per-pass guarding for the synthesis runner.
//!
//! OpenABC-D-style QoR labels are produced by running recipes of
//! functionality-preserving passes; a single miscompiling pass silently
//! poisons every downstream label. This module provides the runner's
//! defense in depth:
//!
//! * **Functional-equivalence guard** — after every pass the transformed
//!   AIG is checked against the pass input, first with 64-bit random
//!   simulation (a fast, sound-on-refutation filter), then optionally with
//!   the [`hoga_circuit::sat`] miter under a bounded conflict budget (the
//!   arbiter, which can upgrade the verdict to a proof). A refuted pass is
//!   rolled back and recorded as a structured [`Incident`]; the recipe
//!   continues on the pre-pass circuit.
//! * **Pass budgets** — every pass runs under a deterministic work budget
//!   (and an optional wall-clock deadline) tracked by a [`WorkMeter`];
//!   exhaustion rolls the pass back instead of hanging the sweep.
//! * **Fault injection** — the `Step` sites of a [`hoga_jobs::JobFaultPlan`]
//!   deliberately miscompile (`Corrupt`) or stall (`Stall`) selected steps
//!   so tests can prove the guard actually fires.
//!
//! Wall-clock deadlines are inherently nondeterministic, so dataset
//! generation keeps them disabled (`timeout_ms == 0`) and relies on
//! `max_work`; interactive CLI use may enable both.

use crate::SynthStep;
use hoga_circuit::sat::{check_equivalence, Equivalence};
use hoga_circuit::simulate::probably_equivalent;
use hoga_circuit::Aig;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::{Duration, Instant};

/// Work/deadline budget for a single synthesis pass. Zero means unlimited
/// for either field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PassBudget {
    /// Maximum abstract work units (roughly: gates visited) per pass;
    /// deterministic across runs and machines. `0` = unlimited.
    pub max_work: u64,
    /// Wall-clock deadline per pass in milliseconds. Nondeterministic —
    /// keep at `0` (disabled) wherever byte-identical reruns matter.
    pub timeout_ms: u64,
}

impl Default for PassBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl PassBudget {
    /// No limits: passes run to completion.
    pub fn unlimited() -> Self {
        Self { max_work: 0, timeout_ms: 0 }
    }

    /// Deterministic work-only budget.
    pub fn with_max_work(max_work: u64) -> Self {
        Self { max_work, timeout_ms: 0 }
    }
}

/// Raised by [`WorkMeter::charge`] when a pass exceeds its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PassExhausted {
    /// Work units spent when the budget tripped.
    pub(crate) work_spent: u64,
}

/// Tracks work spent by one pass against a [`PassBudget`].
///
/// The wall clock is consulted sparsely (every 1024 charges) so metering
/// stays cheap on the hot path.
#[derive(Debug)]
pub(crate) struct WorkMeter {
    spent: u64,
    max_work: u64,
    deadline: Option<Instant>,
    charges_since_clock: u32,
    forced: bool,
}

impl WorkMeter {
    /// A meter enforcing `budget`.
    pub(crate) fn new(budget: &PassBudget) -> Self {
        let deadline = if budget.timeout_ms > 0 {
            Some(Instant::now() + Duration::from_millis(budget.timeout_ms))
        } else {
            None
        };
        Self {
            spent: 0,
            max_work: budget.max_work,
            deadline,
            charges_since_clock: 0,
            forced: false,
        }
    }

    /// A meter that never trips.
    pub(crate) fn unlimited() -> Self {
        Self::new(&PassBudget::unlimited())
    }

    /// Forces the meter into the exhausted state (fault-injection hook for
    /// deterministically exercising the timeout path).
    pub(crate) fn exhaust(&mut self) {
        self.forced = true;
    }

    /// Records `units` of work; errors once the budget is exceeded.
    pub(crate) fn charge(&mut self, units: u64) -> Result<(), PassExhausted> {
        self.spent = self.spent.saturating_add(units);
        if self.forced || (self.max_work > 0 && self.spent > self.max_work) {
            return Err(PassExhausted { work_spent: self.spent });
        }
        if let Some(deadline) = self.deadline {
            self.charges_since_clock += 1;
            if self.charges_since_clock >= 1024 {
                self.charges_since_clock = 0;
                if Instant::now() > deadline {
                    return Err(PassExhausted { work_spent: self.spent });
                }
            }
        }
        Ok(())
    }
}

/// Equivalence-guard configuration for [`crate::run_recipe_guarded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Random-simulation rounds (64 patterns each) per pass. Must be at
    /// least 1: simulation is the mandatory fast filter.
    pub sim_rounds: usize,
    /// Conflict budget for the SAT miter arbiter; `0` disables the SAT
    /// stage and accepts simulation-passed transforms as [`Verification::SimOnly`].
    pub conflict_budget: u64,
    /// Per-pass work/deadline budget.
    pub budget: PassBudget,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self { sim_rounds: 2, conflict_budget: 0, budget: PassBudget::unlimited() }
    }
}

impl GuardConfig {
    /// Checks internal consistency.
    pub fn validate(&self) -> Result<(), SynthError> {
        if self.sim_rounds == 0 {
            return Err(SynthError::InvalidConfig {
                reason: "sim_rounds must be >= 1 (simulation is the mandatory fast filter)",
            });
        }
        Ok(())
    }
}

/// Typed errors from the guarded runner (replacing panics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// The [`GuardConfig`] is inconsistent.
    InvalidConfig {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A fault plan targets a step index past the end of the recipe.
    FaultOutOfRange {
        /// The offending step index.
        step: usize,
        /// Number of steps in the recipe.
        steps: usize,
    },
    /// A fault plan aims a `Panic` at a recipe step. The guarded runner
    /// never panics by design; panic injection belongs to the job engine's
    /// `catch_unwind` layer (an `Attempt` site).
    PanicFault {
        /// The targeted step index.
        step: usize,
    },
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::InvalidConfig { reason } => write!(f, "invalid guard config: {reason}"),
            SynthError::FaultOutOfRange { step, steps } => {
                write!(f, "fault injected at step {step} but the recipe has {steps} steps")
            }
            SynthError::PanicFault { step } => {
                write!(
                    f,
                    "panic injected at step {step}: a recipe step can only stall or miscompile"
                )
            }
        }
    }
}

impl std::error::Error for SynthError {}

/// How thoroughly an applied pass was verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verification {
    /// Passed random simulation; the SAT arbiter was disabled or returned
    /// `Unknown` within its conflict budget.
    SimOnly,
    /// Proven equivalent by the SAT miter.
    Proved,
}

/// Why a pass was rejected.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum IncidentKind {
    /// Random simulation found differing PO values (sound refutation).
    SimRefuted {
        /// Simulation rounds configured when the mismatch was found.
        rounds: usize,
    },
    /// The SAT miter produced a counterexample input assignment.
    SatRefuted {
        /// One bit per PI.
        counterexample: Vec<bool>,
    },
    /// The pass changed the PI/PO interface (never legal).
    InterfaceChanged {
        /// PI count before the pass.
        pis_before: usize,
        /// PI count after the pass.
        pis_after: usize,
        /// PO count before the pass.
        pos_before: usize,
        /// PO count after the pass.
        pos_after: usize,
    },
    /// The pass exceeded its work/deadline budget.
    Exhausted {
        /// Work units spent when the budget tripped.
        work_spent: u64,
    },
}

/// A structured record of a rejected pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Incident {
    /// 0-based step index within the recipe.
    pub step_index: usize,
    /// The step that was rejected.
    pub step: SynthStep,
    /// Why it was rejected.
    pub kind: IncidentKind,
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {} ({}): ", self.step_index, self.step)?;
        match &self.kind {
            IncidentKind::SimRefuted { rounds } => {
                write!(f, "refuted by random simulation ({rounds} rounds)")
            }
            IncidentKind::SatRefuted { counterexample } => {
                let bits: String =
                    counterexample.iter().map(|&b| if b { '1' } else { '0' }).collect();
                write!(f, "refuted by SAT miter (counterexample {bits})")
            }
            IncidentKind::InterfaceChanged { pis_before, pis_after, pos_before, pos_after } => {
                write!(
                    f,
                    "interface changed ({pis_before}->{pis_after} PIs, \
                     {pos_before}->{pos_after} POs)"
                )
            }
            IncidentKind::Exhausted { work_spent } => {
                write!(f, "budget exhausted after {work_spent} work units")
            }
        }
    }
}

/// Outcome of one recipe step under the guarded runner.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PassOutcome {
    /// The pass was applied.
    Applied {
        /// Verification strength for this step.
        verification: Verification,
        /// Gate count after the pass.
        ands_after: usize,
    },
    /// The pass was refuted by the equivalence guard and rolled back.
    RolledBack {
        /// The structured refutation record.
        incident: Incident,
    },
    /// The pass exceeded its budget and was rolled back.
    TimedOut {
        /// The structured budget record.
        incident: Incident,
    },
}

impl PassOutcome {
    /// The incident attached to a rejected pass, if any.
    pub fn incident(&self) -> Option<&Incident> {
        match self {
            PassOutcome::Applied { .. } => None,
            PassOutcome::RolledBack { incident } | PassOutcome::TimedOut { incident } => {
                Some(incident)
            }
        }
    }
}

/// Checks `after` against `before` under `cfg`; `Err` carries the incident
/// that mandates rollback.
pub(crate) fn verify_step(
    before: &Aig,
    after: &Aig,
    cfg: &GuardConfig,
    step_index: usize,
    step: SynthStep,
) -> Result<Verification, Incident> {
    let incident = |kind| Incident { step_index, step, kind };
    // Interface first: `probably_equivalent` treats PI/PO mismatches as
    // caller bugs and panics, so the guard screens them into an incident.
    if before.num_pis() != after.num_pis() || before.num_pos() != after.num_pos() {
        return Err(incident(IncidentKind::InterfaceChanged {
            pis_before: before.num_pis(),
            pis_after: after.num_pis(),
            pos_before: before.num_pos(),
            pos_after: after.num_pos(),
        }));
    }
    // Fast filter: random simulation refutations are sound.
    if !probably_equivalent(before, after, cfg.sim_rounds, step_index as u64) {
        return Err(incident(IncidentKind::SimRefuted { rounds: cfg.sim_rounds }));
    }
    // Arbiter: the bounded SAT miter can upgrade to a proof or refute with
    // a counterexample; `Unknown` (budget exhausted) keeps the sim verdict.
    if cfg.conflict_budget > 0 {
        match check_equivalence(before, after, cfg.conflict_budget) {
            Equivalence::Equivalent => return Ok(Verification::Proved),
            Equivalence::Inequivalent(counterexample) => {
                return Err(incident(IncidentKind::SatRefuted { counterexample }));
            }
            Equivalence::Unknown => {}
        }
    }
    Ok(Verification::SimOnly)
}

/// Complements the first PO of a pass output — the miscompile the
/// equivalence guard must catch.
pub(crate) fn inject_miscompile(aig: &mut Aig) {
    if aig.num_pos() > 0 {
        let po = aig.pos()[0];
        aig.set_po(0, !po);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_pos() -> Aig {
        let mut g = Aig::new(2);
        let (a, b) = (g.pi_lit(0), g.pi_lit(1));
        let x = g.and(a, b);
        g.add_po(x);
        g.add_po(!x);
        g
    }

    #[test]
    fn meter_unlimited_never_trips() {
        let mut m = WorkMeter::unlimited();
        for _ in 0..10_000 {
            m.charge(17).expect("unlimited meter must not trip");
        }
        assert_eq!(m.spent, 170_000);
    }

    #[test]
    fn meter_trips_on_work_budget() {
        let mut m = WorkMeter::new(&PassBudget::with_max_work(10));
        assert!(m.charge(10).is_ok());
        let err = m.charge(1).expect_err("over budget");
        assert_eq!(err.work_spent, 11);
    }

    #[test]
    fn meter_exhaust_forces_first_charge_to_fail() {
        let mut m = WorkMeter::unlimited();
        m.exhaust();
        assert!(m.charge(1).is_err());
    }

    #[test]
    fn verify_accepts_identical_circuits() {
        let g = two_pos();
        let v = verify_step(&g, &g.clone(), &GuardConfig::default(), 0, SynthStep::Balance)
            .expect("identical circuits verify");
        assert_eq!(v, Verification::SimOnly);
    }

    #[test]
    fn verify_proves_with_sat_arbiter() {
        let g = two_pos();
        let cfg = GuardConfig { conflict_budget: 100_000, ..GuardConfig::default() };
        let v = verify_step(&g, &g.clone(), &cfg, 0, SynthStep::Balance).expect("equivalent");
        assert_eq!(v, Verification::Proved);
    }

    #[test]
    fn verify_refutes_miscompile_by_simulation() {
        let g = two_pos();
        let mut bad = g.clone();
        inject_miscompile(&mut bad);
        let err = verify_step(&g, &bad, &GuardConfig::default(), 3, SynthStep::Resub)
            .expect_err("miscompile must be refuted");
        assert_eq!(err.step_index, 3);
        assert!(matches!(err.kind, IncidentKind::SimRefuted { rounds: 2 }));
    }

    #[test]
    fn verify_screens_interface_changes() {
        let g = two_pos();
        let mut narrower = Aig::new(2);
        let x = narrower.pi_lit(0);
        narrower.add_po(x);
        let err = verify_step(&g, &narrower, &GuardConfig::default(), 0, SynthStep::Balance)
            .expect_err("PO count change must be an incident");
        assert!(matches!(
            err.kind,
            IncidentKind::InterfaceChanged { pos_before: 2, pos_after: 1, .. }
        ));
    }

    #[test]
    fn zero_sim_rounds_is_invalid() {
        let cfg = GuardConfig { sim_rounds: 0, ..GuardConfig::default() };
        assert!(matches!(cfg.validate(), Err(SynthError::InvalidConfig { .. })));
    }

    #[test]
    fn incident_display_is_informative() {
        let i = Incident {
            step_index: 4,
            step: SynthStep::Rewrite { zero_cost: false },
            kind: IncidentKind::SatRefuted { counterexample: vec![true, false] },
        };
        let s = i.to_string();
        assert!(s.contains("step 4"), "{s}");
        assert!(s.contains("rw"), "{s}");
        assert!(s.contains("10"), "{s}");
    }
}
