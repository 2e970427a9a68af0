//! Applies a recipe to an AIG and records per-step gate counts.

use crate::guard::{
    inject_miscompile, verify_step, GuardConfig, Incident, IncidentKind, PassOutcome, SynthError,
    WorkMeter,
};
use crate::{balance, recipe, refactor, resub, rewrite, Recipe, SynthStep};
use hoga_circuit::Aig;
use hoga_jobs::{FaultKind, FaultSite, JobFaultPlan};
use serde::{Deserialize, Serialize};

/// Outcome of running a [`Recipe`] on a circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthesisResult {
    /// Gate count of the (compacted) input.
    pub initial_ands: usize,
    /// Gate count after the full recipe.
    pub final_ands: usize,
    /// Gate count after each step, in order.
    pub per_step_ands: Vec<usize>,
    /// The optimized AIG.
    pub aig: Aig,
}

impl SynthesisResult {
    /// Fractional gate-count reduction in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        if self.initial_ands == 0 {
            0.0
        } else {
            1.0 - self.final_ands as f64 / self.initial_ands as f64
        }
    }
}

/// A [`SynthesisResult`] plus the per-step outcome log from the guarded
/// runner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuardedRun {
    /// The synthesis result (rolled-back steps leave the circuit at its
    /// pre-step state).
    pub result: SynthesisResult,
    /// One outcome per recipe step, in order.
    pub outcomes: Vec<PassOutcome>,
}

impl GuardedRun {
    /// Incidents from rejected steps, in step order.
    pub fn incidents(&self) -> impl Iterator<Item = &Incident> {
        self.outcomes.iter().filter_map(PassOutcome::incident)
    }

    /// `true` when every step was applied (no rollbacks or timeouts).
    pub fn is_clean(&self) -> bool {
        self.outcomes.iter().all(|o| o.incident().is_none())
    }
}

/// Runs `recipe` on a copy of `aig` with per-pass equivalence guarding,
/// budgets, and fault injection.
///
/// Every step is verified against its input (random simulation filter,
/// then the bounded SAT arbiter when `cfg.conflict_budget > 0`). A step
/// that is refuted, changes the PI/PO interface, or exceeds its budget is
/// *rolled back* — the recipe continues from the pre-step circuit and the
/// rejection is recorded as a structured [`Incident`] — so one bad pass
/// degrades one step instead of poisoning the run.
///
/// Resubstitution seeds are derived from the step index so the whole run
/// is deterministic (given `cfg.budget.timeout_ms == 0`).
///
/// `faults` is read at its `Step { step, .. }` sites, `step` being the
/// 0-based recipe step (the other two axes and every other site are not
/// this runner's): `Corrupt` complements the first PO of that pass's
/// output, `Stall` starts the pass with its work meter spent. Every fault
/// planned on a step applies, whatever their order in the plan.
///
/// # Errors
///
/// [`SynthError::InvalidConfig`] if `cfg` is inconsistent,
/// [`SynthError::FaultOutOfRange`] if `faults` targets a step the recipe
/// does not have, and [`SynthError::PanicFault`] if it aims a `Panic` at a
/// step. A valid configuration never panics.
pub fn run_recipe_guarded(
    aig: &Aig,
    recipe: &Recipe,
    cfg: &GuardConfig,
    faults: &JobFaultPlan,
) -> Result<GuardedRun, SynthError> {
    cfg.validate()?;
    let steps = recipe.steps();
    // (recipe step, kind) of every step-site fault; the other sites are not
    // this runner's.
    let step_faults: Vec<(usize, FaultKind)> = faults
        .faults()
        .iter()
        .filter_map(|f| match f.site {
            FaultSite::Step { step, .. } => {
                Some((usize::try_from(step).unwrap_or(usize::MAX), f.kind))
            }
            _ => None,
        })
        .collect();
    for &(step, kind) in &step_faults {
        if step >= steps.len() {
            return Err(SynthError::FaultOutOfRange { step, steps: steps.len() });
        }
        if kind == FaultKind::Panic {
            return Err(SynthError::PanicFault { step });
        }
    }
    let planned = |idx: usize, wanted: fn(FaultKind) -> bool| {
        step_faults.iter().any(|&(step, kind)| step == idx && wanted(kind))
    };
    let mut current = aig.clone();
    current.compact();
    let initial_ands = current.num_ands();
    let mut per_step_ands = Vec::with_capacity(steps.len());
    let mut outcomes = Vec::with_capacity(steps.len());
    for (idx, step) in steps.iter().enumerate() {
        let mut meter = WorkMeter::new(&cfg.budget);
        if planned(idx, |k| matches!(k, FaultKind::Stall { .. })) {
            meter.exhaust();
        }
        let attempted = match *step {
            SynthStep::Balance => balance::balance_bounded(&current, &mut meter),
            SynthStep::Rewrite { zero_cost } => {
                rewrite::rewrite_bounded(&current, zero_cost, &mut meter)
            }
            SynthStep::Refactor { zero_cost } => {
                refactor::refactor_bounded(&current, zero_cost, &mut meter)
            }
            SynthStep::Resub => {
                resub::resub_bounded(&current, recipe::RESUB_SEED_BASE + idx as u64, &mut meter)
            }
        };
        let outcome = match attempted {
            Err(exhausted) => PassOutcome::TimedOut {
                incident: Incident {
                    step_index: idx,
                    step: *step,
                    kind: IncidentKind::Exhausted { work_spent: exhausted.work_spent },
                },
            },
            Ok(mut next) => {
                next.compact();
                if planned(idx, |k| k == FaultKind::Corrupt) {
                    inject_miscompile(&mut next);
                }
                match verify_step(&current, &next, cfg, idx, *step) {
                    Ok(verification) => {
                        let ands_after = next.num_ands();
                        current = next;
                        PassOutcome::Applied { verification, ands_after }
                    }
                    Err(incident) => PassOutcome::RolledBack { incident },
                }
            }
        };
        // Rolled-back steps leave the gate count at the pre-step value.
        per_step_ands.push(current.num_ands());
        outcomes.push(outcome);
    }
    Ok(GuardedRun {
        result: SynthesisResult {
            initial_ands,
            final_ands: current.num_ands(),
            per_step_ands,
            aig: current,
        },
        outcomes,
    })
}

/// Runs `recipe` on a copy of `aig`.
///
/// Thin wrapper over [`run_recipe_guarded`] with the default guard
/// (2-round simulation filter, no SAT arbiter, unlimited budgets) and no
/// faults; the passes are sound, so results are unchanged from the
/// historical unguarded runner.
pub fn run_recipe(aig: &Aig, recipe: &Recipe) -> SynthesisResult {
    match run_recipe_guarded(aig, recipe, &GuardConfig::default(), &JobFaultPlan::none()) {
        Ok(run) => run.result,
        // The default config is valid and the empty plan targets no steps.
        Err(e) => unreachable!("default guard config rejected: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::{PassBudget, Verification};
    use hoga_circuit::simulate::probably_equivalent;
    use hoga_circuit::{Aig, Lit};
    use rand::{Rng, SeedableRng};

    const STALL: FaultKind = FaultKind::Stall { millis: 0 };

    fn at_step(step: u64, kind: FaultKind) -> JobFaultPlan {
        JobFaultPlan::none().inject(FaultSite::Step { unit: 0, step, lane: 0 }, kind)
    }

    fn random_circuit(n_pis: usize, gates: usize, pos: usize, seed: u64) -> Aig {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut g = Aig::new(n_pis);
        let mut pool: Vec<Lit> = (0..n_pis).map(|i| g.pi_lit(i)).collect();
        for _ in 0..gates {
            let x = pool[rng.gen_range(0..pool.len())];
            let y = pool[rng.gen_range(0..pool.len())];
            let x = if rng.gen() { !x } else { x };
            let y = if rng.gen() { !y } else { y };
            let l = g.and(x, y);
            pool.push(l);
        }
        for _ in 0..pos {
            let idx = rng.gen_range(n_pis..pool.len().max(n_pis + 1)).min(pool.len() - 1);
            g.add_po(pool[idx]);
        }
        g
    }

    #[test]
    fn resyn2_preserves_function_and_reduces_gates() {
        let g = random_circuit(8, 120, 4, 99);
        let result = run_recipe(&g, &Recipe::resyn2());
        assert!(result.final_ands <= result.initial_ands);
        assert!(probably_equivalent(&g, &result.aig, 4, 0));
        assert_eq!(result.per_step_ands.len(), 10);
        assert_eq!(*result.per_step_ands.last().expect("non-empty"), result.final_ands);
    }

    #[test]
    fn different_recipes_give_different_qor() {
        // The core premise of QoR prediction: recipe choice changes the
        // final gate count on at least some circuits.
        let g = random_circuit(10, 200, 6, 7);
        let recipes = [
            "b".parse::<Recipe>().expect("valid"),
            Recipe::resyn2(),
            "rs; rs; rf; rw".parse::<Recipe>().expect("valid"),
        ];
        let counts: Vec<usize> = recipes.iter().map(|r| run_recipe(&g, r).final_ands).collect();
        assert!(
            counts.iter().any(|&c| c != counts[0]),
            "all recipes gave identical QoR {counts:?}"
        );
    }

    #[test]
    fn empty_recipe_just_compacts() {
        let g = random_circuit(5, 30, 2, 3);
        let result = run_recipe(&g, &Recipe::default());
        assert_eq!(result.per_step_ands.len(), 0);
        assert_eq!(result.initial_ands, result.final_ands);
    }

    #[test]
    fn reduction_is_in_unit_range() {
        let g = random_circuit(8, 100, 3, 11);
        let result = run_recipe(&g, &Recipe::resyn2());
        let r = result.reduction();
        assert!((0.0..=1.0).contains(&r), "reduction {r} out of range");
    }

    #[test]
    fn run_is_deterministic() {
        let g = random_circuit(8, 100, 3, 13);
        let recipe: Recipe = "rs; b; rw; rs".parse().expect("valid");
        let a = run_recipe(&g, &recipe);
        let b = run_recipe(&g, &recipe);
        assert_eq!(a.final_ands, b.final_ands);
        assert_eq!(a.aig, b.aig);
    }

    #[test]
    fn guarded_clean_run_matches_legacy_runner() {
        let g = random_circuit(8, 120, 4, 21);
        let recipe = Recipe::resyn2();
        let legacy = run_recipe(&g, &recipe);
        let guarded =
            run_recipe_guarded(&g, &recipe, &GuardConfig::default(), &JobFaultPlan::none())
                .expect("valid config");
        assert!(guarded.is_clean());
        assert_eq!(guarded.result, legacy);
        assert_eq!(guarded.outcomes.len(), recipe.steps().len());
    }

    #[test]
    fn injected_miscompile_is_caught_and_rolled_back() {
        let g = random_circuit(8, 120, 4, 33);
        let recipe: Recipe = "b; rw; rf; rs".parse().expect("valid");
        let faults = at_step(1, FaultKind::Corrupt);
        let run = run_recipe_guarded(&g, &recipe, &GuardConfig::default(), &faults)
            .expect("valid config");
        assert!(!run.is_clean());
        let incidents: Vec<_> = run.incidents().collect();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].step_index, 1);
        assert!(matches!(incidents[0].kind, IncidentKind::SimRefuted { .. }));
        assert!(matches!(run.outcomes[1], PassOutcome::RolledBack { .. }));
        // Graceful degradation: the run still completes and stays correct.
        assert!(probably_equivalent(&g, &run.result.aig, 4, 1));
        assert!(run.result.final_ands <= run.result.initial_ands);
    }

    #[test]
    fn stall_fault_times_out_and_rolls_back() {
        let g = random_circuit(8, 100, 3, 41);
        let recipe: Recipe = "b; rw".parse().expect("valid");
        let faults = at_step(0, STALL);
        let run = run_recipe_guarded(&g, &recipe, &GuardConfig::default(), &faults)
            .expect("valid config");
        assert!(matches!(run.outcomes[0], PassOutcome::TimedOut { .. }));
        assert!(matches!(run.outcomes[1], PassOutcome::Applied { .. }));
        // The stalled step contributes its input's gate count.
        assert_eq!(run.result.per_step_ands[0], run.result.initial_ands);
        assert!(probably_equivalent(&g, &run.result.aig, 4, 2));
    }

    #[test]
    fn tiny_work_budget_times_out_every_pass() {
        let g = random_circuit(8, 120, 4, 55);
        let recipe: Recipe = "b; rw; rf; rs".parse().expect("valid");
        let cfg = GuardConfig { budget: PassBudget::with_max_work(1), ..GuardConfig::default() };
        let run =
            run_recipe_guarded(&g, &recipe, &cfg, &JobFaultPlan::none()).expect("valid config");
        assert!(run.outcomes.iter().all(|o| matches!(o, PassOutcome::TimedOut { .. })));
        // All steps rolled back: the output is the compacted input.
        assert_eq!(run.result.final_ands, run.result.initial_ands);
        assert!(probably_equivalent(&g, &run.result.aig, 4, 3));
    }

    #[test]
    fn sat_arbiter_proves_small_steps() {
        let g = random_circuit(6, 40, 2, 61);
        let recipe: Recipe = "b".parse().expect("valid");
        let cfg = GuardConfig { conflict_budget: 1_000_000, ..GuardConfig::default() };
        let run =
            run_recipe_guarded(&g, &recipe, &cfg, &JobFaultPlan::none()).expect("valid config");
        assert!(matches!(
            run.outcomes[0],
            PassOutcome::Applied { verification: Verification::Proved, .. }
        ));
    }

    #[test]
    fn fault_past_recipe_end_is_a_typed_error() {
        let g = random_circuit(4, 10, 1, 71);
        let recipe: Recipe = "b; rw".parse().expect("valid");
        let faults = at_step(5, FaultKind::Corrupt);
        let err = run_recipe_guarded(&g, &recipe, &GuardConfig::default(), &faults)
            .expect_err("step 5 of a 2-step recipe");
        assert_eq!(err, SynthError::FaultOutOfRange { step: 5, steps: 2 });
    }

    #[test]
    fn panic_aimed_at_a_recipe_step_is_a_typed_error() {
        let g = random_circuit(4, 10, 1, 71);
        let recipe: Recipe = "b; rw".parse().expect("valid");
        let err =
            run_recipe_guarded(&g, &recipe, &GuardConfig::default(), &at_step(1, FaultKind::Panic))
                .expect_err("the guard never panics, so it cannot be told to");
        assert_eq!(err, SynthError::PanicFault { step: 1 });
        // Sites that are not recipe steps are not this runner's to judge.
        let engine_level =
            JobFaultPlan::none().inject(FaultSite::Attempt { attempt: 1 }, FaultKind::Panic);
        let run = run_recipe_guarded(&g, &recipe, &GuardConfig::default(), &engine_level)
            .expect("attempt sites are ignored");
        assert!(run.is_clean());
    }

    #[test]
    fn two_faults_on_one_step_do_not_depend_on_plan_order() {
        let g = random_circuit(8, 120, 4, 33);
        let recipe: Recipe = "b; rw; rf; rs".parse().expect("valid");
        let site = FaultSite::Step { unit: 0, step: 1, lane: 0 };
        for kinds in [[STALL, FaultKind::Corrupt], [FaultKind::Corrupt, STALL]] {
            let faults = JobFaultPlan::none().inject(site, kinds[0]).inject(site, kinds[1]);
            let run = run_recipe_guarded(&g, &recipe, &GuardConfig::default(), &faults)
                .expect("valid config");
            // The stall applies even when planned second: the pass runs out
            // of budget before there is an output to miscompile.
            assert!(matches!(run.outcomes[1], PassOutcome::TimedOut { .. }), "{kinds:?}");
            assert_eq!(run.incidents().count(), 1, "{kinds:?}");
            assert!(probably_equivalent(&g, &run.result.aig, 4, 1));
        }
    }

    #[test]
    fn guarded_run_is_deterministic_including_outcomes() {
        let g = random_circuit(8, 100, 3, 81);
        let recipe: Recipe = "rs; b; rw; rs".parse().expect("valid");
        let faults = at_step(2, FaultKind::Corrupt);
        let cfg = GuardConfig { conflict_budget: 10_000, ..GuardConfig::default() };
        let a = run_recipe_guarded(&g, &recipe, &cfg, &faults).expect("valid");
        let b = run_recipe_guarded(&g, &recipe, &cfg, &faults).expect("valid");
        assert_eq!(a, b);
    }
}
