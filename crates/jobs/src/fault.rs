//! The workspace's one fault-injection vocabulary and its one claim-once
//! injector.
//!
//! Every fault the workspace knows how to inject is a `(site, kind)` pair in
//! a [`JobFaultPlan`], and every consumer — the engine, the jobs it runs, the
//! trainers in `hoga-eval`, the synthesis guard in `hoga-synth`, the
//! inference server — reads that plan directly. What a kind *means* depends
//! on who claims the site; this table is the contract:
//!
//! | kind \ consumer | engine (`Attempt`), [`crate::JobContext::apply_step_fault`] (`Step`) | synthesis guard (`Step`, `step` = recipe step) | every trainer (`Loss` = epoch/step) |
//! |-----------------|------------------------------|----------------------------------|----------------|
//! | `Panic`         | panic inside `catch_unwind`  | refused with a typed error       | loss reads NaN |
//! | `Stall`         | cancellable sleep, then run  | the pass's work meter is spent   | loss reads NaN |
//! | `Corrupt`       | retryable incident           | the pass output is miscompiled   | loss reads NaN |
//!
//! Serve-path sites ([`ServeSite`], claimed via
//! [`FaultInjector::claim_serve`]):
//!
//! | site               | meaning when claimed                                   |
//! |--------------------|--------------------------------------------------------|
//! | `SlowClient`       | request body dribbles in slower than the read timeout  |
//! | `CorruptFrame`     | uploaded circuit bytes are flipped before decoding     |
//! | `CorruptCheckpoint`| checkpoint bytes are flipped before CRC verification   |
//! | `StallReload`      | hot reload stalls after load, before the registry swap |
//!
//! A [`FaultInjector`] arms a plan for one run; each fault fires **exactly
//! once** (claim-once semantics via an atomic swap), so a retried attempt or
//! a rolled-back epoch does not re-trip the fault that stopped its
//! predecessor — which is precisely what lets resume-after-fault converge.
//! Faults planned at the same site fire one per claim, in plan order.

use std::sync::atomic::{AtomicBool, Ordering};

/// What goes wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Unwind the current attempt (exercises `catch_unwind` isolation).
    Panic,
    /// Block progress for `millis` (exercises deadlines and liveness).
    Stall { millis: u64 },
    /// Corrupt in-flight state (exercises detection + retry/rollback).
    Corrupt,
}

/// Where it goes wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Engine-level: at the start of the given attempt (1-based).
    Attempt { attempt: u32 },
    /// Domain-level step coordinates, claimed by whoever runs the step.
    /// The meaning of the axes is per consumer (`train` job stage:
    /// first-epoch/0/0; dataset sweep: chunk/0/0; synthesis guard: `step` is
    /// the recipe step and the other two are not read). No trainer claims it.
    Step { unit: u64, step: u64, lane: u64 },
    /// The loss of optimizer step `step` of epoch `unit`: claimed by the
    /// training loop after the step's gradients are in.
    Loss { unit: u64, step: u64 },
    /// Inference-server degradation point, claimed by `crates/serve`.
    Serve(ServeSite),
}

/// Degradation points in the serving path (see the module docs table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeSite {
    /// While reading a request body: the client dribbles bytes slower than
    /// the socket read timeout.
    SlowClient,
    /// After the body is read, before AIG decode: payload bytes flipped.
    CorruptFrame,
    /// After a checkpoint is read from disk, before CRC verification:
    /// artifact bytes flipped.
    CorruptCheckpoint,
    /// During hot reload, after the canary passes but before the registry
    /// swap: the reload thread stalls while requests keep serving the old
    /// model.
    StallReload,
}

/// One planned fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    pub site: FaultSite,
    pub kind: FaultKind,
}

/// A deterministic list of faults to inject into one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobFaultPlan {
    faults: Vec<PlannedFault>,
}

impl JobFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builder-style: add one fault.
    pub fn inject(mut self, site: FaultSite, kind: FaultKind) -> Self {
        self.faults.push(PlannedFault { site, kind });
        self
    }

    pub fn faults(&self) -> &[PlannedFault] {
        &self.faults
    }
}

/// An armed [`JobFaultPlan`]: hands each fault out exactly once.
#[derive(Debug, Default)]
pub struct FaultInjector {
    faults: Vec<PlannedFault>,
    fired: Vec<AtomicBool>,
}

impl FaultInjector {
    pub fn new(plan: &JobFaultPlan) -> Self {
        let faults = plan.faults.clone();
        let fired = faults.iter().map(|_| AtomicBool::new(false)).collect();
        Self { faults, fired }
    }

    fn claim(&self, site: FaultSite) -> Option<FaultKind> {
        for (i, f) in self.faults.iter().enumerate() {
            if f.site == site && !self.fired[i].swap(true, Ordering::SeqCst) {
                return Some(f.kind);
            }
        }
        None
    }

    /// Claim the fault planned for the start of `attempt`, if any.
    /// Crate-internal: only the engine runs attempts.
    pub(crate) fn claim_attempt(&self, attempt: u32) -> Option<FaultKind> {
        self.claim(FaultSite::Attempt { attempt })
    }

    /// Claim the next unfired fault planned at step coordinates
    /// `(unit, step, lane)`; call until `None` to take all of them.
    pub(crate) fn claim_step(&self, unit: u64, step: u64, lane: u64) -> Option<FaultKind> {
        self.claim(FaultSite::Step { unit, step, lane })
    }

    /// Claim the next unfired fault planned on the loss of `(unit, step)`.
    pub fn claim_loss(&self, unit: u64, step: u64) -> Option<FaultKind> {
        self.claim(FaultSite::Loss { unit, step })
    }

    /// Claim the fault planned at the given serve-path site, if any.
    pub fn claim_serve(&self, site: ServeSite) -> Option<FaultKind> {
        self.claim(FaultSite::Serve(site))
    }

    /// How many planned faults have not fired yet.
    pub fn remaining(&self) -> usize {
        self.fired.iter().filter(|f| !f.load(Ordering::SeqCst)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_exactly_once() {
        let plan = JobFaultPlan::none()
            .inject(FaultSite::Attempt { attempt: 1 }, FaultKind::Panic)
            .inject(FaultSite::Step { unit: 2, step: 0, lane: 1 }, FaultKind::Corrupt)
            .inject(FaultSite::Loss { unit: 0, step: 3 }, FaultKind::Corrupt);
        let inj = FaultInjector::new(&plan);
        assert_eq!(inj.remaining(), 3);
        assert_eq!(inj.claim_attempt(1), Some(FaultKind::Panic));
        assert_eq!(inj.claim_attempt(1), None, "claim-once: retry must not re-trip");
        assert_eq!(inj.claim_step(0, 0, 0), None, "unplanned coordinate");
        assert_eq!(inj.claim_step(2, 0, 0), None, "lane mismatch");
        assert_eq!(inj.claim_step(0, 3, 0), None, "a loss site is not a step site");
        assert_eq!(inj.claim_step(2, 0, 1), Some(FaultKind::Corrupt));
        assert_eq!(inj.claim_step(2, 0, 1), None);
        assert_eq!(inj.claim_loss(1, 3), None, "epoch mismatch");
        assert_eq!(inj.claim_loss(0, 3), Some(FaultKind::Corrupt));
        assert_eq!(inj.claim_loss(0, 3), None, "claim-once: the replayed epoch stays clean");
        assert_eq!(inj.remaining(), 0);
    }

    #[test]
    fn duplicate_sites_fire_in_plan_order() {
        let plan = JobFaultPlan::none()
            .inject(FaultSite::Attempt { attempt: 1 }, FaultKind::Corrupt)
            .inject(FaultSite::Attempt { attempt: 1 }, FaultKind::Stall { millis: 5 });
        let inj = FaultInjector::new(&plan);
        assert_eq!(inj.claim_attempt(1), Some(FaultKind::Corrupt));
        assert_eq!(inj.claim_attempt(1), Some(FaultKind::Stall { millis: 5 }));
        assert_eq!(inj.claim_attempt(1), None);
    }

    #[test]
    fn unarmed_injector_claims_nothing() {
        let inj = FaultInjector::default();
        assert_eq!(inj.claim_attempt(1), None);
        assert_eq!(inj.claim_step(0, 0, 0), None);
        assert_eq!(inj.claim_loss(0, 0), None);
        assert_eq!(inj.claim_serve(ServeSite::SlowClient), None);
        assert_eq!(inj.remaining(), 0);
    }

    #[test]
    fn serve_sites_claim_once_and_do_not_cross_match() {
        let plan = JobFaultPlan::none()
            .inject(FaultSite::Serve(ServeSite::SlowClient), FaultKind::Stall { millis: 250 })
            .inject(FaultSite::Serve(ServeSite::CorruptCheckpoint), FaultKind::Corrupt);
        let inj = FaultInjector::new(&plan);
        assert_eq!(inj.claim_serve(ServeSite::CorruptFrame), None, "unplanned site");
        assert_eq!(inj.claim_serve(ServeSite::StallReload), None, "unplanned site");
        assert_eq!(inj.claim_attempt(1), None, "serve faults never leak into attempts");
        assert_eq!(inj.claim_serve(ServeSite::SlowClient), Some(FaultKind::Stall { millis: 250 }));
        assert_eq!(inj.claim_serve(ServeSite::SlowClient), None, "claim-once");
        assert_eq!(inj.claim_serve(ServeSite::CorruptCheckpoint), Some(FaultKind::Corrupt));
        assert_eq!(inj.remaining(), 0);
    }
}
