//! Training, metrics and paper-experiment drivers.
//!
//! * [`metrics`] — MAPE (Table 2), accuracy and confusion matrices
//!   (Figure 6).
//! * [`trainer`] — the one training loop (resume, schedule, divergence
//!   rollback, Adam step, checkpoint) and the task entry points that feed
//!   it a gradient provider, for HOGA and every baseline with identical
//!   task pipelines (Figure 3's controlled swap). HOGA and SIGN steps run
//!   as node blocks in one parallel region, reduced in block order whatever
//!   order they finish in; Figure 5's workers are that region's threads.
//! * [`fault`] — the recovery vocabulary: [`fault::TrainError`],
//!   [`fault::RecoveryPolicy`] and the [`fault::TrainReport`] recovery log
//!   (what gets injected is a [`hoga_jobs::JobFaultPlan`]).
//! * [`resilient`] — the same loop under a caller-chosen recovery policy
//!   and fault plan, returning the log of every rollback.
//! * [`experiments`] — one driver per paper artifact (Table 1, Table 2,
//!   Figures 4–7 and the §III-B ablation); each returns typed results and
//!   renders the same rows/series the paper reports; the `hoga-repro` CLI
//!   and `examples/` call these drivers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fault;
pub mod metrics;
pub mod resilient;
pub mod trainer;

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared test fixtures: dataset construction dominates test runtime,
    //! so the tiny QoR dataset is built once per test binary.

    use hoga_datasets::openabcd::{build_qor_dataset, QorDataset, QorDatasetConfig};
    use hoga_jobs::{FaultKind, FaultSite, JobFaultPlan};
    use std::sync::OnceLock;

    /// A plan whose one fault makes the loss of `(epoch, step)` read NaN.
    pub fn nan_loss(epoch: u64, step: u64) -> JobFaultPlan {
        JobFaultPlan::none().inject(FaultSite::Loss { unit: epoch, step }, FaultKind::Corrupt)
    }

    /// The tiny QoR dataset, built on first use.
    pub fn tiny_qor_dataset() -> &'static QorDataset {
        static DS: OnceLock<QorDataset> = OnceLock::new();
        DS.get_or_init(|| build_qor_dataset(&QorDatasetConfig::tiny()))
    }
}
