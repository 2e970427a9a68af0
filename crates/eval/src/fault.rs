//! Recovery vocabulary for the training stack.
//!
//! The paper's headline claim is *scalable* training (Figure 5's
//! near-linear multi-worker speedup on OpenABC-D-scale data). At that
//! scale a trainer that aborts on the first NaN loss loses hours of work,
//! so the training entry points in this crate return a typed
//! [`TrainError`] instead of panicking and recover from divergence by
//! rolling back to the start of the epoch (see [`crate::resilient`]). A
//! lost process is the job engine's to retry and resume from its last
//! checkpoint (`hoga_jobs`).
//!
//! What goes wrong on purpose is not defined here: the trainers take a
//! [`hoga_jobs::JobFaultPlan`] and claim its `Loss { epoch, step }` sites
//! from a [`hoga_jobs::FaultInjector`]. A plan injects the same faults at
//! the same coordinates every run, which is what lets the tests assert that
//! a rolled-back run ends on the bits of a clean run at the backed-off rate.

use hoga_datasets::io::CheckpointError;
use std::error::Error;
use std::fmt;

/// Typed error from the fault-tolerant training entry points.
///
/// Replaces the `assert!`/`panic!` exits the trainers used to have: a
/// caller embedding training in a long-running service can match on the
/// variant and decide to retry, rebuild, or surface the failure.
#[derive(Debug)]
pub enum TrainError {
    /// A hyperparameter combination that can never train (e.g. more hops
    /// requested than the dataset precomputed).
    InvalidConfig(String),
    /// Reading or writing a checkpoint failed.
    Checkpoint(CheckpointError),
    /// A checkpoint was read successfully but does not belong to this run
    /// (different seed, architecture, or optimizer type).
    CheckpointMismatch(String),
    /// Training kept diverging after exhausting the recovery budget.
    Diverged {
        /// Epoch at which the final divergence was detected.
        epoch: usize,
        /// Rollback retries consumed before giving up.
        retries: usize,
        /// The offending loss value (NaN/inf, or finite when the gradient
        /// norm exploded instead).
        last_loss: f32,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::InvalidConfig(msg) => write!(f, "invalid training config: {msg}"),
            TrainError::Checkpoint(e) => write!(f, "{e}"),
            TrainError::CheckpointMismatch(msg) => {
                write!(f, "checkpoint does not match this run: {msg}")
            }
            TrainError::Diverged { epoch, retries, last_loss } => write!(
                f,
                "training diverged at epoch {epoch} (loss {last_loss}) after {retries} recovery retries"
            ),
        }
    }
}

impl Error for TrainError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// One recovery action taken by a fault-tolerant trainer.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryEvent {
    /// The training loss came back NaN/inf.
    NonFiniteLoss {
        /// Epoch of the detection.
        epoch: usize,
        /// Step of the detection.
        step: usize,
        /// Learning rate in effect when divergence was detected.
        lr_before: f32,
        /// Learning rate after the backoff that the retry will use.
        lr_after: f32,
    },
    /// The global gradient norm exceeded the policy limit.
    GradientExplosion {
        /// Epoch of the detection.
        epoch: usize,
        /// Step of the detection.
        step: usize,
        /// The offending norm.
        norm: f32,
        /// Learning rate in effect when the explosion was detected.
        lr_before: f32,
        /// Learning rate after the backoff that the retry will use.
        lr_after: f32,
    },
    /// Training state was restored from the last good checkpoint.
    RolledBack {
        /// Epoch the run resumed from.
        to_epoch: usize,
        /// 1-based retry count.
        retry: usize,
    },
}

/// Structured record of what a fault-tolerant run survived.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainReport {
    /// Every recovery action, in order.
    pub events: Vec<RecoveryEvent>,
    /// Epoch the run resumed from, when started from a checkpoint.
    pub resumed_from_epoch: Option<usize>,
    /// Checkpoints persisted during the run.
    pub checkpoints_written: usize,
    /// Rollback retries consumed (divergence recovery only).
    pub retries: usize,
    /// Learning rate at the end of the run (reflects any backoff).
    pub final_lr: f32,
}

impl TrainReport {
    /// Human-readable one-line-per-event rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(e) = self.resumed_from_epoch {
            out.push_str(&format!("resumed from checkpoint at epoch {e}\n"));
        }
        for ev in &self.events {
            out.push_str(&format!("{ev:?}\n"));
        }
        out.push_str(&format!(
            "{} events, {} retries, {} checkpoints written, final lr {:.3e}\n",
            self.events.len(),
            self.retries,
            self.checkpoints_written,
            self.final_lr,
        ));
        out
    }
}

/// Divergence-recovery policy for [`crate::resilient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Rollback retries before the run gives up with
    /// [`TrainError::Diverged`].
    pub max_retries: usize,
    /// Multiplier applied to the learning rate on every rollback
    /// (bounded backoff: after `max_retries` halvings the run errors out
    /// rather than spinning).
    pub lr_backoff: f32,
    /// Global gradient-norm limit; a step whose gradient norm exceeds it
    /// is treated as divergence. `f32::INFINITY` disables the check.
    pub grad_norm_limit: f32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self { max_retries: 4, lr_backoff: 0.5, grad_norm_limit: f32::INFINITY }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_error_messages_are_descriptive() {
        let c = TrainError::InvalidConfig("no designs".into());
        assert!(c.to_string().contains("no designs"));
        let d = TrainError::Diverged { epoch: 3, retries: 4, last_loss: f32::NAN };
        assert!(d.to_string().contains("epoch 3"));
        let m = TrainError::CheckpointMismatch("seed differs".into());
        assert!(m.to_string().contains("seed differs"));
    }
}
