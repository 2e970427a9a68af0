//! The [`Job`] trait and the per-attempt [`JobContext`].
//!
//! A job's `run` is called once per attempt. It is expected to:
//!
//! * poll [`JobContext::check_interrupt`] at every natural boundary
//!   (epoch, chunk, recipe) so cancellation and deadlines take effect
//!   *cooperatively* — the engine never kills a thread;
//! * persist resumable state before returning a retryable error, and pick
//!   that state back up on the next attempt (the engine reuses the same
//!   job value across attempts, and kill-resume restarts the whole job);
//! * claim planned step faults at its own coordinates via
//!   [`JobContext::apply_step_fault`].

use crate::events::{EventSink, JobEvent};
use crate::fault::{FaultInjector, FaultKind};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared cooperative-cancellation flag. Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; observed at the next
    /// [`JobContext::check_interrupt`] or backoff poll.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Why a job attempt (or the whole job) stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Permanent: retrying cannot help (bad config, corrupt input, logic
    /// error). The engine fails the job immediately.
    Failed(String),
    /// Transient: the engine retries with deterministic backoff until the
    /// policy's attempt budget runs out.
    Retryable(String),
    /// The job observed its [`CancelToken`].
    Cancelled,
    /// The wall-clock deadline expired.
    DeadlineExceeded { budget_ms: u64 },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Failed(reason) => write!(f, "job failed: {reason}"),
            JobError::Retryable(reason) => write!(f, "retryable incident: {reason}"),
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::DeadlineExceeded { budget_ms } => {
                write!(f, "deadline exceeded (budget {budget_ms} ms)")
            }
        }
    }
}

impl Error for JobError {}

/// One unit of supervised pipeline work.
pub trait Job: Send {
    /// Delivered through [`crate::JobHandle::wait`] on success.
    type Output: Send + 'static;

    /// Short human-readable name for events and logs.
    fn name(&self) -> String;

    /// Run one attempt. See the module docs for the obligations.
    fn run(&mut self, ctx: &JobContext) -> Result<Self::Output, JobError>;
}

/// Everything an attempt can see of its supervisor.
pub struct JobContext {
    pub(crate) job_id: u64,
    pub(crate) attempt: u32,
    pub(crate) cancel: CancelToken,
    pub(crate) deadline: Option<Instant>,
    pub(crate) deadline_ms: u64,
    pub(crate) events: Arc<dyn EventSink>,
    pub(crate) faults: Arc<FaultInjector>,
}

impl JobContext {
    /// Engine-assigned id (1-based, submission order).
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// Current attempt, 1-based.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Err if cancellation was requested or the deadline has passed.
    /// Jobs call this at every resumable boundary.
    pub fn check_interrupt(&self) -> Result<(), JobError> {
        if self.cancel.is_cancelled() {
            return Err(JobError::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(JobError::DeadlineExceeded { budget_ms: self.deadline_ms });
            }
        }
        Ok(())
    }

    /// Report forward progress in a domain-defined unit.
    pub fn progress(&self, unit: &str, step: u64) {
        self.events.emit(&JobEvent::Progress {
            job: self.job_id,
            attempt: self.attempt,
            unit: unit.to_string(),
            step,
        });
    }

    /// Report that resumable state hit disk.
    pub fn checkpointed(&self, detail: &str) {
        self.events.emit(&JobEvent::Checkpointed {
            job: self.job_id,
            attempt: self.attempt,
            detail: detail.to_string(),
        });
    }

    /// Claim (once) the fault planned at these step coordinates and apply
    /// it, emitting a `FaultInjected` event if one fires: `Panic` unwinds
    /// the attempt (the engine catches it), `Stall` sleeps in cancellable
    /// slices, `Corrupt` becomes a retryable incident.
    pub fn apply_step_fault(&self, unit: u64, step: u64, lane: u64) -> Result<(), JobError> {
        let Some(kind) = self.faults.claim_step(unit, step, lane) else {
            return Ok(());
        };
        self.events.emit(&JobEvent::FaultInjected {
            job: self.job_id,
            attempt: self.attempt,
            description: format!("{kind:?} at step site ({unit}, {step}, {lane})"),
        });
        match kind {
            FaultKind::Stall { millis } => {
                let deadline = Instant::now() + Duration::from_millis(millis);
                while Instant::now() < deadline {
                    self.check_interrupt()?;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(())
            }
            FaultKind::Panic => {
                // analyze: allow(panic-free-paths) — deliberate injected fault; the engine's catch_unwind converts it into a retryable incident
                panic!("injected fault: panic at step site ({unit}, {step}, {lane})")
            }
            FaultKind::Corrupt => Err(JobError::Retryable(format!(
                "injected fault: corrupt state at step site ({unit}, {step}, {lane})"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventLog;
    use crate::fault::{FaultSite, JobFaultPlan};

    fn ctx(faults: JobFaultPlan, deadline: Option<Duration>) -> (JobContext, Arc<EventLog>) {
        let log = Arc::new(EventLog::new());
        let ctx = JobContext {
            job_id: 1,
            attempt: 1,
            cancel: CancelToken::new(),
            deadline: deadline.map(|d| Instant::now() + d),
            deadline_ms: deadline.map(|d| d.as_millis() as u64).unwrap_or(0),
            events: log.clone(),
            faults: Arc::new(FaultInjector::new(&faults)),
        };
        (ctx, log)
    }

    #[test]
    fn check_interrupt_observes_cancellation() {
        let (ctx, _log) = ctx(JobFaultPlan::none(), None);
        assert_eq!(ctx.check_interrupt(), Ok(()));
        ctx.cancel.cancel();
        assert_eq!(ctx.check_interrupt(), Err(JobError::Cancelled));
    }

    #[test]
    fn check_interrupt_observes_deadline() {
        let (ctx, _log) = ctx(JobFaultPlan::none(), Some(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(ctx.check_interrupt(), Err(JobError::DeadlineExceeded { budget_ms: 0 }));
    }

    #[test]
    fn apply_step_fault_corrupt_is_retryable_and_claim_once() {
        let plan = JobFaultPlan::none()
            .inject(FaultSite::Step { unit: 3, step: 0, lane: 0 }, FaultKind::Corrupt);
        let (ctx, log) = ctx(plan, None);
        assert!(matches!(ctx.apply_step_fault(3, 0, 0), Err(JobError::Retryable(_))));
        assert_eq!(ctx.apply_step_fault(3, 0, 0), Ok(()), "claim-once");
        let events = log.snapshot();
        assert!(matches!(events.as_slice(), [JobEvent::FaultInjected { .. }]));
    }

    #[test]
    fn job_error_display_is_informative() {
        assert!(JobError::Failed("x".into()).to_string().contains('x'));
        assert!(JobError::DeadlineExceeded { budget_ms: 7 }.to_string().contains('7'));
    }
}
