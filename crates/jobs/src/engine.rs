//! The supervised worker-pool engine.
//!
//! Submissions land in a **bounded** queue (overflow is the typed
//! [`Overloaded`] error — load shedding, not unbounded pile-up). A fixed
//! pool of named worker threads pops submissions and supervises each one:
//! per-attempt `catch_unwind` panic isolation, engine-level injected faults,
//! deterministic retry backoff, and terminal event emission. Shutdown is
//! graceful — the queue drains, workers are joined, and a worker panic
//! (an engine bug, distinct from a *job* panic, which is caught) is
//! re-raised on the joining thread.

use crate::events::{lock_clean, EventSink, JobEvent, NullSink};
use crate::fault::{FaultInjector, FaultKind, JobFaultPlan};
use crate::job::{CancelToken, Job, JobContext, JobError};
use crate::retry::{backoff_delay, splitmix64, RetryPolicy};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine tuning. `Default` suits the CLI's synchronous use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Maximum *queued* (not yet running) submissions before shedding
    /// (clamped to at least 1).
    pub queue_capacity: usize,
    /// Retry policy applied to every job.
    pub retry: RetryPolicy,
    /// Wall-clock budget per job in milliseconds; 0 means no deadline.
    pub deadline_ms: u64,
    /// Engine seed; mixed with the job id to derive each job's backoff seed.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 16,
            retry: RetryPolicy::default(),
            deadline_ms: 0,
            seed: 0x1057,
        }
    }
}

/// Typed load-shedding error: the bounded queue was full at submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded {
    pub queued: usize,
    pub capacity: usize,
}

impl fmt::Display for Overloaded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "engine overloaded: {}/{} submissions queued", self.queued, self.capacity)
    }
}

impl Error for Overloaded {}

/// Per-submission overrides of the engine-wide [`EngineConfig`] defaults.
///
/// The serving layer needs these: each request carries its own wall-clock
/// budget (from an HTTP header), so one engine must supervise jobs with
/// different deadlines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Per-job wall-clock budget in milliseconds. `None` inherits
    /// [`EngineConfig::deadline_ms`]; `Some(0)` disables the deadline for
    /// this job even if the engine has one.
    pub deadline_ms: Option<u64>,
}

/// One type-erased attempt body: owns the job value (so state mutated by
/// a failed attempt survives into the retry) plus the success side of the
/// result channel.
type AttemptBody = Box<dyn FnMut(&JobContext) -> Result<(), JobError> + Send>;

/// A type-erased queued job; `fail` owns the error side of the result
/// channel.
struct Submission {
    id: u64,
    cancel: CancelToken,
    faults: Arc<FaultInjector>,
    deadline_ms: u64,
    attempt_body: AttemptBody,
    fail: Option<Box<dyn FnOnce(JobError) + Send>>,
}

struct QueueState {
    jobs: VecDeque<Submission>,
    shutdown: bool,
}

struct Shared {
    config: EngineConfig,
    queue: Mutex<QueueState>,
    available: Condvar,
    events: Arc<dyn EventSink>,
    next_id: AtomicU64,
}

/// Handle to one submitted job. Dropping it detaches the job (it still
/// runs to completion); [`JobHandle::wait`] blocks for the outcome.
pub struct JobHandle<T> {
    id: u64,
    cancel: CancelToken,
    rx: Receiver<Result<T, JobError>>,
}

impl<T> JobHandle<T> {
    /// The engine-assigned job id (matches the event stream).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Request cooperative cancellation; the job observes it at its next
    /// `check_interrupt` (or the engine does, during a backoff sleep).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Block until the job reaches a terminal state.
    pub fn wait(self) -> Result<T, JobError> {
        match self.rx.recv() {
            Ok(outcome) => outcome,
            Err(_) => {
                Err(JobError::Failed("engine dropped the job before it delivered a result".into()))
            }
        }
    }
}

/// The supervised worker-pool engine. See the module docs.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Start with no event sink.
    pub fn start(config: EngineConfig) -> std::io::Result<Self> {
        Self::with_sink(config, Arc::new(NullSink))
    }

    /// Start a pool of `config.workers` named threads emitting to `events`.
    pub fn with_sink(config: EngineConfig, events: Arc<dyn EventSink>) -> std::io::Result<Self> {
        let config = EngineConfig {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            config,
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), shutdown: false }),
            available: Condvar::new(),
            events,
            next_id: AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("job-worker-{w}"))
                .spawn(move || worker_loop(&shared))?;
            workers.push(handle);
        }
        Ok(Self { shared, workers })
    }

    /// Submit a job with a fault plan. Sheds (typed [`Overloaded`]) if the
    /// bounded queue is full.
    pub fn submit<J: Job + 'static>(
        &self,
        job: J,
        faults: JobFaultPlan,
    ) -> Result<JobHandle<J::Output>, Overloaded> {
        self.submit_with(job, faults, SubmitOptions::default())
    }

    /// [`Engine::submit`] with per-submission overrides (e.g. a request's
    /// own wall-clock deadline).
    pub fn submit_with<J: Job + 'static>(
        &self,
        job: J,
        faults: JobFaultPlan,
        opts: SubmitOptions,
    ) -> Result<JobHandle<J::Output>, Overloaded> {
        let name = job.name();
        let (tx, rx) = channel();
        let tx_ok = tx.clone();
        let mut job = job;
        let attempt_body = Box::new(move |ctx: &JobContext| -> Result<(), JobError> {
            let output = job.run(ctx)?;
            let _ = tx_ok.send(Ok(output));
            Ok(())
        });
        let fail = Box::new(move |err: JobError| {
            let _ = tx.send(Err(err));
        });

        let mut queue = lock_clean(&self.shared.queue);
        if queue.jobs.len() >= self.shared.config.queue_capacity {
            let shed = Overloaded {
                queued: queue.jobs.len(),
                capacity: self.shared.config.queue_capacity,
            };
            drop(queue);
            self.shared.events.emit(&JobEvent::Shed {
                name,
                queued: shed.queued,
                capacity: shed.capacity,
            });
            return Err(shed);
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        let cancel = CancelToken::new();
        queue.jobs.push_back(Submission {
            id,
            cancel: cancel.clone(),
            faults: Arc::new(FaultInjector::new(&faults)),
            deadline_ms: opts.deadline_ms.unwrap_or(self.shared.config.deadline_ms),
            attempt_body,
            fail: Some(fail),
        });
        drop(queue);
        self.shared.events.emit(&JobEvent::Submitted { job: id, name });
        self.shared.available.notify_one();
        Ok(JobHandle { id, cancel, rx })
    }

    /// Submissions waiting for a worker (running jobs excluded).
    pub fn queued(&self) -> usize {
        lock_clean(&self.shared.queue).jobs.len()
    }

    /// Drain the queue, stop and join all workers. Called implicitly on
    /// drop; explicit calls make shutdown points visible in calling code.
    pub fn shutdown(self) {
        // Drop runs shutdown_inner.
    }

    fn shutdown_inner(&mut self) {
        {
            let mut queue = lock_clean(&self.shared.queue);
            queue.shutdown = true;
        }
        self.shared.available.notify_all();
        let mut worker_panic = None;
        for handle in self.workers.drain(..) {
            if let Err(payload) = handle.join() {
                worker_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = worker_panic {
            // A worker thread panicked outside catch_unwind: an engine bug.
            // Re-raise unless we are already unwinding (double panic aborts).
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let submission = {
            let mut queue = lock_clean(&shared.queue);
            loop {
                if let Some(s) = queue.jobs.pop_front() {
                    break s;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.available.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        supervise(shared, submission);
    }
}

/// Run one submission to a terminal state: attempts under `catch_unwind`,
/// engine-level fault injection, deterministic backoff between retries.
fn supervise(shared: &Shared, mut sub: Submission) {
    let config = &shared.config;
    let job_seed = splitmix64(config.seed ^ sub.id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let deadline_ms = sub.deadline_ms;
    let deadline = (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));
    let max_attempts = config.retry.max_attempts.max(1);

    for attempt in 1..=max_attempts {
        let ctx = JobContext {
            job_id: sub.id,
            attempt,
            cancel: sub.cancel.clone(),
            deadline,
            deadline_ms,
            events: Arc::clone(&shared.events),
            faults: Arc::clone(&sub.faults),
        };
        shared.events.emit(&JobEvent::Started { job: sub.id, attempt });
        let body = &mut sub.attempt_body;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // ctx carries the deadline clock only for cancellation checks; fault events record job id and attempt, never clock values
            apply_attempt_fault(&ctx)?;
            ctx.check_interrupt()?;
            body(&ctx)
        }));

        let incident = match outcome {
            Ok(Ok(())) => {
                shared.events.emit(&JobEvent::Completed { job: sub.id, attempts: attempt });
                return;
            }
            Ok(Err(JobError::Cancelled)) => {
                shared.events.emit(&JobEvent::Cancelled { job: sub.id, attempt });
                deliver(&mut sub, JobError::Cancelled);
                return;
            }
            Ok(Err(JobError::DeadlineExceeded { budget_ms })) => {
                shared.events.emit(&JobEvent::DeadlineExceeded { job: sub.id, attempt, budget_ms });
                deliver(&mut sub, JobError::DeadlineExceeded { budget_ms });
                return;
            }
            Ok(Err(JobError::Failed(reason))) => {
                shared.events.emit(&JobEvent::Failed {
                    job: sub.id,
                    attempts: attempt,
                    reason: reason.clone(),
                });
                deliver(&mut sub, JobError::Failed(reason));
                return;
            }
            Ok(Err(JobError::Retryable(reason))) => reason,
            Err(payload) => format!("panicked: {}", panic_message(&payload)),
        };

        shared.events.emit(&JobEvent::AttemptFailed {
            job: sub.id,
            attempt,
            reason: incident.clone(),
        });
        if attempt == max_attempts {
            let reason = format!("gave up after {attempt} attempt(s): {incident}");
            shared.events.emit(&JobEvent::Failed {
                job: sub.id,
                attempts: attempt,
                reason: reason.clone(),
            });
            deliver(&mut sub, JobError::Failed(reason));
            return;
        }
        let delay = backoff_delay(&config.retry, job_seed, attempt);
        shared.events.emit(&JobEvent::RetryScheduled {
            job: sub.id,
            attempt,
            delay_ms: delay.as_millis() as u64,
        });
        if !sleep_cancellable(&sub.cancel, delay) {
            shared.events.emit(&JobEvent::Cancelled { job: sub.id, attempt });
            deliver(&mut sub, JobError::Cancelled);
            return;
        }
    }
}

/// Apply the engine-level fault planned for this attempt, if any. Runs
/// inside the attempt's `catch_unwind`, so an injected panic is caught and
/// consumes one retry exactly like a real one.
fn apply_attempt_fault(ctx: &JobContext) -> Result<(), JobError> {
    let Some(kind) = ctx.faults.claim_attempt(ctx.attempt) else {
        return Ok(());
    };
    ctx.events.emit(&JobEvent::FaultInjected {
        job: ctx.job_id,
        attempt: ctx.attempt,
        description: format!("{kind:?} at attempt {}", ctx.attempt),
    });
    match kind {
        FaultKind::Stall { millis } => {
            if !sleep_cancellable(&ctx.cancel, Duration::from_millis(millis)) {
                return Err(JobError::Cancelled);
            }
            ctx.check_interrupt()
        }
        FaultKind::Panic => {
            // analyze: allow(panic-free-paths) — deliberate injected fault; caught by this function's caller via catch_unwind
            panic!("injected fault: panic at attempt {}", ctx.attempt)
        }
        FaultKind::Corrupt => {
            Err(JobError::Retryable(format!("injected fault: corrupt at attempt {}", ctx.attempt)))
        }
    }
}

fn deliver(sub: &mut Submission, err: JobError) {
    if let Some(fail) = sub.fail.take() {
        fail(err);
    }
}

/// Sleep in short slices, polling for cancellation. Returns `false` if
/// cancellation cut the sleep short.
fn sleep_cancellable(cancel: &CancelToken, total: Duration) -> bool {
    let deadline = Instant::now() + total;
    loop {
        if cancel.is_cancelled() {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(10)));
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_clamps_to_one_worker_and_one_slot() {
        let engine = Engine::start(EngineConfig {
            workers: 0,
            queue_capacity: 0,
            ..EngineConfig::default()
        })
        .expect("spawn workers");
        assert_eq!(engine.shared.config.workers, 1);
        assert_eq!(engine.shared.config.queue_capacity, 1);
        engine.shutdown();
    }

    #[test]
    fn overloaded_formats_and_is_an_error() {
        let e = Overloaded { queued: 4, capacity: 4 };
        let text = e.to_string();
        assert!(text.contains("4/4"), "got: {text}");
        let _dyn_err: &dyn Error = &e;
    }

    #[test]
    fn panic_message_downcasts_common_payloads() {
        assert_eq!(panic_message(&"boom"), "boom");
        assert_eq!(panic_message(&String::from("boom")), "boom");
        assert_eq!(panic_message(&42_i32), "non-string panic payload");
    }

    #[test]
    fn sleep_cancellable_observes_cancellation() {
        let token = CancelToken::new();
        token.cancel();
        assert!(!sleep_cancellable(&token, Duration::from_millis(50)));
        let fresh = CancelToken::new();
        assert!(sleep_cancellable(&fresh, Duration::from_millis(1)));
    }

    /// Spins until its budget elapses, polling `check_interrupt` — the
    /// cooperative shape every deadline-aware job has.
    struct SpinJob {
        millis: u64,
    }

    impl Job for SpinJob {
        type Output = ();

        fn name(&self) -> String {
            "spin".into()
        }

        fn run(&mut self, ctx: &JobContext) -> Result<(), JobError> {
            let start = Instant::now();
            while start.elapsed() < Duration::from_millis(self.millis) {
                ctx.check_interrupt()?;
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok(())
        }
    }

    #[test]
    fn submit_with_overrides_the_engine_deadline() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            retry: RetryPolicy::no_retry(),
            deadline_ms: 0, // engine-wide: no deadline
            ..EngineConfig::default()
        })
        .expect("spawn workers");
        let handle = engine
            .submit_with(
                SpinJob { millis: 10_000 },
                JobFaultPlan::none(),
                SubmitOptions { deadline_ms: Some(30) },
            )
            .expect("queue has room");
        match handle.wait() {
            Err(JobError::DeadlineExceeded { budget_ms }) => assert_eq!(budget_ms, 30),
            other => panic!("expected the per-submission deadline to fire, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn submit_with_zero_disables_an_engine_deadline() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            retry: RetryPolicy::no_retry(),
            deadline_ms: 10, // engine-wide: far shorter than the job
            ..EngineConfig::default()
        })
        .expect("spawn workers");
        let handle = engine
            .submit_with(
                SpinJob { millis: 60 },
                JobFaultPlan::none(),
                SubmitOptions { deadline_ms: Some(0) },
            )
            .expect("queue has room");
        assert!(handle.wait().is_ok(), "Some(0) must disable the engine deadline");
        engine.shutdown();
    }

    #[test]
    fn submit_inherits_the_engine_deadline() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            retry: RetryPolicy::no_retry(),
            deadline_ms: 30,
            ..EngineConfig::default()
        })
        .expect("spawn workers");
        let handle = engine.submit(SpinJob { millis: 10_000 }, JobFaultPlan::none()).expect("room");
        match handle.wait() {
            Err(JobError::DeadlineExceeded { budget_ms }) => assert_eq!(budget_ms, 30),
            other => panic!("expected the inherited engine deadline, got {other:?}"),
        }
        engine.shutdown();
    }
}
