//! `hoga-jobs` — a typed, supervised job engine.
//!
//! A **job** is a unit of pipeline work — training a model, sweeping a QoR
//! dataset, exploring schedules — described by one trait ([`Job`]) and run
//! under one supervisor ([`Engine`]). The engine owns everything the
//! individual pipelines used to re-grow per subcommand:
//!
//! * a **bounded worker pool** (`std::thread`, named workers, handles joined
//!   and worker panics re-raised on shutdown);
//! * **cooperative cancellation** ([`CancelToken`]) and wall-clock
//!   **deadlines**, both surfaced to the job through
//!   [`JobContext::check_interrupt`];
//! * **bounded retry** with a *deterministic* jittered exponential backoff
//!   ([`backoff_delay`]): the schedule is a pure function of the engine seed
//!   and job id, so two runs of the same plan retry at identical offsets;
//! * **panic isolation**: each attempt runs under `catch_unwind`, a panic
//!   becomes a structured incident and consumes one retry instead of killing
//!   the process;
//! * **load shedding**: the submission queue is bounded and overflow is the
//!   typed error [`Overloaded`], never an unbounded pile-up;
//! * the workspace's one **fault plan** ([`JobFaultPlan`]) and claim-once
//!   [`FaultInjector`]: the engine injects at attempt boundaries, jobs claim
//!   at domain step coordinates, and the trainers, the synthesis guard and
//!   the server read the same `(site, kind)` pairs (see [`fault`]);
//! * a **progress event stream** ([`JobEvent`]) rendered one line per event
//!   for the CLI and CI artifacts.
//!
//! The crate is `std`-only and deterministic everywhere determinism matters:
//! events carry no timestamps, backoff derives from [`splitmix64`]-mixed
//! seeds, and resumable jobs are expected to produce byte-identical artifacts
//! whether or not an attempt was killed mid-run (see `docs/JOB_ENGINE.md`).
//!
//! [`splitmix64`]: retry::backoff_delay

#![forbid(unsafe_code)]

pub mod engine;
pub mod events;
pub mod fault;
pub mod job;
pub mod retry;

pub use engine::{Engine, EngineConfig, JobHandle, Overloaded, SubmitOptions};
pub use events::{EventLog, EventSink, JobEvent, NullSink};
pub use fault::{FaultInjector, FaultKind, FaultSite, JobFaultPlan, PlannedFault, ServeSite};
pub use job::{CancelToken, Job, JobContext, JobError};
pub use retry::{backoff_delay, RetryPolicy};
