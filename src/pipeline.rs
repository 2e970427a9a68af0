//! Engine-backed pipeline jobs: the CLI's `train`, `qor-dataset`, and
//! `sched` subcommands expressed as [`hoga_jobs::Job`] implementations.
//!
//! Each job wires an existing pipeline (trainer, resumable QoR sweep,
//! schedule explorer) into the supervised engine so that checkpointing,
//! retries, cancellation, deadlines, and fault injection are
//! engine-managed rather than re-grown per subcommand. The invariant all
//! three uphold: artifacts on disk are **byte-identical** whether a run
//! completes in one attempt, is killed and resumed, or loses attempts to
//! injected panics — the engine only ever replays work from the last
//! durable state (see `docs/JOB_ENGINE.md`).

use hoga_datasets::io::load_checkpoint;
use hoga_datasets::openabcd::{
    build_qor_dataset_resumable, QorBuildError, QorBuildReport, QorDataset, QorDatasetConfig,
    QorSweepOptions,
};
use hoga_eval::fault::TrainError;
use hoga_eval::sched::{explore, ExploreConfig, ExploreReport, ReducePolicy, SyntheticShardSource};
use hoga_eval::trainer::{
    try_train_qor_with_target, QorModel, QorModelKind, QorTarget, TrainConfig, TrainStats,
};
use hoga_jobs::{Job, JobContext, JobError};
use std::path::PathBuf;
use std::sync::Arc;

/// Maps trainer errors onto the engine's retry semantics: checkpoint I/O
/// problems are transient (the retry resumes from the last durable
/// checkpoint), everything else — bad config, mismatched resume state,
/// divergence (deterministic, so a retry would diverge identically) — is
/// permanent.
fn train_err(e: TrainError) -> JobError {
    match e {
        TrainError::Checkpoint(err) => JobError::Retryable(format!("checkpoint I/O: {err}")),
        other => JobError::Failed(other.to_string()),
    }
}

/// Maps sweep errors: filesystem hiccups retry (the resumable builder
/// skips records already on disk), guard/config/duplicate errors are
/// permanent.
fn qor_err(e: QorBuildError) -> JobError {
    match e {
        QorBuildError::Io(err) => JobError::Retryable(format!("dataset I/O: {err}")),
        other => JobError::Failed(other.to_string()),
    }
}

/// Train a QoR model in checkpoint-sized stages under engine supervision.
///
/// With `cfg.checkpoint_to` set, training proceeds `checkpoint_every`
/// epochs at a time; between stages the job polls for cancellation,
/// claims planned step faults (site `unit` = the epoch the next stage
/// starts from), and re-reads the checkpoint — so a retried or restarted
/// job resumes from the last durable epoch and the final checkpoint is
/// byte-identical to an uninterrupted run's. The returned [`TrainStats`]
/// cover every stage this attempt ran. Without a checkpoint path the job
/// is a plain one-shot training run.
pub struct TrainJob {
    /// The (in-memory) dataset to train on.
    pub ds: Arc<QorDataset>,
    /// Model selection.
    pub kind: QorModelKind,
    /// Prediction target.
    pub target: QorTarget,
    /// Trainer configuration; `resume_from` is engine-managed and ignored.
    pub cfg: TrainConfig,
}

impl Job for TrainJob {
    type Output = (QorModel, TrainStats);

    fn name(&self) -> String {
        "train-qor".into()
    }

    fn run(&mut self, ctx: &JobContext) -> Result<Self::Output, JobError> {
        ctx.check_interrupt()?;
        let Some(ckpt) = self.cfg.checkpoint_to.clone() else {
            return try_train_qor_with_target(&self.ds, self.kind, &self.cfg, self.target)
                .map_err(train_err);
        };
        let total = self.cfg.epochs;
        let stage = self.cfg.checkpoint_every.max(1);
        let mut stats = TrainStats::default();
        loop {
            // Resume point: trust only a checkpoint that parses cleanly
            // (the trainer still validates seed/shape/epoch on load; a
            // checkpoint from a different run fails the job, it is never
            // silently overwritten mid-sequence).
            let start = match load_checkpoint(&ckpt) {
                Ok(ck) => (ck.epoch as usize).min(total),
                Err(_) => 0,
            };
            ctx.check_interrupt()?;
            ctx.apply_step_fault(start as u64, 0, 0)?;
            let stage_end = (start + stage).min(total);
            let mut cfg = self.cfg.clone();
            cfg.epochs = stage_end;
            cfg.resume_from = (start > 0).then(|| ckpt.clone());
            let (model, stage_stats) =
                try_train_qor_with_target(&self.ds, self.kind, &cfg, self.target)
                    .map_err(train_err)?;
            stats.absorb(&stage_stats);
            ctx.progress("epoch", stage_end as u64);
            if stage_end >= total {
                return Ok((model, stats));
            }
            ctx.checkpointed(&format!("epoch {stage_end} -> {}", ckpt.display()));
        }
    }
}

/// Run the resumable QoR sweep in bounded chunks under engine supervision.
///
/// Each chunk is one `build_qor_dataset_resumable` invocation writing at
/// most `chunk` new records (0 = the whole sweep in one call). Between
/// chunks the job polls for cancellation and claims planned step faults
/// (site `unit` = 1-based chunk index). Because every record is an atomic
/// CRC-checked file, a retried attempt — or a whole killed process —
/// resumes by skipping what is already on disk, byte-identically.
pub struct QorDatasetJob {
    /// Sweep configuration.
    pub config: QorDatasetConfig,
    /// Output directory (`manifest/` + `quarantine/`).
    pub out_dir: PathBuf,
    /// User-level sweep options; `stop_after` bounds *total* new records
    /// across all chunks.
    pub opts: QorSweepOptions,
    /// New records per supervised chunk; 0 = unchunked.
    pub chunk: usize,
}

impl Job for QorDatasetJob {
    type Output = QorBuildReport;

    fn name(&self) -> String {
        "qor-dataset".into()
    }

    fn run(&mut self, ctx: &JobContext) -> Result<QorBuildReport, JobError> {
        let mut written_total = 0usize;
        let mut first_skipped: Option<usize> = None;
        let mut chunk_index = 0u64;
        let mut last: QorBuildReport;
        loop {
            ctx.check_interrupt()?;
            let user_left = self.opts.stop_after.map(|n| n.saturating_sub(written_total));
            let chunk_stop = match (self.chunk, user_left) {
                (0, left) => left,
                (c, None) => Some(c),
                (c, Some(left)) => Some(c.min(left)),
            };
            let opts = QorSweepOptions { stop_after: chunk_stop, faults: self.opts.faults.clone() };
            let report =
                build_qor_dataset_resumable(&self.config, &self.out_dir, &opts).map_err(qor_err)?;
            first_skipped.get_or_insert(report.skipped);
            written_total += report.written;
            ctx.progress("record", (report.skipped + report.written) as u64);
            let sweep_done = !report.interrupted;
            let budget_done = self.opts.stop_after.is_some_and(|n| written_total >= n);
            last = report;
            if sweep_done || budget_done {
                break;
            }
            ctx.checkpointed(&format!("{written_total} new record(s) on disk"));
            chunk_index += 1;
            ctx.apply_step_fault(chunk_index, 0, 0)?;
        }
        // Present the run as one logical invocation: new records summed
        // across chunks, resume hits counted once (records that predate
        // this job); totals/quarantine/interrupted from the final chunk,
        // which scanned the whole sweep up to its stop point.
        last.written = written_total;
        last.skipped = first_skipped.unwrap_or(0);
        Ok(last)
    }
}

/// Explore trainer interleavings for one reduce policy.
///
/// Pure compute with no resumable state: the job exists so `sched` runs
/// both policies concurrently on the engine's pool with the same
/// cancellation/deadline handling as everything else.
pub struct SchedJob {
    /// Worker shards to model.
    pub workers: usize,
    /// Reduce policy under test.
    pub policy: ReducePolicy,
    /// Explorer bounds.
    pub cfg: ExploreConfig,
}

impl Job for SchedJob {
    type Output = ExploreReport;

    fn name(&self) -> String {
        format!("sched-{:?}", self.policy)
    }

    fn run(&mut self, ctx: &JobContext) -> Result<ExploreReport, JobError> {
        ctx.check_interrupt()?;
        let workers = self.workers;
        let report = explore(|| SyntheticShardSource::adversarial(workers), self.policy, &self.cfg);
        ctx.check_interrupt()?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trainer_errors_map_onto_retry_semantics() {
        assert!(matches!(train_err(TrainError::NoWorkers), JobError::Failed(_)));
        assert!(matches!(train_err(TrainError::InvalidConfig("x".into())), JobError::Failed(_)));
        assert!(matches!(
            train_err(TrainError::Diverged { epoch: 1, retries: 2, last_loss: f32::NAN }),
            JobError::Failed(_)
        ));
    }

    #[test]
    fn sweep_errors_map_onto_retry_semantics() {
        let io = QorBuildError::Io(std::io::Error::other("disk"));
        assert!(matches!(qor_err(io), JobError::Retryable(_)));
        let dup = QorBuildError::DuplicateSample { design: "d".into(), recipe_index: 0 };
        assert!(matches!(qor_err(dup), JobError::Failed(_)));
    }

    #[test]
    fn job_names_identify_the_pipeline() {
        let sched = SchedJob {
            workers: 2,
            policy: ReducePolicy::ShardOrder,
            cfg: ExploreConfig::default(),
        };
        assert!(sched.name().contains("ShardOrder"));
    }
}
