//! Deterministic schedule exploration for the data-parallel trainer.
//!
//! [`parallel_train`](crate::parallel_train) claims its shard all-reduce is
//! *bitwise deterministic*: no matter how the OS interleaves the workers
//! and the supervisor, accumulating shard gradients in shard order yields
//! the same gradient bits, the same optimizer step, and the same
//! checkpoint bytes. A claim about "all interleavings" cannot be tested by
//! running threads and hoping — the scheduler only ever shows a handful of
//! them. This module tests it the way loom-style model checkers do:
//!
//! 1. the shard-reduce/step/checkpoint critical section is modelled as a
//!    small set of atomic ops per actor (worker `k`: `Compute`, `Publish`;
//!    supervisor: `Collect × shards`, `Step`, `Checkpoint`);
//! 2. [`explore`] enumerates *every* bounded interleaving of those ops by
//!    DFS (branch order shuffled by a seeded xorshift so capped runs are
//!    reproducible yet unbiased);
//! 3. each schedule is replayed concretely — real [`Gradients`] from a
//!    real [`Tape`], real locks taken in the declared workspace lock order
//!    (`grad_slots` before `event_log`), a real [`Adam`] step and a real
//!    checkpoint encode — and reduced to an [`Outcome`] fingerprint of
//!    loss bits and CRCs;
//! 4. the determinism claim is then one assertion: the set of distinct
//!    outcomes has size 1.
//!
//! Replay is sequential (one op at a time on the test thread), which is
//! exactly what makes it exhaustive and reproducible; the locks are still
//! taken so the protocol, poisoning posture and lock order are the real
//! ones. [`ReducePolicy::CompletionOrder`] models the tempting-but-wrong
//! protocol (accumulate in publish order) and demonstrably diverges under
//! float reassociation, which is why the trainer collects in shard order.

use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

use hoga_autograd::optim::{Adam, Optimizer};
use hoga_autograd::{Gradients, ParamSet, Tape};
use hoga_core::heads::NodeClassifier;
use hoga_core::model::{Aggregator, HogaModel};
use hoga_datasets::gamora::ReasoningGraph;
use hoga_datasets::io::{crc32, encode_checkpoint, Checkpoint};
use hoga_datasets::splits::{minibatches, shard_ranges};
use hoga_tensor::Matrix;

use crate::parallel_train::ShardTask;
use crate::trainer::{reasoning_class_weights, reasoning_hoga, TrainConfig, TrainStats};

/// How the supervisor folds published shard gradients into the total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReducePolicy {
    /// Accumulate in shard index order — the production protocol. Schedule
    /// invariant: the floating-point sum is fully parenthesised by shard
    /// index, so every interleaving produces identical bits.
    ShardOrder,
    /// Accumulate in publish (completion) order — the bug model. The sum's
    /// association follows the schedule, so adversarial magnitudes produce
    /// different bits under different interleavings.
    CompletionOrder,
}

/// A gradient source the explorer can shard and step.
///
/// Implementations must make [`ShardSource::shard`] a pure function of the
/// shard index and current parameters: replay calls it in whatever order
/// the schedule dictates and the determinism assertion is meaningless if
/// the source itself is schedule-dependent.
pub trait ShardSource {
    /// Number of worker shards.
    fn num_shards(&self) -> usize;
    /// Loss and gradient contribution of shard `k` against current params.
    fn shard(&self, k: usize) -> (f32, Gradients);
    /// Current parameters (checkpointed after the step).
    fn params(&self) -> &ParamSet;
    /// Mutable parameters for the optimizer step.
    fn params_mut(&mut self) -> &mut ParamSet;
}

/// Everything observable about one replayed schedule, as bit-level
/// fingerprints. Two replays are behaviourally identical iff their
/// outcomes are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Outcome {
    /// `f32::to_bits` of the reduced loss.
    pub loss_bits: u32,
    /// CRC32 over the reduced gradient (param ids, dims, value bits).
    pub grad_crc: u32,
    /// CRC32 over the post-step parameters (names, dims, value bits).
    pub param_crc: u32,
    /// CRC32 of the encoded post-step checkpoint.
    pub checkpoint_crc: u32,
}

/// Events appended to the shared log during replay, in lock-protected
/// order. `Published` order is what [`ReducePolicy::CompletionOrder`]
/// reduces by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Worker `shard` deposited its gradient into its slot.
    Published {
        /// Shard index.
        shard: usize,
    },
    /// Supervisor folded `shard` into the running total.
    Collected {
        /// Shard index.
        shard: usize,
    },
    /// Supervisor applied the optimizer step.
    Stepped,
    /// Supervisor encoded the checkpoint.
    Checkpointed,
}

/// Replay failures. Enumeration only emits well-formed schedules, so these
/// indicate a bug in the explorer itself rather than in the trainer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplayError {
    /// A collect step found no published gradient to take.
    MissingShard {
        /// Collect position that failed.
        shard: usize,
    },
    /// The schedule ended before step + checkpoint completed.
    IncompleteSchedule,
}

/// Exploration bounds and seeds.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Stop after this many complete schedules (DFS is exhaustive when the
    /// bound is not hit).
    pub max_schedules: usize,
    /// Seeds the branch-order shuffle (never the replayed computation).
    pub seed: u64,
    /// Optimizer learning rate used by each replay.
    pub lr: f32,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self { max_schedules: 4096, seed: 0x5EED_CAFE, lr: 1e-3 }
    }
}

/// What [`explore`] found.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Distinct complete interleavings replayed.
    pub schedules: usize,
    /// Distinct outcome fingerprints across all replays.
    pub outcomes: BTreeSet<Outcome>,
    /// Replays that failed (always 0 unless the explorer is broken).
    pub replay_errors: usize,
}

/// One atomic op in a schedule: a step of worker `k` or of the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Worker(usize),
    Supervisor,
}

/// Enumerates bounded interleavings of the critical section and replays
/// each one concretely against a fresh source from `make_source`.
///
/// Every enumerated schedule is distinct by construction (they are
/// distinct DFS paths); `cfg.seed` only permutes which schedules are kept
/// when `cfg.max_schedules` truncates the space.
pub fn explore<S, F>(make_source: F, policy: ReducePolicy, cfg: &ExploreConfig) -> ExploreReport
where
    S: ShardSource,
    F: Fn() -> S,
{
    let workers = make_source().num_shards();
    let schedules = enumerate_schedules(workers, policy, cfg.max_schedules, cfg.seed);
    let mut outcomes = BTreeSet::new();
    let mut replay_errors = 0usize;
    for schedule in &schedules {
        let mut source = make_source();
        match replay(&mut source, schedule, policy, cfg) {
            Ok(outcome) => {
                outcomes.insert(outcome);
            }
            Err(_) => replay_errors += 1,
        }
    }
    ExploreReport { schedules: schedules.len(), outcomes, replay_errors }
}

/// Abstract scheduler state: program counters only, no data.
struct State {
    /// Per-worker pc: 0 = before compute, 1 = computed, 2 = published.
    worker_pcs: Vec<u8>,
    /// Supervisor pc: `0..w` = collects, `w` = step, `w + 1` = checkpoint.
    sup_pc: usize,
}

impl State {
    fn new(workers: usize) -> Self {
        Self { worker_pcs: vec![0; workers], sup_pc: 0 }
    }

    fn published(&self) -> usize {
        self.worker_pcs.iter().filter(|&&pc| pc == 2).count()
    }

    fn enabled(&self, policy: ReducePolicy) -> Vec<Action> {
        let w = self.worker_pcs.len();
        let mut acts: Vec<Action> =
            (0..w).filter(|&k| self.worker_pcs[k] < 2).map(Action::Worker).collect();
        let sup_ready = if self.sup_pc < w {
            match policy {
                ReducePolicy::ShardOrder => self.worker_pcs[self.sup_pc] == 2,
                ReducePolicy::CompletionOrder => self.published() > self.sup_pc,
            }
        } else {
            self.sup_pc < w + 2
        };
        if sup_ready {
            acts.push(Action::Supervisor);
        }
        acts
    }

    fn apply(&mut self, a: Action) {
        match a {
            Action::Worker(k) => self.worker_pcs[k] += 1,
            Action::Supervisor => self.sup_pc += 1,
        }
    }

    fn undo(&mut self, a: Action) {
        match a {
            Action::Worker(k) => self.worker_pcs[k] -= 1,
            Action::Supervisor => self.sup_pc -= 1,
        }
    }

    fn complete(&self) -> bool {
        self.worker_pcs.iter().all(|&pc| pc == 2) && self.sup_pc == self.worker_pcs.len() + 2
    }
}

/// DFS over all interleavings, branch order shuffled by `seed`.
fn enumerate_schedules(
    workers: usize,
    policy: ReducePolicy,
    max: usize,
    seed: u64,
) -> Vec<Vec<Action>> {
    let mut out = Vec::new();
    let mut rng = XorShift64::new(seed);
    let mut prefix = Vec::new();
    let mut state = State::new(workers);
    dfs(&mut state, policy, max, &mut rng, &mut prefix, &mut out);
    out
}

fn dfs(
    state: &mut State,
    policy: ReducePolicy,
    max: usize,
    rng: &mut XorShift64,
    prefix: &mut Vec<Action>,
    out: &mut Vec<Vec<Action>>,
) {
    if out.len() >= max {
        return;
    }
    let mut acts = state.enabled(policy);
    if acts.is_empty() {
        if state.complete() {
            out.push(prefix.clone());
        }
        return;
    }
    rng.shuffle(&mut acts);
    for a in acts {
        state.apply(a);
        prefix.push(a);
        dfs(state, policy, max, rng, prefix, out);
        prefix.pop();
        state.undo(a);
    }
}

/// Shared state of the modelled critical section. The field order *is* the
/// declared workspace lock order: `grad_slots` must always be acquired
/// before `event_log` (see `hoga-analyze`'s `lock-discipline` rule).
struct Shared {
    grad_slots: Mutex<Vec<Option<(f32, Gradients)>>>,
    event_log: Mutex<Vec<Event>>,
}

/// Replays one schedule against `source`, taking the real locks in the
/// declared order and producing the outcome fingerprint.
///
/// # Errors
///
/// Returns [`ReplayError`] if the schedule is malformed (never happens for
/// schedules produced by [`explore`]'s enumerator).
fn replay<S: ShardSource>(
    source: &mut S,
    schedule: &[Action],
    policy: ReducePolicy,
    cfg: &ExploreConfig,
) -> Result<Outcome, ReplayError> {
    let w = source.num_shards();
    let shared = Shared {
        grad_slots: Mutex::new((0..w).map(|_| None).collect()),
        event_log: Mutex::new(Vec::new()),
    };
    let mut worker_pcs = vec![0u8; w];
    let mut pending: Vec<Option<(f32, Gradients)>> = (0..w).map(|_| None).collect();
    let mut sup_pc = 0usize;
    let mut loss_sum = 0.0f32;
    let mut total = Gradients::new();
    let mut opt = Adam::new(cfg.lr);
    let mut fingerprints: Option<(u32, u32)> = None; // (loss_bits, grad_crc)
    let mut param_and_ck: Option<(u32, u32)> = None; // (param_crc, checkpoint_crc)

    for &action in schedule {
        match action {
            Action::Worker(k) => {
                if worker_pcs[k] == 0 {
                    // Compute: pure function of (shard, params) — no locks.
                    pending[k] = Some(source.shard(k));
                } else {
                    // Publish: deposit under grad_slots, then log under
                    // event_log — the declared lock order.
                    let result = pending[k].take();
                    let mut slots =
                        shared.grad_slots.lock().unwrap_or_else(PoisonError::into_inner);
                    let mut log = shared.event_log.lock().unwrap_or_else(PoisonError::into_inner);
                    slots[k] = result;
                    log.push(Event::Published { shard: k });
                }
                worker_pcs[k] += 1;
            }
            Action::Supervisor => {
                if sup_pc < w {
                    let mut slots =
                        shared.grad_slots.lock().unwrap_or_else(PoisonError::into_inner);
                    let mut log = shared.event_log.lock().unwrap_or_else(PoisonError::into_inner);
                    let shard = match policy {
                        ReducePolicy::ShardOrder => sup_pc,
                        ReducePolicy::CompletionOrder => nth_published(&log, sup_pc)
                            .ok_or(ReplayError::MissingShard { shard: sup_pc })?,
                    };
                    let Some((l, g)) = slots[shard].take() else {
                        return Err(ReplayError::MissingShard { shard });
                    };
                    loss_sum += l;
                    total.accumulate(&g);
                    log.push(Event::Collected { shard });
                } else if sup_pc == w {
                    opt.step(source.params_mut(), &total);
                    fingerprints = Some((loss_sum.to_bits(), grad_crc(&total)));
                    shared
                        .event_log
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(Event::Stepped);
                } else {
                    // The checkpoint fingerprints the *protocol result*, so
                    // it must not absorb the exploration seed — that seed
                    // only permutes which schedules get explored.
                    let ck = Checkpoint {
                        epoch: 1,
                        seed: 0,
                        lr_scale: 1.0,
                        params: source.params().clone(),
                        opt_state: opt.state_bytes(),
                    };
                    let bytes = encode_checkpoint(&ck);
                    param_and_ck = Some((param_crc(source.params()), crc32(&bytes)));
                    shared
                        .event_log
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(Event::Checkpointed);
                }
                sup_pc += 1;
            }
        }
    }

    match (fingerprints, param_and_ck) {
        (Some((loss_bits, grad_crc)), Some((param_crc, checkpoint_crc))) => {
            Ok(Outcome { loss_bits, grad_crc, param_crc, checkpoint_crc })
        }
        _ => Err(ReplayError::IncompleteSchedule),
    }
}

/// Shard index of the `i`-th `Published` event, if any.
fn nth_published(log: &[Event], i: usize) -> Option<usize> {
    log.iter()
        .filter_map(|e| match e {
            Event::Published { shard } => Some(*shard),
            _ => None,
        })
        .nth(i)
}

/// CRC32 fingerprint of a gradient set: param ids, dims and value bits.
fn grad_crc(grads: &Gradients) -> u32 {
    let mut buf = Vec::new();
    for (id, m) in grads.iter() {
        buf.extend_from_slice(&(id.index() as u64).to_le_bytes());
        push_matrix(&mut buf, m);
    }
    crc32(&buf)
}

/// CRC32 fingerprint of a parameter set: names, dims and value bits.
fn param_crc(params: &ParamSet) -> u32 {
    let mut buf = Vec::new();
    for (_, name, m) in params.iter() {
        buf.extend_from_slice(&(name.len() as u64).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        push_matrix(&mut buf, m);
    }
    crc32(&buf)
}

fn push_matrix(buf: &mut Vec<u8>, m: &Matrix) {
    buf.extend_from_slice(&(m.rows() as u64).to_le_bytes());
    buf.extend_from_slice(&(m.cols() as u64).to_le_bytes());
    for &v in m.as_slice() {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// xorshift64 — tiny, deterministic, dependency-free branch shuffler.
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// A synthetic source whose shard gradients have adversarial magnitudes
/// (`±1e8` against `1.5e-1`), chosen so any reassociation of the shard sum
/// changes the result bits. Gradients flow through a real [`Tape`] so the
/// replayed protocol moves real autograd values.
pub struct SyntheticShardSource {
    params: ParamSet,
    ids: Vec<hoga_autograd::ParamId>,
    coeffs: Vec<f32>,
}

impl SyntheticShardSource {
    /// Cancellation-heavy coefficients: large equal-and-opposite terms
    /// bracketing a small one.
    const COEFFS: [f32; 5] = [1.0e8, -1.0e8, 1.5e-1, 7.5e7, -7.5e7];

    /// Builds a source with `shards` shards over two small parameters.
    pub fn adversarial(shards: usize) -> Self {
        let mut params = ParamSet::default();
        let a = params.add("sched.a", Matrix::from_fn(2, 3, |r, c| 0.5 + (r * 3 + c) as f32));
        let b = params.add("sched.b", Matrix::from_fn(1, 4, |_, c| 1.0 - 0.25 * c as f32));
        let coeffs = (0..shards).map(|k| Self::COEFFS[k % Self::COEFFS.len()]).collect();
        Self { params, ids: vec![a, b], coeffs }
    }
}

impl ShardSource for SyntheticShardSource {
    fn num_shards(&self) -> usize {
        self.coeffs.len()
    }

    fn shard(&self, k: usize) -> (f32, Gradients) {
        // loss_k = c_k * Σ_p Σ w², so ∇loss_k = 2 c_k · w per parameter —
        // shard sums reassociate exactly like the coefficients do.
        let mut tape = Tape::new();
        let mut acc = None;
        for &id in &self.ids {
            let w = tape.param(&self.params, id);
            let sq = tape.hadamard(w, w);
            let s = tape.sum_all(sq);
            acc = Some(match acc {
                Some(prev) => tape.add(prev, s),
                None => s,
            });
        }
        let Some(sum) = acc else {
            return (0.0, Gradients::new());
        };
        let scaled = tape.scale(sum, self.coeffs[k]);
        let loss = tape.value(scaled)[(0, 0)];
        (loss, tape.backward(scaled))
    }

    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }
}

/// The real thing: one minibatch of HOGA reasoning training, sharded
/// exactly like [`crate::parallel_train::train_reasoning_parallel`] shards
/// it, with gradients from the production `ShardTask::grad`.
pub struct HogaShardSource {
    graph: ReasoningGraph,
    model: HogaModel,
    cls: NodeClassifier,
    labels: Vec<usize>,
    weights: Vec<f32>,
    batch: Vec<usize>,
    shards: Vec<(usize, usize)>,
}

impl HogaShardSource {
    /// Builds the first minibatch of a training run on `graph` with the
    /// given config, split across `workers` shards. Construction is
    /// deterministic in `cfg.seed`, so two sources built from equal inputs
    /// replay identically.
    pub fn new(graph: ReasoningGraph, cfg: &TrainConfig, workers: usize) -> Self {
        let labels = graph.label_indices();
        let weights = reasoning_class_weights(&labels);
        let (model, cls) = reasoning_hoga(&graph, cfg, Aggregator::GatedSelfAttention);
        let batch = minibatches(labels.len(), cfg.batch_nodes, cfg.seed, 0)
            .into_iter()
            .next()
            .unwrap_or_default();
        let shards = shard_ranges(batch.len(), workers);
        Self { graph, model, cls, labels, weights, batch, shards }
    }
}

impl ShardSource for HogaShardSource {
    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, k: usize) -> (f32, Gradients) {
        let (lo, hi) = self.shards[k];
        if lo == hi {
            return (0.0, Gradients::new());
        }
        let task = ShardTask {
            graph: &self.graph,
            model: &self.model,
            cls: &self.cls,
            labels: &self.labels,
            weights: &self.weights,
        };
        let nodes = &self.batch[lo..hi];
        task.grad(nodes, task.share(nodes, &self.batch), &mut TrainStats::default())
    }

    fn params(&self) -> &ParamSet {
        &self.model.params
    }

    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.model.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoga_datasets::gamora::{build_reasoning_graph, MultiplierKind, ReasoningConfig};

    fn synth() -> SyntheticShardSource {
        SyntheticShardSource::adversarial(3)
    }

    #[test]
    fn shard_order_reduce_is_schedule_invariant() {
        hoga_tensor::set_threads(1);
        let cfg = ExploreConfig::default();
        let report = explore(synth, ReducePolicy::ShardOrder, &cfg);
        assert_eq!(report.replay_errors, 0);
        assert!(
            report.schedules >= 100,
            "need >=100 distinct interleavings, got {}",
            report.schedules
        );
        assert_eq!(
            report.outcomes.len(),
            1,
            "shard-order reduce must be bitwise schedule-invariant; outcomes: {:?}",
            report.outcomes
        );
    }

    #[test]
    fn completion_order_reduce_diverges_under_reassociation() {
        hoga_tensor::set_threads(1);
        let cfg = ExploreConfig::default();
        let report = explore(synth, ReducePolicy::CompletionOrder, &cfg);
        assert_eq!(report.replay_errors, 0);
        assert!(report.schedules >= 100, "got {}", report.schedules);
        assert!(
            report.outcomes.len() > 1,
            "completion-order reduce with cancellation-heavy shards should \
             reassociate to different bits; outcomes: {:?}",
            report.outcomes
        );
    }

    #[test]
    fn exploration_seed_changes_order_not_verdict() {
        hoga_tensor::set_threads(1);
        let a = explore(
            synth,
            ReducePolicy::ShardOrder,
            &ExploreConfig { seed: 1, max_schedules: 256, ..ExploreConfig::default() },
        );
        let b = explore(
            synth,
            ReducePolicy::ShardOrder,
            &ExploreConfig { seed: 0xDEAD_BEEF, max_schedules: 256, ..ExploreConfig::default() },
        );
        assert_eq!(a.outcomes, b.outcomes, "outcome set must not depend on exploration seed");
        assert_eq!(a.outcomes.len(), 1);
    }

    #[test]
    fn enumerator_emits_distinct_wellformed_schedules() {
        let schedules = enumerate_schedules(2, ReducePolicy::ShardOrder, usize::MAX, 7);
        let distinct: std::collections::BTreeSet<Vec<u8>> = schedules
            .iter()
            .map(|s| {
                s.iter()
                    .map(|a| match a {
                        Action::Worker(k) => *k as u8,
                        Action::Supervisor => u8::MAX,
                    })
                    .collect()
            })
            .collect();
        assert_eq!(distinct.len(), schedules.len(), "schedules must be distinct");
        for s in &schedules {
            assert_eq!(s.len(), 2 * 2 + 2 + 2, "every schedule runs every op exactly once");
        }
    }

    #[test]
    fn hoga_critical_section_is_bitwise_deterministic() {
        hoga_tensor::set_threads(1);
        let cfg = TrainConfig {
            hidden_dim: 16,
            epochs: 1,
            lr: 3e-3,
            batch_nodes: 48,
            batch_samples: 4,
            seed: 3,
            ..TrainConfig::default()
        };
        let graph = || {
            build_reasoning_graph(
                MultiplierKind::Csa,
                4,
                &ReasoningConfig { tech_map: false, lut_k: 4, num_hops: 3, label_k: 3 },
            )
        };
        let make = || HogaShardSource::new(graph(), &cfg, 3);
        let ecfg = ExploreConfig { max_schedules: 120, ..ExploreConfig::default() };
        let report = explore(make, ReducePolicy::ShardOrder, &ecfg);
        assert_eq!(report.replay_errors, 0);
        assert!(report.schedules >= 100, "got {}", report.schedules);
        assert_eq!(
            report.outcomes.len(),
            1,
            "parallel_train's shard-order all-reduce must give identical gradient \
             bits and checkpoint CRCs under every interleaving"
        );
    }
}
