//! The synthetic OpenABC-D QoR-prediction benchmark.
//!
//! Mirrors the paper's setup (§IV-A): for each of the 29 Table-1 designs we
//! generate the (scaled) circuit, run `R` random synthesis recipes through
//! the `hoga-synth` simulator, and label each `(design, recipe)` pair with
//! the optimized gate count. Models are trained on the first 20 designs and
//! evaluated on the remaining 9 — an *unseen-design* generalization task.
//!
//! Labels are stored as gate-count *reduction ratios*
//! (`final / initial ∈ (0, 1]`), which are size-independent; MAPE over gate
//! counts equals relative error over ratios, so the paper's metric is
//! computed exactly (see [`hoga_eval`-side metrics]).

use crate::io::structural_hash;
use crate::manifest::{
    fnv1a64, read_record, write_record, SampleRecord, SampleStatus, MANIFEST_DIR, QUARANTINE_DIR,
};
use hoga_circuit::{adjacency, features, Aig};
use hoga_gen::ipgen::{generate_ip, IpSpec, OPENABCD_DESIGNS};
use hoga_synth::{
    random_recipe, run_recipe_guarded, FaultKind, FaultSite, GuardConfig, JobFaultPlan, Recipe,
    SynthError,
};
use hoga_tensor::{CsrMatrix, Matrix};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::error::Error;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Width of the encoded recipe vector fed to the regression head — one
/// slot per step of the OpenABC-D synthesis budget.
pub const RECIPE_ENCODING_WIDTH: usize = hoga_synth::STEP_BUDGET;

/// Configuration for [`build_qor_dataset`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QorDatasetConfig {
    /// Divide Table-1 node counts by this factor (default 8; 1 = full size).
    pub scale_divisor: usize,
    /// Random recipes per design (paper: 1500; CPU default: 24).
    pub recipes_per_design: usize,
    /// Steps per random recipe (OpenABC-D uses
    /// [`hoga_synth::STEP_BUDGET`]).
    pub recipe_len: usize,
    /// Hops `K` for hop-feature precomputation (paper: 5).
    pub num_hops: usize,
    /// Nodes per design whose mean HOGA's QoR head trains on (0, the
    /// default, = every node; a sample's mean is an unbiased estimate of
    /// the design's). Evaluation and serving pool every node whatever this
    /// is.
    pub nodes_per_graph: usize,
    /// Ignore designs whose *scaled* node count exceeds this (0 = no limit).
    pub max_scaled_nodes: usize,
    /// Master seed.
    pub seed: u64,
    /// Per-pass equivalence-guard and budget configuration for the
    /// synthesis runner. The default (2-round simulation filter, no SAT
    /// arbiter, unlimited budgets) reproduces the historical labels
    /// exactly; keep `guard.budget.timeout_ms == 0` wherever byte-stable
    /// resumption matters (wall-clock deadlines are nondeterministic).
    pub guard: GuardConfig,
}

impl Default for QorDatasetConfig {
    fn default() -> Self {
        Self {
            scale_divisor: 8,
            recipes_per_design: 24,
            recipe_len: hoga_synth::STEP_BUDGET,
            num_hops: 5,
            nodes_per_graph: 0,
            max_scaled_nodes: 0,
            seed: 0xABC0,
            guard: GuardConfig::default(),
        }
    }
}

impl QorDatasetConfig {
    /// A miniature configuration for unit tests and doc examples.
    ///
    /// The node cap is chosen so at least a few *test-split* designs
    /// survive (the smallest held-out design, `aes_secworks`, is ~637
    /// nodes at 1/64 scale).
    pub fn tiny() -> Self {
        Self {
            scale_divisor: 64,
            recipes_per_design: 3,
            recipe_len: 6,
            num_hops: 3,
            nodes_per_graph: 0,
            max_scaled_nodes: 800,
            seed: 0xABC0,
            guard: GuardConfig::default(),
        }
    }
}

/// One prepared design: circuit, graph matrices, hop features, node sample.
pub struct QorDesign {
    /// The Table-1 row this design reproduces.
    pub spec: IpSpec,
    /// The generated (unoptimized) circuit.
    pub aig: Aig,
    /// Symmetric normalized adjacency `Â` (shared with models).
    pub adj: Arc<CsrMatrix>,
    /// Raw node features `X`.
    pub features: Matrix,
    /// Precomputed hop features `X^(0..K)` (Eq. 3).
    pub hops: Vec<Matrix>,
    /// The nodes HOGA's QoR training pools (every node unless
    /// [`QorDatasetConfig::nodes_per_graph`] samples them).
    pub pooled_nodes: Vec<usize>,
}

/// One regression sample.
#[derive(Debug, Clone)]
pub struct QorSample {
    /// Index into [`QorDataset::designs`].
    pub design: usize,
    /// The synthesis recipe that was run.
    pub recipe: Recipe,
    /// Encoded recipe vector (width [`RECIPE_ENCODING_WIDTH`]).
    pub recipe_encoding: Vec<f32>,
    /// Gate count before synthesis.
    pub initial_ands: usize,
    /// Gate count after the recipe (the paper's QoR ground truth).
    pub final_ands: usize,
    /// Circuit depth (AND levels) before synthesis.
    pub initial_depth: u32,
    /// Circuit depth after the recipe — a second QoR metric this
    /// reproduction supports beyond the paper (delay-oriented flows).
    pub final_depth: u32,
}

/// Smallest label the ratio accessors return. Labels feed relative-error
/// (MAPE) losses where an exact 0 divides by zero, so a circuit optimized
/// all the way to constants is clamped to this floor instead.
pub const RATIO_FLOOR: f32 = 1e-6;

/// Largest label the ratio accessors return. Area recipes occasionally
/// deepen a circuit, but a ratio beyond this bound indicates a degenerate
/// denominator rather than a real label.
pub const RATIO_CEIL: f32 = 16.0;

/// `num / den` clamped into `[RATIO_FLOOR, RATIO_CEIL]`, with degenerate
/// denominators (zero gates or zero depth before synthesis) mapping to the
/// neutral label `1.0` — never `NaN`, `inf`, or `0`.
fn clamped_ratio(num: f32, den: f32) -> f32 {
    if den <= 0.0 {
        return 1.0;
    }
    let r = num / den;
    if r.is_finite() {
        r.clamp(RATIO_FLOOR, RATIO_CEIL)
    } else {
        1.0
    }
}

impl QorSample {
    /// The sample a clean `record` labels, as design `design` of the dataset.
    fn from_record(design: usize, record: &SampleRecord) -> Self {
        let recipe: Recipe =
            record.recipe.parse().expect("a record's recipe is a `Recipe`'s display form");
        Self {
            design,
            recipe_encoding: recipe.encode(RECIPE_ENCODING_WIDTH),
            recipe,
            initial_ands: record.initial_ands,
            final_ands: record.final_ands,
            initial_depth: record.initial_depth,
            final_depth: record.final_depth,
        }
    }

    /// The normalized gate-count label `final / initial`, clamped into
    /// `[RATIO_FLOOR, RATIO_CEIL]`; zero-gate designs yield the neutral
    /// `1.0`. Always finite and strictly positive.
    pub fn ratio(&self) -> f32 {
        clamped_ratio(self.final_ands as f32, self.initial_ands as f32)
    }

    /// The normalized depth label `final / initial` (can exceed 1: area
    /// optimization sometimes deepens the circuit), clamped like
    /// [`QorSample::ratio`]. Always finite and strictly positive.
    pub fn depth_ratio(&self) -> f32 {
        clamped_ratio(self.final_depth as f32, self.initial_depth as f32)
    }
}

/// The full benchmark: prepared designs plus train/test samples.
pub struct QorDataset {
    /// All prepared designs, in Table-1 order (possibly filtered by size).
    pub designs: Vec<QorDesign>,
    /// Samples over training designs (upper 20 rows of Table 1).
    pub train: Vec<QorSample>,
    /// Samples over held-out designs (lower 9 rows).
    pub test: Vec<QorSample>,
    /// The configuration used.
    pub config: QorDatasetConfig,
}

/// The Table-1 designs that survive `config`'s size filter, in Table-1
/// order — the order of [`sweep`].
fn filtered_designs(config: &QorDatasetConfig) -> Vec<&'static IpSpec> {
    let mut design_specs: Vec<&IpSpec> = OPENABCD_DESIGNS.iter().collect();
    if config.max_scaled_nodes > 0 {
        design_specs.retain(|s| s.nodes / config.scale_divisor <= config.max_scaled_nodes);
    }
    design_specs
}

/// The `random_recipe` seed for recipe `r` of `design` (a record's `seed`).
fn recipe_seed(config: &QorDatasetConfig, design: &str, r: usize) -> u64 {
    config.seed.wrapping_add(fnv1a64(design.as_bytes())).wrapping_add(r as u64)
}

/// Labels sample `r` of `design`: lints its recipe and runs it on `aig`
/// under the guard with the `faults` aimed at it; any incident quarantines it.
fn label(
    aig: &Aig,
    config: &QorDatasetConfig,
    design: &str,
    r: usize,
    faults: &[QorFault],
) -> Result<SampleRecord, SynthError> {
    let mut plan = JobFaultPlan::none();
    for f in faults.iter().filter(|f| f.design == design && f.recipe_index == r) {
        plan = plan.inject(FaultSite::Step { unit: 0, step: f.step as u64, lane: 0 }, f.kind);
    }
    let seed = recipe_seed(config, design, r);
    let recipe = random_recipe(config.recipe_len, seed);
    let text = recipe.to_string();
    let lints = hoga_synth::recipe::lint(&text).iter().map(ToString::to_string).collect();
    let run = run_recipe_guarded(aig, &recipe, &config.guard, &plan)?;
    Ok(SampleRecord {
        design: design.to_string(),
        recipe_index: r,
        seed,
        recipe: text,
        status: if run.is_clean() { SampleStatus::Ok } else { SampleStatus::Quarantined },
        initial_ands: run.result.initial_ands,
        final_ands: run.result.final_ands,
        initial_depth: hoga_circuit::depth(aig),
        final_depth: hoga_circuit::depth(&run.result.aig),
        result_hash: structural_hash(&run.result.aig),
        lints,
        incidents: run.incidents().map(ToString::to_string).collect(),
    })
}

/// The one design × recipe walk behind both builders. Each sample is
/// labelled once: a valid record under `out_dir` is a resume hit; any other
/// goes through [`label`] (its design's AIG generated on first need, so a
/// fully recorded design costs no synthesis) and is written under `out_dir`.
/// `design_done` gets each design's AIG, if generated, and its clean records.
fn sweep(
    config: &QorDatasetConfig,
    out_dir: Option<&Path>,
    opts: &QorSweepOptions,
    mut design_done: impl FnMut(&IpSpec, Option<Aig>, Vec<SampleRecord>),
) -> Result<QorBuildReport, QorBuildError> {
    let specs = filtered_designs(config);
    let total = specs.len() * config.recipes_per_design;
    let mut report =
        QorBuildReport { total, written: 0, skipped: 0, quarantined: 0, interrupted: false };
    for spec in specs {
        let mut aig: Option<Aig> = None;
        let mut clean = Vec::new();
        for r in 0..config.recipes_per_design {
            let held = out_dir.map(|dir| held_record(dir, spec.name, r)).transpose()?.flatten();
            let fresh = held.is_none();
            let record = match held {
                Some(record) => {
                    report.skipped += 1;
                    record
                }
                None => {
                    let aig = aig.get_or_insert_with(|| generate_ip(spec, config.scale_divisor));
                    let record = label(aig, config, spec.name, r, &opts.faults)?;
                    if let Some(dir) = out_dir {
                        write_record(dir, &record)?;
                    }
                    report.written += 1;
                    record
                }
            };
            if record.status == SampleStatus::Quarantined {
                report.quarantined += 1;
            } else {
                clean.push(record);
            }
            if fresh && opts.stop_after.is_some_and(|n| report.written >= n) {
                report.interrupted = true;
                return Ok(report);
            }
        }
        design_done(spec, aig, clean);
    }
    Ok(report)
}

/// The valid record `dir` holds for sample `r` of `design`, clean or
/// quarantined. A record only counts when its *identity* fields match the
/// slot it sits in: one renamed onto the wrong path is rebuilt, not trusted.
fn held_record(dir: &Path, design: &str, r: usize) -> Result<Option<SampleRecord>, QorBuildError> {
    let file = SampleRecord::file_name(design, r);
    let read = |sub: &str| {
        read_record(&dir.join(sub).join(&file))
            .filter(|rec| rec.design == design && rec.recipe_index == r)
    };
    match (read(MANIFEST_DIR), read(QUARANTINE_DIR)) {
        (Some(_), Some(_)) => {
            Err(QorBuildError::DuplicateSample { design: design.to_string(), recipe_index: r })
        }
        (held, None) | (None, held) => Ok(held),
    }
}

/// Builds the benchmark in memory: the sweep of
/// [`build_qor_dataset_resumable`] with no output directory, no faults and
/// no stop, deterministic in `config.seed`. A sample whose guarded run
/// raised an incident (one that sweep would quarantine) is left out of
/// `train` and `test`. On one thread of a 2-vCPU Intel Xeon VM, `table2`'s
/// CLI defaults (21 designs at 1/32 scale, 8 recipes of 20 steps) build in
/// 9–10 s, and `train`'s (8-step recipes) in about 4 s.
///
/// # Panics
///
/// Panics if `config.guard` is invalid (`sim_rounds == 0`) — use
/// [`build_qor_dataset_resumable`] for the typed-error path.
pub fn build_qor_dataset(config: &QorDatasetConfig) -> QorDataset {
    let mut ds =
        QorDataset { designs: Vec::new(), train: Vec::new(), test: Vec::new(), config: *config };
    sweep(config, None, &QorSweepOptions::default(), |spec, aig, clean| {
        let design = ds.designs.len();
        let split = if spec.train { &mut ds.train } else { &mut ds.test };
        split.extend(clean.iter().map(|record| QorSample::from_record(design, record)));
        let aig = aig.unwrap_or_else(|| generate_ip(spec, config.scale_divisor));
        let adj = Arc::new(adjacency::normalized_symmetric(&aig));
        let feats = features::node_features(&aig);
        let hops = hoga_core::hopfeat::hop_features(&adj, &feats, config.num_hops);
        let seed = config.seed ^ fnv1a64(spec.name.as_bytes());
        let pooled_nodes = sample_nodes(aig.num_nodes(), config.nodes_per_graph, seed);
        ds.designs.push(QorDesign { spec: *spec, aig, adj, features: feats, hops, pooled_nodes });
    })
    .expect("a sweep with no output directory and no faults fails only on an invalid guard");
    ds
}

// ---------------------------------------------------------------------------
// Resumable generation
// ---------------------------------------------------------------------------

/// A deliberate fault targeting one `(design, recipe, step)` of a sweep,
/// used to prove the guard, quarantine, and resume machinery end to end.
/// The design *name* is a coordinate no numeric step site carries, so the
/// sweep turns each into a `Step` site of that one recipe's plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QorFault {
    /// Table-1 design name.
    pub design: String,
    /// 0-based recipe index within the design.
    pub recipe_index: usize,
    /// 0-based step index within the recipe.
    pub step: usize,
    /// What to do to that step: `Corrupt` miscompiles it, `Stall` spends
    /// its budget (see [`run_recipe_guarded`]).
    pub kind: FaultKind,
}

/// Options for [`build_qor_dataset_resumable`] beyond the dataset config.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QorSweepOptions {
    /// Stop (as if killed) after writing this many *new* records; `None`
    /// runs to completion. Skipped (already-valid) records don't count.
    pub stop_after: Option<usize>,
    /// Deliberate faults to inject, for testing the guard pipeline.
    pub faults: Vec<QorFault>,
}

/// What a [`build_qor_dataset_resumable`] invocation did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QorBuildReport {
    /// Total samples in the sweep (designs × recipes).
    pub total: usize,
    /// Records newly written by this invocation (clean + quarantined).
    pub written: usize,
    /// Valid records found on disk and skipped (resume hits).
    pub skipped: usize,
    /// Samples now in quarantine (newly written + skipped).
    pub quarantined: usize,
    /// `true` when `stop_after` ended the sweep early; resume by calling
    /// again with the same config and output directory.
    pub interrupted: bool,
}

impl QorBuildReport {
    /// `true` when every sample of the sweep has a valid record on disk.
    pub fn complete(&self) -> bool {
        !self.interrupted && self.written + self.skipped == self.total
    }
}

/// Error from [`build_qor_dataset_resumable`].
#[derive(Debug)]
pub enum QorBuildError {
    /// Filesystem failure writing records or creating directories.
    Io(std::io::Error),
    /// Invalid guard configuration or fault plan.
    Synth(SynthError),
    /// The same sample has a valid record in *both* the manifest and the
    /// quarantine directory. The two sets must be disjoint — a duplicate
    /// means an operator merged output directories or a tool rewrote
    /// records, and silently preferring either copy could resurrect a
    /// poisoned label. Refused rather than guessed; delete one copy to
    /// proceed.
    DuplicateSample {
        /// Table-1 design name.
        design: String,
        /// Recipe index within the design.
        recipe_index: usize,
    },
}

impl fmt::Display for QorBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QorBuildError::Io(e) => write!(f, "dataset generation I/O error: {e}"),
            QorBuildError::Synth(e) => write!(f, "dataset generation: {e}"),
            QorBuildError::DuplicateSample { design, recipe_index } => write!(
                f,
                "sample {design} recipe {recipe_index} has valid records in both manifest/ and \
                 quarantine/; delete one copy and rerun"
            ),
        }
    }
}

impl Error for QorBuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            QorBuildError::Io(e) => Some(e),
            QorBuildError::Synth(e) => Some(e),
            QorBuildError::DuplicateSample { .. } => None,
        }
    }
}

impl From<std::io::Error> for QorBuildError {
    fn from(e: std::io::Error) -> Self {
        QorBuildError::Io(e)
    }
}

impl From<SynthError> for QorBuildError {
    fn from(e: SynthError) -> Self {
        QorBuildError::Synth(e)
    }
}

/// Runs the QoR label sweep with per-sample on-disk records, resumable
/// after a kill at any point.
///
/// For every `(design, recipe)` pair (the sweep [`build_qor_dataset`]
/// runs in memory) a CRC-checked [`SampleRecord`] is written
/// atomically under `out_dir/manifest/`; samples whose guarded run
/// reports an incident (refuted or over-budget pass) go to
/// `out_dir/quarantine/` instead, keeping poisoned labels out of the
/// clean set while preserving the evidence. On resume, samples with a
/// valid record in either directory are skipped; corrupt or truncated
/// records are regenerated. Records contain no timestamps, so an
/// interrupted-then-resumed sweep is byte-identical to an uninterrupted
/// one.
///
/// # Errors
///
/// [`QorBuildError::Synth`] if the guard config is invalid or a fault
/// targets a step past the recipe end; [`QorBuildError::Io`] on
/// filesystem failures.
pub fn build_qor_dataset_resumable(
    config: &QorDatasetConfig,
    out_dir: &Path,
    opts: &QorSweepOptions,
) -> Result<QorBuildReport, QorBuildError> {
    config.guard.validate()?;
    std::fs::create_dir_all(out_dir.join(MANIFEST_DIR))?;
    std::fs::create_dir_all(out_dir.join(QUARANTINE_DIR))?;
    sweep(config, Some(out_dir), opts, |_, _, _| {})
}

/// Deterministically samples `count` distinct node indices (all nodes if
/// `count == 0` or `count >= n`).
fn sample_nodes(n: usize, count: usize, seed: u64) -> Vec<usize> {
    if count == 0 || count >= n {
        return (0..n).collect();
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    // Partial Fisher-Yates.
    for i in 0..count {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(count);
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_dataset_builds_with_split() {
        let ds = build_qor_dataset(&QorDatasetConfig::tiny());
        assert!(!ds.designs.is_empty());
        assert!(!ds.train.is_empty());
        // Tiny config keeps only small designs; at least some train samples.
        for s in ds.train.iter().chain(&ds.test) {
            assert!(s.final_ands <= s.initial_ands, "synthesis grew the circuit");
            assert!(s.ratio() > 0.0 && s.ratio() <= 1.0);
            assert_eq!(s.recipe_encoding.len(), RECIPE_ENCODING_WIDTH);
        }
    }

    #[test]
    fn labels_vary_across_recipes() {
        let mut cfg = QorDatasetConfig::tiny();
        cfg.recipes_per_design = 6;
        let ds = build_qor_dataset(&cfg);
        // Across all designs and recipes there must be label diversity,
        // otherwise QoR prediction is vacuous.
        let mut ratios: Vec<f32> = ds.train.iter().map(QorSample::ratio).collect();
        ratios.dedup();
        assert!(ratios.len() > 1, "all ratios identical");
    }

    #[test]
    fn deterministic_rebuild() {
        let cfg = QorDatasetConfig::tiny();
        let a = build_qor_dataset(&cfg);
        let b = build_qor_dataset(&cfg);
        assert_eq!(a.train.len(), b.train.len());
        for (x, y) in a.train.iter().zip(&b.train) {
            assert_eq!(x.final_ands, y.final_ands);
            assert_eq!(x.recipe, y.recipe);
        }
    }

    #[test]
    fn pooled_nodes_are_valid_and_sorted() {
        let ds = build_qor_dataset(&QorDatasetConfig::tiny());
        for d in &ds.designs {
            assert!(!d.pooled_nodes.is_empty());
            assert!(d.pooled_nodes.windows(2).all(|w| w[0] < w[1]));
            assert!(*d.pooled_nodes.last().expect("non-empty") < d.aig.num_nodes());
        }
    }

    #[test]
    fn hop_features_have_expected_count() {
        let cfg = QorDatasetConfig::tiny();
        let ds = build_qor_dataset(&cfg);
        for d in &ds.designs {
            assert_eq!(d.hops.len(), cfg.num_hops + 1);
        }
    }

    fn sample_with(
        initial_ands: usize,
        final_ands: usize,
        i_depth: u32,
        f_depth: u32,
    ) -> QorSample {
        QorSample {
            design: 0,
            recipe: Recipe::default(),
            recipe_encoding: vec![0.0; RECIPE_ENCODING_WIDTH],
            initial_ands,
            final_ands,
            initial_depth: i_depth,
            final_depth: f_depth,
        }
    }

    /// Every record a fresh resumable sweep under `cfg` writes.
    fn swept_records(cfg: &QorDatasetConfig, tag: &str) -> Vec<SampleRecord> {
        let dir = std::env::temp_dir().join(format!("hoga-openabcd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        build_qor_dataset_resumable(cfg, &dir, &QorSweepOptions::default()).expect("sweep");
        let records = [MANIFEST_DIR, QUARANTINE_DIR]
            .iter()
            .flat_map(|sub| std::fs::read_dir(dir.join(sub)).expect("record directory"))
            .map(|entry| read_record(&entry.expect("dir entry").path()).expect("valid record"))
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        records
    }

    /// Regression: degenerate circuits (zero gates or zero depth before
    /// synthesis, or optimized down to constants) must never produce a
    /// zero, infinite, or NaN label — MAPE-style losses divide by it.
    #[test]
    fn ratio_clamps_degenerate_samples() {
        // Zero-gate / zero-depth design: neutral label, not NaN.
        let empty = sample_with(0, 0, 0, 0);
        assert_eq!(empty.ratio(), 1.0);
        assert_eq!(empty.depth_ratio(), 1.0);
        // Optimized to constants: floor, not zero.
        let collapsed = sample_with(100, 0, 9, 0);
        assert_eq!(collapsed.ratio(), RATIO_FLOOR);
        assert_eq!(collapsed.depth_ratio(), RATIO_FLOOR);
        // Absurd growth clamps to the ceiling.
        let blown_up = sample_with(1, 1_000_000, 1, 4_000_000);
        assert_eq!(blown_up.ratio(), RATIO_CEIL);
        assert_eq!(blown_up.depth_ratio(), RATIO_CEIL);
        // Ordinary samples are untouched by the clamp.
        let normal = sample_with(200, 150, 10, 8);
        assert!((normal.ratio() - 0.75).abs() < 1e-6);
        assert!((normal.depth_ratio() - 0.8).abs() < 1e-6);
        for s in [&empty, &collapsed, &blown_up, &normal] {
            assert!(s.ratio().is_finite() && s.ratio() > 0.0);
            assert!(s.depth_ratio().is_finite() && s.depth_ratio() > 0.0);
        }
    }

    #[test]
    fn generated_recipes_lint_without_errors_within_budget() {
        // tiny() keeps recipes within the step budget, so the only
        // findings random recipes can carry are redundant-balance
        // warnings — never parse errors or budget violations.
        for record in swept_records(&QorDatasetConfig::tiny(), "lint") {
            for l in &record.lints {
                assert!(l.contains("redundant consecutive"), "unexpected finding: {l}");
            }
        }
    }

    #[test]
    fn over_budget_recipes_surface_lint_findings() {
        let mut cfg = QorDatasetConfig::tiny();
        cfg.recipes_per_design = 1;
        cfg.recipe_len = hoga_synth::STEP_BUDGET + 1;
        // Restrict to the smallest designs to keep 21 passes cheap.
        cfg.max_scaled_nodes = 400;
        let records = swept_records(&cfg, "over-budget");
        assert!(!records.is_empty());
        for record in records {
            assert!(
                record.lints.iter().any(|l| l.contains("exceeding")),
                "step-budget finding missing: {:?}",
                record.lints
            );
        }
    }
}
