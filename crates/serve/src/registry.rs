//! CRC-guarded model registry with canary-gated hot reload.
//!
//! The registry owns the serving model. Its contract:
//!
//! * **Load** goes through `hoga_datasets::io::load_checkpoint` — the
//!   CRC-32-verified decode path. A corrupt artifact is refused with a
//!   typed [`ReloadError`], quarantined on disk (renamed to
//!   `<path>.quarantined` so a crash-looping supervisor cannot reload it
//!   forever), and **never** panics.
//! * **Validate** rebuilds the training-time parameter skeleton (HOGA
//!   model + QoR regressor head, exactly as `hoga_eval`'s QoR trainer
//!   registers them) and checks every loaded parameter against it by name
//!   and shape before the checkpoint is accepted.
//! * **Canary** runs a forward pass over a pinned reference circuit before
//!   any swap: exact and fast paths must agree within
//!   [`CANARY_TOLERANCE`], every output must be finite, and the regression
//!   head must produce a finite score. A checkpoint whose bytes are intact
//!   (CRC passes) but whose weights are poison (NaN/Inf) is refused here.
//! * **Swap** is the only step that touches the shared state, and it is a
//!   single `Arc` store under a short-lived lock. Requests in flight keep
//!   the old bundle (their `Arc` clone); new requests see the new one.
//!   The old model keeps serving throughout a failed or stalled reload.
//!
//! Fault sites: `CorruptCheckpoint` flips a byte after the artifact is
//! read but before CRC verification (proving the refuse+quarantine path);
//! `StallReload` sleeps after the canary but before the swap (proving
//! requests never block on a reload).

use hoga_circuit::Aig;
use hoga_circuit::{adjacency, features};
use hoga_core::heads::GraphRegressor;
use hoga_core::hopfeat::{hop_features, hop_stack};
use hoga_core::infer::{Int8Plan, Precision};
use hoga_core::model::{HogaConfig, HogaModel};

use hoga_datasets::openabcd::RECIPE_ENCODING_WIDTH;
use hoga_jobs::{FaultInjector, FaultKind, ServeSite};
use hoga_synth::Recipe;
use hoga_tensor::Matrix;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Documented canary tolerance: max absolute element difference between
/// the exact and fast forward passes on the pinned reference circuit.
/// The fast kernels carry an ULP-level bound (`docs/PERFORMANCE.md`);
/// 1e-3 on the canary's O(1)-magnitude activations is far above numeric
/// noise and far below any real corruption.
// analyze: allow(dead-public-api) — published reload contract (docs/SERVING.md); asserted in-crate
pub const CANARY_TOLERANCE: f32 = 1e-3;

/// Typed reload failure. Every variant leaves the previous model serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadError {
    /// The artifact could not be read.
    Io {
        /// Checkpoint path as given.
        path: String,
        /// Underlying I/O error text.
        detail: String,
    },
    /// CRC or structural decode failure; the artifact was quarantined.
    Corrupt {
        /// Checkpoint path as given.
        path: String,
        /// Decoder's reason.
        detail: String,
        /// Where the artifact was moved, if the quarantine rename worked.
        quarantined_to: Option<String>,
    },
    /// The decoded parameters do not match the serving skeleton.
    ParamMismatch {
        /// First name/shape disagreement found.
        detail: String,
    },
    /// The canary forward pass failed or drifted beyond
    /// [`CANARY_TOLERANCE`].
    CanaryFailed {
        /// What the canary observed.
        detail: String,
    },
    /// Another reload is already in flight.
    Busy,
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, detail } => write!(f, "cannot read checkpoint {path}: {detail}"),
            Self::Corrupt { path, detail, quarantined_to } => {
                write!(f, "checkpoint {path} refused: {detail}")?;
                match quarantined_to {
                    Some(to) => write!(f, " (quarantined to {to})"),
                    None => write!(f, " (quarantine rename failed; artifact left in place)"),
                }
            }
            Self::ParamMismatch { detail } => {
                write!(f, "checkpoint does not fit the serving skeleton: {detail}")
            }
            Self::CanaryFailed { detail } => write!(f, "canary forward pass failed: {detail}"),
            Self::Busy => write!(f, "another reload is in flight"),
        }
    }
}

impl std::error::Error for ReloadError {}

/// One immutable, validated, canary-passed serving model. Handed out as an
/// `Arc`; requests hold their clone for their whole lifetime, so a
/// mid-request swap never changes the model under a forward pass.
pub struct ModelBundle {
    pub(crate) model: HogaModel,
    pub(crate) head: GraphRegressor,
    pub(crate) plan: Int8Plan,
    epoch: u64,
}

impl ModelBundle {
    /// Training epoch recorded in the checkpoint this bundle came from.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// The registry. See the module docs for the load/validate/canary/swap
/// contract.
pub struct ModelRegistry {
    current: Mutex<Arc<ModelBundle>>,
    num_hops: usize,
    reloading: AtomicBool,
    reloads: AtomicU64,
    reload_failures: AtomicU64,
}

impl ModelRegistry {
    /// Loads the initial model. Startup fails (typed) on a corrupt or
    /// canary-failing checkpoint — a server must never start serving from
    /// an artifact it would refuse at reload time.
    pub fn open(
        checkpoint: &Path,
        num_hops: usize,
        injector: &FaultInjector,
    ) -> Result<Self, ReloadError> {
        let bundle = load_bundle(checkpoint, num_hops, injector)?;
        Ok(Self {
            current: Mutex::new(Arc::new(bundle)),
            num_hops,
            reloading: AtomicBool::new(false),
            reloads: AtomicU64::new(0),
            reload_failures: AtomicU64::new(0),
        })
    }

    /// The bundle new requests should use (cheap `Arc` clone; the lock is
    /// held only for the clone).
    pub fn current(&self) -> Arc<ModelBundle> {
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Hop count the registry serves with (fixed at startup; must match
    /// the hop count the checkpoint was trained with).
    pub fn num_hops(&self) -> usize {
        self.num_hops
    }

    /// `(successful reloads, failed reloads)` since startup.
    // analyze: allow(dead-public-api) — registry surface behind GET /stats; exercised in-crate
    pub fn reload_counts(&self) -> (u64, u64) {
        (self.reloads.load(Ordering::Relaxed), self.reload_failures.load(Ordering::Relaxed))
    }

    /// Hot reload: load + validate + canary entirely off-lock, then swap.
    /// On any failure the previous model keeps serving untouched.
    ///
    /// # Errors
    ///
    /// Any [`ReloadError`]; [`ReloadError::Busy`] if a reload is already
    /// in flight.
    // analyze: allow(dead-public-api) — registry surface behind POST /admin/reload; exercised in-crate
    pub fn reload(&self, checkpoint: &Path, injector: &FaultInjector) -> Result<u64, ReloadError> {
        if self.reloading.swap(true, Ordering::SeqCst) {
            return Err(ReloadError::Busy);
        }
        let outcome = self.reload_inner(checkpoint, injector);
        self.reloading.store(false, Ordering::SeqCst);
        outcome
    }

    fn reload_inner(
        &self,
        checkpoint: &Path,
        injector: &FaultInjector,
    ) -> Result<u64, ReloadError> {
        let bundle = match load_bundle(checkpoint, self.num_hops, injector) {
            Ok(b) => b,
            Err(e) => {
                self.reload_failures.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        // StallReload fires *after* the canary and *before* the swap: the
        // stall holds no lock, so requests keep serving the old model for
        // its whole duration.
        if let Some(FaultKind::Stall { millis }) = injector.claim_serve(ServeSite::StallReload) {
            let mut left = millis;
            while left > 0 {
                let slice = left.min(10);
                std::thread::sleep(Duration::from_millis(slice));
                left -= slice;
            }
        }
        let epoch = bundle.epoch;
        *self.current.lock().unwrap_or_else(PoisonError::into_inner) = Arc::new(bundle);
        self.reloads.fetch_add(1, Ordering::Relaxed);
        Ok(epoch)
    }
}

/// Full load path: read → (fault) → CRC decode → skeleton validation →
/// int8 plan → canary. Holds no locks; touches no shared state.
fn load_bundle(
    checkpoint: &Path,
    num_hops: usize,
    injector: &FaultInjector,
) -> Result<ModelBundle, ReloadError> {
    let path_text = checkpoint.display().to_string();
    let mut bytes = std::fs::read(checkpoint)
        .map_err(|e| ReloadError::Io { path: path_text.clone(), detail: e.to_string() })?;
    if injector.claim_serve(ServeSite::CorruptCheckpoint).is_some() {
        // Flip one payload byte: the CRC check below must catch it exactly
        // like real disk/network corruption.
        if let Some(b) = bytes.get_mut(16) {
            *b ^= 0xFF;
        }
    }
    let ck = match hoga_datasets::io::decode_checkpoint(&bytes) {
        Ok(ck) => ck,
        Err(e) => {
            let quarantined_to = quarantine(checkpoint);
            return Err(ReloadError::Corrupt {
                path: path_text,
                detail: e.to_string(),
                quarantined_to,
            });
        }
    };

    // Rebuild the training-time skeleton. The QoR trainer registers the
    // HOGA trunk first, then the regressor head over
    // `hidden + RECIPE_ENCODING_WIDTH` pooled features; seeds are
    // irrelevant because every value is overwritten by the checkpoint.
    let (input_dim, hidden) = dims_of(&ck.params)?;
    let hcfg = HogaConfig::new(input_dim, hidden, num_hops);
    let mut model = HogaModel::new(&hcfg, 0);
    let head = GraphRegressor::new(&mut model.params, hidden + RECIPE_ENCODING_WIDTH, hidden, 0);
    check_params(&model, &ck.params)?;
    model.params = ck.params;
    let plan = model.int8_plan();
    let bundle = ModelBundle { model, head, plan, epoch: ck.epoch };
    canary(&bundle, num_hops)?;
    Ok(bundle)
}

/// Best-effort quarantine: rename the refused artifact next to itself.
fn quarantine(checkpoint: &Path) -> Option<String> {
    let mut target = checkpoint.as_os_str().to_os_string();
    target.push(".quarantined");
    let target = PathBuf::from(target);
    match std::fs::rename(checkpoint, &target) {
        Ok(()) => Some(target.display().to_string()),
        Err(_) => None,
    }
}

/// Input/hidden dimensions from the checkpoint's `input.w` matrix.
fn dims_of(params: &hoga_autograd::ParamSet) -> Result<(usize, usize), ReloadError> {
    for (_, name, value) in params.iter() {
        if name == "input.w" {
            return Ok((value.rows(), value.cols()));
        }
    }
    Err(ReloadError::ParamMismatch { detail: "checkpoint has no input.w parameter".into() })
}

/// Name+shape check of every loaded parameter against the skeleton, in
/// registration order.
fn check_params(skeleton: &HogaModel, loaded: &hoga_autograd::ParamSet) -> Result<(), ReloadError> {
    if skeleton.params.len() != loaded.len() {
        return Err(ReloadError::ParamMismatch {
            detail: format!(
                "parameter count mismatch: checkpoint has {}, serving skeleton needs {}",
                loaded.len(),
                skeleton.params.len()
            ),
        });
    }
    for ((_, want_name, want_value), (_, got_name, got_value)) in
        skeleton.params.iter().zip(loaded.iter())
    {
        if want_name != got_name {
            return Err(ReloadError::ParamMismatch {
                detail: format!("parameter order mismatch: expected {want_name}, got {got_name}"),
            });
        }
        if want_value.shape() != got_value.shape() {
            return Err(ReloadError::ParamMismatch {
                detail: format!(
                    "parameter {want_name} has shape {:?}, serving skeleton needs {:?}",
                    got_value.shape(),
                    want_value.shape()
                ),
            });
        }
    }
    Ok(())
}

/// The pinned reference circuit: tiny, fixed, exercises XOR/MAJ/AND
/// structure and complemented edges. Changing it invalidates nothing but
/// this file — the canary compares the model against itself (exact vs
/// fast), not against stored outputs.
fn canary_aig() -> Aig {
    let mut g = Aig::new(4);
    let (a, b, c, d) = (g.pi_lit(0), g.pi_lit(1), g.pi_lit(2), g.pi_lit(3));
    let x = g.xor(a, b);
    let m = g.maj(b, c, d);
    let t = g.and(x, m);
    let o = g.or(t, !a);
    g.add_po(o);
    g.add_po(!x);
    g
}

/// Canary forward pass gating every load and reload; see the module docs.
fn canary(bundle: &ModelBundle, num_hops: usize) -> Result<(), ReloadError> {
    let fail = |detail: String| ReloadError::CanaryFailed { detail };
    // Poisoned weights are refused before any kernel sees them: the CRC
    // only proves the bytes are the ones written, not that the values are
    // usable, and the attention kernels reject NaN logits loudly rather
    // than computing with them.
    for (_, name, value) in bundle.model.params.iter() {
        if !value.is_finite() {
            return Err(fail(format!("parameter {name} is not finite (poisoned weights)")));
        }
    }
    let aig = canary_aig();
    let adj = adjacency::normalized_symmetric(&aig);
    let feats = features::node_features(&aig);
    let hops = hop_features(&adj, &feats, num_hops);
    let nodes: Vec<usize> = (0..aig.num_nodes()).collect();
    let stack = hop_stack(&hops, &nodes);
    let exact = bundle
        .model
        .try_infer(&stack, nodes.len(), Precision::Exact)
        .map_err(|e| fail(format!("exact pass: {e}")))?;
    let fast = bundle
        .model
        .try_infer(&stack, nodes.len(), Precision::Fast)
        .map_err(|e| fail(format!("fast pass: {e}")))?;
    if !exact.representations.is_finite() || !fast.representations.is_finite() {
        return Err(fail("non-finite representations (poisoned weights?)".into()));
    }
    let drift = exact.representations.max_abs_diff(&fast.representations);
    // NaN drift must fail the canary too, hence the explicit is_nan arm.
    if drift.is_nan() || drift > CANARY_TOLERANCE {
        return Err(fail(format!("exact/fast drift {drift} exceeds tolerance {CANARY_TOLERANCE}")));
    }
    // Head: the serving path's score with the pinned resyn2 recipe (the
    // canary circuit, like every AIG, has at least its constant node).
    let encoded = Recipe::resyn2().encode(RECIPE_ENCODING_WIDTH);
    let extra = Matrix::from_vec(1, encoded.len(), encoded);
    let score = bundle
        .head
        .score(&bundle.model.params, &exact.representations, &extra)
        .map_err(|e| fail(format!("head: {e}")))?;
    let value = score.as_slice().first().copied().unwrap_or(f32::NAN);
    if !value.is_finite() {
        return Err(fail(format!("non-finite head score {value}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoga_datasets::io::{save_checkpoint, Checkpoint};
    use hoga_jobs::{FaultSite, JobFaultPlan};

    fn scratch(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hoga-serve-registry-{}-{name}", std::process::id()));
        p
    }

    fn write_checkpoint(path: &Path, seed: u64, epoch: u64) {
        let hcfg = HogaConfig::new(7, 8, 3);
        let mut model = HogaModel::new(&hcfg, seed);
        let _head =
            GraphRegressor::new(&mut model.params, 8 + RECIPE_ENCODING_WIDTH, 8, seed ^ 0xD);
        let ck = Checkpoint {
            epoch,
            seed,
            lr_scale: 1.0,
            params: model.params.clone(),
            opt_state: Vec::new(),
        };
        save_checkpoint(path, &ck).expect("write checkpoint");
    }

    #[test]
    fn open_loads_and_reload_swaps_epochs() {
        let path = scratch("swap.bin");
        write_checkpoint(&path, 11, 1);
        let none = FaultInjector::new(&JobFaultPlan::none());
        let reg = ModelRegistry::open(&path, 3, &none).expect("clean open");
        assert_eq!(reg.current().epoch(), 1);
        write_checkpoint(&path, 12, 2);
        assert_eq!(reg.reload(&path, &none), Ok(2));
        assert_eq!(reg.current().epoch(), 2);
        assert_eq!(reg.reload_counts(), (1, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checkpoint_is_refused_quarantined_and_old_model_survives() {
        let path = scratch("corrupt.bin");
        write_checkpoint(&path, 21, 1);
        let none = FaultInjector::new(&JobFaultPlan::none());
        let reg = ModelRegistry::open(&path, 3, &none).expect("clean open");
        // Second copy, reloaded under an injected corruption.
        let copy = scratch("corrupt-copy.bin");
        std::fs::copy(&path, &copy).expect("copy");
        let inj = FaultInjector::new(
            &JobFaultPlan::none()
                .inject(FaultSite::Serve(ServeSite::CorruptCheckpoint), FaultKind::Corrupt),
        );
        let err = reg.reload(&copy, &inj).expect_err("corruption must be refused");
        match &err {
            ReloadError::Corrupt { quarantined_to, .. } => {
                let to = quarantined_to.as_deref().expect("quarantine rename");
                assert!(std::path::Path::new(to).exists(), "quarantined file missing");
                let _ = std::fs::remove_file(to);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Old model untouched; counters reflect the failure.
        assert_eq!(reg.current().epoch(), 1);
        assert_eq!(reg.reload_counts(), (0, 1));
        // The claim-once injector is exhausted: a clean rewrite reloads.
        write_checkpoint(&copy, 22, 7);
        assert_eq!(reg.reload(&copy, &inj), Ok(7));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&copy);
    }

    #[test]
    fn poisoned_weights_fail_the_canary_not_the_crc() {
        let path = scratch("poison.bin");
        let hcfg = HogaConfig::new(7, 8, 3);
        let mut model = HogaModel::new(&hcfg, 31);
        let _head = GraphRegressor::new(&mut model.params, 8 + RECIPE_ENCODING_WIDTH, 8, 31 ^ 0xD);
        // NaN into input.w: CRC stays valid, the canary must refuse it.
        let ids: Vec<_> = model.params.iter().map(|(id, _, _)| id).collect();
        if let Some(first) = ids.first() {
            model.params.value_mut(*first).as_mut_slice()[0] = f32::NAN;
        }
        let ck = Checkpoint {
            epoch: 1,
            seed: 31,
            lr_scale: 1.0,
            params: model.params.clone(),
            opt_state: Vec::new(),
        };
        save_checkpoint(&path, &ck).expect("write checkpoint");
        let none = FaultInjector::new(&JobFaultPlan::none());
        match ModelRegistry::open(&path, 3, &none) {
            Err(ReloadError::CanaryFailed { detail }) => {
                assert!(detail.contains("finite") || detail.contains("drift"), "detail: {detail}")
            }
            other => panic!("expected CanaryFailed, got {:?}", other.err()),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_skeleton_is_a_typed_param_error() {
        let path = scratch("mismatch.bin");
        // A checkpoint with only a head (no trunk) — wrong parameter set.
        let mut params = hoga_autograd::ParamSet::new();
        let _head = GraphRegressor::new(&mut params, 28, 8, 0);
        let ck = Checkpoint { epoch: 1, seed: 0, lr_scale: 1.0, params, opt_state: Vec::new() };
        save_checkpoint(&path, &ck).expect("write checkpoint");
        let none = FaultInjector::new(&JobFaultPlan::none());
        match ModelRegistry::open(&path, 3, &none) {
            Err(ReloadError::ParamMismatch { .. }) => {}
            other => panic!("expected ParamMismatch, got {:?}", other.err()),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stall_reload_keeps_old_model_serving_until_swap() {
        let path = scratch("stall.bin");
        write_checkpoint(&path, 41, 1);
        let none = FaultInjector::new(&JobFaultPlan::none());
        let reg = Arc::new(ModelRegistry::open(&path, 3, &none).expect("clean open"));
        write_checkpoint(&path, 42, 2);
        let inj = Arc::new(FaultInjector::new(
            &JobFaultPlan::none()
                .inject(FaultSite::Serve(ServeSite::StallReload), FaultKind::Stall { millis: 300 }),
        ));
        let reg2 = Arc::clone(&reg);
        let inj2 = Arc::clone(&inj);
        let path2 = path.clone();
        let reloader = std::thread::spawn(move || reg2.reload(&path2, &inj2));
        // While the reload stalls, the old model must keep serving and
        // current() must not block.
        std::thread::sleep(Duration::from_millis(100));
        let t0 = std::time::Instant::now();
        assert_eq!(reg.current().epoch(), 1, "old model serves during the stall");
        assert!(t0.elapsed() < Duration::from_millis(100), "current() blocked on the reload");
        assert_eq!(reloader.join().expect("reload thread"), Ok(2));
        assert_eq!(reg.current().epoch(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
