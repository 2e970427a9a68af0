//! What every workload shares: the command-line contract, the outcome of a
//! run, the end-to-end metric arithmetic, and the context block.

use crate::json::Value;
use crate::stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median, so one slow set-up (a late
/// fsync of the checkpoint, a descheduled warm-up) does not decide it.
const SETUP_REPS: usize = 5;

/// The checkout this binary was built from: `ledger/`'s parent. Everything
/// the benchmark reads or writes is addressed from here, so a run does the
/// same wherever it is started.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("ledger/ sits in the repository root")
}

/// Scratch directory inside the checkout (checkpoints, run sets, traces).
pub fn out_dir() -> PathBuf {
    repo_root().join("ledger/out")
}

#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
}

/// Result of one workload run, traced or not.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations started in the measured phase.
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// Why the run is not correct; empty means correct.
    pub errors: Vec<String>,
    /// Named values; the caller projects them onto the declared metric list.
    pub values: BTreeMap<String, f64>,
    /// Lines for the human-readable report (stderr), not part of the result.
    pub notes: Vec<String>,
    /// Seconds spent under spans, for the reported tracing overhead.
    pub traced_s: f64,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records a failed check; at most a handful are kept verbatim.
    pub fn error(&mut self, what: impl Into<String>) {
        if self.errors.len() < 8 {
            self.errors.push(what.into());
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.error(what());
        }
    }
}

/// Samples of one untraced measured phase.
pub struct Measured {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Milliseconds per successful operation.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the measured phase.
    pub wall_s: f64,
}

/// The end-to-end metrics, defined once for every workload: an operation is
/// a request (serve), an epoch (train) or a chunk / whole-graph pass (batch).
/// Operation-time percentiles go to the report only: they are layer metrics
/// (see `ledger/README.md`, "The tail and the median").
pub fn end_to_end(outcome: &mut Outcome, m: &Measured) {
    outcome.set("setup_s", median(&m.setup_s));
    outcome.set("ops_per_s", m.latencies_ms.len() as f64 / m.wall_s);
    outcome.set("peak_rss_mb", proc_status_mib("VmHWM:"));
    outcome.notes.push(format!(
        "samples: {} ops in {:.3} s (p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms), set-ups {:.3?} s",
        m.latencies_ms.len(),
        m.wall_s,
        percentile(&m.latencies_ms, 50.0),
        percentile(&m.latencies_ms, 90.0),
        percentile(&m.latencies_ms, 99.0),
        m.setup_s
    ));
}

/// Sets up [`SETUP_REPS`] times, dropping all but the last fixture through
/// `teardown`; returns the last fixture and the seconds each set-up took.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    loop {
        let start = Instant::now();
        let fixture = setup()?;
        times.push(start.elapsed().as_secs_f64());
        if times.len() == SETUP_REPS {
            return Ok((fixture, times));
        }
        teardown(fixture);
    }
}

/// Median seconds of `f` over `reps` calls.
pub fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Multiply-accumulates of one exact forward over `batch` nodes, computed
/// from the model's shapes (not measured): input projection, the four
/// per-head projections, `QKᵀ`, `S·V`, and the readout.
pub fn infer_macs(batch: usize, input_dim: usize, hidden: usize, hops: usize) -> f64 {
    let (b, f, d, k, k1) =
        (batch as f64, input_dim as f64, hidden as f64, hops as f64, (hops + 1) as f64);
    b * (k1 * f * d + 4.0 * k1 * d * d + 2.0 * k1 * k1 * d + 3.0 * k * d)
}

/// A `kB` field of `/proc/self/status` in MiB (`VmHWM:` is the peak
/// resident set, `VmRSS:` the current one); 0.0 where procfs is missing.
pub fn proc_status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(field)?.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Commit of the checkout when it is a git work tree; the driver's
/// checkouts are plain directories, where this reads "unknown".
fn commit() -> String {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".to_string() } else { head.to_string() };
    };
    // A loose ref file, or after `git pack-refs` a "<hash> <ref>" line.
    let loose = std::fs::read_to_string(git.join(reference)).unwrap_or_default();
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    let packed_hash =
        packed.lines().find_map(|line| line.strip_suffix(reference)?.strip_suffix(' '));
    match (loose.trim(), packed_hash) {
        ("", None) => "unknown".to_string(),
        ("", Some(hash)) => hash.to_string(),
        (hash, _) => hash.to_string(),
    }
}

/// What the product resolved to on this machine. The benchmark never calls
/// `set_backend` or `set_threads`; it only reads the outcome.
pub fn context(workload: &str, args: &Args) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("workload", Value::str(workload)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("backend", Value::str(hoga_tensor::active_backend())),
        ("kernel_threads", Value::Num(hoga_tensor::available_threads() as f64)),
        ("nproc", Value::Num(nproc as f64)),
        ("commit", Value::str(commit())),
        ("deps", Value::str("offline-stubs")),
        ("features", Value::str("default")),
    ])
}
