//! Criterion benchmark harness regenerating every table and figure of the
//! HOGA paper.
//!
//! Each bench target wraps one experiment driver from
//! [`hoga_eval::experiments`]; running a bench both times the experiment
//! and **prints the reproduced table/series** to stdout, so
//! `cargo bench -p hoga-bench` regenerates the paper's artifacts end to
//! end:
//!
//! | bench target | artifact |
//! |---|---|
//! | `table2_qor` | Table 2 (QoR MAPE + training time) |
//! | `fig4_scatter` | Figure 4 (prediction-vs-truth series, CSV) |
//! | `fig5_scaling` | Figure 5 (multi-worker scaling) |
//! | `fig6_reasoning` | Figure 6 (accuracy vs bitwidth, CSA & Booth) |
//! | `fig7_attention` | Figure 7 (per-class hop attention) |
//! | `ablation_aggregation` | §III-B aggregator ablation |
//! | `hotpath` | microbenchmarks (hop features, attention, synthesis) |
//! | `analyze` | linter timing, written to `BENCH_analyze.json` |
//!
//! Kernel, training and serving throughput are measured end to end by the
//! performance ledger (`bash ledger/run.sh`), not here.
//!
//! Experiment sizes default to CPU-friendly presets; set
//! `HOGA_BENCH_SCALE=full` for larger runs.

#![forbid(unsafe_code)]

/// Returns `true` when the environment requests full-scale benchmarks.
pub fn full_scale() -> bool {
    std::env::var("HOGA_BENCH_SCALE").map(|v| v == "full").unwrap_or(false)
}
