//! `hoga-repro` — command-line driver for every paper experiment.
//!
//! ```text
//! hoga-repro table1   [--scale N] [--max-nodes N]
//! hoga-repro table2   [--scale N] [--recipes N] [--epochs N] [--hidden N]
//! hoga-repro fig4     [--scale N] [--recipes N] [--epochs N] [--hidden N]
//! hoga-repro fig5     [--width N] [--epochs N]
//! hoga-repro fig6     [--train-width N] [--widths a,b,c] [--epochs N]
//! hoga-repro fig7     [--train-width N] [--vis-width N] [--epochs N]
//! hoga-repro ablation [--train-width N] [--widths a,b,c] [--epochs N]
//! hoga-repro synth    --design NAME [--scale N] [--recipe "b; rw; rf"]
//! hoga-repro sched    [--workers N] [--max-schedules N]
//! hoga-repro train    --checkpoint PATH [--epochs N] [--hidden N]
//!                     [--checkpoint-every N] [--target depth] [--scale N]
//!                     [--recipes N] [--recipe-len N] [--max-nodes N]
//! hoga-repro qor-dataset --out DIR [--scale N] [--recipes N] [--max-nodes N]
//!                        [--stop-after N] [--chunk N] [--inject D:R:S[:kind]]
//!                        [--conflict-budget N] [--max-work N]
//! hoga-repro serve    --checkpoint PATH [--addr HOST:PORT] [--hops N]
//!                     [--workers N] [--queue N] [--max-conns N]
//!                     [--read-timeout-ms N] [--deadline-ms N] [--cache-bytes N]
//!                     [--inject-serve SITE:kind[:millis]] [--inject-job SPEC]
//! hoga-repro encode-aig --design NAME --out PATH [--scale N]
//! ```
//!
//! All commands print the reproduced table/series to stdout and exit 0 on
//! success, 1 on a runtime failure, and 2 on a usage error — every
//! subcommand returns through the same [`CliError`] dispatch path.
//!
//! `train`, `qor-dataset`, and `sched` run under the supervised job
//! engine (see `docs/JOB_ENGINE.md`): they share uniform
//! `--retries N`, `--deadline-ms N`, `--inject-job SPEC`, and
//! `--events PATH` flags, emit a heartbeat event stream on stderr, and
//! resume byte-identically after a kill or an injected panic.

#![forbid(unsafe_code)]

use hoga_repro::datasets::gamora::ReasoningConfig;
use hoga_repro::eval::experiments::{ablation, fig4, fig5, fig6, fig7, table1, table2};
use hoga_repro::eval::trainer::TrainConfig;
use hoga_repro::gen::ipgen::{generate_ip, OPENABCD_DESIGNS};
use hoga_repro::jobs::{
    Engine, EngineConfig, EventLog, EventSink, FaultKind, FaultSite, Job, JobEvent, JobFaultPlan,
    RetryPolicy,
};
use hoga_repro::pipeline::{QorDatasetJob, SchedJob, TrainJob};
use hoga_repro::synth::{run_recipe, Recipe};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

/// Uniform subcommand failure: every `cmd_*` returns through this type so
/// the process exit code is decided in exactly one place ([`main`]).
#[derive(Debug)]
enum CliError {
    /// The invocation itself is malformed (missing command, unknown flag,
    /// bad spec). Exit code 2; usage is printed.
    Usage(String),
    /// The invocation was well-formed but the work failed. Exit code 1.
    Failed(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    fn failed(msg: impl Into<String>) -> Self {
        CliError::Failed(msg.into())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The single dispatch path: parses flags, routes to the subcommand, and
/// maps its result onto the process exit code.
fn dispatch(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::usage("missing command"));
    };
    let flags = parse_flags(&args[1..]).map_err(CliError::Usage)?;
    match command.as_str() {
        "table1" => cmd_table1(&flags),
        "table2" => cmd_table2(&flags, false),
        "fig4" => cmd_table2(&flags, true),
        "fig5" => cmd_fig5(&flags),
        "fig6" => cmd_fig6(&flags),
        "fig7" => cmd_fig7(&flags),
        "ablation" => cmd_ablation(&flags),
        "synth" => cmd_synth(&flags),
        "sched" => cmd_sched(&flags),
        "train" => cmd_train(&flags),
        "qor-dataset" => cmd_qor_dataset(&flags),
        "serve" => cmd_serve(&flags),
        "encode-aig" => cmd_encode_aig(&flags),
        other => Err(CliError::usage(format!("unknown command `{other}`"))),
    }
}

const USAGE: &str =
    "usage: hoga-repro <table1|table2|fig4|fig5|fig6|fig7|ablation|synth|sched|train|qor-dataset|serve|encode-aig> [flags]
  --scale N        Table-1 size divisor (default 32)
  --max-nodes N    skip designs above N scaled nodes (default 1500)
  --recipes N      synthesis recipes per design (default 8)
  --epochs N       training epochs (default 8/30 per task)
  --hidden N       hidden width (default 32)
  --width N        fig5 workload multiplier width (default 16)
  --train-width N  reasoning training multiplier width (default 8)
  --vis-width N    fig7 visualization multiplier width (default 16)
  --widths a,b,c   reasoning evaluation widths (default 12,16,24)
  --design NAME    synth: Table-1 design to synthesize
  --recipe STR     synth: recipe string (default resyn2)
  --target depth   table2/train: predict optimized depth instead of gate count
  --workers N      sched: worker shards to model (default 3)
  --max-schedules N sched: interleavings to explore per policy (default 4096)
  --out DIR        qor-dataset: output directory (manifest/ + quarantine/)
  --recipe-len N   qor-dataset/train: steps per random recipe (default 20/8)
  --seed N         dataset master seed (default 0xABC0)
  --stop-after N   qor-dataset: stop after N new records (resume by rerunning)
  --chunk N        qor-dataset: records per supervised chunk (default 0 = all)
  --inject D:R:S[:kind[:millis]]  qor-dataset: inject a miscompile (kind
                   corrupt, the default) or a stall at design D, recipe R,
                   step S — proves the guard fires
  --conflict-budget N  qor-dataset: SAT-arbiter conflict budget (0 = sim only)
  --max-work N     qor-dataset: per-pass work budget (0 = unlimited)
  --checkpoint PATH    train: checkpoint file (required; resume point)
  --checkpoint-every N train: epochs per checkpoint stage (default 1)
  engine flags (train, qor-dataset, sched):
  --retries N      max attempts per job (default 2)
  --deadline-ms N  wall-clock budget per attempt chain (0 = none)
  --inject-job attempt:A:kind[:millis] | step:U:S:L:kind[:millis]
                   inject an engine-level fault (kind: panic|stall|corrupt;
                   millis only after stall, default 50)
  --events PATH    write the rendered job event stream to PATH
  serve flags:
  --checkpoint PATH    serve: QoR checkpoint to load (CRC-verified; required)
  --addr HOST:PORT     serve: bind address (default 127.0.0.1:7878; port 0 = any)
  --hops N         serve: hop count K, must match training (default 5)
  --queue N        serve: bounded queue; overflow sheds with 503 (default 16)
  --max-conns N    serve: concurrent connection cap (default 64)
  --read-timeout-ms N  serve: slow-loris socket cutoff (default 2000)
  --cache-bytes N  serve: hop-feature cache budget (default 64 MiB)
  --inject-serve SITE:kind[:millis]  serve: arm a serve fault site once
                   (SITE: slow-client|corrupt-frame|corrupt-checkpoint|stall-reload)
  encode-aig flags:
  --design NAME    encode-aig: Table-1 design to encode (see synth)
  --out PATH       encode-aig: where to write the encoded frame";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key =
            flag.strip_prefix("--").ok_or_else(|| format!("expected flag, found `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("flag --{key} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    flags.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn widths(flags: &HashMap<String, String>, default: &[usize]) -> Vec<usize> {
    flags
        .get("widths")
        .map(|v| v.split(',').filter_map(|w| w.trim().parse().ok()).collect())
        .unwrap_or_else(|| default.to_vec())
}

fn train_cfg(flags: &HashMap<String, String>, default_epochs: usize) -> TrainConfig {
    TrainConfig {
        hidden_dim: get(flags, "hidden", 32),
        epochs: get(flags, "epochs", default_epochs),
        ..TrainConfig::default()
    }
}

fn reasoning_cfg() -> ReasoningConfig {
    ReasoningConfig { tech_map: true, lut_k: 4, num_hops: 8, label_k: 4 }
}

/// Event sink for engine-backed subcommands: renders each event to stderr
/// as a live heartbeat and keeps the full log for `--events PATH`.
struct CliSink {
    log: EventLog,
}

impl CliSink {
    fn new() -> Arc<Self> {
        Arc::new(Self { log: EventLog::new() })
    }
}

impl EventSink for CliSink {
    fn emit(&self, event: &JobEvent) {
        eprintln!("[job] {event}");
        self.log.emit(event);
    }
}

/// Builds the engine configuration shared by all engine-backed
/// subcommands from the uniform `--retries` / `--deadline-ms` flags.
fn engine_cfg(flags: &HashMap<String, String>, workers: usize, seed: u64) -> EngineConfig {
    EngineConfig {
        workers,
        queue_capacity: 4,
        retry: RetryPolicy {
            max_attempts: get(flags, "retries", 2u32).max(1),
            base_delay_ms: 20,
            max_delay_ms: 500,
            jitter_pct: 25,
        },
        deadline_ms: get(flags, "deadline-ms", 0u64),
        seed,
    }
}

/// Parses the `kind[:millis]` tail every `--inject*` spec ends in:
/// `panic`, `corrupt`, `stall` (50 ms) or `stall:millis`.
fn parse_fault_kind(tail: &[&str], spec: &str) -> Result<FaultKind, String> {
    match tail {
        ["panic"] => Ok(FaultKind::Panic),
        ["corrupt"] => Ok(FaultKind::Corrupt),
        ["stall"] => Ok(FaultKind::Stall { millis: 50 }),
        ["stall", m] => match m.parse() {
            Ok(millis) => Ok(FaultKind::Stall { millis }),
            Err(_) => Err(format!("bad stall millis `{m}` in `{spec}`")),
        },
        _ => Err(format!(
            "unknown fault kind `{}` in `{spec}` (panic|stall[:millis]|corrupt)",
            tail.join(":")
        )),
    }
}

/// Parses an `--inject-job` spec:
/// `attempt:A:kind[:millis]` or `step:U:S:L:kind[:millis]`.
fn parse_inject_job(spec: &str) -> Result<(FaultSite, FaultKind), String> {
    fn index<T: std::str::FromStr>(s: &str, spec: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("bad index `{s}` in `{spec}`"))
    }
    let parts: Vec<&str> = spec.split(':').collect();
    let (site, tail) = match parts.as_slice() {
        ["attempt", a, tail @ ..] => (FaultSite::Attempt { attempt: index(a, spec)? }, tail),
        ["step", u, s, l, tail @ ..] => {
            let (unit, step, lane) = (index(u, spec)?, index(s, spec)?, index(l, spec)?);
            (FaultSite::Step { unit, step, lane }, tail)
        }
        _ => {
            return Err(format!(
                "--inject-job expects attempt:A:kind[:millis] or step:U:S:L:kind[:millis], \
                 got `{spec}`"
            ));
        }
    };
    Ok((site, parse_fault_kind(tail, spec)?))
}

/// Builds the one-fault plan `--<flag> SPEC` asks for (no flag: no faults).
fn inject_plan(
    flags: &HashMap<String, String>,
    flag: &str,
    parse: fn(&str) -> Result<(FaultSite, FaultKind), String>,
) -> Result<JobFaultPlan, CliError> {
    let Some(spec) = flags.get(flag) else { return Ok(JobFaultPlan::none()) };
    let (site, kind) = parse(spec).map_err(CliError::Usage)?;
    Ok(JobFaultPlan::none().inject(site, kind))
}

/// Writes the rendered event stream to `--events PATH` when requested.
fn write_events(flags: &HashMap<String, String>, sink: &CliSink) -> Result<(), CliError> {
    if let Some(path) = flags.get("events") {
        std::fs::write(path, sink.log.render())
            .map_err(|e| CliError::failed(format!("cannot write event log `{path}`: {e}")))?;
    }
    Ok(())
}

/// Runs one job to completion on a single-worker engine: the shared
/// submit → wait → drain → dump-events path for `train` and
/// `qor-dataset`.
fn run_supervised<J: Job + 'static>(
    flags: &HashMap<String, String>,
    seed: u64,
    job: J,
    plan: JobFaultPlan,
) -> Result<J::Output, CliError> {
    let sink = CliSink::new();
    let engine = Engine::with_sink(engine_cfg(flags, 1, seed), sink.clone())
        .map_err(|e| CliError::failed(format!("cannot start job engine: {e}")))?;
    let handle = engine.submit(job, plan).map_err(|e| CliError::failed(e.to_string()))?;
    let result = handle.wait();
    engine.shutdown();
    write_events(flags, &sink)?;
    result.map_err(|e| CliError::failed(e.to_string()))
}

fn cmd_table1(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let t = table1::run(get(flags, "scale", 32), get(flags, "max-nodes", 0));
    println!("{}", t.render());
    Ok(())
}

fn table2_cfg(flags: &HashMap<String, String>) -> table2::Table2Config {
    let mut cfg = table2::Table2Config::default();
    cfg.dataset.scale_divisor = get(flags, "scale", 32);
    cfg.dataset.recipes_per_design = get(flags, "recipes", 8);
    cfg.dataset.max_scaled_nodes = get(flags, "max-nodes", 1500);
    cfg.train = train_cfg(flags, 60);
    cfg
}

fn cmd_table2(flags: &HashMap<String, String>, with_fig4: bool) -> Result<(), CliError> {
    let cfg = table2_cfg(flags);
    if flags.get("target").map(String::as_str) == Some("depth") {
        // Depth-prediction variant (this reproduction's extension): train
        // HOGA-K on the depth ratio and report per-design MAPE.
        use hoga_repro::datasets::openabcd::build_qor_dataset;
        use hoga_repro::eval::trainer::{
            average_mape, eval_qor_with_target, train_qor_with_target, QorModelKind, QorTarget,
        };
        let ds = build_qor_dataset(&cfg.dataset);
        let (model, stats) = train_qor_with_target(
            &ds,
            QorModelKind::Hoga { num_hops: cfg.dataset.num_hops },
            &cfg.train,
            QorTarget::Depth,
        );
        let evals = eval_qor_with_target(&ds, &model, false, QorTarget::Depth);
        println!("Depth prediction (HOGA-{}):", cfg.dataset.num_hops);
        for e in &evals {
            println!("  {:<14} MAPE {:>6.2}%", e.name, e.mape());
        }
        println!("  average: {:.2}% ({:.1?})", average_mape(&evals), stats.train_time);
        println!("  {}", stats.phases_line());
        return Ok(());
    }
    let result = table2::run(&cfg);
    println!("{}", result.render());
    if with_fig4 {
        let fig = fig4::from_table2(&result);
        println!("{}", fig.render_csv());
        for s in &fig.series {
            if let Some(r) = fig.correlation(&s.model) {
                println!("# correlation({}) = {r:.3}", s.model);
            }
        }
    }
    Ok(())
}

fn cmd_fig5(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let cfg = fig5::Fig5Config {
        width: get(flags, "width", 16),
        graph: reasoning_cfg(),
        train: train_cfg(flags, 3),
        worker_counts: [1, 2, 4],
    };
    println!("{}", fig5::run(&cfg).render());
    Ok(())
}

fn cmd_fig6(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let cfg = fig6::Fig6Config {
        train_width: get(flags, "train-width", 8),
        eval_widths: widths(flags, &[12, 16, 24]),
        graph: reasoning_cfg(),
        train: train_cfg(flags, 100),
    };
    println!("{}", fig6::run(&cfg).render());
    Ok(())
}

fn cmd_fig7(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let cfg = fig7::Fig7Config {
        train_width: get(flags, "train-width", 8),
        vis_width: get(flags, "vis-width", 16),
        nodes_per_class: 100,
        graph: reasoning_cfg(),
        train: train_cfg(flags, 100),
    };
    println!("{}", fig7::run(&cfg).render());
    Ok(())
}

fn cmd_ablation(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let cfg = ablation::AblationConfig {
        train_width: get(flags, "train-width", 8),
        eval_widths: widths(flags, &[12, 16]),
        graph: reasoning_cfg(),
        train: train_cfg(flags, 100),
    };
    println!("{}", ablation::run(&cfg).render());
    Ok(())
}

fn cmd_synth(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let Some(name) = flags.get("design") else {
        return Err(CliError::usage("synth requires --design NAME (see Table 1 names)"));
    };
    let Some(spec) = OPENABCD_DESIGNS.iter().find(|d| d.name == name.as_str()) else {
        let names: Vec<&str> = OPENABCD_DESIGNS.iter().map(|d| d.name).collect();
        return Err(CliError::usage(format!(
            "unknown design `{name}`; available: {}",
            names.join(", ")
        )));
    };
    if let Some(raw) = flags.get("recipe") {
        // Surface every recipe problem (not just the first parse error),
        // including recipes longer than the OpenABC-D training budget.
        for l in hoga_repro::synth::recipe::lint(raw) {
            eprintln!("warning: recipe: {l}");
        }
    }
    let recipe: Recipe = flags
        .get("recipe")
        .map(|r| r.parse())
        .unwrap_or_else(|| Ok(Recipe::resyn2()))
        .map_err(|e| CliError::usage(e.to_string()))?;
    let aig = generate_ip(spec, get(flags, "scale", 32));
    println!("design `{}`: {} AND gates", spec.name, aig.num_ands());
    let result = run_recipe(&aig, &recipe);
    println!("recipe `{recipe}`:");
    for (step, ands) in recipe.steps().iter().zip(&result.per_step_ands) {
        println!("  after {step:<5} -> {ands} gates");
    }
    println!(
        "total: {} -> {} gates ({:.1}% reduction)",
        result.initial_ands,
        result.final_ands,
        result.reduction() * 100.0
    );
    Ok(())
}

/// Parses an `--inject design:recipe:step[:kind[:millis]]` spec; without a
/// kind (or with its older name, `miscompile`) the step is miscompiled.
fn parse_inject(spec: &str) -> Result<hoga_repro::datasets::openabcd::QorFault, String> {
    use hoga_repro::datasets::openabcd::QorFault;
    let parts: Vec<&str> = spec.split(':').collect();
    let [design, recipe, step, tail @ ..] = parts.as_slice() else {
        return Err(format!("--inject expects design:recipe:step[:kind[:millis]], got `{spec}`"));
    };
    let recipe_index = recipe.parse().map_err(|_| format!("bad recipe index in `{spec}`"))?;
    let step = step.parse().map_err(|_| format!("bad step index in `{spec}`"))?;
    let kind = match tail {
        [] | ["miscompile"] => FaultKind::Corrupt,
        _ => parse_fault_kind(tail, spec)?,
    };
    Ok(QorFault { design: design.to_string(), recipe_index, step, kind })
}

/// Builds the QoR sweep configuration shared by `qor-dataset` and
/// `train` from the dataset flags.
fn qor_dataset_cfg(
    flags: &HashMap<String, String>,
    default_recipe_len: usize,
) -> hoga_repro::datasets::openabcd::QorDatasetConfig {
    use hoga_repro::datasets::openabcd::QorDatasetConfig;
    use hoga_repro::synth::{GuardConfig, PassBudget};
    QorDatasetConfig {
        scale_divisor: get(flags, "scale", 32),
        recipes_per_design: get(flags, "recipes", 8),
        recipe_len: get(flags, "recipe-len", default_recipe_len),
        max_scaled_nodes: get(flags, "max-nodes", 1500),
        seed: get(flags, "seed", 0xABC0),
        guard: GuardConfig {
            conflict_budget: get(flags, "conflict-budget", 0),
            budget: match get(flags, "max-work", 0) {
                0 => PassBudget::unlimited(),
                w => PassBudget::with_max_work(w),
            },
            ..GuardConfig::default()
        },
        ..QorDatasetConfig::default()
    }
}

fn cmd_qor_dataset(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use hoga_repro::datasets::openabcd::QorSweepOptions;
    let Some(out) = flags.get("out") else {
        return Err(CliError::usage("qor-dataset requires --out DIR"));
    };
    let faults = flags
        .get("inject")
        .map(|s| parse_inject(s))
        .transpose()
        .map_err(CliError::Usage)?
        .into_iter()
        .collect();
    let plan = inject_plan(flags, "inject-job", parse_inject_job)?;
    let cfg = qor_dataset_cfg(flags, hoga_repro::synth::STEP_BUDGET);
    let seed = cfg.seed;
    let job = QorDatasetJob {
        config: cfg,
        out_dir: std::path::PathBuf::from(out),
        opts: QorSweepOptions {
            stop_after: flags.get("stop-after").and_then(|v| v.parse().ok()),
            faults,
        },
        chunk: get(flags, "chunk", 0),
    };
    let report = run_supervised(flags, seed, job, plan)?;
    println!(
        "qor-dataset: {} samples total, {} written, {} skipped (resume), \
         {} quarantined{}",
        report.total,
        report.written,
        report.skipped,
        report.quarantined,
        if report.interrupted { " [interrupted; rerun to resume]" } else { "" }
    );
    Ok(())
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use hoga_repro::datasets::openabcd::build_qor_dataset;
    use hoga_repro::eval::trainer::{QorModelKind, QorTarget};
    let Some(ckpt) = flags.get("checkpoint") else {
        return Err(CliError::usage("train requires --checkpoint PATH"));
    };
    let target = match flags.get("target").map(String::as_str) {
        None | Some("gates") => QorTarget::GateCount,
        Some("depth") => QorTarget::Depth,
        Some(other) => {
            return Err(CliError::usage(format!("unknown --target `{other}` (gates|depth)")));
        }
    };
    // Before the dataset is built: a malformed spec must not start a run.
    let plan = inject_plan(flags, "inject-job", parse_inject_job)?;
    let ds_cfg = qor_dataset_cfg(flags, 8);
    let seed = ds_cfg.seed;
    let kind = QorModelKind::Hoga { num_hops: ds_cfg.num_hops };
    let cfg = TrainConfig {
        hidden_dim: get(flags, "hidden", 16),
        epochs: get(flags, "epochs", 8),
        checkpoint_to: Some(std::path::PathBuf::from(ckpt)),
        checkpoint_every: get(flags, "checkpoint-every", 1usize).max(1),
        ..TrainConfig::default()
    };
    let ds = Arc::new(build_qor_dataset(&ds_cfg));
    println!(
        "train: {} designs, {} train / {} test samples",
        ds.designs.len(),
        ds.train.len(),
        ds.test.len()
    );
    let job = TrainJob { ds, kind, target, cfg };
    let (_model, stats) = run_supervised(flags, seed, job, plan)?;
    println!(
        "train: final loss {:.6} after {} epoch(s); checkpoint at {ckpt}",
        stats.final_loss, stats.epochs_run
    );
    println!("train: {}", stats.phases_line());
    Ok(())
}

fn cmd_sched(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use hoga_repro::eval::sched::{ExploreConfig, ExploreReport, ReducePolicy};
    let workers = get(flags, "workers", 3usize).max(1);
    let cfg = ExploreConfig {
        max_schedules: get(flags, "max-schedules", 4096usize).max(1),
        ..ExploreConfig::default()
    };
    let render = |policy: &str, r: &ExploreReport| {
        println!(
            "{policy:>16}: {} interleavings -> {} distinct outcome(s), {} replay error(s)",
            r.schedules,
            r.outcomes.len(),
            r.replay_errors
        );
        for o in &r.outcomes {
            println!(
                "                  loss_bits={:#010x} grad_crc={:#010x} param_crc={:#010x} \
                 checkpoint_crc={:#010x}",
                o.loss_bits, o.grad_crc, o.param_crc, o.checkpoint_crc
            );
        }
    };
    println!(
        "schedule explorer: {workers} workers, cancellation-heavy synthetic shards \
         (see docs/SCHEDULE_TESTING.md)"
    );
    // Both policies run concurrently on the engine pool; reports print in
    // a fixed order regardless of completion order.
    let plan = inject_plan(flags, "inject-job", parse_inject_job)?;
    let sink = CliSink::new();
    let engine = Engine::with_sink(engine_cfg(flags, 2, cfg.seed), sink.clone())
        .map_err(|e| CliError::failed(format!("cannot start job engine: {e}")))?;
    let shard = engine
        .submit(SchedJob { workers, policy: ReducePolicy::ShardOrder, cfg }, plan.clone())
        .map_err(|e| CliError::failed(e.to_string()))?;
    let completion = engine
        .submit(SchedJob { workers, policy: ReducePolicy::CompletionOrder, cfg }, plan)
        .map_err(|e| CliError::failed(e.to_string()))?;
    let shard_report = shard.wait();
    let completion_report = completion.wait();
    engine.shutdown();
    write_events(flags, &sink)?;
    render("shard-order", &shard_report.map_err(|e| CliError::failed(e.to_string()))?);
    render("completion-order", &completion_report.map_err(|e| CliError::failed(e.to_string()))?);
    Ok(())
}

/// Parses an `--inject-serve` spec: `SITE:kind[:millis]` where SITE names
/// one of the four serving degradation points.
fn parse_inject_serve(spec: &str) -> Result<(FaultSite, FaultKind), String> {
    use hoga_repro::jobs::ServeSite;
    let parts: Vec<&str> = spec.split(':').collect();
    let [site_name, tail @ ..] = parts.as_slice() else {
        return Err(format!("--inject-serve expects SITE:kind[:millis], got `{spec}`"));
    };
    let site = match *site_name {
        "slow-client" => ServeSite::SlowClient,
        "corrupt-frame" => ServeSite::CorruptFrame,
        "corrupt-checkpoint" => ServeSite::CorruptCheckpoint,
        "stall-reload" => ServeSite::StallReload,
        other => {
            return Err(format!(
                "unknown serve site `{other}` in `{spec}` \
                 (slow-client|corrupt-frame|corrupt-checkpoint|stall-reload)"
            ));
        }
    };
    Ok((FaultSite::Serve(site), parse_fault_kind(tail, spec)?))
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use hoga_repro::serve::{Server, ServerConfig};
    let Some(checkpoint) = flags.get("checkpoint") else {
        return Err(CliError::usage("serve requires --checkpoint PATH"));
    };
    let serve_faults = inject_plan(flags, "inject-serve", parse_inject_serve)?;
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7878".into()),
        checkpoint: std::path::PathBuf::from(checkpoint),
        num_hops: get(flags, "hops", defaults.num_hops),
        workers: get(flags, "workers", defaults.workers),
        queue_capacity: get(flags, "queue", defaults.queue_capacity),
        max_connections: get(flags, "max-conns", defaults.max_connections),
        read_timeout_ms: get(flags, "read-timeout-ms", defaults.read_timeout_ms),
        write_timeout_ms: get(flags, "write-timeout-ms", defaults.write_timeout_ms),
        default_deadline_ms: get(flags, "deadline-ms", defaults.default_deadline_ms),
        cache_bytes: get(flags, "cache-bytes", defaults.cache_bytes),
        serve_faults,
        job_faults: inject_plan(flags, "inject-job", parse_inject_job)?,
        ..defaults
    };
    let handle = Server::start(config).map_err(|e| CliError::failed(e.to_string()))?;
    // Flushed eagerly: supervisors and the CI smoke tail the log for this
    // line before sending traffic, and piped stdout is block-buffered.
    {
        use std::io::Write as _;
        let mut out = std::io::stdout();
        let _ = writeln!(
            out,
            "serving on {} (backend {}, {} kernel threads)",
            handle.addr(),
            hoga_tensor::active_backend(),
            hoga_tensor::available_threads()
        );
        let _ = out.flush();
    }
    // Serve until the process is stopped externally (signal/SIGKILL —
    // crash-only shutdown is part of the robustness contract; see
    // docs/SERVING.md).
    loop {
        std::thread::park();
    }
}

fn cmd_encode_aig(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let Some(name) = flags.get("design") else {
        return Err(CliError::usage("encode-aig requires --design NAME (see Table 1 names)"));
    };
    let Some(out) = flags.get("out") else {
        return Err(CliError::usage("encode-aig requires --out PATH"));
    };
    let Some(spec) = OPENABCD_DESIGNS.iter().find(|d| d.name == name.as_str()) else {
        let names: Vec<&str> = OPENABCD_DESIGNS.iter().map(|d| d.name).collect();
        return Err(CliError::usage(format!(
            "unknown design `{name}`; available: {}",
            names.join(", ")
        )));
    };
    let aig = generate_ip(spec, get(flags, "scale", 32));
    let frame = hoga_repro::datasets::io::encode_aig(&aig);
    std::fs::write(out, &frame)
        .map_err(|e| CliError::failed(format!("cannot write `{out}`: {e}")))?;
    println!(
        "wrote {out}: design `{}`, {} nodes, {} bytes",
        spec.name,
        aig.num_nodes(),
        frame.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags_of(args: &[&str]) -> HashMap<String, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).expect("valid flags")
    }

    #[test]
    fn parse_flags_accepts_pairs() {
        let f = flags_of(&["--scale", "16", "--epochs", "3"]);
        assert_eq!(get(&f, "scale", 0usize), 16);
        assert_eq!(get(&f, "epochs", 0usize), 3);
        assert_eq!(get(&f, "missing", 42usize), 42);
    }

    #[test]
    fn parse_flags_rejects_bare_values_and_dangling_flags() {
        assert!(parse_flags(&["oops".to_string()]).is_err());
        assert!(parse_flags(&["--scale".to_string()]).is_err());
    }

    #[test]
    fn widths_parse_comma_lists() {
        let f = flags_of(&["--widths", "8, 16,24"]);
        assert_eq!(widths(&f, &[1]), vec![8, 16, 24]);
        assert_eq!(widths(&HashMap::new(), &[5, 6]), vec![5, 6]);
    }

    #[test]
    fn bad_numbers_fall_back_to_defaults() {
        let f = flags_of(&["--scale", "not-a-number"]);
        assert_eq!(get(&f, "scale", 32usize), 32);
    }

    #[test]
    fn parse_inject_accepts_both_fault_kinds() {
        let f = parse_inject("spi:3:1").expect("default kind");
        assert_eq!((f.design.as_str(), f.recipe_index, f.step), ("spi", 3, 1));
        assert_eq!(f.kind, FaultKind::Corrupt);
        assert_eq!(parse_inject("spi:3:1:miscompile").expect("older name"), f);
        let stall = parse_inject("spi:0:2:stall").expect("stall");
        assert!(matches!(stall.kind, FaultKind::Stall { .. }));
        assert!(parse_inject("spi:0").is_err());
        assert!(parse_inject("spi:x:2").is_err());
        assert!(parse_inject("spi:0:2:frob").is_err());
    }

    #[test]
    fn parse_inject_serve_accepts_all_sites_and_rejects_garbage() {
        use hoga_repro::jobs::ServeSite;
        let (site, kind) = parse_inject_serve("slow-client:stall:250").expect("slow client");
        assert_eq!(site, FaultSite::Serve(ServeSite::SlowClient));
        assert_eq!(kind, FaultKind::Stall { millis: 250 });

        let (site, kind) = parse_inject_serve("corrupt-frame:corrupt").expect("corrupt frame");
        assert_eq!(site, FaultSite::Serve(ServeSite::CorruptFrame));
        assert_eq!(kind, FaultKind::Corrupt);

        let (site, _) = parse_inject_serve("corrupt-checkpoint:corrupt").expect("checkpoint");
        assert_eq!(site, FaultSite::Serve(ServeSite::CorruptCheckpoint));

        let (site, kind) = parse_inject_serve("stall-reload:stall").expect("default millis");
        assert_eq!(site, FaultSite::Serve(ServeSite::StallReload));
        assert_eq!(kind, FaultKind::Stall { millis: 50 });

        for bad in ["", "slow-client", "nope:stall", "slow-client:frob", "slow-client:stall:x"] {
            assert!(parse_inject_serve(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn parse_inject_job_rejects_malformed_specs() {
        for bad in [
            "",
            "attempt",
            "attempt:1",
            "attempt:x:panic",
            "attempt:1:frob",
            "attempt:1:panic:50",
            "attempt:1:corrupt:50",
            "step:1:panic",
            "step:1:2:3:panic:extra:more",
            "step:a:b:c:panic",
            "epoch:1:panic",
            // 2^32 + 1: an `as u32` would arm attempt 1.
            "attempt:4294967297:panic",
        ] {
            assert!(parse_inject_job(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn every_inject_flag_reads_the_same_kind_tails() {
        let cases = [
            ("panic", Some(FaultKind::Panic)),
            ("corrupt", Some(FaultKind::Corrupt)),
            ("stall", Some(FaultKind::Stall { millis: 50 })),
            ("stall:7", Some(FaultKind::Stall { millis: 7 })),
            ("stall:x", None),
            ("boom", None),
        ];
        let attempt = FaultSite::Attempt { attempt: 2 };
        let step = FaultSite::Step { unit: 3, step: 0, lane: 1 };
        for (tail, want) in cases {
            let sweep = parse_inject(&format!("spi:0:1:{tail}")).ok().map(|f| f.kind);
            let serve = parse_inject_serve(&format!("slow-client:{tail}")).ok().map(|(_, k)| k);
            assert_eq!([sweep, serve], [want; 2], "`{tail}`");
            let job = |spec: String| parse_inject_job(&spec).ok();
            assert_eq!(job(format!("attempt:2:{tail}")), want.map(|k| (attempt, k)), "`{tail}`");
            assert_eq!(job(format!("step:3:0:1:{tail}")), want.map(|k| (step, k)), "`{tail}`");
        }
    }

    #[test]
    fn dispatch_maps_missing_and_unknown_commands_to_usage() {
        assert!(matches!(dispatch(&[]), Err(CliError::Usage(_))));
        assert!(matches!(dispatch(&["frobnicate".into()]), Err(CliError::Usage(_))));
        assert!(matches!(dispatch(&["synth".into(), "--design".into()]), Err(CliError::Usage(_))));
    }
}
