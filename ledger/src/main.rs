//! `hoga-bench`: the repository's performance ledger.
//!
//! ```text
//! hoga-bench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! hoga-bench run   [--seed N] [--seeds K] [--seconds S] [--out FILE] [--twin FILE]   every workload, untraced
//! hoga-bench trace [--seed N] [--seeds K] [--seconds S] [--out FILE]   every workload, traced
//! hoga-bench diff A.json B.json                               compare two run sets
//! ```
//!
//! It measures the product as shipped: default features, never a call to
//! `set_backend` or `set_threads`, `ServerConfig::default()` except where a
//! workload states an input. `run` and `trace` start a fresh process per
//! workload, so no workload warms another's caches or inflates its peak RSS.

#![forbid(unsafe_code)]

mod batch;
mod common;
mod inputs;
mod json;
mod report;
mod serve;
mod span;
mod spec;
mod stats;
mod train;

use common::{context, out_dir, Args, Outcome};
use json::Value;
use span::Tracer;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> String {
    format!(
        "usage: hoga-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      hoga-bench run|trace [--seed <n>] [--seeds <k>] [--seconds <s>] [--out <file>]\n\
         \x20      hoga-bench run ... --twin <file>   every run twice, interleaved, into two sets\n\
         \x20      hoga-bench diff <a.json> <b.json>",
        spec::spec().workloads.join("|")
    )
}

/// `--name value` pairs after an optional subcommand.
pub(crate) fn flag<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.windows(2).find(|pair| pair[0] == name).map(|pair| pair[1].as_str())
}

pub(crate) fn parse_flag<T: std::str::FromStr>(
    argv: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag(argv, name) {
        None => Ok(default),
        Some(text) => text.parse().map_err(|_| format!("bad value for {name}: {text:?}")),
    }
}

fn run_workload(
    name: &str,
    args: &Args,
    traced: bool,
) -> Result<(Outcome, Option<Tracer>), String> {
    enum Workload {
        Serve(serve::Kind),
        Train,
        Batch(batch::Kind),
    }
    let workload = match name {
        "serve_sweep" => Workload::Serve(serve::Kind::Sweep),
        "serve_unique" => Workload::Serve(serve::Kind::Unique),
        "train_reasoning" => Workload::Train,
        "batch_hopfeat" => Workload::Batch(batch::Kind::Hopfeat),
        "batch_infer_exact" => Workload::Batch(batch::Kind::Exact),
        "batch_infer_int8" => Workload::Batch(batch::Kind::Int8),
        "batch_infer_fast" => Workload::Batch(batch::Kind::Fast),
        _ => return Err(format!("unknown workload {name:?}\n{}", usage())),
    };
    if traced {
        match workload {
            Workload::Serve(kind) => serve::trace(kind, args),
            Workload::Train => train::trace(args),
            Workload::Batch(kind) => batch::trace(kind, args),
        }
        .map(|(outcome, tracer)| (outcome, Some(tracer)))
    } else {
        match workload {
            Workload::Serve(kind) => serve::run(kind, args),
            Workload::Train => train::run(args),
            Workload::Batch(kind) => batch::run(kind, args),
        }
        .map(|outcome| (outcome, None))
    }
}

/// Cost of recording one span, measured on this machine: the basis of the
/// reported tracing overhead.
fn span_cost_ns() -> f64 {
    let mut tracer = Tracer::new();
    let start = Instant::now();
    for i in 0..20_000 {
        let id = tracer.begin("probe", None, i);
        tracer.end(id);
    }
    start.elapsed().as_nanos() as f64 / tracer.len() as f64
}

/// One run under the driver's contract. Everything human-readable goes to
/// stderr; the last line of stdout is the result object.
fn single(argv: &[String]) -> Result<ExitCode, String> {
    let workload = flag(argv, "--workload").ok_or_else(usage)?;
    let args = Args {
        seed: parse_flag(argv, "--seed", 1)?,
        seconds: parse_flag(argv, "--seconds", spec::spec().run_seconds)?,
    };
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", args.seconds));
    }
    let traced = match flag(argv, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad value for --trace: {other:?}")),
    };
    let ctx = context(workload, &args);
    eprintln!("context: {}", ctx.compact());

    // On a spawned thread, as the product runs its hot paths (engine
    // workers, connection threads). glibc trims the main thread's heap on
    // large frees, and the same kernels measure up to 2x slower there.
    let (mut outcome, tracer) = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("bench-worker".into())
            .spawn_scoped(scope, || run_workload(workload, &args, traced))
            .map_err(|e| format!("cannot spawn the worker thread: {e}"))?
            .join()
            .map_err(|_| "the workload panicked".to_string())?
    })?;
    if let Some(tracer) = tracer {
        let cost = span_cost_ns();
        let overhead_pct = 100.0 * tracer.len() as f64 * cost / (outcome.traced_s * 1e9).max(1.0);
        outcome.set("trace.spans", tracer.len() as f64);
        outcome.set("trace.span_cost_ns", cost);
        outcome.set("trace.overhead_pct", overhead_pct);
        outcome.notes.push(format!(
            "tracing: {} spans at {cost:.0} ns each = {overhead_pct:.4} % of the traced phase",
            tracer.len()
        ));
        // Self time per span name: a span's duration minus its children's.
        let by_name = tracer.self_us_by_name();
        let total: f64 = by_name.values().flatten().sum();
        outcome.notes.push(format!(
            "{:<34} {:>8} {:>14} {:>7}",
            "span (self time)", "count", "total us", "share"
        ));
        for (name, own) in &by_name {
            let sum: f64 = own.iter().sum();
            outcome.notes.push(format!(
                "{name:<34} {:>8} {sum:>14.1} {:>6.1} %",
                own.len(),
                100.0 * sum / total.max(1e-9)
            ));
        }
        let path = out_dir().join(format!("trace-{workload}.json"));
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, tracer.to_json(ctx).compact()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("trace: {}", path.display());
    }
    for note in &outcome.notes {
        eprintln!("{note}");
    }
    for error in &outcome.errors {
        eprintln!("WRONG: {error}");
    }

    if outcome.attempted == 0 {
        return Err("no operation ran in the measured phase".to_string());
    }

    // Exactly the declared metrics: all end-to-end ones untraced, all
    // per-layer ones traced (0 where this workload's trace does not reach).
    // A run with a wrong output reports no number at all.
    let declared = if traced { &spec::spec().per_layer } else { &spec::spec().end_to_end };
    let correct = outcome.errors.is_empty() && outcome.failed == 0;
    let metrics: Vec<(&str, Value)> = declared
        .iter()
        .filter(|_| correct)
        .map(|m| {
            let value = outcome.values.get(&m.name).copied().unwrap_or(0.0);
            eprintln!("{:<36} {value:>16.4} {}", m.name, m.unit);
            let reading = [("value", Value::Num(value)), ("unit", Value::str(m.unit.as_str()))];
            (m.name.as_str(), Value::obj(reading))
        })
        .collect();
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ]);
    println!("{}", result.compact());
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    match argv.first().map(String::as_str) {
        Some("run") => report::run_set(&argv[1..], false),
        Some("trace") => report::run_set(&argv[1..], true),
        Some("diff") => report::diff(&argv[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        Some(_) => single(argv),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(why) => {
            eprintln!("hoga-bench: {why}");
            ExitCode::from(2)
        }
    }
}
