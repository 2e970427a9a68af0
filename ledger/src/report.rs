//! Run sets and their comparison. A run set is every workload run in a
//! process of its own (once per seed), written as one JSON file; `diff`
//! lines two of them up, one row per (workload, metric), and judges each row
//! by the bound the benchmark declares.

use crate::common::{context, out_dir, Args};
use crate::json::{self, Value};
use crate::spec;
use crate::stats::{median, spread};
use crate::{flag, parse_flag};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// One contract run in a child process; returns its result object.
fn child_run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = json::parse(last).map_err(|e| {
        format!("{workload}: exit {:?}, no result line ({e})", output.status.code())
    })?;
    if !output.status.success() {
        eprintln!("{workload}: exit {:?}", output.status.code());
    }
    Ok(result)
}

/// `hoga-bench run|trace`: every workload, a fresh process each, one run per
/// seed in `seed .. seed + seeds`. With `--twin FILE` every (workload, seed)
/// runs twice back to back, the first going to `--out` and the second to
/// FILE on even pairs and the other way round on odd ones: two sets of the
/// same code over which a machine regime that lasts minutes falls alike.
pub fn run_set(argv: &[String], traced: bool) -> Result<ExitCode, String> {
    let spec = spec::spec();
    let seed: u64 = parse_flag(argv, "--seed", 1)?;
    let seeds: u64 = parse_flag(argv, "--seeds", 1)?;
    let seconds: f64 = parse_flag(argv, "--seconds", spec.run_seconds)?;
    let kind = if traced { "trace" } else { "run" };
    let out =
        flag(argv, "--out").map_or_else(|| out_dir().join(format!("{kind}.json")), PathBuf::from);
    let outs: Vec<PathBuf> =
        std::iter::once(out).chain(flag(argv, "--twin").map(PathBuf::from)).collect();

    let started = Instant::now();
    let mut runs = vec![Vec::new(); outs.len()];
    let mut all_correct = true;
    let mut pairs = 0;
    for workload in &spec.workloads {
        for s in seed..seed + seeds.max(1) {
            for turn in 0..outs.len() {
                eprintln!("== {kind} {workload} --seed {s} --seconds {seconds}");
                let began = Instant::now();
                let result = child_run(workload, s, seconds, traced)?;
                all_correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
                runs[(turn + pairs) % outs.len()].push(Value::obj([
                    ("workload", Value::str(workload.as_str())),
                    ("seed", Value::Num(s as f64)),
                    ("process_s", Value::Num(began.elapsed().as_secs_f64())),
                    ("result", result),
                ]));
            }
            pairs += 1;
        }
    }
    let total_s = started.elapsed().as_secs_f64();
    for (out, runs) in outs.iter().zip(runs) {
        let set = Value::obj([
            ("kind", Value::str(kind)),
            ("context", context("all", &Args { seed, seconds })),
            ("total_s", Value::Num(total_s)),
            ("runs", Value::Arr(runs)),
        ]);
        if let Some(dir) = out.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(out, set.pretty())
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        print_set(&set);
        println!("\n{kind} set: {} ({total_s:.0} s)", out.display());
    }
    if !all_correct {
        println!("AT LEAST ONE RUN WAS NOT CORRECT");
    }
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `(workload, metric) -> values`, in first-seen order.
type Samples = Vec<((String, String), Vec<f64>)>;

fn samples_of(set: &Value) -> Result<Samples, String> {
    let mut out: Samples = Vec::new();
    for run in set.get("runs").and_then(Value::as_arr).ok_or("run set has no \"runs\" array")? {
        let workload = run.get("workload").and_then(Value::as_str).ok_or("run without workload")?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or("run without result.metrics")?;
        for (name, metric) in metrics {
            let value =
                metric.get("value").and_then(Value::as_f64).ok_or("metric without value")?;
            let key = (workload.to_string(), name.clone());
            match out.iter_mut().find(|(k, _)| *k == key) {
                Some((_, values)) => values.push(value),
                None => out.push((key, vec![value])),
            }
        }
    }
    Ok(out)
}

/// Every metric by name with its unit; with several seeds, the median and
/// the spread the acceptance procedure looks at.
fn print_set(set: &Value) {
    let Ok(samples) = samples_of(set) else { return };
    let mut current = "";
    for ((workload, metric), values) in &samples {
        if workload != current {
            println!("\n{workload}");
            current = workload;
        }
        let Some(spec::Metric { unit, bound, .. }) = spec::lookup(metric) else { continue };
        // A layer this workload's trace does not reach reads 0: leave it out.
        if bound.is_none() && values.iter().all(|v| *v == 0.0) {
            continue;
        }
        let mut line = format!("  {metric:<34} {:>16.4} {unit:<8}", median(values));
        if let Some(spread) = spread(values) {
            line.push_str(&format!(" n={} spread {:>6.2} %", values.len(), 100.0 * spread));
            if let Some(bound) = *bound {
                let third = 100.0 * bound / 3.0;
                line.push_str(&if 100.0 * spread <= third {
                    format!(" (<= {third:.2} %)")
                } else {
                    format!(" (> {third:.2} % = bound/3: UNSTEADY)")
                });
            }
        }
        println!("{line}");
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Better,
    Unresolved,
    /// Per-layer metrics carry no bound and get no verdict.
    Unbounded,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Worse => "worse",
            Self::Better => "better",
            Self::Unresolved => "unresolved",
            Self::Unbounded => "-",
        }
    }
}

/// Judges B against A. `unresolved` when either side's own spread
/// (interquartile distance over median, known from two runs up) exceeds the
/// bound: then the data cannot tell a regression from noise.
pub fn judge(a: &[f64], b: &[f64], better: &str, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else { return Verdict::Unbounded };
    if [a, b].iter().any(|side| spread(side).is_some_and(|s| s > bound)) {
        return Verdict::Unresolved;
    }
    let (base, new) = (median(a), median(b));
    if base == 0.0 {
        return Verdict::Unresolved;
    }
    let worse_by = if better == "lower" { (new - base) / base } else { (base - new) / base };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

/// `hoga-bench diff A.json B.json`: A is the base of every ratio.
pub fn diff(argv: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = argv else {
        return Err("diff takes two run-set files".to_string());
    };
    let read = |path: &String| -> Result<Samples, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        samples_of(&json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (read(a_path)?, read(b_path)?);
    println!(
        "{:<18} {:<34} {:>14} {:>14} {:>9}  {:<10} unit, bound",
        "workload", "metric", "A (base)", "B", "B/A", "verdict"
    );
    let mut worse = 0;
    for ((workload, metric), a_values) in &a {
        let Some((_, b_values)) = b.iter().find(|(k, _)| k.0 == *workload && k.1 == *metric) else {
            continue;
        };
        let Some(spec::Metric { unit, better, bound, .. }) = spec::lookup(metric) else {
            continue;
        };
        if bound.is_none() && a_values.iter().chain(b_values).all(|v| *v == 0.0) {
            continue;
        }
        let verdict = judge(a_values, b_values, better, *bound);
        worse += usize::from(verdict == Verdict::Worse);
        let (base, new) = (median(a_values), median(b_values));
        let ratio = if base == 0.0 { f64::NAN } else { new / base };
        println!(
            "{workload:<18} {metric:<34} {base:>14.4} {new:>14.4} {ratio:>9.4}  {:<10} {unit}, {} {better}",
            verdict.label(),
            bound.map_or("no bound,".to_string(), |b| format!("{:.0} %,", 100.0 * b)),
        );
    }
    println!("{worse} row(s) worse than the bound allows");
    Ok(if worse == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(rows: &[(&str, &str, f64)]) -> Value {
        let runs = rows
            .iter()
            .map(|&(workload, metric, value)| {
                let metric_obj =
                    Value::obj([("value", Value::Num(value)), ("unit", Value::str("ms"))]);
                Value::obj([
                    ("workload", Value::str(workload)),
                    ("seed", Value::Num(1.0)),
                    (
                        "result",
                        Value::obj([
                            ("correct", Value::Bool(true)),
                            ("metrics", Value::obj([(metric, metric_obj)])),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj([("kind", Value::str("run")), ("runs", Value::Arr(runs))])
    }

    #[test]
    fn written_run_set_reads_back_through_the_diff_reader() {
        let written =
            set(&[("serve_sweep", "p50_ms", 21.25), ("serve_sweep", "p50_ms", 21.75)]).pretty();
        let samples = samples_of(&json::parse(&written).expect("parse")).expect("samples");
        assert_eq!(
            samples,
            vec![(("serve_sweep".to_string(), "p50_ms".to_string()), vec![21.25, 21.75])]
        );
        assert!(samples_of(&Value::obj([("kind", Value::str("run"))])).is_err());
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let bound = Some(0.10);
        // Lower is better: +5 % ok, +20 % worse, -20 % better.
        assert_eq!(judge(&[100.0], &[105.0], "lower", bound), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[120.0], "lower", bound), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[80.0], "lower", bound), Verdict::Better);
        // Higher is better: the same numbers flip.
        assert_eq!(judge(&[100.0], &[120.0], "higher", bound), Verdict::Better);
        assert_eq!(judge(&[100.0], &[80.0], "higher", bound), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[95.0], "higher", bound), Verdict::Ok);
        // Exactly on the bound is still ok.
        assert_eq!(judge(&[100.0], &[110.0], "lower", bound), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[120.0], "lower", None), Verdict::Unbounded);
        assert_eq!(judge(&[0.0], &[1.0], "lower", bound), Verdict::Unresolved);
    }

    #[test]
    fn a_side_noisier_than_the_bound_is_unresolved_not_worse() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let noisy = [100.0, 160.0, 90.0, 150.0, 120.0];
        assert_eq!(judge(&steady, &noisy, "lower", Some(0.10)), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &steady, "lower", Some(0.10)), Verdict::Unresolved);
        let shifted: Vec<f64> = steady.iter().map(|v| v * 1.3).collect();
        assert_eq!(judge(&steady, &shifted, "lower", Some(0.10)), Verdict::Worse);
    }
}
