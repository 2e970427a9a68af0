//! The benchmark's declared surface — workloads, end-to-end metrics with
//! their bounds, per-layer metrics — read from `BENCHMARK.json` at the
//! repository root, the one place it is written down. The file is compiled
//! in, so every run reports exactly the names it declares and `diff` judges
//! by exactly its bounds.

use crate::json::{self, Value};
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A declared metric; per-layer metrics have no bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Spec {
    /// Workload names, in the order `run` and `trace` go through them.
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Seconds one run measures.
    pub run_seconds: f64,
}

fn text(item: &Value, key: &str) -> String {
    item.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks the string {key:?}"))
        .to_string()
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no array {key:?}"))
}

fn metrics(doc: &Value, key: &str) -> Vec<Metric> {
    entries(doc, key)
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: text(m, "better"),
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

/// The parsed file. It is part of the binary, so a malformed one is a bug
/// in this package, caught by the first run and by the unit test below.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        Spec {
            workloads: entries(&doc, "workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json: run_seconds is a number"),
        }
    })
}

/// A declared metric by name, end-to-end or per-layer.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    let spec = spec();
    spec.end_to_end.iter().chain(&spec.per_layer).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn benchmark_json_is_inside_the_contract_limits() {
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let doc = json::parse(BENCHMARK_JSON).expect("valid JSON");
        let keys: Vec<&str> =
            doc.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let mut names = HashSet::new();
        for w in entries(&doc, "workloads") {
            let (name, why) = (text(w, "name"), text(w, "why"));
            assert!(name_ok(&name) && names.insert(name.clone()), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: {}", why.len());
            assert_eq!(w.as_obj().map(<[_]>::len), Some(2), "{name}");
        }

        let spec = spec();
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(name_ok(&m.name) && names.insert(m.name.clone()), "{}", m.name);
            assert!(unit_ok(&m.unit), "{}", m.unit);
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        }
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = lookup("setup_s").expect("setup_s declared");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        assert!(spec.end_to_end.iter().all(|m| m.bound <= setup.bound));
    }
}
