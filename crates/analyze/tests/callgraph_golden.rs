//! Golden tests for the workspace call graph: resolution policy (same
//! file wins, ambiguous names drop), SCC condensation on recursive and
//! mutually recursive corpora, seed propagation, and byte-identical
//! `to_json` output regardless of input order — the determinism contract
//! every call-graph finding's witness path rests on.

use std::path::Path;

use hoga_analyze::callgraph::build_graph;
use hoga_analyze::workspace::read_workspace_sources;
use hoga_analyze::{analyze_file, FileFacts, FileProfile};

fn input(rel: &str, src: &str) -> FileFacts {
    analyze_file(rel, src, FileProfile::default())
}

// ---------------------------------------------------------------------------
// Synthetic corpus
// ---------------------------------------------------------------------------

#[test]
fn panic_seed_propagates_up_a_cross_file_chain() {
    let a = "fn top(v: Option<u32>) -> u32 {\n\
                 mid(v)\n\
             }\n\
             fn pure(x: u32) -> u32 {\n\
                 x\n\
             }\n";
    let b = "pub(crate) fn mid(v: Option<u32>) -> u32 {\n\
                 bottom(v)\n\
             }\n\
             fn bottom(v: Option<u32>) -> u32 {\n\
                 v.unwrap()\n\
             }\n";
    let mut g = build_graph(&[input("src/a.rs", a), input("src/b.rs", b)]);
    g.propagate();
    assert!(g.may_panic("src/b.rs", "bottom"), "the seed itself");
    assert!(g.may_panic("src/b.rs", "mid"), "one hop");
    assert!(g.may_panic("src/a.rs", "top"), "across files via the unique name `mid`");
    assert!(!g.may_panic("src/a.rs", "pure"), "no path to the seed");
}

#[test]
fn ambiguous_names_produce_no_edge() {
    // `helper` is defined in two files; a call from a third must not bind
    // to either — under-approximate rather than invent reachability.
    let caller = "fn top(v: Option<u32>) -> u32 {\n\
                      helper(v)\n\
                  }\n";
    let h1 = "fn helper(v: Option<u32>) -> u32 {\n\
                  v.unwrap()\n\
              }\n";
    let h2 = "fn helper(v: Option<u32>) -> u32 {\n\
                  v.unwrap()\n\
              }\n";
    let mut g =
        build_graph(&[input("src/a.rs", caller), input("src/b.rs", h1), input("src/c.rs", h2)]);
    g.propagate();
    assert_eq!(g.edges(), 0, "the ambiguous call must not resolve");
    assert!(!g.may_panic("src/a.rs", "top"));
    assert!(g.may_panic("src/b.rs", "helper"));
    assert!(g.may_panic("src/c.rs", "helper"));
}

#[test]
fn same_file_definition_wins_over_a_unique_foreign_one() {
    let a = "fn top(v: Option<u32>) -> u32 {\n\
                 helper(v)\n\
             }\n\
             fn helper(v: Option<u32>) -> u32 {\n\
                 0\n\
             }\n";
    let b = "fn helper(v: Option<u32>) -> u32 {\n\
                 v.unwrap()\n\
             }\n";
    let mut g = build_graph(&[input("src/a.rs", a), input("src/b.rs", b)]);
    g.propagate();
    assert_eq!(g.edges(), 1, "top -> local helper only");
    assert!(!g.may_panic("src/a.rs", "top"), "must bind to the clean local helper");
    assert!(g.may_panic("src/b.rs", "helper"));
}

#[test]
fn direct_recursion_is_a_self_loop_scc() {
    let src = "fn rec(n: u32) -> u32 {\n\
                   if n == 0 {\n\
                       panic!(\"bottom\")\n\
                   }\n\
                   rec(n)\n\
               }\n";
    let mut g = build_graph(&[input("src/a.rs", src)]);
    assert_eq!(g.nodes(), 1);
    assert_eq!(g.edges(), 1, "the self edge is kept");
    assert_eq!(g.sccs(), 1);
    g.propagate();
    assert!(g.may_panic("src/a.rs", "rec"));
}

#[test]
fn mutual_recursion_condenses_into_one_scc() {
    // `even` and `odd` call each other; `entry` calls into the cycle. The
    // panic seed sits on one cycle member but must mark the whole SCC.
    let src = "fn entry(n: u32) -> bool {\n\
                   even(n)\n\
               }\n\
               fn even(n: u32) -> bool {\n\
                   odd(n)\n\
               }\n\
               fn odd(n: u32) -> bool {\n\
                   if n == 7 {\n\
                       panic!(\"seven\")\n\
                   }\n\
                   even(n)\n\
               }\n";
    let mut g = build_graph(&[input("src/a.rs", src)]);
    assert_eq!(g.nodes(), 3);
    assert_eq!(g.sccs(), 2, "`even`/`odd` share a component, `entry` has its own");
    let visits = g.propagate();
    assert!(visits >= g.edges(), "single pass visits every edge at least once");
    assert!(g.may_panic("src/a.rs", "entry"));
    assert!(g.may_panic("src/a.rs", "even"));
    assert!(g.may_panic("src/a.rs", "odd"));
}

#[test]
fn test_code_contributes_neither_nodes_nor_seeds() {
    let src = "fn live(x: u32) -> u32 {\n\
                   x\n\
               }\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn fixture(v: Option<u32>) -> u32 {\n\
                       v.unwrap()\n\
                   }\n\
               }\n";
    let g = build_graph(&[input("src/a.rs", src)]);
    assert_eq!(g.nodes(), 1, "only the non-test definition");
}

/// Soft seeds are judged per statement. A condition is a statement apart
/// from the `let` it initialises, so its `>` bounds `span`, not `s`.
#[test]
fn a_condition_does_not_bound_the_let_it_initialises() {
    let src = "fn ratio(span: f32, lo: f32) -> f32 {\n\
                   let (s, z) = if span > 0.0 { (span, 1.0) } else { (1.0, 0.0) };\n\
                   lo / s + z\n\
               }\n";
    let mut g = build_graph(&[input("src/a.rs", src)]);
    g.propagate();
    assert!(g.may_panic("src/a.rs", "ratio"), "`lo / s` is an unchecked divisor");
}

/// A match arm's `=>` ends a statement and is no comparison: it bounds
/// nothing on either side.
#[test]
fn a_match_arrow_is_not_a_comparison() {
    let src = "fn pick(k: u8, rows: usize) -> f32 {\n\
                   match k {\n\
                       0 => 0.0,\n\
                       _ => 2.0 / rows as f32,\n\
                   }\n\
               }\n";
    let mut g = build_graph(&[input("src/a.rs", src)]);
    g.propagate();
    assert!(g.may_panic("src/a.rs", "pick"), "`2.0 / rows` is an unchecked divisor");
}

// ---------------------------------------------------------------------------
// Determinism of the rendered graph
// ---------------------------------------------------------------------------

#[test]
fn to_json_is_independent_of_input_order() {
    let a = "fn top(v: Option<u32>) -> u32 {\n\
                 mid(v)\n\
             }\n";
    let b = "pub(crate) fn mid(v: Option<u32>) -> u32 {\n\
                 v.unwrap()\n\
             }\n";
    let fwd = [input("src/a.rs", a), input("src/b.rs", b)];
    let rev = [input("src/b.rs", b), input("src/a.rs", a)];
    let mut g1 = build_graph(&fwd);
    let mut g2 = build_graph(&rev);
    g1.propagate();
    g2.propagate();
    assert_eq!(g1.to_json(), g2.to_json(), "node order is sorted (file, name), not input order");
}

#[test]
fn to_json_carries_schema_counts_and_qualified_edges() {
    let a = "fn top(v: Option<u32>) -> u32 {\n\
                 mid(v)\n\
             }\n";
    let b = "pub(crate) fn mid(v: Option<u32>) -> u32 {\n\
                 v.unwrap()\n\
             }\n";
    let mut g = build_graph(&[input("src/a.rs", a), input("src/b.rs", b)]);
    g.propagate();
    let json = g.to_json();
    assert!(json.contains("\"schema\": \"hoga-analyze-callgraph v1\""), "json: {json}");
    assert!(json.contains("\"nodes\": 2"), "json: {json}");
    assert!(json.contains("\"calls\": [\"src/b.rs::mid\"]"), "edges are file-qualified: {json}");
    assert!(json.contains("\"may_panic\": true"), "json: {json}");
    assert!(json.ends_with("}\n"), "artifact ends with a newline for clean diffs");
}

#[test]
fn propagate_is_idempotent() {
    let src = "fn entry(n: u32) -> bool {\n\
                   even(n)\n\
               }\n\
               fn even(n: u32) -> bool {\n\
                   odd(n)\n\
               }\n\
               fn odd(n: u32) -> bool {\n\
                   if n == 7 {\n\
                       panic!(\"seven\")\n\
                   }\n\
                   even(n)\n\
               }\n";
    let mut g = build_graph(&[input("src/a.rs", src)]);
    let first = g.propagate();
    let snapshot = g.to_json();
    let second = g.propagate();
    assert_eq!(first, second, "edge-visit count is a pure function of the graph");
    assert_eq!(g.to_json(), snapshot, "re-propagation must not perturb the artifact");
}

// ---------------------------------------------------------------------------
// The analyzer's own sources as a corpus
// ---------------------------------------------------------------------------

#[test]
fn analyzer_sources_build_a_deterministic_graph() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = read_workspace_sources(root).expect("read analyzer sources");
    assert!(!sources.is_empty());
    let inputs: Vec<FileFacts> = sources.iter().map(|(rel, s)| input(rel, s)).collect();
    let mut g1 = build_graph(&inputs);
    let mut g2 = build_graph(&inputs);
    g1.propagate();
    g2.propagate();
    assert!(g1.nodes() > 0);
    assert!(g1.sccs() <= g1.nodes());
    assert_eq!(g1.to_json(), g2.to_json(), "two builds over the same corpus are byte-identical");
    // A known anchor: this test file's own corpus includes callgraph.rs,
    // whose `build_graph` is a real definition the graph must carry.
    assert!(
        g1.to_json().contains("\"name\": \"build_graph\""),
        "the analyzer's own entry point must appear as a node"
    );
}
