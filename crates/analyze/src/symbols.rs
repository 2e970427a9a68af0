//! The workspace symbol graph — definitions, references and liveness.
//!
//! Built from every file's [`FileFacts`] at once: the per-file stage
//! supplies the definitions ([`crate::parser`] items) and counts every
//! identifier occurrence as a (name, unit) reference, and a worklist
//! propagates liveness along two kinds of edges:
//!
//! * **type edges** — a live item keeps every workspace definition named in
//!   its type positions alive (a caller of `pub fn stats() -> RunStats`
//!   uses `RunStats` even if it never writes the name);
//! * **owner edges** — a live method keeps its `impl` subject alive.
//!
//! Roots are definitions referenced from *outside* their source unit
//! (another crate, or a `tests/`/`benches/`/`examples/` target — those are
//! separate linked crates, so demoting an item they name would not
//! compile). A `pub` definition in a library source unit that never
//! becomes live is dead public API (rule R6).
//!
//! Resolution is by name, not by path: two definitions sharing a name
//! shadow each other, which can only *under*-report dead API. That is the
//! right failure mode for a lint that demands action on every finding.

use std::collections::{BTreeMap, BTreeSet};

use crate::parser::{ItemKind, Visibility};
use crate::rules::{FileFacts, Finding};

/// One definition in the workspace.
#[derive(Debug, Clone)]
pub struct SymbolDef {
    /// Declared name.
    pub name: String,
    /// Source unit that owns it (see `source_unit`).
    pub unit: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// Item kind.
    pub kind: ItemKind,
    /// Visibility as written.
    pub vis: Visibility,
    /// Defined inside a `#[cfg(test)]` item (never part of the API).
    pub in_test_item: bool,
    /// Names this definition's type positions mention (liveness edges).
    pub(crate) dep_names: Vec<String>,
    /// `impl` subject for methods (owner edge).
    pub(crate) owner: Option<String>,
}

/// The assembled graph plus its liveness fixpoint.
#[derive(Debug)]
pub(crate) struct SymbolGraph {
    defs: Vec<SymbolDef>,
    live: Vec<bool>,
    /// name → unit → identifier occurrences.
    refs: BTreeMap<String, BTreeMap<String, usize>>,
}

/// The source unit a workspace-relative path belongs to.
///
/// A unit is a separately compiled target: `crates/X/src` is the library
/// `crates/X`; `crates/X/tests` (or `benches`, `examples`) are distinct
/// units because each file there links against the *public* API of the
/// library. Root-package paths map to `root`, `tests`, `examples`, ...
pub(crate) fn source_unit(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    // Binary targets (`src/main.rs`, `src/bin/*`) consume the sibling
    // library's *public* API, so they form their own unit.
    let is_bin = |tail: &[&str]| tail.last() == Some(&"main.rs") || tail.first() == Some(&"bin");
    if parts.first() == Some(&"crates") && parts.len() >= 3 {
        if parts[2] == "src" {
            if is_bin(&parts[3..]) {
                format!("crates/{}/main", parts[1])
            } else {
                format!("crates/{}", parts[1])
            }
        } else {
            format!("crates/{}/{}", parts[1], parts[2])
        }
    } else if parts.first() == Some(&"src") {
        if is_bin(&parts[1..]) {
            "root/main".to_string()
        } else {
            "root".to_string()
        }
    } else {
        parts.first().unwrap_or(&"root").to_string()
    }
}

/// Is `unit` a library/binary source unit (whose `pub` items are API)?
pub(crate) fn is_src_unit(unit: &str) -> bool {
    unit == "root" || (unit.starts_with("crates/") && unit.matches('/').count() == 1)
}

impl SymbolGraph {
    /// Assembles the graph from every file's definitions and identifier
    /// counts and runs the liveness fixpoint. Reference entries for names
    /// that define nothing are dropped.
    pub(crate) fn from_files(files: &[FileFacts]) -> SymbolGraph {
        let defs: Vec<SymbolDef> = files.iter().flat_map(|f| f.defs.iter().cloned()).collect();
        let names: BTreeSet<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        let mut refs: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
        for file in files {
            let unit = source_unit(&file.rel);
            for (name, count) in file.idents.iter().filter(|(n, _)| names.contains(n.as_str())) {
                *refs.entry(name.clone()).or_default().entry(unit.clone()).or_insert(0) += *count;
            }
        }
        let mut graph = SymbolGraph { live: vec![false; defs.len()], defs, refs };
        graph.propagate();
        graph
    }

    /// Worklist liveness: roots are externally referenced defs, edges are
    /// type deps and method owners.
    fn propagate(&mut self) {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, d) in self.defs.iter().enumerate() {
            by_name.entry(d.name.as_str()).or_default().push(i);
        }
        let mut work: Vec<usize> =
            (0..self.defs.len()).filter(|&i| self.external_refs(&self.defs[i]) > 0).collect();
        for &i in &work {
            self.live[i] = true;
        }
        while let Some(i) = work.pop() {
            let mut reached: Vec<usize> = Vec::new();
            for dep in &self.defs[i].dep_names {
                if let Some(targets) = by_name.get(dep.as_str()) {
                    reached.extend_from_slice(targets);
                }
            }
            if let Some(owner) = &self.defs[i].owner {
                if let Some(targets) = by_name.get(owner.as_str()) {
                    reached.extend_from_slice(targets);
                }
            }
            for j in reached {
                if !self.live[j] {
                    self.live[j] = true;
                    work.push(j);
                }
            }
        }
    }

    /// Identifier occurrences of `def.name` outside `def.unit`.
    pub(crate) fn external_refs(&self, def: &SymbolDef) -> usize {
        self.refs
            .get(&def.name)
            .map(|per_unit| per_unit.iter().filter(|(u, _)| **u != def.unit).map(|(_, n)| *n).sum())
            .unwrap_or(0)
    }

    /// Dead public API: `pub` definitions in library source units that the
    /// liveness fixpoint never reached. `main`/`mod` definitions and items
    /// inside `#[cfg(test)]` are exempt.
    pub(crate) fn dead_public(&self) -> Vec<&SymbolDef> {
        self.defs
            .iter()
            .enumerate()
            .filter(|(i, d)| {
                !self.live[*i]
                    && d.vis == Visibility::Public
                    && is_src_unit(&d.unit)
                    && !d.in_test_item
                    && d.name != "main"
                    && d.kind != ItemKind::Mod
            })
            .map(|(_, d)| d)
            .collect()
    }
}

/// The *dead-API* resolver (R6): builds the symbol graph over `files` and
/// reports every `pub` definition nothing outside its crate keeps alive.
pub(crate) fn dead_api_findings(files: &[FileFacts]) -> Vec<Finding> {
    SymbolGraph::from_files(files)
        .dead_public()
        .into_iter()
        .map(|def| Finding {
            file: def.file.clone(),
            line: def.line,
            col: def.col,
            rule: "dead-public-api",
            message: format!(
                "pub {} `{}` has no references outside `{}`; demote to pub(crate)/private, \
                 delete it, or justify with `// analyze: allow(dead-public-api) — <why>`",
                def.kind.label(),
                def.name,
                def.unit
            ),
            symbol: Some(def.name.clone()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The graph over `(path, source)` pairs, through the production
    /// per-file stage.
    fn build(list: &[(&str, &str)]) -> SymbolGraph {
        let files: Vec<FileFacts> = list
            .iter()
            .map(|(rel, src)| crate::rules::analyze_file(rel, src, Default::default()))
            .collect();
        SymbolGraph::from_files(&files)
    }

    #[test]
    fn source_units_split_library_from_test_targets() {
        assert_eq!(source_unit("crates/tensor/src/matrix.rs"), "crates/tensor");
        assert_eq!(source_unit("crates/tensor/tests/it.rs"), "crates/tensor/tests");
        assert_eq!(source_unit("crates/bench/benches/fig5.rs"), "crates/bench/benches");
        assert_eq!(source_unit("crates/analyze/src/main.rs"), "crates/analyze/main");
        assert_eq!(source_unit("crates/x/src/bin/tool.rs"), "crates/x/main");
        assert_eq!(source_unit("src/main.rs"), "root/main");
        assert_eq!(source_unit("src/lib.rs"), "root");
        assert_eq!(source_unit("examples/demo.rs"), "examples");
        assert!(is_src_unit("crates/tensor"));
        assert!(!is_src_unit("crates/tensor/tests"));
        assert!(!is_src_unit("crates/analyze/main"));
        assert!(is_src_unit("root"));
    }

    #[test]
    fn bin_target_use_counts_as_external() {
        let g = build(&[
            ("crates/a/src/lib.rs", "pub fn run() {}\n"),
            ("crates/a/src/main.rs", "fn main() { a::run(); }\n"),
        ]);
        assert!(g.dead_public().is_empty(), "dead: {:?}", g.dead_public());
    }

    #[test]
    fn externally_used_pub_fn_is_live_and_unused_one_is_dead() {
        let g = build(&[
            ("crates/a/src/lib.rs", "pub fn used() {}\npub fn unused() {}\n"),
            ("crates/b/src/lib.rs", "fn f() { a::used(); }\n"),
        ]);
        let dead: Vec<&str> = g.dead_public().iter().map(|d| d.name.as_str()).collect();
        assert_eq!(dead, ["unused"]);
    }

    #[test]
    fn use_from_own_tests_dir_counts_as_external() {
        // tests/ is a separate linked crate: demoting the item would break it.
        let g = build(&[
            ("crates/a/src/lib.rs", "pub fn helper() {}\n"),
            ("crates/a/tests/it.rs", "#[test]\nfn t() { a::helper(); }\n"),
        ]);
        assert!(g.dead_public().is_empty());
    }

    #[test]
    fn return_type_of_live_fn_is_kept_alive() {
        // `Stats` is never written outside crates/a, but `stats()` is used
        // and returns it — the type edge keeps it alive.
        let g = build(&[
            (
                "crates/a/src/lib.rs",
                "pub struct Stats { pub n: usize }\npub fn stats() -> Stats { Stats { n: 0 } }\n",
            ),
            ("crates/b/src/lib.rs", "fn f() { let s = a::stats(); let _ = s.n; }\n"),
        ]);
        assert!(g.dead_public().is_empty(), "dead: {:?}", g.dead_public());
    }

    #[test]
    fn live_method_keeps_its_impl_subject_alive() {
        let g = build(&[
            (
                "crates/a/src/lib.rs",
                "pub struct Acc;\nimpl Acc {\n    pub fn push(&mut self) {}\n}\n\
                 pub fn acc() -> Acc { Acc }\n",
            ),
            ("crates/b/src/lib.rs", "fn f() { a::acc().push(); }\n"),
        ]);
        assert!(g.dead_public().is_empty(), "dead: {:?}", g.dead_public());
    }

    #[test]
    fn cfg_test_items_and_main_are_exempt() {
        let g = build(&[(
            "crates/a/src/main.rs",
            "fn main() {}\n#[cfg(test)]\nmod tests {\n    pub fn fixture() {}\n}\n",
        )]);
        assert!(g.dead_public().is_empty(), "dead: {:?}", g.dead_public());
    }

    #[test]
    fn pub_crate_items_are_never_dead_api() {
        let g = build(&[("crates/a/src/lib.rs", "pub(crate) fn internal() {}\nfn private() {}\n")]);
        assert!(g.dead_public().is_empty());
    }

    #[test]
    fn dead_chain_is_not_kept_alive_by_itself() {
        // `only_dead_caller` mentions `Lost` in its signature, but is dead
        // itself — liveness must not leak from dead definitions.
        let g = build(&[(
            "crates/a/src/lib.rs",
            "pub struct Lost;\npub fn only_dead_caller() -> Lost { Lost }\n",
        )]);
        let dead: Vec<&str> = g.dead_public().iter().map(|d| d.name.as_str()).collect();
        assert_eq!(dead, ["Lost", "only_dead_caller"]);
    }
}
