//! Workspace walking: discovers `.rs` files and crate roots, assigns each
//! file a [`FileProfile`], and folds per-file findings into one report.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::cache::{compute_artifact, load_artifact, profile_bits, store_artifact, FileArtifact};
use crate::det::merge_summaries;
use crate::rules::{FileProfile, Finding};
use crate::symbols::{source_unit, SymbolGraph};

/// Modules that must stay panic-free on non-test paths (R1). Entries
/// ending in `/` match every file under that prefix; the rest are exact
/// paths. The analyzer audits its own sources: a linter that panics on a
/// weird token stream takes CI down with it.
pub(crate) const HARDENED_MODULES: &[&str] = &[
    "crates/analyze/src/",
    "crates/circuit/src/aiger.rs",
    "crates/datasets/src/io.rs",
    "crates/eval/src/trainer.rs",
    "crates/eval/src/parallel_train.rs",
    "crates/eval/src/sched.rs",
    "crates/hoga/src/infer.rs",
    "crates/jobs/src/engine.rs",
    "crates/jobs/src/events.rs",
    "crates/jobs/src/fault.rs",
    "crates/jobs/src/job.rs",
    "crates/jobs/src/retry.rs",
    "crates/serve/src/",
    "crates/tensor/src/matrix.rs",
];

/// Decode/parse files where `as u32`/`as usize`/`as i64` casts must be
/// checked conversions (R2). Same prefix convention as
/// [`HARDENED_MODULES`]. The analyzer's own lexer/parser/cache decode
/// untrusted bytes, so they hold themselves to the decode rules too.
pub(crate) const DECODE_MODULES: &[&str] = &[
    "crates/analyze/src/",
    "crates/circuit/src/aiger.rs",
    "crates/datasets/src/io.rs",
    "crates/serve/src/",
];

/// `true` when `rel` matches an exact entry or a `/`-terminated prefix
/// entry of a module list.
pub(crate) fn module_match(list: &[&str], rel: &str) -> bool {
    list.iter().any(|m| if m.ends_with('/') { rel.starts_with(m) } else { *m == rel })
}

/// Library sources on the numeric path, where float `==`/`!=` is exact
/// bit comparison after arithmetic and therefore flagged (R7).
pub(crate) const NUMERIC_MODULES: &[&str] =
    &["crates/tensor/src/", "crates/autograd/src/", "crates/eval/src/"];

/// The only files allowed to contain the `unsafe` keyword (R3). Each entry
/// is an individually audited module — currently just the AVX2 kernel
/// backend, whose crate root demotes `forbid(unsafe_code)` to `deny` so
/// this one module can `allow` it. Every
/// other file in the workspace is scanned token-wise: any `unsafe`
/// outside this list is a finding regardless of crate-level attributes.
pub const UNSAFE_ALLOWLIST: &[&str] = &["crates/tensor/src/simd.rs"];

/// The `crates/<name>/` prefix of a workspace-relative path (empty when
/// the path has fewer than two components) — used to decide whether a
/// crate root owns an [`UNSAFE_ALLOWLIST`] module.
pub(crate) fn crate_prefix(rel: &str) -> &str {
    let mut slashes = 0;
    for (i, b) in rel.bytes().enumerate() {
        if b == b'/' {
            slashes += 1;
            if slashes == 2 {
                return &rel[..=i];
            }
        }
    }
    ""
}

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "node_modules"];

/// Errors from walking the workspace (I/O only; findings are not errors).
#[derive(Debug)]
pub struct WalkError {
    pub path: PathBuf,
    pub source: std::io::Error,
}

impl std::fmt::Display for WalkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for WalkError {}

/// Every workspace `.rs` file as `(workspace-relative path, absolute
/// path)`, sorted by relative path. Exposed so the lexer differential test
/// iterates exactly the files the linter sees.
pub fn workspace_rs_files(root: &Path) -> Result<Vec<(String, PathBuf)>, WalkError> {
    let mut rs_files = Vec::new();
    collect_rs_files(root, &mut rs_files)?;
    let mut out: Vec<(String, PathBuf)> =
        rs_files.into_iter().map(|p| (rel_string(root, &p), p)).collect();
    out.sort();
    Ok(out)
}

/// Reads every workspace `.rs` file into `(relative path, source)` pairs —
/// the input shape [`SymbolGraph::build`] wants.
pub fn read_workspace_sources(root: &Path) -> Result<Vec<(String, String)>, WalkError> {
    let mut sources = Vec::new();
    for (rel, path) in workspace_rs_files(root)? {
        let src = fs::read_to_string(&path).map_err(|source| WalkError { path, source })?;
        sources.push((rel, src));
    }
    Ok(sources)
}

/// Tuning knobs for [`analyze_workspace_with`].
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    /// When set, per-file analysis artifacts are read from and written to
    /// this directory, keyed by content hash — an unchanged file is never
    /// re-lexed or re-analyzed.
    pub cache_dir: Option<PathBuf>,
}

/// What a workspace run did, for `--stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Files analyzed (hit + miss).
    pub files: usize,
    /// Files served from the artifact cache without reparsing.
    pub cache_hits: usize,
    /// Files analyzed from source this run.
    pub cache_misses: usize,
    /// Function CFGs built (or replayed from cache).
    pub cfgs: u64,
    /// Basic blocks across all CFGs.
    pub blocks: u64,
    /// CFG edges across all CFGs.
    pub edges: u64,
    /// Worklist transfers executed across all dataflow fixpoints.
    pub fixpoint_iterations: u64,
    /// Function nodes in the workspace call graph.
    pub call_nodes: u64,
    /// Call edges in the workspace call graph (name-level, deduplicated).
    pub call_edges: u64,
    /// Strongly connected components in the call graph.
    pub call_sccs: u64,
}

/// Analyzes every `.rs` file under `root` and returns all findings,
/// sorted by (file, line, col).
///
/// Three layers run: the per-file token rules (R1–R5, R7–R9), the
/// CFG-based dataflow rules (R10–R12), and the workspace
/// [`SymbolGraph`] (R6) plus interprocedural taint resolution, whose
/// findings are folded into each file's suppression pass so a justified
/// allow at the definition site works the same way for every layer.
// analyze: allow(dead-public-api) — cache-free convenience wrapper of the re-exported library surface; exercised by the `workspace_is_clean` gate test, so demoting would trip rustc dead_code in non-test builds
pub fn analyze_workspace(root: &Path) -> Result<Vec<Finding>, WalkError> {
    analyze_workspace_with(root, &AnalyzeOptions::default()).map(|(findings, _)| findings)
}

/// [`analyze_workspace`] with options (artifact cache) and run statistics.
///
/// The per-file stage produces a [`FileArtifact`] per source file —
/// computed fresh or loaded from `cache_dir` when the content hash,
/// profile, and format version all match. The cross-file stage is a pure
/// function of the artifacts, so cached and uncached runs produce
/// byte-identical reports by construction.
pub fn analyze_workspace_with(
    root: &Path,
    opts: &AnalyzeOptions,
) -> Result<(Vec<Finding>, AnalysisStats), WalkError> {
    analyze_workspace_graph(root, opts).map(|(findings, stats, _)| (findings, stats))
}

/// [`analyze_workspace_with`] that also returns the workspace call graph
/// (the `--callgraph` CI artifact).
pub fn analyze_workspace_graph(
    root: &Path,
    opts: &AnalyzeOptions,
) -> Result<(Vec<Finding>, AnalysisStats, crate::callgraph::CallGraph), WalkError> {
    let crate_roots = discover_crate_roots(root)?;
    let mut stats = AnalysisStats::default();
    let mut artifacts = Vec::new();
    for (rel, path) in workspace_rs_files(root)? {
        let src = fs::read_to_string(&path).map_err(|source| WalkError { path, source })?;
        let profile = profile_for(&rel, &crate_roots);
        let bits = profile_bits(profile);
        let hash = crate::cache::fnv1a64(src.as_bytes());
        let cached = opts.cache_dir.as_deref().and_then(|dir| load_artifact(dir, &rel, hash, bits));
        let art = match cached {
            Some(art) => {
                stats.cache_hits += 1;
                art
            }
            None => {
                stats.cache_misses += 1;
                let art = compute_artifact(&rel, &src, profile);
                if let Some(dir) = opts.cache_dir.as_deref() {
                    // Best effort: a cache write failure costs speed on
                    // the next run, never correctness on this one.
                    let _ = store_artifact(dir, &art);
                }
                art
            }
        };
        stats.files += 1;
        stats.cfgs += art.stats.cfgs;
        stats.blocks += art.stats.blocks;
        stats.edges += art.stats.edges;
        stats.fixpoint_iterations += art.stats.fixpoint_iterations;
        artifacts.push(art);
    }
    let (findings, graph) = cross_file_stage(&artifacts);
    stats.call_nodes = graph.nodes();
    stats.call_edges = graph.edges();
    stats.call_sccs = graph.sccs();
    Ok((findings, stats, graph))
}

/// The cross-file stage: symbol graph + dead-API (R6), interprocedural
/// taint resolution (R10), call-graph propagation (R13–R15), then the
/// shared suppression pass per file. A pure function of the artifacts —
/// this is what guarantees cold and warm cache runs render identically.
fn cross_file_stage(artifacts: &[FileArtifact]) -> (Vec<Finding>, crate::callgraph::CallGraph) {
    let mut defs = Vec::new();
    let mut refs: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    for art in artifacts {
        defs.extend(art.defs_as_symbols());
        let unit = source_unit(&art.rel);
        for (name, count) in &art.refs {
            *refs.entry(name.clone()).or_default().entry(unit.clone()).or_insert(0) += *count;
        }
    }
    let graph = SymbolGraph::from_parts(defs, refs);
    let mut dead = dead_api_findings(&graph);
    let summaries = merge_summaries(artifacts.iter().flat_map(|a| a.sums.iter()));

    // Call-graph inputs: non-test fn defs plus the cached per-file facts.
    let inputs: Vec<crate::callgraph::CgFileInput> = artifacts
        .iter()
        .map(|art| crate::callgraph::CgFileInput {
            rel: art.rel.clone(),
            hardened: art.profile_bits & 1 == 1,
            defs: art
                .defs
                .iter()
                .filter(|d| d.kind == crate::parser::ItemKind::Fn && !d.in_test)
                .map(|d| crate::callgraph::CgDef {
                    name: d.name.clone(),
                    line: d.line,
                    col: d.col,
                    public: d.vis == crate::parser::Visibility::Public,
                })
                .collect(),
            facts: art.cg.clone(),
        })
        .collect();
    let mut call_graph = crate::callgraph::build_graph(&inputs);
    call_graph.propagate();
    let mut cg_findings = crate::callgraph::resolve_rules(&call_graph, &inputs);

    let mut findings = Vec::new();
    for art in artifacts {
        let mut fa = art.to_analysis();
        for f in crate::det::resolve_conditionals(&art.conds, &summaries) {
            fa.push_raw(f);
        }
        for f in dead.remove(art.rel.as_str()).unwrap_or_default() {
            fa.push_raw(f);
        }
        for f in cg_findings.remove(art.rel.as_str()).unwrap_or_default() {
            fa.push_raw(f);
        }
        findings.extend(fa.finish());
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.col).cmp(&(b.file.as_str(), b.line, b.col)));
    (findings, call_graph)
}

/// R6 findings from the symbol graph, grouped by file.
pub(crate) fn dead_api_findings(
    graph: &SymbolGraph,
) -> std::collections::BTreeMap<String, Vec<Finding>> {
    let mut by_file: std::collections::BTreeMap<String, Vec<Finding>> =
        std::collections::BTreeMap::new();
    for def in graph.dead_public() {
        by_file.entry(def.file.clone()).or_default().push(Finding {
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
            severity_override: None,
        });
    }
    by_file
}

/// Decides which rules apply to a workspace-relative path.
pub(crate) fn profile_for(rel: &str, crate_roots: &[String]) -> FileProfile {
    let all_test = rel.split('/').any(|c| c == "tests" || c == "benches" || c == "examples");
    let crate_root = crate_roots.iter().any(|r| r == rel);
    FileProfile {
        panic_free: module_match(HARDENED_MODULES, rel),
        lossy_cast: module_match(DECODE_MODULES, rel),
        crate_root,
        all_test,
        numeric: !all_test && NUMERIC_MODULES.iter().any(|m| rel.starts_with(m)),
        eval_path: rel.starts_with("crates/eval/src/"),
        pool_path: rel.starts_with("crates/jobs/src/"),
        unsafe_allowlisted: module_match(UNSAFE_ALLOWLIST, rel),
        owns_unsafe_module: crate_root
            && UNSAFE_ALLOWLIST.iter().any(|m| crate_prefix(m) == crate_prefix(rel)),
    }
}

/// Crate roots are `src/lib.rs` / `src/main.rs` siblings of a `Cargo.toml`
/// that has a `[package]` section (virtual workspace manifests don't count).
pub(crate) fn discover_crate_roots(root: &Path) -> Result<Vec<String>, WalkError> {
    let mut manifests = Vec::new();
    collect_manifests(root, &mut manifests)?;
    let mut roots = Vec::new();
    for manifest in manifests {
        let text = fs::read_to_string(&manifest)
            .map_err(|source| WalkError { path: manifest.clone(), source })?;
        if !text.lines().any(|l| l.trim() == "[package]") {
            continue;
        }
        let dir = manifest.parent().unwrap_or(root);
        for candidate in ["src/lib.rs", "src/main.rs"] {
            let p = dir.join(candidate);
            if p.is_file() {
                roots.push(rel_string(root, &p));
            }
        }
        // Explicit [[bin]] path entries are additional roots.
        for line in text.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("path") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    let v = v.trim().trim_matches('"');
                    if v.ends_with(".rs") {
                        let p = dir.join(v);
                        if p.is_file() {
                            let rel = rel_string(root, &p);
                            if !roots.contains(&rel) {
                                roots.push(rel);
                            }
                        }
                    }
                }
            }
        }
    }
    roots.sort();
    roots.dedup();
    Ok(roots)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), WalkError> {
    let entries =
        fs::read_dir(dir).map_err(|source| WalkError { path: dir.to_path_buf(), source })?;
    for entry in entries {
        let entry = entry.map_err(|source| WalkError { path: dir.to_path_buf(), source })?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn collect_manifests(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), WalkError> {
    let entries =
        fs::read_dir(dir).map_err(|source| WalkError { path: dir.to_path_buf(), source })?;
    for entry in entries {
        let entry = entry.map_err(|source| WalkError { path: dir.to_path_buf(), source })?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_manifests(&path, out)?;
        } else if name == "Cargo.toml" {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (stable across platforms,
/// matches the entries in [`HARDENED_MODULES`]).
fn rel_string(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
