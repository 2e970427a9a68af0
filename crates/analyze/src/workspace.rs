//! Workspace walking: discovers `.rs` files, assigns each file a
//! [`FileProfile`] from its path, and folds per-file findings into one
//! report.

use std::fs;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::rules::{analyze_file, finish, flow_findings, FileProfile, Finding};
use crate::symbols::dead_api_findings;

/// Modules that must stay panic-free on non-test paths (R1). Entries
/// ending in `/` match every file under that prefix; the rest are exact
/// paths. The analyzer audits its own sources: a linter that panics on a
/// weird token stream takes CI down with it.
pub(crate) const HARDENED_MODULES: &[&str] = &[
    "crates/analyze/src/",
    "crates/circuit/src/aiger.rs",
    "crates/datasets/src/io.rs",
    "crates/eval/src/trainer.rs",
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
/// [`HARDENED_MODULES`]. The analyzer's own lexer/parser decode
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

/// The only files allowed to contain the `unsafe` keyword. Each entry is
/// an individually audited module — currently just the AVX2 kernel
/// backend, whose crate root demotes `forbid(unsafe_code)` to `deny` so
/// this one module can `allow` it. `tests/unsafe_policy.rs` enforces the
/// list over the whole workspace: no `unsafe` token outside it, and the
/// matching `forbid`/`deny` attribute on every crate root.
pub const UNSAFE_ALLOWLIST: &[&str] = &["crates/tensor/src/simd.rs"];

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

/// Reads every workspace `.rs` file into `(relative path, source)` pairs,
/// sorted by relative path — the analyzer's one read of the sources.
pub fn read_workspace_sources(root: &Path) -> Result<Vec<(String, String)>, WalkError> {
    let mut sources = Vec::new();
    for (rel, path) in workspace_rs_files(root)? {
        let src = fs::read_to_string(&path).map_err(|source| WalkError { path, source })?;
        sources.push((rel, src));
    }
    Ok(sources)
}

/// What a workspace run did, for `--stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisStats {
    /// Files analyzed.
    pub files: usize,
    /// Function nodes in the workspace call graph.
    pub call_nodes: u64,
    /// Call edges in the workspace call graph (name-level, deduplicated).
    pub call_edges: u64,
    /// Strongly connected components in the call graph.
    pub call_sccs: u64,
}

/// Analyzes every `.rs` file under `root`: the walk, the per-file stage
/// ([`analyze_file`]) on each source, then the two cross-file resolvers —
/// *flow* (R13 over the call graph) and
/// *dead-API* (R6 over the symbol graph) — whose findings are folded into
/// each file's suppression pass so a justified allow at the definition
/// site works the same way for every layer. Returns the findings sorted by
/// (file, line, col), the run statistics, and the workspace call graph.
///
/// Nothing is kept between runs: the report is a pure function of the
/// file contents, and a cold run is cheap enough (see "Linter performance"
/// in `docs/STATIC_ANALYSIS.md`) that persisting anything would cost more
/// than it saves.
pub fn analyze_workspace(
    root: &Path,
) -> Result<(Vec<Finding>, AnalysisStats, CallGraph), WalkError> {
    let files: Vec<_> = read_workspace_sources(root)?
        .iter()
        .map(|(rel, src)| analyze_file(rel, src, profile_for(rel)))
        .collect();
    let (flow, graph) = flow_findings(&files);
    let stats = AnalysisStats {
        files: files.len(),
        call_nodes: graph.nodes(),
        call_edges: graph.edges(),
        call_sccs: graph.sccs(),
    };
    let mut cross = dead_api_findings(&files);
    cross.extend(flow);
    Ok((finish(files, cross), stats, graph))
}

/// Decides which rules apply to a workspace-relative path.
pub(crate) fn profile_for(rel: &str) -> FileProfile {
    let all_test = rel.split('/').any(|c| c == "tests" || c == "benches" || c == "examples");
    FileProfile {
        panic_free: module_match(HARDENED_MODULES, rel),
        lossy_cast: module_match(DECODE_MODULES, rel),
        all_test,
        numeric: !all_test && NUMERIC_MODULES.iter().any(|m| rel.starts_with(m)),
        eval_path: rel.starts_with("crates/eval/src/"),
        pool_path: rel.starts_with("crates/jobs/src/"),
    }
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

/// Workspace-relative path with forward slashes (stable across platforms,
/// matches the entries in [`HARDENED_MODULES`]).
fn rel_string(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
