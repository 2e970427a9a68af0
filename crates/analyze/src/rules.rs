//! The rule engine and the rule catalogue.
//!
//! Rules operate on the token stream produced by [`crate::lexer`], so
//! matches inside string literals and comments are structurally impossible.
//! Each rule reports [`Finding`]s; inline suppressions
//! (`// analyze: allow(<rule>) — <justification>`) cancel findings on the
//! same or the following line and are themselves validated: a suppression
//! with no justification, an unknown rule id, or one that suppresses
//! nothing is an error.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::cfg::{function_cfgs, Cfg};
use crate::lexer::{lex, TokKind, Token};
use crate::parser::{parse_items, Item, ItemKind};
use crate::symbols::{source_unit, SymbolDef};

/// Stable identifiers for every rule the engine can emit. Suppression
/// comments name these ids.
pub(crate) const RULE_IDS: &[&str] = &[
    "panic-free-paths",
    "lossy-cast",
    "unsafe-forbidden",
    "todo-tracker",
    "invalid-suppression",
    "unused-suppression",
    "dead-public-api",
    "float-equality",
    "lock-discipline",
    "thread-hygiene",
    "determinism-taint",
    "unchecked-index",
    "swallowed-result",
    "panic-reachability",
    "lock-order",
    "blocking-under-lock",
];

/// Diagnostic severity of a rule id: `"error"` or `"warning"`. Both fail
/// the binary; severity is reporting metadata for the JSON consumer.
/// `determinism-taint` defaults to `warning` and is overridden to `error`
/// in hardened modules (see [`Finding::severity_override`]).
pub(crate) fn severity_of(rule: &str) -> &'static str {
    match rule {
        "todo-tracker" | "dead-public-api" | "determinism-taint" => "warning",
        _ => "error",
    }
}

/// The declared nondeterminism source lattice for R10 (`determinism-taint`).
/// Path patterns (`A::b`) match the qualified call; bare names match any
/// identifier occurrence. Two structural kinds are detected on top of this
/// table: unordered-container iteration ([`crate::det::SRC_UNORDERED`]) and
/// reassociated float reduction ([`crate::det::SRC_REASSOC`]).
pub(crate) const DET_SOURCES: &[(&str, &str)] = &[
    ("Instant::now", "monotonic clock read"),
    ("SystemTime::now", "wall-clock read"),
    ("UNIX_EPOCH", "wall-clock epoch arithmetic"),
    ("RandomState", "hash-seed randomization"),
    ("env::var", "environment read"),
    ("env::vars", "environment read"),
    ("env::var_os", "environment read"),
    ("thread::current", "thread identity"),
    ("available_parallelism", "machine parallelism"),
];

/// The declared persisted-sink set for R10/R12: callables whose output
/// lands in a durable artifact (checkpoints, manifest records, the job
/// event stream, atomically written report/bench files). A tainted value
/// reaching any of these is a determinism-contract violation.
pub(crate) const DET_SINKS: &[(&str, &str)] = &[
    ("encode_checkpoint", "checkpoint bytes"),
    ("encode_params", "checkpoint parameter block"),
    ("encode", "binary record encoding"),
    ("write_record", "manifest record"),
    ("write_atomic", "atomically persisted file"),
    ("emit", "job event stream"),
];

/// The declared workspace lock order, checked flow-sensitively by R14
/// (`lock-order`): a guard for a name earlier in this list may be held
/// while acquiring a later one; the reverse (or re-acquiring the same
/// name) is a deadlock hazard and is flagged. Locks outside this list are
/// still tracked — the must-lockset pass discovers their pairwise order
/// and the workspace stage reports any cycle. Locks are matched by the
/// *field or variable name* the guard is taken from, e.g.
/// `shared.grad_slots.lock()`.
pub(crate) const LOCK_ORDER: &[&str] = &["grad_slots", "event_log"];

/// One diagnostic: a rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id (one of [`RULE_IDS`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// The symbol the finding is about, when the rule knows one (R6 names
    /// the dead definition; token-level rules leave this `None`).
    pub symbol: Option<String>,
    /// Per-finding severity override. R10 reports `error` in hardened
    /// modules and the rule default (`warning`) elsewhere; every other
    /// rule leaves this `None`.
    pub severity_override: Option<&'static str>,
}

impl Finding {
    /// `"error"` or `"warning"` (see [`severity_of`] and
    /// [`Finding::severity_override`]).
    pub fn severity(&self) -> &'static str {
        self.severity_override.unwrap_or_else(|| severity_of(self.rule))
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}: [{}] {}", self.file, self.line, self.col, self.rule, self.message)
    }
}

/// Which checks apply to a given file (decided from the file's path by
/// `workspace::profile_for`).
#[derive(Debug, Clone, Copy, Default)]
pub struct FileProfile {
    /// R1: ban `panic!` / `unwrap()` / `expect(` / `unreachable!`.
    pub panic_free: bool,
    /// R2: require checked conversions instead of `as u32`/`as usize`/`as i64`.
    pub lossy_cast: bool,
    /// R3: this file is a crate root and must carry `#![forbid(unsafe_code)]`.
    pub crate_root: bool,
    /// R5: the whole file is test code (under a `tests/` directory), which
    /// relaxes R1 and R2 everywhere in it.
    pub all_test: bool,
    /// R7: this file is on a numeric path (`tensor`/`autograd`/`eval`
    /// library sources), where float `==`/`!=` is flagged.
    pub numeric: bool,
    /// R9: this file lives in `crates/eval/src`, where unscoped
    /// `std::thread::spawn` is banned outright.
    pub eval_path: bool,
    /// R9: this file lives in `crates/jobs/src` (the supervised worker
    /// pool), where join discipline also applies: a `join()` whose result
    /// is discarded or `.ok()`-swallowed loses a worker panic.
    pub pool_path: bool,
    /// R3: this file is an individually audited unsafe module
    /// ([`crate::workspace::UNSAFE_ALLOWLIST`]) — the only place `unsafe`
    /// tokens may appear.
    pub unsafe_allowlisted: bool,
    /// R3: this crate root owns an allowlisted unsafe module, so it must
    /// carry `#![deny(unsafe_code)]` — the strongest lint the module's
    /// `#![allow(unsafe_code)]` opt-in can still override.
    pub owns_unsafe_module: bool,
}

/// One source file prepared for analysis: lexed by the caller, then
/// comment-filtered, `#[cfg(test)]`-spanned, item-parsed and CFG-lowered
/// here, once. Every rule layer (token rules, dataflow, call-graph
/// extraction, definition/reference collection) reads this borrowed view;
/// none re-derives any part of it.
pub struct FileView<'a> {
    /// Workspace-relative path, used verbatim in diagnostics.
    pub(crate) rel: &'a str,
    /// The file's text.
    pub(crate) src: &'a str,
    /// Which checks apply to the file.
    pub(crate) profile: FileProfile,
    /// Every token, comments included (R4 and suppressions read comments).
    pub(crate) tokens: &'a [Token],
    /// The comment-free tokens every other rule matches on.
    pub code: Vec<&'a Token>,
    /// Byte spans of `#[cfg(test)]` items.
    pub(crate) test_spans: Vec<std::ops::Range<usize>>,
    /// Item headers, in source order.
    pub(crate) items: Vec<Item>,
    /// One CFG per `fn` body (none for whole-file test code, where no
    /// flow rule runs).
    pub cfgs: Vec<Cfg>,
}

impl<'a> FileView<'a> {
    /// Prepares `src`; `tokens` must be `lex(src)`.
    pub fn new(
        rel: &'a str,
        src: &'a str,
        tokens: &'a [Token],
        profile: FileProfile,
    ) -> FileView<'a> {
        let code: Vec<&Token> = tokens
            .iter()
            .filter(|t| {
                !matches!(t.kind, TokKind::LineComment { .. } | TokKind::BlockComment { .. })
            })
            .collect();
        let test_spans = cfg_test_spans(&code, src);
        let items = parse_items(&code, src);
        let cfgs = if profile.all_test { Vec::new() } else { function_cfgs(&code, &items, src) };
        FileView { rel, src, profile, tokens, code, test_spans, items, cfgs }
    }

    /// Is byte offset `pos` test code — anywhere in a `tests/` file, or
    /// inside a `#[cfg(test)]` item elsewhere? R1/R2/R7/R8 and the flow
    /// rules relax there (R5).
    pub(crate) fn in_test(&self, pos: usize) -> bool {
        self.profile.all_test || in_spans(pos, &self.test_spans)
    }

    /// The CFGs of non-test functions — what the flow rules walk.
    pub(crate) fn live_cfgs(&self) -> impl Iterator<Item = &Cfg> {
        self.cfgs.iter().filter(|cfg| !self.in_test(cfg.header_start))
    }

    /// A finding of `rule` at `line:col` of this file, with no symbol.
    pub(crate) fn finding(
        &self,
        line: u32,
        col: u32,
        rule: &'static str,
        message: String,
    ) -> Finding {
        Finding {
            file: self.rel.to_string(),
            line,
            col,
            rule,
            message,
            symbol: None,
            severity_override: None,
        }
    }
}

/// Everything one file contributes to a report, computed in one pass by
/// [`analyze_file`]: its local findings and suppressions, and the facts
/// the cross-file resolvers (`flow_findings`, `symbols::dead_api_findings`)
/// read. `finish` runs the shared suppression machinery over local and
/// cross-file findings alike.
#[derive(Debug)]
pub struct FileFacts {
    /// Workspace-relative path.
    pub(crate) rel: String,
    /// The file is panic-free-hardened (R13 audits its public API).
    pub(crate) hardened: bool,
    /// Findings that bypass suppression matching (malformed directives).
    pre: Vec<Finding>,
    raw: Vec<Finding>,
    suppressions: Vec<Suppression>,
    /// Item definitions, for the symbol graph and the call graph's nodes.
    pub(crate) defs: Vec<SymbolDef>,
    /// Identifier occurrence counts, for the symbol graph's references.
    pub(crate) idents: BTreeMap<String, usize>,
    /// Interprocedural taint findings awaiting callee summaries.
    conds: Vec<crate::det::CondFinding>,
    /// Per-function taint summaries contributed by this file.
    summaries: Vec<crate::det::FnSummary>,
    /// CFG/fixpoint statistics for this file.
    pub(crate) det_stats: crate::det::DetStats,
    /// Interprocedural facts (panic seeds, blocking sites, call edges,
    /// lock events) for the call-graph rules.
    pub(crate) cg: crate::callgraph::CgFacts,
}

/// The per-file stage: lexes `src` (the analysis path's only `lex` call),
/// builds the [`FileView`], runs every rule over it, and collects the
/// definitions and identifier counts the symbol graph needs.
pub fn analyze_file(rel_path: &str, src: &str, profile: FileProfile) -> FileFacts {
    let tokens = lex(src);
    let view = FileView::new(rel_path, src, &tokens, profile);
    let mut suppressions = collect_suppressions(&view);

    // Suppression parse errors surface regardless of any rule firing.
    let pre = suppressions
        .iter()
        .filter_map(|s| Some(view.finding(s.line, s.col, "invalid-suppression", s.error.clone()?)))
        .collect();

    let mut raw = Vec::new();
    if profile.panic_free {
        rule_panic_free(&view, &mut raw);
    }
    if profile.lossy_cast {
        rule_lossy_cast(&view, &mut raw);
    }
    rule_unsafe_forbidden(&view, &mut raw);
    rule_todo_tracker(&view, &mut raw);
    if profile.numeric {
        rule_float_equality(&view, &mut raw);
    }
    rule_lock_discipline(&view, &mut raw);
    rule_thread_hygiene(&view, &mut raw);

    // Dataflow rules (R10–R12) and interprocedural fact extraction
    // (R13–R15). Both walk the view's non-test CFGs, so whole-file test
    // code contributes nothing: bench and test targets persist measurement
    // data by design. Flow-local R14/R15 findings (declared-order
    // violations, blocking ops under a held lock) land in `raw` here; the
    // cross-file propagation runs in [`flow_findings`].
    let mut det_out = crate::det::run_det(&view);
    raw.append(&mut det_out.findings);
    let cg = crate::callgraph::extract(&view, &mut suppressions, &mut raw);

    let unit = source_unit(rel_path);
    let defs = view
        .items
        .iter()
        .filter(|item| !matches!(item.kind, ItemKind::Use | ItemKind::Impl))
        .filter_map(|item| {
            Some(SymbolDef {
                name: item.name.clone()?,
                unit: unit.clone(),
                file: rel_path.to_string(),
                line: item.line,
                col: item.col,
                kind: item.kind,
                vis: item.vis,
                in_test_item: in_spans(item.start, &view.test_spans),
                dep_names: item.dep_names.clone(),
                owner: item.owner.clone(),
            })
        })
        .collect();
    let mut idents: BTreeMap<String, usize> = BTreeMap::new();
    for t in view.code.iter().filter(|t| t.kind == TokKind::Ident) {
        let text = t.text(src);
        let text = text.strip_prefix("r#").unwrap_or(text);
        match idents.get_mut(text) {
            Some(count) => *count += 1,
            None => {
                idents.insert(text.to_string(), 1);
            }
        }
    }

    FileFacts {
        rel: rel_path.to_string(),
        hardened: profile.panic_free,
        pre,
        raw,
        suppressions,
        defs,
        idents,
        conds: det_out.conds,
        summaries: det_out.summaries,
        det_stats: det_out.stats,
        cg,
    }
}

impl FileFacts {
    /// Applies suppressions, reports unused ones, and returns the final
    /// sorted findings for this file.
    fn finish_file(mut self) -> Vec<Finding> {
        let mut findings = self.pre;

        // Apply suppressions: a finding is dropped when a valid suppression
        // for its rule sits on the same line or the line directly above.
        for f in self.raw {
            let mut matched = false;
            for s in self.suppressions.iter_mut() {
                if s.error.is_none()
                    && s.rule == f.rule
                    && (s.line == f.line || s.line + 1 == f.line)
                {
                    s.used = true;
                    matched = true;
                }
            }
            if !matched {
                findings.push(f);
            }
        }

        for s in &self.suppressions {
            if s.error.is_none() && !s.used {
                findings.push(Finding {
                    file: self.rel.clone(),
                    line: s.line,
                    col: s.col,
                    rule: "unused-suppression",
                    message: format!(
                        "suppression for `{}` matches no finding on this or the next line; remove it",
                        s.rule
                    ),
                    symbol: None,
                    severity_override: None,
                });
            }
        }

        findings.sort_by_key(|f| (f.line, f.col));
        findings
    }
}

/// The *flow* resolver: every cross-file finding that follows values or
/// control between functions. Taint conditionals (R10) are resolved
/// against the summaries of all `files` merged by name; the call graph is
/// built over the same files, propagated, and queried for R13–R15. A pure
/// function of the facts — a one-element slice is single-file mode.
pub(crate) fn flow_findings(files: &[FileFacts]) -> (Vec<Finding>, CallGraph) {
    let summaries = crate::det::merge_summaries(files.iter().flat_map(|f| f.summaries.iter()));
    let mut findings: Vec<Finding> =
        files.iter().flat_map(|f| crate::det::resolve_conditionals(&f.conds, &summaries)).collect();
    let mut graph = crate::callgraph::build_graph(files);
    graph.propagate();
    findings.extend(crate::callgraph::resolve_rules(&graph, files));
    (findings, graph)
}

/// Folds the cross-file findings into the files they name, runs each
/// file's suppression pass — so a justified allow works the same way for
/// every layer — and returns the report sorted by (file, line, col).
pub(crate) fn finish(files: Vec<FileFacts>, cross: Vec<Finding>) -> Vec<Finding> {
    let mut by_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in cross {
        by_file.entry(f.file.clone()).or_default().push(f);
    }
    let mut findings = Vec::new();
    for mut file in files {
        file.raw.extend(by_file.remove(&file.rel).unwrap_or_default());
        findings.extend(file.finish_file());
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.col).cmp(&(b.file.as_str(), b.line, b.col)));
    findings
}

/// Analyzes one source file and returns its findings: the per-file stage
/// plus the flow resolver over that file alone. `rel_path` is used
/// verbatim in diagnostics. Dead-API (R6) is a workspace question — a
/// one-file workspace has no "outside the crate" — and is not asked here.
pub fn analyze_source(rel_path: &str, src: &str, profile: FileProfile) -> Vec<Finding> {
    let files = vec![analyze_file(rel_path, src, profile)];
    let (flow, _) = flow_findings(&files);
    finish(files, flow)
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub(crate) struct Suppression {
    pub(crate) line: u32,
    pub(crate) col: u32,
    pub(crate) rule: &'static str,
    pub(crate) used: bool,
    /// Set when the directive is malformed; `rule` is then meaningless.
    pub(crate) error: Option<String>,
}

/// Extracts `analyze:` directives from plain `//` comments. Doc comments
/// are deliberately ignored so rule documentation can show the syntax
/// without creating live suppressions.
fn collect_suppressions(view: &FileView<'_>) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in view.tokens {
        let TokKind::LineComment { doc: false } = t.kind else { continue };
        let body = t.text(view.src).trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("analyze:") else { continue };
        let rest = rest.trim();
        let mut sup = Suppression { line: t.line, col: t.col, rule: "", used: false, error: None };
        match parse_allow(rest) {
            Ok((rule, justification)) => match RULE_IDS.iter().find(|id| **id == rule) {
                Some(id) if justification.is_empty() => {
                    sup.rule = id;
                    sup.error = Some(format!(
                        "suppression for `{rule}` has no justification; write \
                         `// analyze: allow({rule}) — <why this is safe>`"
                    ));
                }
                Some(id) => sup.rule = id,
                None => {
                    sup.error = Some(format!("unknown rule `{rule}` in suppression"));
                }
            },
            Err(msg) => sup.error = Some(msg),
        }
        out.push(sup);
    }
    out
}

/// Parses `allow(<rule>) <sep> <justification>` and returns the rule name
/// plus the trimmed justification.
fn parse_allow(s: &str) -> Result<(&str, &str), String> {
    let Some(inner) = s.strip_prefix("allow(") else {
        return Err(
            "malformed analyze directive; expected `analyze: allow(<rule>) — <why>`".to_string()
        );
    };
    let Some(close) = inner.find(')') else {
        return Err("unclosed `allow(` in analyze directive".to_string());
    };
    let rule = inner[..close].trim();
    let mut rest = inner[close + 1..].trim_start();
    for sep in ["—", "--", "-", ":"] {
        if let Some(r) = rest.strip_prefix(sep) {
            rest = r;
            break;
        }
    }
    Ok((rule, rest.trim()))
}

// ---------------------------------------------------------------------------
// Test-region detection (R5)
// ---------------------------------------------------------------------------

/// Byte spans covered by items annotated `#[cfg(test)]` (typically
/// `mod tests { ... }` blocks). R1/R2 findings inside them are dropped,
/// and the same spans exempt test-only definitions from R6 and keep them
/// out of the call graph.
fn cfg_test_spans(code: &[&Token], src: &str) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if is_cfg_test_attr(code, i, src) {
            // Skip past this attribute, any further attributes, then find
            // the item's opening brace (or `;` for braceless items).
            let mut j = skip_bracketed(code, i + 1);
            loop {
                if j + 1 < code.len()
                    && matches!(code[j].kind, TokKind::Punct('#'))
                    && matches!(code[j + 1].kind, TokKind::Punct('['))
                {
                    j = skip_bracketed(code, j + 1);
                    continue;
                }
                break;
            }
            let mut depth = 0i64;
            while j < code.len() {
                match code[j].kind {
                    TokKind::Punct('{') => {
                        if depth == 0 {
                            let start = code[j].start;
                            let end = matching_brace_end(code, j, src);
                            spans.push(start..end);
                            break;
                        }
                        depth += 1;
                    }
                    TokKind::Punct(';') if depth == 0 => break,
                    TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        i += 1;
    }
    spans
}

/// Does `# [ cfg ( test ... ) ]` start at `code[i]`? (Also matches
/// composite forms like `cfg(all(test, feature = "x"))`.)
fn is_cfg_test_attr(code: &[&Token], i: usize, src: &str) -> bool {
    let kinds_ok = i + 4 < code.len()
        && matches!(code[i].kind, TokKind::Punct('#'))
        && matches!(code[i + 1].kind, TokKind::Punct('['))
        && code[i + 2].kind == TokKind::Ident
        && code[i + 2].text(src) == "cfg"
        && matches!(code[i + 3].kind, TokKind::Punct('('));
    if !kinds_ok {
        return false;
    }
    let end = skip_bracketed(code, i + 1);
    code[i + 4..end.min(code.len())]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text(src) == "test")
}

/// Given `code[open]` == `[`, returns the index just past its matching `]`.
fn skip_bracketed(code: &[&Token], open: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < code.len() {
        match code[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    code.len()
}

/// Given `code[open]` == `{`, returns the byte offset just past the
/// matching `}` (or end of file when unbalanced).
fn matching_brace_end(code: &[&Token], open: usize, src: &str) -> usize {
    let mut depth = 0i64;
    for t in &code[open..] {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return t.end;
                }
            }
            _ => {}
        }
    }
    src.len()
}

pub(crate) fn in_spans(pos: usize, spans: &[std::ops::Range<usize>]) -> bool {
    spans.iter().any(|s| s.contains(&pos))
}

// ---------------------------------------------------------------------------
// R1: panic-free-paths
// ---------------------------------------------------------------------------

fn rule_panic_free(view: &FileView<'_>, out: &mut Vec<Finding>) {
    let (code, src) = (&view.code, view.src);
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || view.in_test(t.start) {
            continue;
        }
        let text = t.text(src);
        let next_is = |ahead: usize, ch: char| {
            code.get(i + ahead).is_some_and(|n| matches!(n.kind, TokKind::Punct(c) if c == ch))
        };
        let prev_is_dot = i > 0 && matches!(code[i - 1].kind, TokKind::Punct('.'));
        let hit = match text {
            "panic" | "unreachable" if next_is(1, '!') => {
                Some(format!("`{text}!` in a hardened module"))
            }
            "unwrap" if prev_is_dot && next_is(1, '(') && next_is(2, ')') => {
                Some("`.unwrap()` in a hardened module".to_string())
            }
            "expect" if prev_is_dot && next_is(1, '(') => {
                Some("`.expect(...)` in a hardened module".to_string())
            }
            _ => None,
        };
        if let Some(message) = hit {
            out.push(view.finding(
                t.line,
                t.col,
                "panic-free-paths",
                message
                    + "; return a typed error (or justify with \
                       `// analyze: allow(panic-free-paths) — <why>`)",
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// R2: lossy-cast
// ---------------------------------------------------------------------------

const LOSSY_TARGETS: &[&str] = &["u32", "usize", "i64"];

fn rule_lossy_cast(view: &FileView<'_>, out: &mut Vec<Finding>) {
    let (code, src) = (&view.code, view.src);
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text(src) != "as" || view.in_test(t.start) {
            continue;
        }
        let Some(next) = code.get(i + 1) else { continue };
        if next.kind == TokKind::Ident && LOSSY_TARGETS.contains(&next.text(src)) {
            let target = next.text(src);
            out.push(view.finding(
                t.line,
                t.col,
                "lossy-cast",
                format!(
                    "`as {target}` in a decode path can truncate silently; use \
                     `{target}::try_from(...)` and map the error (or justify with \
                     `// analyze: allow(lossy-cast) — <why>`)"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// R3: unsafe-forbidden
// ---------------------------------------------------------------------------

fn rule_unsafe_forbidden(view: &FileView<'_>, out: &mut Vec<Finding>) {
    let (code, src, profile) = (&view.code, view.src, view.profile);

    // Crate-root attribute check: `#![forbid(unsafe_code)]`, or
    // `#![deny(unsafe_code)]` on a root that owns an allowlisted unsafe
    // module (`forbid` cannot be overridden by the module's `allow`).
    if profile.crate_root {
        let lint = if profile.owns_unsafe_module { "deny" } else { "forbid" };
        let found = code.windows(7).any(|w| {
            matches!(w[0].kind, TokKind::Punct('#'))
                && matches!(w[1].kind, TokKind::Punct('!'))
                && matches!(w[2].kind, TokKind::Punct('['))
                && w[3].kind == TokKind::Ident
                && w[3].text(src) == lint
                && matches!(w[4].kind, TokKind::Punct('('))
                && w[5].kind == TokKind::Ident
                && w[5].text(src) == "unsafe_code"
                && matches!(w[6].kind, TokKind::Punct(')'))
        });
        if !found {
            out.push(view.finding(
                1,
                1,
                "unsafe-forbidden",
                format!("crate root is missing `#![{lint}(unsafe_code)]`"),
            ));
        }
    }

    // Token-wise `unsafe` scan, every file: crate-level attributes can be
    // bypassed with a module-level `allow`, so the allowlist is enforced
    // on occurrences, not on attributes. String literals and comments are
    // separate token kinds and never match.
    if !profile.unsafe_allowlisted {
        for t in code {
            if t.kind == TokKind::Ident && t.text(src) == "unsafe" {
                out.push(
                    view.finding(
                        t.line,
                        t.col,
                        "unsafe-forbidden",
                        "`unsafe` outside the audited allowlist \
                     (see hoga-analyze workspace::UNSAFE_ALLOWLIST); move the code \
                     into an allowlisted module or extend the list with an audit"
                            .to_string(),
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R4: todo-tracker
// ---------------------------------------------------------------------------

const TODO_MARKERS: &[&str] = &["TODO", "FIXME", "HACK"];

fn rule_todo_tracker(view: &FileView<'_>, out: &mut Vec<Finding>) {
    for t in view.tokens {
        if !matches!(t.kind, TokKind::LineComment { .. } | TokKind::BlockComment { .. }) {
            continue;
        }
        let text = t.text(view.src);
        let marker = TODO_MARKERS.iter().find(|m| contains_word(text, m));
        if let Some(marker) = marker {
            if !has_issue_ref(text) {
                out.push(view.finding(
                    t.line,
                    t.col,
                    "todo-tracker",
                    format!(
                        "`{marker}` comment without an issue reference; write \
                         `{marker}(#<issue>): ...`"
                    ),
                ));
            }
        }
    }
}

/// Whole-word, case-sensitive containment (`HACK(#1)` matches, while
/// `HACKATHON` and `SHACK` do not).
fn contains_word(haystack: &str, word: &str) -> bool {
    let bytes = haystack.as_bytes();
    let mut from = 0;
    while let Some(idx) = haystack.get(from..).and_then(|tail| tail.find(word)) {
        let at = from + idx;
        let before_ok = at.checked_sub(1).is_none_or(|p| !bytes[p].is_ascii_alphanumeric());
        let after = at + word.len();
        let after_ok = bytes.get(after).is_none_or(|b| !b.is_ascii_alphanumeric());
        if before_ok && after_ok {
            return true;
        }
        from = at + word.len();
    }
    false
}

/// `#` immediately followed by digits (e.g. `#42`) anywhere in the comment.
fn has_issue_ref(text: &str) -> bool {
    let bytes = text.as_bytes();
    bytes.windows(2).any(|w| w[0] == b'#' && w[1].is_ascii_digit())
}

// ---------------------------------------------------------------------------
// R7: float-equality
// ---------------------------------------------------------------------------

/// Does a float literal *end* at `code[i]`? The lexer splits `1.0` into
/// `Number('.')Number`, so a float literal is a number preceded by `.` and
/// another number, or a number with an `e`/`f32`/`f64` marker in its text.
fn float_literal_ends_at(code: &[&Token], i: usize, src: &str) -> bool {
    let Some(t) = code.get(i) else { return false };
    if t.kind != TokKind::Number {
        return false;
    }
    let text = t.text(src);
    if text.contains(['e', 'E']) && !text.starts_with("0x") {
        return true;
    }
    if text.ends_with("f32") || text.ends_with("f64") {
        return true;
    }
    i >= 2
        && matches!(code[i - 1].kind, TokKind::Punct('.'))
        && code[i - 2].kind == TokKind::Number
        // Adjacency distinguishes `1.0` from a method-ish `x.0`-style chain.
        && code[i - 1].end == t.start
        && code[i - 2].end == code[i - 1].start
}

/// Does a float literal *start* at `code[i]`?
fn float_literal_starts_at(code: &[&Token], i: usize, src: &str) -> bool {
    let Some(t) = code.get(i) else { return false };
    if t.kind != TokKind::Number {
        return false;
    }
    let text = t.text(src);
    if (text.contains(['e', 'E']) && !text.starts_with("0x"))
        || text.ends_with("f32")
        || text.ends_with("f64")
    {
        return true;
    }
    code.get(i + 1).is_some_and(|d| matches!(d.kind, TokKind::Punct('.')) && d.start == t.end)
        && code.get(i + 2).is_some_and(|n| n.kind == TokKind::Number)
}

/// R7: exact `==`/`!=` against a float literal in numeric-path code. Exact
/// comparison is almost always wrong after arithmetic; use
/// `hoga_tensor::approx_eq` (ULP-based) or `approx_eq_eps`.
fn rule_float_equality(view: &FileView<'_>, out: &mut Vec<Finding>) {
    let (code, src) = (&view.code, view.src);
    for i in 0..code.len().saturating_sub(1) {
        let (a, b) = (code[i], code[i + 1]);
        let op = match (a.kind, b.kind) {
            (TokKind::Punct('='), TokKind::Punct('=')) if a.end == b.start => "==",
            (TokKind::Punct('!'), TokKind::Punct('=')) if a.end == b.start => "!=",
            _ => continue,
        };
        // Skip `<=`, `>=`, `===`-like runs and `a != =` oddities.
        if i > 0 && matches!(code[i - 1].kind, TokKind::Punct('=' | '<' | '>' | '!')) {
            continue;
        }
        if matches!(code.get(i + 2).map(|t| t.kind), Some(TokKind::Punct('='))) {
            continue;
        }
        if view.in_test(a.start) {
            continue;
        }
        let lhs_float = i >= 1 && float_literal_ends_at(code, i - 1, src);
        let rhs_float = float_literal_starts_at(code, i + 2, src);
        if lhs_float || rhs_float {
            out.push(view.finding(
                a.line,
                a.col,
                "float-equality",
                format!(
                    "float `{op}` is an exact bitwise comparison; use \
                     `hoga_tensor::approx_eq`/`approx_eq_eps` (or justify an exact check with \
                     `// analyze: allow(float-equality) — <why>`)"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// R8: lock-discipline
// ---------------------------------------------------------------------------

/// An acquisition site: `<name> . lock|read|write ( )` with `name` taken
/// from the token directly before the dot (field or variable name). Any
/// receiver counts — the must-lockset pass (R14) discovers the order of
/// undeclared locks instead of ignoring them.
pub(crate) fn lock_acquisition<'a>(code: &[&Token], i: usize, src: &'a str) -> Option<&'a str> {
    let t = code.get(i)?;
    if t.kind != TokKind::Ident || !matches!(t.text(src), "lock" | "read" | "write") {
        return None;
    }
    let dotted = i >= 1 && matches!(code[i - 1].kind, TokKind::Punct('.'));
    let zero_arg = matches!(code.get(i + 1).map(|t| t.kind), Some(TokKind::Punct('(')))
        && matches!(code.get(i + 2).map(|t| t.kind), Some(TokKind::Punct(')')));
    if !(dotted && zero_arg) {
        return None;
    }
    let recv = code.get(i.checked_sub(2)?)?;
    if recv.kind != TokKind::Ident {
        return None;
    }
    Some(recv.text(src))
}

/// R8: lock discipline. The ordering half of the old token-level rule
/// moved to the flow-aware must-lockset pass (R14, `lock-order` — see
/// [`crate::callgraph`]); what remains here is the poisoning check: any
/// `.lock()/.read()/.write()` immediately unwrapped with `.unwrap()` —
/// poisoning must be handled (`PoisonError::into_inner`) or propagated.
fn rule_lock_discipline(view: &FileView<'_>, out: &mut Vec<Finding>) {
    for i in 0..view.code.len() {
        maybe_flag_lock_unwrap(view, i, out);
    }
}

/// Flags `.lock()/.read()/.write()` (zero-arg, after a dot) chained
/// directly into `.unwrap()`.
fn maybe_flag_lock_unwrap(view: &FileView<'_>, i: usize, out: &mut Vec<Finding>) {
    let (code, src) = (&view.code, view.src);
    let t = code[i];
    if t.kind != TokKind::Ident || !matches!(t.text(src), "lock" | "read" | "write") {
        return;
    }
    let shape = i >= 1
        && matches!(code[i - 1].kind, TokKind::Punct('.'))
        && matches!(code.get(i + 1).map(|t| t.kind), Some(TokKind::Punct('(')))
        && matches!(code.get(i + 2).map(|t| t.kind), Some(TokKind::Punct(')')))
        && matches!(code.get(i + 3).map(|t| t.kind), Some(TokKind::Punct('.')))
        && code.get(i + 4).is_some_and(|t| t.kind == TokKind::Ident && t.text(src) == "unwrap");
    if shape && !view.in_test(t.start) {
        out.push(view.finding(
            t.line,
            t.col,
            "lock-discipline",
            format!(
                "`.{}().unwrap()` panics on a poisoned lock; recover with \
                 `.unwrap_or_else(std::sync::PoisonError::into_inner)` or propagate a typed error",
                t.text(src)
            ),
        ));
    }
}

/// If the statement containing the acquisition at `code[i]` is a `let`,
/// returns `(bound variable, true)`; transient (unbound) acquisitions
/// return `None` from the caller's perspective via `(None, false)`.
pub(crate) fn binding_of(code: &[&Token], i: usize, src: &str) -> Option<(Option<String>, bool)> {
    // Walk back to the statement boundary.
    let mut j = i;
    while j > 0 && !matches!(code[j - 1].kind, TokKind::Punct(';' | '{' | '}')) {
        j -= 1;
    }
    let first = code.get(j)?;
    if first.kind == TokKind::Ident && first.text(src) == "let" {
        let mut k = j + 1;
        if code.get(k).is_some_and(|t| t.kind == TokKind::Ident && t.text(src) == "mut") {
            k += 1;
        }
        let var = code.get(k).filter(|t| t.kind == TokKind::Ident).map(|t| t.text(src).to_string());
        Some((var, true))
    } else {
        Some((None, false))
    }
}

// ---------------------------------------------------------------------------
// R9: thread-hygiene
// ---------------------------------------------------------------------------

/// R9: scoped-thread hygiene. Every `.spawn(...)` result must be bound (and
/// joined) — a discarded handle silently swallows worker panics until the
/// scope exit, losing the per-worker recovery point. In `crates/eval/src`
/// bare `std::thread::spawn` is banned outright: worker lifetimes must be
/// bounded by a `std::thread::scope`. In `crates/jobs/src` (the supervised
/// worker pool) join discipline also applies — see
/// [`rule_join_discipline`].
fn rule_thread_hygiene(view: &FileView<'_>, out: &mut Vec<Finding>) {
    let (code, src) = (&view.code, view.src);
    if view.profile.pool_path {
        rule_join_discipline(view, out);
    }
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokKind::Ident || t.text(src) != "spawn" {
            continue;
        }
        // `thread::spawn` (any receiver-less path ending in thread::spawn).
        let path_call = i >= 2
            && matches!(code[i - 1].kind, TokKind::Punct(':'))
            && matches!(code[i - 2].kind, TokKind::Punct(':'))
            && code
                .get(i.wrapping_sub(3))
                .is_some_and(|p| p.kind == TokKind::Ident && p.text(src) == "thread");
        if path_call && view.profile.eval_path {
            out.push(
                view.finding(
                    t.line,
                    t.col,
                    "thread-hygiene",
                    "unscoped `std::thread::spawn` in `eval`; use `std::thread::scope` so \
                 worker lifetimes are bounded and panics surface at `join`"
                        .to_string(),
                ),
            );
            continue;
        }
        // `<receiver>.spawn(...)` used as a bare statement discards the
        // JoinHandle.
        let method_call = i >= 1
            && matches!(code[i - 1].kind, TokKind::Punct('.'))
            && matches!(code.get(i + 1).map(|t| t.kind), Some(TokKind::Punct('(')));
        if !method_call {
            continue;
        }
        // Find the matching `)` of the argument list.
        let mut depth = 0i64;
        let mut j = i + 1;
        let mut close = None;
        while j < code.len() {
            match code[j].kind {
                TokKind::Punct('(') => depth += 1,
                TokKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let Some(close) = close else { continue };
        if !matches!(code.get(close + 1).map(|t| t.kind), Some(TokKind::Punct(';'))) {
            continue;
        }
        // Walk back over the receiver chain (`a.b.spawn`, `x::y.spawn`); if
        // the chain starts a statement, the handle is discarded.
        let mut k = i - 1; // the `.`
        while k > 0 && matches!(code[k - 1].kind, TokKind::Punct('.' | ':') | TokKind::Ident) {
            k -= 1;
        }
        let discarded = k == 0 || matches!(code[k - 1].kind, TokKind::Punct(';' | '{' | '}'));
        if discarded {
            out.push(
                view.finding(
                    t.line,
                    t.col,
                    "thread-hygiene",
                    "spawn result discarded; bind the handle and `join()` it so worker \
                 panics are observed (or justify with \
                 `// analyze: allow(thread-hygiene) — <why>`)"
                        .to_string(),
                ),
            );
        }
    }
}

/// R9 (pool paths): join discipline. A worker pool's `join()` result
/// carries the worker's panic payload; dropping it (`let _ = h.join();`,
/// a bare `h.join();` statement) or swallowing it (`h.join().ok()`)
/// silently erases an engine bug. The payload must be matched and either
/// re-raised (`std::panic::resume_unwind`) or converted into a structured
/// incident.
fn rule_join_discipline(view: &FileView<'_>, out: &mut Vec<Finding>) {
    let (code, src) = (&view.code, view.src);
    let flag = |t: &Token, what: &str, out: &mut Vec<Finding>| {
        out.push(view.finding(
            t.line,
            t.col,
            "thread-hygiene",
            format!(
                "{what} loses the worker's panic payload; match the `join()` result and \
                 re-raise via `std::panic::resume_unwind` or record a structured incident \
                 (or justify with `// analyze: allow(thread-hygiene) — <why>`)"
            ),
        ));
    };
    for i in 0..code.len() {
        let t = code[i];
        // Zero-arg method call: `<recv> . join ( )`.
        if t.kind != TokKind::Ident || t.text(src) != "join" {
            continue;
        }
        let shape = i >= 1
            && matches!(code[i - 1].kind, TokKind::Punct('.'))
            && matches!(code.get(i + 1).map(|t| t.kind), Some(TokKind::Punct('(')))
            && matches!(code.get(i + 2).map(|t| t.kind), Some(TokKind::Punct(')')));
        if !shape {
            continue;
        }
        // `.join().ok()` swallows the payload.
        let swallowed = matches!(code.get(i + 3).map(|t| t.kind), Some(TokKind::Punct('.')))
            && code.get(i + 4).is_some_and(|n| n.kind == TokKind::Ident && n.text(src) == "ok");
        if swallowed {
            flag(t, "`.join().ok()`", out);
            continue;
        }
        // Statement-shaped discards: the call ends the statement...
        if !matches!(code.get(i + 3).map(|t| t.kind), Some(TokKind::Punct(';'))) {
            continue;
        }
        // ...and the statement is either the bare receiver chain or a
        // `let _ =` binding. Walk back to the statement boundary.
        let mut j = i;
        while j > 0 && !matches!(code[j - 1].kind, TokKind::Punct(';' | '{' | '}')) {
            j -= 1;
        }
        let let_discard =
            code.get(j).is_some_and(|t| t.kind == TokKind::Ident && t.text(src) == "let")
                && code.get(j + 1).is_some_and(|t| t.kind == TokKind::Ident && t.text(src) == "_")
                && matches!(code.get(j + 2).map(|t| t.kind), Some(TokKind::Punct('=')));
        // Bare statement: everything from the boundary to the `.` is the
        // receiver chain (idents / `.` / `::` only — an `=`, `match`, or
        // `if` in between means the result is consumed).
        let bare = (j..i.saturating_sub(1)).all(|k| {
            matches!(code[k].kind, TokKind::Ident | TokKind::Punct('.' | ':'))
                && !(code[k].kind == TokKind::Ident
                    && matches!(code[k].text(src), "let" | "match" | "if" | "while" | "return"))
        });
        if let_discard {
            flag(t, "`let _ = ... .join()`", out);
        } else if bare {
            flag(t, "a discarded `join()` result", out);
        }
    }
}

// ---------------------------------------------------------------------------
// Fixture-based rule tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn hardened() -> FileProfile {
        FileProfile { panic_free: true, lossy_cast: true, ..FileProfile::default() }
    }

    fn run(src: &str) -> Vec<Finding> {
        analyze_source("fixture.rs", src, hardened())
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn flags_panic_macro_with_position() {
        let f = run("fn f() {\n    panic!(\"boom\");\n}\n");
        assert_eq!(rules_of(&f), ["panic-free-paths"]);
        assert_eq!((f[0].line, f[0].col), (2, 5));
        assert_eq!(f[0].file, "fixture.rs");
    }

    #[test]
    fn flags_unwrap_expect_unreachable() {
        let src = "fn f(x: Option<u8>) -> u8 {\n\
                   let a = x.unwrap();\n\
                   let b = x.expect(\"present\");\n\
                   if a > b { unreachable!() }\n\
                   a\n}\n";
        let f = run(src);
        assert_eq!(rules_of(&f), ["panic-free-paths", "panic-free-paths", "panic-free-paths"]);
        assert_eq!(f[0].line, 2);
        assert_eq!(f[1].line, 3);
        assert_eq!(f[2].line, 4);
    }

    #[test]
    fn ignores_matches_inside_strings_and_comments() {
        let src = "fn f() -> &'static str {\n\
                   // this comment says panic!(...) and x.unwrap()\n\
                   /* and so does /* this nested */ one: unreachable!() */\n\
                   \"panic!(\\\"not code\\\") .unwrap()\"\n}\n";
        assert!(run(src).is_empty(), "got: {:?}", run(src));
    }

    #[test]
    fn ignores_matches_inside_raw_strings() {
        let src = "fn f() -> &'static str {\n    r#\"x.unwrap() panic!(\"inner\")\"#\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unwrap_requires_method_call_shape() {
        // A fn named `unwrap` being defined, or a path `Self::unwrap`, is
        // not a `.unwrap()` call.
        let src = "fn unwrap() {}\nfn g() { Wrapper::expect_none(); }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn suppression_on_same_line_works() {
        let src = "fn f(x: Option<u8>) -> u8 {\n\
                   x.unwrap() // analyze: allow(panic-free-paths) — caller validated in new()\n\
                   }\n";
        assert!(run(src).is_empty(), "got: {:?}", run(src));
    }

    #[test]
    fn suppression_on_previous_line_works() {
        let src = "fn f(x: Option<u8>) -> u8 {\n\
                   // analyze: allow(panic-free-paths) — caller validated in new()\n\
                   x.unwrap()\n\
                   }\n";
        assert!(run(src).is_empty(), "got: {:?}", run(src));
    }

    #[test]
    fn suppression_without_justification_is_invalid() {
        let src = "fn f(x: Option<u8>) -> u8 {\n\
                   x.unwrap() // analyze: allow(panic-free-paths)\n\
                   }\n";
        let f = run(src);
        // The malformed directive is reported AND the finding still fires.
        assert!(rules_of(&f).contains(&"invalid-suppression"), "got: {f:?}");
        assert!(rules_of(&f).contains(&"panic-free-paths"), "got: {f:?}");
    }

    #[test]
    fn suppression_with_unknown_rule_is_invalid() {
        let src = "fn f() {\n// analyze: allow(no-such-rule) — because\nlet x = 1;\n}\n";
        let f = run(src);
        assert_eq!(rules_of(&f), ["invalid-suppression"]);
        assert!(f[0].message.contains("no-such-rule"));
    }

    #[test]
    fn unused_suppression_is_reported() {
        let src =
            "fn f() {\n// analyze: allow(panic-free-paths) — stale justification\nlet x = 1;\n}\n";
        let f = run(src);
        assert_eq!(rules_of(&f), ["unused-suppression"]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn doc_comments_do_not_register_suppressions() {
        // Documentation showing the syntax must not become a live (and
        // then unused) suppression.
        let src = "/// Example: `// analyze: allow(panic-free-paths) — reason`\nfn f() {}\n";
        assert!(run(src).is_empty(), "got: {:?}", run(src));
    }

    #[test]
    fn cfg_test_module_relaxes_panic_and_cast_rules() {
        let src = "fn prod(n: u64) -> u64 { n }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   #[test]\n\
                   fn t() { let n: u64 = 9; let _ = (n as u32, prod(n)); panic!(\"ok in tests\"); }\n\
                   }\n";
        assert!(run(src).is_empty(), "got: {:?}", run(src));
    }

    #[test]
    fn code_before_cfg_test_module_is_still_checked() {
        let src = "fn prod(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t() { panic!(\"fine\"); }\n\
                   }\n";
        let f = run(src);
        assert_eq!(rules_of(&f), ["panic-free-paths"]);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn tests_dir_profile_relaxes_everything_relaxable() {
        let src = "fn t(n: u64) { let _ = n as usize; panic!(\"integration test\"); }\n";
        let mut profile = hardened();
        profile.all_test = true;
        assert!(analyze_source("tests/it.rs", src, profile).is_empty());
    }

    #[test]
    fn flags_lossy_casts_only_for_narrowing_targets() {
        let src = "fn f(n: u64) -> (u32, usize, i64, u64, f64) {\n\
                   (n as u32, n as usize, n as i64, n as u64, n as f64)\n\
                   }\n";
        let f = run(src);
        assert_eq!(rules_of(&f), ["lossy-cast", "lossy-cast", "lossy-cast"]);
        assert!(f[0].message.contains("u32::try_from"));
    }

    #[test]
    fn lossy_cast_suppression_works() {
        let src = "fn f(n: u64) -> u32 {\n\
                   n as u32 // analyze: allow(lossy-cast) — n < 2^26 by header bound\n\
                   }\n";
        assert!(run(src).is_empty(), "got: {:?}", run(src));
    }

    #[test]
    fn crate_root_without_forbid_unsafe_is_flagged() {
        let profile = FileProfile { crate_root: true, ..FileProfile::default() };
        let f = analyze_source("src/lib.rs", "pub fn f() {}\n", profile);
        assert_eq!(rules_of(&f), ["unsafe-forbidden"]);
        assert_eq!((f[0].line, f[0].col), (1, 1));

        let ok = analyze_source("src/lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}\n", profile);
        assert!(ok.is_empty());
    }

    #[test]
    fn forbid_in_comment_does_not_satisfy_unsafe_rule() {
        let profile = FileProfile { crate_root: true, ..FileProfile::default() };
        let f =
            analyze_source("src/lib.rs", "// #![forbid(unsafe_code)]\npub fn f() {}\n", profile);
        assert_eq!(rules_of(&f), ["unsafe-forbidden"]);
    }

    #[test]
    fn unsafe_owning_root_needs_plain_deny() {
        let profile =
            FileProfile { crate_root: true, owns_unsafe_module: true, ..FileProfile::default() };
        let deny = "#![deny(unsafe_code)]\npub fn f() {}\n";
        assert!(analyze_source("src/lib.rs", deny, profile).is_empty());

        let f = analyze_source("src/lib.rs", "pub fn f() {}\n", profile);
        assert_eq!(rules_of(&f), ["unsafe-forbidden"]);
        assert!(f[0].message.contains("deny"), "message names the lint: {}", f[0].message);

        // An ordinary root is not let off with the weaker lint.
        let ordinary = FileProfile { crate_root: true, ..FileProfile::default() };
        assert_eq!(rules_of(&analyze_source("src/lib.rs", deny, ordinary)), ["unsafe-forbidden"]);
    }

    #[test]
    fn unsafe_token_outside_allowlist_is_flagged_anywhere() {
        // Not a crate root: the occurrence scan runs on every file.
        let src = "pub fn f(p: *const f32) -> f32 { unsafe { *p } }\n";
        let f = analyze_source("crates/x/src/inner.rs", src, FileProfile::default());
        assert_eq!(rules_of(&f), ["unsafe-forbidden"]);
        assert!(f[0].message.contains("allowlist"));

        // Comments and string literals never match.
        let harmless = "// unsafe in prose\nconst S: &str = \"unsafe\";\n";
        assert!(
            analyze_source("crates/x/src/inner.rs", harmless, FileProfile::default()).is_empty()
        );
    }

    #[test]
    fn unsafe_token_in_allowlisted_module_is_accepted() {
        let profile = FileProfile { unsafe_allowlisted: true, ..FileProfile::default() };
        let src = "#![allow(unsafe_code)]\npub fn f(p: *const f32) -> f32 { unsafe { *p } }\n";
        assert!(analyze_source("crates/tensor/src/simd.rs", src, profile).is_empty());
    }

    #[test]
    fn todo_without_issue_is_flagged() {
        let src = "// TODO: make this faster\nfn f() {}\n";
        let f = analyze_source("x.rs", src, FileProfile::default());
        assert_eq!(rules_of(&f), ["todo-tracker"]);
        assert!(f[0].message.contains("TODO"));
    }

    #[test]
    fn todo_with_issue_reference_is_accepted() {
        let src = "// TODO(#123): make this faster\n/* FIXME(#7): later */\nfn f() {}\n";
        assert!(analyze_source("x.rs", src, FileProfile::default()).is_empty());
    }

    #[test]
    fn todo_markers_match_whole_words_only() {
        let src = "// the HACKATHON was fun; we ate TODOS at the SHACK\nfn f() {}\n";
        assert!(analyze_source("x.rs", src, FileProfile::default()).is_empty());
    }

    #[test]
    fn fixme_and_hack_are_tracked() {
        let src = "// FIXME: one\n// HACK: two\nfn f() {}\n";
        let f = analyze_source("x.rs", src, FileProfile::default());
        assert_eq!(rules_of(&f), ["todo-tracker", "todo-tracker"]);
    }

    #[test]
    fn findings_are_sorted_by_position() {
        let src = "fn f(x: Option<u8>, n: u64) -> u8 {\n\
                   let _ = n as u32;\n\
                   x.unwrap()\n\
                   }\n";
        let f = run(src);
        assert_eq!(rules_of(&f), ["lossy-cast", "panic-free-paths"]);
        assert!(f[0].line < f[1].line);
    }

    #[test]
    fn display_format_is_file_line_col_rule() {
        let f = run("fn f() { panic!(\"x\"); }\n");
        let line = f[0].to_string();
        assert!(line.starts_with("fixture.rs:1:10: [panic-free-paths]"), "got: {line}");
    }

    // --- R7: float-equality ------------------------------------------------

    fn numeric() -> FileProfile {
        FileProfile { numeric: true, ..FileProfile::default() }
    }

    fn run_numeric(src: &str) -> Vec<Finding> {
        analyze_source("fixture.rs", src, numeric())
    }

    #[test]
    fn float_eq_against_literal_is_flagged_both_sides() {
        let f = run_numeric("fn f(y: f32) -> bool { y == 0.0 }\n");
        assert_eq!(rules_of(&f), ["float-equality"]);
        let f = run_numeric("fn f(y: f32) -> bool { 1.5 != y }\n");
        assert_eq!(rules_of(&f), ["float-equality"]);
        let f = run_numeric("fn f(y: f32) -> bool { y == 1e-6 }\n");
        assert_eq!(rules_of(&f), ["float-equality"]);
    }

    #[test]
    fn integer_eq_and_ordering_comparisons_are_fine() {
        let src = "fn f(n: usize, y: f32) -> bool { n == 0 && y <= 0.5 && y >= 0.5 && n != 3 }\n";
        assert!(run_numeric(src).is_empty(), "got: {:?}", run_numeric(src));
    }

    #[test]
    fn float_eq_outside_numeric_profile_or_in_tests_is_fine() {
        let src = "fn f(y: f32) -> bool { y == 0.0 }\n";
        assert!(run(src).is_empty(), "non-numeric profile: {:?}", run(src));
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t(y: f32) -> bool { y == 0.0 }\n}\n";
        assert!(run_numeric(test_src).is_empty(), "got: {:?}", run_numeric(test_src));
    }

    #[test]
    fn float_eq_suppression_works() {
        let src = "fn f(y: f32) -> bool {\n\
                   y == 0.0 // analyze: allow(float-equality) — exact-zero sparsity fast path\n\
                   }\n";
        assert!(run_numeric(src).is_empty(), "got: {:?}", run_numeric(src));
    }

    #[test]
    fn tuple_field_access_is_not_a_float_literal() {
        let src = "fn f(p: (u32, u32)) -> bool { p.0 == p.1 }\n";
        assert!(run_numeric(src).is_empty(), "got: {:?}", run_numeric(src));
    }

    // --- R8: lock-discipline -----------------------------------------------

    /// Plain profile: only the always-on rules (R4, R8, R9) run, so lock
    /// and thread fixtures don't also trip R1's unwrap check.
    fn run_plain(src: &str) -> Vec<Finding> {
        analyze_source("fixture.rs", src, FileProfile::default())
    }

    #[test]
    fn lock_order_violation_is_flagged() {
        // event_log (idx 1) held while grad_slots (idx 0) is acquired.
        let src = "fn f(s: &Shared) {\n\
                   let log = s.event_log.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                   let slots = s.grad_slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                   }\n";
        let f = run_plain(src);
        assert_eq!(rules_of(&f), ["lock-order"]);
        assert_eq!(f[0].line, 3);
        assert_eq!(f[0].symbol.as_deref(), Some("grad_slots"));
    }

    #[test]
    fn declared_lock_order_is_accepted() {
        let src = "fn f(s: &Shared) {\n\
                   let slots = s.grad_slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                   let log = s.event_log.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                   }\n";
        assert!(run_plain(src).is_empty(), "got: {:?}", run_plain(src));
    }

    #[test]
    fn reacquiring_a_held_lock_is_flagged() {
        let src = "fn f(s: &Shared) {\n\
                   let a = s.grad_slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                   let b = s.grad_slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                   }\n";
        let f = run_plain(src);
        assert_eq!(rules_of(&f), ["lock-order"]);
        assert!(f[0].message.contains("re-acquires"), "got: {}", f[0].message);
    }

    #[test]
    fn guard_release_by_scope_or_drop_clears_the_order_state() {
        let scoped = "fn f(s: &Shared) {\n\
                      {\n\
                      let log = s.event_log.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                      }\n\
                      let slots = s.grad_slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                      }\n";
        assert!(run_plain(scoped).is_empty(), "scope release: {:?}", run_plain(scoped));
        let dropped = "fn f(s: &Shared) {\n\
                       let log = s.event_log.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                       drop(log);\n\
                       let slots = s.grad_slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                       }\n";
        assert!(run_plain(dropped).is_empty(), "drop release: {:?}", run_plain(dropped));
    }

    #[test]
    fn lock_unwrap_is_flagged_everywhere_but_tests() {
        let f = run_plain("fn f(m: &std::sync::Mutex<u8>) -> u8 { *m.lock().unwrap() }\n");
        assert_eq!(rules_of(&f), ["lock-discipline"]);
        assert!(f[0].message.contains("poisoned"), "got: {}", f[0].message);
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn t(m: &std::sync::Mutex<u8>) -> u8 { *m.lock().unwrap() }\n}\n";
        assert!(run_plain(test_src).is_empty(), "got: {:?}", run_plain(test_src));
    }

    #[test]
    fn read_with_arguments_is_not_a_lock() {
        let src =
            "fn f(r: &mut impl std::io::Read, buf: &mut [u8]) { let _ = r.read(buf).unwrap(); }\n";
        assert!(run_plain(src).is_empty(), "got: {:?}", run_plain(src));
    }

    // --- R9: thread-hygiene ------------------------------------------------

    #[test]
    fn discarded_spawn_handle_is_flagged() {
        let src = "fn f() {\n\
                   std::thread::scope(|s| {\n\
                   s.spawn(|| work());\n\
                   });\n\
                   }\n";
        let f = run_plain(src);
        assert_eq!(rules_of(&f), ["thread-hygiene"]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn bound_or_collected_spawn_handles_are_fine() {
        let src = "fn f() {\n\
                   std::thread::scope(|s| {\n\
                   let h = s.spawn(|| work());\n\
                   handles.push(s.spawn(|| more()));\n\
                   h.join().unwrap_or_default();\n\
                   });\n\
                   }\n";
        assert!(run_plain(src).is_empty(), "got: {:?}", run_plain(src));
    }

    #[test]
    fn std_thread_spawn_is_flagged_only_on_eval_paths() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let eval = FileProfile { eval_path: true, ..FileProfile::default() };
        let f = analyze_source("crates/eval/src/x.rs", src, eval);
        assert_eq!(rules_of(&f), ["thread-hygiene"]);
        assert!(f[0].message.contains("std::thread::scope"));
        // Outside eval the same code only gets the discard check (the
        // handle IS discarded here, so suppress that case with a binding).
        let bound = "fn f() { let h = std::thread::spawn(|| {}); h.join().unwrap_or(()); }\n";
        assert!(run_plain(bound).is_empty(), "got: {:?}", run_plain(bound));
    }

    // --- R9 (pool paths): join discipline -----------------------------------

    fn run_pool(src: &str) -> Vec<Finding> {
        let profile = FileProfile { pool_path: true, ..FileProfile::default() };
        analyze_source("crates/jobs/src/fixture.rs", src, profile)
    }

    #[test]
    fn discarded_join_results_are_flagged_on_pool_paths() {
        let bare = "fn f(h: std::thread::JoinHandle<()>) {\n    h.join();\n}\n";
        let f = run_pool(bare);
        assert_eq!(rules_of(&f), ["thread-hygiene"]);
        assert!(f[0].message.contains("resume_unwind"), "got: {}", f[0].message);
        assert_eq!(f[0].line, 2);

        let underscore = "fn f(h: std::thread::JoinHandle<()>) {\n    let _ = h.join();\n}\n";
        let f = run_pool(underscore);
        assert_eq!(rules_of(&f), ["thread-hygiene"]);
        assert!(f[0].message.contains("let _"), "got: {}", f[0].message);

        let swallowed = "fn f(h: std::thread::JoinHandle<()>) {\n    h.join().ok();\n}\n";
        let f = run_pool(swallowed);
        assert_eq!(rules_of(&f), ["thread-hygiene"]);
        assert!(f[0].message.contains(".join().ok()"), "got: {}", f[0].message);
    }

    #[test]
    fn consumed_join_results_are_fine_on_pool_paths() {
        let matched = "fn f(h: std::thread::JoinHandle<()>) {\n\
                       if let Err(payload) = h.join() {\n\
                       std::panic::resume_unwind(payload);\n\
                       }\n\
                       }\n";
        assert!(run_pool(matched).is_empty(), "got: {:?}", run_pool(matched));

        let bound = "fn f(h: std::thread::JoinHandle<u8>) -> u8 {\n\
                     let outcome = h.join();\n\
                     outcome.unwrap_or_default()\n\
                     }\n";
        assert!(run_pool(bound).is_empty(), "got: {:?}", run_pool(bound));

        // String `join` with arguments is not a thread join.
        let strings = "fn f(v: &[&str]) -> String {\n    v.join(\", \");\n    v.join(\"-\")\n}\n";
        let f = run_pool(strings);
        assert!(f.is_empty(), "got: {f:?}");
    }

    #[test]
    fn join_discipline_is_scoped_to_pool_paths() {
        let bare = "fn f(h: std::thread::JoinHandle<()>) {\n    h.join();\n}\n";
        assert!(run_plain(bare).is_empty(), "got: {:?}", run_plain(bare));
    }

    #[test]
    fn join_discipline_suppression_works() {
        let src = "fn f(h: std::thread::JoinHandle<()>) {\n\
                   // analyze: allow(thread-hygiene) — detached watchdog; exit races are benign\n\
                   h.join().ok();\n\
                   }\n";
        assert!(run_pool(src).is_empty(), "got: {:?}", run_pool(src));
    }

    #[test]
    fn thread_hygiene_suppression_works() {
        let src = "fn f() {\n\
                   std::thread::scope(|s| {\n\
                   // analyze: allow(thread-hygiene) — fire-and-forget logger, scope join bounds it\n\
                   s.spawn(|| log());\n\
                   });\n\
                   }\n";
        assert!(run_plain(src).is_empty(), "got: {:?}", run_plain(src));
    }
}
