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
use crate::lexer::{lex, TokKind, Token};
use crate::parser::{parse_items, Item, ItemKind};
use crate::symbols::{source_unit, SymbolDef};

/// Stable identifiers for every rule the engine can emit. Suppression
/// comments name these ids.
pub(crate) const RULE_IDS: &[&str] = &[
    "panic-free-paths",
    "lossy-cast",
    "invalid-suppression",
    "unused-suppression",
    "dead-public-api",
    "float-equality",
    "thread-hygiene",
    "panic-reachability",
];

/// Diagnostic severity of a rule id: `"error"` or `"warning"`. Both fail
/// the binary; severity is reporting metadata for the JSON consumer.
pub(crate) fn severity_of(rule: &str) -> &'static str {
    match rule {
        "dead-public-api" => "warning",
        _ => "error",
    }
}

/// One diagnostic: a rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id (one of `RULE_IDS`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// The symbol the finding is about, when the rule knows one (R6 names
    /// the dead definition; token-level rules leave this `None`).
    pub symbol: Option<String>,
}

impl Finding {
    /// `"error"` or `"warning"` (see `severity_of`).
    pub fn severity(&self) -> &'static str {
        severity_of(self.rule)
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
}

/// One source file prepared for analysis: lexed by the caller, then
/// comment-filtered, `#[cfg(test)]`-spanned and item-parsed here, once.
/// Every rule layer (token rules, call-graph extraction,
/// definition/reference collection) reads this borrowed view; none
/// re-derives any part of it.
pub(crate) struct FileView<'a> {
    /// Workspace-relative path, used verbatim in diagnostics.
    pub(crate) rel: &'a str,
    /// The file's text.
    pub(crate) src: &'a str,
    /// Which checks apply to the file.
    pub(crate) profile: FileProfile,
    /// Every token, comments included (suppressions live in comments).
    pub(crate) tokens: &'a [Token],
    /// The comment-free tokens every other rule matches on.
    pub(crate) code: Vec<&'a Token>,
    /// Byte spans of `#[cfg(test)]` items.
    pub(crate) test_spans: Vec<std::ops::Range<usize>>,
    /// Item headers, in source order.
    pub(crate) items: Vec<Item>,
}

impl<'a> FileView<'a> {
    /// Prepares `src`; `tokens` must be `lex(src)`.
    pub(crate) fn new(
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
        FileView { rel, src, profile, tokens, code, test_spans, items }
    }

    /// Is byte offset `pos` test code — anywhere in a `tests/` file, or
    /// inside a `#[cfg(test)]` item elsewhere? R1/R2/R7 relax there (R5),
    /// and R13 harvests nothing there.
    pub(crate) fn in_test(&self, pos: usize) -> bool {
        self.profile.all_test || in_spans(pos, &self.test_spans)
    }

    /// A finding of `rule` at `line:col` of this file, with no symbol.
    pub(crate) fn finding(
        &self,
        line: u32,
        col: u32,
        rule: &'static str,
        message: String,
    ) -> Finding {
        Finding { file: self.rel.to_string(), line, col, rule, message, symbol: None }
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
    /// Interprocedural facts (panic seeds, call edges) for R13.
    pub(crate) cg: crate::callgraph::CgFacts,
}

/// The per-file stage: lexes `src` (the analysis path's only `lex` call),
/// builds the `FileView`, runs every rule over it, and collects the
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
    if profile.numeric {
        rule_float_equality(&view, &mut raw);
    }
    rule_thread_hygiene(&view, &mut raw);

    // Call-graph fact extraction (R13) walks the non-test function bodies
    // only; the propagation runs in [`flow_findings`].
    let cg = crate::callgraph::extract(&view, &mut suppressions);

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
                });
            }
        }

        findings.sort_by_key(|f| (f.line, f.col));
        findings
    }
}

/// The *flow* resolver: the call graph is built over all `files`,
/// propagated, and queried for R13. A pure function of the facts — a
/// one-element slice is single-file mode.
pub(crate) fn flow_findings(files: &[FileFacts]) -> (Vec<Finding>, CallGraph) {
    let mut graph = crate::callgraph::build_graph(files);
    graph.propagate();
    (crate::callgraph::resolve_rules(&graph, files), graph)
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
/// The rule fixtures below drive it.
#[cfg(test)]
fn analyze_source(rel_path: &str, src: &str, profile: FileProfile) -> Vec<Finding> {
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
        // A retired rule's id is unknown too: an allow left behind for one
        // is an error, not a silent no-op.
        for rule in ["no-such-rule", "determinism-taint", "unchecked-index", "lock-order"] {
            let src = format!("fn f() {{\n// analyze: allow({rule}) — because\nlet x = 1;\n}}\n");
            let f = run(&src);
            assert_eq!(rules_of(&f), ["invalid-suppression"], "{rule}");
            assert!(f[0].message.contains(rule), "{rule}: {}", f[0].message);
        }
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

    /// Plain profile: only the always-on rules run, so thread fixtures
    /// don't also trip R1's unwrap check.
    fn run_plain(src: &str) -> Vec<Finding> {
        analyze_source("fixture.rs", src, FileProfile::default())
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
