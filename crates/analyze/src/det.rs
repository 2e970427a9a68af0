//! Determinism dataflow: rules R10 (`determinism-taint`), R11
//! (`unchecked-index`), and R12 (`swallowed-result`).
//!
//! The pass runs a forward may-analysis ([`crate::dataflow`]) over each
//! function's CFG ([`crate::cfg`]). The fact tracks, per variable:
//!
//! * **taint labels** — which nondeterminism sources may influence the
//!   variable's value. Direct sources are the declared lattice in
//!   [`crate::rules::DET_SOURCES`] (clock reads, env reads, hash-seed
//!   randomization, thread identity) plus two structural kinds: iteration
//!   over an unordered container (`HashMap`/`HashSet`) and a reassociated
//!   float reduction (`sum`/`fold`/`product` over such an iteration);
//! * **unordered containers** — variables bound to `HashMap`/`HashSet`
//!   values (by constructor or type annotation), whose iteration order is
//!   a source;
//! * **arith offsets** (R11) — variables derived from `+`/`*`/`<<`
//!   arithmetic that have not passed a bounds check.
//!
//! When a tainted value reaches a declared persisted sink
//! ([`crate::rules::DET_SINKS`]: checkpoint/param encoding, manifest
//! records, atomic artifact writes, the job event stream), R10 fires —
//! error severity in hardened modules, warning elsewhere.
//!
//! **Interprocedural, one call deep.** Each function gets a summary:
//! does it return tainted data (`let x = g(); sink(x)` in a caller), and
//! does it pass a parameter into a sink (`g(tainted)` in a caller)?
//! Callers record *conditional* findings naming the callee; the workspace
//! layer resolves them against the summary map (built from every file via
//! the symbol graph's name-level linkage) after all files are analyzed.
//! Resolution follows at most one `returns_calls` hop, so the flow depth
//! is exactly one call as specified.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::cfg::Cfg;
use crate::dataflow::{forward_fixpoint, Analysis, Fixpoint};
use crate::lexer::{TokKind, Token};
use crate::rules::{FileView, Finding, DET_SINKS, DET_SOURCES};

/// Structural source kind: iteration over an unordered container.
pub(crate) const SRC_UNORDERED: &str = "unordered container iteration";
/// Structural source kind: float reduction whose order follows an
/// unordered iteration (reassociation changes the rounded result).
pub(crate) const SRC_REASSOC: &str = "reassociated float reduction";

/// One taint label on a variable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Label {
    /// Influenced by a declared nondeterminism source.
    Direct(String),
    /// Value returned by a call to `name` — tainted iff the callee's
    /// summary says so (resolved cross-file).
    FromCall(String),
    /// Derived from a function parameter (used only to compute the
    /// param-reaches-sink half of the function's summary).
    Param,
}

/// The dataflow fact: per-variable taint state at a block entry.
#[derive(Debug, Clone, PartialEq, Default)]
struct Fact {
    /// Variable → labels that may influence it.
    vars: BTreeMap<String, BTreeSet<Label>>,
    /// Variables bound to `HashMap`/`HashSet` values.
    unordered: BTreeSet<String>,
    /// Variables holding unchecked `+`/`*`/`<<` arithmetic (R11).
    arith: BTreeSet<String>,
}

/// Per-function summary for the one-call-deep interprocedural step.
#[derive(Debug, Default)]
pub(crate) struct FnSummary {
    /// Function name (merged by name across the workspace, conservatively).
    pub(crate) name: String,
    /// Direct source kinds the return value may carry.
    pub(crate) returns: BTreeSet<String>,
    /// Callees whose return value may flow into this function's return
    /// (resolved one hop at lookup time).
    pub(crate) returns_calls: BTreeSet<String>,
    /// Does some parameter flow into a declared sink in the body?
    pub(crate) param_to_sink: bool,
}

/// Which interprocedural condition a [`CondFinding`] is waiting on.
#[derive(Debug)]
pub(crate) enum CondKind {
    /// `let x = callee(); ...; sink(x)` — fires iff the callee returns
    /// taint. Carries the sink's name and its persisted-what description.
    ReturnsTaint { sink: String, what: String },
    /// `callee(tainted)` — fires iff some callee parameter reaches a sink.
    /// Carries the labels the argument was tainted with.
    ParamToSink { labels: BTreeSet<String> },
}

/// A finding that depends on another function's summary.
#[derive(Debug)]
pub(crate) struct CondFinding {
    pub(crate) file: String,
    pub(crate) line: u32,
    pub(crate) col: u32,
    /// `Some("error")` in hardened modules (R10 severity policy).
    pub(crate) severity_override: Option<&'static str>,
    pub(crate) callee: String,
    /// Name of the enclosing function — the symbol a resolved finding is
    /// attributed to, matching the intraprocedural findings.
    pub(crate) symbol: String,
    pub(crate) kind: CondKind,
}

/// Aggregate dataflow statistics for `--stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetStats {
    /// Function CFGs built.
    pub cfgs: u64,
    /// Basic blocks across all CFGs.
    pub blocks: u64,
    /// CFG edges across all CFGs.
    pub edges: u64,
    /// Total worklist transfers executed across all fixpoints.
    pub fixpoint_iterations: u64,
}

/// Everything the det pass produces for one file.
#[derive(Debug, Default)]
pub(crate) struct DetOutput {
    pub(crate) findings: Vec<Finding>,
    pub(crate) conds: Vec<CondFinding>,
    pub(crate) summaries: Vec<FnSummary>,
    pub(crate) stats: DetStats,
}

/// Runs R10/R11/R12 over one file's view. Findings inside test code are
/// dropped (bench writers and test fixtures persist measurement data by
/// design).
pub(crate) fn run_det(view: &FileView<'_>) -> DetOutput {
    let mut out = DetOutput::default();
    rule_swallowed_result(view, &mut out.findings);
    for cfg in view.live_cfgs() {
        out.stats.cfgs += 1;
        out.stats.blocks += cfg.blocks.len() as u64;
        out.stats.edges += cfg.edge_count() as u64;
        let mut pass = DetPass {
            code: &view.code,
            src: view.src,
            entry: entry_fact(cfg, &view.code, view.src),
            check_index: view.profile.lossy_cast,
        };
        let fixpoint: Fixpoint<Fact> = forward_fixpoint(cfg, &mut pass);
        out.stats.fixpoint_iterations += fixpoint.iterations;
        report_cfg(view, cfg, &pass, &fixpoint, &mut out);
    }
    out
}

/// The entry fact of a function: every parameter carries [`Label::Param`],
/// and `HashMap`/`HashSet`-typed parameters are unordered containers.
fn entry_fact(cfg: &Cfg, code: &[&Token], src: &str) -> Fact {
    let mut fact = Fact::default();
    let sig = &code[cfg.sig.clone()];
    // Parameters live in the first paren group of the signature: scan for
    // `name :` pairs at paren depth 1 and inspect the type tokens after.
    let mut depth = 0i64;
    let mut i = 0;
    while i < sig.len() {
        match sig[i].kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Ident
                if depth == 1
                    && matches!(sig.get(i + 1).map(|t| t.kind), Some(TokKind::Punct(':')))
                    && !matches!(sig.get(i + 2).map(|t| t.kind), Some(TokKind::Punct(':'))) =>
            {
                let name = sig[i].text(src);
                if name != "self" && is_binding_ident(name) {
                    fact.vars.insert(name.to_string(), [Label::Param].into_iter().collect());
                    // Type tokens: up to the `,` or `)` at this depth.
                    let mut j = i + 2;
                    let mut d2 = 0i64;
                    while j < sig.len() {
                        match sig[j].kind {
                            TokKind::Punct('(' | '[') => d2 += 1,
                            TokKind::Punct(')' | ']') if d2 > 0 => d2 -= 1,
                            TokKind::Punct(')' | ',') if d2 == 0 => break,
                            TokKind::Ident if matches!(sig[j].text(src), "HashMap" | "HashSet") => {
                                fact.unordered.insert(name.to_string());
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    fact
}

/// `true` for names a `let`/`for` pattern can bind (snake_case values, not
/// `CamelCase` constructors, keywords, or `_`).
fn is_binding_ident(name: &str) -> bool {
    !name.is_empty()
        && name != "_"
        && !name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && !matches!(name, "mut" | "ref" | "let" | "in" | "if" | "else" | "box")
}

struct DetPass<'a> {
    code: &'a [&'a Token],
    src: &'a str,
    entry: Fact,
    /// R11 applies (decode-path profile).
    check_index: bool,
}

impl Analysis for DetPass<'_> {
    type Fact = Fact;

    fn bottom(&self) -> Fact {
        Fact::default()
    }

    fn entry(&self) -> Fact {
        self.entry.clone()
    }

    fn join(&self, into: &mut Fact, other: &Fact) {
        for (var, labels) in &other.vars {
            into.vars.entry(var.clone()).or_default().extend(labels.iter().cloned());
        }
        into.unordered.extend(other.unordered.iter().cloned());
        into.arith.extend(other.arith.iter().cloned());
    }

    fn transfer(&mut self, cfg: &Cfg, id: crate::cfg::BlockId, fact: &mut Fact) {
        for stmt in &cfg.blocks[id].stmts {
            apply_stmt(self.code, self.src, stmt.clone(), fact, self.check_index, None);
        }
    }
}

/// Findings and summary signals collected during the reporting pass.
#[derive(Default)]
struct StmtReport {
    /// `(token index of the sink/index site, rule, message, labels)`.
    sites: Vec<(usize, &'static str, String)>,
    /// Direct labels that may reach a `return`.
    returns: BTreeSet<String>,
    /// Callees whose return value may reach a `return`.
    returns_calls: BTreeSet<String>,
    /// A `Param`-labeled value reached a sink.
    param_to_sink: bool,
    /// Conditional findings (token index, callee, kind).
    conds: Vec<(usize, String, CondKind)>,
}

/// Second pass over a solved CFG: re-applies every block's transfer from
/// its entry fact, this time recording sink hits and summary signals.
fn report_cfg(
    view: &FileView<'_>,
    cfg: &Cfg,
    pass: &DetPass<'_>,
    fixpoint: &Fixpoint<Fact>,
    out: &mut DetOutput,
) {
    // R10 severity policy: error in hardened modules, the rule default
    // (warning) elsewhere.
    let severity_override = if view.profile.panic_free { Some("error") } else { None };
    let mut report = StmtReport::default();
    for (id, block) in cfg.blocks.iter().enumerate() {
        let mut fact = fixpoint.entry_facts[id].clone();
        let exits = block.succs.iter().any(|(t, _)| *t == cfg.exit);
        for (si, stmt) in block.stmts.iter().enumerate() {
            apply_stmt(
                pass.code,
                pass.src,
                stmt.clone(),
                &mut fact,
                pass.check_index,
                Some(&mut report),
            );
            // Tail expression: the last statement of an exit-bound block
            // with no trailing `;` is the function's return value.
            let last = si + 1 == block.stmts.len();
            if exits && last && stmt.start < stmt.end {
                let ends_semi = pass
                    .code
                    .get(stmt.end - 1)
                    .is_some_and(|t| matches!(t.kind, TokKind::Punct(';')));
                if !ends_semi {
                    let labels = expr_labels(pass.code, pass.src, stmt.clone(), &fact);
                    absorb_return(&labels, &mut report);
                }
            }
        }
    }
    for (tok, rule, message) in report.sites {
        let t = pass.code[tok];
        if view.in_test(t.start) {
            continue;
        }
        out.findings.push(Finding {
            symbol: Some(cfg.name.clone()),
            severity_override: if rule == "determinism-taint" { severity_override } else { None },
            ..view.finding(t.line, t.col, rule, message)
        });
    }
    for (tok, callee, kind) in report.conds {
        let t = pass.code[tok];
        if view.in_test(t.start) {
            continue;
        }
        out.conds.push(CondFinding {
            file: view.rel.to_string(),
            line: t.line,
            col: t.col,
            severity_override,
            callee,
            symbol: cfg.name.clone(),
            kind,
        });
    }
    out.summaries.push(FnSummary {
        name: cfg.name.clone(),
        returns: report.returns,
        returns_calls: report.returns_calls,
        param_to_sink: report.param_to_sink,
    });
}

fn absorb_return(labels: &BTreeSet<Label>, report: &mut StmtReport) {
    for l in labels {
        match l {
            Label::Direct(s) => {
                report.returns.insert(s.clone());
            }
            Label::FromCall(c) => {
                report.returns_calls.insert(c.clone());
            }
            Label::Param => {}
        }
    }
}

/// The taint labels an expression (token range) may carry: labels of every
/// tainted variable it mentions, declared direct sources, and unordered
/// iteration / reassociated reduction kinds.
fn expr_labels(code: &[&Token], src: &str, range: Range<usize>, fact: &Fact) -> BTreeSet<Label> {
    let mut labels = BTreeSet::new();
    let mut saw_unordered_iter = false;
    let mut saw_reduce = false;
    for i in range.clone() {
        let t = code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text(src);
        if let Some(var_labels) = fact.vars.get(name) {
            labels.extend(var_labels.iter().cloned());
        }
        if let Some(kind) = direct_source_at(code, i, src) {
            labels.insert(Label::Direct(kind.to_string()));
        }
        if fact.unordered.contains(name) && unordered_iteration_at(code, i, range.end, src) {
            saw_unordered_iter = true;
        }
        if matches!(name, "sum" | "fold" | "product")
            && i > 0
            && matches!(code[i - 1].kind, TokKind::Punct('.'))
        {
            saw_reduce = true;
        }
    }
    if saw_unordered_iter {
        labels.insert(Label::Direct(SRC_UNORDERED.to_string()));
        if saw_reduce {
            labels.insert(Label::Direct(SRC_REASSOC.to_string()));
        }
    }
    labels
}

/// Is `code[i]` (an unordered-container variable) being iterated —
/// `.iter()`, `.keys()`, `.values()`, `.into_iter()`, `.drain()`, or the
/// whole expression being a `for`-loop iterable (checked by the caller via
/// the for-header path)?
fn unordered_iteration_at(code: &[&Token], i: usize, end: usize, src: &str) -> bool {
    i + 2 < end
        && matches!(code[i + 1].kind, TokKind::Punct('.'))
        && code[i + 2].kind == TokKind::Ident
        && matches!(
            code[i + 2].text(src),
            "iter" | "keys" | "values" | "into_iter" | "drain" | "iter_mut" | "values_mut"
        )
}

/// Does the declared source table match at `code[i]`? Path patterns like
/// `Instant::now` match the final segment plus its `::`-qualified prefix;
/// single-segment patterns match the bare identifier.
fn direct_source_at(code: &[&Token], i: usize, src: &str) -> Option<&'static str> {
    let name = code[i].text(src);
    for (pattern, kind) in DET_SOURCES {
        match pattern.rsplit_once("::") {
            None => {
                if *pattern == name {
                    return Some(kind);
                }
            }
            Some((prefix, last)) => {
                if last == name
                    && i >= 3
                    && matches!(code[i - 1].kind, TokKind::Punct(':'))
                    && matches!(code[i - 2].kind, TokKind::Punct(':'))
                    && code[i - 3].kind == TokKind::Ident
                    && code[i - 3].text(src) == prefix
                {
                    return Some(kind);
                }
            }
        }
    }
    None
}

/// Applies one statement to the fact; when `report` is present, records
/// sink hits, R11 index sites, conditionals, and return taint.
fn apply_stmt(
    code: &[&Token],
    src: &str,
    range: Range<usize>,
    fact: &mut Fact,
    check_index: bool,
    mut report: Option<&mut StmtReport>,
) {
    if range.start >= range.end {
        return;
    }
    let first = code[range.start];

    // Bounds guards kill R11 arithmetic taint before any index check in
    // the same statement (`if off < buf.len() { buf[off] }` style guards
    // usually precede the use in a separate statement anyway).
    kill_guarded_arith(code, src, range.clone(), fact);

    // `for pat in iterable { ... }` headers bind the pattern.
    if first.kind == TokKind::Ident && first.text(src) == "for" {
        if let Some(in_idx) = find_ident_depth0(code, src, range.clone(), "in") {
            let iter_range = in_idx + 1..range.end;
            let mut labels = expr_labels(code, src, iter_range.clone(), fact);
            // Iterating the container itself (`for (k, v) in &map`).
            let direct_container = (iter_range.clone()).any(|j| {
                code[j].kind == TokKind::Ident && fact.unordered.contains(code[j].text(src))
            });
            if direct_container {
                labels.insert(Label::Direct(SRC_UNORDERED.to_string()));
            }
            scan_calls(code, src, iter_range, fact, check_index, report.as_deref_mut());
            for t in &code[range.start + 1..in_idx] {
                if t.kind == TokKind::Ident && is_binding_ident(t.text(src)) {
                    bind(fact, t.text(src), &labels, false);
                }
            }
            return;
        }
    }

    // `let <pat>[: <ty>] = <rhs>;` and `x = rhs;` / `x op= rhs;`.
    let (bound, ty_range, rhs_range, weak) = split_binding(code, src, range.clone());

    // Scan the whole statement (or just the RHS scan happens implicitly —
    // sinks can appear anywhere) for sink calls, conditionals, and R11.
    scan_calls(code, src, range.clone(), fact, check_index, report.as_deref_mut());

    // `return <expr>` routes labels into the summary.
    if let Some(ret_idx) = find_ident_depth0(code, src, range.clone(), "return") {
        if let Some(report) = report {
            let labels = expr_labels(code, src, ret_idx + 1..range.end, fact);
            absorb_return(&labels, report);
        }
    }

    // `recv.method(args)` mutates the receiver: conservatively union the
    // argument labels into it, so accumulation like `blob.push(tainted)`
    // taints `blob`.
    if bound.is_empty()
        && first.kind == TokKind::Ident
        && is_binding_ident(first.text(src))
        && range.start + 1 < range.end
        && matches!(code[range.start + 1].kind, TokKind::Punct('.'))
    {
        if let Some(open) = (range.clone()).find(|&j| matches!(code[j].kind, TokKind::Punct('('))) {
            let labels = expr_labels(code, src, open..range.end, fact);
            if !labels.is_empty() {
                bind(fact, first.text(src), &labels, true);
            }
        }
    }

    let Some(rhs) = rhs_range else { return };
    let mut labels = expr_labels(code, src, rhs.clone(), fact);
    // A single-call RHS (`let x = g(...);`) marks x as from-call so a later
    // sink use can be resolved against g's summary.
    if let Some(callee) = single_call_callee(code, src, rhs.clone()) {
        if !DET_SINKS.iter().any(|(s, _)| *s == callee) {
            labels.insert(Label::FromCall(callee));
        }
    }
    let rhs_unordered = (rhs.clone()).any(|j| {
        code[j].kind == TokKind::Ident
            && (matches!(code[j].text(src), "HashMap" | "HashSet")
                || fact.unordered.contains(code[j].text(src)))
    }) || (ty_range.clone()).is_some_and(|ty| {
        ty.clone().any(|j| {
            code[j].kind == TokKind::Ident && matches!(code[j].text(src), "HashMap" | "HashSet")
        })
    });
    // An RHS that bounds its own result (`% len`, `.min(n)`, `.clamp(..)`)
    // produces a safe index no matter what arithmetic fed it.
    let rhs_bounded = (rhs.clone()).any(|j| {
        matches!(code[j].kind, TokKind::Punct('%'))
            || (code[j].kind == TokKind::Ident
                && matches!(code[j].text(src), "min" | "clamp")
                && j > 0
                && matches!(code[j - 1].kind, TokKind::Punct('.')))
    });
    let rhs_arith = check_index
        && !rhs_bounded
        && ((rhs.clone()).any(|j| matches!(code[j].kind, TokKind::Punct('+' | '*')))
            || (rhs.clone())
                .any(|j| code[j].kind == TokKind::Ident && fact.arith.contains(code[j].text(src)))
            || weak_is_arith(code, range.clone()));

    for var in &bound {
        bind(fact, var, &labels, weak);
        if rhs_unordered {
            fact.unordered.insert(var.clone());
        } else if !weak {
            fact.unordered.remove(var);
        }
        if rhs_arith {
            fact.arith.insert(var.clone());
        } else if !weak {
            fact.arith.remove(var);
        }
    }
}

/// Binds `var` to `labels`: strong update for `=`, union for `op=`.
fn bind(fact: &mut Fact, var: &str, labels: &BTreeSet<Label>, weak: bool) {
    if weak {
        if !labels.is_empty() {
            fact.vars.entry(var.to_string()).or_default().extend(labels.iter().cloned());
        }
    } else if labels.is_empty() {
        fact.vars.remove(var);
    } else {
        fact.vars.insert(var.to_string(), labels.clone());
    }
}

/// Was this statement a compound assignment (`x += ...`)? Those are
/// arithmetic by definition for R11.
fn weak_is_arith(code: &[&Token], range: Range<usize>) -> bool {
    range.start + 1 < range.end
        && matches!(code[range.start + 1].kind, TokKind::Punct('+' | '-' | '*'))
        && code.get(range.start + 2).is_some_and(|t| matches!(t.kind, TokKind::Punct('=')))
}

/// Splits a statement into `(bound vars, type annotation range, rhs range,
/// weak update?)`. Returns empty bindings for non-assignment statements.
type Binding = (Vec<String>, Option<Range<usize>>, Option<Range<usize>>, bool);

fn split_binding(code: &[&Token], src: &str, range: Range<usize>) -> Binding {
    let first = code[range.start];
    if first.kind == TokKind::Ident && first.text(src) == "let" {
        // Pattern up to a depth-0 `:` or `=`.
        let mut depth = 0i64;
        let mut colon = None;
        let mut eq = None;
        for j in range.start + 1..range.end {
            match code[j].kind {
                TokKind::Punct('(' | '[' | '{') => depth += 1,
                TokKind::Punct(')' | ']' | '}') => depth -= 1,
                TokKind::Punct(':') if depth == 0 && colon.is_none() && eq.is_none() => {
                    // `::` paths are not the type separator.
                    let double =
                        matches!(code.get(j + 1).map(|t| t.kind), Some(TokKind::Punct(':')))
                            || matches!(
                                code.get(j.wrapping_sub(1)).map(|t| t.kind),
                                Some(TokKind::Punct(':'))
                            );
                    if !double {
                        colon = Some(j);
                    }
                }
                // Not `==`.
                TokKind::Punct('=')
                    if depth == 0
                        && eq.is_none()
                        && !matches!(
                            code.get(j + 1).map(|t| t.kind),
                            Some(TokKind::Punct('='))
                        ) =>
                {
                    eq = Some(j);
                    break;
                }
                _ => {}
            }
        }
        let Some(eq) = eq else { return (Vec::new(), None, None, false) };
        let pat_end = colon.unwrap_or(eq);
        let mut bound = Vec::new();
        for t in &code[range.start + 1..pat_end] {
            if t.kind == TokKind::Ident && is_binding_ident(t.text(src)) {
                bound.push(t.text(src).to_string());
            }
        }
        let ty = colon.map(|c| c + 1..eq);
        return (bound, ty, Some(eq + 1..range.end), false);
    }
    // `x = rhs;` / `x op= rhs;`.
    if first.kind == TokKind::Ident && range.start + 1 < range.end {
        let second = code[range.start + 1];
        let (eq_at, weak) = match second.kind {
            TokKind::Punct('=')
                if !matches!(
                    code.get(range.start + 2).map(|t| t.kind),
                    Some(TokKind::Punct('='))
                ) =>
            {
                (range.start + 1, false)
            }
            TokKind::Punct('+' | '-' | '*' | '/' | '%' | '|' | '&' | '^')
                if matches!(
                    code.get(range.start + 2).map(|t| t.kind),
                    Some(TokKind::Punct('='))
                ) =>
            {
                (range.start + 2, true)
            }
            _ => return (Vec::new(), None, None, false),
        };
        if is_binding_ident(first.text(src)) {
            return (vec![first.text(src).to_string()], None, Some(eq_at + 1..range.end), weak);
        }
    }
    (Vec::new(), None, None, false)
}

/// If the range is exactly one call — `path::to::g(args)` with optional
/// trailing `?`/`;` — returns the callee's final-segment name.
fn single_call_callee(code: &[&Token], src: &str, range: Range<usize>) -> Option<String> {
    let mut end = range.end;
    while end > range.start && matches!(code[end - 1].kind, TokKind::Punct(';' | '?')) {
        end -= 1;
    }
    // Walk the leading path: idents separated by `::`.
    let mut j = range.start;
    let mut last_ident = None;
    while j < end {
        match code[j].kind {
            TokKind::Ident => last_ident = Some(j),
            TokKind::Punct(':') => {}
            TokKind::Punct('(') => break,
            _ => return None,
        }
        j += 1;
    }
    let open = j;
    let callee = last_ident.filter(|l| l + 1 == open)?;
    // The call's parens must close exactly at the expression end.
    let mut depth = 0i64;
    for k in open..end {
        match code[k].kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']' | '}') => {
                depth -= 1;
                if depth == 0 {
                    if k + 1 != end {
                        return None;
                    }
                    return code.get(callee).map(|t| t.text(src).to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Scans a range for sink calls (R10), conditional call findings, and R11
/// index sites. Also mutates nothing in `fact` — pure inspection.
fn scan_calls(
    code: &[&Token],
    src: &str,
    range: Range<usize>,
    fact: &Fact,
    check_index: bool,
    mut report: Option<&mut StmtReport>,
) {
    for i in range.clone() {
        let t = code[i];
        // R11: `<recv> [ <expr with arith var> ]`.
        if check_index
            && matches!(t.kind, TokKind::Punct('['))
            && i > range.start
            && matches!(code[i - 1].kind, TokKind::Ident | TokKind::Punct(')' | ']'))
        {
            let close = matching_square(code, i, range.end);
            let mut hit: Option<&str> = None;
            for t in &code[i + 1..close] {
                if t.kind == TokKind::Ident && fact.arith.contains(t.text(src)) {
                    hit = Some(t.text(src));
                    break;
                }
            }
            if let (Some(var), Some(report)) = (hit, report.as_deref_mut()) {
                report.sites.push((
                    i,
                    "unchecked-index",
                    format!(
                        "`{var}` carries unchecked offset arithmetic into slice indexing; bound \
                         it first (compare against `.len()`, use `.get(...)`, or assert) or \
                         justify with `// analyze: allow(unchecked-index) — <why>`"
                    ),
                ));
            }
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        // Calls: `name (` that is not a definition (`fn name(`) or macro
        // (`name!(`).
        let is_call = matches!(code.get(i + 1).map(|t| t.kind), Some(TokKind::Punct('(')))
            && !(i > 0 && code[i - 1].kind == TokKind::Ident && code[i - 1].text(src) == "fn")
            && !matches!(code.get(i.wrapping_sub(1)).map(|t| t.kind), Some(TokKind::Punct('!')));
        if !is_call {
            continue;
        }
        let name = t.text(src);
        let close = matching_paren(code, i + 1, range.end);
        let sink = DET_SINKS.iter().find(|(s, _)| *s == name);
        // Taint scan covers the arguments plus the receiver chain
        // (`sample.encode()` persists `sample` itself).
        let mut labels = expr_labels(code, src, i + 2..close, fact);
        let mut k = i;
        while k >= 2 && matches!(code[k - 1].kind, TokKind::Punct('.' | ':')) {
            if code[k - 2].kind == TokKind::Ident {
                let recv = code[k - 2].text(src);
                if let Some(var_labels) = fact.vars.get(recv) {
                    labels.extend(var_labels.iter().cloned());
                }
            }
            k -= 2;
        }
        let Some(report) = report.as_deref_mut() else { continue };
        if let Some((sink_name, what)) = sink {
            let mut direct: BTreeSet<String> = BTreeSet::new();
            let mut calls: BTreeSet<String> = BTreeSet::new();
            for l in &labels {
                match l {
                    Label::Direct(s) => {
                        direct.insert(s.clone());
                    }
                    Label::FromCall(c) => {
                        calls.insert(c.clone());
                    }
                    Label::Param => report.param_to_sink = true,
                }
            }
            if !direct.is_empty() {
                let kinds: Vec<&str> = direct.iter().map(|s| s.as_str()).collect();
                report.sites.push((
                    i,
                    "determinism-taint",
                    format!(
                        "value influenced by {} reaches persisted sink `{sink_name}` ({what}); \
                         persisted bytes must be a pure function of the inputs — sort/seed the \
                         source or justify with \
                         `// analyze: allow(determinism-taint) — <why>`",
                        kinds.join(" + ")
                    ),
                ));
            }
            for callee in calls {
                report.conds.push((
                    i,
                    callee,
                    CondKind::ReturnsTaint { sink: sink_name.to_string(), what: what.to_string() },
                ));
            }
        } else {
            // Non-sink call with directly tainted arguments: fires iff the
            // callee's summary says a parameter reaches a sink.
            let direct: BTreeSet<String> = labels
                .iter()
                .filter_map(|l| match l {
                    Label::Direct(s) => Some(s.clone()),
                    _ => None,
                })
                .collect();
            if !direct.is_empty() {
                report.conds.push((i, name.to_string(), CondKind::ParamToSink { labels: direct }));
            }
        }
    }
}

/// Removes variables from the arith set when the statement bounds them:
/// a `<`/`<=`/`>`/`>=` comparison, an `assert!`-family macro, `%`, or a
/// `.min(`/`.clamp(`/`.get(` call mentioning them.
fn kill_guarded_arith(code: &[&Token], src: &str, range: Range<usize>, fact: &mut Fact) {
    if fact.arith.is_empty() {
        return;
    }
    let has_assert = (range.clone()).any(|j| {
        code[j].kind == TokKind::Ident
            && code[j].text(src).starts_with("assert")
            && matches!(code.get(j + 1).map(|t| t.kind), Some(TokKind::Punct('!')))
    });
    let has_bounding_call = (range.clone()).any(|j| {
        code[j].kind == TokKind::Ident
            && matches!(code[j].text(src), "min" | "clamp" | "get" | "get_mut")
            && j > 0
            && matches!(code[j - 1].kind, TokKind::Punct('.'))
    });
    let has_mod = (range.clone()).any(|j| matches!(code[j].kind, TokKind::Punct('%')));
    if has_assert || has_bounding_call || has_mod {
        for j in range.clone() {
            if code[j].kind == TokKind::Ident {
                fact.arith.remove(code[j].text(src));
            }
        }
        return;
    }
    // Comparison guards: a statement containing a relational operator is
    // a bound check (`while i + 1 < close`, `if at >= len`, ...), so it
    // absolves every identifier it mentions. A missed guard here would be
    // a false *positive* elsewhere, so erring toward the kill is the
    // conservative direction for a linter.
    let has_rel = (range.clone()).any(|j| match code[j].kind {
        TokKind::Punct('<') | TokKind::Punct('>') => {
            // Not `<<`, `>>`, `->`, `::<`, generics-ish `<T>`.
            !matches!(
                code.get(j.wrapping_sub(1)).map(|t| t.kind),
                Some(TokKind::Punct('<' | '>' | '-' | ':'))
            ) && !matches!(code.get(j + 1).map(|t| t.kind), Some(TokKind::Punct('<' | '>')))
        }
        _ => false,
    });
    if has_rel {
        for j in range {
            if code[j].kind == TokKind::Ident {
                fact.arith.remove(code[j].text(src));
            }
        }
    }
}

fn find_ident_depth0(code: &[&Token], src: &str, range: Range<usize>, word: &str) -> Option<usize> {
    let mut depth = 0i64;
    for j in range {
        match code[j].kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']' | '}') => depth -= 1,
            TokKind::Ident if depth == 0 && code[j].text(src) == word => return Some(j),
            _ => {}
        }
    }
    None
}

fn matching_paren(code: &[&Token], open: usize, end: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in code.iter().enumerate().take(end).skip(open) {
        match t.kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    end
}

fn matching_square(code: &[&Token], open: usize, end: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in code.iter().enumerate().take(end).skip(open) {
        match t.kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    end
}

// ---------------------------------------------------------------------------
// R12: swallowed-result
// ---------------------------------------------------------------------------

/// R12: a discarded `Result` on a persisted-artifact path. `let _ = <sink
/// call>;` or `<sink call>.ok()` silently drops an I/O failure on the one
/// path where a missing artifact corrupts a resume or a CI report.
fn rule_swallowed_result(view: &FileView<'_>, out: &mut Vec<Finding>) {
    let (code, src) = (&view.code, view.src);
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokKind::Ident || view.in_test(t.start) {
            continue;
        }
        let name = t.text(src);
        let Some((sink, what)) = DET_SINKS.iter().find(|(s, _)| *s == name) else { continue };
        if !matches!(code.get(i + 1).map(|t| t.kind), Some(TokKind::Punct('('))) {
            continue;
        }
        // Not a definition site.
        if i > 0 && code[i - 1].kind == TokKind::Ident && code[i - 1].text(src) == "fn" {
            continue;
        }
        let close = matching_paren(code, i + 1, code.len());
        let flag = |shape: &str, out: &mut Vec<Finding>| {
            out.push(view.finding(
                t.line,
                t.col,
                "swallowed-result",
                format!(
                    "{shape} discards the `Result` of persisted-artifact write `{sink}` ({what}); \
                     propagate the error or handle it explicitly (or justify with \
                     `// analyze: allow(swallowed-result) — <why>`)"
                ),
            ));
        };
        // `<call>.ok();` — swallowed.
        if matches!(code.get(close + 1).map(|t| t.kind), Some(TokKind::Punct('.')))
            && code.get(close + 2).is_some_and(|n| n.kind == TokKind::Ident && n.text(src) == "ok")
            && matches!(code.get(close + 3).map(|t| t.kind), Some(TokKind::Punct('(')))
        {
            flag(&format!("`{name}(...).ok()`"), out);
            continue;
        }
        // `let _ = <chain containing the sink call>;` with no `?`.
        if !matches!(code.get(close + 1).map(|t| t.kind), Some(TokKind::Punct(';' | '.'))) {
            continue;
        }
        let mut j = i;
        while j > 0 && !matches!(code[j - 1].kind, TokKind::Punct(';' | '{' | '}')) {
            j -= 1;
        }
        let let_discard =
            code.get(j).is_some_and(|t| t.kind == TokKind::Ident && t.text(src) == "let")
                && code.get(j + 1).is_some_and(|t| t.kind == TokKind::Ident && t.text(src) == "_")
                && matches!(code.get(j + 2).map(|t| t.kind), Some(TokKind::Punct('=')));
        let has_question = (j..close + 2)
            .any(|k| code.get(k).is_some_and(|t| matches!(t.kind, TokKind::Punct('?'))));
        if let_discard && !has_question {
            flag(&format!("`let _ = ... {name}(...)`"), out);
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-file resolution
// ---------------------------------------------------------------------------

/// Summaries merged by function name (name collisions union — the same
/// conservative may-semantics the symbol graph uses).
pub(crate) fn merge_summaries<'a, I: IntoIterator<Item = &'a FnSummary>>(
    iter: I,
) -> BTreeMap<String, FnSummary> {
    let mut map: BTreeMap<String, FnSummary> = BTreeMap::new();
    for s in iter {
        let entry = map
            .entry(s.name.clone())
            .or_insert_with(|| FnSummary { name: s.name.clone(), ..FnSummary::default() });
        entry.returns.extend(s.returns.iter().cloned());
        entry.returns_calls.extend(s.returns_calls.iter().cloned());
        entry.param_to_sink |= s.param_to_sink;
    }
    map
}

/// Resolves conditional findings against the merged summary map. The
/// callee lookup follows one `returns_calls` hop, so taint flows exactly
/// one call deep as documented.
pub(crate) fn resolve_conditionals(
    conds: &[CondFinding],
    summaries: &BTreeMap<String, FnSummary>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for c in conds {
        match &c.kind {
            CondKind::ReturnsTaint { sink, what } => {
                let mut labels: BTreeSet<String> = BTreeSet::new();
                if let Some(s) = summaries.get(&c.callee) {
                    labels.extend(s.returns.iter().cloned());
                    for hop in &s.returns_calls {
                        if let Some(h) = summaries.get(hop) {
                            labels.extend(h.returns.iter().cloned());
                        }
                    }
                }
                if !labels.is_empty() {
                    let kinds: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
                    out.push(Finding {
                        file: c.file.clone(),
                        line: c.line,
                        col: c.col,
                        rule: "determinism-taint",
                        message: format!(
                            "value returned by `{}` carries {} and reaches persisted sink \
                             `{sink}` ({what}); make the callee deterministic or justify with \
                             `// analyze: allow(determinism-taint) — <why>`",
                            c.callee,
                            kinds.join(" + ")
                        ),
                        symbol: Some(c.symbol.clone()),
                        severity_override: c.severity_override,
                    });
                }
            }
            CondKind::ParamToSink { labels } => {
                let reaches = summaries.get(&c.callee).is_some_and(|s| s.param_to_sink);
                if reaches {
                    let kinds: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
                    out.push(Finding {
                        file: c.file.clone(),
                        line: c.line,
                        col: c.col,
                        rule: "determinism-taint",
                        message: format!(
                            "argument influenced by {} is passed to `{}`, which writes its \
                             parameter to a persisted sink; make the input deterministic or \
                             justify with `// analyze: allow(determinism-taint) — <why>`",
                            kinds.join(" + "),
                            c.callee
                        ),
                        symbol: Some(c.symbol.clone()),
                        severity_override: c.severity_override,
                    });
                }
            }
        }
    }
    out
}
