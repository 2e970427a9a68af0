//! Interprocedural layer: the workspace call graph and the three rules
//! built on it (R13 panic-reachability, R14 lock-order, R15
//! blocking-under-lock).
//!
//! The layer is split the same way the rest of the analyzer is:
//!
//! * **Per-file extraction** ([`extract`]) walks each function CFG and
//!   records *facts* — panic seeds, blocking-operation sites, call sites,
//!   lock-order edges, and calls made while a lock is must-held. Facts are
//!   plain data ([`CgFacts`]), one value per file.
//! * **Cross-file resolution** ([`build_graph`] + [`resolve_rules`]) is a
//!   pure function of the per-file facts: it merges definitions by name
//!   (the same conservative heuristic `det.rs` uses for its one-hop
//!   summaries), condenses the graph with an iterative Tarjan SCC pass,
//!   propagates may-panic/may-block over the condensation in reverse
//!   topological order, and renders shortest witness paths via BFS.
//!
//! Seed policy for R13: panic seeds are only harvested from files that are
//! *not* themselves panic-free-hardened — R1 already polices local panic
//! sites in hardened modules (and justified suppressions there mean the
//! site was audited). R13 closes the other loophole: a hardened public API
//! calling out into a panicky helper elsewhere in the workspace.
//!
//! Lockset for R14/R15 is a *must*-analysis encoded as two grow-only sets
//! so it runs on the existing may-join worklist engine: `may` holds guard
//! records seen on some path, `unheld` holds lock names released (or never
//! acquired) on some path; a lock is must-held iff it is in `may` and not
//! in `unheld`. Both components only grow under join, which keeps
//! [`crate::dataflow::forward_fixpoint`]'s monotonicity contract.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

use crate::cfg::{BlockId, Cfg};
use crate::dataflow::{forward_fixpoint, Analysis};
use crate::lexer::{TokKind, Token};
use crate::parser::{ItemKind, Visibility};
use crate::rules::{lock_acquisition, FileFacts, FileView, Finding, Suppression, LOCK_ORDER};
use crate::symbols::SymbolDef;

// ---------------------------------------------------------------------------
// Per-file fact types
// ---------------------------------------------------------------------------

/// One extracted site: a panic seed, a blocking operation, or a call,
/// attributed to the enclosing function.
#[derive(Debug)]
pub struct CgSite {
    /// 1-based line of the site.
    pub line: u32,
    /// 1-based column of the site.
    pub col: u32,
    /// Name of the enclosing function.
    pub func: String,
    /// Panic/blocking sites: a human-readable description of the hazard.
    /// Call sites: the callee name.
    pub what: String,
}

/// One lock-order edge: `to` was acquired while `from` was must-held.
#[derive(Debug)]
pub struct LockEdge {
    /// 1-based line of the acquisition of `to`.
    pub line: u32,
    /// 1-based column of the acquisition of `to`.
    pub col: u32,
    /// Name of the enclosing function.
    pub func: String,
    /// The lock already held.
    pub from: String,
    /// The lock being acquired.
    pub to: String,
}

/// A call made while at least one lock was must-held (resolved cross-file
/// against the callee's may-block fact).
#[derive(Debug)]
pub struct UnderLockCall {
    /// 1-based line of the call.
    pub line: u32,
    /// 1-based column of the call.
    pub col: u32,
    /// Name of the enclosing function.
    pub func: String,
    /// The callee name.
    pub callee: String,
    /// The must-held lock names at the call, sorted.
    pub held: Vec<String>,
}

/// Every interprocedural fact extracted from one file.
#[derive(Debug, Default)]
pub struct CgFacts {
    /// Panic seeds (empty for panic-free-hardened files by policy).
    pub panics: Vec<CgSite>,
    /// Blocking-operation sites (`what` describes the operation).
    pub blocking: Vec<CgSite>,
    /// Call sites, deduplicated per `(func, callee)` keeping the earliest.
    pub calls: Vec<CgSite>,
    /// Lock-order edges observed under the must-lockset dataflow.
    pub lock_edges: Vec<LockEdge>,
    /// Calls made while a lock was must-held.
    pub under_lock: Vec<UnderLockCall>,
}

/// The file's non-test `fn` definitions — its call-graph nodes (methods
/// by bare name, like `det.rs` summaries).
fn fn_defs(file: &FileFacts) -> impl Iterator<Item = &SymbolDef> {
    file.defs.iter().filter(|d| d.kind == ItemKind::Fn && !d.in_test_item)
}

// ---------------------------------------------------------------------------
// Extraction: per-file CFG walk
// ---------------------------------------------------------------------------

/// Idents whose presence in a statement marks every ident in it as
/// bounds-audited (the soft-seed gate borrows R11's philosophy).
const GUARD_CALLS: &[&str] = &[
    "min",
    "max",
    "clamp",
    "get",
    "get_mut",
    "saturating_sub",
    "checked_sub",
    "checked_div",
    "checked_rem",
    "checked_add",
    "checked_mul",
];

const ASSERT_MACROS: &[&str] =
    &["assert", "assert_eq", "assert_ne", "debug_assert", "debug_assert_eq", "debug_assert_ne"];

/// Walks every non-test function CFG in a file and extracts the
/// interprocedural facts, pushing any flow-local R14/R15 findings
/// (declared-order violations, direct blocking under a held lock) into
/// `raw` so they ride the normal per-file suppression machinery.
///
/// Seeds honour suppressions at the *seed site*: an
/// `// analyze: allow(panic-reachability)` on (or above) a panic site
/// stops the site from seeding the graph — the downstream findings would
/// otherwise land in distant files where no annotation could reach them.
/// The matched suppression is marked used so it does not read as stale.
pub(crate) fn extract(
    view: &FileView<'_>,
    sups: &mut [Suppression],
    raw: &mut Vec<Finding>,
) -> CgFacts {
    let mut facts = CgFacts::default();
    for cfg in view.live_cfgs() {
        extract_fn(view, cfg, &mut facts, sups, raw);
    }
    facts
}

/// Marks every valid suppression for `rule` covering `line` as used and
/// reports whether any matched.
fn seed_allowed(sups: &mut [Suppression], rule: &str, line: u32) -> bool {
    let mut hit = false;
    for s in sups.iter_mut() {
        if s.error.is_none() && s.rule == rule && (s.line == line || s.line + 1 == line) {
            s.used = true;
            hit = true;
        }
    }
    hit
}

fn extract_fn(
    view: &FileView<'_>,
    cfg: &Cfg,
    facts: &mut CgFacts,
    sups: &mut [Suppression],
    raw: &mut Vec<Finding>,
) {
    let (code, src) = (&view.code[..], view.src);
    let stmts: Vec<Range<usize>> =
        cfg.blocks.iter().flat_map(|b| b.stmts.iter().cloned()).collect();
    let bounded = bounded_idents(code, src, &stmts);

    let mut seen_calls: BTreeSet<String> = BTreeSet::new();
    for stmt in &stmts {
        let guarded = stmt_is_guarded(code, src, stmt);
        for i in stmt.clone() {
            let t = code[i];
            if !view.profile.panic_free {
                if let Some(what) = panic_seed_at(code, src, i, &bounded, guarded) {
                    if !seed_allowed(sups, "panic-reachability", t.line) {
                        facts.panics.push(site(t, &cfg.name, what));
                    }
                }
            }
            if let Some(what) = blocking_op_at(code, src, i) {
                if !seed_allowed(sups, "blocking-under-lock", t.line) {
                    facts.blocking.push(site(t, &cfg.name, what.to_string()));
                }
            }
            if let Some(callee) = call_at(code, src, i) {
                if seen_calls.insert(callee.to_string()) {
                    facts.calls.push(site(t, &cfg.name, callee.to_string()));
                }
            }
        }
    }

    lockset_fn(view, cfg, facts, raw);
}

fn site(t: &Token, func: &str, what: String) -> CgSite {
    CgSite { line: t.line, col: t.col, func: func.to_string(), what }
}

/// Idents appearing in any statement that carries a bounds guard
/// (assert-family macro, relational comparison, `%`, or a bounding call),
/// plus `for`-loop pattern variables — these never gate a soft panic seed.
fn bounded_idents(code: &[&Token], src: &str, stmts: &[Range<usize>]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for stmt in stmts {
        if stmt_is_guarded(code, src, stmt) {
            for i in stmt.clone() {
                if code[i].kind == TokKind::Ident {
                    out.insert(code[i].text(src).to_string());
                }
            }
        }
        // `for pat in iter` bounds the pattern idents by construction.
        let mut j = stmt.start;
        while j < stmt.end {
            if code[j].kind == TokKind::Ident && code[j].text(src) == "for" {
                let mut k = j + 1;
                while k < stmt.end && !ident_is(code, k, src, "in") {
                    if code[k].kind == TokKind::Ident {
                        out.insert(code[k].text(src).to_string());
                    }
                    k += 1;
                }
            }
            j += 1;
        }
    }
    out
}

fn ident_is(code: &[&Token], i: usize, src: &str, name: &str) -> bool {
    code.get(i).is_some_and(|t| t.kind == TokKind::Ident && t.text(src) == name)
}

fn punct_at(code: &[&Token], i: usize, c: char) -> bool {
    code.get(i).is_some_and(|t| t.kind == TokKind::Punct(c))
}

/// Whether a statement carries any bounds evidence: an assert-family
/// macro, a relational `<`/`>` (excluding shifts, `->`, and turbofish),
/// a `%`, or a bounding call like `.min(..)`/`.get(..)`.
fn stmt_is_guarded(code: &[&Token], src: &str, stmt: &Range<usize>) -> bool {
    for i in stmt.clone() {
        let t = code[i];
        match t.kind {
            TokKind::Ident => {
                let text = t.text(src);
                if ASSERT_MACROS.contains(&text) && punct_at(code, i + 1, '!') {
                    return true;
                }
                if GUARD_CALLS.contains(&text)
                    && i >= 1
                    && punct_at(code, i - 1, '.')
                    && punct_at(code, i + 1, '(')
                {
                    return true;
                }
            }
            TokKind::Punct('%') => return true,
            TokKind::Punct(c @ ('<' | '>')) => {
                let same_next = code.get(i + 1).is_some_and(|n| n.kind == TokKind::Punct(c));
                let same_prev = i >= 1 && code[i - 1].kind == TokKind::Punct(c);
                let arrow = c == '>' && i >= 1 && code[i - 1].kind == TokKind::Punct('-');
                let turbofish = c == '<' && i >= 1 && code[i - 1].kind == TokKind::Punct(':');
                if !(same_next || same_prev || arrow || turbofish) {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// A panic seed at `code[i]`, if any. Hard seeds (panicking macros,
/// `.unwrap()`, `.expect(`) always count; soft seeds (arithmetic indexing,
/// division/modulo by a variable) only when nothing bounds them.
fn panic_seed_at(
    code: &[&Token],
    src: &str,
    i: usize,
    bounded: &BTreeSet<String>,
    stmt_guarded: bool,
) -> Option<String> {
    let t = code[i];
    match t.kind {
        TokKind::Ident => {
            let text = t.text(src);
            if matches!(text, "panic" | "unreachable" | "todo" | "unimplemented")
                && punct_at(code, i + 1, '!')
            {
                return Some(format!("`{text}!`"));
            }
            let dotted = i >= 1 && punct_at(code, i - 1, '.');
            if dotted
                && text == "unwrap"
                && punct_at(code, i + 1, '(')
                && punct_at(code, i + 2, ')')
            {
                return Some("`.unwrap()`".to_string());
            }
            if dotted && text == "expect" && punct_at(code, i + 1, '(') {
                return Some("`.expect(..)`".to_string());
            }
            None
        }
        TokKind::Punct('[') if !stmt_guarded => {
            // Indexing with arithmetic in the index and no bounded
            // participant: `v[a + b]` where neither `a` nor `b` is audited.
            let indexable = i >= 1
                && (code[i - 1].kind == TokKind::Ident
                    || code[i - 1].kind == TokKind::Punct(')')
                    || code[i - 1].kind == TokKind::Punct(']'));
            if !indexable {
                return None;
            }
            let close = matching_square(code, i)?;
            let mut has_arith = false;
            let mut idents: Vec<&str> = Vec::new();
            for t in &code[i + 1..close] {
                match t.kind {
                    TokKind::Punct('+' | '*') => has_arith = true,
                    TokKind::Ident => idents.push(t.text(src)),
                    _ => {}
                }
            }
            if has_arith && !idents.is_empty() && idents.iter().all(|id| !bounded.contains(*id)) {
                return Some("arithmetic slice indexing".to_string());
            }
            None
        }
        TokKind::Punct(op @ ('/' | '%')) => {
            // Division/modulo by a bare, unbounded variable.
            let binary = i >= 1
                && matches!(
                    code[i - 1].kind,
                    TokKind::Ident | TokKind::Number | TokKind::Punct(')') | TokKind::Punct(']')
                );
            if !binary || punct_at(code, i + 1, '=') {
                return None;
            }
            let d = code.get(i + 1)?;
            if d.kind != TokKind::Ident || punct_at(code, i + 2, '(') || punct_at(code, i + 2, '.')
            {
                return None;
            }
            let name = d.text(src);
            let all_caps = name.chars().all(|c| c.is_ascii_uppercase() || c == '_');
            if all_caps || bounded.contains(name) || divisor_guarded(code, src, i) {
                return None;
            }
            Some(format!("`{op} {name}` with an unchecked divisor"))
        }
        _ => None,
    }
}

/// Whether the statement containing the divisor at `code[i]` carries an
/// assert/relational/bounding-call guard (the `%`-as-guard shortcut in
/// [`stmt_is_guarded`] must not whitelist the `%` hazard itself).
fn divisor_guarded(code: &[&Token], src: &str, i: usize) -> bool {
    let mut j = i;
    while j > 0 && !matches!(code[j - 1].kind, TokKind::Punct(';' | '{' | '}')) {
        j -= 1;
    }
    let mut k = j;
    while k < code.len() && !matches!(code[k].kind, TokKind::Punct(';' | '{' | '}')) {
        let t = code[k];
        if t.kind == TokKind::Ident {
            let text = t.text(src);
            if (ASSERT_MACROS.contains(&text) && punct_at(code, k + 1, '!'))
                || (GUARD_CALLS.contains(&text)
                    && k >= 1
                    && punct_at(code, k - 1, '.')
                    && punct_at(code, k + 1, '('))
            {
                return true;
            }
        }
        k += 1;
    }
    false
}

fn matching_square(code: &[&Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut k = open;
    while k < code.len() {
        match code[k].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// A blocking operation at `code[i]`: thread join, channel receive,
/// sleeps, condvar waits, file/stream I/O, or the bounded SAT arbiter.
fn blocking_op_at(code: &[&Token], src: &str, i: usize) -> Option<&'static str> {
    let t = code.get(i)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    let name = t.text(src);
    let dotted = i >= 1 && punct_at(code, i - 1, '.');
    let open = punct_at(code, i + 1, '(');
    let zero_arg = open && punct_at(code, i + 2, ')');
    let has_arg = open && !punct_at(code, i + 2, ')');
    let pathed = |prefix: &str| {
        i >= 3
            && punct_at(code, i - 1, ':')
            && punct_at(code, i - 2, ':')
            && ident_is(code, i - 3, src, prefix)
    };
    match name {
        "join" if dotted && zero_arg => Some("`.join()` (thread join)"),
        "recv" if dotted && zero_arg => Some("`.recv()` (channel receive)"),
        "recv_timeout" if dotted && open => Some("`.recv_timeout(..)` (channel receive)"),
        "sleep" if open && (pathed("thread") || !dotted) => Some("`thread::sleep` (timed sleep)"),
        "wait" | "wait_timeout" if dotted && open => Some("`.wait(..)` (condvar wait)"),
        "read_to_string" | "read_to_end" | "read_exact" | "write_all" | "sync_all" | "flush"
            if dotted && open =>
        {
            Some("file/stream I/O")
        }
        "read" | "write" if dotted && has_arg => Some("file/stream I/O"),
        "open" | "create" if pathed("File") && open => Some("file open"),
        "read" | "write" | "read_to_string" | "copy" if pathed("fs") && open => Some("file I/O"),
        "check_equivalence" if open => Some("bounded SAT equivalence check"),
        _ => None,
    }
}

/// A call site at `code[i]`: `name(` that is not a definition, a macro,
/// or a control keyword. Method calls match by bare name, same as
/// `det.rs` summaries.
fn call_at<'a>(code: &[&Token], src: &'a str, i: usize) -> Option<&'a str> {
    let t = code.get(i)?;
    if t.kind != TokKind::Ident || !punct_at(code, i + 1, '(') {
        return None;
    }
    if i >= 1 && (ident_is(code, i - 1, src, "fn") || code[i - 1].kind == TokKind::Punct('!')) {
        return None;
    }
    let name = t.text(src);
    if matches!(name, "if" | "while" | "for" | "match" | "return" | "loop" | "let" | "drop") {
        return None;
    }
    // Tuple-struct / enum-variant constructors are not calls into fns.
    if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
        return None;
    }
    Some(name)
}

// ---------------------------------------------------------------------------
// Must-lockset dataflow (R14/R15 flow facts)
// ---------------------------------------------------------------------------

/// A guard record: the lock name, the byte offset where its lexical scope
/// ends, and the variable it is bound to (if any).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Guard {
    name: String,
    scope_end: usize,
    var: Option<String>,
}

/// The two-set encoding of the must-lockset (see module docs): both
/// components only grow under join; must-held = names(may) − unheld.
#[derive(Debug, Clone, PartialEq, Default)]
struct LockFact {
    may: BTreeSet<Guard>,
    unheld: BTreeSet<String>,
}

impl LockFact {
    fn must_held(&self) -> Vec<String> {
        let mut out: Vec<String> =
            self.may.iter().map(|g| g.name.clone()).filter(|n| !self.unheld.contains(n)).collect();
        out.dedup();
        out
    }
}

struct LockPass<'a> {
    code: &'a [&'a Token],
    src: &'a str,
    universe: BTreeSet<String>,
}

impl Analysis for LockPass<'_> {
    type Fact = LockFact;

    fn bottom(&self) -> LockFact {
        LockFact::default()
    }

    fn entry(&self) -> LockFact {
        LockFact { may: BTreeSet::new(), unheld: self.universe.clone() }
    }

    fn join(&self, into: &mut LockFact, other: &LockFact) {
        into.may.extend(other.may.iter().cloned());
        into.unheld.extend(other.unheld.iter().cloned());
    }

    fn transfer(&mut self, cfg: &Cfg, id: BlockId, fact: &mut LockFact) {
        for stmt in &cfg.blocks[id].stmts {
            apply_lock_stmt(self.code, self.src, stmt, fact, &mut None);
        }
    }
}

/// Everything the post-fixpoint reporting walk collects.
struct LockReport {
    func: String,
    edges: Vec<LockEdge>,
    blocking: Vec<(u32, u32, &'static str, Vec<String>)>,
    under_lock: Vec<UnderLockCall>,
}

/// Applies one statement to the lockset fact; when `report` is set, also
/// records lock-order edges, direct blocking ops, and under-lock calls.
fn apply_lock_stmt(
    code: &[&Token],
    src: &str,
    stmt: &Range<usize>,
    fact: &mut LockFact,
    report: &mut Option<&mut LockReport>,
) {
    if stmt.start >= stmt.end {
        return;
    }
    for i in stmt.clone() {
        let t = code[i];
        // Scope exits at or before this token release their guards. The
        // check is per-token because the CFG can pack an inner `{ .. }`
        // block and the statements after it into one stmt range.
        let dead: Vec<Guard> =
            fact.may.iter().filter(|g| g.scope_end <= t.start).cloned().collect();
        for g in dead {
            fact.unheld.insert(g.name.clone());
            fact.may.remove(&g);
        }
        // `drop(guard)` releases early.
        if t.kind == TokKind::Ident && t.text(src) == "drop" && punct_at(code, i + 1, '(') {
            if let Some(arg) = code.get(i + 2).filter(|a| a.kind == TokKind::Ident) {
                let arg = arg.text(src);
                let dropped: Vec<Guard> =
                    fact.may.iter().filter(|g| g.var.as_deref() == Some(arg)).cloned().collect();
                for g in dropped {
                    fact.unheld.insert(g.name.clone());
                    fact.may.remove(&g);
                }
            }
            continue;
        }
        if let Some(name) = lock_acquisition(code, i, src) {
            let held = fact.must_held();
            if let Some(r) = report.as_deref_mut() {
                for from in &held {
                    r.edges.push(LockEdge {
                        line: t.line,
                        col: t.col,
                        func: r.func.clone(),
                        from: from.clone(),
                        to: name.to_string(),
                    });
                }
            }
            let (var, bound) = crate::rules::binding_of(code, i, src).unwrap_or((None, false));
            let scope_end = if bound {
                enclosing_scope_end(code, i)
            } else {
                // A guard temporary lives to the end of its own expression
                // statement — not the (possibly much coarser) CFG stmt
                // range, which can pack a whole `if`/`else` chain into one
                // range and would keep the guard "held" across exclusive
                // branches.
                expr_stmt_end(code, i)
            };
            fact.may.insert(Guard { name: name.to_string(), scope_end, var });
            fact.unheld.remove(name);
            continue;
        }
        if let Some(r) = report.as_deref_mut() {
            let held = fact.must_held();
            if held.is_empty() {
                continue;
            }
            if let Some(what) = blocking_op_at(code, src, i) {
                r.blocking.push((t.line, t.col, what, held));
            } else if let Some(callee) = call_at(code, src, i) {
                r.under_lock.push(UnderLockCall {
                    line: t.line,
                    col: t.col,
                    func: r.func.clone(),
                    callee: callee.to_string(),
                    held,
                });
            }
        }
    }
}

/// Byte offset where the expression statement containing `code[i]` ends:
/// the first `;` at brace depth zero (inclusive), or the start of the `}`
/// / `{` that closes or opens a block at depth zero first (a temporary in
/// an `if` condition does not outlive the condition).
fn expr_stmt_end(code: &[&Token], i: usize) -> usize {
    for t in &code[i..] {
        match t.kind {
            TokKind::Punct(';') => return t.end,
            TokKind::Punct('{') | TokKind::Punct('}') => return t.start,
            _ => {}
        }
    }
    code.last().map(|t| t.end).unwrap_or(usize::MAX)
}

/// Byte offset of the `}` closing the block that contains `code[i]` (the
/// end of a bound guard's lexical scope).
fn enclosing_scope_end(code: &[&Token], i: usize) -> usize {
    let mut depth = 0usize;
    let mut k = i;
    while k < code.len() {
        match code[k].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                if depth == 0 {
                    return code[k].start;
                }
                depth -= 1;
            }
            _ => {}
        }
        k += 1;
    }
    code.last().map(|t| t.end).unwrap_or(usize::MAX)
}

/// Runs the must-lockset pass over one function: fixpoint, then a
/// deterministic reporting walk from the stabilized entry facts.
fn lockset_fn(view: &FileView<'_>, cfg: &Cfg, facts: &mut CgFacts, raw: &mut Vec<Finding>) {
    let (code, src) = (&view.code[..], view.src);
    let mut universe = BTreeSet::new();
    for b in &cfg.blocks {
        for stmt in &b.stmts {
            for i in stmt.clone() {
                if let Some(name) = lock_acquisition(code, i, src) {
                    universe.insert(name.to_string());
                }
            }
        }
    }
    if universe.is_empty() {
        return;
    }
    let mut pass = LockPass { code, src, universe };
    let fx = forward_fixpoint(cfg, &mut pass);
    let mut report = LockReport {
        func: cfg.name.clone(),
        edges: Vec::new(),
        blocking: Vec::new(),
        under_lock: Vec::new(),
    };
    for (id, b) in cfg.blocks.iter().enumerate() {
        let mut fact = fx.entry_facts[id].clone();
        for stmt in &b.stmts {
            apply_lock_stmt(code, src, stmt, &mut fact, &mut Some(&mut report));
        }
    }

    for e in &report.edges {
        if let Some(f) = declared_order_finding(view, e) {
            raw.push(f);
        }
    }
    for (line, col, what, held) in &report.blocking {
        let message = format!(
            "{what} while guard(s) `{}` are held; blocking under a held lock stalls every \
             contender — release the guard first (or justify with \
             `// analyze: allow(blocking-under-lock) — <why>`)",
            held.join("`, `")
        );
        raw.push(Finding {
            symbol: Some(report.func.clone()),
            ..view.finding(*line, *col, "blocking-under-lock", message)
        });
    }
    facts.lock_edges.append(&mut report.edges);
    facts.under_lock.append(&mut report.under_lock);
}

/// The flow-local R14 check against the declared [`LOCK_ORDER`]:
/// re-acquisitions of any lock, and inversions of the declared order.
fn declared_order_finding(view: &FileView<'_>, e: &LockEdge) -> Option<Finding> {
    let message = if e.from == e.to {
        format!(
            "acquiring `{}` while a guard for it is still held re-acquires a non-reentrant \
             lock and deadlocks; release the first guard (or justify with \
             `// analyze: allow(lock-order) — <why>`)",
            e.to
        )
    } else {
        let pos_from = LOCK_ORDER.iter().position(|n| *n == e.from)?;
        let pos_to = LOCK_ORDER.iter().position(|n| *n == e.to)?;
        if pos_from < pos_to {
            return None;
        }
        format!(
            "acquiring `{}` while `{}` is held inverts the declared workspace lock order ({}); \
             acquire in declared order or release the guard first (or justify with \
             `// analyze: allow(lock-order) — <why>`)",
            e.to,
            e.from,
            LOCK_ORDER.join(" -> ")
        )
    };
    Some(Finding {
        symbol: Some(e.to.clone()),
        ..view.finding(e.line, e.col, "lock-order", message)
    })
}

// ---------------------------------------------------------------------------
// The workspace call graph
// ---------------------------------------------------------------------------

/// A merged seed site, kept per function name (earliest wins).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Seed {
    file: String,
    line: u32,
    col: u32,
    what: String,
}

/// The deterministic workspace call graph: one node per `(file, name)`
/// definition pair, condensed with Tarjan SCCs, carrying may-panic /
/// may-block facts.
///
/// Call sites resolve conservatively: a callee name defined in the same
/// file binds to that definition; otherwise it binds only when exactly
/// one file in the workspace defines the name. Ambiguous names (`new`,
/// `run`, `forward`, …) produce no edge — the graph under-approximates
/// rather than merging unrelated functions into one node.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    names: Vec<String>,
    files: Vec<String>,
    /// file → name → node.
    index: BTreeMap<String, BTreeMap<String, usize>>,
    /// name → every node defining it (for the uniqueness rule).
    by_name: BTreeMap<String, Vec<usize>>,
    succs: Vec<Vec<usize>>,
    scc_of: Vec<usize>,
    scc_count: usize,
    panic_seed: Vec<Option<Seed>>,
    block_seed: Vec<Option<Seed>>,
    may_panic: Vec<bool>,
    may_block: Vec<bool>,
    edge_total: u64,
}

impl CallGraph {
    /// Number of function nodes.
    pub fn nodes(&self) -> u64 {
        self.names.len() as u64
    }

    /// Number of call edges (after name-level dedup).
    pub fn edges(&self) -> u64 {
        self.edge_total
    }

    /// Number of strongly connected components.
    pub fn sccs(&self) -> u64 {
        self.scc_count as u64
    }

    /// The node defined as `func` in `file`, if any.
    fn node(&self, file: &str, func: &str) -> Option<usize> {
        self.index.get(file).and_then(|m| m.get(func)).copied()
    }

    /// Resolves a call to `callee` made from code in `file`: the same-file
    /// definition wins; otherwise the name must be workspace-unique.
    fn resolve(&self, file: &str, callee: &str) -> Option<usize> {
        if let Some(v) = self.node(file, callee) {
            return Some(v);
        }
        match self.by_name.get(callee) {
            Some(vs) if vs.len() == 1 => Some(vs[0]),
            _ => None,
        }
    }

    /// Whether `func` (defined in `file`) may transitively reach a panic
    /// seed.
    pub fn may_panic(&self, file: &str, func: &str) -> bool {
        self.node(file, func).is_some_and(|i| self.may_panic[i])
    }

    /// Whether `func` (defined in `file`) may transitively reach a
    /// blocking operation.
    pub fn may_block(&self, file: &str, func: &str) -> bool {
        self.node(file, func).is_some_and(|i| self.may_block[i])
    }

    /// Propagates may-panic/may-block over the SCC condensation in
    /// reverse topological order. Returns the number of edge visits.
    pub fn propagate(&mut self) -> u64 {
        let n = self.names.len();
        self.may_panic = vec![false; n];
        self.may_block = vec![false; n];
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); self.scc_count];
        for v in 0..n {
            members[self.scc_of[v]].push(v);
        }
        let mut steps = 0u64;
        // Tarjan emits SCCs with callees before callers, so a single pass
        // in emission order reaches the fixpoint.
        for group in &members {
            let mut panics = false;
            let mut blocks = false;
            for &v in group {
                panics = panics || self.panic_seed[v].is_some();
                blocks = blocks || self.block_seed[v].is_some();
                for &w in &self.succs[v] {
                    steps += 1;
                    panics = panics || self.may_panic[w];
                    blocks = blocks || self.may_block[w];
                }
            }
            for &v in group {
                self.may_panic[v] = panics;
                self.may_block[v] = blocks;
            }
        }
        steps
    }

    /// Shortest path (BFS over sorted successor lists) from `from` to the
    /// nearest node carrying a seed, excluding `from`'s own seed. Returns
    /// the node path `from → … → seeded`.
    fn witness(&self, from: usize, seeds: &[Option<Seed>]) -> Option<Vec<usize>> {
        let n = self.names.len();
        let mut parent = vec![usize::MAX; n];
        parent[from] = from;
        let mut queue = VecDeque::new();
        queue.push_back(from);
        while let Some(v) = queue.pop_front() {
            for &w in &self.succs[v] {
                if parent[w] != usize::MAX {
                    continue;
                }
                parent[w] = v;
                if seeds[w].is_some() {
                    let mut path = vec![w];
                    let mut cur = w;
                    while cur != from {
                        cur = parent[cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(w);
            }
        }
        None
    }

    /// Renders `a -> b -> c; <kind> site <file>:<line>:<col> (<what>)`.
    fn render_witness(&self, path: &[usize], seeds: &[Option<Seed>], kind: &str) -> String {
        let names: Vec<&str> = path.iter().map(|&v| self.names[v].as_str()).collect();
        let tail = path.last().and_then(|&v| seeds[v].as_ref());
        match tail {
            Some(s) => format!(
                "{}; {kind} site {}:{}:{} ({})",
                names.join(" -> "),
                s.file,
                s.line,
                s.col,
                s.what
            ),
            None => names.join(" -> "),
        }
    }

    /// The graph as a deterministic JSON document — the observable the
    /// golden tests compare for byte-identical builds.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"hoga-analyze-callgraph v1\",\n");
        out.push_str(&format!(
            "  \"nodes\": {},\n  \"edges\": {},\n  \"sccs\": {},\n  \"functions\": [\n",
            self.nodes(),
            self.edges(),
            self.sccs()
        ));
        for (v, name) in self.names.iter().enumerate() {
            let calls: Vec<String> = self.succs[v]
                .iter()
                .map(|&w| crate::json_string(&format!("{}::{}", self.files[w], self.names[w])))
                .collect();
            out.push_str(&format!(
                "    {{\"name\": {}, \"file\": {}, \"scc\": {}, \"may_panic\": {}, \
                 \"may_block\": {}, \"calls\": [{}]}}{}\n",
                crate::json_string(name),
                crate::json_string(&self.files[v]),
                self.scc_of[v],
                self.may_panic[v],
                self.may_block[v],
                calls.join(", "),
                if v + 1 == self.names.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Builds the call graph from per-file facts: nodes are defined function
/// names, edges are call sites whose callee resolves to a defined name.
/// Pure and deterministic: inputs are consumed in the given order, every
/// collection is a BTree, and Tarjan's visit order is the sorted name
/// order.
pub fn build_graph(inputs: &[FileFacts]) -> CallGraph {
    // Node order: sorted (file, name) pairs. Two same-name defs in one
    // file (e.g. `new` on two types) merge into one node — the per-file
    // grain is the same conservative merge `det.rs` applies.
    let mut keys: BTreeSet<(String, String)> = BTreeSet::new();
    for input in inputs {
        for d in fn_defs(input) {
            keys.insert((input.rel.clone(), d.name.clone()));
        }
    }
    let n = keys.len();
    let mut names = Vec::with_capacity(n);
    let mut files = Vec::with_capacity(n);
    let mut index: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (v, (file, name)) in keys.into_iter().enumerate() {
        index.entry(file.clone()).or_default().insert(name.clone(), v);
        by_name.entry(name.clone()).or_default().push(v);
        names.push(name);
        files.push(file);
    }

    let mut graph = CallGraph {
        names,
        files,
        index,
        by_name,
        succs: vec![Vec::new(); n],
        scc_of: Vec::new(),
        scc_count: 0,
        panic_seed: vec![None; n],
        block_seed: vec![None; n],
        may_panic: vec![false; n],
        may_block: vec![false; n],
        edge_total: 0,
    };

    let mut succ_sets: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for input in inputs {
        for c in &input.cg.calls {
            let (Some(from), Some(to)) =
                (graph.node(&input.rel, &c.func), graph.resolve(&input.rel, &c.what))
            else {
                continue;
            };
            succ_sets[from].insert(to);
        }
        for s in &input.cg.panics {
            if let Some(v) = graph.node(&input.rel, &s.func) {
                let seed = Seed {
                    file: input.rel.clone(),
                    line: s.line,
                    col: s.col,
                    what: s.what.clone(),
                };
                merge_seed(&mut graph.panic_seed[v], seed);
            }
        }
        for s in &input.cg.blocking {
            if let Some(v) = graph.node(&input.rel, &s.func) {
                let seed = Seed {
                    file: input.rel.clone(),
                    line: s.line,
                    col: s.col,
                    what: s.what.clone(),
                };
                merge_seed(&mut graph.block_seed[v], seed);
            }
        }
    }
    graph.succs = succ_sets.into_iter().map(|s| s.into_iter().collect()).collect();
    graph.edge_total = graph.succs.iter().map(|s| s.len() as u64).sum();
    let (scc_of, scc_count) = tarjan(&graph.succs);
    graph.scc_of = scc_of;
    graph.scc_count = scc_count;
    graph
}

/// Keeps the earliest (by `Ord`) seed per node.
fn merge_seed(slot: &mut Option<Seed>, candidate: Seed) {
    match slot {
        Some(existing) if *existing <= candidate => {}
        _ => *slot = Some(candidate),
    }
}

/// Iterative Tarjan SCC. Returns `(scc_of, scc_count)`; components are
/// numbered in emission order, which for Tarjan is reverse topological
/// (callees before callers).
fn tarjan(succs: &[Vec<usize>]) -> (Vec<usize>, usize) {
    let n = succs.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc_of = vec![0usize; n];
    let mut scc_count = 0usize;
    let mut next_index = 0usize;
    let mut call: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        call.push((root, 0));
        while let Some(&(v, ci)) = call.last() {
            if ci < succs[v].len() {
                let w = succs[v][ci];
                if let Some(top) = call.last_mut() {
                    top.1 = ci + 1;
                }
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc_of[w] = scc_count;
                        if w == v {
                            break;
                        }
                    }
                    scc_count += 1;
                }
            }
        }
    }
    (scc_of, scc_count)
}

// ---------------------------------------------------------------------------
// Cross-file resolution: R13 / R14-cycles / R15
// ---------------------------------------------------------------------------

/// Resolves the cross-file rules against a propagated graph. The findings
/// still have to pass each file's suppression machinery (like R6's
/// dead-API findings).
pub(crate) fn resolve_rules(graph: &CallGraph, inputs: &[FileFacts]) -> Vec<Finding> {
    let mut out = Vec::new();

    // R13: hardened public APIs that can transitively reach a panic.
    for input in inputs {
        if !input.hardened {
            continue;
        }
        for d in fn_defs(input).filter(|d| d.vis == Visibility::Public) {
            let Some(v) = graph.node(&input.rel, &d.name) else { continue };
            if !graph.may_panic[v] {
                continue;
            }
            let Some(path) = graph.witness(v, &graph.panic_seed) else { continue };
            out.push(Finding {
                file: input.rel.clone(),
                line: d.line,
                col: d.col,
                rule: "panic-reachability",
                message: format!(
                    "public API `{}` in a hardened module can transitively reach a panic: {}; \
                     handle the failure on the path or justify with \
                     `// analyze: allow(panic-reachability) — <why>`",
                    d.name,
                    graph.render_witness(&path, &graph.panic_seed, "panic")
                ),
                symbol: Some(d.name.clone()),
                severity_override: None,
            });
        }
    }

    // R15 (cross-file): calls under a must-held lock whose callee may
    // transitively block.
    for input in inputs {
        for u in &input.cg.under_lock {
            let Some(v) = graph.resolve(&input.rel, &u.callee) else { continue };
            if !graph.may_block[v] {
                continue;
            }
            let path = if graph.block_seed[v].is_some() {
                vec![v]
            } else {
                match graph.witness(v, &graph.block_seed) {
                    Some(p) => p,
                    None => continue,
                }
            };
            out.push(Finding {
                file: input.rel.clone(),
                line: u.line,
                col: u.col,
                rule: "blocking-under-lock",
                message: format!(
                    "call to `{}` while guard(s) `{}` are held may block: {}; release the guard \
                     before calling out (or justify with \
                     `// analyze: allow(blocking-under-lock) — <why>`)",
                    u.callee,
                    u.held.join("`, `"),
                    graph.render_witness(&path, &graph.block_seed, "blocking")
                ),
                symbol: Some(u.func.clone()),
                severity_override: None,
            });
        }
    }

    // R14 (cross-file): cycles in the workspace lock-order graph that the
    // flow-local declared-order check did not already flag.
    out.extend(lock_cycle_findings(inputs));
    out
}

/// Builds the workspace lock-order graph (lock names as nodes, observed
/// held→acquired pairs as edges) and reports every cycle not already
/// covered by the flow-local declared-order/re-acquire findings.
fn lock_cycle_findings(inputs: &[FileFacts]) -> Vec<Finding> {
    // (from, to) -> earliest site, skipping self-edges (flagged per-file)
    // and declared-order inversions (ditto).
    let mut edges: BTreeMap<(String, String), (String, u32, u32)> = BTreeMap::new();
    for input in inputs {
        for e in &input.cg.lock_edges {
            if e.from == e.to {
                continue;
            }
            let declared_inversion = match (
                LOCK_ORDER.iter().position(|n| *n == e.from),
                LOCK_ORDER.iter().position(|n| *n == e.to),
            ) {
                (Some(f), Some(t)) => f >= t,
                _ => false,
            };
            if declared_inversion {
                continue;
            }
            let site = (input.rel.clone(), e.line, e.col);
            let key = (e.from.clone(), e.to.clone());
            match edges.get(&key) {
                Some(existing) if *existing <= site => {}
                _ => {
                    edges.insert(key, site);
                }
            }
        }
    }
    let mut locks: BTreeSet<String> = BTreeSet::new();
    for (from, to) in edges.keys() {
        locks.insert(from.clone());
        locks.insert(to.clone());
    }
    let locks: Vec<String> = locks.into_iter().collect();
    let index: BTreeMap<&str, usize> =
        locks.iter().enumerate().map(|(i, n)| (n.as_str(), i)).collect();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); locks.len()];
    for (from, to) in edges.keys() {
        if let (Some(&f), Some(&t)) = (index.get(from.as_str()), index.get(to.as_str())) {
            succs[f].push(t);
        }
    }
    let (scc_of, scc_count) = tarjan(&succs);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); scc_count];
    for v in 0..locks.len() {
        members[scc_of[v]].push(v);
    }
    let mut out = Vec::new();
    for group in &members {
        if group.len() < 2 {
            continue;
        }
        // Render the cycle through the component's smallest lock name.
        let rep = group[0];
        let cycle = cycle_through(&succs, &scc_of, rep);
        let mut parts: Vec<String> = Vec::new();
        let mut anchor: Option<(String, u32, u32)> = None;
        for pair in cycle.windows(2) {
            let (a, b) = (&locks[pair[0]], &locks[pair[1]]);
            let site = edges.get(&(a.clone(), b.clone()));
            let rendered = match site {
                Some((f, l, c)) => {
                    if anchor.as_ref().map(|s| s > &(f.clone(), *l, *c)).unwrap_or(true) {
                        anchor = Some((f.clone(), *l, *c));
                    }
                    format!("{a} -> {b} ({f}:{l}:{c})")
                }
                None => format!("{a} -> {b}"),
            };
            parts.push(rendered);
        }
        let Some((file, line, col)) = anchor else { continue };
        out.push(Finding {
            file,
            line,
            col,
            rule: "lock-order",
            message: format!(
                "workspace lock-order cycle: {}; impose a single acquisition order (or justify \
                 with `// analyze: allow(lock-order) — <why>`)",
                parts.join(", ")
            ),
            symbol: Some(locks[rep].clone()),
            severity_override: None,
        });
    }
    out
}

/// A cycle `rep → … → rep` through SCC-internal edges (BFS, deterministic
/// because successor lists are in insertion order over sorted edge keys).
fn cycle_through(succs: &[Vec<usize>], scc_of: &[usize], rep: usize) -> Vec<usize> {
    let n = succs.len();
    let mut parent = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    queue.push_back(rep);
    while let Some(v) = queue.pop_front() {
        for &w in &succs[v] {
            if scc_of[w] != scc_of[rep] {
                continue;
            }
            if w == rep {
                let mut path = vec![rep];
                let mut cur = v;
                while cur != rep {
                    path.push(cur);
                    cur = parent[cur];
                }
                path.push(rep);
                path.reverse();
                return path;
            }
            if parent[w] != usize::MAX {
                continue;
            }
            parent[w] = v;
            queue.push_back(w);
        }
    }
    vec![rep, rep]
}
