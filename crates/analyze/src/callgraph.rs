//! Interprocedural layer: the workspace call graph and the rule built on
//! it (R13 panic-reachability).
//!
//! The layer is split the same way the rest of the analyzer is:
//!
//! * **Per-file extraction** ([`extract`]) splits each non-test function
//!   body into statements at `;`, `{` and `}` and records *facts* — panic
//!   seeds and call sites. Facts are plain data ([`CgFacts`]), one value
//!   per file.
//! * **Cross-file resolution** ([`build_graph`] + [`resolve_rules`]) is a
//!   pure function of the per-file facts: it merges definitions by name,
//!   condenses the graph with an iterative Tarjan SCC pass, propagates
//!   may-panic over the condensation in reverse topological order, and
//!   renders shortest witness paths via BFS.
//!
//! Seed policy for R13: panic seeds are only harvested from files that are
//! *not* themselves panic-free-hardened — R1 already polices local panic
//! sites in hardened modules (and justified suppressions there mean the
//! site was audited). R13 closes the other loophole: a hardened public API
//! calling out into a panicky helper elsewhere in the workspace.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

use crate::lexer::{TokKind, Token};
use crate::parser::{ItemKind, Visibility};
use crate::rules::{FileFacts, FileView, Finding, Suppression};
use crate::symbols::SymbolDef;

// ---------------------------------------------------------------------------
// Per-file fact types
// ---------------------------------------------------------------------------

/// One extracted site: a panic seed or a call, attributed to the enclosing
/// function.
#[derive(Debug)]
pub struct CgSite {
    /// 1-based line of the site.
    pub line: u32,
    /// 1-based column of the site.
    pub col: u32,
    /// Name of the enclosing function.
    pub func: String,
    /// Panic sites: a human-readable description of the hazard. Call
    /// sites: the callee name.
    pub what: String,
}

/// Every interprocedural fact extracted from one file.
#[derive(Debug, Default)]
pub struct CgFacts {
    /// Panic seeds (empty for panic-free-hardened files by policy).
    pub panics: Vec<CgSite>,
    /// Call sites, deduplicated per `(func, callee)` keeping the earliest.
    pub calls: Vec<CgSite>,
}

/// The file's non-test `fn` definitions — its call-graph nodes (methods
/// by bare name).
fn fn_defs(file: &FileFacts) -> impl Iterator<Item = &SymbolDef> {
    file.defs.iter().filter(|d| d.kind == ItemKind::Fn && !d.in_test_item)
}

// ---------------------------------------------------------------------------
// Extraction: per-file statement walk
// ---------------------------------------------------------------------------

/// Idents whose presence in a statement marks every ident in it as
/// bounds-audited (the soft-seed gate).
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

/// Walks every non-test function body in a file and extracts the
/// interprocedural facts.
///
/// Seeds honour suppressions at the *seed site*: an
/// `// analyze: allow(panic-reachability)` on (or above) a panic site
/// stops the site from seeding the graph — the downstream findings would
/// otherwise land in distant files where no annotation could reach them.
/// The matched suppression is marked used so it does not read as stale.
pub(crate) fn extract(view: &FileView<'_>, sups: &mut [Suppression]) -> CgFacts {
    let mut facts = CgFacts::default();
    for item in view.items.iter().filter(|item| !view.in_test(item.start)) {
        if let (ItemKind::Fn, Some(name), Some(body)) = (item.kind, &item.name, &item.body) {
            extract_fn(view, name, body.clone(), &mut facts, sups);
        }
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

/// Keywords that open a statement of their own: a condition or scrutinee
/// is a statement apart from the `let` it initialises.
const CONTROL: &[&str] = &["if", "match", "while", "for", "loop"];

/// The statements of a body: the maximal token runs between `;`, `{`, `}`
/// and a match arm's `=>`, each control keyword starting a new one. A
/// nested function's statements are also its parent's, as a closure's are.
fn statements(code: &[&Token], src: &str, body: Range<usize>) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = body.start;
    for i in body.clone() {
        let t = code[i];
        let arrow = i > body.start && punct_at(code, i - 1, '=') && code[i - 1].end == t.start;
        // Where the next statement starts if `code[i]` ends this one.
        let next = match t.kind {
            TokKind::Punct(';' | '{' | '}') => i + 1,
            TokKind::Punct('>') if arrow => i + 1,
            TokKind::Ident if CONTROL.contains(&t.text(src)) => i,
            _ => continue,
        };
        if start < i {
            out.push(start..i);
        }
        start = next;
    }
    if start < body.end {
        out.push(start..body.end);
    }
    out
}

fn extract_fn(
    view: &FileView<'_>,
    func: &str,
    body: Range<usize>,
    facts: &mut CgFacts,
    sups: &mut [Suppression],
) {
    let (code, src) = (&view.code[..], view.src);
    let stmts = statements(code, src, body);
    let bounded = bounded_idents(code, src, &stmts);

    let mut seen_calls: BTreeSet<String> = BTreeSet::new();
    for stmt in &stmts {
        let guarded = stmt_is_guarded(code, src, stmt);
        for i in stmt.clone() {
            let t = code[i];
            if !view.profile.panic_free {
                if let Some(what) = panic_seed_at(code, src, i, &bounded, guarded) {
                    if !seed_allowed(sups, "panic-reachability", t.line) {
                        facts.panics.push(site(t, func, what));
                    }
                }
            }
            if let Some(callee) = call_at(code, src, i) {
                if seen_calls.insert(callee.to_string()) {
                    facts.calls.push(site(t, func, callee.to_string()));
                }
            }
        }
    }
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

/// A call site at `code[i]`: `name(` that is not a definition, a macro,
/// or a control keyword. Method calls match by bare name.
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
/// definition pair, condensed with Tarjan SCCs, carrying may-panic facts.
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
    may_panic: Vec<bool>,
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

    /// Propagates may-panic over the SCC condensation in reverse
    /// topological order. Returns the number of edge visits.
    pub fn propagate(&mut self) -> u64 {
        let n = self.names.len();
        self.may_panic = vec![false; n];
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); self.scc_count];
        for v in 0..n {
            members[self.scc_of[v]].push(v);
        }
        let mut steps = 0u64;
        // Tarjan emits SCCs with callees before callers, so a single pass
        // in emission order reaches the fixpoint.
        for group in &members {
            let mut panics = false;
            for &v in group {
                panics = panics || self.panic_seed[v].is_some();
                for &w in &self.succs[v] {
                    steps += 1;
                    panics = panics || self.may_panic[w];
                }
            }
            for &v in group {
                self.may_panic[v] = panics;
            }
        }
        steps
    }

    /// Shortest path (BFS over sorted successor lists) from `from` to the
    /// nearest node carrying a panic seed, excluding `from`'s own seed.
    /// Returns the node path `from → … → seeded`.
    fn witness(&self, from: usize) -> Option<Vec<usize>> {
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
                if self.panic_seed[w].is_some() {
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

    /// Renders `a -> b -> c; panic site <file>:<line>:<col> (<what>)`.
    fn render_witness(&self, path: &[usize]) -> String {
        let names: Vec<&str> = path.iter().map(|&v| self.names[v].as_str()).collect();
        let tail = path.last().and_then(|&v| self.panic_seed[v].as_ref());
        match tail {
            Some(s) => format!(
                "{}; panic site {}:{}:{} ({})",
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
                 \"calls\": [{}]}}{}\n",
                crate::json_string(name),
                crate::json_string(&self.files[v]),
                self.scc_of[v],
                self.may_panic[v],
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
    // file (e.g. `new` on two types) merge into one node.
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
        may_panic: vec![false; n],
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
// Cross-file resolution: R13
// ---------------------------------------------------------------------------

/// R13: the hardened public APIs that can transitively reach a panic in a
/// propagated graph. The findings still have to pass each file's
/// suppression machinery (like R6's dead-API findings).
pub(crate) fn resolve_rules(graph: &CallGraph, inputs: &[FileFacts]) -> Vec<Finding> {
    let mut out = Vec::new();
    for input in inputs {
        if !input.hardened {
            continue;
        }
        for d in fn_defs(input).filter(|d| d.vis == Visibility::Public) {
            let Some(v) = graph.node(&input.rel, &d.name) else { continue };
            if !graph.may_panic[v] {
                continue;
            }
            let Some(path) = graph.witness(v) else { continue };
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
                    graph.render_witness(&path)
                ),
                symbol: Some(d.name.clone()),
            });
        }
    }
    out
}
