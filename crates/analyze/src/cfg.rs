//! Intraprocedural control-flow graphs over the token stream — the
//! substrate for the dataflow rules (R10–R12).
//!
//! `function_cfgs` lowers every `fn` body among a file's parsed items
//! ([`crate::parser::parse_items`]) to basic blocks. The
//! lowering recognizes the statement-level control constructs that matter
//! for a may-analysis: `if`/`else if`/`else`, `match` arms, `loop`,
//! `while`, `for`, `return`, `break`, `continue`, and the `?` operator
//! (an early edge to the exit block). Everything else — closures, struct
//! literals, nested braces in expression position — is scanned through as
//! straight-line statement content, which is sound for the forward
//! may-analyses built on top: they see every token of every statement, in
//! an order that over-approximates the real control flow.
//!
//! Construction guarantees, relied on by the property tests:
//!
//! * block 0 is the entry; the last block is the dedicated exit block;
//! * every block is reachable from the entry (unreachable blocks — code
//!   after a `return`, the continuation of a break-less `loop` — are
//!   pruned and their edges dropped);
//! * every edge carries the byte position of the token that induced it,
//!   and that position lies inside the function body's span.

use std::ops::Range;

use crate::lexer::{TokKind, Token};
use crate::parser::{Item, ItemKind};

/// Index of a basic block within its [`Cfg`].
pub type BlockId = usize;

/// One basic block: the statement spans it covers plus its successors.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Token-index ranges (into the CFG's code-token slice) of the
    /// statements executed in this block, in order. Control headers keep
    /// their condition/scrutinee tokens as a statement of the branching
    /// block, so taint in a condition is still observed.
    pub stmts: Vec<Range<usize>>,
    /// Successor edges as `(target block, byte position of the inducing
    /// token)` — the `if`/`match`/`?`/... token, or the end of the block
    /// for fall-through.
    pub succs: Vec<(BlockId, usize)>,
}

/// The control-flow graph of one function body.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Function name (`<anon>` for unnamed items, which do not occur for
    /// `fn`).
    pub name: String,
    /// 1-based line of the function's name token.
    pub line: u32,
    /// 1-based column of the function's name token.
    pub col: u32,
    /// Byte span of the function body (from its `{` to just past its `}`).
    pub span: Range<usize>,
    /// Basic blocks; index 0 is the entry, `exit` is the dedicated exit.
    pub blocks: Vec<Block>,
    /// The exit block (every `return`/`?`/fall-through edge targets it).
    pub exit: BlockId,
    /// Token-index range of the function signature (between `fn name` and
    /// the body `{`), for parameter scanning.
    pub sig: Range<usize>,
    /// Byte offset where the function header starts (the `pub`/`fn`
    /// token), used to match `#[cfg(test)]` spans.
    pub header_start: usize,
}

impl Cfg {
    /// Total number of edges.
    pub(crate) fn edge_count(&self) -> usize {
        self.blocks.iter().map(|b| b.succs.len()).sum()
    }

    /// Renders the CFG as stable text for the golden tests:
    /// one line per block, `b<i>: stmts=<n> succ=[b<j>@<tok>, ...]`.
    pub fn render(&self, code: &[&Token], src: &str) -> String {
        let mut out = format!("fn {} exit=b{}\n", self.name, self.exit);
        for (i, b) in self.blocks.iter().enumerate() {
            let succs: Vec<String> = b
                .succs
                .iter()
                .map(|(t, pos)| format!("b{}@{}", t, edge_label(code, src, *pos)))
                .collect();
            out.push_str(&format!("b{}: stmts={} succ=[{}]\n", i, b.stmts.len(), succs.join(", ")));
        }
        out
    }
}

/// The token text at byte position `pos` (for golden-test edge labels).
fn edge_label<'a>(code: &[&Token], src: &'a str, pos: usize) -> &'a str {
    code.iter()
        .find(|t| t.start == pos)
        .map(|t| {
            let text = t.text(src);
            if text.len() > 8 {
                &text[..8]
            } else {
                text
            }
        })
        .unwrap_or("end")
}

/// Builds a CFG for every `fn` body in a file. `code` is the file's
/// comment-free token view and `items` the item headers parsed from it
/// (both held by [`crate::rules::FileView`], which is the one caller).
pub(crate) fn function_cfgs(code: &[&Token], items: &[Item], src: &str) -> Vec<Cfg> {
    let mut cfgs = Vec::new();
    for item in items {
        if item.kind != ItemKind::Fn {
            continue;
        }
        // Find the token index of the header start, then the signature end:
        // the first `{` or `;` at paren/bracket depth 0 after the name.
        let Ok(header_idx) = code.binary_search_by_key(&item.start, |t| t.start) else { continue };
        let mut j = header_idx;
        // Skip to the `fn` keyword, then past the name and generics to the
        // body `{` (or `;` for trait-method declarations, which have no
        // body and therefore no CFG).
        while j < code.len() && !(code[j].kind == TokKind::Ident && code[j].text(src) == "fn") {
            j += 1;
        }
        let sig_start = j;
        let mut depth = 0i64;
        let mut angle = 0i64;
        let mut body_open = None;
        while j < code.len() {
            match code[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('<') if depth == 0 => angle += 1,
                TokKind::Punct('>')
                    if depth == 0
                        && angle > 0
                        && !matches!(
                            j.checked_sub(1).map(|p| code[p].kind),
                            Some(TokKind::Punct('-'))
                        ) =>
                {
                    angle -= 1
                }
                TokKind::Punct('{') if depth == 0 => {
                    body_open = Some(j);
                    break;
                }
                TokKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else { continue };
        let close = matching_brace(code, open);
        let name = item.name.clone().unwrap_or_else(|| "<anon>".to_string());
        let mut b = Builder {
            code,
            src,
            blocks: vec![Block::default()],
            loops: Vec::new(),
            exit: usize::MAX,
        };
        let last = b.lower(open + 1, close, 0);
        // Dedicated exit block: fall-through from the last live block.
        let exit = b.blocks.len();
        b.blocks.push(Block::default());
        let end_pos = code.get(close).map_or(src.len(), |t| t.start);
        // analyze: allow(unchecked-index) — lower() returns the index of a block it pushed, so it is always in bounds
        b.blocks[last].succs.push((exit, end_pos));
        // Retarget the provisional exit marker.
        for blk in &mut b.blocks {
            for s in &mut blk.succs {
                if s.0 == usize::MAX {
                    s.0 = exit;
                }
            }
        }
        let span_end = code.get(close).map_or(src.len(), |t| t.end);
        let mut cfg = Cfg {
            name,
            line: item.line,
            col: item.col,
            span: code[open].start..span_end,
            blocks: b.blocks,
            exit,
            sig: sig_start..open,
            header_start: item.start,
        };
        prune_unreachable(&mut cfg);
        cfgs.push(cfg);
    }
    cfgs
}

/// Drops blocks unreachable from the entry and remaps edges. The exit
/// block is always kept (it is reachable: the final fall-through edge
/// targets it).
fn prune_unreachable(cfg: &mut Cfg) {
    let n = cfg.blocks.len();
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(i) = stack.pop() {
        for &(t, _) in &cfg.blocks[i].succs {
            if !seen[t] {
                seen[t] = true;
                stack.push(t);
            }
        }
    }
    seen[cfg.exit] = true;
    let mut remap = vec![usize::MAX; n];
    let mut next = 0usize;
    for (i, &s) in seen.iter().enumerate() {
        if s {
            remap[i] = next;
            next += 1;
        }
    }
    let old = std::mem::take(&mut cfg.blocks);
    for (i, mut b) in old.into_iter().enumerate() {
        if !seen[i] {
            continue;
        }
        b.succs.retain(|(t, _)| seen[*t]);
        for s in &mut b.succs {
            s.0 = remap[s.0];
        }
        cfg.blocks.push(b);
    }
    cfg.exit = remap[cfg.exit];
}

/// Index of the `}` matching `code[open]` (`{`), or `code.len()`.
fn matching_brace(code: &[&Token], open: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in code.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    code.len()
}

struct Builder<'a> {
    code: &'a [&'a Token],
    src: &'a str,
    blocks: Vec<Block>,
    /// `(continue target, break target)` per enclosing loop.
    loops: Vec<(BlockId, BlockId)>,
    /// Placeholder id for the exit block (patched after lowering).
    exit: BlockId,
}

impl<'a> Builder<'a> {
    fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn push_stmt(&mut self, block: BlockId, span: Range<usize>) {
        if span.start < span.end {
            self.blocks[block].stmts.push(span);
        }
    }

    fn edge(&mut self, from: BlockId, to: BlockId, at: usize) {
        let pos = self.code.get(at).map_or_else(|| self.src.len(), |t| t.start);
        self.blocks[from].succs.push((to, pos));
    }

    fn ident_at(&self, i: usize) -> Option<&'a str> {
        self.code.get(i).filter(|t| t.kind == TokKind::Ident).map(|t| t.text(self.src))
    }

    fn punct_at(&self, i: usize, ch: char) -> bool {
        self.code.get(i).is_some_and(|t| matches!(t.kind, TokKind::Punct(c) if c == ch))
    }

    /// Lowers statements in `code[i..end]` starting in block `cur`;
    /// returns the block where control continues afterwards.
    fn lower(&mut self, mut i: usize, end: usize, mut cur: BlockId) -> BlockId {
        let mut stmt_start = i;
        let mut depth = 0i64;
        while i < end {
            let t = self.code[i];
            if depth == 0 {
                if let Some(word) = self.ident_at(i) {
                    match word {
                        "if" | "match" | "loop" | "while" | "for" if self.is_control(i, word) => {
                            self.push_stmt(cur, stmt_start..i);
                            let (next_i, join) = self.lower_control(i, end, cur, word);
                            i = next_i;
                            stmt_start = i;
                            cur = join;
                            continue;
                        }
                        "return" => {
                            // Consume to the `;` (or block end) and route to exit.
                            let stop = self.stmt_end(i, end);
                            self.push_stmt(cur, stmt_start..stop);
                            self.edge(cur, self.exit, i);
                            cur = self.new_block();
                            i = stop;
                            stmt_start = i;
                            continue;
                        }
                        "break" | "continue" => {
                            let stop = self.stmt_end(i, end);
                            self.push_stmt(cur, stmt_start..stop);
                            if let Some(&(cont, brk)) = self.loops.last() {
                                let target = if word == "break" { brk } else { cont };
                                self.edge(cur, target, i);
                            } else {
                                // `break` outside a loop (malformed or a
                                // label we do not model): treat as exit.
                                self.edge(cur, self.exit, i);
                            }
                            cur = self.new_block();
                            i = stop;
                            stmt_start = i;
                            continue;
                        }
                        _ => {}
                    }
                }
            }
            match t.kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                // `?` at any depth is a may-exit edge; the statement keeps
                // flowing (both outcomes are possible).
                TokKind::Punct('?') => self.edge(cur, self.exit, i),
                TokKind::Punct(';') if depth == 0 => {
                    self.push_stmt(cur, stmt_start..i + 1);
                    stmt_start = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        self.push_stmt(cur, stmt_start..end);
        cur
    }

    /// Is the keyword at `i` a control construct (vs. e.g. `match` used as
    /// a variable name, which the lexer cannot produce, or an `if` inside
    /// a pattern guard that a caller already consumed)? Token-level
    /// heuristic: control keywords are always control when they appear at
    /// depth 0 of a statement scan.
    fn is_control(&self, i: usize, word: &str) -> bool {
        if word == "if" {
            // `else if` is consumed by lower_if via its own path; a
            // leading `if` here is genuine.
            return true;
        }
        if word == "while" || word == "for" || word == "loop" || word == "match" {
            // `for` also appears in `impl Trait for Type` — impossible
            // inside a fn body statement scan. `while`/`loop`/`match` have
            // no non-control use at statement depth.
            return !matches!(
                i.checked_sub(1).map(|p| self.code[p].kind),
                Some(TokKind::Punct('&'))
            );
        }
        true
    }

    /// First index past the statement starting at `i` (its depth-0 `;`,
    /// inclusive), capped at `end`.
    fn stmt_end(&self, mut i: usize, end: usize) -> usize {
        let mut depth = 0i64;
        while i < end {
            match self.code[i].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                TokKind::Punct(';') if depth <= 0 => return i + 1,
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// Lowers the control construct whose keyword sits at `kw`; returns
    /// `(index past the construct, join block)`.
    fn lower_control(
        &mut self,
        kw: usize,
        end: usize,
        cur: BlockId,
        word: &str,
    ) -> (usize, BlockId) {
        match word {
            "if" => self.lower_if(kw, end, cur),
            "match" => self.lower_match(kw, end, cur),
            "loop" => self.lower_loop(kw, end, cur),
            "while" | "for" => self.lower_while_for(kw, end, cur),
            _ => (kw + 1, cur),
        }
    }

    /// `if cond { then } [else if ... | else { else }]`.
    fn lower_if(&mut self, kw: usize, end: usize, cur: BlockId) -> (usize, BlockId) {
        let Some(open) = self.body_open(kw + 1, end) else { return (kw + 1, cur) };
        // Condition tokens live in the branching block.
        self.push_stmt(cur, kw..open);
        let close = matching_brace(self.code, open).min(end);
        let then_block = self.new_block();
        self.edge(cur, then_block, kw);
        let then_end = self.lower(open + 1, close, then_block);
        let join = self.new_block();
        let mut i = (close + 1).min(end);
        if self.ident_at(i) == Some("else") {
            if self.ident_at(i + 1) == Some("if") {
                let else_block = self.new_block();
                self.edge(cur, else_block, i);
                let (next_i, nested_join) = self.lower_if(i + 1, end, else_block);
                self.edge(nested_join, join, next_i.saturating_sub(1).min(self.code.len() - 1));
                i = next_i;
            } else if let Some(eopen) = self.body_open(i + 1, end) {
                let close_e = matching_brace(self.code, eopen).min(end);
                let else_block = self.new_block();
                self.edge(cur, else_block, i);
                let else_end = self.lower(eopen + 1, close_e, else_block);
                self.edge(else_end, join, close_e.min(self.code.len().saturating_sub(1)));
                i = (close_e + 1).min(end);
            } else {
                self.edge(cur, join, kw);
                i += 1;
            }
        } else {
            // No else: condition may fall through.
            self.edge(cur, join, kw);
        }
        self.edge(then_end, join, close.min(self.code.len().saturating_sub(1)));
        (i, join)
    }

    /// `match scrutinee { pat [if guard] => body, ... }`.
    fn lower_match(&mut self, kw: usize, end: usize, cur: BlockId) -> (usize, BlockId) {
        let Some(open) = self.body_open(kw + 1, end) else { return (kw + 1, cur) };
        self.push_stmt(cur, kw..open);
        let close = matching_brace(self.code, open).min(end);
        let join = self.new_block();
        let mut i = open + 1;
        while i < close {
            // Arm: tokens up to `=>` at depth 0 are the pattern/guard.
            let arrow = self.find_arrow(i, close);
            let Some(arrow) = arrow else { break };
            let arm = self.new_block();
            self.edge(cur, arm, i);
            // Pattern + guard tokens belong to the arm block (a guard can
            // read tainted state).
            self.push_stmt(arm, i..arrow);
            let body_start = arrow + 2; // past `=` `>`
            let body_end = self.arm_end(body_start, close);
            let arm_out = self.lower(body_start, body_end, arm);
            self.edge(arm_out, join, body_end.min(self.code.len().saturating_sub(1)));
            i = body_end;
            if self.punct_at(i, ',') {
                i += 1;
            }
        }
        // A match with no parsed arms still flows onward.
        if self.blocks[join].stmts.is_empty()
            && !self.blocks.iter().any(|b| b.succs.iter().any(|(t, _)| *t == join))
        {
            self.edge(cur, join, kw);
        }
        ((close + 1).min(end), join)
    }

    /// `loop { body }` — body loops back to its own head; `break` exits.
    fn lower_loop(&mut self, kw: usize, end: usize, cur: BlockId) -> (usize, BlockId) {
        let Some(open) = self.body_open(kw + 1, end) else { return (kw + 1, cur) };
        let close = matching_brace(self.code, open).min(end);
        let head = self.new_block();
        let after = self.new_block();
        self.edge(cur, head, kw);
        self.loops.push((head, after));
        let body_end = self.lower(open + 1, close, head);
        self.loops.pop();
        self.edge(body_end, head, close.min(self.code.len().saturating_sub(1)));
        ((close + 1).min(end), after)
    }

    /// `while cond { body }` / `for pat in iter { body }` — the header
    /// holds the condition/iterator tokens and branches to body or after.
    fn lower_while_for(&mut self, kw: usize, end: usize, cur: BlockId) -> (usize, BlockId) {
        let Some(open) = self.body_open(kw + 1, end) else { return (kw + 1, cur) };
        let close = matching_brace(self.code, open).min(end);
        let head = self.new_block();
        let after = self.new_block();
        self.edge(cur, head, kw);
        // Header tokens (incl. `for pat in iter` / `while cond`).
        self.push_stmt(head, kw..open);
        let body = self.new_block();
        self.edge(head, body, kw);
        self.edge(head, after, kw);
        self.loops.push((head, after));
        let body_end = self.lower(open + 1, close, body);
        self.loops.pop();
        self.edge(body_end, head, close.min(self.code.len().saturating_sub(1)));
        ((close + 1).min(end), after)
    }

    /// Index of the body `{` for a construct whose header starts at `from`:
    /// the first `{` at paren/bracket depth 0 that is not a struct-literal
    /// brace inside parentheses. Token-level approximation: depth-0 `{`.
    fn body_open(&self, from: usize, end: usize) -> Option<usize> {
        let mut depth = 0i64;
        let mut j = from;
        while j < end {
            match self.code[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('{') if depth == 0 => return Some(j),
                TokKind::Punct(';') if depth == 0 => return None,
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// Index of the `=` of the next `=>` at brace/paren depth 0 in
    /// `code[i..close]`.
    fn find_arrow(&self, mut i: usize, close: usize) -> Option<usize> {
        let mut depth = 0i64;
        while i + 1 < close {
            match self.code[i].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                TokKind::Punct('=')
                    if depth == 0
                        && matches!(self.code[i + 1].kind, TokKind::Punct('>'))
                        && self.code[i].end == self.code[i + 1].start =>
                {
                    return Some(i)
                }
                _ => {}
            }
            i += 1;
        }
        None
    }

    /// End of a match arm body starting at `i`: a block arm ends after its
    /// matching `}`; an expression arm ends at the next depth-0 `,` (or
    /// the match close).
    fn arm_end(&self, i: usize, close: usize) -> usize {
        if self.punct_at(i, '{') {
            return (matching_brace(self.code, i) + 1).min(close);
        }
        let mut depth = 0i64;
        let mut j = i;
        while j < close {
            match self.code[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                TokKind::Punct(',') if depth == 0 => return j,
                _ => {}
            }
            j += 1;
        }
        close
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn cfgs(src: &str) -> Vec<Cfg> {
        let tokens = lex(src);
        crate::rules::FileView::new("fixture.rs", src, &tokens, Default::default()).cfgs
    }

    fn reachable_from_entry(cfg: &Cfg) -> usize {
        let mut seen = vec![false; cfg.blocks.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(i) = stack.pop() {
            for &(t, _) in &cfg.blocks[i].succs {
                if !seen[t] {
                    seen[t] = true;
                    stack.push(t);
                }
            }
        }
        seen.iter().filter(|s| **s).count()
    }

    #[test]
    fn straight_line_fn_is_two_blocks() {
        let c = cfgs("fn f() { let a = 1; let b = a; }\n");
        assert_eq!(c.len(), 1);
        let cfg = &c[0];
        assert_eq!(cfg.name, "f");
        assert_eq!(cfg.blocks.len(), 2, "entry + exit: {cfg:?}");
        assert_eq!(cfg.blocks[0].stmts.len(), 2);
        assert_eq!(cfg.blocks[0].succs, vec![(cfg.exit, cfg.span.end - 1)]);
    }

    #[test]
    fn if_else_forks_and_joins() {
        let c = cfgs("fn f(c: bool) -> u8 { if c { 1 } else { 2 } }\n");
        let cfg = &c[0];
        // entry, then, else, join, exit.
        assert_eq!(cfg.blocks.len(), 5, "{}", cfg.render(&[], ""));
        assert_eq!(cfg.blocks[0].succs.len(), 2);
        assert_eq!(reachable_from_entry(cfg), cfg.blocks.len());
    }

    #[test]
    fn if_without_else_has_fallthrough_edge() {
        let c = cfgs("fn f(c: bool) { let mut x = 0; if c { x = 1; } let _ = x; }\n");
        let cfg = &c[0];
        // entry -> {then, join}; then -> join; join -> exit.
        assert_eq!(cfg.blocks[0].succs.len(), 2);
        assert_eq!(reachable_from_entry(cfg), cfg.blocks.len());
    }

    #[test]
    fn match_gets_one_block_per_arm() {
        let src = "fn f(x: u8) -> u8 { match x { 0 => 1, 1 => { 2 } _ => 3, } }\n";
        let cfg = &cfgs(src)[0];
        // entry + 3 arms + join + exit.
        assert_eq!(cfg.blocks.len(), 6);
        assert_eq!(cfg.blocks[0].succs.len(), 3);
        assert_eq!(reachable_from_entry(cfg), cfg.blocks.len());
    }

    #[test]
    fn loop_with_break_reaches_after_block() {
        let src = "fn f() { let mut i = 0; loop { i += 1; if i > 3 { break; } } let _ = i; }\n";
        let cfg = &cfgs(src)[0];
        assert_eq!(reachable_from_entry(cfg), cfg.blocks.len());
        // A back edge exists: some block's successor has a lower id.
        assert!(
            cfg.blocks.iter().enumerate().any(|(i, b)| b.succs.iter().any(|(t, _)| *t < i)),
            "no back edge in {cfg:?}"
        );
    }

    #[test]
    fn while_and_for_loop_back() {
        for src in [
            "fn f(n: usize) { let mut i = 0; while i < n { i += 1; } }\n",
            "fn f(v: &[u8]) { for x in v { let _ = x; } }\n",
        ] {
            let cfg = &cfgs(src)[0];
            assert!(
                cfg.blocks.iter().enumerate().any(|(i, b)| b.succs.iter().any(|(t, _)| *t <= i)),
                "no back edge for {src}: {cfg:?}"
            );
            assert_eq!(reachable_from_entry(cfg), cfg.blocks.len(), "{src}");
        }
    }

    #[test]
    fn code_after_return_is_pruned() {
        let src = "fn f(c: bool) -> u8 { if c { return 1; } 2 }\n";
        let cfg = &cfgs(src)[0];
        assert_eq!(reachable_from_entry(cfg), cfg.blocks.len());
        // The then-branch routes to exit, not to the join.
        let then_like = cfg
            .blocks
            .iter()
            .any(|b| b.succs.iter().any(|(t, _)| *t == cfg.exit) && !b.stmts.is_empty());
        assert!(then_like, "{cfg:?}");
    }

    #[test]
    fn question_mark_adds_exit_edge_and_continues() {
        let src = "fn f(x: Option<u8>) -> Option<u8> { let v = x?; Some(v + 1) }\n";
        let cfg = &cfgs(src)[0];
        // Entry has two paths to exit: the `?` edge and the fall-through.
        let exit_edges: usize =
            cfg.blocks.iter().map(|b| b.succs.iter().filter(|(t, _)| *t == cfg.exit).count()).sum();
        assert!(exit_edges >= 2, "{cfg:?}");
    }

    #[test]
    fn edge_positions_are_inside_the_function_span() {
        let src = "fn outer() { if a { b(); } }\nfn inner(n: usize) { for i in 0..n { x(i); } }\n";
        for cfg in cfgs(src) {
            for b in &cfg.blocks {
                for &(_, pos) in &b.succs {
                    assert!(
                        pos >= cfg.span.start && pos <= cfg.span.end,
                        "edge pos {pos} outside {:?} in {}",
                        cfg.span,
                        cfg.name
                    );
                }
            }
        }
    }

    #[test]
    fn trait_method_declarations_have_no_cfg() {
        let src = "trait T { fn decl(&self); fn with_default(&self) { let _ = 1; } }\n";
        let c = cfgs(src);
        assert_eq!(c.len(), 1, "only the defaulted method has a body: {c:?}");
        assert_eq!(c[0].name, "with_default");
    }

    #[test]
    fn nested_fns_each_get_a_cfg() {
        let src = "fn a() { fn b() { let _ = 2; } b(); }\n";
        let names: Vec<String> = cfgs(src).into_iter().map(|c| c.name).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn closures_are_opaque_statements() {
        let src = "fn f() { let g = |x: u8| { x + 1 }; g(2); }\n";
        let cfg = &cfgs(src)[0];
        assert_eq!(cfg.blocks.len(), 2, "closure body stays in-line: {cfg:?}");
    }
}
