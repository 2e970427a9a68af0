//! Golden-file and property tests for the CFG builder.
//!
//! The golden tests pin the exact block structure [`Cfg::render`] emits
//! for representative control-flow shapes, so any lowering change shows
//! up as a readable diff here before it shows up as a wrong dataflow
//! verdict. The property tests check structural invariants over a corpus
//! that includes the analyzer's own sources: every block is reachable
//! from entry, every edge targets a real block, and every edge position
//! stays inside the function's span.

use hoga_analyze::cfg::Cfg;
use hoga_analyze::dataflow::{forward_fixpoint, Analysis, Fixpoint};
use hoga_analyze::lexer::{lex, TokKind, Token};
use hoga_analyze::{FileProfile, FileView};

fn code_tokens(src: &str) -> Vec<Token> {
    lex(src)
}

fn cfgs(src: &str) -> (Vec<Cfg>, Vec<Token>) {
    let tokens = code_tokens(src);
    (build(&tokens, src), tokens)
}

fn view<'a>(tokens: &'a [Token], src: &'a str) -> FileView<'a> {
    FileView::new("fixture.rs", src, tokens, FileProfile::default())
}

fn build(tokens: &[Token], src: &str) -> Vec<Cfg> {
    view(tokens, src).cfgs
}

fn render(src: &str) -> String {
    let tokens = code_tokens(src);
    let v = view(&tokens, src);
    v.cfgs.iter().map(|c| c.render(&v.code, src)).collect::<Vec<_>>().join("\n")
}

// ---------------------------------------------------------------------------
// Golden renders
// ---------------------------------------------------------------------------

#[test]
fn golden_straight_line() {
    let got = render("fn f() { let a = 1; let b = a; }");
    let want = "fn f exit=b1\n\
                b0: stmts=2 succ=[b1@}]\n\
                b1: stmts=0 succ=[]\n";
    assert_eq!(got, want, "got:\n{got}");
}

#[test]
fn golden_if_else() {
    let got = render("fn f(x: bool) { if x { a(); } else { b(); } c(); }");
    let want = "fn f exit=b4\n\
                b0: stmts=1 succ=[b1@if, b3@else]\n\
                b1: stmts=1 succ=[b2@}]\n\
                b2: stmts=1 succ=[b4@}]\n\
                b3: stmts=1 succ=[b2@}]\n\
                b4: stmts=0 succ=[]\n";
    assert_eq!(got, want, "got:\n{got}");
}

#[test]
fn golden_loop_with_break() {
    let got = render("fn f() { loop { if done() { break; } step(); } after(); }");
    // b1 is the loop head (holding the `if`), b3 the then-branch whose
    // `break` targets b2 (the code after the loop), and b4 the loop tail
    // whose fall-through is the back edge to b1.
    let want = "fn f exit=b5\n\
                b0: stmts=0 succ=[b1@loop]\n\
                b1: stmts=1 succ=[b3@if, b4@if]\n\
                b2: stmts=1 succ=[b5@}]\n\
                b3: stmts=1 succ=[b2@break]\n\
                b4: stmts=1 succ=[b1@}]\n\
                b5: stmts=0 succ=[]\n";
    assert_eq!(got, want, "got:\n{got}");
}

#[test]
fn golden_question_mark_adds_exit_edge() {
    let got = render("fn f() -> Result<(), E> { g()?; h(); Ok(()) }");
    // `?` does not split the block; it adds a may-exit edge alongside the
    // ordinary fall-through to the exit block.
    let want = "fn f exit=b1\n\
                b0: stmts=3 succ=[b1@?, b1@}]\n\
                b1: stmts=0 succ=[]\n";
    assert_eq!(got, want, "got:\n{got}");
}

#[test]
fn golden_match_arms() {
    let got = render("fn f(x: u8) { match x { 0 => a(), _ => { b(); } } t(); }");
    // One block per arm (b2, b3) joining at b1 (the `t()` after the
    // match), then the dedicated exit.
    let want = "fn f exit=b4\n\
                b0: stmts=1 succ=[b2@0, b3@_]\n\
                b1: stmts=1 succ=[b4@}]\n\
                b2: stmts=2 succ=[b1@,]\n\
                b3: stmts=2 succ=[b1@}]\n\
                b4: stmts=0 succ=[]\n";
    assert_eq!(got, want, "got:\n{got}");
}

#[test]
fn golden_code_after_return_is_pruned() {
    let got = render("fn f() -> u8 { return 1; unreachable_call(); }");
    let want = "fn f exit=b1\n\
                b0: stmts=1 succ=[b1@return]\n\
                b1: stmts=0 succ=[]\n";
    assert_eq!(got, want, "got:\n{got}");
}

// ---------------------------------------------------------------------------
// Structural properties
// ---------------------------------------------------------------------------

/// Check the invariants every lowered CFG must satisfy.
fn check_invariants(cfg: &Cfg, origin: &str) {
    let n = cfg.blocks.len();
    assert!(n >= 1, "{origin}: fn {} has no blocks", cfg.name);
    assert!(cfg.exit < n, "{origin}: fn {} exit {} out of range", cfg.name, cfg.exit);
    assert!(
        cfg.blocks[cfg.exit].succs.is_empty(),
        "{origin}: fn {} exit block has successors",
        cfg.name
    );

    // Every edge targets a real block, at a position inside the fn span.
    for (id, block) in cfg.blocks.iter().enumerate() {
        for &(succ, pos) in &block.succs {
            assert!(succ < n, "{origin}: fn {} b{id} -> b{succ} out of range", cfg.name);
            assert!(
                pos >= cfg.span.start && pos <= cfg.span.end,
                "{origin}: fn {} edge b{id}->b{succ} at byte {pos} escapes span {:?}",
                cfg.name,
                cfg.span
            );
        }
    }

    // Every block is reachable from entry (b0). The builder prunes
    // unreachable blocks, so reachability must hold exactly.
    let mut seen = vec![false; n];
    let mut work = vec![0usize];
    seen[0] = true;
    while let Some(b) = work.pop() {
        for &(succ, _) in &cfg.blocks[b].succs {
            if !seen[succ] {
                seen[succ] = true;
                work.push(succ);
            }
        }
    }
    for (id, reached) in seen.iter().enumerate() {
        // The dedicated exit block survives pruning even when the
        // function diverges and nothing falls through to it.
        if id == cfg.exit {
            continue;
        }
        assert!(reached, "{origin}: fn {} block b{id} unreachable from entry", cfg.name);
    }
}

#[test]
fn properties_hold_on_synthetic_corpus() {
    let corpus = [
        "fn a() {}",
        "fn b(x: u8) -> u8 { if x > 1 { x } else { 0 } }",
        "fn c() { for i in 0..9 { if i == 3 { continue; } use_it(i); } }",
        "fn d() -> Result<(), E> { while go()? { step()?; } Ok(()) }",
        "fn e(x: u8) { match x { 0 => {} 1 => { if t() { r(); } } _ => return, } tail(); }",
        "fn f() { loop { loop { if x() { break; } } if y() { break; } } }",
        "fn g() { let c = |k: usize| k + 1; c(3); }",
        "impl S { fn h(&self) -> u8 { self.k } }",
    ];
    for src in corpus {
        let (cfgs, _) = cfgs(src);
        assert!(!cfgs.is_empty(), "no cfg built for {src:?}");
        for cfg in &cfgs {
            check_invariants(cfg, src);
        }
    }
}

#[test]
fn properties_hold_on_own_sources() {
    // The analyzer's own crate is the largest corpus this test can reach
    // without network access; every function it contains must lower to a
    // well-formed CFG.
    let src_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut checked = 0usize;
    for entry in std::fs::read_dir(&src_dir).expect("read src dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().map(|e| e != "rs").unwrap_or(true) {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("read source");
        let tokens = code_tokens(&src);
        for cfg in build(&tokens, &src) {
            check_invariants(&cfg, &path.display().to_string());
            checked += 1;
        }
    }
    assert!(checked > 100, "expected a substantial corpus, checked {checked} fns");
}

// ---------------------------------------------------------------------------
// Dataflow engine on real CFGs
// ---------------------------------------------------------------------------

/// "Has a `?` been crossed on some path to this block" — a tiny forward
/// may-analysis used to exercise the public fixpoint engine end to end.
struct CrossedTry<'a> {
    code: Vec<&'a Token>,
    src: &'a str,
}

impl<'a> Analysis for CrossedTry<'a> {
    type Fact = bool;

    fn bottom(&self) -> bool {
        false
    }

    fn entry(&self) -> bool {
        false
    }

    fn join(&self, into: &mut bool, other: &bool) {
        *into = *into || *other;
    }

    fn transfer(&mut self, cfg: &Cfg, block: usize, fact: &mut bool) {
        for stmt in &cfg.blocks[block].stmts {
            for i in stmt.clone() {
                if matches!(self.code[i].kind, TokKind::Punct('?'))
                    && self.code[i].text(self.src) == "?"
                {
                    *fact = true;
                }
            }
        }
    }
}

#[test]
fn fixpoint_runs_deterministically_over_branching_cfg() {
    let src = "fn f() -> Result<(), E> { if a() { b()?; } else { c(); } d(); Ok(()) }";
    let tokens = code_tokens(src);
    let FileView { code, cfgs, .. } = view(&tokens, src);
    let cfg = &cfgs[0];

    let run = |()| -> Fixpoint<bool> {
        let mut analysis = CrossedTry { code: code.clone(), src };
        forward_fixpoint(cfg, &mut analysis)
    };
    let first = run(());
    let second = run(());
    assert_eq!(first.entry_facts, second.entry_facts, "facts must be deterministic");
    assert_eq!(first.iterations, second.iterations, "schedule must be deterministic");
    // The join block (where `b()?` and `c()` meet) may have crossed a `?`.
    assert!(first.entry_facts[cfg.exit], "exit block should see the `?`: {:?}", first.entry_facts);
}
