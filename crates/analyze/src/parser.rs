//! Item-level parsing on top of [`crate::lexer`] — layer (a) of the
//! analyzer.
//!
//! This is *not* a Rust grammar: it is a single linear pass over the code
//! tokens that recognizes item *headers* (`pub(crate) fn name`,
//! `struct Name`, `impl Trait for Name`, ...) wherever an item is
//! syntactically possible (after `;`, `{`, `}`, `]` or at the start of the
//! file). That is enough to recover every definition with its span,
//! visibility and enclosing `impl` subject, which is what the
//! [`crate::symbols`] graph needs, and every `fn`'s body range, which
//! [`crate::callgraph`] splits into statements. Bodies are scanned through, so nested
//! items (a `static` inside a `fn`, methods inside an `impl`) are found
//! too.

use std::ops::Range;

use crate::lexer::{TokKind, Token};

/// Item visibility as written in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// No `pub` at all.
    Private,
    /// `pub(crate)` / `pub(super)` / `pub(in ...)` — restricted, never part
    /// of the crate's external API.
    Restricted,
    /// Plain `pub`.
    Public,
}

/// Kinds of item headers the parser recognizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free functions, methods, and trait-method declarations).
    Fn,
    /// `struct` / `union`.
    Struct,
    /// `enum`.
    Enum,
    /// `trait`.
    Trait,
    /// `const` (not `const fn`, which is [`ItemKind::Fn`]).
    Const,
    /// `static`.
    Static,
    /// `type` alias (including associated types).
    TypeAlias,
    /// `mod`.
    Mod,
    /// `use` declaration (re-exports included).
    Use,
    /// `impl` block; [`Item::name`] is the subject type.
    Impl,
    /// `macro_rules!` definition.
    MacroRules,
}

impl ItemKind {
    /// Lower-case label for diagnostics (`"fn"`, `"struct"`, ...).
    pub fn label(self) -> &'static str {
        match self {
            ItemKind::Fn => "fn",
            ItemKind::Struct => "struct",
            ItemKind::Enum => "enum",
            ItemKind::Trait => "trait",
            ItemKind::Const => "const",
            ItemKind::Static => "static",
            ItemKind::TypeAlias => "type",
            ItemKind::Mod => "mod",
            ItemKind::Use => "use",
            ItemKind::Impl => "impl",
            ItemKind::MacroRules => "macro_rules",
        }
    }
}

/// One recognized item header.
#[derive(Debug, Clone)]
pub struct Item {
    /// What kind of item this is.
    pub kind: ItemKind,
    /// The declared name (`r#` stripped); `None` for `use` declarations and
    /// anonymous `const _`.
    pub name: Option<String>,
    /// Visibility as written.
    pub vis: Visibility,
    /// Byte offset of the first token of the header (`pub` or the keyword).
    pub start: usize,
    /// 1-based line of the name token (or the keyword when unnamed).
    pub line: u32,
    /// 1-based column of the name token (or the keyword when unnamed).
    pub col: u32,
    /// Identifiers appearing in the item's *type positions*: a `fn`'s
    /// signature (not its body), a `struct`/`enum`/`trait` body, a
    /// `const`/`static`/`type` declaration. These are the names a consumer
    /// of this item is forced to touch, so liveness propagates through
    /// them (a used `pub fn` keeps its return type's `pub` justified).
    pub dep_names: Vec<String>,
    /// For `fn` items inside an `impl` block: the impl subject, so a used
    /// method keeps its type alive.
    pub owner: Option<String>,
    /// For `fn` items with a body: the token-index range strictly inside
    /// the body's braces (`None` for a trait-method declaration).
    pub body: Option<Range<usize>>,
}

/// Parses item headers out of a file's comment-free token view (see
/// [`crate::rules::FileView`]); `code` must come from
/// [`crate::lexer::lex`] over the same `src`.
pub(crate) fn parse_items(code: &[&Token], src: &str) -> Vec<Item> {
    let mut items = Vec::new();
    // Spans of `impl` bodies seen so far, innermost lookup by containment.
    let mut impl_spans: Vec<(usize, usize, Option<String>)> = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !at_item_position(code, i) {
            i += 1;
            continue;
        }
        let header_start = code[i].start;
        let mut j = i;
        let mut vis = Visibility::Private;
        if ident_is(code, j, src, "pub") {
            j += 1;
            if punct_is(code, j, '(') {
                vis = Visibility::Restricted;
                j = skip_delimited(code, j, '(', ')');
            } else {
                vis = Visibility::Public;
            }
        }
        // Modifiers that may precede `fn` (or `trait`, for `unsafe trait`).
        loop {
            if ident_any(code, j, src, &["unsafe", "async", "default"])
                || ((ident_is(code, j, src, "const") || ident_is(code, j, src, "extern"))
                    && ident_is(code, j + 1, src, "fn"))
            {
                j += 1;
            } else if ident_is(code, j, src, "extern")
                && matches!(code.get(j + 1).map(|t| t.kind), Some(TokKind::Str))
                && ident_is(code, j + 2, src, "fn")
            {
                j += 2;
            } else {
                break;
            }
        }
        let Some(kw) = code.get(j) else { break };
        if kw.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let mut body = None;
        let parsed = match kw.text(src) {
            "fn" => {
                let name = name_at(code, j + 1, src);
                let sig_end = find_at_depth0(code, j + 1, &['{', ';']);
                if punct_is(code, sig_end, '{') {
                    body = Some(sig_end + 1..brace_end_index(code, sig_end));
                }
                let deps = idents_between(code, j + 2, sig_end, src);
                let owner = impl_spans
                    .iter()
                    .rev()
                    .find(|(s, e, _)| *s < header_start && header_start < *e)
                    .and_then(|(_, _, subj)| subj.clone());
                Some((ItemKind::Fn, name, deps, owner, j + 2))
            }
            k @ ("struct" | "union" | "enum" | "trait") => {
                let kind = match k {
                    "enum" => ItemKind::Enum,
                    "trait" => ItemKind::Trait,
                    _ => ItemKind::Struct,
                };
                let name = name_at(code, j + 1, src);
                let end = item_end(code, j + 1, src);
                let deps = idents_between(code, j + 2, end, src);
                Some((kind, name, deps, None, j + 2))
            }
            "const" => {
                let name = name_at(code, j + 1, src).filter(|n| n != "_");
                let end = find_at_depth0(code, j + 1, &[';', '{']);
                let deps = idents_between(code, j + 2, end, src);
                Some((ItemKind::Const, name, deps, None, j + 2))
            }
            "static" => {
                let n = j + 1 + usize::from(ident_is(code, j + 1, src, "mut"));
                let name = name_at(code, n, src);
                let end = find_at_depth0(code, n, &[';', '{']);
                let deps = idents_between(code, n + 1, end, src);
                Some((ItemKind::Static, name, deps, None, n + 1))
            }
            "type" => {
                let name = name_at(code, j + 1, src);
                let end = find_at_depth0(code, j + 1, &[';', '{']);
                let deps = idents_between(code, j + 2, end, src);
                Some((ItemKind::TypeAlias, name, deps, None, j + 2))
            }
            "mod" => {
                let name = name_at(code, j + 1, src);
                Some((ItemKind::Mod, name, Vec::new(), None, j + 2))
            }
            "use" => {
                let end = find_at_depth0(code, j + 1, &[';']);
                Some((ItemKind::Use, None, Vec::new(), None, end))
            }
            "impl" => {
                let (subject, body_open) = impl_subject(code, j + 1, src);
                if let Some(open) = body_open {
                    let end = brace_end_offset(code, open, src);
                    impl_spans.push((code[open].start, end, subject.clone()));
                    Some((ItemKind::Impl, subject, Vec::new(), None, open + 1))
                } else {
                    Some((ItemKind::Impl, subject, Vec::new(), None, j + 1))
                }
            }
            "macro_rules" if punct_is(code, j + 1, '!') => {
                let name = name_at(code, j + 2, src);
                Some((ItemKind::MacroRules, name, Vec::new(), None, j + 3))
            }
            _ => None,
        };
        match parsed {
            Some((kind, name, dep_names, owner, resume)) => {
                let pos = if name.is_some() { name_token(code, kind, j, src) } else { None };
                let pos = pos.unwrap_or(kw);
                items.push(Item {
                    kind,
                    name,
                    vis,
                    start: header_start,
                    line: pos.line,
                    col: pos.col,
                    dep_names,
                    owner,
                    body,
                });
                i = resume.max(i + 1);
            }
            None => i += 1,
        }
    }
    items
}

/// The token whose position labels the item (its name token).
fn name_token<'a>(code: &[&'a Token], kind: ItemKind, kw: usize, src: &str) -> Option<&'a Token> {
    let at = match kind {
        ItemKind::Static if ident_is(code, kw + 1, src, "mut") => kw + 2,
        ItemKind::MacroRules => kw + 2,
        _ => kw + 1,
    };
    code.get(at).copied().filter(|t| t.kind == TokKind::Ident)
}

/// Is `code[i]` a place where an item header may start?
fn at_item_position(code: &[&Token], i: usize) -> bool {
    match i.checked_sub(1).and_then(|p| code.get(p)) {
        None => true,
        Some(prev) => matches!(prev.kind, TokKind::Punct(';' | '{' | '}' | ']')),
    }
}

fn ident_is(code: &[&Token], i: usize, src: &str, word: &str) -> bool {
    code.get(i).is_some_and(|t| t.kind == TokKind::Ident && t.text(src) == word)
}

fn ident_any(code: &[&Token], i: usize, src: &str, words: &[&str]) -> bool {
    code.get(i).is_some_and(|t| t.kind == TokKind::Ident && words.contains(&t.text(src)))
}

fn punct_is(code: &[&Token], i: usize, ch: char) -> bool {
    code.get(i).is_some_and(|t| matches!(t.kind, TokKind::Punct(c) if c == ch))
}

/// The declared name at `code[i]`, with any `r#` prefix stripped.
fn name_at(code: &[&Token], i: usize, src: &str) -> Option<String> {
    code.get(i).filter(|t| t.kind == TokKind::Ident).map(|t| {
        let text = t.text(src);
        text.strip_prefix("r#").unwrap_or(text).to_string()
    })
}

/// Given `code[open]` == `o`, the index just past its matching `c`.
fn skip_delimited(code: &[&Token], open: usize, o: char, c: char) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < code.len() {
        match code[j].kind {
            TokKind::Punct(p) if p == o => depth += 1,
            TokKind::Punct(p) if p == c => {
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

/// Index of the first of `stops` at paren/bracket depth 0, scanning from
/// `from` (exclusive of nested `(...)` / `[...]` contents).
fn find_at_depth0(code: &[&Token], from: usize, stops: &[char]) -> usize {
    let mut depth = 0i64;
    let mut j = from;
    while j < code.len() {
        if let TokKind::Punct(c) = code[j].kind {
            match c {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                c if depth <= 0 && stops.contains(&c) => return j,
                _ => {}
            }
        }
        j += 1;
    }
    code.len()
}

/// End index of a `struct`/`enum`/`trait` item starting after its keyword:
/// the matching `}` of its first depth-0 `{`, or its terminating `;`.
fn item_end(code: &[&Token], from: usize, _src: &str) -> usize {
    let at = find_at_depth0(code, from, &['{', ';']);
    if punct_is(code, at, '{') {
        brace_end_index(code, at)
    } else {
        at
    }
}

/// Index of the `}` matching `code[open]` (`{`), or `code.len()`.
fn brace_end_index(code: &[&Token], open: usize) -> usize {
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

/// Byte offset just past the `}` matching `code[open]` (`{`).
fn brace_end_offset(code: &[&Token], open: usize, src: &str) -> usize {
    let at = brace_end_index(code, open);
    code.get(at).map_or(src.len(), |t| t.end)
}

/// All identifier texts in `code[from..to]` (r# stripped).
fn idents_between(code: &[&Token], from: usize, to: usize, src: &str) -> Vec<String> {
    let to = to.min(code.len());
    if from >= to {
        return Vec::new();
    }
    code[from..to]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| {
            let text = t.text(src);
            text.strip_prefix("r#").unwrap_or(text).to_string()
        })
        .collect()
}

/// Resolves an `impl` header starting at `code[from]` (just past `impl`):
/// returns the subject type name and the index of the body `{` (if any).
///
/// Heuristic: skip leading generic parameters, then take the *last*
/// identifier at angle-depth 0 before the body / `where` clause; a `for`
/// resets the collection so `impl Trait for Type` resolves to `Type`.
fn impl_subject(code: &[&Token], from: usize, src: &str) -> (Option<String>, Option<usize>) {
    let mut j = from;
    if punct_is(code, j, '<') {
        j = skip_angles(code, j);
    }
    let mut subject: Option<String> = None;
    let mut angle = 0i64;
    while j < code.len() {
        let t = code[j];
        match t.kind {
            TokKind::Punct('<') => angle += 1,
            // `->` inside bounds like `Fn() -> T` must not close an angle.
            TokKind::Punct('>') if !punct_is(code, j.wrapping_sub(1), '-') => {
                angle = (angle - 1).max(0)
            }
            TokKind::Punct('{') if angle == 0 => return (subject, Some(j)),
            TokKind::Punct(';') if angle == 0 => return (subject, None),
            TokKind::Ident if angle == 0 => {
                let text = t.text(src);
                match text {
                    "for" => subject = None,
                    "where" => {
                        return (
                            subject,
                            code[j..]
                                .iter()
                                .position(|t| matches!(t.kind, TokKind::Punct('{')))
                                .map(|k| j + k),
                        )
                    }
                    "dyn" | "mut" | "const" | "unsafe" => {}
                    _ => subject = Some(text.strip_prefix("r#").unwrap_or(text).to_string()),
                }
            }
            _ => {}
        }
        j += 1;
    }
    (subject, None)
}

/// Given `code[open]` == `<`, the index just past its matching `>`.
fn skip_angles(code: &[&Token], open: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < code.len() {
        match code[j].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') if !punct_is(code, j.wrapping_sub(1), '-') => {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<Item> {
        let tokens = lex(src);
        crate::rules::FileView::new("fixture.rs", src, &tokens, Default::default()).items
    }

    fn named(items: &[Item], kind: ItemKind) -> Vec<(String, Visibility)> {
        items
            .iter()
            .filter(|i| i.kind == kind)
            .filter_map(|i| i.name.clone().map(|n| (n, i.vis)))
            .collect()
    }

    #[test]
    fn finds_fns_with_visibility() {
        let src = "pub fn a() {}\nfn b() {}\npub(crate) fn c() {}\npub(in crate::x) fn d() {}\n";
        let fns = named(&parse(src), ItemKind::Fn);
        assert_eq!(
            fns,
            [
                ("a".to_string(), Visibility::Public),
                ("b".to_string(), Visibility::Private),
                ("c".to_string(), Visibility::Restricted),
                ("d".to_string(), Visibility::Restricted),
            ]
        );
    }

    #[test]
    fn const_fn_is_a_fn_and_const_is_a_const() {
        let src = "pub const fn table() -> u8 { 0 }\npub const LIMIT: usize = 4;\n";
        let items = parse(src);
        assert_eq!(named(&items, ItemKind::Fn), [("table".to_string(), Visibility::Public)]);
        assert_eq!(named(&items, ItemKind::Const), [("LIMIT".to_string(), Visibility::Public)]);
    }

    #[test]
    fn structs_enums_traits_types_mods() {
        let src = "pub struct S { x: u8 }\nenum E { A, B }\npub trait T { fn m(&self); }\n\
                   type Alias = u8;\npub mod sub;\nstatic COUNT: u8 = 0;\n";
        let items = parse(src);
        assert_eq!(named(&items, ItemKind::Struct), [("S".to_string(), Visibility::Public)]);
        assert_eq!(named(&items, ItemKind::Enum), [("E".to_string(), Visibility::Private)]);
        assert_eq!(named(&items, ItemKind::Trait), [("T".to_string(), Visibility::Public)]);
        assert_eq!(
            named(&items, ItemKind::TypeAlias),
            [("Alias".to_string(), Visibility::Private)]
        );
        assert_eq!(named(&items, ItemKind::Mod), [("sub".to_string(), Visibility::Public)]);
        assert_eq!(named(&items, ItemKind::Static), [("COUNT".to_string(), Visibility::Private)]);
        // The trait method declaration is found as a (private) fn.
        assert_eq!(named(&items, ItemKind::Fn), [("m".to_string(), Visibility::Private)]);
    }

    #[test]
    fn methods_get_their_impl_subject_as_owner() {
        let src = "struct S;\nimpl S {\n    pub fn new() -> Self { S }\n}\n\
                   impl std::fmt::Display for S {\n    fn fmt(&self) {}\n}\n";
        let items = parse(src);
        let fns: Vec<(Option<String>, Option<String>)> = items
            .iter()
            .filter(|i| i.kind == ItemKind::Fn)
            .map(|i| (i.name.clone(), i.owner.clone()))
            .collect();
        assert_eq!(
            fns,
            [
                (Some("new".to_string()), Some("S".to_string())),
                (Some("fmt".to_string()), Some("S".to_string())),
            ]
        );
    }

    #[test]
    fn generic_impl_subject_is_resolved() {
        let src = "impl<G: Rng> Walker<G> {\n    fn step(&mut self) {}\n}\n\
                   impl<T> Iterator for Walks<'_, T> where T: Clone {\n    fn next(&mut self) {}\n}\n";
        let impls = named(&parse(src), ItemKind::Impl);
        assert_eq!(
            impls,
            [
                ("Walker".to_string(), Visibility::Private),
                ("Walks".to_string(), Visibility::Private),
            ]
        );
    }

    #[test]
    fn fn_signature_idents_become_deps_but_body_idents_do_not() {
        let src = "pub fn run(cfg: &Config) -> Report { helper(cfg) }\n";
        let items = parse(src);
        let f = &items[0];
        assert!(f.dep_names.contains(&"Config".to_string()));
        assert!(f.dep_names.contains(&"Report".to_string()));
        assert!(!f.dep_names.contains(&"helper".to_string()), "body idents are not deps");
    }

    #[test]
    fn struct_field_types_become_deps() {
        let src = "pub struct Report { pub events: Vec<Event>, n: usize }\n";
        let items = parse(src);
        assert!(items[0].dep_names.contains(&"Event".to_string()));
    }

    #[test]
    fn items_nested_in_fn_bodies_are_found() {
        let src = "fn outer() {\n    static CACHE: u8 = 0;\n    let x = CACHE;\n}\n";
        let items = parse(src);
        assert_eq!(named(&items, ItemKind::Static), [("CACHE".to_string(), Visibility::Private)]);
    }

    #[test]
    fn expression_code_is_not_misparsed_as_items() {
        let src = "fn f(v: &[u8]) -> usize {\n    let a = v[0];\n    let use_it = a as usize;\n    use_it\n}\n";
        let items = parse(src);
        assert_eq!(items.len(), 1, "only the fn itself: {items:?}");
    }

    #[test]
    fn raw_identifiers_are_stripped() {
        let src = "pub fn r#match() {}\n";
        assert_eq!(named(&parse(src), ItemKind::Fn), [("match".to_string(), Visibility::Public)]);
    }
}
