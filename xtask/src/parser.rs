//! A recursive-descent item/expression parser for the subset of Rust
//! this workspace uses.
//!
//! Design goals, in priority order:
//!
//! 1. **Never panic, always terminate** — the parser runs on every
//!    file in the tree *and* on fuzz soup; every loop provably
//!    consumes tokens and every failure path recovers at the next
//!    statement/item boundary (counted in [`File::gaps`]).
//! 2. **Exact scopes** — `#[cfg(test)]`-ness (including
//!    `cfg(all(test, not(loom)))` and `cfg_attr`), `unsafe` blocks,
//!    use-trees and function bodies are represented faithfully, which
//!    is what lets the passes stop being text heuristics.
//! 3. **Prune aggressively** — types, generics and patterns are
//!    *consumed* precisely (angle-depth aware) but only surface the
//!    facts the passes use (bound names, body start).
//!
//! Macro invocations are handled with a "soup" sub-parse: the token
//! tree is captured and re-parsed for any expression-shaped content,
//! so `assert_eq!(x.lock().y, …)` still yields the method calls the
//! lock-order pass needs.

use crate::ast::{Block, Expr, File, Item, Stmt};
use crate::lexer::{Lexed, Token, TokenKind};

/// Parses a lexed file. Infallible by construction — syntax the
/// grammar does not cover is skipped and counted in [`File::gaps`].
pub fn parse(lexed: &Lexed) -> File {
    let mut p = Parser {
        t: &lexed.tokens,
        i: 0,
        gaps: 0,
        gap_lines: Vec::new(),
        test_spans: Vec::new(),
        depth: 0,
    };
    let items = p.items_until(None);
    File { items, gaps: p.gaps, gap_lines: p.gap_lines, test_spans: p.test_spans }
}

/// Convenience: lex + parse in one step.
pub fn parse_source(src: &str) -> File {
    parse(&crate::lexer::lex(src))
}

struct Parser<'a> {
    t: &'a [Token],
    i: usize,
    gaps: usize,
    gap_lines: Vec<usize>,
    /// Token ranges of test-only items, see [`File::test_spans`].
    test_spans: Vec<(usize, usize)>,
    /// Brace-nesting depth (blocks and item groups). Expressions carry
    /// their own `nest` budget, but every statement resets it to zero,
    /// so without this counter `{{{…` recurses once per brace.
    depth: usize,
}

/// Blocks nested deeper than this are skipped opaquely (recorded as a
/// gap) so that pathological input terminates instead of overflowing
/// the stack. Real code in this workspace nests fewer than 20 deep.
const MAX_BLOCK_DEPTH: usize = 64;

/// Item-start keywords, used to dispatch statements to [`Parser::item`].
const ITEM_KEYWORDS: &[&str] = &[
    "use",
    "mod",
    "fn",
    "struct",
    "enum",
    "union",
    "impl",
    "trait",
    "const",
    "static",
    "type",
    "extern",
    "macro_rules",
    "pub",
];

impl<'a> Parser<'a> {
    // ---- token cursor ----------------------------------------------

    fn peek(&self) -> Option<&'a Token> {
        self.t.get(self.i)
    }

    fn peek_at(&self, k: usize) -> Option<&'a Token> {
        self.t.get(self.i + k)
    }

    fn line(&self) -> usize {
        self.peek().map_or_else(|| self.t.last().map_or(1, |t| t.line), |t| t.line)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let tok = self.t.get(self.i);
        if tok.is_some() {
            self.i += 1;
        }
        tok
    }

    fn at_punct(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.kind == TokenKind::Ident && t.text == s)
    }

    fn ident_at(&self, k: usize) -> Option<&'a str> {
        self.peek_at(k).filter(|t| t.kind == TokenKind::Ident).map(|t| t.text.as_str())
    }

    fn punct_at(&self, k: usize) -> Option<&'a str> {
        self.peek_at(k).filter(|t| t.kind == TokenKind::Punct).map(|t| t.text.as_str())
    }

    fn eat_punct(&mut self, s: &str) -> bool {
        if self.at_punct(s) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    /// Skips a balanced delimiter run starting at the current `(`,
    /// `[` or `{`. Returns the token range skipped (exclusive of the
    /// delimiters). Tolerates EOF.
    fn skip_balanced(&mut self) -> (usize, usize) {
        let mut depth = 0usize;
        let start = self.i + 1;
        while let Some(tok) = self.peek() {
            if tok.kind == TokenKind::Punct {
                match tok.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            let end = self.i;
                            self.i += 1;
                            return (start, end);
                        }
                    }
                    _ => {}
                }
            }
            self.i += 1;
        }
        (start, self.i)
    }

    /// Error recovery: skip to just past the next `;` at depth 0, or
    /// stop before a `}` that would close the enclosing block. Always
    /// consumes at least one token (unless at EOF or a closer).
    fn recover(&mut self) {
        self.gaps += 1;
        if let Some(tok) = self.peek() {
            self.gap_lines.push(tok.line);
        }
        let mut depth = 0usize;
        let mut consumed = false;
        while let Some(tok) = self.peek() {
            if tok.kind == TokenKind::Punct {
                match tok.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            if !consumed {
                                self.i += 1; // stray closer: consume it
                            }
                            return;
                        }
                        depth -= 1;
                    }
                    ";" if depth == 0 => {
                        self.i += 1;
                        return;
                    }
                    _ => {}
                }
            }
            self.i += 1;
            consumed = true;
        }
    }

    // ---- attributes -------------------------------------------------

    /// Consumes `#[…]` / `#![…]` runs; returns whether any attribute
    /// marks the item test-only.
    fn attrs(&mut self) -> bool {
        let mut cfg_test = false;
        while self.at_punct("#") {
            self.i += 1;
            self.eat_punct("!");
            if self.at_punct("[") {
                let (lo, hi) = self.skip_balanced();
                if attr_is_test(&self.t[lo.min(self.t.len())..hi.min(self.t.len())]) {
                    cfg_test = true;
                }
            }
        }
        cfg_test
    }

    // ---- items ------------------------------------------------------

    /// Parses a braced item group (`mod m { … }`, `impl … { … }`); the
    /// cursor must be at the opening brace. Depth-capped like
    /// [`Parser::block`] so `mod m { mod m { …` terminates.
    fn braced_items(&mut self) -> Vec<Item> {
        if self.depth >= MAX_BLOCK_DEPTH {
            self.gaps += 1;
            self.gap_lines.push(self.line());
            self.skip_balanced();
            return Vec::new();
        }
        self.depth += 1;
        self.i += 1;
        let items = self.items_until(Some(()));
        self.depth -= 1;
        items
    }

    /// Parses items until EOF (`closer: None`) or the closing `}` of
    /// an item group (`closer: Some(())` — the brace is consumed).
    fn items_until(&mut self, closer: Option<()>) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            if self.peek().is_none() {
                return items;
            }
            if closer.is_some() && self.at_punct("}") {
                self.i += 1;
                return items;
            }
            let before = self.i;
            match self.item() {
                Some(item) => items.push(item),
                None => {
                    self.recover();
                    if self.i == before {
                        // No progress possible (EOF or stray closer
                        // when parsing at top level): drop the token.
                        if self.bump().is_none() {
                            return items;
                        }
                    }
                }
            }
        }
    }

    fn item(&mut self) -> Option<Item> {
        let start = self.i;
        let cfg_test = self.attrs();
        let item = self.item_after_attrs(start, cfg_test);
        if cfg_test {
            self.test_spans.push((start, self.i));
        }
        item
    }

    /// [`Parser::item`] past its attributes; `start` is the token the
    /// attributes began at.
    fn item_after_attrs(&mut self, start: usize, cfg_test: bool) -> Option<Item> {
        let line = self.line();
        if self.peek().is_none() && self.i > start {
            // File-trailing (inner) attributes: an item-less but valid
            // tail, e.g. a file of nothing but `#![deny(unsafe_code)]`.
            return Some(Item::Opaque { cfg_test, line });
        }
        // Visibility: `pub`, `pub(crate)`, `pub(in path)`.
        if self.eat_ident("pub") && self.at_punct("(") {
            self.skip_balanced();
        }
        let mut is_unsafe = false;
        // Qualifier soup: `const fn`, `unsafe fn`, `extern "C" fn`, …
        loop {
            if self.at_ident("unsafe") {
                is_unsafe = true;
                self.i += 1;
            } else if self.at_ident("const")
                && matches!(self.ident_at(1), Some("fn") | Some("unsafe") | Some("extern"))
            {
                self.i += 1;
            } else if self.at_ident("extern")
                && self.peek_at(1).is_some_and(|t| t.kind == TokenKind::Str)
                && self.ident_at(2) == Some("fn")
            {
                self.i += 2;
            } else {
                break;
            }
        }
        let kw = self.peek()?;
        if kw.kind != TokenKind::Ident {
            return None;
        }
        match kw.text.as_str() {
            "use" => {
                self.i += 1;
                let mut paths = Vec::new();
                self.use_tree(String::new(), &mut paths, 0);
                self.eat_punct(";");
                Some(Item::Use { paths, line })
            }
            "mod" => {
                self.i += 1;
                let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
                if self.eat_punct(";") {
                    Some(Item::Mod { name, items: None, cfg_test, line })
                } else if self.at_punct("{") {
                    let items = self.braced_items();
                    Some(Item::Mod { name, items: Some(items), cfg_test, line })
                } else {
                    None
                }
            }
            "fn" => {
                self.i += 1;
                let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
                match self.skip_signature_to_body() {
                    SigEnd::Body => {
                        let body = self.block()?;
                        Some(Item::Fn { name, body: Some(body), cfg_test, is_unsafe, line })
                    }
                    SigEnd::Semi => Some(Item::Fn { name, body: None, cfg_test, is_unsafe, line }),
                    SigEnd::Eof => None,
                }
            }
            "impl" | "trait" => {
                self.i += 1;
                match self.skip_signature_to_body() {
                    SigEnd::Body => {
                        // Re-enter at the `{` we stopped on.
                        let items = self.braced_items();
                        Some(Item::ItemGroup { items, cfg_test, line })
                    }
                    _ => Some(Item::Opaque { cfg_test, line }),
                }
            }
            "struct" | "enum" | "union" => {
                self.i += 1;
                self.bump(); // name
                match self.skip_signature_to_body() {
                    SigEnd::Body => {
                        self.i += 1;
                        // Consume the body as a balanced run; struct
                        // bodies hold no analyzable expressions.
                        let mut depth = 1usize;
                        while depth > 0 {
                            match self.bump() {
                                Some(t) if t.kind == TokenKind::Punct => match t.text.as_str() {
                                    "{" | "(" | "[" => depth += 1,
                                    "}" | ")" | "]" => depth -= 1,
                                    _ => {}
                                },
                                Some(_) => {}
                                None => break,
                            }
                        }
                        Some(Item::Opaque { cfg_test, line })
                    }
                    _ => Some(Item::Opaque { cfg_test, line }),
                }
            }
            "const" | "static" => {
                self.i += 1;
                self.eat_ident("mut");
                let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
                // Skip `: Type` to the top-level `=` (angle-aware).
                let mut angle = 0usize;
                let mut depth = 0usize;
                loop {
                    match self.peek() {
                        None => return Some(Item::ConstLike { name, init: None, cfg_test, line }),
                        Some(t) if t.kind == TokenKind::Punct => match t.text.as_str() {
                            "<" => {
                                angle += 1;
                                self.i += 1;
                            }
                            ">" => {
                                angle = angle.saturating_sub(1);
                                self.i += 1;
                            }
                            "(" | "[" | "{" => {
                                depth += 1;
                                self.i += 1;
                            }
                            ")" | "]" | "}" => {
                                depth = depth.saturating_sub(1);
                                self.i += 1;
                            }
                            "=" if angle == 0 && depth == 0 => {
                                self.i += 1;
                                break;
                            }
                            ";" if angle == 0 && depth == 0 => {
                                self.i += 1;
                                return Some(Item::ConstLike { name, init: None, cfg_test, line });
                            }
                            _ => self.i += 1,
                        },
                        Some(_) => self.i += 1,
                    }
                }
                let init = self.expr(false).ok();
                if init.is_none() {
                    self.recover();
                }
                self.eat_punct(";");
                Some(Item::ConstLike { name, init, cfg_test, line })
            }
            "type" => {
                while let Some(t) = self.peek() {
                    let done = t.kind == TokenKind::Punct && t.text == ";";
                    self.i += 1;
                    if done {
                        break;
                    }
                }
                Some(Item::Opaque { cfg_test, line })
            }
            "extern" => {
                self.i += 1;
                if self.eat_ident("crate") {
                    while let Some(t) = self.bump() {
                        if t.kind == TokenKind::Punct && t.text == ";" {
                            break;
                        }
                    }
                    return Some(Item::Opaque { cfg_test, line });
                }
                if self.peek().is_some_and(|t| t.kind == TokenKind::Str) {
                    self.i += 1;
                }
                if self.at_punct("{") {
                    self.skip_balanced();
                    return Some(Item::Opaque { cfg_test, line });
                }
                None
            }
            "macro_rules" => {
                self.i += 1;
                self.eat_punct("!");
                self.bump(); // name
                if self.at_punct("{") || self.at_punct("(") || self.at_punct("[") {
                    self.skip_balanced();
                    self.eat_punct(";");
                }
                Some(Item::Opaque { cfg_test, line })
            }
            // Top-level macro invocation (`thread_local! { … }`).
            _ if self.punct_at(1) == Some("!") => {
                self.i += 2;
                if self.at_punct("{") || self.at_punct("(") || self.at_punct("[") {
                    self.skip_balanced();
                    self.eat_punct(";");
                    Some(Item::Opaque { cfg_test, line })
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Expands a use-tree into full paths. `depth` bounds recursion on
    /// adversarial input.
    fn use_tree(&mut self, prefix: String, out: &mut Vec<String>, depth: usize) {
        if depth > 32 {
            return;
        }
        let mut path = prefix;
        loop {
            if self.at_punct("{") {
                self.i += 1;
                loop {
                    if self.at_punct("}") || self.peek().is_none() {
                        self.i = (self.i + 1).min(self.t.len());
                        return;
                    }
                    self.use_tree(path.clone(), out, depth + 1);
                    if !self.eat_punct(",") {
                        if self.at_punct("}") || self.peek().is_none() {
                            self.i = (self.i + 1).min(self.t.len());
                        }
                        return;
                    }
                }
            }
            if self.at_punct("*") {
                self.i += 1;
                out.push(if path.is_empty() { "*".into() } else { format!("{path}::*") });
                return;
            }
            match self.peek() {
                Some(t) if t.kind == TokenKind::Ident => {
                    let seg = t.text.clone();
                    self.i += 1;
                    if seg == "as" {
                        self.bump(); // alias name
                        out.push(path);
                        return;
                    }
                    if seg == "self" && !path.is_empty() {
                        // leaf `self`: the prefix itself
                    } else if path.is_empty() {
                        path = seg;
                    } else {
                        path = format!("{path}::{seg}");
                    }
                    if !self.eat_punct("::") {
                        if self.eat_ident("as") {
                            self.bump();
                        }
                        out.push(path);
                        return;
                    }
                }
                _ => {
                    if !path.is_empty() {
                        out.push(path);
                    }
                    return;
                }
            }
        }
    }

    /// Skips generics/params/return-type/where-clause tokens until the
    /// body `{` (left *unconsumed* for groups, consumed context varies
    /// — see callers) or a `;`.
    fn skip_signature_to_body(&mut self) -> SigEnd {
        let mut angle = 0usize;
        let mut depth = 0usize;
        while let Some(tok) = self.peek() {
            if tok.kind == TokenKind::Punct {
                match tok.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle = angle.saturating_sub(1),
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    "{" if angle == 0 && depth == 0 => return SigEnd::Body,
                    ";" if angle == 0 && depth == 0 => {
                        self.i += 1;
                        return SigEnd::Semi;
                    }
                    _ => {}
                }
            }
            self.i += 1;
        }
        SigEnd::Eof
    }

    // ---- statements & blocks ---------------------------------------

    /// Parses `{ … }`; the cursor must be at the opening brace.
    fn block(&mut self) -> Option<Block> {
        if !self.at_punct("{") {
            return None;
        }
        if self.depth >= MAX_BLOCK_DEPTH {
            let line = self.line();
            self.gaps += 1;
            self.gap_lines.push(line);
            self.skip_balanced();
            return Some(Block { stmts: Vec::new(), line });
        }
        self.depth += 1;
        let block = self.block_body();
        self.depth -= 1;
        Some(block)
    }

    /// The body of [`Parser::block`], after the depth guard; the
    /// cursor is still at the opening brace.
    fn block_body(&mut self) -> Block {
        let line = self.line();
        self.i += 1;
        let mut stmts = Vec::new();
        loop {
            if self.at_punct("}") {
                self.i += 1;
                return Block { stmts, line };
            }
            if self.peek().is_none() {
                return Block { stmts, line };
            }
            let before = self.i;
            match self.stmt() {
                Some(stmt) => stmts.push(stmt),
                None => {
                    self.recover();
                    if self.i == before && self.bump().is_none() {
                        return Block { stmts, line };
                    }
                }
            }
        }
    }

    fn stmt(&mut self) -> Option<Stmt> {
        if self.eat_punct(";") {
            return self.stmt();
        }
        // Statement attributes: remember test-ness for items.
        let saved = self.i;
        let cfg_test = self.attrs();
        let line = self.line();
        if self.at_ident("let") {
            self.i += 1;
            let names = self.pattern_names(&["=", ";"], Some("else"));
            let init = if self.eat_punct("=") {
                match self.expr(false) {
                    Ok(e) => Some(e),
                    Err(()) => {
                        self.recover();
                        None
                    }
                }
            } else {
                None
            };
            let else_block = if self.eat_ident("else") { self.block() } else { None };
            self.eat_punct(";");
            return Some(Stmt::Let { names, init, else_block, line });
        }
        // Items in statement position.
        let is_item_kw = self.peek().is_some_and(|t| {
            t.kind == TokenKind::Ident
                && ITEM_KEYWORDS.contains(&t.text.as_str())
                // `const` maybe a const-block expr? (not in MSRV) — item.
                // `unsafe` is an expr unless followed by fn/impl/trait.
                && !(t.text == "extern" && self.punct_at(1) != Some("\"") )
        });
        let unsafe_item = self.at_ident("unsafe")
            && matches!(self.ident_at(1), Some("fn") | Some("impl") | Some("trait"));
        if is_item_kw || unsafe_item {
            // `cfg_test` from statement attrs applies to the item; the
            // item() call re-reads attrs (there are none left), so
            // patch the flag in afterwards.
            let item = self.item();
            if cfg_test {
                self.test_spans.push((saved, self.i));
            }
            return Some(Stmt::Item(patch_cfg(item?, cfg_test)));
        }
        if self.i != saved && self.peek().is_none() {
            return None;
        }
        match self.expr(false) {
            Ok(e) => {
                self.eat_punct(";");
                Some(Stmt::Expr(e))
            }
            Err(()) => None,
        }
    }

    /// Consumes pattern tokens until one of `stops` (bare punct) or
    /// the `stop_ident` appears at delimiter depth 0; collects bound
    /// identifier names. The stop token is left unconsumed.
    fn pattern_names(&mut self, stops: &[&str], stop_ident: Option<&str>) -> Vec<String> {
        let mut names = Vec::new();
        let mut depth = 0usize;
        let mut angle = 0usize;
        while let Some(tok) = self.peek() {
            match tok.kind {
                TokenKind::Punct => match tok.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            return names; // enclosing closer: stop
                        }
                        depth -= 1;
                    }
                    "<" => angle += 1,
                    ">" => angle = angle.saturating_sub(1),
                    s if depth == 0 && angle == 0 && stops.contains(&s) => return names,
                    _ => {}
                },
                TokenKind::Ident => {
                    let t = tok.text.as_str();
                    if depth == 0 && angle == 0 && stop_ident == Some(t) {
                        return names;
                    }
                    if !matches!(t, "mut" | "ref" | "box" | "_" | "dyn" | "as" | "in" | "if") {
                        // Path segments (`Some`, `Foo::Bar`) land here
                        // too — harmless for guard/endpoint tracking.
                        names.push(t.to_string());
                    }
                }
                _ => {}
            }
            self.i += 1;
        }
        names
    }

    // ---- expressions ------------------------------------------------

    /// Parses one expression. `no_struct` suppresses struct-literal
    /// interpretation of `Path { … }` (condition/scrutinee position).
    fn expr(&mut self, no_struct: bool) -> Result<Expr, ()> {
        self.expr_bounded(no_struct, 0)
    }

    fn expr_bounded(&mut self, no_struct: bool, nest: usize) -> Result<Expr, ()> {
        if nest > 96 {
            // Pathological nesting (fuzz): consume one token, bail.
            self.bump();
            return Err(());
        }
        let mut lhs = self.prefix_expr(no_struct, nest)?;
        // Binary operator fold (flat; precedence is irrelevant to the
        // analyses, association is left).
        while let Some(op) = self.peek() {
            if op.kind != TokenKind::Punct {
                break;
            }
            let text = op.text.as_str();
            let is_binop = matches!(
                text,
                "+" | "-"
                    | "*"
                    | "/"
                    | "%"
                    | "^"
                    | "&"
                    | "|"
                    | "<"
                    | ">"
                    | "=="
                    | "!="
                    | "<="
                    | ">="
                    | "&&"
                    | "||"
                    | "="
                    | "+="
                    | "-="
                    | "*="
                    | "/="
                    | "%="
                    | "^="
                    | "&="
                    | "|="
            );
            let is_range = matches!(text, ".." | "..=");
            // Shifts: the lexer never fuses `<`/`>` (that would break
            // generics), so `<<`, `>>`, `<<=`, `>>=` arrive as two
            // tokens. After a complete operand they are unambiguous.
            let shift = match (text, self.peek_at(1).map(|t| t.text.as_str())) {
                ("<", Some("<")) => Some("<<"),
                (">", Some(">")) => Some(">>"),
                ("<", Some("<=")) => Some("<<="),
                (">", Some(">=")) => Some(">>="),
                _ => None,
            };
            if !is_binop && !is_range && shift.is_none() {
                break;
            }
            let line = op.line;
            let op_text = match shift {
                Some(s) => {
                    self.i += 1;
                    s.to_string()
                }
                None => op.text.clone(),
            };
            self.i += 1;
            if is_range && !self.at_expr_start() {
                // Open range `x..` — no rhs.
                lhs = Expr::Binary {
                    op: op_text,
                    lhs: Box::new(lhs),
                    rhs: Box::new(Expr::Lit { text: String::new(), line }),
                    line,
                };
                continue;
            }
            let rhs = self.prefix_expr(no_struct, nest + 1)?;
            lhs = Expr::Binary { op: op_text, lhs: Box::new(lhs), rhs: Box::new(rhs), line };
        }
        Ok(lhs)
    }

    fn at_expr_start(&self) -> bool {
        match self.peek() {
            None => false,
            Some(t) => match t.kind {
                TokenKind::Ident => !matches!(t.text.as_str(), "else" | "as" | "in"),
                TokenKind::Num | TokenKind::Str | TokenKind::Char | TokenKind::Lifetime => true,
                TokenKind::Punct => matches!(
                    t.text.as_str(),
                    "(" | "[" | "{" | "&" | "&&" | "*" | "!" | "-" | "|" | "||" | ".." | "..="
                ),
            },
        }
    }

    /// Prefix operators + primary + postfix chain.
    fn prefix_expr(&mut self, no_struct: bool, nest: usize) -> Result<Expr, ()> {
        if nest > 96 {
            self.bump();
            return Err(());
        }
        let line = self.line();
        if let Some(t) = self.peek() {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "&" | "&&" | "*" | "!" | "-" => {
                        self.i += 1;
                        self.eat_ident("mut");
                        let inner = self.prefix_expr(no_struct, nest + 1)?;
                        return Ok(Expr::Unary { expr: Box::new(inner), line });
                    }
                    ".." | "..=" => {
                        self.i += 1;
                        if self.at_expr_start() {
                            let inner = self.prefix_expr(no_struct, nest + 1)?;
                            return Ok(Expr::Unary { expr: Box::new(inner), line });
                        }
                        return Ok(Expr::Lit { text: "..".into(), line });
                    }
                    _ => {}
                }
            }
        }
        let primary = self.primary(no_struct, nest)?;
        self.postfix(primary, no_struct, nest)
    }

    fn postfix(&mut self, mut expr: Expr, _no_struct: bool, nest: usize) -> Result<Expr, ()> {
        loop {
            let Some(tok) = self.peek() else { return Ok(expr) };
            match (tok.kind, tok.text.as_str()) {
                (TokenKind::Punct, ".") => {
                    let line = tok.line;
                    self.i += 1;
                    let Some(name_tok) = self.bump() else { return Ok(expr) };
                    let name = name_tok.text.clone();
                    // Optional turbofish before the call parens.
                    if self.at_punct("::") && self.punct_at(1) == Some("<") {
                        self.i += 1;
                        self.skip_angles();
                    }
                    if self.at_punct("(") {
                        let args = self.call_args(nest)?;
                        expr = Expr::MethodCall { recv: Box::new(expr), name, args, line };
                    } else {
                        expr = Expr::Field { recv: Box::new(expr), name, line };
                    }
                }
                (TokenKind::Punct, "(") => {
                    let line = tok.line;
                    let args = self.call_args(nest)?;
                    expr = Expr::Call { callee: Box::new(expr), args, line };
                }
                (TokenKind::Punct, "[") => {
                    let line = tok.line;
                    self.i += 1;
                    let index = self
                        .expr_bounded(false, nest + 1)
                        .unwrap_or(Expr::Lit { text: String::new(), line });
                    // Tolerate `[a; n]` array-ish forms in index spot.
                    while !self.at_punct("]") && self.peek().is_some() {
                        self.i += 1;
                        if self.at_punct("]") {
                            break;
                        }
                        if self.expr_bounded(false, nest + 1).is_err() {
                            break;
                        }
                    }
                    self.eat_punct("]");
                    expr = Expr::Index { recv: Box::new(expr), index: Box::new(index), line };
                }
                (TokenKind::Punct, "?") => {
                    let line = tok.line;
                    self.i += 1;
                    expr = Expr::Try { expr: Box::new(expr), line };
                }
                (TokenKind::Ident, "as") => {
                    let line = tok.line;
                    self.i += 1;
                    let ty = self.skip_type_tokens();
                    expr = Expr::Cast { expr: Box::new(expr), ty, line };
                }
                _ => return Ok(expr),
            }
        }
    }

    /// Parses `( … )` call arguments; cursor at the `(`.
    fn call_args(&mut self, nest: usize) -> Result<Vec<Expr>, ()> {
        self.i += 1; // (
        let mut args = Vec::new();
        loop {
            if self.eat_punct(")") || self.peek().is_none() {
                return Ok(args);
            }
            match self.expr_bounded(false, nest + 1) {
                Ok(e) => args.push(e),
                Err(()) => {
                    // Skip to `,` or `)` at depth 0.
                    let mut depth = 0usize;
                    while let Some(t) = self.peek() {
                        if t.kind == TokenKind::Punct {
                            match t.text.as_str() {
                                "(" | "[" | "{" => depth += 1,
                                ")" if depth == 0 => break,
                                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                                "," if depth == 0 => break,
                                _ => {}
                            }
                        }
                        self.i += 1;
                    }
                }
            }
            if !self.eat_punct(",") {
                self.eat_punct(")");
                return Ok(args);
            }
        }
    }

    fn skip_angles(&mut self) {
        // Cursor at `<`.
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            self.i += 1;
                            return;
                        }
                    }
                    "(" | "[" => {
                        self.skip_balanced();
                        continue;
                    }
                    ";" | "{" | "}" => return, // not a generic list after all
                    _ => {}
                }
            }
            self.i += 1;
        }
    }

    /// After `as` (or a closure's `->`): consumes a type-looking token
    /// run, returning its compact text (`u64`, `f64`, `*const u8`, …).
    fn skip_type_tokens(&mut self) -> String {
        let mut ty = String::new();
        loop {
            match self.peek() {
                Some(t) if t.kind == TokenKind::Ident => {
                    if matches!(t.text.as_str(), "dyn" | "mut" | "const") {
                        ty.push_str(&t.text);
                        ty.push(' ');
                        self.i += 1;
                        continue;
                    }
                    ty.push_str(&t.text);
                    self.i += 1;
                    if self.at_punct("::") {
                        ty.push_str("::");
                        self.i += 1;
                        continue;
                    }
                    if self.at_punct("<") {
                        self.skip_angles();
                        ty.push_str("<…>");
                    }
                    return ty;
                }
                Some(t)
                    if t.kind == TokenKind::Punct && matches!(t.text.as_str(), "&" | "*" | "(") =>
                {
                    if t.text == "(" {
                        self.skip_balanced();
                        ty.push_str("(…)");
                        return ty;
                    }
                    ty.push_str(&t.text);
                    self.i += 1;
                }
                Some(t) if t.kind == TokenKind::Lifetime => self.i += 1,
                _ => return ty,
            }
        }
    }

    fn primary(&mut self, no_struct: bool, nest: usize) -> Result<Expr, ()> {
        let Some(tok) = self.peek() else { return Err(()) };
        let line = tok.line;
        match tok.kind {
            TokenKind::Num | TokenKind::Str | TokenKind::Char => {
                let text = tok.text.clone();
                self.i += 1;
                Ok(Expr::Lit { text, line })
            }
            TokenKind::Lifetime => {
                // Loop label: `'outer: loop { … }`.
                self.i += 1;
                self.eat_punct(":");
                self.primary(no_struct, nest)
            }
            TokenKind::Punct => match tok.text.as_str() {
                "(" => {
                    self.i += 1;
                    let mut items = Vec::new();
                    loop {
                        if self.eat_punct(")") || self.peek().is_none() {
                            break;
                        }
                        match self.expr_bounded(false, nest + 1) {
                            Ok(e) => items.push(e),
                            Err(()) => {
                                self.recover_inside_delims();
                                break;
                            }
                        }
                        if !self.eat_punct(",") {
                            self.eat_punct(")");
                            break;
                        }
                    }
                    if items.len() == 1 {
                        Ok(items.pop().unwrap_or(Expr::Lit { text: String::new(), line }))
                    } else {
                        Ok(Expr::Tuple { items, line })
                    }
                }
                "[" => {
                    self.i += 1;
                    let mut items = Vec::new();
                    loop {
                        if self.eat_punct("]") || self.peek().is_none() {
                            break;
                        }
                        match self.expr_bounded(false, nest + 1) {
                            Ok(e) => items.push(e),
                            Err(()) => {
                                self.recover_inside_delims();
                                break;
                            }
                        }
                        if !self.eat_punct(",") && !self.eat_punct(";") {
                            self.eat_punct("]");
                            break;
                        }
                    }
                    Ok(Expr::Array { items, line })
                }
                "{" => self.block().map(Expr::Block).ok_or(()),
                "|" | "||" => {
                    // Closure. For `|`, skip the parameter list to the
                    // closing `|` at delimiter depth 0.
                    let double = tok.text == "||";
                    self.i += 1;
                    if !double {
                        let mut depth = 0usize;
                        while let Some(t) = self.peek() {
                            if t.kind == TokenKind::Punct {
                                match t.text.as_str() {
                                    "(" | "[" | "{" => depth += 1,
                                    ")" | "]" | "}" => depth = depth.saturating_sub(1),
                                    "|" if depth == 0 => {
                                        self.i += 1;
                                        break;
                                    }
                                    _ => {}
                                }
                            }
                            self.i += 1;
                        }
                    }
                    // Optional `-> Type` before a brace body.
                    if self.eat_punct("->") {
                        self.skip_type_tokens();
                    }
                    let body = self.expr_bounded(false, nest + 1)?;
                    Ok(Expr::Closure { body: Box::new(body), line })
                }
                _ => Err(()),
            },
            TokenKind::Ident => {
                let kw = tok.text.as_str();
                match kw {
                    "if" => self.if_expr(nest),
                    "match" => self.match_expr(nest),
                    "while" => {
                        self.i += 1;
                        if self.eat_ident("let") {
                            self.pattern_names(&["="], None);
                            self.eat_punct("=");
                        }
                        let cond = self.expr_cond(nest)?;
                        let body = self.block().ok_or(())?;
                        Ok(Expr::While { cond: Box::new(cond), body, line })
                    }
                    "loop" => {
                        self.i += 1;
                        let body = self.block().ok_or(())?;
                        Ok(Expr::Loop { body, line })
                    }
                    "for" => {
                        self.i += 1;
                        self.pattern_names(&[], Some("in"));
                        if !self.eat_ident("in") {
                            return Err(());
                        }
                        let iter = self.expr_cond(nest)?;
                        let body = self.block().ok_or(())?;
                        Ok(Expr::For { iter: Box::new(iter), body, line })
                    }
                    "unsafe" => {
                        self.i += 1;
                        let block = self.block().ok_or(())?;
                        Ok(Expr::Unsafe { block, line })
                    }
                    // Inline const expression: `const { … }`.
                    "const" if self.peek_at(1).is_some_and(|t| t.text == "{") => {
                        self.i += 1;
                        let block = self.block().ok_or(())?;
                        Ok(Expr::Block(block))
                    }
                    "move" => {
                        self.i += 1;
                        // `move |…|` / `move ||`.
                        self.primary(no_struct, nest)
                    }
                    "return" | "break" | "continue" => {
                        self.i += 1;
                        if self.peek().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                            self.i += 1; // `break 'label`
                        }
                        let value = if kw != "continue" && self.at_expr_start() {
                            Some(Box::new(self.expr_bounded(no_struct, nest + 1)?))
                        } else {
                            None
                        };
                        Ok(Expr::Jump { value, line })
                    }
                    _ => self.path_based(no_struct, nest, line),
                }
            }
        }
    }

    fn recover_inside_delims(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            self.i += 1;
                            return;
                        }
                        depth -= 1;
                    }
                    _ => {}
                }
            }
            self.i += 1;
        }
    }

    /// `if` with optional `if let` and else-chains.
    fn if_expr(&mut self, nest: usize) -> Result<Expr, ()> {
        let line = self.line();
        self.i += 1; // if
        if self.eat_ident("let") {
            self.pattern_names(&["="], None);
            self.eat_punct("=");
        }
        let cond = self.expr_cond(nest)?;
        let then = self.block().ok_or(())?;
        let els = if self.eat_ident("else") {
            if self.at_ident("if") {
                Some(Box::new(self.if_expr(nest + 1)?))
            } else {
                Some(Box::new(Expr::Block(self.block().ok_or(())?)))
            }
        } else {
            None
        };
        Ok(Expr::If { cond: Box::new(cond), then, els, line })
    }

    fn match_expr(&mut self, nest: usize) -> Result<Expr, ()> {
        let line = self.line();
        self.i += 1; // match
        let scrutinee = self.expr_cond(nest)?;
        if !self.at_punct("{") {
            return Err(());
        }
        self.i += 1;
        let mut arms = Vec::new();
        loop {
            if self.eat_punct("}") || self.peek().is_none() {
                break;
            }
            self.attrs();
            self.eat_punct("|");
            self.pattern_names(&["=>"], Some("if"));
            if self.eat_ident("if") {
                // Arm guard: a real expression — analyzed.
                if let Ok(guard) = self.expr_bounded(true, nest + 1) {
                    arms.push(guard);
                }
            }
            if !self.eat_punct("=>") {
                // Malformed arm: recover to the closing brace.
                self.recover_inside_delims();
                break;
            }
            match self.expr_bounded(false, nest + 1) {
                Ok(body) => arms.push(body),
                Err(()) => {
                    self.recover_inside_delims();
                    break;
                }
            }
            self.eat_punct(",");
        }
        Ok(Expr::Match { scrutinee: Box::new(scrutinee), arms, line })
    }

    /// Condition/scrutinee position: struct literals suppressed.
    fn expr_cond(&mut self, nest: usize) -> Result<Expr, ()> {
        self.expr_bounded(true, nest + 1)
    }

    /// Path-rooted primaries: paths, macro calls, struct literals.
    fn path_based(&mut self, no_struct: bool, nest: usize, line: usize) -> Result<Expr, ()> {
        let mut segs = Vec::new();
        self.eat_punct("::");
        loop {
            match self.peek() {
                Some(t) if t.kind == TokenKind::Ident => {
                    segs.push(t.text.clone());
                    self.i += 1;
                }
                _ => break,
            }
            if self.at_punct("::") {
                match self.punct_at(1) {
                    Some("<") => {
                        self.i += 1;
                        self.skip_angles();
                        if self.at_punct("::") {
                            self.i += 1;
                            continue;
                        }
                        break;
                    }
                    _ => {
                        if self.peek_at(1).is_some_and(|t| t.kind == TokenKind::Ident) {
                            self.i += 1;
                            continue;
                        }
                        break;
                    }
                }
            }
            break;
        }
        if segs.is_empty() {
            return Err(());
        }
        if self.at_punct("!") {
            // Macro invocation.
            self.i += 1;
            if self.at_punct("(") || self.at_punct("[") || self.at_punct("{") {
                let (lo, hi) = self.skip_balanced();
                let inner = &self.t[lo.min(self.t.len())..hi.min(self.t.len())];
                let parts = soup_parse(inner, nest + 1);
                return Ok(Expr::Macro { segs, parts, line });
            }
            return Ok(Expr::Macro { segs, parts: Vec::new(), line });
        }
        if !no_struct && self.at_punct("{") && self.looks_like_struct_lit() {
            self.i += 1;
            let mut fields = Vec::new();
            loop {
                if self.eat_punct("}") || self.peek().is_none() {
                    break;
                }
                if self.eat_punct("..") {
                    // Functional update base.
                    if let Ok(base) = self.expr_bounded(false, nest + 1) {
                        fields.push(base);
                    }
                    self.eat_punct("}");
                    break;
                }
                // `name: expr` or shorthand `name`, optionally behind
                // field attributes (`#[cfg(…)] len: …`).
                self.attrs();
                self.bump();
                if self.eat_punct(":") {
                    match self.expr_bounded(false, nest + 1) {
                        Ok(v) => fields.push(v),
                        Err(()) => {
                            self.recover_inside_delims();
                            break;
                        }
                    }
                }
                if !self.eat_punct(",") {
                    self.eat_punct("}");
                    break;
                }
            }
            return Ok(Expr::StructLit { path: segs, fields, line });
        }
        Ok(Expr::Path { segs, line })
    }

    /// Heuristic: `Path {` begins a struct literal iff the brace body
    /// looks like `ident:`, `ident,`, `ident}`, `..`, or is empty —
    /// otherwise it is a trailing block (`match x` arms never reach
    /// here; `no_struct` covers conditions).
    fn looks_like_struct_lit(&self) -> bool {
        match (self.peek_at(1), self.peek_at(2)) {
            (Some(a), _) if a.kind == TokenKind::Punct && a.text == "}" => true,
            (Some(a), _) if a.kind == TokenKind::Punct && a.text == ".." => true,
            // A field attribute: `S { #[cfg(…)] len: …, … }`.
            (Some(a), _) if a.kind == TokenKind::Punct && a.text == "#" => true,
            (Some(a), Some(b)) if a.kind == TokenKind::Ident && b.kind == TokenKind::Punct => {
                matches!(b.text.as_str(), ":" | "," | "}")
            }
            _ => false,
        }
    }
}

enum SigEnd {
    Body,
    Semi,
    Eof,
}

/// Re-parses a macro token tree for expression-shaped content: parse
/// an expression at each position, skip one token on failure.
fn soup_parse(tokens: &[Token], nest: usize) -> Vec<Expr> {
    if nest > 48 {
        return Vec::new();
    }
    let mut parts = Vec::new();
    // Seeding `depth` from `nest` makes the two caps compose: blocks
    // inside nested macro soups share one bounded budget.
    let mut p = Parser {
        t: tokens,
        i: 0,
        gaps: 0,
        gap_lines: Vec::new(),
        test_spans: Vec::new(),
        depth: nest,
    };
    while p.peek().is_some() {
        let before = p.i;
        if let Ok(e) = p.expr_bounded(false, nest) {
            parts.push(e);
            p.eat_punct(",");
        }
        if p.i == before {
            p.i += 1;
        }
    }
    parts
}

/// Scans attribute tokens for an effective `test` cfg: `#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test, not(loom)))]`, `#[cfg_attr(test,…)]`
/// — but *not* `#[cfg(not(test))]`.
fn attr_is_test(tokens: &[Token]) -> bool {
    let first = tokens.first().filter(|t| t.kind == TokenKind::Ident);
    match first.map(|t| t.text.as_str()) {
        Some("test") => tokens.len() == 1 || tokens.get(1).is_some_and(|t| t.text != "::"),
        Some("cfg") | Some("cfg_attr") => {
            // Walk with a stack of enclosing call idents; `test` counts
            // only when no enclosing call is `not`.
            let mut stack: Vec<String> = Vec::new();
            let mut last_ident: Option<&str> = None;
            for tok in &tokens[1..] {
                match tok.kind {
                    TokenKind::Ident => {
                        if tok.text == "test" && !stack.iter().any(|s| s == "not") {
                            return true;
                        }
                        last_ident = Some(&tok.text);
                    }
                    TokenKind::Punct => match tok.text.as_str() {
                        "(" => {
                            stack.push(last_ident.unwrap_or("").to_string());
                            last_ident = None;
                        }
                        ")" => {
                            stack.pop();
                        }
                        _ => last_ident = None,
                    },
                    _ => last_ident = None,
                }
            }
            false
        }
        _ => false,
    }
}

fn patch_cfg(item: Item, extra_test: bool) -> Item {
    if !extra_test {
        return item;
    }
    match item {
        Item::Mod { name, items, cfg_test: _, line } => {
            Item::Mod { name, items, cfg_test: true, line }
        }
        Item::Fn { name, body, cfg_test: _, is_unsafe, line } => {
            Item::Fn { name, body, cfg_test: true, is_unsafe, line }
        }
        Item::ItemGroup { items, cfg_test: _, line } => {
            Item::ItemGroup { items, cfg_test: true, line }
        }
        Item::ConstLike { name, init, cfg_test: _, line } => {
            Item::ConstLike { name, init, cfg_test: true, line }
        }
        Item::Opaque { cfg_test: _, line } => Item::Opaque { cfg_test: true, line },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{visit_fns, walk_block};

    fn parse_ok(src: &str) -> File {
        let file = parse_source(src);
        assert_eq!(file.gaps, 0, "unexpected parse gaps in:\n{src}");
        file
    }

    fn method_names(src: &str) -> Vec<String> {
        let file = parse_ok(src);
        let mut out = Vec::new();
        let mut path = Vec::new();
        visit_fns(&file.items, false, &mut path, &mut |_, _, body, _| {
            walk_block(body, &mut |e| {
                if let Expr::MethodCall { name, .. } = e {
                    out.push(name.clone());
                }
            });
        });
        out
    }

    #[test]
    fn use_trees_expand_to_full_paths() {
        let file = parse_ok(
            "use std::sync::{Arc, Mutex};\nuse rcm_sync::chan::{unbounded, Receiver as Rx};\nuse std::io::{self, Read};\nuse foo::bar::*;\n",
        );
        let mut paths = Vec::new();
        for item in &file.items {
            if let Item::Use { paths: p, .. } = item {
                paths.extend(p.clone());
            }
        }
        assert_eq!(
            paths,
            [
                "std::sync::Arc",
                "std::sync::Mutex",
                "rcm_sync::chan::unbounded",
                "rcm_sync::chan::Receiver",
                "std::io",
                "std::io::Read",
                "foo::bar::*"
            ]
        );
    }

    #[test]
    fn cfg_test_scopes_are_tracked_anywhere_in_the_file() {
        let src = "\
fn hot() { x.unwrap(); }
#[cfg(test)]
mod tests { fn t() { y.unwrap(); } }
#[cfg(all(test, not(loom)))]
mod tests2 { fn t2() { z.unwrap(); } }
fn hot2() { w.unwrap(); }
#[cfg(not(test))]
fn prod() { v.unwrap(); }
";
        let file = parse_ok(src);
        let mut seen = Vec::new();
        let mut path = Vec::new();
        visit_fns(&file.items, false, &mut path, &mut |_, name, _, in_test| {
            seen.push((name.to_string(), in_test));
        });
        let get = |n: &str| seen.iter().find(|(s, _)| s == n).map(|(_, t)| *t);
        assert_eq!(get("hot"), Some(false));
        assert_eq!(get("t"), Some(true));
        assert_eq!(get("t2"), Some(true));
        assert_eq!(get("hot2"), Some(false), "code *after* a test mod is not test code");
        assert_eq!(get("prod"), Some(false), "cfg(not(test)) is production code");
    }

    #[test]
    fn method_chains_nest_properly() {
        assert_eq!(
            method_names("fn f() { self.shared.state.lock().push(1); }"),
            ["push", "lock"].map(String::from)
        );
        assert_eq!(
            method_names("fn f() { a.b::<u8>(x.c(), y[0].d()); }"),
            ["b", "c", "d"].map(String::from)
        );
    }

    #[test]
    fn macro_bodies_are_soup_parsed() {
        let names = method_names("fn f() { assert_eq!(*m.lock(), x.unwrap()); }");
        assert!(names.contains(&"lock".to_string()), "{names:?}");
        assert!(names.contains(&"unwrap".to_string()), "{names:?}");
    }

    #[test]
    fn unsafe_blocks_and_fns_are_shaped() {
        let file = parse_ok(
            "unsafe fn f() {}\nfn g() { unsafe { p.read() } }\npub const unsafe fn h() {}\n",
        );
        let mut unsafe_fns = 0;
        let mut unsafe_blocks = 0;
        let mut path = Vec::new();
        visit_fns(&file.items, false, &mut path, &mut |_, _, body, _| {
            walk_block(body, &mut |e| {
                if matches!(e, Expr::Unsafe { .. }) {
                    unsafe_blocks += 1;
                }
            });
        });
        for item in &file.items {
            if let Item::Fn { is_unsafe: true, .. } = item {
                unsafe_fns += 1;
            }
        }
        assert_eq!((unsafe_fns, unsafe_blocks), (2, 1));
    }

    #[test]
    fn control_flow_and_struct_literals() {
        let src = "\
fn f(x: u32) -> Foo {
    if x > 1 { return Foo { a: x, b: g() }; }
    let mut total = 0;
    for i in 0..x { total += i; }
    while let Some(v) = it.next() { total += v; }
    match total { 0 => h(), n if n > 2 => i(), _ => j(), }
    'outer: loop { break 'outer; }
    Foo { a: total, ..base }
}
";
        let file = parse_ok(src);
        assert_eq!(file.items.len(), 1);
    }

    #[test]
    fn closures_and_spawn_shapes() {
        let src = "\
fn f() {
    let (tx, rx) = spsc::ring::<Job>(cap.max(1));
    joins.push(rcm_sync::thread::spawn(move || worker_body(shard, rx, out_tx, batch)));
    let h = thread::spawn(|| {});
    let c = |a: u32, b| a + b;
    let e = move || el.run();
}
";
        let file = parse_ok(src);
        let mut spawn_calls = 0;
        let mut path = Vec::new();
        visit_fns(&file.items, false, &mut path, &mut |_, _, body, _| {
            walk_block(body, &mut |e| {
                if let Expr::Call { callee, .. } = e {
                    if let Expr::Path { segs, .. } = callee.as_ref() {
                        if segs.last().is_some_and(|s| s == "spawn") {
                            spawn_calls += 1;
                        }
                    }
                }
            });
        });
        assert_eq!(spawn_calls, 2);
    }

    #[test]
    fn let_bindings_capture_names() {
        let file = parse_ok("fn f() { let (tx, rx) = ring(); let mut g = m.lock(); }");
        let Item::Fn { body: Some(body), .. } = &file.items[0] else { panic!("fn") };
        let mut names = Vec::new();
        for stmt in &body.stmts {
            if let Stmt::Let { names: n, .. } = stmt {
                names.extend(n.clone());
            }
        }
        assert_eq!(names, ["tx", "rx", "g"]);
    }

    #[test]
    fn real_world_shapes_parse_without_gaps() {
        // Idioms lifted from the actual workspace sources.
        let src = r#"
impl<T: Send> SubmitQueue<T> {
    pub fn submit(&self, item: T, waker: &impl Wake) {
        self.inner.queue.lock().push_back(item);
        if self.inner.sleeping.load(Ordering::SeqCst) { waker.wake(); }
    }
}
fn percentiles(h: &[u64]) -> (f64, f64) {
    let total: u64 = h.iter().sum();
    let p = |q: f64| -> f64 { (total as f64) * q / 100.0 };
    (p(50.0), p(99.0))
}
pub fn start(options: &PipelineOptions) -> EvalPipeline {
    let workers = options.workers.max(1);
    let mut rings = Vec::with_capacity(workers);
    for shard in slices.into_shards() {
        let (tx, rx) = spsc::ring::<Job>(options.ring_capacity.max(1));
        rings.push(tx);
    }
    EvalPipeline { rings, next_idx: 0, shed }
}
const FUSED: &[&str] = &["...", "..=", "::"];
static DEFAULT: Option<&'static str> = None;
type Pair = (u64, u64);
trait Drain: Send { fn alerts(&mut self, alerts: Vec<Alert>); fn end(&mut self) {} }
"#;
        parse_ok(src);
    }

    #[test]
    fn gap_counting_fires_on_unsupported_syntax_but_never_panics() {
        let file = parse_source("fn f() { let x = ; } ??? !!");
        assert!(file.gaps > 0);
    }

    #[test]
    fn soup_never_loops_forever() {
        let file = parse_source("macro_rules! m { ($x:expr) => { $x.unwrap() } }");
        assert_eq!(file.gaps, 0);
        let _ = parse_source("m!(=> => =>); n![,,,]; o!{..}");
    }
}
