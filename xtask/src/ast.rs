//! The analyzer's AST: exactly the shapes the passes reason about.
//!
//! This is deliberately *not* a full Rust AST. Items carry their
//! attribute-derived scope facts (`#[cfg(test)]`-ness), `use` items
//! carry their expanded use-tree paths, and expressions keep the
//! nesting structure the analyses need — call/method-call chains,
//! blocks, `unsafe`, indexing, binary operators — while types,
//! patterns and generics are resolved down to the few facts that
//! matter (bound names, cfg flags) and otherwise skipped.

use crate::lexer::Token;

/// A parsed source file.
#[derive(Debug, Default)]
pub struct File {
    pub items: Vec<Item>,
    /// Number of spans the parser had to skip over because they fell
    /// outside the supported grammar. Non-zero gaps mean the analyses
    /// were incomplete for this file — `analyze` reports them.
    pub gaps: usize,
    /// Source line where each skipped span began, for diagnostics.
    pub gap_lines: Vec<usize>,
    /// Half-open token index ranges (into [`crate::lexer::Lexed::tokens`])
    /// of the test-only items, attributes included. Nested test items
    /// lie inside their parent's range.
    pub test_spans: Vec<(usize, usize)>,
}

/// One item. `cfg_test` is true when any attribute on the item (or an
/// enclosing item — the parser propagates) makes it test-only:
/// `#[cfg(test)]`, `#[cfg(all(test, not(loom)))]`, `#[test]`, …
#[derive(Debug)]
pub enum Item {
    /// `use` declaration, expanded to one full path per leaf of the
    /// use-tree (globs end in `::*`, aliases keep the source path).
    Use { paths: Vec<String>, line: usize },
    /// `mod name { … }` (inline) or `mod name;` (file — no body here).
    Mod { name: String, items: Option<Vec<Item>>, cfg_test: bool, line: usize },
    /// A function with its body (absent for trait method declarations).
    Fn { name: String, body: Option<Block>, cfg_test: bool, is_unsafe: bool, line: usize },
    /// `impl … { items }` / `trait … { items }` — only the associated
    /// items matter to the passes.
    ItemGroup { items: Vec<Item>, cfg_test: bool, line: usize },
    /// `const`/`static` with a parsed initializer expression.
    ConstLike { name: String, init: Option<Expr>, cfg_test: bool, line: usize },
    /// Everything else (struct/enum/type/extern/macro definitions):
    /// parsed past, no analysis surface.
    Opaque { cfg_test: bool, line: usize },
}

/// `{ stmt* }`.
#[derive(Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub line: usize,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let pat (= init)? (else block)?;` — `names` are the identifiers
    /// bound by the pattern (used for lock-guard and channel-endpoint
    /// tracking).
    Let {
        names: Vec<String>,
        init: Option<Expr>,
        else_block: Option<Block>,
        line: usize,
    },
    Item(Item),
    Expr(Expr),
}

/// An expression, pruned to the analyzer's interest set.
#[derive(Debug)]
pub enum Expr {
    /// `a::b::c` (turbofish stripped).
    Path {
        segs: Vec<String>,
        line: usize,
    },
    /// Any literal token (number, string, char, bool keywords are
    /// parsed as paths).
    Lit {
        text: String,
        line: usize,
    },
    /// `recv.name(args…)`.
    MethodCall {
        recv: Box<Expr>,
        name: String,
        args: Vec<Expr>,
        line: usize,
    },
    /// `callee(args…)`.
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
        line: usize,
    },
    /// `recv.name` (field access; tuple indices come through as names).
    Field {
        recv: Box<Expr>,
        name: String,
        line: usize,
    },
    /// `recv[index]`.
    Index {
        recv: Box<Expr>,
        index: Box<Expr>,
        line: usize,
    },
    /// `lhs op rhs` for every binary operator the lexer fuses or the
    /// parser folds (`/`, `%`, `==`, `&&`, `=`, `+=`, ranges, …).
    Binary {
        op: String,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        line: usize,
    },
    /// Prefix `&`/`&mut`/`*`/`!`/`-`.
    Unary {
        expr: Box<Expr>,
        line: usize,
    },
    Block(Block),
    /// `unsafe { … }`.
    Unsafe {
        block: Block,
        line: usize,
    },
    If {
        cond: Box<Expr>,
        then: Block,
        els: Option<Box<Expr>>,
        line: usize,
    },
    /// Match with arm bodies (guards are parsed and included as
    /// expressions too, patterns are not represented).
    Match {
        scrutinee: Box<Expr>,
        arms: Vec<Expr>,
        line: usize,
    },
    While {
        cond: Box<Expr>,
        body: Block,
        line: usize,
    },
    Loop {
        body: Block,
        line: usize,
    },
    For {
        iter: Box<Expr>,
        body: Block,
        line: usize,
    },
    /// `|args| body` / `move || body`.
    Closure {
        body: Box<Expr>,
        line: usize,
    },
    /// `path!(…)` — `parts` are the expressions the soup-parser could
    /// recover from the macro's token tree (best effort, never empty
    /// of genuinely expression-shaped content).
    Macro {
        segs: Vec<String>,
        parts: Vec<Expr>,
        line: usize,
    },
    Tuple {
        items: Vec<Expr>,
        line: usize,
    },
    Array {
        items: Vec<Expr>,
        line: usize,
    },
    /// `return e?` / `break e?` — the carried value, if any.
    Jump {
        value: Option<Box<Expr>>,
        line: usize,
    },
    /// `expr?`.
    Try {
        expr: Box<Expr>,
        line: usize,
    },
    /// `expr as Type` — `ty` is the compact token text of the type.
    Cast {
        expr: Box<Expr>,
        ty: String,
        line: usize,
    },
    /// `Path { field: expr, .. }` struct literal — field values only.
    StructLit {
        path: Vec<String>,
        fields: Vec<Expr>,
        line: usize,
    },
    /// A span the expression parser could not shape; the raw tokens
    /// are preserved so token-level passes (unsafe audit) lose nothing.
    Raw {
        tokens: Vec<Token>,
        line: usize,
    },
}

impl Expr {
    /// The line this expression starts on.
    pub fn line(&self) -> usize {
        match self {
            Expr::Path { line, .. }
            | Expr::Lit { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Call { line, .. }
            | Expr::Field { line, .. }
            | Expr::Index { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Unary { line, .. }
            | Expr::Unsafe { line, .. }
            | Expr::If { line, .. }
            | Expr::Match { line, .. }
            | Expr::While { line, .. }
            | Expr::Loop { line, .. }
            | Expr::For { line, .. }
            | Expr::Closure { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Tuple { line, .. }
            | Expr::Array { line, .. }
            | Expr::Jump { line, .. }
            | Expr::Try { line, .. }
            | Expr::Cast { line, .. }
            | Expr::StructLit { line, .. }
            | Expr::Raw { line, .. } => *line,
            Expr::Block(b) => b.line,
        }
    }

    /// Renders the expression back to compact source-ish text — used
    /// for topology capacities and spawn targets. Lossy by design.
    pub fn render(&self) -> String {
        match self {
            Expr::Path { segs, .. } => segs.join("::"),
            Expr::Lit { text, .. } => text.clone(),
            Expr::MethodCall { recv, name, args, .. } => {
                let args: Vec<String> = args.iter().map(Expr::render).collect();
                format!("{}.{}({})", recv.render(), name, args.join(", "))
            }
            Expr::Call { callee, args, .. } => {
                let args: Vec<String> = args.iter().map(Expr::render).collect();
                format!("{}({})", callee.render(), args.join(", "))
            }
            Expr::Field { recv, name, .. } => format!("{}.{}", recv.render(), name),
            Expr::Index { recv, index, .. } => format!("{}[{}]", recv.render(), index.render()),
            Expr::Binary { op, lhs, rhs, .. } => {
                format!("{} {} {}", lhs.render(), op, rhs.render())
            }
            Expr::Unary { expr, .. } => expr.render(),
            Expr::Try { expr, .. } => format!("{}?", expr.render()),
            Expr::Cast { expr, .. } => expr.render(),
            Expr::Closure { .. } => "closure".to_string(),
            Expr::Macro { segs, .. } => format!("{}!(…)", segs.join("::")),
            _ => "…".to_string(),
        }
    }
}

/// Depth-first walk over every expression reachable from `expr`,
/// including the bodies of nested blocks, closures, arms and macro
/// parts — but *not* descending into nested items (a nested `fn` is
/// its own analysis scope). The callback sees parents before children.
pub fn walk_expr<'a>(expr: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(expr);
    match expr {
        Expr::MethodCall { recv, args, .. } => {
            walk_expr(recv, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Call { callee, args, .. } => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Field { recv, .. } => walk_expr(recv, f),
        Expr::Index { recv, index, .. } => {
            walk_expr(recv, f);
            walk_expr(index, f);
        }
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        Expr::Unary { expr, .. } | Expr::Try { expr, .. } | Expr::Cast { expr, .. } => {
            walk_expr(expr, f);
        }
        Expr::Block(b) | Expr::Unsafe { block: b, .. } | Expr::Loop { body: b, .. } => {
            walk_block(b, f);
        }
        Expr::If { cond, then, els, .. } => {
            walk_expr(cond, f);
            walk_block(then, f);
            if let Some(e) = els {
                walk_expr(e, f);
            }
        }
        Expr::Match { scrutinee, arms, .. } => {
            walk_expr(scrutinee, f);
            for a in arms {
                walk_expr(a, f);
            }
        }
        Expr::While { cond, body, .. } => {
            walk_expr(cond, f);
            walk_block(body, f);
        }
        Expr::For { iter, body, .. } => {
            walk_expr(iter, f);
            walk_block(body, f);
        }
        Expr::Closure { body, .. } => walk_expr(body, f),
        Expr::Macro { parts, .. } => {
            for p in parts {
                walk_expr(p, f);
            }
        }
        Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
            for i in items {
                walk_expr(i, f);
            }
        }
        Expr::Jump { value: Some(v), .. } => walk_expr(v, f),
        Expr::StructLit { fields, .. } => {
            for v in fields {
                walk_expr(v, f);
            }
        }
        Expr::Path { .. }
        | Expr::Lit { .. }
        | Expr::Jump { value: None, .. }
        | Expr::Raw { .. } => {}
    }
}

/// Walks every expression in a block (skipping nested items).
pub fn walk_block<'a>(block: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, else_block, .. } => {
                if let Some(e) = init {
                    walk_expr(e, f);
                }
                if let Some(b) = else_block {
                    walk_block(b, f);
                }
            }
            Stmt::Expr(e) => walk_expr(e, f),
            Stmt::Item(_) => {}
        }
    }
}

/// Visits every function body in the item tree with its effective
/// `cfg_test` flag and the nesting path of item names.
pub fn visit_fns<'a>(
    items: &'a [Item],
    in_test: bool,
    path: &mut Vec<String>,
    f: &mut impl FnMut(&[String], &'a str, &'a Block, bool),
) {
    for item in items {
        match item {
            Item::Fn { name, body: Some(body), cfg_test, .. } => {
                f(path, name, body, in_test || *cfg_test);
                // Items declared directly in the body (nested fns,
                // test-helper structs with methods) are scopes too.
                path.push(name.clone());
                for stmt in &body.stmts {
                    if let Stmt::Item(item) = stmt {
                        visit_fns(std::slice::from_ref(item), in_test || *cfg_test, path, f);
                    }
                }
                path.pop();
            }
            Item::Mod { name, items: Some(items), cfg_test, .. } => {
                path.push(name.clone());
                visit_fns(items, in_test || *cfg_test, path, f);
                path.pop();
            }
            Item::ItemGroup { items, cfg_test, .. } => {
                visit_fns(items, in_test || *cfg_test, path, f);
            }
            _ => {}
        }
    }
}

/// Visits every `use` item in the tree with its effective test flag.
pub fn visit_uses<'a>(
    items: &'a [Item],
    in_test: bool,
    f: &mut impl FnMut(&'a [String], usize, bool),
) {
    for item in items {
        match item {
            Item::Use { paths, line } => f(paths, *line, in_test),
            Item::Mod { items: Some(items), cfg_test, .. } => {
                visit_uses(items, in_test || *cfg_test, f);
            }
            Item::ItemGroup { items, cfg_test, .. } => visit_uses(items, in_test || *cfg_test, f),
            Item::Fn { body: Some(body), cfg_test, .. } => {
                for stmt in &body.stmts {
                    if let Stmt::Item(item) = stmt {
                        visit_uses(std::slice::from_ref(item), in_test || *cfg_test, f);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Visits every `const`/`static` initializer with its test flag.
pub fn visit_consts<'a>(items: &'a [Item], in_test: bool, f: &mut impl FnMut(&'a Expr, bool)) {
    for item in items {
        match item {
            Item::ConstLike { init: Some(init), cfg_test, .. } => f(init, in_test || *cfg_test),
            Item::Mod { items: Some(items), cfg_test, .. } => {
                visit_consts(items, in_test || *cfg_test, f);
            }
            Item::ItemGroup { items, cfg_test, .. } => {
                visit_consts(items, in_test || *cfg_test, f);
            }
            _ => {}
        }
    }
}
