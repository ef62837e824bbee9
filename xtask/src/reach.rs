//! The `reach` pass: no public item without a caller.
//!
//! rustc's `dead_code` lint is silent on the `pub` items of a library
//! crate, because some other crate might name them. This pass asks
//! whether one does. It flags every plain `pub` fn, method, `const` and
//! `static` defined in non-test code under `crates/*/src` (binaries in
//! `src/bin` excepted) when no non-test code names it anywhere.
//!
//! A *name* is an identifier token, so the match is by name alone: a
//! const in a `match` pattern and a fn passed as a path value both
//! count, and a used item is never flagged. Dead items whose names are
//! common (`new`, `len`) slip through.
//! These do not count as callers: the definition itself, a `pub use`
//! re-export (of any `pub` visibility: it passes a name on, it calls
//! nothing), comments and
//! doc comments (the lexer keeps them apart), `#[cfg(test)]` and
//! `#[test]` scopes, files that only an out-of-line `#[cfg(test)] mod
//! NAME;` pulls in (and the modules those declare in turn), and
//! `tests/` directories. Every other file does:
//! every crate's `src`, `src/bin` included, the `rcm` facade (`src/`),
//! `examples/` and `benchmark/src`.
//!
//! A finding is waived with `// analyze: allow(reach): <reason>` on
//! the line above the `pub`, like any other rule.

use std::collections::BTreeSet;

use crate::ast::{File, Item};
use crate::lexer::{Lexed, Token, TokenKind};
use crate::passes::Violation;

/// Directories outside `crates/` whose code counts as a caller.
pub const CALLER_ROOTS: &[&str] = &["src", "examples", "benchmark/src"];

/// One `pub` definition the pass checks.
#[derive(Debug)]
pub struct Def {
    pub name: String,
    pub violation: Violation,
}

/// Whether `rel` (under `crates/`) is code whose names count as uses:
/// a crate's `src`, not its `tests/`.
pub fn calls(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    parts.len() > 3 && parts[0] == "crates" && parts[2] == "src"
}

/// Whether `rel` (under `crates/`) is a library source file whose
/// `pub` items must have callers: a crate's `src` outside `src/bin`.
pub fn defines(rel: &str) -> bool {
    calls(rel) && rel.split('/').nth(3) != Some("bin")
}

/// The modules `file` (at `rel`) declares out of line (`mod NAME;`),
/// each as the path it lives at without its extension (`PATH.rs` or
/// `PATH/mod.rs`) and whether the declaration is test-only.
pub fn out_of_line_mods(rel: &str, file: &File) -> Vec<(String, bool)> {
    let (dir, name) = rel.rsplit_once('/').unwrap_or(("", rel));
    let stem = name.trim_end_matches(".rs");
    // A crate root or a `mod.rs` declares its modules beside it; any
    // other file in a directory named after it.
    let root = ["lib", "main", "mod"].contains(&stem) || dir.ends_with("/src/bin");
    let base = if root { dir.to_string() } else { format!("{dir}/{stem}") };
    let mut out = Vec::new();
    collect_mods(&file.items, &base, &mut out);
    out
}

fn collect_mods(items: &[Item], dir: &str, out: &mut Vec<(String, bool)>) {
    for item in items {
        if let Item::Mod { name, items, cfg_test, .. } = item {
            let path = format!("{dir}/{name}");
            match items {
                None => out.push((path, *cfg_test)),
                Some(items) => collect_mods(items, &path, out),
            }
        }
    }
}

/// The files of `files` that only tests compile: every module a
/// test-only out-of-line `mod` declares, and every module those declare
/// in turn. `decls` holds `(declaring file, module path, test-only)`,
/// as [`out_of_line_mods`] gives them.
pub fn test_files(decls: &[(String, String, bool)], files: &BTreeSet<String>) -> BTreeSet<String> {
    let resolve = |path: &str| {
        [format!("{path}.rs"), format!("{path}/mod.rs")].into_iter().find(|f| files.contains(f))
    };
    let mut test = BTreeSet::new();
    loop {
        let before = test.len();
        for (parent, path, cfg_test) in decls {
            if *cfg_test || test.contains(parent) {
                test.extend(resolve(path));
            }
        }
        if test.len() == before {
            return test;
        }
    }
}

/// Marks the tokens of `file`'s test-only items.
fn test_mask(lexed: &Lexed, file: &File) -> Vec<bool> {
    let n = lexed.tokens.len();
    let mut mask = vec![false; n];
    for &(lo, hi) in &file.test_spans {
        mask[lo.min(n)..hi.min(n)].fill(true);
    }
    mask
}

fn is_ident(t: Option<&Token>, text: &str) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

fn is_punct(t: Option<&Token>, text: &str) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

/// If the token at `i` names a fn, const or static being defined,
/// that name's index: `fn NAME`, `const NAME:`, `static [mut] NAME:`.
fn defined_name(tokens: &[Token], i: usize) -> Option<usize> {
    let name = |k: usize| tokens.get(k).filter(|t| t.kind == TokenKind::Ident).map(|_| k);
    let t = tokens.get(i);
    if is_ident(t, "fn") {
        return name(i + 1);
    }
    if !is_ident(t, "const") && !is_ident(t, "static") {
        return None;
    }
    let k = if is_ident(tokens.get(i + 1), "mut") { i + 2 } else { i + 1 };
    is_punct(tokens.get(k + 1), ":").then(|| name(k)).flatten()
}

/// How many tokens the fn qualifier at `j` spans (`const` before
/// `fn`, `unsafe`, `async`, `extern "C"`), or 0 when there is none.
fn qualifier_len(tokens: &[Token], j: usize) -> usize {
    let (t, next) = (tokens.get(j), tokens.get(j + 1));
    let const_fn = is_ident(t, "const")
        && ["fn", "unsafe", "async", "extern"].iter().any(|k| is_ident(next, k));
    if is_ident(t, "unsafe") || is_ident(t, "async") || const_fn {
        1
    } else if is_ident(t, "extern") && next.is_some_and(|t| t.kind == TokenKind::Str) {
        2
    } else {
        0
    }
}

/// The plain-`pub` fns, consts and statics that `file` defines outside
/// test scopes. `pub(crate)` and friends are private to their crate,
/// where rustc's own lint already sees them.
pub fn definitions(rel: &str, lexed: &Lexed, file: &File) -> Vec<Def> {
    let tokens = &lexed.tokens;
    let mask = test_mask(lexed, file);
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || !is_ident(Some(t), "pub") || is_punct(tokens.get(i + 1), "(") {
            continue;
        }
        let mut j = i + 1;
        while let n @ 1.. = qualifier_len(tokens, j) {
            j += n;
        }
        if let Some(k) = defined_name(tokens, j) {
            let name = tokens[k].text.clone();
            out.push(Def {
                violation: Violation {
                    file: rel.to_string(),
                    line: t.line,
                    rule: "reach",
                    message: format!(
                        "`{name}` is `pub` but no non-test code names it; delete it, make it \
                         `#[cfg(test)]`, or waive with `// analyze: allow(reach): <reason>`"
                    ),
                },
                name,
            });
        }
    }
    out
}

/// Marks the tokens of every `pub use` item (`pub(crate) use` and the
/// like included), from the `pub` to the closing `;`.
fn mask_reexports(tokens: &[Token], mask: &mut [bool]) {
    let mut i = 0;
    while i < tokens.len() {
        let start = i;
        i += 1;
        if !is_ident(tokens.get(start), "pub") {
            continue;
        }
        let mut j = start + 1;
        if is_punct(tokens.get(j), "(") {
            while j < tokens.len() && !is_punct(tokens.get(j), ")") {
                j += 1;
            }
            j += 1;
        }
        if !is_ident(tokens.get(j), "use") {
            continue;
        }
        while j < tokens.len() && !is_punct(tokens.get(j), ";") {
            j += 1;
        }
        mask[start..(j + 1).min(tokens.len())].fill(true);
        i = j + 1;
    }
}

/// Adds every identifier that `file`'s non-test code names to `uses`.
/// Defining names (`fn NAME`, `const NAME:`) and re-exports are not
/// uses.
pub fn collect_uses(lexed: &Lexed, file: &File, uses: &mut BTreeSet<String>) {
    let tokens = &lexed.tokens;
    let mut mask = test_mask(lexed, file);
    mask_reexports(tokens, &mut mask);
    let mut defining = vec![false; tokens.len()];
    for i in 0..tokens.len() {
        if let Some(k) = defined_name(tokens, i) {
            defining[k] = true;
        }
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokenKind::Ident && !mask[i] && !defining[i] {
            uses.insert(t.text.clone());
        }
    }
}

/// The findings: every definition whose name nothing uses.
pub fn unreached(defs: Vec<Def>, uses: &BTreeSet<String>) -> Vec<Violation> {
    defs.into_iter().filter(|d| !uses.contains(&d.name)).map(|d| d.violation).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    /// Runs the pass over `(rel, src)` files; returns the names flagged.
    fn flagged(files: &[(&str, &str)]) -> Vec<String> {
        let mut defs = Vec::new();
        let mut uses = BTreeSet::new();
        for (rel, src) in files {
            let lexed = lex(src);
            let file = parse(&lexed);
            if defines(rel) {
                defs.extend(definitions(rel, &lexed, &file));
            }
            collect_uses(&lexed, &file, &mut uses);
        }
        let mut names: Vec<String> = unreached(defs, &uses)
            .iter()
            .map(|v| v.message.split('`').nth(1).expect("name in backticks").to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn only_plain_pub_fns_consts_and_statics_outside_tests_are_definitions() {
        let src = "\
pub fn a() {}
pub const fn b() {}
pub unsafe extern \"C\" fn c() {}
pub(crate) fn d() {}
fn e() {}
pub const F: u8 = 1;
pub static mut G: u8 = 1;
pub struct H;
impl H { pub fn i(&self) {} }
#[cfg(test)]
pub fn j() {}
#[cfg(test)]
mod tests { pub fn k() {} }
";
        let lexed = lex(src);
        let names: Vec<String> = definitions("crates/x/src/lib.rs", &lexed, &parse(&lexed))
            .into_iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(names, ["a", "b", "c", "F", "G", "i"]);
    }

    #[test]
    fn a_definition_is_not_a_use_of_its_name() {
        let lib = "pub fn twin() {}\nmod m { pub fn twin() {} }\npub const K: u8 = 0;\n";
        assert_eq!(flagged(&[("crates/x/src/lib.rs", lib)]), ["K", "twin", "twin"]);
    }

    #[test]
    fn binaries_call_but_define_nothing() {
        assert!(defines("crates/x/src/lib.rs") && defines("crates/x/src/a/b.rs"));
        assert!(!defines("crates/x/src/bin/tool.rs") && calls("crates/x/src/bin/tool.rs"));
        assert!(!defines("crates/x/tests/t.rs") && !calls("crates/x/tests/t.rs"));
    }
}
