//! The per-file AST passes: shim discipline, hot-path panic freedom,
//! unsafe audit, and event-loop discipline. Each pass takes a parsed
//! [`File`] (and, for the unsafe audit, the raw token/comment stream)
//! and returns violations; cross-file analyses (lock order, topology)
//! live in their own modules.
//!
//! Every rule here used to be a regex over comment-stripped text
//! (PR 4). The AST versions differ where the text versions were
//! wrong:
//!
//! - **shim** resolves real `use`-trees and expression paths, so
//!   `use std::sync::{Arc, Mutex}` yields two precise violations and a
//!   doc-comment mentioning `std::thread` yields none.
//! - **hot-path** sees actual `#[cfg(test)]` scopes (any nesting, any
//!   position in the file — not just a trailing test module) and now
//!   also covers the other two panic classes the paper's pipeline
//!   cares about: unchecked slice indexing and integer division.
//! - **unsafe** audits at token level and additionally requires an
//!   attached `SAFETY:` comment within [`SAFETY_WINDOW`] lines.
//! - **event-loop** matches call expressions, so a local method that
//!   merely *contains* a banned name no longer trips it.

use std::fmt;

use crate::ast::{visit_consts, visit_fns, walk_block, walk_expr, Expr, File};
use crate::lexer::Lexed;

/// One finding. `rule` is the stable identifier used by allow
/// directives (`// analyze: allow(<rule>): <why>`).
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Files allowed to contain the `unsafe` keyword, with the reason.
/// Adding a file here is a reviewable act: do it in the PR that adds
/// the unsafe code, alongside its `// SAFETY:` comments.
pub const UNSAFE_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/poll/src/sys.rs",
        "raw poll/fcntl/pipe/connect syscalls behind safe wrappers; the \
         crate root stays deny(unsafe_code)",
    ),
    (
        "crates/core/tests/compile_allocations.rs",
        "a counting #[global_allocator] that forwards to System, in a test binary of its own",
    ),
    (
        "crates/poll/tests/wait_allocations.rs",
        "a counting #[global_allocator] that forwards to System, in a test binary of its own",
    ),
    (
        "crates/runtime/tests/alert_allocations.rs",
        "a counting #[global_allocator] that forwards to System, in a test binary of its own",
    ),
];

/// How many lines above an `unsafe` token its `SAFETY:` comment may
/// start. Generous enough for a paragraph, tight enough that the
/// comment is visibly *about* the block below it.
pub const SAFETY_WINDOW: usize = 12;

/// rcm-core modules on the alert hot path (panic-free zone).
pub const HOT_PATH: &[&str] = &[
    "crates/core/src/evaluator.rs",
    "crates/core/src/registry.rs",
    "crates/core/src/condition/expr/store.rs",
    "crates/core/src/history.rs",
];

/// Transport modules on the wire hot path: the codec runs per frame on
/// every link, so it counts malformed input and encode failures
/// instead of panicking.
pub const TRANSPORT_HOT_PATH: &[&str] = &["crates/transport/src/wire.rs"];

/// Evaluation-pipeline modules on the per-update hot path: the
/// replica's gate, kill check and round, the fork-join round and its
/// merge, and the latency histogram's allocation-free record path run
/// once per admitted update; the SPSC ring stays panic-free for the
/// probes that still time it.
pub const PIPELINE_HOT_PATH: &[&str] = &[
    "crates/runtime/src/actors.rs",
    "crates/runtime/src/pipeline.rs",
    "crates/sync/src/spsc.rs",
    "crates/core/src/latency.rs",
];

pub const RUNTIME_SRC: &str = "crates/runtime/src";

/// The socket transport obeys the same shim discipline as the runtime:
/// it is compiled under `--cfg loom` as an `rcm-runtime` dependency, so
/// any direct `std::sync`/`std::thread` use would silently escape the
/// model checker.
pub const TRANSPORT_SRC: &str = "crates/transport/src";

/// The evented engine's home: one readiness loop that must never
/// block. Everything here runs on the loop thread, so one blocking
/// call stalls every link in the process.
pub const ENGINE_SRC: &str = "crates/transport/src/engine/";

/// Whether `rel` is one of the panic-free hot-path modules.
pub fn is_hot_path(rel: &str) -> bool {
    HOT_PATH.contains(&rel)
        || TRANSPORT_HOT_PATH.contains(&rel)
        || PIPELINE_HOT_PATH.contains(&rel)
        || rel.starts_with("crates/core/src/ad/")
}

/// Whether `rel` falls under the rcm_sync shim discipline.
pub fn in_shim_scope(rel: &str) -> bool {
    rel.starts_with(RUNTIME_SRC) || rel.starts_with(TRANSPORT_SRC)
}

/// Visits every expression in the file — function bodies and
/// const/static initializers — with its effective test flag.
fn for_each_expr<'a>(file: &'a File, f: &mut impl FnMut(&'a Expr, bool)) {
    let mut path = Vec::new();
    visit_fns(&file.items, false, &mut path, &mut |_, _, body, in_test| {
        walk_block(body, &mut |e| f(e, in_test));
    });
    visit_consts(&file.items, false, &mut |init, in_test| {
        walk_expr(init, &mut |e| f(e, in_test));
    });
}

// ---------------------------------------------------------------------
// shim discipline
// ---------------------------------------------------------------------

const SHIM_BANNED: &[&str] = &["std::sync", "std::thread"];

fn shim_banned_path(path: &str) -> Option<&'static str> {
    SHIM_BANNED
        .iter()
        .find(|&&p| path == p || path.strip_prefix(p).is_some_and(|r| r.starts_with("::")))
        .copied()
}

fn shim_banned_segs(segs: &[String]) -> Option<&'static str> {
    let two = if segs.len() >= 2 { format!("{}::{}", segs[0], segs[1]) } else { String::new() };
    SHIM_BANNED.iter().find(|&&p| segs.first().is_some_and(|s| s == p) || two == p).copied()
}

/// No `std::sync` or `std::thread` anywhere in the runtime or
/// transport crates (tests included — the
/// loom job compiles those too): every concurrency primitive must come
/// through `rcm_sync` so the whole runtime stays model-checkable under
/// `--cfg loom`. `std::net` is deliberately *not* banned: sockets are
/// the transport crate's whole job and loom has no model for them.
pub fn shim_pass(rel: &str, file: &File) -> Vec<Violation> {
    let mut out = Vec::new();
    if !in_shim_scope(rel) {
        return out;
    }
    let mut flag = |line: usize, what: &str| {
        out.push(Violation {
            file: rel.to_string(),
            line,
            rule: "shim",
            message: format!("`{what}` bypasses rcm_sync; import the shim instead"),
        });
    };
    crate::ast::visit_uses(&file.items, false, &mut |paths, line, _| {
        for path in paths {
            if shim_banned_path(path).is_some() {
                flag(line, path);
            }
        }
    });
    for_each_expr(file, &mut |e, _| match e {
        Expr::Path { segs, line } | Expr::Macro { segs, line, .. }
            if shim_banned_segs(segs).is_some() =>
        {
            flag(*line, &segs.join("::"));
        }
        _ => {}
    });
    out
}

// ---------------------------------------------------------------------
// hot-path panic freedom
// ---------------------------------------------------------------------

/// True for index expressions that cannot out-of-bounds panic in a way
/// this analyzer should second-guess: literal indices into fixed
/// layouts, masked (`x & MASK`) and wrapped (`x % len`) indices, and
/// full-range slices.
fn index_is_checked(index: &Expr) -> bool {
    match index {
        Expr::Lit { .. } => true,
        Expr::Binary { op, .. } => matches!(op.as_str(), "%" | "&"),
        Expr::MethodCall { name, .. } => name == "min", // clamped: i.min(len - 1)
        Expr::Cast { expr, .. } | Expr::Unary { expr, .. } => index_is_checked(expr),
        _ => false,
    }
}

fn literal_is_nonzero_or_float(text: &str) -> bool {
    let t = text.replace('_', "");
    if t.contains('.') || t.ends_with("f32") || t.ends_with("f64") {
        return true; // float literal: division cannot panic
    }
    let digits = t.trim_end_matches(|c: char| c.is_ascii_alphabetic() && c != 'x' && c != 'b');
    u128::from_str_radix(
        digits.trim_start_matches("0x").trim_start_matches("0b").trim_start_matches("0o"),
        if digits.starts_with("0x") {
            16
        } else if digits.starts_with("0b") {
            2
        } else if digits.starts_with("0o") {
            8
        } else {
            10
        },
    )
    .map(|v| v != 0)
    .unwrap_or(false)
}

/// Collects the names of consts in this file whose initializer is a
/// provably non-zero (or float) literal — `const SUB_BUCKETS: u64 =
/// 16;` makes `x / SUB_BUCKETS` safe anywhere in the same file.
fn nonzero_consts(items: &[crate::ast::Item], out: &mut Vec<String>) {
    use crate::ast::Item;
    for item in items {
        match item {
            Item::ConstLike { name, init: Some(init), .. } => {
                let proven = match init {
                    Expr::Lit { text, .. } => literal_is_nonzero_or_float(text),
                    // `1 << 20` and friends: a non-zero value shifted
                    // left stays non-zero until it overflows, which
                    // would itself panic in debug before the division.
                    Expr::Binary { op, lhs, .. } if op == "<<" => {
                        matches!(&**lhs, Expr::Lit { text, .. } if literal_is_nonzero_or_float(text))
                    }
                    _ => false,
                };
                if proven {
                    out.push(name.clone());
                }
            }
            Item::Mod { items: Some(items), .. } | Item::ItemGroup { items, .. } => {
                nonzero_consts(items, out);
            }
            _ => {}
        }
    }
}

/// True for division right-hand sides that provably cannot be zero (or
/// are float divisions, which do not panic).
fn divisor_is_checked(rhs: &Expr, consts: &[String]) -> bool {
    match rhs {
        Expr::Lit { text, .. } => literal_is_nonzero_or_float(text),
        // A same-file const with a non-zero literal initializer
        // (`SUB_BUCKETS`, `Self::WIDTH`, …).
        Expr::Path { segs, .. } => segs.last().is_some_and(|name| consts.iter().any(|c| c == name)),
        // `x.max(1)` and friends: clamped away from zero.
        Expr::MethodCall { name, args, .. } => {
            name == "max"
                && args.len() == 1
                && matches!(&args[0], Expr::Lit { text, .. } if literal_is_nonzero_or_float(text))
        }
        // `… as f64`: float division does not panic.
        Expr::Cast { ty, .. } => ty.contains("f64") || ty.contains("f32"),
        Expr::Unary { expr, .. } => divisor_is_checked(expr, consts),
        _ => false,
    }
}

/// Panic-freedom on the hot path, with real scope awareness:
///
/// - `.unwrap()` is banned crate-wide in runtime + transport (tests
///   included) — use `.expect("why")`.
/// - In the hot-path modules, outside `#[cfg(test)]` scopes, the pass
///   additionally bans `.unwrap()`/`.expect(…)`, unchecked slice
///   indexing, and integer division with an unproven divisor.
pub fn hot_path_pass(rel: &str, file: &File) -> Vec<Violation> {
    let mut out = Vec::new();
    let in_runtime = in_shim_scope(rel);
    let hot = is_hot_path(rel);
    if !in_runtime && !hot {
        return out;
    }
    let mut consts = Vec::new();
    nonzero_consts(&file.items, &mut consts);
    for_each_expr(file, &mut |e, in_test| match e {
        Expr::MethodCall { name, args, line, .. } if name == "unwrap" && args.is_empty() => {
            if in_runtime {
                out.push(Violation {
                    file: rel.to_string(),
                    line: *line,
                    rule: "hot-path",
                    message: "`.unwrap()` in the runtime; use `.expect(\"why\")`".to_string(),
                });
            } else if hot && !in_test {
                out.push(Violation {
                    file: rel.to_string(),
                    line: *line,
                    rule: "hot-path",
                    message: "`.unwrap()` on the alert hot path; return the error or assert \
                                  the invariant explicitly"
                        .to_string(),
                });
            }
        }
        Expr::MethodCall { name, line, .. } if name == "expect" && hot && !in_test => {
            out.push(Violation {
                file: rel.to_string(),
                line: *line,
                rule: "hot-path",
                message: "`.expect(…)` on the alert hot path; return the error or assert the \
                              invariant explicitly"
                    .to_string(),
            });
        }
        Expr::Index { index, line, .. } if hot && !in_test && !index_is_checked(index) => {
            out.push(Violation {
                file: rel.to_string(),
                line: *line,
                rule: "hot-path",
                message: format!(
                    "unchecked index `[{}]` on the hot path; use `.get(…)`, a masked/\
                         wrapped index, or justify with `// analyze: allow(hot-path): …`",
                    index.render()
                ),
            });
        }
        Expr::Binary { op, rhs, line, .. }
            if hot
                && !in_test
                && matches!(op.as_str(), "/" | "%" | "/=" | "%=")
                && !divisor_is_checked(rhs, &consts) =>
        {
            out.push(Violation {
                file: rel.to_string(),
                line: *line,
                rule: "hot-path",
                message: format!(
                    "division by `{}` on the hot path; prove the divisor non-zero \
                         (literal, `.max(1)`, float) or justify with `// analyze: \
                         allow(hot-path): …`",
                    rhs.render()
                ),
            });
        }
        _ => {}
    });
    out
}

// ---------------------------------------------------------------------
// unsafe audit
// ---------------------------------------------------------------------

/// The `unsafe` keyword may appear only in the audited files listed in
/// [`UNSAFE_ALLOWLIST`], and — new with the AST analyzer — every
/// occurrence must have a `SAFETY:` comment starting within
/// [`SAFETY_WINDOW`] lines above it. Token-level: `unsafe_code` in a
/// lint attribute is a different identifier and never matches.
pub fn unsafe_pass(rel: &str, lexed: &Lexed) -> Vec<Violation> {
    let mut out = Vec::new();
    let allowed = UNSAFE_ALLOWLIST.iter().any(|&(f, _)| f == rel);
    for tok in &lexed.tokens {
        if tok.kind != crate::lexer::TokenKind::Ident || tok.text != "unsafe" {
            continue;
        }
        if !allowed {
            out.push(Violation {
                file: rel.to_string(),
                line: tok.line,
                rule: "unsafe",
                message: "`unsafe` outside the audited allowlist (see xtask/src/passes.rs)"
                    .to_string(),
            });
            continue;
        }
        let lo = tok.line.saturating_sub(SAFETY_WINDOW);
        let documented = lexed
            .comments
            .iter()
            .any(|c| c.line >= lo && c.line <= tok.line && c.text.contains("SAFETY:"));
        if !documented {
            out.push(Violation {
                file: rel.to_string(),
                line: tok.line,
                rule: "unsafe",
                message: format!(
                    "`unsafe` without a `// SAFETY:` comment within {SAFETY_WINDOW} lines above it"
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// event-loop discipline
// ---------------------------------------------------------------------

/// Methods that block (or hide blocking) a readiness loop, with the
/// non-blocking idiom each must use instead.
const ENGINE_BANNED_METHODS: &[(&str, &str)] = &[
    ("connect_timeout", "blocking connect; use rcm_poll::sys::connect_nonblocking"),
    ("set_read_timeout", "socket timeouts block; deadlines belong on the timer wheel"),
    ("set_write_timeout", "socket timeouts block; deadlines belong on the timer wheel"),
    ("lock", "no locks on the loop; cross-thread state is atomics + the submit queue"),
    ("write_all", "a blocking write loop; park the remainder as a continuation state"),
    ("read_exact", "a blocking read loop; buffer the partial frame in the source"),
];

/// Nothing under `crates/transport/src/engine/` may block the loop
/// thread. Matched at call-expression level: a field or string merely
/// *named* like a banned call no longer trips the rule.
pub fn event_loop_pass(rel: &str, file: &File) -> Vec<Violation> {
    let mut out = Vec::new();
    if !rel.starts_with(ENGINE_SRC) {
        return out;
    }
    let mut flag = |line: usize, what: String, why: &str| {
        out.push(Violation {
            file: rel.to_string(),
            line,
            rule: "event-loop",
            message: format!("`{what}` — {why}"),
        });
    };
    // The whole file is loop-thread code; even its tests must exercise
    // the non-blocking idioms (this matches the PR-4 rule's scope).
    for_each_expr(file, &mut |e, _| match e {
        Expr::MethodCall { name, args, line, .. } => {
            for &(banned, why) in ENGINE_BANNED_METHODS {
                if name == banned && (banned != "lock" || args.is_empty()) {
                    flag(*line, format!(".{name}(…)"), why);
                }
            }
        }
        Expr::Call { callee, line, .. } => {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                let tail2 = segs.iter().rev().take(2).rev().map(String::as_str).collect::<Vec<_>>();
                match tail2.as_slice() {
                    ["TcpStream", "connect"] => flag(
                        *line,
                        "TcpStream::connect(…)".to_string(),
                        "blocking connect; use rcm_poll::sys::connect_nonblocking",
                    ),
                    ["TcpStream", "connect_timeout"] => flag(
                        *line,
                        "TcpStream::connect_timeout(…)".to_string(),
                        "blocking connect; use rcm_poll::sys::connect_nonblocking",
                    ),
                    ["thread", "sleep"] => flag(
                        *line,
                        "thread::sleep(…)".to_string(),
                        "a sleeping loop thread stalls every link; park a wheel timer",
                    ),
                    _ => {}
                }
            }
        }
        _ => {}
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn run(rel: &str, src: &str) -> Vec<Violation> {
        let lexed = lex(src);
        let file = parse(&lexed);
        assert_eq!(file.gaps, 0, "fixture must parse cleanly:\n{src}");
        let mut out = shim_pass(rel, &file);
        out.extend(hot_path_pass(rel, &file));
        out.extend(unsafe_pass(rel, &lexed));
        out.extend(event_loop_pass(rel, &file));
        out
    }

    fn rules(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|v| v.rule).collect()
    }

    // ---- shim ------------------------------------------------------

    #[test]
    fn shim_catches_use_trees_and_expression_paths() {
        let bad = "use std::sync::{Arc, Mutex};\nfn f() { std::thread::spawn(|| {}); }\n";
        let got = run("crates/runtime/src/evil.rs", bad);
        assert_eq!(rules(&got).iter().filter(|r| **r == "shim").count(), 3, "{got:?}");
    }

    #[test]
    fn shim_catches_bypass_crates_and_covers_transport() {
        let bad = "use std::sync::mpsc::channel;\nuse std::sync::Mutex;\n";
        assert_eq!(run("crates/transport/src/evil.rs", bad).len(), 2);
    }

    #[test]
    fn shim_ignores_prose_and_out_of_scope_crates() {
        let prose = "//! use std::sync::Arc in prose\nfn f() { let _ = \"std::thread\"; }\n";
        assert!(run("crates/runtime/src/fine.rs", prose).is_empty());
        let ok = "use std::sync::Arc;\n";
        assert!(run("crates/sim/src/lib.rs", ok).is_empty());
        // std::net stays legal in the transport: sockets are the point.
        let net = "use std::net::UdpSocket;\n";
        assert!(run("crates/transport/src/fine.rs", net).is_empty());
    }

    #[test]
    fn shim_catches_test_code_too() {
        let bad = "#[cfg(test)]\nmod tests { use std::thread; }\n";
        assert_eq!(rules(&run("crates/runtime/src/evil.rs", bad)), ["shim"]);
    }

    // ---- hot-path --------------------------------------------------

    #[test]
    fn unwrap_is_flagged_crate_wide_in_runtime_even_in_tests() {
        let bad = "#[cfg(test)]\nmod tests { fn t() { Some(1).unwrap(); } }\n";
        assert_eq!(rules(&run("crates/runtime/src/evil.rs", bad)), ["hot-path"]);
    }

    #[test]
    fn hot_path_bans_unwrap_and_expect_outside_tests() {
        let bad = "fn f() { x.unwrap(); y.expect(\"oops\"); }\n";
        for file in [
            "crates/core/src/registry.rs",
            "crates/core/src/ad/ad1.rs",
            "crates/transport/src/wire.rs",
        ] {
            let got = run(file, bad);
            assert_eq!(got.iter().filter(|v| v.rule == "hot-path").count(), 2, "{file}: {got:?}");
        }
    }

    #[test]
    fn hot_path_exempts_cfg_test_scopes_anywhere_in_the_file() {
        // The old regex rule only exempted a *trailing* test module;
        // the AST pass exempts real scopes wherever they sit.
        let ok = "\
#[cfg(test)]
mod early_tests { fn t() { x.unwrap(); } }
fn hot(v: &[u8]) -> u8 { v.first().copied().unwrap_or(0) }
#[cfg(all(test, not(loom)))]
mod tests { fn t() { y.expect(\"t\"); } }
";
        assert!(run("crates/core/src/registry.rs", ok).is_empty());
        // …and code *after* a test module is still checked (the old
        // line-oriented rule would have skipped it).
        let bad = "\
#[cfg(test)]
mod tests { }
fn hot() { x.expect(\"late\"); }
";
        assert_eq!(rules(&run("crates/core/src/registry.rs", bad)), ["hot-path"]);
    }

    #[test]
    fn hot_path_flags_unchecked_indexing_but_not_masked_or_literal() {
        let bad = "fn f(v: &[u8], i: usize) -> u8 { v[i] }\n";
        assert_eq!(rules(&run("crates/core/src/history.rs", bad)), ["hot-path"]);
        let ok = "\
fn f(v: &[u8; 4], i: usize) -> u8 { v[0] + v[i & 3] + v[i % 8] + v[i.min(3)] }
fn g(v: &[u8]) -> &[u8] { &v[..] }
";
        assert!(run("crates/core/src/history.rs", ok).is_empty());
        // `v[i % m]` is a safe *index* shape but still an unproven
        // remainder: `m == 0` panics, so the division rule fires.
        let rem = "fn f(v: &[u8], i: usize, m: usize) -> u8 { v[i % m] }\n";
        assert_eq!(rules(&run("crates/core/src/history.rs", rem)), ["hot-path"]);
    }

    #[test]
    fn hot_path_flags_unproven_divisors_but_not_safe_ones() {
        let bad = "fn f(a: u64, b: u64) -> u64 { a / b }\n";
        assert_eq!(rules(&run("crates/core/src/latency.rs", bad)), ["hot-path"]);
        let ok = "\
fn f(a: u64, n: u64, x: f64, y: u64) -> u64 {
    let _pct = x / 100.0;
    let _avg = (a as f64) / (y as f64);
    a / n.max(1) + a % 8
}
";
        assert!(run("crates/core/src/latency.rs", ok).is_empty());
    }

    #[test]
    fn division_by_a_nonzero_same_file_const_is_proven() {
        let ok = "\
const SUB_BUCKETS: u64 = 16;
const CAP: usize = 1 << 20;
fn f(a: u64, c: usize) -> u64 { a / SUB_BUCKETS + (c / CAP) as u64 }
";
        assert!(run("crates/core/src/latency.rs", ok).is_empty());
        // A zero-valued or non-literal const proves nothing.
        let bad = "\
const ZERO: u64 = 0;
fn f(a: u64) -> u64 { a / ZERO }
";
        assert_eq!(rules(&run("crates/core/src/latency.rs", bad)), ["hot-path"]);
        let unknown = "\
fn f(a: u64, b: u64) -> u64 { a / OTHER_CRATE_CONST + b }
";
        assert_eq!(rules(&run("crates/core/src/latency.rs", unknown)), ["hot-path"]);
    }

    // ---- unsafe ----------------------------------------------------

    #[test]
    fn unsafe_outside_allowlist_is_flagged() {
        let bad = "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
        assert_eq!(rules(&run("crates/core/src/history.rs", bad)), ["unsafe"]);
    }

    #[test]
    fn unsafe_in_allowlisted_file_requires_safety_comment() {
        let ok = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller upholds validity.\n    unsafe { p.read() }\n}\n";
        assert!(run("crates/poll/src/sys.rs", ok).is_empty());
        let bad = "fn f(p: *const u8) -> u8 { unsafe { p.read() } }\n";
        let got = run("crates/poll/src/sys.rs", bad);
        assert_eq!(rules(&got), ["unsafe"], "{got:?}");
        assert!(got[0].message.contains("SAFETY:"));
    }

    #[test]
    fn unsafe_code_lint_attribute_is_not_the_keyword() {
        let ok = "#![deny(unsafe_code)]\n#![allow(unsafe_code)]\n";
        assert!(run("crates/core/src/lib.rs", ok).is_empty());
    }

    // ---- event-loop ------------------------------------------------

    #[test]
    fn event_loop_catches_every_blocking_idiom() {
        let seeded = [
            "fn f(addr: A) { let _ = TcpStream::connect(addr); }\n",
            "fn f(addr: A, d: D) { let _ = TcpStream::connect_timeout(&addr, d); }\n",
            "fn f(s: &TcpStream, d: D) { s.set_read_timeout(Some(d)); }\n",
            "fn f(s: &TcpStream, d: D) { s.set_write_timeout(Some(d)); }\n",
            "fn f(d: D) { rcm_sync::thread::sleep(d); }\n",
            "fn f(m: &Mutex<u8>) { m.lock(); }\n",
            "fn f(s: &mut TcpStream, buf: &[u8]) { s.write_all(buf); }\n",
            "fn f(s: &mut TcpStream, buf: &mut [u8]) { s.read_exact(buf); }\n",
        ];
        for bad in seeded {
            let got = run("crates/transport/src/engine/evil.rs", bad);
            assert!(got.iter().any(|v| v.rule == "event-loop"), "missed: {bad}");
        }
    }

    #[test]
    fn event_loop_scopes_to_the_engine_directory_and_calls_only() {
        // Code one level up may block: the DM's front link sleeps
        // between Fin rounds on the caller's thread.
        let outside = "fn f(s: &mut TcpStream, buf: &[u8]) { s.write_all(buf); }\n";
        assert!(run("crates/transport/src/udp.rs", outside).is_empty());
        // A *string* or comment naming a banned call is not a call.
        let prose = "// write_all would block here\nfn f() { let _ = \"thread::sleep\"; }\n";
        assert!(run("crates/transport/src/engine/fine.rs", prose).is_empty());
        // Non-blocking partial writes sail through.
        let ok = "fn f(s: &mut TcpStream, buf: &[u8]) -> R { let n = s.write(buf)?; Ok(n) }\n";
        assert!(run("crates/transport/src/engine/fine.rs", ok).is_empty());
    }
}
