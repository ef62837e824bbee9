//! Lock-order analysis: extracts a lock acquisition graph from nested
//! `.lock()` scopes across `crates/runtime`, `crates/transport` and
//! `crates/poll`, cross-checks it against the `LOCK ORDER:` comments,
//! and fails on any cycle or undeclared edge.
//!
//! ## Model
//!
//! Locks are identified by the *name* of the place being locked — the
//! last field/path segment before `.lock()` (`self.inner.queue.lock()`
//! → `queue`). Name-based identity is what makes the graph global:
//! the same mutex reached from two files unifies, and two different
//! mutexes that share a name conservatively unify too (a false *merge*
//! can only add edges, never hide one).
//!
//! Guard lifetimes follow Rust's scoping rules, intraprocedurally:
//!
//! - `let g = m.lock();` holds `m` until the end of the enclosing
//!   block (or an explicit `drop(g)`).
//! - A `.lock()` buried deeper in an expression (`m.lock().push(x)`)
//!   is a temporary: held to the end of the statement.
//! - `if`/`while` condition temporaries release before the branch
//!   body; `match` scrutinee and `for` iterator temporaries live for
//!   the whole construct (as in the language).
//!
//! Every acquisition made while another lock is held records a
//! `held → new` edge. Edges come only from non-`#[cfg(test)]` code;
//! the *annotation requirement* (any locking file must carry a
//! `LOCK ORDER:` comment) covers test code too, matching the PR-4
//! rule.
//!
//! ## Annotation grammar
//!
//! The annotation is the comment block starting at the line containing
//! `LOCK ORDER:` plus immediately following comment lines. Two forms:
//!
//! - **Leaf declaration** — prose containing `leaf`, `no locks`,
//!   `no mutexes`, `single lock` or `never nested`: the file promises
//!   to never hold two locks at once. Any discovered edge violates it.
//! - **Edge declarations** — `a -> b` (chains `a -> b -> c` allowed):
//!   the file's nesting discipline. Discovered edges must each be
//!   declared; declared edges join the global graph even if currently
//!   unexercised, so stale annotations that *would* deadlock still
//!   fail the cycle check.

use crate::ast::{visit_fns, Block, Expr, File, Stmt};
use crate::lexer::Lexed;
use crate::passes::Violation;

/// Files subject to the lock-order analysis.
pub fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/runtime/src")
        || rel.starts_with("crates/transport/src")
        || rel.starts_with("crates/poll/src")
}

/// A discovered `from → to` acquisition edge.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: usize,
}

/// Everything the per-file extraction learns; [`check`] combines the
/// facts of all files into the global verdict.
#[derive(Debug, Default)]
pub struct LockFacts {
    pub rel: String,
    /// Any `.lock()` call anywhere in the file, tests included —
    /// triggers the annotation requirement.
    pub locks_anywhere: bool,
    pub annotated: bool,
    pub leaf_only: bool,
    pub declared: Vec<(String, String)>,
    pub edges: Vec<Edge>,
    /// Same-name nesting, caught during extraction.
    pub violations: Vec<Violation>,
}

pub fn extract(rel: &str, file: &File, lexed: &Lexed) -> LockFacts {
    let mut facts = LockFacts { rel: rel.to_string(), ..LockFacts::default() };
    if !in_scope(rel) {
        // Out-of-scope files (benches, sims, the model-checker's own
        // internals) contribute nothing to the lock graph.
        return facts;
    }

    // `.lock()` presence at token level (tests, macros, everything).
    for w in lexed.tokens.windows(4) {
        if w[0].text == "." && w[1].text == "lock" && w[2].text == "(" && w[3].text == ")" {
            facts.locks_anywhere = true;
            break;
        }
    }

    parse_annotation(lexed, &mut facts);

    let mut path = Vec::new();
    visit_fns(&file.items, false, &mut path, &mut |_, _, body, in_test| {
        if in_test {
            return;
        }
        let mut scanner = Scanner {
            rel,
            held: Vec::new(),
            sticky: None,
            edges: &mut facts.edges,
            violations: &mut facts.violations,
        };
        scanner.block(body);
    });
    facts
}

fn parse_annotation(lexed: &Lexed, facts: &mut LockFacts) {
    let Some(pos) = lexed.comments.iter().position(|c| c.text.contains("LOCK ORDER:")) else {
        return;
    };
    facts.annotated = true;
    let mut text = String::new();
    let mut prev_line = lexed.comments[pos].line;
    text.push_str(lexed.comments[pos].text.split("LOCK ORDER:").nth(1).unwrap_or(""));
    for c in &lexed.comments[pos + 1..] {
        if c.line > prev_line + 1 {
            break;
        }
        prev_line = c.line;
        text.push(' ');
        text.push_str(&c.text);
    }
    let lower = text.to_lowercase();
    facts.leaf_only = ["leaf", "no locks", "no mutexes", "single lock", "never nested"]
        .iter()
        .any(|needle| lower.contains(needle));
    // Edge declarations: `a -> b` (chains allowed). Words are the
    // identifier-ish runs on either side of each arrow.
    let mut rest = text.as_str();
    while let Some(idx) = rest.find("->") {
        let lhs = ident_before(&rest[..idx]);
        let rhs = ident_after(&rest[idx + 2..]);
        if let (Some(a), Some(b)) = (lhs, rhs) {
            facts.declared.push((a, b));
        }
        rest = &rest[idx + 2..];
    }
}

fn ident_before(s: &str) -> Option<String> {
    let trimmed = s.trim_end();
    let start =
        trimmed.rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).map_or(0, |i| i + 1);
    let word = &trimmed[start..];
    (!word.is_empty()).then(|| word.to_string())
}

fn ident_after(s: &str) -> Option<String> {
    let trimmed = s.trim_start();
    let end =
        trimmed.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(trimmed.len());
    let word = &trimmed[..end];
    (!word.is_empty()).then(|| word.to_string())
}

/// A lock currently held at this point of the scan.
struct Held {
    lock: String,
    guards: Vec<String>,
    /// Block-scoped (`let g = m.lock()`) vs statement temporary.
    sticky: bool,
    released: bool,
}

struct Scanner<'a> {
    rel: &'a str,
    held: Vec<Held>,
    /// Pointer identity of the expression whose `.lock()` result is
    /// being `let`-bound — that acquisition becomes block-scoped.
    sticky: Option<(*const Expr, Vec<String>)>,
    edges: &'a mut Vec<Edge>,
    violations: &'a mut Vec<Violation>,
}

impl Scanner<'_> {
    fn block(&mut self, b: &Block) {
        let base = self.held.len();
        for stmt in &b.stmts {
            let stmt_base = self.held.len();
            match stmt {
                Stmt::Let { names, init, else_block, .. } => {
                    if let Some(init) = init {
                        let root = strip_wrappers(init);
                        if is_lock_call(root) {
                            self.sticky = Some((root as *const Expr, names.clone()));
                        }
                        self.expr(init);
                        self.sticky = None;
                    }
                    if let Some(eb) = else_block {
                        self.block(eb);
                    }
                }
                Stmt::Expr(e) => self.expr(e),
                Stmt::Item(_) => {}
            }
            self.release_temps(stmt_base);
        }
        self.held.truncate(base);
    }

    /// Drops non-sticky (temporary) acquisitions made at or above
    /// `from` on the held stack.
    fn release_temps(&mut self, from: usize) {
        let mut i = from;
        while i < self.held.len() {
            if self.held[i].sticky {
                i += 1;
            } else {
                self.held.remove(i);
            }
        }
    }

    fn acquire(&mut self, lock: String, line: usize, sticky: bool, guards: Vec<String>) {
        for h in self.held.iter().filter(|h| !h.released) {
            if h.lock == lock {
                self.violations.push(Violation {
                    file: self.rel.to_string(),
                    line,
                    rule: "lock-order",
                    message: format!(
                        "`{lock}` locked while already held (self-deadlock with one thread)"
                    ),
                });
            } else {
                self.edges.push(Edge {
                    from: h.lock.clone(),
                    to: lock.clone(),
                    file: self.rel.to_string(),
                    line,
                });
            }
        }
        self.held.push(Held { lock, guards, sticky, released: false });
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::MethodCall { recv, name, args, line } => {
                self.expr(recv);
                for a in args {
                    self.expr(a);
                }
                if name == "lock" && args.is_empty() {
                    let lock = lock_name(recv);
                    let sticky = self
                        .sticky
                        .as_ref()
                        .is_some_and(|(ptr, _)| std::ptr::eq(*ptr, e as *const Expr));
                    let guards = if sticky {
                        self.sticky.as_ref().map(|(_, g)| g.clone()).unwrap_or_default()
                    } else {
                        Vec::new()
                    };
                    self.acquire(lock, *line, sticky, guards);
                }
            }
            Expr::Call { callee, args, .. } => {
                // `drop(guard)` releases a held lock by guard name.
                if let (Expr::Path { segs, .. }, [Expr::Path { segs: arg, .. }]) =
                    (callee.as_ref(), args.as_slice())
                {
                    if segs.last().is_some_and(|s| s == "drop") && arg.len() == 1 {
                        let g = &arg[0];
                        if let Some(h) =
                            self.held.iter_mut().rev().find(|h| h.guards.iter().any(|n| n == g))
                        {
                            h.released = true;
                            return;
                        }
                    }
                }
                self.expr(callee);
                for a in args {
                    self.expr(a);
                }
            }
            Expr::Field { recv, .. } => self.expr(recv),
            Expr::Index { recv, index, .. } => {
                self.expr(recv);
                self.expr(index);
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            Expr::Unary { expr, .. } | Expr::Try { expr, .. } | Expr::Cast { expr, .. } => {
                self.expr(expr);
            }
            Expr::Block(b) | Expr::Unsafe { block: b, .. } | Expr::Loop { body: b, .. } => {
                self.block(b);
            }
            Expr::If { cond, then, els, .. } => {
                let before = self.held.len();
                self.expr(cond);
                // Condition temporaries drop before the branch runs.
                self.release_temps(before);
                self.block(then);
                if let Some(e) = els {
                    self.expr(e);
                }
            }
            Expr::While { cond, body, .. } => {
                let before = self.held.len();
                self.expr(cond);
                self.release_temps(before);
                self.block(body);
            }
            Expr::For { iter, body, .. } => {
                // The iterator temporary lives for the whole loop.
                self.expr(iter);
                self.block(body);
            }
            Expr::Match { scrutinee, arms, .. } => {
                // Scrutinee temporaries live across the arms.
                self.expr(scrutinee);
                for arm in arms {
                    let before = self.held.len();
                    self.expr(arm);
                    self.release_temps(before);
                }
            }
            Expr::Closure { body, .. } => {
                // Analyzed as if called inline under the current held
                // set — conservative for closures that run elsewhere,
                // exact for the `map/retain/with` idioms.
                let before = self.held.len();
                self.expr(body);
                self.held.truncate(before);
            }
            Expr::Macro { parts, .. } => {
                for p in parts {
                    self.expr(p);
                }
            }
            Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
                for i in items {
                    self.expr(i);
                }
            }
            Expr::StructLit { fields, .. } => {
                for f in fields {
                    self.expr(f);
                }
            }
            Expr::Jump { value: Some(v), .. } => self.expr(v),
            Expr::Path { .. }
            | Expr::Lit { .. }
            | Expr::Jump { value: None, .. }
            | Expr::Raw { .. } => {}
        }
    }
}

/// Strips the layers that don't change which expression produces the
/// bound value (`let g = m.lock()?;` still binds the guard… close
/// enough: `?` on a guard is not an idiom here, but `&`/casts are).
fn strip_wrappers(e: &Expr) -> &Expr {
    match e {
        Expr::Unary { expr, .. } | Expr::Try { expr, .. } | Expr::Cast { expr, .. } => {
            strip_wrappers(expr)
        }
        _ => e,
    }
}

fn is_lock_call(e: &Expr) -> bool {
    matches!(e, Expr::MethodCall { name, args, .. } if name == "lock" && args.is_empty())
}

/// The identity of the locked place: the innermost meaningful name in
/// the receiver chain.
fn lock_name(recv: &Expr) -> String {
    match recv {
        Expr::Field { name, .. } => name.clone(),
        Expr::Path { segs, .. } => segs.last().cloned().unwrap_or_else(|| "?".into()),
        Expr::MethodCall { name, .. } => name.clone(),
        Expr::Call { callee, .. } => lock_name(callee),
        Expr::Index { recv, .. }
        | Expr::Unary { expr: recv, .. }
        | Expr::Try { expr: recv, .. }
        | Expr::Cast { expr: recv, .. } => lock_name(recv),
        _ => "?".to_string(),
    }
}

/// The global verdict over every file's facts: annotation presence,
/// per-file edge/leaf conformance, and the whole-workspace cycle
/// check over declared ∪ discovered edges.
pub fn check(all: &[LockFacts]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut graph: Vec<(String, String, String, usize)> = Vec::new(); // from, to, file, line

    for facts in all {
        out.extend(facts.violations.iter().cloned());
        if facts.locks_anywhere && !facts.annotated {
            out.push(Violation {
                file: facts.rel.clone(),
                line: 1,
                rule: "lock-order",
                message: "file takes a Mutex but has no `LOCK ORDER:` comment".to_string(),
            });
        }
        for e in &facts.edges {
            if facts.leaf_only {
                out.push(Violation {
                    file: e.file.clone(),
                    line: e.line,
                    rule: "lock-order",
                    message: format!(
                        "nested acquisition `{} -> {}` contradicts this file's leaf-only \
                         LOCK ORDER annotation",
                        e.from, e.to
                    ),
                });
            } else if !facts.declared.iter().any(|(a, b)| a == &e.from && b == &e.to) {
                out.push(Violation {
                    file: e.file.clone(),
                    line: e.line,
                    rule: "lock-order",
                    message: format!(
                        "undeclared lock edge `{} -> {}`; declare it in the LOCK ORDER comment",
                        e.from, e.to
                    ),
                });
            }
            graph.push((e.from.clone(), e.to.clone(), e.file.clone(), e.line));
        }
        for (a, b) in &facts.declared {
            graph.push((a.clone(), b.clone(), facts.rel.clone(), 1));
        }
    }

    if let Some(cycle) = find_cycle(&graph) {
        out.push(Violation {
            file: cycle.1,
            line: cycle.2,
            rule: "lock-order",
            message: format!(
                "lock acquisition cycle across the workspace: {} (declared ∪ discovered edges)",
                cycle.0
            ),
        });
    }
    out
}

/// DFS cycle detection over the name graph. Returns the cycle rendered
/// as `a -> b -> a` plus a witness file/line.
fn find_cycle(graph: &[(String, String, String, usize)]) -> Option<(String, String, usize)> {
    let mut nodes: Vec<&str> = Vec::new();
    for (a, b, _, _) in graph {
        if !nodes.contains(&a.as_str()) {
            nodes.push(a);
        }
        if !nodes.contains(&b.as_str()) {
            nodes.push(b);
        }
    }
    nodes.sort_unstable();
    let index = |n: &str| nodes.iter().position(|&x| x == n).unwrap_or(usize::MAX);
    let n = nodes.len();
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut state = vec![0u8; n];
    let mut stack: Vec<usize> = Vec::new();

    fn dfs(
        v: usize,
        graph: &[(String, String, String, usize)],
        index: &dyn Fn(&str) -> usize,
        state: &mut [u8],
        stack: &mut Vec<usize>,
    ) -> Option<(Vec<usize>, String, usize)> {
        state[v] = 1;
        stack.push(v);
        for (a, b, file, line) in graph {
            if index(a) != v {
                continue;
            }
            let w = index(b);
            if state[w] == 1 {
                let start = stack.iter().position(|&x| x == w).unwrap_or(0);
                let mut cycle = stack[start..].to_vec();
                cycle.push(w);
                return Some((cycle, file.clone(), *line));
            }
            if state[w] == 0 {
                if let Some(found) = dfs(w, graph, index, state, stack) {
                    return Some(found);
                }
            }
        }
        stack.pop();
        state[v] = 2;
        None
    }

    for v in 0..n {
        if state[v] == 0 {
            if let Some((cycle, file, line)) = dfs(v, graph, &index, &mut state, &mut stack) {
                let text = cycle.iter().map(|&i| nodes[i]).collect::<Vec<_>>().join(" -> ");
                return Some((text, file, line));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn facts(rel: &str, src: &str) -> LockFacts {
        let lexed = lex(src);
        let file = parse(&lexed);
        assert_eq!(file.gaps, 0, "fixture must parse cleanly:\n{src}");
        extract(rel, &file, &lexed)
    }

    fn edge_pairs(f: &LockFacts) -> Vec<(String, String)> {
        f.edges.iter().map(|e| (e.from.clone(), e.to.clone())).collect()
    }

    #[test]
    fn guard_bindings_hold_until_block_end() {
        let f = facts(
            "crates/runtime/src/x.rs",
            "// LOCK ORDER: a -> b\nfn f() { let g = self.a.lock(); self.b.lock().push(1); }\n",
        );
        assert_eq!(edge_pairs(&f), [("a".to_string(), "b".to_string())]);
        assert!(f.violations.is_empty());
    }

    #[test]
    fn statement_temporaries_release_at_semicolon() {
        let f = facts(
            "crates/runtime/src/x.rs",
            "// LOCK ORDER: leaf only.\nfn f() { self.a.lock().push(1); self.b.lock().push(2); }\n",
        );
        assert!(edge_pairs(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "\
// LOCK ORDER: leaf only (guards dropped before the next lock).
fn f() {
    let g = self.a.lock();
    g.push(1);
    drop(g);
    self.b.lock().push(2);
}
";
        let f = facts("crates/runtime/src/x.rs", src);
        assert!(edge_pairs(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn same_name_nesting_is_a_self_deadlock() {
        let f = facts(
            "crates/runtime/src/x.rs",
            "// LOCK ORDER: q only.\nfn f() { let g = self.q.lock(); self.q.lock().push(1); }\n",
        );
        assert_eq!(f.violations.len(), 1, "{f:?}");
        assert!(f.violations[0].message.contains("self-deadlock"));
    }

    #[test]
    fn temporaries_within_one_statement_do_nest() {
        let f = facts(
            "crates/runtime/src/x.rs",
            "// LOCK ORDER: a -> b\nfn f() { merge(self.a.lock().v, self.b.lock().v); }\n",
        );
        assert_eq!(edge_pairs(&f), [("a".to_string(), "b".to_string())]);
    }

    #[test]
    fn test_code_contributes_no_edges_but_does_demand_the_annotation() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { let a = x.lock(); let b = y.lock(); }
}
";
        let f = facts("crates/runtime/src/x.rs", src);
        assert!(f.edges.is_empty());
        assert!(f.locks_anywhere);
        assert!(!f.annotated);
        let vs = check(&[f]);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("no `LOCK ORDER:`"));
    }

    #[test]
    fn leaf_annotations_reject_any_nesting() {
        let f = facts(
            "crates/runtime/src/x.rs",
            "// LOCK ORDER: single lock, never nested.\nfn f() { let g = a.lock(); b.lock().push(1); }\n",
        );
        let vs = check(&[f]);
        assert!(vs.iter().any(|v| v.message.contains("leaf-only")), "{vs:?}");
    }

    #[test]
    fn undeclared_edges_are_flagged_and_declared_ones_pass() {
        let bad = facts(
            "crates/runtime/src/x.rs",
            "// LOCK ORDER: registry -> history\nfn f() { let g = registry.lock(); journal.lock().push(1); }\n",
        );
        let vs = check(&[bad]);
        assert!(
            vs.iter().any(|v| v.message.contains("undeclared lock edge `registry -> journal`")),
            "{vs:?}"
        );
        let good = facts(
            "crates/runtime/src/x.rs",
            "// LOCK ORDER: registry -> journal\nfn f() { let g = registry.lock(); journal.lock().push(1); }\n",
        );
        assert!(check(&[good]).is_empty());
    }

    #[test]
    fn cross_file_ab_ba_cycle_is_detected() {
        // The acceptance-criteria scenario: file 1 locks A then B,
        // file 2 locks B then A — both locally declared, globally
        // deadlock-prone.
        let f1 = facts(
            "crates/runtime/src/one.rs",
            "// LOCK ORDER: alpha -> beta\nfn f() { let g = alpha.lock(); beta.lock().push(1); }\n",
        );
        let f2 = facts(
            "crates/transport/src/two.rs",
            "// LOCK ORDER: beta -> alpha\nfn g() { let h = beta.lock(); alpha.lock().push(1); }\n",
        );
        let vs = check(&[f1, f2]);
        let cycle = vs.iter().find(|v| v.message.contains("cycle")).expect("cycle detected");
        assert!(
            cycle.message.contains("alpha -> beta -> alpha")
                || cycle.message.contains("beta -> alpha -> beta"),
            "{}",
            cycle.message
        );
    }

    #[test]
    fn declared_but_unexercised_cycles_still_fail() {
        // Stale annotations form the cycle on their own.
        let mut f1 = LockFacts { rel: "a.rs".into(), annotated: true, ..Default::default() };
        f1.declared.push(("x".into(), "y".into()));
        let mut f2 = LockFacts { rel: "b.rs".into(), annotated: true, ..Default::default() };
        f2.declared.push(("y".into(), "x".into()));
        let vs = check(&[f1, f2]);
        assert!(vs.iter().any(|v| v.message.contains("cycle")), "{vs:?}");
    }

    #[test]
    fn annotation_chains_declare_multiple_edges() {
        let f = facts("crates/runtime/src/x.rs", "// LOCK ORDER: a -> b -> c\nfn f() {}\n");
        assert_eq!(
            f.declared,
            [("a".to_string(), "b".to_string()), ("b".to_string(), "c".to_string())]
        );
    }

    #[test]
    fn lock_names_resolve_through_fields_calls_and_paths() {
        let src = "\
// LOCK ORDER: queue -> STATS -> stdout
fn f() {
    let g = self.inner.queue.lock();
    let s = STATS.lock();
    let o = std::io::stdout().lock();
}
";
        let f = facts("crates/runtime/src/x.rs", src);
        assert_eq!(
            edge_pairs(&f),
            [
                ("queue".to_string(), "STATS".to_string()),
                ("queue".to_string(), "stdout".to_string()),
                ("STATS".to_string(), "stdout".to_string()),
            ]
        );
    }

    #[test]
    fn condition_temporaries_do_not_leak_into_the_branch() {
        let src = "\
// LOCK ORDER: leaf only.
fn f() {
    if self.a.lock().is_empty() {
        self.b.lock().push(1);
    }
}
";
        let f = facts("crates/runtime/src/x.rs", src);
        assert!(edge_pairs(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn for_iterator_locks_are_held_for_the_loop_body() {
        let src = "\
// LOCK ORDER: subs -> waker
fn f() {
    for s in self.subs.lock().iter() {
        s.waker.lock().wake();
    }
}
";
        let f = facts("crates/runtime/src/x.rs", src);
        assert_eq!(edge_pairs(&f), [("subs".to_string(), "waker".to_string())]);
    }
}
