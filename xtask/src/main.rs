//! `cargo xtask analyze` — the repository's AST-level static analyzer —
//! plus `cargo xtask assert-chaos <report.json>`, the CI-side schema
//! and invariant check over the chaos gauntlet's JSON report, and
//! `cargo xtask schedstat`, per-thread CPU of a running process over an
//! interval (see `xtask/src/schedstat.rs`), and `cargo xtask ab`, the
//! alternating parent/change pairs of a performance claim (see
//! `xtask/src/ab.rs`).
//!
//! The analyzer lexes and parses every source file (xtask/src/lexer.rs,
//! xtask/src/parser.rs — dependency-free, std only) and runs seven pass
//! families over the ASTs, then an eighth over the manifests:
//!
//! 1. **Shim discipline** (`shim`): no `std::sync` or `std::thread`
//!    reachable from `crates/runtime/src` or `crates/transport/src` —
//!    resolved from real `use` trees and path expressions, so the
//!    whole runtime stays model-checkable under `--cfg loom`.
//! 2. **Hot-path panic freedom** (`hot-path`): no `.unwrap()` /
//!    `.expect(` / unchecked slice indexing / unproven division on the
//!    per-update and per-frame hot paths, with real `#[cfg(test)]`
//!    scope tracking instead of the old "everything after the first
//!    test attribute" heuristic.
//! 3. **Unsafe audit** (`unsafe`): the `unsafe` keyword may appear only
//!    in allowlisted files, and every occurrence there must carry a
//!    `SAFETY:` comment within the preceding few lines.
//! 4. **Event-loop discipline** (`event-loop`): nothing under
//!    `crates/transport/src/engine/` may block the loop thread —
//!    detected at call-expression level, not by substring.
//! 5. **Lock order** (`lock-order`): every file that takes a `Mutex`
//!    declares its discipline in a `LOCK ORDER:` comment; nested
//!    guard scopes are traced to a lock acquisition graph, which must
//!    match the declarations and stay acyclic across the workspace.
//! 6. **Concurrency topology** (`topology`): the spawn/channel/ring
//!    graph is extracted to `TOPOLOGY.json`; bounded handoffs must
//!    have a shed/backpressure path and be loom-modeled, and the
//!    committed artifact must not drift.
//! 7. **Reach** (`reach`): every plain `pub` fn, method, `const` and
//!    `static` in a library crate has a caller outside tests — some
//!    non-test code in the workspace, the `rcm` facade, `examples/` or
//!    `benchmark/src` names it (see `xtask/src/reach.rs`).
//! 8. **Manifests** (`manifest`): every workspace member's
//!    `[dependencies]`/`[dev-dependencies]` name only `rcm-*` path
//!    crates, no registry crate, and only crates the package's own
//!    sources use.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::analyze;
use xtask::chaos;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") | None => run_analyze(&args[args.len().min(1)..]),
        Some("assert-chaos") => match args.get(1) {
            Some(path) => chaos::assert_chaos(Path::new(path)),
            None => {
                eprintln!("usage: cargo xtask assert-chaos <chaos.json>");
                ExitCode::from(2)
            }
        },
        Some("schedstat") => xtask::schedstat::run(&args[1..]),
        Some("ab") => xtask::ab::run(&args[1..], &repo_root()),
        Some(other) => {
            eprintln!("unknown xtask `{other}`; available: analyze, ab, assert-chaos, schedstat");
            ExitCode::from(2)
        }
    }
}

fn run_analyze(args: &[String]) -> ExitCode {
    let mut write_topology = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--write-topology" => write_topology = true,
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown analyze flag `{other}`; available: --write-topology, --root");
                return ExitCode::from(2);
            }
        }
    }
    // `--root` exists for the self-tests and the tamper-rejection CI
    // step, which analyze synthetic trees.
    let root = root.unwrap_or_else(repo_root);

    let mut report = analyze::analyze_tree(&root);
    if write_topology {
        if let Err(e) = std::fs::write(root.join(analyze::TOPOLOGY_PATH), &report.topology) {
            eprintln!("cannot write {}: {e}", analyze::TOPOLOGY_PATH);
            return ExitCode::from(2);
        }
        println!("xtask analyze: wrote {}", analyze::TOPOLOGY_PATH);
    } else if let Some(drift) = analyze::check_topology_drift(&root, &report.topology) {
        report.violations.push(drift);
    }

    if report.violations.is_empty() {
        println!("xtask analyze: clean ({} files)", report.files_scanned);
        ExitCode::SUCCESS
    } else {
        for v in &report.violations {
            eprintln!("{v}");
        }
        eprintln!("xtask analyze: {} violation(s)", report.violations.len());
        ExitCode::FAILURE
    }
}

/// The repository root: xtask lives at `<repo>/xtask`, one level down.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits inside the repository")
        .to_path_buf()
}
