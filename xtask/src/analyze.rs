//! The `cargo xtask analyze` driver: walks every `.rs` file under
//! `crates/`, lexes and parses it once, and feeds the AST to each
//! analysis pass; the reach pass then also reads the callers outside
//! `crates/`, and the manifest pass every member's `Cargo.toml`.
//! Produces the full violation list plus the rendered topology
//! document, so callers (the CLI, the self-tests) decide what to do
//! with them.
//!
//! ## Suppressions
//!
//! A finding can be waived in place with a justified allow directive
//! on the line above (or the line of) the finding:
//!
//! ```text
//! // analyze: allow(hot-path): index bounded by the modulo above
//! let slot = &mut self.slots[idx];
//! ```
//!
//! The rule name must match and the trailing reason is mandatory — an
//! unexplained waiver is itself a violation. Suppressions are
//! deliberately line-scoped: a file-wide waiver would rot silently.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Lexed, TokenKind};
use crate::lock_order;
use crate::manifest;
use crate::parser;
use crate::passes::{self, Violation};
use crate::reach;
use crate::topology;

/// The committed topology artifact, relative to the repo root.
pub const TOPOLOGY_PATH: &str = "TOPOLOGY.json";

pub struct Report {
    pub violations: Vec<Violation>,
    /// The freshly extracted topology document (JSON text).
    pub topology: String,
    pub files_scanned: usize,
}

/// Runs every pass over the tree rooted at `root`. Pure with respect
/// to the tree: writing `TOPOLOGY.json` is the caller's decision.
pub fn analyze_tree(root: &Path) -> Report {
    let mut violations = Vec::new();
    let mut lock_facts = Vec::new();
    let mut topologies = Vec::new();
    let mut corpus: BTreeSet<String> = BTreeSet::new();
    let mut pub_defs = Vec::new();
    let mut uses: BTreeSet<String> = BTreeSet::new();
    // Per caller file under `crates/`: the names it uses, and the
    // modules it declares out of line. Which files only tests compile
    // is known once every declaration is.
    let mut file_uses: Vec<(String, BTreeSet<String>)> = Vec::new();
    let mut mod_decls: Vec<(String, String, bool)> = Vec::new();
    let mut files_scanned = 0;

    for path in rust_files(&root.join("crates")) {
        let rel = path
            .strip_prefix(root)
            .expect("walked file is under the root")
            .to_string_lossy()
            .replace('\\', "/");
        let src = match fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                violations.push(Violation {
                    file: rel,
                    line: 0,
                    rule: "io",
                    message: format!("unreadable: {e}"),
                });
                continue;
            }
        };
        files_scanned += 1;
        let lexed = lexer::lex(&src);
        let file = parser::parse(&lexed);

        if topology::is_corpus(&rel) {
            corpus.extend(
                lexed.tokens.iter().filter(|t| t.kind == TokenKind::Ident).map(|t| t.text.clone()),
            );
        }

        let mut found = Vec::new();
        if file.gaps > 0 {
            found.push(Violation {
                file: rel.clone(),
                line: 0,
                rule: "parse",
                message: format!(
                    "{} region(s) the analyzer could not parse — simplify the construct or \
                     extend xtask/src/parser.rs; unparsed code is unanalyzed code",
                    file.gaps
                ),
            });
        }
        found.extend(passes::shim_pass(&rel, &file));
        found.extend(passes::hot_path_pass(&rel, &file));
        found.extend(passes::unsafe_pass(&rel, &lexed));
        found.extend(passes::event_loop_pass(&rel, &file));

        let facts = lock_order::extract(&rel, &file, &lexed);
        found.extend(facts.violations.iter().cloned());
        lock_facts.push(facts);

        topologies.push(topology::extract(&rel, &file, &lexed));

        let (allows, malformed) = allow_directives(&rel, &lexed);
        violations.extend(malformed);
        violations.extend(found.into_iter().filter(|v| !allows.waives(v)));
        if reach::defines(&rel) {
            pub_defs.extend(
                reach::definitions(&rel, &lexed, &file)
                    .into_iter()
                    .filter(|d| !allows.waives(&d.violation)),
            );
        }
        if reach::calls(&rel) {
            let mut used = BTreeSet::new();
            reach::collect_uses(&lexed, &file, &mut used);
            let mods = reach::out_of_line_mods(&rel, &file);
            mod_decls.extend(mods.into_iter().map(|(path, test)| (rel.clone(), path, test)));
            file_uses.push((rel, used));
        }
    }
    let callers: BTreeSet<String> = file_uses.iter().map(|(rel, _)| rel.clone()).collect();
    let test_files = reach::test_files(&mod_decls, &callers);
    pub_defs.retain(|d: &reach::Def| !test_files.contains(&d.violation.file));
    for (rel, used) in file_uses {
        if !test_files.contains(&rel) {
            uses.extend(used);
        }
    }
    for dir in reach::CALLER_ROOTS {
        for path in rust_files(&root.join(dir)) {
            if let Ok(src) = fs::read_to_string(&path) {
                let lexed = lexer::lex(&src);
                reach::collect_uses(&lexed, &parser::parse(&lexed), &mut uses);
            }
        }
    }

    // Cross-file analyses run after the walk: the lock graph and the
    // topology invariants only exist at whole-workspace granularity.
    violations.extend(lock_order::check(&lock_facts));
    violations.extend(reach::unreached(pub_defs, &uses));
    let (topo_json, topo_violations) = topology::assemble(topologies, &corpus);
    violations.extend(topo_violations);
    violations.extend(manifest::manifest_pass(root));

    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Report { violations, topology: topo_json, files_scanned }
}

/// Compares the extracted topology against the committed artifact.
/// Returns a violation on drift (or a missing artifact).
pub fn check_topology_drift(root: &Path, extracted: &str) -> Option<Violation> {
    let committed = fs::read_to_string(root.join(TOPOLOGY_PATH)).unwrap_or_default();
    if committed.trim_end() == extracted.trim_end() {
        return None;
    }
    Some(Violation {
        file: TOPOLOGY_PATH.to_string(),
        line: 0,
        rule: "topology",
        message: if committed.is_empty() {
            "missing — run `cargo xtask analyze --write-topology` and commit the result".to_string()
        } else {
            "stale: the concurrency topology changed; rerun \
             `cargo xtask analyze --write-topology` and review the diff"
                .to_string()
        },
    })
}

/// A file's well-formed `analyze: allow(rule): reason` directives.
struct Allows(Vec<(String, usize)>);

impl Allows {
    /// A directive waives matching-rule violations on its own line and
    /// the next.
    fn waives(&self, v: &Violation) -> bool {
        self.0.iter().any(|(rule, line)| rule == v.rule && (v.line == *line || v.line == line + 1))
    }
}

/// Reads the file's allow directives; a malformed one, or one without a
/// reason, comes back as a violation instead.
fn allow_directives(rel: &str, lexed: &Lexed) -> (Allows, Vec<Violation>) {
    let mut allows = Vec::new();
    let mut out = Vec::new();
    for c in &lexed.comments {
        let Some(pos) = c.text.find("analyze: allow(") else { continue };
        let rest = &c.text[pos + "analyze: allow(".len()..];
        let Some(close) = rest.find(')') else {
            out.push(Violation {
                file: rel.to_string(),
                line: c.line,
                rule: "allow",
                message: "malformed allow directive: missing `)`".to_string(),
            });
            continue;
        };
        let reason = rest[close + 1..].trim_start_matches([':', ' ', '\t']);
        if reason.trim().is_empty() {
            out.push(Violation {
                file: rel.to_string(),
                line: c.line,
                rule: "allow",
                message: "allow directive without a reason — say why the finding is safe"
                    .to_string(),
            });
            continue;
        }
        allows.push((rest[..close].trim().to_string(), c.line));
    }
    (Allows(allows), out)
}

/// Recursively collects `.rs` files, sorted for stable output.
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return out,
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            // `target/` never lives inside crates/, but guard anyway.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn filter(rel: &str, src: &str, found: Vec<Violation>) -> Vec<Violation> {
        let (allows, mut out) = allow_directives(rel, &lex(src));
        out.extend(found.into_iter().filter(|v| !allows.waives(v)));
        out
    }

    fn v(rule: &'static str, line: usize) -> Violation {
        Violation { file: "f.rs".into(), line, rule, message: "m".into() }
    }

    #[test]
    fn allow_directive_waives_next_line_only_for_its_rule() {
        let src = "\
fn f() {
    // analyze: allow(hot-path): divisor proven nonzero two lines up
    let x = a / b;
}
";
        let kept = filter("f.rs", src, vec![v("hot-path", 3), v("shim", 3), v("hot-path", 4)]);
        let rules: Vec<(&str, usize)> = kept.iter().map(|x| (x.rule, x.line)).collect();
        assert_eq!(rules, vec![("shim", 3), ("hot-path", 4)], "{kept:?}");
    }

    #[test]
    fn allow_directive_without_reason_is_itself_a_violation() {
        let src = "// analyze: allow(unsafe)\nfn f() {}\n";
        let kept = filter("f.rs", src, vec![v("unsafe", 2)]);
        assert!(kept.iter().any(|x| x.rule == "allow"), "{kept:?}");
        // The unexplained directive does NOT waive the finding.
        assert!(kept.iter().any(|x| x.rule == "unsafe"), "{kept:?}");
    }

    #[test]
    fn topology_drift_is_detected_and_exact_match_is_clean() {
        let dir = std::env::temp_dir().join("xtask-drift-test");
        fs::create_dir_all(&dir).expect("tmp dir");
        fs::write(dir.join(TOPOLOGY_PATH), "{\n  \"schema\": 1\n}\n").expect("write");
        assert!(check_topology_drift(&dir, "{\n  \"schema\": 1\n}\n").is_none());
        let drift = check_topology_drift(&dir, "{\n  \"schema\": 2\n}\n").expect("drift");
        assert_eq!(drift.rule, "topology");
        assert!(drift.message.contains("stale"), "{drift}");
        fs::remove_dir_all(&dir).ok();
    }
}
