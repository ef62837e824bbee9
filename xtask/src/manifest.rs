//! The manifest pass: a workspace member names a crate only if it is
//! one of ours or on the short registry allowlist, and only if its own
//! sources use it. Dependencies are code too; this keeps their count
//! from creeping back up between the PRs that bring it down.
//!
//! The reader is line-based on purpose: every manifest here declares a
//! dependency as `name.workspace = true` (or `name = …` in the root's
//! `[workspace.dependencies]`), one per line.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use crate::analyze::rust_files;
use crate::lexer::{self, TokenKind};
use crate::passes::Violation;

/// Registry crates a manifest may still name. A constant, not an
/// option: the PRs that replace serde and proptest shrink it to empty.
const REGISTRY_ALLOWED: &[&str] = &["serde", "serde_json", "proptest"];

/// Where cargo looks for a package's targets, relative to its manifest.
const TARGET_DIRS: &[&str] = &["src", "tests", "examples", "benches"];

/// Checks the root package, every `crates/*` member and `xtask`.
/// Directories without a `Cargo.toml` are skipped.
pub fn manifest_pass(root: &Path) -> Vec<Violation> {
    let mut members = vec![String::new(), "xtask/".to_string()];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        members.extend(
            entries
                .filter_map(Result::ok)
                .map(|e| format!("crates/{}/", e.file_name().to_string_lossy())),
        );
    }
    members.sort();

    let mut out = Vec::new();
    for member in &members {
        let rel = format!("{member}Cargo.toml");
        let Ok(manifest) = fs::read_to_string(root.join(&rel)) else { continue };
        let mut idents: Option<BTreeSet<String>> = None;
        for (line, key, must_be_used) in dependency_keys(&manifest) {
            let mut flag = |message: String| {
                out.push(Violation { file: rel.clone(), line, rule: "manifest", message });
            };
            if !key.starts_with("rcm-") && !REGISTRY_ALLOWED.contains(&key) {
                flag(format!(
                    "`{key}` is neither an rcm-* path crate nor on the registry allowlist \
                     {REGISTRY_ALLOWED:?}"
                ));
            }
            if must_be_used
                && !idents
                    .get_or_insert_with(|| package_idents(&root.join(member)))
                    .contains(&key.replace('-', "_"))
            {
                flag(format!("`{key}` is named here but no source file of the package uses it"));
            }
        }
    }
    out
}

/// `(line, name, must_be_used)` for every dependency line of a
/// manifest. `[workspace.dependencies]` only declares versions, so its
/// names need no user in the root package.
fn dependency_keys(manifest: &str) -> Vec<(usize, &str, bool)> {
    let mut out = Vec::new();
    let mut must_be_used = None;
    for (idx, line) in manifest.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('[') {
            must_be_used = match line {
                "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]" => Some(true),
                "[workspace.dependencies]" => Some(false),
                _ => None,
            };
        } else if let Some(must_be_used) = must_be_used {
            let key = line.split(['.', '=', ' ']).next().unwrap_or_default();
            if !key.is_empty() && !key.starts_with('#') {
                out.push((idx + 1, key, must_be_used));
            }
        }
    }
    out
}

/// Every identifier in the package's own target directories. Comments
/// are not code: a crate mentioned only in prose is not used.
fn package_idents(package: &Path) -> BTreeSet<String> {
    let mut files: Vec<_> = TARGET_DIRS.iter().flat_map(|d| rust_files(&package.join(d))).collect();
    files.push(package.join("build.rs"));
    let mut idents = BTreeSet::new();
    for src in files.iter().filter_map(|path| fs::read_to_string(path).ok()) {
        let tokens = lexer::lex(&src).tokens;
        idents.extend(tokens.into_iter().filter(|t| t.kind == TokenKind::Ident).map(|t| t.text));
    }
    idents
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dependency_keys_reads_the_three_line_shapes_and_nothing_else() {
        let manifest = "\
[package]
name = \"rcm-x\"

[workspace.dependencies]
rcm-core = { path = \"crates/core\" }
serde = { version = \"1\", features = [\"derive\"] }

[dependencies]
# a comment
rcm-core.workspace = true

[dev-dependencies]
proptest.workspace = true

[lints.rust]
unexpected_cfgs = { level = \"warn\" }
";
        assert_eq!(
            dependency_keys(manifest),
            [
                (5, "rcm-core", false),
                (6, "serde", false),
                (10, "rcm-core", true),
                (13, "proptest", true)
            ]
        );
    }
}
