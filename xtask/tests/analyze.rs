//! End-to-end self-tests for `cargo xtask analyze`: each analysis pass
//! is exercised against a synthetic workspace with a seeded violation
//! (proving the pass *fires*) and a corrected twin (proving it shuts
//! up), plus the acceptance gate — the real repository must be clean.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::analyze::{analyze_tree, check_topology_drift, TOPOLOGY_PATH};

/// Builds a throwaway workspace tree under the target-adjacent temp
/// dir and cleans it up on drop.
struct Tree {
    root: PathBuf,
}

impl Tree {
    fn new(name: &str, files: &[(&str, &str)]) -> Tree {
        let root =
            std::env::temp_dir().join(format!("xtask-analyze-{name}-{}", std::process::id()));
        fs::remove_dir_all(&root).ok();
        for (rel, src) in files {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().expect("files live under crates/")).expect("mkdir");
            fs::write(path, src).expect("write fixture");
        }
        Tree { root }
    }

    fn violations(&self) -> Vec<String> {
        analyze_tree(&self.root).violations.iter().map(|v| v.to_string()).collect()
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.root).ok();
    }
}

fn rules(violations: &[String]) -> Vec<&str> {
    let mut rules: Vec<&str> = violations
        .iter()
        .map(|v| {
            let open = v.find('[').expect("violation format");
            let close = v.find(']').expect("violation format");
            &v[open + 1..close]
        })
        .collect();
    rules.sort();
    rules.dedup();
    rules
}

// ---- shim discipline -----------------------------------------------

#[test]
fn seeded_shim_violation_fails_and_fixed_tree_passes() {
    let bad = Tree::new(
        "shim-bad",
        &[(
            "crates/runtime/src/evil.rs",
            "use std::sync::Mutex;\nfn f() { std::thread::spawn(|| {}); }\n",
        )],
    );
    assert_eq!(rules(&bad.violations()), ["shim"], "{:?}", bad.violations());

    let good = Tree::new(
        "shim-good",
        &[(
            "crates/runtime/src/fine.rs",
            "use rcm_sync::Mutex;\nfn f() { rcm_sync::thread::spawn(|| {}); }\n",
        )],
    );
    assert_eq!(good.violations(), Vec::<String>::new());
}

#[test]
fn shim_violation_inside_a_use_group_is_resolved() {
    let bad = Tree::new(
        "shim-group",
        &[("crates/transport/src/evil.rs", "use std::{io, sync::atomic::AtomicU64};\n")],
    );
    assert_eq!(rules(&bad.violations()), ["shim"], "{:?}", bad.violations());
}

// ---- hot-path panic freedom ----------------------------------------

#[test]
fn seeded_hot_path_violations_fail_and_test_code_is_exempt() {
    let bad = Tree::new(
        "hot-bad",
        &[(
            "crates/core/src/registry.rs",
            "fn f(v: &[u8], i: usize) -> u8 { v[i] }\nfn g(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )],
    );
    let got = bad.violations();
    assert_eq!(rules(&got), ["hot-path"], "{got:?}");
    assert_eq!(got.len(), 2, "index and unwrap both fire: {got:?}");

    let good = Tree::new(
        "hot-good",
        &[(
            "crates/core/src/registry.rs",
            "fn f(v: &[u8], i: usize) -> Option<&u8> { v.get(i) }\n\
             #[cfg(test)]\nmod tests {\n    fn t(x: Option<u8>) -> u8 { x.unwrap() }\n}\n",
        )],
    );
    assert_eq!(good.violations(), Vec::<String>::new());
}

#[test]
fn seeded_division_violation_fails_and_proven_divisor_passes() {
    let bad = Tree::new(
        "div-bad",
        &[("crates/core/src/latency.rs", "fn f(a: u64, b: u64) -> u64 { a / b }\n")],
    );
    assert_eq!(rules(&bad.violations()), ["hot-path"], "{:?}", bad.violations());

    let good = Tree::new(
        "div-good",
        &[("crates/core/src/latency.rs", "fn f(a: u64, b: u64) -> u64 { a / b.max(1) }\n")],
    );
    assert_eq!(good.violations(), Vec::<String>::new());
}

// ---- unsafe audit ---------------------------------------------------

#[test]
fn seeded_unsafe_outside_allowlist_fails() {
    let bad = Tree::new(
        "unsafe-bad",
        &[(
            "crates/core/src/history.rs",
            "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n",
        )],
    );
    assert_eq!(rules(&bad.violations()), ["unsafe"], "{:?}", bad.violations());
}

#[test]
fn seeded_unsafe_in_allowlisted_file_without_safety_comment_fails() {
    let bad = Tree::new(
        "safety-bad",
        &[("crates/poll/src/sys.rs", "fn f(p: *const u8) -> u8 { unsafe { p.read() } }\n")],
    );
    assert_eq!(rules(&bad.violations()), ["unsafe"], "{:?}", bad.violations());

    let good = Tree::new(
        "safety-good",
        &[(
            "crates/poll/src/sys.rs",
            "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller upholds validity.\n    unsafe { p.read() }\n}\n",
        )],
    );
    assert_eq!(good.violations(), Vec::<String>::new());
}

// ---- event-loop discipline ------------------------------------------

#[test]
fn seeded_blocking_call_in_the_engine_fails() {
    let bad = Tree::new(
        "loop-bad",
        &[(
            "crates/transport/src/engine/evil.rs",
            "fn f(s: &mut std::net::TcpStream, buf: &[u8]) { s.write_all(buf).ok(); }\n",
        )],
    );
    assert_eq!(rules(&bad.violations()), ["event-loop"], "{:?}", bad.violations());
}

#[test]
fn blocking_calls_outside_the_engine_directory_are_legal() {
    let good = Tree::new(
        "loop-good",
        &[(
            "crates/transport/src/udp.rs",
            "fn f(s: &mut std::net::TcpStream, buf: &[u8]) { s.write_all(buf).ok(); }\n",
        )],
    );
    assert_eq!(good.violations(), Vec::<String>::new());
}

// ---- lock order ------------------------------------------------------

/// The acceptance-criteria scenario: file A locks `a` then `b`, file B
/// locks `b` then `a`, both declaring their own edge honestly — the
/// cross-file cycle must still be detected.
#[test]
fn injected_lock_order_cycle_across_files_fails() {
    let bad = Tree::new(
        "cycle-bad",
        &[
            (
                "crates/runtime/src/x.rs",
                "// LOCK ORDER: a -> b\n\
                 fn f(a: &Mutex<u8>, b: &Mutex<u8>) { let ga = a.lock(); let gb = b.lock(); }\n",
            ),
            (
                "crates/transport/src/y.rs",
                "// LOCK ORDER: b -> a\n\
                 fn g(a: &Mutex<u8>, b: &Mutex<u8>) { let gb = b.lock(); let ga = a.lock(); }\n",
            ),
        ],
    );
    let got = bad.violations();
    assert_eq!(rules(&got), ["lock-order"], "{got:?}");
    assert!(got.iter().any(|v| v.contains("cycle")), "{got:?}");

    // Same files, same declarations, but y.rs takes them in the
    // declared a -> b order: acyclic, clean.
    let good = Tree::new(
        "cycle-good",
        &[
            (
                "crates/runtime/src/x.rs",
                "// LOCK ORDER: a -> b\n\
                 fn f(a: &Mutex<u8>, b: &Mutex<u8>) { let ga = a.lock(); let gb = b.lock(); }\n",
            ),
            (
                "crates/transport/src/y.rs",
                "// LOCK ORDER: a -> b\n\
                 fn g(a: &Mutex<u8>, b: &Mutex<u8>) { let ga = a.lock(); let gb = b.lock(); }\n",
            ),
        ],
    );
    assert_eq!(good.violations(), Vec::<String>::new());
}

#[test]
fn undeclared_nested_acquisition_fails_even_without_a_cycle() {
    let bad = Tree::new(
        "edge-bad",
        &[(
            "crates/runtime/src/x.rs",
            "// LOCK ORDER: leaf file, single lock.\n\
             fn f(a: &Mutex<u8>, b: &Mutex<u8>) { let ga = a.lock(); let gb = b.lock(); }\n",
        )],
    );
    let got = bad.violations();
    assert_eq!(rules(&got), ["lock-order"], "{got:?}");
}

#[test]
fn locking_file_without_annotation_fails() {
    let bad = Tree::new(
        "ann-bad",
        &[("crates/poll/src/x.rs", "fn f(m: &Mutex<u8>) { let g = m.lock(); }\n")],
    );
    assert_eq!(rules(&bad.violations()), ["lock-order"], "{:?}", bad.violations());
}

// ---- topology --------------------------------------------------------

#[test]
fn bounded_ring_without_shed_or_backpressure_fails() {
    let bad = Tree::new(
        "topo-bad",
        &[
            ("crates/runtime/src/x.rs", "fn f() { let (tx, rx) = spsc::ring::<u8>(64); }\n"),
            ("crates/runtime/tests/loom.rs", "fn m() { let (tx, rx) = spsc::ring::<u8>(2); }\n"),
        ],
    );
    let got = bad.violations();
    assert_eq!(rules(&got), ["topology"], "{got:?}");
    assert!(got.iter().any(|v| v.contains("shed")), "{got:?}");
}

#[test]
fn unmodeled_bounded_handoff_fails() {
    // A bounded ring with a shed path but no loom model anywhere.
    let bad = Tree::new(
        "topo-unmodeled",
        &[(
            "crates/runtime/src/x.rs",
            "fn f() -> bool { let (tx, rx) = spsc::ring::<u8>(64); would_shed(&tx) }\n",
        )],
    );
    let got = bad.violations();
    assert_eq!(rules(&got), ["topology"], "{got:?}");
    assert!(got.iter().any(|v| v.contains("loom")), "{got:?}");
}

#[test]
fn topology_drift_fails_and_write_then_check_round_trips() {
    let tree = Tree::new(
        "topo-drift",
        &[
            (
                "crates/runtime/src/x.rs",
                "fn f() -> bool { let (tx, rx) = spsc::ring::<u8>(64); count_shed() }\n",
            ),
            ("crates/runtime/tests/loom.rs", "fn m() { let (tx, rx) = spsc::ring::<u8>(2); }\n"),
        ],
    );
    let report = analyze_tree(&tree.root);
    assert_eq!(report.violations.len(), 0, "{:?}", report.violations);

    // No artifact yet: drift.
    let missing = check_topology_drift(&tree.root, &report.topology).expect("missing artifact");
    assert!(missing.to_string().contains("missing"), "{missing}");

    // Write it: clean.
    fs::write(tree.root.join(TOPOLOGY_PATH), &report.topology).expect("write artifact");
    assert!(check_topology_drift(&tree.root, &report.topology).is_none());

    // Tamper with the committed copy: drift again.
    fs::write(tree.root.join(TOPOLOGY_PATH), report.topology.replace("64", "65")).expect("tamper");
    let drift = check_topology_drift(&tree.root, &report.topology).expect("tampered artifact");
    assert!(drift.to_string().contains("stale"), "{drift}");
}

// ---- parse gaps ------------------------------------------------------

#[test]
fn unparseable_code_is_reported_not_ignored() {
    let bad = Tree::new("gap-bad", &[("crates/runtime/src/x.rs", "fn f() { let x = @@@; }\n")]);
    assert_eq!(rules(&bad.violations()), ["parse"], "{:?}", bad.violations());
}

// ---- allow directives ------------------------------------------------

#[test]
fn allow_directive_with_reason_waives_and_reasonless_fails() {
    let good = Tree::new(
        "allow-good",
        &[(
            "crates/core/src/registry.rs",
            "fn f(v: &[u8], i: usize) -> u8 {\n\
             \x20   // analyze: allow(hot-path): i is masked by the caller\n\
             \x20   v[i]\n}\n",
        )],
    );
    assert_eq!(good.violations(), Vec::<String>::new());

    let bad = Tree::new(
        "allow-bad",
        &[(
            "crates/core/src/registry.rs",
            "fn f(v: &[u8], i: usize) -> u8 {\n\
             \x20   // analyze: allow(hot-path)\n\
             \x20   v[i]\n}\n",
        )],
    );
    let got = bad.violations();
    assert_eq!(rules(&got), ["allow", "hot-path"], "{got:?}");
}

// ---- manifests -----------------------------------------------------

#[test]
fn unlisted_registry_crate_fails_even_when_used() {
    let bad = Tree::new(
        "manifest-unlisted",
        &[
            (
                "crates/x/Cargo.toml",
                "[package]\nname = \"x\"\n\n[dependencies]\nrand.workspace = true\n",
            ),
            ("crates/x/src/lib.rs", "fn f() -> u64 { rand::random() }\n"),
        ],
    );
    let got = bad.violations();
    assert_eq!(rules(&got), ["manifest"], "{got:?}");
    assert!(got[0].starts_with("crates/x/Cargo.toml:5:") && got[0].contains("`rand`"), "{got:?}");
}

#[test]
fn serde_is_no_longer_on_the_allowlist() {
    let bad = Tree::new(
        "manifest-serde",
        &[
            (
                "crates/x/Cargo.toml",
                "[package]\nname = \"x\"\n\n[dependencies]\nserde.workspace = true\nserde_json.workspace = true\n",
            ),
            (
                "crates/x/src/lib.rs",
                "#[derive(serde::Serialize)]\npub struct S;\nfn f() -> String { serde_json::to_string(&S).unwrap() }\n",
            ),
        ],
    );
    let got = bad.violations();
    assert_eq!((rules(&got), got.len()), (vec!["manifest"], 2), "{got:?}");
    assert!(got[0].starts_with("crates/x/Cargo.toml:5:") && got[0].contains("`serde`"), "{got:?}");
    assert!(
        got[1].starts_with("crates/x/Cargo.toml:6:") && got[1].contains("`serde_json`"),
        "{got:?}"
    );
}

#[test]
fn proptest_is_no_longer_on_the_allowlist() {
    let bad = Tree::new(
        "manifest-proptest",
        &[
            (
                "crates/x/Cargo.toml",
                "[package]\nname = \"x\"\n\n[dev-dependencies]\nproptest.workspace = true\n",
            ),
            ("crates/x/src/lib.rs", "fn f() {}\n"),
            ("crates/x/tests/props.rs", "use proptest::prelude::*;\n"),
        ],
    );
    let got = bad.violations();
    assert_eq!((rules(&got), got.len()), (vec!["manifest"], 1), "{got:?}");
    assert!(
        got[0].starts_with("crates/x/Cargo.toml:5:") && got[0].contains("`proptest`"),
        "{got:?}"
    );
}

#[test]
fn listed_but_unused_crate_fails_and_a_used_one_passes() {
    let manifest = "[dependencies]\nrcm-core.workspace = true\n\n[dev-dependencies]\nrcm-net.workspace = true\n";
    // Prose is not use: the only mention of rcm_net is a comment.
    let bad = Tree::new(
        "manifest-unused",
        &[
            ("crates/x/Cargo.toml", manifest),
            ("crates/x/src/lib.rs", "//! No rcm_net here.\npub use rcm_core::Update;\n"),
        ],
    );
    let got = bad.violations();
    assert_eq!(rules(&got), ["manifest"], "{got:?}");
    assert!(
        got[0].starts_with("crates/x/Cargo.toml:5:") && got[0].contains("`rcm-net`"),
        "{got:?}"
    );

    let good = Tree::new(
        "manifest-used",
        &[
            ("crates/x/Cargo.toml", manifest),
            ("crates/x/src/lib.rs", "pub use rcm_core::Update;\n"),
            ("crates/x/tests/props.rs", "use rcm_net::cases;\n"),
        ],
    );
    assert_eq!(good.violations(), Vec::<String>::new());
}

#[test]
fn only_a_cfg_that_requires_test_exempts_hot_path_code() {
    // `any(test, loom)` is built under loom, and `cfg_attr(test, …)`
    // never removes its item: both are production code.
    let tree = Tree::new(
        "hot-cfg",
        &[(
            "crates/core/src/registry.rs",
            "#[cfg(any(test, loom))]\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
             #[cfg_attr(test, allow(dead_code))]\nfn g(v: &[u8], i: usize) -> u8 { v[i] }\n\
             #[cfg(all(test, not(loom)))]\nfn h(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )],
    );
    let got = tree.violations();
    assert_eq!(rules(&got), ["hot-path"], "{got:?}");
    assert_eq!(got.len(), 2, "f's unwrap and g's index fire, h is test code: {got:?}");
}

// ---- reach: no public item without a caller ---------------------------

/// The names the `reach` pass flags in a tree, sorted.
fn unreached(tree: &Tree) -> Vec<String> {
    let mut names: Vec<String> = analyze_tree(&tree.root)
        .violations
        .iter()
        .filter(|v| v.rule == "reach")
        .map(|v| v.message.split('`').nth(1).expect("name in backticks").to_string())
        .collect();
    names.sort();
    names
}

#[test]
fn reach_flags_pub_items_that_only_tests_docs_or_nobody_name() {
    let tree = Tree::new(
        "reach-dead",
        &[
            (
                "crates/x/src/lib.rs",
                "/// Call [`doc_only`] to see.\n\
                 pub fn dead() {}\n\
                 pub fn unit_tested() {}\n\
                 pub fn integration_tested() {}\n\
                 pub fn doc_only() {}\n\
                 #[cfg(test)]\n\
                 mod tests {\n    #[test]\n    fn t() { super::unit_tested(); }\n}\n",
            ),
            // A helper, not a `#[test]`: only the directory keeps it out.
            ("crates/x/tests/it.rs", "fn setup() { x::integration_tested(); }\n"),
        ],
    );
    assert_eq!(unreached(&tree), ["dead", "doc_only", "integration_tested", "unit_tested"]);
}

#[test]
fn reach_counts_callers_under_a_cfg_that_does_not_require_test() {
    let tree = Tree::new(
        "reach-cfg",
        &[(
            "crates/x/src/lib.rs",
            "pub fn under_loom() {}\n\
             pub fn under_attribute() {}\n\
             pub fn under_test() {}\n\
             #[cfg(any(test, loom))]\nfn a() { under_loom(); }\n\
             #[cfg_attr(test, allow(dead_code))]\nfn b() { under_attribute(); }\n\
             #[cfg(all(test, not(loom)))]\nfn c() { under_test(); }\n",
        )],
    );
    assert_eq!(unreached(&tree), ["under_test"]);
}

/// A file that only a `#[cfg(test)] mod NAME;` pulls in is test code,
/// and so is every module it declares in turn: none of them is a
/// caller, and none defines an item that must have one. A `mod NAME;`
/// outside a test scope still pulls in a caller.
#[test]
fn reach_ignores_files_only_an_out_of_line_test_module_pulls_in() {
    let tree = Tree::new(
        "reach-test-mod",
        &[
            (
                "crates/x/src/lib.rs",
                "pub fn only_tested() {}
                 pub fn called() {}
                 mod inner;
                 #[cfg(test)]
mod tests;
",
            ),
            (
                "crates/x/src/tests.rs",
                "fn helper() { super::only_tested(); }
mod deeper;
",
            ),
            (
                "crates/x/src/tests/deeper.rs",
                "pub fn test_helper() { only_tested(); }
",
            ),
            (
                "crates/x/src/inner.rs",
                "fn f() { super::called(); }
#[cfg(test)]
mod checks;
",
            ),
            (
                "crates/x/src/inner/checks/mod.rs",
                "pub fn assert_ok() { only_tested(); }
",
            ),
        ],
    );
    assert_eq!(unreached(&tree), ["only_tested"]);
}

/// A `pub use` passes a name on and calls nothing: an item that only
/// its crate root re-exports (under any `pub` visibility) is flagged.
#[test]
fn reach_flags_items_that_only_a_re_export_names() {
    let tree = Tree::new(
        "reach-reexport",
        &[
            (
                "crates/x/src/lib.rs",
                "mod m;\npub use m::{listed, Listed};\npub(crate) use m::crate_only;\n",
            ),
            (
                "crates/x/src/m.rs",
                "pub fn listed() {}\npub struct Listed;\npub fn crate_only() {}\n",
            ),
        ],
    );
    assert_eq!(unreached(&tree), ["crate_only", "listed"]);
}

/// The fixed twin: the same re-exports, and a caller for each item.
#[test]
fn reach_counts_a_caller_beside_the_re_export() {
    let tree = Tree::new(
        "reach-reexport-called",
        &[
            ("crates/x/src/lib.rs", "mod m;\npub use m::{listed, Listed};\npub(crate) use m::crate_only;\nfn f() { crate_only(); }\n"),
            ("crates/x/src/m.rs", "pub fn listed() {}\npub struct Listed;\npub fn crate_only() {}\n"),
            ("crates/y/src/lib.rs", "pub fn g() { x::listed(); }\n"),
            ("crates/y/src/bin/tool.rs", "fn main() { y::g(); }\n"),
        ],
    );
    assert_eq!(unreached(&tree), Vec::<String>::new());
}

#[test]
fn reach_counts_binaries_the_benchmark_examples_patterns_and_path_values() {
    let tree = Tree::new(
        "reach-used",
        &[
            (
                "crates/x/src/lib.rs",
                "pub fn for_bin() {}\n\
                 pub fn for_bench() {}\n\
                 pub fn for_example() {}\n\
                 pub const TAG: u8 = 5;\n\
                 pub struct Link;\n\
                 impl Link {\n    pub fn send_fin(&self) {}\n}\n",
            ),
            (
                "crates/y/src/lib.rs",
                "pub fn tag(b: u8) -> bool {\n    match b {\n        x::TAG => true,\n        _ => false,\n    }\n}\n\
                 pub fn fins(links: &[x::Link]) {\n    links.iter().for_each(x::Link::send_fin);\n}\n",
            ),
            ("crates/y/src/bin/tool.rs", "fn main() { x::for_bin(); y::tag(0); y::fins(&[]); }\n"),
            ("benchmark/src/main.rs", "fn main() { x::for_bench(); }\n"),
            ("examples/demo.rs", "fn main() { x::for_example(); }\n"),
        ],
    );
    assert_eq!(unreached(&tree), Vec::<String>::new());
}

#[test]
fn reach_waivers_need_a_reason() {
    let tree = Tree::new(
        "reach-allow",
        &[(
            "crates/x/src/lib.rs",
            "// analyze: allow(reach): the reference the tests compare against\n\
             pub fn waived() {}\n\
             // analyze: allow(reach)\n\
             pub fn unexplained() {}\n",
        )],
    );
    let got = tree.violations();
    assert_eq!(rules(&got), ["allow", "reach"], "{got:?}");
    assert_eq!(unreached(&tree), ["unexplained"]);
}

// ---- the acceptance gate: this repository is clean -------------------

#[test]
fn the_tree_is_clean_and_the_committed_topology_is_fresh() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repo root").to_path_buf();
    let report = analyze_tree(&root);
    assert_eq!(
        report.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
        Vec::<String>::new()
    );
    assert!(report.files_scanned > 100, "walk found the workspace");
    if let Some(drift) = check_topology_drift(&root, &report.topology) {
        panic!("{drift}");
    }
}
