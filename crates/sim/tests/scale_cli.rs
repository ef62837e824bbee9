//! Process-level test of the `scale` gauntlet's command line: the real
//! executable and its real exit status.

use std::process::Command;

/// A small gauntlet (4 front links, 2 of them active, 2 back links)
/// with `extra` appended; returns the exit code, stdout and stderr.
fn run_scale(extra: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_scale"))
        .args(["--front", "4", "--back", "2", "--active", "2", "--updates", "2"])
        .args(extra)
        .output()
        .expect("spawn scale");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

/// No tree node runs evaluation workers, so `--tree` with `--workers W`
/// is refused with the usage line before a socket is bound — it used to
/// run and report a worker count nothing used. The same tree without
/// workers runs to an exactly-once report.
#[test]
fn tree_with_workers_is_a_usage_error() {
    let (code, stdout, stderr) = run_scale(&["--tree", "2x2", "--workers", "2"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.starts_with("usage: scale"), "stderr: {stderr}");
    assert!(stdout.is_empty(), "nothing ran, so nothing is reported: {stdout}");

    let (code, stdout, stderr) = run_scale(&["--tree", "2x2", "--workers", "0"]);
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("tree: depth 2 fanout 2"), "stdout: {stdout}");
}

/// `--json` reports the helper threads that really ran next to the
/// shard count: `min(workers, cpus) - 1`, where `cpus` is what this
/// process may use (a child inherits its affinity mask).
#[test]
fn the_json_report_counts_the_helpers_that_ran() {
    let cpus = std::thread::available_parallelism().map_or(usize::MAX, std::num::NonZeroUsize::get);
    for workers in [0u64, 2, 3] {
        let (code, stdout, stderr) = run_scale(&["--workers", &workers.to_string(), "--json"]);
        assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
        let report = rcm_json::parse(&stdout).expect("--json prints one JSON document");
        let helpers = (workers as usize).min(cpus).saturating_sub(1) as u64;
        assert_eq!(
            report.field("workers").and_then(rcm_json::Json::u64).ok(),
            Some(workers),
            "{stdout}"
        );
        assert_eq!(
            report.field("helpers").and_then(rcm_json::Json::u64).ok(),
            Some(helpers),
            "{stdout}"
        );
    }
}
