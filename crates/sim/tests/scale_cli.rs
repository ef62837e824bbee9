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
