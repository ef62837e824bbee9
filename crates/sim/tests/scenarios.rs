//! The committed scenario files load unedited, build and run: the
//! `simulate` CLI's inputs are read by the same `Scenario::from_json`
//! these tests call.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use rcm_core::condition::Condition;
use rcm_core::VarRegistry;
use rcm_sim::{run, DelaySpec, LossSpec, Scenario, ValueSpec, VarWorkload};

fn load(name: &str) -> (Scenario, VarRegistry) {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios").join(name);
    let text = std::fs::read_to_string(&path).expect("scenario file is readable");
    let doc = rcm_json::parse(&text).expect("scenario file is JSON");
    Scenario::from_json(&doc).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn reactor_reads_as_written() {
    let (sc, registry) = load("reactor.json");
    assert_eq!(sc.condition.name(), "temp[0].value - temp[-1].value > 200 && consecutive(temp)");
    assert_eq!(sc.replicas, 3);
    let want = VarWorkload {
        var: registry.lookup("temp").expect("temp is registered"),
        updates: 60,
        period: 10,
        offset: 0,
        values: ValueSpec::RandomWalk { start: 2800.0, step: 260.0, lo: 2000.0, hi: 3600.0 },
    };
    assert_eq!(sc.workloads, [want]);
    assert_eq!(sc.front_loss, [LossSpec::Burst { target: 0.2, burst_len: 3.0 }]);
    assert_eq!(sc.front_delay, [DelaySpec::Uniform(0, 4)]);
    assert_eq!(sc.back_delay, [DelaySpec::Uniform(0, 25)]);
    assert!(sc.outages.is_empty() && sc.ad_outages.is_empty());
    assert_eq!((sc.seed, sc.link_salt), (2026, 0));
}

#[test]
fn every_committed_scenario_builds_and_runs_reproducibly() {
    let mut names: Vec<String> = std::fs::read_dir(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios"),
    )
    .expect("scenario directory")
    .map(|e| e.expect("directory entry").file_name().to_string_lossy().into_owned())
    .filter(|n| n.ends_with(".json"))
    .collect();
    names.sort();
    assert_eq!(names, ["reactor.json", "stock.json", "two_reactors.json"]);
    for name in &names {
        let (first, registry) = load(name);
        let updates: u64 = first.workloads.iter().map(|w| w.updates).sum();
        let replicas = first.replicas;
        for w in &first.workloads {
            assert!(registry.name(w.var).is_some(), "{name}: {}", w.var);
        }
        let second = first.clone();
        let a = run(first);
        assert_eq!(a.stats.updates_emitted, updates, "{name}");
        assert_eq!(a.inputs.len(), replicas, "{name}");
        // Same scenario, same seed: the same arrivals, provenance included.
        let b = run(second);
        let ids = |r: &rcm_sim::RunResult| {
            r.arrivals.iter().map(|x| (x.clone(), x.id)).collect::<Vec<_>>()
        };
        assert_eq!(ids(&a), ids(&b), "{name}");
    }
}

/// Runs `simulate` with `args`, feeding `stdin` to it.
fn simulate(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn simulate");
    child.stdin.take().expect("stdin").write_all(stdin.as_bytes()).expect("write the spec");
    child.wait_with_output().expect("simulate exits")
}

/// Asserts `out` failed with exit 1 and exactly one stderr line, an
/// `error:` line containing `want`.
fn assert_refused(out: &Output, want: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "one line, no panic: {stderr}");
    assert!(lines[0].starts_with("error: ") && lines[0].contains(want), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing on stdout");
}

#[test]
fn simulate_refuses_a_spec_that_cannot_run_with_one_error_line() {
    let spec = |extra: &str, values: &str| {
        format!(
            r#"{{"condition": "x[0].value > 0", {extra} "workloads": [
                {{"var": "x", "updates": 3, "period": 1, "values": {values}}}]}}"#
        )
    };
    let script = r#"{"Scripted": [1.0]}"#;
    for (text, want) in [
        (spec(r#""front_delay": [{"Uniform": [5, 1]}],"#, script), "front_delay[0]: delay bounds"),
        (spec("", r#"{"Scripted": []}"#), "workloads[0]: values: scripted values"),
        (spec(r#""replicas": 0,"#, script), "replicas: need at least one replica"),
        (spec(r#""front_loss": [{"Bernoulli": 1.5}],"#, script), "front_loss[0]: loss probability"),
    ] {
        assert_refused(&simulate(&["-"], &text), want);
    }
}

#[test]
fn simulate_refuses_a_filter_the_variable_count_does_not_allow() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios/two_reactors.json");
    let path = path.to_str().expect("UTF-8 path");
    for filter in ["ad2", "ad3", "ad4"] {
        let out = simulate(&[path, "--filter", filter], "");
        assert_refused(&out, &format!("filter '{filter}' unavailable for this variable count"));
    }
    let out = simulate(&[path, "--filter", "ad6"], "");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

/// `simulate --json` on a committed file: the report reads back with the
/// shared reader, and every displayed alert reads back as an alert.
#[test]
fn simulate_json_report_reads_back() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios/reactor.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simulate"))
        .arg(&path)
        .args(["--filter", "ad4", "--json"])
        .output()
        .expect("spawn simulate");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let doc = rcm_json::parse(&String::from_utf8_lossy(&out.stdout)).expect("report is JSON");
    let field = |path: &[&str]| path.iter().try_fold(&doc, |j, k| j.field(k)).expect("field");
    assert_eq!(field(&["filter"]).as_str(), Some("AD-4"));
    assert_eq!(field(&["stats", "updates_emitted"]).as_u64(), Some(60));
    // AD-4 guarantees orderedness and consistency on a single variable.
    assert_eq!(field(&["properties", "ordered"]), &rcm_json::Json::Bool(true));
    assert_eq!(field(&["properties", "consistent"]), &rcm_json::Json::Bool(true));
    let displayed = field(&["displayed"]).arr().expect("displayed alerts");
    assert_eq!(Some(displayed.len() as u64), field(&["stats", "alerts_displayed"]).as_u64());
    assert!(!displayed.is_empty(), "reactor.json displays alerts under AD-4");
    for a in displayed {
        rcm_core::Alert::from_json(a).expect("a displayed alert reads back");
    }
}
