//! `cargo xtask assert-chaos <report.json>` — the CI-side schema and
//! invariant check over the chaos gauntlet's JSON report. Replaces the
//! inline Python that used to live in ci.yml, so the assertions are
//! compiled, unit-tested, and versioned with the schema they check.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use rcm_json::{self as json, Json};

pub fn assert_chaos(path: &Path) -> ExitCode {
    let raw = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xtask assert-chaos: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let doc = match json::parse(&raw) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("xtask assert-chaos: {} is not valid JSON: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let problems = check_chaos_report(&doc);
    if problems.is_empty() {
        let runs = doc.get("runs").and_then(Json::as_arr).map_or(0, <[_]>::len);
        println!("xtask assert-chaos: schema and invariants hold over {runs} run(s)");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("{}: {p}", path.display());
        }
        eprintln!("xtask assert-chaos: {} problem(s)", problems.len());
        ExitCode::FAILURE
    }
}

/// Every invariant the chaos report must satisfy. Mirrors what the
/// simulator promises: per-link transport counters in the totals and
/// in every run, a socket smoke that matched the in-process pipeline,
/// live engine counters proving the evented loop actually ran, and a
/// tree gauntlet section (≥ 10 plans, zero violations, re-parent and
/// replay counters that moved) proving the aggregation-tree fault
/// classes actually exercised their recovery machinery.
pub fn check_chaos_report(doc: &Json) -> Vec<String> {
    let mut out = Vec::new();
    let num = |obj: &Json, key: &str| obj.get(key).and_then(Json::as_f64);

    let Some(totals) = doc.get("totals") else {
        return vec!["missing `totals` object".to_string()];
    };
    for key in [
        "front_frames_dropped",
        "backlink_reconnects",
        "front_frames_sent",
        "front_updates_sent",
        "front_bytes_sent",
        "updates_per_datagram",
        "engine_wakeups",
        "engine_timer_fires",
        "engine_spurious_readiness",
        "latency_p50_ns",
        "latency_p99_ns",
        "latency_p999_ns",
    ] {
        if totals.get(key).is_none() {
            out.push(format!("totals missing `{key}`"));
        }
    }
    let updates = num(totals, "front_updates_sent").unwrap_or(-1.0);
    let frames = num(totals, "front_frames_sent").unwrap_or(-1.0);
    if !(updates >= frames && frames > 0.0) {
        out.push(format!(
            "expected front_updates_sent >= front_frames_sent > 0, got {updates} and {frames}"
        ));
    }
    if num(totals, "engine_wakeups").unwrap_or(0.0) <= 0.0 {
        out.push("engine_wakeups is zero — the evented socket smoke never polled".to_string());
    }
    let p50 = num(totals, "latency_p50_ns").unwrap_or(0.0);
    let p999 = num(totals, "latency_p999_ns").unwrap_or(0.0);
    if p999 < p50 {
        out.push(format!("latency percentiles not monotone: p999 {p999} < p50 {p50}"));
    }

    match doc.get("socket_smoke") {
        None => out.push("missing `socket_smoke` (evented loopback vs in-process)".to_string()),
        Some(smoke) => {
            match smoke.get("violations").and_then(Json::as_arr) {
                None => out.push("socket_smoke missing `violations` array".to_string()),
                Some(v) if !v.is_empty() => {
                    out.push(format!("socket smoke reported {} violation(s)", v.len()));
                }
                Some(_) => {}
            }
            if smoke.get("transport").is_none() {
                out.push("socket_smoke missing `transport` report".to_string());
            }
        }
    }

    match doc.get("tree") {
        None => out.push("missing `tree` section (aggregation-tree gauntlet)".to_string()),
        Some(tree) => {
            if num(tree, "plans").unwrap_or(0.0) < 10.0 {
                out.push("tree gauntlet ran fewer than 10 plans".to_string());
            }
            if num(tree, "violations").is_none_or(|v| v != 0.0) {
                out.push("tree gauntlet reported violations".to_string());
            }
            match tree.get("totals") {
                None => out.push("tree missing `totals` object".to_string()),
                Some(totals) => {
                    for key in [
                        "updates_routed",
                        "derived_emitted",
                        "derived_forwarded",
                        "derived_duplicates",
                        "reparent_events",
                        "replayed_frames",
                        "frames_to_dead",
                        "root_alerts",
                        "wire_frames",
                        "wire_bytes",
                    ] {
                        if totals.get(key).is_none() {
                            out.push(format!("tree totals missing `{key}`"));
                        }
                    }
                    // The subtree-kill class runs every fifth plan, so
                    // a full sweep must have re-parented and replayed.
                    if num(totals, "reparent_events").unwrap_or(0.0) <= 0.0 {
                        out.push(
                            "tree reparent_events is zero — subtree-kill class never re-parented"
                                .to_string(),
                        );
                    }
                    if num(totals, "replayed_frames").unwrap_or(0.0) <= 0.0 {
                        out.push(
                            "tree replayed_frames is zero — recovery classes replayed nothing"
                                .to_string(),
                        );
                    }
                    if num(totals, "root_alerts").unwrap_or(0.0) <= 0.0 {
                        out.push(
                            "tree root_alerts is zero — no alerts reached the root".to_string(),
                        );
                    }
                }
            }
            match tree.get("runs").and_then(Json::as_arr) {
                None => out.push("tree missing `runs` array".to_string()),
                Some([]) => out.push("tree `runs` is empty".to_string()),
                Some(runs) => {
                    for (i, run) in runs.iter().enumerate() {
                        if run.get("class").is_none() {
                            out.push(format!("tree run {i}: missing `class`"));
                        }
                        match run.get("violations").and_then(Json::as_arr) {
                            None => out.push(format!("tree run {i}: missing `violations` array")),
                            Some(v) if !v.is_empty() => {
                                out.push(format!("tree run {i}: {} violation(s)", v.len()));
                            }
                            Some(_) => {}
                        }
                    }
                }
            }
        }
    }

    match doc.get("runs").and_then(Json::as_arr) {
        None => out.push("missing `runs` array".to_string()),
        Some([]) => out.push("`runs` is empty".to_string()),
        Some(runs) => {
            for (i, run) in runs.iter().enumerate() {
                let Some(t) = run.get("transport") else {
                    out.push(format!("run {i}: missing `transport`"));
                    continue;
                };
                for key in ["mode", "front_links", "ingress", "back_links", "ad"] {
                    if t.get(key).is_none() {
                        out.push(format!("run {i}: transport missing `{key}`"));
                    }
                }
                match t.get("front_links").and_then(Json::as_arr) {
                    None | Some([]) => {
                        out.push(format!("run {i}: drives no front links"));
                    }
                    Some(links) => {
                        // Each entry is a `[dm, ce, stats]` triple.
                        for link in links {
                            let stats = link.as_arr().and_then(|triple| triple.get(2));
                            let complete = ["updates_sent", "bytes_sent"]
                                .iter()
                                .all(|k| stats.is_some_and(|s| s.get(k).is_some()));
                            if !complete {
                                out.push(format!("run {i}: front link lacks per-link counters"));
                                break;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal report satisfying every invariant `assert_chaos`
    /// checks — the tamper tests below each break one field.
    fn good_report() -> String {
        r#"{
          "totals": {
            "front_frames_dropped": 3, "backlink_reconnects": 1,
            "front_frames_sent": 10, "front_updates_sent": 20,
            "front_bytes_sent": 400, "updates_per_datagram": 2.0,
            "engine_wakeups": 90, "engine_timer_fires": 2,
            "engine_spurious_readiness": 0,
            "latency_p50_ns": 800,
            "latency_p99_ns": 4000, "latency_p999_ns": 9000
          },
          "socket_smoke": { "violations": [], "transport": { "mode": "Sockets" } },
          "tree": {
            "plans": 10, "violations": 0,
            "totals": {
              "updates_routed": 1800, "derived_emitted": 950,
              "derived_forwarded": 940, "derived_duplicates": 500,
              "reparent_events": 2, "replayed_frames": 115,
              "frames_to_dead": 96, "root_alerts": 430,
              "wire_frames": 1900, "wire_bytes": 91000
            },
            "runs": [
              { "plan": 0, "class": "tree/lossless/no-faults", "violations": [] },
              { "plan": 1, "class": "tree/subtree-kill+reparent", "violations": [] }
            ]
          },
          "runs": [
            { "plan": 0, "transport": {
                "mode": "Sockets", "ingress": [], "back_links": [], "ad": {},
                "front_links": [[0, 1, { "updates_sent": 20, "bytes_sent": 400 }]]
            } }
          ]
        }"#
        .to_string()
    }

    #[test]
    fn chaos_gate_accepts_a_complete_report() {
        let doc = json::parse(&good_report()).expect("fixture parses");
        assert_eq!(check_chaos_report(&doc), Vec::<String>::new());
    }

    #[test]
    fn chaos_gate_rejects_tampered_reports() {
        let tampers = [
            ("\"engine_wakeups\": 90", "\"engine_wakeups\": 0"),
            ("\"front_updates_sent\": 20,", ""),
            ("\"violations\": []", "\"violations\": [\"displayed mismatch\"]"),
            (
                "\"front_links\": [[0, 1, { \"updates_sent\": 20, \"bytes_sent\": 400 }]]",
                "\"front_links\": []",
            ),
            ("\"bytes_sent\": 400 }]]", "\"seen\": 400 }]]"),
            ("\"runs\": [", "\"trials\": ["),
            ("\"latency_p50_ns\": 800,", ""),
            ("\"latency_p99_ns\": 4000,", ""),
            ("\"latency_p999_ns\": 9000", "\"latency_p999_ns\": 10"),
            ("\"tree\": {", "\"forest\": {"),
            ("\"plans\": 10,", "\"plans\": 3,"),
            ("\"violations\": 0,", "\"violations\": 2,"),
            ("\"reparent_events\": 2,", "\"reparent_events\": 0,"),
            ("\"replayed_frames\": 115,", "\"replayed_frames\": 0,"),
            ("\"root_alerts\": 430,", "\"root_alerts\": 0,"),
            ("\"derived_forwarded\": 940,", ""),
            (
                "\"class\": \"tree/subtree-kill+reparent\", \"violations\": []",
                "\"class\": \"tree/subtree-kill+reparent\", \"violations\": [\"lost alert\"]",
            ),
            ("\"plan\": 1, \"class\": \"tree/subtree-kill+reparent\",", "\"plan\": 1,"),
        ];
        for (from, to) in tampers {
            let tampered = good_report().replace(from, to);
            assert_ne!(tampered, good_report(), "tamper `{from}` did not apply");
            let doc = json::parse(&tampered).expect("still valid JSON");
            assert!(!check_chaos_report(&doc).is_empty(), "tamper `{from}` passed the gate");
        }
    }
}
