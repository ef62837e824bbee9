//! Process-level checks of `rcm-paper`: its `--json` output reads back
//! with the shared reader and carries what the text tables show and
//! every verdict, and malformed arguments exit 2 with the usage line.

use std::process::{Command, Output};

use rcm_json::Json;

fn rcm_paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rcm-paper")).args(args).output().expect("spawn rcm-paper")
}

fn json_of(args: &[&str]) -> Json {
    let out = rcm_paper(args);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    rcm_json::parse(&String::from_utf8_lossy(&out.stdout)).expect("--json output is JSON")
}

#[test]
fn table1_json_reads_back() {
    let doc = json_of(&["--only", "table1", "--runs", "20", "--seed", "7", "--json"]);
    let matrices = doc.field("table1").and_then(|t| t.field("matrices")).and_then(Json::arr);
    let [doc] = matrices.expect("table1 has its matrix") else { panic!("one matrix") };
    assert_eq!(doc.field("filter").and_then(Json::str), Ok("AD-1"));
    let rows = doc.field("rows").and_then(Json::arr).expect("rows");
    assert_eq!(rows.len(), 4, "Table 1 has four scenario classes");
    for row in rows {
        let cells = row.field("cells").and_then(Json::arr).expect("cells");
        assert_eq!(cells.len(), 3, "ordered, complete, consistent");
        for cell in cells {
            assert_eq!(cell.field("runs").and_then(Json::u64), Ok(20));
            let violations = cell.field("violations").and_then(Json::u64).expect("violations");
            // A violating cell names the seed to replay; a clean one does not.
            let first_seed = cell.field("first_seed").expect("first_seed");
            assert_eq!(violations > 0, first_seed.as_u64().is_some(), "{row}");
        }
    }
}

#[test]
fn wire_sizes_json_reads_back() {
    let doc = json_of(&["--only", "wire_sizes", "--runs", "2", "--seed", "7", "--json"]);
    let rows = doc.field("wire_sizes").and_then(|w| w.field("sizes")).and_then(Json::arr);
    let rows = rows.expect("one row per scenario");
    assert_eq!(rows.len(), 3);
    for row in rows {
        let avg = |k: &str| row.field(k).and_then(Json::f64).expect(k);
        assert!(avg("heads_avg") <= avg("seqnos_avg") && avg("seqnos_avg") <= avg("full_avg"));
    }
}

#[test]
fn json_carries_every_verdict_and_a_failed_one_fails_the_process() {
    // One run cannot find every ✗ cell of Theorem 10's matrix, so its
    // agreement verdict fails: the JSON still carries it next to the
    // verdicts that hold, and the process exits 1 naming it.
    let out = rcm_paper(&["--only", "pda_buffering", "--only", "thm10", "--runs", "1", "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.trim_end(),
        "rcm-paper: FAILED thm10: Theorem 10: multi-variable systems — agreement with the paper: MISMATCH"
    );
    let doc =
        rcm_json::parse(&String::from_utf8_lossy(&out.stdout)).expect("--json output is JSON");
    assert!(matches!(&doc, Json::Obj(artifacts) if artifacts.len() == 2), "{doc}");
    let verdicts = |name: &str| -> Vec<(String, bool)> {
        let verdicts = doc.field(name).and_then(|a| a.field("verdicts")).and_then(Json::arr);
        let verdict = |v: &Json| {
            let claim = v.field("claim").and_then(Json::str).expect("claim").to_owned();
            (claim, v.field("holds") == Ok(&Json::Bool(true)))
        };
        verdicts.expect("verdicts").iter().map(verdict).collect()
    };
    let pda = verdicts("pda_buffering");
    assert!(matches!(&pda[..], [(claim, true)] if claim.contains("every alert")), "{pda:?}");
    let thm10 = verdicts("thm10");
    assert!(
        matches!(&thm10[..], [(agreement, false), (counterexample, true)]
            if agreement.contains("agreement") && counterexample.contains("counterexample")),
        "{thm10:?}"
    );
}

#[test]
fn an_unknown_flag_prints_usage_and_exits_2() {
    for args in [&["--bogus"][..], &["--runs", "many"], &["--only", "table9"], &["--seed"]] {
        let out = rcm_paper(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: rcm-paper"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
    }
}
